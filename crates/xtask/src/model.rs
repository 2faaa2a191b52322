//! The symbolic item model: a brace-aware view of one source file.
//!
//! The lexical rules in [`crate::rules`] look at a token and its immediate
//! neighbours; the symbolic rules in [`crate::symbolic`] need *structure* —
//! which function a loop is in, how long a lock guard stays live, what a
//! function calls. This module builds that structure on top of the lexer,
//! without a real parser: function bodies are matched-brace token ranges,
//! and every per-function fact is recorded with its token index so span
//! containment is a pair of integer comparisons.
//!
//! Per function the model records:
//!
//! * **locks acquired**, in order — zero-argument `.lock()` / `.read()` /
//!   `.write()` calls, with the field name before the call as the lock's
//!   identity and, for `let`-bound guards, the token span during which the
//!   guard is lexically live (until the enclosing block closes or
//!   `drop(guard)`, the same scope model as the lexical `lock-hygiene`
//!   rule);
//! * **calls made** — `name(`/`recv.name(` sites, for one-level cross-file
//!   resolution by name;
//! * **loops** (`for`/`while`/`loop`) with their body token ranges;
//! * **governor polls** (`cancelled()` or a `charge_*` whose result is
//!   consumed) and **budget accruals** (`add_dtw_cells`/`charge_cells`/… or
//!   a `fetch_add` on a metered counter field);
//! * **blocking calls** (`sync`/`sleep`/`commit`/`flush`/retry-backoff
//!   names) with their receiver, for the `lock-blocking` rule;
//! * **counter increments** (`field.fetch_add(` / `field +=`) and the set
//!   of identifiers the body mentions, for the `stats-ledger` rule.
//!
//! Test code (`#[cfg(test)]` / `#[test]` items) is excluded, exactly as in
//! the lexical pass. Nested `fn` items own their tokens: a loop inside a
//! nested helper is attributed to the helper, not its enclosing function.

use std::collections::BTreeSet;

use crate::lexer::{Kind, Ledger, Lexed, Token};
use crate::rules::{self, FileClass};

/// Method names whose zero-argument call acquires a lock guard.
const GUARD_CALLS: &[&str] = &["lock", "read", "write"];

/// Calls that charge the query budget meters the `cancel-coverage` rule
/// tracks (`dtw_cells` / `pager_reads` work, per the §10 cost model).
pub const ACCRUAL_CALLS: &[&str] = &[
    "add_dtw_cells",
    "add_pager_reads",
    "charge_cells",
    "charge_pager_reads",
];

/// Counter fields whose direct `fetch_add` counts as a budget accrual.
pub const ACCRUAL_FIELDS: &[&str] = &["dtw_cells", "pager_reads"];

/// Calls that observe the governor. `cancelled`/`is_cancelled` always
/// poll; the `charge_*` family polls only when the returned should-cancel
/// flag is consumed (`if token.charge_cells(n) { … }`), not discarded.
pub const POLL_CALLS: &[&str] = &[
    "cancelled",
    "is_cancelled",
    "charge_cells",
    "charge_pager_reads",
    "charge_candidate_bytes",
];

/// Whether a call name is considered blocking for `lock-blocking`:
/// device syncs, sleeps, WAL commits/flushes, and retry/backoff helpers.
pub fn is_blocking_call(name: &str) -> bool {
    matches!(name, "sync" | "sleep" | "commit" | "flush")
        || name.contains("retry")
        || name.contains("backoff")
}

/// One call site: `name(`, with the receiver ident if it was `recv.name(`.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub name: String,
    pub receiver: Option<String>,
    pub tok: usize,
    pub line: u32,
}

/// One `for`/`while`/`loop` with its body token range (inside the braces).
#[derive(Debug, Clone)]
pub struct LoopSite {
    pub line: u32,
    pub body: (usize, usize),
}

/// One lock acquisition. `guard` is the `let`-bound variable when the
/// acquisition is a guard binding; `span_end` is the token index where the
/// guard dies (`== tok` for temporaries, which release within their own
/// statement).
#[derive(Debug, Clone)]
pub struct LockEvent {
    /// Lock identity: the field name before `.lock()`, if nameable.
    pub lock: Option<String>,
    pub guard: Option<String>,
    pub tok: usize,
    pub span_end: usize,
    pub line: u32,
}

/// A named fact site (accrual or counter increment).
#[derive(Debug, Clone)]
pub struct Site {
    pub name: String,
    pub tok: usize,
    pub line: u32,
}

/// A governor-poll site; `consumed` is false when the charge result was
/// discarded (`let _ = …` or bare statement position).
#[derive(Debug, Clone)]
pub struct PollSite {
    pub tok: usize,
    pub line: u32,
    pub consumed: bool,
}

/// One function (free, method, or nested) with its per-body facts.
#[derive(Debug)]
pub struct FnModel {
    pub name: String,
    pub line: u32,
    /// Token index of the `fn` keyword.
    pub decl: usize,
    /// `(open brace, close brace)` token indices of the body.
    pub body: (usize, usize),
    pub calls: Vec<CallSite>,
    pub loops: Vec<LoopSite>,
    pub locks: Vec<LockEvent>,
    pub accruals: Vec<Site>,
    pub polls: Vec<PollSite>,
    pub blocking: Vec<CallSite>,
    pub increments: Vec<Site>,
    /// Every identifier the body mentions (for manifest tooth checks).
    pub mentions: BTreeSet<String>,
}

impl FnModel {
    /// Guard-bound acquisitions with a non-empty live span.
    pub fn guards(&self) -> impl Iterator<Item = &LockEvent> {
        self.locks
            .iter()
            .filter(|l| l.guard.is_some() && l.span_end > l.tok)
    }
}

/// One struct field: name, first identifier of its type, source line.
#[derive(Debug, Clone)]
pub struct FieldModel {
    pub name: String,
    pub ty: String,
    pub line: u32,
}

/// One struct definition with its named fields.
#[derive(Debug)]
pub struct StructModel {
    pub name: String,
    pub line: u32,
    pub fields: Vec<FieldModel>,
}

/// The symbolic model of one analyzed file.
#[derive(Debug)]
pub struct FileModel {
    pub rel: String,
    pub class: FileClass,
    pub fns: Vec<FnModel>,
    pub structs: Vec<StructModel>,
    pub ledgers: Vec<Ledger>,
}

/// Builds the model for one lexed file.
pub fn build(rel: &str, lexed: &Lexed, class: FileClass) -> FileModel {
    let tokens = &lexed.tokens;
    let skip = rules::test_code_mask(tokens);
    let mut fns = find_fns(tokens, &skip);
    collect_facts(tokens, &skip, &mut fns);
    FileModel {
        rel: rel.to_string(),
        class,
        fns,
        structs: find_structs(tokens, &skip),
        ledgers: lexed.ledgers.clone(),
    }
}

fn at(tokens: &[Token], i: usize) -> &str {
    tokens.get(i).map(|t| t.text.as_str()).unwrap_or("")
}

fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    tokens
        .get(i)
        .filter(|t| t.kind == Kind::Ident)
        .map(|t| t.text.as_str())
}

// ---------------------------------------------------------------------------
// item discovery
// ---------------------------------------------------------------------------

/// Finds every `fn` with a body, outer functions before the ones nested in
/// them (token order guarantees that).
fn find_fns(tokens: &[Token], skip: &[bool]) -> Vec<FnModel> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if skip[i] || tokens[i].kind != Kind::Ident || tokens[i].text != "fn" {
            i += 1;
            continue;
        }
        let Some(name) = ident_at(tokens, i + 1) else {
            i += 1;
            continue;
        };
        // The body `{` is the first brace at paren/bracket depth 0 after the
        // signature; a `;` first means a bodyless trait declaration.
        let mut depth = 0i32;
        let mut j = i + 2;
        let mut open = None;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.kind == Kind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    ";" if depth == 0 => break,
                    "{" if depth == 0 => {
                        open = Some(j);
                        break;
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j + 1;
            continue;
        };
        let close = rules::matching(tokens, open, "{", "}").unwrap_or(tokens.len() - 1);
        out.push(FnModel {
            name: name.to_string(),
            line: tokens[i].line,
            decl: i,
            body: (open, close),
            calls: Vec::new(),
            loops: Vec::new(),
            locks: Vec::new(),
            accruals: Vec::new(),
            polls: Vec::new(),
            blocking: Vec::new(),
            increments: Vec::new(),
            mentions: BTreeSet::new(),
        });
        i = open + 1; // descend: nested fns are separate items
    }
    out
}

/// Finds `struct Name { … }` definitions and their named fields.
fn find_structs(tokens: &[Token], skip: &[bool]) -> Vec<StructModel> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if skip[i] || tokens[i].kind != Kind::Ident || tokens[i].text != "struct" {
            i += 1;
            continue;
        }
        let Some(name) = ident_at(tokens, i + 1) else {
            i += 1;
            continue;
        };
        // Scan past generics to the defining delimiter; `;` and `(` mean
        // unit/tuple structs, which have no named fields to model.
        let mut j = i + 2;
        let mut open = None;
        while j < tokens.len() {
            match at(tokens, j) {
                ";" | "(" => break,
                "{" => {
                    open = Some(j);
                    break;
                }
                _ => j += 1,
            }
        }
        // Unit/tuple structs have no named fields but are still nameable
        // (the ledger scope check resolves structs by name).
        let Some(open) = open else {
            out.push(StructModel {
                name: name.to_string(),
                line: tokens[i].line,
                fields: Vec::new(),
            });
            i = j + 1;
            continue;
        };
        let close = rules::matching(tokens, open, "{", "}").unwrap_or(tokens.len() - 1);
        let mut fields = Vec::new();
        let mut depth = 0i32;
        for k in open + 1..close {
            let t = &tokens[k];
            if t.kind == Kind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    _ => {}
                }
                continue;
            }
            // A field is `name :` at depth 0 inside the braces; the type's
            // first identifier is enough to classify it (u64 / AtomicU64 /
            // container).
            if depth == 0 && t.kind == Kind::Ident && at(tokens, k + 1) == ":" {
                let ty = (k + 2..close)
                    .take(12)
                    .find_map(|m| ident_at(tokens, m))
                    .unwrap_or("")
                    .to_string();
                fields.push(FieldModel {
                    name: t.text.clone(),
                    ty,
                    line: t.line,
                });
            }
        }
        out.push(StructModel {
            name: name.to_string(),
            line: tokens[i].line,
            fields,
        });
        i = close + 1;
    }
    out
}

// ---------------------------------------------------------------------------
// per-function fact collection
// ---------------------------------------------------------------------------

/// Maps each token to the innermost function owning it (or MAX for module-
/// level tokens). Functions are in token order, so painting ranges in order
/// lets nested items overwrite their enclosing function's claim.
fn owners(tokens: &[Token], fns: &[FnModel]) -> Vec<usize> {
    let mut owner = vec![usize::MAX; tokens.len()];
    for (k, f) in fns.iter().enumerate() {
        for slot in owner.iter_mut().take(f.body.1 + 1).skip(f.decl) {
            *slot = k;
        }
    }
    owner
}

fn collect_facts(tokens: &[Token], skip: &[bool], fns: &mut [FnModel]) {
    let owner = owners(tokens, fns);
    let own = |i: usize| -> Option<usize> {
        let k = *owner.get(i)?;
        (k != usize::MAX && !skip[i]).then_some(k)
    };

    // Acquisitions first, so guard binding can claim them by token index.
    let mut acquisitions: Vec<(usize, LockEvent)> = Vec::new(); // (fn, event)
    for (i, t) in tokens.iter().enumerate() {
        let Some(k) = own(i) else { continue };
        let is_acquire = t.kind == Kind::Ident
            && GUARD_CALLS.contains(&t.text.as_str())
            && at(tokens, i.wrapping_sub(1)) == "."
            && at(tokens, i + 1) == "("
            && at(tokens, i + 2) == ")";
        if is_acquire {
            let lock = i
                .checked_sub(2)
                .and_then(|p| ident_at(tokens, p))
                .map(str::to_string);
            acquisitions.push((
                k,
                LockEvent {
                    lock,
                    guard: None,
                    tok: i,
                    span_end: i,
                    line: t.line,
                },
            ));
        }
    }

    // `let [mut] name = …lock()…;` promotes acquisitions in the initializer
    // to guards that live until the block closes or `drop(name)`.
    for (i, t) in tokens.iter().enumerate() {
        let Some(k) = own(i) else { continue };
        if t.kind != Kind::Ident || t.text != "let" {
            continue;
        }
        let mut j = i + 1;
        if at(tokens, j) == "mut" {
            j += 1;
        }
        let Some(name) = ident_at(tokens, j) else {
            continue;
        };
        if name == "_" || at(tokens, j + 1) != "=" {
            continue;
        }
        let Some(semi) = (j + 2..tokens.len().min(j + 62)).find(|&m| tokens[m].text == ";") else {
            continue;
        };
        let body_end = fns[k].body.1;
        let span_end = guard_span_end(tokens, semi + 1, body_end, name);
        for (ak, acq) in acquisitions.iter_mut() {
            // The initializer must *end* in the acquisition (`…lock();`):
            // anything chained after it (`.lock().clone()`) consumes the
            // temporary guard within the statement, so the binding is a
            // value, not a guard.
            if *ak == k && acq.tok > j + 1 && acq.tok + 3 == semi {
                acq.guard = Some(name.to_string());
                acq.span_end = span_end;
            }
        }
    }
    for (k, acq) in acquisitions {
        fns[k].locks.push(acq);
    }

    // Everything else is a single pass keyed on the token's owner.
    for (i, t) in tokens.iter().enumerate() {
        let Some(k) = own(i) else { continue };
        let f = &mut fns[k];
        let prev = at(tokens, i.wrapping_sub(1));
        let next = at(tokens, i + 1);

        if t.kind == Kind::Ident && i > f.body.0 {
            f.mentions.insert(t.text.clone());
        }

        if t.kind == Kind::Punct && t.text == "+=" {
            if let Some(name) = i.checked_sub(1).and_then(|p| ident_at(tokens, p)) {
                f.increments.push(Site {
                    name: name.to_string(),
                    tok: i,
                    line: t.line,
                });
            }
            continue;
        }
        if t.kind != Kind::Ident {
            continue;
        }

        match t.text.as_str() {
            "for" | "while" | "loop" => {
                if let Some(open) = loop_body_open(tokens, i) {
                    let close = rules::matching(tokens, open, "{", "}").unwrap_or(tokens.len() - 1);
                    f.loops.push(LoopSite {
                        line: t.line,
                        body: (open, close),
                    });
                }
                continue;
            }
            "fetch_add" if prev == "." && next == "(" => {
                if let Some(name) = i.checked_sub(2).and_then(|p| ident_at(tokens, p)) {
                    f.increments.push(Site {
                        name: name.to_string(),
                        tok: i,
                        line: t.line,
                    });
                    if ACCRUAL_FIELDS.contains(&name) {
                        f.accruals.push(Site {
                            name: name.to_string(),
                            tok: i,
                            line: t.line,
                        });
                    }
                }
                continue;
            }
            _ => {}
        }

        if !is_call(tokens, i) {
            continue;
        }
        let name = t.text.as_str();
        if ACCRUAL_CALLS.contains(&name) {
            f.accruals.push(Site {
                name: name.to_string(),
                tok: i,
                line: t.line,
            });
        }
        if POLL_CALLS.contains(&name) && prev == "." {
            f.polls.push(PollSite {
                tok: i,
                line: t.line,
                consumed: result_is_consumed(tokens, i),
            });
        }
        let receiver = (prev == ".")
            .then(|| i.checked_sub(2).and_then(|p| ident_at(tokens, p)))
            .flatten()
            .map(str::to_string);
        if is_blocking_call(name) {
            f.blocking.push(CallSite {
                name: name.to_string(),
                receiver: receiver.clone(),
                tok: i,
                line: t.line,
            });
        }
        let is_acquire = GUARD_CALLS.contains(&name) && prev == "." && at(tokens, i + 2) == ")";
        let is_keyword = matches!(
            name,
            "if" | "while" | "for" | "match" | "loop" | "return" | "move" | "fn" | "drop"
        );
        if !is_acquire && !is_keyword && prev != "fn" {
            f.calls.push(CallSite {
                name: name.to_string(),
                receiver,
                tok: i,
                line: t.line,
            });
        }
    }
}

/// Whether the identifier at `i` is called: `name(..)`, or `name::<..>(..)`
/// through a turbofish (bounded scan for the closing `>`).
fn is_call(tokens: &[Token], i: usize) -> bool {
    match at(tokens, i + 1) {
        "(" => true,
        "::" if at(tokens, i + 2) == "<" => {
            let mut depth = 0i32;
            for j in i + 2..tokens.len().min(i + 34) {
                depth += match at(tokens, j) {
                    "<" => 1,
                    "<<" => 2,
                    ">" => -1,
                    ">>" => -2,
                    _ => 0,
                };
                if depth <= 0 {
                    return at(tokens, j + 1) == "(";
                }
            }
            false
        }
        _ => false,
    }
}

/// Where a guard bound just before `from` dies: the enclosing block's `}`
/// (depth goes negative), an explicit `drop(name)`, or the function's end.
fn guard_span_end(tokens: &[Token], from: usize, body_end: usize, name: &str) -> usize {
    let mut depth = 0i32;
    let mut k = from;
    while k <= body_end && k < tokens.len() {
        let t = &tokens[k];
        if t.kind == Kind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth < 0 {
                        return k;
                    }
                }
                _ => {}
            }
        } else if t.text == "drop" && at(tokens, k + 1) == "(" && at(tokens, k + 2) == name {
            return k;
        }
        k += 1;
    }
    body_end.min(tokens.len().saturating_sub(1))
}

/// The `{` opening a loop body: the first brace outside parens/brackets
/// after the keyword (loop headers cannot contain bare braces in Rust).
fn loop_body_open(tokens: &[Token], kw: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(kw + 1) {
        if t.kind == Kind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => return Some(j),
                ";" if depth == 0 => return None, // e.g. a stray `loop` label
                _ => {}
            }
        }
    }
    None
}

/// Whether the value produced at call token `i` is consumed. Scans back to
/// the statement start (`;` / `{` / `}`): `let _ =` and bare statement
/// position mean discarded; any control-flow or binding marker in between
/// means the should-cancel flag actually steers the code.
fn result_is_consumed(tokens: &[Token], i: usize) -> bool {
    let start = (0..i)
        .rev()
        .find(|&m| {
            tokens[m].kind == Kind::Punct && matches!(tokens[m].text.as_str(), ";" | "{" | "}")
        })
        .map(|m| m + 1)
        .unwrap_or(0);
    if at(tokens, start) == "let" && at(tokens, start + 1) == "_" {
        return false;
    }
    tokens[start..i].iter().any(|t| {
        matches!(
            t.text.as_str(),
            "if" | "while"
                | "match"
                | "return"
                | "="
                | "=>"
                | "&&"
                | "||"
                | "!"
                | ","
                | "?"
                | "+="
                | "|="
                | "&="
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn model(src: &str) -> FileModel {
        build("t.rs", &lex(src), FileClass::library())
    }

    #[test]
    fn fns_and_nested_fns_own_their_tokens() {
        let m = model("fn outer() { for x in v { work(x); }\n fn inner() { loop { spin(); } } }");
        assert_eq!(m.fns.len(), 2);
        let outer = &m.fns[0];
        let inner = &m.fns[1];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.loops.len(), 1);
        assert_eq!(inner.loops.len(), 1);
        assert!(outer.calls.iter().any(|c| c.name == "work"));
        assert!(!outer.calls.iter().any(|c| c.name == "spin"));
    }

    #[test]
    fn turbofish_calls_are_calls() {
        let m = model("fn f() { step::<true>(x); nest::<Vec<Vec<u8>>>(); let t = a::<T> < b; }");
        let names: Vec<_> = m.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["step", "nest"]);
    }

    #[test]
    fn guard_spans_and_temporaries() {
        let m = model(
            "fn f(&self) { let wal = self.wal.lock(); wal.push(1); drop(wal); \
             self.meta.lock().bump(); }",
        );
        let f = &m.fns[0];
        assert_eq!(f.locks.len(), 2);
        let wal = &f.locks[0];
        assert_eq!(wal.lock.as_deref(), Some("wal"));
        assert_eq!(wal.guard.as_deref(), Some("wal"));
        assert!(wal.span_end > wal.tok);
        let meta = &f.locks[1];
        assert_eq!(meta.lock.as_deref(), Some("meta"));
        assert!(meta.guard.is_none());
        assert_eq!(meta.span_end, meta.tok);
        // drop() released the wal guard before the meta acquisition.
        assert!(wal.span_end < meta.tok);
    }

    #[test]
    fn poll_consumption_is_classified() {
        let m = model(
            "fn f(t: &CancelToken) { if t.charge_cells(9) { return; } \
             let _ = t.charge_cells(1); t.charge_pager_reads(2); \
             let stop = t.charge_cells(3); }",
        );
        let polls = &m.fns[0].polls;
        assert_eq!(polls.len(), 4);
        assert!(polls[0].consumed, "if-condition consumes");
        assert!(!polls[1].consumed, "let _ discards");
        assert!(!polls[2].consumed, "statement position discards");
        assert!(polls[3].consumed, "binding consumes");
    }

    #[test]
    fn accruals_cover_calls_and_field_fetch_add() {
        let m = model(
            "fn f(&self) { self.counters.add_dtw_cells(9); \
             self.dtw_cells.fetch_add(1, Ordering::Relaxed); \
             self.verified.fetch_add(1, Ordering::Relaxed); }",
        );
        let f = &m.fns[0];
        assert_eq!(f.accruals.len(), 2, "{:?}", f.accruals);
        assert_eq!(f.increments.len(), 2, "{:?}", f.increments);
    }

    #[test]
    fn structs_expose_typed_fields() {
        let m = model(
            "pub struct S { pub verified: u64, dtw_cells: AtomicU64, phases: PhaseTimes }\n\
             struct Unit;\nstruct Tup(u64);",
        );
        assert_eq!(m.structs.len(), 3);
        let s = &m.structs[0];
        assert_eq!(s.name, "S");
        let tys: Vec<_> = s.fields.iter().map(|f| f.ty.as_str()).collect();
        assert_eq!(tys, ["u64", "AtomicU64", "PhaseTimes"]);
        assert!(m.structs[1].fields.is_empty());
        assert!(m.structs[2].fields.is_empty());
    }

    #[test]
    fn test_code_is_excluded_from_the_model() {
        let m = model("fn f() {}\n#[cfg(test)]\nmod t { fn g() { loop { x.lock(); } } }");
        assert_eq!(m.fns.len(), 1);
        assert_eq!(m.fns[0].name, "f");
    }

    #[test]
    fn blocking_calls_record_their_receiver() {
        let m = model("fn f(&self) { self.pager.sync(); wal.commit(); retry_with_backoff(); }");
        let names: Vec<_> = m.fns[0]
            .blocking
            .iter()
            .map(|b| (b.name.as_str(), b.receiver.as_deref()))
            .collect();
        assert_eq!(
            names,
            [
                ("sync", Some("pager")),
                ("commit", Some("wal")),
                ("retry_with_backoff", None)
            ]
        );
    }
}
