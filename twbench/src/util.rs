//! Small helpers shared by the workloads: seeding, timing summaries,
//! process memory and on-disk sizes.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tw_core::Match;

/// Attaches a description to any displayable error.
pub trait Ctx<T> {
    fn ctx(self, what: &str) -> Result<T, String>;
}

impl<T, E: std::fmt::Display> Ctx<T> for Result<T, E> {
    fn ctx(self, what: &str) -> Result<T, String> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

/// A per-process scratch directory under `.twbench/`, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(out_dir: &Path) -> Result<Self, String> {
        let dir = out_dir.join(format!("run-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).ctx(&format!("creating {}", dir.display()))?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// SplitMix64 finalizer: decorrelates `(seed, stream, index)` into one
/// generator seed, so every request of every connection gets its own
/// reproducible input.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A key for a query's values (FNV-1a over the bit patterns). TWNP v1 has
/// no request id, so the client span and the service span of one request
/// are joined on this.
pub fn values_key(values: &[f64]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A sorted sample of timings in one unit.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self(values)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile, `p` in `(0, 1]`; 0 for an empty sample.
    pub fn pct(&self, p: f64) -> f64 {
        let n = self.0.len();
        if n == 0 {
            return 0.0;
        }
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        self.0[rank - 1]
    }

    pub fn median(&self) -> f64 {
        self.pct(0.5)
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }
}

/// Runs `f` until `seconds` have passed, passing the iteration index;
/// returns the measured wall time. `f` returns `false` to stop early.
pub fn closed_loop(seconds: f64, mut f: impl FnMut(u64) -> bool) -> Duration {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed() < budget {
        if !f(i) {
            break;
        }
        i += 1;
    }
    start.elapsed()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").ctx("reading /proc/self/status")?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Total bytes of the regular files under `path` (recursively).
pub fn disk_bytes(path: &Path) -> Result<u64, String> {
    let meta = std::fs::metadata(path).ctx(&format!("stat {}", path.display()))?;
    if meta.is_file() {
        return Ok(meta.len());
    }
    let mut total = 0;
    for entry in std::fs::read_dir(path).ctx(&format!("listing {}", path.display()))? {
        let entry = entry.ctx("directory entry")?;
        total += disk_bytes(&entry.path())?;
    }
    Ok(total)
}

/// Raw `f64` payload bytes of `count` sequences of `len` values.
pub fn user_bytes(count: usize, len: usize) -> f64 {
    (count * len * std::mem::size_of::<f64>()) as f64
}

/// Builds a corpus `reps` times with `build` and keeps the last build;
/// returns it with the median build time in seconds. Each build gets its
/// own index so it can use a fresh path.
pub fn repeated_setup<T>(
    reps: usize,
    mut build: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        drop(last.take());
        let start = Instant::now();
        let built = build(rep)?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(built);
    }
    Ok((last.ok_or("setup ran zero times")?, times))
}

/// Seeded index sample: `n` distinct-ish picks from `0..len`.
pub fn sample_indices(seed: u64, len: usize, n: usize) -> Vec<usize> {
    if len == 0 {
        return Vec::new();
    }
    (0..n as u64)
        .map(|i| (mix(seed, 0x5A4D, i) % len as u64) as usize)
        .collect()
}

/// Whether two answers are identical: same ids, same distance bits.
pub fn same_answer(a: &[Match], b: &[Match]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.id == y.id && x.distance.to_bits() == y.distance.to_bits())
}
