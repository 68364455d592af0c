//! What a run prints: operation accounting, metric values, and the
//! statistics and process measurements they are made from.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Operations attempted and failed. A statement that returns an error
/// and one whose result disagrees with the model both count as failed;
/// the second also makes the run incorrect.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error or a wrong result.
    pub failed: u64,
    /// Operations whose result disagreed with the model.
    pub wrong: u64,
}

/// Failure messages echoed to standard error per run, so one broken
/// statement cannot flood the log.
const MAX_ECHOED: u64 = 5;

impl Tally {
    /// Record one operation's outcome: `Ok` when it succeeded with the
    /// expected result, `Err` with the reason otherwise.
    pub fn record(&mut self, what: &str, outcome: Result<(), Failure>) {
        self.attempted += 1;
        if let Err(f) = outcome {
            if self.failed < MAX_ECHOED {
                eprintln!("perfbench: {what}: {f}");
            }
            self.failed += 1;
            if let Failure::Wrong(_) = f {
                self.wrong += 1;
            }
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}

/// Why an operation failed.
#[derive(Debug)]
pub enum Failure {
    /// The engine returned an error.
    Error(String),
    /// The engine returned a result the model does not expect.
    Wrong(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Error(e) => write!(f, "error: {e}"),
            Failure::Wrong(e) => write!(f, "wrong result: {e}"),
        }
    }
}

/// The result a run prints as its last line.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Add a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Whether every checked result agreed with the model.
    pub fn correct(&self) -> bool {
        self.tally.wrong == 0
    }

    /// The one-line JSON object the benchmark prints last.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.tally.attempted,
            self.tally.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            // `{:?}` prints the shortest text that reads back as the same
            // f64, so no digit is lost; non-finite values are not JSON.
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Median of `v` (which it sorts); NaN when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// CPU time this process has spent in user mode so far, summed over all
/// its threads (`getrusage(RUSAGE_SELF)`), in nanoseconds. It leaves out
/// the kernel's time in system calls: on a virtual machine a thread in
/// `fsync` can use system time for as long as the disk takes, so system
/// time follows the host's I/O rather than the work done.
pub fn user_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timeval {
        tv_sec: i64,
        tv_usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage {
        utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a valid, writable rusage for the whole call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    ru.utime.tv_sec as u64 * 1_000_000_000 + ru.utime.tv_usec as u64 * 1_000
}

/// The process's resident-set high-water mark in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Bytes of every file under `dir`, in MB (10^6 bytes).
pub fn disk_mb(dir: &Path) -> f64 {
    fn walk(dir: &Path) -> u64 {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => walk(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    }
    walk(dir) as f64 / 1e6
}

/// A scratch directory for one run's volumes and logs, inside the
/// benchmark's own directory, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Create `work/<name>-<pid>` next to this package's manifest.
    pub fn new(name: &str) -> std::io::Result<WorkDir> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, empty subdirectory.
    pub fn sub(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave `work/` itself only if another run still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
