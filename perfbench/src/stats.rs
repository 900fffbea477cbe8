//! Order statistics, process memory and process CPU time.

use std::time::Duration;

/// Median of an ascending-sorted slice (mean of the middle pair when
/// the length is even); 0 for an empty slice.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of an ascending-sorted slice of durations.
pub fn median_duration(sorted: &[Duration]) -> Duration {
    let n = sorted.len();
    match n {
        0 => Duration::ZERO,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2,
    }
}

/// Sorts `values` and returns their median.
pub fn median_of(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    median(&values)
}

/// Nearest-rank percentile `p` (0–100) of an ascending-sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The process's peak resident set (`VmHWM`) in MiB, from procfs.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Resets the process's peak resident set to its current resident set,
/// so a later [`peak_rss_mb`] covers only what ran in between.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset VmHWM: {e}"))
}

/// CPU time the whole process has used so far, every thread (ended ones
/// included), user and system. A thread asleep on I/O or a wake-up uses
/// none, and a kernel with paravirtual steal accounting leaves out the
/// time another tenant held the vCPU.
#[cfg(target_os = "linux")]
pub fn process_cpu() -> Duration {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, out: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: clock_gettime writes one timespec through a valid pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(t.sec as u64, t.nsec as u32)
}
