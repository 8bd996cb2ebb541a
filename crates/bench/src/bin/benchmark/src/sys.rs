//! Process CPU time and peak memory on Linux.

use std::ffi::{c_int, c_long};
use std::fs;

/// `struct timespec` of the Linux C ABI (`time_t` is a C `long`).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn clock_gettime(clock: c_int, time: *mut Timespec) -> c_int;
}

/// User + system CPU seconds of this process so far, over all its threads
/// (including threads that have exited), at nanosecond resolution.
/// (`/proc/self/stat` counts in 10 ms ticks, a tenth of a short
/// operation.)
pub fn cpu_seconds() -> f64 {
    let mut time = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `time` is a valid, writable `struct timespec`, and the
    // clock id is one Linux always provides.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    time.tv_sec as f64 + time.tv_nsec as f64 * 1e-9
}

/// Resets the peak resident set size to the current one (Linux ≥ 4.0),
/// so [`peak_rss_mb`] reports the peak since this call.
pub fn reset_peak_rss() {
    fs::write("/proc/self/clear_refs", "5").expect("/proc/self/clear_refs resets VmHWM");
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("the benchmark runs on Linux");
    parse_vm_hwm_kb(&status).expect("/proc/self/status has a VmHWM line") as f64 / 1024.0
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_counts_busy_threads_at_fine_resolution() {
        let before = cpu_seconds();
        std::thread::spawn(move || while cpu_seconds() - before < 0.03 {})
            .join()
            .expect("busy thread");
        let spent = cpu_seconds() - before;
        // The exited thread's 30 ms still count, at better than tick
        // resolution (10 ms ticks would read a whole number of ticks).
        assert!((0.03..1.0).contains(&spent), "{spent}");
        assert_ne!((spent * 100.0).fract(), 0.0);
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tbenchmark\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048));
    }

    #[test]
    fn the_peak_resets() {
        let grown = std::hint::black_box(vec![1u8; 64 << 20]);
        let peak = peak_rss_mb();
        drop(grown);
        reset_peak_rss();
        assert!(peak_rss_mb() < peak - 32.0, "the 64 MiB buffer no longer counts");
    }
}
