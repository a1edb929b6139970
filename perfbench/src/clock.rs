//! Process CPU time, the clock the end-to-end times are read from.
//!
//! The benchmark host is a shared virtual machine: as neighbours load it,
//! the hypervisor steals vCPU time and wall-clock op times drift by 10–45%
//! between runs minutes apart, while the CPU time this process consumes
//! (every thread, exited ones included) repeats within a few percent. So
//! `setup_s` and the op times behind `ops_per_s` and `op_ms_*` are CPU
//! time. Per-layer spans stay on the wall clock.

use std::time::Duration;

#[cfg(not(target_os = "linux"))]
compile_error!("perfbench reads Linux process clocks and /proc");

/// CPU time consumed so far by every thread of this process.
pub fn process_cpu() -> Duration {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clk: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec, and the clock id is a
    // constant Linux accepts for the calling process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Milliseconds of process CPU time spent since `start`.
pub fn cpu_ms_since(start: Duration) -> f64 {
    (process_cpu() - start).as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_time_advances_with_work() {
        let start = process_cpu();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_ms_since(start) > 0.0);
    }
}
