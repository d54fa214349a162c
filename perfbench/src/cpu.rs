//! On-CPU time of the calling thread.

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Nanoseconds the calling thread has spent on a CPU, in user and kernel
/// mode; time blocked (in an fsync, say) or descheduled does not count.
pub fn thread_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the duration
    // of the call, and CLOCK_THREAD_CPUTIME_ID is a clock every Linux
    // kernel provides; the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(test)]
mod tests {
    #[test]
    fn thread_cpu_time_counts_work_not_sleep() {
        let start = super::thread_ns();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = super::thread_ns() - start;
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let worked = super::thread_ns() - start - slept;
        assert!(slept < 10_000_000, "sleeping cost {slept} ns of CPU");
        assert!(worked > 1_000_000, "20M adds took only {worked} ns of CPU");
    }
}
