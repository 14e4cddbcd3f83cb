//! The process's own resource usage (`getrusage(RUSAGE_SELF)`) and CPU
//! placement (`sched_setaffinity`).

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads its resource usage with the 64-bit Linux getrusage layout");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a live, writable `struct rusage` in this platform's
    // layout (checked by the cfg above), and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    u
}

/// User plus system CPU time of the whole process so far.
pub fn cpu_time() -> Duration {
    let u = rusage();
    let tv = |t: &Timeval| Duration::new(t.sec as u64, t.usec as u32 * 1000);
    tv(&u.utime) + tv(&u.stime)
}

/// Peak resident set of the process, in MB (2^20 bytes).
pub fn peak_rss_mb() -> f64 {
    rusage().maxrss_kb as f64 / 1024.0
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u64; 16];

/// Run `f` with the calling thread — and every thread it starts, which
/// inherit the mask — on one CPU, then restore the thread's CPU mask.
pub fn on_one_cpu<T>(f: impl FnOnce() -> T) -> T {
    let mut all: CpuSet = [0; 16];
    // SAFETY: `all` is a writable `cpu_set_t` of the size passed; pid 0 is
    // the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), all.as_mut_ptr()) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    let word = all
        .iter()
        .position(|&w| w != 0)
        .expect("some CPU is allowed");
    // The lowest CPU the thread may run on now.
    let mut one: CpuSet = [0; 16];
    one[word] = all[word] & all[word].wrapping_neg();
    // SAFETY: both masks are `cpu_set_t`s of the size passed, and each
    // names at least one CPU the thread may run on.
    let set = |mask: &CpuSet| unsafe {
        assert_eq!(
            sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()),
            0,
            "sched_setaffinity failed"
        );
    };
    set(&one);
    let out = f();
    set(&all);
    out
}
