//! What the harness reads from the host: process and thread CPU
//! clocks, context-switch counts, peak memory, core count, and a fixed
//! single-thread calibration loop that makes a noisy episode
//! recognisable afterwards.

use std::time::Instant;

/// Process-wide resource usage at one instant (all threads, including
/// ones that already exited).
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub user_us: f64,
    pub sys_us: f64,
    /// Voluntary context switches (a thread blocked).
    pub vcsw: u64,
    /// Involuntary context switches (a thread was preempted).
    pub icsw: u64,
}

impl Usage {
    pub fn cpu_us(&self) -> f64 {
        self.user_us + self.sys_us
    }

    /// Usage accumulated since `earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_us: self.user_us - earlier.user_us,
            sys_us: self.sys_us - earlier.sys_us,
            vcsw: self.vcsw - earlier.vcsw,
            icsw: self.icsw - earlier.icsw,
        }
    }

    pub fn add(&mut self, other: &Usage) {
        self.user_us += other.user_us;
        self.sys_us += other.sys_us;
        self.vcsw += other.vcsw;
        self.icsw += other.icsw;
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    use std::ffi::{c_int, c_long};

    #[repr(C)]
    #[derive(Default)]
    pub struct Timeval {
        pub sec: c_long,
        pub usec: c_long,
    }

    /// `struct rusage` of 64-bit Linux: two timevals, fourteen longs.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub utime: Timeval,
        pub stime: Timeval,
        pub maxrss: c_long,
        pub unused: [c_long; 11],
        pub nvcsw: c_long,
        pub nivcsw: c_long,
    }

    #[repr(C)]
    #[derive(Default)]
    pub struct Timespec {
        pub sec: c_long,
        pub nsec: c_long,
    }

    pub const RUSAGE_SELF: c_int = 0;
    pub const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

    /// `cpu_set_t`: 1024 bits.
    pub type CpuSet = [u64; 16];

    extern "C" {
        pub fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
        pub fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
        pub fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
        pub fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    }
}

/// The CPUs the calling thread may run on, lowest first. Empty off
/// 64-bit Linux.
fn allowed_cpus() -> Vec<usize> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        let mut set: sys::CpuSet = [0; 16];
        // SAFETY: `set` is a live, writable 128-byte buffer and its
        // size is passed along; the kernel writes at most that much.
        let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&set), &mut set) };
        if rc == 0 {
            return (0..1024)
                .filter(|c| set[c / 64] & (1u64 << (c % 64)) != 0)
                .collect();
        }
    }
    Vec::new()
}

/// Restricts thread `tid` (0 = the caller) to `cpus`.
fn set_affinity(tid: i32, cpus: &[usize]) -> bool {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        let mut set: sys::CpuSet = [0; 16];
        for c in cpus.iter().filter(|c| **c < 1024) {
            set[c / 64] |= 1u64 << (c % 64);
        }
        // SAFETY: `set` is a live 128-byte buffer and its size is
        // passed along; the kernel only reads it.
        return unsafe { sys::sched_setaffinity(tid, std::mem::size_of_val(&set), &set) } == 0;
    }
    #[allow(unreachable_code)]
    {
        let _ = (tid, cpus);
        false
    }
}

/// Whether `confine_to_one_cpu` succeeded.
static CONFINED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Confines the process to one CPU — the highest-numbered one it is
/// allowed (device interrupts land on CPU 0). Returns false where that
/// cannot be done; the run then goes ahead unconfined and says so.
///
/// Why: on this kind of host the second vCPU is not a second core.
/// Two busy threads get anything between one and two cores' worth of
/// time, for minutes at a stretch, so every number that depends on two
/// threads running at once swings by up to a factor of two between
/// runs of the same code. (README, "One CPU".)
///
/// Call it before any other thread exists and before anything sizes
/// itself by the core count: the program under test then configures
/// itself the way it would on a one-CPU machine, and that is the
/// configuration every number describes.
pub fn confine_to_one_cpu() -> bool {
    let Some(last) = allowed_cpus().last().copied() else {
        return false;
    };
    let ok = set_affinity(0, &[last]);
    CONFINED.store(ok, std::sync::atomic::Ordering::Relaxed);
    ok
}

pub fn confined() -> bool {
    CONFINED.load(std::sync::atomic::Ordering::Relaxed)
}

/// `getrusage(RUSAGE_SELF)`. All zeros off 64-bit Linux.
pub fn usage() -> Usage {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        let mut ru = sys::Rusage::default();
        // SAFETY: `ru` is a live, writable `struct rusage` with the
        // 64-bit Linux layout (2 timevals + 14 longs = 144 bytes);
        // getrusage writes only inside it.
        let rc = unsafe { sys::getrusage(sys::RUSAGE_SELF, &mut ru) };
        if rc == 0 {
            return Usage {
                user_us: ru.utime.sec as f64 * 1e6 + ru.utime.usec as f64,
                sys_us: ru.stime.sec as f64 * 1e6 + ru.stime.usec as f64,
                vcsw: ru.nvcsw as u64,
                icsw: ru.nivcsw as u64,
            };
        }
    }
    Usage::default()
}

/// CPU time consumed so far by the calling thread, nanoseconds
/// (`CLOCK_THREAD_CPUTIME_ID`). 0 off 64-bit Linux.
pub fn thread_cpu_ns() -> u64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        let mut ts = sys::Timespec::default();
        // SAFETY: `ts` is a live, writable `struct timespec` (two
        // longs on 64-bit Linux); clock_gettime writes only inside it.
        let rc = unsafe { sys::clock_gettime(sys::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        if rc == 0 {
            return ts.sec as u64 * 1_000_000_000 + ts.nsec as u64;
        }
    }
    0
}

/// Peak resident set of the process so far, MB (`VmHWM`, which
/// `/proc/self/status` gives in kB).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// On-CPU nanoseconds of every live thread whose name starts with
/// `prefix` (`/proc/self/task/*/schedstat`, first field). Used for the
/// `sacarray` pool workers, whose CPU is box work done outside the
/// box's own thread.
pub fn threads_cpu_ns(prefix: &str) -> u64 {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    dir.flatten()
        .filter(|e| {
            std::fs::read_to_string(e.path().join("comm")).is_ok_and(|c| c.starts_with(prefix))
        })
        .filter_map(|e| {
            std::fs::read_to_string(e.path().join("schedstat"))
                .ok()?
                .split_whitespace()
                .next()?
                .parse::<u64>()
                .ok()
        })
        .sum()
}

/// CPUs the process was started on (cached on first call, which `main`
/// makes before confining the process): what the box has, for the
/// result file.
pub fn cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// One pass of the calibration loop: a dependent xor-shift-multiply
/// chain that fits in registers and has no closed form, so its time
/// moves only with the clock the host gives this vCPU, not with caches
/// or the runtime. Milliseconds.
fn calib_pass() -> f64 {
    let t0 = Instant::now();
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
    for i in 0..1_500_000u64 {
        x ^= x >> 7;
        x = x.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(i);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// The fixed calibration loop, the minimum of three passes: the
/// question is how fast the vCPU can go right now.
pub fn calib_ms() -> f64 {
    (0..3).map(|_| calib_pass()).fold(f64::INFINITY, f64::min)
}

/// Removes every `SNET_*` variable (and `SACARRAY_THREADS`) from the
/// environment so the run measures the default configuration whatever
/// the caller's shell or CI leg exported. Must run before any thread
/// exists; returns what was removed, for the result file.
pub fn clear_knobs() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SNET_") || k == "SACARRAY_THREADS")
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_under_work() {
        let u0 = usage();
        let c0 = thread_cpu_ns();
        let ms = calib_ms();
        assert!(ms > 0.0);
        if cfg!(all(target_os = "linux", target_pointer_width = "64")) {
            assert!(usage().since(&u0).cpu_us() > 0.0);
            assert!(thread_cpu_ns() > c0);
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
