//! What the benchmark reads from the operating system: CPU seconds and
//! peak resident memory of this process and the children it reaped, and
//! the core count that fixes `W`.

use std::time::Instant;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs of which
/// only `ru_maxrss` (the first) is read here.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn rusage(who: i32) -> Rusage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `Rusage` whose layout matches the
    // kernel's `struct rusage` on 64-bit Linux (2 × timeval + 14 × long =
    // 144 bytes); `getrusage` writes only within it.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    ru
}

fn cpu_of(ru: &Rusage) -> f64 {
    let tv = |t: Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    tv(ru.utime) + tv(ru.stime)
}

/// User + system CPU seconds consumed so far by this process (all
/// threads) and by every child it has waited for.
pub fn cpu_seconds() -> f64 {
    cpu_of(&rusage(RUSAGE_SELF)) + cpu_of(&rusage(RUSAGE_CHILDREN))
}

/// Peak resident set of this process (`VmHWM`) plus the largest peak of
/// any reaped child, in MB. The fleet's memory lives in its workers, so
/// the child term is what `fleet_ckpt` moves.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let hwm_kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    (hwm_kb + rusage(RUSAGE_CHILDREN).maxrss_kb as f64) / 1024.0
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `W`: runtime workers, shard count × workers per shard, and reader
/// connections are all derived from it, so load generation never uses
/// more threads or connections than cores.
pub fn workers() -> usize {
    nproc().min(4)
}

/// Wall and CPU seconds of one call.
pub struct Timed<T> {
    pub value: T,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Run `f`, timing wall clock and CPU (self + reaped children).
pub fn timed<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let value = f();
    Timed {
        value,
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: cpu_seconds() - cpu0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let t = timed(|| {
            let mut x = 0u64;
            for i in 0..50_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
            x
        });
        assert!(t.wall_s > 0.0);
        assert!(t.cpu_s > 0.0, "getrusage layout is wrong if this reads 0");
        assert!(t.cpu_s < t.wall_s * (nproc() as f64) + 0.5);
    }

    #[test]
    fn peak_rss_is_plausible() {
        let mb = peak_rss_mb();
        assert!(mb > 0.5 && mb < 1e6, "{mb}");
    }
}
