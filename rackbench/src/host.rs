//! Host-side measurements: wall-clock timing and peak resident memory.
//!
//! Peak memory comes from `getrusage(RUSAGE_SELF)`, which the C library the
//! binary already links provides; reading it touches no file.

use std::time::Instant;

/// `struct timeval` of the C library (64-bit Linux layout).
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of the C library (64-bit Linux layout).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    ru_rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Peak resident set size of this process so far (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the C
    // library's 64-bit Linux layout, and `RUSAGE_SELF` asks only about this
    // process; the call writes nothing outside the struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    // Linux reports ru_maxrss in kilobytes.
    usage.ru_maxrss as f64 / 1024.0
}

/// Run `f` and return its result with the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let r = f();
    (r, started.elapsed().as_secs_f64())
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A host-speed probe: dependent loads around one random cycle through an
/// 8 MB table, timed between simulation chunks.
///
/// On a shared host, speed drifts by tens of percent over minutes as
/// neighbours contend for the core's caches. The simulator's speed follows
/// the probe's, so host-time metrics are reported scaled by
/// `probe time / REF_NS`: what they would read on the reference host when
/// quiet. A change to the simulator moves the scaled figure exactly as it
/// moves the raw one, since the probe does not run simulator code.
pub struct Probe {
    table: Vec<u32>,
    at: u32,
}

impl Probe {
    /// Slots in the table (8 MB of `u32`s).
    const SLOTS: usize = 1 << 21;
    /// Loads per burst.
    const LOADS: u32 = 20_000;
    /// Nanoseconds per probe load on the reference host (2-vCPU Xeon at
    /// 2.1 GHz) when quiet; the scale host-time metrics are reported in.
    pub const REF_NS: f64 = 120.0;

    /// Build the table: Sattolo's shuffle, so following it visits every
    /// slot once per lap.
    pub fn new() -> Probe {
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut table: Vec<u32> = (0..Self::SLOTS as u32).collect();
        for i in (1..Self::SLOTS).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            table.swap(i, (state % i as u64) as usize);
        }
        Probe { table, at: 0 }
    }

    /// Time one burst of loads; nanoseconds per load.
    fn ns_per_load(&mut self) -> f64 {
        let started = Instant::now();
        let mut at = self.at;
        for _ in 0..Self::LOADS {
            at = self.table[at as usize];
        }
        self.at = std::hint::black_box(at);
        started.elapsed().as_secs_f64() * 1e9 / f64::from(Self::LOADS)
    }

    /// How much slower than the quiet reference host this one runs now,
    /// judged by one burst.
    pub fn slowdown(&mut self) -> f64 {
        self.ns_per_load() / Self::REF_NS
    }
}
