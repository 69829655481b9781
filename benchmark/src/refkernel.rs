//! The reference kernel: a fixed piece of work from the benchmark's own
//! files, timed beside the engine so that drift of the host (clock
//! state, neighbours) can be divided out of a trial's timings.
//!
//! It mixes what the engine's read path mixes: integer work, a burst of
//! small allocations with string comparisons (a `BTreeSet<Vec<String>>`
//! like the answer sets), and binary searches that miss the cache (a
//! 24 MB sorted `[u32; 3]` array like a sealed run). It must never
//! change: every recorded baseline is relative to it.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

const KEYS: usize = 2_000_000;
const SPIN: usize = 150_000;
const ROWS: usize = 1_500;
const PROBES: usize = 4_000;

/// One reading of the kernel, by part, in microseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    /// The integer loop.
    pub spin: f64,
    /// Building and freeing the set of rows.
    pub alloc: f64,
    /// The binary searches.
    pub probe: f64,
}

impl Reading {
    /// The whole kernel.
    pub fn total(&self) -> f64 {
        self.spin + self.alloc + self.probe
    }
}

/// The kernel's fixed inputs.
pub struct RefKernel {
    keys: Vec<[u32; 3]>,
    iris: Vec<String>,
    state: u64,
}

impl Default for RefKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl RefKernel {
    /// Builds the inputs (about 24 MB).
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // Sorted by construction: a running sum of small positive steps.
        let mut keys = Vec::with_capacity(KEYS);
        let mut s = 0u32;
        for _ in 0..KEYS {
            let r = next();
            s += 1 + (r & 0x3ff) as u32;
            keys.push([s, (r >> 10) as u32 & 0xffff, (r >> 26) as u32]);
        }
        let iris = (0..ROWS)
            .map(|_| format!("http://ref.example.org/entity/E{}", next() % 1_000_000))
            .collect();
        RefKernel {
            keys,
            iris,
            state: 0x2545_F491_4F6C_DD1D,
        }
    }

    /// One run; the nanoseconds of its three parts.
    fn run(&mut self) -> [u64; 3] {
        let mut x = self.state;
        let mut acc = 0u64;
        let t0 = Instant::now();
        for _ in 0..SPIN {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(x);
        }
        let t1 = Instant::now();
        let set: BTreeSet<Vec<String>> = self.iris.iter().map(|i| vec![i.clone()]).collect();
        acc = acc.wrapping_add(set.len() as u64);
        drop(set);
        let t2 = Instant::now();
        let top = self.keys[KEYS - 1][0] as u64;
        for _ in 0..PROBES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let probe = [(x % top) as u32, 0, 0];
            acc = acc.wrapping_add(self.keys.partition_point(|k| *k < probe) as u64);
        }
        let t3 = Instant::now();
        self.state = x;
        black_box(acc);
        [t1 - t0, t2 - t1, t3 - t2].map(|d| d.as_nanos() as u64)
    }

    /// One reading: the second of two back-to-back runs.
    pub fn reading(&mut self) -> Reading {
        self.run();
        let [spin, alloc, probe] = self.run().map(|ns| ns as f64 / 1e3);
        Reading { spin, alloc, probe }
    }
}

/// The resolution of `Instant`: the median non-zero step between
/// consecutive reads, in nanoseconds.
pub fn timer_floor_ns() -> f64 {
    let mut steps: Vec<f64> = Vec::with_capacity(4096);
    let mut last = Instant::now();
    while steps.len() < 4096 {
        let now = Instant::now();
        let d = now.duration_since(last).as_nanos();
        if d > 0 {
            steps.push(d as f64);
            last = now;
        }
    }
    crate::stats::median(&mut steps).expect("non-empty")
}
