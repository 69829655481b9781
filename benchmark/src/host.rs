//! What the harness reads from the host: peak memory, core count, and
//! the reference kernel's readings over a trial.

use crate::refkernel::{timer_floor_ns, Reading, RefKernel};
use crate::stats::{median, quartile_spread};

/// Peak resident set (`VmHWM`) of this process in MB, from `/proc`.
pub fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Cores the engine's `workers: 0` / `shards: 0` resolve to.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The reference kernel with every reading it took in this trial.
pub struct HostClock {
    kernel: RefKernel,
    /// Readings taken around set-up.
    pub setup_readings: Vec<Reading>,
    /// Readings taken between slices.
    pub slice_readings: Vec<Reading>,
    /// Timer resolution in nanoseconds.
    pub timer_floor_ns: f64,
}

impl Default for HostClock {
    fn default() -> Self {
        Self::new()
    }
}

impl HostClock {
    /// Builds the kernel's inputs and measures the timer.
    pub fn new() -> Self {
        HostClock {
            kernel: RefKernel::new(),
            setup_readings: Vec::new(),
            slice_readings: Vec::new(),
            timer_floor_ns: timer_floor_ns(),
        }
    }

    /// Takes `n` readings for the set-up bracket.
    pub fn bracket(&mut self, n: usize) {
        for _ in 0..n {
            let r = self.kernel.reading();
            self.setup_readings.push(r);
        }
    }

    /// Takes one reading after a slice.
    pub fn after_slice(&mut self) {
        let r = self.kernel.reading();
        self.slice_readings.push(r);
    }

    fn totals(readings: &[Reading]) -> Vec<f64> {
        readings.iter().map(Reading::total).collect()
    }

    /// Median of the set-up bracket, microseconds.
    pub fn setup_reading_us(&self) -> f64 {
        median(&mut Self::totals(&self.setup_readings)).expect("bracket taken")
    }

    /// Median of the slice readings (the set-up bracket if no slice ran).
    pub fn slice_reading_us(&self) -> f64 {
        median(&mut Self::totals(&self.slice_readings)).unwrap_or_else(|| self.setup_reading_us())
    }

    /// Quartile spread of the slice readings.
    pub fn slice_spread(&self) -> f64 {
        quartile_spread(&mut Self::totals(&self.slice_readings)).unwrap_or(0.0)
    }

    /// Medians of the slice readings' parts: spin, alloc, probe.
    pub fn slice_parts_us(&self) -> Option<[f64; 3]> {
        let part = |f: fn(&Reading) -> f64| {
            median(&mut self.slice_readings.iter().map(f).collect::<Vec<_>>())
        };
        Some([part(|r| r.spin)?, part(|r| r.alloc)?, part(|r| r.probe)?])
    }
}
