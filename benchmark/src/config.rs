//! The benchmark's fixed numbers: scales with their asserted sizes, the
//! operation mixes, the trial plan and the reference kernel's nominal
//! reading. `BENCHMARK.json` has no room for them (its keys are fixed by
//! the driver's contract), so they are frozen here.

use crate::gen::Scale;
use crate::ops::{Mix, Template};
use rps_core::Strategy;

/// Trials per run; a run's `--seconds` is split evenly among them and
/// the reported value of a metric is the median over trials.
pub const TRIALS: usize = 3;

/// The reference kernel's reading on the host the baseline was recorded
/// on, in microseconds. A trial's timings are scaled by
/// `(NOMINAL_REF_KERNEL_US / median(readings)) ^ REF_ELASTICITY`; never
/// change either without re-recording every baseline.
pub const NOMINAL_REF_KERNEL_US: f64 = 2_800.0;

/// How much more than the kernel the engine's work slows when the host
/// does. The host's slow spells are a neighbour taking cache and memory
/// bandwidth, not a slower clock (the kernel's integer loop moves by a
/// tenth while its allocation part and the engine's reads move by
/// 1.7-1.8x), and the engine, whose working set is hundreds of MB, feels
/// them more than the kernel's 24 MB does. Over 600 trials of the four
/// workloads, calm spells and slow ones, the run-to-run spread of the
/// scaled timings is smallest for an exponent of 1.2 to 1.5; in calm
/// spells it does not depend on the exponent.
pub const REF_ELASTICITY: f64 = 1.3;

/// Reference-kernel readings taken on each side of set-up.
pub const SETUP_BRACKET_READINGS: usize = 8;

/// Share of hot operations, in percent.
pub const HOT_PERCENT: usize = 80;

/// A named scale and the sizes asserted at set-up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NamedScale {
    /// Name on the command line (`--scale`).
    pub name: &'static str,
    /// Generator parameters.
    pub scale: Scale,
    /// Stored triples over all peers.
    pub stored_triples: usize,
    /// Triples of the universal solution.
    pub solution_triples: usize,
}

/// The frozen workloads' scale.
pub const FULL: NamedScale = NamedScale {
    name: "full",
    scale: Scale {
        people: 20_000,
        years: 90,
    },
    stored_triples: 149_678,
    solution_triples: 738_173,
};

/// `live_churn`'s scale: the same generator at one quarter.
pub const QUARTER: NamedScale = NamedScale {
    name: "quarter",
    scale: Scale {
        people: 5_000,
        years: 90,
    },
    stored_triples: 37_427,
    solution_triples: 184_598,
};

/// The tests' scale.
pub const TINY: NamedScale = NamedScale {
    name: "tiny",
    scale: Scale {
        people: 1_440,
        years: 60,
    },
    stored_triples: 10_777,
    solution_triples: 53_344,
};

/// A workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Point lookups over the frozen materialised solution.
    LookupMat,
    /// Heavy queries over the same.
    AnalyticMat,
    /// `lookup_mat`'s operations under `Strategy::Rewrite`.
    LookupRewrite,
    /// Update batches beside reads on a `LiveSession`.
    LiveChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::LookupMat,
        Workload::AnalyticMat,
        Workload::LookupRewrite,
        Workload::LiveChurn,
    ];

    /// The name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LookupMat => "lookup_mat",
            Workload::AnalyticMat => "analytic_mat",
            Workload::LookupRewrite => "lookup_rewrite",
            Workload::LiveChurn => "live_churn",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The strategy its session runs under.
    pub fn strategy(self) -> Strategy {
        match self {
            Workload::LookupRewrite => Strategy::Rewrite,
            _ => Strategy::Materialise,
        }
    }

    /// The scale it runs at when none is forced.
    pub fn default_scale(self) -> NamedScale {
        match self {
            Workload::LiveChurn => QUARTER,
            _ => FULL,
        }
    }

    /// The mix of the frozen workloads (`live_churn` has its own cycle).
    ///
    /// Weights are slots per block, chosen so that neither half nor nine
    /// tenths of the cumulative weight, classes sorted by latency, falls
    /// within 0.05 of a boundary between two classes: `read_p50_us` and
    /// `read_p90_us` then sit inside one class's mass instead of jumping
    /// between two. Under `Materialise` a miss costs about what a hit
    /// does and the classes are the templates: `ask_cast` 0.30,
    /// `films_of` 0.65, `cast_hub` 0.95, `age_opt` 1.0. Under `Rewrite`
    /// a miss (the cold fifth, plus hot keys the FIFO plan cache has
    /// dropped: 200 cold plans a pass push a hot one out of its 1 024
    /// entries every few passes, and they go in waves) costs 40-200 us
    /// more, so the classes are three: hits of `ask_cast`, `films_of`
    /// and `cast_hub` up to about 0.71; their misses and `age_opt`'s
    /// hits up to about 0.98; `age_opt`'s misses above. The share of
    /// hits moves from pass to pass, which is why the cheap class has to
    /// end well above 0.5 and the slow one to begin well above 0.9 (64
    /// hot keys and a light `age_opt`; with 128 and `age_opt` at 0.15
    /// they were at 0.56 and 0.93, and both percentiles jumped between
    /// classes from trial to trial). The three film-keyed templates share
    /// the weight so that none uses its unused keys up: the heaviest
    /// takes 60 of about 16 600 films a pass, which lasts 270 passes
    /// where a trial makes 110. The analytic mix: `nick_opt_scan` 0.20,
    /// `age_range` 0.60, `union_cast` 0.80, `costar` 1.0.
    pub fn mix(self) -> Mix {
        match self {
            Workload::AnalyticMat => Mix {
                templates: &Template::ANALYTIC,
                weights: &[8, 4, 4, 4],
                hot_keys: 16,
            },
            _ => Mix {
                templates: &Template::POINT,
                weights: &[300, 350, 50, 300],
                hot_keys: 64,
            },
        }
    }
}

/// `live_churn`: inserts per batch.
pub const LIVE_INSERTS: usize = 48;
/// `live_churn`: removals per batch.
pub const LIVE_REMOVES: usize = 16;
/// `live_churn`: reads after each batch.
pub const LIVE_READS: usize = 32;
/// `live_churn`: hot films. The plan cache is rebuilt with every epoch,
/// so only repeats inside one cycle's reads can hit; a hot set this
/// small makes two reads in three a hit, which keeps `read_p50_us`
/// inside the hits and `read_p90_us` inside the misses.
pub const LIVE_HOT_KEYS: usize = 4;
/// `live_churn`: rows in a hot film's answer (a cast of four, each known
/// under two IRIs: the most common size). With only four hot films the
/// latency of a hit would otherwise depend on which four were drawn.
pub const LIVE_HOT_ROWS: usize = 8;
/// `live_churn`: measured cycles after which `rss_peak_mb` is read. A
/// batch inserts more than it removes, so the solution (and with it the
/// peak) grows by about 330 triples a cycle; read at the end of a timed
/// interval, the peak would follow the number of cycles the host got
/// through. A trial that ends sooner reads it at its end.
pub const LIVE_RSS_CYCLES: usize = 32;
/// `live_churn`: length of the trailing two-thread phase of a traced run.
pub const LIVE_CONCURRENT_SECONDS: f64 = 2.0;
