//! One trial: generate, set up, check, warm up, measure. Shared pieces
//! and the trial of the three frozen workloads; `live` has the fourth.

use crate::config::{
    NamedScale, Workload, NOMINAL_REF_KERNEL_US, REF_ELASTICITY, SETUP_BRACKET_READINGS,
};
use crate::exec::{LayerCounts, Reader, TraceState};
use crate::gen::Dataset;
use crate::host::{cores, rss_peak_mb, HostClock};
use crate::metrics::template_metric;
use crate::model::Model;
use crate::ops::{fold_checksum, Op, OpSource};
use crate::paper::check_paper;
use crate::stats::{beyond, guarded_ratio, host_factor, median, percentile};
use crate::storage;
use crate::trace::{AllocMark, CountingAlloc, Name, Tracer};
use rps_core::{EngineConfig, ExecConfig, Session, SparqlResult, Strategy};
use rps_query::parse_sparql;
use rps_rdf::PrefixMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Whole passes are replayed unmeasured first: for this long, or this
/// many passes if that comes sooner.
const WARMUP_SECONDS: f64 = 0.3;
const WARMUP_PASSES: usize = 6;
/// Error texts kept per trial.
const MAX_ERRORS: usize = 8;

/// What to run.
#[derive(Clone, Debug)]
pub struct TrialSpec {
    /// The workload.
    pub workload: Workload,
    /// The inputs' seed.
    pub seed: u64,
    /// Length of the measured interval.
    pub seconds: f64,
    /// Run the operations as the calls of each layer, with spans.
    pub trace: bool,
    /// The scale and its asserted sizes.
    pub sized: NamedScale,
    /// Where the trace and scratch files go.
    pub out_dir: PathBuf,
}

impl TrialSpec {
    /// The part of the interval measured without spans: all of it, or in
    /// a traced run the first third, so that the cost of tracing can be
    /// had from one process.
    pub fn untraced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 3.0
        } else {
            self.seconds
        }
    }
}

/// Attempts and failures.
#[derive(Default, Debug, Clone)]
pub struct Tally {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Those that failed: a typed error, a panic, a wrong answer, a
    /// guard that did not hold.
    pub failed: u64,
    /// The first few failures, as text.
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one attempt and, if `outcome` is an error, one failure.
    pub fn attempt(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < MAX_ERRORS {
                self.errors.push(e);
            }
        }
    }

    /// A guard: one attempt that fails unless `holds`.
    pub fn guard(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.attempt(if holds { Ok(()) } else { Err(what()) });
    }

    /// The guard on a size fixed in `config`.
    pub fn guard_size(&mut self, what: &str, got: usize, want: usize, scale: &NamedScale) {
        self.guard(got == want, || {
            format!(
                "{got} {what} triples, {want} expected at scale {}",
                scale.name
            )
        });
    }

    /// The guard on the plan-cache hit ratio of the measured interval.
    pub fn guard_hit_ratio(&mut self, ratio: f64) {
        self.guard(ratio > 0.3 && ratio < 0.98, || {
            format!("plan-cache hit ratio {ratio:.3} is not inside (0.3, 0.98)")
        });
    }
}

/// Named values in printing order.
#[derive(Default, Debug, Clone)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    /// Records `name = value`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// What a trial found.
pub struct TrialReport {
    /// Attempts and failures.
    pub tally: Tally,
    /// FNV-1a over every row of the first warm-up pass.
    pub rows_checksum: u64,
    /// Stored triples of the generated system.
    pub stored_triples: usize,
    /// Triples of the universal solution, where one is materialised.
    pub solution_triples: Option<usize>,
    /// Every metric the trial could compute.
    pub metrics: Metrics,
    /// Reads measured.
    pub reads: usize,
    /// Cold reads measured.
    pub cold_reads: usize,
    /// Slices measured.
    pub slices: usize,
    /// The spans, when tracing.
    pub tracer: Option<Tracer>,
}

impl TrialReport {
    /// A report of a trial that could not start.
    pub fn fatal(error: String) -> TrialReport {
        let mut tally = Tally::default();
        tally.attempt(Err(error));
        TrialReport {
            tally,
            rows_checksum: 0,
            stored_triples: 0,
            solution_triples: None,
            metrics: Metrics::default(),
            reads: 0,
            cold_reads: 0,
            slices: 0,
            tracer: None,
        }
    }
}

/// Latencies of the measured interval.
#[derive(Default)]
pub struct Latencies {
    /// Every read, microseconds.
    pub reads_us: Vec<f64>,
    /// The reads that could not hit a plan.
    pub cold_us: Vec<f64>,
    /// Reads by template name.
    pub by_template: Vec<(&'static str, Vec<f64>)>,
    /// Operations completed (reads, and batches on `live_churn`).
    pub ops: u64,
    /// Wall time of the slices, nanoseconds.
    pub busy_ns: u128,
    /// Slices.
    pub slices: usize,
    /// Peak memory read part-way, where the end of the interval would
    /// be the wrong place to read it (`live_churn`).
    pub rss_mb: Option<f64>,
}

impl Latencies {
    /// Files a read's latency.
    pub fn read(&mut self, template: &'static str, cold: bool, us: f64) {
        self.reads_us.push(us);
        if cold {
            self.cold_us.push(us);
        }
        match self.by_template.iter_mut().find(|(n, _)| *n == template) {
            Some((_, v)) => v.push(us),
            None => self.by_template.push((template, vec![us])),
        }
    }
}

/// Fills in the end-to-end metrics, their raw twins and the host's.
pub fn end_to_end(
    metrics: &mut Metrics,
    tally: &mut Tally,
    lat: &mut Latencies,
    clock: &HostClock,
    raw_setup_s: f64,
    gate_sample: bool,
) {
    let factor = |reading_us| host_factor(reading_us, NOMINAL_REF_KERNEL_US, REF_ELASTICITY);
    let slice_ref = clock.slice_reading_us();
    let slice_factor = factor(slice_ref);
    metrics.set("setup_s", raw_setup_s * factor(clock.setup_reading_us()));
    metrics.set("raw.setup_s", raw_setup_s);

    match guarded_ratio(
        lat.ops as f64 * 1e9,
        lat.busy_ns as f64,
        clock.timer_floor_ns,
    ) {
        Ok(rate) => {
            metrics.set("ops_per_s", rate / slice_factor);
            metrics.set("raw.ops_per_s", rate);
        }
        Err(e) => tally.attempt(Err(format!("ops_per_s: {e}"))),
    }
    let mut timing = |name: &str, samples: &mut [f64], p: f64| match percentile(samples, p) {
        Some(raw) => {
            metrics.set(name, raw * slice_factor);
            metrics.set(format!("raw.{name}"), raw);
        }
        None => tally.attempt(Err(format!("{name}: no samples"))),
    };
    timing("read_p50_us", &mut lat.reads_us, 0.5);
    timing("read_p90_us", &mut lat.reads_us, 0.9);
    timing("cold_read_p50_us", &mut lat.cold_us, 0.5);
    if let Some(p99) = percentile(&mut lat.reads_us, 0.99) {
        metrics.set("e2e.read_p99_us", p99 * slice_factor);
    }
    // A traced run reports no gated percentile; its untraced part is short.
    tally.guard(
        !gate_sample || beyond(lat.reads_us.len(), 0.9) >= 15,
        || {
            format!(
                "only {} reads beyond the 90th percentile",
                beyond(lat.reads_us.len(), 0.9)
            )
        },
    );
    match lat.rss_mb.or_else(rss_peak_mb) {
        Some(mb) => metrics.set("rss_peak_mb", mb),
        None => tally.attempt(Err("rss_peak_mb: no VmHWM in /proc/self/status".into())),
    }
    for (name, samples) in &mut lat.by_template {
        if let Some(p50) = median(samples) {
            metrics.set(template_metric(name), p50 * slice_factor);
        }
    }
    metrics.set("host.cores", cores() as f64);
    metrics.set("host.timer_floor_ns", clock.timer_floor_ns);
    metrics.set("host.ref_kernel_us", slice_ref);
    metrics.set("host.ref_kernel_spread", clock.slice_spread());
    if let Some([spin, alloc, probe]) = clock.slice_parts_us() {
        metrics.set("host.ref_spin_us", spin);
        metrics.set("host.ref_alloc_us", alloc);
        metrics.set("host.ref_probe_us", probe);
    }
}

/// Fills in the per-operation metrics of a traced interval of
/// `traced_ops` operations that began at `allocs_before`.
pub fn per_layer(
    metrics: &mut Metrics,
    tally: &mut Tally,
    tracer: &Tracer,
    counts: &LayerCounts,
    (allocs_before, traced_ops): (AllocMark, u64),
    untraced_mean_us: f64,
    timer_floor_ns: f64,
) {
    let allocs = CountingAlloc::mark();
    let all_ops = traced_ops.max(1) as f64;
    metrics.set(
        "bench.alloc_count_per_op",
        (allocs.allocs - allocs_before.allocs) as f64 / all_ops,
    );
    metrics.set(
        "bench.alloc_kb_per_op",
        (allocs.bytes - allocs_before.bytes) as f64 / 1024.0 / all_ops,
    );
    let ops = counts.ops.max(1) as f64;
    // Per-operation means: a name's total over every traced operation.
    let per_op_us = |name: Name| tracer.total(name).ns as f64 / ops / 1e3;
    metrics.set("query.sparql.parse_us", per_op_us(Name::Parse));
    metrics.set("query.sparql.lower_us", per_op_us(Name::Lower));
    metrics.set("query.sparql.cqs_per_op", counts.cqs as f64 / ops);
    metrics.set("query.sparql.assemble_us", per_op_us(Name::Assemble));
    metrics.set(
        "query.sparql.assemble_allocs_per_op",
        counts.assemble_allocs as f64 / ops,
    );
    metrics.set("core.answers.decode_us", per_op_us(Name::Decode));
    metrics.set(
        "core.answers.decode_allocs_per_op",
        counts.decode_allocs as f64 / ops,
    );
    metrics.set("core.answers.rows_per_op", counts.rows as f64 / ops);
    metrics.set("core.session.execute_us", per_op_us(Name::Execute));
    // Per-call means: what one hit and one miss cost.
    if let Some(us) = tracer.mean_us(Name::PrepareHit) {
        metrics.set("core.session.prepare_hit_us", us);
    }
    if let Some(us) = tracer.mean_us(Name::PrepareMiss) {
        metrics.set("core.session.prepare_miss_us", us);
    }
    let prepares = counts.prepare_hits + counts.prepare_misses;
    if prepares > 0 {
        metrics.set(
            "core.plan_cache.hit_ratio",
            counts.prepare_hits as f64 / prepares as f64,
        );
    }
    if counts.branch_cqs > 0 {
        metrics.set(
            "core.rewriting.branches_per_cq",
            counts.branches as f64 / counts.branch_cqs as f64,
        );
    }
    if counts.terms > 0 {
        metrics.set(
            "rdf.dict.decode_ns_per_term",
            tracer.total(Name::Decode).ns as f64 / counts.terms as f64,
        );
    }
    // Root spans are operations of every kind (reads, and batches on
    // `live_churn`), as `untraced_mean_us` is.
    let root = tracer.total(Name::Op);
    match guarded_ratio(
        root.ns as f64 / root.count.max(1) as f64,
        untraced_mean_us * 1e3,
        timer_floor_ns,
    ) {
        Ok(ratio) => metrics.set("trace.overhead_ratio", ratio),
        Err(e) => tally.attempt(Err(format!("trace.overhead_ratio: {e}"))),
    }
    if let Some(share) = tracer.uncovered_share() {
        metrics.set("trace.uncovered_share", share);
    }
}

/// CQs `text` lowers to.
fn cq_count(text: &str) -> usize {
    parse_sparql(text, &PrefixMap::common())
        .map(|q| q.lower().queries().len())
        .unwrap_or(0)
}

/// Freeing a result of thousands of rows leaves the allocator with
/// lists to merge, which it does at its next large request. Making that
/// request here charges the merge to the time between operations, where
/// the free happened, and not to the next operation's latency.
fn settle_allocator() {
    std::hint::black_box(Vec::<u8>::with_capacity(1 << 16));
}

/// Runs one pass of `ops` as a slice; results are checked by row count
/// after the clock stops.
fn run_slice(
    reader: &mut Reader<'_>,
    ops: &[Arc<Op>],
    lat: Option<&mut Latencies>,
    tally: &mut Tally,
    mut traced: Option<&mut TraceState>,
    mut on_result: impl FnMut(&Op, &SparqlResult),
    full_check: bool,
) {
    let mut outcomes: Vec<(f64, Result<(), String>)> = Vec::with_capacity(ops.len());
    let start = Instant::now();
    for op in ops {
        let t = Instant::now();
        let result = match traced.as_deref_mut() {
            Some(state) => {
                let id = state.begin_op(op.template.name(), op.cold);
                reader.answer_traced(&op.text, id, state)
            }
            None => reader.answer(&op.text),
        };
        let us = t.elapsed().as_nanos() as f64 / 1e3;
        let outcome = result.and_then(|r| {
            on_result(op, &r);
            if full_check {
                op.expect.check_full(&r)
            } else {
                op.expect.check_count(&r)
            }
        });
        outcomes.push((
            us,
            outcome.map_err(|e| format!("{}: {e} [{}]", op.template.name(), op.text)),
        ));
        settle_allocator();
    }
    let busy = start.elapsed().as_nanos();
    if let Some(lat) = lat {
        lat.busy_ns += busy;
        lat.ops += ops.len() as u64;
        lat.slices += 1;
        for (op, (us, _)) in ops.iter().zip(&outcomes) {
            lat.read(op.template.name(), op.cold, *us);
        }
    }
    for (_, outcome) in outcomes {
        tally.attempt(outcome);
    }
}

/// Replays passes for `seconds` of slice time, a reference reading
/// after each. Returns early if the cold keys run out.
fn measure(
    reader: &mut Reader<'_>,
    source: &mut OpSource,
    model: &Model,
    seconds: f64,
    clock: &mut HostClock,
    tally: &mut Tally,
    mut traced: Option<&mut TraceState>,
) -> Latencies {
    let mut lat = Latencies::default();
    while (lat.busy_ns as f64) < seconds * 1e9 {
        let Some(ops) = source.next_pass(model) else {
            eprintln!("note: cold keys exhausted after {} slices", lat.slices);
            break;
        };
        let traced = traced.as_deref_mut();
        run_slice(
            reader,
            &ops,
            Some(&mut lat),
            tally,
            traced,
            |_, _| {},
            false,
        );
        clock.after_slice();
    }
    lat
}

/// The trial of `lookup_mat`, `analytic_mat` and `lookup_rewrite`.
pub fn run_frozen(spec: &TrialSpec) -> TrialReport {
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let strategy = spec.workload.strategy();

    let t = Instant::now();
    let data = Dataset::generate(spec.seed, spec.sized.scale);
    let model = Model::new(&data);
    let system = data.to_system();
    let mut source = OpSource::new(&data, &model, spec.seed, spec.workload.mix());
    metrics.set("bench.generate_s", t.elapsed().as_secs_f64());
    let stored_triples = system.stored_size();
    tally.guard_size(
        "stored",
        stored_triples,
        spec.sized.stored_triples,
        &spec.sized,
    );
    tally.attempt(check_paper(strategy));

    let mut clock = HostClock::new();
    CountingAlloc::set_counting(spec.trace);
    clock.bracket(SETUP_BRACKET_READINGS);

    // Set-up: generated system in hand → the first probe has its rows.
    // In a traced run the chase is called on its own so that it can be
    // timed; `freeze` then finds the solution already there.
    let config = EngineConfig::default().with_strategy(strategy);
    let probe = source.hot(0)[0].clone();
    let t = Instant::now();
    let mut session = match Session::open(system, config) {
        Ok(s) => s,
        Err(e) => return TrialReport::fatal(format!("Session::open: {e}")),
    };
    let open_s = t.elapsed().as_secs_f64();
    let mut chase_s = 0.0;
    let mut micro_graph = None;
    if spec.trace && strategy == Strategy::Materialise {
        let t = Instant::now();
        let solution = match session.universal_solution() {
            Ok(s) => s,
            Err(e) => return TrialReport::fatal(format!("chase: {e}")),
        };
        chase_s = t.elapsed().as_secs_f64();
        let triples = solution.graph.len();
        metrics.set("core.chase.wall_s", chase_s);
        metrics.set("core.chase.mtriples_s", triples as f64 / 1e6 / chase_s);
        metrics.set("core.chase.solution_triples", triples as f64);
        metrics.set("core.chase.rounds", solution.stats.rounds as f64);
        metrics.set("core.chase.gma_firings", solution.stats.gma_firings as f64);
        metrics.set("core.chase.eq_copies", solution.stats.eq_copies as f64);
        metrics.set(
            "core.chase.blanks_created",
            solution.stats.blanks_created as f64,
        );
        // The storage measurements need a graph of their own; the copy
        // is taken outside the set-up clock.
        let t = Instant::now();
        micro_graph = Some(solution.graph.clone());
        metrics.set("rdf.graph.clone_ms", t.elapsed().as_secs_f64() * 1e3);
    }
    let t = Instant::now();
    let frozen = match session.freeze() {
        Ok(f) => f,
        Err(e) => return TrialReport::fatal(format!("freeze: {e}")),
    };
    let freeze_s = t.elapsed().as_secs_f64();
    let mut reader = Reader::Frozen(&frozen);
    let t = Instant::now();
    let first = reader.answer(&probe.text);
    let probe_s = t.elapsed().as_secs_f64();
    tally.attempt(first.and_then(|r| probe.expect.check_full(&r)));
    let raw_setup_s = open_s + chase_s + freeze_s + probe_s;
    clock.bracket(SETUP_BRACKET_READINGS);
    metrics.set("core.session.open_s", open_s);
    metrics.set("core.session.freeze_s", freeze_s);

    let stats = frozen.storage_stats();
    let solution_triples = stats.map(|s| s.run_keys + s.shard_keys + s.tail);
    if let Some(triples) = solution_triples {
        tally.guard_size(
            "solution",
            triples,
            spec.sized.solution_triples,
            &spec.sized,
        );
    }

    // Warm-up: the first pass is checked row for row against the model
    // and carries the non-degeneracy guards.
    let warm_start = Instant::now();
    let before = frozen.plan_cache_stats();
    let first_pass = source.next_pass(&model).expect("cold keys for one pass");
    let cold_cqs: usize = first_pass
        .iter()
        .filter(|op| op.cold)
        .map(|op| cq_count(&op.text))
        .sum();
    let mut checksum = 0u64;
    let (mut asked_true, mut asked_false) = (0u32, 0u32);
    run_slice(
        &mut reader,
        &first_pass,
        None,
        &mut tally,
        None,
        |_, result| {
            checksum = fold_checksum(checksum, result);
            match result.boolean() {
                Some(true) => asked_true += 1,
                Some(false) => asked_false += 1,
                None => {}
            }
        },
        true,
    );
    let missed = (frozen.plan_cache_stats().misses - before.misses) as usize;
    tally.guard(missed >= cold_cqs, || {
        format!("{cold_cqs} cold CQs in the first pass but only {missed} plan-cache misses")
    });
    for (t, template) in spec.workload.mix().templates.iter().enumerate() {
        let empty = source
            .hot(t)
            .iter()
            .filter(|op| op.expect.row_count() == 0)
            .count();
        tally.guard(empty == 0, || {
            format!("{empty} hot keys of {} return no row", template.name())
        });
    }
    if asked_true + asked_false > 0 {
        tally.guard(asked_true > 0 && asked_false > 0, || {
            format!("ask_cast saw {asked_true} true and {asked_false} false")
        });
    }
    for _ in 1..WARMUP_PASSES {
        if warm_start.elapsed().as_secs_f64() >= WARMUP_SECONDS {
            break;
        }
        let Some(ops) = source.next_pass(&model) else {
            break;
        };
        run_slice(&mut reader, &ops, None, &mut tally, None, |_, _| {}, false);
    }

    // Measure.
    let cache_before = frozen.plan_cache_stats();
    let mut lat = measure(
        &mut reader,
        &mut source,
        &model,
        spec.untraced_seconds(),
        &mut clock,
        &mut tally,
        None,
    );
    let mut tracer = None;
    if spec.trace {
        let mut state = TraceState::default();
        let allocs_before = CountingAlloc::mark();
        let traced = measure(
            &mut reader,
            &mut source,
            &model,
            spec.seconds - spec.untraced_seconds(),
            &mut clock,
            &mut tally,
            Some(&mut state),
        );
        let untraced_mean_us = lat.reads_us.iter().sum::<f64>() / lat.reads_us.len().max(1) as f64;
        per_layer(
            &mut metrics,
            &mut tally,
            &state.tracer,
            &state.counts,
            (allocs_before, traced.ops),
            untraced_mean_us,
            clock.timer_floor_ns,
        );
        tracer = Some(state.tracer);
    }
    let cache_after = frozen.plan_cache_stats();
    let (hits, misses) = (
        cache_after.hits - cache_before.hits,
        cache_after.misses - cache_before.misses,
    );
    tally.guard_hit_ratio(hits as f64 / (hits + misses).max(1) as f64);

    end_to_end(
        &mut metrics,
        &mut tally,
        &mut lat,
        &clock,
        raw_setup_s,
        !spec.trace,
    );

    if spec.trace {
        if let Some(stats) = frozen.storage_stats() {
            metrics.set("rdf.store.runs", stats.runs as f64);
            metrics.set("rdf.store.shards", stats.shards as f64);
            metrics.set(
                "rdf.store.loser_tree_merges",
                stats.loser_tree_merges as f64,
            );
            metrics.set(
                "rdf.store.morsels_dispatched",
                stats.morsels_dispatched as f64,
            );
            metrics.set(
                "rdf.graph.stats_build_ms",
                stats.stats_build_nanos as f64 / 1e6,
            );
        }
        if let Some(graph) = micro_graph {
            let seal = ExecConfig::default().seal_config();
            storage::graph_micro(&graph, &seal, &mut metrics, clock.timer_floor_ns);
            if spec.workload == Workload::AnalyticMat {
                let dir = spec
                    .out_dir
                    .join(format!("{}.ladder", spec.workload.name()));
                tally.attempt(storage::ladder(&graph, &seal, &dir, &mut metrics));
            }
            drop(graph);
            if spec.workload == Workload::LookupMat {
                let dir = spec
                    .out_dir
                    .join(format!("{}.durable", spec.workload.name()));
                let probes: Vec<Arc<Op>> = (0..spec.workload.mix().templates.len())
                    .flat_map(|t| source.hot(t).iter().take(4).cloned())
                    .collect();
                tally.attempt(storage::durable(&frozen, &dir, &probes, &mut metrics));
            }
        }
    }

    TrialReport {
        tally,
        rows_checksum: checksum,
        stored_triples,
        solution_triples,
        metrics,
        reads: lat.reads_us.len(),
        cold_reads: lat.cold_us.len(),
        slices: lat.slices,
        tracer,
    }
}
