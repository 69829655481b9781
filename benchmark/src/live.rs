//! The trial of `live_churn`: one client alternating an update batch
//! with a burst of reads, on a `LiveSession`.
//!
//! A cycle is one slice: build the batch and bring the model up to date
//! (unmeasured), then `apply` and the reads (measured), then check the
//! reads against the model and take a reference reading (unmeasured).
//! The first read of every cycle asks about a film the batch touched,
//! so that an update the engine lost shows as a wrong answer; it is
//! also the cycle's cold read, since every publish starts an empty plan
//! cache.

use crate::config::{
    LIVE_CONCURRENT_SECONDS, LIVE_HOT_KEYS, LIVE_HOT_ROWS, LIVE_INSERTS, LIVE_READS, LIVE_REMOVES,
    LIVE_RSS_CYCLES, SETUP_BRACKET_READINGS,
};
use crate::exec::{Reader, TraceState};
use crate::gen::{Dataset, FILM_PEERS};
use crate::host::{rss_peak_mb, HostClock};
use crate::metrics::LIVE_TEMPLATE;
use crate::model::Model;
use crate::ops::{expect, fold_checksum, render, Key, Op, Template};
use crate::paper::check_paper;
use crate::rng::Rng;
use crate::storage;
use crate::trace::{CountingAlloc, Name};
use crate::trial::{end_to_end, per_layer, Latencies, Metrics, Tally, TrialReport, TrialSpec};
use rps_core::{EngineConfig, ExecConfig, LiveSession, PeerId, Strategy, UpdateBatch};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Unmeasured cycles before the interval starts.
const WARMUP_CYCLES: usize = 3;

/// The stored casts of the actor peers, kept beside the model so that
/// batches can be drawn from what is really there.
struct Churn {
    /// `[peer - 1][film] = (film IRI, cast)`.
    casts: Vec<Vec<(String, Vec<String>)>>,
    /// `[peer - 1]` = the peer's person IRIs.
    persons: Vec<Vec<String>>,
    hot_films: Vec<String>,
    rng: Rng,
}

struct Cycle {
    batch: UpdateBatch,
    reads: Vec<Op>,
}

impl Churn {
    fn new(data: &Dataset, model: &Model, seed: u64) -> Churn {
        let casts: Vec<Vec<(String, Vec<String>)>> = data.films[1..]
            .iter()
            .map(|films| {
                films
                    .iter()
                    .map(|f| (f.iri.clone(), f.cast.clone()))
                    .collect()
            })
            .collect();
        let persons = (1..FILM_PEERS)
            .map(|k| {
                data.people
                    .iter()
                    .flat_map(|p| p.aliases.iter())
                    .filter(|(peer, _)| *peer == k)
                    .map(|(_, iri)| iri.clone())
                    .collect()
            })
            .collect();
        let mut rng = Rng::new(seed, 200);
        // Hot films: the first drawn, among the actor peers' (whose casts
        // the batches change), with the usual cast and the usual answer.
        let mut all: Vec<(&str, usize)> = data.films[1..]
            .iter()
            .flatten()
            .map(|f| (f.iri.as_str(), f.cast.len()))
            .collect();
        rng.shuffle(&mut all);
        all.sort_by_key(|(f, cast)| {
            model.cast_hub(f).len().abs_diff(LIVE_HOT_ROWS) + cast.abs_diff(LIVE_HOT_ROWS / 2)
        });
        let hot_films = all[..LIVE_HOT_KEYS.min(all.len())]
            .iter()
            .map(|(f, _)| f.to_string())
            .collect();
        Churn {
            casts,
            persons,
            hot_films,
            rng,
        }
    }

    /// Draws the next batch, applies it to `model`, and lays out the
    /// reads that follow it.
    fn next_cycle(&mut self, model: &mut Model) -> Cycle {
        let mut batch = UpdateBatch::new();
        let mut touched: Vec<String> = Vec::new();
        let mut removed = 0;
        while removed < LIVE_REMOVES {
            let k = self.rng.below(self.casts.len());
            let f = self.rng.below(self.casts[k].len());
            let (film, cast) = &mut self.casts[k][f];
            // Films keep at least one member, so every read has a row.
            if cast.len() < 2 {
                continue;
            }
            let person = cast.swap_remove(self.rng.below(cast.len()));
            assert!(model.remove_actor(film, &person), "model and casts agree");
            batch = batch.remove(PeerId(k + 1), Dataset::actor_triple(k + 1, film, &person));
            removed += 1;
        }
        let mut inserted = 0;
        while inserted < LIVE_INSERTS {
            let k = self.rng.below(self.casts.len());
            let f = self.rng.below(self.casts[k].len());
            let person = &self.persons[k][self.rng.below(self.persons[k].len())];
            let (film, cast) = &mut self.casts[k][f];
            if cast.contains(person) {
                continue;
            }
            cast.push(person.clone());
            assert!(model.insert_actor(film, person), "model and casts agree");
            batch = batch.insert(PeerId(k + 1), Dataset::actor_triple(k + 1, film, person));
            touched.push(film.clone());
            inserted += 1;
        }

        let mut reads = Vec::with_capacity(LIVE_READS);
        for i in 0..LIVE_READS {
            // One read in five leaves the hot set, as on the frozen
            // workloads; the first one checks the batch.
            let film = if i == 0 {
                touched[0].clone()
            } else if i % 5 == 4 {
                touched[self.rng.below(touched.len())].clone()
            } else {
                self.hot_films[self.rng.below(self.hot_films.len())].clone()
            };
            let key = Key::Film(film);
            reads.push(Op {
                template: Template::CastHub,
                cold: i == 0,
                text: render(Template::CastHub, &key),
                expect: expect(model, Template::CastHub, &key),
            });
        }
        Cycle { batch, reads }
    }
}

/// Runs one cycle as a slice; returns the nanoseconds `apply` took.
fn run_cycle(
    live: &mut LiveSession,
    reader: &mut Reader<'_>,
    cycle: &Cycle,
    lat: Option<&mut Latencies>,
    tally: &mut Tally,
    mut traced: Option<&mut TraceState>,
    mut checksum: Option<&mut u64>,
) -> f64 {
    let before = live.solution().graph.len();
    let mut outcomes = Vec::with_capacity(cycle.reads.len());
    let start = Instant::now();

    let t = Instant::now();
    let applied = match traced.as_deref_mut() {
        Some(state) => {
            let id = state.begin_op("batch", false);
            let root = state.tracer.begin(id, None);
            let s = state.tracer.begin(id, Some(&root));
            let r = live.apply(&cycle.batch);
            state.tracer.end(s, Name::Apply);
            state.tracer.end(root, Name::Op);
            r
        }
        None => live.apply(&cycle.batch),
    };
    let apply_ns = t.elapsed().as_nanos() as f64;
    reader.new_epoch();

    for op in &cycle.reads {
        let t = Instant::now();
        let result = match traced.as_deref_mut() {
            Some(state) => {
                let id = state.begin_op(op.template.name(), op.cold);
                reader.answer_traced(&op.text, id, state)
            }
            None => reader.answer(&op.text),
        };
        outcomes.push((t.elapsed().as_nanos() as f64 / 1e3, result));
    }
    let busy = start.elapsed().as_nanos();

    tally.attempt(applied.map(|_| ()).map_err(|e| format!("apply: {e}")));
    let after = live.solution().graph.len();
    tally.guard(after != before, || {
        format!("a batch left the solution at {after} triples")
    });
    if let Some(lat) = lat {
        lat.busy_ns += busy;
        lat.ops += 1 + cycle.reads.len() as u64;
        lat.slices += 1;
        for (op, (us, _)) in cycle.reads.iter().zip(&outcomes) {
            lat.read(LIVE_TEMPLATE, op.cold, *us);
        }
    }
    for (op, (_, result)) in cycle.reads.iter().zip(outcomes) {
        tally.attempt(result.and_then(|r| {
            if let Some(sum) = checksum.as_mut() {
                **sum = fold_checksum(**sum, &r);
            }
            op.expect
                .check_full(&r)
                .map_err(|e| format!("cast_hub after a batch: {e} [{}]", op.text))
        }));
    }
    apply_ns
}

/// Runs cycles for `seconds` of slice time, a reference reading after
/// each. Returns the latencies and every `apply`'s nanoseconds.
#[allow(clippy::too_many_arguments)]
fn measure(
    live: &mut LiveSession,
    reader: &mut Reader<'_>,
    churn: &mut Churn,
    model: &mut Model,
    seconds: f64,
    clock: &mut HostClock,
    tally: &mut Tally,
    mut traced: Option<&mut TraceState>,
) -> (Latencies, Vec<f64>) {
    let mut lat = Latencies::default();
    let mut apply_ns = Vec::new();
    while (lat.busy_ns as f64) < seconds * 1e9 {
        let cycle = churn.next_cycle(model);
        let traced = traced.as_deref_mut();
        apply_ns.push(run_cycle(
            live,
            reader,
            &cycle,
            Some(&mut lat),
            tally,
            traced,
            None,
        ));
        if lat.slices == LIVE_RSS_CYCLES {
            lat.rss_mb = rss_peak_mb();
        }
        clock.after_slice();
    }
    (lat, apply_ns)
}

/// One writer thread and one reader thread for a fixed time; reported
/// per layer only (two busy threads on a small shared host do not
/// repeat well enough to gate).
fn concurrent_phase(
    live: &mut LiveSession,
    churn: &mut Churn,
    model: &mut Model,
    metrics: &mut Metrics,
    tally: &mut Tally,
) {
    let reader = live.reader();
    let texts: Vec<String> = churn
        .hot_films
        .iter()
        .map(|f| render(Template::CastHub, &Key::Film(f.clone())))
        .collect();
    let stop = AtomicBool::new(false);
    let (reads, errors, apply_ms) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            let mut r = Reader::Live(&reader, HashSet::new());
            let (mut reads, mut errors) = (0u64, 0u64);
            while !stop.load(Ordering::SeqCst) {
                for text in &texts {
                    match r.answer(text) {
                        Ok(_) => reads += 1,
                        Err(_) => errors += 1,
                    }
                }
            }
            (reads, errors)
        });
        let start = Instant::now();
        let mut apply_ms = Vec::new();
        while start.elapsed().as_secs_f64() < LIVE_CONCURRENT_SECONDS {
            let cycle = churn.next_cycle(model);
            let t = Instant::now();
            let applied = live.apply(&cycle.batch);
            apply_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tally.attempt(
                applied
                    .map(|_| ())
                    .map_err(|e| format!("concurrent apply: {e}")),
            );
        }
        let seconds = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::SeqCst);
        let (reads, errors) = handle.join().expect("reader thread");
        (reads as f64 / seconds, errors, apply_ms)
    });
    tally.guard(errors == 0, || {
        format!("{errors} reads failed beside the writer")
    });
    metrics.set("core.live.reader_qps_concurrent", reads);
    if let Some(ms) = crate::stats::median(&mut apply_ms.clone()) {
        metrics.set("core.live.apply_ms_concurrent", ms);
    }
}

/// The trial of `live_churn`.
pub fn run_live(spec: &TrialSpec) -> TrialReport {
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();

    let t = Instant::now();
    let data = Dataset::generate(spec.seed, spec.sized.scale);
    let mut model = Model::new(&data);
    let system = data.to_system();
    let mut churn = Churn::new(&data, &model, spec.seed);
    metrics.set("bench.generate_s", t.elapsed().as_secs_f64());
    let stored_triples = system.stored_size();
    tally.guard_size(
        "stored",
        stored_triples,
        spec.sized.stored_triples,
        &spec.sized,
    );
    tally.attempt(check_paper(Strategy::Materialise));

    let mut clock = HostClock::new();
    CountingAlloc::set_counting(spec.trace);
    clock.bracket(SETUP_BRACKET_READINGS);

    let config = EngineConfig::default().with_strategy(Strategy::Materialise);
    let probe_key = Key::Film(churn.hot_films[0].clone());
    let probe = Op {
        template: Template::CastHub,
        cold: true,
        text: render(Template::CastHub, &probe_key),
        expect: expect(&model, Template::CastHub, &probe_key),
    };
    let t = Instant::now();
    let mut live = match LiveSession::open(system, config) {
        Ok(l) => l,
        Err(e) => return TrialReport::fatal(format!("LiveSession::open: {e}")),
    };
    let open_s = t.elapsed().as_secs_f64();
    let live_reader = live.reader();
    let mut reader = Reader::Live(&live_reader, HashSet::new());
    let t = Instant::now();
    let first = reader.answer(&probe.text);
    let raw_setup_s = open_s + t.elapsed().as_secs_f64();
    tally.attempt(first.and_then(|r| probe.expect.check_full(&r)));
    clock.bracket(SETUP_BRACKET_READINGS);
    metrics.set("core.live.open_s", open_s);

    let solution_triples = live.solution().graph.len();
    tally.guard_size(
        "solution",
        solution_triples,
        spec.sized.solution_triples,
        &spec.sized,
    );

    let mut checksum = 0u64;
    for _ in 0..WARMUP_CYCLES {
        let cycle = churn.next_cycle(&mut model);
        run_cycle(
            &mut live,
            &mut reader,
            &cycle,
            None,
            &mut tally,
            None,
            Some(&mut checksum),
        );
    }

    let (mut lat, _) = measure(
        &mut live,
        &mut reader,
        &mut churn,
        &mut model,
        spec.untraced_seconds(),
        &mut clock,
        &mut tally,
        None,
    );

    let mut tracer = None;
    if spec.trace {
        let mut state = TraceState::default();
        let allocs_before = CountingAlloc::mark();
        let stats_before = live.stats();
        let (traced, mut apply_ns) = measure(
            &mut live,
            &mut reader,
            &mut churn,
            &mut model,
            spec.seconds - spec.untraced_seconds(),
            &mut clock,
            &mut tally,
            Some(&mut state),
        );
        let batches = traced.slices.max(1) as f64;
        let stats = live.stats();
        metrics.set(
            "core.live.retractions",
            (stats.retractions - stats_before.retractions) as f64 / batches,
        );
        metrics.set(
            "core.live.refirings",
            (stats.refirings - stats_before.refirings) as f64 / batches,
        );
        if let Some(ns) = crate::stats::median(&mut apply_ns) {
            metrics.set("core.live.apply_ms", ns / 1e6);
            metrics.set(
                "core.live.apply_us_per_triple",
                ns / 1e3 / (LIVE_INSERTS + LIVE_REMOVES) as f64,
            );
        }
        if let Some(us) = crate::stats::median(&mut traced.cold_us.clone()) {
            metrics.set("core.live.first_prepare_us", us);
        }
        // Batches are root spans too; the untraced mean to compare the
        // traced one with is over the same mix of batches and reads.
        let untraced_mean_us = lat.busy_ns as f64 / 1e3 / lat.ops.max(1) as f64;
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
        tally.guard_hit_ratio(metrics.get("core.plan_cache.hit_ratio").unwrap_or(0.0));

        let graph = live.solution().graph.clone();
        metrics.set(
            "rdf.graph.stats_build_ms",
            graph.storage_stats().stats_build_nanos as f64 / 1e6,
        );
        let t = Instant::now();
        let copy = graph.clone();
        metrics.set("rdf.graph.clone_ms", t.elapsed().as_secs_f64() * 1e3);
        drop(copy);
        storage::graph_micro(
            &graph,
            &ExecConfig::default().seal_config(),
            &mut metrics,
            clock.timer_floor_ns,
        );
        drop(graph);
        concurrent_phase(&mut live, &mut churn, &mut model, &mut metrics, &mut tally);
    }

    end_to_end(
        &mut metrics,
        &mut tally,
        &mut lat,
        &clock,
        raw_setup_s,
        !spec.trace,
    );

    TrialReport {
        tally,
        rows_checksum: checksum,
        stored_triples,
        solution_triples: Some(solution_triples),
        metrics,
        reads: lat.reads_us.len(),
        cold_reads: lat.cold_us.len(),
        slices: lat.slices,
        tracer,
    }
}
