//! Measurements below the session layer, taken once per traced run on a
//! copy of the universal solution's graph: scans and probes of the
//! default layout, the same scan and join in each representation (the
//! *ladder*), and one persist/reopen round of the durable tier.

use crate::gen::v;
use crate::ops::Op;
use crate::rng::{fnv1a, FNV_OFFSET};
use crate::stats::guarded_ratio;
use crate::trace::CountingAlloc;
use crate::trial::Metrics;
use rps_core::FrozenSession;
use rps_query::{
    GraphPattern, GraphPatternQuery, PreparedQueryIds, Semantics, TermOrVar, Variable,
};
use rps_rdf::store::disk::{BufferPool, Manifest, PagedRun};
use rps_rdf::{Graph, IdTriple, SealConfig, StorageBackend, Term, TermId};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Subjects probed for `rdf.graph.probe_subject_us`.
const PROBES: usize = 2_000;
/// Frames of the ladder's buffer pool: far fewer than the run's pages,
/// so the paged scan really pages.
const POOL_FRAMES: usize = 64;

/// Seconds of the faster of two runs of `f`, and its result.
fn best_of_two<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let t = Instant::now();
    black_box(f());
    let first = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let out = f();
    (first.min(t.elapsed().as_secs_f64()), out)
}

fn mkeys_per_s(keys: usize, seconds: f64, timer_floor_ns: f64) -> Option<f64> {
    guarded_ratio(keys as f64 * 1e3, seconds * 1e9, timer_floor_ns).ok()
}

/// An empty graph with `src`'s dictionary, id for id.
fn with_dict_of(src: &Graph, backend: StorageBackend) -> Graph {
    let mut g = Graph::with_backend(backend);
    for (_, term) in src.dict().iter() {
        g.intern(term);
    }
    g
}

/// Keys seen by a scan and a hash of them in order.
type Scan = (usize, u64);

fn fnv(keys: impl Iterator<Item = IdTriple>) -> Scan {
    let mut h = FNV_OFFSET;
    let mut n = 0;
    for t in keys {
        for id in [t.s, t.p, t.o] {
            h = fnv1a(h, &id.0.to_le_bytes());
        }
        n += 1;
    }
    (n, h)
}

/// Scans, probes, bulk insert and reseal of the default layout.
pub fn graph_micro(graph: &Graph, seal: &SealConfig, metrics: &mut Metrics, timer_floor_ns: f64) {
    // Bulk load and reseal, as set-up does them.
    let triples: Vec<IdTriple> = graph.iter_ids().collect();
    let mut g = with_dict_of(graph, StorageBackend::SortedRuns);
    let t = Instant::now();
    g.insert_batch(triples.iter().copied());
    if let Some(rate) = mkeys_per_s(triples.len(), t.elapsed().as_secs_f64(), timer_floor_ns) {
        metrics.set("rdf.graph.insert_batch_mkeys_s", rate);
    }
    let t = Instant::now();
    g.seal_with(seal);
    metrics.set("rdf.graph.seal_ms", t.elapsed().as_secs_f64() * 1e3);

    let (s, n) = best_of_two(|| g.iter_ids().count());
    if let Some(rate) = mkeys_per_s(n, s, timer_floor_ns) {
        metrics.set("rdf.graph.scan_full_mkeys_s", rate);
    }
    if let Some(artist) = g.term_id(&Term::iri(v("artist"))) {
        let (s, n) = best_of_two(|| g.match_ids(None, Some(artist), None).count());
        if let Some(rate) = mkeys_per_s(n, s, timer_floor_ns) {
            metrics.set("rdf.graph.scan_pred_mkeys_s", rate);
        }
    }
    let step = (triples.len() / PROBES).max(1);
    let subjects: Vec<TermId> = triples.iter().step_by(step).map(|t| t.s).collect();
    let (s, found) = best_of_two(|| {
        subjects
            .iter()
            .map(|&s| g.match_ids(Some(s), None, None).count())
            .sum::<usize>()
    });
    black_box(found);
    metrics.set(
        "rdf.graph.probe_subject_us",
        s * 1e6 / subjects.len() as f64,
    );
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

/// The same full scan and the same two-atom join over `graph` in each
/// representation; every variant's answers must equal `btree`'s.
pub fn ladder(
    graph: &Graph,
    seal: &SealConfig,
    dir: &Path,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let triples: Vec<IdTriple> = graph.iter_ids().collect();
    let n = triples.len().max(1) as f64;
    let var = Variable::new;
    let join = GraphPatternQuery::new(
        vec![var("f"), var("p")],
        GraphPattern::triple(
            TermOrVar::var("f"),
            TermOrVar::iri(&v("starring")),
            TermOrVar::var("z"),
        )
        .and(GraphPattern::triple(
            TermOrVar::var("z"),
            TermOrVar::iri(&v("artist")),
            TermOrVar::var("p"),
        )),
    );
    let sharded = SealConfig {
        compress: false,
        ..*seal
    };
    let columnar = SealConfig {
        compress: true,
        ..*seal
    };
    let variants: [(&str, StorageBackend, Option<SealConfig>); 4] = [
        ("btree", StorageBackend::BTree, None),
        (
            "runs",
            StorageBackend::SortedRuns,
            Some(SealConfig::default()),
        ),
        ("sharded", StorageBackend::SortedRuns, Some(sharded)),
        ("columnar", StorageBackend::SortedRuns, Some(columnar)),
    ];

    let mut reference: Option<(Scan, BTreeSet<Vec<TermId>>)> = None;
    for (name, backend, seal) in variants {
        // Bytes held by the representation: what stays allocated once
        // it is built (dictionary included, the same in every variant).
        let before = CountingAlloc::mark().live;
        let mut g = with_dict_of(graph, backend);
        g.insert_batch(triples.iter().copied());
        if let Some(cfg) = &seal {
            g.seal_with(cfg);
        }
        let held = CountingAlloc::mark().live.wrapping_sub(before) as i64;
        metrics.set(
            format!("rdf.ladder.{name}.bytes_per_triple"),
            held as f64 / n,
        );

        let (s, scan) = best_of_two(|| fnv(g.iter_ids()));
        metrics.set(
            format!("rdf.ladder.{name}.scan_mkeys_s"),
            scan.0 as f64 / 1e6 / s,
        );
        let plan = PreparedQueryIds::compile_only(&g, &join);
        let (s, rows) = best_of_two(|| plan.evaluate(&g, Semantics::Certain));
        metrics.set(format!("rdf.ladder.{name}.join_ms"), s * 1e3);
        if rows.is_empty() {
            return Err(format!("ladder: the {name} join returned no row"));
        }
        match &reference {
            None => reference = Some((scan, rows)),
            Some((ref_scan, ref_rows)) => {
                if scan != *ref_scan || rows != *ref_rows {
                    return Err(format!("ladder: {name} disagrees with btree"));
                }
            }
        }

        // The paged form is the sealed runs written out; the query
        // layer cannot reach it, so it has a scan and no join.
        if name == "runs" {
            let paged = dir.join("paged");
            let _ = std::fs::remove_dir_all(&paged);
            let result = (|| -> Result<(), String> {
                g.persist(&paged).map_err(|e| e.to_string())?;
                let manifest = Manifest::load(&paged).map_err(|e| e.to_string())?;
                let mut pool = BufferPool::new(POOL_FRAMES);
                let runs = manifest.runs[0]
                    .iter()
                    .map(|m| PagedRun::open(&mut pool, &paged.join(&m.name), m.keys))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| e.to_string())?;
                let (s, keys) = best_of_two(|| {
                    let mut keys = 0usize;
                    for run in &runs {
                        run.for_each_in_range(&mut pool, [u32::MIN; 3], [u32::MAX; 3], &mut |_| {
                            keys += 1
                        })
                        .expect("page files written a moment ago");
                    }
                    keys
                });
                let (ref_scan, _) = reference.as_ref().expect("btree ran first");
                if keys != ref_scan.0 {
                    return Err(format!("ladder: paged scan saw {keys} keys"));
                }
                metrics.set("rdf.ladder.paged.scan_mkeys_s", keys as f64 / 1e6 / s);
                let bytes = dir_bytes(&paged).map_err(|e| e.to_string())?;
                metrics.set("rdf.ladder.paged.bytes_per_triple", bytes as f64 / n);
                Ok(())
            })();
            let _ = std::fs::remove_dir_all(&paged);
            result?;
        }
    }
    Ok(())
}

/// `FrozenSession::persist` and `open` once; the reopened session must
/// answer `probes` as the model says.
pub fn durable(
    frozen: &FrozenSession,
    dir: &Path,
    probes: &[Arc<Op>],
    metrics: &mut Metrics,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let result = (|| -> Result<(), String> {
        let t = Instant::now();
        frozen.persist(dir).map_err(|e| format!("persist: {e}"))?;
        metrics.set("rdf.durable.persist_s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        let reopened = FrozenSession::open(dir).map_err(|e| format!("reopen: {e}"))?;
        metrics.set("rdf.durable.open_s", t.elapsed().as_secs_f64());
        let stats = reopened
            .storage_stats()
            .ok_or("reopened session has no solution")?;
        metrics.set("rdf.durable.pages_read", stats.pages_read as f64);
        let pins = stats.pool_hits + stats.pool_misses;
        if pins > 0 {
            metrics.set(
                "rdf.durable.pool_hit_ratio",
                stats.pool_hits as f64 / pins as f64,
            );
        }
        for op in probes {
            let got = reopened
                .answer_sparql(&op.text)
                .map_err(|e| format!("reopened session: {e}"))?;
            op.expect
                .check_full(&got)
                .map_err(|e| format!("reopened session, {}: {e}", op.template.name()))?;
        }
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(dir);
    result
}
