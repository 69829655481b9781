//! Every metric the benchmark prints, by name and unit. `BENCHMARK.json`
//! repeats this table (a test keeps the two equal).

use crate::ops::Template;

/// The six end-to-end metrics, `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("read_p90_us", "us"),
    ("cold_read_p50_us", "us"),
    ("rss_peak_mb", "MB"),
];

/// The per-layer metrics other than the per-template ones, `(name, unit)`.
const PER_LAYER_FIXED: [(&str, &str); 78] = [
    ("query.sparql.parse_us", "us"),
    ("query.sparql.lower_us", "us"),
    ("query.sparql.cqs_per_op", "count"),
    ("query.sparql.assemble_us", "us"),
    ("query.sparql.assemble_allocs_per_op", "count"),
    ("core.answers.decode_us", "us"),
    ("core.answers.decode_allocs_per_op", "count"),
    ("core.answers.rows_per_op", "count"),
    ("rdf.dict.decode_ns_per_term", "ns"),
    ("core.session.prepare_hit_us", "us"),
    ("core.session.prepare_miss_us", "us"),
    ("core.plan_cache.hit_ratio", "ratio"),
    ("core.rewriting.branches_per_cq", "count"),
    ("core.session.execute_us", "us"),
    ("core.session.open_s", "s"),
    ("core.chase.wall_s", "s"),
    ("core.chase.mtriples_s", "Mtriples/s"),
    ("core.session.freeze_s", "s"),
    ("core.chase.solution_triples", "count"),
    ("core.chase.rounds", "count"),
    ("core.chase.gma_firings", "count"),
    ("core.chase.eq_copies", "count"),
    ("core.chase.blanks_created", "count"),
    ("core.live.open_s", "s"),
    ("core.live.apply_ms", "ms"),
    ("core.live.apply_us_per_triple", "us"),
    ("core.live.retractions", "count"),
    ("core.live.refirings", "count"),
    ("core.live.first_prepare_us", "us"),
    ("core.live.reader_qps_concurrent", "1/s"),
    ("core.live.apply_ms_concurrent", "ms"),
    ("rdf.graph.clone_ms", "ms"),
    ("rdf.graph.seal_ms", "ms"),
    ("rdf.graph.stats_build_ms", "ms"),
    ("rdf.graph.scan_full_mkeys_s", "Mkeys/s"),
    ("rdf.graph.scan_pred_mkeys_s", "Mkeys/s"),
    ("rdf.graph.probe_subject_us", "us"),
    ("rdf.graph.insert_batch_mkeys_s", "Mkeys/s"),
    ("rdf.store.runs", "count"),
    ("rdf.store.shards", "count"),
    ("rdf.store.loser_tree_merges", "count"),
    ("rdf.store.morsels_dispatched", "count"),
    ("rdf.ladder.btree.scan_mkeys_s", "Mkeys/s"),
    ("rdf.ladder.runs.scan_mkeys_s", "Mkeys/s"),
    ("rdf.ladder.sharded.scan_mkeys_s", "Mkeys/s"),
    ("rdf.ladder.columnar.scan_mkeys_s", "Mkeys/s"),
    ("rdf.ladder.paged.scan_mkeys_s", "Mkeys/s"),
    ("rdf.ladder.btree.join_ms", "ms"),
    ("rdf.ladder.runs.join_ms", "ms"),
    ("rdf.ladder.sharded.join_ms", "ms"),
    ("rdf.ladder.columnar.join_ms", "ms"),
    ("rdf.ladder.btree.bytes_per_triple", "B"),
    ("rdf.ladder.runs.bytes_per_triple", "B"),
    ("rdf.ladder.sharded.bytes_per_triple", "B"),
    ("rdf.ladder.columnar.bytes_per_triple", "B"),
    ("rdf.ladder.paged.bytes_per_triple", "B"),
    ("rdf.durable.persist_s", "s"),
    ("rdf.durable.open_s", "s"),
    ("rdf.durable.pages_read", "count"),
    ("rdf.durable.pool_hit_ratio", "ratio"),
    ("bench.generate_s", "s"),
    ("bench.alloc_count_per_op", "count"),
    ("bench.alloc_kb_per_op", "KB"),
    ("host.cores", "count"),
    ("host.timer_floor_ns", "ns"),
    ("host.ref_kernel_us", "us"),
    ("host.ref_kernel_spread", "ratio"),
    ("host.ref_spin_us", "us"),
    ("host.ref_alloc_us", "us"),
    ("host.ref_probe_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.uncovered_share", "ratio"),
    ("raw.setup_s", "s"),
    ("raw.ops_per_s", "1/s"),
    ("raw.read_p50_us", "us"),
    ("raw.read_p90_us", "us"),
    ("raw.cold_read_p50_us", "us"),
    ("e2e.read_p99_us", "us"),
];

/// The name of a template's median-latency metric.
pub fn template_metric(name: &str) -> String {
    format!("tmpl.{name}.p50_us")
}

/// The template name `live_churn` reports its reads under.
pub const LIVE_TEMPLATE: &str = "point";

/// Every per-layer metric, `(name, unit)`, in printing order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect();
    for t in Template::POINT.iter().chain(&Template::ANALYTIC) {
        all.push((template_metric(t.name()), "us"));
    }
    all.push((template_metric(LIVE_TEMPLATE), "us"));
    all
}

/// The unit of metric `name`.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .or_else(|| {
            per_layer()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, u)| u)
        })
}
