//! Shared by the integration suites that hold a façade to the layout
//! the read path is priced on.

use rps_rdf::StorageStats;

/// The layout every façade serves by default: one run per permutation,
/// nothing to merge or filter per probe.
pub fn assert_one_run_layout(stats: &StorageStats, what: &str) {
    assert!(
        stats.runs <= 1 && stats.tail == 0 && stats.tombstones == 0 && stats.shards == 0,
        "{what}: layout {stats:?}"
    );
}
