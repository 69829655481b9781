//! Sorted-run / merge-batch triple storage — the physical layer under
//! [`Graph`](crate::graph::Graph).
//!
//! The logical contract of the store is small: a *set* of `[u32; 3]` keys
//! per permutation (SPO, POS, OSP), answering membership probes and
//! contiguous range scans in key order. This module provides two
//! interchangeable implementations behind [`StorageBackend`]:
//!
//! * [`StorageBackend::SortedRuns`] (the default) — an LSM-flavoured
//!   layout. Each permutation index is a stack of **immutable sorted
//!   runs** (`Vec<[u32; 3]>`) plus one shared, insertion-ordered mutable
//!   **tail** kept sorted in each permutation's key order. Inserts are
//!   an `O(1)` hash probe plus three small sorted-tail insertions; when
//!   the tail reaches [`TAIL_MAX`] entries it becomes a fresh run per
//!   permutation, and a **size-tiered compaction** merges
//!   neighbouring runs while the older run is within `TIER_FACTOR`
//!   (4) times the newer one — keeping the run count logarithmic in
//!   the store size.
//!   Range scans binary-search every run — and the tail, which is kept
//!   sorted per permutation — for the key range and k-way merge the
//!   resulting slices, so iteration order is identical to a B-tree
//!   range scan and scan setup allocates nothing beyond the head list. Removals from runs are **tombstones** in a side set,
//!   filtered during scans and physically dropped — by one merge pass
//!   per permutation that folds the stack into a single run, copying
//!   the big run in stretches between the few tombstoned positions —
//!   when the store is sealed, or on its own once they outnumber half
//!   the run-resident keys.
//!
//! * [`StorageBackend::BTree`] — the original three
//!   `BTreeSet<[u32; 3]>` permutation indexes, retained as a correctness
//!   oracle and benchmark baseline (`rdf.ladder.btree.*` in the repo
//!   benchmark measures it beside the run layouts).
//!
//! **Why runs beat trees here.** The chase workload is insert-dominated:
//! every equivalence repair and GMA firing inserts triples, and each
//! insert into a balanced tree pays three `O(log n)` node traversals
//! with poor cache locality. The sorted-run layout moves that cost into
//! batched `sort_unstable` + linear merges — sequential memory traffic
//! that amortises to `O(log n)` comparisons per key — while keeping
//! scans contiguous. The same key never occurs in more than one run (or
//! the tail), so merged iteration needs no deduplication.
//!
//! Invariants relied on by [`Graph`](crate::graph::Graph):
//!
//! 1. a key is stored in **at most one** place: one run or the tail;
//! 2. `dead` (tombstoned SPO keys) only ever names keys inside runs —
//!    tail entries are removed physically — and a live copy of a key
//!    never coexists with a tombstoned one (re-insertion *revives* the
//!    run copy instead of adding another);
//! 3. the three permutation tails hold the same triples, each sorted in
//!    its own key order;
//! 4. compaction never changes the logical key set, so the insertion
//!    log kept by `Graph` (and every outstanding mark into it) is
//!    unaffected by flushes, merges and purges.
//!
//! ```
//! use rps_rdf::{Graph, StorageBackend, Term};
//!
//! let mut g = Graph::new();
//! assert_eq!(g.backend(), StorageBackend::SortedRuns);
//! for i in 0..1000 {
//!     g.insert_terms(
//!         Term::iri(format!("s{i}")), Term::iri("p"), Term::iri("o"),
//!     ).unwrap();
//! }
//! let stats = g.storage_stats();
//! // Tiered compaction keeps the run count logarithmic while the tail
//! // stays below its flush threshold.
//! assert!(stats.runs >= 1 && stats.runs <= 8, "{stats:?}");
//! assert!(stats.tail < 128);
//! assert_eq!(stats.run_keys + stats.tail, 1000);
//! ```

pub(crate) mod columnar;
pub mod disk;
pub mod page;
pub mod wal;

use crate::dict::TermId;
use crate::triple::IdTriple;
use columnar::{ColScan, ColumnarRun};
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// Tail capacity before a flush turns it into a sorted run.
///
/// Small enough that the sorted-insertion memmove (the tail is kept in
/// key order per permutation) stays a fraction of a cache line's worth
/// of work; large enough that flush sorting and tiered merging
/// amortise well. Exposed for documentation; not currently tunable per
/// graph.
pub const TAIL_MAX: usize = 128;

/// Tombstone count that triggers a full purge-compaction (together with
/// the relative threshold: dead keys must also outnumber half the
/// run-resident keys).
const PURGE_MIN: usize = 1024;

/// Size-tiering factor: a freshly pushed run cascades merges upward
/// until the next-older run is more than this many times its size. The
/// total merge traffic per key is `O(factor × log_factor n)` — constant
/// across factors — while the run count (and with it every scan's merge
/// width and every range's binary-search count) shrinks as the factor
/// grows, so a moderately aggressive factor favours the read path.
const TIER_FACTOR: usize = 4;

/// Merge width at or above which a range scan replaces the linear-min
/// k-way merge with a loser tree. Below this, scanning every head is
/// cheaper than maintaining the tournament; at 8+ sources (a sharded
/// sealed graph plus a few fresh runs) the tree's `O(log k)` replay
/// wins.
const LOSER_TREE_MIN: usize = 8;

/// How a [`Graph`](crate::graph::Graph) is physically laid out when it
/// is sealed via [`Graph::seal_with`](crate::graph::Graph::seal_with).
///
/// The default (`shards: 1`, no compression) is the classic sealed
/// form: one purged sorted-run stack per permutation. Raising `shards`
/// partitions the live keys by **subject hash** into that many
/// independent per-shard run sets — the substrate morsel-driven
/// parallel execution scans — and `compress` stores each large enough
/// shard run delta-varint encoded (the `store::columnar` module).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SealConfig {
    /// Number of subject-hash shards; `0` means "auto" (the machine's
    /// available parallelism), `1` means the classic unsharded form.
    pub shards: usize,
    /// Store shard runs delta-varint compressed when they are at least
    /// `compress_min_keys` long.
    pub compress: bool,
    /// Minimum keys in a shard before compression is worth the decode
    /// cost of its scans.
    pub compress_min_keys: usize,
}

impl Default for SealConfig {
    fn default() -> Self {
        SealConfig {
            shards: 1,
            compress: false,
            compress_min_keys: 256,
        }
    }
}

impl SealConfig {
    /// Resolves `shards: 0` ("auto") to [`host_parallelism`].
    pub fn effective_shards(&self) -> usize {
        match self.shards {
            0 => host_parallelism(),
            n => n,
        }
    }
}

/// The machine's available parallelism (≥ 1), asked of the OS once per
/// process. On Linux the query is an affinity syscall plus cgroup-quota
/// file reads — ~14 µs, several times an id-level point join — so every
/// "auto" worker or shard count resolves through this cached answer and
/// no request path queries the host.
pub fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Maps a subject id to its shard. A SplitMix-style multiply-xor mix so
/// that dense interned ids (the common case) spread evenly instead of
/// striping by allocation order.
pub(crate) fn shard_of(s: u32, shards: usize) -> usize {
    let mut h = (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 32;
    (h % shards as u64) as usize
}

/// Which physical index layout a [`Graph`](crate::graph::Graph) uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StorageBackend {
    /// Immutable sorted runs + mutable tail with size-tiered compaction
    /// (the default; see the module docs).
    #[default]
    SortedRuns,
    /// Three `BTreeSet<[u32; 3]>` permutation indexes (the historical
    /// layout, kept as oracle and benchmark baseline).
    BTree,
}

/// Counters describing the physical state of a store — used by tests
/// (to force and observe compaction) and by the repo benchmark.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StorageStats {
    /// Immutable sorted runs per permutation index.
    pub runs: usize,
    /// Keys in the mutable tail (shared across the three permutations).
    pub tail: usize,
    /// Tombstoned keys awaiting a purge-compaction (always 0 for the
    /// B-tree backend, which removes in place).
    pub tombstones: usize,
    /// Keys resident in runs (live + tombstoned).
    pub run_keys: usize,
    /// Pages written by `Graph::persist` checkpoints over this graph's
    /// lifetime (0 until the graph touches the durable tier).
    pub pages_written: u64,
    /// Pages physically read through the buffer pool while opening or
    /// scanning persisted state.
    pub pages_read: u64,
    /// Buffer-pool pins served from a resident frame.
    pub pool_hits: u64,
    /// Buffer-pool pins that had to read from disk.
    pub pool_misses: u64,
    /// Bytes appended to the write-ahead log (frames + magic).
    pub wal_bytes: u64,
    /// WAL records replayed into the tail during recovery.
    pub wal_replayed: u64,
    /// Subject-hash shards in the sealed form (0 when unsharded).
    pub shards: usize,
    /// Keys resident in shard runs (disjoint from `run_keys`).
    pub shard_keys: usize,
    /// Shard runs stored delta-varint compressed (across permutations).
    pub compressed_runs: usize,
    /// Resident bytes of the compressed runs (codes + sync tables).
    pub compressed_bytes: usize,
    /// Bytes the same keys would occupy as plain `[u32; 3]` runs.
    pub compressed_raw_bytes: usize,
    /// Morsels handed to workers by parallel query execution over this
    /// graph.
    pub morsels_dispatched: u64,
    /// Morsels a worker claimed outside its round-robin share — the
    /// work-stealing that keeps uneven morsels from idling workers.
    pub morsel_steals: u64,
    /// Range scans that engaged the loser-tree merge (width ≥ 8).
    pub loser_tree_merges: u64,
    /// Widest k-way merge any scan of this graph has performed.
    pub widest_merge: u64,
    /// Distinct predicates in the planner statistics snapshot (0 until
    /// [`Graph::graph_stats`](crate::Graph::graph_stats) has built one).
    pub stats_predicates: usize,
    /// Distinct subjects across the graph per the statistics snapshot.
    pub stats_distinct_subjects: usize,
    /// Distinct objects across the graph per the statistics snapshot.
    pub stats_distinct_objects: usize,
    /// Wall nanoseconds the statistics build passes took (0 until
    /// built).
    pub stats_build_nanos: u64,
}

/// A live-only image of a store's physical shape, produced by
/// [`TripleStore::snapshot`] for the durable tier.
pub(crate) struct RunSnapshot {
    /// Live keys of each permutation's runs (SPO, POS, OSP order),
    /// oldest first, each sorted; empty runs are dropped.
    pub(crate) runs: [Vec<Vec<[u32; 3]>>; 3],
    /// Live tail triples in SPO key order.
    pub(crate) tail: Vec<IdTriple>,
}

/// One of the three permutation orders.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Perm {
    /// subject, predicate, object
    Spo,
    /// predicate, object, subject
    Pos,
    /// object, subject, predicate
    Osp,
}

impl Perm {
    /// Rebuilds the triple from a key in this permutation's order.
    pub(crate) fn unpermute(&self, key: [u32; 3]) -> IdTriple {
        let [a, b, c] = key;
        match self {
            Perm::Spo => IdTriple::new(TermId(a), TermId(b), TermId(c)),
            Perm::Pos => IdTriple::new(TermId(c), TermId(a), TermId(b)),
            Perm::Osp => IdTriple::new(TermId(b), TermId(c), TermId(a)),
        }
    }

    /// Projects a triple into this permutation's key order.
    pub(crate) fn permute(&self, t: IdTriple) -> [u32; 3] {
        match self {
            Perm::Spo => [t.s.0, t.p.0, t.o.0],
            Perm::Pos => [t.p.0, t.o.0, t.s.0],
            Perm::Osp => [t.o.0, t.s.0, t.p.0],
        }
    }
}

fn spo_key(t: IdTriple) -> [u32; 3] {
    [t.s.0, t.p.0, t.o.0]
}

/// The physical triple store: three permutation indexes in one of the
/// two layouts. All members take/return SPO-keyed [`IdTriple`]s; the
/// permutation plumbing is internal.
// One store per graph, never collections of them — the size gap
// between the layouts costs nothing, so indirection would only add a
// pointer chase to every triple operation.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
pub(crate) enum TripleStore {
    BTree(BTreeStore),
    Runs(RunStore),
}

impl Default for TripleStore {
    fn default() -> Self {
        TripleStore::new(StorageBackend::default())
    }
}

impl TripleStore {
    pub(crate) fn new(backend: StorageBackend) -> Self {
        match backend {
            StorageBackend::BTree => TripleStore::BTree(BTreeStore::default()),
            StorageBackend::SortedRuns => TripleStore::Runs(RunStore::default()),
        }
    }

    pub(crate) fn backend(&self) -> StorageBackend {
        match self {
            TripleStore::BTree(_) => StorageBackend::BTree,
            TripleStore::Runs(_) => StorageBackend::SortedRuns,
        }
    }

    pub(crate) fn stats(&self) -> StorageStats {
        match self {
            TripleStore::BTree(_) => StorageStats::default(),
            TripleStore::Runs(s) => {
                let mut compressed_runs = 0;
                let mut compressed_bytes = 0;
                let mut compressed_raw_bytes = 0;
                for shard in &s.shards {
                    for run in [&shard.spo, &shard.pos, &shard.osp] {
                        if let SealedRun::Compressed(c) = run {
                            compressed_runs += 1;
                            compressed_bytes += c.encoded_bytes();
                            compressed_raw_bytes += c.raw_bytes();
                        }
                    }
                }
                StorageStats {
                    runs: s.spo.runs.len(),
                    tail: s.spo.tail.len(),
                    tombstones: s.dead.len(),
                    run_keys: s.spo.runs.iter().map(|r| r.len()).sum(),
                    shards: s.shards.len(),
                    shard_keys: s.shards.iter().map(|sh| sh.spo.len()).sum(),
                    compressed_runs,
                    compressed_bytes,
                    compressed_raw_bytes,
                    ..StorageStats::default()
                }
            }
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            TripleStore::BTree(s) => s.spo.len(),
            TripleStore::Runs(s) => s.len(),
        }
    }

    pub(crate) fn contains(&self, t: IdTriple) -> bool {
        match self {
            TripleStore::BTree(s) => s.spo.contains(&spo_key(t)),
            TripleStore::Runs(s) => s.contains(spo_key(t)),
        }
    }

    /// Inserts one triple; `true` iff it was not already present.
    pub(crate) fn insert(&mut self, t: IdTriple) -> bool {
        match self {
            TripleStore::BTree(s) => s.insert(t),
            TripleStore::Runs(s) => s.insert(t),
        }
    }

    /// Inserts many triples, pushing those actually added (first
    /// occurrence wins; duplicates and already-present keys are skipped)
    /// onto `added` in input order. For the sorted-run backend, a batch
    /// that overflows the tail is sorted **once** into a fresh run per
    /// permutation instead of paying per-key tail pushes and repeated
    /// flushes.
    pub(crate) fn insert_batch(
        &mut self,
        triples: impl Iterator<Item = IdTriple>,
        added: &mut Vec<IdTriple>,
    ) {
        match self {
            TripleStore::BTree(s) => {
                for t in triples {
                    if s.insert(t) {
                        added.push(t);
                    }
                }
            }
            TripleStore::Runs(s) => s.insert_batch(triples, added),
        }
    }

    /// Removes one triple; `true` iff it was present.
    pub(crate) fn remove(&mut self, t: IdTriple) -> bool {
        match self {
            TripleStore::BTree(s) => s.remove(t),
            TripleStore::Runs(s) => s.remove(t),
        }
    }

    /// Seals the physical layout for read-only sharing: the sorted-run
    /// backend flushes the mutable tail into a run, then folds the run
    /// stack into one run per permutation while physically dropping all
    /// tombstones, so subsequent scans read immutable runs only (no
    /// tail subslice, no per-key tombstone probe). **Sealed and
    /// unsharded ⇒ at most one run per permutation**, whether or not a
    /// tombstone existed: a probe sets up a single source, no merge.
    /// Over a sharded seal the shards stay as they are (less their dead
    /// keys) and the writes since fold into one run beside them. The
    /// logical key set is unchanged; the B-tree backend is a no-op. A
    /// sealed store accepts further writes (they simply start a new
    /// tail).
    pub(crate) fn seal(&mut self) {
        if let TripleStore::Runs(s) = self {
            s.seal();
        }
    }

    /// Seals into the physical layout described by `cfg`: live keys are
    /// repartitioned by subject hash into `cfg.effective_shards()`
    /// independent per-shard run sets (optionally delta-varint
    /// compressed), or folded back into the classic unsharded form for
    /// `shards <= 1` without compression. Logical content is untouched;
    /// the B-tree backend ignores the config ([`Self::seal`] semantics).
    pub(crate) fn seal_with(&mut self, cfg: &SealConfig) {
        if let TripleStore::Runs(s) = self {
            s.seal_with(cfg);
        }
    }

    /// `true` iff the tail is empty and no tombstone is pending — what
    /// [`Self::seal`] leaves, though not only it (a flushing
    /// `insert_batch` does too, over several runs). Trivially true for
    /// the B-tree backend.
    pub(crate) fn is_sealed(&self) -> bool {
        match self {
            TripleStore::BTree(_) => true,
            TripleStore::Runs(s) => s.spo.tail.is_empty() && s.dead.len() == 0,
        }
    }

    /// The SPO, POS and OSP key arrays when [`Self::seal`] left the
    /// whole store in them: sorted runs, unsharded, no tail, no
    /// tombstone, at most one run per permutation (none when empty).
    /// `None` for any other shape, the B-tree backend included.
    pub(crate) fn sealed_runs(&self) -> Option<[&[[u32; 3]]; 3]> {
        let TripleStore::Runs(s) = self else {
            return None;
        };
        if !(self.is_sealed() && s.shards.is_empty() && s.spo.runs.len() <= 1) {
            return None;
        }
        Some([&s.spo, &s.pos, &s.osp].map(|index| index.runs.first().map_or(&[][..], |r| &r[..])))
    }

    /// The smallest and the largest SPO key of a sealed store (`None`
    /// when empty), read off the two ends of each run — no scan.
    pub(crate) fn spo_bounds(&self) -> Option<(IdTriple, IdTriple)> {
        debug_assert!(self.is_sealed(), "a run's ends may be tombstoned");
        let (lo, hi) = match self {
            TripleStore::BTree(s) => (*s.spo.first()?, *s.spo.last()?),
            TripleStore::Runs(s) => s
                .spo
                .runs
                .iter()
                .filter_map(|r| Some((*r.first()?, *r.last()?)))
                .chain(s.shards.iter().filter_map(|sh| sh.spo.ends()))
                .reduce(|(lo, hi), (first, last)| (lo.min(first), hi.max(last)))?,
        };
        Some((Perm::Spo.unpermute(lo), Perm::Spo.unpermute(hi)))
    }

    /// A live-only image of the physical shape, taken by the durable
    /// tier when writing a checkpoint. Tombstoned keys are filtered out
    /// of the run images — a persist doubles as a purge-compaction —
    /// and the mutable tail comes back as SPO-ordered triples so the
    /// checkpoint can re-log it through the WAL. The B-tree backend
    /// snapshots as one full run per permutation.
    pub(crate) fn snapshot(&self) -> RunSnapshot {
        match self {
            TripleStore::BTree(s) => RunSnapshot {
                runs: [
                    if s.spo.is_empty() {
                        Vec::new()
                    } else {
                        vec![s.spo.iter().copied().collect()]
                    },
                    if s.pos.is_empty() {
                        Vec::new()
                    } else {
                        vec![s.pos.iter().copied().collect()]
                    },
                    if s.osp.is_empty() {
                        Vec::new()
                    } else {
                        vec![s.osp.iter().copied().collect()]
                    },
                ],
                tail: Vec::new(),
            },
            TripleStore::Runs(s) => {
                let live = |perm: Perm, index: &RunIndex| -> Vec<Vec<[u32; 3]>> {
                    index
                        .runs
                        .iter()
                        .map(|run| {
                            if s.dead.len() == 0 {
                                run.as_ref().clone()
                            } else {
                                run.iter()
                                    .copied()
                                    .filter(|k| !s.dead.contains(spo_key(perm.unpermute(*k))))
                                    .collect()
                            }
                        })
                        .filter(|run: &Vec<[u32; 3]>| !run.is_empty())
                        .collect()
                };
                let mut runs = [
                    live(Perm::Spo, &s.spo),
                    live(Perm::Pos, &s.pos),
                    live(Perm::Osp, &s.osp),
                ];
                // Shard runs persist as additional plain run images —
                // the durable tier (and `from_runs` recovery) stays
                // unsharded; re-seal with a config to reshard after
                // opening.
                for shard in &s.shards {
                    for (slot, perm, run) in [
                        (0, Perm::Spo, &shard.spo),
                        (1, Perm::Pos, &shard.pos),
                        (2, Perm::Osp, &shard.osp),
                    ] {
                        let mut keys = run.decode_keys();
                        if s.dead.len() > 0 {
                            keys.retain(|k| !s.dead.contains(spo_key(perm.unpermute(*k))));
                        }
                        if !keys.is_empty() {
                            runs[slot].push(keys);
                        }
                    }
                }
                RunSnapshot {
                    runs,
                    // Tail keys are never tombstoned (removals from the
                    // tail are physical), so the tail is live as-is.
                    tail: s.spo.tail.iter().map(|&k| Perm::Spo.unpermute(k)).collect(),
                }
            }
        }
    }

    /// Rebuilds a sorted-run store from persisted run images, validating
    /// every structural invariant recovery depends on: each run strictly
    /// sorted, every id below `max_term`, no key stored twice, and the
    /// three permutations describing the same triple set. Violations are
    /// reported as a description for the caller to wrap in a typed
    /// corruption error — never a panic.
    pub(crate) fn from_runs(
        runs: [Vec<Vec<[u32; 3]>>; 3],
        max_term: u32,
    ) -> Result<TripleStore, String> {
        let mut present = KeySet::default();
        let [spo_runs, pos_runs, osp_runs] = runs;
        for (perm, perm_runs) in [
            (Perm::Spo, &spo_runs),
            (Perm::Pos, &pos_runs),
            (Perm::Osp, &osp_runs),
        ] {
            for (ri, run) in perm_runs.iter().enumerate() {
                for (i, &key) in run.iter().enumerate() {
                    if key.iter().any(|&id| id >= max_term) {
                        return Err(format!(
                            "{perm:?} run {ri} references term id beyond the dictionary \
                             ({key:?}, {max_term} terms)"
                        ));
                    }
                    if i > 0 && run[i - 1] >= key {
                        return Err(format!("{perm:?} run {ri} is not strictly sorted"));
                    }
                    if perm == Perm::Spo && !present.insert(key) {
                        return Err(format!("SPO key {key:?} stored more than once"));
                    }
                }
            }
        }
        let spo_total: usize = spo_runs.iter().map(Vec::len).sum();
        for (perm, perm_runs) in [(Perm::Pos, &pos_runs), (Perm::Osp, &osp_runs)] {
            let total: usize = perm_runs.iter().map(Vec::len).sum();
            if total != spo_total {
                return Err(format!(
                    "{perm:?} holds {total} keys, SPO holds {spo_total}"
                ));
            }
            for run in perm_runs.iter() {
                for &key in run {
                    if !present.contains(spo_key(perm.unpermute(key))) {
                        return Err(format!(
                            "{perm:?} key {key:?} names a triple absent from SPO"
                        ));
                    }
                }
            }
        }
        Ok(TripleStore::Runs(RunStore {
            spo: RunIndex {
                runs: spo_runs.into_iter().map(Arc::new).collect(),
                tail: Vec::new(),
            },
            pos: RunIndex {
                runs: pos_runs.into_iter().map(Arc::new).collect(),
                tail: Vec::new(),
            },
            osp: RunIndex {
                runs: osp_runs.into_iter().map(Arc::new).collect(),
                tail: Vec::new(),
            },
            present,
            dead: KeySet::default(),
            shards: Vec::new(),
        }))
    }

    /// A contiguous scan of `perm`'s index over the inclusive key range,
    /// yielding triples in that permutation's key order.
    pub(crate) fn range(&self, perm: Perm, lo: [u32; 3], hi: [u32; 3]) -> StoreRangeIter<'_> {
        match self {
            TripleStore::BTree(s) => {
                let index = match perm {
                    Perm::Spo => &s.spo,
                    Perm::Pos => &s.pos,
                    Perm::Osp => &s.osp,
                };
                StoreRangeIter::BTree {
                    iter: index.range(lo..=hi),
                    perm,
                }
            }
            TripleStore::Runs(s) => StoreRangeIter::Runs(s.range(perm, lo, hi)),
        }
    }
}

/// The historical layout: one `BTreeSet` per permutation.
#[derive(Clone, Default)]
pub(crate) struct BTreeStore {
    spo: BTreeSet<[u32; 3]>,
    pos: BTreeSet<[u32; 3]>,
    osp: BTreeSet<[u32; 3]>,
}

impl BTreeStore {
    fn insert(&mut self, t: IdTriple) -> bool {
        let added = self.spo.insert(Perm::Spo.permute(t));
        if added {
            self.pos.insert(Perm::Pos.permute(t));
            self.osp.insert(Perm::Osp.permute(t));
        }
        added
    }

    fn remove(&mut self, t: IdTriple) -> bool {
        let removed = self.spo.remove(&Perm::Spo.permute(t));
        if removed {
            self.pos.remove(&Perm::Pos.permute(t));
            self.osp.remove(&Perm::Osp.permute(t));
        }
        removed
    }
}

/// One permutation's sorted-run stack plus its view of the mutable
/// tail.
#[derive(Clone, Default)]
struct RunIndex {
    /// Immutable sorted runs, oldest first. Sizes decrease towards the
    /// newest run by at least the tiering factor, so there are
    /// `O(log n)` of them. Each run is `Arc`-shared: once written it is
    /// never mutated (compaction replaces whole runs), so cloning a
    /// graph — which the live epoch-publication path does once per
    /// committed epoch — shares the key arrays instead of deep-copying
    /// them.
    runs: Vec<Arc<Vec<[u32; 3]>>>,
    /// The mutable tail, **kept sorted in this permutation's key
    /// order** (binary-search insertion; the tail is at most
    /// [`TAIL_MAX`] 12-byte keys, so the shift is one small memmove).
    /// Scans then take a `partition_point` subslice of it with no
    /// per-scan allocation, filtering or sorting — the tail is just one
    /// more merge source. All three permutations' tails hold the same
    /// triples, each in its own order.
    tail: Vec<[u32; 3]>,
}

impl RunIndex {
    /// The subslices of each run — and of the sorted tail — intersecting
    /// `lo..=hi`. Each source is a sorted vector, so its first and last
    /// entries are its min/max key: a run whose key range cannot
    /// intersect the scan range is skipped with two O(1) comparisons
    /// before any binary search runs. On clustered key ranges (a fresh
    /// predicate or subject landing in one recent run) this prunes most
    /// of the run stack per scan.
    fn sorted_slices(&self, lo: [u32; 3], hi: [u32; 3]) -> Vec<&[[u32; 3]]> {
        let mut out = Vec::with_capacity(self.runs.len() + 1);
        for source in self
            .runs
            .iter()
            .map(|r| r.as_slice())
            .chain(std::iter::once(self.tail.as_slice()))
        {
            match (source.first(), source.last()) {
                (Some(min), Some(max)) if *min <= hi && lo <= *max => {}
                _ => continue, // empty, or disjoint from [lo, hi]
            }
            let start = source.partition_point(|k| *k < lo);
            let end = source.partition_point(|k| *k <= hi);
            if start < end {
                out.push(&source[start..end]);
            }
        }
        out
    }

    /// Inserts a key into the sorted tail. The caller guarantees it is
    /// not already present anywhere in the store.
    fn tail_insert(&mut self, key: [u32; 3]) {
        let at = self.tail.partition_point(|k| *k < key);
        self.tail.insert(at, key);
    }

    /// Removes a key from the sorted tail; `true` iff it was there.
    fn tail_remove(&mut self, key: [u32; 3]) -> bool {
        match self.tail.binary_search(&key) {
            Ok(i) => {
                self.tail.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Appends a new sorted run and merges neighbours while the older
    /// run is within the tiering factor of the newer one.
    fn push_run_tiered(&mut self, run: Vec<[u32; 3]>) {
        if run.is_empty() {
            return;
        }
        self.runs.push(Arc::new(run));
        while self.runs.len() >= 2 {
            let newer = self.runs[self.runs.len() - 1].len();
            let older = self.runs[self.runs.len() - 2].len();
            if older > newer * TIER_FACTOR {
                break;
            }
            let b = self.runs.pop().expect("len checked");
            let a = self.runs.pop().expect("len checked");
            self.runs.push(Arc::new(merge_sorted(&a, &b, &[])));
        }
    }

    /// Folds the whole run stack into one run without the keys of
    /// `dead` (sorted in this permutation's order). The younger runs —
    /// under tiering a fraction of the oldest — are merged among
    /// themselves first, newest up, so the oldest run is read once, in
    /// the pass that also drops the dead keys. An already single run
    /// with nothing to drop is left as it is (same `Arc`).
    fn compact(&mut self, dead: &[[u32; 3]]) {
        if self.runs.len() <= 1 && dead.is_empty() {
            return;
        }
        let mut runs = std::mem::take(&mut self.runs).into_iter();
        let Some(oldest) = runs.next() else {
            return; // tombstones of shard-resident keys only
        };
        let young = runs
            .rev()
            .fold(Vec::new(), |acc, run| merge_sorted(&run, &acc, &[]));
        let merged = merge_sorted(&oldest, &young, dead);
        if !merged.is_empty() {
            self.runs.push(Arc::new(merged));
        }
    }
}

/// Whether handling `events` keys by binary search in a sorted run of
/// `len` keys — galloping's worst case, two probes per bit of the run's
/// length for every event — costs less than one comparison per key of
/// the run. [`merge_sorted`] picks its stepping by it, and
/// [`Graph::seal`](crate::Graph::seal) whether to patch the planner
/// statistics from a delta or to sweep the graph again.
pub(crate) fn gallop_pays(events: usize, len: usize) -> bool {
    events * 2 * (len.max(2).ilog2() as usize) < len
}

/// `(a ∪ b) ∖ dead` for disjoint sorted key slices `a` and `b` and a
/// sorted `dead` (which may also name keys of neither) — the store's
/// one merge routine: tiered compaction calls it with nothing dead, a
/// purge with the tombstones.
///
/// The longer input is copied in stretches; the shorter one's keys and
/// the dead ones are the *events* between the stretches, taken in key
/// order. A stretch's end is found by galloping when a few events meet
/// a long run (a live batch against the solution: `O(events · log n)`
/// comparisons plus a sequential copy), and by stepping key by key when
/// galloping's worst case, two probes per bit of the run's length for
/// every event, would cost more than the one comparison per key that
/// stepping pays (runs of like size, as tiering merges them).
fn merge_sorted(a: &[[u32; 3]], b: &[[u32; 3]], dead: &[[u32; 3]]) -> Vec<[u32; 3]> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + short.len());
    let gallop = gallop_pays(short.len() + dead.len(), long.len());
    let (mut i, mut j, mut d) = (0, 0, 0);
    loop {
        let event = match (short.get(j), dead.get(d)) {
            (Some(&s), Some(&x)) => s.min(x),
            (Some(&s), None) => s,
            (None, Some(&x)) => x,
            (None, None) => break,
        };
        if gallop {
            let rest = &long[i..];
            let mut bound = 1;
            while bound <= rest.len() && rest[bound - 1] < event {
                bound *= 2;
            }
            let from = bound / 2;
            let below = from + rest[from..bound.min(rest.len())].partition_point(|k| *k < event);
            out.extend_from_slice(&rest[..below]);
            i += below;
        } else {
            while i < long.len() && long[i] < event {
                out.push(long[i]);
                i += 1;
            }
        }
        let is_dead = dead.get(d) == Some(&event);
        if is_dead {
            d += 1;
            if long.get(i) == Some(&event) {
                i += 1;
            }
        }
        if short.get(j) == Some(&event) {
            j += 1;
            if !is_dead {
                out.push(event);
            }
        }
    }
    out.extend_from_slice(&long[i..]);
    out
}

/// One sealed shard run in either physical representation. Chosen per
/// shard at [`RunStore::seal_with`] time; scans are
/// representation-agnostic.
#[derive(Clone)]
enum SealedRun {
    /// A plain sorted key vector — binary-searched like any other run.
    Plain(Arc<Vec<[u32; 3]>>),
    /// Delta-varint columnar form — seek via sync table, then
    /// sequential decode.
    Compressed(Arc<ColumnarRun>),
}

impl SealedRun {
    fn new(keys: Vec<[u32; 3]>, compress: bool) -> SealedRun {
        if compress && !keys.is_empty() {
            SealedRun::Compressed(Arc::new(ColumnarRun::encode(&keys)))
        } else {
            SealedRun::Plain(Arc::new(keys))
        }
    }

    fn len(&self) -> usize {
        match self {
            SealedRun::Plain(v) => v.len(),
            SealedRun::Compressed(c) => c.len(),
        }
    }

    /// The first and the last key, `None` when empty.
    fn ends(&self) -> Option<([u32; 3], [u32; 3])> {
        match self {
            SealedRun::Plain(v) => Some((*v.first()?, *v.last()?)),
            SealedRun::Compressed(c) => (c.len() > 0).then(|| (c.min_key(), c.max_key())),
        }
    }

    /// The keys back as a plain sorted vector (snapshotting, resealing,
    /// tombstone purges).
    fn decode_keys(&self) -> Vec<[u32; 3]> {
        match self {
            SealedRun::Plain(v) => v.as_ref().clone(),
            SealedRun::Compressed(c) => c.decode_all(),
        }
    }

    /// A merge source over `self ∩ [lo, hi]`, if non-empty.
    fn source<'g>(&'g self, lo: [u32; 3], hi: [u32; 3]) -> Option<ScanSource<'g>> {
        match self {
            SealedRun::Plain(v) => {
                match (v.first(), v.last()) {
                    (Some(min), Some(max)) if *min <= hi && lo <= *max => {}
                    _ => return None,
                }
                let start = v.partition_point(|k| *k < lo);
                let end = v.partition_point(|k| *k <= hi);
                (start < end).then(|| ScanSource::Slice(&v[start..end]))
            }
            SealedRun::Compressed(c) => {
                ColScan::over(c, lo, hi).map(|s| ScanSource::Col(Box::new(s)))
            }
        }
    }
}

/// One subject-hash shard of a sealed store: a single run per
/// permutation holding exactly the keys whose subject hashes to this
/// shard. Shards are mutually disjoint and disjoint from the unsharded
/// runs and tail, so merged scans need no deduplication — the same
/// invariant the unsharded layout relies on.
#[derive(Clone)]
struct Shard {
    spo: SealedRun,
    pos: SealedRun,
    osp: SealedRun,
}

impl Shard {
    /// Builds a shard from its (already sorted, disjoint) SPO keys.
    fn build(spo_keys: Vec<[u32; 3]>, cfg: &SealConfig) -> Shard {
        let compress = cfg.compress && spo_keys.len() >= cfg.compress_min_keys;
        let mut pos_keys: Vec<[u32; 3]> = spo_keys
            .iter()
            .map(|&k| Perm::Pos.permute(Perm::Spo.unpermute(k)))
            .collect();
        pos_keys.sort_unstable();
        let mut osp_keys: Vec<[u32; 3]> = spo_keys
            .iter()
            .map(|&k| Perm::Osp.permute(Perm::Spo.unpermute(k)))
            .collect();
        osp_keys.sort_unstable();
        Shard {
            spo: SealedRun::new(spo_keys, compress),
            pos: SealedRun::new(pos_keys, compress),
            osp: SealedRun::new(osp_keys, compress),
        }
    }

    fn run(&self, perm: Perm) -> &SealedRun {
        match perm {
            Perm::Spo => &self.spo,
            Perm::Pos => &self.pos,
            Perm::Osp => &self.osp,
        }
    }

    /// Rebuilds the shard without the tombstoned keys, preserving its
    /// representation (compressed shards re-encode).
    fn filter_dead(self, dead: &KeySet) -> Shard {
        let compress = matches!(self.spo, SealedRun::Compressed(_));
        let mut spo_keys = self.spo.decode_keys();
        spo_keys.retain(|k| !dead.contains(*k));
        Shard {
            spo: SealedRun::new(spo_keys.clone(), compress),
            pos: {
                let mut keys: Vec<[u32; 3]> = spo_keys
                    .iter()
                    .map(|&k| Perm::Pos.permute(Perm::Spo.unpermute(k)))
                    .collect();
                keys.sort_unstable();
                SealedRun::new(keys, compress)
            },
            osp: {
                let mut keys: Vec<[u32; 3]> = spo_keys
                    .iter()
                    .map(|&k| Perm::Osp.permute(Perm::Spo.unpermute(k)))
                    .collect();
                keys.sort_unstable();
                SealedRun::new(keys, compress)
            },
        }
    }
}

/// The sorted-run layout shared by the three permutation indexes.
///
/// Point membership never touches the runs: `present` is a fast
/// open-addressing sidecar holding **every live SPO key**, so inserts
/// and `contains` probes are one multiply-hash lookup instead of a
/// binary search per run (the LSM "memtable + filter" trick, collapsed
/// into one exact set since everything is in memory anyway).
#[derive(Clone, Default)]
pub(crate) struct RunStore {
    spo: RunIndex,
    pos: RunIndex,
    osp: RunIndex,
    /// Every live SPO key (runs + tail + shards). The single
    /// point-lookup structure; also the live count.
    present: KeySet,
    /// SPO keys tombstoned inside runs or shard runs. Disjoint from
    /// `present`; every member is resident in some run; filtered during
    /// scans and physically dropped by `purge`. A live copy of a key
    /// never coexists with a tombstoned copy (revival clears the
    /// tombstone instead of re-adding the key).
    dead: KeySet,
    /// Subject-hash shards produced by [`Self::seal_with`]; empty in
    /// the classic unsharded form. Writes after a sharded seal go to
    /// the tail/runs as usual — shards are immutable until the next
    /// reseal or purge.
    shards: Vec<Shard>,
}

impl RunStore {
    fn contains(&self, key: [u32; 3]) -> bool {
        self.present.contains(key)
    }

    fn len(&self) -> usize {
        self.present.len()
    }

    fn insert(&mut self, t: IdTriple) -> bool {
        let key = spo_key(t);
        if !self.present.insert(key) {
            return false;
        }
        // A tombstoned run copy is revived in place; otherwise the key
        // goes to the tail.
        if !self.dead.remove(key) {
            self.push_tail(t);
            if self.spo.tail.len() >= TAIL_MAX {
                self.flush(Vec::new());
            }
        }
        true
    }

    fn insert_batch(&mut self, triples: impl Iterator<Item = IdTriple>, added: &mut Vec<IdTriple>) {
        let mut fresh: Vec<IdTriple> = Vec::new();
        for t in triples {
            let key = spo_key(t);
            if !self.present.insert(key) {
                continue;
            }
            added.push(t);
            if !self.dead.remove(key) {
                fresh.push(t);
            }
        }
        if self.spo.tail.len() + fresh.len() < TAIL_MAX {
            // Small batch: the tail absorbs it without a flush.
            for t in fresh {
                self.push_tail(t);
            }
        } else {
            // Merge-batch: sort the batch together with the current tail
            // into one fresh run per permutation — one sort instead of
            // `fresh.len()` pushes and repeated threshold flushes.
            self.flush(fresh);
        }
    }

    fn push_tail(&mut self, t: IdTriple) {
        self.spo.tail_insert(Perm::Spo.permute(t));
        self.pos.tail_insert(Perm::Pos.permute(t));
        self.osp.tail_insert(Perm::Osp.permute(t));
    }

    /// Drains the (already sorted) tail plus `extra` into one fresh
    /// sorted run per permutation, then lets size-tiered merging
    /// restore the run-size ladder.
    fn flush(&mut self, extra: Vec<IdTriple>) {
        for (perm, index) in [
            (Perm::Spo, &mut self.spo),
            (Perm::Pos, &mut self.pos),
            (Perm::Osp, &mut self.osp),
        ] {
            let mut run = std::mem::take(&mut index.tail);
            run.extend(extra.iter().map(|&t| perm.permute(t)));
            // pdqsort exploits the sorted tail prefix; only the batch
            // part is genuinely unsorted.
            run.sort_unstable();
            index.push_run_tiered(run);
        }
    }

    fn remove(&mut self, t: IdTriple) -> bool {
        let key = spo_key(t);
        if !self.present.remove(key) {
            return false;
        }
        // Tail entries are removed physically (the tail is small and
        // removals rare); each permutation finds the key at its own
        // sorted position. Run-resident keys are tombstoned.
        if self.spo.tail_remove(key) {
            self.pos.tail_remove(Perm::Pos.permute(t));
            self.osp.tail_remove(Perm::Osp.permute(t));
        } else {
            self.dead.insert(key);
            self.maybe_purge();
        }
        true
    }

    /// Physically drops tombstoned keys once they outnumber half the
    /// run-resident keys (and exceed an absolute floor), by merging each
    /// index's whole run stack into one purged run and rebuilding any
    /// shard that still holds dead keys.
    fn maybe_purge(&mut self) {
        let run_keys: usize = self.spo.runs.iter().map(|r| r.len()).sum::<usize>()
            + self.shards.iter().map(|sh| sh.spo.len()).sum::<usize>();
        if self.dead.len() < PURGE_MIN || self.dead.len() * 2 < run_keys {
            return;
        }
        self.purge_dead();
    }

    /// Folds each index's run stack into one run without the tombstoned
    /// keys — one merge pass per permutation over the tombstones sorted
    /// in that permutation's order, see [`merge_sorted`] — rebuilds any
    /// shard that holds a dead key, then clears the tombstone set.
    /// Shards keep their partitioning and representation (dropping keys
    /// never moves one between shards). A no-op on a single clean run.
    fn purge_dead(&mut self) {
        let dead_spo: Vec<[u32; 3]> = self.dead.iter().collect();
        for (perm, index) in [
            (Perm::Spo, &mut self.spo),
            (Perm::Pos, &mut self.pos),
            (Perm::Osp, &mut self.osp),
        ] {
            let mut dead: Vec<[u32; 3]> = dead_spo
                .iter()
                .map(|&k| perm.permute(Perm::Spo.unpermute(k)))
                .collect();
            dead.sort_unstable();
            index.compact(&dead);
        }
        if dead_spo.is_empty() {
            return;
        }
        if self
            .shards
            .iter()
            .any(|sh| sh.spo.decode_keys().iter().any(|k| self.dead.contains(*k)))
        {
            let shards = std::mem::take(&mut self.shards);
            self.shards = shards
                .into_iter()
                .map(|sh| sh.filter_dead(&self.dead))
                .collect();
        }
        self.dead = KeySet::default();
    }

    /// Flushes the tail, then folds the runs and drops every tombstone
    /// physically, leaving at most one immutable run per permutation
    /// beside the shards (see [`TripleStore::seal`]). Existing shards
    /// are kept — only [`Self::seal_with`] repartitions.
    fn seal(&mut self) {
        if !self.spo.tail.is_empty() {
            self.flush(Vec::new());
        }
        self.purge_dead();
    }

    /// Seals, then repartitions every live key into the layout `cfg`
    /// asks for: `effective_shards()` subject-hash shards (optionally
    /// compressed), or the classic unsharded run stacks for `shards <=
    /// 1` without compression. The logical key set — and therefore
    /// `present` and every scan result — is unchanged.
    fn seal_with(&mut self, cfg: &SealConfig) {
        self.seal();
        let shards = cfg.effective_shards();
        if shards <= 1 && !cfg.compress && self.shards.is_empty() {
            return; // already in the classic sealed form
        }
        // Gather every live SPO key (runs are dead-free after seal()).
        let total: usize = self.spo.runs.iter().map(|r| r.len()).sum::<usize>()
            + self.shards.iter().map(|sh| sh.spo.len()).sum::<usize>();
        let mut all: Vec<[u32; 3]> = Vec::with_capacity(total);
        for run in self.spo.runs.drain(..) {
            all.extend(run.iter().copied());
        }
        for shard in self.shards.drain(..) {
            all.extend(shard.spo.decode_keys());
        }
        self.pos.runs.clear();
        self.osp.runs.clear();
        all.sort_unstable();
        if shards <= 1 && !cfg.compress {
            // Fold back to one plain run per permutation.
            if !all.is_empty() {
                let mut pos_keys: Vec<[u32; 3]> = all
                    .iter()
                    .map(|&k| Perm::Pos.permute(Perm::Spo.unpermute(k)))
                    .collect();
                pos_keys.sort_unstable();
                let mut osp_keys: Vec<[u32; 3]> = all
                    .iter()
                    .map(|&k| Perm::Osp.permute(Perm::Spo.unpermute(k)))
                    .collect();
                osp_keys.sort_unstable();
                self.spo.runs.push(Arc::new(all));
                self.pos.runs.push(Arc::new(pos_keys));
                self.osp.runs.push(Arc::new(osp_keys));
            }
            return;
        }
        // `all` is sorted, so each part inherits sorted order.
        let mut parts: Vec<Vec<[u32; 3]>> = vec![Vec::new(); shards];
        for &k in &all {
            parts[shard_of(k[0], shards)].push(k);
        }
        self.shards = parts
            .into_iter()
            .map(|spo_keys| Shard::build(spo_keys, cfg))
            .collect();
    }

    fn range(&self, perm: Perm, lo: [u32; 3], hi: [u32; 3]) -> RunRangeIter<'_> {
        let index = match perm {
            Perm::Spo => &self.spo,
            Perm::Pos => &self.pos,
            Perm::Osp => &self.osp,
        };
        let mut sources: Vec<ScanSource<'_>> = index
            .sorted_slices(lo, hi)
            .into_iter()
            .map(ScanSource::Slice)
            .collect();
        if !self.shards.is_empty() {
            // Shard pruning: when the scan fixes the subject, only the
            // subject's own shard can hold matches. The subject sits at
            // key position 0 for SPO, 1 for OSP ([o, s, p]) and 2 for
            // POS ([p, o, s]).
            let only = match perm {
                Perm::Spo if lo[0] == hi[0] => Some(shard_of(lo[0], self.shards.len())),
                Perm::Osp if lo[0] == hi[0] && lo[1] == hi[1] => {
                    Some(shard_of(lo[1], self.shards.len()))
                }
                Perm::Pos if lo == hi => Some(shard_of(lo[2], self.shards.len())),
                _ => None,
            };
            match only {
                Some(i) => sources.extend(self.shards[i].run(perm).source(lo, hi)),
                None => sources.extend(
                    self.shards
                        .iter()
                        .filter_map(|sh| sh.run(perm).source(lo, hi)),
                ),
            }
        }
        RunRangeIter::new(
            sources,
            hi,
            perm,
            (self.dead.len() > 0).then_some(&self.dead),
        )
    }
}

/// A minimal open-addressing hash set for `[u32; 3]` keys with a cheap
/// multiply-xor hash — the point-lookup sidecar of [`RunStore`]. The
/// std `HashSet` pays SipHash on every probe, which dominates the
/// insert path of a triple store whose keys are 12 bytes; this set is
/// the same trick as `rps_tgd`'s open-addressing `RowSet`.
///
/// Linear probing, power-of-two capacity, tombstone deletion, rehash at
/// 7/8 occupancy (rehashing also drops tombstones).
#[derive(Clone, Default)]
struct KeySet {
    /// 0 = empty, 1 = full, 2 = deleted.
    ctrl: Vec<u8>,
    keys: Vec<[u32; 3]>,
    /// Full slots.
    len: usize,
    /// Full + deleted slots (drives the rehash threshold).
    occupied: usize,
}

const CTRL_EMPTY: u8 = 0;
const CTRL_FULL: u8 = 1;
const CTRL_DELETED: u8 = 2;

fn key_hash(key: [u32; 3]) -> u64 {
    let mut h = (key[0] as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= (key[1] as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    h ^= (key[2] as u64).wrapping_mul(0x1656_67B1_9E37_79F9);
    h ^= h >> 29;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 32)
}

impl KeySet {
    fn len(&self) -> usize {
        self.len
    }

    /// Index of the slot holding `key`, if present.
    fn find(&self, key: [u32; 3]) -> Option<usize> {
        if self.ctrl.is_empty() {
            return None;
        }
        let mask = self.ctrl.len() - 1;
        let mut i = key_hash(key) as usize & mask;
        loop {
            match self.ctrl[i] {
                CTRL_EMPTY => return None,
                CTRL_FULL if self.keys[i] == key => return Some(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn contains(&self, key: [u32; 3]) -> bool {
        self.find(key).is_some()
    }

    /// The keys, in slot order.
    fn iter(&self) -> impl Iterator<Item = [u32; 3]> + '_ {
        self.ctrl
            .iter()
            .zip(&self.keys)
            .filter(|(c, _)| **c == CTRL_FULL)
            .map(|(_, k)| *k)
    }

    /// Adds `key`; `true` iff it was not present.
    fn insert(&mut self, key: [u32; 3]) -> bool {
        if self.ctrl.is_empty() || (self.occupied + 1) * 8 > self.ctrl.len() * 7 {
            self.grow();
        }
        let mask = self.ctrl.len() - 1;
        let mut i = key_hash(key) as usize & mask;
        let mut insert_at = None;
        loop {
            match self.ctrl[i] {
                CTRL_EMPTY => {
                    // Reuse the first tombstone passed, if any.
                    let slot = insert_at.unwrap_or(i);
                    if self.ctrl[slot] == CTRL_EMPTY {
                        self.occupied += 1;
                    }
                    self.ctrl[slot] = CTRL_FULL;
                    self.keys[slot] = key;
                    self.len += 1;
                    return true;
                }
                CTRL_FULL if self.keys[i] == key => return false,
                CTRL_DELETED => {
                    insert_at.get_or_insert(i);
                    i = (i + 1) & mask;
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Removes `key`; `true` iff it was present.
    fn remove(&mut self, key: [u32; 3]) -> bool {
        match self.find(key) {
            Some(i) => {
                self.ctrl[i] = CTRL_DELETED;
                self.len -= 1;
                true
            }
            None => false,
        }
    }

    fn grow(&mut self) {
        let new_cap = (self.ctrl.len() * 2).max(16);
        let old_ctrl = std::mem::replace(&mut self.ctrl, vec![CTRL_EMPTY; new_cap]);
        let old_keys = std::mem::replace(&mut self.keys, vec![[0; 3]; new_cap]);
        self.len = 0;
        self.occupied = 0;
        let mask = new_cap - 1;
        for (c, k) in old_ctrl.into_iter().zip(old_keys) {
            if c == CTRL_FULL {
                let mut i = key_hash(k) as usize & mask;
                while self.ctrl[i] == CTRL_FULL {
                    i = (i + 1) & mask;
                }
                self.ctrl[i] = CTRL_FULL;
                self.keys[i] = k;
                self.len += 1;
                self.occupied += 1;
            }
        }
    }
}

/// One source of a k-way merged range scan: a pre-bounded plain slice
/// (run or tail subslice) or a bounded cursor into a compressed shard
/// run.
pub(crate) enum ScanSource<'g> {
    /// A `[lo, hi]`-bounded subslice of a plain sorted run or tail.
    Slice(&'g [[u32; 3]]),
    /// A seeked cursor into a delta-varint compressed run (bounded by
    /// the iterator's `hi` at peek time). Boxed: the scan carries an
    /// inline block-decode buffer, and leaving it unboxed would inflate
    /// *every* `ScanSource` — and thus every plain point probe's source
    /// vector — to the buffer's size.
    Col(Box<ColScan<'g>>),
}

impl ScanSource<'_> {
    /// The source's current key, if it has one within the scan range.
    fn peek(&self, hi: [u32; 3]) -> Option<[u32; 3]> {
        match self {
            ScanSource::Slice(s) => s.first().copied(),
            ScanSource::Col(c) => c.peek_bounded(hi),
        }
    }

    fn advance(&mut self) {
        match self {
            ScanSource::Slice(s) => *s = &s[1..],
            ScanSource::Col(c) => c.advance(),
        }
    }
}

/// A loser tree (tournament tree) over the merge sources: each `next`
/// replays one leaf-to-root path (`O(log k)` comparisons) instead of
/// scanning all `k` heads. Exhausted sources compare as +∞ and simply
/// sink to the bottom — no removal needed, which is what lets the tree
/// keep stable source indices.
struct LoserTree {
    /// `node[0]` is the overall winner; `node[1..cap]` hold the loser
    /// of each internal match. Leaves are implicit: leaf `i` is source
    /// `i` (sources `>= k` are permanently exhausted padding).
    node: Vec<usize>,
    cap: usize,
}

/// Exhausted sources order after every real key.
fn ranked(key: Option<[u32; 3]>) -> (u8, [u32; 3]) {
    match key {
        Some(k) => (0, k),
        None => (1, [0; 3]),
    }
}

impl LoserTree {
    fn new(sources: &[ScanSource<'_>], hi: [u32; 3]) -> LoserTree {
        let cap = sources.len().next_power_of_two().max(2);
        let key = |s: usize| ranked(sources.get(s).and_then(|src| src.peek(hi)));
        let mut winner = vec![0usize; cap * 2];
        for (i, w) in winner.iter_mut().enumerate().skip(cap) {
            *w = i - cap;
        }
        let mut node = vec![0usize; cap];
        for i in (1..cap).rev() {
            let (a, b) = (winner[2 * i], winner[2 * i + 1]);
            let (w, l) = if key(a) <= key(b) { (a, b) } else { (b, a) };
            winner[i] = w;
            node[i] = l;
        }
        node[0] = winner[1];
        LoserTree { node, cap }
    }

    /// The source holding the smallest current key.
    fn winner(&self) -> usize {
        self.node[0]
    }

    /// After the winner's source advanced, replays its leaf-to-root
    /// path to find the new overall winner.
    fn replay(&mut self, sources: &[ScanSource<'_>], hi: [u32; 3]) {
        let key = |s: usize| ranked(sources.get(s).and_then(|src| src.peek(hi)));
        let mut s = self.node[0];
        let mut i = (self.cap + s) / 2;
        while i >= 1 {
            if key(self.node[i]) < key(s) {
                std::mem::swap(&mut s, &mut self.node[i]);
            }
            i /= 2;
        }
        self.node[0] = s;
    }
}

/// Iterator over one permutation's key range: a k-way merge of the
/// intersecting run slices, the sorted tail's subslice and any shard
/// runs (plain or compressed), yielding triples in the permutation's
/// key order with tombstones filtered. Narrow merges use a linear min
/// over the heads; merges of [`LOSER_TREE_MIN`] or more sources use a
/// loser tree.
pub(crate) struct RunRangeIter<'g> {
    sources: Vec<ScanSource<'g>>,
    hi: [u32; 3],
    perm: Perm,
    /// Tombstoned SPO keys, present only when non-empty.
    dead: Option<&'g KeySet>,
    /// Engaged once and for all at construction (sources only ever
    /// drain, so the width never grows mid-scan).
    loser: Option<LoserTree>,
    /// Merge width at construction, for the scan-shape counters.
    width: usize,
}

impl<'g> RunRangeIter<'g> {
    fn new(
        sources: Vec<ScanSource<'g>>,
        hi: [u32; 3],
        perm: Perm,
        dead: Option<&'g KeySet>,
    ) -> RunRangeIter<'g> {
        let width = sources.len();
        let loser = (width >= LOSER_TREE_MIN).then(|| LoserTree::new(&sources, hi));
        RunRangeIter {
            sources,
            hi,
            perm,
            dead,
            loser,
            width,
        }
    }

    /// Number of sources this scan merges (runs + tail + shard runs).
    pub(crate) fn merge_width(&self) -> usize {
        self.width
    }

    /// Whether the scan is wide enough to run on the loser tree.
    pub(crate) fn uses_loser_tree(&self) -> bool {
        self.loser.is_some()
    }

    /// The next key in merge order, or `None` when every source is
    /// exhausted.
    fn next_key(&mut self) -> Option<[u32; 3]> {
        if let Some(tree) = &mut self.loser {
            let w = tree.winner();
            let key = self.sources[w].peek(self.hi)?;
            self.sources[w].advance();
            tree.replay(&self.sources, self.hi);
            return Some(key);
        }
        // Fast path: one remaining source — no merge, just step it (the
        // common shape once tiered merging or sharded sealing has
        // concentrated the data, or after shard pruning).
        if self.sources.len() == 1 {
            match &mut self.sources[0] {
                ScanSource::Slice(s) => {
                    let (&key, rest) = s.split_first()?;
                    *s = rest;
                    return Some(key);
                }
                ScanSource::Col(c) => {
                    let key = c.peek_bounded(self.hi)?;
                    c.advance();
                    return Some(key);
                }
            }
        }
        // Pick the smallest head. The key sets are disjoint, so no
        // tie-breaking or deduplication is needed; exhausted heads are
        // dropped, so the linear min runs over live sources only.
        let mut best: Option<(usize, [u32; 3])> = None; // (source, key)
        let mut i = 0;
        while i < self.sources.len() {
            match self.sources[i].peek(self.hi) {
                None => {
                    // Swaps the (as yet unexamined) last source into
                    // place `i`, so recorded best indices stay valid.
                    self.sources.swap_remove(i);
                }
                Some(k) => {
                    if best.is_none_or(|(_, bk)| k < bk) {
                        best = Some((i, k));
                    }
                    i += 1;
                }
            }
        }
        let (i, key) = best?;
        self.sources[i].advance();
        Some(key)
    }
}

impl Iterator for RunRangeIter<'_> {
    type Item = IdTriple;

    fn next(&mut self) -> Option<IdTriple> {
        loop {
            let key = self.next_key()?;
            let t = self.perm.unpermute(key);
            if let Some(dead) = self.dead {
                // Tail keys are never tombstoned, so this probe is only
                // ever a (cheap) no-op for them.
                if dead.contains(spo_key(t)) {
                    continue;
                }
            }
            return Some(t);
        }
    }
}

/// Iterator over a permutation range of either backend.
pub(crate) enum StoreRangeIter<'g> {
    BTree {
        iter: std::collections::btree_set::Range<'g, [u32; 3]>,
        perm: Perm,
    },
    Runs(RunRangeIter<'g>),
}

impl StoreRangeIter<'_> {
    /// How many sorted sources this scan merges (1 for the B-tree
    /// backend, which is a single ordered structure).
    pub(crate) fn merge_width(&self) -> usize {
        match self {
            StoreRangeIter::BTree { .. } => 1,
            StoreRangeIter::Runs(it) => it.merge_width(),
        }
    }

    /// Whether the scan engaged the loser-tree merge.
    pub(crate) fn uses_loser_tree(&self) -> bool {
        match self {
            StoreRangeIter::BTree { .. } => false,
            StoreRangeIter::Runs(it) => it.uses_loser_tree(),
        }
    }
}

impl Iterator for StoreRangeIter<'_> {
    type Item = IdTriple;

    fn next(&mut self) -> Option<IdTriple> {
        match self {
            StoreRangeIter::BTree { iter, perm } => iter.next().map(|&k| perm.unpermute(k)),
            StoreRangeIter::Runs(it) => it.next(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn t(s: u32, p: u32, o: u32) -> IdTriple {
        IdTriple::new(TermId(s), TermId(p), TermId(o))
    }

    fn collect_range(store: &TripleStore, perm: Perm, lo: [u32; 3], hi: [u32; 3]) -> Vec<IdTriple> {
        store.range(perm, lo, hi).collect()
    }

    /// Drives both backends through the same operation sequence and
    /// asserts every observable agrees.
    fn assert_backends_agree(ops: &[(bool, IdTriple)]) {
        let mut bt = TripleStore::new(StorageBackend::BTree);
        let mut rs = TripleStore::new(StorageBackend::SortedRuns);
        for &(is_insert, triple) in ops {
            if is_insert {
                assert_eq!(bt.insert(triple), rs.insert(triple), "insert {triple:?}");
            } else {
                assert_eq!(bt.remove(triple), rs.remove(triple), "remove {triple:?}");
            }
            assert_eq!(bt.len(), rs.len());
        }
        for perm in [Perm::Spo, Perm::Pos, Perm::Osp] {
            let full_bt = collect_range(&bt, perm, [0; 3], [u32::MAX; 3]);
            let full_rs = collect_range(&rs, perm, [0; 3], [u32::MAX; 3]);
            assert_eq!(full_bt, full_rs, "{perm:?} full scans agree, in order");
        }
        for &(_, triple) in ops {
            assert_eq!(bt.contains(triple), rs.contains(triple));
        }
    }

    #[test]
    fn backends_agree_on_seeded_mixed_workload() {
        // Seeded SplitMix64 stream; enough volume to force several
        // flushes and tiered merges (TAIL_MAX * ~8 inserts).
        let mut state: u64 = 0xDEAD_BEEF;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut ops = Vec::new();
        for _ in 0..(TAIL_MAX * 8) {
            let r = next();
            let triple = t(
                (r % 37) as u32,
                ((r >> 8) % 11) as u32,
                ((r >> 16) % 53) as u32,
            );
            // ~1 in 5 ops is a removal (of a likely-present key).
            ops.push((r % 5 != 0, triple));
        }
        assert_backends_agree(&ops);
    }

    #[test]
    fn tiered_merge_keeps_run_count_logarithmic() {
        let mut rs = TripleStore::new(StorageBackend::SortedRuns);
        for i in 0..(TAIL_MAX as u32 * 64) {
            rs.insert(t(i, i % 7, i % 13));
        }
        let stats = rs.stats();
        assert!(
            stats.runs <= 16,
            "expected O(log n) runs, got {}",
            stats.runs
        );
        assert_eq!(rs.len(), TAIL_MAX * 64);
    }

    #[test]
    fn revival_of_tombstoned_key() {
        let mut rs = TripleStore::new(StorageBackend::SortedRuns);
        let probe = t(1, 2, 3);
        rs.insert(probe);
        // Fill the tail exactly to the flush threshold, pushing the
        // probe into a run.
        for i in 0..(TAIL_MAX as u32 - 1) {
            rs.insert(t(1000 + i, 1, 1));
        }
        assert_eq!(rs.stats().tail, 0, "flush ran at the threshold");
        assert!(rs.remove(probe));
        assert!(!rs.contains(probe));
        assert!(rs.insert(probe), "re-insert of a tombstoned key adds it");
        assert!(rs.contains(probe));
        assert!(!rs.insert(probe), "now a duplicate again");
    }

    #[test]
    fn purge_drops_tombstones_physically() {
        let mut rs = TripleStore::new(StorageBackend::SortedRuns);
        let n = (PURGE_MIN * 3) as u32;
        for i in 0..n {
            rs.insert(t(i, 0, 0));
        }
        // Remove two thirds — crosses both purge thresholds along the
        // way (a sub-threshold remainder of fresh tombstones may be
        // left, but the purged bulk must be physically gone).
        let removed = n * 2 / 3;
        for i in 0..removed {
            assert!(rs.remove(t(i, 0, 0)));
        }
        let stats = rs.stats();
        assert!(
            stats.tombstones < PURGE_MIN,
            "bulk of the tombstones purged, {} left",
            stats.tombstones
        );
        assert!(stats.run_keys < n as usize, "purge dropped keys physically");
        assert_eq!(rs.len(), (n - removed) as usize);
        let all = collect_range(&rs, Perm::Spo, [0; 3], [u32::MAX; 3]);
        assert_eq!(all.len(), (n - removed) as usize);
        assert!(all.iter().all(|x| x.s.0 >= removed));
    }

    #[test]
    fn min_max_pruning_preserves_scan_results() {
        // Several runs with disjoint, clustered subject ranges: scans
        // over one cluster must skip the others' runs entirely (min/max
        // pruning) while returning exactly the B-tree results.
        let mut rs = TripleStore::new(StorageBackend::SortedRuns);
        let mut bt = TripleStore::new(StorageBackend::BTree);
        for cluster in 0..4u32 {
            let base = cluster * 100_000;
            for i in 0..(TAIL_MAX as u32 * 2) {
                let triple = t(base + i, i % 5, i % 17);
                rs.insert(triple);
                bt.insert(triple);
            }
        }
        assert!(rs.stats().runs >= 2, "needs several runs to prune");
        for cluster in 0..4u32 {
            let base = cluster * 100_000;
            let lo = [base, 0, 0];
            let hi = [base + TAIL_MAX as u32 * 2, u32::MAX, u32::MAX];
            let runs: Vec<IdTriple> = collect_range(&rs, Perm::Spo, lo, hi);
            let tree: Vec<IdTriple> = collect_range(&bt, Perm::Spo, lo, hi);
            assert_eq!(runs, tree, "cluster {cluster}");
            assert_eq!(runs.len(), TAIL_MAX * 2);
        }
        // A range beyond every run's max matches nothing.
        assert!(collect_range(&rs, Perm::Spo, [9_000_000, 0, 0], [u32::MAX; 3]).is_empty());
    }

    #[test]
    fn seal_flushes_tail_and_purges_tombstones() {
        let mut rs = TripleStore::new(StorageBackend::SortedRuns);
        let mut bt = TripleStore::new(StorageBackend::BTree);
        for i in 0..(TAIL_MAX as u32 * 3 + 17) {
            rs.insert(t(i, i % 5, i % 9));
            bt.insert(t(i, i % 5, i % 9));
        }
        // Tombstone some run-resident keys and leave a partial tail.
        for i in 0..24 {
            assert!(rs.remove(t(i, i % 5, i % 9)));
            assert!(bt.remove(t(i, i % 5, i % 9)));
        }
        assert!(!rs.is_sealed());
        rs.seal();
        assert!(rs.is_sealed());
        let stats = rs.stats();
        assert_eq!(stats.tail, 0);
        assert_eq!(stats.tombstones, 0);
        assert_eq!(rs.len(), bt.len());
        for perm in [Perm::Spo, Perm::Pos, Perm::Osp] {
            assert_eq!(
                collect_range(&rs, perm, [0; 3], [u32::MAX; 3]),
                collect_range(&bt, perm, [0; 3], [u32::MAX; 3]),
                "{perm:?} scans agree after sealing"
            );
        }
        // A sealed store still accepts writes (a fresh tail begins).
        assert!(rs.insert(t(9_999, 0, 0)));
        assert!(!rs.is_sealed());
        assert!(rs.contains(t(9_999, 0, 0)));
    }

    #[test]
    fn batch_insert_dedups_and_reports_in_order() {
        let mut rs = TripleStore::new(StorageBackend::SortedRuns);
        rs.insert(t(5, 5, 5));
        let mut added = Vec::new();
        rs.insert_batch(
            vec![t(1, 1, 1), t(5, 5, 5), t(2, 2, 2), t(1, 1, 1)].into_iter(),
            &mut added,
        );
        assert_eq!(added, vec![t(1, 1, 1), t(2, 2, 2)]);
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn big_batch_becomes_a_run() {
        let mut rs = TripleStore::new(StorageBackend::SortedRuns);
        let mut added = Vec::new();
        let batch: Vec<IdTriple> = (0..TAIL_MAX as u32 * 4).map(|i| t(i, 1, 2)).collect();
        rs.insert_batch(batch.into_iter(), &mut added);
        assert_eq!(added.len(), TAIL_MAX * 4);
        let stats = rs.stats();
        assert_eq!(stats.tail, 0, "batch flushed straight into a run");
        assert!(stats.runs >= 1);
    }

    /// A seeded SplitMix64 stream shared by the sharding proptests.
    pub(crate) fn splitmix(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Asserts every observable of `store` matches the B-tree oracle
    /// `bt`: length, per-key membership, and full + bounded scans in
    /// all three permutations.
    fn assert_matches_oracle(store: &TripleStore, bt: &TripleStore, what: &str) {
        assert_eq!(store.len(), bt.len(), "{what}: len");
        for perm in [Perm::Spo, Perm::Pos, Perm::Osp] {
            assert_eq!(
                collect_range(store, perm, [0; 3], [u32::MAX; 3]),
                collect_range(bt, perm, [0; 3], [u32::MAX; 3]),
                "{what}: {perm:?} full scan"
            );
        }
        // Bounded probes: per-subject SPO ranges exercise shard pruning.
        for s in 0..40u32 {
            assert_eq!(
                collect_range(store, Perm::Spo, [s, 0, 0], [s, u32::MAX, u32::MAX]),
                collect_range(bt, Perm::Spo, [s, 0, 0], [s, u32::MAX, u32::MAX]),
                "{what}: subject {s} range"
            );
        }
    }

    /// Sharded ≡ unsharded ≡ BTree, and compressed ≡ plain, under a
    /// mixed insert/remove/batch/seal/reseal workload — the seeded
    /// proptest the sharded seal path is pinned by.
    #[test]
    fn sharded_and_compressed_seals_agree_with_oracle() {
        for seed in [1u64, 0xBEEF, 0x5EED_5EED] {
            let mut next = splitmix(seed);
            let mut bt = TripleStore::new(StorageBackend::BTree);
            let mut rs = TripleStore::new(StorageBackend::SortedRuns);
            let configs = [
                SealConfig {
                    shards: 4,
                    ..SealConfig::default()
                },
                SealConfig {
                    shards: 4,
                    compress: true,
                    compress_min_keys: 8,
                },
                SealConfig {
                    shards: 2,
                    compress: true,
                    compress_min_keys: 1,
                },
                SealConfig::default(), // folds back to unsharded
                SealConfig {
                    shards: 7,
                    ..SealConfig::default()
                },
            ];
            for (round, cfg) in configs.iter().enumerate() {
                // A burst of mixed single ops...
                for _ in 0..TAIL_MAX * 3 {
                    let r = next();
                    let triple = t(
                        (r % 57) as u32,
                        ((r >> 8) % 7) as u32,
                        ((r >> 16) % 43) as u32,
                    );
                    if r.is_multiple_of(4) {
                        assert_eq!(
                            bt.remove(triple),
                            rs.remove(triple),
                            "seed {seed} round {round} remove {triple:?}"
                        );
                    } else {
                        assert_eq!(
                            bt.insert(triple),
                            rs.insert(triple),
                            "seed {seed} round {round} insert {triple:?}"
                        );
                    }
                }
                // ...then a batch insert...
                let batch: Vec<IdTriple> = (0..TAIL_MAX as u32)
                    .map(|_| {
                        let r = next();
                        t(
                            (r % 91) as u32,
                            ((r >> 8) % 5) as u32,
                            ((r >> 16) % 37) as u32,
                        )
                    })
                    .collect();
                let mut added_bt = Vec::new();
                let mut added_rs = Vec::new();
                bt.insert_batch(batch.iter().copied(), &mut added_bt);
                rs.insert_batch(batch.into_iter(), &mut added_rs);
                assert_eq!(added_bt, added_rs, "seed {seed} round {round} batch");
                // ...then a (re)seal under this round's config.
                rs.seal_with(cfg);
                assert!(rs.is_sealed(), "seed {seed} round {round}");
                let stats = rs.stats();
                if cfg.effective_shards() > 1 || cfg.compress {
                    assert_eq!(stats.shards, cfg.effective_shards());
                    assert_eq!(stats.run_keys, 0, "all keys live in shards");
                    assert_eq!(stats.shard_keys, rs.len());
                } else {
                    assert_eq!(stats.shards, 0, "folded back to unsharded");
                    assert_eq!(stats.run_keys, rs.len());
                }
                assert_matches_oracle(&rs, &bt, &format!("seed {seed} round {round}"));
            }
        }
    }

    /// Removals against shard-resident keys must not resurrect: the
    /// tombstone set is only cleared after shard runs are physically
    /// filtered.
    #[test]
    fn tombstones_of_shard_resident_keys_purge_physically() {
        let mut rs = TripleStore::new(StorageBackend::SortedRuns);
        let mut bt = TripleStore::new(StorageBackend::BTree);
        let n = (PURGE_MIN * 3) as u32;
        for i in 0..n {
            rs.insert(t(i, i % 3, i % 11));
            bt.insert(t(i, i % 3, i % 11));
        }
        rs.seal_with(&SealConfig {
            shards: 4,
            compress: true,
            compress_min_keys: 8,
        });
        // Remove two thirds of the (now shard-resident) keys; the purge
        // threshold trips along the way and must rebuild the shards.
        let removed = n * 2 / 3;
        for i in 0..removed {
            assert!(rs.remove(t(i, i % 3, i % 11)));
            assert!(bt.remove(t(i, i % 3, i % 11)));
        }
        assert!(
            rs.stats().tombstones < PURGE_MIN,
            "bulk of the tombstones purged"
        );
        assert_matches_oracle(&rs, &bt, "after shard purge");
        // Re-insert a purged key: it must come back exactly once.
        assert!(rs.insert(t(0, 0, 0)));
        assert!(!rs.insert(t(0, 0, 0)));
        assert!(bt.insert(t(0, 0, 0)));
        assert_matches_oracle(&rs, &bt, "after revival");
    }

    /// Both stores take the same write and agree on its outcome.
    fn insert_both(rs: &mut TripleStore, bt: &mut TripleStore, triple: IdTriple) -> bool {
        let added = bt.insert(triple);
        assert_eq!(rs.insert(triple), added, "insert {triple:?}");
        added
    }

    fn remove_both(rs: &mut TripleStore, bt: &mut TripleStore, triple: IdTriple) {
        assert_eq!(rs.remove(triple), bt.remove(triple), "remove {triple:?}");
    }

    /// A store in the shape a live solution has when its batch is
    /// published, mirrored in the B-tree oracle: one run of 20 000+
    /// keys, `1 + seed % 3` small runs stacked on it and a partial tail.
    /// The small keys fall before, between and after the big run's.
    struct BigRunFixture {
        rs: TripleStore,
        bt: TripleStore,
        /// The big run's keys, in insertion order.
        big: Vec<IdTriple>,
        /// Keys that were flushed into the small runs.
        flushed: Vec<IdTriple>,
        /// The first and the last key of the big run in each
        /// permutation's order.
        edges: Vec<IdTriple>,
    }

    fn big_run_fixture(seed: u64, next: &mut impl FnMut() -> u64) -> BigRunFixture {
        let mut draw = |base: u32, subjects: u64| {
            let r = next();
            t(
                base + (r % subjects) as u32,
                ((r >> 16) % 7) as u32,
                ((r >> 32) % 50) as u32,
            )
        };
        let mut rs = TripleStore::new(StorageBackend::SortedRuns);
        let mut bt = TripleStore::new(StorageBackend::BTree);
        let bulk: Vec<IdTriple> = (0..24_000).map(|_| draw(100, 4000)).collect();
        let mut big = Vec::new();
        rs.insert_batch(bulk.iter().copied(), &mut big);
        bt.insert_batch(bulk.into_iter(), &mut Vec::new());
        rs.seal();
        assert!(big.len() >= 20_000 && rs.stats().runs == 1, "one big run");
        let edges: Vec<IdTriple> = [Perm::Spo, Perm::Pos, Perm::Osp]
            .into_iter()
            .flat_map(|perm| {
                let all = collect_range(&bt, perm, [0; 3], [u32::MAX; 3]);
                [all[0], all[all.len() - 1]]
            })
            .collect();
        // Batches more than the tiering factor apart stay separate runs.
        let smalls = 1 + (seed % 3) as usize;
        let mut flushed = Vec::new();
        for batch in [3000, 640].into_iter().skip(3 - smalls) {
            let keys: Vec<IdTriple> = (0..batch).map(|_| draw(0, 4200)).collect();
            rs.insert_batch(keys.iter().copied(), &mut flushed);
            bt.insert_batch(keys.into_iter(), &mut Vec::new());
        }
        // Single inserts: the first TAIL_MAX flush into the newest small
        // run, the rest stay in the tail.
        let mut singles = 0;
        while singles < TAIL_MAX + 40 {
            let triple = draw(0, 4200);
            if insert_both(&mut rs, &mut bt, triple) {
                if singles < TAIL_MAX {
                    flushed.push(triple);
                }
                singles += 1;
            }
        }
        let stats = rs.stats();
        assert_eq!((stats.runs, stats.tail), (1 + smalls, 40), "seed {seed}");
        BigRunFixture {
            rs,
            bt,
            big,
            flushed,
            edges,
        }
    }

    /// Tombstones where the merge kernel has to get them right: (i) the
    /// big run's interior, (ii) its first and last key in every
    /// permutation, (iii) keys added, flushed into a small run and
    /// removed in the same window, (iv) a key removed and re-inserted,
    /// which must survive. Returns every key touched.
    fn tombstone_sweep(f: &mut BigRunFixture, next: &mut impl FnMut() -> u64) -> Vec<IdTriple> {
        let mut touched = Vec::new();
        for _ in 0..150 {
            touched.push(f.big[next() as usize % f.big.len()]);
        }
        touched.extend(f.edges.iter().copied());
        for _ in 0..20 {
            touched.push(f.flushed[next() as usize % f.flushed.len()]);
        }
        for &triple in &touched {
            // A repeated draw is already gone from both.
            remove_both(&mut f.rs, &mut f.bt, triple);
        }
        assert!(f.rs.stats().tombstones >= 150, "{:?}", f.rs.stats());
        let revived = [touched[0], f.edges[0], touched[touched.len() - 1]];
        for triple in revived {
            assert!(insert_both(&mut f.rs, &mut f.bt, triple), "revives");
        }
        touched
    }

    /// The published layout: at most one run, nothing else; content and
    /// membership as the oracle has them.
    fn assert_one_clean_run(rs: &TripleStore, bt: &TripleStore, touched: &[IdTriple], what: &str) {
        let stats = rs.stats();
        assert!(
            stats.runs <= 1 && stats.tail == 0 && stats.tombstones == 0,
            "{what}: {stats:?}"
        );
        assert_matches_oracle(rs, bt, what);
        for &triple in touched {
            assert_eq!(rs.contains(triple), bt.contains(triple), "{what}");
        }
    }

    /// `seal()` publishes one merged run per permutation at the shapes
    /// the live path has (the live suites' systems are a few dozen
    /// triples): big run + small runs + tail + tombstones, then the same
    /// over shards, then everything dead.
    #[test]
    fn seal_merges_big_run_shapes_like_the_oracle() {
        for seed in [3u64, 4, 5] {
            let mut next = splitmix(seed);
            let mut f = big_run_fixture(seed, &mut next);
            let mut touched = tombstone_sweep(&mut f, &mut next);
            f.rs.seal();
            assert_one_clean_run(&f.rs, &f.bt, &touched, &format!("seed {seed}"));
            assert_eq!(f.rs.stats().run_keys, f.bt.len());

            // Insert-only window: no tombstone, still one run.
            for i in 0..(TAIL_MAX as u32 + 9) {
                let triple = t(50 + i * 31, 3, 7_000 + i);
                insert_both(&mut f.rs, &mut f.bt, triple);
                touched.push(triple);
            }
            assert!(f.rs.stats().runs == 2 && f.rs.stats().tombstones == 0);
            f.rs.seal();
            assert_one_clean_run(&f.rs, &f.bt, &touched, &format!("seed {seed}, insert-only"));

            // (v) every key dead: nothing is left to publish.
            let (mut rs, mut bt) = (f.rs.clone(), f.bt.clone());
            for triple in collect_range(&f.bt, Perm::Osp, [0; 3], [u32::MAX; 3]) {
                remove_both(&mut rs, &mut bt, triple);
            }
            rs.seal();
            assert_one_clean_run(&rs, &bt, &touched, &format!("seed {seed}, drained"));
            assert_eq!((rs.stats().runs, rs.len()), (0, 0));

            // (vi) the same sweep over shard-resident keys: the shards
            // stay, the runs written since fold to one.
            f.rs.seal_with(&SealConfig {
                shards: 3,
                ..SealConfig::default()
            });
            let fresh = TAIL_MAX * 6 + 17;
            for i in 0..fresh as u32 {
                let triple = t(i * 7, 5, 9_000 + i);
                insert_both(&mut f.rs, &mut f.bt, triple);
                touched.push(triple);
            }
            f.flushed = touched[touched.len() - fresh..][..TAIL_MAX].to_vec();
            f.big.retain(|&triple| f.bt.contains(triple));
            f.edges = vec![
                collect_range(&f.bt, Perm::Spo, [0; 3], [u32::MAX; 3])[0],
                f.big[0],
            ];
            touched.extend(tombstone_sweep(&mut f, &mut next));
            assert_eq!(f.rs.stats().tail, 17);
            f.rs.seal();
            assert_one_clean_run(&f.rs, &f.bt, &touched, &format!("seed {seed}, sharded"));
            assert_eq!(f.rs.stats().shards, 3, "plain seal never repartitions");
            for triple in collect_range(&f.bt, Perm::Pos, [0; 3], [u32::MAX; 3]) {
                remove_both(&mut f.rs, &mut f.bt, triple);
            }
            f.rs.seal();
            assert_one_clean_run(
                &f.rs,
                &f.bt,
                &touched,
                &format!("seed {seed}, shards drained"),
            );
            let stats = f.rs.stats();
            assert_eq!((stats.runs, stats.shard_keys, f.rs.len()), (0, 0, 0));
        }
    }

    /// The same shapes through `maybe_purge`: no seal, the purge trips
    /// on its own once half the run-resident keys are tombstones, and
    /// each time leaves one run that scans like the oracle.
    #[test]
    fn purge_merges_big_run_shapes_like_the_oracle() {
        for seed in [6u64, 7, 8] {
            let mut next = splitmix(seed);
            let mut f = big_run_fixture(seed, &mut next);
            let touched = tombstone_sweep(&mut f, &mut next);
            let mut purges = 0;
            for triple in collect_range(&f.bt, Perm::Pos, [0; 3], [u32::MAX; 3]) {
                let before = f.rs.stats().tombstones;
                remove_both(&mut f.rs, &mut f.bt, triple);
                let stats = f.rs.stats();
                if stats.tombstones < before {
                    purges += 1;
                    assert!(before + 1 >= PURGE_MIN, "purged at {before} tombstones");
                    assert!(stats.runs <= 1 && stats.tombstones == 0, "{stats:?}");
                    assert_matches_oracle(&f.rs, &f.bt, &format!("seed {seed} purge {purges}"));
                }
            }
            assert!(purges >= 3, "seed {seed}: {purges} purges");
            assert_eq!(f.rs.len(), 0);
            for &triple in &touched {
                assert!(!f.rs.contains(triple));
            }
        }
    }

    /// Sealing again (plain `seal`) after writes on top of a sharded
    /// seal keeps the shards and the logical content.
    #[test]
    fn plain_seal_preserves_shards() {
        let mut rs = TripleStore::new(StorageBackend::SortedRuns);
        let mut bt = TripleStore::new(StorageBackend::BTree);
        for i in 0..(TAIL_MAX as u32 * 4) {
            rs.insert(t(i, i % 5, i % 9));
            bt.insert(t(i, i % 5, i % 9));
        }
        rs.seal_with(&SealConfig {
            shards: 3,
            ..SealConfig::default()
        });
        assert_eq!(rs.stats().shards, 3);
        // Post-seal writes land in the tail; removing a shard-resident
        // key tombstones it.
        for i in 0..40u32 {
            rs.insert(t(100_000 + i, 1, 1));
            bt.insert(t(100_000 + i, 1, 1));
        }
        // Key 7 of the `t(i, i % 5, i % 9)` seeding loop above.
        assert!(rs.remove(t(7, 2, 7)));
        assert!(bt.remove(t(7, 2, 7)));
        assert!(!rs.is_sealed());
        rs.seal();
        assert!(rs.is_sealed());
        let stats = rs.stats();
        assert_eq!(stats.shards, 3, "plain seal never repartitions");
        assert_eq!(stats.tombstones, 0);
        assert_matches_oracle(&rs, &bt, "resealed over shards");
    }

    /// Empty shards (more shards than distinct subjects) scan cleanly,
    /// and single-key ranges hit exactly one shard.
    #[test]
    fn empty_shards_and_single_key_ranges() {
        let mut rs = TripleStore::new(StorageBackend::SortedRuns);
        let mut bt = TripleStore::new(StorageBackend::BTree);
        // Two subjects, 16 shards: at least 14 shards are empty.
        for o in 0..(TAIL_MAX as u32) {
            for s in [3u32, 4] {
                rs.insert(t(s, 1, o));
                bt.insert(t(s, 1, o));
            }
        }
        rs.seal_with(&SealConfig {
            shards: 16,
            compress: true,
            compress_min_keys: 1,
        });
        assert_eq!(rs.stats().shards, 16);
        assert_matches_oracle(&rs, &bt, "mostly-empty shards");
        // Exact triple probe (single-key range in every permutation).
        let probe = t(3, 1, 5);
        let key = spo_key(probe);
        assert_eq!(collect_range(&rs, Perm::Spo, key, key), vec![probe]);
        let pk = Perm::Pos.permute(probe);
        assert_eq!(collect_range(&rs, Perm::Pos, pk, pk), vec![probe]);
        let ok = Perm::Osp.permute(probe);
        assert_eq!(collect_range(&rs, Perm::Osp, ok, ok), vec![probe]);
    }

    /// Wide merges (many runs + shards) engage the loser tree and still
    /// agree with the oracle byte for byte.
    #[test]
    fn loser_tree_merge_agrees_with_oracle() {
        let mut rs = TripleStore::new(StorageBackend::SortedRuns);
        let mut bt = TripleStore::new(StorageBackend::BTree);
        let mut next = splitmix(0xCAFE);
        for i in 0..(TAIL_MAX as u32 * 2) {
            let triple = t(i % 97, (i % 7) + 1, (next() % 200) as u32);
            rs.insert(triple);
            bt.insert(triple);
        }
        // Shard widely, then pile fresh runs on top so full scans merge
        // shards + runs + tail.
        rs.seal_with(&SealConfig {
            shards: 12,
            ..SealConfig::default()
        });
        for i in 0..(TAIL_MAX as u32 * 3 + 7) {
            let triple = t(200 + (i % 83), (i % 5) + 1, (next() % 150) as u32);
            rs.insert(triple);
            bt.insert(triple);
        }
        let scan = rs.range(Perm::Spo, [0; 3], [u32::MAX; 3]);
        assert!(
            scan.merge_width() >= LOSER_TREE_MIN && scan.uses_loser_tree(),
            "width {} must engage the loser tree",
            scan.merge_width()
        );
        assert_matches_oracle(&rs, &bt, "loser-tree merge");
    }
}
