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
//!   **tail** kept sorted in each permutation's key order. The store
//!   keeps no key set beside them: membership is a probe of the SPO
//!   tail and runs themselves, and an insert is that probe plus three
//!   small sorted-tail insertions; when
//!   the tail reaches [`TAIL_MAX`] entries it becomes a fresh run per
//!   permutation, and a **size-tiered compaction** merges
//!   neighbouring runs while the older run is within `TIER_FACTOR`
//!   (4) times the newer one — keeping the run count logarithmic in
//!   the store size.
//!   Range scans binary-search every run — and the tail, which is kept
//!   sorted per permutation — for the key range and merge the
//!   resulting slices by a linear minimum over their heads, so
//!   iteration order is identical to a B-tree range scan and scan setup
//!   allocates nothing beyond the source list. Removals from runs are
//!   **tombstones** in a side set, filtered during scans and physically
//!   dropped — by one merge pass per permutation that folds the stack
//!   into a single run, copying the big run in stretches between the
//!   few tombstoned positions — when the store is sealed, or on its own
//!   once they outnumber half the run-resident keys.
//!   **Sealed, the layout is one run per permutation**: a plain key
//!   vector, or its delta-varint columnar encoding (the
//!   `store::columnar` module) when [`SealConfig::compress`] asks. A
//!   scan of a sealed store sets up one source and merges nothing.
//!   A sealed **plain** run carries a **directory** over its first key
//!   component (the first level of Hexastore's per-subject vectors over
//!   an RDF-3X-style sorted run): a probe that binds that component —
//!   every probe but a full scan — reads the two entries that bound its
//!   keys and searches only them, instead of binary-searching the whole
//!   run. A seal after a small window patches the previous directory
//!   from the window's delta; any other seal sweeps one.
//!   A **read-only copy** of a store sealed plain is a clone of it: the
//!   three runs and their directories, `Arc`-shared with the writer,
//!   an empty tail and an empty tombstone set — nothing proportional to
//!   the store is copied. Its membership probe is a lookup in the SPO
//!   run's directory where the run carries one (a copy of a store never
//!   sealed — one batch-loaded run — has none and binary-searches), and
//!   a write to it starts a tail over the same runs, as on the writer.
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
//!    unaffected by flushes, merges and purges;
//! 5. the live keys are the runs' keys and the tail's, less `dead`, so
//!    the store's length is counted from them, not kept beside them;
//! 6. a run's directory indexes exactly that run, and runs never
//!    change; a seal that leaves one plain run per permutation, and no
//!    columnar run, gives each one (unless it would be much larger than
//!    the run, see `directory_len`), and nothing else makes one but a
//!    compaction that patches its oldest run's and the reopening of a
//!    permutation persisted as one run.
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

/// How a [`Graph`](crate::graph::Graph) is physically laid out when it
/// is sealed via [`Graph::seal_with`](crate::graph::Graph::seal_with).
///
/// Either way the sealed form is one purged sorted run per permutation:
/// a plain key vector by default, or — with `compress`, once the store
/// holds `compress_min_keys` keys — its delta-varint columnar encoding
/// (the `store::columnar` module).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SealConfig {
    /// Store the sealed runs delta-varint compressed when they are at
    /// least `compress_min_keys` long.
    pub compress: bool,
    /// Minimum keys in the store before compression is worth the decode
    /// cost of its scans.
    pub compress_min_keys: usize,
}

impl Default for SealConfig {
    fn default() -> Self {
        SealConfig {
            compress: false,
            compress_min_keys: 256,
        }
    }
}

impl SealConfig {
    /// Whether a seal under this config stores `keys` keys columnar.
    fn compresses(&self, keys: usize) -> bool {
        self.compress && keys >= self.compress_min_keys.max(1)
    }
}

/// The machine's available parallelism (≥ 1), asked of the OS once per
/// process. On Linux the query is an affinity syscall plus cgroup-quota
/// file reads — ~14 µs, several times an id-level point join — so the
/// federated branch fan-out in `rps-p2p`, the one caller, bounds its
/// threads by this cached answer and no request path queries the host.
pub fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
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
    /// Immutable sorted runs per permutation index, the columnar one
    /// included.
    pub runs: usize,
    /// Keys in the mutable tail (shared across the three permutations).
    pub tail: usize,
    /// Tombstoned keys awaiting a purge-compaction (always 0 for the
    /// B-tree backend, which removes in place).
    pub tombstones: usize,
    /// Keys resident in runs, plain or columnar (live + tombstoned).
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
    /// Always 0; read by name in `benchmark/src/trial.rs`; goes with
    /// ROADMAP 1a-iii.
    pub shards: usize,
    /// Always 0; read by name in `benchmark/src/trial.rs`; goes with
    /// ROADMAP 1a-iii.
    pub shard_keys: usize,
    /// Runs stored delta-varint compressed (across permutations).
    pub compressed_runs: usize,
    /// Resident bytes of the compressed runs (codes + sync tables).
    pub compressed_bytes: usize,
    /// Bytes the same keys would occupy as plain `[u32; 3]` runs.
    pub compressed_raw_bytes: usize,
    /// Always 0; read by name in `benchmark/src/trial.rs`; goes with
    /// ROADMAP 1a-iii.
    pub morsels_dispatched: u64,
    /// Always 0; read by name in `benchmark/src/trial.rs`; goes with
    /// ROADMAP 1a-iii.
    pub loser_tree_merges: u64,
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
                let columnar = || {
                    [&s.spo, &s.pos, &s.osp]
                        .into_iter()
                        .flat_map(|i| &i.columnar)
                };
                StorageStats {
                    runs: s.spo.runs.len() + usize::from(s.spo.columnar.is_some()),
                    tail: s.spo.tail.len(),
                    tombstones: s.dead.len(),
                    run_keys: s.spo.run_keys(),
                    compressed_runs: columnar().count(),
                    compressed_bytes: columnar().map(|c| c.encoded_bytes()).sum(),
                    compressed_raw_bytes: columnar().map(|c| c.raw_bytes()).sum(),
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
    /// tail subslice, no per-key tombstone probe). **Sealed ⇒ at most
    /// one plain run per permutation**, whether or not a tombstone
    /// existed: a probe sets up a single source, no merge. A columnar
    /// run left by an earlier [`Self::seal_with`] stays as it is (less
    /// its dead keys) and the writes since fold into one plain run
    /// beside it. The logical key set is unchanged; the B-tree backend
    /// is a no-op. A sealed store accepts further writes (they simply
    /// start a new tail).
    pub(crate) fn seal(&mut self) {
        if let TripleStore::Runs(s) = self {
            s.seal();
        }
    }

    /// Seals into the physical layout described by `cfg`: one run per
    /// permutation holding every live key, delta-varint compressed when
    /// `cfg` asks and the store is large enough, plain otherwise.
    /// Logical content is untouched; the B-tree backend ignores the
    /// config ([`Self::seal`] semantics).
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
    /// whole store in them: sorted runs, none columnar, no tail, no
    /// tombstone, at most one run per permutation (none when empty).
    /// `None` for any other shape, the B-tree backend included.
    pub(crate) fn sealed_runs(&self) -> Option<[&[[u32; 3]]; 3]> {
        let TripleStore::Runs(s) = self else {
            return None;
        };
        let plain = self.is_sealed() && s.spo.columnar.is_none() && s.spo.runs.len() <= 1;
        plain.then(|| {
            [&s.spo, &s.pos, &s.osp].map(|index| index.runs.first().map_or(&[][..], |run| &run[..]))
        })
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
                .chain(s.spo.columnar.iter().map(|c| (c.min_key(), c.max_key())))
                .reduce(|(lo, hi), (first, last)| (lo.min(first), hi.max(last)))?,
        };
        Some((Perm::Spo.unpermute(lo), Perm::Spo.unpermute(hi)))
    }

    /// A live-only image of the physical shape, taken by the durable
    /// tier when writing a checkpoint: each permutation's runs (SPO,
    /// POS, OSP order), oldest first, each sorted, empty ones dropped.
    /// Tombstoned keys are filtered out of the run images — a persist
    /// doubles as a purge-compaction — and the mutable tail comes back
    /// as one more run per permutation, in that permutation's order.
    /// The tail is disjoint from the runs' live keys (an insert revives
    /// a tombstoned run key in place and sends only absent keys to the
    /// tail), so the image stores every triple once. The B-tree backend
    /// snapshots as one full run per permutation.
    pub(crate) fn snapshot(&self) -> [Vec<Vec<[u32; 3]>>; 3] {
        // One run image, none for an empty permutation.
        let whole = |keys: Vec<[u32; 3]>| -> Vec<Vec<[u32; 3]>> {
            if keys.is_empty() {
                Vec::new()
            } else {
                vec![keys]
            }
        };
        match self {
            TripleStore::BTree(s) => {
                [&s.spo, &s.pos, &s.osp].map(|index| whole(index.iter().copied().collect()))
            }
            TripleStore::Runs(s) => {
                // A columnar run persists as one more plain run image —
                // the durable tier (and `from_runs` recovery) knows plain
                // runs only; re-seal with a config to compress after
                // opening. Tail keys are never tombstoned (removals from
                // the tail are physical), so the tail is live as-is.
                let live = |perm: Perm, index: &RunIndex| -> Vec<Vec<[u32; 3]>> {
                    index
                        .runs
                        .iter()
                        .map(|run| run.to_vec())
                        .chain(index.columnar.iter().map(|c| c.decode_all()))
                        .map(|mut run| {
                            if s.dead.len() > 0 {
                                run.retain(|k| !s.dead.contains(spo_key(perm.unpermute(*k))));
                            }
                            run
                        })
                        .chain(std::iter::once(index.tail.clone()))
                        .filter(|run| !run.is_empty())
                        .collect()
                };
                [
                    live(Perm::Spo, &s.spo),
                    live(Perm::Pos, &s.pos),
                    live(Perm::Osp, &s.osp),
                ]
            }
        }
    }

    /// Rebuilds a sorted-run store from persisted run images, validating
    /// every structural invariant recovery depends on: each run strictly
    /// sorted, every id below `max_term`, no key stored twice, and the
    /// three permutations describing the same triple set. The checks are
    /// by order: the SPO runs merged hold each key once, and the POS and
    /// OSP keys, permuted back to SPO and sorted, are exactly those.
    /// Violations are reported as a description for the caller to wrap
    /// in a typed corruption error — never a panic.
    pub(crate) fn from_runs(
        runs: [Vec<Vec<[u32; 3]>>; 3],
        max_term: u32,
    ) -> Result<TripleStore, String> {
        let perms = [Perm::Spo, Perm::Pos, Perm::Osp];
        for (perm, perm_runs) in perms.into_iter().zip(&runs) {
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
                }
            }
        }
        let [spo_runs, pos_runs, osp_runs] = runs;
        // One strictly sorted run holds each key once; several are
        // merged, and a key stored in two of them lands beside its copy.
        let merged;
        let spo: &[[u32; 3]] = match spo_runs.as_slice() {
            [] => &[],
            [run] => run,
            several => {
                merged = in_spo_order(Perm::Spo, several);
                if let Some(key) = first_repeat(&merged) {
                    return Err(format!("SPO key {key:?} stored more than once"));
                }
                &merged
            }
        };
        for (perm, perm_runs) in [(Perm::Pos, &pos_runs), (Perm::Osp, &osp_runs)] {
            let total: usize = perm_runs.iter().map(Vec::len).sum();
            if total != spo.len() {
                return Err(format!(
                    "{perm:?} holds {total} keys, SPO holds {}",
                    spo.len()
                ));
            }
            let back = in_spo_order(perm, perm_runs);
            if back == spo {
                continue;
            }
            // As many keys as SPO's, not the same ones: one names a
            // triple SPO lacks, or one is stored twice.
            let as_stored = |key: [u32; 3]| perm.permute(Perm::Spo.unpermute(key));
            if let Some(&key) = back.iter().find(|key| spo.binary_search(key).is_err()) {
                return Err(format!(
                    "{perm:?} key {:?} names a triple absent from SPO",
                    as_stored(key)
                ));
            }
            let key = first_repeat(&back).map_or([0; 3], as_stored);
            return Err(format!("{perm:?} key {key:?} stored more than once"));
        }
        // A permutation persisted as one run — what a sealed graph
        // checkpoints — reopens with its directory.
        let index = |mut runs: Vec<Vec<[u32; 3]>>| RunIndex {
            runs: match runs.len() {
                1 => runs
                    .pop()
                    .map(|keys| Run::new(keys).indexed())
                    .into_iter()
                    .collect(),
                _ => runs.into_iter().map(Run::new).collect(),
            },
            ..RunIndex::default()
        };
        Ok(TripleStore::Runs(RunStore {
            spo: index(spo_runs),
            pos: index(pos_runs),
            osp: index(osp_runs),
            dead: KeySet::default(),
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

/// The keys of `perm`'s `runs`, permuted back to SPO order and sorted.
fn in_spo_order(perm: Perm, runs: &[Vec<[u32; 3]>]) -> Vec<[u32; 3]> {
    let mut keys: Vec<[u32; 3]> = runs
        .iter()
        .flatten()
        .map(|&key| spo_key(perm.unpermute(key)))
        .collect();
    keys.sort_unstable();
    keys
}

/// The first key the sorted `keys` hold twice.
fn first_repeat(keys: &[[u32; 3]]) -> Option<[u32; 3]> {
    keys.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
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

/// An immutable sorted run of one permutation's keys, shared by every
/// store that holds it, with the directory over its first key component
/// when a seal left it its permutation's one plain run (see
/// [`Run::range`]).
#[derive(Clone, Default)]
struct Run {
    keys: Arc<Vec<[u32; 3]>>,
    /// `starts[b]` is the position of the run's first key whose first
    /// component's entry ([`entry_of`]) is at least `b`, for every `b`
    /// up to the largest first component's entry + 1; so the keys led by
    /// a component `c` lie in `starts[b]..starts[b + 1]` for `b =
    /// entry_of(c)`, beside those of the one other component sharing the
    /// entry, and a `c` past the end leads none. It indexes exactly these
    /// keys, which never change, and exists only where it is not much
    /// larger than they are (see [`directory_len`]). A `Vec`, so that a
    /// patch writes its entries once, with no zero fill before them.
    starts: Option<Arc<Vec<u32>>>,
}

impl std::ops::Deref for Run {
    type Target = [[u32; 3]];

    fn deref(&self) -> &[[u32; 3]] {
        &self.keys
    }
}

impl Run {
    /// A run without a directory: stacked under writes, or merged by a
    /// compaction that is not a seal.
    fn new(keys: Vec<[u32; 3]>) -> Run {
        Run {
            keys: Arc::new(keys),
            starts: None,
        }
    }

    /// This run with a directory, swept over its keys if it has none.
    fn indexed(mut self) -> Run {
        if self.starts.is_none() {
            self.starts = sweep_directory(&self.keys);
        }
        self
    }

    /// The part of the run inside `lo..=hi`. A range within one first
    /// component `c` — every probe but a full scan — is looked up in the
    /// directory: two loads give the keys of `c`'s entry, searched by
    /// [`within`], instead of a binary search over the whole run.
    fn range(&self, lo: [u32; 3], hi: [u32; 3]) -> &[[u32; 3]] {
        match &self.starts {
            Some(starts) if lo[0] == hi[0] => {
                let b = entry_of(lo[0]);
                let Some(&[from, to]) = starts.get(b..b + 2) else {
                    return &[]; // past the largest first component
                };
                within(&self.keys[from as usize..to as usize], lo, hi)
            }
            _ => bounded(&self.keys, lo, hi),
        }
    }

    /// Membership of one key.
    fn contains(&self, key: [u32; 3]) -> bool {
        !self.range(key, key).is_empty()
    }
}

/// First components per directory entry. Two components sharing an
/// entry halve the directory, and with it the entries a live publish
/// writes when it patches one, for a slice of about two components'
/// keys to search instead of one: a few more keys in the same cache
/// lines.
const COMPONENTS_PER_ENTRY: u32 = 2;

/// The directory entry of the first component `c`.
fn entry_of(c: u32) -> usize {
    (c / COMPONENTS_PER_ENTRY) as usize
}

/// Slices of at most this many keys are searched by [`within`] with a
/// linear scan: a few cache lines, cheaper than setting up a binary
/// search and a gallop.
const LINEAR_MAX: usize = 16;

/// The part of the sorted `keys` inside `lo..=hi`, for the few keys a
/// directory entry covers: a linear scan when they are at most
/// [`LINEAR_MAX`], [`bounded`] otherwise.
fn within(keys: &[[u32; 3]], lo: [u32; 3], hi: [u32; 3]) -> &[[u32; 3]] {
    if keys.len() > LINEAR_MAX {
        return bounded(keys, lo, hi);
    }
    let from = keys.iter().take_while(|k| **k < lo).count();
    let to = from + keys[from..].iter().take_while(|k| **k <= hi).count();
    &keys[from..to]
}

/// The number of entries in the directory of the sorted `keys`, if they
/// are given one at all: the largest first component's entry + 2, as
/// long as that is at most two entries per key plus a small constant.
/// Term ids are dense, so a graph's runs qualify unless it holds few
/// triples of a large dictionary, whose runs a binary search serves as
/// well. The rule is a function of the run alone, so a patched
/// directory and a swept one exist for the same runs.
fn directory_len(keys: &[[u32; 3]]) -> Option<usize> {
    let entries = entry_of(keys.last()?[0]) + 2;
    (entries <= 2 * keys.len() + 1024).then_some(entries)
}

/// The directory of the sorted `keys` (see [`Run::starts`]), in one
/// sweep; `None` where [`directory_len`] gives none.
fn sweep_directory(keys: &[[u32; 3]]) -> Option<Arc<Vec<u32>>> {
    let entries = directory_len(keys)?;
    // Count the keys of each entry one entry up, then sum.
    let mut starts = vec![0u32; entries];
    for key in keys {
        starts[entry_of(key[0]) + 1] += 1;
    }
    let mut at = 0;
    for start in &mut starts {
        at += *start;
        *start = at;
    }
    Some(Arc::new(starts))
}

/// The directory of `merged`, the run `old` ∪ `added` ∖ `removed`, from
/// `old`'s directory `starts` and the delta — what a seal does instead
/// of a sweep when few keys moved: an entry shifts by the net count of
/// moved keys of smaller entries, so the entries between two moved
/// keys' are one shifted copy. `added` and `removed` are
/// sorted, `removed` names keys of `old` or `added` only, and a key in
/// both nets to nothing. `None` where [`directory_len`] gives none.
fn patch_directory(
    starts: &[u32],
    merged: &[[u32; 3]],
    added: &[[u32; 3]],
    removed: &[[u32; 3]],
) -> Option<Arc<Vec<u32>>> {
    let entries = directory_len(merged)?;
    let mut patched = Vec::with_capacity(entries);
    // Wrapping: a shift below zero is two's complement, and every
    // patched entry is a position again.
    let mut shift = 0u32;
    let (mut added, mut removed) = (added.iter().peekable(), removed.iter().peekable());
    loop {
        let moved = match (added.peek(), removed.peek()) {
            (Some(a), Some(r)) => entry_of(a[0].min(r[0])),
            (Some(key), None) | (None, Some(key)) => entry_of(key[0]),
            (None, None) => break,
        };
        // The entries up to `moved` count none of its keys.
        shift_copy(&mut patched, (moved + 1).min(entries), starts, shift);
        while added.next_if(|key| entry_of(key[0]) == moved).is_some() {
            shift = shift.wrapping_add(1);
        }
        while removed.next_if(|key| entry_of(key[0]) == moved).is_some() {
            shift = shift.wrapping_sub(1);
        }
    }
    shift_copy(&mut patched, entries, starts, shift);
    debug_assert_eq!(patched.last().copied(), Some(merged.len() as u32));
    #[cfg(test)]
    PATCHED.with(|n| n.set(n.get() + 1));
    Some(Arc::new(patched))
}

/// Extends `patched` up to `upto` entries with the same entries of the
/// directory `starts`, each plus `shift`; an entry past its end is its
/// last, the run's length.
fn shift_copy(patched: &mut Vec<u32>, upto: usize, starts: &[u32], shift: u32) {
    let from = patched.len();
    let old = starts.get(from..upto.min(starts.len())).unwrap_or_default();
    patched.extend(old.iter().map(|start| start.wrapping_add(shift)));
    let past = starts.last().copied().unwrap_or(0).wrapping_add(shift);
    patched.resize(upto, past);
}

#[cfg(test)]
thread_local! {
    /// Directories [`patch_directory`] made on this thread, for the
    /// tests that a seal patches when it should.
    static PATCHED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// One permutation's sorted-run stack plus its view of the mutable
/// tail.
#[derive(Clone, Default)]
struct RunIndex {
    /// Immutable sorted runs, oldest first. Sizes decrease towards the
    /// newest run by at least the tiering factor, so there are
    /// `O(log n)` of them. Each run is `Arc`-shared: once written it is
    /// never mutated (compaction replaces whole runs), so cloning a
    /// store, or taking the read-only copy a live epoch publishes,
    /// shares the key arrays instead of deep-copying them.
    runs: Vec<Run>,
    /// The mutable tail, **kept sorted in this permutation's key
    /// order** (binary-search insertion; the tail is at most
    /// [`TAIL_MAX`] 12-byte keys, so the shift is one small memmove).
    /// Scans then take a `partition_point` subslice of it with no
    /// per-scan allocation, filtering or sorting — the tail is just one
    /// more merge source. All three permutations' tails hold the same
    /// triples, each in its own order.
    tail: Vec<[u32; 3]>,
    /// The delta-varint encoded run a compressing
    /// [`RunStore::seal_with`] left — then the only run; writes since
    /// stack plain runs beside it. Disjoint from `runs` and the tail
    /// like any other run, and immutable until the next purge or
    /// `seal_with`.
    columnar: Option<Arc<ColumnarRun>>,
}

impl RunIndex {
    /// Keys resident in the runs, plain and columnar.
    fn run_keys(&self) -> usize {
        self.runs.iter().map(|r| r.len()).sum::<usize>()
            + self.columnar.as_ref().map_or(0, |c| c.len())
    }

    /// The sources of a scan of `lo..=hi`: the subslice of each run —
    /// and of the sorted tail — intersecting it (see [`bounded`]), and
    /// a seeked cursor into the columnar run. A scan that meets one
    /// plain source — every scan of a sealed, uncompressed store, and
    /// of any store whose other runs lie outside the range — *is* that
    /// subslice: nothing is allocated for it.
    fn sources(&self, lo: [u32; 3], hi: [u32; 3]) -> ScanSources<'_> {
        let mut plain = self
            .runs
            .iter()
            .map(|run| run.range(lo, hi))
            .chain(std::iter::once(bounded(&self.tail, lo, hi)))
            .filter(|part| !part.is_empty());
        let first = plain.next().unwrap_or_default();
        // Collecting nothing allocates nothing.
        let mut merge: Vec<ScanSource<'_>> = plain.map(ScanSource::Slice).collect();
        if let Some(scan) = self
            .columnar
            .as_ref()
            .and_then(|c| ColScan::over(c, lo, hi))
        {
            merge.push(ScanSource::Col(Box::new(scan)));
        }
        if merge.is_empty() {
            return ScanSources::One(first);
        }
        if !first.is_empty() {
            merge.push(ScanSource::Slice(first));
        }
        ScanSources::Merge(merge)
    }

    /// Inserts a key into the sorted tail. The caller guarantees it is
    /// not already present anywhere in the store.
    fn tail_insert(&mut self, key: [u32; 3]) {
        let at = self.tail.partition_point(|k| *k < key);
        self.tail.insert(at, key);
    }

    /// Removes a key from the sorted tail, if it is there.
    fn tail_remove(&mut self, key: [u32; 3]) {
        if let Ok(i) = self.tail.binary_search(&key) {
            self.tail.remove(i);
        }
    }

    /// Whether a run, plain or columnar, holds `key`, live or
    /// tombstoned: a plain run answers through its directory where it
    /// has one ([`Run::contains`]).
    fn holds(&self, key: [u32; 3]) -> bool {
        self.runs.iter().any(|run| run.contains(key))
            || self
                .columnar
                .as_ref()
                .is_some_and(|c| ColScan::over(c, key, key).is_some())
    }

    /// Appends a new sorted run and merges neighbours while the older
    /// run is within the tiering factor of the newer one.
    fn push_run_tiered(&mut self, run: Vec<[u32; 3]>) {
        if run.is_empty() {
            return;
        }
        self.runs.push(Run::new(run));
        while let [.., older, newer] = self.runs.as_slice() {
            if older.len() > newer.len() * TIER_FACTOR {
                break;
            }
            let merged = merge_sorted(older, newer, &[]);
            self.runs.truncate(self.runs.len() - 2);
            self.runs.push(Run::new(merged));
        }
    }

    /// Folds the whole stack of plain runs into one run without the
    /// keys of `dead` (sorted in this permutation's order). The younger
    /// runs — under tiering a fraction of the oldest — are merged among
    /// themselves first, newest up, so the oldest run is read once, in
    /// the pass that also drops the dead keys. An already single run
    /// with nothing to drop is left as it is (same `Arc`). The columnar
    /// run keeps its representation: it is re-encoded without its dead
    /// keys, and only when it holds one. The merged run's directory is
    /// patched from the oldest run's when that has one and few keys
    /// moved ([`gallop_pays`]); otherwise it has none, and a seal sweeps
    /// one ([`Self::index_sole_run`]).
    fn compact(&mut self, dead: &[[u32; 3]]) {
        // Without a columnar run every dead key is a plain run's.
        let plain_only = self.columnar.is_none();
        if let Some(columnar) = self.columnar.as_ref().filter(|_| !dead.is_empty()) {
            let keys = columnar.decode_all();
            let live = merge_sorted(&keys, &[], dead);
            if live.is_empty() {
                self.columnar = None;
            } else if live.len() < keys.len() {
                self.columnar = Some(Arc::new(ColumnarRun::encode(&live)));
            }
        }
        if self.runs.len() <= 1 && dead.is_empty() {
            return;
        }
        let mut runs = std::mem::take(&mut self.runs).into_iter();
        let Some(oldest) = runs.next() else {
            return; // tombstones of columnar-resident keys only
        };
        let young = runs
            .rev()
            .fold(Vec::new(), |acc, run| merge_sorted(&run, &acc, &[]));
        let merged = merge_sorted(&oldest, &young, dead);
        if merged.is_empty() {
            return;
        }
        let starts = match &oldest.starts {
            Some(starts) if plain_only && gallop_pays(young.len() + dead.len(), merged.len()) => {
                patch_directory(starts, &merged, &young, dead)
            }
            _ => None,
        };
        self.runs.push(Run {
            keys: Arc::new(merged),
            starts,
        });
    }

    /// Gives the index's run a directory, swept if it has none, when it
    /// is the one plain run — what a seal leaves unless a columnar run
    /// stays beside it.
    fn index_sole_run(&mut self) {
        if let (None, [run]) = (&self.columnar, self.runs.as_mut_slice()) {
            *run = std::mem::take(run).indexed();
        }
    }

    /// Rewrites a folded index — at most one plain run, a columnar one
    /// or neither — as a single run holding the keys of both: columnar
    /// if `compress`, plain, with its directory, otherwise.
    fn reseal(&mut self, compress: bool) {
        debug_assert!(self.runs.len() <= 1 && self.tail.is_empty());
        let plain = self.runs.pop().unwrap_or_default();
        let keys = match self.columnar.take() {
            Some(columnar) => Run::new(merge_sorted(&plain, &columnar.decode_all(), &[])),
            None => plain,
        };
        if compress {
            self.columnar = Some(Arc::new(ColumnarRun::encode(&keys)));
        } else if !keys.is_empty() {
            self.runs.push(keys.indexed());
        }
    }
}

/// A probe of one permutation index for keys asked in ascending order,
/// which a sorted batch asks: each source is a cursor that only moves
/// forward, by galloping, so the batch is decided by one merge against
/// the tail and each run instead of a search per key.
struct SortedProbe<'a> {
    tail: &'a [[u32; 3]],
    runs: Vec<&'a [[u32; 3]]>,
    columnar: Option<ColScan<'a>>,
}

impl<'a> SortedProbe<'a> {
    fn new(index: &'a RunIndex) -> Self {
        SortedProbe {
            tail: &index.tail,
            runs: index.runs.iter().map(|run| &run[..]).collect(),
            columnar: index
                .columnar
                .as_ref()
                .and_then(|c| ColScan::over(c, [0; 3], [u32::MAX; 3])),
        }
    }

    /// Where `key` sits, for a key above every key asked before.
    fn find(&mut self, key: [u32; 3]) -> Found {
        if skip_to(&mut self.tail, key) {
            return Found::Tail;
        }
        // A cursor this passes over moves up on a later key.
        let in_run = self.runs.iter_mut().any(|run| skip_to(run, key))
            || self.columnar.as_mut().is_some_and(|scan| {
                scan.seek(key);
                scan.peek_bounded([u32::MAX; 3]) == Some(key)
            });
        if in_run {
            Found::Run
        } else {
            Found::Absent
        }
    }
}

/// Moves the sorted `cursor` past its keys below `key`, by galloping;
/// `true` iff it then starts with `key`.
fn skip_to(cursor: &mut &[[u32; 3]], key: [u32; 3]) -> bool {
    *cursor = &cursor[gallop_point(cursor, |k| *k < key)..];
    cursor.first() == Some(&key)
}

/// The part of the sorted `source` inside `lo..=hi`. A sorted slice's
/// first and last entries are its min/max key, so a source that cannot
/// intersect the range is skipped with two O(1) comparisons before any
/// search runs — on clustered key ranges (a fresh predicate or subject
/// landing in one recent run) that prunes most of a run stack. The
/// lower bound is one binary search; the upper bound gallops from it,
/// `O(log range)` for the few keys a join probe spans instead of a
/// second search over the whole run.
fn bounded(source: &[[u32; 3]], lo: [u32; 3], hi: [u32; 3]) -> &[[u32; 3]] {
    match (source.first(), source.last()) {
        (Some(min), Some(max)) if *min <= hi && lo <= *max => {}
        _ => return &[], // empty, or disjoint from [lo, hi]
    }
    let from = &source[source.partition_point(|k| *k < lo)..];
    &from[..gallop_point(from, |k| *k <= hi)]
}

/// [`slice::partition_point`] by exponential search from the front:
/// `O(log answer)` probes, for an answer expected near the start.
pub(crate) fn gallop_point<T>(sorted: &[T], pred: impl Fn(&T) -> bool) -> usize {
    let mut bound = 1;
    while bound <= sorted.len() && pred(&sorted[bound - 1]) {
        bound *= 2;
    }
    let from = bound / 2;
    from + sorted[from..bound.min(sorted.len())].partition_point(pred)
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
            let below = gallop_point(&long[i..], |k| *k < event);
            out.extend_from_slice(&long[i..i + below]);
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

/// The sorted-run layout shared by the three permutation indexes.
///
/// It keeps no set of its keys beside the runs that already hold them
/// in order: membership is a probe of the SPO tail and runs (two loads
/// through a sealed run's directory), and a batch is deduped by
/// one sort and a merge against them (see [`Self::insert_batch`]).
#[derive(Clone, Default)]
pub(crate) struct RunStore {
    spo: RunIndex,
    pos: RunIndex,
    osp: RunIndex,
    /// SPO keys tombstoned inside runs, plain or columnar. Every member
    /// is resident in some run; filtered during scans and physically
    /// dropped by `purge`. A live copy of a key never coexists with a
    /// tombstoned copy (revival clears the tombstone instead of
    /// re-adding the key).
    dead: KeySet,
}

/// Where an SPO key sits in a [`RunStore`]: the store holds it at most
/// once (invariant 1), and a run's copy may be tombstoned.
enum Found {
    Tail,
    Run,
    Absent,
}

impl RunStore {
    /// Where `key` sits: a binary search of the tail, then each run.
    fn locate(&self, key: [u32; 3]) -> Found {
        if self.spo.tail.binary_search(&key).is_ok() {
            Found::Tail
        } else if self.spo.holds(key) {
            Found::Run
        } else {
            Found::Absent
        }
    }

    fn contains(&self, key: [u32; 3]) -> bool {
        match self.locate(key) {
            Found::Tail => true,
            Found::Run => self.dead.len() == 0 || !self.dead.contains(key),
            Found::Absent => false,
        }
    }

    fn len(&self) -> usize {
        self.spo.run_keys() + self.spo.tail.len() - self.dead.len()
    }

    fn insert(&mut self, t: IdTriple) -> bool {
        let key = spo_key(t);
        match self.locate(key) {
            Found::Tail => false,
            // A tombstoned run copy is revived in place.
            Found::Run => self.dead.remove(key),
            Found::Absent => {
                self.push_tail(t);
                if self.spo.tail.len() >= TAIL_MAX {
                    self.flush(Vec::new());
                }
                true
            }
        }
    }

    /// Inserts a batch as inserting its keys one at a time would: the
    /// first occurrence of a key absent from the store, or tombstoned
    /// in a run (which it revives), is pushed onto `added` in batch
    /// order.
    ///
    /// One sort of (SPO key, batch index) words puts a key's copies
    /// together, first occurrence first, and the distinct keys are then
    /// decided by one galloping merge against the tail and each run
    /// ([`SortedProbe`]), not by a search per key; for a batch of a few
    /// keys a gallop from a run's front costs about what a binary search
    /// does. The first occurrence of each key to add is flagged, and
    /// `added` filled from the flags in batch order. The keys new to the
    /// store come out in SPO order for [`Self::absorb`].
    ///
    /// The sort word keeps a key's batch index in 32 bits, so a batch of
    /// more than `u32::MAX` keys is refused (a panic) rather than
    /// deduped by a truncated index.
    fn insert_batch(&mut self, triples: impl Iterator<Item = IdTriple>, added: &mut Vec<IdTriple>) {
        let batch: Vec<IdTriple> = triples.collect();
        assert!(
            u32::try_from(batch.len()).is_ok(),
            "a batch of {} keys exceeds the 32-bit batch index",
            batch.len()
        );
        let mut order: Vec<u128> = batch
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let [s, p, o] = spo_key(t);
                (u128::from(s) << 96) | (u128::from(p) << 64) | (u128::from(o) << 32) | i as u128
            })
            .collect();
        order.sort_unstable();
        let mut first = vec![false; batch.len()];
        let mut fresh = Vec::new();
        let mut probe = SortedProbe::new(&self.spo);
        let mut last = None;
        for word in order {
            let key = [
                (word >> 96) as u32,
                (word >> 64) as u32,
                (word >> 32) as u32,
            ];
            if last.replace(key) == Some(key) {
                continue; // a later copy
            }
            first[word as u32 as usize] = match probe.find(key) {
                Found::Tail => false,
                Found::Run => self.dead.remove(key), // revived
                Found::Absent => {
                    fresh.push(key);
                    true
                }
            };
        }
        added.extend(
            batch
                .iter()
                .zip(first)
                .filter_map(|(&t, first)| first.then_some(t)),
        );
        // The batch is dropped before the flush copies `fresh` three
        // times over.
        drop(batch);
        self.absorb(fresh);
    }

    /// Takes a batch's keys new to the store (SPO, sorted): into the
    /// tail while it has room for them, otherwise sorted together with
    /// the tail into one fresh run per permutation — one sort instead
    /// of `fresh.len()` pushes and repeated threshold flushes.
    fn absorb(&mut self, fresh: Vec<[u32; 3]>) {
        if self.spo.tail.len() + fresh.len() < TAIL_MAX {
            for key in fresh {
                self.push_tail(Perm::Spo.unpermute(key));
            }
        } else {
            self.flush(fresh);
        }
    }

    fn push_tail(&mut self, t: IdTriple) {
        self.spo.tail_insert(Perm::Spo.permute(t));
        self.pos.tail_insert(Perm::Pos.permute(t));
        self.osp.tail_insert(Perm::Osp.permute(t));
    }

    /// Drains the (already sorted) tail plus `fresh` — SPO keys in
    /// order, none in the store — into one fresh sorted run per
    /// permutation, then lets size-tiered merging restore the run-size
    /// ladder. The SPO run is a merge of the two; only POS and OSP sort.
    fn flush(&mut self, fresh: Vec<[u32; 3]>) {
        debug_assert!(fresh.is_sorted());
        for (perm, index) in [(Perm::Pos, &mut self.pos), (Perm::Osp, &mut self.osp)] {
            let mut run = std::mem::take(&mut index.tail);
            run.extend(
                fresh
                    .iter()
                    .map(|&key| perm.permute(Perm::Spo.unpermute(key))),
            );
            // pdqsort exploits the sorted tail prefix; only the batch
            // part is genuinely unsorted.
            run.sort_unstable();
            index.push_run_tiered(run);
        }
        let tail = std::mem::take(&mut self.spo.tail);
        let run = match (tail.is_empty(), fresh.is_empty()) {
            (true, _) => fresh,
            (false, true) => tail,
            (false, false) => merge_sorted(&tail, &fresh, &[]),
        };
        self.spo.push_run_tiered(run);
    }

    fn remove(&mut self, t: IdTriple) -> bool {
        let key = spo_key(t);
        match self.locate(key) {
            // Tail entries are removed physically (the tail is small and
            // removals rare); each permutation finds the key at its own
            // sorted position.
            Found::Tail => {
                self.spo.tail_remove(key);
                self.pos.tail_remove(Perm::Pos.permute(t));
                self.osp.tail_remove(Perm::Osp.permute(t));
                true
            }
            // Run-resident keys are tombstoned.
            Found::Run => {
                let removed = self.dead.insert(key);
                if removed {
                    self.maybe_purge();
                }
                removed
            }
            Found::Absent => false,
        }
    }

    /// Physically drops tombstoned keys once they outnumber half the
    /// run-resident keys (and exceed an absolute floor), by merging each
    /// index's whole run stack into one purged run.
    fn maybe_purge(&mut self) {
        if self.dead.len() < PURGE_MIN || self.dead.len() * 2 < self.spo.run_keys() {
            return;
        }
        self.purge_dead();
    }

    /// Folds each index's run stack into one run without the tombstoned
    /// keys — one merge pass per permutation over the tombstones sorted
    /// in that permutation's order, see [`RunIndex::compact`] — then
    /// clears the tombstone set. A no-op on a single clean run.
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
        self.dead = KeySet::default();
    }

    /// Flushes the tail, then folds the runs and drops every tombstone
    /// physically, leaving at most one immutable plain run per
    /// permutation.
    fn fold(&mut self) {
        if !self.spo.tail.is_empty() {
            self.flush(Vec::new());
        }
        self.purge_dead();
    }

    /// Folds (see [`TripleStore::seal`]) and gives each permutation's
    /// one plain run its directory: patched by the fold from the old
    /// run's when few keys moved, swept otherwise. A columnar run is
    /// kept — only [`Self::seal_with`] re-encodes or decodes it — and
    /// the plain run beside it has no directory.
    fn seal(&mut self) {
        self.fold();
        for index in [&mut self.spo, &mut self.pos, &mut self.osp] {
            index.index_sole_run();
        }
    }

    /// Seals, then rewrites the one run per permutation in the form
    /// `cfg` asks for: columnar for `compress` over at least
    /// `compress_min_keys` keys, plain with its directory otherwise.
    /// The logical key set — and therefore every probe and scan result
    /// — is unchanged.
    fn seal_with(&mut self, cfg: &SealConfig) {
        let compress = cfg.compresses(self.len());
        if !compress && self.spo.columnar.is_none() {
            return self.seal(); // one plain run
        }
        self.fold();
        for index in [&mut self.spo, &mut self.pos, &mut self.osp] {
            index.reseal(compress);
        }
    }

    fn range(&self, perm: Perm, lo: [u32; 3], hi: [u32; 3]) -> RunRangeIter<'_> {
        let index = match perm {
            Perm::Spo => &self.spo,
            Perm::Pos => &self.pos,
            Perm::Osp => &self.osp,
        };
        RunRangeIter {
            sources: index.sources(lo, hi),
            hi,
            perm,
            dead: (self.dead.len() > 0).then_some(&self.dead),
        }
    }
}

/// A minimal open-addressing hash set for `[u32; 3]` keys with a cheap
/// multiply-xor hash — the tombstone set of [`RunStore`], probed for
/// every run key a scan yields while it is non-empty. The std `HashSet`
/// pays SipHash on every probe, which would dominate such a scan of
/// 12-byte keys; this set is the same trick as `rps_tgd`'s
/// open-addressing `RowSet`.
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

    /// The home slot of a hash in a table of `cap` slots (a power of
    /// two): the hash's top `log2(cap)` bits. Taking the top bits, not
    /// the bottom ones, makes hash order home-slot order at every
    /// capacity, which [`Self::rehash`] uses to sweep the new table in
    /// order.
    fn home(hash: u64, cap: usize) -> usize {
        (hash >> (u64::BITS - cap.trailing_zeros())) as usize
    }

    /// Index of the slot holding `key`, if present.
    fn find(&self, key: [u32; 3]) -> Option<usize> {
        if self.ctrl.is_empty() {
            return None;
        }
        let mask = self.ctrl.len() - 1;
        let mut i = Self::home(key_hash(key), self.ctrl.len());
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
        let mut i = Self::home(key_hash(key), self.ctrl.len());
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
        self.rehash((self.ctrl.len() * 2).max(16));
    }

    /// Moves every key into a table of `new_cap` slots, dropping the
    /// tombstones. The old slots are read in order, which is home-slot
    /// order in the new table too, so the writes sweep it once.
    fn rehash(&mut self, new_cap: usize) {
        let old_ctrl = std::mem::replace(&mut self.ctrl, vec![CTRL_EMPTY; new_cap]);
        let old_keys = std::mem::replace(&mut self.keys, vec![[0; 3]; new_cap]);
        self.len = 0;
        self.occupied = 0;
        let mask = new_cap - 1;
        for (c, k) in old_ctrl.into_iter().zip(old_keys) {
            if c == CTRL_FULL {
                let mut i = Self::home(key_hash(k), new_cap);
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

/// What a range scan reads.
enum ScanSources<'g> {
    /// The one plain subslice the range meets (empty when it meets
    /// none): the scan steps it as it is.
    One(&'g [[u32; 3]]),
    /// Several sources, or the columnar run's cursor: merged by a
    /// linear min over their heads.
    Merge(Vec<ScanSource<'g>>),
}

/// One source of a merged range scan: a pre-bounded plain slice (run
/// or tail subslice) or a bounded cursor into the columnar run.
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

/// Iterator over one permutation's key range: a merge of the
/// intersecting run slices, the sorted tail's subslice and the columnar
/// run's cursor, yielding triples in the permutation's key order with
/// tombstones filtered. One plain source is stepped as it is; several
/// are merged by a linear min over their heads — correct at any width,
/// and under tiering the width is logarithmic in the store size.
pub(crate) struct RunRangeIter<'g> {
    sources: ScanSources<'g>,
    hi: [u32; 3],
    perm: Perm,
    /// Tombstoned SPO keys, present only when non-empty.
    dead: Option<&'g KeySet>,
}

impl RunRangeIter<'_> {
    /// The next key in merge order, or `None` when every source is
    /// exhausted.
    fn next_key(&mut self) -> Option<[u32; 3]> {
        let sources = match &mut self.sources {
            // No merge, just step it (the only shape a sealed,
            // uncompressed store has).
            ScanSources::One(s) => {
                let (&key, rest) = s.split_first()?;
                *s = rest;
                return Some(key);
            }
            ScanSources::Merge(sources) => sources,
        };
        // Pick the smallest head. The key sets are disjoint, so no
        // tie-breaking or deduplication is needed; exhausted heads are
        // dropped, so the linear min runs over live sources only.
        let mut best: Option<(usize, [u32; 3])> = None; // (source, key)
        let mut i = 0;
        while i < sources.len() {
            match sources[i].peek(self.hi) {
                None => {
                    // Swaps the (as yet unexamined) last source into
                    // place `i`, so recorded best indices stay valid.
                    sources.swap_remove(i);
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
        sources[i].advance();
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
    use std::cell::Cell;

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

    /// A batch dedupes as inserting its keys one at a time into the
    /// B-tree oracle does, for batches of one key to twelve thousand:
    /// the same `added` list in the same order, the same length,
    /// membership and scans. The batches repeat keys within themselves
    /// and offer keys already present and keys tombstoned inside a run;
    /// from the fourth round on the base is a columnar run (a
    /// compressing seal). Last, a large and a small batch meet a store
    /// whose repeated keys sit in the base run, a tiered young run and
    /// the tail at once.
    #[test]
    fn batch_dedupe_matches_single_inserts() {
        for seed in [11u64, 12, 13] {
            let mut next = splitmix(seed);
            let mut rs = TripleStore::new(StorageBackend::SortedRuns);
            let mut bt = TripleStore::new(StorageBackend::BTree);
            let mut seen: Vec<IdTriple> = Vec::new();
            let sizes = [12_288, 4_095, 1, 40, 4_097, 8_192];
            for (round, &size) in sizes.iter().enumerate() {
                let what = format!("seed {seed} round {round} ({size} keys)");
                if round == 3 {
                    rs.seal_with(&SealConfig {
                        compress: true,
                        compress_min_keys: 1,
                    });
                    assert_eq!(rs.stats().compressed_runs, 3, "{what}: columnar base");
                }
                // Tombstone some run-resident keys on both sides.
                if !seen.is_empty() {
                    for _ in 0..200 {
                        remove_both(&mut rs, &mut bt, seen[next() as usize % seen.len()]);
                    }
                    assert!(rs.stats().tombstones > 0, "{what}: tombstones");
                }
                let batch = dedupe_batch(&mut next, size, &seen);
                assert_batch_agrees(&mut rs, &mut bt, &batch, &seen, &what);
                seen.extend(batch);
            }

            // Everywhere at once: a plain base run, a young run tiered
            // beside it and a tail, some keys of each run tombstoned.
            rs.seal_with(&SealConfig::default());
            let young: Vec<IdTriple> = (0..600).map(|i| t(6_000 + i, 1, 1)).collect();
            rs.insert_batch(young.iter().copied(), &mut Vec::new());
            bt.insert_batch(young.iter().copied(), &mut Vec::new());
            let mut resident = young.clone();
            for i in 0..50 {
                let triple = t(7_000 + i, 2, 2);
                insert_both(&mut rs, &mut bt, triple);
                resident.push(triple);
            }
            for i in 0..300 {
                let from = if i % 3 == 0 { &young } else { &seen };
                remove_both(&mut rs, &mut bt, from[next() as usize % from.len()]);
            }
            let stats = rs.stats();
            assert_eq!((stats.runs, stats.tail), (2, 50), "seed {seed}: {stats:?}");
            assert!(stats.tombstones > 0, "seed {seed}: {stats:?}");
            resident.extend(seen.iter().step_by(3));
            for size in [4_103, 90] {
                let what = format!("seed {seed} everywhere ({size} keys)");
                let (mut rs, mut bt) = (rs.clone(), bt.clone());
                let batch = dedupe_batch(&mut next, size, &resident);
                assert_batch_agrees(&mut rs, &mut bt, &batch, &resident, &what);
            }
        }
    }

    /// `size` keys: repeats of the batch's own keys, keys of `offered`
    /// (present or tombstoned) and fresh draws, about a quarter each.
    fn dedupe_batch(
        next: &mut impl FnMut() -> u64,
        size: usize,
        offered: &[IdTriple],
    ) -> Vec<IdTriple> {
        let mut batch: Vec<IdTriple> = Vec::with_capacity(size);
        while batch.len() < size {
            let r = next();
            let triple = match r % 8 {
                0 | 1 if !batch.is_empty() => batch[(r >> 8) as usize % batch.len()],
                2 | 3 if !offered.is_empty() => offered[(r >> 8) as usize % offered.len()],
                _ => t(
                    ((r >> 8) % 5_000) as u32,
                    ((r >> 24) % 6) as u32,
                    ((r >> 32) % 40) as u32,
                ),
            };
            batch.push(triple);
        }
        batch
    }

    /// Inserts `batch` into both stores and holds `rs` to the B-tree
    /// oracle `bt`: the same `added` list, then every observable, and
    /// membership of the batch's keys and of `offered`.
    fn assert_batch_agrees(
        rs: &mut TripleStore,
        bt: &mut TripleStore,
        batch: &[IdTriple],
        offered: &[IdTriple],
        what: &str,
    ) {
        let (mut added, mut expected) = (Vec::new(), Vec::new());
        rs.insert_batch(batch.iter().copied(), &mut added);
        bt.insert_batch(batch.iter().copied(), &mut expected);
        assert_eq!(added, expected, "{what}: added");
        assert_matches_oracle(rs, bt, what);
        for &triple in batch.iter().chain(offered) {
            assert_eq!(
                rs.contains(triple),
                bt.contains(triple),
                "{what}: {triple:?}"
            );
        }
    }

    /// A seeded SplitMix64 stream shared by the seeded sweeps.
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
        // Bounded probes: per-subject SPO ranges seek into every run.
        for s in 0..40u32 {
            assert_eq!(
                collect_range(store, Perm::Spo, [s, 0, 0], [s, u32::MAX, u32::MAX]),
                collect_range(bt, Perm::Spo, [s, 0, 0], [s, u32::MAX, u32::MAX]),
                "{what}: subject {s} range"
            );
        }
    }

    /// The galloped upper bound at its edges, against the B-tree
    /// backend, in all three permutations: ranges of exactly 0, 1, 2 and
    /// 2ᵏ − 1, 2ᵏ, 2ᵏ + 1 keys starting at the run's first key, in its
    /// middle and ending on its last, the whole run, and `hi = [MAX; 3]`
    /// — on one sealed run, and on a run stack under a tail with
    /// tombstones, where every source takes the same bound.
    #[test]
    fn range_edges_agree_with_the_btree_backend() {
        let mut next = splitmix(0x6A11_0B0D);
        let mut bt = TripleStore::new(StorageBackend::BTree);
        let mut rs = TripleStore::new(StorageBackend::SortedRuns);
        while bt.len() < 830 {
            let triple = t(
                (next() % 24) as u32,
                (next() % 5) as u32,
                (next() % 40) as u32,
            );
            insert_both(&mut rs, &mut bt, triple);
        }
        let resident = collect_range(&bt, Perm::Spo, [0; 3], [u32::MAX; 3]);
        for dead in resident.iter().step_by(23) {
            remove_both(&mut rs, &mut bt, *dead);
        }
        let stacked = rs.stats();
        assert!(stacked.runs >= 2 && stacked.tail > 0 && stacked.tombstones > 0);
        let mut sealed = rs.clone();
        sealed.seal();
        assert_eq!((sealed.stats().runs, sealed.stats().tail), (1, 0));

        for perm in [Perm::Spo, Perm::Pos, Perm::Osp] {
            let keys: Vec<[u32; 3]> = collect_range(&bt, perm, [0; 3], [u32::MAX; 3])
                .into_iter()
                .map(|triple| perm.permute(triple))
                .collect();
            let n = keys.len();
            let mut lens = vec![1, 2, n];
            lens.extend((2..10).flat_map(|k| [(1 << k) - 1, 1 << k, (1 << k) + 1]));
            let mut checked = 0;
            for (what, store) in [("sealed", &sealed), ("stacked", &rs)] {
                let mut check = |lo: [u32; 3], hi: [u32; 3], want: usize| {
                    let got = collect_range(store, perm, lo, hi);
                    assert_eq!(
                        got,
                        collect_range(&bt, perm, lo, hi),
                        "{what} {perm:?} {lo:?}..={hi:?}"
                    );
                    assert_eq!(got.len(), want, "{what} {perm:?} {lo:?}..={hi:?}");
                    checked += 1;
                };
                for &len in lens.iter().filter(|&&len| len <= n) {
                    for start in [0, (n - len) / 2, n - len] {
                        check(keys[start], keys[start + len - 1], len);
                        check(keys[start], [u32::MAX; 3], n - start);
                    }
                }
                // Empty: between two keys, below the first, above the last.
                let gap = keys
                    .windows(2)
                    .map(|w| [w[0][0], w[0][1], w[0][2] + 1])
                    .find(|k| keys.binary_search(k).is_err())
                    .unwrap_or([u32::MAX; 3]);
                check(gap, gap, 0);
                check([0; 3], [0; 3], usize::from(keys[0] == [0; 3]));
                check([u32::MAX - 1; 3], [u32::MAX; 3], 0);
                check([0; 3], [u32::MAX; 3], n);
            }
            assert!(checked > 2 * 6 * 20, "{perm:?}: {checked} ranges");
        }
    }

    /// Columnar ≡ plain ≡ BTree under a mixed
    /// insert/remove/batch/seal/reseal workload — the seeded proptest
    /// the `seal_with` path is pinned by.
    #[test]
    fn plain_and_columnar_seals_agree_with_oracle() {
        for seed in [1u64, 0xBEEF, 0x5EED_5EED] {
            let mut next = splitmix(seed);
            let mut bt = TripleStore::new(StorageBackend::BTree);
            let mut rs = TripleStore::new(StorageBackend::SortedRuns);
            let configs = [
                SealConfig {
                    compress: true,
                    compress_min_keys: 8,
                },
                SealConfig {
                    compress: true,
                    compress_min_keys: 1,
                },
                SealConfig::default(), // decodes back to a plain run
                SealConfig {
                    compress: true,
                    compress_min_keys: usize::MAX, // too few keys: plain
                },
                SealConfig {
                    compress: true,
                    compress_min_keys: 8,
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
                let columnar = cfg.compress && cfg.compress_min_keys <= rs.len();
                assert_eq!(stats.compressed_runs, if columnar { 3 } else { 0 });
                assert_eq!((stats.runs, stats.run_keys), (1, rs.len()));
                assert_matches_oracle(&rs, &bt, &format!("seed {seed} round {round}"));
            }
        }
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

    /// The published layout: at most one plain run (beside the columnar
    /// one, if any), nothing else; content and membership as the oracle
    /// has them.
    fn assert_one_clean_run(rs: &TripleStore, bt: &TripleStore, touched: &[IdTriple], what: &str) {
        let stats = rs.stats();
        let plain_runs = stats.runs - stats.compressed_runs / 3;
        assert!(
            plain_runs <= 1 && stats.tail == 0 && stats.tombstones == 0,
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
    /// over a columnar run, then everything dead.
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

            // (vi) the same sweep over columnar-resident keys: the
            // columnar run stays, the runs written since fold to one.
            f.rs.seal_with(&SealConfig {
                compress: true,
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
            assert_one_clean_run(&f.rs, &f.bt, &touched, &format!("seed {seed}, columnar"));
            let stats = f.rs.stats();
            assert_eq!(
                (stats.runs, stats.compressed_runs),
                (2, 3),
                "plain seal never re-encodes"
            );
            for triple in collect_range(&f.bt, Perm::Pos, [0; 3], [u32::MAX; 3]) {
                remove_both(&mut f.rs, &mut f.bt, triple);
            }
            f.rs.seal();
            assert_one_clean_run(
                &f.rs,
                &f.bt,
                &touched,
                &format!("seed {seed}, columnar drained"),
            );
            let stats = f.rs.stats();
            assert_eq!((stats.runs, stats.run_keys, f.rs.len()), (0, 0, 0));
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

    /// Each permutation's one plain run, where that is the store's
    /// layout: the runs a directory may index.
    fn sole_runs(store: &TripleStore) -> Option<[&Run; 3]> {
        fn sole(index: &RunIndex) -> Option<&Run> {
            match (&index.columnar, index.runs.as_slice()) {
                (None, [run]) if index.tail.is_empty() => Some(run),
                _ => None,
            }
        }
        match store {
            TripleStore::Runs(s) => Some([sole(&s.spo)?, sole(&s.pos)?, sole(&s.osp)?]),
            TripleStore::BTree(_) => None,
        }
    }

    /// Holds every directory of `store` against a fresh sweep of its run,
    /// entry for entry, and every probe shape a match makes against a
    /// B-tree of the store's own full scan (which no directory serves),
    /// and each run's directory lookup against the binary search of the
    /// same run: the same slice. First components probed: every one
    /// present, 0, the largest, absent ones between, and past the
    /// directory's end. Returns how many permutations have a directory.
    pub(crate) fn assert_directories(store: &TripleStore, what: &str) -> usize {
        let mut bt = TripleStore::new(StorageBackend::BTree);
        bt.insert_batch(
            store.range(Perm::Spo, [0; 3], [u32::MAX; 3]),
            &mut Vec::new(),
        );
        let runs = sole_runs(store);
        let mut indexed = 0;
        for (i, perm) in [Perm::Spo, Perm::Pos, Perm::Osp].into_iter().enumerate() {
            let what = format!("{what}, {perm:?}");
            let run = runs.map(|runs| runs[i]);
            if let Some(starts) = run.and_then(|run| run.starts.as_ref()) {
                let swept = sweep_directory(run.map_or(&[][..], |run| &run[..]));
                assert_eq!(Some(starts), swept.as_ref(), "{what}: directory");
                indexed += 1;
            }
            let keys: Vec<[u32; 3]> = collect_range(&bt, perm, [0; 3], [u32::MAX; 3])
                .into_iter()
                .map(|triple| perm.permute(triple))
                .collect();
            let largest = keys.last().map_or(0, |k| k[0]);
            let mut firsts: Vec<u32> = keys.iter().map(|k| k[0]).collect();
            firsts.dedup();
            let absent = (0..largest)
                .filter(|c| firsts.binary_search(c).is_err())
                .take(8);
            let mut probes: Vec<([u32; 3], [u32; 3])> = Vec::new();
            let edges = [0, largest, largest + 1, largest + 2, u32::MAX - 1, u32::MAX];
            for c in firsts.iter().copied().chain(absent).chain(edges) {
                probes.push(([c, 0, 0], [c, u32::MAX, u32::MAX]));
                probes.push(([c, 0, 0], [c, 0, u32::MAX]));
            }
            let step = (keys.len() / 400).max(1);
            for &[c, x, y] in keys.iter().step_by(step) {
                probes.extend([
                    ([c, x, 0], [c, x, u32::MAX]),
                    ([c, x, y], [c, x, y]),
                    ([c, x, y + 1], [c, x, y + 1]),
                    ([c, x + 1, 0], [c, x + 1, u32::MAX]),
                    ([c, x, y], [c, u32::MAX, u32::MAX]),
                    ([c, 0, 0], [c, x, y]),
                ]);
            }
            for (lo, hi) in probes {
                assert_eq!(
                    collect_range(store, perm, lo, hi),
                    collect_range(&bt, perm, lo, hi),
                    "{what}: {lo:?}..={hi:?}"
                );
                if let Some(run) = run {
                    let (got, want) = (run.range(lo, hi), bounded(run, lo, hi));
                    assert_eq!(got, want, "{what}: {lo:?}..={hi:?}");
                    assert!(got.is_empty() || got.as_ptr() == want.as_ptr(), "{what}");
                }
                if lo == hi {
                    let triple = perm.unpermute(lo);
                    assert_eq!(store.contains(triple), bt.contains(triple), "{what}");
                }
            }
        }
        indexed
    }

    /// A store whose first components are uneven: id 0 leads a quarter
    /// of the SPO keys (a slice past the linear scan), a few predicates
    /// lead thousands of POS keys each, the rest lead a handful.
    fn uneven(next: &mut impl FnMut() -> u64, n: usize) -> Vec<IdTriple> {
        (0..n)
            .map(|_| {
                let r = next();
                let s = if r.is_multiple_of(4) {
                    0
                } else {
                    (r >> 4) % 700
                };
                t(s as u32, ((r >> 16) % 5) as u32, ((r >> 32) % 900) as u32)
            })
            .collect()
    }

    /// The directory answers every probe shape as the binary search over
    /// the whole run does, on each layout that carries one or meets one:
    /// an empty store, a seal, a read-only copy (a clone sharing the
    /// runs and their directories), writes to the copy (a directory run
    /// under stacked runs, a tail and tombstones) and its reseal, the durable tier's reopening (`from_runs` of the
    /// snapshot, as `Graph::open` does), a compressing `seal_with` (no
    /// directory) and the plain `seal_with` back.
    #[test]
    fn directory_probes_agree_with_the_binary_search() {
        let mut empty = TripleStore::new(StorageBackend::SortedRuns);
        empty.seal();
        assert_eq!(assert_directories(&empty, "empty"), 0);
        assert_eq!(assert_directories(&empty.clone(), "empty copy"), 0);
        for seed in [21u64, 22, 23] {
            let mut next = splitmix(seed);
            let mut rs = TripleStore::new(StorageBackend::SortedRuns);
            let keys = uneven(&mut next, 6000);
            rs.insert_batch(keys.iter().copied(), &mut Vec::new());
            // One run, no tail, no tombstone, never sealed: its copy
            // has no directory, and scans by binary search.
            assert!(rs.is_sealed() && rs.stats().runs == 1);
            let unindexed = rs.clone();
            assert_eq!(
                assert_directories(&unindexed, &format!("seed {seed}, unsealed copy")),
                0
            );
            for &triple in keys.iter().step_by(7) {
                rs.remove(triple);
            }
            for triple in uneven(&mut next, 300) {
                rs.insert(triple);
            }
            assert!(rs.stats().runs >= 2 && rs.stats().tombstones > 0);
            assert_directories(&rs, &format!("seed {seed}, stacked"));
            rs.seal();
            assert_eq!(assert_directories(&rs, &format!("seed {seed}, sealed")), 3);

            let mut copy = rs.clone();
            assert_eq!(assert_directories(&copy, &format!("seed {seed}, copy")), 3);
            let shared = sole_runs(&rs).zip(sole_runs(&copy)).map(|(ours, theirs)| {
                (0..3).all(|i| {
                    let starts = ours[i].starts.as_ref().zip(theirs[i].starts.as_ref());
                    Arc::ptr_eq(&ours[i].keys, &theirs[i].keys)
                        && starts.is_some_and(|(a, b)| Arc::ptr_eq(a, b))
                })
            });
            assert_eq!(
                shared,
                Some(true),
                "seed {seed}: the copy shares the runs and their directories"
            );

            for triple in uneven(&mut next, 200) {
                copy.insert(triple);
            }
            for &triple in keys.iter().skip(3).step_by(11) {
                copy.remove(triple);
            }
            assert!(!copy.is_sealed(), "seed {seed}: written");
            assert_directories(&copy, &format!("seed {seed}, written"));
            copy.seal();
            assert_eq!(
                assert_directories(&copy, &format!("seed {seed}, resealed")),
                3
            );

            let max_term = 1 + collect_range(&copy, Perm::Spo, [0; 3], [u32::MAX; 3])
                .iter()
                .map(|t| t.s.0.max(t.p.0).max(t.o.0))
                .max()
                .unwrap_or(0);
            let reopened = TripleStore::from_runs(copy.snapshot(), max_term);
            let reopened = reopened.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(
                assert_directories(&reopened, &format!("seed {seed}, reopened")),
                3
            );

            copy.seal_with(&SealConfig {
                compress: true,
                compress_min_keys: 1,
            });
            assert_eq!(copy.stats().compressed_runs, 3);
            assert_eq!(
                assert_directories(&copy, &format!("seed {seed}, columnar")),
                0
            );
            copy.seal_with(&SealConfig::default());
            assert_eq!(
                assert_directories(&copy, &format!("seed {seed}, decoded")),
                3
            );
        }
    }

    /// A seal after a small window patches the previous directory from
    /// the window's delta: on a 20 000+-key store, after every seal of a
    /// seeded insert/remove sequence — new first components past the
    /// largest, id 0, every key of the largest removed — the patched
    /// directory equals a fresh
    /// sweep entry for entry, and a window too large to patch sweeps.
    #[test]
    fn sealing_patches_the_directory_like_a_sweep() {
        for seed in [31u64, 32] {
            let mut next = splitmix(seed);
            let mut rs = TripleStore::new(StorageBackend::SortedRuns);
            let mut bt = TripleStore::new(StorageBackend::BTree);
            let bulk: Vec<IdTriple> = (0..24_000)
                .map(|_| {
                    let r = next();
                    t(
                        1 + (r % 4000) as u32,
                        ((r >> 16) % 7) as u32,
                        ((r >> 32) % 3000) as u32,
                    )
                })
                .collect();
            rs.insert_batch(bulk.iter().copied(), &mut Vec::new());
            bt.insert_batch(bulk.into_iter(), &mut Vec::new());
            rs.seal();
            assert!(rs.len() >= 20_000);
            for round in 0..24 {
                let what = format!("seed {seed} round {round}");
                let present = collect_range(&bt, Perm::Spo, [0; 3], [u32::MAX; 3]);
                let largest = present.last().map_or(0, |t| t.s.0);
                let big = round == 11;
                let moves = if big {
                    9000
                } else {
                    20 + next() as usize % 150
                };
                if round % 3 == 0 {
                    let lo = [largest, 0, 0];
                    let hi = [largest, u32::MAX, u32::MAX];
                    for triple in collect_range(&bt, Perm::Spo, lo, hi) {
                        remove_both(&mut rs, &mut bt, triple);
                    }
                }
                for _ in 0..moves {
                    let r = next();
                    match r % 6 {
                        0..=2 => {
                            let victim = present[(r >> 8) as usize % present.len()];
                            remove_both(&mut rs, &mut bt, victim);
                        }
                        3 => {
                            insert_both(
                                &mut rs,
                                &mut bt,
                                t(
                                    largest + 1 + (r >> 8) as u32 % 3,
                                    8,
                                    (r >> 16) as u32 % 3100,
                                ),
                            );
                        }
                        4 => {
                            insert_both(
                                &mut rs,
                                &mut bt,
                                t(0, (r >> 8) as u32 % 9, 3000 + (r >> 16) as u32 % 200),
                            );
                        }
                        _ => {
                            insert_both(
                                &mut rs,
                                &mut bt,
                                t(
                                    (r >> 8) as u32 % 4000,
                                    (r >> 24) as u32 % 7,
                                    (r >> 32) as u32 % 3000,
                                ),
                            );
                        }
                    }
                }
                let before = PATCHED.with(Cell::get);
                rs.seal();
                let patched = PATCHED.with(Cell::get) - before;
                assert_eq!(
                    patched,
                    if big { 0 } else { 3 },
                    "{what}: patched directories"
                );
                assert_eq!(assert_directories(&rs, &what), 3, "{what}");
                assert_matches_oracle(&rs, &bt, &what);
            }
        }
    }

    /// Sealing again (plain `seal`) after writes on top of a columnar
    /// seal keeps the columnar run and the logical content, and a
    /// single-key range finds its key in either run form.
    #[test]
    fn plain_seal_keeps_the_columnar_run() {
        let mut rs = TripleStore::new(StorageBackend::SortedRuns);
        let mut bt = TripleStore::new(StorageBackend::BTree);
        for i in 0..(TAIL_MAX as u32 * 4) {
            rs.insert(t(i, i % 5, i % 9));
            bt.insert(t(i, i % 5, i % 9));
        }
        rs.seal_with(&SealConfig {
            compress: true,
            ..SealConfig::default()
        });
        assert_eq!((rs.stats().runs, rs.stats().compressed_runs), (1, 3));
        // Post-seal writes land in the tail; removing a columnar-resident
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
        assert_eq!(
            (stats.runs, stats.compressed_runs),
            (2, 3),
            "plain seal never re-encodes"
        );
        assert_eq!(stats.tombstones, 0);
        assert_eq!(stats.run_keys, bt.len(), "the dead key is gone physically");
        assert_matches_oracle(&rs, &bt, "resealed over a columnar run");
        // Exact triple probes (single-key range in every permutation).
        for probe in [t(3, 3, 3), t(100_005, 1, 1)] {
            for perm in [Perm::Spo, Perm::Pos, Perm::Osp] {
                let key = perm.permute(probe);
                assert_eq!(collect_range(&rs, perm, key, key), vec![probe]);
            }
        }
    }
}
