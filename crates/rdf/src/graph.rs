//! The indexed triple store.
//!
//! A [`Graph`] owns a [`TermDict`] and keeps each triple in three
//! permutation indexes (SPO, POS, OSP), so every one of the eight
//! bound/unbound shapes of a triple pattern is answered by a contiguous
//! range scan over one of them — the substrate the graph-pattern
//! evaluator in `rps-query` builds on.
//!
//! The physical layout of those indexes lives in [`crate::store`] and is
//! chosen per graph with [`StorageBackend`]: the default is **sorted-run
//! / merge-batch storage** (immutable sorted runs + a small mutable
//! tail, size-tiered compaction, tombstoned removals), with the original
//! three-`BTreeSet` layout retained as an oracle and benchmark baseline.
//! Logical behaviour — membership, scan order, the insertion log and its
//! delta windows — is identical across backends; the repo benchmark's
//! storage ladder (`rdf.ladder.*`) measures the difference in cost.
//!
//! Independently of the backend, a graph maintains an append-only
//! **insertion log** ([`Graph::log_since`]): consumers such as the
//! semi-naive chase snapshot `log_len()` as a *mark* and later iterate
//! exactly the triples added since. Removals tombstone their log entry
//! instead of erasing it, so marks stay valid across removals — and
//! because compaction never changes the logical key set, marks are
//! unaffected by flushes and merges too.
//!
//! ```
//! use rps_rdf::{Graph, StorageBackend, Term};
//!
//! let mut g = Graph::new(); // sorted-run backend by default
//! g.insert_terms(Term::iri("s"), Term::iri("p"), Term::iri("o")).unwrap();
//!
//! // Bulk loads sort once into a fresh run instead of N tail pushes.
//! let p = g.intern(&Term::iri("p"));
//! let ids: Vec<rps_rdf::IdTriple> = (0..1000)
//!     .map(|i| {
//!         let s = g.intern(&Term::iri(format!("s{i}")));
//!         let o = g.intern(&Term::iri(format!("o{}", i % 7)));
//!         rps_rdf::IdTriple::new(s, p, o)
//!     })
//!     .collect();
//! assert_eq!(g.insert_batch(ids), 1000);
//! assert_eq!(g.len(), 1001);
//!
//! // Both backends answer pattern scans identically.
//! let bt = {
//!     let mut bt = Graph::with_backend(StorageBackend::BTree);
//!     bt.merge(&g);
//!     bt
//! };
//! assert_eq!(
//!     g.match_ids(None, Some(p), None).count(),
//!     bt.match_ids(None, bt.term_id(&Term::iri("p")), None).count(),
//! );
//! ```

use crate::dict::{TermDict, TermId};
use crate::error::RdfError;
use crate::order::TermOrder;
use crate::stats::{GraphStats, PredicateStats};
use crate::store::{
    gallop_pays, Perm, SealConfig, StorageBackend, StorageStats, StoreRangeIter, TripleStore,
};
use crate::term::Term;
use crate::triple::{IdTriple, Triple};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

const MIN: u32 = u32::MIN;
const MAX: u32 = u32::MAX;

/// An RDF graph (a set of RDF triples) with dictionary-interned terms and
/// three permutation indexes.
#[derive(Clone, Default)]
pub struct Graph {
    dict: TermDict,
    /// The physical permutation indexes (see [`crate::store`]).
    store: TripleStore,
    /// Number of triples per predicate id, maintained for selectivity
    /// estimation in the query planner.
    pred_counts: HashMap<TermId, usize>,
    /// Insertion-ordered, append-only log of the triples added to this
    /// graph, powering delta-driven (semi-naive) consumers: "the triples
    /// added since log index `n`" is the window `log_since(n)`. Removing
    /// a triple *tombstones* its entry (see [`Graph::remove_ids`])
    /// instead of erasing it, so log indexes — and outstanding marks —
    /// stay stable across removals.
    log: Vec<IdTriple>,
    /// Tombstone bitset over `log`, one bit per entry. Stays empty until
    /// the first removal, so insert-only consumers pay nothing.
    log_dead: Vec<u64>,
    /// Lazily-built map from a live triple to its log index. Built on the
    /// first removal (one pass over the log) and maintained incrementally
    /// afterwards, making removal O(1) amortised; insert-only workloads
    /// never allocate it.
    log_pos: Option<HashMap<IdTriple, u32>>,
    /// Durability counters (see [`DurCounters`]); all zeros until the
    /// graph touches the durable tier.
    dur: DurCounters,
    /// The planner statistics snapshot (see [`GraphStats`]). Populated
    /// by the first [`Graph::graph_stats`] call against the sealed graph
    /// or by [`Graph::seal`] patching `stats_base`, and emptied by any
    /// mutation, so a held snapshot always describes the current logical
    /// content. `OnceLock` because sealed graphs are shared read-only
    /// across threads (frozen sessions) while the first planner request
    /// builds it.
    stats: OnceLock<Arc<GraphStats>>,
    /// The snapshot the first mutation since took out of `stats`, kept
    /// for the next [`Graph::seal`] to patch instead of sweeping the
    /// graph again.
    stats_base: Option<StatsBase>,
    /// The dictionary's term order (see [`TermOrder`]). Populated by the
    /// first [`Graph::term_order`] call — a sweep, or a patch of
    /// `order_base` — and emptied by the first intern of a new term, so
    /// a held order always ranks every id of the dictionary.
    order: OnceLock<Arc<TermOrder>>,
    /// The last order intern took out of `order` (or one adopted from a
    /// copy): it still ranks every id it did, and the next order merges
    /// the terms interned since into it.
    order_base: Option<Arc<TermOrder>>,
}

/// A statistics snapshot that stopped being current, with what it takes
/// to bring it up to date. Insertions record nothing here — the
/// insertion log past `mark` already lists them.
#[derive(Clone)]
struct StatsBase {
    stats: Arc<GraphStats>,
    /// [`Graph::log_len`] when the snapshot was last current: every
    /// triple it counts has its log entry below the mark.
    mark: usize,
    /// The triples removed since whose log entry was below the mark,
    /// once each (an entry dies once). A removal at or above the mark
    /// undid an insertion of the window and the log window skips it.
    removed: Vec<IdTriple>,
}

/// Counters for the durable tier, reported through
/// [`Graph::storage_stats`]. Atomic because [`Graph::persist`] takes
/// `&self` — a sealed graph may be shared read-only (e.g. inside a
/// frozen session) while being checkpointed — and `Graph` must stay
/// `Sync`.
#[derive(Default, Debug)]
pub(crate) struct DurCounters {
    pub(crate) pages_written: AtomicU64,
    pub(crate) pages_read: AtomicU64,
    pub(crate) pool_hits: AtomicU64,
    pub(crate) pool_misses: AtomicU64,
}

impl Clone for DurCounters {
    fn clone(&self) -> Self {
        let ld = |a: &AtomicU64| AtomicU64::new(a.load(Ordering::Relaxed));
        DurCounters {
            pages_written: ld(&self.pages_written),
            pages_read: ld(&self.pages_read),
            pool_hits: ld(&self.pool_hits),
            pool_misses: ld(&self.pool_misses),
        }
    }
}

impl DurCounters {
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    fn merge_into(&self, stats: &mut StorageStats) {
        stats.pages_written = self.pages_written.load(Ordering::Relaxed);
        stats.pages_read = self.pages_read.load(Ordering::Relaxed);
        stats.pool_hits = self.pool_hits.load(Ordering::Relaxed);
        stats.pool_misses = self.pool_misses.load(Ordering::Relaxed);
    }
}

fn bit_get(bits: &[u64], i: usize) -> bool {
    bits.get(i / 64).is_some_and(|w| w & (1 << (i % 64)) != 0)
}

fn bit_set(bits: &mut Vec<u64>, i: usize) {
    let word = i / 64;
    if bits.len() <= word {
        bits.resize(word + 1, 0);
    }
    bits[word] |= 1 << (i % 64);
}

impl Graph {
    /// Creates an empty graph with the default (sorted-run) backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with an explicit storage backend. Logical
    /// behaviour is backend-independent; use [`StorageBackend::BTree`]
    /// only to compare physical layouts (as the agreement tests do).
    pub fn with_backend(backend: StorageBackend) -> Self {
        Graph {
            store: TripleStore::new(backend),
            ..Self::default()
        }
    }

    /// The storage backend this graph was created with.
    pub fn backend(&self) -> StorageBackend {
        self.store.backend()
    }

    /// Physical counters of the storage layer (run/tail/tombstone sizes
    /// plus the durability counters — pages read/written, buffer-pool
    /// hits/misses). For tests and benchmarks; the run counters are zero
    /// for the B-tree backend and the durability counters are zero until
    /// the graph touches the durable tier.
    pub fn storage_stats(&self) -> StorageStats {
        let mut stats = self.store.stats();
        self.dur.merge_into(&mut stats);
        if let Some(gs) = self.stats.get() {
            stats.stats_predicates = gs.predicates();
            stats.stats_distinct_subjects = gs.distinct_subjects;
            stats.stats_distinct_objects = gs.distinct_objects;
            stats.stats_build_nanos = gs.build_nanos;
        }
        stats
    }

    /// The planner statistics snapshot of this graph (see
    /// [`GraphStats`]): per-predicate counts and distinct-subject/object
    /// cardinalities, global distinct counts, and the sealed scans' key
    /// bounds. Returns `None` until the graph is sealed — the snapshot
    /// describes an immutable layout, and the cost-based planner falls
    /// back to the shape heuristic without one. A returned snapshot
    /// always matches the graph's current logical content: a mutation
    /// takes the held one away, and the next one is either patched from
    /// it by [`Graph::seal`], in `O(delta · log n)`, or built here on the
    /// first call after, by two O(n) scan passes.
    pub fn graph_stats(&self) -> Option<Arc<GraphStats>> {
        if !self.is_sealed() {
            return None;
        }
        Some(
            self.stats
                .get_or_init(|| Arc::new(self.build_stats()))
                .clone(),
        )
    }

    /// The term order of this graph's dictionary (see [`TermOrder`]): a
    /// rank per id, so rows of ids sort in [`Term`] order as integers.
    /// It always ranks every term the dictionary holds: interning a new
    /// term takes the held order away as a base, and the next call builds
    /// one — patched from the base in `O(n + k · log n)` for the `k` terms
    /// interned since when `k · 2 · ilog2(n) < n`, by a sort of the whole
    /// dictionary otherwise. Unlike [`Graph::graph_stats`] it does not
    /// need a sealed graph: it describes the dictionary, not the layout.
    pub fn term_order(&self) -> &TermOrder {
        self.order.get_or_init(|| {
            Arc::new(match &self.order_base {
                Some(base) if gallop_pays(self.dict.len() - base.len(), self.dict.len()) => {
                    base.patched(&self.dict)
                }
                _ => TermOrder::sweep(&self.dict),
            })
        })
    }

    /// Takes the term order `copy` built as the base of this graph's next
    /// one, when it is more recent than the base held. `copy` must be a
    /// [`Graph::read_only_copy`] (or a clone) of this graph, taken since
    /// its last intern or before it: its order then ranks a prefix of
    /// this dictionary's ids. A writer that publishes copies and leaves
    /// the order to the readers that need it adopts what they built, so
    /// the next patch covers the terms of one publish, not of all of them.
    pub fn adopt_term_order(&mut self, copy: &Graph) {
        let Some(order) = copy.order.get() else {
            return;
        };
        let newer = self
            .order_base
            .as_ref()
            .is_none_or(|base| base.len() < order.len());
        if self.order.get().is_none() && newer && order.len() <= self.dict.len() {
            debug_assert!(order
                .ids()
                .iter()
                .all(|&id| self.dict.term(id) == copy.term(id)));
            self.order_base = Some(order.clone());
        }
    }

    /// The full sweep, and the oracle [`GraphStats::patched`] is tested
    /// against. Two sorted scans, no hashing: in SPO order a predicate's
    /// distinct subjects are its `(s, p)` transitions; in each
    /// predicate's POS range its distinct objects are the `o`
    /// transitions. Global distinct subjects/objects use dense bitsets
    /// over the dictionary.
    fn build_stats(&self) -> GraphStats {
        let t0 = std::time::Instant::now();
        let mut preds: BTreeMap<TermId, PredicateStats> = BTreeMap::new();
        let nterms = self.dict.len();
        let mut subj_seen = vec![false; nterms];
        let mut obj_seen = vec![false; nterms];
        let mut distinct_subjects = 0usize;
        let mut distinct_objects = 0usize;
        let mut triples = 0usize;
        let mut prev_sp: Option<(TermId, TermId)> = None;
        for t in self.store.range(Perm::Spo, [MIN; 3], [MAX; 3]) {
            triples += 1;
            let e = preds.entry(t.p).or_default();
            e.count += 1;
            if prev_sp != Some((t.s, t.p)) {
                e.distinct_subjects += 1;
                prev_sp = Some((t.s, t.p));
            }
            if !subj_seen[t.s.0 as usize] {
                subj_seen[t.s.0 as usize] = true;
                distinct_subjects += 1;
            }
            if !obj_seen[t.o.0 as usize] {
                obj_seen[t.o.0 as usize] = true;
                distinct_objects += 1;
            }
        }
        for (&p, st) in preds.iter_mut() {
            let mut prev_o: Option<TermId> = None;
            for t in self
                .store
                .range(Perm::Pos, [p.0, MIN, MIN], [p.0, MAX, MAX])
            {
                if prev_o != Some(t.o) {
                    st.distinct_objects += 1;
                    prev_o = Some(t.o);
                }
            }
        }
        GraphStats {
            preds,
            triples,
            distinct_subjects,
            distinct_objects,
            spo_bounds: self.store.spo_bounds(),
            build_nanos: t0.elapsed().as_nanos() as u64,
        }
    }

    /// Checkpoints the graph into `dir` so [`Graph::open`] can rebuild
    /// it — dictionary, triples and physical run layout — without
    /// re-deriving anything. The checkpoint is atomic: every file is
    /// written and fsynced under an epoch-stamped name, then the
    /// manifest is committed by an atomic rename; a crash at any point
    /// leaves the previous checkpoint (or nothing) intact. Tombstoned
    /// keys are physically absent from the persisted runs (a persist
    /// doubles as a purge-compaction) and the mutable tail is written
    /// as one more sorted run per permutation, so persisting does not
    /// require the graph to be sealed and leaves it as it was.
    ///
    /// Takes `&self`: a sealed graph shared read-only (e.g. inside a
    /// frozen session) can be checkpointed concurrently with readers.
    pub fn persist(&self, dir: impl AsRef<Path>) -> Result<(), RdfError> {
        crate::durable::persist_graph(self, dir.as_ref())
    }

    /// Opens a graph previously checkpointed by [`Graph::persist`]:
    /// loads the manifest, validates and reads the run pages through a
    /// buffer pool, rebuilds the dictionary from its segments, and
    /// reconstructs the in-memory point-lookup set and insertion log.
    /// The reopened graph has no tail: a tail persisted as runs comes
    /// back as runs. Anything that fails validation is a typed
    /// [`RdfError::Corrupt`] — never a panic.
    pub fn open(dir: impl AsRef<Path>) -> Result<Graph, RdfError> {
        crate::durable::open_graph(dir.as_ref())
    }

    /// Seals the graph's physical layout for read-only sharing: under
    /// the sorted-run backend the mutable tail is flushed, the runs are
    /// merged into one per permutation and every tombstone is
    /// physically dropped on the way, so subsequent `&self` scans read
    /// immutable runs only — nothing left for a writer to race with,
    /// which is what makes a sealed graph the substrate of the
    /// `Send + Sync` frozen sessions in `rps-core`/`rps-p2p`. Sealed
    /// ⇒ one run per permutation ([`StorageStats::runs`] ≤ 1), so a
    /// point probe never sets up a merge; only over a columnar run left
    /// by an earlier compressing [`Graph::seal_with`] do the writes
    /// since fold into a plain run beside it. The one plain run gets a
    /// directory over its first key component, which a bound probe
    /// reads instead of binary-searching the run: patched from the
    /// previous run's when few triples moved since the last seal (the
    /// same `delta · 2 · ilog2(n) < n` rule as the statistics below),
    /// swept otherwise. The logical triple set,
    /// the dictionary and the insertion log (and every outstanding mark
    /// into it) are unchanged; sealing a graph `seal` already left in
    /// this shape, or a B-tree graph, is a no-op.
    /// A sealed graph still accepts writes — they simply start a new
    /// tail and clear [`Graph::is_sealed`].
    ///
    /// **Planner statistics.** If the graph held a [`GraphStats`]
    /// snapshot when the writes since began, `seal` brings it up to
    /// date from their net delta — exactly, in `O(delta · log n)`
    /// probes of the new run — and [`Graph::graph_stats`] (and a
    /// [`Clone`] of the graph) finds it in place. When the delta is too
    /// large for that to beat a sweep (`delta · 2 · ilog2(n) ≥ n`), or
    /// the layout is not one plain run per permutation (a columnar run,
    /// the B-tree backend), the old snapshot is dropped and the next
    /// `graph_stats` call sweeps the graph as it does for a graph that
    /// never held one.
    pub fn seal(&mut self) {
        self.store.seal();
        self.patch_stats();
    }

    /// Turns `stats_base` into the current snapshot if it can be done
    /// for less than a sweep (see [`Graph::seal`]); drops it otherwise.
    fn patch_stats(&mut self) {
        let Some(base) = self.stats_base.take() else {
            return;
        };
        if self.stats.get().is_some() {
            return; // swept since, while sealed by accident
        }
        let Some(runs) = self.store.sealed_runs() else {
            return;
        };
        // The window's slots bound its live entries from above.
        let delta = self.log.len() - base.mark + base.removed.len();
        if !gallop_pays(delta, self.len()) {
            return;
        }
        let added: Vec<IdTriple> = self.log_since(base.mark).collect();
        debug_assert_eq!(
            base.stats.triples + added.len() - base.removed.len(),
            self.len()
        );
        let patched = base
            .stats
            .patched(&added, &base.removed, runs, self.store.spo_bounds());
        self.stats = OnceLock::from(Arc::new(patched));
    }

    /// Seals into the physical layout `cfg` asks for: one run per
    /// permutation holding every live key, stored delta-varint
    /// compressed when `cfg.compress` is set and the graph has at least
    /// `cfg.compress_min_keys` triples, as a plain key vector — what
    /// [`Graph::seal`] leaves — otherwise. Logical content, the
    /// dictionary and the insertion log are untouched, and scans stay
    /// byte-identical to the plain (and B-tree) layout; only the
    /// resident size and the cost of a scan change.
    ///
    /// ```
    /// use rps_rdf::{Graph, SealConfig, Term};
    ///
    /// let mut g = Graph::new();
    /// for i in 0..1000 {
    ///     g.insert_terms(
    ///         Term::iri(format!("s{}", i % 50)),
    ///         Term::iri("p"),
    ///         Term::iri(format!("o{i}")),
    ///     ).unwrap();
    /// }
    /// let before: Vec<_> = g.iter_ids().collect();
    ///
    /// g.seal_with(&SealConfig { compress: true, compress_min_keys: 64 });
    /// assert!(g.is_sealed());
    ///
    /// let stats = g.storage_stats();
    /// assert_eq!((stats.runs, stats.run_keys), (1, 1000));
    /// assert_eq!(stats.compressed_runs, 3); // SPO, POS, OSP
    /// // Clustered keys compress well below their plain 12-byte form.
    /// assert!(stats.compressed_bytes < stats.compressed_raw_bytes);
    /// // Scans are unchanged, byte for byte.
    /// assert_eq!(g.iter_ids().collect::<Vec<_>>(), before);
    /// ```
    pub fn seal_with(&mut self, cfg: &SealConfig) {
        self.store.seal_with(cfg);
        self.patch_stats();
    }

    /// A read-only copy of a sealed graph: what a reader of it uses and
    /// none of what only a writer does. It shares the sorted runs and
    /// the dictionary's prefix with `self` (the terms interned since the
    /// dictionary last folded are copied), copies the per-predicate
    /// counts, and carries the [`GraphStats`] snapshot and the
    /// [`TermOrder`] (or the base the next one patches), by `Arc`.
    ///
    /// The store is cloned, and a sorted-run store holds nothing
    /// proportional to its size outside its runs: of a graph
    /// [`Graph::seal`] left as one plain run per permutation, the copy
    /// holds those three runs and their first-component directories,
    /// `Arc`-shared, beside an empty tail and an empty tombstone set, so
    /// it costs three `Arc` bumps however large the graph. Its
    /// membership test ([`Graph::contains_ids`], a fully bound
    /// [`Graph::match_ids`]) is a lookup in the SPO run's directory. A
    /// graph never sealed but left as one run per permutation by a bulk
    /// [`Graph::insert_batch`] copies the same way, without
    /// directories: its probes binary-search the runs. An unsealed
    /// store also copies its tail and tombstones; the B-tree backend is
    /// copied whole.
    ///
    /// It has **no history**: its insertion log is empty, so no mark
    /// taken on `self` means anything here and a chase cannot resume
    /// from it — [`Graph::log_since`]`(0)` on the copy lists only what
    /// was inserted into the copy itself. The copy is still a complete
    /// graph (it scans, answers, persists and accepts writes like any
    /// other, its writes starting a tail over the shared runs);
    /// [`Clone`] remains the full copy, log included.
    pub fn read_only_copy(&self) -> Graph {
        Graph {
            dict: self.dict.clone(),
            store: self.store.clone(),
            pred_counts: self.pred_counts.clone(),
            dur: self.dur.clone(),
            stats: self.stats.clone(),
            order: self.order.clone(),
            order_base: self.order_base.clone(),
            ..Graph::default()
        }
    }

    /// `true` iff the mutable tail is empty and no tombstone is pending
    /// (trivially true for the B-tree backend). [`Graph::seal`] leaves
    /// the graph so, but so can a batch insert that happens to flush
    /// the tail: only `seal` also folds the runs into one.
    pub fn is_sealed(&self) -> bool {
        self.store.is_sealed()
    }

    /// Read access to the term dictionary.
    pub fn dict(&self) -> &TermDict {
        &self.dict
    }

    /// Interns a term in this graph's dictionary.
    pub fn intern(&mut self, term: &Term) -> TermId {
        let terms = self.dict.len();
        let id = self.dict.intern(term);
        if self.dict.len() > terms {
            self.retire_order();
        }
        id
    }

    /// Called when the dictionary grew: a held term order
    /// stops covering it and becomes the base of the next patch.
    fn retire_order(&mut self) {
        if let Some(order) = self.order.take() {
            self.order_base = Some(order);
        }
    }

    /// Looks up a term's id without interning.
    pub fn term_id(&self, term: &Term) -> Option<TermId> {
        self.dict.id(term)
    }

    /// Resolves an id to its term.
    pub fn term(&self, id: TermId) -> &Term {
        self.dict.term(id)
    }

    /// Inserts an owned triple, validating RDF positional constraints.
    /// Returns `true` if the triple was not already present.
    pub fn insert(&mut self, triple: &Triple) -> bool {
        let s = self.intern(triple.subject());
        let p = self.intern(triple.predicate());
        let o = self.intern(triple.object());
        self.insert_ids(IdTriple::new(s, p, o))
    }

    /// Inserts a triple given as `(s, p, o)` terms. Validates positions.
    pub fn insert_terms(
        &mut self,
        subject: Term,
        predicate: Term,
        object: Term,
    ) -> Result<bool, RdfError> {
        let t = Triple::new(subject, predicate, object)?;
        Ok(self.insert(&t))
    }

    /// Inserts an interned triple (ids must come from this graph's
    /// dictionary). Returns `true` if newly added.
    pub fn insert_ids(&mut self, t: IdTriple) -> bool {
        let added = self.store.insert(t);
        if added {
            self.note_added(t);
        }
        added
    }

    /// Bulk-inserts interned triples, returning how many were newly
    /// added (duplicates — within the batch or against the graph — are
    /// skipped; first occurrence wins, and each added triple gets one
    /// insertion-log entry in batch order).
    ///
    /// Under the sorted-run backend a batch that overflows the mutable
    /// tail is sorted **once** into a fresh run per permutation index
    /// instead of paying per-triple tail pushes and repeated threshold
    /// flushes — the fast path for the chase's conclusion application
    /// and for graph merges.
    pub fn insert_batch<I: IntoIterator<Item = IdTriple>>(&mut self, triples: I) -> usize {
        let mut added = Vec::new();
        self.store.insert_batch(triples.into_iter(), &mut added);
        for &t in &added {
            self.note_added(t);
        }
        added.len()
    }

    /// Called before a mutation is logged: a held statistics snapshot
    /// stops being current and becomes the base of the next patch. Most
    /// calls find none and do nothing — in particular nothing per
    /// insertion, whose record is the log itself.
    fn retire_stats(&mut self) {
        if let Some(stats) = self.stats.take() {
            self.stats_base = Some(StatsBase {
                stats,
                mark: self.log.len(),
                removed: Vec::new(),
            });
        }
    }

    /// Log + planner bookkeeping for one newly-stored triple.
    fn note_added(&mut self, t: IdTriple) {
        self.retire_stats();
        *self.pred_counts.entry(t.p).or_insert(0) += 1;
        if let Some(pos) = &mut self.log_pos {
            pos.insert(t, self.log.len() as u32);
        }
        self.log.push(t);
    }

    /// The number of log slots so far (insertions, including tombstoned
    /// ones). A snapshot of this value marks a delta window for
    /// [`Graph::log_since`].
    ///
    /// The log is append-only: removals tombstone their entry rather than
    /// erasing it, so indexes never shift and a mark taken before a
    /// removal still bounds exactly the insertions made after it.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// The still-present triples inserted at log index `from` or later,
    /// in insertion order (tombstoned entries are skipped).
    pub fn log_since(&self, from: usize) -> LogWindow<'_> {
        LogWindow {
            log: &self.log,
            dead: &self.log_dead,
            next: from.min(self.log.len()),
        }
    }

    /// The log entry at index `i`, or `None` if it is out of range or
    /// tombstoned by a removal.
    pub fn log_entry(&self, i: usize) -> Option<IdTriple> {
        if i < self.log.len() && !bit_get(&self.log_dead, i) {
            Some(self.log[i])
        } else {
            None
        }
    }

    /// Removes an interned triple. Returns `true` if it was present.
    ///
    /// The triple's insertion-log entry is tombstoned in O(1) amortised
    /// time (the triple→index map is built lazily on the first removal
    /// and maintained incrementally from then on). In the sorted-run
    /// backend the stored key is tombstoned too when it lives in an
    /// immutable run; a later compaction drops it physically.
    pub fn remove_ids(&mut self, t: IdTriple) -> bool {
        let removed = self.store.remove(t);
        if removed {
            self.retire_stats();
            if let Some(c) = self.pred_counts.get_mut(&t.p) {
                *c -= 1;
                if *c == 0 {
                    self.pred_counts.remove(&t.p);
                }
            }
            if self.log_pos.is_none() {
                // First removal: index the live log entries (each present
                // triple has exactly one non-tombstoned entry).
                let map: HashMap<IdTriple, u32> = self
                    .log
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| !bit_get(&self.log_dead, i))
                    .map(|(i, &entry)| (entry, i as u32))
                    .collect();
                self.log_pos = Some(map);
            }
            let pos = self.log_pos.as_mut().expect("just built");
            // Every present triple has one live log entry — except in a
            // `read_only_copy`, whose triples all predate its log.
            let entry = pos.remove(&t).map(|i| i as usize);
            if let Some(i) = entry {
                bit_set(&mut self.log_dead, i);
            }
            if let Some(base) = &mut self.stats_base {
                if entry.is_none_or(|i| i < base.mark) {
                    base.removed.push(t);
                    // Past what a seal would patch from: stop listing.
                    if !gallop_pays(base.removed.len(), self.store.len()) {
                        self.stats_base = None;
                    }
                }
            }
        }
        removed
    }

    /// Removes an owned triple. Returns `true` if it was present.
    pub fn remove(&mut self, triple: &Triple) -> bool {
        let (Some(s), Some(p), Some(o)) = (
            self.dict.id(triple.subject()),
            self.dict.id(triple.predicate()),
            self.dict.id(triple.object()),
        ) else {
            return false;
        };
        self.remove_ids(IdTriple::new(s, p, o))
    }

    /// Membership test on interned ids.
    pub fn contains_ids(&self, t: IdTriple) -> bool {
        self.store.contains(t)
    }

    /// Membership test on an owned triple.
    pub fn contains(&self, triple: &Triple) -> bool {
        match (
            self.dict.id(triple.subject()),
            self.dict.id(triple.predicate()),
            self.dict.id(triple.object()),
        ) {
            (Some(s), Some(p), Some(o)) => self.contains_ids(IdTriple::new(s, p, o)),
            _ => false,
        }
    }

    /// Number of triples in the graph.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the graph has no triples.
    pub fn is_empty(&self) -> bool {
        self.store.len() == 0
    }

    /// Iterates over all triples as interned ids, in SPO order.
    pub fn iter_ids(&self) -> impl Iterator<Item = IdTriple> + '_ {
        self.store.range(Perm::Spo, [MIN; 3], [MAX; 3])
    }

    /// Iterates over all triples as owned terms, in SPO order.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.iter_ids().map(|t| self.materialise(t))
    }

    /// Reconstructs an owned [`Triple`] from an interned one.
    pub fn materialise(&self, t: IdTriple) -> Triple {
        Triple::new_unchecked(
            self.dict.term(t.s).clone(),
            self.dict.term(t.p).clone(),
            self.dict.term(t.o).clone(),
        )
    }

    /// Matches a triple pattern given as optionally-bound interned ids.
    ///
    /// Every combination of bound positions is served by a contiguous range
    /// scan over one of the three permutation indexes — under the
    /// sorted-run backend, one run's range slice once sealed and a
    /// merge of the runs' slices and the tail's matches before, in the
    /// same key order a B-tree scan yields. A sealed plain run finds the
    /// slice of any pattern with a bound position through its directory
    /// over the scanned permutation's first component: two loads, then
    /// a search among the keys of that component and of the one other
    /// sharing its entry.
    pub fn match_ids(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> MatchIter<'_> {
        let (perm, lo, hi) = match (s, p, o) {
            (Some(s), Some(p), Some(o)) => {
                let t = IdTriple::new(s, p, o);
                return if self.store.contains(t) {
                    MatchIter::single(t)
                } else {
                    MatchIter::empty()
                };
            }
            (Some(s), Some(p), None) => (Perm::Spo, [s.0, p.0, MIN], [s.0, p.0, MAX]),
            (Some(s), None, None) => (Perm::Spo, [s.0, MIN, MIN], [s.0, MAX, MAX]),
            (Some(s), None, Some(o)) => (Perm::Osp, [o.0, s.0, MIN], [o.0, s.0, MAX]),
            (None, Some(p), Some(o)) => (Perm::Pos, [p.0, o.0, MIN], [p.0, o.0, MAX]),
            (None, Some(p), None) => (Perm::Pos, [p.0, MIN, MIN], [p.0, MAX, MAX]),
            (None, None, Some(o)) => (Perm::Osp, [o.0, MIN, MIN], [o.0, MAX, MAX]),
            (None, None, None) => (Perm::Spo, [MIN; 3], [MAX; 3]),
        };
        MatchIter {
            inner: MatchIterInner::Range(self.store.range(perm, lo, hi)),
        }
    }

    /// Number of triples whose predicate is `p`.
    pub fn predicate_count(&self, p: TermId) -> usize {
        self.pred_counts.get(&p).copied().unwrap_or(0)
    }

    /// The set of distinct term ids appearing anywhere in the graph.
    pub fn terms_used(&self) -> BTreeSet<TermId> {
        let mut out = BTreeSet::new();
        for t in self.iter_ids() {
            out.insert(t.s);
            out.insert(t.p);
            out.insert(t.o);
        }
        out
    }

    /// The set of IRIs used in the graph — the *peer schema* of a peer
    /// storing this graph, per Section 2.2 of the paper.
    pub fn iris_used(&self) -> BTreeSet<crate::term::Iri> {
        let mut out = BTreeSet::new();
        for id in self.terms_used() {
            if let Term::Iri(iri) = self.dict.term(id) {
                out.insert(iri.clone());
            }
        }
        out
    }

    /// Unions another graph into this one, re-interning terms. Each
    /// distinct term of `other` is interned once (memoised by its id),
    /// not once per occurrence, and the triples go in through the
    /// batch path ([`Graph::insert_batch`]).
    pub fn merge(&mut self, other: &Graph) {
        let terms = self.dict.len();
        let mut memo: Vec<Option<TermId>> = vec![None; other.dict.len()];
        let mut map = |dict: &mut TermDict, id: TermId| match memo[id.index()] {
            Some(mapped) => mapped,
            None => {
                let mapped = dict.intern(other.term(id));
                memo[id.index()] = Some(mapped);
                mapped
            }
        };
        let mapped: Vec<IdTriple> = other
            .iter_ids()
            .map(|t| {
                let s = map(&mut self.dict, t.s);
                let p = map(&mut self.dict, t.p);
                let o = map(&mut self.dict, t.o);
                IdTriple::new(s, p, o)
            })
            .collect();
        if self.dict.len() > terms {
            self.retire_order();
        }
        self.insert_batch(mapped);
    }

    /// Builds a graph from owned triples.
    pub fn from_triples<I: IntoIterator<Item = Triple>>(triples: I) -> Self {
        let mut g = Graph::new();
        let ids: Vec<IdTriple> = triples
            .into_iter()
            .map(|t| {
                let s = g.dict.intern(t.subject());
                let p = g.dict.intern(t.predicate());
                let o = g.dict.intern(t.object());
                IdTriple::new(s, p, o)
            })
            .collect();
        g.insert_batch(ids);
        g
    }

    /// Returns `true` iff every triple of `self` occurs in `other`
    /// (set inclusion on owned triples; dictionaries may differ).
    pub fn is_subgraph_of(&self, other: &Graph) -> bool {
        self.iter().all(|t| other.contains(&t))
    }

    /// Live-only image of the physical layout for the durable tier.
    pub(crate) fn store_snapshot(&self) -> [Vec<Vec<[u32; 3]>>; 3] {
        self.store.snapshot()
    }

    /// The durability counters (shared with the durable tier).
    pub(crate) fn dur(&self) -> &DurCounters {
        &self.dur
    }

    /// Assembles a graph from recovered parts: a rebuilt dictionary and
    /// a validated run store. The planner's predicate counts and the
    /// insertion log are reconstructed by one SPO scan — a recovered
    /// log necessarily starts fresh (log indexes are process-local
    /// marks, not durable state; see ARCHITECTURE.md).
    pub(crate) fn from_recovered(dict: TermDict, store: TripleStore, dur: DurCounters) -> Graph {
        let mut g = Graph {
            dict,
            store,
            dur,
            ..Graph::default()
        };
        let triples: Vec<IdTriple> = g.iter_ids().collect();
        for t in triples {
            g.note_added(t);
        }
        g
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("triples", &self.len())
            .field("terms", &self.dict.len())
            .finish()
    }
}

impl PartialEq for Graph {
    /// Graphs compare equal iff they contain the same set of owned triples
    /// (dictionaries, id assignments and storage backends are
    /// irrelevant).
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.is_subgraph_of(other)
    }
}

impl Eq for Graph {}

/// A delta window over the insertion log: iterates the still-present
/// triples inserted at or after some log index, in insertion order
/// (see [`Graph::log_since`]). `Clone` is cheap — consumers that pass
/// over the window several times (e.g. one pass per pivot conjunct in
/// delta query evaluation) can re-clone the window instead of collecting
/// it.
#[derive(Clone)]
pub struct LogWindow<'g> {
    log: &'g [IdTriple],
    dead: &'g [u64],
    next: usize,
}

impl LogWindow<'_> {
    /// `true` iff the window holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.clone().next().is_none()
    }
}

impl Iterator for LogWindow<'_> {
    type Item = IdTriple;

    fn next(&mut self) -> Option<IdTriple> {
        while self.next < self.log.len() {
            let i = self.next;
            self.next += 1;
            if !bit_get(self.dead, i) {
                return Some(self.log[i]);
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.log.len() - self.next))
    }
}

/// Iterator over the triples matching a pattern.
pub struct MatchIter<'g> {
    inner: MatchIterInner<'g>,
}

enum MatchIterInner<'g> {
    Empty,
    Single(Option<IdTriple>),
    Range(StoreRangeIter<'g>),
}

impl MatchIter<'_> {
    fn empty() -> Self {
        MatchIter {
            inner: MatchIterInner::Empty,
        }
    }

    fn single(t: IdTriple) -> Self {
        MatchIter {
            inner: MatchIterInner::Single(Some(t)),
        }
    }
}

impl Iterator for MatchIter<'_> {
    type Item = IdTriple;

    fn next(&mut self) -> Option<IdTriple> {
        match &mut self.inner {
            MatchIterInner::Empty => None,
            MatchIterInner::Single(t) => t.take(),
            MatchIterInner::Range(iter) => iter.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        let mut g = Graph::new();
        g.insert_terms(Term::iri("s1"), Term::iri("p1"), Term::iri("o1"))
            .unwrap();
        g.insert_terms(Term::iri("s1"), Term::iri("p1"), Term::iri("o2"))
            .unwrap();
        g.insert_terms(Term::iri("s1"), Term::iri("p2"), Term::iri("o1"))
            .unwrap();
        g.insert_terms(Term::iri("s2"), Term::iri("p1"), Term::iri("o1"))
            .unwrap();
        g.insert_terms(Term::iri("s2"), Term::iri("p2"), Term::literal("lit"))
            .unwrap();
        g
    }

    fn matches(g: &Graph, s: Option<&str>, p: Option<&str>, o: Option<&str>) -> usize {
        let id = |x: Option<&str>| x.map(|v| g.term_id(&Term::iri(v)).unwrap());
        g.match_ids(id(s), id(p), id(o)).count()
    }

    #[test]
    fn insert_is_set_semantics() {
        let mut g = Graph::new();
        let t = Triple::new(Term::iri("s"), Term::iri("p"), Term::iri("o")).unwrap();
        assert!(g.insert(&t));
        assert!(!g.insert(&t));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn all_eight_pattern_shapes() {
        let g = sample();
        assert_eq!(matches(&g, Some("s1"), Some("p1"), Some("o1")), 1);
        assert_eq!(matches(&g, Some("s1"), Some("p1"), None), 2);
        assert_eq!(matches(&g, Some("s1"), None, None), 3);
        assert_eq!(matches(&g, Some("s1"), None, Some("o1")), 2);
        assert_eq!(matches(&g, None, Some("p1"), Some("o1")), 2);
        assert_eq!(matches(&g, None, Some("p1"), None), 3);
        assert_eq!(matches(&g, None, None, Some("o1")), 3);
        assert_eq!(matches(&g, None, None, None), 5);
    }

    #[test]
    fn fully_bound_miss_is_empty() {
        let g = sample();
        assert_eq!(matches(&g, Some("s2"), Some("p1"), Some("o2")), 0);
    }

    #[test]
    fn remove_updates_all_indexes() {
        let mut g = sample();
        let t = Triple::new(Term::iri("s1"), Term::iri("p1"), Term::iri("o1")).unwrap();
        assert!(g.remove(&t));
        assert!(!g.remove(&t));
        assert_eq!(g.len(), 4);
        assert_eq!(matches(&g, Some("s1"), Some("p1"), None), 1);
        assert_eq!(matches(&g, None, Some("p1"), Some("o1")), 1);
        assert_eq!(matches(&g, None, None, Some("o1")), 2);
    }

    #[test]
    fn predicate_counts_maintained() {
        let mut g = sample();
        let p1 = g.term_id(&Term::iri("p1")).unwrap();
        assert_eq!(g.predicate_count(p1), 3);
        let t = Triple::new(Term::iri("s1"), Term::iri("p1"), Term::iri("o1")).unwrap();
        g.remove(&t);
        assert_eq!(g.predicate_count(p1), 2);
    }

    #[test]
    fn merge_reinterns() {
        let mut a = Graph::new();
        a.insert_terms(Term::iri("x"), Term::iri("p"), Term::iri("y"))
            .unwrap();
        let mut b = Graph::new();
        // Interleave so ids in b differ from ids in a for the same terms.
        b.insert_terms(Term::iri("q"), Term::iri("p"), Term::iri("x"))
            .unwrap();
        b.insert_terms(Term::iri("x"), Term::iri("p"), Term::iri("y"))
            .unwrap();
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert!(a.contains(&Triple::new(Term::iri("q"), Term::iri("p"), Term::iri("x")).unwrap()));
    }

    #[test]
    fn graph_equality_ignores_dictionaries() {
        let mut a = Graph::new();
        a.insert_terms(Term::iri("one"), Term::iri("p"), Term::iri("two"))
            .unwrap();
        let mut b = Graph::new();
        b.intern(&Term::iri("padding-term"));
        b.insert_terms(Term::iri("one"), Term::iri("p"), Term::iri("two"))
            .unwrap();
        assert_eq!(a, b);
        b.insert_terms(Term::iri("three"), Term::iri("p"), Term::iri("two"))
            .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn iris_used_excludes_literals_and_blanks() {
        let mut g = Graph::new();
        g.insert_terms(Term::blank("b"), Term::iri("p"), Term::literal("l"))
            .unwrap();
        let iris = g.iris_used();
        assert_eq!(iris.len(), 1);
        assert_eq!(iris.iter().next().unwrap().as_str(), "p");
    }

    #[test]
    fn insertion_log_windows() {
        let mut g = Graph::new();
        g.insert_terms(Term::iri("a"), Term::iri("p"), Term::iri("b"))
            .unwrap();
        let mark = g.log_len();
        assert_eq!(mark, 1);
        g.insert_terms(Term::iri("c"), Term::iri("p"), Term::iri("d"))
            .unwrap();
        // Duplicate insertion does not log.
        g.insert_terms(Term::iri("a"), Term::iri("p"), Term::iri("b"))
            .unwrap();
        assert_eq!(g.log_len(), 2);
        assert_eq!(g.log_since(mark).count(), 1);
        // Removal tombstones the log entry: indexes (and marks) stay
        // stable, but the window skips the removed triple.
        let t = Triple::new(Term::iri("c"), Term::iri("p"), Term::iri("d")).unwrap();
        g.remove(&t);
        assert_eq!(g.log_len(), 2);
        assert!(g.log_since(mark).is_empty());
        assert_eq!(
            g.log_entry(0).unwrap().s,
            g.term_id(&Term::iri("a")).unwrap()
        );
        assert!(g.log_entry(1).is_none());
        assert!(g.log_since(999).is_empty());
        // Re-insertion after removal logs a fresh entry in the window.
        g.insert_terms(Term::iri("c"), Term::iri("p"), Term::iri("d"))
            .unwrap();
        assert_eq!(g.log_since(mark).count(), 1);
        // A second removal exercises the incrementally-maintained map.
        g.remove(&t);
        assert!(g.log_since(mark).is_empty());
    }

    /// Enough inserts to force tail flushes and tiered merges, so the
    /// pattern scans below run against real runs, not just the tail.
    fn bulk(g: &mut Graph, n: u32) {
        for i in 0..n {
            g.insert_terms(
                Term::iri(format!("s{}", i % 97)),
                Term::iri(format!("p{}", i % 7)),
                Term::iri(format!("o{i}")),
            )
            .unwrap();
        }
    }

    #[test]
    fn backends_agree_after_compaction() {
        let mut runs = Graph::new();
        let mut btree = Graph::with_backend(StorageBackend::BTree);
        assert_eq!(runs.backend(), StorageBackend::SortedRuns);
        assert_eq!(btree.backend(), StorageBackend::BTree);
        bulk(&mut runs, 2000);
        bulk(&mut btree, 2000);
        assert!(runs.storage_stats().runs >= 1, "compaction happened");
        assert_eq!(runs.len(), btree.len());
        assert_eq!(runs, btree);
        // Same dictionary insertion order ⇒ same ids: compare raw scans.
        let p3 = runs.term_id(&Term::iri("p3")).unwrap();
        let s5 = runs.term_id(&Term::iri("s5")).unwrap();
        for (s, p, o) in [
            (None, None, None),
            (None, Some(p3), None),
            (Some(s5), None, None),
            (Some(s5), Some(p3), None),
        ] {
            let a: Vec<IdTriple> = runs.match_ids(s, p, o).collect();
            let b: Vec<IdTriple> = btree.match_ids(s, p, o).collect();
            assert_eq!(a, b, "scan order identical across backends");
        }
    }

    #[test]
    fn insert_batch_dedups_and_logs_in_order() {
        let mut g = Graph::new();
        let s = g.intern(&Term::iri("s"));
        let p = g.intern(&Term::iri("p"));
        let o1 = g.intern(&Term::iri("o1"));
        let o2 = g.intern(&Term::iri("o2"));
        g.insert_ids(IdTriple::new(s, p, o1));
        let mark = g.log_len();
        let added = g.insert_batch(vec![
            IdTriple::new(s, p, o2),
            IdTriple::new(s, p, o1), // already present
            IdTriple::new(s, p, o2), // batch duplicate
        ]);
        assert_eq!(added, 1);
        assert_eq!(g.len(), 2);
        let window: Vec<IdTriple> = g.log_since(mark).collect();
        assert_eq!(window, vec![IdTriple::new(s, p, o2)]);
    }

    #[test]
    fn large_batch_skips_the_tail() {
        let mut g = Graph::new();
        let p = g.intern(&Term::iri("p"));
        let ids: Vec<IdTriple> = (0..4000)
            .map(|i| {
                let s = g.intern(&Term::iri(format!("s{i}")));
                let o = g.intern(&Term::iri(format!("o{}", i % 11)));
                IdTriple::new(s, p, o)
            })
            .collect();
        assert_eq!(g.insert_batch(ids.clone()), 4000);
        let stats = g.storage_stats();
        assert_eq!(stats.tail, 0, "batch went straight into a run");
        assert_eq!(g.len(), 4000);
        // Batch again: all duplicates.
        assert_eq!(g.insert_batch(ids), 0);
        assert_eq!(g.match_ids(None, Some(p), None).count(), 4000);
    }

    #[test]
    fn marks_survive_removals_and_compaction() {
        // The satellite scenario: marks taken before/after removals must
        // still bound exactly the insertions made after them, even when
        // sorted-run flushes and merges happen in between.
        let mut g = Graph::new();
        bulk(&mut g, 600); // several flushes
        let before_removals = g.log_len();

        // Remove a slice of triples that now live inside runs.
        let p0 = g.term_id(&Term::iri("p0")).unwrap();
        let victims: Vec<IdTriple> = g.match_ids(None, Some(p0), None).take(40).collect();
        for &v in &victims {
            assert!(g.remove_ids(v));
        }
        assert_eq!(g.storage_stats().tombstones, 40);
        // A mark taken before the removals sees no live additions.
        assert!(g.log_since(before_removals).is_empty());

        let after_removals = g.log_len();
        // Keep inserting to force more flushes/merges over the
        // tombstoned runs.
        for i in 0..600u32 {
            g.insert_terms(
                Term::iri(format!("post{i}")),
                Term::iri("p-new"),
                Term::iri(format!("o{i}")),
            )
            .unwrap();
        }
        // The windows bound exactly the post-removal insertions.
        assert_eq!(g.log_since(after_removals).count(), 600);
        assert_eq!(g.log_since(before_removals).count(), 600);

        // Removed triples are gone from every scan shape...
        for &v in &victims {
            assert!(!g.contains_ids(v));
            assert!(!g.match_ids(Some(v.s), Some(v.p), None).any(|x| x == v));
            assert!(!g.match_ids(None, None, Some(v.o)).any(|x| x == v));
        }
        // ...and re-inserting one logs a fresh entry visible to old marks.
        let back = victims[0];
        assert!(g.insert_ids(back));
        assert_eq!(g.log_since(after_removals).count(), 601);
        assert!(g.log_since(before_removals).any(|t| t == back));
        assert!(g.contains_ids(back));
    }

    #[test]
    fn sealing_preserves_contents_log_and_marks() {
        let mut g = Graph::new();
        bulk(&mut g, 700);
        let mark = g.log_len();
        let victim = g.iter_ids().next().unwrap();
        g.remove_ids(victim);
        g.insert_terms(Term::iri("late"), Term::iri("p-late"), Term::iri("o"))
            .unwrap();
        let before: Vec<IdTriple> = g.iter_ids().collect();
        assert!(!g.is_sealed());
        g.seal();
        assert!(g.is_sealed());
        let stats = g.storage_stats();
        assert_eq!((stats.tail, stats.tombstones), (0, 0));
        let after: Vec<IdTriple> = g.iter_ids().collect();
        assert_eq!(before, after, "sealing changes nothing logical");
        assert!(!g.contains_ids(victim));
        // Marks still bound exactly the post-mark insertions.
        assert_eq!(g.log_since(mark).count(), 1);
    }

    fn id(s: u32, p: u32, o: u32) -> IdTriple {
        IdTriple::new(TermId(s), TermId(p), TermId(o))
    }

    /// One key in the shapes of `store::tests::big_run_fixture`: seven
    /// predicates, fifty objects, `subjects` subjects from `base` up.
    fn draw(next: &mut impl FnMut() -> u64, base: u32, subjects: u64) -> IdTriple {
        let r = next();
        id(
            base + (r % subjects) as u32,
            ((r >> 16) % 7) as u32,
            ((r >> 32) % 50) as u32,
        )
    }

    /// A sealed graph of 20 000+ keys over subjects 100..4100 — the
    /// size a live epoch's window is small against.
    fn stats_fixture(next: &mut impl FnMut() -> u64, backend: StorageBackend) -> Graph {
        let mut g = Graph::with_backend(backend);
        for i in 0..5000 {
            g.intern(&Term::iri(format!("t{i}")));
        }
        let bulk: Vec<IdTriple> = (0..24_000).map(|_| draw(next, 100, 4000)).collect();
        g.insert_batch(bulk);
        g.seal();
        assert!(g.len() >= 20_000);
        g
    }

    /// `n` keys of the graph, drawn with repeats.
    fn some_present(g: &Graph, next: &mut impl FnMut() -> u64, n: usize) -> Vec<IdTriple> {
        let all: Vec<IdTriple> = g.iter_ids().collect();
        (0..n).map(|_| all[next() as usize % all.len()]).collect()
    }

    /// Seals, then holds the snapshot the seal installed — there must be
    /// one before anybody asks — against the full sweep, field by field
    /// (`build_nanos` is a wall time).
    fn reseal_patched(g: &mut Graph, what: &str) {
        g.seal();
        let patched = g.stats.get().unwrap_or_else(|| panic!("{what}: patched"));
        assert!(g.stats_base.is_none(), "{what}: base consumed");
        let swept = g.build_stats();
        assert_eq!(patched.triples, swept.triples, "{what}");
        assert_eq!(patched.preds, swept.preds, "{what}");
        assert_eq!(patched.distinct_subjects, swept.distinct_subjects, "{what}");
        assert_eq!(patched.distinct_objects, swept.distinct_objects, "{what}");
        assert_eq!(patched.spo_bounds, swept.spo_bounds, "{what}");
        assert_eq!(
            g.clone().storage_stats().stats_predicates,
            swept.predicates(),
            "{what}: a clone carries the snapshot"
        );
    }

    #[test]
    fn seal_patches_statistics_like_the_sweep() {
        for seed in [3u64, 17, 20_260] {
            let next = &mut crate::store::tests::splitmix(seed);
            let mut g = stats_fixture(next, StorageBackend::SortedRuns);
            assert!(g.stats.get().is_none(), "never asked, nothing to patch");
            g.graph_stats().expect("sealed");
            let g = &mut g;

            // A live batch's shape: removals all over the run, more
            // insertions (some of them duplicates), a few taken back.
            for t in some_present(g, next, 150) {
                g.remove_ids(t);
            }
            let fresh: Vec<IdTriple> = (0..300).map(|_| draw(next, 60, 4200)).collect();
            g.insert_batch(fresh.iter().copied());
            for &t in fresh.iter().step_by(40) {
                g.remove_ids(t);
            }
            reseal_patched(g, &format!("seed {seed}: mixed window"));

            let old = some_present(g, next, 2);
            assert!(g.remove_ids(old[0]) && g.insert_ids(old[0]));
            reseal_patched(g, "removed and re-inserted");
            assert!(g.insert_ids(id(200, 3, 70)) && g.remove_ids(id(200, 3, 70)));
            reseal_patched(g, "inserted and removed inside the window");
            assert!(g.insert_ids(id(200, 3, 71)) && g.remove_ids(id(200, 3, 71)));
            assert!(g.insert_ids(id(200, 3, 71)));
            reseal_patched(g, "insert, remove, insert");
            assert!(g.remove_ids(old[1]) && g.insert_ids(old[1]) && g.remove_ids(old[1]));
            reseal_patched(g, "remove, insert, remove");

            // A brand-new predicate, then the same predicate losing its
            // last triple: the entry comes and goes.
            g.insert_batch([id(300, 9, 5), id(301, 9, 5), id(300, 9, 6)]);
            reseal_patched(g, "new predicate");
            let stats = g.graph_stats().unwrap();
            assert_eq!(stats.predicates(), 8);
            assert_eq!(
                stats.predicate(TermId(9)),
                Some(&PredicateStats {
                    count: 3,
                    distinct_subjects: 2,
                    distinct_objects: 2
                })
            );
            for t in [id(300, 9, 5), id(301, 9, 5), id(300, 9, 6)] {
                assert!(g.remove_ids(t));
            }
            reseal_patched(g, "predicate lost its last triple");
            let stats = g.graph_stats().unwrap();
            assert_eq!(stats.predicates(), 7);
            assert!(stats.predicate(TermId(9)).is_none());

            // A subject and an object nothing else uses: gone from one
            // predicate first, from the graph second.
            g.insert_batch([
                id(4600, 1, 5),
                id(4600, 2, 6),
                id(500, 1, 80),
                id(501, 2, 80),
            ]);
            reseal_patched(g, "new subject, new object");
            assert!(g.remove_ids(id(4600, 1, 5)) && g.remove_ids(id(500, 1, 80)));
            reseal_patched(g, "last triple within one predicate");
            assert!(g.remove_ids(id(4600, 2, 6)) && g.remove_ids(id(501, 2, 80)));
            reseal_patched(g, "last triple overall");
            let subject = some_present(g, next, 1)[0].s;
            let of_subject: Vec<IdTriple> = g.match_ids(Some(subject), None, None).collect();
            for t in of_subject {
                g.remove_ids(t);
            }
            reseal_patched(g, "an old subject emptied");

            // The two ends of the SPO run.
            let first = g.iter_ids().next().unwrap();
            let last = g.iter_ids().last().unwrap();
            assert!(g.remove_ids(first) && g.remove_ids(last));
            reseal_patched(g, "first and last key removed");
            assert!(g.insert_ids(id(50, 0, 0)) && g.insert_ids(id(4900, 6, 49)));
            reseal_patched(g, "new smallest and largest subject");
            let bounds = g.graph_stats().unwrap().spo_bounds;
            assert_eq!(bounds, Some((id(50, 0, 0), id(4900, 6, 49))));

            let before = Arc::clone(g.stats.get().unwrap());
            g.seal();
            assert!(
                Arc::ptr_eq(&before, g.stats.get().unwrap()),
                "an empty window keeps the snapshot"
            );
            g.insert_batch((0..200).map(|_| draw(next, 60, 4200)));
            reseal_patched(g, "insert-only window");
            for t in some_present(g, next, 200) {
                g.remove_ids(t);
            }
            reseal_patched(g, "remove-only window");
        }
    }

    #[test]
    fn seal_leaves_statistics_to_the_sweep_when_a_patch_cannot_pay() {
        let next = &mut crate::store::tests::splitmix(5);
        // `n` keys the fixture does not hold, distinct per `round`.
        let fresh =
            |n: u32, round: u32| (0..n).map(move |i| id(4200 + i % 700, i / 700, 60 + round));

        // No base: a graph nobody asked for statistics.
        let mut g = stats_fixture(next, StorageBackend::SortedRuns);
        g.insert_batch(fresh(10, 0));
        g.seal();
        assert!(g.stats.get().is_none() && g.stats_base.is_none());

        // A window over the size rule (24k keys: 1000 · 2 · 14 > n) — and
        // the sweep it falls back to arms the next, small one.
        g.graph_stats().expect("sealed");
        g.insert_batch(fresh(1000, 1));
        assert!(g.stats_base.is_some());
        g.seal();
        assert!(g.stats.get().is_none() && g.stats_base.is_none());
        g.graph_stats().expect("sealed");
        g.insert_batch(fresh(300, 2));
        reseal_patched(&mut g, "small window after a fallback");

        // Removals alone over the rule stop being listed at once.
        for t in some_present(&g, next, 1200) {
            g.remove_ids(t);
        }
        assert!(g.stats_base.is_none());
        g.seal();
        assert!(g.stats.get().is_none());

        // A columnar run: no plain run to probe.
        g.seal_with(&SealConfig {
            compress: true,
            ..SealConfig::default()
        });
        g.graph_stats().expect("sealed");
        g.insert_batch(fresh(10, 3));
        g.seal();
        assert_eq!(g.storage_stats().compressed_runs, 3);
        assert!(g.stats.get().is_none() && g.stats_base.is_none());

        // The B-tree backend: always "sealed", never patched.
        let mut bt = stats_fixture(next, StorageBackend::BTree);
        bt.graph_stats().expect("trivially sealed");
        bt.insert_batch(fresh(10, 0));
        bt.seal();
        assert!(bt.stats.get().is_none() && bt.stats_base.is_none());
        assert_eq!(bt.graph_stats().unwrap().triples, bt.len());
    }

    /// The copy a live epoch publishes: same triples and statistics, no
    /// history — and still a whole graph, whose removals of triples older
    /// than its log and later seal patch the statistics like the sweep.
    #[test]
    fn a_read_only_copy_keeps_the_reader_side_and_drops_the_history() {
        let next = &mut crate::store::tests::splitmix(11);
        let g = stats_fixture(next, StorageBackend::SortedRuns);
        assert!(g.graph_stats().is_some());
        let before: Vec<IdTriple> = g.iter_ids().collect();
        let mut copy = g.read_only_copy();
        assert_eq!(copy.log_len(), 0);
        assert!(copy.log_dead.is_empty() && copy.log_pos.is_none() && copy.stats_base.is_none());
        let shared = g.stats.get().zip(copy.stats.get());
        assert!(shared.is_some_and(|(a, b)| Arc::ptr_eq(a, b)));
        assert!(copy.iter_ids().eq(g.iter_ids()));
        assert!(copy.dict().iter().eq(g.dict().iter()));
        assert_eq!(
            copy.predicate_count(TermId(3)),
            g.predicate_count(TermId(3))
        );

        for t in some_present(&copy, next, 40) {
            copy.remove_ids(t);
        }
        let fresh: Vec<IdTriple> = (0..60).map(|_| draw(next, 60, 4200)).collect();
        let added = copy.insert_batch(fresh);
        assert_eq!(copy.log_since(0).count(), added);
        reseal_patched(&mut copy, "read-only copy");
        assert!(g.iter_ids().eq(before), "the original is untouched");
    }

    /// `a` and `b` read alike: length, the full scan, and around each
    /// probe membership and the seven shapes that bind a position.
    fn assert_reads_agree(a: &Graph, b: &Graph, probes: &[IdTriple], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: len");
        assert!(a.iter_ids().eq(b.iter_ids()), "{what}: iter_ids");
        for &t in probes {
            assert_eq!(a.contains_ids(t), b.contains_ids(t), "{what}: {t:?}");
            for shape in 1..8u8 {
                let bind = |bit: u8, id: TermId| (shape & bit != 0).then_some(id);
                let (s, p, o) = (bind(1, t.s), bind(2, t.p), bind(4, t.o));
                let (ours, theirs) = (a.match_ids(s, p, o), b.match_ids(s, p, o));
                assert!(ours.eq(theirs), "{what}: {t:?}, shape {shape:03b}");
            }
        }
    }

    /// A named sealed writer and the keys to probe it on.
    type Writer = (&'static str, Graph, Vec<IdTriple>);

    /// Sealed writers of each shape a publish meets — empty, fresh, and
    /// after a batch that held removals — with the probes that matter
    /// for each: present, absent and just-removed keys.
    fn sealed_writers(next: &mut impl FnMut() -> u64) -> Result<Vec<Writer>, String> {
        let mut empty = Graph::new();
        empty.seal();
        let absent: Vec<IdTriple> = (0..40).map(|_| draw(next, 60, 4200)).collect();
        let fresh = stats_fixture(next, StorageBackend::SortedRuns);
        let mut probes = some_present(&fresh, next, 60);
        probes.extend(&absent);
        let mut churned = fresh.clone();
        churned.graph_stats().ok_or("sealed")?;
        let removed = some_present(&churned, next, 150);
        for &t in &removed {
            churned.remove_ids(t);
        }
        churned.insert_batch((0..300).map(|_| draw(next, 60, 4200)));
        churned.seal();
        let mut churned_probes = probes.clone();
        churned_probes.extend(removed);
        Ok(vec![
            ("empty", empty, absent),
            ("fresh", fresh, probes),
            ("churned", churned, churned_probes),
        ])
    }

    /// A publish's copy of a sealed plain graph holds the writer's own
    /// three key buffers, and answers every read like the writer; a
    /// plain reseal keeps them shared, writes to it behave like the
    /// B-tree oracle, and the writer never sees them.
    #[test]
    fn a_sealed_copy_shares_the_writers_runs_and_reads_like_it() -> Result<(), String> {
        for seed in [31u64, 32, 33] {
            let next = &mut crate::store::tests::splitmix(seed);
            for (shape, writer, probes) in sealed_writers(next)? {
                let what = format!("seed {seed}, {shape}");
                let stats = writer.graph_stats().ok_or("sealed")?;
                let writer_scan: Vec<IdTriple> = writer.iter_ids().collect();
                let mut copy = writer.read_only_copy();

                // The same three key arrays, not copies of them.
                let theirs = writer.store.sealed_runs().ok_or("writer sealed plain")?;
                let shares_theirs = |copy: &Graph| -> Result<(), String> {
                    let ours = copy.store.sealed_runs().ok_or("copy sealed")?;
                    for (w, c) in theirs.iter().zip(ours) {
                        assert_eq!(*w, c, "{what}");
                        assert!(
                            w.is_empty() || std::ptr::eq(w.as_ptr(), c.as_ptr()),
                            "{what}"
                        );
                    }
                    Ok(())
                };
                shares_theirs(&copy)?;
                assert_reads_agree(&copy, &writer, &probes, &what);
                for p in 0..10 {
                    assert_eq!(
                        copy.predicate_count(TermId(p)),
                        writer.predicate_count(TermId(p)),
                        "{what}: predicate {p}"
                    );
                }
                let layout = copy.storage_stats();
                assert_eq!(layout, writer.storage_stats(), "{what}");
                let one_run = layout.runs <= 1 && layout.tail == 0 && layout.tombstones == 0;
                assert!(one_run, "{what}: {layout:?}");
                let carried = copy.graph_stats().ok_or("a sealed copy has statistics")?;
                assert!(Arc::ptr_eq(&carried, &stats), "{what}: statistics shared");

                // A reseal that stays plain leaves it as it is; one that
                // compresses re-encodes a copy of it.
                copy.seal_with(&SealConfig::default());
                shares_theirs(&copy)?;
                let mut packed = copy.clone();
                packed.seal_with(&SealConfig {
                    compress: true,
                    compress_min_keys: 1,
                });
                let columnar = usize::from(!writer.is_empty()) * 3;
                assert_eq!(packed.storage_stats().compressed_runs, columnar, "{what}");
                assert!(packed.iter_ids().eq(writer.iter_ids()), "{what}: packed");

                // Writes to it, against the B-tree oracle.
                let mut model = Graph::with_backend(StorageBackend::BTree);
                model.insert_batch(writer.iter_ids());
                let mut touched = probes.clone();
                for (i, &t) in probes.iter().enumerate() {
                    let write = if i % 3 == 0 {
                        Graph::insert_ids
                    } else {
                        Graph::remove_ids
                    };
                    assert_eq!(write(&mut copy, t), write(&mut model, t), "{what}: {t:?}");
                }
                assert!(!copy.is_sealed(), "{what}: written");
                let fresh: Vec<IdTriple> = (0..200).map(|_| draw(next, 60, 4200)).collect();
                assert_eq!(
                    copy.insert_batch(fresh.iter().copied()),
                    model.insert_batch(fresh.iter().copied()),
                    "{what}"
                );
                touched.extend(fresh);
                assert_reads_agree(&copy, &model, &touched, &format!("{what}, written"));
                copy.seal();
                assert_reads_agree(&copy, &model, &touched, &format!("{what}, resealed"));

                assert!(
                    writer.iter_ids().eq(writer_scan),
                    "{what}: writer untouched"
                );
                assert!(writer.is_sealed(), "{what}: writer untouched");
            }
        }
        Ok(())
    }

    /// A published copy persists through the variant's own snapshot and
    /// reopens as the same triples, dictionary, statistics and
    /// first-component directories.
    #[test]
    fn a_sealed_copy_round_trips_through_the_durable_tier() -> Result<(), String> {
        let next = &mut crate::store::tests::splitmix(41);
        for (shape, writer, _) in sealed_writers(next)? {
            let stats = writer.graph_stats().ok_or("sealed")?;
            let copy = writer.read_only_copy();
            assert!(copy.store.sealed_runs().is_some(), "{shape}");
            let dir = std::env::temp_dir().join(format!(
                "rps-graph-test-{}-published-{shape}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            copy.persist(&dir).map_err(|e| e.to_string())?;
            let reopened = Graph::open(&dir).map_err(|e| e.to_string());
            let _ = std::fs::remove_dir_all(&dir);
            let reopened = reopened?;

            assert!(reopened.iter_ids().eq(copy.iter_ids()), "{shape}: triples");
            assert!(reopened.dict().iter().eq(copy.dict().iter()), "{shape}");
            // Each permutation reopens as one run, with its directory.
            let indexed = crate::store::tests::assert_directories(&reopened.store, shape);
            assert_eq!(indexed, if copy.is_empty() { 0 } else { 3 }, "{shape}");
            let swept = reopened.graph_stats().ok_or("reopened sealed")?;
            assert_eq!(swept.triples, stats.triples, "{shape}");
            assert_eq!(swept.preds, stats.preds, "{shape}");
            assert_eq!(swept.distinct_subjects, stats.distinct_subjects);
            assert_eq!(swept.distinct_objects, stats.distinct_objects);
            assert_eq!(swept.spo_bounds, stats.spo_bounds, "{shape}");
        }
        Ok(())
    }

    #[test]
    fn iter_ids_is_spo_sorted_across_runs_and_tail() {
        let mut g = Graph::new();
        bulk(&mut g, 500);
        let stats = g.storage_stats();
        assert!(stats.runs >= 1 && stats.tail > 0, "mixed layout: {stats:?}");
        let all: Vec<IdTriple> = g.iter_ids().collect();
        assert_eq!(all.len(), g.len());
        let mut sorted = all.clone();
        sorted.sort_by_key(|t| (t.s.0, t.p.0, t.o.0));
        assert_eq!(all, sorted, "iter_ids yields SPO order");
    }

    /// A term of any kind from a seeded draw over a small space, so
    /// literals often share a lexical form and differ in annotation only.
    fn drawn_term(next: &mut impl FnMut() -> u64) -> Term {
        use crate::term::{Iri, Literal};
        let n = next() % 300;
        match next() % 6 {
            0 => Term::iri(format!("http://e/{n}")),
            1 => Term::blank(format!("b{n}")),
            2 => Term::literal(format!("{n}")),
            3 => Term::Literal(Literal::lang(format!("{n}"), ["en", "de"][n as usize % 2])),
            4 => Term::Literal(Literal::typed(format!("{n}"), Iri::new("http://e/int"))),
            _ => Term::Literal(Literal::typed(format!("{n}"), Iri::new("http://e/dec"))),
        }
    }

    /// `order` ranks every id of `g`'s dictionary in term order, and is
    /// what a sweep of it builds.
    fn assert_ranks_the_dictionary(g: &Graph, order: &TermOrder, what: &str) {
        let mut want: Vec<TermId> = g.dict().iter().map(|(id, _)| id).collect();
        want.sort_by(|&a, &b| g.term(a).cmp(g.term(b)));
        assert_eq!(order.ids(), want, "{what}: ids in term order");
        for (at, &id) in want.iter().enumerate() {
            assert_eq!(order.rank(id) as usize, at, "{what}: rank of {id:?}");
        }
        assert_eq!(*order, TermOrder::sweep(g.dict()), "{what}: ≡ the sweep");
    }

    /// Seeded windows of interns (of new and known terms), inserts and
    /// seals: whatever order the graph builds next — a patch of the one
    /// the window's first new term retired, or a sweep — ranks the whole
    /// dictionary. Read-only copies share the order by `Arc`, a write to
    /// one leaves the writer's as it was, and the writer adopts the order
    /// a copy built as its base; a persisted graph reopens with the same
    /// order.
    #[test]
    fn the_term_order_patches_like_the_sweep() -> Result<(), String> {
        let empty = Graph::new();
        assert!(empty.term_order().is_empty());
        assert_ranks_the_dictionary(&empty, empty.term_order(), "empty");
        for seed in [51u64, 52, 53] {
            let next = &mut crate::store::tests::splitmix(seed);
            let mut g = Graph::new();
            let (mut patched, mut swept, mut adopted) = (0, 0, 0);
            for window in 0..36 {
                let what = format!("seed {seed}, window {window}");
                // Mostly a few terms; every ninth window more than a
                // patch may take.
                let fresh = if window % 9 == 8 { 2000 } else { next() % 40 };
                for _ in 0..fresh {
                    let o = drawn_term(next);
                    let s = Term::iri(format!("http://e/s{}", next() % 50));
                    g.insert_terms(s, Term::iri("http://e/p"), o)
                        .map_err(|e| e.to_string())?;
                }
                let known = g.dict().len();
                g.intern(&Term::iri("http://e/p"));
                assert_eq!(g.dict().len(), known, "{what}");
                g.seal();
                let base = g.order_base.as_ref().map_or(0, |b| b.len());
                let held = g.order.get().is_some();
                let pays = base > 0 && gallop_pays(known - base, known);
                if !held {
                    patched += usize::from(pays);
                    swept += usize::from(!pays);
                }
                assert_ranks_the_dictionary(&g, g.term_order(), &what);

                let mut copy = g.read_only_copy();
                let (ours, theirs) = (copy.order.get(), g.order.get());
                let shared = ours.zip(theirs).is_some_and(|(a, b)| Arc::ptr_eq(a, b));
                assert!(shared, "{what}: the copy shares the order");
                copy.intern(&Term::literal(format!("copy only {window}")));
                assert!(copy.order.get().is_none(), "{what}: a new term retires it");
                assert_ranks_the_dictionary(&copy, copy.term_order(), &what);
                assert!(g.order.get().is_some(), "{what}: the writer's stays");

                // A live publish: the writer's next terms retire its
                // order, the copy it publishes ranks them when a reader
                // asks, and the writer takes that as the base of its next.
                if window % 4 == 3 {
                    g.intern(&Term::iri(format!("http://e/published{window}")));
                    let published = g.read_only_copy();
                    g.adopt_term_order(&published);
                    assert!(g.order_base.as_ref().is_some_and(|b| b.len() == known));
                    let built = Arc::new(published.term_order().clone());
                    assert_ranks_the_dictionary(&published, &built, &what);
                    g.intern(&Term::iri(format!("http://e/next{window}")));
                    g.adopt_term_order(&published);
                    let base = g.order_base.clone().ok_or("a base")?;
                    assert_eq!(*base, *built, "{what}: adopted");
                    assert!(base.len() > known, "{what}: adopted");
                    adopted += 1;
                    assert_ranks_the_dictionary(&g, g.term_order(), &what);
                    g.adopt_term_order(&published);
                    assert!(g.order.get().is_some(), "{what}: a held order stays");
                }
            }
            assert!(patched >= 12, "seed {seed}: {patched} patched orders");
            assert!(swept >= 3, "seed {seed}: {swept} swept orders");
            assert!(adopted >= 8, "seed {seed}: {adopted} adopted orders");

            let dir = std::env::temp_dir().join(format!(
                "rps-graph-test-{}-term-order-{seed}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            g.persist(&dir).map_err(|e| e.to_string())?;
            let reopened = Graph::open(&dir).map_err(|e| e.to_string());
            let _ = std::fs::remove_dir_all(&dir);
            let reopened = reopened?;
            assert_eq!(
                reopened.term_order(),
                g.term_order(),
                "seed {seed}: reopened"
            );
        }
        Ok(())
    }
}
