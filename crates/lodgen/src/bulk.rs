//! Bulk single-graph triple generation for storage-layer scale tests.
//!
//! The other generators in this crate build *peer systems* — mappings,
//! `sameAs` links, query mixes — and top out around the tens of
//! thousands of triples the chase experiments need. A test of the
//! store's seal, scan and merge paths instead needs one graph with
//! *millions* of triples, generated in O(n) time and O(pool) extra
//! memory: no per-triple `format!` of fresh IRIs (which makes the
//! dictionary as large as the store) and no accidental quadratic
//! behaviour from per-triple tail flushes.
//!
//! [`bulk_graph`] therefore interns a fixed entity pool and a small
//! predicate set once, then streams exactly `n` distinct id-level
//! triples through [`Graph::insert_batch`] in large chunks. The triple
//! at index `i` is a pure function of `(seed, i)`, so runs are
//! reproducible and two graphs built from the same config are equal.

use crate::rng::SeededRng;
use rps_rdf::{Graph, IdTriple, Term, TermId};

/// Namespace of the bulk-generated entities.
pub const NS: &str = "http://bulk.example.org/";

/// How many predicates the generator cycles through.
pub const PREDICATES: usize = 8;

/// Batch size fed to [`Graph::insert_batch`]; large enough that the
/// sorted-run backend sorts whole runs instead of paying per-triple
/// tail maintenance.
const CHUNK: usize = 1 << 16;

/// Configuration of [`bulk_graph`].
#[derive(Clone, Copy, Debug)]
pub struct BulkConfig {
    /// Exact number of distinct triples to generate.
    pub triples: usize,
    /// Entity-pool size; `0` derives `max(triples / 4, 1)` so subjects
    /// stay clustered (several triples per subject — the regime where
    /// delta-varint compression and subject-hash pruning pay off).
    pub entities: usize,
    /// PRNG seed; same seed ⇒ identical graph.
    pub seed: u64,
}

impl Default for BulkConfig {
    fn default() -> Self {
        BulkConfig {
            triples: 100_000,
            entities: 0,
            seed: 0xB01D_FACE,
        }
    }
}

impl BulkConfig {
    /// The resolved entity-pool size.
    pub fn pool(&self) -> usize {
        if self.entities > 0 {
            self.entities
        } else {
            (self.triples / 4).max(1)
        }
    }
}

/// The ids the generator interned, for building matching queries
/// without dictionary lookups.
#[derive(Clone, Debug)]
pub struct BulkIds {
    /// Entity-pool term ids (subjects and objects draw from this pool).
    pub entities: Vec<TermId>,
    /// The [`PREDICATES`] predicate ids, in index order.
    pub predicates: Vec<TermId>,
}

/// Generates exactly `cfg.triples` distinct triples into a fresh
/// [`Graph`] in O(n) time. Returns the graph and the interned id pools.
///
/// Distinctness without a seen-set: triple `i` is
/// `(e[s], p[(i / pool) % PREDICATES], e[o])` where `s = i % pool` and
/// `o` walks a per-subject arithmetic progression with a stride coprime
/// to the pool, so for a fixed subject and predicate every object index
/// is distinct until the pool wraps — and the caller is capped at
/// `pool * PREDICATES * pool` triples, far above any benchmark size.
pub fn bulk_graph(cfg: &BulkConfig) -> (Graph, BulkIds) {
    let pool = cfg.pool();
    let cap = pool.saturating_mul(PREDICATES).saturating_mul(pool);
    assert!(
        cfg.triples <= cap,
        "bulk_graph: {} triples exceed the {} distinct triples a pool of {} supports",
        cfg.triples,
        cap,
        pool
    );

    let mut g = Graph::new();
    let mut rng = SeededRng::seed_from_u64(cfg.seed);

    // Intern the pools once; everything after this is id-level.
    let entities: Vec<TermId> = (0..pool)
        .map(|i| g.intern(&Term::iri(format!("{NS}e{i}"))))
        .collect();
    let predicates: Vec<TermId> = (0..PREDICATES)
        .map(|i| g.intern(&Term::iri(format!("{NS}p{i}"))))
        .collect();

    // A per-subject object stride coprime to the pool (odd vs 2^k is
    // not enough for arbitrary pools, so step until gcd == 1; pools are
    // small relative to n, so this is negligible).
    let mut stride = (rng.next_u64() as usize % pool).max(1);
    while gcd(stride, pool) != 1 {
        stride += 1;
        if stride >= pool {
            stride = 1;
        }
    }

    let mut batch: Vec<IdTriple> = Vec::with_capacity(CHUNK.min(cfg.triples));
    let mut added = 0usize;
    for i in 0..cfg.triples {
        let s = i % pool;
        let round = i / pool;
        let p = round % PREDICATES;
        // Object progression: offset by the round so each (s, p) pair
        // revisits the pool in a fresh rotation only after pool rounds.
        let o = (s + (round / PREDICATES + 1).wrapping_mul(stride)) % pool;
        batch.push(IdTriple::new(entities[s], predicates[p], entities[o]));
        if batch.len() == CHUNK {
            added += g.insert_batch(batch.drain(..));
        }
    }
    added += g.insert_batch(batch.drain(..));
    debug_assert_eq!(added, cfg.triples, "generator emitted a duplicate");

    (
        g,
        BulkIds {
            entities,
            predicates,
        },
    )
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_count_and_deterministic() {
        let cfg = BulkConfig {
            triples: 50_000,
            entities: 0,
            seed: 7,
        };
        let (g1, ids) = bulk_graph(&cfg);
        assert_eq!(g1.len(), 50_000);
        assert_eq!(ids.entities.len(), cfg.pool());
        assert_eq!(ids.predicates.len(), PREDICATES);
        let (g2, _) = bulk_graph(&cfg);
        assert_eq!(g2.len(), 50_000);
        let t1: Vec<_> = g1.iter_ids().collect();
        let t2: Vec<_> = g2.iter_ids().collect();
        assert_eq!(t1, t2);
    }

    #[test]
    fn small_pools_and_tiny_counts() {
        for triples in [0usize, 1, 2, 5] {
            let cfg = BulkConfig {
                triples,
                entities: 3,
                seed: 1,
            };
            let (g, _) = bulk_graph(&cfg);
            assert_eq!(g.len(), triples);
        }
    }

    #[test]
    fn subjects_are_clustered() {
        // ~4 triples per subject by default — the clustered regime the
        // compressed-run experiment relies on.
        let cfg = BulkConfig {
            triples: 8_000,
            entities: 0,
            seed: 3,
        };
        let (g, ids) = bulk_graph(&cfg);
        let per_subject = g.len() / ids.entities.len();
        assert!(per_subject >= 3, "expected clustering, got {per_subject}");
    }
}
