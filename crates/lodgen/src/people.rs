//! A people-deduplication workload with known ground truth, for mapping
//! discovery (paper future-work item 3; `tests/discovery_pipeline.rs`).
//!
//! Each peer describes a set of persons with `name` / `born` / `city`
//! literals. A configurable fraction of persons is *duplicated* across
//! consecutive peers under different IRIs — those duplicates are the
//! ground-truth equivalences a discovery algorithm should find. Noise
//! persons share a city (a popular, non-distinctive value) but have
//! unique names and birth dates.

use crate::rng::SeededRng;
use rps_core::{EquivalenceMapping, Peer, RdfPeerSystem};
use rps_rdf::{Graph, Iri, Term};

/// Configuration for the people workload.
#[derive(Clone, Debug)]
pub struct PeopleConfig {
    /// Number of peers.
    pub peers: usize,
    /// Persons per peer.
    pub persons_per_peer: usize,
    /// Fraction (0..=1) of persons duplicated into the next peer.
    pub duplicate_fraction: f64,
    /// Number of distinct city literals (small = popular values).
    pub cities: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PeopleConfig {
    fn default() -> Self {
        PeopleConfig {
            peers: 3,
            persons_per_peer: 40,
            duplicate_fraction: 0.3,
            cities: 5,
            seed: 11,
        }
    }
}

/// The generated workload: the system plus ground-truth equivalences.
pub struct PeopleWorkload {
    /// The peer system (no equivalence mappings installed — discovery is
    /// supposed to find them).
    pub system: RdfPeerSystem,
    /// The true `≡ₑ` mappings (canonicalised).
    pub truth: Vec<EquivalenceMapping>,
}

fn ns(peer: usize) -> String {
    format!("http://people{peer}.example.org/")
}

/// Generates the workload.
pub fn people_workload(cfg: &PeopleConfig) -> PeopleWorkload {
    let mut rng = SeededRng::seed_from_u64(cfg.seed);
    let mut system = RdfPeerSystem::new();

    // Global person identities: each has a unique (name, born) pair.
    let mut next_identity = 0usize;
    // Every occurrence of each identity, as (peer, local index); the
    // ground truth is all cross-peer pairs of occurrences — discovery is
    // expected to find transitive duplicates too.
    let mut occurrences: Vec<Vec<(usize, usize)>> = Vec::new();
    // Persons of the previous peer for duplication sampling.
    let mut previous: Vec<(usize, usize)> = Vec::new();

    for p in 0..cfg.peers {
        let mut g = Graph::new();
        let mut current: Vec<(usize, usize)> = Vec::new();
        for local in 0..cfg.persons_per_peer {
            // Duplicate a person from the previous peer with the given
            // probability (as long as any are left to copy).
            let identity =
                if !previous.is_empty() && rng.gen_bool(cfg.duplicate_fraction.clamp(0.0, 1.0)) {
                    previous[rng.gen_range(0..previous.len())].0
                } else {
                    next_identity += 1;
                    next_identity - 1
                };
            if occurrences.len() <= identity {
                occurrences.resize(identity + 1, Vec::new());
            }
            occurrences[identity].push((p, local));
            current.push((identity, local));

            let subject = Term::iri(format!("{}person{local}", ns(p)));
            let pred = |name: &str| Term::iri(format!("{}{name}", ns(p)));
            g.insert_terms(
                subject.clone(),
                pred("name"),
                Term::literal(format!("Person #{identity}")),
            )
            .expect("valid");
            g.insert_terms(
                subject.clone(),
                pred("born"),
                Term::literal(format!(
                    "19{:02}-0{}-1{}",
                    identity % 90,
                    identity % 9 + 1,
                    identity % 8
                )),
            )
            .expect("valid");
            g.insert_terms(
                subject,
                pred("city"),
                Term::literal(format!("City {}", rng.gen_range(0..cfg.cities.max(1)))),
            )
            .expect("valid");
        }
        system.add_peer(Peer::from_database(format!("people{p}"), g));
        previous = current;
    }
    let mut truth = Vec::new();
    for occ in &occurrences {
        for i in 0..occ.len() {
            for j in (i + 1)..occ.len() {
                let (pa, la) = occ[i];
                let (pb, lb) = occ[j];
                if pa != pb {
                    truth.push(
                        EquivalenceMapping::new(
                            Iri::new(format!("{}person{la}", ns(pa))),
                            Iri::new(format!("{}person{lb}", ns(pb))),
                        )
                        .canonical(),
                    );
                }
            }
        }
    }
    truth.sort();
    truth.dedup();
    PeopleWorkload { system, truth }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rps_core::{discover, evaluate_discovery, DiscoveryConfig};

    #[test]
    fn workload_is_deterministic() {
        let a = people_workload(&PeopleConfig::default());
        let b = people_workload(&PeopleConfig::default());
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.system.stored_database(), b.system.stored_database());
    }

    #[test]
    fn duplicates_exist_and_are_cross_peer() {
        let w = people_workload(&PeopleConfig::default());
        assert!(!w.truth.is_empty());
        for eq in &w.truth {
            assert_ne!(
                eq.left.as_str().split("person").next(),
                eq.right.as_str().split("person").next(),
                "ground truth links different peers"
            );
        }
    }

    #[test]
    fn discovery_finds_most_duplicates() {
        let w = people_workload(&PeopleConfig::default());
        let candidates = discover(&w.system, &DiscoveryConfig::default());
        let q = evaluate_discovery(&candidates, &w.truth);
        assert!(q.precision >= 0.9, "precision {q:?}");
        assert!(q.recall >= 0.9, "recall {q:?}");
    }

    #[test]
    fn zero_duplicates_zero_truth() {
        let w = people_workload(&PeopleConfig {
            duplicate_fraction: 0.0,
            ..PeopleConfig::default()
        });
        assert!(w.truth.is_empty());
        let candidates = discover(&w.system, &DiscoveryConfig::default());
        let q = evaluate_discovery(&candidates, &w.truth);
        assert_eq!(q.proposed, 0, "no spurious pairs: {candidates:?}");
        let _ = q;
    }
}
