//! Automatic discovery of equivalence mappings (paper Section 5,
//! future-work item 3: "We want to be able to discover mappings between
//! peers automatically").
//!
//! The discoverer implements the classic *attribute fingerprint* baseline
//! from instance-based schema matching: two IRIs from different peers are
//! proposed as equivalent when they agree on enough distinctive literal
//! values. A literal value is distinctive when few subjects carry it, so
//! agreement is unlikely by chance. Scores are Jaccard overlaps of the
//! subjects' literal-fingerprint sets; pairs above a confidence threshold
//! become candidate `≡ₑ` mappings.
//!
//! This is deliberately a transparent baseline (the paper only sketches
//! the problem and points at probabilistic methods);
//! `tests/discovery_pipeline.rs` holds its precision/recall against
//! generated ground truth.

use crate::mapping::EquivalenceMapping;
use crate::system::RdfPeerSystem;
use rps_rdf::{Iri, Term};
use std::collections::{BTreeMap, BTreeSet};

/// Configuration for the fingerprint matcher.
#[derive(Clone, Debug)]
pub struct DiscoveryConfig {
    /// Minimum Jaccard overlap of literal fingerprints to propose a pair.
    pub min_score: f64,
    /// Minimum number of shared literal values.
    pub min_shared: usize,
    /// Values carried by more than this many subjects (per peer pair) are
    /// considered non-distinctive and ignored.
    pub max_value_popularity: usize,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            min_score: 0.5,
            min_shared: 2,
            max_value_popularity: 4,
        }
    }
}

/// A proposed equivalence with its evidence.
#[derive(Clone, Debug, PartialEq)]
pub struct Candidate {
    /// The proposed mapping.
    pub mapping: EquivalenceMapping,
    /// Jaccard overlap of the two fingerprints.
    pub score: f64,
    /// Number of shared distinctive literal values.
    pub shared: usize,
}

/// The literal fingerprint of each IRI subject in one peer: the set of
/// `(predicate-local-name, literal)` pairs. Predicate *local names* are
/// used (the part after the last `/` or `#`) so that vocabularies that
/// differ only by namespace still align — the common LOD situation.
fn fingerprints(system: &RdfPeerSystem, peer: usize) -> BTreeMap<Iri, BTreeSet<(String, String)>> {
    let mut out: BTreeMap<Iri, BTreeSet<(String, String)>> = BTreeMap::new();
    let g = &system.peers()[peer].database;
    for t in g.iter() {
        let (Term::Iri(subject), Term::Iri(pred), Term::Literal(lit)) =
            (t.subject(), t.predicate(), t.object())
        else {
            continue;
        };
        let local = pred
            .as_str()
            .rsplit(['/', '#'])
            .next()
            .unwrap_or(pred.as_str())
            .to_string();
        out.entry(subject.clone())
            .or_default()
            .insert((local, lit.to_string()));
    }
    out
}

/// Runs discovery over every ordered pair of distinct peers, returning
/// candidates sorted by descending score.
pub fn discover(system: &RdfPeerSystem, config: &DiscoveryConfig) -> Vec<Candidate> {
    let n = system.peers().len();
    let prints: Vec<BTreeMap<Iri, BTreeSet<(String, String)>>> =
        (0..n).map(|p| fingerprints(system, p)).collect();
    let mut candidates = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            // Popularity filter: values shared by many subjects across
            // the pair are non-distinctive.
            let mut popularity: BTreeMap<&(String, String), usize> = BTreeMap::new();
            for fp in prints[a].values().chain(prints[b].values()) {
                for v in fp {
                    *popularity.entry(v).or_insert(0) += 1;
                }
            }
            // Invert peer b's fingerprints for candidate generation.
            let mut by_value: BTreeMap<&(String, String), Vec<&Iri>> = BTreeMap::new();
            for (iri, fp) in &prints[b] {
                for v in fp {
                    if popularity[v] <= config.max_value_popularity {
                        by_value.entry(v).or_default().push(iri);
                    }
                }
            }
            for (iri_a, fp_a) in &prints[a] {
                let distinctive_a: BTreeSet<&(String, String)> = fp_a
                    .iter()
                    .filter(|v| popularity[*v] <= config.max_value_popularity)
                    .collect();
                if distinctive_a.is_empty() {
                    continue;
                }
                // Count shared distinctive values per b-IRI.
                let mut shared_counts: BTreeMap<&Iri, usize> = BTreeMap::new();
                for v in &distinctive_a {
                    if let Some(matches) = by_value.get(*v) {
                        for iri_b in matches {
                            *shared_counts.entry(iri_b).or_insert(0) += 1;
                        }
                    }
                }
                for (iri_b, shared) in shared_counts {
                    if shared < config.min_shared {
                        continue;
                    }
                    let distinctive_b = prints[b][iri_b]
                        .iter()
                        .filter(|v| popularity[*v] <= config.max_value_popularity)
                        .count();
                    let union = distinctive_a.len() + distinctive_b - shared;
                    let score = shared as f64 / union.max(1) as f64;
                    if score >= config.min_score {
                        candidates.push(Candidate {
                            mapping: EquivalenceMapping::new(iri_a.clone(), iri_b.clone())
                                .canonical(),
                            score,
                            shared,
                        });
                    }
                }
            }
        }
    }
    candidates.sort_by(|x, y| {
        y.score
            .partial_cmp(&x.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| x.mapping.cmp(&y.mapping))
    });
    candidates.dedup_by(|a, b| a.mapping == b.mapping);
    candidates
}

/// Precision/recall of discovered mappings against a ground-truth set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiscoveryQuality {
    /// Fraction of proposals that are true mappings.
    pub precision: f64,
    /// Fraction of true mappings that were proposed.
    pub recall: f64,
    /// Proposal count.
    pub proposed: usize,
    /// Ground-truth count.
    pub truth: usize,
}

/// Scores candidates against ground truth (both canonicalised).
pub fn evaluate(candidates: &[Candidate], truth: &[EquivalenceMapping]) -> DiscoveryQuality {
    let truth_set: BTreeSet<EquivalenceMapping> =
        truth.iter().map(EquivalenceMapping::canonical).collect();
    let proposed: BTreeSet<EquivalenceMapping> =
        candidates.iter().map(|c| c.mapping.canonical()).collect();
    let hits = proposed.intersection(&truth_set).count();
    DiscoveryQuality {
        precision: if proposed.is_empty() {
            1.0
        } else {
            hits as f64 / proposed.len() as f64
        },
        recall: if truth_set.is_empty() {
            1.0
        } else {
            hits as f64 / truth_set.len() as f64
        },
        proposed: proposed.len(),
        truth: truth_set.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peer::Peer;

    fn system_with_duplicated_people() -> (RdfPeerSystem, Vec<EquivalenceMapping>) {
        // Two peers describing the same people with different IRIs but
        // identical birth-date/name literals.
        let a = rps_rdf::turtle::parse(
            r#"@prefix a: <http://a/> .
a:alice a:name "Alice Smith" . a:alice a:born "1980-01-02" .
a:bob a:name "Bob Jones" . a:bob a:born "1975-05-05" .
a:carol a:name "Carol King" . a:carol a:born "1990-09-09" .
"#,
        )
        .unwrap();
        let b = rps_rdf::turtle::parse(
            r#"@prefix b: <http://b/> .
b:p1 b:name "Alice Smith" . b:p1 b:born "1980-01-02" .
b:p2 b:name "Bob Jones" . b:p2 b:born "1975-05-05" .
b:p3 b:name "Dave Hill" . b:p3 b:born "1966-03-03" .
"#,
        )
        .unwrap();
        let mut sys = RdfPeerSystem::new();
        sys.add_peer(Peer::from_database("a", a));
        sys.add_peer(Peer::from_database("b", b));
        let truth = vec![
            EquivalenceMapping::new(Iri::new("http://a/alice"), Iri::new("http://b/p1")),
            EquivalenceMapping::new(Iri::new("http://a/bob"), Iri::new("http://b/p2")),
        ];
        (sys, truth)
    }

    #[test]
    fn discovers_duplicated_people() {
        let (sys, truth) = system_with_duplicated_people();
        let candidates = discover(&sys, &DiscoveryConfig::default());
        let q = evaluate(&candidates, &truth);
        assert_eq!(q.precision, 1.0);
        assert_eq!(q.recall, 1.0);
        assert_eq!(q.proposed, 2);
    }

    #[test]
    fn popular_values_do_not_match() {
        // Everyone shares the same country literal; it must not create
        // pairs on its own.
        let a = rps_rdf::turtle::parse(
            r#"@prefix a: <http://a/> .
a:x a:country "UK" . a:y a:country "UK" . a:z a:country "UK" .
a:x a:c2 "UK2" . a:y a:c2 "UK2" . a:z a:c2 "UK2" .
"#,
        )
        .unwrap();
        let b = rps_rdf::turtle::parse(
            r#"@prefix b: <http://b/> .
b:u b:country "UK" . b:v b:country "UK" . b:w b:country "UK" .
b:u b:c2 "UK2" . b:v b:c2 "UK2" . b:w b:c2 "UK2" .
"#,
        )
        .unwrap();
        let mut sys = RdfPeerSystem::new();
        sys.add_peer(Peer::from_database("a", a));
        sys.add_peer(Peer::from_database("b", b));
        let candidates = discover(
            &sys,
            &DiscoveryConfig {
                max_value_popularity: 3,
                ..DiscoveryConfig::default()
            },
        );
        assert!(candidates.is_empty());
    }

    #[test]
    fn threshold_controls_precision() {
        let (sys, _) = system_with_duplicated_people();
        let strict = discover(
            &sys,
            &DiscoveryConfig {
                min_score: 0.99,
                ..DiscoveryConfig::default()
            },
        );
        // Exact fingerprint matches only.
        assert_eq!(strict.len(), 2);
        for c in &strict {
            assert!(c.score >= 0.99);
        }
    }

    #[test]
    fn quality_math() {
        let truth = vec![EquivalenceMapping::new(Iri::new("a"), Iri::new("b"))];
        let q = evaluate(&[], &truth);
        assert_eq!(q.precision, 1.0);
        assert_eq!(q.recall, 0.0);
    }
}
