//! Seeded kill-point crash-recovery sweep for the durable storage tier.
//!
//! Each test simulates a crash at a specific point of the checkpoint
//! lifecycle by mutilating the on-disk state the way a power cut would
//! (torn page, missing or partial manifest, stale temp files), then
//! asserts the contract from `rps_rdf::durable`:
//!
//! * **committed** state that fails verification is a *typed*
//!   [`RdfError::Corrupt`] (never a panic, never silently wrong data);
//! * restoring the committed bytes restores the checkpoint exactly;
//! * a reopened graph is byte-identical (same ids, same terms, same
//!   scan order) to the persisted oracle, whose tail and tombstones
//!   persist as runs.
//!
//! The seed matrix is overridable with `RPS_RECOVERY_SEED=1,2,3` so CI
//! can shard seeds across jobs, mirroring `tests/fault_injection.rs`.

mod common;

use common::assert_one_run_layout;
use rps_core::chase::chase_quotient_model;
use rps_core::{
    chase_system, EngineConfig, FrozenSession, RpsChaseConfig, RpsError, Session, Strategy,
};
use rps_lodgen::{actor_shape_query, film_system, FilmConfig, Topology};
use rps_query::{evaluate_query, GraphPattern, GraphPatternQuery, Semantics, TermOrVar, Variable};
use rps_rdf::{Graph, IdTriple, RdfError, Term, TermId};
use std::collections::BTreeSet;
use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The seed matrix: `RPS_RECOVERY_SEED` (comma-separated) overrides the
/// default sweep.
fn seeds() -> Vec<u64> {
    rps_lodgen::seed_matrix("RPS_RECOVERY_SEED", &[11, 42, 1337])
}

/// splitmix64 — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A self-cleaning scratch directory (fresh per call, removed on drop).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("rps-recovery-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A deterministic pseudo-random graph: `n` triples over a bounded term
/// pool, with a slice of them removed again so the persisted image has
/// seen tombstones.
fn random_graph(seed: u64, n: usize) -> Graph {
    let mut g = Graph::new();
    let mut rng = Rng(seed);
    let subjects: Vec<TermId> = (0..n / 8 + 2)
        .map(|i| g.intern(&Term::iri(format!("http://ex/s{i}"))))
        .collect();
    let predicates: Vec<TermId> = (0..8)
        .map(|i| g.intern(&Term::iri(format!("http://ex/p{i}"))))
        .collect();
    let objects: Vec<TermId> = (0..n / 4 + 2)
        .map(|i| g.intern(&Term::iri(format!("http://ex/o{i}"))))
        .collect();
    let mut inserted = Vec::new();
    while g.len() < n {
        let t = IdTriple::new(
            subjects[rng.below(subjects.len())],
            predicates[rng.below(predicates.len())],
            objects[rng.below(objects.len())],
        );
        if g.insert_ids(t) {
            inserted.push(t);
        }
    }
    for _ in 0..n / 20 {
        let victim = inserted[rng.below(inserted.len())];
        g.remove_ids(victim);
    }
    g
}

/// Byte-level observational equality: identical id-level scans *and*
/// an identical dictionary image behind those ids.
fn assert_same(a: &Graph, b: &Graph, what: &str) {
    let ta: Vec<IdTriple> = a.iter_ids().collect();
    let tb: Vec<IdTriple> = b.iter_ids().collect();
    assert_eq!(ta, tb, "{what}: id-level scans diverged");
    for t in &ta {
        for id in [t.s, t.p, t.o] {
            assert_eq!(
                a.term(id),
                b.term(id),
                "{what}: dictionaries diverged at {id:?}"
            );
        }
    }
}

/// Files in `dir` whose name ends with `suffix`, sorted for determinism.
fn files_with_suffix(dir: &Path, suffix: &str) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_str().unwrap().ends_with(suffix))
        .collect();
    out.sort();
    out
}

// ---------------------------------------------------------------------
// Kill point 1: a torn page inside a committed run file.
// ---------------------------------------------------------------------

#[test]
fn torn_run_page_is_typed_corruption_and_intact_bytes_recover() {
    for seed in seeds() {
        let tmp = TempDir::new("torn-page");
        let oracle = random_graph(seed, 1500);
        oracle.persist(tmp.path()).unwrap();

        let runs = files_with_suffix(tmp.path(), ".rpg");
        assert!(!runs.is_empty(), "seed {seed}: no run files persisted");
        let mut rng = Rng(seed ^ 0xdead_beef);
        let victim = &runs[rng.below(runs.len())];
        let pristine = fs::read(victim).unwrap();
        // Flip one bit inside the first page's *payload* (offset 16 is
        // the first key byte — always inside the checksummed region).
        let mut torn = pristine.clone();
        let at = 16 + rng.below(12);
        torn[at] ^= 0x40;
        fs::write(victim, &torn).unwrap();

        match Graph::open(tmp.path()) {
            Err(RdfError::Corrupt { file, .. }) => {
                assert!(
                    file.contains(".rpg"),
                    "seed {seed}: corruption blamed on {file}"
                )
            }
            other => panic!("seed {seed}: torn page yielded {other:?}"),
        }

        // Restoring the committed bytes restores the checkpoint exactly.
        fs::write(victim, &pristine).unwrap();
        let recovered = Graph::open(tmp.path()).unwrap();
        assert_same(&oracle, &recovered, &format!("seed {seed} after restore"));
        assert!(recovered.storage_stats().pages_read > 0);
    }
}

// ---------------------------------------------------------------------
// Kill point 2: the manifest itself is missing or half-written.
// ---------------------------------------------------------------------

#[test]
fn missing_or_partial_manifest_is_a_typed_error() {
    for seed in seeds() {
        let tmp = TempDir::new("manifest");
        let oracle = random_graph(seed, 600);
        oracle.persist(tmp.path()).unwrap();
        let manifest = tmp.path().join("MANIFEST");
        let pristine = fs::read(&manifest).unwrap();

        // Missing manifest: "nothing was ever committed here" — an I/O
        // NotFound, not corruption.
        fs::remove_file(&manifest).unwrap();
        match Graph::open(tmp.path()) {
            Err(RdfError::Io { kind, .. }) => assert_eq!(kind, ErrorKind::NotFound),
            other => panic!("seed {seed}: missing manifest yielded {other:?}"),
        }

        // Half-written manifest (torn before the trailing checksum).
        let mut rng = Rng(seed ^ 0x5eed);
        let keep = 4 + rng.below(pristine.len() - 8);
        fs::write(&manifest, &pristine[..keep]).unwrap();
        assert!(
            matches!(Graph::open(tmp.path()), Err(RdfError::Corrupt { .. })),
            "seed {seed}: partial manifest must be Corrupt"
        );

        // Bit flip anywhere in the manifest body.
        let mut flipped = pristine.clone();
        let at = rng.below(flipped.len());
        flipped[at] ^= 0x04;
        fs::write(&manifest, &flipped).unwrap();
        assert!(
            matches!(Graph::open(tmp.path()), Err(RdfError::Corrupt { .. })),
            "seed {seed}: bit-flipped manifest must be Corrupt"
        );

        // The committed bytes still open byte-identically.
        fs::write(&manifest, &pristine).unwrap();
        let recovered = Graph::open(tmp.path()).unwrap();
        assert_same(
            &oracle,
            &recovered,
            &format!("seed {seed} manifest restore"),
        );
    }
}

#[test]
fn open_of_a_never_persisted_directory_is_not_found() {
    let tmp = TempDir::new("absent");
    match Graph::open(tmp.path().join("nope")) {
        Err(RdfError::Io { kind, .. }) => assert_eq!(kind, ErrorKind::NotFound),
        other => panic!("absent directory yielded {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Kill point 3: crash between writing MANIFEST.tmp and the rename.
// ---------------------------------------------------------------------

#[test]
fn leftover_manifest_tmp_never_shadows_the_committed_state() {
    let tmp = TempDir::new("tmp-manifest");
    let oracle = random_graph(7, 600);
    oracle.persist(tmp.path()).unwrap();

    // A torn tmp file from a crashed commit sits next to the good
    // manifest; the rename never happened, so it must be invisible.
    fs::write(tmp.path().join("MANIFEST.tmp"), b"RMF1 torn garbage").unwrap();
    let recovered = Graph::open(tmp.path()).unwrap();
    assert_same(&oracle, &recovered, "with stale MANIFEST.tmp");

    // The next successful checkpoint sweeps the debris.
    oracle.persist(tmp.path()).unwrap();
    assert!(
        !tmp.path().join("MANIFEST.tmp").exists(),
        "stale MANIFEST.tmp survived the next commit"
    );
    let recovered = Graph::open(tmp.path()).unwrap();
    assert_same(&oracle, &recovered, "after epoch bump over stale tmp");
}

// ---------------------------------------------------------------------
// The session-level contract: a persisted FrozenSession re-serves
// byte-identical answers after a process restart, without re-chasing.
// ---------------------------------------------------------------------

fn film_cfg(seed: u64) -> FilmConfig {
    FilmConfig {
        peers: 3,
        films_per_peer: 10,
        actors_per_film: 2,
        person_pool: 12,
        sameas_per_pair: 2,
        topology: Topology::Chain,
        hub_style: false,
        seed,
    }
}

fn film_queries() -> Vec<GraphPatternQuery> {
    vec![
        actor_shape_query(2, false),
        GraphPatternQuery::new(
            vec![Variable::new("s"), Variable::new("p"), Variable::new("o")],
            GraphPattern::triple(
                TermOrVar::var("s"),
                TermOrVar::var("p"),
                TermOrVar::var("o"),
            ),
        ),
    ]
}

#[test]
fn frozen_session_roundtrip_serves_byte_identical_answers() {
    for semantics in [Semantics::Certain, Semantics::Star] {
        let sys = film_system(&film_cfg(42));
        let cfg = EngineConfig::default()
            .with_strategy(Strategy::Materialise)
            .with_semantics(semantics);
        let frozen = Session::open(sys, cfg).unwrap().freeze().unwrap();
        assert_one_run_layout(&frozen.storage_stats().unwrap(), "frozen");
        let queries = film_queries();
        let expected: Vec<Vec<Vec<Term>>> = queries
            .iter()
            .map(|q| frozen.answer(q).unwrap().collect())
            .collect();

        let tmp = TempDir::new("frozen");
        frozen.persist(tmp.path()).unwrap();
        drop(frozen);

        let reopened = FrozenSession::open(tmp.path()).unwrap();
        for (q, want) in queries.iter().zip(&expected) {
            let got: Vec<Vec<Term>> = reopened.answer(q).unwrap().collect();
            assert_eq!(&got, want, "{semantics:?}: answers diverged after reopen");
        }
        let stats = reopened
            .storage_stats()
            .expect("reopened session must carry a materialised solution");
        assert!(stats.pages_read > 0, "reopen should go through paged runs");
        assert_one_run_layout(&stats, "reopened");

        // Persisting the reopened session again is a faithful copy too.
        let tmp2 = TempDir::new("frozen-again");
        reopened.persist(tmp2.path()).unwrap();
        let third = FrozenSession::open(tmp2.path()).unwrap();
        for (q, want) in queries.iter().zip(&expected) {
            let got: Vec<Vec<Term>> = third.answer(q).unwrap().collect();
            assert_eq!(&got, want, "{semantics:?}: second generation diverged");
        }
    }
}

/// A full system's fresh freeze serves the chase of its equivalence
/// quotient: it persists with a `quotient` line and reopens over the same
/// quotient, its class table looked up in the recovered dictionary, with
/// the saturating chase's answers. An existential system's `SESSION` has
/// no such line and reopens over its saturated solution, as before.
#[test]
fn full_system_session_reopens_over_its_quotient() {
    // Conclusions into the hub-style peer 0 invent a blank per firing.
    let existential = FilmConfig {
        topology: Topology::Star { hub: 0 },
        hub_style: true,
        ..film_cfg(42)
    };
    for (cfg, full) in [(film_cfg(42), true), (existential, false)] {
        for semantics in [Semantics::Certain, Semantics::Star] {
            let sys = film_system(&cfg);
            let saturated = chase_system(&sys, &RpsChaseConfig::default()).graph;
            let served = match full {
                true => chase_quotient_model(&sys, &RpsChaseConfig::default()).graph,
                false => saturated.clone(),
            };
            let config = EngineConfig::default()
                .with_strategy(Strategy::Materialise)
                .with_semantics(semantics);
            let frozen = Session::open(sys, config).unwrap().freeze().unwrap();
            let tmp = TempDir::new("quotient");
            frozen.persist(tmp.path()).unwrap();
            drop(frozen);
            let text = fs::read_to_string(tmp.path().join("SESSION")).unwrap();
            assert_eq!(text.contains("\nquotient\n"), full, "{text}");

            let reopened = FrozenSession::open(tmp.path()).unwrap();
            let stats = reopened.storage_stats().expect("a materialised session");
            assert_eq!(stats.run_keys, served.len(), "{full}, {semantics:?}");
            for q in film_queries() {
                let got: BTreeSet<Vec<Term>> = reopened.answer(&q).unwrap().collect();
                let want = evaluate_query(&saturated, &q, semantics);
                assert_eq!(got, want, "{full}, {semantics:?}: {q}");
            }
            if full {
                // A class member the recovered dictionary lacks is corrupt
                // metadata (`zzz` sorts last, so it is not the class's
                // representative).
                let tampered = text.replacen("\neq ", "\neq http://zzz.example/x ", 1);
                fs::write(tmp.path().join("SESSION"), tampered).unwrap();
                match FrozenSession::open(tmp.path()) {
                    Err(RpsError::Rdf(RdfError::Corrupt { detail, .. })) => {
                        assert!(detail.contains("missing"), "unhelpful detail: {detail}")
                    }
                    Err(other) => panic!("a tampered class table yielded {other}"),
                    Ok(_) => panic!("a tampered class table was served"),
                }
            }
        }
    }
}

#[test]
fn non_materialised_routes_refuse_to_persist_with_a_typed_error() {
    let sys = film_system(&film_cfg(42));
    let cfg = EngineConfig::default().with_strategy(Strategy::Rewrite);
    let frozen = Session::open(sys, cfg).unwrap().freeze().unwrap();
    let tmp = TempDir::new("rewrite-route");
    match frozen.persist(tmp.path()) {
        Err(RpsError::Persist { detail }) => {
            assert!(detail.contains("materialise"), "unhelpful detail: {detail}")
        }
        other => panic!("rewrite route persist yielded {other:?}"),
    }
}

#[test]
fn truncated_session_file_is_typed_corruption() {
    let sys = film_system(&film_cfg(42));
    let cfg = EngineConfig::default().with_strategy(Strategy::Materialise);
    let frozen = Session::open(sys, cfg).unwrap().freeze().unwrap();
    let tmp = TempDir::new("session-file");
    frozen.persist(tmp.path()).unwrap();

    let session = tmp.path().join("SESSION");
    let pristine = fs::read(&session).unwrap();
    fs::write(&session, &pristine[..pristine.len() / 2]).unwrap();
    assert!(
        matches!(
            FrozenSession::open(tmp.path()),
            Err(RpsError::Rdf(RdfError::Corrupt { .. }))
        ),
        "truncated SESSION file must be typed corruption"
    );

    fs::write(&session, &pristine).unwrap();
    FrozenSession::open(tmp.path()).unwrap();
}

#[test]
fn incomplete_solution_flag_is_typed_corruption() {
    // `Session::universal_solution` refuses an incomplete chase as unsound
    // to answer over; a SESSION file claiming one must not be served.
    let sys = film_system(&film_cfg(42));
    let cfg = EngineConfig::default().with_strategy(Strategy::Materialise);
    let frozen = Session::open(sys, cfg).unwrap().freeze().unwrap();
    let tmp = TempDir::new("session-incomplete");
    frozen.persist(tmp.path()).unwrap();

    let session = tmp.path().join("SESSION");
    let pristine = fs::read_to_string(&session).unwrap();
    assert!(pristine.contains("\ncomplete true\n"));
    fs::write(
        &session,
        pristine.replace("\ncomplete true\n", "\ncomplete false\n"),
    )
    .unwrap();
    match FrozenSession::open(tmp.path()) {
        Err(RpsError::Rdf(RdfError::Corrupt { detail, .. })) => {
            assert!(detail.contains("incomplete"), "unhelpful detail: {detail}")
        }
        Err(other) => panic!("incomplete SESSION yielded {other}"),
        Ok(_) => panic!("incomplete SESSION was served"),
    }
}
