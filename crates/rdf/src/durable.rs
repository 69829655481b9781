//! Persist/open/recover orchestration for the durable storage tier.
//!
//! This module ties together the two `store` submodules —
//! [`page`](crate::store::page) (checksummed fixed-size pages) and
//! [`disk`](crate::store::disk) (paged runs, the buffer pool, dictionary
//! segments and the manifest) — into the two graph-level operations
//! [`Graph::persist`] and [`Graph::open`].
//!
//! What is durable is a graph's checkpoint, nothing finer: there is no
//! log of individual writes. In a peer system the state is the peers'
//! databases plus the mappings, and a persisted graph is a solution
//! derived from them; the engine persists sealed solutions only.
//!
//! # Checkpoint lifecycle
//!
//! A persist writes a **new epoch** of files and commits them with one
//! atomic manifest rename:
//!
//! 1. live-only run images (`run-e{epoch}-{perm}-{idx}.rpg`) — the
//!    tombstones are dropped on the way out, a persist doubles as a
//!    purge-compaction, and the mutable tail is written as one more
//!    sorted run per permutation;
//! 2. dictionary segments: previous epochs' segments are *reused* when
//!    they still verify as a prefix of the current dictionary (ids are
//!    dense and append-only), and one new segment covers the terms
//!    interned since;
//! 3. `MANIFEST.tmp` → fsync → rename over `MANIFEST` → directory fsync.
//!
//! Every new file carries the epoch in its name, so nothing the *old*
//! manifest references is ever overwritten: a crash anywhere before the
//! rename leaves the old checkpoint fully intact, and a crash after it
//! leaves the new one. Files no longer referenced are deleted
//! best-effort after the commit.
//!
//! # Recovery invariants
//!
//! [`Graph::open`] trusts nothing it cannot verify: the manifest and
//! every page and segment carry CRC-32 checksums; run images are
//! re-validated for strict sortedness, dictionary-bounded ids, no key
//! stored twice and cross-permutation agreement. Unverifiable
//! *committed* state is a typed [`RdfError::Corrupt`] — recovery
//! refuses to serve over silently wrong data, and never panics on
//! corrupt input.
//!
//! The insertion log of a recovered graph starts fresh (one entry per
//! live triple, SPO order): log indexes are process-local delta marks,
//! not durable state, so marks taken in a previous process are
//! meaningless after recovery.

use crate::dict::{TermDict, TermId};
use crate::error::RdfError;
use crate::graph::{DurCounters, Graph};
use crate::store::disk::{
    read_dict_segment, write_dict_segment, write_run_file, BufferPool, DictSegmentMeta, Manifest,
    PagedRun, RunMeta, MANIFEST_NAME, MANIFEST_VERSION,
};
use crate::store::TripleStore;
use crate::term::Term;
use std::fs;
use std::path::Path;

/// Frames in the buffer pool used while opening a graph — 256 pages
/// (1 MiB) is plenty for the sequential validation scan, and recovery
/// still works (slowly) with far fewer.
const OPEN_POOL_FRAMES: usize = 256;

const PERM_NAMES: [&str; 3] = ["spo", "pos", "osp"];

fn run_name(epoch: u64, perm: &str, idx: usize) -> String {
    format!("run-e{epoch:06}-{perm}-{idx}.rpg")
}

fn seg_name(epoch: u64, first_id: u32) -> String {
    format!("dict-e{epoch:06}-{first_id}.seg")
}

/// Checkpoints `graph` into `dir` (see [`Graph::persist`] for the
/// contract).
pub(crate) fn persist_graph(graph: &Graph, dir: &Path) -> Result<(), RdfError> {
    fs::create_dir_all(dir)
        .map_err(|e| RdfError::io(format!("create graph directory {}", dir.display()), &e))?;
    // A previous checkpoint's manifest tells us which dictionary
    // segments may be reusable and which epoch to stamp. A *corrupt*
    // manifest is surfaced, not silently clobbered — the caller decides
    // whether to clear the directory.
    let prev = match Manifest::load(dir) {
        Ok(m) => Some(m),
        Err(RdfError::Io {
            kind: std::io::ErrorKind::NotFound,
            ..
        }) => None,
        Err(e) => return Err(e),
    };
    let epoch = prev.as_ref().map_or(1, |m| m.epoch + 1);

    // Dictionary segments: reuse the previous epoch's chain while it
    // still verifies as a prefix of the current dictionary, then write
    // one new segment for the terms interned since.
    let mut dict_segments: Vec<DictSegmentMeta> = Vec::new();
    let mut covered: u32 = 0;
    if let Some(prev) = &prev {
        let mut reusable = Vec::new();
        let mut at: u32 = 0;
        for meta in &prev.dict_segments {
            if meta.first_id != at || (at + meta.terms) as usize > graph.dict().len() {
                break;
            }
            let Ok(terms) = read_dict_segment(&dir.join(&meta.name), meta) else {
                break;
            };
            let matches = terms
                .iter()
                .enumerate()
                .all(|(i, t)| graph.dict().term(TermId(at + i as u32)) == t);
            if !matches {
                break;
            }
            at += meta.terms;
            reusable.push(meta.clone());
        }
        dict_segments = reusable;
        covered = at;
    }
    if (covered as usize) < graph.dict().len() {
        let fresh: Vec<Term> = graph
            .dict()
            .iter()
            .skip(covered as usize)
            .map(|(_, t)| t.clone())
            .collect();
        let name = seg_name(epoch, covered);
        let crc = write_dict_segment(&dir.join(&name), covered, &fresh)?;
        dict_segments.push(DictSegmentMeta {
            name,
            first_id: covered,
            terms: fresh.len() as u32,
            crc,
        });
    }

    // Live-only run images, one paged file per run per permutation;
    // the tail is the last run of each.
    let mut runs: [Vec<RunMeta>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut pages_written = 0u64;
    for (perm_idx, perm_runs) in graph.store_snapshot().iter().enumerate() {
        for (idx, run) in perm_runs.iter().enumerate() {
            let name = run_name(epoch, PERM_NAMES[perm_idx], idx);
            pages_written += write_run_file(&dir.join(&name), run)?;
            runs[perm_idx].push(RunMeta {
                name,
                keys: run.len() as u64,
            });
        }
    }

    let manifest = Manifest {
        version: MANIFEST_VERSION,
        epoch,
        triples: graph.len() as u64,
        dict_segments,
        runs,
    };
    manifest.commit(dir)?;

    DurCounters::add(&graph.dur().pages_written, pages_written);
    cleanup_stale(dir, &manifest);
    Ok(())
}

/// Best-effort removal of files no longer referenced by the committed
/// manifest (previous epochs' runs and segments). Failures are
/// ignored — stale files are garbage, not state.
fn cleanup_stale(dir: &Path, manifest: &Manifest) {
    let mut keep: Vec<&str> = vec![MANIFEST_NAME];
    keep.extend(manifest.dict_segments.iter().map(|s| s.name.as_str()));
    keep.extend(manifest.runs.iter().flatten().map(|r| r.name.as_str()));
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let ours = name == "MANIFEST.tmp" || name.ends_with(".rpg") || name.ends_with(".seg");
        if ours && !keep.contains(&name) {
            let _ = fs::remove_file(entry.path());
        }
    }
}

/// Opens a checkpointed graph (the implementation of [`Graph::open`]).
pub(crate) fn open_graph(dir: &Path) -> Result<Graph, RdfError> {
    let manifest = Manifest::load(dir)?;
    let dirname = dir.display().to_string();

    // Dictionary: segments must tile [0, n) contiguously and re-intern
    // without collisions (a duplicate term across segments would shift
    // every later id).
    let mut dict = TermDict::new();
    for meta in &manifest.dict_segments {
        if meta.first_id as usize != dict.len() {
            return Err(RdfError::corrupt(
                &dirname,
                format!(
                    "dictionary segment {} starts at id {}, expected {}",
                    meta.name,
                    meta.first_id,
                    dict.len()
                ),
            ));
        }
        for term in read_dict_segment(&dir.join(&meta.name), meta)? {
            let expect = TermId(dict.len() as u32);
            if dict.intern(&term) != expect {
                return Err(RdfError::corrupt(
                    &dirname,
                    format!(
                        "dictionary segment {} re-interns a duplicate term",
                        meta.name
                    ),
                ));
            }
        }
    }

    // Runs: read every page through the buffer pool (verifying
    // checksums), then re-validate the structural invariants the store
    // relies on.
    let mut pool = BufferPool::new(OPEN_POOL_FRAMES);
    let mut images: [Vec<Vec<[u32; 3]>>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for (perm_idx, metas) in manifest.runs.iter().enumerate() {
        for meta in metas {
            let run = PagedRun::open(&mut pool, &dir.join(&meta.name), meta.keys)?;
            images[perm_idx].push(run.read_all(&mut pool)?);
        }
    }
    let store = TripleStore::from_runs(images, dict.len() as u32)
        .map_err(|detail| RdfError::corrupt(&dirname, detail))?;

    let dur = DurCounters::default();
    let counters = pool.counters();
    DurCounters::add(&dur.pages_read, counters.pages_read);
    DurCounters::add(&dur.pool_hits, counters.hits);
    DurCounters::add(&dur.pool_misses, counters.misses);

    Ok(Graph::from_recovered(dict, store, dur))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triple::IdTriple;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rps-durable-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_graph(n: u32) -> Graph {
        let mut g = Graph::new();
        for i in 0..n {
            g.insert_terms(
                Term::iri(format!("http://e/s{}", i % 97)),
                Term::iri(format!("http://e/p{}", i % 7)),
                Term::literal(format!("v{i}")),
            )
            .unwrap();
        }
        g
    }

    fn assert_same(a: &Graph, b: &Graph) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.dict().len(), b.dict().len());
        // Byte-identical id assignment, not just set equality.
        let xs: Vec<IdTriple> = a.iter_ids().collect();
        let ys: Vec<IdTriple> = b.iter_ids().collect();
        assert_eq!(xs, ys);
        for (id, term) in a.dict().iter() {
            assert_eq!(b.dict().term(id), term);
        }
    }

    #[test]
    fn persist_open_roundtrip_preserves_ids_and_order() {
        let dir = tmp("roundtrip");
        let mut g = sample_graph(1500);
        // A revived key (tombstoned in a run, then inserted again) stays
        // in its run; a fresh key goes to the tail.
        let revived = g.iter_ids().nth(17).unwrap();
        assert!(g.remove_ids(revived));
        assert_eq!(g.storage_stats().tombstones, 1, "a run key");
        assert!(g.insert_ids(revived));
        assert_eq!(g.storage_stats().tombstones, 0, "revived in place");
        g.insert_terms(
            Term::iri("http://e/fresh"),
            Term::iri("http://e/p0"),
            Term::literal("fresh"),
        )
        .unwrap();
        let stats = g.storage_stats();
        assert!(stats.runs >= 1 && stats.tail > 0, "mixed shape: {stats:?}");
        g.persist(&dir).unwrap();
        assert!(g.storage_stats().pages_written > 0);
        // The manifest, run files and dictionary segments: no log file.
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names
                .iter()
                .all(|n| n == MANIFEST_NAME || n.ends_with(".rpg") || n.ends_with(".seg")),
            "{names:?}"
        );

        let re = Graph::open(&dir).unwrap();
        assert_same(&g, &re);
        let rs = re.storage_stats();
        assert!(rs.pages_read > 0);
        assert_eq!(rs.tail, 0, "the tail came back as runs");
        assert_eq!(rs.tombstones, 0, "persist purged tombstones");
    }

    #[test]
    fn persist_is_a_purge_compaction() {
        let dir = tmp("purge");
        let mut g = sample_graph(1200);
        let victims: Vec<IdTriple> = g.iter_ids().take(50).collect();
        for &v in &victims {
            assert!(g.remove_ids(v));
        }
        g.persist(&dir).unwrap();
        let re = Graph::open(&dir).unwrap();
        assert_eq!(re.len(), g.len());
        for &v in &victims {
            assert!(!re.contains_ids(v));
        }
        assert_eq!(re.storage_stats().tombstones, 0);
        // Observational equality on owned triples too.
        assert_eq!(g, re);
    }

    #[test]
    fn second_epoch_reuses_dict_segments() {
        let dir = tmp("epochs");
        let mut g = sample_graph(800);
        g.persist(&dir).unwrap();
        let m1 = Manifest::load(&dir).unwrap();
        assert_eq!(m1.epoch, 1);
        assert_eq!(m1.dict_segments.len(), 1);

        g.insert_terms(
            Term::iri("http://e/new"),
            Term::iri("http://e/p0"),
            Term::iri("http://e/s0"),
        )
        .unwrap();
        g.persist(&dir).unwrap();
        let m2 = Manifest::load(&dir).unwrap();
        assert_eq!(m2.epoch, 2);
        assert_eq!(
            m2.dict_segments.len(),
            2,
            "old segment reused, one appended"
        );
        assert_eq!(m2.dict_segments[0], m1.dict_segments[0]);
        // Stale epoch-1 run files were cleaned up; epoch-1 segment kept.
        for meta in m1.runs.iter().flatten() {
            assert!(!dir.join(&meta.name).exists(), "stale {}", meta.name);
        }
        assert!(dir.join(&m1.dict_segments[0].name).exists());
        assert_same(&g, &Graph::open(&dir).unwrap());
    }

    #[test]
    fn empty_graph_roundtrip() {
        let dir = tmp("empty");
        Graph::new().persist(&dir).unwrap();
        let g = Graph::open(&dir).unwrap();
        assert!(g.is_empty());
        assert_eq!(g.dict().len(), 0);
    }

    #[test]
    fn btree_backend_persists_too() {
        let dir = tmp("btree");
        let mut g = Graph::with_backend(crate::store::StorageBackend::BTree);
        g.insert_terms(Term::iri("a"), Term::iri("p"), Term::iri("b"))
            .unwrap();
        g.persist(&dir).unwrap();
        // Reopens under the default sorted-run backend with identical
        // contents — the durable format is backend-agnostic.
        let re = Graph::open(&dir).unwrap();
        assert_eq!(re, g);
    }

    #[test]
    fn open_missing_dir_is_not_found_io() {
        let dir = tmp("missing");
        assert!(matches!(
            Graph::open(&dir),
            Err(RdfError::Io {
                kind: std::io::ErrorKind::NotFound,
                ..
            })
        ));
    }
}
