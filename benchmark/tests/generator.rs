//! The generator and the operation stream are functions of the seed.

use rps_benchmark::config::{Workload, TINY};
use rps_benchmark::gen::Dataset;
use rps_benchmark::model::Model;
use rps_benchmark::ops::OpSource;

fn texts(seed: u64, workload: Workload) -> Vec<String> {
    let data = Dataset::generate(seed, TINY.scale);
    let model = Model::new(&data);
    let mut source = OpSource::new(&data, &model, seed, workload.mix());
    let mut out = Vec::new();
    for _ in 0..2 {
        let pass = source.next_pass(&model).expect("two passes at tiny scale");
        out.extend(pass.iter().map(|op| op.text.clone()));
    }
    out
}

#[test]
fn equal_seeds_give_equal_inputs() {
    assert_eq!(
        Dataset::generate(7, TINY.scale),
        Dataset::generate(7, TINY.scale)
    );
    for workload in [Workload::LookupMat, Workload::AnalyticMat] {
        assert_eq!(texts(7, workload), texts(7, workload));
    }
}

#[test]
fn different_seeds_give_different_inputs() {
    assert_ne!(
        Dataset::generate(7, TINY.scale),
        Dataset::generate(8, TINY.scale)
    );
    for workload in [Workload::LookupMat, Workload::AnalyticMat] {
        assert_ne!(texts(7, workload), texts(8, workload));
    }
}

#[test]
fn lookup_workloads_replay_the_same_texts() {
    assert_eq!(
        texts(3, Workload::LookupMat),
        texts(3, Workload::LookupRewrite)
    );
}

#[test]
fn sizes_do_not_depend_on_the_seed() {
    for seed in [1, 2, 99] {
        let data = Dataset::generate(seed, TINY.scale);
        assert_eq!(data.stored_triples(), TINY.stored_triples);
        assert_eq!(data.to_system().stored_size(), TINY.stored_triples);
    }
}

#[test]
fn cold_keys_are_never_reused() {
    let data = Dataset::generate(5, TINY.scale);
    let model = Model::new(&data);
    let mut source = OpSource::new(&data, &model, 5, Workload::LookupMat.mix());
    let mut seen = std::collections::HashSet::new();
    let hot: std::collections::HashSet<String> = (0..4)
        .flat_map(|t| {
            source
                .hot(t)
                .iter()
                .map(|op| op.text.clone())
                .collect::<Vec<_>>()
        })
        .collect();
    while let Some(pass) = source.next_pass(&model) {
        for op in pass.iter().filter(|op| op.cold) {
            assert!(!hot.contains(&op.text), "a cold key is in the hot set");
            assert!(seen.insert(op.text.clone()), "a cold key came twice");
        }
    }
    assert!(!seen.is_empty());
}
