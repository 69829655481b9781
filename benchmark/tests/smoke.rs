//! A short run of every workload prints exactly the names
//! `BENCHMARK.json` lists, and the two lookup workloads agree.

use rps_benchmark::json::Json;
use rps_benchmark::metrics::{per_layer, unit_of, END_TO_END};
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_rps-benchmark");

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root")).unwrap()
}

fn names(list: &Json) -> Vec<String> {
    list.as_arr()
        .unwrap()
        .iter()
        .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
        .collect()
}

fn out_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs one workload for a second at tiny scale (longer unoptimised, or
/// the 90th percentile has too few reads beyond it); returns the last line.
fn run(workload: &str, trace: &str, out: &Path) -> Json {
    let seconds = if cfg!(debug_assertions) { "6" } else { "1" };
    let output = Command::new(BIN)
        .args(["--workload", workload, "--seed", "1", "--seconds", seconds])
        .args(["--trace", trace, "--scale", "tiny", "--out-dir"])
        .arg(out)
        .output()
        .expect("the benchmark binary runs");
    assert!(
        output.status.success(),
        "{workload} exited with {}",
        output.status
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    let line = Json::parse(stdout.lines().last().expect("a result line")).unwrap();
    let keys: Vec<&str> = line
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert_eq!(line.get("failed").unwrap().as_f64(), Some(0.0));
    assert!(line.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
    line
}

fn printed(line: &Json) -> Vec<String> {
    line.get("metrics")
        .unwrap()
        .as_obj()
        .unwrap()
        .iter()
        .map(|(name, m)| {
            assert_eq!(
                m.get("unit").unwrap().as_str(),
                unit_of(name),
                "unit of {name}"
            );
            assert!(m.get("value").unwrap().as_f64().is_some());
            name.clone()
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_metrics_the_crate_prints() {
    let bench = benchmark_json();
    let e2e = names(bench.get("end_to_end").unwrap());
    let layers = names(bench.get("per_layer").unwrap());
    assert_eq!(e2e, END_TO_END.map(|(n, _)| n.to_string()));
    assert_eq!(
        layers,
        per_layer().into_iter().map(|(n, _)| n).collect::<Vec<_>>()
    );
    assert!(e2e.len() <= 16 && layers.len() <= 128);
    for list in ["end_to_end", "per_layer"] {
        for m in bench.get(list).unwrap().as_arr().unwrap() {
            let name = m.get("name").unwrap().as_str().unwrap();
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "metric name {name}"
            );
            assert_eq!(
                m.get("unit").unwrap().as_str(),
                unit_of(name),
                "unit of {name}"
            );
        }
    }
    let workloads = names(bench.get("workloads").unwrap());
    assert_eq!(
        workloads,
        rps_benchmark::config::Workload::ALL.map(|w| w.name().to_string())
    );
}

#[test]
fn every_workload_prints_the_listed_names() {
    let bench = benchmark_json();
    let e2e = names(bench.get("end_to_end").unwrap());
    let layers = names(bench.get("per_layer").unwrap());
    let out = out_dir("smoke");
    for workload in names(bench.get("workloads").unwrap()) {
        assert_eq!(printed(&run(&workload, "0", &out)), e2e, "{workload}");
        assert_eq!(printed(&run(&workload, "1", &out)), layers, "{workload}");
        assert!(out.join(format!("{workload}.trace.json")).exists());
    }

    // Same seed, same texts, same rows: the checksums agree.
    let checksum = |workload: &str| {
        let text = std::fs::read_to_string(out.join(format!("{workload}.result.json"))).unwrap();
        let result = Json::parse(&text).unwrap();
        result
            .get("rows_checksum")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    };
    assert_eq!(checksum("lookup_mat"), checksum("lookup_rewrite"));
    assert_ne!(checksum("lookup_mat"), checksum("analytic_mat"));

    // A result set compared with itself has nothing worse.
    let bench_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let output = Command::new(BIN)
        .arg("compare")
        .args([&out, &out])
        .arg("--benchmark-json")
        .arg(bench_path)
        .output()
        .unwrap();
    let report = String::from_utf8(output.stdout).unwrap();
    assert!(output.status.success(), "{report}");
    assert!(
        !report.contains("worse") && !report.contains("missing"),
        "{report}"
    );
}

#[test]
fn bad_arguments_print_no_result() {
    let output = Command::new(BIN)
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
