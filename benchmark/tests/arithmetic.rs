//! Percentiles, medians over trials, normalisation and verdicts on
//! hand-made samples.

use rps_benchmark::compare::{judge, Rule, Verdict};
use rps_benchmark::config::{Workload, TINY};
use rps_benchmark::json::Json;
use rps_benchmark::report::Run;
use rps_benchmark::stats::*;
use rps_benchmark::trial::TrialSpec;

#[test]
fn percentiles_by_nearest_rank() {
    let mut v: Vec<f64> = (1..=10).map(f64::from).rev().collect();
    assert_eq!(percentile(&mut v, 0.5), Some(5.0));
    assert_eq!(percentile(&mut v, 0.9), Some(9.0));
    assert_eq!(percentile(&mut v, 0.99), Some(10.0));
    assert_eq!(percentile(&mut v, 0.0), Some(1.0));
    assert_eq!(percentile(&mut [], 0.5), None);
    assert_eq!(percentile(&mut [7.0], 0.9), Some(7.0));
    assert_eq!(beyond(10, 0.9), 1);
    assert_eq!(beyond(150, 0.9), 15);
    assert_eq!(beyond(0, 0.9), 0);
}

#[test]
fn medians() {
    assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), Some(2.5));
    assert_eq!(median(&mut []), None);
}

#[test]
fn quartiles_as_python_gives_them() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&mut v), Some((2.75, 8.25)));
    assert_eq!(quartile_spread(&mut v), Some(1.0));
    // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
    assert_eq!(quartiles(&mut [30.0, 10.0, 20.0]), Some((10.0, 30.0)));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&mut [1.0, 2.0]), Some((0.75, 2.25)));
    assert_eq!(quartiles(&mut [1.0]), None);
}

#[test]
fn normalisation_divides_the_host_out() {
    // The kernel read 20 % slow; with elasticity 1 times shrink and
    // rates grow by exactly that much.
    assert_eq!(120.0 * host_factor(1800.0, 1500.0, 1.0), 100.0);
    assert_eq!(1000.0 / host_factor(1800.0, 1500.0, 1.0), 1200.0);
    // Work that slows twice as much as the kernel is scaled twice (in
    // the exponent).
    assert_eq!(host_factor(3000.0, 1500.0, 2.0), 0.25);
    // At the nominal reading nothing moves, whatever the elasticity.
    assert_eq!(42.0 * host_factor(1500.0, 1500.0, 1.3), 42.0);
}

#[test]
fn ratios_need_a_denominator_the_timer_can_resolve() {
    assert!(guarded_ratio(10.0, 3_999.0, 40.0).is_err());
    assert_eq!(guarded_ratio(10.0, 4_000.0, 40.0), Ok(0.0025));
}

fn trial(ops: f64, checksum: &str) -> Result<Json, String> {
    Json::parse(&format!(
        r#"{{"attempted": 10, "failed": 0, "errors": [], "rows_checksum": "{checksum}",
            "stored_triples": 5, "solution_triples": 9, "reads": 3, "cold_reads": 1,
            "slices": 1, "metrics": {{"ops_per_s": {ops}, "setup_s": 1.5}}}}"#
    ))
}

fn spec() -> TrialSpec {
    TrialSpec {
        workload: Workload::LookupMat,
        seed: 1,
        seconds: 3.0,
        trace: false,
        sized: TINY,
        out_dir: "unused".into(),
    }
}

#[test]
fn a_run_reports_the_median_over_its_trials() {
    let run = Run::fold(
        &spec(),
        &[trial(300.0, "aa"), trial(100.0, "aa"), trial(200.0, "aa")],
    );
    assert!(run.correct());
    assert_eq!(run.value("ops_per_s"), Some(200.0));
    assert_eq!(run.attempted, 31);
    let line = Json::parse(&run.contract_line()).unwrap();
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    let ops = line.get("metrics").unwrap().get("ops_per_s").unwrap();
    assert_eq!(ops.get("value").unwrap().as_f64(), Some(200.0));
    assert_eq!(ops.get("unit").unwrap().as_str(), Some("1/s"));
}

#[test]
fn trials_that_disagree_or_die_fail_the_run() {
    let run = Run::fold(&spec(), &[trial(1.0, "aa"), trial(1.0, "bb")]);
    assert!(!run.correct());
    assert_eq!(run.failed, 1);
    let run = Run::fold(&spec(), &[trial(1.0, "aa"), Err("exit 101".into())]);
    assert_eq!(run.failed, 1);
}

#[test]
fn verdicts() {
    let lower = Rule {
        name: "read_p50_us".into(),
        unit: "us".into(),
        higher_is_better: false,
        bound: 0.10,
    };
    let higher = Rule {
        higher_is_better: true,
        ..lower.clone()
    };
    let tight = |m: f64| [m * 0.99, m, m * 1.01];
    let wide = |m: f64| [m * 0.85, m, m * 1.15];
    assert_eq!(
        judge(&lower, 100.0, &tight(100.0), 105.0, &tight(105.0)),
        Verdict::Same
    );
    assert_eq!(
        judge(&lower, 100.0, &tight(100.0), 115.0, &tight(115.0)),
        Verdict::Worse
    );
    assert_eq!(
        judge(&lower, 100.0, &tight(100.0), 85.0, &tight(85.0)),
        Verdict::Better
    );
    assert_eq!(
        judge(&higher, 100.0, &tight(100.0), 85.0, &tight(85.0)),
        Verdict::Worse
    );
    assert_eq!(
        judge(&higher, 100.0, &tight(100.0), 115.0, &tight(115.0)),
        Verdict::Better
    );
    // Wide trials: within the bound is not "same", and beyond it only
    // counts when every run of one side beats every run of the other.
    assert_eq!(
        judge(&lower, 100.0, &wide(100.0), 105.0, &wide(105.0)),
        Verdict::Unresolved
    );
    assert_eq!(
        judge(&lower, 100.0, &wide(100.0), 115.0, &wide(115.0)),
        Verdict::Unresolved
    );
    assert_eq!(
        judge(&lower, 100.0, &wide(100.0), 150.0, &wide(150.0)),
        Verdict::Worse
    );
}

#[test]
fn a_set_of_several_runs_is_judged_by_its_median() {
    use rps_benchmark::compare::compare;
    let rules = Json::parse(
        r#"{"workloads": [{"name": "w", "why": ""}],
            "end_to_end": [{"name": "read_p50_us", "unit": "us", "better": "lower", "bound": 0.1}]}"#,
    )
    .unwrap();
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("several-runs");
    let _ = std::fs::remove_dir_all(&root);
    let write = |set: &str, values: &[f64]| {
        for (i, v) in values.iter().enumerate() {
            let dir = root.join(set).join(format!("run{i}"));
            std::fs::create_dir_all(&dir).unwrap();
            let text = format!(
                r#"{{"attempted": 10, "failed": 0,
                    "metrics": {{"read_p50_us": {{"value": {v}, "unit": "us", "trials": [{v}]}}}}}}"#
            );
            std::fs::write(dir.join("w.result.json"), text).unwrap();
        }
    };
    // One slow run out of five does not move the median.
    write("base", &[100.0, 101.0, 99.0, 100.5, 99.5]);
    write("one-slow", &[100.0, 130.0, 99.0, 101.0, 100.0]);
    write("all-slow", &[120.0, 121.0, 119.0, 122.0, 118.0]);
    let (report, worse) = compare(&rules, &root.join("base"), &root.join("one-slow")).unwrap();
    assert!(!worse, "{report}");
    assert!(report.contains("medians over 5 and 5 runs"), "{report}");
    let (report, worse) = compare(&rules, &root.join("base"), &root.join("all-slow")).unwrap();
    assert!(worse && report.contains("worse"), "{report}");
}
