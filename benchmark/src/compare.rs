//! `compare <base> <change>`: two result sets judged by the bounds in
//! `BENCHMARK.json`. A set is a directory holding one run
//! (`<workload>.result.json`) or several (`<any>/<workload>.result.json`,
//! one sub-directory per run). With one run a side's value is the run's
//! and its spread that of the run's trials; with several, the value is
//! the median over runs and the spread is theirs.

use crate::json::Json;
use crate::stats::{median, quartile_spread};
use std::path::Path;

/// One end-to-end metric's rule.
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` iff a higher value is better.
    pub higher_is_better: bool,
    /// Share of the base's median the metric may worsen by.
    pub bound: f64,
}

/// How a metric moved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Better,
    /// Within the bound, and the trials are tight enough to say so.
    Same,
    /// Worse by more than the bound.
    Worse,
    /// The trials spread wider than the bound and the two sides overlap.
    Unresolved,
}

impl Verdict {
    /// As printed.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The end-to-end rules and workload names of a `BENCHMARK.json`.
pub fn read_rules(benchmark_json: &Json) -> Result<(Vec<Rule>, Vec<String>), String> {
    let field = |j: &Json, k: &str| -> Result<String, String> {
        j.get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("BENCHMARK.json: missing `{k}`"))
    };
    let rules = benchmark_json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: missing `end_to_end`")?
        .iter()
        .map(|m| {
            Ok(Rule {
                name: field(m, "name")?,
                unit: field(m, "unit")?,
                higher_is_better: field(m, "better")? == "higher",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("BENCHMARK.json: missing `bound`")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let workloads = benchmark_json
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: missing `workloads`")?
        .iter()
        .map(|w| field(w, "name"))
        .collect::<Result<Vec<_>, String>>()?;
    Ok((rules, workloads))
}

/// The samples' spread as a share of `mid`: between the quartiles, as
/// the driver takes it, where there are samples enough to have
/// quartiles, and between the extremes of a run's few trials.
fn spread(samples: &[f64], mid: f64) -> f64 {
    if samples.len() >= 4 {
        return quartile_spread(&mut samples.to_vec()).unwrap_or(0.0);
    }
    let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if samples.is_empty() || mid == 0.0 {
        0.0
    } else {
        (hi - lo) / mid
    }
}

/// Judges one metric from both sides' medians and trials.
pub fn judge(
    rule: &Rule,
    base: f64,
    base_trials: &[f64],
    change: f64,
    change_trials: &[f64],
) -> Verdict {
    // Orient so that larger is worse.
    let sign = if rule.higher_is_better { -1.0 } else { 1.0 };
    let worsening = sign * (change - base) / base.abs();
    let wide = spread(base_trials, base).max(spread(change_trials, change)) > rule.bound;
    let all = |f: &dyn Fn(f64, f64) -> bool| {
        base_trials
            .iter()
            .all(|b| change_trials.iter().all(|c| f(sign * *c, sign * *b)))
    };
    if worsening > rule.bound && (!wide || all(&|c, b| c > b)) {
        Verdict::Worse
    } else if worsening < -rule.bound && (!wide || all(&|c, b| c < b)) {
        Verdict::Better
    } else if wide {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

fn load_file(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every run of `workload` in the set at `dir`.
fn load(dir: &Path, workload: &str) -> Result<Vec<Json>, String> {
    let file = format!("{workload}.result.json");
    let mut paths = vec![dir.join(&file)];
    let mut runs: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| Some(entry.ok()?.path().join(&file)))
        .collect();
    runs.sort();
    paths.extend(runs);
    let found: Vec<Json> = paths
        .iter()
        .filter(|p| p.is_file())
        .map(|p| load_file(p))
        .collect::<Result<_, _>>()?;
    if found.is_empty() {
        return Err(format!("no {file} in {}", dir.display()));
    }
    Ok(found)
}

/// The value of metric `name` over `runs` and the samples its spread is
/// taken from.
fn metric(runs: &[Json], name: &str) -> Option<(f64, Vec<f64>)> {
    if let [run] = runs {
        let m = run.get("metrics")?.get(name)?;
        let trials = m
            .get("trials")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default();
        return Some((m.get("value")?.as_f64()?, trials));
    }
    let values = runs
        .iter()
        .map(|run| run.get("metrics")?.get(name)?.get("value")?.as_f64())
        .collect::<Option<Vec<f64>>>()?;
    Some((median(&mut values.clone())?, values))
}

fn failed_share(runs: &[Json]) -> f64 {
    let sum = |k: &str| -> f64 {
        runs.iter()
            .map(|run| run.get(k).and_then(Json::as_f64).unwrap_or(0.0))
            .sum()
    };
    sum("failed") / sum("attempted").max(1.0)
}

/// Compares the result sets in `base` and `change`. Returns the report
/// and whether anything got worse (a `worse` verdict or a higher failed
/// share).
pub fn compare(
    benchmark_json: &Json,
    base: &Path,
    change: &Path,
) -> Result<(String, bool), String> {
    let (rules, workloads) = read_rules(benchmark_json)?;
    let mut out = format!(
        "{:<15} {:<18} {:>12} {:>12} {:>7} {:<10} (ratio = change / base)\n",
        "workload", "metric", "base", "change", "ratio", "verdict"
    );
    let mut worse = false;
    let mut seen = 0;
    for workload in &workloads {
        let (b, c) = match (load(base, workload), load(change, workload)) {
            (Ok(b), Ok(c)) => (b, c),
            (Err(e), _) | (_, Err(e)) => {
                out.push_str(&format!("{workload:<15} skipped: {e}\n"));
                continue;
            }
        };
        seen += 1;
        if b.len() > 1 || c.len() > 1 {
            out.push_str(&format!(
                "{workload:<15} medians over {} and {} runs\n",
                b.len(),
                c.len()
            ));
        }
        for rule in &rules {
            let (Some((bv, bt)), Some((cv, ct))) = (metric(&b, &rule.name), metric(&c, &rule.name))
            else {
                out.push_str(&format!("{workload:<15} {:<18} missing\n", rule.name));
                worse = true;
                continue;
            };
            let verdict = judge(rule, bv, &bt, cv, &ct);
            worse |= verdict == Verdict::Worse;
            out.push_str(&format!(
                "{workload:<15} {:<18} {bv:>12.3} {cv:>12.3} {:>7.3} {:<10} {}\n",
                rule.name,
                cv / bv,
                verdict.label(),
                rule.unit
            ));
        }
        let (bf, cf) = (failed_share(&b), failed_share(&c));
        if cf > bf {
            worse = true;
            out.push_str(&format!(
                "{workload:<15} failed share rose from {bf:.6} to {cf:.6}\n"
            ));
        }
        if let (Some((bk, _)), Some((ck, _))) = (
            metric(&b, "host.ref_kernel_us"),
            metric(&c, "host.ref_kernel_us"),
        ) {
            if (ck / bk - 1.0).abs() > 0.10 {
                out.push_str(&format!(
                    "{workload:<15} warning: host.ref_kernel_us differs by more than 10 % \
                     ({bk:.1} vs {ck:.1} us); the host changed between the sets\n"
                ));
            }
        }
    }
    if seen == 0 {
        return Err("no workload has a result file in both sets".into());
    }
    Ok((out, worse))
}
