//! What a trial hands its parent, how a run folds its trials, and the
//! files and lines a run leaves: the result file `compare` reads, the
//! trace file, and the one-line result the driver reads.

use crate::config::Workload;
use crate::json::Json;
use crate::metrics::{per_layer, unit_of, END_TO_END};
use crate::stats::median;
use crate::trial::{TrialReport, TrialSpec};

fn metrics_json(report: &TrialReport) -> Json {
    Json::obj(
        report
            .metrics
            .0
            .iter()
            .map(|(n, v)| (n.as_str(), Json::Num(*v))),
    )
}

/// A trial as the child process prints it (one line).
pub fn trial_line(report: &TrialReport) -> String {
    Json::obj([
        ("attempted", Json::Num(report.tally.attempted as f64)),
        ("failed", Json::Num(report.tally.failed as f64)),
        (
            "errors",
            Json::Arr(report.tally.errors.iter().map(Json::str).collect()),
        ),
        (
            "rows_checksum",
            Json::str(format!("{:016x}", report.rows_checksum)),
        ),
        ("stored_triples", Json::Num(report.stored_triples as f64)),
        (
            "solution_triples",
            report
                .solution_triples
                .map_or(Json::Null, |n| Json::Num(n as f64)),
        ),
        ("reads", Json::Num(report.reads as f64)),
        ("cold_reads", Json::Num(report.cold_reads as f64)),
        ("slices", Json::Num(report.slices as f64)),
        ("metrics", metrics_json(report)),
    ])
    .render()
}

/// The trace file of a traced trial.
pub fn trace_file(spec: &TrialSpec, report: &TrialReport) -> Option<Json> {
    let tracer = report.tracer.as_ref()?;
    let mut members = vec![
        ("workload".to_string(), Json::str(spec.workload.name())),
        ("seed".to_string(), Json::Num(spec.seed as f64)),
        ("scale".to_string(), Json::str(spec.sized.name)),
    ];
    members.extend(tracer.to_json());
    members.push(("metrics".to_string(), metrics_json(report)));
    Some(Json::Obj(members))
}

/// A run: its trials folded.
pub struct Run {
    /// The workload.
    pub workload: Workload,
    /// The seed.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--trace`.
    pub trace: bool,
    /// Scale name.
    pub scale: &'static str,
    /// Attempts over all trials.
    pub attempted: u64,
    /// Failures over all trials, plus disagreements between trials.
    pub failed: u64,
    /// Failure texts.
    pub errors: Vec<String>,
    /// The trials' common checksum.
    pub rows_checksum: String,
    /// `(name, median over trials, every trial's value)`.
    pub metrics: Vec<(String, f64, Vec<f64>)>,
    /// `(reads, cold reads, slices)` per trial.
    pub samples: Vec<(u64, u64, u64)>,
    /// Stored and solution triples.
    pub sizes: (u64, Option<u64>),
}

impl Run {
    /// Folds the children's lines. A child that printed no line counts
    /// as one failed attempt.
    pub fn fold(spec: &TrialSpec, trials: &[Result<Json, String>]) -> Run {
        let mut run = Run {
            workload: spec.workload,
            seed: spec.seed,
            seconds: spec.seconds,
            trace: spec.trace,
            scale: spec.sized.name,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            rows_checksum: String::new(),
            metrics: Vec::new(),
            samples: Vec::new(),
            sizes: (0, None),
        };
        let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let mut checksums: Vec<String> = Vec::new();
        let mut solutions: Vec<Option<u64>> = Vec::new();
        for (i, trial) in trials.iter().enumerate() {
            let trial = match trial {
                Ok(t) => t,
                Err(e) => {
                    run.attempted += 1;
                    run.failed += 1;
                    run.errors.push(format!("trial {i}: {e}"));
                    continue;
                }
            };
            run.attempted += num(trial, "attempted");
            run.failed += num(trial, "failed");
            for e in trial.get("errors").and_then(Json::as_arr).unwrap_or(&[]) {
                run.errors
                    .push(format!("trial {i}: {}", e.as_str().unwrap_or("?")));
            }
            checksums.push(
                trial
                    .get("rows_checksum")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            );
            let solution = trial
                .get("solution_triples")
                .and_then(Json::as_f64)
                .map(|n| n as u64);
            solutions.push(solution);
            run.sizes = (num(trial, "stored_triples"), solution);
            run.samples.push((
                num(trial, "reads"),
                num(trial, "cold_reads"),
                num(trial, "slices"),
            ));
            for (name, value) in trial.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
                let Some(v) = value.as_f64() else { continue };
                match run.metrics.iter_mut().find(|(n, _, _)| n == name) {
                    Some((_, _, all)) => all.push(v),
                    None => run.metrics.push((name.clone(), 0.0, vec![v])),
                }
            }
        }
        for (_, mid, all) in &mut run.metrics {
            *mid = median(&mut all.clone()).expect("at least one trial");
        }
        // Answers and sizes must repeat exactly across trials of a seed.
        run.attempted += 1;
        if checksums.windows(2).any(|w| w[0] != w[1]) || solutions.windows(2).any(|w| w[0] != w[1])
        {
            run.failed += 1;
            run.errors.push(format!(
                "trials disagree: checksums {checksums:?}, solution triples {solutions:?}"
            ));
        }
        run.rows_checksum = checksums.into_iter().next().unwrap_or_default();
        run
    }

    /// `true` iff nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The median of `name` over trials.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// The result file `compare` reads.
    pub fn result_file(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload.name())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("trace", Json::Num(f64::from(u8::from(self.trace)))),
            ("scale", Json::str(self.scale)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "errors",
                Json::Arr(self.errors.iter().map(Json::str).collect()),
            ),
            ("rows_checksum", Json::str(self.rows_checksum.as_str())),
            ("stored_triples", Json::Num(self.sizes.0 as f64)),
            (
                "solution_triples",
                self.sizes.1.map_or(Json::Null, |n| Json::Num(n as f64)),
            ),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, mid, all)| {
                    (
                        name.as_str(),
                        Json::obj([
                            ("value", Json::Num(*mid)),
                            ("unit", Json::str(unit_of(name).unwrap_or("?"))),
                            (
                                "trials",
                                Json::Arr(all.iter().map(|v| Json::Num(*v)).collect()),
                            ),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// The table a person reads: every metric by name and unit, every
    /// trial's value beside the median.
    pub fn table(&self) -> String {
        let mut out = format!(
            "workload {}  seed {}  scale {}  trace {}  seconds {}\n\
             stored triples {}  solution triples {}  rows_checksum {}\n",
            self.workload.name(),
            self.seed,
            self.scale,
            u8::from(self.trace),
            self.seconds,
            self.sizes.0,
            self.sizes.1.map_or("-".to_string(), |n| n.to_string()),
            self.rows_checksum,
        );
        for (i, (reads, cold, slices)) in self.samples.iter().enumerate() {
            out.push_str(&format!(
                "trial {i}: {reads} reads ({cold} cold) in {slices} slices\n"
            ));
        }
        out.push_str(&format!(
            "{:<40} {:>14} {:<11} trials\n",
            "metric", "median", "unit"
        ));
        for (name, mid, all) in &self.metrics {
            let trials: Vec<String> = all.iter().map(|v| format!("{v:.4}")).collect();
            out.push_str(&format!(
                "{:<40} {:>14.4} {:<11} {}\n",
                name,
                mid,
                unit_of(name).unwrap_or("?"),
                trials.join(" ")
            ));
        }
        for e in &self.errors {
            out.push_str(&format!("FAILED: {e}\n"));
        }
        out
    }

    /// The last line of standard output, as the driver's contract has
    /// it: with `--trace 0` every end-to-end metric, with `--trace 1`
    /// every per-layer metric. A per-layer metric that does not exist
    /// on this workload (the chase under `Strategy::Rewrite`, the ladder
    /// outside `analytic_mat`, ...) reads 0 here and is absent from the
    /// table, the result file and the trace file.
    pub fn contract_line(&self) -> String {
        let names: Vec<(String, &str)> = if self.trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect()
        };
        let metrics = names.into_iter().map(|(name, unit)| {
            let value = self.value(&name).unwrap_or(0.0);
            (
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }
}
