//! `rps-benchmark`: runs one workload (as fresh child processes, one
//! trial each), or compares two result sets.

use rps_benchmark::compare::compare;
use rps_benchmark::config::{NamedScale, Workload, FULL, QUARTER, TINY, TRIALS};
use rps_benchmark::json::Json;
use rps_benchmark::report::{trace_file, trial_line, Run};
use rps_benchmark::run_trial;
use rps_benchmark::trace::CountingAlloc;
use rps_benchmark::trial::TrialSpec;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage:
  rps-benchmark --workload <lookup_mat|analytic_mat|lookup_rewrite|live_churn> \\
                --seed <n> --seconds <s> --trace <0|1> [--scale full|quarter|tiny] [--out-dir <dir>]
  rps-benchmark compare <base-dir> <change-dir> [--benchmark-json <path>]";

fn parse_run_args(args: &[String]) -> Result<TrialSpec, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale: Option<NamedScale> = None;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--scale" => {
                scale = Some(
                    [FULL, QUARTER, TINY]
                        .into_iter()
                        .find(|s| s.name == value)
                        .ok_or(format!("unknown scale {value}"))?,
                )
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(TrialSpec {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        sized: scale.unwrap_or_else(|| workload.default_scale()),
        out_dir,
    })
}

fn write(path: &Path, json: &Json) -> Result<(), String> {
    std::fs::write(path, json.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// The child: one trial, its report as the last line of stdout.
fn trial(args: &[String]) -> Result<(), String> {
    let spec = parse_run_args(args)?;
    let report = run_trial(&spec);
    if let Some(trace) = trace_file(&spec, &report) {
        let path = spec
            .out_dir
            .join(format!("{}.trace.json", spec.workload.name()));
        write(&path, &trace)?;
    }
    println!("{}", trial_line(&report));
    Ok(())
}

/// The parent: one child per trial, one at a time, nothing else running
/// here meanwhile.
fn run(args: &[String]) -> Result<(), String> {
    let spec = parse_run_args(args)?;
    std::fs::create_dir_all(&spec.out_dir)
        .map_err(|e| format!("{}: {e}", spec.out_dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // A traced run is one trial, as long as an untraced one.
    let trials = if spec.trace { 1 } else { TRIALS };
    let per_trial = spec.seconds / TRIALS as f64;
    let mut lines = Vec::with_capacity(trials);
    for _ in 0..trials {
        let output = Command::new(&exe)
            .arg("trial")
            .args(["--workload", spec.workload.name()])
            .args(["--seed", &spec.seed.to_string()])
            .args(["--seconds", &per_trial.to_string()])
            .args(["--trace", if spec.trace { "1" } else { "0" }])
            .args(["--scale", spec.sized.name])
            .arg("--out-dir")
            .arg(&spec.out_dir)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn trial: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        lines.push(match stdout.lines().last() {
            Some(line) if output.status.success() => Json::parse(line),
            _ => Err(format!("trial exited with {}", output.status)),
        });
    }
    let run = Run::fold(&spec, &lines);
    print!("{}", run.table());
    let suffix = if spec.trace {
        "traced.result"
    } else {
        "result"
    };
    let path = spec
        .out_dir
        .join(format!("{}.{suffix}.json", spec.workload.name()));
    write(&path, &run.result_file())?;
    // The line says whether the run was correct; the exit code only
    // says that there is a line.
    println!("{}", run.contract_line());
    Ok(())
}

fn compare_sets(args: &[String]) -> Result<bool, String> {
    let mut dirs = Vec::new();
    let mut benchmark_json = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark-json" {
            benchmark_json = PathBuf::from(it.next().ok_or("--benchmark-json needs a path")?);
        } else {
            dirs.push(PathBuf::from(arg));
        }
    }
    let [base, change] = dirs.as_slice() else {
        return Err("compare takes two directories".into());
    };
    let text = std::fs::read_to_string(&benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let rules = Json::parse(&text).map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let (report, worse) = compare(&rules, base, change)?;
    print!("{report}");
    Ok(!worse)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("trial") => trial(&args[1..]).map(|()| true),
        Some("compare") => compare_sets(&args[1..]),
        Some(_) => run(&args).map(|()| true),
        None => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
