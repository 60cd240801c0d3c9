//! Running the whole benchmark: every workload in a fresh process (so
//! peak-memory marks do not leak from one into the next), and the
//! repeatability self-test that holds two sets of runs of the same code
//! against the bounds in `BENCHMARK.json`.

use std::process::{Command, ExitCode, Stdio};

use telemetry::json::{self, Json};

use crate::stats::{compare, iqr_share, median, worsening, Better, Verdict};
use crate::{measure, Args, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`: how long one run measures.
pub const DEFAULT_SECONDS: f64 = 20.0;

const RESULTS_PATH: &str = "benchmark/out/results.json";

/// One child run's result line, parsed.
struct RunResult(Json);

impl RunResult {
    fn counts(&self) -> Option<(bool, u64, u64)> {
        Some((
            self.0.get("correct")? == &Json::Bool(true),
            self.0.get("attempted")?.as_u64()?,
            self.0.get("failed")?.as_u64()?,
        ))
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.0.get("metrics")?.get(name)?.get("value")?.as_f64()
    }
}

/// Run one workload in a fresh process of this executable. Its report is
/// echoed when `echo` is set; its last stdout line is the result.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    echo: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or(format!("{workload} printed nothing ({})", out.status))?;
    if echo {
        for line in lines {
            println!("{line}");
        }
    }
    let result = RunResult(json::parse(last).map_err(|e| format!("{workload}: {e}: {last}"))?);
    match result.counts() {
        Some((true, _, _)) if out.status.success() => Ok(result),
        Some((_, attempted, failed)) => Err(format!(
            "{workload} seed {seed}: {} with {failed}/{attempted} failed",
            out.status
        )),
        None => Err(format!("{workload}: not a result line: {last}")),
    }
}

/// Every workload once (untraced, and traced too with `--trace 1`),
/// printing every metric by name and writing [`RESULTS_PATH`].
pub fn all(args: &Args) -> ExitCode {
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let mut workloads = Vec::new();
    for name in WORKLOADS {
        let mut entry = Vec::new();
        for traced in [false, true] {
            if traced && !args.trace {
                continue;
            }
            match run_child(name, args.seed, seconds, traced, true) {
                Ok(r) => entry.push((
                    if traced { "per_layer" } else { "end_to_end" }.to_string(),
                    r.0,
                )),
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        workloads.push((name.to_string(), Json::Obj(entry)));
    }
    let doc = Json::Obj(vec![
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(seconds)),
        ("nproc".into(), Json::Num(measure::nproc() as f64)),
        ("workers".into(), Json::Num(measure::workers() as f64)),
        ("workloads".into(), Json::Obj(workloads)),
        // This benchmark measures; it claims no gain.
        ("claim".into(), Json::Null),
    ]);
    if let Err(e) = std::fs::create_dir_all("benchmark/out")
        .and_then(|()| std::fs::write(RESULTS_PATH, doc.render()))
    {
        eprintln!("benchmark: writing {RESULTS_PATH}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {RESULTS_PATH} (\"claim\": null)");
    ExitCode::SUCCESS
}

/// An end-to-end metric's entry in `BENCHMARK.json`.
struct Bounded {
    name: String,
    better: Better,
    bound: f64,
}

fn bounds() -> Result<Vec<Bounded>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    json::parse(&text)?
        .get("end_to_end")
        .ok_or("BENCHMARK.json lacks end_to_end")?
        .items()
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric name")?;
            let better = match m.get("better").and_then(Json::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("{name}: better = {other:?}")),
            };
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric bound")?;
            Ok(Bounded {
                name: name.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

/// Two sets of `--runs` untraced runs per workload on the same code, run
/// `i` of each set at seed `--seed + i`. Fails unless, for every
/// end-to-end metric on every workload, the second set's median is no
/// worse than the first's by more than the metric's bound and (except
/// for `setup_s`, as in the driver's rule) the spread within each set
/// stays inside the bound.
pub fn check(args: &Args) -> ExitCode {
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    println!(
        "{:<14} {:<18} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median 1", "median 2", "iqr 1", "iqr 2", "worse", "bound"
    );
    for name in WORKLOADS {
        let mut sets: [Vec<RunResult>; 2] = [Vec::new(), Vec::new()];
        for set in &mut sets {
            for i in 0..args.runs {
                match run_child(name, args.seed + i as u64, seconds, false, false) {
                    Ok(r) => set.push(r),
                    Err(e) => {
                        eprintln!("benchmark: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        for b in &bounds {
            let values = |set: &[RunResult]| -> Vec<f64> {
                set.iter()
                    .map(|r| r.value(&b.name).expect("every run reports every metric"))
                    .collect()
            };
            let (v1, v2) = (values(&sets[0]), values(&sets[1]));
            let (m1, m2) = (median(&v1), median(&v2));
            // One run per set has no spread to speak of.
            let spread = |v: &[f64]| if v.len() < 2 { 0.0 } else { iqr_share(v) };
            let (s1, s2) = (spread(&v1), spread(&v2));
            let gated_spread = if b.name == "setup_s" { 0.0 } else { s1.max(s2) };
            let verdict = compare(m1, m2, b.bound, b.better, gated_spread);
            if matches!(verdict, Verdict::Worse | Verdict::Unresolved) {
                ok = false;
            }
            println!(
                "{:<14} {:<18} {:>12.5} {:>12.5} {:>7.1}% {:>7.1}% {:>7.1}% {:>5.0}%  {:?}",
                name,
                b.name,
                m1,
                m2,
                s1 * 100.0,
                s2 * 100.0,
                worsening(m1, m2, b.better) * 100.0,
                b.bound * 100.0,
                verdict
            );
        }
    }
    if ok {
        println!("check passed: both sets agree within every bound");
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: check failed (Worse: second set beyond the bound; Unresolved: spread beyond the bound)");
        ExitCode::FAILURE
    }
}
