//! The repo's benchmark: four workloads, end-to-end metrics measured with
//! telemetry off, and a traced run that breaks each workload down by
//! layer from outside. See `README.md` beside this package and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run; the last
//!                                                        stdout line is its result
//! run.sh [--seed N] [--seconds S] [--trace 0|1]          every workload, each in a
//!                                                        fresh process
//! run.sh --check [--runs R] [--seed N] [--seconds S]     repeatability self-test
//! ```

mod batch_tables;
mod fleet_ckpt;
mod layers;
mod measure;
mod serve_fanout;
mod stats;
mod suite;
mod sweep61;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use telemetry::json::Json;

use crate::stats::median;
use crate::trace::Recorder;
use crate::workload::{Checked, Env, Metrics, Workload};

pub const WORKLOADS: [&str; 4] = ["sweep61", "batch_tables", "fleet_ckpt", "serve_fanout"];

/// End-to-end metrics `(name, unit)`: what every untraced run reports.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_s", "s"),
    ("pair_day_param_ms", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`: what every traced run reports. A
/// metric of a layer the workload does not touch reads 0.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("taq.gen_day_ms", "ms"),
    ("taq.tape_codec_mb_s", "MB/s"),
    ("timeseries.grid_ms", "ms"),
    ("timeseries.returns_ms", "ms"),
    ("timeseries.clean_reject_share", "ratio"),
    ("stats.pearson_blocked_ns_pair.n61", "ns"),
    ("stats.pearson_blocked_ns_pair.n250", "ns"),
    ("stats.pearson_blocked_ns_pair.n1000", "ns"),
    ("stats.online_update_ns_pair.n61", "ns"),
    ("stats.online_update_ns_pair.n250", "ns"),
    ("stats.maronna_cold_ns_pair.n61", "ns"),
    ("stats.maronna_warm_ns_pair.n61", "ns"),
    ("stats.maronna_warm_ns_pair.n250", "ns"),
    ("stats.combined_warm_ns_pair.n61", "ns"),
    ("stats.simd_x", "x"),
    ("core.pair_day_us", "us"),
    ("core.ckpt_save_ms.p50", "ms"),
    ("core.ckpt_save_ms.tail", "ms"),
    ("core.ckpt_fsyncs_per_save", "count"),
    ("core.ckpt_recover_ms", "ms"),
    ("wire.corr_encode_mb_s", "MB/s"),
    ("wire.corr_decode_mb_s", "MB/s"),
    ("wire.corr_frame_bytes", "bytes"),
    ("marketminer.corr_self_s", "s"),
    ("marketminer.hosts_self_s", "s"),
    ("marketminer.risk_self_s", "s"),
    ("marketminer.gateway_self_s", "s"),
    ("marketminer.front_self_s", "s"),
    ("marketminer.residual_share", "ratio"),
    ("marketminer.sched_turns", "count"),
    ("marketminer.sched_parks", "count"),
    ("marketminer.sched_requeues", "count"),
    ("marketminer.msgs_total", "count"),
    ("marketminer.op_s.w1", "s"),
    ("marketminer.scaling_x", "x"),
    ("live.day_s", "s"),
    ("live.feed_epoch_ms.p50", "ms"),
    ("live.feed_epoch_ms.tail", "ms"),
    ("shard.uds_rtt_us.1k", "us"),
    ("shard.uds_rtt_us.1m", "us"),
    ("shard.uds_mb_s", "MB/s"),
    ("shard.ckpt_dir_mb", "MB"),
    ("shard.frames_accepted", "count"),
    ("shard.restarts", "count"),
    ("shard.recovery_s", "s"),
    ("shard.in_process_s", "s"),
    ("shard.overhead_x", "x"),
    ("backtest.generate_s", "s"),
    ("backtest.grid_s", "s"),
    ("backtest.cube_s", "s"),
    ("backtest.strategy_s", "s"),
    ("backtest.residual_share", "ratio"),
    ("serve.publish_us.p50", "us"),
    ("serve.publish_us.tail", "us"),
    ("serve.ring_push_pop_ns", "ns"),
    ("serve.topk_us", "us"),
    ("serve.event_encode_us", "us"),
    ("serve.stalled_drop_share", "ratio"),
    ("serve.frames_per_s", "1/s"),
    ("serve.overhead_x", "x"),
    ("telemetry.full_overhead_x", "x"),
    ("op.untraced_s", "s"),
    ("op.traced_s", "s"),
];

/// Command-line arguments (see the module docs for the three forms).
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub check: bool,
    pub runs: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2009,
        seconds: None,
        trace: false,
        check: false,
        runs: 2,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--check" {
            args.check = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload {value}; one of {}",
                        WORKLOADS.join(", ")
                    ));
                }
                args.workload = Some(value.clone());
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--runs" => {
                args.runs = value.parse().map_err(|e| bad(&e))?;
                if args.runs == 0 {
                    return Err(bad(&"must be at least 1"));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn make(name: &str, env: &Env) -> Box<dyn Workload> {
    match name {
        "sweep61" => Box::new(sweep61::Sweep61::setup(env)),
        "batch_tables" => Box::new(batch_tables::BatchTables::setup(env)),
        "fleet_ckpt" => Box::new(fleet_ckpt::FleetCkpt::setup(env)),
        "serve_fanout" => Box::new(serve_fanout::ServeFanout::setup(env)),
        other => unreachable!("parse_args admitted workload {other}"),
    }
}

/// The result object the driver reads from the last stdout line.
fn result_line(checked: Checked, metrics: &[(&str, &str, f64)]) -> String {
    let metrics = metrics
        .iter()
        .map(|&(name, unit, value)| {
            assert!(value.is_finite(), "{name} is not a finite number: {value}");
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(checked.failed == 0)),
        ("attempted".into(), Json::Num(checked.attempted as f64)),
        ("failed".into(), Json::Num(checked.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .render()
}

fn print_metrics(title: &str, metrics: &[(&str, &str, f64)], samples: &[(&str, usize)]) {
    println!("{title}");
    for &(name, unit, value) in metrics {
        let n = samples
            .iter()
            .find(|(m, _)| *m == name)
            .map_or(String::new(), |(_, n)| format!("  (n={n})"));
        println!("  {name:<40} {value:>16.6} {unit}{n}");
    }
}

/// One untraced run: set-up, then a closed loop of ops at telemetry Off
/// until `seconds` have been measured.
///
/// Set-up is everything before the first timed op: tape generation,
/// staging, constructing the program's objects, and the reference
/// computation the ops are checked against, which is also the warm-up.
/// Each reference costs about one op, so `setup_s` is seconds, not
/// milliseconds, and steady without repeating it.
fn run_untraced(name: &str, env: &Env, seconds: f64) -> ExitCode {
    let t = Instant::now();
    let mut workload = make(name, env);
    workload.reference();
    let setup_s = t.elapsed().as_secs_f64();

    let (mut wall, mut cpu) = (Vec::new(), Vec::new());
    let mut checked = Checked::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let op = workload.op();
        wall.push(op.wall_s);
        cpu.push(op.cpu_s);
        checked.add(op.checked);
    }
    let op_s = median(&wall);
    let values = [
        setup_s,
        op_s,
        op_s * 1e3 / workload.pair_day_params(),
        median(&cpu),
        measure::peak_rss_mb(),
    ];
    drop(workload);
    let metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect();
    let (fastest, slowest) = wall
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &s| (lo.min(s), hi.max(s)));
    print_metrics(
        &format!(
            "{name}: seed {} nproc {} W {} ops {} ({fastest:.3}..{slowest:.3} s) failed {}/{}",
            env.seed,
            measure::nproc(),
            env.workers,
            wall.len(),
            checked.failed,
            checked.attempted
        ),
        &metrics,
        &[
            ("setup_s", 1),
            ("op_s", wall.len()),
            ("pair_day_param_ms", wall.len()),
            ("cpu_s", cpu.len()),
            ("peak_rss_mb", 1),
        ],
    );
    println!("{}", result_line(checked, &metrics));
    exit_code(checked)
}

/// One traced run: the workload's ops under the span recorder (once at
/// Off, once at Full), then every kernel probe.
fn run_traced(name: &str, env: &Env) -> ExitCode {
    let mut rec = Recorder::new(name);
    let mut m: Metrics = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    let mut workload = make(name, env);
    let checked = rec.span("workload", |rec| (workload.traced(rec, &mut m), 1));
    drop(workload);
    m.insert(
        "telemetry.full_overhead_x",
        m["op.traced_s"] / m["op.untraced_s"],
    );
    layers::run(&mut rec, env, &mut m);
    assert_eq!(
        m.len(),
        PER_LAYER.len(),
        "a metric outside PER_LAYER was set"
    );

    let path = env.out_dir.join(format!("trace-{name}.json"));
    if let Err(e) = rec.write(&path) {
        eprintln!("benchmark: writing {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, m[name]))
        .collect();
    print_metrics(
        &format!(
            "{name} traced: seed {} nproc {} W {} spans {} → {}",
            env.seed,
            measure::nproc(),
            env.workers,
            rec.spans().len(),
            path.display()
        ),
        &metrics,
        &[],
    );
    println!("{}", result_line(checked, &metrics));
    exit_code(checked)
}

fn exit_code(checked: Checked) -> ExitCode {
    if checked.failed == 0 && checked.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "benchmark: output check failed ({}/{})",
            checked.failed, checked.attempted
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let env = Env {
        seed: args.seed,
        workers: measure::workers(),
        out_dir: PathBuf::from("benchmark/out"),
    };
    if args.check {
        return suite::check(&args);
    }
    match &args.workload {
        None => suite::all(&args),
        Some(name) if args.trace => run_traced(name, &env),
        Some(name) => run_untraced(name, &env, args.seconds.unwrap_or(suite::DEFAULT_SECONDS)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload fleet_ckpt --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("fleet_ckpt"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.check),
            (7, Some(20.0), true, false)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        let c = parse_args(&argv("--check --runs 10")).unwrap();
        assert!(c.check && c.runs == 10 && c.seed == 2009);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            Checked {
                attempted: 84,
                failed: 0,
            },
            &[("op_s", "s", 1.25), ("setup_s", "s", 0.5)],
        );
        let doc = telemetry::json::parse(&line).unwrap();
        let Json::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(84));
        let op = doc.get("metrics").unwrap().get("op_s").unwrap();
        assert_eq!(op.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(op.get("unit").and_then(Json::as_str), Some("s"));
        assert!(!line.contains('\n'));
    }

    /// `BENCHMARK.json` and this file name the same metrics and units.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = telemetry::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .unwrap()
                .items()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(suite::DEFAULT_SECONDS)
        );
    }
}
