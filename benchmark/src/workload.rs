//! What the four workloads share: the load model's constants, tape
//! generation, the canonical form outputs are compared in, and the
//! interface the runner drives.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use marketminer::components::ReplayCollector;
use marketminer::messages::{Basket, OrderSide};
use marketminer::pipeline::{run_sweep_pipeline_with, SweepConfig, SweepOutput};
use marketminer::{Runtime, RuntimeConfig};
use pairtrade_core::trade::Trade;
use taq::dataset::DayData;
use taq::generator::{MarketConfig, MarketGenerator};
use telemetry::profile::Profile;
use telemetry::{TelemetryLevel, TelemetryReport};

use crate::measure::Timed;
use crate::trace::Recorder;

/// Δs of the paper grid, seconds.
pub const DT_SECONDS: u32 = 30;
/// Intervals in a full session at Δs = 30 s.
pub const INTERVALS_PER_DAY: usize = (taq::time::SECONDS_PER_SESSION / DT_SECONDS) as usize;
/// Every tape is generated at this quote rate (0.05 Hz per stock).
pub const QUOTE_RATE_HZ: f64 = 0.05;

/// Where a run happens.
#[derive(Debug, Clone)]
pub struct Env {
    /// The workload seed; the program only ever sees the generated tape.
    pub seed: u64,
    /// `W = min(nproc, 4)`.
    pub workers: usize,
    /// Scratch directory inside the checkout (`benchmark/out`), kept
    /// relative so Unix-socket paths stay under the 108-byte limit.
    pub out_dir: PathBuf,
}

/// Per-layer metrics of a traced run, by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Outcome of checking one op's outputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checked {
    /// Units checked (param-set-days, or feed frames for `serve_fanout`).
    pub attempted: u64,
    /// Units whose output was wrong, degraded or lost.
    pub failed: u64,
}

impl Checked {
    /// An op whose `attempted` units all fail unless `ok` — a mismatch
    /// counts as the whole op.
    pub fn all_or_nothing(attempted: u64, ok: bool) -> Checked {
        Checked {
            attempted,
            failed: if ok { 0 } else { attempted },
        }
    }

    pub fn add(&mut self, other: Checked) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One timed op: the call into the program is timed, the check of its
/// outputs is not.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub checked: Checked,
}

impl Op {
    pub fn new<T>(timed: &Timed<T>, checked: Checked) -> Op {
        Op {
            wall_s: timed.wall_s,
            cpu_s: timed.cpu_s,
            checked,
        }
    }
}

/// One workload: a closed loop of ops driven from the benchmark process.
pub trait Workload {
    /// pairs × specs × session-days covered by one op — the divisor of
    /// the paper's unit, `pair_day_param_ms`.
    fn pair_day_params(&self) -> f64;
    /// Compute the outputs the ops are checked against (part of set-up).
    fn reference(&mut self);
    /// One op through the workload's entry point at `W` workers and
    /// telemetry Off, its outputs checked against the reference.
    fn op(&mut self) -> Op;
    /// The traced run's workload-specific part: ops under spans plus the
    /// layer metrics only this workload can give.
    fn traced(&mut self, rec: &mut Recorder, m: &mut Metrics) -> Checked;
}

/// One full synthetic trading day over `n` stocks.
pub fn tape(n: usize, seed: u64) -> DayData {
    let mut cfg = MarketConfig::small(n, 1, seed);
    cfg.micro.quote_rate_hz = QUOTE_RATE_HZ;
    MarketGenerator::new(cfg)
        .next_day()
        .expect("a one-day market yields one day")
}

/// The first `intervals` Δs-intervals of `day`, as a tape of its own.
pub fn session_prefix(day: &DayData, n: usize, intervals: usize) -> DayData {
    let quotes = day
        .quotes()
        .iter()
        .take_while(|q| q.ts.interval(DT_SECONDS) < intervals)
        .copied()
        .collect();
    DayData::new(day.day, quotes, n, Vec::new())
}

/// The sweep graph over `day`, free-running, in this process.
pub fn run_sweep(
    day: &DayData,
    cfg: &SweepConfig,
    workers: usize,
    telemetry: TelemetryLevel,
) -> SweepOutput {
    let runtime = Runtime::with_config(RuntimeConfig {
        workers,
        telemetry,
        ..RuntimeConfig::default()
    });
    run_sweep_pipeline_with(runtime, Box::new(ReplayCollector::new(day.clone())), cfg)
        .expect("the sweep graph runs")
}

pub fn n_pairs(n: usize) -> usize {
    n * (n - 1) / 2
}

/// A reference sweep's outputs in the form later ones are compared in:
/// trades per parameter set verbatim, baskets without the provenance
/// stamps that `TelemetryLevel::Full` adds.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepDigest {
    trades_per_param: Vec<Vec<Trade>>,
    baskets: Vec<BasketKey>,
}

type OrderKey = (usize, usize, bool, u32, u64, (usize, usize));
type BasketKey = (usize, Vec<OrderKey>);

fn basket_keys(baskets: &[Arc<Basket>]) -> Vec<BasketKey> {
    baskets
        .iter()
        .map(|b| {
            let orders = b
                .orders
                .iter()
                .map(|o| {
                    (
                        o.param_set,
                        o.stock,
                        o.side == OrderSide::Buy,
                        o.shares,
                        o.price.to_bits(),
                        o.pair,
                    )
                })
                .collect();
            (b.interval, orders)
        })
        .collect()
}

impl SweepDigest {
    pub fn new(trades_per_param: &[Vec<Trade>], baskets: &[Arc<Basket>]) -> SweepDigest {
        SweepDigest {
            trades_per_param: trades_per_param.to_vec(),
            baskets: basket_keys(baskets),
        }
    }

    /// `(trades, baskets)` in total.
    pub fn totals(&self) -> (usize, usize) {
        (
            self.trades_per_param.iter().map(Vec::len).sum(),
            self.baskets.len(),
        )
    }

    /// Parameter sets of another run of the same sweep whose trades
    /// differ from this reference; every set when the baskets differ,
    /// since a basket mixes them.
    pub fn failed_params(&self, trades_per_param: &[Vec<Trade>], baskets: &[Arc<Basket>]) -> u64 {
        let specs = self.trades_per_param.len();
        if basket_keys(baskets) != self.baskets || trades_per_param.len() != specs {
            return specs as u64;
        }
        trades_per_param
            .iter()
            .zip(&self.trades_per_param)
            .filter(|(a, b)| a != b)
            .count() as u64
    }
}

/// From a `TelemetryLevel::Full` report of an op that took `wall_s`:
/// self-time of the sweep graph's nodes by layer (the program's own step
/// accounting), the residual `1 − Σ self ÷ (wall × workers)`, and the
/// scheduler's counters (summed over ranks in a fleet report).
pub fn record_graph(report: &TelemetryReport, wall_s: f64, workers: usize, m: &mut Metrics) {
    const LAYERS: [&str; 5] = [
        "marketminer.corr_self_s",
        "marketminer.hosts_self_s",
        "marketminer.risk_self_s",
        "marketminer.gateway_self_s",
        // Collector, bars, technical analysis, sinks — everything else,
        // so the five cover every node exactly once.
        "marketminer.front_self_s",
    ];
    let profile = Profile::from_snapshot(&report.metrics);
    let mut self_ns = [0u64; 5];
    for node in profile.nodes() {
        // Fleet reports prefix node labels with `shard<r>/`.
        let label = node
            .node
            .strip_prefix("shard")
            .and_then(|rest| rest.split_once('/'))
            .filter(|(rank, _)| rank.bytes().all(|b| b.is_ascii_digit()))
            .map_or(node.node.as_str(), |(_, name)| name);
        let layer = if label.starts_with("corr-engine") {
            0
        } else if label.contains("strategy-host") {
            1
        } else if label.starts_with("risk") {
            2
        } else if label.contains("gateway") {
            3
        } else {
            4
        };
        self_ns[layer] += node.self_ns;
    }
    let total_ns: u64 = self_ns.iter().sum();
    assert_eq!(
        total_ns,
        profile.total_self_ns(),
        "the five layers cover every node exactly once"
    );
    for (name, ns) in LAYERS.into_iter().zip(self_ns) {
        m.insert(name, ns as f64 * 1e-9);
    }
    m.insert(
        "marketminer.residual_share",
        1.0 - total_ns as f64 * 1e-9 / (wall_s * workers as f64),
    );

    let counters = &report.metrics;
    m.insert(
        "marketminer.sched_turns",
        counters.counter_total("turns") as f64,
    );
    m.insert(
        "marketminer.sched_requeues",
        counters.counter_total("requeues") as f64,
    );
    // One `parks[from -> to]` counter per edge.
    let parks: u64 = counters
        .counters
        .iter()
        .filter(|((_, name), _)| name.starts_with("parks["))
        .map(|(_, v)| *v)
        .sum();
    m.insert("marketminer.sched_parks", parks as f64);
}
