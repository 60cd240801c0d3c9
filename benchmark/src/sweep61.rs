//! `sweep61`: the paper's universe through the free-running pooled DAG.
//!
//! `run_sweep_pipeline_with` over 61 stocks (1830 pairs) × the 42-spec
//! paper grid (9 correlation streams) on a free-running `Runtime`. This
//! is the paper's and the ROADMAP's headline unit; most node self-time is
//! the warm-started robust correlation engines, the rest strategy hosts,
//! risk, gateway and the scheduler. Shard, checkpoint, wire and serve
//! code does nothing here.
//!
//! A full session costs ≈ 32 s at two workers on the sizing machine, more
//! than one run of the driver's budget, so an op is the session's first
//! [`INTERVALS`] intervals: the universe and the grid are kept whole and
//! the day is cut. By then every correlation window (M = 50/100/200) has
//! filled and hosts are trading; the warm-up intervals make the op cheaper
//! per interval than the steady state (see README, "findings").

use marketminer::pipeline::{SweepConfig, SweepOutput};
use taq::dataset::DayData;
use telemetry::TelemetryLevel;

use crate::measure::timed;
use crate::stats::exact_repeat;
use crate::trace::Recorder;
use crate::workload::{
    n_pairs, record_graph, run_sweep, session_prefix, tape, Checked, Env, Metrics, Op, SweepDigest,
    Workload, INTERVALS_PER_DAY,
};

pub const N_STOCKS: usize = 61;
/// The first two hours of the session.
pub const INTERVALS: usize = 240;

/// `(trades, baskets)` of the op at seed 2009, measured on the tree this
/// benchmark was added to; any other seed is cross-checked only.
const PINNED_SEED: u64 = 2009;
const PINNED_TOTALS: (usize, usize) = (174_184, 130);

pub struct Sweep61 {
    env: Env,
    day: DayData,
    cfg: SweepConfig,
    reference: Option<SweepDigest>,
    /// Wall seconds of the reference op at one worker.
    w1_s: f64,
}

impl Sweep61 {
    pub fn setup(env: &Env) -> Sweep61 {
        let cfg = SweepConfig::paper(N_STOCKS);
        cfg.validate().expect("the paper grid is valid");
        Sweep61 {
            env: env.clone(),
            day: session_prefix(&tape(N_STOCKS, env.seed), N_STOCKS, INTERVALS),
            cfg,
            reference: None,
            w1_s: 0.0,
        }
    }

    fn run(&self, workers: usize, telemetry: TelemetryLevel) -> SweepOutput {
        run_sweep(&self.day, &self.cfg, workers, telemetry)
    }

    fn check(&self, out: &SweepOutput) -> Checked {
        let specs = self.cfg.specs.len() as u64;
        let reference = self.reference.as_ref().expect("reference() ran first");
        let failed = if out.failures.is_empty() && out.stalls.is_empty() {
            reference.failed_params(&out.trades_per_param, &out.baskets)
        } else {
            specs
        };
        Checked {
            attempted: specs,
            failed,
        }
    }
}

impl Workload for Sweep61 {
    fn pair_day_params(&self) -> f64 {
        (n_pairs(N_STOCKS) * self.cfg.specs.len()) as f64 * INTERVALS as f64
            / INTERVALS_PER_DAY as f64
    }

    /// The same op at one worker: the output every `W`-worker op must
    /// reproduce, and the serial baseline of `marketminer.scaling_x`.
    fn reference(&mut self) {
        let t = timed(|| self.run(1, TelemetryLevel::Off));
        let out = t.value;
        assert!(
            out.failures.is_empty() && out.stalls.is_empty(),
            "reference sweep degraded"
        );
        let digest = SweepDigest::new(&out.trades_per_param, &out.baskets);
        if self.env.seed == PINNED_SEED {
            assert_eq!(
                digest.totals(),
                PINNED_TOTALS,
                "sweep61 totals at seed {PINNED_SEED} moved: the program's output changed"
            );
        }
        self.reference = Some(digest);
        self.w1_s = t.wall_s;
    }

    fn op(&mut self) -> Op {
        let t = timed(|| self.run(self.env.workers, TelemetryLevel::Off));
        Op::new(&t, self.check(&t.value))
    }

    fn traced(&mut self, rec: &mut Recorder, m: &mut Metrics) -> Checked {
        let w = self.env.workers;
        rec.span("marketminer.sweep.w1", |_| (self.reference(), 1));
        let off = rec.span("marketminer.sweep.off", |_| {
            (timed(|| self.run(w, TelemetryLevel::Off)), 1)
        });
        let full = rec.span("marketminer.sweep.full", |_| {
            (timed(|| self.run(w, TelemetryLevel::Full)), 1)
        });
        let mut checked = self.check(&off.value);
        checked.add(self.check(&full.value));

        let report = full
            .value
            .telemetry
            .as_ref()
            .expect("a Full run returns its telemetry");
        record_graph(report, full.wall_s, w, m);
        let msgs =
            |out: &SweepOutput| -> u64 { out.node_stats.iter().map(|s| s.messages_in).sum() };
        let msgs = exact_repeat(&[msgs(&off.value), msgs(&full.value)])
            .expect("marketminer.msgs_total must repeat exactly");
        m.insert("marketminer.msgs_total", msgs as f64);
        m.insert("marketminer.op_s.w1", self.w1_s);
        m.insert("marketminer.scaling_x", self.w1_s / off.wall_s);
        m.insert("op.untraced_s", off.wall_s);
        m.insert("op.traced_s", full.wall_s);
        checked
    }
}
