//! Chaos test: the full Figure-1 pipeline under randomized, seeded
//! stream-fault schedules.
//!
//! For each seed the faulted run must (a) complete — a node panic would
//! fail it — (b) never open a position on a degraded symbol
//! while it is degraded, and (c) produce trade-for-trade identical output
//! on pairs untouched by any fault, compared against a fault-free run of
//! the same day with the same configuration.
//!
//! CI runs this as `cargo test -p marketminer --test chaos`.

use marketminer::components::ReplayCollector;
use marketminer::{
    run_sweep_pipeline_with, DegradeReason, FaultedCollector, HealthPolicy, HealthStatus, Runtime,
    SweepConfig, SweepOutput,
};
use pairtrade_core::params::StrategyParams;
use pairtrade_core::trade::Trade;
use stats::correlation::CorrType;
use taq::dataset::DayData;
use taq::generator::{MarketConfig, MarketGenerator};
use taq::{
    CorruptionBurst, DuplicationBurst, OutageWindow, ReorderWindow, StreamFaultLog, StreamFaultPlan,
};

/// Symbols the fault schedule targets; everything else must be untouched.
const TARGETS: [usize; 2] = [1, 4];
const N_STOCKS: usize = 6;

fn fast_params() -> StrategyParams {
    StrategyParams {
        dt_seconds: 30,
        ctype: CorrType::Pearson,
        corr_window: 20,
        avg_window: 10,
        div_window: 5,
        divergence: 0.0005,
        ..StrategyParams::paper_default()
    }
}

fn chaos_day(seed: u64) -> DayData {
    let mut cfg = MarketConfig::small(N_STOCKS, 1, seed);
    // Dense enough that a corruption burst feeds the filter's gate window
    // past `min_gate_samples` and a day holds ~28k quotes.
    cfg.micro.quote_rate_hz = 0.2;
    // A clean tape: every degradation must be attributable to the
    // injected schedule, not to the generator's own error model (whose
    // bad-quote storms can trip the quarantine tripwire on their own).
    cfg.errors = taq::ErrorConfig::none();
    MarketGenerator::new(cfg).next_day().unwrap()
}

/// The fault schedule for one seed. Only `TARGETS` are touched and every
/// window ends well before the close, so each degradation has room to
/// recover on-stream. Deliberately no exchange-wide halt: a halt degrades
/// *every* symbol and would void the clean-pair determinism check.
fn chaos_plan(seed: u64) -> StreamFaultPlan {
    StreamFaultPlan {
        outages: vec![OutageWindow {
            symbol: TARGETS[0] as u16,
            start_s: 6_000,
            end_s: 9_000,
        }],
        halts: vec![],
        bursts: vec![CorruptionBurst {
            symbol: TARGETS[1] as u16,
            start_s: 12_000,
            end_s: 13_200,
            intensity: 0.95,
        }],
        reorders: vec![ReorderWindow {
            symbol: TARGETS[0] as u16,
            start_s: 15_000,
            end_s: 15_600,
            max_delay_ms: 5_000,
        }],
        duplications: vec![DuplicationBurst {
            symbol: TARGETS[1] as u16,
            start_s: 16_000,
            end_s: 16_600,
            copies: 2,
        }],
        seed,
    }
}

/// The Figure-1 pipeline: the sweep graph at one spec.
fn pipeline_cfg() -> SweepConfig {
    let mut cfg =
        SweepConfig::new(N_STOCKS, vec![fast_params()]).with_health(HealthPolicy::default());
    // Loosen the statistical gate so a violent-but-genuine price move
    // can't reject-storm a symbol into quarantine on its own: every
    // quarantine in this test must come from the injected corruption
    // bursts, which the structural wide-spread check catches at any gate
    // width.
    cfg.clean.k_sigma = 12.0;
    cfg
}

/// Per-symbol half-open degraded spans `[from, until)` in interval units,
/// reconstructed from the health events that reached the sink (they
/// arrive in transition order per symbol).
fn degraded_spans(out: &SweepOutput) -> Vec<Vec<(usize, usize)>> {
    let mut spans: Vec<Vec<(usize, usize)>> = vec![Vec::new(); N_STOCKS];
    let mut open: Vec<Option<usize>> = vec![None; N_STOCKS];
    for ev in &out.health_events {
        if ev.status.is_degraded() {
            if open[ev.symbol].is_none() {
                open[ev.symbol] = Some(ev.interval);
            }
        } else if let Some(from) = open[ev.symbol].take() {
            spans[ev.symbol].push((from, ev.interval));
        }
    }
    for (symbol, from) in open.into_iter().enumerate() {
        if let Some(from) = from {
            spans[symbol].push((from, usize::MAX));
        }
    }
    spans
}

fn degraded_at(spans: &[(usize, usize)], interval: usize) -> bool {
    spans.iter().any(|&(a, b)| interval >= a && interval < b)
}

fn clean_pair(t: &Trade) -> bool {
    !TARGETS.contains(&t.pair.0) && !TARGETS.contains(&t.pair.1)
}

fn trade_key(t: &Trade) -> (usize, usize, usize, usize, u64) {
    (
        t.pair.0,
        t.pair.1,
        t.entry_interval,
        t.exit_interval,
        t.pnl.to_bits(),
    )
}

#[test]
fn chaos_runs_are_contained_and_deterministic() {
    let mut fault_log_total = StreamFaultLog::default();
    let mut saw_outage = false;
    let mut saw_quarantine = false;
    let mut saw_recovery = false;
    let mut clean_trades_total = 0usize;

    for seed in [11u64, 23, 47] {
        let cfg = pipeline_cfg();

        // Fault-free reference run of the same day, same configuration.
        let baseline = run_sweep_pipeline_with(
            Runtime::new(),
            Box::new(ReplayCollector::new(chaos_day(seed))),
            &cfg,
        )
        .unwrap();

        // The faulted run.
        let collector = FaultedCollector::new(chaos_day(seed), chaos_plan(seed));
        let log_handle = collector.log_handle();
        let faulted = run_sweep_pipeline_with(Runtime::new(), Box::new(collector), &cfg).unwrap();

        // (a) The run completed: it returned at all, since a node panic
        // fails the run.

        // The injector really did damage the stream (non-vacuity).
        let log = log_handle
            .lock()
            .unwrap()
            .expect("collector ran, log populated");
        assert!(log.dropped > 0, "seed {seed}: outage dropped nothing");
        assert!(log.corrupted > 0, "seed {seed}: burst corrupted nothing");
        assert!(log.delayed > 0, "seed {seed}: reorder delayed nothing");
        assert!(
            log.duplicated > 0,
            "seed {seed}: duplication copied nothing"
        );
        fault_log_total.dropped += log.dropped;
        fault_log_total.corrupted += log.corrupted;
        fault_log_total.delayed += log.delayed;
        fault_log_total.duplicated += log.duplicated;

        // The damage was detected: health events fired on the targets
        // (and only on the targets), and the targets recovered.
        for ev in &faulted.health_events {
            assert!(
                TARGETS.contains(&ev.symbol),
                "seed {seed}: health event on untouched symbol {}",
                ev.symbol
            );
            match ev.status {
                HealthStatus::Degraded(DegradeReason::Outage) => saw_outage = true,
                HealthStatus::Degraded(DegradeReason::Quarantine) => saw_quarantine = true,
                HealthStatus::Degraded(DegradeReason::Halt) => {
                    panic!("seed {seed}: no halt was scheduled")
                }
                HealthStatus::Healthy => saw_recovery = true,
            }
        }

        // (b) Zero entries on a degraded symbol while degraded.
        let spans = degraded_spans(&faulted);
        for t in &faulted.trades_per_param[0] {
            for leg in [t.pair.0, t.pair.1] {
                assert!(
                    !degraded_at(&spans[leg], t.entry_interval),
                    "seed {seed}: trade {t:?} entered while symbol {leg} was degraded \
                     (spans {:?})",
                    spans[leg]
                );
            }
        }

        // (c) Pairs untouched by any fault are trade-for-trade identical
        // to the fault-free run, down to the PnL bits.
        let base_clean: Vec<_> = baseline.trades_per_param[0]
            .iter()
            .filter(|t| clean_pair(t))
            .map(trade_key)
            .collect();
        let fault_clean: Vec<_> = faulted.trades_per_param[0]
            .iter()
            .filter(|t| clean_pair(t))
            .map(trade_key)
            .collect();
        assert_eq!(
            base_clean, fault_clean,
            "seed {seed}: fault on {TARGETS:?} leaked into clean pairs"
        );
        clean_trades_total += fault_clean.len();
    }

    // Across the three seeds every fault class fired and was detected,
    // and the clean-pair check compared real trades, not empty sets.
    assert!(fault_log_total.dropped > 0);
    assert!(saw_outage, "no outage degradation ever detected");
    assert!(saw_quarantine, "no quarantine ever tripped");
    assert!(saw_recovery, "no symbol ever recovered");
    assert!(
        clean_trades_total > 0,
        "clean-pair determinism check was vacuous across all seeds"
    );
}

/// A faulted run with an *empty* plan is the baseline run — the chaos
/// harness itself must not perturb the pipeline.
#[test]
fn empty_fault_plan_is_a_noop() {
    let cfg = pipeline_cfg();
    let a = run_sweep_pipeline_with(
        Runtime::new(),
        Box::new(ReplayCollector::new(chaos_day(7))),
        &cfg,
    )
    .unwrap();
    let b = run_sweep_pipeline_with(
        Runtime::new(),
        Box::new(FaultedCollector::new(chaos_day(7), StreamFaultPlan::none())),
        &cfg,
    )
    .unwrap();
    let key = |o: &SweepOutput| {
        (o.trades_per_param[0].iter())
            .map(trade_key)
            .collect::<Vec<_>>()
    };
    let total_orders = |o: &SweepOutput| o.baskets.iter().map(|b| b.orders.len()).sum::<usize>();
    assert_eq!(key(&a), key(&b));
    assert_eq!(total_orders(&a), total_orders(&b));
}
