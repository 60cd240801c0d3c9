//! Dynamic graph reconfiguration: a sweep session whose set of strategy
//! specs can change while the runtime is live.
//!
//! [`LiveSweepSession`] is a `pipeline::SweepSession` (which owns feeding an
//! epoch and draining its cut) plus two things. It **folds**: baskets and
//! trade reports leave the graph as they become final, so every cut
//! drains some, and the session keeps them in the day's running output
//! (whole again at [`finish`](LiveSweepSession::finish)) instead of
//! handing them to the caller per cut — see [`LiveEpoch::messages`]. And
//! between epochs it **reconfigures**: [`attach`](LiveSweepSession::attach)
//! adds a new [`StrategySpec`] (and, if its `(Ctype, M)` stream is new, a
//! new correlation engine and stream node), [`detach`](LiveSweepSession::detach)
//! removes one (and any stream node and engine left without specs). Which
//! streams and engines an incarnation runs, and their ids, is the
//! [`EnginePlan`](stats::parallel::EnginePlan) of the attached specs —
//! the graph builder's and [`stream_keys`](LiveSweepSession::stream_keys)'
//! alike.
//!
//! ## How reconfiguration preserves determinism
//!
//! The runtime's epoch-quiescent capture/restore cut is the mechanism.
//! At an epoch boundary every inbox is empty and every node idle, so the
//! graph's entire state is the per-node durable state
//! ([`SessionCkpt`]) — a deterministic function of the fed quote prefix,
//! independent of worker count. Reconfiguration then:
//!
//! 1. captures the quiescent session (`SweepSession::capture`);
//! 2. builds a **new** graph over the new spec set (same builder as a
//!    static graph — node topology is never surgically mutated);
//! 3. opens a fresh session on it and restores state **by node name**:
//!    node *indices* shift when streams come and go, but every node's
//!    name is unique and stable (`strategy-host(ctype, M=…)` and
//!    `corr-engine(ctype, M=…)` carry the stream key —
//!    `corr-engine(robust, M=…)` for the plane that runs `Maronna(M)`
//!    and `Combined(M)`, whichever of the two are subscribed),
//!    so each surviving node gets back exactly the bytes it captured.
//!    One level down, a stream node restores by parameter set: it keeps
//!    the state of every spec both incarnations host, starts a newly
//!    attached spec cold and drops a detached one's.
//!
//! A surviving node therefore re-enters the new graph with bit-identical
//! state, counters and provenance sequence, and the shared front end
//! (collector → bars) feeds it bit-identical messages — so an untouched
//! spec's output is bit-identical to a static graph that never
//! reconfigured (verified at workers 1/2/max in `serve/tests/serve.rs`).
//! A *freshly attached* spec (and a fresh engine for a new stream — or a
//! fresh lane on the robust plane already running the other measure of
//! its window, which keeps its own count of returns) starts cold at the
//! cut and warms up from live data — the same semantics a restarted
//! exchange feed would have. Feed health needs no such care: every bar
//! set carries each symbol's status, so a new engine masks and a new
//! stream node sits pairs out from the first bar set it sees, and no spec
//! on a new stream opens a pair on a symbol degraded before the cut.
//!
//! Provenance ids stay collision-free across cuts: an event id packs
//! `(node index, per-node sequence)`, and on restore each node index
//! resumes from the **maximum** of its name-matched sequence and the
//! sequence any previous occupant of that index had reached.

use std::collections::HashMap;
use std::sync::Arc;

use pairtrade_core::spec::StrategySpec;
use pairtrade_core::trade::Trade;
use taq::quote::Quote;
use telemetry::lineage::LineageEvent;
use telemetry::TelemetryReport;

use crate::components::ReplayCollector;
use crate::graph::GraphError;
use crate::messages::{Basket, CorrSnapshot, HealthEvent, Message};
use crate::pipeline::{NodeFailure, SinkOutput, SweepConfig, SweepSession};
use crate::runtime::{NodeCkpt, Runtime, RuntimeConfig, SessionCkpt};

/// What one fed epoch produced, drained at the quiescent cut.
#[derive(Debug, Default)]
pub struct LiveEpoch {
    /// The epoch index (0-based count of `feed_epoch` calls).
    pub epoch: u64,
    /// Order-sink messages of the cut other than baskets and trade
    /// reports — health transitions, as they flow (one effective at
    /// interval `t` leaves the graph with bar set `t`, so one effective
    /// at the day's last interval leaves only at
    /// [`LiveSweepSession::finish`]). The cut's baskets and
    /// trade reports are folded into the session's [`LiveOutput`] and
    /// surface whole at [`LiveSweepSession::finish`]. (Delivering them
    /// per cut changes how many frames a served cut pushes through the
    /// egress rings; that is a follow-up with its own benchmark, see
    /// ROADMAP "live basket delivery".)
    pub messages: Vec<Message>,
    /// Correlation snapshots from the analytics tap, in stream order
    /// within each interval (`Arc`-shared with what the stream nodes saw).
    pub snapshots: Vec<Arc<CorrSnapshot>>,
    /// Lineage drained since the previous cut (empty below
    /// `TelemetryLevel::Full`).
    pub lineage: Vec<LineageEvent>,
}

/// Everything a finished live session produced.
#[derive(Debug)]
pub struct LiveOutput {
    /// The day's trades per global param-set index (slots never
    /// attached, or detached before end of day, are empty).
    pub trades_per_param: Vec<Vec<Trade>>,
    /// The day's baskets, in interval order: those every cut drained
    /// plus the final flush.
    pub baskets: Vec<Arc<Basket>>,
    /// Health transitions from the final flush (the ones no cut
    /// drained), canonically ordered.
    pub health_events: Vec<Arc<HealthEvent>>,
    /// Lineage recorded after the last epoch drain.
    pub lineage: Vec<LineageEvent>,
    /// Node names of the final graph incarnation.
    pub node_names: Vec<String>,
    /// Always empty: a node panic fails the session at its next cut
    /// (see [`crate::pipeline::SweepOutput::failures`]).
    pub failures: Vec<NodeFailure>,
    /// The final incarnation's telemetry (`None` at `Off`).
    pub telemetry: Option<TelemetryReport>,
}

/// An epoch-driven sweep session supporting live attach/detach of
/// strategy specs. See the module docs for the determinism argument.
pub struct LiveSweepSession {
    /// The sweep configuration; `specs` is the append-only global
    /// param-set table (detached specs keep their slot so indices stay
    /// stable fleet-wide).
    cfg: SweepConfig,
    /// Indices into `cfg.specs` currently attached, ascending.
    active: Vec<usize>,
    /// How to build each incarnation's runtime identically.
    rt_config: RuntimeConfig,
    /// The current incarnation.
    session: SweepSession,
    epoch: u64,
    /// Reconfigurations performed so far.
    reconfigs: u64,
    /// Baskets and trade reports drained at the cuts so far.
    day: SinkOutput,
}

impl LiveSweepSession {
    /// Open a live session over `cfg` with every spec attached.
    ///
    /// The configuration is validated up front exactly like
    /// [`crate::pipeline::run_sweep_pipeline_with`].
    pub fn new(cfg: SweepConfig, rt_config: RuntimeConfig) -> Result<LiveSweepSession, GraphError> {
        cfg.validate().map_err(|e| {
            GraphError::Config(telemetry::ConfigError::invalid("sweep config", e.0))
        })?;
        let active: Vec<usize> = (0..cfg.specs.len()).collect();
        Ok(LiveSweepSession {
            session: Self::open_session(&cfg, &active, rt_config, None)?,
            cfg,
            active,
            rt_config,
            epoch: 0,
            reconfigs: 0,
            day: SinkOutput::default(),
        })
    }

    /// Build a fresh graph over the `active` set, open a session on it,
    /// and (when reconfiguring) restore `prior` state by name.
    fn open_session(
        cfg: &SweepConfig,
        active: &[usize],
        rt_config: RuntimeConfig,
        prior: Option<(Vec<String>, SessionCkpt)>,
    ) -> Result<SweepSession, GraphError> {
        let runtime = Runtime::with_config(rt_config);
        let session =
            SweepSession::open(runtime, cfg, active, &ReplayCollector::node_name(0), true)?;
        if let Some((old_names, ckpt)) = prior {
            let by_name: HashMap<&str, &NodeCkpt> = old_names
                .iter()
                .map(String::as_str)
                .zip(ckpt.nodes.iter())
                .collect();
            let new_names = session.node_names();
            let nodes = new_names
                .iter()
                .enumerate()
                .map(|(idx, name)| {
                    // A node new to the graph starts cold.
                    let mut node = (by_name.get(name.as_str()))
                        .map_or_else(NodeCkpt::default, |n| (*n).clone());
                    // Never mint an event id a previous occupant of this
                    // node index already used.
                    if let Some(old) = ckpt.nodes.get(idx) {
                        node.next_out = node.next_out.max(old.next_out);
                    }
                    node
                })
                .collect();
            session
                .restore(&SessionCkpt { nodes })
                .map_err(|e| GraphError::Io(format!("live restore: {e}")))?;
        }
        Ok(session)
    }

    /// The quiescent capture/rebuild/restore cut shared by attach and
    /// detach. The session must be between epochs (it always is: `&mut
    /// self` serialises callers against `feed_epoch`).
    fn reconfigure(&mut self, active: Vec<usize>) -> Result<(), GraphError> {
        // `feed_epoch` left the graph quiescent and drained at the last
        // cut; anything that trickled in since (it cannot — nothing was
        // fed) would fail capture loudly rather than vanish.
        let ckpt =
            (self.session.capture()).map_err(|e| GraphError::Io(format!("live capture: {e}")))?;
        let prior = Some((self.session.node_names(), ckpt));
        // Replacing the session shuts the old incarnation's pool down; a
        // refused rebuild leaves it running as it was.
        self.session = Self::open_session(&self.cfg, &active, self.rt_config, prior)?;
        self.active = active;
        self.reconfigs += 1;
        Ok(())
    }

    /// Attach a new strategy spec (and, if needed, a new correlation
    /// engine and stream node) without restarting the runtime. Returns
    /// the global param-set index the spec will attribute its trades to.
    /// The spec starts cold at this cut; every pre-existing spec is
    /// untouched.
    pub fn attach(&mut self, spec: StrategySpec) -> Result<usize, GraphError> {
        let cfg_err =
            |msg: String| GraphError::Config(telemetry::ConfigError::invalid("live attach", msg));
        spec.validate().map_err(|e| cfg_err(e.0))?;
        let dt = self.cfg.specs[self.active[0]].dt_seconds();
        if spec.dt_seconds() != dt {
            return Err(cfg_err(format!(
                "attached spec has Δs={}s but the live sweep shares Δs={dt}s",
                spec.dt_seconds()
            )));
        }
        let param_set = self.cfg.specs.len();
        self.cfg.specs.push(spec);
        let mut active = self.active.clone();
        active.push(param_set);
        match self.reconfigure(active) {
            Ok(()) => Ok(param_set),
            Err(e) => {
                self.cfg.specs.pop();
                Err(e)
            }
        }
    }

    /// Detach the spec for global param-set `param_set`, and any stream
    /// node and correlation engine left without specs. Its open
    /// positions are abandoned (no exit orders will ever be emitted for
    /// them) and its end-of-day report will be empty; every remaining
    /// spec is untouched.
    pub fn detach(&mut self, param_set: usize) -> Result<(), GraphError> {
        let cfg_err =
            |msg: String| GraphError::Config(telemetry::ConfigError::invalid("live detach", msg));
        let Some(pos) = self.active.iter().position(|&k| k == param_set) else {
            return Err(cfg_err(format!("param set {param_set} is not attached")));
        };
        if self.active.len() == 1 {
            return Err(cfg_err("cannot detach the last strategy spec".into()));
        }
        let mut active = self.active.clone();
        active.remove(pos);
        self.reconfigure(active)?;
        // A detached spec reports nothing for the day, not half of it.
        self.day.forget_trades_of(param_set);
        Ok(())
    }

    /// Feed one epoch of quotes, quiesce, and drain the cut.
    pub fn feed_epoch(&mut self, quotes: &[Quote]) -> LiveEpoch {
        let cut = self.session.feed_epoch(quotes);
        let mut messages = Vec::new();
        for msg in cut.messages {
            match msg {
                Message::Basket(_) | Message::Trades(_) => self.day.fold(msg),
                other => messages.push(other),
            }
        }
        let out = LiveEpoch {
            epoch: self.epoch,
            messages,
            snapshots: cut.snapshots,
            lineage: cut.lineage,
        };
        self.epoch += 1;
        out
    }

    /// Global indices of the currently attached param sets, ascending.
    pub fn active(&self) -> &[usize] {
        &self.active
    }

    /// The global param-set table (attached and detached).
    pub fn specs(&self) -> &[StrategySpec] {
        &self.cfg.specs
    }

    /// The sweep configuration driving the current incarnation.
    pub fn config(&self) -> &SweepConfig {
        &self.cfg
    }

    /// Stream key per live stream id: `stream_keys()[j]` is the
    /// `(Ctype, M)` tag correlation snapshots with `stream == j` carry
    /// right now — the plan of the attached specs, re-derived per
    /// incarnation.
    pub fn stream_keys(&self) -> Vec<(stats::correlation::CorrType, usize)> {
        let keys = self.active.iter().map(|&k| self.cfg.specs[k].stream_key());
        stats::parallel::EnginePlan::of(keys).streams
    }

    /// The current incarnation's telemetry hub (`None` at
    /// `TelemetryLevel::Off`) — the serving layer reads live registry
    /// snapshots and lineage-ring drop counts through this handle.
    pub fn telemetry(&self) -> Option<Arc<telemetry::Telemetry>> {
        self.session.telemetry()
    }

    /// Node names of the current incarnation, in node-id order.
    pub fn node_names(&self) -> Vec<String> {
        self.session.node_names()
    }

    /// Epochs fed so far.
    pub fn epochs(&self) -> u64 {
        self.epoch
    }

    /// Reconfigurations (attach + detach) performed so far.
    pub fn reconfigs(&self) -> u64 {
        self.reconfigs
    }

    /// End the day: propagate EOF, fold the final flush (end-of-day
    /// closes, last baskets) into what the cuts drained, and collect the
    /// final incarnation's telemetry.
    pub fn finish(self) -> LiveOutput {
        let node_names = self.session.node_names();
        let (cut, out) = self.session.finish();
        let mut day = self.day;
        for msg in cut.messages {
            day.fold(msg);
        }
        let SinkOutput {
            trades_per_param,
            baskets,
            health_events,
        } = day.finish(self.cfg.specs.len());
        LiveOutput {
            trades_per_param,
            baskets,
            health_events,
            lineage: cut.lineage,
            node_names,
            failures: Vec::new(),
            telemetry: out.telemetry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_sweep_pipeline;
    use crate::pipeline::tests::{fast_params, small_day};
    use pairtrade_core::params::StrategyParams;
    use stats::correlation::CorrType;
    use telemetry::TelemetryLevel;

    fn rt(workers: usize) -> RuntimeConfig {
        RuntimeConfig {
            workers,
            telemetry: TelemetryLevel::Off,
        }
    }

    /// One tape, every feed: the whole day in one stream, the sweep session at
    /// epochs of one quote, 997 quotes and the whole day, and a mid-day
    /// capture → fresh session → restore all produce the same day and the
    /// same row of stats for every node but the entry edge's, at every
    /// pool size.
    #[test]
    fn live_epochs_match_static_run() {
        use crate::components::HealthPolicy;
        use crate::pipeline::{quote_batches, run_sweep_pipeline_with, SweepSession};

        let (day, n) = small_day(77);
        let p1 = fast_params();
        let p2 = StrategyParams {
            divergence: 0.001,
            ..p1
        };
        let policy = HealthPolicy {
            outage_intervals: 3,
            halt_intervals: 2,
        };
        let cfg = SweepConfig::new(n, vec![p1, p2]).with_health(policy);
        let quotes = day.quotes();
        for workers in [1usize, 2, 0] {
            let runtime = || Runtime::with_config(rt(workers));
            let source = Box::new(ReplayCollector::new(day.clone()));
            let statics = run_sweep_pipeline_with(runtime(), source, &cfg).unwrap();
            assert!(!statics.baskets.is_empty() && !statics.health_events.is_empty());
            // The tape enters one batch per interval run, and a batch never
            // spans an epoch: the entry edge's counts follow the cut.
            let runs = |epoch_quotes: usize| -> u64 {
                (quotes.chunks(epoch_quotes))
                    .map(|chunk| quote_batches(chunk, p1.dt_seconds).count() as u64)
                    .sum()
            };
            assert_eq!(statics.node_stats[0].messages_out, runs(quotes.len()));

            let drive = |epoch_quotes: usize, restore_after: Option<usize>| {
                let name = ReplayCollector::node_name(day.day);
                let open = || SweepSession::open(runtime(), &cfg, &[0, 1], &name, false).unwrap();
                let mut session = open();
                let mut got = SinkOutput::default();
                for (epoch, chunk) in quotes.chunks(epoch_quotes).enumerate() {
                    session
                        .feed_epoch(chunk)
                        .messages
                        .into_iter()
                        .for_each(|m| got.fold(m));
                    if restore_after == Some(epoch) {
                        let ckpt = session.capture().unwrap();
                        session = open();
                        session.restore(&ckpt).unwrap();
                    }
                }
                let (cut, out) = session.finish();
                cut.messages.into_iter().for_each(|m| got.fold(m));
                (got.finish(cfg.specs.len()), out.node_stats)
            };
            for (epoch_quotes, restore_after) in
                [(1, None), (997, None), (quotes.len(), None), (997, Some(2))]
            {
                let (got, node_stats) = drive(epoch_quotes, restore_after);
                let what = format!("workers={workers} epoch={epoch_quotes} {restore_after:?}");
                assert_eq!(got.trades_per_param, statics.trades_per_param, "{what}");
                assert_eq!(got.baskets, statics.baskets, "{what}");
                assert_eq!(got.health_events, statics.health_events, "{what}");
                let mut want = statics.node_stats.clone();
                (want[0].messages_out, want[1].messages_in) =
                    (runs(epoch_quotes), runs(epoch_quotes));
                assert_eq!(node_stats, want, "{what}");
            }

            let mut live = LiveSweepSession::new(cfg.clone(), rt(workers)).unwrap();
            let mut saw_snapshots = false;
            for chunk in quotes.chunks(quotes.len().div_ceil(5).max(1)) {
                let cut = live.feed_epoch(chunk);
                saw_snapshots |= !cut.snapshots.is_empty();
            }
            let out = live.finish();
            assert!(saw_snapshots, "the tap must observe correlation streams");
            assert_eq!(out.trades_per_param, statics.trades_per_param);
            assert_eq!(out.baskets, statics.baskets);
        }
    }

    /// Survivors of a reconfiguration are bit-identical to a static
    /// graph, at every pool size: when a third family is attached mid-day
    /// on a brand-new stream and detached again, and when a detach removes
    /// a stream other than the last, so that every later stream's id
    /// shifts down. From that cut's open interval on, each basket holds
    /// exactly the survivors' orders.
    #[test]
    fn attach_and_detach_leave_survivors_bit_identical() {
        let (day, n) = small_day(57);
        let p1 = fast_params();
        let p2 = StrategyParams {
            divergence: 0.001,
            ..p1
        };
        let p3 = StrategyParams {
            ctype: CorrType::Quadrant,
            ..p1
        };
        let windows = |m: usize| StrategyParams {
            corr_window: m,
            ..p1
        };
        let quotes = day.quotes();
        let chunk = quotes.len().div_ceil(6).max(1);
        // The day in six epochs, `reconfigure` called before each.
        let drive =
            |cfg: &SweepConfig, workers, reconfigure: &dyn Fn(usize, &mut LiveSweepSession)| {
                let mut live = LiveSweepSession::new(cfg.clone(), rt(workers)).unwrap();
                for (epoch, fed) in quotes.chunks(chunk).enumerate() {
                    reconfigure(epoch, &mut live);
                    live.feed_epoch(fed);
                }
                (live.reconfigs(), live.finish())
            };
        // The middle of three streams leaves at the cut after two epochs.
        // That cut's open interval is the newest bar set's.
        let middle = SweepConfig::new(n, vec![windows(20), windows(30), windows(40)]);
        let whole = run_sweep_pipeline(day.clone(), &middle).unwrap();
        let fed = quotes[..2 * chunk].iter().map(|q| q.ts.interval(30));
        let open = fed.max().unwrap() - 1;
        let survivors: Vec<Arc<Basket>> = (whole.baskets.iter())
            .filter_map(|b| {
                let mut basket = (**b).clone();
                if b.interval >= open {
                    basket.orders.retain(|o| o.param_set != 1);
                }
                (!basket.orders.is_empty()).then_some(Arc::new(basket))
            })
            .collect();
        let kept: usize = survivors.iter().map(|b| b.orders.len()).sum();
        let all: usize = whole.baskets.iter().map(|b| b.orders.len()).sum();
        assert!(kept < all, "vacuous: no order to drop");
        let static_cfg = SweepConfig::new(n, vec![p1, p2]);
        let statics = run_sweep_pipeline(day.clone(), &static_cfg).unwrap();
        for workers in [1usize, 2, 0] {
            // A brand-new Quadrant stream for two epochs.
            let (reconfigs, out) = drive(&static_cfg, workers, &|epoch, live| match epoch {
                1 => {
                    assert_eq!(live.attach(StrategySpec::Paper(p3)).unwrap(), 2);
                    assert_eq!(live.active(), &[0, 1, 2]);
                }
                3 => live.detach(2).unwrap(),
                _ => {}
            });
            assert_eq!(reconfigs, 2);
            assert_eq!(out.trades_per_param[..2], statics.trades_per_param[..]);
            // The detached slot reports nothing at end of day.
            assert!(out.trades_per_param[2].is_empty());

            let (_, out) = drive(&middle, workers, &|epoch, live| {
                let key = |m: usize| (CorrType::Pearson, m);
                if epoch == 2 {
                    assert_eq!(live.stream_keys(), [key(20), key(30), key(40)]);
                    live.detach(1).unwrap();
                    assert_eq!(live.stream_keys(), [key(20), key(40)], "stream 2 is now 1");
                }
            });
            for k in [0, 2] {
                assert!(!out.trades_per_param[k].is_empty(), "vacuous: {k}");
                assert_eq!(out.trades_per_param[k], whole.trades_per_param[k]);
            }
            assert!(out.trades_per_param[1].is_empty());
            assert_eq!(out.baskets, survivors, "workers={workers}");
        }
    }

    /// A spec whose `W` and `RT` are new to its stream attaches mid-day:
    /// the stream node keeps the series its specs already share and
    /// starts the new ones at the cut. The untouched spec never
    /// notices, and what the newcomer trades is a function of the cut
    /// alone — not of the worker count.
    #[test]
    fn attaching_a_host_with_new_windows_starts_its_series_at_the_cut() {
        let (day, n) = small_day(57);
        let p1 = fast_params();
        let newcomer = StrategyParams {
            avg_window: 25,
            spread_window: 30,
            ..p1
        };
        let static_cfg = SweepConfig::new(n, vec![p1]);
        let statics = run_sweep_pipeline(day.clone(), &static_cfg).unwrap();

        let run = |workers: usize| {
            let mut live = LiveSweepSession::new(static_cfg.clone(), rt(workers)).unwrap();
            let quotes = day.quotes();
            let mut it = quotes.chunks(quotes.len().div_ceil(6).max(1));
            live.feed_epoch(it.next().unwrap());
            live.feed_epoch(it.next().unwrap());
            let k = live.attach(StrategySpec::Paper(newcomer)).unwrap();
            assert_eq!(k, 1);
            // Same stream, so no new engine and no new stream node: the
            // existing node is restored by name and grows two series.
            let names = live.node_names();
            assert_eq!(
                names
                    .iter()
                    .filter(|n| n.starts_with("strategy-host("))
                    .count(),
                1,
                "{names:?}"
            );
            for rest in it {
                live.feed_epoch(rest);
            }
            live.finish()
        };
        let first = run(1);
        assert_eq!(first.trades_per_param[0], statics.trades_per_param[0]);
        assert!(
            !first.trades_per_param[1].is_empty(),
            "vacuous: the newcomer never traded"
        );
        // The newcomer's first window fills from the cut: it cannot have
        // entered before a third of the day had passed.
        let intervals = newcomer.intervals_per_day();
        assert!(first.trades_per_param[1]
            .iter()
            .all(|t| t.entry_interval > intervals / 4));
        for workers in [2usize, 0] {
            assert_eq!(
                run(workers).trades_per_param,
                first.trades_per_param,
                "workers={workers}"
            );
        }
    }

    /// `Combined(M)` attaches to a running `Maronna(M)` — a second lane
    /// on the plane node that is already there, restored by name — and
    /// detaches again. The Maronna host never notices; the newcomer starts
    /// cold at the cut, so what it trades depends on the cut alone, not on
    /// the worker count.
    #[test]
    fn attaching_the_other_robust_measure_adds_a_lane_not_an_engine() {
        let (day, n) = small_day(57);
        let maronna = StrategyParams {
            ctype: CorrType::Maronna,
            ..fast_params()
        };
        let combined = StrategyParams {
            ctype: CorrType::Combined,
            ..maronna
        };
        let static_cfg = SweepConfig::new(n, vec![maronna]);
        let statics = run_sweep_pipeline(day.clone(), &static_cfg).unwrap();
        assert!(!statics.trades_per_param[0].is_empty(), "vacuous");

        let engines = |live: &LiveSweepSession| -> Vec<String> {
            (live.node_names().into_iter())
                .filter(|name| name.starts_with("corr-engine"))
                .collect()
        };
        let run = |workers: usize, detach: bool| {
            let mut live = LiveSweepSession::new(static_cfg.clone(), rt(workers)).unwrap();
            let quotes = day.quotes();
            let mut it = quotes.chunks(quotes.len().div_ceil(6).max(1));
            live.feed_epoch(it.next().unwrap());
            let plane = engines(&live);
            assert_eq!(plane, ["corr-engine(robust, M=20)"]);
            let k = live.attach(StrategySpec::Paper(combined)).unwrap();
            assert_eq!(engines(&live), plane, "a lane, not an engine");
            assert_eq!(
                live.stream_keys(),
                [(CorrType::Maronna, 20), (CorrType::Combined, 20)]
            );
            let mut snapshots = [0usize; 2];
            for _ in 0..3 {
                for snap in live.feed_epoch(it.next().unwrap()).snapshots {
                    snapshots[snap.stream] += 1;
                }
            }
            // The new lane publishes from its own M-th return on.
            assert!(snapshots[1] > 0, "{snapshots:?}");
            assert_eq!(snapshots[0], snapshots[1] + 19);
            if detach {
                live.detach(k).unwrap();
                assert_eq!(engines(&live), plane);
            }
            for rest in it {
                live.feed_epoch(rest);
            }
            live.finish()
        };
        let first = run(1, false);
        assert_eq!(first.trades_per_param[0], statics.trades_per_param[0]);
        assert!(
            !first.trades_per_param[1].is_empty(),
            "vacuous: the newcomer never traded"
        );
        for workers in [2usize, 0] {
            assert_eq!(run(workers, false).trades_per_param, first.trades_per_param);
        }
        let detached = run(2, true);
        assert_eq!(detached.trades_per_param[0], statics.trades_per_param[0]);
        assert!(detached.trades_per_param[1].is_empty());
    }

    /// A spec on a stream new to the graph attaches while a symbol is
    /// quarantined: its feed still moves, but half its quotes are garbage.
    /// The engine and the stream node the spec gets are new too, yet they
    /// must hold the symbol degraded, as every surviving node does: every
    /// snapshot of the new stream masks the symbol's row while it is
    /// degraded, and no order of the newcomer may touch the symbol until
    /// it recovers. The newcomer does trade the symbol once it is back, so
    /// an unseen degradation would show. The attach falls mid-quarantine,
    /// and again on the interval the quarantine takes effect, whose bar
    /// set is the first the new nodes see.
    #[test]
    fn a_stream_attached_during_a_degradation_starts_with_the_symbol_degraded() {
        use crate::components::HealthPolicy;

        let (day, n) = small_day(57);
        let p1 = fast_params();
        let policy = HealthPolicy {
            outage_intervals: 3,
            halt_intervals: 2,
        };
        let cfg = SweepConfig::new(n, vec![p1]).with_health(policy);
        let dark = 2;
        let plan = taq::StreamFaultPlan {
            bursts: vec![taq::CorruptionBurst {
                symbol: dark as u16,
                start_s: 3_000,
                end_s: 8_000,
                intensity: 0.5,
            }],
            seed: 7,
            ..Default::default()
        };
        let (quotes, _) = taq::apply_stream_faults(day.quotes(), &plan);
        let newcomer = StrategyParams {
            ctype: CorrType::Quadrant,
            ..p1
        };
        // The symbol's status transitions and the new stream's snapshots.
        let run = |workers: usize, cut: usize| {
            let mut live = LiveSweepSession::new(cfg.clone(), rt(workers)).unwrap();
            let (mut health, mut snapshots) = (Vec::new(), Vec::new());
            let mut keep = |new_stream: Option<usize>, cut: LiveEpoch| {
                for m in cut.messages {
                    match m {
                        Message::Health(h) if h.symbol == dark => health.push(h),
                        _ => {}
                    }
                }
                let fresh = cut.snapshots.into_iter();
                snapshots.extend(fresh.filter(|s| Some(s.stream) == new_stream));
            };
            keep(None, live.feed_epoch(&quotes[..cut]));
            let k = live.attach(StrategySpec::Paper(newcomer)).unwrap();
            let new_stream = live
                .stream_keys()
                .iter()
                .position(|&key| key == (newcomer.ctype, newcomer.corr_window));
            for chunk in quotes[cut..].chunks(quotes.len().div_ceil(6)) {
                keep(new_stream, live.feed_epoch(chunk));
            }
            let out = live.finish();
            health.extend(
                out.health_events
                    .iter()
                    .filter(|h| h.symbol == dark)
                    .cloned(),
            );
            (k, out, health, snapshots)
        };
        let mid_quarantine = quotes.partition_point(|q| q.ts.seconds() < 5_000);
        let (_, _, health, _) = run(1, mid_quarantine);
        let degraded_from = (health.iter())
            .find(|h| h.status.is_degraded())
            .expect("vacuous: the symbol never degraded")
            .interval;
        let on_the_transition = quotes.partition_point(|q| q.ts.interval(30) <= degraded_from);
        for cut in [mid_quarantine, on_the_transition] {
            let (k, out, health, snapshots) = run(1, cut);
            let cut_at = quotes[cut].ts.interval(30);
            // The symbol's status as of interval `t`.
            let degraded_at = |t: usize| {
                (health.iter())
                    .rfind(|h| h.interval <= t)
                    .is_some_and(|h| h.status.is_degraded())
            };
            assert!(
                degraded_at(cut_at),
                "vacuous: the symbol is healthy at the cut"
            );
            let recovered = (health.iter())
                .find(|h| h.interval > cut_at && !h.status.is_degraded())
                .expect("vacuous: the symbol never recovered")
                .interval;
            let masked: Vec<_> = (snapshots.iter())
                .filter(|snap| degraded_at(snap.interval))
                .collect();
            assert!(!masked.is_empty(), "vacuous: no snapshot while degraded");
            for snap in masked {
                let row = (0..n).filter(|&j| j != dark);
                assert!(
                    row.map(|j| snap.matrix.get(dark, j)).all(|c| c == 0.0),
                    "the new stream's snapshot at {} left the symbol's row unmasked",
                    snap.interval
                );
            }
            let touching: Vec<usize> = (out.baskets.iter())
                .flat_map(|b| &b.orders)
                .filter(|o| o.param_set == k && o.stock == dark)
                .map(|o| o.interval)
                .collect();
            assert!(
                !touching.is_empty(),
                "vacuous: the newcomer never traded it"
            );
            assert!(
                touching.iter().all(|&s| s >= recovered),
                "the newcomer traded the degraded symbol at {touching:?}, before {recovered}"
            );
            assert_eq!(run(2, cut).1.baskets, out.baskets, "workers=2");
        }
    }

    #[test]
    fn detach_guards() {
        let (day, n) = small_day(5);
        let _ = day;
        let cfg = SweepConfig::new(n, vec![fast_params()]);
        let mut live = LiveSweepSession::new(cfg, rt(1)).unwrap();
        assert!(live.detach(0).is_err(), "cannot detach the last spec");
        assert!(live.detach(7).is_err(), "unknown param set");
    }
}
