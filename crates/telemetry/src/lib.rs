//! Zero-dependency observability for the MarketMiner DAG runtime.
//!
//! The subsystem has four parts, all merged into one end-of-run
//! [`report::TelemetryReport`]:
//!
//! * [`metrics`] — counters, peak gauges and log2-bucketed histograms,
//!   accumulated in per-node/per-worker shards and merged in canonical
//!   `(label, name)` order, plus lock-free [`metrics::AtomicHistogram`]s
//!   for scheduler hot paths.
//! * spans — wall-clock slices carrying a second, *simulated-time* axis
//!   (the trading interval / processed-message count) in their args, so a
//!   latency spike can be attributed to a point in the trading day.
//! * [`recorder`] — a bounded flight-recorder ring of structured
//!   lifecycle events (panic/restart/checkpoint/replay/sever/quarantine/
//!   health), replacing ad-hoc diagnostic lines.
//! * [`trace`] — Chrome `trace_event` JSON export (Perfetto-loadable),
//!   one track per worker and one per node; [`json`] is the hand-rolled
//!   emitter/parser (the workspace `serde` shim has no serializer).
//! * [`profile`] — per-node self-time attribution derived from the
//!   scheduler's `step.ns` accounting, exported as a ranked table and
//!   `flamegraph.pl`-compatible folded stacks.
//!
//! Instrumentation is gated by [`TelemetryLevel`]: `Off` costs one
//! predictable branch per site (every probe call starts with an `Option`
//! check on a field that never changes during a run), `Counters` adds
//! atomic/sharded counter updates but never reads the clock on hot paths,
//! `Full` adds timing, spans and the trace.

pub mod explain;
pub mod json;
pub mod lineage;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod report;
pub mod trace;

use std::sync::Arc;
use std::time::Instant;

use lineage::LineageRing;
use metrics::{Bucket, Name, Registry};
use recorder::{FlightKind, FlightRecorder};
use trace::{Arg, Tracer, TrackId};

pub use report::TelemetryReport;

/// Environment variable selecting the [`TelemetryLevel`]
/// (`off`/`counters`/`full`, or `0`/`1`/`2`).
pub const TELEMETRY_ENV: &str = "MARKETMINER_TELEMETRY";

/// Environment variable naming the Chrome-trace output path (implies
/// nothing about level: the trace is only written at `Full`).
pub const TRACE_ENV: &str = "MARKETMINER_TRACE";

/// Environment variable naming the lineage-export output path (like the
/// trace, only written at `Full`).
pub const LINEAGE_ENV: &str = "MARKETMINER_LINEAGE";

/// Environment variable overriding the flight-recorder bound.
pub const RECORDER_CAP_ENV: &str = "MARKETMINER_RECORDER_CAP";

/// Environment variable overriding the lineage-ring bound.
pub const LINEAGE_CAP_ENV: &str = "MARKETMINER_LINEAGE_CAP";

/// A telemetry configuration error. Unlike a missing variable (which
/// falls back to a default), a *malformed* value is a hard error: a run
/// that silently ignored `MARKETMINER_LINEAGE_CAP=1e6` would drop
/// lineage without the operator ever learning why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// An environment variable was set to a value that does not parse.
    InvalidEnv {
        /// The variable's name.
        var: &'static str,
        /// The rejected value.
        value: String,
        /// What the variable takes.
        expected: &'static str,
    },
    /// A run-level configuration object (strategy spec, sweep, schedule)
    /// failed validation. Same philosophy as `InvalidEnv`: refusing to
    /// start beats silently substituting a default.
    Invalid {
        /// What was being configured (e.g. `"strategy spec #3"`).
        what: String,
        /// Why it was rejected.
        reason: String,
    },
}

impl ConfigError {
    /// Build an [`ConfigError::Invalid`] from anything displayable.
    pub fn invalid(what: impl Into<String>, reason: impl std::fmt::Display) -> Self {
        ConfigError::Invalid {
            what: what.into(),
            reason: reason.to_string(),
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::InvalidEnv {
                var,
                value,
                expected,
            } => write!(f, "{var}={value:?} is not {expected}"),
            ConfigError::Invalid { what, reason } => {
                write!(f, "invalid {what}: {reason}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Ring/collector bounds for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Caps {
    /// Flight-recorder bound.
    pub flight: usize,
    /// Chrome-trace collector bound.
    pub trace: usize,
    /// Lineage-ring bound.
    pub lineage: usize,
}

impl Default for Caps {
    fn default() -> Self {
        Caps {
            flight: DEFAULT_FLIGHT_CAP,
            trace: DEFAULT_TRACE_CAP,
            lineage: lineage::DEFAULT_LINEAGE_CAP,
        }
    }
}

/// What the environment sets about a run's telemetry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EnvConfig {
    /// `MARKETMINER_TELEMETRY` (`Off` when unset).
    pub level: TelemetryLevel,
    /// `MARKETMINER_TRACE`: where a `Full` run writes its Chrome trace.
    pub trace_path: Option<String>,
    /// `MARKETMINER_LINEAGE`: where a `Full` run writes its lineage.
    pub lineage_path: Option<String>,
    /// `MARKETMINER_RECORDER_CAP` and `MARKETMINER_LINEAGE_CAP`.
    pub caps: Caps,
}

/// The telemetry configuration of this process's environment: unset
/// variables keep their defaults, a set-but-malformed one is a
/// [`ConfigError`].
pub fn from_env() -> Result<EnvConfig, ConfigError> {
    parse_env(|var| std::env::var(var).ok())
}

/// [`from_env`] over any variable lookup.
fn parse_env(var: impl Fn(&'static str) -> Option<String>) -> Result<EnvConfig, ConfigError> {
    let level = match var(TELEMETRY_ENV) {
        None => TelemetryLevel::Off,
        Some(raw) => TelemetryLevel::parse(&raw).ok_or(ConfigError::InvalidEnv {
            var: TELEMETRY_ENV,
            value: raw,
            expected: "off, counters or full",
        })?,
    };
    let path = |name| (var(name).map(|s| s.trim().to_string())).filter(|s| !s.is_empty());
    let cap =
        |name, default| match var(name) {
            None => Ok(default),
            Some(raw) => (raw.trim().parse::<usize>().ok()).filter(|&n| n > 0).ok_or(
                ConfigError::InvalidEnv {
                    var: name,
                    value: raw,
                    expected: "a positive integer",
                },
            ),
        };
    Ok(EnvConfig {
        level,
        trace_path: path(TRACE_ENV),
        lineage_path: path(LINEAGE_ENV),
        caps: Caps {
            flight: cap(RECORDER_CAP_ENV, DEFAULT_FLIGHT_CAP)?,
            trace: DEFAULT_TRACE_CAP,
            lineage: cap(LINEAGE_CAP_ENV, lineage::DEFAULT_LINEAGE_CAP)?,
        },
    })
}

/// How much a run measures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum TelemetryLevel {
    /// No measurement: every instrumentation site is one predictable
    /// branch. The default.
    #[default]
    Off,
    /// Counters, gauges and the flight recorder — no clock reads on hot
    /// paths, no trace.
    Counters,
    /// Everything: step-latency histograms, spans, Chrome-trace capture.
    Full,
}

impl TelemetryLevel {
    /// Parse a level string (`off`/`counters`/`full`, `0`/`1`/`2`, any
    /// case); `None` for anything else.
    pub fn parse(value: &str) -> Option<TelemetryLevel> {
        match value.trim().to_ascii_lowercase().as_str() {
            "off" | "0" => Some(TelemetryLevel::Off),
            "counters" | "1" => Some(TelemetryLevel::Counters),
            "full" | "2" => Some(TelemetryLevel::Full),
            _ => None,
        }
    }

    /// Stable lowercase name.
    pub fn as_str(&self) -> &'static str {
        match self {
            TelemetryLevel::Off => "off",
            TelemetryLevel::Counters => "counters",
            TelemetryLevel::Full => "full",
        }
    }

    /// Anything at all is measured.
    pub fn enabled(&self) -> bool {
        *self != TelemetryLevel::Off
    }

    /// Timing, spans and trace capture are on.
    pub fn is_full(&self) -> bool {
        *self == TelemetryLevel::Full
    }
}

/// The per-run telemetry hub: one shared instance per `Runtime::run`,
/// handed to probes, the supervisor and the exporters.
pub struct Telemetry {
    level: TelemetryLevel,
    start: Instant,
    /// The sharded metrics registry.
    pub registry: Registry,
    /// The flight recorder.
    pub recorder: FlightRecorder,
    /// The Chrome-trace collector.
    pub tracer: Tracer,
    /// The causal-lineage ring.
    pub lineage: LineageRing,
}

/// Default flight-recorder bound.
pub const DEFAULT_FLIGHT_CAP: usize = 4096;

/// Default trace-event bound (a full sweep day stays well under this;
/// the cap exists so a pathological run cannot exhaust memory).
pub const DEFAULT_TRACE_CAP: usize = 400_000;

impl Telemetry {
    /// New hub at the given level with default bounds.
    pub fn new(level: TelemetryLevel) -> Arc<Telemetry> {
        Telemetry::build(level, Caps::default())
    }

    /// New hub with every bound explicit.
    pub fn build(level: TelemetryLevel, caps: Caps) -> Arc<Telemetry> {
        Arc::new(Telemetry {
            level,
            start: Instant::now(),
            registry: Registry::default(),
            recorder: FlightRecorder::new(caps.flight),
            tracer: Tracer::new(caps.trace),
            lineage: LineageRing::new(caps.lineage),
        })
    }

    /// The run's level.
    pub fn level(&self) -> TelemetryLevel {
        self.level
    }

    /// Timing/span/trace capture is on.
    pub fn is_full(&self) -> bool {
        self.level.is_full()
    }

    /// Wall-clock microseconds since the hub was created (the trace's
    /// time origin).
    pub fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// A probe bound to one label (node/worker/subsystem) and trace
    /// track: the handle instrumented code holds. Returns a no-op probe
    /// when the level is `Off`, so call sites need no gating of their own.
    pub fn probe(self: &Arc<Self>, label: impl Into<String>, track: TrackId) -> Probe {
        if !self.level.enabled() {
            return Probe::off();
        }
        let label = label.into();
        Probe {
            inner: Some(Arc::new(ProbeInner {
                bucket: self.registry.bucket(label),
                track,
                tel: Arc::clone(self),
            })),
        }
    }

    /// Record a flight event not attributable to a probe.
    pub fn flight(
        &self,
        kind: FlightKind,
        label: impl Into<String>,
        sim: Option<u64>,
        detail: impl Into<String>,
    ) {
        if self.level.enabled() {
            self.recorder
                .record(kind, label, self.now_us(), sim, detail);
        }
    }

    /// Merge every shard and drain the recorder into the final report.
    pub fn finish(&self) -> TelemetryReport {
        TelemetryReport {
            level: self.level,
            metrics: self.registry.snapshot(),
            flight: self.recorder.drain(),
            flight_dropped: self.recorder.dropped(),
            trace_events: self.tracer.len() as u64,
            trace_dropped: self.tracer.dropped(),
            trace_path: None,
            lineage: self.lineage.drain(),
            lineage_dropped: self.lineage.dropped(),
            lineage_path: None,
        }
    }
}

struct ProbeInner {
    bucket: Arc<Bucket>,
    track: TrackId,
    tel: Arc<Telemetry>,
}

/// A cheap, cloneable handle instrumented code holds: a metrics shard +
/// a trace track + the hub. A disabled probe (`Off`, or a component that
/// was never attached) is `None` inside — every method is then a single
/// predictable branch. Probes survive component snapshot/restore because
/// cloning shares the same shard.
#[derive(Clone, Default)]
pub struct Probe {
    inner: Option<Arc<ProbeInner>>,
}

impl std::fmt::Debug for Probe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(p) => write!(f, "Probe({})", p.bucket.label()),
            None => f.write_str("Probe(off)"),
        }
    }
}

impl Probe {
    /// The disabled probe.
    pub fn off() -> Probe {
        Probe { inner: None }
    }

    /// Counters/gauges/flight are recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Timing/spans/trace are recorded.
    pub fn is_full(&self) -> bool {
        self.inner.as_ref().is_some_and(|p| p.tel.is_full())
    }

    /// Add to a counter.
    #[inline]
    pub fn count(&self, name: impl Into<Name>, n: u64) {
        if let Some(p) = &self.inner {
            p.bucket.count(name, n);
        }
    }

    /// Record a peak gauge.
    #[inline]
    pub fn gauge_max(&self, name: impl Into<Name>, value: u64) {
        if let Some(p) = &self.inner {
            p.bucket.gauge_max(name, value);
        }
    }

    /// Record a histogram sample (the *value* must already be known; use
    /// [`Probe::span`] when the value is a duration to be measured).
    #[inline]
    pub fn observe(&self, name: impl Into<Name>, value: u64) {
        if let Some(p) = &self.inner {
            p.bucket.observe(name, value);
        }
    }

    /// Record a flight event. `detail` is a closure so disabled probes
    /// never pay for formatting.
    #[inline]
    pub fn flight(&self, kind: FlightKind, sim: Option<u64>, detail: impl FnOnce() -> String) {
        if let Some(p) = &self.inner {
            p.tel
                .recorder
                .record(kind, p.bucket.label(), p.tel.now_us(), sim, detail());
        }
    }

    /// Mark an instant on this probe's trace track (`Full` only).
    #[inline]
    pub fn instant(&self, name: &'static str, sim: Option<u64>) {
        if let Some(p) = &self.inner {
            if p.tel.is_full() {
                let mut args = Vec::new();
                if let Some(s) = sim {
                    args.push(("sim", Arg::U(s)));
                }
                p.tel.tracer.instant(p.track, name, p.tel.now_us(), args);
            }
        }
    }

    /// Open a wall-clock span on this probe's trace track, tagged with a
    /// simulated-time coordinate. The slice is recorded when the guard
    /// drops; its duration is also folded into the `<name>.us` histogram.
    /// Returns an inert guard below `Full`.
    #[inline]
    pub fn span(&self, name: &'static str, sim: Option<u64>) -> SpanGuard {
        match &self.inner {
            Some(p) if p.tel.is_full() => SpanGuard {
                inner: Some(SpanInner {
                    probe: Arc::clone(p),
                    name,
                    start_us: p.tel.now_us(),
                    sim,
                }),
            },
            _ => SpanGuard { inner: None },
        }
    }
}

struct SpanInner {
    probe: Arc<ProbeInner>,
    name: &'static str,
    start_us: u64,
    sim: Option<u64>,
}

/// An open span; records a Chrome-trace slice and a duration histogram
/// sample on drop.
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

impl SpanGuard {
    /// Set (or update) the simulated-time coordinate after the span was
    /// opened — e.g. once the message's interval is known.
    pub fn set_sim(&mut self, sim: u64) {
        if let Some(s) = &mut self.inner {
            s.sim = Some(sim);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(s) = self.inner.take() {
            let end = s.probe.tel.now_us();
            let dur = end.saturating_sub(s.start_us);
            let mut args = Vec::new();
            if let Some(sim) = s.sim {
                args.push(("sim", Arg::U(sim)));
            }
            s.probe
                .tel
                .tracer
                .complete(s.probe.track, s.name, s.start_us, dur, args);
            s.probe.bucket.observe(format!("{}.us", s.name), dur);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_and_order() {
        assert_eq!(TelemetryLevel::parse("full"), Some(TelemetryLevel::Full));
        assert_eq!(
            TelemetryLevel::parse("COUNTERS"),
            Some(TelemetryLevel::Counters)
        );
        assert_eq!(TelemetryLevel::parse("2"), Some(TelemetryLevel::Full));
        assert_eq!(TelemetryLevel::parse(" off "), Some(TelemetryLevel::Off));
        assert_eq!(TelemetryLevel::parse("nonsense"), None);
        assert!(TelemetryLevel::Off < TelemetryLevel::Counters);
        assert!(TelemetryLevel::Counters < TelemetryLevel::Full);
    }

    /// The environment is read through a lookup, so no test touches the
    /// process's own variables.
    #[test]
    fn env_config_defaults_parses_and_refuses_malformed_values() {
        let env = |pairs: &[(&str, &str)]| {
            parse_env(move |var| {
                (pairs.iter().find(|(k, _)| *k == var)).map(|(_, v)| v.to_string())
            })
        };
        assert_eq!(env(&[]), Ok(EnvConfig::default()));
        let set = env(&[
            (TELEMETRY_ENV, "Full"),
            (TRACE_ENV, " /tmp/t.json "),
            (LINEAGE_ENV, ""),
            (LINEAGE_CAP_ENV, "2097152"),
        ])
        .unwrap();
        assert_eq!(set.level, TelemetryLevel::Full);
        assert_eq!(set.trace_path.as_deref(), Some("/tmp/t.json"));
        assert_eq!(set.lineage_path, None, "an empty path is no path");
        assert_eq!(set.caps.lineage, 2_097_152);
        assert_eq!(set.caps.flight, DEFAULT_FLIGHT_CAP);
        for (bad, var) in [
            (&[(TELEMETRY_ENV, "fulll")][..], TELEMETRY_ENV),
            (&[(RECORDER_CAP_ENV, "0")][..], RECORDER_CAP_ENV),
            (&[(LINEAGE_CAP_ENV, "1e6")][..], LINEAGE_CAP_ENV),
        ] {
            match env(bad) {
                Err(ConfigError::InvalidEnv { var: got, .. }) => assert_eq!(got, var),
                other => panic!("{var}: {other:?}"),
            }
        }
    }

    #[test]
    fn off_probe_is_inert() {
        let tel = Telemetry::new(TelemetryLevel::Off);
        let probe = tel.probe("node", TrackId::node(0));
        assert!(!probe.is_enabled());
        probe.count("x", 1);
        probe.flight(FlightKind::Panic, None, || unreachable!("lazy detail"));
        drop(probe.span("step", None));
        let rep = tel.finish();
        assert!(rep.metrics.counters.is_empty());
        assert!(rep.flight.is_empty());
        assert_eq!(rep.trace_events, 0);
    }

    #[test]
    fn counters_level_skips_spans_but_keeps_counts() {
        let tel = Telemetry::new(TelemetryLevel::Counters);
        let probe = tel.probe("node", TrackId::node(0));
        assert!(probe.is_enabled());
        assert!(!probe.is_full());
        probe.count("msgs", 2);
        probe.flight(FlightKind::Checkpoint, Some(10), || "16 bytes".into());
        drop(probe.span("step", Some(1)));
        let rep = tel.finish();
        assert_eq!(rep.metrics.counter("node", "msgs"), 2);
        assert_eq!(rep.flight.len(), 1);
        assert_eq!(rep.trace_events, 0, "no trace below Full");
    }

    #[test]
    fn full_level_records_spans_with_both_axes() {
        let tel = Telemetry::new(TelemetryLevel::Full);
        let probe = tel.probe("corr", TrackId::node(4));
        {
            let mut span = probe.span("snapshot", None);
            span.set_sim(42);
        }
        let rep = tel.finish();
        assert_eq!(rep.trace_events, 1);
        assert!(rep.metrics.histogram("corr", "snapshot.us").is_some());
        let doc = json::parse(&tel.tracer.export()).unwrap();
        let slice = doc
            .get("traceEvents")
            .unwrap()
            .items()
            .iter()
            .find(|e| e.get("ph").and_then(json::Json::as_str) == Some("X"))
            .cloned()
            .unwrap();
        assert_eq!(
            slice.get("args").unwrap().get("sim").unwrap().as_u64(),
            Some(42)
        );
    }
}
