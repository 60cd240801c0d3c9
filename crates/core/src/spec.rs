//! Heterogeneous strategy specifications.
//!
//! [`StrategySpec`] is the closed algebra over the strategy families the
//! runtime can host side by side in one sweep: the paper's divergence
//! strategy, the Kalman dynamic-hedge family, and the risk-overlay
//! combinator over either. A spec is pure configuration — validated at
//! construction, serializable (checkpoints, shard jobs) — and
//! [`StrategySpec::with_rule`] is the one place it becomes a concrete
//! [`Rule`] type: a stream node and the batch driver each pick their
//! rule there once, then step it over per-pair state.
//!
//! The wire form is versioned: a leading [`SPEC_WIRE_VERSION`] byte
//! guards checkpoint and shard-job compatibility, so adding a family is
//! a tag bump, not a silent reinterpretation of old bytes.

use serde::{Deserialize, Serialize};
use stats::correlation::CorrType;

use crate::exec::ExecutionConfig;
use crate::kalman::{KalmanParams, KalmanRule};
use crate::overlay::{Overlay, OverlayParams};
use crate::params::{InvalidParams, StrategyParams};
use crate::strategy::{InputNeeds, PaperRule, Rule};

/// Version byte leading every encoded [`StrategySpec`]. The shard job
/// file is the first thing a worker process decodes, which makes this
/// byte the fleet's handshake too: it is bumped when the supervisor and
/// the worker must change together, not only when a spec's own layout
/// does. Version 2: workers ship order batches and per-epoch trade
/// reports (`Message` wire tag 10; tag 4 retired).
pub const SPEC_WIRE_VERSION: u8 = 2;

/// Which family a spec (or a trade report) belongs to. The overlay is
/// its own kind: reports and telemetry attribute an overlaid strategy's
/// trades to the wrapper, which owns the risk behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum StrategyKind {
    /// The paper's divergence/retracement strategy.
    Paper,
    /// Kalman-filtered dynamic hedge-ratio z-score strategy.
    Kalman,
    /// Risk overlay wrapped around an inner family.
    Overlay,
}

impl StrategyKind {
    /// Stable lower-case name for labels, reports and bench metadata.
    pub fn as_str(&self) -> &'static str {
        match self {
            StrategyKind::Paper => "paper",
            StrategyKind::Kalman => "kalman",
            StrategyKind::Overlay => "overlay",
        }
    }
}

wire::tagged! {
    StrategyKind: "strategy kind tag" {
        0 => Paper,
        1 => Kalman,
        2 => Overlay,
    }
}

/// One fully-specified strategy configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StrategySpec {
    /// The paper strategy with its eleven knobs.
    Paper(StrategyParams),
    /// The Kalman dynamic hedge-ratio strategy.
    Kalman(KalmanParams),
    /// A risk overlay around an inner spec.
    Overlay {
        /// The wrapped family (entries and native exits).
        inner: Box<StrategySpec>,
        /// The overlay thresholds (additional exits).
        overlay: OverlayParams,
    },
}

impl StrategySpec {
    /// The family tag (an overlay reports as [`StrategyKind::Overlay`]).
    pub fn kind(&self) -> StrategyKind {
        match self {
            StrategySpec::Paper(_) => StrategyKind::Paper,
            StrategySpec::Kalman(_) => StrategyKind::Kalman,
            StrategySpec::Overlay { .. } => StrategyKind::Overlay,
        }
    }

    /// Wrap this spec in a risk overlay.
    pub fn with_overlay(self, overlay: OverlayParams) -> StrategySpec {
        StrategySpec::Overlay {
            inner: Box::new(self),
            overlay,
        }
    }

    /// Bar width in seconds — every spec in one sweep must agree.
    pub fn dt_seconds(&self) -> u32 {
        match self {
            StrategySpec::Paper(p) => p.dt_seconds,
            StrategySpec::Kalman(p) => p.dt_seconds,
            StrategySpec::Overlay { inner, .. } => inner.dt_seconds(),
        }
    }

    /// Which shared correlation stream this spec rides: estimator kind
    /// and window. Overlays ride their inner spec's stream.
    pub fn stream_key(&self) -> (CorrType, usize) {
        match self {
            StrategySpec::Paper(p) => (p.ctype, p.corr_window),
            StrategySpec::Kalman(p) => (p.ctype, p.corr_window),
            StrategySpec::Overlay { inner, .. } => inner.stream_key(),
        }
    }

    /// Intervals in a trading session at this spec's bar width.
    pub fn intervals_per_day(&self) -> usize {
        match self {
            StrategySpec::Paper(p) => p.intervals_per_day(),
            StrategySpec::Kalman(p) => p.intervals_per_day(),
            StrategySpec::Overlay { inner, .. } => inner.intervals_per_day(),
        }
    }

    /// What per-interval inputs the spec's rule consumes.
    pub fn needs(&self) -> InputNeeds {
        struct Needs;
        impl UseRule for Needs {
            type Output = InputNeeds;
            fn apply<R: Rule>(self, rule: R) -> InputNeeds {
                rule.needs()
            }
        }
        self.with_rule(ExecutionConfig::paper(), Needs)
    }

    /// Validate recursively; overlay nesting is rejected (the algebra is
    /// one overlay deep — stacking overlays re-checks the same position
    /// twice per interval with ambiguous priority).
    pub fn validate(&self) -> Result<(), InvalidParams> {
        match self {
            StrategySpec::Paper(p) => p.validate(),
            StrategySpec::Kalman(p) => p.validate(),
            StrategySpec::Overlay { inner, overlay } => {
                if matches!(**inner, StrategySpec::Overlay { .. }) {
                    return Err(InvalidParams(
                        "overlay may not wrap another overlay".to_string(),
                    ));
                }
                overlay.validate()?;
                inner.validate()
            }
        }
    }

    /// Human-readable label, e.g. `overlay(sl5%-pt5%-hp30, Kalman/...)`.
    pub fn label(&self) -> String {
        match self {
            StrategySpec::Paper(p) => p.label(),
            StrategySpec::Kalman(p) => p.label(),
            StrategySpec::Overlay { inner, overlay } => {
                format!("overlay({}, {})", overlay.label(), inner.label())
            }
        }
    }

    /// Hand `user` this spec's rule under `exec`: the algebra's four
    /// shapes (paper, Kalman, an overlay over either) are four rule types.
    ///
    /// # Panics
    /// Panics on an overlay over an overlay, which
    /// [`validate`](Self::validate) refuses.
    pub fn with_rule<U: UseRule>(&self, exec: ExecutionConfig, user: U) -> U::Output {
        let paper = |p: &StrategyParams| PaperRule::new(*p, exec);
        let kalman = |p: &KalmanParams| KalmanRule::new(*p, exec);
        match self {
            StrategySpec::Paper(p) => user.apply(paper(p)),
            StrategySpec::Kalman(p) => user.apply(kalman(p)),
            StrategySpec::Overlay { inner, overlay } => match &**inner {
                StrategySpec::Paper(p) => user.apply(Overlay::new(paper(p), *overlay)),
                StrategySpec::Kalman(p) => user.apply(Overlay::new(kalman(p), *overlay)),
                StrategySpec::Overlay { .. } => panic!("overlay may not wrap another overlay"),
            },
        }
    }
}

/// Something done with a spec's rule, whatever its family (see
/// [`StrategySpec::with_rule`]).
pub trait UseRule {
    /// What it makes of the rule.
    type Output;
    /// Do it with `rule`.
    fn apply<R: Rule>(self, rule: R) -> Self::Output;
}

wire::tagged! {
    SpecBody for StrategySpec: "strategy spec tag" {
        0 => Paper(params),
        1 => Kalman(params),
        2 => Overlay { inner, overlay },
    }
}

// The version byte leads every spec, an overlay's inner one included, and
// the decoded contents are re-validated: the table above is the body.
impl wire::Codec for StrategySpec {
    fn encode(&self, w: &mut wire::Writer) {
        wire::Codec::encode(&SPEC_WIRE_VERSION, w);
        <SpecBody as wire::Adapter<Self>>::encode(self, w);
    }

    fn decode(r: &mut wire::Reader<'_>) -> Result<Self, wire::WireError> {
        if <u8 as wire::Codec>::decode(r)? != SPEC_WIRE_VERSION {
            return Err(wire::WireError::Invalid("strategy spec wire version"));
        }
        let spec = <SpecBody as wire::Adapter<Self>>::decode(r)?;
        spec.validate()
            .map_err(|_| wire::WireError::Invalid("strategy spec contents"))?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> [StrategySpec; 3] {
        [
            StrategySpec::Paper(StrategyParams::paper_default()),
            StrategySpec::Kalman(KalmanParams::jansen_default()),
            StrategySpec::Paper(StrategyParams::paper_default())
                .with_overlay(OverlayParams::conservative()),
        ]
    }

    #[test]
    fn kinds_and_labels_are_distinct() {
        let [p, k, o] = specs();
        assert_eq!(p.kind(), StrategyKind::Paper);
        assert_eq!(k.kind(), StrategyKind::Kalman);
        assert_eq!(o.kind(), StrategyKind::Overlay);
        assert!(o.label().starts_with("overlay("));
        assert_ne!(p.label(), k.label());
    }

    #[test]
    fn all_families_validate_and_roundtrip() {
        for spec in specs() {
            spec.validate().unwrap();
            let bytes = wire::to_bytes(&spec);
            assert_eq!(bytes[0], SPEC_WIRE_VERSION);
            let back: StrategySpec = wire::from_bytes(&bytes).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn nested_overlays_are_rejected() {
        let [_, _, o] = specs();
        let double = o.with_overlay(OverlayParams::conservative());
        assert!(double.validate().is_err());
    }

    #[test]
    fn invalid_contents_fail_at_decode() {
        let mut bad = KalmanParams::jansen_default();
        bad.delta = 0.5; // still valid — corrupt below instead
        let spec = StrategySpec::Kalman(bad);
        let mut bytes = wire::to_bytes(&spec);
        // Clobber the version byte: must be refused, not reinterpreted.
        bytes[0] = SPEC_WIRE_VERSION + 1;
        assert!(wire::from_bytes::<StrategySpec>(&bytes).is_err());
    }

    #[test]
    fn overlay_needs_and_stream_follow_the_inner_spec() {
        let [p, _, o] = specs();
        assert_eq!(o.needs(), p.needs());
        assert_eq!(o.stream_key(), p.stream_key());
        assert_eq!(o.dt_seconds(), p.dt_seconds());
        let k = StrategySpec::Kalman(KalmanParams::jansen_default());
        assert_eq!(k.needs().w_return_window, 0);
    }

    #[test]
    fn every_shape_has_a_rule_with_the_specs_needs() {
        struct Fresh;
        impl UseRule for Fresh {
            type Output = bool;
            fn apply<R: Rule>(self, rule: R) -> bool {
                R::position(&rule.fresh()).is_none()
            }
        }
        let [p, k, o] = specs();
        let ko = k.clone().with_overlay(OverlayParams::conservative());
        for spec in [p, k, o, ko] {
            assert!(spec.with_rule(ExecutionConfig::paper(), Fresh));
        }
    }
}
