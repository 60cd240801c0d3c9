//! Layout pin of the versioned [`StrategySpec`] wire form: what a shard
//! job file and a serve `Attach` carry. `spec_v2.bin` holds one spec of
//! each family (see [`wire::pin`]); it is regenerated, with
//! `CKPT_LAYOUT_REGEN=1`, only when `SPEC_WIRE_VERSION` moves.

use pairtrade_core::overlay::OverlayParams;
use pairtrade_core::spec::SPEC_WIRE_VERSION;
use pairtrade_core::{KalmanParams, StrategyParams, StrategySpec};

#[test]
fn spec_layout_matches_fixture() {
    let specs = [
        StrategySpec::Paper(StrategyParams::paper_default()),
        StrategySpec::Kalman(KalmanParams::jansen_default()),
        StrategySpec::Kalman(KalmanParams::jansen_default())
            .with_overlay(OverlayParams::conservative()),
    ];
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/spec_v2.bin");
    wire::pin::check_fixture(&path, &specs);
    // A peer on another spec version is refused at the version byte — the
    // outer one, or the one an overlay's inner spec carries — never
    // reinterpreted.
    for (spec, version_bytes) in specs.iter().zip([&[0][..], &[0], &[0, 2]]) {
        let bytes = wire::to_bytes(spec);
        for &at in version_bytes {
            assert_eq!(bytes[at], SPEC_WIRE_VERSION);
            let mut other = bytes.clone();
            other[at] += 1;
            assert!(wire::from_bytes::<StrategySpec>(&other).is_err(), "{at}");
        }
    }
}
