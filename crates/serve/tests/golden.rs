//! Layout pin of the client↔server protocol: `protocol_v1_client.bin`
//! and `protocol_v1_server.bin` hold one instance of every
//! [`ClientFrame`] and [`ServerFrame`] variant, in tag order (see
//! [`wire::pin`]). They are regenerated, with `CKPT_LAYOUT_REGEN=1`, only
//! when [`PROTOCOL_VERSION`] moves.

use std::sync::Arc;

use marketminer::messages::{Cause, CorrSnapshot, Message};
use pairtrade_core::params::StrategyParams;
use pairtrade_core::spec::StrategySpec;
use serve::protocol::{TopPair, PROTOCOL_VERSION};
use serve::{ClientFrame, ServerFrame, SubscriptionSpec};
use stats::correlation::CorrType;
use telemetry::metrics::{Histogram, MetricsSnapshot};

fn fixture(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn protocol_layout_matches_fixture() {
    assert_eq!(
        PROTOCOL_VERSION, 1,
        "a new version is a new pair of fixtures"
    );
    let subscriptions = [
        SubscriptionSpec::Corr {
            ctype: CorrType::Maronna,
            window: 120,
            top_k: Some(5),
        },
        SubscriptionSpec::Trades { param_set: Some(7) },
        SubscriptionSpec::Health,
        SubscriptionSpec::Telemetry { every: 4 },
    ];
    let mut client = vec![ClientFrame::Hello {
        version: PROTOCOL_VERSION,
        token: "sesame".into(),
        client: "loadgen-3".into(),
    }];
    client.extend(subscriptions.map(|spec| ClientFrame::Subscribe { spec }));
    client.extend([
        ClientFrame::Unsubscribe { sub_id: 12 },
        ClientFrame::Attach {
            spec: StrategySpec::Paper(StrategyParams::paper_default()),
        },
        ClientFrame::Detach { param_set: 41 },
        ClientFrame::Explain { id: 0 },
        ClientFrame::ListOutcomes,
        ClientFrame::Heartbeat,
        ClientFrame::Bye,
        ClientFrame::GetMetrics,
    ]);
    wire::pin::check_fixture(&fixture("protocol_v1_client.bin"), &client);

    let mut delta = MetricsSnapshot::default();
    let key = |name: &str| ("serve".to_string(), name.to_string());
    delta.counters.insert(key("egress.pushed"), 17);
    delta.gauges.insert(key("sessions.live"), 3);
    let mut h = Histogram::default();
    h.observe(250);
    delta.histograms.insert(key("epoch.us"), h);
    let server = [
        ServerFrame::Welcome { session: 3 },
        ServerFrame::Denied {
            reason: "bad token".into(),
        },
        ServerFrame::Subscribed { sub_id: 9 },
        ServerFrame::Unsubscribed { sub_id: 9 },
        ServerFrame::Event {
            sub_id: 9,
            seq: 4,
            dropped_before: 2,
            payload: Message::Corr(Arc::new(CorrSnapshot {
                interval: 77,
                stream: 2,
                matrix: stats::matrix::SymMatrix::identity(3),
                cause: Cause::none(),
            })),
        },
        ServerFrame::TopK {
            sub_id: 9,
            seq: 4,
            dropped_before: 2,
            interval: 77,
            pairs: vec![
                TopPair {
                    i: 3,
                    j: 1,
                    rho: 0.93,
                },
                TopPair {
                    i: 2,
                    j: 0,
                    rho: -0.88,
                },
            ],
        },
        ServerFrame::Attached { param_set: 42 },
        ServerFrame::Detached { param_set: 42 },
        ServerFrame::Explained {
            found: true,
            text: "== provenance ==".into(),
        },
        ServerFrame::Outcomes {
            text: "id kind".into(),
        },
        ServerFrame::Error {
            reason: "unknown sub".into(),
        },
        ServerFrame::End,
        ServerFrame::Metrics {
            sub_id: 2,
            seq: 5,
            dropped_before: 1,
            epoch: 9,
            delta,
        },
        ServerFrame::MetricsText {
            epoch: 9,
            text: "# TYPE mm_egress_pushed_total counter\n".into(),
        },
    ];
    wire::pin::check_fixture(&fixture("protocol_v1_server.bin"), &server);
}
