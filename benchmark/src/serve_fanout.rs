//! `serve_fanout`: a served trading day over a Unix socket.
//!
//! In-process `Server::bind` + `serve_day`, the DAG running under
//! `LiveSweepSession` cuts every [`EPOCH_QUOTES`] quotes; `W − 1` (at
//! least one) reading `Client`s each subscribed to all nine full-matrix
//! correlation streams and to every trade, plus one connected subscriber
//! that never reads. This is the egress path: `Router::publish`,
//! copy-on-write fan-out, rings, protocol encode and socket writers, with
//! the drop-oldest path exercised by the stalled session. Few
//! connections, many bytes, so the load fits the cores. The heartbeat
//! reaper is off: the stalled session must survive the day.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use marketminer::live::{LiveOutput, LiveSweepSession};
use marketminer::pipeline::SweepConfig;
use marketminer::shard::Endpoint;
use marketminer::RuntimeConfig;
use serve::{Client, ServeReport, Server, ServerConfig, ServerFrame, SubscriptionSpec};
use stats::correlation::CorrType;
use taq::dataset::DayData;
use telemetry::TelemetryLevel;

use crate::measure::timed;
use crate::stats::{median, tail_percentile};
use crate::trace::Recorder;
use crate::workload::{
    n_pairs, record_graph, tape, Checked, Env, Metrics, Op, SweepDigest, Workload,
};

pub const N_STOCKS: usize = 16;
pub const EPOCH_QUOTES: usize = 500;
pub const EGRESS_CAP: usize = 256;
const TOKEN: &str = "bench";
const STALLED: &str = "stalled";

pub struct ServeFanout {
    env: Env,
    day: DayData,
    cfg: SweepConfig,
    streams: Vec<(CorrType, usize)>,
    sock: PathBuf,
    reference: Option<SweepDigest>,
}

/// What one reading subscriber saw.
#[derive(Debug, Default, Clone, Copy)]
struct ReaderStats {
    frames: u64,
    /// Deliveries the server says it evicted ahead of ones we received.
    dropped: u64,
    /// Deliveries whose `seq` was not the next one of its subscription.
    gaps: u64,
}

/// One served day as the benchmark's clients saw it.
struct ServedDay {
    report: ServeReport,
    readers: Vec<ReaderStats>,
}

fn subscribe_all(client: &mut Client, streams: &[(CorrType, usize)]) -> std::io::Result<()> {
    for &(ctype, window) in streams {
        client.subscribe(SubscriptionSpec::Corr {
            ctype,
            window,
            top_k: None,
        })?;
    }
    client.subscribe(SubscriptionSpec::Trades { param_set: None })?;
    Ok(())
}

fn read_day(
    endpoint: &Endpoint,
    name: &str,
    streams: &[(CorrType, usize)],
) -> std::io::Result<ReaderStats> {
    let mut client = Client::connect(endpoint, TOKEN, name)?;
    subscribe_all(&mut client, streams)?;
    let mut stats = ReaderStats::default();
    let mut next_seq: HashMap<u64, u64> = HashMap::new();
    loop {
        match client.next_frame() {
            Ok(ServerFrame::Event {
                sub_id,
                seq,
                dropped_before,
                ..
            }) => {
                let expected = next_seq.entry(sub_id).or_insert(0);
                if seq != *expected {
                    stats.gaps += 1;
                }
                *expected = seq + 1;
                stats.frames += 1;
                stats.dropped += dropped_before;
            }
            Ok(ServerFrame::End) => return Ok(stats),
            Ok(_) => {}
            Err(e) => return Err(e),
        }
    }
}

impl ServeFanout {
    pub fn setup(env: &Env) -> ServeFanout {
        let cfg = SweepConfig::paper(N_STOCKS);
        std::fs::create_dir_all(&env.out_dir).expect("create scratch directory");
        ServeFanout {
            env: env.clone(),
            day: tape(N_STOCKS, env.seed),
            streams: cfg.distinct_streams(),
            cfg,
            sock: env
                .out_dir
                .join(format!("serve-{}.sock", std::process::id())),
            reference: None,
        }
    }

    fn readers(&self) -> usize {
        self.env.workers.saturating_sub(1).max(1)
    }

    fn rt(&self, telemetry: TelemetryLevel) -> RuntimeConfig {
        RuntimeConfig {
            workers: self.env.workers,
            telemetry,
            ..RuntimeConfig::default()
        }
    }

    /// The same tape through a bare `LiveSweepSession`, no server: the
    /// output a served day must reproduce, with each cut's wall time.
    fn bare_live(&self) -> (LiveOutput, Vec<f64>) {
        let mut live = LiveSweepSession::new(self.cfg.clone(), self.rt(TelemetryLevel::Off))
            .expect("the live session opens");
        let mut epoch_ms = Vec::new();
        for chunk in self.day.quotes().chunks(EPOCH_QUOTES) {
            let t = std::time::Instant::now();
            std::hint::black_box(live.feed_epoch(chunk));
            epoch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        (live.finish(), epoch_ms)
    }

    fn serve(&self, level: TelemetryLevel) -> ServedDay {
        let subs_per_client = self.streams.len() + 1;
        let server = Server::bind(ServerConfig {
            token: TOKEN.into(),
            egress_cap: EGRESS_CAP,
            heartbeat_ttl_us: 0,
            epoch_quotes: EPOCH_QUOTES,
            // The first cut waits for every subscription, so every reader
            // sees the whole day.
            start_subscriptions: (self.readers() + 1) * subs_per_client,
            start_wait: Duration::from_secs(60),
            telemetry: level,
            ..ServerConfig::new(Endpoint::Unix(self.sock.clone()))
        })
        .expect("bind the serve socket");
        let endpoint = server.endpoint().clone();
        let (day, cfg, rt) = (self.day.clone(), self.cfg.clone(), self.rt(level));
        let server_thread = thread::spawn(move || server.serve_day(day, cfg, rt));

        // The stalled subscriber: connects, subscribes, never reads again
        // until the day is over.
        let (release, held) = mpsc::channel::<()>();
        let stalled = {
            let (endpoint, streams) = (endpoint.clone(), self.streams.clone());
            thread::spawn(move || -> std::io::Result<()> {
                let mut client = Client::connect(&endpoint, TOKEN, STALLED)?;
                subscribe_all(&mut client, &streams)?;
                let _ = held.recv();
                Ok(())
            })
        };
        let readers: Vec<_> = (0..self.readers())
            .map(|i| {
                let (endpoint, streams) = (endpoint.clone(), self.streams.clone());
                thread::spawn(move || read_day(&endpoint, &format!("reader{i}"), &streams))
            })
            .collect();
        let readers = readers
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("reader thread")
                    .expect("reader finished the day")
            })
            .collect();
        let report = server_thread
            .join()
            .expect("server thread")
            .expect("serve_day completes");
        drop(release);
        stalled
            .join()
            .expect("stalled thread")
            .expect("stalled client connected");
        let _ = std::fs::remove_file(&self.sock);
        ServedDay { report, readers }
    }

    /// Attempted = feed frames owed to reading subscribers; failed = the
    /// ones they lost, or all of them on any output mismatch.
    fn check(&self, day: &ServedDay) -> Checked {
        let reference = self.reference.as_ref().expect("reference() ran first");
        let out = &day.report.output;
        let got: u64 = day.readers.iter().map(|r| r.frames).sum();
        let lost: u64 = day.readers.iter().map(|r| r.dropped + r.gaps).sum();
        let reader_sessions_clean = day
            .report
            .sessions
            .iter()
            .filter(|s| s.client != STALLED)
            .all(|s| s.dropped == 0);
        let same_frames = day.readers.windows(2).all(|w| w[0].frames == w[1].frames);
        let ok = out.failures.is_empty()
            && reference.failed_params(&out.trades_per_param, &out.baskets) == 0
            && reader_sessions_clean
            && same_frames
            && got > 0;
        if ok {
            Checked {
                attempted: got + lost,
                failed: lost,
            }
        } else {
            Checked::all_or_nothing(got + lost, false)
        }
    }
}

impl Workload for ServeFanout {
    fn pair_day_params(&self) -> f64 {
        (n_pairs(N_STOCKS) * self.cfg.specs.len()) as f64
    }

    fn reference(&mut self) {
        let (out, _) = self.bare_live();
        assert!(out.failures.is_empty(), "reference live session degraded");
        self.reference = Some(SweepDigest::new(&out.trades_per_param, &out.baskets));
    }

    fn op(&mut self) -> Op {
        let t = timed(|| self.serve(TelemetryLevel::Off));
        Op::new(&t, self.check(&t.value))
    }

    fn traced(&mut self, rec: &mut Recorder, m: &mut Metrics) -> Checked {
        let w = self.env.workers;
        let live = rec.span("live.day", |_| (timed(|| self.bare_live()), 1));
        let (out, epoch_ms) = &live.value;
        self.reference = Some(SweepDigest::new(&out.trades_per_param, &out.baskets));
        m.insert("live.day_s", live.wall_s);
        m.insert("live.feed_epoch_ms.p50", median(epoch_ms));
        m.insert(
            "live.feed_epoch_ms.tail",
            tail_percentile(epoch_ms).map_or(0.0, |(_, v)| v),
        );

        let off = rec.span("serve.day.off", |_| {
            (timed(|| self.serve(TelemetryLevel::Off)), 1)
        });
        let full = rec.span("serve.day.full", |_| {
            (timed(|| self.serve(TelemetryLevel::Full)), 1)
        });
        let mut checked = self.check(&off.value);
        checked.add(self.check(&full.value));

        let stalled = off
            .value
            .report
            .sessions
            .iter()
            .find(|s| s.client == STALLED)
            .expect("the stalled session is in the ledger");
        assert!(
            stalled.dropped > 0,
            "the stalled session never overflowed: the drop path did not run"
        );
        m.insert(
            "serve.stalled_drop_share",
            stalled.dropped as f64 / stalled.pushed as f64,
        );
        let frames: u64 = off.value.readers.iter().map(|r| r.frames).sum();
        m.insert("serve.frames_per_s", frames as f64 / off.wall_s);
        m.insert("serve.overhead_x", off.wall_s / live.wall_s);
        if let Some(report) = &full.value.report.output.telemetry {
            record_graph(report, full.wall_s, w, m);
        }
        m.insert("op.untraced_s", off.wall_s);
        m.insert("op.traced_s", full.wall_s);
        checked
    }
}
