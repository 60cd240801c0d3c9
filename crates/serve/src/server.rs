//! The serving loop: a [`LiveSweepSession`] driven in epochs with every
//! cut fanned out to subscribed sessions, plus the connection plumbing
//! around it.
//!
//! ## Thread model
//!
//! * **Epoch loop** (the caller's thread, [`Server::serve_day`]): feeds
//!   quotes, drains each quiescent cut, publishes it through the
//!   [`Router`], applies queued reconfiguration/lineage requests, and
//!   reaps heartbeat-stale sessions. This is the only thread touching
//!   the DAG — and nothing it calls can block on a client
//!   ([`EgressRing::push`] is eviction-based), so a stalled subscriber
//!   cannot park the DAG by construction.
//! * **Accept thread**: hands fresh connections a **reader thread**.
//! * **Reader threads** (one per connection): authenticate `Hello`,
//!   register the session, then translate client frames — subscription
//!   management is applied directly (the router is thread-safe);
//!   attach/detach/explain are queued to the epoch loop, which answers
//!   at the next cut.
//! * **Writer threads** (one per session): drain the session's egress
//!   ring onto the socket. A stalled socket blocks only this thread;
//!   loss is attributed by the ring (`dropped_before`) when the client
//!   catches up.
//!
//! [`EgressRing::push`]: crate::ring::EgressRing::push

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use marketminer::live::{LiveOutput, LiveSweepSession};
use marketminer::messages::{Message, TradeReport};
use marketminer::pipeline::SweepConfig;
use marketminer::runtime::RuntimeConfig;
use marketminer::shard::{Endpoint, FramedConn, Listener};
use pairtrade_core::spec::StrategySpec;
use taq::dataset::DayData;
use telemetry::explain::Lineage;
use telemetry::lineage::{Cause, EventId};
use telemetry::metrics::MetricsSnapshot;
use telemetry::recorder::FlightKind;
use telemetry::trace::TrackId;
use telemetry::{Telemetry, TelemetryLevel, TelemetryReport};

use crate::protocol::{ClientFrame, ServerFrame, PROTOCOL_VERSION};
use crate::ring::Popped;
use crate::router::Router;
use crate::session::{Session, SessionRegistry};

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Where to listen (`Endpoint::parse` accepts `tcp:host:port` or a
    /// Unix socket path; TCP port 0 resolves at bind).
    pub endpoint: Endpoint,
    /// Shared-secret auth token `Hello` must present.
    pub token: String,
    /// Per-session egress ring bound (queued feed frames).
    pub egress_cap: usize,
    /// Reap sessions silent for longer than this; 0 disables the reaper.
    pub heartbeat_ttl_us: u64,
    /// Quotes fed per epoch cut.
    pub epoch_quotes: usize,
    /// Hold the first epoch until this many subscriptions exist (load
    /// generators connect while the server spins up), bounded by
    /// [`ServerConfig::start_wait`].
    pub start_subscriptions: usize,
    /// Longest to wait for `start_subscriptions`.
    pub start_wait: Duration,
    /// Serving-layer telemetry level (independent of the DAG's).
    pub telemetry: TelemetryLevel,
}

impl ServerConfig {
    /// Defaults on the given endpoint: token `"open"`, 256-frame rings,
    /// 5 s heartbeat TTL, 2000-quote epochs, no start gate.
    pub fn new(endpoint: Endpoint) -> ServerConfig {
        ServerConfig {
            endpoint,
            token: "open".into(),
            egress_cap: 256,
            heartbeat_ttl_us: 5_000_000,
            epoch_quotes: 2_000,
            start_subscriptions: 0,
            start_wait: Duration::from_secs(10),
            telemetry: TelemetryLevel::Counters,
        }
    }
}

/// Per-session lifetime accounting, kept past the session's death.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionStats {
    /// The session id.
    pub id: u64,
    /// Client name from `Hello`.
    pub client: String,
    /// Feed frames pushed to this session's ring.
    pub pushed: u64,
    /// Feed frames the ring evicted (all attributed to this session).
    pub dropped: u64,
}

/// What a served day produced.
#[derive(Debug)]
pub struct ServeReport {
    /// The DAG's output — bit-identical to a serverless
    /// `LiveSweepSession` run over the same quotes and reconfigurations.
    pub output: LiveOutput,
    /// Per-session egress accounting, ascending by id.
    pub sessions: Vec<SessionStats>,
    /// Frames published across all rings.
    pub published: u64,
    /// Ring evictions across all rings.
    pub evictions: u64,
    /// Sessions torn down by the heartbeat reaper.
    pub reaped: u64,
    /// Epoch cuts fed.
    pub epochs: u64,
    /// Serving-layer telemetry (`None` when `cfg.telemetry` is `Off`).
    pub telemetry: Option<TelemetryReport>,
}

/// Requests readers queue for the epoch loop (everything that must touch
/// the live DAG or the lineage accumulator).
enum Request {
    Attach { session_id: u64, spec: StrategySpec },
    Detach { session_id: u64, param_set: usize },
    Explain { session_id: u64, id: u64 },
    ListOutcomes { session_id: u64 },
    GetMetrics { session_id: u64 },
}

/// State shared by every thread.
struct Shared {
    registry: SessionRegistry,
    router: Router,
    tel: Arc<Telemetry>,
    token: String,
    egress_cap: usize,
    /// Final per-session stats, written when a session dies and at end
    /// of day for the survivors.
    ledger: Mutex<HashMap<u64, SessionStats>>,
    stop: AtomicBool,
}

impl Shared {
    /// Record (or refresh) a session's ledger entry.
    fn account(&self, session: &Session) {
        let (pushed, dropped) = session.ring.stats();
        self.ledger.lock().expect("ledger").insert(
            session.id,
            SessionStats {
                id: session.id,
                client: session.client.clone(),
                pushed,
                dropped,
            },
        );
    }

    /// Tear a session down from any thread: ledger, ring, router.
    fn teardown(&self, session: &Arc<Session>) {
        self.account(session);
        self.registry.close(session.id);
        self.router.drop_session(session.id);
    }
}

/// A bound serving endpoint, ready to run a day.
pub struct Server {
    cfg: ServerConfig,
    listener: Listener,
    endpoint: Endpoint,
}

impl Server {
    /// Bind the configured endpoint (resolving TCP port 0).
    pub fn bind(cfg: ServerConfig) -> io::Result<Server> {
        if let Endpoint::Unix(path) = &cfg.endpoint {
            let _ = std::fs::remove_file(path);
        }
        let listener = Listener::bind(&cfg.endpoint)?;
        let endpoint = listener.local_endpoint(&cfg.endpoint);
        Ok(Server {
            cfg,
            listener,
            endpoint,
        })
    }

    /// The resolved endpoint clients should connect to.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Serve one trading day: run the sweep DAG over `day`'s quotes at
    /// `rt`, fanning every epoch cut out to subscribers, then deliver
    /// the end-of-day flush and close every session.
    pub fn serve_day(
        self,
        day: DayData,
        sweep: SweepConfig,
        rt: RuntimeConfig,
    ) -> io::Result<ServeReport> {
        let env =
            telemetry::from_env().map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let tel = Telemetry::build(self.cfg.telemetry, env.lineage_cap);
        let shared = Arc::new(Shared {
            registry: SessionRegistry::new(),
            router: Router::new(),
            tel: Arc::clone(&tel),
            token: self.cfg.token.clone(),
            egress_cap: self.cfg.egress_cap,
            ledger: Mutex::new(HashMap::new()),
            stop: AtomicBool::new(false),
        });
        let (tx, rx) = mpsc::channel::<Request>();

        let accept = {
            let shared = Arc::clone(&shared);
            let listener = self.listener;
            let tx = tx.clone();
            std::thread::spawn(move || accept_loop(listener, shared, tx))
        };

        let mut live = LiveSweepSession::new(sweep, rt)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let mut lineage = Lineage::default();
        lineage.set_nodes(live.node_names());

        // Hold the first epoch for the start gate, if any.
        let deadline = std::time::Instant::now() + self.cfg.start_wait;
        while shared.router.len() < self.cfg.start_subscriptions
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(2));
        }

        let probe = tel.probe("serve", TrackId::node(0));
        let mut published = 0u64;
        let mut evictions = 0u64;
        let mut reaped = 0u64;
        let mut drops_seen: HashMap<u64, u64> = HashMap::new();
        let quotes = day.quotes();
        for chunk in quotes.chunks(self.cfg.epoch_quotes.max(1)) {
            let cut = live.feed_epoch(chunk);
            lineage.extend(&cut.lineage);
            let epoch = cut.epoch;
            let stats = shared.router.publish(&cut, &live.stream_keys());
            published += stats.published;
            evictions += stats.evictions;
            probe.count("egress.pushed", stats.published);
            probe.count("egress.dropped", stats.evictions);
            for session in shared.registry.all() {
                probe.observe("egress.depth", session.ring.depth() as u64);
                let (_, dropped) = session.ring.stats();
                let seen = drops_seen.entry(session.id).or_insert(0);
                if dropped > *seen {
                    let new = dropped - *seen;
                    *seen = dropped;
                    tel.flight(
                        FlightKind::Drop,
                        format!("session{}", session.id),
                        Some(epoch),
                        format!("egress ring evicted {new} frames (total {dropped})"),
                    );
                }
                shared.account(&session);
            }
            handle_requests(&rx, &shared, &mut live, &mut lineage, reaped, epoch);
            if self.cfg.heartbeat_ttl_us > 0 {
                for session in shared
                    .registry
                    .reap_stale(tel.now_us(), self.cfg.heartbeat_ttl_us)
                {
                    shared.account(&session);
                    shared.router.drop_session(session.id);
                    reaped += 1;
                    tel.flight(
                        FlightKind::Sever,
                        format!("session{}", session.id),
                        Some(epoch),
                        format!("heartbeat stale; client {:?} reaped", session.client),
                    );
                }
            }
            if shared.router.wants_metrics() {
                let snap = metrics_snapshot(&shared, &live, reaped);
                let stats = shared.router.publish_metrics(epoch, &snap);
                published += stats.published;
                evictions += stats.evictions;
                probe.count("egress.pushed", stats.published);
                probe.count("egress.dropped", stats.evictions);
            }
        }
        // One last look at queued requests before the day closes.
        let last_epoch = live.epochs();
        handle_requests(&rx, &shared, &mut live, &mut lineage, reaped, last_epoch);

        let epochs = live.epochs();
        let specs: Vec<StrategySpec> = live.specs().to_vec();
        let output = live.finish();
        lineage.set_nodes(output.node_names.clone());
        lineage.extend(&output.lineage);

        // End-of-day flush: the day's trade reports, one per param set,
        // and the health events no epoch cut drained (baskets are not
        // delivered to subscribers at all yet — the live session folds
        // them into `output`, see `final_cut`), then every session gets
        // `End` — through the feed lane, so it orders after the last
        // deliveries instead of jumping the control queue.
        let final_cut = final_cut(&output, &specs, epochs);
        let stats = shared.router.publish(&final_cut, &[]);
        published += stats.published;
        evictions += stats.evictions;
        for session in shared.registry.all() {
            if session.ring.push(ServerFrame::End) {
                evictions += 1;
            }
            published += 1;
            shared.account(&session);
        }
        shared.registry.close_all();
        shared.stop.store(true, Ordering::Release);
        let _ = self.endpoint.connect(); // wake the accept loop
        let _ = accept.join();

        let mut sessions: Vec<SessionStats> = shared
            .ledger
            .lock()
            .expect("ledger")
            .values()
            .cloned()
            .collect();
        sessions.sort_by_key(|s| s.id);
        let telemetry = tel.level().enabled().then(|| tel.finish());
        Ok(ServeReport {
            output,
            sessions,
            published,
            evictions,
            reaped,
            epochs,
            telemetry,
        })
    }
}

/// Build the synthetic end-of-day cut: the day's trades, one report per
/// param set that traded, then the health events of the final flush — a
/// transition leaves the graph with the bar set it takes effect at, so
/// one effective at the day's last interval reached no epoch cut; the
/// others went out at their cuts. Baskets never reach a subscriber: the DAG now
/// emits each as soon as its interval is complete, but
/// [`LiveSweepSession`] folds them into [`LiveOutput::baskets`] rather
/// than into the cuts `Router::publish` fans out, because delivering ~670
/// baskets a day changes how many frames a cut pushes through the egress
/// rings (ROADMAP, "live basket delivery" — a change that needs its own
/// benchmark first). `Trades` subscribers get exactly these reports, at
/// `End`, as before.
fn final_cut(
    output: &LiveOutput,
    specs: &[StrategySpec],
    epoch: u64,
) -> marketminer::live::LiveEpoch {
    let mut messages: Vec<Message> = Vec::new();
    for (param_set, trades) in output.trades_per_param.iter().enumerate() {
        if !trades.is_empty() {
            messages.push(Message::Trades(Arc::new(TradeReport {
                param_set,
                strategy: specs[param_set].kind(),
                trades: trades.clone(),
                cause: Cause::none(),
            })));
        }
    }
    messages.extend(output.health_events.iter().cloned().map(Message::Health));
    marketminer::live::LiveEpoch {
        epoch,
        messages,
        snapshots: Vec::new(),
        lineage: Vec::new(),
    }
}

/// Apply every queued DAG/lineage request at the current epoch cut.
fn handle_requests(
    rx: &mpsc::Receiver<Request>,
    shared: &Shared,
    live: &mut LiveSweepSession,
    lineage: &mut Lineage,
    reaped: u64,
    epoch: u64,
) {
    while let Ok(req) = rx.try_recv() {
        match req {
            Request::Attach { session_id, spec } => {
                let reply = match live.attach(spec) {
                    Ok(param_set) => {
                        lineage.set_nodes(live.node_names());
                        ServerFrame::Attached {
                            param_set: param_set as u64,
                        }
                    }
                    Err(e) => ServerFrame::Error {
                        reason: e.to_string(),
                    },
                };
                reply_control(shared, session_id, reply);
            }
            Request::Detach {
                session_id,
                param_set,
            } => {
                let reply = match live.detach(param_set) {
                    Ok(()) => {
                        lineage.set_nodes(live.node_names());
                        ServerFrame::Detached {
                            param_set: param_set as u64,
                        }
                    }
                    Err(e) => ServerFrame::Error {
                        reason: e.to_string(),
                    },
                };
                reply_control(shared, session_id, reply);
            }
            Request::Explain { session_id, id } => {
                let target = if id == 0 {
                    lineage.default_target()
                } else {
                    Some(EventId(id))
                };
                let reply = match target.and_then(|t| lineage.explanation(t)) {
                    Some(explanation) => ServerFrame::Explained {
                        found: true,
                        text: explanation.render(),
                    },
                    None => ServerFrame::Explained {
                        found: false,
                        text: "event not in the lineage capture (is the DAG at \
                               TelemetryLevel::Full?)"
                            .into(),
                    },
                };
                reply_control(shared, session_id, reply);
            }
            Request::ListOutcomes { session_id } => {
                reply_control(
                    shared,
                    session_id,
                    ServerFrame::Outcomes {
                        text: lineage.render_list(),
                    },
                );
            }
            Request::GetMetrics { session_id } => {
                let snap = metrics_snapshot(shared, live, reaped);
                reply_control(
                    shared,
                    session_id,
                    ServerFrame::MetricsText {
                        epoch,
                        text: snap.render_prometheus(),
                    },
                );
            }
        }
    }
}

/// One combined registry view for the exposition and the live-metrics
/// feed: the serving layer's own counters, the DAG incarnation's
/// registry, per-session egress-ring accounting (pushed + attributed
/// drops, dead sessions included via the ledger), the lineage-ring drop
/// count, and the reaper total.
fn metrics_snapshot(shared: &Shared, live: &LiveSweepSession, reaped: u64) -> MetricsSnapshot {
    let mut snap = shared.tel.registry.snapshot();
    if let Some(dag) = live.telemetry() {
        snap.merge(&dag.registry.snapshot());
        snap.counters.insert(
            ("lineage".into(), "ring.dropped".into()),
            dag.lineage.dropped(),
        );
    }
    for s in shared.ledger.lock().expect("ledger").values() {
        let label = format!("session{}", s.id);
        snap.counters
            .insert((label.clone(), "ring.pushed".into()), s.pushed);
        snap.counters
            .insert((label, "ring.dropped".into()), s.dropped);
    }
    for session in shared.registry.all() {
        let (pushed, dropped) = session.ring.stats();
        let label = format!("session{}", session.id);
        snap.counters
            .insert((label.clone(), "ring.pushed".into()), pushed);
        snap.counters
            .insert((label, "ring.dropped".into()), dropped);
    }
    snap.counters
        .insert(("serve".into(), "sessions.reaped".into()), reaped);
    snap
}

/// Push a control reply to a session if it is still alive.
fn reply_control(shared: &Shared, session_id: u64, frame: ServerFrame) {
    if let Some(session) = shared.registry.get(session_id) {
        session.ring.push_control(frame);
    }
}

/// Accept connections until the stop flag flips; each gets a reader.
fn accept_loop(listener: Listener, shared: Arc<Shared>, tx: mpsc::Sender<Request>) {
    while let Ok(conn) = listener.accept() {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let shared = Arc::clone(&shared);
        let tx = tx.clone();
        std::thread::spawn(move || reader_loop(conn, shared, tx));
    }
}

/// Authenticate one connection, register its session, translate frames.
fn reader_loop(mut conn: FramedConn, shared: Arc<Shared>, tx: mpsc::Sender<Request>) {
    // Handshake: first frame must be a valid Hello. Denials go straight
    // out on this handle — the writer thread does not exist yet.
    let hello = match conn.recv::<ClientFrame>() {
        Ok(f) => f,
        Err(_) => return,
    };
    let (client, denial) = match hello {
        ClientFrame::Hello {
            version,
            token,
            client,
        } => {
            if version != PROTOCOL_VERSION {
                (
                    client,
                    Some(format!("protocol version {version} unsupported")),
                )
            } else if token != shared.token {
                (client, Some("bad token".into()))
            } else {
                (client, None)
            }
        }
        other => (
            String::new(),
            Some(format!("expected Hello, got {other:?}")),
        ),
    };
    if let Some(reason) = denial {
        let _ = conn.send(&ServerFrame::Denied { reason });
        let _ = client;
        return;
    }
    let session = shared
        .registry
        .open(client, shared.egress_cap, shared.tel.now_us());
    let probe = shared.tel.probe(
        format!("session{}", session.id),
        TrackId::node(session.id as usize),
    );
    probe.count("opened", 1);
    shared.account(&session);
    session.ring.push_control(ServerFrame::Welcome {
        session: session.id,
    });
    let writer = {
        let session = Arc::clone(&session);
        let shared = Arc::clone(&shared);
        match conn.try_clone() {
            Ok(out_conn) => std::thread::spawn(move || writer_loop(out_conn, session, shared)),
            Err(_) => {
                shared.teardown(&session);
                return;
            }
        }
    };

    // Disconnect or garbage ends the loop: the session dies either way.
    while let Ok(frame) = conn.recv::<ClientFrame>() {
        session.touch(shared.tel.now_us());
        match frame {
            ClientFrame::Hello { .. } => {
                session.ring.push_control(ServerFrame::Error {
                    reason: "already authenticated".into(),
                });
            }
            ClientFrame::Subscribe { spec } => {
                let sub_id = shared.router.subscribe(&session, spec);
                probe.count("subscribed", 1);
                session
                    .ring
                    .push_control(ServerFrame::Subscribed { sub_id });
            }
            ClientFrame::Unsubscribe { sub_id } => {
                let frame = if shared.router.unsubscribe(session.id, sub_id) {
                    ServerFrame::Unsubscribed { sub_id }
                } else {
                    ServerFrame::Error {
                        reason: format!("unknown subscription {sub_id}"),
                    }
                };
                session.ring.push_control(frame);
            }
            ClientFrame::Attach { spec } => {
                let _ = tx.send(Request::Attach {
                    session_id: session.id,
                    spec,
                });
            }
            ClientFrame::Detach { param_set } => {
                let _ = tx.send(Request::Detach {
                    session_id: session.id,
                    param_set,
                });
            }
            ClientFrame::Explain { id } => {
                let _ = tx.send(Request::Explain {
                    session_id: session.id,
                    id,
                });
            }
            ClientFrame::ListOutcomes => {
                let _ = tx.send(Request::ListOutcomes {
                    session_id: session.id,
                });
            }
            ClientFrame::GetMetrics => {
                let _ = tx.send(Request::GetMetrics {
                    session_id: session.id,
                });
            }
            ClientFrame::Heartbeat => {}
            ClientFrame::Bye => break,
        }
    }
    shared.teardown(&session);
    let _ = writer.join();
}

/// Drain one session's ring onto its socket. On exit — ring closed (end
/// of day or reap) or a dead socket — shut the connection down so the
/// paired reader thread unblocks and the client sees EOF.
fn writer_loop(mut conn: FramedConn, session: Arc<Session>, shared: Arc<Shared>) {
    loop {
        match session.ring.pop(Duration::from_millis(100)) {
            Popped::Item {
                mut item,
                dropped_before,
            } => {
                stamp(&mut item, dropped_before);
                if conn.send(&item).is_err() {
                    shared.teardown(&session);
                    break;
                }
            }
            Popped::Closed => break,
            Popped::TimedOut => {}
        }
    }
    let _ = conn.shutdown();
}

/// Write the ring-attributed drop count into a delivery frame.
fn stamp(frame: &mut ServerFrame, dropped: u64) {
    match frame {
        ServerFrame::Event { dropped_before, .. }
        | ServerFrame::TopK { dropped_before, .. }
        | ServerFrame::Metrics { dropped_before, .. } => {
            *dropped_before = dropped;
        }
        _ => {}
    }
}
