//! Session-multiplexed serving layer for the MarketMiner sweep DAG.
//!
//! Concurrent clients connect over the shard transport's framing (Unix
//! sockets or TCP), authenticate a session, and subscribe to live feeds
//! off a running [`marketminer::live::LiveSweepSession`]: correlation
//! snapshots (full matrices or top-K-conflated, filtered by `(Ctype, M)`
//! stream), order baskets and trade reports per strategy, symbol health,
//! and the `explain` lineage query. Clients can also **reconfigure the
//! running graph** — attach and detach strategies mid-day — through
//! the same protocol.
//!
//! The two load-bearing properties, both verified in `tests/serve.rs`:
//!
//! * **Backpressure isolation.** Every session owns a bounded egress
//!   ring ([`ring::EgressRing`]) with a deterministic drop-oldest,
//!   counted loss policy. The epoch loop never blocks on a client, so a
//!   stalled subscriber accrues *its own* drop count and nothing else —
//!   the DAG's output stays bit-identical to a serverless run.
//! * **Reconfiguration determinism.** Attach/detach ride the runtime's
//!   epoch-quiescent capture/restore cut (see [`marketminer::live`]):
//!   untouched hosts re-enter the rebuilt graph with bit-identical
//!   state, so their trades match a never-reconfigured run exactly.

pub mod client;
pub mod protocol;
pub mod ring;
pub mod router;
pub mod server;
pub mod session;

pub use client::Client;
pub use protocol::{ClientFrame, ServerFrame, SubscriptionSpec, TopPair, PROTOCOL_VERSION};
pub use ring::{EgressRing, Popped};
pub use router::{PublishStats, Router};
pub use server::{ServeReport, Server, ServerConfig, SessionStats};
pub use session::{Session, SessionRegistry};
