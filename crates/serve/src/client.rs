//! A small blocking client for the serve protocol, used by the load
//! generator, the integration tests and any CLI tooling.
//!
//! Feed frames and control replies share one socket, so request helpers
//! (`subscribe`, `explain`, ...) buffer any feed deliveries that arrive
//! while waiting for their acknowledgement; [`Client::next_frame`]
//! yields those buffered frames first.

use std::collections::VecDeque;
use std::io;
use std::time::Duration;

use marketminer::shard::{connect_with_backoff, Endpoint, FramedConn};
use pairtrade_core::spec::StrategySpec;

use crate::protocol::{ClientFrame, ServerFrame, SubscriptionSpec, PROTOCOL_VERSION};

/// One authenticated client connection.
pub struct Client {
    conn: FramedConn,
    pending: VecDeque<ServerFrame>,
    /// Server-assigned session id from `Welcome`.
    pub session: u64,
}

impl Client {
    /// Connect (with backoff while the server binds), authenticate, and
    /// return the opened session.
    pub fn connect(endpoint: &Endpoint, token: &str, name: &str) -> io::Result<Client> {
        let mut conn = connect_with_backoff(
            endpoint,
            Duration::from_millis(5),
            Duration::from_millis(100),
            Duration::from_secs(5),
        )?;
        conn.send(&ClientFrame::Hello {
            version: PROTOCOL_VERSION,
            token: token.into(),
            client: name.into(),
        })?;
        match conn.recv::<ServerFrame>()? {
            ServerFrame::Welcome { session } => Ok(Client {
                conn,
                pending: VecDeque::new(),
                session,
            }),
            ServerFrame::Denied { reason } => {
                Err(io::Error::new(io::ErrorKind::PermissionDenied, reason))
            }
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected Welcome, got {other:?}"),
            )),
        }
    }

    /// Send a raw client frame.
    pub fn send(&mut self, frame: &ClientFrame) -> io::Result<()> {
        self.conn.send(frame).map(drop)
    }

    /// Next server frame: buffered deliveries first, then the socket.
    pub fn next_frame(&mut self) -> io::Result<ServerFrame> {
        if let Some(f) = self.pending.pop_front() {
            return Ok(f);
        }
        self.conn.recv()
    }

    /// Receive until `want` accepts a frame, buffering everything else.
    fn wait_for<T>(
        &mut self,
        mut want: impl FnMut(ServerFrame) -> Result<T, ServerFrame>,
    ) -> io::Result<T> {
        loop {
            let frame = self.conn.recv::<ServerFrame>()?;
            match want(frame) {
                Ok(t) => return Ok(t),
                Err(other) => self.pending.push_back(other),
            }
        }
    }

    /// Open a subscription and wait for its id.
    pub fn subscribe(&mut self, spec: SubscriptionSpec) -> io::Result<u64> {
        self.send(&ClientFrame::Subscribe { spec })?;
        self.wait_for(|f| match f {
            ServerFrame::Subscribed { sub_id } => Ok(sub_id),
            other => Err(other),
        })
    }

    /// Attach a strategy host; resolves at the server's next epoch cut.
    pub fn attach(&mut self, spec: StrategySpec) -> io::Result<u64> {
        self.send(&ClientFrame::Attach { spec })?;
        self.wait_for(|f| match f {
            ServerFrame::Attached { param_set } => Ok(Ok(param_set)),
            ServerFrame::Error { reason } => Ok(Err(reason)),
            other => Err(other),
        })?
        .map_err(|reason| io::Error::new(io::ErrorKind::InvalidInput, reason))
    }

    /// Detach a strategy host; resolves at the server's next epoch cut.
    pub fn detach(&mut self, param_set: usize) -> io::Result<()> {
        self.send(&ClientFrame::Detach { param_set })?;
        self.wait_for(|f| match f {
            ServerFrame::Detached { .. } => Ok(Ok(())),
            ServerFrame::Error { reason } => Ok(Err(reason)),
            other => Err(other),
        })?
        .map_err(|reason| io::Error::new(io::ErrorKind::InvalidInput, reason))
    }

    /// Ask for the provenance of an event (`0` = latest outcome).
    /// Returns `(found, rendered_text_or_reason)`.
    pub fn explain(&mut self, id: u64) -> io::Result<(bool, String)> {
        self.send(&ClientFrame::Explain { id })?;
        self.wait_for(|f| match f {
            ServerFrame::Explained { found, text } => Ok((found, text)),
            other => Err(other),
        })
    }

    /// Fetch the Prometheus text exposition of the server's combined
    /// metrics registry; resolves at the server's next epoch cut.
    /// Returns `(epoch, exposition_text)`.
    pub fn get_metrics(&mut self) -> io::Result<(u64, String)> {
        self.send(&ClientFrame::GetMetrics)?;
        self.wait_for(|f| match f {
            ServerFrame::MetricsText { epoch, text } => Ok((epoch, text)),
            other => Err(other),
        })
    }

    /// Ask for the outcome listing (trade reports and baskets so far).
    pub fn list_outcomes(&mut self) -> io::Result<String> {
        self.send(&ClientFrame::ListOutcomes)?;
        self.wait_for(|f| match f {
            ServerFrame::Outcomes { text } => Ok(text),
            other => Err(other),
        })
    }
}
