//! Length-prefixed framed transport over Unix-domain *or* TCP sockets.
//!
//! Each frame on the wire is `len: u32 LE | crc: u32 LE | payload`,
//! where `crc` is the IEEE CRC-32 of the payload. A torn or corrupted
//! frame fails the CRC (or the length guard) and surfaces as
//! `io::ErrorKind::InvalidData` — the receiving end treats that exactly
//! like a dead peer and lets supervision handle it, rather than
//! attempting in-band resynchronisation.
//!
//! The codec layer is shared by both stream families and is generic over
//! the payload type: the shard fleet speaks [`super::frame::Frame`], the
//! serving layer (`crates/serve`) speaks its own protocol enums, and both
//! ride the same [`FramedConn`]. An [`Endpoint`] names where a connection
//! lands — a filesystem socket path (the shard fleet's control socket),
//! or `tcp:host:port` (a served session's network endpoint) — and
//! [`Listener`] binds either family behind one accept API.
//!
//! Connection establishment retries with bounded exponential backoff
//! ([`connect_with_backoff`]): workers race the supervisor's `bind`, and
//! respawned workers reconnect to a socket that may briefly still be
//! serving the dead incarnation's accept queue.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use wire::{crc32, Codec};

/// Hard upper bound on a frame payload. The largest legitimate frame —
/// one epoch's drained results for a 42-strategy shard — is tens of
/// kilobytes; anything near this bound is corruption.
const MAX_FRAME: u32 = 64 << 20;
/// Frame header: `len: u32 LE | crc: u32 LE`.
const HEADER_LEN: usize = 8;

/// Where a framed connection lands: a Unix-domain socket path, or a TCP
/// address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A filesystem socket path.
    Unix(PathBuf),
    /// A `host:port` TCP address.
    Tcp(String),
}

impl Endpoint {
    /// Parse the command-line / env form: `tcp:host:port` is TCP,
    /// anything else is a Unix socket path.
    pub fn parse(s: &str) -> Endpoint {
        match s.strip_prefix("tcp:") {
            Some(addr) => Endpoint::Tcp(addr.to_string()),
            None => Endpoint::Unix(PathBuf::from(s)),
        }
    }

    /// Connect once (no retries).
    pub fn connect(&self) -> io::Result<FramedConn> {
        match self {
            Endpoint::Unix(path) => Ok(FramedConn {
                stream: Stream::Unix(UnixStream::connect(path)?),
            }),
            Endpoint::Tcp(addr) => Ok(FramedConn {
                stream: Stream::Tcp(TcpStream::connect(addr.as_str())?),
            }),
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// A bound listener for either stream family.
#[derive(Debug)]
pub enum Listener {
    /// Bound Unix-domain listener.
    Unix(UnixListener),
    /// Bound TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Bind the endpoint. A Unix endpoint with a stale socket file must
    /// be unlinked by the caller first (binding an existing path is an
    /// `AddrInUse` error, which supervision treats as fatal).
    pub fn bind(endpoint: &Endpoint) -> io::Result<Listener> {
        match endpoint {
            Endpoint::Unix(path) => Ok(Listener::Unix(UnixListener::bind(path)?)),
            Endpoint::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr.as_str())?)),
        }
    }

    /// The endpoint this listener actually bound — for TCP this resolves
    /// a requested port 0 to the kernel-assigned one, so tests and
    /// spawned workers can be pointed at the real address.
    pub fn local_endpoint(&self, requested: &Endpoint) -> Endpoint {
        match self {
            Listener::Unix(_) => requested.clone(),
            Listener::Tcp(l) => match l.local_addr() {
                Ok(addr) => Endpoint::Tcp(addr.to_string()),
                Err(_) => requested.clone(),
            },
        }
    }

    /// Accept one connection.
    pub fn accept(&self) -> io::Result<FramedConn> {
        match self {
            Listener::Unix(l) => {
                let (stream, _) = l.accept()?;
                Ok(FramedConn::new(stream))
            }
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                // Frames are latency-sensitive (epoch results, served
                // events); Nagle only adds delay here.
                let _ = stream.set_nodelay(true);
                Ok(FramedConn::from_tcp(stream))
            }
        }
    }
}

/// The stream under a [`FramedConn`]: both families expose the identical
/// blocking Read/Write/timeout/clone surface the codec needs.
enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(dur),
            Stream::Tcp(s) => s.set_read_timeout(dur),
        }
    }

    fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    fn shutdown(&self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// A framed, CRC-guarded connection speaking any [`Codec`] frame type
/// (one type per protocol; both peers must agree).
pub struct FramedConn {
    stream: Stream,
}

impl FramedConn {
    /// Wrap an accepted or connected Unix stream.
    pub fn new(stream: UnixStream) -> FramedConn {
        FramedConn {
            stream: Stream::Unix(stream),
        }
    }

    /// Wrap an accepted or connected TCP stream.
    pub fn from_tcp(stream: TcpStream) -> FramedConn {
        FramedConn {
            stream: Stream::Tcp(stream),
        }
    }

    /// Bound how long a [`recv`](FramedConn::recv) may block. `None`
    /// blocks forever. A timeout surfaces as
    /// `io::ErrorKind::WouldBlock`/`TimedOut`.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(dur)
    }

    /// Clone the connection (both halves share the socket). Used to
    /// split reading (dedicated thread) from writing.
    pub fn try_clone(&self) -> io::Result<FramedConn> {
        Ok(FramedConn {
            stream: self.stream.try_clone()?,
        })
    }

    /// Shut both directions of the socket down. Every clone shares the
    /// socket, so this unblocks a thread parked in
    /// [`recv`](FramedConn::recv) on another clone (it sees EOF) — the
    /// clean way to end a connection split across reader/writer threads.
    pub fn shutdown(&self) -> io::Result<()> {
        self.stream.shutdown()
    }

    /// Send one frame: length + CRC header, then the payload. Returns the
    /// bytes written, header included.
    pub fn send<T: Codec>(&mut self, frame: &T) -> io::Result<usize> {
        // Encode behind room for the header: one buffer, one write.
        let mut w = wire::Writer::with_header(HEADER_LEN);
        frame.encode(&mut w);
        let mut buf = w.into_bytes();
        let len = u32::try_from(buf.len() - HEADER_LEN)
            .ok()
            .filter(|&len| len <= MAX_FRAME)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
        let crc = crc32(&buf[HEADER_LEN..]);
        buf[..4].copy_from_slice(&len.to_le_bytes());
        buf[4..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        self.stream.write_all(&buf)?;
        self.stream.flush()?;
        Ok(buf.len())
    }

    /// Receive one frame, verifying length bound and CRC. EOF at a frame
    /// boundary is `io::ErrorKind::UnexpectedEof` (a cleanly closed
    /// peer); corruption is `io::ErrorKind::InvalidData`.
    pub fn recv<T: Codec>(&mut self) -> io::Result<T> {
        self.recv_timed().map(|(frame, _)| frame)
    }

    /// [`recv`](FramedConn::recv), also returning how long the frame took
    /// to check (CRC) and decode once its last byte was in.
    pub fn recv_timed<T: Codec>(&mut self) -> io::Result<(T, Duration)> {
        let mut header = [0u8; HEADER_LEN];
        self.stream.read_exact(&mut header)?;
        let len = u32::from_le_bytes(header[..4].try_into().expect("sized"));
        let want_crc = u32::from_le_bytes(header[4..].try_into().expect("sized"));
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame length exceeds bound",
            ));
        }
        let mut payload = vec![0u8; len as usize];
        self.stream.read_exact(&mut payload)?;
        let arrived = Instant::now();
        if crc32(&payload) != want_crc {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame CRC mismatch",
            ));
        }
        let frame = wire::from_bytes::<T>(&payload)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame decode failed"))?;
        Ok((frame, arrived.elapsed()))
    }
}

impl std::fmt::Debug for FramedConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FramedConn").finish_non_exhaustive()
    }
}

/// Connect to `endpoint`, retrying with bounded exponential backoff until
/// `deadline` elapses. Backoff starts at `base` and doubles up to `max`.
pub fn connect_with_backoff(
    endpoint: &Endpoint,
    base: Duration,
    max: Duration,
    deadline: Duration,
) -> io::Result<FramedConn> {
    let start = Instant::now();
    let mut backoff = base;
    loop {
        match endpoint.connect() {
            Ok(conn) => return Ok(conn),
            Err(e) => {
                if start.elapsed() >= deadline {
                    return Err(io::Error::new(
                        e.kind(),
                        format!("connect to {endpoint} timed out after {deadline:?}: {e}"),
                    ));
                }
                std::thread::sleep(backoff.min(max));
                backoff = (backoff * 2).min(max);
            }
        }
    }
}

// A frame codec sanity check lives in `frame.rs`; the tests here cover
// the socket layer itself — once per stream family where behaviour could
// differ.
#[cfg(test)]
mod tests {
    use super::super::frame::Frame;
    use super::*;

    fn sock_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mm-transport-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("s.sock")
    }

    #[test]
    fn endpoint_parse_round_trips() {
        assert_eq!(
            Endpoint::parse("/tmp/x.sock"),
            Endpoint::Unix(PathBuf::from("/tmp/x.sock"))
        );
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:7070"),
            Endpoint::Tcp("127.0.0.1:7070".into())
        );
        assert_eq!(
            Endpoint::parse(&Endpoint::Tcp("127.0.0.1:7070".into()).to_string()),
            Endpoint::Tcp("127.0.0.1:7070".into())
        );
    }

    #[test]
    fn frames_cross_a_socket_intact() {
        let path = sock_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let endpoint = Endpoint::Unix(path.clone());
        let listener = Listener::bind(&endpoint).unwrap();
        let sender = std::thread::spawn({
            let endpoint = endpoint.clone();
            move || {
                let mut conn = connect_with_backoff(
                    &endpoint,
                    Duration::from_millis(5),
                    Duration::from_millis(50),
                    Duration::from_secs(5),
                )
                .unwrap();
                conn.send(&Frame::Done { final_seq: 8 }).unwrap();
                conn.send(&Frame::Done { final_seq: 9 }).unwrap();
            }
        });
        let mut conn = listener.accept().unwrap();
        assert!(matches!(conn.recv().unwrap(), Frame::Done { final_seq: 8 }));
        assert!(matches!(
            conn.recv::<Frame>().unwrap(),
            Frame::Done { final_seq: 9 }
        ));
        // Peer hangs up: clean EOF.
        sender.join().unwrap();
        assert_eq!(
            conn.recv::<Frame>().unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn frames_cross_tcp_intact() {
        // Port 0: the kernel picks; `local_endpoint` reports the truth.
        let requested = Endpoint::Tcp("127.0.0.1:0".into());
        let listener = Listener::bind(&requested).unwrap();
        let endpoint = listener.local_endpoint(&requested);
        assert_ne!(endpoint, requested, "port 0 must resolve");
        let sender = std::thread::spawn({
            let endpoint = endpoint.clone();
            move || {
                let mut conn = connect_with_backoff(
                    &endpoint,
                    Duration::from_millis(5),
                    Duration::from_millis(50),
                    Duration::from_secs(5),
                )
                .unwrap();
                conn.send(&Frame::Done { final_seq: 2 }).unwrap();
                conn.send(&Frame::Done { final_seq: 3 }).unwrap();
            }
        });
        let mut conn = listener.accept().unwrap();
        assert!(matches!(
            conn.recv::<Frame>().unwrap(),
            Frame::Done { final_seq: 2 }
        ));
        assert!(matches!(
            conn.recv::<Frame>().unwrap(),
            Frame::Done { final_seq: 3 }
        ));
        sender.join().unwrap();
        assert_eq!(
            conn.recv::<Frame>().unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let path = sock_path("crc");
        let _ = std::fs::remove_file(&path);
        let listener = Listener::bind(&Endpoint::Unix(path.clone())).unwrap();
        let sender = std::thread::spawn({
            let path = path.clone();
            move || {
                let mut raw = UnixStream::connect(&path).unwrap();
                let payload = wire::to_bytes(&Frame::Done { final_seq: 1 });
                let mut buf = Vec::new();
                buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                buf.extend_from_slice(&crc32(&payload).to_le_bytes());
                let mut corrupted = payload.clone();
                corrupted[0] ^= 0x40;
                buf.extend_from_slice(&corrupted);
                raw.write_all(&buf).unwrap();
            }
        });
        let mut conn = listener.accept().unwrap();
        assert_eq!(
            conn.recv::<Frame>().unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        sender.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn read_timeout_fires() {
        let path = sock_path("timeout");
        let _ = std::fs::remove_file(&path);
        let listener = Listener::bind(&Endpoint::Unix(path.clone())).unwrap();
        let _client = UnixStream::connect(&path).unwrap();
        let mut conn = listener.accept().unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(30)))
            .unwrap();
        let kind = conn.recv::<Frame>().unwrap_err().kind();
        assert!(
            kind == io::ErrorKind::WouldBlock || kind == io::ErrorKind::TimedOut,
            "unexpected error kind: {kind:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn connect_backoff_gives_up_after_deadline() {
        let endpoint = Endpoint::Unix(sock_path("nobody").join("missing.sock"));
        let err = connect_with_backoff(
            &endpoint,
            Duration::from_millis(5),
            Duration::from_millis(10),
            Duration::from_millis(60),
        )
        .unwrap_err();
        assert!(err.to_string().contains("timed out"));
    }
}
