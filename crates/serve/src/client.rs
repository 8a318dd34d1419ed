//! A minimal blocking client for the daemon's line protocol.
//!
//! One request line in, one response line out. The raw-line API exists
//! for the byte-identity tests and the bench driver: callers that need
//! to compare *wire bytes* across daemon generations must see the exact
//! line, not a re-serialization.
//!
//! [`Client::request_with_retry`] adds the self-healing layer: transient
//! transport failures (the daemon dropped the connection, a read timed
//! out) reconnect and resend, and typed *retryable* rejections (load
//! shed — see [`ErrorCode::is_retryable`](crate::protocol::ErrorCode::is_retryable)) back off and resend on the
//! same connection. Backoff is seeded exponential-with-jitter
//! ([`RetryPolicy::backoff_delay`] is a pure function of `(policy,
//! attempt, request)`), so a chaos test replays the exact same retry
//! schedule every run.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use cim_bench::runner::{mix64, FnvWriter};

use crate::protocol::{Request, Response};

/// Where a client connected — kept so a dropped connection can be
/// rebuilt transparently by the retry layer.
#[derive(Debug, Clone)]
enum Endpoint {
    Unix(PathBuf),
    Tcp(SocketAddr),
}

/// Client-side retry policy: seeded exponential backoff with jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Resend attempts after the first try (0 = fail fast).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base: Duration,
    /// Upper bound on any single backoff sleep.
    pub cap: Duration,
    /// Jitter seed — the same `(seed, attempt, request)` always sleeps
    /// the same duration, keeping chaos runs reproducible.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base: Duration::from_millis(10),
            cap: Duration::from_secs(1),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry `attempt` (0-based) of the request keyed
    /// by `key` — exponential in the attempt, capped, with half the
    /// window jittered. Pure: no clock, no global RNG.
    pub fn backoff_delay(&self, attempt: u32, key: u64) -> Duration {
        let base_ns = u64::try_from(self.base.as_nanos()).unwrap_or(u64::MAX);
        let cap_ns = u64::try_from(self.cap.as_nanos()).unwrap_or(u64::MAX);
        let exp_ns = base_ns
            .checked_shl(attempt.min(31))
            .unwrap_or(cap_ns)
            .min(cap_ns);
        // Decorrelate concurrent clients retrying the same instant: keep
        // half the exponential window, jitter the other half.
        let h = mix64(self.seed ^ mix64(key ^ u64::from(attempt).wrapping_add(1)));
        let half = exp_ns / 2;
        Duration::from_nanos(half + h % (half + 1))
    }
}

/// Whether an I/O failure looks like a transient transport problem worth
/// a reconnect-and-resend (the daemon closed mid-exchange, the stream
/// reset, a read timed out) rather than a local logic error.
fn is_transient(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::TimedOut
    )
}

/// FNV-1a of the request id — the jitter key, so distinct requests
/// spread their retry schedules apart.
fn request_key(request: &Request) -> u64 {
    let mut h = FnvWriter::new();
    h.write_bytes(request.id.as_bytes());
    h.finish()
}

/// A blocking connection to a running daemon.
pub struct Client {
    endpoint: Endpoint,
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("endpoint", &self.endpoint)
            .finish_non_exhaustive()
    }
}

/// The reader/writer halves of one connection, type-erased over the
/// transport.
type Halves = (BufReader<Box<dyn Read + Send>>, Box<dyn Write + Send>);

fn open_unix(socket: &Path) -> io::Result<Halves> {
    let stream = UnixStream::connect(socket)?;
    let writer = stream.try_clone()?;
    Ok((BufReader::new(Box::new(stream)), Box::new(writer)))
}

fn open_tcp(addr: SocketAddr) -> io::Result<Halves> {
    let stream = TcpStream::connect(addr)?;
    let writer = stream.try_clone()?;
    Ok((BufReader::new(Box::new(stream)), Box::new(writer)))
}

impl Client {
    /// Connects over the daemon's Unix socket.
    ///
    /// # Errors
    ///
    /// Connection and stream-duplication I/O errors.
    pub fn connect_unix(socket: impl AsRef<Path>) -> io::Result<Self> {
        let socket = socket.as_ref().to_path_buf();
        let (reader, writer) = open_unix(&socket)?;
        Ok(Client {
            endpoint: Endpoint::Unix(socket),
            reader,
            writer,
        })
    }

    /// Connects over TCP.
    ///
    /// # Errors
    ///
    /// Address-resolution, connection, and stream-duplication I/O
    /// errors.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::other("address resolved to nothing"))?;
        let (reader, writer) = open_tcp(addr)?;
        Ok(Client {
            endpoint: Endpoint::Tcp(addr),
            reader,
            writer,
        })
    }

    /// Drops the current connection and dials the same endpoint again.
    ///
    /// # Errors
    ///
    /// Connection I/O errors (the old connection is gone either way).
    pub fn reconnect(&mut self) -> io::Result<()> {
        let (reader, writer) = match &self.endpoint {
            Endpoint::Unix(socket) => open_unix(socket)?,
            Endpoint::Tcp(addr) => open_tcp(*addr)?,
        };
        self.reader = reader;
        self.writer = writer;
        Ok(())
    }

    /// Sends one raw request line and returns the raw response line
    /// (trailing newline stripped) — the wire bytes the byte-identity
    /// tests compare.
    ///
    /// # Errors
    ///
    /// I/O errors; an EOF before a response line is
    /// [`io::ErrorKind::UnexpectedEof`].
    pub fn request_line(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection before responding",
            ));
        }
        while response.ends_with('\n') || response.ends_with('\r') {
            response.pop();
        }
        Ok(response)
    }

    /// Sends a typed request and parses the typed response.
    ///
    /// # Errors
    ///
    /// I/O errors, plus [`io::ErrorKind::InvalidData`] if either side of
    /// the exchange fails to (de)serialize.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        let line = serde_json::to_string(request)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let reply = self.request_line(&line)?;
        serde_json::from_str(&reply)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// [`request`](Client::request) with self-healing: transient
    /// transport failures reconnect and resend, retryable typed
    /// rejections ([`ErrorCode::is_retryable`](crate::protocol::ErrorCode::is_retryable): load shed) back off and
    /// resend. Gives up after `policy.max_retries` retries, returning
    /// the last outcome.
    ///
    /// Caveat: a connection that dies *after* the daemon processed a
    /// schedule request but before the reply arrived makes the resend a
    /// duplicate. The daemon then answers the resent id warm (same
    /// bytes) when the first attempt completed, or rejects it as a
    /// duplicate while still in flight — callers retrying across
    /// connection drops should treat a `bad_request` duplicate-id reply
    /// as "already submitted", not as failure.
    ///
    /// # Errors
    ///
    /// The final attempt's I/O error when every retry was exhausted (or
    /// the failure was not transient).
    pub fn request_with_retry(
        &mut self,
        request: &Request,
        policy: &RetryPolicy,
    ) -> io::Result<Response> {
        let key = request_key(request);
        let mut attempt = 0u32;
        loop {
            let outcome = self.request(request);
            let retryable = match &outcome {
                Ok(response) => response
                    .as_error()
                    .is_some_and(|e| e.code.is_retryable()),
                Err(e) => is_transient(e.kind()),
            };
            if !retryable || attempt >= policy.max_retries {
                return outcome;
            }
            std::thread::sleep(policy.backoff_delay(attempt, key));
            if outcome.is_err() {
                // The transport is gone or wedged: rebuild it. A failed
                // reconnect still consumes this attempt — the next
                // `request` fails fast and the loop decides again.
                let _ = self.reconnect();
            }
            attempt += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let policy = RetryPolicy {
            max_retries: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
            seed: 42,
        };
        let key = request_key(&Request::bare("r1", crate::protocol::Op::Ping));
        for attempt in 0..8 {
            let a = policy.backoff_delay(attempt, key);
            let b = policy.backoff_delay(attempt, key);
            assert_eq!(a, b, "same inputs, same sleep");
            assert!(a <= policy.cap, "attempt {attempt}: {a:?} over cap");
            // At least half the exponential window survives the jitter.
            let floor_ns = (10_000_000u64 << attempt.min(31)).min(200_000_000) / 2;
            assert!(a >= Duration::from_nanos(floor_ns), "attempt {attempt}: {a:?}");
        }
        // Different requests decorrelate.
        let other = request_key(&Request::bare("r2", crate::protocol::Op::Ping));
        assert_ne!(
            policy.backoff_delay(3, key),
            policy.backoff_delay(3, other),
            "distinct ids should jitter apart (for this seed)"
        );
    }

    #[test]
    fn transient_kinds_are_the_transport_failures() {
        for kind in [
            io::ErrorKind::UnexpectedEof,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::ConnectionAborted,
            io::ErrorKind::ConnectionRefused,
            io::ErrorKind::BrokenPipe,
            io::ErrorKind::WouldBlock,
            io::ErrorKind::TimedOut,
        ] {
            assert!(is_transient(kind), "{kind:?}");
        }
        assert!(!is_transient(io::ErrorKind::InvalidData));
        assert!(!is_transient(io::ErrorKind::PermissionDenied));
    }
}
