//! The socket daemon: newline-delimited JSON over Unix (and optional
//! TCP) sockets, wrapped around a [`ServeEngine`].
//!
//! Thread structure:
//!
//! - **Acceptors** — the calling thread accepts on the Unix socket; an
//!   optional second thread accepts on TCP. Each connection gets a
//!   handler thread.
//! - **Handlers** — read one request line, submit it to the engine,
//!   write one response line; strictly request–response per connection
//!   (concurrency comes from multiple connections). Enqueued
//!   submissions block on a per-ticket channel until dispatched.
//! - **Dispatcher** — one thread draining [`ServeEngine::dispatch`]
//!   whenever nudged (a submission or shutdown), delivering each
//!   `(ticket, response)` through the ticket board.
//!
//! Shutdown (`{"op":"shutdown"}`) immediately stops admitting schedule
//! requests; once the acknowledgement is flushed to the requesting
//! client, the daemon lets the dispatcher drain in-flight work and
//! unblocks its own acceptors by dummy-connecting to them. [`Daemon::run`] returns the final stats snapshot. Handler
//! threads are detached — they die with the process (or linger idle on
//! open connections after an in-process `run` returns), never blocking
//! shutdown on a slow client.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::time::Duration;

use cim_bench::runner::{FaultHook, FaultSite, FnvWriter, ResultStore};
use cim_tune::{Clock, SystemClock};
use parking_lot::Mutex;

use crate::engine::{EngineOptions, ServeEngine, Submission, Ticket};
use crate::protocol::{ErrorCode, Op, Request, Response, ResponseBody, ServeError};
use crate::stats::StatsSnapshot;

/// Default per-connection read timeout: an idle or half-closed client
/// holds its handler thread at most this long.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Default request-frame bound. A line past this is answered with a
/// typed `line_too_long` error instead of buffering without limit.
pub const DEFAULT_MAX_LINE_BYTES: usize = 256 * 1024;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// Path of the Unix socket to listen on (stale files are replaced).
    pub socket: PathBuf,
    /// Optional TCP listen address (e.g. `127.0.0.1:0`).
    pub tcp: Option<String>,
    /// Engine knobs (lane-pool width, admission depth).
    pub engine: EngineOptions,
    /// Optional persistent store directory (`--cache-dir`).
    pub cache_dir: Option<PathBuf>,
    /// Per-connection read timeout; a connection idle past it is closed
    /// (`None` = wait forever, the pre-hardening behavior).
    pub read_timeout: Option<Duration>,
    /// Maximum accepted request-line length in bytes. Longer lines are
    /// discarded to the next newline and answered with `line_too_long`;
    /// the connection stays usable.
    pub max_line_bytes: usize,
    /// Deterministic chaos injection for the daemon's store I/O and
    /// connection handling (see `cim_bench::runner::fault`).
    pub faults: Option<Arc<dyn FaultHook>>,
}

impl DaemonOptions {
    /// Options for a Unix-only daemon at `socket` with engine defaults.
    pub fn at(socket: impl Into<PathBuf>) -> Self {
        DaemonOptions {
            socket: socket.into(),
            tcp: None,
            engine: EngineOptions::default(),
            cache_dir: None,
            read_timeout: Some(DEFAULT_READ_TIMEOUT),
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            faults: None,
        }
    }
}

/// Routes dispatched responses to the handler threads waiting on them.
///
/// Two-state by design: the dispatcher may finish a ticket *before* its
/// handler starts waiting (the submission raced the drain), so completed
/// responses without a waiter are stashed and claimed at wait time.
#[derive(Default)]
struct Board {
    waiting: BTreeMap<Ticket, SyncSender<Response>>,
    done: BTreeMap<Ticket, Response>,
}

#[derive(Default)]
struct TicketBoard(Mutex<Board>);

impl TicketBoard {
    /// Dispatcher side: hand `response` to the ticket's waiter, or stash
    /// it if no one is waiting yet.
    fn deliver(&self, ticket: Ticket, response: Response) {
        let waiter = {
            let mut board = self.0.lock();
            match board.waiting.remove(&ticket) {
                Some(tx) => Some(tx),
                None => {
                    board.done.insert(ticket, response.clone());
                    None
                }
            }
        };
        if let Some(tx) = waiter {
            // A vanished handler (dropped connection) is not an error.
            let _ = tx.send(response);
        }
    }

    /// Handler side: block until the ticket's response arrives. `None`
    /// only if the dispatcher exited without answering (shutdown race).
    fn wait(&self, ticket: Ticket) -> Option<Response> {
        let rx = {
            let mut board = self.0.lock();
            if let Some(done) = board.done.remove(&ticket) {
                return Some(done);
            }
            let (tx, rx) = std::sync::mpsc::sync_channel(1);
            board.waiting.insert(ticket, tx);
            rx
        };
        rx.recv().ok()
    }
}

/// Shared state of one running daemon.
struct Shared {
    engine: ServeEngine,
    board: TicketBoard,
    /// Wakes the dispatcher; any message is a nudge.
    nudge: Sender<()>,
    shutting_down: AtomicBool,
    /// Where the acceptors listen — the shutdown path dummy-connects
    /// here to unblock them.
    socket: PathBuf,
    tcp_addr: Option<SocketAddr>,
    read_timeout: Option<Duration>,
    max_line_bytes: usize,
    faults: Option<Arc<dyn FaultHook>>,
    /// Per-request-line delivery counter, keyed by the line's FNV hash —
    /// the `attempt` axis of connection-fault decisions, so a *resent*
    /// line gets a fresh draw (a drop-once fault plan lets the client's
    /// retry through).
    conn_attempts: Mutex<BTreeMap<u64, u32>>,
}

impl Shared {
    fn nudge(&self) {
        let _ = self.nudge.send(());
    }

    /// The attempt number of this exact line (0-based), counted across
    /// all connections of the daemon's lifetime.
    fn conn_attempt(&self, key: u64) -> u32 {
        let mut attempts = self.conn_attempts.lock();
        let counter = attempts.entry(key).or_insert(0);
        let attempt = *counter;
        *counter += 1;
        attempt
    }

    /// Unblocks both acceptors after the shutdown flag is up: `accept`
    /// returns, the loop re-checks the flag, and exits.
    fn unblock_acceptors(&self) {
        let _ = UnixStream::connect(&self.socket);
        if let Some(addr) = self.tcp_addr {
            let _ = TcpStream::connect(addr);
        }
    }
}

/// A bound, not-yet-running daemon: [`Daemon::bind`], then
/// [`Daemon::run`].
pub struct Daemon {
    unix: UnixListener,
    tcp: Option<TcpListener>,
    shared: Arc<Shared>,
    nudge_rx: Receiver<()>,
}

impl Daemon {
    /// Opens the store (if configured), binds the sockets, and builds
    /// the engine on the production [`SystemClock`].
    ///
    /// A pre-existing file at the socket path is treated as stale and
    /// replaced — the lane for "the previous daemon died without
    /// cleanup".
    ///
    /// # Errors
    ///
    /// Store-directory and socket-bind I/O errors.
    pub fn bind(options: DaemonOptions) -> io::Result<Self> {
        let store = match &options.cache_dir {
            Some(dir) => {
                let mut store = ResultStore::open(dir)?;
                if let Some(hook) = &options.faults {
                    store.set_fault_hook(Arc::clone(hook));
                }
                Some(store)
            }
            None => None,
        };
        if options.socket.exists() {
            std::fs::remove_file(&options.socket)?;
        }
        let unix = UnixListener::bind(&options.socket)?;
        let tcp = match &options.tcp {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        let tcp_addr = match &tcp {
            Some(listener) => Some(listener.local_addr()?),
            None => None,
        };
        let (nudge, nudge_rx) = std::sync::mpsc::channel();
        let engine = ServeEngine::new(
            options.engine,
            store,
            Arc::new(SystemClock::new()) as Arc<dyn Clock + Send + Sync>,
        );
        Ok(Daemon {
            unix,
            tcp,
            shared: Arc::new(Shared {
                engine,
                board: TicketBoard::default(),
                nudge,
                shutting_down: AtomicBool::new(false),
                socket: options.socket,
                tcp_addr,
                read_timeout: options.read_timeout,
                max_line_bytes: options.max_line_bytes,
                faults: options.faults,
                conn_attempts: Mutex::new(BTreeMap::new()),
            }),
            nudge_rx,
        })
    }

    /// The TCP address actually bound (useful after binding `:0`).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.shared.tcp_addr
    }

    /// Serves until a `shutdown` request arrives and in-flight work
    /// drains, then removes the socket file and returns the final
    /// statistics snapshot.
    ///
    /// # Errors
    ///
    /// Unix-socket accept errors.
    pub fn run(self) -> io::Result<StatsSnapshot> {
        let Daemon {
            unix,
            tcp,
            shared,
            nudge_rx,
        } = self;

        // Dispatcher: drains the engine on every nudge and posts the
        // responses. Exits once shutdown is flagged and the engine is
        // quiescent (the shutdown path nudges after flagging, so the
        // final drain is guaranteed to run).
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                while nudge_rx.recv().is_ok() {
                    for (ticket, response) in shared.engine.dispatch() {
                        shared.board.deliver(ticket, response);
                    }
                    if shared.shutting_down.load(Ordering::SeqCst) && shared.engine.is_idle() {
                        break;
                    }
                }
                // Nudge channel closed or shutdown: one last drain so no
                // admitted ticket is left unanswered.
                for (ticket, response) in shared.engine.dispatch() {
                    shared.board.deliver(ticket, response);
                }
            })
        };

        // Optional TCP acceptor.
        if let Some(listener) = tcp {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.shutting_down.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || {
                        let _ = serve_tcp_connection(&shared, stream);
                    });
                }
            });
        }

        // Unix acceptor on the calling thread.
        for stream in unix.incoming() {
            if shared.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream?;
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let _ = serve_unix_connection(&shared, stream);
            });
        }

        // Let the dispatcher finish draining before reporting.
        shared.nudge();
        let _ = dispatcher.join();
        let stats = shared.engine.stats();
        let _ = std::fs::remove_file(&shared.socket);
        Ok(stats)
    }
}

fn serve_unix_connection(shared: &Shared, stream: UnixStream) -> io::Result<()> {
    stream.set_read_timeout(shared.read_timeout)?;
    let writer = stream.try_clone()?;
    serve_connection(shared, BufReader::new(stream), writer)
}

fn serve_tcp_connection(shared: &Shared, stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(shared.read_timeout)?;
    let writer = stream.try_clone()?;
    serve_connection(shared, BufReader::new(stream), writer)
}

/// FNV-1a of a request line — the `key` axis of connection-fault
/// decisions (the same line always hashes to the same key, so a fault
/// schedule over a request stream is reproducible).
fn line_key(line: &str) -> u64 {
    let mut h = FnvWriter::new();
    h.write_bytes(line.as_bytes());
    h.finish()
}

/// One framed request line, read with an explicit bound.
enum Frame {
    /// Client closed the connection.
    Eof,
    /// A complete line within the bound (newline stripped).
    Line(String),
    /// The line exceeded the bound; input was discarded to the next
    /// newline (or EOF), so the stream is positioned at a frame boundary.
    TooLong,
}

/// Reads one newline-terminated frame, refusing to buffer more than
/// `max` bytes — the unbounded `read_line` this replaces let any client
/// grow the daemon's memory without limit.
fn read_frame<R: BufRead>(reader: &mut R, max: usize) -> io::Result<Frame> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(if buf.is_empty() {
                Frame::Eof
            } else {
                // Final unterminated line: accept it, mirroring read_line.
                Frame::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
        if let Some(pos) = available.iter().position(|&b| b == b'\n') {
            if buf.len() + pos > max {
                reader.consume(pos + 1);
                return Ok(Frame::TooLong);
            }
            buf.extend_from_slice(&available[..pos]);
            reader.consume(pos + 1);
            return Ok(Frame::Line(String::from_utf8_lossy(&buf).into_owned()));
        }
        let len = available.len();
        if buf.len() + len > max {
            reader.consume(len);
            drain_to_newline(reader)?;
            return Ok(Frame::TooLong);
        }
        buf.extend_from_slice(available);
        reader.consume(len);
    }
}

/// Discards input until (and including) the next newline, or EOF —
/// re-synchronizes the stream after an oversized frame without ever
/// holding more than the reader's internal buffer.
fn drain_to_newline<R: BufRead>(reader: &mut R) -> io::Result<()> {
    loop {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(());
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                reader.consume(pos + 1);
                return Ok(());
            }
            None => {
                let len = available.len();
                reader.consume(len);
            }
        }
    }
}

/// The per-connection request–response loop, shared by both transports.
fn serve_connection<R: BufRead, W: Write>(
    shared: &Shared,
    mut reader: R,
    mut writer: W,
) -> io::Result<()> {
    loop {
        let line = match read_frame(&mut reader, shared.max_line_bytes) {
            Ok(Frame::Eof) => return Ok(()), // EOF: client closed.
            Ok(Frame::Line(line)) => line,
            Ok(Frame::TooLong) => {
                let response = Response::error(
                    "",
                    ServeError::new(
                        ErrorCode::LineTooLong,
                        format!(
                            "request line exceeds the {}-byte frame bound",
                            shared.max_line_bytes
                        ),
                    ),
                );
                write_response(&mut writer, &response)?;
                continue;
            }
            // A read timeout (an idle or half-closed client) releases the
            // handler thread instead of pinning it forever.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        if line.trim().is_empty() {
            continue;
        }

        // Deterministic connection chaos: a fault plan may drop the
        // connection before this line is answered (the client sees an
        // abrupt close and must reconnect + resend) or stall the reply
        // (a slow server from the client's point of view).
        if let Some(faults) = &shared.faults {
            let key = line_key(line.trim());
            let attempt = shared.conn_attempt(key);
            if faults.decide(FaultSite::ConnDrop, key, attempt) {
                return Ok(());
            }
            if faults.decide(FaultSite::ConnDelay, key, attempt) {
                std::thread::sleep(faults.delay());
            }
        }

        let response = match serde_json::from_str::<Request>(line.trim()) {
            Err(err) => Response::error(
                "",
                ServeError::new(ErrorCode::BadRequest, format!("unparseable request: {err}")),
            ),
            Ok(request) => handle_request(shared, &request),
        };
        write_response(&mut writer, &response)?;
        if matches!(response.body, ResponseBody::Shutdown) {
            // Tear down only *after* the ack is flushed: unblocking the
            // acceptor first would let `run` (and in the daemon binary,
            // the process) win the race against this handler thread and
            // close the connection before the ack reaches the client.
            shared.nudge();
            shared.unblock_acceptors();
            return Ok(());
        }
    }
}

/// Serializes and flushes one response line.
fn write_response<W: Write>(writer: &mut W, response: &Response) -> io::Result<()> {
    // Responses are plain string/number trees; serialization cannot
    // fail on them.
    let mut payload = serde_json::to_string(response)
        .expect("responses serialize"); // cim-lint: allow(panic-unwrap) protocol responses are plain serializable data
    payload.push('\n');
    writer.write_all(payload.as_bytes())?;
    writer.flush()
}

fn handle_request(shared: &Shared, request: &Request) -> Response {
    if request.op == Op::Shutdown {
        // Flip the flag here so no later schedule request is admitted;
        // the connection loop wakes the dispatcher and unblocks the
        // acceptors once the acknowledgement is on the wire.
        shared.shutting_down.store(true, Ordering::SeqCst);
        return Response {
            id: request.id.clone(),
            body: ResponseBody::Shutdown,
        };
    }
    if request.op == Op::Schedule && shared.shutting_down.load(Ordering::SeqCst) {
        return Response::error(
            &request.id,
            ServeError::new(ErrorCode::Overloaded, "daemon is shutting down"),
        );
    }
    match shared.engine.submit(request) {
        Submission::Immediate(response) => response,
        Submission::Enqueued(ticket) => {
            shared.nudge();
            shared.board.wait(ticket).unwrap_or_else(|| {
                Response::error(
                    &request.id,
                    ServeError::new(ErrorCode::Overloaded, "dispatcher exited before completion"),
                )
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_bench::runner::FaultPlan;
    use cim_tune::ManualClock;
    use std::io::Cursor;

    /// A dispatcherless `Shared` — enough for the connection loop's
    /// immediate ops (ping, stats, typed rejections).
    fn test_shared(max_line_bytes: usize, faults: Option<Arc<dyn FaultHook>>) -> Shared {
        let (nudge, _rx) = std::sync::mpsc::channel();
        Shared {
            engine: ServeEngine::new(
                EngineOptions::default(),
                None,
                Arc::new(ManualClock::new()) as Arc<dyn Clock + Send + Sync>,
            ),
            board: TicketBoard::default(),
            nudge,
            shutting_down: AtomicBool::new(false),
            socket: PathBuf::from("/nonexistent"),
            tcp_addr: None,
            read_timeout: None,
            max_line_bytes,
            faults,
            conn_attempts: Mutex::new(BTreeMap::new()),
        }
    }

    fn response_lines(out: &[u8]) -> Vec<Response> {
        String::from_utf8_lossy(out)
            .lines()
            .map(|l| serde_json::from_str(l).expect("response parses"))
            .collect()
    }

    #[test]
    fn read_frame_respects_the_bound_and_resynchronizes() {
        let mut input = Cursor::new(b"short\nAAAAAAAAAAAAAAAAAAAAAAAA\nnext\n".to_vec());
        let mut reader = BufReader::new(&mut input);
        match read_frame(&mut reader, 10).unwrap() {
            Frame::Line(l) => assert_eq!(l, "short"),
            _ => panic!("first frame is a line"),
        }
        assert!(matches!(read_frame(&mut reader, 10).unwrap(), Frame::TooLong));
        match read_frame(&mut reader, 10).unwrap() {
            Frame::Line(l) => assert_eq!(l, "next"),
            _ => panic!("stream re-synchronized at the next frame"),
        }
        assert!(matches!(read_frame(&mut reader, 10).unwrap(), Frame::Eof));
    }

    #[test]
    fn oversized_line_gets_a_typed_error_and_the_connection_survives() {
        let shared = test_shared(64, None);
        let mut input = Vec::new();
        input.extend_from_slice(&vec![b'x'; 4096]);
        input.extend_from_slice(b"\n{\"id\":\"p\",\"op\":\"ping\"}\n");
        let mut out = Vec::new();
        serve_connection(&shared, BufReader::new(Cursor::new(input)), &mut out).unwrap();
        let responses = response_lines(&out);
        assert_eq!(responses.len(), 2, "both frames answered");
        assert_eq!(
            responses[0].as_error().expect("typed error").code,
            ErrorCode::LineTooLong
        );
        assert!(matches!(responses[1].body, ResponseBody::Pong));
    }

    #[test]
    fn a_line_of_exactly_the_bound_is_parsed_and_one_byte_more_is_not() {
        let line = |model_len: usize| {
            format!(
                "{{\"id\":\"edge\",\"model\":\"{}\",\"strategy\":\"xinf\"}}",
                "m".repeat(model_len)
            )
        };
        let pad = DEFAULT_MAX_LINE_BYTES - line(0).len();
        let at_bound = line(pad);
        assert_eq!(at_bound.len(), DEFAULT_MAX_LINE_BYTES);
        let input = format!(
            "{at_bound}\n{}\n{{\"id\":\"p\",\"op\":\"ping\"}}\n",
            line(pad + 1)
        );
        let shared = test_shared(DEFAULT_MAX_LINE_BYTES, None);
        let mut out = Vec::new();
        serve_connection(&shared, BufReader::new(Cursor::new(input)), &mut out).unwrap();
        let responses = response_lines(&out);
        assert_eq!(responses.len(), 3, "every frame answered");
        let code = |r: &Response| r.as_error().expect("typed error").code;
        assert_eq!(responses[0].id, "edge");
        assert_eq!(code(&responses[0]), ErrorCode::UnknownModel);
        assert_eq!(code(&responses[1]), ErrorCode::LineTooLong);
        assert!(matches!(responses[2].body, ResponseBody::Pong));
    }

    #[test]
    fn injected_connection_drop_closes_before_answering() {
        let plan = Arc::new(FaultPlan::new(11).with_rate(FaultSite::ConnDrop, 1000));
        let shared = test_shared(DEFAULT_MAX_LINE_BYTES, Some(plan.clone()));
        let input = b"{\"id\":\"p\",\"op\":\"ping\"}\n".to_vec();
        let mut out = Vec::new();
        serve_connection(&shared, BufReader::new(Cursor::new(input)), &mut out).unwrap();
        assert!(out.is_empty(), "connection dropped before the reply");
        assert_eq!(plan.fired(FaultSite::ConnDrop), 1);
    }

    #[test]
    fn resent_line_is_a_fresh_fault_attempt() {
        let line = "{\"id\":\"p\",\"op\":\"ping\"}";
        let key = line_key(line);
        // Seed search via the side-effect-free probe: some seed under
        // 1000 drops attempt 0 of this exact line but not attempt 1.
        let seed = (0..1000)
            .find(|&s| {
                let p = FaultPlan::new(s).with_rate(FaultSite::ConnDrop, 500);
                p.would_fire(FaultSite::ConnDrop, key, 0)
                    && !p.would_fire(FaultSite::ConnDrop, key, 1)
            })
            .expect("a drop-once seed exists");
        let plan = Arc::new(FaultPlan::new(seed).with_rate(FaultSite::ConnDrop, 500));
        let shared = test_shared(DEFAULT_MAX_LINE_BYTES, Some(plan));

        // First delivery: dropped without a reply.
        let mut out = Vec::new();
        serve_connection(
            &shared,
            BufReader::new(Cursor::new(format!("{line}\n").into_bytes())),
            &mut out,
        )
        .unwrap();
        assert!(out.is_empty());

        // The client reconnects and resends the identical line: the
        // attempt counter advanced, so this delivery goes through.
        let mut out = Vec::new();
        serve_connection(
            &shared,
            BufReader::new(Cursor::new(format!("{line}\n").into_bytes())),
            &mut out,
        )
        .unwrap();
        let responses = response_lines(&out);
        assert_eq!(responses.len(), 1);
        assert!(matches!(responses[0].body, ResponseBody::Pong));
    }
}
