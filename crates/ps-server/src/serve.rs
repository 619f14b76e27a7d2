//! The threaded serving layer: one writer thread owning the
//! [`ServerCore`], reader threads per connection, a bounded request queue
//! in between.
//!
//! ## Threading model
//!
//! * The **writer thread** runs [`ServerCore::resolve`] on every queued
//!   request in arrival order — the only thread that ever touches the
//!   mutable [`ps_session::Session`].
//! * Each **connection handler** (the calling thread for stdio, one
//!   spawned thread per TCP connection) parses frames, enqueues jobs, and
//!   finishes [`ServerCore::compute`] work itself — so concurrent queries
//!   overlap even though mutations serialize, and a query batch
//!   additionally fans out over the handler's
//!   [`ps_session::ParallelExecutor`].
//! * The queue is a bounded [`std::sync::mpsc::sync_channel`]: a full
//!   queue answers a typed `overloaded` error immediately (backpressure,
//!   never a hang), a disconnected one answers `shutting_down`.
//!
//! ## Shutdown contract
//!
//! A `shutdown` request makes the writer stop accepting *new* jobs, drain
//! every job already queued (each still gets its real answer), and exit;
//! jobs enqueued during the drain race get a typed `shutting_down` error.
//! [`serve_tcp`] then unblocks the acceptor, closes the read half of every
//! live connection, joins every handler and returns `Ok(())` — so a clean
//! shutdown is observable as exit code 0.  While serving, each accept first
//! reaps the handlers of departed clients, so their sockets close and the
//! tracked connection set stays bounded.  On stdio, end of input is an
//! implicit clean shutdown.
//!
//! This file is the one place in the workspace allowed to spawn raw
//! (non-scoped) threads: the writer, acceptor and handler lifetimes span
//! the whole serve call, which `std::thread::scope` cannot express across
//! the acceptor's dynamic spawns.  The allowance is pinned by name in
//! `ps-lint`'s `IO_THREAD_ALLOWLIST`; `thread::sleep` stays banned here
//! like everywhere else.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use ps_session::{Counters, ParallelExecutor};

use crate::proto::{ErrorKind, Op, Payload, Request, Response, StatsReport, WireError};
use crate::state::{ServerCore, Step};

/// Serving knobs; the `psserve` CLI maps `--threads` / `--queue` here.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads each query batch fans out over.
    pub threads: usize,
    /// Capacity of the bounded writer queue (backpressure bound).
    pub queue: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 4,
            queue: 64,
        }
    }
}

/// One queued unit of writer work: the request plus the reply slot its
/// handler blocks on.  Dropping an unprocessed job drops the reply sender,
/// which the waiting handler observes as `shutting_down` — never a hang.
struct Job {
    request: Request,
    reply: SyncSender<Step>,
}

/// Shared request-accounting state behind the `stats` op.
struct StatsInner {
    started: Instant,
    requests_total: u64,
    responses_ok: u64,
    responses_err: u64,
    per_op: BTreeMap<String, u64>,
    totals: Counters,
}

impl StatsInner {
    fn new() -> Self {
        StatsInner {
            started: Instant::now(),
            requests_total: 0,
            responses_ok: 0,
            responses_err: 0,
            per_op: BTreeMap::new(),
            totals: Counters::default(),
        }
    }

    fn record_request(&mut self, op: &str) {
        self.requests_total += 1;
        *self.per_op.entry(op.to_owned()).or_insert(0) += 1;
    }

    fn record_response(&mut self, response: &Response) {
        match &response.result {
            Ok((_, counters)) => {
                self.responses_ok += 1;
                self.totals += *counters;
            }
            Err(_) => self.responses_err += 1,
        }
    }

    fn report(&self) -> StatsReport {
        StatsReport {
            uptime_ns: u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            requests_total: self.requests_total,
            responses_ok: self.responses_ok,
            responses_err: self.responses_err,
            per_op: self.per_op.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            totals: self.totals,
        }
    }
}

type SharedStats = Arc<Mutex<StatsInner>>;

fn lock_stats(stats: &SharedStats) -> std::sync::MutexGuard<'_, StatsInner> {
    stats.lock().expect("stats mutex poisoned")
}

/// The writer loop: resolves queued jobs in order until a `shutdown`
/// request arrives (or every sender hangs up), then drains the queue so
/// in-flight work still gets real answers.
fn writer_loop(mut core: ServerCore, jobs: Receiver<Job>) {
    while let Ok(job) = jobs.recv() {
        let stop = matches!(job.request.op, Op::Shutdown);
        let step = core.resolve(&job.request);
        let _ = job.reply.send(step);
        if stop {
            break;
        }
    }
    // Drain: everything already queued is resolved and answered.  After
    // this loop the receiver drops, so late senders observe disconnection
    // and answer `shutting_down` themselves.
    while let Ok(job) = jobs.try_recv() {
        let step = core.resolve(&job.request);
        let _ = job.reply.send(step);
    }
}

/// The longest frame a connection accepts, in bytes, its newline not
/// counted.  Far above anything a client of this protocol sends (a
/// `consistent` request over a few thousand tuples is a few hundred
/// kilobytes); it bounds the memory one connection's read buffer can take.
const MAX_FRAME_BYTES: usize = 4 << 20;

/// What [`read_frame`] found.
enum Frame {
    /// End of input.
    Eof,
    /// One frame, without its line ending, is in the buffer.
    Line,
    /// The frame ran past [`MAX_FRAME_BYTES`]; input up to and including
    /// the next newline has been discarded.
    TooLarge,
}

/// Reads the next newline-terminated frame into `buf` (cleared first),
/// never buffering more than [`MAX_FRAME_BYTES`] + 1 bytes of it.  A final
/// frame without a newline still counts; a trailing `\r` is dropped.
fn read_frame<R: BufRead>(reader: &mut R, buf: &mut Vec<u8>) -> io::Result<Frame> {
    buf.clear();
    let read = reader
        .by_ref()
        .take(MAX_FRAME_BYTES as u64 + 1)
        .read_until(b'\n', buf)?;
    if read == 0 {
        return Ok(Frame::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() > MAX_FRAME_BYTES {
        buf.clear();
        reader.skip_until(b'\n')?;
        return Ok(Frame::TooLarge);
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    Ok(Frame::Line)
}

/// Serves one connection: reads newline-delimited frames from `reader`,
/// writes one response line per frame to `writer`.  Returns `true` when
/// the connection requested (and was acknowledged) a server shutdown.  A
/// frame longer than [`MAX_FRAME_BYTES`] answers `frame_too_large` and one
/// that is not UTF-8 answers `parse`; the connection stays up either way.
fn serve_connection<R: BufRead, W: Write>(
    mut reader: R,
    mut writer: W,
    jobs: &SyncSender<Job>,
    stats: &SharedStats,
    executor: ParallelExecutor,
) -> io::Result<bool> {
    let mut frame = Vec::new();
    loop {
        let response = match read_frame(&mut reader, &mut frame)? {
            Frame::Eof => return Ok(false),
            Frame::TooLarge => malformed(
                stats,
                WireError::new(
                    ErrorKind::FrameTooLarge,
                    format!(
                        "frame exceeds {MAX_FRAME_BYTES} bytes; \
                         input up to the next newline was discarded"
                    ),
                ),
            ),
            Frame::Line => match std::str::from_utf8(&frame) {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => answer_frame(line, jobs, stats, executor),
                Err(e) => {
                    let start = e.valid_up_to() as u64;
                    let end = start + e.error_len().unwrap_or(1) as u64;
                    let mut error = WireError::new(ErrorKind::Parse, "frame is not valid UTF-8");
                    error.span = Some((start, end));
                    malformed(stats, error)
                }
            },
        };
        let shutdown = response.is_shutdown_ack();
        writer.write_all(response.to_line().as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if shutdown {
            return Ok(true);
        }
    }
}

/// Answers a frame that never became a request, tallying it under
/// `"(malformed)"`; the connection stays up.
fn malformed(stats: &SharedStats, error: WireError) -> Response {
    let mut guard = lock_stats(stats);
    guard.record_request("(malformed)");
    let response = Response::err(None, "", error);
    guard.record_response(&response);
    response
}

/// Produces the response for one raw frame: parse, tally, route.
fn answer_frame(
    line: &str,
    jobs: &SyncSender<Job>,
    stats: &SharedStats,
    executor: ParallelExecutor,
) -> Response {
    let request = match Request::parse_line(line) {
        Ok(request) => request,
        // A malformed frame is answered in place (with its span) and the
        // connection stays up.
        Err(error) => return malformed(stats, error),
    };
    lock_stats(stats).record_request(request.op.name());
    let response = match &request.op {
        // `stats` never queues: the serving layer owns the tallies, and an
        // overloaded server must still answer it (that is when operators
        // ask).
        Op::Stats => {
            let report = lock_stats(stats).report();
            Response::ok(
                request.id,
                "stats",
                Payload::Stats(report),
                Counters::default(),
            )
        }
        _ => route_to_writer(request, jobs, executor),
    };
    lock_stats(stats).record_response(&response);
    response
}

/// Enqueues a request for the writer and finishes the resulting step,
/// mapping queue conditions to the typed backpressure errors.
fn route_to_writer(
    request: Request,
    jobs: &SyncSender<Job>,
    executor: ParallelExecutor,
) -> Response {
    let id = request.id;
    let op = request.op.name();
    let (reply_tx, reply_rx) = mpsc::sync_channel::<Step>(1);
    let job = Job {
        request,
        reply: reply_tx,
    };
    match jobs.try_send(job) {
        Ok(()) => {}
        Err(TrySendError::Full(_)) => {
            return Response::err(
                id,
                op,
                WireError::new(
                    ErrorKind::Overloaded,
                    "request queue is full; retry after in-flight work drains",
                ),
            );
        }
        Err(TrySendError::Disconnected(_)) => {
            return Response::err(
                id,
                op,
                WireError::new(ErrorKind::ShuttingDown, "server is shutting down"),
            );
        }
    }
    match reply_rx.recv() {
        Ok(step) => step.finish(executor),
        // The writer drained and dropped the job before resolving it.
        Err(_) => Response::err(
            id,
            op,
            WireError::new(ErrorKind::ShuttingDown, "server is shutting down"),
        ),
    }
}

/// Serves newline-delimited JSON over stdin/stdout until end of input or a
/// `shutdown` request, then drains and returns.
pub fn serve_stdio(config: ServeConfig) -> io::Result<()> {
    let core = ServerCore::new(config.threads);
    let executor = core.executor();
    let (jobs_tx, jobs_rx) = mpsc::sync_channel::<Job>(config.queue);
    let stats: SharedStats = Arc::new(Mutex::new(StatsInner::new()));
    let writer = std::thread::spawn(move || writer_loop(core, jobs_rx));

    let stdin = io::stdin().lock();
    let stdout = io::stdout().lock();
    let result = serve_connection(BufReader::new(stdin), stdout, &jobs_tx, &stats, executor);

    // End of input (or shutdown ack): release the queue so the writer's
    // recv unblocks, then let it finish draining.
    drop(jobs_tx);
    writer.join().expect("writer thread panicked");
    result.map(|_| ())
}

/// The handler of one TCP connection; returns `true` when it acknowledged
/// a server shutdown.
type Handler = JoinHandle<io::Result<bool>>;

/// The connections one [`serve_tcp`] call is tracking: for each, the read
/// half shutdown closes and the handler thread it joins.  A handler that
/// returns reports its serial number on `exited`, and the next
/// [`Connections::admit`] reaps it — joins the thread and drops the read
/// half — so a departed client's socket closes and the set stays bounded by
/// the clients still connected (plus those that left since the last
/// accept).
struct Connections {
    live: Vec<(u64, TcpStream, Handler)>,
    next_serial: u64,
    exited_tx: mpsc::Sender<u64>,
    exited: Receiver<u64>,
}

impl Connections {
    fn new() -> Self {
        let (exited_tx, exited) = mpsc::channel();
        Connections {
            live: Vec::new(),
            next_serial: 0,
            exited_tx,
            exited,
        }
    }

    /// Reaps every handler that has exited, then spawns `handler` on
    /// `stream` and tracks the connection.  A stream whose read half cannot
    /// be cloned is dropped unserved.
    fn admit<F>(&mut self, stream: TcpStream, handler: F)
    where
        F: FnOnce(TcpStream) -> io::Result<bool> + Send + 'static,
    {
        self.reap();
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let serial = self.next_serial;
        self.next_serial += 1;
        let exited = self.exited_tx.clone();
        let handle = std::thread::spawn(move || {
            let result = handler(stream);
            let _ = exited.send(serial);
            result
        });
        self.live.push((serial, read_half, handle));
    }

    /// Joins every handler that has reported its exit, closing its socket.
    fn reap(&mut self) {
        while let Ok(serial) = self.exited.try_recv() {
            if let Some(at) = self.live.iter().position(|(s, _, _)| *s == serial) {
                let (_, _, handle) = self.live.swap_remove(at);
                let _ = handle.join().expect("connection handler panicked");
            }
        }
    }

    /// Closes the read half of every live connection, so handler loops see
    /// EOF (their queued sends already resolved as `shutting_down`), then
    /// joins every handler.
    fn close_all(self) {
        for (_, read_half, _) in &self.live {
            let _ = read_half.shutdown(Shutdown::Read);
        }
        for (_, _, handle) in self.live {
            let _ = handle.join().expect("connection handler panicked");
        }
    }
}

/// Serves newline-delimited JSON over TCP: one handler thread per
/// connection, all sharing the single writer.  Returns `Ok(())` after a
/// `shutdown` request has been acknowledged, the queue drained, and every
/// handler joined.
pub fn serve_tcp(listener: TcpListener, config: ServeConfig) -> io::Result<()> {
    let local_addr = listener.local_addr()?;
    let core = ServerCore::new(config.threads);
    let executor = core.executor();
    let (jobs_tx, jobs_rx) = mpsc::sync_channel::<Job>(config.queue);
    let stats: SharedStats = Arc::new(Mutex::new(StatsInner::new()));
    let writer = std::thread::spawn(move || writer_loop(core, jobs_rx));

    let accepting = Arc::new(AtomicBool::new(true));
    let acceptor = {
        let accepting = Arc::clone(&accepting);
        let jobs_tx = jobs_tx.clone();
        let stats = Arc::clone(&stats);
        std::thread::spawn(move || {
            let mut connections = Connections::new();
            for incoming in listener.incoming() {
                if !accepting.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = incoming else { continue };
                // Frames are small and strictly request/reply; leaving
                // Nagle on would serialize every exchange behind a
                // delayed-ACK round trip.
                let _ = stream.set_nodelay(true);
                let jobs_tx = jobs_tx.clone();
                let stats = Arc::clone(&stats);
                connections.admit(stream, move |stream| {
                    let reader = BufReader::new(stream.try_clone()?);
                    serve_connection(reader, stream, &jobs_tx, &stats, executor)
                });
            }
            connections
        })
    };

    // The writer exits only after a `shutdown` request (this thread keeps a
    // live sender, so EOF on every connection alone never disconnects it).
    writer.join().expect("writer thread panicked");

    // Unblock the acceptor: flip the flag, then poke the listener with a
    // throwaway connection so its blocking accept returns.
    accepting.store(false, Ordering::Release);
    let _ = TcpStream::connect(local_addr);
    let connections = acceptor.join().expect("acceptor thread panicked");
    connections.close_all();
    drop(jobs_tx);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::time::Duration;

    /// Connection churn: each client leaves before the next one arrives,
    /// and that next accept reaps the departed handler.  The tracked set
    /// never holds more than the newest connection, and every departed
    /// client sees its socket closed (a read returns EOF).
    #[test]
    fn departed_connections_are_reaped_on_the_next_accept() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("local address");
        let mut connections = Connections::new();
        let admit_next = |connections: &mut Connections| {
            let client = TcpStream::connect(addr).expect("connect");
            // A regression shows up as a timed-out read, not a hang.
            client
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("read timeout");
            let (stream, _) = listener.accept().expect("accept");
            connections.admit(stream, |stream| {
                let mut sink = Vec::new();
                (&stream).read_to_end(&mut sink)?;
                Ok(false)
            });
            client
        };
        let mut departed = Vec::new();
        for _ in 0..8 {
            let client = admit_next(&mut connections);
            assert_eq!(connections.live.len(), 1, "departed handlers were reaped");
            client.shutdown(Shutdown::Write).expect("half-close");
            // Force the order: wait for the handler's exit notice, then
            // hand it back for the next accept to reap.
            let serial = connections.exited.recv().expect("handler exit notice");
            connections
                .exited_tx
                .send(serial)
                .expect("requeue the notice");
            departed.push(client);
        }
        let last = admit_next(&mut connections);
        assert_eq!(connections.live.len(), 1);
        for mut client in departed {
            let mut buf = [0u8; 1];
            assert_eq!(client.read(&mut buf).expect("server closed the socket"), 0);
        }
        // Shutdown still closes and joins whoever is connected.
        connections.close_all();
        drop(last);
    }

    /// Drives `serve_connection` over in-memory buffers — the stdio path
    /// without a process boundary.
    fn run_script(script: impl AsRef<[u8]>, config: ServeConfig) -> Vec<Response> {
        let core = ServerCore::new(config.threads);
        let executor = core.executor();
        let (jobs_tx, jobs_rx) = mpsc::sync_channel::<Job>(config.queue);
        let stats: SharedStats = Arc::new(Mutex::new(StatsInner::new()));
        let writer = std::thread::spawn(move || writer_loop(core, jobs_rx));
        let mut out: Vec<u8> = Vec::new();
        serve_connection(script.as_ref(), &mut out, &jobs_tx, &stats, executor)
            .expect("in-memory serve failed");
        drop(jobs_tx);
        writer.join().expect("writer panicked");
        String::from_utf8(out)
            .expect("responses are UTF-8")
            .lines()
            .map(|l| Response::parse_line(l).expect("well-formed response"))
            .collect()
    }

    #[test]
    fn a_malformed_frame_answers_with_a_span_and_keeps_the_connection() {
        let script = "\
{\"id\":1,\"op\":\"register\",\"set\":\"s\",\"pds\":[\"A = A*B\"]}\n\
this is not json\n\
{\"id\":2,\"op\":\"implies\",\"set\":\"s\",\"goal\":\"A*B = A\"}\n";
        let responses = run_script(script, ServeConfig::default());
        assert_eq!(responses.len(), 3);
        assert!(responses[0].result.is_ok());
        let Err(e) = &responses[1].result else {
            panic!("malformed frame must error");
        };
        assert_eq!(e.kind, ErrorKind::Parse);
        assert!(e.span.is_some());
        // The connection survived: the third request got its real answer.
        assert!(
            matches!(
                &responses[2].result,
                Ok((Payload::Implies { implied: true }, _))
            ),
            "{:?}",
            responses[2]
        );
    }

    #[test]
    fn an_over_long_frame_answers_frame_too_large_and_keeps_the_connection() {
        // A frame at the cap (a `stats` request padded with blanks) is
        // served; one a byte over is refused and skipped to its newline;
        // the frame after it gets its real answer.
        let stats = "{\"id\":1,\"op\":\"stats\"}";
        let mut script = stats.to_owned();
        script.push_str(&" ".repeat(MAX_FRAME_BYTES - stats.len()));
        script.push('\n');
        script.push_str(&"x".repeat(MAX_FRAME_BYTES + 1));
        script.push_str("\n{\"id\":2,\"op\":\"stats\"}\n");
        let responses = run_script(&script, ServeConfig::default());
        assert_eq!(responses.len(), 3);
        assert!(matches!(&responses[0].result, Ok((Payload::Stats(_), _))));
        let Err(e) = &responses[1].result else {
            panic!("an over-long frame must error");
        };
        assert_eq!(e.kind, ErrorKind::FrameTooLarge);
        assert_eq!(responses[1].id, None);
        let Ok((Payload::Stats(report), _)) = &responses[2].result else {
            panic!("expected a stats payload, got {:?}", responses[2]);
        };
        assert_eq!(responses[2].id, Some(2));
        assert_eq!(report.requests_total, 3);
        assert_eq!(report.responses_err, 1);
        assert_eq!(report.per_op[0], ("(malformed)".to_owned(), 1));
    }

    #[test]
    fn a_frame_that_is_not_utf8_answers_parse_and_keeps_the_connection() {
        let script = b"{\"op\":\"st\xffats\"}\n{\"id\":3,\"op\":\"stats\"}\n";
        let responses = run_script(script, ServeConfig::default());
        assert_eq!(responses.len(), 2);
        let Err(e) = &responses[0].result else {
            panic!("a non-UTF-8 frame must error");
        };
        assert_eq!(e.kind, ErrorKind::Parse);
        assert_eq!(e.span, Some((9, 10)));
        assert!(matches!(&responses[1].result, Ok((Payload::Stats(_), _))));
    }

    #[test]
    fn stats_counts_requests_and_accumulates_counters() {
        let script = "\
{\"op\":\"register\",\"set\":\"s\",\"pds\":[\"A = A*B\"]}\n\
{\"op\":\"implies\",\"set\":\"s\",\"goal\":\"A*B = A\"}\n\
{\"op\":\"implies\",\"set\":\"s\",\"goal\":\"A*B = A\"}\n\
nonsense\n\
{\"op\":\"stats\"}\n";
        let responses = run_script(script, ServeConfig::default());
        let Ok((Payload::Stats(report), _)) = &responses[4].result else {
            panic!("expected a stats payload, got {:?}", responses[4]);
        };
        assert_eq!(report.requests_total, 5);
        assert_eq!(report.responses_ok, 3);
        assert_eq!(report.responses_err, 1);
        assert_eq!(
            report.per_op,
            vec![
                ("(malformed)".to_owned(), 1),
                ("implies".to_owned(), 2),
                ("register".to_owned(), 1),
                ("stats".to_owned(), 1),
            ]
        );
        // The first implies built the engine, the second reused it.
        assert_eq!(report.totals.engine_misses, 1);
        assert_eq!(report.totals.engine_hits, 1);
    }

    #[test]
    fn a_full_queue_answers_overloaded_without_blocking() {
        // A queue of capacity 1 that nothing ever drains: the first
        // enqueue occupies it, the second must bounce immediately.
        let (jobs_tx, jobs_rx) = mpsc::sync_channel::<Job>(1);
        let request = Request {
            id: Some(9),
            op: Op::Stats,
        };
        let (reply_tx, _reply_rx) = mpsc::sync_channel::<Step>(1);
        jobs_tx
            .try_send(Job {
                request: request.clone(),
                reply: reply_tx,
            })
            .expect("first enqueue fits");
        let response = route_to_writer(
            Request {
                id: Some(10),
                op: Op::Implies {
                    set: "s".into(),
                    goal: "A = A".into(),
                },
            },
            &jobs_tx,
            ParallelExecutor::new(1),
        );
        assert!(matches!(&response.result, Err(e) if e.kind == ErrorKind::Overloaded));
        // A disconnected queue answers `shutting_down` instead.
        drop(jobs_rx);
        let response = route_to_writer(
            Request {
                id: Some(11),
                op: Op::Stats,
            },
            &jobs_tx,
            ParallelExecutor::new(1),
        );
        assert!(matches!(&response.result, Err(e) if e.kind == ErrorKind::ShuttingDown));
    }

    #[test]
    fn shutdown_acknowledges_then_ends_the_connection() {
        let script = "\
{\"id\":1,\"op\":\"register\",\"set\":\"s\",\"pds\":[\"A = A*B\"]}\n\
{\"id\":2,\"op\":\"shutdown\"}\n\
{\"id\":3,\"op\":\"stats\"}\n";
        let responses = run_script(script, ServeConfig::default());
        // The frame after the shutdown ack is never read.
        assert_eq!(responses.len(), 2);
        assert!(responses[1].is_shutdown_ack());
    }
}
