//! `service_open_loop`: a live TCP-loopback [`serve_tcp`] server driven
//! open-loop by the scripts of `nproc` clients over disjoint vocabularies,
//! merged by due time onto one connection; the calling thread generates
//! the arrivals and one thread receives the answers.
//!
//! Arrivals follow a seeded exponential schedule at the fixed offered rate
//! [`OFFERED_RATE`]; every frame is timed from its *due* time, so a stall
//! also charges the frames queued behind it.  The mix: `implies` with
//! fresh and repeated goals, `implies_many`, `add_pd` / `remove_pd`
//! toggles, and `consistent` / `weak_instance` on small databases.  The
//! schedule is played in [`ROUNDS`] rounds on fresh servers, and a frame's
//! latency is its least over the rounds.  Every live response must be
//! byte-identical to a sequential [`ServerCore::handle`] replay of its
//! client's script.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use ps_server::proto::{DatabaseSpec, ErrorKind, Op, RelationSpec, Request, Response};
use ps_server::state::{ServerCore, Step};
use ps_server::{serve_tcp, ServeConfig};
use ps_session::{Counters, ParallelExecutor, Session};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{mean, median, nproc, quantile, ratio};
use crate::trace::Tracer;
use crate::{Config, Report, Scale};

/// Offered load, frames per second over all clients: about a fifth of the
/// ~2000 the seed commit sustains on a 2-core machine.  At half of it the
/// queue amplifies the host's speed swings, and the p99 spread across runs
/// reached 50–75 %.  Fixed, so every run and every commit sees the same
/// rate.
pub const OFFERED_RATE: f64 = 400.0;

/// A run whose generator sent its median frame later than this after its
/// due time fell behind the schedule: it measured the client, not the
/// server, and is invalid.  Single late sends from scheduling jitter show
/// in `generator.lag_ms` but do not invalidate a run.
pub const MAX_LAG_P50_MS: f64 = 1.0;

/// Server starts per run; `setup_s` is their median.  More than the other
/// workloads use, because one start takes only milliseconds.  The last
/// [`ROUNDS`] of them play the schedule.
const SETUP_REPEATS: usize = 15;

/// Rounds per run: each plays the same schedule, `--seconds / ROUNDS`
/// long, on a fresh server, and a frame's latency is the least of its
/// latencies in the rounds.  A host stall (the machines this was built on
/// lose their virtual CPUs to other tenants for milliseconds at a time)
/// hits a frame in one round, rarely in all; a slower program slows it in
/// every round.  Taken once, the p90 rose by half under a competing
/// CPU-bound process; the least of five rose by a tenth.
pub const ROUNDS: usize = 5;

/// Distinct symbols per database column and client.
const SYMBOL_POOL: usize = 32;

/// How long a client waits for any one answer before giving up.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

struct Sizes {
    attrs: usize,
    sums: usize,
    toggles: usize,
    db_rows: usize,
    /// Goals of the set-up's warm-up `implies_many`.
    warm_goals: usize,
    /// Frames per client at test size (the schedule is cut there).
    max_frames: Option<usize>,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            attrs: 24,
            sums: 6,
            toggles: 4,
            db_rows: 8,
            warm_goals: 128,
            max_frames: None,
        },
        Scale::Small => Sizes {
            attrs: 8,
            sums: 2,
            toggles: 2,
            db_rows: 4,
            warm_goals: 4,
            max_frames: Some(40),
        },
    }
}

/// A frame's kind in the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `implies` with a fresh goal.
    Fresh,
    /// `implies` repeating an earlier goal.
    Repeat,
    /// `implies_many` of three fresh goals.
    Many,
    /// `add_pd` or `remove_pd`, toggling one FPD.
    Toggle,
    /// `consistent` on a small database.
    Consistent,
    /// `weak_instance` on a small database.
    Weak,
}

/// One block of the mix: fresh `implies` 40 %, repeated `implies` 15 %,
/// `implies_many` 15 %, toggles 10 %, `consistent` 10 %, `weak_instance`
/// 10 %.
const BLOCK: [Kind; 20] = {
    use Kind::*;
    [
        Fresh, Fresh, Fresh, Fresh, Fresh, Fresh, Fresh, Fresh, Repeat, Repeat, Repeat, Many, Many,
        Many, Toggle, Toggle, Consistent, Consistent, Weak, Weak,
    ]
};

/// Shuffles `items` in place (Fisher–Yates).
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// One client's script: set-up frames sent closed-loop before the clock
/// starts, then timed frames with their due times.
pub struct Client {
    setup: Vec<String>,
    lines: Vec<String>,
    ops: Vec<&'static str>,
    /// Seconds after the start at which each timed frame is due.
    due: Vec<f64>,
}

/// A random term over `attrs` with at most `budget` leaves, as text.
fn term_text(rng: &mut StdRng, attrs: &[String], budget: usize) -> String {
    if budget <= 1 || rng.gen_bool(0.3) {
        return attrs[rng.gen_range(0..attrs.len())].clone();
    }
    let left_budget = rng.gen_range(1..budget);
    let left = term_text(rng, attrs, left_budget);
    let right = term_text(rng, attrs, budget - left_budget);
    let op = if rng.gen_bool(0.5) { '*' } else { '+' };
    format!("({left}{op}{right})")
}

fn equation_text(rng: &mut StdRng, attrs: &[String]) -> String {
    format!(
        "{} = {}",
        term_text(rng, attrs, 3),
        term_text(rng, attrs, 3)
    )
}

/// Generates every client's script and arrival schedule from `seed`.
pub fn clients(seed: u64, seconds: f64, scale: Scale) -> Vec<Client> {
    let s = sizes(scale);
    let n = nproc();
    let rate = OFFERED_RATE / n as f64;
    (0..n)
        .map(|c| {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5E_7B1C ^ ((c as u64) << 20));
            let attrs: Vec<String> = (0..s.attrs).map(|j| format!("S{c}A{j}")).collect();
            let set = format!("S{c}");
            // A fixed shape, so the service time per frame does not hinge on
            // the seed: a chain of FPDs over the first half of the
            // attributes, sums that survive closure over the second half,
            // and FPD toggles linking the halves.  The seed drives goals,
            // databases, toggle choice and the schedule.
            let half = s.attrs / 2;
            let mut pds: Vec<String> = (0..half)
                .map(|j| format!("{0} = {0}*{1}", attrs[j], attrs[j + 1]))
                .collect();
            pds.extend((0..s.sums).map(|m| {
                format!(
                    "{} = {}+{}",
                    attrs[half + 2 * m],
                    attrs[m],
                    attrs[half + 2 * m + 1]
                )
            }));
            let toggles: Vec<String> = (0..s.toggles)
                .map(|i| format!("{0} = {0}*{1}", attrs[half + 2 * i + 1], attrs[i + 1]))
                .collect();
            let mut present = vec![false; toggles.len()];
            let mut id = 0u64;
            let mut frame = |op: Op| {
                id += 1;
                Request { id: Some(id), op }.to_line()
            };
            // Set-up registers the set and warms it with one batch of
            // goals, so the server starts with a grown vocabulary and
            // set-up is CPU work more than thread start-ups.  The batch
            // does not hinge on the seed, so neither does set-up time.
            let mut warm_rng = StdRng::seed_from_u64(0x3A_11 ^ c as u64);
            let setup = vec![
                frame(Op::Register {
                    set: set.clone(),
                    pds,
                }),
                frame(Op::ImpliesMany {
                    set: set.clone(),
                    goals: (0..s.warm_goals)
                        .map(|_| equation_text(&mut warm_rng, &attrs))
                        .collect(),
                }),
            ];

            // Stratified blocks: every block of `BLOCK.len()` frames holds
            // the mix exactly and its gaps are the exponential's quantiles,
            // both in seeded order, so the mix and the burstiness do not
            // vary from seed to seed.
            let mut gaps: Vec<f64> = (0..BLOCK.len())
                .map(|i| -(1.0 - (i as f64 + 0.5) / BLOCK.len() as f64).ln())
                .collect();
            let mean_gap = mean(&gaps);
            gaps.iter_mut().for_each(|g| *g /= mean_gap * rate);
            let mut goals: Vec<String> = Vec::new();
            let mut inject = false;
            let (mut due, mut lines, mut ops) = (Vec::new(), Vec::new(), Vec::new());
            let mut t = 0.0f64;
            'blocks: loop {
                let mut kinds = BLOCK;
                shuffle(&mut rng, &mut kinds);
                shuffle(&mut rng, &mut gaps);
                for (&kind, &gap) in kinds.iter().zip(&gaps) {
                    t += gap;
                    if t >= seconds || s.max_frames.is_some_and(|m| due.len() >= m) {
                        break 'blocks;
                    }
                    let op = match kind {
                        Kind::Repeat if !goals.is_empty() => Op::Implies {
                            set: set.clone(),
                            goal: goals[rng.gen_range(0..goals.len())].clone(),
                        },
                        Kind::Fresh | Kind::Repeat => {
                            let goal = equation_text(&mut rng, &attrs);
                            goals.push(goal.clone());
                            Op::Implies {
                                set: set.clone(),
                                goal,
                            }
                        }
                        Kind::Many => Op::ImpliesMany {
                            set: set.clone(),
                            goals: (0..3).map(|_| equation_text(&mut rng, &attrs)).collect(),
                        },
                        Kind::Toggle => {
                            let i = rng.gen_range(0..toggles.len());
                            present[i] = !present[i];
                            let pd = toggles[i].clone();
                            if present[i] {
                                Op::AddPd {
                                    set: set.clone(),
                                    pd,
                                }
                            } else {
                                Op::RemovePd {
                                    set: set.clone(),
                                    pd,
                                }
                            }
                        }
                        Kind::Consistent | Kind::Weak => {
                            inject = !inject;
                            let database = small_database(&mut rng, &attrs, c, s.db_rows, inject);
                            if kind == Kind::Consistent {
                                Op::Consistent {
                                    set: set.clone(),
                                    database,
                                }
                            } else {
                                Op::WeakInstance {
                                    set: set.clone(),
                                    database,
                                }
                            }
                        }
                    };
                    due.push(t);
                    ops.push(op.name());
                    lines.push(frame(op));
                }
            }
            Client {
                setup,
                lines,
                ops,
                due,
            }
        })
        .collect()
}

/// A one-relation database over the client's first chain attributes; with
/// `inject`, two rows clash on `A0 → A1`.  Symbols come from a small
/// per-client pool, so after warm-up a database interns nothing new.
fn small_database(
    rng: &mut StdRng,
    attrs: &[String],
    client: usize,
    rows: usize,
    inject: bool,
) -> DatabaseSpec {
    let sym = |col: usize, v: usize| format!("c{client}x{col}v{v}");
    let mut table: Vec<Vec<String>> = (0..rows)
        .map(|_| {
            let key = rng.gen_range(0..SYMBOL_POOL);
            vec![
                sym(0, key),
                sym(1, key % 3),
                sym(2, rng.gen_range(0..SYMBOL_POOL)),
            ]
        })
        .collect();
    if inject {
        let key = rng.gen_range(0..SYMBOL_POOL);
        table.push(vec![sym(0, key), sym(1, 3), sym(2, 0)]);
        table.push(vec![sym(0, key), sym(1, 4), sym(2, 1)]);
    }
    DatabaseSpec {
        relations: vec![RelationSpec {
            name: "R".to_owned(),
            attrs: attrs[..3].to_vec(),
            rows: table,
        }],
    }
}

/// What one client observed live.
#[derive(Debug, Default)]
struct ClientLive {
    /// Response time minus due time, ms, per timed frame (after
    /// [`merge_rounds`], the least over the rounds).
    latency_ms: Vec<f64>,
    tally: Tally,
}

/// Live answers judged against the sequential replay as they arrive.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    /// Answers byte-identical to the replay (set-up frames included).
    right: u64,
    /// Answers that differ (errors and refusals included).
    wrong: u64,
    /// Timed frames answered right.
    timed_right: u64,
    /// `overloaded` refusals among the wrong answers.
    overloaded: u64,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.right += other.right;
        self.wrong += other.wrong;
        self.timed_right += other.timed_right;
        self.overloaded += other.overloaded;
    }

    fn judge(&mut self, want: &str, got: &str, timed: bool) {
        if want == got {
            self.right += 1;
            self.timed_right += u64::from(timed);
        } else {
            self.wrong += 1;
            let refused = Response::parse_line(got)
                .is_ok_and(|r| matches!(&r.result, Err(e) if e.kind == ErrorKind::Overloaded));
            self.overloaded += u64::from(refused);
        }
    }
}

/// One client connection: the write half and a buffered read half.
struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Connection {
    fn open(addr: SocketAddr) -> io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(READ_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Connection { writer, reader })
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.writer.write_all(&bytes)
    }

    fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }

    /// Sends each frame and waits for its answer (the closed-loop set-up),
    /// judging the answers against `want`.
    fn round_trips(
        &mut self,
        lines: &[String],
        want: &[String],
        tally: &mut Tally,
    ) -> io::Result<()> {
        for (line, want) in lines.iter().zip(want) {
            self.send(line)?;
            tally.judge(want, &self.recv()?, false);
        }
        Ok(())
    }
}

/// Every client's timed frames merged into one schedule: `(due, client,
/// frame)` by due time.  Each client's frames keep their order in it.
fn schedule(clients: &[Client]) -> Vec<(f64, usize, usize)> {
    let mut schedule: Vec<(f64, usize, usize)> = clients
        .iter()
        .enumerate()
        .flat_map(|(c, client)| client.due.iter().enumerate().map(move |(k, &t)| (t, c, k)))
        .collect();
    schedule.sort_by(|a, b| a.0.total_cmp(&b.0));
    schedule
}

/// Reads the timed answers in schedule order (the server answers one
/// connection's frames in order), stamping each on arrival and judging it
/// against its client's replay answer; `want[c]` holds client `c`'s timed
/// answers.
fn receive(
    reader: &mut BufReader<TcpStream>,
    schedule: &[(f64, usize, usize)],
    want: &[&[String]],
    start: Instant,
    tallies: Vec<Tally>,
) -> io::Result<Vec<ClientLive>> {
    let mut lives: Vec<ClientLive> = tallies
        .into_iter()
        .zip(want)
        .map(|(tally, want)| ClientLive {
            latency_ms: Vec::with_capacity(want.len()),
            tally,
        })
        .collect();
    let mut line = String::new();
    for &(due, c, k) in schedule {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let live = &mut lives[c];
        live.latency_ms
            .push((start.elapsed().as_secs_f64() - due) * 1e3);
        live.tally.judge(&want[c][k], line.trim_end(), true);
    }
    Ok(lives)
}

/// The generator: sends the timed frames at their due times, whether or
/// not earlier answers are back.  Returns how late each frame left, in ms.
fn generate(
    writer: &mut TcpStream,
    schedule: &[(f64, usize, usize)],
    clients: &[Client],
    start: Instant,
) -> io::Result<Vec<f64>> {
    let mut lag_ms = Vec::with_capacity(schedule.len());
    let mut bytes = Vec::new();
    for &(due, c, k) in schedule {
        let now = start.elapsed().as_secs_f64();
        if due > now {
            std::thread::sleep(Duration::from_secs_f64(due - now));
        }
        lag_ms.push((start.elapsed().as_secs_f64() - due) * 1e3);
        bytes.clear();
        bytes.extend_from_slice(clients[c].lines[k].as_bytes());
        bytes.push(b'\n');
        writer.write_all(&bytes)?;
    }
    Ok(lag_ms)
}

fn shutdown(addr: SocketAddr) -> io::Result<()> {
    let mut conn = Connection::open(addr)?;
    conn.send(
        &Request {
            id: None,
            op: Op::Shutdown,
        }
        .to_line(),
    )?;
    let ack = Response::parse_line(&conn.recv()?).map_err(|e| io::Error::other(e.to_string()))?;
    if ack.is_shutdown_ack() {
        Ok(())
    } else {
        Err(io::Error::other("no shutdown acknowledgement"))
    }
}

/// Everything one live run observed.
struct Live {
    setup_s: f64,
    clients: Vec<ClientLive>,
    lag_ms: Vec<f64>,
    /// From the start to the last answer.
    elapsed_s: f64,
}

/// Starts the server [`SETUP_REPEATS`] times (set-up = bind, serve,
/// connect, register and warm every client's set); each of the last
/// [`ROUNDS`] starts then plays the timed schedule: this thread generates,
/// one more thread receives.  After each start the server is shut down
/// and joined.  `expected` holds each client's replay answers, set-up
/// frames first.
fn run_live(clients: &[Client], expected: &[Vec<String>]) -> Result<Live, String> {
    let config = ServeConfig {
        threads: nproc(),
        queue: 64,
    };
    let err = |e: io::Error| e.to_string();
    let schedule = schedule(clients);
    let timed_want: Vec<&[String]> = clients
        .iter()
        .zip(expected)
        .map(|(client, want)| &want[client.setup.len()..])
        .collect();
    let mut setup_times = Vec::new();
    let mut played: Vec<Vec<ClientLive>> = Vec::new();
    let mut lag_ms = Vec::new();
    let mut elapsed_s = 0.0;
    std::thread::scope(|scope| {
        for repeat in 0..SETUP_REPEATS {
            let t0 = Instant::now();
            let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
            let addr = listener.local_addr().map_err(err)?;
            let server = scope.spawn(move || serve_tcp(listener, config));
            let mut conn = Connection::open(addr).map_err(err)?;
            let mut tallies = Vec::new();
            for (client, want) in clients.iter().zip(expected) {
                let mut tally = Tally::default();
                conn.round_trips(&client.setup, want, &mut tally)
                    .map_err(err)?;
                tallies.push(tally);
            }
            setup_times.push(t0.elapsed().as_secs_f64());
            if repeat + ROUNDS >= SETUP_REPEATS {
                let start = Instant::now();
                let Connection {
                    mut writer,
                    mut reader,
                } = conn;
                let (schedule, timed_want) = (&schedule, &timed_want);
                let receiver =
                    scope.spawn(move || receive(&mut reader, schedule, timed_want, start, tallies));
                let lags = generate(&mut writer, schedule, clients, start);
                if lags.is_err() {
                    // Unblocks the receiver, which would wait for answers
                    // to frames never sent.
                    let _ = writer.shutdown(std::net::Shutdown::Both);
                }
                let lives = receiver
                    .join()
                    .map_err(|_| "receiver thread panicked".to_owned())?
                    .map_err(err)?;
                lag_ms.extend(lags.map_err(err)?);
                elapsed_s += start.elapsed().as_secs_f64();
                played.push(lives);
            } else {
                drop(conn);
            }
            shutdown(addr).map_err(err)?;
            server
                .join()
                .map_err(|_| "server thread panicked".to_owned())?
                .map_err(err)?;
        }
        Ok::<(), String>(())
    })?;
    Ok(Live {
        setup_s: median(&setup_times),
        clients: merge_rounds(&played),
        lag_ms,
        elapsed_s,
    })
}

/// One [`ClientLive`] per client from several rounds of the same
/// schedule: tallies summed, and each frame's latency the least of its
/// latencies in the rounds.
fn merge_rounds(rounds: &[Vec<ClientLive>]) -> Vec<ClientLive> {
    let Some(first) = rounds.first() else {
        return Vec::new();
    };
    (0..first.len())
        .map(|c| {
            let mut tally = Tally::default();
            for round in rounds {
                tally.add(round[c].tally);
            }
            let latency_ms = (0..first[c].latency_ms.len())
                .map(|k| {
                    rounds
                        .iter()
                        .map(|r| r[c].latency_ms[k])
                        .fold(f64::INFINITY, f64::min)
                })
                .collect();
            ClientLive { latency_ms, tally }
        })
        .collect()
}

/// The sequential reference: each client's script alone through a fresh
/// [`ServerCore::handle`].  Returns the response lines and the wall time.
fn replay(client: &Client) -> (Vec<String>, u64) {
    let mut core = ServerCore::new(nproc());
    let start = Instant::now();
    let lines = client
        .setup
        .iter()
        .chain(&client.lines)
        .map(|line| match Request::parse_line(line) {
            Ok(request) => core.handle(&request).to_line(),
            Err(e) => Response::err(None, "", e).to_line(),
        })
        .collect();
    (
        lines,
        u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
    )
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let round_s = cfg.seconds.as_secs_f64() / ROUNDS as f64;
    let clients = clients(cfg.seed, round_s, cfg.scale);
    let expected: Vec<Vec<String>> = clients.iter().map(|c| replay(c).0).collect();
    let live = run_live(&clients, &expected)?;
    drop(expected);
    let mut report = Report::default();
    let (mut ok, mut overloaded) = (0u64, 0u64);
    for c in &live.clients {
        report.attempted += c.tally.right + c.tally.wrong;
        report.failed += c.tally.wrong;
        ok += c.tally.timed_right;
        overloaded += c.tally.overloaded;
    }
    let latencies: Vec<f64> = live
        .clients
        .iter()
        .flat_map(|c| c.latency_ms.iter().copied())
        .collect();
    let lag_p99 = quantile(&live.lag_ms, 0.99);
    report.note("offered_rate_fps", OFFERED_RATE);
    report.note("clients", clients.len());
    report.note("frames", latencies.len());
    let lag_p50 = median(&live.lag_ms);
    report.note("generator_lag_p99_ms", lag_p99);
    if lag_p50 > MAX_LAG_P50_MS {
        report.invalid = Some(format!(
            "generator lag p50 {lag_p50:.3} ms exceeds {MAX_LAG_P50_MS} ms"
        ));
    }
    if cfg.trace {
        traced(cfg, &clients, &live, overloaded, lag_p99, &mut report)?;
        return Ok(report);
    }
    let goodput = ok as f64 / live.elapsed_s;
    let (p50, p90) = (quantile(&latencies, 0.5), quantile(&latencies, 0.9));
    report.note("frame_p99_ms", quantile(&latencies, 0.99));
    report.alias("goodput_fps", goodput, "1/s");
    report.alias("frame_p50_ms", p50, "ms");
    report.alias("frame_p90_ms", p90, "ms");
    report.metric("setup_s", live.setup_s, "s");
    report.metric("peak_rss_mb", crate::stats::peak_rss_mb(), "MB");
    report.metric("throughput_per_s", goodput, "1/s");
    report.metric("p50_ms", p50, "ms");
    report.metric("tail_ms", p90, "ms");
    Ok(report)
}

/// Exact counts of the traced replay, compared across runs by the
/// benchmark's own test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    /// Response lines of the traced replay, per client.
    pub responses: Vec<Vec<String>>,
    /// Summed response counters.
    pub counters: Counters,
    /// Snapshot freezes the session mirror performed.
    pub freezes: u64,
    /// Timed frames replayed.
    pub frames: u64,
}

/// The traced replay: every client's script through the server layer's
/// four steps — [`Request::parse_line`], [`ServerCore::resolve`],
/// [`ServerCore::compute`], [`Response::to_line`] — with a span around
/// each; then a session-layer mirror of the writer's freeze policy with an
/// engine shadow, timing freezes, mutations, `add_equations`, retraction
/// and goal extension where the server hides them inside `resolve`.
pub fn traced_replay(clients: &[Client], tracer: &mut Tracer) -> Result<(Counts, u64), String> {
    let executor = ParallelExecutor::new(nproc());
    let mut untraced_ns = 0u64;
    let mut counts = Counts {
        responses: Vec::new(),
        counters: Counters::default(),
        freezes: 0,
        frames: 0,
    };
    for (c, client) in clients.iter().enumerate() {
        let (expected, ns) = replay(client);
        untraced_ns += ns;
        let mut core = ServerCore::new(nproc());
        let mut lines = Vec::with_capacity(expected.len());
        for (k, line) in client.setup.iter().chain(&client.lines).enumerate() {
            tracer.set_item(((c as u64) << 32) | k as u64);
            let root = tracer.enter("bench.frame");
            let parsed = tracer.leaf("server.decode", || Request::parse_line(line));
            let response = match parsed {
                Ok(request) => match tracer.leaf("server.resolve", || core.resolve(&request)) {
                    Step::Done(response) => response,
                    Step::Compute(task) => {
                        tracer.leaf("server.compute", || ServerCore::compute(task, executor))
                    }
                },
                Err(e) => Response::err(None, "", e),
            };
            let encoded = tracer.leaf("server.encode", || response.to_line());
            tracer.exit(root);
            if let Ok((_, counters)) = &response.result {
                counts.counters += *counters;
            }
            lines.push(encoded);
        }
        if lines != expected {
            return Err(format!(
                "traced replay of client {c} differs from the handle replay"
            ));
        }
        counts.frames += client.lines.len() as u64;
        counts.responses.push(lines);
        counts.freezes += mirror(client, tracer)?;
    }
    Ok((counts, untraced_ns))
}

/// Replays one client's script against the session layer the way the
/// server's writer does (freeze when the set's epoch moved, a goal is
/// outside the frozen vocabulary or the interners grew), beside a shadow
/// engine that applies each mutation and goal extension directly.
/// Returns the number of freezes.
fn mirror(client: &Client, tracer: &mut Tracer) -> Result<u64, String> {
    let err = |e: ps_session::Error| e.to_string();
    let mut session = Session::new();
    let mut set = None;
    let mut shadow: Option<ps_lattice::ImplicationEngine> = None;
    let mut frozen: Option<(
        std::sync::Arc<ps_session::SetSnapshot>,
        (usize, usize, usize),
    )> = None;
    let mut freezes = 0u64;
    for line in client.setup.iter().chain(&client.lines) {
        let Ok(request) = Request::parse_line(line) else {
            continue;
        };
        let root = tracer.enter("bench.mirror");
        let mut goals = Vec::new();
        match &request.op {
            Op::Register { pds, .. } => {
                let pds = pds
                    .iter()
                    .map(|t| session.equation(t))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(err)?;
                set = Some(session.register(&pds).map_err(err)?);
                let engine = tracer.leaf("lattice.build", || {
                    ps_lattice::ImplicationEngine::new(session.arena(), &pds)
                });
                shadow = Some(engine);
            }
            Op::AddPd { pd, .. } | Op::RemovePd { pd, .. } => {
                let id = set.ok_or("mutation before register")?;
                let pd = session.equation(pd).map_err(err)?;
                let add = matches!(request.op, Op::AddPd { .. });
                tracer
                    .leaf("session.mutation", || {
                        if add {
                            session.add_pd(id, pd).map(|_| ())
                        } else {
                            session.remove_pd(id, pd).map(|_| ())
                        }
                    })
                    .map_err(err)?;
                let engine = shadow.as_mut().ok_or("no shadow engine")?;
                let arena = session.arena();
                if add {
                    tracer.leaf("lattice.add_equations", || {
                        engine.add_equations(arena, &[pd])
                    });
                } else {
                    tracer.leaf("lattice.retract", || engine.retract_equations(arena, &[pd]));
                }
            }
            Op::Implies { goal, .. } => goals.push(session.equation(goal).map_err(err)?),
            Op::ImpliesMany { goals: texts, .. } => {
                for t in texts {
                    goals.push(session.equation(t).map_err(err)?);
                }
            }
            Op::Consistent { database, .. } | Op::WeakInstance { database, .. } => {
                let mut builder = session.database();
                for rel in &database.relations {
                    let attrs: Vec<&str> = rel.attrs.iter().map(String::as_str).collect();
                    let rows: Vec<Vec<&str>> = rel
                        .rows
                        .iter()
                        .map(|r| r.iter().map(String::as_str).collect())
                        .collect();
                    let refs: Vec<&[&str]> = rows.iter().map(Vec::as_slice).collect();
                    builder = builder.relation(&rel.name, &attrs, &refs).map_err(err)?;
                }
                builder.build();
            }
            _ => {}
        }
        if matches!(
            request.op,
            Op::Implies { .. }
                | Op::ImpliesMany { .. }
                | Op::Consistent { .. }
                | Op::WeakInstance { .. }
        ) {
            let id = set.ok_or("query before register")?;
            let sizes = (
                session.universe().len(),
                session.symbols().num_constants(),
                session.arena().len(),
            );
            let epoch = session.epoch(id).map_err(err)?;
            let fresh = frozen.as_ref().is_some_and(|(snap, seen)| {
                snap.epoch() == epoch && *seen == sizes && goals.iter().all(|&g| snap.covers(g))
            });
            if !fresh {
                let snap = tracer
                    .leaf("session.freeze", || session.snapshot_with_goals(id, &goals))
                    .map_err(err)?;
                freezes += 1;
                let sizes = (
                    session.universe().len(),
                    session.symbols().num_constants(),
                    session.arena().len(),
                );
                frozen = Some((snap, sizes));
            }
            if !goals.is_empty() {
                let engine = shadow.as_mut().ok_or("no shadow engine")?;
                let roots: Vec<_> = goals.iter().flat_map(|g| [g.lhs, g.rhs]).collect();
                let arena = session.arena();
                tracer.leaf("lattice.extend", || engine.add_goal_terms(arena, &roots));
            }
        }
        tracer.exit(root);
    }
    Ok(freezes)
}

fn traced(
    cfg: &Config,
    clients: &[Client],
    live: &Live,
    overloaded: u64,
    lag_p99: f64,
    report: &mut Report,
) -> Result<(), String> {
    let mut tracer = Tracer::new();
    let (counts, untraced_ns) = traced_replay(clients, &mut tracer)?;
    let us = |name: &str| mean(&tracer.durations_ms(name)) * 1e3;
    report.metric("server.decode_us", us("server.decode"), "us");
    report.metric("server.resolve_us", us("server.resolve"), "us");
    report.metric("server.compute_us", us("server.compute"), "us");
    report.metric("server.encode_us", us("server.encode"), "us");
    report.metric("server.overloaded", overloaded as f64, "count");
    report.metric("generator.lag_ms", lag_p99, "ms");

    // Per-op live latency, from the same per-frame records as frame_p99.
    for op in [
        "implies",
        "implies_many",
        "add_pd",
        "remove_pd",
        "consistent",
        "weak_instance",
    ] {
        let samples: Vec<f64> = clients
            .iter()
            .zip(&live.clients)
            .flat_map(|(c, l)| {
                c.ops
                    .iter()
                    .zip(&l.latency_ms)
                    .filter(move |(o, _)| **o == op)
                    .map(|(_, &v)| v)
            })
            .collect();
        report.metric(&format!("server.{op}.p50_ms"), median(&samples), "ms");
        report.metric(
            &format!("server.{op}.p99_ms"),
            quantile(&samples, 0.99),
            "ms",
        );
    }
    // Live latency minus traced service time: queueing, transport and
    // head-of-line waiting, per frame on average.
    let live_mean = mean(
        &live
            .clients
            .iter()
            .flat_map(|c| c.latency_ms.iter().copied())
            .collect::<Vec<_>>(),
    );
    let setup_frames: usize = clients.iter().map(|c| c.setup.len()).sum();
    let frames: Vec<f64> = tracer.durations_ms("bench.frame");
    let service_mean = mean(&frames[setup_frames.min(frames.len())..]);
    report.metric("server.wait_ms", live_mean - service_mean, "ms");

    report.metric(
        "lattice.build_ms",
        mean(&tracer.durations_ms("lattice.build")),
        "ms",
    );
    report.metric(
        "lattice.extend_ms",
        mean(&tracer.durations_ms("lattice.extend")),
        "ms",
    );
    report.metric(
        "lattice.add_equations_ms",
        mean(&tracer.durations_ms("lattice.add_equations")),
        "ms",
    );
    report.metric(
        "lattice.retract_ms",
        mean(&tracer.durations_ms("lattice.retract")),
        "ms",
    );
    report.metric(
        "session.freeze_ms",
        mean(&tracer.durations_ms("session.freeze")),
        "ms",
    );
    report.metric(
        "session.freezes_per_frame",
        ratio(counts.freezes as f64, counts.frames as f64),
        "frac",
    );
    report.metric(
        "session.mutation_ms",
        mean(&tracer.durations_ms("session.mutation")),
        "ms",
    );
    let c = counts.counters;
    report.metric(
        "session.engine_hit_ratio",
        ratio(
            c.engine_hits as f64,
            (c.engine_hits + c.engine_misses) as f64,
        ),
        "frac",
    );
    report.metric("session.rule_firings", c.rule_firings as f64, "count");
    report.metric("session.row_visits", c.row_visits as f64, "count");
    let served: u64 = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "bench.frame")
        .map(|s| s.duration_ns())
        .sum();
    crate::report_trace(report, &tracer, served, untraced_ns, cfg)?;
    Ok(())
}
