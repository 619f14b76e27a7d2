//! End-to-end concurrency test: one `psserve`-shaped TCP server, several
//! clients mixing mutations and queries at once, and every client's
//! response stream pinned **byte-identical** to a sequential replay of
//! that client's script alone through `ServerCore::handle`.
//!
//! The pin works because clients use disjoint constraint sets over
//! disjoint vocabularies (so `Session::register`'s content dedup cannot
//! alias them) and every response's counters count only work the
//! client's own history explains: implication runs on the set's live
//! engine, and a database query re-freezes its set only after the set's
//! epoch moved, so neighbours growing the shared interners change nothing.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Barrier};

use ps_server::proto::{Op, Payload, Request, Response};
use ps_server::state::ServerCore;
use ps_server::{serve_tcp, ServeConfig};

const THREADS: usize = 2;
const CLIENTS: usize = 4;

/// The script each client plays, parameterised by a client-private
/// vocabulary suffix.  Mixes set registration, implication queries (cold
/// and warm), live mutation under the epoch protocol, database
/// consistency / weak-instance checks, component counting, and one
/// deliberately malformed frame mid-stream.
fn script(client: usize) -> Vec<String> {
    let a = format!("A{client}");
    let b = format!("B{client}");
    let c = format!("C{client}");
    let d = format!("D{client}");
    let set = format!("S{client}");
    let req = |id: u64, op: Op| Request { id: Some(id), op }.to_line();
    vec![
        req(
            1,
            Op::Register {
                set: set.clone(),
                pds: vec![format!("{a}*{b} = {a}"), format!("{b}*{c} = {b}")],
            },
        ),
        // Cold query: builds the set's engine, answers by transitivity.
        req(
            2,
            Op::Implies {
                set: set.clone(),
                goal: format!("{a}*{c} = {a}"),
            },
        ),
        // Warm repeat: one engine hit, zero rule firings.
        req(
            3,
            Op::Implies {
                set: set.clone(),
                goal: format!("{a}*{c} = {a}"),
            },
        ),
        req(
            4,
            Op::ImpliesMany {
                set: set.clone(),
                goals: vec![
                    format!("{a}*{b} = {a}"),
                    format!("{c}*{a} = {c}"),
                    format!("{b}*{c} = {c}"),
                ],
            },
        ),
        // A frame the JSON layer rejects; the connection must survive it.
        "{\"op\": \"implies\", \"set\":".to_owned(),
        // Mutation: bumps the set's epoch.
        req(
            5,
            Op::AddPd {
                set: set.clone(),
                pd: format!("{c}*{d} = {c}"),
            },
        ),
        // Post-mutation query: extends the engine in place at the new epoch.
        req(
            6,
            Op::Implies {
                set: set.clone(),
                goal: format!("{a}*{d} = {a}"),
            },
        ),
        req(
            7,
            Op::Consistent {
                set: set.clone(),
                database: two_relation_db(&a, &b, &c),
            },
        ),
        req(
            8,
            Op::WeakInstance {
                set: set.clone(),
                database: two_relation_db(&a, &b, &c),
            },
        ),
        req(
            9,
            Op::RemovePd {
                set: set.clone(),
                pd: format!("{c}*{d} = {c}"),
            },
        ),
        req(
            10,
            Op::Implies {
                set,
                goal: format!("{a}*{d} = {a}"),
            },
        ),
        // Stateless graph query: vertices/edges vary per client.
        req(
            11,
            Op::ConnectedComponents {
                vertices: 4 + client as u64,
                edges: vec![(0, 1), (1, 2)],
            },
        ),
    ]
}

fn two_relation_db(a: &str, b: &str, c: &str) -> ps_server::proto::DatabaseSpec {
    ps_server::proto::DatabaseSpec {
        relations: vec![
            ps_server::proto::RelationSpec {
                name: "R".to_owned(),
                attrs: vec![a.to_owned(), b.to_owned()],
                rows: vec![
                    vec!["x".to_owned(), "y".to_owned()],
                    vec!["x2".to_owned(), "y".to_owned()],
                ],
            },
            ps_server::proto::RelationSpec {
                name: "T".to_owned(),
                attrs: vec![b.to_owned(), c.to_owned()],
                rows: vec![vec!["y".to_owned(), "z".to_owned()]],
            },
        ],
    }
}

/// Sequential reference: the same frames through a fresh solver core, one
/// at a time, exactly as `answer_frame` would route them.
fn replay(lines: &[String]) -> Vec<String> {
    let mut core = ServerCore::new(THREADS);
    lines
        .iter()
        .map(|line| match Request::parse_line(line) {
            Ok(request) => core.handle(&request).to_line(),
            Err(error) => Response::err(None, "", error).to_line(),
        })
        .collect()
}

fn run_client(addr: std::net::SocketAddr, lines: &[String]) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut responses = Vec::with_capacity(lines.len());
    for line in lines {
        writeln!(writer, "{line}").expect("send");
        writer.flush().expect("flush");
        let mut reply = String::new();
        assert!(reader.read_line(&mut reply).expect("recv") > 0, "early EOF");
        responses.push(reply.trim_end().to_owned());
    }
    responses
}

#[test]
fn concurrent_clients_match_their_sequential_replay() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let config = ServeConfig {
        threads: THREADS,
        queue: 16,
    };
    let server = std::thread::spawn(move || serve_tcp(listener, config));

    // All clients connect, then start their scripts together.
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let lines = script(i);
                let stream = TcpStream::connect(addr).expect("connect");
                barrier.wait();
                drop(stream); // the wait was the rendezvous; reconnect per run_client
                run_client(addr, &lines)
            })
        })
        .collect();
    let live: Vec<Vec<String>> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();

    // Every client's concurrent transcript is byte-identical to replaying
    // its script alone against a fresh core.
    for (i, responses) in live.iter().enumerate() {
        let expected = replay(&script(i));
        assert_eq!(responses.len(), expected.len(), "client {i}");
        for (got, want) in responses.iter().zip(&expected) {
            assert_eq!(got, want, "client {i}");
        }
        // Spot-check semantics so a uniformly-wrong server cannot pass:
        // the cold implication holds by transitivity …
        let cold = Response::parse_line(&responses[1]).expect("frame");
        let (payload, counters) = cold.result.expect("ok");
        assert!(matches!(payload, Payload::Implies { implied: true }));
        assert!(counters.engine_misses > 0, "cold query must charge freeze");
        // … the warm repeat does no closure work …
        let warm = Response::parse_line(&responses[2]).expect("frame");
        let (_, counters) = warm.result.expect("ok");
        assert_eq!(counters.rule_firings, 0);
        assert_eq!(counters.engine_misses, 0);
        assert_eq!(counters.engine_hits, 1);
        // … the malformed frame answered with a parse error, and the
        // connection kept serving afterwards …
        let bad = Response::parse_line(&responses[4]).expect("frame");
        assert!(bad.result.is_err());
        // … and the post-mutation epoch advanced.
        let rebuilt = Response::parse_line(&responses[6]).expect("frame");
        let (_, counters) = rebuilt.result.expect("ok");
        assert_eq!(counters.epoch.value(), 1, "add_pd must bump the epoch");
    }

    // Shutdown over a fresh connection: ack first, then EOF, then the
    // server task drains and exits cleanly.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writeln!(
        writer,
        "{}",
        Request {
            id: Some(99),
            op: Op::Shutdown
        }
        .to_line()
    )
    .expect("send");
    writer.flush().expect("flush");
    let mut ack = String::new();
    assert!(reader.read_line(&mut ack).expect("recv") > 0);
    let ack = Response::parse_line(ack.trim_end()).expect("frame");
    assert!(ack.is_shutdown_ack(), "{ack:?}");
    let mut tail = String::new();
    assert_eq!(reader.read_line(&mut tail).expect("eof"), 0, "{tail:?}");
    server
        .join()
        .expect("server thread")
        .expect("clean shutdown");
}

#[test]
fn stats_aggregates_across_connections() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let config = ServeConfig::default();
    let server = std::thread::spawn(move || serve_tcp(listener, config));

    let lines = script(7);
    let n_frames = lines.len();
    run_client(addr, &lines);

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    for op in [Op::Stats, Op::Shutdown] {
        writeln!(writer, "{}", Request { id: None, op }.to_line()).expect("send");
    }
    writer.flush().expect("flush");
    let mut line = String::new();
    reader.read_line(&mut line).expect("recv");
    let stats = Response::parse_line(line.trim_end()).expect("frame");
    let (payload, _) = stats.result.expect("ok");
    let Payload::Stats(report) = payload else {
        panic!("expected stats payload, got {payload:?}");
    };
    // The earlier client's frames plus this stats request itself.
    assert_eq!(report.requests_total, n_frames as u64 + 1);
    assert_eq!(report.responses_err, 1, "one malformed frame in the script");
    // The script's successes only: the malformed frame errored, and the
    // stats response now in flight is not tallied until it is written.
    assert_eq!(report.responses_ok, n_frames as u64 - 1, "{report:?}");
    assert!(report
        .per_op
        .iter()
        .any(|(op, n)| op == "implies" && *n == 4));
    assert!(report.totals.rule_firings > 0, "{report:?}");

    line.clear();
    reader.read_line(&mut line).expect("recv");
    assert!(Response::parse_line(line.trim_end())
        .expect("frame")
        .is_shutdown_ack());
    server
        .join()
        .expect("server thread")
        .expect("clean shutdown");
}
