//! A complete client session against the `psserve` solver service.
//!
//! Run with:
//!
//! ```text
//! cargo run --example solver_service
//! ```
//!
//! to serve and query in one process (an in-process TCP server thread on a
//! loopback port), or point it at an already-running server:
//!
//! ```text
//! cargo run --bin psserve -- --listen 127.0.0.1:7878 &
//! PS_SERVE_ADDR=127.0.0.1:7878 cargo run --example solver_service
//! ```
//!
//! Either way the script is the same: register a constraint set mixing an
//! FPD (the FD `A → B` as `A = A*B`) with the Example e connectivity PD
//! (`C = A + B`), query implications cold and warm, mutate the live set
//! under the epoch protocol, check a concrete database two ways
//! (Theorem 12 consistency, Theorem 7 weak instance), count graph
//! components over the wire, read the server's statistics, and finally ask
//! the server to drain and shut down.  The example prints each frame in
//! both directions, so it doubles as a readable protocol trace.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

use partition_semantics::server::proto::{
    DatabaseSpec, Op, Payload, RelationSpec, Request, Response,
};
use partition_semantics::server::{serve_tcp, ServeConfig};

fn main() {
    // Serve in-process unless the environment points at a live server.
    let external = std::env::var("PS_SERVE_ADDR").ok();
    let (addr, server) = match &external {
        Some(addr) => (addr.clone(), None),
        None => {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            let addr = listener.local_addr().expect("local addr").to_string();
            let handle = std::thread::spawn(move || serve_tcp(listener, ServeConfig::default()));
            println!("serving in-process on {addr}");
            (addr, Some(handle))
        }
    };

    let stream = TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).expect("disable Nagle");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;

    let database = DatabaseSpec {
        relations: vec![RelationSpec {
            name: "R".to_owned(),
            attrs: vec!["A".to_owned(), "B".to_owned(), "C".to_owned()],
            rows: vec![
                vec!["a1".to_owned(), "b".to_owned(), "c".to_owned()],
                vec!["a2".to_owned(), "b".to_owned(), "c".to_owned()],
            ],
        }],
    };

    let script = [
        // The quickstart constraint set, but over the wire.
        Op::Register {
            set: "quickstart".to_owned(),
            pds: vec!["A = A*B".to_owned(), "C = A+B".to_owned()],
        },
        // Cold query: the first frame to touch the set pays for the engine
        // build (watch `engine_misses` and `rule_firings` in the reply).
        Op::Implies {
            set: "quickstart".to_owned(),
            goal: "A + C = C".to_owned(),
        },
        // Warm repeat: same verdict, zero rule firings, one engine hit.
        Op::Implies {
            set: "quickstart".to_owned(),
            goal: "A + C = C".to_owned(),
        },
        Op::ImpliesMany {
            set: "quickstart".to_owned(),
            goals: vec!["B + C = C".to_owned(), "B = B*A".to_owned()],
        },
        // Live mutation: the epoch bumps; the next implication extends the
        // engine in place, and the next database query re-freezes the set.
        // `A = A*C` is the FD A → C, which the database below satisfies.
        Op::AddPd {
            set: "quickstart".to_owned(),
            pd: "A = A*C".to_owned(),
        },
        Op::Implies {
            set: "quickstart".to_owned(),
            goal: "A = A*(B*C)".to_owned(),
        },
        // Theorem 12 consistency and Theorem 7 weak instances agree on it.
        Op::Consistent {
            set: "quickstart".to_owned(),
            database: database.clone(),
        },
        Op::WeakInstance {
            set: "quickstart".to_owned(),
            database,
        },
        // Example e without a database: components straight from edges.
        Op::ConnectedComponents {
            vertices: 6,
            edges: vec![(0, 1), (1, 2), (3, 4)],
        },
        Op::Stats,
        Op::Shutdown,
    ];

    for (i, op) in script.into_iter().enumerate() {
        let request = Request {
            id: Some(i as u64 + 1),
            op,
        };
        let line = request.to_line();
        println!("→ {line}");
        writeln!(writer, "{line}").expect("send frame");
        writer.flush().expect("flush");

        let mut reply = String::new();
        assert!(
            reader.read_line(&mut reply).expect("read reply") > 0,
            "server closed the connection mid-script"
        );
        let reply = reply.trim_end();
        println!("← {reply}");
        let response = Response::parse_line(reply).expect("well-formed response frame");
        let (payload, counters) = response.result.expect("scripted frames all succeed");
        match payload {
            Payload::Implies { implied } => {
                println!(
                    "   implied={implied} at epoch {} ({} rule firings, {} engine hits/{} misses)",
                    counters.epoch.value(),
                    counters.rule_firings,
                    counters.engine_hits,
                    counters.engine_misses,
                );
            }
            Payload::Consistent { consistent, .. } => {
                assert!(consistent, "the quickstart database satisfies the set");
            }
            Payload::WeakInstance { satisfiable, .. } => {
                assert!(satisfiable, "Theorem 7 agrees with Theorem 12 here");
            }
            Payload::Components { components } => {
                println!("   components: {components:?}");
                assert_eq!(components.len(), 6);
            }
            Payload::Stats(report) => {
                println!(
                    "   served {} requests ({} ok, {} errors) in {} ms",
                    report.requests_total,
                    report.responses_ok,
                    report.responses_err,
                    report.uptime_ns / 1_000_000,
                );
            }
            Payload::Shutdown => println!("   server draining; goodbye"),
            other => println!("   {other:?}"),
        }
    }

    // An in-process server must come down cleanly once the script ends.
    if let Some(handle) = server {
        handle
            .join()
            .expect("server thread")
            .expect("clean shutdown");
        println!("in-process server exited cleanly");
    }
}
