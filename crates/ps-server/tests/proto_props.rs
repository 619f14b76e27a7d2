//! Property tests for the wire protocol: every representable request and
//! response frame survives encode → decode unchanged (multi-byte and
//! escape-heavy strings included), and malformed frames decode to typed,
//! span-carrying errors instead of panics.

use proptest::prelude::*;
use ps_server::proto::{
    DatabaseSpec, ErrorKind, Op, Payload, RelationSpec, Request, Response, StatsReport, WireError,
};
use ps_session::{Counters, Epoch};

/// JSON-stressing strings: quotes, backslashes, control characters, a
/// non-ASCII scalar and an astral-plane scalar — everything the compact
/// serializer must escape into a single line and the parser must restore.
fn arb_text() -> impl Strategy<Value = String> {
    const PALETTE: [char; 12] = [
        'a',
        'Z',
        '0',
        '_',
        ' ',
        '"',
        '\\',
        '\n',
        '\t',
        '\u{1}',
        '\u{e9}',
        '\u{1f300}',
    ];
    proptest::collection::vec(0usize..PALETTE.len(), 0..16)
        .prop_map(|ids| ids.into_iter().map(|i| PALETTE[i]).collect())
}

fn arb_texts() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(arb_text(), 0..4)
}

fn arb_id() -> impl Strategy<Value = Option<u64>> {
    (0u64..1 << 50).prop_map(|n| (n % 3 != 0).then_some(n))
}

fn arb_database() -> impl Strategy<Value = DatabaseSpec> {
    proptest::collection::vec(
        (
            arb_text(),
            proptest::collection::vec(arb_text(), 1..4),
            proptest::collection::vec(proptest::collection::vec(arb_text(), 1..4), 0..3),
        ),
        0..3,
    )
    .prop_map(|relations| DatabaseSpec {
        relations: relations
            .into_iter()
            .map(|(name, attrs, rows)| RelationSpec { name, attrs, rows })
            .collect(),
    })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_text(), arb_texts()).prop_map(|(set, pds)| Op::Register { set, pds }),
        (arb_text(), arb_text()).prop_map(|(set, pd)| Op::AddPd { set, pd }),
        (arb_text(), arb_text()).prop_map(|(set, pd)| Op::RemovePd { set, pd }),
        (arb_text(), arb_text()).prop_map(|(set, goal)| Op::Implies { set, goal }),
        (arb_text(), arb_texts()).prop_map(|(set, goals)| Op::ImpliesMany { set, goals }),
        (arb_text(), arb_database()).prop_map(|(set, database)| Op::Consistent { set, database }),
        (arb_text(), arb_database()).prop_map(|(set, database)| Op::WeakInstance { set, database }),
        (
            1u64..64,
            proptest::collection::vec((0u64..64, 0u64..64), 0..6)
        )
            .prop_map(|(vertices, edges)| Op::ConnectedComponents { vertices, edges }),
        Just(Op::Stats),
        Just(Op::Shutdown),
    ]
}

fn arb_counters() -> impl Strategy<Value = Counters> {
    (
        0u64..1 << 40,
        0u64..1 << 40,
        0u64..1 << 40,
        0u64..1 << 40,
        0u64..1 << 40,
    )
        .prop_map(
            |(rule_firings, row_visits, engine_hits, engine_misses, epoch)| Counters {
                rule_firings,
                row_visits,
                engine_hits,
                engine_misses,
                epoch: Epoch::new(epoch),
            },
        )
}

fn arb_payload() -> impl Strategy<Value = (String, Payload)> {
    prop_oneof![
        (0u64..1 << 30).prop_map(|pds| ("register".to_owned(), Payload::Registered { pds })),
        (0u64..2).prop_map(|b| ("add_pd".to_owned(), Payload::Added { added: b == 1 })),
        (0u64..2).prop_map(|b| ("remove_pd".to_owned(), Payload::Removed { removed: b == 1 })),
        (0u64..2).prop_map(|b| ("implies".to_owned(), Payload::Implies { implied: b == 1 })),
        proptest::collection::vec(0u64..2, 0..6).prop_map(|bits| {
            (
                "implies_many".to_owned(),
                Payload::ImpliesMany {
                    implied: bits.into_iter().map(|b| b == 1).collect(),
                },
            )
        }),
        (0u64..2, 0u64..1 << 20, 0u64..1 << 20).prop_map(|(c, fds, sums)| {
            (
                "consistent".to_owned(),
                Payload::Consistent {
                    consistent: c == 1,
                    fds,
                    sums,
                },
            )
        }),
        (0u64..2, 0u64..1 << 20, 0u64..2, 0u64..1 << 20).prop_map(
            |(s, rows, converged, bridges)| {
                (
                    "weak_instance".to_owned(),
                    Payload::WeakInstance {
                        satisfiable: s == 1,
                        weak_instance_rows: (rows % 2 == 1).then_some(rows),
                        repair_converged: converged == 1,
                        bridges,
                    },
                )
            }
        ),
        proptest::collection::vec(0u64..1 << 20, 0..8).prop_map(|components| {
            (
                "connected_components".to_owned(),
                Payload::Components { components },
            )
        }),
        (
            (0u64..1 << 50, 0u64..1 << 30, 0u64..1 << 30, 0u64..1 << 30),
            proptest::collection::vec((arb_text(), 0u64..1 << 30), 0..4),
            arb_counters(),
        )
            .prop_map(
                |((uptime_ns, requests_total, responses_ok, responses_err), per_op, totals)| {
                    (
                        "stats".to_owned(),
                        Payload::Stats(StatsReport {
                            uptime_ns,
                            requests_total,
                            responses_ok,
                            responses_err,
                            per_op,
                            totals,
                        }),
                    )
                }
            ),
        Just(("shutdown".to_owned(), Payload::Shutdown)),
    ]
}

fn arb_error() -> impl Strategy<Value = WireError> {
    (0usize..10, arb_text(), 0u64..1 << 20, 0u64..1 << 20).prop_map(
        |(kind_idx, message, start, len)| {
            const KINDS: [ErrorKind; 10] = [
                ErrorKind::Parse,
                ErrorKind::Protocol,
                ErrorKind::Equation,
                ErrorKind::Database,
                ErrorKind::UnknownSet,
                ErrorKind::SetExists,
                ErrorKind::Overloaded,
                ErrorKind::ShuttingDown,
                ErrorKind::Session,
                ErrorKind::FrameTooLarge,
            ];
            WireError {
                kind: KINDS[kind_idx],
                message,
                span: (len % 2 == 0).then_some((start, start + len)),
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Request frames: one line out, the same request back in.
    #[test]
    fn request_frames_round_trip(id in arb_id(), op in arb_op()) {
        let request = Request { id, op };
        let line = request.to_line();
        prop_assert!(!line.contains('\n'), "{line:?}");
        let parsed = Request::parse_line(&line).expect("encoder output parses");
        prop_assert_eq!(parsed, request);
    }

    /// Success responses: payload, counters and epoch all survive.
    #[test]
    fn ok_response_frames_round_trip(
        id in arb_id(),
        payload in arb_payload(),
        counters in arb_counters(),
    ) {
        let (op, payload) = payload;
        let response = Response::ok(id, &op, payload, counters);
        let line = response.to_line();
        prop_assert!(!line.contains('\n'), "{line:?}");
        let parsed = Response::parse_line(&line).expect("encoder output parses");
        prop_assert_eq!(parsed, response);
    }

    /// Error responses: kind, message and span survive.
    #[test]
    fn err_response_frames_round_trip(id in arb_id(), error in arb_error()) {
        let response = Response::err(id, "implies", error);
        let line = response.to_line();
        let parsed = Response::parse_line(&line).expect("encoder output parses");
        prop_assert_eq!(parsed, response);
    }

    /// Truncating a valid frame anywhere never panics, and whenever decode
    /// fails it fails typed — a parse error with a span inside the frame,
    /// or a protocol error for a JSON-valid prefix that lost fields.
    #[test]
    fn truncated_frames_fail_typed(id in arb_id(), op in arb_op(), cut in 0usize..64) {
        let line = (Request { id, op }).to_line();
        prop_assume!(cut < line.len());
        let mut end = cut;
        while end > 0 && !line.is_char_boundary(end) {
            end -= 1;
        }
        let truncated = &line[..end];
        match Request::parse_line(truncated) {
            // A truncation can still be a complete frame (e.g. cutting a
            // string's closing quote is not, but cutting after `}` of a
            // nested object may leave valid JSON that then fails protocol
            // validation) — both error kinds are acceptable, panics are not.
            Err(e) => {
                prop_assert!(
                    matches!(e.kind, ErrorKind::Parse | ErrorKind::Protocol),
                    "{e:?}"
                );
                if e.kind == ErrorKind::Parse {
                    let (start, _) = e.span.expect("parse errors carry a span");
                    prop_assert!(start <= truncated.len() as u64);
                }
            }
            Ok(_) => prop_assert!(end == line.len() || truncated.is_empty()),
        }
    }
}

/// Frames that are valid JSON but not valid requests are protocol errors
/// naming the offense; absolute garbage is a parse error with a position.
#[test]
fn malformed_frames_are_typed_and_positioned() {
    let parse = Request::parse_line("{\"op\": \"implies\", \"set\": ").unwrap_err();
    assert_eq!(parse.kind, ErrorKind::Parse);
    assert!(parse.span.is_some());

    let cases = [
        ("[1, 2, 3]", "object"),
        ("{\"op\": 7}", "op"),
        ("{\"op\": \"implies\", \"set\": \"s\"}", "goal"),
        ("{\"op\": \"frobnicate\"}", "frobnicate"),
        (
            "{\"op\": \"implies\", \"set\": 3, \"goal\": \"A = A\"}",
            "set",
        ),
        (
            "{\"op\": \"connected_components\", \"vertices\": 2, \"edges\": [[0]]}",
            "pair",
        ),
    ];
    for (frame, expect) in cases {
        let err = Request::parse_line(frame).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Protocol, "{frame}");
        assert!(
            err.message.contains(expect),
            "{frame}: {} should mention {expect}",
            err.message
        );
    }
}
