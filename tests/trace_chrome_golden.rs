//! Golden-file test for the Chrome `trace_event` exporter.
//!
//! The exporter's schema — field order included — is part of the
//! crate's contract: a reordered field or a changed lane name silently
//! breaks every tool that consumes dumped traces. The fixture pins the
//! full document for a small two-node trace; regenerate it with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test trace_chrome_golden
//! ```
//!
//! and review the diff like any other API change. Alongside the byte
//! comparison, the test checks the structural invariants any Chrome
//! trace viewer relies on: the document is valid JSON (RFC 8259, under
//! the strict `gw_trace::json` parser) and `B`/`E` span events nest
//! properly per `(pid, tid)` lane.

use glasswing::core::json::{self, Value};
use glasswing::core::{
    validate_json, CounterId, Event, EventKind, LaneId, MarkId, PipelineKind, ReadClass, Realm,
    SpanId, StageId, Trace,
};

const GOLDEN: &str = include_str!("fixtures/golden_trace.json");
const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_trace.json"
);

fn ev(at_ns: u64, kind: EventKind) -> Event {
    Event { at_ns, kind }
}

fn pipeline_lane(node: u32, stage: StageId) -> LaneId {
    LaneId {
        job: 0,
        node,
        realm: Realm::Pipeline {
            kind: PipelineKind::Map,
            stage,
            lane: 0,
        },
    }
}

/// A small but representative trace: two nodes; chunk spans with a
/// nested token wait; storage, shuffle and chaos lanes. Timestamps are fixed by hand so the export is reproducible.
fn sample_trace() -> Trace {
    let chunk = |seq| SpanId::Chunk { seq };
    let input0 = vec![
        ev(100, EventKind::Begin { span: chunk(0) }),
        ev(
            900,
            EventKind::End {
                span: chunk(0),
                wall_ns: 800,
                modeled_ns: 800,
                accounted: true,
            },
        ),
    ];
    let kernel0 = vec![
        ev(
            1_000,
            EventKind::Begin {
                span: SpanId::TokenWait { group: 0, seq: 0 },
            },
        ),
        ev(
            1_200,
            EventKind::End {
                span: SpanId::TokenWait { group: 0, seq: 0 },
                wall_ns: 0,
                modeled_ns: 0,
                accounted: false,
            },
        ),
        ev(1_250, EventKind::Begin { span: chunk(0) }),
        ev(
            3_250,
            EventKind::End {
                span: chunk(0),
                wall_ns: 2_000,
                modeled_ns: 2_600,
                accounted: true,
            },
        ),
    ];
    let storage0 = vec![
        ev(
            150,
            EventKind::Instant {
                mark: MarkId::DfsRead {
                    block: 0,
                    class: ReadClass::Local,
                },
            },
        ),
        ev(
            160,
            EventKind::Count {
                counter: CounterId::DfsReadLocal,
                delta: 1,
            },
        ),
        ev(
            170,
            EventKind::Count {
                counter: CounterId::DfsReadBytes,
                delta: 4_096,
            },
        ),
    ];
    let net_tx0 = vec![
        ev(
            3_400,
            EventKind::Count {
                counter: CounterId::ShuffleSendMsgs,
                delta: 1,
            },
        ),
        ev(
            3_410,
            EventKind::Count {
                counter: CounterId::ShuffleSendBytes,
                delta: 640,
            },
        ),
    ];
    let net_rx1 = vec![ev(
        3_900,
        EventKind::Count {
            counter: CounterId::ShuffleRecvMsgs,
            delta: 1,
        },
    )];
    let chaos1 = vec![
        ev(
            10,
            EventKind::Instant {
                mark: MarkId::FaultArmed {
                    kind: "crash",
                    detail: 2,
                },
            },
        ),
        ev(
            5_000,
            EventKind::Instant {
                mark: MarkId::CrashFired {
                    site: "map-kernel",
                    after: 2,
                },
            },
        ),
    ];
    Trace {
        lanes: vec![
            (pipeline_lane(0, StageId::Input), input0),
            (pipeline_lane(0, StageId::Kernel), kernel0),
            (
                LaneId {
                    job: 0,
                    node: 0,
                    realm: Realm::Storage,
                },
                storage0,
            ),
            (
                LaneId {
                    job: 0,
                    node: 0,
                    realm: Realm::Net,
                },
                net_tx0,
            ),
            (
                LaneId {
                    job: 0,
                    node: 1,
                    realm: Realm::NetRx,
                },
                net_rx1,
            ),
            (
                LaneId {
                    job: 0,
                    node: 1,
                    realm: Realm::Chaos,
                },
                chaos1,
            ),
        ],
    }
}

/// The events of the exported document, as `(name, ph, pid, tid)`.
fn parse_events(text: &str) -> Vec<(String, char, u32, u32)> {
    let doc = json::parse(text).expect("chrome export must parse");
    let Some(Value::Arr(events)) = doc.get("traceEvents") else {
        panic!("no traceEvents array");
    };
    events
        .iter()
        .map(|e| {
            let text = |k| e.get(k).and_then(Value::as_str).unwrap();
            let id = |k| e.get(k).and_then(Value::as_num).unwrap() as u32;
            let ph = text("ph").chars().next().unwrap();
            (text("name").to_string(), ph, id("pid"), id("tid"))
        })
        .collect()
}

#[test]
fn exporter_output_matches_the_checked_in_golden_file() {
    let json = sample_trace().chrome_json();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, format!("{json}\n")).unwrap();
        return;
    }
    assert_eq!(
        json,
        GOLDEN.trim_end(),
        "chrome export drifted from the golden fixture; \
         regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn exported_document_is_valid_json() {
    let json = sample_trace().chrome_json();
    validate_json(&json).expect("chrome export must be RFC 8259 JSON");
    // And so is the fixture itself (guards hand-edits).
    validate_json(GOLDEN.trim_end()).expect("golden fixture must be valid JSON");
}

#[test]
fn spans_nest_properly_within_every_lane() {
    let json = sample_trace().chrome_json();
    let mut stacks: std::collections::BTreeMap<(u32, u32), Vec<String>> =
        std::collections::BTreeMap::new();
    for (name, ph, pid, tid) in parse_events(&json) {
        let stack = stacks.entry((pid, tid)).or_default();
        match ph {
            'B' => stack.push(name),
            'E' => {
                let open = stack.pop().unwrap_or_else(|| {
                    panic!("E event {name:?} on lane ({pid},{tid}) with no open span")
                });
                assert_eq!(open, name, "span E must close the innermost open B");
            }
            'i' | 'C' | 'M' => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for ((pid, tid), stack) in stacks {
        assert!(
            stack.is_empty(),
            "lane ({pid},{tid}) ended with unclosed spans {stack:?}"
        );
    }
}

#[test]
fn every_lane_keeps_its_own_thread() {
    let json = sample_trace().chrome_json();
    // 2 nodes → 2 pids; node 0 has 4 lanes, node 1 has 2.
    for expect in [
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"map/input\"}}",
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,\"args\":{\"name\":\"map/kernel\"}}",
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":2,\"args\":{\"name\":\"storage\"}}",
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":3,\"args\":{\"name\":\"net-tx\"}}",
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"net-rx\"}}",
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"chaos\"}}",
    ] {
        assert!(json.contains(expect), "missing metadata record {expect}");
    }
}
