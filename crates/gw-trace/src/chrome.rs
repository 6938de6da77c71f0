//! Chrome `trace_event` JSON exporter.
//!
//! Written through [`crate::json::Writer`] with a **stable field
//! order** — `name, ph, pid, tid, ts, s, args` — so the golden-file
//! test can byte-compare output. One process per job × node (job 0 keeps
//! `pid == node`, so one-shot exports are byte-identical to the
//! pre-service format), one thread per lane (pipeline stages first, then
//! storage/net/chaos), `B`/`E` pairs for spans, `i` for instant marks,
//! `C` for counters (cumulative value per lane). Load the result in
//! `chrome://tracing` or <https://ui.perfetto.dev>.

use std::collections::BTreeMap;

use crate::event::{CounterId, EventKind, LaneId, MarkId, SpanId};
use crate::json::Writer;
use crate::tracer::Trace;

pub(crate) fn export(trace: &Trace) -> String {
    let mut w = Writer::default();
    w.open('{').key("traceEvents").open('[');

    // Lane → (pid, tid): each (job, node) pair becomes a process, lanes
    // become threads numbered in canonical lane order within it. Job 0
    // maps to `pid == node`, so single-job exports are byte-identical to
    // the pre-service format; service jobs get a disjoint pid block.
    let mut tids: BTreeMap<LaneId, (u32, u32)> = BTreeMap::new();
    let mut per_proc: BTreeMap<(u32, u32), u32> = BTreeMap::new();
    for (lane, _) in &trace.lanes {
        let next = per_proc.entry((lane.job, lane.node)).or_insert(0);
        tids.insert(*lane, (pid_of(lane.job, lane.node), *next));
        *next += 1;
    }

    for &(job, node) in per_proc.keys() {
        meta(
            &mut w,
            "process_name",
            pid_of(job, node),
            0,
            &node_name(job, node),
        );
    }
    for (lane, &(pid, tid)) in &tids {
        meta(&mut w, "thread_name", pid, tid, &lane.realm.lane_name());
    }

    for (lane, events) in &trace.lanes {
        let (pid, tid) = tids[lane];
        let mut totals: BTreeMap<CounterId, u64> = BTreeMap::new();
        for ev in events {
            match ev.kind {
                EventKind::Begin { span } => {
                    event_head(&mut w, span_name(span), "B", pid, tid, ev.at_ns);
                    w.key("args").open('{');
                    span_args(&mut w, span);
                    w.close('}').close('}');
                }
                EventKind::End {
                    span,
                    wall_ns,
                    modeled_ns,
                    accounted,
                } => {
                    event_head(&mut w, span_name(span), "E", pid, tid, ev.at_ns);
                    w.key("args").open('{');
                    span_args(&mut w, span);
                    w.field("wall_ns", wall_ns)
                        .field("modeled_ns", modeled_ns)
                        .field("accounted", accounted)
                        .close('}')
                        .close('}');
                }
                EventKind::Instant { mark } => {
                    event_head(&mut w, mark_name(mark), "i", pid, tid, ev.at_ns);
                    w.field("s", "t").key("args").open('{');
                    mark_args(&mut w, mark);
                    w.close('}').close('}');
                }
                EventKind::Count { counter, delta } => {
                    let total = totals.entry(counter).or_default();
                    *total += delta;
                    event_head(&mut w, counter.name(), "C", pid, tid, ev.at_ns);
                    w.key("args")
                        .open('{')
                        .field("value", *total)
                        .close('}')
                        .close('}');
                }
            }
        }
    }

    w.close(']').field("displayTimeUnit", "ms").close('}');
    w.finish()
}

/// Jobs are spaced `PID_STRIDE` pids apart so job 0 keeps `pid == node`
/// (golden-trace bit-compatibility) and no realistic cluster size
/// collides across jobs.
const PID_STRIDE: u32 = 1_000;

fn pid_of(job: u32, node: u32) -> u32 {
    job * PID_STRIDE + node
}

fn node_name(job: u32, node: u32) -> String {
    if job == 0 {
        format!("node {node}")
    } else {
        format!("job {job} node {node}")
    }
}

/// Open one event object and write its common prefix: `{"name":…,
/// "ph":…,"pid":…,"tid":…,"ts":…` — the caller writes any extras and
/// closes it. `ts` is microseconds with an exact nanosecond fraction, as
/// the format expects.
fn event_head(w: &mut Writer, name: &str, ph: &str, pid: u32, tid: u32, at_ns: u64) {
    w.open('{')
        .field("name", name)
        .field("ph", ph)
        .field("pid", pid)
        .field("tid", tid)
        .key("ts")
        .fixed_point(at_ns, 3);
}

fn meta(w: &mut Writer, what: &str, pid: u32, tid: u32, name: &str) {
    w.open('{')
        .field("name", what)
        .field("ph", "M")
        .field("pid", pid)
        .field("tid", tid)
        .key("args")
        .open('{')
        .field("name", name)
        .close('}')
        .close('}');
}

fn span_name(span: SpanId) -> &'static str {
    match span {
        SpanId::Chunk { .. } => "chunk",
        SpanId::TokenWait { .. } => "token-wait",
    }
}

fn span_args(w: &mut Writer, span: SpanId) {
    match span {
        SpanId::Chunk { seq } => {
            w.field("seq", seq);
        }
        SpanId::TokenWait { group, seq } => {
            w.field("group", group).field("seq", seq);
        }
    }
}

fn mark_name(mark: MarkId) -> &'static str {
    match mark {
        MarkId::CrashFired { .. } => "crash-fired",
        MarkId::FaultArmed { .. } => "fault-armed",
        MarkId::ReadFaultFired { .. } => "read-fault",
        MarkId::NetFaultFired { .. } => "net-fault",
        MarkId::TaskFaultFired => "task-fault",
        MarkId::StallFired { .. } => "stall-fired",
        MarkId::SpillFaultFired { .. } => "spill-fault",
        MarkId::SpecLaunched { .. } => "spec-launched",
        MarkId::SpecResolved { .. } => "spec-resolved",
        MarkId::DfsRead { .. } => "dfs-read",
        MarkId::StageLanes { .. } => "stage-lanes",
        MarkId::TokenGroup { .. } => "token-group",
    }
}

fn mark_args(w: &mut Writer, mark: MarkId) {
    match mark {
        MarkId::CrashFired { site, after } => {
            w.field("site", site).field("after", after);
        }
        MarkId::FaultArmed { kind, detail } => {
            w.field("kind", kind).field("detail", detail);
        }
        MarkId::ReadFaultFired { block } | MarkId::SpecLaunched { block } => {
            w.field("block", block);
        }
        MarkId::NetFaultFired { kind } => {
            w.field("kind", kind);
        }
        MarkId::TaskFaultFired => {}
        MarkId::StallFired { site, ms } => {
            w.field("site", site).field("ms", ms);
        }
        MarkId::SpillFaultFired { op } => {
            w.field("op", op);
        }
        MarkId::SpecResolved { block, outcome } => {
            w.field("block", block).field("outcome", outcome);
        }
        MarkId::DfsRead { block, class } => {
            w.field("block", block).field("class", class.name());
        }
        MarkId::StageLanes { stage, lanes } => {
            w.field("stage", stage.name()).field("lanes", lanes);
        }
        MarkId::TokenGroup { group, first, last } => {
            w.field("group", group)
                .field("first", first.name())
                .field("last", last.name());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Realm};
    use crate::json::validate_json;
    use crate::stage::{PipelineKind, StageId};
    use std::time::Duration;

    fn sample_trace() -> Trace {
        let lane = LaneId {
            job: 0,
            node: 0,
            realm: Realm::Pipeline {
                kind: PipelineKind::Map,
                stage: StageId::Kernel,
                lane: 0,
            },
        };
        Trace {
            lanes: vec![(
                lane,
                vec![
                    Event {
                        at_ns: 1_500,
                        kind: EventKind::Begin {
                            span: SpanId::Chunk { seq: 0 },
                        },
                    },
                    Event {
                        at_ns: 4_000,
                        kind: EventKind::End {
                            span: SpanId::Chunk { seq: 0 },
                            wall_ns: 2_500,
                            modeled_ns: 3_000,
                            accounted: true,
                        },
                    },
                    Event {
                        at_ns: 4_200,
                        kind: EventKind::Count {
                            counter: CounterId::ShuffleSendBytes,
                            delta: 64,
                        },
                    },
                ],
            )],
        }
    }

    #[test]
    fn export_is_valid_json_with_stable_field_order() {
        let json = sample_trace().chrome_json();
        validate_json(&json).expect("exporter must emit valid JSON");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        // The head field order is pinned; a reorder breaks golden files.
        assert!(json.contains(
            "{\"name\":\"chunk\",\"ph\":\"B\",\"pid\":0,\"tid\":0,\"ts\":1.500,\"args\":{\"seq\":0}}"
        ));
        assert!(json.contains("\"wall_ns\":2500,\"modeled_ns\":3000,\"accounted\":true"));
        assert!(json.contains(
            "{\"name\":\"shuffle.send.bytes\",\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":4.200,\"args\":{\"value\":64}}"
        ));
    }

    #[test]
    fn metadata_names_processes_and_threads() {
        let json = sample_trace().chrome_json();
        assert!(json.contains(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"node 0\"}}"
        ));
        assert!(json.contains(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"map/kernel\"}}"
        ));
    }

    #[test]
    fn counters_are_cumulative_per_lane() {
        let lane = LaneId {
            job: 0,
            node: 1,
            realm: Realm::Net,
        };
        let mk = |at_ns, delta| Event {
            at_ns,
            kind: EventKind::Count {
                counter: CounterId::ShuffleSendMsgs,
                delta,
            },
        };
        let trace = Trace {
            lanes: vec![(lane, vec![mk(10, 1), mk(20, 1), mk(30, 3)])],
        };
        let json = trace.chrome_json();
        assert!(json.contains("\"args\":{\"value\":1}"));
        assert!(json.contains("\"args\":{\"value\":2}"));
        assert!(json.contains("\"args\":{\"value\":5}"));
    }

    #[test]
    fn service_jobs_get_disjoint_pid_blocks_and_named_processes() {
        let mut multi = sample_trace();
        let mut job_lane = multi.lanes[0].0;
        job_lane.job = 2;
        job_lane.node = 1;
        let events = multi.lanes[0].1.clone();
        multi.lanes.push((job_lane, events));
        let json = multi.chrome_json();
        validate_json(&json).unwrap();
        // Job 0 keeps pid == node (golden bit-compatibility)...
        assert!(json.contains(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"node 0\"}}"
        ));
        // ...while job 2 node 1 lands in its own pid block with a name
        // that says whose process it is.
        assert!(json.contains(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2001,\"tid\":0,\"args\":{\"name\":\"job 2 node 1\"}}"
        ));
        assert!(json.contains("\"ph\":\"B\",\"pid\":2001,\"tid\":0"));
    }

    #[test]
    fn empty_trace_is_still_a_valid_document() {
        let json = Trace::default().chrome_json();
        validate_json(&json).expect("empty export must be valid JSON");
        assert_eq!(json, "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
    }

    #[test]
    fn marks_carry_their_payloads() {
        let lane = LaneId {
            job: 0,
            node: 0,
            realm: Realm::Chaos,
        };
        let trace = Trace {
            lanes: vec![(
                lane,
                vec![Event {
                    at_ns: 0,
                    kind: EventKind::Instant {
                        mark: MarkId::CrashFired {
                            site: "kernel",
                            after: 3,
                        },
                    },
                }],
            )],
        };
        let json = trace.chrome_json();
        validate_json(&json).unwrap();
        assert!(json
            .contains("\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":0.000,\"s\":\"t\",\"args\":{\"site\":\"kernel\",\"after\":3}"));
    }

    /// `Duration`-driven ts formatting: 1.5 µs must print as `1.500`.
    #[test]
    fn timestamps_are_microseconds_with_nanosecond_fraction() {
        let ns = Duration::from_nanos(1_500).as_nanos() as u64;
        let mut w = Writer::default();
        event_head(&mut w, "x", "B", 0, 0, ns);
        assert!(w.finish().ends_with("\"ts\":1.500"));
    }
}
