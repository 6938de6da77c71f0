//! The event collector: lanes, the tracer, and the finished trace.
//!
//! Recording is lock-cheap: each lane owns its own mutex-guarded vector
//! and is written by (at most) one thread — the stage thread, the storage
//! reader, the fabric endpoint — so `record` is an uncontended lock plus
//! a push. The tracer-level map lock is only taken on lane creation and
//! at [`Tracer::finish`].

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::event::{CounterId, Event, EventKind, LaneId, LogicalKind, MarkId, SpanId};
use crate::metrics::MetricsSummary;

/// A live consumer of events as they are recorded — the hook a telemetry
/// plane registers to see chunk completions, counter bumps and marks
/// *while the job runs*, without waiting for [`Tracer::finish`].
///
/// Implementations must be cheap and non-blocking: `on_event` runs on
/// the recording thread (a pipeline stage, the fabric endpoint) with the
/// lane's buffer lock already released. The sink sees the lane id as
/// stamped by the recording view (job id applied), so a service-lifetime
/// sink can attribute events to jobs.
pub trait EventSink: Send + Sync {
    /// Called after `event` has been appended to `lane`'s buffer.
    fn on_event(&self, lane: LaneId, event: &Event);
}

/// Collects events for one job run — or, through [`Tracer::for_job`]
/// views, for a whole service lifetime of runs sharing one epoch. Cheap
/// to share (`Arc`); hand lanes to subsystems with [`Tracer::lane`] and
/// snapshot the result with [`Tracer::finish`].
///
/// A `Tracer` is a *view* over a shared event store: [`Tracer::for_job`]
/// returns a sibling view that stamps every lane it hands out with that
/// job id, while recording into the same store against the same epoch.
/// That keeps timestamps from concurrent jobs on one wall-clock axis, so
/// cross-tenant interference analysis can overlap them directly.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
    job: u32,
}

struct TracerInner {
    epoch: Instant,
    lanes: Mutex<BTreeMap<LaneId, Arc<LaneBuf>>>,
    sink: Option<Arc<dyn EventSink>>,
}

impl std::fmt::Debug for TracerInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracerInner")
            .field("epoch", &self.epoch)
            .field("lanes", &self.lanes)
            .field("sink", &self.sink.as_ref().map(|_| "EventSink"))
            .finish()
    }
}

#[derive(Debug, Default)]
struct LaneBuf {
    events: Mutex<Vec<Event>>,
}

impl Tracer {
    /// A fresh tracer; its epoch (the zero of every `at_ns`) is now.
    /// Lanes it hands out are stamped `job: 0`.
    pub fn new() -> Self {
        Tracer {
            inner: Arc::new(TracerInner {
                epoch: Instant::now(),
                lanes: Mutex::new(BTreeMap::new()),
                sink: None,
            }),
            job: 0,
        }
    }

    /// A fresh tracer with a live [`EventSink`]: every event recorded on
    /// any lane of any view is also forwarded to `sink` as it happens.
    /// This is how a telemetry plane taps the event stream without the
    /// engine knowing about it.
    pub fn with_sink(sink: Arc<dyn EventSink>) -> Self {
        Tracer {
            inner: Arc::new(TracerInner {
                epoch: Instant::now(),
                lanes: Mutex::new(BTreeMap::new()),
                sink: Some(sink),
            }),
            job: 0,
        }
    }

    /// A sibling view over the same event store whose lanes are stamped
    /// with `job`. Shares the epoch, so events from different job views
    /// are directly comparable on one time axis.
    pub fn for_job(&self, job: u32) -> Tracer {
        Tracer {
            inner: Arc::clone(&self.inner),
            job,
        }
    }

    /// The job id this view stamps onto its lanes.
    pub fn job(&self) -> u32 {
        self.job
    }

    /// Get or create the lane `id`, returning a cheap writer handle. The
    /// `job` field of `id` is overridden by this view's job id, so
    /// engine-internal emitters can construct ids with `job: 0` and still
    /// land in the submitting job's lanes when run under a service.
    pub fn lane(&self, mut id: LaneId) -> Lane {
        id.job = self.job;
        let buf = Arc::clone(self.inner.lanes.lock().entry(id).or_default());
        Lane {
            epoch: self.inner.epoch,
            id,
            buf,
            sink: self.inner.sink.clone(),
        }
    }

    /// Snapshot everything recorded so far — all jobs — into a
    /// [`Trace`], lanes in canonical ([`LaneId`]) order.
    pub fn finish(&self) -> Trace {
        let lanes = self
            .inner
            .lanes
            .lock()
            .iter()
            .map(|(id, buf)| (*id, buf.events.lock().clone()))
            .collect();
        Trace { lanes }
    }

    /// Snapshot only the lanes stamped with `job`, in canonical order.
    /// This is what a service hands back in a per-job report:
    /// the job's own event stream, free of co-tenant lanes.
    pub fn finish_job(&self, job: u32) -> Trace {
        let lanes = self
            .inner
            .lanes
            .lock()
            .iter()
            .filter(|(id, _)| id.job == job)
            .map(|(id, buf)| (*id, buf.events.lock().clone()))
            .collect();
        Trace { lanes }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Writer handle for one lane. Clones share the lane.
#[derive(Clone)]
pub struct Lane {
    epoch: Instant,
    id: LaneId,
    buf: Arc<LaneBuf>,
    sink: Option<Arc<dyn EventSink>>,
}

impl std::fmt::Debug for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lane")
            .field("epoch", &self.epoch)
            .field("id", &self.id)
            .field("buf", &self.buf)
            .field("sink", &self.sink.as_ref().map(|_| "EventSink"))
            .finish()
    }
}

impl Lane {
    /// Record `kind` at the current wall clock.
    pub fn record(&self, kind: EventKind) {
        let ev = Event {
            at_ns: self.epoch.elapsed().as_nanos() as u64,
            kind,
        };
        self.buf.events.lock().push(ev);
        if let Some(sink) = &self.sink {
            sink.on_event(self.id, &ev);
        }
    }

    /// Open a span.
    pub fn begin(&self, span: SpanId) {
        self.record(EventKind::Begin { span });
    }

    /// Close a span with accounted durations (they count toward stage
    /// totals in derived views).
    pub fn end(&self, span: SpanId, wall: Duration, modeled: Duration) {
        self.record(EventKind::End {
            span,
            wall_ns: wall.as_nanos() as u64,
            modeled_ns: modeled.as_nanos() as u64,
            accounted: true,
        });
    }

    /// Close a structural span (aborted chunk, token wait, untimed finish)
    /// whose durations must not be folded into stage totals.
    pub fn end_unaccounted(&self, span: SpanId) {
        self.record(EventKind::End {
            span,
            wall_ns: 0,
            modeled_ns: 0,
            accounted: false,
        });
    }

    /// Record a point event.
    pub fn instant(&self, mark: MarkId) {
        self.record(EventKind::Instant { mark });
    }

    /// Bump a counter.
    pub fn count(&self, counter: CounterId, delta: u64) {
        self.record(EventKind::Count { counter, delta });
    }
}

/// A finished, immutable event stream: one vector of events per lane,
/// lanes in canonical order, events within a lane in emission order. That
/// per-lane order is the determinism contract — it sidesteps cross-thread
/// interleaving, which no fixed seed can pin.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// `(lane, events)` pairs sorted by [`LaneId`].
    pub lanes: Vec<(LaneId, Vec<Event>)>,
}

impl Trace {
    /// The seed-deterministic projection: every event's identity, in
    /// canonical lane order, wall timestamps and durations stripped.
    pub fn logical_events(&self) -> Vec<(LaneId, LogicalKind)> {
        self.lanes
            .iter()
            .flat_map(|(id, events)| events.iter().map(move |ev| (*id, ev.kind.logical())))
            .collect()
    }

    /// Total number of recorded events.
    pub fn event_count(&self) -> usize {
        self.lanes.iter().map(|(_, evs)| evs.len()).sum()
    }

    /// The distinct job ids present, ascending. One-shot traces report
    /// `[0]` (or `[]` if empty).
    pub fn jobs(&self) -> Vec<u32> {
        let mut jobs: Vec<u32> = self.lanes.iter().map(|(id, _)| id.job).collect();
        jobs.dedup();
        jobs
    }

    /// Restrict to the lanes of one job, preserving canonical order.
    pub fn for_job(&self, job: u32) -> Trace {
        Trace {
            lanes: self
                .lanes
                .iter()
                .filter(|(id, _)| id.job == job)
                .cloned()
                .collect(),
        }
    }

    /// Roll the stream up into per-node/per-stage/per-job aggregates.
    pub fn metrics(&self) -> MetricsSummary {
        MetricsSummary::from_trace(self)
    }

    /// Export as Chrome `trace_event` JSON (load in `chrome://tracing` or
    /// Perfetto): one process per node, one thread per lane, `B`/`E`
    /// pairs for spans, `i` for marks, `C` for counters.
    pub fn chrome_json(&self) -> String {
        crate::chrome::export(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Realm;
    use crate::stage::{PipelineKind, StageId};

    fn lane_id(node: u32, stage: StageId) -> LaneId {
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

    #[test]
    fn lanes_come_back_in_canonical_order_regardless_of_creation_order() {
        let tracer = Tracer::new();
        tracer
            .lane(LaneId {
                job: 0,
                node: 1,
                realm: Realm::Storage,
            })
            .count(CounterId::DfsReadBytes, 10);
        tracer
            .lane(lane_id(0, StageId::Kernel))
            .begin(SpanId::Chunk { seq: 0 });
        tracer
            .lane(lane_id(0, StageId::Input))
            .begin(SpanId::Chunk { seq: 0 });
        let trace = tracer.finish();
        let ids: Vec<LaneId> = trace.lanes.iter().map(|(id, _)| *id).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
        assert_eq!(trace.event_count(), 3);
    }

    #[test]
    fn events_within_a_lane_keep_emission_order_and_timestamps_grow() {
        let tracer = Tracer::new();
        let lane = tracer.lane(lane_id(0, StageId::Input));
        lane.begin(SpanId::Chunk { seq: 0 });
        lane.end(
            SpanId::Chunk { seq: 0 },
            Duration::from_micros(5),
            Duration::from_micros(7),
        );
        lane.instant(MarkId::TaskFaultFired);
        let trace = tracer.finish();
        let events = &trace.lanes[0].1;
        assert_eq!(events.len(), 3);
        assert!(events[0].at_ns <= events[1].at_ns);
        assert!(events[1].at_ns <= events[2].at_ns);
        assert_eq!(
            events[1].kind,
            EventKind::End {
                span: SpanId::Chunk { seq: 0 },
                wall_ns: 5_000,
                modeled_ns: 7_000,
                accounted: true,
            }
        );
    }

    #[test]
    fn logical_events_are_identical_across_differently_timed_runs() {
        let run = |sleep: bool| {
            let tracer = Tracer::new();
            let lane = tracer.lane(lane_id(2, StageId::Kernel));
            for seq in 0..3u64 {
                lane.begin(SpanId::Chunk { seq });
                if sleep {
                    std::thread::sleep(Duration::from_millis(1));
                }
                lane.end(
                    SpanId::Chunk { seq },
                    Duration::from_nanos(seq * 17),
                    Duration::from_nanos(seq * 19),
                );
            }
            lane.end_unaccounted(SpanId::Chunk { seq: 3 });
            tracer.finish().logical_events()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn job_views_stamp_lanes_and_share_the_epoch_and_store() {
        let base = Tracer::new();
        let j1 = base.for_job(1);
        let j2 = base.for_job(2);
        // Emitters construct ids with job: 0; the view re-stamps them.
        base.lane(lane_id(0, StageId::Input))
            .begin(SpanId::Chunk { seq: 0 });
        j1.lane(lane_id(0, StageId::Input))
            .begin(SpanId::Chunk { seq: 0 });
        j2.lane(lane_id(0, StageId::Input))
            .begin(SpanId::Chunk { seq: 0 });
        let all = base.finish();
        assert_eq!(all.jobs(), vec![0, 1, 2]);
        assert_eq!(all.event_count(), 3);
        // Canonical order is job-major.
        let ids: Vec<u32> = all.lanes.iter().map(|(id, _)| id.job).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        // Per-job snapshots see only their own lanes — from any view.
        let one = j2.finish_job(1);
        assert_eq!(one.event_count(), 1);
        assert!(one.lanes.iter().all(|(id, _)| id.job == 1));
        assert_eq!(all.for_job(2).event_count(), 1);
        assert_eq!(base.finish_job(7).event_count(), 0);
        assert_eq!(j1.job(), 1);
    }

    #[test]
    fn clones_of_a_lane_share_the_buffer() {
        let tracer = Tracer::new();
        let a = tracer.lane(lane_id(0, StageId::Partition));
        let b = a.clone();
        a.count(CounterId::ShuffleSendMsgs, 1);
        b.count(CounterId::ShuffleSendMsgs, 2);
        let trace = tracer.finish();
        assert_eq!(trace.lanes[0].1.len(), 2);
    }
}
