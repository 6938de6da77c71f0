//! # gw-trace — the deterministic observability plane
//!
//! The paper's evaluation (Tables II/III, Figs. 2–5) is a set of claims
//! about *where time goes*: stage overlap, PCIe staging cost, shuffle
//! occupancy. Aggregate timers can prove totals but not shapes; this
//! crate records the shapes as a typed event stream and derives both the
//! totals ([`MetricsSummary`], [`TimerReport`]) and a visual timeline ([`Trace::chrome_json`]) from that one stream.
//!
//! Three design rules, all load-bearing for the tests that pin this
//! plane:
//!
//! 1. **Lanes, not a global log.** Events are recorded per
//!    [`LaneId`] (job × node × realm, one lane per pipeline stage
//!    thread; one-shot runs use job 0).
//!    Within a lane, emission order is program order; *across* lanes no
//!    order is defined. That is exactly the strongest contract a
//!    multithreaded pipeline can keep deterministic, and it makes
//!    recording lock-cheap (one uncontended mutex per lane).
//! 2. **Identity and timing are separable.** Every event carries logical
//!    identity (chunk sequence numbers, typed marks, counter deltas) and
//!    wall/modeled timing. [`Trace::logical_events`] strips the timing;
//!    for a fixed `(seed, JobConfig)` the logical stream is
//!    byte-reproducible across runs and across buffering levels.
//! 3. **Views, not bookkeeping.** Consumers (the stage timers, the
//!    metrics registry, the Chrome exporter) fold over the finished
//!    stream; none of them keeps instrumentation state inside pipeline
//!    code.

mod analysis;
mod chrome;
mod event;
mod interference;
pub mod json;
mod metrics;
mod report;
mod stage;
mod tracer;

pub use analysis::{
    bounded_buffer_schedule, Advice, Anomalies, CriticalPath, NodePerf, OverlapMatrix,
    PerfAnalysis, PipelinePerf, ServiceStats, StagePerf, StageSample, Straggler, TimerReport,
    MAP_TOKEN_GROUPS,
};
pub use event::{
    CounterId, Event, EventKind, LaneId, LogicalKind, MarkId, ReadClass, Realm, SpanId,
};
pub use interference::{Interference, JobActivity, JobOverlap};
pub use json::validate_json;
pub use metrics::MetricsSummary;
pub use stage::{PipelineKind, StageId};
pub use tracer::{EventSink, Lane, Trace, Tracer};
