//! Metrics registry: the rollup view over a finished trace.
//!
//! Tables II/III-style aggregates derive from the same event stream the
//! Chrome exporter renders: per-node counters, per-stage chunk counts,
//! and token-wait occupancy per stage.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::event::{CounterId, EventKind, Realm, SpanId};
use crate::stage::{PipelineKind, StageId};
use crate::tracer::Trace;

/// Per-node/per-stage/per-job aggregates rolled up from a [`Trace`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSummary {
    /// Counter totals keyed by `(node, counter)`.
    pub counters: BTreeMap<(u32, CounterId), u64>,
    /// Chunks that completed each stage, keyed by
    /// `(node, pipeline, stage)`.
    pub stage_chunks: BTreeMap<(u32, PipelineKind, StageId), u64>,
    /// Wall nanoseconds spent waiting on §III-D buffer tokens, keyed by
    /// `(node, pipeline, stage)` of the waiting stage.
    pub token_wait_ns: BTreeMap<(u32, PipelineKind, StageId), u64>,
}

impl MetricsSummary {
    /// Fold a finished trace into aggregates.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut m = MetricsSummary::default();
        for (lane, events) in &trace.lanes {
            let mut wait_begun: Vec<u64> = Vec::new();
            for ev in events {
                if let EventKind::Count { counter, delta } = ev.kind {
                    *m.counters.entry((lane.node, counter)).or_default() += delta;
                }
                // Sub-lanes of a widened stage (`lane > 0`) fold into the
                // same per-stage aggregate: metrics stay per-stage.
                let Realm::Pipeline { kind, stage, .. } = lane.realm else {
                    continue;
                };
                match ev.kind {
                    EventKind::End {
                        span: SpanId::Chunk { .. },
                        accounted: true,
                        ..
                    } => {
                        *m.stage_chunks.entry((lane.node, kind, stage)).or_default() += 1;
                    }
                    EventKind::Begin {
                        span: SpanId::TokenWait { .. },
                    } => wait_begun.push(ev.at_ns),
                    EventKind::End {
                        span: SpanId::TokenWait { .. },
                        ..
                    } => {
                        if let Some(t0) = wait_begun.pop() {
                            *m.token_wait_ns.entry((lane.node, kind, stage)).or_default() +=
                                ev.at_ns.saturating_sub(t0);
                        }
                    }
                    _ => {}
                }
            }
        }
        m
    }

    /// One node's total for `counter`.
    pub fn counter(&self, node: u32, counter: CounterId) -> u64 {
        self.counters.get(&(node, counter)).copied().unwrap_or(0)
    }

    /// Job-wide total for `counter`.
    pub fn counter_total(&self, counter: CounterId) -> u64 {
        self.counters
            .iter()
            .filter(|((_, c), _)| *c == counter)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Chunks that completed `stage` of `kind` on `node`.
    pub fn chunks(&self, node: u32, kind: PipelineKind, stage: StageId) -> u64 {
        self.stage_chunks
            .get(&(node, kind, stage))
            .copied()
            .unwrap_or(0)
    }

    /// Job-wide chunks that completed `stage` of `kind`.
    pub fn chunks_total(&self, kind: PipelineKind, stage: StageId) -> u64 {
        self.stage_chunks
            .iter()
            .filter(|((_, k, s), _)| *k == kind && *s == stage)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Job-wide wall time spent waiting on buffer tokens.
    pub fn token_wait_total(&self) -> Duration {
        Duration::from_nanos(self.token_wait_ns.values().sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LaneId;
    use crate::tracer::Tracer;

    fn pipe_lane(node: u32, stage: StageId) -> LaneId {
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
    fn rollup_counts_chunks_and_counters() {
        let tracer = Tracer::new();
        let kernel = tracer.lane(pipe_lane(0, StageId::Kernel));
        for seq in 0..4u64 {
            kernel.begin(SpanId::Chunk { seq });
            kernel.end(
                SpanId::Chunk { seq },
                Duration::from_micros(10),
                Duration::from_micros(20),
            );
        }
        // Aborted chunk: must not count.
        kernel.begin(SpanId::Chunk { seq: 4 });
        kernel.end_unaccounted(SpanId::Chunk { seq: 4 });
        let storage = tracer.lane(LaneId {
            job: 0,
            node: 0,
            realm: Realm::Storage,
        });
        storage.count(CounterId::DfsReadBytes, 100);
        storage.count(CounterId::DfsReadBytes, 50);
        storage.count(CounterId::DfsReadLocal, 2);
        let m = tracer.finish().metrics();
        assert_eq!(m.chunks(0, PipelineKind::Map, StageId::Kernel), 4);
        assert_eq!(m.chunks(0, PipelineKind::Map, StageId::Stage), 0);
        assert_eq!(m.counter(0, CounterId::DfsReadBytes), 150);
        assert_eq!(m.counter_total(CounterId::DfsReadLocal), 2);
        assert_eq!(m.counter(1, CounterId::DfsReadBytes), 0);
    }

    #[test]
    fn token_wait_pairs_fold_into_occupancy() {
        let trace = Trace {
            lanes: vec![(
                pipe_lane(3, StageId::Input),
                vec![
                    crate::Event {
                        at_ns: 100,
                        kind: EventKind::Begin {
                            span: SpanId::TokenWait { group: 0, seq: 0 },
                        },
                    },
                    crate::Event {
                        at_ns: 350,
                        kind: EventKind::End {
                            span: SpanId::TokenWait { group: 0, seq: 0 },
                            wall_ns: 0,
                            modeled_ns: 0,
                            accounted: false,
                        },
                    },
                ],
            )],
        };
        let m = trace.metrics();
        assert_eq!(
            m.token_wait_ns.get(&(3, PipelineKind::Map, StageId::Input)),
            Some(&250)
        );
        assert_eq!(m.token_wait_total(), Duration::from_nanos(250));
    }
}
