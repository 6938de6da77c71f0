//! The tracer→registry bridge.
//!
//! The engine already narrates everything through `gw-trace` lanes —
//! every chunk span, every fabric/storage/chaos counter bump. Rather
//! than threading a registry through the pipeline, fabric and storage
//! layers, [`TelemetryBridge`] implements [`gw_trace::EventSink`] and is
//! handed to `Tracer::with_sink`, so it observes every event *as it is
//! recorded* and folds the interesting ones into live metrics:
//!
//! - accounted `Chunk` span ends on pipeline lanes →
//!   `gw_node_chunk_wall_ns{node}` (timing histogram),
//!   `gw_node_stage_chunk_wall_ns{node,pipeline,stage}` (timing
//!   histogram, the health detector's node signal: a node's stages
//!   differ in service time by an order of magnitude, so it compares
//!   like with like), `gw_node_chunks_total{node}` (timing) and the
//!   fleet-wide `gw_engine_chunks_total` (logical);
//! - `Count` events → `gw_engine_<counter>_total{node}` (timing).
//!
//! **Why per-node series are timing-class.** The engine's determinism
//! contract pins per-lane *emission order* and job *output bytes*, not
//! *placement*: which node claims which split is a race the coordinator
//! resolves at runtime, shuffle message/byte counts depend on batching,
//! and run-pool hit/miss depends on recycle timing. So every per-node
//! engine counter is exported but excluded from the digest, while the
//! fleet-wide accounted-chunk total — a pure function of the input and
//! `JobConfig`, identical across runs and buffering levels — is the
//! logical engine signal the digest folds in.
//!
//! Jobs run on *virtual* nodes `0..slots`; the service registers the
//! physical node set at dispatch via [`TelemetryBridge::map_job`] so
//! exported series (and health findings) name physical nodes. Unmapped
//! jobs (one-shot runs) pass lane node ids through unchanged.
//!
//! The hot path is read-lock + cached handle: registration cost is paid
//! once per (metric, node) pair, after which each event costs one map
//! lookup and one relaxed atomic.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use gw_trace::{
    CounterId, Event, EventKind, EventSink, LaneId, PipelineKind, Realm, SpanId, StageId,
};

use crate::registry::{Class, Counter, Histogram, Registry};

/// Sanitized Prometheus-safe name for an engine counter:
/// `dfs.read.remote-fault` → `gw_engine_dfs_read_remote_fault_total`.
pub fn engine_counter_name(id: CounterId) -> String {
    let mut out = String::from("gw_engine_");
    for ch in id.name().chars() {
        out.push(match ch {
            '.' | '-' => '_',
            c => c,
        });
    }
    out.push_str("_total");
    out
}

#[derive(Debug, Default)]
struct BridgeState {
    /// job → physical node set (virtual lane node indexes into it).
    jobs: HashMap<u32, Vec<u32>>,
    chunk_wall: HashMap<u32, Histogram>,
    stage_wall: HashMap<(u32, PipelineKind, StageId), Histogram>,
    chunk_count: HashMap<u32, Counter>,
    engine: HashMap<(CounterId, u32), Counter>,
}

/// Live [`gw_trace::EventSink`] folding engine events into a
/// [`Registry`]; see the module docs.
#[derive(Debug)]
pub struct TelemetryBridge {
    registry: Arc<Registry>,
    chunk_total: Counter,
    state: RwLock<BridgeState>,
}

impl TelemetryBridge {
    /// A bridge writing into `registry`.
    pub fn new(registry: Arc<Registry>) -> Arc<Self> {
        let chunk_total = registry.counter("gw_engine_chunks_total", &[], Class::Logical);
        Arc::new(TelemetryBridge {
            registry,
            chunk_total,
            state: RwLock::new(BridgeState::default()),
        })
    }

    /// The registry this bridge writes into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Register the physical node set job `job` was dispatched onto;
    /// virtual node `i` in the job's lanes maps to `nodes[i]`.
    pub fn map_job(&self, job: u32, nodes: Vec<u32>) {
        self.state.write().jobs.insert(job, nodes);
    }

    /// Drop a completed job's mapping (handle caches are per physical
    /// node and stay).
    pub fn forget_job(&self, job: u32) {
        self.state.write().jobs.remove(&job);
    }

    fn phys_node(&self, lane: LaneId) -> u32 {
        let st = self.state.read();
        match st.jobs.get(&lane.job) {
            Some(nodes) => nodes.get(lane.node as usize).copied().unwrap_or(lane.node),
            None => lane.node,
        }
    }

    fn chunk_handles(&self, node: u32) -> (Histogram, Counter) {
        {
            let st = self.state.read();
            if let (Some(h), Some(c)) = (st.chunk_wall.get(&node), st.chunk_count.get(&node)) {
                return (h.clone(), c.clone());
            }
        }
        let label = node.to_string();
        let h = self
            .registry
            .histogram(crate::health::NODE_CHUNK_WALL, &[("node", &label)]);
        let c = self
            .registry
            .counter("gw_node_chunks_total", &[("node", &label)], Class::Timing);
        let mut st = self.state.write();
        st.chunk_wall.insert(node, h.clone());
        st.chunk_count.insert(node, c.clone());
        (h, c)
    }

    fn stage_handle(&self, node: u32, kind: PipelineKind, stage: StageId) -> Histogram {
        let key = (node, kind, stage);
        if let Some(h) = self.state.read().stage_wall.get(&key) {
            return h.clone();
        }
        let h = self.registry.histogram(
            crate::health::STAGE_CHUNK_WALL,
            &[
                ("node", &node.to_string()),
                ("pipeline", kind.name()),
                ("stage", stage.name_in(kind)),
            ],
        );
        self.state.write().stage_wall.insert(key, h.clone());
        h
    }

    fn engine_handle(&self, id: CounterId, node: u32) -> Counter {
        {
            let st = self.state.read();
            if let Some(c) = st.engine.get(&(id, node)) {
                return c.clone();
            }
        }
        let c = self.registry.counter(
            &engine_counter_name(id),
            &[("node", &node.to_string())],
            Class::Timing,
        );
        self.state.write().engine.insert((id, node), c.clone());
        c
    }
}

impl EventSink for TelemetryBridge {
    fn on_event(&self, lane: LaneId, event: &Event) {
        match event.kind {
            EventKind::End {
                span: SpanId::Chunk { .. },
                wall_ns,
                accounted: true,
                ..
            } => {
                let Realm::Pipeline { kind, stage, .. } = lane.realm else {
                    return;
                };
                let node = self.phys_node(lane);
                let (hist, cnt) = self.chunk_handles(node);
                hist.observe(wall_ns);
                self.stage_handle(node, kind, stage).observe(wall_ns);
                cnt.inc();
                self.chunk_total.inc();
            }
            EventKind::Count { counter, delta } => {
                let node = self.phys_node(lane);
                self.engine_handle(counter, node).add(delta);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw_trace::{PipelineKind, StageId, Tracer};
    use std::time::Duration;

    fn pipeline_lane(job: u32, node: u32) -> LaneId {
        LaneId {
            job,
            node,
            realm: Realm::Pipeline {
                kind: PipelineKind::Map,
                stage: StageId::Kernel,
                lane: 0,
            },
        }
    }

    #[test]
    fn chunk_ends_and_counts_land_on_physical_nodes() {
        let reg = Registry::new();
        let bridge = TelemetryBridge::new(Arc::clone(&reg));
        bridge.map_job(7, vec![3, 5]);

        let tracer = Tracer::with_sink(bridge.clone()).for_job(7);
        let lane = tracer.lane(pipeline_lane(0, 1)); // virtual node 1 → phys 5
        lane.begin(SpanId::Chunk { seq: 0 });
        lane.end(
            SpanId::Chunk { seq: 0 },
            Duration::from_micros(250),
            Duration::from_micros(250),
        );
        let storage = tracer.lane(LaneId {
            job: 0,
            node: 0, // virtual node 0 → phys 3
            realm: Realm::Storage,
        });
        storage.count(CounterId::DfsReadLocal, 4);

        let cnt = reg.counter("gw_node_chunks_total", &[("node", "5")], Class::Timing);
        assert_eq!(cnt.get(), 1, "chunk landed on physical node 5");
        let total = reg.counter("gw_engine_chunks_total", &[], Class::Logical);
        assert_eq!(total.get(), 1, "fleet-wide chunk total tracks the digest");
        let eng = reg.counter(
            "gw_engine_dfs_read_local_total",
            &[("node", "3")],
            Class::Timing,
        );
        assert_eq!(eng.get(), 4);
        let hist = reg.histogram(crate::health::NODE_CHUNK_WALL, &[("node", "5")]);
        assert_eq!(hist.cell().count(), 1);
        let stage = reg.histogram(
            crate::health::STAGE_CHUNK_WALL,
            &[("node", "5"), ("pipeline", "map"), ("stage", "kernel")],
        );
        assert_eq!(stage.cell().count(), 1, "and on its stage's series");
    }

    #[test]
    fn unaccounted_and_unmapped_events_are_safe() {
        let reg = Registry::new();
        let bridge = TelemetryBridge::new(Arc::clone(&reg));
        // No map_job: lane node passes through.
        let tracer = Tracer::with_sink(bridge);
        let lane = tracer.lane(pipeline_lane(0, 2));
        lane.begin(SpanId::Chunk { seq: 1 });
        lane.end_unaccounted(SpanId::Chunk { seq: 1 });
        let cnt = reg.counter("gw_node_chunks_total", &[("node", "2")], Class::Timing);
        assert_eq!(cnt.get(), 0, "unaccounted ends don't count chunks");
        lane.count(CounterId::GraySlowdowns, 1);
        let eng = reg.counter(
            "gw_engine_chaos_gray_slowdowns_total",
            &[("node", "2")],
            Class::Timing,
        );
        assert_eq!(eng.get(), 1);
    }

    #[test]
    fn sanitizer_handles_every_counter_id() {
        for id in [
            CounterId::DfsReadRemoteFault,
            CounterId::ShuffleSendBytes,
            CounterId::RunPoolHit,
        ] {
            let n = engine_counter_name(id);
            assert!(n.starts_with("gw_engine_") && n.ends_with("_total"));
            assert!(
                n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "{n}"
            );
        }
    }
}
