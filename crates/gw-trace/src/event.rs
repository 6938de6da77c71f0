//! The typed event vocabulary of the observability plane.
//!
//! Every event the engine emits is one of four shapes — span begin, span
//! end, instant mark, counter bump — addressed to one **lane** (a
//! node × realm pair: one lane per pipeline stage thread, plus per-node
//! storage/net/chaos lanes). The *identity* parts of an event (span ids,
//! marks, counter deltas) are functions of the seed and the job
//! configuration alone; the *timing* parts (`at_ns`, wall/modeled
//! durations) are not. [`LogicalKind`] is the projection that strips the
//! timing parts, and it is what the determinism tests compare.

use crate::stage::{PipelineKind, StageId};

/// One recorded event: nanoseconds since the owning tracer's epoch plus
/// the typed payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Wall-clock timestamp, nanoseconds since the tracer's epoch.
    pub at_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The payload of one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened on this lane.
    Begin {
        /// Which span.
        span: SpanId,
    },
    /// A span closed on this lane. `accounted: false` marks a structural
    /// span (an aborted chunk, a token wait): views over the stream must
    /// not fold its durations into per-stage totals.
    End {
        /// Which span.
        span: SpanId,
        /// Measured host time attributed to the span.
        wall_ns: u64,
        /// Model-transformed time attributed to the span.
        modeled_ns: u64,
        /// Whether the durations count toward stage totals.
        accounted: bool,
    },
    /// A point event on this lane.
    Instant {
        /// Which mark.
        mark: MarkId,
    },
    /// A monotonic counter bump on this lane.
    Count {
        /// Which counter.
        counter: CounterId,
        /// Increment (counters only ever grow).
        delta: u64,
    },
}

/// Span identity. Spans on one lane obey stack discipline: a `Begin` is
/// always closed by the next `End` carrying the same id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanId {
    /// One chunk's pass through the lane's stage (the chunk sequence
    /// number is the logical timestamp).
    Chunk {
        /// Chunk sequence number.
        seq: u64,
    },
    /// Waiting to acquire a §III-D buffer token.
    TokenWait {
        /// Interlock group index within the pipeline.
        group: u32,
        /// Chunk sequence number the acquire is on behalf of.
        seq: u64,
    },
}

/// Instant-mark identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkId {
    /// A chaos-injected node crash fired.
    CrashFired {
        /// Crash-site name (e.g. "kernel").
        site: &'static str,
        /// The passage count the site was armed at.
        after: u64,
    },
    /// A chaos fault was armed when the plan was installed.
    FaultArmed {
        /// Fault family ("crash", "read", "net-drop", "net-delay", ...).
        kind: &'static str,
        /// Family-specific detail (site index, block, nth message, ...).
        detail: u64,
    },
    /// A chaos storage read fault fired (one replica refused a read).
    ReadFaultFired {
        /// Block index the fault hit.
        block: u64,
    },
    /// A chaos network fault fired (message dropped or delayed).
    NetFaultFired {
        /// Fault kind name ("drop" / "delay").
        kind: &'static str,
    },
    /// A chaos task-level fault fired (recovered by the §III-E budget).
    TaskFaultFired,
    /// A chaos gray-failure transient stall fired: the stage passage was
    /// held for `ms` milliseconds, then continued normally.
    StallFired {
        /// Stalled site name (e.g. "kernel").
        site: &'static str,
        /// Injected stall length, milliseconds.
        ms: u64,
    },
    /// A chaos spill-file I/O fault fired (the intermediate store poisons
    /// and the job fails with a typed I/O error instead of panicking).
    SpillFaultFired {
        /// Faulted operation name ("write" / "read").
        op: &'static str,
    },
    /// The speculation controller launched a duplicate attempt for a
    /// straggling split.
    SpecLaunched {
        /// Input block of the speculated split.
        block: u64,
    },
    /// A speculation race resolved: the duplicate attempt won, was
    /// cancelled (primary finished first), or failed (its node died).
    SpecResolved {
        /// Input block of the speculated split.
        block: u64,
        /// Outcome name ("won" / "cancelled" / "failed").
        outcome: &'static str,
    },
    /// A DFS split read completed.
    DfsRead {
        /// Block index read.
        block: u64,
        /// Where the read was served from.
        class: ReadClass,
    },
    /// A stage was widened to multiple worker lanes. Emitted once per
    /// pipeline instantiation on the stage's lane-0 sub-lane before any
    /// chunk flows, and **only** when `lanes > 1`, so single-lane runs
    /// keep their exact pre-multi-lane logical streams. Post-hoc analysis
    /// reads it to seed the N-lane schedule recurrence with the lane
    /// counts the run actually used.
    StageLanes {
        /// The widened stage slot.
        stage: StageId,
        /// Number of worker lanes the stage ran with.
        lanes: u32,
    },
    /// §III-D interlock topology: emitted once per pipeline
    /// instantiation on the acquiring stage's lane, before any chunk
    /// flows, so post-hoc analysis can replay the buffer-token schedule
    /// without guessing which stages bound each circulating-token group.
    TokenGroup {
        /// Interlock group index within the pipeline.
        group: u32,
        /// Stage that acquires the group's token.
        first: StageId,
        /// Stage that releases it.
        last: StageId,
    },
}

/// Where a DFS read was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadClass {
    /// Served by the reader's own replica.
    Local,
    /// Served by a remote replica (no replica on the reader).
    Remote,
    /// Served remotely because a closer replica was dead or faulted.
    RemoteFault,
}

impl ReadClass {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            ReadClass::Local => "local",
            ReadClass::Remote => "remote",
            ReadClass::RemoteFault => "remote-fault",
        }
    }
}

/// Counter identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CounterId {
    /// DFS split reads served locally.
    DfsReadLocal,
    /// DFS split reads served by a remote replica.
    DfsReadRemote,
    /// DFS split reads served remotely because of a dead/faulted replica.
    DfsReadRemoteFault,
    /// Bytes read from the DFS.
    DfsReadBytes,
    /// Shuffle messages sent by this node.
    ShuffleSendMsgs,
    /// Shuffle wire bytes sent by this node.
    ShuffleSendBytes,
    /// Shuffle messages received by this node.
    ShuffleRecvMsgs,
    /// `RunPool` builder acquisitions served from the recycle pool.
    RunPoolHit,
    /// `RunPool` builder acquisitions that had to allocate fresh arenas.
    RunPoolMiss,
    /// Stage passages throttled by an armed gray-failure slowdown (one
    /// bump per throttled passage; the passage count is a function of the
    /// seed and job configuration, unlike the injected wall time).
    GraySlowdowns,
    /// Map kernel launches skipped because the chunk's split was already
    /// completed by another attempt (speculation superseded the work).
    SpecSuperseded,
    /// Runtime threads born for the job's tasks on this node (0 on a warm
    /// cluster: every role finds its parked thread idle).
    ThreadsSpawned,
}

impl CounterId {
    /// Stable dotted name for exports.
    pub fn name(self) -> &'static str {
        match self {
            CounterId::DfsReadLocal => "dfs.read.local",
            CounterId::DfsReadRemote => "dfs.read.remote",
            CounterId::DfsReadRemoteFault => "dfs.read.remote-fault",
            CounterId::DfsReadBytes => "dfs.read.bytes",
            CounterId::ShuffleSendMsgs => "shuffle.send.msgs",
            CounterId::ShuffleSendBytes => "shuffle.send.bytes",
            CounterId::ShuffleRecvMsgs => "shuffle.recv.msgs",
            CounterId::RunPoolHit => "runpool.reuse.hit",
            CounterId::RunPoolMiss => "runpool.reuse.miss",
            CounterId::GraySlowdowns => "chaos.gray.slowdowns",
            CounterId::SpecSuperseded => "spec.superseded",
            CounterId::ThreadsSpawned => "runtime.threads.spawned",
        }
    }
}

/// One event lane: a job × node × realm triple. The `Ord` impl defines
/// the canonical lane order of a [`crate::Trace`] (job-major, then
/// node-major, then realm in declaration order: pipeline stages first,
/// then storage/net/chaos/job). One-shot runs use `job: 0` everywhere,
/// so their canonical order is exactly the pre-service node × realm
/// order; a resident service stamps each submission's events with its
/// own job id so two jobs sharing a node never share a lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LaneId {
    /// Service job index (0 for one-shot runs).
    pub job: u32,
    /// Cluster node index.
    pub node: u32,
    /// Which subsystem of the node the lane belongs to.
    pub realm: Realm,
}

/// The subsystem a lane belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Realm {
    /// One pipeline stage worker lane (one thread). Single-lane stages
    /// use `lane: 0`; a stage widened to N lanes owns N sub-lanes, each
    /// with exactly one writer thread. `lane` sorts after `stage`, so
    /// sub-lanes of a stage stay adjacent in canonical trace order and
    /// all-lane-0 traces keep their pre-multi-lane order.
    Pipeline {
        /// Map or reduce pipeline.
        kind: PipelineKind,
        /// Stage slot.
        stage: StageId,
        /// Worker lane within the stage (0 for single-lane stages).
        lane: u32,
    },
    /// DFS reads.
    Storage,
    /// Shuffle fabric endpoint, egress side (send calls).
    Net,
    /// Shuffle fabric endpoint, ingress side. A separate lane because
    /// receives happen on a different thread than sends; one shared lane
    /// would make per-lane emission order racy.
    NetRx,
    /// Chaos plane (faults armed and fired).
    Chaos,
    /// Job-level events.
    Job,
    /// Split coordinator decisions affecting this node (speculation
    /// launches and race resolutions). Declared after [`Realm::Job`] so
    /// the canonical lane order of existing traces is unchanged.
    Coordinator,
}

impl Realm {
    /// Display name of the lane within its node.
    pub fn lane_name(self) -> String {
        match self {
            Realm::Pipeline { kind, stage, lane } => {
                if lane == 0 {
                    format!("{}/{}", kind.name(), stage.name_in(kind))
                } else {
                    format!("{}/{}#{}", kind.name(), stage.name_in(kind), lane)
                }
            }
            Realm::Storage => "storage".to_string(),
            Realm::Net => "net-tx".to_string(),
            Realm::NetRx => "net-rx".to_string(),
            Realm::Chaos => "chaos".to_string(),
            Realm::Job => "job".to_string(),
            Realm::Coordinator => "coordinator".to_string(),
        }
    }
}

/// The seed-deterministic projection of an [`EventKind`]: identity parts
/// only, wall timestamps and measured durations stripped. For a fixed
/// `(seed, JobConfig)` the per-lane sequence of logical events is
/// byte-reproducible across runs and across buffering levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogicalKind {
    /// Span opened.
    Begin {
        /// Which span.
        span: SpanId,
    },
    /// Span closed.
    End {
        /// Which span.
        span: SpanId,
        /// Whether the span counted toward stage totals.
        accounted: bool,
    },
    /// Point event.
    Instant {
        /// Which mark.
        mark: MarkId,
    },
    /// Counter bump.
    Count {
        /// Which counter.
        counter: CounterId,
        /// Increment.
        delta: u64,
    },
}

impl EventKind {
    /// Project away the nondeterministic timing parts.
    pub fn logical(self) -> LogicalKind {
        match self {
            EventKind::Begin { span } => LogicalKind::Begin { span },
            EventKind::End {
                span, accounted, ..
            } => LogicalKind::End { span, accounted },
            EventKind::Instant { mark } => LogicalKind::Instant { mark },
            EventKind::Count { counter, delta } => LogicalKind::Count { counter, delta },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_projection_strips_durations_but_keeps_identity() {
        let a = EventKind::End {
            span: SpanId::Chunk { seq: 3 },
            wall_ns: 1_000,
            modeled_ns: 2_000,
            accounted: true,
        };
        let b = EventKind::End {
            span: SpanId::Chunk { seq: 3 },
            wall_ns: 999_999,
            modeled_ns: 1,
            accounted: true,
        };
        assert_eq!(a.logical(), b.logical());
        let c = EventKind::End {
            span: SpanId::Chunk { seq: 4 },
            wall_ns: 1_000,
            modeled_ns: 2_000,
            accounted: true,
        };
        assert_ne!(a.logical(), c.logical());
    }

    #[test]
    fn lane_order_is_node_major_then_pipeline_first() {
        let map_input = LaneId {
            job: 0,
            node: 0,
            realm: Realm::Pipeline {
                kind: PipelineKind::Map,
                stage: StageId::Input,
                lane: 0,
            },
        };
        let reduce_output = LaneId {
            job: 0,
            node: 0,
            realm: Realm::Pipeline {
                kind: PipelineKind::Reduce,
                stage: StageId::Partition,
                lane: 0,
            },
        };
        let storage = LaneId {
            job: 0,
            node: 0,
            realm: Realm::Storage,
        };
        let other_node = LaneId {
            job: 0,
            node: 1,
            realm: Realm::Pipeline {
                kind: PipelineKind::Map,
                stage: StageId::Input,
                lane: 0,
            },
        };
        assert!(map_input < reduce_output);
        assert!(reduce_output < storage);
        assert!(storage < other_node);
    }

    #[test]
    fn sub_lanes_of_a_stage_sort_adjacent_and_after_lane_zero() {
        let pipe = |stage, lane| LaneId {
            job: 0,
            node: 0,
            realm: Realm::Pipeline {
                kind: PipelineKind::Map,
                stage,
                lane,
            },
        };
        // input#0 < input#1 < kernel#0: lanes nest inside the stage order.
        assert!(pipe(StageId::Input, 0) < pipe(StageId::Input, 1));
        assert!(pipe(StageId::Input, 1) < pipe(StageId::Kernel, 0));
        assert_eq!(
            pipe(StageId::Input, 1).realm.lane_name(),
            "map/input#1".to_string()
        );
        assert_eq!(
            pipe(StageId::Input, 0).realm.lane_name(),
            "map/input".to_string()
        );
    }
}
