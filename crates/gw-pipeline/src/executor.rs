//! The bounded-stage executor.
//!
//! A pipeline is a pulling [`Source`] followed by a chain of [`Stage`]s.
//! The executor runs one scoped task per *lane* of each stage on a
//! [`Runtime`] (the caller's, or one local to the call), links them with
//! bounded handoff channels, and owns every cross-cutting concern the
//! stages themselves used to copy-paste:
//!
//! * **§III-D buffer tokens** — each [`PipelineBuilder::interlock`] group
//!   (e.g. the map pipeline's input group Input→Kernel and output group
//!   Kernel→Partition) is a semaphore of `B =`
//!   [`Buffering::depth`](crate::Buffering::depth) permits. A chunk
//!   acquires the group's permit before its first stage runs and carries
//!   it until its last stage completes, so at most `B` chunks are ever in
//!   flight inside the group — enforced here, not by ad-hoc channel
//!   capacities. A high-water gauge per group backs the property test
//!   pinning that invariant.
//! * **Lanes** — a slot may run several worker lanes
//!   ([`PipelineBuilder::stage_lanes`], [`PipelineBuilder::source_lanes`]).
//!   Chunks are dealt round-robin by sequence number (chunk `s` runs on
//!   lane `s mod N` of an N-lane slot), the handoff between adjacent slots
//!   is an N×M matrix of bounded channels, and every consumer pulls its
//!   expected sequence numbers in order from the producer lane that owns
//!   each one — so a single-lane consumer (and the final stage) sees
//!   chunks in exactly the global sequence order, byte-identical for
//!   every lane count, with no separate reorder-buffer thread. A chunk
//!   consumed mid-graph leaves a `Payload::Skip` hole that keeps
//!   sequence numbers dense. Input claims and token-permit acquisition
//!   stay in global sequence order (per-slot turn-taking), which is what
//!   keeps the B-bounded interlocks deadlock-free at any lane count: a
//!   permit can only ever be held by a seq whose predecessors already
//!   acquired theirs.
//! * **Crash probing and dead/abort flags** — between chunks the executor
//!   consults the [`PipelineProbe`]: `should_abort` unwinds the stage
//!   quietly (marking the node dead), `crash_fires` injects a node
//!   death at this stage's crash site, addressed per lane. The source
//!   is probed *after* it produces a chunk, so an injected Read crash
//!   dies holding the fresh claim.
//! * **Timing** — every chunk's pass through a stage closes a trace span
//!   carrying its (wall, modeled) time; the default window is the whole
//!   `run_chunk` call, and a stage needing a narrower one calls
//!   [`StageCtx::add_time`]. A source's span opens only once its claim
//!   admitted a chunk, so end of input is not a chunk. The executor keeps
//!   no totals of its own: stage timers are a fold of the finished trace.
//! * **Unwinding** — a stage error or panic kills the probe, drops the
//!   stage's channel endpoints and lets the graph drain deterministically:
//!   upstream sends fail, downstream receives drain, queued chunks drop
//!   (returning their permits), and the first error in stage order is
//!   surfaced. Stage panics propagate after every lane has been joined;
//!   turn-taking slots release their siblings on every exit path.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};

use gw_trace::{EventKind, Lane, LaneId, MarkId, Realm, SpanId, Tracer};

use crate::runtime::{Role, RoleKey, Runtime};
use crate::{Buffering, PipelineKind, StageId};

/// A stage's view of the executor while it handles one chunk.
pub struct StageCtx<'p> {
    stage: StageId,
    seq: usize,
    lane: u32,
    probe: Option<&'p dyn PipelineProbe>,
    timing: Option<(Duration, Duration)>,
    stopped: bool,
}

impl<'p> StageCtx<'p> {
    fn new(stage: StageId, seq: usize, lane: u32, probe: Option<&'p dyn PipelineProbe>) -> Self {
        StageCtx {
            stage,
            seq,
            lane,
            probe,
            timing: None,
            stopped: false,
        }
    }

    /// Sequence number of the chunk being handled (dense from 0).
    pub fn seq(&self) -> usize {
        self.seq
    }

    /// The stage slot this context belongs to.
    pub fn stage(&self) -> StageId {
        self.stage
    }

    /// Lane index within the stage slot (0 for single-lane slots). A
    /// widened stage handles chunk `seq` on lane `seq mod N`, so this is
    /// fully determined by [`StageCtx::seq`] — exposed for stages that
    /// name per-lane resources (scratch buffers).
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Override the default whole-call timing window for this chunk with
    /// an explicit (wall, modeled) pair. Multiple calls accumulate.
    pub fn add_time(&mut self, wall: Duration, modeled: Duration) {
        let (w, m) = self.timing.unwrap_or((Duration::ZERO, Duration::ZERO));
        self.timing = Some((w + wall, m + modeled));
    }

    /// Charge an injected gray delay to an explicit timing override too:
    /// the executor slept it after the stage returned, so without this a
    /// stage that reports its own window would hide the slowdown.
    fn stretch(&mut self, extra: Duration) {
        if let Some((wall, modeled)) = &mut self.timing {
            *wall += extra;
            *modeled += extra;
        }
    }

    /// Probe the dead/abort flags; returns `true` (after marking the node
    /// dead) when the stage must unwind. Blocking sources call this inside
    /// their wait loops; the executor calls it once per chunk.
    pub fn should_stop(&mut self) -> bool {
        if self.stopped {
            return true;
        }
        if let Some(p) = self.probe {
            if p.should_abort(self.stage) {
                p.kill();
                self.stopped = true;
                return true;
            }
        }
        false
    }

    /// Ask the executor to unwind this stage quietly after the current
    /// call returns (e.g. a recycling pool closed because a downstream
    /// stage died).
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Probe the task-level injected fault for this node (the reduce-site
    /// fault of the chaos plane); `false` without a probe.
    pub fn task_fault_fires(&self) -> bool {
        self.probe.is_some_and(|p| p.task_fault_fires())
    }

    fn take_timing(&mut self) -> Option<(Duration, Duration)> {
        self.timing.take()
    }
}

/// The executor's hook into the fault plane. One implementation adapts the
/// chaos `CrashSite` plan and the coordinator's dead/abort flags; the
/// executor itself stays free of any chaos dependency.
pub trait PipelineProbe: Send + Sync {
    /// Checked between chunks (and by blocking sources): `true` = this
    /// stage must unwind. `stage` lets implementations fold in
    /// stage-specific liveness (the map input stage also watches the
    /// coordinator's dead/abort flags).
    fn should_abort(&self, stage: StageId) -> bool;

    /// Crash-site probe for lane `lane` of `stage` (0 on a single-lane
    /// slot), counted per passage: `true` = the node dies now.
    fn crash_fires(&self, stage: StageId, lane: u32) -> bool;

    /// Mark the node dead. Called when a crash fires, when `should_abort`
    /// trips, and when any stage returns an error or panics.
    fn kill(&self);

    /// Task-level injected fault, probed by kernel stages inside their
    /// retry scope (a panic recovered by the §III-E budget, not a node
    /// death).
    fn task_fault_fires(&self) -> bool {
        false
    }

    /// Gray-failure probe, called after lane `lane` of `stage` processed
    /// a chunk in `wall` time: `Some(extra)` = this passage must be
    /// stretched by sleeping `extra` (a slowdown or transient stall is
    /// scheduled). The default keeps unarmed pipelines zero-cost.
    fn gray_delay(&self, stage: StageId, lane: u32, wall: Duration) -> Option<Duration> {
        let _ = (stage, lane, wall);
        None
    }
}

/// Head of a pipeline: pulls work into the graph.
pub trait Source<T, E>: Send {
    /// Produce the next chunk, or `Ok(None)` when the input is exhausted.
    /// The executor admits the chunk into its token group *before* this
    /// call, so production itself is interlocked (§III-D: a split is only
    /// read into a free buffer set). Long waits inside this call should
    /// poll [`StageCtx::should_stop`].
    fn next_chunk(&mut self, ctx: &mut StageCtx<'_>) -> Result<Option<T>, E>;
}

/// Head of a pipeline when the source slot runs several lanes. The cheap,
/// order-sensitive *claim* (e.g. asking the coordinator for the next
/// split) is serialized across lanes in global sequence order under the
/// slot's claim turn, while the expensive *produce* (reading and parsing
/// the split) runs outside the turn, overlapped across lanes.
///
/// One instance is constructed per lane; instances share whatever state
/// they need (coordinator handles, buffer pools) behind their own
/// synchronization.
pub trait LaneSource<T, E>: Send {
    /// Claim the next unit of input for this lane. Called in global
    /// sequence order across all lanes of the slot (never concurrently
    /// with a sibling's claim). `Ok(false)` ends the whole slot: the
    /// input is exhausted or the source was asked to stop.
    fn claim(&mut self, ctx: &mut StageCtx<'_>) -> Result<bool, E>;

    /// Materialize the chunk for this lane's last successful
    /// [`LaneSource::claim`]. Runs outside the claim turn, concurrently
    /// with sibling lanes.
    fn produce(&mut self, ctx: &mut StageCtx<'_>) -> Result<T, E>;
}

/// Adapter running a classic [`Source`] as the only lane of its slot:
/// the whole production happens at claim time (there is no sibling to
/// overlap with), so it lands in the chunk's timing window but before
/// its span opens.
struct LegacySource<'a, T, E> {
    inner: Box<dyn Source<T, E> + 'a>,
    pending: Option<T>,
}

impl<'a, T: Send, E> LaneSource<T, E> for LegacySource<'a, T, E> {
    fn claim(&mut self, ctx: &mut StageCtx<'_>) -> Result<bool, E> {
        self.pending = self.inner.next_chunk(ctx)?;
        Ok(self.pending.is_some())
    }

    fn produce(&mut self, _ctx: &mut StageCtx<'_>) -> Result<T, E> {
        Ok(self.pending.take().expect("claim() admitted a chunk"))
    }
}

/// One stage of a pipeline.
pub trait Stage<T, E>: Send {
    /// Handle one chunk. `Ok(Some)` forwards a chunk downstream (dropped
    /// if this is the last stage); `Ok(None)` consumes it.
    fn run_chunk(&mut self, chunk: T, ctx: &mut StageCtx<'_>) -> Result<Option<T>, E>;
}

/// Borrow half of a recycling payload pool: blocks for the next free
/// payload, `None` once every [`PoolPut`] is gone (the returning stage
/// died and the pool can never refill). Cloneable so the lanes of a
/// widened stage can share one pool.
pub struct PoolGet<P>(Receiver<P>);

/// Return half of a recycling payload pool.
pub struct PoolPut<P>(Sender<P>);

impl<P> Clone for PoolGet<P> {
    fn clone(&self) -> Self {
        PoolGet(self.0.clone())
    }
}

impl<P> Clone for PoolPut<P> {
    fn clone(&self) -> Self {
        PoolPut(self.0.clone())
    }
}

impl<P> PoolGet<P> {
    /// Next free payload; `None` when the pool closed.
    pub fn take(&self) -> Option<P> {
        self.0.recv().ok()
    }
}

impl<P> PoolPut<P> {
    /// Return a payload to the pool (dropped if no taker remains).
    pub fn put(&self, payload: P) {
        let _ = self.0.send(payload);
    }
}

/// Build a recycling pool primed with `payloads` (the §III-D buffer sets:
/// device staging buffers, output collectors). Sized pools never block a
/// permit holder: with `B` payloads and `B` executor permits over the same
/// stages, every holder of a payload also holds a permit.
pub fn token_pool<P>(payloads: impl IntoIterator<Item = P>) -> (PoolGet<P>, PoolPut<P>) {
    let payloads: Vec<P> = payloads.into_iter().collect();
    let (tx, rx) = bounded(payloads.len().max(1));
    for p in payloads {
        tx.send(p).expect("prime token pool");
    }
    (PoolGet(rx), PoolPut(tx))
}

/// Witness that a retried task exhausted its §III-E re-execution budget.
#[derive(Debug)]
pub struct RetryExhausted {
    /// Total attempts made (budget + 1).
    pub attempts: usize,
}

/// The §III-E task re-execution loop shared by both kernel stages: run
/// `attempt` under `catch_unwind`; on a panic, discard the attempt's
/// partial output via `rollback` and re-execute, up to `budget` times.
/// Returns the result and how many retries were spent, or
/// [`RetryExhausted`] once the budget is gone.
pub fn run_task_with_retries<C, R>(
    budget: usize,
    state: &mut C,
    mut attempt: impl FnMut(&mut C) -> R,
    mut rollback: impl FnMut(&mut C),
) -> Result<(R, usize), RetryExhausted> {
    let mut retried = 0usize;
    loop {
        match catch_unwind(AssertUnwindSafe(|| attempt(state))) {
            Ok(r) => return Ok((r, retried)),
            Err(_) if retried < budget => {
                retried += 1;
                rollback(state);
            }
            Err(_) => {
                return Err(RetryExhausted {
                    attempts: retried + 1,
                })
            }
        }
    }
}

/// Outcome of a completed pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineStats {
    /// Lanes the graph ran, one runtime task each: every lane of the
    /// source and of each stage.
    pub stage_threads: usize,
    /// Lane count per slot, in pipeline order.
    pub lanes: Vec<(StageId, usize)>,
    /// Chunks emitted by the source.
    pub chunks: usize,
    /// High-water mark of in-flight chunks across the token groups; never
    /// exceeds the buffering depth `B`, regardless of lane counts.
    pub max_in_flight: usize,
}

/// In-flight gauge for one token group (current + high-water).
#[derive(Debug, Default)]
struct InFlightGauge {
    current: AtomicUsize,
    max: AtomicUsize,
}

impl InFlightGauge {
    fn inc(&self) {
        let now = self.current.fetch_add(1, Ordering::SeqCst) + 1;
        self.max.fetch_max(now, Ordering::SeqCst);
    }

    fn dec(&self) {
        self.current.fetch_sub(1, Ordering::SeqCst);
    }

    fn high_water(&self) -> usize {
        self.max.load(Ordering::SeqCst)
    }
}

/// One held token-group slot; returns itself (and decrements the gauge)
/// on drop, so unwinding anywhere releases the interlock.
struct Permit {
    slot: Sender<()>,
    gauge: Arc<InFlightGauge>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.gauge.dec();
        let _ = self.slot.send(());
    }
}

/// The acquire side of one token group, cloned to every lane of the
/// group's first stage (clones share the permit channel and gauge, so
/// `B` bounds the group across all lanes together).
#[derive(Clone)]
struct Acquirer {
    group: usize,
    rx: Receiver<()>,
    tx: Sender<()>,
    gauge: Arc<InFlightGauge>,
}

impl Acquirer {
    fn acquire(&self) -> Option<Permit> {
        self.rx.recv().ok()?;
        self.gauge.inc();
        Some(Permit {
            slot: self.tx.clone(),
            gauge: Arc::clone(&self.gauge),
        })
    }
}

/// Seq-ordered turn-taking across the lanes of one slot. Multi-lane
/// sources claim under it (so split→seq assignment is deterministic and
/// permit acquisition happens in seq order); multi-lane acquiring stages
/// admit chunks into their token groups under it (out-of-order
/// acquisition would trap a permit inside a queued envelope and deadlock
/// whenever `B <` lane count).
struct Turn {
    state: Mutex<TurnState>,
    cv: Condvar,
}

struct TurnState {
    next: usize,
    done: bool,
}

impl Turn {
    fn new() -> Self {
        Turn {
            state: Mutex::new(TurnState {
                next: 0,
                done: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Block until `seq`'s turn comes up; `false` once the slot finished
    /// (a sibling lane stopped advancing) and the turn can never arrive.
    fn wait_for(&self, seq: usize) -> bool {
        let mut s = self.state.lock();
        loop {
            if s.done {
                return false;
            }
            if s.next >= seq {
                return true;
            }
            self.cv.wait(&mut s);
        }
    }

    fn advance(&self, next: usize) {
        let mut s = self.state.lock();
        if next > s.next {
            s.next = next;
        }
        drop(s);
        self.cv.notify_all();
    }

    fn finish(&self) {
        self.state.lock().done = true;
        self.cv.notify_all();
    }
}

/// Arms a [`Turn::finish`] on every abnormal lane exit (including a lane
/// panic, via `Drop`), so sibling lanes blocked on the turn never wait on
/// a lane that will no longer advance it. Disarmed only on the one exit
/// where siblings may still hold live work: normal end-of-stream.
struct TurnFinishGuard {
    turn: Option<Arc<Turn>>,
    armed: bool,
}

impl TurnFinishGuard {
    fn new(turn: Option<Arc<Turn>>) -> Self {
        TurnFinishGuard { turn, armed: true }
    }

    fn turn(&self) -> Option<&Turn> {
        self.turn.as_deref()
    }

    fn fire(&mut self) {
        if self.armed {
            self.armed = false;
            if let Some(t) = &self.turn {
                t.finish();
            }
        }
    }

    fn disarm(&mut self) {
        self.armed = false;
    }
}

impl Drop for TurnFinishGuard {
    fn drop(&mut self) {
        self.fire();
    }
}

/// Per-stage event emitter onto the stage's trace lane (a no-op on
/// untraced pipelines). Each lane of a widened slot gets its own emitter
/// on its own trace sub-lane, keeping the tracer's single-writer
/// invariant.
struct StageEvents {
    lane: Option<Lane>,
}

impl StageEvents {
    fn emit(&self, kind: EventKind) {
        if let Some(lane) = &self.lane {
            lane.record(kind);
        }
    }

    /// §III-D token-acquire wait region (closed even when the acquire
    /// fails because the pool closed).
    fn token_wait_begin(&self, group: usize, seq: usize) {
        self.emit(EventKind::Begin {
            span: SpanId::TokenWait {
                group: group as u32,
                seq: seq as u64,
            },
        });
    }

    fn token_wait_end(&self, group: usize, seq: usize) {
        self.emit(EventKind::End {
            span: SpanId::TokenWait {
                group: group as u32,
                seq: seq as u64,
            },
            wall_ns: 0,
            modeled_ns: 0,
            accounted: false,
        });
    }

    fn chunk_begin(&self, seq: usize) {
        self.emit(EventKind::Begin {
            span: SpanId::Chunk { seq: seq as u64 },
        });
    }

    /// A chunk completed this stage: the accounted span end carries the
    /// (wall, modeled) pair — the stage's [`StageCtx::add_time`] override
    /// or the default whole-call window.
    fn chunk_end(&self, seq: usize, default_wall: Duration, over: Option<(Duration, Duration)>) {
        let (wall, modeled) = over.unwrap_or((default_wall, default_wall));
        self.emit(EventKind::End {
            span: SpanId::Chunk { seq: seq as u64 },
            wall_ns: wall.as_nanos() as u64,
            modeled_ns: modeled.as_nanos() as u64,
            accounted: true,
        });
    }

    /// A chunk span that must not count: source exhaustion, injected
    /// crash, quiet unwind or stage error.
    fn chunk_abort(&self, seq: usize) {
        self.emit(EventKind::End {
            span: SpanId::Chunk { seq: seq as u64 },
            wall_ns: 0,
            modeled_ns: 0,
            accounted: false,
        });
    }
}

/// Kill the node through `probe` unless a lane's body returned `Ok`: a
/// lane that fails — by error *or* by panic — must not leave a sibling
/// lane waiting on work this node will never finish (the map input lane
/// would otherwise wait for a map completion that cannot come, and the
/// executor joins it first).
fn kill_unless_ok<E>(
    probe: Option<&dyn PipelineProbe>,
    outcome: &std::thread::Result<Result<(), E>>,
) {
    if !matches!(outcome, Ok(Ok(()))) {
        if let Some(p) = probe {
            p.kill();
        }
    }
}

/// Envelope payload: a live chunk, or the hole left by a chunk consumed
/// upstream. `Skip` keeps sequence numbers dense so every downstream
/// lane's expected-seq arithmetic — and thus deterministic reassembly —
/// survives mid-graph consumption; it carries no permits, emits no
/// events and probes no crash sites (a consumed chunk never reached
/// these stages before lanes existed either).
enum Payload<T> {
    Chunk(T),
    Skip,
}

/// A chunk travelling the graph with the permits it holds.
struct Envelope<T> {
    seq: usize,
    payload: Payload<T>,
    permits: Vec<Option<Permit>>,
}

/// One slot's worth of source lanes.
type SourceLanes<'a, T, E> = Vec<Box<dyn LaneSource<T, E> + 'a>>;
/// One slot's worth of stage lanes.
type StageLaneVec<'a, T, E> = Vec<Box<dyn Stage<T, E> + 'a>>;
/// One slot gap's channel matrix, rows/columns taken lane by lane.
type LaneMatrix<H> = Vec<Vec<Option<Vec<H>>>>;

/// Declarative wiring for one pipeline instantiation.
pub struct PipelineBuilder<'a, T, E> {
    kind: PipelineKind,
    depth: usize,
    source: Option<(StageId, SourceLanes<'a, T, E>)>,
    stages: Vec<(StageId, StageLaneVec<'a, T, E>)>,
    interlocks: Vec<(StageId, StageId)>,
    probe: Option<Box<dyn PipelineProbe + 'a>>,
    tracer: Option<(Arc<Tracer>, u32)>,
    runtime: Option<(&'a Runtime, u32)>,
}

impl<'a, T: Send + 'a, E: Send + 'a> PipelineBuilder<'a, T, E> {
    /// Start a pipeline of the given kind and buffering level.
    pub fn new(kind: PipelineKind, buffering: Buffering) -> Self {
        PipelineBuilder {
            kind,
            depth: buffering.depth(),
            source: None,
            stages: Vec::new(),
            interlocks: Vec::new(),
            probe: None,
            tracer: None,
            runtime: None,
        }
    }

    /// The pipeline kind this builder was created with.
    pub fn kind(&self) -> PipelineKind {
        self.kind
    }

    /// Install the source under stage slot `id` (one lane).
    pub fn source(mut self, id: StageId, source: impl Source<T, E> + 'a) -> Self {
        let lane: Box<dyn LaneSource<T, E> + 'a> = Box::new(LegacySource {
            inner: Box::new(source),
            pending: None,
        });
        self.source = Some((id, vec![lane]));
        self
    }

    /// Install `lanes.len()` source lanes under slot `id`. Claims run in
    /// global sequence order across lanes (the coordinator interaction
    /// stays deterministic); production overlaps.
    pub fn source_lanes(mut self, id: StageId, lanes: Vec<Box<dyn LaneSource<T, E> + 'a>>) -> Self {
        assert!(!lanes.is_empty(), "source_lanes needs at least one lane");
        self.source = Some((id, lanes));
        self
    }

    /// Append a stage under slot `id` (one lane).
    pub fn stage(self, id: StageId, stage: impl Stage<T, E> + 'a) -> Self {
        self.stage_lanes(id, vec![Box::new(stage)])
    }

    /// Append `lanes.len()` worker lanes under slot `id`: chunk `seq`
    /// runs on lane `seq mod N`, and the slot's exit re-presents chunks
    /// to the next slot in sequence order.
    pub fn stage_lanes(mut self, id: StageId, lanes: Vec<Box<dyn Stage<T, E> + 'a>>) -> Self {
        assert!(!lanes.is_empty(), "stage_lanes needs at least one lane");
        self.stages.push((id, lanes));
        self
    }

    /// Declare a §III-D token group spanning stages `first..=last`: at
    /// most `B` chunks live between the group's endpoints at any moment.
    /// Both endpoints must be slots of this graph.
    pub fn interlock(mut self, first: StageId, last: StageId) -> Self {
        self.interlocks.push((first, last));
        self
    }

    /// Arm the crash/abort probe.
    pub fn probe(mut self, probe: impl PipelineProbe + 'a) -> Self {
        self.probe = Some(Box::new(probe));
        self
    }

    /// Attach the observability plane: every stage of this pipeline
    /// records span/instant events onto a `tracer` lane addressed as
    /// `node` × pipeline kind × stage × lane.
    pub fn tracer(mut self, tracer: Arc<Tracer>, node: u32) -> Self {
        self.tracer = Some((tracer, node));
        self
    }

    /// Run every lane as a task of `runtime`, keyed
    /// `(host, Role::Stage(kind, slot), lane)` with `host` the physical
    /// node. Without one, `run` uses a runtime local to the call.
    pub fn runtime(mut self, runtime: &'a Runtime, host: u32) -> Self {
        self.runtime = Some((runtime, host));
        self
    }

    /// Run the graph to completion. Returns the first stage error in
    /// pipeline order, after the whole graph has drained and joined;
    /// re-raises stage panics.
    pub fn run(mut self) -> Result<PipelineStats, E> {
        let depth = self.depth;
        let (source_id, sources) = self.source.take().expect("pipeline needs a source");
        let n_src = sources.len();
        let mut stages = std::mem::take(&mut self.stages);
        let n_slots = 1 + stages.len();

        // Resolve token groups onto stage positions (0 = source).
        let ids: Vec<StageId> = std::iter::once(source_id)
            .chain(stages.iter().map(|(id, _)| *id))
            .collect();
        let lane_counts: Vec<usize> = std::iter::once(n_src)
            .chain(stages.iter().map(|(_, lanes)| lanes.len()))
            .collect();
        let mut acquire_at: Vec<Vec<Acquirer>> = (0..n_slots).map(|_| Vec::new()).collect();
        let mut release_at: Vec<Vec<usize>> = (0..n_slots).map(|_| Vec::new()).collect();
        let mut gauges: Vec<Arc<InFlightGauge>> = Vec::new();
        let position = |end: StageId| {
            ids.iter()
                .position(|id| *id == end)
                .expect("interlock endpoint is a slot of this graph")
        };
        for &(first, last) in &self.interlocks {
            let (a, r) = (position(first), position(last));
            assert!(a <= r, "interlock runs downstream");
            let group = gauges.len();
            let gauge = Arc::new(InFlightGauge::default());
            let (tx, rx) = bounded(depth);
            for _ in 0..depth {
                tx.send(()).expect("prime interlock");
            }
            acquire_at[a].push(Acquirer {
                group,
                rx,
                tx,
                gauge: Arc::clone(&gauge),
            });
            release_at[r].push(group);
            gauges.push(gauge);
        }
        let n_groups = gauges.len();

        let probe_box = self.probe.take();
        let probe: Option<&dyn PipelineProbe> = probe_box.as_deref();
        let chunks_emitted = AtomicUsize::new(0);

        let kind = self.kind;
        let tracer = self.tracer.take();
        let events_for = |id: StageId, lane_idx: u32| StageEvents {
            lane: tracer.as_ref().map(|(t, node)| {
                t.lane(LaneId {
                    job: 0,
                    node: *node,
                    realm: Realm::Pipeline {
                        kind,
                        stage: id,
                        lane: lane_idx,
                    },
                })
            }),
        };

        // §III-D topology marks: one per token group, on the acquiring
        // stage's lane-0 sub-lane, emitted before any stage task starts
        // so the mark leads that lane and per-lane order stays
        // deterministic. Post-hoc analysis replays the buffer-token
        // schedule from these instead of guessing the group endpoints.
        for (group, &(first, last)) in self.interlocks.iter().enumerate() {
            events_for(first, 0).emit(EventKind::Instant {
                mark: MarkId::TokenGroup {
                    group: group as u32,
                    first,
                    last,
                },
            });
        }
        // Lane-plan marks: one per widened slot, also before any task on the
        // slot's lane-0 sub-lane, so analysis learns the lane count even
        // when some lanes never record a chunk.
        for (pos, &n) in lane_counts.iter().enumerate() {
            if n > 1 {
                events_for(ids[pos], 0).emit(EventKind::Instant {
                    mark: MarkId::StageLanes {
                        stage: ids[pos],
                        lanes: n as u32,
                    },
                });
            }
        }

        let mut acquire_iter = acquire_at.into_iter();
        let source_acquires = acquire_iter.next().expect("source position");
        let source_releases = release_at[0].clone();

        let local;
        let (runtime, host) = match self.runtime {
            Some(rt) => rt,
            None => {
                local = Runtime::new();
                (&local, 0)
            }
        };
        let role =
            |id: StageId, lane: usize| RoleKey::new(host, Role::Stage(kind, id), lane as u32);

        let result = runtime.scope(|scope| -> Result<(), E> {
            // The handoff between adjacent slots is a K×L matrix of
            // bounded(1) channels: producer lane `a` owns row `a` (one
            // sender per consumer lane), consumer lane `b` owns column
            // `b` (one receiver per producer lane). Chunk `seq` travels
            // channel `[seq mod K][seq mod L]`; each consumer pulls its
            // expected seqs in order, which *is* the reorder buffer.
            let n_gaps = n_slots.saturating_sub(1);
            let mut tx_rows: LaneMatrix<Sender<Envelope<T>>> = Vec::with_capacity(n_gaps);
            let mut rx_cols: LaneMatrix<Receiver<Envelope<T>>> = Vec::with_capacity(n_gaps);
            for g in 0..n_gaps {
                let k = lane_counts[g];
                let l = lane_counts[g + 1];
                let mut rows: Vec<Vec<Sender<Envelope<T>>>> =
                    (0..k).map(|_| Vec::with_capacity(l)).collect();
                let mut cols: Vec<Vec<Receiver<Envelope<T>>>> =
                    (0..l).map(|_| Vec::with_capacity(k)).collect();
                for row in rows.iter_mut() {
                    for col in cols.iter_mut() {
                        let (tx, rx) = bounded(1);
                        row.push(tx);
                        col.push(rx);
                    }
                }
                tx_rows.push(rows.into_iter().map(Some).collect());
                rx_cols.push(cols.into_iter().map(Some).collect());
            }

            // ---- Source lanes ----
            let chunks_emitted = &chunks_emitted;
            let src_turn: Option<Arc<Turn>> = (n_src > 1).then(|| Arc::new(Turn::new()));
            let mut source_handles = Vec::with_capacity(n_src);
            for (lane_idx, mut src) in sources.into_iter().enumerate() {
                let txs: Option<Vec<Sender<Envelope<T>>>> = tx_rows
                    .first_mut()
                    .map(|rows| rows[lane_idx].take().expect("source tx row"));
                let acquires = source_acquires.clone();
                let releases = source_releases.clone();
                let events = events_for(source_id, lane_idx as u32);
                let turn = src_turn.clone();
                let key = role(source_id, lane_idx);
                source_handles.push(scope.spawn(key, move || -> Result<(), E> {
                    let lane = lane_idx as u32;
                    let mut guard = TurnFinishGuard::new(turn);
                    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(), E> {
                        let mut iter = 0usize;
                        'produce: loop {
                            let seq = lane_idx + iter * n_src;
                            iter += 1;
                            // Claim turns keep multi-lane claims *and*
                            // permit acquisition in global seq order
                            // (turn-before-permit: the reverse deadlocks
                            // at B=1); the expensive produce runs after
                            // the turn advances, overlapped across lanes.
                            if let Some(t) = guard.turn() {
                                if !t.wait_for(seq) {
                                    break;
                                }
                            }
                            let mut permits: Vec<Option<Permit>> =
                                (0..n_groups).map(|_| None).collect();
                            for acq in &acquires {
                                events.token_wait_begin(acq.group, seq);
                                let got = acq.acquire();
                                events.token_wait_end(acq.group, seq);
                                match got {
                                    Some(p) => permits[acq.group] = Some(p),
                                    None => break 'produce,
                                }
                            }
                            let mut ctx = StageCtx::new(source_id, seq, lane, probe);
                            if ctx.should_stop() {
                                break;
                            }
                            // The chunk span opens only once the claim
                            // admitted a chunk: the end-of-input probe, and
                            // any wait for input that never comes, is not
                            // a chunk. The timing window still covers the
                            // claim, where a `Source` does its production.
                            let t0 = Instant::now();
                            if !src.claim(&mut ctx)? {
                                break;
                            }
                            events.chunk_begin(seq);
                            if let Some(t) = guard.turn() {
                                t.advance(seq + 1);
                            }
                            let chunk = match src.produce(&mut ctx) {
                                Ok(c) => c,
                                Err(e) => {
                                    events.chunk_abort(seq);
                                    return Err(e);
                                }
                            };
                            let mut wall = t0.elapsed();
                            if let Some(extra) =
                                probe.and_then(|p| p.gray_delay(source_id, lane, wall))
                            {
                                std::thread::sleep(extra);
                                wall += extra;
                                ctx.stretch(extra);
                            }
                            // Probed after production: an injected Read
                            // crash dies holding the fresh claim (the
                            // survivors requeue it via liveness).
                            if let Some(p) = probe {
                                if p.crash_fires(source_id, lane) {
                                    p.kill();
                                    events.chunk_abort(seq);
                                    break;
                                }
                            }
                            if ctx.stopped {
                                events.chunk_abort(seq);
                                break;
                            }
                            events.chunk_end(seq, wall, ctx.take_timing());
                            chunks_emitted.fetch_add(1, Ordering::Relaxed);
                            for &g in &releases {
                                permits[g] = None;
                            }
                            match &txs {
                                Some(txs) => {
                                    if txs[seq % txs.len()]
                                        .send(Envelope {
                                            seq,
                                            payload: Payload::Chunk(chunk),
                                            permits,
                                        })
                                        .is_err()
                                    {
                                        break; // downstream stage gone
                                    }
                                }
                                None => drop(chunk), // single-stage graph
                            }
                        }
                        Ok(())
                    }));
                    kill_unless_ok(probe, &outcome);
                    // Every source exit ends the slot: exhaustion, stop,
                    // error, panic and downstream death all mean no later
                    // seq will ever be claimed.
                    guard.fire();
                    outcome.unwrap_or_else(|panic| resume_unwind(panic))
                }));
            }

            // ---- Stage lanes ----
            let mut handles = Vec::new();
            for (pos, (id, lanes_vec)) in stages.drain(..).enumerate().map(|(i, s)| (i + 1, s)) {
                let l_here = lanes_vec.len();
                let k_up = lane_counts[pos - 1];
                let acquires_proto = acquire_iter.next().expect("stage position");
                let releases_proto = release_at[pos].clone();
                // Seq-ordered admission into the token groups this slot
                // acquires; single-lane or non-acquiring slots need none.
                let slot_turn: Option<Arc<Turn>> =
                    (l_here > 1 && !acquires_proto.is_empty()).then(|| Arc::new(Turn::new()));
                for (lane_idx, mut stage) in lanes_vec.into_iter().enumerate() {
                    let rxs: Vec<Receiver<Envelope<T>>> = rx_cols[pos - 1][lane_idx]
                        .take()
                        .expect("stage input column");
                    let txs: Option<Vec<Sender<Envelope<T>>>> = tx_rows
                        .get_mut(pos)
                        .map(|rows| rows[lane_idx].take().expect("stage tx row"));
                    let acquires = acquires_proto.clone();
                    let releases = releases_proto.clone();
                    let events = events_for(id, lane_idx as u32);
                    let turn = slot_turn.clone();
                    let key = role(id, lane_idx);
                    handles.push(scope.spawn(key, move || -> Result<(), E> {
                        let lane = lane_idx as u32;
                        let mut guard = TurnFinishGuard::new(turn);
                        let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(), E> {
                            let mut eos = false;
                            let mut iter = 0usize;
                            'consume: loop {
                                let expect = lane_idx + iter * l_here;
                                iter += 1;
                                let Ok(env) = rxs[expect % k_up].recv() else {
                                    eos = true;
                                    break;
                                };
                                let Envelope {
                                    seq,
                                    payload,
                                    mut permits,
                                } = env;
                                debug_assert_eq!(seq, expect, "lane transport out of order");
                                let chunk = match payload {
                                    Payload::Skip => {
                                        // A hole left by a chunk consumed
                                        // upstream: advance the admission
                                        // turn (later seqs may be waiting
                                        // on it) and pass the hole on.
                                        if let Some(t) = guard.turn() {
                                            if !t.wait_for(seq) {
                                                break;
                                            }
                                            t.advance(seq + 1);
                                        }
                                        drop(permits);
                                        if let Some(txs) = &txs {
                                            if txs[seq % txs.len()]
                                                .send(Envelope {
                                                    seq,
                                                    payload: Payload::Skip,
                                                    permits: Vec::new(),
                                                })
                                                .is_err()
                                            {
                                                break;
                                            }
                                        }
                                        continue;
                                    }
                                    Payload::Chunk(c) => c,
                                };
                                let mut ctx = StageCtx::new(id, seq, lane, probe);
                                if ctx.should_stop() {
                                    break;
                                }
                                if let Some(p) = probe {
                                    if p.crash_fires(id, lane) {
                                        p.kill();
                                        break;
                                    }
                                }
                                if let Some(t) = guard.turn() {
                                    if !t.wait_for(seq) {
                                        break;
                                    }
                                }
                                for acq in &acquires {
                                    events.token_wait_begin(acq.group, seq);
                                    let got = acq.acquire();
                                    events.token_wait_end(acq.group, seq);
                                    match got {
                                        Some(p) => permits[acq.group] = Some(p),
                                        None => break 'consume,
                                    }
                                }
                                if let Some(t) = guard.turn() {
                                    t.advance(seq + 1);
                                }
                                events.chunk_begin(seq);
                                let t0 = Instant::now();
                                let out = match stage.run_chunk(chunk, &mut ctx) {
                                    Ok(o) => o,
                                    Err(e) => {
                                        events.chunk_abort(seq);
                                        return Err(e);
                                    }
                                };
                                let mut wall = t0.elapsed();
                                if let Some(extra) =
                                    probe.and_then(|p| p.gray_delay(id, lane, wall))
                                {
                                    std::thread::sleep(extra);
                                    wall += extra;
                                    ctx.stretch(extra);
                                }
                                if ctx.stopped {
                                    events.chunk_abort(seq);
                                    break; // quiet unwind requested mid-chunk
                                }
                                events.chunk_end(seq, wall, ctx.take_timing());
                                for &g in &releases {
                                    permits[g] = None;
                                }
                                match (out, &txs) {
                                    (Some(chunk), Some(txs)) => {
                                        if txs[seq % txs.len()]
                                            .send(Envelope {
                                                seq,
                                                payload: Payload::Chunk(chunk),
                                                permits,
                                            })
                                            .is_err()
                                        {
                                            break; // downstream stage gone
                                        }
                                    }
                                    (Some(chunk), None) => drop(chunk), // last stage
                                    (None, Some(txs)) => {
                                        // Consumed mid-graph: drop the
                                        // permits here, forward the hole.
                                        drop(permits);
                                        if txs[seq % txs.len()]
                                            .send(Envelope {
                                                seq,
                                                payload: Payload::Skip,
                                                permits: Vec::new(),
                                            })
                                            .is_err()
                                        {
                                            break;
                                        }
                                    }
                                    (None, None) => {}
                                }
                            }
                            // End-of-stream must *not* finish the turn:
                            // siblings may still hold live seqs behind it.
                            if eos {
                                guard.disarm();
                            }
                            Ok(())
                        }));
                        kill_unless_ok(probe, &outcome);
                        guard.fire();
                        outcome.unwrap_or_else(|panic| resume_unwind(panic))
                    }));
                }
            }

            // Join in pipeline order (lanes of a slot in lane order);
            // surface the first error, re-raise panics only after every
            // lane is accounted for.
            let mut first_err: Option<E> = None;
            let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
            for handle in source_handles.into_iter().chain(handles) {
                match handle.join() {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                    }
                    Err(p) => {
                        if panic.is_none() {
                            panic = Some(p);
                        }
                    }
                }
            }
            if let Some(p) = panic {
                resume_unwind(p);
            }
            match first_err {
                Some(e) => Err(e),
                None => Ok(()),
            }
        });

        result?;
        Ok(PipelineStats {
            stage_threads: lane_counts.iter().sum(),
            lanes: ids
                .iter()
                .copied()
                .zip(lane_counts.iter().copied())
                .collect(),
            chunks: chunks_emitted.load(Ordering::Relaxed),
            max_in_flight: gauges.iter().map(|g| g.high_water()).max().unwrap_or(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// A source yielding 0..n.
    struct Counter {
        next: usize,
        n: usize,
    }

    impl Source<usize, String> for Counter {
        fn next_chunk(&mut self, _ctx: &mut StageCtx<'_>) -> Result<Option<usize>, String> {
            if self.next == self.n {
                return Ok(None);
            }
            let v = self.next;
            self.next += 1;
            Ok(Some(v))
        }
    }

    struct AddOne;
    impl Stage<usize, String> for AddOne {
        fn run_chunk(
            &mut self,
            c: usize,
            _ctx: &mut StageCtx<'_>,
        ) -> Result<Option<usize>, String> {
            Ok(Some(c + 1))
        }
    }

    struct SinkSum<'a>(&'a AtomicUsize);
    impl Stage<usize, String> for SinkSum<'_> {
        fn run_chunk(
            &mut self,
            c: usize,
            _ctx: &mut StageCtx<'_>,
        ) -> Result<Option<usize>, String> {
            self.0.fetch_add(c, Ordering::SeqCst);
            Ok(None)
        }
    }

    /// Passes chunks through after a parity-dependent delay, so two lanes
    /// finish out of order unless the slot exit reassembles by seq.
    struct Jitter;
    impl Stage<usize, String> for Jitter {
        fn run_chunk(
            &mut self,
            c: usize,
            _ctx: &mut StageCtx<'_>,
        ) -> Result<Option<usize>, String> {
            if c.is_multiple_of(2) {
                std::thread::sleep(Duration::from_millis(2));
            }
            Ok(Some(c))
        }
    }

    /// Records arrival order at the pipeline exit.
    struct SinkOrder<'a>(&'a Mutex<Vec<usize>>);
    impl Stage<usize, String> for SinkOrder<'_> {
        fn run_chunk(
            &mut self,
            c: usize,
            _ctx: &mut StageCtx<'_>,
        ) -> Result<Option<usize>, String> {
            self.0.lock().push(c);
            Ok(None)
        }
    }

    fn jitter_lanes(n: usize) -> Vec<Box<dyn Stage<usize, String>>> {
        (0..n)
            .map(|_| Box::new(Jitter) as Box<dyn Stage<usize, String>>)
            .collect()
    }

    #[test]
    fn interlock_bounds_in_flight_chunks() {
        for (buffering, b) in [
            (Buffering::Single, 1),
            (Buffering::Double, 2),
            (Buffering::Triple, 3),
        ] {
            let sum = AtomicUsize::new(0);
            let stats = PipelineBuilder::new(PipelineKind::Map, buffering)
                .source(StageId::Input, Counter { next: 0, n: 32 })
                .stage(StageId::Kernel, AddOne)
                .stage(StageId::Partition, SinkSum(&sum))
                .interlock(StageId::Input, StageId::Kernel)
                .interlock(StageId::Kernel, StageId::Partition)
                .run()
                .expect("pipeline run");
            assert_eq!(stats.stage_threads, 3);
            assert_eq!(stats.chunks, 32);
            assert_eq!(sum.load(Ordering::SeqCst), (1..=32).sum::<usize>());
            assert!(stats.max_in_flight >= 1);
            assert!(
                stats.max_in_flight <= b,
                "{buffering:?}: {} chunks in flight, interlock allows {b}",
                stats.max_in_flight
            );
        }
    }

    #[test]
    fn stage_error_unwinds_the_graph_and_wins_in_pipeline_order() {
        struct FailAt(usize);
        impl Stage<usize, String> for FailAt {
            fn run_chunk(
                &mut self,
                c: usize,
                _ctx: &mut StageCtx<'_>,
            ) -> Result<Option<usize>, String> {
                if c == self.0 {
                    return Err(format!("boom at {c}"));
                }
                Ok(Some(c))
            }
        }
        let sum = AtomicUsize::new(0);
        let err = PipelineBuilder::new(PipelineKind::Map, Buffering::Double)
            .source(StageId::Input, Counter { next: 0, n: 100 })
            .stage(StageId::Kernel, FailAt(3))
            .stage(StageId::Partition, SinkSum(&sum))
            .interlock(StageId::Input, StageId::Kernel)
            .run()
            .expect_err("kernel error must surface");
        assert_eq!(err, "boom at 3");
    }

    #[test]
    fn timers_default_to_whole_call_and_honor_add_time() {
        struct Timed;
        impl Stage<usize, String> for Timed {
            fn run_chunk(
                &mut self,
                c: usize,
                ctx: &mut StageCtx<'_>,
            ) -> Result<Option<usize>, String> {
                ctx.add_time(Duration::from_millis(5), Duration::from_millis(9));
                Ok(Some(c))
            }
        }
        let sum = AtomicUsize::new(0);
        let tracer = Arc::new(Tracer::new());
        PipelineBuilder::new(PipelineKind::Map, Buffering::Double)
            .source(StageId::Input, Counter { next: 0, n: 4 })
            .stage(StageId::Kernel, Timed)
            .stage(StageId::Partition, SinkSum(&sum))
            .tracer(Arc::clone(&tracer), 0)
            .run()
            .expect("pipeline run");
        let analysis = tracer.finish().analysis();
        let map = analysis.pipeline(0, PipelineKind::Map).expect("map lanes");
        let chunks = |s| map.stage(s).expect("live stage").chunks;
        assert_eq!(chunks(StageId::Input), 4);
        assert_eq!(chunks(StageId::Kernel), 4);
        let timers = map.timers();
        assert_eq!(timers.wall(StageId::Kernel), Duration::from_millis(20));
        assert_eq!(timers.modeled(StageId::Kernel), Duration::from_millis(36));
        // Default timing recorded a whole-call sample for the untimed stages.
        assert_eq!(chunks(StageId::Partition), 4);
        assert_eq!(map.chunk_samples.len(), 4);
    }

    #[test]
    fn a_gray_delay_stretches_a_stage_that_reports_its_own_time() {
        struct Timed;
        impl Stage<usize, String> for Timed {
            fn run_chunk(
                &mut self,
                c: usize,
                ctx: &mut StageCtx<'_>,
            ) -> Result<Option<usize>, String> {
                ctx.add_time(Duration::from_millis(5), Duration::from_millis(9));
                Ok(Some(c))
            }
        }
        struct SlowKernel;
        impl PipelineProbe for SlowKernel {
            fn should_abort(&self, _stage: StageId) -> bool {
                false
            }
            fn crash_fires(&self, _stage: StageId, _lane: u32) -> bool {
                false
            }
            fn kill(&self) {}
            fn gray_delay(&self, stage: StageId, _lane: u32, _wall: Duration) -> Option<Duration> {
                (stage == StageId::Kernel).then_some(Duration::from_millis(1))
            }
        }
        let sum = AtomicUsize::new(0);
        let tracer = Arc::new(Tracer::new());
        PipelineBuilder::new(PipelineKind::Map, Buffering::Double)
            .source(StageId::Input, Counter { next: 0, n: 4 })
            .stage(StageId::Kernel, Timed)
            .stage(StageId::Partition, SinkSum(&sum))
            .probe(SlowKernel)
            .tracer(Arc::clone(&tracer), 0)
            .run()
            .expect("pipeline run");
        let analysis = tracer.finish().analysis();
        let timers = analysis
            .pipeline(0, PipelineKind::Map)
            .expect("map lanes")
            .timers();
        assert_eq!(timers.wall(StageId::Kernel), Duration::from_millis(24));
        assert_eq!(timers.modeled(StageId::Kernel), Duration::from_millis(40));
    }

    #[test]
    fn retry_helper_rolls_back_and_honors_the_budget() {
        let mut state = Vec::<u32>::new();
        let calls = AtomicUsize::new(0);
        let (value, retried) = run_task_with_retries(
            2,
            &mut state,
            |s| {
                s.push(7);
                if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                    panic!("flaky");
                }
                s.len()
            },
            |s| s.clear(),
        )
        .expect("within budget");
        assert_eq!(retried, 2);
        assert_eq!(
            value, 1,
            "rollback cleared partial output before the good attempt"
        );

        let mut state = ();
        let err = run_task_with_retries(1, &mut state, |_| -> usize { panic!("always") }, |_| {})
            .expect_err("budget exhausted");
        assert_eq!(err.attempts, 2);
    }

    #[test]
    fn probe_crash_unwinds_quietly_and_kill_is_sticky() {
        struct CrashAtKernel {
            dead: Arc<AtomicBool>,
            passages: AtomicUsize,
        }
        impl PipelineProbe for CrashAtKernel {
            fn should_abort(&self, _stage: StageId) -> bool {
                self.dead.load(Ordering::SeqCst)
            }
            fn crash_fires(&self, stage: StageId, _lane: u32) -> bool {
                stage == StageId::Kernel && self.passages.fetch_add(1, Ordering::SeqCst) == 2
            }
            fn kill(&self) {
                self.dead.store(true, Ordering::SeqCst);
            }
        }
        let probe_dead = Arc::new(AtomicBool::new(false));
        let probe = CrashAtKernel {
            dead: Arc::clone(&probe_dead),
            passages: AtomicUsize::new(0),
        };
        let sum = AtomicUsize::new(0);
        // The run itself succeeds (the crash is a quiet unwind — the
        // phase-level code turns the dead flag into NodeLost).
        PipelineBuilder::new(PipelineKind::Map, Buffering::Single)
            .source(StageId::Input, Counter { next: 0, n: 50 })
            .stage(StageId::Kernel, AddOne)
            .stage(StageId::Partition, SinkSum(&sum))
            .probe(probe)
            .run()
            .expect("injected crash drains quietly");
        // At most the chunks before the crash passage reached the sink; a
        // dead node's remaining in-flight chunks are discarded, so the
        // sink may quietly drop work already queued when the kill landed.
        assert!(sum.load(Ordering::SeqCst) <= 1 + 2);
        assert!(probe_dead.load(Ordering::SeqCst));
    }

    #[test]
    fn multi_lane_stage_reassembles_in_seq_order_downstream() {
        let order = Mutex::new(Vec::new());
        let stats = PipelineBuilder::new(PipelineKind::Map, Buffering::Triple)
            .source(StageId::Input, Counter { next: 0, n: 24 })
            .stage_lanes(StageId::Kernel, jitter_lanes(2))
            .stage(StageId::Partition, SinkOrder(&order))
            .run()
            .expect("pipeline run");
        assert_eq!(stats.stage_threads, 4);
        assert_eq!(
            stats.lanes,
            vec![
                (StageId::Input, 1),
                (StageId::Kernel, 2),
                (StageId::Partition, 1)
            ]
        );
        assert_eq!(stats.chunks, 24);
        // Even chunks are slower on lane 0 than odd chunks on lane 1, yet
        // the single-lane sink sees global sequence order.
        assert_eq!(*order.lock(), (0..24).collect::<Vec<_>>());
    }

    #[test]
    fn multi_lane_acquiring_stage_respects_single_buffering_without_deadlock() {
        let sum = AtomicUsize::new(0);
        let stats = PipelineBuilder::new(PipelineKind::Map, Buffering::Single)
            .source(StageId::Input, Counter { next: 0, n: 32 })
            .stage_lanes(StageId::Kernel, jitter_lanes(2))
            .stage(StageId::Partition, SinkSum(&sum))
            .interlock(StageId::Input, StageId::Kernel)
            .interlock(StageId::Kernel, StageId::Partition)
            .run()
            .expect("pipeline run");
        // Two kernel lanes contend for B=1 output-group permits: the
        // seq-ordered admission turn keeps that deadlock-free and the
        // interlock bound intact.
        assert_eq!(stats.chunks, 32);
        assert!(stats.max_in_flight <= 1);
        assert_eq!(sum.load(Ordering::SeqCst), (0..32).sum::<usize>());
    }

    #[test]
    fn consumed_chunks_leave_skips_that_keep_lanes_aligned() {
        struct DropOdd;
        impl Stage<usize, String> for DropOdd {
            fn run_chunk(
                &mut self,
                c: usize,
                _ctx: &mut StageCtx<'_>,
            ) -> Result<Option<usize>, String> {
                if c % 2 == 1 {
                    Ok(None)
                } else {
                    Ok(Some(c))
                }
            }
        }
        let order = Mutex::new(Vec::new());
        let stats = PipelineBuilder::new(PipelineKind::Map, Buffering::Triple)
            .source(StageId::Input, Counter { next: 0, n: 20 })
            .stage_lanes(
                StageId::Kernel,
                (0..2)
                    .map(|_| Box::new(DropOdd) as Box<dyn Stage<usize, String>>)
                    .collect(),
            )
            .stage_lanes(StageId::Retrieve, jitter_lanes(2))
            .stage(StageId::Partition, SinkOrder(&order))
            .run()
            .expect("pipeline run");
        // Kernel lane 1 consumes every odd seq; the Skip holes keep the
        // retrieve lanes' expected-seq arithmetic aligned, so the sink
        // still sees the survivors in global order.
        assert_eq!(stats.chunks, 20);
        assert_eq!(*order.lock(), (0..20).step_by(2).collect::<Vec<_>>());
    }

    /// Two lanes drawing from one shared counter: the claim turn must
    /// serialize claims in seq order, so value == seq and the sink sees
    /// 0..n in order even though production is jittered.
    struct SharedCounter {
        next: Arc<AtomicUsize>,
        n: usize,
        pending: Option<usize>,
    }

    impl LaneSource<usize, String> for SharedCounter {
        fn claim(&mut self, _ctx: &mut StageCtx<'_>) -> Result<bool, String> {
            let v = self.next.fetch_add(1, Ordering::SeqCst);
            if v >= self.n {
                return Ok(false);
            }
            self.pending = Some(v);
            Ok(true)
        }

        fn produce(&mut self, _ctx: &mut StageCtx<'_>) -> Result<usize, String> {
            let v = self.pending.take().expect("claimed");
            if v.is_multiple_of(2) {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(v)
        }
    }

    #[test]
    fn multi_lane_source_claims_in_global_seq_order() {
        let order = Mutex::new(Vec::new());
        let next = Arc::new(AtomicUsize::new(0));
        let lanes: Vec<Box<dyn LaneSource<usize, String>>> = (0..2)
            .map(|_| {
                Box::new(SharedCounter {
                    next: Arc::clone(&next),
                    n: 16,
                    pending: None,
                }) as Box<dyn LaneSource<usize, String>>
            })
            .collect();
        let stats = PipelineBuilder::new(PipelineKind::Map, Buffering::Double)
            .source_lanes(StageId::Input, lanes)
            .stage(StageId::Partition, SinkOrder(&order))
            .interlock(StageId::Input, StageId::Partition)
            .run()
            .expect("pipeline run");
        assert_eq!(stats.chunks, 16);
        assert_eq!(stats.lanes[0], (StageId::Input, 2));
        assert_eq!(*order.lock(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn lane_addressed_crash_fires_only_on_its_lane() {
        struct CrashLaneOne {
            dead: Arc<AtomicBool>,
            fired: AtomicUsize,
        }
        impl PipelineProbe for CrashLaneOne {
            fn should_abort(&self, _stage: StageId) -> bool {
                self.dead.load(Ordering::SeqCst)
            }
            fn crash_fires(&self, stage: StageId, lane: u32) -> bool {
                stage == StageId::Kernel
                    && lane == 1
                    && self.fired.fetch_add(1, Ordering::SeqCst) == 0
            }
            fn kill(&self) {
                self.dead.store(true, Ordering::SeqCst);
            }
        }
        let dead = Arc::new(AtomicBool::new(false));
        let sum = AtomicUsize::new(0);
        PipelineBuilder::new(PipelineKind::Map, Buffering::Double)
            .source(StageId::Input, Counter { next: 0, n: 40 })
            .stage_lanes(StageId::Kernel, jitter_lanes(2))
            .stage(StageId::Partition, SinkSum(&sum))
            .probe(CrashLaneOne {
                dead: Arc::clone(&dead),
                fired: AtomicUsize::new(0),
            })
            .run()
            .expect("lane-pinned crash drains quietly");
        assert!(
            dead.load(Ordering::SeqCst),
            "kernel lane 1's first passage must fire the pinned crash"
        );
    }

    #[test]
    fn lane_pinned_probe_sees_only_its_lanes_sequence_numbers() {
        /// Counts the Kernel passages probed on lane `pin`; never fires.
        struct Pinned<'a> {
            pin: u32,
            seen: &'a AtomicUsize,
        }
        impl PipelineProbe for Pinned<'_> {
            fn should_abort(&self, _stage: StageId) -> bool {
                false
            }
            fn crash_fires(&self, stage: StageId, lane: u32) -> bool {
                if stage == StageId::Kernel && lane == self.pin {
                    self.seen.fetch_add(1, Ordering::SeqCst);
                }
                false
            }
            fn kill(&self) {}
        }
        /// Logs which lane handled which sequence number.
        struct LaneLog<'a>(&'a Mutex<Vec<(usize, u32)>>);
        impl Stage<usize, String> for LaneLog<'_> {
            fn run_chunk(
                &mut self,
                c: usize,
                ctx: &mut StageCtx<'_>,
            ) -> Result<Option<usize>, String> {
                self.0.lock().push((ctx.seq(), ctx.lane()));
                Ok(Some(c))
            }
        }
        // (passages the pinned probe saw, seqs handled on the pinned lane)
        let run = |lanes: usize, pin: u32| -> (usize, Vec<usize>) {
            let seen = AtomicUsize::new(0);
            let log = Mutex::new(Vec::new());
            let sum = AtomicUsize::new(0);
            PipelineBuilder::new(PipelineKind::Map, Buffering::Double)
                .source(StageId::Input, Counter { next: 0, n: 20 })
                .stage_lanes(
                    StageId::Kernel,
                    (0..lanes)
                        .map(|_| Box::new(LaneLog(&log)) as Box<dyn Stage<usize, String> + '_>)
                        .collect(),
                )
                .stage(StageId::Partition, SinkSum(&sum))
                .probe(Pinned { pin, seen: &seen })
                .run()
                .expect("pipeline run");
            let mut seqs: Vec<usize> = log
                .lock()
                .iter()
                .filter(|&&(_, lane)| lane == pin)
                .map(|&(seq, _)| seq)
                .collect();
            seqs.sort_unstable();
            (seen.load(Ordering::SeqCst), seqs)
        };
        // Lane 1 of a 2-lane slot owns exactly the odd sequence numbers,
        // and the probe is consulted once for each of them.
        let odd: Vec<usize> = (0..20).filter(|s| s % 2 == 1).collect();
        assert_eq!(run(2, 1), (odd.len(), odd));
        // A 1-lane slot is lane 0 handling every passage — not a special
        // case, just a lane count.
        assert_eq!(run(1, 0), (20, (0..20).collect()));
        assert_eq!(run(1, 1), (0, Vec::new()));
    }
}
