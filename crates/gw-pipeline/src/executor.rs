//! The bounded-stage executor.
//!
//! A pipeline is a pulling [`Source`] followed by a chain of [`Stage`]s.
//! The executor runs one scoped task per *lane* of each stage on a
//! [`Runtime`] (the caller's, or one local to the call), hands chunks
//! from lane to lane, and owns every cross-cutting concern the stages
//! themselves used to copy-paste:
//!
//! * **§III-D buffer tokens** — each [`PipelineBuilder::interlock`] group
//!   (e.g. the map pipeline's Input→Kernel and Kernel→Partition) holds
//!   `B =` [`Buffering::depth`](crate::Buffering::depth) permits. A chunk
//!   takes the group's permit before its first stage runs and holds it
//!   until its last stage completes, so at most `B` chunks are ever in
//!   flight inside the group (a high-water mark per group).
//! * **Lanes** — a slot may run several worker lanes
//!   ([`PipelineBuilder::stage_lanes`], [`PipelineBuilder::source_lanes`]);
//!   chunk `s` runs on lane `s mod N` of an N-lane slot. Between a K-lane
//!   and an L-lane slot sit K×L one-chunk handoff cells, and each consumer
//!   lane takes its seqs in order, so a single-lane consumer (and the
//!   final stage) sees the global sequence order for every lane count. A
//!   chunk consumed mid-graph leaves a `Payload::Skip` hole that keeps
//!   seqs dense. A source's claims, and each permit-taking slot's
//!   admissions, run in global sequence order — a lane waits for its
//!   slot's admission turn, then for its permits — so a permit is only
//!   ever held by a seq whose predecessors hold theirs: the B-bounded
//!   interlocks cannot deadlock at any lane count.
//! * **One state, one lock** — every handoff decision is a method of the
//!   private `GraphState`, which takes one event and names the lanes it
//!   may unblock; `run` keeps it behind one mutex and parks each lane on a
//!   condvar of its own. The `checker` test module explores every event
//!   order of the graphs the engine builds.
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
//! * **Unwinding** — a stage error, panic, stop or injected crash kills
//!   the probe and closes the graph: every lane ends at its next step,
//!   chunks waiting in handoff cells drop and return their permits, and
//!   the first error in stage order is surfaced. Stage panics propagate
//!   after every lane has been joined.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::task::Poll;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex, MutexGuard};

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
    /// Chunks emitted by the source.
    pub chunks: usize,
    /// High-water mark of in-flight chunks across the token groups; never
    /// exceeds the buffering depth `B`, regardless of lane counts.
    pub max_in_flight: usize,
}

/// A handoff cell's content: a live chunk, or the hole left by a chunk
/// consumed upstream. `Skip` keeps sequence numbers dense, so every
/// downstream lane's expected-seq arithmetic — and thus deterministic
/// reassembly — survives mid-graph consumption; it holds no permits,
/// emits no events and probes no crash sites.
#[derive(Clone)]
enum Payload<T> {
    Chunk(T),
    Skip,
}

/// Where a lane stands in its loop, as the graph state sees it; the lane
/// handles seq `LaneState::next`.
#[derive(Clone)]
enum Phase<T> {
    /// Waits for its input: a stage's handoff cell (a source needs none).
    Input,
    /// Runs the arrival probes on its live chunk, outside the lock.
    Arrived,
    /// Waits for the slot's admission turn; `false` for a `Skip`.
    Turn(bool),
    /// Waits for the permit of the slot's `i`-th group, once the wait's
    /// trace region has begun (`true`).
    Token(usize, bool),
    /// Claims or runs its chunk outside the lock.
    Busy,
    /// Waits for room in its handoff cell.
    Output(Payload<T>),
    Ended,
}

/// What a lane does next, outside the lock.
enum Ask<T> {
    End,
    /// A stage's live chunk arrived: probe, then ask again.
    Arrived(usize, T),
    /// Seq `.1` waits for group `.0`'s permit: the wait's trace region
    /// begins.
    TokenWait(usize, usize),
    /// Seq `.1` took group `.0`'s permit (or a failure ended its wait);
    /// `false` when it took it without a wait, whose region then begins
    /// and ends at once.
    Token(usize, usize, bool),
    /// The seq is admitted: a source claims it, a stage runs it.
    Go(usize),
}

#[derive(Clone, Default)]
struct Slot {
    width: usize,
    /// Flat index of the slot's lane 0.
    base: usize,
    /// The next seq admitted, on a source and on a slot that takes
    /// permits: their lanes admit in global sequence order.
    admit: Option<usize>,
    /// Groups whose first slot this is, in declaration order.
    takes: Vec<usize>,
    /// Groups whose last slot this is, a bit each.
    frees: u64,
    /// Groups a live chunk leaving this slot still holds.
    carries: u64,
}

#[derive(Clone, Default)]
struct Group {
    /// The slot that takes its permits.
    first: usize,
    in_use: usize,
    high: usize,
}

#[derive(Clone)]
struct LaneState<T> {
    slot: usize,
    next: usize,
    /// Groups whose permits the lane holds, a bit each.
    held: u64,
    phase: Phase<T>,
}

/// Everything the executor decides by (module doc, "One state, one
/// lock"). Its methods take one event each, take no lock, read no clock
/// and run no stage code; they name the lanes that event may unblock in
/// `wake`.
#[derive(Clone)]
struct GraphState<T> {
    depth: usize,
    slots: Vec<Slot>,
    groups: Vec<Group>,
    lanes: Vec<LaneState<T>>,
    /// Gap `p`'s handoff cells, between slot `p`'s K lanes and slot `p +
    /// 1`'s L: seq `s` travels cell `(s mod K) × L + s mod L`.
    cells: Vec<Vec<Option<Payload<T>>>>,
    /// The first seq that will never exist: a source claim came back
    /// empty at it.
    end: usize,
    /// A lane failed: every lane ends at its next step.
    closed: bool,
    /// Chunks the source emitted.
    chunks: usize,
    /// The lanes the last event asks the wrapper to notify.
    wake: Vec<usize>,
}

impl<T> GraphState<T> {
    /// A graph of slots `widths[p]` lanes wide (slot 0 the source) and
    /// token groups of `depth` permits spanning slots `(first, last)`.
    fn new(depth: usize, widths: &[usize], groups: &[(usize, usize)]) -> Self {
        assert!(groups.len() <= 64, "at most 64 token groups");
        let mut slots: Vec<Slot> = Vec::with_capacity(widths.len());
        for &width in widths {
            let base = slots.last().map_or(0, |s| s.base + s.width);
            slots.push(Slot {
                width,
                base,
                ..Slot::default()
            });
        }
        slots[0].admit = Some(0);
        for (g, &(first, last)) in groups.iter().enumerate() {
            slots[first].admit = Some(0);
            slots[first].takes.push(g);
            slots[last].frees |= 1 << g;
            for slot in &mut slots[first..last] {
                slot.carries |= 1 << g;
            }
        }
        let lanes = (slots.iter().enumerate())
            .flat_map(|(p, slot)| {
                (0..slot.width).map(move |i| LaneState {
                    slot: p,
                    next: i,
                    held: 0,
                    phase: Phase::Input,
                })
            })
            .collect();
        let gap = |w: &[usize]| (0..w[0] * w[1]).map(|_| None).collect();
        GraphState {
            depth,
            slots,
            groups: groups
                .iter()
                .map(|&(first, _)| Group {
                    first,
                    ..Group::default()
                })
                .collect(),
            lanes,
            cells: widths.windows(2).map(gap).collect(),
            end: usize::MAX,
            closed: false,
            chunks: 0,
            wake: Vec::new(),
        }
    }

    /// Gap `p`'s cell for seq `s`.
    fn cell(&self, p: usize, s: usize) -> usize {
        let (k, l) = (self.slots[p].width, self.slots[p + 1].width);
        (s % k) * l + s % l
    }

    /// Slot `p`'s lane for seq `s`, flat.
    fn lane_of(&self, p: usize, s: usize) -> usize {
        self.slots[p].base + s % self.slots[p].width
    }

    /// Lane `l` asks for work: what it does next outside the lock, or
    /// `Pending` to park until an event names it.
    fn ask(&mut self, l: usize) -> Poll<Ask<T>> {
        loop {
            let (p, s) = (self.lanes[l].slot, self.lanes[l].next);
            let phase = std::mem::replace(&mut self.lanes[l].phase, Phase::Ended);
            let park = |st: &mut Self, phase| {
                st.lanes[l].phase = phase;
                Poll::Pending
            };
            self.lanes[l].phase = match phase {
                Phase::Ended => return Poll::Ready(Ask::End),
                // A failure ends an open permit wait: its trace region
                // closes before the lane ends.
                Phase::Token(i, true) if self.closed => {
                    self.lanes[l].phase = Phase::Input;
                    return Poll::Ready(Ask::Token(self.slots[p].takes[i], s, true));
                }
                _ if self.closed || s >= self.end => return self.quit(l),
                Phase::Input if p == 0 => Phase::Turn(true),
                Phase::Input => {
                    let c = self.cell(p - 1, s);
                    let Some(payload) = self.cells[p - 1][c].take() else {
                        return park(self, Phase::Input);
                    };
                    let producer = self.lane_of(p - 1, s);
                    if let Phase::Output(_) = self.lanes[producer].phase {
                        if self.cell(p - 1, self.lanes[producer].next) == c {
                            self.wake.push(producer);
                        }
                    }
                    match payload {
                        Payload::Chunk(chunk) => {
                            self.lanes[l].held = self.slots[p - 1].carries;
                            self.lanes[l].phase = Phase::Arrived;
                            return Poll::Ready(Ask::Arrived(s, chunk));
                        }
                        Payload::Skip => Phase::Turn(false),
                    }
                }
                Phase::Arrived => Phase::Turn(true),
                Phase::Turn(live) if self.slots[p].admit.is_some_and(|a| a != s) => {
                    return park(self, Phase::Turn(live));
                }
                Phase::Turn(true) => Phase::Token(0, false),
                Phase::Turn(false) => {
                    self.admitted(p, s);
                    Phase::Output(Payload::Skip)
                }
                Phase::Token(i, begun) => {
                    let Some(&g) = self.slots[p].takes.get(i) else {
                        // A source's claim admits; a stage is admitted.
                        if p > 0 {
                            self.admitted(p, s);
                        }
                        self.lanes[l].phase = Phase::Busy;
                        return Poll::Ready(Ask::Go(s));
                    };
                    let group = &mut self.groups[g];
                    if group.in_use == self.depth {
                        if begun {
                            return park(self, Phase::Token(i, true));
                        }
                        self.lanes[l].phase = Phase::Token(i, true);
                        return Poll::Ready(Ask::TokenWait(g, s));
                    }
                    group.in_use += 1;
                    group.high = group.high.max(group.in_use);
                    self.lanes[l].held |= 1 << g;
                    self.lanes[l].phase = Phase::Token(i + 1, false);
                    return Poll::Ready(Ask::Token(g, s, begun));
                }
                Phase::Busy => unreachable!("a busy lane reports before it asks"),
                // Past the last slot only the seq moves on.
                Phase::Output(_) if p + 1 == self.slots.len() => self.next_seq(l),
                Phase::Output(payload) => {
                    let c = self.cell(p, s);
                    if self.cells[p][c].is_some() {
                        return park(self, Phase::Output(payload));
                    }
                    self.cells[p][c] = Some(payload);
                    let consumer = self.lane_of(p + 1, s);
                    let waiting = &self.lanes[consumer];
                    if matches!(waiting.phase, Phase::Input) && waiting.next == s {
                        self.wake.push(consumer);
                    }
                    self.next_seq(l)
                }
            };
        }
    }

    /// Lane `l` moves on to its next seq, its chunk's permits handed on.
    fn next_seq(&mut self, l: usize) -> Phase<T> {
        let lane = &mut self.lanes[l];
        lane.next += self.slots[lane.slot].width;
        lane.held = 0;
        Phase::Input
    }

    /// Slot `p` admitted seq `s`: the turn passes to `s + 1`'s lane.
    fn admitted(&mut self, p: usize, s: usize) {
        if let Some(admit) = &mut self.slots[p].admit {
            *admit = s + 1;
            let l = self.lane_of(p, s + 1);
            let waiting = &self.lanes[l];
            if matches!(waiting.phase, Phase::Turn(_)) && waiting.next == s + 1 {
                self.wake.push(l);
            }
        }
    }

    /// Return the permits of the groups in `mask`, a bit each; the lane
    /// whose turn it is at each group's first slot may be waiting for one.
    fn release(&mut self, mask: u64) {
        for g in (0..self.groups.len()).filter(|g| mask >> g & 1 == 1) {
            self.groups[g].in_use -= 1;
            let first = self.groups[g].first;
            let admit = self.slots[first]
                .admit
                .expect("a permit-taking slot admits");
            let l = self.lane_of(first, admit);
            if matches!(self.lanes[l].phase, Phase::Token(..)) {
                self.wake.push(l);
            }
        }
    }

    /// Lane `l` ends, returning the permits it holds.
    fn quit(&mut self, l: usize) -> Poll<Ask<T>> {
        let held = std::mem::take(&mut self.lanes[l].held);
        self.release(held);
        self.lanes[l].phase = Phase::Ended;
        Poll::Ready(Ask::End)
    }

    /// Source lane `l`'s claim returned: `true` admits its seq, `false`
    /// ends the stream there.
    fn claimed(&mut self, l: usize, ok: bool) {
        let s = self.lanes[l].next;
        if ok {
            return self.admitted(0, s);
        }
        self.end = self.end.min(s);
        for m in 0..self.lanes.len() {
            let lane = &self.lanes[m];
            if lane.next >= s && matches!(lane.phase, Phase::Input | Phase::Turn(_)) {
                self.wake.push(m);
            }
        }
        let _ = self.quit(l);
    }

    /// Lane `l`'s stage returned a chunk, or consumed it (`None`); a
    /// source always returns one. Frees the groups ending here and queues
    /// the output, or its `Skip`, for the lane's next ask. Returns a
    /// chunk past the last slot, for the lane to drop outside the lock.
    fn done(&mut self, l: usize, out: Option<T>) -> Option<T> {
        let p = self.lanes[l].slot;
        let frees = self.lanes[l].held & self.slots[p].frees;
        self.lanes[l].held &= !frees;
        self.release(frees);
        self.chunks += usize::from(p == 0);
        let (payload, past) = match out {
            Some(chunk) if p + 1 == self.slots.len() => (Payload::Skip, Some(chunk)),
            Some(chunk) => (Payload::Chunk(chunk), None),
            None => {
                let held = std::mem::take(&mut self.lanes[l].held);
                self.release(held);
                (Payload::Skip, None)
            }
        };
        self.lanes[l].phase = Phase::Output(payload);
        past
    }

    /// Lane `l` erred, panicked, stopped or crashed: it ends, and so does
    /// the graph — the node is dead or the job failed. Every other lane
    /// ends at its next ask, and the chunks in handoff cells drop.
    fn fail(&mut self, l: usize) {
        let _ = self.quit(l);
        self.closed = true;
        for p in 0..self.cells.len() {
            for c in 0..self.cells[p].len() {
                if let Some(Payload::Chunk(_)) = self.cells[p][c].take() {
                    self.release(self.slots[p].carries);
                }
            }
        }
        for m in 0..self.lanes.len() {
            if !matches!(self.lanes[m].phase, Phase::Ended | Phase::Busy) {
                self.wake.push(m);
            }
        }
    }
}

/// The graph's one lock, and a condvar per lane to park it on.
struct Graph<T> {
    state: Mutex<GraphState<T>>,
    parked: Vec<Condvar>,
}

impl<T> Graph<T> {
    /// Apply one event.
    fn report<R>(&self, event: impl FnOnce(&mut GraphState<T>) -> R) -> R {
        let mut st = self.state.lock();
        let r = event(&mut st);
        self.unlock(st);
        r
    }

    /// Lane `l` applies `event`, then asks for its next step, parking
    /// until there is one.
    fn step<R>(&self, l: usize, event: impl FnOnce(&mut GraphState<T>) -> R) -> (R, Ask<T>) {
        let mut st = self.state.lock();
        let r = event(&mut st);
        loop {
            match st.ask(l) {
                Poll::Pending if st.wake.is_empty() => self.parked[l].wait(&mut st),
                Poll::Pending => {
                    self.unlock(st);
                    st = self.state.lock();
                }
                Poll::Ready(ask) => {
                    self.unlock(st);
                    return (r, ask);
                }
            }
        }
    }

    /// Release the lock, then notify the lanes the last events named.
    fn unlock(&self, mut st: MutexGuard<'_, GraphState<T>>) {
        let woken = std::mem::take(&mut st.wake);
        drop(st);
        for l in woken {
            self.parked[l].notify_one();
        }
    }
}

/// What a lane runs: a source's claim and production, or a stage.
enum Work<'a, T, E> {
    Source(Box<dyn LaneSource<T, E> + 'a>),
    Stage(Box<dyn Stage<T, E> + 'a>),
}

/// One lane's loop, flat lane `l` of the graph: lane `lane` of slot
/// `stage`. `Ok(true)` once the graph has no more work for it,
/// `Ok(false)` when it stopped or crashed.
fn lane_loop<T, E>(
    graph: &Graph<T>,
    l: usize,
    (stage, lane): (StageId, u32),
    work: &mut Work<'_, T, E>,
    events: &StageEvents,
    probe: Option<&dyn PipelineProbe>,
) -> Result<bool, E> {
    // Probe this lane's crash site; a firing crash kills the node.
    let crash = || match probe {
        Some(p) if p.crash_fires(stage, lane) => {
            p.kill();
            true
        }
        _ => false,
    };
    // A stage's arrived chunk; a finished chunk's output, reported with
    // the next ask.
    let (mut input, mut output) = (None, None);
    loop {
        let report = |st: &mut GraphState<T>| output.take().and_then(|out| st.done(l, out));
        let (past, ask) = graph.step(l, report);
        drop(past);
        let seq = match ask {
            Ask::End => return Ok(true),
            Ask::TokenWait(g, seq) => {
                events.token_wait_begin(g, seq);
                continue;
            }
            Ask::Token(g, seq, waited) => {
                if !waited {
                    events.token_wait_begin(g, seq);
                }
                events.token_wait_end(g, seq);
                continue;
            }
            Ask::Arrived(seq, chunk) => {
                let mut ctx = StageCtx::new(stage, seq, lane, probe);
                if ctx.should_stop() || crash() {
                    return Ok(false);
                }
                input = Some(chunk);
                continue;
            }
            Ask::Go(seq) => seq,
        };
        let mut ctx = StageCtx::new(stage, seq, lane, probe);
        let t0;
        let out = match work {
            Work::Stage(s) => {
                events.chunk_begin(seq);
                t0 = Instant::now();
                s.run_chunk(input.take().expect("an arrived chunk"), &mut ctx)
            }
            Work::Source(src) => {
                if ctx.should_stop() {
                    return Ok(false);
                }
                // The chunk span opens only once the claim admitted a
                // chunk: the end-of-input probe, and any wait for input
                // that never comes, is not a chunk. The timing window
                // still covers the claim, where a `Source` produces.
                t0 = Instant::now();
                let claimed = src.claim(&mut ctx)?;
                if claimed {
                    events.chunk_begin(seq);
                }
                graph.report(|st| st.claimed(l, claimed));
                if !claimed {
                    continue;
                }
                src.produce(&mut ctx).map(Some)
            }
        };
        let out = out.inspect_err(|_| events.chunk_abort(seq))?;
        let mut wall = t0.elapsed();
        if let Some(extra) = probe.and_then(|p| p.gray_delay(stage, lane, wall)) {
            std::thread::sleep(extra);
            wall += extra;
            ctx.stretch(extra);
        }
        // Probed after production: an injected Read crash dies holding
        // the fresh claim (the survivors requeue it via liveness).
        let source = matches!(work, Work::Source(_));
        if (source && crash()) || ctx.stopped {
            events.chunk_abort(seq);
            return Ok(false);
        }
        events.chunk_end(seq, wall, ctx.take_timing());
        output = Some(out);
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

    /// Close `span`: accounted when it carries a (wall, modeled) pair.
    fn end(&self, span: SpanId, timing: Option<(Duration, Duration)>) {
        let (wall, modeled) = timing.unwrap_or_default();
        self.emit(EventKind::End {
            span,
            wall_ns: wall.as_nanos() as u64,
            modeled_ns: modeled.as_nanos() as u64,
            accounted: timing.is_some(),
        });
    }

    /// §III-D token-acquire wait region.
    fn token_wait_begin(&self, group: usize, seq: usize) {
        self.emit(EventKind::Begin {
            span: token_wait(group, seq),
        });
    }

    fn token_wait_end(&self, group: usize, seq: usize) {
        self.end(token_wait(group, seq), None);
    }

    fn chunk_begin(&self, seq: usize) {
        let span = SpanId::Chunk { seq: seq as u64 };
        self.emit(EventKind::Begin { span });
    }

    /// A chunk completed this stage: the accounted span end carries the
    /// (wall, modeled) pair — the stage's [`StageCtx::add_time`] override
    /// or the default whole-call window.
    fn chunk_end(&self, seq: usize, default_wall: Duration, over: Option<(Duration, Duration)>) {
        let timing = over.unwrap_or((default_wall, default_wall));
        self.end(SpanId::Chunk { seq: seq as u64 }, Some(timing));
    }

    /// A chunk span that must not count: injected crash, quiet unwind or
    /// stage error.
    fn chunk_abort(&self, seq: usize) {
        self.end(SpanId::Chunk { seq: seq as u64 }, None);
    }
}

fn token_wait(group: usize, seq: usize) -> SpanId {
    SpanId::TokenWait {
        group: group as u32,
        seq: seq as u64,
    }
}

/// One slot's worth of source lanes.
type SourceLanes<'a, T, E> = Vec<Box<dyn LaneSource<T, E> + 'a>>;
/// One slot's worth of stage lanes.
type StageLaneVec<'a, T, E> = Vec<Box<dyn Stage<T, E> + 'a>>;

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
        let (source_id, sources) = self.source.take().expect("pipeline needs a source");
        let stages = std::mem::take(&mut self.stages);
        let ids: Vec<StageId> = std::iter::once(source_id)
            .chain(stages.iter().map(|(id, _)| *id))
            .collect();
        let widths: Vec<usize> = std::iter::once(sources.len())
            .chain(stages.iter().map(|(_, lanes)| lanes.len()))
            .collect();
        // Resolve token groups onto slot positions (0 = source).
        let position = |end: StageId| {
            ids.iter()
                .position(|id| *id == end)
                .expect("interlock endpoint is a slot of this graph")
        };
        let groups: Vec<(usize, usize)> = (self.interlocks.iter())
            .map(|&(first, last)| (position(first), position(last)))
            .collect();
        assert!(
            groups.iter().all(|(a, r)| a <= r),
            "interlock runs downstream"
        );

        let probe_box = self.probe.take();
        let probe: Option<&dyn PipelineProbe> = probe_box.as_deref();

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
        for (pos, &n) in widths.iter().enumerate() {
            if n > 1 {
                events_for(ids[pos], 0).emit(EventKind::Instant {
                    mark: MarkId::StageLanes {
                        stage: ids[pos],
                        lanes: n as u32,
                    },
                });
            }
        }

        let slots = std::iter::once(sources.into_iter().map(Work::Source).collect()).chain(
            stages
                .into_iter()
                .map(|(_, lanes)| lanes.into_iter().map(Work::Stage).collect::<Vec<_>>()),
        );
        let graph = Graph {
            state: Mutex::new(GraphState::new(self.depth, &widths, &groups)),
            parked: widths
                .iter()
                .flat_map(|&n| (0..n).map(|_| Condvar::new()))
                .collect(),
        };

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
            let graph = &graph;
            let mut handles = Vec::new();
            for (pos, lanes) in slots.enumerate() {
                for (lane_idx, mut work) in lanes.into_iter().enumerate() {
                    let (id, l) = (ids[pos], handles.len());
                    let events = events_for(id, lane_idx as u32);
                    handles.push(scope.spawn(role(id, lane_idx), move || -> Result<(), E> {
                        let at = (id, lane_idx as u32);
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            lane_loop(graph, l, at, &mut work, &events, probe)
                        }));
                        // A lane that errs or panics kills the node, so no
                        // sibling waits on work it will never finish (the
                        // map input lane waits for the map's completion).
                        if let (false, Some(p)) = (matches!(outcome, Ok(Ok(_))), probe) {
                            p.kill();
                        }
                        if !matches!(outcome, Ok(Ok(true))) {
                            graph.report(|st| st.fail(l));
                        }
                        outcome
                            .unwrap_or_else(|panic| resume_unwind(panic))
                            .map(drop)
                    }));
                }
            }

            // Join every lane, in pipeline order (lanes of a slot in lane
            // order); then re-raise the first panic, or surface the first
            // error.
            let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            let mut first_err = Ok(());
            for outcome in joined {
                match outcome {
                    Err(panic) => resume_unwind(panic),
                    Ok(Err(e)) if first_err.is_ok() => first_err = Err(e),
                    Ok(_) => {}
                }
            }
            first_err
        });

        result?;
        let st = graph.state.into_inner();
        Ok(PipelineStats {
            stage_threads: widths.iter().sum(),
            chunks: st.chunks,
            max_in_flight: st.groups.iter().map(|g| g.high).max().unwrap_or(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

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
        assert_eq!(stats.stage_threads, 3);
        assert_eq!(*order.lock(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn a_parked_producer_is_released_by_its_consumers_take_alone() {
        // A source lane 0 feeding a sink lane 1 through one cell, no
        // token groups: nothing but the sink's take can wake the source
        // once it parks with seq 1 behind seq 0.
        let graph = Arc::new(Graph {
            state: Mutex::new(GraphState::new(1, &[1, 1], &[])),
            parked: vec![Condvar::new(), Condvar::new()],
        });
        let (tx, rx) = std::sync::mpsc::channel();
        let source = Arc::clone(&graph);
        std::thread::spawn(move || {
            let mut out = None;
            for seq in 0..3 {
                let (_, ask) = source.step(0, |st| out.take().and_then(|o| st.done(0, o)));
                assert!(matches!(ask, Ask::Go(s) if s == seq));
                source.report(|st| st.claimed(0, true));
                out = Some(Some(seq));
            }
            tx.send(()).unwrap();
        });
        while !matches!(graph.state.lock().lanes[0].phase, Phase::Output(_)) {
            std::thread::yield_now();
        }
        assert!(matches!(graph.step(1, |_| ()).1, Ask::Arrived(0, 0)));
        rx.recv_timeout(Duration::from_secs(20))
            .expect("the parked producer was not woken by its consumer's take");
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

/// Exhaustive breadth-first exploration of `GraphState` under every order
/// of the events its lanes bring: asks, arrival probes, claims that admit
/// a chunk or end the stream, stages that return or consume their chunk,
/// and one error, panic, stop or crash at any step. It drives the state as
/// `run`'s lanes do, one event per lock hold, and wakes only the lanes the
/// state names. States are deduplicated by hash; a violated property comes
/// back with a shortest event trace to it.
#[cfg(test)]
mod checker {
    use super::*;
    use std::collections::hash_map::{DefaultHasher, Entry};
    use std::collections::{HashMap, VecDeque};
    use std::hash::{Hash, Hasher};

    /// The graph and the traffic the search covers.
    struct Bounds {
        name: &'static str,
        depth: usize,
        widths: Vec<usize>,
        groups: Vec<(usize, usize)>,
        /// The source's claim comes back empty at seq `chunks`, or at any
        /// earlier claim.
        chunks: usize,
        /// Chunks a stage short of the last may consume.
        consumes: u8,
        /// Lanes that may err, panic, stop or crash.
        failures: u8,
    }

    /// A lane's thread, as `lane_loop` runs it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Thread {
        /// Asks at its next event: fresh, woken, or past a trace emission.
        Asking,
        Parked,
        /// Probes its arrived chunk, then asks.
        Probing,
        /// Claims (a source) or runs (a stage) its admitted seq.
        Going,
        /// A source produces its claimed chunk.
        Producing,
        Done,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Event {
        Ask(usize),
        /// A source's claim returns.
        Claim(usize, bool),
        /// A stage returns its chunk, or consumes it (`true`); a source
        /// returns the chunk it produced.
        Done(usize, bool),
        /// The lane errs, panics, stops or crashes.
        Fail(usize),
    }

    #[derive(Clone)]
    struct World {
        st: GraphState<usize>,
        threads: Vec<Thread>,
        /// Seqs each slot ran (a source: claimed) and consumed, a bit each.
        seen: Vec<u8>,
        gone: Vec<u8>,
        /// Seqs admitted into each group, a bit each.
        admitted: Vec<u8>,
        consumes: u8,
        failures: u8,
    }

    impl World {
        fn new(b: &Bounds) -> Self {
            let st = GraphState::new(b.depth, &b.widths, &b.groups);
            World {
                threads: vec![Thread::Asking; st.lanes.len()],
                seen: vec![0; b.widths.len()],
                gone: vec![0; b.widths.len()],
                admitted: vec![0; b.groups.len()],
                consumes: 0,
                failures: 0,
                st,
            }
        }

        fn events(&self, b: &Bounds) -> Vec<Event> {
            let mut events = Vec::new();
            let fails = self.failures < b.failures;
            for (l, &t) in self.threads.iter().enumerate() {
                let (p, s) = (self.st.lanes[l].slot, self.st.lanes[l].next);
                match t {
                    Thread::Asking => events.push(Event::Ask(l)),
                    Thread::Probing => events.push(Event::Ask(l)),
                    Thread::Going if p == 0 => {
                        if s < b.chunks {
                            events.push(Event::Claim(l, true));
                        }
                        events.push(Event::Claim(l, false));
                    }
                    Thread::Going | Thread::Producing => {
                        events.push(Event::Done(l, false));
                        let last = p + 1 == b.widths.len();
                        if p > 0 && !last && self.consumes < b.consumes {
                            events.push(Event::Done(l, true));
                        }
                    }
                    Thread::Parked | Thread::Done => continue,
                }
                if fails && !matches!(t, Thread::Asking) {
                    events.push(Event::Fail(l));
                }
            }
            events
        }

        /// Whether slot `p`'s lane for seq `s` already ran a later seq
        /// or this one.
        fn out_of_order(&self, p: usize, s: usize) -> bool {
            let width = self.st.slots[p].width;
            let lane_seqs = (0..8).filter(|t| t % width == s % width);
            lane_seqs
                .filter(|&t| t >= s)
                .any(|t| self.seen[p] >> t & 1 == 1)
        }

        fn apply(&mut self, event: Event) -> Result<(), String> {
            match event {
                Event::Ask(l) => {
                    let p = self.st.lanes[l].slot;
                    self.threads[l] = match self.st.ask(l) {
                        Poll::Pending => Thread::Parked,
                        Poll::Ready(Ask::End) => Thread::Done,
                        Poll::Ready(Ask::Arrived(s, chunk)) => {
                            if chunk != s {
                                return Err(format!("lane {l} got chunk {chunk} as seq {s}"));
                            }
                            Thread::Probing
                        }
                        Poll::Ready(Ask::TokenWait(..)) => Thread::Asking,
                        Poll::Ready(Ask::Token(g, s, _)) => {
                            if self.st.lanes[l].held >> g & 1 == 1 {
                                if self.admitted[g] >> s != 0 {
                                    return Err(format!("seq {s} enters group {g} late"));
                                }
                                self.admitted[g] |= 1 << s;
                            }
                            Thread::Asking
                        }
                        Poll::Ready(Ask::Go(s)) => {
                            if s % self.st.slots[p].width != l - self.st.slots[p].base
                                || self.out_of_order(p, s)
                            {
                                return Err(format!(
                                    "slot {p}'s lane {l} runs seq {s} out of turn"
                                ));
                            }
                            if p > 0 {
                                self.seen[p] |= 1 << s;
                            }
                            Thread::Going
                        }
                    };
                }
                Event::Claim(l, ok) => {
                    if ok {
                        self.seen[0] |= 1 << self.st.lanes[l].next;
                    }
                    self.st.claimed(l, ok);
                    self.threads[l] = if ok {
                        Thread::Producing
                    } else {
                        Thread::Asking
                    };
                }
                Event::Done(l, consumed) => {
                    let (p, s) = (self.st.lanes[l].slot, self.st.lanes[l].next);
                    if consumed {
                        self.gone[p] |= 1 << s;
                        self.consumes += 1;
                    }
                    self.st.done(l, (!consumed).then_some(s));
                    self.threads[l] = Thread::Asking;
                }
                Event::Fail(l) => {
                    self.failures += 1;
                    self.st.fail(l);
                    self.threads[l] = Thread::Done;
                }
            }
            for l in std::mem::take(&mut self.st.wake) {
                if self.threads[l] == Thread::Parked {
                    self.threads[l] = Thread::Asking;
                }
            }
            match self.st.groups.iter().position(|g| g.in_use > self.st.depth) {
                Some(g) => Err(format!(
                    "group {g} has {} chunks in flight",
                    self.st.groups[g].in_use
                )),
                None => Ok(()),
            }
        }

        /// The properties of a state no event changes.
        fn ends(&self) -> Result<(), String> {
            if let Some(l) = self.threads.iter().position(|&t| t != Thread::Done) {
                return Err(format!(
                    "lane {l} is {:?} and nothing wakes it",
                    self.threads[l]
                ));
            }
            if let Some(g) = self.st.groups.iter().position(|g| g.in_use > 0) {
                return Err(format!("group {g} never gets its permits back"));
            }
            if self.st.cells.iter().flatten().any(Option::is_some) {
                return Err("a chunk is left in a handoff cell".into());
            }
            if self.failures > 0 {
                return Ok(());
            }
            // Every slot ran every seq of the stream that no slot before
            // it consumed.
            let stream = (1u8 << self.st.end) - 1;
            let mut live = stream;
            for (p, &seen) in self.seen.iter().enumerate() {
                if seen != live {
                    return Err(format!("slot {p} ran seqs {seen:#b}, not {live:#b}"));
                }
                live &= !self.gone[p];
            }
            if self.st.chunks != self.st.end {
                return Err(format!(
                    "{} chunks emitted of {}",
                    self.st.chunks, self.st.end
                ));
            }
            Ok(())
        }

        /// A hash of what decides the future.
        fn fingerprint(&self) -> u64 {
            let mut h = DefaultHasher::new();
            let st = &self.st;
            for slot in &st.slots {
                slot.admit.hash(&mut h);
            }
            for g in &st.groups {
                g.in_use.hash(&mut h);
            }
            let payload = |p: &Payload<usize>| match p {
                Payload::Chunk(c) => Some(*c),
                Payload::Skip => None,
            };
            for lane in &st.lanes {
                (lane.next, lane.held).hash(&mut h);
                match &lane.phase {
                    Phase::Input => 0.hash(&mut h),
                    Phase::Arrived => 1.hash(&mut h),
                    Phase::Turn(live) => (2, live).hash(&mut h),
                    Phase::Token(i, begun) => (3, i, begun).hash(&mut h),
                    Phase::Busy => 4.hash(&mut h),
                    Phase::Output(p) => (5, payload(p)).hash(&mut h),
                    Phase::Ended => 6.hash(&mut h),
                }
            }
            for cell in st.cells.iter().flatten() {
                cell.as_ref().map(payload).hash(&mut h);
            }
            (st.end, st.closed, st.chunks, &self.threads).hash(&mut h);
            (&self.seen, &self.gone, &self.admitted).hash(&mut h);
            (self.consumes, self.failures).hash(&mut h);
            h.finish()
        }
    }

    /// Explore every state reachable within `b`, and return the number of
    /// states; the first property violated comes back with a shortest
    /// event trace to it.
    fn explore(b: &Bounds) -> Result<usize, String> {
        let started = Instant::now();
        let start = World::new(b);
        // Each state's parent and the event that led from it.
        let mut seen: HashMap<u64, Option<(u64, Event)>> = HashMap::new();
        seen.insert(start.fingerprint(), None);
        let mut frontier = VecDeque::from([start]);
        let fail = |seen: &HashMap<u64, Option<(u64, Event)>>,
                    mut at: u64,
                    last: Option<Event>,
                    why: String| {
            let mut trace: Vec<Event> = last.into_iter().collect();
            while let Some(Some((parent, event))) = seen.get(&at) {
                trace.push(*event);
                at = *parent;
            }
            trace.reverse();
            Err(format!(
                "{}: {why}\nshortest trace ({} events): {trace:?}",
                label(b),
                trace.len()
            ))
        };
        while let Some(world) = frontier.pop_front() {
            let here = world.fingerprint();
            let events = world.events(b);
            if events.is_empty() {
                if let Err(why) = world.ends() {
                    return fail(&seen, here, None, why);
                }
            }
            for event in events {
                let mut next = world.clone();
                if let Err(why) = next.apply(event) {
                    return fail(&seen, here, Some(event), why);
                }
                if let Entry::Vacant(e) = seen.entry(next.fingerprint()) {
                    e.insert(Some((here, event)));
                    frontier.push_back(next);
                }
            }
        }
        println!(
            "pipeline checker {}: {} states in {:.2?}",
            label(b),
            seen.len(),
            started.elapsed(),
        );
        Ok(seen.len())
    }

    fn label(b: &Bounds) -> String {
        format!(
            "{} graph, lanes {:?}, B {}, {} chunks, {} consumed, {} failure(s)",
            b.name, b.widths, b.depth, b.chunks, b.consumes, b.failures,
        )
    }

    /// The graphs the engine and the benches build: the map graph
    /// Input→Kernel→Partition with its two token groups at 1–2 lanes a
    /// slot, the 5-slot discrete-memory map graph, and the reduce graph of
    /// an application without a reduce function.
    fn every_bound() -> Vec<Bounds> {
        let bound = |name, depth, widths: &[usize], groups: &[(usize, usize)]| Bounds {
            name,
            depth,
            widths: widths.to_vec(),
            groups: groups.to_vec(),
            chunks: 4,
            consumes: 1,
            failures: 1,
        };
        let mut all = Vec::new();
        for depth in 1..=3 {
            for lanes in 0..8 {
                let widths = [1 + (lanes & 1), 1 + (lanes >> 1 & 1), 1 + (lanes >> 2)];
                all.push(bound("map", depth, &widths, &[(0, 1), (1, 2)]));
            }
            all.push(bound("discrete", depth, &[1; 5], &[(0, 2), (2, 4)]));
        }
        all.push(bound("reduce", 2, &[1, 1], &[]));
        all
    }

    #[test]
    fn every_event_order_keeps_every_property() {
        let all = every_bound();
        let states: usize = all
            .iter()
            .map(|b| explore(b).unwrap_or_else(|e| panic!("{e}")))
            .sum();
        println!(
            "pipeline checker: {states} states over {} bounds",
            all.len()
        );
    }
}
