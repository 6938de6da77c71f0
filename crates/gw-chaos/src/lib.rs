//! Seeded, deterministic fault injection for the Glasswing engine.
//!
//! A [`FaultPlan`] is one list of one-shot faults plus two standing
//! profiles, derived from one RNG seed or built by hand. A fault pairs a
//! *trigger* (a site, an optional node and lane, and the passages to let
//! by) with an *effect* (crash, task panic, stall, read error, drop, delay
//! or spill error). The engine probes the plan through the hooks in
//! `gw-storage` ([`StorageFaultHook`]), `gw-net` ([`NetFaultHook`]) and
//! `gw-intermediate` ([`SpillFaultHook`]) plus explicit site probes in the
//! pipelines. Every probe fires through one rule, and an empty plan
//! answers each with one emptiness check.
//!
//! A plan can also schedule **gray failures**, which leave every node
//! alive but slow ([`FaultPlan::gray_from_seed`]): a persistent per-node
//! **slowdown** that stretches every stage passage by `(factor − 1) ×
//! wall` ([`FaultPlan::gray_delay`]), a one-shot **stall** of a site
//! passage, and a **flaky link** profile that drops or delays each message
//! as a pure function of `(seed, link, message index)`.
//!
//! Determinism contract: two plans built from the same seed and node
//! count schedule identical faults ([`FaultPlan::describe`] is equal), and
//! each one-shot fault fires **at most once per plan instance** — a plan
//! is single-use; to replay a schedule, build a fresh plan from the same
//! seed. The two profiles apply for the plan's whole lifetime.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;

use gw_intermediate::SpillFaultHook;
pub use gw_intermediate::SpillOp;
use gw_net::{NetFaultAction, NetFaultHook};
use gw_storage::{NodeId, StorageFaultHook};
use gw_trace::{CounterId, LaneId, MarkId, Realm, Tracer};

/// SplitMix64 — a tiny deterministic RNG. In-repo so the fault plane
/// depends on no external crates and no global entropy.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n` clamped to at least 1).
    fn gen_range(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// `true` with probability `percent`/100.
    fn chance(&mut self, percent: u64) -> bool {
        self.gen_range(100) < percent
    }

    /// A directed link `(from, to)` between two distinct nodes of `nodes`.
    fn link(&mut self, nodes: u32) -> (u32, u32) {
        let from = self.gen_range(u64::from(nodes)) as u32;
        let to = (from + 1 + self.gen_range(u64::from(nodes) - 1) as u32) % nodes;
        (from, to)
    }
}

/// Pipeline site at which a planned node crash fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSite {
    /// Input stage, after claiming a split (dies holding the claim).
    Read,
    /// Stage (H2D) stage.
    Stage,
    /// Map kernel stage.
    Kernel,
    /// Retrieve (D2H) stage.
    Retrieve,
    /// Partition/shuffle stage.
    Shuffle,
    /// Reduce kernel — injected as a reduce-task panic, not a node death
    /// (see [`FaultPlan::reduce_fault_fires`]).
    Reduce,
}

impl CrashSite {
    /// Stable lowercase name (used by [`FaultPlan::describe`]).
    pub fn name(self) -> &'static str {
        ["read", "stage", "kernel", "retrieve", "shuffle", "reduce"][self as usize]
    }

    fn from_index(i: u64) -> Self {
        use CrashSite::*;
        [Read, Stage, Kernel, Retrieve, Shuffle, Reduce][(i % 6) as usize]
    }

    /// The crash site probed when the map pipeline's executor passes a
    /// chunk through `stage`: the map sites are the stages, in order (the
    /// [`CrashSite::Reduce`] site has no map stage and is reached through
    /// [`FaultPlan::reduce_fault_fires`] instead).
    pub fn for_map_stage(stage: gw_pipeline::StageId) -> Self {
        CrashSite::from_index(stage.index() as u64)
    }
}

/// The probe point a fault waits at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Site {
    /// A map pipeline stage, or the reduce kernel.
    Stage(CrashSite),
    /// A storage block index, of any file.
    Block(usize),
    /// Data messages sent to this node (the trigger's node is the sender).
    Link(u32),
    /// A spill-file operation.
    Spill(SpillOp),
}

impl Site {
    /// How marks and `describe()` name the site: a stage or a spill
    /// operation by name, a block or a link by its number.
    fn label(self) -> (&'static str, u64) {
        match self {
            Site::Stage(site) => (site.name(), 0),
            Site::Block(block) => ("block", block as u64),
            Site::Link(to) => ("link", u64::from(to)),
            Site::Spill(SpillOp::Write) => ("write", 0),
            Site::Spill(SpillOp::Read) => ("read", 0),
        }
    }
}

/// When a fault fires: on the `after+1`-th passage of `site` that passes
/// the node and lane filters (`None` passes every node or lane).
#[derive(Debug)]
struct Trigger {
    site: Site,
    node: Option<u32>,
    /// A lane-pinned fault counts and fires only on its lane of a widened
    /// stage; sibling lanes pass untouched and consume no passages.
    lane: Option<u32>,
    after: u32,
}

/// What a fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Effect {
    /// The node dies (a map-side stage site).
    Crash,
    /// The reduce task panics and the retry budget re-executes it (a
    /// whole-node reduce crash is unrecoverable, DESIGN.md §3.5).
    TaskPanic,
    /// The passage stalls this many milliseconds.
    Stall(u64),
    /// The block read fails, and the reader fails over to a replica.
    ReadError,
    /// The message is dropped.
    Drop,
    /// The message is delayed.
    Delay(Duration),
    /// The spill-file operation fails; the job fails cleanly.
    SpillError,
}

/// A one-shot fault: its effect, fired by its trigger at most once.
#[derive(Debug)]
struct Fault {
    trigger: Trigger,
    effect: Effect,
    seen: AtomicU32,
    fired: AtomicBool,
}

impl Fault {
    /// The fault's rank in the canonical order (crash, read, net, then the
    /// slowdown profile, stall, the flaky profile, spill), the kind
    /// [`FaultPlan::unfired`] names it by, and its `fault-armed` mark.
    fn kind(&self) -> (u8, &'static str, MarkId) {
        let (after, number) = (u64::from(self.trigger.after), self.trigger.site.label().1);
        let (rank, unfired, kind, detail) = match self.effect {
            Effect::Crash => (0, "crash", "crash", after),
            Effect::TaskPanic => (0, "crash", "task", after),
            Effect::ReadError => (1, "read", "read", number),
            Effect::Drop => (2, "net", "net-drop", after),
            Effect::Delay(_) => (2, "net", "net-delay", after),
            Effect::Stall(ms) => (4, "stall", "stall", ms),
            Effect::SpillError => (6, "spill", "spill", after),
        };
        (rank, unfired, MarkId::FaultArmed { kind, detail })
    }

    /// The fault's line of [`FaultPlan::listing`].
    fn listed(&self) -> (u8, u32, MarkId, String) {
        let t = &self.trigger;
        let ((site, number), node, after) = (t.site.label(), t.node.unwrap_or(0), t.after);
        let text = match self.effect {
            Effect::Crash | Effect::TaskPanic => {
                format!("crash(node={node},site={site},after={after}")
            }
            Effect::ReadError => format!("read(block={number}"),
            Effect::Drop => format!("net(drop {node}->{number},nth={after}"),
            Effect::Delay(d) => {
                format!("net(delay={}ms {node}->{number},nth={after}", d.as_millis())
            }
            Effect::Stall(ms) => format!("stall(node={node},site={site},after={after},ms={ms}"),
            Effect::SpillError => format!("spill({site},nth={after}"),
        };
        let (rank, _, armed) = self.kind();
        (rank, node, armed, format!("{text}{})", lane_suffix(t.lane)))
    }

    /// The mark a firing emits on the probing node's chaos lane.
    fn fired_mark(&self) -> MarkId {
        let (name, number) = self.trigger.site.label();
        match self.effect {
            Effect::Crash => MarkId::CrashFired {
                site: name,
                after: u64::from(self.trigger.after),
            },
            Effect::TaskPanic => MarkId::TaskFaultFired,
            Effect::Stall(ms) => MarkId::StallFired { site: name, ms },
            Effect::ReadError => MarkId::ReadFaultFired { block: number },
            Effect::Drop => MarkId::NetFaultFired { kind: "drop" },
            Effect::Delay(_) => MarkId::NetFaultFired { kind: "delay" },
            Effect::SpillError => MarkId::SpillFaultFired { op: name },
        }
    }
}

/// Persistent per-node slowdown profile: every stage passage on the
/// victim is stretched by `(factor_x100 − 100)%` of its measured wall time.
#[derive(Debug)]
struct SlowProfile {
    node: u32,
    /// Slowdown factor × 100 (400 = the node runs 4× slower).
    factor_x100: u32,
    /// Lane filter, as on a fault's trigger.
    lane: Option<u32>,
}

/// Probabilistic drop/delay profile on one directed link: every data
/// message on the link rolls against it.
#[derive(Debug)]
struct FlakyProfile {
    from: u32,
    to: u32,
    /// Percent of messages dropped.
    drop_pct: u32,
    /// Percent of messages delayed (on top of `drop_pct`).
    delay_pct: u32,
    delay: Duration,
    seen: AtomicU32,
}

/// What the last builder added: the target of [`FaultPlan::on_lane`].
#[derive(Debug, Default, Clone, Copy)]
enum Added {
    #[default]
    Other,
    Fault,
    Slowdown,
}

/// A deterministic, single-use schedule of injected faults.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    /// The one-shot faults, in the order they were added.
    faults: Vec<Fault>,
    slow: Option<SlowProfile>,
    flaky: Option<FlakyProfile>,
    added: Added,
    tracer: RwLock<Option<Arc<Tracer>>>,
}

impl FaultPlan {
    /// Derive a full fault schedule from `seed` for an `nodes`-node
    /// cluster. Every plan schedules at least one fault.
    pub fn from_seed(seed: u64, nodes: u32) -> Self {
        let mut rng = SplitMix64 { state: seed };
        let mut plan = FaultPlan::empty();
        plan.seed = seed;
        // ~60% of plans crash a node (or fault a reduce task); storage and
        // network faults each ~45%, so most seeds combine fault classes.
        if rng.chance(60) {
            let node = rng.gen_range(u64::from(nodes.max(1))) as u32;
            let site = CrashSite::from_index(rng.next_u64());
            plan = plan.with_crash(node, site, rng.gen_range(3) as u32);
        }
        if rng.chance(45) {
            plan = plan.with_read_fault(rng.gen_range(8) as usize);
        }
        if rng.chance(45) && nodes > 1 {
            let (from, to) = rng.link(nodes);
            plan = if rng.chance(50) {
                plan.with_net_drop(from, to, rng.gen_range(4) as u32)
            } else {
                let delay = Duration::from_millis(5 + rng.gen_range(60));
                plan.with_net_delay(from, to, rng.gen_range(4) as u32, delay)
            };
        }
        if plan.faults.is_empty() {
            plan = plan.with_read_fault(rng.gen_range(8) as usize);
        }
        plan
    }

    /// Derive a **gray-failure** schedule from `seed`: slowdowns, stalls
    /// and flaky links only — every node stays alive, so (unlike
    /// [`FaultPlan::from_seed`] schedules) every gray plan is recoverable
    /// and must reproduce byte-identical output. Every plan schedules at
    /// least one gray fault.
    pub fn gray_from_seed(seed: u64, nodes: u32) -> Self {
        let mut rng = SplitMix64 {
            state: seed ^ 0xA5A5_5A5A_C3C3_3C3C,
        };
        let mut plan = FaultPlan::empty();
        plan.seed = seed;
        // ~55% slowdown, ~45% stall, ~45% flaky link: most seeds mix
        // degradation families.
        if rng.chance(55) {
            let node = rng.gen_range(u64::from(nodes.max(1))) as u32;
            // 1.5×..5×
            plan = plan.with_slowdown(node, 150 + 50 * rng.gen_range(8) as u32);
        }
        if rng.chance(45) {
            let node = rng.gen_range(u64::from(nodes.max(1))) as u32;
            let site = CrashSite::from_index(rng.next_u64());
            plan = plan.with_stall(node, site, rng.gen_range(3) as u32, 10 + rng.gen_range(90));
        }
        if rng.chance(45) && nodes > 1 {
            let (from, to) = rng.link(nodes);
            let drop_pct = 10 + rng.gen_range(30) as u32;
            let delay_pct = 10 + rng.gen_range(30) as u32;
            let delay = Duration::from_millis(1 + rng.gen_range(15));
            plan = plan.with_flaky_link(from, to, drop_pct, delay_pct, delay);
        }
        if !plan.schedules_gray_fault() {
            let node = rng.gen_range(u64::from(nodes.max(1))) as u32;
            plan = plan.with_slowdown(node, 300);
        }
        plan
    }

    /// Explicit plan: crash `node` at `site` after surviving
    /// `after_chunks` passages of that site.
    pub fn crash(node: u32, site: CrashSite, after_chunks: u32) -> Self {
        FaultPlan::empty().with_crash(node, site, after_chunks)
    }

    /// Empty plan to extend with the `with_*` builders.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    fn with(mut self, site: Site, node: Option<u32>, after: u32, effect: Effect) -> Self {
        self.faults.push(Fault {
            trigger: Trigger {
                site,
                node,
                lane: None,
                after,
            },
            effect,
            seen: AtomicU32::new(0),
            fired: AtomicBool::new(false),
        });
        self.added = Added::Fault;
        self
    }

    /// A crash at a map site is a node death; at the reduce site, a task panic.
    fn with_crash(self, node: u32, site: CrashSite, after: u32) -> Self {
        let effect = if site == CrashSite::Reduce {
            Effect::TaskPanic
        } else {
            Effect::Crash
        };
        self.with(Site::Stage(site), Some(node), after, effect)
    }

    /// Add a one-shot read fault on block index `block` (any file).
    pub fn with_read_fault(self, block: usize) -> Self {
        self.with(Site::Block(block), None, 0, Effect::ReadError)
    }

    /// Drop the `nth` (0-based) data message on the `from → to` link.
    pub fn with_net_drop(self, from: u32, to: u32, nth: u32) -> Self {
        self.with(Site::Link(to), Some(from), nth, Effect::Drop)
    }

    /// Delay the `nth` (0-based) data message on the `from → to` link.
    pub fn with_net_delay(self, from: u32, to: u32, nth: u32, delay: Duration) -> Self {
        self.with(Site::Link(to), Some(from), nth, Effect::Delay(delay))
    }

    /// Slow `node` down persistently: every stage passage is stretched to
    /// `factor_x100 / 100` of its wall time (400 = the node runs 4× slower).
    pub fn with_slowdown(mut self, node: u32, factor_x100: u32) -> Self {
        self.slow = Some(SlowProfile {
            node,
            factor_x100,
            lane: None,
        });
        self.added = Added::Slowdown;
        self
    }

    /// Stall `node` for `ms` milliseconds, once, on its `after+1`-th
    /// passage of `site`.
    pub fn with_stall(self, node: u32, site: CrashSite, after: u32, ms: u64) -> Self {
        self.with(Site::Stage(site), Some(node), after, Effect::Stall(ms))
    }

    /// Fail the `nth` (0-based) spill-file operation of kind `op` — a
    /// frame write on a merger thread, or a spill open/frame read on the
    /// compaction and reduce-input paths. One-shot; the store poisons and
    /// surfaces the error as `EngineError::Io` instead of panicking, so
    /// seeded plans (whose sweeps assert success) never schedule one.
    pub fn with_spill_fault(self, op: SpillOp, nth: u32) -> Self {
        self.with(Site::Spill(op), None, nth, Effect::SpillError)
    }

    /// Make the `from → to` link flaky: each data message independently
    /// drops with probability `drop_pct`% or is delayed by `delay` with
    /// probability `delay_pct`%, decided deterministically per message.
    pub fn with_flaky_link(
        mut self,
        from: u32,
        to: u32,
        drop_pct: u32,
        delay_pct: u32,
        delay: Duration,
    ) -> Self {
        self.flaky = Some(FlakyProfile {
            from,
            to,
            drop_pct,
            delay_pct,
            delay,
            seen: AtomicU32::new(0),
        });
        self.added = Added::Other;
        self
    }

    /// Pin the fault or slowdown added just before to lane `lane` of its
    /// (widened) stage: only that lane's passages count toward `after`,
    /// and only that lane is hit. A single-lane stage probes as lane 0.
    /// Panics if the last builder added neither.
    pub fn on_lane(mut self, lane: u32) -> Self {
        match (self.added, self.faults.last_mut(), &mut self.slow) {
            (Added::Fault, Some(fault), _) => fault.trigger.lane = Some(lane),
            (Added::Slowdown, _, Some(slow)) => slow.lane = Some(lane),
            _ => panic!("on_lane pins the fault or slowdown added just before it"),
        }
        self
    }

    /// The seed the plan was derived from (0 for explicit plans).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The armed persistent slowdown, if any, as `(node, factor_x100)`.
    /// This is what lets telemetry tests check a live health finding
    /// against the plan's ground truth without re-deriving the seed.
    pub fn gray_slowdown(&self) -> Option<(u32, u32)> {
        self.slow.as_ref().map(|s| (s.node, s.factor_x100))
    }

    /// Every fault and profile in the canonical order — crash, read, net,
    /// slow, stall, flaky, spill — whatever order the builders ran in: its
    /// rank, the node its `fault-armed` mark goes to, the mark, and its
    /// `describe()` text.
    fn listing(&self) -> Vec<(u8, u32, MarkId, String)> {
        let armed = |kind, detail: u32| MarkId::FaultArmed {
            kind,
            detail: detail.into(),
        };
        let mut all: Vec<_> = self.faults.iter().map(Fault::listed).collect();
        if let Some(s) = &self.slow {
            let text = format!(
                "slow(node={},x{}{})",
                s.node,
                s.factor_x100,
                lane_suffix(s.lane)
            );
            all.push((3, s.node, armed("slow", s.factor_x100), text));
        }
        if let Some(f) = &self.flaky {
            let (drop, delay, ms) = (f.drop_pct, f.delay_pct, f.delay.as_millis());
            let text = format!(
                "flaky({}->{},drop={drop}%,delay={delay}%/{ms}ms)",
                f.from, f.to
            );
            all.push((5, f.from, armed("flaky", drop), text));
        }
        all.sort_by_key(|l| l.0);
        all
    }

    /// Arm (`Some`) or disarm (`None`) the observability tracer. Arming
    /// emits one `fault-armed` mark per scheduled fault on the chaos lane
    /// of the fault's node (node 0 for a fault pinned to none), and later
    /// firings emit their marks on the probing node's chaos lane.
    pub fn arm_tracer(&self, tracer: Option<Arc<Tracer>>) {
        if let Some(t) = &tracer {
            for (_, node, armed, _) in self.listing() {
                t.lane(chaos_lane(node)).instant(armed);
            }
        }
        *self.tracer.write() = tracer;
    }

    /// Emit `mark` on `node`'s chaos lane if a tracer is armed.
    fn trace_mark(&self, node: u32, mark: MarkId) {
        if let Some(t) = self.tracer.read().as_ref() {
            t.lane(chaos_lane(node)).instant(mark);
        }
    }

    /// Whether a whole-node crash is scheduled (at a map-side site).
    pub fn schedules_node_crash(&self) -> bool {
        self.faults.iter().any(|f| f.effect == Effect::Crash)
    }

    /// Deterministic human-readable schedule, for reproducibility checks:
    /// equal seeds (and node counts) must yield equal descriptions.
    pub fn describe(&self) -> String {
        let mut parts = vec![format!("seed={:#x}", self.seed)];
        parts.extend(self.listing().into_iter().map(|(.., text)| text));
        parts.join(" ")
    }

    /// Whether the plan schedules any gray fault (slowdown, stall or
    /// flaky link).
    pub fn schedules_gray_fault(&self) -> bool {
        let stall = |f: &Fault| matches!(f.effect, Effect::Stall(_));
        self.slow.is_some() || self.flaky.is_some() || self.faults.iter().any(stall)
    }

    /// The one-shot faults this plan armed that have not fired, by kind
    /// (`crash`, `read`, `net`, `stall`, `spill`). A test that builds its
    /// plan by hand asserts this is empty after the run: a fault that
    /// never fired tested nothing. Persistent slowdowns and flaky links
    /// are profiles, not one-shot events, so they never appear here.
    pub fn unfired(&self) -> Vec<&'static str> {
        self.faults
            .iter()
            .filter(|f| !f.fired.load(Ordering::Relaxed))
            .map(|f| f.kind().1)
            .collect()
    }

    /// The one rule every probe fires through. The first unfired fault
    /// whose effect `wants` and whose trigger matches this passage of
    /// `site` on lane `lane` of `node` counts the passage; once it has let
    /// `after` by, it fires — once per plan — and marks `node`'s chaos
    /// lane. An empty plan answers with one emptiness check.
    fn fire(&self, site: Site, node: u32, lane: u32, wants: fn(Effect) -> bool) -> Option<Effect> {
        self.faults.iter().find_map(|f| {
            let t = &f.trigger;
            if !wants(f.effect)
                || t.site != site
                || t.node.is_some_and(|n| n != node)
                || t.lane.is_some_and(|l| l != lane)
                || f.fired.load(Ordering::Relaxed)
            {
                return None;
            }
            let seen = f.seen.fetch_add(1, Ordering::Relaxed) + 1;
            if seen <= t.after || f.fired.swap(true, Ordering::Relaxed) {
                return None;
            }
            self.trace_mark(node, f.fired_mark());
            Some(f.effect)
        })
    }

    /// Probe a map-pipeline crash site from lane `lane` of its stage
    /// (0 on a single-lane stage). Returns `true` exactly once — on the
    /// victim node's `after+1`-th passage of the scheduled site — after
    /// which the caller must treat the node as crashed.
    pub fn crash_fires(&self, node: u32, site: CrashSite, lane: u32) -> bool {
        self.fire(Site::Stage(site), node, lane, |e| e == Effect::Crash)
            .is_some()
    }

    /// Probe the reduce fault for `node`, once per reduce task attempt.
    /// A [`CrashSite::Reduce`] schedule is injected as a reduce-task panic
    /// (recovered by the reduce retry budget), not as a node death, on
    /// the node's `after+1`-th attempt.
    pub fn reduce_fault_fires(&self, node: u32) -> bool {
        let site = Site::Stage(CrashSite::Reduce);
        self.fire(site, node, 0, |e| e == Effect::TaskPanic)
            .is_some()
    }

    /// Probe the gray-failure plane after lane `lane` of `node`'s `site`
    /// stage passed a chunk in `wall` time. Returns the extra time the
    /// caller must sleep, or `None` when no gray fault applies (the common
    /// case). The one-shot stall applies first; then the persistent
    /// slowdown stretches the passage by `(factor − 1) × wall` and counts
    /// a [`CounterId::GraySlowdowns`] tick when a tracer is armed.
    pub fn gray_delay(
        &self,
        node: u32,
        site: CrashSite,
        lane: u32,
        wall: Duration,
    ) -> Option<Duration> {
        let mut total = Duration::ZERO;
        let is_stall = |e| matches!(e, Effect::Stall(_));
        if let Some(Effect::Stall(ms)) = self.fire(Site::Stage(site), node, lane, is_stall) {
            total += Duration::from_millis(ms);
        }
        if let Some(s) = &self.slow {
            if s.node == node && s.factor_x100 > 100 && s.lane.is_none_or(|l| l == lane) {
                total += wall * (s.factor_x100 - 100) / 100;
                if let Some(t) = self.tracer.read().as_ref() {
                    t.lane(chaos_lane(node)).count(CounterId::GraySlowdowns, 1);
                }
            }
        }
        (!total.is_zero()).then_some(total)
    }
}

/// `describe()` suffix for a lane-pinned fault (empty when unpinned, so
/// historical descriptions are unchanged).
fn lane_suffix(lane: Option<u32>) -> String {
    lane.map(|l| format!(",lane={l}")).unwrap_or_default()
}

/// Node `node`'s chaos lane.
fn chaos_lane(node: u32) -> LaneId {
    LaneId {
        job: 0,
        node,
        realm: Realm::Chaos,
    }
}

impl StorageFaultHook for FaultPlan {
    fn read_fault(&self, _path: &str, block: usize, source: NodeId) -> bool {
        self.fire(Site::Block(block), source.0, 0, |_| true)
            .is_some()
    }
}

impl SpillFaultHook for FaultPlan {
    fn spill_fault(&self, op: SpillOp) -> bool {
        // Spill faults are not pinned to a node (every store armed with
        // this plan probes it); the probe reports on the cluster lane.
        self.fire(Site::Spill(op), 0, 0, |_| true).is_some()
    }
}

impl NetFaultHook for FaultPlan {
    fn on_data_message(&self, from: NodeId, to: NodeId) -> NetFaultAction {
        // The flaky profile rolls first; a message it drops or delays does
        // not count toward a one-shot net fault's `nth`.
        if let Some(f) = &self.flaky {
            if f.from == from.0 && f.to == to.0 {
                let n = f.seen.fetch_add(1, Ordering::Relaxed);
                // The outcome is a pure function of (seed, link, message
                // index): re-running the same schedule rolls identically.
                let link = (u64::from(f.from) << 32) | u64::from(f.to);
                let state = self.seed ^ link.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(n);
                let roll = (SplitMix64 { state }).gen_range(100) as u32;
                if roll < f.drop_pct {
                    self.trace_mark(from.0, MarkId::NetFaultFired { kind: "drop" });
                    return NetFaultAction::Drop;
                }
                if roll < f.drop_pct + f.delay_pct {
                    self.trace_mark(from.0, MarkId::NetFaultFired { kind: "delay" });
                    return NetFaultAction::Delay(f.delay);
                }
            }
        }
        match self.fire(Site::Link(to.0), from.0, 0, |_| true) {
            Some(Effect::Drop) => NetFaultAction::Drop,
            Some(Effect::Delay(d)) => NetFaultAction::Delay(d),
            _ => NetFaultAction::Deliver,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        for seed in [0u64, 1, 7, 42, 0xDEAD_BEEF, u64::MAX] {
            let a = FaultPlan::from_seed(seed, 4);
            let b = FaultPlan::from_seed(seed, 4);
            assert_eq!(a.describe(), b.describe(), "seed {seed}");
        }
    }

    #[test]
    fn every_plan_schedules_at_least_one_fault() {
        for seed in 0..200u64 {
            let p = FaultPlan::from_seed(seed, 4);
            assert!(!p.faults.is_empty(), "seed {seed} scheduled nothing");
        }
    }

    #[test]
    fn crash_fires_once_at_the_right_passage() {
        let p = FaultPlan::crash(2, CrashSite::Kernel, 2);
        // Wrong node / site: never fires, never consumes passages.
        assert!(!p.crash_fires(1, CrashSite::Kernel, 0));
        assert!(!p.crash_fires(2, CrashSite::Shuffle, 0));
        // Victim survives `after` passages, dies on the next, only once.
        assert!(!p.crash_fires(2, CrashSite::Kernel, 0));
        assert!(!p.crash_fires(2, CrashSite::Kernel, 0));
        assert!(p.crash_fires(2, CrashSite::Kernel, 0));
        assert!(!p.crash_fires(2, CrashSite::Kernel, 0));
    }

    /// Armed one-shot faults are listed until they fire; profiles never.
    #[test]
    fn unfired_lists_armed_one_shot_faults_until_they_fire() {
        let p = FaultPlan::crash(2, CrashSite::Kernel, 0)
            .with_read_fault(3)
            .with_slowdown(1, 400)
            .with_flaky_link(0, 1, 50, 0, Duration::ZERO);
        assert_eq!(p.unfired(), ["crash", "read"]);
        assert!(p.crash_fires(2, CrashSite::Kernel, 0));
        assert_eq!(p.unfired(), ["read"]);
        assert!(p.read_fault("/f", 3, NodeId(1)));
        assert!(p.unfired().is_empty());
    }

    #[test]
    fn reduce_site_fires_via_reduce_probe_only() {
        let p = FaultPlan::crash(1, CrashSite::Reduce, 0);
        assert!(!p.schedules_node_crash());
        assert!(!p.crash_fires(1, CrashSite::Kernel, 0));
        assert!(!p.reduce_fault_fires(0));
        assert!(p.reduce_fault_fires(1));
        assert!(!p.reduce_fault_fires(1));
    }

    /// A reduce-site fault counts task attempts like every other site.
    #[test]
    fn reduce_fault_fires_on_the_attempt_after_after() {
        let p = FaultPlan::crash(1, CrashSite::Reduce, 2);
        let fired: Vec<bool> = (0..5).map(|_| p.reduce_fault_fires(1)).collect();
        assert_eq!(fired, [false, false, true, false, false]);
    }

    #[test]
    fn read_fault_fires_once_on_its_block() {
        let p = FaultPlan::empty().with_read_fault(3);
        assert!(!p.read_fault("/f", 0, NodeId(0)));
        assert!(p.read_fault("/f", 3, NodeId(1)));
        assert!(!p.read_fault("/f", 3, NodeId(1)));
    }

    #[test]
    fn net_fault_fires_on_nth_message_of_its_link() {
        let p = FaultPlan::empty().with_net_drop(1, 0, 2);
        // Other links unaffected.
        assert_eq!(
            p.on_data_message(NodeId(0), NodeId(1)),
            NetFaultAction::Deliver
        );
        // nth=2: two messages pass, the third drops, later ones pass.
        assert_eq!(
            p.on_data_message(NodeId(1), NodeId(0)),
            NetFaultAction::Deliver
        );
        assert_eq!(
            p.on_data_message(NodeId(1), NodeId(0)),
            NetFaultAction::Deliver
        );
        assert_eq!(
            p.on_data_message(NodeId(1), NodeId(0)),
            NetFaultAction::Drop
        );
        assert_eq!(
            p.on_data_message(NodeId(1), NodeId(0)),
            NetFaultAction::Deliver
        );
        // The flaky profile rolls first: a message it drops never counts
        // toward the one-shot fault's `nth`.
        let q = FaultPlan::empty()
            .with_net_delay(1, 0, 0, Duration::from_millis(3))
            .with_flaky_link(1, 0, 100, 0, Duration::ZERO);
        for _ in 0..4 {
            assert_eq!(
                q.on_data_message(NodeId(1), NodeId(0)),
                NetFaultAction::Drop
            );
        }
        assert_eq!(q.unfired(), ["net"]);
    }

    #[test]
    fn map_stage_crash_sites_cover_all_five_stages() {
        use gw_pipeline::StageId;
        let sites: Vec<CrashSite> = StageId::ALL
            .into_iter()
            .map(CrashSite::for_map_stage)
            .collect();
        assert_eq!(
            sites,
            vec![
                CrashSite::Read,
                CrashSite::Stage,
                CrashSite::Kernel,
                CrashSite::Retrieve,
                CrashSite::Shuffle,
            ]
        );
    }

    /// Each case pins the whole mark sequence, lane by lane: arming lists
    /// the faults in the canonical order whatever order they were built
    /// in, and each kind's firing leaves its own mark.
    #[test]
    fn armed_tracer_records_arming_and_firing() {
        use gw_trace::LogicalKind;
        let armed = |kind, detail| MarkId::FaultArmed { kind, detail };
        // A plan, its probes, the marks they leave, and the slowdowns counted.
        type Case = (FaultPlan, fn(&FaultPlan), Vec<(u32, MarkId)>, u64);
        let cases: Vec<Case> = vec![
            (
                FaultPlan::crash(2, CrashSite::Kernel, 1).with_read_fault(3),
                |p| {
                    assert!(!p.crash_fires(2, CrashSite::Kernel, 0));
                    assert!(p.crash_fires(2, CrashSite::Kernel, 0));
                    assert!(p.read_fault("/f", 3, NodeId(1)));
                },
                vec![
                    (0, armed("read", 3)),
                    (1, MarkId::ReadFaultFired { block: 3 }),
                    (2, armed("crash", 1)),
                    (
                        2,
                        MarkId::CrashFired {
                            site: "kernel",
                            after: 1,
                        },
                    ),
                ],
                0,
            ),
            (
                // All seven kinds on node 0's lane, built out of order.
                FaultPlan::crash(0, CrashSite::Reduce, 1)
                    .with_spill_fault(SpillOp::Write, 0)
                    .with_flaky_link(0, 2, 100, 0, Duration::ZERO)
                    .with_stall(0, CrashSite::Kernel, 0, 15)
                    .with_slowdown(0, 300)
                    .with_net_delay(0, 1, 0, Duration::from_millis(5))
                    .with_read_fault(4),
                |p| {
                    assert!(!p.reduce_fault_fires(0));
                    assert!(p.reduce_fault_fires(0));
                    assert!(p.read_fault("/f", 4, NodeId(0)));
                    let delay = Duration::from_millis(5);
                    assert_eq!(
                        p.on_data_message(NodeId(0), NodeId(1)),
                        NetFaultAction::Delay(delay)
                    );
                    assert_eq!(
                        p.on_data_message(NodeId(0), NodeId(2)),
                        NetFaultAction::Drop
                    );
                    assert_eq!(
                        p.gray_delay(0, CrashSite::Kernel, 0, Duration::from_millis(2)),
                        Some(Duration::from_millis(19))
                    );
                    assert!(p.spill_fault(SpillOp::Write));
                },
                vec![
                    (0, armed("task", 1)),
                    (0, armed("read", 4)),
                    (0, armed("net-delay", 0)),
                    (0, armed("slow", 300)),
                    (0, armed("stall", 15)),
                    (0, armed("flaky", 100)),
                    (0, armed("spill", 0)),
                    (0, MarkId::TaskFaultFired),
                    (0, MarkId::ReadFaultFired { block: 4 }),
                    (0, MarkId::NetFaultFired { kind: "delay" }),
                    (0, MarkId::NetFaultFired { kind: "drop" }),
                    (
                        0,
                        MarkId::StallFired {
                            site: "kernel",
                            ms: 15,
                        },
                    ),
                    (0, MarkId::SpillFaultFired { op: "write" }),
                ],
                1,
            ),
        ];
        for (i, (plan, probes, expected, slowdowns)) in cases.into_iter().enumerate() {
            let tracer = Arc::new(Tracer::new());
            plan.arm_tracer(Some(Arc::clone(&tracer)));
            probes(&plan);
            assert!(plan.unfired().is_empty(), "case {i}");
            let trace = tracer.finish();
            let marks: Vec<(u32, MarkId)> = trace
                .logical_events()
                .into_iter()
                .filter_map(|(lane, kind)| match kind {
                    LogicalKind::Instant { mark } => Some((lane.node, mark)),
                    _ => None,
                })
                .collect();
            assert_eq!(marks, expected, "case {i}");
            let counted = trace.metrics().counter_total(CounterId::GraySlowdowns);
            assert_eq!(counted, slowdowns, "case {i}");
        }
    }

    #[test]
    fn gray_seed_is_deterministic_and_always_schedules() {
        for seed in 0..200u64 {
            let a = FaultPlan::gray_from_seed(seed, 4);
            let b = FaultPlan::gray_from_seed(seed, 4);
            assert_eq!(a.describe(), b.describe(), "seed {seed}");
            assert!(a.schedules_gray_fault(), "seed {seed} scheduled nothing");
            assert!(
                a.faults
                    .iter()
                    .all(|f| matches!(f.effect, Effect::Stall(_))),
                "seed {seed} scheduled a non-gray fault"
            );
        }
    }

    #[test]
    fn slowdown_stretches_every_passage_proportionally() {
        let p = FaultPlan::empty().with_slowdown(1, 400);
        // 4× slower: a 10ms passage owes 30ms of extra sleep, every time.
        let wall = Duration::from_millis(10);
        assert_eq!(
            p.gray_delay(1, CrashSite::Kernel, 0, wall),
            Some(Duration::from_millis(30))
        );
        assert_eq!(
            p.gray_delay(1, CrashSite::Read, 0, wall),
            Some(Duration::from_millis(30))
        );
        // Other nodes run at full speed.
        assert_eq!(p.gray_delay(0, CrashSite::Kernel, 0, wall), None);
    }

    #[test]
    fn stall_fires_once_at_the_right_passage() {
        let p = FaultPlan::empty().with_stall(2, CrashSite::Stage, 1, 25);
        let wall = Duration::from_millis(1);
        // Wrong node / site never stalls and never consumes passages.
        assert_eq!(p.gray_delay(1, CrashSite::Stage, 0, wall), None);
        assert_eq!(p.gray_delay(2, CrashSite::Kernel, 0, wall), None);
        // Victim survives `after` passages, stalls on the next, only once.
        assert_eq!(p.gray_delay(2, CrashSite::Stage, 0, wall), None);
        assert_eq!(
            p.gray_delay(2, CrashSite::Stage, 0, wall),
            Some(Duration::from_millis(25))
        );
        assert_eq!(p.gray_delay(2, CrashSite::Stage, 0, wall), None);
    }

    #[test]
    fn flaky_link_rolls_per_message_deterministically() {
        let delay = Duration::from_millis(4);
        let mk = || FaultPlan::empty().with_flaky_link(1, 0, 30, 30, delay);
        let a = mk();
        let b = mk();
        let rolls_a: Vec<NetFaultAction> = (0..64)
            .map(|_| a.on_data_message(NodeId(1), NodeId(0)))
            .collect();
        let rolls_b: Vec<NetFaultAction> = (0..64)
            .map(|_| b.on_data_message(NodeId(1), NodeId(0)))
            .collect();
        assert_eq!(rolls_a, rolls_b, "same message index, same outcome");
        // With 30%/30% over 64 messages all three outcomes should appear.
        assert!(rolls_a.contains(&NetFaultAction::Drop));
        assert!(rolls_a.contains(&NetFaultAction::Delay(delay)));
        assert!(rolls_a.contains(&NetFaultAction::Deliver));
        // Other links are untouched.
        assert_eq!(
            a.on_data_message(NodeId(0), NodeId(1)),
            NetFaultAction::Deliver
        );
    }

    #[test]
    fn gray_firings_reach_an_armed_tracer() {
        use gw_trace::LogicalKind;
        let tracer = Arc::new(Tracer::new());
        let p = FaultPlan::empty()
            .with_slowdown(1, 300)
            .with_stall(1, CrashSite::Kernel, 0, 15);
        p.arm_tracer(Some(Arc::clone(&tracer)));
        assert!(p
            .gray_delay(1, CrashSite::Kernel, 0, Duration::from_millis(2))
            .is_some());
        let trace = tracer.finish();
        let marks: Vec<MarkId> = trace
            .logical_events()
            .into_iter()
            .filter_map(|(_, kind)| match kind {
                LogicalKind::Instant { mark } => Some(mark),
                _ => None,
            })
            .collect();
        assert!(marks.contains(&MarkId::FaultArmed {
            kind: "slow",
            detail: 300
        }));
        assert!(marks.contains(&MarkId::FaultArmed {
            kind: "stall",
            detail: 15
        }));
        assert!(marks.contains(&MarkId::StallFired {
            site: "kernel",
            ms: 15
        }));
        assert_eq!(trace.metrics().counter_total(CounterId::GraySlowdowns), 1);
    }

    #[test]
    fn unarmed_gray_probe_is_silent() {
        let p = FaultPlan::empty();
        assert_eq!(
            p.gray_delay(0, CrashSite::Kernel, 0, Duration::from_millis(5)),
            None
        );
        assert_eq!(
            p.on_data_message(NodeId(0), NodeId(1)),
            NetFaultAction::Deliver
        );
    }

    #[test]
    fn lane_pinned_crash_spares_sibling_lanes() {
        let p = FaultPlan::crash(2, CrashSite::Kernel, 1).on_lane(1);
        assert!(p.describe().contains("lane=1"));
        // Sibling lanes never fire and never consume passages.
        assert!(!p.crash_fires(2, CrashSite::Kernel, 0));
        assert!(!p.crash_fires(2, CrashSite::Kernel, 0));
        assert!(!p.crash_fires(2, CrashSite::Kernel, 2));
        // The pinned lane survives `after` of *its own* passages first.
        assert!(!p.crash_fires(2, CrashSite::Kernel, 1));
        assert!(p.crash_fires(2, CrashSite::Kernel, 1));
        assert!(!p.crash_fires(2, CrashSite::Kernel, 1));
        // A single-lane stage probes as lane 0, so a lane-1 pin never fires it.
        let q = FaultPlan::crash(2, CrashSite::Kernel, 0).on_lane(1);
        assert!(!q.crash_fires(2, CrashSite::Kernel, 0));
        assert!(q.crash_fires(2, CrashSite::Kernel, 1));
    }

    #[test]
    fn lane_pinned_gray_faults_only_touch_their_lane() {
        let wall = Duration::from_millis(10);
        let p = FaultPlan::empty().with_slowdown(1, 300).on_lane(2);
        assert_eq!(p.gray_delay(1, CrashSite::Kernel, 0, wall), None);
        assert_eq!(
            p.gray_delay(1, CrashSite::Kernel, 2, wall),
            Some(Duration::from_millis(20))
        );

        let st = FaultPlan::empty()
            .with_stall(2, CrashSite::Stage, 1, 25)
            .on_lane(0);
        // Lane-1 passages consume nothing.
        assert_eq!(st.gray_delay(2, CrashSite::Stage, 1, wall), None);
        assert_eq!(st.gray_delay(2, CrashSite::Stage, 1, wall), None);
        // Lane 0 survives `after` of its own passages, stalls once.
        assert_eq!(st.gray_delay(2, CrashSite::Stage, 0, wall), None);
        assert_eq!(
            st.gray_delay(2, CrashSite::Stage, 0, wall),
            Some(Duration::from_millis(25))
        );
        assert_eq!(st.gray_delay(2, CrashSite::Stage, 0, wall), None);
    }

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        let mut a = SplitMix64 { state: 9 };
        let mut b = SplitMix64 { state: 9 };
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut uniq = xs.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), xs.len());
    }

    /// The seeded generators' schedules for seeds 0..=255 at 2 and 4
    /// nodes, pinned across commits: a seed a CI job or a test pins must
    /// keep naming the same faults.
    #[test]
    fn seeded_schedules_match_the_fixture() {
        use std::fmt::Write;
        let mut got = String::new();
        for nodes in [2u32, 4] {
            for seed in 0..=255u64 {
                let plan = FaultPlan::from_seed(seed, nodes);
                writeln!(got, "from_seed nodes={nodes} {}", plan.describe()).unwrap();
                let plan = FaultPlan::gray_from_seed(seed, nodes);
                writeln!(got, "gray_from_seed nodes={nodes} {}", plan.describe()).unwrap();
            }
        }
        let want = include_str!("../seeded_schedules.txt");
        for (line, (got, want)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(got, want, "line {}", line + 1);
        }
        assert_eq!(got.lines().count(), want.lines().count());
    }
}
