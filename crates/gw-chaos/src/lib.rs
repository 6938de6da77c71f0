//! Seeded, deterministic fault injection for the Glasswing engine.
//!
//! A [`FaultPlan`] derives a whole fault schedule from one RNG seed: a
//! node crash at a chosen pipeline site, a per-block storage read fault,
//! and a shuffle message drop or delay. The engine consults the plan at
//! well-defined sites through the trait hooks in `gw-storage`
//! ([`StorageFaultHook`]) and `gw-net` ([`NetFaultHook`]) plus explicit
//! crash-site probes in the pipelines — everything is pull-based, so an
//! unarmed engine pays nothing.
//!
//! Beyond the crash-style faults, a plan can schedule **gray failures**:
//! degradations that leave every node alive but slow. Three families,
//! drawn from the same seed ([`FaultPlan::gray_from_seed`]):
//!
//! * **slowdown** — a persistent per-node multiplier; every stage passage
//!   on the victim is throttled by `(factor − 1) × wall`
//!   ([`FaultPlan::gray_delay`], probed by the pipeline executor);
//! * **stall** — a one-shot transient hang of a chosen site passage;
//! * **flaky link** — a per-message probabilistic drop/delay profile on
//!   one directed link, decided deterministically from
//!   `(seed, link, message index)`.
//!
//! Determinism contract: two plans built from the same seed and node
//! count schedule identical faults ([`FaultPlan::describe`] is equal), and
//! each *discrete* fault (crash, read, net, stall) fires **at most once
//! per plan instance** — a plan is single-use; to replay a schedule,
//! build a fresh plan from the same seed. Slowdowns and flaky links are
//! *profiles*, not events: they apply for the plan's whole lifetime, and
//! a flaky link's per-message decisions replay identically for the same
//! message indices.

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
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n` clamped to at least 1).
    pub fn gen_range(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// `true` with probability `percent`/100.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.gen_range(100) < percent
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
        match self {
            CrashSite::Read => "read",
            CrashSite::Stage => "stage",
            CrashSite::Kernel => "kernel",
            CrashSite::Retrieve => "retrieve",
            CrashSite::Shuffle => "shuffle",
            CrashSite::Reduce => "reduce",
        }
    }

    fn from_index(i: u64) -> Self {
        match i % 6 {
            0 => CrashSite::Read,
            1 => CrashSite::Stage,
            2 => CrashSite::Kernel,
            3 => CrashSite::Retrieve,
            4 => CrashSite::Shuffle,
            _ => CrashSite::Reduce,
        }
    }

    /// The crash site probed when the map pipeline's executor passes a
    /// chunk through `stage` (the [`CrashSite::Reduce`] site has no map
    /// stage and is reached through
    /// [`FaultPlan::reduce_fault_fires`] instead).
    pub fn for_map_stage(stage: gw_pipeline::StageId) -> Self {
        match stage {
            gw_pipeline::StageId::Input => CrashSite::Read,
            gw_pipeline::StageId::Stage => CrashSite::Stage,
            gw_pipeline::StageId::Kernel => CrashSite::Kernel,
            gw_pipeline::StageId::Retrieve => CrashSite::Retrieve,
            gw_pipeline::StageId::Partition => CrashSite::Shuffle,
        }
    }
}

#[derive(Debug)]
struct CrashFault {
    node: u32,
    site: CrashSite,
    /// Passages of the site survived before the crash fires.
    after: u32,
    /// Lane filter: `Some(l)` counts and fires only on lane `l` of the
    /// site's stage (a widened stage runs several lanes); `None` (every
    /// seeded plan) targets the whole stage.
    lane: Option<u32>,
    seen: AtomicU32,
    fired: AtomicBool,
}

#[derive(Debug)]
struct ReadFault {
    block: usize,
    fired: AtomicBool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NetFaultKind {
    Drop,
    Delay(Duration),
}

#[derive(Debug)]
struct NetFault {
    from: u32,
    to: u32,
    kind: NetFaultKind,
    /// Data messages on the (from, to) link let through before firing.
    nth: u32,
    seen: AtomicU32,
    fired: AtomicBool,
}

/// Persistent per-node slowdown: every stage passage on the victim is
/// stretched by `(factor_x100 − 100)%` of its measured wall time.
#[derive(Debug)]
struct SlowFault {
    node: u32,
    /// Slowdown factor × 100 (400 = the node runs 4× slower).
    factor_x100: u32,
    /// Lane filter: `Some(l)` throttles only lane `l`'s passages, leaving
    /// sibling lanes of a widened stage at full speed.
    lane: Option<u32>,
}

/// One-shot transient stall of a site passage on one node.
#[derive(Debug)]
struct StallFault {
    node: u32,
    site: CrashSite,
    /// Passages of the site survived before the stall fires.
    after: u32,
    /// Stall length, milliseconds.
    ms: u64,
    /// Lane filter, as on [`CrashFault::lane`].
    lane: Option<u32>,
    seen: AtomicU32,
    fired: AtomicBool,
}

/// One-shot spill-file I/O fault: fails the `nth` (0-based) probed
/// spill operation of the chosen kind. Spill faults never appear in
/// seeded plans — the store poisons and the job fails cleanly rather
/// than recovering, so the 20-seed sweeps (which assert success) stay
/// unaffected; explicit plans arm them via
/// [`FaultPlan::with_spill_fault`].
#[derive(Debug)]
struct SpillFault {
    op: SpillOp,
    nth: u32,
    seen: AtomicU32,
    fired: AtomicBool,
}

/// Probabilistic drop/delay profile on one directed link. Unlike
/// [`NetFault`] this is not one-shot: every data message on the link
/// rolls against the profile, with the outcome a pure function of
/// `(plan seed, link, message index)`.
#[derive(Debug)]
struct FlakyLink {
    from: u32,
    to: u32,
    /// Percent of messages dropped.
    drop_pct: u32,
    /// Percent of messages delayed (on top of `drop_pct`).
    delay_pct: u32,
    delay: Duration,
    seen: AtomicU32,
}

/// A deterministic, single-use schedule of injected faults.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    crash: Option<CrashFault>,
    read: Option<ReadFault>,
    net: Option<NetFault>,
    slow: Option<SlowFault>,
    stall: Option<StallFault>,
    flaky: Option<FlakyLink>,
    spill: Option<SpillFault>,
    tracer: RwLock<Option<Arc<Tracer>>>,
}

impl FaultPlan {
    /// Derive a full fault schedule from `seed` for an `nodes`-node
    /// cluster. Every plan schedules at least one fault.
    pub fn from_seed(seed: u64, nodes: u32) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut plan = FaultPlan {
            seed,
            ..Default::default()
        };
        // ~60% of plans crash a node (or fault a reduce task); storage and
        // network faults each ~45%, so most seeds combine fault classes.
        if rng.chance(60) {
            plan.crash = Some(CrashFault {
                node: rng.gen_range(nodes.max(1) as u64) as u32,
                site: CrashSite::from_index(rng.next_u64()),
                after: rng.gen_range(3) as u32,
                lane: None,
                seen: AtomicU32::new(0),
                fired: AtomicBool::new(false),
            });
        }
        if rng.chance(45) {
            plan.read = Some(ReadFault {
                block: rng.gen_range(8) as usize,
                fired: AtomicBool::new(false),
            });
        }
        if rng.chance(45) && nodes > 1 {
            let from = rng.gen_range(nodes as u64) as u32;
            let to = (from + 1 + rng.gen_range(nodes as u64 - 1) as u32) % nodes;
            let kind = if rng.chance(50) {
                NetFaultKind::Drop
            } else {
                NetFaultKind::Delay(Duration::from_millis(5 + rng.gen_range(60)))
            };
            plan.net = Some(NetFault {
                from,
                to,
                kind,
                nth: rng.gen_range(4) as u32,
                seen: AtomicU32::new(0),
                fired: AtomicBool::new(false),
            });
        }
        if plan.crash.is_none() && plan.read.is_none() && plan.net.is_none() {
            plan.read = Some(ReadFault {
                block: rng.gen_range(8) as usize,
                fired: AtomicBool::new(false),
            });
        }
        plan
    }

    /// Derive a **gray-failure** schedule from `seed`: slowdowns, stalls
    /// and flaky links only — every node stays alive, so (unlike
    /// [`FaultPlan::from_seed`] schedules) every gray plan is recoverable
    /// and must reproduce byte-identical output. Every plan schedules at
    /// least one gray fault.
    pub fn gray_from_seed(seed: u64, nodes: u32) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0xA5A5_5A5A_C3C3_3C3C);
        let mut plan = FaultPlan {
            seed,
            ..Default::default()
        };
        // ~55% slowdown, ~45% stall, ~45% flaky link: most seeds mix
        // degradation families.
        if rng.chance(55) {
            plan.slow = Some(SlowFault {
                node: rng.gen_range(nodes.max(1) as u64) as u32,
                factor_x100: 150 + 50 * rng.gen_range(8) as u32, // 1.5×..5×
                lane: None,
            });
        }
        if rng.chance(45) {
            plan.stall = Some(StallFault {
                node: rng.gen_range(nodes.max(1) as u64) as u32,
                site: CrashSite::from_index(rng.next_u64()),
                after: rng.gen_range(3) as u32,
                ms: 10 + rng.gen_range(90),
                lane: None,
                seen: AtomicU32::new(0),
                fired: AtomicBool::new(false),
            });
        }
        if rng.chance(45) && nodes > 1 {
            let from = rng.gen_range(nodes as u64) as u32;
            let to = (from + 1 + rng.gen_range(nodes as u64 - 1) as u32) % nodes;
            plan.flaky = Some(FlakyLink {
                from,
                to,
                drop_pct: 10 + rng.gen_range(30) as u32,
                delay_pct: 10 + rng.gen_range(30) as u32,
                delay: Duration::from_millis(1 + rng.gen_range(15)),
                seen: AtomicU32::new(0),
            });
        }
        if plan.slow.is_none() && plan.stall.is_none() && plan.flaky.is_none() {
            plan.slow = Some(SlowFault {
                node: rng.gen_range(nodes.max(1) as u64) as u32,
                factor_x100: 300,
                lane: None,
            });
        }
        plan
    }

    /// Explicit plan: crash `node` at `site` after surviving
    /// `after_chunks` passages of that site.
    pub fn crash(node: u32, site: CrashSite, after_chunks: u32) -> Self {
        FaultPlan {
            seed: 0,
            crash: Some(CrashFault {
                node,
                site,
                after: after_chunks,
                lane: None,
                seen: AtomicU32::new(0),
                fired: AtomicBool::new(false),
            }),
            ..Default::default()
        }
    }

    /// Empty plan to extend with the `with_*` builders.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// Add a one-shot read fault on block index `block` (any file).
    pub fn with_read_fault(mut self, block: usize) -> Self {
        self.read = Some(ReadFault {
            block,
            fired: AtomicBool::new(false),
        });
        self
    }

    /// Drop the `nth` (0-based) data message on the `from → to` link.
    pub fn with_net_drop(mut self, from: u32, to: u32, nth: u32) -> Self {
        self.net = Some(NetFault {
            from,
            to,
            kind: NetFaultKind::Drop,
            nth,
            seen: AtomicU32::new(0),
            fired: AtomicBool::new(false),
        });
        self
    }

    /// Delay the `nth` (0-based) data message on the `from → to` link.
    pub fn with_net_delay(mut self, from: u32, to: u32, nth: u32, delay: Duration) -> Self {
        self.net = Some(NetFault {
            from,
            to,
            kind: NetFaultKind::Delay(delay),
            nth,
            seen: AtomicU32::new(0),
            fired: AtomicBool::new(false),
        });
        self
    }

    /// Slow `node` down persistently: every stage passage is stretched to
    /// `factor_x100 / 100` of its wall time (400 = the node runs 4× slower).
    pub fn with_slowdown(mut self, node: u32, factor_x100: u32) -> Self {
        self.slow = Some(SlowFault {
            node,
            factor_x100,
            lane: None,
        });
        self
    }

    /// Stall `node` for `ms` milliseconds, once, on its `after+1`-th
    /// passage of `site`.
    pub fn with_stall(mut self, node: u32, site: CrashSite, after: u32, ms: u64) -> Self {
        self.stall = Some(StallFault {
            node,
            site,
            after,
            ms,
            lane: None,
            seen: AtomicU32::new(0),
            fired: AtomicBool::new(false),
        });
        self
    }

    /// Pin the scheduled crash to one lane of its (widened) stage: only
    /// that lane's passages count toward `after`, and only that lane
    /// dies. Panics if no crash is scheduled yet.
    pub fn with_crash_lane(mut self, lane: u32) -> Self {
        self.crash
            .as_mut()
            .expect("with_crash_lane requires a scheduled crash")
            .lane = Some(lane);
        self
    }

    /// Pin the scheduled slowdown to one lane of every widened stage on
    /// the victim node. Panics if no slowdown is scheduled yet.
    pub fn with_slow_lane(mut self, lane: u32) -> Self {
        self.slow
            .as_mut()
            .expect("with_slow_lane requires a scheduled slowdown")
            .lane = Some(lane);
        self
    }

    /// Pin the scheduled stall to one lane of its stage. Panics if no
    /// stall is scheduled yet.
    pub fn with_stall_lane(mut self, lane: u32) -> Self {
        self.stall
            .as_mut()
            .expect("with_stall_lane requires a scheduled stall")
            .lane = Some(lane);
        self
    }

    /// Fail the `nth` (0-based) spill-file operation of kind `op` — a
    /// frame write on a merger thread, or a spill open/frame read on the
    /// compaction and reduce-input paths. One-shot; the store poisons and
    /// surfaces the error as `EngineError::Io` instead of panicking.
    pub fn with_spill_fault(mut self, op: SpillOp, nth: u32) -> Self {
        self.spill = Some(SpillFault {
            op,
            nth,
            seen: AtomicU32::new(0),
            fired: AtomicBool::new(false),
        });
        self
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
        self.flaky = Some(FlakyLink {
            from,
            to,
            drop_pct,
            delay_pct,
            delay,
            seen: AtomicU32::new(0),
        });
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

    /// Arm (`Some`) or disarm (`None`) the observability tracer. Arming
    /// emits one `fault-armed` mark per scheduled fault on the chaos lane
    /// of the fault's node, and later firings emit their marks there too.
    pub fn arm_tracer(&self, tracer: Option<Arc<Tracer>>) {
        if let Some(t) = &tracer {
            if let Some(c) = &self.crash {
                t.lane(chaos_lane(c.node)).instant(MarkId::FaultArmed {
                    kind: if c.site == CrashSite::Reduce {
                        "task"
                    } else {
                        "crash"
                    },
                    detail: u64::from(c.after),
                });
            }
            if let Some(r) = &self.read {
                // A read fault is not pinned to a node; report it on the
                // cluster-wide lane of node 0.
                t.lane(chaos_lane(0)).instant(MarkId::FaultArmed {
                    kind: "read",
                    detail: r.block as u64,
                });
            }
            if let Some(f) = &self.net {
                t.lane(chaos_lane(f.from)).instant(MarkId::FaultArmed {
                    kind: match f.kind {
                        NetFaultKind::Drop => "net-drop",
                        NetFaultKind::Delay(_) => "net-delay",
                    },
                    detail: u64::from(f.nth),
                });
            }
            if let Some(s) = &self.slow {
                t.lane(chaos_lane(s.node)).instant(MarkId::FaultArmed {
                    kind: "slow",
                    detail: u64::from(s.factor_x100),
                });
            }
            if let Some(st) = &self.stall {
                t.lane(chaos_lane(st.node)).instant(MarkId::FaultArmed {
                    kind: "stall",
                    detail: st.ms,
                });
            }
            if let Some(f) = &self.flaky {
                t.lane(chaos_lane(f.from)).instant(MarkId::FaultArmed {
                    kind: "flaky",
                    detail: u64::from(f.drop_pct),
                });
            }
            if let Some(s) = &self.spill {
                // Not node-pinned: every store armed with the plan probes it.
                t.lane(chaos_lane(0)).instant(MarkId::FaultArmed {
                    kind: "spill",
                    detail: u64::from(s.nth),
                });
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
        self.crash
            .as_ref()
            .is_some_and(|c| c.site != CrashSite::Reduce)
    }

    /// Deterministic human-readable schedule, for reproducibility checks:
    /// equal seeds (and node counts) must yield equal descriptions.
    pub fn describe(&self) -> String {
        let mut parts = vec![format!("seed={:#x}", self.seed)];
        if let Some(c) = &self.crash {
            parts.push(format!(
                "crash(node={},site={},after={}{})",
                c.node,
                c.site.name(),
                c.after,
                lane_suffix(c.lane)
            ));
        }
        if let Some(r) = &self.read {
            parts.push(format!("read(block={})", r.block));
        }
        if let Some(n) = &self.net {
            let kind = match n.kind {
                NetFaultKind::Drop => "drop".to_string(),
                NetFaultKind::Delay(d) => format!("delay={}ms", d.as_millis()),
            };
            parts.push(format!("net({} {}->{},nth={})", kind, n.from, n.to, n.nth));
        }
        if let Some(s) = &self.slow {
            parts.push(format!(
                "slow(node={},x{}{})",
                s.node,
                s.factor_x100,
                lane_suffix(s.lane)
            ));
        }
        if let Some(st) = &self.stall {
            parts.push(format!(
                "stall(node={},site={},after={},ms={}{})",
                st.node,
                st.site.name(),
                st.after,
                st.ms,
                lane_suffix(st.lane)
            ));
        }
        if let Some(f) = &self.flaky {
            parts.push(format!(
                "flaky({}->{},drop={}%,delay={}%/{}ms)",
                f.from,
                f.to,
                f.drop_pct,
                f.delay_pct,
                f.delay.as_millis()
            ));
        }
        if let Some(s) = &self.spill {
            let op = match s.op {
                SpillOp::Write => "write",
                SpillOp::Read => "read",
            };
            parts.push(format!("spill({op},nth={})", s.nth));
        }
        parts.join(" ")
    }

    /// Whether the plan schedules any gray fault (slowdown, stall or
    /// flaky link).
    pub fn schedules_gray_fault(&self) -> bool {
        self.slow.is_some() || self.stall.is_some() || self.flaky.is_some()
    }

    /// The one-shot faults this plan armed that have not fired, by kind
    /// (`crash`, `read`, `net`, `stall`, `spill`). A test that builds its
    /// plan by hand asserts this is empty after the run: a fault that
    /// never fired tested nothing. Persistent slowdowns and flaky links
    /// are profiles, not one-shot events, so they never appear here.
    pub fn unfired(&self) -> Vec<&'static str> {
        [
            ("crash", self.crash.as_ref().map(|c| &c.fired)),
            ("read", self.read.as_ref().map(|r| &r.fired)),
            ("net", self.net.as_ref().map(|n| &n.fired)),
            ("stall", self.stall.as_ref().map(|s| &s.fired)),
            ("spill", self.spill.as_ref().map(|s| &s.fired)),
        ]
        .into_iter()
        .filter(|(_, fired)| fired.is_some_and(|f| !f.load(Ordering::Relaxed)))
        .map(|(kind, _)| kind)
        .collect()
    }

    /// Probe a map-pipeline crash site from lane `lane` of its stage
    /// (0 on a single-lane stage). Returns `true` exactly once — on the
    /// victim node's `after+1`-th passage of the scheduled site — after
    /// which the caller must treat the node as crashed. A lane-pinned
    /// fault only counts and fires on its pinned lane — sibling lanes
    /// pass untouched and consume no passages; an unpinned fault counts
    /// passages across all lanes.
    pub fn crash_fires(&self, node: u32, site: CrashSite, lane: u32) -> bool {
        let Some(c) = &self.crash else { return false };
        if c.site == CrashSite::Reduce
            || c.node != node
            || c.site != site
            || c.lane.is_some_and(|l| l != lane)
        {
            return false;
        }
        let seen = c.seen.fetch_add(1, Ordering::Relaxed) + 1;
        let fires = seen > c.after && !c.fired.swap(true, Ordering::Relaxed);
        if fires {
            self.trace_mark(
                node,
                MarkId::CrashFired {
                    site: c.site.name(),
                    after: u64::from(c.after),
                },
            );
        }
        fires
    }

    /// Probe the reduce fault for `node`. A [`CrashSite::Reduce`] schedule
    /// is injected as a reduce-task panic (recovered by the reduce retry
    /// budget), not as a node death: by the reduce phase a node's merged
    /// shuffle state is the only copy of its partitions, so whole-node
    /// reduce crashes are unrecoverable by re-execution alone (see
    /// DESIGN.md §3.5).
    pub fn reduce_fault_fires(&self, node: u32) -> bool {
        let Some(c) = &self.crash else { return false };
        let fires =
            c.site == CrashSite::Reduce && c.node == node && !c.fired.swap(true, Ordering::Relaxed);
        if fires {
            self.trace_mark(node, MarkId::TaskFaultFired);
        }
        fires
    }

    /// Probe the gray-failure plane after lane `lane` of `node`'s `site`
    /// stage passed a chunk in `wall` time. Returns the extra time the
    /// caller must sleep to realise the scheduled degradation, or `None`
    /// when no gray fault applies (the common case — unarmed paths pay one
    /// branch per passage). Lane-pinned stalls and slowdowns only touch
    /// their pinned lane (and consume no passages elsewhere).
    ///
    /// Combines the one-shot stall (fires at most once per plan, emitting
    /// a `stall-fired` mark) with the persistent slowdown, which stretches
    /// every passage by `(factor − 1) × wall` and counts a
    /// [`CounterId::GraySlowdowns`] tick per throttled passage when a
    /// tracer is armed.
    pub fn gray_delay(
        &self,
        node: u32,
        site: CrashSite,
        lane: u32,
        wall: Duration,
    ) -> Option<Duration> {
        let mut total = Duration::ZERO;
        if let Some(st) = &self.stall {
            if st.node == node
                && st.site == site
                && st.lane.is_none_or(|l| l == lane)
                && !st.fired.load(Ordering::Relaxed)
            {
                let seen = st.seen.fetch_add(1, Ordering::Relaxed) + 1;
                if seen > st.after && !st.fired.swap(true, Ordering::Relaxed) {
                    total += Duration::from_millis(st.ms);
                    self.trace_mark(
                        node,
                        MarkId::StallFired {
                            site: site.name(),
                            ms: st.ms,
                        },
                    );
                }
            }
        }
        if let Some(s) = &self.slow {
            if s.node == node && s.factor_x100 > 100 && s.lane.is_none_or(|l| l == lane) {
                total += wall * (s.factor_x100 - 100) / 100;
                if let Some(t) = self.tracer.read().as_ref() {
                    t.lane(chaos_lane(node)).count(CounterId::GraySlowdowns, 1);
                }
            }
        }
        if total.is_zero() {
            None
        } else {
            Some(total)
        }
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
        let Some(r) = &self.read else { return false };
        let fires = r.block == block && !r.fired.swap(true, Ordering::Relaxed);
        if fires {
            self.trace_mark(
                source.0,
                MarkId::ReadFaultFired {
                    block: block as u64,
                },
            );
        }
        fires
    }
}

impl SpillFaultHook for FaultPlan {
    fn spill_fault(&self, op: SpillOp) -> bool {
        let Some(s) = &self.spill else { return false };
        if s.op != op || s.fired.load(Ordering::Relaxed) {
            return false;
        }
        let seen = s.seen.fetch_add(1, Ordering::Relaxed) + 1;
        let fires = seen > s.nth && !s.fired.swap(true, Ordering::Relaxed);
        if fires {
            // Spill faults are not pinned to a node (every store armed
            // with this plan probes it); report on the cluster lane.
            self.trace_mark(
                0,
                MarkId::SpillFaultFired {
                    op: match s.op {
                        SpillOp::Write => "write",
                        SpillOp::Read => "read",
                    },
                },
            );
        }
        fires
    }
}

impl NetFaultHook for FaultPlan {
    fn on_data_message(&self, from: NodeId, to: NodeId) -> NetFaultAction {
        if let Some(f) = &self.flaky {
            if f.from == from.0 && f.to == to.0 {
                let n = f.seen.fetch_add(1, Ordering::Relaxed);
                // The outcome is a pure function of (seed, link, message
                // index): re-running the same schedule rolls identically.
                let link = (u64::from(f.from) << 32) | u64::from(f.to);
                let mut rng = SplitMix64::new(
                    self.seed ^ link.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(n),
                );
                let roll = rng.gen_range(100) as u32;
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
        let Some(f) = &self.net else {
            return NetFaultAction::Deliver;
        };
        if f.from != from.0 || f.to != to.0 || f.fired.load(Ordering::Relaxed) {
            return NetFaultAction::Deliver;
        }
        let seen = f.seen.fetch_add(1, Ordering::Relaxed) + 1;
        if seen > f.nth && !f.fired.swap(true, Ordering::Relaxed) {
            match f.kind {
                NetFaultKind::Drop => {
                    self.trace_mark(from.0, MarkId::NetFaultFired { kind: "drop" });
                    NetFaultAction::Drop
                }
                NetFaultKind::Delay(d) => {
                    self.trace_mark(from.0, MarkId::NetFaultFired { kind: "delay" });
                    NetFaultAction::Delay(d)
                }
            }
        } else {
            NetFaultAction::Deliver
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
            assert!(
                p.crash.is_some() || p.read.is_some() || p.net.is_some(),
                "seed {seed} scheduled nothing"
            );
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

    #[test]
    fn armed_tracer_records_arming_and_firing() {
        use gw_trace::LogicalKind;
        let tracer = Arc::new(Tracer::new());
        let p = FaultPlan::crash(2, CrashSite::Kernel, 1).with_read_fault(3);
        p.arm_tracer(Some(Arc::clone(&tracer)));
        assert!(!p.crash_fires(2, CrashSite::Kernel, 0));
        assert!(p.crash_fires(2, CrashSite::Kernel, 0));
        assert!(p.read_fault("/f", 3, NodeId(1)));
        let marks: Vec<(u32, MarkId)> = tracer
            .finish()
            .logical_events()
            .into_iter()
            .filter_map(|(lane, kind)| match kind {
                LogicalKind::Instant { mark } => Some((lane.node, mark)),
                _ => None,
            })
            .collect();
        assert!(marks.contains(&(
            2,
            MarkId::FaultArmed {
                kind: "crash",
                detail: 1
            }
        )));
        assert!(marks.contains(&(
            0,
            MarkId::FaultArmed {
                kind: "read",
                detail: 3
            }
        )));
        assert!(marks.contains(&(
            2,
            MarkId::CrashFired {
                site: "kernel",
                after: 1
            }
        )));
        assert!(marks.contains(&(1, MarkId::ReadFaultFired { block: 3 })));
    }

    #[test]
    fn gray_seed_is_deterministic_and_always_schedules() {
        for seed in 0..200u64 {
            let a = FaultPlan::gray_from_seed(seed, 4);
            let b = FaultPlan::gray_from_seed(seed, 4);
            assert_eq!(a.describe(), b.describe(), "seed {seed}");
            assert!(a.schedules_gray_fault(), "seed {seed} scheduled nothing");
            assert!(
                a.crash.is_none() && a.read.is_none() && a.net.is_none(),
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
        let p = FaultPlan::crash(2, CrashSite::Kernel, 1).with_crash_lane(1);
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
        let q = FaultPlan::crash(2, CrashSite::Kernel, 0).with_crash_lane(1);
        assert!(!q.crash_fires(2, CrashSite::Kernel, 0));
        assert!(q.crash_fires(2, CrashSite::Kernel, 1));
    }

    #[test]
    fn lane_pinned_gray_faults_only_touch_their_lane() {
        let wall = Duration::from_millis(10);
        let p = FaultPlan::empty().with_slowdown(1, 300).with_slow_lane(2);
        assert_eq!(p.gray_delay(1, CrashSite::Kernel, 0, wall), None);
        assert_eq!(
            p.gray_delay(1, CrashSite::Kernel, 2, wall),
            Some(Duration::from_millis(20))
        );

        let st = FaultPlan::empty()
            .with_stall(2, CrashSite::Stage, 1, 25)
            .with_stall_lane(0);
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
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut uniq = xs.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), xs.len());
    }
}
