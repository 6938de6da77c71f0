//! Post-hoc performance analysis over a finished [`Trace`].
//!
//! The paper's evaluation argues from *where time goes*: stage overlap
//! (§III-D), the dominant stage per configuration (Tables II/III), and
//! what would change under more buffering or more lanes (Figs. 4/5).
//! [`PerfAnalysis`] folds one finished trace into exactly those answers:
//!
//! 1. **Per-node stage timelines** — busy intervals reconstructed from
//!    chunk span begin/end pairs, an interval-union overlap matrix
//!    (for every stage pair, how long both were simultaneously busy) and
//!    the pipeline-efficiency score `Σ stage busy ÷ busy union` (1.0 =
//!    fully serialized, higher = the paper's overlap win).
//! 2. **Critical path** — a sweep over all chunk and token-wait spans
//!    that attributes each slice of end-to-end wall time to the stage
//!    (and node) gating it, plus a straggler report ranking nodes by
//!    completion skew.
//! 3. **Bottleneck advisor** — a bounded-buffer schedule replay over the
//!    measured per-chunk service times that predicts the makespan at
//!    B ∈ {1,2,3} and the speedup from doubling each stage's lanes, and
//!    names the stage with the largest predicted doubling gain.
//!
//! **Determinism contract.** Timing magnitudes (`*_ns` totals, the
//! efficiency score, predicted makespans) are measurements and vary run
//! to run. Everything *structural* — which stages ran, chunk counts,
//! token-wait counts, anomaly counts — is a function of the logical
//! event stream alone, and [`PerfAnalysis::determinism_digest`] renders
//! exactly that projection (the analysis-level analogue of
//! [`Trace::logical_events`]). `tests/analysis_determinism.rs` pins it
//! across repeated runs and buffering levels.
//!
//! The analysis is a pure consumer of [`Trace`]: it emits nothing and
//! never changes what the engine records, so the Chrome export and its
//! golden files are byte-identical with or without it.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::Duration;

use crate::event::{EventKind, MarkId, Realm, SpanId};
use crate::stage::{PipelineKind, StageId};
use crate::tracer::Trace;

/// The §III-D buffering levels the advisor predicts across.
const ADVISED_B: [usize; 3] = [1, 2, 3];

/// The map pipeline's §III-D token groups: the input group ends at the
/// kernel, the output group at the partitioner.
pub const MAP_TOKEN_GROUPS: [(StageId, StageId); 2] = [
    (StageId::Input, StageId::Kernel),
    (StageId::Kernel, StageId::Partition),
];

/// Complete post-hoc analysis of one job trace.
#[derive(Debug, Clone, Default)]
pub struct PerfAnalysis {
    /// Per-node stage timelines and overlap accounting, sorted by node.
    pub nodes: Vec<NodePerf>,
    /// Job-level critical-path attribution of end-to-end wall time.
    pub critical_path: CriticalPath,
    /// Nodes ranked by completion time, slowest first.
    pub stragglers: Vec<Straggler>,
    /// Bottleneck attribution and what-if predictions.
    pub advice: Advice,
    /// Malformed-stream tolerance counters (truncated/aborted spans).
    pub anomalies: Anomalies,
}

/// One node's per-pipeline breakdowns.
#[derive(Debug, Clone)]
pub struct NodePerf {
    /// Cluster node index.
    pub node: u32,
    /// Map then reduce (when present), each with its stage breakdown.
    pub pipelines: Vec<PipelinePerf>,
}

/// One pipeline instantiation's stage timeline and overlap accounting.
#[derive(Debug, Clone)]
pub struct PipelinePerf {
    /// Map or reduce.
    pub kind: PipelineKind,
    /// Stages that appeared in the trace, in pipeline order.
    pub stages: Vec<StagePerf>,
    /// Pairwise simultaneous-busy matrix over `stages`.
    pub overlap: OverlapMatrix,
    /// Length of the union of all stages' busy intervals.
    pub busy_union_ns: u64,
    /// Sum of per-stage busy time (what a no-overlap run would take).
    pub busy_sum_ns: u64,
    /// First begin → last end across this pipeline's lanes.
    pub span_ns: u64,
    /// Per-chunk (wall, modeled) stage times from accounted chunk spans,
    /// indexed by chunk sequence number, for schedule replay. Stages a
    /// chunk never ran (not in the graph, aborted) read zero.
    pub chunk_samples: Vec<[StageSample; 5]>,
}

/// One stage's duration for one chunk (wall, modeled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSample {
    /// Measured host time.
    pub wall: Duration,
    /// Model-transformed time.
    pub modeled: Duration,
}

/// Per-stage timer totals of one pipeline (the paper's Tables II/III
/// "timers for each pipeline stage"): the accounted wall and modeled
/// time of every chunk span, summed per stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimerReport {
    /// Wall totals indexed by [`StageId::index`].
    pub wall: [Duration; 5],
    /// Modeled totals indexed by [`StageId::index`].
    pub modeled: [Duration; 5],
}

impl TimerReport {
    /// Wall total of a stage.
    pub fn wall(&self, stage: StageId) -> Duration {
        self.wall[stage.index()]
    }

    /// Modeled total of a stage.
    pub fn modeled(&self, stage: StageId) -> Duration {
        self.modeled[stage.index()]
    }

    /// Merge another report into this one (summing stage totals), used to
    /// aggregate across nodes.
    pub fn merge(&mut self, other: &TimerReport) {
        for i in 0..5 {
            self.wall[i] += other.wall[i];
            self.modeled[i] += other.modeled[i];
        }
    }
}

impl PipelinePerf {
    /// The per-stage timer totals, read off [`StagePerf::wall_ns`] and
    /// [`StagePerf::modeled_ns`].
    pub fn timers(&self) -> TimerReport {
        let mut report = TimerReport::default();
        for s in &self.stages {
            report.wall[s.stage.index()] = Duration::from_nanos(s.wall_ns);
            report.modeled[s.stage.index()] = Duration::from_nanos(s.modeled_ns);
        }
        report
    }

    /// The paper's overlap win: `Σ stage busy ÷ busy union`. A fully
    /// serialized pipeline scores exactly 1.0 (the lower bound); any
    /// overlap pushes it above.
    pub fn efficiency(&self) -> f64 {
        if self.busy_union_ns == 0 {
            1.0
        } else {
            self.busy_sum_ns as f64 / self.busy_union_ns as f64
        }
    }

    /// The same score as the ISSUE states it (busy-union ÷ busy-sum):
    /// 1.0 = serialized, smaller = more overlap.
    pub fn busy_union_over_sum(&self) -> f64 {
        if self.busy_sum_ns == 0 {
            1.0
        } else {
            self.busy_union_ns as f64 / self.busy_sum_ns as f64
        }
    }

    /// This pipeline's entry for `stage`, if it appeared.
    pub fn stage(&self, stage: StageId) -> Option<&StagePerf> {
        self.stages.iter().find(|s| s.stage == stage)
    }
}

/// One stage's timeline summary within a pipeline.
#[derive(Debug, Clone)]
pub struct StagePerf {
    /// Stage slot.
    pub stage: StageId,
    /// Chunks that completed this stage (accounted span ends).
    pub chunks: u64,
    /// Union length of the stage's busy (chunk span) intervals.
    pub busy_ns: u64,
    /// Accounted wall time: the durations the stage reported on its
    /// chunk span ends, summed.
    pub wall_ns: u64,
    /// Accounted modeled time, as [`StagePerf::wall_ns`].
    pub modeled_ns: u64,
    /// Service-time distribution over accounted chunk spans.
    pub service: ServiceStats,
    /// Token-wait spans on this stage's lane (the executor brackets every
    /// §III-D acquire, blocking or not, so this equals the acquire count).
    pub token_waits: u64,
    /// Wall time the stage spent inside token-wait spans.
    pub token_wait_ns: u64,
}

/// Distribution summary of accounted per-chunk service times.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Accounted samples.
    pub count: u64,
    /// Sum of sample wall durations.
    pub total_ns: u64,
    /// Smallest sample (0 when empty).
    pub min_ns: u64,
    /// Largest sample.
    pub max_ns: u64,
}

impl ServiceStats {
    fn push(&mut self, ns: u64) {
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.total_ns += ns;
    }

    /// Mean service time (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Pairwise simultaneous-busy accounting over one pipeline's stages.
#[derive(Debug, Clone, Default)]
pub struct OverlapMatrix {
    /// Row/column order (matches `PipelinePerf::stages`).
    pub stages: Vec<StageId>,
    /// Deterministic marginals: chunks completed per stage, aligned with
    /// `stages` (the "overlap-matrix chunk counts" of the determinism
    /// contract — the `*_ns` entries below are measurements).
    pub chunk_counts: Vec<u64>,
    /// `overlap_ns[i][j]`: wall time stages `i` and `j` were busy at the
    /// same moment (symmetric; diagonal = the stage's own busy time).
    pub overlap_ns: Vec<Vec<u64>>,
}

impl OverlapMatrix {
    /// Simultaneous-busy time of a stage pair.
    pub fn between(&self, a: StageId, b: StageId) -> u64 {
        let find = |s| self.stages.iter().position(|x| *x == s);
        match (find(a), find(b)) {
            (Some(i), Some(j)) => self.overlap_ns[i][j],
            _ => 0,
        }
    }
}

/// Attribution of end-to-end wall time to the gating stage per node.
///
/// The sweep walks every pipeline lane's busy and token-wait intervals.
/// While at least one stage is busy, the slice is attributed to the busy
/// stage with the largest total busy time (the saturated candidate;
/// deterministic tie-break in canonical `(node, kind, stage)` order).
/// Slices where nothing is busy but some stage is waiting on a §III-D
/// token count as `token_idle_ns`; the rest (fill/drain, barriers,
/// phase gaps) is `idle_ns`.
#[derive(Debug, Clone, Default)]
pub struct CriticalPath {
    /// End-to-end wall window (first event → last event, all lanes).
    pub wall_ns: u64,
    /// Gated wall time per `(node, pipeline, stage)`.
    pub attribution: BTreeMap<(u32, PipelineKind, StageId), u64>,
    /// Wall time where no stage was busy but a token wait was open.
    pub token_idle_ns: u64,
    /// Wall time with no pipeline activity at all.
    pub idle_ns: u64,
}

impl CriticalPath {
    /// The single largest contributor (ties resolve to canonical order).
    pub fn gating(&self) -> Option<(u32, PipelineKind, StageId)> {
        self.attribution
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(k, _)| *k)
    }
}

/// One node's completion entry in the straggler ranking.
#[derive(Debug, Clone, Copy)]
pub struct Straggler {
    /// Cluster node index.
    pub node: u32,
    /// Last map-pipeline event on this node (ns since trace epoch).
    pub map_done_ns: u64,
    /// Last pipeline event on this node (map or reduce).
    pub done_ns: u64,
    /// How long after the fastest node this one finished.
    pub skew_ns: u64,
}

/// Bottleneck attribution and §III-D what-if predictions, computed from
/// the map pipelines' measured per-chunk service times replayed through
/// a bounded-buffer schedule model.
#[derive(Debug, Clone, Default)]
pub struct Advice {
    /// Per node: the map stage with the largest predicted gain from
    /// doubling its lanes.
    pub per_node_bottleneck: Vec<(u32, StageId)>,
    /// The job-level named bottleneck (largest predicted doubling gain on
    /// the job makespan), when any map pipeline carried chunks.
    pub bottleneck: Option<StageId>,
    /// How many nodes agree with the named bottleneck, out of how many.
    pub bottleneck_nodes: (usize, usize),
    /// Predicted job makespan (max across nodes) at B = 1, 2, 3.
    pub buffering_makespan_ns: [u64; 3],
    /// Predicted job speedup from doubling each live stage's lanes, at
    /// the default B=2, stages in pipeline order.
    pub lane_scaling: Vec<(StageId, f64)>,
    /// Rendered recommendations.
    pub lines: Vec<String>,
}

impl Advice {
    /// Predicted relative gain of raising the buffering level `from→to`
    /// (e.g. `buffering_gain(2, 3)` for "B=2→3").
    pub fn buffering_gain(&self, from: usize, to: usize) -> f64 {
        let m = |b: usize| self.buffering_makespan_ns[b - 1] as f64;
        if !(1..=3).contains(&from) || !(1..=3).contains(&to) || m(from) == 0.0 {
            return 0.0;
        }
        (m(from) - m(to)) / m(from)
    }

    /// Predicted speedup from doubling `stage`'s lanes.
    pub fn doubling_speedup(&self, stage: StageId) -> f64 {
        self.lane_scaling
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|(_, x)| *x)
            .unwrap_or(1.0)
    }
}

/// Counts of stream shapes the analysis tolerates instead of trusting:
/// a chaos-killed node truncates its lanes mid-span, and aborted chunks
/// close with `accounted: false` and no usable duration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Anomalies {
    /// Span begins never closed (truncated lanes). Their intervals are
    /// excluded from busy time but counted here.
    pub unclosed_spans: u64,
    /// Chunk spans closed unaccounted: genuine aborts (injected crashes,
    /// stage errors). A clean run reports none.
    pub unaccounted_chunks: u64,
    /// Span ends with no matching begin (front-truncated lanes).
    pub orphan_ends: u64,
}

/// Everything folded out of one pipeline lane.
#[derive(Debug, Default)]
struct LaneFold {
    busy: Vec<(u64, u64)>,
    waits: Vec<(u64, u64)>,
    wait_count: u64,
    /// Accounted chunk (wall, modeled) durations by sequence number.
    chunk_times: BTreeMap<u64, (u64, u64)>,
    chunks: u64,
    /// Accounted (wall, modeled) totals over chunk spans.
    wall_ns: u64,
    modeled_ns: u64,
    service: ServiceStats,
    /// Token-group topology marks seen on this lane.
    groups: Vec<(u32, StageId, StageId)>,
    /// Worker lanes the stage ran with: the max of the `StageLanes` mark
    /// and the highest sub-lane index observed (0 = no pipeline events;
    /// treated as 1 by the schedule replay).
    lanes: usize,
    last_at: u64,
}

impl PerfAnalysis {
    /// Fold a finished trace into the full analysis. Never panics on
    /// truncated or unaccounted streams; see [`Anomalies`].
    pub fn from_trace(trace: &Trace) -> Self {
        let mut anomalies = Anomalies::default();
        let mut folds: BTreeMap<(u32, PipelineKind, StageId), LaneFold> = BTreeMap::new();
        let mut window: Option<(u64, u64)> = None;

        for (lane, events) in &trace.lanes {
            for ev in events {
                window = Some(match window {
                    None => (ev.at_ns, ev.at_ns),
                    Some((lo, hi)) => (lo.min(ev.at_ns), hi.max(ev.at_ns)),
                });
            }
            // Sub-lanes of a widened stage fold into one per-stage entry;
            // span pairing below stays per trace lane (each sub-lane is a
            // single writer), so multi-lane begin/end streams never
            // interleave inside one pairing scan.
            let Realm::Pipeline {
                kind,
                stage,
                lane: sub_lane,
            } = lane.realm
            else {
                continue;
            };
            let fold = folds.entry((lane.node, kind, stage)).or_default();
            fold.lanes = fold.lanes.max(sub_lane as usize + 1);
            let mut open: Vec<(SpanId, u64)> = Vec::new();
            for ev in events {
                fold.last_at = fold.last_at.max(ev.at_ns);
                match ev.kind {
                    EventKind::Begin { span } => open.push((span, ev.at_ns)),
                    EventKind::End {
                        span,
                        wall_ns,
                        modeled_ns,
                        accounted,
                    } => {
                        // Tolerant pairing: spans obey stack discipline in
                        // well-formed streams, but a truncated lane may
                        // leave strays — match the innermost same-id begin
                        // and count anything unmatched.
                        let Some(pos) = open.iter().rposition(|(s, _)| *s == span) else {
                            anomalies.orphan_ends += 1;
                            continue;
                        };
                        let (_, t0) = open.remove(pos);
                        let iv = (t0, ev.at_ns.max(t0));
                        if accounted {
                            fold.wall_ns += wall_ns;
                            fold.modeled_ns += modeled_ns;
                        }
                        match span {
                            SpanId::Chunk { seq } => {
                                fold.busy.push(iv);
                                if accounted {
                                    fold.chunks += 1;
                                    fold.chunk_times.insert(seq, (wall_ns, modeled_ns));
                                    fold.service.push(wall_ns);
                                } else {
                                    anomalies.unaccounted_chunks += 1;
                                }
                            }
                            SpanId::TokenWait { .. } => {
                                fold.waits.push(iv);
                                fold.wait_count += 1;
                            }
                        }
                    }
                    EventKind::Instant {
                        mark: MarkId::TokenGroup { group, first, last },
                    } => fold.groups.push((group, first, last)),
                    EventKind::Instant {
                        mark: MarkId::StageLanes { lanes, .. },
                    } => fold.lanes = fold.lanes.max(lanes as usize),
                    _ => {}
                }
            }
            anomalies.unclosed_spans += open.len() as u64;
        }

        let nodes = build_node_perfs(&mut folds);
        let critical_path = build_critical_path(&folds, window);
        let stragglers = build_stragglers(&folds);
        let advice = build_advice(&folds, &stragglers);

        PerfAnalysis {
            nodes,
            critical_path,
            stragglers,
            advice,
            anomalies,
        }
    }

    /// One node's analysis, if it appears in the trace.
    pub fn node(&self, node: u32) -> Option<&NodePerf> {
        self.nodes.iter().find(|n| n.node == node)
    }

    /// A node's pipeline breakdown.
    pub fn pipeline(&self, node: u32, kind: PipelineKind) -> Option<&PipelinePerf> {
        self.node(node)?.pipelines.iter().find(|p| p.kind == kind)
    }

    /// The deterministic projection of the analysis: everything that is
    /// a function of the logical event stream alone — overlap-matrix
    /// chunk counts, per-stage token-wait counts, the critical path's
    /// attributable stage sets, anomaly counts and the straggler ranking
    /// — rendered as a stable string. For a fixed `(seed, JobConfig)`
    /// this is byte-identical across repeated runs (and across buffering
    /// levels), exactly like [`Trace::logical_events`]. Timing-valued
    /// fields are deliberately absent. The straggler ranking is included
    /// because completion *order* is structural wherever the
    /// configuration forces it (notably single-node jobs, the shape the
    /// determinism proptest mirrors).
    pub fn determinism_digest(&self) -> String {
        let mut out = String::new();
        for node in &self.nodes {
            for p in &node.pipelines {
                let _ = write!(out, "node {} {}:", node.node, p.kind.name());
                for (s, chunks) in p.overlap.stages.iter().zip(&p.overlap.chunk_counts) {
                    let sp = p.stage(*s).expect("matrix stage present");
                    let _ = write!(
                        out,
                        " {}(chunks={chunks},waits={})",
                        s.name_in(p.kind),
                        sp.token_waits,
                    );
                }
                // The critical path can only ever attribute time to
                // stages that had busy intervals; that set is logical.
                let gates: Vec<&str> = p
                    .stages
                    .iter()
                    .filter(|s| !s.busy_is_empty())
                    .map(|s| s.stage.name_in(p.kind))
                    .collect();
                let _ = writeln!(out, " | cp-gates [{}]", gates.join(","));
            }
        }
        let ranked: Vec<String> = self.stragglers.iter().map(|s| s.node.to_string()).collect();
        let _ = writeln!(out, "straggler-ranking [{}]", ranked.join(","));
        let a = self.anomalies;
        let _ = writeln!(
            out,
            "anomalies unclosed={} unaccounted={} orphans={}",
            a.unclosed_spans, a.unaccounted_chunks, a.orphan_ends
        );
        out
    }
}

impl StagePerf {
    /// Whether the stage recorded any busy interval (logical: it did iff
    /// the stage closed at least one chunk span).
    fn busy_is_empty(&self) -> bool {
        self.busy_ns == 0 && self.chunks == 0
    }
}

impl Trace {
    /// Run the full post-hoc analysis over this trace.
    pub fn analysis(&self) -> PerfAnalysis {
        PerfAnalysis::from_trace(self)
    }
}

/// Coalesce intervals into a sorted, disjoint union.
pub(crate) fn merge_intervals(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    v.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(v.len());
    for (s, e) in v {
        match out.last_mut() {
            Some((_, pe)) if s <= *pe => *pe = (*pe).max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

fn total_len(v: &[(u64, u64)]) -> u64 {
    v.iter().map(|(s, e)| e - s).sum()
}

/// Intersection length of two disjoint sorted interval lists.
pub(crate) fn intersect_len(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut acc) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo < hi {
            acc += hi - lo;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    acc
}

fn build_node_perfs(folds: &mut BTreeMap<(u32, PipelineKind, StageId), LaneFold>) -> Vec<NodePerf> {
    // Normalize every fold's intervals once.
    for fold in folds.values_mut() {
        fold.busy = merge_intervals(std::mem::take(&mut fold.busy));
        fold.waits = merge_intervals(std::mem::take(&mut fold.waits));
    }

    let mut by_pipe: BTreeMap<(u32, PipelineKind), Vec<StageId>> = BTreeMap::new();
    for (node, kind, stage) in folds.keys() {
        by_pipe.entry((*node, *kind)).or_default().push(*stage);
    }

    let mut nodes: Vec<NodePerf> = Vec::new();
    for ((node, kind), stages) in by_pipe {
        let perfs: Vec<StagePerf> = stages
            .iter()
            .map(|stage| {
                let fold = &folds[&(node, kind, *stage)];
                StagePerf {
                    stage: *stage,
                    chunks: fold.chunks,
                    busy_ns: total_len(&fold.busy),
                    wall_ns: fold.wall_ns,
                    modeled_ns: fold.modeled_ns,
                    service: fold.service,
                    token_waits: fold.wait_count,
                    token_wait_ns: total_len(&fold.waits),
                }
            })
            .collect();

        let n = stages.len();
        let mut overlap_ns = vec![vec![0u64; n]; n];
        for (i, si) in stages.iter().enumerate() {
            for (j, sj) in stages.iter().enumerate().skip(i) {
                let len = intersect_len(
                    &folds[&(node, kind, *si)].busy,
                    &folds[&(node, kind, *sj)].busy,
                );
                overlap_ns[i][j] = len;
                overlap_ns[j][i] = len;
            }
        }
        let all: Vec<(u64, u64)> = stages
            .iter()
            .flat_map(|s| folds[&(node, kind, *s)].busy.iter().copied())
            .collect();
        let union = merge_intervals(all);
        let busy_union_ns = total_len(&union);
        let busy_sum_ns = perfs.iter().map(|p| p.busy_ns).sum();
        let span_ns = match (union.first(), union.last()) {
            (Some((s, _)), Some((_, e))) => e - s,
            _ => 0,
        };
        let rows = stages
            .iter()
            .filter_map(|s| folds[&(node, kind, *s)].chunk_times.keys().next_back())
            .max()
            .map_or(0, |last| *last as usize + 1);
        let mut chunk_samples = vec![[StageSample::default(); 5]; rows];
        for stage in &stages {
            for (seq, (wall, modeled)) in &folds[&(node, kind, *stage)].chunk_times {
                chunk_samples[*seq as usize][stage.index()] = StageSample {
                    wall: Duration::from_nanos(*wall),
                    modeled: Duration::from_nanos(*modeled),
                };
            }
        }
        let pipe = PipelinePerf {
            kind,
            chunk_samples,
            overlap: OverlapMatrix {
                stages: stages.clone(),
                chunk_counts: perfs.iter().map(|p| p.chunks).collect(),
                overlap_ns,
            },
            stages: perfs,
            busy_union_ns,
            busy_sum_ns,
            span_ns,
        };
        match nodes.last_mut() {
            Some(np) if np.node == node => np.pipelines.push(pipe),
            _ => nodes.push(NodePerf {
                node,
                pipelines: vec![pipe],
            }),
        }
    }
    nodes
}

fn build_critical_path(
    folds: &BTreeMap<(u32, PipelineKind, StageId), LaneFold>,
    window: Option<(u64, u64)>,
) -> CriticalPath {
    let Some((lo, hi)) = window else {
        return CriticalPath::default();
    };
    // Sweep events: (t, close?, class, lane index). Closes sort before
    // opens at equal t so zero-length touches don't count.
    let keys: Vec<(u32, PipelineKind, StageId)> = folds.keys().copied().collect();
    let busy_total: Vec<u64> = keys.iter().map(|k| total_len(&folds[k].busy)).collect();
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Edge {
        Close,
        Open,
    }
    let mut edges: Vec<(u64, Edge, bool, usize)> = Vec::new();
    for (idx, key) in keys.iter().enumerate() {
        for &(s, e) in &folds[key].busy {
            edges.push((s, Edge::Open, true, idx));
            edges.push((e, Edge::Close, true, idx));
        }
        for &(s, e) in &folds[key].waits {
            edges.push((s, Edge::Open, false, idx));
            edges.push((e, Edge::Close, false, idx));
        }
    }
    edges.sort_unstable_by_key(|&(t, edge, ..)| (t, edge));

    let mut cp = CriticalPath {
        wall_ns: hi - lo,
        ..CriticalPath::default()
    };
    let mut busy_open = vec![0u32; keys.len()];
    let mut waiting_open = 0u64;
    let mut busy_active = 0u64;
    let mut cursor = lo;
    let mut i = 0;
    while i < edges.len() {
        let t = edges[i].0;
        if t > cursor {
            let len = t - cursor;
            if busy_active > 0 {
                // Gate = busiest active lane; deterministic tie-break by
                // canonical key order (keys is sorted).
                let gate = busy_open
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| **n > 0)
                    .max_by_key(|(idx, _)| (busy_total[*idx], usize::MAX - *idx))
                    .map(|(idx, _)| idx);
                if let Some(idx) = gate {
                    *cp.attribution.entry(keys[idx]).or_default() += len;
                }
            } else if waiting_open > 0 {
                cp.token_idle_ns += len;
            } else {
                cp.idle_ns += len;
            }
            cursor = t;
        }
        while i < edges.len() && edges[i].0 == t {
            let (_, edge, is_busy, idx) = edges[i];
            match (edge, is_busy) {
                (Edge::Open, true) => {
                    busy_open[idx] += 1;
                    busy_active += 1;
                }
                (Edge::Close, true) => {
                    busy_open[idx] -= 1;
                    busy_active -= 1;
                }
                (Edge::Open, false) => waiting_open += 1,
                (Edge::Close, false) => waiting_open -= 1,
            }
            i += 1;
        }
    }
    if hi > cursor {
        cp.idle_ns += hi - cursor;
    }
    cp
}

fn build_stragglers(folds: &BTreeMap<(u32, PipelineKind, StageId), LaneFold>) -> Vec<Straggler> {
    let mut done: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for ((node, kind, _), fold) in folds {
        let entry = done.entry(*node).or_default();
        if *kind == PipelineKind::Map {
            entry.0 = entry.0.max(fold.last_at);
        }
        entry.1 = entry.1.max(fold.last_at);
    }
    let fastest = done.values().map(|(_, d)| *d).min().unwrap_or(0);
    let mut ranked: Vec<Straggler> = done
        .into_iter()
        .map(|(node, (map_done_ns, done_ns))| Straggler {
            node,
            map_done_ns,
            done_ns,
            skew_ns: done_ns - fastest,
        })
        .collect();
    ranked.sort_by(|a, b| b.done_ns.cmp(&a.done_ns).then(a.node.cmp(&b.node)));
    ranked
}

/// The §III-D bounded-buffer pipeline recurrence — the one schedule
/// model of the workspace (the advisor replays measured chunk times
/// through it; `gw_core::schedule` adapts it to the map topology).
///
/// `chunks[c][s]` is chunk `c`'s service time in stage `s`; the result
/// is the completion matrix `end[c][s]`, measured from pipeline start.
/// Chunk `c` starts stage `s` after finishing stage `s-1`, after its own
/// lane frees up, and — per token group `(first, last)` — after chunk
/// `c-b` exits the group's last stage. `lanes[s]` is the stage's
/// worker-lane count: chunks are dispatched round-robin (chunk `c` runs
/// on lane `c % N`), so the stage-serial constraint is `end[c - N][s]`,
/// not `end[c - 1][s]` — an N-lane stage services N chunks concurrently
/// at unchanged per-chunk cost, which is exactly what the executor's
/// deterministic round-robin front does.
pub fn bounded_buffer_schedule(
    chunks: &[[u64; 5]],
    groups: &[(StageId, StageId)],
    b: usize,
    lanes: [usize; 5],
) -> Vec<[u64; 5]> {
    let mut end = vec![[0u64; 5]; chunks.len()];
    for c in 0..chunks.len() {
        let mut prev = 0u64;
        for s in 0..5 {
            let mut start = prev;
            let l = lanes[s].max(1);
            if c >= l {
                start = start.max(end[c - l][s]);
            }
            for &(first, last) in groups {
                if first.index() == s && c >= b {
                    start = start.max(end[c - b][last.index()]);
                }
            }
            prev = start + chunks[c][s];
            end[c][s] = prev;
        }
    }
    end
}

/// Completion of the last chunk's last stage under
/// [`bounded_buffer_schedule`].
fn makespan(
    chunks: &[[u64; 5]],
    groups: &[(StageId, StageId)],
    b: usize,
    lanes: [usize; 5],
) -> u64 {
    bounded_buffer_schedule(chunks, groups, b, lanes)
        .last()
        .map_or(0, |stages| stages[4])
}

fn build_advice(
    folds: &BTreeMap<(u32, PipelineKind, StageId), LaneFold>,
    stragglers: &[Straggler],
) -> Advice {
    // Assemble per-node map-pipeline chunk duration tables.
    struct NodeModel {
        node: u32,
        chunks: Vec<[u64; 5]>,
        groups: Vec<(StageId, StageId)>,
        busy: [u64; 5],
        /// Lane counts the run actually used (from `StageLanes` marks and
        /// observed sub-lane indices; 1 where nothing says otherwise).
        lanes: [usize; 5],
    }
    let mut models: Vec<NodeModel> = Vec::new();
    let map_nodes: BTreeSet<u32> = folds
        .keys()
        .filter(|(_, kind, _)| *kind == PipelineKind::Map)
        .map(|(node, ..)| *node)
        .collect();
    for node in map_nodes {
        let mut seqs: BTreeSet<u64> = BTreeSet::new();
        let mut groups: Vec<(StageId, StageId)> = Vec::new();
        for stage in StageId::ALL {
            if let Some(fold) = folds.get(&(node, PipelineKind::Map, stage)) {
                seqs.extend(fold.chunk_times.keys().copied());
                groups.extend(fold.groups.iter().map(|&(_, first, last)| (first, last)));
            }
        }
        if groups.is_empty() {
            // Pre-topology traces: the map pipeline's standard groups.
            groups = MAP_TOKEN_GROUPS.to_vec();
        }
        let mut chunks = vec![[0u64; 5]; seqs.len()];
        let mut busy = [0u64; 5];
        let mut lanes = [1usize; 5];
        for stage in StageId::ALL {
            let Some(fold) = folds.get(&(node, PipelineKind::Map, stage)) else {
                continue;
            };
            for (chunk, seq) in chunks.iter_mut().zip(&seqs) {
                chunk[stage.index()] = fold.chunk_times.get(seq).map_or(0, |&(wall, _)| wall);
            }
            busy[stage.index()] = total_len(&fold.busy);
            lanes[stage.index()] = fold.lanes.max(1);
        }
        if !chunks.is_empty() {
            models.push(NodeModel {
                node,
                chunks,
                groups,
                busy,
                lanes,
            });
        }
    }

    let mut advice = Advice::default();
    if models.is_empty() {
        return advice;
    }

    // Predicted job makespan = slowest node's predicted makespan. Each
    // node replays at the lane counts its run actually used.
    let job_makespan = |b: usize, lanes_of: &dyn Fn(&NodeModel) -> [usize; 5]| -> u64 {
        models
            .iter()
            .map(|m| makespan(&m.chunks, &m.groups, b, lanes_of(m)))
            .max()
            .unwrap_or(0)
    };
    let base_lanes = |m: &NodeModel| m.lanes;
    for (i, b) in ADVISED_B.iter().enumerate() {
        advice.buffering_makespan_ns[i] = job_makespan(*b, &base_lanes);
    }

    // Doubling a stage's lanes: replay the same per-chunk service times
    // through the recurrence with the stage's lane count doubled (N
    // chunks in service concurrently, per-chunk cost unchanged) — the
    // same model the multi-lane executor implements, so the prediction
    // is directly falsifiable by a real lane_plan run.
    let base = job_makespan(2, &base_lanes).max(1);
    let live: Vec<StageId> = StageId::ALL
        .into_iter()
        .filter(|s| models.iter().any(|m| m.busy[s.index()] > 0))
        .collect();
    for stage in &live {
        let doubled = |m: &NodeModel| {
            let mut lanes = m.lanes;
            lanes[stage.index()] *= 2;
            lanes
        };
        let faster = job_makespan(2, &doubled).max(1);
        advice
            .lane_scaling
            .push((*stage, base as f64 / faster as f64));
    }
    let pick = |scaling: &[(StageId, f64)], busy: &dyn Fn(StageId) -> u64| -> Option<StageId> {
        scaling
            .iter()
            .max_by(|(sa, a), (sb, b)| {
                a.partial_cmp(b)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(busy(*sa).cmp(&busy(*sb)))
                    .then(sb.cmp(sa))
            })
            .map(|(s, _)| *s)
    };
    let total_busy = |s: StageId| -> u64 { models.iter().map(|m| m.busy[s.index()]).sum::<u64>() };
    advice.bottleneck = pick(&advice.lane_scaling, &total_busy);

    for m in &models {
        let mut scaling: Vec<(StageId, f64)> = Vec::new();
        let base = makespan(&m.chunks, &m.groups, 2, m.lanes).max(1);
        for stage in &live {
            let mut lanes = m.lanes;
            lanes[stage.index()] *= 2;
            let faster = makespan(&m.chunks, &m.groups, 2, lanes).max(1);
            scaling.push((*stage, base as f64 / faster as f64));
        }
        let node_busy = |s: StageId| -> u64 { m.busy[s.index()] };
        if let Some(stage) = pick(&scaling, &node_busy) {
            advice.per_node_bottleneck.push((m.node, stage));
        }
    }
    let agreeing = advice
        .per_node_bottleneck
        .iter()
        .filter(|(_, s)| Some(*s) == advice.bottleneck)
        .count();
    advice.bottleneck_nodes = (agreeing, models.len());

    if let Some(b) = advice.bottleneck {
        advice.lines.push(format!(
            "{} is the bottleneck on {}/{} nodes; doubling its lanes predicted {:.2}x",
            b.name(),
            advice.bottleneck_nodes.0,
            advice.bottleneck_nodes.1,
            advice.doubling_speedup(b),
        ));
    }
    advice.lines.push(format!(
        "B=1->2 predicted {:.1}% gain; B=2->3 predicted {:.1}% gain",
        100.0 * advice.buffering_gain(1, 2),
        100.0 * advice.buffering_gain(2, 3),
    ));
    if stragglers.len() > 1 {
        let worst = &stragglers[0];
        if worst.skew_ns > 0 {
            advice.lines.push(format!(
                "node {} finished {:.3} ms after the fastest node",
                worst.node,
                worst.skew_ns as f64 / 1e6,
            ));
        }
    }
    advice
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, LaneId};
    use crate::tracer::Tracer;
    use std::time::Duration;

    fn lane(node: u32, kind: PipelineKind, stage: StageId) -> LaneId {
        LaneId {
            job: 0,
            node,
            realm: Realm::Pipeline {
                kind,
                stage,
                lane: 0,
            },
        }
    }

    fn ev(at_ns: u64, kind: EventKind) -> Event {
        Event { at_ns, kind }
    }

    fn begin(at: u64, seq: u64) -> Event {
        ev(
            at,
            EventKind::Begin {
                span: SpanId::Chunk { seq },
            },
        )
    }

    fn end(at: u64, seq: u64, wall_ns: u64) -> Event {
        ev(
            at,
            EventKind::End {
                span: SpanId::Chunk { seq },
                wall_ns,
                modeled_ns: wall_ns,
                accounted: true,
            },
        )
    }

    /// Two stages, 50% overlapped: input busy [0,100), kernel [50,150).
    fn overlapped_trace() -> Trace {
        Trace {
            lanes: vec![
                (
                    lane(0, PipelineKind::Map, StageId::Input),
                    vec![begin(0, 0), end(100, 0, 100)],
                ),
                (
                    lane(0, PipelineKind::Map, StageId::Kernel),
                    vec![begin(50, 0), end(150, 0, 100)],
                ),
            ],
        }
    }

    #[test]
    fn overlap_matrix_and_efficiency() {
        let a = overlapped_trace().analysis();
        let p = a.pipeline(0, PipelineKind::Map).unwrap();
        assert_eq!(p.busy_sum_ns, 200);
        assert_eq!(p.busy_union_ns, 150);
        assert_eq!(p.overlap.between(StageId::Input, StageId::Kernel), 50);
        assert_eq!(p.overlap.between(StageId::Input, StageId::Input), 100);
        assert!((p.efficiency() - 200.0 / 150.0).abs() < 1e-9);
        assert!((p.busy_union_over_sum() - 0.75).abs() < 1e-9);
        assert_eq!(p.overlap.chunk_counts, vec![1, 1]);
    }

    #[test]
    fn serialized_pipeline_scores_exactly_one() {
        let trace = Trace {
            lanes: vec![
                (
                    lane(0, PipelineKind::Map, StageId::Input),
                    vec![begin(0, 0), end(100, 0, 100)],
                ),
                (
                    lane(0, PipelineKind::Map, StageId::Kernel),
                    vec![begin(100, 0), end(250, 0, 150)],
                ),
            ],
        };
        let a = trace.analysis();
        let p = a.pipeline(0, PipelineKind::Map).unwrap();
        assert!((p.efficiency() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn critical_path_attributes_the_saturated_stage_and_idle() {
        // input [0,100), kernel [50,150); gap [150,200) with a token wait
        // open on input; tail [200,220) fully idle (a stray mark).
        let mut trace = overlapped_trace();
        trace.lanes[0].1.extend([
            ev(
                150,
                EventKind::Begin {
                    span: SpanId::TokenWait { group: 0, seq: 1 },
                },
            ),
            ev(
                200,
                EventKind::End {
                    span: SpanId::TokenWait { group: 0, seq: 1 },
                    wall_ns: 0,
                    modeled_ns: 0,
                    accounted: false,
                },
            ),
            ev(
                220,
                EventKind::Instant {
                    mark: MarkId::TaskFaultFired,
                },
            ),
        ]);
        let a = trace.analysis();
        let cp = &a.critical_path;
        assert_eq!(cp.wall_ns, 220);
        // Both stages have equal busy totals (100); the tie breaks to the
        // canonical-order first key (input) during [50,100).
        let input = cp.attribution[&(0, PipelineKind::Map, StageId::Input)];
        let kernel = cp.attribution[&(0, PipelineKind::Map, StageId::Kernel)];
        assert_eq!(input + kernel, 150);
        assert_eq!(cp.token_idle_ns, 50);
        assert_eq!(cp.idle_ns, 20);
        assert_eq!(cp.gating().unwrap().0, 0);
    }

    #[test]
    fn truncated_trace_is_tolerated_and_counted() {
        // A chaos-killed node: run a real tracer, then truncate the lane
        // mid-span the way a dying node leaves it.
        let tracer = Tracer::new();
        let l = tracer.lane(lane(1, PipelineKind::Map, StageId::Kernel));
        l.begin(SpanId::Chunk { seq: 0 });
        l.end(
            SpanId::Chunk { seq: 0 },
            Duration::from_micros(5),
            Duration::from_micros(5),
        );
        l.begin(SpanId::Chunk { seq: 1 });
        l.end_unaccounted(SpanId::Chunk { seq: 1 }); // aborted by the crash
        l.begin(SpanId::Chunk { seq: 2 }); // never closed: lane truncated
        let mut trace = tracer.finish();
        // Also simulate front-truncation: an end with no begin.
        trace.lanes[0].1.push(ev(
            999_999,
            EventKind::End {
                span: SpanId::Chunk { seq: 7 },
                wall_ns: 1,
                modeled_ns: 1,
                accounted: true,
            },
        ));
        let a = trace.analysis(); // must not panic
        assert_eq!(
            a.anomalies,
            Anomalies {
                unclosed_spans: 1,
                unaccounted_chunks: 1,
                orphan_ends: 1,
            }
        );
        // The accounted chunk still counts; the unclosed one does not.
        let p = a.pipeline(1, PipelineKind::Map).unwrap();
        assert_eq!(p.stage(StageId::Kernel).unwrap().chunks, 1);
    }

    #[test]
    fn stragglers_rank_slowest_first() {
        let trace = Trace {
            lanes: vec![
                (
                    lane(0, PipelineKind::Map, StageId::Input),
                    vec![begin(0, 0), end(100, 0, 100)],
                ),
                (
                    lane(1, PipelineKind::Map, StageId::Input),
                    vec![begin(0, 0), end(300, 0, 300)],
                ),
            ],
        };
        let a = trace.analysis();
        assert_eq!(a.stragglers.len(), 2);
        assert_eq!(a.stragglers[0].node, 1);
        assert_eq!(a.stragglers[0].skew_ns, 200);
        assert_eq!(a.stragglers[1].skew_ns, 0);
    }

    #[test]
    fn advisor_names_the_dominant_stage() {
        // Kernel 10x slower than everything else: doubling kernel lanes
        // must be the best predicted lever.
        let mut input = Vec::new();
        let mut kernel = Vec::new();
        let mut part = Vec::new();
        let mut t = 0u64;
        for seq in 0..8u64 {
            input.push(begin(t, seq));
            input.push(end(t + 10, seq, 10));
            kernel.push(begin(t + 10, seq));
            kernel.push(end(t + 110, seq, 100));
            part.push(begin(t + 110, seq));
            part.push(end(t + 120, seq, 10));
            t += 120;
        }
        let trace = Trace {
            lanes: vec![
                (lane(0, PipelineKind::Map, StageId::Input), input),
                (lane(0, PipelineKind::Map, StageId::Kernel), kernel),
                (lane(0, PipelineKind::Map, StageId::Partition), part),
            ],
        };
        let a = trace.analysis();
        assert_eq!(a.advice.bottleneck, Some(StageId::Kernel));
        assert_eq!(a.advice.bottleneck_nodes, (1, 1));
        let kernel_x = a.advice.doubling_speedup(StageId::Kernel);
        let input_x = a.advice.doubling_speedup(StageId::Input);
        assert!(kernel_x > input_x, "{kernel_x} vs {input_x}");
        // Deeper buffering cannot beat halving the dominant stage here.
        let m = a.advice.buffering_makespan_ns;
        assert!(m[0] >= m[1] && m[1] >= m[2]);
        assert!(a.advice.buffering_gain(2, 3) < 0.10);
        assert!(!a.advice.lines.is_empty());
    }

    #[test]
    fn schedule_replay_respects_token_groups() {
        // One stage pair, duration 10 each, 4 chunks, one group over both
        // stages. B=1 serializes chunks end-to-end; B=2 overlaps them.
        let chunks = [[10, 0, 10, 0, 0]; 4];
        let groups = [(StageId::Input, StageId::Kernel)];
        let b1 = makespan(&chunks, &groups, 1, [1; 5]);
        let b2 = makespan(&chunks, &groups, 2, [1; 5]);
        assert_eq!(b1, 80); // 4 chunks x (10+10), fully serialized
        assert_eq!(b2, 50); // steady-state pipelining: 10*(4+1)
        assert!(makespan(&chunks, &groups, 3, [1; 5]) <= b2);
    }

    #[test]
    fn recurrence_on_the_map_topology_reproduces_the_paper_regimes() {
        let run = |chunks: &[[u64; 5]], b| makespan(chunks, &MAP_TOKEN_GROUPS, b, [1; 5]);
        assert!(bounded_buffer_schedule(&[], &MAP_TOKEN_GROUPS, 2, [1; 5]).is_empty());
        // A single chunk costs the sum of its stages at every B.
        for b in ADVISED_B {
            assert_eq!(run(&[[1, 2, 3, 4, 5]], b), 15);
        }
        // B=1 serialises each group: "the map elapsed time equals the sum
        // of the input stage and the kernel stage" (partition is hidden
        // behind the next chunk's input).
        let chunks = [[5, 0, 8, 0, 2]; 40];
        assert_eq!(run(&chunks, 1), (5 + 8) * 40 + 2);
        // ...while the two groups still overlap each other: the period is
        // kernel + partition, not input + kernel + partition.
        let chunks = [[5, 0, 5, 0, 10]; 30];
        assert_eq!(run(&chunks, 1), 5 + (5 + 10) * 30);
        // B>=2 converges to the dominant stage plus fill/drain.
        let chunks = [[4, 0, 10, 0, 3]; 50];
        assert_eq!(run(&chunks, 2), 4 + 10 * 50 + 3);
        // B=3, equal stages: a systolic array, (n + 4) * t.
        assert_eq!(run(&[[2; 5]; 50], 3), 2 * (50 + 4));
        // The completion matrix is monotone along both axes.
        let end = bounded_buffer_schedule(&chunks, &MAP_TOKEN_GROUPS, 2, [1; 5]);
        for c in 1..end.len() {
            for s in 0..5 {
                assert!(end[c][s] >= end[c - 1][s]);
                assert!(s == 0 || end[c][s] >= end[c][s - 1]);
            }
        }
    }

    #[test]
    fn timers_fold_accounted_chunk_spans_only() {
        let trace = Trace {
            lanes: vec![(
                lane(0, PipelineKind::Reduce, StageId::Partition),
                vec![
                    begin(0, 0),
                    end(10, 0, 10),
                    begin(10, 1),
                    ev(
                        15,
                        EventKind::End {
                            span: SpanId::Chunk { seq: 1 },
                            wall_ns: 0,
                            modeled_ns: 0,
                            accounted: false,
                        },
                    ),
                ],
            )],
        };
        let a = trace.analysis();
        let p = a.pipeline(0, PipelineKind::Reduce).unwrap();
        let sp = p.stage(StageId::Partition).unwrap();
        assert_eq!((sp.chunks, sp.wall_ns, sp.modeled_ns), (1, 10, 10));
        assert_eq!(sp.service.total_ns, 10);
        let timers = p.timers();
        assert_eq!(timers.wall(StageId::Partition), Duration::from_nanos(10));
        assert_eq!(timers.modeled(StageId::Partition), Duration::from_nanos(10));
        assert_eq!(timers.wall(StageId::Kernel), Duration::ZERO);
        // Samples are positional by seq and hold chunk spans only.
        assert_eq!(p.chunk_samples.len(), 1);
        assert_eq!(
            p.chunk_samples[0][StageId::Partition.index()],
            StageSample {
                wall: Duration::from_nanos(10),
                modeled: Duration::from_nanos(10),
            }
        );
    }

    #[test]
    fn empty_trace_analyzes_to_empty() {
        let a = Trace::default().analysis();
        assert!(a.nodes.is_empty());
        assert_eq!(a.critical_path.wall_ns, 0);
        assert!(a.stragglers.is_empty());
        assert_eq!(a.advice.bottleneck, None);
        assert_eq!(a.anomalies, Anomalies::default());
        assert!(!a.determinism_digest().is_empty());
    }

    #[test]
    fn digest_is_timing_free() {
        // Same logical stream, wildly different timings: identical digest.
        let shifted = |scale: u64| {
            let trace = Trace {
                lanes: vec![
                    (
                        lane(0, PipelineKind::Map, StageId::Input),
                        vec![begin(0, 0), end(100 * scale, 0, 100 * scale)],
                    ),
                    (
                        lane(0, PipelineKind::Map, StageId::Kernel),
                        vec![begin(scale, 0), end(150 * scale, 0, 7 * scale)],
                    ),
                ],
            };
            trace.analysis().determinism_digest()
        };
        assert_eq!(shifted(1), shifted(997));
    }
}
