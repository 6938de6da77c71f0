//! The SLO/health detector: live snapshots in, named findings out.
//!
//! Two signals, both computed from [`Snapshot`] windows so detection
//! happens *while the service runs* (this is the loop-closer for the
//! `gw-chaos` gray plane — an injected slowdown must surface here, not
//! in a post-hoc trace fold):
//!
//! - **Node service-rate divergence.** Per snapshot window and pipeline
//!   stage, each node's lower-quartile chunk wall time (from the
//!   `gw_node_stage_chunk_wall_ns` bucket deltas) is divided by the
//!   fleet median for that stage. A node's window ratio is the *least*
//!   of its stage ratios, and it feeds an EWMA. A node whose EWMA and
//!   window ratio both reach [`HealthConfig::node_ratio`] for
//!   [`HealthConfig::confirm`] consecutive observed windows raises
//!   [`HealthFinding::NodeSlow`]. The confirmation streak keeps one-shot
//!   stalls (10–100 ms, a single window spike) from paging. The lower
//!   quartile and the least stage keep a node that shared its CPU for a
//!   window from paging: a chunk that waits out one scheduler quantum
//!   lifts a window *mean* of ~50 µs chunks several-fold, but not the
//!   window's faster chunks, and not every stage at once. A slow node
//!   stretches every passage of every stage, its fastest ones included.
//! - **Tenant SLO budget burn.** A tenant with a configured p99
//!   turnaround budget raises [`HealthFinding::TenantSloBurn`] when the
//!   `gw_service_turnaround_ns` histogram's estimated p99 crosses the
//!   budget. Findings re-arm only after p99 drops below 80% of budget.
//!
//! Detection latency is bounded by construction: a persistent slowdown
//! that lifts a node's window ratios above the threshold is reported on
//! the `confirm`-th observed window after onset — the sweep in
//! `tests/telemetry.rs` pins this bound end to end.

use std::collections::{BTreeMap, BTreeSet};

use crate::snapshot::Snapshot;

/// Detector tuning.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// A node is suspect when its service-time EWMA exceeds this ratio
    /// of the fleet median (1.3 = 30% slower than the median node).
    pub node_ratio: f64,
    /// Consecutive suspect windows before a finding fires.
    pub confirm: u32,
    /// Minimum chunks a node must serve inside a window for the window
    /// to count (guards against judging a node on one noisy chunk).
    pub min_chunks: u64,
    /// EWMA weight of the newest window ratio.
    pub ewma_alpha: f64,
    /// Per-tenant p99 turnaround budgets in milliseconds; tenants
    /// without an entry have no SLO (the default: no budgets, so a
    /// fault-free service emits no findings).
    pub slo_p99_ms: BTreeMap<String, f64>,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            node_ratio: 1.3,
            confirm: 2,
            min_chunks: 4,
            ewma_alpha: 0.5,
            slo_p99_ms: BTreeMap::new(),
        }
    }
}

/// One named health finding. `kind()` is the stable name CI and the
/// chaos sweep assert on.
#[derive(Debug, Clone, PartialEq)]
pub enum HealthFinding {
    /// A node's per-chunk service time diverged from the fleet median.
    NodeSlow {
        /// The physical node.
        node: u32,
        /// Snapshot sequence that confirmed the finding.
        seq: u64,
        /// EWMA of the node's window ratio to the fleet at confirmation
        /// (2.0 = its least slow stage serves chunks twice as slowly).
        ewma_ratio: f64,
        /// Suspect windows observed before confirmation.
        streak: u32,
    },
    /// A tenant's estimated p99 turnaround crossed its budget.
    TenantSloBurn {
        /// The tenant.
        tenant: String,
        /// Snapshot sequence that raised the finding.
        seq: u64,
        /// Estimated p99 turnaround, milliseconds.
        p99_ms: f64,
        /// The configured budget, milliseconds.
        budget_ms: f64,
    },
}

impl HealthFinding {
    /// Stable finding name.
    pub fn kind(&self) -> &'static str {
        match self {
            HealthFinding::NodeSlow { .. } => "node-slow",
            HealthFinding::TenantSloBurn { .. } => "slo-burn",
        }
    }

    /// The snapshot sequence the finding fired on.
    pub fn seq(&self) -> u64 {
        match self {
            HealthFinding::NodeSlow { seq, .. } => *seq,
            HealthFinding::TenantSloBurn { seq, .. } => *seq,
        }
    }

    /// One-line human rendering.
    pub fn describe(&self) -> String {
        match self {
            HealthFinding::NodeSlow {
                node,
                seq,
                ewma_ratio,
                streak,
            } => format!(
                "node-slow: node {node} per-chunk ewma {ewma_ratio:.2}x the fleet median \
                 ({streak} windows, snapshot {seq})"
            ),
            HealthFinding::TenantSloBurn {
                tenant,
                seq,
                p99_ms,
                budget_ms,
            } => format!(
                "slo-burn: tenant {tenant} p99 turnaround {p99_ms:.1} ms over budget \
                 {budget_ms:.1} ms (snapshot {seq})"
            ),
        }
    }
}

/// The name of the per-node chunk service-time histogram (recorded by
/// the telemetry bridge).
pub const NODE_CHUNK_WALL: &str = "gw_node_chunk_wall_ns";
/// The name of the per-(node, pipeline, stage) chunk service-time
/// histogram the detector consumes (recorded by the telemetry bridge).
pub const STAGE_CHUNK_WALL: &str = "gw_node_stage_chunk_wall_ns";
/// The name of the per-tenant turnaround histogram.
pub const TENANT_TURNAROUND: &str = "gw_service_turnaround_ns";

#[derive(Debug, Default)]
struct NodeState {
    /// EWMA of the node's window ratio to the fleet.
    ewma: f64,
    streak: u32,
    reported: bool,
}

/// Streaming detector; feed it snapshots in order via
/// [`HealthDetector::observe`].
#[derive(Debug)]
pub struct HealthDetector {
    cfg: HealthConfig,
    nodes: BTreeMap<u32, NodeState>,
    slo_burning: BTreeSet<String>,
}

impl HealthDetector {
    /// A fresh detector.
    pub fn new(cfg: HealthConfig) -> Self {
        HealthDetector {
            cfg,
            nodes: BTreeMap::new(),
            slo_burning: BTreeSet::new(),
        }
    }

    /// Consume one snapshot; returns the findings it raised (empty for a
    /// healthy window). Idle windows (no chunks anywhere) never panic
    /// and never advance streaks.
    pub fn observe(&mut self, snap: &Snapshot) -> Vec<HealthFinding> {
        let mut findings = Vec::new();

        // Each node's chunks in this window, and per stage its window
        // lower quartile.
        let mut served: BTreeMap<u32, u64> = BTreeMap::new();
        let mut stages: BTreeMap<(&str, &str), Vec<(u32, f64)>> = BTreeMap::new();
        for h in &snap.histograms {
            if h.name != STAGE_CHUNK_WALL || h.delta_count == 0 {
                continue;
            }
            let Some(node) = h.label("node").and_then(|s| s.parse::<u32>().ok()) else {
                continue;
            };
            *served.entry(node).or_default() += h.delta_count;
            let stage = (
                h.label("pipeline").unwrap_or(""),
                h.label("stage").unwrap_or(""),
            );
            stages.entry(stage).or_default().push((node, h.window_p25));
        }
        // A node's window ratio: the least slow of its stages against the
        // fleet's median for that stage, over stages at least two judged
        // nodes served.
        let mut ratios: BTreeMap<u32, f64> = BTreeMap::new();
        for per_node in stages.values() {
            let judged: Vec<(u32, f64)> = per_node
                .iter()
                .copied()
                .filter(|(node, _)| served[node] >= self.cfg.min_chunks)
                .collect();
            if judged.len() < 2 {
                continue;
            }
            let fleet = median(judged.iter().map(|&(_, p25)| p25).collect());
            if fleet <= 0.0 {
                continue;
            }
            for (node, p25) in judged {
                let ratio = p25 / fleet;
                ratios
                    .entry(node)
                    .and_modify(|least| *least = least.min(ratio))
                    .or_insert(ratio);
            }
        }
        for (node, ratio) in ratios {
            let st = self.nodes.entry(node).or_default();
            st.ewma = if st.ewma == 0.0 {
                ratio
            } else {
                self.cfg.ewma_alpha * ratio + (1.0 - self.cfg.ewma_alpha) * st.ewma
            };
            // Both the smoothed estimate and the current window must
            // diverge: the EWMA alone would keep a one-shot stall
            // "suspect" for a couple of windows after it cleared, and the
            // raw window alone would page on a single noisy window.
            if st.ewma >= self.cfg.node_ratio && ratio >= self.cfg.node_ratio {
                st.streak += 1;
                if st.streak >= self.cfg.confirm && !st.reported {
                    st.reported = true;
                    findings.push(HealthFinding::NodeSlow {
                        node,
                        seq: snap.seq,
                        ewma_ratio: st.ewma,
                        streak: st.streak,
                    });
                }
            } else {
                st.streak = 0;
                st.reported = false;
            }
        }

        // Tenant SLO burn from the turnaround histogram's estimated p99.
        for h in &snap.histograms {
            if h.name != TENANT_TURNAROUND || h.count == 0 {
                continue;
            }
            let Some(tenant) = h.label("tenant") else {
                continue;
            };
            let Some(&budget_ms) = self.cfg.slo_p99_ms.get(tenant) else {
                continue;
            };
            let p99_ms = h.p99 / 1e6;
            if p99_ms > budget_ms {
                if self.slo_burning.insert(tenant.to_string()) {
                    findings.push(HealthFinding::TenantSloBurn {
                        tenant: tenant.to_string(),
                        seq: snap.seq,
                        p99_ms,
                        budget_ms,
                    });
                }
            } else if p99_ms < 0.8 * budget_ms {
                self.slo_burning.remove(tenant);
            }
        }

        findings
    }
}

/// Median of `values` (the mean of the middle two for an even count;
/// 0.0 for none).
fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        0.5 * (values[mid - 1] + values[mid])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::snapshot::SnapshotRing;

    fn plane() -> (std::sync::Arc<Registry>, SnapshotRing) {
        (Registry::new(), SnapshotRing::new(64))
    }

    fn feed_stage(reg: &Registry, node: u32, stage: &str, chunks: u64, each_ns: u64) {
        let h = reg.histogram(
            STAGE_CHUNK_WALL,
            &[
                ("node", &node.to_string()),
                ("pipeline", "map"),
                ("stage", stage),
            ],
        );
        for _ in 0..chunks {
            h.observe(each_ns);
        }
    }

    fn feed(reg: &Registry, node: u32, chunks: u64, each_ns: u64) {
        feed_stage(reg, node, "kernel", chunks, each_ns);
    }

    #[test]
    fn persistent_divergence_confirms_on_the_second_window() {
        let (reg, ring) = plane();
        let mut det = HealthDetector::new(HealthConfig::default());
        let mut fired = Vec::new();
        for w in 1..=4u64 {
            for node in 0..3u32 {
                let base = 1_000_000u64; // 1 ms
                let ns = if node == 2 { base * 3 } else { base };
                feed(&reg, node, 8, ns);
            }
            let snap = ring.capture(&reg, w * 10);
            fired.extend(det.observe(&snap));
        }
        assert_eq!(fired.len(), 1, "exactly one confirmation: {fired:?}");
        match &fired[0] {
            HealthFinding::NodeSlow {
                node, seq, streak, ..
            } => {
                assert_eq!(*node, 2);
                assert_eq!(*streak, 2, "confirmed on the streak bound");
                assert_eq!(*seq, 2, "second window confirms");
            }
            other => panic!("unexpected finding {other:?}"),
        }
    }

    #[test]
    fn one_window_spike_and_clean_fleets_stay_silent() {
        let (reg, ring) = plane();
        let mut det = HealthDetector::new(HealthConfig::default());
        let mut fired = Vec::new();
        for w in 1..=5u64 {
            for node in 0..3u32 {
                // Node 1 spikes 5x in window 2 only (a one-shot stall).
                let ns = if node == 1 && w == 2 {
                    5_000_000
                } else {
                    1_000_000
                };
                feed(&reg, node, 8, ns);
            }
            fired.extend(det.observe(&ring.capture(&reg, w * 10)));
        }
        assert!(
            fired.is_empty(),
            "one-shot spike must not confirm: {fired:?}"
        );
    }

    #[test]
    fn stage_mix_and_slow_stages_of_a_fast_node_stay_silent() {
        let (reg, ring) = plane();
        let mut det = HealthDetector::new(HealthConfig::default());
        let mut fired = Vec::new();
        for w in 1..=5u64 {
            for node in 0..3u32 {
                // Node 0's windows hold mostly partition chunks, which
                // every node serves 8x slower than input chunks: a
                // node-wide statistic would read node 0 as slow.
                let (inputs, partitions) = if node == 0 { (4, 12) } else { (12, 4) };
                // Node 1 runs its kernel and partition stages 3x slow,
                // but its input stage at the fleet's speed: a slow node
                // would stretch every stage.
                let slow = if node == 1 { 3 } else { 1 };
                feed_stage(&reg, node, "input", inputs, 10_000);
                feed_stage(&reg, node, "kernel", 8, 20_000 * slow);
                feed_stage(&reg, node, "partition", partitions, 80_000 * slow);
            }
            fired.extend(det.observe(&ring.capture(&reg, w * 10)));
        }
        assert!(fired.is_empty(), "no node is slow: {fired:?}");
    }

    #[test]
    fn a_node_is_judged_on_its_chunks_across_stages() {
        let (reg, ring) = plane();
        let mut det = HealthDetector::new(HealthConfig::default());
        let mut fired = Vec::new();
        for w in 1..=3u64 {
            for node in 0..3u32 {
                // Node 2 runs every stage 3x slow and so serves only two
                // chunks per stage: too few for one stage, enough for
                // the window.
                let (chunks, slow) = if node == 2 { (2, 3) } else { (8, 1) };
                feed_stage(&reg, node, "input", chunks, 10_000 * slow);
                feed_stage(&reg, node, "kernel", chunks, 20_000 * slow);
                feed_stage(&reg, node, "partition", chunks, 80_000 * slow);
            }
            fired.extend(det.observe(&ring.capture(&reg, w * 10)));
        }
        let named: Vec<(u32, u64)> = fired
            .iter()
            .map(|f| match f {
                HealthFinding::NodeSlow { node, seq, .. } => (*node, *seq),
                other => panic!("unexpected finding {other:?}"),
            })
            .collect();
        assert_eq!(named, vec![(2, 2)], "node 2 confirmed on the second window");
    }

    #[test]
    fn slo_burn_names_the_tenant_and_rearms_after_recovery() {
        let (reg, ring) = plane();
        let mut cfg = HealthConfig::default();
        cfg.slo_p99_ms.insert("alpha".into(), 10.0);
        let mut det = HealthDetector::new(cfg);
        let h = reg.histogram(TENANT_TURNAROUND, &[("tenant", "alpha")]);
        for _ in 0..20 {
            h.observe(50_000_000); // 50 ms >> 10 ms budget
        }
        let f = det.observe(&ring.capture(&reg, 10));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind(), "slo-burn");
        match &f[0] {
            HealthFinding::TenantSloBurn { tenant, p99_ms, .. } => {
                assert_eq!(tenant, "alpha");
                assert!(*p99_ms > 10.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Still burning: no duplicate finding.
        assert!(det.observe(&ring.capture(&reg, 20)).is_empty());
    }

    #[test]
    fn idle_snapshots_never_panic_or_fire() {
        let (reg, ring) = plane();
        let mut det = HealthDetector::new(HealthConfig::default());
        for w in 0..10u64 {
            assert!(det.observe(&ring.capture(&reg, w)).is_empty());
        }
    }
}
