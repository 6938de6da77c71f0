//! Unified entry point and node-count sweeps for the figures.

use crate::glasswing_model::simulate_glasswing;
use crate::gpmr_model::simulate_gpmr;
use crate::hadoop_model::simulate_hadoop;
use crate::params::{AppParams, ClusterParams};

/// Which framework model to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameworkKind {
    /// The Glasswing DES model.
    Glasswing,
    /// The Hadoop analytic model.
    Hadoop,
    /// The GPMR analytic model (optionally with a kernel penalty).
    Gpmr {
        /// Map-kernel inefficiency multiplier (1000 = ×1.0, fixed-point
        /// ‰ to keep the enum `Eq`/`Copy`).
        penalty_permille: u32,
    },
}

impl FrameworkKind {
    /// GPMR with no penalty.
    pub const GPMR: FrameworkKind = FrameworkKind::Gpmr {
        penalty_permille: 1000,
    };

    /// GPMR with a kernel penalty factor.
    pub fn gpmr_with_penalty(factor: f64) -> Self {
        FrameworkKind::Gpmr {
            penalty_permille: (factor * 1000.0) as u32,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            FrameworkKind::Glasswing => "Glasswing",
            FrameworkKind::Hadoop => "Hadoop",
            FrameworkKind::Gpmr { .. } => "GPMR",
        }
    }
}

/// Result of one simulated job.
#[derive(Debug, Clone, Copy)]
pub struct SimResult {
    /// Node count.
    pub nodes: usize,
    /// Total job time, seconds.
    pub total: f64,
    /// Map (or read+compute) portion.
    pub map_phase: f64,
    /// Shuffle/merge portion.
    pub merge_phase: f64,
    /// Reduce portion.
    pub reduce_phase: f64,
    /// GPMR only: compute-without-I/O total (Fig. 3(e)'s lower line).
    pub compute_only: Option<f64>,
}

/// Run one framework model.
pub fn simulate(
    framework: FrameworkKind,
    app: &AppParams,
    cluster: &ClusterParams,
    nodes: usize,
) -> SimResult {
    match framework {
        FrameworkKind::Glasswing => {
            let o = simulate_glasswing(app, cluster, nodes);
            SimResult {
                nodes,
                total: o.total,
                map_phase: o.map_phase,
                merge_phase: o.merge_delay,
                reduce_phase: o.reduce_phase,
                compute_only: None,
            }
        }
        FrameworkKind::Hadoop => {
            let o = simulate_hadoop(app, cluster, nodes);
            SimResult {
                nodes,
                total: o.total,
                map_phase: o.map_phase,
                merge_phase: o.shuffle_phase,
                reduce_phase: o.reduce_phase,
                compute_only: None,
            }
        }
        FrameworkKind::Gpmr { penalty_permille } => {
            let o = simulate_gpmr(app, cluster, nodes, penalty_permille as f64 / 1000.0);
            SimResult {
                nodes,
                total: o.total,
                map_phase: o.io_read + o.compute,
                merge_phase: o.exchange,
                reduce_phase: o.reduce + o.io_write,
                compute_only: Some(o.compute_only()),
            }
        }
    }
}

/// Sweep a framework over node counts; returns one result per count.
pub fn sweep(
    framework: FrameworkKind,
    app: &AppParams,
    cluster: &ClusterParams,
    node_counts: &[usize],
) -> Vec<SimResult> {
    node_counts
        .iter()
        .map(|&n| simulate(framework, app, cluster, n))
        .collect()
}

/// Speedup series relative to the first entry (the paper's definition:
/// "execution time of one slave node over the execution time of n slave
/// nodes of the same framework").
pub fn speedups(results: &[SimResult]) -> Vec<f64> {
    let base = results.first().map(|r| r.total).unwrap_or(1.0);
    results
        .iter()
        .map(|r| base / r.total * results[0].nodes as f64)
        .collect()
}

/// The node counts of the paper's Fig. 2/3 sweeps.
pub fn paper_node_counts() -> Vec<usize> {
    vec![1, 2, 4, 8, 16, 32, 64]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_all_counts() {
        let app = AppParams::wc();
        let cluster = ClusterParams::das4_cpu_hdfs();
        let counts = paper_node_counts();
        let results = sweep(FrameworkKind::Glasswing, &app, &cluster, &counts);
        assert_eq!(results.len(), counts.len());
        for (r, &n) in results.iter().zip(&counts) {
            assert_eq!(r.nodes, n);
            assert!(r.total > 0.0);
        }
    }

    #[test]
    fn speedups_start_at_base() {
        let app = AppParams::pvc();
        let cluster = ClusterParams::das4_cpu_hdfs();
        let results = sweep(FrameworkKind::Hadoop, &app, &cluster, &[1, 2, 4]);
        let s = speedups(&results);
        assert!((s[0] - 1.0).abs() < 1e-9);
        assert!(s[1] > 1.0);
        assert!(s[2] > s[1]);
    }

    #[test]
    fn gpmr_reports_compute_only() {
        let app = AppParams::km_few_centers();
        let cluster = ClusterParams::das4_gpu_local();
        let r = simulate(FrameworkKind::GPMR, &app, &cluster, 2);
        assert!(r.compute_only.unwrap() < r.total);
    }

    #[test]
    fn penalty_encoding_roundtrips() {
        let f = FrameworkKind::gpmr_with_penalty(6.0);
        match f {
            FrameworkKind::Gpmr { penalty_permille } => assert_eq!(penalty_permille, 6000),
            _ => unreachable!(),
        }
        assert_eq!(f.name(), "GPMR");
    }
}
