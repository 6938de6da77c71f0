//! Bottleneck-advisor validation: on a job built to be kernel-bound, the
//! advisor must *name* the Kernel stage at every buffering level, and
//! the prediction must agree with measurement, in two regimes:
//!
//! * **Compute-bound** (integer burn): on this single-core host extra
//!   lanes cannot add real parallelism (EXPERIMENTS.md § methodology
//!   note), so the measured counterpart of the advisor's 0.5× service
//!   replay is physically doubling the service *rate* — halving the
//!   per-record burn. Ordering comparison only, no absolute thresholds.
//! * **Latency-bound** (per-record sleep, the shape of paced I/O): lanes
//!   overlap service waits even on one core, so the advisor must name
//!   the Kernel and predict a real gain from a second lane there. Whether
//!   a widened stage *realises* that prediction is a wall-clock question
//!   and is gated where timings carry a noise floor: the 0.5–1.5× band in
//!   `gw-bench/benches/pipeline.rs` full mode.

use std::sync::Arc;
use std::time::Duration;

use glasswing::core::{PipelineKind, StageId};
use glasswing::prelude::*;

/// A map-heavy app: every record burns a fixed budget of integer mixing
/// and/or sleeps a fixed latency in the kernel and emits one tiny pair,
/// so with free I/O the Kernel stage dominates the map pipeline by
/// orders of magnitude. Burn models a compute-bound kernel; sleep models
/// a latency-bound one (service that lanes can overlap on one core).
struct BurnMap {
    rounds: u64,
    sleep: Duration,
}

impl GwApp for BurnMap {
    fn name(&self) -> &'static str {
        "burnmap"
    }

    fn map(&self, key: &[u8], value: &[u8], emit: &Emit<'_>) {
        let mut x = value
            .iter()
            .fold(1u64, |a, &b| a.wrapping_mul(31) + b as u64);
        for _ in 0..self.rounds {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        if !self.sleep.is_zero() {
            std::thread::sleep(self.sleep);
        }
        // Emit the digest so the burn can't be optimised away.
        emit.emit(&key[..2.min(key.len())], &x.to_le_bytes());
    }

    fn reduce(
        &self,
        key: &[u8],
        values: &[&[u8]],
        state: &mut Vec<u8>,
        last: bool,
        emit: &Emit<'_>,
    ) {
        let mut acc = if state.is_empty() {
            0u64
        } else {
            u64::from_le_bytes(state[..8].try_into().unwrap())
        };
        for v in values {
            acc ^= v.iter().fold(0u64, |a, &b| (a << 8) | b as u64);
        }
        if last {
            emit.emit(key, &acc.to_le_bytes());
        } else {
            state.clear();
            state.extend_from_slice(&acc.to_le_bytes());
        }
    }
}

fn records() -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..256u32)
        .map(|i| {
            (
                format!("{i:04}").into_bytes(),
                format!("payload line {i:08}").into_bytes(),
            )
        })
        .collect()
}

fn run_app(buffering: Buffering, app: BurnMap, partition_threads: usize) -> JobReport {
    let dfs = Arc::new(Dfs::new(DfsConfig::new(1).free_io()));
    let recs = records();
    dfs.write_records(
        "/advise/in",
        NodeId(0),
        512,
        1,
        recs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
    )
    .unwrap();
    let cluster = Cluster::new(dfs, NetProfile::unlimited());
    let mut cfg = JobConfig::new("/advise/in", "/advise/out");
    cfg.buffering = buffering;
    cfg.device_threads = 1;
    cfg.partition_threads = partition_threads;
    cfg.output_replication = 1;
    cluster.run(Arc::new(app), &cfg).unwrap()
}

fn run(buffering: Buffering, rounds: u64, partition_threads: usize) -> JobReport {
    let app = BurnMap {
        rounds,
        sleep: Duration::ZERO,
    };
    run_app(buffering, app, partition_threads)
}

const ROUNDS: u64 = 50_000;

/// Best-of-3 wall time for one configuration, to shave scheduler noise.
fn best_elapsed(rounds: u64, partition_threads: usize) -> Duration {
    (0..3)
        .map(|_| run(Buffering::Double, rounds, partition_threads).elapsed)
        .min()
        .unwrap()
}

#[test]
fn advisor_names_kernel_on_a_kernel_bound_job_at_every_buffering_level() {
    for buffering in [Buffering::Single, Buffering::Double, Buffering::Triple] {
        let report = run(buffering, ROUNDS, 1);
        let advice = &report.analysis.advice;
        assert_eq!(
            advice.bottleneck,
            Some(StageId::Kernel),
            "advisor missed the kernel bottleneck at {buffering:?}: {:?}",
            advice.lines
        );
        // The prediction itself says kernel doubling wins the largest
        // modelled speedup of all live map stages.
        let kernel_gain = advice.doubling_speedup(StageId::Kernel);
        for (stage, gain) in &advice.lane_scaling {
            assert!(
                kernel_gain >= *gain,
                "{stage:?} predicted {gain:.3} > kernel {kernel_gain:.3} at {buffering:?}"
            );
        }
        // And the kernel really did carry the busy time it was judged on.
        let map = report
            .analysis
            .pipeline(0, PipelineKind::Map)
            .expect("map pipeline present");
        let kernel = map.stage(StageId::Kernel).unwrap();
        assert!(kernel.chunks > 0 && kernel.busy_ns > 0);
    }
}

#[test]
fn predicted_bottleneck_matches_measured_doubling_speedup() {
    let base = best_elapsed(ROUNDS, 1);
    // Double the *named* stage's service rate: half the per-record burn.
    let faster_kernel = best_elapsed(ROUNDS / 2, 1);
    // Accelerate a stage the advisor did not name instead.
    let more_partition = best_elapsed(ROUNDS, 2);

    let kernel_speedup = base.as_secs_f64() / faster_kernel.as_secs_f64();
    let partition_speedup = base.as_secs_f64() / more_partition.as_secs_f64();

    // The advisor named Kernel; measurement must agree: doubling the
    // named stage's speed beats accelerating a non-bottleneck stage.
    assert!(
        kernel_speedup > partition_speedup,
        "doubling kernel speed gave {kernel_speedup:.3}x but accelerating \
         partitioning gave {partition_speedup:.3}x \
         (base {base:?}, kernel {faster_kernel:?}, partition {more_partition:?})"
    );
}

#[test]
fn advisor_predicts_a_lane_gain_on_a_latency_bound_kernel() {
    // The kernel is latency-bound (per-record sleep), so a second lane
    // would overlap service even on a single-core host: the advisor must
    // name it and promise a gain worth spending a lane on.
    let app = BurnMap {
        rounds: 0,
        sleep: Duration::from_micros(200),
    };
    let report = run_app(Buffering::Double, app, 1);
    let advice = &report.analysis.advice;
    assert_eq!(
        advice.bottleneck,
        Some(StageId::Kernel),
        "advisor missed the latency-bound kernel: {:?}",
        advice.lines
    );
    let predicted = advice.doubling_speedup(StageId::Kernel);
    assert!(
        predicted > 1.2,
        "job not kernel-bound enough to validate lane scaling: {predicted:.3}x"
    );
}
