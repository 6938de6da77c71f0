//! Table I, demonstrated by construction.
//!
//! The paper's Table I compares frameworks along three axes: out-of-core
//! support, compute-device flexibility, and cluster support. Rather than
//! asserting the table, these tests *run* the same WordCount job against
//! each runtime and show where each one works and where it refuses —
//! Phoenix (single-node, CPU, in-core), GPMR (cluster, GPU-only, in-core
//! intermediate data), Glasswing (cluster, any device, out-of-core).

use std::sync::Arc;

use glasswing::apps::workloads::{self, CorpusSpec};
use glasswing::apps::{reference, WordCount};
use glasswing::baseline::{BaselineError, GpmrCluster, GpmrConfig, PhoenixConfig, PhoenixRuntime};
use glasswing::intermediate::IntermediateConfig;
use glasswing::prelude::*;

fn corpus(lines: usize) -> workloads::Records {
    workloads::text_corpus(&CorpusSpec {
        lines,
        ..Default::default()
    })
}

fn load<S: FileStore + 'static>(store: S, recs: &workloads::Records) -> Arc<dyn FileStore> {
    store
        .write_records(
            "/in",
            NodeId(0),
            2048,
            3,
            recs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
        )
        .unwrap();
    Arc::new(store)
}

/// Column "Cluster": Phoenix refuses, GPMR and Glasswing run.
#[test]
fn cluster_support_column() {
    let recs = corpus(120);

    let phoenix = PhoenixRuntime::new(load(Dfs::new(DfsConfig::new(3).free_io()), &recs));
    assert!(matches!(
        phoenix
            .run(Arc::new(WordCount::new()), &PhoenixConfig::new("/in"))
            .unwrap_err(),
        BaselineError::ClusterUnsupported { nodes: 3 }
    ));

    let gpmr = GpmrCluster::new(load(LocalFs::new(3), &recs));
    gpmr.run(
        Arc::new(WordCount::without_combiner()),
        &GpmrConfig::new("/in", "/gpmr-out"),
    )
    .expect("GPMR supports clusters");

    let gw = Cluster::new(
        load(Dfs::new(DfsConfig::new(3).free_io()), &recs),
        NetProfile::unlimited(),
    );
    let mut cfg = JobConfig::new("/in", "/gw-out");
    cfg.device_threads = 1;
    gw.run(Arc::new(WordCount::new()), &cfg)
        .expect("Glasswing supports clusters");
}

/// Column "Out of Core": GPMR's intermediate data must fit in memory;
/// Glasswing spills the same job to disk and completes.
#[test]
fn out_of_core_column() {
    let recs = corpus(400);

    let gpmr = GpmrCluster::new(load(LocalFs::new(1), &recs));
    let mut gcfg = GpmrConfig::new("/in", "/gpmr-out");
    gcfg.intermediate_budget = 4 << 10; // tiny in-core budget
    assert!(matches!(
        gpmr.run(Arc::new(WordCount::without_combiner()), &gcfg)
            .unwrap_err(),
        BaselineError::IntermediateOverflow { .. }
    ));

    // Same pressure on Glasswing: a tiny memory budget just means
    // spilling; the job completes and the output is exact.
    let gw = Cluster::new(
        load(Dfs::new(DfsConfig::new(1).free_io()), &recs),
        NetProfile::unlimited(),
    );
    let mut cfg = JobConfig::new("/in", "/gw-out");
    cfg.device_threads = 1;
    cfg.memory_budget = Some(IntermediateConfig::MIN_MEMORY_BUDGET);
    let report = gw
        .run(Arc::new(WordCount::without_combiner()), &cfg)
        .expect("Glasswing handles out-of-core intermediate data");
    assert!(
        report.nodes[0].intermediate.flushes > 0,
        "the job must actually have spilled"
    );
    let mut out: Vec<(Vec<u8>, u64)> = read_job_output(gw.store(), &report)
        .unwrap()
        .into_iter()
        .map(|(k, v)| (k, u64::from_le_bytes(v.as_slice().try_into().unwrap())))
        .collect();
    out.sort();
    assert_eq!(out, reference::wordcount(&recs));
}

/// Column "Compute Device": one Glasswing job definition runs on CPU,
/// GPU and Xeon Phi profiles with identical output; Phoenix's runtime has
/// no device notion (CPU threads only) and GPMR's is GPU-only by
/// construction (its config carries only GPU profiles).
#[test]
fn compute_device_column() {
    let recs = corpus(100);
    let expect = reference::wordcount(&recs);
    for device in [
        DeviceProfile::host(),
        DeviceProfile::gtx480(),
        DeviceProfile::xeon_phi(),
    ] {
        let gw = Cluster::new(
            load(Dfs::new(DfsConfig::new(2).free_io()), &recs),
            NetProfile::unlimited(),
        );
        let mut cfg = JobConfig::new("/in", "/gw-out");
        cfg.device_threads = 1;
        cfg.device = device.clone();
        let report = gw.run(Arc::new(WordCount::new()), &cfg).unwrap();
        let mut out: Vec<(Vec<u8>, u64)> = read_job_output(gw.store(), &report)
            .unwrap()
            .into_iter()
            .map(|(k, v)| (k, u64::from_le_bytes(v.as_slice().try_into().unwrap())))
            .collect();
        out.sort();
        assert_eq!(out, expect, "device {} diverged", device.name);
    }
}
