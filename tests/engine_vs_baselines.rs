//! Cross-engine validation: the Glasswing engine and the Hadoop-, GPMR-
//! and Phoenix-model baselines must produce identical results from the
//! same input — the paper "verified the output of Glasswing and
//! Hadoop applications to be identical and correct".

use std::sync::Arc;

use glasswing::apps::workloads::{self, CorpusSpec, KmeansSpec};
use glasswing::apps::{codec, reference, KMeans, WordCount};
use glasswing::baseline::{
    GpmrCluster, GpmrConfig, HadoopCluster, HadoopConfig, PhoenixConfig, PhoenixRuntime,
};
use glasswing::prelude::*;

fn counts(records: Vec<(Vec<u8>, Vec<u8>)>) -> Vec<(Vec<u8>, u64)> {
    let mut out: Vec<(Vec<u8>, u64)> = records
        .into_iter()
        .map(|(k, v)| (k, codec::dec_u64(&v)))
        .collect();
    out.sort();
    out
}

/// A local-FS copy of `recs` over `nodes` nodes: GPMR's and Phoenix's
/// store (GPMR reads fully replicated local files, Phoenix one machine's).
fn local_copy(recs: &workloads::Records, nodes: u32, block: usize) -> Arc<dyn FileStore> {
    let local = LocalFs::new(nodes);
    local
        .write_records(
            "/in",
            NodeId(0),
            block,
            1,
            recs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
        )
        .unwrap();
    Arc::new(local)
}

#[test]
fn three_engines_agree_on_wordcount() {
    let spec = CorpusSpec {
        lines: 200,
        vocabulary: 150,
        ..Default::default()
    };
    let recs = workloads::text_corpus(&spec);
    let expect = reference::wordcount(&recs);
    let nodes = 2u32;

    // Glasswing engine on DFS.
    let dfs = Arc::new(Dfs::new(DfsConfig::new(nodes).free_io()));
    dfs.write_records(
        "/in",
        NodeId(0),
        4096,
        3,
        recs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
    )
    .unwrap();
    let gw = Cluster::new(
        Arc::clone(&dfs) as Arc<dyn FileStore>,
        NetProfile::unlimited(),
    );
    let mut cfg = JobConfig::new("/in", "/gw-out");
    cfg.device_threads = 2;
    let report = gw.run(Arc::new(WordCount::new()), &cfg).unwrap();
    let gw_out = counts(read_job_output(gw.store(), &report).unwrap());
    assert_eq!(gw_out, expect);

    // Each baseline with and without the app's combiner: the app, not the
    // engine, decides whether map output is combined.
    let hadoop = HadoopCluster::new(Arc::clone(&dfs) as Arc<dyn FileStore>);
    let gpmr = GpmrCluster::new(local_copy(&recs, nodes, 4096));
    let phoenix = PhoenixRuntime::new(local_copy(&recs, 1, 4096));
    for (name, app) in [
        ("combined", WordCount::new()),
        ("uncombined", WordCount::without_combiner()),
    ] {
        let app = Arc::new(app);

        // Hadoop-model engine on the same DFS.
        let hcfg = HadoopConfig::new("/in", format!("/hadoop-{name}"));
        hadoop
            .run(Arc::clone(&app) as Arc<dyn GwApp>, &hcfg)
            .unwrap();
        let h_out = counts(hadoop.read_output(&hcfg).unwrap());
        assert_eq!(h_out, expect, "hadoop, {name}");

        // GPMR-model engine on a local FS copy.
        let gcfg = GpmrConfig::new("/in", format!("/gpmr-{name}"));
        gpmr.run(Arc::clone(&app) as Arc<dyn GwApp>, &gcfg).unwrap();
        let g_out = counts(gpmr.read_output(&gcfg).unwrap());
        assert_eq!(g_out, expect, "gpmr, {name}");

        // Phoenix-model runtime on a one-node copy; its output stays in
        // memory.
        let p_report = phoenix.run(app, &PhoenixConfig::new("/in")).unwrap();
        assert_eq!(counts(p_report.output), expect, "phoenix, {name}");
    }
}

#[test]
fn glasswing_and_hadoop_agree_on_kmeans() {
    let spec = KmeansSpec {
        points: 600,
        dims: 3,
        centers: 8,
        seed: 21,
    };
    let pts = workloads::kmeans_points(&spec);
    let centers = workloads::kmeans_centers(&spec);
    let nodes = 2u32;
    let dfs = Arc::new(Dfs::new(DfsConfig::new(nodes).free_io()));
    dfs.write_records(
        "/in",
        NodeId(0),
        8192,
        3,
        pts.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
    )
    .unwrap();

    let gw = Cluster::new(
        Arc::clone(&dfs) as Arc<dyn FileStore>,
        NetProfile::unlimited(),
    );
    let mut cfg = JobConfig::new("/in", "/gw-out");
    cfg.device_threads = 2;
    let app = Arc::new(KMeans::new(centers.clone(), spec.centers, spec.dims));
    let report = gw.run(Arc::clone(&app) as Arc<dyn GwApp>, &cfg).unwrap();
    let gw_out = read_job_output(gw.store(), &report).unwrap();

    let hadoop = HadoopCluster::new(Arc::clone(&dfs) as Arc<dyn FileStore>);
    let hcfg = HadoopConfig::new("/in", "/hadoop-out");
    hadoop.run(app, &hcfg).unwrap();
    let h_out = hadoop.read_output(&hcfg).unwrap();

    assert_eq!(gw_out.len(), h_out.len());
    let lookup: std::collections::HashMap<Vec<u8>, Vec<u8>> = h_out.into_iter().collect();
    for (k, v) in gw_out {
        let hv = lookup.get(&k).expect("center present in both");
        let a = codec::get_f32s(&v);
        let b = codec::get_f32s(hv);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 0.01, "center mismatch: {x} vs {y}");
        }
    }
}

#[test]
fn hadoop_terasort_equals_glasswing_terasort() {
    use glasswing::apps::TeraSort;
    let recs = workloads::teragen(500, 19);
    let nodes = 2u32;
    let dfs = Arc::new(Dfs::new(DfsConfig::new(nodes).free_io()));
    dfs.write_records(
        "/in",
        NodeId(0),
        8 << 10,
        3,
        recs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
    )
    .unwrap();
    let samples = workloads::sample_keys(&recs, 100, 2);

    let gw = Cluster::new(
        Arc::clone(&dfs) as Arc<dyn FileStore>,
        NetProfile::unlimited(),
    );
    let mut cfg = JobConfig::new("/in", "/gw-out");
    cfg.device_threads = 2;
    cfg.output_replication = 1;
    let app = Arc::new(TeraSort::new(samples.clone(), nodes));
    let report = gw.run(Arc::clone(&app) as Arc<dyn GwApp>, &cfg).unwrap();
    let gw_out = read_job_output(gw.store(), &report).unwrap();

    let hadoop = HadoopCluster::new(Arc::clone(&dfs) as Arc<dyn FileStore>);
    let mut hcfg = HadoopConfig::new("/in", "/hadoop-out");
    hcfg.output_replication = 1;
    hadoop
        .run(Arc::clone(&app) as Arc<dyn GwApp>, &hcfg)
        .unwrap();
    let h_out = hadoop.read_output(&hcfg).unwrap();

    assert_eq!(gw_out, h_out);
    let expect = reference::terasort(&recs);
    assert_eq!(gw_out, expect);

    // GPMR partitions by the same range partitioner, one partition a node,
    // so its partition files read back in order are the sorted records.
    let gpmr = GpmrCluster::new(local_copy(&recs, nodes, 8 << 10));
    let gcfg = GpmrConfig::new("/in", "/gpmr-out");
    gpmr.run(Arc::clone(&app) as Arc<dyn GwApp>, &gcfg).unwrap();
    assert_eq!(gpmr.read_output(&gcfg).unwrap(), expect, "gpmr");

    // Phoenix holds the whole sorted output in memory.
    let phoenix = PhoenixRuntime::new(local_copy(&recs, 1, 8 << 10));
    let p_report = phoenix.run(app, &PhoenixConfig::new("/in")).unwrap();
    assert_eq!(p_report.output, expect, "phoenix");
}
