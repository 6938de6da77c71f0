//! Shared helpers for the experiment harnesses.
//!
//! Each `cargo bench` target in `benches/` regenerates one table or figure
//! of the paper (see DESIGN.md's experiment index). Real-engine
//! experiments run scaled-down workloads on this machine; cluster-scaling
//! experiments run the `gw-sim` models at paper scale. Harnesses print the
//! same rows/series the paper reports.

use std::sync::Arc;
use std::time::Duration;

use gw_apps::workloads::{self, CorpusSpec, KmeansSpec};
use gw_core::json::{self, Value};
use gw_core::{Cluster, JobConfig, NodeId};
use gw_net::NetProfile;
use gw_storage::split::FileStoreExt;
use gw_storage::{Dfs, DfsConfig};

/// Format a duration as fractional seconds with 3 decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Format a simulated time (f64 seconds).
pub fn sim_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else {
        format!("{s:.1}")
    }
}

/// Render a tracked `BENCH_*.json` file: one flat object, one field per
/// line in the given order, so diffs of the tracked files stay readable.
pub fn bench_json(fields: &[(&str, Value)]) -> String {
    let mut out = String::from("{\n");
    for (i, (key, val)) in fields.iter().enumerate() {
        out.push_str("  ");
        json::string(&mut out, key);
        out.push_str(": ");
        out.push_str(&json::write(val));
        out.push_str(if i + 1 == fields.len() { "\n" } else { ",\n" });
    }
    out.push_str("}\n");
    out
}

/// Print a harness's result fields, keys padded to `width`.
pub fn print_fields(fields: &[(&str, Value)], width: usize) {
    for (k, v) in fields {
        match v {
            Value::Num(n) => println!("  {k:width$} {n:.3}"),
            Value::Str(s) => println!("  {k:width$} {s}"),
            other => println!("  {k:width$} {}", json::write(other)),
        }
    }
}

/// A committed `BENCH_*.json` file, read back by a harness's `--check`.
pub struct Committed {
    file: String,
    doc: Value,
}

impl Committed {
    /// Read and parse the file at `path` and require its `schema` field
    /// to be `schema`; panics, naming the file, if any of that fails.
    pub fn read(path: &str, schema: &str) -> Self {
        let file = path.rsplit('/').next().unwrap_or(path).to_string();
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{file} unreadable: {e}"));
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{file} malformed: {e}"));
        match doc.get("schema").and_then(Value::as_str) {
            Some(s) if s == schema => {}
            other => panic!("{file} schema mismatch: {other:?}"),
        }
        Committed { file, doc }
    }

    /// The committed value under `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.doc.get(key)
    }

    /// The committed number under `key`; panics, naming the file and the
    /// key, unless it is present and positive.
    pub fn num(&self, key: &str) -> f64 {
        self.get(key)
            .and_then(Value::as_num)
            .filter(|n| *n > 0.0)
            .unwrap_or_else(|| panic!("{} missing/invalid {key}", self.file))
    }

    /// Print a `check` row for each `(key, measured)` speedup against a
    /// floor of 0.75× the committed `{prefix}{key}`; true if any fell
    /// below its floor.
    pub fn regressed(&self, prefix: &str, measured: &[(&str, f64)]) -> bool {
        let mut failed = false;
        for &(key, measured) in measured {
            let floor = 0.75 * self.num(&format!("{prefix}{key}"));
            let ok = measured >= floor;
            println!(
                "  check {prefix}{key:22} measured {measured:.3} vs floor {floor:.3} ... {}",
                if ok { "ok" } else { "REGRESSED" }
            );
            failed |= !ok;
        }
        failed
    }
}

/// Print a rule line.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// A Zipf text corpus loaded into a fresh single-or-multi-node DFS with a
/// free I/O model (local-FS-like: the pipeline-analysis experiments were
/// run "on one Type-1 node without HDFS").
pub fn corpus_cluster(lines: usize, vocabulary: usize, nodes: u32, block: usize) -> Cluster {
    corpus_cluster_with(
        lines,
        vocabulary,
        nodes,
        block,
        DfsConfig::new(nodes).free_io(),
    )
}

/// Like [`corpus_cluster`] but with *paced* local-FS-style reads, so the
/// Input stage carries a real (scaled) duration in pipeline breakdowns.
pub fn corpus_cluster_paced(lines: usize, vocabulary: usize, nodes: u32, block: usize) -> Cluster {
    // Scale the local-FS model down so the bench corpus (MBs) produces
    // input times of the same order as its kernel times, as the paper's
    // local-FS runs do.
    let model = gw_storage::IoModel {
        per_call_overhead: std::time::Duration::from_micros(100),
        local_bandwidth: 60.0e6,
        remote_bandwidth: 200.0e6,
        copy_amplification: 1.0,
    };
    corpus_cluster_with(
        lines,
        vocabulary,
        nodes,
        block,
        DfsConfig::new(nodes).paced_io(model),
    )
}

/// Like [`corpus_cluster_paced`] with a caller-supplied I/O model, for
/// benches that need a specific input-time regime (e.g. the lane-scaling
/// sweep's input-bound pacing).
pub fn corpus_cluster_paced_io(
    lines: usize,
    vocabulary: usize,
    nodes: u32,
    block: usize,
    model: gw_storage::IoModel,
) -> Cluster {
    corpus_cluster_with(
        lines,
        vocabulary,
        nodes,
        block,
        DfsConfig::new(nodes).paced_io(model),
    )
}

fn corpus_cluster_with(
    lines: usize,
    vocabulary: usize,
    nodes: u32,
    block: usize,
    dfs_cfg: DfsConfig,
) -> Cluster {
    assert_eq!(dfs_cfg.nodes, nodes, "node count mismatch");
    let spec = CorpusSpec {
        lines,
        words_per_line: 12,
        vocabulary,
        zipf_s: 1.05,
        seed: 424_242,
    };
    let recs = workloads::text_corpus(&spec);
    let dfs = Arc::new(Dfs::new(dfs_cfg));
    dfs.write_records(
        "/bench/in",
        NodeId(0),
        block,
        3,
        recs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
    )
    .expect("load corpus");
    Cluster::new(dfs, NetProfile::unlimited())
}

/// A K-Means point set loaded into a fresh DFS; returns the cluster and
/// the app's centers.
pub fn kmeans_cluster(
    points: usize,
    dims: usize,
    centers: usize,
    nodes: u32,
    block: usize,
) -> (Cluster, Vec<f32>) {
    let spec = KmeansSpec {
        points,
        dims,
        centers,
        seed: 77_001,
    };
    let pts = workloads::kmeans_points(&spec);
    let c = workloads::kmeans_centers(&spec);
    let dfs = Arc::new(Dfs::new(DfsConfig::new(nodes).free_io()));
    dfs.write_records(
        "/bench/in",
        NodeId(0),
        block,
        3,
        pts.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
    )
    .expect("load points");
    (Cluster::new(dfs, NetProfile::unlimited()), c)
}

pub mod baseline;

/// The standard bench job configuration (scaled to this machine).
pub fn bench_cfg() -> JobConfig {
    let mut cfg = JobConfig::new("/bench/in", "/bench/out");
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    cfg.device_threads = (host / 2).clamp(2, 8);
    cfg.partition_threads = 2;
    cfg.collector_capacity = 16 << 20;
    cfg.hash_buckets = 1 << 14;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

    #[test]
    fn roundtrips_in_order() {
        let text = bench_json(&[
            ("schema", Value::Str("v1".into())),
            ("speedup", Value::Num(1.75)),
            ("mbps", Value::Num(123.4567)),
        ]);
        assert!(text.starts_with("{\n  \"schema\": \"v1\",\n"));
        assert!(text.ends_with("  \"mbps\": 123.4567\n}\n"));
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some("v1"));
        assert_eq!(doc.get("speedup").and_then(Value::as_num), Some(1.75));
        assert_eq!(doc.get("mbps").and_then(Value::as_num), Some(123.4567));
        let Value::Obj(fields) = doc else {
            panic!("not an object: {text}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["schema", "speedup", "mbps"]);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(json::parse("not json").is_err());
        assert!(json::parse("{\n  \"k\" 1\n}").is_err());
        assert!(json::parse("{\n  \"k\": nope\n}").is_err());
        assert!(json::parse("{\n  \"k\": 1,\n  \"k\": 2\n}").is_err());
    }

    #[test]
    fn tracked_bench_files_read_back() {
        for (file, schema, key) in [
            (
                "BENCH_shuffle.json",
                "gw-shuffle-bench-v1",
                "quick_merge8_speedup",
            ),
            (
                "BENCH_pipeline.json",
                "gw-pipeline-bench-v1",
                "quick_lanes2_over_lanes1",
            ),
            (
                "BENCH_service.json",
                "gw-service-bench-v1",
                "quick_p99_over_solo",
            ),
            (
                "BENCH_pipeline_analysis.json",
                "gw-perf-analysis-v1",
                "nodes",
            ),
        ] {
            let committed = Committed::read(&format!("{ROOT}/{file}"), schema);
            assert!(committed.get(key).is_some(), "{file} lacks {key}");
        }
        let shuffle = Committed::read(&format!("{ROOT}/BENCH_shuffle.json"), "gw-shuffle-bench-v1");
        assert_eq!(shuffle.num("partitions"), 16.0);
    }

    #[test]
    #[should_panic(expected = "BENCH_shuffle.json schema mismatch: Some(\"gw-shuffle-bench-v1\")")]
    fn a_schema_mismatch_names_the_file() {
        Committed::read(&format!("{ROOT}/BENCH_shuffle.json"), "gw-other-v1");
    }

    #[test]
    #[should_panic(expected = "BENCH_shuffle.json missing/invalid no_such_field")]
    fn a_missing_number_names_the_file_and_key() {
        Committed::read(&format!("{ROOT}/BENCH_shuffle.json"), "gw-shuffle-bench-v1")
            .num("no_such_field");
    }
}
