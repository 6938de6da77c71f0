//! Output bytes do not depend on how many threads the device pool has.
//!
//! A work-group's emits go to storage no other work-group touches
//! (`gw_core::collect`): the hash-table collector folds its per-group
//! tables in group order, the buffer pool drains its per-group shards in
//! shard order. What a chunk's collector holds, and in which order, is
//! then a function of the chunk and the NDRange — not of which thread ran
//! which group when — so the job's output files are the same bytes at
//! every `device_threads`, including K-Means, whose combiner adds `f32`s
//! and so records the order it was applied in.

use std::sync::Arc;

use glasswing::apps::workloads::{self, CorpusSpec, KmeansSpec, Records};
use glasswing::apps::{KMeans, TeraSort, WordCount};
use glasswing::prelude::*;

const NODES: u32 = 2;
const PARTITIONS_PER_NODE: u32 = 2;

/// Run `app` over `input` on a fresh cluster and return every output file
/// as `(path, raw bytes)`.
fn output_files(
    input: &Records,
    block: usize,
    app: Arc<dyn GwApp>,
    collector: CollectorKind,
    device_threads: usize,
) -> Vec<(String, Vec<u8>)> {
    let dfs = Arc::new(Dfs::new(DfsConfig::new(NODES).free_io()));
    dfs.write_records(
        "/in",
        NodeId(0),
        block,
        2,
        input.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
    )
    .unwrap();
    let cluster = Cluster::new(dfs, NetProfile::unlimited());
    // The default NDRange: 64 work items in 4 work-groups per chunk.
    let mut cfg = JobConfig::new("/in", "/out");
    cfg.collector = collector;
    cfg.device_threads = device_threads;
    cfg.partitions_per_node = PARTITIONS_PER_NODE;
    cfg.output_replication = 1;
    let report = cluster.run(app, &cfg).unwrap();
    let store = cluster.store();
    report
        .output_files()
        .into_iter()
        .map(|path| {
            let mut bytes = Vec::new();
            for split in store.splits(&path).unwrap() {
                bytes.extend_from_slice(&store.read_split(&split, NodeId(0)).unwrap().0);
            }
            (path, bytes)
        })
        .collect()
}

#[test]
fn output_files_are_byte_identical_at_1_2_and_4_device_threads() {
    let corpus = workloads::text_corpus(&CorpusSpec {
        lines: 1500,
        vocabulary: 600,
        seed: 5,
        ..Default::default()
    });
    let kmeans = KmeansSpec {
        points: 4000,
        dims: 4,
        centers: 12,
        seed: 31,
    };
    let points = workloads::kmeans_points(&kmeans);
    let centers = workloads::kmeans_centers(&kmeans);
    let tera = workloads::teragen(3000, 77);
    let samples = workloads::sample_keys(&tera, 200, 3);

    type MakeApp<'a> = Box<dyn Fn() -> Arc<dyn GwApp> + 'a>;
    let jobs: [(&str, &Records, usize, MakeApp); 3] = [
        (
            "wordcount",
            &corpus,
            8 << 10,
            Box::new(|| Arc::new(WordCount::new())),
        ),
        (
            "kmeans",
            &points,
            8 << 10,
            Box::new(|| Arc::new(KMeans::new(centers.clone(), kmeans.centers, kmeans.dims))),
        ),
        (
            "terasort",
            &tera,
            16 << 10,
            Box::new(|| Arc::new(TeraSort::new(samples.clone(), NODES * PARTITIONS_PER_NODE))),
        ),
    ];
    for (name, input, block, app) in &jobs {
        for collector in [CollectorKind::HashTable, CollectorKind::BufferPool] {
            let one = output_files(input, *block, app(), collector, 1);
            assert!(
                one.iter().any(|(_, bytes)| !bytes.is_empty()),
                "{name} {collector:?}: no output"
            );
            for device_threads in [2, 4] {
                let many = output_files(input, *block, app(), collector, device_threads);
                assert!(
                    many == one,
                    "{name} {collector:?}: output at device_threads = {device_threads} \
                     differs from device_threads = 1"
                );
            }
        }
    }
}
