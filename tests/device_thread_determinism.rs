//! Output bytes do not depend on how many threads the device pool has,
//! how many partition lanes there are, or how deep the buffering is.
//!
//! A work-group's emits go to storage no other work-group touches
//! (`gw_core::collect`), each record filed under its partition and a
//! partition lane as it is emitted. A lane sorts its own slots of every
//! group's storage, and with a combiner it combines a key the groups
//! share in group order. What each `(partition, lane)` run holds is then
//! a function of the chunk, the NDRange and the lane count — not of which
//! thread ran which group when — and the reduce merge sees every chunk's
//! records whatever lane built their run, so the job's output files are
//! the same bytes at every `device_threads`, `partition_threads` and
//! buffering level, including K-Means, whose combiner adds `f32`s and so
//! records the order it was applied in. The same argument covers an
//! application's `map_records`: K-Means' four-points-a-pass kernel emits
//! what `map` record by record emits, in the same order.

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
    // The default NDRange: 64 work items in 4 work-groups per chunk.
    let map_work_items = JobConfig::new("/in", "/out").map_work_items;
    output_files_at(input, block, app, collector, device_threads, map_work_items)
}

/// [`output_files`] with `map_work_items` work items per chunk.
fn output_files_at(
    input: &Records,
    block: usize,
    app: Arc<dyn GwApp>,
    collector: CollectorKind,
    device_threads: usize,
    map_work_items: usize,
) -> Vec<(String, Vec<u8>)> {
    output_files_with(input, block, app, |cfg| {
        cfg.map_work_items = map_work_items;
        cfg.collector = collector;
        cfg.device_threads = device_threads;
    })
}

/// Run `app` over `input` on a fresh cluster, under `JobConfig::new`
/// defaults changed by `tweak`, and return every output file.
fn output_files_with(
    input: &Records,
    block: usize,
    app: Arc<dyn GwApp>,
    tweak: impl FnOnce(&mut JobConfig),
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
    let mut cfg = JobConfig::new("/in", "/out");
    cfg.partitions_per_node = PARTITIONS_PER_NODE;
    cfg.output_replication = 1;
    tweak(&mut cfg);
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

/// K-Means with the trait's `map_records`: every `GwApp` method forwarded
/// except that one, so the kernel maps its work items record by record.
struct PerRecord(KMeans);

impl GwApp for PerRecord {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn map(&self, key: &[u8], value: &[u8], emit: &Emit<'_>) {
        self.0.map(key, value, emit)
    }
    fn combiner(&self) -> Option<Arc<dyn Combiner>> {
        self.0.combiner()
    }
    fn has_reduce(&self) -> bool {
        self.0.has_reduce()
    }
    fn reduce(&self, key: &[u8], values: &[&[u8]], state: &mut Vec<u8>, last: bool, e: &Emit<'_>) {
        self.0.reduce(key, values, state, last, e)
    }
    fn partition(&self, key: &[u8], num_partitions: u32) -> u32 {
        self.0.partition(key, num_partitions)
    }
    fn merge_states(&self, acc: &mut Vec<u8>, other: &[u8]) -> bool {
        self.0.merge_states(acc, other)
    }
}

#[test]
fn kmeans_map_records_writes_the_bytes_of_the_per_record_default() {
    // 13 centers: a full block and one with three padded lanes. A 1 KiB
    // chunk holds just under 40 points, so a work item gets all of them, five
    // or six (one four-point pass and a tail), or one (no full pass).
    let spec = KmeansSpec {
        points: 1500,
        dims: 5,
        centers: 13,
        seed: 47,
    };
    let points = workloads::kmeans_points(&spec);
    let kmeans = || KMeans::new(workloads::kmeans_centers(&spec), spec.centers, spec.dims);
    for map_work_items in [1, 7, 64] {
        for collector in [CollectorKind::HashTable, CollectorKind::BufferPool] {
            let run = |app: Arc<dyn GwApp>, device_threads| {
                output_files_at(
                    &points,
                    8 << 10,
                    app,
                    collector,
                    device_threads,
                    map_work_items,
                )
            };
            let reference = run(Arc::new(PerRecord(kmeans())), 1);
            assert!(reference.iter().any(|(_, bytes)| !bytes.is_empty()));
            for device_threads in [1, 2, 4] {
                let what = format!(
                    "{collector:?}, map_work_items = {map_work_items}, \
                     device_threads = {device_threads}"
                );
                assert!(
                    run(Arc::new(kmeans()), device_threads) == reference,
                    "map_records differs from per-record map at device_threads = 1: {what}"
                );
                assert!(
                    run(Arc::new(PerRecord(kmeans())), device_threads) == reference,
                    "per-record map differs from itself at device_threads = 1: {what}"
                );
            }
        }
    }
}

/// Every job at every `device_threads` {1, 2, 4} × `partition_threads`
/// {1, 2, 3} × buffering {single, double} writes the bytes it writes at
/// (1, 1, single): WordCount with and without a combiner on both
/// collectors, 2-node TeraSort at 2 partitions per node (its range
/// partitioner runs in the kernel) on both, and K-Means.
#[test]
fn output_files_are_byte_identical_across_device_threads_partition_lanes_and_buffering() {
    let corpus = workloads::text_corpus(&CorpusSpec {
        lines: 600,
        vocabulary: 300,
        seed: 9,
        ..Default::default()
    });
    let kmeans = KmeansSpec {
        points: 1500,
        dims: 4,
        centers: 12,
        seed: 13,
    };
    let points = workloads::kmeans_points(&kmeans);
    let centers = workloads::kmeans_centers(&kmeans);
    let tera = workloads::teragen(1500, 21);
    let samples = workloads::sample_keys(&tera, 100, 5);

    type MakeApp<'a> = Box<dyn Fn() -> Arc<dyn GwApp> + 'a>;
    use CollectorKind::{BufferPool, HashTable};
    let jobs: [(&str, &Records, usize, CollectorKind, MakeApp); 7] = [
        (
            "wordcount",
            &corpus,
            4 << 10,
            HashTable,
            Box::new(|| Arc::new(WordCount::new())),
        ),
        (
            "wordcount",
            &corpus,
            4 << 10,
            BufferPool,
            Box::new(|| Arc::new(WordCount::new())),
        ),
        (
            "wordcount without combiner",
            &corpus,
            4 << 10,
            HashTable,
            Box::new(|| Arc::new(WordCount::without_combiner())),
        ),
        (
            "wordcount without combiner",
            &corpus,
            4 << 10,
            BufferPool,
            Box::new(|| Arc::new(WordCount::without_combiner())),
        ),
        (
            "terasort",
            &tera,
            16 << 10,
            HashTable,
            Box::new(|| Arc::new(TeraSort::new(samples.clone(), NODES * PARTITIONS_PER_NODE))),
        ),
        (
            "terasort",
            &tera,
            16 << 10,
            BufferPool,
            Box::new(|| Arc::new(TeraSort::new(samples.clone(), NODES * PARTITIONS_PER_NODE))),
        ),
        (
            "kmeans",
            &points,
            4 << 10,
            HashTable,
            Box::new(|| Arc::new(KMeans::new(centers.clone(), kmeans.centers, kmeans.dims))),
        ),
    ];
    for (name, input, block, collector, app) in &jobs {
        let run = |device_threads, partition_threads, buffering| {
            output_files_with(input, *block, app(), |cfg| {
                cfg.collector = *collector;
                cfg.device_threads = device_threads;
                cfg.partition_threads = partition_threads;
                cfg.buffering = buffering;
            })
        };
        let reference = run(1, 1, Buffering::Single);
        assert!(
            reference.iter().any(|(_, bytes)| !bytes.is_empty()),
            "{name} {collector:?}: no output"
        );
        for device_threads in [1, 2, 4] {
            for partition_threads in [1, 2, 3] {
                for buffering in [Buffering::Single, Buffering::Double] {
                    assert!(
                        run(device_threads, partition_threads, buffering) == reference,
                        "{name} {collector:?}: output at device_threads = {device_threads}, \
                         partition_threads = {partition_threads}, {buffering:?} differs from \
                         (1, 1, Single)"
                    );
                }
            }
        }
    }
}
