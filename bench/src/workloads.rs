//! The five benchmark workloads as plain data. Sizes were probed on a
//! 2-core box; `layers.rs` turns a [`Workload`] into engine objects.
//!
//! Each workload exists to load a different set of layers (the `why`);
//! an optimisation to one layer should move the workloads that load it
//! and leave the others unchanged.

/// Which paper application runs, with its input shape.
#[derive(Debug, Clone, Copy)]
pub enum App {
    /// WordCount with combiner over a Zipf text corpus.
    WordCount {
        lines: usize,
        words_per_line: usize,
        vocabulary: usize,
        zipf_s: f64,
    },
    /// TeraSort over TeraGen records; `samples` keys feed the range
    /// partitioner.
    TeraSort { records: usize, samples: usize },
    /// One K-Means iteration over uniform random points.
    KMeans {
        points: usize,
        dims: usize,
        centers: usize,
    },
}

impl App {
    /// The same application over an input of `n` records.
    pub fn with_records(self, n: usize) -> App {
        match self {
            App::WordCount {
                words_per_line,
                vocabulary,
                zipf_s,
                ..
            } => App::WordCount {
                lines: n,
                words_per_line,
                vocabulary,
                zipf_s,
            },
            App::TeraSort { samples, .. } => App::TeraSort {
                records: n,
                samples,
            },
            App::KMeans { dims, centers, .. } => App::KMeans {
                points: n,
                dims,
                centers,
            },
        }
    }
}

/// Storage read pacing: `None` is free I/O; `Some` sleeps every read
/// for its modelled time.
#[derive(Debug, Clone, Copy)]
pub struct PacedIo {
    pub per_call_overhead_us: u64,
    pub local_bandwidth: f64,
    pub remote_bandwidth: f64,
}

/// Cluster interconnect.
#[derive(Debug, Clone, Copy)]
pub enum Net {
    Unlimited,
    IpoibQdr,
}

/// One benchmark workload. Job settings not listed keep the engine's
/// `JobConfig::new` defaults.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub app: App,
    pub nodes: u32,
    pub block_size: usize,
    pub paced_io: Option<PacedIo>,
    pub net: Net,
    pub device_threads: usize,
    pub partitions_per_node: u32,
    pub hash_buckets: Option<usize>,
    pub memory_budget: Option<usize>,
    /// Records in the sample the floor probe runs over (`floor.rs`).
    pub floor_sample: usize,
    /// What that probe takes on the 2-core probe box when nothing else
    /// disturbs it. Sets the scale of speed-normalised seconds and
    /// nothing else: a wrong value multiplies every time of the workload
    /// by one constant.
    pub floor_nominal_ms: f64,
}

const TERASORT: App = App::TeraSort {
    records: 500_000,
    samples: 1000,
};

/// Per-node budget of `ts_spill`, also the budget of the replayed
/// out-of-core store ceiling.
pub const SPILL_BUDGET: usize = 2 << 20;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "wc_incore",
        why: "WordCount, 19 MB, free I/O, 1 node: map kernel, collector and partition/sort do the work; storage, net and spill idle",
        app: App::WordCount {
            lines: 150_000,
            words_per_line: 12,
            vocabulary: 30_000,
            zipf_s: 1.05,
        },
        nodes: 1,
        block_size: 256 << 10,
        paced_io: None,
        net: Net::Unlimited,
        device_threads: 2,
        partitions_per_node: 1,
        hash_buckets: Some(1 << 14),
        memory_budget: None,
        floor_sample: 1_500,
        floor_nominal_ms: 2.6,
    },
    Workload {
        name: "wc_paced_io",
        why: "WordCount, 13 MB read at a paced 25 MB/s: wall should approach input-stage time; only pipeline overlap can move it",
        app: App::WordCount {
            lines: 100_000,
            words_per_line: 12,
            vocabulary: 30_000,
            zipf_s: 1.05,
        },
        nodes: 1,
        block_size: 64 << 10,
        paced_io: Some(PacedIo {
            per_call_overhead_us: 100,
            local_bandwidth: 25e6,
            remote_bandwidth: 200e6,
        }),
        net: Net::Unlimited,
        device_threads: 1,
        partitions_per_node: 1,
        hash_buckets: None,
        memory_budget: None,
        floor_sample: 1_500,
        floor_nominal_ms: 2.6,
    },
    Workload {
        name: "ts_shuffle",
        why: "TeraSort, 50 MB, 2 nodes over IPoIB: every byte crosses partition, sort, fabric, merge and output; trivial kernel",
        app: TERASORT,
        nodes: 2,
        block_size: 256 << 10,
        paced_io: None,
        net: Net::IpoibQdr,
        device_threads: 1,
        partitions_per_node: 2,
        hash_buckets: None,
        memory_budget: None,
        floor_sample: 12_000,
        floor_nominal_ms: 1.05,
    },
    Workload {
        name: "ts_spill",
        why: "ts_shuffle under a 2 MiB per-node memory budget: flushes, compaction, frame codec, backpressure, external merge",
        app: TERASORT,
        nodes: 2,
        block_size: 256 << 10,
        paced_io: None,
        net: Net::IpoibQdr,
        device_threads: 1,
        partitions_per_node: 2,
        hash_buckets: None,
        memory_budget: Some(SPILL_BUDGET),
        floor_sample: 12_000,
        floor_nominal_ms: 1.05,
    },
    Workload {
        name: "km_compute",
        why: "K-Means, 256 centers x 8 dims, 400k points: device pool and app kernel dominate; bypasses partition, spill and net",
        app: App::KMeans {
            points: 400_000,
            dims: 8,
            centers: 256,
        },
        nodes: 1,
        block_size: 256 << 10,
        paced_io: None,
        net: Net::Unlimited,
        device_threads: 2,
        partitions_per_node: 1,
        hash_buckets: None,
        memory_budget: None,
        floor_sample: 1_500,
        floor_nominal_ms: 1.1,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
