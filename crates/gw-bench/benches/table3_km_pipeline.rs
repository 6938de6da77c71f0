//! Table III — KM map-pipeline time breakdown on (a) the CPU and (b) the
//! GPU, for the same three collection configurations as Table II.
//!
//! The CPU columns are measured wall times on this host. The GPU columns
//! execute the same kernels (so output stays correct) and report *modeled*
//! device times: per-chunk measured durations are transformed through the
//! GTX 480 profile (kernel scale, PCIe staging, driver coupling) and the
//! map elapsed time is the schedule-model makespan of those modeled
//! chunks — the §III-D interlock semantics applied to the modeled stage
//! durations.
//!
//! Shape targets: KM is dominated by the kernel stage; on the GPU the
//! kernel and elapsed times drop well below the CPU's; partitioning time
//! drops on the GPU ("no contention on CPU resources by the kernel
//! threads"); with simple output collection the elapsed time improves on
//! the CPU (small intermediate volume) but not on the GPU.

use std::sync::Arc;
use std::time::Duration;

use gw_apps::KMeans;
use gw_bench::{bench_cfg, kmeans_cluster, rule, secs};
use gw_core::schedule::{pipeline_makespan, ChunkTimes};
use gw_core::{CollectorKind, GwApp, StageId, TimingMode};
use gw_device::DeviceProfile;

struct Config {
    label: &'static str,
    collector: CollectorKind,
    combiner: bool,
}

fn run_device(device: DeviceProfile, modeled: bool, configs: &[Config]) {
    let mut table: Vec<Vec<String>> = Vec::new();
    let rows = [
        "Input",
        "Stage",
        "Kernel",
        "Retrieve",
        "Partitioning",
        "Map elapsed",
        "Merge delay",
        "Reduce time",
    ];
    for cfg_desc in configs {
        let (cluster, centers) = kmeans_cluster(120_000, 8, 96, 1, 512 << 10);
        let mut cfg = bench_cfg();
        cfg.device = device.clone();
        cfg.collector = cfg_desc.collector;
        // Budget scaled with the dataset (as in fig4 and Table II).
        cfg.memory_budget = Some(8 << 20);
        cfg.timing = if modeled {
            TimingMode::Modeled
        } else {
            TimingMode::Wall
        };
        let app = KMeans::new(centers, 96, 8);
        let app: Arc<dyn GwApp> = if cfg_desc.combiner {
            Arc::new(app)
        } else {
            Arc::new(app.without_combiner())
        };
        let report = cluster.run(app, &cfg).expect("job failed");
        let n = &report.nodes[0];
        let pick = |s: StageId| -> Duration {
            if modeled {
                n.map_timers.modeled(s)
            } else {
                n.map_timers.wall(s)
            }
        };
        // Elapsed: measured on CPU; schedule-replayed modeled chunks on
        // the simulated device.
        let elapsed = if modeled {
            let chunks: Vec<ChunkTimes> = n
                .map_samples
                .iter()
                .map(|s| {
                    [
                        s[0].modeled,
                        s[1].modeled,
                        s[2].modeled,
                        s[3].modeled,
                        s[4].modeled,
                    ]
                })
                .collect();
            pipeline_makespan(&chunks, cfg.buffering)
        } else {
            n.map.elapsed
        };
        table.push(vec![
            secs(pick(StageId::Input)),
            secs(pick(StageId::Stage)),
            secs(pick(StageId::Kernel)),
            secs(pick(StageId::Retrieve)),
            secs(pick(StageId::Partition)),
            secs(elapsed),
            secs(n.merge_delay),
            secs(n.reduce.elapsed),
        ]);
    }

    print!("{:<14} |", "");
    for c in configs {
        print!(" {:>13} |", c.label);
    }
    println!();
    rule(64);
    for (r, name) in rows.iter().enumerate() {
        print!("{name:<14} |");
        for col in &table {
            print!(" {:>13} |", col[r]);
        }
        println!();
    }
    rule(64);
}

fn main() {
    let configs = [
        Config {
            label: "hash+combiner",
            collector: CollectorKind::HashTable,
            combiner: true,
        },
        Config {
            label: "hash table",
            collector: CollectorKind::HashTable,
            combiner: false,
        },
        Config {
            label: "simple",
            collector: CollectorKind::BufferPool,
            combiner: false,
        },
    ];

    println!("=== Table III(a): KM map pipeline on the CPU (measured, seconds) ===\n");
    run_device(DeviceProfile::host(), false, &configs);

    println!("\n=== Table III(b): KM map pipeline on the GTX 480 (modeled, seconds) ===");
    println!("(kernels executed for real; times transformed by the device profile,");
    println!(" elapsed = schedule-model makespan of the modeled per-chunk times)\n");
    run_device(DeviceProfile::gtx480(), true, &configs);

    println!("\npaper shape targets: kernel dominates on the CPU; GPU kernel and");
    println!("elapsed times beat the CPU's; Stage/Retrieve visible only on the GPU;");
    println!("hash+combiner is the best GPU configuration.");
}
