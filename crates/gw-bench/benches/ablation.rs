//! Ablation studies of the design decisions DESIGN.md calls out.
//!
//! 1. **Buffering level** (paper §III-D): single/double/triple buffering
//!    over the measured per-chunk stage times of a real WC run, replayed
//!    through the schedule model, plus the simulator at paper scale.
//! 2. **Network fabric**: the DAS-4 cluster has both Gigabit Ethernet and
//!    QDR InfiniBand; TeraSort's shuffle is where the difference shows.
//! 3. **Intermediate compression** (paper §III-B stores partitions
//!    "in a serialized and compressed form"): spill bytes and job time
//!    with the codec on vs off, on the real engine.
//! 4. **Push vs pull shuffle**: Glasswing's push overlap vs a Hadoop-style
//!    post-map shuffle, isolated in the simulator by zeroing every other
//!    difference.

use std::sync::Arc;

use gw_apps::WordCount;
use gw_bench::{bench_cfg, corpus_cluster_paced, rule, secs, sim_secs};
use gw_core::schedule::{pipeline_makespan, ChunkTimes};
use gw_core::{Buffering, CollectorKind};
use gw_intermediate::StoreMetrics;
use gw_sim::sweep::{simulate, FrameworkKind};
use gw_sim::{AppParams, ClusterParams};

fn main() {
    // ---------------- 1. Buffering level ----------------
    println!("=== Ablation 1: pipeline buffering level (paper §III-D) ===\n");
    let cluster = corpus_cluster_paced(60_000, 40_000, 1, 256 << 10);
    let mut cfg = bench_cfg();
    cfg.collector = CollectorKind::HashTable;
    let report = cluster
        .run(Arc::new(WordCount::new()), &cfg)
        .expect("job failed");
    let chunks: Vec<ChunkTimes> = report.nodes[0]
        .map_samples
        .iter()
        .map(|s| [s[0].wall, s[1].wall, s[2].wall, s[3].wall, s[4].wall])
        .collect();
    println!("WC measured per-chunk times replayed through the schedule model:");
    rule(44);
    println!("{:<10} | {:>16}", "buffering", "map makespan (s)");
    rule(44);
    let mut makespans = Vec::new();
    for (label, b) in [
        ("single", Buffering::Single),
        ("double", Buffering::Double),
        ("triple", Buffering::Triple),
    ] {
        let m = pipeline_makespan(&chunks, b);
        println!("{label:<10} | {:>16}", secs(m));
        makespans.push(m);
    }
    rule(44);
    println!(
        "double recovers most of the win over single: {} (triple adds {:.1}%)\n",
        ok(makespans[1] < makespans[0]),
        (makespans[1].as_secs_f64() - makespans[2].as_secs_f64())
            / makespans[1].as_secs_f64().max(1e-9)
            * 100.0
    );

    // ---------------- 2. Network fabric ----------------
    println!("=== Ablation 2: GbE vs QDR IPoIB (TeraSort, 64 nodes, simulator) ===\n");
    // The interesting result: Glasswing's *push* shuffle overlaps the wire
    // time with the (disk-bound) map pipeline, so the slow fabric hides;
    // Hadoop's *pull* shuffle sits serially on the critical path and pays
    // the fabric difference in full.
    let ts = AppParams::ts();
    let mut gbe = ClusterParams::das4_cpu_hdfs();
    gbe.net_bw_mb = 117.0; // Gigabit Ethernet
    let ipoib = ClusterParams::das4_cpu_hdfs();
    rule(56);
    println!(
        "{:<10} | {:>14} | {:>14}",
        "fabric", "glasswing (s)", "hadoop (s)"
    );
    rule(56);
    let mut gw_totals = Vec::new();
    let mut hd_totals = Vec::new();
    for (label, c) in [("gbe", &gbe), ("ipoib-qdr", &ipoib)] {
        let gw = simulate(FrameworkKind::Glasswing, &ts, c, 64).total;
        let hd = simulate(FrameworkKind::Hadoop, &ts, c, 64).total;
        println!("{label:<10} | {:>14} | {:>14}", sim_secs(gw), sim_secs(hd));
        gw_totals.push(gw);
        hd_totals.push(hd);
    }
    rule(56);
    let gw_penalty = gw_totals[0] / gw_totals[1] - 1.0;
    let hd_penalty = hd_totals[0] / hd_totals[1] - 1.0;
    println!(
        "GbE penalty: glasswing {:.1}% (hidden by push overlap), hadoop {:.1}% \
         (serial pull)\nhadoop pays more for the slow fabric: {}\n",
        gw_penalty * 100.0,
        hd_penalty * 100.0,
        ok(hd_penalty > gw_penalty + 0.05)
    );

    // ---------------- 3. Intermediate compression ----------------
    println!("=== Ablation 3: intermediate-data compression (real engine) ===\n");
    rule(56);
    println!(
        "{:<12} | {:>14} | {:>14} | {:>9}",
        "codec", "raw spill (B)", "disk spill (B)", "ratio"
    );
    rule(56);
    let (mut ratios, mut stored_is_framing) = (Vec::new(), false);
    for (label, compress) in [("lz-on", true), ("lz-off", false)] {
        let cluster = corpus_cluster_paced(60_000, 40_000, 1, 256 << 10);
        let mut cfg = bench_cfg();
        cfg.collector = CollectorKind::BufferPool;
        cfg.compress_intermediate = compress;
        cfg.memory_budget = Some(2 << 20); // force spills
        let report = cluster
            .run(Arc::new(WordCount::without_combiner()), &cfg)
            .expect("job failed");
        let sum = |f: fn(&StoreMetrics) -> usize| -> usize {
            report.nodes.iter().map(|n| f(&n.intermediate)).sum()
        };
        let (raw, disk) = (sum(|m| m.spilled_raw), sum(|m| m.spilled_disk));
        // A stored spill is its records plus the framing `frame.rs`
        // documents: a 20 B index entry per frame, a 32 B trailer per file.
        let framing = 20 * sum(|m| m.frames_written) + 32 * sum(|m| m.flushes + m.compactions);
        stored_is_framing = !compress && disk == raw + framing;
        let ratio = disk as f64 / raw.max(1) as f64;
        println!("{label:<12} | {raw:>14} | {disk:>14} | {ratio:>9.3}");
        ratios.push(ratio);
    }
    rule(56);
    println!(
        "codec shrinks sorted intermediate runs: {}\n",
        ok(ratios[0] < 0.8 && stored_is_framing)
    );

    // ---------------- 4. Push vs pull shuffle ----------------
    println!("=== Ablation 4: push vs pull shuffle (simulator, WC) ===\n");
    // Pull-only Hadoop variant with every other handicap removed: native
    // kernel speed, no JVM/task/job overheads — isolating the shuffle
    // placement and the missing pipeline overlap.
    let wc = AppParams::wc();
    let base = ClusterParams::das4_cpu_hdfs();
    let mut pull_only = base.clone();
    pull_only.hadoop_jvm_factor = 1.0;
    pull_only.hadoop_task_startup = 0.0;
    pull_only.hadoop_job_fixed = 0.0;
    pull_only.hadoop_shuffle_seek = 0.0;
    rule(56);
    println!(
        "{:<22} | {:>10} | {:>10}",
        "configuration", "16 nodes", "64 nodes"
    );
    rule(56);
    let gw16 = simulate(FrameworkKind::Glasswing, &wc, &base, 16).total;
    let gw64 = simulate(FrameworkKind::Glasswing, &wc, &base, 64).total;
    println!(
        "{:<22} | {:>10} | {:>10}",
        "glasswing (push)",
        sim_secs(gw16),
        sim_secs(gw64)
    );
    let p16 = simulate(FrameworkKind::Hadoop, &wc, &pull_only, 16).total;
    let p64 = simulate(FrameworkKind::Hadoop, &wc, &pull_only, 64).total;
    println!(
        "{:<22} | {:>10} | {:>10}",
        "pull, no-overlap only",
        sim_secs(p16),
        sim_secs(p64)
    );
    let h16 = simulate(FrameworkKind::Hadoop, &wc, &base, 16).total;
    let h64 = simulate(FrameworkKind::Hadoop, &wc, &base, 64).total;
    println!(
        "{:<22} | {:>10} | {:>10}",
        "full hadoop model",
        sim_secs(h16),
        sim_secs(h64)
    );
    rule(56);
    println!(
        "pull + lost overlap alone costs {:.0}% at 64 nodes; JVM/task/job\noverheads make up the rest of the {:.2}x gap",
        (p64 / gw64 - 1.0) * 100.0,
        h64 / gw64
    );
}

fn ok(b: bool) -> &'static str {
    if b {
        "ok"
    } else {
        "MISMATCH"
    }
}
