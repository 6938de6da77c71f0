//! Tracked shuffle benchmark: the zero-copy arena intermediate path
//! against its pre-arena baselines, written to `BENCH_shuffle.json` at
//! the repo root so the speedups are versioned alongside the code.
//!
//! Measured metrics (new vs baseline, best-of-N wall time):
//!
//! * `run_sort`    — arena `RunBuilder` (MSB radix on the offset index)
//!   vs owned-pair `sort_unstable` + serialize.
//! * `merge8`      — 8-way loser-tree merge vs the `BinaryHeap` merge.
//! * `tier0_sort`  — the store's tier-0 pre-merge kernel: 16 sorted runs
//!   of TeraSort records (10-byte keys, 90-byte values), one partition's
//!   fresh chunk runs, sorted into one (`sort_runs`) vs a 16-way
//!   `merge_runs`.
//! * `partition`   — the end-to-end WordCount partition stage (lane
//!   builders + per-partition lane merge, recycled arenas) vs the same
//!   stage on the owned-pair path. This is the headline number.
//! * `compress` / `decompress` — codec throughput over run bytes
//!   (informational; the partition stage itself does not compress).
//! * `external`    — the out-of-core path: a budgeted `IntermediateStore`
//!   fed a dataset ≥ 4× its memory budget (spill + compaction + streamed
//!   cursor merge) vs the same runs merged fully in-core. Also records
//!   peak resident bytes over budget; `--check` enforces the ≤ 1.5×
//!   contract as a hard, machine-independent gate.
//!
//! Every comparison also asserts the two paths produce byte-identical
//! runs — the determinism contract the fault-tolerant shuffle's
//! de-duplication depends on.
//!
//! Usage: `cargo bench -p gw-bench --bench shuffle -- [--quick] [--check]`
//!
//! * `--quick` shrinks the workload (CI smoke). A full run additionally
//!   measures the quick workload and records its speedups as `quick_*`
//!   fields, so a quick check compares like against like (speedups vary
//!   with workload size, not just machine).
//! * `--check` does not rewrite the tracked file; instead it validates
//!   the committed `BENCH_shuffle.json` (parseable, required fields) and
//!   fails if any measured speedup fell below 0.75x the committed one
//!   for the same mode (ratios are machine-portable where absolute
//!   throughput is not).

use std::sync::Arc;
use std::time::Instant;

use gw_bench::baseline::{heap_merge, naive_run_from_pairs};
use gw_bench::{bench_json, print_fields, Committed};
use gw_core::hash::default_partition;
use gw_core::json::Value as Val;
use gw_intermediate::{
    compress, merge_runs, sort_runs, CursorMerge, IntermediateConfig, IntermediateStore, Run,
    RunBuilder, RunPool, SortBuf,
};

/// Words drawn from a Zipf-ish rank distribution — the WordCount map
/// output profile (a few hot words, a long cold tail).
fn word_stream(n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            let r = next();
            // ~1/3 of draws hit the 16 hottest words; the rest spread
            // over a 16k vocabulary.
            let rank = if r % 3 == 0 { r % 16 } else { r % 16_384 };
            let key = format!("word{rank:05}").into_bytes();
            (key, 1u32.to_le_bytes().to_vec())
        })
        .collect()
}

/// `runs` sorted runs of `per_run` TeraSort-shaped records: random
/// 10-byte keys, 90-byte values.
fn terasort_runs(runs: usize, per_run: usize) -> Vec<Run> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..runs)
        .map(|_| {
            let mut b = RunBuilder::new();
            for _ in 0..per_run {
                let (hi, lo) = (next(), next());
                let key = [&hi.to_be_bytes()[..], &lo.to_be_bytes()[..2]].concat();
                let mut value = [0u8; 90];
                value[..8].copy_from_slice(&lo.to_le_bytes());
                b.push(&key, &value);
            }
            b.build()
        })
        .collect()
}

/// Best-of-`iters` wall time of `f`, in seconds.
fn best_secs<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Best-of-`iters` wall times of a new/baseline pair, interleaved so
/// both paths sample the same machine conditions (frequency scaling and
/// neighbor noise would otherwise skew whichever phase it landed on).
fn best_secs_pair<A, B>(
    iters: usize,
    mut new: impl FnMut() -> A,
    mut base: impl FnMut() -> B,
) -> (f64, f64) {
    let (mut best_new, mut best_base) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..iters {
        let t = Instant::now();
        std::hint::black_box(new());
        best_new = best_new.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(base());
        best_base = best_base.min(t.elapsed().as_secs_f64());
    }
    (best_new, best_base)
}

fn assert_same_bytes(what: &str, a: &Run, b: &Run) {
    assert_eq!(
        &*a.clone().into_shared(),
        &*b.clone().into_shared(),
        "{what}: arena path diverged from baseline bytes"
    );
}

struct Sizes {
    iters: usize,
    sort_records: usize,
    merge_records_per_run: usize,
    /// Records in each of the tier-0 kernel's 16 runs.
    tier0_records_per_run: usize,
    partition_records: usize,
    /// Records pushed through the out-of-core external merge.
    external_records: usize,
    /// Memory budget for the external merge; the dataset is sized ≥ 4×
    /// this, so the run cannot complete in-core.
    external_budget: usize,
}

// Quick sizes are chosen to keep the smoke run under ~10 s while staying
// large enough that best-of-N timings are stable (tiny merges measured in
// microseconds made the speedup ratio swing run to run).
const QUICK: Sizes = Sizes {
    iters: 5,
    sort_records: 16_000,
    merge_records_per_run: 8_000,
    tier0_records_per_run: 640,
    partition_records: 120_000,
    external_records: 120_000,
    external_budget: 256 << 10,
};

const FULL: Sizes = Sizes {
    iters: 5,
    sort_records: 64_000,
    merge_records_per_run: 16_000,
    tier0_records_per_run: 640,
    partition_records: 600_000,
    external_records: 600_000,
    external_budget: 1 << 20,
};

const PARTS: u32 = 16;
const LANES: usize = 4;

/// Tier-0 batches sorted or merged per timed sample: one batch takes
/// well under a millisecond, too short for a best-of-N timing alone.
const TIER0_REPS: usize = 32;

/// The arena partition stage: per-lane recycled builders, then a
/// per-partition loser-tree merge across lanes (the shape of `gw-core`'s
/// Partition stage before each partitioning worker shipped its own run).
fn partition_arena(recs: &[(Vec<u8>, Vec<u8>)], pool: &Arc<RunPool>) -> Vec<Run> {
    let lane_len = recs.len().div_ceil(LANES);
    let lane_runs: Vec<Vec<Run>> = recs
        .chunks(lane_len)
        .map(|lane| {
            let mut builders: Vec<_> = (0..PARTS).map(|_| pool.builder()).collect();
            for (k, v) in lane {
                builders[default_partition(k, PARTS) as usize].push(k, v);
            }
            builders.into_iter().map(|b| b.build()).collect()
        })
        .collect();
    (0..PARTS as usize)
        .map(|p| merge_runs(lane_runs.iter().map(|lane| &lane[p])))
        .collect()
}

/// The pre-arena partition stage: per-lane owned-pair runs, then the
/// old gather-and-resort lane merge.
fn partition_naive(recs: &[(Vec<u8>, Vec<u8>)]) -> Vec<Run> {
    let lane_len = recs.len().div_ceil(LANES);
    let lane_runs: Vec<Vec<Run>> = recs
        .chunks(lane_len)
        .map(|lane| {
            let mut buckets: Vec<Vec<(Vec<u8>, Vec<u8>)>> =
                (0..PARTS).map(|_| Vec::new()).collect();
            for (k, v) in lane {
                buckets[default_partition(k, PARTS) as usize].push((k.clone(), v.clone()));
            }
            buckets.into_iter().map(naive_run_from_pairs).collect()
        })
        .collect();
    (0..PARTS as usize)
        .map(|p| {
            let pairs: Vec<(Vec<u8>, Vec<u8>)> = lane_runs
                .iter()
                .flat_map(|lane| lane[p].iter())
                .map(|(k, v)| (k.to_vec(), v.to_vec()))
                .collect();
            naive_run_from_pairs(pairs)
        })
        .collect()
}

struct Metrics {
    input_mb: f64,
    run_sort_new: f64,
    run_sort_naive: f64,
    merge8_new: f64,
    merge8_heap: f64,
    tier0_sort: f64,
    tier0_merge: f64,
    compress_mbps: f64,
    decompress_mbps: f64,
    partition_new: f64,
    partition_naive: f64,
    external_budget_mb: f64,
    external_dataset_mb: f64,
    external_merge_mbps: f64,
    external_incore_mbps: f64,
    external_peak_resident_mb: f64,
    external_peak_over_budget: f64,
}

impl Metrics {
    fn run_sort_speedup(&self) -> f64 {
        self.run_sort_new / self.run_sort_naive
    }
    fn merge8_speedup(&self) -> f64 {
        self.merge8_new / self.merge8_heap
    }
    fn tier0_sort_speedup(&self) -> f64 {
        self.tier0_sort / self.tier0_merge
    }
    fn partition_speedup(&self) -> f64 {
        self.partition_new / self.partition_naive
    }
    /// How much of in-core merge throughput the out-of-core path retains
    /// (spill writes + framed decode are the price of bounded memory).
    fn external_vs_incore(&self) -> f64 {
        self.external_merge_mbps / self.external_incore_mbps
    }
}

fn measure(sizes: &Sizes) -> Metrics {
    // --- run_sort: arena radix builder vs owned-pair sort ---
    let sort_input = word_stream(sizes.sort_records);
    let pool = Arc::new(RunPool::new());
    let (arena_sort, naive_sort) = best_secs_pair(
        sizes.iters,
        || {
            let mut b = pool.builder();
            for (k, v) in &sort_input {
                b.push(k, v);
            }
            b.build()
        },
        || naive_run_from_pairs(sort_input.clone()),
    );
    {
        let mut b = RunBuilder::new();
        for (k, v) in &sort_input {
            b.push(k, v);
        }
        assert_same_bytes(
            "run_sort",
            &b.build(),
            &naive_run_from_pairs(sort_input.clone()),
        );
    }
    let mrecs = |records: usize, secs: f64| records as f64 / secs / 1e6;

    // --- merge8: loser tree vs BinaryHeap ---
    let merge_input: Vec<Run> = (0..8)
        .map(|lane| {
            let recs = word_stream(sizes.merge_records_per_run + lane * 37);
            naive_run_from_pairs(recs)
        })
        .collect();
    let merged_records: usize = merge_input.iter().map(|r| r.records()).sum();
    let (tree_merge, heap_merge_s) = best_secs_pair(
        sizes.iters,
        || merge_runs(&merge_input),
        || heap_merge(&merge_input),
    );
    assert_same_bytes(
        "merge8",
        &merge_runs(&merge_input),
        &heap_merge(&merge_input),
    );

    // --- tier0_sort: the store's tier-0 sort vs a 16-way merge ---
    let tier0_input = terasort_runs(16, sizes.tier0_records_per_run);
    let tier0_records = TIER0_REPS * 16 * sizes.tier0_records_per_run;
    let mut sort_buf = SortBuf::default();
    let (tier0_sort, tier0_merge) = best_secs_pair(
        sizes.iters,
        || {
            (0..TIER0_REPS)
                .map(|_| sort_runs(&tier0_input, &mut sort_buf).records())
                .sum::<usize>()
        },
        || {
            (0..TIER0_REPS)
                .map(|_| merge_runs(&tier0_input).records())
                .sum::<usize>()
        },
    );
    assert_same_bytes(
        "tier0_sort",
        &sort_runs(&tier0_input, &mut sort_buf),
        &merge_runs(&tier0_input),
    );

    // --- compress / decompress over run bytes ---
    let codec_run = merge_runs(&merge_input).into_shared();
    let packed = compress::compress(&codec_run);
    let comp = best_secs(sizes.iters, || compress::compress(&codec_run));
    let decomp = best_secs(sizes.iters, || compress::decompress(&packed).unwrap());
    let mbps = |bytes: usize, secs: f64| bytes as f64 / secs / 1e6;

    // --- partition: end-to-end WC partition stage ---
    let part_input = word_stream(sizes.partition_records);
    let input_bytes: usize = part_input.iter().map(|(k, v)| k.len() + v.len()).sum();
    let part_pool = Arc::new(RunPool::new());
    // Warm the recycling pool so the measurement sees steady state.
    std::hint::black_box(partition_arena(&part_input, &part_pool));
    let (arena_part, naive_part) = best_secs_pair(
        sizes.iters,
        || partition_arena(&part_input, &part_pool),
        || partition_naive(&part_input),
    );
    let arena_out = partition_arena(&part_input, &part_pool);
    let naive_out = partition_naive(&part_input);
    for (p, (a, n)) in arena_out.iter().zip(&naive_out).enumerate() {
        assert_same_bytes(&format!("partition p{p}"), a, n);
    }

    // --- external merge: budgeted out-of-core path vs in-core merge ---
    // The dataset is ≥ 4× the memory budget, so the budgeted store must
    // spill, compact, and stream the final merge from framed spill files;
    // the in-core comparison is a plain loser-tree merge over the same
    // runs held in memory.
    let ext_input = word_stream(sizes.external_records);
    let ext_bytes: usize = ext_input.iter().map(|(k, v)| k.len() + v.len()).sum();
    assert!(
        ext_bytes >= 4 * sizes.external_budget,
        "external dataset ({ext_bytes}B) must be ≥ 4× the budget ({}B)",
        sizes.external_budget
    );
    let ext_runs: Vec<Run> = ext_input
        .chunks(4_000)
        .map(|chunk| {
            let mut b = RunBuilder::new();
            for (k, v) in chunk {
                b.push(k, v);
            }
            b.build()
        })
        .collect();
    let ext_cfg = || {
        IntermediateConfig {
            num_partitions: 1,
            merger_threads: 2,
            compress: true,
            ..Default::default()
        }
        .with_memory_budget(sizes.external_budget)
    };
    // store construction, spills, compactions and the cursor drain are
    // all part of the out-of-core price — time the whole path.
    let run_external = || {
        let store = IntermediateStore::new(ext_cfg()).expect("intermediate store");
        for r in &ext_runs {
            store.add_run(0, r.clone());
        }
        store.finish_map().expect("finish_map");
        let mut merge = CursorMerge::new(store.partition_cursors(0).expect("partition_cursors"));
        let mut drained = 0usize;
        while let Some(rec) = merge.peek_rec() {
            drained += rec.len();
            merge.advance().expect("cursor advance");
        }
        (drained, store.metrics())
    };
    let run_incore = || {
        let merged = merge_runs(&ext_runs);
        merged.records()
    };
    let (ext_secs, incore_secs) = best_secs_pair(sizes.iters, run_external, run_incore);
    // Untimed verification pass: byte identity against the in-core merge,
    // plus the budget/spill contract on the store's own accounting.
    let incore_ref = merge_runs(&ext_runs).into_shared();
    let verify = IntermediateStore::new(ext_cfg()).expect("intermediate store");
    for r in &ext_runs {
        verify.add_run(0, r.clone());
    }
    verify.finish_map().expect("finish_map");
    let mut merge = CursorMerge::new(verify.partition_cursors(0).expect("partition_cursors"));
    let mut drained = Vec::with_capacity(incore_ref.len());
    while let Some(rec) = merge.peek_rec() {
        drained.extend_from_slice(rec);
        merge.advance().expect("cursor advance");
    }
    assert_eq!(
        &drained[..],
        &*incore_ref,
        "external merge: out-of-core bytes diverged from the in-core merge"
    );
    let ext_metrics = verify.metrics();
    assert!(
        ext_metrics.spilled_disk > 0 && ext_metrics.frames_read > 0,
        "external merge never left core — dataset or budget mis-sized"
    );

    Metrics {
        input_mb: input_bytes as f64 / 1e6,
        run_sort_new: mrecs(sizes.sort_records, arena_sort),
        run_sort_naive: mrecs(sizes.sort_records, naive_sort),
        merge8_new: mrecs(merged_records, tree_merge),
        merge8_heap: mrecs(merged_records, heap_merge_s),
        tier0_sort: mrecs(tier0_records, tier0_sort),
        tier0_merge: mrecs(tier0_records, tier0_merge),
        compress_mbps: mbps(codec_run.len(), comp),
        decompress_mbps: mbps(codec_run.len(), decomp),
        partition_new: mbps(input_bytes, arena_part),
        partition_naive: mbps(input_bytes, naive_part),
        external_budget_mb: sizes.external_budget as f64 / 1e6,
        external_dataset_mb: ext_bytes as f64 / 1e6,
        external_merge_mbps: mbps(ext_bytes, ext_secs),
        external_incore_mbps: mbps(ext_bytes, incore_secs),
        external_peak_resident_mb: ext_metrics.peak_resident_bytes as f64 / 1e6,
        external_peak_over_budget: ext_metrics.peak_resident_bytes as f64
            / sizes.external_budget as f64,
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let quick = argv.iter().any(|a| a == "--quick");
    let check = argv.iter().any(|a| a == "--check");

    let m = measure(if quick { &QUICK } else { &FULL });
    // A full (tracked) run also measures the quick workload so CI's quick
    // check has same-size reference speedups to compare against.
    let quick_ref = if quick { None } else { Some(measure(&QUICK)) };

    let mut fields = vec![
        ("schema", Val::Str("gw-shuffle-bench-v1".into())),
        (
            "mode",
            Val::Str(if quick { "quick" } else { "full" }.into()),
        ),
        ("partitions", Val::Num(PARTS as f64)),
        ("lanes", Val::Num(LANES as f64)),
        ("partition_input_mb", Val::Num(m.input_mb)),
        ("run_sort_new_mrecs", Val::Num(m.run_sort_new)),
        ("run_sort_naive_mrecs", Val::Num(m.run_sort_naive)),
        ("run_sort_speedup", Val::Num(m.run_sort_speedup())),
        ("merge8_new_mrecs", Val::Num(m.merge8_new)),
        ("merge8_heap_mrecs", Val::Num(m.merge8_heap)),
        ("merge8_speedup", Val::Num(m.merge8_speedup())),
        ("tier0_sort_mrecs", Val::Num(m.tier0_sort)),
        ("tier0_merge_mrecs", Val::Num(m.tier0_merge)),
        ("tier0_sort_speedup", Val::Num(m.tier0_sort_speedup())),
        ("compress_mbps", Val::Num(m.compress_mbps)),
        ("decompress_mbps", Val::Num(m.decompress_mbps)),
        ("partition_new_mbps", Val::Num(m.partition_new)),
        ("partition_naive_mbps", Val::Num(m.partition_naive)),
        ("partition_speedup", Val::Num(m.partition_speedup())),
        ("external_budget_mb", Val::Num(m.external_budget_mb)),
        ("external_dataset_mb", Val::Num(m.external_dataset_mb)),
        ("external_merge_mbps", Val::Num(m.external_merge_mbps)),
        ("external_incore_mbps", Val::Num(m.external_incore_mbps)),
        ("external_vs_incore", Val::Num(m.external_vs_incore())),
        (
            "external_peak_resident_mb",
            Val::Num(m.external_peak_resident_mb),
        ),
        (
            "external_peak_over_budget",
            Val::Num(m.external_peak_over_budget),
        ),
    ];
    if let Some(q) = &quick_ref {
        fields.extend([
            ("quick_run_sort_speedup", Val::Num(q.run_sort_speedup())),
            ("quick_merge8_speedup", Val::Num(q.merge8_speedup())),
            ("quick_tier0_sort_speedup", Val::Num(q.tier0_sort_speedup())),
            ("quick_partition_speedup", Val::Num(q.partition_speedup())),
            ("quick_external_vs_incore", Val::Num(q.external_vs_incore())),
        ]);
    }

    println!("shuffle bench ({})", if quick { "quick" } else { "full" });
    print_fields(&fields, 24);

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shuffle.json");
    if check {
        let committed = Committed::read(path, "gw-shuffle-bench-v1");
        // Compare speedups against the committed run of the same workload
        // size; the quick_* reference fields exist for exactly this.
        let prefix = if quick { "quick_" } else { "" };
        let mut failed = committed.regressed(
            prefix,
            &[
                ("run_sort_speedup", m.run_sort_speedup()),
                ("merge8_speedup", m.merge8_speedup()),
                ("tier0_sort_speedup", m.tier0_sort_speedup()),
                ("partition_speedup", m.partition_speedup()),
                ("external_vs_incore", m.external_vs_incore()),
            ],
        );
        // The out-of-core memory contract is machine-independent: peak
        // resident intermediate bytes must stay within 1.5× the budget.
        {
            let ok = m.external_peak_over_budget <= 1.5;
            println!(
                "  check external_peak_over_budget measured {:.3} vs hard cap 1.500 ... {}",
                m.external_peak_over_budget,
                if ok { "ok" } else { "REGRESSED" }
            );
            failed |= !ok;
        }
        // Throughput fields must exist and be positive even though their
        // absolute values are machine-specific.
        for key in [
            "run_sort_new_mrecs",
            "merge8_new_mrecs",
            "tier0_sort_mrecs",
            "compress_mbps",
            "decompress_mbps",
            "partition_new_mbps",
            "external_merge_mbps",
        ] {
            committed.num(key);
        }
        if failed {
            eprintln!("shuffle bench check FAILED: speedup regressed >25% vs committed");
            std::process::exit(1);
        }
        println!("shuffle bench check passed");
    } else {
        std::fs::write(path, bench_json(&fields)).expect("write BENCH_shuffle.json");
        println!("wrote {path}");
    }
}
