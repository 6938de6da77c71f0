//! The layer replay: each layer's public functions timed from outside
//! on the traced workload's own records, giving the standalone ceiling
//! to set against the rate the job realised. Measurement policy lives
//! here; the calls themselves are in `layers.rs`.

use crate::layers::{self, Input, Replay};
use crate::report::{median, Metric};
use crate::spans::Spans;
use crate::workloads::{Workload, SPILL_BUDGET};

/// Repetitions of a CPU-bound replay; its time is their median.
const REPS: usize = 3;

/// Run `f` `reps` times, each in its own span; returns the work one
/// call did and the median seconds it took.
fn timed(spans: &mut Spans, name: &str, reps: usize, mut f: impl FnMut() -> usize) -> (f64, f64) {
    let mut work = 0;
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (done, t) = spans.time(name, |_| f());
        work = done;
        secs.push(t);
    }
    (work as f64, median(&secs))
}

/// Median seconds of `reps` calls of `f`.
fn secs(spans: &mut Spans, name: &str, reps: usize, mut f: impl FnMut()) -> f64 {
    timed(spans, name, reps, || {
        f();
        0
    })
    .1
}

/// Time `f` and record its work per microsecond — MB/s for bytes,
/// Mrec/s for records — as `metric`. Returns the rate.
fn rate(
    spans: &mut Spans,
    out: &mut Vec<Metric>,
    span: &str,
    (metric, unit): (&str, &'static str),
    f: impl FnMut() -> usize,
) -> f64 {
    let (work, t) = timed(spans, span, REPS, f);
    let rate = work / 1e6 / t;
    out.push(Metric::new(metric, rate, unit));
    rate
}

pub fn replay(w: &Workload, input: &Input, seed: u64, spans: &mut Spans) -> Vec<Metric> {
    let mut out = Vec::new();
    spans.time("replay", |spans| {
        let (r, _) = spans.time("prepare", |_| Replay::prepare(w, input, seed));
        storage(&r, spans, &mut out);
        apps_and_device(&r, spans, &mut out);
        core(&r, spans, &mut out);
        intermediate(&r, spans, &mut out);
        net(spans, &mut out);
        pipeline(spans, &mut out);
    });
    out
}

fn storage(r: &Replay, spans: &mut Spans, out: &mut Vec<Metric>) {
    spans.time("gw-storage", |s| {
        let write = ("storage.write_mb_s", "MB/s");
        rate(s, out, "write_records", write, || r.storage_write());
        // Paced reads sleep for their modelled time: once is enough.
        let (bytes, t) = timed(s, "read_split", 1, || r.storage_read());
        out.push(Metric::new("storage.read_mb_s", bytes / 1e6 / t, "MB/s"));
        let parse = ("storage.parse_mrec_s", "Mrec/s");
        rate(s, out, "seq_reader", parse, || r.storage_parse());
    });
}

fn apps_and_device(r: &Replay, spans: &mut Spans, out: &mut Vec<Metric>) {
    let (map_rate, _) = spans.time("gw-apps", |s| {
        let map_rate = rate(s, out, "map", ("apps.map_mrec_s", "Mrec/s"), || {
            r.apps_map()
        });
        let t = secs(s, "reference", 1, || r.apps_reference());
        out.push(Metric::new("apps.reference_s", t, "s"));
        let t = secs(s, "floor", 1, || r.floor_full());
        out.push(Metric::new("floor.full_s", t, "s"));
        map_rate
    });
    spans.time("gw-device", |s| {
        const LAUNCHES: usize = 2000;
        let t = secs(s, "launch_empty", REPS, || r.device_launch_empty(LAUNCHES));
        out.push(Metric::new(
            "device.launch_us",
            t / LAUNCHES as f64 * 1e6,
            "us",
        ));
        let kernel = ("device.map_kernel_mrec_s", "Mrec/s");
        let kernel_rate = rate(s, out, "launch_map", kernel, || r.device_map());
        out.push(Metric::new(
            "device.kernel_speedup",
            kernel_rate / map_rate,
            "ratio",
        ));
    });
}

fn core(r: &Replay, spans: &mut Spans, out: &mut Vec<Metric>) {
    spans.time("gw-core", |s| {
        let drain = ("core.collect_drain_mrec_s", "Mrec/s");
        rate(s, out, "collect_drain", drain, || r.core_drain());
        let partition = ("core.partition_mb_s", "MB/s");
        rate(s, out, "partition", partition, || r.core_partition());
    });
}

fn intermediate(r: &Replay, spans: &mut Spans, out: &mut Vec<Metric>) {
    spans.time("gw-intermediate", |s| {
        let sort = ("intermediate.sort_mrec_s", "Mrec/s");
        rate(s, out, "sort", sort, || r.intermediate_sort());
        let merge = ("intermediate.merge8_mrec_s", "Mrec/s");
        rate(s, out, "merge8", merge, || r.intermediate_merge8());
        let compress = ("intermediate.compress_mb_s", "MB/s");
        rate(s, out, "compress", compress, || r.intermediate_compress());
        let decompress = ("intermediate.decompress_mb_s", "MB/s");
        rate(s, out, "decompress", decompress, || {
            r.intermediate_decompress()
        });
        out.push(Metric::new(
            "intermediate.compress_ratio",
            r.compress_ratio(),
            "ratio",
        ));

        let incore = ("intermediate.store_incore_mb_s", "MB/s");
        let incore = rate(s, out, "store_incore", incore, || {
            r.intermediate_store(false).0
        });
        let mut peak = 0;
        let budgeted = ("intermediate.store_budget_mb_s", "MB/s");
        let budgeted = rate(s, out, "store_budget", budgeted, || {
            let (bytes, resident) = r.intermediate_store(true);
            peak = peak.max(resident);
            bytes
        });
        out.push(Metric::new(
            "intermediate.external_vs_incore",
            budgeted / incore,
            "ratio",
        ));
        let over = peak as f64 / SPILL_BUDGET as f64;
        out.push(Metric::new("intermediate.peak_over_budget", over, "ratio"));
    });
}

fn net(spans: &mut Spans, out: &mut Vec<Metric>) {
    spans.time("gw-net", |s| {
        const ROUND_TRIPS: usize = 5_000;
        let t = secs(s, "ping_pong", REPS, || layers::net_ping_pong(ROUND_TRIPS));
        out.push(Metric::new(
            "net.msg_us",
            t / (2 * ROUND_TRIPS) as f64 * 1e6,
            "us",
        ));
        let mut bandwidth = f64::NAN;
        let sent = rate(s, out, "send_data", ("net.send_mb_s", "MB/s"), || {
            let (bytes, profile) = layers::net_send(800, 256 << 10);
            bandwidth = profile;
            bytes
        });
        out.push(Metric::new(
            "net.throttle_share",
            sent * 1e6 / bandwidth,
            "share",
        ));
    });
}

fn pipeline(spans: &mut Spans, out: &mut Vec<Metric>) {
    spans.time("gw-pipeline", |s| {
        const NOOP_CHUNKS: usize = 20_000;
        let t = secs(s, "noop_graph", REPS, || {
            layers::pipeline_run(NOOP_CHUNKS, [0, 0, 0], 2, 1)
        });
        let per_chunk = t / NOOP_CHUNKS as f64 * 1e6;
        out.push(Metric::new("pipeline.chunk_overhead_us", per_chunk, "us"));

        // Sleep-dominated graphs run once: the sleeps set their time.
        const CHUNKS: usize = 300;
        let mut run = |name: &str, stage_ms: [u64; 3], depth: usize, lanes: usize| {
            secs(s, name, 1, || {
                layers::pipeline_run(CHUNKS, stage_ms, depth, lanes)
            })
        };
        let double = run("sleep_double", [1, 1, 1], 2, 1);
        let single = run("sleep_single", [1, 1, 1], 1, 1);
        let lanes1 = run("slow_middle_1_lane", [1, 2, 1], 2, 1);
        let lanes2 = run("slow_middle_2_lanes", [1, 2, 1], 2, 2);
        // Three 1 ms stages fully overlapped: fill, then one chunk per ms.
        let ideal = (CHUNKS + 2) as f64 * 1e-3;
        out.push(Metric::new(
            "pipeline.overlap_efficiency",
            ideal / double,
            "ratio",
        ));
        out.push(Metric::new(
            "pipeline.single_over_double",
            single / double,
            "ratio",
        ));
        out.push(Metric::new(
            "pipeline.lanes2_speedup",
            lanes1 / lanes2,
            "ratio",
        ));
    });
}
