//! Tracked resident-service benchmark: open-loop tail latency of the
//! multi-tenant job service under WikiBench-style bursty arrivals.
//! Written to `BENCH_service.json` at the repo root so the service's
//! turnaround behaviour is versioned alongside the code.
//!
//! The harness preloads a catalog of pageview datasets on one shared
//! 4-node cluster, then replays a deterministic open-loop arrival
//! schedule (`gw_apps::arrivals`): bursty Zipf inter-arrival gaps, Zipf
//! workload popularity (so hot datasets repeat and exercise the result
//! cache), two tenants at weights 2:1. Submissions happen on the
//! schedule regardless of service backlog — queueing, not admission
//! rate, absorbs the bursts, which is what makes p99 meaningful.
//!
//! Measured metrics:
//!
//! * `p50_ms` / `p99_ms` — turnaround (admission → completion) of all
//!   completed jobs.
//! * `solo_ms` — best-of-N makespan of one such job on a dedicated
//!   cluster of the same slot count: the zero-contention floor.
//! * `p99_over_solo` — the headline gate: queueing + co-tenancy tax at
//!   the tail. Lower is better.
//! * `cache_hit_rate` — fraction of submissions served byte-identical
//!   from the result cache (the popularity distribution makes this
//!   meaningfully non-zero by construction).
//! * `mean_turnaround_alpha_ms` / `mean_turnaround_beta_ms` — per-tenant
//!   means, recorded so fairness drift is visible in review (the hard
//!   fairness gate lives in gw-service's scheduler unit tests).
//!
//! * `telemetry_overhead_p99` — p99 with the live telemetry plane on
//!   (the default production config, and what every other field here
//!   measures) over p99 with it off. The plane's hot path is one cached
//!   handle lookup + one relaxed atomic per event, so this must stay
//!   ≤ 2% (plus an absolute slack floor for scheduler noise at
//!   millisecond scale) — gated in `--check` mode.
//!
//! Usage: `cargo bench -p gw-bench --bench service -- [--quick] [--check]`
//!
//! * `--quick` shrinks the schedule (CI smoke). A full run additionally
//!   records the quick schedule's headline gate plus its raw percentiles
//!   (`quick_p50_ms`/`quick_p99_ms`/`quick_solo_ms`) as quick-reference
//!   fields, the `BENCH_shuffle.json` convention.
//! * `--check` validates the committed `BENCH_service.json` instead of
//!   rewriting it, failing if measured `p99_over_solo` exceeds 1.25x the
//!   committed value for the same mode (a >25% tail regression) or if
//!   the freshly measured telemetry overhead breaks its gate. A quick
//!   check measures its tail as the committed quick reference was
//!   recorded: a fresh solo floor, then the median-by-p99 of three quick
//!   replays.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gw_apps::arrivals::{arrival_schedule, ArrivalSpec};
use gw_apps::workloads::{web_logs, LogSpec};
use gw_apps::PageviewCount;
use gw_bench::{bench_json, print_fields, Committed};
use gw_core::json::Value as Val;
use gw_core::{Cluster, JobConfig, NodeId};
use gw_net::NetProfile;
use gw_service::{JobSpec, Service, ServiceConfig, ServiceError, TenantSpec};
use gw_storage::split::FileStoreExt;
use gw_storage::{Dfs, DfsConfig};

const NODES: u32 = 4;
const SLOTS: u32 = 2;
const TENANTS: [&str; 2] = ["alpha", "beta"];

struct Sizes {
    /// Open-loop arrivals to replay.
    jobs: usize,
    /// Log entries per catalog dataset.
    entries: usize,
    /// Distinct datasets (workload seeds) in the catalog.
    catalog: usize,
    /// Mean inter-arrival gap.
    mean_gap: Duration,
    /// Solo-baseline repetitions (best-of).
    solo_iters: usize,
    /// Full service-run repetitions (the run with the lowest p99 wins,
    /// suppressing scheduler-noise outliers on both sides of the gate).
    service_iters: usize,
}

const QUICK: Sizes = Sizes {
    jobs: 12,
    entries: 200,
    catalog: 4,
    mean_gap: Duration::from_millis(40),
    solo_iters: 3,
    service_iters: 2,
};

const FULL: Sizes = Sizes {
    jobs: 40,
    entries: 400,
    catalog: 6,
    mean_gap: Duration::from_millis(30),
    solo_iters: 5,
    service_iters: 3,
};

fn log_spec(entries: usize, seed: u64) -> LogSpec {
    LogSpec {
        entries,
        hot_urls: 20,
        hot_fraction: 0.2,
        seed,
    }
}

fn input_path(seed: u64) -> String {
    format!("/svc/in-{seed}")
}

fn preload(dfs: &Dfs, sizes: &Sizes) {
    for seed in 0..sizes.catalog as u64 {
        let records = web_logs(&log_spec(sizes.entries, seed));
        dfs.write_records(
            &input_path(seed),
            NodeId(0),
            600,
            2,
            records.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
        )
        .unwrap();
    }
}

fn job_cfg(seed: u64) -> JobConfig {
    let mut cfg = JobConfig::new(input_path(seed), "/ignored");
    cfg.device_threads = 2;
    cfg.partitions_per_node = 2;
    cfg.collector_capacity = 1 << 20;
    cfg.memory_budget = Some(1 << 17);
    cfg
}

/// Zero-contention floor: one job on a dedicated SLOTS-node cluster.
fn solo_ms(sizes: &Sizes) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..sizes.solo_iters {
        let dfs = Arc::new(Dfs::new(DfsConfig::new(SLOTS).free_io()));
        let records = web_logs(&log_spec(sizes.entries, 0));
        dfs.write_records(
            &input_path(0),
            NodeId(0),
            600,
            2,
            records.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
        )
        .unwrap();
        let cluster = Cluster::new(dfs, NetProfile::unlimited());
        let mut cfg = job_cfg(0);
        cfg.output = "/solo/out".into();
        let start = Instant::now();
        cluster
            .run(Arc::new(PageviewCount::new()), &cfg)
            .expect("solo job failed");
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    assert!(!sorted_ms.is_empty());
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

struct ServiceRun {
    p50_ms: f64,
    p99_ms: f64,
    cache_hit_rate: f64,
    rejected: u64,
    mean_by_tenant: [f64; 2],
}

impl ServiceRun {
    fn p99_over_solo(&self, solo: f64) -> f64 {
        self.p99_ms / solo
    }
}

/// Best-of-N open-loop replays: the run with the lowest p99 wins.
fn run_service(sizes: &Sizes, telemetry: bool) -> ServiceRun {
    (0..sizes.service_iters)
        .map(|_| run_service_once(sizes, telemetry))
        .min_by(|a, b| a.p99_ms.total_cmp(&b.p99_ms))
        .expect("at least one service iteration")
}

/// The quick schedule's gated tail: its solo floor, then the median-by-p99
/// of three best-of-N replays. A single replay can draw an unluckily low
/// or high tail, so the committed quick reference and the `--quick
/// --check` measurement compared with it are both taken this way.
fn quick_gate() -> (f64, ServiceRun) {
    let solo = solo_ms(&QUICK);
    let mut runs: Vec<ServiceRun> = (0..3).map(|_| run_service(&QUICK, true)).collect();
    runs.sort_by(|a, b| a.p99_ms.total_cmp(&b.p99_ms));
    (solo, runs.swap_remove(1))
}

fn run_service_once(sizes: &Sizes, telemetry: bool) -> ServiceRun {
    let dfs = Arc::new(Dfs::new(DfsConfig::new(NODES).free_io()));
    preload(&dfs, sizes);
    let mut scfg = ServiceConfig {
        max_queued: 256,
        cache_capacity: 64,
        tenants: vec![TenantSpec::new("alpha", 2), TenantSpec::new("beta", 1)],
        ..ServiceConfig::default()
    };
    scfg.telemetry.enabled = telemetry;
    for t in &mut scfg.tenants {
        t.max_queued = 128;
    }
    let service = Service::start(Arc::new(Cluster::new(dfs, NetProfile::unlimited())), scfg);

    let schedule = arrival_schedule(&ArrivalSpec {
        jobs: sizes.jobs,
        tenants: TENANTS.len(),
        mean_gap: sizes.mean_gap,
        burstiness: 0.7,
        catalog: sizes.catalog,
        popularity_s: 1.1,
        seed: 42,
    });

    // Open loop: submit on the schedule, never waiting on completions.
    let start = Instant::now();
    let mut tickets = Vec::new();
    let mut rejected = 0u64;
    for a in &schedule {
        let now = start.elapsed();
        if a.at > now {
            std::thread::sleep(a.at - now);
        }
        match service.submit(JobSpec {
            tenant: TENANTS[a.tenant].into(),
            app: Arc::new(PageviewCount::new()),
            cfg: job_cfg(a.workload_seed),
            workload_seed: a.workload_seed,
            slots: SLOTS,
            fault_plan: None,
        }) {
            Ok(t) => tickets.push((a.tenant, t)),
            Err(ServiceError::AdmissionRejected(_)) => rejected += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }

    let mut turns_ms = Vec::with_capacity(tickets.len());
    let mut tenant_sum = [0.0f64; 2];
    let mut tenant_n = [0usize; 2];
    for (tenant, ticket) in tickets {
        let report = ticket.wait().expect("service job failed");
        let ms = report.turnaround.as_secs_f64() * 1e3;
        turns_ms.push(ms);
        tenant_sum[tenant] += ms;
        tenant_n[tenant] += 1;
    }
    turns_ms.sort_by(f64::total_cmp);

    let counters = service.counters();
    ServiceRun {
        p50_ms: percentile(&turns_ms, 0.50),
        p99_ms: percentile(&turns_ms, 0.99),
        cache_hit_rate: counters.cache_hits as f64 / counters.submitted.max(1) as f64,
        rejected,
        mean_by_tenant: [
            tenant_sum[0] / tenant_n[0].max(1) as f64,
            tenant_sum[1] / tenant_n[1].max(1) as f64,
        ],
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let quick = argv.iter().any(|a| a == "--quick");
    let check = argv.iter().any(|a| a == "--check");

    let sizes = if quick { &QUICK } else { &FULL };
    let solo = solo_ms(sizes);
    let run = run_service(sizes, true);
    let run_off = run_service(sizes, false);
    let overhead = run.p99_ms / run_off.p99_ms;
    let quick_ref = (!quick).then(quick_gate);

    let mut fields = vec![
        ("schema", Val::Str("gw-service-bench-v1".into())),
        (
            "mode",
            Val::Str(if quick { "quick" } else { "full" }.into()),
        ),
        ("jobs", Val::Num(sizes.jobs as f64)),
        ("p50_ms", Val::Num(run.p50_ms)),
        ("p99_ms", Val::Num(run.p99_ms)),
        ("solo_ms", Val::Num(solo)),
        ("p99_over_solo", Val::Num(run.p99_over_solo(solo))),
        ("cache_hit_rate", Val::Num(run.cache_hit_rate)),
        ("rejected", Val::Num(run.rejected as f64)),
        ("mean_turnaround_alpha_ms", Val::Num(run.mean_by_tenant[0])),
        ("mean_turnaround_beta_ms", Val::Num(run.mean_by_tenant[1])),
        ("telemetry_off_p99_ms", Val::Num(run_off.p99_ms)),
        ("telemetry_overhead_p99", Val::Num(overhead)),
    ];
    if let Some((qsolo, qrun)) = &quick_ref {
        fields.extend([
            ("quick_p50_ms", Val::Num(qrun.p50_ms)),
            ("quick_p99_ms", Val::Num(qrun.p99_ms)),
            ("quick_solo_ms", Val::Num(*qsolo)),
            ("quick_p99_over_solo", Val::Num(qrun.p99_over_solo(*qsolo))),
            ("quick_cache_hit_rate", Val::Num(qrun.cache_hit_rate)),
        ]);
    }

    println!("service bench ({})", if quick { "quick" } else { "full" });
    print_fields(&fields, 26);

    // Structural sanity regardless of mode: the popularity distribution
    // must actually exercise the cache, and the open loop must admit the
    // overwhelming majority of the schedule.
    assert!(
        run.cache_hit_rate > 0.0,
        "zipf-popular catalog produced zero cache hits"
    );
    assert!(
        run.rejected as usize <= sizes.jobs / 4,
        "admission shed {} of {} open-loop arrivals",
        run.rejected,
        sizes.jobs
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    if check {
        let committed = Committed::read(path, "gw-service-bench-v1");
        // p50_ms may legitimately be ~0 (the median submission can be a
        // cache hit resolved at admission), so it only needs to exist.
        assert!(
            committed.get("p50_ms").and_then(Val::as_num).is_some(),
            "BENCH_service.json missing p50_ms"
        );
        for key in [
            "p99_ms",
            "solo_ms",
            "cache_hit_rate",
            "telemetry_off_p99_ms",
            "telemetry_overhead_p99",
        ] {
            committed.num(key);
        }
        // Tail-latency gate: LOWER is better, so the ceiling is 1.25x the
        // committed tail tax for the same mode, plus a small absolute
        // floor — at millisecond-scale p99s, scheduler noise moves the
        // ratio by ~0.1 run to run regardless of the code.
        let key = if quick {
            "quick_p99_over_solo"
        } else {
            "p99_over_solo"
        };
        let measured = if quick {
            let (qsolo, qrun) = quick_gate();
            qrun.p99_over_solo(qsolo)
        } else {
            run.p99_over_solo(solo)
        };
        let ceiling = 1.25 * committed.num(key) + 0.1;
        println!(
            "  check {key:24} measured {measured:.3} vs ceiling {ceiling:.3} ... {}",
            if measured <= ceiling {
                "ok"
            } else {
                "REGRESSED"
            }
        );
        if measured > ceiling {
            eprintln!("service bench check FAILED: p99 tail regressed >25% vs committed");
            std::process::exit(1);
        }
        // Telemetry-overhead gate on the freshly measured pair (committed
        // values would compare across machines): ≤ 2% p99, with an
        // absolute slack floor because 2% of a millisecond-scale p99 is
        // below scheduler noise.
        let overhead_ceiling = run_off.p99_ms * 1.02 + 1.5;
        println!(
            "  check telemetry_overhead       p99 on {:.3}ms vs off {:.3}ms (ceiling {:.3}ms) ... {}",
            run.p99_ms,
            run_off.p99_ms,
            overhead_ceiling,
            if run.p99_ms <= overhead_ceiling {
                "ok"
            } else {
                "REGRESSED"
            }
        );
        if run.p99_ms > overhead_ceiling {
            eprintln!("service bench check FAILED: telemetry-on p99 exceeds the 2% overhead gate");
            std::process::exit(1);
        }
        println!("service bench check passed");
    } else {
        std::fs::write(path, bench_json(&fields)).expect("write BENCH_service.json");
        println!("wrote {path}");
    }
}
