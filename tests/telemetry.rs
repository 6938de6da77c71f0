//! Live telemetry plane, end to end on the resident service.
//!
//! Four pillars:
//!
//! 1. **Telemetry under chaos** — the loop-closer with the `gw-chaos`
//!    gray plane: across a seeded sweep of gray schedules, every seed
//!    that arms a persistent slowdown must surface a `node-slow` health
//!    finding naming the *physical* slowed node within a bounded number
//!    of snapshot windows after the node first serves chunks, and
//!    fault-free runs must stay finding-free.
//! 2. **Determinism split** — the logical-counter digest is
//!    byte-identical across runs and across pipeline buffering levels
//!    for a fixed submission sequence; timing histograms are excluded.
//! 3. **Plane robustness** — snapshot-ring wraparound and zero-job idle
//!    pumps never panic and keep exporting valid documents.
//! 4. **Exporters** — live Prometheus text passes the in-repo linter;
//!    snapshot JSON is valid and schema-pinned.
//! 5. **The planes agree** — a node's live engine counters equal the
//!    counts of its `JobReport`: both are folds of the same trace events.

use std::sync::Arc;
use std::time::Duration;

use glasswing::apps::workloads::{web_logs, LogSpec};
use glasswing::apps::PageviewCount;
use glasswing::core::CounterId;
use glasswing::prelude::*;
use glasswing::service::{JobTicket, ServiceConfig, TelemetryConfig, TenantSpec};
use glasswing::telemetry::{
    engine_counter_name, validate_exposition, Class, HealthConfig, HealthFinding,
};

const NODES: u32 = 4;
const SLOTS: u32 = 4;

fn input_path(seed: u64) -> String {
    format!("/svc/in-{seed}")
}

fn write_inputs(dfs: &Dfs, seeds: &[u64]) {
    for &seed in seeds {
        let records = web_logs(&LogSpec {
            entries: 600,
            hot_urls: 16,
            hot_fraction: 0.2,
            seed,
        });
        dfs.write_records(
            &input_path(seed),
            NodeId(0),
            200,
            3,
            records.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
        )
        .unwrap();
    }
}

fn job_cfg(seed: u64) -> JobConfig {
    let mut cfg = JobConfig::new(input_path(seed), "/ignored");
    cfg.device_threads = 1;
    cfg.partitions_per_node = 2;
    cfg.collector_capacity = 1 << 20;
    cfg.memory_budget = Some(1 << 17);
    cfg.job_deadline = Some(Duration::from_secs(60));
    cfg
}

fn telemetry_cfg() -> TelemetryConfig {
    TelemetryConfig {
        enabled: true,
        // The tests pump explicitly; keep the background cadence slow so
        // window boundaries are (mostly) where the test puts them.
        snapshot_every: Duration::from_millis(400),
        ring_capacity: 256,
        health: HealthConfig {
            // Gray slowdowns are ≥ 1.5×; with 4 nodes the fleet median
            // stays near the healthy base, so 1.35 splits signal from
            // scheduling noise.
            node_ratio: 1.35,
            confirm: 2,
            min_chunks: 4,
            ewma_alpha: 0.5,
            slo_p99_ms: Default::default(),
        },
    }
}

fn service_over(dfs: Arc<Dfs>, telemetry: TelemetryConfig) -> Service {
    let cfg = ServiceConfig {
        cache_capacity: 0, // every run must execute
        tenants: vec![TenantSpec::new("armed", 1), TenantSpec::new("bystander", 1)],
        telemetry,
        ..ServiceConfig::default()
    };
    Service::start(Arc::new(Cluster::new(dfs, NetProfile::unlimited())), cfg)
}

fn submit(service: &Service, tenant: &str, seed: u64, plan: Option<FaultPlan>) -> JobTicket {
    service
        .submit(JobSpec {
            tenant: tenant.into(),
            app: Arc::new(PageviewCount::new()),
            cfg: job_cfg(seed),
            workload_seed: seed,
            slots: SLOTS,
            fault_plan: plan.map(Arc::new),
        })
        .expect("within admission bounds")
}

/// Run one seed's job while pumping dense snapshot windows; returns the
/// service (shut down) after the ticket resolved and a final pump.
fn run_pumped(service: &Service, ticket: JobTicket) {
    let (tx, rx) = std::sync::mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let r = ticket.wait();
        let _ = tx.send(());
        r
    });
    loop {
        service.pump_telemetry_now();
        if rx.recv_timeout(Duration::from_millis(10)).is_ok() {
            break;
        }
    }
    // One trailing window so the last chunks land in a capture.
    service.pump_telemetry_now();
    waiter.join().unwrap().expect("job finishes");
}

#[test]
fn gray_sweep_detector_names_the_slowed_node_within_bounded_windows() {
    let seeds: Vec<u64> = (0..10).collect();
    let mut armed_slow = 0usize;
    for &seed in &seeds {
        let plan = FaultPlan::gray_from_seed(seed, SLOTS);
        let Some((slow_node, factor)) = plan.gray_slowdown() else {
            continue; // stall/flaky-only schedules are covered by extras below
        };
        armed_slow += 1;
        let schedule = plan.describe();

        let dfs = Arc::new(Dfs::new(DfsConfig::new(NODES).free_io()));
        write_inputs(&dfs, &[seed + 1000]);
        let service = service_over(dfs, telemetry_cfg());
        let ticket = submit(&service, "armed", seed + 1000, Some(plan));
        run_pumped(&service, ticket);

        let tele = service.telemetry().expect("telemetry enabled");
        let findings = tele.findings();
        let named: Vec<_> = findings
            .iter()
            .filter_map(|f| match f {
                HealthFinding::NodeSlow { node, seq, .. } => Some((*node, *seq)),
                _ => None,
            })
            .collect();
        assert!(
            named.iter().any(|(n, _)| *n == slow_node),
            "seed {seed} ({schedule}, x{factor}): no node-slow finding named node \
             {slow_node}; findings: {findings:?}"
        );

        // Bounded detection latency: the finding fires within a handful
        // of windows after the slowed node first serves chunks.
        let snaps = tele.snapshots();
        let onset = snaps
            .iter()
            .find(|s| {
                s.histograms.iter().any(|h| {
                    h.name == "gw_node_chunk_wall_ns"
                        && h.label("node") == Some(slow_node.to_string().as_str())
                        && h.delta_count > 0
                })
            })
            .map(|s| s.seq)
            .expect("the slowed node served chunks in some window");
        let fired = named
            .iter()
            .filter(|(n, _)| *n == slow_node)
            .map(|(_, s)| *s)
            .min()
            .unwrap();
        assert!(
            fired >= onset && fired - onset <= 8,
            "seed {seed} ({schedule}): detection latency {} windows (onset {onset}, \
             fired {fired}) exceeds the bound",
            fired - onset
        );
        println!(
            "seed {seed}: x{:.1} slowdown on node {slow_node} detected in {} windows",
            factor as f64 / 100.0,
            fired - onset
        );
    }
    assert!(
        armed_slow >= 3,
        "the sweep must exercise several slowdown schedules, got {armed_slow}"
    );
}

#[test]
fn clean_runs_raise_no_findings() {
    for seed in [2000u64, 2001, 2002] {
        let dfs = Arc::new(Dfs::new(DfsConfig::new(NODES).free_io()));
        write_inputs(&dfs, &[seed]);
        let service = service_over(dfs, telemetry_cfg());
        let ticket = submit(&service, "armed", seed, None);
        run_pumped(&service, ticket);
        let tele = service.telemetry().expect("telemetry enabled");
        assert!(
            tele.findings().is_empty(),
            "seed {seed}: fault-free run raised findings: {:?}",
            tele.findings()
        );
    }
}

#[test]
fn slo_burn_names_the_overbudget_tenant() {
    let mut tcfg = telemetry_cfg();
    // A 1µs p99 turnaround budget: any real job burns it.
    tcfg.health.slo_p99_ms.insert("armed".into(), 0.001);
    let dfs = Arc::new(Dfs::new(DfsConfig::new(NODES).free_io()));
    write_inputs(&dfs, &[3000]);
    let service = service_over(dfs, tcfg);
    let ticket = submit(&service, "armed", 3000, None);
    run_pumped(&service, ticket);
    let tele = service.telemetry().unwrap();
    let burn = tele
        .findings()
        .into_iter()
        .find(|f| f.kind() == "slo-burn")
        .unwrap_or_else(|| panic!("no slo-burn finding: {:?}", tele.findings()));
    match burn {
        HealthFinding::TenantSloBurn {
            tenant,
            p99_ms,
            budget_ms,
            ..
        } => {
            assert_eq!(tenant, "armed");
            assert!(p99_ms > budget_ms);
        }
        other => panic!("unexpected finding {other:?}"),
    }
}

#[test]
fn idle_pumps_and_ring_wraparound_never_panic() {
    let dfs = Arc::new(Dfs::new(DfsConfig::new(2).free_io()));
    let mut tcfg = telemetry_cfg();
    tcfg.ring_capacity = 4;
    let cfg = ServiceConfig {
        tenants: vec![TenantSpec::new("armed", 1)],
        telemetry: tcfg,
        ..ServiceConfig::default()
    };
    let service = Service::start(Arc::new(Cluster::new(dfs, NetProfile::unlimited())), cfg);
    // Zero jobs submitted: every pump is an idle window.
    for _ in 0..10 {
        assert!(service.pump_telemetry_now());
    }
    let tele = service.telemetry().unwrap();
    let snaps = tele.snapshots();
    assert_eq!(snaps.len(), 4, "ring wrapped to capacity");
    let seqs: Vec<u64> = snaps.iter().map(|s| s.seq).collect();
    assert!(
        seqs.windows(2).all(|w| w[1] == w[0] + 1) && *seqs.last().unwrap() >= 10,
        "monotone seqs surviving wraparound: {seqs:?}"
    );
    for s in &snaps {
        let json = s.to_json();
        glasswing::trace::validate_json(&json)
            .unwrap_or_else(|e| panic!("invalid snapshot JSON: {e}\n{json}"));
        assert!(json.starts_with("{\"schema\":\"gw-telemetry-v1\""));
    }
    // Exposition of an idle (gauges-only) registry still lints clean.
    validate_exposition(&tele.prometheus()).expect("idle exposition lints");
}

#[test]
fn digest_is_identical_across_runs_and_buffering_levels() {
    let digest_of = |buffering: Buffering| -> (String, Vec<(String, u64)>) {
        let dfs = Arc::new(Dfs::new(DfsConfig::new(NODES).free_io()));
        write_inputs(&dfs, &[4000, 4001]);
        let service = service_over(dfs, telemetry_cfg());
        for seed in [4000u64, 4001] {
            let mut cfg = job_cfg(seed);
            cfg.buffering = buffering;
            let ticket = service
                .submit(JobSpec {
                    tenant: "armed".into(),
                    app: Arc::new(PageviewCount::new()),
                    cfg,
                    workload_seed: seed,
                    slots: SLOTS,
                    fault_plan: None,
                })
                .unwrap();
            // Sequential waits: no cache races, so the logical counters
            // are a pure function of the submission sequence.
            ticket.wait().unwrap();
        }
        service.pump_telemetry_now();
        let tele = service.telemetry().unwrap();
        let logical = tele
            .latest()
            .unwrap()
            .counters
            .iter()
            .filter(|c| c.deterministic)
            .map(|c| (format!("{}{:?}", c.name, c.labels), c.value))
            .collect();
        (tele.determinism_digest(), logical)
    };

    let a1 = digest_of(Buffering::Double);
    let a2 = digest_of(Buffering::Double);
    assert_eq!(a1.1, a2.1, "same sequence, same logical counters");
    assert_eq!(a1.0, a2.0, "same sequence, same digest, across runs");
    let b = digest_of(Buffering::Single);
    let c = digest_of(Buffering::Triple);
    assert_eq!(a1.1, b.1, "buffering level must not leak into the digest");
    assert_eq!(a1.0, b.0);
    assert_eq!(a1.1, c.1, "buffering level must not leak into the digest");
    assert_eq!(a1.0, c.0);
    assert!(a1.0.starts_with("tele-") && a1.0.len() == 21, "{}", a1.0);
}

#[test]
fn exporters_stay_valid_on_a_live_service() {
    let dfs = Arc::new(Dfs::new(DfsConfig::new(NODES).free_io()));
    write_inputs(&dfs, &[5000, 5001]);
    let service = service_over(dfs, telemetry_cfg());
    let t1 = submit(&service, "armed", 5000, None);
    let t2 = submit(&service, "bystander", 5001, None);
    run_pumped(&service, t1);
    t2.wait().unwrap();
    service.pump_telemetry_now();

    let tele = service.telemetry().unwrap();
    let text = tele.prometheus();
    validate_exposition(&text).unwrap_or_else(|e| panic!("exposition invalid: {e}\n{text}"));
    assert!(text.contains("# TYPE gw_service_submitted_total counter"));
    assert!(text.contains("gw_service_submitted_total{tenant=\"armed\"} 1"));
    assert!(text.contains("# TYPE gw_node_chunk_wall_ns histogram"));
    assert!(text.contains("gw_service_completed_total 2"));

    let json = tele.snapshot_json().expect("pumped at least once");
    glasswing::trace::validate_json(&json).unwrap_or_else(|e| panic!("invalid snapshot JSON: {e}"));
    assert!(json.contains("\"digest\":\"tele-"));

    // Per-node chunk series exist for every slot the jobs ran on.
    let latest = tele.latest().unwrap();
    let chunk_nodes = latest
        .histograms
        .iter()
        .filter(|h| h.name == "gw_node_chunk_wall_ns")
        .count();
    assert_eq!(chunk_nodes, NODES as usize, "one series per physical node");
}

/// The live plane and the post-hoc report count the same things: for
/// each node, the registry's `gw_engine_<counter>_total{node}` equals the
/// node's `JobReport` count of records in, intermediate records, records
/// out and keys.
#[test]
fn live_engine_counters_equal_the_job_report_counts() {
    let dfs = Arc::new(Dfs::new(DfsConfig::new(NODES).free_io()));
    write_inputs(&dfs, &[6000]);
    let service = service_over(dfs, telemetry_cfg());
    let report = submit(&service, "armed", 6000, None)
        .wait()
        .expect("job finishes")
        .report;
    let registry = service.telemetry().unwrap().registry();
    // The only job on an idle service takes the first `SLOTS` nodes in
    // order, so its virtual node `i` is physical node `i`.
    let live = |counter: CounterId, node: u32| -> usize {
        let label = node.to_string();
        let name = engine_counter_name(counter);
        registry
            .counter(&name, &[("node", &label)], Class::Timing)
            .get() as usize
    };
    assert_eq!(report.nodes.len(), SLOTS as usize);
    for n in &report.nodes {
        let node = n.node.0;
        assert_eq!(live(CounterId::MapRecordsIn, node), n.map.records_in);
        assert_eq!(live(CounterId::MapRecordsOut, node), n.map.records_out);
        assert_eq!(
            live(CounterId::ReduceRecordsOut, node),
            n.reduce.records_out
        );
        assert_eq!(live(CounterId::ReduceKeys, node), n.reduce.keys);
    }
    assert_eq!(report.records_mapped(), 600, "every input record counted");
    assert!(report.records_out() > 0);
}
