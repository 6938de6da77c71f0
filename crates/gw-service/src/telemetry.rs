//! Service-side wiring of the `gw-telemetry` plane.
//!
//! One [`ServiceTelemetry`] per [`crate::Service`] owns the registry,
//! the tracer bridge (so engine events flow in with zero engine
//! changes), the snapshot ring and the health detector. The service
//! calls the `on_*` hooks from its admission/dispatch/completion paths
//! — all of which already run under the state lock, so the logical
//! counters here inherit the service's exact accounting — and the
//! scheduler thread pumps snapshots on a fixed cadence.
//!
//! Metric families registered here:
//!
//! | metric | kind | class |
//! |---|---|---|
//! | `gw_service_submitted_total{tenant}` | counter | logical |
//! | `gw_service_rejected_total{reason}` | counter | logical |
//! | `gw_service_engine_runs_total`, `_completed_total`, `_failed_total` | counter | logical |
//! | `gw_service_cache_{hits,misses,evictions}_total` | counter | timing¹ |
//! | `gw_service_turnaround_ns{tenant}`, `gw_service_queue_age_ns` | histogram | timing |
//! | `gw_service_queue_depth`, `_tenant_queue_depth{tenant}`, `_slots_busy`, `_slots_total`, `_in_flight`, `_tenant_vtime_lag{tenant}`, `_cache_hit_rate`, `_cache_entries` | gauge | timing |
//! | `gw_health_findings_total{kind}` | counter | timing |
//! | `gw_engine_chunks_total` | counter | logical (via bridge) |
//! | `gw_node_chunks_total{node}`, `gw_engine_*_total{node}` | counter | timing² (via bridge) |
//! | `gw_node_chunk_wall_ns{node}`, `gw_node_stage_chunk_wall_ns{node,pipeline,stage}` | histogram | timing (via bridge) |
//!
//! ¹ cache hit/miss counts depend on wall-clock races between identical
//! submissions (whether the second arrives before the first finishes),
//! so they are timing-class: exported, never digested.
//!
//! ² per-node attribution is placement, and placement is a runtime race
//! (split claiming, shuffle batching, run-pool recycling) — see the
//! `gw-telemetry` bridge docs. Only the fleet-wide chunk total is
//! logical.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use gw_storage::NodeId;
use gw_telemetry::{
    Class, Counter, Gauge, HealthConfig, HealthDetector, HealthFinding, Histogram, Registry,
    Snapshot, SnapshotRing, TelemetryBridge,
};

/// Telemetry plane tuning (field of [`crate::ServiceConfig`]).
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Whether the plane is wired at all. Disabled, the service runs
    /// with a plain tracer and zero telemetry overhead.
    pub enabled: bool,
    /// Snapshot cadence for the scheduler-thread pump.
    pub snapshot_every: Duration,
    /// Snapshot ring capacity (bounded time-series length).
    pub ring_capacity: usize,
    /// Health detector tuning.
    pub health: HealthConfig,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: true,
            snapshot_every: Duration::from_millis(50),
            ring_capacity: 256,
            health: HealthConfig::default(),
        }
    }
}

/// Point-in-time gauge inputs, gathered under the service state lock.
#[derive(Debug, Clone, Default)]
pub struct GaugeValues {
    /// Jobs queued across all tenants.
    pub queued: usize,
    /// Per-tenant `(name, queued, vtime lag)`.
    pub tenants: Vec<(String, usize, f64)>,
    /// Cluster nodes currently owned by a job.
    pub slots_busy: usize,
    /// Cluster nodes total.
    pub slots_total: usize,
    /// Jobs dispatched and not yet completed.
    pub in_flight: usize,
    /// Result-cache lifetime hits.
    pub cache_hits: u64,
    /// Result-cache lifetime misses.
    pub cache_misses: u64,
    /// Result-cache lifetime evictions.
    pub cache_evictions: u64,
    /// Result-cache resident entries.
    pub cache_entries: usize,
}

/// The per-service telemetry plane; see the module docs.
#[derive(Debug)]
pub struct ServiceTelemetry {
    cfg: TelemetryConfig,
    registry: Arc<Registry>,
    bridge: Arc<TelemetryBridge>,
    ring: SnapshotRing,
    health: Mutex<HealthDetector>,
    findings: Mutex<Vec<HealthFinding>>,
    epoch: Instant,
    last_pump: Mutex<Option<Instant>>,

    engine_runs: Counter,
    completed: Counter,
    failed: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_evictions: Counter,
    queue_depth: Gauge,
    slots_busy: Gauge,
    slots_total: Gauge,
    in_flight: Gauge,
    cache_hit_rate: Gauge,
    cache_entries: Gauge,
    queue_age: Histogram,
}

impl ServiceTelemetry {
    /// Build the plane and pre-register the service-level families.
    pub fn new(cfg: TelemetryConfig) -> Arc<Self> {
        let registry = Registry::new();
        let bridge = TelemetryBridge::new(Arc::clone(&registry));
        let ring = SnapshotRing::new(cfg.ring_capacity);
        let health = Mutex::new(HealthDetector::new(cfg.health.clone()));
        Arc::new(ServiceTelemetry {
            registry: Arc::clone(&registry),
            bridge,
            ring,
            health,
            findings: Mutex::new(Vec::new()),
            epoch: Instant::now(),
            last_pump: Mutex::new(None),
            engine_runs: registry.counter("gw_service_engine_runs_total", &[], Class::Logical),
            completed: registry.counter("gw_service_completed_total", &[], Class::Logical),
            failed: registry.counter("gw_service_failed_total", &[], Class::Logical),
            cache_hits: registry.counter("gw_service_cache_hits_total", &[], Class::Timing),
            cache_misses: registry.counter("gw_service_cache_misses_total", &[], Class::Timing),
            cache_evictions: registry.counter(
                "gw_service_cache_evictions_total",
                &[],
                Class::Timing,
            ),
            queue_depth: registry.gauge("gw_service_queue_depth", &[]),
            slots_busy: registry.gauge("gw_service_slots_busy", &[]),
            slots_total: registry.gauge("gw_service_slots_total", &[]),
            in_flight: registry.gauge("gw_service_in_flight", &[]),
            cache_hit_rate: registry.gauge("gw_service_cache_hit_rate", &[]),
            cache_entries: registry.gauge("gw_service_cache_entries", &[]),
            queue_age: registry.histogram("gw_service_queue_age_ns", &[]),
            cfg,
        })
    }

    /// The live registry (exporters read it directly).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The tracer bridge; hand it to `Tracer::with_sink`.
    pub fn bridge(&self) -> &Arc<TelemetryBridge> {
        &self.bridge
    }

    /// Prometheus text exposition of the live registry.
    pub fn prometheus(&self) -> String {
        self.registry.prometheus()
    }

    /// The retained snapshots, oldest first.
    pub fn snapshots(&self) -> Vec<Arc<Snapshot>> {
        self.ring.snapshots()
    }

    /// The most recent snapshot, if the pump has run.
    pub fn latest(&self) -> Option<Arc<Snapshot>> {
        self.ring.latest()
    }

    /// `gw-telemetry-v1` JSON of the most recent snapshot (`None` before
    /// the first pump).
    pub fn snapshot_json(&self) -> Option<String> {
        self.latest().map(|s| s.to_json())
    }

    /// Every health finding raised so far, in snapshot order.
    pub fn findings(&self) -> Vec<HealthFinding> {
        self.findings.lock().clone()
    }

    /// The logical-counter determinism digest.
    pub fn determinism_digest(&self) -> String {
        self.registry.determinism_digest()
    }

    // --- hooks (called by the service under its state lock) ---

    pub(crate) fn on_submitted(&self, tenant: &str) {
        self.registry
            .counter(
                "gw_service_submitted_total",
                &[("tenant", tenant)],
                Class::Logical,
            )
            .inc();
    }

    pub(crate) fn on_rejected(&self, reason: &str) {
        self.registry
            .counter(
                "gw_service_rejected_total",
                &[("reason", reason)],
                Class::Logical,
            )
            .inc();
    }

    pub(crate) fn on_engine_run(&self) {
        self.engine_runs.inc();
    }

    pub(crate) fn on_dispatch(&self, job: u32, nodes: &[NodeId], queued_for: Duration) {
        self.bridge
            .map_job(job, nodes.iter().map(|n| n.0).collect());
        self.queue_age.observe_ns(queued_for);
    }

    pub(crate) fn on_completed(&self, job: u32, tenant: &str, turnaround: Duration) {
        self.completed.inc();
        self.bridge.forget_job(job);
        self.registry
            .histogram("gw_service_turnaround_ns", &[("tenant", tenant)])
            .observe_ns(turnaround);
    }

    pub(crate) fn on_failed(&self, job: u32) {
        self.failed.inc();
        self.bridge.forget_job(job);
    }

    /// Whether the snapshot cadence has elapsed since the last pump.
    pub(crate) fn pump_due(&self) -> bool {
        self.last_pump
            .lock()
            .is_none_or(|at| at.elapsed() >= self.cfg.snapshot_every)
    }

    /// Refresh gauges from `g`, capture a snapshot, and feed the health
    /// detector; newly raised findings are appended to [`Self::findings`]
    /// and counted in `gw_health_findings_total{kind}`.
    pub(crate) fn pump(&self, g: &GaugeValues) -> Arc<Snapshot> {
        *self.last_pump.lock() = Some(Instant::now());
        self.queue_depth.set(g.queued as f64);
        self.slots_busy.set(g.slots_busy as f64);
        self.slots_total.set(g.slots_total as f64);
        self.in_flight.set(g.in_flight as f64);
        self.cache_entries.set(g.cache_entries as f64);
        let lookups = g.cache_hits + g.cache_misses;
        self.cache_hit_rate.set(if lookups == 0 {
            0.0
        } else {
            g.cache_hits as f64 / lookups as f64
        });
        // The cache keeps its own lifetime tallies under the state lock;
        // mirror them into the monotone counters by delta.
        for (cell, v) in [
            (&self.cache_hits, g.cache_hits),
            (&self.cache_misses, g.cache_misses),
            (&self.cache_evictions, g.cache_evictions),
        ] {
            let cur = cell.get();
            if v > cur {
                cell.add(v - cur);
            }
        }
        for (tenant, queued, lag) in &g.tenants {
            self.registry
                .gauge("gw_service_tenant_queue_depth", &[("tenant", tenant)])
                .set(*queued as f64);
            self.registry
                .gauge("gw_service_tenant_vtime_lag", &[("tenant", tenant)])
                .set(*lag);
        }

        let at_ms = self.epoch.elapsed().as_millis() as u64;
        let snap = self.ring.capture(&self.registry, at_ms);
        let new = self.health.lock().observe(&snap);
        if !new.is_empty() {
            for f in &new {
                self.registry
                    .counter(
                        "gw_health_findings_total",
                        &[("kind", f.kind())],
                        Class::Timing,
                    )
                    .inc();
            }
            self.findings.lock().extend(new);
        }
        snap
    }
}
