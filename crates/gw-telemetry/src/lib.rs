//! # gw-telemetry — the live service telemetry plane
//!
//! `gw-trace` answers *what happened* after a run: a deterministic event
//! stream, folded post-hoc. A resident service needs the complementary
//! question answered **while jobs are still running**: is tenant A
//! burning its p99 budget *right now*, did node 3 just get slow? This
//! crate is that plane, in four layers:
//!
//! 1. **Registry** ([`Registry`]) — sharded, lock-free-on-update metric
//!    cells: [`Counter`]s, [`Gauge`]s and log2-bucketed [`Histogram`]s
//!    (p50/p90/p99 by bucket interpolation). The service, scheduler,
//!    cache and — via the tracer bridge — cluster/fabric layers all
//!    register into one registry.
//! 2. **Snapshot ring** ([`SnapshotRing`]) — a bounded time-series of
//!    per-window deltas captured on the service's pump thread; queue
//!    depths, slot occupancy, vtime lag, cache hit rate, turnaround and
//!    queue-age histograms all become *windows* the detector can reason
//!    about.
//! 3. **Exporters** — Prometheus text exposition ([`Registry::prometheus`],
//!    validated by the in-repo [`validate_exposition`] linter) and the
//!    pinned-key-order `gw-telemetry-v1` JSON ([`Snapshot::to_json`]),
//!    written through `gw_trace::json` like every JSON document here.
//! 4. **Health detector** ([`HealthDetector`]) — consumes live snapshots
//!    and raises named findings: [`HealthFinding::NodeSlow`] when a
//!    node's service-rate EWMA diverges from the fleet median (this is
//!    what closes the loop with the `gw-chaos` gray plane: an injected
//!    slowdown must surface here within a bounded number of snapshot
//!    intervals), [`HealthFinding::TenantSloBurn`] when a tenant's p99
//!    turnaround crosses its budget.
//!
//! **Determinism split.** Logical counters (admissions, chunk counts,
//! engine byte/message counts) are a pure function of the submission
//! sequence and seeds; [`Registry::determinism_digest`] folds exactly
//! those and is pinned byte-identical across runs and buffering levels.
//! Wall-timing histograms and gauges are exported but excluded from the
//! digest and documented as non-replayable. See [`Class`].

#![warn(missing_docs)]

mod bridge;
mod export;
mod health;
mod histogram;
mod promck;
mod registry;
mod snapshot;

pub use bridge::{engine_counter_name, TelemetryBridge};
pub use export::{prometheus, snapshot_json};
pub use health::{HealthConfig, HealthDetector, HealthFinding, NODE_CHUNK_WALL, TENANT_TURNAROUND};
pub use histogram::{bucket_lower, bucket_of, bucket_upper, HistogramCell, BUCKETS};
pub use promck::validate_exposition;
pub use registry::{full_name, Class, Counter, Gauge, Histogram, Registry};
pub use snapshot::{CounterSample, GaugeSample, HistogramSample, Snapshot, SnapshotRing};
