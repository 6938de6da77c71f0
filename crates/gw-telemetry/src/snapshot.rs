//! The periodic snapshot ring: a bounded time-series of registry deltas.
//!
//! [`SnapshotRing::capture`] walks the registry, computes per-metric
//! deltas against the previous capture, and appends a [`Snapshot`] to a
//! bounded ring (oldest entries dropped on wraparound). The ring is what
//! the health detector consumes — *windows*, not lifetime totals, are
//! what make a slow node visible while the service keeps running — and
//! what the JSON exporter renders (`gw-telemetry-v1`).
//!
//! Capture runs on the service's existing pump thread; zero-job idle
//! intervals are captured like any other (all deltas zero) so liveness
//! of the plane itself is observable.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::histogram::{quantile_from_buckets, BUCKETS};
use crate::registry::{Cell, Class, Registry};

/// One counter sample in a snapshot.
#[derive(Debug, Clone)]
pub struct CounterSample {
    /// Metric name (without labels).
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Cumulative value at capture time.
    pub value: u64,
    /// Increase since the previous snapshot.
    pub delta: u64,
    /// Whether the counter is logical (digest-participating).
    pub deterministic: bool,
}

/// One gauge sample.
#[derive(Debug, Clone)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Value at capture time.
    pub value: f64,
}

/// One histogram summary.
#[derive(Debug, Clone)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Cumulative observation count.
    pub count: u64,
    /// Observations since the previous snapshot.
    pub delta_count: u64,
    /// Cumulative sum of observed values.
    pub sum: u64,
    /// Sum increase since the previous snapshot.
    pub delta_sum: u64,
    /// Estimated lower quartile of the observations inside this window
    /// (log2-bucket interpolation over the bucket deltas; 0.0 for an
    /// empty window).
    pub window_p25: f64,
    /// Estimated cumulative quantiles (log2-bucket interpolation).
    pub p50: f64,
    /// See [`HistogramSample::p50`].
    pub p90: f64,
    /// See [`HistogramSample::p50`].
    pub p99: f64,
}

impl HistogramSample {
    /// The label value for `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A point-in-time capture of the registry with deltas vs the previous
/// capture. Entries are sorted by canonical full name.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Capture sequence number (1-based, monotone, survives wraparound).
    pub seq: u64,
    /// Capture time in milliseconds since the owning plane's epoch.
    pub at_ms: u64,
    /// Counter samples.
    pub counters: Vec<CounterSample>,
    /// Gauge samples.
    pub gauges: Vec<GaugeSample>,
    /// Histogram summaries.
    pub histograms: Vec<HistogramSample>,
    /// The registry's logical-counter digest at capture time.
    pub digest: String,
}

impl Snapshot {
    /// The pinned-key-order JSON rendering (`gw-telemetry-v1`).
    pub fn to_json(&self) -> String {
        crate::export::snapshot_json(self)
    }
}

#[derive(Debug, Default)]
struct RingState {
    entries: VecDeque<Arc<Snapshot>>,
    seq: u64,
    /// Previous cumulative values for delta computation, keyed by
    /// canonical full name: counters map to `value`, histograms to
    /// `(buckets, sum)`.
    prev_counters: HashMap<String, u64>,
    prev_histos: HashMap<String, ([u64; BUCKETS], u64)>,
}

/// Bounded ring of [`Snapshot`]s; see the module docs.
#[derive(Debug)]
pub struct SnapshotRing {
    capacity: usize,
    state: Mutex<RingState>,
}

impl SnapshotRing {
    /// A ring keeping the most recent `capacity` snapshots (min 1).
    pub fn new(capacity: usize) -> Self {
        SnapshotRing {
            capacity: capacity.max(1),
            state: Mutex::new(RingState::default()),
        }
    }

    /// Capture the registry now. Returns the new snapshot (also kept in
    /// the ring; the oldest entry is dropped once past capacity).
    pub fn capture(&self, registry: &Registry, at_ms: u64) -> Arc<Snapshot> {
        let mut st = self.state.lock();
        st.seq += 1;
        let mut snap = Snapshot {
            seq: st.seq,
            at_ms,
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            digest: registry.determinism_digest(),
        };
        for (key, entry) in registry.entries() {
            match &entry.cell {
                Cell::Counter { cell, class } => {
                    let value = cell.load(std::sync::atomic::Ordering::Relaxed);
                    let prev = st.prev_counters.insert(key, value).unwrap_or(0);
                    snap.counters.push(CounterSample {
                        name: entry.name,
                        labels: entry.labels,
                        value,
                        delta: value.saturating_sub(prev),
                        deterministic: *class == Class::Logical,
                    });
                }
                Cell::Gauge(cell) => {
                    snap.gauges.push(GaugeSample {
                        name: entry.name,
                        labels: entry.labels,
                        value: f64::from_bits(cell.load(std::sync::atomic::Ordering::Relaxed)),
                    });
                }
                Cell::Histogram(cell) => {
                    let buckets: [u64; BUCKETS] = cell.bucket_counts();
                    let count: u64 = buckets.iter().sum();
                    let sum = cell.sum();
                    let (pb, ps) = st
                        .prev_histos
                        .insert(key, (buckets, sum))
                        .unwrap_or(([0; BUCKETS], 0));
                    let window: [u64; BUCKETS] =
                        std::array::from_fn(|i| buckets[i].saturating_sub(pb[i]));
                    snap.histograms.push(HistogramSample {
                        name: entry.name,
                        labels: entry.labels,
                        count,
                        delta_count: window.iter().sum(),
                        sum,
                        delta_sum: sum.saturating_sub(ps),
                        window_p25: quantile_from_buckets(&window, 0.25),
                        p50: quantile_from_buckets(&buckets, 0.50),
                        p90: quantile_from_buckets(&buckets, 0.90),
                        p99: quantile_from_buckets(&buckets, 0.99),
                    });
                }
            }
        }
        let snap = Arc::new(snap);
        st.entries.push_back(Arc::clone(&snap));
        while st.entries.len() > self.capacity {
            st.entries.pop_front();
        }
        snap
    }

    /// The retained snapshots, oldest first.
    pub fn snapshots(&self) -> Vec<Arc<Snapshot>> {
        self.state.lock().entries.iter().cloned().collect()
    }

    /// The most recent snapshot, if any capture has happened.
    pub fn latest(&self) -> Option<Arc<Snapshot>> {
        self.state.lock().entries.back().cloned()
    }

    /// Total captures so far (≥ retained length after wraparound).
    pub fn captures(&self) -> u64 {
        self.state.lock().seq
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_and_wraparound() {
        let reg = Registry::new();
        let c = reg.counter("jobs_total", &[], Class::Logical);
        let h = reg.histogram("lat_ns", &[]);
        let ring = SnapshotRing::new(3);

        for i in 1..=5u64 {
            c.add(2);
            h.observe(100 * i);
            let s = ring.capture(&reg, i * 10);
            assert_eq!(s.seq, i);
            assert_eq!(s.counters[0].value, 2 * i);
            assert_eq!(s.counters[0].delta, 2, "per-window delta");
            assert_eq!(s.histograms[0].delta_count, 1);
        }
        let kept = ring.snapshots();
        assert_eq!(kept.len(), 3, "ring wrapped to capacity");
        let seqs: Vec<u64> = kept.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5], "oldest dropped, order kept");
        assert_eq!(ring.captures(), 5);
    }

    #[test]
    fn window_quartile_sees_only_the_window() {
        let reg = Registry::new();
        let h = reg.histogram("lat_ns", &[]);
        let ring = SnapshotRing::new(4);
        for _ in 0..100 {
            h.observe(1_000);
        }
        let first = ring.capture(&reg, 10);
        assert!((512.0..1024.0).contains(&first.histograms[0].window_p25));
        for _ in 0..10 {
            h.observe(1_000_000);
        }
        let second = ring.capture(&reg, 20);
        let s = &second.histograms[0];
        assert_eq!(s.delta_count, 10);
        assert!(
            (524_288.0..1_048_576.0).contains(&s.window_p25),
            "the window holds only the slow observations: {}",
            s.window_p25
        );
        assert!(s.p50 < 1024.0, "the cumulative median still sees both");
        assert_eq!(ring.capture(&reg, 30).histograms[0].window_p25, 0.0);
    }

    #[test]
    fn idle_captures_on_an_empty_registry_never_panic() {
        let reg = Registry::new();
        let ring = SnapshotRing::new(2);
        for i in 0..10 {
            let s = ring.capture(&reg, i);
            assert!(s.counters.is_empty());
            assert!(s.to_json().starts_with("{\"schema\":\"gw-telemetry-v1\""));
        }
        assert_eq!(ring.snapshots().len(), 2);
    }
}
