//! The sharded metrics registry.
//!
//! Registration (name + labels → handle) takes one shard's write lock;
//! after that every update is a relaxed atomic on the handle — the hot
//! path never touches a lock, which is what lets the fabric and pipeline
//! layers bump counters from inside stage threads without perturbing the
//! timings they measure.
//!
//! **Determinism split.** Every metric is either *logical* or *timing*:
//!
//! - [`Class::Logical`] counters measure event counts, bytes, admissions
//!   — quantities that are a pure function of (submission sequence, seed,
//!   `JobConfig`, node count) under the engine's determinism contract.
//!   [`Registry::determinism_digest`] folds exactly these, sorted by
//!   name, into an FNV-1a digest that is byte-identical across runs and
//!   buffering levels (pinned in `tests/telemetry.rs`).
//! - [`Class::Timing`] metrics (every gauge and histogram, plus counters
//!   like cache hits whose value depends on wall-clock races) are
//!   excluded from the digest and documented as non-replayable.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::histogram::HistogramCell;

/// Determinism class of a metric; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Replayable: participates in [`Registry::determinism_digest`].
    Logical,
    /// Wall-clock dependent: exported but never digested.
    Timing,
}

/// A counter handle. Clones share the cell.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `delta`.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }
    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle (f64 stored as bits). Clones share the cell.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the current value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }
    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A histogram handle. Clones share the cell. Histograms are always
/// timing-class.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCell>);

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: u64) {
        self.0.observe(v);
    }
    /// Record a [`std::time::Duration`] in nanoseconds.
    pub fn observe_ns(&self, d: std::time::Duration) {
        self.observe(d.as_nanos() as u64);
    }
    /// The underlying cell (bucket access for exporters).
    pub fn cell(&self) -> &HistogramCell {
        &self.0
    }
}

/// One registered metric, as exporters see it.
#[derive(Debug, Clone)]
pub(crate) enum Cell {
    Counter { cell: Arc<AtomicU64>, class: Class },
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCell>),
}

#[derive(Debug, Clone)]
pub(crate) struct Entry {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub cell: Cell,
}

const SHARDS: usize = 16;

/// The sharded registry; see the module docs. Cheap to share via `Arc`.
#[derive(Debug, Default)]
pub struct Registry {
    shards: [RwLock<BTreeMap<String, Entry>>; SHARDS],
}

/// Canonical full name: `name{k="v",…}` with labels sorted by key and
/// values escaped as Prometheus text 0.0.4 escapes them. Doubles as the
/// shard/map key and the exporters' sample identity.
pub fn full_name(name: &str, labels: &[(String, String)]) -> String {
    let mut out = name.to_string();
    push_labels(&mut out, labels, None);
    out
}

/// Append `{k="v",…}` for `labels` and then `extra` (nothing if both are
/// empty), each value escaped the text-format 0.0.4 way (`\\`, `\"`,
/// `\n`) so that no value can forge another label or end the line.
pub(crate) fn push_labels(
    out: &mut String,
    labels: &[(String, String)],
    extra: Option<(&str, &str)>,
) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let pairs = labels.iter().map(|(k, v)| (k.as_str(), v.as_str()));
    for (i, (k, v)) in pairs.chain(extra).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
}

fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn sorted_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    v.sort();
    v
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Arc<Self> {
        Arc::new(Registry::default())
    }

    fn shard_of(&self, key: &str) -> &RwLock<BTreeMap<String, Entry>> {
        &self.shards[(fnv1a(key.as_bytes(), FNV_OFFSET) as usize) % SHARDS]
    }

    /// Register (or fetch) a counter. Idempotent: the same name+labels
    /// always returns a handle to the same cell; the class of the first
    /// registration wins.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)], class: Class) -> Counter {
        let labels = sorted_labels(labels);
        let key = full_name(name, &labels);
        let shard = self.shard_of(&key);
        if let Some(Entry {
            cell: Cell::Counter { cell, .. },
            ..
        }) = shard.read().get(&key)
        {
            return Counter(Arc::clone(cell));
        }
        let mut w = shard.write();
        let entry = w.entry(key).or_insert_with(|| Entry {
            name: name.to_string(),
            labels,
            cell: Cell::Counter {
                cell: Arc::new(AtomicU64::new(0)),
                class,
            },
        });
        match &entry.cell {
            Cell::Counter { cell, .. } => Counter(Arc::clone(cell)),
            _ => panic!("metric {} re-registered with a different type", entry.name),
        }
    }

    /// Register (or fetch) a gauge. Gauges are always timing-class.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let labels = sorted_labels(labels);
        let key = full_name(name, &labels);
        let shard = self.shard_of(&key);
        if let Some(Entry {
            cell: Cell::Gauge(cell),
            ..
        }) = shard.read().get(&key)
        {
            return Gauge(Arc::clone(cell));
        }
        let mut w = shard.write();
        let entry = w.entry(key).or_insert_with(|| Entry {
            name: name.to_string(),
            labels,
            cell: Cell::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))),
        });
        match &entry.cell {
            Cell::Gauge(cell) => Gauge(Arc::clone(cell)),
            _ => panic!("metric {} re-registered with a different type", entry.name),
        }
    }

    /// Register (or fetch) a histogram. Histograms are always
    /// timing-class.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let labels = sorted_labels(labels);
        let key = full_name(name, &labels);
        let shard = self.shard_of(&key);
        if let Some(Entry {
            cell: Cell::Histogram(cell),
            ..
        }) = shard.read().get(&key)
        {
            return Histogram(Arc::clone(cell));
        }
        let mut w = shard.write();
        let entry = w.entry(key).or_insert_with(|| Entry {
            name: name.to_string(),
            labels,
            cell: Cell::Histogram(Arc::new(HistogramCell::default())),
        });
        match &entry.cell {
            Cell::Histogram(cell) => Histogram(Arc::clone(cell)),
            _ => panic!("metric {} re-registered with a different type", entry.name),
        }
    }

    /// All entries, sorted by canonical full name.
    pub(crate) fn entries(&self) -> Vec<(String, Entry)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (k, e) in shard.read().iter() {
                out.push((k.clone(), e.clone()));
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// FNV-1a digest over the sorted `(full name, value)` pairs of every
    /// **logical** counter. Byte-identical across runs and buffering
    /// levels for a fixed submission sequence; gauges, histograms and
    /// timing-class counters are excluded.
    pub fn determinism_digest(&self) -> String {
        let mut hash = FNV_OFFSET;
        for (key, entry) in self.entries() {
            if let Cell::Counter {
                cell,
                class: Class::Logical,
            } = &entry.cell
            {
                hash = fnv1a(key.as_bytes(), hash);
                hash = fnv1a(b"=", hash);
                hash = fnv1a(cell.load(Ordering::Relaxed).to_string().as_bytes(), hash);
                hash = fnv1a(b"\n", hash);
            }
        }
        format!("tele-{hash:016x}")
    }

    /// Render the whole registry in Prometheus text exposition format
    /// (valid under [`crate::promck::validate_exposition`]).
    pub fn prometheus(&self) -> String {
        crate::export::prometheus(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_idempotent_and_label_order_is_canonical() {
        let r = Registry::new();
        let a = r.counter("x_total", &[("b", "2"), ("a", "1")], Class::Logical);
        let b = r.counter("x_total", &[("a", "1"), ("b", "2")], Class::Logical);
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 7, "label order must not split the metric");
        assert_eq!(full_name("x", &sorted_labels(&[("b", "2")])), "x{b=\"2\"}");
    }

    #[test]
    fn digest_covers_logical_counters_only_and_is_order_free() {
        let r1 = Registry::new();
        r1.counter("a_total", &[], Class::Logical).add(5);
        r1.counter("b_total", &[], Class::Logical).add(7);
        r1.counter("wall_total", &[], Class::Timing).add(999);
        r1.gauge("g", &[]).set(3.13);
        r1.histogram("h_ns", &[]).observe(12345);

        // Same logical values registered in the opposite order, with
        // different timing-class noise: identical digest.
        let r2 = Registry::new();
        r2.histogram("h_ns", &[]).observe(1);
        r2.counter("b_total", &[], Class::Logical).add(7);
        r2.counter("wall_total", &[], Class::Timing).add(1);
        r2.counter("a_total", &[], Class::Logical).add(5);
        assert_eq!(r1.determinism_digest(), r2.determinism_digest());

        // A logical value change must change the digest.
        r2.counter("a_total", &[], Class::Logical).inc();
        assert_ne!(r1.determinism_digest(), r2.determinism_digest());
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_confusion_panics() {
        let r = Registry::new();
        r.counter("m", &[], Class::Logical);
        r.gauge("m", &[]);
    }
}
