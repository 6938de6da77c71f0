//! The two stable exporters.
//!
//! **Prometheus text exposition** ([`prometheus`]): rendered straight
//! from the live registry — `# TYPE` per family, cumulative `_bucket`
//! series with `le` bounds at the log2 bucket edges (zero buckets
//! skipped; cumulative counts stay monotone), `_sum`/`_count` per
//! histogram. Every rendering is valid under
//! [`crate::promck::validate_exposition`], which CI enforces.
//!
//! **`gw-telemetry-v1` JSON** ([`snapshot_json`]): one object per
//! [`Snapshot`], written through `gw_trace::json::Writer` with pinned
//! key order and fixed-point floats (no exponents), the same
//! diff-stability convention as `gw-perf-analysis-v1`. Prometheus
//! values follow the same number rule (`gw_trace::json::number`).

use std::fmt::Write as _;
use std::sync::atomic::Ordering;

use gw_trace::json::{number, Writer};

use crate::histogram::{bucket_upper, BUCKETS};
use crate::registry::{full_name, push_labels, Cell, Registry};
use crate::snapshot::Snapshot;

/// Render `registry` in Prometheus text exposition format.
pub fn prometheus(registry: &Registry) -> String {
    let entries = registry.entries();
    let mut out = String::with_capacity(entries.len() * 64);
    let mut typed: Option<String> = None;
    for (key, entry) in &entries {
        // Entries are sorted by full name, so one family's label sets
        // are contiguous: emit `# TYPE` on the first.
        if typed.as_deref() != Some(entry.name.as_str()) {
            let kind = match &entry.cell {
                Cell::Counter { .. } => "counter",
                Cell::Gauge(_) => "gauge",
                Cell::Histogram(_) => "histogram",
            };
            let _ = writeln!(out, "# TYPE {} {kind}", entry.name);
            typed = Some(entry.name.clone());
        }
        // A histogram series' name and labels, up to its value.
        let series = |out: &mut String, suffix: &str, extra: Option<(&str, &str)>| {
            let _ = write!(out, "{}{suffix}", entry.name);
            push_labels(out, &entry.labels, extra);
            out.push(' ');
        };
        match &entry.cell {
            Cell::Counter { cell, .. } => {
                let _ = writeln!(out, "{key} {}", cell.load(Ordering::Relaxed));
            }
            Cell::Gauge(cell) => {
                let _ = write!(out, "{key} ");
                number(&mut out, f64::from_bits(cell.load(Ordering::Relaxed)));
                out.push('\n');
            }
            Cell::Histogram(cell) => {
                let mut cum = 0u64;
                for (i, &c) in cell.bucket_counts().iter().enumerate().take(BUCKETS) {
                    if c == 0 {
                        continue;
                    }
                    cum += c;
                    let mut le = String::new();
                    number(&mut le, bucket_upper(i).min(1 << 62) as f64);
                    series(&mut out, "_bucket", Some(("le", &le)));
                    let _ = writeln!(out, "{cum}");
                }
                series(&mut out, "_bucket", Some(("le", "+Inf")));
                let _ = writeln!(out, "{cum}");
                series(&mut out, "_sum", None);
                let _ = writeln!(out, "{}", cell.sum());
                series(&mut out, "_count", None);
                let _ = writeln!(out, "{cum}");
            }
        }
    }
    out
}

/// Render a snapshot as `gw-telemetry-v1` JSON; see the module docs.
pub fn snapshot_json(snap: &Snapshot) -> String {
    let mut w = Writer::default();
    w.open('{')
        .field("schema", "gw-telemetry-v1")
        .field("seq", snap.seq)
        .field("at_ms", snap.at_ms)
        .field("digest", snap.digest.as_str())
        .key("counters")
        .open('[');
    for c in &snap.counters {
        w.open('{')
            .field("name", full_name(&c.name, &c.labels))
            .field("value", c.value)
            .field("delta", c.delta)
            .field("deterministic", c.deterministic)
            .close('}');
    }
    w.close(']').key("gauges").open('[');
    for g in &snap.gauges {
        w.open('{')
            .field("name", full_name(&g.name, &g.labels))
            .field("value", g.value)
            .close('}');
    }
    w.close(']').key("histograms").open('[');
    for h in &snap.histograms {
        w.open('{')
            .field("name", full_name(&h.name, &h.labels))
            .field("count", h.count)
            .field("delta_count", h.delta_count)
            .field("sum", h.sum)
            .field("delta_sum", h.delta_sum)
            .key("p50")
            .value(h.p50)
            .key("p90")
            .value(h.p90)
            .key("p99")
            .value(h.p99)
            .close('}');
    }
    w.close(']').close('}');
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Class;
    use crate::snapshot::SnapshotRing;
    use gw_trace::json::Value;

    #[test]
    fn prometheus_rendering_lints_clean() {
        let reg = Registry::new();
        reg.counter("gw_jobs_total", &[("tenant", "a")], Class::Logical)
            .add(3);
        reg.counter("gw_jobs_total", &[("tenant", "b")], Class::Logical)
            .add(1);
        reg.gauge("gw_queue_depth", &[]).set(2.5);
        let h = reg.histogram("gw_latency_ns", &[("node", "0")]);
        for v in [0u64, 1, 100, 100_000, 5_000_000] {
            h.observe(v);
        }
        let text = prometheus(&reg);
        crate::promck::validate_exposition(&text)
            .unwrap_or_else(|e| panic!("exposition invalid: {e}\n{text}"));
        assert!(text.contains("# TYPE gw_jobs_total counter"));
        assert!(text.contains("gw_jobs_total{tenant=\"a\"} 3"));
        assert!(text.contains("gw_latency_ns_bucket{node=\"0\",le=\"+Inf\"} 5"));
        assert!(text.contains("gw_latency_ns_count{node=\"0\"} 5"));
    }

    #[test]
    fn snapshot_json_is_pinned_and_valid() {
        let reg = Registry::new();
        reg.counter("a_total", &[], Class::Logical).add(2);
        reg.gauge("g", &[("t", "x")]).set(0.125);
        reg.histogram("h_ns", &[]).observe(1000);
        let ring = SnapshotRing::new(4);
        let s = ring.capture(&reg, 17);
        let json = s.to_json();
        gw_trace::validate_json(&json).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{json}"));
        assert!(json.starts_with("{\"schema\":\"gw-telemetry-v1\",\"seq\":1,\"at_ms\":17"));
        assert!(json.contains("\"name\":\"g{t=\\\"x\\\"}\"") || json.contains("g{t="));
    }

    #[test]
    fn label_values_are_escaped_in_both_exporters() {
        // A value that forges a second label, the label set it forges,
        // and a value with a newline.
        let sets: [&[(&str, &str)]; 3] = [
            &[("tenant", "a\",u=\"b")],
            &[("tenant", "a"), ("u", "b")],
            &[("tenant", "x\ny")],
        ];
        let reg = Registry::new();
        for labels in sets {
            reg.counter("gw_jobs_total", labels, Class::Logical).inc();
        }

        let text = prometheus(&reg);
        crate::promck::validate_exposition(&text)
            .unwrap_or_else(|e| panic!("exposition invalid: {e}\n{text}"));

        let json = SnapshotRing::new(1).capture(&reg, 0).to_json();
        let doc = gw_trace::json::parse(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        let Some(Value::Arr(counters)) = doc.get("counters") else {
            panic!("no counters in {json}");
        };
        let names: Vec<&str> = counters
            .iter()
            .map(|c| c.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let mut want: Vec<String> = sets
            .iter()
            .map(|labels| {
                let owned: Vec<(String, String)> = labels
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect();
                full_name("gw_jobs_total", &owned)
            })
            .collect();
        want.sort();
        assert_eq!(names, want);
        // Three cells of one each: the forged label set did not merge
        // into the real one.
        for c in counters {
            assert_eq!(c.get("value").and_then(Value::as_num), Some(1.0));
        }
    }
}
