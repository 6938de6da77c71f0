//! Stable renderers for [`PerfAnalysis`]: a paper-style plain-text
//! report (`to_report`, the Table II/III per-stage breakdown) and a JSON
//! form (`to_json`, schema `gw-perf-analysis-v1`).
//!
//! Both renderers are pure functions of the analysis with fixed section
//! and key order, so diffs between runs show performance changes, not
//! formatting noise. The JSON goes through [`crate::json::Writer`], so
//! its floats follow the one number rule (fixed-point, never an
//! exponent) and its tests check it with the same strict parser.

use std::fmt::Write as _;

use crate::analysis::{PerfAnalysis, PipelinePerf};
use crate::json::Writer;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl PerfAnalysis {
    /// Paper-style plain-text report: per-node stage breakdown with the
    /// overlap matrix and efficiency score, critical-path attribution,
    /// straggler ranking and advisor output.
    pub fn to_report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== glasswing perf analysis ==");
        let _ = writeln!(out, "wall time: {:.3} ms", ms(self.critical_path.wall_ns));

        for node in &self.nodes {
            for p in &node.pipelines {
                let _ = writeln!(
                    out,
                    "\n-- node {}, {} pipeline --",
                    node.node,
                    p.kind.name()
                );
                let _ = writeln!(
                    out,
                    "{:<12} {:>7} {:>10} {:>26} {:>7} {:>10}",
                    "stage", "chunks", "busy(ms)", "service mean/min/max (ms)", "waits", "wait(ms)"
                );
                for s in &p.stages {
                    let _ = writeln!(
                        out,
                        "{:<12} {:>7} {:>10.3} {:>26} {:>7} {:>10.3}",
                        s.stage.name_in(p.kind),
                        s.chunks,
                        ms(s.busy_ns),
                        format!(
                            "{:.3}/{:.3}/{:.3}",
                            ms(s.service.mean_ns()),
                            ms(s.service.min_ns),
                            ms(s.service.max_ns)
                        ),
                        s.token_waits,
                        ms(s.token_wait_ns),
                    );
                }
                let _ = writeln!(
                    out,
                    "busy union {:.3} ms, busy sum {:.3} ms, pipeline efficiency {:.2}x (union/sum {:.2})",
                    ms(p.busy_union_ns),
                    ms(p.busy_sum_ns),
                    p.efficiency(),
                    p.busy_union_over_sum(),
                );
                render_overlap(&mut out, p);
            }
        }

        let _ = writeln!(out, "\n-- critical path --");
        let cp = &self.critical_path;
        for (&(node, kind, stage), &ns) in &cp.attribution {
            let pct = if cp.wall_ns == 0 {
                0.0
            } else {
                100.0 * ns as f64 / cp.wall_ns as f64
            };
            let _ = writeln!(
                out,
                "  node {node} {} {:<12} {:>10.3} ms ({pct:>5.1}%)",
                kind.name(),
                stage.name_in(kind),
                ms(ns),
            );
        }
        let _ = writeln!(out, "  token-idle {:>10.3} ms", ms(cp.token_idle_ns));
        let _ = writeln!(out, "  idle       {:>10.3} ms", ms(cp.idle_ns));
        if let Some((node, kind, stage)) = cp.gating() {
            let _ = writeln!(
                out,
                "  gating: {} on node {node} ({} pipeline)",
                stage.name_in(kind),
                kind.name()
            );
        }

        if self.stragglers.len() > 1 {
            let _ = writeln!(out, "\n-- stragglers (slowest first) --");
            for s in &self.stragglers {
                let _ = writeln!(
                    out,
                    "  node {:<4} done {:>10.3} ms  (+{:.3} ms after fastest, map done {:.3} ms)",
                    s.node,
                    ms(s.done_ns),
                    ms(s.skew_ns),
                    ms(s.map_done_ns),
                );
            }
        }

        let _ = writeln!(out, "\n-- advisor --");
        let adv = &self.advice;
        for (i, b) in [1usize, 2, 3].iter().enumerate() {
            let _ = writeln!(
                out,
                "  predicted makespan B={b}: {:>10.3} ms",
                ms(adv.buffering_makespan_ns[i])
            );
        }
        for (stage, x) in &adv.lane_scaling {
            let _ = writeln!(
                out,
                "  doubling {:<10} lanes predicted {x:.2}x",
                stage.name()
            );
        }
        for line in &adv.lines {
            let _ = writeln!(out, "  {line}");
        }

        let a = self.anomalies;
        if a != Default::default() {
            let _ = writeln!(
                out,
                "\n-- anomalies --\n  unclosed spans {}, unaccounted chunks {}, orphan ends {}",
                a.unclosed_spans, a.unaccounted_chunks, a.orphan_ends
            );
        }
        out
    }

    /// JSON rendering (schema `gw-perf-analysis-v1`); one object, fixed
    /// key order, fixed-point floats, valid under `validate_json`.
    pub fn to_json(&self) -> String {
        let mut w = Writer::default();
        w.open('{')
            .field("schema", "gw-perf-analysis-v1")
            .key("nodes")
            .open('[');
        for node in &self.nodes {
            w.open('{')
                .field("node", node.node)
                .key("pipelines")
                .open('[');
            for p in &node.pipelines {
                w.open('{')
                    .field("kind", p.kind.name())
                    .key("stages")
                    .open('[');
                for s in &p.stages {
                    w.open('{')
                        .field("stage", s.stage.name_in(p.kind))
                        .field("chunks", s.chunks)
                        .field("busy_ns", s.busy_ns)
                        .key("service")
                        .open('{')
                        .field("count", s.service.count)
                        .field("total_ns", s.service.total_ns)
                        .field("min_ns", s.service.min_ns)
                        .field("max_ns", s.service.max_ns)
                        .close('}')
                        .field("token_waits", s.token_waits)
                        .field("token_wait_ns", s.token_wait_ns)
                        .close('}');
                }
                w.close(']')
                    .field("busy_union_ns", p.busy_union_ns)
                    .field("busy_sum_ns", p.busy_sum_ns)
                    .field("span_ns", p.span_ns)
                    .field("efficiency", p.efficiency())
                    .key("overlap_ns")
                    .open('[');
                for row in &p.overlap.overlap_ns {
                    w.open('[');
                    for &v in row {
                        w.value(v);
                    }
                    w.close(']');
                }
                w.close(']').close('}');
            }
            w.close(']').close('}');
        }
        w.close(']');

        let cp = &self.critical_path;
        w.key("critical_path")
            .open('{')
            .field("wall_ns", cp.wall_ns)
            .key("attribution")
            .open('[');
        for (&(node, kind, stage), &ns) in &cp.attribution {
            w.open('{')
                .field("node", node)
                .field("pipeline", kind.name())
                .field("stage", stage.name_in(kind))
                .field("ns", ns)
                .close('}');
        }
        w.close(']')
            .field("token_idle_ns", cp.token_idle_ns)
            .field("idle_ns", cp.idle_ns)
            .close('}');

        w.key("stragglers").open('[');
        for s in &self.stragglers {
            w.open('{')
                .field("node", s.node)
                .field("done_ns", s.done_ns)
                .field("map_done_ns", s.map_done_ns)
                .field("skew_ns", s.skew_ns)
                .close('}');
        }
        w.close(']');

        let adv = &self.advice;
        w.key("advice")
            .open('{')
            .field("bottleneck", adv.bottleneck.map(|s| s.name()))
            .key("bottleneck_nodes")
            .open('[')
            .value(adv.bottleneck_nodes.0)
            .value(adv.bottleneck_nodes.1)
            .close(']')
            .key("buffering_makespan_ns")
            .open('[');
        for &ns in &adv.buffering_makespan_ns {
            w.value(ns);
        }
        w.close(']').key("lane_scaling").open('[');
        for (stage, x) in &adv.lane_scaling {
            w.open('{')
                .field("stage", stage.name())
                .field("speedup", *x)
                .close('}');
        }
        w.close(']').key("lines").open('[');
        for line in &adv.lines {
            w.value(line.as_str());
        }
        w.close(']').close('}');

        let a = self.anomalies;
        w.key("anomalies")
            .open('{')
            .field("unclosed_spans", a.unclosed_spans)
            .field("unaccounted_chunks", a.unaccounted_chunks)
            .field("orphan_ends", a.orphan_ends)
            .close('}')
            .close('}');
        w.finish()
    }
}

fn render_overlap(out: &mut String, p: &PipelinePerf) {
    let stages = &p.overlap.stages;
    if stages.len() < 2 {
        return;
    }
    let _ = writeln!(out, "overlap (ms):");
    let _ = write!(out, "{:<12}", "");
    for s in stages {
        let _ = write!(out, " {:>10}", s.name_in(p.kind));
    }
    out.push('\n');
    for (i, si) in stages.iter().enumerate() {
        let _ = write!(out, "{:<12}", si.name_in(p.kind));
        for (j, sj) in stages.iter().enumerate() {
            if j < i {
                let _ = write!(out, " {:>10}", "");
            } else {
                let _ = write!(out, " {:>10.3}", ms(p.overlap.between(*si, *sj)));
            }
        }
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use crate::analysis::PerfAnalysis;
    use crate::event::{Event, EventKind, LaneId, Realm, SpanId};
    use crate::json::validate_json;
    use crate::stage::{PipelineKind, StageId};
    use crate::tracer::Trace;

    fn sample() -> PerfAnalysis {
        let lane = |stage| LaneId {
            job: 0,
            node: 0,
            realm: Realm::Pipeline {
                kind: PipelineKind::Map,
                stage,
                lane: 0,
            },
        };
        let chunk = |at_ns, kind| Event { at_ns, kind };
        let pair = |t0: u64, t1: u64, seq: u64| {
            vec![
                chunk(
                    t0,
                    EventKind::Begin {
                        span: SpanId::Chunk { seq },
                    },
                ),
                chunk(
                    t1,
                    EventKind::End {
                        span: SpanId::Chunk { seq },
                        wall_ns: t1 - t0,
                        modeled_ns: t1 - t0,
                        accounted: true,
                    },
                ),
            ]
        };
        Trace {
            lanes: vec![
                (lane(StageId::Input), pair(0, 120, 0)),
                (lane(StageId::Kernel), pair(60, 260, 0)),
            ],
        }
        .analysis()
    }

    #[test]
    fn report_has_the_paper_style_sections() {
        let r = sample().to_report();
        for needle in [
            "glasswing perf analysis",
            "node 0, map pipeline",
            "pipeline efficiency",
            "critical path",
            "advisor",
            "input",
            "kernel",
        ] {
            assert!(r.contains(needle), "missing {needle:?} in:\n{r}");
        }
    }

    #[test]
    fn json_is_valid_under_the_strict_checker() {
        let j = sample().to_json();
        validate_json(&j).unwrap_or_else(|e| panic!("invalid analysis JSON: {e}\n{j}"));
        assert!(j.starts_with("{\"schema\":\"gw-perf-analysis-v1\""));
        assert!(j.contains("\"efficiency\":"));
    }

    #[test]
    fn empty_analysis_renders() {
        let a = Trace::default().analysis();
        let r = a.to_report();
        assert!(r.contains("glasswing perf analysis"));
        validate_json(&a.to_json()).expect("empty analysis JSON invalid");
    }

    #[test]
    fn json_escapes_control_and_quote_chars() {
        let mut a = sample();
        a.advice.lines.push("a \"quoted\"\\\u{1} line".to_string());
        validate_json(&a.to_json()).expect("escaped JSON invalid");
    }
}
