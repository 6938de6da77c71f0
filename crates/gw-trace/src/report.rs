//! Stable renderers for [`PerfAnalysis`]: a paper-style plain-text
//! report (`to_report`, the Table II/III per-stage breakdown) and a
//! hand-written JSON form (`to_json`, schema `gw-perf-analysis-v1`).
//!
//! Both renderers are pure functions of the analysis with fixed section
//! and key order, so diffs between runs show performance changes, not
//! formatting noise. The JSON writer emits fixed-point numbers only
//! (never exponent notation) and is validated against the in-repo
//! RFC 8259 checker in tests — which deliberately rejects `+` exponents,
//! see `jsonck`.

use std::fmt::Write as _;

use crate::analysis::{PerfAnalysis, PipelinePerf};
use crate::chrome::escape_into;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn push_num(out: &mut String, v: f64) {
    // Fixed-point keeps the output inside the strict validator's number
    // grammar (Rust's `{:.6}` never produces an exponent).
    let _ = write!(out, "{v:.6}");
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
        let mut o = String::from("{\"schema\":\"gw-perf-analysis-v1\"");

        o.push_str(",\"nodes\":[");
        for (ni, node) in self.nodes.iter().enumerate() {
            if ni > 0 {
                o.push(',');
            }
            let _ = write!(o, "{{\"node\":{},\"pipelines\":[", node.node);
            for (pi, p) in node.pipelines.iter().enumerate() {
                if pi > 0 {
                    o.push(',');
                }
                let _ = write!(o, "{{\"kind\":\"{}\",\"stages\":[", p.kind.name());
                for (si, s) in p.stages.iter().enumerate() {
                    if si > 0 {
                        o.push(',');
                    }
                    let _ = write!(
                        o,
                        "{{\"stage\":\"{}\",\"chunks\":{},\"busy_ns\":{},\
                         \"service\":{{\"count\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{}}},\
                         \"token_waits\":{},\"token_wait_ns\":{}}}",
                        s.stage.name_in(p.kind),
                        s.chunks,
                        s.busy_ns,
                        s.service.count,
                        s.service.total_ns,
                        s.service.min_ns,
                        s.service.max_ns,
                        s.token_waits,
                        s.token_wait_ns,
                    );
                }
                let _ = write!(
                    o,
                    "],\"busy_union_ns\":{},\"busy_sum_ns\":{},\"span_ns\":{},\"efficiency\":",
                    p.busy_union_ns, p.busy_sum_ns, p.span_ns
                );
                push_num(&mut o, p.efficiency());
                o.push_str(",\"overlap_ns\":[");
                for (ri, row) in p.overlap.overlap_ns.iter().enumerate() {
                    if ri > 0 {
                        o.push(',');
                    }
                    o.push('[');
                    for (ci, v) in row.iter().enumerate() {
                        if ci > 0 {
                            o.push(',');
                        }
                        let _ = write!(o, "{v}");
                    }
                    o.push(']');
                }
                o.push_str("]}");
            }
            o.push_str("]}");
        }
        o.push(']');

        let cp = &self.critical_path;
        let _ = write!(o, ",\"critical_path\":{{\"wall_ns\":{}", cp.wall_ns);
        o.push_str(",\"attribution\":[");
        for (i, (&(node, kind, stage), &ns)) in cp.attribution.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let _ = write!(
                o,
                "{{\"node\":{node},\"pipeline\":\"{}\",\"stage\":\"{}\",\"ns\":{ns}}}",
                kind.name(),
                stage.name_in(kind)
            );
        }
        let _ = write!(
            o,
            "],\"token_idle_ns\":{},\"idle_ns\":{}}}",
            cp.token_idle_ns, cp.idle_ns
        );

        o.push_str(",\"stragglers\":[");
        for (i, s) in self.stragglers.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let _ = write!(
                o,
                "{{\"node\":{},\"done_ns\":{},\"map_done_ns\":{},\"skew_ns\":{}}}",
                s.node, s.done_ns, s.map_done_ns, s.skew_ns
            );
        }
        o.push(']');

        let adv = &self.advice;
        o.push_str(",\"advice\":{\"bottleneck\":");
        match adv.bottleneck {
            Some(s) => {
                o.push('"');
                o.push_str(s.name());
                o.push('"');
            }
            None => o.push_str("null"),
        }
        let _ = write!(
            o,
            ",\"bottleneck_nodes\":[{},{}]",
            adv.bottleneck_nodes.0, adv.bottleneck_nodes.1
        );
        let _ = write!(
            o,
            ",\"buffering_makespan_ns\":[{},{},{}]",
            adv.buffering_makespan_ns[0],
            adv.buffering_makespan_ns[1],
            adv.buffering_makespan_ns[2]
        );
        o.push_str(",\"lane_scaling\":[");
        for (i, (stage, x)) in adv.lane_scaling.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let _ = write!(o, "{{\"stage\":\"{}\",\"speedup\":", stage.name());
            push_num(&mut o, *x);
            o.push('}');
        }
        o.push_str("],\"lines\":[");
        for (i, line) in adv.lines.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push('"');
            escape_into(&mut o, line);
            o.push('"');
        }
        o.push_str("]}");

        let a = self.anomalies;
        let _ = write!(
            o,
            ",\"anomalies\":{{\"unclosed_spans\":{},\"unaccounted_chunks\":{},\"orphan_ends\":{}}}}}",
            a.unclosed_spans, a.unaccounted_chunks, a.orphan_ends
        );
        o
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
    use crate::jsonck::validate_json;
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
