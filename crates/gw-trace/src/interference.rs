//! Cross-tenant interference attribution over a multi-job [`Trace`].
//!
//! A resident service runs several jobs against one node pool, and the
//! per-job [`crate::PerfAnalysis`] deliberately sees only its own job's
//! lanes — a straggling stage there cannot say *why* it straggled. This
//! view answers that question from the service-lifetime trace: because
//! every job view of one [`crate::Tracer`] shares a single epoch, the
//! busy intervals of different jobs live on one wall-clock axis and can
//! be intersected directly.
//!
//! For each job the sweep reconstructs the union of its lanes' busy
//! intervals (outermost span nesting per lane, same discipline as the
//! overlap matrix in [`crate::PerfAnalysis`]); for each job pair it
//! reports how long both were simultaneously busy and on which shared
//! nodes. `overlap_ns == 0` for a pair means the scheduler serialized
//! them — any slowdown is *not* cross-tenant interference.
//!
//! Timing magnitudes here are measurements, not seed-deterministic
//! quantities; nothing in this module feeds the determinism digests.

use std::collections::BTreeMap;

use crate::analysis::{intersect_len, merge_intervals};
use crate::event::{EventKind, LaneId};
use crate::tracer::Trace;

/// One job's aggregate activity within a service-lifetime trace.
#[derive(Debug, Clone)]
pub struct JobActivity {
    /// Service job index.
    pub job: u32,
    /// First event timestamp (ns since the shared tracer epoch).
    pub first_ns: u64,
    /// Last event timestamp.
    pub last_ns: u64,
    /// Union length of all the job's busy intervals, across its lanes.
    pub busy_ns: u64,
    /// Nodes the job ran lanes on.
    pub nodes: Vec<u32>,
}

/// Simultaneous-busy accounting for one job pair (`a < b`).
#[derive(Debug, Clone)]
pub struct JobOverlap {
    /// Lower job index.
    pub a: u32,
    /// Higher job index.
    pub b: u32,
    /// Wall time both jobs were busy at once (anywhere in the cluster).
    pub overlap_ns: u64,
    /// Nodes where both jobs ran lanes — the slots where interference
    /// could be physical (shared stage threads) rather than incidental.
    pub shared_nodes: Vec<u32>,
}

/// Cross-job interference summary of one multi-job trace.
#[derive(Debug, Clone, Default)]
pub struct Interference {
    /// Per-job activity, ascending by job id.
    pub jobs: Vec<JobActivity>,
    /// All job pairs with nonzero concurrency potential, lexicographic.
    pub pairs: Vec<JobOverlap>,
}

impl Interference {
    /// Fold a finished (service-lifetime) trace into the summary.
    pub fn from_trace(trace: &Trace) -> Interference {
        // job → merged busy intervals and touched nodes.
        let mut intervals: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        let mut nodes: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        let mut bounds: BTreeMap<u32, (u64, u64)> = BTreeMap::new();

        for (lane, events) in &trace.lanes {
            let LaneId { job, node, .. } = *lane;
            if !events.is_empty() {
                let touched = nodes.entry(job).or_default();
                if !touched.contains(&node) {
                    touched.push(node);
                }
            }
            // Outermost-span busy intervals on this lane: depth 0→1 opens
            // an interval, →0 closes it. Truncated spans close at the
            // lane's last timestamp.
            let mut depth = 0u32;
            let mut open_at = 0u64;
            let mut last = 0u64;
            for ev in events {
                last = ev.at_ns;
                let b = bounds.entry(job).or_insert((ev.at_ns, ev.at_ns));
                b.0 = b.0.min(ev.at_ns);
                b.1 = b.1.max(ev.at_ns);
                match ev.kind {
                    EventKind::Begin { .. } => {
                        if depth == 0 {
                            open_at = ev.at_ns;
                        }
                        depth += 1;
                    }
                    EventKind::End { .. } if depth > 0 => {
                        depth -= 1;
                        if depth == 0 {
                            intervals.entry(job).or_default().push((open_at, ev.at_ns));
                        }
                    }
                    _ => {}
                }
            }
            if depth > 0 && last > open_at {
                intervals.entry(job).or_default().push((open_at, last));
            }
        }

        let unions: BTreeMap<u32, Vec<(u64, u64)>> = intervals
            .into_iter()
            .map(|(job, ivs)| (job, merge_intervals(ivs)))
            .collect();

        let jobs: Vec<JobActivity> = bounds
            .iter()
            .map(|(&job, &(first_ns, last_ns))| JobActivity {
                job,
                first_ns,
                last_ns,
                busy_ns: unions
                    .get(&job)
                    .map(|u| u.iter().map(|&(s, e)| e - s).sum())
                    .unwrap_or(0),
                nodes: nodes.get(&job).cloned().unwrap_or_default(),
            })
            .collect();

        let mut pairs = Vec::new();
        for i in 0..jobs.len() {
            for j in (i + 1)..jobs.len() {
                let (a, b) = (jobs[i].job, jobs[j].job);
                let overlap_ns = match (unions.get(&a), unions.get(&b)) {
                    (Some(ua), Some(ub)) => intersect_len(ua, ub),
                    _ => 0,
                };
                let mut shared_nodes: Vec<u32> = jobs[i]
                    .nodes
                    .iter()
                    .filter(|n| jobs[j].nodes.contains(n))
                    .copied()
                    .collect();
                shared_nodes.sort_unstable();
                pairs.push(JobOverlap {
                    a,
                    b,
                    overlap_ns,
                    shared_nodes,
                });
            }
        }

        Interference { jobs, pairs }
    }

    /// Overlap entry for a job pair, order-insensitive.
    pub fn overlap(&self, a: u32, b: u32) -> Option<&JobOverlap> {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        self.pairs.iter().find(|p| p.a == lo && p.b == hi)
    }

    /// Human-readable rollup, one line per job and per pair.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for j in &self.jobs {
            let _ = writeln!(
                out,
                "job {}: busy {:.3} ms over [{:.3}, {:.3}] ms on nodes {:?}",
                j.job,
                j.busy_ns as f64 / 1e6,
                j.first_ns as f64 / 1e6,
                j.last_ns as f64 / 1e6,
                j.nodes,
            );
        }
        for p in &self.pairs {
            let _ = writeln!(
                out,
                "jobs {}x{}: concurrent {:.3} ms, shared nodes {:?}",
                p.a,
                p.b,
                p.overlap_ns as f64 / 1e6,
                p.shared_nodes,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Realm, SpanId};
    use crate::stage::{PipelineKind, StageId};

    fn lane(job: u32, node: u32) -> LaneId {
        LaneId {
            job,
            node,
            realm: Realm::Pipeline {
                kind: PipelineKind::Map,
                stage: StageId::Kernel,
                lane: 0,
            },
        }
    }

    fn span(at_begin: u64, at_end: u64) -> Vec<Event> {
        vec![
            Event {
                at_ns: at_begin,
                kind: EventKind::Begin {
                    span: SpanId::Chunk { seq: 0 },
                },
            },
            Event {
                at_ns: at_end,
                kind: EventKind::End {
                    span: SpanId::Chunk { seq: 0 },
                    wall_ns: at_end - at_begin,
                    modeled_ns: 0,
                    accounted: true,
                },
            },
        ]
    }

    #[test]
    fn overlapping_jobs_report_their_concurrent_time_and_shared_nodes() {
        let trace = Trace {
            lanes: vec![(lane(0, 0), span(0, 1_000)), (lane(1, 0), span(600, 2_000))],
        };
        let inf = Interference::from_trace(&trace);
        assert_eq!(inf.jobs.len(), 2);
        let p = inf.overlap(1, 0).unwrap();
        assert_eq!((p.a, p.b), (0, 1));
        assert_eq!(p.overlap_ns, 400);
        assert_eq!(p.shared_nodes, vec![0]);
    }

    #[test]
    fn serialized_jobs_have_zero_overlap() {
        let trace = Trace {
            lanes: vec![(lane(0, 0), span(0, 500)), (lane(1, 1), span(500, 900))],
        };
        let inf = Interference::from_trace(&trace);
        let p = inf.overlap(0, 1).unwrap();
        assert_eq!(p.overlap_ns, 0);
        assert!(p.shared_nodes.is_empty());
    }

    #[test]
    fn busy_union_merges_a_jobs_lanes() {
        // Two lanes of one job with overlapping busy windows: the union
        // counts the overlapped region once.
        let mut l2 = lane(0, 1);
        l2.realm = Realm::Storage;
        let trace = Trace {
            lanes: vec![(lane(0, 0), span(0, 1_000)), (l2, span(500, 1_500))],
        };
        let inf = Interference::from_trace(&trace);
        assert_eq!(inf.jobs[0].busy_ns, 1_500);
        assert_eq!(inf.jobs[0].nodes, vec![0, 1]);
        assert!(inf.pairs.is_empty());
    }

    #[test]
    fn truncated_spans_close_at_the_lane_end() {
        let mut events = span(0, 400);
        events.truncate(1); // Begin without End
        events.push(Event {
            at_ns: 300,
            kind: EventKind::Count {
                counter: crate::event::CounterId::DfsReadBytes,
                delta: 1,
            },
        });
        let trace = Trace {
            lanes: vec![(lane(2, 0), events)],
        };
        let inf = Interference::from_trace(&trace);
        assert_eq!(inf.jobs[0].job, 2);
        assert_eq!(inf.jobs[0].busy_ns, 300);
    }

    #[test]
    fn render_mentions_every_job_and_pair() {
        let trace = Trace {
            lanes: vec![(lane(0, 0), span(0, 100)), (lane(3, 1), span(50, 80))],
        };
        let text = Interference::from_trace(&trace).render();
        assert!(text.contains("job 0:"));
        assert!(text.contains("job 3:"));
        assert!(text.contains("jobs 0x3:"));
    }
}
