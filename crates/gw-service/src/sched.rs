//! The weighted-fair slot scheduler.
//!
//! A pure, clock-free state machine (the caller supplies `now`), so the
//! fairness properties are unit-testable under a virtual clock. The
//! discipline is virtual-time weighted fair queueing over *slot-seconds*
//! (the Hadoop-style slot vocabulary from `gw-baseline`, one slot = one
//! node's full lane set):
//!
//! - Each tenant keeps a virtual time. Dispatching one of its jobs
//!   charges `estimated slot-seconds ÷ weight` immediately (the estimate
//!   is an EWMA over the tenant's completed jobs); completion settles the
//!   difference against the measured cost. A tenant with weight 2 thus
//!   accrues virtual time half as fast and receives twice the slot-
//!   seconds of a weight-1 tenant under saturation.
//! - [`FairScheduler::next`] picks the eligible tenant (non-empty queue,
//!   head fits in the free slots) with the smallest virtual time, ties
//!   broken by tenant name — deterministic given identical histories.
//! - A tenant going idle→busy is floored to the minimum active virtual
//!   time, so sleeping never banks credit.
//! - **Starvation override:** when any queued head's age exceeds the
//!   configured deadline, the oldest starving head preempts the virtual-
//!   time order; if it does not fit yet, the scheduler dispatches
//!   *nothing* and lets slots drain until it fits. A starving tenant's
//!   oldest job age is therefore bounded by the deadline plus the
//!   longest residency of the jobs ahead of it.
//!
//! Per-tenant queues are FIFO and heads are never bypassed by their own
//! tenant's younger jobs (no intra-tenant backfill), which keeps each
//! tenant's completion order equal to its submission order.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Duration;

/// EWMA factor for the per-tenant cost estimate (weight of the newest
/// completed job's measured slot-seconds).
const EST_ALPHA: f64 = 0.5;

/// Scheduler tuning.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Queue age beyond which a head job overrides the fair order.
    pub starvation_deadline: Duration,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            starvation_deadline: Duration::from_secs(30),
        }
    }
}

/// One dispatch decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Dispatch {
    /// The dispatched job.
    pub job: u32,
    /// Its tenant.
    pub tenant: String,
    /// Slots (nodes) the job will occupy.
    pub slots: u32,
    /// How long it sat queued.
    pub queued_for: Duration,
    /// Whether the starvation override (not the fair order) chose it.
    pub starvation_override: bool,
}

#[derive(Debug)]
struct Queued {
    job: u32,
    slots: u32,
    at: Duration,
}

#[derive(Debug)]
struct Tenant {
    weight: u32,
    vtime: f64,
    /// EWMA of measured slot-seconds per completed job.
    est: f64,
    queue: VecDeque<Queued>,
    inflight: usize,
}

#[derive(Debug)]
struct Inflight {
    tenant: String,
    charged: f64,
}

/// Weighted-fair queueing over tenants; see the module docs.
#[derive(Debug)]
pub struct FairScheduler {
    cfg: SchedConfig,
    tenants: BTreeMap<String, Tenant>,
    inflight: HashMap<u32, Inflight>,
    /// System virtual clock: the highest vtime any dispatch has reached.
    /// Wakers are floored to the active minimum when tenants are active,
    /// and to this clock when the whole system was idle — either way, an
    /// idle period banks no credit.
    clock: f64,
}

impl FairScheduler {
    /// An empty scheduler.
    pub fn new(cfg: SchedConfig) -> Self {
        FairScheduler {
            cfg,
            tenants: BTreeMap::new(),
            inflight: HashMap::new(),
            clock: 0.0,
        }
    }

    /// Register `name` with `weight` (≥ 1). Re-registering updates the
    /// weight and keeps the queue.
    pub fn add_tenant(&mut self, name: &str, weight: u32) {
        let weight = weight.max(1);
        self.tenants
            .entry(name.to_string())
            .and_modify(|t| t.weight = weight)
            .or_insert(Tenant {
                weight,
                vtime: 0.0,
                est: 1.0,
                queue: VecDeque::new(),
                inflight: 0,
            });
    }

    /// Whether `name` is registered.
    pub fn has_tenant(&self, name: &str) -> bool {
        self.tenants.contains_key(name)
    }

    /// Jobs queued (not yet dispatched) for `name`.
    pub fn queued(&self, name: &str) -> usize {
        self.tenants.get(name).map_or(0, |t| t.queue.len())
    }

    /// Jobs queued across all tenants.
    pub fn total_queued(&self) -> usize {
        self.tenants.values().map(|t| t.queue.len()).sum()
    }

    /// Drain every queued job (shutdown), returning their ids.
    pub fn drain(&mut self) -> Vec<u32> {
        let mut out = Vec::new();
        for t in self.tenants.values_mut() {
            out.extend(t.queue.drain(..).map(|q| q.job));
        }
        out
    }

    /// Queue `job` for `tenant`. The caller (admission controller) has
    /// already verified the tenant exists and quotas hold.
    pub fn enqueue(&mut self, tenant: &str, job: u32, slots: u32, now: Duration) {
        let floor = self.min_active_vtime().unwrap_or(self.clock);
        let t = self.tenants.get_mut(tenant).expect("tenant registered");
        if t.queue.is_empty() && t.inflight == 0 {
            // Idle→busy: no banked credit from the idle period.
            t.vtime = t.vtime.max(floor);
        }
        t.queue.push_back(Queued {
            job,
            slots,
            at: now,
        });
    }

    /// Pick the next job to dispatch given `free_slots`, or `None` when
    /// nothing eligible fits (including the starvation-drain case).
    pub fn next(&mut self, now: Duration, free_slots: u32) -> Option<Dispatch> {
        // Starvation override: the oldest over-deadline head wins, or
        // blocks dispatch entirely until it fits.
        let starving = self
            .tenants
            .iter()
            .filter_map(|(name, t)| {
                let head = t.queue.front()?;
                let age = now.saturating_sub(head.at);
                (age > self.cfg.starvation_deadline).then_some((age, name.clone()))
            })
            .max_by(|a, b| a.0.cmp(&b.0).then_with(|| b.1.cmp(&a.1)));
        if let Some((_, name)) = starving {
            let fits = self.tenants[&name]
                .queue
                .front()
                .is_some_and(|h| h.slots <= free_slots);
            return fits.then(|| self.dispatch(&name, now, true));
        }

        // Fair order: smallest virtual time among tenants whose head fits.
        let winner = self
            .tenants
            .iter()
            .filter(|(_, t)| t.queue.front().is_some_and(|h| h.slots <= free_slots))
            .min_by(|(an, a), (bn, b)| a.vtime.total_cmp(&b.vtime).then_with(|| an.cmp(bn)))
            .map(|(name, _)| name.clone())?;
        Some(self.dispatch(&winner, now, false))
    }

    /// Settle a dispatched job's measured cost (slot-seconds) against the
    /// provisional charge, and feed the tenant's estimate.
    pub fn complete(&mut self, job: u32, actual_slot_seconds: f64) {
        let Some(inflight) = self.inflight.remove(&job) else {
            return;
        };
        if let Some(t) = self.tenants.get_mut(&inflight.tenant) {
            t.vtime += (actual_slot_seconds - inflight.charged) / t.weight as f64;
            t.est = (1.0 - EST_ALPHA) * t.est + EST_ALPHA * actual_slot_seconds;
            t.inflight = t.inflight.saturating_sub(1);
        }
    }

    fn dispatch(&mut self, tenant: &str, now: Duration, starvation_override: bool) -> Dispatch {
        let t = self.tenants.get_mut(tenant).expect("tenant exists");
        let head = t.queue.pop_front().expect("non-empty queue");
        let charged = t.est;
        t.vtime += charged / t.weight as f64;
        t.inflight += 1;
        self.clock = self.clock.max(t.vtime);
        self.inflight.insert(
            head.job,
            Inflight {
                tenant: tenant.to_string(),
                charged,
            },
        );
        Dispatch {
            job: head.job,
            tenant: tenant.to_string(),
            slots: head.slots,
            queued_for: now.saturating_sub(head.at),
            starvation_override,
        }
    }

    /// Per-tenant queue state for telemetry: `(name, queued, vtime lag)`
    /// where lag is the tenant's virtual time minus the active minimum —
    /// 0 for the next-in-line tenant, larger for tenants that already
    /// consumed more than their share (served later under saturation).
    pub fn tenant_stats(&self) -> Vec<(String, usize, f64)> {
        let floor = self.min_active_vtime().unwrap_or(self.clock);
        self.tenants
            .iter()
            .map(|(name, t)| (name.clone(), t.queue.len(), t.vtime - floor))
            .collect()
    }

    /// Minimum virtual time over tenants that are queued or running.
    fn min_active_vtime(&self) -> Option<f64> {
        self.tenants
            .values()
            .filter(|t| !t.queue.is_empty() || t.inflight > 0)
            .map(|t| t.vtime)
            .min_by(f64::total_cmp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Virtual-clock saturation harness: `slots` total, every job takes
    /// `job_dur` wall seconds on `job_slots` slots, both tenants' queues
    /// are kept non-empty. Returns per-tenant dispatched slot-seconds.
    fn saturate(
        sched: &mut FairScheduler,
        slots: u32,
        job_slots: u32,
        job_dur: f64,
        dispatches: usize,
    ) -> HashMap<String, f64> {
        let mut now = 0.0f64;
        let mut next_job = 1u32;
        let mut running: Vec<(f64, u32, String)> = Vec::new(); // (ends, job, tenant)
        let mut used = 0u32;
        let mut occupancy: HashMap<String, f64> = HashMap::new();
        let tenants: Vec<String> = sched.tenants.keys().cloned().collect();
        let mut done = 0usize;
        while done < dispatches {
            // Keep every tenant's queue saturated.
            for t in &tenants {
                while sched.queued(t) < 2 {
                    sched.enqueue(t, next_job, job_slots, Duration::from_secs_f64(now));
                    next_job += 1;
                }
            }
            while let Some(d) = sched.next(Duration::from_secs_f64(now), slots - used) {
                used += d.slots;
                *occupancy.entry(d.tenant.clone()).or_default() += job_dur * d.slots as f64;
                running.push((now + job_dur, d.job, d.tenant.clone()));
                done += 1;
                if done >= dispatches {
                    break;
                }
                for t in &tenants {
                    while sched.queued(t) < 2 {
                        sched.enqueue(t, next_job, job_slots, Duration::from_secs_f64(now));
                        next_job += 1;
                    }
                }
            }
            // Advance to the earliest completion.
            running.sort_by(|a, b| a.0.total_cmp(&b.0));
            if let Some((ends, job, _tenant)) = running.first().cloned() {
                now = ends;
                running.remove(0);
                used -= job_slots;
                sched.complete(job, job_dur * job_slots as f64);
            } else {
                break;
            }
        }
        occupancy
    }

    #[test]
    fn weights_two_to_one_converge_within_ten_percent() {
        let mut sched = FairScheduler::new(SchedConfig {
            starvation_deadline: Duration::from_secs(1_000_000),
        });
        sched.add_tenant("heavy", 2);
        sched.add_tenant("light", 1);
        let occ = saturate(&mut sched, 4, 2, 1.0, 300);
        let ratio = occ["heavy"] / occ["light"];
        assert!(
            (ratio - 2.0).abs() <= 0.2,
            "slot occupancy ratio {ratio:.3} strayed more than 10% from 2:1 \
             (heavy {:.1}, light {:.1})",
            occ["heavy"],
            occ["light"]
        );
    }

    #[test]
    fn extreme_weights_still_approximate_their_ratio() {
        let mut sched = FairScheduler::new(SchedConfig {
            starvation_deadline: Duration::from_secs(1_000_000),
        });
        sched.add_tenant("a", 3);
        sched.add_tenant("b", 1);
        let occ = saturate(&mut sched, 6, 2, 1.0, 400);
        let ratio = occ["a"] / occ["b"];
        assert!((ratio - 3.0).abs() <= 0.3, "ratio {ratio:.3} not ~3:1");
    }

    #[test]
    fn starving_tenants_oldest_job_age_is_bounded_by_the_deadline() {
        // A weight-1000 tenant saturates the cluster; the weight-1 tenant
        // submits one job. Without the override it would wait ~1000 jobs;
        // with it, its dispatch age stays ≤ deadline + one job residency.
        let deadline = Duration::from_secs(5);
        let job_dur = 1.0f64;
        let mut sched = FairScheduler::new(SchedConfig {
            starvation_deadline: deadline,
        });
        sched.add_tenant("hog", 1000);
        sched.add_tenant("meek", 1);

        let slots = 2u32;
        let mut now = 0.0f64;
        let mut next_job = 10u32;
        let mut running: Vec<(f64, u32)> = Vec::new();
        let mut used = 0u32;
        sched.enqueue("meek", 1, 2, Duration::from_secs_f64(now));
        let mut meek_dispatch_age = None;
        for _ in 0..10_000 {
            while sched.queued("hog") < 2 {
                sched.enqueue("hog", next_job, 1, Duration::from_secs_f64(now));
                next_job += 1;
            }
            while let Some(d) = sched.next(Duration::from_secs_f64(now), slots - used) {
                used += d.slots;
                running.push((now + job_dur, d.job));
                if d.tenant == "meek" {
                    assert!(d.starvation_override, "meek must win via the override");
                    meek_dispatch_age = Some(d.queued_for);
                }
                while sched.queued("hog") < 2 {
                    sched.enqueue("hog", next_job, 1, Duration::from_secs_f64(now));
                    next_job += 1;
                }
            }
            if meek_dispatch_age.is_some() {
                break;
            }
            running.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (ends, job) = running.remove(0);
            now = ends;
            used -= 1;
            sched.complete(job, job_dur);
        }
        let age = meek_dispatch_age.expect("the starving job must eventually dispatch");
        let bound = deadline + Duration::from_secs_f64(2.0 * job_dur);
        assert!(
            age <= bound,
            "starving job waited {age:?}, bound was {bound:?}"
        );
    }

    #[test]
    fn starvation_drain_blocks_younger_jobs_until_the_big_head_fits() {
        let mut sched = FairScheduler::new(SchedConfig {
            starvation_deadline: Duration::from_secs(1),
        });
        sched.add_tenant("a", 1);
        sched.add_tenant("b", 1);
        sched.enqueue("a", 1, 4, Duration::ZERO); // needs the whole cluster
        sched.enqueue("b", 2, 1, Duration::ZERO);
        let late = Duration::from_secs(10);
        // Only 2 slots free: the starving 4-slot head does not fit, and
        // the scheduler refuses to dispatch b's 1-slot job past it.
        assert_eq!(sched.next(late, 2), None);
        // Once the cluster drains, the starving head goes first.
        let d = sched.next(late, 4).unwrap();
        assert_eq!((d.job, d.starvation_override), (1, true));
        let d = sched.next(late, 4).unwrap();
        assert_eq!(d.job, 2);
    }

    #[test]
    fn idle_tenants_bank_no_credit() {
        let mut sched = FairScheduler::new(SchedConfig::default());
        sched.add_tenant("busy", 1);
        sched.add_tenant("sleeper", 1);
        // busy runs many jobs while sleeper idles.
        for j in 0..10 {
            sched.enqueue("busy", j, 1, Duration::ZERO);
            let d = sched.next(Duration::ZERO, 4).unwrap();
            sched.complete(d.job, 1.0);
        }
        // sleeper wakes: it is floored to busy's vtime, so it cannot
        // monopolize. After one sleeper dispatch the two alternate.
        sched.enqueue("sleeper", 100, 1, Duration::ZERO);
        sched.enqueue("sleeper", 101, 1, Duration::ZERO);
        sched.enqueue("busy", 102, 1, Duration::ZERO);
        sched.enqueue("busy", 103, 1, Duration::ZERO);
        let first = sched.next(Duration::ZERO, 1).unwrap();
        sched.complete(first.job, 1.0);
        let second = sched.next(Duration::ZERO, 1).unwrap();
        assert_ne!(
            first.tenant, second.tenant,
            "a floored waker must alternate, not monopolize"
        );
    }

    #[test]
    fn per_tenant_order_is_fifo() {
        let mut sched = FairScheduler::new(SchedConfig::default());
        sched.add_tenant("t", 1);
        for j in [5, 3, 9] {
            sched.enqueue("t", j, 1, Duration::ZERO);
        }
        let order: Vec<u32> = (0..3)
            .map(|_| sched.next(Duration::ZERO, 4).unwrap().job)
            .collect();
        assert_eq!(order, vec![5, 3, 9]);
    }

    #[test]
    fn drain_empties_every_queue() {
        let mut sched = FairScheduler::new(SchedConfig::default());
        sched.add_tenant("a", 1);
        sched.add_tenant("b", 1);
        sched.enqueue("a", 1, 1, Duration::ZERO);
        sched.enqueue("b", 2, 1, Duration::ZERO);
        let mut drained = sched.drain();
        drained.sort_unstable();
        assert_eq!(drained, vec![1, 2]);
        assert_eq!(sched.total_queued(), 0);
    }
}
