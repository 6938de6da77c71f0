//! The Configuration API (paper §III-F): "allows developers to specify key
//! job parameters ... input files ... which compute devices are to be used
//! and configure the pipeline buffering levels."

use std::time::Duration;

use gw_device::DeviceProfile;
use gw_pipeline::StageId;
use gw_trace::Advice;

use crate::collect::CollectorKind;

// The buffering level moved into the shared stage-graph executor (it is
// the executor's token-group depth); the historical `gw_core` path stays.
pub use gw_pipeline::Buffering;

/// Which duration the stage timers report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingMode {
    /// Measured host wall time.
    Wall,
    /// Device/storage-model time (profile-transformed); equals wall for
    /// host CPU devices with free I/O models.
    Modeled,
}

impl TimingMode {
    /// The duration a stage reports as its modeled time: the measured
    /// `wall` under [`TimingMode::Wall`], the model's figure otherwise.
    pub(crate) fn pick(self, wall: Duration, modeled: Duration) -> Duration {
        match self {
            TimingMode::Wall => wall,
            TimingMode::Modeled => modeled,
        }
    }
}

/// Full job configuration.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Input file path in the job's file store.
    pub input: String,
    /// Output directory; each partition writes `{output}/part-r-{global}`.
    pub output: String,
    /// Compute device profile used by every node.
    pub device: DeviceProfile,
    /// Real host threads per node's device pool (caps the profile's
    /// compute units; in-process clusters share the machine, so keep
    /// `nodes * device_threads` within the host).
    pub device_threads: usize,
    /// Map kernel NDRange global size (work items per chunk).
    pub map_work_items: usize,
    /// Map kernel work-group size.
    pub work_group: usize,
    /// Pipeline buffering level.
    pub buffering: Buffering,
    /// Output-collection mechanism for the map kernel.
    pub collector: CollectorKind,
    /// Collector arena capacity in bytes (per in-flight chunk).
    pub collector_capacity: usize,
    /// Hash-table bucket count (hash-table collector only).
    pub hash_buckets: usize,
    /// Partitioning threads per node (the paper's `N`, Fig. 4a). Threads
    /// own whole partitions, so a chunk yields one run per partition; a
    /// thread beyond the job's partition count `P` splits a partition
    /// (`⌊N/P⌋` runs of each).
    pub partition_threads: usize,
    /// Partitions per node (the paper's `P`, Fig. 4b). The global partition
    /// count is `P * nodes`.
    pub partitions_per_node: u32,
    /// Background merger/flusher threads (the paper ties this to `P`).
    pub merger_threads: usize,
    /// Compress cached/spilled intermediate data.
    pub compress_intermediate: bool,
    /// Bound on resident intermediate bytes per node (paper §III-B's
    /// larger-than-memory regime), and the one spill setting, from which
    /// `IntermediateConfig::with_memory_budget` derives the spill policy;
    /// backpressure keeps peak resident intermediate bytes ≤ ~1.5× it.
    /// `None` means 64 MiB; a set budget is at least
    /// `IntermediateConfig::min_memory_budget(merger_threads)`.
    pub memory_budget: Option<usize>,
    /// Reduce: number of keys processed concurrently per kernel launch.
    pub reduce_concurrent_keys: usize,
    /// Reduce: keys each work item processes sequentially (amortises
    /// kernel launch overhead; paper Fig. 5).
    pub reduce_keys_per_thread: usize,
    /// Reduce: maximum values for one key per kernel invocation; larger
    /// value lists carry scratch state across invocations.
    pub reduce_max_values_per_chunk: usize,
    /// Reduce: work items cooperating on one key's value chunk (the
    /// paper's first form of reduce parallelism, "advantageous to
    /// compute-intensive applications that can benefit from parallel
    /// reduction"). Only effective when the application's
    /// [`crate::GwApp::merge_states`] declares the reduction associative;
    /// `1` keeps per-key reduction sequential.
    pub reduce_threads_per_key: usize,
    /// Replication factor for job output files.
    pub output_replication: usize,
    /// Output file block size.
    pub output_block_size: usize,
    /// Which durations timers report.
    pub timing: TimingMode,
    /// Map-task re-execution budget: a chunk whose kernel fails is
    /// discarded and re-executed up to this many times before the job
    /// fails (paper §III-E: "if a task fails, its partial output is
    /// discarded and its input is rescheduled for processing"). `0`
    /// matches the paper's unmodified system (no failure handling). The
    /// same budget governs reduce-task re-execution.
    pub max_task_retries: usize,
    /// Wall-clock deadline for the whole job. When set, a master-side
    /// watchdog aborts the job and returns
    /// [`crate::EngineError::JobTimeout`] once it expires — the job never
    /// hangs, even when recovery itself gets stuck. `None` (the default)
    /// disables the watchdog.
    pub job_deadline: Option<std::time::Duration>,
    /// A node whose last heartbeat is older than this is declared dead and
    /// its work rescheduled. A node's shuffle receiver heartbeats on every
    /// tick of at most 2 ms, which this must exceed.
    pub node_timeout: std::time::Duration,
    /// Speculative re-execution of straggler map tasks (DESIGN.md §3.8).
    pub speculation: SpeculationConfig,
    /// Worker-lane counts for the map pipeline's widenable stages
    /// (DESIGN.md §3.9). The default single-lane plan reproduces the
    /// historical pipeline exactly.
    pub lane_plan: LanePlan,
}

/// Worker-lane counts per map-pipeline stage slot: the vertical-scaling
/// knob (DESIGN.md §3.9). A widened slot runs `lanes` copies of the
/// stage, distributes chunks round-robin by sequence number and
/// reassembles them in sequence order at the slot's exit, so job output
/// bytes are identical at every lane count.
///
/// Only Input, Kernel and Partition widen. Stage (H2D) and Retrieve
/// (D2H) stay single-lane: they are slots of discrete-memory graphs
/// only, and there they serialize on the one transfer link anyway. Reduce-side stages also stay single-lane — the reduce
/// kernel carries per-key scratch state across value chunks, which
/// requires chunks of one key to arrive FIFO at a single stage instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LanePlan {
    /// Lanes for the Input stage (claiming is serialized in sequence
    /// order; split read+parse overlaps across lanes).
    pub input: usize,
    /// Lanes for the map Kernel stage.
    pub kernel: usize,
    /// Lanes for the Partition stage.
    pub partition: usize,
}

impl Default for LanePlan {
    fn default() -> Self {
        LanePlan {
            input: 1,
            kernel: 1,
            partition: 1,
        }
    }
}

impl LanePlan {
    /// Upper bound on any stage's lane count (sanity cap, not a tuning
    /// recommendation).
    pub const MAX_LANES: usize = 16;

    /// The historical single-lane pipeline.
    pub fn single() -> Self {
        LanePlan::default()
    }

    /// `true` when every stage runs one lane (the executor spawns the
    /// exact historical thread set).
    pub fn is_single(&self) -> bool {
        self.input == 1 && self.kernel == 1 && self.partition == 1
    }

    /// Lane count for a map stage slot. Non-widenable slots report 1.
    pub fn lanes_for(&self, stage: StageId) -> usize {
        match stage {
            StageId::Input => self.input,
            StageId::Kernel => self.kernel,
            StageId::Partition => self.partition,
            StageId::Stage | StageId::Retrieve => 1,
        }
    }

    /// Set one stage's lane count (non-widenable slots are left at 1).
    pub fn with_stage(mut self, stage: StageId, lanes: usize) -> Self {
        match stage {
            StageId::Input => self.input = lanes,
            StageId::Kernel => self.kernel = lanes,
            StageId::Partition => self.partition = lanes,
            StageId::Stage | StageId::Retrieve => {}
        }
        self
    }

    /// Whether a map stage slot can be widened at all.
    pub fn widenable(stage: StageId) -> bool {
        matches!(stage, StageId::Input | StageId::Kernel | StageId::Partition)
    }

    /// Close the advisor loop (auto-lanes): choose lane counts from a
    /// prior run's [`Advice`]. Doubles the lanes of the advisor-named
    /// bottleneck stage when it is widenable and its predicted doubling
    /// speedup clears 2%; otherwise falls back to the best widenable
    /// entry in `lane_scaling`; stays single-lane when no stage clears
    /// the bar (adding lanes costs threads and reorder pressure, so a
    /// sub-2% prediction is not worth acting on).
    pub fn from_advice(advice: &Advice) -> Self {
        const MIN_GAIN: f64 = 1.02;
        let pick = advice
            .bottleneck
            .filter(|s| Self::widenable(*s) && advice.doubling_speedup(*s) >= MIN_GAIN)
            .or_else(|| {
                advice
                    .lane_scaling
                    .iter()
                    .filter(|(s, x)| Self::widenable(*s) && *x >= MIN_GAIN)
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .map(|(s, _)| *s)
            });
        match pick {
            Some(stage) => LanePlan::single().with_stage(stage, 2),
            None => LanePlan::single(),
        }
    }

    /// Validate lane counts; returns the first violation.
    pub fn validate(&self) -> Result<(), String> {
        for (name, lanes) in [
            ("input", self.input),
            ("kernel", self.kernel),
            ("partition", self.partition),
        ] {
            if lanes == 0 {
                return Err(format!("lane_plan.{name} must be ≥ 1"));
            }
            if lanes > Self::MAX_LANES {
                return Err(format!(
                    "lane_plan.{name} exceeds the {} lane cap",
                    Self::MAX_LANES
                ));
            }
        }
        Ok(())
    }
}

/// Policy for speculative re-execution of straggler tasks.
///
/// Idle nodes clone a task whose claim has been outstanding longer than
/// `threshold_pct`% of the median completed-task duration (and at least
/// `min_runtime`). Clones race their primaries first-finisher-wins; the
/// tagged-run ledger plus receiver-side de-dup guarantee output bytes are
/// identical with or without speculation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SpeculationConfig {
    /// Master switch. Off by default: speculation costs duplicate work.
    pub enabled: bool,
    /// A task is a straggler once its claim age exceeds this percent of
    /// the median completed-task duration (150 = 1.5× the median). Must be
    /// ≥ 100 when enabled.
    pub threshold_pct: u32,
    /// Claim-age floor below which a task is never speculated, so short
    /// tasks don't trip the percentile on timer noise.
    pub min_runtime: std::time::Duration,
    /// Maximum speculative launches per job. Must be ≥ 1 when enabled.
    pub budget: usize,
    /// Minimum pause between consecutive speculative launches.
    pub backoff: std::time::Duration,
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        SpeculationConfig {
            enabled: false,
            threshold_pct: 150,
            min_runtime: std::time::Duration::from_millis(20),
            budget: 4,
            backoff: std::time::Duration::from_millis(25),
        }
    }
}

impl JobConfig {
    /// A configuration with the paper's defaults (double buffering, hash
    /// table + combiner handled by the app, HDFS-style replication 3) and
    /// host-appropriate sizes.
    pub fn new(input: impl Into<String>, output: impl Into<String>) -> Self {
        JobConfig {
            input: input.into(),
            output: output.into(),
            device: DeviceProfile::host(),
            device_threads: 2,
            map_work_items: 64,
            work_group: 16,
            buffering: Buffering::Double,
            collector: CollectorKind::HashTable,
            collector_capacity: 8 << 20,
            hash_buckets: 4096,
            partition_threads: 2,
            partitions_per_node: 1,
            merger_threads: 1,
            compress_intermediate: true,
            memory_budget: None,
            reduce_concurrent_keys: 256,
            reduce_keys_per_thread: 4,
            reduce_max_values_per_chunk: 4096,
            reduce_threads_per_key: 1,
            output_replication: 3,
            output_block_size: 8 << 20,
            timing: TimingMode::Wall,
            max_task_retries: 0,
            job_deadline: None,
            node_timeout: std::time::Duration::from_millis(1000),
            speculation: SpeculationConfig::default(),
            lane_plan: LanePlan::default(),
        }
    }

    /// Auto-lanes mode: adopt lane counts chosen from a prior run's
    /// advisor output (see [`LanePlan::from_advice`]).
    pub fn with_auto_lanes(mut self, advice: &Advice) -> Self {
        self.lane_plan = LanePlan::from_advice(advice);
        self
    }

    /// Validate invariants; returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.input.is_empty() {
            return Err("input path is empty".into());
        }
        if self.output.is_empty() {
            return Err("output path is empty".into());
        }
        if self.map_work_items == 0 || self.work_group == 0 {
            return Err("map NDRange sizes must be nonzero".into());
        }
        if self.partitions_per_node == 0 {
            return Err("at least one partition per node".into());
        }
        if self.partition_threads == 0 || self.merger_threads == 0 {
            return Err("at least one partitioning thread and one merger thread".into());
        }
        if self.reduce_concurrent_keys == 0
            || self.reduce_keys_per_thread == 0
            || self.reduce_max_values_per_chunk == 0
            || self.reduce_threads_per_key == 0
        {
            return Err("reduce parallelism parameters must be nonzero".into());
        }
        if self.collector_capacity < 1024 {
            return Err("collector capacity unreasonably small".into());
        }
        // The smallest budget whose derived limits keep a store of this
        // many mergers within 1.5× of it.
        let floor = gw_intermediate::IntermediateConfig::min_memory_budget(self.merger_threads);
        if self.memory_budget.is_some_and(|b| b < floor) {
            return Err(format!(
                "memory_budget must be at least {floor} B when set, for {} merger threads",
                self.merger_threads
            ));
        }
        if self.output_replication == 0 {
            return Err("output replication must be ≥ 1".into());
        }
        if self.node_timeout <= crate::cluster::RX_TICK {
            return Err("node_timeout must exceed the shuffle receiver's tick".into());
        }
        if self.job_deadline == Some(std::time::Duration::ZERO) {
            return Err("job_deadline must be nonzero when set".into());
        }
        if self.speculation.enabled {
            if self.speculation.threshold_pct < 100 {
                return Err("speculation threshold must be ≥ 100% of the median".into());
            }
            if self.speculation.budget == 0 {
                return Err("speculation budget must be ≥ 1 when enabled".into());
            }
        }
        self.lane_plan.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(JobConfig::new("/in", "/out").validate(), Ok(()));
    }

    #[test]
    fn buffering_depths() {
        assert_eq!(Buffering::Single.depth(), 1);
        assert_eq!(Buffering::Double.depth(), 2);
        assert_eq!(Buffering::Triple.depth(), 3);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = JobConfig::new("/in", "/out");
        c.partitions_per_node = 0;
        assert!(c.validate().is_err());

        let mut c = JobConfig::new("", "/out");
        c.partitions_per_node = 1;
        assert!(c.validate().is_err());

        let mut c = JobConfig::new("/in", "/out");
        c.reduce_concurrent_keys = 0;
        assert!(c.validate().is_err());

        let mut c = JobConfig::new("/in", "/out");
        c.output_replication = 0;
        assert!(c.validate().is_err());

        let mut c = JobConfig::new("/in", "/out");
        c.merger_threads = 0;
        assert!(c.validate().is_err());

        // Four mergers need 48 KiB: the two-merger floor is too small.
        let mut c = JobConfig::new("/in", "/out");
        c.merger_threads = 4;
        c.memory_budget = Some(gw_intermediate::IntermediateConfig::MIN_MEMORY_BUDGET);
        assert!(c.validate().is_err());
    }

    #[test]
    fn a_memory_budget_under_the_floor_is_rejected() {
        let mut c = JobConfig::new("/in", "/out");
        let floor = gw_intermediate::IntermediateConfig::MIN_MEMORY_BUDGET;
        for (budget, valid) in [(0, false), (floor - 1, false), (floor, true)] {
            c.memory_budget = Some(budget);
            assert_eq!(c.validate().is_ok(), valid, "budget {budget}");
        }
    }

    #[test]
    fn liveness_timing_is_validated() {
        let mut c = JobConfig::new("/in", "/out");
        c.node_timeout = crate::cluster::RX_TICK;
        assert!(c.validate().is_err());

        let mut c = JobConfig::new("/in", "/out");
        c.job_deadline = Some(std::time::Duration::ZERO);
        assert!(c.validate().is_err());

        let mut c = JobConfig::new("/in", "/out");
        c.job_deadline = Some(std::time::Duration::from_secs(60));
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn lane_plan_is_validated() {
        let mut c = JobConfig::new("/in", "/out");
        assert!(c.lane_plan.is_single());
        c.lane_plan.kernel = 0;
        assert!(c.validate().is_err());
        c.lane_plan.kernel = LanePlan::MAX_LANES + 1;
        assert!(c.validate().is_err());
        c.lane_plan.kernel = 4;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn lane_plan_only_widens_widenable_stages() {
        let p = LanePlan::single()
            .with_stage(StageId::Stage, 4)
            .with_stage(StageId::Retrieve, 4)
            .with_stage(StageId::Input, 3);
        assert_eq!(p.lanes_for(StageId::Stage), 1);
        assert_eq!(p.lanes_for(StageId::Retrieve), 1);
        assert_eq!(p.lanes_for(StageId::Input), 3);
        assert_eq!(p.lanes_for(StageId::Kernel), 1);
        assert!(!p.is_single());
    }

    #[test]
    fn auto_lanes_follow_the_advisor() {
        // Bottleneck named and widenable: double exactly that stage.
        let advice = Advice {
            bottleneck: Some(StageId::Input),
            lane_scaling: vec![
                (StageId::Input, 1.28),
                (StageId::Kernel, 1.05),
                (StageId::Partition, 1.01),
            ],
            ..Default::default()
        };
        assert_eq!(
            LanePlan::from_advice(&advice),
            LanePlan {
                input: 2,
                kernel: 1,
                partition: 1
            }
        );
        // Bottleneck not widenable: fall back to the best widenable gain.
        let advice = Advice {
            bottleneck: Some(StageId::Retrieve),
            lane_scaling: vec![(StageId::Retrieve, 1.30), (StageId::Kernel, 1.10)],
            ..Default::default()
        };
        assert_eq!(LanePlan::from_advice(&advice).kernel, 2);
        // Nothing clears the 2% bar: stay single-lane.
        let advice = Advice {
            bottleneck: Some(StageId::Kernel),
            lane_scaling: vec![(StageId::Kernel, 1.01)],
            ..Default::default()
        };
        assert!(LanePlan::from_advice(&advice).is_single());
        assert!(JobConfig::new("/in", "/out")
            .with_auto_lanes(&advice)
            .lane_plan
            .is_single());
    }

    #[test]
    fn speculation_policy_is_validated() {
        let mut c = JobConfig::new("/in", "/out");
        c.speculation.enabled = true;
        assert_eq!(c.validate(), Ok(()));

        c.speculation.threshold_pct = 99;
        assert!(c.validate().is_err());

        c.speculation.threshold_pct = 150;
        c.speculation.budget = 0;
        assert!(c.validate().is_err());

        // Disabled plans skip the policy checks entirely.
        c.speculation.enabled = false;
        assert_eq!(c.validate(), Ok(()));
    }
}
