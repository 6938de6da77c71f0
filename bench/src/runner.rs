//! One workload, one process: the closed submit-wait-verify loop that
//! yields the end-to-end metrics, and the traced variant that yields
//! the layer ledger.
//!
//! Load shape: one submitter thread. It submits a job, waits for the
//! report, verifies and deletes the output outside the job's clock, and
//! submits again until the measurement window closes.
//!
//! Times are reported in *speed-normalised seconds*. The probe box is a
//! 2-vCPU guest whose speed at memory- and float-heavy code swings by
//! up to 1.7x for seconds to minutes at a time (busy neighbours), which
//! moved raw job medians by 15 to 35 % between identical runs. Every
//! timed section is therefore bracketed by two readings of a probe: the
//! workload's hand-written floor (`floor.rs`) on a small sample, about
//! a millisecond of the same kind of code the job runs. A section's
//! seconds are scaled down by how much slower than nominal the probe
//! ran around it ([`normalise`]). The same runs then agree within 2 to
//! 5 %.

use std::time::Instant;

use crate::layers::{self, Engine, Expected, Floor, Input, Job};
use crate::replay;
use crate::report::{median, quartiles, Json, Metric, END_TO_END};
use crate::spans::Spans;
use crate::workloads::Workload;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest timed jobs a run reports on, whatever `--seconds` says.
const MIN_JOBS: usize = 5;
/// Fewest untraced/traced job pairs behind `trace.bench_overhead`.
const MIN_PAIRS: usize = 3;

/// How strongly the engine's sections follow the probe: a section takes
/// `slowdown ^ TRACKING` times its quiet-machine time. Less than 1
/// because a job also waits on hand-offs, sleeps and system calls that
/// do not slow down with the machine. Fitted over 300 runs: run-level
/// regressions of log time on log slowdown gave 0.6 to 0.85 for every
/// workload, and 0.75 leaves the smallest spread between runs overall
/// (1.0 over-corrects: 4 to 9 % where 0.75 leaves 2 to 5 %).
const TRACKING: f64 = 0.75;

/// The seconds a section of `raw_s` would have taken on the quiet probe
/// box, given the machine's `slowdown` around it.
fn normalise(raw_s: f64, slowdown: f64) -> f64 {
    raw_s / slowdown.powf(TRACKING)
}

/// What one run of one workload reports.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Human-readable lines (medians with quartiles and sample counts).
    pub notes: Vec<String>,
    /// The span file's content, on traced runs.
    pub spans: Option<Json>,
}

#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

// ---------------------------------------------------------------------------
// The speed probe
// ---------------------------------------------------------------------------

/// The workload's floor on its sample, read as a speed gauge.
struct Probe {
    floor: Floor,
    nominal_s: f64,
}

/// A closure's result with its wall seconds and the machine's slowdown
/// (probe time over nominal, 1.0 on a quiet probe box) around it.
struct Clocked<T> {
    out: T,
    raw_s: f64,
    slowdown: f64,
}

impl Probe {
    fn new(w: &Workload, seed: u64) -> Probe {
        Probe {
            floor: Floor::new(w, seed),
            nominal_s: w.floor_nominal_ms / 1e3,
        }
    }

    /// Fastest of three runs: a stray preemption only ever adds time.
    fn reading(&self) -> f64 {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                self.floor.probe();
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Time `f` inside a span, between two probe readings.
    fn clock<T>(&self, spans: &mut Spans, name: &str, f: impl FnOnce() -> T) -> Clocked<T> {
        let before = self.reading();
        let (out, raw_s) = spans.time(name, |_| f());
        let after = self.reading();
        Clocked {
            out,
            raw_s,
            slowdown: (before + after) / 2.0 / self.nominal_s,
        }
    }
}

// ---------------------------------------------------------------------------
// Set-up and jobs
// ---------------------------------------------------------------------------

/// Generate, load, build the cluster and run the warm-up job.
struct Setup {
    input: Input,
    engine: Engine,
    warmup: Result<Job, String>,
    /// Generation + load + warm-up job, normalised, without verification.
    secs: f64,
    raw_secs: f64,
}

/// Whether the job's wall clock follows machine speed. A store that
/// sleeps for every read sets the wall by those sleeps, so such a job's
/// wall is reported as measured. Its CPU seconds follow the machine like
/// any other job's and are normalised.
fn wall_follows_machine(w: &Workload) -> bool {
    w.paced_io.is_none()
}

fn setup(w: &Workload, seed: u64, probe: &Probe, spans: &mut Spans) -> Setup {
    let ((input, engine, warmup, secs, raw_secs), _) = spans.time("setup", |spans| {
        let prepared = probe.clock(spans, "generate_and_load", || {
            let input = layers::generate(w, seed);
            let engine = Engine::load(w, &input, seed);
            (input, engine)
        });
        let (input, engine) = prepared.out;
        let warm = probe.clock(spans, "warmup_job", || engine.run_job());
        let warm_slowdown = if wall_follows_machine(w) {
            warm.slowdown
        } else {
            1.0
        };
        let secs =
            normalise(prepared.raw_s, prepared.slowdown) + normalise(warm.raw_s, warm_slowdown);
        (input, engine, warm.out, secs, prepared.raw_s + warm.raw_s)
    });
    Setup {
        input,
        engine,
        warmup,
        secs,
        raw_secs,
    }
}

/// Verify a finished job against the reference and delete its output.
/// Failures are counted and reported, and yield `None`.
fn settle(
    engine: &Engine,
    expected: &Expected,
    result: Result<Job, String>,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Option<Job> {
    tally.attempted += 1;
    let verdict = result.and_then(|job| {
        let (checked, _) = spans.time("verify", |_| engine.verify(&job, expected));
        checked.map(|()| job)
    });
    spans.time("clear_output", |_| engine.clear_output());
    match verdict {
        Ok(job) => Some(job),
        Err(e) => {
            eprintln!("job {} FAILED: {e}", tally.attempted);
            tally.failed += 1;
            None
        }
    }
}

/// A verified job with the wall and process-CPU seconds of its
/// `Cluster::run` call and the slowdown around it.
struct JobSample {
    job: Job,
    wall_s: f64,
    cpu_s: f64,
    slowdown: f64,
}

/// Submit one job and wait for it, timing wall and process CPU around
/// exactly the `Cluster::run` call.
fn timed_job(
    engine: &Engine,
    expected: &Expected,
    probe: &Probe,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Option<JobSample> {
    let run = probe.clock(spans, "job", || {
        let cpu0 = process_cpu_seconds();
        let result = engine.run_job();
        (result, process_cpu_seconds() - cpu0)
    });
    let (result, cpu_s) = run.out;
    settle(engine, expected, result, spans, tally).map(|job| JobSample {
        job,
        wall_s: run.raw_s,
        cpu_s,
        slowdown: run.slowdown,
    })
}

fn describe(name: &str, unit: &str, samples: &[f64]) -> String {
    let (q1, med, q3) = quartiles(samples);
    format!(
        "{name}: median {med:.4} {unit} (q1 {q1:.4}, q3 {q3:.4}, n {})",
        samples.len()
    )
}

/// The untraced run: end-to-end metrics only.
pub fn run_end_to_end(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut spans = Spans::new(false);
    let mut tally = Tally::default();
    let probe = Probe::new(w, seed);

    let first = setup(w, seed, &probe, &mut spans);
    let (mut setups, mut raw_setups) = (vec![first.secs], vec![first.raw_secs]);
    let expected = layers::expected(w, &first.input, seed);
    settle(
        &first.engine,
        &expected,
        first.warmup,
        &mut spans,
        &mut tally,
    );
    // The generator's copy of the records must not count towards the
    // job's memory: drop it, then restart the high-water mark.
    drop(first.input);
    let engine = first.engine;
    let rss_reset = reset_peak_rss();

    let window = Instant::now();
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let (mut raw_walls, mut slowdowns) = (Vec::new(), Vec::new());
    let mut submitted = 0;
    while window.elapsed().as_secs_f64() < seconds || submitted < MIN_JOBS {
        submitted += 1;
        // Keep the numbers only: a held report would grow the heap.
        if let Some(s) = timed_job(&engine, &expected, &probe, &mut spans, &mut tally) {
            let wall_slowdown = if wall_follows_machine(w) {
                s.slowdown
            } else {
                1.0
            };
            walls.push(normalise(s.wall_s, wall_slowdown));
            cpus.push(normalise(s.cpu_s, s.slowdown));
            raw_walls.push(s.wall_s);
            slowdowns.push(s.slowdown);
        }
    }
    let peak_rss_mb = peak_rss_mb()?;
    let input_mb = engine.input_mb();
    drop(engine);
    if walls.is_empty() {
        return Err("no timed job succeeded".into());
    }

    for _ in 1..SETUPS {
        let again = setup(w, seed, &probe, &mut spans);
        setups.push(again.secs);
        raw_setups.push(again.raw_secs);
        settle(
            &again.engine,
            &expected,
            again.warmup,
            &mut spans,
            &mut tally,
        );
    }

    let wall = median(&walls);
    let values = [
        ("job_wall_s", wall),
        ("throughput_mb_s", input_mb / wall),
        ("job_cpu_s", median(&cpus)),
        ("peak_rss_mb", peak_rss_mb),
        ("setup_s", median(&setups)),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(e, (name, value))| {
            assert_eq!(e.name, name, "END_TO_END order");
            Metric::new(name, value, e.unit)
        })
        .collect();
    let mut notes = vec![
        describe("job_wall_s", "s", &walls),
        describe("job_cpu_s", "s", &cpus),
        describe("setup_s", "s", &setups),
        describe("raw job wall", "s", &raw_walls),
        describe("raw set-up", "s", &raw_setups),
        describe("slowdown (probe over nominal)", "x", &slowdowns),
        format!("input {input_mb:.2} MB, {} timed jobs", walls.len()),
    ];
    if !rss_reset {
        notes.push("peak_rss_mb includes set-up: /proc/self/clear_refs not writable".into());
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
        spans: None,
    })
}

/// The traced run: per-layer metrics only, all as measured (nothing is
/// normalised here; `floor.slowdown` says how the machine was doing).
/// Untraced and traced jobs alternate for about half of `seconds`; the
/// last traced job's report gives the realised numbers, then each layer
/// is replayed standalone.
pub fn run_traced(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut spans = Spans::new(true);
    let mut tally = Tally::default();
    let probe = Probe::new(w, seed);

    let s = setup(w, seed, &probe, &mut spans);
    let (expected, _) = spans.time("expected", |_| layers::expected(w, &s.input, seed));
    settle(&s.engine, &expected, s.warmup, &mut spans, &mut tally);

    let window = Instant::now();
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut slowdowns = Vec::new();
    let mut last = None;
    while window.elapsed().as_secs_f64() < seconds / 2.0 || traced_walls.len() < MIN_PAIRS {
        for enabled in [false, true] {
            spans.set_enabled(enabled);
            if let Some(s) = timed_job(&s.engine, &expected, &probe, &mut spans, &mut tally) {
                let walls = if enabled {
                    &mut traced_walls
                } else {
                    &mut untraced_walls
                };
                walls.push(s.wall_s);
                slowdowns.push(s.slowdown);
                if enabled {
                    last = Some(s.job);
                }
            }
        }
        if tally.failed > MIN_PAIRS {
            return Err("jobs keep failing".into());
        }
    }
    if untraced_walls.is_empty() {
        return Err("no untraced job succeeded".into());
    }
    let last: Job = last.ok_or("no traced job succeeded")?;

    let mut metrics = last.layer_metrics();
    let mut analysis_secs = Vec::new();
    for _ in 0..3 {
        analysis_secs.push(spans.time("gw-trace/analysis", |_| last.reanalyze()).1);
    }
    metrics.push(Metric::new(
        "trace.analysis_ms",
        median(&analysis_secs) * 1e3,
        "ms",
    ));
    metrics.push(Metric::new(
        "trace.bench_overhead",
        median(&traced_walls) / median(&untraced_walls),
        "ratio",
    ));
    metrics.push(Metric::new(
        "floor.probe_ms",
        median(&slowdowns) * w.floor_nominal_ms,
        "ms",
    ));
    metrics.push(Metric::new("floor.slowdown", median(&slowdowns), "ratio"));

    let ledger = replay::replay(w, &s.input, seed, &mut spans);
    let traced_wall = median(&traced_walls);
    let mut over = |name: &str, denominator: &str| {
        let base = ledger
            .iter()
            .find(|m| m.name == denominator)
            .map_or(f64::NAN, |m| m.value);
        metrics.push(Metric::new(name, traced_wall / base, "ratio"));
    };
    over("job.over_reference", "apps.reference_s");
    over("job.over_floor", "floor.full_s");
    metrics.extend(ledger);

    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes: vec![
            describe("untraced job wall", "s", &untraced_walls),
            describe("traced job wall", "s", &traced_walls),
        ],
        spans: Some(spans.to_json(w.name)),
    })
}

// ---------------------------------------------------------------------------
// Process accounting from /proc
// ---------------------------------------------------------------------------

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads /proc and the 64-bit Linux timespec");

/// User + system CPU seconds of this process, all threads, including
/// those already joined, from the scheduler's nanosecond accounting.
/// (`/proc/self/stat` is sampled at the 100 Hz tick, which aliases with
/// the timer-driven wake-ups of a paced job: identical runs of
/// `wc_paced_io` read 0.36 s and 0.49 s per job.)
fn process_cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` — two 64-bit
    // fields on every 64-bit Linux target, which the `cfg` above
    // enforces — and the C library only writes through the pointer
    // during the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Restart the resident-set high-water mark at the current size.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
