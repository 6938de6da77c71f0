//! End-to-end benchmark of the Glasswing engine with a layer ledger.
//!
//! ```text
//! bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! bench [--seed N] [--seconds S] [--trace 0|1]      every workload
//! bench --agree A.json B.json
//! ```
//!
//! One workload runs in this process and ends its standard output with
//! one JSON line: `correct`, `attempted`, `failed`, `metrics`. Without
//! `--workload`, each workload runs in a child process of its own (so
//! memory and CPU are per workload) and `bench/out/result.json` gathers
//! the lines. See README.md beside this package.

mod floor;
mod layers;
mod replay;
mod report;
mod runner;
mod spans;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use report::{obj, Json};
use workloads::{Workload, WORKLOADS};

/// Default measurement window; BENCHMARK.json's `run_seconds`.
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    agree: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        agree: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--agree" => args.agree = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// `bench/out/`, where result, span and spill files go.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match (&args.agree, &args.workload) {
        (Some((a, b)), _) => agree(a, b),
        (None, Some(name)) => match workloads::find(name) {
            Some(w) => one_workload(w, &args),
            None => Err(format!(
                "unknown workload {name}; known: {}",
                WORKLOADS.map(|w| w.name).join(", ")
            )),
        },
        (None, None) => every_workload(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}

fn agree(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| report::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (table, ok) = report::agree(&load(a)?, &load(b)?)?;
    print!("{table}");
    println!("{}", if ok { "agree" } else { "DISAGREE" });
    Ok(ok)
}

/// Run one workload in this process and print its result line.
fn one_workload(w: &Workload, args: &Args) -> Result<bool, String> {
    let out = out_dir();
    // Spill files go where `std::env::temp_dir()` points: keep them
    // inside the package. Set before any engine thread exists.
    let tmp = out.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# workload {} seed {} seconds {} trace {} nproc {nproc}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    println!("# why: {}", w.why);
    let run = if args.trace {
        runner::run_traced(w, args.seed, args.seconds)
    } else {
        runner::run_end_to_end(w, args.seed, args.seconds)
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let outcome = run?;

    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(spans) = &outcome.spans {
        let path = out.join(format!("trace-{}.json", w.name));
        std::fs::write(&path, spans.render()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# spans written to {}", path.display());
    }
    let correct = outcome.failed == 0;
    let line = obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", report::metrics_json(&outcome.metrics)),
    ]);
    println!("{}", line.render());
    Ok(correct)
}

/// Run every workload, each in a child process, and gather the result
/// lines into `bench/out/result.json`.
fn every_workload(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        let child = |trace: bool| -> Result<Json, String> {
            let output = Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn {}: {e}", w.name))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            let last = stdout.lines().last().unwrap_or_default();
            report::parse(last)
                .map_err(|e| format!("{}: no result line ({e}); exit {}", w.name, output.status))
        };
        let mut result = child(false)?;
        if args.trace {
            let traced = child(true)?;
            all_correct &= traced.get("correct") == Some(&Json::Bool(true));
            if let (Json::Obj(r), Some(layers)) = (&mut result, traced.get("metrics")) {
                r.insert("layers".into(), layers.clone());
            }
        }
        all_correct &= result.get("correct") == Some(&Json::Bool(true));
        results.push((w.name, result));
    }

    let tool = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            })
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = obj([
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::Str(tool("rustc", &["--version"]))),
        ("git_sha", Json::Str(tool("git", &["rev-parse", "HEAD"]))),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("spill_dir", Json::Str(out_dir().display().to_string())),
        ("workloads", obj(results)),
    ]);
    let path = out_dir().join("result.json");
    std::fs::write(&path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# results written to {}", path.display());
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{Better, END_TO_END};

    /// BENCHMARK.json at the repo root must say what this package does.
    #[test]
    fn benchmark_json_matches_the_code() {
        let doc = report::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let text = |j: &Json, key: &str| match j.get(key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text(j, "name"), w.name);
            assert_eq!(text(j, "why"), w.why);
        }

        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (j, e) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(text(j, "name"), e.name);
            assert_eq!(text(j, "unit"), e.unit);
            let better = match e.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(text(j, "better"), better);
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(e.bound));
        }

        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }
}
