//! The repository benchmark: end-to-end and per-layer metrics for the
//! serve engine and the tuner, measured from outside through their
//! public APIs.
//!
//! ```text
//! timber-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                  [--sabotage body|golden]
//! ```
//!
//! With `--workload`, one workload runs in this process. Without it,
//! every workload runs in a child process of its own, one after
//! another, so each one's peak resident set is its own. Every run
//! prints its metrics to stderr and, as the last line of stdout, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`;
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones. The line before it carries the run's details
//! (cores, threads, sample counts, output digest).
//!
//! Exit status: 0 when every output check passed and no operation
//! failed, 1 otherwise, 2 for a usage error. `--sabotage` corrupts one
//! response body or one byte of the tune golden before it is checked,
//! to show the checks fail.

mod serve;
mod stats;
mod trace;
mod tune;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use serde_json::{json, Value};

/// Every workload, in run order.
const WORKLOADS: [&str; 4] = ["serve_cold", "serve_sweep", "serve_warm", "tune"];

/// End-to-end metrics (`--trace 0`), with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Which workloads reach a layer. A layer a workload never calls
/// reports 0 there.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Scope {
    Serve,
    Tune,
    Both,
}

/// Per-layer metrics (`--trace 1`), with their units.
const PER_LAYER: [(&str, &str, Scope); 45] = [
    ("spec.parse_us", "us", Scope::Serve),
    ("spec.canonical_us", "us", Scope::Serve),
    ("key.hash_us", "us", Scope::Serve),
    ("cache.result_probe_us", "us", Scope::Serve),
    ("cache.result_insert_us", "us", Scope::Serve),
    ("integrity.open_us", "us", Scope::Serve),
    ("cache.result_hit_ratio", "ratio", Scope::Serve),
    ("cache.design_hit_ratio", "ratio", Scope::Serve),
    ("compile.total_us", "us", Scope::Serve),
    ("compile.netlist_us", "us", Scope::Serve),
    ("compile.sta_us", "us", Scope::Serve),
    ("compile.hold_plan_us", "us", Scope::Serve),
    ("compile.share", "ratio", Scope::Serve),
    ("evaluate.us", "us", Scope::Serve),
    ("evaluate.sim_cycles_per_s", "cycles/s", Scope::Serve),
    ("evaluate.share", "ratio", Scope::Serve),
    ("executor.batch_us", "us", Scope::Serve),
    ("executor.efficiency", "ratio", Scope::Serve),
    ("executor.overhead_us_per_job", "us", Scope::Serve),
    ("integrity.seal_us", "us", Scope::Serve),
    ("checkpoint.append_us", "us", Scope::Serve),
    ("checkpoint.scan_ms", "ms", Scope::Serve),
    ("checkpoint.resume_ms", "ms", Scope::Serve),
    ("tune.context_us", "us", Scope::Tune),
    ("sta.us", "us", Scope::Tune),
    ("tune.seeding_us", "us", Scope::Tune),
    ("lint.us", "us", Scope::Tune),
    ("analyze.certify_us", "us", Scope::Tune),
    ("power.us", "us", Scope::Tune),
    ("batch.storm_us", "us", Scope::Tune),
    ("tune.objectives_us", "us", Scope::Tune),
    ("batch.lane_cycles_per_s", "lane-cycles/s", Scope::Tune),
    ("tune.context_share", "ratio", Scope::Tune),
    ("sta.share", "ratio", Scope::Tune),
    ("tune.seeding_share", "ratio", Scope::Tune),
    ("lint.share", "ratio", Scope::Tune),
    ("analyze.certify_share", "ratio", Scope::Tune),
    ("power.share", "ratio", Scope::Tune),
    ("batch.storm_share", "ratio", Scope::Tune),
    ("tune.objectives_share", "ratio", Scope::Tune),
    ("tune.scatter_efficiency", "ratio", Scope::Tune),
    ("tune.scored", "count", Scope::Tune),
    ("tune.cert_rejected", "count", Scope::Tune),
    ("trace.coverage", "ratio", Scope::Both),
    ("trace.slowdown", "ratio", Scope::Both),
];

/// A deliberate corruption, to show an output check fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// Flip one byte of the first response body before checking it.
    Body,
    /// Flip one byte of the tune golden document before comparing.
    Golden,
}

/// The settings one workload run takes.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Seed every input is derived from.
    pub seed: u64,
    /// Host seconds the measured loop runs for.
    pub seconds: f64,
    /// Run the traced replica and report per-layer metrics.
    pub trace: bool,
    /// Optional corruption for the check self-tests.
    pub sabotage: Option<Sabotage>,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Output checks that failed, one line each.
    pub problems: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that did not come back ok.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Run details printed beside the result.
    pub info: Vec<(String, Value)>,
}

impl Outcome {
    /// Records a failed check, keeping the first few of a flood.
    pub fn problem(&mut self, message: String) {
        if self.problems.len() < 20 {
            self.problems.push(message);
        }
    }
}

/// Worker threads the engine and the tuner use: one per core.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The benchmark's scratch directory for journals and span files,
/// inside the package's (ignored) `target/` directory.
pub fn scratch_dir() -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/bench");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

struct Args {
    workload: Option<&'static str>,
    settings: Settings,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        settings: Settings {
            seed: 42,
            seconds: 20.0,
            trace: false,
            sabotage: None,
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                out.workload =
                    Some(WORKLOADS.into_iter().find(|w| *w == name).ok_or_else(|| {
                        format!(
                            "unknown workload {name:?} (expected one of: {})",
                            WORKLOADS.join(", ")
                        )
                    })?);
            }
            "--seed" => {
                let text = value("--seed")?;
                out.settings.seed = text
                    .parse()
                    .map_err(|_| format!("--seed {text:?} is not a non-negative integer"))?;
            }
            "--seconds" => {
                let text = value("--seconds")?;
                out.settings.seconds = text
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("--seconds {text:?} is not in (0, 3600]"))?;
            }
            "--trace" => {
                out.settings.trace = match value("--trace")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?} is not 0 or 1")),
                };
            }
            "--sabotage" => {
                out.settings.sabotage = Some(match value("--sabotage")? {
                    "body" => Sabotage::Body,
                    "golden" => Sabotage::Golden,
                    other => {
                        return Err(format!(
                            "unknown sabotage {other:?} (expected body or golden)"
                        ))
                    }
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(out)
}

/// Runs every workload in its own child process and returns the worst
/// exit status.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut worst = 0u8;
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(args)
            .args(["--workload", workload])
            .status();
        let code = match status {
            Ok(s) => s.code().map_or(1, |c| u8::try_from(c).unwrap_or(1)),
            Err(e) => {
                eprintln!("{workload}: cannot start: {e}");
                1
            }
        };
        worst = worst.max(code);
    }
    ExitCode::from(worst)
}

/// The metrics a run reports, in table order, with a problem noted for
/// any the workload should have produced but did not.
fn reported(
    workload: &str,
    trace: bool,
    out: &mut Outcome,
) -> Vec<(&'static str, f64, &'static str)> {
    let serve = workload != "tune";
    let wanted: Vec<(&'static str, &'static str, bool)> = if trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit, scope)| {
                let reached = scope == Scope::Both || (scope == Scope::Serve) == serve;
                (name, unit, reached)
            })
            .collect()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n, u, true)).collect()
    };
    let mut rows = Vec::new();
    for (name, unit, reached) in wanted {
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            None if !reached => 0.0,
            None => {
                out.problem(format!("metric {name} was not measured"));
                0.0
            }
        };
        rows.push((name, value, unit));
    }
    rows
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("timber-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return run_all(&raw);
    };
    let settings = args.settings;
    let result = match workload {
        "tune" => tune::run(settings),
        kind => serve::run(kind, settings),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::from(1);
        }
    };
    let rows = reported(workload, settings.trace, &mut out);
    for (name, value, unit) in &rows {
        eprintln!("{workload:<12} {name:<30} {value:>16.6} {unit}");
    }
    for p in &out.problems {
        eprintln!("{workload}: CHECK FAILED: {p}");
    }
    let correct = out.problems.is_empty();
    let mut info = vec![
        ("workload".to_owned(), json!(workload)),
        ("seed".to_owned(), json!(settings.seed)),
        ("seconds".to_owned(), json!(settings.seconds)),
        ("trace".to_owned(), json!(settings.trace)),
        ("cores".to_owned(), json!(threads())),
        ("threads".to_owned(), json!(threads())),
    ];
    info.append(&mut out.info);
    println!("{}", Value::Object(info));
    let metrics = Value::Object(
        rows.iter()
            .map(|(name, value, unit)| ((*name).to_owned(), json!({"value": value, "unit": unit})))
            .collect(),
    );
    println!(
        "{}",
        json!({
            "correct": correct,
            "attempted": out.attempted,
            "failed": out.failed,
            "metrics": metrics,
        })
    );
    if correct && out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
