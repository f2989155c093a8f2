//! `repro` — regenerates every table and figure of the TIMBER paper.
//!
//! ```text
//! repro [all] [--json] [--threads N]
//! repro table1|fig2|fig5|fig7|validate|dag|glitch
//! repro fig1|fig8 [--json]
//! repro claims|claims-netlist|compare [--json] [--threads N]
//! repro margin|ablation-schedule|ablation-droop|metastability [--threads N]
//! repro bench [--json] [--threads N] [--out BENCH.json]
//! repro trace <claims|claims-netlist> [--telemetry OUT.json] [--threads N]
//! repro bench-check --fresh FRESH.json [--baseline BASE.json]
//!                   [--tolerance 0.15] [--max-overhead 0.5]
//! repro lint [--json] [--deny warn]
//! repro analyze [--json] [--deny warn] [--sabotage]
//! repro conform [--json] [--threads N] [--seed S] [--full] [--sabotage]
//! repro soak [--json] [--threads N] [--seed S] [--cycles N]
//!            [--checkpoint FILE] [--resume] [--stop-after N]
//!            [--inject-panic K] [--inject-hang K]
//!            [--retry-base MS] [--retry-cap MS] [--watchdog MS]
//! repro serve [--socket PATH] [--checkpoint FILE] [--resume]
//!             [--batch-size N] [--capacity N] [--threads N] [--seed S]
//!             [--retry-base MS] [--retry-cap MS] [--watchdog MS]
//! repro storm [--clients N] [--requests M] [--seed S] [--poison K]
//!             [--batch-size N] [--capacity N] [--threads N]
//!             [--chaos-seed S] [--retry-base MS] [--retry-cap MS]
//!             [--json] [--out REPORT.json]
//! repro chaos [--json] [--seed S] [--faults N] [--threads N]
//!             [--sabotage] [--out REPORT.json]
//! repro tune [--json] [--out FRONTIER.json] [--seed S] [--threads N]
//!            [--budget N] [--tolerance T] [--sabotage]
//! repro tune --frontier-check FRONTIER.json [--threads N]
//! ```
//!
//! A value flag is written `--x v` or `--x=v`. Each subcommand accepts
//! exactly the flags listed for it above: any other flag is a usage
//! error, as is a value that does not parse or is out of range.
//!
//! `--threads N` sets the Monte-Carlo sweep worker count (default: all
//! cores; `0` also means all cores). The thread count never changes
//! any number, only wall-clock time. `bench` times the sweep engine
//! and writes the baseline to `--out` (default `BENCH_pipeline.json`;
//! CI writes to a scratch path so the committed baseline is never
//! clobbered), and it always times the bit-sliced 64-lane engine too.
//! `bench-check` gates a fresh measurement: the within-run
//! hardware-independent checks (thread-count invariance, telemetry
//! overhead ratio vs `--max-overhead`, the multi-core scaling floor,
//! and scalar<->bit-sliced equivalence plus the batching speed floor;
//! a document without the `batched` section fails them) always run
//! and report every breach in one invocation, and with `--baseline`
//! the machine-dependent throughput comparison against a committed
//! document runs too (`--tolerance`, two-sided, a fraction in
//! (0, 1)). `trace`
//! runs an experiment with telemetry attached and writes the JSON
//! trace (plus a CSV sibling) to the `--telemetry` path. `lint` runs
//! the `timber-lint` static design-rule checks over every shipped
//! generator config (`--deny warn` also fails on warnings; `--json`
//! emits the machine-readable report). `analyze` runs the
//! `timber-analyze` abstract-interpretation gate: a fixed-point
//! dataflow certifies worst-case borrow, relay-chain and consolidation
//! bounds for every shipped generator config at the gate and
//! overclocked operating points, explicit-state reachability proves the
//! governor ladder's published recovery and period bounds, and a
//! soundness harness replays the conformance surface asserting no
//! dynamic observation exceeds a static bound (`--sabotage` seeds an
//! off-by-one bound the harness must catch, so the run is expected to
//! exit 1; `--deny warn` and `--json` as for `lint`). `conform` runs the differential
//! conformance campaign: the same generated workloads through the
//! analytical simulator and the event-driven gate-level replay, over
//! every `(k_tb, k_ed)` grid point, scheme, and burst shape, failing on
//! any divergence, contract or metamorphic violation, or coverage hole
//! (`--full` triples the trials, `--sabotage` activates the seeded
//! model-B bug so the harness can prove it catches divergences; the
//! report is byte-identical for any `--threads N`). `soak` runs the
//! resilience soak campaign: every storm scenario × every scheme under
//! the escalation-ladder governor, through the hardened executor
//! (panic isolation, watchdog, retry, quarantine). `--checkpoint FILE`
//! logs completed trials; `--resume` pre-loads them so a killed
//! campaign finishes to a byte-identical report; `--stop-after N` is
//! the deterministic stand-in for `kill -9` in resume tests;
//! `--inject-panic K` / `--inject-hang K` append synthetic failing
//! trials that must all land in the quarantine ledger.
//!
//! `serve` starts the persistent evaluation daemon: JSONL requests on
//! stdin (or on a Unix socket with `--socket PATH`), one JSON response
//! line per request, answered from the content-addressed cache and
//! batched onto the hardened executor on a miss. `--checkpoint FILE`
//! doubles as the crash-safe result journal; `--resume` preloads it so
//! a restarted daemon answers warm. A `{"op":"stats"}` request returns
//! the service counters and latency quantiles; `{"op":"shutdown"}`
//! stops the daemon cleanly (EOF on stdin does too). `storm` is the
//! deterministic load generator and replay gate: `--requests M` drawn
//! from a seeded pool, dealt across `--clients N` simulated clients,
//! plus `--poison K` requests that must all quarantine. Its `--json`
//! report (and `--out` copy) is byte-identical for any `--threads`,
//! client count or batch interleaving of the same campaign — responses
//! are canonically ordered by request id and wall-clock latency stays
//! out of the document — and the gate also demands a cache hit rate
//! and a 10x warm-over-cold service-time speedup. With `--chaos-seed S`
//! the storm doubles as the chaos client: seeded per-request priorities
//! and deadlines run against a tight admission-control governor, and
//! every shed or deadline-rejected request is retried with the seeded
//! jittered backoff of `--retry-base`/`--retry-cap` until served.
//! In `soak` and `serve`, `--retry-base MS` / `--retry-cap MS` set the
//! deterministic seeded-jitter backoff between evaluation attempts on
//! the hardened executor (jittered by `--seed`), and `--watchdog MS`
//! the per-attempt wall-clock watchdog. `--capacity` (the result-cache
//! size of `serve` and `storm`) must be at least 1.
//!
//! `chaos` runs the deterministic fault-injection campaign against an
//! in-process server: a seeded `FaultPlan` (splitmix64 counter-mode)
//! flips cache bytes, tears and corrupts journal records, hangs and
//! stalls evaluation attempts, drops request lines mid-batch and
//! injects poison specs, and the gate demands exact accounting — every
//! injected fault detected and recovered or quarantined, zero corrupted
//! responses served, and the final replay byte-identical to an
//! unfaulted oracle for any `--threads N`. `--faults N` scales the
//! campaign, `--sabotage` disables the cache-read checksum so the
//! harness can prove it catches a served corruption (exit 1 *is* the
//! expected self-test outcome).
//!
//! `tune` runs the closed-loop Pareto autotuner over the TIMBER design
//! space: every `(checking period, k_tb, k_ed, δ-increment, seeding)`
//! candidate on both case-study netlists is lint-filtered, certified
//! by the abstract-interpretation analyzer, costed by STA + the power
//! model, storm-scored on the 64-lane Monte-Carlo engine, and folded
//! into a per-design non-dominated frontier over (energy/instr,
//! miss rate, ns/instr). The search validates itself: the frontier
//! must be minimal, the evaluation order must match the enumeration,
//! and the paper's §4 case-study schedules (immediate and deferred at
//! c=30%) must land within the `--tolerance` band of the frontier
//! (default 0.25, never negative). `--budget N` truncates the candidate list (the
//! evaluated prefix is unchanged — objective values never depend on
//! the budget), `--sabotage` leaks a seeded dominated point the
//! validation must catch (exit 1 *is* the expected self-test outcome),
//! and the `--json` document is byte-identical for any `--threads N`.
//! `--frontier-check FRONTIER.json` re-runs the search with the spec
//! recorded inside the committed golden document and fails on any byte
//! of drift.
//!
//! Exit codes: `0` success, `1` a gate failed (bench-check breach,
//! lint findings at the deny threshold, a conformance or storm
//! campaign that does not pass, or a tune run that fails validation or
//! drifts from its golden frontier), `2` usage error.

use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

use timber_bench::{
    ablations, analyzegate, conform, experiments, lintgate, margin, perf, report, soak, trace, tune,
};

/// Every flag, once, grouped by what its value must be (the usage
/// error quotes it); `None` marks a switch.
#[rustfmt::skip]
const FLAGS: &[(&[&str], Option<&str>)] = &[
    (&["json", "full", "sabotage", "resume"], None),
    (&["threads", "seed", "chaos-seed", "cycles", "stop-after", "budget", "batch-size", "capacity",
       "clients", "requests"], Some("a number")),
    (&["inject-panic", "inject-hang", "poison", "faults"], Some("a count")),
    (&["retry-base", "retry-cap", "watchdog"], Some("milliseconds")),
    (&["tolerance"], Some("a fraction, e.g. 0.15")),
    (&["max-overhead"], Some("a fraction, e.g. 0.5")),
    (&["deny"], Some("`warn` or `error`")),
    (&["out", "telemetry", "baseline", "fresh", "frontier-check", "checkpoint"], Some("a file")),
    (&["socket"], Some("a path")),
];

type Flags = &'static [&'static str];

/// One subcommand: the flags it reads (any other flag is a usage
/// error) and the runner that reads them.
struct Command {
    name: &'static str,
    flags: Flags,
    /// What the one operand names, for the subcommand that takes one.
    operand: Option<&'static str>,
    /// The banner of a paper artefact: the rows `repro all` runs.
    title: Option<&'static str>,
    run: fn(&Args),
}

const fn command(name: &'static str, flags: Flags, run: fn(&Args)) -> Command {
    Command {
        name,
        flags,
        operand: None,
        title: None,
        run,
    }
}

const fn figure(name: &'static str, title: &'static str, flags: Flags, run: fn(&Args)) -> Command {
    Command {
        title: Some(title),
        ..command(name, flags, run)
    }
}

const JSON_THREADS: Flags = &["json", "threads"];

/// Every subcommand, in the order the usage error lists them; the
/// figure rows run in this order under `all`.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    command("all", JSON_THREADS, |a| {
        COMMANDS.iter().filter(|c| c.title.is_some()).for_each(|c| c.exec(a));
    }),
    figure("table1", "Table 1: comparison of online timing-error-resilience techniques", &[],
           |_| println!("{}", experiments::table1())),
    figure("fig1", "Fig. 1: critical-path distribution between flip-flops", &["json"], |a| {
        let r = experiments::fig1();
        show(a, report::fig1_json(&r), r.render() + "\n", true);
    }),
    figure("fig2", "Fig. 2: checking-period schedules", &[], |_| println!("{}", experiments::fig2())),
    figure("fig5", "Fig. 5: two-stage timing error in a TIMBER flip-flop design", &[],
           |_| print_waveform(&experiments::fig5())),
    figure("fig7", "Fig. 7: two-stage timing error in a TIMBER latch design", &[],
           |_| print_waveform(&experiments::fig7())),
    figure("fig8", "Fig. 8: TIMBER overheads on the synthetic processor", &["json"], |a| {
        let points = experiments::fig8();
        show(a, report::fig8_json(&points), experiments::render_fig8(&points) + "\n", true);
    }),
    figure("claims", "§3/§4 claims: error rates, flagging policies, performance loss", JSON_THREADS, |a| {
        let r = experiments::claims(1_000_000, a.threads());
        show(a, report::claims_json(&r), r.render() + "\n", true);
    }),
    figure("claims-netlist", "§3/§4 claims on netlist-derived stage profiles", JSON_THREADS, |a| {
        let r = experiments::claims_netlist_backed(1_000_000, a.threads());
        show(a, report::claims_json(&r), r.render() + "\n", true);
    }),
    figure("margin", "Margin recovery: minimum safe operating period per scheme", &["threads"],
           |a| println!("{}", margin::render_margin(&margin::margin_recovery(300_000, a.threads())))),
    figure("validate", "Corner-case circuit validation (paper §1: \"validated using corner-case circuit simulations\")", &[],
           |_| println!("{}", ablations::render_validation(&ablations::validation()))),
    figure("ablation-schedule", "Ablation: TB/ED interval split vs flagging policy", &["threads"], |a| {
        let rows = ablations::ablation_schedule(500_000, a.threads());
        println!("{}", ablations::render_ablation_schedule(&rows));
    }),
    figure("ablation-droop", "Ablation: droop depth vs masking coverage", &["threads"], |a| {
        let rows = ablations::ablation_droop(500_000, a.threads());
        println!("{}", ablations::render_ablation_droop(&rows));
    }),
    figure("dag", "Extension: reconvergent (diamond) topology with the DAG error relay", &[],
           |_| println!("{}", ablations::render_dag(&ablations::ablation_dag(500_000)))),
    figure("glitch", "Ablation: glitch propagation through the TIMBER latch (the §5.2 drawback)", &[],
           |_| println!("{}", ablations::render_glitch(&ablations::ablation_glitch_activity(200)))),
    figure("metastability", "Ablation: Razor metastability exposure vs TIMBER immunity", &["threads"], |a| {
        let r = ablations::ablation_metastability(500_000, a.threads());
        println!("{}", ablations::render_metastability(&r));
    }),
    figure("compare", "Cross-scheme comparison under the identical stress environment", JSON_THREADS, |a| {
        let rows = experiments::compare(1_000_000, a.threads());
        let text = experiments::render_compare(&rows, experiments::PERIOD) + "\n";
        show(a, report::compare_json(&rows, experiments::PERIOD), text, true);
    }),
    command("bench", &["json", "threads", "out"], run_bench),
    Command {
        operand: Some("an experiment, e.g. `repro trace claims`"),
        ..command("trace", &["threads", "telemetry"], run_trace)
    },
    command("bench-check", &["fresh", "baseline", "tolerance", "max-overhead"], run_bench_check),
    command("lint", &["json", "deny"], run_lint),
    command("analyze", &["json", "deny", "sabotage"], run_analyze),
    command("conform", &["json", "threads", "seed", "full", "sabotage"], run_conform),
    command("soak", &["json", "threads", "seed", "cycles", "checkpoint", "resume", "stop-after",
                      "inject-panic", "inject-hang", "retry-base", "retry-cap", "watchdog"], run_soak),
    command("serve", &["socket", "checkpoint", "resume", "batch-size", "capacity", "threads", "seed",
                       "retry-base", "retry-cap", "watchdog"], run_serve),
    command("storm", &["clients", "requests", "seed", "poison", "batch-size", "capacity", "threads",
                       "chaos-seed", "retry-base", "retry-cap", "json", "out"], run_storm),
    command("chaos", &["json", "seed", "faults", "threads", "sabotage", "out"], run_chaos),
    command("tune", &["json", "out", "seed", "threads", "budget", "tolerance", "sabotage",
                      "frontier-check"], run_tune),
];

impl Command {
    fn exec(&self, a: &Args) {
        // The one value a figure (or `all`) reads, checked before
        // anything prints: a usage error leaves stdout empty.
        if self.flags.contains(&"threads") {
            a.threads();
        }
        if let Some(title) = self.title {
            println!("== {title} ==");
        }
        (self.run)(a);
    }
}

/// A checked command line: the subcommand's row, each flag given (its
/// name, its [`FLAGS`] hint and its raw value, empty for a switch) in
/// order, and the operand.
struct Args {
    cmd: &'static Command,
    flags: Vec<(&'static str, Option<&'static str>, String)>,
    operand: Option<String>,
}

impl Args {
    /// Lexes `--x`, `--x v`, `--x=v` and positionals against [`FLAGS`],
    /// then checks them against the subcommand's row of [`COMMANDS`].
    /// Every usage error exits 2 naming the offending flag or argument.
    fn parse(mut raw: impl Iterator<Item = String>) -> Args {
        let (mut flags, mut positionals) = (Vec::new(), Vec::new());
        while let Some(arg) = raw.next() {
            let Some(body) = arg.strip_prefix("--") else {
                positionals.push(arg);
                continue;
            };
            let (name, inline) = match body.split_once('=') {
                Some((name, v)) => (name, Some(v.to_owned())),
                None => (body, None),
            };
            let Some((name, hint)) = FLAGS
                .iter()
                .find_map(|(names, hint)| names.iter().find(|n| **n == name).map(|n| (*n, *hint)))
            else {
                die(&format!("unknown flag --{name}"))
            };
            let value = match (hint, inline) {
                (None, Some(_)) => die(&format!("--{name} takes no value")),
                (None, None) => String::new(),
                (Some(hint), inline) => inline
                    .or_else(|| raw.next())
                    .unwrap_or_else(|| die(&format!("--{name} needs {hint}"))),
            };
            flags.push((name, hint, value));
        }
        let mut positionals = positionals.into_iter();
        let what = positionals.next().unwrap_or_else(|| "all".to_owned());
        let Some(cmd) = COMMANDS.iter().find(|c| c.name == what) else {
            let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
            let names = names.join(", ");
            die(&format!(
                "unknown subcommand {what:?} (expected one of: {names})"
            ))
        };
        if let Some((name, ..)) = flags.iter().find(|(f, ..)| !cmd.flags.contains(f)) {
            die(&format!("unknown flag --{name} for repro {what}"));
        }
        let operand = cmd.operand.map(|names| {
            positionals
                .next()
                .unwrap_or_else(|| die(&format!("{what} needs {names}")))
        });
        if let Some(extra) = positionals.next() {
            die(&format!("unexpected argument {extra}"));
        }
        Args {
            cmd,
            flags,
            operand,
        }
    }

    /// The last `--name` given.
    fn last(&self, name: &str) -> Option<&(&str, Option<&str>, String)> {
        debug_assert!(self.cmd.flags.contains(&name), "undeclared --{name}");
        self.flags.iter().rev().find(|(f, ..)| *f == name)
    }

    fn on(&self, name: &str) -> bool {
        self.last(name).is_some()
    }

    /// `--name`'s value parsed as `T`, or `None` when the flag is
    /// absent; a value that does not parse exits 2 naming the flag.
    fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        self.get_where(name, "", |_| true)
    }

    /// [`Args::get`], where a value failing `ok` exits 2 as well. These
    /// are the ranges the libraries assert, so out-of-range input is a
    /// usage error instead of a panic.
    fn get_where<T: FromStr>(&self, name: &str, rule: &str, ok: fn(&T) -> bool) -> Option<T> {
        let (_, hint, raw) = self.last(name)?;
        match raw.parse() {
            Ok(v) if ok(&v) => Some(v),
            Ok(_) => die(&format!("--{name} must be {rule}, got {raw}")),
            Err(_) => die(&format!("--{name} needs {}", hint.expect("not a switch"))),
        }
    }

    fn threads(&self) -> usize {
        self.get("threads").unwrap_or(0)
    }

    /// `--deny warn` raises the lint/analyze threshold to warnings.
    fn deny_warn(&self) -> bool {
        self.get_where::<String>("deny", "`warn` or `error`", |d| d == "warn" || d == "error")
            .is_some_and(|d| d == "warn")
    }

    /// The journal path (`<none>` when absent, for diagnostics) and
    /// whether to resume from it.
    fn checkpoint(&self) -> (Option<PathBuf>, String, bool) {
        let path: Option<String> = self.get("checkpoint");
        if self.on("resume") && path.is_none() {
            die("--resume needs --checkpoint FILE");
        }
        let shown = path.clone().unwrap_or_else(|| "<none>".to_owned());
        (path.map(PathBuf::from), shown, self.on("resume"))
    }

    fn capacity(&self) -> usize {
        self.get_where("capacity", "at least 1", |&c: &usize| c > 0)
            .unwrap_or(timber_serve::engine::DEFAULT_RESULT_CAPACITY)
    }

    /// The retry backoff `(base, cap)` in milliseconds.
    fn retry_ms(&self) -> (u64, u64) {
        let base = self.get("retry-base").unwrap_or(10);
        (base, self.get("retry-cap").unwrap_or(100))
    }

    fn watchdog(&self, default: Duration) -> Duration {
        self.get("watchdog").map_or(default, Duration::from_millis)
    }

    /// The hardened executor's retry policy, jittered by `seed`.
    fn retry(&self, seed: u64) -> timber_resilience::RetryPolicy {
        let (base, cap) = self.retry_ms();
        timber_resilience::RetryPolicy::from_millis(base, cap, seed)
    }
}

fn main() {
    let args = Args::parse(std::env::args().skip(1));
    args.cmd.exec(&args);
}

/// Prints the `--json` document when asked for, else the text
/// rendering (which carries its own trailing newline); then exits 1
/// when a gate did not `pass`.
fn show(a: &Args, json: impl Display, text: impl Display, pass: bool) {
    if a.on("json") {
        println!("{json}");
    } else {
        print!("{text}");
    }
    if !pass {
        std::process::exit(1);
    }
}

fn print_waveform(r: &experiments::WaveResult) {
    println!("{}", r.render);
    println!(
        "Err1 flags: {} (expected 0)   Err2 flags: {} (expected 1)   data correct: {}",
        r.err1_rises, r.err2_rises, r.data_correct
    );
    println!();
}

/// `repro bench`: the sweep-engine baseline. Opt-in (not part of
/// `all`): it times the engine rather than reproducing a paper figure.
fn run_bench(a: &Args) {
    // `--out` keeps CI measurement runs from clobbering the committed
    // baseline the gate compares against.
    let out: String = a.get("out").unwrap_or_else(|| "BENCH_pipeline.json".into());
    let threads = a.threads();
    // With `--json` the banner goes to stderr so stdout stays a single
    // machine-readable document (CI pipes it to a file).
    if a.on("json") {
        eprintln!("== Sweep-engine baseline (writes {out}) ==");
    } else {
        println!("== Sweep-engine baseline (writes {out}) ==");
    }
    let r = perf::pipeline_baseline(2_000_000, threads);
    let doc = perf::bench_json(&r);
    write_out(Some(&out), &format!("{doc}\n"));
    show(a, &doc, perf::render_bench(&r) + "\n", true);
    // Gate verdicts, not programming errors: exit 1 with a diagnostic
    // instead of unwinding through a panic.
    if !r.identical {
        fail("repro bench FAILED: thread count changed sweep results");
    }
    if !r.batched.identical {
        fail("repro bench FAILED: scalar and bit-sliced engines diverged");
    }
}

/// `repro lint`: the static design-rule gate over every shipped
/// generator config. Exit 1 when any config has findings at the deny
/// threshold.
fn run_lint(a: &Args) {
    let deny_warn = a.deny_warn();
    let reports = lintgate::lint_all();
    let json = timber_lint::reports_json(&reports, deny_warn);
    let pass = lintgate::gate_passes(&reports, deny_warn);
    show(a, json, lintgate::render_reports(&reports, deny_warn), pass);
}

/// `repro analyze`: the abstract-interpretation certification gate.
/// Exit 1 when any certificate, governor bound or soundness replay has
/// findings at the deny threshold (with `--sabotage`, exiting 1 *is*
/// the expected self-test outcome).
fn run_analyze(a: &Args) {
    let deny_warn = a.deny_warn();
    let gate = analyzegate::run(a.on("sabotage"));
    let json = analyzegate::gate_json(&gate, deny_warn);
    let pass = analyzegate::gate_passes(&gate, deny_warn);
    show(a, json, analyzegate::render(&gate, deny_warn), pass);
}

/// `repro conform`: the differential conformance campaign. Exit 1 when
/// the report does not pass (divergence, contract or metamorphic
/// violation, or incomplete coverage).
fn run_conform(a: &Args) {
    let seed = a.get("seed").unwrap_or(conform::DEFAULT_SEED);
    let report = conform::run(seed, a.on("full"), a.on("sabotage"), a.threads());
    show(a, report.json(), report.render(), report.pass());
}

/// `repro soak`: the resilience soak campaign. Exit 1 when the report
/// does not pass (a real trial quarantined or missing, or an injected
/// failure escaping the ledger); checkpoint I/O problems are usage
/// errors (exit 2) naming the offending path.
fn run_soak(a: &Args) {
    let seed = a.get("seed").unwrap_or(conform::DEFAULT_SEED);
    let (checkpoint, path, resume) = a.checkpoint();
    let pinned = soak::SoakSpec::pinned(seed);
    let spec = soak::SoakSpec {
        cycles: a.get("cycles").unwrap_or(pinned.cycles),
        threads: a.threads(),
        checkpoint,
        resume,
        inject_panic: a.get("inject-panic").unwrap_or(0),
        inject_hang: a.get("inject-hang").unwrap_or(0),
        stop_after: a.get("stop-after"),
        retry: a.retry(seed),
        watchdog: a.watchdog(pinned.watchdog),
        ..pinned
    };
    // Trial panics are isolated and quarantined by the hardened
    // executor (the ledger keeps each panic message), so the default
    // hook's per-panic backtrace spew would only pollute the report.
    std::panic::set_hook(Box::new(|_| {}));
    let report =
        soak::run(&spec).unwrap_or_else(|e| die(&format!("cannot use checkpoint {path}: {e}")));
    show(a, report.json(), report.render(), report.pass());
}

/// `repro serve`: the persistent evaluation daemon. Serves JSONL
/// requests on stdin (or `--socket PATH`) until a shutdown request or
/// EOF; journal/socket I/O problems are usage errors (exit 2) naming
/// the path.
fn run_serve(a: &Args) {
    let (journal, path, resume) = a.checkpoint();
    let defaults = timber_serve::EngineConfig::default();
    let config = timber_serve::EngineConfig {
        result_capacity: a.capacity(),
        threads: a.threads(),
        journal,
        resume,
        retry: a.retry(a.get("seed").unwrap_or(conform::DEFAULT_SEED)),
        watchdog: a.watchdog(defaults.watchdog),
        ..defaults
    };
    let socket: Option<String> = a.get("socket");
    let batch_size = a
        .get("batch-size")
        .unwrap_or(timber_serve::DEFAULT_BATCH_SIZE);
    // Poisoned compiles and evaluation panics are isolated and
    // quarantined by the engine (the response keeps the panic message),
    // so the default hook's backtrace spew would only pollute the
    // response stream's stderr.
    std::panic::set_hook(Box::new(|_| {}));
    let mut engine = timber_serve::Engine::new(config)
        .unwrap_or_else(|e| die(&format!("cannot open journal {path}: {e}")));
    match socket {
        Some(path) => {
            eprintln!("repro serve: listening on {path}");
            timber_serve::serve_unix(&mut engine, std::path::Path::new(&path), batch_size)
                .unwrap_or_else(|e| die(&format!("cannot serve socket {path}: {e}")));
        }
        None => {
            let (stdin, stdout) = (std::io::stdin(), std::io::stdout());
            timber_serve::serve_lines(&mut engine, stdin.lock(), &mut stdout.lock(), batch_size)
                .unwrap_or_else(|e| die(&format!("cannot serve stdin: {e}")));
        }
    }
}

/// `repro storm`: the deterministic load campaign against a fresh
/// engine. Exit 1 when the gate fails (a real request not answered
/// `ok`, a poisoned request escaping quarantine, or the hit-rate or
/// hit-speedup floor breached).
fn run_storm(a: &Args) {
    let pinned = timber_serve::StormSpec::pinned(a.get("seed").unwrap_or(conform::DEFAULT_SEED));
    let (retry_base_ms, retry_cap_ms) = a.retry_ms();
    let spec = timber_serve::StormSpec {
        clients: a.get("clients").unwrap_or(pinned.clients),
        requests: a.get("requests").unwrap_or(pinned.requests),
        poison: a.get("poison").unwrap_or(pinned.poison),
        threads: a.threads(),
        batch_size: a
            .get("batch-size")
            .unwrap_or(timber_serve::DEFAULT_BATCH_SIZE),
        capacity: a.capacity(),
        chaos_seed: a.get("chaos-seed"),
        retry_base_ms,
        retry_cap_ms,
        ..pinned
    };
    let out: Option<String> = a.get("out");
    std::panic::set_hook(Box::new(|_| {}));
    let report = timber_serve::storm::run(&spec).unwrap_or_else(|e| die(&format!("storm: {e}")));
    write_out(out.as_deref(), &format!("{}\n", report.json()));
    if !report.pass() {
        eprintln!("repro storm FAILED:\n{}", report.render());
    }
    show(a, report.json(), report.render(), report.pass());
}

/// `repro chaos`: the deterministic fault-injection campaign against
/// an in-process engine. Exit 1 when the accounting gate fails (an
/// injected fault unaccounted for, a corrupted response served, or the
/// final replay drifting from the unfaulted oracle — with
/// `--sabotage`, which disables the cache-read checksum, exiting 1
/// *is* the expected self-test outcome).
fn run_chaos(a: &Args) {
    let spec = timber_chaos::ChaosSpec {
        seed: a.get("seed").unwrap_or(conform::DEFAULT_SEED),
        faults: a.get("faults").unwrap_or(timber_chaos::DEFAULT_FAULTS),
        threads: a.threads(),
        sabotage: a.on("sabotage"),
    };
    let out: Option<String> = a.get("out");
    // Poison-spec compiles panic on purpose; the engine isolates and
    // quarantines them, so the default hook would only spew backtraces.
    std::panic::set_hook(Box::new(|_| {}));
    let report = timber_chaos::run(&spec).unwrap_or_else(|e| die(&format!("chaos: {e}")));
    write_out(out.as_deref(), &format!("{}\n", report.json()));
    if !report.pass() {
        eprintln!("repro chaos FAILED:\n{}", report.render());
    }
    show(a, report.json(), report.render(), report.pass());
}

/// `repro tune`: the design-space autotuner and its golden-frontier
/// gate. Exit 1 when the run fails its own validation (dominated
/// frontier member, paper anchor out of band — with `--sabotage`,
/// exiting 1 *is* the expected self-test outcome) or when
/// `--frontier-check` finds the recomputed document drifted from the
/// committed golden; unreadable or malformed goldens are usage errors.
fn run_tune(a: &Args) {
    let defaults = timber_tune::TuneSpec::default();
    let spec = timber_tune::TuneSpec {
        seed: a.get("seed").unwrap_or(defaults.seed),
        budget: a.get("budget").unwrap_or(defaults.budget),
        threads: a.threads(),
        tolerance: a
            .get_where("tolerance", "non-negative", |&t: &f64| t >= 0.0)
            .unwrap_or(defaults.tolerance),
        sabotage: a.on("sabotage"),
    };
    let (out, golden): (Option<String>, Option<String>) = (a.get("out"), a.get("frontier-check"));
    let Some(path) = golden else {
        let (report, doc) = tune::tune_document(&spec);
        write_out(out.as_deref(), &doc);
        if !report.pass() {
            eprintln!("repro tune FAILED:{}", bullets(&report.violations()));
        }
        let text = tune::render_report(&report);
        return show(a, doc.trim_end(), text, report.pass());
    };
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    match tune::frontier_check(&golden, spec.threads).unwrap_or_else(|msg| die(&msg)) {
        tune::FrontierCheck::Match => {
            println!("repro tune: frontier check PASS ({path} reproduces byte-identically)");
        }
        tune::FrontierCheck::Drift {
            line,
            golden,
            fresh,
        } => fail(&format!(
            "repro tune FAILED: {path} drifted from the recomputed frontier\n  \
             first difference at line {line}:\n  golden: {golden}\n  fresh:  {fresh}"
        )),
        tune::FrontierCheck::Invalid(violations) => fail(&format!(
            "repro tune FAILED: recomputed frontier does not validate:{}",
            bullets(&violations)
        )),
    }
}

/// `repro trace <experiment>`: runs the experiment with telemetry and
/// exports the trace.
fn run_trace(a: &Args) {
    let experiment = a.operand.as_deref().expect("trace's row takes an operand");
    let (threads, telemetry) = (a.threads(), a.get::<String>("telemetry"));
    println!("== Telemetry trace: {experiment} ==");
    let t = trace::trace_experiment(experiment, 1_000_000, threads, trace::DEFAULT_RING_CAPACITY)
        .unwrap_or_else(|e| die(&e));
    print!("{}", t.render());
    if let Some(path) = telemetry {
        write_out(Some(&path), &t.json());
        let stem = path.rsplit_once('.').map_or(&*path, |(stem, _)| stem);
        let csv_path = format!("{stem}.csv");
        write_out(Some(&csv_path), &t.csv());
        println!("wrote {path} and {csv_path}");
    }
}

/// `repro bench-check`: the CI regression gate over `BENCH_pipeline.json`
/// documents. Within-run checks always run; the cross-run throughput
/// comparison needs `--baseline`.
fn run_bench_check(a: &Args) {
    let fresh: String = a
        .get("fresh")
        .unwrap_or_else(|| die("bench-check needs --fresh FILE"));
    let baseline: Option<String> = a.get("baseline");
    let tolerance = a.get_where("tolerance", "in (0, 1)", |&t: &f64| t > 0.0 && t < 1.0);
    let max_overhead = a.get_where("max-overhead", "positive", |&m: &f64| m > 0.0);
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")))
    };
    let baseline_doc = baseline.as_deref().map(read);
    match perf::bench_check(
        baseline_doc.as_deref(),
        &read(&fresh),
        tolerance.unwrap_or(0.15),
        max_overhead.unwrap_or(0.5),
    ) {
        Ok(report) => print!("{report}"),
        Err(breaches) => fail(&format!("repro bench-check FAILED:\n{breaches}")),
    }
}

/// Writes an artefact to `path` when one was asked for; an unwritable
/// path is a usage error naming it.
fn write_out(path: Option<&str>, contents: &str) {
    if let Some(path) = path {
        std::fs::write(path, contents)
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
    }
}

/// One `\n  - ` line per violation.
fn bullets(violations: &[String]) -> String {
    violations.iter().map(|v| format!("\n  - {v}")).collect()
}

/// A gate verdict, not a programming error: exit 1 with a diagnostic.
fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// A usage error: exit 2.
fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::{COMMANDS, FLAGS};

    #[test]
    fn every_row_names_known_flags() {
        for c in COMMANDS {
            for f in c.flags {
                assert!(
                    FLAGS.iter().any(|(n, _)| n.contains(f)),
                    "{}: --{f}",
                    c.name
                );
            }
        }
    }
}
