//! End-to-end exit-code contract of the `repro` binary: `0` success,
//! `1` gate findings, `2` usage error — the codes CI and scripts rely
//! on — and every gate at the pins CI keeps reports from. Each gate
//! test writes its report into `target/tmp/gate-reports/`.

use std::io::Write;
use std::process::{Command, Output, Stdio};
use std::sync::OnceLock;

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

/// `conform --json --threads 4`, run once per test binary: the JSON
/// gate and the thread-invariance test both read it.
fn conform_json_4() -> &'static Output {
    static OUT: OnceLock<Output> = OnceLock::new();
    OUT.get_or_init(|| repro(&["conform", "--json", "--threads", "4"]))
}

/// `tune --json --budget 12 --threads 4`, run once per test binary:
/// the JSON gate and the thread-invariance test both read it.
fn tune_json_4() -> &'static Output {
    static OUT: OnceLock<Output> = OnceLock::new();
    OUT.get_or_init(|| repro(&["tune", "--json", "--budget", "12", "--threads", "4"]))
}

/// The path of gate report `name` in `target/tmp/gate-reports/`.
fn gate_report(name: &str) -> String {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("gate-reports");
    std::fs::create_dir_all(&dir).expect("create the gate report directory");
    dir.join(name).to_str().unwrap().to_owned()
}

/// A fresh per-process scratch path for `name`.
fn scratch(name: &str) -> String {
    let path = std::env::temp_dir().join(format!("repro-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path.to_str().unwrap().to_owned()
}

/// One small evaluation request.
const RCA16: &str = r#"{"id":1,"design":"rca16","trials":1,"cycles":200}"#;

/// Runs one `repro serve` session over stdin, one request per line,
/// and returns its stdout.
fn serve(args: &[&str], requests: &[&str]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn repro serve");
    let mut stdin = child.stdin.take().unwrap();
    for request in requests {
        writeln!(stdin, "{request}").unwrap();
    }
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    String::from_utf8(out.stdout).unwrap()
}

/// The committed golden frontier at the repository root, resolved from
/// the crate dir so the test passes from any working directory.
const GOLDEN_FRONTIER: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../FRONTIER_tune.json");

/// The committed pipeline baseline: a valid `bench-check --fresh`
/// document, so the range checks below fail on the flag alone.
const BENCH_BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");

/// A directory that always exists and is never a valid journal or
/// checkpoint file.
const A_DIRECTORY: &str = env!("CARGO_MANIFEST_DIR");

/// A table of exit-code contracts, one row per subcommand. Every row
/// runs the same check — `repro ARGS` exits with `CODE` and the named
/// stream contains each text — and becomes its own `#[test]`, so a
/// failing row names itself.
macro_rules! contracts {
    ($($(#[$meta:meta])* $name:ident: [$($arg:expr),*] => $code:literal, $stream:ident has [$($text:expr),*];)*) => {$(
        $(#[$meta])*
        #[test]
        fn $name() {
            let out = repro(&[$($arg),*]);
            let text = String::from_utf8_lossy(&out.$stream);
            assert_eq!(out.status.code(), Some($code), "{}: {text}", stringify!($stream));
            for want in [$($text),*] {
                assert!(text.contains(want), "{want:?} missing from {}: {text}", stringify!($stream));
            }
        }
    )*};
}

// Gates pass on the shipped configs and pinned seeds.
contracts! {
    lint_gate_passes_on_shipped_configs: ["lint", "--deny", "warn"] => 0, stdout has ["PASS"];
    analyze_gate_passes_on_shipped_configs: ["analyze", "--deny", "warn"]
        => 0, stdout has ["PASS", "incorruptible", "proved", "service[hold=2]"];
    conform_gate_passes_on_the_pinned_seed: ["conform", "--threads", "4"]
        => 0, stdout has ["PASS", "coverage"];
    tune_golden_frontier_reproduces_byte_identically:
        ["tune", "--frontier-check", GOLDEN_FRONTIER, "--threads", "4"] => 0, stdout has ["PASS"];
}

// Sabotage self-tests: each gate must fail (exit 1) with its defence
// switched off.
contracts! {
    analyze_sabotage_fails_with_exit_1: ["analyze", "--sabotage"]
        => 1, stdout has ["FAIL", "sabotage seeded"];
    chaos_sabotage_is_caught_and_exits_1: ["chaos", "--seed", "42", "--faults", "14", "--sabotage"]
        => 1, stdout has ["FAIL", "checksum-sentinel-caught"];
    // Budget 12 has no dominated point (seeding variants that replace
    // the same flops share a storm battery and collapse), so the leak
    // duplicates a frontier member.
    tune_sabotage_fails_with_exit_1: ["tune", "--sabotage", "--budget", "12", "--threads", "4"]
        => 1, stderr has ["FAILED", "identical objectives"];
    conform_sabotage_fails_with_exit_1: ["conform", "--threads", "4", "--sabotage"]
        => 1, stdout has ["DIVERGENCE", "FAIL"];
    // A thrashing cache (capacity 1, no in-batch coalescing) fails the
    // hit-rate floor with exit 1, not a crash.
    storm_thrashing_cache_fails_the_hit_rate_floor:
        ["storm", "--requests", "64", "--seed", "7", "--capacity", "1", "--batch-size", "1"]
        => 1, stderr has ["FAILED"];
}

// An unknown subcommand is a usage error listing every subcommand.
contracts! {
    unknown_subcommand_exits_2_and_lists_lint: ["frobnicate"] => 2, stderr has [
        "unknown subcommand", "lint", "analyze", "conform", "soak", "serve", "storm", "chaos",
        "tune", "trace", "bench-check", "fig8", "all"
    ];
}

// A flag no subcommand knows, or one the subcommand does not read, is
// a usage error naming it.
contracts! {
    analyze_unknown_flag_exits_2_and_names_it: ["analyze", "--frobs", "3"]
        => 2, stderr has ["unknown flag --frobs"];
    analyze_unknown_switch_exits_2_and_names_it: ["analyze", "--frobs"]
        => 2, stderr has ["unknown flag --frobs"];
    conform_unknown_flag_exits_2: ["conform", "--shards", "3"] => 2, stderr has ["unknown flag"];
    storm_unknown_flag_exits_2_and_names_it: ["storm", "--frobs", "3"]
        => 2, stderr has ["unknown flag --frobs"];
    storm_unknown_switch_exits_2_and_names_it: ["storm", "--bogus"]
        => 2, stderr has ["unknown flag --bogus"];
    chaos_unknown_flag_exits_2_and_names_it: ["chaos", "--frobs", "3"]
        => 2, stderr has ["unknown flag --frobs"];
    chaos_unknown_switch_exits_2_and_names_it: ["chaos", "--bogus"]
        => 2, stderr has ["unknown flag --bogus"];
    serve_unknown_flag_exits_2_and_names_it: ["serve", "--frobs", "3"]
        => 2, stderr has ["unknown flag --frobs"];
    serve_unknown_switch_exits_2_and_names_it: ["serve", "--bogus"]
        => 2, stderr has ["unknown flag --bogus"];
    tune_unknown_flag_exits_2_and_names_it: ["tune", "--frobs", "3"]
        => 2, stderr has ["unknown flag --frobs"];
    tune_unknown_switch_exits_2_and_names_it: ["tune", "--frobs"]
        => 2, stderr has ["unknown flag --frobs"];
    lint_unknown_flag_exits_2_and_names_it: ["lint", "--frobs", "3"]
        => 2, stderr has ["unknown flag --frobs"];
    soak_unknown_flag_exits_2_and_names_it: ["soak", "--frobs", "3"]
        => 2, stderr has ["unknown flag --frobs"];
    bench_unknown_flag_exits_2_and_names_it: ["bench", "--frobs", "3"]
        => 2, stderr has ["unknown flag --frobs"];
    bench_check_unknown_flag_exits_2_and_names_it: ["bench-check", "--frobs", "3"]
        => 2, stderr has ["unknown flag --frobs"];
    trace_unknown_flag_exits_2_and_names_it: ["trace", "claims", "--frobs", "3"]
        => 2, stderr has ["unknown flag --frobs"];
    figure_unknown_flag_exits_2_and_names_it: ["fig8", "--frobs"]
        => 2, stderr has ["unknown flag --frobs"];
    lint_rejects_a_flag_it_does_not_read: ["lint", "--seed", "3"]
        => 2, stderr has ["unknown flag --seed"];
    storm_rejects_the_watchdog_it_does_not_have: ["storm", "--requests", "4", "--watchdog", "5"]
        => 2, stderr has ["unknown flag --watchdog"];
    figure_rejects_a_flag_it_does_not_read: ["fig2", "--threads", "4"]
        => 2, stderr has ["unknown flag --threads"];
    switch_rejects_a_value: ["lint", "--json=yes"] => 2, stderr has ["--json"];
}

// A value that does not parse, or is missing, is a usage error naming
// the flag.
contracts! {
    analyze_bad_deny_value_exits_2: ["analyze", "--deny", "sometimes"] => 2, stderr has ["--deny"];
    bad_deny_value_exits_2: ["lint", "--deny", "sometimes"] => 2, stderr has ["--deny"];
    conform_bad_seed_exits_2: ["conform", "--seed", "banana"] => 2, stderr has ["--seed"];
    soak_bad_inject_count_exits_2_and_names_the_flag: ["soak", "--inject-panic", "banana"]
        => 2, stderr has ["--inject-panic"];
    chaos_bad_faults_count_exits_2_and_names_the_flag: ["chaos", "--faults", "banana"]
        => 2, stderr has ["--faults"];
    tune_bad_budget_exits_2_and_names_the_flag: ["tune", "--budget", "banana"]
        => 2, stderr has ["--budget"];
    storm_bad_request_count_exits_2_and_names_the_flag: ["storm", "--requests=banana"]
        => 2, stderr has ["--requests"];
    serve_bad_batch_size_exits_2_and_names_the_flag: ["serve", "--batch-size", "banana"]
        => 2, stderr has ["--batch-size"];
    bench_bad_batch_mode_exits_2_and_names_the_flag: ["bench", "--batch", "sometimes"]
        => 2, stderr has ["--batch"];
    bench_check_bad_tolerance_exits_2_and_names_the_flag:
        ["bench-check", "--fresh", BENCH_BASELINE, "--tolerance", "banana"]
        => 2, stderr has ["--tolerance"];
    trace_bad_thread_count_exits_2_and_names_the_flag: ["trace", "claims", "--threads", "x"]
        => 2, stderr has ["--threads"];
    figure_bad_thread_count_exits_2_and_names_the_flag: ["claims", "--threads", "x"]
        => 2, stderr has ["--threads"];
    missing_value_exits_2_and_names_the_flag: ["conform", "--seed"] => 2, stderr has ["--seed"];
}

// Out-of-range values the libraries assert on are usage errors naming
// the flag, not panics.
contracts! {
    storm_zero_capacity_exits_2_and_names_the_flag: ["storm", "--capacity", "0"]
        => 2, stderr has ["--capacity"];
    serve_zero_capacity_exits_2_and_names_the_flag: ["serve", "--capacity", "0"]
        => 2, stderr has ["--capacity"];
    bench_check_negative_tolerance_exits_2_and_names_the_flag:
        ["bench-check", "--fresh", BENCH_BASELINE, "--tolerance", "-1"]
        => 2, stderr has ["--tolerance"];
    bench_check_negative_overhead_exits_2_and_names_the_flag:
        ["bench-check", "--fresh", BENCH_BASELINE, "--max-overhead", "-3"]
        => 2, stderr has ["--max-overhead"];
    tune_negative_tolerance_exits_2_and_names_the_flag: ["tune", "--tolerance", "-1", "--budget", "4"]
        => 2, stderr has ["--tolerance"];
}

// Operands: a subcommand takes exactly the ones it names.
contracts! {
    analyze_unexpected_argument_exits_2: ["analyze", "everything"]
        => 2, stderr has ["unexpected argument"];
    tune_unexpected_argument_exits_2: ["tune", "everything"] => 2, stderr has ["unexpected argument"];
    lint_unexpected_argument_exits_2: ["lint", "everything"] => 2, stderr has ["unexpected argument"];
    soak_unexpected_argument_exits_2: ["soak", "everything"] => 2, stderr has ["unexpected argument"];
    bench_check_unexpected_argument_exits_2: ["bench-check", "everything"]
        => 2, stderr has ["unexpected argument"];
    trace_unexpected_argument_exits_2: ["trace", "claims", "everything"]
        => 2, stderr has ["unexpected argument"];
    figure_unexpected_argument_exits_2: ["fig8", "everything"]
        => 2, stderr has ["unexpected argument"];
    trace_without_an_experiment_exits_2: ["trace"] => 2, stderr has ["trace needs an experiment"];
    trace_unknown_experiment_exits_2: ["trace", "frobnicate"] => 2, stderr has ["frobnicate"];
}

// `--resume` replays a journal, so it needs one.
contracts! {
    soak_resume_without_checkpoint_exits_2: ["soak", "--resume"] => 2, stderr has ["--checkpoint"];
    serve_resume_without_checkpoint_exits_2: ["serve", "--resume"] => 2, stderr has ["--checkpoint"];
}

// An unusable path is a usage error naming the path.
contracts! {
    soak_unreadable_checkpoint_exits_2_and_names_the_path:
        ["soak", "--cycles", "400", "--checkpoint", A_DIRECTORY]
        => 2, stderr has ["checkpoint", A_DIRECTORY];
    serve_unusable_journal_exits_2_and_names_the_path: ["serve", "--checkpoint", A_DIRECTORY]
        => 2, stderr has ["journal", A_DIRECTORY];
    bench_check_unreadable_fresh_file_exits_2_and_names_the_path:
        ["bench-check", "--fresh", "/nonexistent/FRESH.json"]
        => 2, stderr has ["/nonexistent/FRESH.json"];
    tune_missing_golden_exits_2_and_names_the_path:
        ["tune", "--frontier-check", "/nonexistent/FRONTIER.json"]
        => 2, stderr has ["/nonexistent/FRONTIER.json"];
}

#[test]
fn lint_json_is_a_single_machine_readable_document() {
    let out = repro(&["lint", "--json", "--deny", "warn"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let doc: serde_json::Value = serde_json::from_str(text.trim()).expect("valid JSON");
    assert_eq!(doc["tool"], serde_json::json!("timber-lint"));
    assert_eq!(doc["schema_version"], serde_json::json!(1));
    assert_eq!(doc["pass"], serde_json::json!(true));
    assert!(doc["reports"].as_array().is_some_and(|r| !r.is_empty()));
}

#[test]
fn analyze_json_is_a_single_machine_readable_document() {
    let out = repro(&["analyze", "--json", "--deny", "warn"]);
    assert!(out.status.success());
    std::fs::write(gate_report("analyze.json"), &out.stdout).unwrap();
    let text = String::from_utf8(out.stdout).unwrap();
    let doc: serde_json::Value = serde_json::from_str(text.trim()).expect("valid JSON");
    assert_eq!(doc["tool"], serde_json::json!("timber-analyze"));
    assert_eq!(doc["schema_version"], serde_json::json!(1));
    assert_eq!(doc["pass"], serde_json::json!(true));
    assert!(doc["certificates"]
        .as_array()
        .is_some_and(|c| !c.is_empty()));
    let ladders = doc["governor"].as_array().expect("governor array");
    assert!(ladders
        .iter()
        .all(|a| a["proved"] == serde_json::json!(true)));
    let mut names: Vec<&str> = ladders
        .iter()
        .map(|a| a["ladder"].as_str().unwrap())
        .collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names, ["clock", "service"]);
    assert_eq!(doc["soundness"]["violations"], serde_json::json!([]));
}

#[test]
fn conform_json_is_a_single_machine_readable_document() {
    // The pinned campaign and the full one (three times the trials).
    let full = repro(&["conform", "--json", "--full", "--threads", "4"]);
    for (out, report, cases) in [
        (conform_json_4(), "conform.json", 640),
        (&full, "conform_full.json", 1920),
    ] {
        assert!(out.status.success());
        std::fs::write(gate_report(report), &out.stdout).unwrap();
        let text = std::str::from_utf8(&out.stdout).unwrap();
        let doc: serde_json::Value = serde_json::from_str(text.trim()).expect("valid JSON");
        assert_eq!(doc["tool"], serde_json::json!("timber-conformance"));
        assert_eq!(doc["schema_version"], serde_json::json!(1));
        assert_eq!(doc["pass"], serde_json::json!(true));
        assert_eq!(doc["cases_run"], serde_json::json!(cases));
        assert!(doc["coverage"].as_array().is_some_and(|c| !c.is_empty()));
    }
}

/// The content hash of a report, for the byte pins below.
fn content_hex(bytes: &[u8]) -> String {
    timber_serve::content_hash(bytes).hex()
}

#[test]
fn analyze_json_bytes_are_pinned() {
    // The certificates and the soundness replay read no delay
    // environment, so no change to the derating model may move them.
    let out = repro(&["analyze", "--json", "--deny", "warn"]);
    assert!(out.status.success());
    assert_eq!(
        content_hex(&out.stdout),
        "cd97bb1f507da6a77824c9c885e79d5e7463c3d67359fc2f144044fd68231482"
    );
}

#[test]
fn conform_json_bytes_are_pinned() {
    // The campaign replays traces through exact-arrival delays, so no
    // change to the derating model may move it.
    let out = conform_json_4();
    assert!(out.status.success());
    assert_eq!(
        content_hex(&out.stdout),
        "3ec0f96fa2ffa08e48586c0953c6fceb87ddfcb921c9411c38ecb3e007a592d3"
    );
}

#[test]
fn conform_threads_do_not_change_the_json() {
    let one = repro(&["conform", "--json", "--threads", "1"]);
    let four = conform_json_4();
    assert!(one.status.success());
    assert!(four.status.success());
    assert_eq!(one.stdout, four.stdout, "report must be byte-identical");
}

#[test]
fn soak_gate_passes_and_quarantines_exactly_the_injected_failures() {
    let out = repro(&[
        "soak",
        "--json",
        "--threads",
        "4",
        "--inject-panic",
        "3",
        "--inject-hang",
        "1",
    ]);
    std::fs::write(gate_report("soak.json"), &out.stdout).unwrap();
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{text}");
    let doc: serde_json::Value = serde_json::from_str(text.trim()).expect("valid JSON");
    assert_eq!(doc["tool"], serde_json::json!("timber-soak"));
    assert_eq!(doc["pass"], serde_json::json!(true));
    assert_eq!(doc["injected"], serde_json::json!(4));
    let quarantined = doc["quarantined"].as_array().expect("ledger");
    let mut kinds: Vec<&str> = quarantined
        .iter()
        .map(|q| q["kind"].as_str().unwrap())
        .collect();
    kinds.sort_unstable();
    assert_eq!(kinds, ["hang", "panic", "panic", "panic"], "{text}");
    let real = doc["trials"].as_u64().expect("real trial count");
    assert!(
        quarantined
            .iter()
            .all(|q| q["index"].as_u64().unwrap() >= real),
        "a real trial was quarantined: {text}"
    );
}

#[test]
fn soak_stop_then_resume_matches_an_uninterrupted_run_byte_for_byte() {
    let ckpt = scratch("soak.ckpt");
    let ckpt = ckpt.as_str();
    let common = ["soak", "--json", "--threads", "4"];

    let stopped = repro(&[&common[..], &["--checkpoint", ckpt, "--stop-after", "10"]].concat());
    assert!(stopped.status.success(), "stopped run must still exit 0");
    let text = String::from_utf8(stopped.stdout).unwrap();
    let doc: serde_json::Value = serde_json::from_str(text.trim()).expect("valid JSON");
    let ran = doc["results"].as_array().expect("results");
    let ran = ran
        .iter()
        .filter(|r| **r != serde_json::Value::Null)
        .count();
    assert_eq!(ran, 10, "the stopped run must leave holes after 10 trials");

    let resumed = repro(&[&common[..], &["--checkpoint", ckpt, "--resume"]].concat());
    assert!(resumed.status.success());
    let clean = repro(&common);
    assert!(clean.status.success());
    assert_eq!(
        resumed.stdout, clean.stdout,
        "resumed report must be byte-identical"
    );
    let _ = std::fs::remove_file(ckpt);
}

#[test]
fn storm_campaign_passes_and_replays_byte_identically() {
    let out = gate_report("storm.json");
    let mut args = [
        "storm",
        "--clients",
        "4",
        "--requests",
        "64",
        "--poison",
        "3",
        "--seed",
        "7",
        "--threads",
        "4",
        "--batch-size",
        "16",
        "--json",
        "--out",
        &out,
    ];
    let a = repro(&args);
    let text = String::from_utf8(a.stdout.clone()).unwrap();
    assert!(a.status.success(), "{text}");
    let doc: serde_json::Value = serde_json::from_str(text.trim()).expect("valid JSON");
    assert_eq!(doc["tool"], serde_json::json!("timber-storm"));
    assert_eq!(doc["pass"], serde_json::json!(true));
    assert!(doc["hit_rate"].as_f64().unwrap() >= 0.5, "{text}");
    assert_eq!(doc["counters"]["quarantined"], serde_json::json!(3));
    for r in doc["responses"].as_array().expect("responses") {
        let real = r["id"].as_u64().unwrap() < 64;
        let want = if real { "ok" } else { "quarantined" };
        assert_eq!(r["status"], serde_json::json!(want), "{r}");
    }
    // A cold replay in a fresh process with a different thread count
    // must print the document the first run wrote (`--out` dropped).
    args[10] = "1";
    let b = repro(&args[..args.len() - 2]);
    assert!(b.status.success());
    assert_eq!(
        std::fs::read(&out).unwrap(),
        b.stdout,
        "storm report must replay exactly"
    );
}

#[test]
fn chaos_campaign_accounts_for_every_fault_and_replays_byte_identically() {
    let out = gate_report("chaos.json");
    let mut args = [
        "chaos",
        "--seed",
        "42",
        "--faults",
        "14",
        "--threads",
        "4",
        "--json",
        "--out",
        &out,
    ];
    let a = repro(&args);
    let text = String::from_utf8(a.stdout.clone()).unwrap();
    assert!(a.status.success(), "{text}");
    let doc: serde_json::Value = serde_json::from_str(text.trim()).expect("valid JSON");
    assert_eq!(doc["tool"], serde_json::json!("timber-chaos"));
    assert_eq!(doc["schema_version"], serde_json::json!(1));
    assert_eq!(doc["pass"], serde_json::json!(true));
    assert_eq!(doc["sabotage"], serde_json::json!(false));
    let mut injected = 0;
    for entry in doc["taxonomy"].as_array().expect("taxonomy array") {
        assert_eq!(
            entry["injected"], entry["detected"],
            "unaccounted fault kind: {entry}"
        );
        injected += entry["injected"].as_u64().unwrap();
    }
    assert_eq!(injected, 14, "{text}");
    for check in doc["checks"].as_array().expect("checks array") {
        assert_eq!(check["pass"], serde_json::json!(true), "{check}");
    }
    // The same campaign at a different thread count must print the
    // document the first run wrote (`--out` dropped).
    args[6] = "1";
    let b = repro(&args[..args.len() - 2]);
    assert!(b.status.success());
    assert_eq!(
        std::fs::read(&out).unwrap(),
        b.stdout,
        "chaos report must be thread-invariant"
    );
}

#[test]
fn storm_chaos_client_retries_to_a_fully_served_stream() {
    let out = repro(&[
        "storm",
        "--requests",
        "64",
        "--seed",
        "7",
        "--chaos-seed",
        "5",
        "--retry-base",
        "1",
        "--retry-cap",
        "2",
        "--json",
    ]);
    let text = String::from_utf8(out.stdout.clone()).unwrap();
    assert!(out.status.success(), "{text}");
    let doc: serde_json::Value = serde_json::from_str(text.trim()).expect("valid JSON");
    assert_eq!(doc["schema_version"], serde_json::json!(2));
    assert_eq!(doc["chaos_seed"], serde_json::json!(5));
    let clients = doc["client_stats"].as_array().expect("client_stats");
    let deadline_misses: u64 = clients
        .iter()
        .map(|c| c["deadline_misses"].as_u64().unwrap())
        .sum();
    let retries: u64 = clients.iter().map(|c| c["retries"].as_u64().unwrap()).sum();
    assert!(deadline_misses > 0, "seeded deadlines must fire: {doc}");
    assert!(retries >= deadline_misses, "{doc}");
    assert!(doc["responses"]
        .as_array()
        .unwrap()
        .iter()
        .all(|r| r["status"] == serde_json::json!("ok")));
}

#[test]
fn serve_answers_a_session_on_stdin_and_honours_shutdown() {
    let text = serve(
        &["--batch-size", "4"],
        &[
            RCA16,
            r#"{"id":2,"design":"rca16","trials":1,"cycles":200}"#,
            r#"{"id":3,"op":"stats"}"#,
            r#"{"id":4,"op":"shutdown"}"#,
        ],
    );
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "{text}");
    let docs: Vec<serde_json::Value> = lines
        .iter()
        .map(|l| serde_json::from_str(l).expect("valid JSON"))
        .collect();
    // Identical content answered identically, warm equal to cold.
    assert_eq!(docs[0]["status"], serde_json::json!("ok"));
    assert_eq!(docs[0]["key"], docs[1]["key"]);
    assert_eq!(docs[0]["totals"], docs[1]["totals"]);
    let counters = &docs[2]["stats"]["counters"];
    assert_eq!(counters["misses"], serde_json::json!(1), "{text}");
    assert_eq!(counters["hits"], serde_json::json!(1), "{text}");
    assert_eq!(docs[3]["shutdown"], serde_json::json!(true));
}

/// `(resumed, hits, misses)` from a `{"op":"stats"}` response line.
fn resume_counters(line: &str) -> [u64; 3] {
    let doc: serde_json::Value = serde_json::from_str(line).expect("valid JSON");
    ["resumed", "hits", "misses"].map(|k| doc["stats"]["counters"][k].as_u64().expect(k))
}

#[test]
fn serve_restarts_warm_from_its_journal_byte_for_byte() {
    let journal = scratch("serve.journal");
    let cold = serve(
        &["--checkpoint", &journal],
        &[RCA16, r#"{"id":2,"op":"shutdown"}"#],
    );
    let warm = serve(
        &["--checkpoint", &journal, "--resume"],
        &[
            RCA16,
            r#"{"id":2,"op":"stats"}"#,
            r#"{"id":3,"op":"shutdown"}"#,
        ],
    );
    std::fs::write(gate_report("warm.jsonl"), &warm).unwrap();
    let warm: Vec<&str> = warm.lines().collect();
    assert_eq!(cold.lines().next(), Some(warm[0]), "warm answer differs");
    assert_eq!(resume_counters(warm[1]), [1, 1, 0]);
    let _ = std::fs::remove_file(&journal);

    // Overflow: three distinct specs journalled through a capacity-2
    // cache. Resume verifies all three but keeps the last two, so the
    // first one misses and recomputes the same bytes.
    let journal = scratch("overflow.journal");
    let specs: Vec<String> = (1..=3)
        .map(|seed| {
            format!(r#"{{"id":{seed},"design":"rca16","trials":1,"cycles":200,"seed":{seed}}}"#)
        })
        .collect();
    let specs: Vec<&str> = specs.iter().map(String::as_str).collect();
    let cold = serve(
        &["--capacity", "2", "--checkpoint", &journal],
        &[&specs[..], &[r#"{"id":4,"op":"shutdown"}"#]].concat(),
    );
    let warm = serve(
        &["--capacity", "2", "--checkpoint", &journal, "--resume"],
        &[
            &specs[..],
            &[r#"{"id":4,"op":"stats"}"#, r#"{"id":5,"op":"shutdown"}"#],
        ]
        .concat(),
    );
    std::fs::write(gate_report("overflow-warm.jsonl"), &warm).unwrap();
    let warm: Vec<&str> = warm.lines().collect();
    let cold: Vec<&str> = cold.lines().collect();
    assert_eq!(cold[..3], warm[..3], "overflow answers differ");
    assert_eq!(resume_counters(warm[3]), [3, 2, 1]);
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn trace_claims_is_thread_invariant() {
    // Both runs at once: each takes seconds in a debug build.
    let runs = ["1", "8"].map(|threads| {
        let json = scratch(&format!("trace-t{threads}.json"));
        let child = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args([
                "trace",
                "claims",
                "--threads",
                threads,
                "--telemetry",
                &json,
            ])
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn repro trace");
        (json, child)
    });
    let [one, eight] = runs.map(|(json, mut child)| {
        assert!(child.wait().unwrap().success());
        let csv = json.replace(".json", ".csv");
        [json, csv].map(|path| {
            let bytes = std::fs::read(&path).expect("trace written");
            let _ = std::fs::remove_file(&path);
            bytes
        })
    });
    assert_eq!(one[0], eight[0], "JSON trace must be byte-identical");
    assert_eq!(one[1], eight[1], "CSV trace must be byte-identical");
}

#[test]
fn tune_gate_passes_and_reports_anchors_in_band() {
    // Budget 12 covers the four paper-anchor candidates (enumerated
    // first) without evaluating the whole space in a debug build.
    let out = repro(&["tune", "--budget", "12", "--threads", "4"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("PASS"), "{text}");
    assert!(text.contains("immediate-30"), "{text}");
    assert!(text.contains("deferred-30"), "{text}");
    assert!(text.contains("within band"), "{text}");
    assert!(!text.contains("OUT OF BAND"), "{text}");
}

#[test]
fn tune_json_is_a_single_machine_readable_document() {
    let out = tune_json_4();
    assert!(out.status.success());
    std::fs::write(gate_report("tune_small.json"), &out.stdout).unwrap();
    let text = std::str::from_utf8(&out.stdout).unwrap();
    let doc: serde_json::Value = serde_json::from_str(text.trim()).expect("valid JSON");
    assert_eq!(doc["tool"], serde_json::json!("repro tune"));
    assert_eq!(doc["schema_version"], serde_json::json!(1));
    assert_eq!(doc["validation"]["pass"], serde_json::json!(true));
    assert_eq!(doc["budget"], serde_json::json!(12));
    let designs = doc["designs"].as_array().expect("designs array");
    assert_eq!(designs.len(), 2, "{text}");
    for d in designs {
        assert!(d["frontier"].as_array().is_some_and(|f| !f.is_empty()));
    }
    let anchors = doc["anchors"].as_array().expect("anchors array");
    assert_eq!(anchors.len(), 4, "{text}");
    for a in anchors {
        assert_eq!(a["within_band"], serde_json::json!(true), "{a}");
    }
}

#[test]
fn tune_threads_do_not_change_the_json() {
    let one = repro(&["tune", "--json", "--budget", "12", "--threads", "1"]);
    let four = tune_json_4();
    assert!(one.status.success());
    assert!(four.status.success());
    assert_eq!(one.stdout, four.stdout, "frontier must be byte-identical");
}

#[test]
fn tune_out_writes_the_stdout_document_with_a_trailing_newline() {
    let path = scratch("tune-out.json");
    let out = repro(&["tune", "--json", "--budget", "12", "--out", &path]);
    assert!(out.status.success());
    let written = std::fs::read(&path).expect("artifact written");
    assert_eq!(written, out.stdout, "--out must mirror stdout");
    assert!(written.ends_with(b"\n"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn tune_frontier_check_detects_a_single_tampered_byte() {
    let golden = std::fs::read_to_string(GOLDEN_FRONTIER).expect("golden committed");
    let needle = "\"energy_per_instr\": 1.0";
    assert!(golden.contains(needle), "golden format changed");
    let tampered = golden.replacen(needle, "\"energy_per_instr\": 9.0", 1);
    let path = scratch("tune-drift.json");
    std::fs::write(&path, tampered).unwrap();
    let out = repro(&["tune", "--frontier-check", &path]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("drifted"), "{err}");
    assert!(err.contains("first difference at line"), "{err}");
    let _ = std::fs::remove_file(&path);
}
