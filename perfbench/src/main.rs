//! The COHANA cohort-engine benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-warm|scan-spill|ingest-scan --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Generates the input from the seed, sets
//! the workload up several times, runs its closed loop for `--seconds`,
//! checks every answer against the naive reference evaluator, and prints
//! one JSON line of details followed by the result line: with `--trace 0`
//! the end-to-end metrics, with `--trace 1` the per-layer metrics of a run
//! whose second half records spans (written to
//! `.perfbench/spans-<workload>.jsonl`). See `perfbench/README.md`.

mod common;
mod host;
mod ingest_scan;
mod json;
mod layers;
mod scan_spill;
mod serve_warm;
mod trace;

use common::{cpu_ticks, memcpy_gbps, Outcome, RunConfig};
use json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The end-to-end metrics of the result line (those `BENCHMARK.json`
/// bounds), with their units, in report order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps", "queries/s"),
    ("latency_p50_ms", "ms"),
    ("rss_mb", "MB"),
    ("stored_bytes_per_row", "B/row"),
    ("ingest_rows_per_s", "rows/s"),
    ("write_amp", "ratio"),
];

/// End-to-end metrics printed in the details line only. The tails follow
/// the hypervisor's steal time on a shared host by more than any bound a
/// regression check could use; `latency_tail_ms` is p99 on serve-warm and
/// p95 on the others, the highest percentile with at least ten samples
/// beyond it in each window.
const DETAILS_ONLY: &[(&str, &str)] =
    &[("latency_tail_ms", "ms"), ("latency_p95_ms", "ms"), ("latency_p99_ms", "ms")];

/// Largest share of traced request time that may fall outside every layer
/// span before a traced run reports `"correct": false`.
const MAX_UNATTRIBUTED: f64 = 0.02;

const WORKLOADS: &[&str] = &["serve-warm", "scan-spill", "ingest-scan"];

/// Generator users: ~507K rows, 8 chunks of 64 Ki rows, a ~1.8 MB v4 file.
const DEFAULT_USERS: usize = 4_000;
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    users: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        users: DEFAULT_USERS,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            "--users" => args.users = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 || args.users == 0 {
        return Err("--seconds and --users must be positive".into());
    }
    Ok(args)
}

/// A digest of the engine's sources, so a result names the code it
/// measured even in a checkout without version-control metadata.
fn source_digest(root: &Path) -> String {
    use std::hash::{Hash, Hasher};
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("vendor"), &mut files);
    files.sort();
    // `DefaultHasher::new` uses fixed keys: the digest repeats across runs.
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for f in &files {
        f.strip_prefix(root).unwrap_or(f).hash(&mut h);
        std::fs::read(f).unwrap_or_default().hash(&mut h);
    }
    format!("{:016x}", h.finish())
}

/// The checked-out commit, when the working directory is a git checkout
/// (and not merely inside one).
fn git_commit(root: &Path) -> Option<String> {
    if !root.join(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git").args(["rev-parse", "HEAD"]).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn result_line(args: &Args, outcome: &Outcome) -> Json {
    let mut metrics = Json::obj();
    if args.trace {
        for (name, unit, _) in layers::PER_LAYER {
            let v = outcome.per_layer.get(*name).copied().unwrap_or(0.0);
            metrics.set(name, Json::obj().with("value", v).with("unit", *unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            let v = outcome.end_to_end.get(name).copied().unwrap_or(0.0);
            metrics.set(name, Json::obj().with("value", v).with("unit", *unit));
        }
    }
    Json::obj()
        .with("correct", outcome.correct)
        .with("attempted", outcome.attempted)
        .with("failed", outcome.failed)
        .with("metrics", metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    let out_dir = root.join(".perfbench");
    let work_dir = out_dir.join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        return ExitCode::from(1);
    }
    let (memcpy, memcpy_bytes) = memcpy_gbps();
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        users: args.users,
        work_dir: work_dir.clone(),
    };
    eprintln!(
        "perfbench: {} seed {} for {}s (trace {})",
        args.workload, args.seed, args.seconds, args.trace
    );
    let ticks_before = cpu_ticks();
    let mut outcome = match args.workload.as_str() {
        "serve-warm" => serve_warm::run(&cfg),
        "scan-spill" => scan_spill::run(&cfg),
        _ => ingest_scan::run(&cfg),
    };
    let ticks_after = cpu_ticks();
    let steal_share = common::ratio(
        ticks_after.0.saturating_sub(ticks_before.0) as f64,
        ticks_after.1.saturating_sub(ticks_before.1) as f64,
    );
    let _ = std::fs::remove_dir_all(&work_dir);
    outcome.per_layer.insert("host.memcpy_gbps".into(), memcpy);
    outcome.per_layer.insert("host.steal_share".into(), steal_share);

    // The layer spans must explain a traced request's blocking path: only
    // a small share of its time may fall outside every layer call.
    let unattributed = outcome.per_layer.get("trace.unattributed_share").copied().unwrap_or(0.0);
    if args.trace && unattributed > MAX_UNATTRIBUTED {
        eprintln!(
            "perfbench: {:.1}% of request time is outside every layer span (limit {:.0}%)",
            unattributed * 100.0,
            MAX_UNATTRIBUTED * 100.0
        );
        outcome.correct = false;
    }

    let error_rate = common::ratio(outcome.failed as f64, outcome.attempted as f64);
    let mut e2e = Json::obj();
    for (name, unit) in END_TO_END.iter().chain(DETAILS_ONLY) {
        let v = outcome.end_to_end.get(name).copied().unwrap_or(0.0);
        e2e.set(name, Json::obj().with("value", v).with("unit", *unit));
    }
    e2e.set("error_rate", Json::obj().with("value", error_rate).with("unit", "ratio"));
    let host = Json::obj()
        .with("nproc", std::thread::available_parallelism().map_or(0, |n| n.get()))
        .with("memcpy_gbps", memcpy)
        .with("memcpy_buffer_bytes", memcpy_bytes)
        .with("steal_share", steal_share)
        .with("commit", git_commit(&root))
        .with("source_digest", source_digest(&root));
    let details = Json::obj()
        .with("workload", args.workload.as_str())
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("users", args.users)
        .with("host", host)
        .with("end_to_end", e2e)
        .with("workload_details", std::mem::take(&mut outcome.details));
    println!("{}", Json::obj().with("perfbench_details", details));
    println!("{}", result_line(&args, &outcome));
    ExitCode::SUCCESS
}
