//! Serving-layer load generator: N concurrent clients fire the paper's
//! Q1–Q8 mix over the wire at an in-process `cohana-serve`, measuring
//! end-to-end (network + admission + engine) latency percentiles and
//! aggregate scan throughput under real connection concurrency.
//!
//! This is a custom harness (`harness = false`, no criterion): the subject
//! is the *distribution* of per-query latencies under contention and the
//! admission queue's behaviour, not a single hot loop. Results go to
//! stderr and — when `COHANA_BENCH_REPORT` is set — as JSON lines to the
//! shared report file: one `serving/<query>` line per query kind and one
//! `serving/mix` aggregate carrying `p50_seconds`, `p99_seconds`,
//! `rows_per_sec` (rows scanned server-side per wall second), and the
//! admission high-water marks. CI smoke-runs this (`COHANA_BENCH_SMOKE=1`,
//! 8 clients × 1 pass — still ≥ 8 live concurrent connections) and greps
//! the report for the `serving/` lines.

use cohana_activity::{generate, GeneratorConfig, Timestamp};
use cohana_bench::report::record_line;
use cohana_bench::timing::percentile;
use cohana_core::{paper, Cohana, CohortQuery, EngineOptions};
use cohana_server::{Client, Server, ServerConfig};
use cohana_storage::{CompressedTable, CompressionOptions};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn queries() -> Vec<(&'static str, CohortQuery)> {
    let d1 = Timestamp::parse("2013-05-21").unwrap().secs();
    let d2 = Timestamp::parse("2013-05-27").unwrap().secs();
    vec![
        ("q1", paper::q1()),
        ("q2", paper::q2()),
        ("q3", paper::q3()),
        ("q4", paper::q4()),
        ("q5", paper::q5(d1, d2)),
        ("q6", paper::q6(d1, d2)),
        ("q7", paper::q7(7)),
        ("q8", paper::q8(7)),
    ]
}

fn main() {
    let smoke = std::env::var_os("COHANA_BENCH_SMOKE").is_some();
    let (users, clients, passes) = if smoke { (300, 8, 1) } else { (3_000, 16, 4) };
    let cap = 4;

    eprintln!("# serving: generating {users} users…");
    let table = generate(&GeneratorConfig::new(users));
    let rows = table.num_rows();
    let compressed =
        CompressedTable::build(&table, CompressionOptions::with_chunk_size(16 * 1024)).unwrap();
    let engine = Cohana::new(EngineOptions::default());
    engine.register("GameActions", compressed);

    let mut server = Server::start(
        Arc::new(engine),
        ServerConfig { admission_cap: cap, queue_bound: 1024, ..ServerConfig::default() },
    )
    .expect("server binds");
    let addr = server.local_addr();
    eprintln!("# serving: {rows} rows at {addr}, {clients} clients x {passes} passes of Q1-Q8");

    /// (query name, latency, rows the server scanned for it)
    type Sample = (&'static str, Duration, u64);
    let samples: Arc<Mutex<Vec<Sample>>> = Arc::new(Mutex::new(Vec::new()));
    let sql: Arc<Vec<(&'static str, String)>> =
        Arc::new(queries().into_iter().map(|(n, q)| (n, q.to_sql())).collect());

    let wall_start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let samples = samples.clone();
            let sql = sql.clone();
            std::thread::spawn(move || {
                let mut client =
                    Client::connect(addr, &format!("bench-{i}")).expect("client connects");
                let prepared: Vec<_> = sql
                    .iter()
                    .map(|(name, text)| (*name, client.prepare(text).expect("prepares")))
                    .collect();
                for pass in 0..passes {
                    for k in 0..prepared.len() {
                        // Offset per client and pass so the in-flight mix
                        // overlaps different queries, not eight copies of Q1.
                        let (name, p) = &prepared[(i + pass + k) % prepared.len()];
                        let started = Instant::now();
                        let report = client
                            .execute(p)
                            .expect("execute starts")
                            .collect()
                            .expect("remote query runs");
                        let latency = started.elapsed();
                        let scanned = report.stats.expect("server stats attached").rows_scanned;
                        samples.lock().unwrap().push((name, latency, scanned));
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread succeeds");
    }
    let wall = wall_start.elapsed();
    let admission = server.admission_stats();
    server.shutdown();

    let all = samples.lock().unwrap().clone();
    let total_queries = all.len();
    let total_scanned: u64 = all.iter().map(|(_, _, r)| r).sum();
    let rows_per_sec = total_scanned as f64 / wall.as_secs_f64().max(1e-9);

    let mut by_query: BTreeMap<&'static str, Vec<Duration>> = BTreeMap::new();
    for (name, latency, _) in &all {
        by_query.entry(name).or_default().push(*latency);
    }
    for (name, lat) in by_query {
        let p50 = percentile(&lat, 50.0).expect("every query ran");
        let p99 = percentile(&lat, 99.0).expect("every query ran");
        eprintln!("# serving/{name}: {} runs, p50 {p50:.1?}, p99 {p99:.1?}", lat.len());
        record_line(&format!(
            "{{\"bench\": \"serving/{name}\", \"runs\": {}, \"p50_seconds\": {:.6}, \
             \"p99_seconds\": {:.6}}}",
            lat.len(),
            p50.as_secs_f64(),
            p99.as_secs_f64()
        ));
    }

    let lat: Vec<Duration> = all.iter().map(|(_, d, _)| *d).collect();
    let p50 = percentile(&lat, 50.0).expect("queries ran");
    let p99 = percentile(&lat, 99.0).expect("queries ran");
    eprintln!(
        "# serving/mix: {total_queries} queries over {wall:.1?}, p50 {p50:.1?}, p99 {p99:.1?}, \
         {rows_per_sec:.0} rows/s, peak {}/{} active, queue depth max {}, total queue wait {:.1?}",
        admission.peak_active, admission.cap, admission.max_queue_depth, admission.total_queue_wait
    );
    assert!(admission.peak_active <= cap, "admission cap violated under load");
    record_line(&format!(
        "{{\"bench\": \"serving/mix\", \"clients\": {clients}, \"queries\": {total_queries}, \
         \"p50_seconds\": {:.6}, \"p99_seconds\": {:.6}, \"rows_per_sec\": {:.0}, \
         \"cap\": {}, \"peak_active\": {}, \"max_queue_depth\": {}, \
         \"total_queue_wait_seconds\": {:.6}}}",
        p50.as_secs_f64(),
        p99.as_secs_f64(),
        rows_per_sec,
        admission.cap,
        admission.peak_active,
        admission.max_queue_depth,
        admission.total_queue_wait.as_secs_f64()
    ));
}
