//! End-to-end scan throughput of the vectorized chunk executor.
//!
//! The per-chunk pipeline (block time decode, per-chunk predicate
//! specialization, allocation-free inner loop — see `docs/PERF.md`) exists
//! to raise rows/sec on exactly these shapes: an unselective full scan
//! (Q1), a predicate-heavy scan (Q4: birth + correlated age selection),
//! and an integer aggregate (Q3). Each bench executes one prepared
//! statement end to end; the group's `Throughput::Elements` is the table's
//! row count, so the JSON-lines report (`COHANA_BENCH_REPORT`) records
//! rows/sec for every entry — the speedup is a recorded number, not a
//! claim.
//!
//! Full mode scans a generated ~1M-row table; smoke mode
//! (`COHANA_BENCH_SMOKE=1`, CI) shrinks the dataset so the bench stays a
//! bit-rot check. Sources: the resident [`CompressedTable`] and a v4
//! [`FileSource`] whose segment cache is warmed first (decode cost without
//! disk I/O in the timed region).

use cohana_activity::{generate, GeneratorConfig};
use cohana_core::{paper, CohortQuery, PlannerOptions, Statement};
use cohana_storage::{persist, ChunkSource, CompressedTable, CompressionOptions, FileSource};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::sync::Arc;
use std::time::Duration;

fn bench_scan_throughput(c: &mut Criterion) {
    let smoke = std::env::var_os("COHANA_BENCH_SMOKE").is_some();
    // ~94 rows/user under the default generator: 11_000 users ≈ 1M rows.
    let users = if smoke { 200 } else { 11_000 };
    let table = generate(&GeneratorConfig::new(users));
    let rows = table.num_rows() as u64;
    let compressed = Arc::new(
        CompressedTable::build(&table, CompressionOptions::with_chunk_size(64 * 1024)).unwrap(),
    );
    eprintln!(
        "# scan_throughput dataset: {rows} rows, {} users, {} chunks",
        table.num_users(),
        compressed.chunks().len()
    );

    let dir = std::env::temp_dir().join("cohana-scan-throughput-bench");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scan-throughput.cohana");
    persist::write_file(&compressed, &path).unwrap();
    let v4 = Arc::new(FileSource::open(&path).unwrap());

    let queries: Vec<(&str, CohortQuery)> =
        vec![("q1", paper::q1()), ("q3", paper::q3()), ("q4", paper::q4())];

    let mut g = c.benchmark_group("scan_throughput");
    g.throughput(Throughput::Elements(rows));
    g.sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    for (name, query) in &queries {
        for (src_name, src) in [
            ("resident", Arc::clone(&compressed) as Arc<dyn ChunkSource>),
            ("v4_warm", Arc::clone(&v4) as Arc<dyn ChunkSource>),
        ] {
            let stmt = Statement::over(src, query, PlannerOptions::default(), 1).unwrap();
            stmt.execute().unwrap(); // warm the segment cache
            g.bench_function(format!("{name}_{src_name}"), |b| b.iter(|| stmt.execute().unwrap()));
        }
    }
    g.finish();

    // One untimed run's own accounting: the executor-attributed rows/sec.
    let stmt = Statement::over(compressed, &paper::q1(), PlannerOptions::default(), 1).unwrap();
    let report = stmt.execute().unwrap();
    if let Some(stats) = report.stats {
        eprintln!("# scan_throughput/q1 stats: {stats}");
    }
    std::fs::remove_file(&path).ok();
}

criterion_group!(benches, bench_scan_throughput);
criterion_main!(benches);
