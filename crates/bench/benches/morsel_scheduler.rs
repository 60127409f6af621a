//! Morsel-driven work-stealing under a skewed chunk-size distribution.
//!
//! The static per-chunk worker stride this scheduler replaced degrades
//! exactly here: one whale chunk holding ~half the table serializes on
//! whichever worker draws it, so adding workers stops helping and query
//! latency grows a fat tail. Morsel scheduling splits the whale into
//! ~16K-row user-block morsels that idle workers steal, so parallel latency
//! should stay tight — the acceptance bar is p99 ≤ 1.3× p50 at
//! parallelism 4, and both percentiles land in the JSON-lines report
//! (`COHANA_BENCH_REPORT`) on every `morsel_scheduler/...` line.
//!
//! After the timed benches, one streamed parallel execution reports the
//! per-worker busy-time split (`QueryStream::worker_busy`) and appends it to
//! the report as a `morsel_scheduler/worker_busy` line: with stealing, no
//! worker's share should dwarf the others' even though one chunk holds half
//! the rows.
//!
//! Full mode scans a ~1.1M-row skewed table; smoke mode
//! (`COHANA_BENCH_SMOKE=1`, CI) shrinks it to a bit-rot check.

use cohana_activity::{generate, GeneratorConfig};
use cohana_bench::report::record_line;
use cohana_core::{paper, CohortQuery, PlannerOptions, Statement};
use cohana_storage::{CompressedTable, CompressionOptions};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::sync::Arc;
use std::time::Duration;

fn bench_morsel_scheduler(c: &mut Criterion) {
    let smoke = std::env::var_os("COHANA_BENCH_SMOKE").is_some();
    // `skewed` doubles the normal users' rows into one whale user, so
    // 6_000 users ≈ 560K normal rows + a single ~560K-row whale chunk.
    let users = if smoke { 60 } else { 6_000 };
    let table = generate(&GeneratorConfig::skewed(users));
    let rows = table.num_rows() as u64;
    let compressed = Arc::new(
        CompressedTable::build(&table, CompressionOptions::with_chunk_size(16 * 1024)).unwrap(),
    );
    let whale_rows =
        compressed.chunks().iter().map(|ch| ch.num_rows()).max().unwrap_or(0) as f64 / rows as f64;
    eprintln!(
        "# morsel_scheduler dataset: {rows} rows, {} chunks, largest chunk {:.0}% of table",
        compressed.chunks().len(),
        whale_rows * 100.0
    );

    let queries: Vec<(&str, CohortQuery)> = vec![("q1", paper::q1()), ("q3", paper::q3())];

    let mut g = c.benchmark_group("morsel_scheduler");
    g.throughput(Throughput::Elements(rows));
    g.sample_size(20)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    for (name, query) in &queries {
        for workers in [1usize, 4] {
            let stmt =
                Statement::over(compressed.clone(), query, PlannerOptions::default(), workers)
                    .unwrap();
            g.bench_function(format!("{name}_skewed_p{workers}"), |b| {
                b.iter(|| stmt.execute().unwrap())
            });
        }
    }
    g.finish();

    // One untimed streamed run at parallelism 4: the per-worker busy split
    // is the direct evidence of stealing (a static stride would put the
    // whole whale chunk on one worker).
    let stmt = Statement::over(compressed, &paper::q3(), PlannerOptions::default(), 4).unwrap();
    let mut stream = stmt.stream();
    for batch in &mut stream {
        batch.unwrap();
    }
    let busy = stream.worker_busy();
    let stats = stream.stats();
    drop(stream);
    eprintln!(
        "# morsel_scheduler/q3 p4: {} morsels, per-worker busy ms {:?}",
        stats.morsels_executed,
        busy.iter().map(|ns| ns / 1_000_000).collect::<Vec<_>>()
    );
    let joined = busy.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(", ");
    record_line(&format!(
        "{{\"bench\": \"morsel_scheduler/worker_busy\", \"workers\": {}, \"morsels\": {}, \
         \"worker_busy_ns\": [{joined}]}}",
        busy.len(),
        stats.morsels_executed
    ));
}

criterion_group!(benches, bench_morsel_scheduler);
criterion_main!(benches);
