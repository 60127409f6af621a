//! Incremental-ingest microbenchmarks: append throughput for the two batch
//! shapes (new users only — the pure-append fast path — vs time-sliced
//! batches whose returning users force chunk rewrites), plus Q1 latency on
//! an appended file against the same file compacted.
//!
//! CI runs this bench in smoke mode (`COHANA_BENCH_SMOKE=1`, one iteration
//! per bench) so append/compact bit-rot fails the workflow.

use cohana_activity::{generate, ActivityTable, GeneratorConfig, TableBuilder};
use cohana_bench::datasets::time_slices;
use cohana_core::{paper, plan_query, PlannerOptions, Statement};
use cohana_storage::{persist, ChunkSource, CompressedTable, CompressionOptions, FileSource};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn bench_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("cohana-ingest-bench");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Split per user block (no user spans batches: appends never rewrite).
fn user_slices(table: &ActivityTable, k: usize) -> Vec<ActivityTable> {
    let mut builders: Vec<TableBuilder> =
        (0..k).map(|_| TableBuilder::new(table.schema().clone())).collect();
    for (bi, block) in table.user_blocks().enumerate() {
        for row in block.range() {
            builders[bi % k].push(table.rows()[row].values().to_vec()).unwrap();
        }
    }
    builders.into_iter().map(|b| b.finish().unwrap()).collect()
}

fn bench_append(c: &mut Criterion) {
    // Cohort-clustered arrival: the realistic live-traffic shape (new users
    // dominate late batches).
    let table = generate(&GeneratorConfig::cohort_clustered(300));
    let chunk = CompressionOptions::with_chunk_size(4 * 1024);
    let dir = bench_dir();

    let mut g = c.benchmark_group("ingest");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    for (name, slices) in [
        ("append_new_users", user_slices(&table, 2)),
        ("append_time_slice", time_slices(&table, 2)),
    ] {
        let path = dir.join(format!("{name}.cohana"));
        let first = CompressedTable::build(&slices[0], chunk).unwrap();
        let image = persist::to_bytes(&first);
        g.bench_function(name, |b| {
            b.iter_batched(
                // Reset the file to the pre-append image each iteration.
                || std::fs::write(&path, &image).unwrap(),
                |()| persist::append(&path, &slices[1]).unwrap(),
                BatchSize::PerIteration,
            )
        });
        std::fs::remove_file(&path).ok();
    }
    g.finish();
}

fn bench_query_after_ingest(c: &mut Criterion) {
    let table = generate(&GeneratorConfig::cohort_clustered(300));
    let chunk = CompressionOptions::with_chunk_size(4 * 1024);
    let dir = bench_dir();
    let slices = time_slices(&table, 4);

    let appended = dir.join("q1-appended.cohana");
    persist::write_file(&CompressedTable::build(&slices[0], chunk).unwrap(), &appended).unwrap();
    for s in &slices[1..] {
        persist::append(&appended, s).unwrap();
    }
    let compacted = dir.join("q1-compacted.cohana");
    std::fs::copy(&appended, &compacted).unwrap();
    persist::compact(&compacted).unwrap();

    let schema = table.schema();
    let plan = plan_query(&paper::q1(), schema, PlannerOptions::default()).unwrap();
    let mut g = c.benchmark_group("ingest_q1");
    g.sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    for (name, path) in [("post_append", &appended), ("post_compact", &compacted)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let src = FileSource::open(path).unwrap();
                Statement::with_plan(Arc::new(src), plan.clone(), 1).unwrap().execute().unwrap()
            })
        });
    }
    g.finish();

    // One cold report of what each image costs to read (not timed).
    for (name, path) in [("post_append", &appended), ("post_compact", &compacted)] {
        let src = Arc::new(FileSource::open(path).unwrap());
        Statement::with_plan(src.clone(), plan.clone(), 1).unwrap().execute().unwrap();
        let io = src.io_stats();
        eprintln!(
            "# ingest_q1/{name} io: decoded {} of {} chunks, read {} of {} file bytes",
            io.chunks_decoded,
            src.num_chunks(),
            io.bytes_read,
            std::fs::metadata(path).unwrap().len(),
        );
    }
    std::fs::remove_file(&appended).ok();
    std::fs::remove_file(&compacted).ok();
}

criterion_group!(benches, bench_append, bench_query_after_ingest);
criterion_main!(benches);
