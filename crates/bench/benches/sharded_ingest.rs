//! Sharded-ingest write path: parallel per-shard appends against the serial
//! single-file append they replace, shard compaction reclamation, and Q1
//! latency while background compaction runs.
//!
//! Three timed groups plus three recorded JSON lines:
//!
//! - `sharded_ingest/append_parallel_sharded` vs
//!   `sharded_ingest/append_serial_single_file`: the same time-sliced batch
//!   (returning users force chunk rewrites) appended to a 4-shard directory
//!   (per-shard appends run on their own threads under per-shard locks) and
//!   to one flat file. The untimed `sharded_ingest/append` line records both
//!   rows/sec rates and the speedup — the acceptance evidence that routing
//!   by user-id range buys write parallelism. It also carries the chunks the
//!   sharded append rewrote and the bytes it wrote (a batch that supersedes
//!   every chunk of a shard rewrites that shard whole, already compacted).
//! - `sharded_ingest/q1_during_compaction`: Q1 as a prepared statement on a
//!   live sharded table while an ingest thread keeps feeding batches and the
//!   maintenance thread auto-compacts shards past the dead-byte threshold.
//!   The recorded line carries the latency percentiles plus how many
//!   compaction passes actually fired during the window.
//! - `sharded_ingest/compaction`: dead/reclaimed byte accounting for a full
//!   compaction sweep after a batch that brings back only some users, so
//!   its appends take the in-place path and leave dead bytes behind.
//!
//! Full mode uses a ~40K-row cohort-clustered table; smoke mode
//! (`COHANA_BENCH_SMOKE=1`, CI) shrinks it to a bit-rot check.

use cohana_activity::{generate, ActivityTable, GeneratorConfig, TableBuilder};
use cohana_core::{paper, MaintenanceConfig};
use cohana_storage::{persist, shard, CompressedTable, CompressionOptions};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const SHARDS: usize = 4;

fn bench_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("cohana-sharded-ingest-bench");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Contiguous time slices (returning users in every later slice, so appends
/// rewrite chunks and leave dead bytes — the shape compaction exists for).
fn time_slices(table: &ActivityTable, k: usize) -> Vec<ActivityTable> {
    let tidx = table.schema().time_idx();
    let mut order: Vec<usize> = (0..table.num_rows()).collect();
    order.sort_by_key(|&r| table.rows()[r].get(tidx).as_int().unwrap());
    let per = table.num_rows().div_ceil(k).max(1);
    order
        .chunks(per)
        .map(|rows| {
            let mut b = TableBuilder::new(table.schema().clone());
            for &r in rows {
                b.push(table.rows()[r].values().to_vec()).unwrap();
            }
            b.finish().unwrap()
        })
        .collect()
}

/// Split off the later half (by time) of every `every`-th user's activity:
/// `(base, batch)`. The batch's returning users sit in some chunks but not
/// all, so appending it takes the in-place path and leaves dead bytes.
fn returning_subset(table: &ActivityTable, every: usize) -> (ActivityTable, ActivityTable) {
    let tidx = table.schema().time_idx();
    let (lo, hi) = table.int_range(tidx).unwrap();
    let mid = lo + (hi - lo) / 2;
    let mut parts = [0, 1].map(|_| TableBuilder::new(table.schema().clone()));
    for (bi, block) in table.user_blocks().enumerate() {
        for row in &table.rows()[block.range()] {
            let later = bi % every == 0 && row.get(tidx).as_int().unwrap() >= mid;
            parts[usize::from(later)].push(row.values().to_vec()).unwrap();
        }
    }
    let [base, batch] = parts.map(|b| b.finish().unwrap());
    (base, batch)
}

/// Copy a batch with every timestamp shifted forward: repeated ingests of
/// the same slice then never collide with rows already in the table (the
/// format enforces a (user, action, time) primary key), while the returning
/// users still force the chunk rewrites that feed compaction.
fn shift_times(batch: &ActivityTable, offset: i64) -> ActivityTable {
    let tidx = batch.schema().time_idx();
    let mut b = TableBuilder::new(batch.schema().clone());
    for row in batch.rows() {
        let mut vals = row.values().to_vec();
        let t = vals[tidx].as_int().unwrap();
        vals[tidx] = cohana_activity::Value::Int(t + offset);
        b.push(vals).unwrap();
    }
    b.finish().unwrap()
}

/// Reset a sharded directory to the image built from `base`.
fn reset_sharded(dir: &Path, base: &ActivityTable, chunk: CompressionOptions) {
    std::fs::remove_dir_all(dir).ok();
    shard::create_sharded(dir, base, SHARDS, chunk).unwrap();
}

fn bench_append(c: &mut Criterion) {
    let smoke = std::env::var_os("COHANA_BENCH_SMOKE").is_some();
    let users = if smoke { 200 } else { 3_000 };
    // Uniform arrival, not cohort-clustered: every time slice then spans the
    // whole user-id range, so a batch routes to all shards (the parallel
    // case this bench exists to measure) instead of piling into the last.
    let table = generate(&GeneratorConfig::new(users));
    let chunk = CompressionOptions::with_chunk_size(4 * 1024);
    let slices = time_slices(&table, 2);
    let dir = bench_dir();

    // Serial reference: one flat file, reset to the pre-append image each
    // iteration (identical shape to the `ingest` bench's time-slice case).
    let file = dir.join("serial.cohana");
    let first = CompressedTable::build(&slices[0], chunk).unwrap();
    let image = persist::to_bytes(&first);

    // Parallel path: a 4-shard directory rebuilt from the same first slice.
    let sharded = dir.join("sharded");

    let mut g = c.benchmark_group("sharded_ingest");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    g.bench_function("append_serial_single_file", |b| {
        b.iter_batched(
            || std::fs::write(&file, &image).unwrap(),
            |()| persist::append(&file, &slices[1]).unwrap(),
            BatchSize::PerIteration,
        )
    });
    g.bench_function("append_parallel_sharded", |b| {
        b.iter_batched(
            || reset_sharded(&sharded, &slices[0], chunk),
            |()| shard::append_sharded(&sharded, &slices[1]).unwrap(),
            BatchSize::PerIteration,
        )
    });
    g.finish();

    // Untimed head-to-head for the recorded speedup line: best-of-N of each
    // path on identical inputs, reported as rows/sec.
    let reps = if smoke { 2 } else { 5 };
    let rows = slices[1].num_rows() as f64;
    let mut serial = Duration::MAX;
    let mut parallel = Duration::MAX;
    let mut sharded_stats = shard::ShardedAppendStats::default();
    for _ in 0..reps {
        std::fs::write(&file, &image).unwrap();
        let t = Instant::now();
        persist::append(&file, &slices[1]).unwrap();
        serial = serial.min(t.elapsed());

        reset_sharded(&sharded, &slices[0], chunk);
        let t = Instant::now();
        sharded_stats = shard::append_sharded(&sharded, &slices[1]).unwrap();
        parallel = parallel.min(t.elapsed());
    }
    let shards_touched = sharded_stats.shards_touched();
    let total = sharded_stats.total();
    let serial_rate = rows / serial.as_secs_f64().max(1e-9);
    let parallel_rate = rows / parallel.as_secs_f64().max(1e-9);
    eprintln!(
        "# sharded_ingest/append: serial {serial_rate:.0} rows/s, parallel {parallel_rate:.0} \
         rows/s across {shards_touched} shards ({:.2}x); {} of {} chunks rewritten, {} bytes \
         written",
        parallel_rate / serial_rate,
        total.chunks_rewritten,
        total.chunks_before,
        total.bytes_appended
    );
    record_line(&format!(
        "{{\"bench\": \"sharded_ingest/append\", \"rows\": {}, \"shards\": {shards_touched}, \
         \"serial_rows_per_sec\": {serial_rate:.0}, \"parallel_rows_per_sec\": \
         {parallel_rate:.0}, \"speedup\": {:.3}, \"chunks_rewritten\": {}, \"bytes_written\": {}}}",
        slices[1].num_rows(),
        parallel_rate / serial_rate,
        total.chunks_rewritten,
        total.bytes_appended
    ));

    // Compaction accounting: append a batch that brings back some users,
    // then sweep — the reclaimed bytes are the dead bytes the returning-user
    // rewrites left behind.
    // Smoke mode's shards hold one chunk each at the timed chunk size, and
    // any returning user would supersede it: sweep smaller chunks there.
    let (base, partial) = returning_subset(&table, 8);
    let sweep = if smoke { CompressionOptions::with_chunk_size(512) } else { chunk };
    reset_sharded(&sharded, &base, sweep);
    shard::append_sharded(&sharded, &partial).unwrap();
    let dead_before: u64 =
        shard::shard_space_stats(&sharded).unwrap().iter().map(|s| s.dead_bytes).sum();
    let mut reclaimed = 0u64;
    for i in 0..SHARDS {
        reclaimed += shard::compact_shard(&sharded, i).unwrap().reclaimed_bytes;
    }
    eprintln!("# sharded_ingest/compaction: {dead_before} dead bytes, {reclaimed} reclaimed");
    record_line(&format!(
        "{{\"bench\": \"sharded_ingest/compaction\", \"shards\": {SHARDS}, \"dead_bytes\": \
         {dead_before}, \"reclaimed_bytes\": {reclaimed}}}"
    ));

    std::fs::remove_dir_all(&dir).ok();
}

fn bench_query_during_compaction(c: &mut Criterion) {
    let smoke = std::env::var_os("COHANA_BENCH_SMOKE").is_some();
    let users = if smoke { 200 } else { 3_000 };
    let table = generate(&GeneratorConfig::new(users));
    let chunk = CompressionOptions::with_chunk_size(4 * 1024);
    let slices = time_slices(&table, 6);
    let dir = bench_dir().join("live");
    shard::create_sharded(&dir, &slices[0], SHARDS, chunk).unwrap();

    // An eager maintenance config so compactions actually fire inside the
    // measurement window instead of after it.
    let engine = cohana_core::Cohana::new(Default::default());
    let handle = engine
        .open(&dir)
        .maintenance(MaintenanceConfig {
            auto_compact: true,
            dead_ratio: 0.01,
            interval: Duration::from_millis(5),
        })
        .open()
        .unwrap();
    let stmt = handle.prepare(&paper::q1()).unwrap();

    // Feed the remaining slices from a writer thread with small gaps, so
    // dead bytes accumulate and the maintenance thread compacts while the
    // timed Q1 group below is running.
    let sharded = handle.sharded_table().unwrap();
    let feed: Vec<ActivityTable> = slices[1..].to_vec();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let sharded = sharded.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut cycle = 0i64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                for batch in &feed {
                    if stop.load(std::sync::atomic::Ordering::Relaxed) {
                        break;
                    }
                    // Later cycles shift timestamps so rows stay unique.
                    let fresh =
                        if cycle == 0 { batch.clone() } else { shift_times(batch, cycle << 32) };
                    sharded.ingest(&fresh).unwrap();
                    std::thread::sleep(Duration::from_millis(2));
                }
                cycle += 1;
            }
        })
    };

    let mut g = c.benchmark_group("sharded_ingest");
    g.sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    g.bench_function("q1_during_compaction", |b| b.iter(|| stmt.execute().unwrap()));
    g.finish();

    // Smoke mode runs the group for a single iteration — too short for the
    // 5ms maintenance interval to tick — so hold the writer open until at
    // least one background compaction lands (bounded; full mode's 2s
    // measurement window normally gets there on its own).
    let deadline = Instant::now() + Duration::from_secs(5);
    while sharded.maintenance_stats().auto_compactions == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    writer.join().unwrap();
    let maint = sharded.maintenance_stats();
    eprintln!(
        "# sharded_ingest/q1_during_compaction: {} maintenance passes, {} auto-compactions, \
         {} bytes reclaimed in the background",
        maint.passes, maint.auto_compactions, maint.reclaimed_bytes
    );
    record_line(&format!(
        "{{\"bench\": \"sharded_ingest/maintenance\", \"passes\": {}, \"auto_compactions\": {}, \
         \"reclaimed_bytes\": {}}}",
        maint.passes, maint.auto_compactions, maint.reclaimed_bytes
    ));
    drop(stmt);
    drop(handle);
    drop(engine);
    std::fs::remove_dir_all(dir.parent().unwrap()).ok();
}

/// Append one extra JSON line to the same report file the criterion shim
/// writes (bench binaries run sequentially, so appending is race-free).
fn record_line(line: &str) {
    let Some(path) = std::env::var_os("COHANA_BENCH_REPORT") else { return };
    if let Ok(mut f) =
        std::fs::OpenOptions::new().create(true).append(true).open(std::path::Path::new(&path))
    {
        use std::io::Write;
        let _ = writeln!(f, "{line}");
    }
}

criterion_group!(benches, bench_append, bench_query_during_compaction);
criterion_main!(benches);
