//! Cold-scan cost of the v4 per-blob codecs versus the raw v3 layout.
//!
//! The v4 format compresses each column blob with whichever of
//! raw / delta-then-bit-pack / range-ANS is smallest, so a cold scan reads
//! fewer disk bytes but pays a decode step per compressed blob. This bench
//! writes the same default-generator dataset as a v3 and a v4 file and
//! measures the trade both ways:
//!
//! - `lazy_io/q1_cold_{v3,v4}`: Q1 against a freshly opened `FileSource`
//!   every iteration — the cold-open latency the acceptance bar guards
//!   ("cold-open Q1 no worse than v3").
//! - `lazy_io/q1_budget_{v3,v4}`: the same cold scan through a cache budget
//!   of 1/8 of the v3 file, where the smaller v4 reads show up as fewer
//!   evictions and less re-read traffic.
//!
//! After the timed groups it appends plain JSON lines to the
//! `COHANA_BENCH_REPORT` file (the same one the criterion shim writes):
//! one `lazy_io/compression` line per column plus a `total` line with the
//! v3/v4 file sizes and ratio, and one `lazy_io/decode` line per codec
//! with blob counts and decode nanoseconds, both backed by
//! `persist::inspect`. CI greps for these lines in the smoke report.
//!
//! Full mode uses a ~560K-row table; smoke mode (`COHANA_BENCH_SMOKE=1`,
//! CI) shrinks it to a bit-rot check.

use cohana_activity::{generate, GeneratorConfig};
use cohana_bench::report::record_line;
use cohana_core::{paper, PlannerOptions, Statement};
use cohana_storage::{
    persist, ChunkSource, Codec, CompressedTable, CompressionOptions, FileSource,
};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn bench_lazy_io(c: &mut Criterion) {
    let smoke = std::env::var_os("COHANA_BENCH_SMOKE").is_some();
    let users = if smoke { 200 } else { 6_000 };
    let table = generate(&GeneratorConfig::new(users));
    let rows = table.num_rows() as u64;
    let compressed =
        CompressedTable::build(&table, CompressionOptions::with_chunk_size(16 * 1024)).unwrap();

    let dir = std::env::temp_dir().join("cohana-bench-lazy-io-files");
    std::fs::create_dir_all(&dir).unwrap();
    let v3_path = dir.join("lazy-io-v3.cohana");
    let v4_path = dir.join("lazy-io-v4.cohana");
    std::fs::write(&v3_path, persist::to_bytes_v3(&compressed)).unwrap();
    persist::write_file(&compressed, &v4_path).unwrap();
    let v3_len = std::fs::metadata(&v3_path).unwrap().len();
    let v4_len = std::fs::metadata(&v4_path).unwrap().len();
    eprintln!(
        "# lazy_io dataset: {rows} rows, v3 file {v3_len} bytes, v4 file {v4_len} bytes \
         ({:.2}x smaller)",
        v3_len as f64 / v4_len as f64
    );

    let q1 = paper::q1();
    let files: [(&str, &PathBuf); 2] = [("v3", &v3_path), ("v4", &v4_path)];

    let mut g = c.benchmark_group("lazy_io");
    g.throughput(Throughput::Elements(rows));
    g.sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    // Cold-open: a fresh FileSource per iteration, so every read hits the
    // file and every compressed blob pays its decode.
    for (name, path) in files {
        g.bench_function(format!("q1_cold_{name}"), |b| {
            b.iter(|| {
                let src = Arc::new(FileSource::open(path).unwrap());
                Statement::over(src, &q1, PlannerOptions::default(), 1).unwrap().execute().unwrap()
            })
        });
    }
    // Constrained budget: cache holds 1/8 of the v3 image (same byte budget
    // for both versions — v4's smaller blobs fit more of the working set).
    let budget = (v3_len as usize / 8).max(1);
    for (name, path) in files {
        g.bench_function(format!("q1_budget_{name}"), |b| {
            b.iter(|| {
                let src = Arc::new(FileSource::open_with_budget(path, budget).unwrap());
                Statement::over(src, &q1, PlannerOptions::default(), 1).unwrap().execute().unwrap()
            })
        });
    }
    g.finish();

    // One untimed cold Q1 per version for the byte-accounting line: disk
    // bytes read vs bytes decoded is the direct measure of codec savings on
    // the query's working set.
    for (name, path) in files {
        let src = Arc::new(FileSource::open(path).unwrap());
        Statement::over(src.clone(), &q1, PlannerOptions::default(), 1).unwrap().execute().unwrap();
        let io = src.io_stats();
        eprintln!(
            "# lazy_io/q1 {name}: {} bytes read from disk, {} bytes decoded",
            io.bytes_read, io.bytes_decompressed
        );
        record_line(&format!(
            "{{\"bench\": \"lazy_io/q1_io\", \"version\": \"{name}\", \"bytes_read\": {}, \
             \"bytes_decompressed\": {}}}",
            io.bytes_read, io.bytes_decompressed
        ));
    }

    // Constrained-budget sweep, untimed: Q1–Q8 through one shared cache of
    // 1/8 the v3 image. Evictions force re-reads, so the disk traffic gap
    // (not wall time, which page-cache-warm runs hide) is the cold-scan win
    // the smaller v4 blobs buy.
    for (name, path) in files {
        let src = Arc::new(FileSource::open_with_budget(path, budget).unwrap());
        for q in [paper::q1(), paper::q2(), paper::q3(), paper::q4(), paper::q7(7), paper::q8(7)] {
            Statement::over(src.clone(), &q, PlannerOptions::default(), 1)
                .unwrap()
                .execute()
                .unwrap();
        }
        let io = src.io_stats();
        eprintln!(
            "# lazy_io/budget {name}: {} bytes read from disk over Q1-Q4+Q7-Q8, {} evictions",
            io.bytes_read, io.cache_evictions
        );
        record_line(&format!(
            "{{\"bench\": \"lazy_io/budget_io\", \"version\": \"{name}\", \"budget\": {budget}, \
             \"bytes_read\": {}, \"bytes_decompressed\": {}, \"evictions\": {}}}",
            io.bytes_read, io.bytes_decompressed, io.cache_evictions
        ));
    }

    record_compression(&v4_path, v3_len, v4_len);
    std::fs::remove_file(&v3_path).ok();
    std::fs::remove_file(&v4_path).ok();
}

/// Walk the v4 file with `persist::inspect` and append the per-column and
/// per-codec evidence lines. A v4 blob's uncompressed size is exactly its
/// v3 serialization, so `uncompressed_bytes` doubles as the v3 baseline.
fn record_compression(v4_path: &Path, v3_len: u64, v4_len: u64) {
    let info = persist::inspect(v4_path).expect("inspect v4 file");
    for col in &info.columns {
        record_line(&format!(
            "{{\"bench\": \"lazy_io/compression\", \"column\": \"{}\", \"v3_bytes\": {}, \
             \"v4_bytes\": {}, \"ratio\": {:.3}}}",
            col.name,
            col.uncompressed_bytes,
            col.compressed_bytes,
            col.ratio()
        ));
        eprintln!(
            "# lazy_io/compression {}: {} -> {} bytes ({:.2}x)",
            col.name,
            col.uncompressed_bytes,
            col.compressed_bytes,
            col.ratio()
        );
    }
    record_line(&format!(
        "{{\"bench\": \"lazy_io/compression\", \"column\": \"total\", \"v3_bytes\": {}, \
         \"v4_bytes\": {}, \"ratio\": {:.3}, \"v3_file_bytes\": {v3_len}, \
         \"v4_file_bytes\": {v4_len}, \"file_ratio\": {:.3}}}",
        info.uncompressed_bytes(),
        info.compressed_bytes(),
        info.ratio(),
        v3_len as f64 / v4_len as f64
    ));
    for (tag, stats) in info.codecs.iter().enumerate() {
        let name = Codec::from_tag(tag as u8).expect("codec tag").name();
        record_line(&format!(
            "{{\"bench\": \"lazy_io/decode\", \"codec\": \"{name}\", \"blobs\": {}, \
             \"compressed_bytes\": {}, \"uncompressed_bytes\": {}, \"decode_ns\": {}, \
             \"mbps_out\": {:.1}}}",
            stats.blobs,
            stats.compressed_bytes,
            stats.uncompressed_bytes,
            stats.decode_nanos,
            stats.decode_mbps()
        ));
    }
}

criterion_group!(benches, bench_lazy_io);
criterion_main!(benches);
