//! Pieces every workload shares: the generated input, the Q1–Q8 mix and
//! its naive reference answers, latency statistics, the resident-set sampler,
//! the host memcpy reference and the per-run result record.

use crate::host::{self, Calibration};
use crate::json::Json;
use cohana_activity::{generate, ActivityTable, GeneratorConfig, TableBuilder, Timestamp};
use cohana_core::naive::naive_execute;
use cohana_core::{paper, CohortQuery, CohortReport};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Rows per chunk for every table the benchmark builds.
pub const CHUNK_ROWS: usize = 64 * 1024;

/// Times a load-only workload sets itself up; `setup_s` and the bulk
/// load's `ingest_rows_per_s` are medians over them.
pub const SETUPS: usize = 9;

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Users the generator creates.
    pub users: usize,
    /// Scratch directory for table files; removed at the end of the run.
    pub work_dir: PathBuf,
}

/// The Q1–Q8 mix of the paper's evaluation (§5.2), with the date range
/// and age bound the paper sweeps at their middle settings. Index `k`
/// holds Q`k+1`.
pub fn queries() -> Vec<CohortQuery> {
    let d1 = Timestamp::parse("2013-05-21").expect("valid date").secs();
    let d2 = Timestamp::parse("2013-05-27").expect("valid date").secs();
    vec![
        paper::q1(),
        paper::q2(),
        paper::q3(),
        paper::q4(),
        paper::q5(d1, d2),
        paper::q6(d1, d2),
        paper::q7(7),
        paper::q8(7),
    ]
}

/// The default generator at `users` users, seeded from the run's seed.
pub fn generate_input(users: usize, seed: u64) -> ActivityTable {
    generate(&GeneratorConfig { seed, ..GeneratorConfig::new(users) })
}

/// The naive reference answer of every query over `table`.
pub fn reference_answers(table: &ActivityTable, queries: &[CohortQuery]) -> Vec<CohortReport> {
    queries.iter().map(|q| naive_execute(table, q).expect("naive reference evaluates")).collect()
}

/// Split a table's rows by time: the first `head_share` of rows in time
/// order, then the rest in `k` equal consecutive slices.
pub fn time_split(
    table: &ActivityTable,
    head_share: f64,
    k: usize,
) -> (ActivityTable, Vec<ActivityTable>) {
    let tidx = table.schema().time_idx();
    let mut order: Vec<usize> = (0..table.num_rows()).collect();
    order.sort_by_key(|&r| (table.rows()[r].get(tidx).as_int().expect("time is an int"), r));
    let head = (table.num_rows() as f64 * head_share) as usize;
    let build = |rows: &[usize]| {
        let mut b = TableBuilder::with_capacity(table.schema().clone(), rows.len());
        for &r in rows {
            b.push(table.rows()[r].values().to_vec()).expect("generated rows are valid");
        }
        b.finish().expect("generated rows are valid")
    };
    let per = (order.len() - head).div_ceil(k).max(1);
    (build(&order[..head]), order[head..].chunks(per).map(build).collect())
}

/// One completed (or failed) operation of a timed loop.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub latency: Duration,
    /// When the operation completed, from the start of its loop.
    pub at: Duration,
    pub ok: bool,
    /// Which query of the mix: index `k` is Q`k+1`.
    pub kind: usize,
}

/// A stretch of a timed loop: the operations completed in it, the
/// calibration passes run in it and the time its callers were running
/// operations.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub samples: Vec<Sample>,
    pub cals: Vec<Calibration>,
    pub wall_s: f64,
}

/// A stretch in which a caller of a timed loop stood still for a
/// calibration pass: when it ended, from the start of the loop, and how
/// long it was.
#[derive(Debug, Clone, Copy)]
pub struct Pause {
    pub at: Duration,
    pub len: Duration,
}

/// Cut a loop of `wall_s` seconds, run by `callers` callers, into `n`
/// windows of equal time. A window's time leaves out the callers' pauses
/// in it, averaged over the callers.
pub fn windows(
    samples: &[Sample],
    cals: &[Calibration],
    pauses: &[Pause],
    callers: usize,
    wall_s: f64,
    n: usize,
) -> Vec<Window> {
    let mut out = vec![Window { wall_s: wall_s / n as f64, ..Window::default() }; n];
    let slot = |at: Duration| ((at.as_secs_f64() / wall_s * n as f64) as usize).min(n - 1);
    for s in samples {
        out[slot(s.at)].samples.push(*s);
    }
    for c in cals {
        out[slot(c.at)].cals.push(*c);
    }
    for p in pauses {
        out[slot(p.at)].wall_s -= p.len.as_secs_f64() / callers as f64;
    }
    out
}

/// Sorted latencies of the successful operations, in nanoseconds.
fn ok_latencies<'a>(samples: impl Iterator<Item = &'a Sample>) -> Vec<u64> {
    let mut ns: Vec<u64> = samples.filter(|s| s.ok).map(|s| s.latency.as_nanos() as u64).collect();
    ns.sort_unstable();
    ns
}

/// Nearest-rank percentile of sorted nanoseconds, in ms (0 when empty).
fn rank_ms(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1] as f64 / 1e6
}

/// Samples beyond the nearest-rank percentile `p` of `n`.
fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// Median latency of each query of the mix that completed in `samples`,
/// combined by geometric mean, in ms (0 when none completed). Each query
/// weighs the same however often it ran, and the figure does not jump
/// between the latencies of two queries as the plain median of a mix
/// does when their shares shift.
fn mix_p50_ms(samples: &[Sample]) -> f64 {
    let medians: Vec<f64> = (0..8)
        .map(|k| rank_ms(&ok_latencies(samples.iter().filter(|s| s.kind == k)), 50.0))
        .filter(|&ms| ms > 0.0)
        .collect();
    if medians.is_empty() {
        return 0.0;
    }
    (medians.iter().map(|ms| ms.ln()).sum::<f64>() / medians.len() as f64).exp()
}

/// The loop's end-to-end metrics, each the median over the windows, so
/// that a stall of the shared host moves one window and not the run's
/// result: `qps` and `latency_p50_ms` (the geometric mean over the mix of
/// each query's median latency), scaled to a host of speed 1 by the
/// window's calibration passes or, for a window with fewer than two, by
/// those of the whole loop. `latency_p50_ms` is multiplied by the kernels'
/// speed (`host::speed`); `qps`, a mean rate that also loses the time the
/// hypervisor gave to others, is divided by that speed times the share of
/// time it left the machine (`host::steal_share`). Unscaled and in the
/// details only: `latency_tail_ms` (the latency at percentile `tail`) and
/// the whole loop's `latency_p95_ms` and `latency_p99_ms`.
pub fn loop_metrics(
    windows: &[Window],
    tail: f64,
    metrics: &mut BTreeMap<&'static str, f64>,
) -> Json {
    let all_cals: Vec<Calibration> = windows.iter().flat_map(|w| w.cals.iter().copied()).collect();
    let (run_speed, run_steal) = (host::speed(&all_cals), host::steal_share(&all_cals));
    let (mut qps, mut p50) = (Vec::new(), Vec::new());
    let (mut raw_qps, mut raw_p50, mut speeds, mut steals, mut tails) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut least_beyond = usize::MAX;
    for w in windows {
        let (speed, steal) = if w.cals.len() < 2 {
            (run_speed, run_steal)
        } else {
            (host::speed(&w.cals), host::steal_share(&w.cals))
        };
        let ns = ok_latencies(w.samples.iter());
        let (window_qps, window_p50) = (ns.len() as f64 / w.wall_s, mix_p50_ms(&w.samples));
        qps.push(window_qps / (speed * (1.0 - steal)));
        p50.push(window_p50 * speed);
        raw_qps.push(window_qps);
        raw_p50.push(window_p50);
        speeds.push(speed);
        steals.push(steal);
        tails.push(rank_ms(&ns, tail));
        least_beyond = least_beyond.min(beyond(ns.len(), tail));
    }
    metrics.insert("qps", median(&qps));
    metrics.insert("latency_p50_ms", median(&p50));
    metrics.insert("latency_tail_ms", median(&tails));
    let all = ok_latencies(windows.iter().flat_map(|w| w.samples.iter()));
    let n = all.len();
    metrics.insert("latency_p95_ms", rank_ms(&all, 95.0));
    metrics.insert("latency_p99_ms", rank_ms(&all, 99.0));
    Json::obj()
        .with("samples", n)
        .with("windows", windows.len())
        .with("calibration_passes", all_cals.len())
        .with("host_speed", run_speed)
        .with("calibration_kernel_ms", host::kernel_ms(&all_cals))
        .with("qps_raw", median(&raw_qps))
        .with("latency_p50_ms_raw", median(&raw_p50))
        .with("steal_share", run_steal)
        .with("window_host_speed", speeds)
        .with("window_steal_share", steals)
        .with("window_qps_raw", raw_qps)
        .with("window_latency_p50_ms_raw", raw_p50)
        .with("tail_percentile", tail)
        .with("tail_samples_beyond_per_window_min", least_beyond)
        .with("p95_samples_beyond", beyond(n, 95.0))
        .with("p99_samples_beyond", beyond(n, 99.0))
}

/// Median of a non-empty list.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Resident set size of this process in bytes, from `/proc/self/statm`,
/// less the calibration buffers (0 where that file does not exist).
fn rss_bytes() -> u64 {
    let Ok(statm) = std::fs::read_to_string("/proc/self/statm") else { return 0 };
    let pages: u64 = statm.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    (pages * 4096).saturating_sub(host::resident_bytes())
}

/// Resident set size of this process now, in MB (10^6 bytes).
pub fn resident_mb() -> f64 {
    rss_bytes() as f64 / 1e6
}

/// Hand freed heap pages back to the operating system, so the resident
/// set of a timed phase does not count what the benchmark's own dropped
/// inputs left behind in the allocator.
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes a byte count, touches only
        // the allocator's own free lists, and is safe to call at any time
        // from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Samples the resident set every 5 ms until stopped: the timed phase
/// alone, which the kernel's lifetime high-water mark cannot give. The
/// peak of a whole phase follows its single highest sample, so the figure
/// is the median over the phase's seconds of each second's peak.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<Vec<f64>>>,
}

impl RssSampler {
    pub fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let (mut peaks, mut peak, mut second) = (Vec::new(), 0, Instant::now());
                loop {
                    peak = peak.max(rss_bytes());
                    if stop.load(Ordering::Relaxed) || second.elapsed() >= Duration::from_secs(1) {
                        peaks.push(peak as f64 / 1e6);
                        if stop.load(Ordering::Relaxed) {
                            return peaks;
                        }
                        (peak, second) = (0, Instant::now());
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        };
        RssSampler { stop, handle: Some(handle) }
    }

    /// Stop sampling; the median per-second peak in MB (10^6 bytes).
    pub fn finish(mut self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        let peaks = self.handle.take().expect("sampler running").join().expect("rss sampler");
        median(&peaks)
    }
}

impl Drop for RssSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Host memory bandwidth reference: best-of-5 GB/s (10^9 bytes per
/// second, bytes copied) of copying a buffer larger than this host's
/// last-level cache. Read `source.touched_gbps` against it; comparing it
/// across runs separates a host slowdown from a regression.
pub fn memcpy_gbps() -> (f64, usize) {
    const BYTES: usize = 384 << 20;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let mut best = 0.0f64;
    for _ in 0..5 {
        let start = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        best = best.max(BYTES as f64 / start.elapsed().as_secs_f64() / 1e9);
    }
    (best, BYTES)
}

/// Bytes this process has passed to `write` calls so far (`wchar` of
/// `/proc/self/io`; 0 where that file does not exist).
pub fn bytes_written() -> u64 {
    let Ok(io) = std::fs::read_to_string("/proc/self/io") else { return 0 };
    io.lines()
        .find_map(|l| l.strip_prefix("wchar:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// `(steal, total)` CPU time of the whole machine in clock ticks, from
/// the first line of `/proc/stat` (zeros where that file does not exist).
/// Steal is time the hypervisor gave this machine's CPUs to someone else:
/// its share over a run tells a slow host from a slow program.
pub fn cpu_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else { return (0, 0) };
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// One set-up of a workload that loads its table once and then only
/// reads.
#[derive(Debug, Clone, Copy)]
pub struct SetUp {
    /// The whole set-up.
    pub secs: f64,
    /// Its bulk load: compress + write + open.
    pub load_secs: f64,
    /// Bytes the load passed to `write`.
    pub load_written: u64,
    /// The host's capacity between calibration passes right before and
    /// right after the set-up (`host::load_capacity`).
    pub capacity: f64,
}

/// Run `f`, which sets a load-only workload up and returns its result and
/// its set-up record, between two calibration passes whose capacity it
/// records.
pub fn bracketed<T>(f: impl FnOnce() -> (T, SetUp)) -> (T, SetUp) {
    let before = host::calibrate_with_copy();
    let (out, setup) = f();
    let after = host::calibrate_with_copy();
    (out, SetUp { capacity: host::load_capacity(&[before, after]), ..setup })
}

/// Run `f`, which loads a table: its result, its time in seconds and the
/// bytes it passed to `write`.
pub fn measure_load<T>(f: impl FnOnce() -> T) -> (T, f64, u64) {
    let (t, written) = (Instant::now(), bytes_written());
    let out = f();
    (out, t.elapsed().as_secs_f64(), bytes_written() - written)
}

/// End-to-end metrics of a workload that loads its table once and then
/// only reads: `setup_s` (the median set-up), `stored_bytes_per_row`, and
/// the bulk load as its one ingest: `ingest_rows_per_s` at the median load
/// time, and `write_amp` as the bytes the last load wrote ÷ the file's
/// bytes. Each set-up's times are scaled to a host of capacity 1 by the
/// capacity around it. Returns the unscaled times and the capacities for
/// the details.
pub fn load_only_metrics(
    e2e: &mut BTreeMap<&'static str, f64>,
    setups: &[SetUp],
    rows: usize,
    file_bytes: u64,
) -> Json {
    let setup_s: Vec<f64> = setups.iter().map(|s| s.secs * s.capacity).collect();
    let load_s: Vec<f64> = setups.iter().map(|s| s.load_secs * s.capacity).collect();
    let written = setups.last().expect("at least one set-up").load_written;
    e2e.insert("setup_s", median(&setup_s));
    e2e.insert("stored_bytes_per_row", file_bytes as f64 / rows as f64);
    e2e.insert("ingest_rows_per_s", rows as f64 / median(&load_s));
    e2e.insert("write_amp", written as f64 / file_bytes as f64);
    Json::obj()
        .with("setup_runs_s_raw", setups.iter().map(|s| s.secs).collect::<Vec<_>>())
        .with("load_runs_s_raw", setups.iter().map(|s| s.load_secs).collect::<Vec<_>>())
        .with("capacity", setups.iter().map(|s| s.capacity).collect::<Vec<_>>())
}

/// Size of the file at `path` (0 when it cannot be read).
pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// The result of one workload run, before it is printed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every answer checked against the naive reference matched.
    pub correct: bool,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<String, f64>,
    /// Sizes, sample counts and everything else a reader needs to judge
    /// the numbers.
    pub details: Json,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ms: u64, at_ms: u64, kind: usize) -> Sample {
        let (latency, at) = (Duration::from_millis(ms), Duration::from_millis(at_ms));
        Sample { latency, at, ok: true, kind }
    }

    #[test]
    fn mix_p50_weighs_each_query_once_however_often_it_ran() {
        // Q1 at 2 ms ran nine times, Q2 at 8 ms once: the plain median of
        // the samples would be 2 ms; the mix figure is √(2·8) = 4 ms.
        let mut samples: Vec<Sample> = (0..9).map(|i| sample(2, i, 0)).collect();
        samples.push(sample(8, 9, 1));
        assert!((mix_p50_ms(&samples) - 4.0).abs() < 1e-9);
        assert_eq!(mix_p50_ms(&[]), 0.0);
    }

    #[test]
    fn windows_leave_out_the_callers_pauses() {
        let samples = [sample(1, 100, 0), sample(1, 1_500, 0)];
        let pause = |at_ms, len_ms| Pause {
            at: Duration::from_millis(at_ms),
            len: Duration::from_millis(len_ms),
        };
        // Two callers, 2 s cut in two: 200 ms of pauses in the first
        // second is 100 ms per caller.
        let w = windows(&samples, &[], &[pause(300, 100), pause(400, 100)], 2, 2.0, 2);
        assert_eq!((w[0].samples.len(), w[1].samples.len()), (1, 1));
        assert!((w[0].wall_s - 0.9).abs() < 1e-9);
        assert!((w[1].wall_s - 1.0).abs() < 1e-9);
    }
}
