//! `scan-spill`: the storage-bound path. The same v4 file is opened
//! in-process with a segment-cache budget of a quarter of the mix's decoded
//! working set, so nearly every query re-reads and re-decodes the columns
//! it needs; one caller runs the Q1–Q8 mix in a closed loop through a
//! session at parallelism 2.

use crate::common::*;
use crate::host;
use crate::json::Json;
use crate::layers::{fill_spans, QueryLayers};
use crate::trace::{self, FetchCounters, TimedSource};
use cohana_activity::ActivityTable;
use cohana_core::engine::DEFAULT_TABLE;
use cohana_core::{Cohana, CohortQuery, CohortReport, EngineOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PARALLELISM: usize = 2;
/// Windows the timed loop is cut into; the loop metrics are their medians.
const WINDOWS: usize = 5;

/// Write the input as a v4 file at `path`, open it lazily with the given
/// cache budget and run the mix once, checking every answer. Returns the
/// engine, the set-up with its load (compress + write + open) and the
/// number of wrong answers.
fn load_and_check(
    path: &Path,
    cache_bytes: usize,
    input: &ActivityTable,
    qs: &[CohortQuery],
    expected: &[CohortReport],
) -> (Cohana, SetUp, usize) {
    let start = Instant::now();
    let engine = Cohana::new(EngineOptions::default());
    let ((), load_secs, load_written) = measure_load(|| {
        engine
            .open(path)
            .chunk_size(CHUNK_ROWS)
            .cache_bytes(cache_bytes)
            .create_from(input)
            .expect("table is created");
    });
    let session = engine.session().with_parallelism(PARALLELISM);
    let wrong = qs
        .iter()
        .zip(expected)
        .filter(|(q, want)| session.execute(q).map_or(true, |r| r != **want))
        .count();
    let secs = start.elapsed().as_secs_f64();
    (engine, SetUp { secs, load_secs, load_written, capacity: 1.0 }, wrong)
}

/// One query of the loop: prepare and execute, each its own span.
fn one_query(engine: &Cohana, q: &CohortQuery) -> Option<CohortReport> {
    trace::request(|| {
        let session = engine.session().with_parallelism(PARALLELISM);
        let stmt = trace::span("plan.prepare", || session.prepare(q)).ok()?;
        trace::span("exec.execute", || stmt.execute()).ok()
    })
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let input = generate_input(cfg.users, cfg.seed);
    let qs = queries();
    let expected = reference_answers(&input, &qs);
    let mut out = Outcome::default();

    // Size the cache from the mix's decoded working set, measured by one
    // checked pass over an unbounded cache.
    let sizing = cfg.work_dir.join("sizing.cohana");
    let (engine, _, wrong) = load_and_check(&sizing, usize::MAX / 2, &input, &qs, &expected);
    let working_set = engine.source(DEFAULT_TABLE).expect("table").io_stats().cache_resident_bytes;
    drop(engine);
    let _ = std::fs::remove_file(&sizing);
    out.attempted += qs.len() as u64;
    out.failed += wrong as u64;
    let cache_bytes = working_set / 4;

    let mut setups = Vec::new();
    let mut last = None;
    for i in 0..SETUPS {
        if let Some((engine, path)) = last.take() {
            drop(engine);
            let _ = std::fs::remove_file(&path);
        }
        let path = cfg.work_dir.join(format!("spill-{i}.cohana"));
        let ((engine, wrong), setup) = bracketed(|| {
            let (engine, setup, wrong) = load_and_check(&path, cache_bytes, &input, &qs, &expected);
            ((engine, wrong), setup)
        });
        setups.push(setup);
        out.attempted += qs.len() as u64;
        out.failed += wrong as u64;
        last = Some((engine, path));
    }
    let (engine, path): (Cohana, PathBuf) = last.expect("at least one set-up");
    // The input is the benchmark's, not the program's: keep it out of the
    // timed phase's resident set.
    let rows = input.num_rows();
    drop(input);
    release_freed_memory();

    // The closed loop, with a calibration pass before each cycle of the
    // mix; returns (wall seconds, samples, calibration passes, pauses).
    let phase = |seconds: f64, layers: &mut Option<&mut QueryLayers>| {
        let source = engine.source(DEFAULT_TABLE).expect("table");
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let (mut samples, mut cals, mut pauses) = (Vec::new(), Vec::new(), Vec::new());
        let mut n = 0;
        while Instant::now() < deadline {
            let k = n % qs.len();
            n += 1;
            if k == 0 {
                let t = Instant::now();
                cals.push(host::calibrate(start.elapsed()));
                pauses.push(Pause { at: start.elapsed(), len: t.elapsed() });
            }
            let io_before = source.io_stats();
            let t = Instant::now();
            let result = one_query(&engine, &qs[k]);
            let (latency, at) = (t.elapsed(), start.elapsed());
            let ok = matches!(&result, Some(r) if *r == expected[k]);
            samples.push(Sample { latency, at, ok, kind: k });
            if let (Some(layers), Some(r)) = (layers.as_deref_mut(), &result) {
                layers.record(k, &r.stats.unwrap_or_default());
                layers.add_decode(&source.io_stats().delta_since(&io_before));
            }
        }
        (start.elapsed().as_secs_f64(), samples, cals, pauses)
    };

    let untraced_s = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let rss = RssSampler::start();
    let (wall, samples, cals, pauses) = phase(untraced_s, &mut None);
    let rss_mb = rss.finish();
    let paused: f64 = pauses.iter().map(|p| p.len.as_secs_f64()).sum();
    let plain_qps = samples.iter().filter(|s| s.ok).count() as f64 / (wall - paused);
    out.attempted += samples.len() as u64;
    out.failed += samples.iter().filter(|s| !s.ok).count() as u64;

    let mut details = Json::obj()
        .with("loop", "closed")
        .with("callers", 1u64)
        .with("parallelism", PARALLELISM)
        .with("rows", rows)
        .with("file_bytes", file_len(&path))
        .with("decoded_working_set_bytes", working_set)
        .with("cache_budget_bytes", cache_bytes)
        .with("working_set_to_cache", ratio(working_set as f64, cache_bytes as f64))
        .with("latency", {
            let windows = windows(&samples, &cals, &pauses, 1, wall, WINDOWS);
            loop_metrics(&windows, 95.0, &mut out.end_to_end)
        });

    if cfg.trace {
        let counters = Arc::new(FetchCounters::default());
        let inner = engine.source(DEFAULT_TABLE).expect("table");
        engine.register_source(DEFAULT_TABLE, TimedSource::wrap(inner, counters.clone()));
        let mut layers = QueryLayers::new(PARALLELISM);
        trace::set_enabled(true);
        let (twall, tsamples, _, tpauses) = phase(cfg.seconds / 2.0, &mut Some(&mut layers));
        let twall = twall - tpauses.iter().map(|p| p.len.as_secs_f64()).sum::<f64>();
        trace::set_enabled(false);
        out.attempted += tsamples.len() as u64;
        out.failed += tsamples.iter().filter(|s| !s.ok).count() as u64;
        let traced_qps = tsamples.iter().filter(|s| s.ok).count() as f64 / twall;
        let pl = &mut out.per_layer;
        layers.fill(counters.snapshot(), pl);
        pl.insert("trace.overhead".into(), ratio(traced_qps, plain_qps));
        let spans_path =
            cfg.work_dir.parent().expect("work dir has a parent").join("spans-scan-spill.jsonl");
        // One caller: a fetch on an engine worker thread belongs to the
        // one execution in flight.
        details.set("trace", fill_spans(trace::take(), Some("exec.execute"), &spans_path, pl));
        details.set("traced_qps", traced_qps);
    }

    let setup = load_only_metrics(&mut out.end_to_end, &setups, rows, file_len(&path));
    out.end_to_end.insert("rss_mb", rss_mb);
    details.set("setup", setup);
    out.correct = out.failed == 0;
    out.details = details;
    out
}
