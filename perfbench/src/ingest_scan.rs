//! `ingest-scan`: writes beside reads. A 2-shard table is created from the
//! first half of the time-ordered rows; one writer ingests the rest as
//! equal time slices, each followed by a synchronous maintenance pass,
//! while one reader runs Q1 and Q3 in a closed loop. The background
//! maintenance thread stays off: its timer would add variance.
//!
//! The timed phase is a sequence of rounds, each starting over from a
//! freshly created base table, until `--seconds` of loop time have
//! passed; every round does the same writes, so the write counts repeat
//! exactly and each round's set-up is one `setup_s` sample.

use crate::common::*;
use crate::host::{self, Calibration};
use crate::json::Json;
use crate::layers::{fill_spans, QueryLayers};
use crate::trace::{self, FetchCounters, TimedSource};
use cohana_activity::ActivityTable;
use cohana_core::{
    Cohana, CohortReport, EngineOptions, MaintenanceConfig, PlannerOptions, Statement, TableHandle,
};
use cohana_storage::FileSpaceStats;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
/// Rounds a run makes at least; each round's set-up is one `setup_s`
/// sample.
const MIN_ROUNDS: usize = 5;
/// Time slices the second half of the rows is ingested in, per round.
pub const BATCHES: usize = 6;
/// Dead-byte share above which a maintenance pass compacts a shard.
const DEAD_RATIO: f64 = 0.3;
/// The reader's queries: Q1 and Q3 of the mix.
const READER_KINDS: [usize; 2] = [0, 2];

/// What the writer did in one round.
#[derive(Debug, Default, Clone)]
struct WriterTotals {
    rows: u64,
    /// Time inside `ingest` and `maintenance_pass` calls: `append` +
    /// `maintenance`.
    wall: Duration,
    append: Duration,
    maintenance: Duration,
    bytes_appended: u64,
    bytes_compacted: u64,
    chunks_before: u64,
    chunks_rewritten: u64,
    batches_with_returning_users: u64,
    compactions: u64,
    dead_ratio_max: f64,
}

/// One round's measurements.
struct Round {
    setup_s: f64,
    /// Calibration passes, one after each batch.
    cals: Vec<Calibration>,
    traced: bool,
    writer: WriterTotals,
    /// The reader's loop time: from the writer's start to its end, less
    /// the calibration passes it stood still for.
    reader_wall: Duration,
    samples: Vec<Sample>,
    /// Resident set of the timed phase (`RssSampler`) less the
    /// benchmark's own.
    rss_mb: f64,
    stored_bytes: u64,
    live_rows: u64,
    compacted_bytes: u64,
    base_bytes: u64,
    wrong: u64,
}

fn file_bytes(space: &[FileSpaceStats]) -> u64 {
    space.iter().map(|s| s.file_bytes).sum()
}

/// Lets the writer have the reader run a calibration pass between two of
/// its queries while the writer waits, so that the pass runs while
/// neither thread works on the table and on the thread whose queries it
/// scales.
#[derive(Default)]
struct Meeting {
    state: Mutex<MeetingState>,
    changed: Condvar,
}

#[derive(Default)]
struct MeetingState {
    requested: bool,
    reader_gone: bool,
    writer_done: bool,
}

impl Meeting {
    /// Writer: wait until the reader has run a calibration pass.
    fn calibrate(&self) {
        let mut s = self.state.lock().unwrap();
        s.requested = true;
        while s.requested && !s.reader_gone {
            s = self.changed.wait(s).unwrap();
        }
    }

    /// Reader, between queries: run a calibration pass if the writer asks
    /// for one and return how long it took, or `None` once the writer has
    /// finished.
    fn between_queries(&self, start: Instant, cals: &mut Vec<Calibration>) -> Option<Duration> {
        let t = Instant::now();
        let mut s = self.state.lock().unwrap();
        if s.requested {
            cals.push(host::calibrate(start.elapsed()));
            s.requested = false;
            self.changed.notify_all();
        }
        (!s.writer_done).then(|| t.elapsed())
    }

    fn set(&self, flag: impl FnOnce(&mut MeetingState)) {
        flag(&mut self.state.lock().unwrap());
        self.changed.notify_all();
    }
}

/// Marks, when dropped (also by a panic), that a thread of the round has
/// stopped, so that the other does not wait for it forever.
struct Leaving<'a>(&'a Meeting, fn(&mut MeetingState));

impl Drop for Leaving<'_> {
    fn drop(&mut self) {
        self.0.set(self.1);
    }
}

/// The writer: ingest every batch, each followed by one maintenance pass
/// and one calibration pass of the reader. Only the two calls into the
/// table are timed; the space stats read around each pass to find the
/// bytes its compactions wrote are not.
fn write_batches(
    table: &TableHandle<'_>,
    batches: &[ActivityTable],
    meeting: &Meeting,
) -> WriterTotals {
    let mut w = WriterTotals::default();
    let mut compactions = table.maintenance_stats().expect("sharded table").auto_compactions;
    for batch in batches {
        let t = Instant::now();
        let appended =
            trace::span("persist.ingest", || table.ingest(batch)).expect("batch ingests");
        w.append += t.elapsed();
        let before = table.space_stats().expect("space stats");
        let t = Instant::now();
        let m =
            trace::span("persist.maintenance", || table.maintenance_pass()).expect("maintenance");
        w.maintenance += t.elapsed();
        let after = table.space_stats().expect("space stats");
        // A compacted shard's file was rewritten whole: its dead bytes
        // went to zero, and its new size is what compaction wrote.
        for (b, a) in before.iter().zip(&after) {
            if b.dead_bytes > 0 && a.dead_bytes == 0 {
                w.bytes_compacted += a.file_bytes;
            }
        }
        w.compactions += m.auto_compactions - compactions;
        compactions = m.auto_compactions;
        w.rows += appended.rows_appended as u64;
        w.bytes_appended += appended.bytes_appended;
        w.chunks_before += appended.chunks_before as u64;
        w.chunks_rewritten += appended.chunks_rewritten as u64;
        w.batches_with_returning_users += u64::from(appended.chunks_rewritten > 0);
        w.dead_ratio_max = w.dead_ratio_max.max(m.last_max_dead_ratio);
        meeting.calibrate();
    }
    w.wall = w.append + w.maintenance;
    w
}

/// Sum of cohort sizes: grows as ingest adds users, so a reader's answer
/// must fall between the base table's and the full table's.
fn total_size(r: &CohortReport) -> u64 {
    r.cohort_sizes.values().sum()
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let input = generate_input(cfg.users, cfg.seed);
    let qs = queries();
    let (base, batches) = time_split(&input, 0.5, BATCHES);
    let expected_base = reference_answers(&base, &qs);
    // Base ∪ every batch is the whole generated table.
    let expected_full = reference_answers(&input, &qs);
    let rows = input.num_rows();
    drop(input);
    // The base table and the batches stay alive for every round: they are
    // the benchmark's, so their resident set, measured before the first
    // table exists, is left out of `rss_mb`.
    release_freed_memory();
    let held_mb = resident_mb();
    let mut out = Outcome::default();
    let mut rounds: Vec<Round> = Vec::new();
    let maintenance =
        MaintenanceConfig { auto_compact: false, dead_ratio: DEAD_RATIO, ..Default::default() };
    let min_rounds = MIN_ROUNDS.max(if cfg.trace { 2 } else { 1 });
    // Loop seconds of untraced and of traced rounds; a traced run gives
    // each kind half the run.
    let mut timed = [0.0f64; 2];
    let target = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };

    let counters = Arc::new(FetchCounters::default());
    let mut layers = QueryLayers::new(1);
    while rounds.len() < min_rounds || timed[0] < target || (cfg.trace && timed[1] < target) {
        let r = rounds.len();
        // Traced runs alternate untraced and traced rounds.
        let traced = cfg.trace && r % 2 == 1;
        let dir = cfg.work_dir.join(format!("round-{r}"));
        let engine = Cohana::new(EngineOptions::default());

        let t = Instant::now();
        let table = engine
            .open(&dir)
            .shards(SHARDS)
            .chunk_size(CHUNK_ROWS)
            .maintenance(maintenance)
            .create_from(&base)
            .expect("sharded table is created");
        let session = table.session();
        let mut wrong = qs
            .iter()
            .zip(&expected_base)
            .filter(|(q, want)| session.execute(q).map_or(true, |got| got != **want))
            .count() as u64;
        let setup_s = t.elapsed().as_secs_f64();
        let base_bytes = file_bytes(&table.space_stats().expect("space stats"));

        let meeting = Meeting::default();
        trace::set_enabled(traced);
        release_freed_memory();
        let rss = RssSampler::start();
        let start = Instant::now();
        let (writer, cals, samples, still) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let _leaving = Leaving(&meeting, |s| s.writer_done = true);
                write_batches(&table, &batches, &meeting)
            });
            let _leaving = Leaving(&meeting, |s| s.reader_gone = true);
            let (mut samples, mut cals, mut still) = (Vec::new(), Vec::new(), Duration::ZERO);
            let mut n = 0;
            while let Some(stood) = meeting.between_queries(start, &mut cals) {
                still += stood;
                let k = READER_KINDS[n % READER_KINDS.len()];
                n += 1;
                let source = table.source().expect("table source");
                let io_before = source.io_stats();
                let t = Instant::now();
                let result = trace::request(|| {
                    let stmt = trace::span("plan.prepare", || {
                        if traced {
                            let timed = TimedSource::wrap(source.clone(), counters.clone());
                            Statement::over(timed, &qs[k], PlannerOptions::default(), 1)
                        } else {
                            session.prepare(&qs[k])
                        }
                    })
                    .ok()?;
                    trace::span("exec.execute", || stmt.execute()).ok()
                });
                let (latency, at) = (t.elapsed(), start.elapsed());
                let ok = matches!(&result, Some(got) if {
                    let size = total_size(got);
                    total_size(&expected_base[k]) <= size && size <= total_size(&expected_full[k])
                });
                samples.push(Sample { latency, at, ok, kind: k });
                if let (true, Some(got)) = (traced, &result) {
                    layers.record(k, &got.stats.unwrap_or_default());
                    layers.add_decode(&source.io_stats().delta_since(&io_before));
                }
            }
            (writer.join().expect("writer thread"), cals, samples, still)
        });
        let reader_wall = start.elapsed() - still;
        let rss_mb = rss.finish() - held_mb;
        trace::set_enabled(false);
        timed[usize::from(traced)] += reader_wall.as_secs_f64();

        // The end state is base ∪ every batch: check the whole mix.
        wrong += qs
            .iter()
            .zip(&expected_full)
            .filter(|(q, want)| session.execute(q).map_or(true, |got| got != **want))
            .count() as u64;
        let space = table.space_stats().expect("space stats");
        let (stored_bytes, live_rows) = (file_bytes(&space), space.iter().map(|s| s.rows).sum());
        table.compact().expect("final compaction");
        let compacted_bytes = file_bytes(&table.space_stats().expect("space stats"));
        drop(session);
        drop(table);
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
        rounds.push(Round {
            setup_s,
            cals,
            traced,
            writer,
            reader_wall,
            samples,
            rss_mb,
            stored_bytes,
            live_rows,
            compacted_bytes,
            base_bytes,
            wrong,
        });
    }

    for r in &rounds {
        out.attempted += 2 * qs.len() as u64 + r.samples.len() as u64;
        out.failed += r.wrong + r.samples.iter().filter(|s| !s.ok).count() as u64;
    }
    // Each untraced round is one window of the loop metrics.
    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let round_windows: Vec<Window> = plain
        .iter()
        .map(|r| Window {
            samples: r.samples.clone(),
            cals: r.cals.clone(),
            wall_s: r.reader_wall.as_secs_f64(),
        })
        .collect();
    let qps_of = |rs: &[&Round]| {
        let ok = rs.iter().flat_map(|r| r.samples.iter().filter(|s| s.ok)).count();
        ok as f64 / rs.iter().map(|r| r.reader_wall.as_secs_f64()).sum::<f64>()
    };
    let last = rounds.last().expect("at least one round");
    let w = &last.writer;
    let growth = last.compacted_bytes.saturating_sub(last.base_bytes);
    let write_amp = ratio((w.bytes_appended + w.bytes_compacted) as f64, growth as f64);

    let mut details = Json::obj()
        .with("loop", "closed")
        .with("writers", 1u64)
        .with("readers", 1u64)
        .with("shards", SHARDS)
        .with("rows", rows)
        .with("base_rows", base.num_rows())
        .with("batches_per_round", BATCHES)
        .with("batch_rows", batches[0].num_rows())
        .with("dead_ratio_threshold", DEAD_RATIO)
        .with("rounds", rounds.len())
        .with("setup_runs_s", rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>())
        .with(
            "ingest_rows_per_s_raw",
            plain
                .iter()
                .map(|r| r.writer.rows as f64 / r.writer.wall.as_secs_f64())
                .collect::<Vec<_>>(),
        )
        .with("held_input_mb", held_mb)
        .with("rss_rounds_mb", plain.iter().map(|r| r.rss_mb).collect::<Vec<_>>())
        .with(
            "batches_with_returning_users_share",
            ratio(w.batches_with_returning_users as f64, BATCHES as f64),
        )
        .with("rewrite_ratio", ratio(w.chunks_rewritten as f64, w.chunks_before as f64))
        .with("compactions_per_round", w.compactions)
        .with("base_bytes", last.base_bytes)
        .with("compacted_end_bytes", last.compacted_bytes)
        .with("bytes_appended", w.bytes_appended)
        .with("bytes_compacted", w.bytes_compacted)
        .with("latency", loop_metrics(&round_windows, 95.0, &mut out.end_to_end));

    if cfg.trace {
        let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
        let traced_qps = qps_of(&traced);
        let pl = &mut out.per_layer;
        layers.fill(counters.snapshot(), pl);
        // Mean time of one `ingest` call and of one maintenance pass.
        let batches_n = (BATCHES * traced.len()) as f64;
        let append: Duration = traced.iter().map(|r| r.writer.append).sum();
        let maintenance: Duration = traced.iter().map(|r| r.writer.maintenance).sum();
        pl.insert("persist.append_ms".into(), append.as_secs_f64() * 1e3 / batches_n);
        pl.insert("persist.compact_ms".into(), maintenance.as_secs_f64() * 1e3 / batches_n);
        pl.insert("persist.bytes_appended".into(), w.bytes_appended as f64);
        pl.insert("persist.bytes_compacted".into(), w.bytes_compacted as f64);
        pl.insert(
            "persist.rewrite_ratio".into(),
            ratio(w.chunks_rewritten as f64, w.chunks_before as f64),
        );
        pl.insert("persist.dead_ratio_max".into(), w.dead_ratio_max);
        pl.insert("persist.compactions".into(), w.compactions as f64);
        pl.insert("trace.overhead".into(), ratio(traced_qps, qps_of(&plain)));
        let spans_path =
            cfg.work_dir.parent().expect("work dir has a parent").join("spans-ingest-scan.jsonl");
        details.set("trace", fill_spans(trace::take(), None, &spans_path, pl));
        details.set("traced_qps", traced_qps);
    }

    // Times are scaled to a host of speed 1 by each round's passes, like
    // `qps` (`loop_metrics`).
    let capacity = |r: &Round| host::capacity(&r.cals);
    let e2e = &mut out.end_to_end;
    let setup_s: Vec<f64> = rounds.iter().map(|r| r.setup_s * capacity(r)).collect();
    e2e.insert("setup_s", median(&setup_s));
    e2e.insert("rss_mb", median(&plain.iter().map(|r| r.rss_mb).collect::<Vec<_>>()));
    e2e.insert("stored_bytes_per_row", ratio(last.stored_bytes as f64, last.live_rows as f64));
    let ingest_rates: Vec<f64> = plain
        .iter()
        .map(|r| r.writer.rows as f64 / r.writer.wall.as_secs_f64() / capacity(r))
        .collect();
    e2e.insert("ingest_rows_per_s", median(&ingest_rates));
    e2e.insert("write_amp", write_amp);
    out.correct = out.failed == 0;
    out.details = details;
    out
}
