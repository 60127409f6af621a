//! `serve-warm`: the remote, warm path users take. An in-process `Server`
//! with default configuration serves a lazily opened v4 file whose whole
//! decoded working set fits the default 256 MiB segment cache; two
//! connections each send the Q1–Q8 mix as SQL text in a closed loop, and
//! meet after each cycle of the mix for a calibration pass (`host`).

use crate::common::*;
use crate::host;
use crate::json::Json;
use crate::layers::{fill_spans, QueryLayers};
use crate::trace::{self, FetchCounters, TimedSource};
use cohana_core::engine::DEFAULT_TABLE;
use cohana_core::{Cohana, CohortReport, EngineOptions, ReportAssembler};
use cohana_server::{Client, ClientError, Server, ServerConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

const CONNECTIONS: usize = 2;
/// Windows the timed loop is cut into; the loop metrics are their medians.
/// Four 5-second windows of a 20-second run keep over 1,000 samples, and so
/// ten beyond p99, in each.
const WINDOWS: usize = 4;

/// A server over a freshly written table file.
struct Served {
    engine: Arc<Cohana>,
    server: Server,
    path: PathBuf,
}

/// What the traced loop learns about one request besides its latency.
#[derive(Debug, Clone, Copy, Default)]
struct RemoteCost {
    prepare: Duration,
    execute: Duration,
    queue_wait: Duration,
    server_wall: Duration,
}

/// Prepare and execute over the wire as two timed calls, keeping the
/// server's execution stats (which `Client::query` folds away).
fn query_traced(
    client: &mut Client,
    sql: &str,
) -> Result<(CohortReport, RemoteCost, cohana_core::QueryStats), ClientError> {
    let t = Instant::now();
    let prepared = trace::span("server.prepare", || client.prepare(sql))?;
    let prepare = t.elapsed();
    let t = Instant::now();
    let (report, stats) = trace::span("server.execute", || {
        let mut asm =
            ReportAssembler::new(prepared.cohort_attrs().to_vec(), prepared.agg_names().to_vec());
        let mut stream = client.execute(&prepared)?;
        while let Some(batch) = stream.next_batch()? {
            asm.push(&batch).map_err(|e| ClientError::Protocol(e.to_string()))?;
        }
        let stats = stream.stats().ok_or_else(|| ClientError::Protocol("no STATS frame".into()))?;
        Ok::<_, ClientError>((asm.finish(), stats))
    })?;
    let cost = RemoteCost {
        prepare,
        execute: t.elapsed(),
        queue_wait: stats.queue_wait,
        server_wall: stats.stats.wall_time,
    };
    Ok((report, cost, stats.stats))
}

/// Compress, write, open lazily, start the server and warm the cache by
/// running the mix once through a client, checking every answer.
fn set_up(
    cfg: &RunConfig,
    i: usize,
    input: &cohana_activity::ActivityTable,
    sql: &[String],
    expected: &[CohortReport],
) -> (Served, SetUp, usize) {
    let start = Instant::now();
    let path = cfg.work_dir.join(format!("serve-{i}.cohana"));
    let engine = Arc::new(Cohana::new(EngineOptions::default()));
    let ((), load_secs, load_written) = measure_load(|| {
        engine.open(&path).chunk_size(CHUNK_ROWS).create_from(input).expect("table is created");
    });
    let server = Server::start(engine.clone(), ServerConfig::default()).expect("server binds");
    let mut client = Client::connect(server.local_addr(), "warm-up").expect("client connects");
    let wrong = sql
        .iter()
        .zip(expected)
        .filter(|(s, want)| client.query(s).map_or(true, |got| got != **want))
        .count();
    let secs = start.elapsed().as_secs_f64();
    let setup = SetUp { secs, load_secs, load_written, capacity: 1.0 };
    (Served { engine, server, path }, setup, wrong)
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let input = generate_input(cfg.users, cfg.seed);
    let qs = queries();
    let expected = reference_answers(&input, &qs);
    let sql: Vec<String> = qs.iter().map(|q| q.to_sql()).collect();

    // Set up several times; the last set-up serves the timed phase.
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut served = None;
    for i in 0..SETUPS {
        if let Some(Served { mut server, path, .. }) = served.take() {
            server.shutdown();
            let _ = std::fs::remove_file(path);
        }
        let ((s, wrong), setup) = bracketed(|| {
            let (s, setup, wrong) = set_up(cfg, i, &input, &sql, &expected);
            ((s, wrong), setup)
        });
        setups.push(setup);
        out.attempted += sql.len() as u64;
        out.failed += wrong as u64;
        served = Some(s);
    }
    let Served { engine, mut server, path } = served.expect("at least one set-up");
    // The input is the benchmark's, not the program's: keep it out of the
    // timed phase's resident set.
    let rows = input.num_rows();
    drop(input);
    release_freed_memory();
    let addr = server.local_addr();
    let working_set = engine.source(DEFAULT_TABLE).expect("table").io_stats().cache_resident_bytes;

    // Timed phase: untraced for the whole run, or untraced then traced
    // halves in a traced run. The connections meet after each cycle of the
    // mix: one of them runs a calibration pass while no query is in flight,
    // and the time is checked for all at once. Returns the wall seconds,
    // each connection's samples and traced costs, the calibration passes
    // and the connections' pauses.
    let phase = |traced: bool, seconds: f64| {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let meet = Barrier::new(CONNECTIONS);
        let (cals, stop) = (Mutex::new(Vec::new()), AtomicBool::new(false));
        let per_conn: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CONNECTIONS)
                .map(|c| {
                    let (sql, expected, meet, cals, stop) = (&sql, &expected, &meet, &cals, &stop);
                    scope.spawn(move || {
                        let connect = || Client::connect(addr, &format!("conn-{c}")).ok();
                        let mut client = connect();
                        let (mut samples, mut costs, mut pauses) =
                            (Vec::new(), Vec::new(), Vec::new());
                        let mut n = c * sql.len() / CONNECTIONS;
                        loop {
                            let t = Instant::now();
                            if meet.wait().is_leader() {
                                cals.lock().unwrap().push(host::calibrate(start.elapsed()));
                                stop.store(Instant::now() >= deadline, Ordering::SeqCst);
                            }
                            meet.wait();
                            pauses.push(Pause { at: start.elapsed(), len: t.elapsed() });
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                            for _ in 0..sql.len() {
                                let k = n % sql.len();
                                n += 1;
                                let t = Instant::now();
                                let result = match client.as_mut() {
                                    Some(cl) if traced => {
                                        trace::request(|| query_traced(cl, &sql[k])).ok().map(
                                            |(r, cost, stats)| {
                                                costs.push((k, cost, stats));
                                                r
                                            },
                                        )
                                    }
                                    Some(cl) => cl.query(&sql[k]).ok(),
                                    None => None,
                                };
                                let (latency, at) = (t.elapsed(), start.elapsed());
                                let ok = matches!(&result, Some(r) if *r == expected[k]);
                                samples.push(Sample { latency, at, ok, kind: k });
                                if result.is_none() {
                                    client = connect();
                                }
                            }
                        }
                        (samples, costs, pauses)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        (start.elapsed().as_secs_f64(), per_conn, cals.into_inner().unwrap())
    };

    let untraced_s = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let rss = RssSampler::start();
    let (wall, per_conn, cals) = phase(false, untraced_s);
    let rss_mb = rss.finish();
    let pauses: Vec<Pause> = per_conn.iter().flat_map(|(_, _, p)| p.iter().copied()).collect();
    let samples: Vec<Sample> = per_conn.iter().flat_map(|(s, _, _)| s.iter().copied()).collect();
    let active = |wall: f64, pauses: &[Pause]| {
        wall - pauses.iter().map(|p| p.len.as_secs_f64()).sum::<f64>() / CONNECTIONS as f64
    };
    let plain_qps = samples.iter().filter(|s| s.ok).count() as f64 / active(wall, &pauses);
    out.attempted += samples.len() as u64;
    out.failed += samples.iter().filter(|s| !s.ok).count() as u64;

    let mut details = Json::obj()
        .with("loop", "closed")
        .with("connections", CONNECTIONS)
        .with("admission_cap", ServerConfig::default().admission_cap)
        .with("rows", rows)
        .with("file_bytes", file_len(&path))
        .with("decoded_working_set_bytes", working_set)
        .with("cache_budget_bytes", cohana_storage::DEFAULT_CACHE_BUDGET)
        .with(
            "working_set_to_cache",
            ratio(working_set as f64, cohana_storage::DEFAULT_CACHE_BUDGET as f64),
        )
        .with("latency", {
            let windows = windows(&samples, &cals, &pauses, CONNECTIONS, wall, WINDOWS);
            loop_metrics(&windows, 99.0, &mut out.end_to_end)
        });

    if cfg.trace {
        let counters = Arc::new(FetchCounters::default());
        let inner = engine.source(DEFAULT_TABLE).expect("table");
        engine.register_source(DEFAULT_TABLE, TimedSource::wrap(inner.clone(), counters.clone()));
        let io_before = inner.io_stats();
        trace::set_enabled(true);
        let (twall, tconn, _) = phase(true, cfg.seconds / 2.0);
        let tpauses: Vec<Pause> = tconn.iter().flat_map(|(_, _, p)| p.iter().copied()).collect();
        let twall = active(twall, &tpauses);
        // sql.parse and plan.prepare run inside the server, out of the
        // benchmark's reach: time the same calls on the same texts here.
        let schema = engine.schema_of(DEFAULT_TABLE).expect("schema");
        let session = engine.session();
        for _ in 0..20 {
            for text in &sql {
                let q = trace::span("sql.parse", || cohana_sql::parse_cohort_query(text, &schema))
                    .expect("mix parses");
                trace::span("plan.prepare", || session.prepare(&q)).expect("mix prepares");
            }
        }
        trace::set_enabled(false);
        let io = inner.io_stats().delta_since(&io_before);
        let tsamples: Vec<Sample> = tconn.iter().flat_map(|(s, _, _)| s.iter().copied()).collect();
        out.attempted += tsamples.len() as u64;
        out.failed += tsamples.iter().filter(|s| !s.ok).count() as u64;
        let traced_qps = tsamples.iter().filter(|s| s.ok).count() as f64 / twall;

        let mut layers = QueryLayers::new(EngineOptions::default().parallelism);
        layers.add_decode(&io);
        let pl = &mut out.per_layer;
        let (mut prepare, mut wall, mut wire, mut queue) =
            (Duration::ZERO, Duration::ZERO, Duration::ZERO, Duration::ZERO);
        for (k, cost, stats) in tconn.iter().flat_map(|(_, c, _)| c.iter()) {
            layers.record(*k, stats);
            prepare += cost.prepare;
            wall += cost.server_wall;
            // What the client waited for beyond the server's queue and
            // execution: framing, socket hops and assembling the report.
            wire += cost.execute.saturating_sub(cost.queue_wait + cost.server_wall);
            queue += cost.queue_wait;
        }
        let mean_ms = |d: Duration| d.as_secs_f64() * 1e3 / layers.queries.max(1) as f64;
        pl.insert("server.prepare_ms".into(), mean_ms(prepare));
        pl.insert("server.exec_ms".into(), mean_ms(wall));
        pl.insert("server.wire_ms".into(), mean_ms(wire));
        pl.insert("admission.queue_wait_ms".into(), mean_ms(queue));
        let adm = server.admission_stats();
        pl.insert("admission.peak_active".into(), adm.peak_active as f64);
        pl.insert("admission.rejected".into(), adm.rejected_total as f64);
        layers.fill(counters.snapshot(), pl);
        pl.insert("trace.overhead".into(), ratio(traced_qps, plain_qps));
        let spans = trace::take();
        let spans_path =
            cfg.work_dir.parent().expect("work dir has a parent").join("spans-serve-warm.jsonl");
        details.set("trace", fill_spans(spans, None, &spans_path, pl));
        details.set("traced_qps", traced_qps);
    }
    let admission = server.admission_stats();
    server.shutdown();

    let setup = load_only_metrics(&mut out.end_to_end, &setups, rows, file_len(&path));
    out.end_to_end.insert("rss_mb", rss_mb);
    details.set("setup", setup);
    details.set("admission_peak_active", admission.peak_active);
    details.set("admission_rejected", admission.rejected_total);
    out.correct = out.failed == 0;
    out.details = details;
    out
}
