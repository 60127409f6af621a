//! Per-layer metrics: what the traced phase of a run measured at each
//! layer boundary, folded into the named `per_layer` metrics.

use crate::common::{median, ratio};
use crate::json::Json;
use crate::trace::{self, Span};
use cohana_core::QueryStats;
use cohana_storage::{CodecDecode, SourceIoStats};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

/// Every per-layer metric with its unit and better direction, in report
/// order. `BENCHMARK.json` lists the same names.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("server.prepare_ms", "ms", "lower"),
    ("server.exec_ms", "ms", "lower"),
    ("server.wire_ms", "ms", "lower"),
    ("admission.queue_wait_ms", "ms", "lower"),
    ("admission.peak_active", "count", "lower"),
    ("admission.rejected", "count", "lower"),
    ("sql.parse_us", "us", "lower"),
    ("plan.prepare_us", "us", "lower"),
    ("plan.chunks_pruned_ratio", "ratio", "higher"),
    ("plan.chunks_pruned_ratio.q1", "ratio", "higher"),
    ("plan.chunks_pruned_ratio.q2", "ratio", "higher"),
    ("plan.chunks_pruned_ratio.q3", "ratio", "higher"),
    ("plan.chunks_pruned_ratio.q4", "ratio", "higher"),
    ("plan.chunks_pruned_ratio.q5", "ratio", "higher"),
    ("plan.chunks_pruned_ratio.q6", "ratio", "higher"),
    ("plan.chunks_pruned_ratio.q7", "ratio", "higher"),
    ("plan.chunks_pruned_ratio.q8", "ratio", "higher"),
    ("exec.busy_ms", "ms", "lower"),
    ("exec.self_ms", "ms", "lower"),
    ("exec.rows_per_busy_s", "rows/s", "higher"),
    ("exec.morsels", "count", "lower"),
    ("exec.worker_util", "ratio", "higher"),
    ("source.fetch_ms", "ms", "lower"),
    ("source.fetch_calls", "count", "lower"),
    ("source.columns_requested", "count", "lower"),
    ("source.cache_miss_ratio", "ratio", "lower"),
    ("source.bytes_read", "B", "lower"),
    ("source.bytes_decompressed", "B", "lower"),
    ("source.evictions", "count", "lower"),
    ("source.touched_gbps", "GB/s", "higher"),
    ("codec.raw_mbps", "MB/s", "higher"),
    ("codec.delta_mbps", "MB/s", "higher"),
    ("codec.ans_mbps", "MB/s", "higher"),
    ("codec.decode_share", "ratio", "lower"),
    ("persist.append_ms", "ms", "lower"),
    ("persist.compact_ms", "ms", "lower"),
    ("persist.bytes_appended", "B", "lower"),
    ("persist.bytes_compacted", "B", "lower"),
    ("persist.rewrite_ratio", "ratio", "lower"),
    ("persist.dead_ratio_max", "ratio", "lower"),
    ("persist.compactions", "count", "lower"),
    ("self.request_ms", "ms", "lower"),
    ("self.server.prepare_ms", "ms", "lower"),
    ("self.server.execute_ms", "ms", "lower"),
    ("self.sql.parse_ms", "ms", "lower"),
    ("self.plan.prepare_ms", "ms", "lower"),
    ("self.exec.execute_ms", "ms", "lower"),
    ("self.source.fetch_ms", "ms", "lower"),
    ("self.persist.ingest_ms", "ms", "lower"),
    ("self.persist.maintenance_ms", "ms", "lower"),
    ("trace.overhead", "ratio", "higher"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    ("host.memcpy_gbps", "GB/s", "higher"),
    ("host.steal_share", "ratio", "lower"),
];

/// Sum of the per-query engine counters of the traced phase.
#[derive(Debug, Default, Clone)]
pub struct QueryLayers {
    pub queries: u64,
    pub stats: QueryStats,
    /// `(chunks pruned, chunks total)` per query kind.
    pub pruned: [(u64, u64); 8],
    /// Per-codec decode cells, summed over the phase.
    pub decode: [CodecDecode; 3],
    /// Worker threads per query.
    pub parallelism: usize,
}

impl QueryLayers {
    pub fn new(parallelism: usize) -> QueryLayers {
        QueryLayers { parallelism, ..Default::default() }
    }

    /// Fold one query's stats.
    pub fn record(&mut self, kind: usize, stats: &QueryStats) {
        self.queries += 1;
        self.stats.absorb(stats);
        self.pruned[kind].0 += stats.chunks_pruned as u64;
        self.pruned[kind].1 += stats.chunks_total as u64;
    }

    /// Fold a source-lifetime I/O delta's decode cells.
    pub fn add_decode(&mut self, io: &SourceIoStats) {
        for (sum, d) in self.decode.iter_mut().zip(io.decode) {
            sum.bytes_out += d.bytes_out;
            sum.nanos += d.nanos;
        }
    }

    /// The `plan`, `exec`, `source` and `codec` metrics. `fetch` is the
    /// [`trace::TimedSource`] counters' `(calls, columns requested,
    /// nanoseconds)` over the same phase.
    pub fn fill(&self, fetch: (u64, u64, u64), out: &mut BTreeMap<String, f64>) {
        let q = self.queries.max(1) as f64;
        let s = &self.stats;
        let (calls, cols, fetch_ns) = fetch;
        let fetch_ms = fetch_ns as f64 / 1e6 / q;
        let busy_ms = s.worker_busy_ns as f64 / 1e6 / q;
        let mut set = |k: &str, v: f64| {
            out.insert(k.to_string(), v);
        };
        let (pruned, total) = self.pruned.iter().fold((0, 0), |(p, t), &(a, b)| (p + a, t + b));
        set("plan.chunks_pruned_ratio", ratio(pruned as f64, total as f64));
        for (i, &(p, t)) in self.pruned.iter().enumerate() {
            set(&format!("plan.chunks_pruned_ratio.q{}", i + 1), ratio(p as f64, t as f64));
        }
        set("exec.busy_ms", busy_ms);
        set("exec.self_ms", busy_ms - fetch_ms);
        set("exec.rows_per_busy_s", ratio(s.rows_scanned as f64, s.worker_busy_ns as f64 / 1e9));
        set("exec.morsels", s.morsels_executed as f64 / q);
        set(
            "exec.worker_util",
            ratio(s.worker_busy_ns as f64, self.parallelism as f64 * s.wall_time.as_nanos() as f64),
        );
        set("source.fetch_ms", fetch_ms);
        set("source.fetch_calls", calls as f64 / q);
        set("source.columns_requested", cols as f64 / q);
        set("source.cache_miss_ratio", ratio(s.columns_decoded as f64, cols as f64));
        set("source.bytes_read", s.bytes_read as f64 / q);
        set("source.bytes_decompressed", s.bytes_decompressed as f64 / q);
        set("source.evictions", s.cache_evictions as f64 / q);
        set(
            "source.touched_gbps",
            ratio((s.bytes_read + s.bytes_decompressed) as f64, fetch_ns as f64),
        );
        for (name, d) in
            ["codec.raw_mbps", "codec.delta_mbps", "codec.ans_mbps"].iter().zip(self.decode)
        {
            set(name, d.mbps());
        }
        let decode_ns: u64 = self.decode.iter().map(|d| d.nanos).sum();
        set("codec.decode_share", ratio(decode_ns as f64, fetch_ns as f64));
    }
}

/// Self times per span name, the median `sql.parse` and `plan.prepare`
/// durations, the requests' unattributed share and the span count; writes the spans
/// to `spans_path` as JSON lines. `interval_host` names the span that
/// parentless fetches are attached to by time containment (only
/// meaningful with one request in flight at a time).
pub fn fill_spans(
    mut spans: Vec<Span>,
    interval_host: Option<&str>,
    spans_path: &Path,
    out: &mut BTreeMap<String, f64>,
) -> Json {
    if let Some(host) = interval_host {
        trace::attach_by_interval(&mut spans, host);
    }
    for (name, metric) in [("sql.parse", "sql.parse_us"), ("plan.prepare", "plan.prepare_us")] {
        let us: Vec<f64> =
            spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e3).collect();
        if !us.is_empty() {
            out.insert(metric.into(), median(&us));
        }
    }
    let selfs = trace::self_times(&spans);
    let mut by_name: HashMap<&str, (u64, u64)> = HashMap::new();
    for s in &spans {
        let e = by_name.entry(s.name).or_default();
        e.0 += selfs[&s.id];
        e.1 += 1;
    }
    let mut names: Vec<_> = by_name.iter().collect();
    names.sort();
    let mut table = Json::obj();
    for (name, &(self_ns, n)) in names {
        let mean_ms = self_ns as f64 / 1e6 / n as f64;
        out.insert(format!("self.{name}_ms"), mean_ms);
        table.set(name, Json::obj().with("spans", n).with("mean_self_ms", mean_ms));
    }
    let gap = trace::max_self_sum_gap(&spans, &selfs);
    let unattributed = trace::unattributed_share(&spans, &selfs);
    out.insert("trace.unattributed_share".into(), unattributed);
    out.insert("trace.spans".into(), spans.len() as f64);
    let orphans = spans.iter().filter(|s| s.parent.is_none() && s.name == "source.fetch").count();
    let mut dump = String::with_capacity(spans.len() * 128);
    for s in &spans {
        dump.push_str(&s.to_json().to_string());
        dump.push('\n');
    }
    let written = std::fs::write(spans_path, dump).is_ok();
    Json::obj()
        .with("self_times", table)
        .with("max_self_sum_gap", gap)
        .with("unattributed_share", unattributed)
        .with("source_fetch_without_parent", orphans)
        .with("spans_file", written.then(|| spans_path.display().to_string()))
}
