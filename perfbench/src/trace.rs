//! In-memory span tracing around calls into the engine's public API, plus
//! the [`TimedSource`] wrapper that times every chunk fetch.
//!
//! A span has a name, start, end, thread, parent and request id. Spans
//! nest through a thread-local stack, so a call timed inside another on
//! the same thread gets it as parent and inherits its request id. Spans
//! that start on a thread with an empty stack — engine worker threads,
//! server connection threads — carry their thread and no parent.
//!
//! Recording is off unless [`set_enabled`] turned it on; then every span
//! costs two clock reads and one push under a mutex. The spans stay in
//! memory until [`take`] hands them to the analysis at the end of a run.

use crate::json::Json;
use cohana_storage::{ChunkIndexEntry, ChunkRef, ChunkSource, SourceIoStats, TableMeta};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the process's trace
/// epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: Option<u64>,
    pub name: &'static str,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("id", self.id)
            .with("parent", self.parent)
            .with("request", self.request)
            .with("name", self.name)
            .with("thread", self.thread)
            .with("start_ns", self.start_ns)
            .with("end_ns", self.end_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// `(span id, request id)` of the spans open on this thread.
    static STACK: RefCell<Vec<(u64, Option<u64>)>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turn span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Run `f` inside a span called `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    open(name, None, f)
}

/// Run `f` as the root span of a new request: it and every span nested
/// under it on this thread share a fresh request id.
pub fn request<T>(f: impl FnOnce() -> T) -> T {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    open("request", Some(id), f)
}

fn open<T>(name: &'static str, new_request: Option<u64>, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, inherited) = STACK.with(|s| match s.borrow().last() {
        Some(&(p, r)) => (Some(p), r),
        None => (None, None),
    });
    let request = new_request.or(inherited);
    STACK.with(|s| s.borrow_mut().push((id, request)));
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    let thread = THREAD.with(|t| *t);
    let span = Span { id, parent, request, name, thread, start_ns, end_ns };
    SPANS.lock().expect("span buffer poisoned").push(span);
    out
}

/// Drain every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"))
}

/// Counters of a [`TimedSource`], kept whether or not spans are recorded.
#[derive(Debug, Default)]
pub struct FetchCounters {
    pub calls: AtomicU64,
    pub columns_requested: AtomicU64,
    pub nanos: AtomicU64,
}

impl FetchCounters {
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.columns_requested.load(Ordering::Relaxed),
            self.nanos.load(Ordering::Relaxed),
        )
    }
}

/// A [`ChunkSource`] that forwards to another and times every chunk fetch
/// as a `source.fetch` span. It is how the benchmark sees the storage
/// layer from outside the program.
pub struct TimedSource {
    inner: Arc<dyn ChunkSource>,
    user_idx: usize,
    counters: Arc<FetchCounters>,
}

impl TimedSource {
    pub fn wrap(inner: Arc<dyn ChunkSource>, counters: Arc<FetchCounters>) -> Arc<dyn ChunkSource> {
        let user_idx = inner.table_meta().schema().user_idx();
        Arc::new(TimedSource { inner, user_idx, counters })
    }

    fn timed<'a>(
        &'a self,
        columns: u64,
        f: impl FnOnce() -> cohana_storage::Result<ChunkRef<'a>>,
    ) -> cohana_storage::Result<ChunkRef<'a>> {
        let start = Instant::now();
        let out = span("source.fetch", f);
        let c = &self.counters;
        c.nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        c.calls.fetch_add(1, Ordering::Relaxed);
        c.columns_requested.fetch_add(columns, Ordering::Relaxed);
        out
    }
}

impl ChunkSource for TimedSource {
    fn table_meta(&self) -> &TableMeta {
        self.inner.table_meta()
    }

    fn num_chunks(&self) -> usize {
        self.inner.num_chunks()
    }

    fn index_entry(&self, idx: usize) -> &ChunkIndexEntry {
        self.inner.index_entry(idx)
    }

    fn chunk(&self, idx: usize) -> cohana_storage::Result<ChunkRef<'_>> {
        let arity = self.inner.table_meta().schema().arity() as u64;
        self.timed(arity - 1, || self.inner.chunk(idx))
    }

    fn chunk_columns(&self, idx: usize, cols: &[usize]) -> cohana_storage::Result<ChunkRef<'_>> {
        // Count what the storage layer can decode: the user column lives in
        // the chunk's RLE skeleton, and repeats are fetched once.
        let mut distinct: Vec<usize> =
            cols.iter().copied().filter(|&c| c != self.user_idx).collect();
        distinct.sort_unstable();
        distinct.dedup();
        self.timed(distinct.len() as u64, || self.inner.chunk_columns(idx, cols))
    }

    fn chunks_decoded(&self) -> usize {
        self.inner.chunks_decoded()
    }

    fn io_stats(&self) -> SourceIoStats {
        self.inner.io_stats()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children running in parallel are counted
/// once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Give parentless spans a parent by time containment: a span that ran
/// entirely inside exactly one span named `host` is that span's child.
/// Exact when one request is in flight at a time (one caller whose
/// engine worker threads do the fetching); with concurrent requests the
/// containment is ambiguous and the span stays parentless.
pub fn attach_by_interval(spans: &mut [Span], host: &str) {
    let mut hosts: Vec<(u64, u64, u64, Option<u64>)> = spans
        .iter()
        .filter(|s| s.name == host)
        .map(|s| (s.start_ns, s.end_ns, s.id, s.request))
        .collect();
    hosts.sort_unstable();
    for s in spans.iter_mut().filter(|s| s.parent.is_none() && s.name != "request") {
        // Of the hosts starting at or before the span, those ending after it.
        let n = hosts.partition_point(|h| h.0 <= s.start_ns);
        let inside: Vec<_> = hosts[..n].iter().rev().filter(|h| s.end_ns <= h.1).take(2).collect();
        if let [h] = inside.as_slice() {
            s.parent = Some(h.2);
            s.request = h.3;
        }
    }
}

/// Per-request sum of the blocking path: the largest gap between a
/// request's duration and the sum of the self times of its span tree, as a
/// share of the duration. 0 when every tree tiles its interval — children
/// nested in their parents and not overlapping — which holds by
/// construction for a tree built on one thread's stack; parallel fetches
/// attached across threads overlap and open a gap.
pub fn max_self_sum_gap(spans: &[Span], selfs: &HashMap<u64, u64>) -> f64 {
    let mut sums: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(r) = s.request {
            *sums.entry(r).or_default() += selfs[&s.id];
        }
    }
    spans
        .iter()
        .filter(|s| s.name == "request")
        .filter_map(|s| {
            let dur = s.duration_ns();
            let sum = sums.get(&s.request?)?;
            (dur > 0).then(|| (*sum as f64 - dur as f64).abs() / dur as f64)
        })
        .fold(0.0, f64::max)
}

/// Share of the requests' time that no layer span accounts for: the
/// `request` spans' own self time over their summed duration. It is what
/// runs on a request's blocking path outside every timed layer call —
/// the benchmark's glue between the calls and the recording of the
/// layer spans themselves — so it is small exactly when the layer self
/// times explain the request.
pub fn unattributed_share(spans: &[Span], selfs: &HashMap<u64, u64>) -> f64 {
    let (mut own, mut total) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.name == "request") {
        own += selfs[&s.id];
        total += s.duration_ns();
    }
    if total == 0 {
        0.0
    } else {
        own as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, request: Some(1), name, thread: 1, start_ns: start, end_ns: end }
    }

    #[test]
    fn serial_self_times_add_up_to_the_request() {
        let spans = vec![
            sp(1, None, "request", 0, 100),
            sp(2, Some(1), "plan.prepare", 0, 10),
            sp(3, Some(1), "exec.execute", 10, 95),
            sp(4, Some(3), "source.fetch", 20, 40),
            sp(5, Some(3), "source.fetch", 50, 60),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 5);
        assert_eq!(selfs[&3], 55);
        assert_eq!(selfs[&4], 20);
        assert_eq!(max_self_sum_gap(&spans, &selfs), 0.0);
        assert_eq!(unattributed_share(&spans, &selfs), 0.05);
    }

    #[test]
    fn time_outside_every_layer_span_is_unattributed() {
        let spans = vec![
            sp(1, None, "request", 0, 100),
            sp(2, Some(1), "plan.prepare", 0, 10),
            sp(3, Some(1), "exec.execute", 60, 100),
            Span { request: Some(2), ..sp(4, None, "request", 200, 300) },
            Span { request: Some(2), ..sp(5, Some(4), "exec.execute", 200, 300) },
        ];
        let selfs = self_times(&spans);
        assert_eq!(max_self_sum_gap(&spans, &selfs), 0.0);
        assert_eq!(unattributed_share(&spans, &selfs), 0.25);
    }

    #[test]
    fn overlapping_children_count_once_and_break_the_sum() {
        let spans = vec![
            sp(1, None, "request", 0, 100),
            sp(2, Some(1), "source.fetch", 10, 60),
            sp(3, Some(1), "source.fetch", 40, 80),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 30);
        assert!(max_self_sum_gap(&spans, &selfs) > 0.0);
    }

    #[test]
    fn interval_attachment_needs_exactly_one_host() {
        let mut spans = vec![
            sp(1, None, "exec.execute", 0, 100),
            sp(2, None, "exec.execute", 200, 300),
            sp(3, None, "exec.execute", 250, 400),
            Span { request: None, ..sp(4, None, "source.fetch", 10, 20) },
            Span { request: None, ..sp(5, None, "source.fetch", 260, 270) },
        ];
        attach_by_interval(&mut spans, "exec.execute");
        assert_eq!(spans[3].parent, Some(1));
        assert_eq!(spans[4].parent, None);
    }

    #[test]
    fn nested_spans_link_parent_and_request_on_one_thread() {
        set_enabled(true);
        request(|| span("plan.prepare", || span("source.fetch", || ())));
        set_enabled(false);
        let spans = take();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect("span recorded").clone();
        let (req, plan, fetch) =
            (by_name("request"), by_name("plan.prepare"), by_name("source.fetch"));
        assert_eq!(plan.parent, Some(req.id));
        assert_eq!(fetch.parent, Some(plan.id));
        assert_eq!(fetch.request, req.request);
        assert!(req.start_ns <= plan.start_ns && fetch.end_ns <= req.end_ns);
    }
}
