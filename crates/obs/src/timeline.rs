//! Per-worker timeline journals and Chrome Trace Event export.
//!
//! A [`Timeline`] collects *when* work ran and *on which worker* — the
//! information the aggregate [`RunReport`](crate::RunReport) deliberately
//! throws away. Each participating thread [`attach`](Timeline::attach)es
//! once and then records span begin/end and instant events into a
//! **thread-local ring buffer** (no locks, no cross-thread traffic on the
//! record path). When the attach guard drops, the buffer is flushed into
//! the timeline as one [`WorkerJournal`]; [`Timeline::to_chrome_json`]
//! merges the journals deterministically (sorted by worker id, events in
//! recorded order) into the Chrome Trace Event format that Perfetto and
//! `chrome://tracing` load directly.
//!
//! Recording goes through ambient free functions ([`begin`], [`end`],
//! [`instant`], [`span`]) rather than a sink reference, so deep layers with
//! no sink access (cancellation latches, fault isolation boundaries) can
//! drop instant events onto the timeline of whatever run their thread is
//! working for. When the current thread is not attached every ambient call
//! is a thread-local read plus one branch — the timeline costs nothing
//! unless a run opted in.
//!
//! Timeline data is wall-clock and scheduling dependent by nature, so none
//! of it may ever feed the byte-deterministic report sections; it is
//! exported only through [`Timeline::to_chrome_json`] /
//! [`Timeline::journals`].

use crate::json::Json;
use crate::{Event, EventSink, Histogram};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default per-worker journal capacity (events). At two events per span a
/// worker keeps the most recent ~32k spans; older entries are overwritten
/// ring-buffer style and surface as a `timeline.dropped` instant.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// What one recorded timeline entry marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (Chrome `ph:"B"`).
    Begin,
    /// The most recently opened span closed (Chrome `ph:"E"`).
    End,
    /// A point-in-time marker (Chrome `ph:"i"`): truncation, worker
    /// failure, fail-point hit.
    Instant,
}

/// One journal entry: kind, stable name, and nanoseconds since the
/// timeline's epoch. `detail` carries free-form context (e.g. `t=3`) and is
/// only materialized when the thread is attached.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEvent {
    pub kind: EventKind,
    pub name: &'static str,
    pub ts_ns: u64,
    pub detail: Option<String>,
}

/// Everything one worker recorded, flushed when its attach guard dropped.
#[derive(Debug, Clone)]
pub struct WorkerJournal {
    /// Attach-order worker id (0 is the first thread to attach).
    pub worker: u32,
    /// Role label passed to [`Timeline::attach`] (`main`, `slice`, ...).
    pub label: &'static str,
    /// Events in recording order (oldest first after ring eviction).
    pub events: Vec<TimelineEvent>,
    /// Events evicted because the ring buffer was full.
    pub dropped: u64,
}

struct Inner {
    epoch: Instant,
    capacity: usize,
    next_worker: AtomicU32,
    journals: Mutex<Vec<WorkerJournal>>,
}

/// Shared collector of per-worker event journals for one mining run.
///
/// Cloning is shallow (`Arc`); all clones feed the same journal set. The
/// type implements [`EventSink`] as a discovery vehicle only — it records
/// nothing through the sink methods ([`EventSink::enabled`] stays `false`)
/// but answers [`EventSink::timeline`] with itself, so the miner finds it
/// through any [`Fanout`](crate::Fanout) composition.
#[derive(Clone)]
pub struct Timeline {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Timeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Timeline")
            .field("capacity", &self.inner.capacity)
            .field("workers", &self.inner.next_worker.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for Timeline {
    fn default() -> Self {
        Self::new()
    }
}

impl Timeline {
    /// A timeline with the [`DEFAULT_CAPACITY`] per-worker ring size.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A timeline whose per-worker ring buffers hold at most `capacity`
    /// events (minimum 2, so a span's begin/end can coexist).
    pub fn with_capacity(capacity: usize) -> Self {
        Timeline {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                capacity: capacity.max(2),
                next_worker: AtomicU32::new(0),
                journals: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Registers the current thread as a worker of this timeline and makes
    /// it the target of the ambient record functions until the returned
    /// guard drops (which flushes the thread's ring buffer into the
    /// journal set). Re-attaching a thread that is already recording for
    /// this timeline returns an inert guard, so nested scopes are safe.
    pub fn attach(&self, label: &'static str) -> AttachGuard {
        CURRENT.with(|current| {
            let mut stack = current.borrow_mut();
            if stack.iter().any(|a| Arc::ptr_eq(&a.inner, &self.inner)) {
                return AttachGuard {
                    active: false,
                    _not_send: PhantomData,
                };
            }
            let worker = self.inner.next_worker.fetch_add(1, Ordering::Relaxed);
            stack.push(Active {
                inner: self.inner.clone(),
                worker,
                label,
                buf: VecDeque::new(),
                dropped: 0,
            });
            AttachGuard {
                active: true,
                _not_send: PhantomData,
            }
        })
    }

    /// Time elapsed since the timeline was created (its `ts` origin).
    pub fn elapsed(&self) -> Duration {
        self.inner.epoch.elapsed()
    }

    /// Snapshot of the flushed journals, sorted by worker id. Journals of
    /// still-attached threads are not included until their guards drop.
    pub fn journals(&self) -> Vec<WorkerJournal> {
        let mut journals = self
            .inner
            .journals
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone();
        journals.sort_by_key(|j| j.worker);
        journals
    }

    /// Merges the journals into a Chrome Trace Event document
    /// (`{"traceEvents": [...]}`), loadable in Perfetto and
    /// `chrome://tracing`.
    ///
    /// The merge is deterministic given the journal set: journals are
    /// ordered by worker id and events stay in recorded order. Per journal
    /// it emits a `thread_name` metadata event, `B`/`E` span events
    /// (sanitized: an `E` with no open `B` is dropped, spans left open by
    /// ring eviction or a panic are closed at the journal's horizon), `i`
    /// instants, and — when the ring evicted anything — a trailing
    /// `timeline.dropped` instant carrying the count.
    pub fn to_chrome_json(&self) -> Json {
        let mut events = Vec::new();
        for journal in self.journals() {
            let tid = u64::from(journal.worker);
            events.push(
                Json::obj()
                    .with("ph", Json::Str("M".into()))
                    .with("ts", Json::U64(0))
                    .with("pid", Json::U64(TRACE_PID))
                    .with("tid", Json::U64(tid))
                    .with("name", Json::Str("thread_name".into()))
                    .with(
                        "args",
                        Json::obj().with(
                            "name",
                            Json::Str(format!("w{} {}", journal.worker, journal.label)),
                        ),
                    ),
            );
            let mut open: Vec<&'static str> = Vec::new();
            let mut horizon = 0u64;
            for e in &journal.events {
                horizon = horizon.max(e.ts_ns);
                let base = |ph: &str, e: &TimelineEvent| {
                    Json::obj()
                        .with("ph", Json::Str(ph.into()))
                        .with("ts", Json::F64(e.ts_ns as f64 / 1e3))
                        .with("pid", Json::U64(TRACE_PID))
                        .with("tid", Json::U64(tid))
                        .with("name", Json::Str(e.name.into()))
                };
                match e.kind {
                    EventKind::Begin => {
                        open.push(e.name);
                        let mut obj = base("B", e);
                        if let Some(d) = &e.detail {
                            obj =
                                obj.with("args", Json::obj().with("detail", Json::Str(d.clone())));
                        }
                        events.push(obj);
                    }
                    EventKind::End => {
                        // An end whose begin was evicted from the ring has
                        // no matching B on this tid: drop it.
                        if open.pop().is_none() {
                            continue;
                        }
                        events.push(base("E", e));
                    }
                    EventKind::Instant => {
                        let mut obj = base("i", e).with("s", Json::Str("t".into()));
                        if let Some(d) = &e.detail {
                            obj =
                                obj.with("args", Json::obj().with("detail", Json::Str(d.clone())));
                        }
                        events.push(obj);
                    }
                }
            }
            // Close spans left open (ring eviction of their E, or a worker
            // that died mid-span) at the journal's horizon.
            while let Some(name) = open.pop() {
                events.push(
                    Json::obj()
                        .with("ph", Json::Str("E".into()))
                        .with("ts", Json::F64(horizon as f64 / 1e3))
                        .with("pid", Json::U64(TRACE_PID))
                        .with("tid", Json::U64(tid))
                        .with("name", Json::Str(name.into())),
                );
            }
            if journal.dropped > 0 {
                events.push(
                    Json::obj()
                        .with("ph", Json::Str("i".into()))
                        .with("ts", Json::F64(horizon as f64 / 1e3))
                        .with("pid", Json::U64(TRACE_PID))
                        .with("tid", Json::U64(tid))
                        .with("name", Json::Str("timeline.dropped".into()))
                        .with("s", Json::Str("t".into()))
                        .with(
                            "args",
                            Json::obj().with("count", Json::U64(journal.dropped)),
                        ),
                );
            }
        }
        Json::obj()
            .with("displayTimeUnit", Json::Str("ms".into()))
            .with("traceEvents", Json::Arr(events))
    }

    /// Aggregates the journals bottom-up into folded flamegraph stacks —
    /// the `stack;parts N` line format consumed by inferno, speedscope,
    /// and `flamegraph.pl`. See [`fold_journals`] for the semantics.
    pub fn to_folded(&self) -> String {
        fold_journals(&self.journals())
    }
}

/// Folds a journal set into flamegraph stacks.
///
/// Each output line is `name;name;... N` where the stack path is the span
/// nesting at some point of the run and `N` is the stack's **self time** in
/// microseconds — time spent in the leaf frame with none of its children
/// open. A frame's *total* time is therefore its own line plus every line
/// below it, which is exactly the self/total separation flamegraph tools
/// reconstruct when they render widths.
///
/// Worker journals are re-rooted under the coordinating thread's phase
/// spans: a `main`-labeled journal's top-level frames define phase windows
/// (all journals share the timeline epoch, so timestamps are comparable),
/// and any other journal's top-level frames are prefixed with the window
/// containing their begin instant. Stack roots thus stay the pipeline
/// phases even for work recorded on pool threads. On multi-threaded runs
/// the folded totals are CPU time summed across workers, so a phase's total
/// can legitimately exceed its wall-clock span.
///
/// Sanitization mirrors [`Timeline::to_chrome_json`]: an `End` with no open
/// `Begin` (ring eviction) is dropped, and frames left open are closed at
/// the journal's horizon. Instants carry no duration and are ignored. The
/// output is deterministic given the journal set: journals are folded in
/// worker order and lines are emitted in lexicographic stack order.
pub fn fold_journals(journals: &[WorkerJournal]) -> String {
    use std::collections::BTreeMap;

    struct Frame {
        name: &'static str,
        start: u64,
        child_ns: u64,
    }

    /// Closes the top frame at `end_ts`, crediting self time to `agg` and
    /// total time to the parent's child accumulator.
    fn pop_frame(
        stack: &mut Vec<Frame>,
        end_ts: u64,
        root: Option<&'static str>,
        agg: &mut BTreeMap<String, u64>,
    ) {
        let Some(f) = stack.pop() else {
            return;
        };
        let total = end_ts.saturating_sub(f.start);
        let self_ns = total.saturating_sub(f.child_ns);
        let mut parts: Vec<&str> = Vec::with_capacity(stack.len() + 2);
        parts.extend(root);
        parts.extend(stack.iter().map(|fr| fr.name));
        parts.push(f.name);
        *agg.entry(parts.join(";")).or_insert(0) += self_ns;
        if let Some(parent) = stack.last_mut() {
            parent.child_ns += total;
        }
    }

    // Pass 1: the coordinating thread's top-level frames become the phase
    // windows worker journals re-root under.
    let mut windows: Vec<(u64, u64, &'static str)> = Vec::new();
    for journal in journals.iter().filter(|j| j.label == "main") {
        let mut open: Vec<(&'static str, u64)> = Vec::new();
        let mut horizon = 0u64;
        for e in &journal.events {
            horizon = horizon.max(e.ts_ns);
            match e.kind {
                EventKind::Begin => open.push((e.name, e.ts_ns)),
                EventKind::End => {
                    if let Some((name, start)) = open.pop() {
                        if open.is_empty() {
                            windows.push((start, e.ts_ns, name));
                        }
                    }
                }
                EventKind::Instant => {}
            }
        }
        while let Some((name, start)) = open.pop() {
            if open.is_empty() {
                windows.push((start, horizon, name));
            }
        }
    }

    // Pass 2: fold every journal, re-rooting non-main top-level frames into
    // the phase window containing their begin instant (frames outside every
    // window — e.g. work recorded before the phases opened — root as-is).
    let mut agg: BTreeMap<String, u64> = BTreeMap::new();
    for journal in journals {
        let reroot = journal.label != "main";
        let root_of = |start: u64| -> Option<&'static str> {
            if !reroot {
                return None;
            }
            windows
                .iter()
                .find(|&&(s, e, _)| s <= start && start <= e)
                .map(|&(_, _, name)| name)
        };
        let mut stack: Vec<Frame> = Vec::new();
        let mut root: Option<&'static str> = None;
        let mut horizon = 0u64;
        for e in &journal.events {
            horizon = horizon.max(e.ts_ns);
            match e.kind {
                EventKind::Begin => {
                    if stack.is_empty() {
                        root = root_of(e.ts_ns);
                    }
                    stack.push(Frame {
                        name: e.name,
                        start: e.ts_ns,
                        child_ns: 0,
                    });
                }
                EventKind::End => pop_frame(&mut stack, e.ts_ns, root, &mut agg),
                EventKind::Instant => {}
            }
        }
        while !stack.is_empty() {
            pop_frame(&mut stack, horizon, root, &mut agg);
        }
    }

    let mut out = String::new();
    for (stack, ns) in agg {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&(ns / 1_000).to_string());
        out.push('\n');
    }
    out
}

/// The single `pid` all timeline events share (one process, many workers).
const TRACE_PID: u64 = 1;

impl EventSink for Timeline {
    fn enabled(&self) -> bool {
        false
    }
    fn event(&self, _event: Event) {}
    fn histogram(&self, _name: &'static str, _hist: &Histogram) {}
    fn timeline(&self) -> Option<&Timeline> {
        Some(self)
    }
}

/// The current thread's ring buffer for one timeline.
struct Active {
    inner: Arc<Inner>,
    worker: u32,
    label: &'static str,
    buf: VecDeque<TimelineEvent>,
    dropped: u64,
}

thread_local! {
    /// Stack of timelines this thread records for; ambient calls hit the
    /// top. Depth is 1 in practice (2 transiently under nested mines).
    static CURRENT: RefCell<Vec<Active>> = const { RefCell::new(Vec::new()) };
}

/// RAII registration of a thread with a [`Timeline`] (see
/// [`Timeline::attach`]). Dropping flushes the thread's ring buffer into
/// the timeline's journal set.
#[must_use = "dropping the guard immediately detaches the thread again"]
pub struct AttachGuard {
    active: bool,
    /// Attach/detach manipulate a thread-local stack, so the guard must be
    /// dropped on the thread that created it.
    _not_send: PhantomData<*const ()>,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        CURRENT.with(|current| {
            let Some(active) = current.borrow_mut().pop() else {
                return;
            };
            let journal = WorkerJournal {
                worker: active.worker,
                label: active.label,
                events: active.buf.into_iter().collect(),
                dropped: active.dropped,
            };
            active
                .inner
                .journals
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .push(journal);
        });
    }
}

/// Whether the current thread is attached to any timeline. Lets callers
/// skip building expensive details; the record functions check anyway.
pub fn is_attached() -> bool {
    CURRENT.with(|current| match current.try_borrow() {
        Ok(stack) => !stack.is_empty(),
        Err(_) => false,
    })
}

fn record(kind: EventKind, name: &'static str, detail: Option<&mut dyn FnMut() -> String>) {
    CURRENT.with(|current| {
        // try_borrow_mut: a detail closure that itself records (re-entry)
        // must degrade to a no-op, not a panic.
        let Ok(mut stack) = current.try_borrow_mut() else {
            return;
        };
        let Some(active) = stack.last_mut() else {
            return;
        };
        let ts_ns = active.inner.epoch.elapsed().as_nanos() as u64;
        if active.buf.len() >= active.inner.capacity {
            active.buf.pop_front();
            active.dropped += 1;
        }
        active.buf.push_back(TimelineEvent {
            kind,
            name,
            ts_ns,
            detail: detail.map(|f| f()),
        });
    });
}

/// Opens a span on the current thread's timeline (no-op when detached).
#[inline]
pub fn begin(name: &'static str) {
    record(EventKind::Begin, name, None);
}

/// Like [`begin`], attaching a lazily built detail string (only evaluated
/// when the thread is attached).
#[inline]
pub fn begin_with(name: &'static str, detail: impl FnOnce() -> String) {
    if is_attached() {
        let mut detail = Some(detail);
        record(
            EventKind::Begin,
            name,
            Some(&mut move || (detail.take().expect("called once"))()),
        );
    }
}

/// Closes the most recently opened span (no-op when detached).
#[inline]
pub fn end(name: &'static str) {
    record(EventKind::End, name, None);
}

/// Records an instant event (no-op when detached).
#[inline]
pub fn instant(name: &'static str) {
    record(EventKind::Instant, name, None);
}

/// Like [`instant`], attaching a lazily built detail string.
#[inline]
pub fn instant_with(name: &'static str, detail: impl FnOnce() -> String) {
    if is_attached() {
        let mut detail = Some(detail);
        record(
            EventKind::Instant,
            name,
            Some(&mut move || (detail.take().expect("called once"))()),
        );
    }
}

/// RAII span: [`begin`] now, [`end`] on drop. Zero-cost when detached.
#[must_use = "dropping the guard ends the span immediately"]
pub struct SpanGuard {
    name: &'static str,
    _not_send: PhantomData<*const ()>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        end(self.name);
    }
}

/// Opens a span closed when the returned guard drops.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    begin(name);
    SpanGuard {
        name,
        _not_send: PhantomData,
    }
}

/// Like [`span`], with a lazily built detail string on the begin event.
#[inline]
pub fn span_with(name: &'static str, detail: impl FnOnce() -> String) -> SpanGuard {
    begin_with(name, detail);
    SpanGuard {
        name,
        _not_send: PhantomData,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(j: &WorkerJournal) -> Vec<&'static str> {
        j.events.iter().map(|e| e.name).collect()
    }

    #[test]
    fn detached_thread_records_nothing() {
        assert!(!is_attached());
        begin("x");
        end("x");
        instant("y");
        let _s = span("z");
    }

    #[test]
    fn attach_records_and_flushes_on_drop() {
        let tl = Timeline::new();
        {
            let _g = tl.attach("main");
            assert!(is_attached());
            assert!(tl.journals().is_empty(), "flushed only on detach");
            let _s = span_with("phase", || "t=0".into());
            instant("tick");
        }
        assert!(!is_attached());
        let journals = tl.journals();
        assert_eq!(journals.len(), 1);
        assert_eq!(journals[0].worker, 0);
        assert_eq!(journals[0].label, "main");
        assert_eq!(names(&journals[0]), ["phase", "tick", "phase"]);
        assert_eq!(journals[0].events[0].kind, EventKind::Begin);
        assert_eq!(journals[0].events[0].detail.as_deref(), Some("t=0"));
        assert_eq!(journals[0].events[2].kind, EventKind::End);
        assert_eq!(journals[0].dropped, 0);
    }

    #[test]
    fn nested_attach_to_same_timeline_is_inert() {
        let tl = Timeline::new();
        let _outer = tl.attach("main");
        {
            let _inner = tl.attach("again");
            instant("once");
        }
        // the inner guard must not have flushed or popped the journal
        assert!(is_attached());
        drop(_outer);
        let journals = tl.journals();
        assert_eq!(journals.len(), 1);
        assert_eq!(names(&journals[0]), ["once"]);
    }

    #[test]
    fn ring_buffer_evicts_oldest_and_counts_drops() {
        let tl = Timeline::with_capacity(4);
        {
            let _g = tl.attach("w");
            for _ in 0..6 {
                instant("e");
            }
        }
        let j = &tl.journals()[0];
        assert_eq!(j.events.len(), 4);
        assert_eq!(j.dropped, 2);
    }

    #[test]
    fn workers_get_distinct_ids_across_threads() {
        let tl = Timeline::new();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let _g = tl.attach("worker");
                    let _s = span("work");
                });
            }
        });
        let journals = tl.journals();
        assert_eq!(journals.len(), 3);
        let ids: Vec<u32> = journals.iter().map(|j| j.worker).collect();
        assert_eq!(ids, [0, 1, 2], "journals() sorts by worker id");
    }

    #[test]
    fn chrome_export_has_required_fields_and_balanced_spans() {
        let tl = Timeline::new();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let _g = tl.attach("worker");
                    let _outer = span("outer");
                    let _inner = span("inner");
                    instant_with("mark", || "detail".into());
                });
            }
        });
        let doc = tl.to_chrome_json();
        let text = doc.render();
        let parsed = Json::parse(&text).expect("trace renders as valid JSON");
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());
        let mut balance = std::collections::HashMap::new();
        for e in events {
            let ph = e.get("ph").and_then(|v| v.as_str()).expect("ph");
            assert!(e.get("ts").and_then(|v| v.as_f64()).is_some(), "ts");
            assert!(e.get("pid").and_then(|v| v.as_u64()).is_some(), "pid");
            let tid = e.get("tid").and_then(|v| v.as_u64()).expect("tid");
            assert!(e.get("name").and_then(|v| v.as_str()).is_some(), "name");
            match ph {
                "B" => *balance.entry(tid).or_insert(0i64) += 1,
                "E" => *balance.entry(tid).or_insert(0i64) -= 1,
                "i" | "M" => {}
                other => panic!("unexpected ph {other:?}"),
            }
        }
        assert!(balance.values().all(|&v| v == 0), "unbalanced: {balance:?}");
        // two workers -> two thread_name metadata events
        let metas = events
            .iter()
            .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("M"))
            .count();
        assert_eq!(metas, 2);
    }

    #[test]
    fn export_sanitizes_orphaned_ends_and_open_begins() {
        let tl = Timeline::new();
        {
            let _g = tl.attach("w");
            end("orphan"); // no matching begin
            begin("left_open"); // never ended
            instant("tick");
        }
        let doc = tl.to_chrome_json();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let phs: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(|v| v.as_str()))
            .collect();
        // M, B(left_open), i(tick), synthetic E — the orphan E is gone
        assert_eq!(phs, ["M", "B", "i", "E"]);
    }

    fn fold_map(folded: &str) -> std::collections::BTreeMap<String, u64> {
        folded
            .lines()
            .map(|l| {
                let (stack, n) = l.rsplit_once(' ').expect("stack<space>count");
                (stack.to_string(), n.parse().expect("count is a number"))
            })
            .collect()
    }

    fn ev(kind: EventKind, name: &'static str, ts_ns: u64) -> TimelineEvent {
        TimelineEvent {
            kind,
            name,
            ts_ns,
            detail: None,
        }
    }

    #[test]
    fn folding_computes_self_times_and_reroots_workers() {
        let main = WorkerJournal {
            worker: 0,
            label: "main",
            events: vec![
                ev(EventKind::Begin, "phase.slices.wall", 0),
                ev(EventKind::End, "phase.slices.wall", 100_000),
                ev(EventKind::Begin, "phase.tricluster", 100_000),
                ev(EventKind::Begin, "tricluster.dfs", 120_000),
                ev(EventKind::Instant, "miner.truncated", 150_000),
                ev(EventKind::End, "tricluster.dfs", 180_000),
                ev(EventKind::End, "phase.tricluster", 200_000),
            ],
            dropped: 0,
        };
        // a pool worker whose frames began inside the slices window
        let slice = WorkerJournal {
            worker: 1,
            label: "slice",
            events: vec![
                ev(EventKind::Begin, "miner.slice", 10_000),
                ev(EventKind::Begin, "rangegraph.pair", 20_000),
                ev(EventKind::End, "rangegraph.pair", 40_000),
                ev(EventKind::End, "miner.slice", 60_000),
            ],
            dropped: 0,
        };
        let folded = fold_journals(&[main, slice]);
        let map = fold_map(&folded);
        // main: slices self = 100 µs; tricluster total 100 µs minus the
        // 60 µs dfs child = 40 µs self; dfs self = 60 µs
        assert_eq!(map["phase.slices.wall"], 100);
        assert_eq!(map["phase.tricluster"], 40);
        assert_eq!(map["phase.tricluster;tricluster.dfs"], 60);
        // worker frames re-rooted under the containing phase window
        assert_eq!(map["phase.slices.wall;miner.slice"], 30);
        assert_eq!(map["phase.slices.wall;miner.slice;rangegraph.pair"], 20);
        assert_eq!(map.len(), 5, "instants fold to nothing: {folded}");
        // lexicographic line order (deterministic output)
        let stacks: Vec<&str> = folded
            .lines()
            .map(|l| l.rsplit_once(' ').unwrap().0)
            .collect();
        let mut sorted = stacks.clone();
        sorted.sort_unstable();
        assert_eq!(stacks, sorted);
    }

    #[test]
    fn folding_sanitizes_orphans_and_closes_open_frames_at_horizon() {
        let j = WorkerJournal {
            worker: 0,
            label: "main",
            events: vec![
                ev(EventKind::End, "orphan", 5_000),
                ev(EventKind::Begin, "a", 10_000),
                ev(EventKind::Begin, "b", 20_000),
                ev(EventKind::Instant, "tick", 25_000),
            ],
            dropped: 0,
        };
        let map = fold_map(&fold_journals(&[j]));
        assert!(!map.contains_key("orphan"));
        // both frames closed at the 25 µs horizon
        assert_eq!(map["a;b"], 5);
        assert_eq!(map["a"], 10);
    }

    #[test]
    fn folding_roots_uncovered_worker_frames_as_is() {
        // no main journal at all: worker stacks keep their own roots
        let j = WorkerJournal {
            worker: 3,
            label: "slice",
            events: vec![
                ev(EventKind::Begin, "miner.slice", 0),
                ev(EventKind::End, "miner.slice", 7_000),
            ],
            dropped: 0,
        };
        let map = fold_map(&fold_journals(&[j]));
        assert_eq!(map["miner.slice"], 7);
    }

    #[test]
    fn to_folded_on_a_live_timeline_matches_its_journals() {
        let tl = Timeline::new();
        {
            let _g = tl.attach("main");
            let _s = span("phase.prune");
            std::thread::sleep(Duration::from_millis(2));
        }
        let folded = tl.to_folded();
        assert_eq!(folded, fold_journals(&tl.journals()));
        let map = fold_map(&folded);
        assert!(map["phase.prune"] >= 2_000, "{folded}");
    }

    #[test]
    fn timeline_is_discoverable_as_a_sink() {
        let tl = Timeline::new();
        let sink: &dyn EventSink = &tl;
        assert!(!sink.enabled());
        assert!(!sink.wants_histograms());
        assert!(sink.timeline().is_some());
        assert!(crate::NullSink.timeline().is_none());
    }
}
