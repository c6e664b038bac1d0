//! In-memory span recording for the traced run.
//!
//! A span has a name, a start and an end (nanoseconds since the first span
//! of the process), the id of its parent span on the same thread (0 at the
//! top), a request id tying server-side spans to client-side ones, and the
//! small integer id of the recording thread. Spans are recorded only around
//! public calls made from the benchmark's own code; they are kept in memory,
//! drained by each traced pass for its per-layer arithmetic, and written out
//! as one tab-separated file at the end of the run. Each thread appends to a
//! buffer of its own, so recording threads never wait on one another.

use std::cell::{Cell, RefCell};
use std::io::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span id (unique in the process, never 0).
    pub id: u64,
    /// Enclosing span on the same thread, 0 at the top.
    pub parent: u64,
    /// Layer-qualified name, e.g. `service.route`.
    pub name: &'static str,
    /// Request id (0 when the span belongs to no request).
    pub req: u64,
    /// Recording thread (small integer, assigned on first use).
    pub thread: u32,
    /// Start, nanoseconds since the trace epoch.
    pub start: u64,
    /// End, nanoseconds since the trace epoch.
    pub end: u64,
}

impl Span {
    /// Duration in microseconds.
    #[must_use]
    pub fn micros(&self) -> f64 {
        (self.end - self.start) as f64 / 1e3
    }
}

/// Every thread's span buffer, registered on the thread's first span.
static BUFFERS: Mutex<Vec<Arc<Mutex<Vec<Span>>>>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static BUFFER: Arc<Mutex<Vec<Span>>> = {
        let buffer = Arc::new(Mutex::new(Vec::new()));
        lock(&BUFFERS).push(Arc::clone(&buffer));
        buffer
    };
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static MARK: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Nanoseconds since the trace epoch.
#[must_use]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// An open span; recorded when dropped.
#[derive(Debug)]
pub struct Guard {
    id: u64,
    parent: u64,
    name: &'static str,
    req: u64,
    start: u64,
}

/// Opens a span named `name` for request `req` on the calling thread.
#[must_use]
pub fn span(name: &'static str, req: u64) -> Guard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied().unwrap_or(0);
        open.push(id);
        parent
    });
    Guard {
        id,
        parent,
        name,
        req,
        start: now_ns(),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&id| id == self.id) {
                open.truncate(pos);
            }
        });
        record(Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            req: self.req,
            thread: THREAD.with(|t| *t),
            start: self.start,
            end,
        });
    }
}

/// Records an already-measured span (`start`..`end` on the calling thread,
/// under the currently open span).
pub fn record_between(name: &'static str, req: u64, start: u64, end: u64) {
    let parent = OPEN.with(|open| open.borrow().last().copied().unwrap_or(0));
    record(Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent,
        name,
        req,
        thread: THREAD.with(|t| *t),
        start,
        end,
    });
}

/// Locks a span buffer. Every update is a single push or take, so a buffer
/// left by a panicking thread is still whole.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn record(span: Span) {
    BUFFER.with(|b| lock(b).push(span));
}

/// Sets this thread's mark to now (see [`take_mark`]).
pub fn set_mark() {
    MARK.with(|m| m.set(Some(now_ns())));
}

/// Takes this thread's mark, if one is set.
#[must_use]
pub fn take_mark() -> Option<u64> {
    MARK.with(Cell::take)
}

/// Removes and returns every span recorded so far, from every thread.
#[must_use]
pub fn drain() -> Vec<Span> {
    let mut spans = Vec::new();
    for buffer in lock(&BUFFERS).iter() {
        spans.append(&mut lock(buffer));
    }
    spans
}

/// Nanoseconds one span costs to open and record, measured on `n` throwaway
/// spans (drained afterwards).
#[must_use]
pub fn span_cost_ns(n: u64) -> f64 {
    let t0 = now_ns();
    for i in 0..n {
        drop(span("trace.calibrate", i));
    }
    let cost = (now_ns() - t0) as f64 / n as f64;
    let _ = drain();
    cost
}

/// Writes `spans` as tab-separated lines (`id parent name req thread start
/// end`) to `path`, creating its directory.
pub fn write(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\treq\tthread\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.req, s.thread, s.start, s.end
        )?;
    }
    out.flush()
}
