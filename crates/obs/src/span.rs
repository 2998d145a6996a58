//! RAII spans with parent/child linking and worker attribution.
//!
//! [`Span::enter`] is a no-op returning an inert guard unless observability
//! is enabled — the disabled cost is one relaxed atomic load and a `None`
//! move. Active spans push their id onto a thread-local stack (so nested
//! spans record their parent), and on drop feed the statistics registry
//! and/or the JSONL trace sink. Work handed to another thread carries a
//! [`SpanContext`] along, so its spans keep their parent and worker tag.

use crate::registry::Phase;
use crate::trace::TraceRecord;
use crate::OBS;
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static WORKER_ID: Cell<Option<u64>> = const { Cell::new(None) };
    static THREAD_ID: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Process-wide trace epoch; span start offsets are relative to this.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn thread_id() -> u64 {
    THREAD_ID.with(|t| match t.get() {
        Some(id) => id,
        None => {
            let id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        }
    })
}

/// Tag the current thread as logical worker `id` (parfor or federated
/// site); spans finished while the guard lives carry the id. Restores the
/// previous tag on drop, so nesting is safe.
pub fn set_worker(id: u64) -> WorkerGuard {
    set_worker_tag(Some(id))
}

/// Guard returned by [`set_worker`]; restores the previous worker tag.
pub struct WorkerGuard {
    prev: Option<u64>,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        WORKER_ID.with(|w| w.set(self.prev));
    }
}

/// The innermost open span and the worker tag of one thread, captured so
/// work handed to another thread stays attributed to it: spans opened
/// under [`SpanContext::enter`] record the captured span as their parent
/// and carry the captured worker tag.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanContext {
    span: u64,
    worker: Option<u64>,
}

impl SpanContext {
    /// The calling thread's context (span id 0 outside any span).
    pub fn current() -> SpanContext {
        SpanContext {
            span: SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0)),
            worker: WORKER_ID.with(|w| w.get()),
        }
    }

    /// Id of the captured span, 0 if none was open.
    pub fn span_id(&self) -> u64 {
        self.span
    }

    /// The captured worker tag.
    pub fn worker(&self) -> Option<u64> {
        self.worker
    }

    /// Re-enter this context on the current thread until the guard drops.
    pub fn enter(self) -> ContextGuard {
        if self.span != 0 {
            SPAN_STACK.with(|s| s.borrow_mut().push(self.span));
        }
        ContextGuard {
            span: self.span,
            _worker: set_worker_tag(self.worker),
        }
    }
}

/// Guard returned by [`SpanContext::enter`]; restores the thread's own
/// span stack and worker tag.
pub struct ContextGuard {
    span: u64,
    _worker: WorkerGuard,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if self.span != 0 {
            pop_span(self.span);
        }
    }
}

fn set_worker_tag(tag: Option<u64>) -> WorkerGuard {
    let prev = WORKER_ID.with(|w| w.replace(tag));
    WorkerGuard { prev }
}

/// Pop `id` off the span stack; tolerate unbalanced stacks from panics.
fn pop_span(id: u64) {
    SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        if s.last() == Some(&id) {
            s.pop();
        } else if let Some(pos) = s.iter().rposition(|&x| x == id) {
            s.truncate(pos);
        }
    });
}

struct ActiveSpan {
    id: u64,
    parent: u64,
    phase: Phase,
    opcode: Cow<'static, str>,
    start: Instant,
    start_nanos: u64,
}

/// A (possibly inert) span guard; see [`Span::enter`].
pub struct Span(Option<ActiveSpan>);

impl Span {
    /// Open a span with a static opcode. Inert (and free) when
    /// observability is disabled.
    #[inline]
    pub fn enter(phase: Phase, opcode: &'static str) -> Span {
        if !OBS.enabled() {
            return Span(None);
        }
        Span(Some(ActiveSpan::open(phase, Cow::Borrowed(opcode))))
    }

    /// Open a span with a lazily computed opcode; the closure only runs
    /// when observability is enabled, so callers pay no allocation on the
    /// disabled fast path.
    #[inline]
    pub fn enter_with<F: FnOnce() -> String>(phase: Phase, opcode: F) -> Span {
        if !OBS.enabled() {
            return Span(None);
        }
        Span(Some(ActiveSpan::open(phase, Cow::Owned(opcode()))))
    }

    /// Whether this guard is actually recording.
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }
}

impl ActiveSpan {
    fn open(phase: Phase, opcode: Cow<'static, str>) -> ActiveSpan {
        let start = Instant::now();
        let start_nanos = start.duration_since(epoch()).as_nanos() as u64;
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        ActiveSpan {
            id,
            parent,
            phase,
            opcode,
            start,
            start_nanos,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(span) = self.0.take() else { return };
        let nanos = span.start.elapsed().as_nanos() as u64;
        pop_span(span.id);
        if OBS.stats_enabled() {
            OBS.record(span.phase, &span.opcode, nanos);
        }
        if OBS.trace_enabled() {
            OBS.write_trace(TraceRecord {
                id: span.id,
                parent: span.parent,
                phase: span.phase.as_str().to_string(),
                op: span.opcode.into_owned(),
                start_ns: span.start_nanos,
                dur_ns: nanos,
                thread: thread_id(),
                worker: WORKER_ID.with(|w| w.get()),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that turn the process observer on and off;
    /// `cargo test` runs tests on parallel threads inside one process.
    fn test_flag_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        sysds_common::sync::lock(&LOCK)
    }

    #[test]
    fn disabled_span_is_inert() {
        let _g = test_flag_guard();
        crate::disable_stats();
        crate::disable_trace();
        let s = Span::enter(Phase::Instruction, "noop");
        assert!(!s.is_active());
        let called = std::cell::Cell::new(false);
        let s2 = Span::enter_with(Phase::Instruction, || {
            called.set(true);
            "x".to_string()
        });
        assert!(!s2.is_active());
        assert!(!called.get(), "closure must not run when disabled");
    }

    #[test]
    fn worker_guard_restores() {
        {
            let _a = set_worker(7);
            WORKER_ID.with(|w| assert_eq!(w.get(), Some(7)));
            {
                let _b = set_worker(9);
                WORKER_ID.with(|w| assert_eq!(w.get(), Some(9)));
            }
            WORKER_ID.with(|w| assert_eq!(w.get(), Some(7)));
        }
        WORKER_ID.with(|w| assert_eq!(w.get(), None));
    }

    #[test]
    fn nesting_links_parents() {
        let _g = test_flag_guard();
        crate::enable_stats();
        let outer = Span::enter(Phase::Execute, "outer-span-test");
        let outer_id = outer.0.as_ref().unwrap().id;
        let inner = Span::enter(Phase::Instruction, "inner-span-test");
        assert_eq!(inner.0.as_ref().unwrap().parent, outer_id);
        drop(inner);
        drop(outer);
        crate::disable_stats();
    }

    #[test]
    fn context_carries_parent_and_worker_to_another_thread() {
        let _g = test_flag_guard();
        crate::enable_stats();
        let _w = set_worker(5);
        let outer = Span::enter(Phase::Execute, "context-test");
        let outer_id = outer.0.as_ref().unwrap().id;
        let ctx = SpanContext::current();
        assert_eq!((ctx.span_id(), ctx.worker()), (outer_id, Some(5)));
        // Item 1 runs on a thread of its own.
        sysds_common::par::map(vec![false, true], |other_thread| {
            if !other_thread {
                return;
            }
            assert_eq!(SpanContext::current(), SpanContext::default());
            {
                let _ctx = ctx.enter();
                let inner = Span::enter(Phase::Federated, "context-test-inner");
                assert_eq!(inner.0.as_ref().unwrap().parent, outer_id);
                WORKER_ID.with(|w| assert_eq!(w.get(), Some(5)));
            }
            assert_eq!(SpanContext::current(), SpanContext::default());
        });
        drop(outer);
        crate::disable_stats();
    }
}
