//! In-memory span recording for the traced run.
//!
//! A span times one public call into a layer (`layer.call`, where the
//! layer is the crate: `serve`, `exec`, `ir`, `core`, `pta`) and records
//! how many bytes were allocated while it ran. Spans nest through the
//! closures of [`Recorder::span`], so every span knows its parent; a
//! span's *self* time is its duration minus the time its children cover.
//! Spans stay in memory and are written once, at exit, as Chrome
//! trace-event JSON (`chrome://tracing`, Perfetto).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::time::Instant;

use crate::json;

/// The system allocator, plus a per-thread count of bytes allocated while
/// a recording [`Recorder`] has a span open on that thread. Outside spans
/// (every untraced run, and the timed roots of a traced one) an allocation
/// costs one thread-local load more than `System`'s. A replay runs on one
/// thread (frontend and block building inline, solves without waves), so
/// a span sees every allocation of the calls it times.
pub struct CountingAlloc;

thread_local! {
    /// Spans open on this thread in recording recorders.
    static OPEN_SPANS: Cell<u32> = const { Cell::new(0) };
    /// Bytes this thread allocated while a span was open.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down; these cells have no destructor, so it never fails in practice.
    let _ = OPEN_SPANS.try_with(|open| {
        if open.get() > 0 {
            let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes as u64));
        }
    });
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// constant-initialised thread-local cells that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds `realloc`'s size contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, or `request` / `replay` for a request's roots.
    pub name: &'static str,
    /// The request the span belongs to.
    pub req: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Bytes allocated between start and end (children included).
    pub alloc: u64,
    /// Nanoseconds covered by direct children.
    pub child_ns: u64,
    /// Bytes allocated by direct children.
    pub child_alloc: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Duration minus the time the span's children cover, in ms.
    pub fn self_ms(&self) -> f64 {
        self.dur_ns().saturating_sub(self.child_ns) as f64 / 1e6
    }

    /// Bytes allocated by the span itself, not its children.
    pub fn self_alloc(&self) -> u64 {
        self.alloc.saturating_sub(self.child_alloc)
    }

    /// The layer (crate) the span's call belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans for the requests of one traced run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    req: u32,
    /// `false` for [`Recorder::off`]: spans run their closure and record
    /// nothing.
    on: bool,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
            on: true,
        }
    }

    /// A recorder that records nothing and counts no allocations: the
    /// untraced side of the tracing-overhead measurement.
    pub fn off() -> Recorder {
        Recorder {
            on: false,
            ..Recorder::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Attribute the spans that follow to request `req`.
    pub fn set_request(&mut self, req: u32) {
        self.req = req;
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Time `f` as span `name`; spans opened inside `f` become children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name,
            req: self.req,
            parent,
            start_ns: 0,
            end_ns: 0,
            alloc: 0,
            child_ns: 0,
            child_alloc: 0,
        });
        self.stack.push(idx);
        OPEN_SPANS.with(|n| n.set(n.get() + 1));
        let a0 = allocated();
        let t0 = self.now_ns();
        let out = f(self);
        let t1 = self.now_ns();
        let a1 = allocated();
        OPEN_SPANS.with(|n| n.set(n.get() - 1));
        self.stack.pop();
        let span = &mut self.spans[idx as usize];
        span.start_ns = t0;
        span.end_ns = t1;
        span.alloc = a1.saturating_sub(a0);
        let (dur, alloc) = (span.dur_ns(), span.alloc);
        if let Some(p) = parent {
            let p = &mut self.spans[p as usize];
            p.child_ns += dur;
            p.child_alloc += alloc;
        }
        out
    }

    /// [`Recorder::span`] for a call that opens no spans of its own.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, |_| f())
    }

    /// Record an already-timed root span (the served exchange, timed by
    /// the client outside the recorder).
    pub fn record_root(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let (start_ns, end_ns) = (at(start), at(end));
        self.spans.push(Span {
            name,
            req: self.req,
            parent: None,
            start_ns,
            end_ns,
            alloc: 0,
            child_ns: 0,
            child_alloc: 0,
        });
    }

    /// Chrome trace-event JSON for every span.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\
                 \"args\":{{\"span\":{i},\"req\":{},\"parent\":{},\"alloc_bytes\":{},\"self_ms\":{}}}}}",
                json::quote(s.name),
                json::quote(s.layer()),
                json::num(s.start_ns as f64 / 1e3),
                json::num(s.dur_ns() as f64 / 1e3),
                s.req,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.alloc,
                json::num(s.self_ms()),
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new();
        rec.span("exec.outer", |rec| {
            rec.leaf("ir.inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let outer = &rec.spans()[0];
        let inner = &rec.spans()[1];
        assert_eq!(inner.parent, Some(0));
        assert!(inner.self_ms() >= 20.0);
        assert!(outer.self_ms() >= 5.0 && outer.self_ms() < inner.self_ms());
        assert_eq!(outer.layer(), "exec");
        let doc = crate::json::parse(&rec.chrome_json()).expect("valid trace JSON");
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn off_recorder_runs_spans_without_recording() {
        let mut rec = Recorder::new();
        let v = rec.leaf("ir.alloc", || vec![0u8; 1 << 20]);
        assert!(rec.spans()[0].alloc >= 1 << 20);
        let mut off = Recorder::off();
        let w = off.span("exec.outer", |off| off.leaf("ir.alloc", || vec![1u8; 16]));
        off.record_root("request", Instant::now(), Instant::now());
        assert!(off.spans().is_empty());
        assert_eq!((v.len(), w.len()), (1 << 20, 16));
    }
}
