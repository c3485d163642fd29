//! Host-time accounting around library calls, with optional spans.
//!
//! Every call the benchmark makes into the library goes through
//! [`Probe::call`], which adds the call's host duration to the phase
//! total. Verification and bookkeeping run between calls and are never
//! counted. With tracing on, each call also becomes a span (name, start,
//! duration, parent phase, request id) kept in memory and exported at exit
//! as Chrome trace-event JSON.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Index of the enclosing phase span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds covered by child spans.
    pub child_ns: u64,
    /// Simulated request the call served (0 when none).
    pub request: u64,
}

impl Span {
    /// Duration minus the part covered by children.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns.saturating_sub(self.child_ns)
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn ns_since_origin(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, start: Instant, dur: Duration, request: u64) {
        let parent = self.open.last().copied();
        let dur_ns = dur.as_nanos() as u64;
        if let Some(p) = parent {
            self.spans[p].child_ns += dur_ns;
        }
        let start_ns = self.ns_since_origin(start);
        self.spans.push(Span { name, start_ns, dur_ns, parent, child_ns: 0, request });
    }

    /// Chrome trace-event JSON (complete events, microsecond timestamps)
    /// of the first `cap` spans; the count left out is recorded in
    /// `otherData`.
    pub fn to_chrome_json(&self, workload: &str, cap: usize) -> String {
        let kept = &self.spans[..self.spans.len().min(cap)];
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in kept.iter().enumerate() {
            let sep = if i + 1 == kept.len() { "" } else { "," };
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"request\":{},\"self_ns\":{}}}}}{sep}",
                s.name,
                s.name.split('.').next().unwrap_or("bench"),
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.request,
                s.self_ns(),
            );
        }
        let _ = writeln!(
            out,
            "],\"otherData\":{{\"workload\":\"{workload}\",\"spans\":{},\"not_exported\":{}}}}}",
            self.spans.len(),
            self.spans.len() - kept.len()
        );
        out
    }
}

/// Counts host time spent inside library calls, optionally tracing them.
///
/// A phase's time is kept in segments closed at fixed points of the
/// workload (every so many pages, rounds or publishes), so repetitions
/// can be compared segment by segment.
pub struct Probe {
    inside: Duration,
    segments: Vec<Duration>,
    pub tracer: Option<Tracer>,
}

impl Probe {
    pub fn new(traced: bool) -> Self {
        Probe { inside: Duration::ZERO, segments: Vec::new(), tracer: traced.then(Tracer::new) }
    }

    /// Runs one library call, counting its host time.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.call_for(name, 0, f)
    }

    /// [`Probe::call`] for a call that serves simulated request `request`.
    pub fn call_for<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        self.inside += dur;
        if let Some(t) = &mut self.tracer {
            t.push(name, start, dur, request);
        }
        out
    }

    /// Opens a phase span (setup, run); calls made until
    /// [`Probe::end_phase`] become its children.
    pub fn begin_phase(&mut self, name: &'static str) {
        if let Some(t) = &mut self.tracer {
            let start = Instant::now();
            t.push(name, start, Duration::ZERO, 0);
            let idx = t.spans.len() - 1;
            t.open.push(idx);
        }
    }

    /// Closes the innermost phase span.
    pub fn end_phase(&mut self) {
        if let Some(t) = &mut self.tracer {
            if let Some(idx) = t.open.pop() {
                let end = t.ns_since_origin(Instant::now());
                let span = &mut t.spans[idx];
                span.dur_ns = end.saturating_sub(span.start_ns);
                if let Some(p) = span.parent {
                    let dur = t.spans[idx].dur_ns;
                    t.spans[p].child_ns += dur;
                }
            }
        }
    }

    /// Closes the current segment.
    pub fn mark(&mut self) {
        let segment = std::mem::take(&mut self.inside);
        self.segments.push(segment);
    }

    /// The phase's segments, the open one included; resets the counters.
    pub fn take(&mut self) -> Vec<Duration> {
        self.mark();
        std::mem::take(&mut self.segments)
    }
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Self-time p50/p99 of every span named `name` (0 when none).
pub fn span_self_percentiles(spans: &[Span], name: &str) -> (u64, u64) {
    let mut v: Vec<u64> = spans.iter().filter(|s| s.name == name).map(Span::self_ns).collect();
    v.sort_unstable();
    (percentile(&v, 0.50), percentile(&v, 0.99))
}
