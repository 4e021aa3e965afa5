//! The benchmark-side span recorder.
//!
//! Every call into a public function of the library goes through
//! [`Tracer::call`], which always times it (the stage needs the duration for
//! its samples) and, in a traced run, also records a span: name, start, end,
//! the span that caused it, and the operation it belongs to. Spans stay in
//! memory and are written out when the run ends. Spans inside the library
//! are a later change; until then a layer is whatever public call it is
//! entered through, and the name before the first `.` is its crate.

use std::collections::BTreeMap;
use std::time::Instant;

/// `parent` of a span that no other span caused.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<crate>.<call>`; `bench.*` and `stage.*` are the benchmark's own.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The operation (admission, round, control step, ...) this span is part
    /// of; spans of one operation share it.
    pub op_id: u64,
}

/// Self time and count of every span name.
pub type Ledger = BTreeMap<&'static str, (u64, u64)>;

/// Times calls, and records them as spans when tracing is on.
pub struct Tracer {
    origin: Instant,
    recording: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer; `recording` is false for the untraced run, which then only
    /// pays for the two clock reads it needs anyway.
    pub fn new(recording: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            recording,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` as the span `name` of operation `op_id`; returns its result
    /// and how long it took in nanoseconds.
    pub fn call<R>(&mut self, name: &'static str, op_id: u64, f: impl FnOnce() -> R) -> (R, u64) {
        if !self.recording {
            let start = Instant::now();
            let out = f();
            return (out, start.elapsed().as_nanos() as u64);
        }
        let idx = self.enter(name, op_id);
        let out = f();
        let ns = self.exit(idx);
        (out, ns)
    }

    /// Opens a span by hand, for a region that itself makes traced calls.
    /// Returns the handle [`Tracer::exit`] takes. Does nothing (and returns
    /// [`NO_PARENT`]) when not recording.
    pub fn enter(&mut self, name: &'static str, op_id: u64) -> u32 {
        if !self.recording {
            return NO_PARENT;
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            op_id,
        });
        self.stack.push(idx);
        idx
    }

    /// Closes the span `idx`; returns its duration in nanoseconds.
    pub fn exit(&mut self, idx: u32) -> u64 {
        if idx == NO_PARENT {
            return 0;
        }
        let end_ns = self.now_ns();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(idx), "spans close innermost first");
        let span = &mut self.spans[idx as usize];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span: its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Total self time and span count per name.
pub fn ledger(spans: &[Span]) -> Ledger {
    let mut out = Ledger::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(span.name).or_insert((0, 0));
        e.0 += own;
        e.1 += 1;
    }
    out
}

/// Renders spans as a JSON array, one object per span.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}{}\n",
            s.name,
            s.start_ns,
            s.end_ns,
            parent,
            s.op_id,
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // stage [0,100) ⊃ a [10,40) ⊃ a1 [15,25);  stage ⊃ b [50,90), sibling of a.
        let spans = vec![
            span("stage.x", 0, 100, NO_PARENT),
            span("hv.a", 10, 40, 0),
            span("runtime.a1", 15, 25, 1),
            span("hv.b", 50, 90, 0),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let l = ledger(&spans);
        assert_eq!(l["stage.x"], (30, 1));
        assert_eq!(l["hv.a"], (20, 1));
        assert_eq!(l["runtime.a1"], (10, 1));
        // Self times partition the root span.
        assert_eq!(l.values().map(|v| v.0).sum::<u64>(), 100);
    }

    #[test]
    fn recorder_links_children_to_the_open_span() {
        let mut t = Tracer::new(true);
        let stage = t.enter("stage.x", 0);
        let (v, _) = t.call("hv.a", 7, || 41 + 1);
        assert_eq!(v, 42);
        let outer = t.enter("hv.b", 8);
        t.call("runtime.c", 8, || ());
        t.exit(outer);
        t.exit(stage);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, NO_PARENT);
        assert_eq!((s[1].parent, s[1].op_id), (0, 7));
        assert_eq!(s[2].parent, 0);
        assert_eq!(s[3].parent, 2);
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans_json(s).contains("\"name\":\"runtime.c\""));
    }

    #[test]
    fn untraced_calls_are_timed_but_not_recorded() {
        let mut t = Tracer::new(false);
        let idx = t.enter("stage.x", 0);
        let (v, ns) = t.call("hv.a", 0, || {
            std::hint::black_box((0..1000u64).sum::<u64>())
        });
        assert_eq!(v, 499_500);
        assert!(ns > 0);
        assert_eq!(t.exit(idx), 0);
        assert!(t.spans().is_empty());
    }
}
