//! # synergy-telemetry
//!
//! Fleet-wide observability for the SYNERGY reproduction: a hand-rolled,
//! zero-dependency metrics registry, structured tracing spans, and a bounded
//! flight recorder. Instrumentation is threaded through every layer of the
//! stack — runtime, compiled executors, scheduler, hypervisor, cluster — and
//! surfaces through `Hypervisor::metrics()` / `Cluster::metrics()`, the
//! Prometheus-style / `jsonish` exporters, and the `fleetstat` CLI.
//!
//! ## The namespace split (determinism contract)
//!
//! Every metric lives in exactly one of two namespaces:
//!
//! * [`Namespace::Det`] — **deterministic** metrics derived purely from
//!   virtual execution (ticks, settle iterations, DRR grants, virtual-clock
//!   latencies, occupancy). These are *bit-identical* between
//!   `SchedPolicy::Sequential` and `SchedPolicy::Parallel { .. }` for the
//!   same fleet and rounds: [`Registry::det_text`] renders a canonical byte
//!   stream the differential tests compare verbatim.
//! * [`Namespace::NonDet`] — **non-deterministic** host-time samples
//!   (wall-clock nanoseconds per tenant, worker-pool execute/steal/park
//!   counts). Host timing never leaks into round stats, checkpoints, or the
//!   deterministic namespace.
//!
//! Nothing in this crate is ever serialized into the durable checkpoint wire
//! format — telemetry is observability state, not architectural state.
//!
//! ## Flight recorder
//!
//! [`FlightRecorder`] keeps the last N [`TraceEvent`]s (virtual tick + span
//! name + formatted detail, no host time) in a ring buffer. Each tenant's
//! runtime carries its own recorder, so under the parallel scheduler every
//! worker appends to buffers it exclusively owns during dispatch — no locks
//! on the hot path, and the dump stays deterministic. The hypervisor attaches
//! a tenant's last-N dump to quarantine entries and to `RoundStats` as a
//! postmortem, and records every `HvError` into its own recorder.
//!
//! ## The escape hatch
//!
//! `SYNERGY_TELEMETRY=off` (or `0`) disables all recording; [`set_enabled`]
//! overrides the environment programmatically (the `regress` gate uses it to
//! measure on-vs-off overhead in one process). Disabled telemetry yields
//! empty — but still deterministic — snapshots.
//!
//! ```
//! use synergy_telemetry::{Namespace, Registry, POW2_BUCKETS};
//!
//! let mut reg = Registry::default();
//! reg.counter_add(Namespace::Det, "runtime_ticks_total", &[("tenant", "adpcm")], 8);
//! reg.observe(Namespace::Det, "hv_round_latency_ticks", &[], POW2_BUCKETS, 8);
//! assert_eq!(reg.counter_value(Namespace::Det, "runtime_ticks_total", &[("tenant", "adpcm")]), 8);
//! let h = reg.histogram(Namespace::Det, "hv_round_latency_ticks", &[]).unwrap();
//! assert_eq!(h.quantile(0.50), 8);
//! ```

#![warn(missing_docs)]

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

// ---------------------------------------------------------------- enable gate

const GATE_ON: u8 = 1;
const GATE_OFF: u8 = 2;

/// 0 = uninitialised (consult the environment), 1 = on, 2 = off.
static GATE: AtomicU8 = AtomicU8::new(0);

/// Whether telemetry recording is enabled.
///
/// Resolved once from `SYNERGY_TELEMETRY` (`off` or `0` disables; anything
/// else — or unset — enables) unless [`set_enabled`] has overridden it.
pub fn enabled() -> bool {
    match GATE.load(Ordering::Relaxed) {
        GATE_ON => true,
        GATE_OFF => false,
        _ => {
            let on = !matches!(std::env::var("SYNERGY_TELEMETRY"),
                Ok(v) if v.eq_ignore_ascii_case("off") || v == "0");
            GATE.store(if on { GATE_ON } else { GATE_OFF }, Ordering::Relaxed);
            on
        }
    }
}

/// Programmatically enables or disables all telemetry recording, overriding
/// the `SYNERGY_TELEMETRY` environment variable.
///
/// The `regress` overhead gate uses this to compare instrumented and
/// uninstrumented runs within a single process.
pub fn set_enabled(on: bool) {
    GATE.store(if on { GATE_ON } else { GATE_OFF }, Ordering::Relaxed);
}

// ------------------------------------------------------------------ registry

/// Which side of the determinism contract a metric lives on (see the
/// [crate docs](self) for the full contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Namespace {
    /// Derived purely from virtual execution; bit-identical between
    /// sequential and parallel scheduling.
    Det,
    /// Host-time samples (wall-clock costs, worker-pool behaviour); excluded
    /// from the determinism contract and from all differential comparisons.
    NonDet,
}

/// A metric identity: a static name plus ordered `(key, value)` labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Static metric name, e.g. `"runtime_ticks_total"`.
    pub name: &'static str,
    /// Label pairs in recording order, e.g. `[("tenant", "adpcm")]`. Label
    /// values must not contain `"`, `,`, or newlines (they pass unescaped
    /// into both exporters).
    pub labels: Vec<(&'static str, String)>,
}

fn key(name: &'static str, labels: &[(&'static str, &str)]) -> Key {
    Key {
        name,
        labels: labels.iter().map(|(k, v)| (*k, (*v).to_string())).collect(),
    }
}

/// A fixed-bucket histogram over `u64` observations.
///
/// Bucket bounds are a static, ascending slice shared by every instance of
/// the metric; observation `v` lands in the first bucket whose bound is
/// `>= v`, or in the implicit overflow bucket past the last bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: &'static [u64],
    /// `bounds.len() + 1` entries; the last is the overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    /// An empty histogram over the given ascending bucket bounds.
    pub fn new(bounds: &'static [u64]) -> Histogram {
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The bucket bounds this histogram was built over.
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// The upper bound of the smallest bucket that covers quantile `q`
    /// (e.g. `0.5` for p50, `0.99` for p99). Returns 0 for an empty
    /// histogram and `u64::MAX` when the quantile falls in the overflow
    /// bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return self.bounds.get(i).copied().unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }

    fn merge(&mut self, other: &Histogram) {
        if self.bounds == other.bounds {
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += b;
            }
            self.count += other.count;
            self.sum = self.sum.saturating_add(other.sum);
        } else {
            debug_assert!(false, "merging histograms with different bounds");
            *self = other.clone();
        }
    }
}

/// Power-of-two bucket bounds (1 … 2²⁴), the default scale for virtual-tick
/// and iteration-count histograms.
pub const POW2_BUCKETS: &[u64] = &[
    1,
    2,
    4,
    8,
    16,
    32,
    64,
    128,
    256,
    512,
    1 << 10,
    1 << 11,
    1 << 12,
    1 << 13,
    1 << 14,
    1 << 15,
    1 << 16,
    1 << 17,
    1 << 18,
    1 << 19,
    1 << 20,
    1 << 22,
    1 << 24,
];

/// One recorded metric value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonically increasing count.
    Counter(u64),
    /// Last-write-wins instantaneous value.
    Gauge(i64),
    /// Fixed-bucket distribution.
    Histogram(Histogram),
}

/// A two-namespace metrics registry (see [`Namespace`]).
///
/// All mutating calls are no-ops while telemetry is disabled ([`enabled`]),
/// so a disabled fleet produces empty — but still deterministic — snapshots.
/// Merging and reading are never gated.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    det: BTreeMap<Key, MetricValue>,
    nondet: BTreeMap<Key, MetricValue>,
}

impl Registry {
    fn map(&self, ns: Namespace) -> &BTreeMap<Key, MetricValue> {
        match ns {
            Namespace::Det => &self.det,
            Namespace::NonDet => &self.nondet,
        }
    }

    fn map_mut(&mut self, ns: Namespace) -> &mut BTreeMap<Key, MetricValue> {
        match ns {
            Namespace::Det => &mut self.det,
            Namespace::NonDet => &mut self.nondet,
        }
    }

    /// Adds `delta` to a counter, creating it at zero first.
    pub fn counter_add(
        &mut self,
        ns: Namespace,
        name: &'static str,
        labels: &[(&'static str, &str)],
        delta: u64,
    ) {
        if !enabled() {
            return;
        }
        match self
            .map_mut(ns)
            .entry(key(name, labels))
            .or_insert(MetricValue::Counter(0))
        {
            MetricValue::Counter(c) => *c += delta,
            _ => debug_assert!(false, "{} is not a counter", name),
        }
    }

    /// Sets a gauge to `value` (last write wins).
    pub fn gauge_set(
        &mut self,
        ns: Namespace,
        name: &'static str,
        labels: &[(&'static str, &str)],
        value: i64,
    ) {
        if !enabled() {
            return;
        }
        self.map_mut(ns)
            .insert(key(name, labels), MetricValue::Gauge(value));
    }

    /// Records one observation into a fixed-bucket histogram, creating it
    /// over `bounds` first.
    pub fn observe(
        &mut self,
        ns: Namespace,
        name: &'static str,
        labels: &[(&'static str, &str)],
        bounds: &'static [u64],
        value: u64,
    ) {
        if !enabled() {
            return;
        }
        match self
            .map_mut(ns)
            .entry(key(name, labels))
            .or_insert_with(|| MetricValue::Histogram(Histogram::new(bounds)))
        {
            MetricValue::Histogram(h) => h.observe(value),
            _ => debug_assert!(false, "{} is not a histogram", name),
        }
    }

    /// Reads a counter (0 if absent).
    pub fn counter_value(
        &self,
        ns: Namespace,
        name: &'static str,
        labels: &[(&'static str, &str)],
    ) -> u64 {
        match self.map(ns).get(&key(name, labels)) {
            Some(MetricValue::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Reads a gauge.
    pub fn gauge_value(
        &self,
        ns: Namespace,
        name: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Option<i64> {
        match self.map(ns).get(&key(name, labels)) {
            Some(MetricValue::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Reads a histogram.
    pub fn histogram(
        &self,
        ns: Namespace,
        name: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Option<&Histogram> {
        match self.map(ns).get(&key(name, labels)) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Iterates one namespace in canonical (sorted-key) order.
    pub fn iter(&self, ns: Namespace) -> impl Iterator<Item = (&Key, &MetricValue)> {
        self.map(ns).iter()
    }

    /// Whether both namespaces are empty.
    pub fn is_empty(&self) -> bool {
        self.det.is_empty() && self.nondet.is_empty()
    }

    /// Folds another registry into this one: counters add, gauges take the
    /// other's value, histograms with identical bounds add bucket-wise.
    /// Both namespaces merge; never gated on [`enabled`].
    pub fn merge(&mut self, other: &Registry) {
        for ns in [Namespace::Det, Namespace::NonDet] {
            for (k, v) in other.map(ns) {
                merge_value(self.map_mut(ns), k.clone(), v);
            }
        }
    }

    /// Like [`Registry::merge`], appending an extra label (e.g.
    /// `("tenant", "adpcm")` or `("node", "0")`) to every key from `other`.
    pub fn merge_labeled(&mut self, other: &Registry, label_key: &'static str, label_value: &str) {
        for ns in [Namespace::Det, Namespace::NonDet] {
            for (k, v) in other.map(ns) {
                let mut k = k.clone();
                k.labels.push((label_key, label_value.to_string()));
                merge_value(self.map_mut(ns), k, v);
            }
        }
    }

    /// Canonical byte-stable rendering of the **deterministic namespace
    /// only** — the stream the sequential-vs-parallel differential tests
    /// compare verbatim.
    pub fn det_text(&self) -> String {
        let mut out = String::new();
        render_prometheus(&self.det, &mut out);
        out
    }

    /// Prometheus-style text exposition of both namespaces, the
    /// non-deterministic one under an explicit banner.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str("# namespace: deterministic\n");
        render_prometheus(&self.det, &mut out);
        out.push_str(
            "# namespace: non-deterministic (host time; excluded from the determinism contract)\n",
        );
        render_prometheus(&self.nondet, &mut out);
        out
    }

    /// `jsonish` snapshot: one flat `"metrics"` array readable by the
    /// brace-matching helpers in `synergy-bench` (no nesting, no escapes).
    pub fn to_jsonish(&self) -> String {
        let mut out = String::from("{\n  \"metrics\": [\n");
        let mut first = true;
        for (ns, ns_name) in [(Namespace::Det, "det"), (Namespace::NonDet, "nondet")] {
            for (k, v) in self.map(ns) {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let labels = label_csv(&k.labels);
                match v {
                    MetricValue::Counter(c) => {
                        let _ = write!(
                            out,
                            "    {{\"ns\": \"{}\", \"kind\": \"counter\", \"name\": \"{}\", \"labels\": \"{}\", \"value\": {}}}",
                            ns_name, k.name, labels, c
                        );
                    }
                    MetricValue::Gauge(g) => {
                        let _ = write!(
                            out,
                            "    {{\"ns\": \"{}\", \"kind\": \"gauge\", \"name\": \"{}\", \"labels\": \"{}\", \"value\": {}}}",
                            ns_name, k.name, labels, g
                        );
                    }
                    MetricValue::Histogram(h) => {
                        let _ = write!(
                            out,
                            "    {{\"ns\": \"{}\", \"kind\": \"histogram\", \"name\": \"{}\", \"labels\": \"{}\", \"count\": {}, \"sum\": {}, \"p50\": {}, \"p99\": {}}}",
                            ns_name, k.name, labels, h.count(), h.sum(), h.quantile(0.50), h.quantile(0.99)
                        );
                    }
                }
            }
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn merge_value(map: &mut BTreeMap<Key, MetricValue>, k: Key, v: &MetricValue) {
    match map.entry(k) {
        std::collections::btree_map::Entry::Vacant(e) => {
            e.insert(v.clone());
        }
        std::collections::btree_map::Entry::Occupied(mut e) => match (e.get_mut(), v) {
            (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
            (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = *b,
            (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
            _ => debug_assert!(false, "merging metrics of different kinds"),
        },
    }
}

fn label_csv(labels: &[(&'static str, String)]) -> String {
    let mut s = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{}={}", k, v);
    }
    s
}

fn prom_labels(labels: &[(&'static str, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut s = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            s.push(',');
        }
        first = false;
        let _ = write!(s, "{}=\"{}\"", k, v);
    }
    if let Some((k, v)) = extra {
        if !first {
            s.push(',');
        }
        let _ = write!(s, "{}=\"{}\"", k, v);
    }
    s.push('}');
    s
}

fn render_prometheus(map: &BTreeMap<Key, MetricValue>, out: &mut String) {
    let mut last_name = "";
    for (k, v) in map {
        if k.name != last_name {
            let kind = match v {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            let _ = writeln!(out, "# TYPE {} {}", k.name, kind);
            last_name = k.name;
        }
        match v {
            MetricValue::Counter(c) => {
                let _ = writeln!(out, "{}{} {}", k.name, prom_labels(&k.labels, None), c);
            }
            MetricValue::Gauge(g) => {
                let _ = writeln!(out, "{}{} {}", k.name, prom_labels(&k.labels, None), g);
            }
            MetricValue::Histogram(h) => {
                let mut cum = 0u64;
                for (i, &c) in h.counts.iter().enumerate() {
                    cum += c;
                    let le = h
                        .bounds
                        .get(i)
                        .map(|b| b.to_string())
                        .unwrap_or_else(|| "+Inf".to_string());
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        k.name,
                        prom_labels(&k.labels, Some(("le", &le))),
                        cum
                    );
                }
                let _ = writeln!(
                    out,
                    "{}_sum{} {}",
                    k.name,
                    prom_labels(&k.labels, None),
                    h.sum
                );
                let _ = writeln!(
                    out,
                    "{}_count{} {}",
                    k.name,
                    prom_labels(&k.labels, None),
                    h.count
                );
            }
        }
    }
}

// ------------------------------------------------------------ flight recorder

/// Default ring capacity of a [`FlightRecorder`].
pub const DEFAULT_FLIGHT_EVENTS: usize = 64;

/// One structured trace event. Content is derived purely from virtual
/// execution (monotone sequence number, virtual tick, span name, formatted
/// detail) — never host time or thread identity — so recorder dumps obey the
/// same determinism contract as [`Namespace::Det`] metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotone per-recorder sequence number (survives ring eviction).
    pub seq: u64,
    /// Virtual tick at which the event was recorded.
    pub tick: u64,
    /// Static span name, e.g. `"run_round"`.
    pub span: &'static str,
    /// Formatted `key=value` detail, e.g. `"tenant=adpcm ticks=8"`.
    pub detail: String,
}

/// A bounded ring buffer of the last N [`TraceEvent`]s.
///
/// Each tenant runtime owns one recorder, which travels with the runtime to
/// whichever scheduler worker executes it — per-worker exclusive ownership
/// during dispatch, so recording takes no locks. The hypervisor keeps its own
/// recorder for fleet-level spans and `HvError`s.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    cap: usize,
    next_seq: u64,
    ring: VecDeque<TraceEvent>,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new(DEFAULT_FLIGHT_EVENTS)
    }
}

impl FlightRecorder {
    /// A recorder holding at most `cap` events (oldest evicted first).
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder {
            cap: cap.max(1),
            next_seq: 0,
            ring: VecDeque::new(),
        }
    }

    /// Appends an event, evicting the oldest at capacity. No-op while
    /// telemetry is disabled.
    pub fn record(&mut self, tick: u64, span: &'static str, detail: String) {
        if !enabled() {
            return;
        }
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back(TraceEvent {
            seq: self.next_seq,
            tick,
            span,
            detail,
        });
        self.next_seq += 1;
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Ring capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Drops all retained events (the sequence counter keeps running).
    pub fn clear(&mut self) {
        self.ring.clear();
    }

    /// Human-readable last-N dump, one `#seq @tick span: detail` line per
    /// event — the postmortem attached to quarantine entries and round stats.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for e in &self.ring {
            let _ = write!(out, "#{} @{} {}", e.seq, e.tick, e.span);
            if !e.detail.is_empty() {
                let _ = write!(out, ": {}", e.detail);
            }
            out.push('\n');
        }
        out
    }
}

/// Records a structured tracing span event into a [`FlightRecorder`]:
///
/// ```
/// use synergy_telemetry::{span, FlightRecorder};
/// let mut rec = FlightRecorder::default();
/// let (tick, tenant, ticks) = (7u64, "adpcm", 8u64);
/// span!(rec, tick, "run_round", tenant = tenant, ticks = ticks);
/// ```
///
/// Detail values are formatted with `Display` only when telemetry is
/// enabled; a disabled gate skips all formatting and allocation.
#[macro_export]
macro_rules! span {
    ($rec:expr, $tick:expr, $name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::enabled() {
            #[allow(unused_mut)]
            let mut __detail = String::new();
            $(
                {
                    use std::fmt::Write as _;
                    if !__detail.is_empty() {
                        __detail.push(' ');
                    }
                    let _ = write!(__detail, concat!(stringify!($k), "={}"), $v);
                }
            )*
            $rec.record($tick, $name, __detail);
        }
    };
}

// ----------------------------------------------------------- telemetry bundle

/// A registry plus a flight recorder — the per-tenant (and per-hypervisor)
/// telemetry bundle.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Metrics recorded by this component.
    pub registry: Registry,
    /// Trace-event ring for this component.
    pub recorder: FlightRecorder,
}

// ------------------------------------------------------------ global registry

static GLOBAL: OnceLock<Mutex<Registry>> = OnceLock::new();

/// Runs `f` against the process-global registry.
///
/// The global registry holds the few metrics with no owning component — e.g.
/// checkpoint CRC failures observed while *failing* to rebuild a runtime. It
/// is exported by `fleetstat`, never merged into `Hypervisor::metrics()`
/// (which would break per-node determinism comparisons).
pub fn with_global<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    let mut guard = GLOBAL
        .get_or_init(|| Mutex::new(Registry::default()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    f(&mut guard)
}

/// A clone of the process-global registry (see [`with_global`]).
pub fn global_snapshot() -> Registry {
    with_global(|r| r.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The enable gate is process-global; tests that depend on its state
    /// serialize through this lock so the toggling test cannot race the
    /// recording tests.
    static TEST_GATE: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        let guard = TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        guard
    }

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let _g = locked();
        let mut r = Registry::default();
        r.counter_add(Namespace::Det, "ticks_total", &[("tenant", "a")], 3);
        r.counter_add(Namespace::Det, "ticks_total", &[("tenant", "a")], 4);
        r.gauge_set(Namespace::NonDet, "host_ns", &[], 99);
        for v in [1, 3, 9, 1000] {
            r.observe(Namespace::Det, "lat", &[], POW2_BUCKETS, v);
        }
        assert_eq!(
            r.counter_value(Namespace::Det, "ticks_total", &[("tenant", "a")]),
            7
        );
        assert_eq!(r.gauge_value(Namespace::NonDet, "host_ns", &[]), Some(99));
        let h = r.histogram(Namespace::Det, "lat", &[]).unwrap();
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1013);
        assert_eq!(h.quantile(0.5), 4);
        assert_eq!(h.quantile(1.0), 1024);
    }

    #[test]
    fn quantiles_cover_overflow_and_empty() {
        let _g = locked();
        let mut h = Histogram::new(&[10, 20]);
        assert_eq!(h.quantile(0.99), 0);
        h.observe(5);
        h.observe(15);
        h.observe(10_000);
        assert_eq!(h.quantile(0.33), 10);
        assert_eq!(h.quantile(0.50), 20);
        assert_eq!(h.quantile(0.99), u64::MAX);
    }

    #[test]
    fn merge_labeled_adds_and_tags() {
        let _g = locked();
        let mut a = Registry::default();
        a.counter_add(Namespace::Det, "n", &[], 1);
        let mut tenant = Registry::default();
        tenant.counter_add(Namespace::Det, "n", &[], 5);
        tenant.observe(Namespace::Det, "h", &[], POW2_BUCKETS, 2);
        a.merge_labeled(&tenant, "tenant", "x");
        a.merge_labeled(&tenant, "tenant", "x");
        assert_eq!(a.counter_value(Namespace::Det, "n", &[]), 1);
        assert_eq!(a.counter_value(Namespace::Det, "n", &[("tenant", "x")]), 10);
        assert_eq!(
            a.histogram(Namespace::Det, "h", &[("tenant", "x")])
                .unwrap()
                .count(),
            2
        );
    }

    #[test]
    fn renderings_are_stable_and_sorted() {
        let _g = locked();
        let mut r = Registry::default();
        r.counter_add(Namespace::Det, "b_total", &[], 2);
        r.counter_add(Namespace::Det, "a_total", &[("t", "z")], 1);
        r.counter_add(Namespace::Det, "a_total", &[("t", "m")], 1);
        r.gauge_set(Namespace::NonDet, "host", &[], -4);
        let text = r.to_prometheus();
        let a_m = text.find("a_total{t=\"m\"} 1").unwrap();
        let a_z = text.find("a_total{t=\"z\"} 1").unwrap();
        let b = text.find("b_total 2").unwrap();
        assert!(a_m < a_z && a_z < b, "canonical order is sorted keys");
        assert!(text.contains("# namespace: non-deterministic"));
        assert!(text.contains("host -4"));
        assert_eq!(
            r.det_text(),
            r.clone().det_text(),
            "det rendering is a pure function"
        );
        assert!(
            !r.det_text().contains("host"),
            "nondet stays out of det_text"
        );
        let json = r.to_jsonish();
        assert!(json.contains("\"name\": \"a_total\", \"labels\": \"t=m\", \"value\": 1"));
    }

    #[test]
    fn flight_recorder_is_a_ring_with_monotone_seqs() {
        let _g = locked();
        let mut rec = FlightRecorder::new(3);
        for t in 0..5u64 {
            span!(rec, t, "tick", n = t);
        }
        assert_eq!(rec.len(), 3);
        let seqs: Vec<u64> = rec.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert!(rec.dump().contains("#4 @4 tick: n=4"));
        rec.clear();
        assert!(rec.is_empty());
        rec.record(9, "late", String::new());
        assert_eq!(rec.events().next().unwrap().seq, 5, "seq survives clear");
    }

    #[test]
    fn disabled_gate_suppresses_recording() {
        let _g = TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        let mut r = Registry::default();
        r.counter_add(Namespace::Det, "n", &[], 1);
        r.gauge_set(Namespace::Det, "g", &[], 1);
        r.observe(Namespace::Det, "h", &[], POW2_BUCKETS, 1);
        let mut rec = FlightRecorder::default();
        span!(rec, 0, "nope");
        assert!(r.is_empty() && rec.is_empty());
        assert_eq!(
            r.det_text(),
            "",
            "disabled snapshots are empty but well-formed"
        );
        set_enabled(true);
        r.counter_add(Namespace::Det, "n", &[], 1);
        assert_eq!(r.counter_value(Namespace::Det, "n", &[]), 1);
    }

    #[test]
    fn global_registry_accumulates() {
        let _g = locked();
        let before = global_snapshot().counter_value(Namespace::Det, "test_global_total", &[]);
        with_global(|r| r.counter_add(Namespace::Det, "test_global_total", &[], 2));
        assert_eq!(
            global_snapshot().counter_value(Namespace::Det, "test_global_total", &[]),
            before + 2
        );
    }
}
