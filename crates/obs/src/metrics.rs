//! # Metrics registry and cycle-stamped event log
//!
//! The thesis's evaluation is entirely about *observing* cycle-level
//! behaviour (wait-states, handshake latencies, bus utilization). This
//! module is the one registry every measured part of the workspace
//! records into — simulated components, the generator CLI and the serve
//! supervisor:
//!
//! * [`MetricsRegistry`] — named monotonic **counters**, last-value
//!   **gauges**, and log2-bucketed latency **histograms**, registered
//!   lazily by name on first touch;
//! * [`EventLog`] — a bounded, cycle-stamped stream of structured
//!   [`Event`]s (`SignalEdge`, `ProtocolEvent`, `Violation`) that
//!   simulation components append to through `splice_sim::TickCtx`.
//!
//! The registry is **disabled by default** and every recording call
//! early-returns on a single boolean in that state, so instrumented hot
//! paths cost a predictable branch when observability is off. Enable it
//! programmatically (`sim.metrics_mut().enable()`) or for a whole process
//! via the `SPLICE_TRACE` environment variable:
//!
//! * `SPLICE_TRACE=1` — metrics + protocol/violation events;
//! * `SPLICE_TRACE=2` — additionally `SignalEdge` events (verbose; meant
//!   for short diagnostic runs).
//!
//! Snapshots serialize to JSON with [`MetricsRegistry::to_json`] — no
//! external serialization crate involved, so the schema documented in
//! `docs/observability.md` is exactly what this file emits.

use crate::json::escape;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Number of log2 buckets in a [`Histogram`]: bucket `i` holds values
/// whose bit length is `i` (`0`, `1`, `2..=3`, `4..=7`, …); everything of
/// 16 bits or more lands in the last bucket.
pub const HISTOGRAM_BUCKETS: usize = 17;

/// A log2-bucketed distribution of `u64` samples (latencies, burst
/// lengths). Tracks exact count/sum/min/max alongside the buckets, so
/// means are exact and only the shape is quantized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: [0; HISTOGRAM_BUCKETS] }
    }
}

impl Histogram {
    /// Bucket index for a sample: its bit length, saturated to the last
    /// bucket.
    pub fn bucket_of(value: u64) -> usize {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Lower bound (inclusive) of bucket `i`.
    pub fn bucket_floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Record one sample.
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Approximate quantile (`q` in `[0, 1]`) from the log2 buckets: walks
    /// the cumulative counts to the bucket holding the `q`-th sample and
    /// returns that bucket's floor, clamped into `[min, max]` so the tails
    /// stay exact. Resolution is therefore one power of two — good enough
    /// for p50/p99 latency reporting, which is what the serve daemon's
    /// status document uses it for. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        if rank >= self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_floor(i).clamp(self.min(), self.max);
            }
        }
        self.max
    }

    /// Render as `floor:count` pairs for non-empty buckets, e.g.
    /// `"2:5 4:12 8:3"`.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                if !out.is_empty() {
                    out.push(' ');
                }
                let _ = write!(out, "{}:{}", Self::bucket_floor(i), n);
            }
        }
        if out.is_empty() {
            out.push('-');
        }
        out
    }
}

/// One cycle-stamped observation in the [`EventLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A signal changed value across a clock edge (trace level 2).
    SignalEdge { cycle: u64, signal: String, from: u64, to: u64 },
    /// A component-defined protocol milestone (request issued, ack seen,
    /// DMA beat, grant, …).
    ProtocolEvent { cycle: u64, source: String, kind: String, detail: String },
    /// A protocol-checker violation, with the cycle and signal context.
    Violation { cycle: u64, source: String, axiom: String, detail: String },
}

impl Event {
    /// The cycle this event was stamped with.
    pub fn cycle(&self) -> u64 {
        match self {
            Event::SignalEdge { cycle, .. }
            | Event::ProtocolEvent { cycle, .. }
            | Event::Violation { cycle, .. } => *cycle,
        }
    }

    /// A short tag naming the variant.
    pub fn kind_tag(&self) -> &'static str {
        match self {
            Event::SignalEdge { .. } => "signal_edge",
            Event::ProtocolEvent { .. } => "protocol",
            Event::Violation { .. } => "violation",
        }
    }
}

/// Default cap on retained events; appends beyond it are counted in
/// [`EventLog::dropped`] instead of growing memory without bound.
pub const DEFAULT_EVENT_CAP: usize = 65_536;

/// A bounded, append-only log of [`Event`]s.
#[derive(Debug, Clone)]
pub struct EventLog {
    events: Vec<Event>,
    cap: usize,
    dropped: u64,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog { events: Vec::new(), cap: DEFAULT_EVENT_CAP, dropped: 0 }
    }
}

impl EventLog {
    /// Append an event, dropping (and counting) it if the log is full.
    pub fn push(&mut self, ev: Event) {
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Retained events, in append order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events discarded because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Change the retention cap (existing overflow counts are kept).
    pub fn set_cap(&mut self, cap: usize) {
        self.cap = cap;
    }

    /// Retained violations only.
    pub fn violations(&self) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(|e| matches!(e, Event::Violation { .. }))
    }
}

/// Named counters, gauges, and histograms plus the event log — the
/// simulation's whole observability surface.
///
/// All recording methods are no-ops while `enabled` is false; names are
/// registered lazily on first touch so instrumentation sites never
/// pre-register.
#[derive(Debug, Default, Clone)]
pub struct MetricsRegistry {
    enabled: bool,
    trace_level: u8,
    counters: Vec<(String, u64)>,
    counter_by_name: HashMap<String, usize>,
    gauges: Vec<(String, u64)>,
    gauge_by_name: HashMap<String, usize>,
    histograms: Vec<(String, Histogram)>,
    histogram_by_name: HashMap<String, usize>,
    events: EventLog,
}

impl MetricsRegistry {
    /// A disabled registry (recording is free until [`enable`](Self::enable)).
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry configured from the `SPLICE_TRACE` environment variable:
    /// unset/`0` → disabled, `1` → metrics + protocol events, `2`+ → also
    /// signal-edge tracing.
    pub fn from_env() -> Self {
        let level = std::env::var("SPLICE_TRACE")
            .ok()
            .and_then(|v| v.trim().parse::<u8>().ok())
            .unwrap_or(0);
        let mut reg = Self::new();
        if level > 0 {
            reg.enabled = true;
            reg.trace_level = level;
        }
        reg
    }

    /// Turn recording on at trace level 1 (metrics + protocol events).
    pub fn enable(&mut self) {
        self.enabled = true;
        if self.trace_level == 0 {
            self.trace_level = 1;
        }
    }

    /// Turn recording off (data already collected is kept).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Whether recording is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The active trace level (0 disabled, 1 events, 2 verbose).
    #[inline]
    pub fn trace_level(&self) -> u8 {
        if self.enabled {
            self.trace_level
        } else {
            0
        }
    }

    /// Set the trace level explicitly (2 enables signal-edge events).
    pub fn set_trace_level(&mut self, level: u8) {
        self.trace_level = level;
        self.enabled = level > 0;
    }

    /// Add `delta` to the named counter.
    #[inline]
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        if !self.enabled {
            return;
        }
        let i = match self.counter_by_name.get(name) {
            Some(&i) => i,
            None => {
                let i = self.counters.len();
                self.counters.push((name.to_owned(), 0));
                self.counter_by_name.insert(name.to_owned(), i);
                i
            }
        };
        self.counters[i].1 += delta;
    }

    /// Set the named gauge to `value`.
    #[inline]
    pub fn gauge_set(&mut self, name: &str, value: u64) {
        if !self.enabled {
            return;
        }
        let i = match self.gauge_by_name.get(name) {
            Some(&i) => i,
            None => {
                let i = self.gauges.len();
                self.gauges.push((name.to_owned(), 0));
                self.gauge_by_name.insert(name.to_owned(), i);
                i
            }
        };
        self.gauges[i].1 = value;
    }

    /// Record `value` into the named histogram.
    #[inline]
    pub fn observe(&mut self, name: &str, value: u64) {
        if !self.enabled {
            return;
        }
        let i = match self.histogram_by_name.get(name) {
            Some(&i) => i,
            None => {
                let i = self.histograms.len();
                self.histograms.push((name.to_owned(), Histogram::default()));
                self.histogram_by_name.insert(name.to_owned(), i);
                i
            }
        };
        self.histograms[i].1.observe(value);
    }

    /// Append an event (respects the enabled flag but not the level — the
    /// caller decides what level a variant needs).
    #[inline]
    pub fn record_event(&mut self, ev: Event) {
        if !self.enabled {
            return;
        }
        self.events.push(ev);
    }

    /// Value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_by_name.get(name).map_or(0, |&i| self.counters[i].1)
    }

    /// Value of a gauge, if ever set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauge_by_name.get(name).map(|&i| self.gauges[i].1)
    }

    /// The named histogram, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histogram_by_name.get(name).map(|&i| &self.histograms[i].1)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> Vec<(&str, u64)> {
        let mut v: Vec<(&str, u64)> = self.counters.iter().map(|(n, c)| (n.as_str(), *c)).collect();
        v.sort_unstable_by_key(|&(n, _)| n);
        v
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> Vec<(&str, u64)> {
        let mut v: Vec<(&str, u64)> = self.gauges.iter().map(|(n, g)| (n.as_str(), *g)).collect();
        v.sort_unstable_by_key(|&(n, _)| n);
        v
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> Vec<(&str, &Histogram)> {
        let mut v: Vec<(&str, &Histogram)> =
            self.histograms.iter().map(|(n, h)| (n.as_str(), h)).collect();
        v.sort_unstable_by_key(|&(n, _)| n);
        v
    }

    /// The event log.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Mutable event log access (for caps or manual appends).
    pub fn events_mut(&mut self) -> &mut EventLog {
        &mut self.events
    }

    /// Drop all recorded data, keeping the enabled state.
    pub fn reset(&mut self) {
        self.counters.clear();
        self.counter_by_name.clear();
        self.gauges.clear();
        self.gauge_by_name.clear();
        self.histograms.clear();
        self.histogram_by_name.clear();
        self.events = EventLog { cap: self.events.cap, ..EventLog::default() };
    }

    /// Serialize the full registry (sorted, deterministic) as one JSON
    /// object. Schema: see `docs/observability.md`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"enabled\":{},\"trace_level\":{}", self.enabled, self.trace_level);

        out.push_str(",\"counters\":{");
        for (i, (name, value)) in self.counters().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape(name), value);
        }
        out.push('}');

        out.push_str(",\"gauges\":{");
        for (i, (name, value)) in self.gauges().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape(name), value);
        }
        out.push('}');

        out.push_str(",\"histograms\":{");
        for (i, (name, h)) in self.histograms().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.3},\"buckets\":[",
                escape(name),
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.mean()
            );
            for (j, b) in h.buckets().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("]}");
        }
        out.push('}');

        let _ = write!(
            out,
            ",\"events\":{{\"retained\":{},\"dropped\":{},\"entries\":[",
            self.events.events().len(),
            self.events.dropped()
        );
        for (i, ev) in self.events.events().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            event_json(&mut out, ev);
        }
        out.push_str("]}}");
        out
    }
}

fn event_json(out: &mut String, ev: &Event) {
    let _ = write!(out, "{{\"kind\":\"{}\",\"cycle\":{}", ev.kind_tag(), ev.cycle());
    match ev {
        Event::SignalEdge { signal, from, to, .. } => {
            let _ = write!(out, ",\"signal\":\"{}\",\"from\":{from},\"to\":{to}", escape(signal));
        }
        Event::ProtocolEvent { source, kind, detail, .. } => {
            let _ = write!(
                out,
                ",\"source\":\"{}\",\"event\":\"{}\",\"detail\":\"{}\"",
                escape(source),
                escape(kind),
                escape(detail)
            );
        }
        Event::Violation { source, axiom, detail, .. } => {
            let _ = write!(
                out,
                ",\"source\":\"{}\",\"axiom\":\"{}\",\"detail\":\"{}\"",
                escape(source),
                escape(axiom),
                escape(detail)
            );
        }
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_walk_the_buckets() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0);
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 1000] {
            h.observe(v);
        }
        // Nine samples at 1, one at 1000: the median sits in the `1`
        // bucket and the p99 lands in the tail bucket, clamped to max.
        assert_eq!(h.quantile(0.5), 1);
        assert_eq!(h.quantile(0.99), 1000);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut m = MetricsRegistry::new();
        m.counter_add("c", 5);
        m.gauge_set("g", 7);
        m.observe("h", 9);
        m.record_event(Event::SignalEdge { cycle: 0, signal: "s".into(), from: 0, to: 1 });
        assert_eq!(m.counter("c"), 0);
        assert_eq!(m.gauge("g"), None);
        assert!(m.histogram("h").is_none());
        assert!(m.events().events().is_empty());
    }

    #[test]
    fn counter_and_gauge_math() {
        let mut m = MetricsRegistry::new();
        m.enable();
        m.counter_add("bus.txns", 1);
        m.counter_add("bus.txns", 2);
        m.counter_add("other", 10);
        m.gauge_set("depth", 3);
        m.gauge_set("depth", 9);
        assert_eq!(m.counter("bus.txns"), 3);
        assert_eq!(m.counter("other"), 10);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.gauge("depth"), Some(9));
    }

    #[test]
    fn histogram_buckets_and_moments() {
        let mut m = MetricsRegistry::new();
        m.enable();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1000] {
            m.observe("lat", v);
        }
        let h = m.histogram("lat").unwrap();
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1025);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.buckets()[0], 1); // 0
        assert_eq!(h.buckets()[1], 1); // 1
        assert_eq!(h.buckets()[2], 2); // 2,3
        assert_eq!(h.buckets()[3], 2); // 4..=7
        assert_eq!(h.buckets()[4], 1); // 8
        assert_eq!(h.buckets()[10], 1); // 512..=1023
        assert!((h.mean() - 1025.0 / 8.0).abs() < 1e-9);
        assert_eq!(h.summary(), "0:1 1:1 2:2 4:2 8:1 512:1");
    }

    #[test]
    fn bucket_of_saturates() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(Histogram::bucket_floor(0), 0);
        assert_eq!(Histogram::bucket_floor(3), 4);
    }

    #[test]
    fn event_log_caps_and_counts_drops() {
        let mut m = MetricsRegistry::new();
        m.enable();
        m.events_mut().set_cap(3);
        for c in 0..5 {
            m.record_event(Event::SignalEdge { cycle: c, signal: "s".into(), from: 0, to: 1 });
        }
        assert_eq!(m.events().events().len(), 3);
        assert_eq!(m.events().dropped(), 2);
    }

    #[test]
    fn json_snapshot_shape() {
        let mut m = MetricsRegistry::new();
        m.enable();
        m.counter_add("b.txns", 2);
        m.gauge_set("g\"x", 1);
        m.observe("lat", 4);
        m.record_event(Event::Violation {
            cycle: 7,
            source: "checker".into(),
            axiom: "WriteStability".into(),
            detail: "DATA_IN changed".into(),
        });
        m.record_event(Event::ProtocolEvent {
            cycle: 9,
            source: "plb".into(),
            kind: "rd_ack".into(),
            detail: "beat 1".into(),
        });
        let j = m.to_json();
        assert!(j.contains("\"counters\":{\"b.txns\":2}"), "{j}");
        assert!(j.contains("\"g\\\"x\":1"), "{j}");
        assert!(j.contains("\"lat\":{\"count\":1,\"sum\":4,\"min\":4,\"max\":4"), "{j}");
        assert!(j.contains("\"kind\":\"violation\",\"cycle\":7"), "{j}");
        assert!(j.contains("\"axiom\":\"WriteStability\""), "{j}");
        assert!(j.contains("\"kind\":\"protocol\",\"cycle\":9"), "{j}");
        assert!(j.contains("\"retained\":2,\"dropped\":0"), "{j}");
        // Must parse as one object at minimum structurally: balanced braces.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn reset_clears_data_but_keeps_enabled() {
        let mut m = MetricsRegistry::new();
        m.enable();
        m.counter_add("c", 1);
        m.observe("h", 2);
        m.reset();
        assert!(m.is_enabled());
        assert_eq!(m.counter("c"), 0);
        assert!(m.histogram("h").is_none());
    }
}
