//! Spans recorded from the benchmark's own code around each call into
//! a layer's public functions.
//!
//! A span has a name, a start, an end and the span that was open when
//! it started (its parent). Spans are aggregated per name as they
//! close — count, total time, self time and, for names asked for,
//! every duration — and kept in memory until the run reports. A
//! span's self time is its duration minus the part of it that its
//! child spans cover.
//!
//! A disabled tracer records nothing and reads no clock, so the same
//! code serves the untraced pass.

use crate::stats::Samples;
use std::collections::BTreeMap;
use std::time::Instant;

/// Aggregate of every closed span of one name.
#[derive(Clone, Debug, Default)]
pub struct SpanStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Every duration, for names registered with
    /// [`Tracer::keep_samples`].
    pub samples: Option<Samples>,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    /// `(start, end)` of each closed direct child.
    children: Vec<(u64, u64)>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    stack: Vec<Open>,
    spans: BTreeMap<&'static str, SpanStats>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            stack: Vec::new(),
            spans: BTreeMap::new(),
        }
    }

    /// Turns recording on or off between spans (the traced pass
    /// alternates traced and untraced segments).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.enabled = enabled;
    }

    /// Keeps every duration of spans named `name`, for percentiles.
    pub fn keep_samples(&mut self, name: &'static str) {
        self.spans.entry(name).or_default().samples = Some(Samples::default());
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (just runs it when
    /// disabled).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.stack.push(Open {
            name,
            start_ns,
            children: Vec::new(),
        });
    }

    /// Closes the innermost open span.
    fn exit(&mut self) {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("exit without a matching enter");
        if let Some(parent) = self.stack.last_mut() {
            parent.children.push((open.start_ns, end_ns));
        }
        self.record(open.name, open.start_ns, end_ns, &open.children);
    }

    /// Folds one closed span into its name's aggregate.
    fn record(&mut self, name: &'static str, start: u64, end: u64, children: &[(u64, u64)]) {
        let dur = end - start;
        let stats = self.spans.entry(name).or_default();
        stats.count += 1;
        stats.total_ns += dur;
        stats.self_ns += self_time(start, end, children);
        if let Some(samples) = &mut stats.samples {
            samples.push(dur);
        }
    }

    pub fn get(&self, name: &str) -> Option<&SpanStats> {
        self.spans.get(name)
    }

    /// Total time of spans named `name` (0 when none closed).
    pub fn total_ns(&self, name: &str) -> u64 {
        self.get(name).map_or(0, |s| s.total_ns)
    }

    /// Merges another thread's tracer into this one.
    pub fn merge(&mut self, other: Tracer) {
        for (name, theirs) in other.spans {
            let ours = self.spans.entry(name).or_default();
            ours.count += theirs.count;
            ours.total_ns += theirs.total_ns;
            ours.self_ns += theirs.self_ns;
            match (&mut ours.samples, theirs.samples) {
                (Some(a), Some(b)) => a.extend(&b),
                (slot @ None, Some(b)) => *slot = Some(b),
                _ => {}
            }
        }
    }
}

/// Self time of a span over `[start, end)`: its duration minus the
/// union of its children's intervals clipped to it. Children of one
/// thread never overlap, but the union keeps the arithmetic right if
/// they do.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_time() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 30), (50, 60)]), 70);
        // Overlapping children are counted once.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 50)]), 60);
        // A child sticking out of the parent is clipped to it.
        assert_eq!(self_time(10, 100, &[(0, 20), (90, 120)]), 70);
        // A child covering everything leaves nothing.
        assert_eq!(self_time(0, 100, &[(0, 100)]), 0);
    }

    #[test]
    fn nested_spans_aggregate_total_and_self_time() {
        let mut t = Tracer::new(true);
        t.span("outer", || {});
        // Hand-fed intervals, so the arithmetic is exact.
        t.record("inner", 10, 30, &[]);
        t.record("inner", 40, 45, &[]);
        t.record("outer", 0, 100, &[(10, 30), (40, 45)]);
        let outer = t.get("outer").unwrap();
        assert_eq!(outer.count, 2);
        let inner = t.get("inner").unwrap();
        assert_eq!((inner.count, inner.total_ns, inner.self_ns), (2, 25, 25));
        // The live span has no children; the fed one 100 with 75 self.
        assert_eq!(outer.self_ns, outer.total_ns - 25);
    }

    #[test]
    fn live_children_are_charged_to_their_parent() {
        let mut t = Tracer::new(true);
        t.enter("parent");
        t.span("child", || std::hint::black_box((0..1_000u64).sum::<u64>()));
        t.exit();
        let parent = t.get("parent").unwrap();
        let child = t.get("child").unwrap();
        assert_eq!(parent.self_ns + child.total_ns, parent.total_ns);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.get("x").is_none());
        assert_eq!(t.total_ns("x"), 0);
    }
}
