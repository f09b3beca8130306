//! Per-window accounting of a measured loop.
//!
//! A run's measured time is cut into windows (episodes, for
//! `community_sim`). Each window keeps its work, its busy time and
//! every latency sample, and the reported figures are medians over
//! windows: host noise that disturbs one window does not move them.

use crate::stats::{self, Samples, Summary};

#[derive(Default)]
struct Window {
    traced: bool,
    ops: u64,
    busy_ns: u64,
    latency: Samples,
}

#[derive(Default)]
pub struct Meter {
    windows: Vec<Window>,
}

/// Latency figures of one kind of window.
pub struct Latency {
    /// Median over windows of each window's median.
    pub p50_ns: f64,
    /// Median over windows of each window's P90 (0 if no window has
    /// ten samples beyond it).
    pub p90_ns: f64,
    /// Median over windows of each window's P99, over the windows with
    /// at least ten samples beyond it; `None` if there are none.
    pub p99_ns: Option<f64>,
    /// Windows counted.
    pub windows: usize,
    /// Every sample of those windows together.
    pub pooled: Summary,
}

impl Meter {
    /// Records one operation batch of `ops` that took `latency_ns`.
    pub fn record(&mut self, window: u32, traced: bool, latency_ns: u64, ops: u64) {
        let w = window as usize;
        while self.windows.len() <= w {
            self.windows.push(Window::default());
        }
        let win = &mut self.windows[w];
        // Every record of one window is of one kind.
        win.traced = traced;
        win.ops += ops;
        win.busy_ns += latency_ns;
        win.latency.push(latency_ns);
    }

    fn kind(&self, traced: bool) -> impl Iterator<Item = &Window> {
        self.windows
            .iter()
            .filter(move |w| w.traced == traced && w.ops > 0)
    }

    /// Median over windows of ops per busy second.
    pub fn throughput(&self, traced: bool) -> f64 {
        let rates: Vec<f64> = self
            .kind(traced)
            .map(|w| w.ops as f64 * 1e9 / w.busy_ns.max(1) as f64)
            .collect();
        stats::median(&rates).unwrap_or(0.0)
    }

    /// Busy nanoseconds per op over every window of one kind.
    pub fn mean_ns_per_op(&self, traced: bool) -> f64 {
        let (ops, busy) = self
            .kind(traced)
            .fold((0, 0), |(o, b), w| (o + w.ops, b + w.busy_ns));
        if ops == 0 {
            0.0
        } else {
            busy as f64 / ops as f64
        }
    }

    pub fn latency(&self, traced: bool) -> Latency {
        let mut pooled = Samples::default();
        let mut p50s = Vec::new();
        let mut p90s = Vec::new();
        let mut p99s = Vec::new();
        for w in self.kind(traced) {
            let s = w.latency.summary(0.99);
            p50s.push(s.p50_ns);
            p90s.extend(w.latency.summary(0.9).tail_ns);
            p99s.extend(s.tail_ns);
            pooled.extend(&w.latency);
        }
        Latency {
            p50_ns: stats::median(&p50s).unwrap_or(0.0),
            p90_ns: stats::median(&p90s).unwrap_or(0.0),
            p99_ns: stats::median(&p99s),
            windows: p50s.len(),
            pooled: pooled.summary(0.99),
        }
    }

    /// Ops per busy second of each window, in order, for the report.
    pub fn window_rates(&self) -> String {
        let rates: Vec<String> = self
            .windows
            .iter()
            .map(|w| format!("{:.0}", w.ops as f64 * 1e9 / w.busy_ns.max(1) as f64))
            .collect();
        rates.join(" ")
    }

    pub fn ops(&self) -> u64 {
        self.windows.iter().map(|w| w.ops).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_are_medians_over_windows_of_one_kind() {
        let mut m = Meter::default();
        // Three untraced windows at 1, 2 and 100 ns per op (the last
        // disturbed), one traced window at 10 ns per op.
        for (w, ns) in [(0, 1), (2, 2), (4, 100)] {
            for _ in 0..2_000 {
                m.record(w, false, ns, 1);
            }
        }
        for _ in 0..2_000 {
            m.record(1, true, 10, 1);
        }
        assert_eq!(m.throughput(false), 5e8);
        assert_eq!(m.throughput(true), 1e8);
        let l = m.latency(false);
        assert_eq!((l.p50_ns, l.p90_ns, l.p99_ns), (2.0, 2.0, Some(2.0)));
        assert_eq!(l.windows, 3);
        assert_eq!(l.pooled.count, 6_000);
        assert_eq!(m.mean_ns_per_op(true), 10.0);
        assert_eq!(m.ops(), 8_000);
        // Window 3 was never recorded: it counts for neither kind.
        assert_eq!(m.latency(true).windows, 1);
    }
}
