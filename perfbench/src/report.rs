//! What a workload run produces, the ladder report and the result
//! line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Residuals larger than this share of their ladder's total are
/// flagged: the named layers no longer account for the total.
pub const RESIDUAL_FLAG: f64 = 0.15;

#[derive(Clone, Debug)]
pub struct Metric {
    pub unit: &'static str,
    pub value: f64,
}

/// One ladder: a total measured end to end in the traced pass, the
/// layer rows it breaks down into and the named residual that makes
/// them add up.
#[derive(Clone, Debug)]
pub struct Ladder {
    pub total: &'static str,
    pub parts: Vec<&'static str>,
    pub residual: &'static str,
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check mismatches, in the order found.
    pub mismatches: Vec<String>,
    /// Every metric the run measured, by name.
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Lines printed above the ladders (sizes, counts, sample counts).
    pub notes: Vec<String>,
    pub ladders: Vec<Ladder>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.insert(name, Metric { unit, value });
    }

    pub fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |m| m.value)
    }

    /// Records an output check; a false `ok` is a mismatch.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Adds a ladder whose residual is `total − Σ parts`, and records
    /// the residual as a metric in the total's unit.
    pub fn ladder(&mut self, total: &'static str, parts: &[&'static str], residual: &'static str) {
        let unit = self.metrics.get(total).map_or("", |m| m.unit);
        let rest = self.value(total) - parts.iter().map(|p| self.value(p)).sum::<f64>();
        self.set(residual, unit, rest);
        self.ladders.push(Ladder {
            total,
            parts: parts.to_vec(),
            residual,
        });
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The human-readable report: notes, every measured metric, then
    /// each ladder with its residual share (flagged above
    /// [`RESIDUAL_FLAG`]).
    pub fn render(&self, workload: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {workload}");
        for line in &self.notes {
            let _ = writeln!(out, "   {line}");
        }
        for (name, m) in &self.metrics {
            let _ = writeln!(out, "   {name:<44} {:>16.6} {}", m.value, m.unit);
        }
        for ladder in &self.ladders {
            let total = self.value(ladder.total);
            let unit = self.metrics.get(ladder.total).map_or("", |m| m.unit);
            let _ = writeln!(out, "   ladder {} = {total:.6} {unit}", ladder.total);
            for part in &ladder.parts {
                let v = self.value(part);
                let _ = writeln!(out, "     {part:<42} {v:>14.6} {:>6.1} %", share(v, total));
            }
            let rest = self.value(ladder.residual);
            let flag = if share(rest, total).abs() > RESIDUAL_FLAG * 100.0 {
                "  <-- residual above 15 %"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "     {:<42} {rest:>14.6} {:>6.1} %{flag}",
                ladder.residual,
                share(rest, total)
            );
        }
        for m in &self.mismatches {
            let _ = writeln!(out, "   OUTPUT CHECK FAILED: {m}");
        }
        out
    }

    /// The result line: every `(name, unit)` metric of `names`, in
    /// order. A metric a workload does not measure (a layer it
    /// bypasses) reads 0 when `absent_is_zero`, and is an error
    /// otherwise.
    pub fn result_line(
        &self,
        names: &[(&str, &str)],
        absent_is_zero: bool,
    ) -> Result<String, String> {
        let mut fields = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            let value = match self.metrics.get(name) {
                Some(m) if m.unit == unit => m.value,
                Some(m) => return Err(format!("metric {name} is in {}, not {unit}", m.unit)),
                None if absent_is_zero => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

fn share(part: f64, total: f64) -> f64 {
    if total == 0.0 {
        0.0
    } else {
        100.0 * part / total
    }
}

/// A finite float in JSON, with every digit Rust's shortest
/// round-trip form gives it.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_residual_makes_the_rows_add_up() {
        let mut o = Outcome::default();
        o.set("total.ns", "ns", 100.0);
        o.set("a.ns", "ns", 60.0);
        o.set("b.ns", "ns", 25.0);
        o.ladder("total.ns", &["a.ns", "b.ns"], "total.residual");
        assert_eq!(o.value("total.residual"), 15.0);
        let text = o.render("w");
        assert!(text.contains("total.residual"));
        assert!(!text.contains("residual above"));
        o.set("c.ns", "ns", 10.0);
        o.ladder("total.ns", &["c.ns"], "other.residual");
        assert!(o.render("w").contains("residual above 15 %"));
    }

    #[test]
    fn result_line_lists_every_name_and_rejects_gaps() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("x_s", "s", 1.5);
        let names = [("x_s", "s"), ("y.ns_p50", "ns")];
        let line = o.result_line(&names, true).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"x_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"y.ns_p50\": {\"value\": 0.0, \"unit\": \"ns\"}}}"
        );
        assert!(o.result_line(&names, false).is_err());
        assert!(o.result_line(&[("x_s", "ms")], false).is_err());
        o.check(false, || "bad".into());
        let line = o.result_line(&[("x_s", "s")], false).unwrap();
        assert!(line.contains("\"correct\": false"));
    }
}
