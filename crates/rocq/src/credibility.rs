//! Reporter credibility, as maintained by each score-manager replica.
//!
//! ROCQ's defence against lying reporters: a score manager compares
//! each incoming opinion with its current aggregate for the subject.
//! Agreement (within `θ`) nudges the reporter's credibility up by
//! `γ·(1−C)`; disagreement decays it by `γ·C`. Uncooperative peers —
//! who always report 0 about partners the rest of the community rates
//! near 1 — therefore see their influence wither, which is what keeps
//! the paper's reputation values honest.

use replend_types::PeerId;
use std::collections::HashMap;

/// The credibility update rule, single-sourced so the replica-local
/// [`CredibilityTable`] (reference layout) and the arena engine's
/// pair table stay bit-identical by construction: agreement
/// moves `c` up by `γ·(1−c)`, disagreement decays it by `γ·c`,
/// clamped to `[0, 1]`.
#[inline]
pub fn credibility_update(c: f64, agreed: bool, gamma: f64) -> f64 {
    let next = if agreed {
        c + gamma * (1.0 - c)
    } else {
        c - gamma * c
    };
    next.clamp(0.0, 1.0)
}

/// Per-reporter credibility table of one score-manager replica.
#[derive(Clone, Debug)]
pub struct CredibilityTable {
    initial: f64,
    gamma: f64,
    table: HashMap<PeerId, f64>,
}

impl CredibilityTable {
    /// A table where unknown reporters start at `initial` and updates
    /// use learning rate `gamma`.
    pub fn new(initial: f64, gamma: f64) -> Self {
        CredibilityTable {
            initial: initial.clamp(0.0, 1.0),
            gamma: gamma.clamp(0.0, 1.0),
            table: HashMap::new(),
        }
    }

    /// Current credibility of `reporter`.
    pub fn get(&self, reporter: PeerId) -> f64 {
        self.table.get(&reporter).copied().unwrap_or(self.initial)
    }

    /// Applies the agreement/disagreement update and returns the new
    /// credibility.
    pub fn update(&mut self, reporter: PeerId, agreed: bool) -> f64 {
        let next = credibility_update(self.get(reporter), agreed, self.gamma);
        self.table.insert(reporter, next);
        next
    }

    /// Forgets a departed reporter.
    pub fn forget(&mut self, reporter: PeerId) {
        self.table.remove(&reporter);
    }

    /// Number of reporters with explicit state.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when no reporter has explicit state.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unknown_reporter_gets_initial() {
        let t = CredibilityTable::new(0.5, 0.1);
        assert_eq!(t.get(PeerId(1)), 0.5);
    }

    #[test]
    fn agreement_raises_credibility() {
        let mut t = CredibilityTable::new(0.5, 0.1);
        let c1 = t.update(PeerId(1), true);
        assert!((c1 - 0.55).abs() < 1e-12);
        let c2 = t.update(PeerId(1), true);
        assert!(c2 > c1);
    }

    #[test]
    fn disagreement_decays_credibility() {
        let mut t = CredibilityTable::new(0.5, 0.1);
        let c1 = t.update(PeerId(1), false);
        assert!((c1 - 0.45).abs() < 1e-12);
    }

    #[test]
    fn persistent_liar_loses_influence() {
        // An uncooperative peer always reporting 0 against a
        // consensus of 1: after ~50 disagreements its credibility is
        // negligible.
        let mut t = CredibilityTable::new(0.5, 0.1);
        for _ in 0..50 {
            t.update(PeerId(9), false);
        }
        assert!(t.get(PeerId(9)) < 0.01);
    }

    #[test]
    fn honest_reporter_approaches_one() {
        let mut t = CredibilityTable::new(0.5, 0.1);
        for _ in 0..100 {
            t.update(PeerId(3), true);
        }
        assert!(t.get(PeerId(3)) > 0.99);
    }

    #[test]
    fn forget_resets_to_initial() {
        let mut t = CredibilityTable::new(0.5, 0.1);
        t.update(PeerId(1), true);
        assert_eq!(t.len(), 1);
        t.forget(PeerId(1));
        assert!(t.is_empty());
        assert_eq!(t.get(PeerId(1)), 0.5);
    }

    proptest! {
        /// Credibility never escapes [0, 1] under arbitrary update
        /// sequences.
        #[test]
        fn credibility_bounded(
            initial in 0.0f64..=1.0,
            gamma in 0.0f64..=1.0,
            updates in proptest::collection::vec(proptest::bool::ANY, 0..200),
        ) {
            let mut t = CredibilityTable::new(initial, gamma);
            for agreed in updates {
                let c = t.update(PeerId(0), agreed);
                prop_assert!((0.0..=1.0).contains(&c));
            }
        }

        /// Agreement never lowers, disagreement never raises.
        #[test]
        fn update_monotonicity(initial in 0.0f64..=1.0, gamma in 0.0f64..=1.0) {
            let mut t = CredibilityTable::new(initial, gamma);
            let before = t.get(PeerId(0));
            let up = t.update(PeerId(0), true);
            prop_assert!(up >= before - 1e-12);
            let mut t2 = CredibilityTable::new(initial, gamma);
            let down = t2.update(PeerId(0), false);
            prop_assert!(down <= before + 1e-12);
        }
    }
}
