//! The arena engine's per-shard **pair table**: all feedback state of
//! a `(reporter, subject)` pair in one record.
//!
//! ROCQ's unit of feedback state is the pair. Its interaction count
//! sets the quality of the reporter's next opinion about the subject
//! (see [`quality`](crate::quality)), and each of the subject's
//! `numSM` score managers keeps a credibility for the reporter (see
//! [`credibility`](crate::credibility)). The table stores both halves
//! side by side, so the report hot path finds everything about the
//! pair with **one** hash probe:
//!
//! * `index: (reporter, subject handle) → record`, a std `HashMap`
//!   (std's keyed hasher — reporter ids arrive from clients, so the
//!   table keeps its HashDoS resistance);
//! * flat per-record arrays: `count: Vec<u32>`, and `cred: Vec<f64>`
//!   with stride `numSM` (the record's credibility at every replica
//!   slot, walked inline by the fused report kernel);
//! * a per-subject intrusive list (`head` per subject handle, `next`
//!   per record) for the operations that visit one subject's rows:
//!   crash recovery ([`PairTable::copy_column`] /
//!   [`PairTable::reset_column`]), subject removal and checkpoint
//!   export;
//! * a free list, so records vacated by removed subjects are reused
//!   and the arrays stay dense under churn.
//!
//! The probe and the fold are separate calls. [`PairTable::record_of`]
//! finds or creates the record and returns its number;
//! [`PairTable::bump`] takes that number, counts the interaction and
//! hands back the pre-increment count and the credibility row. The
//! engine's batch path probes every opinion of a batch first and
//! folds them afterwards, so the hash probes of a batch overlap
//! instead of each waiting on the previous opinion's fold. That is
//! sound because a record's number is stable while the record lives
//! (only subject removal frees records, never inside a batch), and
//! the probes still run in opinion order, so records are created in
//! the same order as by a fused probe-and-fold.
//!
//! Departure semantics match the reference layout exactly: when a
//! **reporter** departs, its counts are forgotten
//! ([`PairTable::forget_reporter`] zeroes them) but its records stay,
//! so the credibility it earned resumes if it re-joins; when a
//! **subject** departs, its whole list is released. Record numbering
//! and list order are internal — export sorts by reporter, and no
//! arithmetic depends on them.

use replend_types::arena::Handle;
use replend_types::PeerId;
use std::collections::HashMap;

/// End of a subject's record list.
const NIL: u32 = u32::MAX;

/// One shard's pair records (see the [module docs](self)).
#[derive(Clone, Debug)]
pub(crate) struct PairTable {
    /// Credibility of a reporter a replica has not heard from.
    initial: f64,
    /// Credibility learning rate.
    gamma: f64,
    /// Replica slots per record (`numSM`).
    stride: usize,
    /// `(reporter, subject handle) → record`: the one probe per
    /// opinion.
    index: HashMap<(PeerId, Handle), u32>,
    /// Record → reporter.
    reporter: Vec<PeerId>,
    /// Record → interaction count (0 after the reporter departed).
    count: Vec<u32>,
    /// Record → per-slot credibilities, `stride` consecutive values.
    cred: Vec<f64>,
    /// Record → next record of the same subject, or [`NIL`].
    next: Vec<u32>,
    /// Subject handle → first record, or [`NIL`].
    head: Vec<u32>,
    /// Vacated records, reused newest first.
    free: Vec<u32>,
}

impl PairTable {
    /// An empty table for `stride` replica slots; new reporters start
    /// at `initial` credibility and learn at rate `gamma` (both
    /// clamped to `[0, 1]`, as the reference layout's tables do).
    pub(crate) fn new(initial: f64, gamma: f64, stride: usize) -> Self {
        PairTable {
            initial: initial.clamp(0.0, 1.0),
            gamma: gamma.clamp(0.0, 1.0),
            stride,
            index: HashMap::new(),
            reporter: Vec::new(),
            count: Vec::new(),
            cred: Vec::new(),
            next: Vec::new(),
            head: Vec::new(),
            free: Vec::new(),
        }
    }

    /// The credibility learning rate, for the fused report kernel.
    #[inline]
    pub(crate) fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Makes room for subject handle `h` (a fresh arena slot). A
    /// reused slot needs nothing: removal emptied its list.
    pub(crate) fn add_subject(&mut self, h: Handle) {
        if self.head.len() <= h.index() {
            self.head.resize(h.index() + 1, NIL);
        }
        debug_assert_eq!(self.head[h.index()], NIL, "subject slot still has pairs");
    }

    /// The record of `(reporter, h)`, created at count 0 and initial
    /// credibility when absent. One hash probe. Records are never
    /// renumbered while they live, so the batch path probes every
    /// opinion first and folds them afterwards through
    /// [`PairTable::bump`].
    #[inline]
    pub(crate) fn record_of(&mut self, reporter: PeerId, h: Handle) -> u32 {
        let PairTable {
            initial,
            stride,
            index,
            reporter: reporters,
            count,
            cred,
            next,
            head,
            free,
            ..
        } = self;
        *index.entry((reporter, h)).or_insert_with(|| {
            let link = std::mem::replace(&mut head[h.index()], NIL);
            let r = match free.pop() {
                Some(r) => {
                    let i = r as usize;
                    reporters[i] = reporter;
                    count[i] = 0;
                    cred[i * *stride..(i + 1) * *stride].fill(*initial);
                    next[i] = link;
                    r
                }
                None => {
                    let r = reporters.len() as u32;
                    reporters.push(reporter);
                    count.push(0);
                    cred.resize(cred.len() + *stride, *initial);
                    next.push(link);
                    r
                }
            };
            head[h.index()] = r;
            r
        })
    }

    /// Records one more interaction on record `r` (from
    /// [`PairTable::record_of`]): returns the count *before* the
    /// increment (the evidence behind the current opinion) and the
    /// pair's mutable per-slot credibility row. No hash probe.
    #[inline]
    pub(crate) fn bump(&mut self, r: u32) -> (u32, &mut [f64]) {
        let i = r as usize;
        let before = self.count[i];
        self.count[i] = before.saturating_add(1);
        (
            before,
            &mut self.cred[i * self.stride..(i + 1) * self.stride],
        )
    }

    /// The credibility replica `slot` of subject `h` assigns to
    /// `reporter`.
    pub(crate) fn credibility(&self, reporter: PeerId, h: Handle, slot: usize) -> f64 {
        self.index.get(&(reporter, h)).map_or(self.initial, |&i| {
            self.cred[i as usize * self.stride + slot]
        })
    }

    /// The records of subject `h`, in list order.
    fn records(&self, h: Handle) -> impl Iterator<Item = usize> + '_ {
        let mut i = self.head.get(h.index()).copied().unwrap_or(NIL);
        std::iter::from_fn(move || {
            (i != NIL).then(|| {
                let r = i as usize;
                i = self.next[r];
                r
            })
        })
    }

    /// Reporters with a credibility row at subject `h` (identical for
    /// every slot: the row is shared by all of the subject's replicas).
    pub(crate) fn known_reporters(&self, h: Handle) -> usize {
        self.records(h).count()
    }

    /// Every `(reporter, per-slot credibilities, interaction count)`
    /// of subject `h`, in list order — export sorts.
    pub(crate) fn rows(&self, h: Handle) -> impl Iterator<Item = (PeerId, &[f64], u32)> + '_ {
        self.records(h).map(|i| {
            (
                self.reporter[i],
                &self.cred[i * self.stride..(i + 1) * self.stride],
                self.count[i],
            )
        })
    }

    /// Crash recovery from a sibling replica: every reporter's `dst`
    /// credibility at subject `h` becomes its `src` credibility.
    pub(crate) fn copy_column(&mut self, h: Handle, dst: usize, src: usize) {
        let mut i = self.head[h.index()];
        while i != NIL {
            let base = i as usize * self.stride;
            self.cred[base + dst] = self.cred[base + src];
            i = self.next[i as usize];
        }
    }

    /// Crash without a surviving sibling: column `slot` of subject `h`
    /// resets to the initial credibility (a reset reporter and an
    /// unknown one are indistinguishable at `initial`).
    pub(crate) fn reset_column(&mut self, h: Handle, slot: usize) {
        let mut i = self.head[h.index()];
        while i != NIL {
            self.cred[i as usize * self.stride + slot] = self.initial;
            i = self.next[i as usize];
        }
    }

    /// Subject `h` departed: releases every record of its list.
    pub(crate) fn remove_subject(&mut self, h: Handle) {
        let mut i = std::mem::replace(&mut self.head[h.index()], NIL);
        while i != NIL {
            self.index.remove(&(self.reporter[i as usize], h));
            self.free.push(i);
            i = self.next[i as usize];
        }
    }

    /// Reporter `peer` departed: its interaction counts are forgotten
    /// everywhere; its credibility rows stay. A linear pass over the
    /// records (a vacated record may still name the peer; zeroing it
    /// is harmless — reuse reinitialises it).
    pub(crate) fn forget_reporter(&mut self, peer: PeerId) {
        for (r, n) in self.reporter.iter().zip(&mut self.count) {
            if *r == peer {
                *n = 0;
            }
        }
    }

    /// Checkpoint import: installs `reporter`'s credibility row at
    /// subject `h` verbatim, bit-exact, with count 0. False (and no
    /// change) when the pair already has a record.
    pub(crate) fn insert_row(&mut self, reporter: PeerId, h: Handle, row: &[f64]) -> bool {
        debug_assert_eq!(row.len(), self.stride, "credibility row width");
        if self.index.contains_key(&(reporter, h)) {
            return false;
        }
        let i = self.record_of(reporter, h) as usize;
        self.cred[i * self.stride..(i + 1) * self.stride].copy_from_slice(row);
        true
    }

    /// Checkpoint import: sets an existing pair's interaction count.
    /// False when the pair has no record.
    pub(crate) fn set_count(&mut self, reporter: PeerId, h: Handle, n: u32) -> bool {
        match self.index.get(&(reporter, h)) {
            Some(&i) => {
                self.count[i as usize] = n;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::credibility::{credibility_update, CredibilityTable};

    /// One interaction of `reporter` with `h`: probe, then bump.
    fn record(t: &mut PairTable, reporter: PeerId, h: Handle) -> (u32, &mut [f64]) {
        let r = t.record_of(reporter, h);
        t.bump(r)
    }

    /// Applies the credibility rule to every slot of the pair's row.
    fn update_row(t: &mut PairTable, reporter: PeerId, h: Handle, agreed: bool) {
        let gamma = t.gamma();
        for c in record(t, reporter, h).1 {
            *c = credibility_update(*c, agreed, gamma);
        }
    }

    fn table(stride: usize) -> PairTable {
        let mut t = PairTable::new(0.5, 0.1, stride);
        for h in 0..4 {
            t.add_subject(Handle::from_index(h));
        }
        t
    }

    #[test]
    fn records_start_at_initial_and_count_up() {
        let mut t = table(3);
        let (a, h) = (PeerId(1), Handle::from_index(2));
        assert_eq!(t.credibility(a, h, 0), 0.5);
        assert_eq!(t.known_reporters(h), 0);
        let (n, row) = record(&mut t, a, h);
        assert_eq!((n, &*row), (0, &[0.5, 0.5, 0.5][..]));
        row[2] = 0.9;
        assert_eq!(record(&mut t, a, h).0, 1, "returns the pre-increment count");
        assert_eq!(t.credibility(a, h, 2), 0.9);
        assert_eq!(
            t.known_reporters(h),
            1,
            "records are reused, not re-created"
        );
        // Direction and subject matter: other pairs are separate.
        assert_eq!(record(&mut t, a, Handle::from_index(1)).0, 0);
        assert_eq!(record(&mut t, PeerId(2), h).0, 0);
        assert_eq!(t.known_reporters(h), 2);
    }

    #[test]
    fn columns_match_per_replica_tables() {
        // Each column must stay value-identical to an independent
        // per-replica table fed the same agreement stream, across a
        // crash copy and a crash reset.
        let slots = 3;
        let mut t = table(slots);
        let mut tables: Vec<CredibilityTable> = (0..slots)
            .map(|_| CredibilityTable::new(0.5, 0.1))
            .collect();
        let (reporter, h) = (PeerId(7), Handle::from_index(0));
        let feed = |t: &mut PairTable, tables: &mut [CredibilityTable], agreed: bool| {
            update_row(t, reporter, h, agreed);
            for table in tables.iter_mut() {
                table.update(reporter, agreed);
            }
        };
        for step in 0..40 {
            feed(&mut t, &mut tables, step % 3 != 0);
        }
        t.copy_column(h, 1, 0);
        tables[1] = tables[0].clone();
        t.reset_column(h, 2);
        tables[2] = CredibilityTable::new(0.5, 0.1);
        for step in 0..40 {
            feed(&mut t, &mut tables, step % 2 == 0);
        }
        for (slot, table) in tables.iter().enumerate() {
            assert_eq!(
                t.credibility(reporter, h, slot).to_bits(),
                table.get(reporter).to_bits(),
                "slot {slot} diverged from its reference table"
            );
        }
    }

    #[test]
    fn departures_forget_counts_or_release_records() {
        let mut t = table(2);
        let (a, b) = (PeerId(1), PeerId(2));
        let (h0, h1) = (Handle::from_index(0), Handle::from_index(1));
        for _ in 0..3 {
            record(&mut t, a, h0).1[0] = 0.8;
            record(&mut t, b, h0);
            record(&mut t, a, h1);
        }
        // Reporter `a` departs: counts gone, credibility kept.
        t.forget_reporter(a);
        assert_eq!(record(&mut t, a, h0).0, 0);
        assert_eq!(t.credibility(a, h0, 0), 0.8);
        assert_eq!(
            record(&mut t, b, h0).0,
            3,
            "other reporters keep their counts"
        );
        // Subject h0 departs: its records are released and reused.
        t.remove_subject(h0);
        assert_eq!(t.known_reporters(h0), 0);
        assert_eq!(t.credibility(a, h0, 0), 0.5);
        let records = t.reporter.len();
        record(&mut t, PeerId(9), h0);
        record(&mut t, PeerId(8), Handle::from_index(3));
        assert_eq!(t.reporter.len(), records, "vacated records are reused");
        // `a`'s record at the other subject survives, count forgotten.
        assert_eq!(
            t.rows(h1).map(|(r, _, n)| (r, n)).collect::<Vec<_>>(),
            [(a, 0)]
        );
    }

    #[test]
    fn import_installs_rows_and_counts_exactly() {
        let mut t = table(2);
        let h = Handle::from_index(1);
        assert!(t.insert_row(PeerId(4), h, &[0.25, 0.75]));
        assert!(!t.insert_row(PeerId(4), h, &[0.0, 0.0]), "duplicate row");
        assert!(t.set_count(PeerId(4), h, 6));
        assert!(!t.set_count(PeerId(5), h, 1), "count without a row");
        assert_eq!(t.credibility(PeerId(4), h, 1), 0.75);
        assert_eq!(record(&mut t, PeerId(4), h).0, 6);
    }
}
