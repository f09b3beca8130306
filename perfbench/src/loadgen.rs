//! The benchmark's own load generator: seeded input streams and the
//! open-loop schedule.
//!
//! Everything here depends only on the workload seed, never on the
//! program under test, so a change to the program cannot change the
//! inputs it is measured on.

use replend_types::{Feedback, PeerId};

/// SplitMix64: a small, fast, fully determined generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of `seed`: distinct streams of
    /// one seed never share a sequence.
    pub fn stream(seed: u64, stream: u64) -> Self {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5EED))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipf(s) over ranks `0..n` by inverse CDF: rank `r` is drawn with
/// probability proportional to `1 / (r + 1)^s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u64, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c <= u);
        rank.min(self.cdf.len() - 1) as u64
    }
}

/// The subject population of the service workloads: `n` subjects with
/// ids `0..n`, each with a fixed behaviour class and two fixed
/// trading partners that are the only peers reporting on it. The
/// bounded (reporter, subject) pair set is what makes state and
/// checkpoint size level off instead of growing with run length.
#[derive(Clone, Copy, Debug)]
pub struct Population {
    subjects: u64,
    seed: u64,
}

impl Population {
    pub fn new(subjects: u64, seed: u64) -> Self {
        Population { subjects, seed }
    }

    /// Probability that an opinion about `subject` is positive: most
    /// subjects behave (0.9), some are mediocre (0.4), some are bad
    /// (0.1) — so, with enough history, all three status tiers fill.
    pub fn quality(&self, subject: u64) -> f64 {
        match Rng::stream(self.seed, subject ^ 0xC1A55).below(10) {
            0..=5 => 0.9,
            6 | 7 => 0.4,
            _ => 0.1,
        }
    }

    /// One of `subject`'s two fixed partners.
    pub fn reporter(&self, subject: u64, which: u64) -> u64 {
        let r = Rng::stream(self.seed ^ 0x9A27, subject * 2 + (which & 1)).below(self.subjects - 1);
        // Never the subject itself.
        if r >= subject {
            r + 1
        } else {
            r
        }
    }

    /// The opinion one draw of `rng` gives about `subject`.
    pub fn feedback(&self, subject: u64, rng: &mut Rng) -> Feedback {
        let reporter = self.reporter(subject, rng.next_u64());
        let positive = rng.unit() < self.quality(subject);
        Feedback::new(
            PeerId(reporter),
            PeerId(subject),
            if positive { 1.0 } else { 0.0 },
        )
    }

    /// Batch `index` of `len` opinions on uniformly drawn subjects.
    pub fn uniform_batch(&self, stream: u64, index: u64, len: usize) -> Vec<Feedback> {
        let mut rng = Rng::stream(self.seed ^ stream, index);
        (0..len)
            .map(|_| {
                let subject = rng.below(self.subjects);
                self.feedback(subject, &mut rng)
            })
            .collect()
    }

    /// Batch `index` of `len` opinions on Zipf-skewed subjects.
    pub fn zipf_batch(&self, zipf: &Zipf, stream: u64, index: u64, len: usize) -> Vec<Feedback> {
        let mut rng = Rng::stream(self.seed ^ stream, index);
        (0..len)
            .map(|_| {
                let subject = self.hot(zipf.sample(&mut rng));
                self.feedback(subject, &mut rng)
            })
            .collect()
    }

    /// The subject at popularity rank `rank`: a fixed permutation of
    /// the ids, so the hot set is spread over every partition.
    pub fn hot(&self, rank: u64) -> u64 {
        let a = self.stride();
        ((u128::from(rank) * u128::from(a) + u128::from(self.seed)) % u128::from(self.subjects))
            as u64
    }

    /// A multiplier coprime with `subjects`, so [`Population::hot`] is
    /// a permutation.
    fn stride(&self) -> u64 {
        let mut a = (self.subjects / 2 + 1) | 1;
        while gcd(a, self.subjects) != 1 {
            a += 2;
        }
        a
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// An open-loop schedule: request `i` is due `i × period` after the
/// start, whether or not earlier requests have finished.
///
/// Latency is measured from the due time, so a stalled call also
/// charges its delay to every request queued behind it; how late the
/// generator issued a request is reported separately.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoop {
    period_ns: f64,
}

impl OpenLoop {
    pub fn per_second(rate: f64) -> Self {
        OpenLoop {
            period_ns: 1e9 / rate,
        }
    }

    /// Nanoseconds after the start at which request `i` is due.
    pub fn due_ns(&self, i: u64) -> u64 {
        (i as f64 * self.period_ns) as u64
    }

    /// `(latency, lateness)` of a request due at `due`, issued at
    /// `start` and answered at `end`: latency runs from the due time,
    /// lateness is the part of it spent before the call began.
    pub fn account(due: u64, start: u64, end: u64) -> (u64, u64) {
        (end - due, start - due)
    }

    #[cfg(test)]
    /// Replays the schedule against known service times (one issuer,
    /// each request issued at its due time or when the previous one
    /// returns, whichever is later). Returns `(latency, lateness)`
    /// per request — the accounting the live loop performs.
    pub fn replay(&self, service_ns: &[u64]) -> Vec<(u64, u64)> {
        let mut free_at = 0u64;
        service_ns
            .iter()
            .enumerate()
            .map(|(i, &service)| {
                let due = self.due_ns(i as u64);
                let start = due.max(free_at);
                free_at = start + service;
                Self::account(due, start, free_at)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let pop = Population::new(10_000, 7);
        assert_eq!(pop.uniform_batch(1, 3, 100), pop.uniform_batch(1, 3, 100));
        assert_ne!(pop.uniform_batch(1, 3, 100), pop.uniform_batch(1, 4, 100));
        let other = Population::new(10_000, 8);
        assert_ne!(pop.uniform_batch(1, 3, 100), other.uniform_batch(1, 3, 100));
    }

    #[test]
    fn zipf_probe_stream_is_seed_determined_and_skewed() {
        let zipf = Zipf::new(10_000, 1.0);
        let draw = |seed| {
            let mut rng = Rng::stream(seed, 0);
            (0..5_000)
                .map(|_| zipf.sample(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(11), draw(11));
        assert_ne!(draw(11), draw(12));
        let ranks = draw(11);
        assert!(ranks.iter().all(|&r| r < 10_000));
        // Rank 0 carries 1/H(10^4) ≈ 10 % of the mass.
        let top = ranks.iter().filter(|&&r| r == 0).count();
        assert!((350..650).contains(&top), "rank-0 draws: {top}");
    }

    #[test]
    fn hot_ranks_are_a_permutation_and_reporters_are_partners() {
        let pop = Population::new(1_000, 3);
        let mut seen: Vec<u64> = (0..1_000).map(|r| pop.hot(r)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..1_000).collect::<Vec<_>>());
        let mut rng = Rng::stream(5, 0);
        for _ in 0..1_000 {
            let s = rng.below(1_000);
            let f = pop.feedback(s, &mut rng);
            assert_ne!(f.reporter.0, s);
            assert!(f.reporter.0 == pop.reporter(s, 0) || f.reporter.0 == pop.reporter(s, 1));
        }
    }

    #[test]
    fn a_stalled_call_delays_the_requests_behind_it() {
        // One request every 1 000 ns; each takes 100 ns except the
        // third, which stalls for 3 500 ns.
        let schedule = OpenLoop::per_second(1e6);
        let out = schedule.replay(&[100, 100, 3_500, 100, 100, 100, 100]);
        let latency: Vec<u64> = out.iter().map(|&(l, _)| l).collect();
        let late: Vec<u64> = out.iter().map(|&(_, w)| w).collect();
        // The stall ends at 5 500; requests due at 3 000, 4 000 and
        // 5 000 wait for it and are charged the wait.
        assert_eq!(latency, vec![100, 100, 3_500, 2_600, 1_700, 800, 100]);
        assert_eq!(late, vec![0, 0, 0, 2_500, 1_600, 700, 0]);
        // A closed loop timed from issue would have reported 100 ns
        // for each of them.
    }
}
