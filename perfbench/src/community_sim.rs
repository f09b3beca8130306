//! `community_sim`: the paper's own reproduction path — a
//! single-threaded lending community stepped tick by tick, with the
//! Figure-2 sampler at a fixed interval.
//!
//! The only workload through lending, introductions, the DHT score
//! managers, topology sampling and the `&mut` engine path; the
//! service layers do nothing here.

use crate::loadgen::Rng;
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{report_latency, report_overhead, Meter, Run};
use replend_core::messages::MessageCounters;
use replend_core::{BootstrapPolicy, Community, CommunityBuilder};
use replend_types::Table1;
use std::time::Instant;

const NUM_INIT: usize = 20_000;
/// Ticks between Figure-2 samples (the paper samples every 5 000).
const SAMPLE_EVERY: u64 = 5_000;
/// Reputation histogram buckets per sample.
const BUCKETS: usize = 10;
/// Ticks per episode: each episode builds a fresh community and steps
/// it this far (the paper's `numTrans`), so state, memory and per-tick
/// cost stay bounded however long the run is.
const EPISODE_TICKS: u64 = 500_000;
/// Episodes run at the least: a set-up median needs three, the traced
/// pass one traced and one untraced.
const MIN_EPISODES: u32 = 3;
/// Ticks of the serial run compared against a 4-shard rerun.
const SHARD_CHECK_TICKS: u64 = 20_000;

fn build(seed: u64, shards: usize) -> Community {
    CommunityBuilder::new(
        Table1::paper_defaults()
            .with_num_init(NUM_INIT)
            .with_num_shards(shards),
    )
    .policy(BootstrapPolicy::ReputationLending)
    .seed(seed)
    .build()
}

/// Everything the shard-invariance contract promises is identical:
/// stats, population, both means and every member's reputation, bit
/// for bit.
fn fingerprint(c: &Community) -> (String, Vec<u64>) {
    let text = format!("{:?} {:?}", c.stats(), c.population());
    let mut bits: Vec<u64> = [
        c.mean_cooperative_reputation(),
        c.mean_uncooperative_reputation(),
    ]
    .iter()
    .map(|m| m.unwrap_or(f64::NAN).to_bits())
    .collect();
    bits.extend(
        c.members()
            .map(|p| c.reputation(p.id).map_or(u64::MAX, |r| r.value().to_bits())),
    );
    (text, bits)
}

/// One Figure-2 sample: population, both reputation means and the
/// member histogram, checked for consistency.
fn sample(c: &Community, out: &mut Outcome) {
    let pop = c.population();
    let coop = c.mean_cooperative_reputation();
    let uncoop = c.mean_uncooperative_reputation();
    let hist = c.reputation_histogram(BUCKETS);
    let in_range = |m: Option<f64>| m.is_none_or(|v| (0.0..=1.0).contains(&v));
    out.check(in_range(coop) && in_range(uncoop), || {
        format!("mean reputation outside [0, 1]: {coop:?} {uncoop:?}")
    });
    out.check(hist.count() == pop.members as u64, || {
        format!(
            "histogram holds {} members, population {}",
            hist.count(),
            pop.members
        )
    });
}

/// `acc` plus the counter growth from `before` to `after`.
fn add_delta(
    acc: MessageCounters,
    before: MessageCounters,
    after: MessageCounters,
) -> MessageCounters {
    MessageCounters {
        introduction_requests: acc.introduction_requests
            + (after.introduction_requests - before.introduction_requests),
        deduct_stake: acc.deduct_stake + (after.deduct_stake - before.deduct_stake),
        credit_sent: acc.credit_sent + (after.credit_sent - before.credit_sent),
        credit_delivered: acc.credit_delivered + (after.credit_delivered - before.credit_delivered),
        credit_duplicates: acc.credit_duplicates
            + (after.credit_duplicates - before.credit_duplicates),
        responses: acc.responses + (after.responses - before.responses),
        audit_verdicts: acc.audit_verdicts + (after.audit_verdicts - before.audit_verdicts),
    }
}

/// Messages per tick, and credit messages delivered per credit
/// message sent (useful outcomes per attempt).
fn per_tick(out: &mut Outcome, m: MessageCounters, ticks: u64) {
    let rate = |n: u64| n as f64 / ticks.max(1) as f64;
    out.set(
        "messages.per_tick.introduction_requests",
        "count",
        rate(m.introduction_requests),
    );
    out.set(
        "messages.per_tick.deduct_stake",
        "count",
        rate(m.deduct_stake),
    );
    out.set(
        "messages.per_tick.credit_sent",
        "count",
        rate(m.credit_sent),
    );
    out.set("messages.per_tick.responses", "count", rate(m.responses));
    out.set(
        "messages.per_tick.audit_verdicts",
        "count",
        rate(m.audit_verdicts),
    );
    out.set(
        "messages.credit_delivery_ratio",
        "ratio",
        if m.credit_sent == 0 {
            0.0
        } else {
            m.credit_delivered as f64 / m.credit_sent as f64
        },
    );
}

/// The seed of episode `index`: episode 0 runs on the run's own seed.
fn episode_seed(seed: u64, index: u32) -> u64 {
    if index == 0 {
        seed
    } else {
        Rng::stream(seed, u64::from(index)).next_u64()
    }
}

/// Checks that every peer ever seen sits in exactly one population
/// bucket and that every arrival is accounted for.
fn check_accounting(c: &Community, out: &mut Outcome) {
    let pop = c.population();
    let stats = *c.stats();
    let seen = c.peers_seen();
    out.check(
        pop.members + pop.waiting + pop.refused + pop.flagged + pop.departed == seen,
        || format!("population {pop:?} does not add up to {seen} peers seen"),
    );
    out.check(stats.arrived_total() as usize + NUM_INIT == seen, || {
        format!(
            "{} arrivals + {NUM_INIT} founders != {seen} peers seen",
            stats.arrived_total()
        )
    });
    out.check(pop.members == pop.cooperative + pop.uncooperative, || {
        format!("members {pop:?} are not cooperative + uncooperative")
    });
    out.check(stats.ticks == EPISODE_TICKS, || {
        format!(
            "community counted {} ticks, ran {EPISODE_TICKS}",
            stats.ticks
        )
    });
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(false);
    tracer.keep_samples("community.step");
    let mut meter = Meter::default();
    let mut build_times = Vec::new();
    let mut messages = MessageCounters::default();
    let mut serial_print = None;
    let mut members = Vec::new();

    // Episodes until the time is up, and at least enough for the
    // set-up median and one traced and one untraced episode.
    let begin = Instant::now();
    let mut index = 0u32;
    while index < MIN_EPISODES || begin.elapsed().as_secs_f64() < run.seconds {
        let start = Instant::now();
        let mut community = build(episode_seed(run.seed, index), 1);
        build_times.push(start.elapsed().as_secs_f64());

        let traced = run.traced_window(index);
        tracer.set_enabled(traced);
        let before = community.messages();
        let mut prev = Instant::now();
        for tick in 1..=EPISODE_TICKS {
            tracer.span("community.step", || community.step());
            if tick % SAMPLE_EVERY == 0 {
                tracer.span("community.sample", || sample(&community, &mut out));
            }
            let end = Instant::now();
            meter.record(index, traced, (end - prev).as_nanos() as u64, 1);
            prev = end;
            if index == 0 && tick == SHARD_CHECK_TICKS {
                serial_print = Some(fingerprint(&community));
                // The fingerprint is a check, not a tick: not timed.
                prev = Instant::now();
            }
        }
        messages = add_delta(messages, before, community.messages());
        check_accounting(&community, &mut out);
        members.push(community.population().members);
        index += 1;
    }
    let ticks = meter.ops();
    out.attempted = ticks;
    if let Some(mb) = crate::peak_rss_mb() {
        out.set("peak_rss_mb", "MiB", mb);
    }
    out.set(
        "setup_s",
        "s",
        crate::stats::median(&build_times).expect("at least one episode"),
    );
    out.note(format!(
        "{NUM_INIT} founders, reputation lending, {index} episodes of {EPISODE_TICKS} ticks, \
         Figure-2 sample every {SAMPLE_EVERY} ticks, 1 thread; members at episode end: {members:?}"
    ));

    // Shard invariance: the same seed at 4 engine shards must match
    // the serial run tick for tick.
    let mut sharded = build(run.seed, 4);
    sharded.run(SHARD_CHECK_TICKS);
    out.check(serial_print == Some(fingerprint(&sharded)), || {
        format!("a 4-shard rerun diverged from the serial run by tick {SHARD_CHECK_TICKS}")
    });

    out.set("throughput_per_s", "1/s", meter.throughput(false));
    out.note(format!("per-episode rates (1/s): {}", meter.window_rates()));
    report_latency(
        &mut out,
        "tick (step + sampler) from the previous tick's end",
        &meter,
    );
    if run.trace {
        report_overhead(
            &mut out,
            meter.throughput(false),
            meter.throughput(true),
            true,
        );
        per_tick(&mut out, messages, ticks);
        let traced_ticks = tracer.get("community.step").map_or(0, |s| s.count);
        let per = |ns: u64| ns as f64 / traced_ticks.max(1) as f64;
        if let Some(s) = tracer
            .get("community.step")
            .and_then(|s| s.samples.as_ref())
        {
            let s = s.summary(0.99);
            out.set("community.step.ns_p50", "ns", s.p50_ns);
            out.set("community.step.ns_p99", "ns", s.tail_ns.unwrap_or(0.0));
        }
        out.set("community.tick.ns_mean", "ns", meter.mean_ns_per_op(true));
        out.set(
            "community.step.ns_mean",
            "ns",
            per(tracer.total_ns("community.step")),
        );
        out.set(
            "community.sample.ns_per_tick",
            "ns",
            per(tracer.total_ns("community.sample")),
        );
        let samples = tracer.get("community.sample").map_or(0, |s| s.count);
        out.set(
            "community.sample.ns",
            "ns",
            tracer.total_ns("community.sample") as f64 / samples.max(1) as f64,
        );
        out.ladder(
            "community.tick.ns_mean",
            &["community.step.ns_mean", "community.sample.ns_per_tick"],
            "community.tick.residual",
        );
    }
    Ok(out)
}
