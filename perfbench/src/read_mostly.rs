//! `read_mostly`: an in-memory service with pre-warmed history, read
//! by an open-loop prober at a fixed rate while an open-loop writer
//! applies small batches beside it.
//!
//! Puts the work on wait-free snapshot reads and the per-subject tier
//! memo; writes only invalidate epochs and there is no journal.

use crate::loadgen::{OpenLoop, Population, Rng, Zipf};
use crate::report::Outcome;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{repeat_setup, report_latency, report_overhead, Meter, Run};
use replend_core::serve::{ReputationService, ServeConfig, StatusCensus};
use replend_rocq::concurrent::ConcurrentEngine;
use replend_types::{Feedback, PeerId, Reputation};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const SUBJECTS: u64 = 100_000;
const ZIPF_EXPONENT: f64 = 1.0;
/// Warm-up history: batches of Zipf-skewed opinions applied during
/// set-up, enough for the popular subjects to pass the status
/// policy's evidence floor, so every tier is populated.
const WARM_BATCHES: u64 = 300;
const WARM_BATCH: usize = 1_000;
/// Probes (`reputation` + `status`) per second, open loop.
const READ_RATE: f64 = 500_000.0;
/// Write batches per second, open loop, and opinions per batch.
const WRITE_RATE: f64 = 200.0;
const WRITE_BATCH: usize = 100;

const STREAM_WARM: u64 = 0x3A7;
const STREAM_WRITE: u64 = 0x3B1;
const STREAM_PROBE: u64 = 0x3C5;

fn config(seed: u64) -> ServeConfig {
    ServeConfig {
        seed,
        partitions: 8,
        num_sm: 6,
        ..ServeConfig::default()
    }
}

/// Registers the population and applies the warm-up history.
fn build(
    seed: u64,
    members: &[(PeerId, Reputation)],
    warm: &[Vec<Feedback>],
) -> Result<ReputationService, String> {
    let service = ReputationService::in_memory(config(seed));
    service
        .register_batch(members)
        .map_err(|e| format!("register_batch: {e}"))?;
    for batch in warm {
        service
            .report_batch(batch)
            .map_err(|e| format!("warm-up report_batch: {e}"))?;
    }
    Ok(service)
}

fn census_and_histogram(service: &ReputationService) -> (StatusCensus, Vec<u64>) {
    (service.status_census(), service.histogram(10))
}

/// What the writer thread brings back.
struct Writes {
    batches: u64,
    failed: u64,
    latency: Samples,
    tracer: Tracer,
}

fn writer(
    run: &Run,
    service: &ReputationService,
    pop: &Population,
    zipf: &Zipf,
    begin: Instant,
    stop: &AtomicBool,
) -> Writes {
    let schedule = OpenLoop::per_second(WRITE_RATE);
    let window_ns = run.window().as_nanos() as u64;
    let mut tracer = Tracer::new(false);
    let mut latency = Samples::default();
    let (mut batches, mut failed) = (0u64, 0u64);
    while !stop.load(Ordering::Relaxed) {
        let due_ns = schedule.due_ns(batches);
        if due_ns >= window_ns * u64::from(crate::WINDOWS) {
            break;
        }
        let batch = pop.zipf_batch(zipf, STREAM_WRITE, batches, WRITE_BATCH);
        let now = begin.elapsed().as_nanos() as u64;
        if now < due_ns {
            std::thread::sleep(Duration::from_nanos(due_ns - now));
        }
        tracer.set_enabled(run.traced_window((due_ns / window_ns) as u32));
        if tracer
            .span("serve.report_batch", || service.report_batch(&batch))
            .is_err()
        {
            failed += 1;
        }
        latency.push(begin.elapsed().as_nanos() as u64 - due_ns);
        batches += 1;
    }
    Writes {
        batches,
        failed,
        latency,
        tracer,
    }
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let pop = Population::new(SUBJECTS, run.seed);
    let zipf = Zipf::new(SUBJECTS, ZIPF_EXPONENT);
    let members: Vec<(PeerId, Reputation)> = (0..SUBJECTS)
        .map(|s| (PeerId(s), Reputation::new(0.5)))
        .collect();
    let warm: Vec<Vec<Feedback>> = (0..WARM_BATCHES)
        .map(|i| pop.zipf_batch(&zipf, STREAM_WARM, i, WARM_BATCH))
        .collect();

    let (setup_s, service) = repeat_setup(|| build(run.seed, &members, &warm));
    let service = service?;
    out.set("setup_s", "s", setup_s);
    let (warm_census, _) = census_and_histogram(&service);
    out.check(
        warm_census.whitelisted > 0 && warm_census.throttled > 0 && warm_census.banned > 0,
        || format!("warm-up left a status tier empty: {warm_census:?}"),
    );
    if run.trace {
        let c = config(run.seed);
        let engine = ConcurrentEngine::new(c.params, c.num_sm, c.partitions, c.seed);
        let start = Instant::now();
        engine.register_batch(&members);
        out.set(
            "concurrent.register_batch.ns_per_subject",
            "ns",
            start.elapsed().as_nanos() as f64 / SUBJECTS as f64,
        );
    }

    let schedule = OpenLoop::per_second(READ_RATE);
    let window_ns = run.window().as_nanos() as u64;
    let total_ns = window_ns * u64::from(crate::WINDOWS);
    // Indexed by "traced window".
    let mut from_due = [Samples::default(), Samples::default()];
    let mut service_time = Meter::default();
    let mut late = Samples::default();
    let mut tracer = Tracer::new(false);
    tracer.keep_samples("serve.reputation");
    tracer.keep_samples("serve.status");
    let mut rng = Rng::stream(run.seed, STREAM_PROBE);
    let stop = AtomicBool::new(false);
    let mut probes = 0u64;
    let mut last_end_ns = 0u64;

    let writes = std::thread::scope(|scope| {
        let begin = Instant::now();
        let (service, pop, zipf, stop) = (&service, &pop, &zipf, &stop);
        let writer = scope.spawn(move || writer(run, service, pop, zipf, begin, stop));
        loop {
            let due_ns = schedule.due_ns(probes);
            if due_ns >= total_ns {
                break;
            }
            // Draw the next subject while the schedule has slack.
            let subject = PeerId(pop.hot(zipf.sample(&mut rng)));
            let traced = run.traced_window((due_ns / window_ns) as u32);
            tracer.set_enabled(traced);
            let mut start_ns = begin.elapsed().as_nanos() as u64;
            while start_ns < due_ns {
                std::hint::spin_loop();
                start_ns = begin.elapsed().as_nanos() as u64;
            }
            let reputation = tracer.span("serve.reputation", || service.reputation(subject));
            let status = tracer.span("serve.status", || service.status(subject));
            let end_ns = begin.elapsed().as_nanos() as u64;
            probes += 1;
            let ok =
                status.is_some() && reputation.is_some_and(|r| (0.0..=1.0).contains(&r.value()));
            if !ok {
                out.failed += 1;
            }
            let (lat, wait) = OpenLoop::account(due_ns, start_ns, end_ns);
            from_due[usize::from(traced)].push(lat);
            service_time.record((due_ns / window_ns) as u32, traced, end_ns - start_ns, 1);
            if traced {
                late.push(wait);
            }
            last_end_ns = end_ns;
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("writer thread panicked")
    });
    out.attempted = probes + writes.batches;
    out.failed += writes.failed;
    if let Some(mb) = crate::peak_rss_mb() {
        out.set("peak_rss_mb", "MiB", mb);
    }
    out.note(format!(
        "{SUBJECTS} subjects, Zipf({ZIPF_EXPONENT}) probes at {READ_RATE}/s from 1 reader \
         thread, {WRITE_BATCH}-opinion batches at {WRITE_RATE}/s from 1 writer thread, \
         in memory (no journal)"
    ));
    out.set(
        "throughput_per_s",
        "1/s",
        probes as f64 * 1e9 / last_end_ns.max(1) as f64,
    );
    // The gated latency is the probe's service time. Its time from the
    // due time adds the generator's lateness, which on a shared host
    // is dominated by the reader thread being descheduled: it is
    // reported here and, split out, by the traced pass.
    report_latency(
        &mut out,
        "reputation+status probe service time",
        &service_time,
    );
    let d = from_due[0].summary(0.99);
    out.note(format!(
        "reputation+status probe from due time: n={} p50={:.3}us p99={:.3}us",
        d.count,
        d.p50_ns / 1e3,
        d.tail_ns.unwrap_or(f64::NAN) / 1e3
    ));
    let w = writes.latency.summary(0.99);
    out.note(format!(
        "write report_batch from due time: n={} p50={:.3}us p99={:.3}us",
        w.count,
        w.p50_ns / 1e3,
        w.tail_ns.unwrap_or(f64::NAN) / 1e3
    ));

    // The final state must equal a single-threaded replay of the same
    // warm-up and write stream.
    let live = census_and_histogram(&service);
    drop(service);
    let replay = build(run.seed, &members, &warm)?;
    for j in 0..writes.batches {
        replay
            .report_batch(&pop.zipf_batch(&zipf, STREAM_WRITE, j, WRITE_BATCH))
            .map_err(|e| format!("replay report_batch: {e}"))?;
    }
    let replayed = census_and_histogram(&replay);
    out.check(live == replayed, || {
        format!("census/histogram {live:?} != single-threaded replay {replayed:?}")
    });

    if run.trace {
        report_overhead(
            &mut out,
            service_time.latency(false).p50_ns,
            service_time.latency(true).p50_ns,
            false,
        );
        let traced = from_due[1].summary(0.99);
        tracer.merge(writes.tracer);
        for (span, p50, p99, mean) in [
            (
                "serve.reputation",
                "serve.reputation.ns_p50",
                "serve.reputation.ns_p99",
                "serve.reputation.ns_mean",
            ),
            (
                "serve.status",
                "serve.status.ns_p50",
                "serve.status.ns_p99",
                "serve.status.ns_mean",
            ),
        ] {
            let s = tracer
                .get(span)
                .and_then(|s| s.samples.as_ref())
                .map(|s| s.summary(0.99));
            if let Some(s) = s {
                out.set(p50, "ns", s.p50_ns);
                out.set(p99, "ns", s.tail_ns.unwrap_or(0.0));
                out.set(mean, "ns", s.mean_ns);
            }
        }
        let l = late.summary(0.99);
        out.set("loadgen.read_late_ns_p50", "ns", l.p50_ns);
        out.set("loadgen.read_late_ns_p99", "ns", l.tail_ns.unwrap_or(0.0));
        out.set("loadgen.read_late.ns_mean", "ns", l.mean_ns);
        out.set("loadgen.probe.ns_mean", "ns", traced.mean_ns);
        out.ladder(
            "loadgen.probe.ns_mean",
            &[
                "loadgen.read_late.ns_mean",
                "serve.reputation.ns_mean",
                "serve.status.ns_mean",
            ],
            "loadgen.probe.residual",
        );
        if let Some(s) = tracer.get("serve.report_batch") {
            out.set(
                "serve.report_batch.ns_per_opinion",
                "ns",
                s.total_ns as f64 / (s.count * WRITE_BATCH as u64) as f64,
            );
        }
    }
    Ok(out)
}
