//! `ingest_journal`: a journalled service under a closed-loop writer,
//! then one checkpoint, a short journal suffix and a timed restart.
//!
//! Puts the work on journal append, partition apply, slab publish,
//! checkpoint export/encode/write and restore/replay, with no reads.

use crate::loadgen::{Population, Rng};
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{repeat_setup, report_latency, report_overhead, Meter, Run};
use rayon::prelude::*;
use replend_core::serve::{
    checkpoint_path, journal_seed, JournalOp, ReputationService, ServeConfig, StatusPolicy,
    SyncPolicy,
};
use replend_rocq::concurrent::ConcurrentEngine;
use replend_rocq::state::PartitionCheckpoint;
use replend_types::{PeerId, Reputation};
use replend_wire::{JournalReader, JournalWriter};
use serde::Deserialize;
use std::fs::File;
use std::io::{BufReader, Write};
use std::path::Path;
use std::time::Instant;

const SUBJECTS: u64 = 100_000;
/// Opinions per `report_batch` call.
const BATCH: usize = 1_000;
/// Batches journalled after the checkpoint, replayed by the restart.
const SUFFIX_BATCHES: u64 = 20;
/// Subjects whose reputation must survive the restart bit for bit.
const SAMPLED: u64 = 2_000;

const STREAM_INGEST: u64 = 0x1A6E;
const STREAM_SUFFIX: u64 = 0x50FF;

/// Journalled with the service defaults, stated here because they
/// shape the numbers: every record flushed to the OS before it is
/// applied, 8 lock partitions, 6 score managers per subject.
fn config(seed: u64) -> ServeConfig {
    ServeConfig {
        seed,
        journal_sync: SyncPolicy::Always,
        partitions: 8,
        num_sm: 6,
        ..ServeConfig::default()
    }
}

/// The checkpoint payload as the service writes it (field for field,
/// so the traced restart can time the partition decode on its own).
#[derive(Deserialize)]
#[allow(dead_code)]
struct CheckpointDoc {
    generation: u64,
    ops: u64,
    policy: StatusPolicy,
    partitions: Vec<Vec<u8>>,
}

fn population() -> Vec<(PeerId, Reputation)> {
    (0..SUBJECTS)
        .map(|s| (PeerId(s), Reputation::new(0.5)))
        .collect()
}

fn fresh_service(
    run: &Run,
    path: &Path,
    members: &[(PeerId, Reputation)],
) -> Result<ReputationService, String> {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(checkpoint_path(path));
    let (service, _) =
        ReputationService::open(config(run.seed), path).map_err(|e| format!("open: {e}"))?;
    service
        .register_batch(members)
        .map_err(|e| format!("register_batch: {e}"))?;
    Ok(service)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let pop = Population::new(SUBJECTS, run.seed);
    let members = population();
    let path = run.work_dir.join("service.wal");

    let (setup_s, service) = repeat_setup(|| fresh_service(run, &path, &members));
    let service = service?;
    out.set("setup_s", "s", setup_s);
    let journal_at_start = file_len(&path);

    // The traced pass applies each traced batch a second time to a
    // shadow journal and a shadow engine, to time those layers alone.
    let mut tracer = Tracer::new(false);
    let mut shadow = if run.trace {
        let c = config(run.seed);
        let engine = ConcurrentEngine::new(c.params, c.num_sm, c.partitions, c.seed);
        let start = Instant::now();
        engine.register_batch(&members);
        out.set(
            "concurrent.register_batch.ns_per_subject",
            "ns",
            start.elapsed().as_nanos() as f64 / SUBJECTS as f64,
        );
        let file = File::create(run.work_dir.join("shadow.wal")).map_err(|e| e.to_string())?;
        Some((
            engine,
            JournalWriter::with_policy(file, run.seed, SyncPolicy::Always),
        ))
    } else {
        None
    };

    // Closed loop: the next call is due when the previous returns.
    let mut meter = Meter::default();
    let window = run.window();
    let mut index = 0u64;
    let begin = Instant::now();
    let mut prev = begin;
    loop {
        let w = (begin.elapsed().as_nanos() / window.as_nanos()) as u32;
        if w >= crate::WINDOWS {
            break;
        }
        let traced = run.traced_window(w);
        tracer.set_enabled(traced);
        let batch = tracer.span("loadgen.generate", || {
            pop.uniform_batch(STREAM_INGEST, index, BATCH)
        });
        let result = tracer.span("serve.report_batch", || service.report_batch(&batch));
        let end = Instant::now();
        out.attempted += 1;
        if result.is_err() {
            out.failed += 1;
        }
        meter.record(w, traced, (end - prev).as_nanos() as u64, BATCH as u64);
        index += 1;
        if let (true, Some((engine, journal))) = (traced, shadow.as_mut()) {
            tracer.span("concurrent.report_batch", || engine.report_batch(&batch));
            let op = JournalOp::Batch { batch };
            tracer
                .span("wire.journal_append", || journal.append(&op))
                .map_err(|e| format!("shadow append: {e}"))?;
        }
        // Shadow work is not the system's: the next call is due now.
        prev = Instant::now();
    }
    drop(shadow);
    let opinions = meter.ops();
    out.note(format!(
        "{SUBJECTS} subjects, {opinions} opinions in {index} batches of {BATCH}, \
         SyncPolicy::Always, 8 partitions, num_sm 6, 1 writer thread"
    ));

    let journal_bytes = file_len(&path) - journal_at_start;
    out.set(
        "wire.journal.bytes_per_opinion",
        "B",
        journal_bytes as f64 / opinions as f64,
    );

    // Checkpoint; in the traced pass its export and encode are first
    // timed alone on the same state.
    if run.trace {
        let t = Instant::now();
        let parts = service.engine().export_partitions();
        out.set("state.export_partitions_s", "s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        let encoded: Vec<_> = parts.par_iter().map(replend_wire::to_bytes).collect();
        out.set("wire.partition_encode_s", "s", t.elapsed().as_secs_f64());
        if encoded.iter().any(Result::is_err) {
            return Err("shadow partition encode failed".into());
        }
    }
    let t = Instant::now();
    let checkpoint = service.checkpoint();
    out.set("serve.checkpoint_s", "s", t.elapsed().as_secs_f64());
    out.attempted += 1;
    let checkpoint = match checkpoint {
        Ok(report) => report,
        Err(e) => {
            out.failed += 1;
            out.check(false, || format!("checkpoint failed: {e}"));
            return Ok(out);
        }
    };
    out.set(
        "state.checkpoint.bytes_per_subject",
        "B",
        checkpoint.bytes as f64 / SUBJECTS as f64,
    );
    if run.trace {
        // The file system's share: writing and syncing as many bytes
        // as the checkpoint holds.
        let bytes = vec![0u8; checkpoint.bytes as usize];
        let t = Instant::now();
        let mut file = File::create(run.work_dir.join("shadow.ckpt")).map_err(|e| e.to_string())?;
        file.write_all(&bytes)
            .and_then(|()| file.sync_all())
            .map_err(|e| format!("shadow checkpoint write: {e}"))?;
        out.set("fs.write_sync_s", "s", t.elapsed().as_secs_f64());
    }

    for i in 0..SUFFIX_BATCHES {
        out.attempted += 1;
        if service
            .report_batch(&pop.uniform_batch(STREAM_SUFFIX, i, BATCH))
            .is_err()
        {
            out.failed += 1;
        }
    }
    let census = service.status_census();
    let mut rng = Rng::stream(run.seed, 0x5A3F);
    let sampled: Vec<PeerId> = (0..SAMPLED).map(|_| PeerId(rng.below(SUBJECTS))).collect();
    let reputations: Vec<Option<u64>> = sampled
        .iter()
        .map(|&p| service.reputation(p).map(|r| r.value().to_bits()))
        .collect();
    drop(service);

    if run.trace {
        restart_ladder(run, &path, checkpoint.generation, &mut out)?;
    }
    let t = Instant::now();
    let reopened = ReputationService::open(config(run.seed), &path);
    out.set("serve.restart_s", "s", t.elapsed().as_secs_f64());
    out.attempted += 1;
    match reopened {
        Ok((restored, summary)) => {
            out.check(summary.restored_from_checkpoint(), || {
                "restart did not restore the checkpoint".into()
            });
            out.check(
                summary.checkpoint_generation == checkpoint.generation,
                || {
                    format!(
                        "restored generation {} != checkpoint generation {}",
                        summary.checkpoint_generation, checkpoint.generation
                    )
                },
            );
            out.check(summary.replayed_from_checkpoint == checkpoint.ops, || {
                format!(
                    "checkpoint carried {} ops, restart credited {}",
                    checkpoint.ops, summary.replayed_from_checkpoint
                )
            });
            out.check(summary.records == SUFFIX_BATCHES, || {
                format!(
                    "restart replayed {} suffix records, expected {SUFFIX_BATCHES}",
                    summary.records
                )
            });
            out.check(restored.status_census() == census, || {
                format!(
                    "census after restart {:?} != before {census:?}",
                    restored.status_census()
                )
            });
            let after: Vec<Option<u64>> = sampled
                .iter()
                .map(|&p| restored.reputation(p).map(|r| r.value().to_bits()))
                .collect();
            out.check(after == reputations, || {
                "sampled reputations changed across the restart".into()
            });
            out.check(reputations.iter().all(Option::is_some), || {
                "a registered subject has no reputation".into()
            });
        }
        Err(e) => {
            out.failed += 1;
            out.check(false, || format!("restart failed: {e}"));
        }
    }
    if let Some(mb) = crate::peak_rss_mb() {
        out.set("peak_rss_mb", "MiB", mb);
    }

    let traced_opinions = tracer.get("serve.report_batch").map_or(0, |s| s.count) * BATCH as u64;
    let ns_per_opinion = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    out.set("throughput_per_s", "1/s", meter.throughput(false));
    out.note(format!("per-window rates (1/s): {}", meter.window_rates()));
    report_latency(&mut out, "report_batch call", &meter);
    if run.trace {
        report_overhead(
            &mut out,
            meter.throughput(false),
            meter.throughput(true),
            true,
        );
        out.set(
            "loadgen.ingest.ns_per_opinion",
            "ns",
            meter.mean_ns_per_op(true),
        );
        for (span, metric) in [
            ("loadgen.generate", "loadgen.generate.ns_per_opinion"),
            ("serve.report_batch", "serve.report_batch.ns_per_opinion"),
            ("wire.journal_append", "wire.journal_append.ns_per_opinion"),
            (
                "concurrent.report_batch",
                "concurrent.report_batch.ns_per_opinion",
            ),
        ] {
            out.set(
                metric,
                "ns",
                ns_per_opinion(tracer.total_ns(span), traced_opinions),
            );
        }
        out.ladder(
            "loadgen.ingest.ns_per_opinion",
            &[
                "loadgen.generate.ns_per_opinion",
                "serve.report_batch.ns_per_opinion",
            ],
            "loadgen.ingest.residual",
        );
        out.ladder(
            "serve.report_batch.ns_per_opinion",
            &[
                "wire.journal_append.ns_per_opinion",
                "concurrent.report_batch.ns_per_opinion",
            ],
            "serve.report_batch.residual",
        );
        out.ladder(
            "serve.checkpoint_s",
            &[
                "state.export_partitions_s",
                "wire.partition_encode_s",
                "fs.write_sync_s",
            ],
            "serve.checkpoint.residual",
        );
        out.set(
            "wire.journal_decode_s",
            "s",
            out.value("wire.journal_decode.ns_per_opinion")
                * (SUFFIX_BATCHES * BATCH as u64) as f64
                / 1e9,
        );
        out.ladder(
            "serve.restart_s",
            &[
                "wire.partition_decode_s",
                "state.import_partitions_s",
                "wire.journal_decode_s",
            ],
            "serve.restart.residual",
        );
    }
    Ok(out)
}

/// Times, on the checkpoint and journal the restart is about to read,
/// the three layer steps a restart performs: partition decode,
/// partition import and journal suffix decode.
fn restart_ladder(
    run: &Run,
    path: &Path,
    generation: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let bytes = std::fs::read(checkpoint_path(path)).map_err(|e| e.to_string())?;
    let (_, doc) = replend_wire::decode_checkpoint::<CheckpointDoc>(&bytes)
        .map_err(|e| format!("checkpoint layout changed, traced restart cannot decode it: {e}"))?;
    let t = Instant::now();
    let parts: Vec<Result<PartitionCheckpoint, _>> = doc
        .partitions
        .par_iter()
        .map(|blob| replend_wire::from_bytes(blob))
        .collect();
    out.set("wire.partition_decode_s", "s", t.elapsed().as_secs_f64());
    let parts = parts
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("shadow partition decode: {e}"))?;
    let t = Instant::now();
    let engine = ConcurrentEngine::import_partitions(&parts).map_err(|e| e.0)?;
    out.set("state.import_partitions_s", "s", t.elapsed().as_secs_f64());
    drop(engine);
    drop(parts);

    let file = File::open(path).map_err(|e| e.to_string())?;
    let mut reader = JournalReader::new(BufReader::new(file), journal_seed(run.seed, generation));
    let t = Instant::now();
    let mut opinions = 0u64;
    while let Some(op) = reader
        .next::<JournalOp>()
        .map_err(|e| format!("shadow journal decode: {e}"))?
    {
        if let JournalOp::Batch { batch } = op {
            opinions += batch.len() as u64;
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    out.set(
        "wire.journal_decode.ns_per_opinion",
        "ns",
        if opinions == 0 {
            0.0
        } else {
            ns / opinions as f64
        },
    );
    Ok(())
}
