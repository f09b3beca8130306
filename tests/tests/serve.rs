//! `replend serve` integration: the lock-per-shard concurrent facade
//! is bit-identical to the monolithic engine under the same op
//! stream, reads stay coherent while ingest runs on other shards, and
//! the journalled workload path survives a restart with its tier
//! census intact.

use proptest::prelude::*;
use replend_core::serve::{
    run_ingest_workload, JournalOp, ReputationService, ServeConfig, SubjectStatus, SyncPolicy,
    WorkloadConfig,
};
use replend_rocq::{ConcurrentEngine, ReputationEngine, RocqEngine, RocqParams};
use replend_types::hash::{salted, splitmix64};
use replend_types::{Feedback, PeerId, Reputation};

/// A deterministic mixed op stream: registrations at varied initial
/// reputations, feedback batches, direct credits/debits, removals.
fn op_stream(seed: u64, peers: u64, rounds: u64, batch: u64) -> Vec<Vec<Feedback>> {
    (0..rounds)
        .map(|round| {
            (0..batch)
                .map(|i| {
                    let k = splitmix64(salted(seed, round * batch + i));
                    Feedback::new(
                        PeerId(k % peers),
                        PeerId(splitmix64(k) % peers),
                        if k % 3 == 0 { 0.0 } else { 1.0 },
                    )
                })
                .collect()
        })
        .collect()
}

/// Reads issued while ingest is live must be coherent: every observed
/// reputation is in [0, 1], every snapshot is internally consistent
/// (its combined value recomputes from its own replicas), and the
/// status tier always agrees with the policy applied to a
/// reputation the subject actually held.
#[test]
fn concurrent_reads_stay_coherent_during_live_ingest() {
    use std::sync::atomic::{AtomicU64, Ordering};

    let config = ServeConfig {
        partitions: 4,
        seed: 11,
        ..ServeConfig::default()
    };
    let service = ReputationService::in_memory(config);
    const PEERS: u64 = 300;
    for i in 0..PEERS {
        service
            .register_peer(PeerId(i), Reputation::new(0.5))
            .unwrap();
    }

    // Each reader has a fixed probe quota rather than a stop flag so
    // the coherence assertions run even when the scheduler serialises
    // the threads (single-core CI).
    let reads = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..3u64 {
            let (service, reads) = (&service, &reads);
            scope.spawn(move || {
                let mut k = salted(0xC0, t);
                for _ in 0..500 {
                    k = splitmix64(k);
                    let subject = PeerId(k % PEERS);
                    let rep = service.reputation(subject).expect("registered");
                    assert!((0.0..=1.0).contains(&rep.value()), "torn read: {rep:?}");
                    let snap = service.snapshot(subject).expect("registered");
                    let combined = snap.combined().expect("snapshot has replicas");
                    assert!(
                        (0.0..=1.0).contains(&combined.value()),
                        "torn snapshot: {combined:?}"
                    );
                    let status = service.status(subject).expect("registered");
                    assert!(matches!(
                        status,
                        SubjectStatus::Whitelisted
                            | SubjectStatus::Throttled
                            | SubjectStatus::Banned
                    ));
                    reads.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        for group in op_stream(77, PEERS, 60, 50) {
            service.report_batch(&group).unwrap();
            std::thread::yield_now();
        }
    });
    assert_eq!(
        reads.load(Ordering::Relaxed),
        3 * 500,
        "every reader must finish its probe quota"
    );
}

/// End-to-end: the journalled workload path (exactly what the CLI's
/// `serve --journal` runs) restarts into the same subject count and
/// tier census, byte-replayed from the write-ahead log.
#[test]
fn journalled_workload_survives_restart_with_census_intact() {
    let path = std::env::temp_dir().join(format!("replend-serve-e2e-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let config = ServeConfig {
        partitions: 4,
        seed: 5,
        ..ServeConfig::default()
    };
    let workload = WorkloadConfig {
        subjects: 400,
        rounds: 30,
        batch: 200,
        readers: 1,
        seed: 9,
    };

    let (service, _) = ReputationService::open(config, &path).expect("fresh journal");
    let report = run_ingest_workload(&service, workload).expect("workload");
    assert_eq!(report.registered, workload.subjects);
    assert_eq!(report.feedback, workload.rounds * workload.batch as u64);
    let census = service.status_census();
    assert_eq!(census.total(), workload.subjects);
    assert!(
        census.banned > 0,
        "lying cohort never got banned: {census:?}"
    );
    assert!(census.whitelisted > 0, "honest cohort vanished: {census:?}");
    drop(service);

    let (replayed, summary) = ReputationService::open(config, &path).expect("replay");
    // One bulk-registration record for all subjects + one per round.
    assert_eq!(summary.records, 1 + workload.rounds);
    assert!(!summary.restored_from_checkpoint());
    assert_eq!(replayed.subjects(), workload.subjects as usize);
    assert_eq!(replayed.status_census(), census);

    let _ = std::fs::remove_file(&path);
}

/// Issues `op` through the matching public mutator, so prefix replays
/// in the torn-tail test go through exactly the live apply path.
fn issue(service: &ReputationService, op: &JournalOp) {
    match op {
        JournalOp::Register { peer, initial } => service
            .register_peer(*peer, Reputation::new(*initial))
            .unwrap(),
        JournalOp::Remove { peer } => service.remove_peer(*peer).unwrap(),
        JournalOp::Batch { batch } => service.report_batch(batch).unwrap(),
        JournalOp::Credit { subject, amount } => service.credit(*subject, *amount).unwrap(),
        JournalOp::Debit { subject, amount } => service.debit(*subject, *amount).unwrap(),
        JournalOp::RegisterBatch { batch } => {
            let batch: Vec<(PeerId, Reputation)> = batch
                .iter()
                .map(|&(peer, initial)| (peer, Reputation::new(initial)))
                .collect();
            service.register_batch(&batch).unwrap()
        }
    }
}

/// Sorted bitwise engine fingerprint.
fn fingerprint(service: &ReputationService) -> Vec<(u64, u64, u64)> {
    let mut state = Vec::new();
    service
        .engine()
        .for_each_subject(|p, r, n| state.push((p.raw(), r.value().to_bits(), n)));
    state.sort_unstable();
    state
}

/// The group-commit replay contract: truncating a batch-synced
/// journal at **every** record-boundary offset (clean cuts and torn
/// cuts into the next frame) replays to exactly the state reached by
/// serially applying the intact prefix of operations — group commit
/// may lose a flushed-batch *suffix* on a crash, never reorder or
/// half-apply.
#[test]
fn group_committed_journal_truncates_to_exact_prefix_state_at_every_boundary() {
    let dir = std::env::temp_dir().join(format!("replend-serve-torn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("batched.wal");
    let _ = std::fs::remove_file(&path);

    let config = ServeConfig {
        partitions: 3,
        seed: 31,
        journal_sync: SyncPolicy::Batch(4),
        ..ServeConfig::default()
    };

    // The op list, known to the test so prefixes can be re-applied.
    const PEERS: u64 = 24;
    let mut ops: Vec<JournalOp> = (0..PEERS)
        .map(|p| JournalOp::Register {
            peer: PeerId(p),
            initial: 0.5,
        })
        .collect();
    for (round, batch) in op_stream(63, PEERS, 6, 20).into_iter().enumerate() {
        ops.push(JournalOp::Batch { batch });
        match round % 3 {
            0 => ops.push(JournalOp::Credit {
                subject: PeerId(round as u64 % PEERS),
                amount: 0.1,
            }),
            1 => ops.push(JournalOp::Debit {
                subject: PeerId(round as u64 % PEERS),
                amount: 0.2,
            }),
            _ => {}
        }
    }
    ops.push(JournalOp::Remove { peer: PeerId(3) });

    {
        let (service, _) = ReputationService::open(config, &path).expect("fresh journal");
        for op in &ops {
            issue(&service, op);
        }
        // Drop flushes the partial group-commit batch.
    }
    let log = std::fs::read(&path).unwrap();

    // Per-record boundaries, from the journal's own reader.
    let mut boundaries = vec![0u64];
    {
        let mut reader = replend_wire::JournalReader::new(log.as_slice(), config.seed);
        while reader.next::<JournalOp>().unwrap().is_some() {
            boundaries.push(reader.consumed());
        }
    }
    assert_eq!(boundaries.len(), ops.len() + 1, "one boundary per op");

    for (i, &boundary) in boundaries.iter().enumerate() {
        // Expected state: the intact prefix applied serially.
        let expected = ReputationService::in_memory(config);
        for op in &ops[..i] {
            issue(&expected, op);
        }
        let next = boundaries.get(i + 1).copied().unwrap_or(boundary);
        let mut cuts = vec![boundary];
        if boundary + 2 < next {
            cuts.push(boundary + 2); // torn mid-frame
        }
        for cut in cuts {
            let torn_path = dir.join("cut.wal");
            std::fs::write(&torn_path, &log[..cut as usize]).unwrap();
            let (recovered, summary) =
                ReputationService::open(config, &torn_path).expect("recovery");
            assert_eq!(summary.records, i as u64, "cut at {cut}");
            assert_eq!(summary.bytes, boundary, "cut at {cut}");
            assert_eq!(summary.truncated_torn_tail, cut != boundary, "cut at {cut}");
            assert_eq!(
                fingerprint(&recovered),
                fingerprint(&expected),
                "cut at {cut}: replay diverged from the serial prefix"
            );
            let _ = std::fs::remove_file(&torn_path);
        }
    }

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

/// Subjects drawn on by the randomized checkpoint-equivalence stream.
const PROP_PEERS: u64 = 16;

/// A random journalled mutation touching a small peer universe —
/// registrations (single and bulk), removals, feedback batches,
/// credits and debits, weighted toward the ops that move state.
fn op_strategy() -> impl Strategy<Value = JournalOp> {
    let register = (0..PROP_PEERS, 0.0f64..=1.0).prop_map(|(p, r)| JournalOp::Register {
        peer: PeerId(p),
        initial: r,
    });
    let register_batch =
        proptest::collection::vec((0..PROP_PEERS, 0.0f64..=1.0), 1..8).prop_map(|batch| {
            JournalOp::RegisterBatch {
                batch: batch.into_iter().map(|(p, r)| (PeerId(p), r)).collect(),
            }
        });
    let remove = (0..PROP_PEERS).prop_map(|p| JournalOp::Remove { peer: PeerId(p) });
    let feedback = || {
        proptest::collection::vec(
            (
                0..PROP_PEERS,
                0..PROP_PEERS,
                prop_oneof![Just(0.0f64), Just(1.0f64)],
            ),
            1..12,
        )
        .prop_map(|reports| JournalOp::Batch {
            batch: reports
                .into_iter()
                .map(|(reporter, subject, opinion)| {
                    Feedback::new(PeerId(reporter), PeerId(subject), opinion)
                })
                .collect(),
        })
    };
    let credit = (0..PROP_PEERS, 0.0f64..=0.5).prop_map(|(p, a)| JournalOp::Credit {
        subject: PeerId(p),
        amount: a,
    });
    let debit = (0..PROP_PEERS, 0.0f64..=0.5).prop_map(|(p, a)| JournalOp::Debit {
        subject: PeerId(p),
        amount: a,
    });
    // The shim's `prop_oneof!` draws arms uniformly; repeating the
    // register and feedback arms biases the stream toward the ops
    // that populate and move state.
    prop_oneof![
        register.clone(),
        register,
        register_batch,
        remove,
        feedback(),
        feedback(),
        feedback(),
        credit,
        debit,
    ]
}

/// Applies `op` to a monolithic engine and updates the test-side
/// oracle of applied-report counts: an opinion counts when both its
/// reporter and its subject are registered when the batch arrives; a
/// removal drops the subject's count, a fresh registration starts it
/// at zero and a repeated one keeps it.
fn apply_to_monolith(mono: &mut RocqEngine, counts: &mut [Option<u64>], op: &JournalOp) {
    let mut register = |mono: &mut RocqEngine, peer: PeerId, initial: f64| {
        mono.register_peer(peer, Reputation::new(initial));
        counts[peer.raw() as usize].get_or_insert(0);
    };
    match op {
        JournalOp::Register { peer, initial } => register(mono, *peer, *initial),
        JournalOp::RegisterBatch { batch } => {
            for &(peer, initial) in batch {
                register(mono, peer, initial);
            }
        }
        JournalOp::Remove { peer } => {
            mono.remove_peer(*peer);
            counts[peer.raw() as usize] = None;
        }
        JournalOp::Batch { batch } => {
            for f in batch {
                if mono.contains(f.reporter) {
                    if let Some(n) = &mut counts[f.subject.raw() as usize] {
                        *n += 1;
                    }
                }
            }
            mono.report_batch(batch);
        }
        JournalOp::Credit { subject, amount } => mono.credit(*subject, *amount),
        JournalOp::Debit { subject, amount } => mono.debit(*subject, *amount),
    }
}

/// Applies `op` to the concurrent facade.
fn apply_to_facade(conc: &ConcurrentEngine, op: &JournalOp) {
    match op {
        JournalOp::Register { peer, initial } => {
            conc.register_peer(*peer, Reputation::new(*initial))
        }
        JournalOp::RegisterBatch { batch } => conc.register_batch(
            &batch
                .iter()
                .map(|&(peer, initial)| (peer, Reputation::new(initial)))
                .collect::<Vec<_>>(),
        ),
        JournalOp::Remove { peer } => conc.remove_peer(*peer),
        JournalOp::Batch { batch } => conc.report_batch(batch),
        JournalOp::Credit { subject, amount } => conc.credit(*subject, *amount),
        JournalOp::Debit { subject, amount } => conc.debit(*subject, *amount),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The facade's consistency guarantee: with the crash model off,
    /// the partitioned concurrent facade lands on exactly the same
    /// per-subject reputation bits as one monolithic engine fed the
    /// identical op stream — registrations single and bulk, removals
    /// and re-registrations, reports from and about departed peers,
    /// credits and debits — and publishes exactly the applied-report
    /// counts an oracle derives from the monolith's membership, after
    /// **every** op. Partitioning changes locking, never results.
    #[test]
    fn concurrent_engine_is_bitwise_identical_to_monolith(
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let params = RocqParams {
            crash_prob: 0.0,
            ..RocqParams::default()
        };
        let mut mono = RocqEngine::new(params, 6, 99);
        let conc = ConcurrentEngine::new(params, 6, 5, 99);
        let mut counts = vec![None; PROP_PEERS as usize];
        for (step, op) in ops.iter().enumerate() {
            apply_to_monolith(&mut mono, &mut counts, op);
            apply_to_facade(&conc, op);
            prop_assert_eq!(conc.len(), mono.subjects_len(), "step {}: {:?}", step, op);
            for p in 0..PROP_PEERS {
                let peer = PeerId(p);
                prop_assert_eq!(
                    conc.reputation(peer).map(|r| r.value().to_bits()),
                    mono.reputation(peer).map(|r| r.value().to_bits()),
                    "step {}: peer {} diverged after {:?}", step, p, op
                );
                prop_assert_eq!(
                    conc.interactions(peer),
                    counts[p as usize],
                    "step {}: peer {} count diverged after {:?}", step, p, op
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The checkpoint correctness contract, property-tested: for a
    /// random op stream and a random cut point, {restore checkpoint
    /// taken at the cut + replay the suffix} lands on exactly the
    /// same per-subject bits as {replay the whole journal} and as
    /// {apply every op in memory} — checkpoints change restart cost,
    /// never state.
    #[test]
    fn checkpoint_at_any_cut_replays_bit_identically(
        ops in proptest::collection::vec(op_strategy(), 1..24),
        cut_pct in 0usize..=100,
        case in 0u64..1_000_000,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "replend-serve-ckpt-prop-{}-{case}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let config = ServeConfig {
            partitions: 3,
            seed: 7,
            ..ServeConfig::default()
        };
        let cut = ops.len() * cut_pct / 100;

        let reference = ReputationService::in_memory(config);
        for op in &ops {
            issue(&reference, op);
        }

        let full_path = dir.join("full.wal");
        {
            let (service, _) = ReputationService::open(config, &full_path).unwrap();
            for op in &ops {
                issue(&service, op);
            }
        }
        let (full, full_summary) = ReputationService::open(config, &full_path).unwrap();
        prop_assert_eq!(full_summary.records, ops.len() as u64);
        prop_assert!(!full_summary.restored_from_checkpoint());

        let cut_path = dir.join("cut.wal");
        {
            let (service, _) = ReputationService::open(config, &cut_path).unwrap();
            for op in &ops[..cut] {
                issue(&service, op);
            }
            service.checkpoint().unwrap();
            for op in &ops[cut..] {
                issue(&service, op);
            }
        }
        let (restored, summary) = ReputationService::open(config, &cut_path).unwrap();
        prop_assert!(summary.restored_from_checkpoint());
        prop_assert_eq!(summary.checkpoint_generation, 1);
        prop_assert_eq!(summary.replayed_from_checkpoint, cut as u64);
        prop_assert_eq!(summary.records, (ops.len() - cut) as u64);

        prop_assert_eq!(fingerprint(&full), fingerprint(&reference));
        prop_assert_eq!(fingerprint(&restored), fingerprint(&reference));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Checkpoints compose: repeated checkpoint/restart cycles (advancing
/// the journal-seed generation each time), group-committed suffixes,
/// and a final restart all land on the in-memory reference state,
/// with the replay summary attributing every op to the right source.
#[test]
fn checkpoints_compose_across_generations() {
    let dir = std::env::temp_dir().join(format!("replend-serve-gens-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("gen.wal");
    let config = ServeConfig {
        partitions: 4,
        seed: 13,
        journal_sync: SyncPolicy::Batch(8),
        ..ServeConfig::default()
    };
    let reference = ReputationService::in_memory(config);

    let segments: Vec<Vec<JournalOp>> = (0..3u64)
        .map(|g| {
            let peers = 10 * (g + 1);
            let mut segment = vec![JournalOp::RegisterBatch {
                batch: (g * 10..g * 10 + 10).map(|p| (PeerId(p), 0.5)).collect(),
            }];
            for batch in op_stream(900 + g, peers, 4, 15) {
                segment.push(JournalOp::Batch { batch });
            }
            segment.push(JournalOp::Remove { peer: PeerId(g) });
            segment
        })
        .collect();
    let ops_per_segment = segments[0].len() as u64;

    for (g, segment) in segments.iter().enumerate() {
        let (service, summary) = ReputationService::open(config, &path).expect("reopen");
        assert_eq!(summary.checkpoint_generation, g as u64);
        assert_eq!(summary.records, 0, "post-compaction journal is empty");
        assert_eq!(summary.replayed_from_checkpoint, g as u64 * ops_per_segment);
        for op in segment {
            issue(&service, op);
            issue(&reference, op);
        }
        let report = service.checkpoint().expect("checkpoint");
        assert_eq!(report.generation, g as u64 + 1);
        assert_eq!(report.ops, (g as u64 + 1) * ops_per_segment);
    }

    // A trailing un-checkpointed suffix, then the final restart.
    let suffix: Vec<JournalOp> = op_stream(999, 30, 3, 20)
        .into_iter()
        .map(|batch| JournalOp::Batch { batch })
        .collect();
    {
        let (service, _) = ReputationService::open(config, &path).expect("reopen");
        for op in &suffix {
            issue(&service, op);
            issue(&reference, op);
        }
    }
    let (finale, summary) = ReputationService::open(config, &path).expect("final reopen");
    assert_eq!(summary.checkpoint_generation, 3);
    assert_eq!(summary.replayed_from_checkpoint, 3 * ops_per_segment);
    assert_eq!(summary.records, suffix.len() as u64);
    assert_eq!(fingerprint(&finale), fingerprint(&reference));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The bytes of a small journal holding every op kind, written once
/// per test binary.
fn mutation_journal(config: ServeConfig) -> &'static [u8] {
    static JOURNAL: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    JOURNAL.get_or_init(|| {
        let path = std::env::temp_dir().join(format!(
            "replend-serve-mutation-src-{}.wal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        {
            let (service, _) = ReputationService::open(config, &path).expect("open");
            let mut ops = vec![
                JournalOp::RegisterBatch {
                    batch: (0..12).map(|p| (PeerId(p), 0.5)).collect(),
                },
                JournalOp::Register {
                    peer: PeerId(12),
                    initial: 0.25,
                },
            ];
            ops.extend(
                op_stream(5, 13, 3, 6)
                    .into_iter()
                    .map(|batch| JournalOp::Batch { batch }),
            );
            ops.push(JournalOp::Credit {
                subject: PeerId(1),
                amount: 0.125,
            });
            ops.push(JournalOp::Debit {
                subject: PeerId(2),
                amount: 0.25,
            });
            ops.push(JournalOp::Remove { peer: PeerId(3) });
            for op in &ops {
                issue(&service, op);
            }
        }
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        bytes
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

    /// Journal decoding is total: a journal with flipped bits,
    /// overwritten bytes or a truncation opens to `Ok` or a typed
    /// `Err`, never a panic.
    #[test]
    fn mutated_journal_opens_or_fails_typed(
        edits in proptest::collection::vec(
            (0u8..3, proptest::num::u64::ANY, proptest::num::u8::ANY),
            1..4,
        ),
    ) {
        let config = ServeConfig {
            partitions: 2,
            seed: 0x5EED,
            ..ServeConfig::default()
        };
        let mut bytes = mutation_journal(config).to_vec();
        for (kind, at, byte) in edits {
            if bytes.is_empty() {
                break;
            }
            let i = (at % bytes.len() as u64) as usize;
            match kind {
                0 => bytes[i] ^= 1 << (byte % 8),
                1 => bytes[i] = byte,
                _ => bytes.truncate(i),
            }
        }
        let path = std::env::temp_dir().join(format!(
            "replend-serve-mutated-{}.wal",
            std::process::id()
        ));
        std::fs::write(&path, &bytes).unwrap();
        let _ = ReputationService::open(config, &path);
        let _ = std::fs::remove_file(&path);
    }
}
