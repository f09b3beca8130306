//! The `RLCK` checkpoint golden: a fixed op stream through a
//! journalled [`ReputationService`] must checkpoint to exactly the
//! committed bytes under `tests/golden/`, and decoding, importing and
//! re-exporting those bytes must reproduce them exactly.
//!
//! The stream covers every path of the engine state that the
//! checkpoint carries:
//!
//! * a reporter that departs and re-joins — its interaction counts
//!   are forgotten while the credibility other subjects assigned it is
//!   kept;
//! * a removed subject whose arena handle is reused by a new subject
//!   homed in the same partition, and a removal that stays removed
//!   (a free handle in the checkpoint);
//! * crash-recovered replica lanes (`crash_prob > 0`): lane copies
//!   from a sibling with three score managers, lane resets with one;
//! * credits and debits, and reports from departed reporters and about
//!   departed subjects (ignored by the engine).
//!
//! The goldens pin the checkpoint layout against in-memory layout
//! changes: a refactor of how the engine stores its state must leave
//! these bytes unchanged, or bump the `RLCK` version. Regenerate them
//! only for an intended format change, with
//! `cargo test -p replend-tests --test checkpoint_golden -- --ignored`.
//!
//! The goldens also seed the corruption tests: the envelope carries no
//! checksum, so a flipped, overwritten or truncated partition blob
//! must decode and import to `Ok` or `Err` — never a panic or an
//! allocation sized by a corrupt field.

use proptest::prelude::*;
use replend_core::serve::{checkpoint_path, ReputationService, ServeConfig, StatusPolicy};
use replend_rocq::state::{InvalidState, PartitionCheckpoint};
use replend_rocq::{shard_of, ConcurrentEngine, RocqParams};
use replend_types::{Feedback, PeerId, Reputation};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// The serve layer's checkpoint document, field for field (the wire
/// format is positional, so a mirror decodes and encodes the same
/// bytes).
#[derive(Serialize, Deserialize)]
struct CheckpointDoc {
    generation: u64,
    ops: u64,
    policy: StatusPolicy,
    partitions: Vec<Vec<u8>>,
}

const PARTITIONS: usize = 3;
const PEERS: u64 = 30;
const SEED: u64 = 0x601D;

/// `(num_sm, golden file)` per case: one score manager makes a crash
/// reset the lane, three make it copy a sibling.
const CASES: [(usize, &str); 2] = [(1, "checkpoint_sm1.rlck"), (3, "checkpoint_sm3.rlck")];

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(name)
}

fn config(num_sm: usize) -> ServeConfig {
    ServeConfig {
        params: RocqParams {
            crash_prob: 0.5,
            ..RocqParams::default()
        },
        num_sm,
        partitions: PARTITIONS,
        seed: SEED,
        ..ServeConfig::default()
    }
}

/// Round `round`'s feedback: every peer in `reporters` reports once on
/// a subject striding over `0..PEERS` (never itself).
fn round_batch(round: u64, reporters: &[u64]) -> Vec<Feedback> {
    reporters
        .iter()
        .map(|&p| {
            let mut subject = (p * 7 + round * 3 + 1) % PEERS;
            if subject == p {
                subject = (subject + 1) % PEERS;
            }
            let opinion = if (p + round) % 3 == 0 { 0.0 } else { 1.0 };
            Feedback::new(PeerId(p), PeerId(subject), opinion)
        })
        .collect()
}

/// Runs the fixed op stream into a journalled service and returns the
/// bytes of the checkpoint it ends with.
fn checkpoint_bytes(num_sm: usize) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!(
        "replend-ckpt-golden-{}-{num_sm}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("golden.wal");
    let bytes = {
        let (service, _) = ReputationService::open(config(num_sm), &journal).unwrap();
        let all: Vec<u64> = (0..PEERS).collect();
        service
            .register_batch(
                &all.iter()
                    .map(|&p| (PeerId(p), Reputation::new(0.2 + (p % 5) as f64 * 0.15)))
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        for round in 0..6 {
            service.report_batch(&round_batch(round, &all)).unwrap();
        }
        // Reporter 4 departs (counts forgotten everywhere) and
        // re-joins (the credibility it earned is kept).
        service.remove_peer(PeerId(4)).unwrap();
        service.register_peer(PeerId(4), Reputation::HALF).unwrap();
        // Subject 9 leaves; a newcomer homed in the same partition
        // takes over its arena handle.
        service.remove_peer(PeerId(9)).unwrap();
        let newcomer = (1000u64..)
            .find(|&p| shard_of(PeerId(p), PARTITIONS) == shard_of(PeerId(9), PARTITIONS))
            .unwrap();
        service
            .register_peer(PeerId(newcomer), Reputation::new(0.7))
            .unwrap();
        service.credit(PeerId(2), 0.2).unwrap();
        service.debit(PeerId(3), 0.3).unwrap();
        let mut reporters = all.clone();
        reporters.push(newcomer);
        for round in 6..10 {
            // Reports by and about the departed peer 9 are ignored.
            service
                .report_batch(&round_batch(round, &reporters))
                .unwrap();
        }
        // A removal that stays removed leaves a free handle behind.
        service.remove_peer(PeerId(11)).unwrap();
        service.report_batch(&round_batch(10, &reporters)).unwrap();
        service.checkpoint().unwrap();
        std::fs::read(checkpoint_path(&journal)).unwrap()
    };
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// Decodes `bytes`, imports the partitions, re-exports them and
/// re-encodes the document around them.
fn reencode(bytes: &[u8]) -> (Vec<u8>, Vec<PartitionCheckpoint>) {
    let (seed, doc) = replend_wire::decode_checkpoint::<CheckpointDoc>(bytes).unwrap();
    let parts: Vec<PartitionCheckpoint> = doc
        .partitions
        .iter()
        .map(|blob| replend_wire::from_bytes(blob).unwrap())
        .collect();
    let engine = ConcurrentEngine::import_partitions(&parts).expect("golden imports");
    let again = CheckpointDoc {
        partitions: engine
            .export_partitions()
            .iter()
            .map(|part| replend_wire::to_bytes(part).unwrap())
            .collect(),
        ..doc
    };
    (
        replend_wire::encode_checkpoint(seed, &again).unwrap(),
        parts,
    )
}

#[test]
fn checkpoint_bytes_match_golden_and_round_trip() {
    for (num_sm, name) in CASES {
        let bytes = checkpoint_bytes(num_sm);
        let golden = std::fs::read(golden_path(name)).unwrap();
        assert!(
            bytes == golden,
            "{name}: the op stream checkpointed to {} bytes that differ from the \
             {}-byte golden",
            bytes.len(),
            golden.len()
        );
        let (again, parts) = reencode(&golden);
        assert!(
            again == golden,
            "{name}: import + re-export changed the checkpoint bytes"
        );

        // The stream reached every path it is meant to cover.
        let shards = || parts.iter().flat_map(|p| &p.engine.shards);
        assert!(
            shards().map(|s| s.crash_losses).sum::<u64>() > 0,
            "{name}: no crash recovery"
        );
        assert_eq!(
            shards().map(|s| s.free.len()).sum::<usize>(),
            1,
            "{name}: exactly one vacated handle stays free"
        );
        assert!(
            shards().any(|s| s.book_reporters.contains(&PeerId(4))),
            "{name}: the re-joined reporter's credibility rows survive"
        );
    }
}

/// The partition blobs of golden `name`.
fn golden_blobs(name: &str) -> Vec<Vec<u8>> {
    let golden = std::fs::read(golden_path(name)).unwrap();
    replend_wire::decode_checkpoint::<CheckpointDoc>(&golden)
        .unwrap()
        .1
        .partitions
}

/// Decodes and imports partition blobs the way the serve layer's
/// restore does; `None` when a blob fails to decode.
fn import_blobs(blobs: &[Vec<u8>]) -> Option<Result<ConcurrentEngine, InvalidState>> {
    let parts: Vec<PartitionCheckpoint> = blobs
        .iter()
        .map(|blob| replend_wire::from_bytes(blob).ok())
        .collect::<Option<_>>()?;
    Some(ConcurrentEngine::import_partitions(&parts))
}

/// One flipped bit in a partition's numSM (1 → 2^62 + 1) wraps
/// `8 slots × numSM` back to 8 lanes, so a length check alone passes
/// it. Import must refuse it instead of pushing 2^62 lanes.
#[test]
fn golden_num_sm_bit_flip_is_invalid_state() {
    let blobs = golden_blobs("checkpoint_sm1.rlck");
    let part: PartitionCheckpoint = replend_wire::from_bytes(&blobs[2]).unwrap();
    assert_eq!(part.engine.num_sm, 1);
    // numSM is the u64 right after the params in the positional layout.
    let at = replend_wire::to_bytes(&part.engine.params).unwrap().len() + 7;
    let flip = |blob: &mut Vec<u8>| blob[at] ^= 1 << 6;

    let mut one = blobs.clone();
    flip(&mut one[2]);
    let flipped: PartitionCheckpoint = replend_wire::from_bytes(&one[2]).unwrap();
    assert_eq!(flipped.engine.num_sm, (1 << 62) + 1);
    assert!(matches!(import_blobs(&one), Some(Err(_))), "one partition");

    // The same flip in every partition passes the cross-partition
    // agreement check; the lane count must still be refused.
    let mut all = blobs;
    all.iter_mut().for_each(flip);
    assert!(
        matches!(import_blobs(&all), Some(Err(_))),
        "every partition"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

    /// Flipped bits, overwritten bytes and truncations anywhere in a
    /// golden's partition blobs decode and import to `Ok` or `Err`.
    #[test]
    fn mutated_golden_partitions_never_panic(
        case in 0..CASES.len(),
        part in 0..PARTITIONS,
        edits in proptest::collection::vec(
            (0u8..3, proptest::num::u64::ANY, proptest::num::u8::ANY),
            1..4,
        ),
    ) {
        let mut blobs = golden_blobs(CASES[case].1);
        let blob = &mut blobs[part];
        for (kind, at, byte) in edits {
            if blob.is_empty() {
                break;
            }
            let i = (at % blob.len() as u64) as usize;
            match kind {
                0 => blob[i] ^= 1 << (byte % 8),
                1 => blob[i] = byte,
                _ => blob.truncate(i),
            }
        }
        let _ = import_blobs(&blobs);
    }
}

/// Rewrites the goldens from the current code (run with `--ignored`).
#[test]
#[ignore = "writes tests/golden/checkpoint_*.rlck"]
fn write_checkpoint_goldens() {
    for (num_sm, name) in CASES {
        std::fs::write(golden_path(name), checkpoint_bytes(num_sm)).unwrap();
    }
}
