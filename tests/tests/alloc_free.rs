//! Allocation accounting on the hot and hostile paths.
//!
//! * A steady-state `report_batch` + `drain_deltas` cycle on the
//!   arena engine performs **zero** heap allocations. After a warm-up
//!   that grows every engine-owned scratch buffer, hash table and the
//!   caller's delta buffer to the workload's working set, further
//!   identical batches must not allocate at all: the handle index and
//!   the pair table only probe existing entries, the score-state slab
//!   is written in place, the first-touch list is cleared-not-freed,
//!   and the drain's canonical merge sorts a reused index buffer in
//!   place.
//! * Reading a frame whose length header is hostile allocates only
//!   for the bytes actually present, not for the length it claims.
//!
//! This binary installs a counting global allocator, which is why
//! these tests live in their own integration-test file. The counters
//! are per thread, so tests running in parallel in this binary do not
//! see each other's allocations.

use replend_rocq::{ReputationEngine, RocqEngine, RocqParams};
use replend_types::{Feedback, PeerId, Reputation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `alloc`/`realloc`/`alloc_zeroed` calls made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested by those calls (a `realloc` counts its new
    /// size).
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation of `bytes` on the calling thread. `try_with`
/// keeps the allocator usable while a thread's locals are torn down.
fn count(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = ALLOCATED_BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

/// `(allocations, bytes)` made by the calling thread so far.
fn counters() -> (u64, u64) {
    (ALLOCATIONS.with(Cell::get), ALLOCATED_BYTES.with(Cell::get))
}

struct CountingAllocator;

// SAFETY: delegates every operation to `System`, only counting calls.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// A frame header claiming `u32::MAX` bytes over a 3-byte stream is
/// a truncated frame, and reading it allocates for the bytes present
/// only — a hostile header cannot make the reader reserve gigabytes.
#[test]
fn hostile_frame_header_allocates_only_what_arrives() {
    let mut stream = u32::MAX.to_le_bytes().to_vec();
    stream.extend_from_slice(&[1, 2, 3]);
    let before = counters().1;
    let err = replend_wire::read_frame(&mut stream.as_slice()).unwrap_err();
    let allocated = counters().1 - before;
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    assert!(
        allocated < 1 << 20,
        "reading a 3-byte frame allocated {allocated} bytes"
    );
}

#[test]
fn steady_state_report_batch_performs_zero_allocations() {
    const SUBJECTS: u64 = 1_500;
    // Multi-shard engine, so the test covers shard routing, per-shard
    // first-touch dedup and the cross-shard canonical drain.
    let mut engine = RocqEngine::sharded(RocqParams::default(), 6, 4, 0xA11C);
    for p in 0..SUBJECTS {
        engine.register_peer(PeerId(p), Reputation::ONE);
    }
    // A full-population tick: every subject receives one opinion,
    // reporters stride over the membership. The same batch repeats,
    // so the steady state reuses every (reporter, subject) book row.
    let batch: Vec<Feedback> = (0..SUBJECTS)
        .map(|i| {
            Feedback::new(
                PeerId((i * 7 + 1) % SUBJECTS),
                PeerId(i % SUBJECTS),
                (i % 2) as f64,
            )
        })
        .collect();
    let mut deltas = Vec::new();

    // Warm-up: grow scratch buffers, book rows and the caller's
    // delta buffer to the working set.
    for _ in 0..3 {
        engine.report_batch(&batch);
        deltas.clear();
        engine.drain_deltas(&mut deltas);
    }
    // Subjects fed opinion 0 keep moving toward 0 and emit a delta
    // every batch; subjects fed opinion 1 already sit at 1.0 (their
    // registration value), so their aggregate is a bitwise no-op.
    assert_eq!(
        deltas.len(),
        SUBJECTS as usize / 2,
        "every even-id subject's aggregate should move each batch"
    );

    // Measured region: the steady-state hot path must not allocate.
    let mut checksum = 0.0f64;
    let before = counters().0;
    for _ in 0..8 {
        engine.report_batch(&batch);
        deltas.clear();
        engine.drain_deltas(&mut deltas);
        checksum += engine.reputation(PeerId(7)).unwrap().value();
        checksum += deltas.len() as f64;
    }
    let after = counters().0;

    assert!(checksum > 0.0, "hot path must have produced results");
    assert_eq!(
        after - before,
        0,
        "steady-state report_batch/drain_deltas cycle allocated"
    );
}
