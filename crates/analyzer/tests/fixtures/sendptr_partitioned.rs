//! CLEAN fixture: both sanctioned index sources — a
//! `partition_ranges` loop and a fan-out task id. Expected: no
//! findings.
//!
//! Not compiled — scanned by `tests/fixtures.rs`.

fn fill(buf: &mut [f64], workers: usize) {
    let ptr = SendPtr::new(buf.as_mut_ptr(), buf.len());
    for range in partition_ranges(buf.len(), workers) {
        for i in range {
            // SAFETY: `partition_ranges` yields disjoint ranges; each
            // worker owns its indices exclusively.
            unsafe { ptr.write(i, 0.0) };
        }
    }
}

fn fanout(slots: &mut [u8], workers: usize) {
    let ptr = SendPtr::new(slots.as_mut_ptr(), slots.len());
    map_shards(items, workers, |t, _| {
        // SAFETY: each shard id is handed to exactly one worker.
        unsafe { ptr.write(t, 1) };
    });
}
