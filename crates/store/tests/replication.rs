//! Buddy replication at the store level: cursor-resumed pushes into a
//! local replica, idempotent imports, and full adoption after losing
//! the primary. The socket transport rides these same primitives and
//! is tested in `ckpt-serve`.

use ckpt_core::{incremental, Compressor, CompressorConfig};
use ckpt_deflate::Level;
use ckpt_store::{LocalReplica, PutGen, ReplicaSink, SegmentFormat, Store, StoreError};
use ckpt_tensor::Tensor;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "ckpt-store-repl-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn packed(salt: u64) -> Vec<u8> {
    let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
    let t = Tensor::from_fn(&[11, 6], |ix| {
        ((ix[0] * 6 + ix[1]) as f64 * 0.29 + salt as f64).sin() * 45.0 + 180.0
    })
    .unwrap();
    comp.compress(&t).unwrap().bytes
}

/// Saves a base full plus `incs` exact increments; returns all gens.
fn seed_chain(store: &mut Store, incs: usize) -> Vec<u64> {
    let base_bytes = packed(7);
    let mut gens =
        vec![store.save_full(0, SegmentFormat::Array, &[&base_bytes], 1).unwrap()];
    let mut prev = Compressor::decompress(&base_bytes).unwrap();
    for step in 1..=incs as u64 {
        let mut cur = prev.clone();
        for i in (0..cur.len()).step_by(13) {
            cur.as_mut_slice()[i] += step as f64;
        }
        let (delta, _) = incremental::increment(&prev, &cur, Level::Fast).unwrap();
        gens.push(store.save_increment(step, *gens.last().unwrap(), &[&delta], 1).unwrap());
        prev = cur;
    }
    gens
}

/// Every live generation of `a` must be byte-identical in `b`.
fn assert_mirrored(a: &Store, b: &Store) {
    for info in a.generations().iter().filter(|g| g.committed && g.retired.is_none()) {
        let binfo = b
            .generations()
            .into_iter()
            .find(|g| g.gen == info.gen)
            .unwrap_or_else(|| panic!("replica lacks generation {}", info.gen));
        assert_eq!(binfo.step, info.step);
        assert_eq!(binfo.format, info.format);
        assert_eq!(binfo.base_gen, info.base_gen);
        assert_eq!(binfo.error_bound, info.error_bound);
        for rank in 0..info.ranks {
            assert_eq!(
                a.read_segment(info.gen, rank).unwrap(),
                b.read_segment(info.gen, rank).unwrap(),
                "gen {} rank {rank} differs",
                info.gen
            );
        }
    }
}

#[test]
fn push_mirrors_generations_and_advances_cursor() {
    let pdir = scratch("push-primary");
    let rdir = scratch("push-replica");
    let mut primary = Store::open(&pdir).unwrap();
    let gens = seed_chain(&mut primary, 3);
    assert_eq!(primary.replication_cursor(), None);

    let mut replica = Store::open(&rdir).unwrap();
    let report = primary.push_to(&mut LocalReplica(&mut replica)).unwrap();
    assert_eq!(report.pushed, gens);
    assert!(report.skipped.is_empty());
    assert_eq!(report.cursor, Some(*gens.last().unwrap()));
    assert_eq!(primary.replication_cursor(), Some(*gens.last().unwrap()));
    assert_mirrored(&primary, &replica);
    // The replica's chains restore to the same tensors.
    let tip = *gens.last().unwrap();
    assert!(replica.restore_array(tip, 0).unwrap() == primary.restore_array(tip, 0).unwrap());

    // A second push has nothing to do.
    let report = primary.push_to(&mut LocalReplica(&mut replica)).unwrap();
    assert!(report.pushed.is_empty());

    // New saves push incrementally from the cursor.
    let more = packed(99);
    let g = primary.save_full(50, SegmentFormat::Array, &[&more], 1).unwrap();
    let report = primary.push_to(&mut LocalReplica(&mut replica)).unwrap();
    assert_eq!(report.pushed, vec![g]);
    assert_mirrored(&primary, &replica);

    // Cursor survives reopen.
    drop(primary);
    let primary = Store::open(&pdir).unwrap();
    assert_eq!(primary.replication_cursor(), Some(g));
    let _ = fs::remove_dir_all(&pdir);
    let _ = fs::remove_dir_all(&rdir);
}

#[test]
#[expect(clippy::disallowed_methods, reason = "the test damages the replication cursor on purpose")]
fn damaged_cursor_causes_repush_not_divergence() {
    let pdir = scratch("cursor-primary");
    let rdir = scratch("cursor-replica");
    let mut primary = Store::open(&pdir).unwrap();
    let gens = seed_chain(&mut primary, 2);
    let mut replica = Store::open(&rdir).unwrap();
    primary.push_to(&mut LocalReplica(&mut replica)).unwrap();

    // Corrupt the cursor: the next push starts from scratch, and the
    // idempotent import absorbs every duplicate.
    let cursor_path = pdir.join("replication.cursor");
    let mut bytes = fs::read(&cursor_path).unwrap();
    bytes[10] ^= 0xFF;
    fs::write(&cursor_path, &bytes).unwrap();
    assert_eq!(primary.replication_cursor(), None);

    let report = primary.push_to(&mut LocalReplica(&mut replica)).unwrap();
    assert_eq!(report.pushed, gens, "everything re-pushed");
    assert_mirrored(&primary, &replica);
    assert_eq!(primary.replication_cursor(), Some(*gens.last().unwrap()));
    let _ = fs::remove_dir_all(&pdir);
    let _ = fs::remove_dir_all(&rdir);
}

#[test]
fn divergent_import_is_rejected() {
    let rdir = scratch("diverge");
    let mut replica = Store::open(&rdir).unwrap();
    let payload = packed(1);
    let gen = replica.save_full(5, SegmentFormat::Array, &[&payload], 1).unwrap();

    // Same gen id, different bytes: must refuse, not overwrite.
    let other = packed(2);
    let put = PutGen {
        gen,
        step: 5,
        format: SegmentFormat::Array,
        base_gen: gen,
        error_bound: None,
        payloads: vec![other],
    };
    assert!(matches!(replica.import_generation(&put), Err(StoreError::Chain(_))));
    // Identical re-import is the idempotent no-op.
    let put = PutGen {
        gen,
        step: 5,
        format: SegmentFormat::Array,
        base_gen: gen,
        error_bound: None,
        payloads: vec![payload.clone()],
    };
    assert!(!replica.import_generation(&put).unwrap());
    assert_eq!(replica.read_segment(gen, 0).unwrap(), payload);
    let _ = fs::remove_dir_all(&rdir);
}

#[test]
fn increment_import_without_base_is_rejected() {
    let rdir = scratch("no-base");
    let mut replica = Store::open(&rdir).unwrap();
    let put = PutGen {
        gen: 9,
        step: 9,
        format: SegmentFormat::Increment,
        base_gen: 3,
        error_bound: None,
        payloads: vec![vec![1, 2, 3]],
    };
    assert!(matches!(replica.import_generation(&put), Err(StoreError::Chain(_))));
    let _ = fs::remove_dir_all(&rdir);
}

#[test]
fn lost_primary_is_rebuilt_from_its_buddy() {
    let pdir = scratch("adopt-primary");
    let rdir = scratch("adopt-replica");
    let mut primary = Store::open(&pdir).unwrap();
    let gens = seed_chain(&mut primary, 3);
    let expected_tip = primary.restore_array(*gens.last().unwrap(), 0).unwrap();
    let mut replica = Store::open(&rdir).unwrap();
    primary.push_to(&mut LocalReplica(&mut replica)).unwrap();

    // The node dies and takes the primary with it.
    drop(primary);
    fs::remove_dir_all(&pdir).unwrap();

    // A fresh store adopts the buddy's contents.
    let mut rebuilt = Store::open(&pdir).unwrap();
    let imported = rebuilt.adopt_from(&replica).unwrap();
    assert_eq!(imported, gens);
    assert_mirrored(&replica, &rebuilt);
    // Every generation restores bit-exactly, including the full chain.
    assert!(rebuilt.restore_array(*gens.last().unwrap(), 0).unwrap() == expected_tip);
    assert!(rebuilt.verify().unwrap().clean());
    // New saves continue above the adopted ids.
    let p = packed(77);
    let g = rebuilt.save_full(60, SegmentFormat::Array, &[&p], 1).unwrap();
    assert!(g > *gens.last().unwrap());
    let _ = fs::remove_dir_all(&pdir);
    let _ = fs::remove_dir_all(&rdir);
}

#[test]
fn adoption_is_idempotent_over_partial_copies() {
    let pdir = scratch("partial-primary");
    let rdir = scratch("partial-replica");
    let mut primary = Store::open(&pdir).unwrap();
    seed_chain(&mut primary, 2);
    let mut replica = Store::open(&rdir).unwrap();
    primary.push_to(&mut LocalReplica(&mut replica)).unwrap();

    // Interrupted adoption: first run imported everything; a rerun
    // finds nothing new.
    let ndir = scratch("partial-new");
    let mut rebuilt = Store::open(&ndir).unwrap();
    let first = rebuilt.adopt_from(&replica).unwrap();
    assert_eq!(first.len(), 3);
    let second = rebuilt.adopt_from(&replica).unwrap();
    assert!(second.is_empty());
    assert_mirrored(&replica, &rebuilt);
    let _ = fs::remove_dir_all(&pdir);
    let _ = fs::remove_dir_all(&rdir);
    let _ = fs::remove_dir_all(&ndir);
}

/// A sink that fails after `ok` puts: the cursor must stop exactly at
/// the last delivered generation so a retry resumes there.
struct FlakySink<'a> {
    inner: LocalReplica<'a>,
    ok: usize,
    puts: usize,
}

impl ReplicaSink for FlakySink<'_> {
    fn put(&mut self, put: &PutGen) -> Result<(), StoreError> {
        if self.puts >= self.ok {
            return Err(StoreError::Chain("buddy unreachable".into()));
        }
        self.puts += 1;
        self.inner.put(put)
    }
}

#[test]
fn failed_push_resumes_from_the_cursor() {
    let pdir = scratch("resume-primary");
    let rdir = scratch("resume-replica");
    let mut primary = Store::open(&pdir).unwrap();
    let gens = seed_chain(&mut primary, 3);
    let mut replica = Store::open(&rdir).unwrap();

    let mut flaky = FlakySink { inner: LocalReplica(&mut replica), ok: 2, puts: 0 };
    assert!(primary.push_to(&mut flaky).is_err());
    // A buddy that is down must not take the primary down: the local
    // disk was last written by a durable cursor update, so nothing is
    // poisoned, the next checkpoint saves, and the cursor holds the
    // last *delivered* generation.
    assert!(!primary.poisoned());
    assert_eq!(primary.replication_cursor(), Some(gens[1]));
    let after = primary.save_full(9, SegmentFormat::Array, &[&packed(9)], 1).unwrap();

    // The retry resumes from the cursor — no reopen in between.
    let report = primary.push_to(&mut LocalReplica(&mut replica)).unwrap();
    assert_eq!(report.pushed, [gens[2], gens[3], after], "resumed, not restarted");
    assert_mirrored(&primary, &replica);
    let _ = fs::remove_dir_all(&pdir);
    let _ = fs::remove_dir_all(&rdir);
}
