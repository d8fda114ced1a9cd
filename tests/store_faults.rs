//! Crash-consistency torture for the durable store under injected
//! faults.
//!
//! Every test arms one or more named failpoints (the `failpoint` compat
//! crate's process-global registry), drives a store operation into the
//! fault, and then asserts the invariant the store promises: **a failed
//! or killed `SAVE`/`FORGET` leaves the previous manifest generation and
//! its snapshots fully servable**, both in the live process and after a
//! cold reopen from disk.
//!
//! The failpoint registry is process-global and `cargo test` runs test
//! functions on parallel threads, so every test takes the `FAULT_LOCK`
//! mutex and disarms its sites before releasing it.

use parscan::prelude::*;
use parscan::store::{manifest, AuditKind, IndexStore, ManifestEntry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes tests that arm the process-global failpoint registry.
fn fault_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// RAII guard: holds the fault lock and disarms everything on drop so a
/// failing assertion cannot leak an armed failpoint into the next test.
struct FaultGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl FaultGuard {
    fn new() -> FaultGuard {
        // Lock first: clearing before the lock is held would disarm a
        // failpoint that the test currently holding it has armed.
        let lock = fault_lock();
        failpoint::clear();
        FaultGuard(lock)
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        failpoint::clear();
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "parscan-store-faults-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_index(seed: u64) -> ScanIndex {
    let (g, _) = parscan::graph::generators::planted_partition(120, 4, 8.0, 1.0, seed);
    ScanIndex::build(g, IndexConfig::default())
}

/// Names a manifest generation compactly for assertions: sorted
/// `name:bytes` pairs.
fn fingerprint(entries: &[ManifestEntry]) -> Vec<String> {
    let mut v: Vec<String> = entries
        .iter()
        .map(|e| format!("{}:{}", e.name, e.bytes))
        .collect();
    v.sort();
    v
}

/// Asserts a store directory cold-opens to exactly `expect` and that
/// every entry's snapshot loads.
fn assert_reopens_to(dir: &PathBuf, expect: &[String]) {
    let reopened = IndexStore::open(dir).expect("store must reopen after a failed operation");
    assert_eq!(fingerprint(&reopened.entries()), expect);
    for entry in reopened.entries() {
        let (index, _) = reopened
            .load(&entry.name)
            .expect("every manifest entry must load after recovery");
        assert!(index.graph().num_vertices() > 0);
    }
}

/// Every failpoint a SAVE can die at. The first five fire inside
/// `atomic_write` (snapshot bytes, then again for the manifest rewrite);
/// the `store.*`/`manifest.*` sites bracket the higher-level ordering.
const SAVE_SITES: &[&str] = &[
    "store.save.snapshot",
    "persist.create",
    "persist.write",
    "persist.sync",
    "persist.rename",
    "persist.dirsync",
    "store.save.manifest",
    "manifest.write",
];

#[test]
fn error_at_every_save_failpoint_preserves_previous_generation() {
    let _guard = FaultGuard::new();
    let dir = tmp_dir("error-sweep");
    let store = IndexStore::open(&dir).unwrap();
    store.save("alpha", &small_index(1), false, 64).unwrap();
    store.save("beta", &small_index(2), true, 32).unwrap();
    let gen1 = fingerprint(&store.entries());
    let mut failed_saves = 0;

    for site in SAVE_SITES {
        failpoint::configure(site, "error").unwrap();
        let err = store
            .save("alpha", &small_index(3), false, 64)
            .expect_err(&format!("save must fail with {site} armed"));
        assert!(
            err.to_string().contains("injected"),
            "{site}: error should be the injected one, got: {err}"
        );
        failpoint::remove(site);
        failed_saves += 1;

        // The live process still serves generation 1...
        assert_eq!(
            fingerprint(&store.entries()),
            gen1,
            "{site}: in-memory manifest must not advance past a failed write"
        );
        store.load("alpha").expect("previous snapshot must load");
        // ...and so does a cold restart.
        assert_reopens_to(&dir, &gen1);
    }
    assert_eq!(store.io_error_count(), failed_saves);

    // With the faults gone the same save goes through and both memory
    // and disk advance together.
    store.save("alpha", &small_index(3), false, 64).unwrap();
    let gen2 = fingerprint(&store.entries());
    assert_ne!(gen1, gen2);
    assert_reopens_to(&dir, &gen2);
}

#[test]
fn enospc_is_surfaced_as_a_typed_out_of_space_error() {
    let _guard = FaultGuard::new();
    let dir = tmp_dir("enospc");
    let store = IndexStore::open(&dir).unwrap();
    store.save("g", &small_index(4), false, 64).unwrap();
    let gen1 = fingerprint(&store.entries());

    failpoint::configure("persist.write", "enospc").unwrap();
    let err = store.save("g", &small_index(5), false, 64).unwrap_err();
    failpoint::remove("persist.write");
    assert_eq!(err.raw_os_error(), Some(28), "want ENOSPC, got {err:?}");
    assert_eq!(fingerprint(&store.entries()), gen1);
    assert_reopens_to(&dir, &gen1);
}

#[test]
fn short_writes_tear_the_temp_file_never_the_snapshot() {
    let _guard = FaultGuard::new();
    let dir = tmp_dir("short-write");
    let store = IndexStore::open(&dir).unwrap();
    store.save("g", &small_index(6), false, 64).unwrap();
    let gen1 = fingerprint(&store.entries());

    // Tear the write at several prefix lengths: the header, mid-body,
    // and one byte shy of complete.
    let full = store.entry("g").unwrap().bytes as usize;
    for accept in [0, 8, full / 2, full.saturating_sub(1)] {
        failpoint::configure("persist.write", &format!("short({accept})")).unwrap();
        let err = store.save("g", &small_index(6), false, 64).unwrap_err();
        assert!(err.to_string().contains("short write"), "got {err}");
        failpoint::remove("persist.write");
        assert_eq!(fingerprint(&store.entries()), gen1);
        assert_reopens_to(&dir, &gen1);
    }

    // No torn temp files linger after the error path (atomic_write
    // removes its tmp on failure).
    let stray: Vec<_> = std::fs::read_dir(dir.join("snapshots"))
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp."))
        .collect();
    assert!(stray.is_empty(), "leftover temp files: {stray:?}");
}

#[test]
fn panic_at_every_save_failpoint_is_recoverable_like_a_kill() {
    let _guard = FaultGuard::new();
    let dir = tmp_dir("panic-sweep");
    {
        let store = IndexStore::open(&dir).unwrap();
        store.save("alpha", &small_index(7), false, 64).unwrap();
        store.save("beta", &small_index(8), true, 32).unwrap();
    }
    let gen1 = fingerprint(&IndexStore::open(&dir).unwrap().entries());

    for site in SAVE_SITES {
        // A fresh store per attempt: the panic may poison the dying
        // store's internal locks, exactly as a kill would discard them.
        let store = IndexStore::open(&dir).unwrap();
        failpoint::configure(site, "panic").unwrap();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _ = store.save("alpha", &small_index(9), false, 64);
        }));
        failpoint::remove(site);
        assert!(result.is_err(), "{site}: save should have panicked");
        drop(store);

        // The process "died" mid-save: whatever partial temp files are
        // on disk, a cold reopen must serve the last durable generation.
        assert_reopens_to(&dir, &gen1);
    }
}

#[test]
fn forget_failure_keeps_the_entry_and_its_snapshot() {
    let _guard = FaultGuard::new();
    let dir = tmp_dir("forget");
    let store = IndexStore::open(&dir).unwrap();
    store.save("keep", &small_index(10), false, 64).unwrap();
    store.save("drop", &small_index(11), false, 64).unwrap();
    let gen1 = fingerprint(&store.entries());

    for site in ["store.forget.manifest", "manifest.write", "persist.rename"] {
        failpoint::configure(site, "error").unwrap();
        store
            .forget("drop")
            .expect_err(&format!("forget must fail with {site} armed"));
        failpoint::remove(site);
        assert_eq!(fingerprint(&store.entries()), gen1);
        store.load("drop").expect("snapshot must survive");
        assert_reopens_to(&dir, &gen1);
    }

    // Clean forget still works and is durable.
    assert!(store.forget("drop").unwrap().is_some());
    assert_eq!(store.entries().len(), 1);
    assert_reopens_to(&dir, &fingerprint(&store.entries()));
}

#[test]
fn bounded_faults_clear_and_a_retry_succeeds() {
    let _guard = FaultGuard::new();
    let dir = tmp_dir("bounded");
    let store = IndexStore::open(&dir).unwrap();
    store.save("g", &small_index(12), false, 64).unwrap();

    // error(2): exactly two failures, then the site passes — the shape
    // a client-side retry loop sees for a transient disk error.
    failpoint::configure("persist.sync", "error(2)").unwrap();
    store.save("g", &small_index(13), false, 64).unwrap_err();
    store.save("g", &small_index(13), false, 64).unwrap_err();
    let entry = store.save("g", &small_index(13), false, 64).unwrap();
    failpoint::remove("persist.sync");
    assert_eq!(store.io_error_count(), 2);
    assert_eq!(store.entry("g").unwrap().bytes, entry.bytes);
    assert_reopens_to(&dir, &fingerprint(&store.entries()));
}

#[test]
fn audit_write_faults_never_block_saves_and_replay_skips_torn_lines() {
    let _guard = FaultGuard::new();
    let dir = tmp_dir("audit");
    let store = IndexStore::open(&dir).unwrap();

    // A SAVE whose audit append dies (full error) still succeeds — the
    // audit log is advisory, the manifest is authoritative.
    failpoint::configure("audit.append", "error(1)").unwrap();
    store.save("g", &small_index(14), false, 64).unwrap();
    assert_eq!(store.audit_failure_count(), 1);

    // A torn audit line (short write, no trailing newline) corrupts at
    // most itself plus the line that lands after it; replay skips the
    // garbage instead of erroring.
    failpoint::configure("audit.append", "short(7)").unwrap();
    store
        .record(AuditKind::Load, Some("g"), "torn")
        .expect_err("short audit write must surface as an error");
    failpoint::remove("audit.append");
    assert_eq!(store.audit_failure_count(), 2);
    store
        .record(AuditKind::Load, Some("g"), "merged-away")
        .unwrap();
    let seq = store.record(AuditKind::Save, Some("g"), "clean").unwrap();

    let events = store.replay().expect("replay must tolerate torn lines");
    assert!(
        events.iter().any(|e| e.seq == seq && e.detail == "clean"),
        "clean post-tear event must replay: {events:?}"
    );
    assert!(
        events.iter().all(|e| e.detail != "torn"),
        "torn event must not replay"
    );

    // Sequence numbers keep ascending across the tear and a reopen.
    let reopened = IndexStore::open(&dir).unwrap();
    assert!(reopened.audit_next_seq() > seq);
    let next = reopened
        .record(AuditKind::Load, None, "after-reopen")
        .unwrap();
    assert!(next > seq);
}

#[test]
fn manifest_on_disk_is_always_a_valid_generation() {
    let _guard = FaultGuard::new();
    let dir = tmp_dir("valid-manifest");
    let store = IndexStore::open(&dir).unwrap();
    store.save("g", &small_index(15), false, 64).unwrap();

    // Hammer alternating faulty/clean saves; after every single step the
    // manifest file on disk must parse with a valid checksum.
    failpoint::configure("manifest.write", "every(2)").unwrap();
    let mut failures = 0;
    for round in 0..8u64 {
        if store
            .save("g", &small_index(16 + round), false, 64)
            .is_err()
        {
            failures += 1;
        }
        let bytes = std::fs::read(dir.join("manifest.psm")).unwrap();
        manifest::parse(&bytes).expect("on-disk manifest must always be checksum-valid");
    }
    failpoint::remove("manifest.write");
    assert!(failures > 0, "every(2) should have failed some rounds");
    assert_reopens_to(&dir, &fingerprint(&store.entries()));
}
