//! [`IndexStore`]: one directory owning snapshots, manifest, and audit
//! log.
//!
//! Layout of a store directory:
//!
//! ```text
//! <dir>/
//!   manifest.psm          the working set (see `manifest`)
//!   audit.log             append-only event history (see `audit`)
//!   audit.log.1           previous rotation, if any
//!   snapshots/
//!     <name>.pscidx       one v2 index snapshot per persisted graph
//! ```
//!
//! Write ordering makes every crash window safe: a snapshot is written
//! (atomically) *before* the manifest names it, so the manifest never
//! points at a missing or partial snapshot; removing a graph rewrites
//! the manifest *before* deleting the snapshot, so the worst crash
//! outcome is an orphaned snapshot file, never a dangling manifest
//! entry. Both files are replaced via temp + fsync + rename.

use crate::audit::{self, AuditEvent, AuditKind, AuditLog};
use crate::manifest::{self, ManifestEntry};
use parscan_core::ScanIndex;
use std::collections::BTreeSet;
use std::io::{self, ErrorKind};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Audit-log size cap before rotation. Generous for a text log of one
/// line per state change; a rotation pair bounds disk use at ~8 MiB per
/// store.
const AUDIT_MAX_BYTES: u64 = 4 << 20;

/// A durable index store rooted at one directory. Cheap to share behind
/// an `Arc`; interior mutability makes every method `&self`.
#[derive(Debug)]
pub struct IndexStore {
    dir: PathBuf,
    manifest_path: PathBuf,
    audit_path: PathBuf,
    /// In-memory copy of the manifest; every mutation rewrites the file
    /// under this lock, so disk and memory never diverge.
    entries: Mutex<Vec<ManifestEntry>>,
    audit: Mutex<AuditLog>,
    /// Graphs whose resident index has been mutated since their last
    /// snapshot (or that were never snapshotted after a mutation). This
    /// is in-memory state, not persisted: a crash loses the set, but the
    /// audit log's `MUTATE` lines record that the snapshot is stale.
    dirty: Mutex<BTreeSet<String>>,
    /// Snapshot/manifest I/O failures since this store was opened —
    /// surfaced through the server's `STATS` faults block.
    io_errors: AtomicU64,
    /// Audit-log append failures since open. The log is best-effort, so
    /// these never fail a caller, but an operator should see them.
    audit_failures: AtomicU64,
}

fn bad(msg: String) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg)
}

/// Store-level name check, independent of the server crate: snapshot
/// file names are derived from graph names, so the charset must stay
/// path-safe even for direct library users.
fn validate_name(name: &str) -> io::Result<()> {
    if name.is_empty() || name.len() > 64 {
        return Err(bad(format!(
            "bad graph name {name:?}: length must be 1..=64"
        )));
    }
    if let Some(c) = name
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')))
    {
        return Err(bad(format!(
            "bad graph name {name:?}: character {c:?} not allowed"
        )));
    }
    Ok(())
}

impl IndexStore {
    /// Open (or initialize) the store at `dir`. Creates the directory
    /// tree on first use; reads the manifest (a corrupted manifest is a
    /// typed error — better to refuse to boot than to silently forget
    /// the working set) and recovers the audit sequence.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<IndexStore> {
        let dir = dir.into();
        std::fs::create_dir_all(dir.join("snapshots"))?;
        let manifest_path = dir.join("manifest.psm");
        let audit_path = dir.join("audit.log");
        let entries = manifest::read(&manifest_path)?;
        let audit = AuditLog::open(&audit_path, AUDIT_MAX_BYTES)?;
        Ok(IndexStore {
            dir,
            manifest_path,
            audit_path,
            entries: Mutex::new(entries),
            audit: Mutex::new(audit),
            dirty: Mutex::new(BTreeSet::new()),
            io_errors: AtomicU64::new(0),
            audit_failures: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Snapshot of the manifest (the persisted working set), in manifest
    /// order.
    pub fn entries(&self) -> Vec<ManifestEntry> {
        self.lock_entries().clone()
    }

    /// One manifest entry by graph name.
    pub fn entry(&self, name: &str) -> Option<ManifestEntry> {
        self.lock_entries().iter().find(|e| e.name == name).cloned()
    }

    /// Absolute path of an entry's snapshot file.
    pub fn snapshot_path(&self, entry: &ManifestEntry) -> PathBuf {
        self.dir.join("snapshots").join(&entry.snapshot)
    }

    /// Persist `index` as `name`'s snapshot and upsert its manifest
    /// entry. The snapshot is written crash-safely before the manifest
    /// references it; the audit log records the `SAVE`. Returns the new
    /// entry (its `bytes` is the snapshot file size).
    pub fn save(
        &self,
        name: &str,
        index: &ScanIndex,
        pinned: bool,
        cache_capacity: usize,
    ) -> io::Result<ManifestEntry> {
        validate_name(name)?;
        let result = self.save_inner(name, index, pinned, cache_capacity);
        if result.is_err() {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn save_inner(
        &self,
        name: &str,
        index: &ScanIndex,
        pinned: bool,
        cache_capacity: usize,
    ) -> io::Result<ManifestEntry> {
        let snapshot = format!("{name}.pscidx");
        let path = self.dir.join("snapshots").join(&snapshot);
        failpoint::check("store.save.snapshot")?;
        index.save(&path)?;
        let bytes = std::fs::metadata(&path)?.len();
        let g = index.graph();
        let entry = ManifestEntry {
            name: name.to_string(),
            snapshot,
            measure: index.measure(),
            pinned,
            cache_capacity,
            bytes,
            vertices: g.num_vertices() as u64,
            edges: g.num_edges() as u64,
        };
        {
            // Build the next manifest generation off to the side and
            // commit it to memory only after the write succeeds: if the
            // rewrite fails, memory still matches the generation on disk
            // and a retry (or a restart) serves the previous working set.
            let mut entries = self.lock_entries();
            let mut next = entries.clone();
            match next.iter_mut().find(|e| e.name == name) {
                Some(slot) => *slot = entry.clone(),
                None => next.push(entry.clone()),
            }
            failpoint::check("store.save.manifest")?;
            manifest::write(&self.manifest_path, &next)?;
            *entries = next;
        }
        let _ = self.record(AuditKind::Save, Some(name), &format!("bytes={bytes}"));
        self.lock_dirty().remove(name);
        Ok(entry)
    }

    /// Mark `name` as mutated since its last snapshot. The server calls
    /// this after every effective `INSERT`/`DELETE`/`APPLY`; `save`
    /// clears it. Names need not be in the manifest (a graph can be
    /// mutated before it is ever `SAVE`d).
    pub fn mark_dirty(&self, name: &str) {
        self.lock_dirty().insert(name.to_string());
    }

    /// Names currently marked dirty, sorted. The shutdown path snapshots
    /// these so mutations survive a clean stop without an explicit SAVE.
    pub fn dirty_names(&self) -> Vec<String> {
        self.lock_dirty().iter().cloned().collect()
    }

    /// Whether `name` has unsaved mutations.
    pub fn is_dirty(&self, name: &str) -> bool {
        self.lock_dirty().contains(name)
    }

    /// Load `name`'s snapshot back into a [`ScanIndex`] (one sequential
    /// read; checksum and structural validation inside the v2 reader).
    pub fn load(&self, name: &str) -> io::Result<(ScanIndex, ManifestEntry)> {
        let entry = self
            .entry(name)
            .ok_or_else(|| bad(format!("graph {name:?} is not in the store manifest")))?;
        let index = ScanIndex::load(self.snapshot_path(&entry))?;
        Ok((index, entry))
    }

    /// Remove `name` from the working set: manifest entry first (so a
    /// crash never leaves the manifest pointing at a deleted snapshot),
    /// then the snapshot file. Returns the removed entry, or `None` if
    /// the graph was not persisted.
    pub fn forget(&self, name: &str) -> io::Result<Option<ManifestEntry>> {
        let result = self.forget_inner(name);
        if result.is_err() {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn forget_inner(&self, name: &str) -> io::Result<Option<ManifestEntry>> {
        let removed = {
            // Same discipline as `save`: rewrite the manifest from a
            // scratch copy, commit to memory only on success.
            let mut entries = self.lock_entries();
            let Some(at) = entries.iter().position(|e| e.name == name) else {
                return Ok(None);
            };
            let mut next = entries.clone();
            let removed = next.remove(at);
            failpoint::check("store.forget.manifest")?;
            manifest::write(&self.manifest_path, &next)?;
            *entries = next;
            removed
        };
        match std::fs::remove_file(self.snapshot_path(&removed)) {
            Ok(()) => {}
            Err(e) if e.kind() == ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let _ = self.record(AuditKind::Unload, Some(name), "");
        Ok(Some(removed))
    }

    /// Append an audit event; returns its sequence number. Audit I/O
    /// failures are returned but are safe for callers to ignore — the
    /// log is an observability aid, not a correctness dependency.
    pub fn record(&self, kind: AuditKind, graph: Option<&str>, detail: &str) -> io::Result<u64> {
        let result = self
            .audit
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .append(kind, graph, detail);
        if result.is_err() {
            self.audit_failures.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Snapshot/manifest write failures since this store was opened.
    pub fn io_error_count(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }

    /// Audit-log append failures since this store was opened.
    pub fn audit_failure_count(&self) -> u64 {
        self.audit_failures.load(Ordering::Relaxed)
    }

    /// The sequence number the next audit append will use (monotonic
    /// across restarts).
    pub fn audit_next_seq(&self) -> u64 {
        self.audit
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .next_seq()
    }

    /// Replay the full on-disk audit history (rotated + live files).
    pub fn replay(&self) -> io::Result<Vec<AuditEvent>> {
        audit::replay(&self.audit_path)
    }

    fn lock_entries(&self) -> std::sync::MutexGuard<'_, Vec<ManifestEntry>> {
        self.entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lock_dirty(&self) -> std::sync::MutexGuard<'_, BTreeSet<String>> {
        self.dirty
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parscan_core::{IndexConfig, QueryParams};
    use parscan_graph::generators;

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("parscan_store_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn small_index(seed: u64) -> ScanIndex {
        let (g, _) = generators::planted_partition(200, 4, 9.0, 1.0, seed);
        ScanIndex::build(g, IndexConfig::default())
    }

    #[test]
    fn save_load_round_trip_with_manifest() {
        let dir = tmp_dir("roundtrip");
        let store = IndexStore::open(&dir).unwrap();
        let idx = small_index(1);
        let entry = store.save("boot", &idx, true, 256).unwrap();
        assert_eq!(entry.name, "boot");
        assert!(entry.pinned);
        assert_eq!(entry.cache_capacity, 256);
        assert!(entry.bytes > 0);

        let (loaded, entry2) = store.load("boot").unwrap();
        assert_eq!(entry2, entry);
        assert_eq!(loaded.graph(), idx.graph());
        let p = QueryParams::new(3, 0.4);
        assert_eq!(
            idx.cluster_with(p, parscan_core::BorderAssignment::MostSimilar),
            loaded.cluster_with(p, parscan_core::BorderAssignment::MostSimilar)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_recovers_working_set_and_audit_seq() {
        let dir = tmp_dir("reopen");
        {
            let store = IndexStore::open(&dir).unwrap();
            store.save("a", &small_index(1), true, 128).unwrap();
            store.save("b", &small_index(2), false, 64).unwrap();
        }
        let store = IndexStore::open(&dir).unwrap();
        let names: Vec<String> = store.entries().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["a", "b"]);
        // Two SAVE events happened; the next seq continues past them.
        assert!(store.audit_next_seq() >= 3, "{}", store.audit_next_seq());
        let events = store.replay().unwrap();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.kind == AuditKind::Save));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_is_an_upsert() {
        let dir = tmp_dir("upsert");
        let store = IndexStore::open(&dir).unwrap();
        store.save("g", &small_index(1), false, 128).unwrap();
        let e2 = store.save("g", &small_index(2), false, 512).unwrap();
        assert_eq!(store.entries().len(), 1);
        assert_eq!(store.entry("g").unwrap(), e2);
        assert_eq!(e2.cache_capacity, 512);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn forget_removes_entry_and_snapshot() {
        let dir = tmp_dir("forget");
        let store = IndexStore::open(&dir).unwrap();
        let entry = store.save("g", &small_index(1), false, 128).unwrap();
        let snap = store.snapshot_path(&entry);
        assert!(snap.exists());
        assert!(store.forget("g").unwrap().is_some());
        assert!(!snap.exists());
        assert!(store.entry("g").is_none());
        assert!(store.forget("g").unwrap().is_none(), "idempotent");
        // Survives reopen: the manifest no longer lists it.
        drop(store);
        let store = IndexStore::open(&dir).unwrap();
        assert!(store.entries().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dirty_tracking_clears_on_save() {
        let dir = tmp_dir("dirty");
        let store = IndexStore::open(&dir).unwrap();
        assert!(store.dirty_names().is_empty());
        store.mark_dirty("g");
        store.mark_dirty("a");
        store.mark_dirty("g"); // idempotent
        assert!(store.is_dirty("g"));
        assert_eq!(store.dirty_names(), ["a", "g"]);
        store.save("g", &small_index(1), false, 128).unwrap();
        assert!(!store.is_dirty("g"), "SAVE clears the dirty flag");
        assert_eq!(store.dirty_names(), ["a"]);
        // MUTATE round-trips through the audit log.
        store
            .record(AuditKind::Mutate, Some("a"), "epoch=1")
            .unwrap();
        let events = store.replay().unwrap();
        assert!(events
            .iter()
            .any(|e| e.kind == AuditKind::Mutate && e.graph.as_deref() == Some("a")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_names_are_rejected() {
        let dir = tmp_dir("names");
        let store = IndexStore::open(&dir).unwrap();
        let idx = small_index(1);
        assert!(store.save("", &idx, false, 1).is_err());
        assert!(store.save("has space", &idx, false, 1).is_err());
        assert!(store.save("slash/y", &idx, false, 1).is_err());
        assert!(store.save(&"x".repeat(65), &idx, false, 1).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_manifest_refuses_to_open() {
        let dir = tmp_dir("corrupt");
        {
            let store = IndexStore::open(&dir).unwrap();
            store.save("g", &small_index(1), false, 128).unwrap();
        }
        let manifest = dir.join("manifest.psm");
        let mut bytes = std::fs::read(&manifest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x11;
        std::fs::write(&manifest, &bytes).unwrap();
        let err = IndexStore::open(&dir).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_snapshot_is_a_typed_load_error() {
        let dir = tmp_dir("snapcorrupt");
        let store = IndexStore::open(&dir).unwrap();
        let entry = store.save("g", &small_index(1), false, 128).unwrap();
        let snap = store.snapshot_path(&entry);
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(&snap, &bytes).unwrap();
        let err = store.load("g").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
