//! Warm boot: repopulate a [`GraphRegistry`] from a durable
//! [`IndexStore`] without rebuilding a single index.
//!
//! The paper's index costs `O((α + log n) m)` to construct; snapshots
//! cost one sequential read to load. A warm boot therefore turns a
//! restart from "rebuild the working set" (minutes on large graphs)
//! into "read the manifest, stream the snapshots back" (I/O bound):
//!
//! 1. Read the manifest — the persisted working set, already validated
//!    and checksummed by the store.
//! 2. Load every snapshot **in parallel**, work-balanced by file size
//!    ([`parscan_parallel::par_for_weighted`] with the manifest's
//!    `bytes` field as the cost estimate), so one giant graph doesn't
//!    serialize the boot behind it.
//! 3. Admit the results in pinned-first order through the registry's
//!    normal byte-budgeted admission, restoring each graph's persisted
//!    engine configuration (cache capacity). Graphs that no longer fit
//!    the budget are *skipped*, not errors — the manifest may describe
//!    a larger working set than the current `--budget` allows, and the
//!    pinned default always gets the first claim on memory.

use crate::registry::{GraphRegistry, LoadOutcome, LoadResult};
use parscan_core::ScanIndex;
use parscan_store::{AuditKind, IndexStore, ManifestEntry};
use std::sync::Mutex;
use std::time::Instant;

/// What a warm boot accomplished.
#[derive(Debug, Default)]
pub struct WarmBootReport {
    /// Graphs re-admitted from snapshots, in admission order.
    pub loaded: Vec<String>,
    /// Graphs in the manifest that could not be re-admitted, with the
    /// reason (budget, corrupted snapshot, name conflict, …). A skip is
    /// not fatal: serving starts with whatever fits.
    pub skipped: Vec<(String, String)>,
    /// End-to-end wall-clock milliseconds.
    pub millis: u64,
}

impl WarmBootReport {
    /// `detail` string for the BOOT audit event.
    fn audit_detail(&self) -> String {
        format!(
            "loaded={} skipped={} millis={}",
            self.loaded.len(),
            self.skipped.len(),
            self.millis
        )
    }
}

/// Restore `store`'s manifest into `registry` (see the module docs) and
/// record a BOOT event plus one LOAD event per re-admitted graph in the
/// store's audit log.
pub fn warm_boot(registry: &GraphRegistry, store: &IndexStore) -> WarmBootReport {
    let start = Instant::now();
    let mut report = WarmBootReport::default();
    let mut entries = store.entries();
    // Pinned graphs admit first so the byte budget prefers them; a
    // stable sort keeps manifest order within each class.
    entries.sort_by_key(|e| std::cmp::Reverse(e.pinned));
    if entries.is_empty() {
        report.millis = start.elapsed().as_millis() as u64;
        let _ = store.record(AuditKind::Boot, None, &report.audit_detail());
        return report;
    }

    // Phase 1: parallel snapshot reads, cost-balanced by file size.
    let costs: Vec<usize> = entries.iter().map(|e| e.bytes as usize).collect();
    let results: Vec<Mutex<Option<std::io::Result<ScanIndex>>>> =
        entries.iter().map(|_| Mutex::new(None)).collect();
    parscan_parallel::par_for_weighted(&costs, |i| {
        let loaded = ScanIndex::load(store.snapshot_path(&entries[i]));
        *results[i]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(loaded);
    });

    // Phase 2: sequential admission (cheap — the builds already
    // happened, at snapshot-save time, possibly in a previous process).
    for (entry, slot) in entries.iter().zip(results) {
        let loaded = slot
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .expect("par_for_weighted visits every index");
        match loaded {
            Ok(index) => match admit(registry, entry, index) {
                Ok((_, LoadOutcome::Loaded)) => {
                    let _ = store.record(
                        AuditKind::Load,
                        Some(&entry.name),
                        &format!("warm-boot n={} m={}", entry.vertices, entry.edges),
                    );
                    report.loaded.push(entry.name.clone());
                }
                Ok(_) => report
                    .skipped
                    .push((entry.name.clone(), "already resident".into())),
                Err(e) => report.skipped.push((entry.name.clone(), e.to_string())),
            },
            Err(e) => report
                .skipped
                .push((entry.name.clone(), format!("snapshot unreadable: {e}"))),
        }
    }
    report.millis = start.elapsed().as_millis() as u64;
    let _ = store.record(AuditKind::Boot, None, &report.audit_detail());
    report
}

/// Admit one loaded snapshot with its persisted cache capacity.
fn admit(registry: &GraphRegistry, entry: &ManifestEntry, index: ScanIndex) -> LoadResult {
    let (tx, rx) = std::sync::mpsc::channel();
    let cache_capacity = Some(entry.cache_capacity.max(1));
    registry.load(
        &entry.name,
        cache_capacity,
        || Ok(index),
        move |result| {
            let _ = tx.send(result);
        },
    );
    rx.recv().expect("load answers exactly once")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RegistryConfig;
    use parscan_core::IndexConfig;
    use parscan_graph::generators;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("parscan_boot_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn small_index(seed: u64) -> ScanIndex {
        let (g, _) = generators::planted_partition(150, 3, 8.0, 1.0, seed);
        ScanIndex::build(g, IndexConfig::default())
    }

    #[test]
    fn warm_boot_restores_the_working_set_and_config() {
        let dir = tmp_dir("restore");
        let store = IndexStore::open(&dir).unwrap();
        // Shard-aligned capacities: the engine rounds capacity up to a
        // multiple of its shard count, and SAVE persists the rounded
        // value, so aligned numbers round-trip exactly.
        store.save("boot", &small_index(1), true, 32).unwrap();
        store.save("side", &small_index(2), false, 8).unwrap();

        let registry = GraphRegistry::new("boot", RegistryConfig::default());
        let report = warm_boot(&registry, &store);
        assert_eq!(report.loaded, ["boot", "side"], "{report:?}");
        assert!(report.skipped.is_empty(), "{report:?}");
        // Both resident and queryable; per-graph cache capacity restored.
        let (_, boot) = registry.get(None).unwrap();
        assert_eq!(boot.stats().cache_capacity, 32);
        let (_, side) = registry.get(Some("side")).unwrap();
        assert_eq!(side.stats().cache_capacity, 8);
        assert!(!side
            .cluster(parscan_core::QueryParams::new(3, 0.4))
            .clustering
            .labels
            .is_empty());
        // The boot itself is on the audit record.
        let events = store.replay().unwrap();
        assert!(events
            .iter()
            .any(|e| e.kind == AuditKind::Boot && e.detail.contains("loaded=2")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_boot_respects_the_byte_budget_pinned_first() {
        let dir = tmp_dir("budget");
        let store = IndexStore::open(&dir).unwrap();
        let idx = small_index(1);
        let one = idx.memory_bytes();
        // Save the pinned default *after* two unpinned graphs so that
        // manifest order alone would admit the wrong ones.
        store.save("extra1", &small_index(2), false, 8).unwrap();
        store.save("extra2", &small_index(3), false, 8).unwrap();
        store.save("boot", &idx, true, 8).unwrap();

        // Budget fits roughly one graph: the pinned default must win.
        let registry = GraphRegistry::new(
            "boot",
            RegistryConfig {
                byte_budget: Some(one + one / 2),
                ..Default::default()
            },
        );
        let report = warm_boot(&registry, &store);
        assert_eq!(report.loaded.first().map(String::as_str), Some("boot"));
        assert!(registry.get(None).is_ok(), "pinned default is resident");
        assert!(
            !report.skipped.is_empty(),
            "over-budget graphs are skipped, not fatal: {report:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_boot_skips_corrupt_snapshots() {
        let dir = tmp_dir("corrupt");
        let store = IndexStore::open(&dir).unwrap();
        store.save("good", &small_index(1), true, 8).unwrap();
        let bad = store.save("bad", &small_index(2), false, 8).unwrap();
        let snap = store.snapshot_path(&bad);
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&snap, &bytes).unwrap();

        let registry = GraphRegistry::new("good", RegistryConfig::default());
        let report = warm_boot(&registry, &store);
        assert_eq!(report.loaded, ["good"]);
        assert_eq!(report.skipped.len(), 1);
        assert_eq!(report.skipped[0].0, "bad");
        assert!(report.skipped[0].1.contains("snapshot unreadable"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_boot_of_an_empty_store_is_a_no_op() {
        let dir = tmp_dir("empty");
        let store = IndexStore::open(&dir).unwrap();
        let registry = GraphRegistry::new("boot", RegistryConfig::default());
        let report = warm_boot(&registry, &store);
        assert!(report.loaded.is_empty() && report.skipped.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
