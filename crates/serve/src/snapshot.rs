//! Crash-safe session snapshots: the on-disk format and the atomic-write store.
//!
//! A serving process must survive restarts without discarding every warm search tree (the
//! ROADMAP's scale-out item). A [`SessionSnapshot`] is everything needed to reattach a
//! session in a *fresh process*: the query log as SQL text (labels and difftrees are
//! rebuilt by re-parsing, so nothing depends on process-local interner state), the
//! evaluation seed, and the full [`HandleSnapshot`] of the resumable search — tree, rng
//! stream position, best record and trace, all exact (rewards as raw `f64` bits, the rng
//! as raw state words). A restored session continues **bit-identically** to the
//! uninterrupted run (pinned by `tests/snapshot_tests.rs`).
//!
//! The [`SnapshotStore`] writes one JSON file per session with the classic
//! write-temp-then-rename discipline, so a crash mid-write can never corrupt the previous
//! good snapshot: readers see either the old file or the new one, never a torn mix.

use std::fs;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use mctsui_difftree::DiffTree;
use mctsui_mcts::HandleSnapshot;

/// Version tag of the snapshot file format; bumped on incompatible changes so a restarted
/// server rejects (rather than misreads) snapshots from a different build lineage.
/// Version 2 added the full live log (`log`), so appended and quarantined entries survive
/// the restart round trip. Version 3 dropped the search configuration's parallel-mode and
/// virtual-loss keys: a version-2 file still loads (the dropped keys are ignored), and a
/// build that reads only version 2 reports a version-3 file as a version mismatch.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 3;

/// The oldest snapshot format version this build still reads.
const OLDEST_READABLE_FORMAT_VERSION: u32 = 2;

/// Everything needed to reattach one session in a fresh process.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// Snapshot file format version ([`SNAPSHOT_FORMAT_VERSION`]).
    pub format_version: u32,
    /// The session id (resume reclaims the same id).
    pub session: u64,
    /// The session's *healthy* query log as SQL text, in log order. Stored as text — not
    /// as parsed ASTs — so restoring re-parses and re-interns labels in the new process.
    pub queries: Vec<String>,
    /// The session's *full* live log in log order: canonical SQL for healthy entries, the
    /// raw submitted text for quarantined slots. Restoring re-triages this list, so
    /// appended queries and quarantined slots survive the round trip (resume rebuilds the
    /// live log from here; `queries` is its healthy projection, kept for inspection).
    pub log: Vec<String>,
    /// Seed used for description/report evaluations (the session's search seed).
    pub eval_seed: u64,
    /// The full resumable search state.
    pub handle: HandleSnapshot<DiffTree>,
}

/// A directory of per-session snapshot files with atomic replace-on-save.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// Open (creating if needed) a snapshot directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, String> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create snapshot dir {}: {e}", dir.display()))?;
        Ok(Self { dir })
    }

    /// The directory this store writes to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, session: u64) -> PathBuf {
        self.dir.join(format!("session-{session}.json"))
    }

    /// Write a snapshot atomically: serialize to `session-<id>.json.tmp`, then rename over
    /// the final name. A crash at any point leaves either the previous snapshot or the new
    /// one — never a torn file.
    pub fn save(&self, snapshot: &SessionSnapshot) -> Result<(), String> {
        let path = self.path_for(snapshot.session);
        let tmp = self
            .dir
            .join(format!("session-{}.json.tmp", snapshot.session));
        let encoded = serde_json::to_string(snapshot)
            .map_err(|e| format!("snapshot encoding failed: {e}"))?;
        fs::write(&tmp, encoded).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        fs::rename(&tmp, &path)
            .map_err(|e| format!("cannot commit snapshot {}: {e}", path.display()))?;
        Ok(())
    }

    /// Load a session's snapshot. `Ok(None)` when no snapshot exists; `Err` on unreadable,
    /// unparseable, mislabelled or version-mismatched files (corruption is reported, never
    /// silently trusted).
    pub fn load(&self, session: u64) -> Result<Option<SessionSnapshot>, String> {
        let path = self.path_for(session);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        let snapshot: SessionSnapshot = serde_json::from_str(&text)
            .map_err(|e| format!("corrupt snapshot {}: {e}", path.display()))?;
        if !(OLDEST_READABLE_FORMAT_VERSION..=SNAPSHOT_FORMAT_VERSION)
            .contains(&snapshot.format_version)
        {
            return Err(format!(
                "snapshot {} has format version {}, this server reads {}..={}",
                path.display(),
                snapshot.format_version,
                OLDEST_READABLE_FORMAT_VERSION,
                SNAPSHOT_FORMAT_VERSION
            ));
        }
        if snapshot.session != session {
            return Err(format!(
                "snapshot {} claims session {}, expected {}",
                path.display(),
                snapshot.session,
                session
            ));
        }
        Ok(Some(snapshot))
    }

    /// Delete a session's snapshot (explicit close; missing files are fine).
    pub fn remove(&self, session: u64) {
        let _ = fs::remove_file(self.path_for(session));
    }

    /// Session ids with a snapshot on disk (unsorted; tmp files and foreign names skipped).
    pub fn list(&self) -> Vec<u64> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        entries
            .filter_map(|entry| {
                let name = entry.ok()?.file_name();
                let name = name.to_str()?;
                name.strip_prefix("session-")?
                    .strip_suffix(".json")?
                    .parse::<u64>()
                    .ok()
            })
            .collect()
    }
}
