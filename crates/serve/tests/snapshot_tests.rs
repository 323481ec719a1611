//! Crash-safe snapshot tests: the on-disk format round-trips exactly (property-tested over
//! random logs and search depths), restores continue **bit-identically** to the
//! uninterrupted run, and the store rejects corrupt or mislabelled files.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use mctsui_core::InterfaceSearchProblem;
use mctsui_difftree::{simplified_difftree, RuleEngine};
use mctsui_mcts::{Budget, SearchHandle, SliceBudget};
use mctsui_serve::{
    ServeConfig, ServeEngine, SessionSnapshot, SnapshotStore, SNAPSHOT_FORMAT_VERSION,
};
use mctsui_sql::{parse_query, Ast};

fn figure1_queries() -> Vec<Ast> {
    vec![
        parse_query("SELECT Sales FROM sales WHERE cty = 'USA'").unwrap(),
        parse_query("SELECT Costs FROM sales WHERE cty = 'EUR'").unwrap(),
        parse_query("SELECT Costs FROM sales").unwrap(),
    ]
}

/// A unique scratch directory (removed by the test on success; stray dirs from aborted
/// runs are confined to the system temp dir).
fn scratch_dir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock")
        .as_nanos();
    std::env::temp_dir().join(format!("mctsui-{tag}-{}-{nanos}", std::process::id()))
}

#[test]
fn restore_continues_bit_identically_across_processes() {
    // Engine A searches, snapshots, shuts down. Engine B — a fresh engine over the same
    // directory, as after a process restart — resumes the session and refines. The result
    // must equal, bit for bit, an uninterrupted engine doing the same total work.
    let dir = scratch_dir("restore-pin");

    let (session, parted) = {
        let engine = ServeEngine::start(
            ServeConfig::quick()
                .with_threads(1)
                .with_snapshot_dir(dir.clone()),
        );
        let opened = engine
            .synthesize(figure1_queries(), 40, 30_000, 7)
            .expect("synthesize");
        let refined = engine
            .refine(opened.session, 30, 30_000)
            .expect("refine before the restart");
        let written = engine.drain_and_shutdown(std::time::Duration::from_secs(10));
        assert!(written >= 1, "drain must persist the live session");
        (opened.session, refined)
    };

    let engine = ServeEngine::start(
        ServeConfig::quick()
            .with_threads(1)
            .with_snapshot_dir(dir.clone()),
    );
    let resumed = engine.resume(session).expect("resume after restart");
    assert_eq!(resumed.session, session, "resume reclaims the same id");
    assert_eq!(
        resumed.best.reward.to_bits(),
        parted.best.reward.to_bits(),
        "restored best diverged from the pre-restart best"
    );
    assert_eq!(resumed.best.iterations, parted.best.iterations);
    assert_eq!(resumed.interface, parted.interface);

    // A session opened after the restart must get a fresh id, never recycle a
    // snapshotted one.
    let fresh = engine
        .synthesize(figure1_queries(), 5, 30_000, 99)
        .expect("fresh session after restart");
    assert!(fresh.session > session, "session ids must not repeat");

    let continued = engine
        .refine(session, 30, 30_000)
        .expect("refine after restart");

    let reference_engine = ServeEngine::start(ServeConfig::quick().with_threads(1));
    let opened = reference_engine
        .synthesize(figure1_queries(), 40, 30_000, 7)
        .expect("reference synthesize");
    reference_engine
        .refine(opened.session, 30, 30_000)
        .expect("reference refine 1");
    let reference = reference_engine
        .refine(opened.session, 30, 30_000)
        .expect("reference refine 2");

    assert_eq!(
        continued.best.reward.to_bits(),
        reference.best.reward.to_bits(),
        "the restarted run diverged from the uninterrupted one"
    );
    assert_eq!(continued.best.iterations, reference.best.iterations);
    assert_eq!(continued.best.evaluations, reference.best.evaluations);
    assert_eq!(continued.best.tree_nodes, reference.best.tree_nodes);
    assert_eq!(continued.interface, reference.interface);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn close_discards_the_snapshot_and_resume_then_fails() {
    let dir = scratch_dir("close-discards");
    let engine = ServeEngine::start(
        ServeConfig::quick()
            .with_threads(1)
            .with_snapshot_dir(dir.clone()),
    );
    let opened = engine
        .synthesize(figure1_queries(), 10, 30_000, 3)
        .expect("synthesize");
    assert!(engine.persist_session(opened.session));

    let store = SnapshotStore::open(dir.clone()).expect("open store");
    assert_eq!(store.list(), vec![opened.session]);

    engine.close_session(opened.session).expect("close");
    assert!(
        store.list().is_empty(),
        "close must discard the on-disk snapshot"
    );
    assert!(
        engine.resume(opened.session).is_err(),
        "a closed session must not resume"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_rejects_version_mismatch_and_mislabelled_files() {
    let dir = scratch_dir("store-rejects");
    let engine = ServeEngine::start(
        ServeConfig::quick()
            .with_threads(1)
            .with_snapshot_dir(dir.clone()),
    );
    let opened = engine
        .synthesize(figure1_queries(), 8, 30_000, 1)
        .expect("synthesize");
    assert!(engine.persist_session(opened.session));
    let store = SnapshotStore::open(dir.clone()).expect("open store");
    let path = dir.join(format!("session-{}.json", opened.session));
    let good = std::fs::read_to_string(&path).expect("read snapshot");

    // A future format version must be rejected, not misread.
    let versioned = good.replacen(
        &format!("\"format_version\":{SNAPSHOT_FORMAT_VERSION}"),
        "\"format_version\":999",
        1,
    );
    assert_ne!(versioned, good, "version field not found in the encoding");
    std::fs::write(&path, versioned).expect("write tampered snapshot");
    assert!(store.load(opened.session).is_err());

    // An old-format file (version 1, pre-live-log) must be rejected the same way — the
    // live log cannot be reconstructed from it, so misreading it would drop appends.
    let old = good.replacen(
        &format!("\"format_version\":{SNAPSHOT_FORMAT_VERSION}"),
        "\"format_version\":1",
        1,
    );
    std::fs::write(&path, old).expect("write old-version snapshot");
    let err = store.load(opened.session).unwrap_err();
    assert!(err.contains("format version"), "got: {err}");

    // A file whose name does not match the session it claims must be rejected.
    std::fs::write(&path, &good).expect("restore good snapshot");
    let foreign = dir.join("session-777.json");
    std::fs::copy(&path, &foreign).expect("copy snapshot");
    assert!(store.load(777).is_err());

    // Truncated JSON is corruption, not an absent snapshot.
    std::fs::write(&path, &good[..good.len() / 2]).expect("truncate snapshot");
    assert!(store.load(opened.session).is_err());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_two_snapshots_still_load_and_resume() {
    // Version 3 only dropped two keys of the search configuration (its parallel mode and
    // virtual-loss weight), so a version-2 file — today's encoding plus those keys — must
    // still load, and the resumed session must answer exactly as the saved one did.
    let dir = scratch_dir("v2-resume");
    let (session, saved) = {
        let engine = ServeEngine::start(
            ServeConfig::quick()
                .with_threads(1)
                .with_snapshot_dir(dir.clone()),
        );
        let opened = engine
            .synthesize(figure1_queries(), 20, 30_000, 5)
            .expect("synthesize");
        let written = engine.drain_and_shutdown(std::time::Duration::from_secs(10));
        assert!(written >= 1, "drain must persist the live session");
        (opened.session, opened)
    };

    let path = dir.join(format!("session-{session}.json"));
    let current = std::fs::read_to_string(&path).expect("read snapshot");
    let version_two = current
        .replacen(
            &format!("\"format_version\":{SNAPSHOT_FORMAT_VERSION}"),
            "\"format_version\":2",
            1,
        )
        .replacen(
            "\"config\":{",
            "\"config\":{\"parallel\":\"Tree\",\"virtual_loss\":1.0,",
            1,
        );
    assert!(version_two.contains("\"format_version\":2"));
    assert!(version_two.contains("\"virtual_loss\":1.0"));
    std::fs::write(&path, version_two).expect("write version-2 snapshot");

    let store = SnapshotStore::open(dir.clone()).expect("open store");
    let loaded = store
        .load(session)
        .expect("a version-2 snapshot loads")
        .expect("the snapshot is present");
    assert_eq!(loaded.format_version, 2);

    let engine = ServeEngine::start(
        ServeConfig::quick()
            .with_threads(1)
            .with_snapshot_dir(dir.clone()),
    );
    let resumed = engine.resume(session).expect("resume a version-2 snapshot");
    assert_eq!(resumed.best.reward.to_bits(), saved.best.reward.to_bits());
    assert_eq!(resumed.best.iterations, saved.best.iterations);
    assert_eq!(resumed.interface, saved.interface);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn appended_queries_survive_the_snapshot_round_trip() {
    use mctsui_serve::SessionLogStat;

    let dir = scratch_dir("append-resume");
    let (session, parted) = {
        let engine = ServeEngine::start(
            ServeConfig::quick()
                .with_threads(1)
                .with_snapshot_dir(dir.clone()),
        );
        let opened = engine.synthesize(figure1_queries(), 20, 30_000, 3).unwrap();
        engine
            .append(opened.session, "SELECT Sales FROM sales WHERE yr = 2020")
            .expect("healthy append");
        engine
            .append(opened.session, "SELECT @@ oops FROM")
            .expect("quarantined append");
        let refined = engine
            .refine(opened.session, 10, 30_000)
            .expect("refine after appends");
        assert!(!refined.diagnostics.is_empty());
        assert!(refined.diagnostics.iter().all(|d| d.index == 4));
        let written = engine.drain_and_shutdown(std::time::Duration::from_secs(10));
        assert!(written >= 1, "drain must persist the appended session");
        (opened.session, refined)
    };

    let engine = ServeEngine::start(
        ServeConfig::quick()
            .with_threads(1)
            .with_snapshot_dir(dir.clone()),
    );
    let resumed = engine.resume(session).expect("resume after restart");
    assert_eq!(
        resumed.best.reward.to_bits(),
        parted.best.reward.to_bits(),
        "restored best diverged from the pre-restart best"
    );
    assert_eq!(resumed.best.iterations, parted.best.iterations);

    // The restored live log carries both appends: the healthy query (4 healthy entries)
    // and the quarantined slot, at their original positions.
    assert_eq!(
        engine.stats().session_logs,
        vec![SessionLogStat {
            session,
            entries: 5,
            quarantined: 1,
        }]
    );

    // The restored log still reports its quarantined slot, on a refine and on the next
    // edit alike.
    let refined = engine
        .refine(session, 5, 30_000)
        .expect("refine after resume");
    assert_eq!(refined.diagnostics, parted.diagnostics);

    // Live maintenance continues on the restored session.
    let edit = engine
        .append(session, "SELECT Costs FROM sales WHERE yr = 2020")
        .expect("append after resume");
    assert_eq!(edit.log_len, 6);
    assert_eq!(edit.healthy_len, 5);
    assert_eq!(edit.result.diagnostics, parted.diagnostics);
    let retracted = engine.retract(session, 4).expect("retract restored slot");
    assert_eq!(retracted.quarantined_len, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

const QUERY_POOL: [&str; 5] = [
    "SELECT Sales FROM sales WHERE cty = 'USA'",
    "SELECT Costs FROM sales WHERE cty = 'EUR'",
    "SELECT Costs FROM sales",
    "SELECT Sales FROM sales WHERE yr = 2020",
    "SELECT Sales FROM sales",
];

/// Build the search problem the engine would build for these queries.
fn problem_for(queries: &[Ast], config: &ServeConfig) -> Arc<InterfaceSearchProblem> {
    let initial = simplified_difftree(queries);
    Arc::new(InterfaceSearchProblem::new(
        queries.to_vec(),
        initial,
        RuleEngine::default(),
        config.screen,
        config.weights,
        config.assignments_per_eval,
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn snapshot_format_round_trips_and_restores_exactly(
        picks in proptest::collection::vec(0usize..QUERY_POOL.len(), 1..4),
        iterations in 5usize..40,
        seed in any::<u64>(),
    ) {
        let sql: Vec<String> = picks.iter().map(|&i| QUERY_POOL[i].to_string()).collect();
        let queries: Vec<Ast> = sql.iter().map(|q| parse_query(q).unwrap()).collect();
        let config = ServeConfig::quick();

        // A real search at a random depth is the snapshot payload.
        let mut mcts = config.mcts.clone();
        mcts.seed = seed;
        mcts.budget = Budget::Iterations(usize::MAX);
        let mut handle = SearchHandle::new(problem_for(&queries, &config), mcts);
        handle.run_for(SliceBudget::iterations(iterations));

        let snapshot = SessionSnapshot {
            format_version: SNAPSHOT_FORMAT_VERSION,
            session: 1 + (seed % 1000),
            queries: sql.clone(),
            log: sql,
            eval_seed: seed,
            handle: handle.snapshot(),
        };

        // Byte-exact round trip through the store.
        let dir = scratch_dir("proptest-roundtrip");
        let store = SnapshotStore::open(dir.clone()).map_err(TestCaseError::fail)?;
        store.save(&snapshot).map_err(TestCaseError::fail)?;
        let loaded = store
            .load(snapshot.session)
            .map_err(TestCaseError::fail)?
            .ok_or_else(|| TestCaseError::fail("saved snapshot not found"))?;
        let before = serde_json::to_string(&snapshot).expect("encode original");
        let after = serde_json::to_string(&loaded).expect("encode loaded");
        prop_assert_eq!(&before, &after);
        let _ = std::fs::remove_dir_all(&dir);

        // Restoring in a "fresh process" — the problem rebuilt by re-parsing the stored
        // SQL, exactly as the engine does — must continue bit-identically.
        let reparsed: Vec<Ast> = loaded
            .queries
            .iter()
            .map(|q| parse_query(q).unwrap())
            .collect();
        let mut restored =
            SearchHandle::restore(problem_for(&reparsed, &config), loaded.handle)
                .map_err(TestCaseError::fail)?;
        prop_assert_eq!(
            restored.best_reward().to_bits(),
            handle.best_reward().to_bits()
        );
        prop_assert_eq!(restored.iterations(), handle.iterations());

        handle.run_for(SliceBudget::iterations(10));
        restored.run_for(SliceBudget::iterations(10));
        prop_assert!(
            restored.best_reward().to_bits() == handle.best_reward().to_bits(),
            "restored search diverged from the original after further iterations"
        );
        prop_assert_eq!(restored.iterations(), handle.iterations());
        prop_assert_eq!(restored.evaluations(), handle.evaluations());
        prop_assert_eq!(restored.node_count(), handle.node_count());
    }
}
