//! Engine-level tests of the serving subsystem: session isolation, scheduler fairness,
//! refine monotonicity, admission control, and shared-cache accounting.

use std::sync::Arc;

use mctsui_serve::{ServeConfig, ServeEngine, ServeError, WidgetAction};
use mctsui_sql::{parse_query, Ast};

fn figure1_queries() -> Vec<Ast> {
    vec![
        parse_query("SELECT Sales FROM sales WHERE cty = 'USA'").unwrap(),
        parse_query("SELECT Costs FROM sales WHERE cty = 'EUR'").unwrap(),
        parse_query("SELECT Costs FROM sales").unwrap(),
    ]
}

fn quick_engine(threads: usize) -> Arc<ServeEngine> {
    ServeEngine::start(ServeConfig::quick().with_threads(threads))
}

#[test]
fn synthesize_then_refine_is_monotone_and_counts_iterations() {
    let engine = quick_engine(2);
    let opened = engine
        .synthesize(figure1_queries(), 40, 10_000, 7)
        .expect("synthesize");
    assert_eq!(opened.best.iterations, 40);
    assert!(opened.best.reward.is_finite());
    assert!(opened.interface.widget_count >= 1);

    let mut last = opened.best.reward;
    let mut expected_iterations = 40u64;
    for _ in 0..4 {
        let refined = engine.refine(opened.session, 25, 10_000).expect("refine");
        expected_iterations += 25;
        assert_eq!(refined.best.iterations, expected_iterations);
        assert!(
            refined.best.reward >= last,
            "refine decreased best reward: {last} -> {}",
            refined.best.reward
        );
        assert_eq!(refined.improved, refined.best.reward > last);
        last = refined.best.reward;
    }
}

#[test]
fn interleaved_sessions_match_a_sequential_session_bitwise() {
    // Two sessions with the same log and seed, refined in interleaved slices on a shared
    // engine, must both produce exactly what one session produces when run alone — shared
    // caches and scheduling must not leak between sessions.
    let reference = {
        let engine = quick_engine(1);
        let opened = engine
            .synthesize(figure1_queries(), 30, 10_000, 11)
            .unwrap();
        let mut result = None;
        for _ in 0..3 {
            result = Some(engine.refine(opened.session, 30, 10_000).unwrap());
        }
        result.unwrap()
    };

    let engine = quick_engine(2);
    let a = engine
        .synthesize(figure1_queries(), 30, 10_000, 11)
        .unwrap();
    let b = engine
        .synthesize(figure1_queries(), 30, 10_000, 11)
        .unwrap();
    assert_ne!(a.session, b.session);
    let (mut last_a, mut last_b) = (None, None);
    for _ in 0..3 {
        last_a = Some(engine.refine(a.session, 30, 10_000).unwrap());
        last_b = Some(engine.refine(b.session, 30, 10_000).unwrap());
    }
    let last_a = last_a.unwrap();
    let last_b = last_b.unwrap();

    for (name, result) in [("interleaved A", &last_a), ("interleaved B", &last_b)] {
        assert_eq!(
            result.best.reward.to_bits(),
            reference.best.reward.to_bits(),
            "{name} diverged from the solo session"
        );
        assert_eq!(result.best.iterations, reference.best.iterations);
        assert_eq!(result.best.evaluations, reference.best.evaluations);
        assert_eq!(result.best.tree_nodes, reference.best.tree_nodes);
        assert_eq!(result.interface, reference.interface);
    }
}

#[test]
fn concurrent_sessions_all_complete_without_starvation() {
    // One worker thread, eight sessions refining concurrently: the round-robin scheduler
    // must advance them all to their full request budgets.
    let engine = quick_engine(1);
    let sessions: Vec<u64> = (0..8)
        .map(|i| {
            engine
                .synthesize(figure1_queries(), 10, 30_000, 100 + i)
                .expect("synthesize")
                .session
        })
        .collect();

    let results: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let engine = &engine;
        let handles: Vec<_> = sessions
            .iter()
            .map(|&session| {
                scope.spawn(move || {
                    let result = engine.refine(session, 80, 30_000).expect("refine");
                    (session, result.best.iterations)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (session, iterations) in results {
        assert_eq!(
            iterations, 90,
            "session {session} did not reach its full budget (starved?)"
        );
    }
    let stats = engine.stats();
    assert_eq!(stats.sessions, 8);
    assert_eq!(stats.total_iterations, 8 * 90);
    // Eight 80-iteration requests through a 16-iteration quantum: time-slicing must have
    // split each request into several slices.
    assert!(
        stats.total_slices >= 8 * 5,
        "expected round-robin slicing, got {} slices",
        stats.total_slices
    );
}

#[test]
fn admission_control_rejects_over_capacity_sessions() {
    let engine = ServeEngine::start(ServeConfig::quick().with_threads(1).with_max_sessions(2));
    let a = engine.synthesize(figure1_queries(), 5, 5_000, 1).unwrap();
    let _b = engine.synthesize(figure1_queries(), 5, 5_000, 2).unwrap();
    assert_eq!(
        engine
            .synthesize(figure1_queries(), 5, 5_000, 3)
            .unwrap_err(),
        ServeError::Busy
    );
    // Closing a session frees capacity.
    engine.close_session(a.session).unwrap();
    assert!(engine.synthesize(figure1_queries(), 5, 5_000, 4).is_ok());
}

#[test]
fn unknown_sessions_are_rejected() {
    let engine = quick_engine(1);
    assert_eq!(
        engine.refine(999, 10, 1_000).unwrap_err(),
        ServeError::UnknownSession(999)
    );
    assert!(matches!(
        engine
            .interact(
                999,
                &WidgetAction::Select {
                    path: vec![],
                    pick: 0
                }
            )
            .unwrap_err(),
        ServeError::UnknownSession(999)
    ));
    assert_eq!(
        engine.close_session(999).unwrap_err(),
        ServeError::UnknownSession(999)
    );
    assert_eq!(
        engine.synthesize(Vec::new(), 10, 1_000, 1).unwrap_err(),
        ServeError::NoQueries
    );
    assert_eq!(
        engine.append(999, "SELECT Costs FROM sales").unwrap_err(),
        ServeError::UnknownSession(999)
    );
    assert_eq!(
        engine.retract(999, 0).unwrap_err(),
        ServeError::UnknownSession(999)
    );
    assert_eq!(
        engine.resume(999).unwrap_err(),
        ServeError::UnknownSession(999)
    );
    // A request naming no known session is not served work.
    assert_eq!(engine.stats().total_requests, 0);
}

#[test]
fn interactions_drive_the_best_interface() {
    let engine = quick_engine(2);
    let opened = engine
        .synthesize(figure1_queries(), 60, 10_000, 7)
        .expect("synthesize");
    let choice = opened
        .interface
        .choices
        .first()
        .expect("generated interface has widgets")
        .clone();

    let path = choice.path.0.clone();
    let action = match choice.choice_kind {
        mctsui_difftree::DiffKind::Opt => WidgetAction::Toggle {
            path,
            included: false,
        },
        mctsui_difftree::DiffKind::Multi => WidgetAction::Repeat { path, count: 1 },
        _ => WidgetAction::Select { path, pick: 0 },
    };
    let sql = engine.interact(opened.session, &action).expect("interact");
    assert!(
        sql.to_uppercase().contains("SELECT"),
        "re-derived SQL looks wrong: {sql}"
    );

    // A jump to a log query re-derives exactly that query.
    let target = "SELECT Costs FROM sales";
    let sql = engine
        .interact(
            opened.session,
            &WidgetAction::Jump {
                query: target.to_string(),
            },
        )
        .expect("jump");
    assert_eq!(sql.to_uppercase(), target.to_uppercase());

    // Out-of-range interactions fail cleanly without killing the session.
    assert!(matches!(
        engine
            .interact(
                opened.session,
                &WidgetAction::Select {
                    path: vec![9, 9, 9],
                    pick: 0
                }
            )
            .unwrap_err(),
        ServeError::Interaction(_)
    ));
    assert!(engine.refine(opened.session, 5, 5_000).is_ok());
}

#[test]
fn sessions_over_the_same_log_share_one_problem_cache() {
    let engine = quick_engine(1);
    let a = engine.synthesize(figure1_queries(), 20, 10_000, 1).unwrap();
    let stats_after_a = engine.stats();
    let b = engine.synthesize(figure1_queries(), 20, 10_000, 2).unwrap();
    let stats_after_b = engine.stats();
    assert_ne!(a.session, b.session);

    // The second session over the same log reuses the first's plan cache: its prologue
    // evaluates the shared initial state, which the first session already compiled, so
    // plan-cache hits must grow during session B's run.
    assert!(
        stats_after_b.context_cache.plans.hits > stats_after_a.context_cache.plans.hits,
        "second session produced no plan-cache hits"
    );
    // The global action index is shared regardless of log.
    assert!(stats_after_b.action_index.hits > 0);
}

#[test]
fn stats_report_engine_wide_counters() {
    let engine = quick_engine(2);
    let opened = engine.synthesize(figure1_queries(), 15, 10_000, 3).unwrap();
    engine.refine(opened.session, 15, 10_000).unwrap();
    let stats = engine.stats();
    assert_eq!(stats.sessions, 1);
    assert_eq!(stats.peak_sessions, 1);
    assert_eq!(stats.total_requests, 2);
    assert_eq!(stats.total_iterations, 30);
    assert!(stats.total_slices >= 2);
    assert_eq!(stats.threads, 2);
    assert!(stats.context_cache.contexts.insertions > 0);
    assert!(stats.action_index.insertions > 0);
}

#[test]
fn batch_one_single_worker_matches_a_raw_handle_bitwise() {
    // The batched co-scheduler at batch = 1 with one worker is the sequential resumable
    // search: the engine's answer must reproduce a raw SearchHandle over the identically
    // configured problem bit-for-bit (the PR-5 determinism pin, preserved through the
    // split-iteration rewrite).
    use mctsui_core::InterfaceSearchProblem;
    use mctsui_difftree::{simplified_difftree, RuleEngine};
    use mctsui_mcts::{Budget, SearchHandle, SliceBudget};

    for seed in [7u64, 0xC0FFEE] {
        let config = ServeConfig::quick().with_threads(1).with_batch(1);
        let queries = figure1_queries();

        let reference = {
            let initial = simplified_difftree(&queries);
            let problem = Arc::new(InterfaceSearchProblem::new(
                queries.clone(),
                initial,
                RuleEngine::default(),
                config.screen,
                config.weights,
                config.assignments_per_eval,
            ));
            let mut mcts = config.mcts.clone();
            mcts.seed = seed;
            mcts.budget = Budget::Iterations(usize::MAX);
            let mut handle = SearchHandle::new(problem, mcts);
            handle.run_for(SliceBudget::iterations(40));
            for _ in 0..3 {
                handle.run_for(SliceBudget::iterations(25));
            }
            handle
        };

        let engine = ServeEngine::start(config);
        let opened = engine
            .synthesize(queries.clone(), 40, 60_000, seed)
            .expect("synthesize");
        let mut last = None;
        for _ in 0..3 {
            last = Some(engine.refine(opened.session, 25, 60_000).expect("refine"));
        }
        let last = last.unwrap();

        assert_eq!(
            last.best.reward.to_bits(),
            reference.best_reward().to_bits(),
            "seed {seed}: batch=1 engine diverged from the raw sequential handle"
        );
        assert_eq!(last.best.iterations, reference.iterations() as u64);
        assert_eq!(last.best.evaluations, reference.evaluations() as u64);
        assert_eq!(last.best.tree_nodes, reference.node_count() as u64);
    }
}

#[test]
fn batched_stress_eight_sessions_four_workers_accounts_every_iteration() {
    // Eight sessions hammered through four workers with a wide batch: every session must
    // reach its exact request budget (no starvation, no lost or double-counted
    // iterations), and the batching counters must prove the batched path actually ran.
    let engine = ServeEngine::start(ServeConfig::quick().with_threads(4).with_batch(16));
    let sessions: Vec<u64> = (0..8)
        .map(|i| {
            engine
                .synthesize(figure1_queries(), 10, 30_000, 500 + i)
                .expect("synthesize")
                .session
        })
        .collect();

    let results: Vec<(u64, u64, f64)> = std::thread::scope(|scope| {
        let engine = &engine;
        let handles: Vec<_> = sessions
            .iter()
            .map(|&session| {
                scope.spawn(move || {
                    let mut last_reward = f64::NEG_INFINITY;
                    let mut result = None;
                    for _ in 0..2 {
                        let refined = engine.refine(session, 40, 30_000).expect("refine");
                        assert!(
                            refined.best.reward >= last_reward,
                            "refine lost ground on session {session}"
                        );
                        last_reward = refined.best.reward;
                        result = Some(refined);
                    }
                    let result = result.unwrap();
                    (session, result.best.iterations, result.best.reward)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (session, iterations, reward) in results {
        assert_eq!(
            iterations, 90,
            "session {session} did not account its full budget"
        );
        assert!(reward.is_finite());
    }

    let stats = engine.stats();
    assert_eq!(stats.total_iterations, 8 * 90);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.leaf_queue_depth, 0);
    assert!(stats.total_batches > 0, "batched evaluation never ran");
    assert!(
        stats.total_batched_units >= stats.total_iterations,
        "every iteration owes at least its node evaluation to the batch path"
    );
}

#[test]
fn concurrent_sessions_on_four_workers_match_their_solo_runs_bitwise() {
    // Leaves of one window are evaluated by whichever workers pop them, in any order; the
    // window barrier alone must keep every session's stream what the same seed produces
    // on a one-worker engine at the same window width.
    const BATCH: usize = 16;
    let script = |engine: &ServeEngine, seed: u64| {
        let opened = engine
            .synthesize(figure1_queries(), 10, 60_000, seed)
            .expect("synthesize");
        let mut last = None;
        for _ in 0..2 {
            last = Some(engine.refine(opened.session, 40, 60_000).expect("refine"));
        }
        last.unwrap()
    };
    let seeds: Vec<u64> = (0..8).map(|i| 500 + i).collect();

    let engine = ServeEngine::start(ServeConfig::quick().with_threads(4).with_batch(BATCH));
    let concurrent: Vec<_> = std::thread::scope(|scope| {
        let engine = &engine;
        let handles: Vec<_> = seeds
            .iter()
            .map(|&seed| scope.spawn(move || script(engine, seed)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(engine.stats().total_iterations, 8 * 90);

    for (&seed, result) in seeds.iter().zip(&concurrent) {
        let solo_engine =
            ServeEngine::start(ServeConfig::quick().with_threads(1).with_batch(BATCH));
        let solo = script(&solo_engine, seed);
        assert_eq!(
            result.best.reward.to_bits(),
            solo.best.reward.to_bits(),
            "seed {seed}: the concurrent session diverged from its solo run"
        );
        assert_eq!(result.best.iterations, solo.best.iterations);
        assert_eq!(result.best.evaluations, solo.best.evaluations);
        assert_eq!(result.best.tree_nodes, solo.best.tree_nodes);
        assert_eq!(result.interface, solo.interface);
    }
}

#[test]
fn an_append_waits_out_an_in_flight_window_and_lands_before_the_next() {
    use mctsui_serve::{EvalFault, FaultPlan};

    const APPENDED: &str = "SELECT Sales FROM sales WHERE yr = 2020";
    // The reference runs the same stream serially: a 12-iteration refine is three windows
    // of 4, and the append lands between the first and the second.
    let config = || ServeConfig::quick().with_threads(1).with_batch(4);
    let reference_engine = ServeEngine::start(config());
    let reference_session = reference_engine
        .synthesize(figure1_queries(), 12, 30_000, 21)
        .expect("synthesize")
        .session;
    // The faulted engine (same seed, same stream) delays the first evaluation after the
    // synthesize.
    let opening_evaluations = reference_engine.stats().total_batches;
    reference_engine
        .refine(reference_session, 4, 30_000)
        .expect("refine");
    reference_engine
        .append(reference_session, APPENDED)
        .expect("append");
    let reference = reference_engine
        .refine(reference_session, 8, 30_000)
        .expect("refine");

    let plan = Arc::new(
        FaultPlan::new().eval_fault_at(opening_evaluations + 1, EvalFault::DelayMillis(300)),
    );
    let engine = ServeEngine::start(config().with_fault_plan(Arc::clone(&plan)));
    let session = engine
        .synthesize(figure1_queries(), 12, 30_000, 21)
        .expect("synthesize")
        .session;
    assert!(plan.fired().is_empty());

    let refined = std::thread::scope(|scope| {
        let engine = &engine;
        let refine = scope.spawn(move || engine.refine(session, 12, 30_000).expect("refine"));
        // The one worker sleeps inside the delayed evaluation while the rest of its
        // window waits in the leaf queue: the window is in flight.
        while plan.fired().is_empty() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(engine.stats().leaf_queue_depth > 0);

        let appended = engine
            .append(session, APPENDED)
            .expect("the append waits for the window instead of failing");
        assert_eq!(appended.healthy_len, 4);
        refine.join().unwrap()
    });

    // The append ran after the first window and before the second opened.
    assert_eq!(
        refined.best.reward.to_bits(),
        reference.best.reward.to_bits()
    );
    assert_eq!(refined.best.iterations, 24);
    assert_eq!(refined.best.evaluations, reference.best.evaluations);
    assert_eq!(refined.best.tree_nodes, reference.best.tree_nodes);
    assert_eq!(refined.interface, reference.interface);

    let stats = engine.stats();
    assert_eq!(stats.total_iterations, 24);
    assert_eq!(stats.rebased_handles, 1);
    assert_eq!(stats.expired_windows, 0);
    assert_eq!(engine.outstanding_virtual_loss(), 0);
    let after = engine
        .refine(session, 7, 30_000)
        .expect("refine after the append");
    assert_eq!(after.best.iterations, 31);
    assert_eq!(engine.stats().total_iterations, 31);
}

#[test]
fn deadline_expiry_while_queued_drops_work_without_corrupting_sessions() {
    // Impossible budgets against millisecond deadlines on one worker: requests must come
    // back Ok (anytime semantics) with the expiry counters eventually proving that queued
    // windows were aborted rather than evaluated — and the sessions must stay perfectly
    // consistent afterwards (exact iteration accounting on a follow-up refine).
    let engine = ServeEngine::start(ServeConfig::quick().with_threads(1).with_batch(8));
    let sessions: Vec<u64> = (0..4)
        .map(|i| {
            engine
                .synthesize(figure1_queries(), 5, 30_000, 900 + i)
                .expect("synthesize")
                .session
        })
        .collect();

    let mut attempts = 0;
    while engine.stats().expired_windows == 0 && attempts < 200 {
        attempts += 1;
        std::thread::scope(|scope| {
            let engine = &engine;
            for &session in &sessions {
                scope.spawn(move || {
                    // Huge budget, 2 ms deadline: cannot finish; must return the anytime
                    // answer via either the turn-time deadline check or the abort path.
                    let result = engine.refine(session, 50_000, 2).expect("refine");
                    assert!(result.best.reward.is_finite());
                });
            }
        });
    }
    let stats = engine.stats();
    assert!(
        stats.expired_windows > 0,
        "no window ever expired in the queue across {attempts} rounds"
    );
    // Every aborted window dropped its queued units unevaluated.
    assert!(stats.expired_units > 0);
    assert_eq!(stats.leaf_queue_depth, 0);
    assert_eq!(stats.queue_depth, 0);

    // Aborted windows unwound their iterations, so exact accounting still holds: a
    // normal refine advances each session by exactly its request budget.
    for &session in &sessions {
        let before = engine.refine(session, 7, 30_000).expect("refine");
        let after = engine.refine(session, 7, 30_000).expect("refine");
        assert_eq!(after.best.iterations, before.best.iterations + 7);
        assert!(after.best.reward >= before.best.reward);
    }
}

#[test]
fn stats_surface_batching_and_shard_counters() {
    let engine = quick_engine(2);
    let opened = engine.synthesize(figure1_queries(), 20, 10_000, 3).unwrap();
    engine.refine(opened.session, 20, 10_000).unwrap();
    let stats = engine.stats();

    // Config echoes.
    assert_eq!(stats.batch, 4);
    assert_eq!(stats.shards, 8);
    assert_eq!(stats.threads, 2);

    // Batching counters are live and self-consistent.
    assert!(stats.total_batches > 0);
    assert!(stats.total_batched_units >= stats.total_iterations);

    // Per-shard cache counters sum to the aggregates.
    assert_eq!(stats.plan_cache_shards.len(), 8);
    assert_eq!(stats.action_index_shards.len(), 8);
    let plan_sum = stats
        .plan_cache_shards
        .iter()
        .fold(mctsui_difftree::CacheCounters::default(), |acc, c| {
            acc.merged(c)
        });
    assert_eq!(plan_sum, stats.context_cache.plans);
    let index_sum = stats
        .action_index_shards
        .iter()
        .fold(mctsui_difftree::CacheCounters::default(), |acc, c| {
            acc.merged(c)
        });
    assert_eq!(index_sum, stats.action_index);
}

#[test]
fn shutdown_rejects_new_work_and_joins_workers() {
    let engine = quick_engine(2);
    let opened = engine.synthesize(figure1_queries(), 10, 5_000, 1).unwrap();
    engine.begin_shutdown();
    assert!(engine.is_shutdown());
    assert_eq!(
        engine
            .synthesize(figure1_queries(), 10, 5_000, 1)
            .unwrap_err(),
        ServeError::ShuttingDown
    );
    assert_eq!(
        engine.refine(opened.session, 10, 5_000).unwrap_err(),
        ServeError::ShuttingDown
    );
    engine.join_workers();
}

#[test]
fn degraded_logs_are_quarantined_and_synthesize_like_the_clean_log() {
    use mctsui_core::TriagedLog;

    // The figure-1 log with two unusable entries spliced in. The healthy subsequence is
    // exactly the clean log, so the degraded session must be bit-identical to a clean one.
    let sources = vec![
        "SELECT Sales FROM sales WHERE cty = 'USA'".to_string(),
        "SELECT @@ oops FROM".to_string(),
        "SELECT Costs FROM sales WHERE cty = 'EUR'".to_string(),
        "not sql at all".to_string(),
        "SELECT Costs FROM sales".to_string(),
    ];
    let log = TriagedLog::from_sources(&sources);

    let degraded_engine = quick_engine(1);
    let degraded = degraded_engine
        .synthesize_triaged(&log, 40, 10_000, 7)
        .expect("degraded synthesize");

    // Diagnostics name exactly the quarantined slots (possibly several errors per slot),
    // in log order, with their log indices.
    assert!(degraded.diagnostics.iter().all(|d| d.quarantined));
    let slots: std::collections::BTreeSet<u64> =
        degraded.diagnostics.iter().map(|d| d.index).collect();
    assert_eq!(slots, [1u64, 3].into_iter().collect());
    assert!(degraded.diagnostics.iter().all(|d| !d.message.is_empty()));
    assert_eq!(degraded_engine.stats().quarantined_queries, 2);

    let clean_engine = quick_engine(1);
    let clean = clean_engine
        .synthesize(figure1_queries(), 40, 10_000, 7)
        .expect("clean synthesize");
    assert!(clean.diagnostics.is_empty());
    assert_eq!(clean_engine.stats().quarantined_queries, 0);

    // Quarantine contract: the healthy subtree is bit-identical to the clean session.
    assert_eq!(degraded.best.reward.to_bits(), clean.best.reward.to_bits());
    assert_eq!(degraded.best.iterations, clean.best.iterations);
    assert_eq!(degraded.interface, clean.interface);

    // Refine echoes the session's admission diagnostics on every turn.
    let refined = degraded_engine
        .refine(degraded.session, 20, 10_000)
        .expect("refine");
    assert_eq!(refined.diagnostics, degraded.diagnostics);
}

#[test]
fn strict_engine_rejects_degraded_logs() {
    use mctsui_core::TriagedLog;

    let engine = ServeEngine::start(ServeConfig::quick().with_threads(1).with_strict());
    let noisy = TriagedLog::from_sources(&[
        "SELECT Sales FROM sales WHERE cty = 'USA'",
        "SELECT @@ oops FROM",
    ]);
    let err = engine
        .synthesize_triaged(&noisy, 20, 10_000, 1)
        .unwrap_err();
    assert_eq!(err.code(), "bad_query");
    assert!(err.to_string().contains("query 1"), "got: {err}");

    // Clean logs still serve under strict admission.
    let clean = TriagedLog::from_sources(&["SELECT Sales FROM sales WHERE cty = 'USA'"]);
    let opened = engine
        .synthesize_triaged(&clean, 20, 10_000, 1)
        .expect("strict engine serves clean log");
    assert!(opened.diagnostics.is_empty());
    assert_eq!(engine.stats().quarantined_queries, 0);
}

#[test]
fn append_and_retract_maintain_the_session_log_with_exact_accounting() {
    use mctsui_serve::SessionLogStat;

    let engine = quick_engine(1);
    let opened = engine
        .synthesize(figure1_queries(), 20, 10_000, 5)
        .expect("synthesize");
    let session = opened.session;

    // Healthy append: the log grows, the warm tree is rebased onto the extended problem.
    let appended = engine
        .append(session, "SELECT Sales FROM sales WHERE yr = 2020")
        .expect("healthy append");
    assert_eq!(appended.log_len, 4);
    assert_eq!(appended.healthy_len, 4);
    assert_eq!(appended.quarantined_len, 0);
    assert!(appended.result.diagnostics.is_empty());
    assert!(appended.result.best.reward.is_finite());

    // The rebased session keeps refining: iterations accumulate across the rebase.
    let refined = engine
        .refine(session, 15, 10_000)
        .expect("refine after append");
    assert!(refined.best.iterations >= appended.result.best.iterations + 15);

    // Quarantined append: the slot and its diagnostics are recorded, the search is
    // untouched (no rebase).
    let noisy = engine
        .append(session, "SELECT @@ oops FROM")
        .expect("lenient append");
    assert_eq!(noisy.log_len, 5);
    assert_eq!(noisy.healthy_len, 4);
    assert_eq!(noisy.quarantined_len, 1);
    assert!(!noisy.result.diagnostics.is_empty());
    assert!(noisy
        .result
        .diagnostics
        .iter()
        .all(|d| d.quarantined && d.index == 4));

    // Retracting the quarantined slot clears its diagnostics without touching the tree.
    let retracted = engine.retract(session, 4).expect("retract quarantined");
    assert_eq!(retracted.log_len, 4);
    assert_eq!(retracted.quarantined_len, 0);
    assert!(retracted.result.diagnostics.is_empty());

    // Retracting a healthy query narrows the problem and rebases again.
    let retracted = engine.retract(session, 0).expect("retract healthy");
    assert_eq!(retracted.log_len, 3);
    assert_eq!(retracted.healthy_len, 3);

    // Out-of-bounds retract is a typed error and changes nothing.
    assert_eq!(engine.retract(session, 99).unwrap_err().code(), "bad_query");
    assert_eq!(
        engine
            .append(77_777, "SELECT Costs FROM sales")
            .unwrap_err(),
        ServeError::UnknownSession(77_777)
    );

    // Exact accounting: 2 appends, 2 retracts, 2 rebases (the healthy edits), 1
    // quarantined-in-service query, and the session's live log shape.
    let stats = engine.stats();
    assert_eq!(stats.appended_queries, 2);
    assert_eq!(stats.retracted_queries, 2);
    assert_eq!(stats.rebased_handles, 2);
    assert_eq!(stats.quarantined_queries, 1);
    assert_eq!(
        stats.session_logs,
        vec![SessionLogStat {
            session,
            entries: 3,
            quarantined: 0,
        }]
    );
}

#[test]
fn retracting_the_last_healthy_query_is_rejected() {
    let engine = quick_engine(1);
    let opened = engine
        .synthesize(
            vec![parse_query("SELECT Costs FROM sales").unwrap()],
            10,
            10_000,
            2,
        )
        .expect("synthesize");
    let err = engine.retract(opened.session, 0).unwrap_err();
    assert_eq!(err, ServeError::NoQueries);
    // The rejected retract left the log intact: the session still serves.
    assert!(engine.refine(opened.session, 5, 10_000).is_ok());
}

#[test]
fn strict_engine_rejects_malformed_appends() {
    let engine = ServeEngine::start(ServeConfig::quick().with_threads(1).with_strict());
    let opened = engine
        .synthesize(figure1_queries(), 10, 10_000, 4)
        .expect("synthesize");
    let err = engine
        .append(opened.session, "SELECT @@ oops FROM")
        .unwrap_err();
    assert_eq!(err.code(), "bad_query");
    let stats = engine.stats();
    assert_eq!(stats.appended_queries, 0);
    assert_eq!(stats.session_logs[0].entries, 3);
}

#[test]
fn fully_quarantined_logs_are_rejected_even_when_lenient() {
    use mctsui_core::TriagedLog;

    let engine = quick_engine(1);
    let hopeless = TriagedLog::from_sources(&["@@@@", "not sql at all"]);
    let err = engine
        .synthesize_triaged(&hopeless, 20, 10_000, 1)
        .unwrap_err();
    assert_eq!(err.code(), "bad_query");
    assert!(err.to_string().contains("quarantined"), "got: {err}");
    // Nothing was admitted, so nothing counts as quarantined-in-service.
    assert_eq!(engine.stats().quarantined_queries, 0);
}
