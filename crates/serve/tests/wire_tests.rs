//! Full-stack wire tests: a real TCP server on an ephemeral loopback port, driven by the
//! scripted NDJSON client — the same path the CI smoke job exercises.

use std::net::TcpListener;
use std::sync::Arc;

use mctsui_serve::{
    run_concurrent_sessions, run_scripted_session, Client, FaultPlan, Request, Response,
    ScriptConfig, ServeConfig, ServeEngine,
};

fn demo_queries() -> Vec<String> {
    vec![
        "SELECT Sales FROM sales WHERE cty = 'USA'".to_string(),
        "SELECT Costs FROM sales WHERE cty = 'EUR'".to_string(),
        "SELECT Costs FROM sales".to_string(),
    ]
}

/// Bind an ephemeral loopback port and serve a quick engine on a background thread.
fn start_server(threads: usize) -> (Arc<ServeEngine>, String, std::thread::JoinHandle<()>) {
    let engine = ServeEngine::start(ServeConfig::quick().with_threads(threads));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server_engine = Arc::clone(&engine);
    let handle = std::thread::spawn(move || {
        mctsui_serve::serve_on(server_engine, listener).expect("server failed");
    });
    (engine, addr, handle)
}

#[test]
fn scripted_session_round_trips_over_tcp() {
    let (_engine, addr, server) = start_server(2);

    let script = ScriptConfig {
        iterations: 40,
        refines: 2,
        deadline_millis: 10_000,
        seed: 7,
        seed_stride: 1,
        ..ScriptConfig::default()
    };
    let report = run_scripted_session(&addr, &demo_queries(), &script).expect("scripted session");
    assert_eq!(report.refined.len(), 2);
    assert!(report.final_reward() >= report.initial.reward);
    assert!(report.interact_sql.is_some(), "no widget to interact with");
    assert_eq!(report.latencies_millis.len(), 3);

    // Stats and shutdown over the same protocol.
    let mut client = Client::connect(&addr).expect("connect");
    match client.call(&Request::Stats).expect("stats") {
        Response::Stats(stats) => {
            assert_eq!(stats.sessions, 0, "scripted session should have closed");
            assert!(stats.total_iterations >= 3 * 40);
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    match client.call(&Request::Shutdown).expect("shutdown") {
        Response::ShuttingDown => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    server.join().expect("server thread");
}

#[test]
fn eight_concurrent_scripted_sessions_succeed() {
    // The acceptance criterion of the serving PR: ≥ 8 concurrent scripted sessions, every
    // refine monotone (the client errors out on any violation).
    let (_engine, addr, server) = start_server(2);

    let script = ScriptConfig {
        iterations: 30,
        refines: 2,
        deadline_millis: 20_000,
        seed: 1,
        seed_stride: 1,
        ..ScriptConfig::default()
    };
    let reports =
        run_concurrent_sessions(&addr, &demo_queries(), &script, 8).expect("concurrent sessions");
    assert_eq!(reports.len(), 8);
    let mut ids: Vec<u64> = reports.iter().map(|r| r.session).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 8, "sessions must be distinct");
    for report in &reports {
        assert_eq!(report.initial.iterations, 30);
        assert_eq!(report.refined.last().unwrap().iterations, 90);
    }

    let mut client = Client::connect(&addr).expect("connect");
    client.call(&Request::Shutdown).expect("shutdown");
    server.join().expect("server thread");
}

#[test]
fn batched_load_accounts_for_every_iteration_and_batch() {
    // Two scripted sessions (synthesize + one refine, 15 iterations each) through one
    // worker with leaf batches of 8, plus a probe session kept open so the per-log caches
    // outlive the scripted sessions and their counters stay observable. The engine's
    // post-run stats must account for every iteration, and the batching counters must
    // prove the batched evaluation path ran.
    let engine = ServeEngine::start(ServeConfig::quick().with_threads(1).with_batch(8));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server_engine = Arc::clone(&engine);
    let server = std::thread::spawn(move || {
        mctsui_serve::serve_on(server_engine, listener).expect("server failed");
    });
    let queries = demo_queries()
        .iter()
        .map(|sql| mctsui_sql::parse_query(sql).expect("demo query parses"))
        .collect();
    let probe = engine
        .synthesize(queries, 1, 10_000, 999)
        .expect("probe session");

    let script = ScriptConfig {
        iterations: 15,
        refines: 1,
        deadline_millis: 60_000,
        seed: 5,
        seed_stride: 1,
        ..ScriptConfig::default()
    };
    let reports =
        run_concurrent_sessions(&addr, &demo_queries(), &script, 2).expect("scripted sessions");
    let requests: usize = reports.iter().map(|r| r.latencies_millis.len()).sum();
    assert_eq!(requests, 4);

    let stats = engine.stats();
    assert_eq!(stats.total_iterations, 4 * 15 + 1);
    assert!(stats.total_batches > 0, "batched evaluation never ran");
    assert!(stats.mean_batch >= 1.0);
    assert!((1..=8).contains(&stats.max_batch));
    assert!((0.0..=1.0).contains(&stats.batch_group_hit_ratio));
    assert!(
        stats.context_cache.plans.hit_ratio() > 0.0,
        "the probe lost the cache stats"
    );

    engine.close_session(probe.session).expect("close probe");
    let mut client = Client::connect(&addr).expect("connect");
    client.call(&Request::Shutdown).expect("shutdown");
    server.join().expect("server thread");
}

#[test]
fn scripted_appends_extend_the_live_log_over_tcp() {
    // The live-maintenance wire path end to end: a scripted session appends two drift
    // queries (one of them malformed, so it lands in quarantine), the server grafts and
    // rebases in place, and the report carries the post-append interface and log length.
    let (_engine, addr, server) = start_server(2);

    let script = ScriptConfig {
        iterations: 30,
        refines: 1,
        deadline_millis: 10_000,
        seed: 9,
        persist: true,
        appends: vec![
            "SELECT Sales FROM sales WHERE yr = 2020".to_string(),
            "SELECT @@ oops FROM".to_string(),
        ],
        ..ScriptConfig::default()
    };
    let report = run_scripted_session(&addr, &demo_queries(), &script).expect("append session");
    assert_eq!(report.appended.len(), 2, "one refine report per append");
    assert_eq!(report.log_len, Some(5), "3 base queries + 2 appends");
    assert!(
        report.diagnostics.iter().any(|d| d.index == 4),
        "the malformed append must surface as a diagnostic at its log position"
    );

    // The server agrees: the session's log is 5 entries, one quarantined, and the
    // maintenance counters account for exactly what the script did.
    let mut client = Client::connect(&addr).expect("connect");
    match client.call(&Request::Stats).expect("stats") {
        Response::Stats(stats) => {
            assert_eq!(stats.appended_queries, 2);
            assert_eq!(stats.retracted_queries, 0);
            assert_eq!(stats.rebased_handles, 1, "only the healthy append rebases");
            assert_eq!(stats.session_logs.len(), 1);
            assert_eq!(stats.session_logs[0].session, report.session);
            assert_eq!(stats.session_logs[0].entries, 5);
            assert_eq!(stats.session_logs[0].quarantined, 1);
        }
        other => panic!("expected Stats, got {other:?}"),
    }

    // Retracting the quarantined slot over the wire shrinks the log and clears the
    // diagnostic; the session keeps serving.
    match client
        .call(&Request::Retract {
            session: report.session,
            index: 4,
        })
        .expect("retract")
    {
        Response::Retracted {
            log_len,
            healthy_len,
            diagnostics,
            ..
        } => {
            assert_eq!(log_len, 4);
            assert_eq!(healthy_len, 4);
            assert!(diagnostics.is_empty());
        }
        other => panic!("expected Retracted, got {other:?}"),
    }

    client.call(&Request::Shutdown).expect("shutdown");
    server.join().expect("server thread");
}

#[test]
fn malformed_and_unknown_requests_get_error_responses() {
    let (_engine, addr, server) = start_server(1);

    let mut client = Client::connect(&addr).expect("connect");
    // A malformed line keeps the connection usable.
    use std::io::{BufRead, BufReader, Write};
    let mut raw = std::net::TcpStream::connect(&addr).expect("connect raw");
    raw.write_all(b"this is not json\n").expect("write");
    raw.flush().expect("flush");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    assert!(
        line.contains("Error"),
        "expected Error response, got {line}"
    );

    // Unknown session over the protocol.
    let err = client
        .call(&Request::Refine {
            session: 424_242,
            iterations: 5,
            deadline_millis: 100,
        })
        .expect_err("refining an unknown session must fail");
    assert!(err.to_string().contains("unknown session"));

    // An unparseable query in synthesize.
    let err = client
        .call(&Request::Synthesize {
            queries: vec!["SELECT FROM FROM".into()],
            iterations: 5,
            deadline_millis: 100,
            seed: 1,
        })
        .expect_err("bad SQL must fail");
    assert!(err.to_string().contains("bad query"));

    client.call(&Request::Shutdown).expect("shutdown");
    server.join().expect("server thread");
}

#[test]
fn tolerant_client_survives_an_injected_connection_drop() {
    // The very first accepted connection is severed right after accept — as a network
    // blip would. The fault-tolerant scripted client must reconnect under backoff and
    // complete the whole script with the monotonicity invariant intact.
    let engine = ServeEngine::start(
        ServeConfig::quick()
            .with_threads(1)
            .with_fault_plan(Arc::new(FaultPlan::new().drop_connection(1))),
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server_engine = Arc::clone(&engine);
    let server = std::thread::spawn(move || {
        mctsui_serve::serve_on(server_engine, listener).expect("server failed");
    });

    let script = ScriptConfig {
        iterations: 20,
        refines: 2,
        deadline_millis: 10_000,
        seed: 5,
        tolerate_faults: true,
        ..ScriptConfig::default()
    };
    let report = run_scripted_session(&addr, &demo_queries(), &script)
        .expect("tolerant session through a dropped connection");
    assert!(
        report.reconnects >= 1,
        "the injected drop should have forced a reconnect"
    );
    assert_eq!(report.restarts, 0, "no session was lost, only a connection");
    assert_eq!(report.refined.len(), 2);
    assert!(report.final_reward() >= report.initial.reward);

    let mut client = Client::connect(&addr).expect("connect");
    client.call(&Request::Shutdown).expect("shutdown");
    server.join().expect("server thread");
}

#[test]
fn oversized_request_lines_get_a_typed_error_and_the_connection_survives() {
    let (engine, addr, server) = start_server(1);
    let cap = engine.config().max_frame_bytes;

    use std::io::{BufRead, BufReader, Write};
    let mut raw = std::net::TcpStream::connect(&addr).expect("connect raw");
    // Twice the cap of garbage on one line: the server must discard it without buffering
    // it, answer with the typed frame error, and stay frame-aligned.
    let mut huge = vec![b'x'; cap * 2];
    huge.push(b'\n');
    raw.write_all(&huge).expect("write oversized line");
    raw.flush().expect("flush");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read error response");
    assert!(
        line.contains("frame_too_large"),
        "expected the typed frame error, got {line}"
    );

    // Same connection, next line: a valid request still works.
    raw.write_all(mctsui_serve::proto::encode_line(&Request::Stats).as_bytes())
        .expect("write stats");
    raw.write_all(b"\n").expect("newline");
    raw.flush().expect("flush");
    line.clear();
    reader.read_line(&mut line).expect("read stats response");
    assert!(
        line.contains("Stats"),
        "connection unusable after an oversized line: {line}"
    );

    let mut client = Client::connect(&addr).expect("connect");
    client.call(&Request::Shutdown).expect("shutdown");
    server.join().expect("server thread");
}

#[test]
fn kill_and_restore_resumes_sessions_across_server_restarts() {
    // The full restart story over TCP: a server with a snapshot directory drains on
    // Shutdown (persisting the still-open session), a second server over the same
    // directory restores it, and `Resume` reattaches at exactly the pre-shutdown best.
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock")
        .as_nanos();
    let dir = std::env::temp_dir().join(format!(
        "mctsui-wire-restore-{}-{nanos}",
        std::process::id()
    ));

    let start_snapshotting_server = |dir: std::path::PathBuf| {
        let engine =
            ServeEngine::start(ServeConfig::quick().with_threads(1).with_snapshot_dir(dir));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr").to_string();
        let server_engine = Arc::clone(&engine);
        let handle = std::thread::spawn(move || {
            mctsui_serve::serve_on(server_engine, listener).expect("server failed");
        });
        (engine, addr, handle)
    };

    // First server lifetime: open a session, leave it open, shut down gracefully.
    let (_engine1, addr1, server1) = start_snapshotting_server(dir.clone());
    let mut client = Client::connect(&addr1).expect("connect");
    let (session, parted_best) = match client
        .call(&Request::Synthesize {
            queries: demo_queries(),
            iterations: 30,
            deadline_millis: 10_000,
            seed: 7,
        })
        .expect("synthesize")
    {
        Response::Synthesized { session, best, .. } => (session, best),
        other => panic!("expected Synthesized, got {other:?}"),
    };
    client.call(&Request::Shutdown).expect("shutdown");
    server1.join().expect("first server thread");

    // Second server lifetime over the same snapshot directory.
    let (_engine2, addr2, server2) = start_snapshotting_server(dir.clone());
    let mut client = Client::connect(&addr2).expect("connect to restarted server");
    match client
        .call(&Request::Resume { session })
        .expect("resume after restart")
    {
        Response::Resumed {
            session: id, best, ..
        } => {
            assert_eq!(id, session);
            assert_eq!(
                best.reward.to_bits(),
                parted_best.reward.to_bits(),
                "restored best diverged from the pre-shutdown best"
            );
            assert_eq!(best.iterations, parted_best.iterations);
        }
        other => panic!("expected Resumed, got {other:?}"),
    }
    // The restored session is refinable and never loses ground.
    match client
        .call(&Request::Refine {
            session,
            iterations: 20,
            deadline_millis: 10_000,
        })
        .expect("refine restored session")
    {
        Response::Refined { best, .. } => {
            assert!(best.reward >= parted_best.reward);
            assert_eq!(best.iterations, parted_best.iterations + 20);
        }
        other => panic!("expected Refined, got {other:?}"),
    }

    client.call(&Request::Shutdown).expect("second shutdown");
    server2.join().expect("second server thread");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn degraded_logs_round_trip_with_diagnostics_and_strict_servers_reject() {
    // Lenient server: a noisy log is admitted, the quarantined slots are reported in the
    // response, and the session serves the healthy remainder.
    let (_engine, addr, server) = start_server(1);
    let mut noisy = demo_queries();
    noisy.insert(1, "SELECT @@ oops FROM".to_string());
    let mut client = Client::connect(&addr).expect("connect");
    let request = Request::Synthesize {
        queries: noisy.clone(),
        iterations: 20,
        deadline_millis: 10_000,
        seed: 3,
    };
    match client.call(&request).expect("synthesize") {
        Response::Synthesized { diagnostics, .. } => {
            assert!(!diagnostics.is_empty(), "noisy log must carry diagnostics");
            assert!(diagnostics.iter().all(|d| d.quarantined && d.index == 1));
        }
        other => panic!("expected Synthesized, got {other:?}"),
    }
    match client.call(&Request::Stats).expect("stats") {
        Response::Stats(stats) => assert_eq!(stats.quarantined_queries, 1),
        other => panic!("expected Stats, got {other:?}"),
    }
    client.call(&Request::Shutdown).expect("shutdown");
    server.join().expect("server thread");

    // Strict server: the same log is rejected with a typed bad_query error.
    let engine = ServeEngine::start(ServeConfig::quick().with_threads(1).with_strict());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server_engine = Arc::clone(&engine);
    let server = std::thread::spawn(move || {
        mctsui_serve::serve_on(server_engine, listener).expect("server failed");
    });
    let mut client = Client::connect(&addr).expect("connect strict");
    match client.call(&request) {
        Err(mctsui_serve::ClientError::Server { code, message }) => {
            assert_eq!(code, "bad_query");
            assert!(message.contains("query 1"), "got: {message}");
        }
        other => panic!("expected bad_query server error, got {other:?}"),
    }
    // Clean logs still serve, with no diagnostics.
    let clean = Request::Synthesize {
        queries: demo_queries(),
        iterations: 20,
        deadline_millis: 10_000,
        seed: 3,
    };
    match client.call(&clean).expect("clean synthesize") {
        Response::Synthesized { diagnostics, .. } => assert!(diagnostics.is_empty()),
        other => panic!("expected Synthesized, got {other:?}"),
    }
    client.call(&Request::Shutdown).expect("shutdown strict");
    server.join().expect("strict server thread");
}
