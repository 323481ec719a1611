//! `live-edit`: scripted sessions against the serving engine, each over a distinct corpus
//! log that is edited between refines.
//!
//! The measured run drives the sessions over one loopback TCP connection through the
//! repository's `Client` and `serve_on`, closed loop (the next request is sent when the
//! previous answer arrives). The engine runs one scheduler worker with every other setting
//! at its default (batch 8, k = 3, rollout depth 200), every request asks for 32 iterations
//! (a multiple of the batch, so every window is full) and every deadline is far beyond any
//! request, so no deadline ever binds: each run does exactly the work its seed fixes.
//!
//! The traced run repeats that TCP pass, then the same script in process against a fresh
//! engine (timing each `ServeEngine` call), then replays every session's search and edits
//! through public calls ([`crate::replay`]) to split the time by layer.

use std::net::{SocketAddr, TcpListener};
use std::rc::Rc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mctsui_core::{
    graft_append, InterfaceDescription, InterfaceSearchProblem, LiveLog, TriagedLog,
};
use mctsui_difftree::{simplified_difftree, LogEntry, RuleEngine};
use mctsui_mcts::{Budget, MctsConfig, SearchHandle};
use mctsui_serve::proto::{decode_line, encode_line};
use mctsui_serve::{
    serve_on, BestReport, Client, EngineStatsReport, Request, Response, ServeConfig, ServeEngine,
};
use mctsui_sql::Ast;

use crate::inputs::{mix, stratified_log};
use crate::measure::{mean, median, ms, tail, us, Digest, Kind, Ops};
use crate::replay::{open_handle, run_windows, Clock, SearchTotals, Timed};
use crate::report::Report;
use crate::seeds::{Table, CANDIDATES};

/// Iterations every `Synthesize` and `Refine` asks for: four full windows of the default
/// batch of 8.
const REQUEST_ITERATIONS: u64 = 32;

/// Request deadline: the engine's admission cap, hundreds of times any request's length.
const DEADLINE_MILLIS: u64 = 30_000;

/// `[edit, refine, refine]` rounds per session.
const LIVE_EDITS: usize = 4;

/// Sessions per second of `--seconds` (fixed work, calibrated on a 2-core x86-64 host;
/// the count depends on `--seconds` only, never on a clock).
const LIVE_SESSIONS_PER_SECOND: f64 = 0.9;

/// The engine configuration: one scheduler worker, defaults otherwise.
fn engine_config() -> ServeConfig {
    ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    }
}

/// One step of a session after its `Synthesize`.
#[derive(Debug, Clone)]
enum Step {
    Refine,
    Append(String),
    Retract(u64),
}

/// One scripted session: `Synthesize` the log with `seed`, run `steps`, then `Close`.
#[derive(Debug, Clone)]
struct Script {
    queries: Vec<String>,
    seed: u64,
    steps: Vec<Step>,
}

impl Script {
    fn requests(&self, session: u64) -> impl Iterator<Item = Request> + '_ {
        self.steps.iter().map(move |step| match step {
            Step::Refine => Request::Refine {
                session,
                iterations: REQUEST_ITERATIONS,
                deadline_millis: DEADLINE_MILLIS,
            },
            Step::Append(query) => Request::Append {
                session,
                query: query.clone(),
            },
            Step::Retract(index) => Request::Retract {
                session,
                index: *index,
            },
        })
    }

    fn synthesize(&self) -> Request {
        Request::Synthesize {
            queries: self.queries.clone(),
            iterations: REQUEST_ITERATIONS,
            deadline_millis: DEADLINE_MILLIS,
            seed: self.seed,
        }
    }
}

/// The sessions a run with `seed` measures, in order.
fn sessions(seed: u64, seconds: u64) -> Vec<Script> {
    let count = (seconds as f64 * LIVE_SESSIONS_PER_SECOND).round() as usize;
    (0..count.max(1))
        .map(|j| {
            let (slot, candidate) = LIVE_SEEDS.pick(seed, j);
            live_script(slot, candidate)
        })
        .collect()
}

/// Session seeds ([`crate::seeds`]): one slot per position of one full cycle of the
/// stratified log stream; a session is clean when it answered every request within 1 s.
const LIVE_SEEDS: Table = Table(&[
    0xff, 0xff, 0xfd, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfb, 0xff, 0xfb,
    0xff, 0xd1, 0xb7, 0xff, 0xff,
]);

/// The session of `slot` with session-seed `candidate`: `Synthesize`, `Refine`,
/// then [edit, `Refine`, `Refine`] per edit, where an edit appends the log's next drift
/// query and every fourth edit retracts the oldest query instead.
fn live_script(slot: usize, candidate: u64) -> Script {
    let log = stratified_log(slot, LIVE_EDITS - LIVE_EDITS / 4);
    let mut appended = log.appends.into_iter();
    let mut steps = vec![Step::Refine];
    for edit in 1..=LIVE_EDITS {
        steps.push(if edit % 4 == 0 {
            Step::Retract(0)
        } else {
            Step::Append(appended.next().expect("one drift query per append"))
        });
        steps.extend([Step::Refine, Step::Refine]);
    }
    Script {
        queries: log.sql,
        seed: mix(0x6c69_7665, slot as u64 * CANDIDATES + candidate),
        steps,
    }
}

/// What a search-bearing answer reported.
#[derive(Debug, Clone, Copy)]
struct Answer {
    best: BestReport,
    cost: f64,
}

impl Answer {
    fn bits(&self) -> [u64; 4] {
        [
            self.best.reward.to_bits(),
            self.best.iterations,
            self.best.evaluations,
            self.cost.to_bits(),
        ]
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
struct Call {
    kind: Kind,
    took: Duration,
    ok: bool,
    answer: Option<Answer>,
}

/// A server reply: the session it concerns and, for search-bearing requests, the answer.
struct Reply {
    session: u64,
    answer: Option<Answer>,
}

/// Where a script's requests go: the TCP front end or the engine in process.
trait Endpoint {
    fn call(&mut self, request: &Request) -> Result<Reply, String>;
}

/// A loopback TCP connection through the repository's client, optionally keeping every
/// exchange for the codec measurement.
struct Tcp {
    client: Client,
    exchanges: Option<Vec<(Request, Response)>>,
}

impl Tcp {
    fn connect(addr: SocketAddr, capture: bool) -> Result<Self, String> {
        Ok(Self {
            client: Client::connect(&addr.to_string()).map_err(|e| e.to_string())?,
            exchanges: capture.then(Vec::new),
        })
    }
}

impl Endpoint for Tcp {
    fn call(&mut self, request: &Request) -> Result<Reply, String> {
        let response = self.client.call(request).map_err(|e| e.to_string())?;
        let answer = |best: &BestReport, interface: &InterfaceDescription| Answer {
            best: *best,
            cost: interface.cost.total,
        };
        let reply = match &response {
            Response::Synthesized {
                session,
                best,
                interface,
                ..
            }
            | Response::Refined {
                session,
                best,
                interface,
                ..
            }
            | Response::Appended {
                session,
                best,
                interface,
                ..
            }
            | Response::Retracted {
                session,
                best,
                interface,
                ..
            } => Reply {
                session: *session,
                answer: Some(answer(best, interface)),
            },
            Response::Closed { session } => Reply {
                session: *session,
                answer: None,
            },
            other => return Err(format!("unexpected response {other:?}")),
        };
        if let Some(exchanges) = &mut self.exchanges {
            exchanges.push((request.clone(), response));
        }
        Ok(reply)
    }
}

/// The engine called directly, as the server's dispatch would call it.
struct InProcess(Arc<ServeEngine>);

impl Endpoint for InProcess {
    fn call(&mut self, request: &Request) -> Result<Reply, String> {
        let engine = &self.0;
        let result = match request {
            Request::Synthesize {
                queries,
                iterations,
                deadline_millis,
                seed,
            } => engine.synthesize_triaged(
                &TriagedLog::from_sources(queries),
                *iterations,
                *deadline_millis,
                *seed,
            ),
            Request::Refine {
                session,
                iterations,
                deadline_millis,
            } => engine.refine(*session, *iterations, *deadline_millis),
            Request::Append { session, query } => engine.append(*session, query).map(|e| e.result),
            Request::Retract { session, index } => {
                engine.retract(*session, *index).map(|e| e.result)
            }
            Request::Close { session } => {
                return engine
                    .close_session(*session)
                    .map(|()| Reply {
                        session: *session,
                        answer: None,
                    })
                    .map_err(|e| e.to_string())
            }
            other => return Err(format!("not a script request: {other:?}")),
        };
        result
            .map(|r| Reply {
                session: r.session,
                answer: Some(Answer {
                    best: r.best,
                    cost: r.interface.cost.total,
                }),
            })
            .map_err(|e| e.to_string())
    }
}

fn kind(request: &Request) -> Kind {
    match request {
        Request::Synthesize { .. } => Kind::Synthesize,
        Request::Refine { .. } => Kind::Refine,
        Request::Append { .. } => Kind::Append,
        Request::Retract { .. } => Kind::Retract,
        _ => Kind::Close,
    }
}

fn timed_call(endpoint: &mut dyn Endpoint, request: &Request) -> (Call, Option<u64>) {
    let begun = Instant::now();
    let result = endpoint.call(request);
    let took = begun.elapsed();
    let call = Call {
        kind: kind(request),
        took,
        ok: result.is_ok(),
        answer: result.as_ref().ok().and_then(|r| r.answer),
    };
    (call, result.ok().map(|r| r.session))
}

/// Run one session: `Synthesize`, its steps, and `Close`.
fn run_session(endpoint: &mut dyn Endpoint, script: &Script) -> Vec<Call> {
    let (first, session) = timed_call(endpoint, &script.synthesize());
    let mut calls = vec![first];
    let Some(session) = session else {
        return calls;
    };
    for request in script.requests(session).chain([Request::Close { session }]) {
        calls.push(timed_call(endpoint, &request).0);
    }
    calls
}

/// Run every session in order over one endpoint, closed loop: each request is sent when
/// the previous answer arrives.
fn drive(endpoint: &mut dyn Endpoint, sessions: &[Script]) -> Vec<Vec<Call>> {
    sessions
        .iter()
        .map(|script| run_session(endpoint, script))
        .collect()
}

/// An engine served over loopback TCP.
struct Served {
    engine: Arc<ServeEngine>,
    addr: SocketAddr,
    server: JoinHandle<std::io::Result<()>>,
}

impl Served {
    fn start() -> Result<Self, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let engine = ServeEngine::start(engine_config());
        let served = Arc::clone(&engine);
        let server = std::thread::spawn(move || serve_on(served, listener));
        Ok(Self {
            engine,
            addr,
            server,
        })
    }

    /// Ask the server to shut down and wait for it.
    fn stop(self) -> Result<(), String> {
        let mut client = Client::connect(&self.addr.to_string()).map_err(|e| e.to_string())?;
        client.call(&Request::Shutdown).map_err(|e| e.to_string())?;
        drop(client);
        self.server
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| e.to_string())
    }
}

/// A started workload: the server and the sessions to measure.
struct Bench {
    served: Served,
    sessions: Vec<Script>,
}

impl Bench {
    /// Set-up: engine start and corpus generation.
    fn setup(seed: u64, seconds: u64) -> Result<Self, String> {
        Ok(Self {
            served: Served::start()?,
            sessions: sessions(seed, seconds),
        })
    }
}

/// The measured TCP pass.
struct TcpPass {
    runs: Vec<Vec<Call>>,
    wall: Duration,
    before: EngineStatsReport,
    after: EngineStatsReport,
    exchanges: Vec<(Request, Response)>,
}

fn tcp_pass(bench: &Bench, capture: bool) -> Result<TcpPass, String> {
    let mut tcp = Tcp::connect(bench.served.addr, capture)?;
    let before = bench.served.engine.stats();
    let begun = Instant::now();
    let runs = drive(&mut tcp, &bench.sessions);
    let wall = begun.elapsed();
    let after = bench.served.engine.stats();
    Ok(TcpPass {
        runs,
        wall,
        before,
        after,
        exchanges: tcp.exchanges.unwrap_or_default(),
    })
}

/// Whether call `i` of a session counts as a request for the request metrics: every
/// `Synthesize`, and every `Refine` except the first after an edit (that one belongs to
/// the edit cycle).
fn is_request(calls: &[Call], i: usize) -> bool {
    match calls[i].kind {
        Kind::Synthesize => true,
        Kind::Refine => !(i > 0 && matches!(calls[i - 1].kind, Kind::Append | Kind::Retract)),
        _ => false,
    }
}

/// Milliseconds of a call; a failed or refused one lies beyond every percentile.
fn latency(call: &Call) -> f64 {
    if call.ok {
        ms(call.took)
    } else {
        f64::INFINITY
    }
}

/// From sending an edit until the first `Refine` after it returns.
fn edit_cycles(calls: &[Call]) -> Vec<f64> {
    calls
        .windows(2)
        .filter(|pair| matches!(pair[0].kind, Kind::Append | Kind::Retract))
        .map(|pair| latency(&pair[0]) + latency(&pair[1]))
        .collect()
}

fn request_latencies(runs: &[Vec<Call>]) -> Vec<f64> {
    runs.iter()
        .flat_map(|calls| {
            (0..calls.len())
                .filter(|&i| is_request(calls, i))
                .map(|i| latency(&calls[i]))
        })
        .collect()
}

/// The session's last answer: the state its search ended in.
fn final_answer(calls: &[Call]) -> Option<Answer> {
    calls.iter().rev().find_map(|c| c.answer)
}

/// Per-session checks and the fixed-work digest (every answer's reward bits, iterations and
/// evaluations, in order): every request answered, every search request ran its whole
/// budget, every answer finite, every reward monotone within each edit lifetime.
fn check_runs(report: &mut Report, label: &str, runs: &[Vec<Call>]) -> (Digest, Ops) {
    let mut digest = Digest::default();
    let mut ops = Ops::default();
    for (i, calls) in runs.iter().enumerate() {
        let mut floor = f64::NEG_INFINITY;
        let mut iterations = 0;
        for call in calls {
            ops.record(call.kind, call.ok);
            let Some(answer) = call.answer else { continue };
            digest.state(
                answer.best.reward,
                answer.best.iterations,
                answer.best.evaluations,
            );
            // A request whose deadline passed is still answered, with fewer iterations;
            // the iteration count is what shows it. Edits run none.
            let expected = match call.kind {
                Kind::Synthesize | Kind::Refine => iterations + REQUEST_ITERATIONS,
                _ => iterations,
            };
            report.check(answer.best.iterations == expected, || {
                format!(
                    "{label} session {i}: {:?} left the search at {} iterations, not {expected}",
                    call.kind, answer.best.iterations
                )
            });
            iterations = answer.best.iterations;
            report.check(answer.cost.is_finite(), || {
                format!(
                    "{label} session {i}: {:?} described cost {}",
                    call.kind, answer.cost
                )
            });
            if matches!(call.kind, Kind::Append | Kind::Retract) {
                floor = answer.best.reward;
            }
            report.check(answer.best.reward >= floor, || {
                format!(
                    "{label} session {i}: reward fell from {floor} to {} on {:?}",
                    answer.best.reward, call.kind
                )
            });
            floor = answer.best.reward;
        }
        report.check(final_answer(calls).is_some(), || {
            format!("{label} session {i}: no answer")
        });
    }
    report.check(ops.failed() == 0, || {
        format!("{label}: {} requests failed", ops.failed())
    });
    (digest, ops)
}

/// Every session's final answer, bit for bit.
fn finals(runs: &[Vec<Call>]) -> Vec<Option<[u64; 4]>> {
    runs.iter()
        .map(|calls| final_answer(calls).map(|a| a.bits()))
        .collect()
}

/// Fixed-work checks of a TCP pass, and the end-to-end metrics it yields.
fn measure_tcp(report: &mut Report, pass: &TcpPass) {
    let (digest, ops) = check_runs(report, "tcp", &pass.runs);
    let expired = pass.after.expired_units - pass.before.expired_units;
    report.check(expired == 0, || {
        format!("{expired} leaf evaluations expired")
    });

    let latencies = request_latencies(&pass.runs);
    let tail = tail(&latencies);
    let iterations: u64 = pass
        .runs
        .iter()
        .filter_map(|calls| final_answer(calls))
        .map(|a| a.best.iterations)
        .sum();
    let costs: Vec<f64> = pass
        .runs
        .iter()
        .filter_map(|calls| final_answer(calls))
        .map(|a| a.cost)
        .collect();
    report.attempted = ops.attempted();
    report.failed = ops.failed();
    report.notes.extend(ops.lines());
    report.note(format!(
        "fixed-work digest {digest} over {} sessions",
        pass.runs.len()
    ));
    report.note(format!(
        "request tail p{:.1} over {} requests",
        tail.percentile, tail.samples
    ));
    let cycles: Vec<f64> = pass.runs.iter().flat_map(|c| edit_cycles(c)).collect();
    let cycle_tail = crate::measure::tail(&cycles);
    report.note(format!(
        "edit cycle p50 {:.3} ms, tail p{:.1} {:.3} ms over {} edits",
        median(&cycles),
        cycle_tail.percentile,
        cycle_tail.value,
        cycle_tail.samples
    ));
    report.set("edit_cycle_p50_ms", median(&cycles));
    report.set("edit_cycle_tail_ms", cycle_tail.value);
    report.set("request_p50_ms", median(&latencies));
    report.set("request_tail_ms", tail.value);
    report.set("iters_per_s", iterations as f64 / pass.wall.as_secs_f64());
    report.set("final_cost", mean(&costs));
    report.set("ops_ok_ratio", ops.ok_ratio());
}

/// The measured run: set-up repeated for a steady median, then the TCP pass.
pub fn run(seed: u64, seconds: u64, setup_repeats: usize) -> Report {
    let mut report = Report::default();
    if let Err(e) = run_into(&mut report, seed, seconds, setup_repeats) {
        report.check(false, || e);
    }
    report
}

fn run_into(
    report: &mut Report,
    seed: u64,
    seconds: u64,
    setup_repeats: usize,
) -> Result<(), String> {
    // The measured pass runs on the first set-up, so peak memory is that of one set-up
    // plus the pass; the further set-ups only steady the `setup_s` median.
    let begun = Instant::now();
    let bench = Bench::setup(seed, seconds)?;
    let mut setups = vec![begun.elapsed().as_secs_f64()];
    let pass = tcp_pass(&bench, false)?;
    report.record_peak_rss();
    bench.served.stop()?;
    measure_tcp(report, &pass);
    for _ in 1..setup_repeats {
        let begun = Instant::now();
        let bench = Bench::setup(seed, seconds)?;
        setups.push(begun.elapsed().as_secs_f64());
        bench.served.stop()?;
    }
    report.set("setup_s", median(&setups));
    Ok(())
}

/// The traced run: the TCP pass, the in-process pass and the replay.
pub fn trace(seed: u64, seconds: u64) -> Report {
    let mut report = Report::default();
    if let Err(e) = trace_into(&mut report, seed, seconds) {
        report.check(false, || e);
    }
    report
}

fn trace_into(report: &mut Report, seed: u64, seconds: u64) -> Result<(), String> {
    let bench = Bench::setup(seed, seconds)?;
    let tcp = tcp_pass(&bench, true)?;
    bench.served.stop()?;
    measure_tcp(report, &tcp);
    let engine_finals = finals(&tcp.runs);

    // In process: a fresh engine and the same script, each call timed.
    let in_process = drive(
        &mut InProcess(ServeEngine::start(engine_config())),
        &bench.sessions,
    );
    check_runs(report, "in-process", &in_process);
    report.check(finals(&in_process) == engine_finals, || {
        "in-process sessions ended differently from the TCP sessions".to_string()
    });

    // The replay: every session's search and edits through public calls.
    let mut replayer = Replayer::new();
    let before = replayer.snapshot();
    let begun = Instant::now();
    let replayed: Vec<ReplayedSession> = bench
        .sessions
        .iter()
        .map(|script| replayer.session(script))
        .collect();
    let replay_wall = begun.elapsed();
    let replay_finals: Vec<Option<[u64; 4]>> = replayed
        .iter()
        .map(|s| s.calls.last().map(|a| a.bits()))
        .collect();
    for (i, (replay, engine)) in replay_finals.iter().zip(&engine_finals).enumerate() {
        report.check(replay == engine, || {
            format!("replay of session {i} ended at {replay:?}, the engine at {engine:?}")
        });
    }

    set_serve_layers(report, &tcp, &in_process, &replayed);
    let after = replayer.snapshot();
    let totals = after.totals.since(&before.totals);
    totals.report(report);
    report.set(
        "difftree.action_hit_ratio",
        (after.action_hits - before.action_hits) as f64
            / (after.action_lookups - before.action_lookups).max(1) as f64,
    );
    let edits = &replayer.edits;
    report.set("core.log_edit_us", median(&edits.log_edit));
    report.set("core.problem_build_ms", median(&edits.build));
    report.set("difftree.derive_ms", median(&edits.derive));
    report.set("mcts.rebase_ms", median(&edits.rebase));
    report.set("core.problem_drop_ms", median(&edits.drop));
    report.set("sqlast.parse_us", median(&edits.parse));
    let searches: usize = replayed.iter().map(|s| s.searches).sum();
    report.set(
        "core.describe_ms",
        edits.describe.iter().sum::<f64>() / searches.max(1) as f64,
    );
    report.set(
        "mcts.tree_nodes",
        mean(
            &replayed
                .iter()
                .filter_map(|s| s.calls.last())
                .map(|a| a.best.tree_nodes as f64)
                .collect::<Vec<_>>(),
        ),
    );
    report.set(
        "trace.overhead_ratio",
        replay_wall.as_secs_f64() / tcp.wall.as_secs_f64(),
    );
    Ok(())
}

/// The serve and wire layers: in-process call times, their overhead over the replay's
/// compute, engine batching counters and the codec.
fn set_serve_layers(
    report: &mut Report,
    tcp: &TcpPass,
    in_process: &[Vec<Call>],
    replayed: &[ReplayedSession],
) {
    let in_process_requests = request_latencies(in_process);
    // The replay's compute lines up with the calls: one entry per call before the close.
    let overheads: Vec<f64> = in_process
        .iter()
        .zip(replayed)
        .flat_map(|(calls, replay)| {
            (0..calls.len().min(replay.compute.len()))
                .filter(|&i| is_request(calls, i))
                .map(|i| latency(&calls[i]) - ms(replay.compute[i]))
        })
        .collect();
    let of_kind = |kinds: &[Kind]| -> Vec<f64> {
        in_process
            .iter()
            .flatten()
            .filter(|c| kinds.contains(&c.kind))
            .map(latency)
            .collect()
    };
    report.set("serve.request_ms", median(&in_process_requests));
    report.set("serve.overhead_ms", median(&overheads));
    report.set(
        "serve.edit_ms",
        median(&of_kind(&[Kind::Append, Kind::Retract])),
    );
    report.set("serve.close_ms", median(&of_kind(&[Kind::Close])));

    let (before, after) = (&tcp.before, &tcp.after);
    let batches = after.total_batches - before.total_batches;
    let units = after.total_batched_units - before.total_batched_units;
    let hits = after.batch_group_hits - before.batch_group_hits;
    report.set("serve.mean_batch", units as f64 / batches.max(1) as f64);
    report.set("serve.group_hit_ratio", hits as f64 / units.max(1) as f64);
    report.set(
        "serve.expired_units",
        (after.expired_units - before.expired_units) as f64,
    );

    let mut codec = Vec::with_capacity(tcp.exchanges.len());
    let mut sizes = Vec::with_capacity(tcp.exchanges.len());
    for (request, response) in &tcp.exchanges {
        let begun = Instant::now();
        let request_line = encode_line(request);
        let decoded: Result<Request, String> = decode_line(&request_line);
        let response_line = encode_line(response);
        let decoded_response: Result<Response, String> = decode_line(&response_line);
        codec.push(us(begun.elapsed()));
        report.check(
            decoded.as_ref() == Ok(request) && decoded_response.as_ref() == Ok(response),
            || "a captured exchange did not survive an encode/decode round trip".to_string(),
        );
        sizes.push(response_line.len() as f64 / 1024.0);
    }
    report.set("proto.codec_us", median(&codec));
    report.set("proto.response_kb", mean(&sizes));
    report.set(
        "proto.socket_ms",
        median(&request_latencies(&tcp.runs)) - median(&in_process_requests) - median(&codec) / 1e3,
    );
}

/// Time spent in each step of the edit path, and in other per-request work, across the
/// replay.
#[derive(Default)]
struct EditSpans {
    parse: Vec<f64>,
    log_edit: Vec<f64>,
    derive: Vec<f64>,
    build: Vec<f64>,
    rebase: Vec<f64>,
    drop: Vec<f64>,
    describe: Vec<f64>,
}

/// Counters read before and after the measured replay.
struct Snapshot {
    totals: SearchTotals,
    action_hits: u64,
    action_lookups: u64,
}

/// One replayed session: its answers and, per call, the replay's compute for it.
struct ReplayedSession {
    calls: Vec<Answer>,
    compute: Vec<Duration>,
    searches: usize,
}

/// The live state of one replayed session, mirroring the engine's session.
struct ReplaySession {
    log: LiveLog,
    problem: Arc<InterfaceSearchProblem>,
    handle: SearchHandle<Timed>,
    described: Option<(u64, f64)>,
    eval_seed: u64,
}

/// Replays sessions through public calls the way the engine runs them, with the engine's
/// configuration and one shared rule engine.
struct Replayer {
    config: ServeConfig,
    rules: RuleEngine,
    clock: Rc<Clock>,
    edits: EditSpans,
}

impl Replayer {
    fn new() -> Self {
        Self {
            config: engine_config(),
            rules: RuleEngine::default(),
            clock: Clock::new(),
            edits: EditSpans::default(),
        }
    }

    fn snapshot(&self) -> Snapshot {
        let counters = self.rules.action_index().counters();
        Snapshot {
            totals: self.clock.totals(),
            action_hits: counters.hits,
            action_lookups: counters.hits + counters.misses,
        }
    }

    /// The problem of a log: derive its initial difftree and build the problem. No two
    /// open sessions share a log here, so the engine's registry of shared problems always
    /// misses and is not replayed.
    fn problem_for(&mut self, queries: &[Ast]) -> Arc<InterfaceSearchProblem> {
        let begun = Instant::now();
        let initial = simplified_difftree(queries);
        self.edits.derive.push(ms(begun.elapsed()));
        let problem = Arc::new(InterfaceSearchProblem::with_cache_shards(
            queries.to_vec(),
            initial,
            self.rules.clone(),
            self.config.screen,
            self.config.weights,
            self.config.assignments_per_eval,
            self.config.shards,
        ));
        self.edits.build.push(ms(begun.elapsed()));
        problem
    }

    /// The anytime answer after a request: the best interface is described again only
    /// when the best state changed, as the engine caches it.
    fn answer(&mut self, s: &mut ReplaySession) -> Answer {
        let best = s.handle.best_state().clone();
        let fingerprint = best.fingerprint();
        let cost = match s.described {
            Some((described, cost)) if described == fingerprint => cost,
            _ => {
                let begun = Instant::now();
                let (assignment, cost) = s.problem.best_sampled_assignment(&best, s.eval_seed);
                let interface =
                    InterfaceDescription::new(&best, &assignment, self.config.screen, cost);
                self.edits.describe.push(ms(begun.elapsed()));
                s.described = Some((fingerprint, interface.cost.total));
                interface.cost.total
            }
        };
        Answer {
            best: BestReport {
                reward: s.handle.best_reward(),
                cost_total: cost,
                iterations: s.handle.iterations() as u64,
                evaluations: s.handle.evaluations() as u64,
                tree_nodes: s.handle.node_count() as u64,
                exhausted: s.handle.is_exhausted(),
            },
            cost,
        }
    }

    /// Replay a whole script. The session is dropped at its close, like the engine's.
    fn session(&mut self, script: &Script) -> ReplayedSession {
        let mut out = ReplayedSession {
            calls: Vec::new(),
            compute: Vec::new(),
            searches: 0,
        };
        let begun = Instant::now();
        let triaged = TriagedLog::from_sources(&script.queries);
        self.edits.parse.push(us(begun.elapsed()));
        let problem = self.problem_for(&triaged.healthy());
        let mut config: MctsConfig = self.config.mcts.clone();
        config.seed = script.seed;
        config.budget = Budget::Iterations(usize::MAX);
        let mut s = ReplaySession {
            log: LiveLog::from_triaged(&triaged),
            handle: open_handle(&problem, &self.clock, config),
            problem,
            described: None,
            eval_seed: script.seed,
        };
        run_windows(
            &mut s.handle,
            REQUEST_ITERATIONS as usize,
            self.config.batch,
        );
        out.calls.push(self.answer(&mut s));
        out.compute.push(begun.elapsed());
        out.searches += 1;
        for step in &script.steps {
            let begun = Instant::now();
            match step {
                Step::Refine => {
                    run_windows(
                        &mut s.handle,
                        REQUEST_ITERATIONS as usize,
                        self.config.batch,
                    );
                    out.searches += 1;
                }
                Step::Append(query) => self.append(&mut s, query),
                Step::Retract(index) => self.retract(&mut s, *index as usize),
            }
            out.calls.push(self.answer(&mut s));
            out.compute.push(begun.elapsed());
        }
        out
    }

    fn append(&mut self, s: &mut ReplaySession, query: &str) {
        let begun = Instant::now();
        let triage = s.log.append_source(query);
        self.edits.log_edit.push(us(begun.elapsed()));
        if !triage.is_empty() {
            return;
        }
        let Some(LogEntry::Parsed(ast)) = s.log.entries().last().cloned() else {
            unreachable!("a clean append ends the log with a parsed entry");
        };
        self.rebase(s, |state| Some(graft_append(state, &ast)));
    }

    fn retract(&mut self, s: &mut ReplaySession, index: usize) {
        let begun = Instant::now();
        let retracted = s.log.retract(index);
        self.edits.log_edit.push(us(begun.elapsed()));
        if matches!(retracted, Ok(LogEntry::Parsed(_))) {
            self.rebase(s, |state| Some(state.clone()));
        }
    }

    /// Switch a session to the problem of its edited log: build it, re-root the warm
    /// search onto it, then drop the replaced problem explicitly.
    fn rebase(
        &mut self,
        s: &mut ReplaySession,
        graft: impl Fn(&mctsui_difftree::DiffTree) -> Option<mctsui_difftree::DiffTree>,
    ) {
        let problem = self.problem_for(&s.log.healthy());
        let begun = Instant::now();
        let timed = Timed::new(Arc::clone(&problem), &self.clock);
        self.clock
            .paused(|| s.handle.rebase(timed, graft))
            .expect("the replay never leaves a leaf pending");
        self.edits.rebase.push(ms(begun.elapsed()));
        let replaced = std::mem::replace(&mut s.problem, problem);
        s.described = None;
        let begun = Instant::now();
        drop(replaced);
        self.edits.drop.push(ms(begun.elapsed()));
    }
}
