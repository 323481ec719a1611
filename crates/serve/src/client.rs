//! A blocking NDJSON client for `mctsui serve`, plus the scripted-session driver used by
//! the CLI's `client` subcommand, the smoke tests and the load generator.
//!
//! The client side of fault hardening lives here: sockets carry `TCP_NODELAY` and explicit
//! read/write timeouts, response lines are length-capped (`read_frame`), server errors
//! surface their stable machine-readable code ([`ClientError::Server`]), and the scripted
//! driver has a fault-tolerant mode ([`ScriptConfig::tolerate_faults`]) that survives
//! dropped connections and quarantined sessions: it reconnects under seeded jittered
//! exponential [`Backoff`], reattaches by session id with `Resume`, and re-synthesizes
//! from scratch when the server reports the session gone — while still enforcing the
//! anytime contract (best reward monotone within each server-session lifetime).

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mctsui_core::InterfaceDescription;

use crate::proto::{
    decode_line, encode_line, read_frame, BestReport, Frame, Request, Response, WidgetAction,
    MAX_RESPONSE_FRAME_BYTES,
};

/// Read/write timeout of client sockets. Mirrors the server default: comfortably above
/// the scheduler's hard wait cap (request deadline + 60 s), so a slow-but-progressing
/// request never severs its own connection.
pub const DEFAULT_IO_TIMEOUT_MILLIS: u64 = 120_000;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server sent something unparseable or out of protocol.
    Protocol(String),
    /// The server answered with an `Error` response; `code` is the stable
    /// machine-readable code (`"busy"`, `"unknown_session"`, `"wedged"`, …).
    Server {
        /// Stable machine-readable failure code.
        code: String,
        /// Human-readable failure description.
        message: String,
    },
    /// A scripted invariant was violated (e.g. a refine decreased the best reward).
    Invariant(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server { code, message } => {
                write!(f, "server error [{code}]: {message}")
            }
            ClientError::Invariant(m) => write!(f, "invariant violated: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// Whether the fault-tolerant driver may retry after this error: transport failures
    /// (reconnect + resume) and transient server rejections. Hard protocol violations and
    /// invariant breaks are never retried — they are findings, not weather.
    fn is_transient(&self) -> bool {
        match self {
            ClientError::Io(_) | ClientError::Protocol(_) => true,
            ClientError::Server { code, .. } => {
                matches!(code.as_str(), "busy" | "timeout" | "shutting_down")
            }
            ClientError::Invariant(_) => false,
        }
    }

    /// Whether the server reported the session itself gone (quarantined, evicted, or its
    /// snapshot unreadable) — recovery means a fresh `Synthesize`, not a retry.
    fn session_lost(&self) -> bool {
        matches!(
            self,
            ClientError::Server { code, .. }
                if matches!(code.as_str(), "wedged" | "unknown_session" | "snapshot")
        )
    }
}

/// Jittered exponential backoff for reconnects: 50 ms doubling to a 2 s cap, each delay
/// scaled by a uniform factor in `[0.5, 1.5)` so a fleet of reconnecting clients does not
/// stampede the listener in lockstep. Deterministic per seed.
#[derive(Debug)]
pub struct Backoff {
    rng: StdRng,
    step_millis: u64,
}

impl Backoff {
    /// First delay step, milliseconds.
    pub const BASE_MILLIS: u64 = 50;
    /// Largest delay step, milliseconds.
    pub const CAP_MILLIS: u64 = 2_000;

    /// A backoff whose jitter stream is fully determined by `seed`.
    pub fn seeded(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            step_millis: Self::BASE_MILLIS,
        }
    }

    /// The next delay: the current step with jitter applied; the step then doubles,
    /// capped at [`Backoff::CAP_MILLIS`].
    fn next_delay(&mut self) -> Duration {
        let step = self.step_millis;
        self.step_millis = (self.step_millis * 2).min(Self::CAP_MILLIS);
        let jitter = self.rng.gen_range(0.5..1.5);
        Duration::from_millis((step as f64 * jitter) as u64)
    }

    /// Back to the base step (call after a successful reconnect).
    pub fn reset(&mut self) {
        self.step_millis = Self::BASE_MILLIS;
    }
}

/// A connected protocol client (one TCP connection, requests answered in order).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a server with the default socket timeout.
    pub fn connect(addr: &str) -> Result<Self, ClientError> {
        Self::connect_with(addr, DEFAULT_IO_TIMEOUT_MILLIS)
    }

    /// Connect with an explicit socket read/write timeout (milliseconds). The socket gets
    /// `TCP_NODELAY`: the protocol is one-line request/response turns, which Nagle's
    /// algorithm would serialise against delayed ACKs.
    fn connect_with(addr: &str, io_timeout_millis: u64) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let timeout = Duration::from_millis(io_timeout_millis.max(1));
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Send one request and read its response. Server-side `Error` responses are returned
    /// as [`ClientError::Server`] carrying the typed code.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.writer.write_all(encode_line(request).as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let line = match read_frame(&mut self.reader, MAX_RESPONSE_FRAME_BYTES)? {
            Frame::Eof => return Err(ClientError::Protocol("connection closed".into())),
            Frame::Oversized => {
                return Err(ClientError::Protocol(format!(
                    "response exceeded the {MAX_RESPONSE_FRAME_BYTES}-byte frame cap"
                )))
            }
            Frame::Line(line) => line,
        };
        let response: Response = decode_line(line.trim_end()).map_err(ClientError::Protocol)?;
        if let Response::Error { code, message } = &response {
            return Err(ClientError::Server {
                code: code.clone(),
                message: message.clone(),
            });
        }
        Ok(response)
    }
}

/// Shape of one scripted session (synthesize → refine* → interact → close).
#[derive(Debug, Clone)]
pub struct ScriptConfig {
    /// Iterations requested per synthesize/refine.
    pub iterations: u64,
    /// Number of refine rounds after the initial synthesize.
    pub refines: usize,
    /// Deadline per request in milliseconds.
    pub deadline_millis: u64,
    /// Session seed (sessions with distinct seeds explore differently).
    pub seed: u64,
    /// Per-session seed increment used by [`run_concurrent_sessions`]: session `i` gets
    /// `seed + i * seed_stride`. The default `1` makes every session explore differently;
    /// `0` makes all sessions exact replicas (the same search stream over the same log —
    /// the workload where cross-session same-plan batching coalesces hardest).
    pub seed_stride: u64,
    /// Survive faults instead of failing fast: reconnect with jittered backoff on
    /// transport errors, reattach by session id with `Resume`, re-synthesize when the
    /// server reports the session gone (wedged/evicted). The anytime monotonicity check
    /// still runs, scoped to each server-session lifetime.
    pub tolerate_faults: bool,
    /// Leave the session open on the server instead of closing it — a later client (or a
    /// restarted server with the same snapshot directory) can `Resume` it by id.
    pub persist: bool,
    /// Queries to `Append` to the live session after the refine rounds, in order. Each
    /// append is followed by one refine of the rebased tree (monotonic within that
    /// lifetime — the append itself legitimately resets the best record, so the
    /// monotonicity baseline re-anchors on every append).
    pub appends: Vec<String>,
}

impl Default for ScriptConfig {
    fn default() -> Self {
        Self {
            iterations: 120,
            refines: 2,
            deadline_millis: 10_000,
            seed: 42,
            seed_stride: 1,
            tolerate_faults: false,
            persist: false,
            appends: Vec::new(),
        }
    }
}

/// What one scripted session observed.
#[derive(Debug, Clone)]
pub struct ScriptReport {
    /// The session id the server assigned (the last one, if faults forced restarts).
    pub session: u64,
    /// Best report after the initial synthesize.
    pub initial: BestReport,
    /// Best report after each refine, in order.
    pub refined: Vec<BestReport>,
    /// SQL returned by the widget interaction (when the interface had a widget to drive).
    pub interact_sql: Option<String>,
    /// Wall-clock latency of each request (synthesize first, then refines), milliseconds.
    pub latencies_millis: Vec<u64>,
    /// Reconnects performed by the fault-tolerant driver (0 in strict mode).
    pub reconnects: u64,
    /// Fresh sessions opened after the server reported one gone (0 in strict mode).
    pub restarts: u64,
    /// Per-query diagnostics the server reported for the submitted log (empty when every
    /// query parsed cleanly). Quarantined queries were excluded from synthesis.
    pub diagnostics: Vec<crate::proto::QueryDiagnostic>,
    /// Best report after each append's follow-up refine, in order (empty when the script
    /// configured no appends).
    pub appended: Vec<BestReport>,
    /// The session's live-log length as last reported by the server — from the final
    /// `Appended` response, or from `Stats` when resuming. `None` when the script never
    /// learned it (no appends, non-resume path).
    pub log_len: Option<u64>,
}

impl ScriptReport {
    /// The final best reward of the session.
    pub fn final_reward(&self) -> f64 {
        self.refined
            .last()
            .map(|b| b.reward)
            .unwrap_or(self.initial.reward)
    }
}

/// Run one scripted session against a server: synthesize the log, refine `refines` times
/// (verifying the anytime contract — best reward must never decrease), drive one widget of
/// the final interface, close the session. With [`ScriptConfig::tolerate_faults`] the
/// driver additionally survives dropped connections and quarantined sessions.
pub fn run_scripted_session(
    addr: &str,
    queries: &[String],
    script: &ScriptConfig,
) -> Result<ScriptReport, ClientError> {
    if script.tolerate_faults {
        run_tolerant_session(addr, queries, script)
    } else {
        run_strict_session(addr, queries, script)
    }
}

/// The strict driver: any failure is final (the original behaviour; smoke tests use this
/// to assert a healthy server serves faultlessly).
fn run_strict_session(
    addr: &str,
    queries: &[String],
    script: &ScriptConfig,
) -> Result<ScriptReport, ClientError> {
    let mut client = Client::connect(addr)?;
    let mut latencies = Vec::with_capacity(script.refines + 1);

    let started = Instant::now();
    let response = client.call(&Request::Synthesize {
        queries: queries.to_vec(),
        iterations: script.iterations,
        deadline_millis: script.deadline_millis,
        seed: script.seed,
    })?;
    latencies.push(started.elapsed().as_millis() as u64);
    let (session, initial, mut interface, diagnostics) = match response {
        Response::Synthesized {
            session,
            best,
            interface,
            diagnostics,
        } => (session, best, interface, diagnostics),
        other => {
            return Err(ClientError::Protocol(format!(
                "expected Synthesized, got {other:?}"
            )))
        }
    };

    let mut refined = Vec::with_capacity(script.refines);
    let mut last_reward = initial.reward;
    for round in 0..script.refines {
        let started = Instant::now();
        let response = client.call(&Request::Refine {
            session,
            iterations: script.iterations,
            deadline_millis: script.deadline_millis,
        })?;
        latencies.push(started.elapsed().as_millis() as u64);
        match response {
            Response::Refined {
                best,
                interface: best_interface,
                ..
            } => {
                if best.reward < last_reward {
                    return Err(ClientError::Invariant(format!(
                        "refine {round} decreased best reward: {last_reward} -> {}",
                        best.reward
                    )));
                }
                last_reward = best.reward;
                interface = best_interface;
                refined.push(best);
            }
            other => {
                return Err(ClientError::Protocol(format!(
                    "expected Refined, got {other:?}"
                )))
            }
        }
    }

    let mut diagnostics = diagnostics;
    let mut appended = Vec::with_capacity(script.appends.len());
    let log_len = run_append_rounds(
        &mut client,
        session,
        script,
        &mut interface,
        &mut last_reward,
        &mut latencies,
        &mut appended,
        &mut diagnostics,
    )?;

    // Drive the first widget of the final interface, if any.
    let interact_sql = match interface.choices.first() {
        Some(choice) => {
            let action = action_for_choice(choice);
            match client.call(&Request::Interact { session, action })? {
                Response::Interacted { sql, .. } => Some(sql),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "expected Interacted, got {other:?}"
                    )))
                }
            }
        }
        None => None,
    };

    if !script.persist {
        match client.call(&Request::Close { session })? {
            Response::Closed { .. } => {}
            other => {
                return Err(ClientError::Protocol(format!(
                    "expected Closed, got {other:?}"
                )))
            }
        }
    }

    Ok(ScriptReport {
        session,
        initial,
        refined,
        interact_sql,
        latencies_millis: latencies,
        reconnects: 0,
        restarts: 0,
        diagnostics,
        appended,
        log_len,
    })
}

/// Drive the live-log append rounds of a scripted session: for each configured query,
/// send `Append` (the server triages it leniently, grafts it into the factored tree and
/// rebases the warm search handle in O(change)), then refine the rebased tree once.
///
/// Monotonicity is deliberately re-anchored on every `Appended` response: a rebase resets
/// the session's best record because rewards before and after a log change are not
/// comparable — the problem itself changed. Within each post-append lifetime the refine
/// must still never lose ground, and that is asserted here.
#[allow(clippy::too_many_arguments)]
fn run_append_rounds(
    client: &mut Client,
    session: u64,
    script: &ScriptConfig,
    interface: &mut InterfaceDescription,
    last_reward: &mut f64,
    latencies: &mut Vec<u64>,
    appended: &mut Vec<BestReport>,
    diagnostics: &mut Vec<crate::proto::QueryDiagnostic>,
) -> Result<Option<u64>, ClientError> {
    let mut log_len = None;
    for (round, query) in script.appends.iter().enumerate() {
        let started = Instant::now();
        let response = client.call(&Request::Append {
            session,
            query: query.clone(),
        })?;
        latencies.push(started.elapsed().as_millis() as u64);
        match response {
            Response::Appended {
                best,
                interface: described,
                diagnostics: reported,
                log_len: reported_len,
                ..
            } => {
                // Rebase reset the best record: re-anchor, don't compare across the edit.
                *last_reward = best.reward;
                *interface = described;
                *diagnostics = reported;
                log_len = Some(reported_len);
            }
            other => {
                return Err(ClientError::Protocol(format!(
                    "expected Appended, got {other:?}"
                )))
            }
        }
        let started = Instant::now();
        let response = client.call(&Request::Refine {
            session,
            iterations: script.iterations,
            deadline_millis: script.deadline_millis,
        })?;
        latencies.push(started.elapsed().as_millis() as u64);
        match response {
            Response::Refined {
                best,
                interface: described,
                ..
            } => {
                if best.reward < *last_reward {
                    return Err(ClientError::Invariant(format!(
                        "refine after append {round} decreased best reward: {} -> {}",
                        *last_reward, best.reward
                    )));
                }
                *last_reward = best.reward;
                *interface = described;
                appended.push(best);
            }
            other => {
                return Err(ClientError::Protocol(format!(
                    "expected Refined, got {other:?}"
                )))
            }
        }
    }
    Ok(log_len)
}

/// Recovery budget of the tolerant driver: total reconnect/restart/retry events one
/// scripted session will absorb before giving up and propagating the last error.
const TOLERANT_RECOVERIES: u32 = 64;

/// The fault-tolerant driver. Per scripted round it retries through three recovery paths:
/// transport failure → reconnect (jittered backoff) + `Resume` by session id; session
/// reported gone (`wedged`/`unknown_session`/`snapshot`) → fresh `Synthesize`; transient
/// rejection (`busy`/`timeout`/`shutting_down`) → backoff and retry. The monotonicity
/// invariant is enforced within each server-session lifetime and re-anchored on resume
/// (a crash may legitimately roll back to the last persisted snapshot) and on restart.
fn run_tolerant_session(
    addr: &str,
    queries: &[String],
    script: &ScriptConfig,
) -> Result<ScriptReport, ClientError> {
    let mut backoff = Backoff::seeded(script.seed ^ 0xBAC0_FF5E);
    let mut recoveries = TOLERANT_RECOVERIES;
    let mut reconnects = 0u64;
    let mut restarts = 0u64;
    let mut latencies = Vec::with_capacity(script.refines + 1);

    let mut client: Option<Client> = None;
    let mut ever_connected = false;
    let mut session: Option<u64> = None;
    let mut initial: Option<BestReport> = None;
    let mut refined: Vec<BestReport> = Vec::with_capacity(script.refines);
    let mut interface: Option<InterfaceDescription> = None;
    let mut diagnostics: Vec<crate::proto::QueryDiagnostic> = Vec::new();
    let mut last_reward = f64::NEG_INFINITY;

    let spend = |recoveries: &mut u32, error: ClientError| -> Result<(), ClientError> {
        if *recoveries == 0 {
            return Err(error);
        }
        *recoveries -= 1;
        Ok(())
    };

    let mut round = 0usize;
    while round <= script.refines {
        // Ensure a connection; reattach the session (if any) over it.
        let connected = match &mut client {
            Some(connected) => connected,
            None => {
                match Client::connect_with(addr, DEFAULT_IO_TIMEOUT_MILLIS) {
                    Ok(fresh) => {
                        backoff.reset();
                        client = Some(fresh);
                    }
                    Err(error) => {
                        spend(&mut recoveries, error)?;
                        std::thread::sleep(backoff.next_delay());
                        continue;
                    }
                }
                if ever_connected {
                    reconnects += 1;
                }
                ever_connected = true;
                let connected = client.as_mut().expect("just connected");
                if let Some(id) = session {
                    match connected.call(&Request::Resume { session: id }) {
                        Ok(Response::Resumed { best, .. }) => {
                            // Re-anchor monotonicity: a restored snapshot may predate the
                            // last observed reward (progress after the final snapshot is
                            // legitimately lost in a crash).
                            last_reward = best.reward;
                        }
                        Ok(other) => {
                            return Err(ClientError::Protocol(format!(
                                "expected Resumed, got {other:?}"
                            )))
                        }
                        Err(error) if error.session_lost() => {
                            spend(&mut recoveries, error)?;
                            session = None;
                        }
                        Err(error) if error.is_transient() => {
                            spend(&mut recoveries, error)?;
                            client = None;
                            std::thread::sleep(backoff.next_delay());
                            continue;
                        }
                        Err(error) => return Err(error),
                    }
                }
                client.as_mut().expect("just connected")
            }
        };

        // A lost session means the scripted position restarts from a fresh synthesize,
        // whatever round we were on.
        let request = match session {
            None => Request::Synthesize {
                queries: queries.to_vec(),
                iterations: script.iterations,
                deadline_millis: script.deadline_millis,
                seed: script.seed,
            },
            Some(id) => Request::Refine {
                session: id,
                iterations: script.iterations,
                deadline_millis: script.deadline_millis,
            },
        };
        let started = Instant::now();
        match connected.call(&request) {
            Ok(Response::Synthesized {
                session: id,
                best,
                interface: described,
                diagnostics: reported,
            }) => {
                diagnostics = reported;
                latencies.push(started.elapsed().as_millis() as u64);
                if initial.is_none() {
                    initial = Some(best);
                } else {
                    // A restart mid-script: this round's record is the fresh session's
                    // opening best, and monotonicity re-anchors below.
                    refined.push(best);
                }
                session = Some(id);
                interface = Some(described);
                last_reward = best.reward;
                round += 1;
            }
            Ok(Response::Refined {
                best,
                interface: described,
                ..
            }) => {
                latencies.push(started.elapsed().as_millis() as u64);
                if best.reward < last_reward {
                    return Err(ClientError::Invariant(format!(
                        "refine round {round} decreased best reward: {last_reward} -> {}",
                        best.reward
                    )));
                }
                last_reward = best.reward;
                interface = Some(described);
                refined.push(best);
                round += 1;
            }
            Ok(other) => {
                return Err(ClientError::Protocol(format!(
                    "expected Synthesized/Refined, got {other:?}"
                )))
            }
            Err(error) if error.session_lost() => {
                spend(&mut recoveries, error)?;
                session = None;
                restarts += 1;
            }
            Err(error) if matches!(error, ClientError::Io(_) | ClientError::Protocol(_)) => {
                // Transport died mid-call: reconnect and resume, then retry this round.
                spend(&mut recoveries, error)?;
                client = None;
                std::thread::sleep(backoff.next_delay());
            }
            Err(error) if error.is_transient() => {
                spend(&mut recoveries, error)?;
                std::thread::sleep(backoff.next_delay());
            }
            Err(error) => return Err(error),
        }
    }

    let session_id = session.expect("script completed, session live");
    let mut interface = interface.expect("script completed, interface seen");
    let initial = initial.expect("script completed, initial recorded");

    // Append rounds run strictly even in tolerant mode: the rebase contract (re-anchored
    // monotonicity per post-append lifetime) is an invariant worth failing on, and the
    // chaos harness scripts no appends.
    let connected = client.as_mut().expect("script completed, client live");
    let mut appended = Vec::with_capacity(script.appends.len());
    let log_len = run_append_rounds(
        connected,
        session_id,
        script,
        &mut interface,
        &mut last_reward,
        &mut latencies,
        &mut appended,
        &mut diagnostics,
    )?;

    // Interaction and close are best-effort in tolerant mode: the search contract was
    // already verified, and a fault here must not fail the whole scripted session.
    let interact_sql = interface.choices.first().and_then(|choice| {
        let action = action_for_choice(choice);
        match connected.call(&Request::Interact {
            session: session_id,
            action,
        }) {
            Ok(Response::Interacted { sql, .. }) => Some(sql),
            _ => None,
        }
    });
    if !script.persist {
        let _ = connected.call(&Request::Close {
            session: session_id,
        });
    }

    Ok(ScriptReport {
        session: session_id,
        initial,
        refined,
        interact_sql,
        latencies_millis: latencies,
        reconnects,
        restarts,
        diagnostics,
        appended,
        log_len,
    })
}

/// Reattach to an existing session by id — live on the server, or restored from its
/// on-disk snapshot after a restart — then run the scripted refine rounds against it.
/// The `initial` best in the report is the resumed session's best at reattach time, and
/// monotonicity is enforced from there (the resume contract: a restored session continues
/// bit-identically, so refining it must never lose ground).
pub fn run_resume_session(
    addr: &str,
    session: u64,
    script: &ScriptConfig,
) -> Result<ScriptReport, ClientError> {
    let mut client = Client::connect(addr)?;
    let mut latencies = Vec::with_capacity(script.refines + 1);

    let started = Instant::now();
    let response = client.call(&Request::Resume { session })?;
    latencies.push(started.elapsed().as_millis() as u64);
    let (initial, mut interface) = match response {
        Response::Resumed {
            best, interface, ..
        } => (best, interface),
        other => {
            return Err(ClientError::Protocol(format!(
                "expected Resumed, got {other:?}"
            )))
        }
    };

    let mut refined = Vec::with_capacity(script.refines);
    let mut last_reward = initial.reward;
    for round in 0..script.refines {
        let started = Instant::now();
        let response = client.call(&Request::Refine {
            session,
            iterations: script.iterations,
            deadline_millis: script.deadline_millis,
        })?;
        latencies.push(started.elapsed().as_millis() as u64);
        match response {
            Response::Refined {
                best,
                interface: best_interface,
                ..
            } => {
                if best.reward < last_reward {
                    return Err(ClientError::Invariant(format!(
                        "refine {round} after resume decreased best reward: {last_reward} -> {}",
                        best.reward
                    )));
                }
                last_reward = best.reward;
                interface = best_interface;
                refined.push(best);
            }
            other => {
                return Err(ClientError::Protocol(format!(
                    "expected Refined, got {other:?}"
                )))
            }
        }
    }

    // The resumed session's log survived the snapshot round-trip in full (healthy and
    // quarantined entries alike); report its length from `Stats` so callers can assert
    // that appends made before the restart are still there.
    let mut diagnostics = Vec::new();
    let mut appended = Vec::with_capacity(script.appends.len());
    run_append_rounds(
        &mut client,
        session,
        script,
        &mut interface,
        &mut last_reward,
        &mut latencies,
        &mut appended,
        &mut diagnostics,
    )?;
    let log_len = match client.call(&Request::Stats)? {
        Response::Stats(stats) => stats
            .session_logs
            .iter()
            .find(|entry| entry.session == session)
            .map(|entry| entry.entries),
        other => {
            return Err(ClientError::Protocol(format!(
                "expected Stats, got {other:?}"
            )))
        }
    };

    let interact_sql = match interface.choices.first() {
        Some(choice) => {
            let action = action_for_choice(choice);
            match client.call(&Request::Interact { session, action })? {
                Response::Interacted { sql, .. } => Some(sql),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "expected Interacted, got {other:?}"
                    )))
                }
            }
        }
        None => None,
    };

    if !script.persist {
        match client.call(&Request::Close { session })? {
            Response::Closed { .. } => {}
            other => {
                return Err(ClientError::Protocol(format!(
                    "expected Closed, got {other:?}"
                )))
            }
        }
    }

    Ok(ScriptReport {
        session,
        initial,
        refined,
        interact_sql,
        latencies_millis: latencies,
        reconnects: 0,
        restarts: 0,
        diagnostics,
        appended,
        log_len,
    })
}

/// The natural interaction for a choice: pick the last option of an `Any`, toggle an `Opt`
/// off, set a `Multi` to one repetition.
fn action_for_choice(choice: &mctsui_core::ChoiceDescription) -> WidgetAction {
    use mctsui_difftree::DiffKind;
    let path = choice.path.0.clone();
    match choice.choice_kind {
        DiffKind::Opt => WidgetAction::Toggle {
            path,
            included: false,
        },
        DiffKind::Multi => WidgetAction::Repeat { path, count: 1 },
        _ => WidgetAction::Select {
            path,
            pick: choice.cardinality.saturating_sub(1),
        },
    }
}

/// Run `sessions` scripted sessions concurrently (one thread + connection each), seeds
/// derived per session. Returns every report or the first failure.
pub fn run_concurrent_sessions(
    addr: &str,
    queries: &[String],
    script: &ScriptConfig,
    sessions: usize,
) -> Result<Vec<ScriptReport>, ClientError> {
    let results: Vec<Result<ScriptReport, ClientError>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(sessions);
        for i in 0..sessions {
            let mut script = script.clone();
            script.seed = script
                .seed
                .wrapping_add((i as u64).wrapping_mul(script.seed_stride));
            let addr = addr.to_string();
            let queries = queries.to_vec();
            handles.push(scope.spawn(move || run_scripted_session(&addr, &queries, &script)));
        }
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(ClientError::Protocol("session thread panicked".into()))
                })
            })
            .collect()
    });
    results.into_iter().collect()
}
