//! The serving engine: many concurrent synthesis sessions multiplexed onto a small worker
//! pool with time-sliced budgets and one shared queue of leaf evaluations.
//!
//! # Architecture
//!
//! * **Sessions** own warm search state: a resumable [`SearchHandle`] over the session's
//!   [`InterfaceSearchProblem`], plus an [`InterfaceSession`] for widget interactions
//!   against the current best interface. A `refine` request continues the session's tree
//!   and rng stream exactly where the previous request paused them.
//! * **Shared caches** cross session boundaries. All sessions share one global
//!   [`RuleEngine`] — and therefore one rule-binding [`ActionIndex`](mctsui_difftree::ActionIndex)
//!   cache, which is keyed by subtree fingerprint and thus log-independent. Sessions over
//!   the *same* query log (same screen and sampling width) additionally share one
//!   `InterfaceSearchProblem`, and with it the per-log context/plan caches, through a weak
//!   registry: a popular dashboard log pays its expressibility work once, no matter how
//!   many users open it. The hot shared maps — the session table and the generational
//!   caches behind the problems — are sharded so a worker pool does not serialise on them.
//! * **The scheduler** splits each admitted request into *windows*: a worker takes the
//!   session lock once, runs the select/expand front half of up to [`ServeConfig::batch`]
//!   iterations ([`SearchHandle::begin_iteration`]), releases the lock and enqueues every
//!   reward the window owes as one unit on a **global leaf queue**. Whichever worker pops a
//!   unit evaluates it alone ([`SearchProblem::reward`]), so one window's leaves spread
//!   over every idle worker. When a window's last evaluation lands, its completions are
//!   applied in iteration order ([`SearchHandle::complete_iteration`]) and the remainder
//!   of the request re-queues at the back — round-robin across sessions, so no request
//!   starves.
//! * **Admission** bounds what one request can claim (session cap, per-request iteration
//!   cap, deadline cap) *at enqueue time*; a request whose deadline expires while its
//!   leaves sit in the evaluation queue is aborted, not evaluated — its virtual losses are
//!   reverted and its caller gets the anytime answer immediately.
//! * **Determinism**: a window's evaluations are pure per `(state, seed)` and consume no
//!   session rng, and completions are applied in begin order behind a window barrier, so a
//!   session's search stream depends only on `(seed, batch)` — never on worker count or on
//!   which worker evaluates which leaf. At `batch == 1` the stream is the sequential
//!   [`SearchHandle::run_for`] stream bit-for-bit.
//! * **Anytime responses**: when a request's budget or deadline runs out, the caller gets
//!   the best interface known *now*. More budget later never makes the answer worse
//!   (the handle's best record is monotone).
//! * **Fault hardening**: a worker panic is caught and quarantines *only* the session it
//!   was serving — evicted with its admission slot reclaimed, its waiter failed with the
//!   typed [`ServeError::Wedged`] — while every other session keeps serving; poisoned
//!   locks are recovered, never propagated. Sessions snapshot to an optional
//!   [`ServeConfig::snapshot_dir`] on a periodic cadence, on idle reaping and on graceful
//!   drain, and [`ServeEngine::resume`] reattaches them — in-process or after a process
//!   restart — continuing **bit-identically** to the uninterrupted run. A seeded
//!   [`FaultPlan`] injects worker panics, evaluation failures/delays and in-queue
//!   expiries at exact logical points, driving the chaos tests' quiescence invariants.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::time::{Duration, Instant};

use rustc_hash::FxHashMap;

use mctsui_core::{
    graft_append, InterfaceDescription, InterfaceSearchProblem, InterfaceSession, LiveLog,
    SessionError,
};
use mctsui_cost::{ContextCacheStats, CostWeights};
use mctsui_difftree::{
    simplified_difftree, CacheCounters, DiffPath, DiffTree, LogEntry, RuleEngine,
};
use mctsui_mcts::{Budget, MctsConfig, PendingLeaf, SearchHandle, SearchProblem};
use mctsui_sql::{parse_query, print_query, Ast};
use mctsui_widgets::Screen;

use crate::fault::{EvalFault, FaultPlan};
use crate::proto::{BestReport, EngineStatsReport, QueryDiagnostic, SessionLogStat, WidgetAction};
use crate::snapshot::{SessionSnapshot, SnapshotStore, SNAPSHOT_FORMAT_VERSION};

/// Configuration of a [`ServeEngine`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Scheduler worker threads slicing search work and draining the evaluation queue.
    pub threads: usize,
    /// Admission cap on concurrently live sessions (further `synthesize`s are rejected).
    pub max_sessions: usize,
    /// Admission cap on iterations per request (larger asks are clamped).
    pub max_request_iterations: u64,
    /// Budget used when a request asks for `iterations == 0`.
    pub default_request_iterations: u64,
    /// Admission cap on per-request deadlines (and the default for `deadline_millis == 0`).
    pub max_deadline_millis: u64,
    /// Window width: the leaves one session window begins per turn before any of them
    /// completes, each queued as its own evaluation. `1` reproduces the sequential
    /// per-session search stream bit-for-bit; larger widths trade per-window divergence
    /// (virtual losses diversify in-window selection) for spreading one window's
    /// evaluations over idle workers.
    pub batch: usize,
    /// Shard count of the hot shared state: the session table and the per-log
    /// context/plan caches. Sharding never changes results, only lock contention.
    pub shards: usize,
    /// Target screen of generated interfaces.
    pub screen: Screen,
    /// Cost weights of generated interfaces.
    pub weights: CostWeights,
    /// Random widget assignments per reward evaluation (the paper's `k`).
    pub assignments_per_eval: usize,
    /// Base search parameters (exploration, rollout depth, virtual loss). The budget and
    /// seed fields are ignored — session budgets are unbounded (requests are sliced
    /// instead) and each session's seed comes from its `synthesize` request.
    pub mcts: MctsConfig,
    /// Directory session snapshots persist to (`None` disables persistence). Snapshots
    /// are written on [`ServeConfig::snapshot_interval_millis`] cadence, on idle reaping
    /// and by [`ServeEngine::drain_and_shutdown`]; [`ServeEngine::resume`] restores from
    /// here, including after a process restart.
    pub snapshot_dir: Option<PathBuf>,
    /// Cadence of the periodic snapshot sweep (meaningful only with a snapshot dir).
    pub snapshot_interval_millis: u64,
    /// Idle-session reaping: a session untouched this long is snapshotted (when a store
    /// is configured) and evicted, freeing its admission slot. `0` disables reaping.
    pub idle_session_millis: u64,
    /// Read/write timeout applied to server-accepted and client sockets. Must exceed the
    /// scheduler's hard wait cap (request deadline + 60 s), or a slow-but-alive request
    /// would sever its own connection.
    pub io_timeout_millis: u64,
    /// Longest accepted NDJSON request line; oversized frames are rejected with the typed
    /// [`ServeError::FrameTooLarge`] instead of buffering without bound.
    pub max_frame_bytes: usize,
    /// Deterministic fault-injection plan for chaos tests and CI smoke jobs (`None` in
    /// production: every consultation site reduces to one `Option` check).
    pub fault: Option<Arc<FaultPlan>>,
    /// Strict admission: reject a `synthesize` on its first unparseable query instead of
    /// quarantining bad entries and serving the healthy remainder (the default).
    pub strict: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .min(8),
            max_sessions: 256,
            max_request_iterations: 100_000,
            default_request_iterations: 400,
            max_deadline_millis: 30_000,
            batch: 8,
            shards: 8,
            screen: Screen::wide(),
            weights: CostWeights::default(),
            assignments_per_eval: 3,
            mcts: MctsConfig::default(),
            snapshot_dir: None,
            snapshot_interval_millis: 2_000,
            idle_session_millis: 0,
            io_timeout_millis: 120_000,
            max_frame_bytes: 1 << 20,
            fault: None,
            strict: false,
        }
    }
}

impl ServeConfig {
    /// A small, fast configuration for tests and examples.
    pub fn quick() -> Self {
        Self {
            threads: 2,
            default_request_iterations: 60,
            batch: 4,
            mcts: MctsConfig::default().with_rollout_depth(40),
            assignments_per_eval: 2,
            ..Self::default()
        }
    }

    /// Builder helper: set the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Builder helper: set the session admission cap.
    pub fn with_max_sessions(mut self, cap: usize) -> Self {
        self.max_sessions = cap.max(1);
        self
    }

    /// Builder helper: set the window width.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Builder helper: set the shard count of the session table and per-log caches.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Builder helper: persist session snapshots to `dir`.
    pub fn with_snapshot_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.snapshot_dir = Some(dir.into());
        self
    }

    /// Builder helper: set the periodic snapshot cadence.
    pub fn with_snapshot_interval_millis(mut self, millis: u64) -> Self {
        self.snapshot_interval_millis = millis.max(1);
        self
    }

    /// Builder helper: reap sessions idle longer than `millis` (`0` disables).
    pub fn with_idle_session_millis(mut self, millis: u64) -> Self {
        self.idle_session_millis = millis;
        self
    }

    /// Builder helper: set the socket read/write timeout.
    pub fn with_io_timeout_millis(mut self, millis: u64) -> Self {
        self.io_timeout_millis = millis.max(1);
        self
    }

    /// Builder helper: set the NDJSON request-frame byte cap.
    pub fn with_max_frame_bytes(mut self, bytes: usize) -> Self {
        self.max_frame_bytes = bytes.max(1024);
        self
    }

    /// Builder helper: install a deterministic fault-injection plan.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Builder helper: reject degraded logs instead of quarantining their bad queries.
    pub fn with_strict(mut self) -> Self {
        self.strict = true;
        self
    }
}

/// Why a request was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control: the session table is full.
    Busy,
    /// The session id is unknown (never existed, or was closed).
    UnknownSession(u64),
    /// A `synthesize` with an empty query log.
    NoQueries,
    /// A query failed to parse (message includes the parser error).
    BadQuery(String),
    /// A widget interaction failed (bad path, out-of-range pick, inexpressible jump).
    Interaction(String),
    /// The engine is shutting down.
    ShuttingDown,
    /// The scheduler failed to finish the request within its hard wait cap (severely
    /// overloaded server, or a lost work item) — the server is up, but this request died.
    Timeout,
    /// A worker panicked while serving this session; the session was quarantined (evicted,
    /// its admission slot reclaimed). Its last on-disk snapshot, if any, survives — the
    /// client can `resume` from the last good state.
    Wedged(u64),
    /// An NDJSON line exceeded the configured frame cap.
    FrameTooLarge {
        /// The byte cap the frame exceeded.
        limit: usize,
    },
    /// Snapshot persistence or restoration failed (message includes the store error).
    Snapshot(String),
}

impl ServeError {
    /// Stable machine-readable code of this error (the wire protocol's `code` field);
    /// clients branch on this, never on the human-readable message.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Busy => "busy",
            ServeError::UnknownSession(_) => "unknown_session",
            ServeError::NoQueries => "no_queries",
            ServeError::BadQuery(_) => "bad_query",
            ServeError::Interaction(_) => "interaction",
            ServeError::ShuttingDown => "shutting_down",
            ServeError::Timeout => "timeout",
            ServeError::Wedged(_) => "wedged",
            ServeError::FrameTooLarge { .. } => "frame_too_large",
            ServeError::Snapshot(_) => "snapshot",
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Busy => write!(f, "session table full, try again later"),
            ServeError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ServeError::NoQueries => write!(f, "synthesize needs at least one query"),
            ServeError::BadQuery(m) => write!(f, "bad query: {m}"),
            ServeError::Interaction(m) => write!(f, "interaction failed: {m}"),
            ServeError::ShuttingDown => write!(f, "server shutting down"),
            ServeError::Timeout => write!(f, "request timed out in the scheduler"),
            ServeError::Wedged(id) => {
                write!(
                    f,
                    "session {id} wedged by a worker panic and was quarantined"
                )
            }
            ServeError::FrameTooLarge { limit } => {
                write!(f, "frame exceeds the {limit}-byte line cap")
            }
            ServeError::Snapshot(m) => write!(f, "snapshot error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The anytime result of a `synthesize` or `refine` request.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// The session the search ran in.
    pub session: u64,
    /// Best-so-far search summary.
    pub best: BestReport,
    /// Whether this request improved on the session's previous best reward.
    pub improved: bool,
    /// The best interface found so far.
    pub interface: InterfaceDescription,
    /// The diagnostics of the session log's quarantined slots, addressed by their current
    /// log index (empty while every entry is healthy).
    pub diagnostics: Vec<QueryDiagnostic>,
}

/// The result of a live log edit ([`ServeEngine::append`] / [`ServeEngine::retract`]):
/// the session's anytime answer over the updated problem, plus the updated log's shape.
#[derive(Debug, Clone)]
pub struct LogEditResult {
    /// The anytime answer (no new search was run; `refine` continues the rebased tree).
    pub result: SynthesisResult,
    /// Total log length after the edit (quarantined slots included).
    pub log_len: u64,
    /// Healthy queries after the edit.
    pub healthy_len: u64,
    /// Quarantined slots after the edit.
    pub quarantined_len: u64,
}

/// One live session: the warm search handle plus interaction state.
struct Session {
    /// The search over the problem of the log's healthy queries.
    handle: SearchHandle<Arc<InterfaceSearchProblem>>,
    /// The session's query log. Its diagnostics are echoed on every response, and
    /// `sources()` is the snapshot format (quarantined slots included, so they survive a
    /// restart round trip).
    log: LiveLog,
    /// Whether a window of pending leaves is currently in flight for this session.
    /// Windows serialise per session (the barrier is what makes the search stream a
    /// function of `(seed, batch)` alone), so a work item that finds this set rotates to
    /// the back of the queue instead of opening a second window.
    window_active: bool,
    /// Log edits waiting for the in-flight window to finalise. While non-zero no new
    /// window opens: the worker that finalises a window would otherwise open the request's
    /// next one before the woken edit retakes the lock, and a long refine would starve it.
    edits_waiting: usize,
    /// The interaction session over the current best difftree, tagged with that tree's
    /// fingerprint so refines that change the best tree rebuild it lazily.
    interact: Option<(u64, InterfaceSession)>,
    /// The described best interface, tagged with its tree's fingerprint: refines that
    /// don't improve the tree (the common steady state) reuse it instead of re-sampling
    /// assignments and rebuilding the widget tree per response.
    described: Option<(u64, InterfaceDescription)>,
    /// Seed used for description/report evaluations (the session's search seed).
    eval_seed: u64,
    /// When this session last served any request (admission, refine, interact, resume);
    /// drives idle reaping.
    last_touched: Instant,
    /// The handle's iteration count at the last snapshot written for this session
    /// (`None` before the first). Equal to the current count ⇔ the on-disk snapshot is
    /// fresh, so clean sessions cost the periodic sweep nothing.
    snapshotted_iterations: Option<u64>,
}

impl Session {
    /// A quiescent session: no window in flight, nothing described or interacted with yet.
    fn new(
        handle: SearchHandle<Arc<InterfaceSearchProblem>>,
        log: LiveLog,
        eval_seed: u64,
        snapshotted_iterations: Option<u64>,
    ) -> Self {
        Self {
            handle,
            log,
            window_active: false,
            edits_waiting: 0,
            interact: None,
            described: None,
            eval_seed,
            last_touched: Instant::now(),
            snapshotted_iterations,
        }
    }
}

/// A live session behind its mutex, with the condvar log edits wait on until no window is
/// in flight.
struct SessionCell {
    state: Mutex<Session>,
    /// Notified whenever `window_active` is cleared.
    quiescent: Condvar,
}

impl SessionCell {
    fn new(session: Session) -> Self {
        Self {
            state: Mutex::new(session),
            quiescent: Condvar::new(),
        }
    }

    /// Lock the session, recovering a poisoned lock: a panic mid-turn quarantines the
    /// session, and its state stays readable for the threads still holding the cell.
    fn lock(&self) -> MutexGuard<'_, Session> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Clear the in-flight window flag, release the lock and wake waiting log edits.
    fn end_window(&self, mut guard: MutexGuard<'_, Session>) {
        guard.window_active = false;
        drop(guard);
        self.quiescent.notify_all();
    }
}

/// The sharded session table. Lookups and admission hash the session id onto one of
/// `shards` independent maps; the strict admission cap is enforced by a CAS loop on the
/// shared live counter, so no global lock exists on the request hot path.
struct SessionTable {
    shards: Vec<Mutex<FxHashMap<u64, Arc<SessionCell>>>>,
    live: AtomicU64,
}

impl SessionTable {
    fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards.clamp(1, 64))
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
            live: AtomicU64::new(0),
        }
    }

    fn shard(&self, id: u64) -> &Mutex<FxHashMap<u64, Arc<SessionCell>>> {
        let mixed = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[(mixed as usize) % self.shards.len()]
    }

    fn get(&self, id: u64) -> Option<Arc<SessionCell>> {
        self.shard(id)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&id)
            .cloned()
    }

    fn contains(&self, id: u64) -> bool {
        self.shard(id)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains_key(&id)
    }

    /// Admission-controlled insert: claims a live slot through the CAS loop first (so
    /// concurrent synthesizes cannot overshoot the cap even across shards), then inserts.
    /// Refuses duplicate ids (two concurrent resumes of one session) and gives the
    /// claimed slot back, or the live counter would leak admission capacity.
    fn try_insert(&self, id: u64, session: Arc<SessionCell>, cap: usize) -> bool {
        loop {
            let live = self.live.load(Ordering::Acquire);
            if live >= cap as u64 {
                return false;
            }
            if self
                .live
                .compare_exchange(live, live + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break;
            }
        }
        let mut shard = self
            .shard(id)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if shard.contains_key(&id) {
            drop(shard);
            self.live.fetch_sub(1, Ordering::AcqRel);
            return false;
        }
        shard.insert(id, session);
        true
    }

    fn remove(&self, id: u64) -> Option<Arc<SessionCell>> {
        let removed = self
            .shard(id)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&id);
        if removed.is_some() {
            self.live.fetch_sub(1, Ordering::AcqRel);
        }
        removed
    }

    fn len(&self) -> u64 {
        self.live.load(Ordering::Acquire)
    }

    /// The live session ids (a point-in-time sweep across shards, for maintenance walks).
    fn ids(&self) -> Vec<u64> {
        self.shards
            .iter()
            .flat_map(|shard| {
                shard
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .keys()
                    .copied()
                    .collect::<Vec<_>>()
            })
            .collect()
    }
}

/// A unit of admitted, not-yet-finished search work (one session owed a window turn).
struct WorkItem {
    session: u64,
    /// Iterations still owed to this request.
    remaining: u64,
    /// Absolute deadline of the request.
    deadline: Instant,
    ticket: Arc<Ticket>,
}

/// Completion notification of one request's work item.
struct Ticket {
    state: Mutex<Option<Result<(), ServeError>>>,
    cv: Condvar,
}

impl Ticket {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    fn complete(&self, result: Result<(), ServeError>) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.is_none() {
            *state = Some(result);
            self.cv.notify_all();
        }
    }

    /// Wait for completion, with a generous hard cap so a lost item can never hang a
    /// connection forever.
    fn wait(&self, cap: Duration) -> Result<(), ServeError> {
        let deadline = Instant::now() + cap;
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = state.take() {
                return result;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(ServeError::Timeout);
            }
            let (guard, _) = self
                .cv
                .wait_timeout(state, left)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
        }
    }
}

/// One window of pending leaves: the in-flight middle of up to `batch` split iterations of
/// one session. Holds the leaves' front halves until every owed evaluation has landed,
/// then the last-settling worker applies the completions in iteration order (or aborts the
/// whole window if the request's deadline expired while its leaves were queued).
struct Window {
    session_id: u64,
    session: Arc<SessionCell>,
    problem: Arc<InterfaceSearchProblem>,
    deadline: Instant,
    /// Iterations still owed to the request after this window completes.
    remaining_after: u64,
    ticket: Arc<Ticket>,
    /// One slot per begun iteration, in begin order.
    slots: Mutex<Vec<LeafSlot>>,
    /// Evaluation units still owed to this window; the worker that settles the last one
    /// finalises the window.
    outstanding: AtomicUsize,
    /// Set when the deadline expired (or shutdown began) before the window finished:
    /// finalisation then reverts the virtual losses instead of completing.
    aborted: AtomicBool,
}

/// One pending iteration of a window plus its landed rewards.
struct LeafSlot {
    pending: Option<PendingLeaf<DiffTree>>,
    node_reward: Option<f64>,
    rollout_reward: Option<f64>,
}

/// Which of a pending leaf's owed evaluations a queued unit carries.
enum LeafKind {
    /// The expanded tree node's state.
    Node,
    /// The rollout endpoint.
    Rollout,
}

/// One queued leaf evaluation: a `reward(state, seed)` call owed to one slot of a window.
struct EvalUnit {
    window: Arc<Window>,
    /// Index of the owning slot in the window.
    slot: usize,
    kind: LeafKind,
    state: DiffTree,
    seed: u64,
}

/// The two scheduler queues under one lock: admitted session turns and queued leaf
/// evaluations (which one a worker takes next is [`worker_loop`]'s turn preference).
struct Scheduler {
    work: VecDeque<WorkItem>,
    leaves: VecDeque<EvalUnit>,
}

/// Registry key of a shared problem: the printed log plus the screen and sampling width
/// the problem is built with.
#[derive(PartialEq, Eq, Hash)]
struct ProblemKey {
    sql: Vec<String>,
    screen: Screen,
    assignments_per_eval: usize,
}

/// State shared between the public API, the scheduler workers and the connection threads.
struct Shared {
    config: ServeConfig,
    /// The global rule engine: one [`mctsui_difftree::ActionIndex`] for every session.
    rules: RuleEngine,
    started: Instant,
    sessions: SessionTable,
    next_session: AtomicU64,
    /// Problems shared across sessions with the same (log, screen, k) — weak so closing
    /// the last session of a log frees its caches. The default hasher, because clients
    /// choose the keys.
    problems: Mutex<HashMap<ProblemKey, Weak<InterfaceSearchProblem>>>,
    sched: Mutex<Scheduler>,
    sched_cv: Condvar,
    shutdown: AtomicBool,
    total_requests: AtomicU64,
    total_iterations: AtomicU64,
    total_slices: AtomicU64,
    peak_sessions: AtomicU64,
    /// Leaf evaluations run, each settling one owed reward (reported as both
    /// `total_batches` and `total_batched_units`).
    leaf_evaluations: AtomicU64,
    expired_windows: AtomicU64,
    expired_units: AtomicU64,
    /// Optional snapshot store ([`ServeConfig::snapshot_dir`]).
    store: Option<SnapshotStore>,
    /// Graceful drain: admission closed, in-flight windows finishing, snapshot then stop.
    draining: AtomicBool,
    /// Windows in flight engine-wide (created but not yet finalised); zero is half of the
    /// drain loop's quiescence condition.
    active_windows: AtomicU64,
    wedged_sessions: AtomicU64,
    caught_panics: AtomicU64,
    snapshots_written: AtomicU64,
    sessions_resumed: AtomicU64,
    reaped_sessions: AtomicU64,
    /// Queries quarantined at admission across every served `synthesize`.
    quarantined_queries: AtomicU64,
    /// Queries appended to live sessions (healthy and quarantined alike).
    appended_queries: AtomicU64,
    /// Log entries retracted from live sessions.
    retracted_queries: AtomicU64,
    /// Warm search trees re-rooted onto an updated problem by a live append or retract.
    rebased_handles: AtomicU64,
}

/// The multi-session anytime synthesis engine. See the module docs for the architecture.
pub struct ServeEngine {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ServeEngine {
    /// Start an engine with `config.threads` scheduler workers (plus one maintenance
    /// thread when snapshots or idle reaping are configured).
    pub fn start(config: ServeConfig) -> Arc<Self> {
        let threads = config.threads.max(1);
        let shards = config.shards.max(1);
        let store = config
            .snapshot_dir
            .as_ref()
            .map(|dir| SnapshotStore::open(dir).expect("snapshot dir must be creatable"));
        // Session ids never repeat across restarts sharing a snapshot dir: a freshly
        // opened session must not shadow a still-restorable old one.
        let next_session = store
            .as_ref()
            .map(|s| s.list().into_iter().max().map_or(1, |max| max + 1))
            .unwrap_or(1);
        let shared = Arc::new(Shared {
            rules: RuleEngine::default(),
            started: Instant::now(),
            sessions: SessionTable::new(shards),
            next_session: AtomicU64::new(next_session),
            problems: Mutex::new(HashMap::new()),
            sched: Mutex::new(Scheduler {
                work: VecDeque::new(),
                leaves: VecDeque::new(),
            }),
            sched_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            total_requests: AtomicU64::new(0),
            total_iterations: AtomicU64::new(0),
            total_slices: AtomicU64::new(0),
            peak_sessions: AtomicU64::new(0),
            leaf_evaluations: AtomicU64::new(0),
            expired_windows: AtomicU64::new(0),
            expired_units: AtomicU64::new(0),
            store,
            draining: AtomicBool::new(false),
            active_windows: AtomicU64::new(0),
            wedged_sessions: AtomicU64::new(0),
            caught_panics: AtomicU64::new(0),
            snapshots_written: AtomicU64::new(0),
            sessions_resumed: AtomicU64::new(0),
            reaped_sessions: AtomicU64::new(0),
            quarantined_queries: AtomicU64::new(0),
            appended_queries: AtomicU64::new(0),
            retracted_queries: AtomicU64::new(0),
            rebased_handles: AtomicU64::new(0),
            config,
        });
        let mut workers = Vec::with_capacity(threads + 1);
        for _ in 0..threads {
            let shared = Arc::clone(&shared);
            workers.push(std::thread::spawn(move || worker_loop(&shared)));
        }
        if shared.store.is_some() || shared.config.idle_session_millis > 0 {
            let shared = Arc::clone(&shared);
            workers.push(std::thread::spawn(move || maintenance_loop(&shared)));
        }
        Arc::new(Self {
            shared,
            workers: Mutex::new(workers),
        })
    }

    /// Open a session for `queries` and run the initial search under the request bounds.
    /// Admission-controlled: rejected with [`ServeError::Busy`] when the session table is
    /// full. The session's search stream is deterministic in `seed` (every value,
    /// including 0, is honoured as given).
    pub fn synthesize(
        &self,
        queries: Vec<Ast>,
        iterations: u64,
        deadline_millis: u64,
        seed: u64,
    ) -> Result<SynthesisResult, ServeError> {
        self.open_session(
            LiveLog::from_asts(queries),
            iterations,
            deadline_millis,
            seed,
        )
    }

    /// [`ServeEngine::synthesize`] over a triaged (possibly degraded) log. Healthy queries
    /// drive the search; quarantined ones are reported as per-query diagnostics on every
    /// response of the session. Under [`ServeConfig::strict`] any quarantined query
    /// rejects the whole request with [`ServeError::BadQuery`] (the pre-lenient
    /// behaviour), as does a log whose every query is quarantined.
    pub fn synthesize_triaged(
        &self,
        log: &LiveLog,
        iterations: u64,
        deadline_millis: u64,
        seed: u64,
    ) -> Result<SynthesisResult, ServeError> {
        if let Some((index, error)) = log.first_failure() {
            if self.shared.config.strict {
                return Err(ServeError::BadQuery(format!("query {index}: {error}")));
            }
            if log.healthy_len() == 0 {
                return Err(ServeError::BadQuery(format!(
                    "all {} queries quarantined; first: query {index}: {error}",
                    log.len()
                )));
            }
        }
        self.open_session(log.clone(), iterations, deadline_millis, seed)
    }

    /// Admit a session over `log` and run its first request.
    fn open_session(
        &self,
        log: LiveLog,
        iterations: u64,
        deadline_millis: u64,
        seed: u64,
    ) -> Result<SynthesisResult, ServeError> {
        self.ensure_open()?;
        let queries = log.healthy();
        if queries.is_empty() {
            return Err(ServeError::NoQueries);
        }
        // Cheap admission pre-check before paying for problem construction and the
        // handle prologue (root reward evaluation); the authoritative check is the CAS
        // slot claim at insert time.
        if self.shared.sessions.len() >= self.shared.config.max_sessions as u64 {
            return Err(ServeError::Busy);
        }

        let mut mcts = self.shared.config.mcts.clone();
        mcts.seed = seed;
        // Session budgets are unbounded; every request is bounded by the scheduler instead.
        mcts.budget = Budget::Iterations(usize::MAX);
        let handle = SearchHandle::new(self.problem_for(&queries), mcts);

        let id = self.shared.next_session.fetch_add(1, Ordering::Relaxed);
        let quarantined = log.quarantined_len() as u64;
        if !self.insert_session(id, Session::new(handle, log, seed, None)) {
            return Err(ServeError::Busy);
        }
        // Counted only once admission succeeded: `total_requests` reports admitted work,
        // and `quarantined_queries` reports quarantines of logs that were actually served.
        self.shared.total_requests.fetch_add(1, Ordering::Relaxed);
        self.shared
            .quarantined_queries
            .fetch_add(quarantined, Ordering::Relaxed);

        let result = self.run_request(id, iterations, deadline_millis);
        if result.is_err() {
            // The client never learns the session id on failure, so a leftover session
            // would leak its admission slot (and its search tree) until restart.
            let _ = self.close_session(id);
        }
        result
    }

    /// Insert a new session under the admission cap and record the peak. False when the
    /// table is full or the id is already live.
    fn insert_session(&self, id: u64, session: Session) -> bool {
        let inserted = self.shared.sessions.try_insert(
            id,
            Arc::new(SessionCell::new(session)),
            self.shared.config.max_sessions,
        );
        if inserted {
            self.shared
                .peak_sessions
                .fetch_max(self.shared.sessions.len(), Ordering::Relaxed);
        }
        inserted
    }

    /// Continue a session's search under the request bounds. The session's best reward is
    /// monotone: a refine can only improve (or keep) the answer.
    pub fn refine(
        &self,
        session: u64,
        iterations: u64,
        deadline_millis: u64,
    ) -> Result<SynthesisResult, ServeError> {
        self.ensure_open()?;
        // Existence check up front so callers get UnknownSession, not a queue round-trip.
        if !self.shared.sessions.contains(session) {
            return Err(ServeError::UnknownSession(session));
        }
        self.shared.total_requests.fetch_add(1, Ordering::Relaxed);
        self.run_request(session, iterations, deadline_millis)
    }

    /// Append one query to a live session's log.
    ///
    /// The query is triaged leniently exactly like admission. A clean parse switches the
    /// session to the shared problem of the extended log and re-roots the warm search
    /// tree onto it ([`SearchHandle::rebase`] with the [`graft_append`] state graft):
    /// visit statistics survive as warm priors, every off-spine subtree stays
    /// `Arc`-shared, and fingerprint-keyed caches keep hitting. A malformed query occupies
    /// a quarantined log slot and leaves the search untouched (rejected instead under
    /// [`ServeConfig::strict`]). Rebase resets the session's best record to the updated
    /// problem's root, so post-append rewards are not comparable to pre-append ones.
    pub fn append(&self, session: u64, query: &str) -> Result<LogEditResult, ServeError> {
        self.ensure_open()?;
        if self.shared.config.strict {
            if let Err(e) = parse_query(query) {
                return Err(ServeError::BadQuery(e.to_string()));
            }
        }
        let handle = self.session(session)?;
        self.shared.total_requests.fetch_add(1, Ordering::Relaxed);
        let mut guard = self.lock_quiescent(&handle)?;
        guard.last_touched = Instant::now();

        let healthy = guard.log.append_source(query).is_empty();
        let replaced = if healthy {
            let Some(LogEntry::Parsed(ast)) = guard.log.entries().last().cloned() else {
                unreachable!("clean append yields a parsed tail entry");
            };
            Some(self.rebase_session(&mut guard, |state| Some(graft_append(state, &ast))))
        } else {
            self.shared
                .quarantined_queries
                .fetch_add(1, Ordering::Relaxed);
            None
        };
        self.shared.appended_queries.fetch_add(1, Ordering::Relaxed);
        self.finish_log_edit(session, guard, replaced)
    }

    /// Retract the session's log entry at `index` (0-based, quarantined slots included).
    ///
    /// Retracting a healthy query switches the session to the problem of the narrowed log
    /// and re-roots the warm search tree onto it (the identity graft: a state expressing
    /// a superset of queries expresses the remainder). Retracting a quarantined slot just
    /// frees the slot and its diagnostics — the search is untouched. Retracting the last
    /// healthy query is rejected with [`ServeError::NoQueries`].
    pub fn retract(&self, session: u64, index: u64) -> Result<LogEditResult, ServeError> {
        self.ensure_open()?;
        let handle = self.session(session)?;
        self.shared.total_requests.fetch_add(1, Ordering::Relaxed);
        let mut guard = self.lock_quiescent(&handle)?;
        guard.last_touched = Instant::now();

        let at = index as usize;
        let Some(entry) = guard.log.entries().get(at) else {
            return Err(ServeError::BadQuery(format!(
                "retract index {index} out of bounds (log length {})",
                guard.log.len()
            )));
        };
        let healthy = !entry.is_quarantined();
        if healthy && guard.log.healthy_len() == 1 {
            return Err(ServeError::NoQueries);
        }
        guard.log.retract(at).map_err(ServeError::BadQuery)?;
        let replaced =
            healthy.then(|| self.rebase_session(&mut guard, |state| Some(state.clone())));
        self.shared
            .retracted_queries
            .fetch_add(1, Ordering::Relaxed);
        self.finish_log_edit(session, guard, replaced)
    }

    /// Move a session onto the problem of its edited log: re-root the warm search tree
    /// through `graft` and drop the views of the old best interface. Returns the replaced
    /// problem, for the caller to drop after releasing the session lock.
    fn rebase_session(
        &self,
        session: &mut Session,
        graft: impl Fn(&DiffTree) -> Option<DiffTree>,
    ) -> Arc<InterfaceSearchProblem> {
        let problem = self.problem_for(&session.log.healthy());
        let replaced = Arc::clone(session.handle.problem());
        session
            .handle
            .rebase(problem, graft)
            .expect("window quiescence implies handle quiescence");
        session.interact = None;
        session.described = None;
        self.shared.rebased_handles.fetch_add(1, Ordering::Relaxed);
        replaced
    }

    /// Common tail of a log edit: mark the on-disk snapshot stale, record the log shape,
    /// release the lock and build the anytime answer outside it.
    ///
    /// `replaced` is the problem the edit swapped out, if any. It may hold the last
    /// reference, and tearing a problem down (its plan and context caches and its
    /// expressibility chart) takes tens of milliseconds, so it is dropped only after the
    /// session lock is released.
    fn finish_log_edit(
        &self,
        session: u64,
        mut guard: MutexGuard<'_, Session>,
        replaced: Option<Arc<InterfaceSearchProblem>>,
    ) -> Result<LogEditResult, ServeError> {
        guard.snapshotted_iterations = None;
        let log_len = guard.log.len() as u64;
        let healthy_len = guard.log.healthy_len() as u64;
        let quarantined_len = guard.log.quarantined_len() as u64;
        let reward_before = guard.handle.best_reward();
        drop(guard);
        drop(replaced);
        let result = self.anytime_result(session, reward_before)?;
        Ok(LogEditResult {
            result,
            log_len,
            healthy_len,
            quarantined_len,
        })
    }

    /// Take the session lock at window quiescence. Log edits rebase the warm search
    /// tree, which requires no leaves in flight. The edit first counts itself in
    /// `edits_waiting`, so no further window opens, then waits on the session's condvar
    /// for the in-flight window to finalise (windows are short — one window's leaf
    /// evaluations); a session wedged mid-window reports [`ServeError::Busy`] after 2 s
    /// instead of stalling the connection forever.
    fn lock_quiescent<'a>(
        &self,
        session: &'a SessionCell,
    ) -> Result<MutexGuard<'a, Session>, ServeError> {
        let mut guard = session.lock();
        guard.edits_waiting += 1;
        let (mut guard, _) = session
            .quiescent
            .wait_timeout_while(guard, Duration::from_millis(2_000), |s| s.window_active)
            .unwrap_or_else(PoisonError::into_inner);
        guard.edits_waiting -= 1;
        if guard.window_active {
            return Err(ServeError::Busy);
        }
        Ok(guard)
    }

    /// Enqueue a bounded work item for `session`, wait for the scheduler to finish it and
    /// report the anytime answer.
    fn run_request(
        &self,
        session: u64,
        iterations: u64,
        deadline_millis: u64,
    ) -> Result<SynthesisResult, ServeError> {
        let config = &self.shared.config;
        let iterations = if iterations == 0 {
            config.default_request_iterations
        } else {
            iterations.min(config.max_request_iterations)
        };
        let deadline_millis = if deadline_millis == 0 {
            config.max_deadline_millis
        } else {
            deadline_millis.min(config.max_deadline_millis)
        };

        let reward_before = self.touch(session)?;
        let ticket = Ticket::new();
        {
            let mut sched = self
                .shared
                .sched
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if self.is_shutdown() {
                return Err(ServeError::ShuttingDown);
            }
            sched.work.push_back(WorkItem {
                session,
                remaining: iterations,
                deadline: Instant::now() + Duration::from_millis(deadline_millis),
                ticket: Arc::clone(&ticket),
            });
        }
        self.shared.sched_cv.notify_one();
        ticket.wait(Duration::from_millis(deadline_millis) + Duration::from_secs(60))?;

        self.anytime_result(session, reward_before)
    }

    /// The session's current anytime answer: best report + interface description.
    ///
    /// The description is cached by the best tree's fingerprint (like the interaction
    /// state): refines that didn't change the best tree — the common steady state —
    /// answer from the cache, and the assignment sampling / widget-tree build for a new
    /// best tree runs *outside* the session mutex so scheduler workers are not stalled
    /// behind response construction.
    fn anytime_result(
        &self,
        session: u64,
        reward_before: f64,
    ) -> Result<SynthesisResult, ServeError> {
        let handle = self.session(session)?;
        let (best_tree, best_reward, best, problem, eval_seed, cached, diagnostics) = {
            let guard = handle.lock();
            let best_tree = guard.handle.best_state().clone();
            let fingerprint = best_tree.fingerprint();
            let best_reward = guard.handle.best_reward();
            let best = BestReport {
                reward: best_reward,
                cost_total: 0.0, // filled from the description below
                iterations: guard.handle.iterations() as u64,
                evaluations: guard.handle.evaluations() as u64,
                tree_nodes: guard.handle.node_count() as u64,
                exhausted: guard.handle.is_exhausted(),
            };
            let cached = guard
                .described
                .as_ref()
                .filter(|(fp, _)| *fp == fingerprint)
                .map(|(_, d)| d.clone());
            (
                best_tree,
                best_reward,
                best,
                Arc::clone(guard.handle.problem()),
                guard.eval_seed,
                cached,
                guard.log.diagnostics(),
            )
        };

        let interface = match cached {
            Some(interface) => interface,
            None => {
                let (assignment, cost) = problem.best_sampled_assignment(&best_tree, eval_seed);
                let interface = InterfaceDescription::new(
                    &best_tree,
                    &assignment,
                    self.shared.config.screen,
                    cost,
                );
                let mut guard = handle.lock();
                guard.described = Some((best_tree.fingerprint(), interface.clone()));
                interface
            }
        };
        let best = BestReport {
            cost_total: interface.cost.total,
            ..best
        };
        Ok(SynthesisResult {
            session,
            best,
            improved: best_reward > reward_before,
            interface,
            diagnostics: diagnostics
                .into_iter()
                .map(|d| QueryDiagnostic {
                    index: d.index as u64,
                    offset: d.offset as u64,
                    message: d.message,
                    quarantined: d.quarantined,
                })
                .collect(),
        })
    }

    /// Apply a widget interaction to the session's current best interface and return the
    /// re-derived SQL. The interaction state is rebuilt lazily whenever a refine has
    /// changed the best difftree (selections then reset to the log's first query).
    pub fn interact(&self, session: u64, action: &WidgetAction) -> Result<String, ServeError> {
        let handle = self.session(session)?;
        self.shared.total_requests.fetch_add(1, Ordering::Relaxed);
        let mut guard = handle.lock();
        guard.last_touched = Instant::now();

        let best_tree = guard.handle.best_state().clone();
        let fingerprint = best_tree.fingerprint();
        let stale = match &guard.interact {
            Some((fp, _)) => *fp != fingerprint,
            None => true,
        };
        if stale {
            let first_query = guard
                .handle
                .problem()
                .queries()
                .first()
                .cloned()
                .ok_or(ServeError::NoQueries)?;
            let interface_session = InterfaceSession::start(best_tree, &first_query)
                .map_err(|e| ServeError::Interaction(e.to_string()))?;
            guard.interact = Some((fingerprint, interface_session));
        }
        let (_, interface_session) = guard.interact.as_mut().expect("just ensured");

        let map_err = |e: SessionError| ServeError::Interaction(e.to_string());
        let query = match action {
            WidgetAction::Select { path, pick } => {
                interface_session.select_option(&DiffPath(path.clone()), *pick)
            }
            WidgetAction::Toggle { path, included } => {
                interface_session.set_included(&DiffPath(path.clone()), *included)
            }
            WidgetAction::Repeat { path, count } => {
                interface_session.set_repetitions(&DiffPath(path.clone()), *count)
            }
            WidgetAction::Jump { query } => {
                let ast = parse_query(query).map_err(|e| ServeError::BadQuery(e.to_string()))?;
                interface_session.jump_to(&ast).map(|()| ast)
            }
        }
        .map_err(map_err)?;
        Ok(print_query(&query))
    }

    /// Drop a session, free its search tree and delete its on-disk snapshot (a close is
    /// an explicit discard; quarantine, by contrast, keeps the file for `resume`).
    pub fn close_session(&self, session: u64) -> Result<(), ServeError> {
        match self.shared.sessions.remove(session) {
            Some(_) => {
                if let Some(store) = &self.shared.store {
                    store.remove(session);
                }
                Ok(())
            }
            None => Err(ServeError::UnknownSession(session)),
        }
    }

    /// Engine-wide statistics: sessions, scheduler counters and shared-cache counters
    /// (aggregate and per shard).
    pub fn stats(&self) -> EngineStatsReport {
        let sessions = self.shared.sessions.len();
        let (queue_depth, leaf_queue_depth) = {
            let sched = self
                .shared
                .sched
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            (sched.work.len() as u64, sched.leaves.len() as u64)
        };
        // Sum the per-log context caches over the live problems in the registry; the
        // per-shard vectors are summed element-wise (every problem cache has the same
        // shard count, set by `config.shards`). The problems are upgraded under the
        // registry lock but read and released after it: if a session drops its last
        // reference meanwhile, the problem's teardown runs here, not under the lock.
        let live: Vec<Arc<InterfaceSearchProblem>> = {
            let mut problems = self
                .shared
                .problems
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            problems.retain(|_, weak| weak.strong_count() > 0);
            problems.values().filter_map(Weak::upgrade).collect()
        };
        let mut context_cache = ContextCacheStats::default();
        let mut plan_cache_shards: Vec<CacheCounters> = Vec::new();
        for problem in &live {
            context_cache = context_cache.merged(&problem.cache_stats());
            let shards = problem.plan_shard_counters();
            if plan_cache_shards.len() < shards.len() {
                plan_cache_shards.resize(shards.len(), CacheCounters::default());
            }
            for (merged, shard) in plan_cache_shards.iter_mut().zip(shards) {
                *merged = merged.merged(&shard);
            }
        }
        drop(live);
        let leaf_evaluations = self.shared.leaf_evaluations.load(Ordering::Relaxed);
        // Per-session log sizes: brief per-session locks (never held across the sweep),
        // sorted so the report is deterministic regardless of shard iteration order.
        let mut session_logs: Vec<SessionLogStat> = self
            .shared
            .sessions
            .ids()
            .into_iter()
            .filter_map(|id| {
                let session = self.shared.sessions.get(id)?;
                let guard = session.lock();
                Some(SessionLogStat {
                    session: id,
                    entries: guard.log.len() as u64,
                    quarantined: guard.log.quarantined_len() as u64,
                })
            })
            .collect();
        session_logs.sort_by_key(|stat| stat.session);
        EngineStatsReport {
            sessions,
            peak_sessions: self.shared.peak_sessions.load(Ordering::Relaxed),
            queue_depth,
            leaf_queue_depth,
            total_requests: self.shared.total_requests.load(Ordering::Relaxed),
            total_iterations: self.shared.total_iterations.load(Ordering::Relaxed),
            total_slices: self.shared.total_slices.load(Ordering::Relaxed),
            total_batches: leaf_evaluations,
            total_batched_units: leaf_evaluations,
            batch_group_hits: 0,
            expired_windows: self.shared.expired_windows.load(Ordering::Relaxed),
            expired_units: self.shared.expired_units.load(Ordering::Relaxed),
            wedged_sessions: self.shared.wedged_sessions.load(Ordering::Relaxed),
            caught_panics: self.shared.caught_panics.load(Ordering::Relaxed),
            snapshots_written: self.shared.snapshots_written.load(Ordering::Relaxed),
            sessions_resumed: self.shared.sessions_resumed.load(Ordering::Relaxed),
            quarantined_queries: self.shared.quarantined_queries.load(Ordering::Relaxed),
            appended_queries: self.shared.appended_queries.load(Ordering::Relaxed),
            retracted_queries: self.shared.retracted_queries.load(Ordering::Relaxed),
            rebased_handles: self.shared.rebased_handles.load(Ordering::Relaxed),
            session_logs,
            reaped_sessions: self.shared.reaped_sessions.load(Ordering::Relaxed),
            injected_faults: self
                .shared
                .config
                .fault
                .as_ref()
                .map(|plan| plan.fired_count() as u64)
                .unwrap_or(0),
            uptime_millis: self.shared.started.elapsed().as_millis() as u64,
            threads: self.shared.config.threads as u64,
            batch: self.shared.config.batch as u64,
            shards: self.shared.config.shards as u64,
            context_cache,
            action_index: self.shared.rules.action_index().counters(),
            plan_cache_shards,
            action_index_shards: self.shared.rules.action_index().shard_counters(),
        }
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.shared.sessions.len() as usize
    }

    /// Begin shutdown: reject new requests, fail queued work, stop the workers.
    pub fn begin_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Fail every queued item so no waiter hangs.
        let (work, leaves) = {
            let mut sched = self
                .shared
                .sched
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            (
                sched.work.drain(..).collect::<Vec<_>>(),
                sched.leaves.drain(..).collect::<Vec<_>>(),
            )
        };
        self.shared.sched_cv.notify_all();
        for item in work {
            item.ticket.complete(Err(ServeError::ShuttingDown));
        }
        for unit in leaves {
            // Fail the waiting request first (first completion wins), then settle the
            // unit so the window's finalisation restores the session's search invariants
            // (virtual losses reverted, iteration counts unwound).
            unit.window.ticket.complete(Err(ServeError::ShuttingDown));
            unit.window.aborted.store(true, Ordering::Release);
            settle_unit(&self.shared, &unit.window);
        }
    }

    /// Whether shutdown has begun.
    pub fn is_shutdown(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Refuse new requests once shutdown or graceful drain (admission closed, in-flight
    /// work finishing) has begun.
    fn ensure_open(&self) -> Result<(), ServeError> {
        if self.is_shutdown() || self.shared.draining.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        Ok(())
    }

    /// Graceful drain: stop admitting new work, wait (up to `max_wait`) for the scheduler
    /// queues to empty and every in-flight window to finalise, snapshot all sessions,
    /// then shut down and join the workers. Returns how many snapshots were written.
    pub fn drain_and_shutdown(&self, max_wait: Duration) -> usize {
        self.shared.draining.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + max_wait;
        loop {
            let queues_empty = {
                let sched = self
                    .shared
                    .sched
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                sched.work.is_empty() && sched.leaves.is_empty()
            };
            if (queues_empty && self.shared.active_windows.load(Ordering::Acquire) == 0)
                || Instant::now() >= deadline
            {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let written = self.persist_sessions();
        self.begin_shutdown();
        self.join_workers();
        written
    }

    /// Persist one session's snapshot now. A no-op (returning `false`) without a snapshot
    /// dir, for a missing session, while a window is in flight, or when the on-disk
    /// snapshot is already fresh.
    pub fn persist_session(&self, session: u64) -> bool {
        persist_one(&self.shared, session)
    }

    /// Persist every live, quiescent, dirty session; returns how many files were written.
    fn persist_sessions(&self) -> usize {
        self.shared
            .sessions
            .ids()
            .into_iter()
            .filter(|&id| persist_one(&self.shared, id))
            .count()
    }

    /// Reattach a session by id. A live session answers directly (idempotent reattach:
    /// the warm handle is exactly the one the client left). A non-live id restores from
    /// the snapshot store — queries re-parsed and labels re-interned in this process, the
    /// search handle rebuilt at the exact tree/rng/best state it was snapshotted in — so
    /// the restored session continues bit-identically to the uninterrupted run.
    pub fn resume(&self, session: u64) -> Result<SynthesisResult, ServeError> {
        self.ensure_open()?;
        if self.shared.sessions.contains(session) {
            let reward = self.touch(session)?;
            self.shared.total_requests.fetch_add(1, Ordering::Relaxed);
            return self.anytime_result(session, reward);
        }
        let Some(store) = &self.shared.store else {
            return Err(ServeError::UnknownSession(session));
        };
        let snapshot = store
            .load(session)
            .map_err(ServeError::Snapshot)?
            .ok_or(ServeError::UnknownSession(session))?;
        // The full live log round-trips through triage: healthy entries were stored as
        // canonical SQL (they must re-parse — anything else is corruption, since the
        // problem is rebuilt from them), quarantined slots re-quarantine in place.
        let log = LiveLog::from_sources(&snapshot.log);
        let healthy = log.healthy();
        if healthy.len() != snapshot.queries.len() {
            return Err(ServeError::Snapshot(format!(
                "stored log re-triages to {} healthy queries, snapshot recorded {}",
                healthy.len(),
                snapshot.queries.len()
            )));
        }
        if healthy.is_empty() {
            return Err(ServeError::Snapshot(
                "snapshot has no healthy queries".into(),
            ));
        }
        let restored = SearchHandle::restore(self.problem_for(&healthy), snapshot.handle)
            .map_err(ServeError::Snapshot)?;
        let reward = restored.best_reward();
        let iterations = restored.iterations() as u64;
        let state = Session::new(restored, log, snapshot.eval_seed, Some(iterations));
        if !self.insert_session(session, state) {
            // Either the table is genuinely full, or a concurrent resume of this id won
            // the insert race — the latter is a success for this caller too.
            if self.shared.sessions.contains(session) {
                return self.resume(session);
            }
            return Err(ServeError::Busy);
        }
        self.shared.total_requests.fetch_add(1, Ordering::Relaxed);
        self.shared.sessions_resumed.fetch_add(1, Ordering::Relaxed);
        self.anytime_result(session, reward)
    }

    /// Outstanding virtual losses summed over every live session — the chaos tests'
    /// quiescence invariant: exactly zero whenever no window is in flight.
    pub fn outstanding_virtual_loss(&self) -> u64 {
        self.shared
            .sessions
            .ids()
            .into_iter()
            .filter_map(|id| self.shared.sessions.get(id))
            .map(|session| session.lock().handle.outstanding_virtual_loss())
            .sum()
    }

    /// Join the scheduler workers (after [`ServeEngine::begin_shutdown`]).
    pub fn join_workers(&self) {
        let workers: Vec<_> = {
            let mut guard = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
            guard.drain(..).collect()
        };
        for worker in workers {
            let _ = worker.join();
        }
    }

    /// The configuration this engine runs with.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.config
    }

    /// Mark a session as used now and read its best reward: the baseline a response's
    /// `improved` flag compares against.
    fn touch(&self, id: u64) -> Result<f64, ServeError> {
        let session = self.session(id)?;
        let mut guard = session.lock();
        guard.last_touched = Instant::now();
        Ok(guard.handle.best_reward())
    }

    fn session(&self, id: u64) -> Result<Arc<SessionCell>, ServeError> {
        self.shared
            .sessions
            .get(id)
            .ok_or(ServeError::UnknownSession(id))
    }

    /// The shared problem for a query log: sessions over the same (log, screen, sampling
    /// width) reuse one problem — and its context/plan caches — through a weak registry
    /// keyed by that content itself, so distinct logs never share a problem.
    fn problem_for(&self, queries: &[Ast]) -> Arc<InterfaceSearchProblem> {
        let config = &self.shared.config;
        let key = ProblemKey {
            sql: queries.iter().map(print_query).collect(),
            screen: config.screen,
            assignments_per_eval: config.assignments_per_eval,
        };

        // Workspace lock discipline: probe under the lock, build outside it (difftree
        // construction for a large log is real work and must not serialize admission of
        // unrelated sessions or Stats requests), insert with first-insert-wins.
        {
            let registry = self
                .shared
                .problems
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(problem) = registry.get(&key).and_then(Weak::upgrade) {
                return problem;
            }
        }
        let initial = simplified_difftree(queries);
        let problem = Arc::new(InterfaceSearchProblem::with_cache_shards(
            queries.to_vec(),
            initial,
            self.shared.rules.clone(),
            config.screen,
            config.weights,
            config.assignments_per_eval,
            config.shards,
        ));
        let mut registry = self
            .shared
            .problems
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(existing) = registry.get(&key).and_then(Weak::upgrade) {
            return existing;
        }
        registry.insert(key, Arc::downgrade(&problem));
        problem
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.begin_shutdown();
        self.join_workers();
    }
}

/// What one scheduler turn works on.
enum Job {
    /// Open the next window of a session (select/expand up to `batch` leaves).
    Turn(WorkItem),
    /// Evaluate one queued leaf.
    Leaf(EvalUnit),
}

/// One scheduler worker. Workers normally prefer *turns*: opening every runnable session's
/// next window first fills the leaf queue, so a window's leaves wait where every idle
/// worker can take one. After a fruitless turn (the session was busy and the item only
/// rotated), the preference flips for one pick so queued leaves — the only possible
/// progress — drain instead of spinning on blocked turns.
fn worker_loop(shared: &Shared) {
    let mut prefer_leaves = false;
    loop {
        let job = {
            let mut sched = shared.sched.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if !prefer_leaves {
                    if let Some(item) = sched.work.pop_front() {
                        break Job::Turn(item);
                    }
                }
                if let Some(unit) = sched.leaves.pop_front() {
                    break Job::Leaf(unit);
                }
                if let Some(item) = sched.work.pop_front() {
                    break Job::Turn(item);
                }
                sched = shared
                    .sched_cv
                    .wait(sched)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        prefer_leaves = match job {
            Job::Leaf(unit) => {
                // `run_leaf` already fences the reward call; this outer catch is the
                // backstop for everything else in the evaluation path, so no panic —
                // injected or real — ever kills a scheduler worker.
                if catch_unwind(AssertUnwindSafe(|| run_leaf(shared, unit))).is_err() {
                    shared.caught_panics.fetch_add(1, Ordering::Relaxed);
                }
                false
            }
            Job::Turn(item) => {
                // A panic anywhere in the turn (search code under the session lock, or an
                // injected fault) wedges only this turn's session; the worker survives
                // and keeps serving everyone else.
                let session_id = item.session;
                let ticket = Arc::clone(&item.ticket);
                match catch_unwind(AssertUnwindSafe(|| run_turn(shared, item))) {
                    Ok(made_progress) => !made_progress,
                    Err(_) => {
                        quarantine(shared, session_id, &ticket);
                        false
                    }
                }
            }
        };
    }
}

/// Rotate a work item to the back of the queue (its session is busy under another worker
/// or an in-flight window). The brief timed wait when the scheduler is otherwise idle
/// keeps the single-busy-session case from spinning hot while still noticing fresh work
/// immediately.
fn rotate_turn(shared: &Shared, item: WorkItem) {
    let sched = shared.sched.lock().unwrap_or_else(PoisonError::into_inner);
    if shared.shutdown.load(Ordering::SeqCst) {
        drop(sched);
        item.ticket.complete(Err(ServeError::ShuttingDown));
        return;
    }
    let idle = sched.work.is_empty() && sched.leaves.is_empty();
    let mut sched = sched;
    sched.work.push_back(item);
    if idle {
        let _ = shared
            .sched_cv
            .wait_timeout(sched, Duration::from_millis(1))
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// Open the next window of a session: run the select/expand front halves of up to `batch`
/// iterations under the session lock, then release it and enqueue the owed evaluations on
/// the global leaf queue. The session stays usable (snapshots, interactions) while its
/// leaves wait — only the search tree mutation itself is serialised.
fn run_turn(shared: &Shared, item: WorkItem) -> bool {
    let Some(session) = shared.sessions.get(item.session) else {
        // Session closed while queued: the request cannot make progress.
        item.ticket
            .complete(Err(ServeError::UnknownSession(item.session)));
        return true;
    };
    if item.remaining == 0 || Instant::now() >= item.deadline {
        item.ticket.complete(Ok(()));
        return true;
    }
    // Don't sleep on a session another worker is serving — rotate the item and serve
    // someone else (work conservation under concurrent refines of one session).
    let Ok(mut guard) = session.state.try_lock() else {
        rotate_turn(shared, item);
        return false;
    };
    if guard.window_active || guard.edits_waiting > 0 {
        drop(guard);
        rotate_turn(shared, item);
        return false;
    }
    // The deadline is re-measured *after* acquiring the session mutex: blocking behind
    // another worker (or a snapshot) must eat into the request's deadline, not extend it.
    if Instant::now() >= item.deadline {
        drop(guard);
        item.ticket.complete(Ok(()));
        return true;
    }
    // One fault-plan consultation per turn that will actually open a window; claimed here
    // so the injected panic below lands mid-window — leaves begun, virtual losses held,
    // session mutex poisoned on unwind — the worst spot a real panic could pick.
    let fault = shared
        .config
        .fault
        .as_ref()
        .map(|plan| plan.on_turn())
        .unwrap_or_default();

    let width = shared.config.batch.max(1).min(item.remaining as usize);
    let mut pendings = Vec::with_capacity(width);
    for _ in 0..width {
        match guard.handle.begin_iteration() {
            Some(leaf) => pendings.push(leaf),
            None => break,
        }
    }
    if pendings.is_empty() {
        // The session's total budget is exhausted (not reachable with serve's unbounded
        // budgets, but honoured for completeness).
        drop(guard);
        item.ticket.complete(Ok(()));
        return true;
    }
    if fault.panic {
        panic!("injected worker panic (fault plan)");
    }
    guard.window_active = true;
    let problem = Arc::clone(guard.handle.problem());
    drop(guard);
    shared.total_slices.fetch_add(1, Ordering::Relaxed);

    let emitted = pendings.len() as u64;
    let unit_count = pendings
        .iter()
        .map(|leaf| 1 + usize::from(leaf.rollout.is_some()))
        .sum::<usize>();
    let window = Arc::new(Window {
        session_id: item.session,
        session,
        problem,
        deadline: item.deadline,
        remaining_after: item.remaining - emitted,
        ticket: item.ticket,
        slots: Mutex::new(Vec::new()),
        outstanding: AtomicUsize::new(unit_count),
        aborted: AtomicBool::new(false),
    });
    shared.active_windows.fetch_add(1, Ordering::AcqRel);
    if fault.expire {
        // In-queue expiry: the window's leaves are dropped unevaluated and the abort
        // path must restore every invariant (losses reverted, accounting unwound).
        window.aborted.store(true, Ordering::Release);
    }
    let mut units = Vec::with_capacity(unit_count);
    let mut slots = Vec::with_capacity(pendings.len());
    for (slot, leaf) in pendings.into_iter().enumerate() {
        units.push(EvalUnit {
            window: Arc::clone(&window),
            slot,
            kind: LeafKind::Node,
            state: leaf.node_state.clone(),
            seed: leaf.node_seed,
        });
        if let Some((state, seed)) = &leaf.rollout {
            units.push(EvalUnit {
                window: Arc::clone(&window),
                slot,
                kind: LeafKind::Rollout,
                state: state.clone(),
                seed: *seed,
            });
        }
        slots.push(LeafSlot {
            pending: Some(leaf),
            node_reward: None,
            rollout_reward: None,
        });
    }
    *window.slots.lock().unwrap_or_else(PoisonError::into_inner) = slots;

    let enqueued = {
        let mut sched = shared.sched.lock().unwrap_or_else(PoisonError::into_inner);
        if shared.shutdown.load(Ordering::SeqCst) {
            false
        } else {
            sched.leaves.extend(units.drain(..));
            true
        }
    };
    if enqueued {
        shared.sched_cv.notify_all();
    } else {
        // Shutdown raced the enqueue: fail the request and settle every unit locally so
        // the window's finalisation still restores the session's invariants.
        window.ticket.complete(Err(ServeError::ShuttingDown));
        window.aborted.store(true, Ordering::Release);
        for unit in units {
            settle_unit(shared, &unit.window);
        }
    }
    true
}

/// Evaluate one queued leaf and settle it. A unit whose window's deadline has expired — or
/// whose window was already aborted — is dropped unevaluated; otherwise its reward lands in
/// its window's slot.
fn run_leaf(shared: &Shared, unit: EvalUnit) {
    let fault = shared
        .config
        .fault
        .as_ref()
        .and_then(|plan| plan.on_batch());
    if let Some(EvalFault::DelayMillis(ms)) = fault {
        // Injected stall *before* the expiry check: queued deadlines pass while the
        // evaluation sleeps, exercising the in-queue expiry path without killing anything.
        std::thread::sleep(FaultPlan::delay(ms));
    }
    let window = &unit.window;
    if Instant::now() >= window.deadline {
        window.aborted.store(true, Ordering::Release);
    }
    if window.aborted.load(Ordering::Acquire) {
        shared.expired_units.fetch_add(1, Ordering::Relaxed);
        settle_unit(shared, window);
        return;
    }
    // The reward call is fenced: a panic in it (injected or real) aborts this unit's window
    // cleanly — losses reverted, the waiter gets the anytime answer, no session wedged.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if matches!(fault, Some(EvalFault::Fail)) {
            panic!("injected evaluation failure (fault plan)");
        }
        window.problem.reward(&unit.state, unit.seed)
    }));
    match outcome {
        Ok(reward) => {
            let mut slots = window.slots.lock().unwrap_or_else(PoisonError::into_inner);
            let slot = &mut slots[unit.slot];
            match unit.kind {
                LeafKind::Node => slot.node_reward = Some(reward),
                LeafKind::Rollout => slot.rollout_reward = Some(reward),
            }
            shared.leaf_evaluations.fetch_add(1, Ordering::Relaxed);
        }
        Err(_) => {
            shared.caught_panics.fetch_add(1, Ordering::Relaxed);
            window.aborted.store(true, Ordering::Release);
            shared.expired_units.fetch_add(1, Ordering::Relaxed);
        }
    }
    settle_unit(shared, window);
}

/// Mark one owed evaluation of a window as settled; the last one finalises the window.
fn settle_unit(shared: &Shared, window: &Arc<Window>) {
    if window.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
        // Finalisation applies completions through the search code under the session
        // lock; a panic there must not kill the settling worker — quarantine the window's
        // session instead, exactly as for a turn panic.
        if catch_unwind(AssertUnwindSafe(|| finalize_window(shared, window))).is_err() {
            quarantine(shared, window.session_id, &window.ticket);
        }
    }
}

/// Apply a finished window to its session: completions in iteration order (the window
/// barrier that makes the stream deterministic per `(seed, batch)`), or — when the window
/// was aborted — revert every pending leaf so the deadline-expired request neither pays
/// for nor skews the search with evaluations nobody waited for. Then re-queue the
/// request's remainder or complete its ticket.
fn finalize_window(shared: &Shared, window: &Arc<Window>) {
    // Decremented first so the count balances even if applying completions below panics
    // (the catch in `settle_unit` then quarantines the session; the window is still gone).
    shared.active_windows.fetch_sub(1, Ordering::AcqRel);
    let slots: Vec<LeafSlot> =
        std::mem::take(&mut *window.slots.lock().unwrap_or_else(PoisonError::into_inner));
    let mut guard = window.session.lock();
    guard.last_touched = Instant::now();
    if window.aborted.load(Ordering::Acquire) {
        for slot in slots {
            if let Some(leaf) = slot.pending {
                guard.handle.abort_iteration(leaf);
            }
        }
        window.session.end_window(guard);
        shared.expired_windows.fetch_add(1, Ordering::Relaxed);
        // Anytime semantics: a deadline-expired request still gets its best-so-far (a
        // shutdown abort already failed the ticket; first completion wins).
        window.ticket.complete(Ok(()));
        return;
    }

    let completed = slots.len() as u64;
    for slot in slots {
        let leaf = slot.pending.expect("pending leaf settled twice");
        let node_reward = slot.node_reward.expect("live unit evaluated");
        guard
            .handle
            .complete_iteration(leaf, node_reward, slot.rollout_reward);
    }
    let exhausted = guard.handle.is_exhausted();
    window.session.end_window(guard);
    shared
        .total_iterations
        .fetch_add(completed, Ordering::Relaxed);

    if window.remaining_after == 0 || exhausted || Instant::now() >= window.deadline {
        window.ticket.complete(Ok(()));
        return;
    }
    // Round-robin: unfinished requests go to the back so every queued request advances by
    // one window per scheduler round.
    let item = WorkItem {
        session: window.session_id,
        remaining: window.remaining_after,
        deadline: window.deadline,
        ticket: Arc::clone(&window.ticket),
    };
    let mut sched = shared.sched.lock().unwrap_or_else(PoisonError::into_inner);
    if shared.shutdown.load(Ordering::SeqCst) {
        drop(sched);
        window.ticket.complete(Err(ServeError::ShuttingDown));
        return;
    }
    sched.work.push_back(item);
    drop(sched);
    shared.sched_cv.notify_one();
}

/// Quarantine a session whose worker panicked: evict it (its admission slot is reclaimed
/// and no other session is disturbed), clear the window flag for any straggling reader,
/// count it, and fail its waiter with the typed error. The on-disk snapshot, if any, is
/// deliberately *kept*: the client can `resume` from the last good persisted state.
fn quarantine(shared: &Shared, session_id: u64, ticket: &Ticket) {
    shared.caught_panics.fetch_add(1, Ordering::Relaxed);
    if let Some(session) = shared.sessions.remove(session_id) {
        shared.wedged_sessions.fetch_add(1, Ordering::Relaxed);
        session.end_window(session.lock());
    }
    ticket.complete(Err(ServeError::Wedged(session_id)));
}

/// Persist one session if it is live, quiescent (no window in flight — pending leaves
/// hold virtual losses, not a serialisable state) and dirty (its iteration count moved
/// since the last write). Serialisation and the disk write run outside the session lock,
/// so scheduler workers never stall behind IO. Returns whether a file was written.
fn persist_one(shared: &Shared, id: u64) -> bool {
    let Some(store) = &shared.store else {
        return false;
    };
    let Some(session) = shared.sessions.get(id) else {
        return false;
    };
    let snapshot = {
        let guard = session.lock();
        if guard.window_active {
            // The next maintenance tick (or the drain loop, which waits for windows to
            // finalise first) retries.
            return false;
        }
        let iterations = guard.handle.iterations() as u64;
        if guard.snapshotted_iterations == Some(iterations) {
            return false;
        }
        SessionSnapshot {
            format_version: SNAPSHOT_FORMAT_VERSION,
            session: id,
            queries: guard
                .handle
                .problem()
                .queries()
                .iter()
                .map(print_query)
                .collect(),
            log: guard.log.sources(),
            eval_seed: guard.eval_seed,
            handle: guard.handle.snapshot(),
        }
    };
    let iterations = snapshot.handle.iterations;
    match store.save(&snapshot) {
        Ok(()) => {
            // Marked only after the rename committed; record what the file actually
            // holds, so a request that advanced the handle meanwhile stays dirty.
            session.lock().snapshotted_iterations = Some(iterations);
            shared.snapshots_written.fetch_add(1, Ordering::Relaxed);
            true
        }
        Err(_) => false,
    }
}

/// The maintenance thread: periodic dirty-session snapshots and idle-session reaping.
/// Runs on a fine (50 ms) tick so engine shutdown is prompt regardless of the configured
/// cadences.
fn maintenance_loop(shared: &Shared) {
    let interval = Duration::from_millis(shared.config.snapshot_interval_millis.max(1));
    let idle_cap = shared.config.idle_session_millis;
    let mut last_sweep = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(50));
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let snapshot_due = shared.store.is_some() && last_sweep.elapsed() >= interval;
        if snapshot_due {
            last_sweep = Instant::now();
        }
        if !snapshot_due && idle_cap == 0 {
            continue;
        }
        for id in shared.sessions.ids() {
            let Some(session) = shared.sessions.get(id) else {
                continue;
            };
            let idle = {
                let guard = session.lock();
                if guard.window_active {
                    continue;
                }
                idle_cap > 0 && guard.last_touched.elapsed() >= Duration::from_millis(idle_cap)
            };
            if snapshot_due || idle {
                persist_one(shared, id);
            }
            if idle {
                // Reap: the warm tree leaves memory and the admission slot frees up; with
                // a store configured the session stays resumable from its snapshot.
                if shared.sessions.remove(id).is_some() {
                    shared.reaped_sessions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_problem_registry_is_keyed_by_log_content() {
        let engine = ServeEngine::start(ServeConfig::quick().with_threads(1));
        let log = |sql: &[&str]| -> Vec<Ast> {
            sql.iter()
                .map(|q| parse_query(q).expect("test query parses"))
                .collect()
        };
        let first = log(&["select a from t", "select b from t"]);
        let second = log(&["select a from t", "select c from t"]);

        let shared = engine.problem_for(&first);
        assert!(Arc::ptr_eq(&shared, &engine.problem_for(&first.clone())));
        let other = engine.problem_for(&second);
        assert!(!Arc::ptr_eq(&shared, &other));
        assert_eq!(other.queries(), &second[..]);

        // Dropping the last reference frees the problem; stats prune its entry.
        drop(other);
        engine.stats();
        assert_eq!(engine.shared.problems.lock().unwrap().len(), 1);
    }
}
