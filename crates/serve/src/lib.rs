//! `mctsui_serve`: the multi-session anytime synthesis service.
//!
//! PRs 1–4 made a *single* synthesis run fast; this crate makes many of them share a
//! machine. A [`ServeEngine`] multiplexes concurrent user sessions onto a small scheduler
//! worker pool:
//!
//! * each session's search is **resumable** — a warm
//!   [`SearchHandle`](mctsui_mcts::SearchHandle) whose tree and rng stream survive between
//!   requests, so `refine` continues instead of restarting (and therefore never loses
//!   ground: best rewards are monotone per session);
//! * the **admission scheduler** clamps per-request budgets and deadlines, caps live
//!   sessions, and time-slices admitted work round-robin so no session starves another;
//! * **shared caches** cross sessions: one global rule-binding index, and per-log
//!   context/plan caches shared by every session over the same query log;
//! * responses are **anytime**: when the budget or deadline runs out, the best interface
//!   known now is returned, described in the workspace-wide
//!   [`InterfaceDescription`](mctsui_core::InterfaceDescription) encoding;
//! * the wire protocol is newline-delimited JSON over TCP ([`proto`]), served by
//!   [`server::serve`] and spoken by [`client::Client`].
//!
//! This layer is also **fault-hardened**: a worker panic quarantines only the session it
//! was serving (everyone else keeps serving), sessions snapshot to disk and resume
//! bit-identically after a restart ([`snapshot`]), sockets carry explicit timeouts and a
//! frame-size cap, and a seeded [`FaultPlan`] drives deterministic chaos tests asserting
//! exact invariants at quiescence.
//!
//! ```no_run
//! use mctsui_serve::{ServeConfig, ServeEngine};
//! use mctsui_sql::parse_query;
//!
//! let engine = ServeEngine::start(ServeConfig::quick());
//! let queries = vec![parse_query("SELECT a FROM t").unwrap()];
//! let opened = engine.synthesize(queries, 200, 1_000, 42).unwrap();
//! let refined = engine.refine(opened.session, 200, 1_000).unwrap();
//! assert!(refined.best.reward >= opened.best.reward);
//! ```

pub mod client;
pub mod engine;
pub mod fault;
pub mod proto;
pub mod server;
pub mod snapshot;

pub use client::{
    run_concurrent_sessions, run_resume_session, run_scripted_session, Backoff, Client,
    ClientError, ScriptConfig, ScriptReport,
};
pub use engine::{LogEditResult, ServeConfig, ServeEngine, ServeError, SynthesisResult};
pub use fault::{EvalFault, FaultPlan, TurnFault};
pub use proto::{
    BestReport, EngineStatsReport, Frame, QueryDiagnostic, Request, Response, SessionLogStat,
    WidgetAction, MAX_REQUEST_FRAME_BYTES, MAX_RESPONSE_FRAME_BYTES,
};
pub use server::{dispatch, serve, serve_on};
pub use snapshot::{SessionSnapshot, SnapshotStore, SNAPSHOT_FORMAT_VERSION};
