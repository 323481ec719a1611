//! The wire protocol of `mctsui serve`: newline-delimited JSON over TCP.
//!
//! Every request and every response is one JSON value on one line (NDJSON). The encoding is
//! the workspace serde shim's: a payload-carrying enum variant is a single-entry object
//! `{"Variant": {...fields...}}`, a unit variant is the bare string `"Variant"`. Example
//! session:
//!
//! ```text
//! → {"Synthesize":{"queries":["SELECT a FROM t"],"iterations":200,"deadline_millis":1000,"seed":42}}
//! ← {"Synthesized":{"session":1,"best":{...},"interface":{...}}}
//! → {"Refine":{"session":1,"iterations":200,"deadline_millis":1000}}
//! ← {"Refined":{"session":1,"best":{...},"improved":true,"interface":{...}}}
//! → {"Interact":{"session":1,"action":{"Select":{"path":[0,1],"pick":2}}}}
//! ← {"Interacted":{"session":1,"sql":"SELECT ..."}}
//! → {"Append":{"session":1,"query":"SELECT b FROM t"}}
//! ← {"Appended":{"session":1,"best":{...},"interface":{...},"log_len":2,"healthy_len":2,...}}
//! → {"Retract":{"session":1,"index":0}}
//! ← {"Retracted":{"session":1,"best":{...},"interface":{...},"log_len":1,"healthy_len":1,...}}
//! → {"Resume":{"session":1}}
//! ← {"Resumed":{"session":1,"best":{...},"interface":{...}}}
//! → "Stats"
//! ← {"Stats":{...}}
//! → "Shutdown"
//! ← "ShuttingDown"
//! ```
//!
//! Responses for `Synthesize`/`Refine` carry the **anytime** answer: the best interface
//! known when the request's budget or deadline ran out. `Refine` on the same session
//! continues the session's warm search tree, so its `best.reward` never decreases.
//! `Resume` reattaches a session after a dropped connection or a server restart (from the
//! server's snapshot store) and returns its current best without running new search.
//!
//! Failures are typed: an `Error` response carries a stable machine-readable `code`
//! (`"busy"`, `"unknown_session"`, `"wedged"`, `"frame_too_large"`, …) for clients to
//! branch on, plus the human-readable `message`. Lines are length-capped on both sides
//! (`read_frame`): a peer sending an overlong line gets `"frame_too_large"` instead of
//! growing the reader's buffer without bound.

use std::io::{self, BufRead};

use serde::{Deserialize, Serialize};

use mctsui_core::InterfaceDescription;
use mctsui_cost::ContextCacheStats;
use mctsui_difftree::CacheCounters;

/// A client request (one JSON line).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Open a session for a query log and run the initial search slice. `iterations == 0`
    /// uses the server's default request budget; `deadline_millis == 0` uses the server's
    /// maximum. `seed` makes the session's search stream deterministic (every value,
    /// including 0, is honoured as given).
    Synthesize {
        /// The query log, one SQL statement per entry.
        queries: Vec<String>,
        /// Requested search iterations for this request (admission-clamped).
        iterations: u64,
        /// Wall-clock deadline for this request in milliseconds (admission-clamped).
        deadline_millis: u64,
        /// RNG seed of the session's search.
        seed: u64,
    },
    /// Continue an existing session's search (warm tree, same rng stream).
    Refine {
        /// Session id returned by `Synthesize`.
        session: u64,
        /// Requested additional iterations (admission-clamped).
        iterations: u64,
        /// Wall-clock deadline in milliseconds (admission-clamped).
        deadline_millis: u64,
    },
    /// Drive a widget of the session's current best interface and get the re-derived SQL.
    Interact {
        /// Session id.
        session: u64,
        /// The widget interaction to apply.
        action: WidgetAction,
    },
    /// Append one query to a live session's log. The query is triaged leniently exactly
    /// like admission: a clean parse grafts the new leaf into the session's maintained
    /// difftree and re-roots the warm search tree onto the extended problem in O(change)
    /// (visit statistics kept, caches shared); a malformed query occupies a quarantined
    /// log slot — reported in the response diagnostics — and leaves the search untouched.
    /// Servers running `--strict` reject malformed appends instead.
    Append {
        /// Session id.
        session: u64,
        /// The SQL statement to append.
        query: String,
    },
    /// Retract the session's log entry at `index` (0-based over the full log, quarantined
    /// slots included). Retracting a healthy query re-roots the warm search tree onto the
    /// narrowed problem; retracting a quarantined slot just frees the slot and clears its
    /// diagnostics. Retracting the last healthy query is rejected (`"no_queries"`).
    Retract {
        /// Session id.
        session: u64,
        /// 0-based index into the session's full log.
        index: u64,
    },
    /// Engine-wide statistics (sessions, scheduler, shared-cache counters).
    Stats,
    /// Reattach a session after a dropped connection or a server restart. Answers with
    /// the session's current best (live sessions reattach warm; non-live ids restore from
    /// the server's snapshot store, continuing bit-identically afterwards).
    Resume {
        /// Session id to reattach.
        session: u64,
    },
    /// Drop a session and free its search tree.
    Close {
        /// Session id.
        session: u64,
    },
    /// Stop the server: responds, then stops accepting connections and joins the workers.
    Shutdown,
}

/// A widget interaction, addressed by the difftree path of the widget's choice node (the
/// `path` field of the interface description's choice entries).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WidgetAction {
    /// Pick option `pick` of the `Any` choice at `path` (dropdown/radio/buttons).
    Select {
        /// Difftree path of the choice node.
        path: Vec<usize>,
        /// Selected option index.
        pick: usize,
    },
    /// Include or exclude the `Opt` choice at `path` (toggle/checkbox).
    Toggle {
        /// Difftree path of the choice node.
        path: Vec<usize>,
        /// Whether the optional subtree is included.
        included: bool,
    },
    /// Set the repetition count of the `Multi` choice at `path` (adder).
    Repeat {
        /// Difftree path of the choice node.
        path: Vec<usize>,
        /// New repetition count.
        count: usize,
    },
    /// Jump the whole interface to a query (as a "replay this log entry" button would).
    Jump {
        /// The SQL statement to jump to (must be expressible by the interface).
        query: String,
    },
}

/// One per-query diagnostic of a degraded `Synthesize` log, addressed by the index of the
/// query in the submitted log. Queries flagged `quarantined` were excluded from synthesis;
/// the session's interface covers the remaining (healthy) queries exactly as if the
/// quarantined ones had never been submitted. Servers running `--strict` never emit these:
/// they reject the whole request on the first bad query instead.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryDiagnostic {
    /// Index of the query in the submitted log.
    pub index: u64,
    /// Byte offset of the problem within that query's text.
    pub offset: u64,
    /// Human-readable description of what went wrong.
    pub message: String,
    /// Whether the diagnostic disqualified the query from synthesis.
    pub quarantined: bool,
}

/// One live session's log size, reported by `Stats` (the serving layer's view of the
/// live-maintenance subsystem: how long each session's log has grown and how much of it
/// is quarantined).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionLogStat {
    /// Session id.
    pub session: u64,
    /// Total log entries (quarantined slots included).
    pub entries: u64,
    /// Quarantined slots among them.
    pub quarantined: u64,
}

/// The anytime best-so-far summary of one session's search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BestReport {
    /// Best reward found so far (negated interface cost; monotone across refines).
    pub reward: f64,
    /// Total cost of the reported best interface.
    pub cost_total: f64,
    /// Search iterations completed by this session so far (across all requests).
    pub iterations: u64,
    /// Reward evaluations performed by this session so far.
    pub evaluations: u64,
    /// Nodes materialised in the session's search tree.
    pub tree_nodes: u64,
    /// Whether the session's total search budget is exhausted.
    pub exhausted: bool,
}

/// Engine-wide statistics (the `Stats` response payload).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineStatsReport {
    /// Live sessions.
    pub sessions: u64,
    /// High-water mark of live sessions.
    pub peak_sessions: u64,
    /// Admitted work items (session windows owed a turn) currently queued.
    pub queue_depth: u64,
    /// Pending leaf evaluations currently queued for batching.
    pub leaf_queue_depth: u64,
    /// Requests admitted since startup (synthesize + refine + interact).
    pub total_requests: u64,
    /// Search iterations executed since startup, summed over all sessions.
    pub total_iterations: u64,
    /// Scheduler slices (select/expand windows) executed since startup.
    pub total_slices: u64,
    /// Batched evaluation calls executed since startup.
    pub total_batches: u64,
    /// Leaf evaluations settled through batched calls since startup.
    pub total_batched_units: u64,
    /// Largest single batched evaluation call so far.
    pub max_batch: u64,
    /// Mean leaf evaluations per batched call (`0` before the first batch).
    pub mean_batch: f64,
    /// Leaf evaluations that shared their batch with at least one other unit of the same
    /// compiled plan (the cross-session amortisation the batching scheduler exists for).
    pub batch_group_hits: u64,
    /// `batch_group_hits / total_batched_units` in `[0, 1]` (`0` before the first batch).
    pub batch_group_hit_ratio: f64,
    /// Windows aborted before evaluation (request deadline expired while its leaves were
    /// queued, or engine shutdown) — their virtual losses were reverted, not evaluated.
    pub expired_windows: u64,
    /// Queued leaf evaluations dropped unevaluated by aborted windows.
    pub expired_units: u64,
    /// Sessions quarantined after a worker panic (evicted; their waiters got `wedged`).
    pub wedged_sessions: u64,
    /// Worker panics caught and contained (turn, finalisation and evaluation-kernel).
    pub caught_panics: u64,
    /// Session snapshot files written (periodic, idle and drain sweeps).
    pub snapshots_written: u64,
    /// Sessions restored from the snapshot store via `Resume`.
    pub sessions_resumed: u64,
    /// Queries quarantined at admission (unparseable entries of otherwise-served logs).
    pub quarantined_queries: u64,
    /// Queries appended to live sessions since startup (healthy and quarantined alike).
    pub appended_queries: u64,
    /// Log entries retracted from live sessions since startup.
    pub retracted_queries: u64,
    /// Warm search trees re-rooted onto an updated problem by a live append or retract.
    pub rebased_handles: u64,
    /// Per-session log sizes of the live sessions, sorted by session id.
    pub session_logs: Vec<SessionLogStat>,
    /// Idle sessions evicted (snapshotted first, when a store is configured).
    pub reaped_sessions: u64,
    /// Faults fired by the configured fault plan so far (`0` without a plan).
    pub injected_faults: u64,
    /// Milliseconds since engine startup.
    pub uptime_millis: u64,
    /// Scheduler worker threads.
    pub threads: u64,
    /// Configured batch width (max leaves per window and per batched call).
    pub batch: u64,
    /// Configured shard count (session table and per-log caches).
    pub shards: u64,
    /// Counters of the shared per-log context/plan caches, summed over live query logs.
    pub context_cache: ContextCacheStats,
    /// Counters of the global rule-binding cache (shared by every session).
    pub action_index: CacheCounters,
    /// Per-shard counters of the per-log compiled-plan caches (element-wise sums over
    /// live query logs; shard balance of the batching scheduler's hottest cache).
    pub plan_cache_shards: Vec<CacheCounters>,
    /// Per-shard counters of the global rule-binding cache.
    pub action_index_shards: Vec<CacheCounters>,
}

/// A server response (one JSON line).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Session opened; the anytime result of the initial search slice.
    Synthesized {
        /// The new session's id (pass to `Refine`/`Interact`/`Close`).
        session: u64,
        /// Best-so-far search summary.
        best: BestReport,
        /// The best interface found so far.
        interface: InterfaceDescription,
        /// Per-query diagnostics of the submitted log (empty when every query parsed).
        diagnostics: Vec<QueryDiagnostic>,
    },
    /// The anytime result after more search on a warm session.
    Refined {
        /// Session id.
        session: u64,
        /// Best-so-far search summary (`reward` never decreases across refines).
        best: BestReport,
        /// Whether this request improved on the session's previous best.
        improved: bool,
        /// The best interface found so far.
        interface: InterfaceDescription,
        /// The session's admission diagnostics, echoed on every refine.
        diagnostics: Vec<QueryDiagnostic>,
    },
    /// A widget interaction was applied; `sql` is the re-derived query.
    Interacted {
        /// Session id.
        session: u64,
        /// The SQL the visualization panel would now execute.
        sql: String,
    },
    /// A query was appended to the session's log; the anytime result over the updated
    /// problem (no new search was run — `Refine` continues the rebased warm tree).
    Appended {
        /// Session id.
        session: u64,
        /// Best-so-far summary of the rebased search (the best record restarts from the
        /// updated problem's root, so it is *not* comparable to pre-append rewards).
        best: BestReport,
        /// The best interface found so far over the updated log.
        interface: InterfaceDescription,
        /// The session's refreshed per-query diagnostics (all quarantined slots).
        diagnostics: Vec<QueryDiagnostic>,
        /// Total log length after the append (quarantined slots included).
        log_len: u64,
        /// Healthy queries after the append.
        healthy_len: u64,
    },
    /// A log entry was retracted; the anytime result over the updated problem.
    Retracted {
        /// Session id.
        session: u64,
        /// Best-so-far summary of the (possibly rebased) search.
        best: BestReport,
        /// The best interface found so far over the updated log.
        interface: InterfaceDescription,
        /// The session's refreshed per-query diagnostics (all quarantined slots).
        diagnostics: Vec<QueryDiagnostic>,
        /// Total log length after the retract.
        log_len: u64,
        /// Healthy queries after the retract.
        healthy_len: u64,
    },
    /// Engine statistics.
    Stats(EngineStatsReport),
    /// A session was reattached (warm, or restored from the snapshot store); its current
    /// best, with no new search run.
    Resumed {
        /// Session id.
        session: u64,
        /// Best-so-far search summary at the reattach point.
        best: BestReport,
        /// The best interface found so far.
        interface: InterfaceDescription,
    },
    /// The session was dropped.
    Closed {
        /// Session id.
        session: u64,
    },
    /// Shutdown acknowledged; the server stops accepting connections.
    ShuttingDown,
    /// The request failed; the connection stays usable.
    Error {
        /// Stable machine-readable failure code (`"busy"`, `"unknown_session"`,
        /// `"wedged"`, `"frame_too_large"`, …) — what clients branch on.
        code: String,
        /// Human-readable failure description.
        message: String,
    },
}

/// Encode one protocol value as its NDJSON line (no trailing newline).
pub fn encode_line<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap_or_else(|e| {
        // Degrade to a properly encoded Error response — never hand-built JSON, so the
        // line stays parseable whatever the failure message contains.
        serde_json::to_string(&Response::Error {
            code: "internal".into(),
            message: format!("response encoding failed: {e}"),
        })
        .unwrap_or_else(|_| {
            r#"{"Error":{"code":"internal","message":"response encoding failed"}}"#.to_string()
        })
    })
}

/// Decode one NDJSON line into a protocol value.
pub fn decode_line<T: Deserialize>(line: &str) -> Result<T, String> {
    serde_json::from_str(line).map_err(|e| e.to_string())
}

/// Cap on request lines the server reads (the engine's `max_frame_bytes` default).
pub const MAX_REQUEST_FRAME_BYTES: usize = 1 << 20;

/// Cap on response lines the client reads. Larger than the request cap: responses carry
/// whole interface descriptions, requests only query logs.
pub const MAX_RESPONSE_FRAME_BYTES: usize = 8 << 20;

/// One NDJSON frame read by `read_frame`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A complete line, without the trailing newline (a trailing `\r` is also stripped).
    Line(String),
    /// Clean end of stream before any byte of a further line.
    Eof,
    /// The line exceeded the cap. Its remainder was discarded up to and including the
    /// next newline, so the stream stays frame-aligned and the connection stays usable.
    Oversized,
}

/// Read one newline-terminated frame with a hard byte cap — the replacement for
/// `BufRead::read_line`, whose buffer grows as large as the peer cares to send. Works the
/// underlying `fill_buf`/`consume` pair directly so an oversized line is *discarded*
/// chunk-by-chunk, never accumulated. A final unterminated line before EOF is delivered
/// as a normal [`Frame::Line`].
pub(crate) fn read_frame<R: BufRead>(reader: &mut R, cap: usize) -> io::Result<Frame> {
    let mut line: Vec<u8> = Vec::new();
    let mut overflowed = false;
    loop {
        let available = reader.fill_buf()?;
        let newline = available.iter().position(|&b| b == b'\n');
        let eof = available.is_empty();
        let take = newline.unwrap_or(available.len());
        if !overflowed {
            if line.len() + take > cap {
                overflowed = true;
                line.clear();
            } else {
                line.extend_from_slice(&available[..take]);
            }
        }
        let consumed = match newline {
            Some(at) => at + 1,
            None => available.len(),
        };
        reader.consume(consumed);
        if newline.is_some() || eof {
            if overflowed {
                return Ok(Frame::Oversized);
            }
            if eof && line.is_empty() {
                return Ok(Frame::Eof);
            }
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            let text = String::from_utf8(line)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            return Ok(Frame::Line(text));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let requests = vec![
            Request::Synthesize {
                queries: vec!["SELECT a FROM t".into()],
                iterations: 100,
                deadline_millis: 500,
                seed: 42,
            },
            Request::Refine {
                session: 3,
                iterations: 50,
                deadline_millis: 100,
            },
            Request::Interact {
                session: 3,
                action: WidgetAction::Select {
                    path: vec![0, 1],
                    pick: 2,
                },
            },
            Request::Interact {
                session: 3,
                action: WidgetAction::Jump {
                    query: "SELECT a FROM t".into(),
                },
            },
            Request::Append {
                session: 3,
                query: "SELECT b FROM t".into(),
            },
            Request::Retract {
                session: 3,
                index: 1,
            },
            Request::Stats,
            Request::Resume { session: 3 },
            Request::Close { session: 3 },
            Request::Shutdown,
        ];
        for request in requests {
            let line = encode_line(&request);
            assert!(!line.contains('\n'), "NDJSON lines must be single-line");
            let back: Request = serde_json::from_str(&line).expect("round trip");
            assert_eq!(back, request);
        }
    }

    #[test]
    fn responses_round_trip() {
        let response = Response::Refined {
            session: 9,
            best: BestReport {
                reward: -12.5,
                cost_total: 12.5,
                iterations: 300,
                evaluations: 900,
                tree_nodes: 250,
                exhausted: false,
            },
            improved: true,
            interface: sample_interface(),
            diagnostics: Vec::new(),
        };
        let line = encode_line(&response);
        let back: Response = serde_json::from_str(&line).expect("round trip");
        assert_eq!(back, response);

        let appended = Response::Appended {
            session: 9,
            best: BestReport {
                reward: -9.25,
                cost_total: 9.25,
                iterations: 80,
                evaluations: 200,
                tree_nodes: 61,
                exhausted: false,
            },
            interface: sample_interface(),
            diagnostics: vec![QueryDiagnostic {
                index: 2,
                offset: 0,
                message: "expected SELECT or WITH".into(),
                quarantined: true,
            }],
            log_len: 3,
            healthy_len: 2,
        };
        let back: Response = serde_json::from_str(&encode_line(&appended)).expect("round trip");
        assert_eq!(back, appended);

        let error = Response::Error {
            code: "unknown_session".into(),
            message: "unknown session 7".into(),
        };
        let back: Response = serde_json::from_str(&encode_line(&error)).expect("round trip");
        assert_eq!(back, error);
    }

    #[test]
    fn query_diagnostics_round_trip() {
        let response = Response::Synthesized {
            session: 4,
            best: BestReport {
                reward: -3.0,
                cost_total: 3.0,
                iterations: 10,
                evaluations: 30,
                tree_nodes: 12,
                exhausted: false,
            },
            interface: sample_interface(),
            diagnostics: vec![
                QueryDiagnostic {
                    index: 1,
                    offset: 7,
                    message: "unexpected character `@`".into(),
                    quarantined: true,
                },
                QueryDiagnostic {
                    index: 3,
                    offset: 0,
                    message: "expected SELECT or WITH".into(),
                    quarantined: true,
                },
            ],
        };
        let line = encode_line(&response);
        assert!(!line.contains('\n'), "NDJSON lines must be single-line");
        let back: Response = serde_json::from_str(&line).expect("round trip");
        assert_eq!(back, response);
    }

    #[test]
    fn frames_respect_the_byte_cap() {
        use std::io::BufReader;

        // Two clean lines, then EOF.
        let mut reader = BufReader::new(&b"alpha\nbeta\r\n"[..]);
        assert_eq!(
            read_frame(&mut reader, 64).unwrap(),
            Frame::Line("alpha".into())
        );
        assert_eq!(
            read_frame(&mut reader, 64).unwrap(),
            Frame::Line("beta".into())
        );
        assert_eq!(read_frame(&mut reader, 64).unwrap(), Frame::Eof);

        // An oversized line is discarded without accumulation and the stream stays
        // aligned: the following frame reads normally.
        let mut big = vec![b'x'; 1000];
        big.push(b'\n');
        big.extend_from_slice(b"after\n");
        // A tiny BufReader capacity forces the chunk-by-chunk discard path.
        let mut reader = BufReader::with_capacity(16, &big[..]);
        assert_eq!(read_frame(&mut reader, 100).unwrap(), Frame::Oversized);
        assert_eq!(
            read_frame(&mut reader, 100).unwrap(),
            Frame::Line("after".into())
        );

        // A final unterminated line is still delivered; a line exactly at the cap fits.
        let mut reader = BufReader::new(&b"12345"[..]);
        assert_eq!(
            read_frame(&mut reader, 5).unwrap(),
            Frame::Line("12345".into())
        );
        assert_eq!(read_frame(&mut reader, 5).unwrap(), Frame::Eof);
    }

    fn sample_interface() -> InterfaceDescription {
        use mctsui_core::{GeneratorConfig, InterfaceGenerator};
        use mctsui_sql::parse_query;
        use mctsui_widgets::Screen;
        let queries = vec![
            parse_query("SELECT Sales FROM sales WHERE cty = 'USA'").unwrap(),
            parse_query("SELECT Costs FROM sales").unwrap(),
        ];
        let interface =
            InterfaceGenerator::new(queries, GeneratorConfig::quick(Screen::wide())).generate();
        InterfaceDescription::of(&interface)
    }
}
