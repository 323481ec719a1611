//! Deterministic fault injection for the serving layer.
//!
//! The chaos harness of this crate follows the black-box methodology of the
//! snapshot-isolation checkers (PAPERS.md): rather than trusting the recovery code, inject
//! faults at seeded, reproducible points and check the recorded behaviour against exact
//! invariants at quiescence. A [`FaultPlan`] is the injection half: a set of trigger points
//! counted in *logical* time (worker turns started, evaluation batches run, connections
//! accepted), so a plan fires at the same logical instant on every run regardless of thread
//! interleaving. The engine and server consult the plan at the matching sites; a `None`
//! plan (the default) compiles to a no-op check per site.
//!
//! Plans come from test code (built directly) or from the CLI as a compact spec string, so
//! CI smoke jobs can run a release binary under faults:
//!
//! ```text
//! panic@5,panic@9,evalfail@3,evaldelay@7:25,expire@4,drop@2,drop@3
//! ```
//!
//! means: panic the worker turn numbered 5 and 9, fail the 3rd evaluation batch, delay the
//! 7th by 25 ms, force-expire the window of turn 4, and sever connections 2 and 3.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// What an injected evaluation fault does to the batch it hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalFault {
    /// Panic inside the evaluation call (the batch spans coalesced windows of possibly
    /// several sessions; the engine must abort them all cleanly, wedging nobody).
    Fail,
    /// Sleep this many milliseconds before evaluating — long enough for in-queue deadlines
    /// to expire, exercising the abort path without killing anything.
    DelayMillis(u64),
}

/// A seeded, reproducible schedule of injected faults, counted in logical time.
///
/// All counters are global across threads (turn numbers are claimed with a single atomic),
/// so a plan names faults by *the n-th turn/batch/connection engine-wide*, not per worker.
/// Every consultation site is a cheap atomic increment plus a lookup in a small immutable
/// map; an engine configured without a plan skips even that.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Turn numbers (1-based, in claim order) whose worker panics mid-window, after
    /// beginning iterations but before completing any — the worst spot: virtual losses
    /// held, session lock poisoned.
    panic_turns: Vec<u64>,
    /// Turn numbers whose window is forced to expire in-queue (as if its deadline passed).
    expire_turns: Vec<u64>,
    /// Evaluation batch numbers (1-based) → the fault to apply.
    eval_faults: BTreeMap<u64, EvalFault>,
    /// Connection numbers (1-based, in accept order) severed immediately after accept.
    drop_connections: Vec<u64>,
    /// Turns started engine-wide (shared by panic and expire triggers).
    turn_counter: AtomicU64,
    /// Evaluation batches run engine-wide.
    batch_counter: AtomicU64,
    /// Connections accepted server-wide.
    connection_counter: AtomicU64,
    /// Human-readable log of every fault actually fired, in fire order.
    fired: Mutex<Vec<String>>,
}

impl FaultPlan {
    /// An empty plan (injects nothing; counters still tick).
    pub fn new() -> Self {
        Self::default()
    }

    /// Panic the worker that claims turn number `turn` (1-based).
    pub fn panic_at_turn(mut self, turn: u64) -> Self {
        self.panic_turns.push(turn);
        self
    }

    /// Force the window of turn number `turn` to expire in-queue.
    pub fn expire_at_turn(mut self, turn: u64) -> Self {
        self.expire_turns.push(turn);
        self
    }

    /// Apply `fault` to evaluation batch number `batch` (1-based).
    pub fn eval_fault_at(mut self, batch: u64, fault: EvalFault) -> Self {
        self.eval_faults.insert(batch, fault);
        self
    }

    /// Sever connection number `conn` (1-based, accept order) right after accept.
    pub fn drop_connection(mut self, conn: u64) -> Self {
        self.drop_connections.push(conn);
        self
    }

    /// Parse the compact CLI spec (see the module docs). Entries are comma-separated;
    /// unknown kinds or malformed numbers are errors, an empty spec is the empty plan.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (kind, at) = entry
                .split_once('@')
                .ok_or_else(|| format!("fault entry `{entry}` is missing `@<n>`"))?;
            let parse_u64 = |s: &str| {
                s.parse::<u64>()
                    .map_err(|_| format!("bad number `{s}` in fault entry `{entry}`"))
            };
            match kind {
                "panic" => plan = plan.panic_at_turn(parse_u64(at)?),
                "expire" => plan = plan.expire_at_turn(parse_u64(at)?),
                "drop" => plan = plan.drop_connection(parse_u64(at)?),
                "evalfail" => plan = plan.eval_fault_at(parse_u64(at)?, EvalFault::Fail),
                "evaldelay" => {
                    let (batch, ms) = at.split_once(':').ok_or_else(|| {
                        format!("evaldelay entry `{entry}` needs `@<batch>:<millis>`")
                    })?;
                    plan = plan
                        .eval_fault_at(parse_u64(batch)?, EvalFault::DelayMillis(parse_u64(ms)?));
                }
                other => return Err(format!("unknown fault kind `{other}` in `{entry}`")),
            }
        }
        Ok(plan)
    }

    /// Claim the next turn number and report whether this turn must (panic, expire).
    /// Called by the engine once per worker turn, before any iteration begins.
    pub(crate) fn on_turn(&self) -> TurnFault {
        let turn = self.turn_counter.fetch_add(1, Ordering::Relaxed) + 1;
        let fault = TurnFault {
            panic: self.panic_turns.contains(&turn),
            expire: self.expire_turns.contains(&turn),
        };
        if fault.panic {
            self.record(format!("panic@turn {turn}"));
        }
        if fault.expire {
            self.record(format!("expire@turn {turn}"));
        }
        fault
    }

    /// Claim the next evaluation batch number and return the fault to apply, if any. The
    /// caller sleeps on [`EvalFault::DelayMillis`] and panics on [`EvalFault::Fail`].
    pub(crate) fn on_batch(&self) -> Option<EvalFault> {
        let batch = self.batch_counter.fetch_add(1, Ordering::Relaxed) + 1;
        let fault = self.eval_faults.get(&batch).copied();
        match fault {
            Some(EvalFault::Fail) => self.record(format!("evalfail@batch {batch}")),
            Some(EvalFault::DelayMillis(ms)) => {
                self.record(format!("evaldelay@batch {batch} ({ms} ms)"))
            }
            None => {}
        }
        fault
    }

    /// Claim the next connection number; `true` means the server must sever it now.
    pub(crate) fn on_connection(&self) -> bool {
        let conn = self.connection_counter.fetch_add(1, Ordering::Relaxed) + 1;
        let drop = self.drop_connections.contains(&conn);
        if drop {
            self.record(format!("drop@connection {conn}"));
        }
        drop
    }

    /// The sleep for a [`EvalFault::DelayMillis`], as a [`Duration`].
    pub fn delay(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    /// Faults fired so far, in fire order (for logs and test assertions).
    pub fn fired(&self) -> Vec<String> {
        self.fired
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Total faults fired so far.
    pub(crate) fn fired_count(&self) -> usize {
        self.fired
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    fn record(&self, what: String) {
        self.fired
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(what);
    }
}

/// What `FaultPlan::on_turn` tells the worker to do with the turn it just claimed.
#[derive(Debug, Clone, Copy, Default)]
pub struct TurnFault {
    /// Panic mid-window (after beginning iterations, before completing any).
    pub panic: bool,
    /// Force the window's deadline to be treated as already expired in-queue.
    pub expire: bool,
}

#[cfg(test)]
mod tests {
    use super::{EvalFault, FaultPlan};

    #[test]
    fn parses_the_compact_spec() {
        let plan = FaultPlan::parse("panic@5,panic@9,evalfail@3,evaldelay@7:25,expire@4,drop@2")
            .expect("spec parses");
        assert_eq!(plan.panic_turns, vec![5, 9]);
        assert_eq!(plan.expire_turns, vec![4]);
        assert_eq!(plan.drop_connections, vec![2]);
        assert_eq!(plan.eval_faults.get(&3), Some(&EvalFault::Fail));
        assert_eq!(plan.eval_faults.get(&7), Some(&EvalFault::DelayMillis(25)));
        assert!(FaultPlan::parse("")
            .expect("empty spec is fine")
            .fired()
            .is_empty());
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(FaultPlan::parse("panic").is_err());
        assert!(FaultPlan::parse("panic@x").is_err());
        assert!(FaultPlan::parse("evaldelay@3").is_err());
        assert!(FaultPlan::parse("meteor@1").is_err());
    }

    #[test]
    fn counters_fire_at_exact_logical_points() {
        let plan = FaultPlan::new()
            .panic_at_turn(2)
            .expire_at_turn(2)
            .eval_fault_at(1, EvalFault::Fail)
            .drop_connection(3);

        let first = plan.on_turn();
        assert!(!first.panic && !first.expire);
        let second = plan.on_turn();
        assert!(second.panic && second.expire);
        assert!(!plan.on_turn().panic);

        assert_eq!(plan.on_batch(), Some(EvalFault::Fail));
        assert_eq!(plan.on_batch(), None);

        assert!(!plan.on_connection());
        assert!(!plan.on_connection());
        assert!(plan.on_connection());

        assert_eq!(plan.fired_count(), 4);
        let fired = plan.fired();
        assert!(fired.iter().any(|f| f.contains("panic@turn 2")));
        assert!(fired.iter().any(|f| f.contains("drop@connection 3")));
    }
}
