//! Session query logs: per-query triage, append and retract.
//!
//! Real query logs carry truncated statements, copy-paste damage and dialect noise. Instead
//! of rejecting a whole session for one bad line, [`LiveLog`] runs every submitted query
//! through the error-recovering front end ([`parse_query_lenient`]) and keeps *healthy*
//! entries (the strict parser would accept them — acceptance and
//! [`LenientParse::is_clean`](mctsui_sql::LenientParse::is_clean) agree by construction)
//! beside *quarantined* [`LogEntry::Opaque`] slots carrying structured diagnostics.
//! Interface generation runs over the healthy subsequence exactly as if the quarantined
//! queries had never been submitted, which is what makes the degraded path testable: a
//! session with `k` noisy queries must synthesize bit-identically to the same session
//! pre-quarantined.
//!
//! The serving layer keeps one `LiveLog` per session and edits it while the analyst keeps
//! querying: [`LiveLog::append_source`] triages and appends one query,
//! [`LiveLog::retract`] removes one slot, and the session's search problem is rebuilt from
//! [`LiveLog::healthy`]. [`graft_append`] is the *state graft* that re-roots a warm search
//! tree onto the extended log: given a difftree the search had already reached for the old
//! query list, it produces the equivalent difftree over the new list by splicing the
//! appended query's leaf under the root — everything else `Arc`-shared, so
//! fingerprint-keyed caches survive the rebase.

use mctsui_difftree::{DiffKind, DiffNode, DiffTree, LogEntry};
use mctsui_sql::{parse_query_lenient, print_query, Ast, SyntaxError};

/// One flattened diagnostic of a log, addressed by original query index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriageDiagnostic {
    /// Index of the query in the submitted log (not the healthy subsequence).
    pub index: usize,
    /// Byte offset of the problem within that query's text.
    pub offset: usize,
    /// Human readable description of what went wrong.
    pub message: String,
    /// True when the diagnostic disqualified the query from synthesis.
    pub quarantined: bool,
}

/// A session's query log: every submitted query in arrival order, malformed ones
/// quarantined in place as [`LogEntry::Opaque`] slots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LiveLog {
    entries: Vec<LogEntry>,
}

/// The admission-time name of a [`LiveLog`]: the log a request triages is the log its
/// session then edits.
pub type TriagedLog = LiveLog;

impl LiveLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Triage raw query texts with the lenient front end.
    ///
    /// A query is healthy iff its lenient parse is clean, which the `sqlast` test suite pins
    /// to be equivalent to strict acceptance — so triage never changes the meaning of a
    /// query the strict path would have taken.
    pub fn from_sources<S: AsRef<str>>(sources: &[S]) -> Self {
        Self {
            entries: sources.iter().map(|s| triage(s.as_ref())).collect(),
        }
    }

    /// A copy of an admission-time triaged log (quarantined slots preserved in place).
    pub fn from_triaged(log: &TriagedLog) -> Self {
        log.clone()
    }

    /// Wrap an already-parsed, fully healthy log.
    pub fn from_asts(queries: Vec<Ast>) -> Self {
        Self {
            entries: queries.into_iter().map(LogEntry::Parsed).collect(),
        }
    }

    /// Append one raw query text with lenient triage: a clean parse appends a healthy
    /// entry, anything else a quarantined `Opaque` slot that occupies a log position.
    /// Returns the diagnostics of the appended slot (empty when healthy), addressed by its
    /// log index.
    pub fn append_source(&mut self, source: &str) -> Vec<TriageDiagnostic> {
        let index = self.entries.len();
        self.entries.push(triage(source));
        slot_diagnostics(index, &self.entries[index]).collect()
    }

    /// Retract the entry at `index` (full-log position, quarantined slots included) and
    /// return it, or an error if `index` is out of bounds.
    pub fn retract(&mut self, index: usize) -> Result<LogEntry, String> {
        if index >= self.entries.len() {
            return Err(format!(
                "retract index {index} out of bounds for log of length {}",
                self.entries.len()
            ));
        }
        Ok(self.entries.remove(index))
    }

    /// All log slots in arrival order.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// The healthy ASTs in log order — the log interface generation runs over.
    pub fn healthy(&self) -> Vec<Ast> {
        self.entries
            .iter()
            .filter_map(|entry| entry.ast().cloned())
            .collect()
    }

    /// Total log length, quarantined slots included.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the log holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of healthy entries.
    pub fn healthy_len(&self) -> usize {
        self.len() - self.quarantined_len()
    }

    /// Number of quarantined slots.
    pub fn quarantined_len(&self) -> usize {
        self.entries.iter().filter(|e| e.is_quarantined()).count()
    }

    /// The first failure, as `(query index, diagnostic)` — what a strict server reports.
    pub fn first_failure(&self) -> Option<(usize, &SyntaxError)> {
        self.entries.iter().enumerate().find_map(|(i, e)| match e {
            LogEntry::Opaque { errors, .. } => errors.first().map(|err| (i, err)),
            LogEntry::Parsed(_) => None,
        })
    }

    /// Every diagnostic of every quarantined slot, flattened in log order.
    pub fn diagnostics(&self) -> Vec<TriageDiagnostic> {
        self.entries
            .iter()
            .enumerate()
            .flat_map(|(index, entry)| slot_diagnostics(index, entry))
            .collect()
    }

    /// The log as round-trippable source text: canonical SQL for healthy entries, the
    /// raw submitted text for quarantined slots. Feeding this back through
    /// [`LiveLog::from_sources`] reproduces the log — the session snapshot format.
    pub fn sources(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|entry| match entry {
                LogEntry::Parsed(ast) => print_query(ast),
                LogEntry::Opaque { source, .. } => source.clone(),
            })
            .collect()
    }
}

/// Triage one raw query text into a log slot.
fn triage(source: &str) -> LogEntry {
    let parsed = parse_query_lenient(source);
    if parsed.is_clean() {
        LogEntry::Parsed(parsed.ast.expect("clean parse has an AST"))
    } else {
        LogEntry::Opaque {
            source: source.to_string(),
            errors: parsed.errors,
        }
    }
}

/// The diagnostics of the slot at `index` (none for a healthy entry).
fn slot_diagnostics(index: usize, entry: &LogEntry) -> impl Iterator<Item = TriageDiagnostic> + '_ {
    let errors: &[SyntaxError] = match entry {
        LogEntry::Opaque { errors, .. } => errors,
        LogEntry::Parsed(_) => &[],
    };
    errors.iter().map(move |error| TriageDiagnostic {
        index,
        offset: error.offset,
        message: error.message.clone(),
        quarantined: true,
    })
}

/// Graft an appended query's leaf into an arbitrary search state over the old query list,
/// yielding a state that expresses every query of the new list.
///
/// The search explores difftrees far from the initial shape (factored `ALL`/`OPT`/`MULTI`
/// structure anywhere in the tree), so the graft only touches the root: an `ANY` root
/// gains one alternative, any other root is wrapped as `ANY(old_root, leaf)`, and the
/// empty tree becomes the leaf itself. All previous subtrees are `Arc`-shared, so the
/// edit is O(root fanout) and every fingerprint-keyed cache entry below the root
/// survives.
pub fn graft_append(state: &DiffTree, ast: &Ast) -> DiffTree {
    let leaf = DiffNode::from_ast(ast);
    let root = state.root();
    let new_root = if root.is_empty_alt() {
        leaf
    } else if root.kind() == DiffKind::Any {
        let mut children = root.children().to_vec();
        children.push(leaf);
        DiffNode::any(children)
    } else {
        DiffNode::any(vec![root.clone(), leaf])
    };
    DiffTree::new(new_root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mctsui_difftree::derive::expresses_all;
    use mctsui_difftree::simplified_difftree;
    use mctsui_sql::parse_query;

    fn q(sql: &str) -> Ast {
        parse_query(sql).unwrap()
    }

    #[test]
    fn clean_sources_are_all_healthy() {
        let sources = [
            "SELECT Sales FROM sales WHERE cty = 'USA'",
            "SELECT Costs FROM sales",
        ];
        let log = LiveLog::from_sources(&sources);
        assert_eq!(log.len(), 2);
        assert_eq!(log.quarantined_len(), 0);
        assert!(log.diagnostics().is_empty());
        assert!(log.first_failure().is_none());
        // Healthy ASTs are bit-identical to the strict parse.
        let strict: Vec<_> = sources.iter().map(|s| q(s)).collect();
        assert_eq!(log.healthy(), strict);
        assert_eq!(LiveLog::from_asts(strict), log);
    }

    #[test]
    fn noisy_sources_are_quarantined_in_place() {
        let sources = [
            "SELECT Sales FROM sales",
            "SELECT @@ FROM",
            "SELECT Costs FROM sales",
            "totally not sql",
        ];
        let log = LiveLog::from_sources(&sources);
        assert_eq!(log.len(), 4);
        assert_eq!(log.quarantined_len(), 2);
        assert_eq!(log.healthy_len(), 2);
        assert_eq!(log.healthy().len(), 2);

        let diags = log.diagnostics();
        assert!(!diags.is_empty());
        assert!(diags.iter().all(|d| d.quarantined));
        assert!(diags.iter().any(|d| d.index == 1));
        assert!(diags.iter().any(|d| d.index == 3));

        let (index, first) = log.first_failure().unwrap();
        assert_eq!(index, 1);
        assert!(!first.message.is_empty());
    }

    #[test]
    fn healthy_subsequence_matches_pre_quarantined_log() {
        // The quarantine invariant the fuzz oracle leans on: triaging a noisy log and
        // triaging the same log with the noisy entries removed yield the same healthy ASTs.
        let noisy = [
            "SELECT Sales FROM sales WHERE cty = 'USA'",
            "SELEC ... garbage",
            "SELECT Costs FROM sales",
        ];
        let clean = [noisy[0], noisy[2]];
        let a = LiveLog::from_sources(&noisy);
        let b = LiveLog::from_sources(&clean);
        assert_eq!(a.healthy(), b.healthy());
    }

    #[test]
    fn appending_matches_triage_at_every_prefix() {
        let sources = [
            "SELECT Sales FROM sales WHERE cty = 'USA'",
            "SELEC ... garbage",
            "SELECT Costs FROM sales",
            "totally not sql",
            "SELECT Costs FROM sales WHERE cty = 'EUR'",
        ];
        let mut live = LiveLog::new();
        for prefix in 1..=sources.len() {
            let diags = live.append_source(sources[prefix - 1]);
            let triaged = LiveLog::from_sources(&sources[..prefix]);
            assert_eq!(live, triaged);
            // Appending reports exactly the appended slot's diagnostics.
            let tail: Vec<_> = triaged
                .diagnostics()
                .into_iter()
                .filter(|d| d.index == prefix - 1)
                .collect();
            assert_eq!(diags, tail);
        }
    }

    #[test]
    fn sources_round_trip_through_triage() {
        let sources = [
            "SELECT Sales FROM sales",
            "SELEC broken (",
            "SELECT Costs FROM sales WHERE cty = 'EUR'",
        ];
        let mut live = LiveLog::new();
        for source in &sources {
            live.append_source(source);
        }
        assert_eq!(LiveLog::from_sources(&live.sources()), live);
        assert_eq!(LiveLog::from_triaged(&live), live);
    }

    #[test]
    fn retract_shifts_entries_and_diagnostics() {
        let mut live = LiveLog::from_asts(vec![
            q("select x from t"),
            q("select y from t"),
            q("select z from t"),
        ]);
        live.append_source("SELEC nope");
        assert_eq!(live.len(), 4);
        assert_eq!(live.diagnostics()[0].index, 3);

        live.retract(1).unwrap();
        assert_eq!(
            live.healthy(),
            vec![q("select x from t"), q("select z from t")]
        );
        assert_eq!(live.diagnostics()[0].index, 2);

        // Retracting the quarantined slot (now index 2) clears the diagnostics.
        let removed = live.retract(2).unwrap();
        assert!(removed.is_quarantined());
        assert!(live.diagnostics().is_empty());
        assert!(live.retract(2).is_err());
    }

    #[test]
    fn graft_append_expresses_the_extended_log() {
        let old = vec![q("select x from t"), q("select y from t")];
        let appended = q("select sum(v) from t group by k");
        let mut extended = old.clone();
        extended.push(appended.clone());

        // Graft onto the simplified initial state (ANY root).
        let state = simplified_difftree(&old);
        let grafted = graft_append(&state, &appended);
        assert!(expresses_all(grafted.root(), &extended));

        // Graft onto a single-query state (ALL root gets wrapped).
        let single = simplified_difftree(&old[..1]);
        let grafted = graft_append(&single, &appended);
        assert!(expresses_all(
            grafted.root(),
            &[old[0].clone(), appended.clone()]
        ));

        // Graft onto the empty state.
        let empty = simplified_difftree(&[]);
        let grafted = graft_append(&empty, &appended);
        assert!(expresses_all(grafted.root(), &[appended]));
    }
}
