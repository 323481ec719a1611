//! Live session logs: triage-aware append/retract with an incrementally maintained tree.
//!
//! [`LiveLog`] is the serving layer's view of a session's query log while the user is
//! still streaming queries. It composes the lenient triage front end
//! ([`TriagedLog`](crate::TriagedLog)-style per-query quarantine) with the
//! [`MaintainedTree`](mctsui_difftree::MaintainedTree) incremental-maintenance subsystem,
//! so an appended or retracted query is an O(change) edit to the session's difftree and
//! expressibility memos instead of a from-scratch re-derive of the whole log.
//!
//! The module also provides the *state graft* used when re-rooting a warm search tree
//! onto the updated problem ([`graft_append`]): given a difftree the search had already
//! reached for the old query list, produce the equivalent difftree over the new list by
//! splicing the appended query's leaf under the root — everything else `Arc`-shared, so
//! fingerprint-keyed caches survive the rebase.

use mctsui_difftree::{DiffNode, DiffTree, LogEntry, MaintainedTree};
use mctsui_sql::{parse_query_lenient, print_query, Ast};

use crate::triage::{TriageDiagnostic, TriagedLog};

/// A session's query log under live maintenance: appends and retracts update the
/// underlying difftree in O(change), quarantining malformed queries in place exactly like
/// admission-time triage does.
#[derive(Clone, Debug, Default)]
pub struct LiveLog {
    maintained: MaintainedTree,
}

impl LiveLog {
    /// An empty live log.
    pub fn new() -> Self {
        Self {
            maintained: MaintainedTree::new(),
        }
    }

    /// Adopt an admission-time triaged log (quarantined slots preserved in place).
    pub fn from_triaged(log: &TriagedLog) -> Self {
        Self {
            maintained: MaintainedTree::from_entries(log.entries().to_vec()),
        }
    }

    /// Wrap an already-parsed, fully healthy log.
    pub fn from_asts(queries: Vec<Ast>) -> Self {
        Self {
            maintained: MaintainedTree::from_entries(
                queries.into_iter().map(LogEntry::Parsed).collect(),
            ),
        }
    }

    /// Append one raw query text with lenient triage.
    ///
    /// A clean parse appends a healthy entry (grafting its leaf into the maintained
    /// tree); anything else appends a quarantined `Opaque` slot that occupies a log
    /// position but leaves the tree untouched. Returns the diagnostics for the appended
    /// slot (empty when healthy), addressed by its log index.
    pub fn append_source(&mut self, source: &str) -> Vec<TriageDiagnostic> {
        let index = self.maintained.len();
        let parsed = parse_query_lenient(source);
        if parsed.is_clean() {
            self.maintained
                .append_query(parsed.ast.expect("clean parse has an AST"));
            return Vec::new();
        }
        let diagnostics = parsed
            .errors
            .iter()
            .map(|error| TriageDiagnostic {
                index,
                offset: error.offset,
                message: error.message.clone(),
                quarantined: true,
            })
            .collect();
        self.maintained.append_entry(LogEntry::Opaque {
            source: source.to_string(),
            errors: parsed.errors,
        });
        diagnostics
    }

    /// Retract the entry at `index` (full-log position, quarantined slots included).
    pub fn retract(&mut self, index: usize) -> Result<LogEntry, String> {
        self.maintained.retract_query(index)
    }

    /// The incrementally maintained difftree over the healthy queries — bit-identical to
    /// [`initial_difftree`](mctsui_difftree::initial_difftree) of [`LiveLog::healthy`].
    pub fn difftree(&self) -> &DiffTree {
        self.maintained.tree()
    }

    /// The underlying maintained tree (entries + tree + expressibility memo).
    pub fn maintained(&self) -> &MaintainedTree {
        &self.maintained
    }

    /// All log slots in arrival order.
    pub fn entries(&self) -> &[LogEntry] {
        self.maintained.entries()
    }

    /// The healthy query ASTs in log order.
    pub fn healthy(&self) -> Vec<Ast> {
        self.maintained.healthy()
    }

    /// Total log length, quarantined slots included.
    pub fn len(&self) -> usize {
        self.maintained.len()
    }

    /// True when the log holds no entries.
    pub fn is_empty(&self) -> bool {
        self.maintained.is_empty()
    }

    /// Number of healthy entries.
    pub fn healthy_len(&self) -> usize {
        self.maintained.healthy_len()
    }

    /// Number of quarantined slots.
    pub fn quarantined_len(&self) -> usize {
        self.maintained.quarantined_len()
    }

    /// Every diagnostic of every quarantined slot, flattened in log order.
    pub fn diagnostics(&self) -> Vec<TriageDiagnostic> {
        let mut out = Vec::new();
        for (index, entry) in self.entries().iter().enumerate() {
            if let LogEntry::Opaque { errors, .. } = entry {
                for error in errors {
                    out.push(TriageDiagnostic {
                        index,
                        offset: error.offset,
                        message: error.message.clone(),
                        quarantined: true,
                    });
                }
            }
        }
        out
    }

    /// The log as round-trippable source text: canonical SQL for healthy entries, the
    /// raw submitted text for quarantined slots. Feeding this back through
    /// [`TriagedLog::from_sources`] reproduces the log — the session snapshot format.
    pub fn sources(&self) -> Vec<String> {
        self.entries()
            .iter()
            .map(|entry| match entry {
                LogEntry::Parsed(ast) => print_query(ast),
                LogEntry::Opaque { source, .. } => source.clone(),
            })
            .collect()
    }
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
    } else if root.kind() == mctsui_difftree::DiffKind::Any {
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
    use mctsui_difftree::{initial_difftree, simplified_difftree};
    use mctsui_sql::parse_query;

    fn q(sql: &str) -> Ast {
        parse_query(sql).unwrap()
    }

    #[test]
    fn live_log_matches_triage_at_every_prefix() {
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
            let triaged = TriagedLog::from_sources(&sources[..prefix]);
            assert_eq!(live.healthy(), triaged.healthy());
            assert_eq!(live.len(), triaged.len());
            assert_eq!(live.quarantined_len(), triaged.quarantined_len());
            assert_eq!(live.diagnostics(), triaged.diagnostics());
            assert_eq!(
                live.difftree().fingerprint(),
                initial_difftree(&triaged.healthy()).fingerprint()
            );
            // Appending a noisy source reports its diagnostics immediately.
            let noisy = TriagedLog::from_sources(&[sources[prefix - 1]]).quarantined_len() > 0;
            assert_eq!(diags.is_empty(), !noisy);
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
        let rebuilt = LiveLog::from_triaged(&TriagedLog::from_sources(&live.sources()));
        assert_eq!(rebuilt.healthy(), live.healthy());
        assert_eq!(rebuilt.quarantined_len(), live.quarantined_len());
        assert_eq!(
            rebuilt.difftree().fingerprint(),
            live.difftree().fingerprint()
        );
    }

    #[test]
    fn retract_updates_the_tree_and_diagnostics() {
        let mut live = LiveLog::from_asts(vec![
            q("select x from t"),
            q("select y from t"),
            q("select z from t"),
        ]);
        live.append_source("SELEC nope");
        assert_eq!(live.len(), 4);

        live.retract(1).unwrap();
        assert_eq!(
            live.healthy(),
            vec![q("select x from t"), q("select z from t")]
        );
        assert_eq!(
            live.difftree().fingerprint(),
            initial_difftree(&live.healthy()).fingerprint()
        );

        // Retracting the quarantined slot (now index 2) clears the diagnostics.
        assert!(!live.diagnostics().is_empty());
        let removed = live.retract(2).unwrap();
        assert!(removed.is_quarantined());
        assert!(live.diagnostics().is_empty());
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
