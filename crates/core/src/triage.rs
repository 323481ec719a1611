//! Per-query triage of degraded logs.
//!
//! Real query logs carry truncated statements, copy-paste damage and dialect noise. Instead
//! of rejecting a whole session for one bad line, [`TriagedLog`] runs every submitted query
//! through the error-recovering front end ([`mctsui_sql::parse_query_lenient`]) and splits
//! the log into *healthy* entries (the strict parser would accept them — acceptance and
//! [`LenientParse::is_clean`](mctsui_sql::LenientParse::is_clean) agree by construction) and
//! *quarantined* [`LogEntry::Opaque`] slots carrying structured diagnostics. Interface
//! generation then runs over the healthy subsequence exactly as if the quarantined queries
//! had never been submitted, which is what makes the degraded path testable: a session with
//! `k` noisy queries must synthesize bit-identically to the same session pre-quarantined.

use mctsui_difftree::LogEntry;
use mctsui_sql::{parse_query_lenient, Ast};

/// One flattened diagnostic of a triaged log, addressed by original query index.
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

/// A query log split into healthy and quarantined entries, preserving original positions.
#[derive(Debug, Clone, PartialEq)]
pub struct TriagedLog {
    entries: Vec<LogEntry>,
}

impl TriagedLog {
    /// Triage raw query texts with the lenient front end.
    ///
    /// A query is healthy iff its lenient parse is clean, which the `sqlast` test suite pins
    /// to be equivalent to strict acceptance — so triage never changes the meaning of a
    /// query the strict path would have taken.
    pub fn from_sources<S: AsRef<str>>(sources: &[S]) -> Self {
        let entries = sources
            .iter()
            .map(|source| {
                let source = source.as_ref();
                let parsed = parse_query_lenient(source);
                if parsed.is_clean() {
                    LogEntry::Parsed(parsed.ast.expect("clean parse has an AST"))
                } else {
                    LogEntry::Opaque {
                        source: source.to_string(),
                        errors: parsed.errors,
                    }
                }
            })
            .collect();
        Self { entries }
    }

    /// Wrap an already-parsed, fully healthy log (no quarantine).
    pub fn from_asts(queries: Vec<Ast>) -> Self {
        Self {
            entries: queries.into_iter().map(LogEntry::Parsed).collect(),
        }
    }

    /// All log slots in original order.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Total number of submitted queries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no queries were submitted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The healthy ASTs, in original order — the log interface generation runs over.
    pub fn healthy(&self) -> Vec<Ast> {
        mctsui_difftree::healthy_queries(&self.entries)
    }

    /// Number of quarantined entries.
    pub fn quarantined_len(&self) -> usize {
        self.entries.iter().filter(|e| e.is_quarantined()).count()
    }

    /// The first failure, as `(query index, diagnostic)` — what a strict server reports.
    pub fn first_failure(&self) -> Option<(usize, &mctsui_sql::SyntaxError)> {
        self.entries.iter().enumerate().find_map(|(i, e)| match e {
            LogEntry::Opaque { errors, .. } => errors.first().map(|err| (i, err)),
            LogEntry::Parsed(_) => None,
        })
    }

    /// Every diagnostic of every quarantined entry, flattened in log order.
    pub fn diagnostics(&self) -> Vec<TriageDiagnostic> {
        let mut out = Vec::new();
        for (index, entry) in self.entries.iter().enumerate() {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use mctsui_sql::parse_query;

    #[test]
    fn clean_sources_are_all_healthy() {
        let sources = [
            "SELECT Sales FROM sales WHERE cty = 'USA'",
            "SELECT Costs FROM sales",
        ];
        let log = TriagedLog::from_sources(&sources);
        assert_eq!(log.len(), 2);
        assert_eq!(log.quarantined_len(), 0);
        assert!(log.diagnostics().is_empty());
        assert!(log.first_failure().is_none());
        // Healthy ASTs are bit-identical to the strict parse.
        let strict: Vec<_> = sources.iter().map(|s| parse_query(s).unwrap()).collect();
        assert_eq!(log.healthy(), strict);
    }

    #[test]
    fn noisy_sources_are_quarantined_in_place() {
        let sources = [
            "SELECT Sales FROM sales",
            "SELECT @@ FROM",
            "SELECT Costs FROM sales",
            "totally not sql",
        ];
        let log = TriagedLog::from_sources(&sources);
        assert_eq!(log.len(), 4);
        assert_eq!(log.quarantined_len(), 2);
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
        let a = TriagedLog::from_sources(&noisy);
        let b = TriagedLog::from_sources(&clean);
        assert_eq!(a.healthy(), b.healthy());
    }

    #[test]
    fn from_asts_is_trivially_healthy() {
        let queries = vec![parse_query("SELECT Sales FROM sales").unwrap()];
        let log = TriagedLog::from_asts(queries.clone());
        assert_eq!(log.quarantined_len(), 0);
        assert_eq!(log.healthy(), queries);
    }
}
