//! The `difftree` representation and transformation rules.
//!
//! The paper encodes the input queries *and* the interface layout in a single hierarchical
//! structure called a **difftree** (Figure 4). Each node corresponds to a (possibly empty)
//! sequence of AST nodes and has one of four kinds:
//!
//! * [`DiffKind::All`] — an actual AST node; all of its children must be derived,
//! * [`DiffKind::Any`] — exactly one of its children is chosen,
//! * [`DiffKind::Opt`] — its single child is optional,
//! * [`DiffKind::Multi`] — its single child may be repeated zero or more times.
//!
//! `Any`, `Opt` and `Multi` are called **choice nodes**; an ordinary AST is the special case
//! of a difftree in which every node is an `All` node. A concrete query is expressed by a
//! [`ChoiceAssignment`] — the set of selections made at every choice node — and the search
//! for a good interface is a walk over difftrees connected by the
//! [transformation rules](rules) of the paper's Figure 5.
//!
//! The crate provides:
//!
//! * [`DiffNode`]/[`DiffTree`] with conversions from/to [`mctsui_sql::Ast`],
//! * derivation and expressibility checking ([`derive`](mod@derive)),
//! * choice-domain descriptors used for widget selection ([`domain`]),
//! * the initial-state builder ([`builder`]),
//! * the transformation-rule engine ([`rules`]),
//! * the incremental action index behind its applicability queries and rollout walks
//!   ([`index`]), and
//! * the bounded generational memo cache shared by the long-lived caches ([`cache`]).

pub mod builder;
pub mod cache;
pub mod derive;
pub mod domain;
pub mod index;
pub mod node;
pub mod rules;

pub use builder::{initial_difftree, simplified_difftree};
pub use cache::{CacheCounters, GenerationCache, DEFAULT_CACHE_SHARDS};
pub use derive::{changed_choice_paths, express_log, ChoiceAssignment, Expressor, LogEntry};
pub use domain::{ChoiceDomain, DomainValueKind};
pub use index::{ActionIndex, BindingSummary, CarriedWalk};
pub use node::{DiffKind, DiffNode, DiffPath, DiffTree, Label, LabelId};
pub use rules::{Rule, RuleApplication, RuleEngine, RuleId};
