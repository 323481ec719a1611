//! Interface generation: the paper's primary contribution, assembled from the substrate
//! crates.
//!
//! Given a sequence of SQL queries (a query log or an analysis session) and a target screen,
//! the [`InterfaceGenerator`] searches the space of difftrees with Monte Carlo Tree Search
//! (or one of several baseline strategies) for the widget tree with the lowest cost
//! `C(W, Q) = Σ U(q_i, q_{i+1}, W) + Σ M(w)`, and returns a fully specified interface:
//! the final difftree, the widget tree, its layout, and the cost breakdown.
//!
//! ```
//! use mctsui_core::{GeneratorConfig, InterfaceGenerator, SearchStrategy};
//! use mctsui_sql::parse_query;
//! use mctsui_widgets::Screen;
//!
//! let queries = vec![
//!     parse_query("SELECT Sales FROM sales WHERE cty = 'USA'").unwrap(),
//!     parse_query("SELECT Costs FROM sales WHERE cty = 'EUR'").unwrap(),
//!     parse_query("SELECT Costs FROM sales").unwrap(),
//! ];
//! let config = GeneratorConfig::quick(Screen::wide());
//! let interface = InterfaceGenerator::new(queries, config).generate();
//! assert!(interface.cost.valid);
//! assert!(interface.widget_tree.widget_count() >= 1);
//! ```

pub mod describe;
pub mod generator;
pub mod live;
pub mod problem;
pub mod search;
pub mod session;
pub mod stats;
pub mod triage;

pub use describe::{ChoiceDescription, InterfaceDescription};
pub use generator::{GeneratedInterface, GeneratorConfig, InterfaceGenerator, SearchStrategy};
pub use live::{graft_append, LiveLog};
pub use problem::InterfaceSearchProblem;
pub use session::{InterfaceSession, SessionError};
pub use stats::{search_space_stats, GenerationStats, SearchSpaceStats};
pub use triage::{TriageDiagnostic, TriagedLog};
