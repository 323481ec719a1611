//! Query-log workloads for interface generation experiments.
//!
//! The paper evaluates on a 10-query log derived from the Sloan Digital Sky Survey (SDSS)
//! query log (its Listing 1). That log is embedded here verbatim ([`sdss`]), along with
//! parameterised synthetic log generators used by the scaling and ablation experiments
//! ([`synthetic`]), the named experiment scenarios of Figure 6 ([`scenario`]) and the
//! generated scenario corpus behind the differential fuzz harness ([`corpus`]) — seeded
//! schema families whose session logs drift query-by-query and are addressable anywhere a
//! scenario name is accepted as `corpus:<family>:<seed>`.
//!
//! **Substitution note (documented in DESIGN.md):** the live SDSS database and its full query
//! log are not available offline; the paper prints the log it uses, so we reproduce exactly
//! those queries and generate synthetic SDSS-style logs for experiments that need more
//! queries than Listing 1 contains.

pub mod corpus;
pub mod scenario;
pub mod sdss;
pub mod synthetic;

pub use corpus::{apply_noise, CorpusLog, CorpusSchema, CorpusSpec, NoiseOp, SchemaFamily};
pub use scenario::{Scenario, ScenarioId};
pub use sdss::{sdss_listing1, sdss_listing1_sql};
pub use synthetic::{LogSpec, SyntheticLog};
