//! Workload inputs.
//!
//! Every log comes from the repository's generated corpus (`corpus:<family>:<seed>`), drawn
//! from a *stratified* stream: the `i`-th log's schema family and length are fixed by `i`
//! (families rotate, lengths cycle through every length the corpus emits), so any prefix
//! of the stream mixes small and large, star, snowflake and log-family work evenly.
//!
//! The logs are the same for every benchmark seed; the seed supplies every search seed
//! the client sends. Interface cost and search time differ between corpus logs by up to
//! 5x, so a handful of seed-chosen logs per run would make the run-to-run spread a
//! property of which logs were drawn rather than of the program. Different seeds still
//! search different paths over the same logs.

use mctsui_workload::{CorpusSpec, SchemaFamily};

/// Shortest and longest log the corpus generator emits.
const LENGTHS: std::ops::RangeInclusive<usize> = 6..=12;

/// Base seed of the corpus logs every run uses.
const CORPUS_SEED: u64 = 0x6d63_7473_7569;

/// SplitMix64 of `seed` salted with `salt`: independent sub-seeds from one bench seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One corpus log as a client submits it, plus the drift queries its user sends next.
#[derive(Debug, Clone)]
pub struct Log {
    /// `corpus:<family>:<seed>`.
    pub name: String,
    /// The log's SQL text, one statement per entry.
    pub sql: Vec<String>,
    /// Further drift queries of the same session, in order.
    pub appends: Vec<String>,
}

/// The first corpus log of `family` with exactly `length` queries in the stream salted by
/// `salt`, with `appends` further drift queries.
fn corpus_log(salt: u64, family: SchemaFamily, length: usize, appends: usize) -> Log {
    (0u64..)
        .map(|attempt| CorpusSpec::new(family, mix(mix(CORPUS_SEED, salt), attempt)))
        .find_map(|spec| {
            let (log, appended) = spec.generate_with_appends(appends);
            (log.len() == length).then(|| Log {
                name: spec.scenario_name(),
                sql: log.sql,
                appends: appended,
            })
        })
        .expect("every corpus length is reachable")
}

/// The `index`-th log of the stratified stream: families rotate star, snowflake, log, and
/// lengths cycle through 6..=12, one step every three logs.
pub fn stratified_log(index: usize, appends: usize) -> Log {
    let family = SchemaFamily::ALL[index % SchemaFamily::ALL.len()];
    let lengths = LENGTHS.count();
    let length = LENGTHS.start() + (index / SchemaFamily::ALL.len()) % lengths;
    corpus_log(index as u64, family, length, appends)
}
