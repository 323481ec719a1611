//! Property-based tests of live log edits over the generated scenario corpus.
//!
//! The edit contract, stated as a property: for every corpus family — including noisy logs
//! whose malformed queries quarantine as `Opaque` entries — **any** interleaving of appends
//! and retracts leaves the log equal, after every step, to a fresh triage of the sources
//! that survived: the same entries, healthy queries, diagnostics (with their shifted
//! indices) and sources. The fuzz ladder's append oracle checks seeded instances of this;
//! these tests walk random interleavings the sweep never enumerates.

use proptest::prelude::*;

use mctsui_core::LiveLog;
use mctsui_workload::corpus::{CorpusSpec, NoiseOp, SchemaFamily};

/// One step of an interleaving plan: `append` picks the next pooled source, otherwise the
/// raw index (reduced modulo the live length) names an entry to retract.
type Step = (bool, usize);

fn spec() -> impl Strategy<Value = CorpusSpec> {
    (
        prop_oneof![
            Just(SchemaFamily::Star),
            Just(SchemaFamily::Snowflake),
            Just(SchemaFamily::Log),
        ],
        0i64..300,
    )
        .prop_map(|(family, seed)| CorpusSpec::new(family, seed as u64))
}

fn noise() -> impl Strategy<Value = Option<NoiseOp>> {
    prop_oneof![
        Just(None),
        Just(Some(NoiseOp::Truncate)),
        Just(Some(NoiseOp::ByteSplice)),
        Just(Some(NoiseOp::KeywordSwap)),
        Just(Some(NoiseOp::DelimiterDrop)),
    ]
}

fn plan() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((any::<bool>(), 0usize..64), 1..24)
}

/// The source pool an interleaving draws appends from: the corpus session plus its drift
/// continuation, optionally degraded by a seeded noise op (which leaves at least one
/// query healthy).
fn source_pool(spec: CorpusSpec, noise: Option<NoiseOp>) -> Vec<String> {
    let (log, drift) = spec.generate_with_appends(4);
    let mut pool = match noise {
        Some(op) => log.with_noise(op, spec.seed ^ 0x11FE).0,
        None => log.sql.clone(),
    };
    pool.extend(drift);
    pool
}

/// Walk the plan over a fresh [`LiveLog`], mirroring the surviving raw sources, and check
/// the log against a fresh triage of the mirror after every step. Appends cycle through
/// the pool; retracts reduce modulo the current length and are skipped while the log is
/// empty. Returns the final `(live, mirror)` or the first step that diverged.
fn run_plan(pool: &[String], plan: &[Step]) -> Result<(LiveLog, Vec<String>), String> {
    let mut live = LiveLog::new();
    let mut mirror: Vec<String> = Vec::new();
    let mut next = 0usize;
    for (step, &(append, raw)) in plan.iter().enumerate() {
        if append {
            let source = &pool[next % pool.len()];
            next += 1;
            live.append_source(source);
            mirror.push(source.clone());
        } else if !live.is_empty() {
            let index = raw % live.len();
            live.retract(index).expect("in-bounds retract");
            mirror.remove(index);
        }
        let reference = LiveLog::from_sources(&mirror);
        if live.entries() != reference.entries()
            || live.healthy() != reference.healthy()
            || live.diagnostics() != reference.diagnostics()
            || live.sources() != reference.sources()
        {
            return Err(format!(
                "step {step} ({}): log diverged from a fresh triage of its sources",
                if append { "append" } else { "retract" }
            ));
        }
    }
    Ok((live, mirror))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_interleaving_matches_a_fresh_triage_after_every_step(
        spec in spec(),
        noise in noise(),
        plan in plan(),
    ) {
        let pool = source_pool(spec, noise);
        let outcome = run_plan(&pool, &plan);
        prop_assert!(outcome.is_ok(), "{}: {}", spec.scenario_name(), outcome.unwrap_err());

        // The snapshot format round-trips: re-triaging the log's own sources (canonical
        // SQL for healthy entries) rebuilds the same log.
        let (live, _) = outcome.unwrap();
        prop_assert!(
            LiveLog::from_sources(&live.sources()) == live,
            "{}: sources() does not round-trip",
            spec.scenario_name()
        );
    }

    #[test]
    fn retracting_everything_returns_to_the_empty_log(
        spec in spec(),
        noise in noise(),
        plan in plan(),
    ) {
        let pool = source_pool(spec, noise);
        let (mut live, _) = run_plan(&pool, &plan).expect("plan replays");
        while !live.is_empty() {
            // Drain from alternating ends so both boundaries are retracted.
            let index = if live.len() % 2 == 0 { live.len() - 1 } else { 0 };
            live.retract(index).expect("in-bounds retract");
        }
        prop_assert_eq!(live.healthy_len(), 0);
        prop_assert_eq!(live.quarantined_len(), 0);
        prop_assert!(live.diagnostics().is_empty());
        prop_assert!(live == LiveLog::new(), "{}: drained log is not empty", spec.scenario_name());
    }
}
