//! `oneshot`: the paper's own experiment, in process — what `mctsui --scenario
//! corpus:<family>:<seed>` does per log, with an iteration-only budget.
//!
//! Each log is parsed, searched by `InterfaceGenerator::generate` (sequential MCTS, paper
//! defaults: wide screen, default weights, k = 5, rollout depth 200, 200 iterations), and
//! rendered with `render_ascii`. Novel search states dominate the search, and the final
//! widget enumeration runs nowhere else; the serving layer is absent, so a change to it
//! must leave this workload unchanged.

use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mctsui_core::{
    GeneratedInterface, GeneratorConfig, InterfaceGenerator, InterfaceSearchProblem,
};
use mctsui_difftree::{simplified_difftree, RuleEngine};
use mctsui_mcts::{Budget, SearchProblem};
use mctsui_render::render_ascii;
use mctsui_sql::{parse_query, Ast};
use mctsui_widgets::{build_widget_tree, enumerate_assignments, Screen};

use crate::inputs::{mix, stratified_log, Log};
use crate::measure::{mean, median, ms, tail, us, Digest, Kind, Ops};
use crate::replay::{open_handle, run_windows, Clock};
use crate::report::Report;
use crate::seeds::{Table, CANDIDATES};

/// MCTS iterations per log.
const ITERATIONS: usize = 200;

/// Logs per second of `--seconds` (fixed work: about one second of search per 1.6 logs on
/// a 2-core x86-64 host; the count depends on `--seconds` only, never on a clock).
const LOGS_PER_SECOND: f64 = 1.6;

/// One log to generate an interface for.
struct Job {
    log: Log,
    seed: u64,
}

/// What one `generate` settled on: the fixed-work digest fields plus the final cost.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Outcome {
    reward: f64,
    iterations: u64,
    evaluations: u64,
    cost: f64,
}

/// The untraced pass over every job.
struct Pass {
    outcomes: Vec<Option<Outcome>>,
    latencies: Vec<f64>,
    wall: Duration,
    ops: Ops,
}

impl Outcome {
    /// Every field bit for bit, for the replay comparison.
    fn bits(&self) -> [u64; 4] {
        [
            self.reward.to_bits(),
            self.iterations,
            self.evaluations,
            self.cost.to_bits(),
        ]
    }
}

fn config(seed: u64) -> GeneratorConfig {
    GeneratorConfig::paper_defaults(Screen::wide())
        .with_budget(Budget::Iterations(ITERATIONS))
        .with_seed(seed)
}

/// `oneshot` search seeds ([`crate::seeds`]): one slot per position of two full cycles of
/// the stratified log stream; a candidate is clean when its `generate` finished within 2 s.
const ONESHOT_SEEDS: Table = Table(&[
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xbf,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf7, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
]);

fn job(slot: usize, candidate: u64) -> Job {
    Job {
        log: stratified_log(slot, 0),
        seed: mix(0x6f6e_6573, slot as u64 * CANDIDATES + candidate),
    }
}

fn jobs(seed: u64, seconds: u64) -> Vec<Job> {
    let count = ((seconds as f64 * LOGS_PER_SECOND).round() as usize).max(3);
    (0..count)
        .map(|j| {
            let (slot, candidate) = ONESHOT_SEEDS.pick(seed, j);
            job(slot, candidate)
        })
        .collect()
}

fn parse(log: &Log) -> Result<Vec<Ast>, String> {
    log.sql
        .iter()
        .map(|sql| parse_query(sql).map_err(|e| format!("{}: {e}", log.name)))
        .collect()
}

fn outcome(interface: &GeneratedInterface) -> Option<Outcome> {
    let search = interface.stats.search.as_ref()?;
    Some(Outcome {
        reward: search.trace.last()?.best_reward,
        iterations: search.iterations as u64,
        evaluations: search.evaluations as u64,
        cost: interface.cost.total,
    })
}

/// Parse, generate and render every log; one request is one `generate`.
fn run_pass(jobs: &[Job]) -> Pass {
    let mut pass = Pass {
        outcomes: Vec::with_capacity(jobs.len()),
        latencies: Vec::with_capacity(jobs.len()),
        wall: Duration::ZERO,
        ops: Ops::default(),
    };
    let start = Instant::now();
    for job in jobs {
        let Ok(queries) = parse(&job.log) else {
            pass.ops.record(Kind::Generate, false);
            pass.outcomes.push(None);
            pass.latencies.push(f64::INFINITY);
            continue;
        };
        let begun = Instant::now();
        let interface = InterfaceGenerator::new(queries, config(job.seed)).generate();
        pass.latencies.push(ms(begun.elapsed()));
        std::hint::black_box(render_ascii(&interface.widget_tree));
        let outcome = outcome(&interface);
        pass.ops.record(Kind::Generate, outcome.is_some());
        pass.outcomes.push(outcome);
    }
    pass.wall = start.elapsed();
    pass
}

/// Checks and digest common to both modes.
fn check_pass(report: &mut Report, jobs: &[Job], pass: &Pass) -> Digest {
    let mut digest = Digest::default();
    for (job, outcome) in jobs.iter().zip(&pass.outcomes) {
        match outcome {
            Some(o) => {
                digest.state(o.reward, o.iterations, o.evaluations);
                report.check(o.cost.is_finite(), || {
                    format!("{}: generated interface has cost {}", job.log.name, o.cost)
                });
                report.check(o.iterations == ITERATIONS as u64, || {
                    format!("{}: ran {} iterations", job.log.name, o.iterations)
                });
            }
            None => report.check(false, || format!("{}: generate failed", job.log.name)),
        }
    }
    report.attempted = pass.ops.attempted();
    report.failed = pass.ops.failed();
    report.notes.extend(pass.ops.lines());
    report.note(format!(
        "fixed-work digest {digest} over {} logs",
        jobs.len()
    ));
    digest
}

/// The measured run: set-up (corpus generation), every log once, then further set-ups for
/// a steady `setup_s` median.
pub fn run(seed: u64, seconds: u64, setup_repeats: usize) -> Report {
    let mut report = Report::default();
    let begun = Instant::now();
    let plan = jobs(seed, seconds);
    let mut setups = vec![begun.elapsed().as_secs_f64()];
    let pass = run_pass(&plan);
    report.record_peak_rss();
    check_pass(&mut report, &plan, &pass);
    for _ in 1..setup_repeats {
        let begun = Instant::now();
        std::hint::black_box(jobs(seed, seconds));
        setups.push(begun.elapsed().as_secs_f64());
    }

    let finished: Vec<&Outcome> = pass.outcomes.iter().flatten().collect();
    let tail = tail(&pass.latencies);
    report.note(format!(
        "request tail p{:.1} over {} generate calls",
        tail.percentile, tail.samples
    ));
    report.set("setup_s", median(&setups));
    report.set("request_p50_ms", median(&pass.latencies));
    report.set("request_tail_ms", tail.value);
    let iterations: u64 = finished.iter().map(|o| o.iterations).sum();
    report.set("iters_per_s", iterations as f64 / pass.wall.as_secs_f64());
    report.set(
        "final_cost",
        mean(&finished.iter().map(|o| o.cost).collect::<Vec<_>>()),
    );
    report.set("ops_ok_ratio", pass.ops.ok_ratio());
    report
}

/// Per-log layer timings of the replay.
#[derive(Default)]
struct Layers {
    parse: Vec<f64>,
    derive: Vec<f64>,
    build: Vec<f64>,
    final_enum: Vec<f64>,
    drop: Vec<f64>,
    render: Vec<f64>,
    tree_nodes: Vec<f64>,
}

/// The traced run: the measured pass, then the same logs replayed step by step through
/// public calls with a timer around each layer.
pub fn trace(seed: u64, seconds: u64) -> Report {
    let mut report = Report::default();
    let plan = jobs(seed, seconds);
    let pass = run_pass(&plan);
    check_pass(&mut report, &plan, &pass);

    let clock = Clock::new();
    let mut layers = Layers::default();
    let mut action_index = [0u64; 2];
    let begun = Instant::now();
    for (job, expected) in plan.iter().zip(&pass.outcomes) {
        let Some(expected) = expected else { continue };
        let (replayed, rules) = replay_job(job, &clock, &mut layers);
        let counters = rules.action_index().counters();
        action_index[0] += counters.hits;
        action_index[1] += counters.hits + counters.misses;
        report.check(replayed.bits() == expected.bits(), || {
            format!(
                "{}: replay {replayed:?} differs from generate {expected:?}",
                job.log.name
            )
        });
    }
    let replay_wall = begun.elapsed();

    let totals = clock.totals();
    report.set("sqlast.parse_us", median(&layers.parse));
    report.set("difftree.derive_ms", median(&layers.derive));
    report.set("core.problem_build_ms", median(&layers.build));
    report.set("core.final_enum_ms", median(&layers.final_enum));
    report.set("core.problem_drop_ms", median(&layers.drop));
    report.set("render.ascii_ms", median(&layers.render));
    report.set("mcts.tree_nodes", mean(&layers.tree_nodes));
    report.set(
        "difftree.action_hit_ratio",
        action_index[0] as f64 / action_index[1].max(1) as f64,
    );
    totals.report(&mut report);
    report.set(
        "trace.overhead_ratio",
        replay_wall.as_secs_f64() / pass.wall.as_secs_f64(),
    );
    report
}

/// Replay one `generate`: problem, search in windows of one (as the sequential search
/// runs), final enumeration, teardown and render, each timed.
fn replay_job(job: &Job, clock: &Rc<Clock>, layers: &mut Layers) -> (Outcome, RuleEngine) {
    let config = config(job.seed);
    let begun = Instant::now();
    let queries = parse(&job.log).expect("parsed in the measured pass");
    layers.parse.push(us(begun.elapsed()));

    let rules = RuleEngine::default();
    let begun = Instant::now();
    let initial = simplified_difftree(&queries);
    layers.derive.push(ms(begun.elapsed()));
    let problem = Arc::new(InterfaceSearchProblem::new(
        queries,
        initial,
        rules.clone(),
        config.screen,
        config.weights,
        config.assignments_per_eval,
    ));
    layers.build.push(ms(begun.elapsed()));

    let mut handle = open_handle(&problem, clock, config.mcts.clone());
    run_windows(&mut handle, ITERATIONS, 1);
    let best = handle.best_state().clone();
    let mut replayed = Outcome {
        reward: handle.best_reward(),
        iterations: handle.iterations() as u64,
        evaluations: handle.evaluations() as u64,
        cost: f64::NAN,
    };
    layers.tree_nodes.push(handle.node_count() as f64);
    drop(handle);

    let begun = Instant::now();
    let (mut assignment, mut cost) = problem.best_sampled_assignment(&best, config.mcts.seed);
    for candidate in enumerate_assignments(&best, config.final_enumeration_cap) {
        let candidate_cost = problem.cost_of_assignment(&best, &candidate);
        if candidate_cost.better_than(&cost) {
            cost = candidate_cost;
            assignment = candidate;
        }
    }
    let widget_tree = build_widget_tree(&best, &assignment, config.screen);
    layers.final_enum.push(ms(begun.elapsed()));
    replayed.cost = cost.total;
    std::hint::black_box(problem.engine().applicable(&problem.initial_state()).len());

    let begun = Instant::now();
    drop(problem);
    layers.drop.push(ms(begun.elapsed()));

    let begun = Instant::now();
    std::hint::black_box(render_ascii(&widget_tree));
    layers.render.push(ms(begun.elapsed()));
    (replayed, rules)
}
