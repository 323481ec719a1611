//! `mctsui` command-line interface: generate an interactive data-analysis interface from a
//! SQL query log — one-shot, or as a long-running multi-session service.
//!
//! ```text
//! mctsui [OPTIONS] [QUERY_FILE]          one-shot generation (default)
//! mctsui serve [OPTIONS]                 run the NDJSON-over-TCP synthesis server
//! mctsui client [OPTIONS] [QUERY_FILE]   drive scripted sessions against a server
//!
//! One-shot mode reads one SQL query per line (or `;`-separated statements) from
//! QUERY_FILE, or from stdin when no file is given. Lines starting with `--` or `#` are
//! ignored. Malformed queries are quarantined with a warning (the interface is generated
//! from the healthy remainder) rather than aborting the run.
//!
//! ONE-SHOT OPTIONS:
//!   --screen <wide|narrow|WxH>   target screen (default: wide = 1200x800)
//!   --seconds <n>                MCTS wall-clock budget in seconds (default: 10)
//!   --iterations <n>             MCTS iteration cap (default: 4000)
//!   --strategy <mcts|greedy|random|beam|initial>   search strategy (default: mcts)
//!   --seed <n>                   RNG seed (default: 42)
//!   --format <ascii|html|json>   output format (default: ascii; json = full description)
//!   --out <path>                 write the rendered interface to a file instead of stdout
//!   --demo                       use the paper's SDSS Listing 1 log instead of reading input
//!   --scenario <name>            use a registered scenario's log and screen; builtin names
//!                                (fig6a-wide, ...) or generated corpus `corpus:<family>:<seed>`
//!   --help                       show this help
//!
//! SERVE OPTIONS:
//!   --addr <host:port>           bind address (default: 127.0.0.1:7878)
//!   --threads <n>                scheduler worker threads (default: cpu count)
//!   --slice <n>                  scheduler quantum in iterations (default: 64)
//!   --max-sessions <n>           admission cap on live sessions (default: 256)
//!   --batch <n>                  leaf-evaluation batch width (default: 8; 1 = sequential)
//!   --shards <n>                 session-table / cache shard count (default: 8)
//!   --screen <wide|narrow|WxH>   target screen of generated interfaces
//!   --snapshot-dir <path>        persist session snapshots here; resume after restart
//!   --snapshot-interval <ms>     snapshot cadence for quiescent sessions (default: 2000)
//!   --idle-timeout <ms>          reap sessions idle this long (default: 0 = never)
//!   --io-timeout <ms>            socket read/write timeout (default: 120000)
//!   --max-frame <bytes>          request line-length cap (default: 1048576)
//!   --fault-plan <spec>          inject deterministic faults, e.g.
//!                                "panic@3,drop@2,evalfail@5,evaldelay@7:50,expire@9"
//!   --strict                     reject logs containing malformed queries instead of
//!                                quarantining them and serving the healthy remainder
//!
//! CLIENT OPTIONS:
//!   --addr <host:port>           server address (default: 127.0.0.1:7878)
//!   --sessions <n>               concurrent scripted sessions (default: 1)
//!   --iterations <n>             iterations per request (default: 120)
//!   --refines <n>                refine rounds per session (default: 2)
//!   --deadline-millis <n>        per-request deadline (default: 10000)
//!   --seed <n>                   base session seed (default: 42)
//!   --demo                       use the SDSS Listing 1 log
//!   --scenario <name>            use a registered scenario's log (builtin or corpus name)
//!   --appends <n>                append n drift queries to each session's live log after
//!                                the refine rounds (requires --scenario corpus:<family>:<seed>;
//!                                the drift continues that corpus's generation stream)
//!   --shutdown                   send Shutdown after the sessions finish
//!   --tolerate-faults            reconnect/resume through faults instead of failing fast
//!   --persist                    leave sessions open (prints session=<id> for --resume)
//!   --resume <id>                reattach to a session by id instead of synthesizing
//! ```

use std::io::Read;
use std::process::ExitCode;

use mctsui::core::{GeneratorConfig, InterfaceDescription, InterfaceGenerator, SearchStrategy};
use mctsui::mcts::Budget;
use mctsui::render::{render_ascii, render_html};
use mctsui::serve::{
    run_concurrent_sessions, run_resume_session, Client, FaultPlan, Request, Response,
    ScriptConfig, ServeConfig, ServeEngine,
};
use mctsui::sql::{print_query, Ast};
use mctsui::widgets::Screen;
use mctsui::workload::{sdss_listing1, sdss_listing1_sql, Scenario};

/// Parsed command-line options.
struct Options {
    screen: Screen,
    /// True when `--screen` was given explicitly (a `--scenario` then keeps it).
    screen_explicit: bool,
    seconds: u64,
    iterations: usize,
    strategy: SearchStrategy,
    seed: u64,
    format: Format,
    out: Option<String>,
    demo: bool,
    scenario: Option<String>,
    query_file: Option<String>,
}

#[derive(PartialEq, Clone, Copy)]
enum Format {
    Ascii,
    Html,
    Json,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            screen: Screen::wide(),
            screen_explicit: false,
            seconds: 10,
            iterations: 4_000,
            strategy: SearchStrategy::Mcts,
            seed: 42,
            format: Format::Ascii,
            out: None,
            demo: false,
            scenario: None,
            query_file: None,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => return serve_main(args[1..].to_vec()),
        Some("client") => return client_main(args[1..].to_vec()),
        _ => {}
    }
    one_shot_main(args)
}

/// `mctsui serve`: run the NDJSON synthesis server until a `Shutdown` request arrives.
fn serve_main(args: Vec<String>) -> ExitCode {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut config = ServeConfig::default();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => match iter.next() {
                Some(value) => addr = value,
                None => return usage_error("--addr needs a value"),
            },
            "--threads" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => config = config.with_threads(n),
                None => return usage_error("--threads needs a number"),
            },
            "--slice" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => config = config.with_slice_iterations(n),
                None => return usage_error("--slice needs a number"),
            },
            "--max-sessions" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => config = config.with_max_sessions(n),
                None => return usage_error("--max-sessions needs a number"),
            },
            "--batch" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => config = config.with_batch(n),
                None => return usage_error("--batch needs a number"),
            },
            "--shards" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => config = config.with_shards(n),
                None => return usage_error("--shards needs a number"),
            },
            "--screen" => match iter.next().as_deref().map(parse_screen) {
                Some(Ok(screen)) => config.screen = screen,
                _ => return usage_error("--screen needs wide, narrow or WxH"),
            },
            "--snapshot-dir" => match iter.next() {
                Some(path) => config = config.with_snapshot_dir(path),
                None => return usage_error("--snapshot-dir needs a path"),
            },
            "--snapshot-interval" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => config = config.with_snapshot_interval_millis(n),
                None => return usage_error("--snapshot-interval needs a number (ms)"),
            },
            "--idle-timeout" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => config = config.with_idle_session_millis(n),
                None => return usage_error("--idle-timeout needs a number (ms)"),
            },
            "--io-timeout" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => config = config.with_io_timeout_millis(n),
                None => return usage_error("--io-timeout needs a number (ms)"),
            },
            "--max-frame" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => config = config.with_max_frame_bytes(n),
                None => return usage_error("--max-frame needs a number (bytes)"),
            },
            "--fault-plan" => match iter.next().map(|spec| FaultPlan::parse(&spec)) {
                Some(Ok(plan)) => config = config.with_fault_plan(std::sync::Arc::new(plan)),
                Some(Err(e)) => return usage_error(&format!("bad --fault-plan: {e}")),
                None => return usage_error("--fault-plan needs a spec"),
            },
            "--strict" => config = config.with_strict(),
            other => return usage_error(&format!("unknown serve option `{other}`")),
        }
    }

    let engine = ServeEngine::start(config);
    eprintln!(
        "mctsui serve: {} scheduler threads, slice {} iterations, batch {}, {} shards, up to {} sessions",
        engine.config().threads,
        engine.config().slice_iterations,
        engine.config().batch,
        engine.config().shards,
        engine.config().max_sessions
    );
    if let Some(dir) = &engine.config().snapshot_dir {
        eprintln!(
            "session snapshots: {} (interval {} ms)",
            dir.display(),
            engine.config().snapshot_interval_millis
        );
    }
    if engine.config().fault.is_some() {
        eprintln!("fault injection active (deterministic chaos plan)");
    }
    if engine.config().strict {
        eprintln!("strict admission: logs with malformed queries are rejected, not quarantined");
    }
    let result = mctsui::serve::serve(engine, &addr, |bound| {
        eprintln!("listening on {bound} (NDJSON protocol; send \"Shutdown\" to stop)");
    });
    match result {
        Ok(()) => {
            eprintln!("server stopped");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `mctsui client`: drive scripted synthesize → refine → interact → close sessions against
/// a running server, verifying the anytime contract (refines never lose ground). Exits
/// non-zero on any violation — this is the CI smoke driver.
fn client_main(args: Vec<String>) -> ExitCode {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut sessions = 1usize;
    let mut script = ScriptConfig::default();
    let mut demo = false;
    let mut scenario: Option<String> = None;
    let mut shutdown = false;
    let mut appends = 0usize;
    let mut resume: Option<u64> = None;
    let mut query_file: Option<String> = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => match iter.next() {
                Some(value) => addr = value,
                None => return usage_error("--addr needs a value"),
            },
            "--sessions" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => sessions = n.max(1),
                None => return usage_error("--sessions needs a number"),
            },
            "--iterations" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => script.iterations = n,
                None => return usage_error("--iterations needs a number"),
            },
            "--refines" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => script.refines = n,
                None => return usage_error("--refines needs a number"),
            },
            "--deadline-millis" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => script.deadline_millis = n,
                None => return usage_error("--deadline-millis needs a number"),
            },
            "--seed" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => script.seed = n,
                None => return usage_error("--seed needs a number"),
            },
            "--demo" => demo = true,
            "--scenario" => match iter.next() {
                Some(name) => scenario = Some(name),
                None => return usage_error("--scenario needs a name"),
            },
            "--appends" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => appends = n,
                None => return usage_error("--appends needs a number"),
            },
            "--shutdown" => shutdown = true,
            "--tolerate-faults" => script.tolerate_faults = true,
            "--persist" => script.persist = true,
            "--resume" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(id) => resume = Some(id),
                None => return usage_error("--resume needs a session id"),
            },
            other if other.starts_with("--") => {
                return usage_error(&format!("unknown client option `{other}`"))
            }
            other => query_file = Some(other.to_string()),
        }
    }

    // Appends are drift mutations drawn from the session's corpus family: the generator
    // replays the corpus log's exact drift stream and continues it, so appended queries
    // are what that synthetic analyst would plausibly ask next.
    if appends > 0 {
        match scenario
            .as_deref()
            .and_then(mctsui::workload::CorpusSpec::parse_name)
        {
            Some(spec) => {
                let (_, drift) = spec.generate_with_appends(appends);
                script.appends = drift;
            }
            None => {
                return usage_error(
                    "--appends draws drift queries from a generated corpus; \
                     pass --scenario corpus:<family>:<seed>",
                )
            }
        }
    }

    // Resume mode reattaches by id — no query log involved.
    if let Some(session) = resume {
        eprintln!(
            "resuming session {session} against {addr} ({} iterations x {} refines)",
            script.iterations, script.refines
        );
        let report = match run_resume_session(&addr, session, &script) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!(
            "session {}: resumed at reward {:.3}, refined to {:.3} over {} request(s)",
            report.session,
            report.initial.reward,
            report.final_reward(),
            report.latencies_millis.len()
        );
        if script.persist {
            println!("session={}", report.session);
        }
        // The resumed session's live-log length (appends made before a restart survive
        // the snapshot round-trip); smoke tests grep this line.
        if let Some(len) = report.log_len {
            println!("log_len={len}");
        }
        if shutdown {
            return request_shutdown(&addr);
        }
        return ExitCode::SUCCESS;
    }

    let queries: Vec<String> = if let Some(name) = scenario {
        match Scenario::resolve(&name) {
            Ok(scenario) => {
                eprintln!("scenario {}: {}", scenario.name, scenario.description);
                scenario.queries.iter().map(print_query).collect()
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if demo {
        sdss_listing1_sql()
    } else if let Some(path) = query_file {
        match std::fs::read_to_string(&path) {
            Ok(text) => split_statements(&text).map(str::to_string).collect(),
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        eprintln!("error: client needs --demo or a QUERY_FILE");
        return ExitCode::FAILURE;
    };

    eprintln!(
        "driving {sessions} scripted session(s) against {addr} ({} queries, {} iterations x {} refines)",
        queries.len(),
        script.iterations,
        script.refines
    );
    let outcome = run_concurrent_sessions(&addr, &queries, &script, sessions);
    let reports = match outcome {
        Ok(reports) => reports,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for report in &reports {
        eprintln!(
            "session {}: reward {:.3} -> {:.3} over {} request(s), interact: {}{}",
            report.session,
            report.initial.reward,
            report.final_reward(),
            report.latencies_millis.len(),
            report.interact_sql.as_deref().unwrap_or("(no widgets)"),
            if report.reconnects > 0 || report.restarts > 0 {
                format!(
                    " [{} reconnect(s), {} restart(s)]",
                    report.reconnects, report.restarts
                )
            } else {
                String::new()
            }
        );
        // Degraded admission: the server quarantined some queries instead of rejecting
        // the log. Surface each diagnostic instead of dying — the session still ran.
        for d in &report.diagnostics {
            eprintln!(
                "  quarantined query {} at byte {}: {}",
                d.index, d.offset, d.message
            );
        }
        if !report.appended.is_empty() {
            eprintln!(
                "  appended {} quer{} (live log now {} entries), post-append reward {:.3}",
                report.appended.len(),
                if report.appended.len() == 1 {
                    "y"
                } else {
                    "ies"
                },
                report.log_len.unwrap_or(0),
                report.appended.last().map(|b| b.reward).unwrap_or(0.0)
            );
        }
        if script.persist {
            println!("session={}", report.session);
        }
        if let Some(len) = report.log_len {
            println!("log_len={len}");
        }
    }

    if shutdown {
        return request_shutdown(&addr);
    }
    ExitCode::SUCCESS
}

/// Ask the server to drain and stop; reports failure as a non-zero exit.
fn request_shutdown(addr: &str) -> ExitCode {
    match Client::connect(addr).and_then(|mut c| c.call(&Request::Shutdown)) {
        Ok(Response::ShuttingDown) => {
            eprintln!("server shutdown requested");
            ExitCode::SUCCESS
        }
        Ok(other) => {
            eprintln!("error: unexpected shutdown response {other:?}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    eprintln!("run `mctsui --help` for usage");
    ExitCode::FAILURE
}

/// The original one-shot generation mode.
fn one_shot_main(args: Vec<String>) -> ExitCode {
    let options = match parse_args(args) {
        Ok(Some(options)) => options,
        Ok(None) => return ExitCode::SUCCESS, // --help
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("run `mctsui --help` for usage");
            return ExitCode::FAILURE;
        }
    };

    let mut options = options;
    let queries = match load_queries(&mut options) {
        Ok(queries) => queries,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    if queries.is_empty() {
        eprintln!("error: no queries to analyse");
        return ExitCode::FAILURE;
    }
    eprintln!("loaded {} queries", queries.len());
    for q in &queries {
        eprintln!("  {}", print_query(q));
    }

    let config = GeneratorConfig::paper_defaults(options.screen)
        .with_budget(Budget::Either {
            iterations: options.iterations,
            time_millis: options.seconds * 1000,
        })
        .with_seed(options.seed)
        .with_strategy(options.strategy);
    let interface = InterfaceGenerator::new(queries, config).generate();

    eprintln!(
        "generated interface: {} widgets, cost {:.2} ({} evaluations in {} ms)",
        interface.widget_tree.widget_count(),
        interface.cost.total,
        interface.stats.evaluations,
        interface.stats.elapsed_millis
    );

    let rendered = match options.format {
        Format::Ascii => render_ascii(&interface.widget_tree),
        Format::Html => render_html(&interface.widget_tree, "mctsui generated interface"),
        // The JSON output is the shared wire encoding: widget tree + choice domains + cost,
        // exactly what `mctsui serve` responses carry.
        Format::Json => match serde_json::to_string_pretty(&InterfaceDescription::of(&interface)) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("error: failed to serialise interface: {e}");
                return ExitCode::FAILURE;
            }
        },
    };

    match &options.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, rendered) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
        None => println!("{rendered}"),
    }
    ExitCode::SUCCESS
}

fn parse_args(args: Vec<String>) -> Result<Option<Options>, String> {
    let mut options = Options::default();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{}", usage());
                return Ok(None);
            }
            "--screen" => {
                let value = iter.next().ok_or("--screen needs a value")?;
                options.screen = parse_screen(&value)?;
                options.screen_explicit = true;
            }
            "--scenario" => {
                options.scenario = Some(iter.next().ok_or("--scenario needs a name")?);
            }
            "--seconds" => {
                options.seconds = parse_number(&iter.next().ok_or("--seconds needs a value")?)?;
            }
            "--iterations" => {
                options.iterations =
                    parse_number(&iter.next().ok_or("--iterations needs a value")?)? as usize;
            }
            "--seed" => {
                options.seed = parse_number(&iter.next().ok_or("--seed needs a value")?)?;
            }
            "--strategy" => {
                let value = iter.next().ok_or("--strategy needs a value")?;
                options.strategy = match value.as_str() {
                    "mcts" => SearchStrategy::Mcts,
                    "greedy" => SearchStrategy::Greedy,
                    "random" => SearchStrategy::RandomWalk {
                        walks: 200,
                        depth: 60,
                    },
                    "beam" => SearchStrategy::Beam {
                        width: 4,
                        depth: 10,
                    },
                    "initial" => SearchStrategy::InitialOnly,
                    other => return Err(format!("unknown strategy `{other}`")),
                };
            }
            "--format" => {
                let value = iter.next().ok_or("--format needs a value")?;
                options.format = match value.as_str() {
                    "ascii" => Format::Ascii,
                    "html" => Format::Html,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--out" => options.out = Some(iter.next().ok_or("--out needs a value")?),
            "--demo" => options.demo = true,
            other if other.starts_with("--") => return Err(format!("unknown option `{other}`")),
            other => options.query_file = Some(other.to_string()),
        }
    }
    Ok(Some(options))
}

fn parse_screen(value: &str) -> Result<Screen, String> {
    match value {
        "wide" => Ok(Screen::wide()),
        "narrow" => Ok(Screen::narrow()),
        other => {
            let parts: Vec<&str> = other.split('x').collect();
            if parts.len() == 2 {
                let w: u32 = parts[0]
                    .parse()
                    .map_err(|_| "bad screen width".to_string())?;
                let h: u32 = parts[1]
                    .parse()
                    .map_err(|_| "bad screen height".to_string())?;
                Ok(Screen::new(w, h))
            } else {
                Err(format!(
                    "unknown screen `{other}` (use wide, narrow or WxH)"
                ))
            }
        }
    }
}

fn parse_number(value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("`{value}` is not a number"))
}

fn load_queries(options: &mut Options) -> Result<Vec<Ast>, String> {
    if let Some(name) = &options.scenario {
        let scenario = Scenario::resolve(name)?;
        eprintln!("scenario {}: {}", scenario.name, scenario.description);
        // The scenario carries its own screen; an explicit --screen still wins.
        if !options.screen_explicit {
            options.screen = scenario.screen;
        }
        return Ok(scenario.queries);
    }
    if options.demo {
        return Ok(sdss_listing1());
    }
    let text = match &options.query_file {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
        }
        None => {
            let mut buffer = String::new();
            std::io::stdin()
                .read_to_string(&mut buffer)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            buffer
        }
    };
    parse_query_log(&text)
}

/// Split a text into statements (one per line or `;`-separated) and triage each: healthy
/// queries feed the generator, malformed ones are quarantined with a warning. Only a log
/// with no healthy query at all is an error.
fn parse_query_log(text: &str) -> Result<Vec<Ast>, String> {
    let sources: Vec<&str> = split_statements(text).collect();
    let log = mctsui::core::TriagedLog::from_sources(&sources);
    for d in log.diagnostics() {
        eprintln!(
            "warning: quarantined query {} at byte {}: {}",
            d.index, d.offset, d.message
        );
    }
    let healthy = log.healthy();
    if healthy.is_empty() && !sources.is_empty() {
        return Err(format!(
            "all {} queries failed to parse; nothing to analyse",
            sources.len()
        ));
    }
    Ok(healthy)
}

/// Split a query-log text into statements: one per line or `;`-separated, comment lines
/// (`--`, `#`) and blanks dropped. Shared by one-shot mode and the client subcommand so
/// both accept exactly the same log files.
fn split_statements(text: &str) -> impl Iterator<Item = &str> {
    text.split([';', '\n'])
        .map(str::trim)
        .filter(|s| !s.is_empty() && !s.starts_with("--") && !s.starts_with('#'))
}

fn usage() -> String {
    "mctsui — generate an interactive data-analysis interface from a SQL query log\n\
     \n\
     USAGE: mctsui [OPTIONS] [QUERY_FILE]          one-shot generation\n\
     \u{20}       mctsui serve [OPTIONS]                 run the synthesis server (see module docs)\n\
     \u{20}       mctsui client [OPTIONS] [QUERY_FILE]   drive scripted sessions against a server\n\
     \n\
     Reads one SQL query per line (or `;`-separated) from QUERY_FILE or stdin.\n\
     Lines starting with `--` or `#` are ignored.\n\
     \n\
     OPTIONS:\n\
       --screen <wide|narrow|WxH>                      target screen (default wide)\n\
       --seconds <n>                                   search budget in seconds (default 10)\n\
       --iterations <n>                                iteration cap (default 4000)\n\
       --strategy <mcts|greedy|random|beam|initial>    search strategy (default mcts)\n\
       --seed <n>                                      RNG seed (default 42)\n\
       --format <ascii|html|json>                      output format (default ascii)\n\
       --out <path>                                    write output to a file\n\
       --demo                                          use the paper's SDSS Listing 1 log\n\
       --scenario <name>                               use a registered scenario (fig6a-wide, ...,\n\
     \u{20}                                                or corpus:<family>:<seed>)\n\
       --help                                          show this help\n"
        .to_string()
}
