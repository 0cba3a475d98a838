//! `repro` — regenerates every table and figure of the thesis's
//! evaluation from the Rust reproduction.
//!
//! ```text
//! repro --table 5.1|5.2|5.3|4.1|4.5|b1..b13|d1..d10
//! repro --figure 5.1..5.15
//! repro --ablation [scenario]
//! repro --grid                 # full scenario × defect sweep, in parallel
//! repro --grid --json <path>   # …plus its machine-readable summary
//! repro --mega-grid            # ≥10⁴-cell scenario-parameter sweep (batched)
//! repro --mega-grid --json <path>  # …plus its summary
//! repro --mega-grid --subset <n>   # only the grid's first n cells
//! repro --mega-grid --checkpoint <path> [--resume]  # durable journal; resume
//!                                  # an interrupted sweep bit-identically
//! repro --serve-bench          # 1000-stream fleet through the monitor service
//! repro --serve-bench --json <path>  # …plus its summary
//! repro --serve-bench --faulty <pct> [--json <path>]  # hostile fleet: pct% faulty streams
//! repro --grid --record-corpus <dir> [--subset <n>]       # archive the sweep's
//!                                  # traces into an on-disk columnar corpus
//! repro --mega-grid --record-corpus <dir> [--subset <n>]  # same, mega cells
//! repro --replay-corpus <dir> [--suite <name>]  # re-monitor the archive
//!                                  # with a registered suite, zero simulation
//! repro --grid --suite <name> [--subset <n>]  # live reference for the same suite
//! repro --all                  # everything, in thesis order
//! repro --json <scenario>      # dump a scenario's figure series as JSON
//! ```
//!
//! Flags are order-insensitive: `repro --json out.json --mega-grid`
//! and `repro --mega-grid --json out.json` are the same invocation.
//! `repro` times nothing: `perfbench/` measures every workload.

use esafe_bench::{
    ablation, figure_map, grid_summary, mega_cells_subset, mega_summary, record_corpus_summary,
    replay_corpus_summary, serve_bench, suite_reference_summary, thesis_run,
};
use esafe_core::render;
use esafe_elevator::ElevatorParams;
use esafe_scenarios::mega::MEGA_WIDTH;
use esafe_scenarios::tables;
use esafe_vehicle::config::VehicleParams;

const USAGE: &str = "usage: repro --table <id> | --figure <id> | --ablation [n] \
     | --grid [--suite <name> | --record-corpus <dir>] [--subset <n>] [--json <path>] \
     | --mega-grid [--subset <n>] [--checkpoint <path> [--resume]] \
       [--record-corpus <dir>] [--json <path>] \
     | --replay-corpus <dir> [--suite <name>] [--json <path>] \
     | --serve-bench [--faulty <pct>] [--json <path>] \
     | --json <n> | --all";

/// Which evaluation artifact one invocation regenerates.
enum Command {
    Table(String),
    Figure(String),
    Ablation(u8),
    Grid,
    MegaGrid,
    ReplayCorpus(String),
    ServeBench,
    All,
}

/// The parsed command line: one command plus order-insensitive
/// modifier flags (each validated against the command at dispatch).
struct Cli {
    command: Option<Command>,
    json: Option<String>,
    faulty: Option<u32>,
    checkpoint: Option<String>,
    resume: bool,
    subset: Option<usize>,
    record_corpus: Option<String>,
    suite: Option<String>,
}

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Parses a thesis scenario number, 1–10; anything else is a usage
/// error naming `what` took it.
fn scenario_number(what: &str, raw: &str) -> u8 {
    match raw.parse() {
        Ok(n @ 1..=10) => n,
        _ => usage_error(&format!("{what} wants a scenario number 1–10, got `{raw}`")),
    }
}

/// Parses flags in any order. Every flag may appear at most once; a
/// second command flag is an error.
fn parse_cli(args: &[String]) -> Cli {
    let mut cli = Cli {
        command: None,
        json: None,
        faulty: None,
        checkpoint: None,
        resume: false,
        subset: None,
        record_corpus: None,
        suite: None,
    };
    let set_command = |cli: &mut Cli, command: Command, flag: &str| {
        if cli.command.is_some() {
            usage_error(&format!("`{flag}` conflicts with an earlier command flag"));
        }
        cli.command = Some(command);
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        // A flag's value is the next argument, which must exist and
        // must not itself look like a flag.
        let value = |i: usize| -> &str {
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => v,
                _ => usage_error(&format!("`{flag}` wants a value")),
            }
        };
        let parsed = |i: usize| -> usize {
            value(i)
                .parse()
                .unwrap_or_else(|_| usage_error(&format!("`{flag}` wants a number")))
        };
        match flag {
            "--table" => {
                set_command(&mut cli, Command::Table(value(i).to_owned()), flag);
                i += 2;
            }
            "--figure" => {
                set_command(&mut cli, Command::Figure(value(i).to_owned()), flag);
                i += 2;
            }
            "--ablation" => {
                // The scenario number is optional (default 3).
                let scenario = match args.get(i + 1) {
                    Some(v) if !v.starts_with("--") => {
                        i += 1;
                        scenario_number("`--ablation`", v)
                    }
                    _ => 3,
                };
                set_command(&mut cli, Command::Ablation(scenario), flag);
                i += 1;
            }
            "--grid" => {
                set_command(&mut cli, Command::Grid, flag);
                i += 1;
            }
            "--mega-grid" => {
                set_command(&mut cli, Command::MegaGrid, flag);
                i += 1;
            }
            "--replay-corpus" => {
                set_command(&mut cli, Command::ReplayCorpus(value(i).to_owned()), flag);
                i += 2;
            }
            "--serve-bench" => {
                set_command(&mut cli, Command::ServeBench, flag);
                i += 1;
            }
            "--all" => {
                set_command(&mut cli, Command::All, flag);
                i += 1;
            }
            "--json" => {
                cli.json = Some(value(i).to_owned());
                i += 2;
            }
            "--faulty" => {
                cli.faulty = Some(parse_pct(value(i)));
                i += 2;
            }
            "--checkpoint" => {
                cli.checkpoint = Some(value(i).to_owned());
                i += 2;
            }
            "--resume" => {
                cli.resume = true;
                i += 1;
            }
            "--subset" => {
                cli.subset = Some(parsed(i));
                i += 2;
            }
            "--record-corpus" => {
                cli.record_corpus = Some(value(i).to_owned());
                i += 2;
            }
            "--suite" => {
                cli.suite = Some(value(i).to_owned());
                i += 2;
            }
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    cli
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage_error("no command given");
    }
    let cli = parse_cli(&args);
    // Modifier flags only make sense under their command.
    if cli.faulty.is_some() && !matches!(cli.command, Some(Command::ServeBench)) {
        usage_error("`--faulty` only applies to --serve-bench");
    }
    let mega = matches!(cli.command, Some(Command::MegaGrid));
    let grid = matches!(cli.command, Some(Command::Grid));
    let replay = matches!(cli.command, Some(Command::ReplayCorpus(_)));
    if cli.checkpoint.is_some() && !mega {
        usage_error("`--checkpoint` only applies to --mega-grid");
    }
    if cli.subset.is_some() && !(mega || grid) {
        usage_error("`--subset` only applies to --grid and --mega-grid");
    }
    if cli.resume && cli.checkpoint.is_none() {
        usage_error("`--resume` wants a `--checkpoint <path>` to resume from");
    }
    if cli.record_corpus.is_some() && !(mega || grid) {
        usage_error("`--record-corpus` only applies to --grid and --mega-grid");
    }
    if cli.record_corpus.is_some() && (cli.suite.is_some() || cli.checkpoint.is_some()) {
        usage_error("`--record-corpus` conflicts with `--suite` and `--checkpoint`");
    }
    if cli.suite.is_some() && !(grid || replay) {
        usage_error("`--suite` only applies to --grid and --replay-corpus");
    }
    match &cli.command {
        Some(Command::Table(id)) => print_table(id),
        Some(Command::Figure(id)) => print_figure(id),
        Some(Command::Ablation(scenario)) => print_ablation(*scenario),
        Some(Command::Grid) => match (&cli.record_corpus, &cli.suite) {
            (Some(dir), _) => print_record_corpus(dir, false, cli.subset, cli.json.as_deref()),
            (None, Some(suite)) => print_suite_reference(suite, cli.subset, cli.json.as_deref()),
            (None, None) => {
                if cli.subset.is_some() {
                    usage_error(
                        "`--grid --subset` wants `--suite <name>` or `--record-corpus <dir>` \
                         (the plain grid always runs all 140 cells)",
                    );
                }
                print_grid(cli.json.as_deref());
            }
        },
        Some(Command::MegaGrid) => match &cli.record_corpus {
            Some(dir) => print_record_corpus(dir, true, cli.subset, cli.json.as_deref()),
            None => print_mega_grid(&cli),
        },
        Some(Command::ReplayCorpus(dir)) => print_replay_corpus(
            dir,
            cli.suite.as_deref().unwrap_or("thesis"),
            cli.json.as_deref(),
        ),
        Some(Command::ServeBench) => {
            print_serve_bench(cli.json.as_deref(), cli.faulty.unwrap_or(0));
        }
        Some(Command::All) => print_all(),
        None => match &cli.json {
            // Bare `--json <n>` dumps a scenario's figure series.
            Some(raw) => {
                let report = thesis_run(scenario_number("bare `--json`", raw));
                println!("{}", tables::series_json(&report).expect("serializable"));
            }
            None => usage_error("no command given"),
        },
    }
}

/// Writes a summary as pretty JSON to `path`.
fn write_json(path: &str, summary: &impl serde::Serialize) {
    let json = serde_json::to_string_pretty(summary).expect("summaries serialize");
    std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write `{path}`: {e}"));
    println!("summary written to {path}");
}

/// Runs the ≥10⁴-cell scenario-parameter mega grid (or its `--subset`
/// prefix) through the batched striped engine at width [`MEGA_WIDTH`]
/// with O(workers × width) memory — durably journaled under
/// `--checkpoint`, resuming bit-identically under `--resume` — and
/// (with `--json`) writes its summary.
fn print_mega_grid(cli: &Cli) {
    let cells = mega_cells_subset(cli.subset);
    println!(
        "mega grid: {} cells at stripe width {MEGA_WIDTH}",
        cells.len()
    );
    let summary = mega_summary(cells, cli.checkpoint.as_deref(), cli.resume).unwrap_or_else(|e| {
        eprintln!("mega grid failed: {e}");
        std::process::exit(1);
    });
    let aggregate = &summary.aggregate;
    println!(
        "Mega grid: {} cells swept, {} runs ({} early terminations, {} collisions)",
        summary.cells, aggregate.runs, aggregate.terminated_early, aggregate.terminal_events
    );
    println!(
        "Classification totals: {} hits, {} false negatives, {} false positives",
        aggregate.hits, aggregate.false_negatives, aggregate.false_positives
    );
    if cli.checkpoint.is_some() {
        match &summary.resumed_from {
            Some(journal) => println!(
                "checkpoint: resumed {} completed cells from {journal}; {} records journaled",
                summary.resumed_cells, summary.journal_records
            ),
            None => println!("checkpoint: {} records journaled", summary.journal_records),
        }
    }
    if !aggregate.quarantined.is_empty() || aggregate.retries > 0 {
        println!(
            "fault isolation: {} cells quarantined, {} retries",
            aggregate.quarantined.len(),
            aggregate.retries
        );
        for failure in &aggregate.quarantined {
            println!(
                "  cell {} (seed {:#018x}, {} retries): {:?}",
                failure.cell, failure.seed, failure.retries, failure.reason
            );
        }
    }
    println!(
        "suites: {} compiled, {} instantiated, {} reused",
        summary.suite_compiles, summary.suite_instantiations, summary.suite_reuses
    );
    if let Some(path) = &cli.json {
        write_json(path, &summary);
    }
}

/// Records a grid or mega-grid cell prefix into a fresh on-disk trace
/// corpus: every run executes serially with frame recording on, its
/// columns archived as it finishes, and the commit manifest published
/// atomically at the end. With `--json`, writes its summary.
fn print_record_corpus(dir: &str, mega: bool, subset: Option<usize>, json_path: Option<&str>) {
    let workload = if mega { "--mega-grid" } else { "--grid" };
    match subset {
        Some(n) => println!("recording the first {n} {workload} cells into corpus {dir}"),
        None => println!("recording the full {workload} sweep into corpus {dir}"),
    }
    let summary = record_corpus_summary(dir, mega, subset).unwrap_or_else(|e| {
        eprintln!("corpus recording failed: {e}");
        std::process::exit(1);
    });
    println!(
        "archived {} runs / {} ticks: {} bytes ({:.2} bytes/tick), \
         {} dictionary symbols, {} signal tables",
        summary.corpus_runs,
        summary.corpus_ticks,
        summary.corpus_bytes,
        summary.bytes_per_tick,
        summary.dict_entries,
        summary.tables
    );
    println!(
        "recording aggregate: {} runs, {} hits, {} false negatives, {} false positives",
        summary.aggregate.runs,
        summary.aggregate.hits,
        summary.aggregate.false_negatives,
        summary.aggregate.false_positives
    );
    if let Some(path) = json_path {
        write_json(path, &summary);
    }
}

/// Re-monitors an archived corpus with a registered goal suite —
/// including one the corpus was never recorded with — through the
/// batched observer with zero simulation. With `--json`, writes its
/// summary.
fn print_replay_corpus(dir: &str, suite: &str, json_path: Option<&str>) {
    println!(
        "replaying corpus {dir} with suite `{suite}` at stripe width {}",
        esafe_harness::DEFAULT_REPLAY_WIDTH
    );
    let summary = replay_corpus_summary(dir, suite).unwrap_or_else(|e| {
        eprintln!("corpus replay failed: {e}");
        std::process::exit(1);
    });
    if summary.recovered {
        println!(
            "corpus had no commit manifest (torn recording): recovered {} complete runs",
            summary.corpus_runs
        );
    }
    println!(
        "re-monitored {} runs / {} ticks",
        summary.corpus_runs, summary.corpus_ticks
    );
    println!(
        "replay aggregate: {} runs, {} hits, {} false negatives, {} false positives, \
         {} early terminations, {} collisions",
        summary.aggregate.runs,
        summary.aggregate.hits,
        summary.aggregate.false_negatives,
        summary.aggregate.false_positives,
        summary.aggregate.terminated_early,
        summary.aggregate.terminal_events
    );
    println!("{:<24} total violation intervals", "monitor");
    for (id, count) in &summary.aggregate.violations_by_monitor {
        println!("{id:<24} {count}");
    }
    if let Some(path) = json_path {
        write_json(path, &summary);
    }
}

/// Runs a grid cell prefix live and scores the recorded runs with a
/// registered suite — the reference a `--replay-corpus --suite` run
/// over the same cells is pinned against. With `--json`, writes its
/// summary.
fn print_suite_reference(suite: &str, subset: Option<usize>, json_path: Option<&str>) {
    match subset {
        Some(n) => println!("live reference: first {n} grid cells scored with suite `{suite}`"),
        None => println!("live reference: full grid scored with suite `{suite}`"),
    }
    let summary = suite_reference_summary(subset, suite).unwrap_or_else(|e| {
        eprintln!("live suite reference failed: {e}");
        std::process::exit(1);
    });
    println!(
        "reference aggregate over {} cells: {} runs, {} hits, {} false negatives, \
         {} false positives",
        summary.cells,
        summary.aggregate.runs,
        summary.aggregate.hits,
        summary.aggregate.false_negatives,
        summary.aggregate.false_positives
    );
    if let Some(path) = json_path {
        write_json(path, &summary);
    }
}

/// Parses the `--faulty` percentage argument.
fn parse_pct(raw: &str) -> u32 {
    let pct: u32 = raw.parse().unwrap_or_else(|_| {
        eprintln!("--faulty wants a percentage 0..=100, got `{raw}`");
        std::process::exit(2);
    });
    if pct > 100 {
        eprintln!("--faulty wants a percentage 0..=100, got {pct}");
        std::process::exit(2);
    }
    pct
}

/// Runs the fleet-service drill: 1000 concurrent replayed elevator
/// streams held live on one `esafe-serve` shard worker (2000 streams
/// total — every close is immediately replaced), and (with `json_path`)
/// writes its summary. With `faulty_pct > 0`, that share of the fleet
/// misbehaves under seeded fault plans (stalls, disconnects, corrupt
/// frames, shuffled ticks) and the degradation counters show how the
/// service coped.
fn print_serve_bench(json_path: Option<&str>, faulty_pct: u32) {
    const CONCURRENT: usize = 1000;
    const TOTAL: usize = 2000;
    const TICKS_PER_STREAM: u64 = 400;
    println!(
        "serve bench: {CONCURRENT} concurrent streams, {TOTAL} total, \
         {TICKS_PER_STREAM} ticks each, one shard worker, {faulty_pct}% faulty"
    );
    let summary = serve_bench(CONCURRENT, TOTAL, TICKS_PER_STREAM, faulty_pct);
    println!(
        "monitored {} stream-ticks x {} monitors; {} violation intervals reported",
        summary.stream_ticks, summary.monitors, summary.violation_intervals
    );
    if faulty_pct > 0 {
        println!(
            "degradation: {} faulty streams; {} evicted ({} stalled, {} corrupt); \
             {} shard restarts; {} reports dropped",
            summary.faulty_streams,
            summary.evicted_streams,
            summary.stalled_evictions,
            summary.corrupt_evictions,
            summary.shard_restarts,
            summary.reports_dropped
        );
    }
    if let Some(path) = json_path {
        write_json(path, &summary);
    }
}

/// Runs the full 10-scenario × 14-configuration grid in parallel —
/// streaming each worker's reports into a partial aggregate, so memory
/// stays O(workers) however large the grid — and prints the
/// order-independent aggregate. With `json_path`, also writes its
/// summary, whose aggregate `BENCH_grid.json` pins.
fn print_grid(json_path: Option<&str>) {
    let summary = grid_summary().unwrap_or_else(|e| {
        eprintln!("grid failed: {e}");
        std::process::exit(1);
    });
    let aggregate = &summary.aggregate;
    println!(
        "Full evaluation grid: {} runs ({} early terminations, {} collisions)",
        aggregate.runs, aggregate.terminated_early, aggregate.terminal_events
    );
    println!(
        "Classification totals: {} hits, {} false negatives, {} false positives",
        aggregate.hits, aggregate.false_negatives, aggregate.false_positives
    );
    println!("{:<10} total violation intervals", "monitor");
    for (id, count) in &aggregate.violations_by_monitor {
        println!("{id:<10} {count}");
    }
    println!(
        "suites: {} compiled, {} instantiated, {} reused; fused vehicle suite: \
         CSE {} -> {} nodes ({:.2}x shared)",
        summary.suite_compiles,
        summary.suite_instantiations,
        summary.suite_reuses,
        summary.cse_source_nodes,
        summary.cse_unique_nodes,
        summary.cse_source_nodes as f64 / summary.cse_unique_nodes as f64
    );
    if let Some(path) = json_path {
        write_json(path, &summary);
    }
}

fn print_all() {
    for t in ["5.1", "5.2", "5.3", "4.1", "4.6", "4.9", "4.5"] {
        print_table(t);
        println!();
    }
    print_figure("5.1");
    for n in 2..=15 {
        print_figure(&format!("5.{n}"));
        println!();
    }
    for n in 1..=10 {
        print_table(&format!("d{n}"));
        println!();
    }
    print_ablation(3);
}

fn print_table(id: &str) {
    let vparams = VehicleParams::default();
    let eparams = ElevatorParams::default();
    match id {
        // Tables 5.1/5.2: the nine vehicle safety goals as KAOS cards.
        "5.1" | "5.2" => {
            let specs = esafe_vehicle::goals::specs(&vparams);
            let range: &[usize] = if id == "5.1" {
                &[0, 1, 2, 3]
            } else {
                &[4, 5, 6, 7, 8]
            };
            println!("Safety goals for a semi-autonomous vehicle (Table {id})");
            for &i in range {
                println!("{}. {}", i + 1, render::goal_card(&specs[i].goal));
            }
        }
        "5.3" => print!("{}", tables::monitoring_matrix()),
        // Chapter 4 elevator ICPA tables.
        "4.1" | "4.2" | "4.3" | "4.4" => {
            println!("Elevator ICPA for Maintain[DoorClosedOrElevatorStopped] (Tables 4.1-4.4)");
            print!(
                "{}",
                render::icpa_table(&esafe_elevator::icpa::door_or_stopped_icpa(&eparams))
            );
        }
        "4.6" => print!(
            "{}",
            render::icpa_table(&esafe_elevator::icpa::overweight_icpa(&eparams))
        ),
        "4.9" => print!(
            "{}",
            render::icpa_table(&esafe_elevator::icpa::hoistway_icpa(&eparams))
        ),
        // Table 4.5 and Appendix B: realizability patterns.
        "4.5" => {
            let tables_b = esafe_core::catalog::appendix_b();
            println!(
                "{}",
                render::catalog_markdown("Table 4.5 / B.1", &tables_b[0].1)
            );
        }
        b if b.starts_with('b') => {
            let idx: usize = b[1..].parse().unwrap_or(0);
            let tables_b = esafe_core::catalog::appendix_b();
            match tables_b.get(idx.wrapping_sub(1)) {
                Some((name, rows)) => {
                    println!("{}", render::catalog_markdown(name, rows));
                }
                None => usage_error(&format!("no appendix table `{b}` (b1..b13)")),
            }
        }
        // Tables D.1–D.11: per-scenario violations.
        d if d.starts_with('d') => {
            let report = thesis_run(scenario_number("`--table d`", &d[1..]));
            print!("{}", tables::violation_table(&report));
        }
        other => usage_error(&format!("unknown table id `{other}`")),
    }
}

fn print_figure(id: &str) {
    if id == "5.1" {
        // The architecture diagram, rendered as a wiring list.
        println!("Figure 5.1: semi-autonomous automotive system (wiring)");
        let graph = esafe_vehicle::icpa_model::control_graph();
        for agent in graph.agents() {
            let controls: Vec<&str> = agent.controlled_vars().iter().map(String::as_str).collect();
            let monitors: Vec<&str> = agent.monitored_vars().iter().map(String::as_str).collect();
            println!(
                "  {:<20} writes [{}] reads [{}]",
                agent.name(),
                controls.join(", "),
                monitors.join(", ")
            );
        }
        return;
    }
    let Some((scenario, signals)) = figure_map(id) else {
        usage_error(&format!("unknown figure id `{id}` (5.1..5.15)"));
    };
    println!("Figure {id} (from scenario {scenario}):");
    let report = thesis_run(scenario);
    for signal in signals {
        print!("{}", tables::ascii_figure(&report, signal, 72));
    }
}

fn print_ablation(scenario: u8) {
    println!("Defect ablation for scenario {scenario} (parallel sweep):");
    println!("{:<32} violated monitors", "configuration");
    for (label, ids) in ablation(scenario) {
        let list = if ids.is_empty() {
            "(none)".to_owned()
        } else {
            ids.join(", ")
        };
        println!("{label:<32} {list}");
    }
}
