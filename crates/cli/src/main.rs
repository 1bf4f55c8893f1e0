//! The `helix` command-line driver.
//!
//! Loads textual HIR programs (`.hir`, see `docs/hir-grammar.md`) through `helix-frontend`
//! and drives the full reproduction pipeline on them:
//!
//! * `helix parse` — parse + verify, report module shape (or re-print the canonical form),
//! * `helix run` — execute sequentially, or in parallel after the HELIX transformation,
//! * `helix profile` — run the profiling interpreter and report per-loop costs,
//! * `helix parallelize` — run the HELIX analysis (Steps 1–8 + loop selection),
//! * `helix simulate` — the Figure 9 flow: profile, analyze, simulate, report speedup,
//! * `helix trace` — run the parallelized loop with full runtime telemetry, export a
//!   Chrome trace-event timeline, and (`--compare-model`) validate the cost model's
//!   per-segment predictions against the observed costs (see `docs/observability.md`),
//! * `helix dump-workload` — export a built-in synthetic SPEC stand-in as `.hir`,
//! * `helix fuzz` — generate seeded random programs and differentially test the whole stack
//!   (both engines, both profilers, frontend round-trip, parallel executor), dumping any
//!   divergence as an auto-shrunk `.hir` reproduction.
//!
//! Every report is available as human-readable text (default) or JSON (`--json`).

mod json;

use helix_analysis::LoopNestingGraph;
use helix_core::{transform, Helix, HelixConfig, HelixOutput, PrefetchMode};
use helix_frontend::parse_file;
use helix_ir::{printer, ExecImage, ImageMachine, Module, Value};
use helix_profiler::{ImageProfiler, ProgramProfile};
use helix_runtime::{EventKind, ParallelExecutor, ParallelImage, TelemetryMode, TelemetryReport};
use helix_simulator::{simulate_program, SimConfig};
use json::Json;
use std::process::ExitCode;

const USAGE: &str = "\
helix — the HELIX (CGO 2012) reproduction driver

USAGE:
    helix <command> [options] <file.hir>

COMMANDS:
    parse          Parse and verify a .hir file, report its shape
    run            Execute a program (sequentially, or --parallel after HELIX)
    profile        Profile a program and report per-loop cycle counts
    parallelize    Run the HELIX analysis and report plans + selection
    simulate       Profile, analyze and simulate: the end-to-end speedup report
    trace          Execute the parallelized loop with runtime telemetry: per-segment
                   stall accounting, a Chrome trace-event timeline, and (with
                   --compare-model) predicted-vs-observed cost validation
    dump-workload  Print a built-in synthetic workload as canonical .hir
    fuzz           Differentially fuzz the stack with generated programs
    serve          Run the daemon: accept .hir jobs over a Unix socket or framed
                   stdin/stdout, with a content-hash image cache and shared-pool
                   scheduling (protocol: docs/service.md)

COMMON OPTIONS:
    --json             Emit the report as JSON on stdout
    --entry <name>     Entry function (default: main)
    --cores <n>        Core count for parallelize/simulate (default: 6)
    --mode <m>         Prefetching mode: helix|none|matched|ideal (default: helix)
    --arg <int>        Append an integer argument for the entry function (repeatable)
    --fuel <n>         Interpreter fuel limit for any interpreted run (default: 2000000000)
    --print            (parse) Re-print the parsed module in canonical form
    --parallel         (run) Transform the hottest selected loop, run on real threads
    --lowered-costs    (simulate) Price sequential segments from the lowered ParallelImage
                       bytecode instead of profile-weighted plan estimates
    --calibrate        (parallelize) Micro-calibrate this machine (per-op dispatch cost,
                       cross-thread signal latency, pool wake cost), price the analysis
                       with the measured numbers, re-score plans from their lowered
                       runtime images, and report the selection trace (paper vs measured)
    --calibration-file <p>  (parallelize) Like --calibrate, but load the calibration from
                       <p> if it exists and write the measured profile there otherwise
    --threads <list>   Worker thread count(s); comma-separated for fuzz (default: 4 for
                       run --parallel and trace, 1,2,4,6 for fuzz)
    --dispatch-tier <t> (fuzz) Pin the runtime dispatch engine: switch (match-based
                       interpreter) | threaded (direct-threaded handler streams) | jit
                       (template JIT over threaded tables, see docs/jit.md) | auto
                       (calibrated selection, the default; see docs/dispatch.md)
    --spin-budget <n>  (run --parallel, trace, fuzz) Wait spins before declaring deadlock
    --sample <n>       Telemetry sampling period: 0 disables event recording, 1 records
                       every iteration, n records every n-th (default: 1 for trace,
                       64 for run --parallel; counters are always exact when enabled)
    --compare-model    (trace) Calibrate this machine, compare the cost model's
                       per-segment predictions against the observed telemetry costs,
                       and report loops whose selection would flip under observed costs
    --out <path>       (trace) Chrome trace-event output file (default: <input>.trace.json)

SERVE OPTIONS:
    --socket <path>    Listen on a Unix socket at <path> (default: framed stdin/stdout)
    --stdio            Serve the length-prefixed batch protocol on stdin/stdout
    --cache-cap <n>    Prepared-image cache capacity in entries (default: 64)
    --service-threads <n>  Concurrent job slots draining the FIFO queue (default: 2)
    --no-calibrate     Skip the startup runtime calibration (use paper-constant costs)

FUZZ OPTIONS:
    --seeds <n>        Number of seeds to run (default: 100)
    --seed-start <n>   First seed of the range (default: 1)
    --out <dir>        Directory for shrunk .hir repros (default: fuzz-repros)
    --repeats <n>      Parallel runs per thread count per seed (default: 2)
    --gen-config <c>   Generator shape preset: fuzz|small|pointer-heavy|roundtrip
    --no-shrink        Dump divergences without minimizing them
    --inject-fault <f> Test-only fault injection: signal-merge-union (re-enables the
                       pre-fix Step 6 merge bug; proves the oracle + shrinker pipeline)

EXAMPLES:
    helix parse corpus/pointer_chase.hir
    helix simulate corpus/stencil.hir --cores 6 --json
    helix run corpus/sum_reduction.hir --parallel
    helix trace corpus/nest_flip.hir --compare-model
    helix fuzz --seeds 500 --threads 1,2,4,6 --dispatch-tier jit
    helix dump-workload art > /tmp/art.hir
    helix serve --socket /tmp/helix.sock --cache-cap 32
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Failed(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

enum CliError {
    /// Bad invocation: print usage, exit 2.
    Usage(String),
    /// The operation itself failed: exit 1.
    Failed(String),
}

impl CliError {
    fn failed(msg: impl Into<String>) -> CliError {
        CliError::Failed(msg.into())
    }
}

/// Options shared by the pipeline commands, parsed from the flag list.
struct Options {
    file: Option<String>,
    json: bool,
    print: bool,
    parallel: bool,
    lowered_costs: bool,
    calibrate: bool,
    calibration_file: Option<String>,
    compare_model: bool,
    /// Telemetry sampling period from `--sample`; `None` means the per-command default.
    sample: Option<u32>,
    entry: String,
    cores: usize,
    /// Thread counts from `--threads`; `None` means the per-command default.
    threads: Option<Vec<usize>>,
    fuel: u64,
    spin_budget: Option<u64>,
    mode: PrefetchMode,
    args: Vec<Value>,
    // fuzz/trace output options
    seeds: u64,
    seed_start: u64,
    /// `--out`: fuzz repro directory or trace output file; `None` means the default.
    out: Option<String>,
    repeats: usize,
    gen_config: String,
    shrink: bool,
    inject_fault: Option<String>,
    /// `--dispatch-tier`: pins the runtime dispatch engine; `None` keeps the calibrated
    /// automatic selection.
    dispatch_tier: Option<helix_runtime::DispatchTier>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            file: None,
            json: false,
            print: false,
            parallel: false,
            lowered_costs: false,
            calibrate: false,
            calibration_file: None,
            compare_model: false,
            sample: None,
            entry: "main".to_string(),
            cores: 6,
            threads: None,
            fuel: 2_000_000_000,
            spin_budget: None,
            mode: PrefetchMode::Helix,
            args: Vec::new(),
            seeds: 100,
            seed_start: 1,
            out: None,
            repeats: 2,
            gen_config: "fuzz".to_string(),
            shrink: true,
            inject_fault: None,
            dispatch_tier: None,
        }
    }
}

fn parse_options(args: &[String]) -> Result<Options, CliError> {
    let mut opts = Options::default();
    let mut it = args.iter();
    fn value_of(flag: &str, it: &mut std::slice::Iter<'_, String>) -> Result<String, CliError> {
        it.next()
            .cloned()
            .ok_or_else(|| CliError::Usage(format!("{flag} requires a value")))
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--print" => opts.print = true,
            "--parallel" => opts.parallel = true,
            "--lowered-costs" => opts.lowered_costs = true,
            "--calibrate" => opts.calibrate = true,
            "--calibration-file" => {
                opts.calibration_file = Some(value_of("--calibration-file", &mut it)?);
                opts.calibrate = true;
            }
            "--dispatch-tier" => {
                let raw = value_of("--dispatch-tier", &mut it)?;
                let tier = raw.parse().map_err(|_| {
                    CliError::Usage(format!(
                        "--dispatch-tier expects switch, threaded, jit or auto, got {raw:?}"
                    ))
                })?;
                opts.dispatch_tier = Some(tier);
            }
            "--entry" => opts.entry = value_of("--entry", &mut it)?,
            "--cores" => {
                opts.cores = value_of("--cores", &mut it)?
                    .parse()
                    .map_err(|_| CliError::Usage("--cores expects a positive integer".into()))?;
                if opts.cores == 0 {
                    return Err(CliError::Usage("--cores must be at least 1".into()));
                }
            }
            "--threads" => {
                let raw = value_of("--threads", &mut it)?;
                let mut counts = Vec::new();
                for part in raw.split(',') {
                    let n: usize = part.trim().parse().map_err(|_| {
                        CliError::Usage(
                            "--threads expects a positive integer or a comma-separated list".into(),
                        )
                    })?;
                    if n == 0 {
                        return Err(CliError::Usage("--threads must be at least 1".into()));
                    }
                    counts.push(n);
                }
                if counts.is_empty() {
                    return Err(CliError::Usage(
                        "--threads expects at least one count".into(),
                    ));
                }
                opts.threads = Some(counts);
            }
            "--seeds" => {
                opts.seeds = value_of("--seeds", &mut it)?
                    .parse()
                    .map_err(|_| CliError::Usage("--seeds expects an integer".into()))?;
            }
            "--seed-start" => {
                opts.seed_start = value_of("--seed-start", &mut it)?
                    .parse()
                    .map_err(|_| CliError::Usage("--seed-start expects an integer".into()))?;
            }
            "--out" => opts.out = Some(value_of("--out", &mut it)?),
            "--compare-model" => opts.compare_model = true,
            "--sample" => {
                opts.sample = Some(value_of("--sample", &mut it)?.parse().map_err(|_| {
                    CliError::Usage("--sample expects a non-negative integer".into())
                })?);
            }
            "--repeats" => {
                opts.repeats = value_of("--repeats", &mut it)?
                    .parse()
                    .map_err(|_| CliError::Usage("--repeats expects a positive integer".into()))?;
                if opts.repeats == 0 {
                    return Err(CliError::Usage("--repeats must be at least 1".into()));
                }
            }
            "--gen-config" => {
                let preset = value_of("--gen-config", &mut it)?;
                match preset.as_str() {
                    "fuzz" | "small" | "pointer-heavy" | "roundtrip" => {
                        opts.gen_config = preset;
                    }
                    other => {
                        return Err(CliError::Usage(format!(
                            "unknown --gen-config `{other}` \
                             (expected fuzz|small|pointer-heavy|roundtrip)"
                        )))
                    }
                }
            }
            "--no-shrink" => opts.shrink = false,
            "--inject-fault" => {
                let fault = value_of("--inject-fault", &mut it)?;
                if fault != "signal-merge-union" {
                    return Err(CliError::Usage(format!(
                        "unknown --inject-fault `{fault}` (expected signal-merge-union)"
                    )));
                }
                opts.inject_fault = Some(fault);
            }
            "--fuel" => {
                opts.fuel = value_of("--fuel", &mut it)?
                    .parse()
                    .map_err(|_| CliError::Usage("--fuel expects an integer".into()))?;
            }
            "--spin-budget" => {
                let spins: u64 = value_of("--spin-budget", &mut it)?
                    .parse()
                    .map_err(|_| CliError::Usage("--spin-budget expects an integer".into()))?;
                if spins == 0 {
                    return Err(CliError::Usage("--spin-budget must be at least 1".into()));
                }
                opts.spin_budget = Some(spins);
            }
            "--arg" => {
                let v: i64 = value_of("--arg", &mut it)?
                    .parse()
                    .map_err(|_| CliError::Usage("--arg expects an integer".into()))?;
                opts.args.push(Value::Int(v));
            }
            "--mode" => {
                opts.mode = match value_of("--mode", &mut it)?.as_str() {
                    "helix" => PrefetchMode::Helix,
                    "none" => PrefetchMode::None,
                    "matched" => PrefetchMode::Matched,
                    "ideal" => PrefetchMode::Ideal,
                    other => {
                        return Err(CliError::Usage(format!(
                            "unknown --mode `{other}` (expected helix|none|matched|ideal)"
                        )))
                    }
                };
            }
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown option `{flag}`")));
            }
            positional => {
                if opts.file.is_some() {
                    return Err(CliError::Usage(format!(
                        "unexpected extra argument `{positional}`"
                    )));
                }
                opts.file = Some(positional.to_string());
            }
        }
    }
    Ok(opts)
}

fn run_cli(args: &[String]) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::Usage("missing command".into()));
    };
    match command.as_str() {
        "-h" | "--help" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        "parse" => cmd_parse(&parse_options(&args[1..])?),
        "run" => cmd_run(&parse_options(&args[1..])?),
        "profile" => cmd_profile(&parse_options(&args[1..])?),
        "parallelize" => cmd_parallelize(&parse_options(&args[1..])?),
        "simulate" => cmd_simulate(&parse_options(&args[1..])?),
        "trace" => cmd_trace(&parse_options(&args[1..])?),
        "dump-workload" => cmd_dump_workload(&args[1..]),
        "fuzz" => cmd_fuzz(&parse_options(&args[1..])?),
        "serve" => cmd_serve(&args[1..]),
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

/// Loads and verifies the `.hir` file named by the options.
fn load(opts: &Options) -> Result<Module, CliError> {
    let Some(file) = &opts.file else {
        return Err(CliError::Usage("missing input file".into()));
    };
    parse_file(file).map_err(|e| CliError::failed(format!("{file}: {e}")))
}

/// Resolves the entry function.
fn entry_of(module: &Module, opts: &Options) -> Result<helix_ir::FuncId, CliError> {
    module.function_by_name(&opts.entry).ok_or_else(|| {
        let names: Vec<&str> = module.functions.iter().map(|f| f.name.as_str()).collect();
        CliError::failed(format!(
            "no function named `{}` (module has: {})",
            opts.entry,
            names.join(", ")
        ))
    })
}

/// Profiles the program (shared by profile/parallelize/simulate/run --parallel) on the
/// flat-bytecode engine, honouring the `--fuel` limit like every other interpreted run the
/// CLI performs. The lowered image comes back for callers that run the program again.
fn profiled(
    module: &Module,
    opts: &Options,
) -> Result<
    (
        LoopNestingGraph,
        ProgramProfile,
        helix_ir::FuncId,
        ExecImage,
    ),
    CliError,
> {
    let entry = entry_of(module, opts)?;
    let nesting = LoopNestingGraph::new(module);
    let image = ExecImage::lower(module);
    let mut machine = ImageMachine::new(&image);
    machine.set_fuel(opts.fuel);
    let mut profiler = ImageProfiler::new(&image, &nesting);
    machine
        .call_observed(entry, &opts.args, &mut profiler)
        .map_err(|e| CliError::failed(format!("profiling run failed: {e}")))?;
    let profile = profiler.finish();
    drop(machine);
    Ok((nesting, profile, entry, image))
}

fn config_of(opts: &Options) -> HelixConfig {
    let mut config = HelixConfig::i7_980x().with_cores(opts.cores);
    if let Some(spins) = opts.spin_budget {
        config = config.with_spin_budget(spins);
    }
    config
}

fn cmd_parse(opts: &Options) -> Result<(), CliError> {
    let module = load(opts)?;
    if opts.print {
        print!("{}", printer::format_module(&module));
        return Ok(());
    }
    let blocks: usize = module.functions.iter().map(|f| f.blocks.len()).sum();
    if opts.json {
        let functions = module.functions.iter().map(|f| {
            Json::object([
                ("name", Json::str(&f.name)),
                ("params", Json::uint(f.num_params as u64)),
                ("vars", Json::uint(f.num_vars as u64)),
                ("blocks", Json::uint(f.blocks.len() as u64)),
                ("instrs", Json::uint(f.instr_count() as u64)),
            ])
        });
        let doc = Json::object([
            ("module", Json::str(&module.name)),
            ("functions", Json::array(functions)),
            ("globals", Json::uint(module.globals.len() as u64)),
            (
                "global_words",
                Json::uint(module.global_memory_words() as u64),
            ),
            ("instrs", Json::uint(module.instr_count() as u64)),
            ("verified", Json::bool(true)),
        ]);
        println!("{}", doc.into_string());
    } else {
        println!("module `{}`: OK", module.name);
        println!(
            "  {} functions, {} blocks, {} instructions",
            module.functions.len(),
            blocks,
            module.instr_count()
        );
        println!(
            "  {} globals totalling {} words",
            module.globals.len(),
            module.global_memory_words()
        );
        for f in &module.functions {
            println!(
                "  func {}: {} params, {} vars, {} blocks, {} instrs",
                f.name,
                f.num_params,
                f.num_vars,
                f.blocks.len(),
                f.instr_count()
            );
        }
    }
    Ok(())
}

fn cmd_run(opts: &Options) -> Result<(), CliError> {
    let module = load(opts)?;
    if opts.parallel {
        return run_parallel(&module, opts);
    }
    let entry = entry_of(&module, opts)?;
    let image = ExecImage::lower(&module);
    let mut machine = ImageMachine::new(&image);
    machine.set_fuel(opts.fuel);
    let result = machine
        .call(entry, &opts.args)
        .map_err(|e| CliError::failed(format!("execution failed: {e}")))?;
    let stats = machine.stats();
    if opts.json {
        let doc = Json::object([
            ("module", Json::str(&module.name)),
            ("entry", Json::str(&opts.entry)),
            (
                "result",
                match result {
                    Some(Value::Int(i)) => Json::int(i),
                    Some(Value::Float(x)) => Json::float(x),
                    None => Json::str("void"),
                },
            ),
            ("instrs", Json::uint(stats.instrs)),
            ("cycles", Json::uint(stats.cycles)),
            ("loads", Json::uint(stats.loads)),
            ("stores", Json::uint(stats.stores)),
            ("calls", Json::uint(stats.calls)),
        ]);
        println!("{}", doc.into_string());
    } else {
        match result {
            Some(v) => println!("result: {v}"),
            None => println!("result: (void)"),
        }
        println!(
            "executed {} instructions in {} model cycles ({} loads, {} stores, {} calls)",
            stats.instrs, stats.cycles, stats.loads, stats.stores, stats.calls
        );
    }
    Ok(())
}

/// The single worker-thread count for `run --parallel`.
fn single_thread_count(opts: &Options) -> Result<usize, CliError> {
    match &opts.threads {
        None => Ok(4),
        Some(counts) if counts.len() == 1 => Ok(counts[0]),
        Some(_) => Err(CliError::Usage(
            "run --parallel expects a single --threads count (lists are for fuzz)".into(),
        )),
    }
}

/// `run --parallel`: transform the hottest selected loop of the entry function and execute it
/// on real threads, validating against the sequential result.
fn run_parallel(module: &Module, opts: &Options) -> Result<(), CliError> {
    let threads = single_thread_count(opts)?;
    let (_nesting, profile, entry, image) = profiled(module, opts)?;
    let output = Helix::new(config_of(opts)).analyze(module, &profile);
    let (plan, _selected) = output
        .hottest_plan(entry, &profile)
        .filter(|(_, selected)| *selected)
        .ok_or_else(|| {
            CliError::failed("no loop of the entry function was selected for parallelization")
        })?;
    let transformed = transform::apply(module, plan);
    // The sequential baseline reuses the profiling run's lowering.
    let mut machine = ImageMachine::new(&image);
    machine.set_fuel(opts.fuel);
    let sequential = machine
        .call(entry, &opts.args)
        .map_err(|e| CliError::failed(format!("sequential execution failed: {e}")))?;
    drop(machine);
    // Telemetry rides along at the sampled low-overhead period (counters stay exact);
    // `--sample 0` turns it off, `--sample 1` records every iteration.
    let executor = ParallelExecutor::from_config(threads, &config_of(opts))
        .with_telemetry(TelemetryMode::from_sample_period(opts.sample.unwrap_or(64)));
    let run = executor.run_parallel_out(&ParallelImage::lower(&transformed), &opts.args);
    let telemetry = run.report;
    let parallel = run
        .result
        .map_err(|e| CliError::failed(format!("parallel execution failed: {e}")))?;
    let matches = sequential == parallel;
    if opts.json {
        let render = |v: &Option<Value>| match v {
            Some(Value::Int(i)) => Json::int(*i),
            Some(Value::Float(x)) => Json::float(*x),
            None => Json::str("void"),
        };
        let mut fields = vec![
            ("module", Json::str(&module.name)),
            ("loop", Json::str(&format!("{}", plan.loop_id))),
            ("threads", Json::uint(threads as u64)),
            ("sequential_result", render(&sequential)),
            ("parallel_result", render(&parallel)),
            ("results_match", Json::bool(matches)),
            ("waits", Json::uint(transformed.wait_instr_count() as u64)),
            (
                "signals",
                Json::uint(transformed.signal_instr_count() as u64),
            ),
        ];
        if let Some(report) = &telemetry {
            fields.push(("runtime", runtime_json(report, &executor)));
        }
        let doc = Json::object(fields);
        println!("{}", doc.into_string());
    } else {
        println!(
            "parallelized loop {} of `{}` on {} threads ({} waits, {} signals inserted)",
            plan.loop_id,
            opts.entry,
            threads,
            transformed.wait_instr_count(),
            transformed.signal_instr_count()
        );
        let show = |v: &Option<Value>| match v {
            Some(v) => v.to_string(),
            None => "(void)".to_string(),
        };
        println!("sequential result: {}", show(&sequential));
        println!("parallel result:   {}", show(&parallel));
        println!(
            "results {}",
            if matches { "MATCH" } else { "DIFFER (bug!)" }
        );
        if let Some(report) = &telemetry {
            let busy = report
                .workers
                .iter()
                .filter(|w| w.counters.claims > 0)
                .count();
            let wait_ns: u64 = report.workers.iter().map(|w| w.counters.wait_ns).sum();
            let run_ns: u64 = report.workers.iter().map(|w| w.counters.run_ns).sum();
            println!(
                "runtime: {busy}/{} worker(s) claimed work, {} iterations, \
                 run {:.2}ms / wait {:.2}ms ({})",
                executor.effective_workers(),
                report.total_iterations(),
                run_ns as f64 / 1e6,
                wait_ns as f64 / 1e6,
                executor.clamp_reason(),
            );
        }
    }
    if matches {
        Ok(())
    } else {
        Err(CliError::failed(
            "parallel execution diverged from sequential execution",
        ))
    }
}

fn telemetry_mode_name(mode: TelemetryMode) -> String {
    match mode {
        TelemetryMode::Disabled => "disabled".to_string(),
        TelemetryMode::Sampled(n) => format!("sampled({n})"),
        TelemetryMode::Full => "full".to_string(),
    }
}

/// The `runtime` JSON section shared by `run --parallel --json` and `trace --json`:
/// per-worker claim/iteration/stall counters plus the worker-clamp explanation.
fn runtime_json(report: &TelemetryReport, executor: &ParallelExecutor) -> Json {
    let occupancy = report.occupancy();
    let workers = report.workers.iter().map(|w| {
        Json::object([
            ("worker", Json::uint(w.worker as u64)),
            ("claims", Json::uint(w.counters.claims)),
            ("iterations", Json::uint(w.counters.iterations)),
            (
                "sampled_iterations",
                Json::uint(w.counters.sampled_iterations),
            ),
            ("run_ns", Json::uint(w.counters.run_ns)),
            ("wait_ns", Json::uint(w.counters.wait_ns)),
            ("spins", Json::uint(w.counters.spins)),
            ("yields", Json::uint(w.counters.yields)),
            ("parks", Json::uint(w.counters.parks)),
            ("signals", Json::uint(w.counters.signals)),
            ("arena_words", Json::uint(w.counters.arena_words)),
            (
                "occupancy",
                Json::float(occupancy.get(w.worker).copied().unwrap_or(0.0)),
            ),
            ("events", Json::uint(w.events.len() as u64)),
            ("events_dropped", Json::uint(w.events_dropped)),
        ])
    });
    let busy = report
        .workers
        .iter()
        .filter(|w| w.counters.claims > 0)
        .count();
    Json::object([
        ("mode", Json::str(&telemetry_mode_name(report.mode))),
        (
            "dispatch_tier",
            Json::str(&executor.resolved_tier().to_string()),
        ),
        ("wall_ns", Json::uint(report.wall_ns)),
        (
            "effective_workers",
            Json::uint(executor.effective_workers() as u64),
        ),
        ("workers_used", Json::uint(busy as u64)),
        ("clamp_reason", Json::str(&executor.clamp_reason())),
        ("total_iterations", Json::uint(report.total_iterations())),
        (
            "total_run_ns",
            Json::uint(report.workers.iter().map(|w| w.counters.run_ns).sum()),
        ),
        (
            "total_wait_ns",
            Json::uint(report.workers.iter().map(|w| w.counters.wait_ns).sum()),
        ),
        ("workers", Json::array(workers)),
    ])
}

/// Renders a telemetry report as Chrome trace-event JSON (`chrome://tracing`, Perfetto):
/// one `tid` per worker, `X` (complete) spans for sampled iterations and for every blocking
/// wait, `i` (instant) marks for claims, signals and the first park of a wait.
fn chrome_trace_json(report: &TelemetryReport) -> Json {
    let us = |ns: u64| Json::float(ns as f64 / 1000.0);
    let mut events: Vec<Json> = Vec::new();
    for w in &report.workers {
        let tid = w.worker as u64;
        events.push(Json::object([
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::uint(0)),
            ("tid", Json::uint(tid)),
            (
                "args",
                Json::object([("name", Json::str(&format!("worker {}", w.worker)))]),
            ),
        ]));
        let span = |name: &str, t0: u64, t1: u64, iteration: u64, lane: Option<u32>| {
            let mut args = vec![("iteration", Json::uint(iteration))];
            if let Some(lane) = lane {
                args.push(("lane", Json::uint(lane as u64)));
            }
            Json::object([
                ("name", Json::str(name)),
                ("ph", Json::str("X")),
                ("ts", us(t0)),
                ("dur", us(t1.saturating_sub(t0))),
                ("pid", Json::uint(0)),
                ("tid", Json::uint(tid)),
                ("args", Json::object(args)),
            ])
        };
        let instant = |name: &str, t: u64, iteration: u64| {
            Json::object([
                ("name", Json::str(name)),
                ("ph", Json::str("i")),
                ("ts", us(t)),
                ("s", Json::str("t")),
                ("pid", Json::uint(0)),
                ("tid", Json::uint(tid)),
                ("args", Json::object([("iteration", Json::uint(iteration))])),
            ])
        };
        // A ring that overflowed can orphan one begin/end at the seam; unmatched ends are
        // skipped and unmatched begins simply never produce a span.
        let mut iter_start: Option<(u64, u64)> = None;
        let mut wait_stack: Vec<(u32, u64, u64)> = Vec::new();
        for e in &w.events {
            match e.kind {
                EventKind::IterStart => iter_start = Some((e.iteration, e.t_ns)),
                EventKind::IterFinish => {
                    if let Some((it, t0)) = iter_start.take() {
                        if it == e.iteration {
                            events.push(span("iteration", t0, e.t_ns, it, None));
                        }
                    }
                }
                EventKind::WaitBegin => wait_stack.push((e.lane, e.iteration, e.t_ns)),
                EventKind::WaitEnd => {
                    if let Some((lane, it, t0)) = wait_stack.pop() {
                        events.push(span(
                            &format!("wait lane{lane}"),
                            t0,
                            e.t_ns,
                            it,
                            Some(lane),
                        ));
                    }
                }
                EventKind::Claim => events.push(instant("claim", e.t_ns, e.iteration)),
                EventKind::Signal => events.push(instant(
                    &format!("signal lane{}", e.lane),
                    e.t_ns,
                    e.iteration,
                )),
                EventKind::Park => events.push(instant("park", e.t_ns, e.iteration)),
            }
        }
    }
    Json::object([
        ("traceEvents", Json::array(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
}

/// `helix trace`: run the parallelized loop under full telemetry on exactly the requested
/// worker count, report per-segment stall accounting and worker occupancy, export a Chrome
/// trace-event timeline, and — with `--compare-model` — validate the calibrated cost
/// model's per-segment predictions against the observed costs and re-run loop selection
/// with them.
fn cmd_trace(opts: &Options) -> Result<(), CliError> {
    let module = load(opts)?;
    let threads = single_thread_count(opts)?;
    let (_nesting, profile, entry, _image) = profiled(&module, opts)?;
    let config = config_of(opts);
    let output = Helix::new(config).analyze(&module, &profile);
    let (plan, _selected) = output
        .hottest_plan(entry, &profile)
        .ok_or_else(|| CliError::failed("no parallelizable loop of the entry function to trace"))?;
    let key = (plan.func, plan.loop_id);
    let transformed = transform::apply(&module, plan);
    let pimg = ParallelImage::lower(&transformed);
    let mode = TelemetryMode::from_sample_period(opts.sample.unwrap_or(1));
    if !mode.enabled() {
        return Err(CliError::Usage(
            "trace needs telemetry: pass --sample 1 (full) or --sample <n> (sampled), not 0".into(),
        ));
    }
    // Overriding the hardware snapshot keeps the requested worker count even when the
    // host has fewer threads: the trace should show the claim protocol between `threads`
    // (there time-sliced) workers, not the clamped single-worker path.
    let mut executor = ParallelExecutor::from_config(threads, &config).with_telemetry(mode);
    executor.hardware = threads;
    if let Some(spins) = opts.spin_budget {
        executor = executor.with_spin_budget(spins);
    }
    let run = executor.run_parallel_out(&pimg, &opts.args);
    let result = run
        .result
        .map_err(|e| CliError::failed(format!("traced run failed: {e}")))?;
    let report = run
        .report
        .expect("telemetry is enabled (checked above), so a successful run has a report");

    let trace_path = opts.out.clone().unwrap_or_else(|| {
        let file = opts.file.as_deref().unwrap_or("trace");
        let stem = std::path::Path::new(file)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "trace".to_string());
        format!("{stem}.trace.json")
    });
    std::fs::write(&trace_path, chrome_trace_json(&report).into_string())
        .map_err(|e| CliError::failed(format!("cannot write {trace_path}: {e}")))?;

    let observed = report.observed_segment_costs();
    // --compare-model: price the lowered segments with this machine's calibrated cost
    // model and put the prediction next to what the trace actually measured, then re-run
    // loop selection with the observed costs substituted in.
    let comparison = if opts.compare_model {
        let calibration = calibration_of(opts)?;
        let cost = calibration.cost_model();
        let rows = helix_simulator::compare_segment_costs(
            &pimg.loop_image,
            &cost,
            &observed,
            calibration.ns_per_cycle(),
        );
        let measured_config = calibration.helix_config(config);
        let measured_helix = Helix::new(measured_config).with_cost_model(calibration.cost_model());
        let measured_out = measured_helix.analyze(&module, &profile);
        let costs = helix_simulator::observed_costs_for_reselection(
            &module,
            &measured_out,
            &cost,
            key,
            &rows,
        );
        let (reselection, _) =
            measured_helix.reselect_with_segment_costs(&module, &profile, &measured_out, &costs);
        let trace = helix_core::SelectionTrace::compare(&output.selection, &reselection);
        Some((calibration, rows, trace))
    } else {
        None
    };

    if opts.json {
        let render = |v: &Option<Value>| match v {
            Some(Value::Int(i)) => Json::int(*i),
            Some(Value::Float(x)) => Json::float(*x),
            None => Json::str("void"),
        };
        let mut fields = vec![
            ("module", Json::str(&module.name)),
            ("loop", Json::str(&format!("{}", plan.loop_id))),
            ("threads", Json::uint(threads as u64)),
            ("result", render(&result)),
            ("trace_file", Json::str(&trace_path)),
            ("runtime", runtime_json(&report, &executor)),
            (
                "lanes",
                Json::array(report.lanes.iter().map(|l| {
                    Json::object([
                        ("lane", Json::uint(l.lane as u64)),
                        ("dep", Json::str(&format!("{:?}", l.dep))),
                        ("segment", Json::uint(l.segment as u64)),
                        ("waits", Json::uint(l.counters.waits)),
                        ("fast_hits", Json::uint(l.counters.fast_hits)),
                        ("wait_ns", Json::uint(l.counters.wait_ns)),
                        ("parks", Json::uint(l.counters.parks)),
                        ("signals", Json::uint(l.counters.signals)),
                    ])
                })),
            ),
        ];
        if let Some((calibration, rows, trace)) = &comparison {
            fields.push((
                "model_comparison",
                Json::object([
                    ("ns_per_cycle", Json::float(calibration.ns_per_cycle())),
                    (
                        "segments",
                        Json::array(rows.iter().map(|r| {
                            Json::object([
                                ("dep", Json::str(&format!("{:?}", r.dep))),
                                ("segment", Json::uint(r.segment as u64)),
                                ("predicted_cycles", Json::float(r.predicted_cycles)),
                                (
                                    "observed_cycles",
                                    match r.observed_cycles {
                                        Some(c) => Json::float(c),
                                        None => Json::str("unsampled"),
                                    },
                                ),
                                ("observed_samples", Json::uint(r.observed_samples)),
                                (
                                    "ratio",
                                    match r.ratio() {
                                        Some(x) => Json::float(x),
                                        None => Json::str("n/a"),
                                    },
                                ),
                            ])
                        })),
                    ),
                    ("flips", Json::uint(trace.flips().len() as u64)),
                    (
                        "selection_trace",
                        Json::array(trace.entries.iter().map(|e| {
                            Json::object([
                                ("function", Json::str(&module.function(e.key.0).name)),
                                ("loop", Json::str(&e.key.1.to_string())),
                                ("predicted_selected", Json::bool(e.baseline_selected)),
                                ("observed_selected", Json::bool(e.measured_selected)),
                                ("flipped", Json::bool(e.flipped())),
                            ])
                        })),
                    ),
                ]),
            ));
        }
        println!("{}", Json::object(fields).into_string());
    } else {
        let show = |v: &Option<Value>| match v {
            Some(v) => v.to_string(),
            None => "(void)".to_string(),
        };
        println!(
            "traced loop {} of `{}` on {} worker(s), {} telemetry",
            plan.loop_id,
            opts.entry,
            executor.effective_workers(),
            telemetry_mode_name(mode)
        );
        println!("result: {}   ({})", show(&result), executor.clamp_reason());
        print!("{}", report.to_text());
        println!("chrome trace: {trace_path}");
        if let Some((calibration, rows, trace)) = &comparison {
            println!(
                "predicted vs observed segment costs ({:.2} ns/cycle calibrated):",
                calibration.ns_per_cycle()
            );
            println!(
                "  {:<6} {:>8} {:>16} {:>16} {:>8} {:>9}",
                "lane", "segment", "predicted (cyc)", "observed (cyc)", "ratio", "samples"
            );
            for (lane, r) in rows.iter().enumerate() {
                let observed = r
                    .observed_cycles
                    .map(|c| format!("{c:.0}"))
                    .unwrap_or_else(|| "-".to_string());
                let ratio = r
                    .ratio()
                    .map(|x| format!("{x:.2}x"))
                    .unwrap_or_else(|| "-".to_string());
                println!(
                    "  {:<6} {:>8} {:>16.0} {:>16} {:>8} {:>9}",
                    lane, r.segment, r.predicted_cycles, observed, ratio, r.observed_samples
                );
            }
            let flips = trace.flips().len();
            println!(
                "selection under observed costs: {} flip(s) against the model's selection",
                flips
            );
            for e in trace.flips() {
                println!(
                    "  {}/{}: model {} -> observed {}",
                    module.function(e.key.0).name,
                    e.key.1,
                    if e.baseline_selected {
                        "selected"
                    } else {
                        "rejected"
                    },
                    if e.measured_selected {
                        "selected"
                    } else {
                        "rejected"
                    },
                );
            }
        }
    }
    Ok(())
}

fn cmd_profile(opts: &Options) -> Result<(), CliError> {
    let module = load(opts)?;
    let (nesting, profile, _entry, _image) = profiled(&module, opts)?;
    let mut loops: Vec<_> = profile.loops.iter().collect();
    loops.sort_by_key(|(key, lp)| (std::cmp::Reverse(lp.cycles), **key));
    if opts.json {
        let loop_docs = loops.iter().map(|((func, loop_id), lp)| {
            Json::object([
                ("function", Json::str(&module.function(*func).name)),
                ("loop", Json::str(&loop_id.to_string())),
                ("invocations", Json::uint(lp.invocations)),
                ("iterations", Json::uint(lp.iterations)),
                ("cycles", Json::uint(lp.cycles)),
                (
                    "time_fraction",
                    Json::float(profile.loop_time_fraction((*func, *loop_id))),
                ),
            ])
        });
        let doc = Json::object([
            ("module", Json::str(&module.name)),
            ("total_cycles", Json::uint(profile.total_cycles)),
            (
                "cycles_outside_loops",
                Json::uint(profile.cycles_outside_loops),
            ),
            ("candidate_loops", Json::uint(nesting.len() as u64)),
            ("loops", Json::array(loop_docs)),
        ]);
        println!("{}", doc.into_string());
    } else {
        println!(
            "profiled `{}`: {} total cycles, {} outside loops, {} candidate loops",
            module.name,
            profile.total_cycles,
            profile.cycles_outside_loops,
            nesting.len()
        );
        println!(
            "{:<24} {:>12} {:>12} {:>14} {:>8}",
            "loop", "invocations", "iterations", "cycles", "time"
        );
        for ((func, loop_id), lp) in loops {
            println!(
                "{:<24} {:>12} {:>12} {:>14} {:>7.1}%",
                format!("{}/{}", module.function(*func).name, loop_id),
                lp.invocations,
                lp.iterations,
                lp.cycles,
                profile.loop_time_fraction((*func, *loop_id)) * 100.0
            );
        }
    }
    Ok(())
}

/// Runs profile + HELIX analysis (shared by `parallelize` and `simulate`).
fn analysis_of(module: &Module, opts: &Options) -> Result<(ProgramProfile, HelixOutput), CliError> {
    let (_nesting, profile, _entry, _image) = profiled(module, opts)?;
    let output = Helix::new(config_of(opts)).analyze(module, &profile);
    Ok((profile, output))
}

/// Obtains the calibration profile: loaded from `--calibration-file` when the file exists,
/// measured fresh otherwise (and saved to the file when a path was given).
fn calibration_of(opts: &Options) -> Result<helix_runtime::CalibrationProfile, CliError> {
    if let Some(path) = &opts.calibration_file {
        if std::path::Path::new(path).exists() {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::failed(format!("cannot read {path}: {e}")))?;
            return helix_runtime::CalibrationProfile::from_text(&text)
                .map_err(|e| CliError::failed(format!("{path}: {e}")));
        }
    }
    let profile = helix_runtime::CalibrationProfile::measure();
    if let Some(path) = &opts.calibration_file {
        std::fs::write(path, profile.to_text())
            .map_err(|e| CliError::failed(format!("cannot write {path}: {e}")))?;
    }
    Ok(profile)
}

/// `parallelize --calibrate`: run the analysis twice — once with the paper's constants,
/// once priced by the measured calibration (with plans re-scored from their lowered
/// runtime images) — and report the selection trace of loops whose decision flipped.
fn cmd_parallelize_calibrated(opts: &Options, module: &Module) -> Result<(), CliError> {
    let calibration = calibration_of(opts)?;
    let (_nesting, profile, _entry, _image) = profiled(module, opts)?;
    let paper_config = config_of(opts);
    let paper = Helix::new(paper_config).analyze(module, &profile);
    let measured_config = calibration.helix_config(paper_config);
    let measured_helix = Helix::new(measured_config).with_cost_model(calibration.cost_model());
    let measured_out = measured_helix.analyze(module, &profile);
    // Feedback step: re-score every candidate plan with the per-segment costs of its
    // actual lowered ParallelImage (post-fusion) and re-select.
    let (final_selection, _) = helix_simulator::feedback_selection(
        module,
        &profile,
        &measured_helix,
        &measured_out,
        &calibration.cost_model(),
    );
    let trace = helix_core::SelectionTrace::compare(&paper.selection, &final_selection);
    let flips = trace.flips().len();

    if opts.json {
        let entries = trace.entries.iter().map(|e| {
            Json::object([
                ("function", Json::str(&module.function(e.key.0).name)),
                ("loop", Json::str(&e.key.1.to_string())),
                ("paper_selected", Json::bool(e.baseline_selected)),
                ("measured_selected", Json::bool(e.measured_selected)),
                ("paper_saved_cycles", Json::float(e.baseline_saved)),
                ("measured_saved_cycles", Json::float(e.measured_saved)),
                ("flipped", Json::bool(e.flipped())),
            ])
        });
        let doc = Json::object([
            ("module", Json::str(&module.name)),
            ("cores", Json::uint(opts.cores as u64)),
            (
                "calibration",
                Json::object([
                    ("alu_ns", Json::float(calibration.alu_ns)),
                    ("mul_ns", Json::float(calibration.mul_ns)),
                    ("div_ns", Json::float(calibration.div_ns)),
                    ("load_ns", Json::float(calibration.load_ns)),
                    ("store_ns", Json::float(calibration.store_ns)),
                    (
                        "signal_observe_ns",
                        Json::float(calibration.signal_observe_ns),
                    ),
                    (
                        "signal_publish_ns",
                        Json::float(calibration.signal_publish_ns),
                    ),
                    ("signal_poll_ns", Json::float(calibration.signal_poll_ns)),
                    ("pool_wake_ns", Json::float(calibration.pool_wake_ns)),
                    (
                        "hardware_threads",
                        Json::uint(calibration.hardware_threads as u64),
                    ),
                    (
                        "signal_latency_cycles",
                        Json::uint(measured_config.signal_latency_unprefetched),
                    ),
                    (
                        "signal_latency_prefetched_cycles",
                        Json::uint(measured_config.signal_latency_prefetched),
                    ),
                    (
                        "paper_signal_latency_cycles",
                        Json::uint(paper_config.signal_latency_unprefetched),
                    ),
                ]),
            ),
            (
                "paper_selected_loops",
                Json::uint(paper.selection.len() as u64),
            ),
            (
                "measured_selected_loops",
                Json::uint(final_selection.len() as u64),
            ),
            ("flips", Json::uint(flips as u64)),
            ("selection_trace", Json::array(entries)),
        ]);
        println!("{}", doc.into_string());
    } else {
        println!(
            "calibrated `{}` on {} hardware thread(s): signal {:.0}ns observed cross-thread \
             ({} model cycles; paper assumed {}), {:.0}ns prefetched-poll ({} cycles; paper {}), \
             pool wake {:.0}ns, dispatch tier {} ({:.1}ns/op alu; jit {:.1} / threaded {:.1} / \
             switch {:.1})",
            module.name,
            calibration.hardware_threads,
            calibration.signal_observe_ns,
            measured_config.signal_latency_unprefetched,
            paper_config.signal_latency_unprefetched,
            calibration.signal_poll_ns,
            measured_config.signal_latency_prefetched,
            paper_config.signal_latency_prefetched,
            calibration.pool_wake_ns,
            calibration.selected_tier(),
            calibration.dispatch_ns(helix_runtime::DispatchTier::Auto)[0],
            calibration.alu_jit_ns,
            calibration.alu_threaded_ns,
            calibration.alu_ns,
        );
        println!(
            "selection trace (paper-constant vs measured-cost pricing, {} flip(s)):",
            flips
        );
        println!(
            "  {:<24} {:>8} {:>8} {:>16} {:>16}",
            "loop", "paper", "measured", "paper T (cyc)", "measured T (cyc)"
        );
        for e in &trace.entries {
            let mark = |b: bool| if b { "yes" } else { "-" };
            let flip = if e.flipped() { "  <- FLIP" } else { "" };
            println!(
                "  {:<24} {:>8} {:>8} {:>16.0} {:>16.0}{}",
                format!("{}/{}", module.function(e.key.0).name, e.key.1),
                mark(e.baseline_selected),
                mark(e.measured_selected),
                e.baseline_saved,
                e.measured_saved,
                flip
            );
        }
        if flips == 0 {
            println!("  (no loop flips on this machine: measured and paper pricing agree)");
        }
    }
    Ok(())
}

fn cmd_parallelize(opts: &Options) -> Result<(), CliError> {
    let module = load(opts)?;
    if opts.calibrate {
        return cmd_parallelize_calibrated(opts, &module);
    }
    let (profile, output) = analysis_of(&module, opts)?;
    let stats = output.statistics();
    if opts.json {
        let plans = output.plans.iter().map(|(key, plan)| {
            Json::object([
                ("function", Json::str(&module.function(key.0).name)),
                ("loop", Json::str(&key.1.to_string())),
                ("selected", Json::bool(output.selection.is_selected(*key))),
                ("segments", Json::uint(plan.segments.len() as u64)),
                (
                    "synchronized_segments",
                    Json::uint(plan.synchronized_segments() as u64),
                ),
                ("cycles_per_iter", Json::float(plan.total_cycles_per_iter)),
                (
                    "sequential_fraction",
                    Json::float(plan.sequential_fraction()),
                ),
                (
                    "signals_before",
                    Json::uint(plan.signals_before_minimization),
                ),
                ("signals_after", Json::uint(plan.signals_after_minimization)),
                (
                    "loop_carried_fraction",
                    Json::float(
                        output
                            .loop_carried_fraction
                            .get(key)
                            .copied()
                            .unwrap_or(0.0),
                    ),
                ),
                (
                    "nesting_depth",
                    Json::uint(output.nesting_depth.get(key).copied().unwrap_or(0) as u64),
                ),
            ])
        });
        let doc = Json::object([
            ("module", Json::str(&module.name)),
            ("cores", Json::uint(opts.cores as u64)),
            ("candidate_loops", Json::uint(output.plans.len() as u64)),
            ("selected_loops", Json::uint(output.selection.len() as u64)),
            (
                "estimated_speedup",
                Json::float(output.estimated_speedup(opts.mode)),
            ),
            ("program_cycles", Json::uint(profile.total_cycles)),
            (
                "loop_carried_dep_fraction",
                Json::float(stats.loop_carried_dep_fraction),
            ),
            (
                "signals_removed_fraction",
                Json::float(stats.signals_removed_fraction),
            ),
            ("max_code_kb", Json::float(stats.max_code_kb)),
            ("plans", Json::array(plans)),
        ]);
        println!("{}", doc.into_string());
    } else {
        println!(
            "HELIX analysis of `{}` on {} cores: {} candidate loops, {} selected",
            module.name,
            opts.cores,
            output.plans.len(),
            output.selection.len()
        );
        for (key, plan) in &output.plans {
            let marker = if output.selection.is_selected(*key) {
                "*"
            } else {
                " "
            };
            println!(
                " {marker} {}/{}: {} segments ({} synchronized), {:.0} cycles/iter, {:.0}% sequential, signals {} -> {}",
                module.function(key.0).name,
                key.1,
                plan.segments.len(),
                plan.synchronized_segments(),
                plan.total_cycles_per_iter,
                plan.sequential_fraction() * 100.0,
                plan.signals_before_minimization,
                plan.signals_after_minimization,
            );
        }
        println!("(* = selected by the Section 2.2 algorithm)");
        println!(
            "estimated whole-program speedup: {:.2}x",
            output.estimated_speedup(opts.mode)
        );
    }
    Ok(())
}

fn cmd_simulate(opts: &Options) -> Result<(), CliError> {
    let module = load(opts)?;
    let (profile, output) = analysis_of(&module, opts)?;
    let sim_config = SimConfig {
        helix: config_of(opts),
        mode: opts.mode,
    };
    let mut sim = simulate_program(&output, &profile, &sim_config);
    if opts.lowered_costs {
        // Re-price each selected loop's segments from the lowered runtime bytecode (the
        // costs the ParallelImage dispatch actually implies) and rebuild the program total.
        let mut saved = 0.0;
        for (key, result) in sim.loops.iter_mut() {
            let Some(plan) = output.plans.get(key) else {
                continue;
            };
            let transformed = helix_core::transform::apply(&module, plan);
            let pimg = ParallelImage::lower(&transformed);
            let lp = profile.loop_profile(*key);
            *result =
                helix_simulator::simulate_loop_lowered(plan, &lp, &sim_config, &pimg.loop_image);
            saved += result.sequential_cycles - result.parallel_cycles;
        }
        sim.parallel_cycles = (sim.sequential_cycles - saved).max(1.0);
        sim.speedup = sim.sequential_cycles / sim.parallel_cycles;
    }
    if opts.json {
        let loops = sim.loops.iter().map(|(key, r)| {
            Json::object([
                ("function", Json::str(&module.function(key.0).name)),
                ("loop", Json::str(&key.1.to_string())),
                ("sequential_cycles", Json::float(r.sequential_cycles)),
                ("parallel_cycles", Json::float(r.parallel_cycles)),
                ("speedup", Json::float(r.speedup)),
                ("signals_sent", Json::float(r.signals_sent)),
                ("words_transferred", Json::float(r.words_transferred)),
            ])
        });
        let doc = Json::object([
            ("module", Json::str(&module.name)),
            ("cores", Json::uint(opts.cores as u64)),
            (
                "mode",
                Json::str(&format!("{:?}", opts.mode).to_lowercase()),
            ),
            ("sequential_cycles", Json::float(sim.sequential_cycles)),
            ("parallel_cycles", Json::float(sim.parallel_cycles)),
            ("speedup", Json::float(sim.speedup)),
            (
                "model_speedup",
                Json::float(output.estimated_speedup(opts.mode)),
            ),
            ("selected_loops", Json::uint(output.selection.len() as u64)),
            ("loops", Json::array(loops)),
        ]);
        println!("{}", doc.into_string());
    } else {
        println!(
            "simulated `{}` on {} cores ({:?} prefetching):",
            module.name, opts.cores, opts.mode
        );
        println!(
            "  sequential: {:>14.0} cycles\n  parallel:   {:>14.0} cycles",
            sim.sequential_cycles, sim.parallel_cycles
        );
        println!(
            "  speedup:    {:>14.2}x   (analytic model estimate: {:.2}x)",
            sim.speedup,
            output.estimated_speedup(opts.mode)
        );
        for (key, r) in &sim.loops {
            println!(
                "    loop {}/{}: {:.2}x ({:.0} -> {:.0} cycles, {:.0} signals, {:.0} words moved)",
                module.function(key.0).name,
                key.1,
                r.speedup,
                r.sequential_cycles,
                r.parallel_cycles,
                r.signals_sent,
                r.words_transferred
            );
        }
    }
    Ok(())
}

/// A fuzz sweep's parallel-stage totals.
#[derive(Debug, Default, PartialEq, Eq)]
struct ParallelTally {
    /// Seeds that reached the parallel executor.
    eligible: u64,
    /// Parallel executions performed.
    runs: u64,
}

impl ParallelTally {
    /// Counts one seed's oracle outcome. A seed that diverged in the parallel stage reached
    /// the executor, and the runs it completed before (and including) the divergence count.
    fn record(&mut self, outcome: &Result<helix_gen::OracleReport, helix_gen::Divergence>) {
        match outcome {
            Ok(report) => {
                self.runs += report.parallel_runs as u64;
                self.eligible += u64::from(!report.parallel_skipped);
            }
            Err(divergence) => {
                self.runs += divergence.parallel_runs as u64;
                self.eligible += u64::from(divergence.kind.is_parallel());
            }
        }
    }
}

/// `helix fuzz`: run a seed range of generated programs through the differential oracle,
/// shrink and dump any divergence as a `.hir` repro, and fail if anything diverged.
fn cmd_fuzz(opts: &Options) -> Result<(), CliError> {
    use helix_gen::{
        compact_registers, differential_check, generate, shrink_module, GenConfig, OracleConfig,
        ShrinkOptions,
    };

    if opts.file.is_some() {
        return Err(CliError::Usage(
            "fuzz takes no input file; it generates its own programs".into(),
        ));
    }
    let gen_config = match opts.gen_config.as_str() {
        "small" => GenConfig::small(),
        "pointer-heavy" => GenConfig::pointer_heavy(),
        "roundtrip" => GenConfig::roundtrip(),
        _ => GenConfig::fuzz(),
    };
    let inject = opts.inject_fault.is_some();
    let mut helix_config = config_of(opts);
    if opts.spin_budget.is_none() {
        // Keep the oracle's tight deadlock detector: a genuine lost-signal bug should fail
        // a seed in milliseconds, not spin the production 200M-yield budget on every one of
        // thousands of shrink candidates. `--spin-budget` still overrides.
        helix_config = helix_config.with_spin_budget(20_000_000);
    }
    if inject {
        helix_config = helix_config.with_unsound_union_merge();
    }
    // What the host could actually run: a worker count above the hardware thread count
    // is executed by time-slicing, so "0 divergences" at that count exercises the
    // protocol's logic but says nothing about real concurrency.
    let hardware = helix_runtime::detect_hardware_threads();
    let time_sliced = |workers: usize| workers > hardware;
    let oracle = OracleConfig {
        threads: opts.threads.clone().unwrap_or_else(|| vec![1, 2, 4, 6]),
        repeats: opts.repeats,
        fuel: opts.fuel,
        // Under fault injection the structural signal-placement check is the deterministic
        // detector; the parallel stage would only add racy noise on a known-broken config.
        check_parallel: !inject,
        dispatch_tier: opts.dispatch_tier.unwrap_or_default(),
        helix: helix_config,
        ..OracleConfig::default()
    };

    let mut divergences: Vec<(u64, String)> = Vec::new();
    let mut repro_paths: Vec<String> = Vec::new();
    let mut total_instrs: u64 = 0;
    let mut parallel = ParallelTally::default();
    let mut errored: u64 = 0;
    for seed in opts.seed_start..opts.seed_start.saturating_add(opts.seeds) {
        let gp = generate(seed, &gen_config);
        total_instrs += gp.module.instr_count() as u64;
        let outcome = differential_check(&gp.module, gp.main, &oracle);
        parallel.record(&outcome);
        match outcome {
            Ok(report) => {
                if report.errored {
                    errored += 1;
                }
            }
            Err(divergence) => {
                let mut repro = gp.module.clone();
                let mut shrink_stats = None;
                if opts.shrink {
                    let kind = divergence.kind;
                    let mut still_failing = |candidate: &helix_ir::Module| {
                        let Some(main) = candidate.function_by_name("main") else {
                            return false;
                        };
                        // Candidate modules can contain accidental infinite loops (a
                        // simplified branch that never exits); a tight probe fuel keeps
                        // each predicate call cheap while staying far above any generated
                        // program's real dynamic length.
                        let probe = OracleConfig {
                            repeats: 1,
                            fuel: oracle.fuel.min(2_000_000),
                            ..oracle.clone()
                        };
                        matches!(
                            differential_check(candidate, main, &probe),
                            Err(d) if d.kind == kind
                        )
                    };
                    let outcome = shrink_module(
                        &gp.module,
                        "main",
                        &mut still_failing,
                        &ShrinkOptions::default(),
                    );
                    repro = outcome.module;
                    shrink_stats = Some(outcome.stats);
                }
                compact_registers(&mut repro);
                let path = write_repro(opts, seed, &divergence, &repro, shrink_stats.as_ref())?;
                eprintln!("seed {seed}: DIVERGENCE {divergence} -> {path}");
                repro_paths.push(path);
                divergences.push((seed, divergence.to_string()));
            }
        }
    }

    if opts.json {
        let diverged = divergences
            .iter()
            .zip(&repro_paths)
            .map(|((seed, d), path)| {
                Json::object([
                    ("seed", Json::uint(*seed)),
                    ("divergence", Json::str(d)),
                    ("repro", Json::str(path)),
                ])
            });
        let doc = Json::object([
            ("seeds", Json::uint(opts.seeds)),
            ("seed_start", Json::uint(opts.seed_start)),
            ("gen_config", Json::str(&opts.gen_config)),
            ("generated_instrs", Json::uint(total_instrs)),
            ("hardware_threads", Json::uint(hardware as u64)),
            (
                "threads",
                Json::array(oracle.threads.iter().map(|&workers| {
                    let mode = if time_sliced(workers) {
                        "time-sliced"
                    } else {
                        "concurrent"
                    };
                    Json::object([
                        ("workers", Json::uint(workers as u64)),
                        ("mode", Json::str(mode)),
                    ])
                })),
            ),
            ("parallel_eligible_seeds", Json::uint(parallel.eligible)),
            ("parallel_runs", Json::uint(parallel.runs)),
            ("errored_seeds", Json::uint(errored)),
            ("divergences", Json::uint(divergences.len() as u64)),
            ("repros", Json::array(diverged)),
            ("injected_fault", Json::bool(inject)),
        ]);
        println!("{}", doc.into_string());
    } else {
        println!(
            "fuzzed {} seeds [{}, {}) with the `{}` generator: {} instructions generated, \
             {} seeds parallel-eligible, {} parallel runs, {} seeds faulted on both engines",
            opts.seeds,
            opts.seed_start,
            opts.seed_start.saturating_add(opts.seeds),
            opts.gen_config,
            total_instrs,
            parallel.eligible,
            parallel.runs,
            errored,
        );
        let counts: Vec<String> = oracle
            .threads
            .iter()
            .map(|&workers| {
                if time_sliced(workers) {
                    format!("{workers} (time-sliced)")
                } else {
                    workers.to_string()
                }
            })
            .collect();
        println!(
            "hardware_threads: {hardware}; worker counts: {}",
            counts.join(", ")
        );
        if divergences.is_empty() {
            println!("{}", clean_sweep_line(&oracle.threads, hardware));
        } else {
            println!("{} DIVERGENCES:", divergences.len());
            for ((seed, d), path) in divergences.iter().zip(&repro_paths) {
                println!("  seed {seed}: {d} (repro: {path})");
            }
        }
    }
    if divergences.is_empty() {
        Ok(())
    } else {
        Err(CliError::failed(format!(
            "{} of {} seeds diverged; shrunk repros under {}",
            divergences.len(),
            opts.seeds,
            fuzz_out_dir(opts)
        )))
    }
}

/// The verdict of a sweep without divergences. It names the worker counts that ran
/// concurrently apart from those the host only time-sliced, whose clean result checks
/// the protocol's logic but not its behaviour under real concurrency.
fn clean_sweep_line(threads: &[usize], hardware: usize) -> String {
    let list = |sliced: bool| {
        threads
            .iter()
            .filter(|&&w| (w > hardware) == sliced)
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    let (concurrent, sliced) = (list(false), list(true));
    match (concurrent.is_empty(), sliced.is_empty()) {
        (false, true) => format!("no divergences at {concurrent} worker(s), all run concurrently"),
        (false, false) => format!(
            "no divergences at {concurrent} worker(s) run concurrently; \
             at {sliced} worker(s) only time-sliced on {hardware} hardware thread(s)"
        ),
        (true, _) => format!(
            "no divergences, but only time-sliced: {sliced} worker(s) on {hardware} hardware \
             thread(s), none run concurrently"
        ),
    }
}

/// The fuzz repro directory (`--out`, default `fuzz-repros`).
fn fuzz_out_dir(opts: &Options) -> &str {
    opts.out.as_deref().unwrap_or("fuzz-repros")
}

/// Writes a shrunk repro as an annotated `.hir` file and returns its path.
fn write_repro(
    opts: &Options,
    seed: u64,
    divergence: &helix_gen::Divergence,
    repro: &Module,
    shrink_stats: Option<&helix_gen::ShrinkStats>,
) -> Result<String, CliError> {
    let out_dir = fuzz_out_dir(opts);
    std::fs::create_dir_all(out_dir)
        .map_err(|e| CliError::failed(format!("cannot create {out_dir}: {e}")))?;
    let path = format!("{}/seed{}-{}.hir", out_dir, seed, divergence.kind.name());
    let mut text = String::new();
    text.push_str(&format!(
        "# helix fuzz divergence repro\n# seed: {seed} (generator preset: {})\n# divergence: {divergence}\n",
        opts.gen_config
    ));
    if let Some(stats) = shrink_stats {
        text.push_str(&format!(
            "# shrunk: {} -> {} instructions ({} oracle calls, {} rounds)\n",
            stats.instrs_before, stats.instrs_after, stats.oracle_calls, stats.rounds
        ));
    }
    if let Some(fault) = &opts.inject_fault {
        text.push_str(&format!("# injected fault: {fault}\n"));
    }
    text.push_str("# reproduce: helix fuzz --seeds 1 --seed-start <seed>, or feed this file to helix run/parallelize\n");
    text.push_str(&helix_ir::printer::format_module(repro));
    std::fs::write(&path, &text)
        .map_err(|e| CliError::failed(format!("cannot write {path}: {e}")))?;
    Ok(path)
}

fn cmd_dump_workload(args: &[String]) -> Result<(), CliError> {
    let available = || {
        helix_workloads::all_benchmarks()
            .iter()
            .map(|b| b.name)
            .collect::<Vec<_>>()
            .join(", ")
    };
    let Some(name) = args.first() else {
        return Err(CliError::Usage(format!(
            "dump-workload requires a name (available: {})",
            available()
        )));
    };
    let bench = helix_workloads::all_benchmarks()
        .into_iter()
        .find(|b| b.name == *name)
        .ok_or_else(|| {
            CliError::failed(format!(
                "unknown workload `{name}` (available: {})",
                available()
            ))
        })?;
    let (module, _main) = bench.build();
    print!("{}", printer::format_module(&module));
    Ok(())
}

/// `helix serve`: the long-running daemon (see `docs/service.md` for the protocol).
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    use helix_service::{ServeConfig, Server};

    let mut config = ServeConfig::default();
    let mut socket: Option<std::path::PathBuf> = None;
    let mut stdio = false;
    let mut it = args.iter();
    fn value_of(flag: &str, it: &mut std::slice::Iter<'_, String>) -> Result<String, CliError> {
        it.next()
            .cloned()
            .ok_or_else(|| CliError::Usage(format!("{flag} requires a value")))
    }
    fn number(flag: &str, it: &mut std::slice::Iter<'_, String>) -> Result<u64, CliError> {
        value_of(flag, it)?
            .parse()
            .map_err(|_| CliError::Usage(format!("{flag} expects a positive integer")))
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => socket = Some(value_of("--socket", &mut it)?.into()),
            "--stdio" => stdio = true,
            "--cache-cap" => config.cache_cap = number("--cache-cap", &mut it)?.max(1) as usize,
            "--service-threads" => {
                config.service_threads = number("--service-threads", &mut it)?.max(1) as usize
            }
            "--threads" => config.default_threads = number("--threads", &mut it)?.max(1) as usize,
            "--max-iterations" => config.max_iterations = number("--max-iterations", &mut it)?,
            "--fuel" => config.fuel = number("--fuel", &mut it)?,
            "--no-calibrate" => config.calibrate = false,
            other => return Err(CliError::Usage(format!("unknown serve option `{other}`"))),
        }
    }
    if stdio && socket.is_some() {
        return Err(CliError::Usage(
            "--stdio and --socket are mutually exclusive".into(),
        ));
    }

    if config.calibrate {
        eprintln!("helix serve: calibrating runtime costs...");
    }
    let server = Server::new(config.clone());
    eprintln!(
        "helix serve: ready ({} mode; cache cap {}, {} service thread(s), {} worker(s) per job)",
        match &socket {
            Some(p) => format!("socket {}", p.display()),
            None => "stdio".to_string(),
        },
        config.cache_cap,
        config.service_threads,
        config.default_threads,
    );
    match socket {
        Some(path) => {
            let _ = std::fs::remove_file(&path);
            let result = server.serve_unix(&path);
            let _ = std::fs::remove_file(&path);
            result.map_err(|e| {
                CliError::failed(format!("serve on socket {}: {e}", path.display()))
            })?;
        }
        None => {
            let stdin = std::io::stdin().lock();
            server.serve_connection(stdin, std::io::stdout());
        }
    }
    let cache = server.cache_stats();
    let jobs = server.job_stats();
    eprintln!(
        "helix serve: shutdown (jobs: {} ok, {} failed, {} panicked, {} expired; \
         cache: {} hits, {} misses, {} evictions)",
        jobs.ok,
        jobs.failed,
        jobs.panicked,
        jobs.deadline,
        cache.hits,
        cache.misses,
        cache.evictions,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::ParallelTally;
    use helix_gen::{Divergence, DivergenceKind, OracleReport};

    #[test]
    fn a_parallel_divergence_counts_as_eligible_with_its_runs() {
        let mut tally = ParallelTally::default();
        tally.record(&Ok(OracleReport {
            parallel_runs: 8,
            parallel_skipped: false,
            ..OracleReport::default()
        }));
        tally.record(&Ok(OracleReport {
            parallel_skipped: true,
            ..OracleReport::default()
        }));
        // The sweep's only failure diverged on its third parallel run.
        tally.record(&Err(Divergence {
            kind: DivergenceKind::ParallelResult,
            detail: "2 threads: sequential=1 parallel=2".into(),
            parallel_runs: 3,
        }));
        // An earlier stage never reached the executor.
        tally.record(&Err(Divergence {
            kind: DivergenceKind::Profile,
            detail: "profiles differ between engines".into(),
            parallel_runs: 0,
        }));
        assert_eq!(
            tally,
            ParallelTally {
                eligible: 2,
                runs: 11
            }
        );
    }
}
