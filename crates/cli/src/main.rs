//! The `helix` command-line driver.
//!
//! Loads textual HIR programs (`.hir`, see `docs/hir-grammar.md`) through `helix-frontend`
//! and drives the full reproduction pipeline on them:
//!
//! * `helix parse` — parse + verify, report module shape (or re-print the canonical form),
//! * `helix run` — execute sequentially, or in parallel after the HELIX transformation,
//! * `helix profile` — run the profiling interpreter and report per-loop costs,
//! * `helix simulate` — the Figure 9 flow: profile, analyze, simulate, report speedup,
//! * `helix explain` — the HELIX analysis (Steps 1–8 + loop selection) and why each
//!   candidate loop was (not) selected: its plan, its decision under the paper's constants
//!   and under this machine's calibration (lowered and observed segment spans), with every
//!   segment's estimate, lowered span and observed span (see `docs/observability.md`),
//! * `helix trace` — run the parallelized loop with full runtime telemetry and export a
//!   Chrome trace-event timeline,
//! * `helix dump-workload` — export a built-in synthetic SPEC stand-in as `.hir`,
//! * `helix fuzz` — generate seeded random programs and differentially test the whole stack
//!   (both engines, both profilers, frontend round-trip, parallel executor), dumping any
//!   divergence as an auto-shrunk `.hir` reproduction.
//!
//! Every report is available as human-readable text (default) or JSON (`--json`).

mod json;

use helix_analysis::LoopNestingGraph;
use helix_core::{transform, Helix, HelixConfig, PrefetchMode};
use helix_frontend::parse_file;
use helix_ir::{printer, ExecImage, ImageMachine, Module, Value};
use helix_profiler::{profile_image_with_fuel, ProgramProfile};
use helix_runtime::{
    CalibrationProfile, EventKind, ParallelExecutor, ParallelImage, TelemetryMode, TelemetryReport,
};
use helix_simulator::{simulate_program, Decision, SimConfig};
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
    simulate       Profile, analyze and simulate: the end-to-end speedup report
    explain        The HELIX analysis: each candidate loop's plan and why it was (not)
                   selected, paper pricing against this machine's calibration over
                   lowered and observed segment spans, with each segment's estimate,
                   lowered span and observed span
    trace          Execute the parallelized loop with runtime telemetry: per-segment
                   stall accounting and a Chrome trace-event timeline
    dump-workload  Print a built-in synthetic workload as canonical .hir
    fuzz           Differentially fuzz the stack with generated programs
    serve          Run the daemon: accept .hir jobs over a Unix socket or framed
                   stdin/stdout, with a content-hash image cache and shared-pool
                   scheduling (protocol: docs/service.md)

COMMON OPTIONS:
    --json             Emit the report as JSON on stdout
    --entry <name>     Entry function (default: main)
    --cores <n>        Core count for simulate/explain (default: 6); run
                       --parallel and trace analyse at their --threads count
    --mode <m>         Prefetching mode: helix|none|matched|ideal (default: helix)
    --arg <int>        Append an integer argument for the entry function (repeatable)
    --fuel <n>         Interpreter fuel limit for any interpreted run (default: 2000000000)
    --print            (parse) Re-print the parsed module in canonical form
    --parallel         (run) Transform the hottest selected loop (else the hottest
                       candidate), run on real threads
    --calibration-file <p>  (explain) Load the calibration from <p> if it exists, else
                       measure this machine and write the profile there
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
    helix explain corpus/nest_flip.hir
    helix trace corpus/nest_flip.hir --threads 2
    helix fuzz --seeds 500 --threads 1,2,4,6 --dispatch-tier jit
    helix dump-workload art > /tmp/art.hir
    helix serve --socket /tmp/helix.sock --cache-cap 32
";

/// Lets a closed stdout end the process the way it ends `cat`: by `SIGPIPE`, quietly.
/// The Rust runtime ignores `SIGPIPE`, so a write to a closed pipe returns `EPIPE` and
/// `println!` panics with a backtrace instead.
#[cfg(unix)]
fn die_quietly_on_closed_pipe() {
    extern "C" {
        fn signal(signum: std::ffi::c_int, handler: usize) -> usize;
    }
    const SIGPIPE: std::ffi::c_int = 13;
    const SIG_DFL: usize = 0;
    // SAFETY: `signal` is the C library's documented call; it takes two plain integers,
    // changes only this process's disposition for `SIGPIPE` and runs before any other
    // thread exists.
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn die_quietly_on_closed_pipe() {}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A daemon must outlive a client that hangs up mid-reply, so `serve` keeps `EPIPE`.
    if args.first().map(String::as_str) != Some("serve") {
        die_quietly_on_closed_pipe();
    }
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
    calibration_file: Option<String>,
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
            calibration_file: None,
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
            "--calibration-file" => {
                opts.calibration_file = Some(value_of("--calibration-file", &mut it)?);
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
        "simulate" => cmd_simulate(&parse_options(&args[1..])?),
        "explain" => cmd_explain(&parse_options(&args[1..])?),
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

/// Profiles the program (shared by profile/simulate/explain/run --parallel) on the
/// runtime's engine, honouring the `--fuel` limit like every other interpreted run the CLI
/// performs. The lowered image comes back for callers that run the program again.
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
    let profile = profile_image_with_fuel(&image, &nesting, entry, &opts.args, opts.fuel)
        .map_err(|e| CliError::failed(format!("profiling run failed: {e}")))?;
    Ok((nesting, profile, entry, image))
}

fn config_of(opts: &Options) -> HelixConfig {
    HelixConfig::i7_980x().with_cores(opts.cores)
}

/// An executor of `threads` workers under `--spin-budget`, when given.
fn executor_of(opts: &Options, threads: usize) -> ParallelExecutor {
    let executor = ParallelExecutor::new(threads);
    match opts.spin_budget {
        Some(spins) => executor.with_spin_budget(spins),
        None => executor,
    }
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

/// `run --parallel`: transform the plan chosen at the requested worker count (see
/// [`HelixOutput::hottest_plan`]) and execute it on real threads, validating against the
/// sequential result.
fn run_parallel(module: &Module, opts: &Options) -> Result<(), CliError> {
    let threads = single_thread_count(opts)?;
    let (_nesting, profile, entry, image) = profiled(module, opts)?;
    let output = Helix::new(HelixConfig::i7_980x().with_cores(threads)).analyze(module, &profile);
    let (plan, selected) = output
        .hottest_plan(entry, &profile)
        .ok_or_else(|| CliError::failed("no parallelizable loop of the entry function"))?;
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
    let executor = executor_of(opts, threads)
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
            ("selected", Json::bool(selected)),
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
            "parallelized loop {} of `{}` on {} threads ({} waits, {} signals inserted; {})",
            plan.loop_id,
            opts.entry,
            threads,
            transformed.wait_instr_count(),
            transformed.signal_instr_count(),
            if selected {
                "selected"
            } else {
                "hottest candidate, not selected"
            }
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

/// `helix trace`: run the plan chosen at the requested worker count under full telemetry
/// on exactly that many workers, report per-segment stall accounting and worker
/// occupancy, and export a Chrome trace-event timeline.
fn cmd_trace(opts: &Options) -> Result<(), CliError> {
    let module = load(opts)?;
    let threads = single_thread_count(opts)?;
    let (_nesting, profile, entry, _image) = profiled(&module, opts)?;
    let output = Helix::new(HelixConfig::i7_980x().with_cores(threads)).analyze(&module, &profile);
    let (plan, _selected) = output
        .hottest_plan(entry, &profile)
        .ok_or_else(|| CliError::failed("no parallelizable loop of the entry function to trace"))?;
    let pimg = ParallelImage::lower(&transform::apply(&module, plan));
    let mode = TelemetryMode::from_sample_period(opts.sample.unwrap_or(1));
    if !mode.enabled() {
        return Err(CliError::Usage(
            "trace needs telemetry: pass --sample 1 (full) or --sample <n> (sampled), not 0".into(),
        ));
    }
    // Overriding the hardware snapshot keeps the requested worker count even when the
    // host has fewer threads: the trace should show the claim protocol between `threads`
    // (there time-sliced) workers, not the clamped single-worker path.
    let mut executor = executor_of(opts, threads).with_telemetry(mode);
    executor.hardware = threads;
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

    if opts.json {
        let render = |v: &Option<Value>| match v {
            Some(Value::Int(i)) => Json::int(*i),
            Some(Value::Float(x)) => Json::float(*x),
            None => Json::str("void"),
        };
        let doc = Json::object([
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
        ]);
        println!("{}", doc.into_string());
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

/// This machine's calibration: read from `--calibration-file` when that file exists,
/// else the process's own measurement (also written to the file when one was named).
fn calibration_of(opts: &Options) -> Result<CalibrationProfile, CliError> {
    let measured = *CalibrationProfile::cached();
    let Some(path) = &opts.calibration_file else {
        return Ok(measured);
    };
    if std::path::Path::new(path).exists() {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::failed(format!("cannot read {path}: {e}")))?;
        return CalibrationProfile::from_text(&text)
            .map_err(|e| CliError::failed(format!("{path}: {e}")));
    }
    std::fs::write(path, measured.to_text())
        .map_err(|e| CliError::failed(format!("cannot write {path}: {e}")))?;
    Ok(measured)
}

/// `helix explain`: the HELIX analysis, and why each candidate loop was (not) selected.
/// Shows each candidate's plan and the whole-program estimate at the paper's constants,
/// prices every candidate with the paper's constants, with this machine's calibration over
/// the lowered segment spans, and with the same calibration over the spans a 1-worker run
/// observed (see [`helix_simulator::explain()`]), and shows each segment's three costs.
fn cmd_explain(opts: &Options) -> Result<(), CliError> {
    let module = load(opts)?;
    let calibration = calibration_of(opts)?;
    let (_nesting, profile, entry, _image) = profiled(&module, opts)?;
    let paper = Helix::new(config_of(opts));
    let output = paper.analyze(&module, &profile);
    let calibrated = Helix::new(calibration.helix_config(paper.config))
        .with_cost_model(calibration.cost_model());
    let ns_per_cycle = calibration.ns_per_cycle();
    let loops = helix_simulator::explain(
        &module,
        entry,
        &opts.args,
        &profile,
        &output,
        &calibrated,
        ns_per_cycle,
    );
    let name = |key: helix_profiler::LoopKey| format!("{}/{}", module.function(key.0).name, key.1);
    let mode = format!("{:?}", opts.mode).to_lowercase();
    let estimate = output.estimated_speedup(opts.mode);
    if opts.json {
        // Absent numbers render as JSON `null`.
        let maybe = |x: Option<f64>| Json::float(x.unwrap_or(f64::NAN));
        let decision = |d: Decision| {
            Json::object([
                ("selected", Json::bool(d.selected)),
                ("saved_cycles", Json::float(d.saved_cycles)),
            ])
        };
        let loop_docs = loops.iter().map(|l| {
            let segments = l.segments.iter().map(|s| {
                Json::object([
                    ("segment", Json::uint(s.segment as u64)),
                    ("dep", Json::str(&s.dep.to_string())),
                    ("synchronized", Json::bool(s.synchronized)),
                    ("estimate_cycles", Json::float(s.estimate_cycles)),
                    ("lowered_cycles", maybe(s.lowered_cycles)),
                    ("observed_cycles", maybe(s.observed_cycles)),
                    ("observed_samples", Json::uint(s.observed_samples)),
                    ("ratio", maybe(s.ratio())),
                ])
            });
            let plan = &output.plans[&l.key];
            Json::object([
                ("function", Json::str(&module.function(l.key.0).name)),
                ("loop", Json::str(&l.key.1.to_string())),
                (
                    "plan",
                    Json::object([
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
                            Json::float(output.loop_carried_fraction[&l.key]),
                        ),
                        (
                            "nesting_depth",
                            Json::uint(output.nesting_depth[&l.key] as u64),
                        ),
                    ]),
                ),
                ("paper", decision(l.paper)),
                ("calibrated_lowered", decision(l.lowered)),
                ("calibrated_observed", decision(l.observed)),
                ("observed", Json::bool(l.ran)),
                ("run_error", Json::str(l.run_error.as_deref().unwrap_or(""))),
                ("fusion", Json::str(&l.fusion)),
                ("segments", Json::array(segments)),
            ])
        });
        let doc = Json::object([
            ("module", Json::str(&module.name)),
            ("cores", Json::uint(opts.cores as u64)),
            ("mode", Json::str(&mode)),
            ("estimated_speedup", Json::float(estimate)),
            (
                "calibration",
                Json::object([
                    ("ns_per_cycle", Json::float(ns_per_cycle)),
                    (
                        "dispatch_tier",
                        Json::str(&calibration.selected_tier().to_string()),
                    ),
                    (
                        "signal_latency_cycles",
                        Json::uint(calibrated.config.signal_latency_unprefetched),
                    ),
                    (
                        "signal_latency_prefetched_cycles",
                        Json::uint(calibrated.config.signal_latency_prefetched),
                    ),
                    (
                        "paper_signal_latency_cycles",
                        Json::uint(paper.config.signal_latency_unprefetched),
                    ),
                ]),
            ),
            ("loops", Json::array(loop_docs)),
        ]);
        println!("{}", doc.into_string());
        return Ok(());
    }
    println!(
        "explain `{}` on {} cores: {} candidate loop(s); calibration {:.2} ns/cycle ({} tier), \
         signal {} cycles (paper {}), prefetched {} cycles (paper {})",
        module.name,
        opts.cores,
        loops.len(),
        ns_per_cycle,
        calibration.selected_tier(),
        calibrated.config.signal_latency_unprefetched,
        paper.config.signal_latency_unprefetched,
        calibrated.config.signal_latency_prefetched,
        paper.config.signal_latency_prefetched,
    );
    println!("estimated whole-program speedup at the paper's constants ({mode} prefetching): {estimate:.2}x");
    println!(
        "  {:<20} {:>18} {:>21} {:>22}",
        "loop", "paper", "calibrated, lowered", "calibrated, observed"
    );
    let decision = |d: Decision| {
        format!(
            "{} {:>12.0}",
            if d.selected { "yes" } else { " - " },
            d.saved_cycles
        )
    };
    for l in &loops {
        println!(
            "  {:<20} {:>18} {:>21} {:>22}",
            name(l.key),
            decision(l.paper),
            decision(l.lowered),
            decision(l.observed),
        );
    }
    println!("  (yes = selected; the number is the saved time T in model cycles)");
    for l in &loops {
        let plan = &output.plans[&l.key];
        println!(
            "{} ({}): {} segments ({} synchronized), {:.0} cycles/iter, {:.0}% sequential, signals {} -> {}",
            name(l.key),
            l.fusion,
            plan.segments.len(),
            plan.synchronized_segments(),
            plan.total_cycles_per_iter,
            plan.sequential_fraction() * 100.0,
            plan.signals_before_minimization,
            plan.signals_after_minimization,
        );
        println!(
            "  {:<8} {:<6} {:<5} {:>10} {:>10} {:>10} {:>8} {:>8}",
            "segment", "dep", "sync", "estimate", "lowered", "observed", "ratio", "samples"
        );
        let cycles = |x: Option<f64>| x.map_or_else(|| "-".to_string(), |c| format!("{c:.0}"));
        for s in &l.segments {
            println!(
                "  {:<8} {:<6} {:<5} {:>10.0} {:>10} {:>10} {:>8} {:>8}",
                s.segment,
                s.dep.to_string(),
                if s.synchronized { "yes" } else { "no" },
                s.estimate_cycles,
                cycles(s.lowered_cycles),
                cycles(s.observed_cycles),
                s.ratio()
                    .map_or_else(|| "-".to_string(), |r| format!("{r:.2}x")),
                s.observed_samples,
            );
        }
        match (&l.run_error, l.ran) {
            (Some(e), _) => println!("  not observed: the 1-worker run failed: {e}"),
            (None, false) => println!("  not observed: only loops of `{}` run", opts.entry),
            (None, true) => {}
        }
    }
    Ok(())
}

fn cmd_simulate(opts: &Options) -> Result<(), CliError> {
    let module = load(opts)?;
    let (_nesting, profile, _entry, _image) = profiled(&module, opts)?;
    let output = Helix::new(config_of(opts)).analyze(&module, &profile);
    let sim_config = SimConfig {
        helix: config_of(opts),
        mode: opts.mode,
    };
    let sim = simulate_program(&output, &profile, &sim_config);
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
    // Keep the oracle's tight deadlock detector: a genuine lost-signal bug should fail a
    // seed in milliseconds, not spin the production 200M-yield budget on every one of
    // thousands of shrink candidates. `--spin-budget` still overrides.
    let mut executor = OracleConfig::default()
        .executor
        .with_dispatch_tier(opts.dispatch_tier.unwrap_or_default());
    if let Some(spins) = opts.spin_budget {
        executor = executor.with_spin_budget(spins);
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
        executor,
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
    text.push_str("# reproduce: helix fuzz --seeds 1 --seed-start <seed>, or feed this file to helix run/explain\n");
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
