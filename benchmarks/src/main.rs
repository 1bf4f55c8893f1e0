//! The repository's one benchmark. One command runs one workload:
//!
//! ```text
//! cargo run --release --manifest-path benchmarks/Cargo.toml -- \
//!     --workload <name> [--seed 1] [--seconds 10] [--trace 0|1]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run; `--trace 1` prints the
//! per-layer metrics of a separate traced run and writes a Chrome trace. The last line of
//! standard output is one JSON object (`correct`, `attempted`, `failed`, `metrics`). See
//! `README.md` for every metric and `../BENCHMARK.json` for the contract.

mod bench;
mod metrics;
mod programs;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bench::{Pass, Setup};
use metrics::Metric;

/// How often set-up is repeated; `setup_s` is the median.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: helix-benchmarks --workload <exec_regular|exec_irregular|\
compile_cold|serve_warm|serve_churn> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n       \
helix-benchmarks --write-expected";

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("benchmarks/out"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--write-expected" {
            return Ok(None);
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(Some(args))
}

/// Pins glibc malloc to one regime: serve every request from the heap and never give
/// memory back. Left alone, glibc's *dynamic* mmap threshold puts a process — by the
/// accident of its first frees — either in a regime where each run's 1 MiB program memory
/// is a fresh `mmap` (page faults, `munmap`) or in one where it is recycled heap; the two
/// differ by a factor of two on `seq_run_us`, `par2_run_us` and `prepare_ms`, which no
/// per-run statistic can average away. The recycled-heap regime is the one that measures
/// the crates' own work rather than the host's page-fault cost.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    extern "C" {
        fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
    }
    const M_TRIM_THRESHOLD: std::ffi::c_int = -1;
    const M_MMAP_MAX: std::ffi::c_int = -4;
    // SAFETY: `mallopt` is glibc's documented tuning call; it takes two plain integers,
    // touches only the allocator's own parameters and is called before any other thread
    // exists.
    let pinned = unsafe {
        mallopt(M_MMAP_MAX, 0) == 1 && mallopt(M_TRIM_THRESHOLD, std::ffi::c_int::MAX) == 1
    };
    if !pinned {
        eprintln!("helix-benchmarks: warning: mallopt refused; timings may be bimodal");
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

fn main() {
    pin_allocator();
    let result = match parse_args() {
        Ok(Some(args)) => run(&args),
        Ok(None) => write_expected(),
        Err(e) => Err(format!("{e}\n{USAGE}")),
    };
    if let Err(e) = result {
        eprintln!("helix-benchmarks: {e}");
        std::process::exit(2);
    }
}

/// Regenerates `expected/fixed.tsv` from the tree-walking interpreter.
fn write_expected() -> Result<(), String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected/fixed.tsv");
    std::fs::write(&path, programs::fixed_tsv()?)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = nproc.min(2);
    let window = Duration::from_secs_f64(args.seconds);

    // Set-up, repeated; the last one is measured against.
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        drop(setup.take());
        let start = Instant::now();
        setup = Some(bench::setup(&args.workload, args.seed, workers, &args.out)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut setup: Setup = setup.expect("at least one set-up ran");
    print_record(args, &setup, nproc);

    let (metrics, passes) = if args.trace {
        // A short untraced pass gives the base of `bench.trace_overhead`.
        let mut base = Pass::new(false);
        setup.run(&mut base, window.mul_f64(0.25));
        let mut traced = Pass::new(true);
        setup.run(&mut traced, window.mul_f64(0.75));
        let facts = setup.static_facts()?;
        let metrics = metrics::per_layer(&setup, &base, &traced, &facts);
        write_trace(args, &traced)?;
        print_programs(&setup, &traced);
        (metrics, vec![base, traced])
    } else {
        let mut pass = Pass::new(false);
        setup.run(&mut pass, window);
        let setup_s = stats::median(&mut setup_s);
        print_programs(&setup, &pass);
        (
            metrics::end_to_end(&setup, &pass, setup_s, SETUPS),
            vec![pass],
        )
    };

    let mut attempted = setup.checks.attempted;
    let mut failed = setup.checks.failed;
    let mut notes = setup.checks.notes.clone();
    for pass in &passes {
        attempted += pass.checks.attempted;
        failed += pass.checks.failed;
        notes.extend(pass.checks.notes.iter().cloned());
    }
    drop(setup); // stops the daemon and joins its threads before the result prints

    for m in &metrics {
        println!(
            "{:<34} {:>16.4} {:<9} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "{:<34} {:>16.6} {:<9} n={attempted}",
        "failed_share",
        failed as f64 / attempted.max(1) as f64,
        "ratio"
    );
    for note in notes.iter().take(8) {
        println!("# FAILED {note}");
    }
    println!("{}", result_json(&metrics, attempted, failed));
    Ok(())
}

/// The host and run record every result carries.
fn print_record(args: &Args, setup: &Setup, nproc: usize) {
    let executor = helix_runtime::ParallelExecutor::new(setup.workers);
    let c = &setup.calibration;
    println!(
        "# workload {} seed {} seconds {} trace {} commit {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_commit()
    );
    println!(
        "# nproc {nproc} W {} effective_workers {} ({}) tier {} jit_supported {}",
        setup.workers,
        executor.effective_workers(),
        executor.clamp_reason(),
        executor.resolved_tier(),
        helix_runtime::jit_supported()
    );
    if setup.workers < 2 {
        println!("# par2_run_us and scaling_2w are absent: one hardware thread, so a second worker cannot run");
    }
    println!(
        "# calibration alu_ns switch {:.2} threaded {:.2} jit {:.2}; load_ns switch {:.2} threaded {:.2} jit {:.2}; \
         signal_observe_ns {:.0} pool_wake_ns {:.0}",
        c.alu_ns,
        c.alu_threaded_ns,
        c.alu_jit_ns,
        c.load_ns,
        c.load_threaded_ns,
        c.load_jit_ns,
        c.signal_observe_ns,
        c.pool_wake_ns
    );
    println!(
        "# programs {} working_set {} cache_cap {} load closed-loop, 1 client, service_threads 1",
        setup.programs.len(),
        setup.workload.working_set,
        setup.workload.cache_cap
    );
}

/// One row per fixed program: the medians behind the geomeans, in microseconds, and
/// under tracing the pinned-tier runs and the share of worker time spent waiting.
fn print_programs(setup: &Setup, pass: &Pass) {
    let column = |name: &str| pass.samples.medians_by_id(name);
    let columns = [
        ("seq", column("ir.seq_run")),
        ("par1", column("runtime.run_1w")),
        ("parW", column("runtime.run_ww")),
        ("compile", column("bench.compile")),
        ("threaded", column("runtime.run_1w.threaded")),
        ("jit", column("runtime.run_1w.jit")),
    ];
    for &i in &setup.fixed {
        let mut row = format!("# program {:<24}", setup.programs[i].name);
        for (label, medians) in &columns {
            if let Some(ns) = medians.get(&i) {
                row.push_str(&format!(" {label} {:>9.1}", ns / 1e3));
            }
        }
        if let Some(report) = pass.telemetry.get(&i) {
            let share = metrics::wait_share(std::iter::once(report));
            row.push_str(&format!(" wait_share {share:.3}"));
        }
        println!("{row}");
    }
}

/// The checkout's commit, read from `.git` without spawning a process; `unknown` outside
/// a git checkout.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .unwrap_or_default()
            .trim()
            .to_string(),
        None => head.to_string(),
    };
    if commit.is_empty() {
        "unknown".to_string()
    } else {
        commit
    }
}

/// Writes the Chrome trace and prints the self-time table of the traced pass.
fn write_trace(args: &Args, traced: &Pass) -> Result<(), String> {
    let path = args.out.join(format!("{}.trace.json", args.workload));
    std::fs::write(&path, traced.tracer.chrome_json())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# trace {}", path.display());
    let layers = traced.tracer.self_time_by_layer();
    let total: u64 = layers.values().sum();
    for (layer, ns) in &layers {
        println!(
            "# self_time {layer:<10} {:>10.3} ms {:>5.1} %",
            *ns as f64 / 1e6,
            *ns as f64 * 100.0 / total.max(1) as f64
        );
    }
    println!(
        "# self_time total {:.3} ms of {:.3} ms traced wall",
        total as f64 / 1e6,
        traced.wall_s * 1e3
    );
    Ok(())
}

/// The contract's last line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(metrics: &[Metric], attempted: u64, failed: u64) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}
