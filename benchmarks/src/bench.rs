//! Set-up and the three measured phases. Everything here times calls into the crates'
//! public functions from outside; nothing inside the crates is instrumented.

use std::collections::BTreeMap;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use helix_analysis::{Cfg, LoopDdg, LoopNestingGraph, PointerAnalysis};
use helix_core::{content_hash, transform, Helix, HelixConfig, PrefetchMode};
use helix_gen::GenRng;
use helix_ir::{ExecImage, ImageMachine, Instr};
use helix_profiler::{profile_image, LoopKey};
use helix_runtime::{
    CalibrationProfile, DispatchTier, ParallelExecutor, ParallelImage, RunOutput, TelemetryMode,
    TelemetryReport,
};
use helix_service::{
    memory_digest, CacheOutcome, Client, Op, Request, Response, ServeConfig, Server, Status,
};
use helix_simulator::{simulate_program, SimConfig};

use crate::programs::{self, Program, FUEL};
use crate::stats::{geomean, median};
use crate::trace::{Open, Tracer};
use crate::workloads::{self, Phase, Req, Workload};

/// Operations attempted and failed: wrong result, wrong memory, non-`ok` status, executor
/// or transport error. A failure never aborts the run — the other metrics still print.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Checks {
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// Timing samples in nanoseconds, by span name and program/request-kind id.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, BTreeMap<usize, Vec<f64>>>);

impl Samples {
    fn push(&mut self, name: &'static str, id: usize, ns: f64) {
        self.0
            .entry(name)
            .or_default()
            .entry(id)
            .or_default()
            .push(ns);
    }

    /// Median of `name` per id.
    pub fn medians_by_id(&self, name: &str) -> BTreeMap<usize, f64> {
        self.0.get(name).map_or_else(BTreeMap::new, |ids| {
            ids.iter()
                .map(|(id, v)| (*id, median(&mut v.clone())))
                .collect()
        })
    }

    /// Per-id medians of `name`, in id order.
    pub fn medians(&self, name: &str) -> Vec<f64> {
        self.medians_by_id(name).into_values().collect()
    }

    /// Geometric mean over ids of the per-id median; `None` without samples.
    pub fn typical(&self, name: &str) -> Option<f64> {
        let medians = self.medians(name);
        (!medians.is_empty()).then(|| geomean(medians))
    }

    /// [`Samples::typical`] over the ids in `ids` only.
    pub fn typical_of(&self, name: &str, ids: &[usize]) -> Option<f64> {
        let medians = self.medians_by_id(name);
        let chosen: Vec<f64> = ids.iter().filter_map(|i| medians.get(i).copied()).collect();
        (!chosen.is_empty()).then(|| geomean(chosen))
    }

    /// Every sample of `name`, ids pooled.
    pub fn pooled(&self, name: &str) -> Vec<f64> {
        self.0
            .get(name)
            .map_or_else(Vec::new, |ids| ids.values().flatten().copied().collect())
    }

    pub fn count(&self, name: &str) -> usize {
        self.0
            .get(name)
            .map_or(0, |ids| ids.values().map(Vec::len).sum())
    }
}

/// What one pass (untraced or traced) accumulates.
pub struct Pass {
    pub tracer: Tracer,
    pub samples: Samples,
    pub checks: Checks,
    /// Wall seconds of the serve phase's socket replay and the requests it completed.
    pub serve_wall_s: f64,
    pub serve_requests: u64,
    /// Per-program telemetry of the last traced `W`-worker run.
    pub telemetry: BTreeMap<usize, TelemetryReport>,
    /// Cache and job counters of the fixed-length direct replay (traced pass only).
    pub replay: Option<ReplayCounts>,
    pub wall_s: f64,
    /// Running total of every `leaf` span, to tell a parent span's own time from its
    /// children's.
    leaf_ns: f64,
}

/// Counters of the fixed-length direct replay, after its cold warm-up.
pub struct ReplayCounts {
    pub requests: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub entries: usize,
    pub jobs_failed: u64,
}

impl Pass {
    pub fn new(traced: bool) -> Pass {
        Pass {
            tracer: Tracer::new(traced),
            samples: Samples::default(),
            checks: Checks::default(),
            serve_wall_s: 0.0,
            serve_requests: 0,
            telemetry: BTreeMap::new(),
            replay: None,
            wall_s: 0.0,
            leaf_ns: 0.0,
        }
    }

    fn open(&mut self, name: &'static str, id: usize) -> Open {
        self.tracer.begin(name, id)
    }

    fn close(&mut self, name: &'static str, id: usize, open: Open) -> f64 {
        let ns = self.tracer.end(open);
        self.samples.push(name, id, ns);
        ns
    }

    /// Times one call into a crate as span `name`.
    fn leaf<R>(&mut self, name: &'static str, id: usize, call: impl FnOnce() -> R) -> R {
        let open = self.open(name, id);
        let result = std::hint::black_box(call());
        self.leaf_ns += self.close(name, id, open);
        result
    }
}

/// A program prepared once in set-up for the execute and serve phases.
pub struct Ready {
    exec: ExecImage,
    parallel: ParallelImage,
    /// Dynamic instructions of one sequential run (`ImageMachine::stats`).
    pub dyn_instrs: u64,
    /// `memory_hash` a correct serve reply carries: `memory_digest` of a `W`-worker run
    /// whose memory was checked against the interpreter reference in set-up.
    reply_hash: u64,
}

/// The in-process `helix serve` daemon on its real Unix-socket transport, plus the one
/// closed-loop client.
struct Daemon {
    thread: Option<JoinHandle<std::io::Result<()>>>,
    client: Client<UnixStream, UnixStream>,
    socket: PathBuf,
}

impl Daemon {
    fn start(config: ServeConfig, socket: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(&socket);
        let server = Arc::new(Server::new(config));
        let path = socket.clone();
        let thread = std::thread::spawn(move || server.serve_unix(&path));
        let deadline = Instant::now() + Duration::from_secs(10);
        let client = loop {
            match Client::connect_unix(&socket) {
                Ok(client) => break client,
                Err(e) if Instant::now() > deadline || thread.is_finished() => {
                    return Err(format!(
                        "cannot reach the daemon at {}: {e}",
                        socket.display()
                    ));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        Ok(Daemon {
            thread: Some(thread),
            client,
            socket,
        })
    }
}

impl Drop for Daemon {
    /// Stops the daemon and waits for its threads; errors here cannot be acted on.
    fn drop(&mut self) {
        let _ = self.client.request(&Request::new(Op::Shutdown, 0));
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

pub struct Setup {
    pub workload: Workload,
    pub workers: usize,
    pub programs: Vec<Program>,
    pub ready: Vec<Ready>,
    /// Indices of the fixed programs: the ones the execute phase runs and per-program
    /// end-to-end geomeans cover, identical for every seed.
    pub fixed: Vec<usize>,
    schedule: Vec<Req>,
    helix: Helix,
    serve_config: ServeConfig,
    daemon: Daemon,
    /// A fresh `CalibrationProfile::measure()` and how long it took.
    pub calibration: CalibrationProfile,
    pub calibrate_ms: f64,
    /// Problems found before the first timed sample (reference drift, bad warm-up reply).
    pub checks: Checks,
    next_request: u64,
}

/// Sample names of a request by what the daemon did with it: raw-hash hit, alias (parse
/// + canonical-hash hit), miss (full prepare), ping — over the socket and direct.
const REQUEST_KINDS: [&str; 4] = [
    "service.request.hit",
    "service.request.alias",
    "service.request.miss",
    "service.request.ping",
];
const HANDLE_KINDS: [&str; 4] = [
    "service.handle.hit",
    "service.handle.alias",
    "service.handle.miss",
    "service.handle.ping",
];

fn classify(kinds: &[&'static str; 4], req: Req, outcome: CacheOutcome) -> (&'static str, usize) {
    match (req, outcome) {
        (Req::Ping, _) => (kinds[3], 0),
        (Req::Plain(i) | Req::Alias(i), CacheOutcome::Miss) => (kinds[2], i),
        (Req::Alias(i), _) => (kinds[1], i),
        (Req::Plain(i), _) => (kinds[0], i),
    }
}

/// The daemon's pipeline as `Server::new` builds it with `calibrate: true`.
fn calibrated_helix() -> Helix {
    let calibration = CalibrationProfile::cached();
    Helix::new(calibration.helix_config(HelixConfig::default()))
        .with_cost_model(calibration.cost_model())
}

/// Did `out` reproduce `program`'s reference result and original globals?
fn matches_reference(program: &Program, out: &RunOutput) -> bool {
    matches!((&out.result, &out.memory), (Ok(value), Some(memory))
        if program.reference.matches_transformed(*value, memory))
}

/// Everything before the first timed sample: calibration, input generation, reference
/// runs, prepare + lower, pool warm-up, daemon start and cache warm-up.
pub fn setup(name: &str, seed: u64, workers: usize, out_dir: &Path) -> Result<Setup, String> {
    let workload = workloads::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let start = Instant::now();
    let calibration = CalibrationProfile::measure();
    let calibrate_ms = start.elapsed().as_secs_f64() * 1e3;
    let helix = calibrated_helix();

    let mut rng = GenRng::new(seed);
    let (programs, drifted) = programs::build(&workload.sources, &mut rng)?;
    let schedule = workloads::schedule(&workload, &mut rng);
    let mut checks = Checks::default();
    for program in &programs {
        checks.record(!drifted.contains(&program.name), || {
            format!(
                "{}: interpreter output drifted from expected/fixed.tsv",
                program.name
            )
        });
    }

    let mut ready = Vec::with_capacity(programs.len());
    for program in &programs {
        let prepared = helix
            .prepare(&program.module, program.main, &[], FUEL)
            .map_err(|e| format!("{}: prepare failed: {e}", program.name))?;
        let transformed = prepared
            .transformed
            .ok_or_else(|| format!("{}: no loop to parallelize", program.name))?;
        let exec = ExecImage::lower(&program.module);
        let parallel = ParallelImage::lower(&transformed);
        let mut machine = ImageMachine::new(&exec);
        machine
            .call(program.main, &[])
            .map_err(|e| format!("{}: sequential run failed: {e}", program.name))?;
        // Also the pool warm-up: the first `W`-worker run spawns the helpers.
        let out = team_executor(program, workers).run_parallel_out(&parallel, &[]);
        let verified = matches_reference(program, &out);
        checks.record(verified, || {
            format!("{}: set-up run diverged", program.name)
        });
        ready.push(Ready {
            dyn_instrs: machine.stats().instrs,
            reply_hash: out.memory.as_ref().map_or(0, memory_digest),
            exec,
            parallel,
        });
    }

    let serve_config = ServeConfig {
        cache_cap: workload.cache_cap,
        service_threads: 1,
        default_threads: workers,
        ..ServeConfig::default()
    };
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let socket = out_dir.join(format!("{name}-{}.sock", std::process::id()));
    let daemon = Daemon::start(serve_config.clone(), socket)?;
    let mut setup = Setup {
        workers,
        fixed: (0..programs.len()).filter(|i| programs[*i].fixed).collect(),
        programs,
        ready,
        schedule,
        helix,
        serve_config,
        daemon,
        calibration,
        calibrate_ms,
        checks,
        next_request: 1,
        workload,
    };
    // Cache warm-up: every working-set program once, checked like any reply.
    for i in 0..setup.working_set() {
        let request = setup.request(Req::Plain(i));
        let reply = setup.daemon.client.request(&request);
        let ok = setup.reply_ok(Req::Plain(i), &request, &reply);
        setup
            .checks
            .record(ok, || format!("warm-up reply for program {i}: {reply:?}"));
    }
    Ok(setup)
}

/// How many workers run `program`'s multi-worker executions. The fixed programs get `W`.
/// Generated programs get one: on the seed commit about a tenth of them return a wrong
/// result in roughly one 2-worker run in a thousand (see "Known defect" in the README),
/// and a benchmark whose operations fail measures nothing.
fn team_size(program: &Program, workers: usize) -> usize {
    if program.fixed {
        workers
    } else {
        1
    }
}

fn team_executor(program: &Program, workers: usize) -> ParallelExecutor {
    ParallelExecutor::new(team_size(program, workers)).with_capture_memory(true)
}

/// How far each phase got, so the next slice resumes the round-robin where it stopped.
#[derive(Default)]
struct Progress {
    compiled: usize,
    executed: usize,
    served: u64,
    serve_wall: Duration,
}

/// Length of one compile + execute + serve cycle. The phases alternate in slices this
/// short so that a machine-wide slow spell (they last 0.3 to 1.5 s on the reference host)
/// touches a minority of every metric's samples instead of the whole of one metric's.
const CYCLE: Duration = Duration::from_millis(250);

impl Setup {
    fn working_set(&self) -> usize {
        self.workload.working_set.min(self.programs.len())
    }

    /// Builds the wire request for `req` under a fresh id.
    fn request(&mut self, req: Req) -> Request {
        let id = self.next_request;
        self.next_request += 1;
        let run = |i: usize, text: &str| Request {
            threads: (!self.programs[i].fixed).then_some(1),
            ..Request::run(id, text)
        };
        match req {
            Req::Plain(i) => run(i, &self.programs[i].text),
            Req::Alias(i) => run(i, &format!("{}; req {id}\n", self.programs[i].text)),
            Req::Ping => Request::new(Op::Ping, id),
        }
    }

    fn response_ok(&self, req: Req, request: &Request, response: &Response) -> bool {
        let ok = response.status == Some(Status::Ok) && response.id == request.id;
        match req {
            Req::Ping => ok && response.result.as_deref() == Some("pong"),
            Req::Plain(i) | Req::Alias(i) => {
                ok && response.result.as_deref() == Some(self.programs[i].reference.result.as_str())
                    && response.memory_hash == Some(self.ready[i].reply_hash)
            }
        }
    }

    fn reply_ok(&self, req: Req, request: &Request, reply: &std::io::Result<Response>) -> bool {
        reply
            .as_ref()
            .is_ok_and(|response| self.response_ok(req, request, response))
    }

    /// Measures for `window`: compile, execute and serve slices alternate, each phase
    /// getting its share of every cycle and resuming its round-robin where it stopped.
    /// Every program is compiled and executed at least once however short the window.
    pub fn run(&mut self, pass: &mut Pass, window: Duration) {
        let start = Instant::now();
        let root = pass.tracer.begin("bench.pass", 0);
        let mut progress = Progress::default();
        let programs = self.programs.len();
        while start.elapsed() < window {
            for phase in [Phase::Compile, Phase::Exec, Phase::Serve] {
                let slice = Instant::now();
                let budget = CYCLE.mul_f64(self.workload.share(phase));
                while slice.elapsed() < budget {
                    self.step(phase, pass, &mut progress);
                }
                if phase == Phase::Serve {
                    progress.serve_wall += slice.elapsed();
                }
            }
        }
        while progress.compiled < programs {
            self.step(Phase::Compile, pass, &mut progress);
        }
        while progress.executed < self.fixed.len() {
            self.step(Phase::Exec, pass, &mut progress);
        }
        pass.serve_wall_s = progress.serve_wall.as_secs_f64();
        pass.serve_requests = progress.served;
        if pass.tracer.enabled() {
            self.serve_probes(pass, window);
        }
        pass.tracer.end(root);
        pass.wall_s = start.elapsed().as_secs_f64();
    }

    /// One unit of `phase`: one program compiled, one program executed every way, or one
    /// request served.
    fn step(&mut self, phase: Phase, pass: &mut Pass, progress: &mut Progress) {
        match phase {
            Phase::Compile => {
                self.compile_step(pass, progress.compiled % self.programs.len());
                progress.compiled += 1;
            }
            Phase::Exec => {
                self.exec_step(pass, self.fixed[progress.executed % self.fixed.len()]);
                progress.executed += 1;
            }
            Phase::Serve => {
                self.serve_step(pass);
                progress.served += 1;
            }
        }
    }

    /// Source text → both images of program `i`, nothing cached. The result is executed
    /// once outside the timed span and checked.
    fn compile_step(&self, pass: &mut Pass, i: usize) {
        let program = &self.programs[i];
        let compiled = if pass.tracer.enabled() {
            self.compile_by_stage(pass, i, program)
        } else {
            self.compile_whole(pass, i, program)
        };
        let ok = compiled.is_some_and(|image| {
            let out = team_executor(program, self.workers).run_parallel_out(&image, &[]);
            matches_reference(program, &out)
        });
        pass.checks
            .record(ok, || format!("{}: compiled image diverged", program.name));
    }

    /// The untraced compile: `Helix::prepare` called whole, as `helix serve` calls it.
    fn compile_whole(&self, pass: &mut Pass, i: usize, program: &Program) -> Option<ParallelImage> {
        let open = pass.open("bench.compile", i);
        let image = (|| {
            let module = helix_frontend::parse_and_verify(&program.text).ok()?;
            let main = module.function_by_name("main")?;
            let prepared = self.helix.prepare(&module, main, &[], FUEL).ok()?;
            std::hint::black_box(ExecImage::lower(&module));
            Some(ParallelImage::lower(prepared.transformed.as_ref()?))
        })();
        pass.close("bench.compile", i, open);
        image
    }

    /// The traced compile: `Helix::prepare` replaced by its public constituents so each
    /// stage is a span, followed by stand-alone probes of analyses `Helix::analyze` runs
    /// internally (extra work, kept outside the `bench.compile` span).
    fn compile_by_stage(
        &self,
        pass: &mut Pass,
        i: usize,
        program: &Program,
    ) -> Option<ParallelImage> {
        let root = pass.open("bench.compile", i);
        let module = pass
            .leaf("frontend.parse", i, || {
                helix_frontend::parse_and_verify(&program.text)
            })
            .ok();
        let staged = module.as_ref().and_then(|module| {
            let main = module.function_by_name("main")?;
            let prepare = pass.open("core.prepare", i);
            let staged_before = pass.leaf_ns;
            pass.leaf("core.content_hash", i, || content_hash(module, "main"));
            let nesting = pass.leaf("analysis.nesting", i, || LoopNestingGraph::new(module));
            let image = pass.leaf("ir.lower", i, || ExecImage::lower(module));
            let profile = pass
                .leaf("profiler.profile", i, || {
                    profile_image(&image, &nesting, main, &[])
                })
                .ok();
            let transformed = profile.as_ref().and_then(|profile| {
                let output = pass.leaf("core.analyze", i, || self.helix.analyze(module, profile));
                // `Helix::prepare`'s choice: hottest selected loop of the entry, else its
                // hottest candidate.
                let hottest = |keys: &mut dyn Iterator<Item = LoopKey>| {
                    keys.filter(|(func, _)| *func == main)
                        .max_by_key(|k| profile.loop_profile(*k).cycles)
                };
                let key = hottest(&mut output.selection.selected.iter().copied())
                    .or_else(|| hottest(&mut output.plans.keys().copied()))?;
                Some(pass.leaf("core.transform", i, || {
                    transform::apply(module, &output.plans[&key])
                }))
            });
            let prepare_ns = pass.close("core.prepare", i, prepare);
            let unattributed = prepare_ns - (pass.leaf_ns - staged_before);
            pass.samples
                .push("core.prepare_unattributed", i, unattributed.max(1.0));
            pass.leaf("ir.lower", i, || ExecImage::lower(module));
            let parallel = pass.leaf("runtime.lower", i, || {
                transformed.as_ref().map(ParallelImage::lower)
            });
            Some((nesting, profile?, parallel?))
        });
        pass.close("bench.compile", i, root);

        let (module, (nesting, profile, parallel)) = module.zip(staged)?;
        let probes = pass.open("bench.compile_probes", i);
        pass.leaf("ir.print", i, || helix_ir::printer::format_module(&module));
        let pointers = pass.leaf("analysis.pointer", i, || PointerAnalysis::new(&module));
        pass.leaf("analysis.ddg", i, || {
            for node in nesting.iter() {
                if profile.executed((node.func, node.loop_id)) {
                    let cfg = Cfg::new(module.function(node.func));
                    let forest = &nesting.forests[&node.func];
                    std::hint::black_box(LoopDdg::compute(
                        &module,
                        node.func,
                        &cfg,
                        forest,
                        node.loop_id,
                        &pointers,
                    ));
                }
            }
        });
        pass.close("bench.compile_probes", i, probes);
        Some(parallel)
    }

    /// Steady-state execution of fixed program `i`: sequential on the untransformed
    /// module, HELIX with 1 worker, HELIX with `W` workers. Every run is checked.
    fn exec_step(&self, pass: &mut Pass, i: usize) {
        let (program, ready) = (&self.programs[i], &self.ready[i]);
        let open = pass.open("ir.seq_run", i);
        let mut machine = ImageMachine::new(&ready.exec);
        let result = std::hint::black_box(machine.call(program.main, &[]));
        pass.close("ir.seq_run", i, open);
        let ok = result.is_ok_and(|v| program.reference.matches_sequential(v, machine.memory()));
        pass.checks
            .record(ok, || format!("{}: sequential run diverged", program.name));

        let solo = ParallelExecutor::new(1).with_capture_memory(true);
        let team = team_executor(program, self.workers);
        self.parallel_run(pass, "runtime.run_1w", i, &solo);
        if team.threads > 1 {
            self.parallel_run(pass, "runtime.run_ww", i, &team);
        }
        if !pass.tracer.enabled() {
            return;
        }
        for (name, tier) in [
            ("runtime.run_1w.switch", DispatchTier::Switch),
            ("runtime.run_1w.threaded", DispatchTier::Threaded),
            ("runtime.run_1w.jit", DispatchTier::Jit),
        ] {
            self.parallel_run(pass, name, i, &solo.with_dispatch_tier(tier));
        }
        // Worker 0's (sampled, scaled) time inside iteration bytecode; the rest of the
        // wall is per-execute table/JIT build, memory set-up and phases A and C.
        let sampled = solo.with_telemetry(TelemetryMode::Sampled(64));
        if let (wall_ns, Some(report)) =
            self.parallel_run(pass, "runtime.run_1w.sampled", i, &sampled)
        {
            let in_iterations = report.occupancy()[0] * report.wall_ns as f64;
            pass.samples
                .push("runtime.exec_fixed", i, (wall_ns - in_iterations).max(1.0));
        }
        if team.threads > 1 {
            let sampled = team.with_telemetry(TelemetryMode::Sampled(64));
            if let (_, Some(report)) =
                self.parallel_run(pass, "runtime.run_ww.sampled", i, &sampled)
            {
                pass.telemetry.insert(i, report);
            }
        }
    }

    /// One timed, checked `run_parallel_out`; returns its wall time and telemetry.
    fn parallel_run(
        &self,
        pass: &mut Pass,
        name: &'static str,
        i: usize,
        executor: &ParallelExecutor,
    ) -> (f64, Option<TelemetryReport>) {
        let open = pass.open(name, i);
        let out = std::hint::black_box(executor.run_parallel_out(&self.ready[i].parallel, &[]));
        let ns = pass.close(name, i, open);
        let program = &self.programs[i];
        pass.checks.record(matches_reference(program, &out), || {
            format!("{}: {name} diverged: {:?}", program.name, out.result)
        });
        (ns, out.report)
    }

    /// The next request of the seeded schedule over the Unix socket. Closed loop, one
    /// client: it is sent only after the previous reply was parsed and checked.
    fn serve_step(&mut self, pass: &mut Pass) {
        let req = self.schedule[self.next_request as usize % self.schedule.len()];
        let request = self.request(req);
        let open = pass.open("service.request", request.id as usize);
        let reply = self.daemon.client.request(&request);
        let ns = pass.close("service.request", 0, open);
        let outcome = reply
            .as_ref()
            .map_or(CacheOutcome::NotApplicable, |r| r.cache);
        let (name, id) = classify(&REQUEST_KINDS, req, outcome);
        pass.samples.push(name, id, ns);
        let ok = self.reply_ok(req, &request, &reply);
        pass.checks.record(ok, || {
            format!("request {} ({req:?}): {reply:?}", request.id)
        });
    }

    /// Traced pass only: where a request's time goes. A second daemon instance is driven
    /// through `Server::handle` directly (no socket), first cold, then over a fixed-length
    /// prefix of the schedule so its cache counters repeat exactly for a given seed.
    fn serve_probes(&mut self, pass: &mut Pass, window: Duration) {
        let root = pass.open("bench.serve_probes", 0);
        let server = Server::new(self.serve_config.clone());
        for i in 0..self.working_set() {
            let request = self.request(Req::Plain(i));
            let response = pass.leaf("service.handle.miss", i, || server.handle(&request));
            let ok = self.response_ok(Req::Plain(i), &request, &response);
            pass.checks
                .record(ok, || format!("direct cold request {i}: {response:?}"));
        }
        let warm = server.cache_stats();
        let requests = (window.as_secs_f64() * 100.0).round().max(100.0) as usize;
        for step in 0..requests {
            let req = self.schedule[step % self.schedule.len()];
            let request = self.request(req);
            let open = pass.tracer.begin("service.handle", step);
            let response = server.handle(&request);
            let ns = pass.tracer.end(open);
            let (name, id) = classify(&HANDLE_KINDS, req, response.cache);
            pass.samples.push(name, id, ns);
            if name == HANDLE_KINDS[0] {
                let exec_ns = response.exec_ns.unwrap_or(0) as f64;
                pass.samples
                    .push("service.overhead_hit", id, (ns - exec_ns).max(1.0));
            }
            let ok = self.response_ok(req, &request, &response);
            pass.checks.record(ok, || {
                format!("direct request {step} ({req:?}): {response:?}")
            });
            if step < 200 {
                let again = pass.leaf("service.request_codec", 0, || {
                    Request::parse(&request.encode())
                });
                pass.checks.record(again.as_ref() == Ok(&request), || {
                    format!("request codec: {again:?}")
                });
                let again = pass.leaf("service.response_codec", 0, || {
                    Response::parse(&response.encode())
                });
                pass.checks.record(again.as_ref() == Ok(&response), || {
                    format!("response codec: {again:?}")
                });
            }
        }
        let cache = server.cache_stats();
        pass.replay = Some(ReplayCounts {
            requests: requests as u64,
            hits: cache.hits - warm.hits,
            misses: cache.misses - warm.misses,
            evictions: cache.evictions - warm.evictions,
            entries: cache.entries,
            jobs_failed: server.job_stats().failed,
        });
        // The digest `helix serve` computes over each reply's captured memory.
        for i in 0..self.working_set() {
            let executor = team_executor(&self.programs[i], self.workers);
            if let Some(memory) = executor
                .run_parallel_out(&self.ready[i].parallel, &[])
                .memory
            {
                pass.leaf("service.memory_digest", i, || memory_digest(&memory));
            }
        }
        pass.close("bench.serve_probes", 0, root);
    }

    /// Static facts under the paper's constants at two cores — independent of the
    /// calibration, so they repeat exactly: loop and synchronization counts of the chosen
    /// plans and the simulator's predicted two-core scaling.
    pub fn static_facts(&self) -> Result<StaticFacts, String> {
        let config = HelixConfig {
            cores: 2,
            ..HelixConfig::default()
        };
        let helix = Helix::new(config);
        let sim = SimConfig {
            helix: config,
            mode: PrefetchMode::Helix,
        };
        let mut facts = StaticFacts::default();
        let (mut before, mut after) = (0, 0);
        let mut predicted = Vec::new();
        for (program, ready) in self.programs.iter().zip(&self.ready) {
            let prepared = helix
                .prepare(&program.module, program.main, &[], FUEL)
                .map_err(|e| format!("{}: {e}", program.name))?;
            facts.instrs += program.module.instr_count() as u64;
            facts.image_ops += ready.exec.op_count() as u64;
            facts.source_bytes += program.text.len() as u64;
            facts.candidate_loops += prepared.output.plans.len() as u64;
            facts.selected_loops += prepared.output.selection.selected.len() as u64;
            predicted.push(simulate_program(&prepared.output, &prepared.profile, &sim).speedup);
            let Some(transformed) = &prepared.transformed else {
                continue;
            };
            let plan = &transformed.plan;
            facts.sync_segments += plan.segments.iter().filter(|s| s.synchronized).count() as u64;
            before += plan.signals_before_minimization;
            after += plan.signals_after_minimization;
            for block in &transformed
                .module
                .function(transformed.parallel_func)
                .blocks
            {
                for instr in &block.instrs {
                    match instr {
                        Instr::Wait { .. } => facts.waits += 1,
                        Instr::Signal { .. } => facts.signals += 1,
                        _ => {}
                    }
                }
            }
            facts.private_words_per_iter += ParallelImage::lower(transformed)
                .loop_image
                .private_words_per_iter;
        }
        facts.signals_removed_fraction = 1.0 - after as f64 / before.max(1) as f64;
        facts.predicted_scaling_2c = geomean(predicted);
        Ok(facts)
    }
}

#[derive(Default)]
pub struct StaticFacts {
    pub instrs: u64,
    pub image_ops: u64,
    pub source_bytes: u64,
    pub candidate_loops: u64,
    pub selected_loops: u64,
    pub sync_segments: u64,
    pub waits: u64,
    pub signals: u64,
    pub signals_removed_fraction: f64,
    pub private_words_per_iter: u64,
    pub predicted_scaling_2c: f64,
}
