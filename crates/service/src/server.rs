//! The daemon: a FIFO job queue drained by service workers that all share one
//! process-wide [`helix_runtime::WorkerPool`].
//!
//! Two transports feed the same queue — a length-prefixed stdin/stdout batch mode and
//! a Unix socket accept loop — so a shell pipe and a long-lived client see identical
//! semantics. Jobs are answered in completion order (ids match responses to requests);
//! they are *dequeued* in arrival order across all connections, which is the fairness
//! guarantee: a flood from one client cannot starve an earlier request from another.
//!
//! A job whose injected fault (or genuine bug) panics a pool worker gets a structured
//! `panic` response; the pool poisons, respawns on the next submit, and the daemon
//! keeps serving — that recovery path is what the prerequisite bugfix in
//! `helix-runtime` exists for.

use std::io::{Read, Write};
use std::net::Shutdown;
use std::os::fd::OwnedFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use helix_core::{content_hash, Helix, HelixConfig};
use helix_ir::{ExecImage, ImageMachine, Memory, Value};
use helix_runtime::{
    lock, CalibrationProfile, DispatchTier, ParallelExecutor, ParallelImage, RuntimeError,
    WorkerPool,
};

use crate::cache::{raw_hash, CacheStats, ImageCache, ServedImage, ServedPlan};
use crate::protocol::{
    read_frame, write_frame, CacheOutcome, Fault, Op, Request, Response, Status,
};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Capacity of the content-hash image cache.
    pub cache_cap: usize,
    /// Number of service worker threads draining the job queue. Each runs one job at a
    /// time; parallel phases of concurrent jobs serialize on the shared `WorkerPool`,
    /// so this controls prepare/execute overlap, not oversubscription.
    pub service_threads: usize,
    /// Default parallel-executor worker count for jobs that don't send `threads=`.
    pub default_threads: usize,
    /// Default per-job iteration budget for jobs that don't send `max_iterations=`.
    pub max_iterations: u64,
    /// Fuel for the profiling run of a cache miss and for sequential fallback execution.
    pub fuel: u64,
    /// Run the runtime calibrator once at startup and price every analysis with its
    /// measured costs and latencies (the calibrated pricing `helix explain` reports).
    pub calibrate: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cache_cap: 64,
            service_threads: 2,
            default_threads: helix_runtime::detect_hardware_threads(),
            max_iterations: 10_000_000,
            fuel: 200_000_000,
            calibrate: true,
        }
    }
}

/// Monotonic job counters, reported by the `stats` op.
#[derive(Clone, Copy, Debug, Default)]
pub struct JobStats {
    /// Jobs that completed with `status=ok`.
    pub ok: u64,
    /// Jobs answered `error` or `protocol`.
    pub failed: u64,
    /// Jobs whose run panicked (structured recovery).
    pub panicked: u64,
    /// Jobs expired in the queue.
    pub deadline: u64,
}

/// The `helix serve` daemon state. One instance serves any number of transports.
pub struct Server {
    helix: Helix,
    config: ServeConfig,
    cache: ImageCache,
    jobs_ok: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_panicked: AtomicU64,
    jobs_deadline: AtomicU64,
}

impl Server {
    /// Builds the daemon. When `config.calibrate` is set this runs the runtime
    /// calibrator once (cached per process) before the first job — cache misses are
    /// then priced with measured costs instead of paper constants.
    pub fn new(config: ServeConfig) -> Server {
        let helix = if config.calibrate {
            let calibration = CalibrationProfile::cached();
            Helix::new(calibration.helix_config(HelixConfig::default()))
                .with_cost_model(calibration.cost_model())
        } else {
            Helix::new(HelixConfig::default())
        };
        Server {
            helix,
            cache: ImageCache::new(config.cache_cap),
            config,
            jobs_ok: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_panicked: AtomicU64::new(0),
            jobs_deadline: AtomicU64::new(0),
        }
    }

    /// Cache counter snapshot.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Job counter snapshot.
    pub fn job_stats(&self) -> JobStats {
        JobStats {
            ok: self.jobs_ok.load(Ordering::Relaxed),
            failed: self.jobs_failed.load(Ordering::Relaxed),
            panicked: self.jobs_panicked.load(Ordering::Relaxed),
            deadline: self.jobs_deadline.load(Ordering::Relaxed),
        }
    }

    /// Handles one request synchronously. This is the whole job pipeline minus
    /// transport and queueing — tests drive it directly.
    pub fn handle(&self, req: &Request) -> Response {
        let resp = match req.op {
            Op::Ping => {
                let mut r = Response::new(req.id, Status::Ok);
                r.result = Some("pong".to_string());
                r
            }
            Op::Stats => self.stats_response(req.id),
            Op::Shutdown => Response::new(req.id, Status::Ok),
            Op::Run => {
                // A panic anywhere in the job pipeline must never take down a service
                // worker: the executor already converts pool panics into structured
                // errors, so anything escaping here is a daemon bug — report it as one
                // and keep serving.
                match catch_unwind(AssertUnwindSafe(|| self.run_job(req))) {
                    Ok(resp) => resp,
                    Err(payload) => Response::fail(
                        req.id,
                        Status::Error,
                        format!(
                            "internal error: job pipeline panicked: {}",
                            panic_text(payload.as_ref())
                        ),
                    ),
                }
            }
        };
        match resp.status {
            Some(Status::Ok) => self.jobs_ok.fetch_add(1, Ordering::Relaxed),
            Some(Status::Panic) => self.jobs_panicked.fetch_add(1, Ordering::Relaxed),
            Some(Status::Deadline) => self.jobs_deadline.fetch_add(1, Ordering::Relaxed),
            _ => self.jobs_failed.fetch_add(1, Ordering::Relaxed),
        };
        resp
    }

    fn stats_response(&self, id: u64) -> Response {
        let cache = self.cache.stats();
        let jobs = self.job_stats();
        let mut r = Response::new(id, Status::Ok);
        let pairs = [
            ("cache_hits", cache.hits),
            ("cache_misses", cache.misses),
            ("cache_evictions", cache.evictions),
            ("cache_entries", cache.entries as u64),
            ("jobs_ok", jobs.ok),
            ("jobs_failed", jobs.failed),
            ("jobs_panicked", jobs.panicked),
            ("jobs_deadline", jobs.deadline),
            ("pool_generation", WorkerPool::global().generation()),
        ];
        for (k, v) in pairs {
            r.extra.push((k.to_string(), v.to_string()));
        }
        // The dispatch engine every parallel job resolves to: `Auto` goes through the
        // process-wide calibration cache, exactly as `run_job`'s executors do, so this
        // is the engine the next job will run on — plus the measured per-op ALU
        // dispatch costs behind the choice.
        let calibration = CalibrationProfile::cached();
        let push = |r: &mut Response, k: &str, v: String| r.extra.push((k.to_string(), v));
        push(
            &mut r,
            "dispatch_tier",
            calibration.selected_tier().to_string(),
        );
        push(
            &mut r,
            "jit_supported",
            helix_runtime::jit_supported().to_string(),
        );
        for (name, tier) in [
            ("calibration_alu_threaded_ns", DispatchTier::Threaded),
            ("calibration_alu_jit_ns", DispatchTier::Jit),
        ] {
            push(
                &mut r,
                name,
                format!("{:.2}", calibration.dispatch_ns(tier)[0]),
            );
        }
        push(
            &mut r,
            "calibration_ns_per_cycle",
            format!("{:.2}", calibration.ns_per_cycle()),
        );
        r
    }

    /// Cache lookup → (prepare on miss) → execute.
    fn run_job(&self, req: &Request) -> Response {
        let raw = raw_hash(&req.source, &req.entry);
        let (image, outcome) = match self.cache.lookup_raw(raw) {
            Some(image) => (image, CacheOutcome::Hit),
            None => {
                let module = match helix_frontend::parse_and_verify(&req.source) {
                    Ok(m) => m,
                    Err(e) => {
                        return Response::fail(req.id, Status::Error, format!("parse error: {e}"))
                    }
                };
                let Some(entry) = module.function_by_name(&req.entry) else {
                    return Response::fail(
                        req.id,
                        Status::Error,
                        format!("entry function {:?} not found", req.entry),
                    );
                };
                let key = content_hash(&module, &req.entry);
                match self.cache.lookup_canonical(key, raw) {
                    Some(image) => (image, CacheOutcome::Hit),
                    None => {
                        let start = Instant::now();
                        let prepared =
                            match self
                                .helix
                                .prepare(&module, entry, &req.args, self.config.fuel)
                            {
                                Ok(p) => p,
                                Err(e) => {
                                    return Response::fail(
                                        req.id,
                                        Status::Error,
                                        format!("prepare failed: {e}"),
                                    )
                                }
                            };
                        let image = Arc::new(ServedImage {
                            key,
                            entry,
                            entry_name: req.entry.clone(),
                            plan: match &prepared.transformed {
                                Some(transformed) => ServedPlan::Parallel(Box::new(
                                    ParallelImage::lower(transformed),
                                )),
                                None => ServedPlan::Sequential(ExecImage::lower(&module)),
                            },
                            prep: start.elapsed(),
                        });
                        (self.cache.insert(raw, image), CacheOutcome::Miss)
                    }
                }
            }
        };

        let mut resp = self.execute(req, &image);
        resp.cache = outcome;
        resp.prep_ns = Some(match outcome {
            CacheOutcome::Miss => image.prep.as_nanos() as u64,
            _ => 0,
        });
        resp
    }

    fn execute(&self, req: &Request, image: &ServedImage) -> Response {
        let start = Instant::now();
        let mut resp = match &image.plan {
            ServedPlan::Parallel(pimg) => {
                let threads = req.threads.unwrap_or(self.config.default_threads).max(1);
                let budget = req.max_iterations.unwrap_or(self.config.max_iterations);
                let mut executor = ParallelExecutor::new(threads)
                    .with_max_iterations(budget)
                    .with_capture_memory(true);
                if let Fault::PanicAt(i) = req.fault {
                    executor = executor.with_injected_panic(i);
                }
                let out = executor.run_parallel_out(pimg, &req.args);
                match out.result {
                    Ok(value) => {
                        let mut r = Response::new(req.id, Status::Ok);
                        r.result = Some(format_result(value));
                        r.memory_hash = out.memory.as_ref().map(memory_digest);
                        r
                    }
                    Err(RuntimeError::WorkerPanicked {
                        worker, message, ..
                    }) => Response::fail(
                        req.id,
                        Status::Panic,
                        format!("worker {worker} panicked: {message}"),
                    ),
                    Err(e) => Response::fail(req.id, Status::Error, e.to_string()),
                }
            }
            ServedPlan::Sequential(exec) => {
                if let Fault::PanicAt(_) = req.fault {
                    return Response::fail(
                        req.id,
                        Status::Error,
                        "fault injection targets the parallel executor, but no loop of this \
                         program qualified for parallelization",
                    );
                }
                let mut machine = ImageMachine::new(exec);
                machine.set_fuel(self.config.fuel);
                match machine.call(image.entry, &req.args) {
                    Ok(value) => {
                        let mut r = Response::new(req.id, Status::Ok);
                        r.result = Some(format_result(value));
                        r.memory_hash = Some(memory_digest(machine.memory()));
                        r
                    }
                    Err(e) => {
                        Response::fail(req.id, Status::Error, format!("execution failed: {e}"))
                    }
                }
            }
        };
        resp.plan = Some(
            match image.plan {
                ServedPlan::Parallel(_) => "parallel",
                ServedPlan::Sequential(_) => "sequential",
            }
            .to_string(),
        );
        resp.exec_ns = Some(start.elapsed().as_nanos() as u64);
        resp
    }

    /// Serves one framed connection: `input` frames are parsed and queued, responses
    /// are written to `output` in completion order. Returns after a `shutdown` frame
    /// (acknowledged immediately; queued jobs drain first) or at input EOF.
    ///
    /// This is both the stdin batch mode (`helix serve --stdio`) and, via
    /// `UnixStream` halves, the per-connection loop of the socket mode.
    pub fn serve_connection<R, W>(&self, mut input: R, output: W)
    where
        R: Read,
        W: Write + Send,
    {
        let queue = JobQueue::new();
        let output = Mutex::new(output);
        let reply = |resp: Response| {
            let _ = write_frame(&mut *lock(&output), &resp.encode());
        };
        std::thread::scope(|scope| {
            for _ in 0..self.config.service_threads.max(1) {
                scope.spawn(|| {
                    while let Some(job) = queue.pop() {
                        reply(self.process_queued(job));
                    }
                });
            }
            loop {
                let frame = match read_frame(&mut input) {
                    Ok(Some(f)) => f,
                    Ok(None) => break,
                    Err(e) => {
                        reply(Response::fail(
                            0,
                            Status::Protocol,
                            format!("bad frame: {e}"),
                        ));
                        break;
                    }
                };
                match Request::parse(&frame) {
                    Ok(req) if req.op == Op::Shutdown => {
                        reply(self.handle(&req));
                        break;
                    }
                    Ok(req) => queue.push(req),
                    Err(e) => reply(Response::fail(0, Status::Protocol, e)),
                }
            }
            queue.close();
        });
    }

    /// Binds `path` and serves socket connections until a `shutdown` frame arrives on
    /// any of them. All connections feed one FIFO queue drained by one set of service
    /// workers, so cross-client fairness is arrival order. The accept blocks; the reader
    /// that receives `shutdown` wakes it by shutting down the listening socket itself, so
    /// the wake-up does not depend on `path` still naming it. The accept loop then shuts
    /// down the read side of every open connection, so a client that stays connected
    /// (idle, or mid-frame) cannot keep the daemon alive: its reader sees the end of its
    /// stream, and queued jobs are still answered.
    ///
    /// Threads stop in a fixed order: every reader has finished before the queue closes,
    /// and every worker before this returns. A thread's allocator arena is freed for reuse
    /// only when the thread is gone, so a daemon restarted in the same process then
    /// reuses arenas in the same order each time, and peak memory does not depend on
    /// which thread happened to exit first.
    pub fn serve_unix(&self, path: &Path) -> std::io::Result<()> {
        let listener = UnixListener::bind(path)?;
        let queue: SocketQueue = Queue::new();
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..self.config.service_threads.max(1))
                .map(|_| {
                    scope.spawn(|| {
                        while let Some(job) = queue.pop() {
                            let resp = self.process_queued(job.job);
                            let _ = write_frame(&mut *lock(&job.writer), &resp.encode());
                        }
                    })
                })
                .collect();
            // Each live reader with a handle on its connection, to end its read.
            let mut readers: Vec<(std::thread::ScopedJoinHandle<()>, UnixStream)> = Vec::new();
            for stream in listener.incoming() {
                if shutdown.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { break };
                let Ok(handle) = stream.try_clone() else {
                    continue;
                };
                let (queue, shutdown, listener) = (&queue, &shutdown, &listener);
                readers.retain(|(reader, _)| !reader.is_finished());
                let reader = scope.spawn(move || {
                    connection_reader(stream, queue, shutdown, listener, |req| {
                        // `handle` so the ack still ticks counters.
                        self.handle(req)
                    });
                });
                readers.push((reader, handle));
            }
            for (_, connection) in &readers {
                let _ = connection.shutdown(Shutdown::Read);
            }
            for (reader, _) in readers {
                let _ = reader.join();
            }
            queue.close();
            for worker in workers {
                let _ = worker.join();
            }
        });
        Ok(())
    }

    fn process_queued(&self, job: QueuedJob) -> Response {
        if let Some(deadline) = job.request.deadline_ms {
            if job.accepted.elapsed() >= Duration::from_millis(deadline) {
                // Counters are normally ticked by `handle`; an expired job bypasses it.
                self.jobs_deadline.fetch_add(1, Ordering::Relaxed);
                return Response::fail(
                    job.request.id,
                    Status::Deadline,
                    format!("deadline of {deadline}ms lapsed before the job was dequeued"),
                );
            }
        }
        self.handle(&job.request)
    }
}

/// Socket-mode reader: parses frames from one connection into the shared queue. On
/// `shutdown` it wakes the listener's blocking accept (see [`wake_accept`]); from then on
/// no reader queues anything (the listener closes the queue once all are gone).
fn connection_reader<F>(
    stream: UnixStream,
    queue: &SocketQueue,
    shutdown: &AtomicBool,
    listener: &UnixListener,
    ack: F,
) where
    F: Fn(&Request) -> Response,
{
    let writer: SharedWriter = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut reader = stream;
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(f)) => f,
            Ok(None) => return,
            Err(e) => {
                let resp = Response::fail(0, Status::Protocol, format!("bad frame: {e}"));
                let _ = write_frame(&mut *lock(&writer), &resp.encode());
                return;
            }
        };
        match Request::parse(&frame) {
            Ok(req) if req.op == Op::Shutdown => {
                let resp = ack(&req);
                let _ = write_frame(&mut *lock(&writer), &resp.encode());
                shutdown.store(true, Ordering::Release);
                wake_accept(listener);
                return;
            }
            Ok(req) if !shutdown.load(Ordering::Acquire) => {
                queue.push_socket(req, Arc::clone(&writer));
            }
            Ok(_) => {}
            Err(e) => {
                let resp = Response::fail(0, Status::Protocol, e);
                let _ = write_frame(&mut *lock(&writer), &resp.encode());
            }
        }
    }
}

/// Ends a blocking `accept` on `listener`: shuts down the receive side of the listening
/// socket, after which Linux fails every `accept` on it, the pending one included. It acts
/// on the socket, not on its path, which a client may already have unlinked. (`shutdown`
/// is the stream-socket call; std only exposes it on [`UnixStream`], so it is reached
/// through a duplicate of the listening descriptor.)
fn wake_accept(listener: &UnixListener) {
    if let Ok(duplicate) = listener.try_clone() {
        let _ = UnixStream::from(OwnedFd::from(duplicate)).shutdown(Shutdown::Read);
    }
}

type SharedWriter = Arc<Mutex<UnixStream>>;

struct QueuedJob {
    request: Request,
    accepted: Instant,
}

struct SocketJob {
    job: QueuedJob,
    writer: SharedWriter,
}

/// FIFO queue: `Mutex<VecDeque>` + `Condvar`. `pop` blocks until a job arrives or the
/// queue is closed *and* drained — closing never drops accepted jobs.
struct Queue<T> {
    state: Mutex<(std::collections::VecDeque<T>, bool)>,
    ready: Condvar,
}

impl<T> Queue<T> {
    fn new() -> Queue<T> {
        Queue {
            state: Mutex::new((std::collections::VecDeque::new(), true)),
            ready: Condvar::new(),
        }
    }

    fn push_item(&self, item: T) {
        let mut state = lock(&self.state);
        if state.1 {
            state.0.push_back(item);
            self.ready.notify_one();
        }
    }

    fn pop(&self) -> Option<T> {
        self.ready
            .wait_while(lock(&self.state), |(items, open)| items.is_empty() && *open)
            .unwrap_or_else(PoisonError::into_inner)
            .0
            .pop_front()
    }

    fn close(&self) {
        lock(&self.state).1 = false;
        self.ready.notify_all();
    }
}

struct JobQueue(Queue<QueuedJob>);
type SocketQueue = Queue<SocketJob>;

impl JobQueue {
    fn new() -> JobQueue {
        JobQueue(Queue::new())
    }

    fn push(&self, request: Request) {
        self.0.push_item(QueuedJob {
            request,
            accepted: Instant::now(),
        });
    }

    fn pop(&self) -> Option<QueuedJob> {
        self.0.pop()
    }

    fn close(&self) {
        self.0.close();
    }
}

impl SocketQueue {
    fn push_socket(&self, request: Request, writer: SharedWriter) {
        self.push_item(SocketJob {
            job: QueuedJob {
                request,
                accepted: Instant::now(),
            },
            writer,
        });
    }
}

/// Word-wise FNV-1a digest of final program memory: the heap bounds, then one step per
/// tag (0 = int, 1 = float) and one per 64-bit payload (floats by `to_bits`, so the digest
/// is exact) of every live word ([`Memory::live_words`]). Spare capacity is not hashed, so
/// the digest depends only on program state, never on how many workers produced it.
pub fn memory_digest(memory: &Memory) -> u64 {
    let mut state = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        state ^= word;
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    };
    eat(memory.heap_base() as u64);
    eat(memory.heap_used() as u64);
    for &word in memory.live_words() {
        match word {
            Value::Int(i) => {
                eat(0);
                eat(i as u64);
            }
            Value::Float(f) => {
                eat(1);
                eat(f.to_bits());
            }
        }
    }
    state
}

fn format_result(value: Option<Value>) -> String {
    match value {
        Some(v) => crate::protocol::format_value(v),
        None => "none".to_string(),
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
