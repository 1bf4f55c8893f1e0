//! The runtime micro-calibrator: measures, on the machine the runtime actually runs on,
//! the quantities the HELIX cost model otherwise takes from the paper's i7-980X — per-op
//! dispatch cost by class, the cross-thread signal latency through [`SignalLanes`], and
//! the worker-pool wake cost — and packages them as a [`CalibrationProfile`] that the
//! selection pipeline consumes.
//!
//! The ROADMAP's "loop-selection recalibration" item, closed: Section 2.2's selection
//! model prices signals with `HelixConfig::selection_signal_latency`, and Figures 12–13 of
//! the paper show how badly mis-estimating that one number distorts selection. On this
//! interpreter the honest numbers are nothing like the paper's silicon constants — a
//! dispatched op costs nanoseconds (not a cycle), and a cross-thread signal handoff on an
//! oversubscribed host costs a scheduler round-trip (microseconds, not 110 cycles). The
//! calibrator measures both in the same currency and [`CalibrationProfile::helix_config`]
//! rewrites the config so selection, segment pricing ([`CalibrationProfile::cost_model`]),
//! prefetch scheduling and the simulator all price plans with measured numbers.
//!
//! Measurement is deliberately cheap (a few milliseconds, cached process-wide behind
//! [`CalibrationProfile::cached`]) and robust: every micro-benchmark takes the *minimum*
//! over repetitions, and per-op costs are derived from the slope between a long and a
//! short kernel so fixed call overhead cancels.

use crate::engine::Engine;
use crate::lanes::SignalLanes;
use crate::pool::WorkerPool;
use crate::sharded::{SharedMemory, WorkerMemory};
use crate::threaded::DispatchTier;
use helix_ir::builder::{FunctionBuilder, ModuleBuilder};
use helix_ir::{BinOp, CostModel, ExecImage, FuncId, Operand, Pred, Value};
use helix_plan::HelixConfig;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The op classes the calibrator times individually.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernel {
    Alu,
    Mul,
    Div,
    Load,
    Store,
}

/// Measured machine constants, in nanoseconds, plus the topology they were measured on.
///
/// All per-op numbers are *dispatch costs* — what one executed op of that class costs end
/// to end on one of the runtime's tiers, dominated by dispatch rather than the ALU work
/// itself. That is the right currency: the speedup model compares segment
/// cycles against signal latencies, and both must be priced in what *this* runtime pays.
///
/// The `Default` is all zeros — "nothing measured", which [`CalibrationProfile::from_text`]
/// refuses — and exists so a parse can start empty and prove every field was filled.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CalibrationProfile {
    /// The column of the retired switch tier, kept in the v3 format until the repository's
    /// benchmark stops reading it: [`CalibrationProfile::measure`] copies the threaded
    /// ALU-class cost here.
    pub alu_ns: f64,
    /// The threaded multiply cost (see [`CalibrationProfile::alu_ns`]).
    pub mul_ns: f64,
    /// The threaded divide/remainder cost (see [`CalibrationProfile::alu_ns`]).
    pub div_ns: f64,
    /// The threaded load cost (see [`CalibrationProfile::alu_ns`]).
    pub load_ns: f64,
    /// The threaded store cost (see [`CalibrationProfile::alu_ns`]).
    pub store_ns: f64,
    /// ns per dispatched ALU-class op in the direct-threaded tier.
    pub alu_threaded_ns: f64,
    /// ns per dispatched multiply in the direct-threaded tier.
    pub mul_threaded_ns: f64,
    /// ns per dispatched divide/remainder in the direct-threaded tier.
    pub div_threaded_ns: f64,
    /// ns per dispatched load in the direct-threaded tier.
    pub load_threaded_ns: f64,
    /// ns per dispatched store in the direct-threaded tier.
    pub store_threaded_ns: f64,
    /// ns per ALU-class op in the template-JIT tier (native straight-line code; where the
    /// JIT is unsupported these mirror the threaded costs, see `measure`).
    pub alu_jit_ns: f64,
    /// ns per multiply in the template-JIT tier.
    pub mul_jit_ns: f64,
    /// ns per divide/remainder in the template-JIT tier.
    pub div_jit_ns: f64,
    /// ns per dispatched load in the template-JIT tier (loads are not JIT-covered, so
    /// this is threaded dispatch measured under the JIT configuration).
    pub load_jit_ns: f64,
    /// ns per dispatched store in the template-JIT tier (same caveat as loads).
    pub store_jit_ns: f64,
    /// Cross-thread signal latency: publish on one thread → observed by a poll on another,
    /// measured as half a [`SignalLanes`] ping-pong round trip. On an oversubscribed host
    /// this includes the scheduler handoff — the honest cost of an unprefetched signal.
    pub signal_observe_ns: f64,
    /// Local cost of publishing one signal lane (the `fetch_max` + waker check).
    pub signal_publish_ns: f64,
    /// Cost of a satisfied `Wait` poll (the published line is already local) — the
    /// measured analogue of the paper's fully-prefetched 4-cycle signal.
    pub signal_poll_ns: f64,
    /// Worker-pool round trip: submit a no-op job to one helper and join it — the measured
    /// per-invocation configuration overhead (`Conf_i`).
    pub pool_wake_ns: f64,
    /// Hardware threads the OS reports for this process.
    pub hardware_threads: usize,
}

impl CalibrationProfile {
    /// Measures the machine. Takes a few milliseconds; prefer
    /// [`CalibrationProfile::cached`] unless a fresh measurement is explicitly wanted.
    pub fn measure() -> CalibrationProfile {
        let alu_threaded_ns = per_op_ns(Kernel::Alu, DispatchTier::Threaded);
        let mul_threaded_ns = per_op_ns(Kernel::Mul, DispatchTier::Threaded).max(alu_threaded_ns);
        let div_threaded_ns = per_op_ns(Kernel::Div, DispatchTier::Threaded).max(alu_threaded_ns);
        let load_threaded_ns = per_op_ns(Kernel::Load, DispatchTier::Threaded).max(alu_threaded_ns);
        let store_threaded_ns =
            per_op_ns(Kernel::Store, DispatchTier::Threaded).max(alu_threaded_ns);
        // Where the JIT cannot run, its honest cost *is* the threaded cost (that is what
        // the Jit tier degrades to), so mirror rather than invent numbers.
        let (alu_jit_ns, mul_jit_ns, div_jit_ns, load_jit_ns, store_jit_ns) =
            if crate::jit::jit_supported() {
                let alu = per_op_ns(Kernel::Alu, DispatchTier::Jit);
                (
                    alu,
                    per_op_ns(Kernel::Mul, DispatchTier::Jit).max(alu),
                    per_op_ns(Kernel::Div, DispatchTier::Jit).max(alu),
                    per_op_ns(Kernel::Load, DispatchTier::Jit).max(alu),
                    per_op_ns(Kernel::Store, DispatchTier::Jit).max(alu),
                )
            } else {
                (
                    alu_threaded_ns,
                    mul_threaded_ns,
                    div_threaded_ns,
                    load_threaded_ns,
                    store_threaded_ns,
                )
            };
        let (signal_observe_ns, signal_publish_ns, signal_poll_ns) = signal_latencies();
        let pool_wake_ns = pool_wake();
        CalibrationProfile {
            alu_ns: alu_threaded_ns,
            mul_ns: mul_threaded_ns,
            div_ns: div_threaded_ns,
            load_ns: load_threaded_ns,
            store_ns: store_threaded_ns,
            alu_threaded_ns,
            mul_threaded_ns,
            div_threaded_ns,
            load_threaded_ns,
            store_threaded_ns,
            alu_jit_ns,
            mul_jit_ns,
            div_jit_ns,
            load_jit_ns,
            store_jit_ns,
            signal_observe_ns,
            signal_publish_ns,
            signal_poll_ns,
            pool_wake_ns,
            hardware_threads: crate::pool::detect_hardware_threads(),
        }
    }

    /// The process-wide profile, measured once on first use.
    pub fn cached() -> &'static CalibrationProfile {
        static PROFILE: OnceLock<CalibrationProfile> = OnceLock::new();
        PROFILE.get_or_init(CalibrationProfile::measure)
    }

    /// Per-class dispatch costs `[alu, mul, div, load, store]` of the tier `tier` resolves
    /// to ([`DispatchTier::resolved`]), in ns.
    pub fn dispatch_ns(&self, tier: DispatchTier) -> [f64; 5] {
        match tier.resolved() {
            DispatchTier::Jit => [
                self.alu_jit_ns,
                self.mul_jit_ns,
                self.div_jit_ns,
                self.load_jit_ns,
                self.store_jit_ns,
            ],
            _ => [
                self.alu_threaded_ns,
                self.mul_threaded_ns,
                self.div_threaded_ns,
                self.load_threaded_ns,
                self.store_threaded_ns,
            ],
        }
    }

    /// Nanoseconds per *model cycle*: the measured ALU dispatch of the tier `Auto` runs on
    /// anchors the currency (an ALU op costs 1 cycle in every [`CostModel`]).
    pub fn ns_per_cycle(&self) -> f64 {
        self.dispatch_ns(DispatchTier::Auto)[0].max(0.05)
    }

    fn cycles(&self, ns: f64) -> u64 {
        (ns / self.ns_per_cycle()).round().max(1.0) as u64
    }

    /// The measured intra-core cost model: per-class dispatch costs of the tier `Auto`
    /// runs on, converted into model cycles (ALU = 1 by construction). In an interpreter,
    /// dispatch dominates, so the classes are much flatter than silicon's — exactly what
    /// segment pricing should use.
    pub fn cost_model(&self) -> CostModel {
        let paper = CostModel::intel_i7_980x();
        let [_, mul_ns, div_ns, load_ns, store_ns] = self.dispatch_ns(DispatchTier::Auto);
        CostModel {
            alu: 1,
            mul: self.cycles(mul_ns),
            div: self.cycles(div_ns),
            load: self.cycles(load_ns),
            store: self.cycles(store_ns),
            // Calls and allocations are not micro-timed (rare in loop bodies); scale the
            // paper's ratios by the measured load cost so they stay plausible.
            call: (paper.call * self.cycles(load_ns)).max(1) / paper.load.max(1),
            alloc: (paper.alloc * self.cycles(load_ns)).max(1) / paper.load.max(1),
            branch: 1,
            wait_local: self.cycles(self.signal_poll_ns),
            signal: self.cycles(self.signal_publish_ns),
        }
    }

    /// Rewrites `base` so every latency the selection model, the prefetch scheduler and
    /// the simulator consult is the measured one:
    ///
    /// * run-time signal latencies (`signal_latency_unprefetched`/`_prefetched`) become the
    ///   measured cross-thread observe / local poll costs,
    /// * the *selection* latencies follow them — the whole point of the feedback loop,
    /// * word transfer rides the same cache-line handoff as a signal,
    /// * the per-invocation configuration overhead becomes the measured pool wake cost,
    /// * helper-thread prefetching is disabled: this runtime implements no SMT signal
    ///   prefetchers (a ROADMAP item), so pricing signals as prefetched would repeat the
    ///   very misestimation the calibration exists to remove.
    pub fn helix_config(&self, base: HelixConfig) -> HelixConfig {
        let mut config = base;
        config.signal_latency_unprefetched = self.cycles(self.signal_observe_ns);
        config.signal_latency_prefetched = self.cycles(self.signal_poll_ns);
        config.selection_signal_latency = config.signal_latency_unprefetched;
        config.selection_signal_latency_prefetched = config.signal_latency_prefetched;
        config.word_transfer_latency = self.cycles(self.signal_observe_ns);
        config.config_overhead = self.cycles(self.pool_wake_ns);
        config.enable_helper_threads = false;
        config.enable_prefetch_balancing = false;
        config
    }

    /// The nanosecond fields in `helix-calibration v3` file order, each with its key.
    fn ns_fields(&mut self) -> [(&'static str, &mut f64); 19] {
        [
            ("alu_ns", &mut self.alu_ns),
            ("mul_ns", &mut self.mul_ns),
            ("div_ns", &mut self.div_ns),
            ("load_ns", &mut self.load_ns),
            ("store_ns", &mut self.store_ns),
            ("alu_threaded_ns", &mut self.alu_threaded_ns),
            ("mul_threaded_ns", &mut self.mul_threaded_ns),
            ("div_threaded_ns", &mut self.div_threaded_ns),
            ("load_threaded_ns", &mut self.load_threaded_ns),
            ("store_threaded_ns", &mut self.store_threaded_ns),
            ("alu_jit_ns", &mut self.alu_jit_ns),
            ("mul_jit_ns", &mut self.mul_jit_ns),
            ("div_jit_ns", &mut self.div_jit_ns),
            ("load_jit_ns", &mut self.load_jit_ns),
            ("store_jit_ns", &mut self.store_jit_ns),
            ("signal_observe_ns", &mut self.signal_observe_ns),
            ("signal_publish_ns", &mut self.signal_publish_ns),
            ("signal_poll_ns", &mut self.signal_poll_ns),
            ("pool_wake_ns", &mut self.pool_wake_ns),
        ]
    }

    /// Serializes the profile as the `helix-calibration v3` text format (one `key value`
    /// pair per line), the format `helix explain --calibration-file` reads and writes.
    pub fn to_text(&self) -> String {
        let mut text = String::from("helix-calibration v3\n");
        let mut copy = *self;
        for (key, value) in copy.ns_fields() {
            text.push_str(&format!("{key} {value}\n"));
        }
        text.push_str(&format!("hardware_threads {}\n", self.hardware_threads));
        text
    }

    /// Parses the `helix-calibration v3` text format — the only one. Files written by
    /// older releases (v1, v2) lack the per-tier dispatch costs selection now prices with;
    /// they are measurements of a machine, cheap to retake, so they are refused rather
    /// than padded with stand-in numbers.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or missing field; an older format
    /// version is named along with the way to regenerate the file.
    pub fn from_text(text: &str) -> Result<CalibrationProfile, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some("helix-calibration v3") => {}
            Some(header @ ("helix-calibration v1" | "helix-calibration v2")) => {
                return Err(format!(
                    "unsupported calibration format `{header}`: only `helix-calibration v3` \
                     is read; delete the file and re-run `helix explain --calibration-file` \
                     to measure this machine again"
                ))
            }
            other => return Err(format!("bad calibration header: {other:?}")),
        }
        // Every field starts at zero, so a missing key fails the final check.
        let mut profile = CalibrationProfile::default();
        for line in lines.map(str::trim).filter(|l| !l.is_empty()) {
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed calibration line: {line:?}"))?;
            let bad_value = || format!("bad value for {key}: {value:?}");
            if key == "hardware_threads" {
                profile.hardware_threads = value.parse().map_err(|_| bad_value())?;
            } else {
                let mut fields = profile.ns_fields();
                let (_, slot) = fields
                    .iter_mut()
                    .find(|(k, _)| *k == key)
                    .ok_or_else(|| format!("unknown calibration key: {key:?}"))?;
                **slot = value.parse().map_err(|_| bad_value())?;
            }
        }
        let complete = profile
            .ns_fields()
            .iter()
            .all(|(_, v)| v.is_finite() && **v > 0.0);
        if !complete || profile.hardware_threads == 0 {
            return Err("calibration file is missing fields or has non-positive values".into());
        }
        Ok(profile)
    }
}

/// How many times a calibration kernel's loop body runs per invocation.
const KERNEL_ITERS: i64 = 128;

/// Builds a kernel that executes a counted loop whose body is `body_ops` ops of one
/// class, and lowers it.
///
/// Two shape decisions keep the measurement honest:
///
/// * **The body is a loop, not a straight line.** HELIX prices ops inside parallelized
///   loop segments — code that re-executes hot. A straight-line kernel of thousands of
///   ops executes each instruction exactly once per run, which for a code-expanding
///   tier (the JIT emits ~100–200 bytes of template per op) turns the measurement into
///   a cold instruction-fetch benchmark instead of a dispatch benchmark. A compact body
///   re-entered `KERNEL_ITERS` times is warm in every tier, like the real workloads.
/// * **The ops rotate over eight independent accumulators.** A single `v = v op 1`
///   chain serializes on the value's store-to-load latency, which out-of-order hardware
///   overlaps with dispatch — hiding most of the cost this kernel exists to measure.
///   Independent lanes keep the data side off the critical path, so the slope prices
///   per-op dispatch/throughput.
fn kernel_image(kind: Kernel, body_ops: usize) -> (ExecImage, FuncId) {
    const LANES: usize = 8;
    let mut mb = ModuleBuilder::new("calibration");
    let g = mb.add_global("g", 4);
    let mut fb = FunctionBuilder::new("k", 0);
    let vars: Vec<_> = (0..LANES)
        .map(|_| {
            let v = fb.new_var();
            fb.const_int(v, 1);
            v
        })
        .collect();
    let n = fb.new_var();
    fb.const_int(n, KERNEL_ITERS);
    let body = fb.new_block();
    let exit = fb.new_block();
    fb.br(body);
    fb.switch_to(body);
    for i in 0..body_ops {
        let v = vars[i % LANES];
        match kind {
            Kernel::Alu => fb.binary(v, BinOp::Add, Operand::Var(v), Operand::int(1)),
            Kernel::Mul => fb.binary(v, BinOp::Mul, Operand::Var(v), Operand::int(1)),
            Kernel::Div => fb.binary(v, BinOp::Div, Operand::Var(v), Operand::int(1)),
            Kernel::Load => fb.load(v, Operand::Global(g), 0),
            Kernel::Store => fb.store(Operand::Global(g), 0, Operand::Var(v)),
        }
    }
    fb.binary(n, BinOp::Sub, Operand::Var(n), Operand::int(1));
    let c = fb.cmp_to_new(Pred::Gt, Operand::Var(n), Operand::int(0));
    fb.cond_br(Operand::Var(c), body, exit);
    fb.switch_to(exit);
    fb.ret(Some(Operand::Var(vars[0])));
    let func = mb.add_function(fb.finish());
    let module = mb.finish();
    (ExecImage::lower(&module), func)
}

/// Best-of-`reps` wall time of one full kernel run through one dispatch engine. The
/// threaded/JIT tiers' handler tables (and compiled chunks) are built outside the timed
/// region, mirroring how the executor amortizes them across a run.
fn time_kernel(image: &ExecImage, func: FuncId, reps: usize, tier: DispatchTier) -> Duration {
    let fi = &image.funcs[func.index()];
    let engine = Engine::for_func(tier, image, func);
    let memory = SharedMemory::from_memory(&image.initial_memory);
    let mut mem = WorkerMemory::new(&memory);
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let mut regs = vec![Value::default(); fi.num_regs];
        let start = Instant::now();
        let result = engine.run_from(fi.entry_block, None, &mut regs, &mut mem, u64::MAX);
        let _ = std::hint::black_box(result);
        best = best.min(start.elapsed());
    }
    best
}

/// ns per op of `kind` under `tier`, from the slope between a long-body and a
/// short-body kernel: the per-iteration loop overhead (counter, compare, branch, chunk
/// entry) and the fixed call overhead are identical in both and cancel.
fn per_op_ns(kind: Kernel, tier: DispatchTier) -> f64 {
    const LONG: usize = 128;
    const SHORT: usize = 16;
    const REPS: usize = 9;
    let (long_img, long_fn) = kernel_image(kind, LONG);
    let (short_img, short_fn) = kernel_image(kind, SHORT);
    let long = time_kernel(&long_img, long_fn, REPS, tier).as_nanos() as f64;
    let short = time_kernel(&short_img, short_fn, REPS, tier).as_nanos() as f64;
    ((long - short) / (KERNEL_ITERS as f64 * (LONG - SHORT) as f64)).max(0.05)
}

/// Measures the signal-lane costs: `(cross-thread observe, local publish, satisfied poll)`
/// in ns. The observe latency is half a two-lane ping-pong round trip between two real
/// threads — on an oversubscribed machine this rightly includes the scheduler handoff.
fn signal_latencies() -> (f64, f64, f64) {
    let lanes = SignalLanes::new(2, 8);

    // Local publish: repeated release fetch_max on one row.
    const PUB: u64 = 20_000;
    let start = Instant::now();
    for i in 0..PUB {
        lanes.signal(0, i);
    }
    let publish_ns = (start.elapsed().as_nanos() as f64 / PUB as f64).max(0.05);

    // Satisfied poll: the published line is local.
    const POLL: u64 = 20_000;
    let start = Instant::now();
    let mut hits = 0u64;
    for _ in 0..POLL {
        hits += u64::from(std::hint::black_box(lanes.poll(0, 1)));
    }
    let poll_ns = (start.elapsed().as_nanos() as f64 / POLL as f64).max(0.05);
    assert_eq!(hits, POLL, "lane 0 was published above");

    // Cross-thread ping-pong. Budget-bounded: stop after enough rounds or enough time.
    const ROUNDS: u64 = 512;
    let lanes = SignalLanes::new(2, 8);
    let elapsed = std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..ROUNDS {
                while !lanes.poll(0, i + 1) {
                    std::thread::yield_now();
                }
                lanes.signal(1, i);
            }
        });
        let start = Instant::now();
        for i in 0..ROUNDS {
            lanes.signal(0, i);
            while !lanes.poll(1, i + 1) {
                std::thread::yield_now();
            }
        }
        start.elapsed()
    });
    let observe_ns = (elapsed.as_nanos() as f64 / (2 * ROUNDS) as f64).max(publish_ns);
    (observe_ns, publish_ns, poll_ns)
}

/// Measures the pool wake round trip: submit a no-op job to one (pre-spawned) helper and
/// join it.
fn pool_wake() -> f64 {
    let pool = WorkerPool::new();
    let noop = |_ix: usize| {};
    let joined = pool.submit(1, &noop).wait(); // spawn + warm the helper
    joined.expect("calibration no-op job cannot panic");
    let mut best = Duration::MAX;
    for _ in 0..7 {
        let start = Instant::now();
        pool.submit(1, &noop)
            .wait()
            .expect("calibration no-op job cannot panic");
        best = best.min(start.elapsed());
    }
    (best.as_nanos() as f64).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_profile_is_sane_and_round_trips() {
        let p = CalibrationProfile::measure();
        for (name, v) in [
            ("alu", p.alu_ns),
            ("mul", p.mul_ns),
            ("div", p.div_ns),
            ("load", p.load_ns),
            ("store", p.store_ns),
            ("alu_threaded", p.alu_threaded_ns),
            ("mul_threaded", p.mul_threaded_ns),
            ("div_threaded", p.div_threaded_ns),
            ("load_threaded", p.load_threaded_ns),
            ("store_threaded", p.store_threaded_ns),
            ("alu_jit", p.alu_jit_ns),
            ("mul_jit", p.mul_jit_ns),
            ("div_jit", p.div_jit_ns),
            ("load_jit", p.load_jit_ns),
            ("store_jit", p.store_jit_ns),
            ("observe", p.signal_observe_ns),
            ("publish", p.signal_publish_ns),
            ("poll", p.signal_poll_ns),
            ("wake", p.pool_wake_ns),
        ] {
            assert!(v.is_finite() && v > 0.0, "{name} must be positive, got {v}");
        }
        assert!(p.hardware_threads >= 1);
        // A cross-thread observe can never be cheaper than a local publish.
        assert!(p.signal_observe_ns >= p.signal_publish_ns);
        // Round trip through the text format.
        let text = p.to_text();
        assert!(text.starts_with("helix-calibration v3\n"));
        let q = CalibrationProfile::from_text(&text).expect("round trip");
        assert_eq!(p, q);
        // Malformed inputs are rejected.
        assert!(CalibrationProfile::from_text("nope").is_err());
        assert!(CalibrationProfile::from_text("helix-calibration v3\nalu_ns x\n").is_err());
        assert!(CalibrationProfile::from_text("helix-calibration v3\n").is_err());
    }

    /// A v3 profile whose retired switch column and two tiers cost `switch`/`threaded`/`jit`
    /// ns for every op class.
    fn flat_profile(switch: f64, threaded: f64, jit: f64) -> CalibrationProfile {
        CalibrationProfile {
            alu_ns: switch,
            mul_ns: switch,
            div_ns: switch,
            load_ns: switch,
            store_ns: switch,
            alu_threaded_ns: threaded,
            mul_threaded_ns: threaded,
            div_threaded_ns: threaded,
            load_threaded_ns: threaded,
            store_threaded_ns: threaded,
            alu_jit_ns: jit,
            mul_jit_ns: jit,
            div_jit_ns: jit,
            load_jit_ns: jit,
            store_jit_ns: jit,
            signal_observe_ns: 100.0,
            signal_publish_ns: 5.0,
            signal_poll_ns: 1.0,
            pool_wake_ns: 1000.0,
            hardware_threads: 6,
        }
    }

    #[test]
    fn older_format_versions_are_refused_with_a_way_forward() {
        for version in ["v1", "v2"] {
            let text = format!(
                "helix-calibration {version}\n\
                 alu_ns 10\nmul_ns 11\ndiv_ns 12\nload_ns 13\nstore_ns 14\n\
                 signal_observe_ns 100\nsignal_publish_ns 5\nsignal_poll_ns 1\n\
                 pool_wake_ns 1000\nhardware_threads 6\n"
            );
            let err = CalibrationProfile::from_text(&text).expect_err("old format refused");
            assert!(
                err.contains(&format!("helix-calibration {version}")),
                "names the version it saw: {err}"
            );
            assert!(
                err.contains("re-run `helix explain --calibration-file`"),
                "says how to regenerate: {err}"
            );
        }
    }

    #[test]
    fn selected_tier_considers_the_jit_only_on_a_strict_supported_win() {
        // Read-side of the env lock: the branch below must see a stable
        // `jit_supported()` verdict across its assertions.
        let _env = crate::jit::TEST_ENV_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        // The tier `Auto` selects is `DispatchTier::resolved`'s: the JIT wherever it runs,
        // else the threaded tier. Whether the JIT column measured a win, a loss or a tie
        // does not move it, and the cost currency prices the selected tier.
        for p in [
            flat_profile(10.0, 4.0, 1.0),
            flat_profile(10.0, 1.0, 4.0),
            flat_profile(10.0, 4.0, 4.0),
        ] {
            let selected = if crate::jit::jit_supported() {
                p.alu_jit_ns
            } else {
                p.alu_threaded_ns
            };
            assert_eq!(p.ns_per_cycle(), selected);
            assert_eq!(p.dispatch_ns(DispatchTier::Auto)[0], selected);
        }
    }

    #[test]
    fn selected_tier_prefers_the_measured_faster_engine() {
        // No measured column picks a tier any more; each column prices only the tier it
        // measured. A pin keeps its own column whichever is faster.
        let p = flat_profile(10.0, 4.0, 1.0);
        assert_eq!(p.dispatch_ns(DispatchTier::Threaded), [4.0; 5]);
        assert_eq!(p.dispatch_ns(DispatchTier::Jit), [1.0; 5]);
        // The retired switch column prices nothing, however fast it reads: `Switch` runs
        // on the threaded tier and costs its column, and `Auto` never lands on it.
        let p = flat_profile(1.0, 40.0, 40.0);
        assert_eq!(p.dispatch_ns(DispatchTier::Switch), [40.0; 5]);
        assert_eq!(p.ns_per_cycle(), 40.0);
    }

    #[test]
    fn calibrated_config_prices_signals_from_measurement() {
        let p = CalibrationProfile::cached();
        let config = p.helix_config(HelixConfig::i7_980x());
        assert_eq!(
            config.selection_signal_latency,
            config.signal_latency_unprefetched
        );
        assert_eq!(
            config.selection_signal_latency_prefetched,
            config.signal_latency_prefetched
        );
        assert!(config.signal_latency_unprefetched >= config.signal_latency_prefetched);
        assert!(config.signal_latency_unprefetched >= 1);
        // The cost model stays anchored at ALU = 1 with every class at least that.
        let cost = p.cost_model();
        assert_eq!(cost.alu, 1);
        assert!(cost.load >= 1 && cost.store >= 1 && cost.mul >= 1);
        // Ablation switches are preserved.
        assert!(config.enable_signal_minimization);
    }
}
