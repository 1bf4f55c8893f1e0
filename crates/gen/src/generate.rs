//! The structured program generator.
//!
//! [`generate`] turns a `(seed, GenConfig)` pair into a verifier-clean, terminating,
//! deterministic HIR module spanning the program shapes the HELIX paper calls *irregular*:
//!
//! * nested counted loop hierarchies with scalar register reductions (loop-carried register
//!   dependences),
//! * read-modify-write global accumulators (loop-carried memory dependences), optionally
//!   guarded by data-dependent masks so the carried update is *rare*,
//! * pointer chasing over a generated heap graph: a setup loop links nodes of a global
//!   region into an arbitrary (possibly cyclic) successor function, then a chase loop walks
//!   it with the carried pointer re-defined at the very end of the body — the exact shape
//!   that exposed the PR 2 Step-6 signal-merge soundness bug,
//! * irregular branching: data-dependent diamonds, early latch continues, in-loop `ret`
//!   (both in search-shaped helpers and in `main` itself),
//! * calls, including bounded recursion, and per-iteration heap allocation.
//!
//! Every generated loop is bounded (counted loops by construction, pointer chases by a step
//! counter), every memory access is range-checked at generation time (indices are reduced
//! modulo the target object's size), and no instruction can fault: the IR defines division
//! by zero, shift overflow and wrapping arithmetic. `main` always takes zero parameters and
//! returns a checksum that folds every scenario's result and is also stored to a global, so
//! result *and* final-memory comparisons both have teeth.

use crate::config::GenConfig;
use crate::rng::GenRng;
use helix_ir::builder::{FunctionBuilder, ModuleBuilder};
use helix_ir::{BinOp, DepId, FuncId, GlobalId, Module, Operand, Pred, UnOp, VarId};
use std::fmt;

/// A generated program: the module, its entry point, and the seed that reproduces it.
#[derive(Clone, PartialEq)]
pub struct GeneratedProgram {
    /// The seed passed to [`generate`].
    pub seed: u64,
    /// The generated module (verifier-clean by construction; tests assert it).
    pub module: Module,
    /// The zero-parameter entry function, always named `main`.
    pub main: FuncId,
}

impl GeneratedProgram {
    /// The canonical textual form (the `.hir` format).
    pub fn text(&self) -> String {
        helix_ir::printer::format_module(&self.module)
    }
}

impl fmt::Debug for GeneratedProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Property-test harnesses print failing inputs with `{:?}`; the canonical text *is*
        // the reproduction, so emit it whole rather than the raw IR data structures.
        writeln!(
            f,
            "GeneratedProgram {{ seed: {}, functions: {}, instrs: {} }}",
            self.seed,
            self.module.functions.len(),
            self.module.instr_count()
        )?;
        f.write_str(&self.text())
    }
}

/// Generates one program from a seed. Deterministic: same seed + config, same module.
pub fn generate(seed: u64, config: &GenConfig) -> GeneratedProgram {
    Gen::new(seed, config).run()
}

/// Identifies the shared objects every scenario can touch.
struct Ctx {
    out: GlobalId,
    arr: GlobalId,
    arr_words: i64,
    accs: Vec<GlobalId>,
    nodes: Option<(GlobalId, i64)>,
    helpers: Vec<FuncId>,
}

struct Gen<'a> {
    rng: GenRng,
    config: &'a GenConfig,
    seed: u64,
}

/// Scenario kinds `main` chains together.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Scenario {
    CountedNest,
    PointerChase,
    IrregularLoop,
    CallLoop,
    FloatReduction,
    AllocLoop,
    EarlyRetLoop,
}

/// Helper function kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Helper {
    Chain,
    Search,
    Recursive,
    MemoryTouch,
}

impl<'a> Gen<'a> {
    fn new(seed: u64, config: &'a GenConfig) -> Self {
        Self {
            rng: GenRng::new(seed),
            config,
            seed,
        }
    }

    fn run(mut self) -> GeneratedProgram {
        let mut mb = ModuleBuilder::new(format!("gen_{}", self.seed));
        let out = mb.add_global("out", 1);
        let arr_words = self.config.array_words.max(4);
        let mut arr_init = Vec::new();
        for i in 0..self.rng.range_usize(0, 6.min(arr_words)) {
            if self.config.enable_floats && self.rng.chance(25) {
                arr_init.push(helix_ir::Value::Float(
                    self.rng.range_i64(-64, 64) as f64 / 4.0,
                ));
            } else {
                arr_init.push(helix_ir::Value::Int(
                    self.rng.range_i64(-9, 9) * (i as i64 + 1),
                ));
            }
        }
        let arr = mb.add_global_init("arr", arr_words, arr_init);
        let accs: Vec<GlobalId> = (0..self.rng.range_usize(1, 3))
            .map(|i| {
                let init = vec![helix_ir::Value::Int(self.rng.range_i64(-4, 4))];
                mb.add_global_init(format!("acc{i}"), 1, init)
            })
            .collect();
        let nodes = if self.config.enable_pointer_chase {
            let n = self.config.heap_nodes.max(2) as i64;
            Some((mb.add_global("nodes", (2 * n) as usize), n))
        } else {
            None
        };

        // Helpers are declared first so call sites (including recursive ones) know their ids.
        let mut helper_kinds = Vec::new();
        if self.config.enable_calls {
            for _ in 0..self.rng.range_usize(0, self.config.max_helpers) {
                let mut kinds = vec![Helper::Chain, Helper::Recursive];
                if self.config.enable_in_loop_ret {
                    kinds.push(Helper::Search);
                }
                if self.config.enable_memory {
                    kinds.push(Helper::MemoryTouch);
                }
                helper_kinds.push(*self.rng.pick(&kinds));
            }
        }
        let helper_ids: Vec<FuncId> = helper_kinds
            .iter()
            .enumerate()
            .map(|(i, _)| mb.declare_function(format!("h{i}"), 1))
            .collect();

        let mut ctx = Ctx {
            out,
            arr,
            arr_words: arr_words as i64,
            accs,
            nodes,
            helpers: Vec::new(),
        };
        for (i, (kind, id)) in helper_kinds.iter().zip(&helper_ids).enumerate() {
            let f = self.build_helper(*kind, i, *id, &ctx);
            mb.define_function(*id, f);
        }
        ctx.helpers = helper_ids;

        let main_fn = self.build_main(&ctx);
        let main = mb.add_function(main_fn);
        GeneratedProgram {
            seed: self.seed,
            module: mb.finish(),
            main,
        }
    }

    // ----------------------------------------------------------------- helpers

    fn build_helper(
        &mut self,
        kind: Helper,
        index: usize,
        self_id: FuncId,
        ctx: &Ctx,
    ) -> helix_ir::Function {
        let mut fb = FunctionBuilder::new(format!("h{index}"), 1);
        let x = fb.param(0);
        match kind {
            Helper::Chain => {
                let mut v = self.arithmetic_chain(&mut fb, x);
                if self.config.enable_irregular_branching && self.rng.chance(50) {
                    let r = fb.new_var();
                    let bit = fb.binary_to_new(BinOp::And, Operand::Var(v), Operand::int(1));
                    let arms = fb.if_else(Operand::Var(bit));
                    fb.binary(r, BinOp::Mul, Operand::Var(v), Operand::int(3));
                    fb.binary(r, BinOp::Add, Operand::Var(r), Operand::int(1));
                    fb.br(arms.join);
                    fb.switch_to(arms.else_bb);
                    fb.binary(r, BinOp::Shr, Operand::Var(v), Operand::int(1));
                    fb.br(arms.join);
                    fb.switch_to(arms.join);
                    v = r;
                }
                fb.ret(Some(Operand::Var(v)));
            }
            Helper::Search => {
                // Scan a small iteration space; `ret` fires from inside the loop body on a
                // data-dependent hit, otherwise a default is returned after the exit.
                let trip = self.rng.range_i64(2, self.config.max_trip_count.max(2));
                let lh = fb.counted_loop(Operand::int(0), Operand::int(trip), 1);
                let mixed =
                    fb.binary_to_new(BinOp::Add, Operand::Var(x), Operand::Var(lh.induction_var));
                let t = self.arithmetic_chain(&mut fb, mixed);
                let mask = *self.rng.pick(&[3i64, 7, 15]);
                let target = self.rng.range_i64(0, mask);
                let low = fb.binary_to_new(BinOp::And, Operand::Var(t), Operand::int(mask));
                let hit = fb.cmp_to_new(Pred::Eq, Operand::Var(low), Operand::int(target));
                let ret_bb = fb.new_block();
                fb.cond_br(Operand::Var(hit), ret_bb, lh.latch);
                fb.switch_to(ret_bb);
                fb.ret(Some(Operand::Var(t)));
                fb.switch_to(lh.exit);
                let fallback =
                    fb.binary_to_new(BinOp::Mul, Operand::Var(x), Operand::int(trip + 1));
                fb.ret(Some(Operand::Var(fallback)));
            }
            Helper::Recursive => {
                // Bounded recursion: callers clamp the argument, and the base case guards
                // every path, so the explicit-frame engine and the native-stack tree walker
                // both stay within budget.
                let base = fb.cmp_to_new(Pred::Le, Operand::Var(x), Operand::int(0));
                let arms = fb.if_else(Operand::Var(base));
                fb.ret(Some(Operand::int(1)));
                fb.switch_to(arms.else_bb);
                let down = fb.binary_to_new(BinOp::Sub, Operand::Var(x), Operand::int(1));
                let rec = fb.new_var();
                fb.call(Some(rec), self_id, vec![Operand::Var(down)]);
                let scaled = fb.binary_to_new(BinOp::Mul, Operand::Var(rec), Operand::int(31));
                let folded = fb.binary_to_new(BinOp::Add, Operand::Var(scaled), Operand::Var(x));
                fb.ret(Some(Operand::Var(folded)));
                fb.switch_to(arms.join);
                // Unreachable join of the two returning arms; the verifier still requires a
                // terminator.
                fb.ret(Some(Operand::int(0)));
            }
            Helper::MemoryTouch => {
                let addr = self.array_slot(&mut fb, x, ctx);
                let cur = fb.load_to_new(Operand::Var(addr), 0);
                let next = fb.binary_to_new(BinOp::Add, Operand::Var(cur), Operand::Var(x));
                fb.store(Operand::Var(addr), 0, Operand::Var(next));
                fb.ret(Some(Operand::Var(next)));
            }
        }
        fb.finish()
    }

    // ----------------------------------------------------------------- main

    fn build_main(&mut self, ctx: &Ctx) -> helix_ir::Function {
        let mut fb = FunctionBuilder::new("main", 0);
        let chk = fb.const_int_to_new(self.rng.range_i64(0, 7));
        let count = self.rng.range_usize(1, self.config.max_scenarios.max(1));
        for _ in 0..count {
            let mut kinds = vec![Scenario::CountedNest];
            if ctx.nodes.is_some() {
                kinds.push(Scenario::PointerChase);
            }
            if self.config.enable_irregular_branching {
                kinds.push(Scenario::IrregularLoop);
            }
            if !ctx.helpers.is_empty() {
                kinds.push(Scenario::CallLoop);
            }
            if self.config.enable_floats {
                kinds.push(Scenario::FloatReduction);
            }
            if self.config.enable_alloc {
                kinds.push(Scenario::AllocLoop);
            }
            if self.config.enable_in_loop_ret && self.rng.chance(25) {
                kinds.push(Scenario::EarlyRetLoop);
            }
            let kind = *self.rng.pick(&kinds);
            let v = match kind {
                Scenario::CountedNest => self.counted_nest(&mut fb, ctx),
                Scenario::PointerChase => self.pointer_chase(&mut fb, ctx),
                Scenario::IrregularLoop => self.irregular_loop(&mut fb, ctx),
                Scenario::CallLoop => self.call_loop(&mut fb, ctx),
                Scenario::FloatReduction => self.float_reduction(&mut fb),
                Scenario::AllocLoop => self.alloc_loop(&mut fb),
                Scenario::EarlyRetLoop => self.early_ret_loop(&mut fb, ctx, chk),
            };
            fb.binary(chk, BinOp::Mul, Operand::Var(chk), Operand::int(1099087573));
            fb.binary(chk, BinOp::Add, Operand::Var(chk), Operand::Var(v));
        }
        fb.store(Operand::Global(ctx.out), 0, Operand::Var(chk));
        fb.ret(Some(Operand::Var(chk)));
        fb.finish()
    }

    /// Nested counted loops with a register reduction and optional array traffic and guarded
    /// accumulator updates in the innermost body.
    fn counted_nest(&mut self, fb: &mut FunctionBuilder, ctx: &Ctx) -> VarId {
        let depth = self.rng.range_usize(1, self.config.max_loop_depth.max(1));
        let red = fb.const_int_to_new(self.rng.range_i64(0, 9));
        let mut budget = self.config.max_nest_iterations.max(1);
        let mut handles = Vec::new();
        for _ in 0..depth {
            let trip = self
                .rng
                .range_i64(1, self.config.max_trip_count.clamp(1, budget.max(1)));
            let step = if self.rng.chance(20) { 2 } else { 1 };
            budget = (budget / trip.max(1)).max(1);
            handles.push(fb.counted_loop(Operand::int(0), Operand::int(trip), step));
        }
        let innermost = *handles.last().expect("depth >= 1");
        // Mix the induction variables of every nesting level.
        let mut v = fb.binary_to_new(
            BinOp::Mul,
            Operand::Var(innermost.induction_var),
            Operand::int(self.rng.range_i64(1, 9)),
        );
        for h in &handles[..depth - 1] {
            let c = self.rng.range_i64(1, 9);
            let scaled =
                fb.binary_to_new(BinOp::Mul, Operand::Var(h.induction_var), Operand::int(c));
            v = fb.binary_to_new(BinOp::Add, Operand::Var(v), Operand::Var(scaled));
        }
        v = self.arithmetic_chain(fb, v);
        self.sync_noise(fb);
        if self.config.enable_memory && self.rng.chance(70) {
            let addr = self.array_slot(fb, v, ctx);
            let prev = fb.load_to_new(Operand::Var(addr), 0);
            fb.store(Operand::Var(addr), 0, Operand::Var(v));
            v = fb.binary_to_new(BinOp::Add, Operand::Var(v), Operand::Var(prev));
        }
        if self.config.enable_memory && self.rng.chance(60) {
            self.maybe_guarded_acc_update(fb, ctx, innermost.induction_var, v);
        }
        let op = if self.config.enable_reductions {
            *self
                .rng
                .pick(&[BinOp::Add, BinOp::Xor, BinOp::Min, BinOp::Max])
        } else {
            BinOp::Add
        };
        fb.binary(red, op, Operand::Var(red), Operand::Var(v));
        for h in handles.iter().rev() {
            fb.br(h.latch);
            fb.switch_to(h.exit);
        }
        red
    }

    /// Builds a linked node graph in the `nodes` global, then chases it with a carried
    /// pointer that is re-defined at the very end of the loop body.
    fn pointer_chase(&mut self, fb: &mut FunctionBuilder, ctx: &Ctx) -> VarId {
        let (nodes, max_n) = ctx.nodes.expect("scenario gated on nodes");
        let n = self.rng.range_i64(2, max_n);
        let stride = self.rng.range_i64(1, n - 1);
        let offs = self.rng.range_i64(0, n - 1);
        let term = self.rng.range_i64(0, n - 1);

        // Setup loop: nodes[2i] = payload(i), nodes[2i+1] = &nodes[2*((i*stride + offs) % n)],
        // except the terminator node whose next pointer is null.
        let setup = fb.counted_loop(Operand::int(0), Operand::int(n), 1);
        let i = setup.induction_var;
        let two_i = fb.binary_to_new(BinOp::Mul, Operand::Var(i), Operand::int(2));
        let node = fb.binary_to_new(BinOp::Add, Operand::Global(nodes), Operand::Var(two_i));
        let payload = fb.binary_to_new(
            BinOp::Mul,
            Operand::Var(i),
            Operand::int(self.rng.range_i64(1, 13)),
        );
        fb.store(Operand::Var(node), 0, Operand::Var(payload));
        let scaled = fb.binary_to_new(BinOp::Mul, Operand::Var(i), Operand::int(stride));
        let shifted = fb.binary_to_new(BinOp::Add, Operand::Var(scaled), Operand::int(offs));
        let idx = fb.binary_to_new(BinOp::Rem, Operand::Var(shifted), Operand::int(n));
        let two_idx = fb.binary_to_new(BinOp::Mul, Operand::Var(idx), Operand::int(2));
        let next = fb.binary_to_new(BinOp::Add, Operand::Global(nodes), Operand::Var(two_idx));
        let is_term = fb.cmp_to_new(Pred::Eq, Operand::Var(i), Operand::int(term));
        let link = fb.select_to_new(Operand::Var(is_term), Operand::int(0), Operand::Var(next));
        fb.store(Operand::Var(node), 1, Operand::Var(link));
        fb.br(setup.latch);
        fb.switch_to(setup.exit);

        // Chase loop: while p != 0 && steps < cap. The payload accumulator is a carried
        // memory/register dependence *before* the carried pointer reload, which is the shape
        // whose merged segments used to signal too early.
        let cap = 2 * n + self.rng.range_i64(0, 8);
        let start = self.rng.range_i64(0, n - 1);
        let sum = fb.const_int_to_new(0);
        let steps = fb.const_int_to_new(0);
        let ptr = fb.binary_to_new(BinOp::Add, Operand::Global(nodes), Operand::int(2 * start));
        let header = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.br(header);
        fb.switch_to(header);
        let alive = fb.cmp_to_new(Pred::Ne, Operand::Var(ptr), Operand::int(0));
        let within = fb.cmp_to_new(Pred::Lt, Operand::Var(steps), Operand::int(cap));
        let cont = fb.binary_to_new(BinOp::And, Operand::Var(alive), Operand::Var(within));
        fb.cond_br(Operand::Var(cont), body, exit);
        fb.switch_to(body);
        let pay = fb.load_to_new(Operand::Var(ptr), 0);
        fb.binary(sum, BinOp::Mul, Operand::Var(sum), Operand::int(3));
        fb.binary(sum, BinOp::Add, Operand::Var(sum), Operand::Var(pay));
        if self.config.enable_memory && self.rng.chance(60) {
            let acc = *self.rng.pick(&ctx.accs);
            self.acc_rmw(fb, acc, pay);
        }
        self.sync_noise(fb);
        fb.load(ptr, Operand::Var(ptr), 1); // the carried pointer: defined last
        fb.binary(steps, BinOp::Add, Operand::Var(steps), Operand::int(1));
        fb.br(header);
        fb.switch_to(exit);
        sum
    }

    /// A counted loop full of data-dependent control flow: diamonds, early latch continues,
    /// and rarely-taken accumulator updates.
    fn irregular_loop(&mut self, fb: &mut FunctionBuilder, ctx: &Ctx) -> VarId {
        let trip = self.rng.range_i64(1, self.config.max_trip_count.max(1));
        let red = fb.const_int_to_new(1);
        let lh = fb.counted_loop(Operand::int(0), Operand::int(trip), 1);
        let i = lh.induction_var;
        let h = fb.binary_to_new(BinOp::Mul, Operand::Var(i), Operand::int(2654435761));
        let h2 = fb.binary_to_new(BinOp::Shr, Operand::Var(h), Operand::int(7));
        let v = fb.binary_to_new(BinOp::Xor, Operand::Var(h), Operand::Var(h2));
        let x = fb.new_var();
        let nib = fb.binary_to_new(BinOp::And, Operand::Var(v), Operand::int(15));
        let big = fb.cmp_to_new(Pred::Gt, Operand::Var(nib), Operand::int(7));
        let arms = fb.if_else(Operand::Var(big));
        fb.binary(x, BinOp::Mul, Operand::Var(v), Operand::int(3));
        fb.binary(x, BinOp::Add, Operand::Var(x), Operand::int(1));
        fb.br(arms.join);
        fb.switch_to(arms.else_bb);
        if self.rng.chance(40) {
            // A nested diamond inside the else arm.
            let odd = fb.binary_to_new(BinOp::And, Operand::Var(v), Operand::int(1));
            let inner = fb.if_else(Operand::Var(odd));
            fb.binary(x, BinOp::Shr, Operand::Var(v), Operand::int(1));
            fb.br(inner.join);
            fb.switch_to(inner.else_bb);
            fb.binary(x, BinOp::Sub, Operand::int(0), Operand::Var(v));
            fb.br(inner.join);
            fb.switch_to(inner.join);
            fb.br(arms.join);
        } else {
            fb.binary(x, BinOp::Shr, Operand::Var(v), Operand::int(2));
            fb.br(arms.join);
        }
        fb.switch_to(arms.join);
        self.sync_noise(fb);
        if self.rng.chance(50) {
            // Early continue: some iterations skip the reduction entirely.
            let low = fb.binary_to_new(BinOp::And, Operand::Var(v), Operand::int(3));
            let skip = fb.cmp_to_new(Pred::Eq, Operand::Var(low), Operand::int(0));
            let cont = fb.new_block();
            fb.cond_br(Operand::Var(skip), lh.latch, cont);
            fb.switch_to(cont);
        }
        if self.config.enable_memory && self.rng.chance(50) {
            self.maybe_guarded_acc_update(fb, ctx, i, x);
        }
        fb.binary(red, BinOp::Add, Operand::Var(red), Operand::Var(x));
        fb.br(lh.latch);
        fb.switch_to(lh.exit);
        red
    }

    /// A loop whose body calls a helper function with a clamped argument.
    fn call_loop(&mut self, fb: &mut FunctionBuilder, ctx: &Ctx) -> VarId {
        let callee = *self.rng.pick(&ctx.helpers);
        let trip = self.rng.range_i64(1, self.config.max_trip_count.max(1));
        let red = fb.const_int_to_new(0);
        let lh = fb.counted_loop(Operand::int(0), Operand::int(trip), 1);
        // Clamp the argument so recursive helpers stay shallow.
        let arg = fb.binary_to_new(BinOp::And, Operand::Var(lh.induction_var), Operand::int(15));
        let r = fb.new_var();
        fb.call(Some(r), callee, vec![Operand::Var(arg)]);
        fb.binary(red, BinOp::Add, Operand::Var(red), Operand::Var(r));
        self.sync_noise(fb);
        fb.br(lh.latch);
        fb.switch_to(lh.exit);
        red
    }

    /// A NaN-free float reduction folded back to an integer.
    fn float_reduction(&mut self, fb: &mut FunctionBuilder) -> VarId {
        let trip = self.rng.range_i64(1, self.config.max_trip_count.max(1));
        let red = fb.new_var();
        fb.const_float(red, self.rng.range_i64(1, 8) as f64 / 2.0);
        let lh = fb.counted_loop(Operand::int(0), Operand::int(trip), 1);
        let f = fb.unary_to_new(UnOp::ToFloat, Operand::Var(lh.induction_var));
        let t = fb.binary_to_new(BinOp::Mul, Operand::Var(f), Operand::float(0.5));
        let clamped = fb.binary_to_new(BinOp::Min, Operand::Var(t), Operand::float(999.0));
        let op = *self.rng.pick(&[BinOp::Add, BinOp::Min, BinOp::Max]);
        fb.binary(red, op, Operand::Var(red), Operand::Var(clamped));
        fb.br(lh.latch);
        fb.switch_to(lh.exit);
        let scaled = fb.binary_to_new(BinOp::Mul, Operand::Var(red), Operand::float(16.0));
        fb.unary_to_new(UnOp::ToInt, Operand::Var(scaled))
    }

    /// Per-iteration allocation with self-contained traffic: nothing address-valued escapes
    /// the iteration, so parallel schedules (which allocate in a different order) still
    /// compute the same result.
    fn alloc_loop(&mut self, fb: &mut FunctionBuilder) -> VarId {
        let trip = self.rng.range_i64(1, self.config.max_trip_count.max(1));
        let words = self.rng.range_i64(2, 4);
        let red = fb.const_int_to_new(0);
        let lh = fb.counted_loop(Operand::int(0), Operand::int(trip), 1);
        let i = lh.induction_var;
        let p = fb.new_var();
        fb.alloc(p, Operand::int(words));
        let a = fb.binary_to_new(BinOp::Mul, Operand::Var(i), Operand::int(3));
        fb.store(Operand::Var(p), 0, Operand::Var(a));
        let b = fb.binary_to_new(BinOp::Xor, Operand::Var(i), Operand::int(0x55));
        fb.store(Operand::Var(p), words - 1, Operand::Var(b));
        let ra = fb.load_to_new(Operand::Var(p), 0);
        let rb = fb.load_to_new(Operand::Var(p), words - 1);
        let v = fb.binary_to_new(BinOp::Add, Operand::Var(ra), Operand::Var(rb));
        fb.binary(red, BinOp::Add, Operand::Var(red), Operand::Var(v));
        fb.br(lh.latch);
        fb.switch_to(lh.exit);
        red
    }

    /// A loop in `main` itself that may `ret` from inside the body.
    fn early_ret_loop(&mut self, fb: &mut FunctionBuilder, ctx: &Ctx, chk: VarId) -> VarId {
        let trip = self.rng.range_i64(1, self.config.max_trip_count.max(1));
        let red = fb.const_int_to_new(0);
        let lh = fb.counted_loop(Operand::int(0), Operand::int(trip), 1);
        let mixed = fb.binary_to_new(
            BinOp::Add,
            Operand::Var(lh.induction_var),
            Operand::Var(chk),
        );
        let v = self.arithmetic_chain(fb, mixed);
        let low = fb.binary_to_new(BinOp::And, Operand::Var(v), Operand::int(63));
        let hit = fb.cmp_to_new(Pred::Eq, Operand::Var(low), Operand::int(9));
        let ret_bb = fb.new_block();
        let cont = fb.new_block();
        fb.cond_br(Operand::Var(hit), ret_bb, cont);
        fb.switch_to(ret_bb);
        // The early return still publishes the checksum-so-far to memory.
        let folded = fb.binary_to_new(BinOp::Mul, Operand::Var(chk), Operand::int(13));
        let result = fb.binary_to_new(BinOp::Add, Operand::Var(folded), Operand::Var(v));
        fb.store(Operand::Global(ctx.out), 0, Operand::Var(result));
        fb.ret(Some(Operand::Var(result)));
        fb.switch_to(cont);
        fb.binary(red, BinOp::Add, Operand::Var(red), Operand::Var(v));
        fb.br(lh.latch);
        fb.switch_to(lh.exit);
        red
    }

    // ----------------------------------------------------------------- shared fragments

    /// A straight-line chain of random arithmetic; never faults (divisors are non-zero
    /// constants, shifts are small constants, everything wraps).
    fn arithmetic_chain(&mut self, fb: &mut FunctionBuilder, seed_var: VarId) -> VarId {
        let ops = self.rng.range_usize(1, self.config.max_chain_ops.max(1));
        let mut v = seed_var;
        for _ in 0..ops {
            let choice = self.rng.below(14);
            v = match choice {
                0 => fb.binary_to_new(
                    BinOp::Add,
                    Operand::Var(v),
                    Operand::int(self.rng.range_i64(-99, 99)),
                ),
                1 => fb.binary_to_new(
                    BinOp::Sub,
                    Operand::Var(v),
                    Operand::int(self.rng.range_i64(-99, 99)),
                ),
                2 => fb.binary_to_new(
                    BinOp::Mul,
                    Operand::Var(v),
                    Operand::int(self.rng.range_i64(2, 65)),
                ),
                3 => fb.binary_to_new(
                    BinOp::Div,
                    Operand::Var(v),
                    Operand::int(self.rng.range_i64(1, 9)),
                ),
                4 => fb.binary_to_new(
                    BinOp::Rem,
                    Operand::Var(v),
                    Operand::int(self.rng.range_i64(1, 1023)),
                ),
                5 => fb.binary_to_new(
                    BinOp::And,
                    Operand::Var(v),
                    Operand::int(self.rng.range_i64(0, 0xffff)),
                ),
                6 => fb.binary_to_new(
                    BinOp::Or,
                    Operand::Var(v),
                    Operand::int(self.rng.range_i64(0, 255)),
                ),
                7 => fb.binary_to_new(
                    BinOp::Xor,
                    Operand::Var(v),
                    Operand::int(self.rng.range_i64(0, 0x5bd1)),
                ),
                8 => fb.binary_to_new(
                    BinOp::Shl,
                    Operand::Var(v),
                    Operand::int(self.rng.range_i64(1, 7)),
                ),
                9 => fb.binary_to_new(
                    BinOp::Shr,
                    Operand::Var(v),
                    Operand::int(self.rng.range_i64(1, 7)),
                ),
                10 => fb.binary_to_new(
                    BinOp::Min,
                    Operand::Var(v),
                    Operand::int(self.rng.range_i64(-512, 512)),
                ),
                11 => fb.binary_to_new(
                    BinOp::Max,
                    Operand::Var(v),
                    Operand::int(self.rng.range_i64(-512, 512)),
                ),
                12 => fb.unary_to_new(UnOp::Neg, Operand::Var(v)),
                _ => fb.unary_to_new(UnOp::Not, Operand::Var(v)),
            };
        }
        v
    }

    /// `&arr[((v % words) + words) % words]` — an always-in-bounds slot of the scratch array.
    fn array_slot(&mut self, fb: &mut FunctionBuilder, v: VarId, ctx: &Ctx) -> VarId {
        let w = ctx.arr_words;
        let r = fb.binary_to_new(BinOp::Rem, Operand::Var(v), Operand::int(w));
        let shifted = fb.binary_to_new(BinOp::Add, Operand::Var(r), Operand::int(w));
        let idx = fb.binary_to_new(BinOp::Rem, Operand::Var(shifted), Operand::int(w));
        fb.binary_to_new(BinOp::Add, Operand::Global(ctx.arr), Operand::Var(idx))
    }

    /// Read-modify-write of a one-word accumulator global: a loop-carried memory dependence.
    fn acc_rmw(&mut self, fb: &mut FunctionBuilder, acc: GlobalId, v: VarId) {
        let cur = fb.load_to_new(Operand::Global(acc), 0);
        let op = *self.rng.pick(&[BinOp::Add, BinOp::Xor, BinOp::Sub]);
        let next = fb.binary_to_new(op, Operand::Var(cur), Operand::Var(v));
        fb.store(Operand::Global(acc), 0, Operand::Var(next));
    }

    /// An accumulator update, optionally guarded by a mask on the induction variable so the
    /// carried dependence only fires on a fraction of iterations.
    fn maybe_guarded_acc_update(
        &mut self,
        fb: &mut FunctionBuilder,
        ctx: &Ctx,
        iv: VarId,
        v: VarId,
    ) {
        let acc = *self.rng.pick(&ctx.accs);
        if self.config.enable_irregular_branching && self.rng.chance(50) {
            let mask = *self.rng.pick(&[1i64, 3, 7]);
            let low = fb.binary_to_new(BinOp::And, Operand::Var(iv), Operand::int(mask));
            let hit = fb.cmp_to_new(Pred::Eq, Operand::Var(low), Operand::int(0));
            let arms = fb.if_else(Operand::Var(hit));
            self.acc_rmw(fb, acc, v);
            fb.br(arms.join);
            fb.switch_to(arms.else_bb);
            fb.br(arms.join);
            fb.switch_to(arms.join);
        } else {
            self.acc_rmw(fb, acc, v);
        }
    }

    /// Balanced `wait`/`signal` pair (sequential no-op) when sync noise is enabled.
    fn sync_noise(&mut self, fb: &mut FunctionBuilder) {
        if self.config.sync_noise && self.rng.chance(30) {
            let dep = DepId::new(self.rng.below(3) as u32);
            fb.wait(dep);
            fb.signal(dep);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_ir::interp::Machine;
    use helix_ir::{verify_module, ExecImage, ImageMachine};

    #[test]
    fn generation_is_deterministic() {
        let config = GenConfig::fuzz();
        for seed in [0u64, 1, 7, 99, 0xdead_beef] {
            let a = generate(seed, &config);
            let b = generate(seed, &config);
            assert_eq!(a.module, b.module, "seed {seed} is not deterministic");
            assert_eq!(a.main, b.main);
        }
        assert_ne!(
            generate(1, &config).module,
            generate(2, &config).module,
            "distinct seeds should differ"
        );
    }

    #[test]
    fn generated_modules_verify_and_terminate() {
        let config = GenConfig::fuzz();
        for seed in 0..60 {
            let gp = generate(seed, &config);
            verify_module(&gp.module)
                .unwrap_or_else(|e| panic!("seed {seed} does not verify: {e}\n{:?}", gp));
            let mut m = Machine::new(&gp.module);
            m.set_fuel(20_000_000);
            let result = m
                .call(gp.main, &[])
                .unwrap_or_else(|e| panic!("seed {seed} faults: {e}\n{:?}", gp));
            assert!(result.is_some(), "seed {seed}: main returns a checksum");
        }
    }

    #[test]
    fn both_engines_agree_on_a_seed_sweep() {
        let config = GenConfig::fuzz();
        for seed in 0..25 {
            let gp = generate(seed, &config);
            let image = ExecImage::lower(&gp.module);
            let mut tree = Machine::new(&gp.module);
            let mut flat = ImageMachine::new(&image);
            let a = tree.call(gp.main, &[]).unwrap();
            let b = flat.call(gp.main, &[]).unwrap();
            assert_eq!(a, b, "seed {seed}: engines disagree");
            assert_eq!(tree.stats(), flat.stats(), "seed {seed}: stats disagree");
        }
    }

    #[test]
    fn sync_noise_emits_balanced_pairs_and_stays_runnable() {
        let config = GenConfig::roundtrip();
        let mut saw_sync = false;
        for seed in 0..40 {
            let gp = generate(seed, &config);
            verify_module(&gp.module).unwrap();
            let has_sync = gp
                .module
                .functions
                .iter()
                .any(|f| f.instr_refs().any(|(_, i)| i.is_sync()));
            saw_sync |= has_sync;
            let mut m = Machine::new(&gp.module);
            m.set_fuel(20_000_000);
            m.call(gp.main, &[]).unwrap();
        }
        assert!(
            saw_sync,
            "roundtrip config should emit sync noise somewhere"
        );
    }

    #[test]
    fn the_shape_knobs_reach_their_shapes() {
        // Across a modest sweep the generator must exercise every advertised construct.
        let config = GenConfig::fuzz();
        let (mut calls, mut loads, mut allocs, mut floats, mut inloop_ret, mut diamonds) =
            (false, false, false, false, false, false);
        for seed in 0..80 {
            let gp = generate(seed, &config);
            for f in &gp.module.functions {
                for b in &f.blocks {
                    for i in &b.instrs {
                        match i {
                            helix_ir::Instr::Call { .. } => calls = true,
                            helix_ir::Instr::Load { .. } => loads = true,
                            helix_ir::Instr::Alloc { .. } => allocs = true,
                            helix_ir::Instr::Const {
                                value: Operand::ConstFloat(_),
                                ..
                            } => floats = true,
                            _ => {}
                        }
                    }
                    if let Some(helix_ir::Instr::CondBr { .. }) = b.instrs.last() {
                        diamonds = true;
                    }
                }
                // In-loop ret detection: a function with more than one returning block has a
                // ret that is not the single fall-through exit.
                let rets = f
                    .blocks
                    .iter()
                    .filter(|b| matches!(b.instrs.last(), Some(helix_ir::Instr::Ret { .. })))
                    .count();
                if rets > 1 {
                    inloop_ret = true;
                }
            }
        }
        assert!(calls, "no calls generated across the sweep");
        assert!(loads, "no memory traffic generated");
        assert!(allocs, "no allocs generated");
        assert!(floats, "no float constants generated");
        assert!(inloop_ret, "no multi-ret functions generated");
        assert!(diamonds, "no conditional branching generated");
    }
}
