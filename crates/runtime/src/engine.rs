//! The dispatch engine of one run: the resolved [`DispatchTier`]'s handler tables together
//! with the [`JitArtifact`] their patched slots point into, behind the operations the
//! executor and the profiler need — run the engine's function flat, run one loop
//! iteration, run a profiled call.
//!
//! Owning tables and native code in one value is what keeps the artifact alive as long as
//! the tables (the patched head slots hold raw addresses into it). An engine is built once
//! per run on the submitting thread and shared by reference with every pool helper: the
//! tables are read-only during dispatch and sealed code pages are immutable, so helpers
//! neither re-lower the streams nor map executable memory of their own.
//!
//! A build does only the work the run can use (see [`FlatScope`]): it decodes, and under
//! the JIT compiles, the flat code of the engine's function and its call-closure, less the
//! parallelized loop's own blocks, plus the iteration stream; and it puts all their chunks
//! in one executable mapping.

use crate::jit::{self, JitArtifact};
use crate::observe::ImageObserver;
use crate::parallel_image::{FlatEnd, FlatError, IterEnd, IterError, IterSync, LoopImage};
use crate::sharded::WorkerMemory;
use crate::threaded::{
    run_flat_probed, run_flat_threaded, run_iteration_threaded, DispatchTier, FlatScope,
    FlatTables, IterTable,
};
use helix_ir::interp::ExecError;
use helix_ir::{ExecImage, FuncId, Value};

pub(crate) struct Engine<'a> {
    image: &'a ExecImage,
    /// The function [`Engine::run_from`] runs.
    func: FuncId,
    flat: FlatTables,
    /// The loop [`Engine::iterate`] runs, with its decoded iteration stream. Absent for
    /// engines that only run flat code (calibration kernels, profiling runs).
    iter: Option<(&'a LoopImage, IterTable)>,
    /// Declared last so it drops last: the tables above point into it.
    _jit: Option<JitArtifact>,
}

impl<'a> Engine<'a> {
    /// The engine of a parallel run: `loop_image`'s clone function flat (Phases A and C)
    /// and its iteration stream (Phase B).
    pub(crate) fn for_loop(
        tier: DispatchTier,
        image: &'a ExecImage,
        loop_image: &'a LoopImage,
    ) -> Self {
        let scope = FlatScope::new(image, loop_image.func, Some(loop_image));
        Self::build(tier, image, loop_image.func, scope, Some(loop_image))
    }

    /// An engine that runs `func` flat and nothing else (calibration kernels).
    pub(crate) fn for_func(tier: DispatchTier, image: &'a ExecImage, func: FuncId) -> Self {
        Self::build(tier, image, func, FlatScope::new(image, func, None), None)
    }

    /// An engine that profiles `func` ([`Engine::run_probed`]).
    pub(crate) fn for_probe(tier: DispatchTier, image: &'a ExecImage, func: FuncId) -> Self {
        Self::build(tier, image, func, FlatScope::probe(image, func), None)
    }

    /// Lowers (and under the JIT tier compiles) the tables of `scope` for the
    /// already-resolved `tier`.
    fn build(
        tier: DispatchTier,
        image: &'a ExecImage,
        func: FuncId,
        scope: FlatScope,
        loop_image: Option<&'a LoopImage>,
    ) -> Self {
        let (flat, iter, jit) = jit::build_tables(tier, image, &scope, loop_image);
        Engine {
            image,
            func,
            flat,
            iter: loop_image.zip(iter),
            _jit: jit,
        }
    }

    /// Runs the engine's function from `start_block` until it returns or reaches
    /// `stop_block` (see [`run_flat_threaded`]).
    pub(crate) fn run_from(
        &self,
        start_block: u32,
        stop_block: Option<u32>,
        regs: &mut Vec<Value>,
        mem: &mut WorkerMemory<'_>,
        budget: u64,
    ) -> Result<FlatEnd, FlatError> {
        run_flat_threaded(
            self.image,
            &self.flat,
            self.func,
            start_block,
            stop_block,
            regs,
            mem,
            budget,
        )
    }

    /// Runs the engine's function with `args` to its return, reporting to `obs` and
    /// charging `fuel` (see [`run_flat_probed`]). The engine must come from
    /// [`Engine::for_probe`].
    pub(crate) fn run_probed(
        &self,
        args: &[Value],
        mem: &mut WorkerMemory<'_>,
        fuel: u64,
        obs: &mut dyn ImageObserver,
    ) -> Result<Option<Value>, ExecError> {
        run_flat_probed(self.image, &self.flat, self.func, args, mem, fuel, obs)
    }

    /// Runs iteration `iteration` of the loop this engine was built with (see
    /// [`run_iteration_threaded`]).
    pub(crate) fn iterate(
        &self,
        iteration: u64,
        regs: &mut Vec<Value>,
        mem: &mut WorkerMemory<'_>,
        sync: &IterSync<'_>,
        on_control: &mut dyn FnMut(),
    ) -> Result<IterEnd, IterError> {
        let (loop_image, table) = self
            .iter
            .as_ref()
            .expect("engine was built without a loop image");
        run_iteration_threaded(
            self.image, loop_image, table, &self.flat, iteration, regs, mem, sync, on_control,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::SharedMemory;
    use crate::{ParallelExecutor, ParallelImage, RuntimeError};
    use helix_analysis::LoopNestingGraph;
    use helix_core::{transform, Helix, HelixConfig, TransformedProgram};
    use helix_ir::builder::{FunctionBuilder, ModuleBuilder};
    use helix_ir::{BinOp, Machine, Module, Op, Operand};
    use helix_profiler::profile_program_image;

    /// The variants of [`closure_program`].
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Shape {
        /// The accumulator loop alone.
        Flat,
        /// The accumulator loop inside an outer loop of three trips.
        Nested,
        /// As `Flat`, but `body` also stores to a negative address, so the loop's first
        /// call faults. The plan is the clean program's.
        FaultingBody,
    }

    /// `main` runs a straight-line prologue, an accumulator loop whose body calls `body`,
    /// then calls `finish` on the total; `unused` is called by nothing. Returns the module,
    /// `main`, the transform of the accumulator loop, and `[finish, unused, body]`.
    fn closure_program(shape: Shape) -> (Module, FuncId, TransformedProgram, [FuncId; 3]) {
        let mut mb = ModuleBuilder::new("m");
        let acc = mb.add_global("acc", 1);
        let arith = |name: &str, fault: bool| {
            let mut fb = FunctionBuilder::new(name, 1);
            let x = fb.param(0);
            let t = fb.binary_to_new(BinOp::Mul, Operand::Var(x), Operand::int(3));
            let u = fb.binary_to_new(BinOp::Add, Operand::Var(t), Operand::int(7));
            let v = fb.binary_to_new(BinOp::Xor, Operand::Var(u), Operand::int(5));
            if fault {
                fb.store(Operand::int(-8), 0, Operand::Var(v));
            }
            fb.ret(Some(Operand::Var(v)));
            fb.finish()
        };
        let finish = mb.add_function(arith("finish", false));
        let unused = mb.add_function(arith("unused", false));
        let body = mb.add_function(arith("body", false));
        let mut fb = FunctionBuilder::new("main", 0);
        let seed = fb.new_var();
        fb.load(seed, Operand::Global(acc), 0);
        let s1 = fb.binary_to_new(BinOp::Mul, Operand::Var(seed), Operand::int(3));
        let s2 = fb.binary_to_new(BinOp::Add, Operand::Var(s1), Operand::int(1));
        fb.store(Operand::Global(acc), 0, Operand::Var(s2));
        let outer =
            (shape == Shape::Nested).then(|| fb.counted_loop(Operand::int(0), Operand::int(3), 1));
        let lh = fb.counted_loop(Operand::int(0), Operand::int(40), 1);
        let w = fb.new_var();
        fb.call(Some(w), body, vec![Operand::Var(lh.induction_var)]);
        let sq = fb.binary_to_new(BinOp::Mul, Operand::Var(w), Operand::Var(w));
        let cur = fb.new_var();
        fb.load(cur, Operand::Global(acc), 0);
        let next = fb.binary_to_new(BinOp::Add, Operand::Var(cur), Operand::Var(sq));
        fb.store(Operand::Global(acc), 0, Operand::Var(next));
        fb.br(lh.latch);
        fb.switch_to(lh.exit);
        if let Some(outer) = outer {
            fb.br(outer.latch);
            fb.switch_to(outer.exit);
        }
        let total = fb.new_var();
        fb.load(total, Operand::Global(acc), 0);
        let out = fb.new_var();
        fb.call(Some(out), finish, vec![Operand::Var(total)]);
        fb.ret(Some(Operand::Var(out)));
        let main = mb.add_function(fb.finish());
        let mut module = mb.finish();
        let nesting = LoopNestingGraph::new(&module);
        let profile = profile_program_image(&module, &nesting, main, &[]).unwrap();
        let output = Helix::new(HelixConfig::i7_980x()).analyze(&module, &profile);
        let plan = output
            .plans
            .values()
            .find(|p| p.func == main && p.header == lh.header)
            .expect("a plan for the accumulator loop")
            .clone();
        let mut transformed = transform::apply(&module, &plan);
        if shape == Shape::FaultingBody {
            *module.function_mut(body) = arith("body", true);
            *transformed.module.function_mut(body) = arith("body", true);
        }
        (module, main, transformed, [finish, unused, body])
    }

    #[test]
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn no_table_or_chunk_outside_the_runs_call_closure() {
        let _env = crate::jit::TEST_ENV_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        assert!(crate::jit::jit_supported());
        let (_, main, transformed, [finish, unused, body]) = closure_program(Shape::Flat);
        let pimg = ParallelImage::lower(&transformed);
        let clone = pimg.loop_image.func;
        assert_eq!(transformed.original_func, main);
        let engine = Engine::for_loop(DispatchTier::Jit, &pimg.exec, &pimg.loop_image);
        let table = |f: FuncId| &engine.flat.funcs[f.index()];
        let heads = |f: FuncId| table(f).iter().filter(|op| jit::is_chunk_head(op)).count();
        // The clone's original and the helper nothing calls: no run reaches them, so
        // nothing is decoded and no chunk is compiled for them.
        for f in [main, unused] {
            assert!(table(f).is_empty(), "{f:?} was decoded");
        }
        // What the run does reach is decoded and compiled: the clone's prologue, the
        // callee after the loop, and the callee iteration code calls.
        assert!(heads(clone) >= 1, "the clone's prologue has a chunk");
        assert!(heads(finish) >= 1, "the Phase C callee has a chunk");
        assert!(heads(body) >= 1, "the loop body's callee has a chunk");
        // The loop's own blocks are left for the iteration stream, which has its own table.
        let fi = pimg.exec.func(clone);
        let loop_ops: usize = (0..fi.num_blocks() as u32)
            .filter(|b| pimg.loop_image.pc_block.contains(b))
            .map(|b| fi.block_code(b).len())
            .sum();
        let cold = table(clone)
            .iter()
            .filter(|op| crate::threaded::is_cold(op));
        assert!(loop_ops > 0);
        assert_eq!(cold.count(), loop_ops);
        assert!(engine.iter.is_some());
    }

    /// `blend_mix`'s iteration is 14 rounds of `mul, add, max, min` on a float. The JIT
    /// compiles `mul, add` and leaves `max`/`min` by a float to the threaded handlers, so
    /// the iteration stream gets one chunk per round as long as no fused window hides
    /// `mul, add` from the JIT.
    #[test]
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn blend_mix_compiles_one_chunk_per_alu_round() {
        let _env = crate::jit::TEST_ENV_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        assert!(crate::jit::jit_supported());
        let (_, module, main) = helix_workloads::load_corpus()
            .expect("corpus loads")
            .into_iter()
            .find(|(name, _, _)| name == "blend_mix")
            .expect("blend_mix is in the corpus");
        let (profile, output) = Helix::new(HelixConfig::i7_980x())
            .profile_and_analyze(&module, main, &[], helix_ir::interp::DEFAULT_FUEL)
            .expect("blend_mix profiles");
        let (plan, _) = output.hottest_plan(main, &profile).expect("a loop plan");
        let pimg = ParallelImage::lower(&transform::apply(&module, plan));
        let rounds = pimg
            .loop_image
            .code
            .iter()
            .filter(|op| matches!(op, Op::Bin { op: BinOp::Max, .. }))
            .count();
        assert_eq!(rounds, 14);
        let engine = Engine::for_loop(DispatchTier::Jit, &pimg.exec, &pimg.loop_image);
        let (_, table) = engine
            .iter
            .as_ref()
            .expect("a loop engine has an iteration table");
        let heads = table.ops.iter().filter(|op| jit::is_chunk_head(op)).count();
        assert!(
            heads.abs_diff(rounds) <= 1,
            "{heads} chunk heads for {rounds} rounds"
        );
    }

    /// Every shape of [`closure_program`] ends like the tree machine's run, the faulting
    /// loop-body callee with the tree machine's error.
    #[test]
    fn phase_c_callees_and_nested_loops_match_the_tree_machine_on_every_tier() {
        for shape in [Shape::Flat, Shape::Nested, Shape::FaultingBody] {
            let (module, main, transformed, _) = closure_program(shape);
            let expected = Machine::new(&module).call(main, &[]);
            assert_eq!(expected.is_err(), shape == Shape::FaultingBody);
            let pimg = ParallelImage::lower(&transformed);
            // Nested: Phase C re-enters the loop on the outer loop's next trip, so none of
            // the clone's blocks may stay cold.
            let engine = Engine::for_loop(DispatchTier::Threaded, &pimg.exec, &pimg.loop_image);
            let clone_cold = engine.flat.funcs[pimg.loop_image.func.index()]
                .iter()
                .any(crate::threaded::is_cold);
            assert_eq!(clone_cold, shape != Shape::Nested);
            for threads in [1, 2] {
                for tier in [DispatchTier::Threaded, DispatchTier::Jit] {
                    let mut executor = ParallelExecutor::new(threads).with_dispatch_tier(tier);
                    executor.hardware = threads;
                    let got = executor.run_parallel(&pimg, &[]).map_err(|e| match e {
                        RuntimeError::Exec(e) => e,
                        e => panic!("{shape:?} {threads}t/{tier}: {e}"),
                    });
                    assert_eq!(got, expected, "{shape:?}, {threads} threads, {tier}");
                }
            }
        }
    }

    /// Cold slots are a fallback no run should reach; reached anyway, they must behave
    /// exactly like decoded ones, calls included.
    #[test]
    fn cold_slots_run_like_decoded_ones() {
        let (_, _, transformed, _) = closure_program(Shape::Flat);
        let expected = Machine::new(&transformed.module)
            .call(transformed.parallel_func, &[])
            .unwrap();
        assert!(expected.is_some());
        let pimg = ParallelImage::lower(&transformed);
        let fi = pimg.exec.func(pimg.loop_image.func);
        // Run the whole clone flat: the prologue, the whole loop, cold, then Phase C.
        for tier in [DispatchTier::Threaded, DispatchTier::Jit] {
            let engine = Engine::for_loop(tier, &pimg.exec, &pimg.loop_image);
            let memory = SharedMemory::from_memory(&pimg.exec.initial_memory);
            let mut mem = WorkerMemory::new(&memory);
            let mut regs = vec![Value::default(); fi.num_regs];
            match engine.run_from(fi.entry_block, None, &mut regs, &mut mem, u64::MAX) {
                Ok(FlatEnd::Returned(v)) => assert_eq!(v, expected, "{tier}"),
                _ => panic!("{tier}: the flat run did not return"),
            }
        }
    }
}
