//! The dispatch engine of one run: the resolved [`DispatchTier`]'s handler tables together
//! with the [`JitArtifact`] their patched slots point into, behind the two operations the
//! executor needs — run the engine's function flat, run one loop iteration.
//!
//! Owning tables and native code in one value is what keeps the artifact alive as long as
//! the tables (the patched head slots hold raw addresses into it). An engine is built once
//! per run on the submitting thread and shared by reference with every pool helper: the
//! tables are read-only during dispatch and sealed code pages are immutable, so helpers
//! neither re-lower the streams nor map executable memory of their own. It is also the one
//! place that knows the switch tier has no table at all.
//!
//! A build does only the work the run can use (see [`FlatScope`]): it decodes, and under
//! the JIT compiles, the flat code of the engine's function and its call-closure, less the
//! parallelized loop's own blocks, plus the iteration stream; and it puts all their chunks
//! in one executable mapping.

use crate::jit::{self, JitArtifact};
use crate::observe::ImageObserver;
use crate::parallel_image::{
    run_flat, run_iteration, FlatEnd, FlatError, IterEnd, IterError, IterSync, LoopImage,
};
use crate::sharded::WorkerMemory;
use crate::threaded::{
    run_flat_probed, run_flat_threaded, run_iteration_threaded, DispatchTier, FlatScope,
    FlatTables, IterTable,
};
use helix_ir::interp::ExecError;
use helix_ir::{ExecImage, FuncId, Value};

pub(crate) struct Engine<'a> {
    image: &'a ExecImage,
    /// The function [`Engine::run_flat`] runs.
    func: FuncId,
    /// Absent for engines that only run flat code (calibration kernels).
    loop_image: Option<&'a LoopImage>,
    /// `None` for the switch tier, which dispatches the streams directly.
    tables: Option<Tables>,
}

struct Tables {
    flat: FlatTables,
    /// Present exactly when the engine has a loop image.
    iter: Option<IterTable>,
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
        Self::build(tier, image, loop_image.func, Some(loop_image))
    }

    /// An engine that runs `func` flat and nothing else (calibration kernels).
    pub(crate) fn for_func(tier: DispatchTier, image: &'a ExecImage, func: FuncId) -> Self {
        Self::build(tier, image, func, None)
    }

    /// An engine that profiles `func` ([`Engine::run_probed`]). The switch tier has no
    /// tables to put the profiling handlers in, so it profiles on the threaded tier's.
    pub(crate) fn for_probe(tier: DispatchTier, image: &'a ExecImage, func: FuncId) -> Self {
        let tier = match tier {
            DispatchTier::Switch => DispatchTier::Threaded,
            tier => tier,
        };
        Self::with_scope(tier, image, func, FlatScope::probe(image, func), None)
    }

    /// Lowers (and under the JIT tier compiles) what a run of `func` can reach for the
    /// already-resolved `tier`.
    fn build(
        tier: DispatchTier,
        image: &'a ExecImage,
        func: FuncId,
        loop_image: Option<&'a LoopImage>,
    ) -> Self {
        if tier == DispatchTier::Switch {
            return Engine {
                image,
                func,
                loop_image,
                tables: None,
            };
        }
        Self::with_scope(
            tier,
            image,
            func,
            FlatScope::new(image, func, loop_image),
            loop_image,
        )
    }

    /// Builds the tables of `scope` for a resolved tier other than the switch tier.
    fn with_scope(
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
            loop_image,
            tables: Some(Tables {
                flat,
                iter,
                _jit: jit,
            }),
        }
    }

    /// Runs the engine's function from `start_block` until it returns or reaches
    /// `stop_block` (see [`run_flat`] for the contract both tiers share).
    pub(crate) fn run_flat(
        &self,
        start_block: u32,
        stop_block: Option<u32>,
        regs: &mut Vec<Value>,
        mem: &mut WorkerMemory<'_>,
        budget: u64,
    ) -> Result<FlatEnd, FlatError> {
        match &self.tables {
            Some(t) => run_flat_threaded(
                self.image,
                &t.flat,
                self.func,
                start_block,
                stop_block,
                regs,
                mem,
                budget,
            ),
            None => run_flat(
                self.image,
                self.func,
                start_block,
                stop_block,
                regs,
                mem,
                budget,
            ),
        }
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
        let tables = self.tables.as_ref().expect("a profiling engine has tables");
        run_flat_probed(self.image, &tables.flat, self.func, args, mem, fuel, obs)
    }

    /// Runs iteration `iteration` of the loop this engine was built with (see
    /// [`run_iteration`] for the contract both tiers share).
    pub(crate) fn run_iteration(
        &self,
        iteration: u64,
        regs: &mut Vec<Value>,
        mem: &mut WorkerMemory<'_>,
        sync: &IterSync<'_>,
        on_control: &mut dyn FnMut(),
    ) -> Result<IterEnd, IterError> {
        let loop_image = self
            .loop_image
            .expect("engine was built without a loop image");
        match self.tables.as_ref().and_then(|t| t.iter.as_ref()) {
            Some(table) => run_iteration_threaded(
                self.image, loop_image, table, iteration, regs, mem, sync, on_control,
            ),
            None => run_iteration(
                self.image, loop_image, iteration, regs, mem, sync, on_control,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::SharedMemory;
    use crate::{ParallelExecutor, ParallelImage};
    use helix_analysis::LoopNestingGraph;
    use helix_core::{transform, Helix, HelixConfig, TransformedProgram};
    use helix_ir::builder::{FunctionBuilder, ModuleBuilder};
    use helix_ir::{BinOp, Machine, Module, Op, Operand};
    use helix_profiler::profile_program_image;

    /// `main` runs a straight-line prologue, an accumulator loop whose body calls `body`
    /// (inside an outer loop of three trips when `nested`), then calls `finish` on the
    /// total; `unused` is called by nothing. Returns the module, `main`, the transform of
    /// the accumulator loop, and `[finish, unused, body]`.
    fn closure_program(nested: bool) -> (Module, FuncId, TransformedProgram, [FuncId; 3]) {
        let mut mb = ModuleBuilder::new("m");
        let acc = mb.add_global("acc", 1);
        let arith = |name: &str| {
            let mut fb = FunctionBuilder::new(name, 1);
            let x = fb.param(0);
            let t = fb.binary_to_new(BinOp::Mul, Operand::Var(x), Operand::int(3));
            let u = fb.binary_to_new(BinOp::Add, Operand::Var(t), Operand::int(7));
            let v = fb.binary_to_new(BinOp::Xor, Operand::Var(u), Operand::int(5));
            fb.ret(Some(Operand::Var(v)));
            fb.finish()
        };
        let finish = mb.add_function(arith("finish"));
        let unused = mb.add_function(arith("unused"));
        let body = mb.add_function(arith("body"));
        let mut fb = FunctionBuilder::new("main", 0);
        let seed = fb.new_var();
        fb.load(seed, Operand::Global(acc), 0);
        let s1 = fb.binary_to_new(BinOp::Mul, Operand::Var(seed), Operand::int(3));
        let s2 = fb.binary_to_new(BinOp::Add, Operand::Var(s1), Operand::int(1));
        fb.store(Operand::Global(acc), 0, Operand::Var(s2));
        let outer = nested.then(|| fb.counted_loop(Operand::int(0), Operand::int(3), 1));
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
        let module = mb.finish();
        let nesting = LoopNestingGraph::new(&module);
        let profile = profile_program_image(&module, &nesting, main, &[]).unwrap();
        let output = Helix::new(HelixConfig::i7_980x()).analyze(&module, &profile);
        let plan = output
            .plans
            .values()
            .find(|p| p.func == main && p.header == lh.header)
            .expect("a plan for the accumulator loop")
            .clone();
        let transformed = transform::apply(&module, &plan);
        (module, main, transformed, [finish, unused, body])
    }

    #[test]
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn no_table_or_chunk_outside_the_runs_call_closure() {
        let _env = crate::jit::TEST_ENV_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        assert!(crate::jit::jit_supported());
        let (_, main, transformed, [finish, unused, body]) = closure_program(false);
        let pimg = ParallelImage::lower(&transformed);
        let clone = pimg.loop_image.func;
        assert_eq!(transformed.original_func, main);
        let engine = Engine::for_loop(DispatchTier::Jit, &pimg.exec, &pimg.loop_image);
        let tables = engine.tables.as_ref().expect("the JIT tier has tables");
        let table = |f: FuncId| &tables.flat.funcs[f.index()];
        let heads = |f: FuncId| table(f).iter().filter(|op| jit::is_chunk_head(op)).count();
        // The clone's original and the helper nothing calls: no run reaches them, so
        // nothing is decoded and no chunk is compiled for them. Nor for the callee only
        // the loop body calls: iteration code runs its callees on the switch engine.
        for f in [main, unused, body] {
            assert!(table(f).is_empty(), "{f:?} was decoded");
        }
        // What Phases A and C do run is decoded and compiled: the clone's prologue and the
        // callee after the loop.
        assert!(heads(clone) >= 1, "the clone's prologue has a chunk");
        assert!(heads(finish) >= 1, "the Phase C callee has a chunk");
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
        assert!(tables.iter.is_some());
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
        let table = engine
            .tables
            .as_ref()
            .and_then(|t| t.iter.as_ref())
            .expect("the JIT tier has an iteration table");
        let heads = table.ops.iter().filter(|op| jit::is_chunk_head(op)).count();
        assert!(
            heads.abs_diff(rounds) <= 1,
            "{heads} chunk heads for {rounds} rounds"
        );
    }

    #[test]
    fn phase_c_callees_and_nested_loops_match_the_tree_machine_on_every_tier() {
        for nested in [false, true] {
            let (module, main, transformed, _) = closure_program(nested);
            let expected = Machine::new(&module).call(main, &[]).unwrap();
            let pimg = ParallelImage::lower(&transformed);
            // Nested: Phase C re-enters the loop on the outer loop's next trip, so none of
            // the clone's blocks may stay cold.
            let clone_cold = |tier| {
                let engine = Engine::for_loop(tier, &pimg.exec, &pimg.loop_image);
                let tables = engine.tables.expect("threaded tiers have tables");
                tables.flat.funcs[pimg.loop_image.func.index()]
                    .iter()
                    .any(crate::threaded::is_cold)
            };
            assert_eq!(clone_cold(DispatchTier::Threaded), !nested);
            for threads in [1, 2] {
                for tier in [
                    DispatchTier::Switch,
                    DispatchTier::Threaded,
                    DispatchTier::Jit,
                ] {
                    let mut executor = ParallelExecutor::new(threads).with_dispatch_tier(tier);
                    executor.hardware = threads;
                    let got = executor
                        .run_parallel(&pimg, &[])
                        .unwrap_or_else(|e| panic!("nested={nested} {threads}t/{tier}: {e}"));
                    assert_eq!(got, expected, "nested={nested}, {threads} threads, {tier}");
                }
            }
        }
    }

    /// Cold slots are a fallback no run should reach; reached anyway, they must behave
    /// exactly like decoded ones, calls included.
    #[test]
    fn cold_slots_run_like_decoded_ones() {
        let (_, _, transformed, _) = closure_program(false);
        let pimg = ParallelImage::lower(&transformed);
        let fi = pimg.exec.func(pimg.loop_image.func);
        // Run the clone flat from the loop header: the whole loop, cold, then Phase C.
        let run_from_header = |tier| {
            let engine = Engine::for_loop(tier, &pimg.exec, &pimg.loop_image);
            let memory = SharedMemory::from_memory(&pimg.exec.initial_memory);
            let mut mem = WorkerMemory::new(&memory);
            let mut regs = vec![Value::default(); fi.num_regs];
            let end = engine.run_flat(pimg.loop_image.header, None, &mut regs, &mut mem, u64::MAX);
            match end {
                Ok(FlatEnd::Returned(v)) => v,
                _ => panic!("{tier}: the flat run did not return"),
            }
        };
        let expected = run_from_header(DispatchTier::Switch);
        assert!(expected.is_some());
        for tier in [DispatchTier::Threaded, DispatchTier::Jit] {
            assert_eq!(run_from_header(tier), expected, "{tier}");
        }
    }
}
