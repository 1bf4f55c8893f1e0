//! Observed sequential runs: the training run HELIX profiles (Section 2.2 of the paper) on
//! this crate's engine.
//!
//! [`run_observed`] runs a function flat on an `Engine` whose tables decode every jump,
//! branch, call and return to a *profiling* handler. Those handlers report the events an
//! [`ImageObserver`] consumes and charge the run's fuel; every data op keeps its ordinary
//! handler, and under the JIT its native chunk, so observing costs one event per block
//! entry rather than one per op. The run uses the JIT tier where the JIT is supported and
//! the threaded tier elsewhere, the rule every `Auto` run follows: every tier reports the
//! same events. Its memory is a [`SharedMemory`] like every other run of this crate.
//!
//! The run is observationally the sequential machine's
//! ([`helix_ir::ImageMachine`]): the same return value, the same events in the same order,
//! and the same error — [`ExecError::FuelExhausted`] included, at exactly the fuel where the
//! sequential machine runs out. Fuel is charged per *run* of ops (a block's ops up to its
//! first call or terminator, and after each call up to the next), on entering the run;
//! when the fuel left does not cover a run, its covered ops execute one at a time, so a
//! fault among them still wins. `helix-profiler` turns these events into a
//! `ProgramProfile`.

use crate::engine::Engine;
use crate::sharded::{SharedMemory, WorkerMemory};
use crate::threaded::DispatchTier;
use helix_ir::interp::ExecError;
use helix_ir::{ExecImage, FuncId, Value};

/// The tier setting of every profiling run: the executor's default, resolved by the same
/// rule ([`DispatchTier::resolved`]).
pub(crate) const PROFILE_TIER: DispatchTier = DispatchTier::Auto;

/// Receives the events of an observed run ([`run_observed`]). Blocks are identified by
/// their dense index within the function, call sites by their program counter; both map
/// back to IR entities through [`helix_ir::FuncImage::pc_to_ref`] and
/// [`helix_ir::BlockId`].
pub trait ImageObserver {
    /// Control entered the block with dense index `block` of `func`.
    fn on_block_enter(&mut self, func: FuncId, block: u32);
    /// `caller` invokes `callee` from the op at `pc`, before the callee runs.
    fn on_call(&mut self, caller: FuncId, pc: u32, callee: FuncId);
    /// `func` returns.
    fn on_return(&mut self, func: FuncId);
}

/// Runs `func` of `image` with `args` sequentially, reporting every block entry, call and
/// return to `obs`, with a budget of `fuel` executed ops.
///
/// # Errors
///
/// Returns the error the sequential machine returns for the same run with the same fuel: a
/// memory fault, a call stack overflow, a missing terminator, or fuel exhaustion.
pub fn run_observed(
    image: &ExecImage,
    func: FuncId,
    args: &[Value],
    fuel: u64,
    obs: &mut dyn ImageObserver,
) -> Result<Option<Value>, ExecError> {
    let engine = Engine::for_probe(PROFILE_TIER.resolved(), image, func);
    let memory = SharedMemory::from_memory(&image.initial_memory);
    engine.run_probed(args, &mut WorkerMemory::new(&memory), fuel, obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_ir::builder::FunctionBuilder;
    use helix_ir::function::Function;
    use helix_ir::{BinOp, ImageMachine, Module, Operand, Pred};

    fn fib_module() -> (Module, FuncId) {
        let mut module = Module::new("fib");
        let fid = module.add_function(Function::new("fib", 1));
        let mut b = FunctionBuilder::new("fib", 1);
        let n = b.param(0);
        let base = b.new_block();
        let rec = b.new_block();
        let c = b.cmp_to_new(Pred::Lt, Operand::Var(n), Operand::int(2));
        b.cond_br(Operand::Var(c), base, rec);
        b.switch_to(base);
        b.ret(Some(Operand::Var(n)));
        b.switch_to(rec);
        let n1 = b.binary_to_new(BinOp::Sub, Operand::Var(n), Operand::int(1));
        let n2 = b.binary_to_new(BinOp::Sub, Operand::Var(n), Operand::int(2));
        let f1 = b.new_var();
        let f2 = b.new_var();
        b.call(Some(f1), fid, vec![Operand::Var(n1)]);
        b.call(Some(f2), fid, vec![Operand::Var(n2)]);
        let s = b.binary_to_new(BinOp::Add, Operand::Var(f1), Operand::Var(f2));
        b.ret(Some(Operand::Var(s)));
        *module.function_mut(fid) = b.finish();
        (module, fid)
    }

    /// Every event, in order.
    #[derive(Default, Debug, PartialEq)]
    struct Log(Vec<(char, FuncId, u32, Option<FuncId>)>);

    impl ImageObserver for Log {
        fn on_block_enter(&mut self, func: FuncId, block: u32) {
            self.0.push(('b', func, block, None));
        }
        fn on_call(&mut self, caller: FuncId, pc: u32, callee: FuncId) {
            self.0.push(('c', caller, pc, Some(callee)));
        }
        fn on_return(&mut self, func: FuncId) {
            self.0.push(('r', func, 0, None));
        }
    }

    fn count(log: &Log, kind: char) -> u64 {
        log.0.iter().filter(|e| e.0 == kind).count() as u64
    }

    #[test]
    fn observer_sees_blocks_calls_and_returns() {
        let (module, fid) = fib_module();
        let image = ExecImage::lower(&module);
        let args = [Value::Int(7)];
        let mut machine = ImageMachine::new(&image);
        let expected = machine.call(fid, &args).unwrap();
        let mut log = Log::default();
        let got = run_observed(&image, fid, &args, u64::MAX, &mut log).unwrap();
        assert_eq!(got, expected);
        assert_eq!(count(&log, 'b'), machine.stats().blocks);
        assert_eq!(count(&log, 'c'), machine.stats().calls);
        // Every call returns, and so does the root invocation.
        assert_eq!(count(&log, 'r'), count(&log, 'c') + 1);
        assert_eq!(log.0[0], ('b', fid, image.func(fid).entry_block, None));
    }

    /// The profiling handlers sit in both tiers' tables. Each reports the same events and
    /// stops at the same fuel.
    #[test]
    fn every_tier_reports_the_same_run() {
        let (module, fid) = fib_module();
        let image = ExecImage::lower(&module);
        let args = [Value::Int(6)];
        let mut machine = ImageMachine::new(&image);
        machine.call(fid, &args).unwrap();
        let instrs = machine.stats().instrs;
        let observe = |tier, fuel| {
            let engine = Engine::for_probe(tier, &image, fid);
            let memory = SharedMemory::from_memory(&image.initial_memory);
            let mut log = Log::default();
            let end = engine.run_probed(&args, &mut WorkerMemory::new(&memory), fuel, &mut log);
            (end, log)
        };
        for fuel in (0..=instrs + 1).step_by(7).chain([instrs - 1, instrs]) {
            let mut reference = ImageMachine::new(&image);
            reference.set_fuel(fuel);
            let want = reference.call(fid, &args);
            let (end, log) = observe(DispatchTier::Threaded, fuel);
            assert_eq!(end, want, "threaded, fuel {fuel}");
            let (jit_end, jit_log) = observe(DispatchTier::Jit, fuel);
            assert_eq!(jit_end, end, "jit, fuel {fuel}");
            assert_eq!(jit_log, log, "jit, fuel {fuel}");
        }
    }
}
