//! The flat-bytecode execution engine.
//!
//! [`ImageEvaluator`] dispatches over an [`ExecImage`]'s contiguous op stream instead of
//! re-walking the `Instr` tree: operands are pre-resolved, branches jump straight to program
//! counters, and cycle charging is one table lookup. Semantics — instruction counts, cycle
//! totals, fuel accounting, error behaviour, memory effects — are bit-identical to
//! [`crate::interp::Evaluator`] (enforced by `tests/exec_differential.rs`); only the dispatch
//! mechanism changed.
//!
//! The engine is generic over the same [`Context`] trait the tree-walker uses (so the
//! sequential memory, the profiler and the parallel runtime's shared memory all plug
//! in unchanged) and over [`ImageObserver`], the lowered counterpart of
//! [`crate::interp::Observer`]: hooks receive dense block indices and program counters, which
//! lets profilers keep dense per-pc / per-block counters and fold them back to [`crate::InstrRef`]s
//! only when reporting.
//!
//! [`ImageMachine`] is the drop-in replacement for [`crate::interp::Machine`]: engine plus a
//! private [`Memory`] cloned from the image.

use crate::cost::CostModel;
use crate::ids::{DepId, FuncId};
use crate::instr::BinOp;
use crate::interp::{eval_binop, eval_pred, eval_unop, Context, ExecError, ExecStats};
use crate::interp::{SequentialContext, DEFAULT_FUEL, MAX_CALL_DEPTH};
use crate::lower::{cost_table, CostClass, ExecImage, FuncImage, Op, Opnd, NUM_COST_CLASSES};
use crate::memory::Memory;
use crate::value::Value;

/// Receives callbacks as the bytecode engine executes.
///
/// This is the lowered counterpart of [`crate::interp::Observer`]: blocks are identified by
/// their dense index within the function, instructions by their program counter. Both map back
/// to IR entities through [`FuncImage::pc_to_ref`] and [`crate::ids::BlockId`] when needed.
/// All methods have empty default implementations.
pub trait ImageObserver {
    /// Called when control enters the block with dense index `block` of `func`.
    fn on_block_enter(&mut self, _func: FuncId, _block: u32) {}
    /// Called after each executed op with the cycles charged for it.
    fn on_op(&mut self, _func: FuncId, _pc: u32, _cycles: u64) {}
    /// Called when `caller` invokes `callee` from the op at `pc`, before the callee runs.
    fn on_call(&mut self, _caller: FuncId, _pc: u32, _callee: FuncId) {}
    /// Called when `func` returns.
    fn on_return(&mut self, _func: FuncId) {}
}

/// An observer that ignores every event.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullImageObserver;

impl ImageObserver for NullImageObserver {}

/// What happened after executing one basic block via [`ImageEvaluator::exec_block`].
#[derive(Clone, Debug, PartialEq)]
pub enum BlockOutcome {
    /// Control transfers to the block with this dense index.
    Jump(u32),
    /// The function returned.
    Return(Option<Value>),
}

/// Executes flat bytecode against a [`Context`].
#[derive(Debug)]
pub struct ImageEvaluator<'i> {
    image: &'i ExecImage,
    cost: CostModel,
    cost_table: [u64; NUM_COST_CLASSES],
    fuel: u64,
    /// Statistics accumulated across all calls made through this evaluator.
    pub stats: ExecStats,
}

impl<'i> ImageEvaluator<'i> {
    /// Creates an evaluator with the default (i7-980X) cost model and default fuel.
    pub fn new(image: &'i ExecImage) -> Self {
        Self::with_cost(image, CostModel::default())
    }

    /// Creates an evaluator with an explicit cost model.
    pub fn with_cost(image: &'i ExecImage, cost: CostModel) -> Self {
        Self {
            image,
            cost,
            cost_table: cost_table(&cost),
            fuel: DEFAULT_FUEL,
            stats: ExecStats::default(),
        }
    }

    /// Sets the remaining instruction budget.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Returns the remaining instruction budget.
    pub fn fuel(&self) -> u64 {
        self.fuel
    }

    /// Returns the image being executed.
    pub fn image(&self) -> &'i ExecImage {
        self.image
    }

    /// Returns the cost model in use.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// Calls `func` with `args`, driving `ctx` and reporting events to `obs`.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on memory faults, fuel exhaustion, stack overflow, malformed
    /// control flow, or synchronization failures reported by the context.
    pub fn call<C, O>(
        &mut self,
        func: FuncId,
        args: &[Value],
        ctx: &mut C,
        obs: &mut O,
    ) -> Result<Option<Value>, ExecError>
    where
        C: Context + ?Sized,
        O: ImageObserver + ?Sized,
    {
        self.exec_function(func, args, ctx, obs, 0)
    }

    /// Executes a whole function call with an *explicit* frame stack — guest calls never
    /// recurse on the native stack, so [`MAX_CALL_DEPTH`]-deep guest recursion is safe
    /// regardless of the host's stack size or build profile. `depth` is the guest call depth
    /// this invocation starts at (non-zero when invoked from a block-stepping context).
    fn exec_function<C, O>(
        &mut self,
        func: FuncId,
        args: &[Value],
        ctx: &mut C,
        obs: &mut O,
        depth: usize,
    ) -> Result<Option<Value>, ExecError>
    where
        C: Context + ?Sized,
        O: ImageObserver + ?Sized,
    {
        if depth > MAX_CALL_DEPTH {
            return Err(ExecError::StackOverflow);
        }
        let mut func = func;
        let mut f: &FuncImage = &self.image.funcs[func.index()];
        let mut regs = vec![Value::Int(0); f.num_regs.max(args.len())];
        for (slot, a) in regs.iter_mut().zip(args.iter()).take(f.num_params) {
            *slot = *a;
        }
        let mut frames: Vec<CallFrame> = Vec::new();
        self.stats.blocks += 1;
        obs.on_block_enter(func, f.entry_block);
        let mut pc = f.block_start(f.entry_block) as usize;
        loop {
            match self.step(func, f, pc, &mut regs, ctx, obs)? {
                StepOutcome::Next => pc += 1,
                StepOutcome::Jump { target_pc, block } => {
                    self.stats.blocks += 1;
                    obs.on_block_enter(func, block);
                    pc = target_pc as usize;
                }
                StepOutcome::Call { callee, args, dst } => {
                    if depth + frames.len() + 1 > MAX_CALL_DEPTH {
                        return Err(ExecError::StackOverflow);
                    }
                    frames.push(CallFrame {
                        func,
                        pc,
                        regs: std::mem::take(&mut regs),
                        dst,
                    });
                    func = callee;
                    f = &self.image.funcs[func.index()];
                    regs = vec![Value::Int(0); f.num_regs.max(args.len())];
                    for (slot, a) in regs.iter_mut().zip(args.iter()).take(f.num_params) {
                        *slot = *a;
                    }
                    self.stats.blocks += 1;
                    obs.on_block_enter(func, f.entry_block);
                    pc = f.block_start(f.entry_block) as usize;
                }
                StepOutcome::Return(v) => match frames.pop() {
                    None => return Ok(v),
                    Some(frame) => {
                        func = frame.func;
                        f = &self.image.funcs[func.index()];
                        regs = frame.regs;
                        pc = frame.pc;
                        if let Some(d) = frame.dst {
                            regs[d as usize] = v.unwrap_or_default();
                        }
                        // The call op's own cost is charged after the callee returns,
                        // mirroring the tree-walker's event order.
                        let cycles = self.cost_table[CostClass::Call as usize];
                        self.stats.cycles += cycles;
                        obs.on_op(func, pc as u32, cycles);
                        pc += 1;
                    }
                },
            }
        }
    }

    /// Executes the ops of one block of `func` against `ctx`, mutating `regs`, and reports
    /// what happened. This is the block-stepping entry point the parallel runtime uses to
    /// drive prologue/body blocks under its own control-flow policy.
    ///
    /// `regs` is grown to the function's register file size if needed. Unlike
    /// [`ImageEvaluator::call`], no block-entry statistics are recorded for `block` itself
    /// (the caller decides what a "block entry" means in its execution model); calls made by
    /// the block's ops do execute fully, with normal accounting.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on faults, fuel exhaustion, or malformed control flow.
    pub fn exec_block<C, O>(
        &mut self,
        func: FuncId,
        block: u32,
        regs: &mut Vec<Value>,
        ctx: &mut C,
        obs: &mut O,
    ) -> Result<BlockOutcome, ExecError>
    where
        C: Context + ?Sized,
        O: ImageObserver + ?Sized,
    {
        let f: &FuncImage = &self.image.funcs[func.index()];
        if regs.len() < f.num_regs {
            regs.resize(f.num_regs, Value::Int(0));
        }
        let (start, end) = f.block_range[block as usize];
        let mut pc = start as usize;
        while pc < end as usize {
            match self.step(func, f, pc, regs, ctx, obs)? {
                StepOutcome::Next => pc += 1,
                StepOutcome::Jump { block, .. } => return Ok(BlockOutcome::Jump(block)),
                StepOutcome::Return(v) => return Ok(BlockOutcome::Return(v)),
                StepOutcome::Call { callee, args, dst } => {
                    let ret = self.exec_function(callee, &args, ctx, obs, 1)?;
                    if let Some(d) = dst {
                        regs[d as usize] = ret.unwrap_or_default();
                    }
                    let cycles = self.cost_table[CostClass::Call as usize];
                    self.stats.cycles += cycles;
                    obs.on_op(func, pc as u32, cycles);
                    pc += 1;
                }
            }
        }
        Err(ExecError::MissingTerminator(crate::ids::BlockId::new(
            block,
        )))
    }

    /// Executes the single op at `pc`, charging fuel/cycles and reporting events, exactly
    /// mirroring one iteration of the tree-walker's instruction loop.
    ///
    /// `inline(always)` specializes the dispatch into both hot loops ([`Self::exec_function`]
    /// and [`Self::exec_block`]); without it the per-op call overhead erases the gain from
    /// flat dispatch.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn step<C, O>(
        &mut self,
        func: FuncId,
        f: &FuncImage,
        pc: usize,
        regs: &mut [Value],
        ctx: &mut C,
        obs: &mut O,
    ) -> Result<StepOutcome, ExecError>
    where
        C: Context + ?Sized,
        O: ImageObserver + ?Sized,
    {
        let op = &f.code[pc];
        if let Op::Trap { block } = op {
            // Synthesized for missing terminators: abort without consuming fuel, like the
            // tree-walker's end-of-block check.
            return Err(ExecError::MissingTerminator(crate::ids::BlockId::new(
                *block,
            )));
        }
        if self.fuel == 0 {
            return Err(ExecError::FuelExhausted);
        }
        self.fuel -= 1;
        self.stats.instrs += 1;
        // Each arm charges its own (statically known) cost class from the dense table, so
        // the hot loop never consults a per-pc side array.

        let cycles;
        let outcome = match op {
            Op::Mov { dst, src } => {
                regs[*dst as usize] = eval(regs, *src);
                cycles = self.cost_table[CostClass::Alu as usize];
                StepOutcome::Next
            }
            Op::Un { dst, op, src } => {
                regs[*dst as usize] = eval_unop(*op, eval(regs, *src));
                cycles = self.cost_table[CostClass::Alu as usize];
                StepOutcome::Next
            }
            Op::Bin { dst, op, lhs, rhs } => {
                regs[*dst as usize] = eval_binop(*op, eval(regs, *lhs), eval(regs, *rhs));
                cycles = self.cost_table[match op {
                    BinOp::Mul => CostClass::Mul,
                    BinOp::Div | BinOp::Rem => CostClass::Div,
                    _ => CostClass::Alu,
                } as usize];
                StepOutcome::Next
            }
            Op::Cmp {
                dst,
                pred,
                lhs,
                rhs,
            } => {
                regs[*dst as usize] =
                    Value::from_bool(eval_pred(*pred, eval(regs, *lhs), eval(regs, *rhs)));
                cycles = self.cost_table[CostClass::Alu as usize];
                StepOutcome::Next
            }
            Op::Select {
                dst,
                cond,
                on_true,
                on_false,
            } => {
                let v = if eval(regs, *cond).as_bool() {
                    eval(regs, *on_true)
                } else {
                    eval(regs, *on_false)
                };
                regs[*dst as usize] = v;
                cycles = self.cost_table[CostClass::Alu as usize];
                StepOutcome::Next
            }
            Op::Load { dst, addr, offset } => {
                let base = eval(regs, *addr).as_int();
                regs[*dst as usize] = ctx.load(base + offset)?;
                self.stats.loads += 1;
                cycles = self.cost_table[CostClass::Load as usize];
                StepOutcome::Next
            }
            Op::Store {
                addr,
                offset,
                value,
            } => {
                let base = eval(regs, *addr).as_int();
                let v = eval(regs, *value);
                ctx.store(base + offset, v)?;
                self.stats.stores += 1;
                cycles = self.cost_table[CostClass::Store as usize];
                StepOutcome::Next
            }
            Op::Alloc { dst, words } => {
                let n = eval(regs, *words).as_int().max(0) as usize;
                regs[*dst as usize] = Value::Int(ctx.alloc(n)?);
                cycles = self.cost_table[CostClass::Alloc as usize];
                StepOutcome::Next
            }
            Op::PrivateAlloc { dst, words } => {
                let n = eval(regs, *words).as_int().max(0) as usize;
                regs[*dst as usize] = Value::Int(ctx.alloc_private(n)?);
                cycles = self.cost_table[CostClass::Alloc as usize];
                StepOutcome::Next
            }
            Op::Call {
                dst,
                func: callee,
                args,
            } => {
                // The call op's cycles are charged (and its on_op emitted) by the caller of
                // `step` *after* the callee returns, matching the tree-walker's event order.
                let actuals: Vec<Value> = args.iter().map(|a| eval(regs, *a)).collect();
                let callee = FuncId::new(*callee);
                self.stats.calls += 1;
                obs.on_call(func, pc as u32, callee);
                return Ok(StepOutcome::Call {
                    callee,
                    args: actuals,
                    dst: *dst,
                });
            }
            Op::Wait { dep } => {
                self.stats.waits += 1;
                cycles = self.cost_table[CostClass::Wait as usize] + ctx.wait(DepId::new(*dep))?;
                StepOutcome::Next
            }
            Op::Signal { dep } => {
                self.stats.signals += 1;
                ctx.signal(DepId::new(*dep))?;
                cycles = self.cost_table[CostClass::Signal as usize];
                StepOutcome::Next
            }
            Op::Jump { pc: target, block } => {
                cycles = self.cost_table[CostClass::Branch as usize];
                StepOutcome::Jump {
                    target_pc: *target,
                    block: *block,
                }
            }
            Op::Branch {
                cond,
                then_pc,
                then_block,
                else_pc,
                else_block,
            } => {
                cycles = self.cost_table[CostClass::Branch as usize];
                if eval(regs, *cond).as_bool() {
                    StepOutcome::Jump {
                        target_pc: *then_pc,
                        block: *then_block,
                    }
                } else {
                    StepOutcome::Jump {
                        target_pc: *else_pc,
                        block: *else_block,
                    }
                }
            }
            Op::Ret { value } => {
                cycles = self.cost_table[CostClass::Branch as usize];
                self.stats.cycles += cycles;
                obs.on_op(func, pc as u32, cycles);
                obs.on_return(func);
                return Ok(StepOutcome::Return(value.map(|v| eval(regs, v))));
            }
            Op::Trap { .. } => unreachable!("handled above"),
        };
        self.stats.cycles += cycles;
        obs.on_op(func, pc as u32, cycles);
        Ok(outcome)
    }
}

/// What a single [`ImageEvaluator::step`] did with control flow.
enum StepOutcome {
    Next,
    Jump {
        target_pc: u32,
        block: u32,
    },
    /// A call op was reached: the caller pushes a frame (or recurses once, from a
    /// block-stepping context) and performs the post-return accounting.
    Call {
        callee: FuncId,
        args: Vec<Value>,
        dst: Option<u32>,
    },
    Return(Option<Value>),
}

/// One suspended guest frame of [`ImageEvaluator::exec_function`]'s explicit call stack.
struct CallFrame {
    func: FuncId,
    /// pc of the call op to resume after (accounting happens on resume).
    pc: usize,
    regs: Vec<Value>,
    dst: Option<u32>,
}

/// Evaluates a pre-resolved operand against the register file.
///
/// Safety of the unchecked read: lowering widens [`FuncImage::num_regs`] to cover every
/// register index the code references, and both execution entry points allocate/resize the
/// register file to at least `num_regs`, so `r` is always in bounds.
#[inline(always)]
fn eval(regs: &[Value], o: Opnd) -> Value {
    match o {
        Opnd::Reg(r) => {
            debug_assert!((r as usize) < regs.len());
            unsafe { *regs.get_unchecked(r as usize) }
        }
        Opnd::Int(i) => Value::Int(i),
        Opnd::Float(f) => Value::Float(f),
    }
}

/// A self-contained sequential bytecode machine: engine + private memory cloned from the
/// image. The drop-in counterpart of [`crate::interp::Machine`].
#[derive(Debug)]
pub struct ImageMachine<'i> {
    evaluator: ImageEvaluator<'i>,
    context: SequentialContext,
}

impl<'i> ImageMachine<'i> {
    /// Creates a machine for `image` with the default cost model.
    pub fn new(image: &'i ExecImage) -> Self {
        Self::with_cost(image, CostModel::default())
    }

    /// Creates a machine with an explicit cost model.
    pub fn with_cost(image: &'i ExecImage, cost: CostModel) -> Self {
        Self {
            evaluator: ImageEvaluator::with_cost(image, cost),
            context: SequentialContext {
                memory: image.initial_memory.clone(),
            },
        }
    }

    /// Sets the instruction budget.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.evaluator.set_fuel(fuel);
    }

    /// Calls `func` with `args`.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on faults, fuel exhaustion or malformed IR.
    pub fn call(&mut self, func: FuncId, args: &[Value]) -> Result<Option<Value>, ExecError> {
        self.evaluator
            .call(func, args, &mut self.context, &mut NullImageObserver)
    }

    /// Calls `func` with `args`, reporting events to `obs`.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on faults, fuel exhaustion or malformed IR.
    pub fn call_observed<O: ImageObserver + ?Sized>(
        &mut self,
        func: FuncId,
        args: &[Value],
        obs: &mut O,
    ) -> Result<Option<Value>, ExecError> {
        self.evaluator.call(func, args, &mut self.context, obs)
    }

    /// Execution statistics accumulated so far.
    pub fn stats(&self) -> ExecStats {
        self.evaluator.stats
    }

    /// The machine's memory (for inspecting program results).
    pub fn memory(&self) -> &Memory {
        &self.context.memory
    }

    /// Mutable access to the machine's memory (for seeding inputs).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.context.memory
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::ids::BlockId;
    use crate::instr::{BinOp, Operand, Pred};
    use crate::interp::Machine;
    use crate::module::Module;

    fn fib_module() -> (Module, FuncId) {
        let mut module = Module::new("fib");
        let fid = module.add_function(crate::function::Function::new("fib", 1));
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

    #[test]
    fn image_engine_matches_tree_walker_exactly() {
        let (module, fid) = fib_module();
        let image = ExecImage::lower(&module);
        let mut tree = Machine::new(&module);
        let mut flat = ImageMachine::new(&image);
        let expected = tree.call(fid, &[Value::Int(12)]).unwrap();
        let got = flat.call(fid, &[Value::Int(12)]).unwrap();
        assert_eq!(expected, got);
        assert_eq!(tree.stats(), flat.stats());
        assert_eq!(tree.memory(), flat.memory());
    }

    #[test]
    fn fuel_exhaustion_matches() {
        let (module, fid) = fib_module();
        let image = ExecImage::lower(&module);
        for fuel in [0, 1, 10, 137] {
            let mut tree = Machine::new(&module);
            tree.set_fuel(fuel);
            let mut flat = ImageMachine::new(&image);
            flat.set_fuel(fuel);
            assert_eq!(
                tree.call(fid, &[Value::Int(20)]),
                flat.call(fid, &[Value::Int(20)]),
                "divergence at fuel {fuel}"
            );
            assert_eq!(tree.stats(), flat.stats(), "stats diverge at fuel {fuel}");
        }
    }

    #[test]
    fn missing_terminator_is_reported() {
        let mut module = Module::new("m");
        let mut f = crate::function::Function::new("bad", 0);
        let entry = f.entry;
        f.block_mut(entry).instrs.push(crate::instr::Instr::Const {
            dst: crate::ids::VarId::new(0),
            value: Operand::int(1),
        });
        f.num_vars = 1;
        let id = module.add_function(f);
        let image = ExecImage::lower(&module);
        let mut m = ImageMachine::new(&image);
        assert!(matches!(
            m.call(id, &[]),
            Err(ExecError::MissingTerminator(_))
        ));
        // The const executed (and consumed fuel/stats) before the trap, like the tree-walker.
        assert_eq!(m.stats().instrs, 1);
    }

    #[test]
    fn stack_overflow_detected() {
        let mut module = Module::new("m");
        let fid = module.add_function(crate::function::Function::new("loopy", 0));
        let mut b = FunctionBuilder::new("loopy", 0);
        b.call(None, fid, vec![]);
        b.ret(None);
        *module.function_mut(fid) = b.finish();
        let image = ExecImage::lower(&module);
        let mut m = ImageMachine::new(&image);
        assert_eq!(m.call(fid, &[]), Err(ExecError::StackOverflow));
    }

    #[test]
    fn observer_sees_blocks_ops_and_calls() {
        #[derive(Default)]
        struct Counter {
            ops: u64,
            blocks: u64,
            calls: u64,
            returns: u64,
            cycles: u64,
        }
        impl ImageObserver for Counter {
            fn on_block_enter(&mut self, _f: FuncId, _b: u32) {
                self.blocks += 1;
            }
            fn on_op(&mut self, _f: FuncId, _pc: u32, c: u64) {
                self.ops += 1;
                self.cycles += c;
            }
            fn on_call(&mut self, _c: FuncId, _pc: u32, _t: FuncId) {
                self.calls += 1;
            }
            fn on_return(&mut self, _f: FuncId) {
                self.returns += 1;
            }
        }
        let (module, fid) = fib_module();
        let image = ExecImage::lower(&module);
        let mut m = ImageMachine::new(&image);
        let mut obs = Counter::default();
        m.call_observed(fid, &[Value::Int(7)], &mut obs).unwrap();
        assert_eq!(obs.ops, m.stats().instrs);
        assert_eq!(obs.blocks, m.stats().blocks);
        assert_eq!(obs.cycles, m.stats().cycles);
        assert!(obs.calls > 0);
        assert!(obs.returns > obs.calls);
    }

    #[test]
    fn exec_block_steps_through_a_function() {
        // Drive fib's control flow manually through exec_block, mirroring what the parallel
        // runtime does for loop blocks.
        let mut module = Module::new("m");
        let mut b = FunctionBuilder::new("sum3", 1);
        let n = b.param(0);
        let exit = b.new_block();
        let s = b.binary_to_new(BinOp::Mul, Operand::Var(n), Operand::int(3));
        b.br(exit);
        b.switch_to(exit);
        b.ret(Some(Operand::Var(s)));
        let f = module.add_function(b.finish());
        let image = ExecImage::lower(&module);
        let mut ev = ImageEvaluator::new(&image);
        let mut ctx = SequentialContext::default();
        let mut regs = vec![Value::Int(14)];
        let fi = image.func(f);
        let mut block = fi.entry_block;
        let result = loop {
            match ev
                .exec_block(f, block, &mut regs, &mut ctx, &mut NullImageObserver)
                .unwrap()
            {
                BlockOutcome::Jump(next) => block = next,
                BlockOutcome::Return(v) => break v,
            }
        };
        assert_eq!(result.unwrap().as_int(), 42);
        let _ = BlockId::new(0);
    }
}
