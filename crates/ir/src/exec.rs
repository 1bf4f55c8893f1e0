//! The flat-bytecode execution engine.
//!
//! [`ImageMachine`] dispatches over an [`ExecImage`]'s contiguous op stream instead of
//! re-walking the `Instr` tree: operands are pre-resolved, branches jump straight to program
//! counters, and cycle charging is one table lookup. Semantics — instruction counts, cycle
//! totals, fuel accounting, error behaviour, memory effects — are bit-identical to
//! [`crate::interp::Machine`] (enforced by `tests/exec_differential.rs`); only the dispatch
//! mechanism changed. Like the tree-walker, it owns a private [`Memory`], cloned from the
//! image.
//!
//! It has no observer: the profiled training run happens on `helix-runtime`'s engine,
//! whose profiling handlers report block entries, calls and returns
//! (`helix_runtime::run_observed`).

use crate::cost::CostModel;
use crate::ids::FuncId;
use crate::instr::BinOp;
use crate::interp::{eval_binop, eval_pred, eval_unop, ExecError, ExecStats};
use crate::interp::{DEFAULT_FUEL, MAX_CALL_DEPTH};
use crate::lower::{cost_table, CostClass, ExecImage, FuncImage, Op, Opnd, NUM_COST_CLASSES};
use crate::memory::Memory;
use crate::value::Value;

/// A self-contained sequential bytecode machine: flat dispatch over an [`ExecImage`] plus a
/// private [`Memory`] cloned from the image. The drop-in counterpart of
/// [`crate::interp::Machine`].
#[derive(Debug)]
pub struct ImageMachine<'i> {
    image: &'i ExecImage,
    cost_table: [u64; NUM_COST_CLASSES],
    fuel: u64,
    stats: ExecStats,
    memory: Memory,
}

impl<'i> ImageMachine<'i> {
    /// Creates a machine for `image` with the default (i7-980X) cost model and default fuel.
    /// Its cycles are `cost_table(&CostModel::default())`, the table the bytecode profiler
    /// prices blocks with.
    pub fn new(image: &'i ExecImage) -> Self {
        Self {
            image,
            cost_table: cost_table(&CostModel::default()),
            fuel: DEFAULT_FUEL,
            stats: ExecStats::default(),
            memory: image.initial_memory.clone(),
        }
    }

    /// Sets the instruction budget.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Calls `func` with `args`.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on faults, fuel exhaustion or malformed IR.
    pub fn call(&mut self, func: FuncId, args: &[Value]) -> Result<Option<Value>, ExecError> {
        self.exec_function(func, args)
    }

    /// Execution statistics accumulated so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// The machine's memory (for inspecting program results).
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Executes a whole function call with an *explicit* frame stack — guest calls never
    /// recurse on the native stack, so [`MAX_CALL_DEPTH`]-deep guest recursion is safe
    /// regardless of the host's stack size or build profile.
    fn exec_function(&mut self, func: FuncId, args: &[Value]) -> Result<Option<Value>, ExecError> {
        let mut func = func;
        let mut f: &FuncImage = &self.image.funcs[func.index()];
        let mut regs = vec![Value::Int(0); f.num_regs.max(args.len())];
        for (slot, a) in regs.iter_mut().zip(args.iter()).take(f.num_params) {
            *slot = *a;
        }
        let mut frames: Vec<CallFrame> = Vec::new();
        self.stats.blocks += 1;
        let mut pc = f.block_start(f.entry_block) as usize;
        loop {
            match self.step(f, pc, &mut regs)? {
                StepOutcome::Next => pc += 1,
                StepOutcome::Jump { target_pc } => {
                    self.stats.blocks += 1;
                    pc = target_pc as usize;
                }
                StepOutcome::Call { callee, args, dst } => {
                    if frames.len() + 1 > MAX_CALL_DEPTH {
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
                        self.stats.cycles += self.cost_table[CostClass::Call as usize];
                        pc += 1;
                    }
                },
            }
        }
    }

    /// Executes the single op at `pc`, charging fuel and cycles, exactly mirroring one
    /// iteration of the tree-walker's instruction loop.
    ///
    /// `inline(always)` specializes the dispatch into the hot loop ([`Self::exec_function`]);
    /// without it the per-op call overhead erases the gain from flat dispatch.
    #[inline(always)]
    fn step(
        &mut self,
        f: &FuncImage,
        pc: usize,
        regs: &mut [Value],
    ) -> Result<StepOutcome, ExecError> {
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
                regs[*dst as usize] = self.memory.load(base + offset)?;
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
                self.memory.store(base + offset, v)?;
                self.stats.stores += 1;
                cycles = self.cost_table[CostClass::Store as usize];
                StepOutcome::Next
            }
            Op::Alloc { dst, words } => {
                let n = eval(regs, *words).as_int().max(0) as usize;
                regs[*dst as usize] = Value::Int(self.memory.alloc(n)?);
                cycles = self.cost_table[CostClass::Alloc as usize];
                StepOutcome::Next
            }
            Op::PrivateAlloc { dst, words } => {
                let n = eval(regs, *words).as_int().max(0) as usize;
                // Sequential execution has no private tier: a private allocation is an
                // ordinary one.
                regs[*dst as usize] = Value::Int(self.memory.alloc(n)?);
                cycles = self.cost_table[CostClass::Alloc as usize];
                StepOutcome::Next
            }
            Op::Call {
                dst,
                func: callee,
                args,
            } => {
                // The call op's cycles are charged by the caller of `step` *after* the
                // callee returns, matching the tree-walker's event order.
                let actuals: Vec<Value> = args.iter().map(|a| eval(regs, *a)).collect();
                let callee = FuncId::new(*callee);
                self.stats.calls += 1;
                return Ok(StepOutcome::Call {
                    callee,
                    args: actuals,
                    dst: *dst,
                });
            }
            // Synchronization is a no-op sequentially; it is only counted and charged.
            Op::Wait { .. } => {
                self.stats.waits += 1;
                cycles = self.cost_table[CostClass::Wait as usize];
                StepOutcome::Next
            }
            Op::Signal { .. } => {
                self.stats.signals += 1;
                cycles = self.cost_table[CostClass::Signal as usize];
                StepOutcome::Next
            }
            Op::Jump { pc: target, .. } => {
                cycles = self.cost_table[CostClass::Branch as usize];
                StepOutcome::Jump { target_pc: *target }
            }
            Op::Branch {
                cond,
                then_pc,
                else_pc,
                ..
            } => {
                cycles = self.cost_table[CostClass::Branch as usize];
                StepOutcome::Jump {
                    target_pc: if eval(regs, *cond).as_bool() {
                        *then_pc
                    } else {
                        *else_pc
                    },
                }
            }
            Op::Ret { value } => {
                self.stats.cycles += self.cost_table[CostClass::Branch as usize];
                return Ok(StepOutcome::Return(value.map(|v| eval(regs, v))));
            }
            Op::Trap { .. } => unreachable!("handled above"),
        };
        self.stats.cycles += cycles;
        Ok(outcome)
    }
}

/// What a single [`ImageMachine::step`] did with control flow.
enum StepOutcome {
    Next,
    Jump {
        target_pc: u32,
    },
    /// A call op was reached: the caller pushes a frame and performs the post-return
    /// accounting.
    Call {
        callee: FuncId,
        args: Vec<Value>,
        dst: Option<u32>,
    },
    Return(Option<Value>),
}

/// One suspended guest frame of [`ImageMachine::exec_function`]'s explicit call stack.
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
/// register index the code references, and [`ImageMachine::exec_function`] allocates every
/// register file with at least `num_regs` slots, so `r` is always in bounds.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
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
}
