//! Sequential IR interpreter.
//!
//! [`Machine`] walks the `Instr` tree against a private [`Memory`], with the HELIX
//! `Wait`/`Signal` pseudo-instructions counted but otherwise no-ops. It is the reference the
//! bytecode engines are checked against, and how the tools check that the HELIX
//! transformation preserves program semantics.
//!
//! Every executed instruction is charged cycles according to a [`CostModel`], and an
//! [`Observer`] receives a callback per block entry and per instruction, which is how the
//! profiler gathers the per-loop data the selection algorithm needs.

use crate::cost::CostModel;
use crate::function::Function;
use crate::ids::{BlockId, FuncId, InstrRef};
use crate::instr::{BinOp, Instr, Operand, Pred, UnOp};
use crate::memory::{Memory, MemoryError};
use crate::module::Module;
use crate::value::Value;
use std::fmt;

/// Maximum call depth before the interpreter reports [`ExecError::StackOverflow`].
pub const MAX_CALL_DEPTH: usize = 512;

/// Default instruction budget (fuel) for a fresh interpreter.
pub const DEFAULT_FUEL: u64 = 2_000_000_000;

/// Errors produced during interpretation.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// A memory access was out of range.
    Memory(MemoryError),
    /// The instruction budget was exhausted (guards against non-terminating workloads).
    FuelExhausted,
    /// The call stack exceeded [`MAX_CALL_DEPTH`].
    StackOverflow,
    /// A block ended without a terminator (the function does not verify).
    MissingTerminator(BlockId),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Memory(e) => write!(f, "memory fault: {e}"),
            ExecError::FuelExhausted => write!(f, "instruction budget exhausted"),
            ExecError::StackOverflow => write!(f, "call stack overflow"),
            ExecError::MissingTerminator(b) => write!(f, "block {b} has no terminator"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<MemoryError> for ExecError {
    fn from(e: MemoryError) -> Self {
        ExecError::Memory(e)
    }
}

/// Aggregate execution statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Dynamic instruction count.
    pub instrs: u64,
    /// Total cycles charged by the cost model.
    pub cycles: u64,
    /// Dynamic load count.
    pub loads: u64,
    /// Dynamic store count.
    pub stores: u64,
    /// Dynamic call count.
    pub calls: u64,
    /// Dynamic count of basic blocks entered.
    pub blocks: u64,
    /// Dynamic count of `Wait` instructions executed.
    pub waits: u64,
    /// Dynamic count of `Signal` instructions executed.
    pub signals: u64,
}

impl ExecStats {
    /// Adds another statistics record into this one.
    pub fn merge(&mut self, other: &ExecStats) {
        self.instrs += other.instrs;
        self.cycles += other.cycles;
        self.loads += other.loads;
        self.stores += other.stores;
        self.calls += other.calls;
        self.blocks += other.blocks;
        self.waits += other.waits;
        self.signals += other.signals;
    }
}

/// Receives callbacks as the interpreter executes code.
///
/// All methods have empty default implementations so implementors override only what they
/// need (the profiler uses block-entry and instruction events; tests use call events).
pub trait Observer {
    /// Called when control enters `block` of `func`.
    fn on_block_enter(&mut self, _func: FuncId, _block: BlockId) {}
    /// Called after each executed instruction with the cycles charged for it.
    fn on_instr(&mut self, _func: FuncId, _at: InstrRef, _instr: &Instr, _cycles: u64) {}
    /// Called when `caller` invokes `callee` from the call site `at`, before the callee runs.
    fn on_call(&mut self, _caller: FuncId, _at: InstrRef, _callee: FuncId) {}
    /// Called when `func` returns.
    fn on_return(&mut self, _func: FuncId) {}
}

/// An observer that ignores every event.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// A self-contained sequential machine: the tree-walking interpreter plus a private memory
/// initialized from the module's globals.
#[derive(Debug)]
pub struct Machine<'m> {
    module: &'m Module,
    cost: CostModel,
    global_bases: Vec<i64>,
    fuel: u64,
    stats: ExecStats,
    memory: Memory,
}

impl<'m> Machine<'m> {
    /// Creates a machine for `module` with the default (i7-980X) cost model and default fuel.
    pub fn new(module: &'m Module) -> Self {
        Self::with_cost(module, CostModel::default())
    }

    /// Creates a machine with an explicit cost model.
    pub fn with_cost(module: &'m Module, cost: CostModel) -> Self {
        Self {
            module,
            cost,
            global_bases: module.global_base_addresses(),
            fuel: DEFAULT_FUEL,
            stats: ExecStats::default(),
            memory: Memory::for_module(module),
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
        self.exec_function(func, args, &mut NullObserver, 0)
    }

    /// Calls `func` with `args`, reporting events to `obs`.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on faults, fuel exhaustion or malformed IR.
    pub fn call_observed(
        &mut self,
        func: FuncId,
        args: &[Value],
        obs: &mut dyn Observer,
    ) -> Result<Option<Value>, ExecError> {
        self.exec_function(func, args, obs, 0)
    }

    /// Execution statistics accumulated so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// The machine's memory (for inspecting program results in tests and examples).
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Evaluates an operand against a register file.
    fn eval_operand(&self, regs: &[Value], op: Operand) -> Value {
        match op {
            Operand::Var(v) => regs.get(v.index()).copied().unwrap_or_default(),
            Operand::ConstInt(i) => Value::Int(i),
            Operand::ConstFloat(f) => Value::Float(f),
            Operand::Global(g) => Value::Int(self.global_bases[g.index()]),
        }
    }

    fn exec_function(
        &mut self,
        func: FuncId,
        args: &[Value],
        obs: &mut dyn Observer,
        depth: usize,
    ) -> Result<Option<Value>, ExecError> {
        if depth > MAX_CALL_DEPTH {
            return Err(ExecError::StackOverflow);
        }
        let function: &Function = self.module.function(func);
        let mut regs = vec![Value::default(); function.num_vars.max(args.len())];
        for (i, a) in args.iter().enumerate().take(function.num_params) {
            regs[i] = *a;
        }

        let mut block = function.entry;
        loop {
            self.stats.blocks += 1;
            obs.on_block_enter(func, block);
            let bb = function.block(block);
            let mut next: Option<BlockId> = None;
            for (idx, instr) in bb.instrs.iter().enumerate() {
                if self.fuel == 0 {
                    return Err(ExecError::FuelExhausted);
                }
                self.fuel -= 1;
                self.stats.instrs += 1;
                let cycles = self.cost.cost(instr);
                match instr {
                    Instr::Const { dst, value } | Instr::Copy { dst, src: value } => {
                        regs[dst.index()] = self.eval_operand(&regs, *value);
                    }
                    Instr::Unary { dst, op, src } => {
                        let v = self.eval_operand(&regs, *src);
                        regs[dst.index()] = eval_unop(*op, v);
                    }
                    Instr::Binary { dst, op, lhs, rhs } => {
                        let a = self.eval_operand(&regs, *lhs);
                        let b = self.eval_operand(&regs, *rhs);
                        regs[dst.index()] = eval_binop(*op, a, b);
                    }
                    Instr::Cmp {
                        dst,
                        pred,
                        lhs,
                        rhs,
                    } => {
                        let a = self.eval_operand(&regs, *lhs);
                        let b = self.eval_operand(&regs, *rhs);
                        regs[dst.index()] = Value::from_bool(eval_pred(*pred, a, b));
                    }
                    Instr::Select {
                        dst,
                        cond,
                        on_true,
                        on_false,
                    } => {
                        let c = self.eval_operand(&regs, *cond).as_bool();
                        let v = if c {
                            self.eval_operand(&regs, *on_true)
                        } else {
                            self.eval_operand(&regs, *on_false)
                        };
                        regs[dst.index()] = v;
                    }
                    Instr::Load { dst, addr, offset } => {
                        let base = self.eval_operand(&regs, *addr).as_int();
                        regs[dst.index()] = self.memory.load(base + offset)?;
                        self.stats.loads += 1;
                    }
                    Instr::Store {
                        addr,
                        offset,
                        value,
                    } => {
                        let base = self.eval_operand(&regs, *addr).as_int();
                        let v = self.eval_operand(&regs, *value);
                        self.memory.store(base + offset, v)?;
                        self.stats.stores += 1;
                    }
                    Instr::Alloc { dst, words } => {
                        let n = self.eval_operand(&regs, *words).as_int().max(0) as usize;
                        regs[dst.index()] = Value::Int(self.memory.alloc(n)?);
                    }
                    Instr::Call { dst, callee, args } => {
                        let actuals: Vec<Value> =
                            args.iter().map(|a| self.eval_operand(&regs, *a)).collect();
                        self.stats.calls += 1;
                        obs.on_call(func, InstrRef::new(block, idx), *callee);
                        let ret = self.exec_function(*callee, &actuals, obs, depth + 1)?;
                        if let Some(d) = dst {
                            regs[d.index()] = ret.unwrap_or_default();
                        }
                    }
                    // Synchronization is a no-op sequentially; it is only counted.
                    Instr::Wait { .. } => self.stats.waits += 1,
                    Instr::Signal { .. } => self.stats.signals += 1,
                    Instr::Br { target } => {
                        next = Some(*target);
                    }
                    Instr::CondBr {
                        cond,
                        then_bb,
                        else_bb,
                    } => {
                        let c = self.eval_operand(&regs, *cond).as_bool();
                        next = Some(if c { *then_bb } else { *else_bb });
                    }
                    Instr::Ret { value } => {
                        self.stats.cycles += cycles;
                        obs.on_instr(func, InstrRef::new(block, idx), instr, cycles);
                        obs.on_return(func);
                        return Ok(value.map(|v| self.eval_operand(&regs, v)));
                    }
                }
                self.stats.cycles += cycles;
                obs.on_instr(func, InstrRef::new(block, idx), instr, cycles);
            }
            block = next.ok_or(ExecError::MissingTerminator(block))?;
        }
    }
}

/// Evaluates a unary operation.
#[inline]
pub fn eval_unop(op: UnOp, v: Value) -> Value {
    match op {
        UnOp::Neg => match v {
            Value::Int(i) => Value::Int(i.wrapping_neg()),
            Value::Float(f) => Value::Float(-f),
        },
        UnOp::Not => Value::Int(!v.as_int()),
        UnOp::ToFloat => Value::Float(v.as_float()),
        UnOp::ToInt => Value::Int(v.as_int()),
    }
}

/// Evaluates a binary operation; mixed int/float operands promote to float.
#[inline]
pub fn eval_binop(op: BinOp, a: Value, b: Value) -> Value {
    if a.is_float() || b.is_float() {
        let (x, y) = (a.as_float(), b.as_float());
        let r = match op {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => {
                if y == 0.0 {
                    0.0
                } else {
                    x / y
                }
            }
            BinOp::Rem => {
                if y == 0.0 {
                    0.0
                } else {
                    x % y
                }
            }
            BinOp::Min => x.min(y),
            BinOp::Max => x.max(y),
            // Bitwise operators fall back to the integer interpretation.
            BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr => {
                return eval_binop(op, Value::Int(a.as_int()), Value::Int(b.as_int()))
            }
        };
        Value::Float(r)
    } else {
        let (x, y) = (a.as_int(), b.as_int());
        let r = match op {
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            BinOp::Div => {
                if y == 0 {
                    0
                } else {
                    x.wrapping_div(y)
                }
            }
            BinOp::Rem => {
                if y == 0 {
                    0
                } else {
                    x.wrapping_rem(y)
                }
            }
            BinOp::And => x & y,
            BinOp::Or => x | y,
            BinOp::Xor => x ^ y,
            BinOp::Shl => x.wrapping_shl((y & 63) as u32),
            BinOp::Shr => x.wrapping_shr((y & 63) as u32),
            BinOp::Min => x.min(y),
            BinOp::Max => x.max(y),
        };
        Value::Int(r)
    }
}

/// Evaluates a comparison predicate; mixed int/float operands compare as floats.
#[inline]
pub fn eval_pred(pred: Pred, a: Value, b: Value) -> bool {
    if a.is_float() || b.is_float() {
        let (x, y) = (a.as_float(), b.as_float());
        match pred {
            Pred::Eq => x == y,
            Pred::Ne => x != y,
            Pred::Lt => x < y,
            Pred::Le => x <= y,
            Pred::Gt => x > y,
            Pred::Ge => x >= y,
        }
    } else {
        let (x, y) = (a.as_int(), b.as_int());
        match pred {
            Pred::Eq => x == y,
            Pred::Ne => x != y,
            Pred::Lt => x < y,
            Pred::Le => x <= y,
            Pred::Gt => x > y,
            Pred::Ge => x >= y,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::ids::{DepId, VarId};
    use crate::instr::Operand;

    fn fib_module() -> (Module, FuncId) {
        // fib(n) = n < 2 ? n : fib(n-1) + fib(n-2)
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

    #[test]
    fn recursion_works() {
        let (module, fid) = fib_module();
        let mut m = Machine::new(&module);
        let out = m.call(fid, &[Value::Int(10)]).unwrap().unwrap();
        assert_eq!(out.as_int(), 55);
        assert!(m.stats().calls > 0);
        assert!(m.stats().cycles > m.stats().instrs);
    }

    #[test]
    fn fuel_exhaustion_is_reported() {
        let (module, fid) = fib_module();
        let mut m = Machine::new(&module);
        m.set_fuel(10);
        assert_eq!(
            m.call(fid, &[Value::Int(20)]),
            Err(ExecError::FuelExhausted)
        );
    }

    #[test]
    fn loads_and_stores_hit_memory() {
        let mut module = Module::new("m");
        let g = module.add_global("cell", 1);
        let mut b = FunctionBuilder::new("bump", 0);
        let v = b.new_var();
        b.load(v, Operand::Global(g), 0);
        let v2 = b.binary_to_new(BinOp::Add, Operand::Var(v), Operand::int(1));
        b.store(Operand::Global(g), 0, Operand::Var(v2));
        b.ret(Some(Operand::Var(v2)));
        let f = module.add_function(b.finish());
        let mut m = Machine::new(&module);
        assert_eq!(m.call(f, &[]).unwrap().unwrap().as_int(), 1);
        assert_eq!(m.call(f, &[]).unwrap().unwrap().as_int(), 2);
        assert_eq!(m.stats().loads, 2);
        assert_eq!(m.stats().stores, 2);
    }

    #[test]
    fn alloc_returns_distinct_regions() {
        let mut module = Module::new("m");
        let mut b = FunctionBuilder::new("alloc2", 0);
        let a = b.new_var();
        let c = b.new_var();
        b.alloc(a, Operand::int(8));
        b.alloc(c, Operand::int(8));
        b.store(Operand::Var(a), 0, Operand::int(1));
        b.store(Operand::Var(c), 0, Operand::int(2));
        let va = b.new_var();
        b.load(va, Operand::Var(a), 0);
        b.ret(Some(Operand::Var(va)));
        let f = module.add_function(b.finish());
        let mut m = Machine::new(&module);
        assert_eq!(m.call(f, &[]).unwrap().unwrap().as_int(), 1);
    }

    #[test]
    fn wait_signal_are_sequentially_noop() {
        let mut module = Module::new("m");
        let mut b = FunctionBuilder::new("sync", 0);
        b.wait(DepId::new(3));
        b.signal(DepId::new(3));
        b.ret(Some(Operand::int(7)));
        let f = module.add_function(b.finish());
        let mut m = Machine::new(&module);
        assert_eq!(m.call(f, &[]).unwrap().unwrap().as_int(), 7);
        assert_eq!(m.stats().waits, 1);
        assert_eq!(m.stats().signals, 1);
    }

    #[test]
    fn observer_sees_calls_and_instrs() {
        #[derive(Default)]
        struct Counter {
            instrs: usize,
            calls: usize,
            blocks: usize,
            returns: usize,
        }
        impl Observer for Counter {
            fn on_instr(&mut self, _f: FuncId, _a: InstrRef, _i: &Instr, _c: u64) {
                self.instrs += 1;
            }
            fn on_call(&mut self, _c: FuncId, _a: InstrRef, _t: FuncId) {
                self.calls += 1;
            }
            fn on_block_enter(&mut self, _f: FuncId, _b: BlockId) {
                self.blocks += 1;
            }
            fn on_return(&mut self, _f: FuncId) {
                self.returns += 1;
            }
        }
        let (module, fid) = fib_module();
        let mut m = Machine::new(&module);
        let mut obs = Counter::default();
        m.call_observed(fid, &[Value::Int(5)], &mut obs).unwrap();
        assert!(obs.instrs as u64 == m.stats().instrs);
        assert!(obs.calls > 0);
        assert!(obs.blocks > 0);
        assert!(obs.returns > obs.calls); // outer call returns too
    }

    #[test]
    fn binop_semantics() {
        assert_eq!(eval_binop(BinOp::Add, 2.into(), 3.into()).as_int(), 5);
        assert_eq!(eval_binop(BinOp::Div, 7.into(), 0.into()).as_int(), 0);
        assert_eq!(eval_binop(BinOp::Rem, 7.into(), 0.into()).as_int(), 0);
        assert_eq!(eval_binop(BinOp::Min, 7.into(), 3.into()).as_int(), 3);
        assert_eq!(eval_binop(BinOp::Max, 7.into(), 3.into()).as_int(), 7);
        assert_eq!(
            eval_binop(BinOp::Add, Value::Float(0.5), 1.into()).as_float(),
            1.5
        );
        assert_eq!(
            eval_binop(BinOp::Div, Value::Float(1.0), Value::Float(0.0)).as_float(),
            0.0
        );
        assert_eq!(eval_binop(BinOp::Shl, 1.into(), 3.into()).as_int(), 8);
        assert_eq!(
            eval_binop(BinOp::And, Value::Float(3.0), 1.into()).as_int(),
            3 & 1
        );
    }

    #[test]
    fn unop_and_pred_semantics() {
        assert_eq!(eval_unop(UnOp::Neg, 5.into()).as_int(), -5);
        assert_eq!(eval_unop(UnOp::Neg, Value::Float(2.0)).as_float(), -2.0);
        assert_eq!(eval_unop(UnOp::ToFloat, 3.into()), Value::Float(3.0));
        assert_eq!(eval_unop(UnOp::ToInt, Value::Float(3.9)).as_int(), 3);
        assert!(eval_pred(Pred::Lt, 1.into(), 2.into()));
        assert!(eval_pred(Pred::Ge, 2.into(), 2.into()));
        assert!(eval_pred(Pred::Ne, Value::Float(1.5), 1.into()));
    }

    #[test]
    fn missing_terminator_detected() {
        let mut module = Module::new("m");
        let mut f = Function::new("bad", 0);
        let entry = f.entry;
        f.block_mut(entry).instrs.push(Instr::Const {
            dst: VarId::new(0),
            value: Operand::int(1),
        });
        f.num_vars = 1;
        let id = module.add_function(f);
        let mut m = Machine::new(&module);
        assert!(matches!(
            m.call(id, &[]),
            Err(ExecError::MissingTerminator(_))
        ));
    }

    #[test]
    fn stack_overflow_detected() {
        let mut module = Module::new("m");
        let fid = module.add_function(Function::new("loopy", 0));
        let mut b = FunctionBuilder::new("loopy", 0);
        b.call(None, fid, vec![]);
        b.ret(None);
        *module.function_mut(fid) = b.finish();
        let mut m = Machine::new(&module);
        assert_eq!(m.call(fid, &[]), Err(ExecError::StackOverflow));
    }
}
