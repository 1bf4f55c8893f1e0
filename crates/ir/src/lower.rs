//! Lowering a verified [`Module`] into an immutable, execution-ready [`ExecImage`].
//!
//! The tree-walking interpreter in [`crate::interp`] re-traverses the `Instr` enum tree and
//! chases `Function`/`BlockId` indirections on every dynamic instruction. For the hot paths —
//! profiling runs, the parallel runtime, differential corpus sweeps — that overhead dominates.
//! Lowering compiles each function once into *flat bytecode*:
//!
//! * one contiguous [`Op`] stream per function, with blocks laid out in id order,
//! * branch targets pre-resolved to program counters (plus the dense target block index, so
//!   per-block statistics and block-stepping executors need no reverse lookup),
//! * operands pre-resolved: virtual registers become dense `u32` indices, global bases are
//!   folded into integer immediates at lowering time,
//! * a per-op cost class, so an engine can charge cycles with one table lookup instead of
//!   re-classifying the instruction,
//! * per-block op ranges and a `pc → InstrRef` side table that lets profilers keep dense
//!   per-pc counters and fold them back to IR instruction references only when reporting.
//!
//! Lowering is a pure representation change: it never adds, removes, fuses or reorders
//! instructions, so dynamic instruction counts, cycle charges and observable effects are
//! identical to the tree-walking interpreter (this is enforced by `tests/exec_differential.rs`).

use crate::function::Function;
use crate::ids::{BlockId, FuncId, InstrRef};
use crate::instr::{BinOp, Instr, Operand, Pred, UnOp};
use crate::memory::Memory;
use crate::module::Module;

/// A pre-resolved operand of the flat bytecode: a dense register index or an immediate.
///
/// Global base addresses are folded into [`Opnd::Int`] during lowering, so the engine never
/// consults the module's global layout on the hot path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Opnd {
    /// Read of register `r`.
    Reg(u32),
    /// A 64-bit integer immediate (also used for folded global base addresses).
    Int(i64),
    /// A 64-bit float immediate.
    Float(f64),
}

/// One flat bytecode operation.
///
/// The variants mirror [`Instr`] one-to-one except that control flow carries pre-resolved
/// program counters and block indices, and `Const`/`Copy` collapse into [`Op::Mov`] (they had
/// identical semantics already).
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// `dst = src` (lowered `Const` and `Copy`).
    Mov {
        /// Destination register.
        dst: u32,
        /// Source operand.
        src: Opnd,
    },
    /// `dst = op src`.
    Un {
        /// Destination register.
        dst: u32,
        /// Operator.
        op: UnOp,
        /// Source operand.
        src: Opnd,
    },
    /// `dst = lhs op rhs`.
    Bin {
        /// Destination register.
        dst: u32,
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Opnd,
        /// Right operand.
        rhs: Opnd,
    },
    /// `dst = lhs pred rhs`, producing 0 or 1.
    Cmp {
        /// Destination register.
        dst: u32,
        /// Predicate.
        pred: Pred,
        /// Left operand.
        lhs: Opnd,
        /// Right operand.
        rhs: Opnd,
    },
    /// `dst = cond ? on_true : on_false`.
    Select {
        /// Destination register.
        dst: u32,
        /// Condition operand.
        cond: Opnd,
        /// Value when the condition is true.
        on_true: Opnd,
        /// Value when the condition is false.
        on_false: Opnd,
    },
    /// `dst = mem[addr + offset]`.
    Load {
        /// Destination register.
        dst: u32,
        /// Base address operand.
        addr: Opnd,
        /// Constant word offset.
        offset: i64,
    },
    /// `mem[addr + offset] = value`.
    Store {
        /// Base address operand.
        addr: Opnd,
        /// Constant word offset.
        offset: i64,
        /// Value to store.
        value: Opnd,
    },
    /// `dst = alloc(words)`.
    Alloc {
        /// Destination register receiving the base address.
        dst: u32,
        /// Number of words to allocate.
        words: Opnd,
    },
    /// `dst = alloc(words)` for an allocation the privatization analysis proved
    /// thread-private: the parallel runtime serves it from a per-worker bump arena instead of
    /// shared memory. [`ExecImage::lower`] never emits this variant — only the parallel-image
    /// re-lowering does — and [`crate::exec::ImageMachine`] treats it exactly like
    /// [`Op::Alloc`].
    PrivateAlloc {
        /// Destination register receiving the base address.
        dst: u32,
        /// Number of words to allocate.
        words: Opnd,
    },
    /// Direct call `dst = func(args...)`.
    Call {
        /// Optional destination register.
        dst: Option<u32>,
        /// Dense index of the callee.
        func: u32,
        /// Actual arguments.
        args: Box<[Opnd]>,
    },
    /// HELIX `Wait` on dependence `dep`.
    Wait {
        /// The synchronized dependence index.
        dep: u32,
    },
    /// HELIX `Signal` on dependence `dep`.
    Signal {
        /// The synchronized dependence index.
        dep: u32,
    },
    /// Unconditional jump to a pre-resolved pc.
    Jump {
        /// Target program counter.
        pc: u32,
        /// Dense index of the target block.
        block: u32,
    },
    /// Conditional branch with both targets pre-resolved.
    Branch {
        /// Condition operand.
        cond: Opnd,
        /// Program counter of the true target.
        then_pc: u32,
        /// Dense index of the true target block.
        then_block: u32,
        /// Program counter of the false target.
        else_pc: u32,
        /// Dense index of the false target block.
        else_block: u32,
    },
    /// Return from the current function.
    Ret {
        /// Optional return value.
        value: Option<Opnd>,
    },
    /// Synthesized for blocks without a terminator: reports
    /// [`crate::interp::ExecError::MissingTerminator`] without consuming fuel, matching the
    /// tree-walking interpreter exactly.
    Trap {
        /// Dense index of the malformed block.
        block: u32,
    },
}

/// Cycle-cost class of one op; an engine expands a [`crate::cost::CostModel`] into a dense
/// table indexed by this (see [`cost_table`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum CostClass {
    /// Simple ALU operations, moves, comparisons, selects.
    Alu = 0,
    /// Multiplication.
    Mul = 1,
    /// Division and remainder.
    Div = 2,
    /// Memory load.
    Load = 3,
    /// Memory store.
    Store = 4,
    /// Heap allocation.
    Alloc = 5,
    /// Direct call overhead.
    Call = 6,
    /// Branches and returns.
    Branch = 7,
    /// A locally satisfied `Wait`.
    Wait = 8,
    /// A `Signal`.
    Signal = 9,
}

/// Number of [`CostClass`] variants (the size of a cost table).
pub const NUM_COST_CLASSES: usize = 10;

/// Expands a cost model into a dense per-class cycle table.
pub fn cost_table(cost: &crate::cost::CostModel) -> [u64; NUM_COST_CLASSES] {
    [
        cost.alu,
        cost.mul,
        cost.div,
        cost.load,
        cost.store,
        cost.alloc,
        cost.call,
        cost.branch,
        cost.wait_local,
        cost.signal,
    ]
}

/// The flat bytecode image of one function.
#[derive(Clone, Debug)]
pub struct FuncImage {
    /// The function's name (diagnostics only).
    pub name: String,
    /// Number of parameters (registers `0..num_params`).
    pub num_params: usize,
    /// Size of the register file the engine must allocate. At least the function's `num_vars`,
    /// widened to cover every register index the code references so that operand reads are
    /// plain indexing (the tree-walker's out-of-range reads yield zero; a zero-initialized
    /// file reproduces that).
    pub num_regs: usize,
    /// The flat op stream, blocks laid out in [`BlockId`] order.
    pub code: Vec<Op>,
    /// Cost class of each op, parallel to `code`.
    pub cost_class: Vec<CostClass>,
    /// The IR instruction each op was lowered from, parallel to `code` (for profilers folding
    /// dense pc counters back to [`InstrRef`]s). Synthesized `Trap` ops map to the one-past-end
    /// index of their block.
    pub pc_to_ref: Vec<InstrRef>,
    /// Half-open `[start, end)` op range of each block, indexed by dense block id.
    pub block_range: Vec<(u32, u32)>,
    /// Dense index of the entry block.
    pub entry_block: u32,
}

impl FuncImage {
    /// Program counter of the first op of `block`.
    pub fn block_start(&self, block: u32) -> u32 {
        self.block_range[block as usize].0
    }

    /// Program counter a fresh activation of this function starts at — the first op of
    /// the entry block. Callers (the runtime's dispatch engines) previously recomputed
    /// this from the two side tables at every call site.
    pub fn entry_pc(&self) -> u32 {
        self.block_start(self.entry_block)
    }

    /// Number of blocks in the function.
    pub fn num_blocks(&self) -> usize {
        self.block_range.len()
    }

    /// The ops of `block`: the `[start, end)` slice of the flat stream. Used by region
    /// re-lowerings (the parallel runtime's `ParallelImage`) that splice per-block op ranges
    /// into a new layout.
    pub fn block_code(&self, block: u32) -> &[Op] {
        let (start, end) = self.block_range[block as usize];
        &self.code[start as usize..end as usize]
    }

    /// The `pc -> InstrRef` entries of `block`, parallel to [`FuncImage::block_code`].
    pub fn block_refs(&self, block: u32) -> &[InstrRef] {
        let (start, end) = self.block_range[block as usize];
        &self.pc_to_ref[start as usize..end as usize]
    }
}

/// An immutable, execution-ready lowering of a whole module.
///
/// Build one with [`ExecImage::lower`]; execute it with [`crate::exec::ImageMachine`]. The image borrows nothing from the module, so it can be
/// shared freely across worker threads.
#[derive(Clone, Debug)]
pub struct ExecImage {
    /// Per-function bytecode, indexed by [`FuncId`].
    pub funcs: Vec<FuncImage>,
    /// Base address of each global (already folded into operands; kept for tooling).
    pub global_bases: Vec<i64>,
    /// Program memory with globals laid out and initialized, ready to clone per execution.
    pub initial_memory: Memory,
    /// The source module's name (diagnostics only).
    pub module_name: String,
}

impl ExecImage {
    /// Lowers every function of `module` into flat bytecode.
    ///
    /// # Panics
    ///
    /// Panics if a branch targets a block that does not exist or a call targets a function
    /// that does not exist (both are rejected by [`crate::verify::verify_module`]).
    pub fn lower(module: &Module) -> ExecImage {
        let global_bases = module.global_base_addresses();
        let funcs = module
            .functions
            .iter()
            .map(|f| lower_function(f, &global_bases, module.functions.len()))
            .collect();
        ExecImage {
            funcs,
            global_bases,
            initial_memory: Memory::for_module(module),
            module_name: module.name.clone(),
        }
    }

    /// The bytecode of one function.
    ///
    /// # Panics
    ///
    /// Panics if the function does not exist.
    pub fn func(&self, id: FuncId) -> &FuncImage {
        &self.funcs[id.index()]
    }

    /// Total number of ops across all functions.
    pub fn op_count(&self) -> usize {
        self.funcs.iter().map(|f| f.code.len()).sum()
    }
}

fn lower_operand(op: Operand, global_bases: &[i64]) -> Opnd {
    match op {
        Operand::Var(v) => Opnd::Reg(v.0),
        Operand::ConstInt(i) => Opnd::Int(i),
        Operand::ConstFloat(f) => Opnd::Float(f),
        Operand::Global(g) => Opnd::Int(global_bases[g.index()]),
    }
}

fn cost_class_of(instr: &Instr) -> CostClass {
    match instr {
        Instr::Const { .. }
        | Instr::Copy { .. }
        | Instr::Unary { .. }
        | Instr::Cmp { .. }
        | Instr::Select { .. } => CostClass::Alu,
        Instr::Binary { op, .. } => match op {
            BinOp::Mul => CostClass::Mul,
            BinOp::Div | BinOp::Rem => CostClass::Div,
            _ => CostClass::Alu,
        },
        Instr::Load { .. } => CostClass::Load,
        Instr::Store { .. } => CostClass::Store,
        Instr::Alloc { .. } => CostClass::Alloc,
        Instr::Call { .. } => CostClass::Call,
        Instr::Wait { .. } => CostClass::Wait,
        Instr::Signal { .. } => CostClass::Signal,
        Instr::Br { .. } | Instr::CondBr { .. } | Instr::Ret { .. } => CostClass::Branch,
    }
}

fn lower_function(function: &Function, global_bases: &[i64], num_funcs: usize) -> FuncImage {
    // Pass 1: lay out blocks in id order and compute each block's start pc. A block whose last
    // instruction is not a terminator (or an empty block) gets one synthesized `Trap` slot.
    let mut block_start = Vec::with_capacity(function.blocks.len());
    let mut pc = 0u32;
    for block in &function.blocks {
        block_start.push(pc);
        let needs_trap = !matches!(block.instrs.last(), Some(last) if last.is_terminator());
        pc += block.instrs.len() as u32 + u64::from(needs_trap) as u32;
    }

    // Pass 2: emit the ops.
    let mut code = Vec::with_capacity(pc as usize);
    let mut cost_class = Vec::with_capacity(pc as usize);
    let mut pc_to_ref = Vec::with_capacity(pc as usize);
    let mut block_range = Vec::with_capacity(function.blocks.len());
    let mut max_reg = function.num_vars as u32;
    let track = |o: &Opnd, max_reg: &mut u32| {
        if let Opnd::Reg(r) = o {
            *max_reg = (*max_reg).max(r + 1);
        }
    };
    let lower = |op: Operand| lower_operand(op, global_bases);
    let target_pc = |b: BlockId| -> u32 {
        *block_start
            .get(b.index())
            .unwrap_or_else(|| panic!("branch to nonexistent block {b} in `{}`", function.name))
    };
    for block in &function.blocks {
        let start = code.len() as u32;
        for (index, instr) in block.instrs.iter().enumerate() {
            let op = match instr {
                Instr::Const { dst, value } | Instr::Copy { dst, src: value } => Op::Mov {
                    dst: dst.0,
                    src: lower(*value),
                },
                Instr::Unary { dst, op, src } => Op::Un {
                    dst: dst.0,
                    op: *op,
                    src: lower(*src),
                },
                Instr::Binary { dst, op, lhs, rhs } => Op::Bin {
                    dst: dst.0,
                    op: *op,
                    lhs: lower(*lhs),
                    rhs: lower(*rhs),
                },
                Instr::Cmp {
                    dst,
                    pred,
                    lhs,
                    rhs,
                } => Op::Cmp {
                    dst: dst.0,
                    pred: *pred,
                    lhs: lower(*lhs),
                    rhs: lower(*rhs),
                },
                Instr::Select {
                    dst,
                    cond,
                    on_true,
                    on_false,
                } => Op::Select {
                    dst: dst.0,
                    cond: lower(*cond),
                    on_true: lower(*on_true),
                    on_false: lower(*on_false),
                },
                Instr::Load { dst, addr, offset } => Op::Load {
                    dst: dst.0,
                    addr: lower(*addr),
                    offset: *offset,
                },
                Instr::Store {
                    addr,
                    offset,
                    value,
                } => Op::Store {
                    addr: lower(*addr),
                    offset: *offset,
                    value: lower(*value),
                },
                Instr::Alloc { dst, words } => Op::Alloc {
                    dst: dst.0,
                    words: lower(*words),
                },
                Instr::Call { dst, callee, args } => {
                    assert!(
                        callee.index() < num_funcs,
                        "call to nonexistent function {callee} in `{}`",
                        function.name
                    );
                    Op::Call {
                        dst: dst.map(|d| d.0),
                        func: callee.0,
                        args: args.iter().map(|a| lower(*a)).collect(),
                    }
                }
                Instr::Wait { dep } => Op::Wait { dep: dep.0 },
                Instr::Signal { dep } => Op::Signal { dep: dep.0 },
                Instr::Br { target } => Op::Jump {
                    pc: target_pc(*target),
                    block: target.0,
                },
                Instr::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => Op::Branch {
                    cond: lower(*cond),
                    then_pc: target_pc(*then_bb),
                    then_block: then_bb.0,
                    else_pc: target_pc(*else_bb),
                    else_block: else_bb.0,
                },
                Instr::Ret { value } => Op::Ret {
                    value: value.map(lower),
                },
            };
            // Widen the register file to cover every referenced register, so the engine reads
            // with plain indexing (out-of-range reads see the zero-initialized tail, matching
            // the tree-walker's `get().unwrap_or_default()`).
            match &op {
                Op::Mov { dst, src } | Op::Un { dst, src, .. } => {
                    max_reg = max_reg.max(dst + 1);
                    track(src, &mut max_reg);
                }
                Op::Bin { dst, lhs, rhs, .. } | Op::Cmp { dst, lhs, rhs, .. } => {
                    max_reg = max_reg.max(dst + 1);
                    track(lhs, &mut max_reg);
                    track(rhs, &mut max_reg);
                }
                Op::Select {
                    dst,
                    cond,
                    on_true,
                    on_false,
                } => {
                    max_reg = max_reg.max(dst + 1);
                    track(cond, &mut max_reg);
                    track(on_true, &mut max_reg);
                    track(on_false, &mut max_reg);
                }
                Op::Load { dst, addr, .. } => {
                    max_reg = max_reg.max(dst + 1);
                    track(addr, &mut max_reg);
                }
                Op::Store { addr, value, .. } => {
                    track(addr, &mut max_reg);
                    track(value, &mut max_reg);
                }
                Op::Alloc { dst, words } | Op::PrivateAlloc { dst, words } => {
                    max_reg = max_reg.max(dst + 1);
                    track(words, &mut max_reg);
                }
                Op::Call { dst, args, .. } => {
                    if let Some(d) = dst {
                        max_reg = max_reg.max(d + 1);
                    }
                    for a in args.iter() {
                        track(a, &mut max_reg);
                    }
                }
                Op::Branch { cond, .. } => track(cond, &mut max_reg),
                Op::Ret { value } => {
                    if let Some(v) = value {
                        track(v, &mut max_reg);
                    }
                }
                Op::Wait { .. } | Op::Signal { .. } | Op::Jump { .. } | Op::Trap { .. } => {}
            }
            cost_class.push(cost_class_of(instr));
            pc_to_ref.push(InstrRef::new(block.id, index));
            code.push(op);
        }
        if !matches!(block.instrs.last(), Some(last) if last.is_terminator()) {
            code.push(Op::Trap { block: block.id.0 });
            cost_class.push(CostClass::Branch); // never charged; Trap aborts before costing
            pc_to_ref.push(InstrRef::new(block.id, block.instrs.len()));
        }
        block_range.push((start, code.len() as u32));
    }
    debug_assert_eq!(code.len() as u32, pc);

    FuncImage {
        name: function.name.clone(),
        num_params: function.num_params,
        num_regs: max_reg as usize,
        code,
        cost_class,
        pc_to_ref,
        block_range,
        entry_block: function.entry.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::cost::CostModel;
    use crate::ids::GlobalId;

    #[test]
    fn lowering_resolves_branches_and_blocks() {
        let mut module = Module::new("m");
        let mut b = FunctionBuilder::new("f", 1);
        let n = b.param(0);
        let t = b.new_block();
        let e = b.new_block();
        let c = b.cmp_to_new(Pred::Lt, Operand::Var(n), Operand::int(5));
        b.cond_br(Operand::Var(c), t, e);
        b.switch_to(t);
        b.ret(Some(Operand::int(1)));
        b.switch_to(e);
        b.ret(Some(Operand::int(0)));
        let f = module.add_function(b.finish());
        let image = ExecImage::lower(&module);
        let fi = image.func(f);
        assert_eq!(fi.num_blocks(), 3);
        assert_eq!(fi.code.len(), 4);
        // Every pc maps back to an InstrRef and has a cost class.
        assert_eq!(fi.pc_to_ref.len(), fi.code.len());
        assert_eq!(fi.cost_class.len(), fi.code.len());
        match &fi.code[1] {
            Op::Branch {
                then_pc,
                then_block,
                else_pc,
                else_block,
                ..
            } => {
                assert_eq!(*then_pc, fi.block_start(*then_block));
                assert_eq!(*else_pc, fi.block_start(*else_block));
                assert_ne!(then_block, else_block);
            }
            other => panic!("expected Branch, got {other:?}"),
        }
    }

    #[test]
    fn globals_fold_into_immediates() {
        let mut module = Module::new("m");
        let g0 = module.add_global("a", 3);
        let g1 = module.add_global("b", 2);
        let mut b = FunctionBuilder::new("f", 0);
        let v = b.new_var();
        b.load(v, Operand::Global(g1), 1);
        b.ret(Some(Operand::Var(v)));
        let f = module.add_function(b.finish());
        let image = ExecImage::lower(&module);
        assert_eq!(image.global_bases, vec![1, 4]);
        let fi = image.func(f);
        match &fi.code[0] {
            Op::Load { addr, offset, .. } => {
                assert_eq!(*addr, Opnd::Int(4));
                assert_eq!(*offset, 1);
            }
            other => panic!("expected Load, got {other:?}"),
        }
        let _ = (g0, GlobalId::new(0));
    }

    #[test]
    fn missing_terminator_lowers_to_trap() {
        let mut module = Module::new("m");
        let mut f = Function::new("bad", 0);
        let entry = f.entry;
        f.block_mut(entry).instrs.push(Instr::Const {
            dst: crate::ids::VarId::new(0),
            value: Operand::int(1),
        });
        f.num_vars = 1;
        let id = module.add_function(f);
        let image = ExecImage::lower(&module);
        let fi = image.func(id);
        assert!(matches!(fi.code.last(), Some(Op::Trap { block: 0 })));
        assert_eq!(fi.block_range[0], (0, 2));
    }

    #[test]
    fn cost_table_matches_cost_model() {
        let cost = CostModel::intel_i7_980x();
        let table = cost_table(&cost);
        assert_eq!(table[CostClass::Alu as usize], cost.alu);
        assert_eq!(table[CostClass::Div as usize], cost.div);
        assert_eq!(table[CostClass::Wait as usize], cost.wait_local);
        assert_eq!(NUM_COST_CLASSES, table.len());
    }

    #[test]
    fn register_file_covers_all_references() {
        // A function whose num_vars undercounts the registers it references still lowers to a
        // register file wide enough for plain indexing.
        let mut module = Module::new("m");
        let mut f = Function::new("wide", 0);
        let entry = f.entry;
        f.block_mut(entry).instrs.push(Instr::Ret {
            value: Some(Operand::Var(crate::ids::VarId::new(9))),
        });
        let id = module.add_function(f);
        let image = ExecImage::lower(&module);
        assert!(image.func(id).num_regs >= 10);
    }
}
