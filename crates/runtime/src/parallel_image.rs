//! The [`ParallelImage`]: a [`TransformedProgram`] lowered once into an execution-ready form
//! the parallel runtime dispatches directly.
//!
//! [`LoopImage::build`] resolves everything the hot loop would otherwise re-derive per
//! block per iteration — loop membership, the prologue→body transition, sync-point lanes —
//! *once*, at lowering time:
//!
//! * the loop's blocks (prologue + body) are re-laid-out into one contiguous op stream
//!   ([`LoopImage::code`]) with internal branch targets pre-resolved to program counters;
//! * the loop's edges are classified at lowering time: the back edge becomes a jump to the
//!   [`PC_END_ITER`] sentinel, every exit edge a jump to [`PC_EXIT`] (carrying the dense
//!   index of the Phase C resume block), so the hot loop never consults a block set;
//! * `Wait`/`Signal` ops are renumbered from [`DepId`]s to dense *lane* indices into the
//!   padded [`crate::lanes::SignalLanes`] array, with a per-segment side table
//!   ([`LoopImage::lanes`]) recording the owning segment and its flat pc range (used for
//!   precise deadlock reports and for the simulator's per-segment cost model);
//! * the prologue→body transition is materialized as an explicit control-release op
//!   (a `Signal` on the reserved [`CONTROL_DEP`] lane) at the entry of every body block
//!   reachable from the prologue, so "release the next iteration" is ordinary dispatch;
//! * `Alloc` sites the privatization analysis proved iteration-private become
//!   [`Op::PrivateAlloc`], served from the per-worker [`crate::sharded::PrivateArena`].
//!
//! The same module hosts the *lean engine*: a minimal interpreter over the lowered ops with
//! no fuel, no statistics, no observers and no cycle charging — the production dispatch loop
//! of the runtime, as opposed to the instrumented engine used for profiling. Its semantics
//! (value evaluation, memory faults, call depth, missing terminators) are identical to
//! [`helix_ir::ImageMachine`]; only the accounting is gone.

use crate::lanes::SignalLanes;
use crate::pool::{AdaptiveWait, Sleepers};
use crate::sharded::{MemoryError, WorkerMemory};
use helix_ir::interp::{eval_binop, eval_pred, eval_unop, ExecError, MAX_CALL_DEPTH};
use helix_ir::lower::{cost_table, CostClass};
use helix_ir::{BinOp, BlockId, CostModel, DepId, ExecImage, FuncId, InstrRef, Op, Opnd, Value};
use helix_plan::TransformedProgram;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Reserved lane index of the iteration-control dependence (the prologue-ordering chain).
pub const CONTROL_DEP: u32 = u32::MAX;

/// Sentinel pc: the back edge — the iteration completed.
pub const PC_END_ITER: u32 = u32::MAX;

/// Sentinel pc: an exit edge — the loop is over; the op's `block` field names the Phase C
/// resume block.
pub const PC_EXIT: u32 = u32::MAX - 1;

/// One synchronized sequential segment in lowered form.
#[derive(Clone, Debug)]
pub struct SegmentLane {
    /// The dependence this lane synchronizes.
    pub dep: DepId,
    /// Index of the segment in the plan's segment list.
    pub segment: usize,
    /// First pc of the segment's flat bytecode range (its earliest `Wait`).
    pub first_pc: u32,
    /// Last pc of the segment's flat bytecode range (its latest `Signal`).
    pub last_pc: u32,
}

impl SegmentLane {
    /// The `[first, last]` pc span of the segment in [`LoopImage::code`].
    pub fn pc_range(&self) -> (u32, u32) {
        (self.first_pc, self.last_pc)
    }
}

/// The loop portion of a [`ParallelImage`]: one iteration's flat bytecode plus side tables.
#[derive(Clone, Debug)]
pub struct LoopImage {
    /// The parallel clone function the loop lives in.
    pub func: FuncId,
    /// Dense index of the loop header block.
    pub header: u32,
    /// pc of the header's first op in [`LoopImage::code`]: where every iteration starts.
    pub entry_pc: u32,
    /// The iteration op stream in the module's generic encoding (diagnostics, segment cost
    /// model); the engine dispatches the specialized `LoopImage::pcode` stream instead.
    pub code: Vec<Op>,
    /// The specialized iteration op stream, parallel to `code` (same pcs): operands are
    /// pre-decoded into register/immediate variants, constants folded, global addresses
    /// fused into absolute load/store forms — the dispatch the workers actually run.
    pub(crate) pcode: Vec<POp>,
    /// Registers that must be reset to the loop-entry snapshot before each iteration,
    /// sorted. A register needs a reset only if some iteration op *reads* it before any
    /// definition in its own block (it may observe a stale previous-iteration value) *and*
    /// some iteration op writes it (otherwise it still holds the snapshot value). Every
    /// cross-iteration register flow the program's semantics rely on was demoted to the
    /// synchronized frame by Step 7, so this set exists purely to keep stale worker-local
    /// register files deterministic — and is typically tiny, which is the point: the
    /// first-generation executor cloned the whole register file per iteration.
    pub restore_regs: Vec<u32>,
    /// The clone-function instruction each op came from, parallel to `code` (synthesized
    /// control-release ops map to their block's first instruction).
    pub pc_to_ref: Vec<InstrRef>,
    /// Source block (dense index) of each op, parallel to `code`.
    pub pc_block: Vec<u32>,
    /// One entry per signal lane (synchronized dependence), indexed by the lane number
    /// carried by `Wait`/`Signal` ops in [`LoopImage::code`] and the specialized `pcode`
    /// stream; each lane owns one row of the runtime's [`crate::lanes::SignalLanes`].
    pub lanes: Vec<SegmentLane>,
    /// Privatized basic induction variables `(register, step)`: each worker recomputes them
    /// from the iteration number instead of synchronizing them.
    pub induction_vars: Vec<(u32, i64)>,
    /// Static words allocated privately per iteration (0 when privatization does not apply).
    pub private_words_per_iter: u64,
    /// Pre-existing (generator-noise) sync ops dropped during lowering: they are no-ops
    /// sequentially and correspond to no synchronized segment.
    pub dropped_sync_ops: usize,
}

impl LoopImage {
    /// Lowers the parallelized loop of `program` (already lowered to `image`) into its
    /// iteration bytecode. See the module docs for the rewrites performed.
    pub fn build(image: &ExecImage, program: &TransformedProgram) -> LoopImage {
        Self::build_with_fusion(image, program, true)
    }

    /// [`LoopImage::build`] with superinstruction fusion made optional: `fuse = false`
    /// produces the plain one-op-per-dispatch image, the reference the differential tests
    /// compare fused execution against.
    pub fn build_with_fusion(
        image: &ExecImage,
        program: &TransformedProgram,
        fuse: bool,
    ) -> LoopImage {
        let plan = &program.plan;
        let fi = image.func(program.parallel_func);
        let header: u32 = plan.header.0;
        let prologue: BTreeSet<u32> = plan.prologue_blocks.iter().map(|b| b.0).collect();
        let body: BTreeSet<u32> = plan.body_blocks.iter().map(|b| b.0).collect();
        let loop_blocks: Vec<u32> = prologue.iter().chain(body.iter()).copied().collect();
        let in_loop: BTreeSet<u32> = loop_blocks.iter().copied().collect();

        // Dense lanes for the synchronized dependences, in segment order.
        let mut lane_of: BTreeMap<u32, u32> = BTreeMap::new();
        let mut lanes: Vec<SegmentLane> = Vec::new();
        for (index, seg) in plan.segments.iter().enumerate() {
            if seg.synchronized && !lane_of.contains_key(&seg.dep.0) {
                lane_of.insert(seg.dep.0, lanes.len() as u32);
                lanes.push(SegmentLane {
                    dep: seg.dep,
                    segment: index,
                    first_pc: u32::MAX,
                    last_pc: 0,
                });
            }
        }

        // Body blocks entered from the prologue get an explicit control-release op: reaching
        // one proves this iteration's prologue completed and decided to continue.
        let mut release_at: BTreeSet<u32> = BTreeSet::new();
        for &b in &prologue {
            for op in fi.block_code(b) {
                let mut target = |block: u32| {
                    if body.contains(&block) {
                        release_at.insert(block);
                    }
                };
                match op {
                    Op::Jump { block, .. } => target(*block),
                    Op::Branch {
                        then_block,
                        else_block,
                        ..
                    } => {
                        target(*then_block);
                        target(*else_block);
                    }
                    _ => {}
                }
            }
        }

        // Emit, recording each loop block's start pc; branch pcs are patched afterwards.
        let mut code: Vec<Op> = Vec::new();
        let mut pc_to_ref: Vec<InstrRef> = Vec::new();
        let mut pc_block: Vec<u32> = Vec::new();
        let mut start_of: BTreeMap<u32, u32> = BTreeMap::new();
        let mut dropped_sync_ops = 0usize;
        for &b in &loop_blocks {
            start_of.insert(b, code.len() as u32);
            let refs = fi.block_refs(b);
            if release_at.contains(&b) {
                code.push(Op::Signal { dep: CONTROL_DEP });
                pc_to_ref.push(
                    refs.first()
                        .copied()
                        .unwrap_or(InstrRef::new(BlockId::new(b), 0)),
                );
                pc_block.push(b);
            }
            for (op, r) in fi.block_code(b).iter().zip(refs) {
                let lowered = match op {
                    Op::Wait { dep } => match lane_of.get(dep) {
                        Some(lane) => {
                            let pc = code.len() as u32;
                            lanes[*lane as usize].first_pc = lanes[*lane as usize].first_pc.min(pc);
                            lanes[*lane as usize].last_pc = lanes[*lane as usize].last_pc.max(pc);
                            Op::Wait { dep: *lane }
                        }
                        None => {
                            dropped_sync_ops += 1;
                            continue;
                        }
                    },
                    Op::Signal { dep } => match lane_of.get(dep) {
                        Some(lane) => {
                            let pc = code.len() as u32;
                            lanes[*lane as usize].first_pc = lanes[*lane as usize].first_pc.min(pc);
                            lanes[*lane as usize].last_pc = lanes[*lane as usize].last_pc.max(pc);
                            Op::Signal { dep: *lane }
                        }
                        None => {
                            dropped_sync_ops += 1;
                            continue;
                        }
                    },
                    Op::Alloc { dst, words } if program.private_allocs.contains(r) => {
                        Op::PrivateAlloc {
                            dst: *dst,
                            words: *words,
                        }
                    }
                    other => other.clone(),
                };
                code.push(lowered);
                pc_to_ref.push(*r);
                pc_block.push(b);
            }
        }

        // Patch branch targets: internal edges get their lowered pc, the back edge and exit
        // edges get their sentinels (the `block` field keeps the original dense block index,
        // which Phase C needs for exits).
        let resolve = |block: u32| -> u32 {
            if block == header {
                PC_END_ITER
            } else if in_loop.contains(&block) {
                start_of[&block]
            } else {
                PC_EXIT
            }
        };
        for op in &mut code {
            match op {
                Op::Jump { pc, block } => *pc = resolve(*block),
                Op::Branch {
                    then_pc,
                    then_block,
                    else_pc,
                    else_block,
                    ..
                } => {
                    *then_pc = resolve(*then_block);
                    *else_pc = resolve(*else_block);
                }
                _ => {}
            }
        }

        let private_words_per_iter = code
            .iter()
            .filter_map(|op| match op {
                Op::PrivateAlloc {
                    words: Opnd::Int(w),
                    ..
                } => Some((*w).max(0) as u64),
                _ => None,
            })
            .sum();
        let induction_vars: Vec<(u32, i64)> = plan
            .induction_vars
            .iter()
            .map(|(v, step)| (v.0, *step))
            .collect();
        let mut pcode: Vec<POp> = code
            .iter()
            .zip(&pc_to_ref)
            .map(|(op, r)| specialize_op(op, program.private_accesses.contains(r)))
            .collect();

        if fuse {
            fuse_superinstructions(&mut pcode, &pc_block);
        }
        let restore_regs = compute_restore_regs(&code, &pc_block, &induction_vars, fi.num_regs);
        LoopImage {
            func: program.parallel_func,
            header,
            entry_pc: start_of[&header],
            code,
            pcode,
            restore_regs,
            pc_to_ref,
            pc_block,
            lanes,
            induction_vars,
            private_words_per_iter,
            dropped_sync_ops,
        }
    }

    /// Debug summary of fused superinstruction counts (diagnostics/examples only).
    pub fn fusion_summary(&self) -> String {
        let rmw = self
            .pcode
            .iter()
            .filter(|p| matches!(p, POp::RmwA { .. }))
            .count();
        format!("rmw {rmw} / {} ops", self.pcode.len())
    }

    /// Number of signal lanes (synchronized dependences).
    pub fn num_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The lane a `Wait`/`Signal` op at `pc` targets, if any.
    pub fn lane_at(&self, pc: u32) -> Option<&SegmentLane> {
        match self.code.get(pc as usize) {
            Some(Op::Wait { dep }) | Some(Op::Signal { dep }) if *dep != CONTROL_DEP => {
                self.lanes.get(*dep as usize)
            }
            _ => None,
        }
    }

    /// Static cycle estimate of each segment's flat pc span, walking the *specialized*
    /// dispatch stream the workers actually run: the cycles a worker spends between
    /// entering the segment's first `Wait` and leaving its last `Signal`, assuming every
    /// dispatch in the span executes once. A fused RMW window is charged its three ops'
    /// class costs minus one ALU-class dispatch per eliminated slot (floored at the
    /// heaviest constituent); every other op is charged on its own. The simulator
    /// uses these as its per-segment costs when no profile-weighted estimate is available
    /// (and to cross-check the profile-weighted ones).
    pub fn segment_span_cycles(&self, cost: &CostModel) -> Vec<(DepId, u64)> {
        let table = cost_table(cost);
        let class_cost = |pc: usize| table[cost_class_of_op(&self.code[pc]) as usize];
        self.lanes
            .iter()
            .map(|lane| {
                let mut cycles = 0u64;
                if lane.first_pc <= lane.last_pc {
                    let last = lane.last_pc as usize;
                    let mut pc = lane.first_pc as usize;
                    while pc <= last {
                        let width = self.pcode[pc].fused_width().max(1);
                        let end = (pc + width).min(last + 1);
                        let sum: u64 = (pc..end).map(class_cost).sum();
                        let heaviest = (pc..end).map(class_cost).max().unwrap_or(0);
                        let saved = table[CostClass::Alu as usize] * (end - pc - 1) as u64;
                        cycles += sum.saturating_sub(saved).max(heaviest);
                        pc = end;
                    }
                }
                (lane.dep, cycles)
            })
            .collect()
    }
}

/// Superinstruction fusion over the specialized stream, with one pattern: the **RMW**
/// `load-abs; binRR; store-abs` (width 3), the canonical synchronized-segment body
/// (`acc = acc ⊕ x`), becomes one dispatch. Only the *head* slot of the window is
/// rewritten; the interior slots keep their original ops, so control flow that jumps into
/// the middle of a window (or re-enters a block mid-way) executes identically —
/// straight-line execution dispatches the head once and skips the window. Fusion never
/// crosses a block boundary, and never crosses a segment's `Wait`/`Signal` boundary ops
/// (they are not fusable, so no window can contain one).
///
/// The RMW hides nothing from the JIT: its load and store are not compiled, and the one
/// binary op between them is too short a run to make a chunk. Any other window would hold
/// a JIT-compilable op (a binary op or a compare) inside a barrier and split a chunk, so
/// nothing else fuses: ALU runs, a load feeding a binary op, a binary op feeding a store
/// and a latch's compare+branch all dispatch op by op, with a monomorphized threaded
/// handler each.
fn fuse_superinstructions(pcode: &mut [POp], pc_block: &[u32]) {
    let len = pcode.len();
    let mut pc = 0usize;
    while pc < len {
        let width = fuse_at(pcode, pc_block, pc);
        pc += width.max(1);
    }
}

/// How a `BinRR` consumes register `prev`: `(op, other_register, prev_on_lhs, dst)`.
fn rr_consumes(p: &POp, prev: u32) -> Option<(BinOp, u32, bool, u32)> {
    match p {
        POp::BinRR { dst, op, lhs, rhs } if *lhs == prev => Some((*op, *rhs, true, *dst)),
        POp::BinRR { dst, op, lhs, rhs } if *rhs == prev => Some((*op, *lhs, false, *dst)),
        _ => None,
    }
}

/// Fuses the RMW window starting at `pc` if there is one: an absolute load, an RR bin
/// consuming it and an absolute store of the bin's result, all in one block. Rewrites the
/// head slot and returns the window width (1 when nothing fused).
fn fuse_at(pcode: &mut [POp], pc_block: &[u32], pc: usize) -> usize {
    let same_block = |k: usize| k < pcode.len() && pc_block[k] == pc_block[pc];
    if !same_block(pc + 1) || !same_block(pc + 2) {
        return 1;
    }
    let POp::LoadA {
        dst: ld,
        addr: laddr,
    } = pcode[pc]
    else {
        return 1;
    };
    let Some((op, other, ld_on_lhs, dst)) = rr_consumes(&pcode[pc + 1], ld) else {
        return 1;
    };
    match pcode[pc + 2] {
        POp::StoreAR { addr: saddr, value } if value == dst => {
            pcode[pc] = POp::RmwA {
                laddr,
                ld,
                op,
                other,
                ld_on_lhs,
                dst,
                saddr,
            };
            3
        }
        _ => 1,
    }
}

/// Computes [`LoopImage::restore_regs`]: registers some op reads before any definition in
/// its own block (conservatively treating every block entry as reachable from another
/// iteration) intersected with registers some op writes, plus the privatized induction
/// variables (their per-iteration recompute overwrites them anyway; listing them keeps the
/// reset story in one place for the exit path).
fn compute_restore_regs(
    code: &[Op],
    pc_block: &[u32],
    induction_vars: &[(u32, i64)],
    num_regs: usize,
) -> Vec<u32> {
    let mut written: BTreeSet<u32> = BTreeSet::new();
    let mut exposed: BTreeSet<u32> = BTreeSet::new();
    let mut block_defs: BTreeSet<u32> = BTreeSet::new();
    let mut current_block = u32::MAX;
    for (pc, op) in code.iter().enumerate() {
        if pc_block[pc] != current_block {
            current_block = pc_block[pc];
            block_defs.clear();
        }
        let mut track_use = |o: &Opnd| {
            if let Opnd::Reg(r) = o {
                if !block_defs.contains(r) {
                    exposed.insert(*r);
                }
            }
        };
        match op {
            Op::Mov { src, .. } | Op::Un { src, .. } => track_use(src),
            Op::Bin { lhs, rhs, .. } | Op::Cmp { lhs, rhs, .. } => {
                track_use(lhs);
                track_use(rhs);
            }
            Op::Select {
                cond,
                on_true,
                on_false,
                ..
            } => {
                track_use(cond);
                track_use(on_true);
                track_use(on_false);
            }
            Op::Load { addr, .. } => track_use(addr),
            Op::Store { addr, value, .. } => {
                track_use(addr);
                track_use(value);
            }
            Op::Alloc { words, .. } | Op::PrivateAlloc { words, .. } => track_use(words),
            Op::Call { args, .. } => {
                for a in args.iter() {
                    track_use(a);
                }
            }
            Op::Branch { cond, .. } => track_use(cond),
            Op::Ret { value } => {
                if let Some(v) = value {
                    track_use(v);
                }
            }
            Op::Wait { .. } | Op::Signal { .. } | Op::Jump { .. } | Op::Trap { .. } => {}
        }
        let dst = match op {
            Op::Mov { dst, .. }
            | Op::Un { dst, .. }
            | Op::Bin { dst, .. }
            | Op::Cmp { dst, .. }
            | Op::Select { dst, .. }
            | Op::Load { dst, .. }
            | Op::Alloc { dst, .. }
            | Op::PrivateAlloc { dst, .. } => Some(*dst),
            Op::Call { dst, .. } => *dst,
            _ => None,
        };
        if let Some(d) = dst {
            written.insert(d);
            block_defs.insert(d);
        }
    }
    let mut restore: Vec<u32> = exposed
        .intersection(&written)
        .copied()
        .chain(induction_vars.iter().map(|(r, _)| *r))
        .filter(|r| (*r as usize) < num_regs)
        .collect();
    restore.sort_unstable();
    restore.dedup();
    restore
}

fn cost_class_of_op(op: &Op) -> CostClass {
    match op {
        Op::Mov { .. } | Op::Un { .. } | Op::Cmp { .. } | Op::Select { .. } => CostClass::Alu,
        Op::Bin { op, .. } => match op {
            BinOp::Mul => CostClass::Mul,
            BinOp::Div | BinOp::Rem => CostClass::Div,
            _ => CostClass::Alu,
        },
        Op::Load { .. } => CostClass::Load,
        Op::Store { .. } => CostClass::Store,
        Op::Alloc { .. } | Op::PrivateAlloc { .. } => CostClass::Alloc,
        Op::Call { .. } => CostClass::Call,
        Op::Wait { .. } => CostClass::Wait,
        Op::Signal { .. } => CostClass::Signal,
        Op::Jump { .. } | Op::Branch { .. } | Op::Ret { .. } | Op::Trap { .. } => CostClass::Branch,
    }
}

/// A [`TransformedProgram`] lowered once for the parallel runtime: the whole-module bytecode
/// (Phase A/C and callees execute from it) plus the loop's iteration image.
#[derive(Clone, Debug)]
pub struct ParallelImage {
    /// The flat bytecode of the whole transformed module.
    pub exec: ExecImage,
    /// The lowered parallel loop.
    pub loop_image: LoopImage,
}

impl ParallelImage {
    /// Lowers `program` end-to-end. Callers executing the same program repeatedly should
    /// lower once and reuse the image across [`crate::ParallelExecutor::run_parallel`]
    /// calls — both parts are immutable and shared freely across worker threads.
    pub fn lower(program: &TransformedProgram) -> ParallelImage {
        let exec = ExecImage::lower(&program.module);
        let loop_image = LoopImage::build(&exec, program);
        ParallelImage { exec, loop_image }
    }
}

// ---------------------------------------------------------------------------
// The specialized iteration bytecode.
// ---------------------------------------------------------------------------

/// A direct call in specialized form (boxed: calls are rare in loop bodies, and the payload
/// would otherwise dominate the op size).
#[derive(Clone, Debug)]
pub(crate) struct CallData {
    pub dst: Option<u32>,
    pub func: u32,
    pub args: Box<[Opnd]>,
}

/// A select in specialized form (boxed for the same reason).
#[derive(Clone, Debug)]
pub(crate) struct SelectData {
    pub dst: u32,
    pub cond: Opnd,
    pub on_true: Opnd,
    pub on_false: Opnd,
}

/// One specialized iteration op: the [`Op`] stream re-encoded with operands pre-decoded
/// into register/immediate variants, constants folded, and global base addresses fused into
/// absolute load/store forms. Immediates are stored as ready-made [`Value`]s so the hot loop
/// never constructs one.
#[derive(Clone, Debug)]
pub(crate) enum POp {
    MovR {
        dst: u32,
        src: u32,
    },
    MovI {
        dst: u32,
        v: Value,
    },
    UnR {
        dst: u32,
        op: helix_ir::UnOp,
        src: u32,
    },
    BinRR {
        dst: u32,
        op: BinOp,
        lhs: u32,
        rhs: u32,
    },
    BinRI {
        dst: u32,
        op: BinOp,
        lhs: u32,
        rhs: Value,
    },
    BinIR {
        dst: u32,
        op: BinOp,
        lhs: Value,
        rhs: u32,
    },
    CmpRR {
        dst: u32,
        pred: helix_ir::Pred,
        lhs: u32,
        rhs: u32,
    },
    CmpRI {
        dst: u32,
        pred: helix_ir::Pred,
        lhs: u32,
        rhs: Value,
    },
    CmpIR {
        dst: u32,
        pred: helix_ir::Pred,
        lhs: Value,
        rhs: u32,
    },
    SelectB(Box<SelectData>),
    /// Load through a register-held base plus constant offset. `private_ok` marks the
    /// statically-proven privatized access sites — the only loads allowed to route into
    /// the per-worker arena; everywhere else a private-range address faults exactly as it
    /// does sequentially.
    LoadR {
        dst: u32,
        addr: u32,
        offset: i64,
        private_ok: bool,
    },
    /// Load from an absolute (global-folded) address — never private.
    LoadA {
        dst: u32,
        addr: i64,
    },
    StoreRR {
        addr: u32,
        offset: i64,
        value: u32,
        private_ok: bool,
    },
    StoreRI {
        addr: u32,
        offset: i64,
        value: Value,
        private_ok: bool,
    },
    StoreAR {
        addr: i64,
        value: u32,
    },
    StoreAI {
        addr: i64,
        value: Value,
    },
    AllocR {
        dst: u32,
        words: u32,
    },
    AllocI {
        dst: u32,
        words: i64,
    },
    PrivateAllocR {
        dst: u32,
        words: u32,
    },
    PrivateAllocI {
        dst: u32,
        words: i64,
    },
    CallB(Box<CallData>),
    Wait {
        lane: u32,
    },
    SignalLane {
        lane: u32,
    },
    SignalControl,
    /// Internal jump (sentinels are translated to [`POp::EndIter`]/[`POp::ExitJump`]).
    Jump {
        pc: u32,
    },
    EndIter,
    ExitJump {
        block: u32,
    },
    Branch {
        cond: u32,
        then_pc: u32,
        then_block: u32,
        else_pc: u32,
        else_block: u32,
    },
    RetR {
        src: u32,
    },
    RetI {
        v: Option<Value>,
    },
    Trap {
        block: u32,
    },
    // The one superinstruction (see `fuse_superinstructions`): only the head slot of a
    // fused window is rewritten; interior slots keep their original ops so jumps into the
    // middle still work, and straight-line execution dispatches once and skips the window.
    // Every intermediate destination is written, preserving the unfused ops' observable
    // register effects exactly.
    /// `ld = load laddr; dst = ld op other; store saddr <- dst` (width 3) — the
    /// read-modify-write at the heart of a typical synchronized segment.
    RmwA {
        laddr: i64,
        ld: u32,
        op: BinOp,
        other: u32,
        ld_on_lhs: bool,
        dst: u32,
        saddr: i64,
    },
}

impl POp {
    /// Width of the fused window this op heads: how many pc slots straight-line dispatch
    /// advances past it (1 for plain ops).
    pub(crate) fn fused_width(&self) -> usize {
        match self {
            POp::RmwA { .. } => 3,
            _ => 1,
        }
    }
}

fn opnd_value(o: Opnd) -> Option<Value> {
    match o {
        Opnd::Reg(_) => None,
        Opnd::Int(i) => Some(Value::Int(i)),
        Opnd::Float(f) => Some(Value::Float(f)),
    }
}

/// Specializes one rewritten iteration [`Op`] (see [`POp`]). Folding uses the engine's own
/// evaluation helpers, so a folded constant is bitwise what the generic engine would have
/// computed. `private_ok` is true for the statically-proven privatized access sites.
pub(crate) fn specialize_op(op: &Op, private_ok: bool) -> POp {
    match op {
        Op::Mov { dst, src } => match opnd_value(*src) {
            Some(v) => POp::MovI { dst: *dst, v },
            None => match src {
                Opnd::Reg(r) => POp::MovR { dst: *dst, src: *r },
                _ => unreachable!(),
            },
        },
        Op::Un { dst, op, src } => match (src, opnd_value(*src)) {
            (_, Some(v)) => POp::MovI {
                dst: *dst,
                v: eval_unop(*op, v),
            },
            (Opnd::Reg(r), None) => POp::UnR {
                dst: *dst,
                op: *op,
                src: *r,
            },
            _ => unreachable!(),
        },
        Op::Bin { dst, op, lhs, rhs } => match (lhs, rhs) {
            (Opnd::Reg(a), Opnd::Reg(b)) => POp::BinRR {
                dst: *dst,
                op: *op,
                lhs: *a,
                rhs: *b,
            },
            (Opnd::Reg(a), imm) => POp::BinRI {
                dst: *dst,
                op: *op,
                lhs: *a,
                rhs: opnd_value(*imm).expect("non-register operand"),
            },
            (imm, Opnd::Reg(b)) => POp::BinIR {
                dst: *dst,
                op: *op,
                lhs: opnd_value(*imm).expect("non-register operand"),
                rhs: *b,
            },
            (a, b) => POp::MovI {
                dst: *dst,
                v: eval_binop(
                    *op,
                    opnd_value(*a).expect("constant"),
                    opnd_value(*b).expect("constant"),
                ),
            },
        },
        Op::Cmp {
            dst,
            pred,
            lhs,
            rhs,
        } => match (lhs, rhs) {
            (Opnd::Reg(a), Opnd::Reg(b)) => POp::CmpRR {
                dst: *dst,
                pred: *pred,
                lhs: *a,
                rhs: *b,
            },
            (Opnd::Reg(a), imm) => POp::CmpRI {
                dst: *dst,
                pred: *pred,
                lhs: *a,
                rhs: opnd_value(*imm).expect("non-register operand"),
            },
            (imm, Opnd::Reg(b)) => POp::CmpIR {
                dst: *dst,
                pred: *pred,
                lhs: opnd_value(*imm).expect("non-register operand"),
                rhs: *b,
            },
            (a, b) => POp::MovI {
                dst: *dst,
                v: Value::from_bool(eval_pred(
                    *pred,
                    opnd_value(*a).expect("constant"),
                    opnd_value(*b).expect("constant"),
                )),
            },
        },
        Op::Select {
            dst,
            cond,
            on_true,
            on_false,
        } => POp::SelectB(Box::new(SelectData {
            dst: *dst,
            cond: *cond,
            on_true: *on_true,
            on_false: *on_false,
        })),
        Op::Load { dst, addr, offset } => match addr {
            Opnd::Reg(r) => POp::LoadR {
                dst: *dst,
                addr: *r,
                offset: *offset,
                private_ok,
            },
            imm => POp::LoadA {
                dst: *dst,
                addr: opnd_value(*imm)
                    .expect("non-register address")
                    .as_int()
                    .wrapping_add(*offset),
            },
        },
        Op::Store {
            addr,
            offset,
            value,
        } => match (addr, value) {
            (Opnd::Reg(a), Opnd::Reg(v)) => POp::StoreRR {
                addr: *a,
                offset: *offset,
                value: *v,
                private_ok,
            },
            (Opnd::Reg(a), imm) => POp::StoreRI {
                addr: *a,
                offset: *offset,
                value: opnd_value(*imm).expect("non-register value"),
                private_ok,
            },
            (imm, Opnd::Reg(v)) => POp::StoreAR {
                addr: opnd_value(*imm)
                    .expect("non-register address")
                    .as_int()
                    .wrapping_add(*offset),
                value: *v,
            },
            (a, v) => POp::StoreAI {
                addr: opnd_value(*a)
                    .expect("non-register address")
                    .as_int()
                    .wrapping_add(*offset),
                value: opnd_value(*v).expect("non-register value"),
            },
        },
        Op::Alloc { dst, words } => match words {
            Opnd::Reg(r) => POp::AllocR {
                dst: *dst,
                words: *r,
            },
            imm => POp::AllocI {
                dst: *dst,
                words: opnd_value(*imm).expect("non-register size").as_int(),
            },
        },
        Op::PrivateAlloc { dst, words } => match words {
            Opnd::Reg(r) => POp::PrivateAllocR {
                dst: *dst,
                words: *r,
            },
            imm => POp::PrivateAllocI {
                dst: *dst,
                words: opnd_value(*imm).expect("non-register size").as_int(),
            },
        },
        Op::Call { dst, func, args } => POp::CallB(Box::new(CallData {
            dst: *dst,
            func: *func,
            args: args.clone(),
        })),
        Op::Wait { dep } => POp::Wait { lane: *dep },
        Op::Signal { dep } => {
            if *dep == CONTROL_DEP {
                POp::SignalControl
            } else {
                POp::SignalLane { lane: *dep }
            }
        }
        Op::Jump { pc, block } => match *pc {
            PC_END_ITER => POp::EndIter,
            PC_EXIT => POp::ExitJump { block: *block },
            pc => POp::Jump { pc },
        },
        Op::Branch {
            cond,
            then_pc,
            then_block,
            else_pc,
            else_block,
        } => match cond {
            Opnd::Reg(r) => POp::Branch {
                cond: *r,
                then_pc: *then_pc,
                then_block: *then_block,
                else_pc: *else_pc,
                else_block: *else_block,
            },
            imm => {
                // Constant condition: the branch folds to its taken edge.
                let (pc, block) = if opnd_value(*imm).expect("constant").as_bool() {
                    (*then_pc, *then_block)
                } else {
                    (*else_pc, *else_block)
                };
                match pc {
                    PC_END_ITER => POp::EndIter,
                    PC_EXIT => POp::ExitJump { block },
                    pc => POp::Jump { pc },
                }
            }
        },
        Op::Ret { value } => match value {
            Some(Opnd::Reg(r)) => POp::RetR { src: *r },
            Some(imm) => POp::RetI {
                v: Some(opnd_value(*imm).expect("constant")),
            },
            None => POp::RetI { v: None },
        },
        Op::Trap { block } => POp::Trap { block: *block },
    }
}

// ---------------------------------------------------------------------------
// The lean engine.
// ---------------------------------------------------------------------------

/// Evaluates a pre-resolved operand. Reads are unchecked like the instrumented engine's:
/// lowering widens the register file to cover every referenced index, and every caller sizes
/// `regs` to the function's `num_regs`.
#[inline(always)]
pub(crate) fn eval(regs: &[Value], o: Opnd) -> Value {
    match o {
        Opnd::Reg(r) => {
            debug_assert!((r as usize) < regs.len());
            // SAFETY: `r` is an operand of lowered code, and lowering widened the
            // function's `num_regs` past every register index its code references; every
            // caller passes a register file of at least `num_regs` entries.
            unsafe { *regs.get_unchecked(r as usize) }
        }
        Opnd::Int(i) => Value::Int(i),
        Opnd::Float(f) => Value::Float(f),
    }
}

/// One suspended guest frame of [`run_flat`]'s explicit call stack.
struct LeanFrame {
    func: usize,
    pc: usize,
    regs: Vec<Value>,
    dst: Option<u32>,
}

/// How a [`run_flat`] execution ended.
pub(crate) enum FlatEnd {
    /// Control reached `stop_block` at the top level (Phase A arriving at the loop header).
    ReachedStop,
    /// The function returned.
    Returned(Option<Value>),
}

/// Errors of the lean engine's sequential paths.
pub(crate) enum FlatError {
    Exec(ExecError),
    /// The top-level block-transition budget ran out (a runaway loop outside the
    /// parallelized one).
    BudgetExceeded,
}

impl From<ExecError> for FlatError {
    fn from(e: ExecError) -> Self {
        FlatError::Exec(e)
    }
}

/// Runs whole-function bytecode leanly: Phase A (with `stop_block` = the loop header),
/// Phase C and callee invocations all go through here. `Wait`/`Signal` are no-ops (outside
/// iteration code they are either Phase-bound sync the sequential engine also ignores, or
/// generator noise), matching the sequential engine's treatment.
///
/// `budget` bounds top-level block transitions (the caller's runaway-loop guard); callee
/// blocks are unmetered, like the instrumented executor's phase stepping.
pub(crate) fn run_flat(
    image: &ExecImage,
    func: FuncId,
    start_block: u32,
    stop_block: Option<u32>,
    regs: &mut Vec<Value>,
    mem: &mut WorkerMemory<'_>,
    budget: u64,
) -> Result<FlatEnd, FlatError> {
    let mut f = &image.funcs[func.index()];
    if regs.len() < f.num_regs {
        regs.resize(f.num_regs, Value::default());
    }
    if stop_block == Some(start_block) {
        return Ok(FlatEnd::ReachedStop);
    }
    let mut func_ix = func.index();
    let mut frames: Vec<LeanFrame> = Vec::new();
    let mut pc = f.block_start(start_block) as usize;
    let mut top_blocks = 0u64;
    let mut local_regs = std::mem::take(regs);
    let result = 'run: loop {
        let op = &f.code[pc];
        match op {
            Op::Mov { dst, src } => {
                local_regs[*dst as usize] = eval(&local_regs, *src);
                pc += 1;
            }
            Op::Un { dst, op, src } => {
                local_regs[*dst as usize] = eval_unop(*op, eval(&local_regs, *src));
                pc += 1;
            }
            Op::Bin { dst, op, lhs, rhs } => {
                local_regs[*dst as usize] =
                    eval_binop(*op, eval(&local_regs, *lhs), eval(&local_regs, *rhs));
                pc += 1;
            }
            Op::Cmp {
                dst,
                pred,
                lhs,
                rhs,
            } => {
                local_regs[*dst as usize] = Value::from_bool(eval_pred(
                    *pred,
                    eval(&local_regs, *lhs),
                    eval(&local_regs, *rhs),
                ));
                pc += 1;
            }
            Op::Select {
                dst,
                cond,
                on_true,
                on_false,
            } => {
                let v = if eval(&local_regs, *cond).as_bool() {
                    eval(&local_regs, *on_true)
                } else {
                    eval(&local_regs, *on_false)
                };
                local_regs[*dst as usize] = v;
                pc += 1;
            }
            Op::Load { dst, addr, offset } => {
                let base = eval(&local_regs, *addr).as_int();
                match mem.load(base + offset) {
                    Ok(v) => local_regs[*dst as usize] = v,
                    Err(e) => break 'run Err(FlatError::Exec(e.into())),
                }
                pc += 1;
            }
            Op::Store {
                addr,
                offset,
                value,
            } => {
                let base = eval(&local_regs, *addr).as_int();
                let v = eval(&local_regs, *value);
                if let Err(e) = mem.store(base + offset, v) {
                    break 'run Err(FlatError::Exec(e.into()));
                }
                pc += 1;
            }
            Op::Alloc { dst, words } => {
                let n = eval(&local_regs, *words).as_int().max(0) as usize;
                match mem.alloc(n) {
                    Ok(base) => local_regs[*dst as usize] = Value::Int(base),
                    Err(e) => break 'run Err(FlatError::Exec(e.into())),
                }
                pc += 1;
            }
            Op::PrivateAlloc { dst, words } => {
                let n = eval(&local_regs, *words).as_int().max(0) as usize;
                match mem.alloc_private(n) {
                    Ok(base) => local_regs[*dst as usize] = Value::Int(base),
                    Err(e) => break 'run Err(FlatError::Exec(e.into())),
                }
                pc += 1;
            }
            Op::Wait { .. } | Op::Signal { .. } => pc += 1,
            Op::Call {
                dst,
                func: callee,
                args,
            } => {
                if frames.len() + 1 > MAX_CALL_DEPTH {
                    break 'run Err(FlatError::Exec(ExecError::StackOverflow));
                }
                let callee_ix = *callee as usize;
                let cf = &image.funcs[callee_ix];
                let mut callee_regs = vec![Value::default(); cf.num_regs.max(args.len())];
                for (slot, a) in callee_regs.iter_mut().zip(args.iter()).take(cf.num_params) {
                    *slot = eval(&local_regs, *a);
                }
                frames.push(LeanFrame {
                    func: func_ix,
                    pc,
                    regs: std::mem::replace(&mut local_regs, callee_regs),
                    dst: *dst,
                });
                func_ix = callee_ix;
                f = &image.funcs[func_ix];
                pc = f.entry_pc() as usize;
            }
            Op::Jump { pc: target, block } => {
                if frames.is_empty() {
                    if stop_block == Some(*block) {
                        break 'run Ok(FlatEnd::ReachedStop);
                    }
                    top_blocks += 1;
                    if top_blocks > budget {
                        break 'run Err(FlatError::BudgetExceeded);
                    }
                }
                pc = *target as usize;
            }
            Op::Branch {
                cond,
                then_pc,
                then_block,
                else_pc,
                else_block,
            } => {
                let (target, block) = if eval(&local_regs, *cond).as_bool() {
                    (*then_pc, *then_block)
                } else {
                    (*else_pc, *else_block)
                };
                if frames.is_empty() {
                    if stop_block == Some(block) {
                        break 'run Ok(FlatEnd::ReachedStop);
                    }
                    top_blocks += 1;
                    if top_blocks > budget {
                        break 'run Err(FlatError::BudgetExceeded);
                    }
                }
                pc = target as usize;
            }
            Op::Ret { value } => {
                let v = value.map(|v| eval(&local_regs, v));
                match frames.pop() {
                    None => break 'run Ok(FlatEnd::Returned(v)),
                    Some(frame) => {
                        func_ix = frame.func;
                        f = &image.funcs[func_ix];
                        local_regs = frame.regs;
                        pc = frame.pc;
                        if let Some(d) = frame.dst {
                            local_regs[d as usize] = v.unwrap_or_default();
                        }
                        pc += 1;
                    }
                }
            }
            Op::Trap { block } => {
                break 'run Err(FlatError::Exec(ExecError::MissingTerminator(BlockId::new(
                    *block,
                ))));
            }
        }
    };
    // Hand the (possibly callee-stale) top-level register file back to the caller: unwind to
    // the bottom frame if the run ended inside a callee.
    if let Some(bottom) = frames.into_iter().next() {
        local_regs = bottom.regs;
    }
    *regs = local_regs;
    result
}

/// How one iteration ended.
pub(crate) enum IterEnd {
    /// The back edge was taken: the iteration completed and the loop continues.
    Completed,
    /// An exit edge was taken towards `block` (dense index in the clone function).
    Exit {
        /// Phase C resume block.
        block: u32,
    },
    /// A `ret` inside the loop ended the whole function.
    Returned(Option<Value>),
    /// An earlier iteration exited while this one was blocked: its work is moot.
    Cancelled,
}

/// Errors of the iteration runner.
pub(crate) enum IterError {
    Exec(ExecError),
    /// A `Wait` outlived the spin budget.
    Deadlock {
        /// The lane being waited on.
        lane: u32,
        /// pc of the blocked `Wait` in [`LoopImage::code`].
        pc: u32,
        /// Last counter value observed.
        observed: u64,
    },
}

impl From<ExecError> for IterError {
    fn from(e: ExecError) -> Self {
        IterError::Exec(e)
    }
}

impl From<MemoryError> for IterError {
    fn from(e: MemoryError) -> Self {
        IterError::Exec(e.into())
    }
}

/// Shared synchronization handles the iteration runner needs.
pub(crate) struct IterSync<'a> {
    pub lanes: &'a SignalLanes,
    pub sleepers: &'a Sleepers,
    /// Lowest iteration that took a loop exit (`u64::MAX` while the loop runs).
    pub exited_at: &'a AtomicU64,
    /// Spin rounds a blocked `Wait` may burn before it is declared deadlocked.
    pub spin_budget: u64,
    /// This worker's telemetry handle, `None` when telemetry is disabled.
    pub telem: Option<crate::telemetry::WorkerCtx<'a>>,
}

impl<'a> IterSync<'a> {
    pub(crate) fn new(
        lanes: &'a SignalLanes,
        sleepers: &'a Sleepers,
        exited_at: &'a AtomicU64,
        spin_budget: u64,
        telem: Option<crate::telemetry::WorkerCtx<'a>>,
    ) -> Self {
        IterSync {
            lanes,
            sleepers,
            exited_at,
            spin_budget,
            telem,
        }
    }
}

/// How a blocking lane wait ended (the traced slow path of [`POp::Wait`]).
pub(crate) enum WaitOutcome {
    /// The awaited signal arrived.
    Passed,
    /// An earlier iteration exited the loop; this iteration's work is moot.
    Cancelled,
    /// The spin budget ran out; `observed` is the last counter value seen.
    Deadlocked { observed: u64 },
}

/// The blocking branch of a lane `Wait`: adaptive backoff until the signal arrives, the
/// loop exits underneath the waiter, or the deadlock budget runs out. Out of line from the
/// dispatch loop (the fast path is a single satisfied poll); `telem` is this worker's
/// recording handle and is statically `None` when the `telemetry` feature is off.
pub(crate) fn wait_blocking(
    sync: &IterSync<'_>,
    telem: Option<crate::telemetry::WorkerCtx<'_>>,
    lane_ix: usize,
    iteration: u64,
    pc: u32,
) -> WaitOutcome {
    let begin_ns = telem.map(|t| t.on_wait_begin(iteration, pc));
    let mut backoff = AdaptiveWait::new(sync.sleepers);
    let mut polls = 0u64;
    let mut parked = false;
    let end = |outcome: WaitOutcome, backoff: &AdaptiveWait<'_>| {
        if let (Some(t), Some(begin)) = (telem, begin_ns) {
            let observed = sync.lanes.observed(lane_ix, iteration);
            t.on_wait_end(iteration, pc, begin, observed, backoff.stats());
        }
        outcome
    };
    loop {
        if sync.lanes.poll(lane_ix, iteration) {
            return end(WaitOutcome::Passed, &backoff);
        }
        let charged = backoff.wait();
        if telem.is_some() && !parked && backoff.stats().parks > 0 {
            parked = true;
            if let Some(t) = telem {
                t.on_park(iteration, pc);
            }
        }
        polls += 1;
        if polls & 0x3F == 0 && sync.exited_at.load(Ordering::Acquire) < iteration {
            return end(WaitOutcome::Cancelled, &backoff);
        }
        if charged > sync.spin_budget {
            let observed = sync.lanes.observed(lane_ix, iteration);
            return end(WaitOutcome::Deadlocked { observed }, &backoff);
        }
    }
}

/// Executes one iteration of the lowered loop. `regs` must already hold the loop-entry
/// snapshot with induction variables privatized for `iteration`; `on_control` is invoked
/// when the iteration's prologue completes (at most once per iteration from inside the code;
/// the caller must also release control when the iteration completes without entering the
/// body).
pub(crate) fn run_iteration(
    image: &ExecImage,
    loop_image: &LoopImage,
    iteration: u64,
    regs: &mut [Value],
    mem: &mut WorkerMemory<'_>,
    sync: &IterSync<'_>,
    on_control: &mut dyn FnMut(),
) -> Result<IterEnd, IterError> {
    let code = &loop_image.pcode[..];
    let mut pc = loop_image.entry_pc as usize;
    let telem = sync.telem;
    // Reads are unchecked (see `eval`); writes go through `set`, also unchecked: every dst
    // register index was widened into the function's register file at lowering time.
    #[inline(always)]
    fn get(regs: &[Value], r: u32) -> Value {
        debug_assert!((r as usize) < regs.len());
        // SAFETY: as in `eval`: `r` is a register of the loop's lowered code and `regs` is
        // the loop function's widened register file.
        unsafe { *regs.get_unchecked(r as usize) }
    }
    #[inline(always)]
    fn set(regs: &mut [Value], r: u32, v: Value) {
        debug_assert!((r as usize) < regs.len());
        // SAFETY: as in `get`; destination registers were widened into the file too.
        unsafe {
            *regs.get_unchecked_mut(r as usize) = v;
        }
    }
    loop {
        match &code[pc] {
            POp::MovR { dst, src } => {
                set(regs, *dst, get(regs, *src));
                pc += 1;
            }
            POp::MovI { dst, v } => {
                set(regs, *dst, *v);
                pc += 1;
            }
            POp::UnR { dst, op, src } => {
                set(regs, *dst, eval_unop(*op, get(regs, *src)));
                pc += 1;
            }
            POp::BinRR { dst, op, lhs, rhs } => {
                set(
                    regs,
                    *dst,
                    eval_binop(*op, get(regs, *lhs), get(regs, *rhs)),
                );
                pc += 1;
            }
            POp::BinRI { dst, op, lhs, rhs } => {
                set(regs, *dst, eval_binop(*op, get(regs, *lhs), *rhs));
                pc += 1;
            }
            POp::BinIR { dst, op, lhs, rhs } => {
                set(regs, *dst, eval_binop(*op, *lhs, get(regs, *rhs)));
                pc += 1;
            }
            POp::CmpRR {
                dst,
                pred,
                lhs,
                rhs,
            } => {
                set(
                    regs,
                    *dst,
                    Value::from_bool(eval_pred(*pred, get(regs, *lhs), get(regs, *rhs))),
                );
                pc += 1;
            }
            POp::CmpRI {
                dst,
                pred,
                lhs,
                rhs,
            } => {
                set(
                    regs,
                    *dst,
                    Value::from_bool(eval_pred(*pred, get(regs, *lhs), *rhs)),
                );
                pc += 1;
            }
            POp::CmpIR {
                dst,
                pred,
                lhs,
                rhs,
            } => {
                set(
                    regs,
                    *dst,
                    Value::from_bool(eval_pred(*pred, *lhs, get(regs, *rhs))),
                );
                pc += 1;
            }
            POp::SelectB(data) => {
                let v = if eval(regs, data.cond).as_bool() {
                    eval(regs, data.on_true)
                } else {
                    eval(regs, data.on_false)
                };
                set(regs, data.dst, v);
                pc += 1;
            }
            POp::LoadR {
                dst,
                addr,
                offset,
                private_ok,
            } => {
                let base = get(regs, *addr).as_int();
                let a = base + offset;
                let v = if *private_ok {
                    mem.load_private(a)?
                } else {
                    mem.load(a)?
                };
                set(regs, *dst, v);
                pc += 1;
            }
            POp::LoadA { dst, addr } => {
                set(regs, *dst, mem.load(*addr)?);
                pc += 1;
            }
            POp::StoreRR {
                addr,
                offset,
                value,
                private_ok,
            } => {
                let base = get(regs, *addr).as_int();
                let a = base + offset;
                let v = get(regs, *value);
                if *private_ok {
                    mem.store_private(a, v)?;
                } else {
                    mem.store(a, v)?;
                }
                pc += 1;
            }
            POp::StoreRI {
                addr,
                offset,
                value,
                private_ok,
            } => {
                let base = get(regs, *addr).as_int();
                let a = base + offset;
                if *private_ok {
                    mem.store_private(a, *value)?;
                } else {
                    mem.store(a, *value)?;
                }
                pc += 1;
            }
            POp::StoreAR { addr, value } => {
                mem.store(*addr, get(regs, *value))?;
                pc += 1;
            }
            POp::StoreAI { addr, value } => {
                mem.store(*addr, *value)?;
                pc += 1;
            }
            POp::AllocR { dst, words } => {
                let n = get(regs, *words).as_int().max(0) as usize;
                set(regs, *dst, Value::Int(mem.alloc(n)?));
                pc += 1;
            }
            POp::AllocI { dst, words } => {
                let n = (*words).max(0) as usize;
                set(regs, *dst, Value::Int(mem.alloc(n)?));
                pc += 1;
            }
            POp::PrivateAllocR { dst, words } => {
                let n = get(regs, *words).as_int().max(0) as usize;
                set(regs, *dst, Value::Int(mem.alloc_private(n)?));
                pc += 1;
            }
            POp::PrivateAllocI { dst, words } => {
                let n = (*words).max(0) as usize;
                set(regs, *dst, Value::Int(mem.alloc_private(n)?));
                pc += 1;
            }
            POp::Wait { lane } => {
                let lane_ix = *lane as usize;
                if !sync.lanes.poll(lane_ix, iteration) {
                    match wait_blocking(sync, telem, lane_ix, iteration, pc as u32) {
                        WaitOutcome::Passed => {}
                        WaitOutcome::Cancelled => return Ok(IterEnd::Cancelled),
                        WaitOutcome::Deadlocked { observed } => {
                            return Err(IterError::Deadlock {
                                lane: *lane,
                                pc: pc as u32,
                                observed,
                            });
                        }
                    }
                } else if let Some(t) = telem {
                    t.on_wait_fast(iteration, pc as u32);
                }
                pc += 1;
            }
            POp::SignalLane { lane } => {
                sync.lanes.signal(*lane as usize, iteration);
                sync.sleepers.wake_all();
                if let Some(t) = telem {
                    t.on_signal(iteration, pc as u32);
                }
                pc += 1;
            }
            POp::SignalControl => {
                on_control();
                pc += 1;
            }
            POp::CallB(call) => {
                let actuals: Vec<Value> = call.args.iter().map(|a| eval(regs, *a)).collect();
                let mut callee_regs: Vec<Value> = Vec::new();
                prepare_callee_regs(image, call.func, &actuals, &mut callee_regs);
                let end = run_flat(
                    image,
                    FuncId::new(call.func),
                    image.funcs[call.func as usize].entry_block,
                    None,
                    &mut callee_regs,
                    mem,
                    u64::MAX,
                )
                .map_err(|e| match e {
                    FlatError::Exec(e) => IterError::Exec(e),
                    FlatError::BudgetExceeded => unreachable!("callees are unmetered"),
                })?;
                let v = match end {
                    FlatEnd::Returned(v) => v,
                    FlatEnd::ReachedStop => unreachable!("no stop block in callee runs"),
                };
                if let Some(d) = call.dst {
                    set(regs, d, v.unwrap_or_default());
                }
                pc += 1;
            }
            POp::Jump { pc: target } => pc = *target as usize,
            POp::EndIter => return Ok(IterEnd::Completed),
            POp::ExitJump { block } => return Ok(IterEnd::Exit { block: *block }),
            POp::Branch {
                cond,
                then_pc,
                then_block,
                else_pc,
                else_block,
            } => {
                let (target, block) = if get(regs, *cond).as_bool() {
                    (*then_pc, *then_block)
                } else {
                    (*else_pc, *else_block)
                };
                match target {
                    PC_END_ITER => return Ok(IterEnd::Completed),
                    PC_EXIT => return Ok(IterEnd::Exit { block }),
                    t => pc = t as usize,
                }
            }
            POp::RetR { src } => return Ok(IterEnd::Returned(Some(get(regs, *src)))),
            POp::RetI { v } => return Ok(IterEnd::Returned(*v)),
            POp::Trap { block } => {
                return Err(IterError::Exec(ExecError::MissingTerminator(BlockId::new(
                    *block,
                ))));
            }
            POp::RmwA {
                laddr,
                ld,
                op,
                other,
                ld_on_lhs,
                dst,
                saddr,
            } => {
                let l = mem.load(*laddr)?;
                set(regs, *ld, l);
                let o = get(regs, *other);
                let v = if *ld_on_lhs {
                    eval_binop(*op, l, o)
                } else {
                    eval_binop(*op, o, l)
                };
                set(regs, *dst, v);
                mem.store(*saddr, v)?;
                pc += 3;
            }
        }
    }
}

/// Sizes and seeds a callee register file inside `storage` for [`run_flat`].
pub(crate) fn prepare_callee_regs(
    image: &ExecImage,
    callee: u32,
    args: &[Value],
    storage: &mut Vec<Value>,
) {
    let cf = &image.funcs[callee as usize];
    storage.resize(cf.num_regs.max(args.len()), Value::default());
    for (slot, a) in storage.iter_mut().zip(args.iter()).take(cf.num_params) {
        *slot = *a;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParallelExecutor;
    use helix_analysis::LoopNestingGraph;
    use helix_core::{transform, Helix, HelixConfig};
    use helix_ir::builder::{FunctionBuilder, ModuleBuilder};
    use helix_ir::{Machine, Module, Operand};
    use helix_profiler::profile_program_image;

    /// Analyzes `module`, transforms the hottest main-level plan and lowers it twice:
    /// fused and unfused.
    fn lower_both(
        module: &Module,
        main: FuncId,
    ) -> Option<(TransformedProgram, LoopImage, LoopImage)> {
        let nesting = LoopNestingGraph::new(module);
        let profile = profile_program_image(module, &nesting, main, &[]).ok()?;
        let output = Helix::new(HelixConfig::i7_980x()).analyze(module, &profile);
        let plan = output
            .plans
            .values()
            .filter(|p| p.func == main)
            .max_by_key(|p| profile.loop_profile((p.func, p.loop_id)).cycles)?
            .clone();
        let transformed = transform::apply(module, &plan);
        let exec = ExecImage::lower(&transformed.module);
        let fused = LoopImage::build_with_fusion(&exec, &transformed, true);
        let plain = LoopImage::build_with_fusion(&exec, &transformed, false);
        Some((transformed, fused, plain))
    }

    /// An accumulator kernel with a long ALU chain (which must stay unfused) and a
    /// load-add-store global accumulation (RMW bait).
    fn chain_accumulator() -> (Module, FuncId) {
        let mut mb = ModuleBuilder::new("chain_acc");
        let acc = mb.add_global("acc", 1);
        let mut fb = FunctionBuilder::new("main", 0);
        let lh = fb.counted_loop(Operand::int(0), Operand::int(64), 1);
        let mut v = fb.binary_to_new(
            helix_ir::BinOp::Mul,
            Operand::Var(lh.induction_var),
            Operand::int(2654435761),
        );
        for round in 0..6 {
            v = fb.binary_to_new(
                helix_ir::BinOp::Xor,
                Operand::Var(v),
                Operand::int(17 + round),
            );
        }
        let cur = fb.new_var();
        fb.load(cur, Operand::Global(acc), 0);
        let next = fb.binary_to_new(helix_ir::BinOp::Add, Operand::Var(cur), Operand::Var(v));
        fb.store(Operand::Global(acc), 0, Operand::Var(next));
        fb.br(lh.latch);
        fb.switch_to(lh.exit);
        let out = fb.new_var();
        fb.load(out, Operand::Global(acc), 0);
        fb.ret(Some(Operand::Var(out)));
        mb.add_function(fb.finish());
        let module = mb.finish();
        let main = module.function_by_name("main").unwrap();
        (module, main)
    }

    #[test]
    fn fusion_produces_rmw_and_leaves_alu_runs_unfused() {
        let (module, main) = chain_accumulator();
        let (_t, fused, plain) = lower_both(&module, main).expect("plan exists");
        assert!(
            fused.pcode.iter().any(|p| matches!(p, POp::RmwA { .. })),
            "the load-add-store accumulation must fuse into an RMW"
        );
        // The RMW is the only fused window; the 7-op ALU chain dispatches op by op.
        for p in &fused.pcode {
            assert!(
                p.fused_width() == 1 || matches!(p, POp::RmwA { .. }),
                "only the RMW may fuse: {p:?}"
            );
        }
        let unfused_alu = fused
            .pcode
            .iter()
            .filter(|p| matches!(p, POp::BinRI { .. }))
            .count();
        assert!(unfused_alu >= 7, "only {unfused_alu} immediate binops left");
        // The counted loop's latch compare stays a JIT-compilable op of its own, ahead of
        // a plain branch.
        let latches = latch_compares(&plain.pcode);
        assert!(
            !latches.is_empty(),
            "the counted loop has a compare+branch latch"
        );
        for pc in latches {
            assert!(matches!(
                fused.pcode[pc],
                POp::CmpRI { .. } | POp::CmpRR { .. }
            ));
            assert!(matches!(fused.pcode[pc + 1], POp::Branch { .. }));
        }
        assert!(plain.pcode.iter().all(|p| p.fused_width() == 1));
    }

    /// Pcs of the `cmp; branch on it` pairs in an unfused stream.
    fn latch_compares(pcode: &[POp]) -> Vec<usize> {
        (0..pcode.len().saturating_sub(1))
            .filter(|&pc| match (&pcode[pc], &pcode[pc + 1]) {
                (POp::CmpRI { dst, .. } | POp::CmpRR { dst, .. }, POp::Branch { cond, .. }) => {
                    cond == dst
                }
                _ => false,
            })
            .collect()
    }

    /// Pcs of the absolute loads an unfused stream feeds straight into a binary op whose
    /// result is not then stored to an absolute address (so no RMW).
    fn loads_into_a_bin_without_store(pcode: &[POp]) -> Vec<usize> {
        (0..pcode.len().saturating_sub(1))
            .filter(|&pc| {
                let POp::LoadA { dst: ld, .. } = pcode[pc] else {
                    return false;
                };
                let Some((_, _, _, dst)) = rr_consumes(&pcode[pc + 1], ld) else {
                    return false;
                };
                !matches!(pcode.get(pc + 2), Some(POp::StoreAR { value, .. }) if *value == dst)
            })
            .collect()
    }

    /// Over every candidate plan of the 25 fixed programs (corpus and SPEC stand-ins), the
    /// RMW is the only fused head: every other slot holds the op the unfused stream holds
    /// there, a latch's compare and branch stay two one-slot ops, and so do an absolute load
    /// and the binary op it feeds when no store follows.
    #[test]
    fn only_the_rmw_fuses_on_any_fixed_program_plan() {
        let mut programs = helix_workloads::corpus::load_all().expect("corpus");
        for bench in helix_workloads::all_benchmarks() {
            let (module, main) = bench.build();
            programs.push((bench.name.to_string(), module, main));
        }
        let helix = Helix::new(HelixConfig::i7_980x());
        let (mut plans, mut rmws, mut latches, mut load_bins) = (0, 0, 0, 0);
        for (name, module, main) in &programs {
            let (_, output) = helix
                .profile_and_analyze(module, *main, &[], helix_ir::interp::DEFAULT_FUEL)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            for plan in output.plans.values() {
                let transformed = transform::apply(module, plan);
                let exec = ExecImage::lower(&transformed.module);
                let fused = LoopImage::build_with_fusion(&exec, &transformed, true);
                let plain = LoopImage::build_with_fusion(&exec, &transformed, false);
                plans += 1;
                for (pc, (f, p)) in fused.pcode.iter().zip(&plain.pcode).enumerate() {
                    if matches!(f, POp::RmwA { .. }) {
                        rmws += 1;
                    } else {
                        assert_eq!(
                            std::mem::discriminant(f),
                            std::mem::discriminant(p),
                            "{name}: pc {pc} fused {f:?}, unfused {p:?}"
                        );
                    }
                }
                for pc in latch_compares(&plain.pcode) {
                    latches += 1;
                    assert_eq!(fused.pcode[pc].fused_width(), 1, "{name}: latch at {pc}");
                }
                for pc in loads_into_a_bin_without_store(&plain.pcode) {
                    load_bins += 1;
                    assert!(
                        matches!(fused.pcode[pc], POp::LoadA { .. }),
                        "{name}: load at {pc} fused into {:?}",
                        fused.pcode[pc]
                    );
                }
            }
        }
        assert!(plans >= 100, "only {plans} plans lowered");
        assert!(
            rmws > 0 && latches > 0 && load_bins > 0,
            "rmw {rmws}, latches {latches}, load+bin {load_bins} over {plans} plans"
        );
    }

    #[test]
    fn fusion_never_crosses_block_or_segment_boundaries() {
        for (name, module, main) in helix_workloads::corpus::load_all().expect("corpus") {
            let Some((_t, fused, _plain)) = lower_both(&module, main) else {
                continue;
            };
            for pc in 0..fused.pcode.len() {
                let width = fused.pcode[pc].fused_width();
                if width <= 1 {
                    continue;
                }
                let end = pc + width;
                assert!(end <= fused.pcode.len(), "{name}: window at {pc} overruns");
                // Never across a block boundary.
                for k in pc..end {
                    assert_eq!(
                        fused.pc_block[k], fused.pc_block[pc],
                        "{name}: fused window {pc}..{end} crosses a block boundary"
                    );
                }
                // Never across a segment's [first, last] sync boundary: a window either
                // lies entirely inside the open span or entirely outside it, and no window
                // contains a sync op at all.
                for lane in &fused.lanes {
                    let (first, last) = (lane.first_pc as usize, lane.last_pc as usize);
                    for &boundary in &[first, last] {
                        assert!(
                            !(pc < boundary && boundary < end),
                            "{name}: window {pc}..{end} straddles sync pc {boundary}"
                        );
                    }
                }
                for k in pc..end {
                    assert!(
                        !matches!(fused.code[k], Op::Wait { .. } | Op::Signal { .. }),
                        "{name}: window {pc}..{end} swallowed a sync op"
                    );
                }
            }
        }
    }

    #[test]
    fn fusion_preserves_restore_regs_and_side_tables() {
        for (_name, module, main) in helix_workloads::corpus::load_all().expect("corpus") {
            let Some((_t, fused, plain)) = lower_both(&module, main) else {
                continue;
            };
            assert_eq!(fused.restore_regs, plain.restore_regs);
            assert_eq!(fused.code.len(), plain.code.len());
            assert_eq!(fused.lanes.len(), plain.lanes.len());
            assert_eq!(fused.entry_pc, plain.entry_pc);
        }
    }

    #[test]
    fn fused_and_unfused_images_execute_bitwise_identically() {
        for (name, module, main) in helix_workloads::corpus::load_all().expect("corpus") {
            let Some((transformed, fused, plain)) = lower_both(&module, main) else {
                continue;
            };
            let mut machine = Machine::new(&transformed.module);
            let expected = machine.call(transformed.parallel_func, &[]).unwrap();
            let exec = ExecImage::lower(&transformed.module);
            for threads in [1, 2, 4] {
                let mut executor = ParallelExecutor::new(threads);
                executor.hardware = threads;
                let got_fused = executor
                    .run_lowered(&exec, &fused, &[])
                    .unwrap_or_else(|e| panic!("{name} fused {threads}t: {e}"));
                let got_plain = executor
                    .run_lowered(&exec, &plain, &[])
                    .unwrap_or_else(|e| panic!("{name} plain {threads}t: {e}"));
                assert_eq!(got_fused, expected, "{name} fused diverged at {threads}t");
                assert_eq!(got_plain, expected, "{name} plain diverged at {threads}t");
            }
        }
    }

    #[test]
    fn fused_segment_costs_are_no_larger() {
        let cost = CostModel::default();
        for (_name, module, main) in helix_workloads::corpus::load_all().expect("corpus") {
            let Some((_t, fused, plain)) = lower_both(&module, main) else {
                continue;
            };
            let fused_costs: BTreeMap<DepId, u64> =
                fused.segment_span_cycles(&cost).into_iter().collect();
            for (dep, plain_cycles) in plain.segment_span_cycles(&cost) {
                let f = fused_costs[&dep];
                assert!(
                    f <= plain_cycles,
                    "fusion must not raise a segment's measured cost ({f} > {plain_cycles})"
                );
            }
        }
    }
}
