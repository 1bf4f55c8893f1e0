//! Per-loop data dependence graph (DDG) with loop-carried classification.
//!
//! HELIX Step 2 needs, for a candidate loop, the set of *loop-carried* data dependences that
//! must be synchronized. This module builds all data dependences between instructions of a
//! loop — through registers (def/use) and through memory (may-alias pairs of loads, stores and
//! calls) — and classifies each as intra-iteration, loop-carried, or both.
//!
//! Classification rules:
//!
//! * A register dependence `def d → use u` is **intra-iteration** if `u` is reachable from `d`
//!   without traversing the loop's back edge, and **loop-carried** if `d`'s value survives to a
//!   latch and can flow through the header to `u` in a later iteration.
//! * A memory dependence between aliasing accesses `a` and `b` (at least one a write) is
//!   **loop-carried** unless every object it can touch is allocated inside the loop itself
//!   (iteration-private storage), and **intra-iteration** if `b` is reachable from `a` without
//!   the back edge.

use crate::cfg::Cfg;
use crate::loops::{LoopForest, LoopId};
use crate::pointer::{AbstractObject, ObjectSet, PointerAnalysis};
use crate::reaching::ReachingDefs;
use helix_ir::{BlockId, FuncId, Function, Instr, InstrRef, Module, Operand, VarId};

/// The kind of a data dependence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Read-after-write (true dependence).
    Raw,
    /// Write-after-read (anti dependence).
    War,
    /// Write-after-write (output dependence).
    Waw,
}

/// One data dependence between two instructions of a loop.
#[derive(Clone, Debug, PartialEq)]
pub struct DataDependence {
    /// The source instruction (the earlier access in program order of an iteration).
    pub src: InstrRef,
    /// The sink instruction.
    pub dst: InstrRef,
    /// Dependence kind.
    pub kind: DepKind,
    /// `true` if the dependence may cross iterations.
    pub loop_carried: bool,
    /// `true` if the dependence may hold within a single iteration.
    pub intra_iteration: bool,
    /// `true` for memory dependences, `false` for register dependences.
    pub via_memory: bool,
    /// The register carrying the dependence, for register dependences.
    pub var: Option<VarId>,
}

/// The data dependence graph of one loop.
#[derive(Clone, Debug, Default)]
pub struct LoopDdg {
    /// All dependences found.
    pub deps: Vec<DataDependence>,
}

/// What a memory-touching instruction may read and write.
#[derive(Clone, Debug)]
struct AccessSummary {
    at: InstrRef,
    reads: ObjectSet,
    writes: ObjectSet,
    read_operand: Option<(Operand, i64)>,
    write_operand: Option<(Operand, i64)>,
}

impl LoopDdg {
    /// Builds the DDG of loop `loop_id` in function `func` of `module`.
    pub fn compute(
        module: &Module,
        func: FuncId,
        cfg: &Cfg,
        forest: &LoopForest,
        loop_id: LoopId,
        pointers: &PointerAnalysis,
    ) -> Self {
        let reaching = ReachingDefs::new(module.function(func), cfg);
        Self::compute_with(module, func, cfg, forest, loop_id, pointers, &reaching)
    }

    /// [`LoopDdg::compute`] over the function's already solved reaching definitions, so that
    /// the loops of one function share one solution.
    pub fn compute_with(
        module: &Module,
        func: FuncId,
        cfg: &Cfg,
        forest: &LoopForest,
        loop_id: LoopId,
        pointers: &PointerAnalysis,
        reaching: &ReachingDefs,
    ) -> Self {
        let function = module.function(func);
        let natural = forest.get(loop_id);
        let header = natural.header;
        let in_loop = |b: BlockId| natural.contains(b);

        let mut deps = Vec::new();

        // --- Register dependences -------------------------------------------------------
        let loop_refs: Vec<InstrRef> = forest.instrs_of(loop_id, function);
        for &use_ref in &loop_refs {
            let instr = function.instr(use_ref);
            for var in instr.uses() {
                // Whether the use can see a value from the previous iteration depends on the
                // use alone, not on the definition: ask at most once.
                let mut upward_exposed = None;
                for def_id in reaching.reaching_defs_at(function, use_ref, var) {
                    let def = reaching.defs[def_id];
                    if !in_loop(def.at.block) {
                        continue; // live-in from outside the loop, not a loop dependence
                    }
                    let intra = Self::reaches_without_back_edge(
                        cfg, function, def.at, use_ref, header, &in_loop,
                    );
                    // Loop-carried: the definition survives to a latch AND the use can observe
                    // a value flowing in through the header (it is upward-exposed: no other
                    // definition of the variable necessarily shadows it first).
                    let carried = natural
                        .latches
                        .iter()
                        .any(|l| reaching.reaching_out(*l).contains(def_id))
                        && *upward_exposed.get_or_insert_with(|| {
                            Self::upward_exposed_from_header(cfg, function, natural, use_ref, var)
                        });
                    if !intra && !carried {
                        continue;
                    }
                    deps.push(DataDependence {
                        src: def.at,
                        dst: use_ref,
                        kind: DepKind::Raw,
                        loop_carried: carried,
                        intra_iteration: intra,
                        via_memory: false,
                        var: Some(var),
                    });
                }
            }
        }

        // --- Memory dependences ---------------------------------------------------------
        let mut accesses: Vec<AccessSummary> = Vec::new();
        for &at in &loop_refs {
            match function.instr(at) {
                Instr::Load { addr, offset, .. } => {
                    accesses.push(AccessSummary {
                        at,
                        reads: pointers.operand_points_to(func, *addr),
                        writes: ObjectSet::new(),
                        read_operand: Some((*addr, *offset)),
                        write_operand: None,
                    });
                }
                Instr::Store { addr, offset, .. } => {
                    accesses.push(AccessSummary {
                        at,
                        reads: ObjectSet::new(),
                        writes: pointers.operand_points_to(func, *addr),
                        read_operand: None,
                        write_operand: Some((*addr, *offset)),
                    });
                }
                Instr::Call { callee, .. } => {
                    accesses.push(AccessSummary {
                        at,
                        reads: pointers.read_set(*callee),
                        writes: pointers.write_set(*callee),
                        read_operand: None,
                        write_operand: None,
                    });
                }
                _ => {}
            }
        }

        for a in &accesses {
            for b in &accesses {
                // All ordered pairs are considered (a RAW store→load and the WAR load→store of
                // the same location are distinct dependences). Self-pairs matter too: a store
                // in iteration i and the same store in iteration i+1 form a loop-carried
                // output dependence.
                let pairs = [
                    (
                        DepKind::Raw,
                        &a.writes,
                        &b.reads,
                        a.write_operand,
                        b.read_operand,
                    ),
                    (
                        DepKind::War,
                        &a.reads,
                        &b.writes,
                        a.read_operand,
                        b.write_operand,
                    ),
                    (
                        DepKind::Waw,
                        &a.writes,
                        &b.writes,
                        a.write_operand,
                        b.write_operand,
                    ),
                ];
                for (kind, set_a, set_b, op_a, op_b) in pairs {
                    if a.at == b.at && kind != DepKind::Waw {
                        continue; // an instruction cannot depend on itself except output deps
                    }
                    let alias =
                        Self::may_touch_same_memory(pointers, func, set_a, set_b, op_a, op_b);
                    if !alias {
                        continue;
                    }
                    let touched: ObjectSet = set_a.intersection(set_b).copied().collect();
                    let carried = !Self::all_iteration_private(&touched, func, natural, forest);
                    let intra = a.at != b.at
                        && Self::reaches_without_back_edge(
                            cfg, function, a.at, b.at, header, &in_loop,
                        );
                    if !carried && !intra {
                        continue;
                    }
                    deps.push(DataDependence {
                        src: a.at,
                        dst: b.at,
                        kind,
                        loop_carried: carried,
                        intra_iteration: intra,
                        via_memory: true,
                        var: None,
                    });
                }
            }
        }

        Self { deps }
    }

    /// Returns `true` if the use at `use_ref` can observe, for `var`, a value that entered the
    /// current iteration through the loop header (i.e. produced by a previous iteration): no
    /// definition of `var` precedes the use in its own block, and some path from the header to
    /// the use's block avoids every block that redefines `var`.
    fn upward_exposed_from_header(
        cfg: &Cfg,
        function: &Function,
        natural: &crate::loops::NaturalLoop,
        use_ref: InstrRef,
        var: VarId,
    ) -> bool {
        // A definition earlier in the same block shadows anything coming from the header.
        for (i, instr) in function.block(use_ref.block).instrs.iter().enumerate() {
            if i >= use_ref.index {
                break;
            }
            if instr.dst() == Some(var) {
                return false;
            }
        }
        let header = natural.header;
        if use_ref.block == header {
            return true;
        }
        // Header definitions before control leaves the header shadow the incoming value.
        let header_defines = function
            .block(header)
            .instrs
            .iter()
            .any(|i| i.dst() == Some(var));
        if header_defines {
            return false;
        }
        // Path from the header to the use's block that avoids redefining blocks.
        let defines_var = |b: BlockId| {
            function
                .block(b)
                .instrs
                .iter()
                .any(|i| i.dst() == Some(var))
        };
        let within = |b: BlockId| {
            natural.contains(b) && (b == use_ref.block || b == header || !defines_var(b))
        };
        cfg.reaches_within(header, use_ref.block, &within, None)
    }

    /// Returns `true` if `to` can execute after `from` within the same iteration: either later
    /// in the same block, or in a block reachable without traversing the back edge into the
    /// header.
    fn reaches_without_back_edge(
        cfg: &Cfg,
        function: &Function,
        from: InstrRef,
        to: InstrRef,
        header: BlockId,
        in_loop: &dyn Fn(BlockId) -> bool,
    ) -> bool {
        // Same block with `to` earlier than `from` is only possible by going around the loop.
        if from.block == to.block && from.index < to.index {
            return true;
        }
        let _ = function;
        if from.block == to.block && from.index >= to.index {
            return false;
        }
        cfg.succs(from.block).iter().any(|&s| {
            s != header
                && in_loop(s)
                && (s == to.block || cfg.reaches_within(s, to.block, in_loop, Some(header)))
        }) || (from.block != to.block
            && cfg
                .succs(from.block)
                .iter()
                .any(|&s| s == to.block && s != header))
    }

    fn may_touch_same_memory(
        pointers: &PointerAnalysis,
        func: FuncId,
        set_a: &ObjectSet,
        set_b: &ObjectSet,
        op_a: Option<(Operand, i64)>,
        op_b: Option<(Operand, i64)>,
    ) -> bool {
        // If both sides have a concrete address operand, use the precise alias query (it
        // understands constant offsets from the same global).
        if let (Some((a, offa)), Some((b, offb))) = (op_a, op_b) {
            return pointers.may_alias(func, a, offa, func, b, offb);
        }
        if set_a.is_empty() || set_b.is_empty() {
            // Calls with empty summaries touch nothing.
            return false;
        }
        set_a.intersection(set_b).next().is_some()
    }

    /// An object set is iteration-private when every object in it is an allocation site inside
    /// the loop itself (each iteration allocates a fresh object, so accesses cannot collide
    /// across iterations).
    fn all_iteration_private(
        touched: &ObjectSet,
        func: FuncId,
        natural: &crate::loops::NaturalLoop,
        _forest: &LoopForest,
    ) -> bool {
        !touched.is_empty()
            && touched.iter().all(|o| match o {
                AbstractObject::AllocSite { func: f, at } => {
                    *f == func && natural.contains(at.block)
                }
                AbstractObject::Global(_) => false,
            })
    }

    /// All loop-carried dependences.
    pub fn loop_carried(&self) -> impl Iterator<Item = &DataDependence> {
        self.deps.iter().filter(|d| d.loop_carried)
    }

    /// Fraction of dependences that are loop-carried (the Table 1 metric), in `[0, 1]`.
    pub fn loop_carried_fraction(&self) -> f64 {
        if self.deps.is_empty() {
            return 0.0;
        }
        self.loop_carried().count() as f64 / self.deps.len() as f64
    }

    /// Number of dependences.
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// Returns `true` when the loop has no data dependences.
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominators::DomTree;
    use helix_ir::builder::{FunctionBuilder, ModuleBuilder};
    use helix_ir::{BinOp, Operand};

    struct Built {
        module: Module,
        func: FuncId,
        loop_id: LoopId,
        forest: LoopForest,
        cfg: Cfg,
        body: BlockId,
    }

    fn build(f: impl FnOnce(&mut ModuleBuilder) -> (helix_ir::Function, BlockId)) -> Built {
        let mut mb = ModuleBuilder::new("m");
        let (function, body) = f(&mut mb);
        let func = mb.add_function(function);
        let module = mb.finish();
        let cfg = Cfg::new(module.function(func));
        let dom = DomTree::new(module.function(func), &cfg);
        let forest = LoopForest::new(module.function(func), &cfg, &dom);
        let loop_id = forest.top_level()[0];
        Built {
            module,
            func,
            loop_id,
            forest,
            cfg,
            body,
        }
    }

    fn ddg_of(b: &Built) -> LoopDdg {
        let pointers = PointerAnalysis::new(&b.module);
        LoopDdg::compute(&b.module, b.func, &b.cfg, &b.forest, b.loop_id, &pointers)
    }

    #[test]
    fn scalar_accumulator_is_loop_carried_register_dep() {
        // for i in 0..n { s = s + i }
        let built = build(|_| {
            let mut fb = FunctionBuilder::new("f", 1);
            let n = fb.param(0);
            let s = fb.new_var();
            fb.const_int(s, 0);
            let lh = fb.counted_loop(Operand::int(0), Operand::Var(n), 1);
            fb.binary(
                s,
                BinOp::Add,
                Operand::Var(s),
                Operand::Var(lh.induction_var),
            );
            fb.br(lh.latch);
            fb.switch_to(lh.exit);
            fb.ret(Some(Operand::Var(s)));
            (fb.finish(), lh.body)
        });
        let ddg = ddg_of(&built);
        // The s = s + i accumulation must appear as a loop-carried register RAW dependence.
        let carried_reg: Vec<&DataDependence> =
            ddg.loop_carried().filter(|d| !d.via_memory).collect();
        assert!(
            carried_reg
                .iter()
                .any(|d| d.src.block == built.body && d.dst.block == built.body),
            "accumulator dependence missing: {carried_reg:?}"
        );
        assert!(ddg.loop_carried_fraction() > 0.0);
    }

    #[test]
    fn independent_array_writes_have_no_loop_carried_memory_dep() {
        // for i in 0..n { a[i] = i }  (address = &a + i, each iteration a different word —
        // the field-insensitive analysis still reports a may dependence on the same object,
        // so this test asserts the dependence exists but the register graph stays clean).
        let built = build(|mb| {
            let g = mb.add_global("a", 64);
            let mut fb = FunctionBuilder::new("f", 1);
            let n = fb.param(0);
            let lh = fb.counted_loop(Operand::int(0), Operand::Var(n), 1);
            let addr = fb.binary_to_new(
                BinOp::Add,
                Operand::Global(g),
                Operand::Var(lh.induction_var),
            );
            fb.store(Operand::Var(addr), 0, Operand::Var(lh.induction_var));
            fb.br(lh.latch);
            fb.switch_to(lh.exit);
            fb.ret(None);
            (fb.finish(), lh.body)
        });
        let ddg = ddg_of(&built);
        // Field-insensitive: the self output-dependence on the store is reported loop-carried.
        assert!(ddg
            .deps
            .iter()
            .any(|d| d.via_memory && d.kind == DepKind::Waw && d.loop_carried));
        // The induction variable itself must not give rise to a *memory* dependence.
        assert!(ddg
            .deps
            .iter()
            .filter(|d| !d.via_memory && d.loop_carried)
            .all(|d| d.var.is_some()));
    }

    #[test]
    fn pointer_chase_is_loop_carried_memory_raw() {
        // p = head; while (p != 0) { v = load p; sum += v; p = load (p+1) }
        let built = build(|mb| {
            let head = mb.add_global("head", 2);
            let mut fb = FunctionBuilder::new("f", 0);
            let p = fb.new_var();
            let sum = fb.new_var();
            fb.const_int(sum, 0);
            fb.load(p, Operand::Global(head), 0);
            let header = fb.new_block();
            let body = fb.new_block();
            let exit = fb.new_block();
            fb.br(header);
            fb.switch_to(header);
            let c = fb.cmp_to_new(helix_ir::Pred::Ne, Operand::Var(p), Operand::int(0));
            fb.cond_br(Operand::Var(c), body, exit);
            fb.switch_to(body);
            let v = fb.new_var();
            fb.load(v, Operand::Var(p), 0);
            fb.binary(sum, BinOp::Add, Operand::Var(sum), Operand::Var(v));
            fb.load(p, Operand::Var(p), 1);
            fb.br(header);
            fb.switch_to(exit);
            fb.ret(Some(Operand::Var(sum)));
            (fb.finish(), body)
        });
        let ddg = ddg_of(&built);
        // The pointer register p carries a loop-carried register dependence (p = load p+1 then
        // used next iteration).
        assert!(ddg.loop_carried().any(|d| !d.via_memory && d.var.is_some()));
    }

    #[test]
    fn iteration_private_allocations_carry_no_memory_dependence() {
        // for i in 0..n { buf = alloc 4; store buf; v = load buf }
        let built = build(|_| {
            let mut fb = FunctionBuilder::new("f", 1);
            let n = fb.param(0);
            let lh = fb.counted_loop(Operand::int(0), Operand::Var(n), 1);
            let buf = fb.new_var();
            fb.alloc(buf, Operand::int(4));
            fb.store(Operand::Var(buf), 0, Operand::Var(lh.induction_var));
            let v = fb.new_var();
            fb.load(v, Operand::Var(buf), 0);
            fb.br(lh.latch);
            fb.switch_to(lh.exit);
            fb.ret(None);
            (fb.finish(), lh.body)
        });
        let ddg = ddg_of(&built);
        // The store→load pair inside one iteration is an intra-iteration dependence but not a
        // loop-carried one, because the buffer is freshly allocated every iteration.
        let mem_deps: Vec<&DataDependence> = ddg.deps.iter().filter(|d| d.via_memory).collect();
        assert!(!mem_deps.is_empty());
        assert!(mem_deps.iter().all(|d| !d.loop_carried));
        assert!(mem_deps.iter().any(|d| d.intra_iteration));
    }

    #[test]
    fn global_accumulator_store_load_is_loop_carried() {
        // for i in 0..n { v = load g; store g, v + i }
        let built = build(|mb| {
            let g = mb.add_global("acc", 1);
            let mut fb = FunctionBuilder::new("f", 1);
            let n = fb.param(0);
            let lh = fb.counted_loop(Operand::int(0), Operand::Var(n), 1);
            let v = fb.new_var();
            fb.load(v, Operand::Global(g), 0);
            let v2 = fb.binary_to_new(BinOp::Add, Operand::Var(v), Operand::Var(lh.induction_var));
            fb.store(Operand::Global(g), 0, Operand::Var(v2));
            fb.br(lh.latch);
            fb.switch_to(lh.exit);
            fb.ret(None);
            (fb.finish(), lh.body)
        });
        let ddg = ddg_of(&built);
        // Store (iteration i) → load (iteration i+1) is a loop-carried memory RAW.
        assert!(ddg
            .loop_carried()
            .any(|d| d.via_memory && d.kind == DepKind::Raw));
        // And there is also the WAR and WAW on the same location.
        assert!(ddg.deps.iter().any(|d| d.kind == DepKind::War));
        assert!(ddg.deps.iter().any(|d| d.kind == DepKind::Waw));
        assert!(!ddg.is_empty());
        assert!(ddg.len() >= 3);
    }

    #[test]
    fn calls_with_side_effects_create_dependences() {
        // helper() increments a global; for i in 0..n { call helper() }
        let built = build(|mb| {
            let g = mb.add_global("counter", 1);
            let helper_id = mb.declare_function("helper", 0);
            let mut helper = FunctionBuilder::new("helper", 0);
            let v = helper.new_var();
            helper.load(v, Operand::Global(g), 0);
            let v2 = helper.binary_to_new(BinOp::Add, Operand::Var(v), Operand::int(1));
            helper.store(Operand::Global(g), 0, Operand::Var(v2));
            helper.ret(None);
            mb.define_function(helper_id, helper.finish());

            let mut fb = FunctionBuilder::new("f", 1);
            let n = fb.param(0);
            let lh = fb.counted_loop(Operand::int(0), Operand::Var(n), 1);
            fb.call(None, helper_id, vec![]);
            fb.br(lh.latch);
            fb.switch_to(lh.exit);
            fb.ret(None);
            (fb.finish(), lh.body)
        });
        let ddg = ddg_of(&built);
        // The call reads and writes the counter global, so it must carry a loop-carried
        // memory dependence on itself across iterations.
        assert!(ddg.loop_carried().any(|d| d.via_memory && d.src == d.dst));
    }
}
