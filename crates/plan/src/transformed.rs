//! The result of applying the HELIX transformation to one loop: the transformed module and
//! where the parallel clone, its frame global and its privatized sites are. It is built by
//! `helix_core::transform::apply` and read by the parallel runtime, which lowers it.

use crate::plan::ParallelizedLoop;
use helix_ir::{FuncId, Function, GlobalId, Instr, InstrRef, Module, VarId};
use std::collections::{BTreeMap, BTreeSet};

/// The result of applying the HELIX transformation to one loop of a module.
#[derive(Clone, Debug)]
pub struct TransformedProgram {
    /// The transformed module (original functions plus the parallel clone).
    pub module: Module,
    /// The original function the loop lives in.
    pub original_func: FuncId,
    /// The parallel clone with demoted variables and `Wait`/`Signal` instructions.
    pub parallel_func: FuncId,
    /// The global holding the demoted loop-boundary live variables.
    pub frame_global: GlobalId,
    /// Word offset of each demoted variable inside the frame global.
    pub slot_of: BTreeMap<VarId, i64>,
    /// The plan that was materialized (block ids remain valid in the clone; instruction
    /// indices do not, because new instructions were inserted).
    pub plan: ParallelizedLoop,
    /// [`ParallelizedLoop::private_allocs`] remapped to the clone's instruction indices
    /// (Step 7 inserts loads/stores/sync, shifting every index). The parallel runtime lowers
    /// exactly these sites to per-worker arena allocations.
    pub private_allocs: BTreeSet<InstrRef>,
    /// [`ParallelizedLoop::private_accesses`] remapped to the clone's instruction indices:
    /// the only loads/stores the runtime routes into the private tier.
    pub private_accesses: BTreeSet<InstrRef>,
}

impl TransformedProgram {
    /// The parallel clone function.
    pub fn parallel_function(&self) -> &Function {
        self.module.function(self.parallel_func)
    }

    /// Number of `Wait` instructions materialized in the clone.
    pub fn wait_instr_count(&self) -> usize {
        self.parallel_function()
            .instr_refs()
            .filter(|(_, i)| matches!(i, Instr::Wait { .. }))
            .count()
    }

    /// Number of `Signal` instructions materialized in the clone.
    pub fn signal_instr_count(&self) -> usize {
        self.parallel_function()
            .instr_refs()
            .filter(|(_, i)| matches!(i, Instr::Signal { .. }))
            .count()
    }

    /// References of all `Wait`/`Signal` instructions in the clone (for tests and tooling).
    pub fn sync_instrs(&self) -> Vec<InstrRef> {
        self.parallel_function()
            .instr_refs()
            .filter(|(_, i)| i.is_sync())
            .map(|(r, _)| r)
            .collect()
    }
}
