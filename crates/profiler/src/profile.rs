//! Profile data structures.

use helix_analysis::LoopId;
use helix_ir::{FuncId, InstrRef};
use std::collections::{BTreeSet, HashMap};

/// Identifies one loop program-wide: the function plus the loop id within that function's
/// loop forest.
pub type LoopKey = (FuncId, LoopId);

/// Dynamic execution data for one static instruction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InstrProfile {
    /// Number of times the instruction executed.
    pub count: u64,
    /// Cycles charged to the instruction itself (exclusive: a call's callee time is recorded
    /// separately in [`FunctionProfile::callsite_cycles`]).
    pub cycles: u64,
}

/// Profile of one function.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FunctionProfile {
    /// Number of invocations of the function.
    pub invocations: u64,
    /// Per-instruction execution counts and exclusive cycles.
    pub instrs: HashMap<InstrRef, InstrProfile>,
    /// Inclusive cycles spent inside the callee (transitively) per call site.
    pub callsite_cycles: HashMap<InstrRef, u64>,
}

impl FunctionProfile {
    /// Exclusive cycles of one instruction.
    pub fn cycles_of(&self, at: InstrRef) -> u64 {
        self.instrs.get(&at).map_or(0, |p| p.cycles)
    }

    /// Execution count of one instruction.
    pub fn count_of(&self, at: InstrRef) -> u64 {
        self.instrs.get(&at).map_or(0, |p| p.count)
    }

    /// Inclusive cycles of one instruction: its own cycles plus, for calls, the callee time.
    pub fn inclusive_cycles_of(&self, at: InstrRef) -> u64 {
        self.cycles_of(at) + self.callsite_cycles.get(&at).copied().unwrap_or(0)
    }
}

/// Profile of one loop (inclusive of everything executed while the loop is active, including
/// callees and nested loops).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoopProfile {
    /// Number of times the loop was entered.
    pub invocations: u64,
    /// Total number of iterations across all invocations.
    pub iterations: u64,
    /// Cycles spent while the loop was active (inclusive).
    pub cycles: u64,
}

impl LoopProfile {
    /// Average number of iterations per invocation.
    pub fn iterations_per_invocation(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.iterations as f64 / self.invocations as f64
        }
    }
}

/// Whole-program profile produced by one training run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProgramProfile {
    /// Per-function data.
    pub functions: HashMap<FuncId, FunctionProfile>,
    /// Per-loop data.
    pub loops: HashMap<LoopKey, LoopProfile>,
    /// Edges of the dynamic loop nesting graph actually traversed: `(parent, child)`.
    pub dynamic_edges: BTreeSet<(LoopKey, LoopKey)>,
    /// Loops that were entered while no other loop was active (dynamic roots).
    pub dynamic_roots: BTreeSet<LoopKey>,
    /// Total cycles of the whole run.
    pub total_cycles: u64,
    /// Cycles spent while no loop was active.
    pub cycles_outside_loops: u64,
}

impl ProgramProfile {
    /// Profile of a loop, or the zero profile if it never ran.
    pub fn loop_profile(&self, key: LoopKey) -> LoopProfile {
        self.loops.get(&key).copied().unwrap_or_default()
    }

    /// Returns `true` if the loop executed at least one iteration during profiling.
    pub fn executed(&self, key: LoopKey) -> bool {
        self.loop_profile(key).iterations > 0
    }

    /// Inclusive cycles attributed to a set of instructions of `func` (sums each instruction's
    /// own cycles plus callee time for calls).
    pub fn cycles_of_instrs(&self, func: FuncId, instrs: &[InstrRef]) -> u64 {
        let Some(fp) = self.functions.get(&func) else {
            return 0;
        };
        instrs.iter().map(|r| fp.inclusive_cycles_of(*r)).sum()
    }

    /// The fraction of total cycles spent inside `key` (0 when the program did not run).
    pub fn loop_time_fraction(&self, key: LoopKey) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.loop_profile(key).cycles as f64 / self.total_cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_ir::BlockId;

    #[test]
    fn loop_profile_averages() {
        let p = LoopProfile {
            invocations: 4,
            iterations: 40,
            cycles: 400,
        };
        assert_eq!(p.iterations_per_invocation(), 10.0);
        assert_eq!(LoopProfile::default().iterations_per_invocation(), 0.0);
    }

    #[test]
    fn function_profile_inclusive_cycles() {
        let mut fp = FunctionProfile::default();
        let at = InstrRef::new(BlockId::new(0), 3);
        fp.instrs.insert(
            at,
            InstrProfile {
                count: 2,
                cycles: 20,
            },
        );
        fp.callsite_cycles.insert(at, 100);
        assert_eq!(fp.cycles_of(at), 20);
        assert_eq!(fp.count_of(at), 2);
        assert_eq!(fp.inclusive_cycles_of(at), 120);
        let other = InstrRef::new(BlockId::new(0), 4);
        assert_eq!(fp.inclusive_cycles_of(other), 0);
    }

    #[test]
    fn program_profile_queries() {
        let mut pp = ProgramProfile {
            total_cycles: 1000,
            ..Default::default()
        };
        let key = (FuncId::new(0), LoopId(0));
        pp.loops.insert(
            key,
            LoopProfile {
                invocations: 1,
                iterations: 10,
                cycles: 250,
            },
        );
        assert!(pp.executed(key));
        assert!(!pp.executed((FuncId::new(1), LoopId(0))));
        assert_eq!(pp.loop_time_fraction(key), 0.25);
        assert_eq!(pp.cycles_of_instrs(FuncId::new(9), &[]), 0);
    }
}
