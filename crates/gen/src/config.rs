//! Size and shape knobs of the structured generator.

/// Configuration of [`crate::generate()`]: which program shapes may appear and how large the
/// generated module may grow.
///
/// Every knob is a *ceiling*; the generator draws actual sizes per seed, so a single
/// configuration still produces a wide spread of module shapes. The defaults target the
/// differential fuzzing sweet spot: modules of a few hundred instructions whose sequential
/// runs finish in well under a millisecond, so thousands of seeds (each executed on two
/// engines plus several real-thread parallel runs) stay cheap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenConfig {
    /// Maximum number of helper functions besides `main` (actual count is drawn per seed).
    pub max_helpers: usize,
    /// Maximum number of top-level scenarios chained inside `main` (at least 1 is emitted).
    pub max_scenarios: usize,
    /// Maximum loop nesting depth of the counted-nest scenario.
    pub max_loop_depth: usize,
    /// Maximum trip count of any single generated loop.
    pub max_trip_count: i64,
    /// Ceiling on the product of trip counts of one loop nest (bounds dynamic work).
    pub max_nest_iterations: i64,
    /// Maximum length of straight-line arithmetic chains.
    pub max_chain_ops: usize,
    /// Words of the shared scratch array global.
    pub array_words: usize,
    /// Nodes of the generated pointer graph (each node is two words: payload, next).
    pub heap_nodes: usize,
    /// Emit loads/stores against the scratch array and global accumulators.
    pub enable_memory: bool,
    /// Emit the build-then-chase pointer-graph scenario.
    pub enable_pointer_chase: bool,
    /// Emit calls to helper functions (and generate helpers at all).
    pub enable_calls: bool,
    /// Allow `ret` inside loop bodies (search-shaped helpers and early-return main loops).
    pub enable_in_loop_ret: bool,
    /// Emit data-dependent diamonds, early latch continues and rare guarded updates.
    pub enable_irregular_branching: bool,
    /// Emit register reductions (scalar loop-carried dependences).
    pub enable_reductions: bool,
    /// Emit float arithmetic (kept NaN-free: bounded add/mul/min/max chains).
    pub enable_floats: bool,
    /// Emit per-iteration `alloc` with self-contained store/load traffic.
    pub enable_alloc: bool,
    /// Sprinkle balanced `wait`/`signal` pairs (sequential no-ops) through loop bodies.
    ///
    /// This exercises the printer/parser and the sequential engines on sync instructions,
    /// but modules generated with it are not eligible for the parallel oracle stage: the
    /// HELIX transformation assumes it owns all `DepId`s. [`crate::oracle`] skips the
    /// parallel stage automatically when a module already contains sync instructions.
    pub sync_noise: bool,
}

impl GenConfig {
    /// The differential-fuzzing default: every shape on, sizes tuned for sub-millisecond
    /// sequential runs.
    pub fn fuzz() -> Self {
        Self {
            max_helpers: 3,
            max_scenarios: 4,
            max_loop_depth: 3,
            max_trip_count: 24,
            max_nest_iterations: 512,
            max_chain_ops: 8,
            array_words: 64,
            heap_nodes: 16,
            enable_memory: true,
            enable_pointer_chase: true,
            enable_calls: true,
            enable_in_loop_ret: true,
            enable_irregular_branching: true,
            enable_reductions: true,
            enable_floats: true,
            enable_alloc: true,
            sync_noise: false,
        }
    }

    /// Small modules for property tests that run many analysis passes per case.
    pub fn small() -> Self {
        Self {
            max_helpers: 1,
            max_scenarios: 2,
            max_loop_depth: 2,
            max_trip_count: 12,
            max_nest_iterations: 96,
            array_words: 32,
            heap_nodes: 8,
            ..Self::fuzz()
        }
    }

    /// Printer/parser round-trip coverage: every shape on *plus* balanced sync noise, so the
    /// textual grammar sees `wait`/`signal` from the generator too.
    pub fn roundtrip() -> Self {
        Self {
            sync_noise: true,
            ..Self::fuzz()
        }
    }

    /// Biases the configuration toward the shapes that historically broke Step 6: pointer
    /// chasing plus memory accumulators, no distractions.
    pub fn pointer_heavy() -> Self {
        Self {
            max_helpers: 0,
            max_scenarios: 2,
            max_loop_depth: 2,
            enable_calls: false,
            enable_floats: false,
            enable_alloc: false,
            enable_in_loop_ret: false,
            ..Self::fuzz()
        }
    }
}

impl Default for GenConfig {
    fn default() -> Self {
        Self::fuzz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        let fuzz = GenConfig::fuzz();
        assert!(!fuzz.sync_noise, "fuzz modules must stay parallel-eligible");
        assert!(GenConfig::roundtrip().sync_noise);
        assert!(GenConfig::small().max_scenarios <= fuzz.max_scenarios);
        assert!(GenConfig::pointer_heavy().enable_pointer_chase);
        assert_eq!(GenConfig::default(), fuzz);
    }
}
