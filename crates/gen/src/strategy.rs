//! `proptest` strategy adapters over the structured generator.
//!
//! The workspace's property tests (`tests/properties.rs`, `tests/frontend_roundtrip.rs`)
//! draw whole programs as test inputs. These adapters bridge the deterministic generator
//! into proptest's [`Strategy`] protocol: a drawn [`GeneratedProgram`] carries its seed, so
//! a failing case is reproducible from the panic message alone, and its `Debug` form *is*
//! the canonical `.hir` text. For minimized failures, pair a drawn program with
//! [`crate::shrink::shrink_module`] inside the test body (see [`shrink_failure_text`]).

use crate::config::GenConfig;
use crate::generate::{generate, GeneratedProgram};
use crate::shrink::{shrink_module, ShrinkOptions};
use helix_ir::Module;
use proptest::{Strategy, TestRng};

/// Strategy producing [`GeneratedProgram`]s from a fixed [`GenConfig`].
#[derive(Clone, Debug)]
pub struct GeneratedPrograms {
    /// Shape configuration used for every draw.
    pub config: GenConfig,
}

impl Strategy for GeneratedPrograms {
    type Value = GeneratedProgram;

    fn sample(&self, rng: &mut TestRng) -> GeneratedProgram {
        generate(rng.next_u64(), &self.config)
    }
}

/// Programs with the full differential-fuzzing shape mix.
pub fn programs() -> GeneratedPrograms {
    GeneratedPrograms {
        config: GenConfig::fuzz(),
    }
}

/// Small programs for analysis-heavy properties.
pub fn small_programs() -> GeneratedPrograms {
    GeneratedPrograms {
        config: GenConfig::small(),
    }
}

/// Programs with sync noise enabled, for printer/parser round-trip properties.
pub fn roundtrip_programs() -> GeneratedPrograms {
    GeneratedPrograms {
        config: GenConfig::roundtrip(),
    }
}

/// Convenience for property tests: shrink `module` under `still_failing` and render the
/// minimized module as canonical `.hir` text for inclusion in a panic message.
pub fn shrink_failure_text(
    module: &Module,
    entry_name: &str,
    still_failing: &mut dyn FnMut(&Module) -> bool,
) -> String {
    let outcome = shrink_module(module, entry_name, still_failing, &ShrinkOptions::default());
    format!(
        "shrunk repro ({} -> {} instrs):\n{}",
        outcome.stats.instrs_before,
        outcome.stats.instrs_after,
        helix_ir::printer::format_module(&outcome.module)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategies_draw_deterministically_from_the_test_rng() {
        let strategy = small_programs();
        let a = Strategy::sample(&strategy, &mut TestRng::deterministic("s", 0));
        let b = Strategy::sample(&strategy, &mut TestRng::deterministic("s", 0));
        let c = Strategy::sample(&strategy, &mut TestRng::deterministic("s", 1));
        assert_eq!(a.module, b.module);
        assert_ne!(a.seed, c.seed);
        helix_ir::verify_module(&a.module).unwrap();
    }

    #[test]
    fn shrink_failure_text_embeds_a_parseable_module() {
        let gp = generate(9, &GenConfig::small());
        let mut always = |_: &Module| true;
        let text = shrink_failure_text(&gp.module, "main", &mut always);
        let body = text.split_once("instrs):\n").expect("header").1;
        helix_frontend::parse_module(body).expect("embedded repro re-parses");
    }
}
