//! The 13 SPEC CPU2000 stand-in benchmarks.
//!
//! Each benchmark is described by a [`BenchParams`] record whose knobs were chosen so that the
//! HELIX pipeline sees roughly the structure the paper reports for the corresponding SPEC
//! program: benchmarks that the paper speeds up well (art, equake, mesa) are dominated by
//! loops with lots of independent per-iteration work and few or rare loop-carried memory
//! dependences, while the benchmarks at the low end (gap, vortex, bzip2, twolf, mcf) spend
//! more of their time in reductions, pointer chasing and irregular control flow with frequent
//! shared-state updates.

use crate::kernels;
use helix_ir::builder::{FunctionBuilder, ModuleBuilder};
use helix_ir::{FuncId, Module, Operand};

/// Tuning knobs of one synthetic benchmark.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BenchParams {
    /// Elements processed by the DOALL-style transform loop (0 disables the kernel).
    pub transform_elements: i64,
    /// Hash rounds of independent work per transform element.
    pub transform_work: usize,
    /// Number of global accumulators updated inside the transform loop (sequential segments).
    pub transform_accumulators: usize,
    /// Elements of the reduction loop (0 disables).
    pub reduction_elements: i64,
    /// Hash rounds per reduction element.
    pub reduction_work: usize,
    /// Nodes of the pointer-chasing list (0 disables).
    pub list_nodes: i64,
    /// Hash rounds per list node.
    pub list_work: usize,
    /// Elements of the irregular-control-flow loop (0 disables).
    pub irregular_elements: i64,
    /// Hash rounds on the heavy path of the irregular loop.
    pub irregular_work: usize,
    /// Elements of the floating-point stencil loop (0 disables).
    pub stencil_elements: i64,
    /// Hash rounds of the stencil loop.
    pub stencil_work: usize,
    /// Iterations of the outer loop that calls a loopy helper function (0 disables).
    pub helper_calls: i64,
    /// Elements processed by the helper's inner loop per call.
    pub helper_elements: i64,
}

/// One synthetic SPEC stand-in.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpecBenchmark {
    /// The SPEC benchmark this program stands in for (e.g. "art").
    pub name: &'static str,
    /// The paper's measured six-core speedup for the real benchmark (Figure 9), used only for
    /// qualitative comparison in EXPERIMENTS.md.
    pub paper_speedup_6_cores: f64,
    /// The tuning knobs.
    pub params: BenchParams,
}

impl SpecBenchmark {
    /// Builds the benchmark into a module and returns it with the entry function.
    pub fn build(&self) -> (Module, FuncId) {
        let p = &self.params;
        let mut mb = ModuleBuilder::new(self.name);
        let arr = mb.add_global("work_array", (p.transform_elements.max(64) as usize) + 8);
        let red_arr = mb.add_global(
            "reduction_array",
            (p.reduction_elements.max(64) as usize) + 8,
        );
        let irr_arr = mb.add_global(
            "irregular_array",
            (p.irregular_elements.max(64) as usize) + 8,
        );
        let sten_in = mb.add_global("stencil_in", (p.stencil_elements.max(64) as usize) + 8);
        let sten_out = mb.add_global("stencil_out", (p.stencil_elements.max(64) as usize) + 8);
        let list_storage = mb.add_global("list_nodes", (p.list_nodes.max(8) as usize) * 2 + 8);
        let list_head = mb.add_global("list_head", 1);
        let acc = mb.add_global("shared_accumulator", 1);
        let acc2 = mb.add_global("shared_accumulator2", 1);
        let helper_arr = mb.add_global("helper_array", (p.helper_elements.max(32) as usize) + 8);

        let helper = if p.helper_calls > 0 {
            Some(kernels::make_loopy_helper(
                &mut mb,
                &format!("{}_reset_nodes", self.name),
                helper_arr,
                p.helper_elements,
                3,
            ))
        } else {
            None
        };

        let mut fb = FunctionBuilder::new("main", 0);
        // Deterministic input setup (plays the role of reading the reference input).
        kernels::array_transform_loop(&mut fb, red_arr, p.reduction_elements.max(16), 1, &[]);
        kernels::array_transform_loop(&mut fb, irr_arr, p.irregular_elements.max(16), 1, &[]);
        kernels::array_transform_loop(&mut fb, sten_in, p.stencil_elements.max(16), 1, &[]);
        if p.list_nodes > 0 {
            kernels::emit_list_init(&mut fb, list_storage, list_head, p.list_nodes);
        }

        // The hot kernels.
        if p.transform_elements > 0 {
            let accs: Vec<_> = [acc, acc2]
                .into_iter()
                .take(p.transform_accumulators)
                .collect();
            kernels::array_transform_loop(
                &mut fb,
                arr,
                p.transform_elements,
                p.transform_work,
                &accs,
            );
        }
        if p.reduction_elements > 0 {
            kernels::reduction_loop(
                &mut fb,
                red_arr,
                acc,
                p.reduction_elements,
                p.reduction_work,
            );
        }
        if p.list_nodes > 0 {
            kernels::pointer_chase_loop(&mut fb, list_head, acc2, p.list_work);
        }
        if p.irregular_elements > 0 {
            kernels::irregular_branch_loop(
                &mut fb,
                irr_arr,
                acc,
                p.irregular_elements,
                p.irregular_work,
            );
        }
        if p.stencil_elements > 0 {
            kernels::stencil_loop(
                &mut fb,
                sten_in,
                sten_out,
                p.stencil_elements,
                p.stencil_work,
            );
        }
        if let Some(helper) = helper {
            kernels::helper_call_loop(&mut fb, helper, p.helper_calls, acc);
        }

        // Checksum so results can be compared between sequential and parallel executions.
        let a = fb.new_var();
        fb.load(a, Operand::Global(acc), 0);
        let b = fb.new_var();
        fb.load(b, Operand::Global(acc2), 0);
        let sum = fb.binary_to_new(helix_ir::BinOp::Add, Operand::Var(a), Operand::Var(b));
        fb.ret(Some(Operand::Var(sum)));
        let main = mb.add_function(fb.finish());
        (mb.finish(), main)
    }
}

/// The 13 benchmark parameter sets, in the order of the paper's Figure 9.
pub fn all_benchmarks() -> Vec<SpecBenchmark> {
    let base = BenchParams {
        transform_elements: 0,
        transform_work: 0,
        transform_accumulators: 0,
        reduction_elements: 0,
        reduction_work: 0,
        list_nodes: 0,
        list_work: 0,
        irregular_elements: 0,
        irregular_work: 0,
        stencil_elements: 0,
        stencil_work: 0,
        helper_calls: 0,
        helper_elements: 0,
    };
    vec![
        SpecBenchmark {
            name: "gzip",
            paper_speedup_6_cores: 1.9,
            params: BenchParams {
                transform_elements: 384,
                transform_work: 32,
                transform_accumulators: 1,
                reduction_elements: 256,
                reduction_work: 28,
                irregular_elements: 128,
                irregular_work: 24,
                ..base
            },
        },
        SpecBenchmark {
            name: "vpr",
            paper_speedup_6_cores: 2.6,
            params: BenchParams {
                transform_elements: 512,
                transform_work: 36,
                transform_accumulators: 1,
                irregular_elements: 192,
                irregular_work: 16,
                helper_calls: 6,
                helper_elements: 48,
                ..base
            },
        },
        SpecBenchmark {
            name: "mesa",
            paper_speedup_6_cores: 3.3,
            params: BenchParams {
                transform_elements: 768,
                transform_work: 48,
                transform_accumulators: 0,
                stencil_elements: 256,
                stencil_work: 16,
                ..base
            },
        },
        SpecBenchmark {
            name: "art",
            paper_speedup_6_cores: 4.12,
            params: BenchParams {
                transform_elements: 1024,
                transform_work: 56,
                transform_accumulators: 0,
                stencil_elements: 256,
                stencil_work: 24,
                helper_calls: 8,
                helper_elements: 64,
                ..base
            },
        },
        SpecBenchmark {
            name: "mcf",
            paper_speedup_6_cores: 1.7,
            params: BenchParams {
                list_nodes: 192,
                list_work: 36,
                reduction_elements: 192,
                reduction_work: 26,
                irregular_elements: 96,
                irregular_work: 22,
                ..base
            },
        },
        SpecBenchmark {
            name: "equake",
            paper_speedup_6_cores: 3.4,
            params: BenchParams {
                stencil_elements: 640,
                stencil_work: 32,
                transform_elements: 512,
                transform_work: 40,
                transform_accumulators: 0,
                ..base
            },
        },
        SpecBenchmark {
            name: "crafty",
            paper_speedup_6_cores: 1.9,
            params: BenchParams {
                irregular_elements: 384,
                irregular_work: 44,
                transform_elements: 256,
                transform_work: 26,
                transform_accumulators: 1,
                reduction_elements: 128,
                reduction_work: 22,
                ..base
            },
        },
        SpecBenchmark {
            name: "ammp",
            paper_speedup_6_cores: 2.4,
            params: BenchParams {
                stencil_elements: 384,
                stencil_work: 24,
                reduction_elements: 256,
                reduction_work: 30,
                transform_elements: 256,
                transform_work: 24,
                transform_accumulators: 1,
                ..base
            },
        },
        SpecBenchmark {
            name: "parser",
            paper_speedup_6_cores: 1.6,
            params: BenchParams {
                list_nodes: 256,
                list_work: 30,
                irregular_elements: 192,
                irregular_work: 24,
                reduction_elements: 128,
                reduction_work: 20,
                ..base
            },
        },
        SpecBenchmark {
            name: "gap",
            paper_speedup_6_cores: 1.5,
            params: BenchParams {
                reduction_elements: 384,
                reduction_work: 32,
                irregular_elements: 192,
                irregular_work: 22,
                list_nodes: 96,
                list_work: 28,
                ..base
            },
        },
        SpecBenchmark {
            name: "vortex",
            paper_speedup_6_cores: 1.6,
            params: BenchParams {
                irregular_elements: 320,
                irregular_work: 40,
                reduction_elements: 192,
                reduction_work: 32,
                helper_calls: 4,
                helper_elements: 32,
                ..base
            },
        },
        SpecBenchmark {
            name: "bzip2",
            paper_speedup_6_cores: 1.8,
            params: BenchParams {
                transform_elements: 320,
                transform_work: 28,
                transform_accumulators: 2,
                reduction_elements: 256,
                reduction_work: 26,
                irregular_elements: 128,
                irregular_work: 20,
                ..base
            },
        },
        SpecBenchmark {
            name: "twolf",
            paper_speedup_6_cores: 1.8,
            params: BenchParams {
                irregular_elements: 256,
                irregular_work: 28,
                list_nodes: 128,
                list_work: 32,
                transform_elements: 256,
                transform_work: 28,
                transform_accumulators: 1,
                ..base
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_ir::{verify_module, Machine};

    #[test]
    fn there_are_thirteen_benchmarks_with_unique_names() {
        let benchmarks = all_benchmarks();
        assert_eq!(benchmarks.len(), 13);
        let mut names: Vec<&str> = benchmarks.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 13);
        // The geometric-mean target of the paper is 2.25x; our table of published numbers
        // should be in that ballpark.
        let geomean: f64 = benchmarks
            .iter()
            .map(|b| b.paper_speedup_6_cores.ln())
            .sum::<f64>()
            / 13.0;
        assert!((geomean.exp() - 2.25).abs() < 0.3);
    }

    #[test]
    fn every_benchmark_builds_verifies_and_runs() {
        for bench in all_benchmarks() {
            let (module, main) = bench.build();
            verify_module(&module)
                .unwrap_or_else(|e| panic!("{} does not verify: {e}", bench.name));
            let mut machine = Machine::new(&module);
            machine.set_fuel(200_000_000);
            let result = machine
                .call(main, &[])
                .unwrap_or_else(|e| panic!("{} failed to run: {e}", bench.name));
            assert!(result.is_some(), "{} must return a checksum", bench.name);
            assert!(
                machine.stats().instrs > 1_000,
                "{} is too trivial",
                bench.name
            );
        }
    }

    #[test]
    fn benchmarks_are_deterministic() {
        let bench = all_benchmarks()[3]; // art
        let (module, main) = bench.build();
        let mut m1 = Machine::new(&module);
        let mut m2 = Machine::new(&module);
        let r1 = m1.call(main, &[]).unwrap().unwrap();
        let r2 = m2.call(main, &[]).unwrap().unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn benchmarks_contain_candidate_loops() {
        for bench in all_benchmarks().into_iter().take(4) {
            let (module, _) = bench.build();
            let nesting = helix_analysis::LoopNestingGraph::new(&module);
            assert!(
                nesting.len() >= 3,
                "{} must expose several candidate loops, found {}",
                bench.name,
                nesting.len()
            );
        }
    }
}
