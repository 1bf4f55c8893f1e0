//! Demonstrates the loop-selection algorithm of Section 2.2 on the interprocedural
//! nesting-graph shape of the paper's 179.art example (Figure 8), and shows how the chosen
//! loops move to outer nesting levels as the assumed signal latency grows (Figure 13).
//!
//! Run with `cargo run --example loop_selection_demo`.

use helix::analysis::LoopNestingGraph;
use helix::core::{Helix, HelixConfig};
use helix::profiler::profile_program;

fn main() {
    let bench = helix::workloads::all_benchmarks()[1]; // vpr: has helper-call loops
    let (module, main) = bench.build();
    let nesting = LoopNestingGraph::new(&module);
    let profile = profile_program(&module, &nesting, main, &[]).expect("benchmark runs");

    println!(
        "static loop nesting graph: {} loops, {} roots",
        nesting.len(),
        nesting.roots().len()
    );
    for node in nesting.iter() {
        println!(
            "  loop {:?} in {} at depth {} ({} parents, {} children)",
            node.loop_id,
            module.function(node.func).name,
            node.depth,
            node.parents.len(),
            node.children.len()
        );
    }

    for latency in [4u64, 110] {
        let config = HelixConfig::i7_980x().with_selection_latency(latency);
        let output = Helix::new(config).analyze(&module, &profile);
        let mut dist = std::collections::BTreeMap::new();
        for key in &output.selection.selected {
            *dist.entry(output.nesting_depth[key]).or_insert(0) += 1;
        }
        println!(
            "\nassumed signal latency {latency} cycles: {} loops selected, by nesting level: {:?}",
            output.selection.len(),
            dist
        );
    }
}
