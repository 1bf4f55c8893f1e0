//! Why a loop was (not) parallelised: every candidate loop priced three ways, next to what
//! each of its segments costs in the model, in the lowered bytecode and in a real run.
//!
//! The three pricings are the paper's constants, this machine's calibration over the
//! lowered segment spans, and the same calibration over the spans a 1-worker run
//! observed. `helix explain` renders these rows.

use helix_core::{transform, Helix, LoopSelection};
use helix_ir::{DepId, FuncId, Module, Value};
use helix_profiler::{LoopKey, ProgramProfile};
use helix_runtime::{ParallelExecutor, ParallelImage, TelemetryMode};
use std::collections::BTreeMap;

/// A loop's selection decision under one pricing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Decision {
    /// Did the Section 2.2 selection keep the loop?
    pub selected: bool,
    /// The saved time `T` the pricing gives the loop, in model cycles.
    pub saved_cycles: f64,
}

impl Decision {
    fn of(selection: &LoopSelection, key: LoopKey) -> Decision {
        Decision {
            selected: selection.is_selected(key),
            saved_cycles: selection.saved_time.get(&key).copied().unwrap_or(0.0),
        }
    }
}

/// One segment of a candidate plan: its model estimate, its lowered span and its
/// observed span, all in model cycles per iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SegmentExplanation {
    /// Index in the plan's segment list.
    pub segment: usize,
    /// The dependence the segment orders.
    pub dep: DepId,
    /// Does the segment keep its `Wait`/`Signal` pair?
    pub synchronized: bool,
    /// The Step-5 profile-weighted estimate (`cycles_per_iteration`).
    pub estimate_cycles: f64,
    /// The calibrated cost of the segment's lowered span
    /// ([`helix_runtime::LoopImage::segment_span_cycles`]); `None` when it has no lane.
    pub lowered_cycles: Option<f64>,
    /// The mean observed body span (`WaitEnd → Signal`); `None` when no run sampled it.
    pub observed_cycles: Option<f64>,
    /// How many wait→signal pairs back `observed_cycles`.
    pub observed_samples: u64,
}

impl SegmentExplanation {
    /// Observed ÷ lowered, when both exist and the lowered span is non-zero.
    pub fn ratio(&self) -> Option<f64> {
        match (self.observed_cycles, self.lowered_cycles) {
            (Some(observed), Some(lowered)) if lowered > 0.0 => Some(observed / lowered),
            _ => None,
        }
    }
}

/// One candidate loop of an [`explain`] report.
#[derive(Clone, Debug, PartialEq)]
pub struct LoopExplanation {
    /// The loop.
    pub key: LoopKey,
    /// The decision under the paper's constants.
    pub paper: Decision,
    /// The decision under the calibration, with lowered segment spans.
    pub lowered: Decision,
    /// The decision under the calibration, with observed segment spans. A loop that did
    /// not run (`ran == false`) keeps its lowered spans here.
    pub observed: Decision,
    /// Did a 1-worker run of the loop complete? Only loops of the entry function run.
    pub ran: bool,
    /// The error of the loop's 1-worker run, when it failed.
    pub run_error: Option<String>,
    /// The lowered image's fusion summary.
    pub fusion: String,
    /// One row per plan segment, in plan order.
    pub segments: Vec<SegmentExplanation>,
}

/// Explains the loop selection of `module`: analyses it under `paper` and under
/// `calibrated`, lowers every candidate plan of the calibrated analysis once, runs each
/// candidate of `entry` once at one worker with full telemetry, and prices the candidates
/// three ways (see [`LoopExplanation`]).
///
/// Lowered spans are priced with `calibrated`'s cost model; observed spans are converted
/// from nanoseconds at `ns_per_cycle`. The runs dispatch on the executor's automatic tier.
pub fn explain(
    module: &Module,
    entry: FuncId,
    args: &[Value],
    profile: &ProgramProfile,
    paper: &Helix,
    calibrated: &Helix,
    ns_per_cycle: f64,
) -> Vec<LoopExplanation> {
    let paper_selection = paper.analyze(module, profile).selection;
    let output = calibrated.analyze(module, profile);
    let executor = ParallelExecutor::new(1).with_telemetry(TelemetryMode::Full);
    let mut lowered_costs = BTreeMap::new();
    let mut observed_costs = BTreeMap::new();
    let mut loops = Vec::new();
    for (key, plan) in &output.plans {
        let pimg = ParallelImage::lower(&transform::apply(module, plan));
        let image = &pimg.loop_image;
        let spans = image.segment_span_cycles(&calibrated.cost);
        let (observed, run_error) = if key.0 == entry {
            let run = executor.run_parallel_out(&pimg, args);
            match run.result {
                Ok(_) => (run.report.map(|r| r.observed_segment_costs()), None),
                Err(e) => (None, Some(e.to_string())),
            }
        } else {
            (None, None)
        };
        let observed = observed.unwrap_or_default();
        let segments = plan
            .segments
            .iter()
            .enumerate()
            .map(|(ix, seg)| {
                let lowered = image
                    .lanes
                    .iter()
                    .zip(&spans)
                    .find(|(lane, _)| lane.segment == ix)
                    .map(|(_, (_, cycles))| *cycles as f64);
                let seen = observed.iter().find(|o| o.segment == ix);
                SegmentExplanation {
                    segment: ix,
                    dep: seg.dep,
                    synchronized: seg.synchronized,
                    estimate_cycles: seg.cycles_per_iteration,
                    lowered_cycles: lowered,
                    observed_cycles: seen.map(|o| o.mean_body_ns / ns_per_cycle),
                    observed_samples: seen.map_or(0, |o| o.samples),
                }
            })
            .collect::<Vec<_>>();
        let lowered: BTreeMap<DepId, f64> = spans
            .iter()
            .map(|&(dep, cycles)| (dep, cycles as f64))
            .collect();
        let mut seen = lowered.clone();
        for row in &segments {
            if let Some(cycles) = row.observed_cycles.filter(|c| *c > 0.0) {
                seen.insert(row.dep, cycles);
            }
        }
        lowered_costs.insert(*key, lowered);
        observed_costs.insert(*key, seen);
        loops.push((*key, run_error, image.fusion_summary(), segments));
    }
    let lowered_selection =
        calibrated.reselect_with_segment_costs(module, profile, &output, &lowered_costs);
    let observed_selection =
        calibrated.reselect_with_segment_costs(module, profile, &output, &observed_costs);
    loops
        .into_iter()
        .map(|(key, run_error, fusion, segments)| LoopExplanation {
            key,
            paper: Decision::of(&paper_selection, key),
            lowered: Decision::of(&lowered_selection, key),
            observed: Decision::of(&observed_selection, key),
            ran: key.0 == entry && run_error.is_none(),
            run_error,
            fusion,
            segments,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_analysis::LoopNestingGraph;
    use helix_core::HelixConfig;
    use helix_profiler::profile_program_image;

    #[test]
    fn explain_prices_every_candidate_three_ways() {
        let (module, main) = helix_workloads::corpus::load("nest_flip").expect("loads");
        let nesting = LoopNestingGraph::new(&module);
        let profile = profile_program_image(&module, &nesting, main, &[]).unwrap();
        let helix = Helix::new(HelixConfig::i7_980x());
        let output = helix.analyze(&module, &profile);
        let loops = explain(&module, main, &[], &profile, &helix, &helix, 1.0);

        let keys: Vec<LoopKey> = loops.iter().map(|l| l.key).collect();
        assert_eq!(keys, output.plans.keys().copied().collect::<Vec<_>>());
        for l in &loops {
            let plan = &output.plans[&l.key];
            assert_eq!(l.paper.selected, output.selection.is_selected(l.key));
            assert_eq!(l.segments.len(), plan.segments.len());
            // One lowered cost per signal lane, and only synchronized segments have one.
            let pimg = ParallelImage::lower(&transform::apply(&module, plan));
            let priced = l.segments.iter().filter(|s| s.lowered_cycles.is_some());
            assert_eq!(
                priced.count(),
                pimg.loop_image.num_lanes(),
                "one cost per lane"
            );
            for s in &l.segments {
                assert_eq!(s.lowered_cycles.is_some(), s.synchronized, "{s:?}");
                assert!(s.lowered_cycles.unwrap_or(0.0) >= 0.0);
            }
            // Every loop here is in `main`, so every one ran and observed every lane.
            assert!(l.ran && l.run_error.is_none(), "{:?}", l.run_error);
            for s in l.segments.iter().filter(|s| s.synchronized) {
                assert!(s.observed_samples > 0 && s.ratio().is_some(), "{s:?}");
            }
        }
    }
}
