//! Metric names, units and how each is computed from a pass's samples. `../BENCHMARK.json`
//! lists the same names; a test below keeps the two in step.

use crate::bench::{Pass, Samples, Setup, StaticFacts};
use crate::stats::{geomean, percentile, tail_percentile};
use crate::workloads::Phase;
use helix_runtime::{DispatchTier, TelemetryReport};

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Timing samples (or programs, for counts) behind the value.
    pub samples: usize,
}

/// `(name, unit, better)` of the end-to-end metrics, in output order.
pub const END_TO_END: [(&str, &str, &str); 10] = [
    ("setup_s", "s", "lower"),
    ("seq_run_us", "us", "lower"),
    ("par1_run_us", "us", "lower"),
    ("par2_run_us", "us", "lower"),
    ("scaling_2w", "x", "higher"),
    ("prepare_ms", "ms", "lower"),
    ("prepare_kinstr_per_s", "kinstr/s", "higher"),
    ("serve_rps", "req/s", "higher"),
    ("serve_p50_us", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// `(name, unit, better)` of the per-layer metrics, in output order.
pub const PER_LAYER: [(&str, &str, &str); 68] = [
    ("frontend.parse_us", "us", "lower"),
    ("frontend.parse_mb_per_s", "MB/s", "higher"),
    ("frontend.instrs", "count", "lower"),
    ("ir.lower_us", "us", "lower"),
    ("ir.image_ops", "count", "lower"),
    ("ir.print_us", "us", "lower"),
    ("ir.seq_ns_per_instr", "ns", "lower"),
    ("profiler.profile_us", "us", "lower"),
    ("profiler.overhead_x", "x", "lower"),
    ("analysis.nesting_us", "us", "lower"),
    ("analysis.pointer_us", "us", "lower"),
    ("analysis.ddg_us", "us", "lower"),
    ("core.analyze_us", "us", "lower"),
    ("core.transform_us", "us", "lower"),
    ("core.content_hash_us", "us", "lower"),
    ("core.prepare_us", "us", "lower"),
    ("core.prepare_unattributed_us", "us", "lower"),
    ("core.candidate_loops", "count", "higher"),
    ("core.selected_loops", "count", "higher"),
    ("core.sync_segments", "count", "lower"),
    ("core.waits", "count", "lower"),
    ("core.signals", "count", "lower"),
    ("core.signals_removed_fraction", "ratio", "higher"),
    ("core.private_words_per_iter", "count", "higher"),
    ("runtime.lower_us", "us", "lower"),
    ("runtime.calibrate_ms", "ms", "lower"),
    ("runtime.alu_ns.switch", "ns", "lower"),
    ("runtime.alu_ns.threaded", "ns", "lower"),
    ("runtime.alu_ns.jit", "ns", "lower"),
    ("runtime.load_ns.switch", "ns", "lower"),
    ("runtime.load_ns.threaded", "ns", "lower"),
    ("runtime.load_ns.jit", "ns", "lower"),
    ("runtime.signal_observe_ns", "ns", "lower"),
    ("runtime.pool_wake_us", "us", "lower"),
    ("runtime.tier", "tier", "higher"),
    ("runtime.run_1w_us.switch", "us", "lower"),
    ("runtime.run_1w_us.threaded", "us", "lower"),
    ("runtime.run_1w_us.jit", "us", "lower"),
    ("runtime.ns_per_instr_1w", "ns", "lower"),
    ("runtime.ns_per_instr_2w", "ns", "lower"),
    ("runtime.exec_fixed_us", "us", "lower"),
    ("runtime.wait_share", "ratio", "lower"),
    ("runtime.spins", "count", "lower"),
    ("runtime.yields", "count", "lower"),
    ("runtime.parks", "count", "lower"),
    ("runtime.signals", "count", "lower"),
    ("runtime.iterations", "count", "lower"),
    ("runtime.occupancy_min", "ratio", "higher"),
    ("runtime.arena_words", "count", "higher"),
    ("runtime.workers_used", "count", "higher"),
    ("runtime.telemetry_overhead", "x", "lower"),
    ("service.handle_hit_us", "us", "lower"),
    ("service.handle_alias_us", "us", "lower"),
    ("service.handle_miss_ms", "ms", "lower"),
    ("service.overhead_hit_us", "us", "lower"),
    ("service.transport_us", "us", "lower"),
    ("service.p99_us", "us", "lower"),
    ("service.request_codec_us", "us", "lower"),
    ("service.response_codec_us", "us", "lower"),
    ("service.memory_digest_us", "us", "lower"),
    ("service.cache_hit_ratio", "ratio", "higher"),
    ("service.cache_misses", "count", "lower"),
    ("service.cache_evictions", "count", "lower"),
    ("service.cache_entries", "count", "higher"),
    ("service.jobs_failed", "count", "lower"),
    ("simulator.predicted_scaling_2c", "x", "higher"),
    ("bench.trace_overhead", "x", "lower"),
    ("bench.trace_coverage", "ratio", "higher"),
];

/// Collects metrics against one of the tables above, so a name can carry only the unit
/// the table (and `BENCHMARK.json`) declares.
struct Out {
    table: &'static [(&'static str, &'static str, &'static str)],
    metrics: Vec<Metric>,
}

impl Out {
    fn put(&mut self, name: &str, value: f64, samples: usize) {
        let (name, unit, _) = *self
            .table
            .iter()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Geomean over programs of the per-program median of span `span`, scaled.
    fn typical(&mut self, name: &str, samples: &Samples, span: &str, scale: f64) {
        let value = samples.typical(span).map_or(0.0, |ns| ns * scale);
        self.put(name, value, samples.count(span));
    }

    /// Metrics in table order (the order they were declared, not computed).
    fn finish(mut self) -> Vec<Metric> {
        let position = |m: &Metric| self.table.iter().position(|(n, _, _)| *n == m.name);
        self.metrics.sort_by_key(position);
        self.metrics
    }
}

const US: f64 = 1e-3;
const MS: f64 = 1e-6;

/// Geomean, over the programs that have both, of `median(numerator) / median(denominator)`.
fn ratio_of_medians(samples: &Samples, numerator: &str, denominator: &str) -> f64 {
    let denominators = samples.medians_by_id(denominator);
    let ratios: Vec<f64> = samples
        .medians_by_id(numerator)
        .iter()
        .filter_map(|(id, n)| denominators.get(id).map(|d| n / d))
        .collect();
    if ratios.is_empty() {
        0.0
    } else {
        geomean(ratios)
    }
}

/// All socket round-trips of a pass, sorted.
fn round_trips(samples: &Samples) -> Vec<f64> {
    let mut all = samples.pooled("service.request");
    all.sort_by(f64::total_cmp);
    all
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Σ`wait_ns` ÷ Σ(workers × wall) over `reports`: the share of worker time spent blocked
/// in lane waits.
pub fn wait_share<'a>(reports: impl Iterator<Item = &'a TelemetryReport>) -> f64 {
    let (mut waited, mut worker_wall) = (0u64, 0u64);
    for report in reports {
        waited += report
            .workers
            .iter()
            .map(|w| w.counters.wait_ns)
            .sum::<u64>();
        worker_wall += report.wall_ns * report.workers.len() as u64;
    }
    waited as f64 / worker_wall.max(1) as f64
}

/// The workload's primary timing, the base of `bench.trace_overhead`.
fn primary_ns(setup: &Setup, pass: &Pass) -> f64 {
    match setup.workload.focus {
        Phase::Exec => pass.samples.typical("runtime.run_1w").unwrap_or(0.0),
        Phase::Compile => pass
            .samples
            .typical_of("bench.compile", &setup.fixed)
            .unwrap_or(0.0),
        Phase::Serve => percentile(&round_trips(&pass.samples), 0.5),
    }
}

pub fn end_to_end(setup: &Setup, pass: &Pass, setup_s: f64, setups: usize) -> Vec<Metric> {
    let s = &pass.samples;
    let mut out = Out {
        table: &END_TO_END,
        metrics: Vec::new(),
    };
    out.put("setup_s", setup_s, setups);
    out.typical("seq_run_us", s, "ir.seq_run", US);
    out.typical("par1_run_us", s, "runtime.run_1w", US);
    if setup.workers > 1 {
        out.typical("par2_run_us", s, "runtime.run_ww", US);
        let scaling = ratio_of_medians(s, "runtime.run_1w", "runtime.run_ww");
        out.put("scaling_2w", scaling, s.count("runtime.run_ww"));
    }
    let prepare = s.typical_of("bench.compile", &setup.fixed).unwrap_or(0.0);
    out.put("prepare_ms", prepare * MS, s.count("bench.compile"));
    let compile_s: f64 = s.medians("bench.compile").iter().sum::<f64>() / 1e9;
    let instrs: usize = setup.programs.iter().map(|p| p.module.instr_count()).sum();
    out.put(
        "prepare_kinstr_per_s",
        instrs as f64 / 1e3 / compile_s,
        s.count("bench.compile"),
    );
    let trips = round_trips(s);
    out.put(
        "serve_rps",
        pass.serve_requests as f64 / pass.serve_wall_s,
        trips.len(),
    );
    out.put("serve_p50_us", percentile(&trips, 0.5) * US, trips.len());
    out.put("peak_rss_mb", peak_rss_mb(), 1);
    out.finish()
}

pub fn per_layer(setup: &Setup, base: &Pass, traced: &Pass, facts: &StaticFacts) -> Vec<Metric> {
    let s = &traced.samples;
    let programs = setup.programs.len();
    let mut out = Out {
        table: &PER_LAYER,
        metrics: Vec::new(),
    };

    // Compile pipeline, per program.
    out.typical("frontend.parse_us", s, "frontend.parse", US);
    let parse_s: f64 = s.medians("frontend.parse").iter().sum::<f64>() / 1e9;
    out.put(
        "frontend.parse_mb_per_s",
        facts.source_bytes as f64 / 1e6 / parse_s,
        s.count("frontend.parse"),
    );
    out.put("frontend.instrs", facts.instrs as f64, programs);
    out.typical("ir.lower_us", s, "ir.lower", US);
    out.put("ir.image_ops", facts.image_ops as f64, programs);
    out.typical("ir.print_us", s, "ir.print", US);
    out.typical("profiler.profile_us", s, "profiler.profile", US);
    out.put(
        "profiler.overhead_x",
        ratio_of_medians(s, "profiler.profile", "ir.seq_run"),
        s.count("profiler.profile"),
    );
    out.typical("analysis.nesting_us", s, "analysis.nesting", US);
    out.typical("analysis.pointer_us", s, "analysis.pointer", US);
    out.typical("analysis.ddg_us", s, "analysis.ddg", US);
    out.typical("core.analyze_us", s, "core.analyze", US);
    out.typical("core.transform_us", s, "core.transform", US);
    out.typical("core.content_hash_us", s, "core.content_hash", US);
    out.typical("core.prepare_us", s, "core.prepare", US);
    out.typical(
        "core.prepare_unattributed_us",
        s,
        "core.prepare_unattributed",
        US,
    );
    out.put(
        "core.candidate_loops",
        facts.candidate_loops as f64,
        programs,
    );
    out.put("core.selected_loops", facts.selected_loops as f64, programs);
    out.put("core.sync_segments", facts.sync_segments as f64, programs);
    out.put("core.waits", facts.waits as f64, programs);
    out.put("core.signals", facts.signals as f64, programs);
    out.put(
        "core.signals_removed_fraction",
        facts.signals_removed_fraction,
        programs,
    );
    out.put(
        "core.private_words_per_iter",
        facts.private_words_per_iter as f64,
        programs,
    );
    out.typical("runtime.lower_us", s, "runtime.lower", US);

    // The calibration measured in set-up.
    let c = &setup.calibration;
    out.put("runtime.calibrate_ms", setup.calibrate_ms, 1);
    out.put("runtime.alu_ns.switch", c.alu_ns, 1);
    out.put("runtime.alu_ns.threaded", c.alu_threaded_ns, 1);
    out.put("runtime.alu_ns.jit", c.alu_jit_ns, 1);
    out.put("runtime.load_ns.switch", c.load_ns, 1);
    out.put("runtime.load_ns.threaded", c.load_threaded_ns, 1);
    out.put("runtime.load_ns.jit", c.load_jit_ns, 1);
    out.put("runtime.signal_observe_ns", c.signal_observe_ns, 1);
    out.put("runtime.pool_wake_us", c.pool_wake_ns * US, 1);
    let tier = match helix_runtime::ParallelExecutor::new(1).resolved_tier() {
        DispatchTier::Auto | DispatchTier::Switch => 0.0,
        DispatchTier::Threaded => 1.0,
        DispatchTier::Jit => 2.0,
    };
    out.put("runtime.tier", tier, 1);

    // Execution.
    out.typical("runtime.run_1w_us.switch", s, "runtime.run_1w.switch", US);
    out.typical(
        "runtime.run_1w_us.threaded",
        s,
        "runtime.run_1w.threaded",
        US,
    );
    out.typical("runtime.run_1w_us.jit", s, "runtime.run_1w.jit", US);
    let per_instr = |span: &str| {
        let medians = s.medians_by_id(span);
        if medians.is_empty() {
            return 0.0;
        }
        geomean(
            medians
                .iter()
                .map(|(i, ns)| ns / setup.ready[*i].dyn_instrs.max(1) as f64),
        )
    };
    out.put(
        "ir.seq_ns_per_instr",
        per_instr("ir.seq_run"),
        s.count("ir.seq_run"),
    );
    out.put(
        "runtime.ns_per_instr_1w",
        per_instr("runtime.run_1w"),
        s.count("runtime.run_1w"),
    );
    out.put(
        "runtime.ns_per_instr_2w",
        per_instr("runtime.run_ww"),
        s.count("runtime.run_ww"),
    );
    out.typical("runtime.exec_fixed_us", s, "runtime.exec_fixed", US);

    // Telemetry of one sampled `W`-worker run per program (the last one).
    let reports: Vec<_> = traced.telemetry.values().collect();
    let counters = || {
        reports
            .iter()
            .flat_map(|r| r.workers.iter().map(|w| &w.counters))
    };
    out.put(
        "runtime.wait_share",
        wait_share(reports.iter().copied()),
        reports.len(),
    );
    let sum = |field: fn(&helix_runtime::telemetry::WorkerCounters) -> u64| {
        counters().map(field).sum::<u64>() as f64
    };
    out.put("runtime.spins", sum(|c| c.spins), reports.len());
    out.put("runtime.yields", sum(|c| c.yields), reports.len());
    out.put("runtime.parks", sum(|c| c.parks), reports.len());
    out.put("runtime.signals", sum(|c| c.signals), reports.len());
    out.put("runtime.iterations", sum(|c| c.iterations), reports.len());
    out.put("runtime.arena_words", sum(|c| c.arena_words), reports.len());
    let mean = |values: Vec<f64>| values.iter().sum::<f64>() / values.len().max(1) as f64;
    out.put(
        "runtime.occupancy_min",
        mean(
            reports
                .iter()
                .map(|r| r.occupancy().into_iter().fold(1.0, f64::min))
                .collect(),
        ),
        reports.len(),
    );
    out.put(
        "runtime.workers_used",
        mean(
            reports
                .iter()
                .map(|r| {
                    r.workers
                        .iter()
                        .filter(|w| w.counters.iterations > 0)
                        .count() as f64
                })
                .collect(),
        ),
        reports.len(),
    );
    out.put(
        "runtime.telemetry_overhead",
        ratio_of_medians(s, "runtime.run_ww.sampled", "runtime.run_ww"),
        s.count("runtime.run_ww.sampled"),
    );

    // Service: `Server::handle` called directly, by cache outcome.
    out.typical("service.handle_hit_us", s, "service.handle.hit", US);
    out.typical("service.handle_alias_us", s, "service.handle.alias", US);
    out.typical("service.handle_miss_ms", s, "service.handle.miss", MS);
    out.typical("service.overhead_hit_us", s, "service.overhead_hit", US);
    // Socket round-trip of a raw-hash hit minus the direct `handle` of the same programs.
    let over_socket = s.typical("service.request.hit").unwrap_or(0.0);
    let direct = s.typical("service.handle.hit").unwrap_or(0.0);
    out.put(
        "service.transport_us",
        (over_socket - direct) * US,
        s.count("service.request.hit"),
    );
    let trips = round_trips(s);
    out.put(
        "service.p99_us",
        percentile(&trips, tail_percentile(trips.len())) * US,
        trips.len(),
    );
    out.typical("service.request_codec_us", s, "service.request_codec", US);
    out.typical("service.response_codec_us", s, "service.response_codec", US);
    out.typical("service.memory_digest_us", s, "service.memory_digest", US);
    if let Some(replay) = &traced.replay {
        let n = replay.requests as usize;
        let lookups = (replay.hits + replay.misses).max(1) as f64;
        out.put("service.cache_hit_ratio", replay.hits as f64 / lookups, n);
        out.put("service.cache_misses", replay.misses as f64, n);
        out.put("service.cache_evictions", replay.evictions as f64, n);
        out.put("service.cache_entries", replay.entries as f64, n);
        out.put("service.jobs_failed", replay.jobs_failed as f64, n);
    }

    out.put(
        "simulator.predicted_scaling_2c",
        facts.predicted_scaling_2c,
        programs,
    );
    out.put(
        "bench.trace_overhead",
        primary_ns(setup, traced) / primary_ns(setup, base).max(1.0),
        1,
    );
    let self_ns: u64 = traced.tracer.self_time_by_layer().values().sum();
    out.put(
        "bench.trace_coverage",
        self_ns as f64 / 1e9 / traced.wall_s,
        1,
    );
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must declare exactly the metrics this binary prints, with the
    /// same units and directions.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str, next: &str| {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let end = json[start..]
                .find(&format!("\"{next}\""))
                .map_or(json.len(), |e| start + e);
            &json[start..end]
        };
        let check = |text: &str, table: &[(&str, &str, &str)]| {
            assert_eq!(text.matches("\"name\"").count(), table.len());
            for (name, unit, better) in table {
                let entry =
                    format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
                assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
            }
        };
        check(section("end_to_end", "per_layer"), &END_TO_END);
        check(section("per_layer", "\u{0}"), &PER_LAYER);
        for name in crate::workloads::NAMES {
            assert!(section("workloads", "end_to_end").contains(&format!("\"name\": \"{name}\"")));
        }
    }
}
