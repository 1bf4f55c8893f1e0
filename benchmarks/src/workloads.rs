//! The five named workloads: which programs, which request mix, and which phase gets
//! most of the measuring window.
//!
//! Every workload runs all three phases — compile, execute, serve — over its own program
//! set, so every end-to-end metric exists on every workload; the workload's *focus* phase
//! gets 70 % of the window and the other two 15 % each. The seed drives only the
//! generated programs and the request order.

use crate::programs::{GenKind, Source, CORPUS, SPEC};
use helix_gen::GenRng;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Exec,
    Compile,
    Serve,
}

pub struct Workload {
    pub focus: Phase,
    pub sources: Vec<Source>,
    /// `ServeConfig::cache_cap` of the daemon.
    pub cache_cap: usize,
    /// The first this-many programs are the serve phase's working set.
    pub working_set: usize,
    /// Zipf(1.0) popularity by position in the working set instead of uniform.
    pub zipf: bool,
}

pub const NAMES: [&str; 5] = [
    "exec_regular",
    "exec_irregular",
    "compile_cold",
    "serve_warm",
    "serve_churn",
];

/// Counted arithmetic, reduction and stencil loops: the JIT covers them and their
/// sequential segments are light.
pub const REGULAR: [Source; 10] = [
    Source::Corpus("array_transform"),
    Source::Corpus("sum_reduction"),
    Source::Corpus("stencil"),
    Source::Corpus("hash_sweep"),
    Source::Corpus("nest_flip"),
    Source::Corpus("art"),
    Source::Spec("equake"),
    Source::Spec("mesa"),
    Source::Spec("gzip"),
    Source::Spec("bzip2"),
];

/// Pointer chasing, data-dependent branches, calls and privatized scratch: loads, stores,
/// select and calls side-exit the JIT and carried pointers sit inside sequential segments.
pub const IRREGULAR: [Source; 10] = [
    Source::Corpus("pointer_chase"),
    Source::Corpus("mcf"),
    Source::Corpus("irregular_branch"),
    Source::Corpus("nested_helper"),
    Source::Corpus("blend_mix"),
    Source::Corpus("scratch_fold"),
    Source::Spec("parser"),
    Source::Spec("twolf"),
    Source::Spec("vortex"),
    Source::Spec("crafty"),
];

/// `helix serve`'s default cache capacity (`ServeConfig::default().cache_cap`).
const DEFAULT_CACHE_CAP: usize = 64;

fn with_gen(fixed: &[Source], kinds: &[GenKind], count: usize) -> Vec<Source> {
    let generated = (0..count).map(|i| Source::Gen(kinds[i % kinds.len()]));
    fixed.iter().copied().chain(generated).collect()
}

fn all_corpus() -> Vec<Source> {
    CORPUS.iter().map(|n| Source::Corpus(n)).collect()
}

pub fn by_name(name: &str) -> Option<Workload> {
    let mixed = [GenKind::Fuzz, GenKind::PointerHeavy];
    Some(match name {
        "exec_regular" => Workload {
            focus: Phase::Exec,
            sources: REGULAR.to_vec(),
            cache_cap: DEFAULT_CACHE_CAP,
            working_set: 8,
            zipf: false,
        },
        "exec_irregular" => Workload {
            focus: Phase::Exec,
            sources: IRREGULAR.to_vec(),
            cache_cap: DEFAULT_CACHE_CAP,
            working_set: 8,
            zipf: false,
        },
        "compile_cold" => {
            let mut fixed = all_corpus();
            fixed.extend(SPEC.iter().map(|n| Source::Spec(n)));
            Workload {
                focus: Phase::Compile,
                sources: with_gen(&fixed, &mixed, 48),
                cache_cap: DEFAULT_CACHE_CAP,
                working_set: 8,
                zipf: false,
            }
        }
        // Four light programs from each exec list, all resident after warm-up.
        "serve_warm" => Workload {
            focus: Phase::Serve,
            sources: vec![
                REGULAR[0],
                REGULAR[2],
                REGULAR[6],
                REGULAR[8],
                IRREGULAR[0],
                IRREGULAR[2],
                IRREGULAR[6],
                IRREGULAR[7],
            ],
            cache_cap: DEFAULT_CACHE_CAP,
            working_set: 8,
            zipf: false,
        },
        // Four times more programs than cache slots: about half the requests miss.
        "serve_churn" => Workload {
            focus: Phase::Serve,
            sources: with_gen(&all_corpus(), &mixed, 20),
            cache_cap: 8,
            working_set: 32,
            zipf: true,
        },
        _ => return None,
    })
}

impl Workload {
    /// Share of the measuring window `phase` gets.
    pub fn share(&self, phase: Phase) -> f64 {
        if phase == self.focus {
            0.7
        } else {
            0.15
        }
    }
}

/// One request of the closed-loop replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Req {
    /// Byte-identical resubmission of program `i`: a raw-hash hit when resident.
    Plain(usize),
    /// Program `i` with a fresh trailing comment: raw miss, parse, canonical-hash lookup.
    Alias(usize),
    Ping,
}

/// Requests per block of the schedule, and blocks pre-drawn; the replay wraps around.
const BLOCK: usize = 256;
const BLOCKS: usize = 64;

/// The seeded request schedule. Every block of 256 requests has the same composition —
/// 5 % ping, 10 % alias, 85 % plain, programs in proportion to their popularity (uniform,
/// or Zipf(1.0) by position in the working set) — and the seed shuffles each block, so
/// it decides the *order* of requests (and with it the cache's hits and evictions) but
/// not how much work a window of requests contains. A program's rank is the same for
/// every seed: run times differ fifty-fold between programs, so a seeded ranking or an
/// independent draw per request would make latency a property of the seed.
pub fn schedule(workload: &Workload, rng: &mut GenRng) -> Vec<Req> {
    let n = workload.working_set.min(workload.sources.len());
    let (pings, aliases) = (BLOCK * 5 / 100, BLOCK * 10 / 100);
    let runs = BLOCK - pings;
    // Largest-remainder apportionment of the block's run requests to programs.
    let weights: Vec<f64> = (0..n)
        .map(|rank| {
            if workload.zipf {
                1.0 / (rank + 1) as f64
            } else {
                1.0
            }
        })
        .collect();
    let total: f64 = weights.iter().sum();
    let quotas: Vec<f64> = weights.iter().map(|w| w / total * runs as f64).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder.sort_by(|a, b| (quotas[*b].fract()).total_cmp(&quotas[*a].fract()));
    let assigned: usize = counts.iter().sum();
    for i in by_remainder.into_iter().take(runs - assigned) {
        counts[i] += 1;
    }
    let programs: Vec<usize> = (0..n)
        .flat_map(|i| std::iter::repeat_n(i, counts[i]))
        .collect();

    let shuffle = |items: &mut Vec<Req>, rng: &mut GenRng| {
        for i in (1..items.len()).rev() {
            items.swap(i, rng.below(i as u64 + 1) as usize);
        }
    };
    let mut schedule = Vec::with_capacity(BLOCK * BLOCKS);
    for _ in 0..BLOCKS {
        // Shuffle the programs first so the aliases fall on a random subset of them.
        let mut block: Vec<Req> = programs.iter().map(|i| Req::Plain(*i)).collect();
        shuffle(&mut block, rng);
        for req in block.iter_mut().take(aliases) {
            if let Req::Plain(i) = *req {
                *req = Req::Alias(i);
            }
        }
        block.extend(std::iter::repeat_n(Req::Ping, pings));
        shuffle(&mut block, rng);
        schedule.extend(block);
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;

    fn inputs(name: &str, seed: u64) -> (Vec<String>, Vec<Req>) {
        let workload = by_name(name).unwrap();
        let mut rng = GenRng::new(seed);
        let (built, drifted) = programs::build(&workload.sources, &mut rng).unwrap();
        assert!(drifted.is_empty(), "{drifted:?}");
        let texts = built.into_iter().map(|p| p.text).collect();
        (texts, schedule(&workload, &mut rng))
    }

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        for name in ["compile_cold", "serve_churn"] {
            let (a, b, c) = (inputs(name, 7), inputs(name, 7), inputs(name, 8));
            assert_eq!(a, b, "{name}: the seed alone must determine the inputs");
            assert_ne!(a.0, c.0, "{name}: generated programs must follow the seed");
            assert_ne!(
                a.1, c.1,
                "{name}: the request schedule must follow the seed"
            );
        }
        // The other workloads have no generated program; their schedule follows the seed.
        let (a, c) = (inputs("serve_warm", 7), inputs("serve_warm", 8));
        assert_eq!(a.0, c.0);
        assert_ne!(a.1, c.1);
    }

    #[test]
    fn exec_lists_are_disjoint_and_workloads_resolve() {
        for r in REGULAR {
            assert!(!IRREGULAR.contains(&r), "{r:?} is in both exec lists");
        }
        for name in NAMES {
            let w = by_name(name).unwrap();
            assert!(w.working_set <= w.sources.len());
        }
        assert_eq!(by_name("compile_cold").unwrap().sources.len(), 12 + 13 + 48);
        assert_eq!(by_name("serve_churn").unwrap().sources.len(), 32);
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn schedule_mix_matches_the_stated_shares() {
        let workload = by_name("serve_churn").unwrap();
        let reqs = schedule(&workload, &mut GenRng::new(3));
        let share =
            |f: fn(&Req) -> bool| reqs.iter().filter(|r| f(r)).count() as f64 / reqs.len() as f64;
        assert!((share(|r| matches!(r, Req::Plain(_))) - 0.85).abs() < 0.02);
        assert!((share(|r| matches!(r, Req::Alias(_))) - 0.10).abs() < 0.02);
        assert!((share(|r| matches!(r, Req::Ping)) - 0.05).abs() < 0.02);
    }
}
