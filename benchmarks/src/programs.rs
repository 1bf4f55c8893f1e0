//! The benchmark's input programs and their reference outputs.
//!
//! A program enters as *source text* — a corpus file, a SPEC stand-in printed with
//! `format_module`, or a seeded `helix-gen` module — because that is what `helix serve`
//! and the compile workload receive. Its reference output comes from the independent
//! tree-walking interpreter (`helix_ir::interp::Machine`), never from an engine under
//! test: the committed `expected/fixed.tsv` for the 25 fixed programs, a set-up run for
//! generated ones.

use helix_analysis::LoopNestingGraph;
use helix_gen::{GenConfig, GenRng};
use helix_ir::{FuncId, Machine, Memory, Module, Value};
use helix_profiler::profile_program_image;

/// Fuel for every profiling and reference run (the `ServeConfig` default).
pub const FUEL: u64 = 200_000_000;

/// The 12 corpus files.
pub const CORPUS: [&str; 12] = [
    "array_transform",
    "art",
    "blend_mix",
    "hash_sweep",
    "irregular_branch",
    "mcf",
    "nest_flip",
    "nested_helper",
    "pointer_chase",
    "scratch_fold",
    "stencil",
    "sum_reduction",
];

/// The 13 SPEC CPU2000 stand-ins of `helix-workloads`.
pub const SPEC: [&str; 13] = [
    "gzip", "vpr", "mesa", "art", "mcf", "equake", "crafty", "ammp", "parser", "gap", "vortex",
    "bzip2", "twolf",
];

/// Shape of a seeded `helix-gen` program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GenKind {
    /// `GenConfig::pointer_heavy()`.
    PointerHeavy,
    /// `GenConfig::fuzz()`: every shape on.
    Fuzz,
}

impl GenKind {
    fn config(self) -> GenConfig {
        match self {
            GenKind::PointerHeavy => GenConfig::pointer_heavy(),
            GenKind::Fuzz => GenConfig::fuzz(),
        }
    }

    fn tag(self) -> &'static str {
        match self {
            GenKind::PointerHeavy => "pointer",
            GenKind::Fuzz => "fuzz",
        }
    }
}

/// Where a program's text comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    Corpus(&'static str),
    Spec(&'static str),
    /// The next seed of the workload's stream whose `main` has a candidate loop.
    Gen(GenKind),
}

/// What a correct run must produce, from the tree-walking interpreter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reference {
    /// The entry's return value as `helix serve` prints it (`none` for no value).
    pub result: String,
    /// Words of the null word plus the module's globals (the untransformed heap base).
    pub globals_words: usize,
    /// [`digest`] of those words. A HELIX-transformed run must reproduce them exactly;
    /// beyond them it appends a frame global and may leave privatized scratch unwritten.
    pub globals_digest: u64,
    /// [`digest`] of the whole live prefix (globals + used heap): what a sequential run
    /// of the untransformed module must reproduce.
    pub live_digest: u64,
}

pub struct Program {
    pub name: String,
    pub text: String,
    pub module: Module,
    pub main: FuncId,
    pub reference: Reference,
    /// One of the 25 fixed programs (as opposed to seeded `helix-gen` output).
    pub fixed: bool,
}

/// Word-wise FNV-style digest of a memory prefix; floats by bit pattern and tagged, so
/// `Int(0)` and `Float(0.0)` differ.
pub fn digest(words: &[Value]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    words.iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        let h = (h ^ u64::from(w.is_float())).wrapping_mul(PRIME);
        (h ^ w.to_bits()).wrapping_mul(PRIME)
    })
}

pub fn format_result(value: Option<Value>) -> String {
    value.map_or_else(|| "none".to_string(), helix_service::protocol::format_value)
}

fn live_words(memory: &Memory) -> &[Value] {
    &memory.words()[..memory.heap_base() as usize + memory.heap_used()]
}

impl Reference {
    /// Runs `module` on the tree-walking interpreter.
    pub fn compute(module: &Module, main: FuncId) -> Result<Reference, String> {
        let mut machine = Machine::new(module);
        machine.set_fuel(FUEL);
        let result = machine
            .call(main, &[])
            .map_err(|e| format!("reference run failed: {e}"))?;
        let memory = machine.memory();
        let globals_words = memory.heap_base() as usize;
        Ok(Reference {
            result: format_result(result),
            globals_words,
            globals_digest: digest(&memory.words()[..globals_words]),
            live_digest: digest(live_words(memory)),
        })
    }

    /// Does a sequential run of the untransformed module match?
    pub fn matches_sequential(&self, result: Option<Value>, memory: &Memory) -> bool {
        format_result(result) == self.result && digest(live_words(memory)) == self.live_digest
    }

    /// Does a run of the HELIX-transformed module match (result and original globals)?
    pub fn matches_transformed(&self, result: Option<Value>, memory: &Memory) -> bool {
        format_result(result) == self.result
            && memory.words().len() >= self.globals_words
            && digest(&memory.words()[..self.globals_words]) == self.globals_digest
    }

    fn tsv_line(&self, name: &str) -> String {
        format!(
            "{name}\t{}\t{}\t{:016x}\t{:016x}",
            self.result, self.globals_words, self.globals_digest, self.live_digest
        )
    }
}

const FIXED_TSV: &str = include_str!("../expected/fixed.tsv");

/// The committed reference of a fixed program.
fn committed_reference(name: &str) -> Option<Reference> {
    let line = FIXED_TSV
        .lines()
        .find(|l| l.split('\t').next() == Some(name))?;
    let fields: Vec<&str> = line.split('\t').collect();
    Some(Reference {
        result: fields.get(1)?.to_string(),
        globals_words: fields.get(2)?.parse().ok()?,
        globals_digest: u64::from_str_radix(fields.get(3)?, 16).ok()?,
        live_digest: u64::from_str_radix(fields.get(4)?, 16).ok()?,
    })
}

/// `expected/fixed.tsv` as the tree-walking interpreter produces it today.
pub fn fixed_tsv() -> Result<String, String> {
    let mut out = String::from("# name\tresult\tglobals_words\tglobals_digest\tlive_digest\n");
    let sources = CORPUS
        .iter()
        .map(|n| Source::Corpus(n))
        .chain(SPEC.iter().map(|n| Source::Spec(n)));
    for source in sources {
        let (name, text) = fixed_text(source)?;
        let (module, main) = parse(&name, &text)?;
        out.push_str(&Reference::compute(&module, main)?.tsv_line(&name));
        out.push('\n');
    }
    Ok(out)
}

fn parse(name: &str, text: &str) -> Result<(Module, FuncId), String> {
    let module = helix_frontend::parse_and_verify(text).map_err(|e| format!("{name}: {e}"))?;
    let main = module
        .function_by_name("main")
        .ok_or_else(|| format!("{name}: no `main` function"))?;
    Ok((module, main))
}

fn fixed_text(source: Source) -> Result<(String, String), String> {
    match source {
        Source::Corpus(stem) => {
            let path = helix_workloads::corpus_dir().join(format!("{stem}.hir"));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok((format!("corpus.{stem}"), text))
        }
        Source::Spec(bench) => {
            let spec = helix_workloads::all_benchmarks()
                .into_iter()
                .find(|b| b.name == bench)
                .ok_or_else(|| format!("no SPEC stand-in named {bench}"))?;
            let (module, _) = spec.build();
            Ok((
                format!("spec.{bench}"),
                helix_ir::printer::format_module(&module),
            ))
        }
        Source::Gen(_) => Err("generated programs have no fixed text".to_string()),
    }
}

/// Does `main` contain a loop the training run executes — i.e. will `Helix::prepare`
/// find a plan? Independent of the calibration, so the inputs depend on the seed alone.
fn has_candidate_loop(module: &Module, main: FuncId) -> bool {
    let nesting = LoopNestingGraph::new(module);
    profile_program_image(module, &nesting, main, &[]).is_ok_and(|profile| {
        nesting
            .iter()
            .any(|n| n.func == main && profile.executed((n.func, n.loop_id)))
    })
}

/// Materializes `sources` in order. Generated programs draw their seeds from `rng`;
/// a seed whose `main` has no candidate loop is skipped, so the set is a function of
/// the stream alone. A fixed program whose interpreter output no longer matches
/// `expected/fixed.tsv` is reported in the second list (and keeps the committed
/// reference, so every later check of it fails too).
pub fn build(sources: &[Source], rng: &mut GenRng) -> Result<(Vec<Program>, Vec<String>), String> {
    let mut programs = Vec::with_capacity(sources.len());
    let mut drifted = Vec::new();
    for &source in sources {
        let program = match source {
            Source::Gen(kind) => loop {
                let seed = rng.next_u64();
                let generated = helix_gen::generate(seed, &kind.config());
                if !has_candidate_loop(&generated.module, generated.main) {
                    continue;
                }
                let name = format!("gen.{}.{seed:016x}", kind.tag());
                let text = generated.text();
                // Enter through the frontend like every other program.
                let (module, main) = parse(&name, &text)?;
                let reference = Reference::compute(&module, main)?;
                break Program {
                    name,
                    text,
                    module,
                    main,
                    reference,
                    fixed: false,
                };
            },
            fixed => {
                let (name, text) = fixed_text(fixed)?;
                let (module, main) = parse(&name, &text)?;
                let reference = committed_reference(&name)
                    .ok_or_else(|| format!("{name}: missing from expected/fixed.tsv"))?;
                if Reference::compute(&module, main)? != reference {
                    drifted.push(name.clone());
                }
                Program {
                    name,
                    text,
                    module,
                    main,
                    reference,
                    fixed: true,
                }
            }
        };
        programs.push(program);
    }
    Ok((programs, drifted))
}
