//! Round-trip tests pinning the printer/parser symmetry: the text `helix_ir::printer` emits
//! is the canonical grammar, so `parse(print(m)) == m` must hold for every module the system
//! can produce — the full synthetic workload suite, the checked-in corpus, and programs
//! drawn over a fixed seed range from `helix::gen::generate` (the structured generator
//! behind `helix fuzz`, with sync noise enabled so `wait`/`signal` flow through the parser
//! too).

use helix::frontend::{parse_and_verify, parse_module};
use helix::gen::{generate, GenConfig};
use helix::ir::builder::{FunctionBuilder, ModuleBuilder};
use helix::ir::printer::format_module;
use helix::ir::{DepId, Machine, Operand, UnOp, Value};

#[test]
fn every_workload_round_trips_through_the_frontend() {
    for bench in helix::workloads::all_benchmarks() {
        let (module, _main) = bench.build();
        let printed = format_module(&module);
        let parsed = parse_and_verify(&printed)
            .unwrap_or_else(|e| panic!("{} does not re-parse: {e}", bench.name));
        assert_eq!(module, parsed, "{}: parse(print(m)) != m", bench.name);
        assert_eq!(
            printed,
            format_module(&parsed),
            "{}: printing is not a fixpoint",
            bench.name
        );
    }
}

#[test]
fn every_corpus_file_round_trips_and_runs() {
    let programs = helix::workloads::load_corpus().expect("corpus loads");
    assert!(programs.len() >= 6, "corpus must hold at least 6 programs");
    for (name, module, main) in programs {
        // Canonical fixpoint: printing then re-parsing reproduces the module exactly.
        let printed = format_module(&module);
        let parsed = parse_and_verify(&printed)
            .unwrap_or_else(|e| panic!("{name}: printed form does not re-parse: {e}"));
        assert_eq!(module, parsed, "{name}: parse(print(m)) != m");
        // And the parsed copy still runs to the same checksum.
        let mut m1 = Machine::new(&module);
        m1.set_fuel(500_000_000);
        let mut m2 = Machine::new(&parsed);
        m2.set_fuel(500_000_000);
        let r1 = m1.call(main, &[]).unwrap();
        let r2 = m2.call(main, &[]).unwrap();
        assert_eq!(
            r1, r2,
            "{name}: reparsed module computes a different result"
        );
    }
}

#[test]
fn exotic_names_and_values_round_trip() {
    let mut mb = ModuleBuilder::new("weird name \"quoted\"");
    mb.add_global_init(
        "init\\escapes\n",
        6,
        vec![
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(2.5),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(1e-300),
        ],
    );
    let mut fb = FunctionBuilder::new("0numeric name", 1);
    let p = fb.param(0);
    let f = fb.new_var();
    fb.const_float(f, -0.0);
    let u = fb.new_var();
    fb.unary(u, UnOp::ToFloat, Operand::Var(p));
    fb.ret(Some(Operand::Var(u)));
    mb.add_function(fb.finish());
    let module = mb.finish();
    let printed = format_module(&module);
    let parsed = parse_module(&printed).expect("exotic module parses");
    assert_eq!(module, parsed);
}

/// One instruction kind the grammar must round-trip but the structured generator never
/// emits in the exact exotic combination below (select between a global base and a float
/// immediate, negative store offsets clamped away, unary chains on immediates).
#[test]
fn grammar_corner_instructions_round_trip() {
    let mut mb = ModuleBuilder::new("corners");
    let g = mb.add_global("buf", 8);
    let g2 = mb.add_global_init("tab", 4, vec![Value::Int(7), Value::Float(0.5)]);
    let mut fb = FunctionBuilder::new("f", 1);
    let p = fb.param(0);
    let s = fb.new_var();
    fb.select(s, Operand::Var(p), Operand::Global(g2), Operand::float(2.5));
    let u = fb.new_var();
    fb.unary(u, UnOp::Not, Operand::int(-1));
    let c = fb.new_var();
    fb.copy(c, Operand::Global(g));
    fb.store(Operand::Global(g), 7, Operand::Var(u));
    fb.wait(DepId::new(2));
    fb.signal(DepId::new(2));
    fb.ret(None);
    mb.add_function(fb.finish());
    let module = mb.finish();
    let printed = format_module(&module);
    let parsed = parse_module(&printed).expect("corner module parses");
    assert_eq!(module, parsed);
    assert_eq!(printed, format_module(&parsed));
}

/// Programs each generated-module property checks: seeds `1..=GENERATED_CASES`. A failing
/// seed reproduces with `helix::gen::generate(seed, &GenConfig::…())` on the test's preset.
const GENERATED_CASES: u64 = 32;

#[test]
fn generated_modules_round_trip() {
    for seed in 1..=GENERATED_CASES {
        // The roundtrip preset draws from the full shape mix — nested loops, pointer
        // chases, calls with in-loop ret, float reductions, allocs — plus balanced
        // wait/signal noise, so every mnemonic the printer can emit flows through the
        // parser here.
        let gp = generate(seed, &GenConfig::roundtrip());
        helix::ir::verify_module(&gp.module)
            .unwrap_or_else(|e| panic!("seed {seed}: generated module does not verify: {e}"));
        let printed = format_module(&gp.module);
        let parsed = parse_module(&printed)
            .unwrap_or_else(|e| panic!("seed {seed}: printed module does not parse: {e}"));
        assert_eq!(gp.module, parsed, "seed {seed}: parse(print(m)) != m");
        // Printing is a fixpoint of parse∘print.
        assert_eq!(
            printed,
            format_module(&parsed),
            "seed {seed}: printing is not a fixpoint"
        );
    }
}

#[test]
fn generated_modules_reparse_to_the_same_behaviour() {
    for seed in 1..=GENERATED_CASES {
        // Beyond structural equality: the re-parsed module must *execute* identically
        // (same result, same instruction count), pinning printer/parser agreement on
        // value semantics, not just shape.
        let gp = generate(seed, &GenConfig::small());
        let printed = format_module(&gp.module);
        let parsed = parse_and_verify(&printed)
            .unwrap_or_else(|e| panic!("seed {seed}: printed module does not re-parse: {e}"));
        let mut m1 = Machine::new(&gp.module);
        m1.set_fuel(20_000_000);
        let mut m2 = Machine::new(&parsed);
        m2.set_fuel(20_000_000);
        let main2 = parsed
            .function_by_name("main")
            .unwrap_or_else(|| panic!("seed {seed}: main does not survive the round trip"));
        let r1 = m1
            .call(gp.main, &[])
            .unwrap_or_else(|e| panic!("seed {seed}: original module fails: {e}"));
        let r2 = m2
            .call(main2, &[])
            .unwrap_or_else(|e| panic!("seed {seed}: reparsed module fails: {e}"));
        assert_eq!(
            r1, r2,
            "seed {seed}: reparsed module computes a different result"
        );
        assert_eq!(
            m1.stats(),
            m2.stats(),
            "seed {seed}: reparsed module runs differently"
        );
    }
}
