//! Generates the parallel-kernel corpus programs (`corpus/hash_sweep.hir`,
//! `corpus/blend_mix.hir`, `corpus/scratch_fold.hir`, `corpus/nest_flip.hir`):
//! loop-dominated kernels whose setup lives in global initializers rather than sequential
//! init loops, so nearly all of their runtime is the parallelizable loop. Re-run with
//! `cargo run --example gen_parallel_corpus` after changing the builders; output is
//! canonical `.hir`, and CI checks that the committed files match it.

use helix_ir::builder::{FunctionBuilder, ModuleBuilder};
use helix_ir::{printer, verify_module, BinOp, Module, Operand, UnOp};

/// 16k-iteration integer hash sweep: 40 ALU rounds per element, one store.
fn hash_sweep() -> Module {
    let n = 16_384i64;
    let mut mb = ModuleBuilder::new("hash_sweep");
    let out = mb.add_global("out", n as usize);
    let mut fb = FunctionBuilder::new("main", 0);
    let lh = fb.counted_loop(Operand::int(0), Operand::int(n), 1);
    let mut v = fb.binary_to_new(
        BinOp::Mul,
        Operand::Var(lh.induction_var),
        Operand::int(2654435761),
    );
    for round in 0..20 {
        let m = fb.binary_to_new(BinOp::Mul, Operand::Var(v), Operand::int(31 + round));
        v = fb.binary_to_new(BinOp::Xor, Operand::Var(m), Operand::int(0x9e3779b9));
    }
    let slot = fb.binary_to_new(
        BinOp::Add,
        Operand::Global(out),
        Operand::Var(lh.induction_var),
    );
    fb.store(Operand::Var(slot), 0, Operand::Var(v));
    fb.br(lh.latch);
    fb.switch_to(lh.exit);
    // Checksum a few fixed slots so the kernel's result observes the stores.
    let a = fb.load_to_new(Operand::Global(out), 1);
    let b = fb.load_to_new(Operand::Global(out), n / 2);
    let c = fb.load_to_new(Operand::Global(out), n - 1);
    let ab = fb.binary_to_new(BinOp::Xor, Operand::Var(a), Operand::Var(b));
    let abc = fb.binary_to_new(BinOp::Xor, Operand::Var(ab), Operand::Var(c));
    fb.ret(Some(Operand::Var(abc)));
    mb.add_function(fb.finish());
    mb.finish()
}

/// 12k-iteration float blend: a chain of float multiply/add/min/max rounds per element.
fn blend_mix() -> Module {
    let n = 12_288i64;
    let mut mb = ModuleBuilder::new("blend_mix");
    let out = mb.add_global("out", n as usize);
    let mut fb = FunctionBuilder::new("main", 0);
    let lh = fb.counted_loop(Operand::int(0), Operand::int(n), 1);
    let x = fb.unary_to_new(UnOp::ToFloat, Operand::Var(lh.induction_var));
    let mut v = fb.binary_to_new(BinOp::Mul, Operand::Var(x), Operand::float(0.6180339887));
    for round in 0..14 {
        let scale = 1.0 + (round as f64) * 0.125;
        let m = fb.binary_to_new(BinOp::Mul, Operand::Var(v), Operand::float(scale));
        let s = fb.binary_to_new(BinOp::Add, Operand::Var(m), Operand::float(0.25));
        let lo = fb.binary_to_new(BinOp::Max, Operand::Var(s), Operand::float(-1.0e9));
        v = fb.binary_to_new(BinOp::Min, Operand::Var(lo), Operand::float(1.0e9));
    }
    let slot = fb.binary_to_new(
        BinOp::Add,
        Operand::Global(out),
        Operand::Var(lh.induction_var),
    );
    fb.store(Operand::Var(slot), 0, Operand::Var(v));
    fb.br(lh.latch);
    fb.switch_to(lh.exit);
    let a = fb.load_to_new(Operand::Global(out), 3);
    let b = fb.load_to_new(Operand::Global(out), n - 2);
    let sum = fb.binary_to_new(BinOp::Add, Operand::Var(a), Operand::Var(b));
    let as_int = fb.unary_to_new(UnOp::ToInt, Operand::Var(sum));
    fb.ret(Some(Operand::Var(as_int)));
    mb.add_function(fb.finish());
    mb.finish()
}

/// 10k-iteration fold through a per-iteration scratch buffer: the privatization showcase.
/// Each iteration allocates an 6-word scratch, fills it with derived values at constant
/// offsets, folds it back and accumulates into a global through the synchronized segment.
fn scratch_fold() -> Module {
    let n = 10_000i64;
    let mut mb = ModuleBuilder::new("scratch_fold");
    let acc = mb.add_global("acc", 1);
    let mut fb = FunctionBuilder::new("main", 0);
    let lh = fb.counted_loop(Operand::int(0), Operand::int(n), 1);
    let p = fb.new_var();
    fb.alloc(p, Operand::int(6));
    let mut h = fb.binary_to_new(
        BinOp::Mul,
        Operand::Var(lh.induction_var),
        Operand::int(1099087573),
    );
    for slot in 0..6i64 {
        let m = fb.binary_to_new(BinOp::Mul, Operand::Var(h), Operand::int(37 + slot));
        h = fb.binary_to_new(BinOp::Xor, Operand::Var(m), Operand::int(0x5bd1e995));
        fb.store(Operand::Var(p), slot, Operand::Var(h));
    }
    let mut fold = fb.load_to_new(Operand::Var(p), 0);
    for slot in 1..6i64 {
        let w = fb.load_to_new(Operand::Var(p), slot);
        let sh = fb.binary_to_new(BinOp::Shr, Operand::Var(w), Operand::int(7));
        fold = fb.binary_to_new(BinOp::Add, Operand::Var(fold), Operand::Var(sh));
    }
    let cur = fb.load_to_new(Operand::Global(acc), 0);
    let next = fb.binary_to_new(BinOp::Add, Operand::Var(cur), Operand::Var(fold));
    fb.store(Operand::Global(acc), 0, Operand::Var(next));
    fb.br(lh.latch);
    fb.switch_to(lh.exit);
    let r = fb.load_to_new(Operand::Global(acc), 0);
    fb.ret(Some(Operand::Var(r)));
    mb.add_function(fb.finish());
    mb.finish()
}

/// The selection-recalibration witness: two sibling top-level loops whose best plan
/// flips between paper-constant and measured-cost signal pricing.
///
/// Loop `A` is hot, tight and signal-bound: 24576 iterations of ~15 cycles of hash work
/// around a 3-op read-modify-write of the carried global `acc` — every iteration pays one
/// synchronized segment. Priced with the paper's 4-cycle prefetched signal, the segment
/// overhead (two signals per iteration) is small next to the parallel work, and `A` is the
/// hottest selected loop. Priced with *measured* costs — on a host where a cross-thread
/// signal costs a scheduler handoff, hundreds to thousands of model cycles — `A`'s 24576
/// signal pairs drown its savings and selection correctly drops it, keeping only loop `B`:
/// 16 heavy iterations (a 1600-element doall body each), whose per-iteration work dwarfs
/// even the measured signal cost. The flip is asserted in `tests/corpus_pipeline.rs`, and
/// the parallel-runtime bench executes both choices to confirm the measured one is the
/// faster plan on the actual runtime.
fn nest_flip() -> Module {
    let mut mb = ModuleBuilder::new("nest_flip");
    let acc = mb.add_global("acc", 1);
    let out = mb.add_global("out", 1600);
    let mut fb = FunctionBuilder::new("main", 0);

    // A: tight signal-bound accumulator, the paper-constant favourite.
    let a = fb.counted_loop(Operand::int(0), Operand::int(24_576), 1);
    let mut v = fb.binary_to_new(
        BinOp::Mul,
        Operand::Var(a.induction_var),
        Operand::int(2654435761),
    );
    for round in 0..5 {
        let m = fb.binary_to_new(BinOp::Mul, Operand::Var(v), Operand::int(89 + round));
        v = fb.binary_to_new(BinOp::Xor, Operand::Var(m), Operand::int(0x9e3779b9));
    }
    let cur = fb.load_to_new(Operand::Global(acc), 0);
    let next = fb.binary_to_new(BinOp::Add, Operand::Var(cur), Operand::Var(v));
    fb.store(Operand::Global(acc), 0, Operand::Var(next));
    fb.br(a.latch);
    fb.switch_to(a.exit);

    // B: few heavy iterations (each a 1600-element doall), the measured-cost favourite.
    let b = fb.counted_loop(Operand::int(0), Operand::int(16), 1);
    let c = fb.counted_loop(Operand::int(0), Operand::int(1600), 1);
    let mut w = fb.binary_to_new(
        BinOp::Mul,
        Operand::Var(c.induction_var),
        Operand::int(1099087573),
    );
    w = fb.binary_to_new(BinOp::Xor, Operand::Var(w), Operand::Var(b.induction_var));
    let m1 = fb.binary_to_new(BinOp::Mul, Operand::Var(w), Operand::int(131));
    let x1 = fb.binary_to_new(BinOp::Xor, Operand::Var(m1), Operand::int(0x85eb));
    let m2 = fb.binary_to_new(BinOp::Mul, Operand::Var(x1), Operand::int(197));
    w = fb.binary_to_new(BinOp::Xor, Operand::Var(m2), Operand::int(0x27d4));
    let slot = fb.binary_to_new(
        BinOp::Add,
        Operand::Global(out),
        Operand::Var(c.induction_var),
    );
    fb.store(Operand::Var(slot), 0, Operand::Var(w));
    fb.br(c.latch);
    fb.switch_to(c.exit);
    fb.br(b.latch);
    fb.switch_to(b.exit);

    // Checksum observing both the carried accumulator and the doall output.
    let rg = fb.load_to_new(Operand::Global(acc), 0);
    let r0 = fb.load_to_new(Operand::Global(out), 7);
    let r1 = fb.load_to_new(Operand::Global(out), 1599);
    let x = fb.binary_to_new(BinOp::Xor, Operand::Var(rg), Operand::Var(r0));
    let r = fb.binary_to_new(BinOp::Xor, Operand::Var(x), Operand::Var(r1));
    fb.ret(Some(Operand::Var(r)));
    mb.add_function(fb.finish());
    mb.finish()
}

fn main() {
    for module in [hash_sweep(), blend_mix(), scratch_fold(), nest_flip()] {
        verify_module(&module).expect("kernel verifies");
        let path = format!("corpus/{}.hir", module.name);
        std::fs::write(&path, printer::format_module(&module)).expect("write corpus file");
        println!("wrote {path}");
    }
}
