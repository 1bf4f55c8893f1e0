//! The template-JIT dispatch tier (`DispatchTier::Jit`): threaded dispatch whose
//! straight-line data runs are compiled to native x86-64 and executed as one handler call.
//!
//! ## Architecture: patched threaded tables
//!
//! The JIT does not bring its own driver. It builds the exact `IterTable` /
//! `FlatTables` the threaded tier uses, finds every maximal run of consecutive
//! JIT-coverable ops (a **chunk**, ≥ 2 ops), compiles each chunk to
//! straight-line machine code with `emit`, and rewrites only the chunk's *head* slot to
//! a `h_jit` trampoline that calls the native code. All chunks of one engine — its
//! iteration stream and every flat function it decoded — share one executable mapping,
//! built by `build_tables` and owned by one `JitArtifact`. Everything else — the dispatch
//! loop, Wait/Signal blocking, claim protocol, telemetry, deadlock reporting, panic
//! propagation through the worker pool — is the threaded tier's code running unmodified.
//!
//! ## The trampoline / resume-pc contract
//!
//! A chunk is `extern "C" fn(regs: *mut Value) -> u64`: it receives the guest register
//! slab and returns the pc where threaded dispatch must resume. On the normal path that
//! is the slot after the chunk; when an op's operands fall outside its compiled fast path
//! (e.g. a float reaching an integer-only template) the chunk returns that op's own pc
//! **before writing anything for it** — a *side exit*. Interior slots of a chunk keep
//! their original threaded handlers, so the resumed interpreter executes the op the
//! native code refused, and jumps *into* the middle of a chunk (loop back-edges, branch
//! targets) also just work. A side exit at the head pc would re-enter the trampoline, so
//! `h_jit` keeps the head's original decoded `TOp` (in `JitArtifact`) and runs it
//! directly when the chunk reports zero progress — guaranteeing forward progress with the
//! interpreter's exact semantics.
//!
//! ## Partial coverage, total correctness
//!
//! Only register-to-register data ops are compiled (moves, un/bin/cmp ops). Memory,
//! allocation, call, select, sync and control ops keep their threaded handlers — and so does
//! the fused RMW, which holds a load and a store; they bound chunks rather than being
//! emulated. Correctness
//! never depends on *what* is covered — only dispatch cost does — and the differential
//! fuzz oracle holds both tiers to bitwise-identical results.
//!
//! ## Degrading cleanly
//!
//! [`jit_supported`] gates everything: the target must be Linux x86-64, a compiled
//! self-test chunk — written against `VALUE_LAYOUT`, the layout `#[repr(C, u8)]` fixes
//! for [`Value`] — must produce the interpreter's exact results, and `HELIX_DISABLE_JIT=1`
//! must not be set. When any of that fails, the builders hand back plain threaded tables —
//! the `Jit` tier silently *is* the threaded tier there (see `docs/jit.md`).

mod emit;
pub(crate) mod exec_mem;

use crate::parallel_image::{LoopImage, POp};
use crate::threaded::{DispatchTier, FlatScope, FlatTables, Handler, IterTable, TCtx, TOp};
use emit::{compile_stream, Asm, Chunk, Slot};
pub use exec_mem::ExecMem;
use helix_ir::{ExecImage, Op, Value};
use std::sync::OnceLock;

/// Where a [`Value`] keeps its variant and payload. `Value` is `#[repr(C, u8)]`, so this
/// is a fact of the type, not a guess: a `u8` tag at offset 0 holding the variant's index
/// in declaration order (`Int` = 0, `Float` = 1), then the payload at offset 8, the
/// alignment of its 8-byte fields, in a 16-byte slot (`helix_ir::value` asserts size and
/// alignment at compile time). Emitted code writes exactly the tag byte and the payload
/// word.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ValueLayout {
    pub tag_off: i32,
    pub pay_off: i32,
    pub tag_int: u8,
    pub tag_float: u8,
}

/// The layout of `#[repr(C, u8)]` [`Value`] (see [`ValueLayout`]).
pub(crate) const VALUE_LAYOUT: ValueLayout = ValueLayout {
    tag_off: 0,
    pay_off: 8,
    tag_int: 0,
    tag_float: 1,
};

/// The chunk calling convention (see the module docs).
type ChunkFn = extern "C" fn(*mut Value) -> u64;

/// Compiles one stream into a blob of its own (the self-test and the template tests).
fn compile_alone(slots: &[Slot]) -> (Vec<u8>, Vec<Chunk>) {
    let mut asm = Asm::new();
    let chunks = compile_stream(&mut asm, slots);
    (asm.finish(), chunks)
}

/// End-to-end machinery check: compile one chunk exercising integer, float-promoting and
/// edge-case arithmetic, execute it, and demand the interpreter's exact results. Runs
/// once; a failure (executable memory refused, or code that disagrees with
/// [`VALUE_LAYOUT`]) disables the JIT.
fn self_test() -> bool {
    use crate::parallel_image::POp;
    use helix_ir::BinOp;
    let slots = [
        Slot::Op(POp::MovI {
            dst: 0,
            v: Value::Int(7),
        }),
        Slot::Op(POp::MovI {
            dst: 1,
            v: Value::Float(2.5),
        }),
        Slot::Op(POp::BinRR {
            dst: 2,
            op: BinOp::Add,
            lhs: 0,
            rhs: 0,
        }),
        Slot::Op(POp::BinRR {
            dst: 3,
            op: BinOp::Add,
            lhs: 0,
            rhs: 1,
        }),
        Slot::Op(POp::BinRI {
            dst: 4,
            op: BinOp::Div,
            lhs: 0,
            rhs: Value::Int(0),
        }),
        Slot::Op(POp::BinRI {
            dst: 5,
            op: BinOp::Rem,
            lhs: 0,
            rhs: Value::Int(3),
        }),
        Slot::Bar,
    ];
    let (code, chunks) = compile_alone(&slots);
    if chunks.len() != 1 || chunks[0].head_pc != 0 {
        return false;
    }
    let mut mem = match ExecMem::new(code.len()) {
        Some(m) => m,
        None => return false,
    };
    if !mem.fill(&code) || !mem.seal() {
        return false;
    }
    let mut regs = vec![Value::Int(0); 6];
    // SAFETY: `mem` is sealed (RX) and lives to the end of this function; `chunks[0].off`
    // is the entry `compile_alone` emitted with the `ChunkFn` ABI, and the chunk touches
    // registers 0..=5 only, all inside `regs`.
    let f: ChunkFn = unsafe { std::mem::transmute(mem.addr(chunks[0].off)) };
    let resume = f(regs.as_mut_ptr());
    resume == 6
        && regs
            == [
                Value::Int(7),
                Value::Float(2.5),
                Value::Int(14),
                Value::Float(9.5),
                Value::Int(0),
                Value::Int(1),
            ]
}

/// Whether the JIT tier can actually emit and run native code here. `HELIX_DISABLE_JIT=1`
/// is consulted on every call (so a process can flip it); the target gate and the
/// self-test verdict are cached. When this is `false`, `DispatchTier::Jit` (and an
/// `Auto` resolution to it) degrades to the threaded tier — never a panic.
pub fn jit_supported() -> bool {
    if !cfg!(all(target_os = "linux", target_arch = "x86_64")) {
        return false;
    }
    if std::env::var_os("HELIX_DISABLE_JIT").is_some_and(|v| v == "1") {
        return false;
    }
    static SUPPORT: OnceLock<bool> = OnceLock::new();
    *SUPPORT.get_or_init(self_test)
}

/// Serializes tests that toggle `HELIX_DISABLE_JIT` against tests that assert on
/// [`jit_supported`]'s verdict — the flag is process-global and the test harness runs
/// tests concurrently. Lock with `.lock().unwrap_or_else(|e| e.into_inner())` so a
/// panicking holder does not cascade.
#[cfg(test)]
pub(crate) static TEST_ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Keeps an engine's native code and saved head slots alive. **Must outlive the tables it
/// was built with**: their rewritten head slots hold raw addresses into `mem` and `heads`
/// — [`build_tables`] returns the three together and [`crate::engine::Engine`], its only
/// caller, owns them as one value. One mapping holds the chunks of every stream the
/// engine runs, so a run maps, fills, seals and unmaps executable memory exactly once.
#[allow(dead_code)] // held for ownership: the patched slots point into both fields
pub(crate) struct JitArtifact {
    mem: ExecMem,
    /// The original decoded op of every patched head slot, in patch order.
    heads: Box<[TOp]>,
}

/// The trampoline installed on each chunk head: `i` = native entry address, `j` = address
/// of the saved original [`TOp`] (inside the [`JitArtifact`]). Returns the chunk's resume
/// pc; on a zero-progress side exit (resume == head pc) it executes the original op via
/// its threaded handler instead, so dispatch always advances.
fn h_jit(ctx: &mut TCtx<'_, '_>, op: &TOp, pc: usize) -> usize {
    // SAFETY: only `link` installs `h_jit`, with `op.i` the entry of a chunk emitted with
    // the `ChunkFn` ABI into a sealed mapping. The `JitArtifact` owning that mapping
    // outlives this table (`Engine` holds both), and the chunk touches only registers its
    // ops name, which lowering widened into the register file `ctx.regs`.
    let f: ChunkFn = unsafe { std::mem::transmute(op.i as usize) };
    let resume = f(ctx.regs.as_mut_ptr()) as usize;
    if resume != pc {
        return resume;
    }
    // SAFETY: `op.j` points into the boxed originals `link` stored in the same
    // `JitArtifact`, which outlives this table and never moves its heap allocation.
    let orig = unsafe { &*(op.j as usize as *const TOp) };
    (orig.h)(ctx, orig, pc)
}

/// Whether `op` is a patched chunk head.
#[cfg(test)]
pub(crate) fn is_chunk_head(op: &TOp) -> bool {
    std::ptr::fn_addr_eq(op.h, h_jit as Handler)
}

/// One decoded stream and the chunks compiled from it.
type Stream<'t> = (&'t mut [TOp], Vec<Chunk>);

/// Maps `code` — the blob holding every chunk of `streams` — once, seals it, and patches
/// each chunk's head slot. Returns `None`, leaving every slot unpatched, when there is no
/// chunk or the kernel refused executable memory.
fn link(code: &[u8], streams: &mut [Stream<'_>]) -> Option<JitArtifact> {
    if streams.iter().all(|(_, chunks)| chunks.is_empty()) {
        return None;
    }
    let mut mem = ExecMem::new(code.len())?;
    if !mem.fill(code) || !mem.seal() {
        return None;
    }
    // Box the originals first: the patched slots point at these heap addresses, which
    // stay put when the artifact moves.
    let heads: Box<[TOp]> = streams
        .iter()
        .flat_map(|(ops, chunks)| chunks.iter().map(|c| ops[c.head_pc]))
        .collect();
    let mut saved = heads.iter();
    for (ops, chunks) in streams.iter_mut() {
        for c in chunks.iter() {
            let orig = saved.next().expect("one saved head per chunk");
            let slot = &mut ops[c.head_pc];
            slot.h = h_jit as Handler;
            slot.i = mem.addr(c.off) as i64;
            slot.j = orig as *const TOp as i64;
        }
    }
    Some(JitArtifact { mem, heads })
}

/// One flat-stream slot: data ops compile in the form `decode_flat_op` specialized them
/// to, `Wait`/`Signal` are no-ops in flat mode (chunks may span them), and every other op
/// bounds chunks.
fn flat_slot(op: &Op, data: Option<POp>) -> Slot {
    match (op, data) {
        (_, Some(p)) => Slot::Op(p),
        (Op::Wait { .. } | Op::Signal { .. }, None) => Slot::Nop,
        (_, None) => Slot::Bar,
    }
}

/// Builds the dispatch tables of one engine for a resolved tier: the flat tables of
/// `scope` and, when given, `loop_image`'s iteration table. Under the JIT, when
/// supported, every chunk of those tables is compiled into one [`JitArtifact`]; otherwise,
/// or when nothing compiled, the tables are plain threaded tables.
pub(crate) fn build_tables(
    tier: DispatchTier,
    image: &ExecImage,
    scope: &FlatScope,
    loop_image: Option<&LoopImage>,
) -> (FlatTables, Option<IterTable>, Option<JitArtifact>) {
    let mut iter = loop_image.map(IterTable::build);
    if tier != DispatchTier::Jit || !jit_supported() {
        let (flat, _) = FlatTables::build(image, scope, |_, _| ());
        return (flat, iter, None);
    }
    let (mut flat, flat_slots) = FlatTables::build(image, scope, flat_slot);
    let mut asm = Asm::new();
    let mut streams: Vec<Stream<'_>> = Vec::new();
    if let (Some(table), Some(l)) = (iter.as_mut(), loop_image) {
        // Iteration streams pass through as-is: sync and control ops bound chunks, and
        // in-chunk side exits resume on the (unpatched) interior slots.
        let slots: Vec<Slot> = l.pcode.iter().map(|p| Slot::Op(p.clone())).collect();
        let chunks = compile_stream(&mut asm, &slots);
        streams.push((&mut table.ops, chunks));
    }
    for (ops, slots) in flat.funcs.iter_mut().zip(&flat_slots) {
        let chunks = compile_stream(&mut asm, slots);
        streams.push((ops, chunks));
    }
    let artifact = link(&asm.finish(), &mut streams);
    (flat, iter, artifact)
}

#[cfg(all(test, target_os = "linux", target_arch = "x86_64"))]
mod tests {
    use super::*;
    use crate::parallel_image::POp;
    use helix_ir::interp::{eval_binop, eval_pred, eval_unop};
    use helix_ir::{BinOp, Pred, UnOp};

    fn perms_of(region: (usize, usize)) -> Option<String> {
        let maps = std::fs::read_to_string("/proc/self/maps").ok()?;
        for line in maps.lines() {
            let Some((range, rest)) = line.split_once(' ') else {
                continue;
            };
            let Some((s, e)) = range.split_once('-') else {
                continue;
            };
            let s = usize::from_str_radix(s, 16).ok()?;
            let e = usize::from_str_radix(e, 16).ok()?;
            if s <= region.0 && region.0 + region.1 <= e {
                return Some(rest.split(' ').next()?.to_string());
            }
        }
        None
    }

    #[test]
    fn exec_mem_is_never_writable_and_executable_at_once() {
        let mut mem = ExecMem::new(5 * 4096).expect("mmap");
        let region = mem.region();
        assert!(!mem.sealed());
        let before = perms_of(region).expect("region mapped");
        assert!(before.starts_with("rw-"), "pre-seal perms: {before}");
        assert!(mem.fill(&[0xC3])); // ret
        assert!(mem.seal());
        assert!(mem.sealed());
        let after = perms_of(region).expect("region mapped");
        assert!(after.starts_with("r-x"), "post-seal perms: {after}");
        // Sealed memory refuses writes: the W in W^X is gone for good.
        assert!(!mem.fill(&[0x90]));
        drop(mem);
        // Unmapped on drop: the exact range is no longer an executable mapping.
        assert_ne!(perms_of(region).as_deref(), Some("r-xp"));
    }

    /// The payload offsets are checked here through references into the payload; the tag
    /// byte and its values are checked end to end by `self_test`, behind `jit_supported`.
    #[test]
    fn value_layout_constant_matches_the_type() {
        let _env = TEST_ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for v in [Value::Int(-3), Value::Float(2.5)] {
            let base = &v as *const Value as usize;
            let payload = match &v {
                Value::Int(i) => i as *const i64 as usize,
                Value::Float(f) => f as *const f64 as usize,
            };
            assert_eq!(payload - base, VALUE_LAYOUT.pay_off as usize, "{v:?}");
        }
        assert_eq!(VALUE_LAYOUT.tag_off, 0);
        assert_eq!((VALUE_LAYOUT.tag_int, VALUE_LAYOUT.tag_float), (0, 1));
        assert_eq!(std::mem::size_of::<Option<Value>>(), 16);
        assert!(jit_supported());
    }

    #[test]
    fn disable_env_var_forces_fallback() {
        let _env = TEST_ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var("HELIX_DISABLE_JIT", "1");
        assert!(!jit_supported());
        std::env::remove_var("HELIX_DISABLE_JIT");
        assert!(jit_supported());
    }

    /// Compiles `slots` as one chunk and runs it over `regs`. Appends a barrier slot: the
    /// slot the chunk resumes at.
    fn run_chunk(slots: Vec<Slot>, regs: &mut [Value]) -> usize {
        let mut slots = slots;
        slots.push(Slot::Bar);
        let (code, chunks) = compile_alone(&slots);
        assert_eq!(chunks.len(), 1, "expected exactly one chunk");
        assert_eq!(chunks[0].head_pc, 0);
        let mut mem = ExecMem::new(code.len()).unwrap();
        assert!(mem.fill(&code) && mem.seal());
        // SAFETY: as in `self_test`: a sealed, live chunk entry with the `ChunkFn` ABI,
        // whose ops name only registers the caller's `regs` holds.
        let f: ChunkFn = unsafe { std::mem::transmute(mem.addr(chunks[0].off)) };
        f(regs.as_mut_ptr()) as usize
    }

    fn bin_rr(dst: u32, op: BinOp, lhs: u32, rhs: u32) -> Slot {
        Slot::Op(POp::BinRR { dst, op, lhs, rhs })
    }

    /// Every integer binop against the interpreter, over an edge-heavy operand grid.
    #[test]
    fn integer_binops_match_the_interpreter() {
        let grid = [
            0i64,
            1,
            -1,
            2,
            -7,
            63,
            64,
            65,
            -64,
            i64::MAX,
            i64::MIN,
            i64::MIN + 1,
            0x5555_5555_5555_5555,
        ];
        let ops = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Rem,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::Shr,
            BinOp::Min,
            BinOp::Max,
        ];
        for op in ops {
            for &x in &grid {
                for &y in &grid {
                    let mut regs = [Value::Int(x), Value::Int(y), Value::Int(0), Value::Int(0)];
                    let resume =
                        run_chunk(vec![bin_rr(2, op, 0, 1), bin_rr(3, op, 1, 0)], &mut regs);
                    assert_eq!(resume, 2);
                    let want_xy = eval_binop(op, Value::Int(x), Value::Int(y));
                    let want_yx = eval_binop(op, Value::Int(y), Value::Int(x));
                    assert_eq!(regs[2], want_xy, "{op:?} {x} {y}");
                    assert_eq!(regs[3], want_yx, "{op:?} {y} {x}");
                }
            }
        }
    }

    /// Dual-path ops with float and mixed operands, including ±0.0 and NaN divisors.
    #[test]
    fn float_and_mixed_binops_match_the_interpreter() {
        let grid = [
            Value::Int(3),
            Value::Int(-5),
            Value::Int(0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(2.5),
            Value::Float(-1.5e100),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
        ];
        for op in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div] {
            for &x in &grid {
                for &y in &grid {
                    let mut regs = [x, y, Value::Int(0)];
                    let resume =
                        run_chunk(vec![bin_rr(2, op, 0, 1), bin_rr(2, op, 0, 1)], &mut regs);
                    assert_eq!(resume, 2);
                    let want = eval_binop(op, x, y);
                    // NaN != NaN, so compare the bit patterns like the memory tier does.
                    assert_eq!(regs[2].to_bits(), want.to_bits(), "{op:?} {x:?} {y:?}");
                    assert_eq!(regs[2].is_float(), want.is_float(), "{op:?} {x:?} {y:?}");
                }
            }
        }
    }

    /// Immediate forms (BinRI / BinIR), including float immediates on dual-path ops.
    #[test]
    fn immediate_binops_match_the_interpreter() {
        let cases = [
            (BinOp::Add, Value::Int(5), Value::Float(2.5)),
            (BinOp::Div, Value::Float(4.0), Value::Int(-3)),
            (BinOp::Mul, Value::Int(-7), Value::Float(0.5)),
            (BinOp::Sub, Value::Float(1.25), Value::Float(-0.0)),
            (BinOp::Shl, Value::Int(999), Value::Int(3)),
            (BinOp::Rem, Value::Int(0), Value::Int(17)),
        ];
        for (op, imm, reg) in cases {
            let mut regs = [reg, Value::Int(0), Value::Int(0)];
            let resume = run_chunk(
                vec![
                    Slot::Op(POp::BinRI {
                        dst: 1,
                        op,
                        lhs: 0,
                        rhs: imm,
                    }),
                    Slot::Op(POp::BinIR {
                        dst: 2,
                        op,
                        lhs: imm,
                        rhs: 0,
                    }),
                ],
                &mut regs,
            );
            assert_eq!(resume, 2);
            assert_eq!(regs[1], eval_binop(op, reg, imm), "{op:?} RI");
            assert_eq!(regs[2], eval_binop(op, imm, reg), "{op:?} IR");
        }
    }

    #[test]
    fn unops_and_moves_match_the_interpreter() {
        let inputs = [
            Value::Int(5),
            Value::Int(i64::MIN),
            Value::Float(-2.5),
            Value::Float(f64::NAN),
        ];
        for v in inputs {
            for op in [UnOp::Neg, UnOp::ToFloat] {
                let mut regs = [v, Value::Int(0), Value::Int(0)];
                let resume = run_chunk(
                    vec![
                        Slot::Op(POp::UnR { dst: 1, op, src: 0 }),
                        Slot::Op(POp::MovR { dst: 2, src: 1 }),
                    ],
                    &mut regs,
                );
                assert_eq!(resume, 2);
                let want = eval_unop(op, v);
                assert_eq!(regs[1].to_bits(), want.to_bits(), "{op:?} {v:?}");
                assert_eq!(regs[2].to_bits(), want.to_bits(), "MovR after {op:?}");
            }
        }
        // Not and ToInt are integer-only templates.
        let mut regs = [Value::Int(-9), Value::Int(0), Value::Int(0)];
        let resume = run_chunk(
            vec![
                Slot::Op(POp::UnR {
                    dst: 1,
                    op: UnOp::Not,
                    src: 0,
                }),
                Slot::Op(POp::UnR {
                    dst: 2,
                    op: UnOp::ToInt,
                    src: 0,
                }),
            ],
            &mut regs,
        );
        assert_eq!(resume, 2);
        assert_eq!(regs[1], eval_unop(UnOp::Not, Value::Int(-9)));
        assert_eq!(regs[2], Value::Int(-9));
    }

    #[test]
    fn comparisons_match_the_interpreter() {
        let grid = [0i64, 1, -1, i64::MAX, i64::MIN, 42];
        let preds = [Pred::Eq, Pred::Ne, Pred::Lt, Pred::Le, Pred::Gt, Pred::Ge];
        for pred in preds {
            for &x in &grid {
                for &y in &grid {
                    let mut regs = [Value::Int(x), Value::Int(y), Value::Int(9), Value::Int(9)];
                    let resume = run_chunk(
                        vec![
                            Slot::Op(POp::CmpRR {
                                dst: 2,
                                pred,
                                lhs: 0,
                                rhs: 1,
                            }),
                            Slot::Op(POp::CmpRI {
                                dst: 3,
                                pred,
                                lhs: 0,
                                rhs: Value::Int(y),
                            }),
                        ],
                        &mut regs,
                    );
                    assert_eq!(resume, 2);
                    let want = Value::from_bool(eval_pred(pred, Value::Int(x), Value::Int(y)));
                    assert_eq!(regs[2], want, "{pred:?} {x} {y}");
                    assert_eq!(regs[3], want, "{pred:?} {x} imm {y}");
                }
            }
        }
    }

    /// An integer-only op meeting a float operand must exit *before* writing anything,
    /// returning the pc of the refusing op.
    #[test]
    fn side_exit_resumes_at_the_refusing_op_with_no_partial_writes() {
        let mut regs = [
            Value::Int(1),
            Value::Float(2.5),
            Value::Int(77),
            Value::Int(88),
        ];
        let resume = run_chunk(
            vec![
                Slot::Op(POp::MovI {
                    dst: 2,
                    v: Value::Int(5),
                }),
                bin_rr(3, BinOp::And, 0, 1), // float rhs → side exit here
            ],
            &mut regs,
        );
        assert_eq!(resume, 1, "resume at the refusing op");
        assert_eq!(regs[2], Value::Int(5), "ops before the exit committed");
        assert_eq!(regs[3], Value::Int(88), "refusing op wrote nothing");
        // Zero-progress variant: the refusal is the head op, resume == head pc.
        let mut regs = [Value::Float(1.5), Value::Int(3), Value::Int(0)];
        let resume = run_chunk(
            vec![bin_rr(2, BinOp::Xor, 0, 1), bin_rr(2, BinOp::Xor, 0, 1)],
            &mut regs,
        );
        assert_eq!(resume, 0);
        assert_eq!(regs[2], Value::Int(0));
    }

    /// Streams that never leave room to resume (no terminator) compile to no chunks;
    /// single coverable ops are not worth a chunk either.
    #[test]
    fn unprofitable_and_unterminated_runs_are_left_to_the_threaded_handlers() {
        let no_bar = vec![
            Slot::Op(POp::MovI {
                dst: 0,
                v: Value::Int(1),
            }),
            Slot::Op(POp::MovI {
                dst: 1,
                v: Value::Int(2),
            }),
        ];
        let (_, chunks) = compile_alone(&no_bar);
        assert!(chunks.is_empty(), "no resume slot → no chunk");
        let single = vec![
            Slot::Op(POp::MovI {
                dst: 0,
                v: Value::Int(1),
            }),
            Slot::Bar,
        ];
        let (_, chunks) = compile_alone(&single);
        assert!(chunks.is_empty(), "one op → not worth a chunk");
    }
}
