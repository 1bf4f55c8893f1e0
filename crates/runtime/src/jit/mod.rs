//! The template-JIT dispatch tier (`DispatchTier::Jit`): threaded dispatch whose
//! straight-line data runs are compiled to native x86-64 and executed as one handler call.
//!
//! ## Architecture: patched threaded tables
//!
//! The JIT does not bring its own driver. It builds the exact [`IterTable`] /
//! [`FlatTables`] the threaded tier uses, finds every maximal run of consecutive
//! JIT-coverable ops (a **chunk**, ≥ 2 constituent ops), compiles each chunk to
//! straight-line machine code with [`emit`], and rewrites only the chunk's *head* slot to
//! a [`h_jit`] trampoline that calls the native code. Everything else — the dispatch
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
//! [`h_jit`] keeps the head's original decoded [`TOp`] (in [`JitArtifact`]) and runs it
//! directly when the chunk reports zero progress — guaranteeing forward progress with the
//! interpreter's exact semantics.
//!
//! ## Partial coverage, total correctness
//!
//! Only register-to-register data ops are compiled (moves, un/bin/cmp ops and the fused
//! superinstruction chains). Memory, allocation, call, select, sync and control ops keep
//! their threaded handlers; they bound chunks rather than being emulated. Correctness
//! never depends on *what* is covered — only dispatch cost does — and the differential
//! fuzz oracle holds all three tiers to bitwise-identical results.
//!
//! ## Degrading cleanly
//!
//! [`jit_supported`] gates everything: the target must be Linux x86-64, the runtime probe
//! of [`Value`]'s (unspecified, `repr(Rust)`) layout must succeed, a compiled self-test
//! chunk must produce the interpreter's exact results, and `HELIX_DISABLE_JIT=1` must not
//! be set. When any of that fails, the builders hand back plain threaded tables — the
//! `Jit` tier silently *is* the threaded tier there (see `docs/jit.md`).

mod emit;
pub(crate) mod exec_mem;

use crate::parallel_image::{specialize_op, LoopImage, Tier};
use crate::threaded::{DispatchTier, FlatTables, Handler, IterTable, TCtx, TOp};
use emit::{compile_stream, Slot};
pub use exec_mem::ExecMem;
use helix_ir::{ExecImage, Op, Value};
use std::sync::OnceLock;

/// The probed memory layout of [`Value`] (`repr(Rust)`, so discovered at run time and
/// verified, never assumed): a 16-byte slot with a one-byte discriminant and an 8-byte
/// payload. Emitted code writes exactly the tag byte and the payload word.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ValueLayout {
    pub tag_off: i32,
    pub pay_off: i32,
    pub tag_int: u8,
    pub tag_float: u8,
}

/// Reads the raw bytes of a `Value` written over a zeroed 16-byte slot.
fn value_bytes(v: Value) -> [u8; 16] {
    let mut slot = std::mem::MaybeUninit::<Value>::zeroed();
    let mut buf = [0u8; 16];
    // SAFETY: `slot` is an aligned, writable `Value`, and the copy reads its 16 bytes
    // (`probe_layout` checks `size_of::<Value>() == 16` before any call) into a distinct
    // array. The one assumption is that `write` leaves the zeroed padding bytes as they
    // were; the probe trusts no byte it reads (it demands deterministic images and
    // disables the JIT on any surprise), and a `repr(C, u8)` `Value` would remove it.
    unsafe {
        slot.as_mut_ptr().write(v);
        std::ptr::copy_nonoverlapping(slot.as_ptr() as *const u8, buf.as_mut_ptr(), 16);
    }
    buf
}

/// Discovers where the discriminant and payload live by diffing written values, with
/// consistency checks at every step; any surprise (niche packing, moved padding,
/// non-deterministic bytes) returns `None` and disables the JIT rather than guessing.
fn probe_layout() -> Option<ValueLayout> {
    if std::mem::size_of::<Value>() != 16 || std::mem::align_of::<Value>() > 16 {
        return None;
    }
    // Byte images must be deterministic for the diffs below to mean anything.
    if value_bytes(Value::Int(0x5A)) != value_bytes(Value::Int(0x5A)) {
        return None;
    }
    // Payload: the bytes that differ between two Ints must be one aligned 8-byte word.
    let a = value_bytes(Value::Int(0));
    let b = value_bytes(Value::Int(-1));
    let diff: Vec<usize> = (0..16).filter(|&k| a[k] != b[k]).collect();
    if diff.len() != 8
        || !diff[0].is_multiple_of(8)
        || diff != (diff[0]..diff[0] + 8).collect::<Vec<_>>()
    {
        return None;
    }
    let pay = diff[0];
    let pattern = 0x0123_4567_89AB_CDEFi64;
    let int_img = value_bytes(Value::Int(pattern));
    if int_img[pay..pay + 8] != pattern.to_le_bytes() {
        return None;
    }
    // Tag: with identical payload bits, Int and Float must differ in exactly one byte.
    let flt_img = value_bytes(Value::Float(f64::from_bits(pattern as u64)));
    let tdiff: Vec<usize> = (0..16)
        .filter(|&k| k < pay || k >= pay + 8)
        .filter(|&k| int_img[k] != flt_img[k])
        .collect();
    if tdiff.len() != 1 {
        return None;
    }
    let tag = tdiff[0];
    let (tag_int, tag_float) = (int_img[tag], flt_img[tag]);
    if tag_int == tag_float
        || value_bytes(Value::Int(7))[tag] != tag_int
        || value_bytes(Value::Float(2.5))[tag] != tag_float
    {
        return None;
    }
    Some(ValueLayout {
        tag_off: tag as i32,
        pay_off: pay as i32,
        tag_int,
        tag_float,
    })
}

/// The cached layout probe.
fn layout() -> Option<ValueLayout> {
    static LAYOUT: OnceLock<Option<ValueLayout>> = OnceLock::new();
    *LAYOUT.get_or_init(probe_layout)
}

/// The chunk calling convention (see the module docs).
type ChunkFn = extern "C" fn(*mut Value) -> u64;

/// End-to-end machinery check: compile one chunk exercising integer, float-promoting and
/// edge-case arithmetic, execute it, and demand the interpreter's exact results. Runs
/// once; a failure (however unlikely once [`probe_layout`] passed) disables the JIT.
fn self_test(lay: ValueLayout) -> bool {
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
    let (code, chunks) = compile_stream(&slots, lay);
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
    // is the entry `compile_stream` emitted with the `ChunkFn` ABI, and the chunk touches
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
/// probe/self-test verdict are cached. When this is `false`, `DispatchTier::Jit` (and an
/// `Auto` resolution to it) degrades to the threaded tier — never a panic.
pub fn jit_supported() -> bool {
    if !cfg!(all(target_os = "linux", target_arch = "x86_64")) {
        return false;
    }
    if std::env::var_os("HELIX_DISABLE_JIT").is_some_and(|v| v == "1") {
        return false;
    }
    static SUPPORT: OnceLock<bool> = OnceLock::new();
    *SUPPORT.get_or_init(|| layout().is_some_and(self_test))
}

/// Serializes tests that toggle `HELIX_DISABLE_JIT` against tests that assert on
/// [`jit_supported`]'s verdict — the flag is process-global and the test harness runs
/// tests concurrently. Lock with `.lock().unwrap_or_else(|e| e.into_inner())` so a
/// panicking holder does not cascade.
#[cfg(test)]
pub(crate) static TEST_ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Keeps a patched table's native code and saved head slots alive. **Must outlive the
/// table it was built with**: the table's rewritten head slots hold raw addresses into
/// `parts` — the builders return the two together and [`crate::engine::Engine`], their
/// only caller, owns them as one value.
pub(crate) struct JitArtifact<T: Tier> {
    #[allow(dead_code)] // held for ownership: tables point into these allocations
    parts: Vec<(ExecMem, Box<[TOp<T>]>)>,
}

/// The trampoline installed on each chunk head: `i` = native entry address, `j` = address
/// of the saved original [`TOp`] (inside the [`JitArtifact`]). Returns the chunk's resume
/// pc; on a zero-progress side exit (resume == head pc) it executes the original op via
/// its threaded handler instead, so dispatch always advances.
fn h_jit<T: Tier>(ctx: &mut TCtx<'_, T>, op: &TOp<T>, pc: usize) -> usize {
    // SAFETY: only `compile_into` installs `h_jit`, with `op.i` the entry of a chunk it
    // emitted with the `ChunkFn` ABI into a sealed mapping. The `JitArtifact` owning that
    // mapping outlives this table (`Engine` holds both), and the chunk touches only
    // registers its ops name, which lowering widened into the register file `ctx.regs`.
    let f: ChunkFn = unsafe { std::mem::transmute(op.i as usize) };
    let resume = f(ctx.regs.as_mut_ptr()) as usize;
    if resume != pc {
        return resume;
    }
    // SAFETY: `op.j` points into the boxed originals `compile_into` stored in the same
    // `JitArtifact`, which outlives this table and never moves its heap allocation.
    let orig = unsafe { &*(op.j as usize as *const TOp<T>) };
    (orig.h)(ctx, orig, pc)
}

/// Compiles the chunks of one op stream and patches their head slots in `ops`. Returns
/// the ownership bundle, or `None` when there is nothing worth compiling (or the kernel
/// refused executable memory) — in which case `ops` is left fully unpatched.
fn compile_into<T: Tier>(
    ops: &mut [TOp<T>],
    slots: &[Slot],
    lay: ValueLayout,
) -> Option<(ExecMem, Box<[TOp<T>]>)> {
    let (code, chunks) = compile_stream(slots, lay);
    if chunks.is_empty() {
        return None;
    }
    let mut mem = ExecMem::new(code.len())?;
    if !mem.fill(&code) || !mem.seal() {
        return None;
    }
    // Box the originals first: the patched slots point at these heap addresses, which
    // stay put when the artifact moves.
    let orig: Box<[TOp<T>]> = chunks.iter().map(|c| ops[c.head_pc]).collect();
    for (k, c) in chunks.iter().enumerate() {
        let slot = &mut ops[c.head_pc];
        slot.h = h_jit::<T> as Handler<T>;
        slot.i = mem.addr(c.off) as i64;
        slot.j = &orig[k] as *const TOp<T> as i64;
    }
    Some((mem, orig))
}

/// Builds the per-iteration dispatch table for a resolved tier: `None` for the switch
/// tier (no table at all), a plain threaded table for `Threaded` (and for `Jit` when
/// unsupported or nothing compiled), or a chunk-patched table plus its [`JitArtifact`].
pub(crate) fn build_iter_table<T: Tier>(
    tier: DispatchTier,
    loop_image: &LoopImage,
) -> Option<(IterTable<T>, Option<JitArtifact<T>>)> {
    if tier == DispatchTier::Switch {
        return None;
    }
    let mut table = IterTable::build(loop_image);
    let mut artifact = None;
    if tier == DispatchTier::Jit && jit_supported() {
        if let Some(lay) = layout() {
            // Iteration streams pass through as-is: sync and control ops bound chunks,
            // and in-chunk side exits resume on the (unpatched) interior slots.
            let slots: Vec<Slot> = loop_image
                .pcode
                .iter()
                .map(|p| Slot::Op(p.clone()))
                .collect();
            if let Some(part) = compile_into(&mut table.ops, &slots, lay) {
                artifact = Some(JitArtifact { parts: vec![part] });
            }
        }
    }
    Some((table, artifact))
}

/// One flat-stream slot: `Wait`/`Signal` are no-ops in flat mode (chunks may span them),
/// control ops bound chunks, data ops specialize exactly like `decode_flat_op` does.
fn flat_slot(op: &Op) -> Slot {
    match op {
        Op::Wait { .. } | Op::Signal { .. } => Slot::Nop,
        Op::Select { .. }
        | Op::Call { .. }
        | Op::Jump { .. }
        | Op::Branch { .. }
        | Op::Ret { .. }
        | Op::Trap { .. } => Slot::Bar,
        data => Slot::Op(specialize_op(data, false)),
    }
}

/// [`build_iter_table`]'s analogue for the flat engine (phase A/C, callees, calibration
/// kernels): per-function chunk compilation over the whole image.
pub(crate) fn build_flat_tables<T: Tier>(
    tier: DispatchTier,
    image: &ExecImage,
) -> Option<(FlatTables<T>, Option<JitArtifact<T>>)> {
    if tier == DispatchTier::Switch {
        return None;
    }
    let mut tables = FlatTables::build(image);
    let mut parts = Vec::new();
    if tier == DispatchTier::Jit && jit_supported() {
        if let Some(lay) = layout() {
            for (k, f) in image.funcs.iter().enumerate() {
                let slots: Vec<Slot> = f.code.iter().map(flat_slot).collect();
                if let Some(part) = compile_into(&mut tables.funcs[k], &slots, lay) {
                    parts.push(part);
                }
            }
        }
    }
    let artifact = (!parts.is_empty()).then_some(JitArtifact { parts });
    Some((tables, artifact))
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

    #[test]
    fn layout_probe_succeeds_on_this_target() {
        let _env = TEST_ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let lay = layout().expect("Value layout probe");
        assert_eq!(lay.pay_off % 8, 0);
        assert_ne!(lay.tag_int, lay.tag_float);
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

    /// Compiles `slots` (auto-terminated) as one chunk and runs it over `regs`. Appends
    /// three barrier slots so a trailing fused window (up to 3 wide) keeps the interior
    /// stream slots it would have in a real pcode stream.
    fn run_chunk(slots: Vec<Slot>, regs: &mut [Value]) -> usize {
        let mut slots = slots;
        slots.extend([Slot::Bar, Slot::Bar, Slot::Bar]);
        let (code, chunks) = compile_stream(&slots, layout().unwrap());
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

    /// Fused chains decompose into constituent templates whose side exits land on the
    /// interior pcs (which keep their original unfused ops in the real tables).
    #[test]
    fn fused_chains_match_and_side_exit_mid_window() {
        let mut regs = [Value::Int(10), Value::Int(0), Value::Int(0), Value::Int(0)];
        let resume = run_chunk(
            vec![Slot::Op(POp::BinChain3II {
                lhs: 0,
                op1: BinOp::Add,
                i1: 5,
                d1: 1,
                op2: BinOp::Mul,
                i2: 3,
                d2: 2,
                op3: BinOp::Sub,
                i3: 40,
                d3: 3,
            })],
            &mut regs,
        );
        assert_eq!(resume, 3, "3-wide fused window covers pcs 0..3");
        assert_eq!(regs[1], Value::Int(15));
        assert_eq!(regs[2], Value::Int(45));
        assert_eq!(regs[3], Value::Int(5));
        // Chain whose op1 (dual-path) produces a float that op2 (int-only) refuses:
        // the exit pc is the *second* constituent slot.
        let mut regs = [Value::Float(1.5), Value::Int(0), Value::Int(66)];
        let resume = run_chunk(
            vec![Slot::Op(POp::BinChainII {
                lhs: 0,
                op1: BinOp::Add,
                i1: Value::Int(1),
                d1: 1,
                op2: BinOp::And,
                i2: Value::Int(7),
                d2: 2,
            })],
            &mut regs,
        );
        assert_eq!(resume, 1, "exit at the interior constituent");
        assert_eq!(regs[1].to_bits(), Value::Float(2.5).to_bits());
        assert_eq!(regs[2], Value::Int(66), "second constituent wrote nothing");
        // Float-immediate chain (BinChain3FF) takes the float path throughout.
        let mut regs = [Value::Int(2), Value::Int(0), Value::Int(0), Value::Int(0)];
        let resume = run_chunk(
            vec![Slot::Op(POp::BinChain3FF {
                lhs: 0,
                op1: BinOp::Add,
                f1: 0.5,
                d1: 1,
                op2: BinOp::Mul,
                f2: 2.0,
                d2: 2,
                op3: BinOp::Div,
                f3: 0.0,
                d3: 3,
            })],
            &mut regs,
        );
        assert_eq!(resume, 3);
        assert_eq!(regs[1], Value::Float(2.5));
        assert_eq!(regs[2], Value::Float(5.0));
        assert_eq!(
            regs[3],
            Value::Float(0.0),
            "float division by zero yields 0.0"
        );
    }

    /// Streams that never leave room to resume (no terminator) compile to no chunks;
    /// single coverable ops are not worth a chunk either.
    #[test]
    fn unprofitable_and_unterminated_runs_are_left_to_the_threaded_handlers() {
        let lay = layout().unwrap();
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
        let (_, chunks) = compile_stream(&no_bar, lay);
        assert!(chunks.is_empty(), "no resume slot → no chunk");
        let single = vec![
            Slot::Op(POp::MovI {
                dst: 0,
                v: Value::Int(1),
            }),
            Slot::Bar,
        ];
        let (_, chunks) = compile_stream(&single, lay);
        assert!(chunks.is_empty(), "one op → not worth a chunk");
    }
}
