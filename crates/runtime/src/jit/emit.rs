//! The one-pass x86-64 template emitter: lowers runs of "simple" specialized [`POp`]
//! shapes to straight-line machine code, concatenated into one buffer per op stream.
//!
//! ## Template contract
//!
//! Every compiled chunk is one `extern "C" fn(regs: *mut Value) -> u64` function:
//!
//! * `rdi` stays pinned on the guest register slab for the whole chunk (guest register
//!   `r` lives at `rdi + 16*r`, tag byte and payload word at the
//!   [`VALUE_LAYOUT`] offsets);
//! * the return value is the **resume pc**: the slot after the last executed op on the
//!   normal path, or the slot of the op whose operands fell outside the compiled fast
//!   path (a *side exit* — e.g. a float where the integer template was emitted). The
//!   threaded dispatch loop resumes interpretation there, so a chunk is always
//!   semantically a prefix of the interpreted stream;
//! * templates perform **all operand checks before the first register write**, so a
//!   side-exiting op has no partial effects and the interpreter can re-run it whole;
//! * chunks are leaf functions: no stack frame, no calls, no writes outside the slab —
//!   a panic can only originate in Rust handler code, never under a JIT frame, which is
//!   what lets worker panics unwind cleanly through the trampoline.
//!
//! ## Bitwise fidelity
//!
//! Each template is a transliteration of `eval_binop`/`eval_pred`/`eval_unop` (see
//! `helix_ir::interp`), including the edge cases: wrapping integer arithmetic, division
//! and remainder by zero yielding zero, `i64::MIN / -1` wrapping, shift counts masked
//! modulo 64, mixed int/float operands promoting to float, and float division by ±0.0
//! yielding 0.0. Shapes the templates do not cover (`Rem` on floats, `Min`/`Max` on
//! floats, float comparisons, every memory/control/sync op) either side-exit at run time
//! or are never included in a chunk — the fuzz oracle holds the tiers to bitwise
//! agreement either way.

use super::VALUE_LAYOUT;
use crate::parallel_image::POp;
use helix_ir::{BinOp, Pred, UnOp, Value};

/// One compiled chunk: the stream slot it replaces and its entry offset in the blob.
pub(crate) struct Chunk {
    pub head_pc: usize,
    pub off: usize,
}

/// One stream slot as the chunk scanner sees it.
#[derive(Default)]
pub(crate) enum Slot {
    /// A specialized op (iteration streams pass `pcode` through unchanged; flat streams
    /// pre-specialize their data ops).
    Op(POp),
    /// An op with no effect in this stream (flat-mode `Wait`/`Signal`): coverable by a
    /// chunk at zero cost.
    Nop,
    /// Anything the templates do not cover: terminates any chunk.
    #[default]
    Bar,
}

// ---------------------------------------------------------------------------
// Coverage predicate (must stay in exact sync with the templates below).
// ---------------------------------------------------------------------------

/// Largest guest register index addressable with a 32-bit displacement.
const MAX_REG: u32 = (i32::MAX as u32 - 32) / 16;

/// Binary ops with both an integer and a float template (mixed operands promote).
fn dual_path(op: BinOp) -> bool {
    matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div)
}

/// Can `op` with this immediate be emitted? Integer-only ops (bitwise, shifts, `Rem`,
/// `Min`/`Max`) take a float operand to the interpreter via a side exit, so a *statically*
/// float immediate would compile to an always-exit template — not worth a chunk slot.
fn bin_ok(op: BinOp, imm: Option<Value>) -> bool {
    dual_path(op) || imm.is_none_or(|v| !v.is_float())
}

fn regs_ok(rs: &[u32]) -> bool {
    rs.iter().all(|&r| r <= MAX_REG)
}

/// How many constituent ops the template for `p` covers, or `None` when `p` is not
/// JIT-coverable. Fused superinstructions decompose into their constituent templates
/// (the JIT removes dispatch entirely, which is the very cost fusion existed to
/// amortize), so chains count their full width.
pub(crate) fn coverage(p: &POp) -> Option<usize> {
    match p {
        POp::MovR { dst, src } => regs_ok(&[*dst, *src]).then_some(1),
        POp::MovI { dst, .. } => regs_ok(&[*dst]).then_some(1),
        POp::UnR { dst, src, .. } => regs_ok(&[*dst, *src]).then_some(1),
        POp::BinRR { dst, op, lhs, rhs } => {
            (regs_ok(&[*dst, *lhs, *rhs]) && bin_ok(*op, None)).then_some(1)
        }
        POp::BinRI { dst, op, lhs, rhs } => {
            (regs_ok(&[*dst, *lhs]) && bin_ok(*op, Some(*rhs))).then_some(1)
        }
        POp::BinIR { dst, op, lhs, rhs } => {
            (regs_ok(&[*dst, *rhs]) && bin_ok(*op, Some(*lhs))).then_some(1)
        }
        POp::CmpRR { dst, lhs, rhs, .. } => regs_ok(&[*dst, *lhs, *rhs]).then_some(1),
        POp::CmpRI { dst, lhs, rhs, .. } => {
            (regs_ok(&[*dst, *lhs]) && !rhs.is_float()).then_some(1)
        }
        POp::CmpIR { dst, lhs, rhs, .. } => {
            (regs_ok(&[*dst, *rhs]) && !lhs.is_float()).then_some(1)
        }
        POp::BinChainII {
            lhs,
            op1,
            i1,
            d1,
            op2,
            i2,
            d2,
        } => (regs_ok(&[*lhs, *d1, *d2]) && bin_ok(*op1, Some(*i1)) && bin_ok(*op2, Some(*i2)))
            .then_some(2),
        POp::BinChain3II {
            lhs, d1, d2, d3, ..
        } => regs_ok(&[*lhs, *d1, *d2, *d3]).then_some(3),
        POp::BinChain3FF {
            lhs,
            op1,
            d1,
            op2,
            d2,
            op3,
            d3,
            ..
        } => (regs_ok(&[*lhs, *d1, *d2, *d3])
            && dual_path(*op1)
            && dual_path(*op2)
            && dual_path(*op3))
        .then_some(3),
        POp::BinChainRI {
            lhs,
            rhs,
            op1,
            d1,
            op2,
            i2,
            d2,
        } => (regs_ok(&[*lhs, *rhs, *d1, *d2]) && bin_ok(*op1, None) && bin_ok(*op2, Some(*i2)))
            .then_some(2),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// A minimal x86-64 assembler: exactly the encodings the templates need.
// ---------------------------------------------------------------------------

/// Host scratch registers (REX-free encodings only; `rdi` is the pinned slab base).
const RAX: u8 = 0;
const RCX: u8 = 1;
const RDX: u8 = 2;
const RDI: u8 = 7;

/// Condition codes (`jcc` = `0F 80+cc`, `setcc` = `0F 90+cc`, `cmovcc` = `0F 40+cc`).
const CC_E: u8 = 0x4;
const CC_NE: u8 = 0x5;
const CC_P: u8 = 0xA;
const CC_L: u8 = 0xC;
const CC_GE: u8 = 0xD;
const CC_LE: u8 = 0xE;
const CC_G: u8 = 0xF;

fn pred_cc(p: Pred) -> u8 {
    match p {
        Pred::Eq => CC_E,
        Pred::Ne => CC_NE,
        Pred::Lt => CC_L,
        Pred::Le => CC_LE,
        Pred::Gt => CC_G,
        Pred::Ge => CC_GE,
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Label(usize);

pub(crate) struct Asm {
    code: Vec<u8>,
    /// `(position of a rel32 to patch, target label)`.
    fixups: Vec<(usize, Label)>,
    labels: Vec<Option<usize>>,
}

impl Asm {
    pub(crate) fn new() -> Asm {
        Asm {
            code: Vec::new(),
            fixups: Vec::new(),
            labels: Vec::new(),
        }
    }

    pub(crate) fn here(&self) -> usize {
        self.code.len()
    }

    fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    fn bind(&mut self, l: Label) {
        debug_assert!(self.labels[l.0].is_none());
        self.labels[l.0] = Some(self.code.len());
    }

    fn bytes(&mut self, b: &[u8]) {
        self.code.extend_from_slice(b);
    }

    fn imm32(&mut self, v: i32) {
        self.code.extend_from_slice(&v.to_le_bytes());
    }

    /// `[rdi + disp32]` ModRM for operand register `reg`.
    fn mem(&mut self, reg: u8, disp: i32) {
        self.code.push(0x80 | (reg << 3) | RDI);
        self.imm32(disp);
    }

    // --- integer moves and ALU ---

    /// `mov reg, qword [rdi+disp]`
    fn load64(&mut self, reg: u8, disp: i32) {
        self.bytes(&[0x48, 0x8B]);
        self.mem(reg, disp);
    }

    /// `mov qword [rdi+disp], reg`
    fn store64(&mut self, disp: i32, reg: u8) {
        self.bytes(&[0x48, 0x89]);
        self.mem(reg, disp);
    }

    /// `mov byte [rdi+disp], imm8`
    fn store_tag(&mut self, disp: i32, tag: u8) {
        self.bytes(&[0xC6]);
        self.mem(0, disp);
        self.code.push(tag);
    }

    /// `cmp byte [rdi+disp], imm8`
    fn cmp_tag(&mut self, disp: i32, tag: u8) {
        self.bytes(&[0x80]);
        self.mem(7, disp);
        self.code.push(tag);
    }

    /// `mov reg, imm64`
    fn movabs(&mut self, reg: u8, v: u64) {
        self.bytes(&[0x48, 0xB8 + reg]);
        self.code.extend_from_slice(&v.to_le_bytes());
    }

    /// Register-register ALU with opcode `op` (`01` add, `29` sub, `21` and, `09` or,
    /// `31` xor, `39` cmp, `85` test): `op rm=dst, reg=src`.
    fn alu(&mut self, opcode: u8, dst: u8, src: u8) {
        self.bytes(&[0x48, opcode, 0xC0 | (src << 3) | dst]);
    }

    /// `imul dst, src`
    fn imul(&mut self, dst: u8, src: u8) {
        self.bytes(&[0x48, 0x0F, 0xAF, 0xC0 | (dst << 3) | src]);
    }

    /// `F7 /ext` group on a register (`2` not, `3` neg, `7` idiv).
    fn grp_f7(&mut self, ext: u8, reg: u8) {
        self.bytes(&[0x48, 0xF7, 0xC0 | (ext << 3) | reg]);
    }

    /// `cqo`
    fn cqo(&mut self) {
        self.bytes(&[0x48, 0x99]);
    }

    /// `shl rax, cl` (`ext` 4) / `sar rax, cl` (`ext` 7).
    fn shift_rax_cl(&mut self, ext: u8) {
        self.bytes(&[0x48, 0xD3, 0xC0 | (ext << 3) | RAX]);
    }

    /// `cmovcc dst, src`
    fn cmov(&mut self, cc: u8, dst: u8, src: u8) {
        self.bytes(&[0x48, 0x0F, 0x40 + cc, 0xC0 | (dst << 3) | src]);
    }

    /// `setcc al` + `movzx eax, al`
    fn setcc_rax(&mut self, cc: u8) {
        self.bytes(&[0x0F, 0x90 + cc, 0xC0, 0x0F, 0xB6, 0xC0]);
    }

    /// `mov eax, imm32; ret` — the chunk epilogue returning a resume pc.
    fn ret_pc(&mut self, pc: usize) {
        self.code.push(0xB8);
        self.imm32(pc as i32);
        self.code.push(0xC3);
    }

    // --- SSE ---

    /// `movsd xmm, qword [rdi+disp]`
    fn movsd_load(&mut self, xmm: u8, disp: i32) {
        self.bytes(&[0xF2, 0x0F, 0x10]);
        self.mem(xmm, disp);
    }

    /// `movsd qword [rdi+disp], xmm`
    fn movsd_store(&mut self, disp: i32, xmm: u8) {
        self.bytes(&[0xF2, 0x0F, 0x11]);
        self.mem(xmm, disp);
    }

    /// `movups xmm, [rdi+disp]` / `movups [rdi+disp], xmm`
    fn movups(&mut self, store: bool, xmm: u8, disp: i32) {
        self.bytes(&[0x0F, if store { 0x11 } else { 0x10 }]);
        self.mem(xmm, disp);
    }

    /// `cvtsi2sd xmm, qword [rdi+disp]`
    fn cvtsi2sd_mem(&mut self, xmm: u8, disp: i32) {
        self.bytes(&[0xF2, 0x48, 0x0F, 0x2A]);
        self.mem(xmm, disp);
    }

    /// `cvtsi2sd xmm, r64`
    fn cvtsi2sd_reg(&mut self, xmm: u8, reg: u8) {
        self.bytes(&[0xF2, 0x48, 0x0F, 0x2A, 0xC0 | (xmm << 3) | reg]);
    }

    /// `movq xmm, r64`
    fn movq(&mut self, xmm: u8, reg: u8) {
        self.bytes(&[0x66, 0x48, 0x0F, 0x6E, 0xC0 | (xmm << 3) | reg]);
    }

    /// Packed-double ALU `xmm0 op= xmm1`: `58` addsd, `5C` subsd, `59` mulsd, `5E` divsd.
    fn sse_arith(&mut self, opcode: u8) {
        self.bytes(&[0xF2, 0x0F, opcode, 0xC1]);
    }

    /// `pxor xmmA, xmmB` (bitwise zero / sign games).
    fn pxor(&mut self, a: u8, b: u8) {
        self.bytes(&[0x66, 0x0F, 0xEF, 0xC0 | (a << 3) | b]);
    }

    /// `ucomisd xmmA, xmmB`
    fn ucomisd(&mut self, a: u8, b: u8) {
        self.bytes(&[0x66, 0x0F, 0x2E, 0xC0 | (a << 3) | b]);
    }

    // --- control ---

    fn jcc(&mut self, cc: u8, l: Label) {
        self.bytes(&[0x0F, 0x80 + cc]);
        self.fixups.push((self.code.len(), l));
        self.imm32(0);
    }

    fn jmp(&mut self, l: Label) {
        self.code.push(0xE9);
        self.fixups.push((self.code.len(), l));
        self.imm32(0);
    }

    pub(crate) fn finish(mut self) -> Vec<u8> {
        for (pos, l) in self.fixups {
            let target = self.labels[l.0].expect("unbound jit label");
            let rel = target as i64 - (pos as i64 + 4);
            self.code[pos..pos + 4].copy_from_slice(&(rel as i32).to_le_bytes());
        }
        self.code
    }
}

// ---------------------------------------------------------------------------
// Templates.
// ---------------------------------------------------------------------------

/// A binary operand after decomposition: a guest register or a known immediate.
#[derive(Clone, Copy)]
enum Src {
    Reg(u32),
    Imm(Value),
}

/// Per-chunk emission state: the lazily created side-exit labels (one per source pc,
/// shared by every check in that op's template).
struct Emit {
    exits: Vec<(usize, Label)>,
}

impl Emit {
    fn tag_of(&self, r: u32) -> i32 {
        r as i32 * 16 + VALUE_LAYOUT.tag_off
    }

    fn pay_of(&self, r: u32) -> i32 {
        r as i32 * 16 + VALUE_LAYOUT.pay_off
    }

    fn exit(&mut self, a: &mut Asm, pc: usize) -> Label {
        if let Some((_, l)) = self.exits.iter().find(|(p, _)| *p == pc) {
            return *l;
        }
        let l = a.label();
        self.exits.push((pc, l));
        l
    }

    /// `jne exit(pc)` unless the tag byte of guest `r` is the integer tag.
    fn require_int(&mut self, a: &mut Asm, r: u32, pc: usize) {
        let tag = self.tag_of(r);
        let tag_int = VALUE_LAYOUT.tag_int;
        let l = self.exit(a, pc);
        a.cmp_tag(tag, tag_int);
        a.jcc(CC_NE, l);
    }

    /// Writes `rax` (+ the int tag) into guest `dst`.
    fn store_int(&mut self, a: &mut Asm, dst: u32) {
        a.store64(self.pay_of(dst), RAX);
        a.store_tag(self.tag_of(dst), VALUE_LAYOUT.tag_int);
    }

    /// Writes `xmm0` (+ the float tag) into guest `dst`.
    fn store_float(&mut self, a: &mut Asm, dst: u32) {
        a.movsd_store(self.pay_of(dst), 0);
        a.store_tag(self.tag_of(dst), VALUE_LAYOUT.tag_float);
    }

    /// Loads `src` into integer scratch `reg` (tags already verified / imm known int).
    fn load_int(&mut self, a: &mut Asm, reg: u8, src: Src) {
        match src {
            Src::Reg(r) => a.load64(reg, self.pay_of(r)),
            Src::Imm(v) => a.movabs(reg, v.to_bits()),
        }
    }

    /// Loads `src` into `xmm`, promoting integers exactly like `Value::as_float`.
    /// Clobbers `rax` for immediates.
    fn load_float(&mut self, a: &mut Asm, xmm: u8, src: Src) {
        match src {
            Src::Reg(r) => {
                // Runtime tag dispatch: cvtsi2sd for Int, movsd for Float.
                let f = a.label();
                let done = a.label();
                a.cmp_tag(self.tag_of(r), VALUE_LAYOUT.tag_int);
                a.jcc(CC_NE, f);
                a.cvtsi2sd_mem(xmm, self.pay_of(r));
                a.jmp(done);
                a.bind(f);
                a.movsd_load(xmm, self.pay_of(r));
                a.bind(done);
            }
            Src::Imm(Value::Float(v)) => {
                a.movabs(RAX, v.to_bits());
                a.movq(xmm, RAX);
            }
            Src::Imm(Value::Int(i)) => {
                a.movabs(RAX, i as u64);
                a.cvtsi2sd_reg(xmm, RAX);
            }
        }
    }

    /// The integer path of a binary op, operands in `rax`/`rcx`, result left in `rax`.
    /// Caller guarantees both operands are integers.
    fn int_arith(&mut self, a: &mut Asm, op: BinOp) {
        match op {
            BinOp::Add => a.alu(0x01, RAX, RCX),
            BinOp::Sub => a.alu(0x29, RAX, RCX),
            BinOp::Mul => a.imul(RAX, RCX),
            BinOp::And => a.alu(0x21, RAX, RCX),
            BinOp::Or => a.alu(0x09, RAX, RCX),
            BinOp::Xor => a.alu(0x31, RAX, RCX),
            BinOp::Shl => a.shift_rax_cl(4),
            BinOp::Shr => a.shift_rax_cl(7),
            BinOp::Min => {
                a.alu(0x39, RAX, RCX); // cmp rax, rcx
                a.cmov(CC_G, RAX, RCX);
            }
            BinOp::Max => {
                a.alu(0x39, RAX, RCX);
                a.cmov(CC_L, RAX, RCX);
            }
            BinOp::Div | BinOp::Rem => {
                // x.wrapping_div/_rem(y) with the interpreter's edges: y == 0 → 0,
                // i64::MIN / -1 → i64::MIN (rem → 0).
                let zero = a.label();
                let do_div = a.label();
                let done = a.label();
                a.alu(0x85, RCX, RCX); // test rcx, rcx
                a.jcc(CC_E, zero);
                a.bytes(&[0x48, 0x83, 0xF9, 0xFF]); // cmp rcx, -1
                a.jcc(CC_NE, do_div);
                a.movabs(RDX, i64::MIN as u64);
                a.alu(0x39, RAX, RDX); // cmp rax, rdx
                if op == BinOp::Div {
                    a.jcc(CC_E, done); // quotient is i64::MIN: already in rax
                } else {
                    a.jcc(CC_E, zero); // remainder is 0
                }
                a.bind(do_div);
                // 32-bit bypass, the same one LLVM emits for the interpreter's
                // `wrapping_div`: when both operands have zero upper halves the signed
                // quotient equals the unsigned 32-bit one, and `div r32` is several
                // times faster than `idiv r64`. `rcx == -1` never qualifies, so the
                // MIN/-1 edge stays on the 64-bit path handled above.
                let slow = a.label();
                a.bytes(&[0x48, 0x89, 0xC2]); // mov rdx, rax
                a.alu(0x09, RDX, RCX); // or rdx, rcx
                a.bytes(&[0x48, 0xC1, 0xEA, 0x20]); // shr rdx, 32
                a.jcc(CC_NE, slow);
                a.bytes(&[0x31, 0xD2]); // xor edx, edx
                a.bytes(&[0xF7, 0xF1]); // div ecx
                if op == BinOp::Rem {
                    a.bytes(&[0x89, 0xD0]); // mov eax, edx
                }
                a.jmp(done);
                a.bind(slow);
                a.cqo();
                a.grp_f7(7, RCX); // idiv rcx
                if op == BinOp::Rem {
                    a.bytes(&[0x48, 0x89, 0xD0]); // mov rax, rdx
                }
                a.jmp(done);
                a.bind(zero);
                a.bytes(&[0x31, 0xC0]); // xor eax, eax
                a.bind(done);
            }
        }
    }

    /// The float path of a dual-path binary op: `xmm0 = xmm0 op xmm1`.
    fn float_arith(&mut self, a: &mut Asm, op: BinOp) {
        match op {
            BinOp::Add => a.sse_arith(0x58),
            BinOp::Sub => a.sse_arith(0x5C),
            BinOp::Mul => a.sse_arith(0x59),
            BinOp::Div => {
                // y == 0.0 (either zero; NaN is not equal) → 0.0, else x / y.
                let do_div = a.label();
                let done = a.label();
                a.pxor(2, 2);
                a.ucomisd(1, 2);
                a.jcc(CC_P, do_div); // unordered: y is NaN, divide
                a.jcc(CC_NE, do_div);
                a.pxor(0, 0);
                a.jmp(done);
                a.bind(do_div);
                a.sse_arith(0x5E);
                a.bind(done);
            }
            _ => unreachable!("float path only exists for dual-path ops"),
        }
    }

    /// Full template for `dst = lhs op rhs` at stream slot `pc`.
    fn bin(&mut self, a: &mut Asm, dst: u32, op: BinOp, lhs: Src, rhs: Src, pc: usize) {
        let static_float =
            matches!(lhs, Src::Imm(Value::Float(_))) || matches!(rhs, Src::Imm(Value::Float(_)));
        if !dual_path(op) {
            // Integer-only template; floats side-exit (coverage() rejected float imms).
            debug_assert!(!static_float);
            if let Src::Reg(r) = lhs {
                self.require_int(a, r, pc);
            }
            if let Src::Reg(r) = rhs {
                self.require_int(a, r, pc);
            }
            self.load_int(a, RAX, lhs);
            self.load_int(a, RCX, rhs);
            self.int_arith(a, op);
            self.store_int(a, dst);
            return;
        }
        if static_float {
            // A float immediate forces the float path unconditionally.
            self.load_float(a, 0, lhs);
            self.load_float(a, 1, rhs);
            self.float_arith(a, op);
            self.store_float(a, dst);
            return;
        }
        // Both-int fast path with an inline float fallback (mixed operands promote).
        let flt = a.label();
        let done = a.label();
        if let Src::Reg(r) = lhs {
            a.cmp_tag(self.tag_of(r), VALUE_LAYOUT.tag_int);
            a.jcc(CC_NE, flt);
        }
        if let Src::Reg(r) = rhs {
            a.cmp_tag(self.tag_of(r), VALUE_LAYOUT.tag_int);
            a.jcc(CC_NE, flt);
        }
        self.load_int(a, RAX, lhs);
        self.load_int(a, RCX, rhs);
        self.int_arith(a, op);
        self.store_int(a, dst);
        a.jmp(done);
        a.bind(flt);
        self.load_float(a, 0, lhs);
        self.load_float(a, 1, rhs);
        self.float_arith(a, op);
        self.store_float(a, dst);
        a.bind(done);
    }

    /// Template for `dst = lhs pred rhs` (integer comparison; floats side-exit).
    fn cmp(&mut self, a: &mut Asm, dst: u32, pred: Pred, lhs: Src, rhs: Src, pc: usize) {
        if let Src::Reg(r) = lhs {
            self.require_int(a, r, pc);
        }
        if let Src::Reg(r) = rhs {
            self.require_int(a, r, pc);
        }
        self.load_int(a, RAX, lhs);
        self.load_int(a, RCX, rhs);
        a.alu(0x39, RAX, RCX); // cmp rax, rcx
        a.setcc_rax(pred_cc(pred));
        self.store_int(a, dst);
    }

    /// Emits the template for one coverable op (`coverage(p).is_some()` must hold).
    fn op(&mut self, a: &mut Asm, p: &POp, pc: usize) {
        match p {
            POp::MovR { dst, src } => {
                a.movups(false, 0, *src as i32 * 16);
                a.movups(true, 0, *dst as i32 * 16);
            }
            POp::MovI { dst, v } => {
                a.movabs(RAX, v.to_bits());
                a.store64(self.pay_of(*dst), RAX);
                let tag = if v.is_float() {
                    VALUE_LAYOUT.tag_float
                } else {
                    VALUE_LAYOUT.tag_int
                };
                a.store_tag(self.tag_of(*dst), tag);
            }
            POp::UnR { dst, op, src } => match op {
                UnOp::Neg => {
                    // Int: wrapping negate. Float: flip the sign bit (exactly `-f`).
                    let flt = a.label();
                    let done = a.label();
                    a.cmp_tag(self.tag_of(*src), VALUE_LAYOUT.tag_int);
                    a.jcc(CC_NE, flt);
                    a.load64(RAX, self.pay_of(*src));
                    a.grp_f7(3, RAX); // neg rax
                    self.store_int(a, *dst);
                    a.jmp(done);
                    a.bind(flt);
                    a.load64(RAX, self.pay_of(*src));
                    a.movabs(RCX, 1u64 << 63);
                    a.alu(0x31, RAX, RCX); // xor rax, rcx
                    a.store64(self.pay_of(*dst), RAX);
                    a.store_tag(self.tag_of(*dst), VALUE_LAYOUT.tag_float);
                    a.bind(done);
                }
                UnOp::Not => {
                    // `!v.as_int()` — the float route needs a saturating cast, so it
                    // side-exits to the interpreter.
                    self.require_int(a, *src, pc);
                    a.load64(RAX, self.pay_of(*src));
                    a.grp_f7(2, RAX); // not rax
                    self.store_int(a, *dst);
                }
                UnOp::ToInt => {
                    // Identity on ints; float truncation saturates, so it side-exits.
                    self.require_int(a, *src, pc);
                    a.load64(RAX, self.pay_of(*src));
                    self.store_int(a, *dst);
                }
                UnOp::ToFloat => {
                    self.load_float(a, 0, Src::Reg(*src));
                    self.store_float(a, *dst);
                }
            },
            POp::BinRR { dst, op, lhs, rhs } => {
                self.bin(a, *dst, *op, Src::Reg(*lhs), Src::Reg(*rhs), pc)
            }
            POp::BinRI { dst, op, lhs, rhs } => {
                self.bin(a, *dst, *op, Src::Reg(*lhs), Src::Imm(*rhs), pc)
            }
            POp::BinIR { dst, op, lhs, rhs } => {
                self.bin(a, *dst, *op, Src::Imm(*lhs), Src::Reg(*rhs), pc)
            }
            POp::CmpRR {
                dst,
                pred,
                lhs,
                rhs,
            } => self.cmp(a, *dst, *pred, Src::Reg(*lhs), Src::Reg(*rhs), pc),
            POp::CmpRI {
                dst,
                pred,
                lhs,
                rhs,
            } => self.cmp(a, *dst, *pred, Src::Reg(*lhs), Src::Imm(*rhs), pc),
            POp::CmpIR {
                dst,
                pred,
                lhs,
                rhs,
            } => self.cmp(a, *dst, *pred, Src::Imm(*lhs), Src::Reg(*rhs), pc),
            // Fused chains decompose into their constituent templates; the side-exit pc
            // of constituent `k` is `pc + k`, whose stream slot still holds the original
            // unfused op (fusion only rewrites the head), so the interpreter resumes
            // mid-window exactly where the native code stopped.
            POp::BinChainII {
                lhs,
                op1,
                i1,
                d1,
                op2,
                i2,
                d2,
            } => {
                self.bin(a, *d1, *op1, Src::Reg(*lhs), Src::Imm(*i1), pc);
                self.bin(a, *d2, *op2, Src::Reg(*d1), Src::Imm(*i2), pc + 1);
            }
            POp::BinChain3II {
                lhs,
                op1,
                i1,
                d1,
                op2,
                i2,
                d2,
                op3,
                i3,
                d3,
            } => {
                self.bin(a, *d1, *op1, Src::Reg(*lhs), Src::Imm(Value::Int(*i1)), pc);
                self.bin(
                    a,
                    *d2,
                    *op2,
                    Src::Reg(*d1),
                    Src::Imm(Value::Int(*i2)),
                    pc + 1,
                );
                self.bin(
                    a,
                    *d3,
                    *op3,
                    Src::Reg(*d2),
                    Src::Imm(Value::Int(*i3)),
                    pc + 2,
                );
            }
            POp::BinChain3FF {
                lhs,
                op1,
                f1,
                d1,
                op2,
                f2,
                d2,
                op3,
                f3,
                d3,
            } => {
                self.bin(
                    a,
                    *d1,
                    *op1,
                    Src::Reg(*lhs),
                    Src::Imm(Value::Float(*f1)),
                    pc,
                );
                self.bin(
                    a,
                    *d2,
                    *op2,
                    Src::Reg(*d1),
                    Src::Imm(Value::Float(*f2)),
                    pc + 1,
                );
                self.bin(
                    a,
                    *d3,
                    *op3,
                    Src::Reg(*d2),
                    Src::Imm(Value::Float(*f3)),
                    pc + 2,
                );
            }
            POp::BinChainRI {
                lhs,
                rhs,
                op1,
                d1,
                op2,
                i2,
                d2,
            } => {
                self.bin(a, *d1, *op1, Src::Reg(*lhs), Src::Reg(*rhs), pc);
                self.bin(a, *d2, *op2, Src::Reg(*d1), Src::Imm(*i2), pc + 1);
            }
            other => unreachable!("op without a template reached the emitter: {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// The chunk compiler.
// ---------------------------------------------------------------------------

fn slot_width(s: &Slot) -> usize {
    match s {
        Slot::Op(p) => p.fused_width(),
        Slot::Nop | Slot::Bar => 1,
    }
}

/// Appends every profitable straight-line run of `slots` to `a` as a chunk. Returns the
/// chunk index (head slot → entry offset in `a`'s blob). A chunk must cover at least two
/// constituent ops — a single op gains nothing over its threaded handler. Chunks are
/// position-independent leaf functions, so one blob holds the chunks of every stream of
/// an engine.
pub(crate) fn compile_stream(a: &mut Asm, slots: &[Slot]) -> Vec<Chunk> {
    let mut chunks = Vec::new();
    let mut pc = 0;
    while pc < slots.len() {
        let covered = match &slots[pc] {
            Slot::Op(p) => coverage(p),
            Slot::Nop => Some(0),
            Slot::Bar => None,
        };
        if covered.is_none() {
            pc += slot_width(&slots[pc]);
            continue;
        }
        // Scan the maximal coverable run starting here.
        let head = pc;
        let mut units = 0usize;
        let mut end = pc;
        while end < slots.len() {
            match &slots[end] {
                Slot::Bar => break,
                Slot::Nop => end += 1,
                Slot::Op(p) => match coverage(p) {
                    Some(u) => {
                        units += u;
                        end += p.fused_width();
                    }
                    None => break,
                },
            }
        }
        // A chunk must cover ≥ 2 constituent ops to beat per-op threaded dispatch, and
        // must leave a real slot to resume at (streams always end in a terminator, so
        // the second clause only trips on degenerate all-data streams).
        if units < 2 || end >= slots.len() {
            pc = end.max(head + slot_width(&slots[head]));
            continue;
        }
        // Emit the chunk: body, normal epilogue, then the side-exit stubs.
        let off = a.here();
        let mut e = Emit { exits: Vec::new() };
        let mut cur = head;
        while cur < end {
            match &slots[cur] {
                Slot::Op(p) => {
                    e.op(a, p, cur);
                    cur += p.fused_width();
                }
                Slot::Nop => cur += 1,
                Slot::Bar => unreachable!("scan stopped before any barrier"),
            }
        }
        a.ret_pc(end);
        for (exit_pc, l) in std::mem::take(&mut e.exits) {
            a.bind(l);
            a.ret_pc(exit_pc);
        }
        chunks.push(Chunk { head_pc: head, off });
        pc = end;
    }
    chunks
}
