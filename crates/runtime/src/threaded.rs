//! The direct-threaded dispatch tier: each lowered op stream is decoded **once** into an
//! array of pre-resolved handler function pointers (`TOp`), one monomorphized handler per
//! specialized `POp` shape (the fused RMW included), dispatched by a loop that
//! is a single indirect call per op.
//!
//! Why this beats a match-based interpreter such as [`helix_ir::ImageMachine`]:
//!
//! * **operand decode happens at lowering time** — a handler reads flat `u32`/`i64`/[`Value`]
//!   fields out of its own `TOp` instead of matching an enum and chasing `Box`es;
//! * **per-shape monomorphization** — binary/compare/RMW handlers are instantiated per
//!   [`BinOp`]/[`Pred`]/[`UnOp`] (and per `private_ok` route), so the operation itself is a
//!   compile-time constant inside the handler body and the `eval_binop` match disappears;
//! * **one indirect jump per op** — the branch predictor sees a distinct call site target
//!   per handler rather than one central switch that aliases every op's history.
//!
//! Rust has no stable guaranteed tail calls (`become` is unstable), so this is the classic
//! loop-over-function-pointers approximation of direct threading rather than true
//! tail-call threading; the measured win comes from the pre-decoded operands and the
//! monomorphized straight-line handler bodies (see `docs/dispatch.md`).
//!
//! Every run of a parallel program executes on these tables, calls from iteration code
//! included. The differential references are the sequential engines of `helix-ir` (the
//! tree `Machine` and `ImageMachine`): the fuzz oracle holds each tier to their results.

use crate::observe::ImageObserver;
use crate::parallel_image::{
    specialize_op, wait_blocking, FlatEnd, FlatError, IterEnd, IterError, IterSync, LoopImage, POp,
    WaitOutcome, PC_END_ITER, PC_EXIT,
};
use crate::sharded::WorkerMemory;
use crate::telemetry::WorkerCtx;
use helix_ir::interp::{eval_binop, eval_pred, eval_unop, ExecError, MAX_CALL_DEPTH};
use helix_ir::{BinOp, BlockId, ExecImage, FuncId, FuncImage, Op, Opnd, Pred, UnOp, Value};

/// Which dispatch engine runs the lowered bytecode.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DispatchTier {
    /// Pick automatically: the threaded tier unless calibration shows it losing on this
    /// host (see `CalibrationProfile::selected_tier`).
    #[default]
    Auto,
    /// Retired: the match-based interpreter this named is deleted, and
    /// [`crate::ParallelExecutor`] runs a pin to it on [`DispatchTier::Threaded`]. The name
    /// stays until the repository's benchmark, which still pins it, stops naming it; it is
    /// not parsed.
    Switch,
    /// The direct-threaded tier in this module.
    Threaded,
    /// The template JIT in [`crate::jit`]: threaded dispatch whose straight-line data
    /// runs are compiled to native x86-64 chunks. Degrades to [`DispatchTier::Threaded`]
    /// on unsupported targets or under `HELIX_DISABLE_JIT=1`.
    Jit,
}

impl std::fmt::Display for DispatchTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DispatchTier::Auto => "auto",
            DispatchTier::Switch => "switch",
            DispatchTier::Threaded => "threaded",
            DispatchTier::Jit => "jit",
        })
    }
}

impl std::str::FromStr for DispatchTier {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(DispatchTier::Auto),
            "threaded" => Ok(DispatchTier::Threaded),
            "jit" => Ok(DispatchTier::Jit),
            other => Err(format!(
                "unknown dispatch tier `{other}` (expected auto|threaded|jit)"
            )),
        }
    }
}

/// Handler return value: the next pc, or one of the sentinels below.
/// "This execution is over" — the verdict is in `TCtx::{fault,end_iter,end_flat}`.
const DONE: usize = usize::MAX;
/// "The current function changed" (flat call/ret): the dispatch loop re-reads
/// `TCtx::{cur_func,next_pc}` and switches code arrays.
const SWITCH: usize = usize::MAX - 1;

/// A handler executes one decoded op and returns the next pc (or a sentinel).
pub(crate) type Handler = for<'r, 'm> fn(&mut TCtx<'r, 'm>, &TOp, usize) -> usize;

/// One decoded op: a handler pointer plus a flat field bag the decoder filled for it.
/// Field meaning is per-handler (documented at each decode site); unused fields are zero.
/// No `Box`, no enum tag — dispatch reads exactly one cache line ahead.
#[derive(Clone, Copy)]
pub(crate) struct TOp {
    pub(crate) h: Handler,
    a: u32,
    b: u32,
    c: u32,
    d: u32,
    e: u32,
    pub(crate) i: i64,
    pub(crate) j: i64,
    v: Value,
}

impl TOp {
    fn new(h: Handler) -> TOp {
        TOp {
            h,
            a: 0,
            b: 0,
            c: 0,
            d: 0,
            e: 0,
            i: 0,
            j: 0,
            v: Value::Int(0),
        }
    }
}

/// One suspended guest frame of the flat engine's explicit call stack.
struct TFrame {
    func: usize,
    pc: usize,
    regs: Vec<Value>,
    dst: Option<u32>,
}

/// How a flat threaded run halted (converted to `FlatEnd`/`FlatError` by the runner).
enum FlatHalt {
    ReachedStop,
    Returned(Option<Value>),
    BudgetExceeded,
}

/// The mutable state threaded handlers operate on. Code arrays live *outside* this struct
/// (in the dispatch loop) so a handler borrowing its own `TOp` never conflicts with the
/// `&mut TCtx` it also receives.
pub(crate) struct TCtx<'r, 'm> {
    image: &'r ExecImage,
    /// The engine's flat code: the arrays a flat call or return switches to, and the
    /// tables a call out of iteration code runs its callee on.
    flat: &'r FlatTables,
    /// The specialized iteration stream (for the rare boxed ops a `TOp` cannot carry:
    /// `SelectB`, `CallB`). Empty in flat mode.
    pcode: &'r [POp],
    pub(crate) regs: &'r mut Vec<Value>,
    mem: &'r mut WorkerMemory<'m>,
    iteration: u64,
    sync: Option<&'r IterSync<'r>>,
    on_control: Option<&'r mut (dyn FnMut() + 'r)>,
    telem: Option<WorkerCtx<'r>>,
    /// Current function index (flat mode; the loop clone function in iteration mode).
    cur_func: usize,
    /// Resume pc after a `SWITCH` sentinel.
    next_pc: usize,
    frames: Vec<TFrame>,
    top_blocks: u64,
    budget: u64,
    stop_block: Option<u32>,
    /// A guest-level execution error (memory fault, stack overflow, missing terminator).
    fault: Option<ExecError>,
    end_iter: Option<Result<IterEnd, IterError>>,
    end_flat: Option<FlatHalt>,
    /// Present exactly in a profiling run (see [`run_flat_probed`]).
    probe: Option<Probe<'r>>,
}

/// What a profiling run adds to the flat engine's state: the observer its control handlers
/// report to and the fuel they charge.
pub(crate) struct Probe<'r> {
    obs: &'r mut (dyn ImageObserver + 'r),
    fuel: u64,
    /// The fuel of the run each suspended frame resumes after its call, parallel to
    /// `TCtx::frames`.
    resume: Vec<u32>,
}

/// Evaluates a pre-resolved operand (see [`get`]).
#[inline(always)]
fn eval(regs: &[Value], o: Opnd) -> Value {
    match o {
        Opnd::Reg(r) => get(regs, r),
        Opnd::Int(i) => Value::Int(i),
        Opnd::Float(f) => Value::Float(f),
    }
}

// Reads are unchecked: lowering widens the register file to cover every referenced index
// and every caller sizes `regs` to `num_regs`, so the indices are in range by
// construction.
#[inline(always)]
fn get(regs: &[Value], r: u32) -> Value {
    debug_assert!((r as usize) < regs.len());
    // SAFETY: `r` comes from a decoded op of lowered code, which lowering widened the
    // function's `num_regs` to cover, and `regs` holds at least `num_regs` entries.
    unsafe { *regs.get_unchecked(r as usize) }
}

#[inline(always)]
fn set(regs: &mut [Value], r: u32, v: Value) {
    debug_assert!((r as usize) < regs.len());
    // SAFETY: as in `get`; destination registers were widened into the file too.
    unsafe {
        *regs.get_unchecked_mut(r as usize) = v;
    }
}

/// Propagates a memory error out of a handler: record the fault, end the run.
macro_rules! mem_try {
    ($ctx:expr, $e:expr) => {
        match $e {
            Ok(v) => v,
            Err(e) => {
                $ctx.fault = Some(e.into());
                return DONE;
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Monomorphization markers: one ZST per BinOp / Pred / UnOp, so a handler
// instantiated with the marker bakes the operation in as a compile-time constant.
// ---------------------------------------------------------------------------

trait CBin {
    const OP: BinOp;
}
trait CPred {
    const OP: Pred;
}
trait CUn {
    const OP: UnOp;
}

macro_rules! zbin {
    ($($z:ident => $v:ident),* $(,)?) => {
        $(struct $z;
        impl CBin for $z {
            const OP: BinOp = BinOp::$v;
        })*
    };
}
zbin!(
    ZAdd => Add, ZSub => Sub, ZMul => Mul, ZDiv => Div, ZRem => Rem, ZAnd => And,
    ZOr => Or, ZXor => Xor, ZShl => Shl, ZShr => Shr, ZMin => Min, ZMax => Max,
);

macro_rules! zpred {
    ($($z:ident => $v:ident),* $(,)?) => {
        $(struct $z;
        impl CPred for $z {
            const OP: Pred = Pred::$v;
        })*
    };
}
zpred!(ZEq => Eq, ZNe => Ne, ZLt => Lt, ZLe => Le, ZGt => Gt, ZGe => Ge);

macro_rules! zun {
    ($($z:ident => $v:ident),* $(,)?) => {
        $(struct $z;
        impl CUn for $z {
            const OP: UnOp = UnOp::$v;
        })*
    };
}
zun!(ZNeg => Neg, ZNot => Not, ZToFloat => ToFloat, ZToInt => ToInt);

/// Selects the `$h::<Z>` instantiation matching a runtime [`BinOp`].
macro_rules! by_binop {
    ($op:expr, $h:ident) => {
        match $op {
            BinOp::Add => $h::<ZAdd> as Handler,
            BinOp::Sub => $h::<ZSub> as Handler,
            BinOp::Mul => $h::<ZMul> as Handler,
            BinOp::Div => $h::<ZDiv> as Handler,
            BinOp::Rem => $h::<ZRem> as Handler,
            BinOp::And => $h::<ZAnd> as Handler,
            BinOp::Or => $h::<ZOr> as Handler,
            BinOp::Xor => $h::<ZXor> as Handler,
            BinOp::Shl => $h::<ZShl> as Handler,
            BinOp::Shr => $h::<ZShr> as Handler,
            BinOp::Min => $h::<ZMin> as Handler,
            BinOp::Max => $h::<ZMax> as Handler,
        }
    };
}

macro_rules! by_pred {
    ($op:expr, $h:ident) => {
        match $op {
            Pred::Eq => $h::<ZEq> as Handler,
            Pred::Ne => $h::<ZNe> as Handler,
            Pred::Lt => $h::<ZLt> as Handler,
            Pred::Le => $h::<ZLe> as Handler,
            Pred::Gt => $h::<ZGt> as Handler,
            Pred::Ge => $h::<ZGe> as Handler,
        }
    };
}

macro_rules! by_unop {
    ($op:expr, $h:ident) => {
        match $op {
            UnOp::Neg => $h::<ZNeg> as Handler,
            UnOp::Not => $h::<ZNot> as Handler,
            UnOp::ToFloat => $h::<ZToFloat> as Handler,
            UnOp::ToInt => $h::<ZToInt> as Handler,
        }
    };
}

// ---------------------------------------------------------------------------
// The dispatch loop.
// ---------------------------------------------------------------------------

/// Runs decoded code until a handler returns [`DONE`]. A [`SWITCH`] reloads the code array
/// from `ctx.flat`; iteration code never switches.
fn dispatch<'r>(mut code: &'r [TOp], mut pc: usize, ctx: &mut TCtx<'r, '_>) {
    let tables = ctx.flat;
    loop {
        let op = &code[pc];
        let next = (op.h)(ctx, op, pc);
        if next < SWITCH {
            pc = next;
            continue;
        }
        if next == DONE {
            return;
        }
        code = &tables.funcs[ctx.cur_func];
        pc = ctx.next_pc;
    }
}

// ---------------------------------------------------------------------------
// Mode-shared data handlers. Field mapping is noted as `a=.. b=..` per handler and must
// match `decode_data` exactly.
// ---------------------------------------------------------------------------

/// `a=dst b=src`
fn h_mov_r(ctx: &mut TCtx<'_, '_>, op: &TOp, pc: usize) -> usize {
    let v = get(ctx.regs, op.b);
    set(ctx.regs, op.a, v);
    pc + 1
}

/// `a=dst v=imm`
fn h_mov_i(ctx: &mut TCtx<'_, '_>, op: &TOp, pc: usize) -> usize {
    set(ctx.regs, op.a, op.v);
    pc + 1
}

/// `a=dst b=src`
fn h_un_r<U: CUn>(ctx: &mut TCtx<'_, '_>, op: &TOp, pc: usize) -> usize {
    let v = eval_unop(U::OP, get(ctx.regs, op.b));
    set(ctx.regs, op.a, v);
    pc + 1
}

/// `a=dst b=lhs c=rhs`
fn h_bin_rr<Z: CBin>(ctx: &mut TCtx<'_, '_>, op: &TOp, pc: usize) -> usize {
    let v = eval_binop(Z::OP, get(ctx.regs, op.b), get(ctx.regs, op.c));
    set(ctx.regs, op.a, v);
    pc + 1
}

/// `a=dst b=lhs v=rhs`
fn h_bin_ri<Z: CBin>(ctx: &mut TCtx<'_, '_>, op: &TOp, pc: usize) -> usize {
    let v = eval_binop(Z::OP, get(ctx.regs, op.b), op.v);
    set(ctx.regs, op.a, v);
    pc + 1
}

/// `a=dst b=rhs v=lhs`
fn h_bin_ir<Z: CBin>(ctx: &mut TCtx<'_, '_>, op: &TOp, pc: usize) -> usize {
    let v = eval_binop(Z::OP, op.v, get(ctx.regs, op.b));
    set(ctx.regs, op.a, v);
    pc + 1
}

/// `a=dst b=lhs c=rhs`
fn h_cmp_rr<P: CPred>(ctx: &mut TCtx<'_, '_>, op: &TOp, pc: usize) -> usize {
    let v = Value::from_bool(eval_pred(P::OP, get(ctx.regs, op.b), get(ctx.regs, op.c)));
    set(ctx.regs, op.a, v);
    pc + 1
}

/// `a=dst b=lhs v=rhs`
fn h_cmp_ri<P: CPred>(ctx: &mut TCtx<'_, '_>, op: &TOp, pc: usize) -> usize {
    let v = Value::from_bool(eval_pred(P::OP, get(ctx.regs, op.b), op.v));
    set(ctx.regs, op.a, v);
    pc + 1
}

/// `a=dst b=rhs v=lhs`
fn h_cmp_ir<P: CPred>(ctx: &mut TCtx<'_, '_>, op: &TOp, pc: usize) -> usize {
    let v = Value::from_bool(eval_pred(P::OP, op.v, get(ctx.regs, op.b)));
    set(ctx.regs, op.a, v);
    pc + 1
}

/// `a=dst b=addr i=offset`, `P` = private route proven
fn h_load_r<const P: bool>(ctx: &mut TCtx<'_, '_>, op: &TOp, pc: usize) -> usize {
    let a = get(ctx.regs, op.b).as_int() + op.i;
    let v = if P {
        mem_try!(ctx, ctx.mem.load_private(a))
    } else {
        mem_try!(ctx, ctx.mem.load(a))
    };
    set(ctx.regs, op.a, v);
    pc + 1
}

/// `a=dst i=addr`
fn h_load_a(ctx: &mut TCtx<'_, '_>, op: &TOp, pc: usize) -> usize {
    let v = mem_try!(ctx, ctx.mem.load(op.i));
    set(ctx.regs, op.a, v);
    pc + 1
}

/// `a=addr b=value i=offset`
fn h_store_rr<const P: bool>(ctx: &mut TCtx<'_, '_>, op: &TOp, pc: usize) -> usize {
    let a = get(ctx.regs, op.a).as_int() + op.i;
    let v = get(ctx.regs, op.b);
    if P {
        mem_try!(ctx, ctx.mem.store_private(a, v));
    } else {
        mem_try!(ctx, ctx.mem.store(a, v));
    }
    pc + 1
}

/// `a=addr i=offset v=value`
fn h_store_ri<const P: bool>(ctx: &mut TCtx<'_, '_>, op: &TOp, pc: usize) -> usize {
    let a = get(ctx.regs, op.a).as_int() + op.i;
    if P {
        mem_try!(ctx, ctx.mem.store_private(a, op.v));
    } else {
        mem_try!(ctx, ctx.mem.store(a, op.v));
    }
    pc + 1
}

/// `a=value i=addr`
fn h_store_ar(ctx: &mut TCtx<'_, '_>, op: &TOp, pc: usize) -> usize {
    let v = get(ctx.regs, op.a);
    mem_try!(ctx, ctx.mem.store(op.i, v));
    pc + 1
}

/// `i=addr v=value`
fn h_store_ai(ctx: &mut TCtx<'_, '_>, op: &TOp, pc: usize) -> usize {
    mem_try!(ctx, ctx.mem.store(op.i, op.v));
    pc + 1
}

/// `a=dst b=words`
fn h_alloc_r(ctx: &mut TCtx<'_, '_>, op: &TOp, pc: usize) -> usize {
    let n = get(ctx.regs, op.b).as_int().max(0) as usize;
    let base = mem_try!(ctx, ctx.mem.alloc(n));
    set(ctx.regs, op.a, Value::Int(base));
    pc + 1
}

/// `a=dst i=words`
fn h_alloc_i(ctx: &mut TCtx<'_, '_>, op: &TOp, pc: usize) -> usize {
    let n = op.i.max(0) as usize;
    let base = mem_try!(ctx, ctx.mem.alloc(n));
    set(ctx.regs, op.a, Value::Int(base));
    pc + 1
}

/// `a=dst b=words`
fn h_palloc_r(ctx: &mut TCtx<'_, '_>, op: &TOp, pc: usize) -> usize {
    let n = get(ctx.regs, op.b).as_int().max(0) as usize;
    let base = mem_try!(ctx, ctx.mem.alloc_private(n));
    set(ctx.regs, op.a, Value::Int(base));
    pc + 1
}

/// `a=dst i=words`
fn h_palloc_i(ctx: &mut TCtx<'_, '_>, op: &TOp, pc: usize) -> usize {
    let n = op.i.max(0) as usize;
    let base = mem_try!(ctx, ctx.mem.alloc_private(n));
    set(ctx.regs, op.a, Value::Int(base));
    pc + 1
}

// --- the fused RMW superinstruction (one dispatch for the whole window) ---

/// `a=ld b=other c=dst e=ld_on_lhs i=laddr j=saddr` — absolute-address read-modify-write
fn h_rmw_a<Z: CBin>(ctx: &mut TCtx<'_, '_>, op: &TOp, pc: usize) -> usize {
    let l = mem_try!(ctx, ctx.mem.load(op.i));
    set(ctx.regs, op.a, l);
    let o = get(ctx.regs, op.b);
    let v = if op.e != 0 {
        eval_binop(Z::OP, l, o)
    } else {
        eval_binop(Z::OP, o, l)
    };
    set(ctx.regs, op.c, v);
    mem_try!(ctx, ctx.mem.store(op.j, v));
    pc + 3
}

/// `a=block` — missing terminator (both modes; the runner maps the fault).
fn h_trap(ctx: &mut TCtx<'_, '_>, op: &TOp, _pc: usize) -> usize {
    ctx.fault = Some(ExecError::MissingTerminator(BlockId::new(op.a)));
    DONE
}

/// Flat-mode `Wait`/`Signal`: no-ops (outside iteration code they are either phase-bound
/// sync the sequential engines also ignore, or generator noise).
fn h_nop(_ctx: &mut TCtx<'_, '_>, _op: &TOp, pc: usize) -> usize {
    pc + 1
}

/// A slot [`FlatTables::build`] left undecoded (see [`FlatScope`]): decodes the op now and
/// runs it, so reaching one costs time, never correctness. A call's callee has a table:
/// the scope closes over the calls of cold blocks too.
fn h_cold(ctx: &mut TCtx<'_, '_>, _op: &TOp, pc: usize) -> usize {
    let image = ctx.image;
    let (op, _) = decode_flat_op(&image.funcs[ctx.cur_func].code[pc]);
    (op.h)(ctx, &op, pc)
}

// ---------------------------------------------------------------------------
// Iteration-mode control handlers.
// ---------------------------------------------------------------------------

/// `a=lane` — the synchronized-segment entry wait.
fn h_wait(ctx: &mut TCtx<'_, '_>, op: &TOp, pc: usize) -> usize {
    let sync = ctx.sync.expect("iteration handler outside iteration mode");
    let lane_ix = op.a as usize;
    if !sync.lanes.poll(lane_ix, ctx.iteration) {
        match wait_blocking(sync, ctx.telem, lane_ix, ctx.iteration, pc as u32) {
            WaitOutcome::Passed => {}
            WaitOutcome::Cancelled => {
                ctx.end_iter = Some(Ok(IterEnd::Cancelled));
                return DONE;
            }
            WaitOutcome::Deadlocked { observed } => {
                ctx.end_iter = Some(Err(IterError::Deadlock {
                    lane: op.a,
                    pc: pc as u32,
                    observed,
                }));
                return DONE;
            }
        }
    } else if let Some(t) = ctx.telem {
        t.on_wait_fast(ctx.iteration, pc as u32);
    }
    pc + 1
}

/// `a=lane` — the segment-exit signal.
fn h_signal_lane(ctx: &mut TCtx<'_, '_>, op: &TOp, pc: usize) -> usize {
    let sync = ctx.sync.expect("iteration handler outside iteration mode");
    sync.lanes.signal(op.a as usize, ctx.iteration);
    sync.sleepers.wake_all();
    if let Some(t) = ctx.telem {
        t.on_signal(ctx.iteration, pc as u32);
    }
    pc + 1
}

/// Prologue completed: release the next iteration.
fn h_signal_control(ctx: &mut TCtx<'_, '_>, _op: &TOp, pc: usize) -> usize {
    if let Some(f) = ctx.on_control.as_mut() {
        f();
    }
    pc + 1
}

/// Select; operands live in the boxed `POp` at `pc`.
fn h_select_iter(ctx: &mut TCtx<'_, '_>, _op: &TOp, pc: usize) -> usize {
    let pcode = ctx.pcode;
    let POp::SelectB(data) = &pcode[pc] else {
        unreachable!("decoder installs h_select_iter only on SelectB")
    };
    let v = if eval(ctx.regs, data.cond).as_bool() {
        eval(ctx.regs, data.on_true)
    } else {
        eval(ctx.regs, data.on_false)
    };
    set(ctx.regs, data.dst, v);
    pc + 1
}

/// Call out of the iteration; call data lives in the boxed `POp` at `pc`. The callee runs
/// flat on the engine's tables, on a call stack of its own.
fn h_call_iter(ctx: &mut TCtx<'_, '_>, _op: &TOp, pc: usize) -> usize {
    let (image, pcode) = (ctx.image, ctx.pcode);
    let POp::CallB(call) = &pcode[pc] else {
        unreachable!("decoder installs h_call_iter only on CallB")
    };
    let mut callee_regs = callee_frame(image, call.func, &call.args, ctx.regs);
    let callee = FuncId::new(call.func);
    match run_flat_threaded(
        image,
        ctx.flat,
        callee,
        image.func(callee).entry_block,
        None,
        &mut callee_regs,
        ctx.mem,
        u64::MAX,
    ) {
        Ok(FlatEnd::Returned(v)) => {
            if let Some(d) = call.dst {
                set(ctx.regs, d, v.unwrap_or_default());
            }
            pc + 1
        }
        Ok(FlatEnd::ReachedStop) => unreachable!("no stop block in callee runs"),
        Err(FlatError::Exec(e)) => {
            ctx.fault = Some(e);
            DONE
        }
        Err(FlatError::BudgetExceeded) => unreachable!("callees are unmetered"),
    }
}

/// `a=pc` — internal jump.
fn h_jump_iter(_ctx: &mut TCtx<'_, '_>, op: &TOp, _pc: usize) -> usize {
    op.a as usize
}

fn h_end_iter(ctx: &mut TCtx<'_, '_>, _op: &TOp, _pc: usize) -> usize {
    ctx.end_iter = Some(Ok(IterEnd::Completed));
    DONE
}

/// `a=block`
fn h_exit_jump(ctx: &mut TCtx<'_, '_>, op: &TOp, _pc: usize) -> usize {
    ctx.end_iter = Some(Ok(IterEnd::Exit { block: op.a }));
    DONE
}

/// Resolves an iteration branch edge: sentinel targets end the iteration.
#[inline(always)]
fn iter_edge(ctx: &mut TCtx<'_, '_>, target: u32, block: u32) -> usize {
    match target {
        PC_END_ITER => {
            ctx.end_iter = Some(Ok(IterEnd::Completed));
            DONE
        }
        PC_EXIT => {
            ctx.end_iter = Some(Ok(IterEnd::Exit { block }));
            DONE
        }
        t => t as usize,
    }
}

/// `a=cond b=then_pc c=else_pc d=then_block e=else_block`
fn h_branch_iter(ctx: &mut TCtx<'_, '_>, op: &TOp, _pc: usize) -> usize {
    let (target, block) = if get(ctx.regs, op.a).as_bool() {
        (op.b, op.d)
    } else {
        (op.c, op.e)
    };
    iter_edge(ctx, target, block)
}

/// `a=src`
fn h_ret_r_iter(ctx: &mut TCtx<'_, '_>, op: &TOp, _pc: usize) -> usize {
    ctx.end_iter = Some(Ok(IterEnd::Returned(Some(get(ctx.regs, op.a)))));
    DONE
}

/// `e=has_value v=value`
fn h_ret_i_iter(ctx: &mut TCtx<'_, '_>, op: &TOp, _pc: usize) -> usize {
    let v = (op.e != 0).then_some(op.v);
    ctx.end_iter = Some(Ok(IterEnd::Returned(v)));
    DONE
}

// ---------------------------------------------------------------------------
// Flat-mode control handlers.
// ---------------------------------------------------------------------------

/// Resolves a flat top-level block transition: stop-block and budget checks apply only
/// outside callees.
#[inline(always)]
fn flat_edge(ctx: &mut TCtx<'_, '_>, target: u32, block: u32) -> usize {
    if ctx.frames.is_empty() {
        if ctx.stop_block == Some(block) {
            ctx.end_flat = Some(FlatHalt::ReachedStop);
            return DONE;
        }
        ctx.top_blocks += 1;
        if ctx.top_blocks > ctx.budget {
            ctx.end_flat = Some(FlatHalt::BudgetExceeded);
            return DONE;
        }
    }
    target as usize
}

/// `a=target b=block`
fn h_jump_flat(ctx: &mut TCtx<'_, '_>, op: &TOp, _pc: usize) -> usize {
    flat_edge(ctx, op.a, op.b)
}

/// `a=cond b=then_pc c=else_pc d=then_block e=else_block`
fn h_branch_flat(ctx: &mut TCtx<'_, '_>, op: &TOp, _pc: usize) -> usize {
    let (target, block) = if get(ctx.regs, op.a).as_bool() {
        (op.b, op.d)
    } else {
        (op.c, op.e)
    };
    flat_edge(ctx, target, block)
}

/// Select; operands live in the original `Op` stream at `pc`.
fn h_select_flat(ctx: &mut TCtx<'_, '_>, _op: &TOp, pc: usize) -> usize {
    let image = ctx.image;
    let Op::Select {
        dst,
        cond,
        on_true,
        on_false,
    } = &image.funcs[ctx.cur_func].code[pc]
    else {
        unreachable!("decoder installs h_select_flat only on Select")
    };
    let v = if eval(ctx.regs, *cond).as_bool() {
        eval(ctx.regs, *on_true)
    } else {
        eval(ctx.regs, *on_false)
    };
    set(ctx.regs, *dst, v);
    pc + 1
}

/// Call; args live in the original `Op` stream at `pc`. Pushes a frame and switches code
/// arrays via the `SWITCH` sentinel.
fn h_call_flat(ctx: &mut TCtx<'_, '_>, _op: &TOp, pc: usize) -> usize {
    let image = ctx.image;
    let Op::Call {
        dst,
        func: callee,
        args,
    } = &image.funcs[ctx.cur_func].code[pc]
    else {
        unreachable!("decoder installs h_call_flat only on Call")
    };
    if ctx.frames.len() + 1 > MAX_CALL_DEPTH {
        ctx.fault = Some(ExecError::StackOverflow);
        return DONE;
    }
    let callee_regs = callee_frame(image, *callee, args, ctx.regs);
    ctx.frames.push(TFrame {
        func: ctx.cur_func,
        pc,
        regs: std::mem::replace(ctx.regs, callee_regs),
        dst: *dst,
    });
    ctx.cur_func = *callee as usize;
    ctx.next_pc = image.funcs[ctx.cur_func].entry_pc() as usize;
    SWITCH
}

/// The register file of a fresh frame of `callee`, its parameters evaluated from `args`
/// over the caller's `regs`.
fn callee_frame(image: &ExecImage, callee: u32, args: &[Opnd], regs: &[Value]) -> Vec<Value> {
    let cf = &image.funcs[callee as usize];
    let mut frame = vec![Value::default(); cf.num_regs.max(args.len())];
    for (slot, a) in frame.iter_mut().zip(args).take(cf.num_params) {
        *slot = eval(regs, *a);
    }
    frame
}

/// Shared return path: pop a frame or end the run.
#[inline(always)]
fn ret_flat(ctx: &mut TCtx<'_, '_>, v: Option<Value>) -> usize {
    match ctx.frames.pop() {
        None => {
            ctx.end_flat = Some(FlatHalt::Returned(v));
            DONE
        }
        Some(frame) => {
            ctx.cur_func = frame.func;
            *ctx.regs = frame.regs;
            if let Some(d) = frame.dst {
                set(ctx.regs, d, v.unwrap_or_default());
            }
            ctx.next_pc = frame.pc + 1;
            SWITCH
        }
    }
}

/// `a=src`
fn h_ret_r_flat(ctx: &mut TCtx<'_, '_>, op: &TOp, _pc: usize) -> usize {
    let v = Some(get(ctx.regs, op.a));
    ret_flat(ctx, v)
}

/// `e=has_value v=value`
fn h_ret_i_flat(ctx: &mut TCtx<'_, '_>, op: &TOp, _pc: usize) -> usize {
    let v = (op.e != 0).then_some(op.v);
    ret_flat(ctx, v)
}

// ---------------------------------------------------------------------------
// Profiling control handlers: the flat ones plus the events the profiler consumes and the
// fuel a machine that charges every op would charge. Fuel is charged per *run* — a block's
// ops up to its first call or terminator, and after each call the ops up to the next one —
// on entering the run, so data ops (and the JIT chunks over them) stay uninstrumented.
// Profiling runs whole functions: no stop block, no budget.
// ---------------------------------------------------------------------------

#[inline(always)]
fn probe_mut<'c, 'r>(ctx: &'c mut TCtx<'r, '_>) -> &'c mut Probe<'r> {
    ctx.probe
        .as_mut()
        .expect("profiling handler outside a profiling run")
}

/// The fuel of the run that starts at `pc` of `f`: its ops up to and including the first
/// call, jump, branch or return. A `Trap` ends it uncharged: every engine aborts there
/// before charging.
fn run_fuel(f: &FuncImage, pc: u32) -> u32 {
    let mut n = 0;
    for op in &f.code[pc as usize..] {
        match op {
            Op::Trap { .. } => break,
            Op::Call { .. } | Op::Jump { .. } | Op::Branch { .. } | Op::Ret { .. } => return n + 1,
            _ => n += 1,
        }
    }
    n
}

/// Charges the `n` ops of the run that starts at `pc` of the current function. With less
/// fuel left, runs the ops it covers one at a time — none is a call or a control op, since
/// a run ends at the first — and ends the run with the first fault among them, else with
/// [`ExecError::FuelExhausted`]: where and how a machine that charges each op stops.
fn charge(ctx: &mut TCtx<'_, '_>, pc: usize, n: u32) -> bool {
    let probe = probe_mut(ctx);
    if let Some(left) = probe.fuel.checked_sub(u64::from(n)) {
        probe.fuel = left;
        return true;
    }
    let covered = probe.fuel as usize;
    let image = ctx.image;
    for (at, op) in image.funcs[ctx.cur_func].code[pc..pc + covered]
        .iter()
        .enumerate()
    {
        let (op, _) = decode_flat_op(op);
        if (op.h)(ctx, &op, pc + at) == DONE {
            return false;
        }
    }
    ctx.fault = Some(ExecError::FuelExhausted);
    false
}

/// Reports entering `block` of the current function at `target` and charges its first run.
#[inline(always)]
fn enter_block(ctx: &mut TCtx<'_, '_>, block: u32, target: u32, fuel: u32) -> usize {
    let func = FuncId::new(ctx.cur_func as u32);
    probe_mut(ctx).obs.on_block_enter(func, block);
    if charge(ctx, target as usize, fuel) {
        target as usize
    } else {
        DONE
    }
}

/// `a=target b=block c=fuel`
fn h_jump_probe(ctx: &mut TCtx<'_, '_>, op: &TOp, _pc: usize) -> usize {
    enter_block(ctx, op.b, op.a, op.c)
}

/// `a=cond b=then_pc c=else_pc d=then_block e=else_block i=then_fuel j=else_fuel`
fn h_branch_probe(ctx: &mut TCtx<'_, '_>, op: &TOp, _pc: usize) -> usize {
    if get(ctx.regs, op.a).as_bool() {
        enter_block(ctx, op.d, op.b, op.i as u32)
    } else {
        enter_block(ctx, op.e, op.c, op.j as u32)
    }
}

/// `a=callee_fuel b=resume_fuel` — [`h_call_flat`], then the call and the callee's entry
/// block are reported and the callee's first run charged; the run after the call is
/// charged when the callee returns.
fn h_call_probe(ctx: &mut TCtx<'_, '_>, op: &TOp, pc: usize) -> usize {
    let caller = FuncId::new(ctx.cur_func as u32);
    if h_call_flat(ctx, op, pc) == DONE {
        return DONE;
    }
    let callee = FuncId::new(ctx.cur_func as u32);
    let entry = ctx.image.funcs[ctx.cur_func].entry_block;
    let probe = probe_mut(ctx);
    probe.resume.push(op.b);
    probe.obs.on_call(caller, pc as u32, callee);
    probe.obs.on_block_enter(callee, entry);
    if charge(ctx, ctx.next_pc, op.a) {
        SWITCH
    } else {
        DONE
    }
}

/// Reports the return, then [`ret_flat`]; back in a caller, charges the run after the call.
#[inline(always)]
fn ret_probe(ctx: &mut TCtx<'_, '_>, v: Option<Value>) -> usize {
    let func = FuncId::new(ctx.cur_func as u32);
    probe_mut(ctx).obs.on_return(func);
    if ret_flat(ctx, v) == DONE {
        return DONE;
    }
    let resume = probe_mut(ctx)
        .resume
        .pop()
        .expect("one resume run per frame");
    if charge(ctx, ctx.next_pc, resume) {
        SWITCH
    } else {
        DONE
    }
}

/// `a=src`
fn h_ret_r_probe(ctx: &mut TCtx<'_, '_>, op: &TOp, _pc: usize) -> usize {
    let v = Some(get(ctx.regs, op.a));
    ret_probe(ctx, v)
}

/// `e=has_value v=value`
fn h_ret_i_probe(ctx: &mut TCtx<'_, '_>, op: &TOp, _pc: usize) -> usize {
    let v = (op.e != 0).then_some(op.v);
    ret_probe(ctx, v)
}

// ---------------------------------------------------------------------------
// Decoders: POp/Op streams → TOp arrays. Interior slots of fused windows decode like any
// other op (they keep their original POp), so jumps into the middle of a window run the
// window's remaining ops one by one.
// ---------------------------------------------------------------------------

/// Decodes a mode-independent data op; `None` for control ops and the boxed shapes
/// handled per mode.
fn decode_data(p: &POp) -> Option<TOp> {
    Some(match p {
        POp::MovR { dst, src } => TOp {
            a: *dst,
            b: *src,
            ..TOp::new(h_mov_r)
        },
        POp::MovI { dst, v } => TOp {
            a: *dst,
            v: *v,
            ..TOp::new(h_mov_i)
        },
        POp::UnR { dst, op, src } => TOp {
            a: *dst,
            b: *src,
            ..TOp::new(by_unop!(*op, h_un_r))
        },
        POp::BinRR { dst, op, lhs, rhs } => TOp {
            a: *dst,
            b: *lhs,
            c: *rhs,
            ..TOp::new(by_binop!(*op, h_bin_rr))
        },
        POp::BinRI { dst, op, lhs, rhs } => TOp {
            a: *dst,
            b: *lhs,
            v: *rhs,
            ..TOp::new(by_binop!(*op, h_bin_ri))
        },
        POp::BinIR { dst, op, lhs, rhs } => TOp {
            a: *dst,
            b: *rhs,
            v: *lhs,
            ..TOp::new(by_binop!(*op, h_bin_ir))
        },
        POp::CmpRR {
            dst,
            pred,
            lhs,
            rhs,
        } => TOp {
            a: *dst,
            b: *lhs,
            c: *rhs,
            ..TOp::new(by_pred!(*pred, h_cmp_rr))
        },
        POp::CmpRI {
            dst,
            pred,
            lhs,
            rhs,
        } => TOp {
            a: *dst,
            b: *lhs,
            v: *rhs,
            ..TOp::new(by_pred!(*pred, h_cmp_ri))
        },
        POp::CmpIR {
            dst,
            pred,
            lhs,
            rhs,
        } => TOp {
            a: *dst,
            b: *rhs,
            v: *lhs,
            ..TOp::new(by_pred!(*pred, h_cmp_ir))
        },
        POp::LoadR {
            dst,
            addr,
            offset,
            private_ok,
        } => TOp {
            a: *dst,
            b: *addr,
            i: *offset,
            ..TOp::new(if *private_ok {
                h_load_r::<true> as Handler
            } else {
                h_load_r::<false> as Handler
            })
        },
        POp::LoadA { dst, addr } => TOp {
            a: *dst,
            i: *addr,
            ..TOp::new(h_load_a)
        },
        POp::StoreRR {
            addr,
            offset,
            value,
            private_ok,
        } => TOp {
            a: *addr,
            b: *value,
            i: *offset,
            ..TOp::new(if *private_ok {
                h_store_rr::<true> as Handler
            } else {
                h_store_rr::<false> as Handler
            })
        },
        POp::StoreRI {
            addr,
            offset,
            value,
            private_ok,
        } => TOp {
            a: *addr,
            i: *offset,
            v: *value,
            ..TOp::new(if *private_ok {
                h_store_ri::<true> as Handler
            } else {
                h_store_ri::<false> as Handler
            })
        },
        POp::StoreAR { addr, value } => TOp {
            a: *value,
            i: *addr,
            ..TOp::new(h_store_ar)
        },
        POp::StoreAI { addr, value } => TOp {
            i: *addr,
            v: *value,
            ..TOp::new(h_store_ai)
        },
        POp::AllocR { dst, words } => TOp {
            a: *dst,
            b: *words,
            ..TOp::new(h_alloc_r)
        },
        POp::AllocI { dst, words } => TOp {
            a: *dst,
            i: *words,
            ..TOp::new(h_alloc_i)
        },
        POp::PrivateAllocR { dst, words } => TOp {
            a: *dst,
            b: *words,
            ..TOp::new(h_palloc_r)
        },
        POp::PrivateAllocI { dst, words } => TOp {
            a: *dst,
            i: *words,
            ..TOp::new(h_palloc_i)
        },
        POp::RmwA {
            laddr,
            ld,
            op,
            other,
            ld_on_lhs,
            dst,
            saddr,
        } => TOp {
            a: *ld,
            b: *other,
            c: *dst,
            e: *ld_on_lhs as u32,
            i: *laddr,
            j: *saddr,
            ..TOp::new(by_binop!(*op, h_rmw_a))
        },
        POp::Trap { block } => TOp {
            a: *block,
            ..TOp::new(h_trap)
        },
        _ => return None,
    })
}

/// Decodes one specialized iteration op.
fn decode_iter_op(p: &POp) -> TOp {
    if let Some(t) = decode_data(p) {
        return t;
    }
    match p {
        POp::SelectB(_) => TOp::new(h_select_iter),
        POp::CallB(_) => TOp::new(h_call_iter),
        POp::Wait { lane } => TOp {
            a: *lane,
            ..TOp::new(h_wait)
        },
        POp::SignalLane { lane } => TOp {
            a: *lane,
            ..TOp::new(h_signal_lane)
        },
        POp::SignalControl => TOp::new(h_signal_control),
        POp::Jump { pc } => TOp {
            a: *pc,
            ..TOp::new(h_jump_iter)
        },
        POp::EndIter => TOp::new(h_end_iter),
        POp::ExitJump { block } => TOp {
            a: *block,
            ..TOp::new(h_exit_jump)
        },
        POp::Branch {
            cond,
            then_pc,
            then_block,
            else_pc,
            else_block,
        } => TOp {
            a: *cond,
            b: *then_pc,
            c: *else_pc,
            d: *then_block,
            e: *else_block,
            ..TOp::new(h_branch_iter)
        },
        POp::RetR { src } => TOp {
            a: *src,
            ..TOp::new(h_ret_r_iter)
        },
        POp::RetI { v } => TOp {
            e: v.is_some() as u32,
            v: v.unwrap_or_default(),
            ..TOp::new(h_ret_i_iter)
        },
        _ => unreachable!("decode_data covers every remaining POp"),
    }
}

/// Whether `op` is a slot [`FlatTables::build`] left undecoded.
#[cfg(test)]
pub(crate) fn is_cold(op: &TOp) -> bool {
    std::ptr::fn_addr_eq(op.h, h_cold as Handler)
}

/// Decodes one whole-function op for the flat engine. Data ops reuse the iteration
/// specializer (with `private_ok = false`: flat code accesses memory on the shared route)
/// and come back with their specialized form, which the JIT compiles without specializing
/// again; control ops decode straight from the [`Op`] so block fields survive for the
/// stop-block and budget checks. No fusion in flat mode.
fn decode_flat_op(op: &Op) -> (TOp, Option<POp>) {
    let control = match op {
        Op::Wait { .. } | Op::Signal { .. } => TOp::new(h_nop),
        Op::Select { .. } => TOp::new(h_select_flat),
        Op::Call { .. } => TOp::new(h_call_flat),
        Op::Jump { pc, block } => TOp {
            a: *pc,
            b: *block,
            ..TOp::new(h_jump_flat)
        },
        Op::Branch {
            cond,
            then_pc,
            then_block,
            else_pc,
            else_block,
        } => match cond {
            Opnd::Reg(r) => TOp {
                a: *r,
                b: *then_pc,
                c: *else_pc,
                d: *then_block,
                e: *else_block,
                ..TOp::new(h_branch_flat)
            },
            imm => {
                // Constant condition: the branch folds to its taken edge.
                let (pc, block) = if eval(&[], *imm).as_bool() {
                    (*then_pc, *then_block)
                } else {
                    (*else_pc, *else_block)
                };
                TOp {
                    a: pc,
                    b: block,
                    ..TOp::new(h_jump_flat)
                }
            }
        },
        Op::Ret { value } => match value {
            Some(Opnd::Reg(r)) => TOp {
                a: *r,
                ..TOp::new(h_ret_r_flat)
            },
            Some(imm) => TOp {
                e: 1,
                v: eval(&[], *imm),
                ..TOp::new(h_ret_i_flat)
            },
            None => TOp::new(h_ret_i_flat),
        },
        Op::Trap { block } => TOp {
            a: *block,
            ..TOp::new(h_trap)
        },
        data => {
            let p = specialize_op(data, false);
            let op = decode_data(&p).expect("every non-control Op specializes to a data POp");
            return (op, Some(p));
        }
    };
    (control, None)
}

/// Decodes the op at `pc` of `f` for a profiling run: control ops get their profiling
/// handlers, with the fuel of the runs they enter; every other op decodes as in
/// [`decode_flat_op`].
fn decode_probe_op(image: &ExecImage, f: &FuncImage, pc: u32) -> (TOp, Option<POp>) {
    let jump = |target: u32, block: u32| TOp {
        a: target,
        b: block,
        c: run_fuel(f, target),
        ..TOp::new(h_jump_probe)
    };
    let op = &f.code[pc as usize];
    let probe = match op {
        Op::Jump { pc, block } => jump(*pc, *block),
        Op::Branch {
            cond,
            then_pc,
            then_block,
            else_pc,
            else_block,
        } => match cond {
            Opnd::Reg(r) => TOp {
                a: *r,
                b: *then_pc,
                c: *else_pc,
                d: *then_block,
                e: *else_block,
                i: run_fuel(f, *then_pc).into(),
                j: run_fuel(f, *else_pc).into(),
                ..TOp::new(h_branch_probe)
            },
            imm if eval(&[], *imm).as_bool() => jump(*then_pc, *then_block),
            _ => jump(*else_pc, *else_block),
        },
        Op::Call { func, .. } => {
            let callee = &image.funcs[*func as usize];
            TOp {
                a: run_fuel(callee, callee.entry_pc()),
                b: run_fuel(f, pc + 1),
                ..TOp::new(h_call_probe)
            }
        }
        Op::Ret { value } => match value {
            Some(Opnd::Reg(r)) => TOp {
                a: *r,
                ..TOp::new(h_ret_r_probe)
            },
            Some(imm) => TOp {
                e: 1,
                v: eval(&[], *imm),
                ..TOp::new(h_ret_i_probe)
            },
            None => TOp::new(h_ret_i_probe),
        },
        _ => return decode_flat_op(op),
    };
    (probe, None)
}

/// The decoded per-iteration code array of one [`LoopImage`]. Cheap to build (one pass
/// over the stream); built once per run and shared by every worker.
pub(crate) struct IterTable {
    pub(crate) ops: Vec<TOp>,
}

impl IterTable {
    pub(crate) fn build(loop_image: &LoopImage) -> IterTable {
        IterTable {
            ops: loop_image.pcode.iter().map(decode_iter_op).collect(),
        }
    }
}

/// The flat code one engine can run: its function and that function's call-closure,
/// calls from the parallelized loop's blocks included (iteration code runs its callees on
/// these tables). Every other function's table stays empty — no run can reach it: the
/// clone's original and helpers nothing calls.
///
/// In the engine's function, the parallelized loop's own blocks are *cold*: their slots
/// decode on first use ([`h_cold`]) instead of up front. Phase A stops at the loop header
/// and Phase B runs the loop from the iteration stream, so only Phase C can run them flat —
/// when a block after the loop re-enters the loop (it nests in an outer loop of the same
/// function) or the function calls itself. In either case the blocks are decoded with the
/// rest.
pub(crate) struct FlatScope {
    /// Whether each function's code is decoded, by function index.
    funcs: Vec<bool>,
    /// The engine's function.
    root: usize,
    /// Whether each block of the engine's function is cold, by dense block index.
    cold: Vec<bool>,
    /// Whether control ops decode to their profiling handlers ([`run_flat_probed`]).
    probe: bool,
}

impl FlatScope {
    /// The scope of an engine that runs `func`, which holds `loop_image`'s loop when given.
    pub(crate) fn new(image: &ExecImage, func: FuncId, loop_image: Option<&LoopImage>) -> Self {
        let root = func.index();
        let fi = &image.funcs[root];
        let mut cold = vec![false; fi.num_blocks()];
        if let Some(l) = loop_image {
            debug_assert_eq!(l.func, func, "the loop lives in the engine's function");
            for &b in &l.pc_block {
                cold[b as usize] = true;
            }
            if reenters_loop(fi, &cold) {
                cold.fill(false);
            }
        }
        let (funcs, recursive) = close_over_calls(image, root);
        if recursive {
            // The function runs as its own callee, where no stop block applies.
            cold.fill(false);
        }
        FlatScope {
            funcs,
            root,
            cold,
            probe: false,
        }
    }

    /// The scope of a profiling run of `func`: its call-closure, nothing cold, control ops
    /// decoded to their profiling handlers.
    pub(crate) fn probe(image: &ExecImage, func: FuncId) -> Self {
        FlatScope {
            probe: true,
            ..Self::new(image, func, None)
        }
    }
}

/// Marks the call-closure of `root`, by function index; also returns whether it calls
/// `root` itself.
fn close_over_calls(image: &ExecImage, root: usize) -> (Vec<bool>, bool) {
    let mut funcs = vec![false; image.funcs.len()];
    funcs[root] = true;
    let mut recursive = false;
    let mut stack = vec![root];
    while let Some(k) = stack.pop() {
        for op in &image.funcs[k].code {
            if let Op::Call { func, .. } = op {
                let callee = *func as usize;
                recursive |= callee == root;
                if !std::mem::replace(&mut funcs[callee], true) {
                    stack.push(callee);
                }
            }
        }
    }
    (funcs, recursive)
}

/// Whether a path leaves the blocks marked in `in_loop` and comes back to one of them.
fn reenters_loop(fi: &FuncImage, in_loop: &[bool]) -> bool {
    let successors = |b: usize| {
        fi.block_code(b as u32).iter().flat_map(|op| match op {
            Op::Jump { block, .. } => [Some(*block), None],
            Op::Branch {
                then_block,
                else_block,
                ..
            } => [Some(*then_block), Some(*else_block)],
            _ => [None, None],
        })
    };
    let mut seen = vec![false; in_loop.len()];
    let mut stack: Vec<usize> = (0..in_loop.len())
        .filter(|&b| in_loop[b])
        .flat_map(|b| successors(b).flatten())
        .map(|b| b as usize)
        .filter(|&b| !in_loop[b])
        .collect();
    while let Some(b) = stack.pop() {
        if in_loop[b] {
            return true;
        }
        if !std::mem::replace(&mut seen[b], true) {
            stack.extend(successors(b).flatten().map(|s| s as usize));
        }
    }
    false
}

/// Decoded whole-function code arrays of an [`ExecImage`] (flat engine: Phase A/C and
/// callee bodies), parallel to `image.funcs`; empty for functions outside the
/// [`FlatScope`] it was built for.
pub(crate) struct FlatTables {
    pub(crate) funcs: Vec<Vec<TOp>>,
}

impl FlatTables {
    /// Decodes the code of `scope`'s functions. Alongside, it maps every decoded op to a
    /// slot of type `S` with `slot(op, data)`, `data` being the op's specialized form when
    /// it is a data op; cold slots get `S::default()`. The slots come back parallel to the
    /// tables. The JIT uses them as its chunk scanner's input; the threaded tier passes
    /// `S = ()`, which costs nothing.
    pub(crate) fn build<S: Default>(
        image: &ExecImage,
        scope: &FlatScope,
        mut slot: impl FnMut(&Op, Option<POp>) -> S,
    ) -> (FlatTables, Vec<Vec<S>>) {
        let mut funcs = Vec::with_capacity(image.funcs.len());
        let mut slots = Vec::with_capacity(image.funcs.len());
        for (k, f) in image.funcs.iter().enumerate() {
            let mut ops = Vec::new();
            let mut ss = Vec::new();
            if scope.funcs[k] {
                ops.reserve_exact(f.code.len());
                ss.reserve_exact(f.code.len());
                for (b, &(start, end)) in f.block_range.iter().enumerate() {
                    let code = &f.code[start as usize..end as usize];
                    if k == scope.root && scope.cold[b] {
                        ops.extend(code.iter().map(|_| TOp::new(h_cold)));
                        ss.extend(code.iter().map(|_| S::default()));
                        continue;
                    }
                    for (pc, op) in (start..).zip(code) {
                        let (decoded, data) = if scope.probe {
                            decode_probe_op(image, f, pc)
                        } else {
                            decode_flat_op(op)
                        };
                        ops.push(decoded);
                        ss.push(slot(op, data));
                    }
                }
            }
            funcs.push(ops);
            slots.push(ss);
        }
        (FlatTables { funcs }, slots)
    }
}

// ---------------------------------------------------------------------------
// Runners.
// ---------------------------------------------------------------------------

/// Executes one iteration of the lowered loop from `table`; its calls run on `flat`.
/// `regs` must already hold the loop-entry snapshot with induction variables privatized
/// for `iteration`; `on_control` is invoked when the iteration's prologue completes (at
/// most once per iteration from inside the code; the caller must also release control
/// when the iteration completes without entering the body).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_iteration_threaded(
    image: &ExecImage,
    loop_image: &LoopImage,
    table: &IterTable,
    flat: &FlatTables,
    iteration: u64,
    regs: &mut Vec<Value>,
    mem: &mut WorkerMemory<'_>,
    sync: &IterSync<'_>,
    on_control: &mut dyn FnMut(),
) -> Result<IterEnd, IterError> {
    let telem = sync.telem;
    let mut ctx = TCtx {
        image,
        flat,
        pcode: &loop_image.pcode,
        regs,
        mem,
        iteration,
        sync: Some(sync),
        on_control: Some(on_control),
        telem,
        cur_func: loop_image.func.index(),
        next_pc: 0,
        frames: Vec::new(),
        top_blocks: 0,
        budget: u64::MAX,
        stop_block: None,
        fault: None,
        end_iter: None,
        end_flat: None,
        probe: None,
    };
    dispatch(&table.ops, loop_image.entry_pc as usize, &mut ctx);
    if let Some(e) = ctx.fault {
        return Err(IterError::Exec(e));
    }
    ctx.end_iter.expect("iteration ended without a verdict")
}

/// Runs `func` of `tables` flat from `start_block` until it returns or, at the top level,
/// reaches `stop_block`: Phase A (with `stop_block` = the loop header), Phase C and the
/// callees of iteration code all run here. `budget` bounds top-level block transitions
/// (the caller's runaway-loop guard); callee blocks are unmetered. `regs` comes back as
/// the top-level frame's registers, also when the run ends inside a callee.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_flat_threaded(
    image: &ExecImage,
    tables: &FlatTables,
    func: FuncId,
    start_block: u32,
    stop_block: Option<u32>,
    regs: &mut Vec<Value>,
    mem: &mut WorkerMemory<'_>,
    budget: u64,
) -> Result<FlatEnd, FlatError> {
    let f = &image.funcs[func.index()];
    if regs.len() < f.num_regs {
        regs.resize(f.num_regs, Value::default());
    }
    if stop_block == Some(start_block) {
        return Ok(FlatEnd::ReachedStop);
    }
    let entry = f.block_start(start_block) as usize;
    let mut ctx = TCtx {
        image,
        flat: tables,
        pcode: &[],
        regs,
        mem,
        iteration: 0,
        sync: None,
        on_control: None,
        telem: None,
        cur_func: func.index(),
        next_pc: 0,
        frames: Vec::new(),
        top_blocks: 0,
        budget,
        stop_block,
        fault: None,
        end_iter: None,
        end_flat: None,
        probe: None,
    };
    dispatch(&tables.funcs[func.index()], entry, &mut ctx);
    let TCtx {
        frames,
        fault,
        end_flat,
        ..
    } = ctx;
    // Hand the (possibly callee-stale) top-level register file back: unwind to the bottom
    // frame if the run ended inside a callee.
    if let Some(bottom) = frames.into_iter().next() {
        *regs = bottom.regs;
    }
    if let Some(e) = fault {
        return Err(FlatError::Exec(e));
    }
    match end_flat.expect("flat run ended without a verdict") {
        FlatHalt::ReachedStop => Ok(FlatEnd::ReachedStop),
        FlatHalt::Returned(v) => Ok(FlatEnd::Returned(v)),
        FlatHalt::BudgetExceeded => Err(FlatError::BudgetExceeded),
    }
}

/// Runs `func` with `args` to its return on `tables`, which must be decoded for a
/// [`FlatScope::probe`]: every block entry, call and return is reported to `obs`, and the
/// run stops where a machine charging one unit of `fuel` per op would (see `charge`).
pub(crate) fn run_flat_probed(
    image: &ExecImage,
    tables: &FlatTables,
    func: FuncId,
    args: &[Value],
    mem: &mut WorkerMemory<'_>,
    fuel: u64,
    obs: &mut dyn ImageObserver,
) -> Result<Option<Value>, ExecError> {
    let f = &image.funcs[func.index()];
    let mut regs = vec![Value::default(); f.num_regs.max(args.len())];
    for (slot, a) in regs.iter_mut().zip(args).take(f.num_params) {
        *slot = *a;
    }
    let entry = f.entry_pc() as usize;
    let mut ctx = TCtx {
        image,
        flat: tables,
        pcode: &[],
        regs: &mut regs,
        mem,
        iteration: 0,
        sync: None,
        on_control: None,
        telem: None,
        cur_func: func.index(),
        next_pc: 0,
        frames: Vec::new(),
        top_blocks: 0,
        budget: u64::MAX,
        stop_block: None,
        fault: None,
        end_iter: None,
        end_flat: None,
        probe: Some(Probe {
            obs,
            fuel,
            resume: Vec::new(),
        }),
    };
    probe_mut(&mut ctx).obs.on_block_enter(func, f.entry_block);
    if charge(&mut ctx, entry, run_fuel(f, entry as u32)) {
        dispatch(&tables.funcs[func.index()], entry, &mut ctx);
    }
    if let Some(e) = ctx.fault {
        return Err(e);
    }
    match ctx.end_flat.expect("profiling run ended without a verdict") {
        FlatHalt::Returned(v) => Ok(v),
        FlatHalt::ReachedStop | FlatHalt::BudgetExceeded => {
            unreachable!("profiling runs have no stop block and no budget")
        }
    }
}
