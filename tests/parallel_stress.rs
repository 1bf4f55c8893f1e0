//! Concurrency stress tests for the new parallel-image runtime: padded signal lanes under
//! many threads, and pooled-runtime determinism across consecutive `execute` calls.
//!
//! The [`helix::runtime::SignalLanes`] test mirrors `shared_memory_stress.rs`'s style: it hammers
//! *one* dependence from N threads across a 10k-iteration window, with every iteration's
//! critical section writing an unprotected shared cell. If the lane protocol (windowed
//! `fetch_max` cells + the in-flight completion gate) ever let iteration `i` pass its `Wait`
//! before iteration `i-1`'s `Signal`, the cell updates would race and the final tally would
//! be wrong with overwhelming probability.

use helix::analysis::LoopNestingGraph;
use helix::core::{transform, Helix, HelixConfig, TransformedProgram};
use helix::ir::builder::{FunctionBuilder, ModuleBuilder};
use helix::ir::{BinOp, Machine, Operand, Value};
use helix::profiler::profile_program_image;
use helix::runtime::{ParallelExecutor, ParallelImage, SignalLanes, WorkerPool};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const ITERATIONS: u64 = 10_000;
const THREADS: usize = 6;

/// The process-global worker pool is shared by every test of this binary: tests that assert
/// on its size, or that grow it, take this lock so they cannot observe each other.
static GLOBAL_POOL: Mutex<()> = Mutex::new(());

/// One shared, deliberately unsynchronized cell: only the lane protocol orders access.
struct RacyCell(std::cell::UnsafeCell<u64>);
// SAFETY: the test's lane protocol serializes all access (that is the property under test;
// a protocol bug shows up as a corrupted tally, not as UB the test relies on).
unsafe impl Sync for RacyCell {}

#[test]
fn one_dependence_hammered_from_many_threads_across_a_10k_window() {
    // Window sized like the executor sizes it for THREADS workers.
    let window = (THREADS * 2).next_power_of_two().max(8);
    let lanes = Arc::new(SignalLanes::new(1, window));
    let next = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicU64::new(0));
    let cell = Arc::new(RacyCell(std::cell::UnsafeCell::new(0)));

    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let (lanes, next, done, cell) = (
                Arc::clone(&lanes),
                Arc::clone(&next),
                Arc::clone(&done),
                Arc::clone(&cell),
            );
            scope.spawn(move || loop {
                // Claim the next iteration, bounded by the in-flight window (the same gate
                // the executor's completion ring provides).
                let i = next.load(Ordering::Acquire);
                if i >= ITERATIONS {
                    return;
                }
                if done.load(Ordering::Acquire) + window as u64 <= i {
                    std::hint::spin_loop();
                    continue;
                }
                if next
                    .compare_exchange(i, i + 1, Ordering::AcqRel, Ordering::Relaxed)
                    .is_err()
                {
                    continue;
                }
                // Wait for the predecessor iteration's signal on the single dependence.
                while !lanes.poll(0, i) {
                    std::hint::spin_loop();
                }
                // The protected critical section: must be perfectly serialized in
                // iteration order by the lane protocol alone.
                unsafe {
                    let p = cell.0.get();
                    let seen = *p;
                    assert_eq!(seen, i, "iteration {i} entered before {seen} finished");
                    *p = i + 1;
                }
                lanes.signal(0, i);
                done.fetch_add(1, Ordering::AcqRel);
            });
        }
    });
    assert_eq!(next.load(Ordering::Relaxed), ITERATIONS);
    assert_eq!(unsafe { *cell.0.get() }, ITERATIONS);
    assert!(lanes.poll(0, ITERATIONS), "final signal published");
}

/// Builds an accumulator program whose loop carries a synchronized dependence.
fn accumulator(n: i64) -> (helix::ir::Module, helix::ir::FuncId, TransformedProgram) {
    let mut mb = ModuleBuilder::new("m");
    let acc = mb.add_global("acc", 1);
    let mut fb = FunctionBuilder::new("main", 0);
    let lh = fb.counted_loop(Operand::int(0), Operand::int(n), 1);
    let mixed = fb.binary_to_new(
        BinOp::Mul,
        Operand::Var(lh.induction_var),
        Operand::int(2654435761),
    );
    let x = fb.binary_to_new(BinOp::Xor, Operand::Var(mixed), Operand::int(0x9e37));
    let cur = fb.new_var();
    fb.load(cur, Operand::Global(acc), 0);
    let nextv = fb.binary_to_new(BinOp::Add, Operand::Var(cur), Operand::Var(x));
    fb.store(Operand::Global(acc), 0, Operand::Var(nextv));
    fb.br(lh.latch);
    fb.switch_to(lh.exit);
    let out = fb.new_var();
    fb.load(out, Operand::Global(acc), 0);
    fb.ret(Some(Operand::Var(out)));
    let main = mb.add_function(fb.finish());
    let module = mb.finish();
    let nesting = LoopNestingGraph::new(&module);
    let profile = profile_program_image(&module, &nesting, main, &[]).unwrap();
    let output = Helix::new(HelixConfig::i7_980x()).analyze(&module, &profile);
    let plan = output
        .plans
        .values()
        .find(|p| p.synchronized_segments() > 0)
        .expect("synchronized plan")
        .clone();
    let transformed = transform::apply(&module, &plan);
    (module, main, transformed)
}

#[test]
fn pooled_runtime_stays_deterministic_across_consecutive_executes() {
    let _pool = GLOBAL_POOL.lock().unwrap_or_else(|e| e.into_inner());
    let (module, main, transformed) = accumulator(512);
    let mut machine = Machine::new(&module);
    let expected = machine.call(main, &[]).unwrap().unwrap().as_int();
    let pimg = ParallelImage::lower(&transformed);
    // The hardware override forces the full four-worker claim protocol (the default executor
    // clamps to this machine's hardware threads), and the process-global pool is reused
    // across every call — the regression this guards is a stale counter or lane leaking
    // from one execute into the next.
    let mut executor = ParallelExecutor::new(4);
    executor.hardware = 4;
    let first = executor
        .run_parallel(&pimg, &[])
        .expect("first pooled run")
        .unwrap()
        .as_int();
    assert_eq!(first, expected);
    let helpers_after_first = WorkerPool::global().spawned_helpers();
    assert!(
        helpers_after_first >= 3,
        "the pooled run must have spawned persistent helpers"
    );
    for round in 0..5 {
        let got = executor
            .run_parallel(&pimg, &[])
            .unwrap_or_else(|e| panic!("round {round}: {e}"))
            .unwrap()
            .as_int();
        assert_eq!(got, expected, "round {round} diverged");
    }
    assert_eq!(
        WorkerPool::global().spawned_helpers(),
        helpers_after_first,
        "helpers are reused across executes, never respawned"
    );
}

/// The hottest candidate plan of `main` in a corpus program, transformed (placement must
/// be sound whether or not selection would take the loop).
fn corpus_plan(name: &str) -> (helix::ir::Module, helix::ir::FuncId, TransformedProgram) {
    let (module, main) = helix::workloads::corpus::load(name).expect("corpus program loads");
    let nesting = LoopNestingGraph::new(&module);
    let profile = profile_program_image(&module, &nesting, main, &[]).unwrap();
    let output = Helix::new(HelixConfig::i7_980x()).analyze(&module, &profile);
    let plan = output
        .plans
        .values()
        .filter(|p| p.func == main)
        .max_by_key(|p| profile.loop_profile((p.func, p.loop_id)).cycles)
        .expect("a loop of main has a plan");
    let transformed = transform::apply(&module, plan);
    (module, main, transformed)
}

#[test]
fn more_workers_than_hardware_agree_with_the_clamped_run() {
    let _pool = GLOBAL_POOL.lock().unwrap_or_else(|e| e.into_inner());
    // Eight workers — more than this host has hardware threads, so time-sliced — through
    // the one claim protocol, against the default executor (clamped to the hardware, down
    // to the in-order single-worker path on a 1-thread host) and the sequential reference.
    for (name, (module, main, transformed)) in [
        ("accumulator", accumulator(384)),
        ("pointer_chase", corpus_plan("pointer_chase")),
    ] {
        let expected = Machine::new(&module).call(main, &[]).unwrap();
        let pimg = ParallelImage::lower(&transformed);
        let mut oversubscribed = ParallelExecutor::new(8);
        oversubscribed.hardware = 8;
        let clamped = ParallelExecutor::new(8);
        assert_eq!(oversubscribed.effective_workers(), 8);
        assert!(clamped.effective_workers() <= clamped.hardware);
        for round in 0..50 {
            let wide = oversubscribed
                .run_parallel(&pimg, &[])
                .unwrap_or_else(|e| panic!("{name} round {round}, 8 workers: {e}"));
            let narrow = clamped
                .run_parallel(&pimg, &[])
                .unwrap_or_else(|e| panic!("{name} round {round}, clamped: {e}"));
            assert_eq!(wide, expected, "{name} round {round}: 8 workers diverged");
            assert_eq!(
                narrow, expected,
                "{name} round {round}: clamped run diverged"
            );
        }
    }
}

/// A loop whose basic induction variable is read after the loop. Phase C must resume with
/// the exiting iteration's registers: demoting `%v0` to a frame slot would make the header
/// and the body read an unsynchronized slot instead of the per-iteration register, which
/// at two workers both skewed `acc` and, now and then, the returned `%v0`.
#[test]
fn induction_variable_read_after_the_loop_matches_the_single_worker_run() {
    const SOURCE: &str = "module iv_live_out
global @g0 \"acc\" [1 words]
func main(0 params, 4 vars) {
bb0: (entry)
  %v0 = copy 0
  br bb1
bb1:
  %v1 = cmp.lt %v0, 1000
  condbr %v1, bb2, bb4
bb2:
  %v2 = load [@g0 + 0]
  %v3 = add %v2, %v0
  store [@g0 + 0], %v3
  br bb3
bb3:
  %v0 = add %v0, 1
  br bb1
bb4:
  ret %v0
}
";
    let module = helix::frontend::parse_and_verify(SOURCE).unwrap();
    let main = module.function_by_name("main").unwrap();
    let prepared = Helix::new(HelixConfig::default())
        .prepare(&module, main, &[], 100_000_000)
        .unwrap();
    let pimg = ParallelImage::lower(&prepared.transformed.expect("a parallel plan"));
    let run = |threads: usize| {
        let mut executor = ParallelExecutor::new(threads).with_capture_memory(true);
        executor.hardware = threads;
        let out = executor.run_parallel_out(&pimg, &[]);
        (out.result.unwrap(), out.memory.expect("captured"))
    };
    let (value, memory) = run(1);
    assert_eq!(value, Some(Value::Int(1000)));
    assert_eq!(memory.load(1).unwrap(), Value::Int(499_500));
    for round in 0..200 {
        let (got, got_memory) = run(2);
        assert_eq!(got, value, "round {round}: return value");
        assert_eq!(
            got_memory.live_words(),
            memory.live_words(),
            "round {round}: memory"
        );
    }
}
