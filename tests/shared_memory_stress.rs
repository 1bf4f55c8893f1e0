//! Concurrency stress tests for [`helix::runtime::SharedMemory`].
//!
//! The parallel executor funnels every load, store and allocation of every worker through
//! the shared memory, so its guarantees are load-bearing for HELIX soundness: the CAS bump
//! allocator must never hand out overlapping blocks, racing first touches of a page must
//! never lose a store, cells must round-trip every bit pattern, and `snapshot` must
//! reproduce exactly the live words a sequential [`Memory`] would hold after the same
//! (order-independent) writes. These tests hammer those properties with many threads on
//! deliberately contended address patterns.

use helix::ir::{Memory, Module, Value};
use helix::runtime::sharded::{LEAF_WORDS, PAGE_WORDS};
use helix::runtime::SharedMemory;
use std::sync::{Arc, Barrier};

const THREADS: i64 = 8;
const ALLOCS_PER_THREAD: i64 = 200;
const BLOCK_WORDS: i64 = 5;

/// A deterministic per-thread value pattern: recoverable from the address alone.
fn pattern(thread: i64, k: i64) -> Value {
    Value::Int(thread * 1_000_000 + k)
}

#[test]
fn concurrent_allocs_and_stores_match_a_sequential_replay() {
    // Globals region seeded from a real module snapshot, as the executor does.
    let mut module = Module::new("stress");
    module.add_global_init("table", 64, vec![Value::Int(7), Value::Float(2.5)]);
    let template = Memory::for_module(&module);
    let shared = Arc::new(SharedMemory::from_memory(&template));

    // Each thread bump-allocates private blocks and fills them with its pattern, while also
    // writing an interleaved slice of the globals region (addresses ≡ thread mod THREADS) so
    // neighbouring threads keep writing disjoint words of the same page.
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let shared = Arc::clone(&shared);
        handles.push(std::thread::spawn(move || {
            let mut blocks = Vec::new();
            for k in 0..ALLOCS_PER_THREAD {
                let base = shared.alloc(BLOCK_WORDS as usize).expect("alloc");
                for w in 0..BLOCK_WORDS {
                    shared
                        .store(base + w, pattern(t, k * BLOCK_WORDS + w))
                        .expect("store in range");
                }
                // Immediate read-back: the thread must observe its own writes.
                for w in 0..BLOCK_WORDS {
                    assert_eq!(
                        shared.load(base + w).unwrap(),
                        pattern(t, k * BLOCK_WORDS + w)
                    );
                }
                blocks.push(base);
            }
            for g in (3 + t..65).step_by(THREADS as usize) {
                shared.store(g, pattern(t, g)).expect("global in range");
            }
            blocks
        }));
    }
    let per_thread_blocks: Vec<Vec<i64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // The bump allocator must hand out disjoint, exactly-sized blocks.
    let mut all_blocks: Vec<i64> = per_thread_blocks.iter().flatten().copied().collect();
    all_blocks.sort_unstable();
    let total_blocks = (THREADS * ALLOCS_PER_THREAD) as usize;
    assert_eq!(all_blocks.len(), total_blocks);
    for pair in all_blocks.windows(2) {
        assert!(
            pair[1] - pair[0] >= BLOCK_WORDS,
            "blocks at {} and {} overlap",
            pair[0],
            pair[1]
        );
    }
    assert_eq!(
        shared.heap_used(),
        (THREADS * ALLOCS_PER_THREAD * BLOCK_WORDS) as usize,
        "heap bookkeeping must equal the sum of allocations"
    );

    // Sequential replay: build the expected flat memory from the recorded blocks. Allocation
    // *order* is nondeterministic, but content is addressed by base, so a single bulk alloc
    // plus the recorded stores reproduces the exact final state.
    let mut expected = template.clone();
    expected
        .alloc((THREADS * ALLOCS_PER_THREAD * BLOCK_WORDS) as usize)
        .expect("bulk alloc fits");
    for (t, blocks) in per_thread_blocks.iter().enumerate() {
        for (k, base) in blocks.iter().enumerate() {
            for w in 0..BLOCK_WORDS {
                expected
                    .store(base + w, pattern(t as i64, k as i64 * BLOCK_WORDS + w))
                    .unwrap();
            }
        }
        for g in (3 + t as i64..65).step_by(THREADS as usize) {
            expected.store(g, pattern(t as i64, g)).unwrap();
        }
    }
    let snapshot = shared.snapshot(&template);
    assert_eq!(snapshot.heap_base(), expected.heap_base());
    assert_eq!(snapshot.heap_used(), expected.heap_used());
    assert_eq!(
        snapshot.live_words(),
        expected.live_words(),
        "snapshot must equal the sequential replay"
    );
    // Untouched globals survive the stampede.
    assert_eq!(snapshot.load(1).unwrap(), Value::Int(7));
    assert_eq!(snapshot.load(2).unwrap(), Value::Float(2.5));
}

#[test]
fn contended_single_word_updates_never_lose_a_lock_protected_increment() {
    // All threads update the same word under an external lock, as the executor's
    // Wait/Signal protocol orders a carried read-modify-write (SharedMemory's loads and
    // stores are individually atomic, but a read-modify-write needs external ordering).
    // This pins the property that no *store* is ever lost: each thread owns a distinct bit
    // and ORs it in repeatedly; the final word must contain every bit.
    let template = Memory::new();
    let shared = Arc::new(SharedMemory::from_memory(&template));
    let target = 1i64; // everyone hits the same word
    shared.store(target, Value::Int(0)).unwrap();
    let lock = Arc::new(std::sync::Mutex::new(()));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let shared = &shared;
            let lock = Arc::clone(&lock);
            scope.spawn(move || {
                for _ in 0..2000 {
                    let _guard = lock.lock().unwrap();
                    let cur = shared.load(target).unwrap().as_int();
                    shared.store(target, Value::Int(cur | (1 << t))).unwrap();
                }
            });
        }
    });
    let got = shared.load(target).unwrap().as_int();
    assert_eq!(got, (1 << THREADS) - 1, "a bit went missing: {got:b}");
}

#[test]
fn mixed_alloc_and_interleaved_store_traffic_is_linearizable_per_word() {
    // Interleave allocation stampedes with interleaved writes where each address is written
    // by exactly one thread but neighbouring addresses belong to different threads (maximum
    // false-sharing pressure on the cells). Every word must end with its writer's final
    // value.
    let template = Memory::new();
    let shared = Arc::new(SharedMemory::from_memory(&template));
    let region_base = 1i64;
    let region_words = 4096i64;
    // Reserve the region via the allocator itself so stores are within the allocated
    // prefix and survive snapshotting.
    let base = shared.alloc(region_words as usize).unwrap();
    assert_eq!(base, region_base);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let shared = &shared;
            scope.spawn(move || {
                for round in 0..4 {
                    for addr in
                        (region_base + t..region_base + region_words).step_by(THREADS as usize)
                    {
                        shared.store(addr, Value::Int(addr * 10 + round)).unwrap();
                    }
                    // Interleave some allocator pressure.
                    let scratch = shared.alloc(3).unwrap();
                    shared.store(scratch, Value::Int(t)).unwrap();
                }
            });
        }
    });
    for addr in region_base..region_base + region_words {
        assert_eq!(
            shared.load(addr).unwrap(),
            Value::Int(addr * 10 + 3),
            "word {addr} lost its final round"
        );
    }
    let snap = shared.snapshot(&template);
    for addr in region_base..region_base + region_words {
        assert_eq!(snap.load(addr).unwrap(), Value::Int(addr * 10 + 3));
    }
}

#[test]
fn racing_first_touches_of_one_page_lose_no_store() {
    // Eight threads released at once all store into the same never-installed page of a
    // never-installed leaf: they race to install both, and every store must land in the
    // one page that wins.
    for round in 0..20 {
        let shared = SharedMemory::from_memory(&Memory::new());
        let page_base = (5 * LEAF_WORDS + 3 * PAGE_WORDS) as i64;
        let start = Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (shared, start) = (&shared, &start);
                scope.spawn(move || {
                    start.wait();
                    for k in (t..PAGE_WORDS as i64).step_by(THREADS as usize) {
                        shared.store(page_base + k, pattern(t, k)).unwrap();
                    }
                });
            }
        });
        for k in 0..PAGE_WORDS as i64 {
            assert_eq!(
                shared.load(page_base + k).unwrap(),
                pattern(k % THREADS, k),
                "round {round}: store to word {k} of the page was lost"
            );
        }
    }
}

#[test]
fn cells_round_trip_values_bit_exactly() {
    let shared = SharedMemory::from_memory(&Memory::new());
    let nan = f64::from_bits(0x7ff8_dead_beef_0001);
    let values = [
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Int(-1),
        Value::Float(-0.0),
        Value::Float(nan),
        Value::Float(f64::NEG_INFINITY),
    ];
    for (k, v) in values.iter().enumerate() {
        shared.store(10 + k as i64, *v).unwrap();
    }
    for (k, v) in values.iter().enumerate() {
        let got = shared.load(10 + k as i64).unwrap();
        assert_eq!(got.is_float(), v.is_float(), "variant of {v:?}");
        assert_eq!(got.to_bits(), v.to_bits(), "payload of {v:?}");
    }
    // The same bits under the other tag stay distinct values.
    shared.store(20, Value::Int(0)).unwrap();
    shared.store(21, Value::Float(0.0)).unwrap();
    assert_eq!(shared.load(20).unwrap(), Value::Int(0));
    assert!(shared.load(21).unwrap().is_float());
}
