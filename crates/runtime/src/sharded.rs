//! Sharded shared program memory for the parallel runtime.
//!
//! The first-generation executor funneled every load, store and allocation of every worker
//! through a single `Mutex<Memory>`, so "parallel" iterations were really convoyed on one
//! lock. [`ShardedMemory`] stripes the flat word-addressed address space across many
//! independently locked shards: the address space is divided into fixed-size chunks
//! (2^[`CHUNK_BITS`] words) and chunk `c` lives in shard `c % num_shards`. Iterations touching
//! disjoint data hit disjoint shards and proceed without contention; iterations touching the
//! same chunk serialize on exactly one shard lock, which is what the HELIX `Wait`/`Signal`
//! protocol expects of shared locations anyway.
//!
//! Allocation is a lock-free atomic bump (compare-and-swap on the next-free pointer), so
//! `Alloc` instructions never serialize on a shard.
//!
//! Memory-ordering note: a value stored by iteration `i` and loaded by iteration `i+1` is
//! always separated by a `Signal`/`Wait` pair (release/acquire on the dependence counters),
//! and each individual word access is additionally serialized by its shard lock, so cross-core
//! visibility needs no further fences.

use helix_ir::{Memory, Value};
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
#[cfg(debug_assertions)]
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

pub use helix_ir::memory::MemoryError;

/// A test-and-test-and-set spinlock with yield backoff. Shard critical sections are a few
/// nanoseconds (one word read/written), so a futex-based mutex's lock/unlock fast path
/// costs more than the work it protects; a spinlock halves the per-access overhead. On an
/// oversubscribed machine a preempted holder is handled by the yield in the contended path.
struct SpinLock<T> {
    locked: AtomicBool,
    value: UnsafeCell<T>,
}

// SAFETY: the lock provides exclusive access to `value` (acquire/release pairs on `locked`).
unsafe impl<T: Send> Sync for SpinLock<T> {}
unsafe impl<T: Send> Send for SpinLock<T> {}

impl<T: Default> Default for SpinLock<T> {
    fn default() -> Self {
        Self {
            locked: AtomicBool::new(false),
            value: UnsafeCell::new(T::default()),
        }
    }
}

impl<T> SpinLock<T> {
    /// Raw access to the protected value without taking the lock.
    ///
    /// # Safety
    ///
    /// The caller must guarantee no other thread accesses the value concurrently. The
    /// executor's lock elision rests on exactly two transitions per run: the submitting
    /// thread owns all of memory from the start of Phase A until it gives that up *before
    /// the first `pool.submit`* (the pool's job mutex orders every earlier write before any
    /// helper's first access), and it owns memory again only *after `JobTicket::wait`*
    /// returned (every helper has left the job closure, and that join orders their writes
    /// before Phase C's reads).
    #[inline]
    unsafe fn get_exclusive(&self) -> *mut T {
        self.value.get()
    }

    #[inline]
    fn lock(&self) -> SpinGuard<'_, T> {
        loop {
            if self
                .locked
                .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return SpinGuard { lock: self };
            }
            let mut spins = 0u32;
            while self.locked.load(Ordering::Relaxed) {
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

struct SpinGuard<'a, T> {
    lock: &'a SpinLock<T>,
}

impl<T> Deref for SpinGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the guard holds the lock.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T> DerefMut for SpinGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard holds the lock exclusively.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T> Drop for SpinGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.lock.locked.store(false, Ordering::Release);
    }
}

/// log2 of the chunk size: consecutive runs of 2^CHUNK_BITS words share a shard, preserving
/// spatial locality for array walks while still spreading distinct regions across shards.
pub const CHUNK_BITS: u32 = 6;

/// First address of the thread-private tier. Addresses at or above this value are served by
/// the executing worker's [`PrivateArena`] instead of the striped shared memory; the range is
/// disjoint from every valid shared address (`Memory::MAX_WORDS` is far below it), so a
/// single comparison routes each access. Privatized pointers never escape their iteration
/// (see `helix_core::privatize`), so two workers handing out overlapping private addresses
/// is harmless — each routes to its own arena.
pub const PRIVATE_BASE: i64 = 1 << 40;

/// The thread-local memory tier: a per-worker bump arena serving allocations the
/// privatization analysis proved iteration-private. Accesses hit a plain `Vec` — no shard
/// lock, no atomics — which is the entire point: private data bypasses striping.
///
/// The arena is reset at iteration start (`reset`) and its storage is reused across
/// iterations, so a privatized allocation costs a bump, a bounds grow and a zero-fill of the
/// allocated words (fresh allocations must read zero, like shared memory).
#[derive(Debug, Default)]
pub struct PrivateArena {
    words: Vec<Value>,
    bump: usize,
    /// Words allocated since the arena was created or last drained (across iterations);
    /// the executor re-reserves this many words in shared memory after the loop so shared
    /// addresses stay bitwise-identical to a sequential run.
    skipped_words: u64,
}

impl PrivateArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new iteration: all previous private allocations are dead.
    pub fn reset(&mut self) {
        self.bump = 0;
    }

    /// Bump-allocates `words` private words, zero-filled, and returns their address in the
    /// private tier.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError`] if the arena would exceed [`Memory::MAX_WORDS`] (shared
    /// memory would have refused the allocation too).
    pub fn alloc(&mut self, words: usize) -> Result<i64, MemoryError> {
        let base = self.bump;
        let end = base.checked_add(words).ok_or(MemoryError {
            address: i64::MAX,
            write: true,
        })?;
        if end > Memory::MAX_WORDS {
            return Err(MemoryError {
                address: PRIVATE_BASE + end as i64,
                write: true,
            });
        }
        if self.words.len() < end {
            self.words.resize(end, Value::default());
        }
        // Fresh allocations read zero, exactly like never-touched shared memory.
        self.words[base..end].fill(Value::default());
        self.bump = end;
        self.skipped_words += words as u64;
        Ok(PRIVATE_BASE + base as i64)
    }

    /// Reads the private word at `address` (which must be `>= PRIVATE_BASE`).
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError`] for addresses outside the live bump region.
    #[inline]
    pub fn load(&self, address: i64) -> Result<Value, MemoryError> {
        let slot = (address - PRIVATE_BASE) as usize;
        if slot >= self.bump {
            return Err(MemoryError {
                address,
                write: false,
            });
        }
        Ok(self.words[slot])
    }

    /// Writes the private word at `address` (which must be `>= PRIVATE_BASE`).
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError`] for addresses outside the live bump region.
    #[inline]
    pub fn store(&mut self, address: i64, value: Value) -> Result<(), MemoryError> {
        let slot = (address - PRIVATE_BASE) as usize;
        if slot >= self.bump {
            return Err(MemoryError {
                address,
                write: true,
            });
        }
        self.words[slot] = value;
        Ok(())
    }

    /// Returns and clears the number of words allocated privately since the last drain.
    pub fn drain_skipped_words(&mut self) -> u64 {
        std::mem::take(&mut self.skipped_words)
    }
}

/// Default number of shards (must be a power of two).
pub const DEFAULT_SHARDS: usize = 64;

/// One lock-striped shard, cache-line aligned so neighbouring shard locks do not false-share.
#[repr(align(64))]
#[derive(Default)]
struct Shard(SpinLock<Vec<Value>>);

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Shard(..)")
    }
}

/// Flat, word-addressed shared memory with lock striping by address chunk and an atomic bump
/// allocator. The concurrent counterpart of [`Memory`].
#[derive(Debug)]
pub struct ShardedMemory {
    shards: Vec<Shard>,
    /// `num_shards - 1`; shard index = chunk & mask.
    shard_mask: u64,
    /// log2(num_shards), for folding a chunk index into its in-shard slot.
    shard_bits: u32,
    heap_base: i64,
    next_free: AtomicI64,
    /// Live locking views (debug builds only): the guard behind the exclusive accessors'
    /// safety contract.
    #[cfg(debug_assertions)]
    shared_views: AtomicUsize,
}

impl ShardedMemory {
    /// Creates sharded memory initialized from a sequential [`Memory`] snapshot (typically
    /// [`helix_ir::ExecImage::initial_memory`]): the globals region is copied, and the heap
    /// continues from the snapshot's bump pointer.
    pub fn from_memory(memory: &Memory) -> Self {
        Self::with_shards(memory, DEFAULT_SHARDS)
    }

    /// Same as [`ShardedMemory::from_memory`] with an explicit shard count (rounded up to a
    /// power of two, minimum 1).
    pub fn with_shards(memory: &Memory, shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let this = Self {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            shard_mask: shards as u64 - 1,
            shard_bits: shards.trailing_zeros(),
            heap_base: memory.heap_base(),
            next_free: AtomicI64::new(memory.heap_base() + memory.heap_used() as i64),
            #[cfg(debug_assertions)]
            shared_views: AtomicUsize::new(0),
        };
        // Seed the globals region (and any pre-run heap seeding) from the snapshot, one
        // shard lock per address chunk instead of one per word.
        let used = (memory.heap_base() + memory.heap_used() as i64) as usize;
        let words = memory.words();
        let chunk_words = 1usize << CHUNK_BITS;
        let mut addr = 1usize;
        while addr < used {
            let chunk_end = ((addr >> CHUNK_BITS) + 1) << CHUNK_BITS;
            let end = chunk_end.min(used).min(words.len());
            if addr >= end {
                break;
            }
            if words[addr..end].iter().any(|v| *v != Value::Int(0)) {
                let (shard, slot) = this.locate(addr as i64, true).expect("seed in range");
                let mut guard = this.shards[shard].0.lock();
                let needed = slot + (end - addr);
                if guard.len() < needed {
                    let new_len = needed
                        .next_power_of_two()
                        .min(Memory::MAX_WORDS / this.shards.len().max(1) + chunk_words);
                    guard.resize(new_len.max(needed), Value::default());
                }
                guard[slot..slot + (end - addr)].copy_from_slice(&words[addr..end]);
            }
            addr = chunk_end;
        }
        this
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Address of the first heap word.
    pub fn heap_base(&self) -> i64 {
        self.heap_base
    }

    /// Number of words currently allocated on the heap.
    pub fn heap_used(&self) -> usize {
        (self.next_free.load(Ordering::Relaxed) - self.heap_base).max(0) as usize
    }

    /// Splits an address into its shard index and the dense slot within that shard.
    #[inline]
    fn locate(&self, address: i64, write: bool) -> Result<(usize, usize), MemoryError> {
        if address < 0 || address as usize >= Memory::MAX_WORDS {
            return Err(MemoryError { address, write });
        }
        let addr = address as u64;
        let chunk = addr >> CHUNK_BITS;
        let shard = (chunk & self.shard_mask) as usize;
        let local_chunk = chunk >> self.shard_bits;
        let slot = ((local_chunk << CHUNK_BITS) | (addr & ((1 << CHUNK_BITS) - 1))) as usize;
        Ok((shard, slot))
    }

    /// Reads the word at `address`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError`] for out-of-range addresses.
    pub fn load(&self, address: i64) -> Result<Value, MemoryError> {
        let (shard, slot) = self.locate(address, false)?;
        let words = self.shards[shard].0.lock();
        Ok(words.get(slot).copied().unwrap_or_default())
    }

    /// Writes the word at `address`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError`] for out-of-range addresses.
    pub fn store(&self, address: i64, value: Value) -> Result<(), MemoryError> {
        let (shard, slot) = self.locate(address, true)?;
        let mut words = self.shards[shard].0.lock();
        Self::store_slot(&mut words, self.shards.len(), slot, value);
        Ok(())
    }

    #[inline]
    fn store_slot(words: &mut Vec<Value>, num_shards: usize, slot: usize, value: Value) {
        if slot >= words.len() {
            let max_per_shard = Memory::MAX_WORDS / num_shards.max(1) + (1 << CHUNK_BITS);
            let new_len = (slot + 1)
                .next_power_of_two()
                .min(max_per_shard.max(slot + 1));
            words.resize(new_len, Value::default());
        }
        words[slot] = value;
    }

    /// Declares that some thread is about to access this memory through the locking
    /// accessors while others may too. Bookkeeping for the debug-build guard of
    /// [`ShardedMemory::load_exclusive`]/[`ShardedMemory::store_exclusive`]; compiles to
    /// nothing in release builds.
    #[inline]
    pub(crate) fn open_shared_view(&self) {
        #[cfg(debug_assertions)]
        self.shared_views.fetch_add(1, Ordering::SeqCst);
    }

    /// Ends a view opened with [`ShardedMemory::open_shared_view`].
    #[inline]
    pub(crate) fn close_shared_view(&self) {
        #[cfg(debug_assertions)]
        self.shared_views.fetch_sub(1, Ordering::SeqCst);
    }

    #[inline]
    fn assert_exclusive(&self) {
        #[cfg(debug_assertions)]
        assert_eq!(
            self.shared_views.load(Ordering::SeqCst),
            0,
            "lock-elided access while a shared view is live"
        );
    }

    /// Lock-free read of the word at `address`.
    ///
    /// # Safety
    ///
    /// The caller must be the only thread accessing this memory: no shared view (a
    /// worker's locking handle on it) may be live. In the executor that is Phase A —
    /// before the first `pool.submit` — and Phase C — after `JobTicket::wait`; nothing in
    /// between. Debug builds assert it.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError`] for out-of-range addresses.
    pub unsafe fn load_exclusive(&self, address: i64) -> Result<Value, MemoryError> {
        self.assert_exclusive();
        let (shard, slot) = self.locate(address, false)?;
        // SAFETY: the caller is the only thread accessing this memory (contract above).
        let words = unsafe { &*self.shards[shard].0.get_exclusive() };
        Ok(words.get(slot).copied().unwrap_or_default())
    }

    /// Lock-free write of the word at `address`.
    ///
    /// # Safety
    ///
    /// Same exclusivity contract as [`ShardedMemory::load_exclusive`].
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError`] for out-of-range addresses.
    pub unsafe fn store_exclusive(&self, address: i64, value: Value) -> Result<(), MemoryError> {
        self.assert_exclusive();
        let (shard, slot) = self.locate(address, true)?;
        // SAFETY: the caller is the only thread accessing this memory (contract above).
        let words = unsafe { &mut *self.shards[shard].0.get_exclusive() };
        Self::store_slot(words, self.shards.len(), slot, value);
        Ok(())
    }

    /// Atomically bump-allocates `words` words and returns the base address.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError`] if the allocation would exceed [`Memory::MAX_WORDS`].
    pub fn alloc(&self, words: usize) -> Result<i64, MemoryError> {
        let words = words as i64;
        let mut base = self.next_free.load(Ordering::Relaxed);
        loop {
            let end = base.checked_add(words).ok_or(MemoryError {
                address: i64::MAX,
                write: true,
            })?;
            if end as usize > Memory::MAX_WORDS {
                return Err(MemoryError {
                    address: end,
                    write: true,
                });
            }
            match self.next_free.compare_exchange_weak(
                base,
                end,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(base),
                Err(actual) => base = actual,
            }
        }
    }

    /// Reserves `words` heap words without exposing their contents: the executor re-reserves
    /// the words served from [`PrivateArena`]s after a parallel loop completes so every
    /// shared address allocated later is bitwise-identical to a sequential run's.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError`] if the reservation would exceed [`Memory::MAX_WORDS`].
    pub fn reserve(&self, words: usize) -> Result<(), MemoryError> {
        self.alloc(words).map(|_| ())
    }

    /// Copies the live prefix (globals + allocated heap) back into a flat [`Memory`] for
    /// inspection after a parallel run, starting from the pre-run `template` (typically
    /// [`helix_ir::ExecImage::initial_memory`]) so the heap layout and bump pointer carry
    /// over. Words outside the allocated prefix (raw stores past the bump pointer) are not
    /// captured.
    pub fn snapshot(&self, template: &Memory) -> Memory {
        let mut memory = template.clone();
        let extra = self.heap_used().saturating_sub(template.heap_used());
        if extra > 0 {
            memory.alloc(extra).expect("snapshot heap fits");
        }
        let used = self.heap_base + self.heap_used() as i64;
        for addr in 1..used {
            let value = self.load(addr).unwrap_or_default();
            memory
                .store(addr, value)
                .expect("snapshot address in range");
        }
        memory
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn load_store_roundtrip_across_chunks() {
        let mem = ShardedMemory::from_memory(&Memory::new());
        for addr in [1i64, 63, 64, 65, 1000, 4096, 100_000] {
            mem.store(addr, Value::Int(addr * 3)).unwrap();
        }
        for addr in [1i64, 63, 64, 65, 1000, 4096, 100_000] {
            assert_eq!(mem.load(addr).unwrap(), Value::Int(addr * 3));
        }
        assert_eq!(mem.load(5).unwrap(), Value::Int(0));
        assert!(mem.load(-1).is_err());
        assert!(mem.store(Memory::MAX_WORDS as i64, Value::Int(1)).is_err());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock-elided access while a shared view is live")]
    fn exclusive_access_under_a_live_shared_view_is_caught() {
        // The violation the executor's two transitions rule out: touching memory
        // lock-free while a helper's locking view is still open.
        let mem = ShardedMemory::from_memory(&Memory::new());
        mem.open_shared_view();
        // SAFETY: single-threaded test; the guard fires before any access happens.
        let _ = unsafe { mem.load_exclusive(1) };
    }

    #[test]
    fn alloc_is_atomic_and_disjoint() {
        let mem = Arc::new(ShardedMemory::from_memory(&Memory::new()));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let mem = mem.clone();
            handles.push(std::thread::spawn(move || {
                let mut bases = Vec::new();
                for _ in 0..1000 {
                    bases.push(mem.alloc(3).unwrap());
                }
                bases
            }));
        }
        let mut all: Vec<i64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000, "allocations must not overlap");
        assert_eq!(mem.heap_used(), 12_000);
    }

    #[test]
    fn concurrent_disjoint_stores_are_preserved() {
        let mem = Arc::new(ShardedMemory::from_memory(&Memory::new()));
        std::thread::scope(|scope| {
            for t in 0..8i64 {
                let mem = &mem;
                scope.spawn(move || {
                    for i in 0..500 {
                        let addr = 1 + t * 500 + i;
                        mem.store(addr, Value::Int(addr)).unwrap();
                    }
                });
            }
        });
        for addr in 1..(1 + 8 * 500) {
            assert_eq!(mem.load(addr).unwrap(), Value::Int(addr));
        }
    }

    #[test]
    fn private_arena_allocates_zeroed_and_resets() {
        let mut arena = PrivateArena::new();
        let a = arena.alloc(3).unwrap();
        assert_eq!(a, PRIVATE_BASE);
        assert_eq!(arena.load(a).unwrap(), Value::Int(0));
        arena.store(a + 2, Value::Int(9)).unwrap();
        assert_eq!(arena.load(a + 2).unwrap(), Value::Int(9));
        assert!(arena.load(a + 3).is_err(), "past the bump region");
        let b = arena.alloc(2).unwrap();
        assert_eq!(b, PRIVATE_BASE + 3);
        // Reset starts the next iteration at the base and re-zeroes on allocation.
        arena.reset();
        let c = arena.alloc(3).unwrap();
        assert_eq!(c, PRIVATE_BASE);
        assert_eq!(
            arena.load(c + 2).unwrap(),
            Value::Int(0),
            "stale word re-zeroed"
        );
        assert_eq!(arena.drain_skipped_words(), 8);
        assert_eq!(arena.drain_skipped_words(), 0);
    }

    #[test]
    fn reserve_advances_the_shared_bump() {
        let mem = ShardedMemory::from_memory(&Memory::new());
        let before = mem.heap_used();
        mem.reserve(7).unwrap();
        assert_eq!(mem.heap_used(), before + 7);
        let next = mem.alloc(1).unwrap();
        assert_eq!(next, mem.heap_base() + before as i64 + 7);
    }

    #[test]
    fn globals_are_seeded_from_snapshot() {
        let mut module = helix_ir::Module::new("m");
        module.add_global_init("g", 4, vec![Value::Int(7), Value::Float(1.5)]);
        let seq = Memory::for_module(&module);
        let sharded = ShardedMemory::from_memory(&seq);
        assert_eq!(sharded.load(1).unwrap(), Value::Int(7));
        assert_eq!(sharded.load(2).unwrap(), Value::Float(1.5));
        assert_eq!(sharded.load(3).unwrap(), Value::Int(0));
        assert_eq!(sharded.heap_base(), 5);
        // The snapshot round-trips, including heap bookkeeping.
        sharded.store(2, Value::Int(9)).unwrap();
        let base = sharded.alloc(3).unwrap();
        sharded.store(base, Value::Int(11)).unwrap();
        let snap = sharded.snapshot(&seq);
        assert_eq!(snap.load(1).unwrap(), Value::Int(7));
        assert_eq!(snap.load(2).unwrap(), Value::Int(9));
        assert_eq!(snap.load(base).unwrap(), Value::Int(11));
        assert_eq!(snap.heap_base(), seq.heap_base());
        assert_eq!(snap.heap_used(), sharded.heap_used());
    }
}
