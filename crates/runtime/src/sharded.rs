//! Shared program memory for the parallel runtime, plus each worker's private tier.
//!
//! [`SharedMemory`] is one flat word-addressed space of lock-free cells. The address space
//! ([`Memory::MAX_WORDS`] words) maps through a fixed two-level directory: the top level has
//! one slot per leaf, a leaf has one slot per page, and a page holds [`PAGE_WORDS`] cells.
//! Leaves and pages are installed on first touch (one [`OnceLock`] per slot), so creating
//! the memory costs a 2 KiB directory plus the pages the image's live prefix occupies, and a
//! run pays only for the pages it writes. Reads of a never-installed page see zero, exactly
//! like reads past the end of sequential [`Memory`], whose word array holds only the null
//! word, the globals and what the run has grown it to.
//!
//! A cell is a tag and a 64-bit payload, each accessed with `Relaxed` atomics — plain
//! loads and stores on x86-64. No access takes a lock. HELIX already orders every
//! cross-iteration dependence: a value stored by iteration `i` and loaded by a later
//! iteration is separated by a `Signal`/`Wait` pair (release/acquire on the signal lanes),
//! Phase A's writes reach the helpers through `pool.submit`, and the helpers' writes reach
//! Phase C through `JobTicket::wait`. That is the paper's memory model. A program whose
//! synchronization is wrong can observe a torn tag/payload pair — a wrong value, never
//! undefined behaviour.
//!
//! Allocation is a lock-free atomic bump (compare-and-swap on the next-free pointer), so
//! `Alloc` instructions never serialize.

use helix_ir::{Memory, Value};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

pub use helix_ir::memory::MemoryError;

/// First address of the thread-private tier. Addresses at or above this value are served by
/// the executing worker's [`PrivateArena`] instead of the shared memory; the range is
/// disjoint from every valid shared address (`Memory::MAX_WORDS` is far below it), so a
/// single comparison routes each access. Privatized pointers never escape their iteration
/// (see `helix_core::privatize`), so two workers handing out overlapping private addresses
/// is harmless — each routes to its own arena.
pub const PRIVATE_BASE: i64 = 1 << 40;

/// The thread-local memory tier: a per-worker bump arena serving allocations the
/// privatization analysis proved iteration-private. Accesses hit a plain `Vec` — no
/// atomics — which is the entire point: private data bypasses shared memory.
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

/// log2 of [`PAGE_WORDS`].
const PAGE_BITS: u32 = 12;
/// log2 of the number of pages per leaf.
const LEAF_BITS: u32 = 7;
/// Cells per page: the unit a first touch installs.
pub const PAGE_WORDS: usize = 1 << PAGE_BITS;
/// Words one leaf of the directory covers.
pub const LEAF_WORDS: usize = PAGE_WORDS << LEAF_BITS;
/// Leaves in the top-level directory: together they cover [`Memory::MAX_WORDS`].
const LEAVES: usize = Memory::MAX_WORDS / LEAF_WORDS;
const _: () = assert!(LEAVES * LEAF_WORDS == Memory::MAX_WORDS);

/// Tag of a cell holding [`Value::Float`]; every other tag is [`Value::Int`], so a
/// zero-initialized cell reads `Int(0)`.
const FLOAT_TAG: u8 = 1;

/// One word of shared memory: the [`Value`] variant and its 64-bit payload.
#[derive(Debug, Default)]
struct Cell {
    tag: AtomicU8,
    bits: AtomicU64,
}

impl Cell {
    #[inline]
    fn load(&self) -> Value {
        let bits = self.bits.load(Ordering::Relaxed);
        if self.tag.load(Ordering::Relaxed) == FLOAT_TAG {
            Value::Float(f64::from_bits(bits))
        } else {
            Value::Int(bits as i64)
        }
    }

    #[inline]
    fn store(&self, value: Value) {
        let (tag, bits) = match value {
            Value::Int(i) => (0, i as u64),
            Value::Float(f) => (FLOAT_TAG, f.to_bits()),
        };
        self.tag.store(tag, Ordering::Relaxed);
        self.bits.store(bits, Ordering::Relaxed);
    }
}

type Page = [Cell; PAGE_WORDS];
type Leaf = [OnceLock<Box<Page>>; 1 << LEAF_BITS];

fn new_page() -> Box<Page> {
    let cells: Box<[Cell]> = std::iter::repeat_with(Cell::default)
        .take(PAGE_WORDS)
        .collect();
    cells.try_into().expect("exactly one page of cells")
}

/// Flat, word-addressed shared memory of lock-free cells with an atomic bump allocator.
/// The concurrent counterpart of [`Memory`].
pub struct SharedMemory {
    leaves: [OnceLock<Box<Leaf>>; LEAVES],
    heap_base: i64,
    next_free: AtomicI64,
}

impl std::fmt::Debug for SharedMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedMemory")
            .field("heap_base", &self.heap_base)
            .field("heap_used", &self.heap_used())
            .finish_non_exhaustive()
    }
}

impl SharedMemory {
    /// Creates shared memory initialized from a sequential [`Memory`] snapshot (typically
    /// [`helix_ir::ExecImage::initial_memory`]): the live prefix (globals and any pre-run
    /// heap) is copied, and the heap continues from the snapshot's bump pointer. Pages that
    /// hold only zeros are left uninstalled.
    pub fn from_memory(memory: &Memory) -> Self {
        let this = Self {
            leaves: std::array::from_fn(|_| OnceLock::new()),
            heap_base: memory.heap_base(),
            next_free: AtomicI64::new(memory.heap_base() + memory.heap_used() as i64),
        };
        for (index, words) in memory.live_words().chunks(PAGE_WORDS).enumerate() {
            if words.iter().any(|v| *v != Value::Int(0)) {
                let page = this.page_or_install(index);
                for (cell, value) in page.iter().zip(words) {
                    cell.store(*value);
                }
            }
        }
        this
    }

    /// Address of the first heap word.
    pub fn heap_base(&self) -> i64 {
        self.heap_base
    }

    /// Number of words currently allocated on the heap.
    pub fn heap_used(&self) -> usize {
        (self.next_free.load(Ordering::Relaxed) - self.heap_base).max(0) as usize
    }

    /// The installed page `index`, if any word of it was ever written.
    #[inline]
    fn page(&self, index: usize) -> Option<&Page> {
        let leaf = self.leaves[index >> LEAF_BITS].get()?;
        leaf[index & ((1 << LEAF_BITS) - 1)]
            .get()
            .map(|page| &**page)
    }

    /// Page `index`, installing it (and its leaf) on first touch. Racing installers agree
    /// on one winner; every thread then stores into the same page.
    #[inline]
    fn page_or_install(&self, index: usize) -> &Page {
        let leaf = self.leaves[index >> LEAF_BITS]
            .get_or_init(|| Box::new(std::array::from_fn(|_| OnceLock::new())));
        leaf[index & ((1 << LEAF_BITS) - 1)].get_or_init(new_page)
    }

    #[inline]
    fn check(address: i64, write: bool) -> Result<usize, MemoryError> {
        if address < 0 || address as usize >= Memory::MAX_WORDS {
            Err(MemoryError { address, write })
        } else {
            Ok(address as usize)
        }
    }

    /// Reads the word at `address`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError`] for out-of-range addresses.
    #[inline]
    pub fn load(&self, address: i64) -> Result<Value, MemoryError> {
        let addr = Self::check(address, false)?;
        Ok(self
            .page(addr >> PAGE_BITS)
            .map_or(Value::Int(0), |page| page[addr & (PAGE_WORDS - 1)].load()))
    }

    /// Writes the word at `address`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError`] for out-of-range addresses.
    #[inline]
    pub fn store(&self, address: i64, value: Value) -> Result<(), MemoryError> {
        let addr = Self::check(address, true)?;
        self.page_or_install(addr >> PAGE_BITS)[addr & (PAGE_WORDS - 1)].store(value);
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
    /// inspection after a parallel run. `template` must be the memory this one was created
    /// from (typically [`helix_ir::ExecImage::initial_memory`]). The capture starts from a
    /// clone of it — an initial memory holds only its live prefix, so the clone copies
    /// nothing more — and the heap layout and bump pointer carry over; it then copies
    /// the installed pages over it: an uninstalled page was all zeros in the template and
    /// was never written. Words outside the allocated prefix (raw stores past the bump
    /// pointer) are not captured.
    pub fn snapshot(&self, template: &Memory) -> Memory {
        let mut memory = template.clone();
        let extra = self.heap_used().saturating_sub(template.heap_used());
        if extra > 0 {
            memory.alloc(extra).expect("snapshot heap fits");
        }
        let live = memory.live_words().len();
        for index in 0..live.div_ceil(PAGE_WORDS) {
            let Some(page) = self.page(index) else {
                continue;
            };
            let base = index * PAGE_WORDS;
            for (offset, cell) in page.iter().take(live - base).enumerate() {
                memory
                    .store((base + offset) as i64, cell.load())
                    .expect("snapshot address in range");
            }
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
        let mem = SharedMemory::from_memory(&Memory::new());
        let (page, leaf) = (PAGE_WORDS as i64, LEAF_WORDS as i64);
        let addrs = [
            1i64,
            63,
            64,
            page - 1,
            page,
            leaf - 1,
            leaf,
            7 * leaf - 1,
            7 * leaf,
            Memory::MAX_WORDS as i64 - 1,
        ];
        for addr in addrs {
            mem.store(addr, Value::Int(addr * 3)).unwrap();
        }
        for addr in addrs {
            assert_eq!(mem.load(addr).unwrap(), Value::Int(addr * 3));
        }
        assert_eq!(mem.load(5).unwrap(), Value::Int(0));
        assert_eq!(mem.load(page + 1).unwrap(), Value::Int(0));
        for addr in [-1, Memory::MAX_WORDS as i64] {
            let err = mem.load(addr).unwrap_err();
            assert_eq!((err.address, err.write), (addr, false));
            let err = mem.store(addr, Value::Int(1)).unwrap_err();
            assert_eq!((err.address, err.write), (addr, true));
        }
    }

    #[test]
    fn never_installed_leaves_and_pages_read_zero() {
        let mem = SharedMemory::from_memory(&Memory::new());
        let far = 3 * LEAF_WORDS + 5 * PAGE_WORDS + 7;
        assert_eq!(mem.load(far as i64).unwrap(), Value::Int(0));
        assert!(mem.leaves[3].get().is_none(), "a read installed a leaf");
        mem.store(far as i64, Value::Float(0.5)).unwrap();
        // A never-installed page of the now-installed leaf.
        let cold = far + PAGE_WORDS;
        assert_eq!(mem.load(cold as i64).unwrap(), Value::Int(0));
        assert!(
            mem.page(cold >> PAGE_BITS).is_none(),
            "a read installed a page"
        );
    }

    #[test]
    fn alloc_is_atomic_and_disjoint() {
        let mem = Arc::new(SharedMemory::from_memory(&Memory::new()));
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
        let mem = Arc::new(SharedMemory::from_memory(&Memory::new()));
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
        let mem = SharedMemory::from_memory(&Memory::new());
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
        let shared = SharedMemory::from_memory(&seq);
        assert_eq!(shared.load(1).unwrap(), Value::Int(7));
        assert_eq!(shared.load(2).unwrap(), Value::Float(1.5));
        assert_eq!(shared.load(3).unwrap(), Value::Int(0));
        assert_eq!(shared.heap_base(), 5);
        // The snapshot round-trips, including heap bookkeeping.
        shared.store(2, Value::Int(9)).unwrap();
        let base = shared.alloc(3).unwrap();
        shared.store(base, Value::Int(11)).unwrap();
        let snap = shared.snapshot(&seq);
        assert_eq!(snap.load(1).unwrap(), Value::Int(7));
        assert_eq!(snap.load(2).unwrap(), Value::Int(9));
        assert_eq!(snap.load(base).unwrap(), Value::Int(11));
        assert_eq!(snap.heap_base(), seq.heap_base());
        assert_eq!(snap.heap_used(), shared.heap_used());
    }
}
