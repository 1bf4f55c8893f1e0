//! Flat word-addressed program memory used by the interpreters.
//!
//! The layout mirrors a simple bare-metal model: word 0 is the null sentinel, globals occupy
//! the next contiguous region, and heap allocations (`Alloc` instructions) bump upward from
//! there. Addresses are plain `i64` word indices so pointer arithmetic in benchmark programs
//! is ordinary integer arithmetic.
//!
//! The word array holds only what the program has touched: a fresh memory is the null word
//! plus the globals, `alloc` and `store` grow it to the next power of two on demand (up to
//! [`Memory::MAX_WORDS`]), and a load past its end reads `Int(0)`. So every address reads
//! the same as in a zero-filled array of `MAX_WORDS` words, and a `clone()` of an initial
//! memory copies its live prefix and nothing more.

use crate::module::Module;
use crate::value::Value;
use serde::{Deserialize, Serialize};

/// Error raised on out-of-range memory accesses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryError {
    /// The faulting address.
    pub address: i64,
    /// Whether the faulting access was a write.
    pub write: bool,
}

impl std::fmt::Display for MemoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out-of-range memory {} at address {}",
            if self.write { "write" } else { "read" },
            self.address
        )
    }
}

impl std::error::Error for MemoryError {}

/// Flat, word-addressed program memory with a bump allocator.
///
/// Equality compares program state, not capacity: two memories are equal when their heap
/// bounds match and every address reads the same word (words past the shorter array read
/// `Int(0)`), whatever growth history sized their arrays.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Memory {
    words: Vec<Value>,
    heap_base: usize,
    next_free: usize,
}

impl Memory {
    /// Hard upper bound on memory size to keep runaway workloads in check.
    pub const MAX_WORDS: usize = 1 << 26;

    /// Creates memory for a module: the null word and the globals, initialized, with the
    /// heap starting right after them.
    pub fn for_module(module: &Module) -> Self {
        let heap_base = module.global_memory_words() + 1;
        let mut words = vec![Value::default(); heap_base];
        let bases = module.global_base_addresses();
        for (global, base) in module.globals.iter().zip(&bases) {
            for (offset, value) in global.init.iter().enumerate() {
                words[*base as usize + offset] = *value;
            }
        }
        Self {
            words,
            heap_base,
            next_free: heap_base,
        }
    }

    /// The raw word array: the live prefix ([`Memory::live_words`]) followed by whatever
    /// the growth policy added past it (words stored beyond the bump pointer, and zeros).
    pub fn words(&self) -> &[Value] {
        &self.words
    }

    /// The live prefix: the null word, the globals and the allocated heap
    /// (`words()[..heap_base + heap_used]`). Two memories with equal live words and equal
    /// heap bookkeeping hold the same program state unless a store went past the bump
    /// pointer.
    pub fn live_words(&self) -> &[Value] {
        &self.words[..self.next_free]
    }

    /// Creates an empty memory: the null word alone, no globals.
    pub fn new() -> Self {
        Self {
            words: vec![Value::default()],
            heap_base: 1,
            next_free: 1,
        }
    }

    /// Address of the first heap word.
    pub fn heap_base(&self) -> i64 {
        self.heap_base as i64
    }

    /// Number of words currently allocated on the heap.
    pub fn heap_used(&self) -> usize {
        self.next_free - self.heap_base
    }

    /// Bump-allocates `words` words and returns the base address.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError`] if the allocation would exceed [`Memory::MAX_WORDS`].
    pub fn alloc(&mut self, words: usize) -> Result<i64, MemoryError> {
        let base = self.next_free;
        let end = base.checked_add(words).ok_or(MemoryError {
            address: i64::MAX,
            write: true,
        })?;
        if end > Self::MAX_WORDS {
            return Err(MemoryError {
                address: end as i64,
                write: true,
            });
        }
        if end > self.words.len() {
            let new_len = end.next_power_of_two().min(Self::MAX_WORDS);
            self.words.resize(new_len, Value::default());
        }
        self.next_free = end;
        Ok(base as i64)
    }

    /// Reads the word at `address`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError`] for negative or excessively large addresses.
    pub fn load(&self, address: i64) -> Result<Value, MemoryError> {
        let idx = self.check(address, false)?;
        Ok(self.words.get(idx).copied().unwrap_or_default())
    }

    /// Writes the word at `address`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError`] for negative or excessively large addresses.
    pub fn store(&mut self, address: i64, value: Value) -> Result<(), MemoryError> {
        let idx = self.check(address, true)?;
        if idx >= self.words.len() {
            let new_len = (idx + 1).next_power_of_two().min(Self::MAX_WORDS);
            self.words.resize(new_len, Value::default());
        }
        self.words[idx] = value;
        Ok(())
    }

    fn check(&self, address: i64, write: bool) -> Result<usize, MemoryError> {
        if address < 0 || address as usize >= Self::MAX_WORDS {
            Err(MemoryError { address, write })
        } else {
            Ok(address as usize)
        }
    }
}

impl Default for Memory {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for Memory {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        self.heap_base == other.heap_base
            && self.next_free == other.next_free
            && long[..short.len()] == short[..]
            && long[short.len()..].iter().all(|w| *w == Value::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Module;

    #[test]
    fn load_store_roundtrip() {
        let mut mem = Memory::new();
        mem.store(100, Value::Int(42)).unwrap();
        assert_eq!(mem.load(100).unwrap(), Value::Int(42));
        assert_eq!(mem.load(101).unwrap(), Value::Int(0));
        mem.store(100_000, Value::Int(11)).unwrap();
        assert_eq!(mem.load(100_000).unwrap(), Value::Int(11));
        assert_eq!(mem.load(99_999).unwrap(), Value::Int(0));
        assert_eq!(mem.load(100_001).unwrap(), Value::Int(0));
        assert_eq!(
            mem.load(1 << 20).unwrap(),
            Value::Int(0),
            "past the grown array"
        );
    }

    #[test]
    fn negative_address_errors() {
        let mut mem = Memory::new();
        assert!(mem.load(-1).is_err());
        assert!(mem.store(-5, Value::Int(1)).is_err());
        let err = mem.load(-1).unwrap_err();
        assert!(err.to_string().contains("read"));
    }

    #[test]
    fn alloc_bumps_and_grows() {
        let mut mem = Memory::new();
        let a = mem.alloc(10).unwrap();
        let b = mem.alloc(5).unwrap();
        assert_eq!(b, a + 10);
        assert_eq!(mem.heap_used(), 15);
        // Growing far past the initial array works.
        let big = mem.alloc(1 << 17).unwrap();
        mem.store(big, Value::Int(9)).unwrap();
        assert_eq!(mem.load(big).unwrap(), Value::Int(9));
    }

    #[test]
    fn live_words_cover_globals_and_heap_only() {
        let mut m = Module::new("m");
        m.add_global_init("g", 2, vec![Value::Int(3)]);
        let mut mem = Memory::for_module(&m);
        assert_eq!(
            mem.live_words(),
            &[Value::Int(0), Value::Int(3), Value::Int(0)]
        );
        mem.alloc(2).unwrap();
        assert_eq!(mem.live_words().len(), 5);
    }

    #[test]
    fn equality_compares_contents_not_capacity() {
        let mut small = Memory::new();
        small.store(2, Value::Int(4)).unwrap();
        let mut grown = small.clone();
        grown.store(100_000, Value::Int(1)).unwrap();
        assert_ne!(grown, small, "a word past the shorter array");
        assert_ne!(small, grown);
        grown.store(100_000, Value::Int(0)).unwrap();
        assert!(grown.words().len() > small.words().len());
        assert_eq!(grown, small);
        assert_eq!(small, grown);
        grown.store(100_000, Value::Float(0.0)).unwrap();
        assert_ne!(grown, small, "Float(0.0) is not the zero word");
        let mut allocated = small.clone();
        allocated.alloc(1).unwrap();
        assert_ne!(allocated, small, "heap bounds differ");
    }

    #[test]
    fn alloc_beyond_max_errors() {
        let mut mem = Memory::new();
        assert!(mem.alloc(Memory::MAX_WORDS + 1).is_err());
    }

    #[test]
    fn module_globals_are_initialized() {
        let mut m = Module::new("m");
        let g = m.add_global_init("g", 4, vec![Value::Int(3), Value::Int(4)]);
        let mem = Memory::for_module(&m);
        let base = m.global_base_addresses()[g.index()];
        assert_eq!(mem.load(base).unwrap(), Value::Int(3));
        assert_eq!(mem.load(base + 1).unwrap(), Value::Int(4));
        assert_eq!(mem.load(base + 2).unwrap(), Value::Int(0));
        assert_eq!(mem.heap_base(), 5);
        assert_eq!(mem.words().len(), 5, "no padding past the globals");
    }

    #[test]
    fn null_word_reserved() {
        let m = Module::new("m");
        let mem = Memory::for_module(&m);
        assert_eq!(mem.heap_base(), 1);
        assert_eq!(mem.words().len(), 1);
        assert_eq!(Memory::new().words().len(), 1);
        assert_eq!(mem.load(0).unwrap(), Value::Int(0));
    }
}
