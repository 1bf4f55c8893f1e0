//! Executable memory for the template JIT, pure-std Linux: raw `extern "C"` declarations
//! for `mmap`/`mprotect`/`munmap` (std already links libc, so no new dependency), wrapped
//! in a strict W^X lifecycle:
//!
//! 1. [`ExecMem::new`] maps fresh anonymous pages `PROT_READ | PROT_WRITE`;
//! 2. the emitter fills them through [`ExecMem::fill`] while they are still data;
//! 3. [`ExecMem::seal`] flips the whole mapping to `PROT_READ | PROT_EXEC` — from that
//!    point the buffer is immutable code and [`ExecMem::fill`] refuses to touch it;
//! 4. `Drop` unmaps.
//!
//! The pages are never writable and executable at the same time (asserted by the
//! `/proc/self/maps` test in `jit::tests`). Everything here is gated behind
//! `target_os = "linux", target_arch = "x86_64"`; other targets get a stub whose
//! constructor returns `None`, which the tier selection turns into a clean fallback to
//! the threaded engine.

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const PROT_WRITE: i32 = 2;
    pub const PROT_EXEC: i32 = 4;
    pub const MAP_PRIVATE: i32 = 0x02;
    pub const MAP_ANONYMOUS: i32 = 0x20;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn mprotect(addr: *mut c_void, length: usize, prot: i32) -> i32;
        pub fn munmap(addr: *mut c_void, length: usize) -> i32;
    }
}

/// An owned, page-granular machine-code buffer with a one-way RW → RX transition.
#[derive(Debug)]
pub struct ExecMem {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    ptr: *mut u8,
    len: usize,
    sealed: bool,
}

// SAFETY: `ptr` is an anonymous private mapping this value owns exclusively (unmapped
// only in `Drop`). Writes to it (`fill`, `seal`) need `&mut self`; through `&self` only
// the address, the length and the `sealed` flag can be read, and once sealed the pages are
// immutable code that any number of threads may execute at once. Moving the owner to
// another thread moves nothing thread-affine: `munmap` may run on any thread.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe impl Send for ExecMem {}
// SAFETY: see `Send` above — shared references can only read, never write, the mapping.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe impl Sync for ExecMem {}

#[cfg(test)]
thread_local! {
    /// Successful [`ExecMem::new`] calls made by the current thread (test observability:
    /// the executor must map code on the submitting thread only, once per run).
    pub(crate) static MAPPINGS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
impl ExecMem {
    /// Maps `len` bytes (rounded up to whole pages) of fresh anonymous RW memory.
    /// Returns `None` when the kernel refuses (or `len` is zero) — callers fall back to
    /// the threaded tier rather than failing the run.
    pub fn new(len: usize) -> Option<ExecMem> {
        if len == 0 {
            return None;
        }
        let len = len.checked_add(4095)? & !4095;
        // SAFETY: a fresh anonymous private mapping (null hint, fd -1, offset 0) aliases
        // no existing Rust object; the result is checked for `MAP_FAILED` below.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_PRIVATE | sys::MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if ptr == sys::MAP_FAILED || ptr.is_null() {
            return None;
        }
        #[cfg(test)]
        MAPPINGS.with(|n| n.set(n.get() + 1));
        Some(ExecMem {
            ptr: ptr.cast(),
            len,
            sealed: false,
        })
    }

    /// Copies `code` into the buffer while it is still writable (and not executable).
    /// Returns `false` after [`ExecMem::seal`] or if `code` does not fit.
    pub fn fill(&mut self, code: &[u8]) -> bool {
        if self.sealed || code.len() > self.len {
            return false;
        }
        // SAFETY: `self.ptr` is our own mapping of `self.len >= code.len()` bytes, still
        // writable because it is not sealed, and it cannot overlap `code`, a Rust slice.
        unsafe { std::ptr::copy_nonoverlapping(code.as_ptr(), self.ptr, code.len()) };
        true
    }

    /// Flips the mapping from RW to RX. Returns `false` (leaving the memory unexecuted
    /// and soon unmapped) if the kernel refuses — e.g. under a W^X-enforcing policy that
    /// forbids `PROT_EXEC` on anonymous pages.
    pub fn seal(&mut self) -> bool {
        if self.sealed {
            return true;
        }
        // SAFETY: `ptr`/`len` are exactly the mapping `new` created; dropping write access
        // invalidates no reference, since `fill` (the only writer) needs `&mut self`.
        let ok =
            unsafe { sys::mprotect(self.ptr.cast(), self.len, sys::PROT_READ | sys::PROT_EXEC) }
                == 0;
        self.sealed = ok;
        ok
    }

    /// Absolute address of byte `off` of the buffer. Only meaningful to *execute* after
    /// [`ExecMem::seal`] succeeded.
    pub fn addr(&self, off: usize) -> usize {
        debug_assert!(off < self.len);
        self.ptr as usize + off
    }

    /// Base address and mapped length (for the `/proc/self/maps` W^X assertions).
    pub fn region(&self) -> (usize, usize) {
        (self.ptr as usize, self.len)
    }

    /// Whether the RW → RX transition has happened.
    pub fn sealed(&self) -> bool {
        self.sealed
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
impl Drop for ExecMem {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` are exactly the mapping `new` created, unmapped only here.
        // Every `JitArtifact` owning an `ExecMem` outlives the tables whose handlers jump
        // into it, so no native code of this mapping runs after the drop.
        unsafe {
            sys::munmap(self.ptr.cast(), self.len);
        }
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
impl ExecMem {
    /// Stub on unsupported targets: never allocates, so the JIT tier degrades to
    /// threaded dispatch.
    pub fn new(_len: usize) -> Option<ExecMem> {
        None
    }

    pub fn fill(&mut self, _code: &[u8]) -> bool {
        false
    }

    pub fn seal(&mut self) -> bool {
        false
    }

    pub fn addr(&self, _off: usize) -> usize {
        unreachable!("ExecMem cannot be constructed on this target")
    }

    pub fn region(&self) -> (usize, usize) {
        (0, self.len)
    }

    pub fn sealed(&self) -> bool {
        self.sealed
    }
}
