//! Bounded LRU cache of prepared program images, keyed by content hash.
//!
//! Keying is two-level:
//!
//! * the **canonical key** is [`helix_core::content_hash`] — FNV-1a over the module's
//!   canonical printed form plus the entry name. Two textually different `.hir` files
//!   that print identically share one cache entry (and one prepared image);
//! * a **raw index** maps the FNV-1a hash of the request's literal source text (plus
//!   entry name) to the canonical key, so resubmitting the *same bytes* skips even the
//!   parse. A miss on the raw index falls through to parse + canonical lookup, which
//!   still skips analyze/transform/lower on a canonical hit.
//!
//! Eviction is least-recently-used over canonical keys; evicting an entry purges every
//! raw-index alias that points at it, so the raw index can never resurrect an evicted
//! image. All counters are monotonic and exposed via [`ImageCache::stats`].

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use helix_ir::{ExecImage, FuncId};
use helix_runtime::{lock, ParallelImage};

/// FNV-1a 64-bit over `bytes`, continuing from `state`. Matches the constants used by
/// [`helix_core::content_hash`] — stable across processes, unlike `DefaultHasher`.
fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Hash of the literal request text + entry name: the raw-index key.
pub fn raw_hash(source: &str, entry: &str) -> u64 {
    let state = fnv1a(FNV_OFFSET, source.as_bytes());
    fnv1a(fnv1a(state, &[0u8]), entry.as_bytes())
}

/// A fully prepared program: everything the daemon needs to execute a job without
/// touching the frontend or the pipeline again.
pub struct ServedImage {
    /// Canonical content-hash key this entry is cached under.
    pub key: u64,
    /// Entry function id in the original module.
    pub entry: FuncId,
    /// Entry function name.
    pub entry_name: String,
    /// The one image a job runs.
    pub plan: ServedPlan,
    /// Wall time spent preparing this entry (profile + analyze + transform + lower).
    pub prep: Duration,
}

/// What a cache entry executes: one lowered image, never both.
pub enum ServedPlan {
    /// Lowered parallel image of the transformed clone: a loop qualified.
    Parallel(Box<ParallelImage>),
    /// Sequential engine image of the *original* module: no loop qualified.
    Sequential(ExecImage),
}

/// Monotonic counter snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache (raw or canonical level).
    pub hits: u64,
    /// Lookups that required a full prepare.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

struct Inner {
    /// Canonical key → prepared image.
    entries: HashMap<u64, Arc<ServedImage>>,
    /// Raw text hash → canonical key.
    raw_index: HashMap<u64, u64>,
    /// LRU order of canonical keys; front is the next eviction victim.
    order: VecDeque<u64>,
}

/// The bounded LRU image cache. All methods are safe to call concurrently.
pub struct ImageCache {
    cap: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ImageCache {
    /// A cache holding at most `cap` prepared images (`cap` is clamped to ≥ 1).
    pub fn new(cap: usize) -> ImageCache {
        ImageCache {
            cap: cap.max(1),
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                raw_index: HashMap::new(),
                order: VecDeque::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Fast path: look up by the raw text hash, skipping even the parse. Counts a hit
    /// when found; counts *nothing* when absent (the canonical lookup decides miss).
    pub fn lookup_raw(&self, raw: u64) -> Option<Arc<ServedImage>> {
        let mut inner = lock(&self.inner);
        let key = *inner.raw_index.get(&raw)?;
        let image = Arc::clone(inner.entries.get(&key)?);
        touch(&mut inner.order, key);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(image)
    }

    /// Canonical-level lookup after a parse. On a hit the raw hash is recorded as an
    /// alias so the next identical submission takes the raw fast path; on absence the
    /// miss counter ticks and the caller must prepare + [`insert`](Self::insert).
    pub fn lookup_canonical(&self, key: u64, raw: u64) -> Option<Arc<ServedImage>> {
        let mut inner = lock(&self.inner);
        match inner.entries.get(&key) {
            Some(image) => {
                let image = Arc::clone(image);
                inner.raw_index.insert(raw, key);
                touch(&mut inner.order, key);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(image)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a freshly prepared image, evicting the least-recently-used entry (and
    /// purging its raw-index aliases) if the capacity bound would be exceeded. If a
    /// concurrent job prepared the same canonical key first, the existing entry wins
    /// (so all holders share one image) and only the raw alias is added.
    pub fn insert(&self, raw: u64, image: Arc<ServedImage>) -> Arc<ServedImage> {
        let key = image.key;
        let mut inner = lock(&self.inner);
        let image = match inner.entries.get(&key) {
            Some(existing) => Arc::clone(existing),
            None => {
                inner.entries.insert(key, Arc::clone(&image));
                inner.order.push_back(key);
                while inner.entries.len() > self.cap {
                    // The victim can't be `key`: cap ≥ 1 and `key` was just pushed to
                    // the back, so the front is always an older entry.
                    let Some(victim) = inner.order.pop_front() else {
                        break;
                    };
                    inner.entries.remove(&victim);
                    inner.raw_index.retain(|_, k| *k != victim);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                image
            }
        };
        inner.raw_index.insert(raw, key);
        image
    }

    /// Snapshot of the monotonic counters plus current residency.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: lock(&self.inner).entries.len(),
        }
    }
}

fn touch(order: &mut VecDeque<u64>, key: u64) {
    if let Some(pos) = order.iter().position(|k| *k == key) {
        order.remove(pos);
    }
    order.push_back(key);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(key: u64) -> Arc<ServedImage> {
        let module =
            helix_frontend::parse_and_verify("module m\nfunc main(0 params, 1 vars) {\nbb0: (entry)\n  %v0 = const 0\n  ret %v0\n}\n")
                .unwrap();
        Arc::new(ServedImage {
            key,
            entry: module.function_by_name("main").unwrap(),
            entry_name: "main".to_string(),
            plan: ServedPlan::Sequential(ExecImage::lower(&module)),
            prep: Duration::ZERO,
        })
    }

    #[test]
    fn eviction_purges_raw_aliases_and_counts() {
        let cache = ImageCache::new(2);
        cache.insert(100, dummy(1));
        cache.insert(200, dummy(2));
        // Touch key 1 so key 2 becomes the LRU victim.
        assert!(cache.lookup_raw(100).is_some());
        cache.insert(300, dummy(3));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        // Key 2 was evicted: its raw alias must not resurrect it.
        assert!(cache.lookup_raw(200).is_none());
        assert!(cache.lookup_canonical(2, 200).is_none());
        // Keys 1 and 3 survive.
        assert!(cache.lookup_raw(100).is_some());
        assert!(cache.lookup_raw(300).is_some());
    }

    #[test]
    fn canonical_hit_installs_raw_alias() {
        let cache = ImageCache::new(4);
        cache.insert(100, dummy(1));
        // A textual variant (different raw hash, same canonical key) hits at the
        // canonical level and installs its own alias.
        assert!(cache.lookup_raw(101).is_none());
        assert!(cache.lookup_canonical(1, 101).is_some());
        assert!(cache.lookup_raw(101).is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 0);
    }
}
