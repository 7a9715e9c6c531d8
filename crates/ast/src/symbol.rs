//! Global string interning for node kinds.
//!
//! A [`Kind`] (the grammar symbol of a node, e.g. `While` or `SymbolRef`)
//! is a lightweight index into a process-wide interner. Interning makes
//! kinds `Copy`, cheap to hash and compare, and lets path representations
//! be packed into small integer sequences.
//!
//! The interner is append-only and never frees strings. Kind names come
//! from the fixed tables of the frontends and analyses, so the table is
//! bounded by the grammars, not by the programs parsed. Terminal values
//! (identifiers and literals) are not interned: each [`Ast`](crate::Ast)
//! owns its own.
//!
//! Reads take no lock. Id `i`'s string sits in a segmented table whose
//! segments are allocated once and never move, each slot a `OnceLock`
//! that is set before its id leaves the interner, so `as_str` is two
//! acquire loads and an index. Interning goes through a per-thread cache
//! of 4 096 ids in two-way buckets (16 KiB of zeroed thread-local storage
//! per thread, never grown): a string this thread interned before, and
//! still cached, is found without the global mutex. Only a miss takes the
//! mutex and the global map, and a new string is written there once.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// Ids in the first table segment, as a power of two; segment `k` holds
/// `1 << (FIRST_SEGMENT_BITS + k)` ids.
const FIRST_SEGMENT_BITS: u32 = 6;

/// Segments enough for every `u32` id.
const SEGMENTS: usize = (33 - FIRST_SEGMENT_BITS) as usize;

/// One id's string, set once before the id is handed out.
type Slot = OnceLock<&'static str>;

/// The id → string table. Segments double in size, so the table never
/// moves a slot once allocated and a reader needs no lock.
static STRINGS: [OnceLock<Box<[Slot]>>; SEGMENTS] = [const { OnceLock::new() }; SEGMENTS];

/// The string → id map, consulted under its mutex on a per-thread cache
/// miss. Its length is the next id.
fn ids() -> &'static Mutex<HashMap<&'static str, u32>> {
    static IDS: OnceLock<Mutex<HashMap<&'static str, u32>>> = OnceLock::new();
    IDS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Per-thread cache entries, each holding `id + 1` (`0` is empty), in
/// buckets of two picked by string hash. A power of two.
const CACHE_SLOTS: usize = 1 << 12;

thread_local! {
    /// This thread's interning cache. Zero-initialised, so a fresh
    /// thread (the pools spawn them per call) starts it for free.
    static CACHE: [Cell<u32>; CACHE_SLOTS] = const { [const { Cell::new(0) }; CACHE_SLOTS] };

    /// How often this thread took the global mutex.
    static SLOW_PATH: Cell<u64> = const { Cell::new(0) };
}

/// `(segment, offset)` of `id` in [`STRINGS`].
fn locate(id: u32) -> (usize, usize) {
    let n = u64::from(id) + (1 << FIRST_SEGMENT_BITS);
    let segment = n.ilog2() - FIRST_SEGMENT_BITS;
    let offset = n - (1 << (segment + FIRST_SEGMENT_BITS));
    (segment as usize, offset as usize)
}

/// The first of the two cache slots `s` may sit in, by FNV-1a over its
/// bytes.
fn cache_bucket(s: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h ^ (h >> 32)) as usize & (CACHE_SLOTS - 2)
}

fn intern(s: &str) -> u32 {
    let bucket = cache_bucket(s);
    CACHE.with(|cache| {
        let (newer, older) = (&cache[bucket], &cache[bucket + 1]);
        for way in [newer, older] {
            let cached = way.get();
            if cached != 0 && resolve(cached - 1) == s {
                return cached - 1;
            }
        }
        let id = intern_global(s);
        older.set(newer.get());
        newer.set(id + 1);
        id
    })
}

/// Looks `s` up in the global map, adding it when new.
fn intern_global(s: &str) -> u32 {
    SLOW_PATH.with(|n| n.set(n.get() + 1));
    let mut ids = ids().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&id) = ids.get(s) {
        return id;
    }
    // `u32::MAX` stays unused so every id fits the cache's `id + 1`.
    let id = u32::try_from(ids.len())
        .ok()
        .filter(|&id| id < u32::MAX)
        .expect("kind interner full");
    // Leaking is deliberate: interned strings live for the process.
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    let (segment, offset) = locate(id);
    let slots = STRINGS[segment].get_or_init(|| {
        (0..1usize << (segment as u32 + FIRST_SEGMENT_BITS))
            .map(|_| OnceLock::new())
            .collect()
    });
    // The slot is set before the id is published (in the map, under the
    // lock, or returned), so anyone holding the id reads it set.
    slots[offset].set(leaked).expect("a new id's slot is empty");
    ids.insert(leaked, id);
    id
}

fn resolve(id: u32) -> &'static str {
    let (segment, offset) = locate(id);
    STRINGS[segment]
        .get()
        .and_then(|slots| slots[offset].get())
        .expect("ids come only from the interner")
}

/// An interned grammar symbol naming the syntactic category of an AST node.
///
/// Kinds are the alphabet from which AST paths are built: the path in
/// Fig. 1 of the paper is the kind sequence
/// `SymbolRef ↑ UnaryPrefix! ↑ While ↓ If ↓ Assign= ↓ SymbolRef`.
///
/// ```
/// use pigeon_ast::Kind;
/// let a = Kind::new("While");
/// let b = Kind::new("While");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "While");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Kind(u32);

impl Kind {
    /// Interns `name` and returns its kind.
    pub fn new(name: &str) -> Self {
        Kind(intern(name))
    }

    /// The string this kind was interned from.
    pub fn as_str(self) -> &'static str {
        resolve(self.0)
    }

    /// The raw interner index, stable for the lifetime of the process.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Kind({})", self.as_str())
    }
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Kind {
    fn from(s: &str) -> Self {
        Kind::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Kind::new("If");
        let b = Kind::new("If");
        assert_eq!(a, b);
        assert_eq!(a.index(), b.index());
    }

    #[test]
    fn distinct_strings_get_distinct_ids() {
        assert_ne!(Kind::new("If"), Kind::new("While"));
    }

    #[test]
    fn display_matches_source_text() {
        assert_eq!(Kind::new("Assign=").to_string(), "Assign=");
    }

    #[test]
    fn interning_is_thread_safe() {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let k = Kind::new(&format!("ThreadKind{}", i % 2));
                    k.as_str().to_owned()
                })
            })
            .collect();
        for h in handles {
            let s = h.join().unwrap();
            assert!(s.starts_with("ThreadKind"));
        }
    }

    /// The global-mutex acquisitions this thread has made.
    fn slow_path_count() -> u64 {
        SLOW_PATH.with(Cell::get)
    }

    #[test]
    fn threads_interning_overlapping_sets_agree_on_ids() {
        let words: Vec<String> = (0..300).map(|i| format!("overlap-{i}")).collect();
        let start = std::sync::Barrier::new(8);
        let interned: Vec<(String, u32)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let (words, start) = (&words, &start);
                    scope.spawn(move || {
                        // Overlapping windows, half of them walked
                        // backwards, all starting at once.
                        let mut mine: Vec<&String> = words[t * 25..t * 25 + 125].iter().collect();
                        if t % 2 == 1 {
                            mine.reverse();
                        }
                        start.wait();
                        mine.into_iter()
                            .map(|w| {
                                let kind = Kind::new(w);
                                assert_eq!(kind.as_str(), w);
                                (w.clone(), kind.index())
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("interning thread"))
                .collect()
        });
        let mut ids: HashMap<String, u32> = HashMap::new();
        for (word, id) in interned {
            assert_eq!(*ids.entry(word.clone()).or_insert(id), id, "{word}");
        }
        assert_eq!(ids.len(), 300);
        let distinct: std::collections::HashSet<u32> = ids.values().copied().collect();
        assert_eq!(distinct.len(), ids.len(), "distinct strings share an id");
        for (word, &id) in &ids {
            assert_eq!(Kind::new(word).index(), id);
            assert_eq!(Kind::new(word).as_str(), word);
        }
    }

    #[test]
    fn reads_and_repeated_interns_on_one_thread_take_no_lock() {
        // One word per cache bucket, so none can evict another.
        let mut buckets = std::collections::HashSet::new();
        let words: Vec<String> = (0..)
            .map(|i| format!("lock-free-{i}"))
            .filter(|w| buckets.insert(cache_bucket(w)))
            .take(500)
            .collect();
        let before = slow_path_count();
        let kinds: Vec<Kind> = words.iter().map(|w| Kind::new(w)).collect();
        assert_eq!(
            slow_path_count(),
            before + 500,
            "each new string takes the lock once"
        );
        let before = slow_path_count();
        for (word, &kind) in words.iter().zip(&kinds) {
            assert_eq!(kind.as_str(), word);
            assert_eq!(Kind::new(word), kind);
        }
        assert_eq!(slow_path_count(), before);

        // A string another thread interned is read without a lock, and
        // costs this thread one lookup in the global map, then none.
        let elsewhere = std::thread::spawn(|| Kind::new("interned-elsewhere"))
            .join()
            .expect("interning thread");
        assert_eq!(elsewhere.as_str(), "interned-elsewhere");
        assert_eq!(slow_path_count(), before);
        assert_eq!(Kind::new("interned-elsewhere"), elsewhere);
        assert_eq!(Kind::new("interned-elsewhere"), elsewhere);
        assert_eq!(slow_path_count(), before + 1);
    }

    #[test]
    fn ids_map_onto_doubling_segments() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(63), (0, 63));
        assert_eq!(locate(64), (1, 0));
        assert_eq!(locate(191), (1, 127));
        assert_eq!(locate(192), (2, 0));
        let (segment, offset) = locate(u32::MAX);
        assert_eq!(segment, SEGMENTS - 1);
        assert!(offset < 1 << (segment as u32 + FIRST_SEGMENT_BITS));
    }
}
