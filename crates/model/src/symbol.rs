//! Interned strings for the hot identifiers of the check pipeline.
//!
//! Resource-type names and attribute paths recur millions of times during
//! mining and validation: every stats key, every candidate check, every
//! scheduler conflict key mentions them. Interning maps each distinct string
//! to a small integer once, so equality and hashing are O(1) `u32`
//! comparisons instead of byte-wise string walks, and every copy of a check
//! shares one allocation.
//!
//! The interner is a global append-only table. Interned strings are leaked
//! (`Box::leak`) so a [`Symbol`] can hand out `&'static str` without
//! lifetimes infecting the AST; the set of distinct identifiers in a run is
//! small (hundreds), so the leak is bounded and intentional.
//!
//! Reads are lock-free. Resolving a symbol is the hot operation — every
//! `Ord` comparison, `Deref` and string `==` resolves one — so the id → str
//! table is a fixed array of lazily allocated buckets of write-once cells
//! (`OnceLock`), doubling in size, that together cover every `u32` id.
//! [`Symbol::intern`] alone takes a mutex: it guards the str → id map and
//! the next free id, and publishes a new string in its cell before handing
//! out the symbol, so any thread that holds a symbol can read its string.
//!
//! `Ord` deliberately compares the *resolved strings*, not the ids: the
//! pipeline iterates `BTreeMap`s keyed by symbols and its output order must
//! not depend on interning order (which varies with thread scheduling).

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::{Mutex, OnceLock};

/// An interned string. Copyable, 4 bytes, O(1) `Eq`/`Hash`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

/// Cells in the first bucket of the id → str table (a power of two).
const FIRST_BUCKET: u64 = 64;

/// Buckets in the id → str table: bucket `k` holds `FIRST_BUCKET << k`
/// cells, so 27 buckets cover every `u32` id.
const BUCKETS: usize = 27;

/// A bucket of the id → str table: one write-once cell per id.
type Bucket = Box<[OnceLock<&'static str>]>;

/// The id → str table. Buckets are allocated on first use, under the
/// interner's mutex; cells are written once and read without a lock.
static STRINGS: [OnceLock<Bucket>; BUCKETS] = [const { OnceLock::new() }; BUCKETS];

/// The bucket and the cell within it that hold `id`.
fn locate(id: u32) -> (usize, usize) {
    let slot = u64::from(id) + FIRST_BUCKET;
    let bucket = (slot.ilog2() - FIRST_BUCKET.ilog2()) as usize;
    (bucket, (slot - (FIRST_BUCKET << bucket)) as usize)
}

/// The cell that holds `id`'s string, allocating its bucket if needed.
fn cell(id: u32) -> Option<&'static OnceLock<&'static str>> {
    let (bucket, offset) = locate(id);
    STRINGS
        .get(bucket)?
        .get_or_init(|| {
            (0..FIRST_BUCKET << bucket)
                .map(|_| OnceLock::new())
                .collect()
        })
        .get(offset)
}

/// The str → id map; its size is the next free id.
fn interner() -> &'static Mutex<HashMap<&'static str, u32>> {
    static INTERNER: OnceLock<Mutex<HashMap<&'static str, u32>>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new(HashMap::new()))
}

impl Symbol {
    /// Interns `s`, returning its symbol. Idempotent: equal strings always
    /// yield equal symbols.
    pub fn intern(s: &str) -> Symbol {
        let mut map = interner().lock().expect("symbol interner poisoned");
        if let Some(&id) = map.get(s) {
            return Symbol(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = map.len() as u32;
        if let Some(cell) = cell(id) {
            let _ = cell.set(leaked);
        }
        map.insert(leaked, id);
        Symbol(id)
    }

    /// The interned string. Lock-free.
    pub fn as_str(self) -> &'static str {
        let (bucket, offset) = locate(self.0);
        // Every cell a symbol names is set: `intern` writes it before the
        // symbol exists, and handing a symbol to another thread orders that
        // write before the other thread's read.
        STRINGS
            .get(bucket)
            .and_then(OnceLock::get)
            .and_then(|cells| cells.get(offset))
            .and_then(OnceLock::get)
            .copied()
            .unwrap_or_default()
    }
}

impl Deref for Symbol {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Symbol {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Symbol) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Symbol) -> Ordering {
        if self.0 == other.0 {
            Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl Serialize for Symbol {
    fn serialize(&self) -> serde::Value {
        serde::Value::String(self.as_str().to_string())
    }
}

impl Deserialize for Symbol {
    fn deserialize(v: &serde::Value) -> Result<Symbol, serde::Error> {
        let s = String::deserialize(v)?;
        Ok(Symbol::intern(&s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("azurerm_linux_virtual_machine");
        let b = Symbol::intern("azurerm_linux_virtual_machine");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "azurerm_linux_virtual_machine");
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        assert_ne!(Symbol::intern("size"), Symbol::intern("location"));
    }

    #[test]
    fn orders_by_string_not_by_interning_order() {
        let z = Symbol::intern("zzz-ordering-probe");
        let a = Symbol::intern("aaa-ordering-probe");
        assert!(a < z, "symbols must sort like their strings");
        let mut map = BTreeMap::new();
        map.insert(z, 1);
        map.insert(a, 2);
        let keys: Vec<&str> = map.keys().map(|s| s.as_str()).collect();
        assert_eq!(keys, vec!["aaa-ordering-probe", "zzz-ordering-probe"]);
    }

    #[test]
    fn compares_with_plain_strings() {
        let s = Symbol::intern("account_tier");
        assert_eq!(s, "account_tier");
        assert_eq!(s, "account_tier".to_string());
        assert!(s.starts_with("account"));
    }

    #[test]
    fn threads_agree_on_concurrently_interned_symbols() {
        use std::sync::{Arc, Barrier};
        const THREADS: usize = 8;
        const PER_THREAD: usize = 300;
        let start = Arc::new(Barrier::new(THREADS));
        let shared: Arc<Mutex<Vec<(String, Symbol)>>> = Arc::default();
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (start, shared) = (start.clone(), shared.clone());
                std::thread::spawn(move || {
                    let probes: Vec<String> = (t * 100..t * 100 + PER_THREAD)
                        .map(|k| format!("barrier-probe-{k}"))
                        .collect();
                    // Released together, thread t interns probes
                    // [100t, 100t + 300): each is new to the table, and up
                    // to three threads race for it.
                    start.wait();
                    let mine: Vec<(String, Symbol)> = probes
                        .into_iter()
                        .map(|text| {
                            let sym = Symbol::intern(&text);
                            (text, sym)
                        })
                        .collect();
                    shared.lock().unwrap().extend(mine.iter().cloned());
                    start.wait();
                    // Resolve every thread's symbols, all threads at once.
                    let all = shared.lock().unwrap().clone();
                    for (text, sym) in &all {
                        assert_eq!(sym.as_str(), text);
                        assert_eq!(Symbol::intern(text), *sym);
                    }
                    mine
                })
            })
            .collect();
        let mut seen: HashMap<String, Symbol> = HashMap::new();
        for handle in handles {
            for (text, sym) in handle.join().expect("no thread panics") {
                assert_eq!(
                    *seen.entry(text).or_insert(sym),
                    sym,
                    "one symbol per string"
                );
            }
        }
        let distinct: std::collections::HashSet<Symbol> = seen.values().copied().collect();
        assert_eq!(distinct.len(), seen.len(), "one string per symbol");
        assert_eq!(seen.len(), (THREADS - 1) * 100 + PER_THREAD);
    }

    #[test]
    fn locate_covers_every_id() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(63), (0, 63));
        assert_eq!(locate(64), (1, 0));
        assert_eq!(locate(191), (1, 127));
        assert_eq!(locate(192), (2, 0));
        let (bucket, offset) = locate(u32::MAX);
        assert_eq!(bucket, BUCKETS - 1);
        assert!((offset as u64) < FIRST_BUCKET << bucket);
    }

    #[test]
    fn serde_round_trips_as_string() {
        let s = Symbol::intern("network_interface_ids");
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, "\"network_interface_ids\"");
        let back: Symbol = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
