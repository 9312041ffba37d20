//! Interned string symbols for names: attribute paths, query atoms,
//! aliases and service names.
//!
//! The data plane repeats a small vocabulary of names across millions of
//! tuples. Interning each distinct name once in a process-wide table
//! turns every per-tuple key into a `Copy` handle, removes the per-clone
//! heap traffic of `String` keys, and makes equality a single pointer
//! compare. The table never frees an entry, so it is for that
//! vocabulary only: values — text cells, join keys, query constants —
//! never reach [`Symbol::intern`], and a daemon's table stops growing
//! once its workload has named every attribute, atom and service.
//!
//! Determinism contract: `Hash` and `Ord` are defined over the *string
//! content*, not the table address, so symbols hash and sort exactly like
//! the `String`s they replace. Seeded request hashing (`hash_request_key`,
//! `hash_path`) and the `BTreeMap` iteration order of bindings therefore
//! produce byte-identical results before and after interning.

use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Total bytes of interned string content. The table leaks every
/// distinct string by design (entries are `&'static str` handles and
/// are never freed), so this counter only grows; operators of
/// long-running daemons watch it to confirm the vocabulary has
/// plateaued (see `Symbol::table_bytes`).
static INTERNED_BYTES: AtomicUsize = AtomicUsize::new(0);

/// A handle to an interned string: the canonical `&'static str` for its
/// content. Cheap to copy; equality is a pointer compare. Only `intern`
/// touches the table lock — `as_str`, `Hash`, `Ord` are lock-free.
#[derive(Clone, Copy, Eq)]
pub struct Symbol(&'static str);

fn interner() -> &'static Mutex<HashSet<&'static str>> {
    static TABLE: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashSet::new()))
}

impl Symbol {
    /// Intern `s`, returning its stable handle. Repeated calls with equal
    /// strings return the same (pointer-identical) symbol.
    pub fn intern(s: &str) -> Symbol {
        let mut table = interner().lock().expect("symbol table poisoned");
        if let Some(&canonical) = table.get(s) {
            return Symbol(canonical);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        table.insert(leaked);
        INTERNED_BYTES.fetch_add(leaked.len(), Ordering::Relaxed);
        Symbol(leaked)
    }

    /// The interned string. `'static` because the table never frees entries.
    pub fn as_str(self) -> &'static str {
        self.0
    }

    /// Number of distinct strings interned so far (diagnostics only).
    pub fn table_len() -> usize {
        interner().lock().expect("symbol table poisoned").len()
    }

    /// Total bytes of interned string content (diagnostics only).
    ///
    /// The interner leaks every distinct string on purpose — handles
    /// are `&'static str`, so entries can never be freed. Growth is
    /// bounded by the *vocabulary* of the workload (attribute paths,
    /// atom aliases, service names), not by its volume: in a
    /// multi-tenant daemon the counter climbs while new query shapes
    /// and domains arrive and plateaus once the vocabulary is covered
    /// (`tests/retention.rs` holds the symbol count flat over 1 500
    /// never-seen queries). A counter that keeps climbing at a steady
    /// rate signals a caller interning unbounded data (e.g. tuple
    /// *values*) and must be treated as a leak.
    pub fn table_bytes() -> usize {
        INTERNED_BYTES.load(Ordering::Relaxed)
    }

    /// True if the symbol's content equals `s` (no interning of `s`).
    pub fn is(self, s: &str) -> bool {
        self.0 == s
    }
}

// Interning canonicalizes: equal content implies the same leaked allocation,
// so pointer identity is content equality.
impl PartialEq for Symbol {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

// Hash by content so `Symbol` is a drop-in replacement for `String` keys in
// seeded hashing (`DefaultHasher` over a `&str` and a `String` agree).
impl Hash for Symbol {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

// Order by content so BTreeMap iteration matches the pre-interning order.
impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if std::ptr::eq(self.0, other.0) {
            std::cmp::Ordering::Equal
        } else {
            self.0.cmp(other.0)
        }
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.0 == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

impl PartialEq<String> for Symbol {
    fn eq(&self, other: &String) -> bool {
        self.0 == other.as_str()
    }
}

impl PartialEq<Symbol> for str {
    fn eq(&self, other: &Symbol) -> bool {
        self == other.0
    }
}

impl PartialEq<Symbol> for &str {
    fn eq(&self, other: &Symbol) -> bool {
        *self == other.0
    }
}

impl PartialEq<Symbol> for String {
    fn eq(&self, other: &Symbol) -> bool {
        self.as_str() == other.0
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<Symbol> for String {
    fn from(s: Symbol) -> String {
        s.0.to_owned()
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        self.0
    }
}

/// The atom list of a composite tuple, interned: the canonical
/// `&'static [Symbol]` for its content.
///
/// Every composite leaving a plan node carries the same atoms in the
/// same order, so the list is stored once per process and a composite
/// holds a `Copy` handle to it — building a combination allocates its
/// component block and nothing else. Like [`Symbol`], the table leaks
/// its entries and grows with the *vocabulary* (distinct alias
/// sequences of the plans seen), never with the volume of tuples;
/// equality is a pointer compare.
#[derive(Clone, Copy, Eq)]
pub struct AtomShape(&'static [Symbol]);

fn shape_table() -> &'static Mutex<HashSet<&'static [Symbol]>> {
    static TABLE: OnceLock<Mutex<HashSet<&'static [Symbol]>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashSet::new()))
}

thread_local! {
    /// The last `(head, tail, dedup) → shape` this thread derived. A
    /// join or pipe stage derives the same shape for every combination
    /// it builds, so one entry answers all but the first.
    static LAST_DERIVED: std::cell::Cell<Option<(AtomShape, AtomShape, bool, AtomShape)>> =
        const { std::cell::Cell::new(None) };
}

impl AtomShape {
    /// The shape of the empty composite (the plan's input tuple).
    pub const EMPTY: AtomShape = AtomShape(&[]);

    /// Interns `atoms`, returning the stable handle of the list.
    pub fn intern(atoms: &[Symbol]) -> AtomShape {
        if atoms.is_empty() {
            return AtomShape::EMPTY;
        }
        let mut table = shape_table().lock().expect("shape table poisoned");
        if let Some(&canonical) = table.get(atoms) {
            return AtomShape(canonical);
        }
        let leaked: &'static [Symbol] = Box::leak(atoms.to_vec().into_boxed_slice());
        table.insert(leaked);
        AtomShape(leaked)
    }

    /// `self · tail`: the atoms of a concatenation.
    pub fn concat(self, tail: &[Symbol]) -> AtomShape {
        self.derive(tail, false)
    }

    /// `self` followed by the atoms of `tail` it does not already hold:
    /// the atoms of a merge of two branches with common ancestry.
    pub fn union(self, tail: &[Symbol]) -> AtomShape {
        self.derive(tail, true)
    }

    fn derive(self, tail: &[Symbol], dedup: bool) -> AtomShape {
        if let Some((head, last_tail, last_dedup, shape)) = LAST_DERIVED.get() {
            if head == self && last_dedup == dedup && *last_tail == *tail {
                return shape;
            }
        }
        let mut atoms = self.0.to_vec();
        atoms.extend(
            tail.iter()
                .filter(|a| !(dedup && self.0.contains(a)))
                .copied(),
        );
        let shape = AtomShape::intern(&atoms);
        LAST_DERIVED.set(Some((self, AtomShape::intern(tail), dedup, shape)));
        shape
    }
}

impl std::ops::Deref for AtomShape {
    type Target = [Symbol];

    fn deref(&self) -> &[Symbol] {
        self.0
    }
}

// Interning canonicalizes: equal content implies the same leaked slice,
// so identity is content equality. Empty lists are never leaked (and a
// `const` has no one address), so they compare by length alone.
impl PartialEq for AtomShape {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len()
            && (self.0.is_empty() || std::ptr::eq(self.0.as_ptr(), other.0.as_ptr()))
    }
}

impl fmt::Debug for AtomShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    #[test]
    fn interning_is_stable_and_deduplicating() {
        let a = Symbol::intern("Topic");
        let b = Symbol::intern("Topic");
        let c = Symbol::intern("AvgTemp");
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "Topic");
        assert_eq!(c.as_str(), "AvgTemp");
    }

    #[test]
    fn hashes_exactly_like_the_string_it_replaces() {
        for name in ["Topic", "AvgTemp", "Flight1", "日付", ""] {
            let sym = Symbol::intern(name);
            let mut h1 = DefaultHasher::new();
            sym.hash(&mut h1);
            let mut h2 = DefaultHasher::new();
            name.to_owned().hash(&mut h2);
            assert_eq!(h1.finish(), h2.finish(), "hash mismatch for {name:?}");
        }
    }

    #[test]
    fn orders_by_content_not_intern_order() {
        // Interned in reverse lexicographic order on purpose.
        let z = Symbol::intern("zeta-order");
        let a = Symbol::intern("alpha-order");
        assert!(a < z);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
        let mut v = vec![z, a];
        v.sort();
        assert_eq!(v, vec![a, z]);
    }

    #[test]
    fn byte_counter_tracks_fresh_interns() {
        // Other tests intern concurrently, so deltas are lower bounds:
        // fresh content must grow the counter by at least its length.
        let before = Symbol::table_bytes();
        let mut fresh = 0usize;
        for i in 0..16 {
            let name = format!("byte-counter-probe-{i}");
            fresh += name.len();
            Symbol::intern(&name);
        }
        assert!(Symbol::table_bytes() - before >= fresh);
        assert!(Symbol::table_bytes() >= Symbol::table_len());
    }

    #[test]
    fn compares_against_plain_strings() {
        let s = Symbol::intern("Conference1");
        assert!(s == "Conference1");
        assert!("Conference1" == s);
        let owned: String = "Conference1".into();
        assert!(s == owned);
        assert!(owned == s);
        assert!(s.is("Conference1"));
        assert!(!s.is("Conference2"));
    }

    #[test]
    fn shapes_intern_to_one_handle_per_atom_list() {
        let (a, b, c) = (
            Symbol::intern("shape-A"),
            Symbol::intern("shape-B"),
            Symbol::intern("shape-C"),
        );
        let ab = AtomShape::intern(&[a, b]);
        assert_eq!(ab, AtomShape::intern(&[a, b]));
        assert!(std::ptr::eq(
            ab.as_ptr(),
            AtomShape::intern(&[a, b]).as_ptr()
        ));
        assert_ne!(ab, AtomShape::intern(&[b, a]));
        assert_ne!(ab, AtomShape::intern(&[a]));
        assert_eq!(AtomShape::intern(&[]), AtomShape::EMPTY);
        assert_eq!(&*ab, &[a, b]);

        // Derived shapes, first through the table and then through the
        // per-thread memo, are the interned handles.
        for _ in 0..2 {
            assert_eq!(AtomShape::EMPTY.concat(&[a]), AtomShape::intern(&[a]));
            assert_eq!(ab.concat(&[c]), AtomShape::intern(&[a, b, c]));
            assert_eq!(ab.concat(&[c]), AtomShape::intern(&[a, b, c]));
            assert_eq!(ab.concat(&[a]), AtomShape::intern(&[a, b, a]));
            assert_eq!(ab.union(&[a, c, b]), AtomShape::intern(&[a, b, c]));
            assert_eq!(ab.union(&[a, c, b]), AtomShape::intern(&[a, b, c]));
            assert_eq!(ab.union(&[]), ab);
        }
    }
}
