//! String interning for vertex keys and type labels.
//!
//! The data graph identifies vertices by arbitrary external keys (IP
//! addresses, article URIs, user names, ...) and labels vertices and edges
//! with type names ("Article", "mentions", ...). Both are interned to small
//! dense integers so that the hot matching paths never compare or hash
//! strings.

use crate::hash::FxHashMap;
use serde::{Deserialize, Serialize};

/// A generic string interner mapping strings to dense `u32` symbols.
///
/// Interning the same string twice returns the same symbol; symbols are
/// allocated consecutively starting at zero, so they can be used as vector
/// indices.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Interner {
    by_name: FxHashMap<String, u32>,
    names: Vec<String>,
}

/// Up to this many names [`Interner::lookup`] scans instead of hashing.
const SCAN_LIMIT: usize = 8;

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an interner with capacity for `cap` distinct strings.
    pub fn with_capacity(cap: usize) -> Self {
        Interner {
            by_name: FxHashMap::with_capacity_and_hasher(cap, Default::default()),
            names: Vec::with_capacity(cap),
        }
    }

    /// Interns `name`, returning its symbol. Idempotent.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(sym) = self.lookup(name) {
            return sym;
        }
        let sym = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), sym);
        sym
    }

    /// Returns the symbol for `name` if it has been interned before.
    #[inline]
    pub fn lookup(&self, name: &str) -> Option<u32> {
        // A handful of names (the type labels: three look-ups per ingested
        // edge) is compared faster than one of them is hashed.
        if self.names.len() <= SCAN_LIMIT {
            return self.names.iter().position(|n| n == name).map(|i| i as u32);
        }
        self.by_name.get(name).copied()
    }

    /// Returns the string for `sym`, if `sym` was produced by this interner.
    pub fn resolve(&self, sym: u32) -> Option<&str> {
        self.names.get(sym as usize).map(|s| s.as_str())
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(symbol, name)` pairs in symbol order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("Article");
        let b = i.intern("Keyword");
        let a2 = i.intern("Article");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_roundtrips() {
        let mut i = Interner::new();
        let sym = i.intern("mentions");
        assert_eq!(i.resolve(sym), Some("mentions"));
        assert_eq!(i.lookup("mentions"), Some(sym));
        assert_eq!(i.lookup("missing"), None);
        assert_eq!(i.resolve(999), None);
    }

    #[test]
    fn symbols_are_dense() {
        let mut i = Interner::new();
        for n in 0..100 {
            let sym = i.intern(&format!("label-{n}"));
            assert_eq!(sym, n as u32);
        }
        let collected: Vec<_> = i.iter().map(|(s, _)| s).collect();
        assert_eq!(collected, (0u32..100).collect::<Vec<_>>());
    }

    #[test]
    fn lookup_agrees_on_both_sides_of_the_scan_limit() {
        let mut i = Interner::new();
        for n in 0..2 * SCAN_LIMIT {
            let name = format!("label-{n}");
            assert_eq!(i.lookup(&name), None);
            assert_eq!(i.intern(&name), n as u32);
            for earlier in 0..=n {
                assert_eq!(i.lookup(&format!("label-{earlier}")), Some(earlier as u32));
            }
        }
        assert_eq!(i.intern("label-3"), 3);
        assert_eq!(i.len(), 2 * SCAN_LIMIT);
    }

    #[test]
    fn empty_interner_reports_empty() {
        let i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
    }
}
