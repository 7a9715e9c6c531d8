//! Alpha-renaming-normalized AST fingerprints.
//!
//! Two programs that differ only in the identifiers they chose hash to
//! the same fingerprint: every terminal value is replaced by the dense
//! index of its first occurrence before hashing, so `var a = a + 1` and
//! `var b = b + 1` are indistinguishable, while any structural or
//! kind-level difference changes the hash. The evaluation layer uses
//! fingerprints to keep exact-duplicate programs from straddling a
//! train/test split, and the audit layer uses them to measure
//! intra-corpus duplication — the evaluation-hygiene concern that decides
//! whether reported accuracies mean anything.

use pigeon_ast::Ast;
use std::collections::HashMap;

/// 64-bit FNV-1a, the workspace's one content hash: stable across
/// platforms and runs (no `RandomState`), so fingerprints, cache keys and
/// artifact checksums can be recorded and compared between processes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher in its initial state.
    pub fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The accumulated hash.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// Hashes one byte string from scratch.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// The alpha-renaming-normalized structural fingerprint of `ast`.
///
/// The hash covers, in preorder: each node's kind, its child count, and —
/// for terminals — the first-occurrence index of its value. Identifier
/// *choices* therefore do not matter, but identifier *equality structure*
/// does: renaming `count` to `total` everywhere preserves the
/// fingerprint, while merging two distinct names into one changes it.
///
/// ```
/// use pigeon_ast::AstBuilder;
/// use pigeon_core::normalized_fingerprint;
///
/// let tree = |a: &str, b: &str| {
///     let mut t = AstBuilder::new("Toplevel");
///     t.token("SymbolRef", a);
///     t.token("SymbolRef", b);
///     t.token("SymbolRef", a);
///     t.finish()
/// };
/// // Same equality structure, different names: identical fingerprints.
/// assert_eq!(
///     normalized_fingerprint(&tree("x", "y")),
///     normalized_fingerprint(&tree("done", "flag")),
/// );
/// // Collapsing the two names changes the structure.
/// assert_ne!(
///     normalized_fingerprint(&tree("x", "y")),
///     normalized_fingerprint(&tree("x", "x")),
/// );
/// ```
pub fn normalized_fingerprint(ast: &Ast) -> u64 {
    let mut h = Fnv64::new();
    let mut first_seen: HashMap<&str, u64> = HashMap::new();
    for id in ast.preorder() {
        h.write(ast.kind(id).as_str().as_bytes());
        h.write_u64(ast.children(id).len() as u64);
        if let Some(value) = ast.value(id) {
            let next = first_seen.len() as u64;
            let ordinal = *first_seen.entry(value.as_str()).or_insert(next);
            h.write_u64(ordinal);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pigeon_ast::AstBuilder;

    fn leafy(values: &[&str]) -> Ast {
        let mut b = AstBuilder::new("Toplevel");
        for &v in values {
            b.token("SymbolRef", v);
        }
        b.finish()
    }

    #[test]
    fn deterministic_across_calls() {
        let ast = leafy(&["a", "b", "a"]);
        assert_eq!(normalized_fingerprint(&ast), normalized_fingerprint(&ast));
    }

    #[test]
    fn alpha_renaming_is_invisible() {
        assert_eq!(
            normalized_fingerprint(&leafy(&["a", "b", "a"])),
            normalized_fingerprint(&leafy(&["q", "r", "q"])),
        );
    }

    #[test]
    fn equality_structure_matters() {
        assert_ne!(
            normalized_fingerprint(&leafy(&["a", "b", "a"])),
            normalized_fingerprint(&leafy(&["a", "b", "b"])),
        );
    }

    #[test]
    fn kinds_matter() {
        let mut b = AstBuilder::new("Toplevel");
        b.token("NameRef", "a");
        let renamed_kind = b.finish();
        assert_ne!(
            normalized_fingerprint(&leafy(&["a"])),
            normalized_fingerprint(&renamed_kind),
        );
    }

    #[test]
    fn shape_matters() {
        let mut b = AstBuilder::new("Toplevel");
        b.start_node("Block");
        b.token("SymbolRef", "a");
        b.finish_node();
        let nested = b.finish();
        assert_ne!(
            normalized_fingerprint(&leafy(&["a"])),
            normalized_fingerprint(&nested),
        );
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned values: the fingerprint contract is cross-process
        // stability, so the underlying hash must never drift. The empty
        // input yields the FNV-1a offset basis by definition.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"pigeon"), fnv64(b"pigeons"));
    }

    #[test]
    fn fnv_matches_published_test_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
        // Incremental hashing equals one-shot hashing.
        let mut h = Fnv64::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv64(b"foobar"));
    }
}
