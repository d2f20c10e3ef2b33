//! Interned symbols and instance-path trees for the ALICE workspace.
//!
//! The flow passes hierarchical names (instance paths, port bits, register
//! bits, module names) through every layer — parser, elaborator, dataflow,
//! clustering, selection, redaction, equivalence checking. Carrying them as
//! `String` means every map lookup re-hashes the bytes and every hand-off
//! clones. A [`Symbol`] is a copyable handle to the one leaked allocation
//! a process-wide interner keeps per distinct string: equality and
//! hashing are pointer operations, cloning is a copy, and the text is a
//! field read away ([`Symbol::as_str`]) — no lock on any of those paths.
//!
//! Determinism matters more than raw speed here (the flow's outputs are
//! golden-tested byte-for-byte), so [`Symbol`]'s `Ord` compares the
//! *strings*, not pointer values: a `BTreeMap<Symbol, _>` iterates in
//! exactly the order the old `BTreeMap<String, _>` did, regardless of
//! interning order or thread interleaving.
//!
//! The crate also provides [`PathTree`] — a real parent-pointer tree over
//! instance paths, replacing the string-prefix arithmetic that used to
//! answer ancestor queries — [`StableHasher`], the 128-bit content
//! hasher behind the characterization cache's keys, and [`splitmix64`],
//! the workspace's seeded PRNG.
//!
//! # Hierarchical paths: [`HierPath`]
//!
//! A dotted instance path (`top.u_crp.u_s1`) is more than a name: it has
//! a parent, a leaf segment, ancestors. [`HierPath`] is the typed wrapper
//! every layer that *walks* the hierarchy passes around — a `Copy`
//! `Symbol` in memory, with [`HierPath::parent`], [`HierPath::join`],
//! [`HierPath::leaf`], and [`HierPath::is_ancestor_of`] implemented by
//! whole-segment splitting (so the textual-prefix siblings `top.a` and
//! `top.ab` are never confused). The segment-split methods are the
//! *specification*; a [`PathTree`] built from the design's real hierarchy
//! edges agrees with them whenever instance names are dot-free (always
//! true for Verilog identifiers) and stays authoritative when they are
//! not. [`PathTree::common_parent`] computes the lowest common ancestor
//! of a member set's parents — the eFPGA insertion-point query of the
//! redaction phase — directly on the tree's edges.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned string: a cheap, copyable handle to a unique name.
///
/// Two symbols are equal iff their strings are equal; `Ord` follows the
/// string order (see the crate docs for why).
///
/// The handle *is* the leaked `&'static str`, so `as_str`, `==`
/// (pointer compare — the interner guarantees one allocation per
/// distinct string), `Hash` (pointer identity), and `Ord` never touch
/// the interner lock; only [`Symbol::intern`] does. Hot-path ordered
/// containers (`BTreeMap<Symbol, _>`) therefore compare without any
/// global synchronization.
///
/// # Example
///
/// ```
/// use alice_intern::Symbol;
/// let a = Symbol::intern("top.u_core");
/// let b = Symbol::intern("top.u_core");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "top.u_core");
/// ```
#[derive(Clone, Copy, Eq)]
pub struct Symbol(&'static str);

fn interner() -> &'static RwLock<HashMap<&'static str, &'static str>> {
    static GLOBAL: OnceLock<RwLock<HashMap<&'static str, &'static str>>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(HashMap::new()))
}

impl Symbol {
    /// Interns `s`, returning its unique symbol.
    ///
    /// # Panics
    ///
    /// Panics if the interner lock is poisoned (a prior panic while
    /// interning) — unrecoverable state corruption, not an expected error.
    pub fn intern(s: &str) -> Symbol {
        {
            let rd = interner().read().expect("interner poisoned");
            if let Some(&stored) = rd.get(s) {
                return Symbol(stored);
            }
        }
        let mut wr = interner().write().expect("interner poisoned");
        if let Some(&stored) = wr.get(s) {
            return Symbol(stored);
        }
        // Interned strings live for the process lifetime; leaking ONE
        // allocation per distinct string is what makes pointer identity
        // a sound equality/hash for symbols.
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        wr.insert(leaked, leaked);
        Symbol(leaked)
    }

    /// The interned text (lock-free).
    pub fn as_str(self) -> &'static str {
        self.0
    }

    /// Number of symbols interned so far in this process.
    pub fn count() -> usize {
        interner().read().expect("interner poisoned").len()
    }
}

impl PartialEq for Symbol {
    fn eq(&self, other: &Self) -> bool {
        // One leaked allocation per distinct string ⇒ pointer identity
        // is string equality.
        std::ptr::eq(self.0, other.0)
    }
}

impl std::hash::Hash for Symbol {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (self.0.as_ptr() as usize).hash(state);
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if std::ptr::eq(self.0, other.0) {
            return std::cmp::Ordering::Equal;
        }
        self.0.cmp(other.0)
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

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        self.as_str()
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

/// A typed hierarchical instance path: an interned dotted name
/// (`top.u_crp.u_s1`) with path *semantics* — parent, leaf, join,
/// ancestor tests — attached.
///
/// `HierPath` is a transparent [`Symbol`] wrapper, so it is `Copy`,
/// pointer-compared, and free to clone; the structural helpers split on
/// whole `.` segments, which makes them immune to the textual-prefix
/// trap (`top.a` is **not** an ancestor of `top.ab`, even though it is a
/// string prefix). These segment-split semantics are the specification
/// the design's [`PathTree`] (built from real hierarchy edges) agrees
/// with; use the tree when one is at hand — it also covers exotic names
/// containing dots — and `HierPath` everywhere paths are carried,
/// compared, or extended.
///
/// # Example
///
/// ```
/// use alice_intern::HierPath;
/// let crp = HierPath::intern("des3.u_crp");
/// let sbox = crp.join("u_s1");
/// assert_eq!(sbox.as_str(), "des3.u_crp.u_s1");
/// assert_eq!(sbox.parent(), Some(crp));
/// assert_eq!(sbox.leaf(), "u_s1");
/// assert!(crp.is_ancestor_of(sbox));
/// // Whole segments, not string prefixes:
/// assert!(!HierPath::intern("top.a").is_ancestor_of(HierPath::intern("top.ab")));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HierPath(Symbol);

impl HierPath {
    /// Interns a dotted path string.
    pub fn intern(s: &str) -> HierPath {
        HierPath(Symbol::intern(s))
    }

    /// Wraps an already-interned symbol as a path.
    pub fn from_symbol(s: Symbol) -> HierPath {
        HierPath(s)
    }

    /// The underlying symbol (for symbol-keyed maps and [`PathTree`]
    /// queries).
    pub fn symbol(self) -> Symbol {
        self.0
    }

    /// The path text (lock-free).
    pub fn as_str(self) -> &'static str {
        self.0.as_str()
    }

    /// Extends the path by one child segment: `top.u` + `core` →
    /// `top.u.core`.
    #[must_use]
    pub fn join(self, child: &str) -> HierPath {
        HierPath::intern(&format!("{}.{child}", self.as_str()))
    }

    /// The parent path (`None` for single-segment roots).
    pub fn parent(self) -> Option<HierPath> {
        self.as_str()
            .rsplit_once('.')
            .map(|(p, _)| HierPath::intern(p))
    }

    /// The last segment (the instance's own name).
    pub fn leaf(self) -> &'static str {
        match self.as_str().rsplit_once('.') {
            Some((_, leaf)) => leaf,
            None => self.as_str(),
        }
    }

    /// The `.`-separated segments, root first.
    pub fn segments(self) -> std::str::Split<'static, char> {
        self.as_str().split('.')
    }

    /// Number of segments (a root path has depth 1).
    pub fn depth(self) -> usize {
        self.segments().count()
    }

    /// True if `self` is a *strict* ancestor of `other` under the
    /// segment-split spec: every segment of `self` matches the leading
    /// segments of `other`, and `other` is deeper.
    pub fn is_ancestor_of(self, other: HierPath) -> bool {
        self != other && self.is_ancestor_or_self(other)
    }

    /// True if `self` equals `other` or is a strict ancestor of it.
    pub fn is_ancestor_or_self(self, other: HierPath) -> bool {
        if self == other {
            return true;
        }
        let (a, b) = (self.as_str(), other.as_str());
        b.len() > a.len() && b.as_bytes()[a.len()] == b'.' && b.starts_with(a)
    }
}

impl fmt::Display for HierPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for HierPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl From<&str> for HierPath {
    fn from(s: &str) -> HierPath {
        HierPath::intern(s)
    }
}

impl From<Symbol> for HierPath {
    fn from(s: Symbol) -> HierPath {
        HierPath(s)
    }
}

impl From<HierPath> for Symbol {
    fn from(p: HierPath) -> Symbol {
        p.symbol()
    }
}

impl AsRef<str> for HierPath {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq<str> for HierPath {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for HierPath {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// A parent-pointer tree over hierarchical instance paths.
///
/// Ancestor queries (`is top.u an ancestor of top.u.v?`) used to be
/// answered with string-prefix arithmetic; this is the structural
/// replacement: every node knows its parent, and an ancestor check walks
/// the parent chain. Sibling paths that happen to share a textual prefix
/// (`top.a` vs `top.ab`) can never be confused, because they are distinct
/// children of the same parent node.
#[derive(Debug, Clone, Default)]
pub struct PathTree {
    parent: HashMap<Symbol, Option<Symbol>>,
}

impl PathTree {
    /// An empty tree.
    pub fn new() -> PathTree {
        PathTree::default()
    }

    /// Records `child` as a child of `parent`. Both become known nodes;
    /// `parent` keeps (or later gains) its own parent edge.
    pub fn insert_child(&mut self, parent: Symbol, child: Symbol) {
        self.parent.entry(parent).or_insert(None);
        self.parent.insert(child, Some(parent));
    }

    /// Records `root` as a tree root (no parent).
    pub fn insert_root(&mut self, root: Symbol) {
        self.parent.entry(root).or_insert(None);
    }

    /// Builds a tree from dotted paths, deriving edges from the `.`
    /// segments (convenience for tests and ad-hoc path sets; prefer
    /// [`PathTree::insert_child`] with real hierarchy edges).
    pub fn from_paths<I: IntoIterator<Item = Symbol>>(paths: I) -> PathTree {
        let mut t = PathTree::new();
        for p in paths {
            t.insert_path(p);
        }
        t
    }

    /// Inserts a dotted path, creating any missing ancestor nodes.
    pub fn insert_path(&mut self, path: Symbol) {
        if self.parent.contains_key(&path) {
            return;
        }
        match path.as_str().rsplit_once('.') {
            Some((parent, _)) => {
                let parent = Symbol::intern(parent);
                self.insert_path(parent);
                self.parent.insert(path, Some(parent));
            }
            None => {
                self.parent.insert(path, None);
            }
        }
    }

    /// Whether `path` is a known node.
    pub fn contains(&self, path: Symbol) -> bool {
        self.parent.contains_key(&path)
    }

    /// The parent of `path` (`None` for roots and unknown nodes).
    pub fn parent(&self, path: Symbol) -> Option<Symbol> {
        self.parent.get(&path).copied().flatten()
    }

    /// True if `a` equals `b` or lies on `b`'s parent chain.
    ///
    /// Unknown nodes have no ancestors besides themselves.
    pub fn is_ancestor_or_self(&self, a: Symbol, b: Symbol) -> bool {
        let mut cur = Some(b);
        while let Some(n) = cur {
            if n == a {
                return true;
            }
            cur = self.parent(n);
        }
        false
    }

    /// The parent of a typed path, following the tree's real edges (not
    /// segment splitting — the two agree for dot-free instance names).
    pub fn parent_path(&self, path: HierPath) -> Option<HierPath> {
        self.parent(path.symbol()).map(HierPath::from_symbol)
    }

    /// [`PathTree::is_ancestor_or_self`] over typed paths.
    pub fn path_is_ancestor_or_self(&self, a: HierPath, b: HierPath) -> bool {
        self.is_ancestor_or_self(a.symbol(), b.symbol())
    }

    /// Lowest common ancestor of the members' *parents*, walked on the
    /// tree's edges — the eFPGA insertion-point query: a single-parent
    /// member set inserts in place, members from different subtrees climb
    /// to the common dominator. Returns `None` for an empty member set;
    /// members unknown to the tree act as their own parents (they have
    /// no recorded edges to climb).
    pub fn common_parent(&self, members: &[HierPath]) -> Option<HierPath> {
        let parent_of = |m: HierPath| self.parent_path(m).unwrap_or(m);
        let mut lca = parent_of(*members.first()?);
        for &m in &members[1..] {
            let p = parent_of(m);
            while !self.path_is_ancestor_or_self(lca, p) {
                match self.parent_path(lca) {
                    Some(up) => lca = up,
                    None => break,
                }
            }
        }
        Some(lca)
    }

    /// Number of known nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }
}

/// A deterministic 128-bit content hasher (two independent FNV-1a lanes),
/// the key-maker of the characterization cache. Not cryptographic; the
/// cache tolerates the (astronomically unlikely) collision by construction
/// only in the sense that both colliding inputs would be legal — keys mix
/// in enough structure that 2⁻¹²⁸ is an acceptable risk for a build tool.
#[derive(Debug, Clone, Copy)]
pub struct StableHasher {
    a: u64,
    b: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    /// A fresh hasher with fixed offsets.
    pub fn new() -> StableHasher {
        StableHasher {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x6c62_272e_07bb_0142,
        }
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &x in bytes {
            self.a = (self.a ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
            self.b = (self.b ^ x as u64).wrapping_mul(0x0000_01b3_0000_0193);
        }
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a length-prefixed string (prefixing prevents ambiguity
    /// between `["ab","c"]` and `["a","bc"]`).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The 128-bit digest as two words.
    pub fn finish(self) -> (u64, u64) {
        // A final avalanche so trailing zero-bytes still diffuse.
        let mix = |mut z: u64| {
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        (mix(self.a), mix(self.b))
    }
}

/// splitmix64: the workspace's deterministic stand-in for `rand`.
/// Advances `state` and returns the next well-mixed 64-bit word; the
/// same seed always yields the same stream, which is what keeps sweep
/// signatures, solver perturbations and wrong-key draws reproducible.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("alpha");
        let b = Symbol::intern("alpha");
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.as_str(), b.as_str()), "one allocation");
        assert_eq!(a.as_str(), "alpha");
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        assert_ne!(Symbol::intern("x1"), Symbol::intern("x2"));
    }

    #[test]
    fn ord_follows_string_order_not_intern_order() {
        // Intern in reverse lexicographic order on purpose.
        let z = Symbol::intern("zzz-ord-test");
        let a = Symbol::intern("aaa-ord-test");
        assert!(a < z);
        let mut v = vec![z, a];
        v.sort();
        assert_eq!(v, vec![a, z]);
    }

    #[test]
    fn path_tree_walks_real_edges() {
        let t = PathTree::from_paths(["top.u.v", "top.w"].map(Symbol::intern));
        let top = Symbol::intern("top");
        let u = Symbol::intern("top.u");
        let v = Symbol::intern("top.u.v");
        let w = Symbol::intern("top.w");
        assert!(t.is_ancestor_or_self(top, v));
        assert!(t.is_ancestor_or_self(u, v));
        assert!(t.is_ancestor_or_self(v, v));
        assert!(!t.is_ancestor_or_self(v, u));
        assert!(!t.is_ancestor_or_self(u, w));
        assert_eq!(t.parent(u), Some(top));
        assert_eq!(t.parent(top), None);
    }

    #[test]
    fn path_tree_never_confuses_textual_prefixes() {
        // `top.a` is a textual prefix of `top.ab` but not an ancestor.
        let t = PathTree::from_paths(["top.a", "top.ab", "top.a.b"].map(Symbol::intern));
        let a = Symbol::intern("top.a");
        let ab = Symbol::intern("top.ab");
        let a_b = Symbol::intern("top.a.b");
        assert!(!t.is_ancestor_or_self(a, ab));
        assert!(!t.is_ancestor_or_self(ab, a));
        assert!(t.is_ancestor_or_self(a, a_b));
    }

    #[test]
    fn explicit_edges_beat_dot_parsing() {
        // insert_child builds structure without any string inspection, so
        // even names containing dots pair correctly.
        let mut t = PathTree::new();
        let root = Symbol::intern("root");
        let odd = Symbol::intern("odd.name.with.dots");
        t.insert_child(root, odd);
        assert_eq!(t.parent(odd), Some(root));
        assert!(t.is_ancestor_or_self(root, odd));
    }

    #[test]
    fn hier_path_structure() {
        let p = HierPath::intern("top.u.core");
        assert_eq!(p.parent(), Some(HierPath::intern("top.u")));
        assert_eq!(p.leaf(), "core");
        assert_eq!(p.depth(), 3);
        assert_eq!(p.segments().collect::<Vec<_>>(), vec!["top", "u", "core"]);
        assert_eq!(HierPath::intern("top").parent(), None);
        assert_eq!(HierPath::intern("top").leaf(), "top");
        assert_eq!(HierPath::intern("top.u").join("core"), p);
        assert_eq!(p.symbol(), Symbol::intern("top.u.core"));
    }

    #[test]
    fn hier_path_ancestry_splits_whole_segments() {
        let a = HierPath::intern("top.a");
        let ab = HierPath::intern("top.ab");
        let a_b = HierPath::intern("top.a.b");
        assert!(a.is_ancestor_of(a_b));
        assert!(a.is_ancestor_or_self(a));
        assert!(!a.is_ancestor_of(a));
        assert!(!a.is_ancestor_of(ab), "textual prefix is not an ancestor");
        assert!(!ab.is_ancestor_of(a));
        assert!(HierPath::intern("top").is_ancestor_of(ab));
    }

    #[test]
    fn tree_common_parent_walks_edges() {
        let t = PathTree::from_paths(
            [
                "top.u1.core.s0",
                "top.u1.core.s1",
                "top.u2.core.s0",
                "top.a.x",
                "top.ab.y",
            ]
            .map(Symbol::intern),
        );
        let lca = |ms: &[&str]| {
            t.common_parent(&ms.iter().map(|s| HierPath::intern(s)).collect::<Vec<_>>())
        };
        assert_eq!(lca(&[]), None);
        assert_eq!(
            lca(&["top.u1.core.s0", "top.u1.core.s1"]),
            Some(HierPath::intern("top.u1.core"))
        );
        assert_eq!(
            lca(&["top.u1.core.s0", "top.u2.core.s0"]),
            Some(HierPath::intern("top"))
        );
        // Textual-prefix siblings climb to the real dominator.
        assert_eq!(lca(&["top.a.x", "top.ab.y"]), Some(HierPath::intern("top")));
        assert_eq!(
            lca(&["top.u2.core.s0"]),
            Some(HierPath::intern("top.u2.core"))
        );
    }

    #[test]
    fn stable_hash_distinguishes_framing() {
        let mut h1 = StableHasher::new();
        h1.write_str("ab");
        h1.write_str("c");
        let mut h2 = StableHasher::new();
        h2.write_str("a");
        h2.write_str("bc");
        assert_ne!(h1.finish(), h2.finish());
        let mut h3 = StableHasher::new();
        h3.write_str("ab");
        h3.write_str("c");
        let mut h1b = StableHasher::new();
        h1b.write_str("ab");
        h1b.write_str("c");
        assert_eq!(h1b.finish(), h3.finish());
    }
}
