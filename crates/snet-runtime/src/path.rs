//! Interned component paths.
//!
//! Every running component is named by a slash-separated path such as
//! `net/star/stage3/split/branch2/box:solveOneLevel`. Before this
//! module existed, components carried their path as an owned `String`
//! and *rebuilt derived strings per record* (`format!("{path}/...")`
//! for every metrics key) — a heap allocation on the hottest path of
//! the runtime. A [`CompPath`] is instead interned process-wide,
//! exactly like [`snet_types::Label`]: construction renders the path
//! string once, leaks it to `&'static str`, and hands out a copyable
//! `(id, &'static str)` pair. Component spawn sites build their path
//! once at instantiation time; per-record code only ever copies the
//! handle or borrows the pre-rendered string.
//!
//! Leaking is bounded for the same reason label leaking is: the path
//! universe of a coordination program is fixed by its structure (the
//! paper's bounds — at most 81 pipeline replicas, at most 9 × 81
//! boxes — are bounds on the path universe too), and repeated network
//! instantiations reuse identical path strings, which the interner
//! dedups to the same entry.
//!
//! One caveat: indexed-replicator branch paths embed the routing tag
//! *value* (`.../branch{v}`), so their count is bounded by the tag
//! domain, not the program text. The bound is the program's own: a
//! throttle filter in front of the replicator (Figure 3's
//! `[{<k>} -> {<k>=<k>%4}]`, see [`crate::split`]) folds the domain
//! into a few values, and every workload in this repo writes one. A
//! long-running service splitting on an unthrottled tag (e.g. a
//! session id) grows the interner without reclaim — see ROADMAP "Open
//! items" for the reclaimable-interner follow-on.
//!
//! # The child cache
//!
//! Replicas unfold on demand, and each one derives the paths of its
//! guard, lanes, boxes and filters. Rendering `"{parent}/{segment}"`
//! and hashing the whole text through the interner would be the cost
//! of every one of those, though after the first build of a net every
//! path it derives already exists. So a child is looked up by
//! `(parent id, segment)` first: a segment is a [`Name`] (an interned
//! id, `guard`, `box:solve`) or an index (`stage{d}`, `branch{k}`),
//! and the key is ids and integers only. The text is rendered, and
//! interned, only on a cache miss. The cache holds one
//! entry per spelling of an interned child — its last segment as a
//! name, and as an index when it is one — so it is bounded by the same
//! path universe as the interner, and leaks with it.

use parking_lot::RwLock;
use snet_types::{FxMap, StringInterner};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

/// An interned component path: cheap to copy, compare and hash; the
/// rendered string is available for free via [`CompPath::as_str`].
/// Equality and hashing look at the id alone: the interner gives one
/// id per text.
#[derive(Clone, Copy)]
pub struct CompPath {
    id: u32,
    text: &'static str,
}

fn interner() -> &'static StringInterner {
    static INTERNER: OnceLock<StringInterner> = OnceLock::new();
    INTERNER.get_or_init(StringInterner::new)
}

fn intern(text: &str) -> CompPath {
    let (id, text) = interner().intern(text);
    CompPath { id, text }
}

/// Number of distinct component paths interned so far, process-wide.
/// This is the observable for the known unbounded-tag-domain growth
/// mode (see module docs): every network records it as the
/// `runtime/interner_paths` gauge, so a service splitting on an
/// unthrottled tag sees the leak in its metrics long before it
/// matters, and one whose split is behind a throttle filter sees it
/// plateau.
pub fn interned_paths() -> usize {
    interner().len()
}

/// An interned path segment or metric name (`guard`, `box:solve`,
/// `records_in`), from an interner of its own: the child cache and the
/// metrics registry key on its id, never on its text. Resolve a
/// constant once per call site with [`name!`].
#[derive(Clone, Copy)]
pub struct Name {
    id: u32,
    text: &'static str,
}

impl Name {
    pub fn new(text: &str) -> Name {
        static NAMES: OnceLock<StringInterner> = OnceLock::new();
        let (id, text) = NAMES.get_or_init(StringInterner::new).intern(text);
        Name { id, text }
    }

    pub fn as_str(&self) -> &'static str {
        self.text
    }
}

/// The [`Name`] of a constant text, interned on the first call at
/// each call site.
macro_rules! name {
    ($text:expr) => {{
        static NAME: std::sync::OnceLock<$crate::path::Name> = std::sync::OnceLock::new();
        *NAME.get_or_init(|| $crate::path::Name::new($text))
    }};
}
pub(crate) use name;

/// One child segment, as the child cache keys it. An indexed segment
/// renders exactly as `format!("stage{d}")` (`branch{k}`) does, and
/// only on a cache miss.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Seg {
    /// A name with no `/` in it.
    Name(Name),
    /// `stage{d}`: a star's replica.
    Stage(usize),
    /// `branch{k}`: an indexed split's replica for tag value `k`.
    Branch(i64),
}

impl Seg {
    fn render(self, parent: &str) -> String {
        match self {
            Seg::Name(n) => format!("{parent}/{}", n.text),
            Seg::Stage(d) => format!("{parent}/stage{d}"),
            Seg::Branch(k) => format!("{parent}/branch{k}"),
        }
    }
}

impl From<Name> for Seg {
    fn from(n: Name) -> Seg {
        Seg::Name(n)
    }
}

/// The `(parent id, segment)` → child cache (module docs, *The child
/// cache*).
fn children() -> &'static RwLock<FxMap<(u32, Seg), CompPath>> {
    static CHILDREN: OnceLock<RwLock<FxMap<(u32, Seg), CompPath>>> = OnceLock::new();
    CHILDREN.get_or_init(Default::default)
}

impl CompPath {
    /// Interns a root path, e.g. `net`.
    pub fn root(name: &str) -> CompPath {
        intern(name)
    }

    /// Interns the child path `self/segment`. Called at component
    /// spawn time only — never per record. The segment's text is
    /// hashed to find its [`Name`]; the runtime's own spawn sites pass
    /// resolved segments to [`CompPath::child_at`] instead. A segment
    /// with a `/` in it skips the child cache.
    pub fn child(&self, segment: &str) -> CompPath {
        if segment.contains('/') {
            return intern(&format!("{}/{segment}", self.text));
        }
        self.child_at(Name::new(segment))
    }

    /// The child path at `seg`, through the child cache: ids and
    /// integers are all it hashes, unless the child is new to it.
    pub(crate) fn child_at(&self, seg: impl Into<Seg>) -> CompPath {
        let key = (self.id, seg.into());
        if let Some(&child) = children().read().get(&key) {
            return child;
        }
        let child = intern(&key.1.render(self.text));
        children().write().insert(key, child);
        child
    }

    /// Descends a run of child segments — the one definition of how a
    /// recorded path suffix (the stages of a run; see [`crate::plan`])
    /// maps onto a stage's path, in the fused and the unfused topology
    /// alike, so the two cannot diverge.
    pub(crate) fn descend(&self, suffix: &[Name]) -> CompPath {
        suffix.iter().fold(*self, |p, &seg| p.child_at(seg))
    }

    /// The rendered path, without allocating.
    pub fn as_str(&self) -> &'static str {
        self.text
    }

    /// The interner id (stable for the process lifetime).
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl PartialEq for CompPath {
    fn eq(&self, other: &CompPath) -> bool {
        self.id == other.id
    }
}

impl Eq for CompPath {}

impl Hash for CompPath {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.id == other.id
    }
}

impl Eq for Name {}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.text == *other
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text)
    }
}

impl From<&str> for CompPath {
    fn from(s: &str) -> CompPath {
        CompPath::root(s)
    }
}

impl fmt::Display for CompPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text)
    }
}

impl fmt::Debug for CompPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_text_same_id() {
        let a = CompPath::root("net").child("s0").child("box:solve");
        let b = CompPath::root("net/s0").child("box:solve");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.as_str(), "net/s0/box:solve");
        // Pointer-identical static strings, not just equal contents.
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
    }

    #[test]
    fn distinct_paths_distinct_ids() {
        let a = CompPath::root("net").child("L");
        let b = CompPath::root("net").child("R");
        assert_ne!(a, b);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn indexed_children_render_as_format_does() {
        let p = CompPath::root("idx");
        for k in [0, 7, -3, i64::MAX, i64::MIN] {
            assert_eq!(p.child_at(Seg::Branch(k)), p.child(&format!("branch{k}")));
        }
        assert_eq!(p.child_at(Seg::Stage(12)).as_str(), "idx/stage12");
        // A cache hit is the same interned path.
        let a = p.child_at(Seg::Branch(-3));
        assert!(std::ptr::eq(
            a.as_str(),
            p.child_at(Seg::Branch(-3)).as_str()
        ));
    }

    #[test]
    fn a_segment_with_a_slash_is_two_children() {
        let a = CompPath::root("sl").child("a/b");
        assert_eq!(a, CompPath::root("sl").child("a").child_at(name!("b")));
        assert_eq!(a.as_str(), "sl/a/b");
    }

    #[test]
    fn from_str_is_root_intern() {
        let p: CompPath = "net".into();
        assert_eq!(p, CompPath::root("net"));
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..200 {
                        let p = CompPath::root("cc").child(&format!("stage{}", i % 40));
                        assert!(p.as_str().starts_with("cc/stage"));
                    }
                });
            }
        });
        let a = CompPath::root("cc").child("stage7");
        let b = CompPath::root("cc/stage7");
        assert_eq!(a.id(), b.id());
    }
}
