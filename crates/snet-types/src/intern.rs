//! A process-wide string interner, shared by every identifier-like
//! type that wants copyable `(id, &'static str)` handles ([`crate::Label`]
//! here; `CompPath` in `snet-runtime`).
//!
//! Interned strings are leaked: the universes being interned (label
//! names, component paths) are bounded by program structure, and
//! leaking makes the rendered `&'static str` free to hand out. Each
//! consumer owns its own `StringInterner` instance, so ids are dense
//! per namespace.

use parking_lot::RwLock;
use std::collections::HashMap;

/// Double-checked-locking intern table: read-lock fast path for known
/// strings, write-lock only on first sight.
pub struct StringInterner {
    inner: RwLock<Inner>,
}

struct Inner {
    by_text: HashMap<&'static str, u32>,
    texts: Vec<&'static str>,
}

impl StringInterner {
    #[allow(clippy::new_without_default)]
    pub fn new() -> StringInterner {
        StringInterner {
            inner: RwLock::new(Inner {
                by_text: HashMap::new(),
                texts: Vec::new(),
            }),
        }
    }

    /// Interns `text`, returning its dense id and the leaked
    /// `'static` rendering. The same text always returns the same
    /// pair (pointer-identical string).
    pub fn intern(&self, text: &str) -> (u32, &'static str) {
        {
            let r = self.inner.read();
            if let Some(&id) = r.by_text.get(text) {
                return (id, r.texts[id as usize]);
            }
        }
        let mut w = self.inner.write();
        if let Some(&id) = w.by_text.get(text) {
            return (id, w.texts[id as usize]);
        }
        let stat: &'static str = Box::leak(text.to_string().into_boxed_str());
        let id = w.texts.len() as u32;
        w.texts.push(stat);
        w.by_text.insert(stat, id);
        (id, stat)
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.inner.read().texts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.read().texts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    // Each test's interner is a `static`, as every interner of the
    // workspace is: the texts it leaks stay reachable from it, so a
    // leak checker run over these tests reports nothing.

    #[test]
    fn same_text_same_id_and_pointer() {
        static INTERNER: OnceLock<StringInterner> = OnceLock::new();
        let i = INTERNER.get_or_init(StringInterner::new);
        let (a, sa) = i.intern("hello");
        let (b, sb) = i.intern("hello");
        assert_eq!(a, b);
        assert!(std::ptr::eq(sa, sb));
        let (c, _) = i.intern("world");
        assert_ne!(a, c);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn concurrent_interning_converges() {
        static INTERNER: OnceLock<StringInterner> = OnceLock::new();
        let i = INTERNER.get_or_init(StringInterner::new);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for k in 0..200 {
                        let (_, text) = i.intern(&format!("s{}", k % 50));
                        assert!(text.starts_with('s'));
                    }
                });
            }
        });
        assert_eq!(i.len(), 50);
    }
}
