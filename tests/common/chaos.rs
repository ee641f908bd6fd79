//! Seeded fault injection for tests: [`Chaos::wrap`] binds a box body
//! that panics on a deterministic subset of the records it is given,
//! and [`Chaos::skip`] is that box as the oracle reads it under
//! `FaultPolicy::SkipRecord`.
//!
//! The runtime injects no faults of its own — it contains what box
//! code does — so the failure paths are exercised by making the box
//! code fail. A decision is a pure hash of the seed, the box name and
//! the record's content: every label by name with its value, in any
//! label order; an opaque value contributes its label only. There is
//! no global RNG, no time dependence and no arrival index: fusion and
//! scheduling change where a box sits and in which order (and, behind
//! an `id || id` tie, on which lane) its records arrive, never which
//! records it sees. So a run is reproducible from its seed, every
//! topology and executor drops the same records.

use snet_runtime::Emitter;
use snet_types::{Label, Record, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A seeded injector and the count of panics it has injected; clones
/// share the count.
#[derive(Clone, Debug)]
pub struct Chaos {
    seed: u64,
    /// A record is poisoned when its hash falls below this cut.
    cut: u64,
    panics: Arc<AtomicU64>,
}

impl Chaos {
    /// Poisons a `rate` share of the records each box sees.
    pub fn new(seed: u64, rate: f64) -> Chaos {
        Chaos {
            seed,
            cut: (rate.clamp(0.0, 1.0) * u64::MAX as f64) as u64,
            panics: Arc::default(),
        }
    }

    /// [`Chaos::new`] with the seed from `SNET_CHAOS_SEED` (which CI
    /// pins, so a failure replays locally), else `default`. A value
    /// that is not a `u64` panics rather than replay another seed.
    pub fn from_env(default: u64, rate: f64) -> Chaos {
        let seed = match std::env::var("SNET_CHAOS_SEED") {
            Ok(s) => s
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("SNET_CHAOS_SEED={s:?} is not a u64")),
            Err(_) => default,
        };
        Chaos::new(seed, rate)
    }

    /// Whether box `name` panics on `rec`.
    pub fn poisons(&self, name: &str, rec: &Record) -> bool {
        splitmix64(self.seed ^ fnv64(name) ^ content_hash(rec)) < self.cut
    }

    /// `body` as box `name`, panicking before it runs on a poisoned
    /// record — so a poisoned record emits nothing.
    pub fn wrap(
        &self,
        name: &str,
        body: impl Fn(&Record, &mut Emitter) + Send + Sync + 'static,
    ) -> impl Fn(&Record, &mut Emitter) + Send + Sync + 'static {
        let (chaos, name) = (self.clone(), name.to_string());
        move |rec: &Record, em: &mut Emitter| {
            if chaos.poisons(&name, rec) {
                chaos.panics.fetch_add(1, Ordering::Relaxed);
                panic!("chaos: injected panic");
            }
            body(rec, em)
        }
    }

    /// `body` as the oracle must read box `name` under [`Chaos::wrap`]
    /// and `FaultPolicy::SkipRecord`: a poisoned record emits nothing,
    /// which is what the policy makes of its panic. Counts nothing.
    pub fn skip(
        &self,
        name: &str,
        body: impl Fn(&Record, &mut Emitter) + Send + Sync + 'static,
    ) -> impl Fn(&Record, &mut Emitter) + Send + Sync + 'static {
        let (chaos, name) = (self.clone(), name.to_string());
        move |rec: &Record, em: &mut Emitter| {
            if !chaos.poisons(&name, rec) {
                body(rec, em)
            }
        }
    }

    /// Panics injected so far: one per poisoned record a box was
    /// given, which under `FaultPolicy::SkipRecord` is one skipped
    /// record.
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A record's content as one word: each label's name, kind and value
/// hashed on its own and the entries summed, so the order labels are
/// stored in (interning order) does not matter.
fn content_hash(rec: &Record) -> u64 {
    fn words(ws: impl Iterator<Item = u64>) -> u64 {
        ws.fold(0, |h, w| splitmix64(h ^ w))
    }
    fn value(v: &Value) -> u64 {
        match v {
            Value::Int(i) => *i as u64,
            Value::Double(d) => d.to_bits(),
            Value::Bool(b) => u64::from(*b),
            Value::Str(s) => fnv64(s),
            Value::IntArray(a) => words(a.data().iter().map(|&x| x as u64)),
            Value::BoolArray(a) => words(a.data().iter().map(|&x| u64::from(x))),
            Value::DoubleArray(a) => words(a.data().iter().map(|x| x.to_bits())),
            Value::Bytes(b) => words(b.iter().map(|&x| u64::from(x))),
            Value::Opaque(_) => 0,
        }
    }
    let entry = |label: Label, v: u64| {
        splitmix64(fnv64(label.name()) ^ u64::from(label.is_field()) ^ splitmix64(v))
    };
    let fields = rec.fields().map(|(l, v)| entry(l, value(v)));
    let tags = rec.tags().map(|(l, v)| entry(l, v as u64));
    fields.chain(tags).fold(0, u64::wrapping_add)
}
