//! # snet-types — the S-Net record model and type system
//!
//! S-Net coordinates opaque computational components by routing typed
//! *records* through streaming networks (Grelck, Scholz & Shafarenko,
//! IPPS 2007, Section 4). This crate implements the data model and the
//! structural type theory that routing relies on:
//!
//! * [`Label`] — interned field/tag labels (`board`, `<k>`);
//! * [`Value`] — opaque field payloads from the SaC domain;
//! * [`Record`] — label/value messages: a shape plus its values,
//!   inline up to [`INLINE_SLOTS`] per half and on the heap beyond;
//!   including the record-level halves of subtype acceptance and
//!   **flow inheritance**;
//! * [`Shape`] — interned record shapes (label sets) with compiled
//!   split/inherit plans, making every per-record type operation an
//!   id-keyed lookup plus straight array copies;
//! * [`RecordType`] / [`MultiType`] — label-set types with structural
//!   subtyping (`t1 <: t2 ⟺ t2 ⊆ t1`) and best-match scoring;
//! * [`BoxSig`] / [`NetSig`] — box and network signatures, with static
//!   composition for all four combinators (serial, parallel, serial
//!   replication, indexed parallel replication) performing
//!   requirement propagation through flow inheritance.
//!
//! The execution engine lives in `snet-runtime`; the surface syntax in
//! `snet-lang`. This crate is pure data — no threads, no channels —
//! which is what makes the type-level properties property-testable.
//! Its one `unsafe` type is the record's value storage, whose every
//! block names the invariant it relies on (the lint below).

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod fxmap;
pub mod intern;
pub mod label;
pub mod record;
pub mod rtype;
pub mod shape;
pub mod sig;
pub mod value;

pub use fxmap::{FxHasher, FxMap};
pub use intern::StringInterner;
pub use label::{Label, LabelKind};
pub use record::{Record, RecordBuilder, INLINE_SLOTS};
pub use rtype::{MultiType, RecordType};
pub use shape::{InheritPlan, Shape, SplitPlan};
pub use sig::{parallel, serial, split, star, BoxSig, Mapping, NetSig, OutVariant, TypeError};
pub use value::Value;
