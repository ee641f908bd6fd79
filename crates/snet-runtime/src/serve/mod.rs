//! `serve` — the request/response ingress–egress layer.
//!
//! An S-Net network is a stream transformer: records in, records out,
//! no notion of *whose* records. This module adds the front door the
//! coordination paper assumes an environment provides — many
//! concurrent callers issue requests against one running net and each
//! gets exactly its own responses back:
//!
//! ```text
//!  callers ── call(rec) ──┐                       ┌── CallHandle ✓
//!                         ▼                       │
//!              [+#rid tag]─► ingress ─► net ─► egress ─► demux ──┘
//! ```
//!
//! [`Service::call`] stamps the record with a fresh request id, the
//! net transforms it, and the demux — one more component task on the
//! net's executor — routes each output record back to the issuing
//! caller's completion slot, waking callers once per batch it drains. [`CallHandle`] is
//! both a [`std::future::Future`] resolving to the [`Response`] and a
//! blocking handle ([`CallHandle::wait`] /
//! [`CallHandle::wait_deadline`]) for thread-based callers. Ingress
//! overload (PR 6's bounded edges) surfaces per call through
//! [`crate::OverloadPolicy`] — park, shed, or give up after a
//! deadline.
//!
//! # The reserved-tag invariant
//!
//! Request correlation rides on the runtime's own flow-inheritance
//! machinery — the S-Net subtyping rule that labels a component does
//! not mention are split off before its code runs and re-attached to
//! everything it emits. The request id is a tag named
//! [`RESERVED_RID`] (`"#rid"`), and the invariant is:
//!
//! > **User programs can neither forge nor observe the request-id
//! > tag.**
//!
//! It holds by construction at every surface:
//!
//! - **`.snet` source cannot name it.** The lexer's identifier
//!   alphabet is `[A-Za-z0-9_]+`; `#` is not in it, so no box
//!   signature, filter expression, type annotation or sync pattern can
//!   ever mention `#rid`. Flow inheritance therefore treats it as
//!   excess on *every* component — box functions never see it, filters
//!   pass it through, and it re-attaches to every emitted record.
//! - **Routing cannot see it.** Best-match routing scores a record by
//!   which *input-type* labels it covers (`match_score`), so an extra
//!   tag no declaration mentions never changes where a record goes —
//!   det/nondet merge order and byte-identity of outputs are
//!   unaffected.
//! - **The Rust surface rejects it.** [`Service::call`] refuses
//!   records that already carry a `#rid` label
//!   ([`CallError::ReservedTag`]), and the demux strips the tag before
//!   a [`Response`] reaches the caller. Records that arrive at the
//!   egress without a rid (or with an unknown one) are counted under
//!   `serve/stray` and dropped, never delivered to the wrong caller.
//!
//! Synchrocells merge two records into one; both carry a rid and the
//! merge keeps one record's labels, so a net whose synchrocells join
//! records from *different requests* would correlate the result to
//! whichever request's record survives. That is inherent to
//! cross-request joins (the net is declaring that two requests make
//! one response); per-request pipelines — both PR 7 service workloads,
//! and anything built from boxes, filters, splits and stars — are
//! unaffected.
//!
//! # Measurement
//!
//! [`run_open_loop`] drives a `Service` at a fixed arrival rate (open
//! loop, so queueing delay is observable) and reports
//! p50/p99/p999/max latency from an HDR-style [`hist::Histogram`]
//! plus sustained steady-state RPS — the numbers behind
//! `BENCH_PR7.json` and the default stream bound
//! ([`crate::ctx::DEFAULT_STREAM_BOUND`]).
//!
//! # Failure model
//!
//! What a component failure does to callers, by failure site and the
//! net's [`crate::FaultPolicy`] (see [`crate::fault`] and the
//! failure-model notes in [`crate::sched`]):
//!
//! - **Box/filter panic, policy `SkipRecord`/`Restart`.** The fault
//!   is contained at the execution core; if the retry budget (if any)
//!   is exhausted, the poison record is dropped. The service
//!   subscribes to the net's fault channel: a dropped record carrying
//!   a request id **fails exactly that request** as
//!   [`CallError::Faulted`]`{component, msg}` — promptly, not at the
//!   caller's deadline. Other requests are untouched: the component
//!   stays alive and keeps serving them. Responses that would need
//!   the dropped record can never arrive, so nothing leaks; any
//!   sibling records of a faulted multi-record request that do reach
//!   the egress count as stray (their slot is gone).
//! - **Box/filter panic, policy `FailNet` (default).** Today's
//!   semantics: the panic unwinds the component, end-of-stream
//!   cascades to the egress, the demux exits, and *every* open
//!   request fails with [`CallError::ServiceStopped`];
//!   [`Service::shutdown`] re-raises the panic from `join_all`.
//! - **Demux death.** The demux task is itself guarded: if it
//!   panics (`serve/demux_panics`), every open slot is failed with
//!   [`CallError::ServiceStopped`] on the way out — callers are never
//!   stranded on a slot nobody will complete. The panic is caught
//!   inside the task, so it never reaches the task boundary and does
//!   not fail the net.
//! - **Stray records.** Rid-less, late, or post-fault records are
//!   dropped and counted (`serve/stray`) *and* reported to stream
//!   observers at the `serve/stray` path, so drops are attributable.
//!
//! Containment does not disturb deterministic merging (sort records
//! never enter the guarded cores — see [`crate::sched`]), so a
//! served det net under `SkipRecord` still answers every non-faulted
//! request byte-identically to a fault-free run.
//!
//! [`Service::drain`] is the graceful exit: stop intake immediately,
//! let in-flight requests flush within a grace window, then tear
//! down — the [`DrainReport`] tallies completed / faulted / stranded.

pub mod hist;
mod loadgen;
mod service;

pub use loadgen::{run_open_loop, LoadReport, OpenLoopCfg};
pub use service::{CallError, CallHandle, CallOpts, DrainReport, Response, Service, RESERVED_RID};
