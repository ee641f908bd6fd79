//! `serve` — the request/response ingress–egress layer.
//!
//! An S-Net network is a stream transformer: records in, records out,
//! no notion of *whose* records. This module adds the front door the
//! coordination paper assumes an environment provides — many
//! concurrent callers issue requests against one running net and each
//! gets exactly its own responses back:
//!
//! ```text
//!  callers ── call(rec) ──┐                             ┌── CallHandle ✓
//!                         ▼                             │
//!              [+#rid tag]─► ingress ─► net ─► egress ──┘
//!                                                 ╰ drained by the publishing send
//! ```
//!
//! [`Service::call`] stamps the record with a fresh request id, the
//! net transforms it, and the egress drain routes each output record
//! back to the issuing caller's completion slot, waking callers once
//! per batch it drains. The drain is no task: the service keeps a waker
//! of its own registered on the net's output edge, so the send that
//! publishes a response — on the thread of the net's last component —
//! runs the drain, and the caller is woken from inside that component's
//! poll. A three-state word (idle / draining / drain again) keeps one
//! drain at a time: a publish that lands mid-drain sends the running
//! drain round once more instead of starting a second one. The drain
//! spends none of the publishing task's poll budget.
//! [`CallHandle`] is a [`std::future::Future`] resolving to the
//! [`Response`]; [`CallHandle::wait`] / [`CallHandle::wait_deadline`]
//! poll it from a thread that parks in between, so threads and tasks
//! are woken the same way, and only if they registered. Ingress
//! overload (PR 6's bounded edges) surfaces per call through
//! [`crate::OverloadPolicy`] — park, shed, or give up after a
//! deadline.
//!
//! # Correlation: one table, addressed by the request id
//!
//! The request id is the address of the request's completion slot:
//! `#rid = generation ‖ index`, index in the low 24 bits. A slot's
//! generation is bumped when a request opens on it and again when that
//! request closes — completed, faulted, abandoned (a passed deadline,
//! a dropped handle), failed at shutdown — so it is odd while a
//! request is open, and a record's id matches its slot's generation
//! exactly while *its* request is. The egress goes from the tag to the
//! slot by shift and mask: no hash, no lock shared with callers; the
//! fault subscription and the shutdown sweep use the same table.
//! **A generation mismatch is the stray case**, whatever the cause —
//! the record is late, its request was abandoned or faulted, its slot
//! has been reissued since (the new owner opened under another
//! generation, so it can never receive it), or its id was never
//! issued. A stray record is dropped, counted (`serve/stray`) and shown
//! to stream observers at the `serve/stray` path: attributable, not
//! silent, and never delivered to the wrong caller.
//!
//! *Memory.* A slot belongs to its request's [`CallHandle`] until the
//! handle is harvested or dropped and is then reissued, last freed
//! first. The table grows to the peak number of live handles — what
//! the ingress bound admits plus what callers have yet to harvest —
//! in segments of doubling size that never move (8 slots at first,
//! 128 bytes each) and is reused from then on; it never shrinks.
//! Past 2^24 live handles a call is refused as `Overloaded`.
//!
//! *Locks.* Two, both leaves, never held together nor across user
//! code (observers, wakers): a slot's lock (one request's records and
//! outcome; its caller and whoever delivers to or fails it) and the
//! free-list lock (twice per request, callers only — the one lock
//! callers can contend on). Whether and when a request resolved is
//! readable without either ([`CallHandle::completed_at`]). The egress
//! keeps the output edge under a third, held across a whole drain
//! (observers included) but taken only by the thread holding the drain
//! state: nobody waits on it but the next drain, for the previous
//! one's return.
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
//!   ([`CallError::ReservedTag`]), and the egress strips the tag before
//!   a [`Response`] reaches the caller.
//!
//! Synchrocells merge two records into one; both carry a rid and the
//! merge keeps one record's labels, so a net whose synchrocells join
//! records from *different requests* would correlate the result to
//! whichever request's record survives. That is inherent to
//! cross-request joins (the net is declaring that two requests make
//! one response); per-request pipelines — Fig. 1 and the sensor-fusion
//! net, and anything built from boxes, filters, splits and stars — are
//! unaffected.
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
//!   the egress count as stray (their generation is over).
//! - **Box/filter panic, policy `FailNet` (default).** Today's
//!   semantics: the panic unwinds the component, end-of-stream
//!   cascades to the egress, the drain that sees it ends, and *every*
//!   open request fails with [`CallError::ServiceStopped`];
//!   [`Service::shutdown`] re-raises the panic from `join_all`.
//! - **Drain death.** The egress drain is itself guarded: if it
//!   panics (a stream observer of `serve/stray`, say), the panic is
//!   counted (`serve/demux_panics`, the name of the task the drain
//!   replaced), every open request is failed with
//!   [`CallError::ServiceStopped`] and the output edge is dropped, so
//!   the net winds down. The panic is caught on the thread whose send
//!   ran the drain, so it neither fails that component nor the net.
//!
//! Containment does not disturb deterministic merging (sort records
//! never enter the guarded cores — see [`crate::sched`]), so a
//! served det net under `SkipRecord` still answers every non-faulted
//! request byte-identically to a fault-free run.
//!
//! [`Service::drain`] is the graceful exit: stop intake immediately,
//! let in-flight requests flush within a grace window, then tear
//! down — the [`DrainReport`] tallies completed / faulted / stranded.

mod service;

pub use service::{CallError, CallHandle, CallOpts, DrainReport, Response, Service, RESERVED_RID};
