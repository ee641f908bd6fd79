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
//!              [+request id]─► ingress ─► net ─► egress ─┘
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
//! are woken the same way, and only if they registered. Before it
//! parks, a waiting thread that is no pool worker runs runnable tasks
//! of the service's executor, polling its handle after each
//! ([`crate::Executor::help`]). On the default pool that is usually
//! its own request: the worker its call woke yields once first, so on
//! one CPU a lone call runs on the caller's thread, with no hand-off
//! into the pool and none back (`sched/pool.rs`, *Helping*). A caller
//! with nothing left to run parks where a push of its net's tasks
//! from another thread wakes it before a worker (*Helper slots*).
//! Under a deadline the caller helps only with what fits before it,
//! and parks unadvertised. Ingress
//! overload (PR 6's bounded edges) surfaces per call through
//! [`crate::OverloadPolicy`] — park, shed, or give up after a
//! deadline.
//!
//! # Correlation: one table, addressed by the request id
//!
//! The request id is the address of the request's completion slot:
//! `rid = generation ‖ index`, index in the low 24 bits. A slot's
//! generation is bumped when a request opens on it and again when that
//! request closes — completed, faulted, abandoned (a passed deadline,
//! a dropped handle), failed at shutdown — so it is odd while a
//! request is open, and a record's id matches its slot's generation
//! exactly while *its* request is. The egress goes from the id to the
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
//! *Locks.* Two kinds, both leaves, never held together nor across
//! user code (observers, wakers). A slot's lock guards one request's
//! records and outcome. Whoever delivers to or fails that request takes
//! it, and so does its caller, to poll and to harvest: one lock at
//! delivery and one at harvest when the answer is there by the first
//! poll. The free-list lock is taken twice per request, by callers
//! only: once by the call that pops a slot, once by the harvest that
//! pushes it back. A call takes no slot lock. It stores the expected
//! record count in the slot and opens the request by bumping the
//! generation: until that bump the slot is the caller's alone, and its
//! previous request left its state clean. Whether and when a request
//! resolved is readable without any lock
//! ([`CallHandle::completed_at`]). The egress keeps the output edge
//! under a lock of its own, held across a whole drain (observers
//! included) but taken only by the thread holding the drain state:
//! nobody waits on it but the next drain, for the previous one's
//! return.
//!
//! # The correlation-word invariant
//!
//! The request id rides on the record's hidden correlation word (see
//! `snet_types::record`), which flow inheritance carries: the runtime
//! copies the word of the record a box or filter consumed onto every
//! record it emits. The invariant is:
//!
//! > **User programs can neither forge nor observe a request id.**
//!
//! It holds by construction at every surface the crates document (the
//! word's accessors are `#[doc(hidden)]`, for this module and tests):
//!
//! - **It is no label.** The word is in no record's shape or type, so
//!   no `.snet` declaration, filter, routing decision or equality test
//!   can see it. Best-match routing and det/nondet merge order are what
//!   they would be without it, and a user tag of any name — `#rid`
//!   included — is an ordinary label that flows like any other.
//! - **Box code does not see it.** A box or filter whose input type is
//!   not the record's whole type gets the matched half of the record,
//!   built afresh with a zero word. (When the two are the same, the box
//!   is handed the consumed record itself, word included; whatever it
//!   emits takes the consumed record's word anyway.)
//! - **Box code cannot set it.** Every emission takes the word of the
//!   consumed record, over whatever the emitted record carried.
//! - **The door owns both ends.** [`Service::call`] writes a fresh id
//!   over whatever word the record carried, and the egress clears the
//!   word of every record before a [`Response`] reaches the caller.
//!
//! # Failure model
//!
//! What a component failure does to callers, by failure site and the
//! net's [`crate::FaultPolicy`] (see [`crate::fault`] and the
//! failure-model notes in [`crate::sched`]):
//!
//! - **Box/filter panic, policy `SkipRecord`.** The fault is
//!   contained at the execution core and the poison record is
//!   dropped. The service
//!   subscribes to the net's fault channel: a dropped record whose
//!   word is a request id **fails exactly that request** as
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
//! [`Service::shutdown`] is the one exit: it stops intake, lets the
//! net answer everything it still can, joins every component and
//! returns a [`DrainReport`] that counts each request the service
//! resolved in the outcome its handle resolved to — completed,
//! faulted or stranded ([`CallError::ServiceStopped`]).

mod service;

pub use service::{CallError, CallHandle, CallOpts, DrainReport, Response, Service};
