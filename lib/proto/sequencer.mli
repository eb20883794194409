(** Core-side request sequencer.

    Sits between a core model and its private cache: queues accesses, retries
    them when the cache rejects them, tracks per-access latency and completion
    counts.  One sequencer per core.  The sequencer issues at most
    [max_outstanding] accesses concurrently and never issues two concurrent
    accesses to the same block (hardware cores merge those in the LSQ).

    Wake contract: [create] registers the sequencer as the port's watcher
    ({!Access.port}).  When the cache rejects the head access, it stays at
    the head and the sequencer schedules nothing: completions and new
    requests do not pump a rejected head, and the next attempt comes one
    pump event after the cache wakes the port (a delivery or flush that
    could let the access in).  A blocked sequencer therefore costs no events
    while it waits, and a cache that never wakes leaves the access queued
    with the event queue drained (a deadlock the caller can observe) rather
    than polling forever. *)

type t

val create :
  engine:Xguard_sim.Engine.t ->
  name:string ->
  port:Access.port ->
  ?max_outstanding:int ->
  unit ->
  t
(** @raise Invalid_argument if [port] already has a watcher (one sequencer
    per port). *)

val name : t -> string

val request : t -> Access.t -> on_complete:(Data.t -> latency:int -> unit) -> unit
(** Enqueue an access.  [on_complete] fires when the access commits, with the
    observed value and the issue-to-commit latency in cycles. *)

val outstanding : t -> int
(** Accesses issued or queued but not yet complete. *)

val completed : t -> int
val latency : t -> Xguard_stats.Histogram.t
val retries : t -> int
(** Rejections of the head access by the cache. *)

(* ---- model-checker support (lib/check) ---- *)

val set_check_ctrl : t -> int -> unit
(** Tag this sequencer's pump events with the served cache's controller
    id (the node the sequencer feeds), so the model checker treats them as
    conflicting with that cache's message deliveries.  Untagged sequencers
    conservatively conflict with everything. *)

val check_residue : t -> int
(** Count of stale entries lingering past the live region of the internal
    ring buffer and flight table — must be [0] for snapshot/fingerprint
    symmetry.  Exposed for the regression test of the tail-slot clear in
    [remove_flight]. *)

val check_fingerprint : t -> Buffer.t -> unit
(** Append the architecturally-visible sequencer state (queued accesses in
    order, sorted in-flight block set, pump-scheduled and rejected-head
    flags) to a canonical state fingerprint; stats and span bookkeeping are
    excluded. *)
