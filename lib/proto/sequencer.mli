(** Core-side request sequencer.

    Sits between a core model and its private cache: queues accesses, retries
    when the cache rejects them, tracks per-access latency and completion
    counts.  One sequencer per core.  The sequencer issues at most
    [max_outstanding] accesses concurrently and never issues two concurrent
    accesses to the same block (hardware cores merge those in the LSQ).

    Retry contract: when the cache rejects the head access, it stays at the
    head and the sequencer keeps at most one retry event pending.  A blocked
    head is therefore tried again every [retry_delay] cycles (default 3), and
    additionally once on every completion and every new request; rejections
    while a retry is already pending never start a second retry chain. *)

type t

val create :
  engine:Xguard_sim.Engine.t ->
  name:string ->
  port:Access.port ->
  ?max_outstanding:int ->
  ?retry_delay:int ->
  unit ->
  t

val name : t -> string

val request : t -> Access.t -> on_complete:(Data.t -> latency:int -> unit) -> unit
(** Enqueue an access.  [on_complete] fires when the access commits, with the
    observed value and the issue-to-commit latency in cycles. *)

val outstanding : t -> int
(** Accesses issued or queued but not yet complete. *)

val completed : t -> int
val latency : t -> Xguard_stats.Histogram.t
val retries : t -> int

(* ---- model-checker support (lib/check) ---- *)

val set_check_ctrl : t -> int -> unit
(** Tag this sequencer's pump/retry events with the served cache's controller
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
    order, sorted in-flight block set, pump- and retry-scheduled flags) to a
    canonical state fingerprint; stats and span bookkeeping are excluded. *)
