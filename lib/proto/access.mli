(** Processor-side memory operations: the contract between a core model (CPU
    sequencer or accelerator core) and the private cache that serves it. *)

type op = Load | Store of Data.t

type t = { op : op; addr : Addr.t }

val load : Addr.t -> t
val store : Addr.t -> Data.t -> t
val is_store : t -> bool
val pp : Format.formatter -> t -> unit

(** What a private cache exposes upward.  [issue] returns [false] when the
    cache cannot accept the access now (MSHR full, or a transaction for the
    same block is already open) and the caller must retry later.  When accepted,
    [on_done] fires exactly once with the value read (loads) or written
    (stores), at the cycle the access commits.

    Wake contract: [watch f] registers the port's single watcher (a second
    registration raises [Invalid_argument]).  Once [issue] has returned
    [false], the cache calls [f] at least once after any later change that
    could let an access be accepted, so a rejected caller waits for [f]
    instead of polling.  [f] runs inside the cache's own handlers and must
    not re-enter the port; it should only schedule the retry. *)
type port = {
  issue : t -> on_done:(Data.t -> unit) -> bool;
  watch : (unit -> unit) -> unit;
}

(** The cache side of the wake contract, shared by the CPU-facing caches. *)
module Waker : sig
  type access := t
  type t

  val create : unit -> t

  val port : t -> (access -> on_done:(Data.t -> unit) -> bool) -> port
  (** [port w issue] is the port over [issue]: a rejection marks [w]
      blocked, and [watch] registers [w]'s watcher. *)

  val wake : t -> unit
  (** If a rejection is outstanding, clear it and call the watcher.  Caches
      call this at the end of every inbound delivery and every other state
      change that does not pass through [issue]. *)

  val blocked : t -> bool
  (** A rejection is waiting for its wake-up (model-checker fingerprints). *)
end
