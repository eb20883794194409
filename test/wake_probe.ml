(* Wake-on-release probe for the cache tests: [issue] re-issues a rejected
   access only when the port calls its watcher, as a sequencer does.
   Nothing polls, so the access completes only if the cache wakes the port
   once the cause of the rejection is gone; otherwise the engine drains with
   it still pending. *)

module Engine = Xguard_sim.Engine

type t = { mutable rejections : int; mutable accepted : bool; mutable completed : bool }

let issue engine (port : Access.port) access =
  let t = { rejections = 0; accepted = false; completed = false } in
  let attempt () =
    if not t.accepted then
      if port.Access.issue access ~on_done:(fun _ -> t.completed <- true) then t.accepted <- true
      else t.rejections <- t.rejections + 1
  in
  port.Access.watch (fun () -> Engine.schedule engine ~delay:0 attempt);
  attempt ();
  t

(* A port takes one watcher: registering a second one through a fresh
   [cpu_port] of the same cache raises. *)
let second_watcher_raises cpu_port =
  (cpu_port ()).Access.watch ignore;
  Alcotest.check_raises "second watcher"
    (Invalid_argument "Access.Waker.watch: port already has a watcher") (fun () ->
      (cpu_port ()).Access.watch ignore)
