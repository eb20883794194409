(* Tests for the Hammer-like MOESI host protocol: directed scenarios for the
   states and races the paper leans on (O state, broadcast + response
   counting, two-phase writebacks, Put/Fwd races, Nacks), plus the random
   stress test across seeds. *)

module Engine = Xguard_sim.Engine
module Rng = Xguard_sim.Rng
module H = Xguard_host_hammer
module Sys_b = Xguard_harness.Hammer_system
module Tester = Xguard_harness.Random_tester

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let a0 = Addr.block 0

let state_name = function
  | `I -> "I"
  | `S -> "S"
  | `E -> "E"
  | `O -> "O"
  | `M -> "M"
  | `Transient -> "T"

let check_state msg expected cache addr =
  Alcotest.(check string) msg (state_name expected) (state_name (H.L1l2.probe cache addr))

let fixed_latency = Xguard_network.Network.Ordered { latency = 5 }

let make ?(num_cpus = 2) ?(variant = H.L1l2.Xg_ready) ?(ordering = fixed_latency) ?(seed = 1)
    ?(sets = 2) ?(ways = 2) () =
  let sys = Sys_b.create ~num_cpus ~variant ~ordering ~seed ~sets ~ways () in
  Sys_b.finalize sys;
  sys

let run sys = ignore (Engine.run (Sys_b.engine sys))

let do_load sys cpu addr =
  let got = ref None in
  let port = H.L1l2.cpu_port (Sys_b.cpus sys).(cpu) in
  let accepted = port.Access.issue (Access.load addr) ~on_done:(fun v -> got := Some v) in
  check_bool "load accepted" true accepted;
  run sys;
  match !got with Some v -> v | None -> Alcotest.fail "load never completed"

let do_store sys cpu addr v =
  let done_ = ref false in
  let port = H.L1l2.cpu_port (Sys_b.cpus sys).(cpu) in
  let accepted =
    port.Access.issue (Access.store addr (Data.token v)) ~on_done:(fun _ -> done_ := true)
  in
  check_bool "store accepted" true accepted;
  run sys;
  check_bool "store completed" true !done_

let test_cold_load_grants_e () =
  let sys = make () in
  let v = do_load sys 0 a0 in
  check_int "memory value" (Data.initial a0) v;
  check_state "no sharers -> E" `E (Sys_b.cpus sys).(0) a0;
  Alcotest.(check (option int))
    "directory records owner" (Some (Node.id (H.L1l2.node (Sys_b.cpus sys).(0))))
    (Option.map Node.id (H.Directory.owner (Sys_b.directory sys) a0))

let test_second_load_shares () =
  let sys = make () in
  ignore (do_load sys 0 a0);
  ignore (do_load sys 1 a0);
  (* Owner downgrades M/E -> O on a forwarded GetS; requestor gets S. *)
  check_state "previous owner -> O" `O (Sys_b.cpus sys).(0) a0;
  check_state "requestor -> S" `S (Sys_b.cpus sys).(1) a0

let test_store_invalidates_sharers () =
  let sys = make ~num_cpus:3 () in
  ignore (do_load sys 0 a0);
  ignore (do_load sys 1 a0);
  ignore (do_load sys 2 a0);
  do_store sys 2 a0 777;
  check_state "sharer 0 invalidated" `I (Sys_b.cpus sys).(0) a0;
  check_state "sharer 1 invalidated" `I (Sys_b.cpus sys).(1) a0;
  check_state "writer -> M" `M (Sys_b.cpus sys).(2) a0;
  check_int "other cores read the new value" 777 (do_load sys 0 a0)

let test_dirty_data_forwarded_cache_to_requestor () =
  let sys = make () in
  do_store sys 0 a0 123;
  (* Memory is stale; the load must get the dirty data from the owner. *)
  check_int "dirty forward" 123 (do_load sys 1 a0);
  check_state "owner keeps O" `O (Sys_b.cpus sys).(0) a0;
  check_bool "memory still stale" true (Memory_model.read (Sys_b.memory sys) a0 <> Data.token 123)

let test_owner_store_from_o_invalidates_sharers () =
  let sys = make () in
  do_store sys 0 a0 1;
  ignore (do_load sys 1 a0);
  check_state "owner in O" `O (Sys_b.cpus sys).(0) a0;
  (* O + store: broadcast GetM from the owner (OM path). *)
  do_store sys 0 a0 2;
  check_state "back to M" `M (Sys_b.cpus sys).(0) a0;
  check_state "sharer invalidated" `I (Sys_b.cpus sys).(1) a0;
  check_int "value visible" 2 (do_load sys 1 a0)

let test_eviction_two_phase_writeback () =
  let sys = make ~sets:1 ~ways:1 () in
  do_store sys 0 a0 55;
  (* A conflicting access forces the two-phase Put / WbAck / WbData; the
     first attempt is rejected while the eviction runs, then succeeds. *)
  let port = H.L1l2.cpu_port (Sys_b.cpus sys).(0) in
  check_bool "rejected during eviction" false
    (port.Access.issue (Access.load (Addr.block 1)) ~on_done:(fun _ -> ()));
  run sys;
  ignore (do_load sys 0 (Addr.block 1));
  check_state "victim written back" `I (Sys_b.cpus sys).(0) a0;
  check_int "memory updated by writeback" 55 (Memory_model.read (Sys_b.memory sys) a0);
  check_bool "directory owner cleared" true (H.Directory.owner (Sys_b.directory sys) a0 = None);
  check_int "clean completion: no nacks" 0
    (Xguard_stats.Counter.Group.get (H.Directory.stats (Sys_b.directory sys)) "put_nacked")

let test_put_fwd_race_nacked () =
  (* Force the classic race: owner starts a writeback while another core's
     GetM is already in flight.  The forward reaches the putter first; the
     directory must Nack the Put. *)
  let sys = make ~sets:1 ~ways:1 ~num_cpus:2 () in
  do_store sys 0 a0 9;
  (* Issue the GetM from cpu1 and the eviction from cpu0 in the same cycle. *)
  let port1 = H.L1l2.cpu_port (Sys_b.cpus sys).(1) in
  let done1 = ref false in
  check_bool "getm accepted" true
    (port1.Access.issue (Access.store a0 (Data.token 10)) ~on_done:(fun _ -> done1 := true));
  (* cpu0 evicts by touching a conflicting block; first attempt starts the
     Put and rejects. *)
  let port0 = H.L1l2.cpu_port (Sys_b.cpus sys).(0) in
  ignore (port0.Access.issue (Access.load (Addr.block 1)) ~on_done:(fun _ -> ()));
  run sys;
  check_bool "competing store completed" true !done1;
  check_state "new owner in M" `M (Sys_b.cpus sys).(1) a0;
  check_state "putter invalid" `I (Sys_b.cpus sys).(0) a0;
  let nacks =
    Xguard_stats.Counter.Group.get (H.Directory.stats (Sys_b.directory sys)) "put_nacked"
  in
  let completed_wb =
    Xguard_stats.Counter.Group.get (H.L1l2.stats (Sys_b.cpus sys).(0)) "writeback_complete"
  in
  (* Either the Put was processed first (clean writeback, then re-fetch) or it
     raced and was Nacked; both must leave the system coherent. *)
  check_bool "race resolved one way or the other" true (nacks = 1 || completed_wb = 1);
  check_int "final value readable" 10 (do_load sys 0 a0)

(* A Get_s_only is the non-upgradable read the guard issues for a read-only
   page: even with no other sharer the requestor must end in S, never E.
   Through a whole Hammer + full-state guard system: the read-only block
   crosses the host as GetS_only and unblocks the directory non-exclusively,
   and the guard tracks the accelerator in S.  A writable block on another
   page of the same system is the contrast: plain GetS, granted E. *)
let test_gets_only_never_grants_exclusive () =
  let module System = Xguard_harness.System in
  let module Config = Xguard_harness.Config in
  let sys =
    System.build (Config.make Config.Hammer (Config.Xg_one_level Config.Full_state))
  in
  let ro = Addr.block 0 and rw = Addr.block Addr.blocks_per_page in
  Xguard_xg.Perm_table.set_block sys.System.perms ro Perm.Read_only;
  let wire = ref [] in
  sys.System.set_host_monitor (fun ~src:_ ~dst:_ ~addr ~text -> wire := (addr, text) :: !wire);
  let load addr =
    let got = ref false in
    check_bool "load accepted" true
      (sys.System.accel_ports.(0).Access.issue (Access.load addr) ~on_done:(fun _ ->
           got := true));
    ignore (Engine.run sys.System.engine);
    check_bool "load completed" true !got
  in
  load ro;
  load rw;
  let sent addr name =
    List.exists
      (fun (a, text) -> a = Addr.to_int addr && String.starts_with ~prefix:(name ^ " ") text)
      !wire
  in
  let core = Option.get sys.System.xg_core in
  check_bool "read-only block asks GetS_only" true (sent ro "GetS_only");
  check_bool "non-exclusive unblock" true (sent ro "Unblock");
  check_bool "no exclusive unblock" false (sent ro "Unblock(excl)");
  check_bool "accelerator holds S" true (Xguard_xg.Xg_core.accel_state core ro = `S);
  check_bool "writable block asks GetS" true (sent rw "GetS");
  check_bool "writable block unblocks exclusively" true (sent rw "Unblock(excl)");
  check_bool "accelerator holds E" true (Xguard_xg.Xg_core.accel_state core rw = `E)

let stat sys cpu name =
  Xguard_stats.Counter.Group.get (H.L1l2.stats (Sys_b.cpus sys).(cpu)) name

let test_wake_on_writeback_ack () =
  let sys = make ~sets:1 ~ways:1 () in
  do_store sys 0 a0 55;
  let port = H.L1l2.cpu_port (Sys_b.cpus sys).(0) in
  let w = Wake_probe.issue (Sys_b.engine sys) port (Access.load (Addr.block 1)) in
  check_int "rejected while the M victim writes back" 1 w.rejections;
  run sys;
  check_int "writeback completed" 1 (stat sys 0 "writeback_complete");
  check_bool "woken access completed" true w.completed

let test_wake_on_tbe_free () =
  (* A store to a block whose load is still open is rejected until the load's
     TBE is freed by the last response. *)
  let sys = make () in
  let port = H.L1l2.cpu_port (Sys_b.cpus sys).(0) in
  check_bool "load accepted" true (port.Access.issue (Access.load a0) ~on_done:ignore);
  let w = Wake_probe.issue (Sys_b.engine sys) port (Access.store a0 (Data.token 3)) in
  check_int "rejected while the load is open" 1 w.rejections;
  run sys;
  check_bool "woken store completed" true w.completed;
  check_state "store landed" `M (Sys_b.cpus sys).(0) a0

let test_silent_s_eviction_accepts () =
  (* The S victim is dropped inside [issue] with no message to announce the
     free way, so the same call must take the access instead of rejecting
     it: no later delivery would wake the port. *)
  let sys = make ~sets:1 ~ways:1 () in
  ignore (do_load sys 1 a0);
  ignore (do_load sys 0 a0);
  check_state "victim in S" `S (Sys_b.cpus sys).(0) a0;
  let port = H.L1l2.cpu_port (Sys_b.cpus sys).(0) in
  let w = Wake_probe.issue (Sys_b.engine sys) port (Access.load (Addr.block 1)) in
  check_int "accepted at once" 0 w.rejections;
  check_int "victim dropped silently" 1 (stat sys 0 "silent_s_eviction");
  run sys;
  check_bool "access completed" true w.completed

let test_second_watcher_raises () =
  let sys = make () in
  Wake_probe.second_watcher_raises (fun () -> H.L1l2.cpu_port (Sys_b.cpus sys).(0))

let test_stress_small ~variant ~num_cpus ~seed =
  let sys =
    Sys_b.create ~num_cpus ~variant
      ~ordering:(Xguard_network.Network.Unordered { min_latency = 1; max_latency = 40 })
      ~seed ~sets:1 ~ways:2 ()
  in
  Sys_b.finalize sys;
  let outcome =
    Tester.run ~engine:(Sys_b.engine sys) ~rng:(Rng.create ~seed:(seed + 99))
      ~ports:(Sys_b.cpu_ports sys)
      ~addresses:(Array.init 6 Addr.block)
      ~ops_per_core:400 ()
  in
  if outcome.Tester.data_errors > 0 then
    Alcotest.failf "seed %d: %d data errors" seed outcome.Tester.data_errors;
  if outcome.Tester.deadlocked then Alcotest.failf "seed %d: deadlock" seed;
  check_int "all ops" (400 * num_cpus) outcome.Tester.ops_completed

let test_stress_sweep () =
  for seed = 1 to 8 do
    test_stress_small ~variant:H.L1l2.Xg_ready ~num_cpus:3 ~seed
  done

let test_stress_baseline_strict () =
  (* The Baseline variant raises on any protocol anomaly; a correct system
     must never trigger it. *)
  for seed = 1 to 4 do
    test_stress_small ~variant:H.L1l2.Baseline ~num_cpus:2 ~seed
  done

let test_stress_four_cores_bigger_pool () =
  let sys =
    Sys_b.create ~num_cpus:4 ~variant:H.L1l2.Xg_ready
      ~ordering:(Xguard_network.Network.Unordered { min_latency = 1; max_latency = 25 })
      ~seed:7 ~sets:2 ~ways:2 ()
  in
  Sys_b.finalize sys;
  let outcome =
    Tester.run ~engine:(Sys_b.engine sys) ~rng:(Rng.create ~seed:123)
      ~ports:(Sys_b.cpu_ports sys)
      ~addresses:(Array.init 16 Addr.block)
      ~ops_per_core:500 ()
  in
  check_int "no data errors" 0 outcome.Tester.data_errors;
  check_bool "no deadlock" false outcome.Tester.deadlocked

let prop_stress_random_seeds =
  QCheck2.Test.make ~name:"hammer random stress (random seeds)" ~count:15
    QCheck2.Gen.(int_range 100 100_000)
    (fun seed ->
      test_stress_small ~variant:H.L1l2.Xg_ready ~num_cpus:3 ~seed;
      true)

let tests =
  [
    ( "hammer.scenarios",
      [
        Alcotest.test_case "cold load grants E" `Quick test_cold_load_grants_e;
        Alcotest.test_case "second load shares (O)" `Quick test_second_load_shares;
        Alcotest.test_case "store invalidates sharers" `Quick test_store_invalidates_sharers;
        Alcotest.test_case "dirty data cache-to-cache" `Quick
          test_dirty_data_forwarded_cache_to_requestor;
        Alcotest.test_case "O + store (OM path)" `Quick
          test_owner_store_from_o_invalidates_sharers;
        Alcotest.test_case "two-phase writeback" `Quick test_eviction_two_phase_writeback;
        Alcotest.test_case "Put/Fwd race" `Quick test_put_fwd_race_nacked;
        Alcotest.test_case "GetS_only grants S, never E" `Quick
          test_gets_only_never_grants_exclusive;
      ] );
    ( "hammer.wake",
      [
        Alcotest.test_case "writeback ack wakes" `Quick test_wake_on_writeback_ack;
        Alcotest.test_case "TBE free wakes" `Quick test_wake_on_tbe_free;
        Alcotest.test_case "silent S eviction accepts at once" `Quick
          test_silent_s_eviction_accepts;
        Alcotest.test_case "second watcher raises" `Quick test_second_watcher_raises;
      ] );
    ( "hammer.stress",
      [
        Alcotest.test_case "seed sweep" `Quick test_stress_sweep;
        Alcotest.test_case "baseline strict" `Quick test_stress_baseline_strict;
        Alcotest.test_case "4 cores, larger pool" `Quick test_stress_four_cores_bigger_pool;
        QCheck_alcotest.to_alcotest prop_stress_random_seeds;
      ] );
  ]
