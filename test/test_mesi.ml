(* Tests for the inclusive MESI two-level host protocol: directed scenarios
   for the states and races the paper counts (six L1 transients, ack counting
   told by the L2, cache-to-cache forwards, back-invalidation), plus random
   stress across seeds. *)

module Engine = Xguard_sim.Engine
module Rng = Xguard_sim.Rng
module M = Xguard_host_mesi
module Sys_b = Xguard_harness.Mesi_system
module Tester = Xguard_harness.Random_tester

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let a0 = Addr.block 0

let state_name = function `I -> "I" | `S -> "S" | `E -> "E" | `M -> "M" | `Transient -> "T"

let check_state msg expected cache addr =
  Alcotest.(check string) msg (state_name expected) (state_name (M.L1.probe cache addr))

let fixed = Xguard_network.Network.Ordered { latency = 5 }

let make ?(num_cpus = 2) ?(variant = M.L2.Xg_ready) ?(ordering = fixed) ?(seed = 1)
    ?(l1_sets = 2) ?(l1_ways = 2) ?(l2_sets = 4) ?(l2_ways = 4) () =
  Sys_b.create ~num_cpus ~variant ~ordering ~seed ~l1_sets ~l1_ways ~l2_sets ~l2_ways ()

let run sys = ignore (Engine.run (Sys_b.engine sys))

let do_load sys cpu addr =
  let got = ref None in
  let port = M.L1.cpu_port (Sys_b.cpus sys).(cpu) in
  let accepted = port.Access.issue (Access.load addr) ~on_done:(fun v -> got := Some v) in
  check_bool "load accepted" true accepted;
  run sys;
  match !got with Some v -> v | None -> Alcotest.fail "load never completed"

let do_store sys cpu addr v =
  let done_ = ref false in
  let port = M.L1.cpu_port (Sys_b.cpus sys).(cpu) in
  check_bool "store accepted" true
    (port.Access.issue (Access.store addr (Data.token v)) ~on_done:(fun _ -> done_ := true));
  run sys;
  check_bool "store completed" true !done_

let test_cold_load_grants_e () =
  let sys = make () in
  check_int "memory value" (Data.initial a0) (do_load sys 0 a0);
  check_state "exclusive grant on cold read" `E (Sys_b.cpus sys).(0) a0;
  match M.L2.probe (Sys_b.l2 sys) a0 with
  | `Owned n -> Alcotest.(check string) "L2 records owner" "cpu0" (Node.name n)
  | _ -> Alcotest.fail "L2 should record an owner"

let test_read_sharing_via_owner_forward () =
  let sys = make () in
  do_store sys 0 a0 42;
  check_state "writer in M" `M (Sys_b.cpus sys).(0) a0;
  (* Second reader: L2 forwards to the owner, who sends data directly and
     copies back; both end shared. *)
  check_int "dirty data forwarded L1-to-L1" 42 (do_load sys 1 a0);
  check_state "old owner demoted to S" `S (Sys_b.cpus sys).(0) a0;
  check_state "reader in S" `S (Sys_b.cpus sys).(1) a0;
  (match M.L2.probe (Sys_b.l2 sys) a0 with
  | `Sharers 2 -> ()
  | _ -> Alcotest.fail "L2 should record two sharers");
  check_bool "copyback made L2 dirty, memory stale" true
    (Memory_model.read (Sys_b.memory sys) a0 <> Data.token 42)

let test_store_counts_sharer_acks () =
  let sys = make ~num_cpus:3 () in
  ignore (do_load sys 0 a0);
  ignore (do_load sys 1 a0);
  ignore (do_load sys 2 a0);
  (* Upgrade from S: the L2 tells cpu2 to expect 2 acks, sharers ack the
     requestor directly. *)
  do_store sys 2 a0 7;
  check_state "sharer 0 invalidated" `I (Sys_b.cpus sys).(0) a0;
  check_state "sharer 1 invalidated" `I (Sys_b.cpus sys).(1) a0;
  check_state "upgrader in M" `M (Sys_b.cpus sys).(2) a0;
  check_int "new value visible everywhere" 7 (do_load sys 0 a0)

let test_getm_forwarded_to_owner () =
  let sys = make () in
  do_store sys 0 a0 1;
  do_store sys 1 a0 2;
  check_state "previous owner invalid" `I (Sys_b.cpus sys).(0) a0;
  check_state "new owner in M" `M (Sys_b.cpus sys).(1) a0;
  check_int "chained ownership readable" 2 (do_load sys 0 a0)

let test_l1_eviction_putm () =
  let sys = make ~l1_sets:1 ~l1_ways:1 () in
  do_store sys 0 a0 9;
  let port = M.L1.cpu_port (Sys_b.cpus sys).(0) in
  check_bool "rejected during eviction" false
    (port.Access.issue (Access.load (Addr.block 1)) ~on_done:(fun _ -> ()));
  run sys;
  check_state "victim gone" `I (Sys_b.cpus sys).(0) a0;
  ignore (do_load sys 0 (Addr.block 1));
  (* The dirty data now lives at the L2 (inclusive), not yet in memory. *)
  (match M.L2.probe (Sys_b.l2 sys) a0 with
  | `No_l1 -> ()
  | _ -> Alcotest.fail "L2 should hold the block with no L1 copies");
  check_int "read back through L2" 9 (do_load sys 1 a0)

let test_l1_puts_tracked () =
  let sys = make ~l1_sets:1 ~l1_ways:1 () in
  ignore (do_load sys 0 a0);
  ignore (do_load sys 1 a0);
  (* cpu0 evicts its S copy: explicit PutS, exact sharer tracking shrinks. *)
  let port = M.L1.cpu_port (Sys_b.cpus sys).(0) in
  ignore (port.Access.issue (Access.load (Addr.block 1)) ~on_done:(fun _ -> ()));
  run sys;
  (match M.L2.probe (Sys_b.l2 sys) a0 with
  | `Sharers 1 -> ()
  | `Owned _ | `Sharers _ | `No_l1 | `Absent -> Alcotest.fail "expected exactly one sharer")

let test_wake_on_writeback_ack () =
  let sys = make ~l1_sets:1 ~l1_ways:1 () in
  do_store sys 0 a0 9;
  let port = M.L1.cpu_port (Sys_b.cpus sys).(0) in
  let w = Wake_probe.issue (Sys_b.engine sys) port (Access.load (Addr.block 1)) in
  check_int "rejected while the PutM is open" 1 w.rejections;
  run sys;
  check_int "writeback completed" 1
    (Xguard_stats.Counter.Group.get (M.L1.stats (Sys_b.cpus sys).(0)) "writeback_complete");
  check_bool "woken access completed" true w.completed

let test_wake_on_tbe_free () =
  let sys = make () in
  let port = M.L1.cpu_port (Sys_b.cpus sys).(0) in
  check_bool "load accepted" true (port.Access.issue (Access.load a0) ~on_done:ignore);
  let w = Wake_probe.issue (Sys_b.engine sys) port (Access.store a0 (Data.token 3)) in
  check_int "rejected while the load is open" 1 w.rejections;
  run sys;
  check_bool "woken store completed" true w.completed;
  check_state "store landed" `M (Sys_b.cpus sys).(0) a0

let test_second_watcher_raises () =
  let sys = make () in
  Wake_probe.second_watcher_raises (fun () -> M.L1.cpu_port (Sys_b.cpus sys).(0))

let test_l2_replacement_back_invalidates () =
  (* A tiny L2 forces replacement of a line whose owner is an L1: the L2 must
     recall it (inclusivity) and write dirty data to memory. *)
  let sys = make ~l2_sets:1 ~l2_ways:2 ~l1_sets:4 ~l1_ways:4 () in
  do_store sys 0 a0 11;
  ignore (do_load sys 0 (Addr.block 1));
  (* Third distinct block: L2 set overflows, recalling one of the first two. *)
  ignore (do_load sys 1 (Addr.block 2));
  run sys;
  check_int "recalled dirty data reached memory" 11 (Memory_model.read (Sys_b.memory sys) a0);
  check_state "owner back-invalidated" `I (Sys_b.cpus sys).(0) a0

let test_stress_small ~variant ~num_cpus ~seed =
  let sys =
    Sys_b.create ~num_cpus ~variant
      ~ordering:(Xguard_network.Network.Unordered { min_latency = 1; max_latency = 40 })
      ~seed ~l1_sets:1 ~l1_ways:2 ~l2_sets:2 ~l2_ways:2 ()
  in
  let outcome =
    Tester.run ~engine:(Sys_b.engine sys) ~rng:(Rng.create ~seed:(seed + 77))
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
    test_stress_small ~variant:M.L2.Xg_ready ~num_cpus:3 ~seed
  done

let test_stress_baseline_strict () =
  for seed = 1 to 4 do
    test_stress_small ~variant:M.L2.Baseline ~num_cpus:2 ~seed
  done

let test_stress_tiny_l2_heavy_recall () =
  (* L2 smaller than the L1 working set: constant back-invalidation. *)
  let sys =
    Sys_b.create ~num_cpus:3 ~variant:M.L2.Xg_ready
      ~ordering:(Xguard_network.Network.Unordered { min_latency = 1; max_latency = 30 })
      ~seed:5 ~l1_sets:2 ~l1_ways:2 ~l2_sets:1 ~l2_ways:2 ()
  in
  let outcome =
    Tester.run ~engine:(Sys_b.engine sys) ~rng:(Rng.create ~seed:55)
      ~ports:(Sys_b.cpu_ports sys)
      ~addresses:(Array.init 8 Addr.block)
      ~ops_per_core:300 ()
  in
  check_int "no data errors" 0 outcome.Tester.data_errors;
  check_bool "no deadlock" false outcome.Tester.deadlocked;
  check_bool "recalls actually happened" true
    (Xguard_stats.Counter.Group.get (M.L2.stats (Sys_b.l2 sys)) "l2_eviction" > 0)

let prop_stress_random_seeds =
  QCheck2.Test.make ~name:"mesi random stress (random seeds)" ~count:15
    QCheck2.Gen.(int_range 100 100_000)
    (fun seed ->
      test_stress_small ~variant:M.L2.Xg_ready ~num_cpus:3 ~seed;
      true)

let tests =
  [
    ( "mesi.scenarios",
      [
        Alcotest.test_case "cold load grants E" `Quick test_cold_load_grants_e;
        Alcotest.test_case "read sharing via owner fwd" `Quick
          test_read_sharing_via_owner_forward;
        Alcotest.test_case "store counts sharer acks" `Quick test_store_counts_sharer_acks;
        Alcotest.test_case "GetM forwarded to owner" `Quick test_getm_forwarded_to_owner;
        Alcotest.test_case "L1 eviction (PutM)" `Quick test_l1_eviction_putm;
        Alcotest.test_case "PutS shrinks sharers" `Quick test_l1_puts_tracked;
        Alcotest.test_case "L2 replacement back-invalidates" `Quick
          test_l2_replacement_back_invalidates;
      ] );
    ( "mesi.wake",
      [
        Alcotest.test_case "writeback ack wakes" `Quick test_wake_on_writeback_ack;
        Alcotest.test_case "TBE free wakes" `Quick test_wake_on_tbe_free;
        Alcotest.test_case "second watcher raises" `Quick test_second_watcher_raises;
      ] );
    ( "mesi.stress",
      [
        Alcotest.test_case "seed sweep" `Quick test_stress_sweep;
        Alcotest.test_case "baseline strict" `Quick test_stress_baseline_strict;
        Alcotest.test_case "tiny L2, heavy recall" `Quick test_stress_tiny_l2_heavy_recall;
        QCheck_alcotest.to_alcotest prop_stress_random_seeds;
      ] );
  ]
