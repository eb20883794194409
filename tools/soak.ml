(* Long-running randomized soak over every configuration: the scaled-down
   equivalent of the paper's 22 compute-years of random testing.

   Two phases:
   - random:   many seeds x all 12 configs under the checked random tester;
   - recovery: fuzz runs whose fault scripts cut the XG wire in periodic
     bursts under a recovery policy — every run must stay safe (no crash, no
     wedge, all CPU ops complete) and the sweep as a whole must produce
     rejoins (the link actually cycled through quarantine -> reset ->
     probation -> promotion, it did not just stay dead).

   Usage: dune exec tools/soak.exe [seeds] [ops_per_core] [random|recovery|all] *)

module Config = Xguard_harness.Config
module System = Xguard_harness.System
module Tester = Xguard_harness.Random_tester
module Campaign = Xguard_harness.Campaign
module Fuzz = Xguard_harness.Fuzz_tester
module Network = Xguard_network.Network
module Fault = Network.Fault
module Xg = Xguard_xg

let random_soak ~seeds ~ops ~failures ~runs =
  for seed = 1 to seeds do
    List.iter
      (fun cfg ->
        incr runs;
        try
          let sys, o = Campaign.stress_system ~ops ~seed cfg in
          let viol = Xg.Os_model.error_count sys.System.os in
          if o.Tester.data_errors > 0 || o.Tester.deadlocked || viol > 0 then begin
            incr failures;
            Printf.printf "FAIL %s seed=%d errors=%d deadlock=%b viol=%d\n%!" (Config.name cfg)
              seed o.Tester.data_errors o.Tester.deadlocked viol
          end
        with e ->
          incr failures;
          Printf.printf "CRASH %s seed=%d: %s\n%!" (Config.name cfg) seed (Printexc.to_string e))
      (Config.all_configurations ())
  done

(* Kill the wire every ~500 link messages: each burst must escalate to a
   quarantine, each quarantine must reset and rejoin, and the host must never
   wedge while the link cycles. *)
let recovery_soak ~seeds ~failures ~runs ~rejoins =
  let bursts = [ 120; 600; 1100; 1600 ] in
  let recovery =
    Xg.Xg_core.make_recovery ~reset_delay:100 ~reset_timeout:32 ~reset_attempts:4
      ~probation_window:400 ~probation_rate:0.5 ~probation_burst:4
      ~probation_quarantine_after:2 ~permakill_after:16 ()
  in
  let configs =
    [
      Config.make Config.Hammer (Config.Xg_one_level Config.Transactional);
      Config.make Config.Mesi (Config.Xg_one_level Config.Full_state);
    ]
  in
  for seed = 1 to seeds do
    List.iter
      (fun base ->
        let cfg =
          {
            (Config.stress_sized { base with Config.seed }) with
            Config.link_faults = Some Fault.zero;
            link_fault_scripts =
              List.map (fun nth -> { Fault.nth; needle = None; kind = Fault.Kill }) bursts;
            link_retry_timeout = 16;
            link_max_retries = 2;
            quarantine_after = 2;
            recovery = Some recovery;
          }
        in
        incr runs;
        try
          let o = Fuzz.run cfg ~pool:Fuzz.Disjoint ~cpu_ops:100 ~chaos_duration:15_000 () in
          rejoins := !rejoins + o.Fuzz.rejoins;
          let wedged =
            o.Fuzz.deadlocked || o.Fuzz.cpu_ops_completed <> o.Fuzz.cpu_ops_expected
          in
          if o.Fuzz.crashed <> None || wedged || o.Fuzz.cpu_data_errors > 0 then begin
            incr failures;
            Printf.printf "FAIL recovery %s seed=%d crashed=%b wedged=%b errors=%d\n%!"
              (Config.name cfg) seed
              (o.Fuzz.crashed <> None)
              wedged o.Fuzz.cpu_data_errors
          end
        with e ->
          incr failures;
          Printf.printf "CRASH recovery %s seed=%d: %s\n%!" (Config.name cfg) seed
            (Printexc.to_string e))
      configs
  done

let () =
  let seeds = try int_of_string Sys.argv.(1) with _ -> 50 in
  let ops = try int_of_string Sys.argv.(2) with _ -> 150 in
  let mode = try Sys.argv.(3) with _ -> "all" in
  let failures = ref 0 and runs = ref 0 and rejoins = ref 0 in
  if mode = "all" || mode = "random" then random_soak ~seeds ~ops ~failures ~runs;
  if mode = "all" || mode = "recovery" then begin
    recovery_soak ~seeds ~failures ~runs ~rejoins;
    Printf.printf "recovery soak: %d rejoins\n%!" !rejoins;
    if !rejoins = 0 then begin
      incr failures;
      Printf.printf "FAIL recovery soak: fault bursts never produced a rejoin\n%!"
    end
  end;
  Printf.printf "soak: %d runs, %d failures\n" !runs !failures;
  if !failures > 0 then exit 1
