(* Safety tests: the guarantee list of Figure 1 enforced scenario by scenario
   (F1), and fuzzing with a pathological accelerator (E2 / §4): never a crash,
   never a deadlock, CPU data always coherent. *)

module Engine = Xguard_sim.Engine
module Xg = Xguard_xg
module Config = Xguard_harness.Config
module Fault = Xguard_harness.Fault_scenarios
module Fuzz = Xguard_harness.Fuzz_tester
module System = Xguard_harness.System
module Tester = Xguard_harness.Random_tester

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let xg_configs = List.filter Config.uses_xg (Config.all_configurations ())

(* Which scenarios each XG mode is expected to *detect*.  Transactional mode
   cannot check stable-state consistency (G1a) or response-type consistency
   (G2a) — the paper's §2.3.2 relies on the host tolerating those instead. *)
let detectable cfg scenario =
  let full_state =
    match cfg.Config.org with
    | Config.Xg_one_level Config.Full_state | Config.Xg_two_level Config.Full_state -> true
    | _ -> false
  in
  match scenario with
  | Fault.Put_without_block | Fault.Wrong_response_type -> full_state
  | Fault.Read_no_access | Fault.Write_read_only | Fault.Double_get
  | Fault.Unsolicited_response | Fault.Silent_on_invalidate | Fault.Link_dead
  | Fault.Recovery_rejoin | Fault.Repeated_quarantine_permakill | Fault.Tarpit_budget ->
      true

let test_guarantees_per_config () =
  List.iter
    (fun cfg ->
      List.iter
        (fun scenario ->
          let outcome =
            try Fault.run cfg scenario
            with e ->
              Alcotest.failf "%s / %s raised %s" (Config.name cfg)
                (Fault.scenario_name scenario) (Printexc.to_string e)
          in
          let label = Config.name cfg ^ " / " ^ Fault.scenario_name scenario in
          check_bool (label ^ ": host stays live") true outcome.Fault.host_live;
          if detectable cfg scenario then
            check_bool (label ^ ": violation detected") true outcome.Fault.detected)
        Fault.all_scenarios)
    xg_configs

let test_wrong_response_corrected_full_state () =
  (* Full-State: the InvAck-from-owner is corrected to a zero writeback and
     reported (paper §2.2, Guarantee 2a example). *)
  List.iter
    (fun host ->
      let cfg = Config.make host (Config.Xg_one_level Config.Full_state) in
      let outcome = Fault.run cfg Fault.Wrong_response_type in
      check_bool "detected" true outcome.Fault.detected;
      check_bool "host live" true outcome.Fault.host_live)
    [ Config.Hammer; Config.Mesi ]

let test_timeout_answers_for_accel () =
  List.iter
    (fun cfg ->
      let outcome = Fault.run cfg Fault.Silent_on_invalidate in
      let label = Config.name cfg in
      check_bool (label ^ ": timeout detected") true outcome.Fault.detected;
      check_bool (label ^ ": host survived the silence") true outcome.Fault.host_live)
    xg_configs

let fuzz_one ?(pool = Fuzz.Shared_rw) cfg =
  let outcome = Fuzz.run cfg ~pool () in
  let label = Config.name cfg in
  (match outcome.Fuzz.crashed with
  | Some c -> Alcotest.failf "%s: fuzz crashed the host: %s" label c.Fuzz.exn_text
  | None -> ());
  check_bool (label ^ ": no deadlock under fuzzing") false outcome.Fuzz.deadlocked;
  check_int (label ^ ": all CPU ops complete") outcome.Fuzz.cpu_ops_expected
    outcome.Fuzz.cpu_ops_completed;
  (* Data on blocks the fuzzer cannot legitimately write must stay exact;
     on a shared writable pool the fuzzer owns blocks legally and garbage is
     expected (Guarantee 2 does not cover it). *)
  (match pool with
  | Fuzz.Disjoint | Fuzz.Shared_ro ->
      check_int (label ^ ": CPU data intact") 0 outcome.Fuzz.cpu_data_errors
  | Fuzz.Shared_rw -> ());
  check_bool (label ^ ": the chaos was real") true (outcome.Fuzz.chaos_messages > 1000);
  check_bool (label ^ ": violations were reported to the OS") true (outcome.Fuzz.violations > 0)

let test_fuzz_all_xg_configs () = List.iter fuzz_one xg_configs

let test_fuzz_disjoint_pool_data_intact () =
  List.iter (fuzz_one ~pool:Fuzz.Disjoint) xg_configs

let test_fuzz_read_only_pool_data_intact () =
  (* Guarantee 0b at work: a read-only accelerator cannot corrupt CPU data
     even while misbehaving on the very same blocks. *)
  List.iter (fuzz_one ~pool:Fuzz.Shared_ro) xg_configs

let test_fuzz_never_responding_accel () =
  (* The cruellest accelerator: absorbs every Invalidate silently. *)
  List.iter
    (fun host ->
      List.iter
        (fun variant ->
          let cfg = Config.make host (Config.Xg_one_level variant) in
          let cfg = { cfg with Config.xg_timeout = 500 } in
          let outcome = Fuzz.run cfg ~pool:Fuzz.Disjoint ~respond_probability:0.0 () in
          let label = Config.name cfg ^ " (mute)" in
          (match outcome.Fuzz.crashed with
          | Some c -> Alcotest.failf "%s crashed: %s" label c.Fuzz.exn_text
          | None -> ());
          check_bool (label ^ ": no deadlock") false outcome.Fuzz.deadlocked;
          check_bool (label ^ ": timeouts fired") true
            (List.mem_assoc Xg.Os_model.Response_timeout outcome.Fuzz.violations_by_kind
            || outcome.Fuzz.invalidations_ignored = 0))
        [ Config.Full_state; Config.Transactional ])
    [ Config.Hammer; Config.Mesi ]

(* A wedged run must end by draining the event queue, not by spinning to
   the random tester's 50M-event watchdog: blocked sequencers wait for their
   caches to wake them and schedule nothing meanwhile.  The A1 ablation's
   unordered guard link deadlocks some of these runs. *)
let test_deadlock_drains () =
  let deadlocks = ref 0 in
  for seed = 1 to 3 do
    let base = { Config.default with Config.seed; Config.link_ordered = false } in
    let cfg =
      Config.stress_sized (Config.make ~base Config.Hammer (Config.Xg_one_level Config.Full_state))
    in
    let sys = System.build cfg in
    let o =
      Tester.run ~engine:sys.System.engine ~rng:(Xguard_sim.Rng.create ~seed:(seed * 7 + 1))
        ~ports:(Array.append sys.System.cpu_ports sys.System.accel_ports)
        ~addresses:(Array.init 6 Addr.block) ~ops_per_core:300 ()
    in
    if o.Tester.deadlocked then incr deadlocks;
    let events = Engine.events_fired sys.System.engine in
    check_bool
      (Printf.sprintf "seed %d: %d events, well below the watchdog" seed events)
      true (events < 1_000_000)
  done;
  check_bool "the unordered link deadlocks some run" true (!deadlocks > 0)

let prop_fuzz_random_seeds =
  QCheck2.Test.make ~name:"fuzzing never crashes or deadlocks the host" ~count:10
    QCheck2.Gen.(pair (int_range 1 100_000) (int_range 0 7))
    (fun (seed, idx) ->
      let cfg = List.nth xg_configs idx in
      let cfg = { cfg with Config.seed } in
      let outcome = Fuzz.run cfg ~pool:Fuzz.Disjoint ~cpu_ops:150 () in
      outcome.Fuzz.crashed = None
      && (not outcome.Fuzz.deadlocked)
      && outcome.Fuzz.cpu_data_errors = 0)

let test_link_dead_quarantine () =
  (* The acceptance shape of the recovery layer: kill the wire mid-transaction
     in every XG config; the guard must escalate to quarantine and the host
     must stay fully live. *)
  List.iter
    (fun cfg ->
      let outcome = Fault.run cfg Fault.Link_dead in
      let label = Config.name cfg ^ " / link-dead" in
      check_bool (label ^ ": link faults reported") true outcome.Fault.detected;
      check_bool (label ^ ": accelerator quarantined") true outcome.Fault.quarantined;
      check_bool (label ^ ": OS model saw the quarantine report") true
        outcome.Fault.os_quarantined;
      check_bool (label ^ ": host stays live") true outcome.Fault.host_live;
      check_bool
        (label ^ ": link coverage present")
        true
        (List.exists (fun (n, _, _) -> n = "xg.link") outcome.Fault.coverage_sets))
    xg_configs

let test_topology_quarantine_isolation () =
  (* The multi-guard isolation claim (same measurement as experiment E9b): in
     an N=3 mixed cached/uncached topology, guard a0's device owns a block
     when its link goes dark; the guard escalates to quarantine, and the
     neighbors' stress throughput must stay within 5% of the run where a0 is
     healthy — a misbehaving accelerator cannot wedge or starve its
     neighbors. *)
  let iso = Xguard_harness.Experiments.measure_isolation ~ops:120 () in
  let module E = Xguard_harness.Experiments in
  check_bool "victim guard quarantined" true iso.E.iso_quarantined;
  check_bool "neither run deadlocks" false iso.E.iso_deadlocked;
  check_int "no data errors in either run" 0 iso.E.iso_data_errors;
  check_bool "neighbor devices make progress" true (iso.E.iso_neighbor_ops = 2 * 120);
  check_bool
    (Printf.sprintf "neighbor throughput within 5%% of baseline (slowdown %.3f)"
       iso.E.iso_slowdown)
    true (iso.E.iso_slowdown <= 1.05)

let recovery_configs =
  [
    Config.make Config.Hammer (Config.Xg_one_level Config.Full_state);
    Config.make Config.Mesi (Config.Xg_one_level Config.Transactional);
  ]

let test_recovery_rejoin () =
  (* The full lifecycle: dark wire → quarantine → link reset → probation →
     promotion.  The accelerator must transact again and the host must never
     have stalled. *)
  List.iter
    (fun cfg ->
      let o = Fault.run cfg Fault.Recovery_rejoin in
      let label = Config.name cfg ^ " / rejoin" in
      check_bool (label ^ ": link faults reported") true o.Fault.detected;
      check_bool (label ^ ": exactly one rejoin") true (o.Fault.rejoins = 1);
      check_bool (label ^ ": not permakilled") false o.Fault.permakilled;
      check_bool (label ^ ": accelerator transacts after rejoin") true
        o.Fault.accel_live_after;
      check_bool (label ^ ": host stays live") true o.Fault.host_live)
    recovery_configs

let test_repeated_quarantine_permakill () =
  List.iter
    (fun cfg ->
      let o = Fault.run cfg Fault.Repeated_quarantine_permakill in
      let label = Config.name cfg ^ " / permakill" in
      check_bool (label ^ ": permanently killed") true o.Fault.permakilled;
      check_bool (label ^ ": rejoined once before dying") true (o.Fault.rejoins = 1);
      check_bool (label ^ ": accelerator stays dead") false o.Fault.accel_live_after;
      check_bool (label ^ ": host stays live") true o.Fault.host_live)
    recovery_configs

let test_tarpit_budget_before_g2c () =
  (* A slow-but-honest accelerator: budgets must catch it strictly before the
     coarse G2c deadline ever fires. *)
  List.iter
    (fun cfg ->
      let o = Fault.run cfg Fault.Tarpit_budget in
      let label = Config.name cfg ^ " / tarpit" in
      check_bool (label ^ ": budget violation reported") true o.Fault.detected;
      check_bool (label ^ ": at least one budget trip") true (o.Fault.budget_trips > 0);
      check_int (label ^ ": no G2c timeout fired") 0 o.Fault.g2c_timeouts;
      check_bool (label ^ ": quarantined by the budget ladder") true o.Fault.quarantined;
      check_bool (label ^ ": host stays live") true o.Fault.host_live)
    recovery_configs

let test_os_policy_disable () =
  (* Disable-accelerator policy: after the first violation the guard drops
     accelerator requests but keeps the host alive. *)
  let cfg = Config.make Config.Hammer (Config.Xg_one_level Config.Full_state) in
  let cfg = { cfg with Config.os_policy = Xg.Os_model.Disable_accelerator } in
  let outcome = Fault.run cfg Fault.Put_without_block in
  check_bool "detected" true outcome.Fault.detected;
  check_bool "host live after disable" true outcome.Fault.host_live

let tests =
  [
    ( "safety.guarantees",
      [
        Alcotest.test_case "all guarantees, all XG configs" `Quick test_guarantees_per_config;
        Alcotest.test_case "G2a corrected (full-state)" `Quick
          test_wrong_response_corrected_full_state;
        Alcotest.test_case "G2c timeout recovery" `Quick test_timeout_answers_for_accel;
        Alcotest.test_case "link-dead quarantine" `Quick test_link_dead_quarantine;
        Alcotest.test_case "recovery: quarantine, reset, rejoin" `Quick test_recovery_rejoin;
        Alcotest.test_case "recovery: repeated quarantine permakills" `Quick
          test_repeated_quarantine_permakill;
        Alcotest.test_case "budgets: tarpit trips before G2c" `Quick
          test_tarpit_budget_before_g2c;
        Alcotest.test_case "disable-accelerator policy" `Quick test_os_policy_disable;
        Alcotest.test_case "topology quarantine isolation" `Slow
          test_topology_quarantine_isolation;
      ] );
    ( "safety.fuzz",
      [
        Alcotest.test_case "fuzz all 8 XG configs" `Quick test_fuzz_all_xg_configs;
        Alcotest.test_case "disjoint pool: data intact" `Quick
          test_fuzz_disjoint_pool_data_intact;
        Alcotest.test_case "read-only pool: data intact (G0b)" `Quick
          test_fuzz_read_only_pool_data_intact;
        Alcotest.test_case "mute accelerator" `Quick test_fuzz_never_responding_accel;
        Alcotest.test_case "a deadlocked run drains" `Quick test_deadlock_drains;
        QCheck_alcotest.to_alcotest prop_fuzz_random_seeds;
      ] );
  ]
