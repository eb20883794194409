(* PR 3: lossy-link fault injection and the recovery layer.

   Three levels:
   - Network.Fault: the injector itself (probabilities, scripts, counting)
     against a plain integer network.
   - Xg_iface.Link: seq+checksum reliability — retransmission, duplicate
     suppression, corruption detection, escalation, kill.
   - System level: the byte-identity property (all probabilities 0.0 must
     reproduce the fault-free reports exactly, whether or not the reliability
     layer runs) and the drop=0.05 safety sweep of the acceptance criteria. *)

module Engine = Xguard_sim.Engine
module Rng = Xguard_sim.Rng
module Network = Xguard_network.Network
module Fault = Network.Fault
module Net = Network.Make (struct
  type t = int
end)

module Xg = Xguard_xg
module Link = Xg.Xg_iface.Link
module Config = Xguard_harness.Config
module System = Xguard_harness.System
module Tester = Xguard_harness.Random_tester
module Fuzz = Xguard_harness.Fuzz_tester
module Campaign = Xguard_harness.Campaign

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let two_nodes () =
  let reg = Node.Registry.create () in
  (Node.Registry.fresh reg "a", Node.Registry.fresh reg "b")

(* ---- Fault.script_of_string ---- *)

let test_script_parsing () =
  (match Fault.script_of_string "drop:3" with
  | Ok { Fault.nth = 3; needle = None; kind = Fault.Drop } -> ()
  | Ok s -> Alcotest.failf "drop:3 parsed as %s" (Fault.script_to_string s)
  | Error e -> Alcotest.failf "drop:3 rejected: %s" e);
  (match Fault.script_of_string "dup:1:DataM" with
  | Ok { Fault.nth = 1; needle = Some "DataM"; kind = Fault.Duplicate } -> ()
  | _ -> Alcotest.fail "dup:1:DataM");
  (match Fault.script_of_string "delay@9:2" with
  | Ok { Fault.nth = 2; needle = None; kind = Fault.Delay 9 } -> ()
  | _ -> Alcotest.fail "delay@9:2");
  (match Fault.script_of_string "kill:5" with
  | Ok { Fault.nth = 5; needle = None; kind = Fault.Kill } -> ()
  | _ -> Alcotest.fail "kill:5");
  (match Fault.script_of_string "corrupt:7:Put" with
  | Ok { Fault.nth = 7; needle = Some "Put"; kind = Fault.Corrupt } -> ()
  | _ -> Alcotest.fail "corrupt:7:Put");
  List.iter
    (fun bad ->
      match Fault.script_of_string bad with
      | Ok _ -> Alcotest.failf "%S should not parse" bad
      | Error _ -> ())
    [ ""; "drop"; "bogus:1"; "drop:zero"; "drop:0"; "delay@x:1" ]

let test_script_roundtrip () =
  List.iter
    (fun s ->
      match Fault.script_of_string s with
      | Ok sc -> check_string s s (Fault.script_to_string sc)
      | Error e -> Alcotest.failf "%S rejected: %s" s e)
    [ "drop:3"; "dup:1:DataM"; "corrupt:2"; "kill:9"; "delay@5:4:Get" ]

(* ---- probabilistic injection on a plain network ---- *)

let lossy_net ?(latency = 3) ~seed faults =
  let e = Engine.create () in
  let a, b = two_nodes () in
  let net =
    Net.create ~engine:e ~rng:(Rng.create ~seed) ~name:"lossy"
      ~ordering:(Network.Ordered { latency })
      ()
  in
  Net.set_faults net ~rng:(Rng.create ~seed:(seed + 1)) faults;
  (e, net, a, b)

let test_drop_all () =
  let e, net, a, b = lossy_net ~seed:3 { Fault.zero with Fault.drop = 1.0 } in
  let got = ref 0 in
  Net.register net b (fun ~src:_ _ -> incr got);
  for i = 1 to 10 do
    Net.send net ~src:a ~dst:b i
  done;
  ignore (Engine.run e);
  check_int "nothing delivered" 0 !got;
  check_int "drops counted" 10 (Net.fault_counts net).Fault.drops

let test_duplicate_all () =
  let e, net, a, b = lossy_net ~seed:4 { Fault.zero with Fault.duplicate = 1.0 } in
  let got = ref 0 in
  Net.register net b (fun ~src:_ _ -> incr got);
  for i = 1 to 10 do
    Net.send net ~src:a ~dst:b i
  done;
  ignore (Engine.run e);
  check_int "every message delivered twice" 20 !got;
  check_int "duplicates counted" 10 (Net.fault_counts net).Fault.duplicates

let test_corrupt_all () =
  let e, net, a, b = lossy_net ~seed:5 { Fault.zero with Fault.corrupt = 1.0 } in
  Net.set_corruptor net (fun x -> x + 1000);
  let got = ref [] in
  Net.register net b (fun ~src:_ m -> got := m :: !got);
  for i = 1 to 5 do
    Net.send net ~src:a ~dst:b i
  done;
  ignore (Engine.run e);
  Alcotest.(check (list int)) "all payloads mutated" [ 1005; 1004; 1003; 1002; 1001 ] !got;
  check_int "corruptions counted" 5 (Net.fault_counts net).Fault.corrupts

let test_corrupt_without_corruptor_drops () =
  (* A network with no corruptor cannot mutate its payload type; the injector
     degrades corruption to a (counted) loss rather than delivering intact. *)
  let e, net, a, b = lossy_net ~seed:6 { Fault.zero with Fault.corrupt = 1.0 } in
  let got = ref 0 in
  Net.register net b (fun ~src:_ _ -> incr got);
  Net.send net ~src:a ~dst:b 7;
  ignore (Engine.run e);
  check_int "not delivered" 0 !got

let test_script_targets_nth () =
  let e = Engine.create () in
  let a, b = two_nodes () in
  let net =
    Net.create ~engine:e ~rng:(Rng.create ~seed:1) ~name:"scripted"
      ~ordering:(Network.Ordered { latency = 2 })
      ()
  in
  (match Fault.script_of_string "drop:2" with
  | Ok sc -> Net.add_fault_script net sc
  | Error e -> Alcotest.fail e);
  let got = ref [] in
  Net.register net b (fun ~src:_ m -> got := m :: !got);
  for i = 1 to 5 do
    Net.send net ~src:a ~dst:b i
  done;
  ignore (Engine.run e);
  Alcotest.(check (list int)) "exactly the 2nd message lost" [ 1; 3; 4; 5 ] (List.rev !got)

let test_script_needle_needs_tracer () =
  (* Matching on trace text: without a tracer the needle can never match. *)
  let e = Engine.create () in
  let a, b = two_nodes () in
  let net =
    Net.create ~engine:e ~rng:(Rng.create ~seed:1) ~name:"needle"
      ~ordering:(Network.Ordered { latency = 1 })
      ()
  in
  Net.set_tracer net (fun m -> (m, if m mod 2 = 0 then "even" else "odd"));
  (match Fault.script_of_string "drop:1:even" with
  | Ok sc -> Net.add_fault_script net sc
  | Error e -> Alcotest.fail e);
  let got = ref [] in
  Net.register net b (fun ~src:_ m -> got := m :: !got);
  for i = 1 to 4 do
    Net.send net ~src:a ~dst:b i
  done;
  ignore (Engine.run e);
  Alcotest.(check (list int)) "first even message lost" [ 1; 3; 4 ] (List.rev !got)

let test_uninstalled_is_inert () =
  let e = Engine.create () in
  let a, b = two_nodes () in
  let net =
    Net.create ~engine:e ~rng:(Rng.create ~seed:1) ~name:"plain"
      ~ordering:(Network.Ordered { latency = 1 })
      ()
  in
  check_bool "no faults can fire" false (Net.faults_active net);
  let got = ref 0 in
  Net.register net b (fun ~src:_ _ -> incr got);
  for i = 1 to 50 do
    Net.send net ~src:a ~dst:b i
  done;
  ignore (Engine.run e);
  check_int "everything delivered" 50 !got

(* ---- the reliable link ---- *)

let reliable_link ?(retry_timeout = 8) ?(max_retries = 2) ~seed () =
  let e = Engine.create () in
  let reg = Node.Registry.create () in
  let xg = Node.Registry.fresh reg "xg" and accel = Node.Registry.fresh reg "accel" in
  let link =
    Link.create ~engine:e ~rng:(Rng.create ~seed) ~name:"link"
      ~ordering:(Network.Ordered { latency = 2 })
      ()
  in
  Link.enable_reliability link ~retry_timeout ~max_retries ();
  (e, link, xg, accel)

let a_msg i =
  Xg.Xg_iface.To_xg_req { addr = Addr.block i; req = Xg.Xg_iface.Get_s }

let test_link_retransmits_dropped_frame () =
  let e, link, xg, accel = reliable_link ~seed:11 () in
  let got = ref 0 in
  Link.register link accel (fun ~src:_ _ -> incr got);
  Link.register link xg (fun ~src:_ _ -> ());
  (match Fault.script_of_string "drop:1" with
  | Ok sc -> Link.add_fault_script link sc
  | Error err -> Alcotest.fail err);
  Link.send link ~src:xg ~dst:accel (a_msg 0);
  ignore (Engine.run e);
  check_int "delivered exactly once despite the drop" 1 !got;
  let stats = Xguard_stats.Counter.Group.to_list (Link.link_stats link) in
  check_bool "retransmission happened" true
    (List.assoc_opt "retransmit_frames" stats <> None)

let test_link_suppresses_duplicates () =
  let e, link, xg, accel = reliable_link ~seed:12 () in
  let got = ref 0 in
  Link.register link accel (fun ~src:_ _ -> incr got);
  Link.register link xg (fun ~src:_ _ -> ());
  (match Fault.script_of_string "dup:1" with
  | Ok sc -> Link.add_fault_script link sc
  | Error err -> Alcotest.fail err);
  Link.send link ~src:xg ~dst:accel (a_msg 1);
  ignore (Engine.run e);
  check_int "exactly-once delivery" 1 !got;
  let stats = Xguard_stats.Counter.Group.to_list (Link.link_stats link) in
  check_int "the copy was suppressed" 1
    (Option.value ~default:0 (List.assoc_opt "dups_suppressed" stats))

let test_link_detects_corruption () =
  let e, link, xg, accel = reliable_link ~seed:13 () in
  let got = ref [] in
  Link.register link accel (fun ~src:_ m -> got := m :: !got);
  Link.register link xg (fun ~src:_ _ -> ());
  (match Fault.script_of_string "corrupt:1" with
  | Ok sc -> Link.add_fault_script link sc
  | Error err -> Alcotest.fail err);
  let sent = a_msg 2 in
  Link.send link ~src:xg ~dst:accel sent;
  ignore (Engine.run e);
  (match !got with
  | [ m ] -> check_bool "checksum caught the mutation; intact copy delivered" true (m = sent)
  | ms -> Alcotest.failf "expected one delivery, got %d" (List.length ms));
  let stats = Xguard_stats.Counter.Group.to_list (Link.link_stats link) in
  check_int "corruption detected" 1
    (Option.value ~default:0 (List.assoc_opt "corrupt_detected" stats))

let test_link_escalates_then_recovers () =
  let e, link, xg, accel = reliable_link ~seed:14 ~retry_timeout:4 ~max_retries:1 () in
  let got = ref 0 and faults = ref 0 and recoveries = ref 0 in
  Link.register link accel (fun ~src:_ _ -> incr got);
  Link.register link xg (fun ~src:_ _ -> ());
  Link.set_fault_handler link
    ~on_fault:(fun () -> incr faults)
    ~on_recover:(fun () -> incr recoveries);
  (* Lose the frame three times, then let a retransmission through. *)
  List.iter
    (fun s ->
      match Fault.script_of_string s with
      | Ok sc -> Link.add_fault_script link sc
      | Error err -> Alcotest.fail err)
    [ "drop:1"; "drop:2"; "drop:3" ];
  Link.send link ~src:xg ~dst:accel (a_msg 3);
  ignore (Engine.run e);
  check_int "eventually delivered" 1 !got;
  check_bool "silent rounds escalated" true (!faults >= 1);
  check_bool "ack progress reported recovery" true (!recoveries >= 1)

let test_link_kill_drains () =
  let e, link, xg, accel = reliable_link ~seed:15 () in
  Link.register link accel (fun ~src:_ _ -> ());
  Link.register link xg (fun ~src:_ _ -> ());
  Link.send link ~src:xg ~dst:accel (a_msg 4);
  Link.kill link;
  Link.kill link (* idempotent *);
  Link.send link ~src:xg ~dst:accel (a_msg 5);
  check_bool "killed" true (Link.killed link);
  (* A killed link must not keep the engine alive with retransmission
     watchdogs — the drain property quarantine relies on. *)
  (match Engine.run e with
  | Engine.Drained | Engine.Stopped -> ()
  | _ -> Alcotest.fail "killed link kept scheduling events");
  let stats = Xguard_stats.Counter.Group.to_list (Link.link_stats link) in
  check_bool "dead-link sends counted" true
    (Option.value ~default:0 (List.assoc_opt "sends_on_dead_link" stats) >= 1)

(* ---- byte-identity: probabilities 0.0 reproduce the fault-free reports ---- *)

let reliable_zero cfg = { cfg with Config.link_faults = Some Fault.zero }

let stress_fingerprint cfg =
  let cfg = Config.stress_sized cfg in
  let sys = System.build cfg in
  let ports = Array.append sys.System.cpu_ports sys.System.accel_ports in
  let o =
    Tester.run ~engine:sys.System.engine
      ~rng:(Rng.create ~seed:(cfg.Config.seed * 7 + 1))
      ~ports ~addresses:(Array.init 6 Addr.block) ~ops_per_core:150 ()
  in
  ( o.Tester.ops_completed,
    o.Tester.data_errors,
    o.Tester.deadlocked,
    Xg.Os_model.error_count sys.System.os,
    Engine.now sys.System.engine,
    sys.System.link_stats () )

let fuzz_fingerprint cfg =
  let o = Fuzz.run (Config.stress_sized cfg) ~cpu_ops:100 ~chaos_duration:15_000 () in
  ( o.Fuzz.chaos_messages,
    o.Fuzz.invalidations_ignored,
    o.Fuzz.cpu_ops_completed,
    o.Fuzz.cpu_data_errors,
    o.Fuzz.violations,
    o.Fuzz.violations_by_kind,
    o.Fuzz.deadlocked,
    o.Fuzz.link_faults,
    o.Fuzz.quarantined )

let identity_configs =
  [
    Config.make Config.Hammer (Config.Xg_one_level Config.Transactional);
    Config.make Config.Mesi (Config.Xg_one_level Config.Full_state);
    Config.make Config.Hammer (Config.Xg_two_level Config.Full_state);
  ]

let test_zero_faults_identical_stress_and_fuzz () =
  List.iter
    (fun cfg ->
      let label = Config.name cfg in
      let plain_s = stress_fingerprint cfg in
      let zero_s = stress_fingerprint (reliable_zero cfg) in
      check_bool (label ^ ": stress identical under Fault.zero") true (plain_s = zero_s);
      let _, _, _, _, _, link = zero_s in
      check_bool (label ^ ": no link stats leak into fault-free reports") true (link = []);
      let plain_f = fuzz_fingerprint cfg in
      let zero_f = fuzz_fingerprint (reliable_zero cfg) in
      check_bool (label ^ ": fuzz identical under Fault.zero") true (plain_f = zero_f))
    identity_configs

let test_zero_faults_identical_campaign_render () =
  (* The strongest form of the property: the fully rendered campaign report —
     tables, coverage, summary line — is byte-for-byte the fault-free one. *)
  let configs = [ List.nth identity_configs 0; List.nth identity_configs 1 ] in
  let render configs =
    Campaign.render
      (Campaign.run ~observers:{ Campaign.no_observers with coverage = true } ~stress_ops:120 ~fuzz_cpu_ops:80
         Campaign.Both ~configs ~seeds:2 ())
  in
  check_string "campaign render byte-identical"
    (render configs)
    (render (List.map reliable_zero configs))

let prop_zero_faults_identical_fuzz =
  QCheck2.Test.make ~name:"fault probabilities 0.0 never change a fuzz outcome" ~count:8
    QCheck2.Gen.(pair (int_range 1 50_000) (int_range 0 2))
    (fun (seed, idx) ->
      let cfg = { (List.nth identity_configs idx) with Config.seed } in
      fuzz_fingerprint cfg = fuzz_fingerprint (reliable_zero cfg))

(* ---- acceptance: drop=0.05 over every configuration stays safe ---- *)

let test_drop5_campaign_all_configs_safe () =
  let faults = { Fault.zero with Fault.drop = 0.05 } in
  let configs =
    List.map
      (fun cfg -> { cfg with Config.link_faults = Some faults })
      (Config.all_configurations ())
  in
  let result =
    Campaign.run ~stress_ops:150 ~fuzz_cpu_ops:80 Campaign.Both ~configs ~seeds:2 ()
  in
  check_int "no crashed jobs" 0 result.Campaign.totals.Campaign.crashes;
  check_bool "zero safety violations / deadlocks at drop=0.05" true
    (Campaign.passed result)

let test_quarantine_under_fuzz_kill_script () =
  (* End to end through the fuzz harness: cut the wire at the Nth message and
     the guard must quarantine while the CPUs finish everything. *)
  List.iter
    (fun cfg ->
      let kill =
        match Fault.script_of_string "kill:120" with
        | Ok sc -> sc
        | Error e -> Alcotest.fail e
      in
      let cfg =
        {
          (Config.stress_sized cfg) with
          Config.link_faults = Some Fault.zero;
          link_fault_scripts = [ kill ];
          link_retry_timeout = 16;
          link_max_retries = 2;
          quarantine_after = 2;
        }
      in
      let label = Config.name cfg in
      let o = Fuzz.run cfg ~pool:Fuzz.Disjoint ~cpu_ops:100 ~chaos_duration:15_000 () in
      check_bool (label ^ ": no crash") true (o.Fuzz.crashed = None);
      check_bool (label ^ ": no deadlock") false o.Fuzz.deadlocked;
      check_int (label ^ ": all CPU ops completed") o.Fuzz.cpu_ops_expected
        o.Fuzz.cpu_ops_completed;
      check_int (label ^ ": CPU data intact") 0 o.Fuzz.cpu_data_errors;
      check_bool (label ^ ": quarantined") true o.Fuzz.quarantined)
    identity_configs

let tests =
  [
    ( "faults.network",
      [
        Alcotest.test_case "script parsing" `Quick test_script_parsing;
        Alcotest.test_case "script round-trip" `Quick test_script_roundtrip;
        Spec_gen.total ~name:"Fault.script_of_string is total"
          ~valid:[ "drop:3"; "dup:1:DataM"; "delay@9:2"; "kill:5"; "corrupt:7:Put" ]
          Fault.script_of_string;
        Alcotest.test_case "drop probability 1.0" `Quick test_drop_all;
        Alcotest.test_case "duplicate probability 1.0" `Quick test_duplicate_all;
        Alcotest.test_case "corrupt probability 1.0" `Quick test_corrupt_all;
        Alcotest.test_case "corrupt without corruptor drops" `Quick
          test_corrupt_without_corruptor_drops;
        Alcotest.test_case "script hits exactly the Nth message" `Quick
          test_script_targets_nth;
        Alcotest.test_case "needle scripts match trace text" `Quick
          test_script_needle_needs_tracer;
        Alcotest.test_case "uninstalled model is inert" `Quick test_uninstalled_is_inert;
      ] );
    ( "faults.link",
      [
        Alcotest.test_case "dropped frame is retransmitted" `Quick
          test_link_retransmits_dropped_frame;
        Alcotest.test_case "duplicate frames suppressed" `Quick
          test_link_suppresses_duplicates;
        Alcotest.test_case "corruption detected and repaired" `Quick
          test_link_detects_corruption;
        Alcotest.test_case "escalation and recovery callbacks" `Quick
          test_link_escalates_then_recovers;
        Alcotest.test_case "kill drains the engine" `Quick test_link_kill_drains;
      ] );
    ( "faults.identity",
      [
        Alcotest.test_case "zero faults: stress+fuzz fingerprints identical" `Quick
          test_zero_faults_identical_stress_and_fuzz;
        Alcotest.test_case "zero faults: campaign render byte-identical" `Quick
          test_zero_faults_identical_campaign_render;
        QCheck_alcotest.to_alcotest prop_zero_faults_identical_fuzz;
      ] );
    ( "faults.recovery",
      [
        Alcotest.test_case "drop=0.05 campaign, all 12 configs, safe" `Slow
          test_drop5_campaign_all_configs_safe;
        Alcotest.test_case "kill script quarantines under fuzz" `Quick
          test_quarantine_under_fuzz_kill_script;
      ] );
  ]
