(* Tests for the workload generators and the performance runner. *)

module Rng = Xguard_sim.Rng
module W = Xguard_workload.Workload
module Config = Xguard_harness.Config
module Perf = Xguard_harness.Perf_runner

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let total_accesses streams =
  Array.fold_left (fun acc s -> acc + Array.length s.W.accesses) 0 streams

let test_partitioning_preserves_work () =
  let rng = Rng.create ~seed:1 in
  List.iter
    (fun w ->
      let one = total_accesses (w.W.make_streams ~cores:1 ~rng:(Rng.split rng)) in
      let four = total_accesses (w.W.make_streams ~cores:4 ~rng:(Rng.split rng)) in
      check_bool
        (w.W.name ^ ": partitioning keeps total work within rounding")
        true
        (abs (one - four) <= 4))
    (W.all ())

let test_footprints_honest () =
  let rng = Rng.create ~seed:2 in
  List.iter
    (fun w ->
      let streams = w.W.make_streams ~cores:2 ~rng:(Rng.split rng) in
      Array.iter
        (fun s ->
          Array.iter
            (fun a ->
              check_bool
                (w.W.name ^ ": access within declared footprint")
                true
                (Addr.to_int a.Access.addr < w.W.footprint_blocks))
            s.W.accesses)
        streams)
    (W.all ())

let test_graph_is_serial () =
  let rng = Rng.create ~seed:3 in
  let streams = (W.graph ()).W.make_streams ~cores:2 ~rng in
  Array.iter (fun s -> check_int "one access in flight" 1 s.W.max_outstanding) streams

let test_producer_consumer_has_cpu_side () =
  let rng = Rng.create ~seed:4 in
  let w = W.producer_consumer () in
  let cpu = w.W.cpu_streams ~cpus:2 ~rng in
  check_int "two cpu streams" 2 (Array.length cpu);
  check_bool "cpu streams nonempty" true (total_accesses cpu > 0);
  List.iter
    (fun other ->
      check_int (other.W.name ^ ": no cpu side") 0
        (Array.length (other.W.cpu_streams ~cpus:2 ~rng)))
    [ W.streaming (); W.blocked (); W.graph (); W.write_coalesce () ]

let test_perf_runner_completes_and_orders () =
  (* The headline shape on a latency-sensitive workload: the host-side cache
     must be slower than both the accelerator-side cache and the guard. *)
  let w = W.graph ~nodes:64 ~steps:400 () in
  let run org = (Perf.run (Config.make Config.Hammer org) w).Perf.cycles in
  let accel_side = run Config.Accel_side in
  let host_side = run Config.Host_side in
  let xg = run (Config.Xg_one_level Config.Transactional) in
  check_bool "host-side slower than accel-side" true (host_side > accel_side);
  check_bool "host-side slower than XG" true (host_side > xg);
  (* "Performance comparable to using the host protocol": within 2x. *)
  let ratio = float_of_int xg /. float_of_int accel_side in
  check_bool "XG within 2x of the unsafe accel-side cache" true (ratio < 2.0 && ratio > 0.5)

let test_perf_runner_no_violations_with_correct_accel () =
  List.iter
    (fun cfg ->
      let r = Perf.run cfg (W.blocked ~tiles:8 ()) in
      check_int (r.Perf.config_name ^ ": no violations") 0 r.Perf.violations)
    (List.filter Config.uses_xg (Config.all_configurations ()))

let test_put_s_suppression_register () =
  (* E4 machinery: with the register set, unnecessary PutS messages stop
     crossing to the Hammer host. *)
  let w = W.shared_sweep ~length:256 () in
  let base = Config.make Config.Hammer (Config.Xg_one_level Config.Transactional) in
  let off = Perf.run { base with Config.suppress_put_s = false } w in
  let on = Perf.run { base with Config.suppress_put_s = true } w in
  check_bool "without the register, unnecessary PutS reach the host" true
    (off.Perf.put_s_messages > 0);
  check_int "with the register, none cross" 0 on.Perf.put_s_messages;
  check_bool "suppressed count recorded" true (on.Perf.put_s_suppressed > 0);
  check_bool "register reduces XG-to-host traffic" true
    (on.Perf.xg_to_host_bytes < off.Perf.xg_to_host_bytes)

let test_mesi_uses_put_s () =
  (* The MESI host tracks sharers exactly, so PutS is forwarded, never
     "unnecessary". *)
  let w = W.shared_sweep ~length:256 () in
  let r = Perf.run (Config.make Config.Mesi (Config.Xg_one_level Config.Transactional)) w in
  check_int "nothing suppressed" 0 r.Perf.put_s_suppressed

let test_streaming_event_budget () =
  (* A blocked accelerator access waits for its cache to wake the port and
     never polls, so a default-length stream costs tens of events per access
     (21.7), not thousands. *)
  let w = W.streaming () in
  let before = Xguard_sim.Engine.events_fired_here () in
  let r = Perf.run (Config.make Config.Hammer (Config.Xg_one_level Config.Full_state)) w in
  let events = Xguard_sim.Engine.events_fired_here () - before in
  let per_access = float_of_int events /. float_of_int r.Perf.accel_accesses in
  check_bool
    (Printf.sprintf "%s/%s: %.1f events per access < 100" r.Perf.config_name
       r.Perf.workload_name per_access)
    true (per_access < 100.0)

let tests =
  [
    ( "workload.generators",
      [
        Alcotest.test_case "partitioning preserves work" `Quick test_partitioning_preserves_work;
        Alcotest.test_case "footprints honest" `Quick test_footprints_honest;
        Alcotest.test_case "graph is serial" `Quick test_graph_is_serial;
        Alcotest.test_case "producer-consumer cpu side" `Quick
          test_producer_consumer_has_cpu_side;
      ] );
    ( "workload.perf",
      [
        Alcotest.test_case "ordering: host-side slowest" `Quick
          test_perf_runner_completes_and_orders;
        Alcotest.test_case "correct accel: zero violations" `Quick
          test_perf_runner_no_violations_with_correct_accel;
        Alcotest.test_case "PutS suppression register" `Quick test_put_s_suppression_register;
        Alcotest.test_case "MESI forwards PutS" `Quick test_mesi_uses_put_s;
        Alcotest.test_case "streaming: events per access" `Quick test_streaming_event_budget;
      ] );
  ]
