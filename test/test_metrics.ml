(* Tests for the streaming-metrics layer (lib/obs): the JSON reader, SLO
   parsing/evaluation, watchdog rule latching, summary merge determinism and
   the [xguard report] stream round-trip. *)

module Json = Xguard_obs.Json
module Slo = Xguard_obs.Slo
module Watchdog = Xguard_obs.Watchdog
module Metrics = Xguard_obs.Metrics
module Spans = Xguard_obs.Spans
module Histogram = Xguard_stats.Histogram
module Counter = Xguard_stats.Counter

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---- JSON reader ---- *)

let test_json_roundtrip () =
  (* quote/of_string round-trip on escaping traps *)
  List.iter
    (fun s ->
      match Json.of_string (Json.quote s) with
      | Ok (Json.String s') -> check_string "string round-trip" s s'
      | Ok _ -> Alcotest.fail "quoted string parsed as non-string"
      | Error e -> Alcotest.failf "quote %S emitted invalid JSON: %s" s e)
    [ ""; "plain"; "q\"uote"; "back\\slash"; "nl\ntab\t"; "ctl\x01\x1f"; "mix\"\\\n" ];
  (* structured document with helpers *)
  match Json.of_string {_|{"a": 1, "b": [true, null, -2.5], "c": {"d": "x"}}|_} with
  | Error e -> Alcotest.failf "doc did not parse: %s" e
  | Ok doc ->
      check_int "int member" 1
        (Option.get (Option.bind (Json.member "a" doc) Json.to_int_opt));
      (match Json.member "b" doc with
      | Some (Json.List [ Json.Bool true; Json.Null; Json.Float f ]) ->
          Alcotest.(check (float 0.0001)) "float element" (-2.5) f
      | _ -> Alcotest.fail "list shape wrong");
      check_string "nested string" "x"
        (Option.get
           (Option.bind
              (Option.bind (Json.member "c" doc) (Json.member "d"))
              Json.to_string_opt))

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "expected parse error on %S" s
      | Error _ -> ())
    [ ""; "{"; "{\"a\":}"; "[1,]"; "{\"a\":1} trailing"; "\"unterminated"; "nul" ]

(* Unterminated nesting far deeper than any real document: an [Error], not a
   stack overflow. *)
let test_json_deep_nesting () =
  match Json.of_string (String.make 1_000_000 '[') with
  | Ok _ -> Alcotest.fail "unterminated nesting accepted"
  | Error _ -> ()

(* ---- SLO parsing and evaluation ---- *)

let test_slo_parse () =
  (match Slo.parse "xg.decide:p99<=40;seq.e2e:p95<=400;avail>=0.95" with
  | Error e -> Alcotest.failf "valid spec rejected: %s" e
  | Ok objs ->
      check_int "three objectives" 3 (List.length objs);
      Alcotest.(check (list string))
        "canonical rendering"
        [ "xg.decide:p99<=40"; "seq.e2e:p95<=400"; "avail>=0.95" ]
        (List.map Slo.objective_text objs));
  List.iter
    (fun bad ->
      match Slo.parse bad with
      | Ok _ -> Alcotest.failf "expected parse error on %S" bad
      | Error _ -> ())
    [ "bogus"; "xg.decide:p99<=abc"; "avail>=high" ]

let test_slo_evaluate () =
  let hist name samples =
    let h = Histogram.create name in
    List.iter (Histogram.observe h) samples;
    h
  in
  let span_cells = [ ("xg.decide", "GetS", hist "xg.decide" [ 10; 20; 100 ]) ] in
  let guard_hists =
    [
      (("xg.a0", "xg.e2e"), hist "xg.e2e" [ 900 ]);
      (("xg.nic0", "xg.e2e"), hist "xg.e2e" [ 30 ]);
    ]
  in
  let avail = [ ("xg.a0", 100, 1000); ("xg.nic0", 0, 1000) ] in
  let objs spec =
    match Slo.parse spec with Ok o -> o | Error e -> Alcotest.fail e
  in
  (* global span-segment objective: p99 of [10;20;100] exceeds 40 *)
  (match Slo.evaluate (objs "xg.decide:p99<=40") ~span_cells ~guard_hists:[] ~avail:[] with
  | [ v ] ->
      check_bool "latency objective fails" false v.Slo.v_pass;
      check_string "global scope" "global" v.Slo.v_scope;
      check_bool "has measured value" true (v.Slo.v_measured <> "-")
  | vs -> Alcotest.failf "expected one verdict, got %d" (List.length vs));
  (* generous bound passes *)
  (match Slo.evaluate (objs "xg.decide:p99<=100000") ~span_cells ~guard_hists:[] ~avail:[] with
  | [ v ] -> check_bool "generous bound passes" true v.Slo.v_pass
  | _ -> Alcotest.fail "expected one verdict");
  (* an objective with no samples anywhere passes vacuously *)
  (match Slo.evaluate (objs "host.fetch:p99<=5") ~span_cells ~guard_hists:[] ~avail:[] with
  | [ v ] ->
      check_bool "vacuous pass" true v.Slo.v_pass;
      check_string "no samples marker" "-" v.Slo.v_measured
  | _ -> Alcotest.fail "expected one verdict");
  (* per-guard metric: one verdict per guard, scoped to the guard label *)
  let pg = Slo.evaluate (objs "xg.e2e:p99<=100") ~span_cells:[] ~guard_hists ~avail:[] in
  check_int "one verdict per guard" 2 (List.length pg);
  List.iter
    (fun v ->
      match v.Slo.v_scope with
      | "xg.a0" -> check_bool "tarpit guard fails" false v.Slo.v_pass
      | "xg.nic0" -> check_bool "neighbor passes" true v.Slo.v_pass
      | s -> Alcotest.failf "unexpected scope %s" s)
    pg;
  check_bool "mixed verdicts fail overall" false (Slo.passed pg);
  (* availability: xg.a0 is 90% (< 95), xg.nic0 is 100% *)
  let av = Slo.evaluate (objs "avail>=0.95") ~span_cells:[] ~guard_hists:[] ~avail in
  check_int "availability judged per guard" 2 (List.length av);
  List.iter
    (fun v ->
      match v.Slo.v_scope with
      | "xg.a0" -> check_bool "90% fails 0.95" false v.Slo.v_pass
      | "xg.nic0" -> check_bool "100% passes" true v.Slo.v_pass
      | s -> Alcotest.failf "unexpected scope %s" s)
    av

(* ---- Watchdog ---- *)

let test_watchdog_parse () =
  (match Watchdog.parse "" with
  | Ok c -> check_bool "empty spec is default" true (c = Watchdog.default)
  | Error e -> Alcotest.fail e);
  (match Watchdog.parse "retry=8,stall=2,starve=3,ceil:xg.open_transactions=32" with
  | Ok c ->
      check_int "retry" 8 c.Watchdog.retry_burst;
      check_int "stall" 2 c.Watchdog.stall_ticks;
      check_int "starve" 3 c.Watchdog.starve_ticks;
      Alcotest.(check (list (pair string int)))
        "ceiling" [ ("xg.open_transactions", 32) ] c.Watchdog.ceilings
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Watchdog.parse bad with
      | Ok _ -> Alcotest.failf "expected parse error on %S" bad
      | Error _ -> ())
    [ "bogus"; "retry=x"; "frob=3" ]

let events_of = List.map (fun e -> (e.Watchdog.w_rule, e.Watchdog.w_event))

let test_watchdog_retry_storm_latches () =
  let w =
    Watchdog.create { Watchdog.default with retry_burst = 4 }
  in
  let tick ?(deltas = []) ?(gauges = []) now =
    events_of (Watchdog.observe w ~now ~deltas ~gauges)
  in
  Alcotest.(check (list (pair string string)))
    "burst trips" [ ("retry_storm", "Trip") ]
    (tick ~deltas:[ ("link.retransmit_frames", 5) ] 500);
  Alcotest.(check (list (pair string string)))
    "latched: continuing storm is silent" []
    (tick ~deltas:[ ("link.retransmit_frames", 9) ] 1000);
  Alcotest.(check (list (pair string string)))
    "quiet tick clears" [ ("retry_storm", "Clear") ]
    (tick ~deltas:[ ("seq.loads", 3) ] 1500);
  Alcotest.(check (list (pair string string)))
    "re-trips after clear" [ ("retry_storm", "Trip") ]
    (tick ~deltas:[ ("link.retransmit_frames", 4) ] 2000)

let test_watchdog_stall_and_ceiling () =
  let w =
    Watchdog.create
      { Watchdog.default with stall_ticks = 2; ceilings = [ ("q.depth", 10) ] }
  in
  let tick ?(deltas = []) ?(gauges = []) now =
    events_of (Watchdog.observe w ~now ~deltas ~gauges)
  in
  let open_g = ("xg.open_transactions", 2) in
  Alcotest.(check (list (pair string string)))
    "first stalled tick below threshold" []
    (tick ~gauges:[ open_g ] 500);
  Alcotest.(check (list (pair string string)))
    "second stalled tick trips" [ ("quiesce_stall", "Trip") ]
    (tick ~gauges:[ open_g ] 1000);
  Alcotest.(check (list (pair string string)))
    "progress clears the stall" [ ("quiesce_stall", "Clear") ]
    (tick ~deltas:[ ("seq.loads", 1) ] ~gauges:[ open_g ] 1500);
  (* gauge ceiling latches exactly once until it drops back under *)
  Alcotest.(check (list (pair string string)))
    "ceiling trips" [ ("gauge_ceiling", "Trip") ]
    (tick ~deltas:[ ("seq.loads", 1) ] ~gauges:[ ("q.depth", 12) ] 2000);
  Alcotest.(check (list (pair string string)))
    "still over: silent" []
    (tick ~deltas:[ ("seq.loads", 1) ] ~gauges:[ ("q.depth", 11) ] 2500);
  Alcotest.(check (list (pair string string)))
    "under again: clears" [ ("gauge_ceiling", "Clear") ]
    (tick ~deltas:[ ("seq.loads", 1) ] ~gauges:[ ("q.depth", 3) ] 3000)

(* ---- Summary merge determinism and the report round-trip ---- *)

(* One synthetic "job": an armed span+metrics recorder pair fed a counter
   group, a per-guard e2e crossing and an availability note, then sampled. *)
let run_job ~label ~guard ~lat =
  let sr = Spans.create () in
  let mr = Metrics.create () in
  Spans.with_armed sr (fun () ->
      Metrics.with_armed mr (fun () ->
          let g = Counter.Group.create "seq" in
          Metrics.add_group ~name:"seq" g;
          Counter.Group.add g "loads" 3;
          Metrics.e2e_open ~guard ~addr:64 ~now:10;
          Metrics.e2e_close ~guard ~addr:64 ~now:(10 + lat);
          Metrics.sample_now ~now:500;
          Metrics.note_avail ~guard ~down:25 ~now:1000));
  Metrics.summary ~label mr

let test_summary_merge () =
  let s0 = run_job ~label:"job0" ~guard:"xg.a0" ~lat:40 in
  let s1 = run_job ~label:"job1" ~guard:"xg.a0" ~lat:80 in
  let s2 = run_job ~label:"job2" ~guard:"xg.nic0" ~lat:7 in
  let module S = Metrics.Summary in
  check_bool "empty is empty" true (S.is_empty S.empty);
  check_bool "job summary is not" false (S.is_empty s0);
  (* identity *)
  let labels s = List.map (fun b -> b.S.b_label) (S.blocks s) in
  Alcotest.(check (list string)) "left identity" [ "job0" ] (labels (S.merge S.empty s0));
  Alcotest.(check (list string)) "right identity" [ "job0" ] (labels (S.merge s0 S.empty));
  (* blocks concatenate in merge (= job) order *)
  let m = S.merge (S.merge s0 s1) s2 in
  Alcotest.(check (list string)) "job order kept" [ "job0"; "job1"; "job2" ] (labels m);
  check_int "samples add" 3 (S.samples m);
  (* per-guard histograms merge-join: both xg.a0 jobs land in one histogram *)
  (match List.assoc_opt ("xg.a0", "xg.e2e") (S.hists m) with
  | Some h ->
      check_int "a0 samples merged" 2 (Histogram.count h);
      check_int "max is the slow job" 80 (Histogram.max_value h)
  | None -> Alcotest.fail "missing merged xg.a0 histogram");
  check_bool "nic0 kept separate" true
    (List.mem_assoc ("xg.nic0", "xg.e2e") (S.hists m));
  (* associativity, observed through the canonical JSONL emission *)
  let emit s =
    let file = Filename.temp_file "xguard_metrics" ".jsonl" in
    let oc = open_out file in
    Metrics.write_jsonl oc ~period:500 ~span_cells:[] ~verdicts:[] s;
    close_out oc;
    let ic = open_in_bin file in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove file;
    text
  in
  check_string "merge associates"
    (emit (S.merge (S.merge s0 s1) s2))
    (emit (S.merge s0 (S.merge s1 s2)))

let test_report_stream_roundtrip () =
  let module S = Metrics.Summary in
  let module R = Metrics.Report in
  let s = S.merge (run_job ~label:"job0" ~guard:"xg.a0" ~lat:40)
            (run_job ~label:"job1" ~guard:"xg.a0" ~lat:80) in
  let verdicts =
    match Slo.parse "xg.e2e:p99<=64" with
    | Ok objs ->
        Slo.evaluate objs ~span_cells:[] ~guard_hists:(S.hists s) ~avail:(S.avails s)
    | Error e -> Alcotest.fail e
  in
  let file = Filename.temp_file "xguard_stream" ".jsonl" in
  let oc = open_out file in
  Metrics.write_jsonl oc ~period:500 ~span_cells:[] ~verdicts s;
  close_out oc;
  let ic = open_in file in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove file;
  let lines = List.rev !lines in
  check_bool "stream has a meta line" true (List.length lines > 1);
  (* every line is one valid JSON object *)
  List.iter
    (fun l ->
      match Json.of_string l with
      | Ok (Json.Obj _) -> ()
      | Ok _ -> Alcotest.failf "non-object line: %s" l
      | Error e -> Alcotest.failf "invalid JSONL line %S: %s" l e)
    lines;
  (* the report merger restores what the stream carried *)
  (match R.add_stream R.empty ~name:"shard0" lines with
  | Error e -> Alcotest.fail e
  | Ok rep -> (
      check_int "samples restored" (S.samples s) (R.samples rep);
      Alcotest.(check (list (pair string int)))
        "stream registered" [ ("shard0", S.samples s) ] (R.streams rep);
      (match List.assoc_opt ("xg.a0", "xg.e2e") (R.guard_hists rep) with
      | Some h ->
          check_int "histogram restored losslessly" 2 (Histogram.count h);
          check_int "max restored" 80 (Histogram.max_value h)
      | None -> Alcotest.fail "per-guard histogram lost in the stream");
      check_bool "embedded verdicts kept" true (R.verdicts rep <> []);
      (* adding a second shard accumulates *)
      match R.add_stream rep ~name:"shard1" lines with
      | Ok rep2 -> check_int "two shards add" (2 * S.samples s) (R.samples rep2)
      | Error e -> Alcotest.fail e));
  (* a corrupt stream is a parse error, not a crash *)
  match R.add_stream R.empty ~name:"bad" [ "{ not json" ] with
  | Ok _ -> Alcotest.fail "expected error on corrupt stream"
  | Error _ -> ()

let tests =
  [
    ( "metrics",
      [
        Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
        Alcotest.test_case "json deep nesting" `Quick test_json_deep_nesting;
        Spec_gen.total ~name:"Json.of_string is total"
          ~valid:
            [
              {_|{"a": 1, "b": [true, null, -2.5e3], "c": {"d": "x\u00e9\n"}}|_};
              {|{"kind":"sample","ts":500,"counters":{"xg.link.sent":3},"gauges":[]}|};
              "[[], {}, \"\", 0, -0.5, 1E+2, false]";
            ]
          Json.of_string;
        Alcotest.test_case "slo parse" `Quick test_slo_parse;
        Spec_gen.total ~name:"Slo.parse is total"
          ~valid:[ "xg.decide:p99<=40;seq.e2e:p95<=400;avail>=0.95"; "xg.e2e:p99<=64" ]
          Slo.parse;
        Alcotest.test_case "slo evaluate" `Quick test_slo_evaluate;
        Alcotest.test_case "watchdog parse" `Quick test_watchdog_parse;
        Spec_gen.total ~name:"Watchdog.parse is total"
          ~valid:[ "retry=8,stall=2,starve=3,ceil:xg.open_transactions=32"; "starve=1" ]
          Watchdog.parse;
        Alcotest.test_case "watchdog retry storm latches" `Quick
          test_watchdog_retry_storm_latches;
        Alcotest.test_case "watchdog stall and ceiling" `Quick
          test_watchdog_stall_and_ceiling;
        Alcotest.test_case "summary merge" `Quick test_summary_merge;
        Alcotest.test_case "report stream round-trip" `Quick
          test_report_stream_roundtrip;
      ] );
  ]
