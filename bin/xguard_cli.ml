(* Command-line driver for the Crossing Guard reproduction.

   Subcommands:
     run      — run a workload on one configuration and print its statistics
     stress   — random coherence stress test (paper §4.1)
     fuzz     — bombard the guard with a pathological accelerator (paper §4)
     campaign — sharded stress/fuzz sweep over configurations × seeds
     report   — regenerate a reproduced table/figure (same as bench/main.exe)
     list     — enumerate configurations, workloads and experiments
     check    — exhaustively model-check tiny configurations

   stress, fuzz and campaign are one pipeline (Xguard_harness.Campaign): this
   file only turns flags into jobs and renders what comes back.  stress runs
   one job per seed (--seed, --seed+1, ...), fuzz likewise, campaign one per
   configuration x derived seed; Campaign.run_jobs executes them on -j N
   domains and returns the results in job order, and Campaign.merge folds
   them, so output is byte-identical for any -j; only wall-clock changes.

   The flags the three share come in two terms: the system under test
   (--config/--topology, link faults, recovery and hang budgets) and the
   observers (--trace, --trace-out, --coverage, --spans, the metrics flags).
   --trace dumps each failing run's per-address event trail with the command
   that replays it; --trace-out FILE writes every trail of the command to
   FILE, in job order.  --trace requires -j 1 (the trace ring buffer is armed
   process-wide).
*)

open Cmdliner

module Config = Xguard_harness.Config
module Tester = Xguard_harness.Random_tester
module Fuzz = Xguard_harness.Fuzz_tester
module Perf = Xguard_harness.Perf_runner
module Experiments = Xguard_harness.Experiments
module W = Xguard_workload.Workload
module Xg = Xguard_xg
module Trace = Xguard_trace.Trace
module Coverage = Xguard_trace.Coverage
module Pool = Xguard_parallel.Pool
module Campaign = Xguard_harness.Campaign
module Network = Xguard_network.Network
module Spans = Xguard_obs.Spans
module Perfetto = Xguard_obs.Perfetto
module Metrics = Xguard_obs.Metrics
module Slo = Xguard_obs.Slo
module Watchdog = Xguard_obs.Watchdog

let find_config name =
  List.find_opt (fun c -> Config.name c = name) (Config.all_configurations ())

let config_names = List.map Config.name (Config.all_configurations ())

let find_workload name = List.find_opt (fun w -> w.W.name = name) (W.all ())

let config_arg =
  let doc =
    "System configuration, one of: " ^ String.concat ", " config_names ^ "."
  in
  Arg.(value & opt string "hammer/xg-trans-1lvl" & info [ "c"; "config" ] ~docv:"CONFIG" ~doc)

let seed_arg =
  Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* ---- multi-accelerator topologies ---- *)

module Topology = Xguard_harness.Topology

let topology_arg =
  Arg.(value & opt (some string) None
       & info [ "topology" ] ~docv:"SPEC"
           ~doc:"Build a multi-accelerator, multi-guard system instead of a \
                 named configuration: \
                 $(b,HOST[:shards=N];ID=ATTR,...;ID=ATTR,...) — e.g. \
                 $(b,hammer:shards=2;gpu0=trans,cached;nic0=full,uncached,lat=12). \
                 See docs/TOPOLOGY.md.  Overrides $(b,--config).")

let parse_topology spec =
  match Topology.of_string spec with
  | Ok topo -> topo
  | Error e ->
      Printf.eprintf "bad --topology %S: %s\n" spec e;
      exit 1

(* [--topology] takes precedence over [--config]; both paths deliver
   Config.t values, so everything downstream is topology-agnostic.  [all]
   admits the campaign's "all" (the 12-configuration matrix). *)
let system_configs ?(all = false) ~topology name =
  match topology with
  | Some spec -> [ Config.of_topology (parse_topology spec) ]
  | None when all && name = "all" -> Config.all_configurations ()
  | None -> (
      match find_config name with
      | Some c -> [ c ]
      | None ->
          Printf.eprintf "unknown configuration %S\nknown: %s%s\n" name
            (if all then "all, " else "")
            (String.concat ", " config_names);
          exit 1)

(* ---- the system under test: link faults, recovery and hang budgets ---- *)

let probability name doc = Arg.(value & opt float 0.0 & info [ name ] ~docv:"P" ~doc)

let fault_drop_arg =
  probability "fault-drop"
    "Drop each XG-link message with probability $(docv); any non-zero fault \
     probability also enables the link reliability layer."

let fault_dup_arg =
  probability "fault-dup" "Duplicate each XG-link message with probability $(docv)."

let fault_corrupt_arg =
  probability "fault-corrupt"
    "Corrupt each XG-link message's payload with probability $(docv)."

let fault_delay_arg =
  probability "fault-delay"
    "Delay each XG-link message by a random 1..32 extra cycles with probability $(docv)."

let fault_script_arg =
  Arg.(value & opt_all string []
       & info [ "fault-script" ] ~docv:"SPEC"
           ~doc:"Deterministic fault $(b,KIND:N[:NEEDLE]) — hit the Nth link message \
                 whose trace text contains NEEDLE with KIND \
                 (drop|dup|corrupt|kill|delay@CYCLES).  Repeatable; implies the \
                 reliability layer.")

let reliable_link_flag =
  Arg.(value & flag
       & info [ "reliable-link" ]
           ~doc:"Run the link's seq+checksum reliability layer even with no \
                 injected faults (for overhead measurements).")

let recover_flag =
  Arg.(value & flag
       & info [ "recover" ]
           ~doc:"After a quarantine, reset the link and re-admit the accelerator \
                 on probation instead of killing it for good (default recovery \
                 policy; see DESIGN.md section 12).")

let recover_lives_arg =
  Arg.(value & opt (some int) None
       & info [ "recover-lives" ] ~docv:"K"
           ~doc:"Permanently kill the link after $(docv) quarantines.  Implies \
                 $(b,--recover).")

let cycles name doc = Arg.(value & opt (some int) None & info [ name ] ~docv:"CYCLES" ~doc)

let budget_req_arg =
  cycles "budget-req"
    "Hang budget for the request->decision phase: an accelerator request the guard \
     has not decided within $(docv) cycles counts as a link fault."

let budget_inv_arg =
  cycles "budget-inv"
    "Hang budget for the invalidate->ack phase.  Trips strictly before the coarse \
     G2c timeout when set below it."

let budget_fetch_arg = cycles "budget-fetch" "Hang budget for the host fetch->data phase."

type system = {
  config : string;
  topology : string option;
  apply : Config.t -> Config.t;  (* link faults, recovery, budgets *)
  flags : string;  (* the same options as typed, for replay commands *)
}

(* The configuration or topology plus the fault and recovery knobs.  Every
   knob defaults to the historical behaviour: no flag, no config change,
   byte-identical runs. *)
let system_term config_arg =
  let pack config topology drop dup corrupt delay scripts reliable recover lives breq
      binv bfetch =
    let scripts_parsed =
      List.map
        (fun s ->
          match Network.Fault.script_of_string s with
          | Ok sc -> sc
          | Error e ->
              Printf.eprintf "bad --fault-script %S: %s\n" s e;
              exit 1)
        scripts
    in
    let f = { Network.Fault.drop; duplicate = dup; corrupt; delay; max_delay = 32 } in
    let apply cfg =
      let cfg =
        if reliable || scripts_parsed <> [] || Network.Fault.active f then
          { cfg with Config.link_faults = Some f; Config.link_fault_scripts = scripts_parsed }
        else cfg
      in
      let cfg =
        if recover || lives <> None then
          { cfg with
            Config.recovery = Some (Xg.Xg_core.make_recovery ?permakill_after:lives ()) }
        else cfg
      in
      if breq <> None || binv <> None || bfetch <> None then
        { cfg with
          Config.budgets =
            { Xg.Xg_core.req_decide = breq; inv_ack = binv; fetch_data = bfetch } }
      else cfg
    in
    let prob name p = if p = 0.0 then [] else [ name; string_of_float p ] in
    let int name = function None -> [] | Some n -> [ name; string_of_int n ] in
    let flags =
      (match topology with None -> [] | Some t -> [ "--topology"; Filename.quote t ])
      @ prob "--fault-drop" drop @ prob "--fault-dup" dup @ prob "--fault-corrupt" corrupt
      @ prob "--fault-delay" delay
      @ List.concat_map (fun s -> [ "--fault-script"; Filename.quote s ]) scripts
      @ (if reliable then [ "--reliable-link" ] else [])
      @ (if recover then [ "--recover" ] else [])
      @ int "--recover-lives" lives @ int "--budget-req" breq @ int "--budget-inv" binv
      @ int "--budget-fetch" bfetch
    in
    { config; topology; apply; flags = String.concat "" (List.map (( ^ ) " ") flags) }
  in
  Term.(const pack $ config_arg $ topology_arg $ fault_drop_arg $ fault_dup_arg
        $ fault_corrupt_arg $ fault_delay_arg $ fault_script_arg $ reliable_link_flag
        $ recover_flag $ recover_lives_arg $ budget_req_arg $ budget_inv_arg
        $ budget_fetch_arg)

(* stress and fuzz run one configuration. *)
let system_config sys = sys.apply (List.hd (system_configs ~topology:sys.topology sys.config))

(* ---- observers: trace, coverage, spans, metrics ---- *)

let trace_flag =
  Arg.(value & flag
       & info [ "trace" ]
           ~doc:"Arm the protocol event ring buffer; on failure the event trail \
                 (and the seed that replays it) is dumped.")

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write dumped event trails to $(docv) instead of stdout (implies $(b,--trace)).")

let coverage_flag =
  Arg.(value & flag
       & info [ "coverage" ]
           ~doc:"Print per-controller (state x event) transition-coverage matrices.")

let spans_flag =
  Arg.(value & flag
       & info [ "spans" ]
           ~doc:"Arm the transaction span layer: per-segment latency-attribution \
                 tables (p50/p95/p99/max per transaction type) are appended to \
                 the report.")

let spans_out_arg =
  Arg.(value & opt (some string) None
       & info [ "spans-out" ] ~docv:"FILE"
           ~doc:"Write the span timeline and sampler series as Chrome/Perfetto \
                 trace-event JSON to $(docv) (implies $(b,--spans)).")

type metrics_opts = {
  m_out : string option;
  m_prom : string option;
  m_slo : string option;
  m_watchdog : Watchdog.config option;
}

let metrics_on m =
  m.m_out <> None || m.m_prom <> None || m.m_slo <> None || m.m_watchdog <> None

let metrics_term =
  let out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Stream periodic telemetry samples (counter deltas, gauges, \
                   span quantiles, per-guard latency histograms, availability) \
                   as xguard-metrics-v1 JSONL to $(docv).  Byte-identical for \
                   any $(b,-j).  Arms the span layer.")
  in
  let prom =
    Arg.(value & opt (some string) None
         & info [ "metrics-prom" ] ~docv:"FILE"
             ~doc:"Write an end-of-run Prometheus-style text dump to $(docv).")
  in
  let slo =
    Arg.(value & opt (some string) None
         & info [ "slo" ] ~docv:"SPEC"
             ~doc:"Judge service-level objectives after the run, e.g. \
                   $(b,xg.decide:p99<=40;seq.e2e:p99<=400;avail>=0.95). \
                   Verdicts print in the metrics block (and embed in \
                   $(b,--metrics-out)); failures never change the exit code.")
  in
  let wd =
    Arg.(value & opt ~vopt:(Some "") (some string) None
         & info [ "watchdog" ] ~docv:"SPEC"
             ~doc:"Arm the anomaly watchdog (retry storms, quiescence stalls, \
                   port starvation, gauge ceilings).  Optional $(docv) \
                   overrides the defaults: \
                   $(b,retry=64,stall=4,starve=8,ceil:NAME=LIMIT).  Trips are \
                   pure observations: they land in the OS model's anomaly \
                   ledger and the obs.watchdog coverage space, never in the \
                   simulation.")
  in
  let pack m_out m_prom m_slo wd =
    let m_watchdog =
      Option.map
        (fun spec ->
          match Watchdog.parse spec with
          | Ok c -> c
          | Error e ->
              Printf.eprintf "bad --watchdog %S: %s\n" spec e;
              exit 1)
        wd
    in
    { m_out; m_prom; m_slo; m_watchdog }
  in
  Term.(const pack $ out $ prom $ slo $ wd)

type observe = {
  trace : bool;
  trace_out : string option;
  coverage : bool;
  spans : bool;
  mopts : metrics_opts;
}

let observe_term =
  let pack trace trace_out coverage spans mopts = { trace; trace_out; coverage; spans; mopts } in
  Term.(const pack $ trace_flag $ trace_out_arg $ coverage_flag $ spans_flag $ metrics_term)

(* The trace ring buffer is armed process-wide (Trace.with_armed), so traced
   sweeps must stay on one domain. *)
let arm ?(jobs = 1) ?spans_out o =
  let trace =
    if o.trace || o.trace_out <> None then Some (Trace.create ~capacity:8192 ()) else None
  in
  if jobs > 1 && trace <> None then begin
    Printf.eprintf "--trace/--trace-out require -j 1\n";
    exit 1
  end;
  { Campaign.trace; coverage = o.coverage; spans = o.spans || spans_out <> None;
    timeline = spans_out <> None; metrics = metrics_on o.mopts; watchdog = o.mopts.m_watchdog }

let print_span_summary sum =
  match Spans.Summary.attribution_table sum with
  | None -> ()
  | Some t ->
      print_string (Xguard_stats.Table.to_string t);
      print_newline ();
      let r = Spans.Summary.replaced sum and d = Spans.Summary.dropped sum in
      if r > 0 || d > 0 then
        Printf.printf "spans: %d crossings replaced, %d timeline/sample entries dropped\n" r d

(* The stdout metrics block, delimited so tools/check_metrics.sh can strip it
   and compare against a metrics-off run byte-for-byte. *)
let emit_metrics ~mopts ~span_cells msum =
  if metrics_on mopts then begin
    let objectives =
      match mopts.m_slo with
      | None -> []
      | Some spec -> (
          match Slo.parse spec with
          | Ok objectives -> objectives
          | Error e ->
              Printf.eprintf "bad --slo %S: %s\n" spec e;
              exit 1)
    in
    let verdicts =
      Slo.evaluate objectives ~span_cells
        ~guard_hists:(Metrics.Summary.hists msum)
        ~avail:(Metrics.Summary.avails msum)
    in
    print_string "== metrics ==\n";
    Printf.printf "metrics: %d sample(s), %d job(s)\n"
      (Metrics.Summary.samples msum)
      (List.length (Metrics.Summary.blocks msum));
    let r = Metrics.Summary.replaced msum and d = Metrics.Summary.dropped msum in
    if r > 0 || d > 0 then
      Printf.printf "metrics: %d open entries replaced, %d samples dropped\n" r d;
    if mopts.m_watchdog <> None then begin
      match Metrics.Summary.trip_counts msum with
      | [] -> print_string "watchdog: no anomalies\n"
      | trips ->
          List.iter
            (fun (rule, n) -> Printf.printf "watchdog: %-14s %d trip(s)\n" rule n)
            trips
    end;
    if objectives <> [] then begin
      print_string (Xguard_stats.Table.to_string (Slo.to_table verdicts));
      let met = List.length (List.filter (fun v -> v.Slo.v_pass) verdicts) in
      Printf.printf "slo: %s (%d/%d objectives met)\n"
        (if Slo.passed verdicts then "PASS" else "FAIL")
        met (List.length verdicts)
    end;
    Option.iter
      (fun file ->
        let oc = open_out file in
        Metrics.write_jsonl oc ~period:Xguard_harness.System.sampler_period ~span_cells
          ~verdicts msum;
        close_out oc;
        Printf.printf "metrics stream written to %s\n" file)
      mopts.m_out;
    Option.iter
      (fun file ->
        let oc = open_out file in
        Metrics.write_prom oc ~span_cells msum;
        close_out oc;
        Printf.printf "prometheus dump written to %s\n" file)
      mopts.m_prom;
    print_string "== end metrics ==\n"
  end

(* Span tables, the --spans-out timeline and the metrics block of a run's
   merged totals. *)
let emit_observed (obs : Campaign.observers) ~mopts ~spans_out (t : Campaign.totals) =
  if obs.Campaign.spans then print_span_summary t.Campaign.spans;
  Option.iter
    (fun file ->
      Perfetto.write_file file t.Campaign.timelines;
      Printf.printf "span timeline written to %s\n" file)
    spans_out;
  emit_metrics ~mopts ~span_cells:(Spans.Summary.cells t.Campaign.spans) t.Campaign.metrics

(* Print dumped trails, or write them to --trace-out: the command's first
   trail truncates the file and later ones append, so it holds them all. *)
let trail_printer trace_out =
  let started = ref false in
  fun (header, text) ->
    if text <> "" then
      match trace_out with
      | None -> Printf.printf "%s\n%s\n" header text
      | Some file ->
          let oc =
            if !started then open_out_gen [ Open_wronly; Open_append ] 0o644 file
            else open_out file
          in
          started := true;
          Printf.fprintf oc "%s\n%s\n" header text;
          close_out oc;
          Printf.printf "event trail written to %s\n" file

let print_coverage_sets sets =
  List.iter
    (fun (_, space, groups) ->
      print_string (Coverage.to_string (Coverage.analyze space groups));
      print_newline ())
    sets

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Fan independent runs out over $(docv) worker domains (1 = serial). \
                 Results are merged in job order, so output is byte-identical for \
                 any $(docv).")

(* One job per seed, [seed], [seed + 1], ... *)
let seed_jobs ~seed ~seeds cfg work =
  Array.init seeds (fun i ->
      let s = seed + i in
      { Campaign.cfg; seed = s; label = Printf.sprintf "seed %d" s; work })

(* One line per seed, in seed order; a crashed job reports as a failure
   instead of killing the sweep. *)
let print_seeds ~seed ~line results =
  Array.iteri
    (fun i -> function
      | Pool.Failed e -> Printf.printf "seed %-6d CRASH %s FAIL\n" (seed + i) e
      | Pool.Done r -> line r)
    results

(* ---- run ---- *)

let run_cmd =
  let workload_arg =
    let doc = "Workload: streaming, blocked, graph, write-coalesce, producer-consumer." in
    Arg.(value & opt string "blocked" & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc)
  in
  let action config topology workload seed trace trace_out spans spans_out mopts =
    let cfg = { (List.hd (system_configs ~topology config)) with Config.seed } in
    match find_workload workload with
    | None ->
        Printf.eprintf "unknown workload %S\n" workload;
        exit 1
    | Some w -> (
        let obs = arm ?spans_out { trace; trace_out; coverage = false; spans; mopts } in
        try
          let r, seen =
            Campaign.observe obs ~label:"run" (fun () ->
                Perf.run ?trace:obs.Campaign.trace cfg w)
          in
          Printf.printf "configuration      %s\n" r.Perf.config_name;
          Printf.printf "workload           %s (%s)\n" w.W.name w.W.description;
          Printf.printf "cycles             %d\n" r.Perf.cycles;
          Printf.printf "accel accesses     %d\n" r.Perf.accel_accesses;
          Printf.printf "mean latency       %.1f cycles\n" r.Perf.mean_accel_latency;
          Printf.printf "p99 latency        %d cycles\n" r.Perf.p99_accel_latency;
          Printf.printf "host bytes         %d\n" r.Perf.host_bytes;
          Printf.printf "link bytes         %d\n" r.Perf.link_bytes;
          Printf.printf "guard violations   %d\n" r.Perf.violations;
          emit_observed obs ~mopts ~spans_out
            {
              Campaign.empty with
              spans = seen.Campaign.span_summary;
              timelines = Option.to_list (Option.map (fun rc -> (w.W.name, rc)) seen.recorder);
              metrics = seen.metrics_summary;
            }
        with e ->
          let last = 60 in
          Option.iter
            (fun tr ->
              trail_printer trace_out
                ( Printf.sprintf "-- event trail, last %d events (replay with --seed %d) --"
                    last cfg.Config.seed,
                  Trace.dump ~last tr ))
            obs.trace;
          Printf.eprintf "run failed: %s\n" (Printexc.to_string e);
          exit 1)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a workload on one configuration")
    Term.(const action $ config_arg $ topology_arg $ workload_arg $ seed_arg
          $ trace_flag $ trace_out_arg $ spans_flag $ spans_out_arg $ metrics_term)

(* ---- stress ---- *)

let stress_cmd =
  let ops_arg =
    Arg.(value & opt int 500 & info [ "ops" ] ~docv:"N" ~doc:"Operations per core.")
  in
  let seeds_arg =
    Arg.(value & opt int 5 & info [ "seeds" ] ~docv:"N" ~doc:"Number of seeds to sweep.")
  in
  let line (r : Campaign.result) =
    let o = match r.outcome with Stressed o -> o | Fuzzed _ -> assert false in
    let cfg = r.job.cfg in
    let link_part =
      (* Empty when the link cannot fault, so fault-free output is
         byte-identical to the historical report. *)
      if r.link_faults = [] then ""
      else
        Printf.sprintf " link[inj=%d retx=%d q=%b]" (Campaign.injected_total r.link_faults)
          (Campaign.count_of r.link_faults "retransmit_frames") r.quarantined
    in
    let recovery_part =
      (* Printed only when a recovery policy or a budget is configured, so
         default runs stay byte-identical. *)
      let parts =
        (if cfg.Config.recovery <> None then
           [ Printf.sprintf "rejoins=%d kill=%b" r.rejoins r.permakilled ]
         else [])
        @
        if cfg.Config.budgets <> Xg.Xg_core.no_budgets then
          [ Printf.sprintf "trips=%d" r.budget_trips ]
        else []
      in
      if parts = [] then "" else Printf.sprintf " rec[%s]" (String.concat " " parts)
    in
    Printf.sprintf "seed %-6d ops=%-6d data_errors=%-3d deadlock=%-5b violations=%-3d %s%s%s"
      r.job.seed o.Tester.ops_completed o.Tester.data_errors o.Tester.deadlocked r.violations
      (if r.totals.failures > 0 then "FAIL" else "ok")
      link_part recovery_part
  in
  let action sys seed ops seeds jobs o spans_out =
    let cfg = system_config sys in
    let obs = arm ~jobs ?spans_out o in
    let results =
      Campaign.run_jobs ~workers:jobs obs
        ~trail_header:(fun j where ->
          Printf.sprintf "-- seed %d event trail%s (replay with --seed %d --seeds 1) --"
            j.Campaign.seed where j.Campaign.seed)
        (seed_jobs ~seed ~seeds cfg (Campaign.Stress_run { ops }))
    in
    let print_trail = trail_printer o.trace_out in
    print_seeds ~seed results ~line:(fun r ->
        Printf.printf "%s\n" (line r);
        List.iter print_trail r.totals.trails);
    let t = Campaign.totals results in
    if o.coverage then print_coverage_sets t.coverage;
    emit_observed obs ~mopts:o.mopts ~spans_out t;
    Printf.printf "%s\n" (if t.failures = 0 then "PASS" else "FAIL");
    if t.failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "stress" ~doc:"Random coherence stress test (paper section 4.1)")
    Term.(const action $ system_term config_arg $ seed_arg $ ops_arg $ seeds_arg
          $ jobs_arg $ observe_term $ spans_out_arg)

(* ---- fuzz ---- *)

let fuzz_cmd =
  let mute_arg =
    Arg.(value & flag & info [ "mute" ] ~doc:"The accelerator never answers invalidations.")
  in
  let timeout_arg =
    cycles "timeout"
      "Override the guard's invalidation timeout.  A huge value with $(b,--mute) \
       disables the paper's timeout defense and forces a deadlock, to exercise the \
       $(b,--trace) forensics path."
  in
  let seeds_arg =
    Arg.(value & opt int 1
         & info [ "seeds" ] ~docv:"N"
             ~doc:"Sweep $(docv) consecutive seeds; outcomes are merged \
                   (Fuzz_tester.merge) into one report.")
  in
  let chaos_period_arg =
    cycles "chaos-period"
      "Cycles between chaos-accelerator injections (smaller = denser bombardment)."
  in
  let chaos_respond_arg =
    Arg.(value & opt (some float) None
         & info [ "chaos-respond-prob" ] ~docv:"P"
             ~doc:"Probability the chaos accelerator answers an Invalidate at all \
                   (with a random, possibly wrong, response).  0.0 never answers — \
                   the G2c-timeout path.")
  in
  let chaos_requests_only_flag =
    Arg.(value & flag
         & info [ "chaos-requests-only" ]
             ~doc:"Inject only syntactically valid requests, no spontaneous \
                   responses.")
  in
  let chaos_tarpit_arg =
    cycles "chaos-tarpit"
      "Slow-but-honest mode: answer every Invalidate with a correct Inv_ack exactly \
       $(docv) cycles late.  With $(b,--budget-inv) below $(docv), every invalidation \
       trips the budget; without budgets only the coarse G2c timeout can notice. \
       Overrides $(b,--chaos-respond-prob)."
  in
  let chaos_term =
    (* --mute is shorthand for the never-answer chaos shape; explicit chaos
       flags compose with (and refine) it. *)
    let pack mute period respond requests_only tarpit =
      {
        Campaign.period;
        respond_probability = (if mute then Some 0.0 else respond);
        requests_only = (if mute || requests_only then Some true else None);
        tarpit;
      }
    in
    Term.(const pack $ mute_arg $ chaos_period_arg $ chaos_respond_arg
          $ chaos_requests_only_flag $ chaos_tarpit_arg)
  in
  let line (r : Campaign.result) =
    let o = match r.outcome with Fuzzed o -> o | Stressed _ -> assert false in
    Printf.printf
      "seed %-6d chaos=%-6d ops=%d/%d crashed=%-3s deadlock=%-5b violations=%-4d %s\n"
      o.Fuzz.seed o.Fuzz.chaos_messages o.Fuzz.cpu_ops_completed o.Fuzz.cpu_ops_expected
      (match o.Fuzz.crashed with Some _ -> "yes" | None -> "no")
      o.Fuzz.deadlocked o.Fuzz.violations
      (if r.totals.failures > 0 then "FAIL" else "ok")
  in
  let action sys seed seeds jobs timeout chaos o spans_out =
    let cfg = system_config sys in
    if not (Config.uses_xg cfg) then begin
      Printf.eprintf "fuzzing needs a Crossing Guard configuration\n";
      exit 1
    end;
    let cfg = match timeout with None -> cfg | Some t -> { cfg with Config.xg_timeout = t } in
    let obs = arm ~jobs ?spans_out o in
    let results =
      Campaign.run_jobs ~workers:jobs obs
        ~trail_header:(fun j where ->
          Printf.sprintf "-- failure event trail%s (replay with --seed %d) --" where
            j.Campaign.seed)
        (* 300 checked CPU operations per core, the fuzz tester's default. *)
        (seed_jobs ~seed ~seeds cfg (Campaign.Fuzz_run { cpu_ops = 300; chaos }))
    in
    print_seeds ~seed results ~line:(fun r -> if seeds > 1 then line r);
    let outcomes =
      List.filter_map
        (function Pool.Done { Campaign.outcome = Fuzzed o; _ } -> Some o | _ -> None)
        (Array.to_list results)
    in
    let m, t =
      match outcomes with
      | [] ->
          Printf.printf "no run completed\n";
          exit 1
      | first :: rest -> (List.fold_left Fuzz.merge first rest, Campaign.totals results)
    in
    Printf.printf "chaos msgs sent    %d\n" m.Fuzz.chaos_messages;
    Printf.printf "invals ignored     %d\n" m.Fuzz.invalidations_ignored;
    Printf.printf "cpu ops            %d/%d\n" m.Fuzz.cpu_ops_completed m.Fuzz.cpu_ops_expected;
    Printf.printf "crashed            %s\n"
      (match m.Fuzz.crashed with Some c -> c.Fuzz.exn_text | None -> "no");
    Printf.printf "deadlocked         %b\n" m.Fuzz.deadlocked;
    Printf.printf "violations         %d\n" m.Fuzz.violations;
    List.iter
      (fun (k, n) -> Printf.printf "  %-36s %d\n" (Xg.Os_model.error_kind_to_string k) n)
      m.Fuzz.violations_by_kind;
    if m.Fuzz.link_faults <> [] then begin
      Printf.printf "link quarantined   %b\n" m.Fuzz.quarantined;
      List.iter (fun (k, n) -> Printf.printf "  link.%-32s %d\n" k n) m.Fuzz.link_faults
    end;
    (* Gated on the flags, like the link block above, so default output
       stays byte-identical. *)
    if cfg.Config.recovery <> None then begin
      Printf.printf "link rejoins       %d\n" m.Fuzz.rejoins;
      Printf.printf "permakilled        %b\n" m.Fuzz.permakilled
    end;
    if cfg.Config.budgets <> Xg.Xg_core.no_budgets then
      Printf.printf "budget trips       %d\n" m.Fuzz.budget_trips;
    if o.coverage then print_coverage_sets t.coverage;
    emit_observed obs ~mopts:o.mopts ~spans_out t;
    List.iter (trail_printer o.trace_out) t.trails;
    if t.failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Bombard the guard with a pathological accelerator")
    Term.(const action $ system_term config_arg $ seed_arg $ seeds_arg $ jobs_arg
          $ timeout_arg $ chaos_term $ observe_term $ spans_out_arg)

(* ---- campaign ---- *)

let campaign_cmd =
  let config_arg =
    let doc =
      "Configuration to sweep, or $(b,all) for the full 12-configuration matrix. \
       Known: " ^ String.concat ", " config_names ^ "."
    in
    Arg.(value & opt string "all" & info [ "c"; "config" ] ~docv:"CONFIG" ~doc)
  in
  let seeds_arg =
    Arg.(value & opt int 20
         & info [ "seeds" ] ~docv:"N" ~doc:"Runs per configuration per campaign kind.")
  in
  let kind_arg =
    let kinds = [ ("stress", Campaign.Stress); ("fuzz", Campaign.Fuzz); ("both", Campaign.Both) ] in
    Arg.(value & opt (enum kinds) Campaign.Both
         & info [ "kind" ] ~docv:"KIND"
             ~doc:"$(b,stress) (random coherence tester, every configuration), \
                   $(b,fuzz) (chaos accelerator, XG configurations) or $(b,both).")
  in
  let ops_arg =
    Arg.(value & opt int 500
         & info [ "ops" ] ~docv:"N" ~doc:"Stress operations per core per run.")
  in
  let cpu_ops_arg =
    Arg.(value & opt int 300
         & info [ "cpu-ops" ] ~docv:"N" ~doc:"Checked CPU operations per core per fuzz run.")
  in
  let action sys seeds jobs kind ops cpu_ops seed o =
    let configs =
      List.map sys.apply (system_configs ~all:true ~topology:sys.topology sys.config)
    in
    let result =
      Campaign.run ~workers:jobs ~observers:(arm ~jobs o) ~stress_ops:ops
        ~fuzz_cpu_ops:cpu_ops ~base_seed:seed ~replay_flags:sys.flags kind ~configs ~seeds ()
    in
    let t = result.Campaign.totals in
    print_string (Campaign.render result);
    emit_metrics ~mopts:o.mopts ~span_cells:(Spans.Summary.cells t.spans) t.metrics;
    (* All trails go out under one heading. *)
    if t.trails <> [] then
      trail_printer o.trace_out
        ( "== campaign failure trails ==",
          String.concat "\n" (List.map (fun (h, t) -> h ^ "\n" ^ t) t.trails) );
    if not (Campaign.passed result) then exit 1
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Sharded stress/fuzz sweep over configurations x seeds (paper section 4)"
       ~man:
         [
           `S Manpage.s_description;
           `P "Shards the paper's evaluation matrix — configurations x seeds, for \
               the random coherence tester and the guard fuzzer — into independent \
               jobs executed by a fixed pool of worker domains.  Each job's seed is \
               derived deterministically from the base seed and the job's position, \
               outcomes are merged in job order with the pure merge functions of \
               the stats/coverage/harness layers, and the rendered report is \
               byte-identical for any $(b,-j).  A crashing job is isolated and \
               reported as a failed run for its configuration.";
         ])
    Term.(const action $ system_term config_arg $ seeds_arg $ jobs_arg $ kind_arg
          $ ops_arg $ cpu_ops_arg $ seed_arg $ observe_term)

(* ---- report ---- *)

(* The health-dashboard half of `xguard report`: merge one or more
   xguard-metrics-v1 streams (campaign shards, separate runs) into one
   terminal — and optionally HTML — health report. *)

module Table = Xguard_stats.Table
module Histogram = Xguard_stats.Histogram

let read_lines file =
  let ic =
    try open_in file
    with Sys_error e ->
      Printf.eprintf "cannot read metrics stream: %s\n" e;
      exit 1
  in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  List.rev !lines

let hist_cells h =
  let q p = match Histogram.quantile h p with None -> "-" | Some v -> Table.cell_int v in
  [ Table.cell_int (Histogram.count h); q 0.5; q 0.99; q 1.0 ]

(* Sum availability triples per guard, first-seen order. *)
let avail_rows avails =
  List.fold_left
    (fun acc (g, down, now) ->
      let rec bump = function
        | [] -> [ (g, down, now) ]
        | (g', d', n') :: rest ->
            if g' = g then (g', d' + down, n' + now) :: rest
            else (g', d', n') :: bump rest
      in
      bump acc)
    [] avails

let health_tables rep ~objectives =
  let tables = ref [] in
  let add t = tables := t :: !tables in
  let streams = Metrics.Report.streams rep in
  let t = Table.create ~title:"Merged metric streams" ~columns:[ "stream"; "samples" ] in
  List.iter (fun (name, n) -> Table.add_row t [ name; Table.cell_int n ]) streams;
  add t;
  (match Metrics.Report.guard_hists rep with
  | [] -> ()
  | hists ->
      let t =
        Table.create ~title:"Per-guard latency (cycles)"
          ~columns:[ "guard"; "metric"; "n"; "p50"; "p99"; "max" ]
      in
      List.iter
        (fun ((guard, metric), h) -> Table.add_row t ([ guard; metric ] @ hist_cells h))
        hists;
      add t);
  (match Metrics.Report.span_cells rep with
  | [] -> ()
  | cells ->
      let t =
        Table.create ~title:"Segment latency (cycles)"
          ~columns:[ "segment"; "txn"; "n"; "p50"; "p99"; "max" ]
      in
      List.iter
        (fun (seg, txn, h) -> Table.add_row t ([ seg; txn ] @ hist_cells h))
        cells;
      add t);
  (match avail_rows (Metrics.Report.avails rep) with
  | [] -> ()
  | rows ->
      let t =
        Table.create ~title:"Guard availability"
          ~columns:[ "guard"; "down"; "cycles"; "availability" ]
      in
      List.iter
        (fun (g, down, now) ->
          let a = if now = 0 then 1.0 else 1.0 -. (float_of_int down /. float_of_int now) in
          Table.add_row t
            [ g; Table.cell_int down; Table.cell_int now; Printf.sprintf "%.4f" a ])
        rows;
      add t);
  let trips = Metrics.Report.trips rep in
  (match trips with
  | [] -> ()
  | _ ->
      let t =
        Table.create ~title:"Watchdog trips"
          ~columns:[ "rule"; "ts"; "stream"; "detail" ]
      in
      List.iter
        (fun (rule, ts, stream, detail) ->
          Table.add_row t [ rule; Table.cell_int ts; stream; detail ])
        trips;
      add t);
  (* SLO verdicts: re-judged over the merged data when --slo was given,
     otherwise the verdicts each stream embedded. *)
  let verdicts =
    match objectives with
    | [] ->
        List.map snd (Metrics.Report.verdicts rep)
    | objectives ->
        Slo.evaluate objectives
          ~span_cells:(Metrics.Report.span_cells rep)
          ~guard_hists:(Metrics.Report.guard_hists rep)
          ~avail:(Metrics.Report.avails rep)
  in
  if verdicts <> [] then
    add (Slo.to_table ~title:"SLO verdicts" verdicts);
  (List.rev !tables, verdicts, trips)

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_html_report file ~healthy ~status tables =
  let oc = open_out file in
  output_string oc
    "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n\
     <title>xguard health report</title>\n\
     <style>\n\
     body{font-family:system-ui,sans-serif;margin:2em;max-width:72em}\n\
     h1{font-size:1.4em} h2{font-size:1.1em;margin-top:1.5em}\n\
     table{border-collapse:collapse;margin:0.5em 0}\n\
     th,td{border:1px solid #ccc;padding:0.25em 0.6em;font-size:0.9em;\
     text-align:left;font-variant-numeric:tabular-nums}\n\
     th{background:#f0f0f0}\n\
     .ok{color:#0a0} .bad{color:#c00}\n\
     </style></head><body>\n<h1>xguard health report</h1>\n";
  Printf.fprintf oc "<p class=\"%s\"><strong>%s</strong></p>\n"
    (if healthy then "ok" else "bad")
    (html_escape status);
  List.iter
    (fun t ->
      Printf.fprintf oc "<h2>%s</h2>\n<table>\n<tr>" (html_escape (Table.title t));
      List.iter (fun c -> Printf.fprintf oc "<th>%s</th>" (html_escape c)) (Table.columns t);
      output_string oc "</tr>\n";
      List.iter
        (fun row ->
          output_string oc "<tr>";
          List.iter (fun c -> Printf.fprintf oc "<td>%s</td>" (html_escape c)) row;
          output_string oc "</tr>\n")
        (Table.rows t);
      output_string oc "</table>\n")
    tables;
  output_string oc "</body></html>\n";
  close_out oc

let health_report ~slo ~html files =
  let rep =
    List.fold_left
      (fun acc file ->
        match
          Metrics.Report.add_stream acc ~name:(Filename.basename file)
            (read_lines file)
        with
        | Ok rep -> rep
        | Error e ->
            Printf.eprintf "bad metrics stream %s: %s\n" file e;
            exit 1)
      Metrics.Report.empty files
  in
  let objectives =
    match slo with
    | None -> []
    | Some spec -> (
        match Slo.parse spec with
        | Ok o -> o
        | Error e ->
            Printf.eprintf "bad --slo %S: %s\n" spec e;
            exit 1)
  in
  let tables, verdicts, trips = health_tables rep ~objectives in
  let failed = List.filter (fun v -> not v.Slo.v_pass) verdicts in
  let healthy = failed = [] && trips = [] in
  let status =
    if healthy then
      Printf.sprintf "HEALTHY — %d stream(s), %d sample(s), %d/%d SLO objective(s) met"
        (List.length (Metrics.Report.streams rep))
        (Metrics.Report.samples rep)
        (List.length verdicts) (List.length verdicts)
    else
      Printf.sprintf
        "DEGRADED — %d SLO verdict(s) failing, %d watchdog trip(s) across %d stream(s)"
        (List.length failed) (List.length trips)
        (List.length (Metrics.Report.streams rep))
  in
  Printf.printf "== xguard health report ==\n%s\n\n" status;
  List.iter
    (fun t ->
      print_string (Table.to_string t);
      print_newline ())
    tables;
  Option.iter
    (fun file ->
      write_html_report file ~healthy ~status tables;
      Printf.printf "html report written to %s\n" file)
    html

let report_cmd =
  let id_arg =
    Arg.(value & pos 0 string "all" & info [] ~docv:"EXPERIMENT"
           ~doc:"Experiment id (t1 f1 f2 e1-e11 a1 a2) or 'all'.")
  in
  let quick_arg = Arg.(value & flag & info [ "quick" ] ~doc:"Reduced-size run.") in
  let metrics_files_arg =
    Arg.(value & opt_all string []
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"Merge the xguard-metrics-v1 stream in $(docv) (repeatable) \
                   into one health report — per-guard latency, availability, \
                   watchdog trips and SLO verdicts — instead of regenerating \
                   an experiment.")
  in
  let slo_arg =
    Arg.(value & opt (some string) None
         & info [ "slo" ] ~docv:"SPEC"
             ~doc:"Re-judge these objectives against the merged streams \
                   (default: show the verdicts embedded in each stream).")
  in
  let html_arg =
    Arg.(value & opt (some string) None
         & info [ "html" ] ~docv:"FILE"
             ~doc:"Also write the health report as a standalone HTML page.")
  in
  let action id quick metrics slo html =
    if metrics <> [] then health_report ~slo ~html metrics
    else
      let print (r : Experiments.report) =
        Printf.printf "== %s ==\n" r.Experiments.title;
        List.iter (fun t -> print_string (Xguard_stats.Table.to_string t); print_newline ())
          r.Experiments.tables
      in
      if id = "all" then List.iter print (Experiments.all ~quick ())
      else
        match Experiments.by_id id with
        | Some f -> print (f ~quick ())
        | None ->
            Printf.eprintf "unknown experiment %S; known: %s\n" id
              (String.concat ", " Experiments.ids);
            exit 1
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Regenerate a reproduced table/figure, or merge metric streams \
             into a health report")
    Term.(const action $ id_arg $ quick_arg $ metrics_files_arg $ slo_arg $ html_arg)

(* ---- list ---- *)

let list_cmd =
  let action () =
    Printf.printf "configurations:\n";
    List.iter (fun n -> Printf.printf "  %s\n" n) config_names;
    Printf.printf "workloads:\n";
    List.iter (fun w -> Printf.printf "  %-18s %s\n" w.W.name w.W.description) (W.all ());
    Printf.printf "experiments:\n  %s\n" (String.concat " " Experiments.ids)
  in
  Cmd.v (Cmd.info "list" ~doc:"List configurations, workloads and experiments")
    Term.(const action $ const ())

(* ---- check ---- *)

module Checker = Xguard_check.Checker

let check_cmd =
  let plan_names = List.map fst (Checker.tiny_plans ()) in
  let configs_arg =
    Arg.(value & opt_all string []
         & info [ "c"; "config" ] ~docv:"NAME"
             ~doc:("Tiny configuration(s) to check, repeatable; default all. One of: "
                   ^ String.concat ", " plan_names ^ "."))
  in
  let max_depth_arg =
    Arg.(value & opt (some int) None
         & info [ "max-depth" ] ~docv:"N" ~doc:"Decision budget per path.")
  in
  let max_states_arg =
    Arg.(value & opt (some int) None
         & info [ "max-states" ] ~docv:"N" ~doc:"Distinct-fingerprint budget.")
  in
  let no_por_flag =
    Arg.(value & flag
         & info [ "no-por" ]
             ~doc:"Branch on every same-cycle candidate instead of firing \
                   provably-commuting events directly (bigger but \
                   reduction-free state graph).")
  in
  let budget_arg =
    Arg.(value & opt (some float) None
         & info [ "budget" ] ~docv:"SECONDS"
             ~doc:"Wall-clock budget: configurations not yet started when it \
                   expires are skipped (exploration in progress is finished).")
  in
  let baseline_arg =
    Arg.(value & opt (some string) None
         & info [ "baseline" ] ~docv:"FILE"
             ~doc:"Compare each summary against $(docv) and fail on any drift \
                   in state/transition counts or set digests.")
  in
  let write_baseline_arg =
    Arg.(value & opt (some string) None
         & info [ "write-baseline" ] ~docv:"FILE"
             ~doc:"Write the summaries to $(docv) in baseline format.")
  in
  let replay_arg =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"TRAIL"
             ~doc:"Re-execute one counterexample trail (decision indices \
                   separated by ';' or ',') on the selected configuration \
                   with the event trace armed, and dump the trail.")
  in
  let coverage_pairs_flag =
    Arg.(value & flag
         & info [ "coverage" ]
             ~doc:"Accumulate and print every (state x event) coverage pair \
                   hit anywhere in the explored tree, per space (implies -j 1).")
  in
  let baseline_line name (s : Checker.summary) =
    Printf.sprintf
      "{ \"name\": %S, \"states\": %d, \"transitions\": %d, \"states_md5\": %S, \"edges_md5\": %S }"
      name s.Checker.states s.Checker.transitions s.Checker.states_digest
      s.Checker.edges_digest
  in
  let parse_baseline file =
    let ic = open_in file in
    let entries = ref [] in
    (try
       while true do
         let line = String.trim (input_line ic) in
         let line =
           if String.length line > 0 && line.[String.length line - 1] = ',' then
             String.sub line 0 (String.length line - 1)
           else line
         in
         if String.length line > 8 && String.sub line 0 8 = "{ \"name\"" then
           Scanf.sscanf line
             "{ %S: %S, %S: %d, %S: %d, %S: %S, %S: %S }"
             (fun _ name _ states _ transitions _ sd _ ed ->
               entries := (name, (states, transitions, sd, ed)) :: !entries)
       done
     with End_of_file -> close_in ic);
    List.rev !entries
  in
  let action configs max_depth max_states no_por jobs budget baseline write_baseline
      replay coverage =
    let plans =
      let all = Checker.tiny_plans () in
      match configs with
      | [] -> all
      | names ->
          List.map
            (fun n ->
              match List.assoc_opt n all with
              | Some p -> (n, p)
              | None ->
                  Printf.eprintf "unknown check configuration %S\nknown: %s\n" n
                    (String.concat ", " plan_names);
                  exit 1)
            names
    in
    let adjust (name, p) =
      ( name,
        {
          p with
          Checker.max_depth = Option.value ~default:p.Checker.max_depth max_depth;
          max_states = Option.value ~default:p.Checker.max_states max_states;
          por = (not no_por) && p.Checker.por;
        } )
    in
    let plans = List.map adjust plans in
    match replay with
    | Some spec -> (
        let name, plan =
          match plans with
          | [ np ] -> np
          | _ ->
              Printf.eprintf "--replay needs exactly one --config\n";
              exit 1
        in
        let trail =
          String.split_on_char ';' (String.concat ";" (String.split_on_char ',' spec))
          |> List.filter (fun s -> String.trim s <> "")
          |> List.map (fun s -> int_of_string (String.trim s))
        in
        let outcome, events = Checker.replay plan trail in
        List.iter (fun e -> Format.printf "%a@." Trace.pp_event e) events;
        match outcome with
        | `Violation m ->
            Printf.printf "replay(%s): VIOLATION %s\n" name m;
            exit 1
        | `Terminal -> Printf.printf "replay(%s): terminal, no violation\n" name
        | `Incomplete ->
            Printf.printf "replay(%s): trail exhausted before a terminal\n" name)
    | None ->
        let t_start = Unix.gettimeofday () in
        let failed = ref false in
        let results = ref [] in
        List.iter
          (fun (name, plan) ->
            let elapsed = Unix.gettimeofday () -. t_start in
            match budget with
            | Some b when elapsed > b ->
                Printf.printf "%-20s SKIPPED (budget %.0fs exhausted)\n" name b
            | _ ->
                let t0 = Unix.gettimeofday () in
                let r, pairs =
                  if coverage then
                    let r, pairs = Checker.covered_pairs plan in
                    (r, Some pairs)
                  else (Checker.explore ~workers:jobs plan, None)
                in
                let dt = Unix.gettimeofday () -. t0 in
                let s = r.Checker.summary and d = r.Checker.diagnostics in
                results := (name, s) :: !results;
                Printf.printf
                  "%-20s states=%d transitions=%d paths=%d decisions=%d \
                   por-collapsed=%d deepest=%d%s  (%.2fs)\n"
                  name s.Checker.states s.Checker.transitions d.Checker.paths
                  d.Checker.decisions d.Checker.por_collapsed d.Checker.deepest
                  (if d.Checker.truncated_depth > 0 || d.Checker.truncated_states then
                     " TRUNCATED"
                   else "")
                  dt;
                if d.Checker.truncated_depth > 0 || d.Checker.truncated_states then
                  failed := true;
                List.iter
                  (fun (v : Checker.violation) ->
                    failed := true;
                    Printf.printf
                      "  VIOLATION: %s\n  counterexample trail: %s\n  replay: xguard \
                       check -c %s --replay '%s'\n"
                      v.Checker.message
                      (String.concat ";" (List.map string_of_int v.Checker.trail))
                      name
                      (String.concat ";" (List.map string_of_int v.Checker.trail)))
                  s.Checker.violations;
                Option.iter
                  (List.iter (fun (space, keys) ->
                       Printf.printf "  %s: %d pairs\n    %s\n" space
                         (List.length keys) (String.concat " " keys)))
                  pairs)
          plans;
        let results = List.rev !results in
        Option.iter
          (fun file ->
            let oc = open_out file in
            output_string oc "{ \"configs\": [\n";
            List.iteri
              (fun i (name, s) ->
                output_string oc (baseline_line name s);
                if i < List.length results - 1 then output_string oc ",";
                output_string oc "\n")
              results;
            output_string oc "] }\n";
            close_out oc;
            Printf.printf "baseline written to %s\n" file)
          write_baseline;
        Option.iter
          (fun file ->
            let base = parse_baseline file in
            List.iter
              (fun (name, (s : Checker.summary)) ->
                match List.assoc_opt name base with
                | None -> Printf.printf "baseline: %s not pinned (new entry?)\n" name
                | Some (states, transitions, sd, ed) ->
                    if
                      states <> s.Checker.states
                      || transitions <> s.Checker.transitions
                      || sd <> s.Checker.states_digest
                      || ed <> s.Checker.edges_digest
                    then begin
                      failed := true;
                      Printf.printf
                        "baseline DRIFT on %s: expected states=%d transitions=%d \
                         got states=%d transitions=%d (digests %s)\n"
                        name states transitions s.Checker.states s.Checker.transitions
                        (if sd = s.Checker.states_digest && ed = s.Checker.edges_digest
                         then "match"
                         else "differ")
                    end)
              results)
          baseline;
        if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Exhaustively model-check the guard invariants on tiny configurations")
    Term.(const action $ configs_arg $ max_depth_arg $ max_states_arg $ no_por_flag
          $ jobs_arg $ budget_arg $ baseline_arg $ write_baseline_arg $ replay_arg
          $ coverage_pairs_flag)

let () =
  let doc = "Crossing Guard: mediating host-accelerator coherence interactions (reproduction)" in
  let info = Cmd.info "xguard" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; stress_cmd; fuzz_cmd; campaign_cmd; report_cmd; list_cmd; check_cmd ]))
