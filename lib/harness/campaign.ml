module Rng = Xguard_sim.Rng
module Table = Xguard_stats.Table
module Coverage = Xguard_trace.Coverage
module Trace = Xguard_trace.Trace
module Pool = Xguard_parallel.Pool
module Xg = Xguard_xg
module Spans = Xguard_obs.Spans
module Metrics = Xguard_obs.Metrics
module Watchdog = Xguard_obs.Watchdog

(* ---- jobs ---- *)

type chaos = {
  period : int option;
  respond_probability : float option;
  requests_only : bool option;
  tarpit : int option;
}

let no_chaos =
  { period = None; respond_probability = None; requests_only = None; tarpit = None }

type work = Stress_run of { ops : int } | Fuzz_run of { cpu_ops : int; chaos : chaos }
type job = { cfg : Config.t; seed : int; label : string; work : work }

type observers = {
  trace : Trace.t option;
  coverage : bool;
  spans : bool;
  timeline : bool;
  metrics : bool;
  watchdog : Watchdog.config option;
}

let no_observers =
  { trace = None; coverage = false; spans = false; timeline = false; metrics = false;
    watchdog = None }

(* ---- the merge ---- *)

type totals = {
  failures : int;
  crashes : int;
  coverage : System.coverage_sets;
  spans : Spans.Summary.t;
  timelines : (string * Spans.recorder) list;
  metrics : Metrics.Summary.t;
  trails : (string * string) list;
}

let empty =
  { failures = 0; crashes = 0; coverage = []; spans = Spans.Summary.empty; timelines = [];
    metrics = Metrics.Summary.empty; trails = [] }

let merge a b =
  {
    failures = a.failures + b.failures;
    crashes = a.crashes + b.crashes;
    coverage = System.merge_coverage_sets a.coverage b.coverage;
    spans = Spans.Summary.merge a.spans b.spans;
    timelines = a.timelines @ b.timelines;
    metrics = Metrics.Summary.merge a.metrics b.metrics;
    trails = a.trails @ b.trails;
  }

type outcome = Stressed of Random_tester.outcome | Fuzzed of Fuzz_tester.outcome

type result = {
  job : job;
  outcome : outcome;
  violations : int;
  link_faults : (string * int) list;
  quarantined : bool;
  rejoins : int;
  permakilled : bool;
  budget_trips : int;
  totals : totals;
}

let totals results =
  Array.fold_left
    (fun acc -> function
      | Pool.Done r -> merge acc r.totals
      | Pool.Failed _ -> merge acc { empty with failures = 1; crashes = 1 })
    empty results

(* ---- observers ---- *)

type observed = {
  recorder : Spans.recorder option;
  span_summary : Spans.Summary.t;
  metrics_summary : Metrics.Summary.t;
}

(* One recorder per job, armed on whichever domain runs it; the summaries
   travel back as plain data and merge in job order.  Metrics always ride an
   armed span recorder: per-tick quantiles read it. *)
let observe (obs : observers) ~label f =
  if not (obs.spans || obs.metrics) then
    ( f (),
      { recorder = None; span_summary = Spans.Summary.empty;
        metrics_summary = Metrics.Summary.empty } )
  else
    let sr = Spans.create ~timeline:obs.timeline () in
    let mr = if obs.metrics then Some (Metrics.create ?watchdog:obs.watchdog ()) else None in
    let v =
      Spans.with_armed sr (fun () ->
          match mr with None -> f () | Some m -> Metrics.with_armed m f)
    in
    ( v,
      { recorder = Some sr; span_summary = Spans.summary sr;
        metrics_summary =
          (match mr with None -> Metrics.Summary.empty | Some m -> Metrics.summary ~label m) } )

(* ---- the job bodies ---- *)

let stress_system ?trace ~ops ~seed cfg =
  let cfg = Config.stress_sized { cfg with Config.seed } in
  let sys = System.build cfg in
  let ports = Array.append sys.System.cpu_ports sys.System.accel_ports in
  Option.iter Trace.clear trace;
  let run () =
    Random_tester.run ~engine:sys.System.engine
      ~rng:(Rng.create ~seed:((seed * 7) + 1))
      ~ports
      ~addresses:(Array.init 6 Addr.block)
      ~ops_per_core:ops ()
  in
  (sys, match trace with None -> run () | Some tr -> Trace.with_armed tr run)

(* Availability is noted while the job's recorder is armed, where the
   system is still visible. *)
let note_guard_avail (sys : System.t) ~now =
  if Metrics.on () then
    Array.iter
      (fun (g : System.guard) ->
        let guard = if g.System.g_id = "" then "xg" else "xg." ^ g.System.g_id in
        Metrics.note_avail ~guard
          ~down:(Xg.Xg_core.down_cycles g.System.g_core ~now)
          ~now)
      sys.System.guards

let block_of = function Some a -> Printf.sprintf " for block 0x%x" a | None -> ""

let stress_body (obs : observers) job ~ops ~trail_header =
  let sys, o = stress_system ?trace:obs.trace ~ops ~seed:job.seed job.cfg in
  note_guard_avail sys ~now:o.Random_tester.cycles;
  let violations = Xg.Os_model.error_count sys.System.os in
  let failed =
    o.Random_tester.data_errors > 0 || o.Random_tester.deadlocked || violations > 0
  in
  let trail =
    match obs.trace with
    | Some tr when failed ->
        let addr = o.Random_tester.first_error_addr in
        [ (trail_header job (block_of addr), Trace.dump ?addr ~last:60 tr) ]
    | _ -> []
  in
  let guard_sum f =
    Array.fold_left (fun n g -> n + f g.System.g_core) 0 sys.System.guards
  in
  {
    job;
    outcome = Stressed o;
    violations;
    link_faults = sys.System.link_stats ();
    quarantined = sys.System.quarantined ();
    rejoins = guard_sum Xg.Xg_core.rejoins;
    permakilled =
      Array.exists (fun g -> Xg.Xg_core.permakilled g.System.g_core) sys.System.guards;
    budget_trips = guard_sum Xg.Xg_core.budget_trips;
    totals =
      {
        empty with
        failures = Bool.to_int failed;
        coverage = (if obs.coverage then sys.System.coverage_sets () else []);
        trails = trail;
      };
  }

let fuzz_body (obs : observers) job ~cpu_ops ~chaos ~trail_header =
  Option.iter Trace.clear obs.trace;
  let o =
    Fuzz_tester.run { job.cfg with Config.seed = job.seed } ~cpu_ops
      ?chaos_period:chaos.period ?respond_probability:chaos.respond_probability
      ?requests_only:chaos.requests_only ?tarpit:chaos.tarpit ?trace:obs.trace ()
  in
  let tail =
    match o.Fuzz_tester.crashed with
    | Some c -> c.Fuzz_tester.trace_tail
    | None -> o.Fuzz_tester.trace_tail
  in
  let trail =
    if tail = [] then []
    else
      let d = o.Fuzz_tester.trace_dropped in
      let dropped_line =
        (* Forensics readers must know when the ring wrapped and the trail
           is incomplete. *)
        if d = 0 then []
        else
          [ Printf.sprintf "(%d event%s dropped — ring wrapped)" d (if d = 1 then "" else "s") ]
      in
      [
        ( trail_header job (block_of o.Fuzz_tester.first_error_addr),
          String.concat "\n" (dropped_line @ List.map Trace.format_event tail) );
      ]
  in
  {
    job;
    outcome = Fuzzed o;
    violations = o.Fuzz_tester.violations;
    link_faults = o.Fuzz_tester.link_faults;
    quarantined = o.Fuzz_tester.quarantined;
    rejoins = o.Fuzz_tester.rejoins;
    permakilled = o.Fuzz_tester.permakilled;
    budget_trips = o.Fuzz_tester.budget_trips;
    totals =
      {
        empty with
        (* Guard violations are the fuzzer's purpose, and under the default
           shared-rw pool the accelerator may legitimately write the checked
           blocks, so data checks are advisory (paper §2.3.2); only a crash
           or deadlock fails a fuzz run. *)
        failures = Bool.to_int (o.Fuzz_tester.crashed <> None || o.Fuzz_tester.deadlocked);
        coverage = (if obs.coverage then o.Fuzz_tester.coverage_sets else []);
        trails = trail;
      };
  }

let run_job
    ?(trail_header = fun job where -> Printf.sprintf "-- %s event trail%s --" job.label where)
    (obs : observers) job =
  let r, seen =
    observe obs ~label:job.label (fun () ->
        match job.work with
        | Stress_run { ops } -> stress_body obs job ~ops ~trail_header
        | Fuzz_run { cpu_ops; chaos } -> fuzz_body obs job ~cpu_ops ~chaos ~trail_header)
  in
  {
    r with
    totals =
      {
        r.totals with
        spans = seen.span_summary;
        timelines = Option.to_list (Option.map (fun rc -> (job.label, rc)) seen.recorder);
        metrics = seen.metrics_summary;
      };
  }

let run_jobs ?(workers = 1) ?trail_header obs jobs =
  Pool.map ~workers ~jobs:(Array.length jobs) (fun i -> run_job ?trail_header obs jobs.(i))

(* ---- campaigns ---- *)

type kind = Stress | Fuzz | Both

type t = {
  tables : Table.t list;
  span_tables : Table.t list;
  totals : totals;
  jobs : int;
}

let stress_configs kind configs =
  match kind with Stress | Both -> configs | Fuzz -> []

let fuzz_configs kind configs =
  match kind with
  | Fuzz | Both -> List.filter Config.uses_xg configs
  | Stress -> []

let job_count kind ~configs ~seeds =
  seeds * (List.length (stress_configs kind configs) + List.length (fuzz_configs kind configs))

let work_name = function Stress_run _ -> "stress" | Fuzz_run _ -> "fuzz"

let injected_total counts =
  List.fold_left
    (fun n (k, v) ->
      if String.length k > 9 && String.sub k 0 9 = "injected." then n + v else n)
    0 counts

let count_of counts label = Option.value ~default:0 (List.assoc_opt label counts)

(* One summary row per (configuration, work) cell: its [seeds] consecutive
   results, folded in job order. *)
let row_cells ~faulty work cell =
  let sum f =
    Array.fold_left (fun n -> function Pool.Done r -> n + f r | Pool.Failed _ -> n) 0 cell
  in
  let stress f = sum (fun r -> match r.outcome with Stressed o -> f o | Fuzzed _ -> 0) in
  let fuzz f = sum (fun r -> match r.outcome with Fuzzed o -> f o | Stressed _ -> 0) in
  let t = totals cell in
  let link =
    Array.fold_left
      (fun acc -> function Pool.Done r -> System.merge_link_stats acc r.link_faults | Pool.Failed _ -> acc)
      [] cell
  in
  (Table.cell_int (Array.length cell)
   ::
   (match work with
   | Stress_run _ -> [ Table.cell_int (stress (fun o -> o.Random_tester.ops_completed)) ]
   | Fuzz_run _ ->
       [
         Table.cell_int (fuzz (fun o -> o.Fuzz_tester.chaos_messages));
         Printf.sprintf "%d/%d"
           (fuzz (fun o -> o.Fuzz_tester.cpu_ops_completed))
           (fuzz (fun o -> o.Fuzz_tester.cpu_ops_expected));
       ]))
  @ [
      Table.cell_int
        (stress (fun o -> o.Random_tester.data_errors)
        + fuzz (fun o -> o.Fuzz_tester.cpu_data_errors));
      Table.cell_int
        (stress (fun o -> Bool.to_int o.Random_tester.deadlocked)
        + fuzz (fun o -> Bool.to_int o.Fuzz_tester.deadlocked));
      Table.cell_int (sum (fun r -> r.violations));
      Table.cell_int (t.crashes + fuzz (fun o -> Bool.to_int (o.Fuzz_tester.crashed <> None)));
    ]
  @ (if faulty then
       [
         Table.cell_int (injected_total link);
         Table.cell_int (count_of link "retransmit_frames");
         Table.cell_int (sum (fun r -> Bool.to_int r.quarantined));
       ]
     else [])
  @ [ (if t.failures = 0 then "ok" else "FAIL") ]

let run ?(workers = 1) ?(observers = no_observers) ?(stress_ops = 500)
    ?(fuzz_cpu_ops = 300) ?(base_seed = 42) ?(replay_flags = "") kind ~configs ~seeds () =
  if seeds < 0 then invalid_arg "Campaign.run: negative seed count";
  (* Jobs in a fixed order — stress before fuzz, configuration-major,
     seed-minor — each seeded by its position. *)
  let cells =
    List.map (fun c -> (c, Stress_run { ops = stress_ops })) (stress_configs kind configs)
    @ List.map
        (fun c -> (c, Fuzz_run { cpu_ops = fuzz_cpu_ops; chaos = no_chaos }))
        (fuzz_configs kind configs)
  in
  let n_jobs = seeds * List.length cells in
  let job_seeds = Pool.Seed.derive_all ~base:base_seed ~count:n_jobs in
  let jobs =
    Array.init n_jobs (fun i ->
        let cfg, work = List.nth cells (i / seeds) in
        let seed = job_seeds.(i) in
        let label = Printf.sprintf "%s/%s/seed%d" (work_name work) (Config.name cfg) seed in
        { cfg; seed; label; work })
  in
  let trail_header job where =
    let ops, caveat =
      match job.work with
      | Stress_run { ops } -> (Printf.sprintf " --ops %d" ops, "")
      | Fuzz_run { cpu_ops = 300; _ } -> ("", "")
      | Fuzz_run { cpu_ops; _ } ->
          (* The fuzz command always runs 300 checked CPU operations per core. *)
          ("", Printf.sprintf ", at 300 instead of %d CPU ops per core" cpu_ops)
    in
    Printf.sprintf "-- %s %s seed %d event trail%s (replay: xguard %s -c %s --seed %d --seeds 1%s%s%s) --"
      (Config.name job.cfg) (work_name job.work) job.seed where (work_name job.work)
      (Filename.quote (Config.name job.cfg))
      job.seed ops replay_flags caveat
  in
  let results = run_jobs ~workers ~trail_header observers jobs in
  let rows = List.mapi (fun c (cfg, work) -> (cfg, work, Array.sub results (c * seeds) seeds)) cells in
  let table work_kind ~title ~columns =
    let rows = List.filter (fun (_, w, _) -> work_name w = work_kind) rows in
    let faulty =
      List.exists
        (fun (_, _, cell) ->
          Array.exists (function Pool.Done r -> r.link_faults <> [] | Pool.Failed _ -> false) cell)
        rows
    in
    if rows = [] then []
    else begin
      let t =
        Table.create ~title:(Printf.sprintf title seeds)
          ~columns:
            (("Configuration" :: columns)
            @ (if faulty then [ "injected"; "retx"; "quarantines" ] else [])
            @ [ "result" ])
      in
      List.iter
        (fun (cfg, work, cell) -> Table.add_row t (Config.name cfg :: row_cells ~faulty work cell))
        rows;
      [ t ]
    end
  in
  let tables =
    table "stress" ~title:"Campaign: random coherence stress (%d seeds/config)"
      ~columns:[ "runs"; "ops"; "data errors"; "deadlocks"; "violations"; "crashes" ]
    @ table "fuzz" ~title:"Campaign: guard fuzzing (%d seeds/config)"
        ~columns:
          [ "runs"; "chaos msgs"; "cpu ops"; "data errors"; "deadlocks"; "violations"; "crashes" ]
  in
  let span_tables =
    (* Metrics-only runs arm span recorders for quantile sampling, but the
       attribution tables remain opt-in via [spans] so metrics never change
       the pre-existing report text. *)
    if not observers.spans then []
    else
      List.filter_map
        (fun (cfg, work, cell) ->
          Spans.Summary.attribution_table
            ~title:
              (Printf.sprintf "Latency attribution (cycles): %s %s" (work_name work)
                 (Config.name cfg))
            (totals cell).spans)
        rows
  in
  { tables; span_tables; totals = totals results; jobs = n_jobs }

let passed t = t.totals.failures = 0

let render t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun table ->
      Buffer.add_string buf (Table.to_string table);
      Buffer.add_char buf '\n')
    (t.tables @ t.span_tables);
  List.iter
    (fun (_, space, groups) ->
      Buffer.add_string buf (Coverage.to_string (Coverage.analyze space groups));
      Buffer.add_char buf '\n')
    t.totals.coverage;
  Printf.bprintf buf "jobs %d  failures %d  crashes %d\n%s\n" t.jobs t.totals.failures
    t.totals.crashes
    (if passed t then "PASS" else "FAIL");
  Buffer.contents buf
