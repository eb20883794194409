(* Simulator benchmark: four workloads run through the library's entry
   points, end-to-end metrics from an untraced run, per-layer metrics from a
   separate traced run.

     bench.exe --workload stress|perf|chaos|check --seed N --seconds S
               --trace 0|1
     bench.exe selftest

   Metrics streams, span records and the GC event ring are written under
   .perfbench_out in the working directory.

   Every workload is a closed-loop batch: a fixed job set (made from the
   seed) is run round after round on a pool of at most two domains, each
   worker running one job at a time, until the time budget is spent.  Every
   round must reproduce the first round's digest.  The first round is a
   warm-up; timings and allocation come from the rounds after it, as medians
   over rounds.  Host times are reported in reference seconds (see [Speed]).
   The last stdout line is one JSON object: correct / attempted / failed /
   metrics. *)

module Engine = Xguard_sim.Engine
module Rng = Xguard_sim.Rng
module Group = Xguard_stats.Counter.Group
module Histogram = Xguard_stats.Histogram
module Pool = Xguard_parallel.Pool
module Config = Xguard_harness.Config
module System = Xguard_harness.System
module Random_tester = Xguard_harness.Random_tester
module Fuzz_tester = Xguard_harness.Fuzz_tester
module Perf_runner = Xguard_harness.Perf_runner
module Topology = Xguard_harness.Topology
module Workload = Xguard_workload.Workload
module Checker = Xguard_check.Checker
module Spans = Xguard_obs.Spans
module Metrics = Xguard_obs.Metrics
module Watchdog = Xguard_obs.Watchdog
module Json = Xguard_obs.Json
module Xg = Xguard_xg
module Fault = Xguard_network.Network.Fault

let now = Unix.gettimeofday

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile q xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float n)) - 1)))

let div a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* ---- box speed ----

   The benchmark runs on a share of a host whose speed drifts by up to 2x,
   in spells from a fraction of a second to tens of minutes; CPU time
   drifts with wall time, so neither is steady on its own.  Every host time
   is therefore taken against a reference kernel of the benchmark's own:
   after each job (and each set-up) the domain that ran it runs one fixed
   chunk of the kernel.  A round's speed factor is the mean chunk time over
   [nominal_s], and the round's host times are divided by it, so reported
   seconds are seconds on a box that runs a chunk in [nominal_s].  The
   kernel is not program code, so no program change can move it.  It
   allocates nothing; the few words a chunk's bookkeeping allocates are
   taken out of the allocation counts. *)
module Speed = struct
  let nominal_s = 400e-6
  let ns = Atomic.make 0
  let chunks = Atomic.make 0
  let words = Atomic.make 0

  module M = Map.Make (Int)

  (* A fixed tree to look up in, shared read-only, and for each domain a
     2 MB buffer outside the OCaml heap that chunks write through in turn,
     as allocation streams through the minor heap. *)
  let tree = List.fold_left (fun m i -> M.add (i * 7) i m) M.empty (List.init 1024 Fun.id)
  let buf_words = 1 lsl 18

  type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  let buf : (buf * int ref) Domain.DLS.key =
    Domain.DLS.new_key (fun () ->
        let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout buf_words in
        Bigarray.Array1.fill b 0;
        (b, ref 0))

  (* Tree lookups (pointer chasing, branches) and streaming writes; it
     allocates nothing. *)
  let kernel ((b : buf), pos) =
    let x = ref 12345 and acc = ref 0 in
    for i = 1 to 2500 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      if M.mem (!x land 8191) tree then incr acc;
      for j = 0 to 19 do
        Bigarray.Array1.unsafe_set b ((!pos + j) land (buf_words - 1)) (i + !acc)
      done;
      pos := !pos + 20
    done;
    !acc

  let chunk () =
    let w0 = Gc.minor_words () in
    let b = Domain.DLS.get buf in
    let t0 = now () in
    ignore (Sys.opaque_identity (kernel b));
    let d = now () -. t0 in
    let w = Gc.minor_words () -. w0 in
    ignore (Atomic.fetch_and_add ns (int_of_float (d *. 1e9)));
    ignore (Atomic.fetch_and_add chunks 1);
    ignore (Atomic.fetch_and_add words (int_of_float w))

  let reset () =
    Atomic.set ns 0;
    Atomic.set chunks 0;
    Atomic.set words 0

  (* Since [reset]: the chunks' seconds, the words they allocated, and the
     speed factor (above 1 when the box is slower than nominal). *)
  let seconds () = fi (Atomic.get ns) /. 1e9
  let words () = fi (Atomic.get words)
  let factor () = if Atomic.get chunks = 0 then 1.0 else seconds () /. fi (Atomic.get chunks) /. nominal_s
end

(* ---- benchmark-side spans (traced runs only) ----

   The traced run wraps each call the benchmark makes into a layer in a span
   named after the layer.  Spans of one job share the job's index; the job
   span is every other span's parent.  They stay in per-domain memory until
   the job ends and are written out when the run ends. *)

type span = { s_name : string; s_job : int; s_start : float; s_stop : float }

let tracing : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)
let span_job : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)
let span_buf : span list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let span name f =
  if not (Domain.DLS.get tracing) then f ()
  else begin
    let t0 = now () in
    let record () =
      let b = Domain.DLS.get span_buf in
      b := { s_name = name; s_job = Domain.DLS.get span_job; s_start = t0; s_stop = now () } :: !b
    in
    Fun.protect ~finally:record f
  end

(* ---- GC pause share from Runtime_events (traced runs only) ---- *)

module Gc_pauses = struct
  let lock = Mutex.create ()
  let cursor = ref None
  let started : (int, int64) Hashtbl.t = Hashtbl.create 4
  let total_ns = ref 0L
  let lost = ref 0

  let is_pause = function
    | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
    | _ -> false

  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun dom ts phase ->
        if is_pause phase then
          Hashtbl.replace started dom (Runtime_events.Timestamp.to_int64 ts))
      ~runtime_end:(fun dom ts phase ->
        if is_pause phase then
          match Hashtbl.find_opt started dom with
          | Some t0 ->
              Hashtbl.remove started dom;
              total_ns :=
                Int64.add !total_ns (Int64.sub (Runtime_events.Timestamp.to_int64 ts) t0)
          | None -> ())
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  (* Collects only between [start] and [stop]. *)
  let start () =
    if !cursor = None then begin
      Runtime_events.start ();
      cursor := Some (Runtime_events.create_cursor None)
    end
    else Runtime_events.resume ()

  let stop () = Runtime_events.pause ()

  let poll () =
    match !cursor with
    | None -> ()
    | Some c ->
        Mutex.lock lock;
        Fun.protect ~finally:(fun () -> Mutex.unlock lock) (fun () ->
            ignore (Runtime_events.read_poll c callbacks None))

  let seconds () = Int64.to_float !total_ns /. 1e9
end

(* ---- layer counters ---- *)

(* What one job reports about the layers it ran through, traced runs only.
   Keys are summed over the jobs of a round. *)
type counters = (string * float) list

let add_counters (acc : (string, float) Hashtbl.t) (c : counters) =
  List.iter
    (fun (k, v) ->
      Hashtbl.replace acc k (v +. Option.value ~default:0.0 (Hashtbl.find_opt acc k)))
    c

(* Host, guard and accelerator counters out of qualified "group.counter"
   names, as [System.stats_groups] and the metrics stream both name them. *)
let group_counts (kv : (string * int) list) : counters =
  let sum p = fi (List.fold_left (fun a (k, v) -> if p k then a + v else a) 0 kv) in
  let pre p k = String.starts_with ~prefix:p k in
  let suf s k = String.ends_with ~suffix:s k in
  let cpu k = pre "cpu" k in
  let xg k = (k = "xg" || pre "xg." k) && not (pre "xg.link" k) in
  [
    ("l1_miss", sum (fun k -> cpu k && suf ".miss" k));
    ("l1_hit", sum (fun k -> cpu k && (suf ".load_hit" k || suf ".store_hit" k)));
    ( "dir_stalls",
      sum (fun k ->
          (pre "directory" k && suf ".stalled_at_directory" k)
          || (pre "host.l2" k && (suf ".stalled_busy" k || suf ".stalled_for_space" k))) );
    ("xg_requests", sum (fun k -> xg k && suf ".accel_request" k));
    ("xg_invalidates", sum (fun k -> xg k && suf ".invalidate_to_accel" k));
    ( "xg_fast",
      sum (fun k -> xg k && (suf ".snoop_fast_path" k || suf ".side_channel_filtered" k)) );
    ("quarantines", sum (fun k -> xg k && suf ".quarantined" k));
  ]

let stats_kv (sys : System.t) =
  List.concat_map
    (fun (name, g) -> List.map (fun (k, v) -> (name ^ "." ^ k, v)) (Group.to_list g))
    (sys.System.stats_groups ())

let link_counts kv : counters =
  let sum s = fi (List.fold_left (fun a (k, v) -> if String.ends_with ~suffix:s k then a + v else a) 0 kv) in
  [ ("link_retx", sum "retransmit_frames"); ("link_frames", sum "frames_sent") ]

(* Accelerator cache hits: L1 from its (state, event) coverage counts, L2
   from its hit/miss statistics. *)
let accel_counts (sys : System.t) : counters =
  let l1_hit = ref 0 and l1_acc = ref 0 and l2_hit = ref 0 and l2_acc = ref 0 in
  Array.iter
    (fun (g : System.guard) ->
      Array.iter
        (fun l1 ->
          List.iter
            (fun (k, v) ->
              match String.split_on_char '.' k with
              | [ st; ev ] when st <> "B" && (ev = "Load" || ev = "Store") ->
                  l1_acc := !l1_acc + v;
                  let hit =
                    match (st, ev) with
                    | ("S" | "E" | "M"), "Load" | ("E" | "M"), "Store" -> true
                    | _ -> false
                  in
                  if hit then l1_hit := !l1_hit + v
              | _ -> ())
            (Group.to_list (Xguard_accel.L1_simple.coverage l1)))
        g.System.g_l1s;
      Option.iter
        (fun l2 ->
          let s = Xguard_accel.L2_shared.stats l2 in
          let hit = Group.get s "share_hit" + Group.get s "internal_transfer" in
          l2_hit := !l2_hit + hit;
          l2_acc := !l2_acc + hit + Group.get s "miss_below" + Group.get s "upgrade_below")
        g.System.g_l2)
    sys.System.guards;
  [
    ("accel_l1_hit", fi !l1_hit);
    ("accel_l1_access", fi !l1_acc);
    ("accel_l2_hit", fi !l2_hit);
    ("accel_l2_access", fi !l2_acc);
  ]

let guard_counts (sys : System.t) : counters =
  let over f = fi (Array.fold_left (fun a g -> a + f g.System.g_core) 0 sys.System.guards) in
  [
    ("violations", fi (Xg.Os_model.error_count sys.System.os));
    ("rejoins", over Xg.Xg_core.rejoins);
    ("budget_trips", over Xg.Xg_core.budget_trips);
  ]

(* Every counter a traced job reads off a system it can see. *)
let system_counts sys : counters =
  [
    ("host_msgs", fi (sys.System.host_net_messages ()));
    ("host_bytes", fi (sys.System.host_net_bytes ()));
    ("link_bytes", fi (sys.System.link_bytes ()));
  ]
  @ group_counts (stats_kv sys)
  @ accel_counts sys @ guard_counts sys
  @ link_counts (sys.System.link_stats ())

(* ---- workloads ---- *)

type out = {
  ops : int;
  failure : string option;
  line : string;  (** the job's simulated output, canonical text *)
  cycles : int;  (** simulated cycles *)
  events : int;  (** simulated events *)
  counters : counters;  (** traced runs only *)
  kernel : string;  (** perf: the kernel's name; else "" *)
}

type mode = { traced : bool; obs : bool }

type workload = {
  name : string;
  workers : int;
  jobs : int;
  obs_on : bool;  (** observability armed in the measured runs *)
  setup : unit -> unit;  (** one set-up, from workload start to the first event *)
  run : mode -> int -> out;
}

let events_here = Engine.events_fired_here
let verdict f = span "harness.verdict" f

(* stress: Campaign.run Stress over the 12 configurations, per job exactly as
   the campaign runs it (stress-sized caches, 6-block pool). *)
let stress_seeds = 18
let stress_ops = 125

let stress ~seed ~workers =
  let configs = Array.of_list (Config.all_configurations ()) in
  let jobs = Array.length configs * stress_seeds in
  let seeds = Pool.Seed.derive_all ~base:seed ~count:jobs in
  let prepare i =
    let s = seeds.(i) in
    let cfg = Config.stress_sized { configs.(i / stress_seeds) with Config.seed = s } in
    let sys = span "harness.build" (fun () -> System.build cfg) in
    let tester =
      span "workload.gen" (fun () ->
          Random_tester.prepare ~engine:sys.System.engine
            ~rng:(Rng.create ~seed:(s + 1))
            ~ports:(Array.append sys.System.cpu_ports sys.System.accel_ports)
            ~addresses:(Array.init 6 Addr.block) ~ops_per_core:stress_ops ())
    in
    (cfg, sys, tester)
  in
  let run mode i =
    let cfg, sys, tester = prepare i in
    let e0 = events_here () in
    let result =
      span "sim.run" (fun () -> Engine.run ~max_events:50_000_000 sys.System.engine)
    in
    let events = events_here () - e0 in
    verdict (fun () ->
        let o =
          Random_tester.finish tester
            ~drained:(match result with Engine.Drained -> true | _ -> false)
        in
        let viol = Xg.Os_model.error_count sys.System.os in
        let failure =
          if o.Random_tester.data_errors > 0 then Some "data error"
          else if o.Random_tester.deadlocked then Some "deadlock"
          else if viol > 0 then Some "guard violation"
          else None
        in
        {
          ops = o.Random_tester.ops_completed;
          failure;
          line =
            Printf.sprintf "stress %s seed=%d ops=%d errors=%d deadlock=%b violations=%d cycles=%d events=%d"
              (Config.name cfg) cfg.Config.seed o.Random_tester.ops_completed
              o.Random_tester.data_errors o.Random_tester.deadlocked viol
              o.Random_tester.cycles events;
          cycles = o.Random_tester.cycles;
          events;
          counters = (if mode.traced then ("builds", 1.0) :: system_counts sys else []);
          kernel = "";
        })
  in
  let setup () =
    ignore (Config.all_configurations (), Pool.Seed.derive_all ~base:seed ~count:jobs);
    ignore (Pool.map ~workers ~jobs:workers (fun _ -> ()));
    ignore (prepare 0)
  in
  { name = "stress"; workers; jobs; obs_on = false; setup; run }

(* perf: Perf_runner.run over 12 configurations x 6 kernels x 2 seeds.  The
   deep-MLP kernels (streaming, write-coalesce, shared-sweep) spend most of
   their events on sequencer retries, up to 19,211 events per access for
   streaming at its default length, so they are cut: streaming 2048 -> 160 accesses, write-coalesce 64 -> 10 regions,
   shared-sweep 512 -> 80 blocks.  The dependent-chain kernels keep their
   default lengths.  The traced run reports sim.events_per_op and
   seq.retries_per_op for each half, suffixed .deep_mlp and .dep_chain. *)
let perf_kernels () =
  [
    Workload.streaming ~length:160 ();
    Workload.blocked ();
    Workload.graph ();
    Workload.write_coalesce ~regions:10 ();
    Workload.producer_consumer ();
    Workload.shared_sweep ~length:80 ();
  ]

let perf_seeds = 2

let kernel_class = function
  | "streaming" | "write-coalesce" | "shared-sweep" -> "deep_mlp"
  | _ -> "dep_chain"

(* Perf_runner.run's sequential path, call by call, so the traced run can
   time each layer and read counters off the system.  Its result line must
   equal Perf_runner.run's (checked by the traced-vs-untraced digest). *)
let perf_replica (cfg : Config.t) (w : Workload.t) =
  let sys = span "harness.build" (fun () -> System.build cfg) in
  let rng = Rng.create ~seed:((cfg.Config.seed * 131) + 17) in
  let accel_streams, cpu_streams =
    span "workload.gen" (fun () ->
        let a =
          w.Workload.make_streams ~cores:(Array.length sys.System.accel_ports)
            ~rng:(Rng.split rng)
        in
        let c =
          w.Workload.cpu_streams ~cpus:(Array.length sys.System.cpu_ports)
            ~rng:(Rng.split rng)
        in
        (a, c))
  in
  let pending = ref 0 in
  let drive seq (stream : Workload.stream) =
    incr pending;
    let total = Array.length stream.Workload.accesses in
    if total = 0 then decr pending
    else begin
      let issued = ref 0 and completed = ref 0 in
      let rec top_up () =
        if !issued < total && !issued - !completed < stream.Workload.max_outstanding then begin
          let access = stream.Workload.accesses.(!issued) in
          incr issued;
          Sequencer.request seq access ~on_complete:(fun _ ~latency:_ ->
              incr completed;
              if !completed = total then decr pending else top_up ());
          top_up ()
        end
      in
      top_up ()
    end
  in
  let mk kind depth i port =
    Sequencer.create ~engine:sys.System.engine
      ~name:(Printf.sprintf "perf.%s%d" kind i)
      ~port ~max_outstanding:depth ()
  in
  let accel_seqs = Array.mapi (mk "accel" 32) sys.System.accel_ports in
  Array.iteri
    (fun i s -> if i < Array.length accel_seqs then drive accel_seqs.(i) s)
    accel_streams;
  let cpu_seqs = Array.mapi (mk "cpu" 16) sys.System.cpu_ports in
  Array.iteri (fun i s -> if i < Array.length cpu_seqs then drive cpu_seqs.(i) s) cpu_streams;
  let drained =
    span "sim.run" (fun () -> Engine.run ~max_events:200_000_000 sys.System.engine)
  in
  if drained <> Engine.Drained || !pending <> 0 then
    failwith ("perf replica did not drain: " ^ Config.name cfg);
  let lat = Histogram.create "accel.access_latency" in
  let accesses = ref 0 in
  Array.iter
    (fun seq ->
      accesses := !accesses + Sequencer.completed seq;
      List.iter
        (fun (lo, _, n) ->
          for _ = 1 to n do
            Histogram.observe lat lo
          done)
        (Histogram.buckets (Sequencer.latency seq)))
    accel_seqs;
  let xg name =
    match sys.System.xg_core with
    | Some core -> Group.get (Xg.Xg_core.stats core) name
    | None -> 0
  in
  ( {
      Perf_runner.config_name = Config.name cfg;
      workload_name = w.Workload.name;
      cycles = Engine.now sys.System.engine;
      accel_accesses = !accesses;
      mean_accel_latency = Histogram.mean lat;
      p99_accel_latency = (if Histogram.count lat > 0 then Histogram.percentile lat 0.99 else 0);
      host_bytes = sys.System.host_net_bytes ();
      link_bytes = sys.System.link_bytes ();
      xg_to_host_bytes = sys.System.xg_port_to_host_bytes ();
      put_s_messages = xg "put_s_unnecessary" + xg "put_s_forwarded";
      put_s_suppressed = xg "put_s_suppressed";
      snoop_fast_path = xg "snoop_fast_path" + xg "side_channel_filtered";
      snoop_roundtrip = xg "invalidate_to_accel";
      violations = Xg.Os_model.error_count sys.System.os;
    },
    sys )

let perf ~seed =
  let configs = Array.of_list (Config.all_configurations ()) in
  let kernels = Array.of_list (perf_kernels ()) in
  let per_config = Array.length kernels * perf_seeds in
  let jobs = Array.length configs * per_config in
  let seeds = Pool.Seed.derive_all ~base:seed ~count:jobs in
  let job i =
    ( { configs.(i / per_config) with Config.seed = seeds.(i) },
      kernels.(i mod per_config / perf_seeds) )
  in
  let run mode i =
    let cfg, w = job i in
    let cpu_ops = ref 0 in
    let counted =
      {
        w with
        Workload.cpu_streams =
          (fun ~cpus ~rng ->
            let s = w.Workload.cpu_streams ~cpus ~rng in
            cpu_ops := Array.fold_left (fun a st -> a + Array.length st.Workload.accesses) 0 s;
            s);
      }
    in
    let e0 = events_here () in
    let r, counters =
      if mode.traced then
        let r, sys = perf_replica cfg counted in
        (r, ("builds", 1.0) :: system_counts sys)
      else (Perf_runner.run cfg counted, [])
    in
    let events = events_here () - e0 in
    verdict (fun () ->
        {
          ops = r.Perf_runner.accel_accesses + !cpu_ops;
          failure = (if r.Perf_runner.violations > 0 then Some "guard violation" else None);
          line =
            Printf.sprintf
              "perf %s %s seed=%d cycles=%d accesses=%d mean=%.6f p99=%d host_bytes=%d link_bytes=%d xg_host_bytes=%d puts=%d puts_suppressed=%d fast=%d roundtrip=%d violations=%d events=%d"
              r.Perf_runner.config_name r.Perf_runner.workload_name cfg.Config.seed
              r.Perf_runner.cycles r.Perf_runner.accel_accesses r.Perf_runner.mean_accel_latency
              r.Perf_runner.p99_accel_latency r.Perf_runner.host_bytes r.Perf_runner.link_bytes
              r.Perf_runner.xg_to_host_bytes r.Perf_runner.put_s_messages
              r.Perf_runner.put_s_suppressed r.Perf_runner.snoop_fast_path
              r.Perf_runner.snoop_roundtrip r.Perf_runner.violations events;
          cycles = r.Perf_runner.cycles;
          events;
          counters;
          kernel = w.Workload.name;
        })
  in
  let setup () =
    ignore (Config.all_configurations (), perf_kernels (), Pool.Seed.derive_all ~base:seed ~count:jobs);
    let cfg, w = job 0 in
    let sys = span "harness.build" (fun () -> System.build cfg) in
    let rng = Rng.create ~seed:((cfg.Config.seed * 131) + 17) in
    ignore (w.Workload.make_streams ~cores:(Array.length sys.System.accel_ports) ~rng:(Rng.split rng));
    ignore (w.Workload.cpu_streams ~cpus:(Array.length sys.System.cpu_ports) ~rng:(Rng.split rng))
  in
  { name = "perf"; workers = 1; jobs; obs_on = false; setup; run }

(* chaos: Campaign.run Fuzz over the 8 XG configurations plus one lossy
   3-guard topology, link drop 0.02, recovery on, observability armed.  Drop
   0.02 alone never escalates to a quarantine, so on the 8 configurations a
   scripted kill of the link at its 200th message drives quarantine -> reset
   -> rejoin in every job.  The topology runs without it: with the kill on
   every guard most of its jobs deadlock (a program defect, recorded in
   LAYERS.json). *)
let chaos_topology =
  "hammer:shards=2;g0=trans,cached,drop=0.02;g1=full,cached,drop=0.02;g2=trans,uncached"

let chaos_seeds = 12
let chaos_cpu_ops = 150
let chaos_duration = 20_000

let chaos_configs () =
  let drop = { Fault.zero with Fault.drop = 0.02; max_delay = 32 } in
  let kill = Result.get_ok (Fault.script_of_string "kill:200") in
  let topo =
    match Topology.of_string chaos_topology with
    | Ok t -> Config.of_topology t
    | Error e -> failwith ("chaos topology: " ^ e)
  in
  List.filter Config.uses_xg (Config.all_configurations ())
  |> List.map (fun c -> { c with Config.link_faults = Some drop; link_fault_scripts = [ kill ] })
  |> (fun l -> l @ [ topo ])
  |> List.map (fun c -> { c with Config.recovery = Some (Xg.Xg_core.make_recovery ()) })
  |> Array.of_list

(* Job [i] -> configuration index.  The multi-guard topology (last) is the
   slowest configuration and sets job_ms.p90; its job times vary widely with
   the seed, so it runs four times as many seeds as each single-guard
   configuration for that percentile to rest on many of its jobs.  With 96
   single-guard and 48 topology jobs, job_ms.p50 falls inside the first
   group and p90 inside the second; with as many of each, p50 sat on the
   boundary between them and moved 23-43 ms with the seed. *)
let chaos_topology_seeds = 4 * chaos_seeds

let chaos_config_of configs i =
  let single = (Array.length configs - 1) * chaos_seeds in
  if i < single then i / chaos_seeds else Array.length configs - 1

let chaos ~seed =
  let configs = chaos_configs () in
  let jobs = ((Array.length configs - 1) * chaos_seeds) + chaos_topology_seeds in
  let seeds = Pool.Seed.derive_all ~base:seed ~count:jobs in
  let run mode i =
    let cfg =
      span "workload.gen" (fun () ->
          let configs = if mode.traced then chaos_configs () else configs in
          { configs.(chaos_config_of configs i) with Config.seed = seeds.(i) })
    in
    let build_s =
      if mode.traced then begin
        let t0 = now () in
        ignore (span "harness.build" (fun () -> System.build ~attach_accel:false cfg));
        now () -. t0
      end
      else 0.0
    in
    let e0 = events_here () in
    let t0 = now () in
    let o =
      span "sim.fuzz" (fun () ->
          Fuzz_tester.run cfg ~cpu_ops:chaos_cpu_ops ~chaos_duration ())
    in
    let fuzz_s = now () -. t0 in
    let events = events_here () - e0 in
    verdict (fun () ->
        let failure =
          if o.Fuzz_tester.crashed <> None then Some "crash"
          else if o.Fuzz_tester.deadlocked then Some "deadlock"
          else if o.Fuzz_tester.cpu_ops_completed < o.Fuzz_tester.cpu_ops_expected then
            Some "cpu ops incomplete"
          else None
        in
        let counts l = String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s:%d" k v) l) in
        {
          ops = o.Fuzz_tester.cpu_ops_completed + o.Fuzz_tester.chaos_messages;
          failure;
          line =
            Printf.sprintf
              "chaos %s seed=%d chaos=%d cpu_ops=%d/%d data_errors=%d violations=%d by_kind=%s deadlock=%b crashed=%b link=%s quarantined=%b rejoins=%d permakilled=%b budget_trips=%d events=%d"
              (Config.name cfg) cfg.Config.seed o.Fuzz_tester.chaos_messages
              o.Fuzz_tester.cpu_ops_completed o.Fuzz_tester.cpu_ops_expected
              o.Fuzz_tester.cpu_data_errors o.Fuzz_tester.violations
              (counts
                 (List.map
                    (fun (k, n) -> (Xg.Os_model.error_kind_to_string k, n))
                    o.Fuzz_tester.violations_by_kind))
              o.Fuzz_tester.deadlocked
              (o.Fuzz_tester.crashed <> None)
              (counts o.Fuzz_tester.link_faults) o.Fuzz_tester.quarantined
              o.Fuzz_tester.rejoins o.Fuzz_tester.permakilled o.Fuzz_tester.budget_trips
              events;
          (* Fuzz_tester reports no clock; the metrics sampler's last tick
             (500-cycle resolution) stands in for simulated cycles. *)
          cycles = 0;
          events;
          counters =
            (if mode.traced then
               [
                 ("violations", fi o.Fuzz_tester.violations);
                 ("rejoins", fi o.Fuzz_tester.rejoins);
                 ("budget_trips", fi o.Fuzz_tester.budget_trips);
                 ("builds", 1.0);
                 ("sim_run_s", Float.max 0.0 (fuzz_s -. build_s));
               ]
               @ link_counts o.Fuzz_tester.link_faults
             else []);
          kernel = "";
        })
  in
  let setup () =
    let configs = chaos_configs () in
    let seeds = Pool.Seed.derive_all ~base:seed ~count:jobs in
    let sr = Spans.create () and mr = Metrics.create ~watchdog:Watchdog.default () in
    Spans.with_armed sr (fun () ->
        Metrics.with_armed mr (fun () ->
            ignore (System.build ~attach_accel:false { configs.(0) with Config.seed = seeds.(0) })))
  in
  { name = "chaos"; workers = 1; jobs; obs_on = true; setup; run }

(* check: Checker.explore over the un-jittered tiny plans pinned in
   MODEL_BASELINE.json.  The two jittered plans take 11-18 s each on their
   own and are left out so a run holds many rounds. *)
let check_plans () =
  List.filter
    (fun (name, _) -> not (String.ends_with ~suffix:"+jitter" name))
    (Checker.tiny_plans ())
  |> Array.of_list

let load_baseline () =
  let ic = open_in_bin "MODEL_BASELINE.json" in
  let text = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  match Json.of_string text with
  | Error e -> failwith ("MODEL_BASELINE.json: " ^ e)
  | Ok j ->
      let configs = Option.fold ~none:[] ~some:Json.to_list (Json.member "configs" j) in
      List.map
        (fun c ->
          let str k = Option.bind (Json.member k c) Json.to_string_opt in
          let int k = Option.bind (Json.member k c) Json.to_int_opt in
          ( Option.get (str "name"),
            Printf.sprintf "states=%d transitions=%d states_md5=%s edges_md5=%s violations=[]"
              (Option.get (int "states")) (Option.get (int "transitions"))
              (Option.get (str "states_md5")) (Option.get (str "edges_md5")) ))
        configs

let check () =
  let plans = check_plans () in
  let baseline = load_baseline () in
  let run mode i =
    let name, plan =
      span "workload.gen" (fun () -> (if mode.traced then check_plans () else plans).(i))
    in
    let cycles = ref 0 and events = ref 0 in
    let acc = Hashtbl.create 16 in
    let collect (sys : System.t) =
      cycles := !cycles + Engine.now sys.System.engine;
      events := !events + Engine.events_fired sys.System.engine;
      if mode.traced then add_counters acc (system_counts sys)
    in
    (* Each explored path rebuilds the system inside the checker: time one
       build of the plan's configuration on its own and scale by paths. *)
    let one_build =
      if mode.traced then begin
        let t0 = now () in
        ignore (System.build plan.Checker.config);
        now () -. t0
      end
      else 0.0
    in
    let r = span "sim.explore" (fun () -> Checker.explore ~collect plan) in
    verdict (fun () ->
        let s = Checker.summary_to_string r.Checker.summary in
        let d = r.Checker.diagnostics in
        let failure =
          match List.assoc_opt name baseline with
          | _ when r.Checker.summary.Checker.violations <> [] -> Some ("checker violation: " ^ name)
          (* Armed spans add sampler events to every explored state, so the
             pinned fixed points hold only with observability off. *)
          | _ when Spans.on () -> None
          | None -> Some ("no baseline for " ^ name)
          | Some b when b <> s -> Some ("fixed point differs from MODEL_BASELINE.json: " ^ name)
          | Some _ -> None
        in
        {
          ops = r.Checker.summary.Checker.transitions;
          failure;
          line = Printf.sprintf "check %s %s" name s;
          cycles = !cycles;
          events = !events;
          counters =
            (if mode.traced then
               Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
               @ [
                   ("check_states", fi r.Checker.summary.Checker.states);
                   ("check_transitions", fi r.Checker.summary.Checker.transitions);
                   ("check_paths", fi d.Checker.paths);
                   ("check_decisions", fi d.Checker.decisions);
                   ("check_por", fi d.Checker.por_collapsed);
                   ("builds", fi d.Checker.paths);
                   ("build_s", one_build *. fi d.Checker.paths);
                 ]
             else []);
          kernel = "";
        })
  in
  let setup () =
    let plans = check_plans () in
    ignore (load_baseline ());
    let sys = System.build (snd plans.(0)).Checker.config in
    sys.System.check_enable ()
  in
  { name = "check"; workers = 1; jobs = Array.length plans; obs_on = false; setup; run }

let make_workload ~seed = function
  | "stress" -> stress ~seed ~workers:2
  | "perf" -> perf ~seed
  | "chaos" -> chaos ~seed
  | "check" -> check ()
  | w -> invalid_arg ("unknown workload " ^ w)

(* ---- rounds ---- *)

type job_result = {
  out : out;
  job_s : float;  (** host seconds; reference seconds once its round ends *)
  heap_words : int;  (** major heap size when the job ended *)
  spans : span list;
  obs : (Spans.Summary.t * Metrics.Summary.t) option;
  retries : int;  (** sequencer retries, from the job's spans when armed *)
}

type round = {
  results : job_result option array;  (** [None]: the job raised *)
  crashes : (int * string) list;  (** job index, exception text *)
  wall : float;  (** reference seconds, without the reference chunks *)
  raw_wall : float;  (** host seconds, chunks included *)
  speed : float;  (** the round's speed factor, {!Speed.factor} *)
  words : float;  (** minor + major - promoted, all domains *)
  minor_words : float;
  major_words : float;
  minor_gcs : int;
  major_gcs : int;
  digest : string;
  export_s : float;  (** observation export: summary merges + JSONL write *)
  stream_bytes : int;
  span_total : Spans.Summary.t;
}

let seg_count summary seg =
  List.fold_left
    (fun a (s, _, h) -> if s = seg then a + Histogram.count h else a)
    0 (Spans.Summary.cells summary)

let exec wl mode i =
  Domain.DLS.get span_buf := [];
  Domain.DLS.set tracing mode.traced;
  Domain.DLS.set span_job i;
  let t0 = now () in
  let out, obs =
    if mode.obs then begin
      let sr = Spans.create () and mr = Metrics.create ~watchdog:Watchdog.default () in
      let o = Spans.with_armed sr (fun () -> Metrics.with_armed mr (fun () -> wl.run mode i)) in
      (o, Some (Spans.summary sr, Metrics.summary ~label:(Printf.sprintf "%s/%d" wl.name i) mr))
    end
    else (wl.run mode i, None)
  in
  let job_s = now () -. t0 in
  let heap_words = (Gc.quick_stat ()).Gc.heap_words in
  let out =
    match obs with
    | Some (_, msum) when wl.obs_on ->
        (* Fuzz_tester keeps its clock and system private: take simulated
           cycles from the job's last metrics sample (a 500-cycle sampler
           tick) and its layer counters from the sampled counter deltas. *)
        let blocks = Metrics.Summary.blocks msum in
        let samples = List.concat_map (fun (b : Metrics.Summary.block) -> b.Metrics.Summary.b_samples) blocks in
        let cycles = List.fold_left (fun t (s : Metrics.sample) -> max t s.Metrics.m_ts) 0 samples in
        let counters =
          if not mode.traced then []
          else
            let deltas = Hashtbl.create 64 in
            List.iter
              (fun (s : Metrics.sample) ->
                Array.iter
                  (fun (k, v) ->
                    Hashtbl.replace deltas k (v + Option.value ~default:0 (Hashtbl.find_opt deltas k)))
                  s.Metrics.m_counters)
              samples;
            group_counts (Hashtbl.fold (fun k v l -> (k, v) :: l) deltas [])
        in
        { out with cycles; counters = out.counters @ counters }
    | _ -> out
  in
  let buf = Domain.DLS.get span_buf in
  let spans =
    if mode.traced then { s_name = "job"; s_job = i; s_start = t0; s_stop = t0 +. job_s } :: !buf
    else []
  in
  buf := [];
  Domain.DLS.set tracing false;
  if mode.traced then Gc_pauses.poll ();
  let retries = match obs with Some (s, _) -> seg_count s "seq.retry" | None -> 0 in
  Speed.chunk ();
  { out; job_s; heap_words; spans; obs; retries }

let out_dir = ".perfbench_out"

(* The observation pipeline's output for one round: job summaries merged in
   job order and the canonical metrics stream written out. *)
let export wl results =
  let t0 = now () in
  let spans = ref Spans.Summary.empty and metrics = ref Metrics.Summary.empty in
  Array.iter
    (function
      | Some { obs = Some (s, m); _ } ->
          spans := Spans.Summary.merge !spans s;
          metrics := Metrics.Summary.merge !metrics m
      | _ -> ())
    results;
  let file = Filename.concat out_dir (wl.name ^ ".metrics.jsonl") in
  let oc = open_out_bin file in
  Metrics.write_jsonl oc ~period:System.sampler_period
    ~span_cells:(Spans.Summary.cells !spans) ~verdicts:[] !metrics;
  let bytes = pos_out oc in
  close_out oc;
  (now () -. t0, bytes, !spans)

let run_round wl mode =
  Speed.reset ();
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let outcomes = Pool.map ~workers:wl.workers ~jobs:wl.jobs (exec wl mode) in
  let results =
    Array.map (function Pool.Done r -> Some r | Pool.Failed _ -> None) outcomes
  in
  let export_s, stream_bytes, span_total =
    if mode.obs then
      export wl results
    else (0.0, 0, Spans.Summary.empty)
  in
  let raw_wall = now () -. t0 in
  let g1 = Gc.quick_stat () in
  let speed = Speed.factor () in
  let wall = (raw_wall -. (Speed.seconds () /. fi wl.workers)) /. speed in
  (* Summaries are exported; keep no more than one round's worth alive. *)
  let results =
    Array.map (Option.map (fun r -> { r with obs = None; job_s = r.job_s /. speed })) results
  in
  let crashes =
    Array.to_list outcomes
    |> List.mapi (fun i -> function Pool.Failed m -> Some (i, m) | Pool.Done _ -> None)
    |> List.filter_map Fun.id
  in
  let lines =
    Array.mapi
      (fun i -> function
        | Pool.Done r -> r.out.line
        | Pool.Failed m -> Printf.sprintf "%s job %d crashed: %s" wl.name i m)
      outcomes
  in
  let minor = g1.Gc.minor_words -. g0.Gc.minor_words in
  let major = g1.Gc.major_words -. g0.Gc.major_words in
  let promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words in
  let ref_words = Speed.words () in
  {
    results;
    crashes;
    wall;
    raw_wall;
    speed;
    words = minor +. major -. promoted -. ref_words;
    minor_words = minor -. promoted -. ref_words;
    major_words = major;
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    digest = Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list lines)));
    export_s;
    stream_bytes;
    span_total;
  }

(* One round in each mode in turn until [seconds] is spent, so that the
   box's slow spells fall on every mode alike; the rounds of each mode, in
   the order of [modes].  GC pauses are collected in traced rounds only. *)
let run_in_turn wl modes ~seconds =
  let t0 = now () in
  let one m =
    if m.traced then Gc_pauses.start ();
    let r = run_round wl m in
    if m.traced then Gc_pauses.stop ();
    r
  in
  let rec go acc n =
    let elapsed = now () -. t0 in
    if n >= 1 && elapsed +. (elapsed /. fi n /. 2.0) >= seconds then
      List.map List.rev acc
    else go (List.map2 (fun m rs -> one m :: rs) modes acc) (n + 1)
  in
  go (List.map (fun _ -> []) modes) 0

(* Run rounds until [seconds] is spent: the next round starts only if it is
   expected to end within the budget (at least [min_rounds] always run). *)
let run_rounds ?(min_rounds = 1) wl mode ~seconds =
  let t0 = now () in
  let rec go acc n =
    let elapsed = now () -. t0 in
    let mean = if n = 0 then 0.0 else elapsed /. fi n in
    if n >= min_rounds && elapsed +. (mean /. 2.0) >= seconds then List.rev acc
    else go (run_round wl mode :: acc) (n + 1)
  in
  go [] 0

let round_ops r =
  Array.fold_left (fun a -> function Some j -> a + j.out.ops | None -> a) 0 r.results

let round_failed r =
  Array.fold_left
    (fun a -> function Some { out = { failure = Some _; _ }; _ } | None -> a + 1 | _ -> a)
    0 r.results

let round_sum f r =
  Array.fold_left (fun a -> function Some j -> a + f j.out | None -> a) 0 r.results

let failures r =
  Array.to_list r.results
  |> List.mapi (fun i -> function
       | Some { out = { failure = Some why; line; _ }; _ } -> Some (Printf.sprintf "job %d: %s (%s)" i why line)
       | Some _ -> None
       | None -> Some (Printf.sprintf "job %d crashed: %s" i (List.assoc i r.crashes)))
  |> List.filter_map Fun.id

(* ---- reporting ---- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

let json_number v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Json.quote x.m_name)
              (json_number x.m_value) (Json.quote x.m_unit))
          metrics))

let print_metrics title ms =
  Printf.printf "== %s ==\n" title;
  List.iter (fun x -> Printf.printf "  %-28s %18.6f %s\n" x.m_name x.m_value x.m_unit) ms

(* Digest of every simulated output: all rounds must agree with the first. *)
let consistent_digest rounds =
  match rounds with
  | [] -> (false, "")
  | r :: rest -> (List.for_all (fun x -> x.digest = r.digest) rest, r.digest)

(* Peak major heap of a round (the largest size seen as a job ended), median
   over the first three rounds: the major heap's size at any instant depends
   on where the collector's cycle is, and it creeps up over a process's life,
   so later rounds would tie the figure to how many rounds the box's speed
   allowed. *)
let peak_heap_mb rounds =
  List.filteri (fun i _ -> i < 3) rounds
  |> List.map (fun r ->
         let w = Array.fold_left (fun a -> function Some j -> max a j.heap_words | None -> a) 0 r.results in
         fi (w * (Sys.word_size / 8)) /. 1048576.0)
  |> median

let setups = 31

(* Median of [setups] set-ups, in reference seconds. *)
let measure_setup wl =
  Speed.reset ();
  let times =
    List.init setups (fun _ ->
        let t0 = now () in
        wl.setup ();
        let t = now () -. t0 in
        Speed.chunk ();
        t)
  in
  median times /. Speed.factor ()

(* The rounds that timings are taken from: all but the first, which also
   pays one-time initialisation (library tables, the pool's domains, a cold
   heap). *)
let measured rounds = match rounds with _ :: (_ :: _ as rest) -> rest | _ -> rounds

(* Words allocated per op in the first measured round.  At 1 worker a
   round's words are fixed by the rounds before it, not by timing, so the
   figure repeats exactly; later rounds differ from it by up to ~0.4% (lazily
   grown tables), and how many of them a run holds depends on the box's
   speed. *)
let words_per_op rounds =
  let r = List.hd (measured rounds) in
  div r.words (fi (round_ops r))

(* Each job's host time: its median over the measured rounds.  The box's
   interference comes in bursts of up to 2x, from a fraction of a second to
   tens of seconds; a median over rounds sheds the short ones. *)
let job_times rounds =
  let rounds = measured rounds in
  Array.to_list
    (Array.mapi
       (fun i _ ->
         median
           (List.filter_map (fun r -> Option.map (fun j -> j.job_s) r.results.(i)) rounds))
       (List.hd rounds).results)

(* Closed-loop throughput: the ops of one job set over the wall time of the
   round that ran them (Pool.map plus, with observability on, the export),
   median over the measured rounds.  Pool idle time and the last job's tail
   count against it. *)
let ops_per_s rounds =
  median (List.map (fun r -> div (fi (round_ops r)) r.wall) (measured rounds))

(* End-to-end metrics from an untraced run. *)
let end_to_end rounds ~setup_s =
  let first = List.hd rounds in
  let jobs_ms = List.map (fun t -> t *. 1000.0) (job_times rounds) in
  let cycles = round_sum (fun o -> o.cycles) first in
  ( [
      m "ops_per_s" "1/s" (ops_per_s rounds);
      m "job_ms.p50" "ms" (percentile 0.5 jobs_ms);
      m "job_ms.p90" "ms" (percentile 0.9 jobs_ms);
      m "words_per_op" "words" (words_per_op rounds);
      m "peak_heap_mb" "MB" (peak_heap_mb rounds);
      m "setup_s" "s" setup_s;
      m "sim_cycles" "cycles" (fi cycles);
    ],
    List.length jobs_ms )

(* [f] summed over the jobs of round [r] whose kernel satisfies [p], per op
   of those jobs. *)
let per_kernel_op r p f =
  let sum g =
    Array.fold_left (fun a -> function Some j when p j.out.kernel -> a +. g j | _ -> a) 0.0 r.results
  in
  div (sum f) (sum (fun j -> fi j.out.ops))

let events_of j = fi j.out.events
let retries_of j = fi j.retries

(* perf: events and sequencer retries per op for each kernel, from a traced
   round and an armed one. *)
let print_kernels ~traced ~armed =
  let kernels = List.map (fun w -> w.Workload.name) (perf_kernels ()) in
  Printf.printf "== perf per kernel ==\n";
  List.iter
    (fun k ->
      Printf.printf "  %-20s %-9s events/op %10.3f  retries/op %10.3f\n" k (kernel_class k)
        (per_kernel_op traced (( = ) k) events_of)
        (per_kernel_op armed (( = ) k) retries_of))
    kernels

(* Per-layer metrics from the traced rounds, the untraced rounds they are
   compared with, and rounds with observability flipped. *)
let per_layer wl ~untraced ~traced ~flipped =
  let n_traced = fi (List.length traced) in
  let per_set x = x /. n_traced in
  let acc = Hashtbl.create 64 in
  let span_s = Hashtbl.create 8 in
  List.iter
    (fun r ->
      Array.iter
        (function
          | Some j ->
              add_counters acc j.out.counters;
              List.iter
                (fun s ->
                  let d = (s.s_stop -. s.s_start) /. r.speed in
                  Hashtbl.replace span_s s.s_name
                    (d +. Option.value ~default:0.0 (Hashtbl.find_opt span_s s.s_name)))
                j.spans
          | None -> ())
        r.results)
    traced;
  let c k = per_set (Option.value ~default:0.0 (Hashtbl.find_opt acc k)) in
  let sp k = per_set (Option.value ~default:0.0 (Hashtbl.find_opt span_s k)) in
  let r0 = List.hd traced in
  let ops = fi (round_ops r0) in
  let events = fi (round_sum (fun o -> o.events) r0) in
  let per_op k = div (c k) ops in
  let sim_run_s =
    match wl.name with
    | "chaos" -> c "sim_run_s"
    | "check" -> sp "sim.explore"
    | _ -> sp "sim.run"
  in
  let build_s = if wl.name = "check" then c "build_s" else sp "harness.build" in
  let u_rate = ops_per_s untraced in
  let t_rate = ops_per_s traced in
  let med f rs = median (List.map f (measured rs)) in
  let armed_vs_not a b = if wl.obs_on then div a b else div b a in
  let obs_wall = armed_vs_not (med (fun r -> r.wall) untraced) (med (fun r -> r.wall) flipped) in
  let obs_words = armed_vs_not (med (fun r -> r.words) untraced) (med (fun r -> r.words) flipped) in
  let armed_round = List.hd (if wl.obs_on then untraced else flipped) in
  let cells = Spans.Summary.cells armed_round.span_total in
  let seg_hist seg =
    List.fold_left
      (fun acc (s, _, h) ->
        if s = seg then Some (match acc with None -> h | Some a -> Histogram.merge a h) else acc)
      None cells
  in
  let seg_q seg q = match seg_hist seg with Some h when Histogram.count h > 0 -> fi (Histogram.percentile h q) | _ -> 0.0 in
  let seg_n seg = match seg_hist seg with Some h -> fi (Histogram.count h) | None -> 0.0 in
  let armed_ops = fi (round_ops armed_round) in
  let retries = seg_n "seq.retry" and accepted = seg_n "seq.queue" in
  (* perf only: the same figures for each kernel class on its own. *)
  let class_per_op r cls f =
    per_kernel_op r (fun k -> k <> "" && kernel_class k = cls) f
  in
  let job_sum = List.fold_left (fun a r -> a +. Array.fold_left (fun a -> function Some j -> a +. j.job_s | None -> a) 0.0 r.results) 0.0 untraced in
  let pool_wall = List.fold_left (fun a r -> a +. r.wall -. r.export_s) 0.0 untraced in
  let n_untraced = fi (List.length untraced) in
  let sum_u f = List.fold_left (fun a r -> a +. f r) 0.0 untraced in
  let u_ops = sum_u (fun r -> fi (round_ops r)) in
  let traced_wall = List.fold_left (fun a r -> a +. r.raw_wall) 0.0 traced in
  [
    m "harness.build_s" "s" build_s;
    m "harness.builds" "count" (c "builds");
    m "harness.verdict_s" "s" (sp "harness.verdict");
    m "workload.gen_s" "s" (sp "workload.gen");
    m "sim.run_s" "s" sim_run_s;
    m "sim.events" "count" events;
    m "sim.events_per_op" "events" (div events ops);
    m "sim.ns_per_event" "ns" (div (sim_run_s *. 1e9) events);
    m "sim.events_per_op.deep_mlp" "events" (class_per_op r0 "deep_mlp" events_of);
    m "sim.events_per_op.dep_chain" "events" (class_per_op r0 "dep_chain" events_of);
    m "seq.retries_per_op" "count" (div retries armed_ops);
    m "seq.retries_per_op.deep_mlp" "count" (class_per_op armed_round "deep_mlp" retries_of);
    m "seq.retries_per_op.dep_chain" "count" (class_per_op armed_round "dep_chain" retries_of);
    m "seq.issue_yield" "ratio" (div accepted (accepted +. retries));
    m "network.host_msgs_per_op" "count" (per_op "host_msgs");
    m "network.host_bytes_per_op" "B" (per_op "host_bytes");
    m "network.link_bytes_per_op" "B" (per_op "link_bytes");
    m "host.dir_stalls_per_op" "count" (per_op "dir_stalls");
    m "host.l1_miss_ratio" "ratio" (div (c "l1_miss") (c "l1_miss" +. c "l1_hit"));
    m "xg.requests_per_op" "count" (per_op "xg_requests");
    m "xg.invalidates_per_op" "count" (per_op "xg_invalidates");
    m "xg.snoop_fast_path_ratio" "ratio" (div (c "xg_fast") (c "xg_fast" +. c "xg_invalidates"));
    m "xg.violations" "count" (c "violations");
    m "xg.quarantines" "count" (c "quarantines");
    m "xg.rejoins" "count" (c "rejoins");
    m "xg.budget_trips" "count" (c "budget_trips");
    m "link.retransmit_ratio" "ratio" (div (c "link_retx") (c "link_frames"));
    m "accel.l1_hit_ratio" "ratio" (div (c "accel_l1_hit") (c "accel_l1_access"));
    m "accel.l2_hit_ratio" "ratio" (div (c "accel_l2_hit") (c "accel_l2_access"));
    m "obs.export_s" "s" armed_round.export_s;
    m "obs.wall_ratio" "ratio" obs_wall;
    m "obs.words_ratio" "ratio" obs_words;
    m "obs.stream_bytes_per_op" "B" (div (fi armed_round.stream_bytes) armed_ops);
    m "pool.efficiency" "ratio" (div job_sum (fi wl.workers *. pool_wall));
    m "pool.idle_s" "s" (((fi wl.workers *. pool_wall) -. job_sum) /. n_untraced);
    m "check.states" "count" (c "check_states");
    m "check.transitions" "count" (c "check_transitions");
    m "check.paths" "count" (c "check_paths");
    m "check.decisions" "count" (c "check_decisions");
    m "check.states_per_decision" "ratio" (div (c "check_states") (c "check_decisions"));
    m "check.por_collapsed" "count" (c "check_por");
    m "gc.minor_words_per_op" "words" (div (sum_u (fun r -> r.minor_words)) u_ops);
    m "gc.major_words_per_op" "words" (div (sum_u (fun r -> r.major_words)) u_ops);
    m "gc.minor_collections" "count" (sum_u (fun r -> fi r.minor_gcs) /. n_untraced);
    m "gc.major_collections" "count" (sum_u (fun r -> fi r.major_gcs) /. n_untraced);
    m "gc.pause_share" "ratio" (div (Gc_pauses.seconds ()) (fi wl.workers *. traced_wall));
    m "span.seq.e2e.p50" "cycles" (seg_q "seq.e2e" 0.5);
    m "span.seq.e2e.p99" "cycles" (seg_q "seq.e2e" 0.99);
    m "span.xg.decide.p99" "cycles" (seg_q "xg.decide" 0.99);
    m "span.host.fetch.p99" "cycles" (seg_q "host.fetch" 0.99);
    m "span.inv.roundtrip.p99" "cycles" (seg_q "inv.roundtrip" 0.99);
    m "trace.overhead" "ratio" (div u_rate t_rate);
  ]

let write_spans wl rounds =
  let file = Filename.concat out_dir (wl.name ^ ".spans.jsonl") in
  let oc = open_out_bin file in
  List.iteri
    (fun r round ->
      Array.iter
        (function
          | Some j ->
              List.iter
                (fun s ->
                  Printf.fprintf oc
                    "{\"round\":%d,\"job\":%d,\"name\":%s,\"parent\":%s,\"start_s\":%.9f,\"dur_s\":%.9f}\n"
                    r s.s_job (Json.quote s.s_name)
                    (if s.s_name = "job" then "null" else "\"job\"")
                    s.s_start (s.s_stop -. s.s_start))
                (List.rev j.spans)
          | None -> ())
        round.results)
    rounds;
  close_out oc

(* ---- main ---- *)

let verdict_of wl rounds =
  let same, digest = consistent_digest rounds in
  let attempted = List.fold_left (fun a r -> a + Array.length r.results) 0 rounds in
  let failed = List.fold_left (fun a r -> a + round_failed r) 0 rounds in
  List.iter (fun r -> List.iter (Printf.printf "FAIL %s\n") (failures r)) [ List.hd rounds ];
  if not same then Printf.printf "FAIL %s: rounds disagree on the simulated output digest\n" wl.name;
  (same && failed = 0, attempted, failed, digest)

let run_benchmark ~workload ~seed ~seconds ~trace =
  let wl = make_workload ~seed workload in
  let mode = { traced = false; obs = wl.obs_on } in
  Printf.printf "workload %s  seed %d  workers %d  jobs/round %d  observability %s\n%!" wl.name seed
    wl.workers wl.jobs (if wl.obs_on then "on" else "off");
  if not trace then begin
    (* The warm-up round comes before the set-ups as well: on a box that
       has been idle, starting a domain takes ten times as long. *)
    let t0 = now () in
    let warm_up = run_round wl mode in
    let setup_s = measure_setup wl in
    let rounds = warm_up :: run_rounds ~min_rounds:2 wl mode ~seconds:(seconds -. (now () -. t0)) in
    let correct, attempted, failed, digest = verdict_of wl rounds in
    let metrics, samples = end_to_end rounds ~setup_s in
    Printf.printf "digest %s %s  (rounds %d, job samples %d)\n" wl.name digest (List.length rounds) samples;
    let per_round f = String.concat " " (List.map f rounds) in
    Printf.printf "round ops/s, host seconds: %s\n"
      (per_round (fun r -> Printf.sprintf "%.0f" (div (fi (round_ops r)) r.raw_wall)));
    Printf.printf "round speed factor: %s\n" (per_round (fun r -> Printf.sprintf "%.3f" r.speed));
    Printf.printf "round ops/s, reference seconds: %s\n"
      (per_round (fun r -> Printf.sprintf "%.0f" (div (fi (round_ops r)) r.wall)));
    print_metrics (wl.name ^ " end to end") metrics;
    Printf.printf "  %-28s %18.6f ratio (failed %d / attempted %d)\n" "fail_ratio"
      (div (fi failed) (fi attempted)) failed attempted;
    print_endline (result_json ~correct ~attempted ~failed metrics);
    correct
  end
  else begin
    (* Untraced, traced and observability-flipped rounds in turn; the last
       give the obs ratios. *)
    let modes = [ mode; { mode with traced = true }; { mode with obs = not wl.obs_on } ] in
    let untraced, traced, flipped =
      match run_in_turn wl modes ~seconds with
      | [ u; t; f ] -> (u, t, f)
      | _ -> assert false
    in
    Gc_pauses.poll ();
    if !Gc_pauses.lost > 0 then
      Printf.printf "note: %d GC events lost from the ring; gc.pause_share is a lower bound\n"
        !Gc_pauses.lost;
    let correct_u, att_u, fail_u, digest_u = verdict_of wl untraced in
    let correct_t, att_t, fail_t, digest_t = verdict_of wl traced in
    let events rs = round_sum (fun o -> o.events) (List.hd rs) in
    let same = digest_u = digest_t && events untraced = events traced in
    if not same then
      Printf.printf "FAIL %s: traced run differs from untraced run (digest %s vs %s, events %d vs %d)\n"
        wl.name digest_u digest_t (events untraced) (events traced);
    List.iter
      (Printf.printf "FAIL %s with observability %s: %s\n" wl.name
         (if wl.obs_on then "off" else "on"))
      (List.concat_map failures flipped);
    write_spans wl traced;
    let metrics = per_layer wl ~untraced ~traced ~flipped in
    Printf.printf "digest %s %s  (untraced rounds %d, traced rounds %d)\n" wl.name digest_t
      (List.length untraced) (List.length traced);
    print_metrics (wl.name ^ " per layer (traced run)") metrics;
    if wl.name = "perf" then print_kernels ~traced:(List.hd traced) ~armed:(List.hd flipped);
    let flipped_failed = List.fold_left (fun a r -> a + round_failed r) 0 flipped in
    let correct = correct_u && correct_t && same && flipped_failed = 0 in
    print_endline
      (result_json ~correct ~attempted:(att_u + att_t) ~failed:(fail_u + fail_t) metrics);
    correct
  end

(* ---- self tests ---- *)

(* Every [stride]-th job of [wl]: a small set that still reaches every
   configuration, every perf kernel and the chaos topology. *)
let strided wl stride =
  { wl with jobs = (wl.jobs + stride - 1) / stride; run = (fun mode i -> wl.run mode (i * stride)) }

let plain = { traced = false; obs = false }
let probe_set ~workers = strided (stress ~seed:1 ~workers) 9

(* words_per_op of four rounds of the self-test's stress set as a run
   reports it, then each measured round's words for information. *)
let words_probe () =
  let rounds = List.init 4 (fun _ -> run_round (probe_set ~workers:1) plain) in
  Printf.printf "%.6f %s\n" (words_per_op rounds)
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.0f" r.words) (measured rounds)))

let selftest () =
  let ok = ref true in
  let expect name cond =
    Printf.printf "%s %s\n%!" (if cond then "ok  " else "FAIL") name;
    if not cond then ok := false
  in
  let once wl mode = run_round wl mode in
  let a = once (probe_set ~workers:1) plain in
  let c = once (probe_set ~workers:2) plain in
  expect "stress digest is the same at 1 and 2 workers" (a.digest = c.digest);
  let probe () =
    let ic = Unix.open_process_args_in Sys.executable_name [| Sys.executable_name; "words-probe" |] in
    let line = input_line ic in
    ignore (Unix.close_process_in ic);
    String.split_on_char ' ' line
  in
  let p1 = probe () in
  let p2 = probe () in
  expect
    (Printf.sprintf "stress words_per_op repeats exactly across two 1-worker runs (%s)"
       (String.concat " " p1))
    (p1 = p2);
  let one = float_of_string (List.hd p1) in
  let two = words_per_op (List.init 4 (fun _ -> once (probe_set ~workers:2) plain)) in
  expect (Printf.sprintf "stress words_per_op at 2 workers (%.6f) within 1%% of 1 worker" two)
    (Float.abs (two -. one) <= 0.01 *. one);
  List.iter
    (fun wl ->
      let mode = { traced = false; obs = wl.obs_on } in
      let u = once wl mode in
      let t = once wl { mode with traced = true } in
      expect
        (Printf.sprintf "%s traced and untraced runs give the same digest and sim.events (%d jobs)"
           wl.name wl.jobs)
        (u.digest = t.digest
        && round_sum (fun o -> o.events) u = round_sum (fun o -> o.events) t);
      let failed = round_failed u in
      expect (Printf.sprintf "%s second seed runs with fail_ratio 0" wl.name) (failed = 0))
    [
      strided (stress ~seed:2 ~workers:2) 9;
      strided (perf ~seed:2) 5;
      strided (chaos ~seed:2) 8;
      check ();
    ];
  !ok

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "stress|perf|chaos|check");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 traced run for per-layer metrics");
    ]
    (function
      | "selftest" -> self := true
      | "words-probe" ->
          words_probe ();
          exit 0
      | a -> raise (Arg.Bad ("unexpected " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1 | bench.exe selftest";
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let ok =
    if !self then selftest ()
    else
      run_benchmark ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
  in
  exit (if ok then 0 else 1)
