module Engine = Xguard_sim.Engine
module Rng = Xguard_sim.Rng
module H = Xguard_host_hammer
module M = Xguard_host_mesi
module Xg = Xguard_xg
module A = Xguard_accel
module Spans = Xguard_obs.Spans
module Metrics = Xguard_obs.Metrics
module Watchdog = Xguard_obs.Watchdog

(* One Crossing Guard instance and the accelerator hierarchy behind it.  The
   legacy single-accelerator organizations build exactly one of these (with
   [g_id = ""] so every name and label renders as before); a topology config
   builds one per accelerator spec, names suffixed by the spec id. *)
type guard = {
  g_id : string;
  g_core : Xg.Xg_core.t;
  g_link : Xg.Xg_iface.Link.t;
  g_xg_node : Node.t;
  g_accel_node : Node.t;
  g_ports : Access.port array;
  g_l1s : A.L1_simple.t array;
  g_l2 : A.L2_shared.t option;
  g_internal : Xg.Xg_iface.Link.t option;
  g_perms : Xg.Perm_table.t;
}

type coverage_sets =
  (string * Xguard_trace.Coverage.space * Xguard_stats.Counter.Group.t list) list

type t = {
  config : Config.t;
  engine : Engine.t;
  rng : Rng.t;
  memory : Memory_model.t;
  perms : Xg.Perm_table.t;
  os : Xg.Os_model.t;
  cpu_ports : Access.port array;
  accel_ports : Access.port array;
  guards : guard array;
  xg_core : Xg.Xg_core.t option;
  accel_link : Xg.Xg_iface.Link.t option;
  xg_node_on_link : Node.t option;
  accel_node_on_link : Node.t option;
  accel_l1s : A.L1_simple.t array;
  accel_l2 : A.L2_shared.t option;
  accel_internal_link : Xg.Xg_iface.Link.t option;
  host_net_bytes : unit -> int;
  host_net_messages : unit -> int;
  xg_port_to_host_bytes : unit -> int;
  link_bytes : unit -> int;
  coverage_groups : unit -> (string * Xguard_stats.Counter.Group.t) list;
  coverage_sets : unit -> coverage_sets;
  stats_groups : unit -> (string * Xguard_stats.Counter.Group.t) list;
  set_host_monitor : (src:string -> dst:string -> addr:int -> text:string -> unit) -> unit;
  link_stats : unit -> (string * int) list;
  quarantined : unit -> bool;
  check_enable : unit -> unit;
  check_set_delay_chooser : (lo:int -> hi:int -> int) -> unit;
  check_fingerprint : Buffer.t -> unit;
  check_invariant : unit -> string option;
  check_quiescent_invariant : unit -> string option;
  check_cpu_ctrls : int array;
  check_accel_ctrls : int array;
}

let coverage_reports t =
  List.map
    (fun (_, space, groups) -> Xguard_trace.Coverage.analyze space groups)
    (t.coverage_sets ())

let merge_coverage_sets a b =
  let groups_of name sets =
    List.concat_map (fun (n, _, gs) -> if n = name then gs else []) sets
  in
  List.map (fun (name, space, _) -> (name, space, groups_of name a @ groups_of name b)) a
  @ List.filter (fun (name, _, _) -> not (List.exists (fun (n, _, _) -> n = name) a)) b

let merge_link_stats a b =
  List.map (fun (k, n) -> (k, n + Option.value ~default:0 (List.assoc_opt k b))) a
  @ List.filter (fun (k, _) -> not (List.mem_assoc k a)) b

(* Topology guards suffix every name with the spec id; the legacy guard
   ([id = ""]) keeps the historical names so single-guard systems stay
   byte-identical. *)
let sfx id base = if id = "" then base else base ^ "." ^ id
let guard_label g base = sfx g.g_id base

(* Trace adapter for the XG link message vocabulary (both the guard link and
   the accelerator-internal network speak it). *)
let link_tracer msg =
  (Addr.to_int (Xg.Xg_iface.msg_addr msg), Format.asprintf "%a" Xg.Xg_iface.pp_msg msg)

(* Fault-layer reporting, gated on injection actually being possible on each
   guard's link (wire cut, scripts, or a live probability) so fault-free runs
   render byte-for-byte like pre-fault builds.  Guards merge into the same
   two set names, so campaign merges keep working at any topology size. *)
let fault_coverage_sets ~guards () =
  match List.filter (fun g -> Xg.Xg_iface.Link.faults_active g.g_link) guards with
  | [] -> []
  | active ->
      [
        ( "xg.link",
          Xg.Xg_iface.Link.coverage_space,
          List.map (fun g -> Xg.Xg_iface.Link.coverage g.g_link) active );
        ( "xg.fault",
          Xg.Xg_core.fault_coverage_space,
          List.map (fun g -> Xg.Xg_core.fault_coverage g.g_core) active );
      ]

let fault_link_stats ~guards () =
  List.concat_map
    (fun g ->
      if Xg.Xg_iface.Link.faults_active g.g_link then
        let raw =
          Xguard_stats.Counter.Group.to_list (Xg.Xg_iface.Link.link_stats g.g_link)
          @ Xguard_network.Network.Fault.counts_to_list
              (Xg.Xg_iface.Link.fault_counts g.g_link)
        in
        if g.g_id = "" then raw else List.map (fun (k, v) -> (g.g_id ^ "." ^ k, v)) raw
      else [])
    guards

let any_quarantined ~guards () =
  List.exists (fun g -> Xg.Xg_core.quarantined g.g_core) guards

(* ---- model-checker hooks (lib/check) ----

   The invariants below speak a protocol-agnostic stability lattice: [`S]
   shared, [`E] exclusive clean, [`O] owned with possible sharers, [`M]
   modified, [`T] transient (the block has an open transaction somewhere and
   is skipped — per-address invariants only apply between transactions). *)

let class_char = function `S -> 'S' | `E -> 'E' | `O -> 'O' | `M -> 'M' | `T -> 'T'

(* SWMR, single-owner and the data-value invariant over every resident copy.
   [skip] masks addresses with an open host-side transaction (directory / L2
   busy), whose copies are legitimately mid-transfer. *)
let swmr_and_value ~mem_read ~skip
    (lines : (string * (Addr.t * [ `S | `E | `O | `M | `T ] * Data.t) list) list) =
  let tbl : (Addr.t, (string * [ `S | `E | `O | `M | `T ] * Data.t) list) Hashtbl.t =
    Hashtbl.create 32
  in
  List.iter
    (fun (who, ls) ->
      List.iter
        (fun (a, st, d) ->
          let prev = match Hashtbl.find_opt tbl a with Some l -> l | None -> [] in
          Hashtbl.replace tbl a ((who, st, d) :: prev))
        ls)
    lines;
  let describe entries =
    String.concat ", "
      (List.map
         (fun (who, st, (d : Data.t)) -> Printf.sprintf "%s=%c/%d" who (class_char st) d)
         entries)
  in
  Hashtbl.fold
    (fun a entries acc ->
      match acc with
      | Some _ -> acc
      | None ->
          if skip a || List.exists (fun (_, st, _) -> st = `T) entries then None
          else
            let exclusive = List.filter (fun (_, st, _) -> st = `E || st = `M) entries in
            let owners = List.filter (fun (_, st, _) -> st <> `S) entries in
            if exclusive <> [] && List.length entries > 1 then
              Some
                (Printf.sprintf "SWMR violated at block %d: %s" (Addr.to_int a)
                   (describe entries))
            else if List.length owners > 1 then
              Some
                (Printf.sprintf "multiple owners of block %d: %s" (Addr.to_int a)
                   (describe entries))
            else
              let expected =
                match owners with
                | [ (_, (`O | `M), d) ] -> Some d
                | [ (_, `E, _) ] -> None (* sole copy; nothing shares it *)
                | _ -> Some (mem_read a)
              in
              (match expected with
              | None -> None
              | Some (v : Data.t) ->
                  List.fold_left
                    (fun acc (who, st, (d : Data.t)) ->
                      match acc with
                      | Some _ -> acc
                      | None ->
                          if st = `S && d <> v then
                            Some
                              (Printf.sprintf
                                 "data-value violated at block %d: %s holds %d, coherent value is %d"
                                 (Addr.to_int a) who d v)
                          else None)
                    None entries))
    tbl None

(* Guard inclusivity: with a well-behaved accelerator (the checker's), every
   stable line it holds must be in the guard's full-state table, and a line
   writable at the accelerator must be tracked writable. *)
let guard_inclusive ~core ~accel_lines =
  if Xg.Xg_core.mode core = Xg.Xg_core.Full_state then
    let tracked = Xg.Xg_core.check_tracked core in
    List.fold_left
      (fun acc (a, st, _) ->
        match acc with
        | Some _ -> acc
        | None -> (
            match st with
            | `T -> None
            | (`S | `E | `M) as st -> (
                match List.find_opt (fun (ta, _, _) -> Addr.equal ta a) tracked with
                | None ->
                    Some
                      (Printf.sprintf
                         "guard inclusivity violated: accel holds block %d untracked"
                         (Addr.to_int a))
                | Some (_, `S, _) when st <> `S ->
                    Some
                      (Printf.sprintf
                         "guard tracks block %d as S but accel holds %c" (Addr.to_int a)
                         (class_char st))
                | Some _ -> None)))
      None accel_lines
  else None

(* Widen the 4-class cache dumps into the 5-class lattice. *)
let widen_lines (ls : (Addr.t * [ `S | `E | `M | `T ] * Data.t) list) =
  (ls :> (Addr.t * [ `S | `E | `O | `M | `T ] * Data.t) list)

let no_transient_at_drain lines =
  List.fold_left
    (fun acc (who, ls) ->
      match acc with
      | Some _ -> acc
      | None ->
          List.fold_left
            (fun acc (a, st, _) ->
              match acc with
              | Some _ -> acc
              | None ->
                  if st = `T then
                    Some
                      (Printf.sprintf
                         "drained with block %d still transient in %s" (Addr.to_int a) who)
                  else None)
            acc ls)
    None lines

let first_of checks = List.fold_left (fun acc f -> match acc with Some _ -> acc | None -> f ()) None checks

let first_opt f xs =
  List.fold_left (fun acc x -> match acc with Some _ -> acc | None -> f x) None xs

(* A processor port that reaches a remote sequencer across a fixed-latency
   link in both directions: the host-side-cache organization (Figure 2b). *)
let remote_port engine ~latency (seq : Sequencer.t) =
  {
    Access.issue =
      (fun access ~on_done ->
        Engine.schedule engine ~delay:latency (fun () ->
            Sequencer.request seq access ~on_complete:(fun value ~latency:_ ->
                Engine.schedule engine ~delay:latency (fun () -> on_done value)));
        true);
    (* Never rejects, so no wake-up is ever owed. *)
    watch = ignore;
  }

(* Shape of the accelerator hierarchy behind one guard.  [No_accel] leaves
   the accelerator side of the link unregistered (fuzzer / fault injector
   takes its place); an uncached device is a [One_level] with a single-line
   buffer (sets = ways = 1). *)
type accel_shape =
  | No_accel
  | One_level of { sets : int; ways : int }
  | Two_level of { cores : int; l1_sets : int; l1_ways : int; l2_sets : int; l2_ways : int }

(* Build one guard: its ordered (or jittered) link, the core, and the
   accelerator hierarchy on top.  All naming goes through [sfx id] so the
   legacy guard ([id = ""]) is byte-identical to the pre-topology builder;
   [fault_seed] must differ per guard so per-link fault draws are
   independent. *)
let build_guard (cfg : Config.t) ~engine ~rng ~registry ~perms ~os ~host_port ~attach_core
    ~id ~mode ~ordering ~shape ~faults ~fault_scripts ~fault_seed ~perm_gauge =
  let link =
    Xg.Xg_iface.Link.create ~engine ~rng:(Rng.split rng) ~name:(sfx id "xg.link")
      ~ordering ()
  in
  Xg.Xg_iface.Link.set_tracer link link_tracer;
  (* Only the guard link carries crossing traffic; the accelerator-internal
     network below never hosts span segments. *)
  if Spans.on () then Xg.Xg_iface.Link.mark_crossing link;
  (* Per-tenant metrics series ("xg" legacy, "xg.a0" in a topology): labeling
     the guard link turns on its per-guard latency hooks, so each tenant's
     e2e / invalidate histograms are SLO-judgeable on their own. *)
  if Metrics.on () then Xg.Xg_iface.Link.set_metrics_label link (sfx id "xg");
  let xg_link_node = Node.Registry.fresh registry (sfx id "xg.link_end") in
  let accel_link_node = Node.Registry.fresh registry (sfx id "accel.link_end") in
  let rate_limiter =
    match cfg.Config.rate_limit with
    | Some (tokens_per_cycle, burst) ->
        Some (Xg.Rate_limiter.create ~engine ~tokens_per_cycle ~burst ())
    | None -> None
  in
  let core =
    Xg.Xg_core.create ~engine ~name:(sfx id "xg") ~mode ~link ~self:xg_link_node
      ~accel:accel_link_node ~host:host_port ~perms ~os ~timeout:cfg.Config.xg_timeout
      ?rate_limiter ~suppress_put_s_register:cfg.Config.suppress_put_s
      ~quarantine_after:cfg.Config.quarantine_after ?recovery:cfg.Config.recovery
      ~budgets:cfg.Config.budgets ()
  in
  attach_core core;
  if Spans.on () then begin
    let p = sfx id "xg" in
    Spans.add_gauge ~name:(p ^ ".link.in_flight") (fun () ->
        Xg.Xg_iface.Link.in_flight link);
    Spans.add_gauge ~name:(p ^ ".open_transactions") (fun () ->
        Xg.Xg_core.open_transactions core);
    Spans.add_gauge ~name:(p ^ ".tracked_blocks") (fun () -> Xg.Xg_core.tracked_blocks core);
    (* Recovery gauges only when the lifecycle is configured, so span output
       for legacy configs stays byte-identical. *)
    if cfg.Config.recovery <> None then begin
      Spans.add_gauge ~name:(p ^ ".rejoins") (fun () -> Xg.Xg_core.rejoins core);
      Spans.add_gauge ~name:(p ^ ".quarantines") (fun () -> Xg.Xg_core.quarantine_count core)
    end;
    if cfg.Config.budgets <> Xg.Xg_core.no_budgets then
      Spans.add_gauge ~name:(p ^ ".budget_trips") (fun () -> Xg.Xg_core.budget_trips core);
    if perm_gauge then
      Spans.add_gauge ~name:"xg.perm_entries" (fun () -> Xg.Perm_table.entries perms)
  end;
  if faults <> None || fault_scripts <> [] then begin
    Xg.Xg_iface.Link.enable_reliability link ~retry_timeout:cfg.Config.link_retry_timeout
      ~max_retries:cfg.Config.link_max_retries ();
    (match faults with
    | Some f ->
        (* A standalone stream (not split from the system rng), so installing
           the fault model cannot perturb any component's randomness. *)
        Xg.Xg_iface.Link.set_faults link ~rng:(Rng.create ~seed:fault_seed) f
    | None -> ());
    List.iter (Xg.Xg_iface.Link.add_fault_script link) fault_scripts;
    Xg.Xg_iface.Link.set_fault_handler link
      ~on_fault:(fun () -> Xg.Xg_core.link_fault core)
      ~on_recover:(fun () -> Xg.Xg_core.link_recovered core);
    Xg.Xg_core.set_on_quarantine core (fun () -> Xg.Xg_iface.Link.kill link)
  end;
  let accel_ports, accel_l1s, accel_l2, accel_internal =
    match shape with
    | No_accel -> ([||], [||], None, None)
    | One_level { sets; ways } ->
        let lower = A.Lower_port.on_link link ~self:accel_link_node ~peer:xg_link_node in
        let l1 =
          A.L1_simple.create ~engine ~name:(sfx id "accel.l1") ~flavor:A.L1_simple.Mesi
            ~sets ~ways ~lower ()
        in
        Xg.Xg_iface.Link.register link accel_link_node (fun ~src:_ msg ->
            A.L1_simple.deliver l1 msg);
        ([| A.L1_simple.cpu_port l1 |], [| l1 |], None, None)
    | Two_level { cores; l1_sets; l1_ways; l2_sets; l2_ways } ->
        let internal =
          Xg.Xg_iface.Link.create ~engine ~rng:(Rng.split rng)
            ~name:(sfx id "accel.internal")
            ~ordering:(Xguard_network.Network.Ordered { latency = 2 })
            ()
        in
        Xg.Xg_iface.Link.set_tracer internal link_tracer;
        let l2_node = Node.Registry.fresh registry (sfx id "accel.l2") in
        let lower = A.Lower_port.on_link link ~self:accel_link_node ~peer:xg_link_node in
        let l2 =
          A.L2_shared.create ~engine ~name:(sfx id "accel.l2") ~internal ~node:l2_node
            ~lower ~sets:l2_sets ~ways:l2_ways ()
        in
        Xg.Xg_iface.Link.register link accel_link_node (fun ~src:_ msg ->
            A.L2_shared.deliver_from_below l2 msg);
        let l1s =
          Array.init cores (fun i ->
              let name = sfx id (Printf.sprintf "accel.l1_%d" i) in
              let node = Node.Registry.fresh registry name in
              let lower = A.Lower_port.on_link internal ~self:node ~peer:l2_node in
              let l1 =
                A.L1_simple.create ~engine ~name ~flavor:A.L1_simple.Mesi ~sets:l1_sets
                  ~ways:l1_ways ~lower ()
              in
              Xg.Xg_iface.Link.register internal node (fun ~src:_ msg ->
                  A.L1_simple.deliver l1 msg);
              l1)
        in
        (Array.map A.L1_simple.cpu_port l1s, l1s, Some l2, Some internal)
  in
  (* With a recovery policy, a Reset frame landing on the accelerator side is
     the device-level hot reset: the whole cache stack drops its contents
     before the guard re-admits it (Link.kill stays wired above — the reset
     handshake un-kills the link itself). *)
  if cfg.Config.recovery <> None then
    Xg.Xg_iface.Link.set_reset_handler link (fun () ->
        Array.iter A.L1_simple.flush accel_l1s;
        Option.iter A.L2_shared.flush accel_l2);
  {
    g_id = id;
    g_core = core;
    g_link = link;
    g_xg_node = xg_link_node;
    g_accel_node = accel_link_node;
    g_ports = accel_ports;
    g_l1s = accel_l1s;
    g_l2 = accel_l2;
    g_internal = accel_internal;
    g_perms = perms;
  }

let xg_mode = function
  | Config.Full_state -> Xg.Xg_core.Full_state
  | Config.Transactional -> Xg.Xg_core.Transactional

(* The legacy single-guard parameters, exactly as the pre-topology builder
   computed them. *)
let legacy_guard (cfg : Config.t) ~engine ~rng ~registry ~perms ~os ~host_port ~attach_core
    ~attach_accel =
  let variant =
    match cfg.Config.org with
    | Config.Xg_one_level v | Config.Xg_two_level v -> v
    | Config.Accel_side | Config.Host_side -> assert false
  in
  let ordering =
    if cfg.Config.link_ordered then
      Xguard_network.Network.Ordered { latency = cfg.Config.link_latency }
    else
      (* Ablation A1: deliberately break the paper's ordered-link requirement. *)
      Xguard_network.Network.Unordered
        { min_latency = 1; max_latency = 2 * cfg.Config.link_latency }
  in
  let shape =
    if not attach_accel then No_accel
    else
      match cfg.Config.org with
      | Config.Xg_one_level _ ->
          One_level { sets = cfg.Config.accel_sets; ways = cfg.Config.accel_ways }
      | Config.Xg_two_level _ ->
          Two_level
            {
              cores = cfg.Config.num_accel_cores;
              l1_sets = cfg.Config.accel_sets;
              l1_ways = cfg.Config.accel_ways;
              l2_sets = cfg.Config.accel_l2_sets;
              l2_ways = cfg.Config.accel_l2_ways;
            }
      | Config.Accel_side | Config.Host_side -> assert false
  in
  build_guard cfg ~engine ~rng ~registry ~perms ~os ~host_port ~attach_core ~id:""
    ~mode:(xg_mode variant) ~ordering ~shape ~faults:cfg.Config.link_faults
    ~fault_scripts:cfg.Config.link_fault_scripts
    ~fault_seed:((cfg.Config.seed * 1000003) + 77)
    ~perm_gauge:true

(* Per-spec guard parameters for the topology path.  A spec without its own
   fault model inherits the config-level one; config-level scripts replay on
   every link, spec scripts only on theirs.  The fault seed folds in the
   guard index so independent links draw independent fault streams. *)
let spec_ordering (spec : Topology.accel_spec) =
  if spec.Topology.link_jitter = 0 then
    Xguard_network.Network.Ordered { latency = spec.Topology.link_latency }
  else
    Xguard_network.Network.Unordered
      {
        min_latency = 1;
        max_latency = spec.Topology.link_latency + spec.Topology.link_jitter;
      }

let spec_shape (cfg : Config.t) ~attach (spec : Topology.accel_spec) =
  if not attach then No_accel
  else if spec.Topology.two_level then
    Two_level
      {
        cores = spec.Topology.cores;
        l1_sets = cfg.Config.accel_sets;
        l1_ways = cfg.Config.accel_ways;
        l2_sets = cfg.Config.accel_l2_sets;
        l2_ways = cfg.Config.accel_l2_ways;
      }
  else if spec.Topology.cached then
    One_level { sets = cfg.Config.accel_sets; ways = cfg.Config.accel_ways }
  else
    (* Uncached device: a single-line buffer stands in for its cache, so
       every new block crosses the link and nothing stays resident. *)
    One_level { sets = 1; ways = 1 }

let spec_guard (cfg : Config.t) ~engine ~rng ~registry ~perms ~os ~host_port ~attach_core
    ~attach ~index (spec : Topology.accel_spec) =
  let faults =
    match spec.Topology.faults with Some f -> Some f | None -> cfg.Config.link_faults
  in
  (* Each accelerator gets its own OS permission table (guard 0 keeps the
     system-level one the legacy accessors expose).  This is load-bearing for
     isolation: quarantining a guard revokes every grant in *its* table, and
     a shared table would revoke the neighbors' pages too. *)
  let perms = if index = 0 then perms else Xg.Perm_table.create () in
  build_guard cfg ~engine ~rng ~registry ~perms ~os ~host_port ~attach_core
    ~id:spec.Topology.id
    ~mode:(xg_mode spec.Topology.variant)
    ~ordering:(spec_ordering spec)
    ~shape:(spec_shape cfg ~attach spec)
    ~faults
    ~fault_scripts:(cfg.Config.link_fault_scripts @ spec.Topology.fault_scripts)
    ~fault_seed:((cfg.Config.seed * 1000003) + 77 + (131 * index))
    ~perm_gauge:(index = 0)

let build_hammer ~attach_accel (cfg : Config.t) =
  let ordering =
    Xguard_network.Network.Unordered
      { min_latency = cfg.Config.host_net_min; max_latency = cfg.Config.host_net_max }
  in
  let dir_shards =
    match cfg.Config.topology with Some topo -> topo.Topology.dir_shards | None -> 1
  in
  let sys =
    Hammer_system.create ~num_cpus:cfg.Config.num_cpus ~variant:H.L1l2.Xg_ready
      ~sets:cfg.Config.cpu_sets ~ways:cfg.Config.cpu_ways ~ordering ~seed:cfg.Config.seed
      ~mem_latency:cfg.Config.mem_latency ~dir_occupancy:cfg.Config.dir_occupancy
      ~dir_shards ()
  in
  let engine = Hammer_system.engine sys in
  let rng = Hammer_system.rng sys in
  let registry = Hammer_system.registry sys in
  let net = Hammer_system.net sys in
  H.Net.set_tracer net (fun msg ->
      (Addr.to_int msg.H.Msg.addr, Format.asprintf "%a" H.Msg.pp msg));
  let perms = Xg.Perm_table.create () in
  let os = Xg.Os_model.create ~policy:cfg.Config.os_policy () in
  let dir_route = Hammer_system.dir_router sys in
  (* [guards] pairs each guard with its host-side port; [plain_ports] carries
     the guard-less organizations' processor ports. *)
  let finish ~plain_ports ~(guards : (guard * H.Xg_port.t) list) () =
    Hammer_system.finalize sys;
    let gonly = List.map fst guards in
    let g0 = match gonly with g :: _ -> Some g | [] -> None in
    let accel_ports =
      match gonly with
      | [] -> plain_ports
      | gs -> Array.concat (List.map (fun g -> g.g_ports) gs)
    in
    let accel_l1s = Array.concat (List.map (fun g -> g.g_l1s) gonly) in
    let cpu_stats =
      Array.to_list
        (Array.map
           (fun c -> (H.L1l2.name c, H.L1l2.stats c))
           (Hammer_system.cpus sys))
    in
    let cpu_cov =
      Array.to_list
        (Array.map
           (fun c -> (H.L1l2.name c, H.L1l2.coverage c))
           (Hammer_system.cpus sys))
    in
    let accel_cov =
      Array.to_list
        (Array.map (fun l1 -> (A.L1_simple.name l1, A.L1_simple.coverage l1)) accel_l1s)
    in
    let dirs = Hammer_system.directories sys in
    let dir_of a = dirs.(Addr.to_int a mod Array.length dirs) in
    let dir_busy a = H.Directory.busy (dir_of a) a in
    let memory = Hammer_system.memory sys in
    let cpus = Hammer_system.cpus sys in
    let host_lines () =
      Array.to_list
        (Array.map (fun c -> (H.L1l2.name c, H.L1l2.check_lines c)) cpus)
    in
    let accel_line_dumps () =
      Array.to_list
        (Array.map
           (fun l1 -> (A.L1_simple.name l1, widen_lines (A.L1_simple.check_lines l1)))
           accel_l1s)
    in
    let guard_owned_lines () =
      (* Two places a guard cluster hides an architectural owner copy that no
         cache line shows: the guard's trusted copy while the directory still
         records the port as owner, and the port's in-flight
         ownership-relinquishing writeback after a dirty Fwd_s (§3.2.1).
         Surface both as owned pseudo-entries so the data-value check
         compares sharers against them instead of stale memory. *)
      List.concat_map
        (fun (g, p) ->
          let pid = Node.id (H.Xg_port.node p) in
          let tracked =
            List.filter_map
              (fun (a, st, copy) ->
                match (st, copy, H.Directory.owner (dir_of a) a) with
                | `S, Some d, Some n when Node.id n = pid -> Some (a, `O, d)
                | _ -> None)
              (Xg.Xg_core.check_tracked g.g_core)
          in
          let in_put =
            List.map (fun (a, d) -> (a, `O, d)) (H.Xg_port.check_owner_puts p)
          in
          let entries = tracked @ in_put in
          if entries = [] then [] else [ (guard_label g "xg", entries) ])
        guards
    in
    let all_lines () = host_lines () @ accel_line_dumps () @ guard_owned_lines () in
    let check_invariant () =
      first_of
        [
          (fun () ->
            swmr_and_value
              ~mem_read:(Memory_model.read memory)
              ~skip:dir_busy (all_lines ()));
          (fun () -> first_opt (fun g -> Xg.Xg_core.check_violation g.g_core) gonly);
          (fun () ->
            first_opt
              (fun g ->
                guard_inclusive ~core:g.g_core
                  ~accel_lines:
                    (List.concat_map
                       (fun l1 -> A.L1_simple.check_lines l1)
                       (Array.to_list g.g_l1s)))
              gonly);
        ]
    in
    let check_quiescent_invariant () =
      let guard_of_port nid =
        List.find_opt (fun (_, p) -> Node.id (H.Xg_port.node p) = nid) guards
      in
      let full_state g = Xg.Xg_core.mode g.g_core = Xg.Xg_core.Full_state in
      let tracked g = if full_state g then Xg.Xg_core.check_tracked g.g_core else [] in
      first_of
        [
          (fun () ->
            if Array.exists (fun d -> H.Directory.open_transactions d <> 0) dirs then
              Some "drained with an open directory transaction"
            else None);
          (fun () ->
            if Array.exists (fun d -> H.Directory.check_waiting_tables d <> 0) dirs then
              Some "drained with queued directory work"
            else None);
          (fun () ->
            first_opt
              (fun g ->
                if Xg.Xg_core.check_pending_slots g.g_core <> 0 then
                  Some "drained with open guard transactions"
                else None)
              gonly);
          (fun () -> no_transient_at_drain (all_lines ()));
          (* forward: every owned cache line has a directory owner record *)
          (fun () ->
            Array.fold_left
              (fun acc c ->
                match acc with
                | Some _ -> acc
                | None ->
                    let nid = Node.id (H.L1l2.node c) in
                    List.fold_left
                      (fun acc (a, st, _) ->
                        match acc with
                        | Some _ -> acc
                        | None -> (
                            match st with
                            | `E | `O | `M -> (
                                match H.Directory.owner (dir_of a) a with
                                | Some n when Node.id n = nid -> None
                                | _ ->
                                    Some
                                      (Printf.sprintf
                                         "directory/cache disagree: %s owns block %d unrecorded"
                                         (H.L1l2.name c) (Addr.to_int a)))
                            | `S | `T -> None))
                      acc (H.L1l2.check_lines c))
              None cpus);
          (* guard-owned blocks must be recorded against that guard's port *)
          (fun () ->
            first_opt
              (fun (g, p) ->
                let pid = Node.id (H.Xg_port.node p) in
                List.fold_left
                  (fun acc (a, st, _) ->
                    match acc with
                    | Some _ -> acc
                    | None -> (
                        match st with
                        | `E | `M -> (
                            match H.Directory.owner (dir_of a) a with
                            | Some n when Node.id n = pid -> None
                            | _ ->
                                Some
                                  (Printf.sprintf
                                     "directory/guard disagree: %s owns block %d unrecorded"
                                     (guard_label g "xg") (Addr.to_int a)))
                        | `S -> None))
                  None (tracked g))
              guards);
          (* reverse: every directory owner record points at a live owner *)
          (fun () ->
            first_opt
              (fun (a, n) ->
                let nid = Node.id n in
                let holds =
                  match guard_of_port nid with
                  | Some (g, _) ->
                      (* the guard cluster owns through a tracked E/M line or
                         a retained trusted copy after a GetS downgrade *)
                      (not (full_state g))
                      || List.exists
                           (fun (ta, st, copy) ->
                             Addr.equal ta a
                             && (st = `E || st = `M || (st = `S && copy <> None)))
                           (tracked g)
                  | None ->
                      Array.exists
                        (fun c ->
                          Node.id (H.L1l2.node c) = nid
                          && List.exists
                               (fun (ta, st, _) ->
                                 Addr.equal ta a && (st = `E || st = `O || st = `M))
                               (H.L1l2.check_lines c))
                        cpus
                in
                if holds then None
                else
                  Some
                    (Printf.sprintf
                       "directory records %s as owner of block %d but it holds nothing"
                       (Node.name n) (Addr.to_int a)))
              (List.concat_map H.Directory.owner_entries (Array.to_list dirs)));
        ]
    in
    let check_enable () =
      H.Net.enable_check_mode net ~addr_of:(fun m -> Addr.to_int m.H.Msg.addr) ();
      List.iter
        (fun (g, p) ->
          let port_ctrl = Node.id (H.Xg_port.node p) in
          Xg.Xg_iface.Link.enable_check_mode g.g_link
            ~ctrl_of:(fun id -> if id = Node.id g.g_xg_node then port_ctrl else id)
            ();
          Xg.Xg_core.set_check_ctrl g.g_core port_ctrl;
          Array.iter
            (fun l1 -> A.L1_simple.set_check_ctrl l1 (Node.id g.g_accel_node))
            g.g_l1s;
          match g.g_internal with
          | Some il -> Xg.Xg_iface.Link.enable_check_mode il ()
          | None -> ())
        guards
    in
    let check_set_delay_chooser f =
      H.Net.set_delay_chooser net f;
      List.iter
        (fun g ->
          Xg.Xg_iface.Link.set_delay_chooser g.g_link f;
          match g.g_internal with
          | Some l -> Xg.Xg_iface.Link.set_delay_chooser l f
          | None -> ())
        gonly
    in
    let check_fingerprint buf =
      Array.iter (fun c -> H.L1l2.check_fingerprint c buf) cpus;
      Array.iter (fun d -> H.Directory.check_fingerprint d buf) dirs;
      List.iter
        (fun (g, p) ->
          H.Xg_port.check_fingerprint p buf;
          Xg.Xg_core.check_fingerprint g.g_core buf;
          Array.iter (fun l1 -> A.L1_simple.check_fingerprint l1 buf) g.g_l1s)
        guards;
      H.Net.check_fingerprint net buf;
      List.iter
        (fun g ->
          Xg.Xg_iface.Link.check_fingerprint g.g_link buf;
          match g.g_internal with
          | Some l -> Xg.Xg_iface.Link.check_fingerprint l buf
          | None -> ())
        gonly;
      (* Guard 0's table *is* [perms]; extra guards append theirs in topology
         order.  Guard-less organizations keep the bare system table. *)
      (match gonly with
      | [] -> Xg.Perm_table.check_fingerprint perms buf
      | gs -> List.iter (fun g -> Xg.Perm_table.check_fingerprint g.g_perms buf) gs);
      Xg.Os_model.check_fingerprint os buf;
      List.iter
        (fun (a, (d : Data.t)) ->
          if d <> Data.initial a then
            Buffer.add_string buf (Printf.sprintf "M%d:%d;" (Addr.to_int a) d))
        (Memory_model.touched memory);
      (* The pending-event horizon closes any window a component dump misses
         (e.g. a completion callback whose TBE is already freed).  Extra
         discrimination only ever splits states — it cannot merge two
         architecturally different ones. *)
      Array.iter
        (fun (dt, tag) -> Buffer.add_string buf (Printf.sprintf "e%d:%d;" dt tag))
        (Engine.pending_summary engine)
    in
    let check_cpu_ctrls = Array.map (fun c -> Node.id (H.L1l2.node c)) cpus in
    let check_accel_ctrls =
      match gonly with
      | [] -> Array.map (fun _ -> -1) plain_ports
      | gs ->
          Array.concat
            (List.map (fun g -> Array.map (fun _ -> Node.id g.g_accel_node) g.g_ports) gs)
    in
    let dir_stats =
      if Array.length dirs = 1 then [ ("directory", H.Directory.stats dirs.(0)) ]
      else
        Array.to_list
          (Array.mapi (fun i d -> (Printf.sprintf "directory%d" i, H.Directory.stats d)) dirs)
    in
    {
      config = cfg;
      engine;
      rng;
      memory;
      perms;
      os;
      cpu_ports = Hammer_system.cpu_ports sys;
      accel_ports;
      guards = Array.of_list gonly;
      xg_core = Option.map (fun g -> g.g_core) g0;
      accel_link = Option.map (fun g -> g.g_link) g0;
      xg_node_on_link = Option.map (fun g -> g.g_xg_node) g0;
      accel_node_on_link = Option.map (fun g -> g.g_accel_node) g0;
      accel_l1s;
      accel_l2 = Option.bind g0 (fun g -> g.g_l2);
      accel_internal_link = Option.bind g0 (fun g -> g.g_internal);
      host_net_bytes = (fun () -> H.Net.bytes_sent net);
      host_net_messages = (fun () -> H.Net.messages_sent net);
      xg_port_to_host_bytes =
        (fun () ->
          List.fold_left
            (fun acc (_, p) -> acc + H.Net.bytes_from net (H.Xg_port.node p))
            0 guards);
      link_bytes =
        (fun () ->
          List.fold_left (fun acc g -> acc + Xg.Xg_iface.Link.bytes_sent g.g_link) 0 gonly);
      set_host_monitor =
        (fun f ->
          H.Net.set_monitor net (fun ~src ~dst msg ->
              f ~src:(Node.name src) ~dst:(Node.name dst) ~addr:(Addr.to_int msg.H.Msg.addr)
                ~text:(Format.asprintf "%a" H.Msg.pp msg)));
      coverage_groups =
        (fun () ->
          cpu_cov @ accel_cov
          @ List.map (fun g -> (guard_label g "xg", Xg.Xg_core.coverage g.g_core)) gonly);
      coverage_sets =
        (fun () ->
          [ ("hammer.l1l2", H.L1l2.coverage_space, List.map snd cpu_cov) ]
          @ (match accel_cov with
            | [] -> []
            | _ -> [ ("accel.l1", A.L1_simple.coverage_space, List.map snd accel_cov) ])
          @ (match gonly with
            | [] -> []
            | gs ->
                [
                  ( "xg",
                    Xg.Xg_core.coverage_space,
                    List.map (fun g -> Xg.Xg_core.coverage g.g_core) gs );
                ])
          @ fault_coverage_sets ~guards:gonly ());
      stats_groups =
        (fun () ->
          cpu_stats @ dir_stats
          @ List.map (fun g -> (guard_label g "xg", Xg.Xg_core.stats g.g_core)) gonly
          @ List.map
              (fun (g, p) -> (guard_label g "xg_port", H.Xg_port.stats p))
              guards);
      link_stats = fault_link_stats ~guards:gonly;
      quarantined = any_quarantined ~guards:gonly;
      check_enable;
      check_set_delay_chooser;
      check_fingerprint;
      check_invariant;
      check_quiescent_invariant;
      check_cpu_ctrls;
      check_accel_ctrls;
    }
  in
  let make_xg_port name =
    let port = ref None in
    let node =
      Hammer_system.add_cache_node sys name ~count_peers:(fun n ->
          match !port with Some p -> H.Xg_port.set_peer_count p n | None -> ())
    in
    let p = H.Xg_port.create ~engine ~net ~name ~node ~directory:dir_route () in
    port := Some p;
    p
  in
  match cfg.Config.topology with
  | Some topo ->
      let guards =
        List.mapi
          (fun i (spec : Topology.accel_spec) ->
            let p = make_xg_port (sfx spec.Topology.id "xg.port") in
            let g =
              spec_guard cfg ~engine ~rng ~registry ~perms ~os
                ~host_port:(H.Xg_port.host_port p)
                ~attach_core:(H.Xg_port.attach_core p)
                ~attach:(attach_accel || i > 0) ~index:i spec
            in
            (g, p))
          topo.Topology.accels
      in
      finish ~plain_ports:[||] ~guards ()
  | None -> (
      match cfg.Config.org with
      | Config.Accel_side ->
          let cache = ref None in
          let node =
            Hammer_system.add_cache_node sys "accel.cache" ~count_peers:(fun n ->
                match !cache with Some c -> H.L1l2.set_peer_count c n | None -> ())
          in
          let c =
            H.L1l2.create ~engine ~net ~name:"accel.cache" ~node ~directory:dir_route
              ~variant:H.L1l2.Xg_ready ~sets:cfg.Config.accel_sets
              ~ways:cfg.Config.accel_ways ()
          in
          cache := Some c;
          finish ~plain_ports:[| H.L1l2.cpu_port c |] ~guards:[] ()
      | Config.Host_side ->
          let cache = ref None in
          let node =
            Hammer_system.add_cache_node sys "hostside.cache" ~count_peers:(fun n ->
                match !cache with Some c -> H.L1l2.set_peer_count c n | None -> ())
          in
          let c =
            H.L1l2.create ~engine ~net ~name:"hostside.cache" ~node ~directory:dir_route
              ~variant:H.L1l2.Xg_ready ~sets:cfg.Config.accel_sets
              ~ways:cfg.Config.accel_ways ()
          in
          cache := Some c;
          let seq =
            Sequencer.create ~engine ~name:"hostside.seq" ~port:(H.L1l2.cpu_port c)
              ~max_outstanding:16 ()
          in
          let port = remote_port engine ~latency:cfg.Config.link_latency seq in
          finish ~plain_ports:[| port |] ~guards:[] ()
      | Config.Xg_one_level _ | Config.Xg_two_level _ ->
          let p = make_xg_port "xg.port" in
          let g =
            legacy_guard cfg ~engine ~rng ~registry ~perms ~os
              ~host_port:(H.Xg_port.host_port p)
              ~attach_core:(H.Xg_port.attach_core p) ~attach_accel
          in
          finish ~plain_ports:[||] ~guards:[ (g, p) ] ())

let build_mesi ~attach_accel (cfg : Config.t) =
  let ordering =
    Xguard_network.Network.Unordered
      { min_latency = cfg.Config.host_net_min; max_latency = cfg.Config.host_net_max }
  in
  let sys =
    Mesi_system.create ~num_cpus:cfg.Config.num_cpus ~variant:M.L2.Xg_ready
      ~l1_sets:cfg.Config.cpu_sets ~l1_ways:cfg.Config.cpu_ways
      ~l2_sets:cfg.Config.host_l2_sets ~l2_ways:cfg.Config.host_l2_ways ~ordering
      ~seed:cfg.Config.seed ~mem_latency:cfg.Config.mem_latency ()
  in
  let engine = Mesi_system.engine sys in
  let rng = Mesi_system.rng sys in
  let registry = Mesi_system.registry sys in
  let net = Mesi_system.net sys in
  M.Net.set_tracer net (fun msg ->
      (Addr.to_int msg.M.Msg.addr, Format.asprintf "%a" M.Msg.pp msg));
  let l2_node = M.L2.node (Mesi_system.l2 sys) in
  let perms = Xg.Perm_table.create () in
  let os = Xg.Os_model.create ~policy:cfg.Config.os_policy () in
  let finish ~plain_ports ~(guards : (guard * M.Xg_port.t) list) () =
    let gonly = List.map fst guards in
    let g0 = match gonly with g :: _ -> Some g | [] -> None in
    let accel_ports =
      match gonly with
      | [] -> plain_ports
      | gs -> Array.concat (List.map (fun g -> g.g_ports) gs)
    in
    let accel_l1s = Array.concat (List.map (fun g -> g.g_l1s) gonly) in
    let cpu_stats =
      Array.to_list
        (Array.map (fun c -> (M.L1.name c, M.L1.stats c)) (Mesi_system.cpus sys))
    in
    let cpu_cov =
      Array.to_list
        (Array.map (fun c -> (M.L1.name c, M.L1.coverage c)) (Mesi_system.cpus sys))
    in
    let accel_cov =
      Array.to_list
        (Array.map (fun l1 -> (A.L1_simple.name l1, A.L1_simple.coverage l1)) accel_l1s)
    in
    let l2 = Mesi_system.l2 sys in
    let memory = Mesi_system.memory sys in
    let cpus = Mesi_system.cpus sys in
    let host_lines () =
      Array.to_list
        (Array.map (fun c -> (M.L1.name c, widen_lines (M.L1.check_lines c))) cpus)
    in
    (* The inclusive L2's own copy participates in the data-value invariant:
       when no L1 owns the block, the L2 is the sharer (clean) or the owner
       (dirty).  When an L1 owns it the L2 copy may legitimately be stale. *)
    let l2_pseudo () =
      List.filter_map
        (fun (a, h, d, dirty) ->
          match h with
          | `Owned _ -> None
          | `No_l1 | `Sharers _ -> Some (a, (if dirty then `O else `S), d))
        (M.L2.check_lines l2)
    in
    let accel_line_dumps () =
      Array.to_list
        (Array.map
           (fun l1 -> (A.L1_simple.name l1, widen_lines (A.L1_simple.check_lines l1)))
           accel_l1s)
    in
    let all_lines () =
      host_lines () @ (("host.l2", l2_pseudo ()) :: accel_line_dumps ())
    in
    let check_invariant () =
      first_of
        [
          (fun () ->
            swmr_and_value
              ~mem_read:(Memory_model.read memory)
              ~skip:(M.L2.busy l2) (all_lines ()));
          (fun () -> first_opt (fun g -> Xg.Xg_core.check_violation g.g_core) gonly);
          (fun () ->
            first_opt
              (fun g ->
                guard_inclusive ~core:g.g_core
                  ~accel_lines:
                    (List.concat_map
                       (fun l1 -> A.L1_simple.check_lines l1)
                       (Array.to_list g.g_l1s)))
              gonly);
        ]
    in
    let check_quiescent_invariant () =
      let guard_of_port nid =
        List.find_opt (fun (_, p) -> Node.id (M.Xg_port.node p) = nid) guards
      in
      let full_state g = Xg.Xg_core.mode g.g_core = Xg.Xg_core.Full_state in
      let tracked g = if full_state g then Xg.Xg_core.check_tracked g.g_core else [] in
      let cpu_with nid = Array.to_list cpus |> List.find_opt (fun c -> Node.id (M.L1.node c) = nid) in
      let cpu_holds c a classes =
        List.exists
          (fun (ta, st, _) -> Addr.equal ta a && List.mem st classes)
          (M.L1.check_lines c)
      in
      first_of
        [
          (fun () ->
            if M.L2.open_transactions l2 <> 0 then
              Some "drained with an open L2 transaction"
            else None);
          (fun () ->
            if M.L2.check_queue_tables l2 <> 0 then
              Some "drained with queued L2 work"
            else None);
          (fun () ->
            first_opt
              (fun g ->
                if Xg.Xg_core.check_pending_slots g.g_core <> 0 then
                  Some "drained with open guard transactions"
                else None)
              gonly);
          (fun () -> no_transient_at_drain (all_lines ()));
          (* forward: every L1-owned line is recorded Owned in the L2 *)
          (fun () ->
            Array.fold_left
              (fun acc c ->
                match acc with
                | Some _ -> acc
                | None ->
                    let nid = Node.id (M.L1.node c) in
                    List.fold_left
                      (fun acc (a, st, _) ->
                        match acc with
                        | Some _ -> acc
                        | None -> (
                            match st with
                            | `E | `M -> (
                                match M.L2.probe l2 a with
                                | `Owned n when Node.id n = nid -> None
                                | _ ->
                                    Some
                                      (Printf.sprintf
                                         "L2/L1 disagree: %s owns block %d unrecorded"
                                         (M.L1.name c) (Addr.to_int a)))
                            | `S | `T -> None))
                      acc (M.L1.check_lines c))
              None cpus);
          (fun () ->
            first_opt
              (fun (g, p) ->
                let pid = Node.id (M.Xg_port.node p) in
                List.fold_left
                  (fun acc (a, st, _) ->
                    match acc with
                    | Some _ -> acc
                    | None -> (
                        match st with
                        | `E | `M -> (
                            match M.L2.probe l2 a with
                            | `Owned n when Node.id n = pid -> None
                            | _ ->
                                Some
                                  (Printf.sprintf
                                     "L2/guard disagree: %s owns block %d unrecorded"
                                     (guard_label g "xg") (Addr.to_int a)))
                        | `S -> None))
                  None (tracked g))
              guards);
          (* reverse: every L2 record points at live holders *)
          (fun () ->
            List.fold_left
              (fun acc (a, h, _, _) ->
                match acc with
                | Some _ -> acc
                | None -> (
                    match h with
                    | `Owned n ->
                        let nid = Node.id n in
                        let holds =
                          match guard_of_port nid with
                          | Some (g, _) ->
                              (not (full_state g))
                              || List.exists
                                   (fun (ta, st, _) ->
                                     Addr.equal ta a && (st = `E || st = `M))
                                   (tracked g)
                          | None -> (
                              match cpu_with nid with
                              | Some c -> cpu_holds c a [ `E; `M ]
                              | None -> false)
                        in
                        if holds then None
                        else
                          Some
                            (Printf.sprintf
                               "L2 records %s as owner of block %d but it holds nothing"
                               (Node.name n) (Addr.to_int a))
                    | `Sharers sh ->
                        List.fold_left
                          (fun acc n ->
                            match acc with
                            | Some _ -> acc
                            | None ->
                                let nid = Node.id n in
                                if guard_of_port nid <> None then None
                                else (
                                  match cpu_with nid with
                                  | Some c when cpu_holds c a [ `S ] -> None
                                  | Some c ->
                                      Some
                                        (Printf.sprintf
                                           "L2 records %s sharing block %d but it holds nothing"
                                           (M.L1.name c) (Addr.to_int a))
                                  | None -> None))
                          None sh
                    | `No_l1 ->
                        Array.fold_left
                          (fun acc c ->
                            match acc with
                            | Some _ -> acc
                            | None ->
                                if cpu_holds c a [ `S; `E; `M ] then
                                  Some
                                    (Printf.sprintf
                                       "L2 records block %d L1-free but %s holds it"
                                       (Addr.to_int a) (M.L1.name c))
                                else None)
                          None cpus))
              None (M.L2.check_lines l2));
        ]
    in
    let check_enable () =
      M.Net.enable_check_mode net ~addr_of:(fun m -> Addr.to_int m.M.Msg.addr) ();
      List.iter
        (fun (g, p) ->
          let port_ctrl = Node.id (M.Xg_port.node p) in
          Xg.Xg_iface.Link.enable_check_mode g.g_link
            ~ctrl_of:(fun id -> if id = Node.id g.g_xg_node then port_ctrl else id)
            ();
          Xg.Xg_core.set_check_ctrl g.g_core port_ctrl;
          Array.iter
            (fun l1 -> A.L1_simple.set_check_ctrl l1 (Node.id g.g_accel_node))
            g.g_l1s;
          match g.g_internal with
          | Some il -> Xg.Xg_iface.Link.enable_check_mode il ()
          | None -> ())
        guards
    in
    let check_set_delay_chooser f =
      M.Net.set_delay_chooser net f;
      List.iter
        (fun g ->
          Xg.Xg_iface.Link.set_delay_chooser g.g_link f;
          match g.g_internal with
          | Some l -> Xg.Xg_iface.Link.set_delay_chooser l f
          | None -> ())
        gonly
    in
    let check_fingerprint buf =
      Array.iter (fun c -> M.L1.check_fingerprint c buf) cpus;
      M.L2.check_fingerprint l2 buf;
      List.iter
        (fun (g, p) ->
          M.Xg_port.check_fingerprint p buf;
          Xg.Xg_core.check_fingerprint g.g_core buf;
          Array.iter (fun l1 -> A.L1_simple.check_fingerprint l1 buf) g.g_l1s)
        guards;
      M.Net.check_fingerprint net buf;
      List.iter
        (fun g ->
          Xg.Xg_iface.Link.check_fingerprint g.g_link buf;
          match g.g_internal with
          | Some l -> Xg.Xg_iface.Link.check_fingerprint l buf
          | None -> ())
        gonly;
      (* Guard 0's table *is* [perms]; extra guards append theirs in topology
         order.  Guard-less organizations keep the bare system table. *)
      (match gonly with
      | [] -> Xg.Perm_table.check_fingerprint perms buf
      | gs -> List.iter (fun g -> Xg.Perm_table.check_fingerprint g.g_perms buf) gs);
      Xg.Os_model.check_fingerprint os buf;
      List.iter
        (fun (a, (d : Data.t)) ->
          if d <> Data.initial a then
            Buffer.add_string buf (Printf.sprintf "M%d:%d;" (Addr.to_int a) d))
        (Memory_model.touched memory);
      Array.iter
        (fun (dt, tag) -> Buffer.add_string buf (Printf.sprintf "e%d:%d;" dt tag))
        (Engine.pending_summary engine)
    in
    let check_cpu_ctrls = Array.map (fun c -> Node.id (M.L1.node c)) cpus in
    let check_accel_ctrls =
      match gonly with
      | [] -> Array.map (fun _ -> -1) plain_ports
      | gs ->
          Array.concat
            (List.map (fun g -> Array.map (fun _ -> Node.id g.g_accel_node) g.g_ports) gs)
    in
    {
      config = cfg;
      engine;
      rng;
      memory;
      perms;
      os;
      cpu_ports = Mesi_system.cpu_ports sys;
      accel_ports;
      guards = Array.of_list gonly;
      xg_core = Option.map (fun g -> g.g_core) g0;
      accel_link = Option.map (fun g -> g.g_link) g0;
      xg_node_on_link = Option.map (fun g -> g.g_xg_node) g0;
      accel_node_on_link = Option.map (fun g -> g.g_accel_node) g0;
      accel_l1s;
      accel_l2 = Option.bind g0 (fun g -> g.g_l2);
      accel_internal_link = Option.bind g0 (fun g -> g.g_internal);
      host_net_bytes = (fun () -> M.Net.bytes_sent net);
      host_net_messages = (fun () -> M.Net.messages_sent net);
      xg_port_to_host_bytes =
        (fun () ->
          List.fold_left
            (fun acc (_, p) -> acc + M.Net.bytes_from net (M.Xg_port.node p))
            0 guards);
      link_bytes =
        (fun () ->
          List.fold_left (fun acc g -> acc + Xg.Xg_iface.Link.bytes_sent g.g_link) 0 gonly);
      set_host_monitor =
        (fun f ->
          M.Net.set_monitor net (fun ~src ~dst msg ->
              f ~src:(Node.name src) ~dst:(Node.name dst) ~addr:(Addr.to_int msg.M.Msg.addr)
                ~text:(Format.asprintf "%a" M.Msg.pp msg)));
      coverage_groups =
        (fun () ->
          cpu_cov
          @ [ ("host.l2", M.L2.coverage (Mesi_system.l2 sys)) ]
          @ accel_cov
          @ List.map (fun g -> (guard_label g "xg", Xg.Xg_core.coverage g.g_core)) gonly);
      coverage_sets =
        (fun () ->
          [
            ("mesi.l1", M.L1.coverage_space, List.map snd cpu_cov);
            ("mesi.l2", M.L2.coverage_space, [ M.L2.coverage (Mesi_system.l2 sys) ]);
          ]
          @ (match accel_cov with
            | [] -> []
            | _ -> [ ("accel.l1", A.L1_simple.coverage_space, List.map snd accel_cov) ])
          @ (match gonly with
            | [] -> []
            | gs ->
                [
                  ( "xg",
                    Xg.Xg_core.coverage_space,
                    List.map (fun g -> Xg.Xg_core.coverage g.g_core) gs );
                ])
          @ fault_coverage_sets ~guards:gonly ());
      stats_groups =
        (fun () ->
          cpu_stats
          @ [ ("host.l2", M.L2.stats (Mesi_system.l2 sys)) ]
          @ List.map (fun g -> (guard_label g "xg", Xg.Xg_core.stats g.g_core)) gonly
          @ List.map
              (fun (g, p) -> (guard_label g "xg_port", M.Xg_port.stats p))
              guards);
      link_stats = fault_link_stats ~guards:gonly;
      quarantined = any_quarantined ~guards:gonly;
      check_enable;
      check_set_delay_chooser;
      check_fingerprint;
      check_invariant;
      check_quiescent_invariant;
      check_cpu_ctrls;
      check_accel_ctrls;
    }
  in
  let make_xg_port name =
    let node = Mesi_system.add_l1_node sys name in
    M.Xg_port.create ~engine ~net ~name ~node ~l2:l2_node ()
  in
  match cfg.Config.topology with
  | Some topo ->
      let guards =
        List.mapi
          (fun i (spec : Topology.accel_spec) ->
            let p = make_xg_port (sfx spec.Topology.id "xg.port") in
            let g =
              spec_guard cfg ~engine ~rng ~registry ~perms ~os
                ~host_port:(M.Xg_port.host_port p)
                ~attach_core:(M.Xg_port.attach_core p)
                ~attach:(attach_accel || i > 0) ~index:i spec
            in
            (g, p))
          topo.Topology.accels
      in
      finish ~plain_ports:[||] ~guards ()
  | None -> (
      match cfg.Config.org with
      | Config.Accel_side ->
          let node = Mesi_system.add_l1_node sys "accel.cache" in
          let c =
            M.L1.create ~engine ~net ~name:"accel.cache" ~node ~l2:l2_node
              ~sets:cfg.Config.accel_sets ~ways:cfg.Config.accel_ways ()
          in
          finish ~plain_ports:[| M.L1.cpu_port c |] ~guards:[] ()
      | Config.Host_side ->
          let node = Mesi_system.add_l1_node sys "hostside.cache" in
          let c =
            M.L1.create ~engine ~net ~name:"hostside.cache" ~node ~l2:l2_node
              ~sets:cfg.Config.accel_sets ~ways:cfg.Config.accel_ways ()
          in
          let seq =
            Sequencer.create ~engine ~name:"hostside.seq" ~port:(M.L1.cpu_port c)
              ~max_outstanding:16 ()
          in
          let port = remote_port engine ~latency:cfg.Config.link_latency seq in
          finish ~plain_ports:[| port |] ~guards:[] ()
      | Config.Xg_one_level _ | Config.Xg_two_level _ ->
          let p = make_xg_port "xg.port" in
          let g =
            legacy_guard cfg ~engine ~rng ~registry ~perms ~os
              ~host_port:(M.Xg_port.host_port p)
              ~attach_core:(M.Xg_port.attach_core p) ~attach_accel
          in
          finish ~plain_ports:[||] ~guards:[ (g, p) ] ())

(* Snapshot interval for the span-layer time-series sampler (cycles).  Coarse
   enough to stay invisible in profiles, fine enough to show queue ramps. *)
let sampler_period = 500

let build ?(attach_accel = true) (cfg : Config.t) =
  if Spans.on () then Spans.reset_gauges ();
  if Metrics.on () then Metrics.reset_sources ();
  let t =
    match cfg.Config.host with
    | Config.Hammer -> build_hammer ~attach_accel cfg
    | Config.Mesi -> build_mesi ~attach_accel cfg
  in
  (* Metrics counter sources: every stats group the run would report, plus
     each guard's link-layer group (retransmissions live there — the
     watchdog's retry-storm rule needs their deltas).  Registration order
     fixes the stream's series order. *)
  if Metrics.on () then begin
    List.iter (fun (name, g) -> Metrics.add_group ~name g) (t.stats_groups ());
    Array.iter
      (fun g ->
        Metrics.add_group ~name:(guard_label g "xg.link")
          (Xg.Xg_iface.Link.link_stats g.g_link))
      t.guards
  end;
  let t =
    if not (Metrics.on () && Metrics.watchdog_armed ()) then t
    else begin
      (* Bridge watchdog verdicts to the OS model's anomaly ledger and an
         obs.watchdog coverage matrix.  Both are pure observers: anomalies
         never feed policy, and the coverage set only exists on armed runs,
         so unarmed output is untouched. *)
      let grp = Xguard_stats.Counter.Group.create "obs.watchdog.cov" in
      let mat = Xguard_trace.Coverage.intern_matrix Watchdog.coverage_space grp in
      Metrics.set_watchdog_reporter (fun ~rule ~event ~detail:_ ->
          if event = 0 then Xg.Os_model.anomaly t.os Watchdog.rules.(rule);
          Xguard_trace.Coverage.hit mat ~state:rule ~event);
      let prev_sets = t.coverage_sets in
      {
        t with
        coverage_sets =
          (fun () ->
            prev_sets () @ [ ("obs.watchdog", Watchdog.coverage_space, [ grp ]) ]);
      }
    end
  in
  if Metrics.on () then
    (* One fused tick for both layers: two independent [Engine.every]
       samplers would each see the other's next tick in [pending] and keep
       the engine alive forever.  Span sample first, then metrics. *)
    Engine.every t.engine ~period:sampler_period ~phase:sampler_period (fun () ->
        let now = Engine.now t.engine in
        Spans.sample_now ~now;
        Metrics.sample_now ~now;
        Engine.pending t.engine > 0)
  else if Spans.on () then Spans.start_sampler ~engine:t.engine ~period:sampler_period;
  t
