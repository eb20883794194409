(* Tests for the single-level accelerator cache: conformance to the paper's
   Table 1, integration with Toy_home over an ordered link, and flavor
   behaviour (MESI / MSI / VI). *)

module Engine = Xguard_sim.Engine
module Rng = Xguard_sim.Rng
module Xg_iface = Xguard_xg.Xg_iface
module Toy_home = Xguard_xg.Toy_home
module L1 = Xguard_accel.L1_simple
module Lower_port = Xguard_accel.Lower_port

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

type sent = Req of Addr.t * Xg_iface.accel_request | Resp of Addr.t * Xg_iface.accel_response

let state_pp = function `I -> "I" | `S -> "S" | `E -> "E" | `M -> "M" | `B -> "B"
let check_state msg expected actual = Alcotest.(check string) msg (state_pp expected) (state_pp actual)

(* A bare L1 whose lower port records messages, so tests control event order
   exactly (no network, no home). *)
let bare_l1 ?(flavor = L1.Mesi) ?(sets = 1) ?(ways = 4) ?mshr_limit () =
  let engine = Engine.create () in
  let sent = ref [] in
  let lower =
    {
      Lower_port.send_req = (fun a r -> sent := Req (a, r) :: !sent);
      Lower_port.send_resp = (fun a r -> sent := Resp (a, r) :: !sent);
    }
  in
  let l1 = L1.create ~engine ~name:"l1" ~flavor ~sets ~ways ?mshr_limit ~lower () in
  (engine, l1, sent)

let pop_sent sent =
  match !sent with
  | [] -> Alcotest.fail "expected an outgoing message"
  | m :: rest ->
      sent := rest;
      m

let expect_no_sent sent = check_int "no outgoing message" 0 (List.length !sent)

let issue_ok l1 access =
  let port = L1.cpu_port l1 in
  check_bool "access accepted" true (port.Access.issue access ~on_done:(fun _ -> ()))

let issue_stalled l1 access =
  let port = L1.cpu_port l1 in
  check_bool "access stalled" false (port.Access.issue access ~on_done:(fun _ -> ()))

let grant l1 addr resp = L1.deliver l1 (Xg_iface.To_accel_resp { addr; resp })
let invalidate l1 addr = L1.deliver l1 (Xg_iface.To_accel_req { addr; req = Xg_iface.Invalidate })

let a0 = Addr.block 0
let a1 = Addr.block 1

(* --- Table 1 conformance, row by row --- *)

let test_i_load_issues_gets () =
  let _, l1, sent = bare_l1 () in
  issue_ok l1 (Access.load a0);
  (match pop_sent sent with
  | Req (a, Xg_iface.Get_s) -> check_int "addr" 0 (Addr.to_int a)
  | _ -> Alcotest.fail "expected GetS");
  check_state "I + Load -> B" `B (L1.probe l1 a0)

let test_i_store_issues_getm () =
  let _, l1, sent = bare_l1 () in
  issue_ok l1 (Access.store a0 (Data.token 5));
  (match pop_sent sent with
  | Req (_, Xg_iface.Get_m) -> ()
  | _ -> Alcotest.fail "expected GetM");
  check_state "I + Store -> B" `B (L1.probe l1 a0)

let test_i_invalidate_acks () =
  let _, l1, sent = bare_l1 () in
  invalidate l1 a0;
  (match pop_sent sent with
  | Resp (_, Xg_iface.Inv_ack) -> ()
  | _ -> Alcotest.fail "expected InvAck");
  check_state "stays I" `I (L1.probe l1 a0)

let test_b_grants () =
  (* B + DataS/E/M -> S/E/M, pending load completes with granted data. *)
  let cases =
    [
      (Xg_iface.Data_s (Data.token 11), `S, 11);
      (Xg_iface.Data_e (Data.token 12), `E, 12);
      (Xg_iface.Data_m (Data.token 13), `M, 13);
    ]
  in
  List.iter
    (fun (resp, expected_state, expected_value) ->
      let engine, l1, _sent = bare_l1 () in
      let got = ref None in
      let port = L1.cpu_port l1 in
      check_bool "accepted" true
        (port.Access.issue (Access.load a0) ~on_done:(fun v -> got := Some v));
      grant l1 a0 resp;
      ignore (Engine.run engine);
      check_state "granted state" expected_state (L1.probe l1 a0);
      Alcotest.(check (option int)) "granted value" (Some expected_value) !got)
    cases

let test_b_stalls_accesses () =
  let _, l1, _sent = bare_l1 () in
  issue_ok l1 (Access.load a0);
  issue_stalled l1 (Access.load a0);
  issue_stalled l1 (Access.store a0 (Data.token 1))

let test_b_invalidate_acks_and_stays () =
  let _, l1, sent = bare_l1 () in
  issue_ok l1 (Access.load a0);
  ignore (pop_sent sent);
  invalidate l1 a0;
  (match pop_sent sent with
  | Resp (_, Xg_iface.Inv_ack) -> ()
  | _ -> Alcotest.fail "expected InvAck");
  check_state "stays B" `B (L1.probe l1 a0)

let to_state l1 engine sent addr target =
  (* Drive the bare cache into a stable state. *)
  let port = L1.cpu_port l1 in
  (match target with
  | `S ->
      ignore (port.Access.issue (Access.load addr) ~on_done:(fun _ -> ()));
      ignore (pop_sent sent);
      grant l1 addr (Xg_iface.Data_s (Data.token 100))
  | `E ->
      ignore (port.Access.issue (Access.load addr) ~on_done:(fun _ -> ()));
      ignore (pop_sent sent);
      grant l1 addr (Xg_iface.Data_e (Data.token 100))
  | `M ->
      ignore (port.Access.issue (Access.store addr (Data.token 100)) ~on_done:(fun _ -> ()));
      ignore (pop_sent sent);
      grant l1 addr (Xg_iface.Data_m (Data.token 100)));
  ignore (Engine.run engine);
  check_state "setup state" target (L1.probe l1 addr)

let test_hits () =
  (* M/E/S + Load hit; M + Store hit; E + Store hit -> M. *)
  let engine, l1, sent = bare_l1 () in
  to_state l1 engine sent a0 `M;
  issue_ok l1 (Access.load a0);
  issue_ok l1 (Access.store a0 (Data.token 7));
  ignore (Engine.run engine);
  expect_no_sent sent;
  check_state "M stays M" `M (L1.probe l1 a0);

  let engine, l1, sent = bare_l1 () in
  to_state l1 engine sent a0 `E;
  issue_ok l1 (Access.load a0);
  ignore (Engine.run engine);
  check_state "E + Load stays E" `E (L1.probe l1 a0);
  issue_ok l1 (Access.store a0 (Data.token 7));
  ignore (Engine.run engine);
  expect_no_sent sent;
  check_state "E + Store -> M silently" `M (L1.probe l1 a0);

  let engine, l1, sent = bare_l1 () in
  to_state l1 engine sent a0 `S;
  issue_ok l1 (Access.load a0);
  ignore (Engine.run engine);
  expect_no_sent sent;
  check_state "S + Load stays S" `S (L1.probe l1 a0)

let test_s_store_upgrades () =
  let engine, l1, sent = bare_l1 () in
  to_state l1 engine sent a0 `S;
  let got = ref None in
  let port = L1.cpu_port l1 in
  check_bool "accepted" true
    (port.Access.issue (Access.store a0 (Data.token 42)) ~on_done:(fun v -> got := Some v));
  (match pop_sent sent with
  | Req (_, Xg_iface.Get_m) -> ()
  | _ -> Alcotest.fail "expected GetM upgrade");
  check_state "S + Store -> B" `B (L1.probe l1 a0);
  grant l1 a0 (Xg_iface.Data_m (Data.token 0));
  ignore (Engine.run engine);
  check_state "upgrade lands in M" `M (L1.probe l1 a0);
  Alcotest.(check (option int)) "store value applied" (Some 42) !got

let test_replacements () =
  (* One-way cache: a second address forces the eviction path per state. *)
  let expect_put target = function
    | Req (_, Xg_iface.Put_m _) -> check_bool "PutM for M" true (target = `M)
    | Req (_, Xg_iface.Put_e _) -> check_bool "PutE for E" true (target = `E)
    | Req (_, Xg_iface.Put_s) -> check_bool "PutS for S" true (target = `S)
    | _ -> Alcotest.fail "expected a Put"
  in
  List.iter
    (fun target ->
      let engine, l1, sent = bare_l1 ~ways:1 () in
      to_state l1 engine sent a0 target;
      (* Miss on a1 cannot allocate: the victim a0 starts its eviction and the
         access is rejected for retry. *)
      issue_stalled l1 (Access.load a1);
      expect_put target (pop_sent sent);
      check_state "victim in B" `B (L1.probe l1 a0);
      (* A retried access still stalls until the WbAck frees the way. *)
      issue_stalled l1 (Access.load a1);
      check_int "eviction pending" 1 (L1.pending_evictions l1);
      grant l1 a0 Xg_iface.Wb_ack;
      check_state "WbAck -> I" `I (L1.probe l1 a0);
      check_int "no pending eviction" 0 (L1.pending_evictions l1);
      issue_ok l1 (Access.load a1);
      ignore (Engine.run engine))
    [ `M; `E; `S ]

let test_invalidations_by_state () =
  let engine, l1, sent = bare_l1 () in
  to_state l1 engine sent a0 `M;
  invalidate l1 a0;
  (match pop_sent sent with
  | Resp (_, Xg_iface.Dirty_wb d) -> check_int "dirty data carried" 100 d
  | _ -> Alcotest.fail "M + Invalidate must send Dirty WB");
  check_state "-> I" `I (L1.probe l1 a0);

  let engine, l1, sent = bare_l1 () in
  to_state l1 engine sent a0 `E;
  invalidate l1 a0;
  (match pop_sent sent with
  | Resp (_, Xg_iface.Clean_wb _) -> ()
  | _ -> Alcotest.fail "E + Invalidate must send Clean WB");
  check_state "-> I" `I (L1.probe l1 a0);

  let engine, l1, sent = bare_l1 () in
  to_state l1 engine sent a0 `S;
  invalidate l1 a0;
  (match pop_sent sent with
  | Resp (_, Xg_iface.Inv_ack) -> ()
  | _ -> Alcotest.fail "S + Invalidate must send InvAck");
  check_state "-> I" `I (L1.probe l1 a0)

let test_spec_table_shape () =
  (* The published table: 24 possible transitions, 5 impossible ones. *)
  let possible = ref 0 and impossible = ref 0 in
  List.iter
    (fun s ->
      List.iter
        (fun e ->
          match L1.Spec.mesi s e with
          | L1.Spec.Impossible -> incr impossible
          | L1.Spec.Entry _ -> incr possible)
        L1.Spec.all_events)
    L1.Spec.all_states;
  check_int "states x events" 40 (!possible + !impossible);
  check_int "possible transitions" 23 !possible;
  (* I+Replacement and stable-state data arrivals are impossible. *)
  check_bool "I+Replacement impossible" true
    (L1.Spec.mesi L1.Spec.I L1.Spec.Replacement = L1.Spec.Impossible)

(* --- Flavors --- *)

let test_msi_treats_data_e_as_data_m () =
  let engine, l1, sent = bare_l1 ~flavor:L1.Msi () in
  issue_ok l1 (Access.load a0);
  ignore (pop_sent sent);
  grant l1 a0 (Xg_iface.Data_e (Data.token 9));
  ignore (Engine.run engine);
  check_state "DataE lands in M under MSI" `M (L1.probe l1 a0);
  invalidate l1 a0;
  match pop_sent sent with
  | Resp (_, Xg_iface.Dirty_wb _) -> ()
  | _ -> Alcotest.fail "MSI sends only dirty writebacks"

let test_vi_sends_only_getm () =
  let engine, l1, sent = bare_l1 ~flavor:L1.Vi ~ways:1 () in
  issue_ok l1 (Access.load a0);
  (match pop_sent sent with
  | Req (_, Xg_iface.Get_m) -> ()
  | _ -> Alcotest.fail "VI loads must issue GetM");
  grant l1 a0 (Xg_iface.Data_e (Data.token 3));
  ignore (Engine.run engine);
  check_state "V is M" `M (L1.probe l1 a0);
  issue_stalled l1 (Access.load a1);
  match pop_sent sent with
  | Req (_, Xg_iface.Put_m _) -> ()
  | _ -> Alcotest.fail "VI evictions are PutM"

(* --- Integration with Toy_home over an ordered link --- *)

type system = {
  engine : Engine.t;
  l1 : L1.t;
  home : Toy_home.t;
  seq : Sequencer.t;
  memory : Memory_model.t;
}

let make_system ?(flavor = L1.Mesi) ?(grant_style = Toy_home.Exclusive_when_clean) ?(sets = 2)
    ?(ways = 2) ?(seed = 1) () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed in
  let reg = Node.Registry.create () in
  let accel_node = Node.Registry.fresh reg "accel" in
  let home_node = Node.Registry.fresh reg "home" in
  let link =
    Xg_iface.Link.create ~engine ~rng ~name:"link"
      ~ordering:(Xguard_network.Network.Ordered { latency = 4 })
      ()
  in
  let lower = Lower_port.on_link link ~self:accel_node ~peer:home_node in
  let l1 = L1.create ~engine ~name:"accel.l1" ~flavor ~sets ~ways ~lower () in
  Xg_iface.Link.register link accel_node (fun ~src:_ msg -> L1.deliver l1 msg);
  let memory = Memory_model.create () in
  let home =
    Toy_home.create ~engine ~link ~self:home_node ~accel:accel_node ~memory ~grant_style ()
  in
  let seq = Sequencer.create ~engine ~name:"accel.seq" ~port:(L1.cpu_port l1) () in
  { engine; l1; home; seq; memory }

let test_end_to_end_load_store () =
  let sys = make_system () in
  let loaded = ref None in
  Sequencer.request sys.seq (Access.load a0) ~on_complete:(fun v ~latency:_ ->
      loaded := Some v);
  ignore (Engine.run sys.engine);
  Alcotest.(check (option int)) "load returns memory value" (Some (Data.initial a0)) !loaded;
  check_state "exclusive grant" `E (L1.probe sys.l1 a0);
  Sequencer.request sys.seq (Access.store a0 (Data.token 77)) ~on_complete:(fun _ ~latency:_ -> ());
  ignore (Engine.run sys.engine);
  check_state "silent upgrade" `M (L1.probe sys.l1 a0);
  (* The dirty value reaches memory on a recall. *)
  let recalled = ref false in
  Toy_home.recall sys.home a0 ~on_done:(fun () -> recalled := true);
  ignore (Engine.run sys.engine);
  check_bool "recall completed" true !recalled;
  check_int "memory updated" 77 (Memory_model.read sys.memory a0);
  check_state "invalidated" `I (L1.probe sys.l1 a0)

let test_eviction_writes_back_through_home () =
  let sys = make_system ~sets:1 ~ways:1 ~grant_style:Toy_home.Conservative () in
  Sequencer.request sys.seq (Access.store a0 (Data.token 5)) ~on_complete:(fun _ ~latency:_ -> ());
  ignore (Engine.run sys.engine);
  check_state "M after store" `M (L1.probe sys.l1 a0);
  (* Touch a conflicting address: a0 must be written back, then a1 granted. *)
  Sequencer.request sys.seq (Access.load a1) ~on_complete:(fun _ ~latency:_ -> ());
  ignore (Engine.run sys.engine);
  check_state "victim gone" `I (L1.probe sys.l1 a0);
  check_int "writeback reached memory" 5 (Memory_model.read sys.memory a0);
  check_bool "new block resident" true (L1.probe sys.l1 a1 <> `I)

let test_put_invalidate_race () =
  (* Start an eviction, then recall the same block while the Put is on the
     wire.  The home must absorb the Put, the L1 must InvAck from B, and both
     sides must settle with the block invalid and memory holding the data. *)
  let sys = make_system ~sets:1 ~ways:1 ~grant_style:Toy_home.Conservative () in
  Sequencer.request sys.seq (Access.store a0 (Data.token 123)) ~on_complete:(fun _ ~latency:_ -> ());
  ignore (Engine.run sys.engine);
  (* Kick off the eviction (rejected access starts it). *)
  let port = L1.cpu_port sys.l1 in
  check_bool "stalled while evicting" false
    (port.Access.issue (Access.load a1) ~on_done:(fun _ -> ()));
  check_state "PutM in flight" `B (L1.probe sys.l1 a0);
  let recalled = ref false in
  Toy_home.recall sys.home a0 ~on_done:(fun () -> recalled := true);
  ignore (Engine.run sys.engine);
  check_bool "recall completed despite race" true !recalled;
  check_int "racing Put data used" 123 (Memory_model.read sys.memory a0);
  check_state "line freed" `I (L1.probe sys.l1 a0);
  check_int "race was observed by home" 1
    (Xguard_stats.Counter.Group.get (Toy_home.stats sys.home) "put_inv_race")

(* Randomized single-core coherence check: every load observes the last
   committed store to its address; the final recall audit matches memory. *)
let run_random_workload ~flavor ~grant_style ~seed ~ops =
  let sys = make_system ~flavor ~grant_style ~sets:2 ~ways:2 ~seed () in
  let rng = Rng.create ~seed:(seed * 7 + 1) in
  let addresses = Array.init 12 Addr.block in
  let expected = Hashtbl.create 16 in
  let errors = ref 0 in
  let next_token = ref 1000 in
  for _ = 1 to ops do
    let addr = Rng.pick rng addresses in
    if Rng.bool rng then begin
      incr next_token;
      let v = Data.token !next_token in
      Sequencer.request sys.seq (Access.store addr v) ~on_complete:(fun _ ~latency:_ ->
          Hashtbl.replace expected addr v)
    end
    else
      Sequencer.request sys.seq (Access.load addr) ~on_complete:(fun v ~latency:_ ->
          let want =
            match Hashtbl.find_opt expected addr with
            | Some w -> w
            | None -> Data.initial addr
          in
          if not (Data.equal v want) then incr errors)
  done;
  ignore (Engine.run sys.engine);
  check_int "all ops completed" ops (Sequencer.completed sys.seq);
  check_int "no stale loads" 0 !errors;
  (* Audit: recall everything and compare memory against expectations. *)
  Array.iter
    (fun addr ->
      if L1.probe sys.l1 addr <> `I then Toy_home.recall sys.home addr ~on_done:(fun () -> ()))
    addresses;
  ignore (Engine.run sys.engine);
  Hashtbl.iter
    (fun addr want ->
      if not (Data.equal (Memory_model.read sys.memory addr) want) then
        Alcotest.failf "memory audit mismatch at %d" (Addr.to_int addr))
    expected

let test_random_workload_all_flavors () =
  List.iter
    (fun flavor ->
      List.iter
        (fun style -> run_random_workload ~flavor ~grant_style:style ~seed:3 ~ops:300)
        [ Toy_home.Exclusive_when_clean; Toy_home.Conservative ])
    [ L1.Mesi; L1.Msi; L1.Vi ]

let prop_random_workloads =
  QCheck2.Test.make ~name:"accel L1 coherent under random workloads" ~count:25
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      run_random_workload ~flavor:L1.Mesi ~grant_style:Toy_home.Exclusive_when_clean ~seed
        ~ops:200;
      true)

(* --- wake-on-release: the test delivers every message, so each wake is
   pinned to the delivery (or flush) that resolves the rejection --- *)

let test_wake_on_mshr_free () =
  let engine, l1, _sent = bare_l1 ~mshr_limit:1 () in
  issue_ok l1 (Access.load a0);
  let w = Wake_probe.issue engine (L1.cpu_port l1) (Access.load a1) in
  check_int "rejected: MSHR full" 1 w.rejections;
  ignore (Engine.run engine);
  check_bool "no wake before the MSHR frees" false w.accepted;
  grant l1 a0 (Xg_iface.Data_s (Data.token 1));
  ignore (Engine.run engine);
  check_bool "woken on the grant" true w.accepted;
  check_int "one rejection" 1 w.rejections

let test_wake_on_wb_ack () =
  let engine, l1, _sent = bare_l1 ~ways:1 () in
  issue_ok l1 (Access.load a0);
  grant l1 a0 (Xg_iface.Data_e (Data.token 1));
  ignore (Engine.run engine);
  let w = Wake_probe.issue engine (L1.cpu_port l1) (Access.load a1) in
  check_int "rejected: victim writing back" 1 w.rejections;
  check_state "victim busy" `B (L1.probe l1 a0);
  ignore (Engine.run engine);
  check_bool "no wake before the WbAck" false w.accepted;
  grant l1 a0 Xg_iface.Wb_ack;
  ignore (Engine.run engine);
  check_bool "woken on the WbAck" true w.accepted

let test_wake_on_flush () =
  (* A device reset drops the busy line without any delivery for it. *)
  let engine, l1, _sent = bare_l1 () in
  issue_ok l1 (Access.load a0);
  let w = Wake_probe.issue engine (L1.cpu_port l1) (Access.store a0 (Data.token 2)) in
  check_int "rejected: block busy" 1 w.rejections;
  L1.flush l1;
  ignore (Engine.run engine);
  check_bool "woken by the flush" true w.accepted

let test_no_wake_without_rejection () =
  let engine, l1, _sent = bare_l1 () in
  let woken = ref 0 in
  (L1.cpu_port l1).Access.watch (fun () -> incr woken);
  issue_ok l1 (Access.load a0);
  grant l1 a0 (Xg_iface.Data_s (Data.token 1));
  L1.flush l1;
  ignore (Engine.run engine);
  check_int "watcher never called" 0 !woken

let test_second_watcher_raises () =
  let _, l1, _sent = bare_l1 () in
  Wake_probe.second_watcher_raises (fun () -> L1.cpu_port l1)

let tests =
  [
    ( "accel.l1.table1",
      [
        Alcotest.test_case "I+Load issues GetS" `Quick test_i_load_issues_gets;
        Alcotest.test_case "I+Store issues GetM" `Quick test_i_store_issues_getm;
        Alcotest.test_case "I+Invalidate acks" `Quick test_i_invalidate_acks;
        Alcotest.test_case "B grants land in S/E/M" `Quick test_b_grants;
        Alcotest.test_case "B stalls accesses" `Quick test_b_stalls_accesses;
        Alcotest.test_case "B+Invalidate acks, stays B" `Quick test_b_invalidate_acks_and_stays;
        Alcotest.test_case "hits" `Quick test_hits;
        Alcotest.test_case "S+Store upgrade" `Quick test_s_store_upgrades;
        Alcotest.test_case "replacements per state" `Quick test_replacements;
        Alcotest.test_case "invalidations per state" `Quick test_invalidations_by_state;
        Alcotest.test_case "spec table shape" `Quick test_spec_table_shape;
      ] );
    ( "accel.l1.flavors",
      [
        Alcotest.test_case "MSI: DataE as DataM" `Quick test_msi_treats_data_e_as_data_m;
        Alcotest.test_case "VI: GetM only" `Quick test_vi_sends_only_getm;
      ] );
    ( "accel.l1.integration",
      [
        Alcotest.test_case "end-to-end load/store/recall" `Quick test_end_to_end_load_store;
        Alcotest.test_case "eviction writeback" `Quick test_eviction_writes_back_through_home;
        Alcotest.test_case "Put/Invalidate race" `Quick test_put_invalidate_race;
        Alcotest.test_case "random workload, all flavors" `Quick test_random_workload_all_flavors;
        QCheck_alcotest.to_alcotest prop_random_workloads;
      ] );
    ( "accel.l1.wake",
      [
        Alcotest.test_case "MSHR free wakes" `Quick test_wake_on_mshr_free;
        Alcotest.test_case "WbAck wakes" `Quick test_wake_on_wb_ack;
        Alcotest.test_case "flush wakes" `Quick test_wake_on_flush;
        Alcotest.test_case "no wake without a rejection" `Quick test_no_wake_without_rejection;
        Alcotest.test_case "second watcher raises" `Quick test_second_watcher_raises;
      ] );
  ]
