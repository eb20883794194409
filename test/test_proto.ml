(* Tests for the protocol substrate: addresses, cache arrays, TBEs, memory,
   the sequencer. *)

module Engine = Xguard_sim.Engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_addr_pages () =
  let a = Addr.block 0 and b = Addr.block 63 and c = Addr.block 64 in
  check_int "page 0" 0 (Addr.page_of a);
  check_int "last block of page 0" 0 (Addr.page_of b);
  check_int "first block of page 1" 1 (Addr.page_of c);
  check_int "round trip" 128 (Addr.first_block_of_page 2)

let test_data_initial_distinct_from_zero () =
  let distinct = ref 0 in
  for a = 0 to 999 do
    if not (Data.equal (Data.initial (Addr.block a)) Data.zero) then incr distinct
  done;
  check_int "initial values are nonzero" 1000 !distinct

let test_perm_lattice () =
  check_bool "None !read" false (Perm.allows_read Perm.No_access);
  check_bool "RO read" true (Perm.allows_read Perm.Read_only);
  check_bool "RO !write" false (Perm.allows_write Perm.Read_only);
  check_bool "RW write" true (Perm.allows_write Perm.Read_write)

let test_cache_insert_find () =
  let c = Cache_array.create ~sets:4 ~ways:2 () in
  Cache_array.insert c (Addr.block 0) "a";
  Cache_array.insert c (Addr.block 4) "b";
  (* same set as 0 *)
  Alcotest.(check (option string)) "find a" (Some "a") (Cache_array.find c (Addr.block 0));
  Alcotest.(check (option string)) "find b" (Some "b") (Cache_array.find c (Addr.block 4));
  check_int "count" 2 (Cache_array.count c);
  check_bool "set 0 now full" false (Cache_array.has_room c (Addr.block 8))

let test_cache_lru_victim () =
  let c = Cache_array.create ~sets:1 ~ways:3 () in
  Cache_array.insert c (Addr.block 1) ();
  Cache_array.insert c (Addr.block 2) ();
  Cache_array.insert c (Addr.block 3) ();
  (* LRU is 1; touching it should make 2 the victim. *)
  (match Cache_array.victim c (Addr.block 9) with
  | Some (a, ()) -> check_int "victim is LRU" 1 (Addr.to_int a)
  | None -> Alcotest.fail "expected a victim");
  Cache_array.touch c (Addr.block 1);
  (match Cache_array.victim c (Addr.block 9) with
  | Some (a, ()) -> check_int "victim after touch" 2 (Addr.to_int a)
  | None -> Alcotest.fail "expected a victim");
  (* A resident address needs no victim. *)
  Alcotest.(check bool) "resident: no victim" true (Cache_array.victim c (Addr.block 2) = None)

let test_cache_full_set_rejects_insert () =
  let c = Cache_array.create ~sets:1 ~ways:1 () in
  Cache_array.insert c (Addr.block 1) ();
  (try
     Cache_array.insert c (Addr.block 2) ();
     Alcotest.fail "expected rejection"
   with Invalid_argument _ -> ());
  (try
     Cache_array.insert c (Addr.block 1) ();
     Alcotest.fail "expected duplicate rejection"
   with Invalid_argument _ -> ());
  Cache_array.remove c (Addr.block 1);
  Cache_array.insert c (Addr.block 2) ();
  check_int "insert after eviction" 1 (Cache_array.count c)

let test_cache_set_updates_payload () =
  let c = Cache_array.create ~sets:2 ~ways:2 () in
  Cache_array.insert c (Addr.block 3) 10;
  Cache_array.set c (Addr.block 3) 20;
  Alcotest.(check (option int)) "updated" (Some 20) (Cache_array.find c (Addr.block 3));
  try
    Cache_array.set c (Addr.block 5) 1;
    Alcotest.fail "expected Not_found"
  with Not_found -> ()

let test_cache_non_power_of_two_sets () =
  try
    ignore (Cache_array.create ~sets:3 ~ways:1 ());
    Alcotest.fail "expected rejection"
  with Invalid_argument _ -> ()

let test_tbe_lifecycle () =
  let t = Tbe_table.create ~capacity:2 () in
  Alcotest.(check bool) "alloc ok" true (Tbe_table.alloc t (Addr.block 1) "x" = `Ok);
  Alcotest.(check bool) "busy" true (Tbe_table.alloc t (Addr.block 1) "y" = `Busy);
  Alcotest.(check bool) "alloc 2" true (Tbe_table.alloc t (Addr.block 2) "z" = `Ok);
  Alcotest.(check bool) "full" true (Tbe_table.alloc t (Addr.block 3) "w" = `Full);
  Tbe_table.update t (Addr.block 1) "x2";
  Alcotest.(check (option string)) "updated" (Some "x2") (Tbe_table.find t (Addr.block 1));
  Tbe_table.dealloc t (Addr.block 1);
  check_int "count after dealloc" 1 (Tbe_table.count t);
  try
    Tbe_table.dealloc t (Addr.block 1);
    Alcotest.fail "expected Not_found"
  with Not_found -> ()

let test_memory_defaults_and_writes () =
  let m = Memory_model.create () in
  let a = Addr.block 17 in
  Alcotest.(check bool) "initial value" true (Data.equal (Memory_model.read m a) (Data.initial a));
  Memory_model.write m a (Data.token 99);
  check_int "written value" 99 (Memory_model.read m a);
  check_int "touched" 1 (List.length (Memory_model.touched m))

(* A fake cache port: rejects the first [reject] attempts per access, waking
   its watcher 2 cycles after each rejection, then completes after [latency]
   cycles with a canned value. *)
let fake_port engine ~reject ~latency =
  let attempts = Hashtbl.create 8 in
  let watcher = ref ignore in
  {
    Access.issue =
      (fun access ~on_done ->
        let addr = access.Access.addr in
        let n = match Hashtbl.find_opt attempts addr with Some n -> n | None -> 0 in
        Hashtbl.replace attempts addr (n + 1);
        if n < reject then begin
          Engine.schedule engine ~delay:2 (fun () -> !watcher ());
          false
        end
        else begin
          Engine.schedule engine ~delay:latency (fun () -> on_done (Data.token 7));
          true
        end);
    watch = (fun f -> watcher := f);
  }

let test_sequencer_completes_and_measures () =
  let e = Engine.create () in
  let seq =
    Sequencer.create ~engine:e ~name:"seq" ~port:(fake_port e ~reject:0 ~latency:5) ()
  in
  let got = ref None in
  Sequencer.request seq (Access.load (Addr.block 1)) ~on_complete:(fun v ~latency ->
      got := Some (v, latency));
  ignore (Engine.run e);
  (match !got with
  | Some (v, lat) ->
      check_int "value" 7 v;
      check_int "latency" 5 lat
  | None -> Alcotest.fail "did not complete");
  check_int "completed count" 1 (Sequencer.completed seq)

let test_sequencer_retries_on_reject () =
  let e = Engine.create () in
  let seq =
    Sequencer.create ~engine:e ~name:"seq" ~port:(fake_port e ~reject:3 ~latency:1) ()
  in
  let done_ = ref false in
  Sequencer.request seq (Access.load (Addr.block 1)) ~on_complete:(fun _ ~latency:_ ->
      done_ := true);
  ignore (Engine.run e);
  check_bool "completed despite rejections" true !done_;
  check_int "counted retries" 3 (Sequencer.retries seq)

let test_sequencer_serializes_same_address () =
  let e = Engine.create () in
  (* A port that records how many accesses are in flight at once. *)
  let in_flight = ref 0 and max_in_flight = ref 0 in
  let port =
    {
      Access.issue =
        (fun _access ~on_done ->
          incr in_flight;
          if !in_flight > !max_in_flight then max_in_flight := !in_flight;
          Engine.schedule e ~delay:10 (fun () ->
              decr in_flight;
              on_done Data.zero);
          true);
      watch = ignore;
    }
  in
  let seq = Sequencer.create ~engine:e ~name:"seq" ~port () in
  for _ = 1 to 5 do
    Sequencer.request seq (Access.store (Addr.block 9) (Data.token 1))
      ~on_complete:(fun _ ~latency:_ -> ())
  done;
  ignore (Engine.run e);
  check_int "same-address accesses serialized" 1 !max_in_flight;
  check_int "all completed" 5 (Sequencer.completed seq)

let test_sequencer_parallel_distinct_addresses () =
  let e = Engine.create () in
  let in_flight = ref 0 and max_in_flight = ref 0 in
  let port =
    {
      Access.issue =
        (fun _access ~on_done ->
          incr in_flight;
          if !in_flight > !max_in_flight then max_in_flight := !in_flight;
          Engine.schedule e ~delay:10 (fun () ->
              decr in_flight;
              on_done Data.zero);
          true);
      watch = ignore;
    }
  in
  let seq = Sequencer.create ~engine:e ~name:"seq" ~port ~max_outstanding:4 () in
  for i = 1 to 4 do
    Sequencer.request seq (Access.load (Addr.block i)) ~on_complete:(fun _ ~latency:_ -> ())
  done;
  ignore (Engine.run e);
  check_int "distinct addresses overlap" 4 !max_in_flight

let test_sequencer_wake_on_release () =
  (* Four accepted accesses complete at cycles 10..40; a fifth is rejected
     until the port wakes its watcher at cycle 60.  Completions must not
     re-poll the rejected head: the sequencer schedules nothing while it
     waits, and the access issues on the wake-up. *)
  let e = Engine.create () in
  let wake_at = 60 in
  let released = ref false and watcher = ref ignore and issued_at = ref (-1) in
  let in_flight = ref 0 in
  let port =
    {
      Access.issue =
        (fun access ~on_done ->
          let a = Addr.to_int access.Access.addr in
          if a = 5 && not !released then false
          else begin
            if a = 5 then issued_at := Engine.now e;
            incr in_flight;
            Engine.schedule e ~delay:(10 * a) (fun () ->
                decr in_flight;
                on_done (Data.token 7));
            true
          end);
      watch = (fun f -> watcher := f);
    }
  in
  let seq = Sequencer.create ~engine:e ~name:"seq" ~port () in
  Engine.schedule e ~delay:wake_at (fun () ->
      released := true;
      !watcher ());
  for i = 1 to 5 do
    Sequencer.request seq (Access.load (Addr.block i)) ~on_complete:(fun _ ~latency:_ -> ())
  done;
  (* Besides the in-flight completions, only the port's own wake-up event may
     be pending while the access is blocked. *)
  let worst_excess = ref 0 in
  while Engine.run e ~max_events:1 <> Engine.Drained do
    if not !released then
      worst_excess := max !worst_excess (Engine.pending e - !in_flight - 1)
  done;
  check_int "all completed" 5 (Sequencer.completed seq);
  check_int "blocked access issues on the wake-up" wake_at !issued_at;
  check_bool
    (Printf.sprintf "%d retries <= 2" (Sequencer.retries seq))
    true
    (Sequencer.retries seq <= 2);
  check_int "no sequencer event pending while blocked" 0 !worst_excess

let test_sequencer_never_woken_drains () =
  (* A port that rejects and never wakes: the run drains instead of polling,
     and the access stays queued. *)
  let e = Engine.create () in
  let port = { Access.issue = (fun _ ~on_done:_ -> false); watch = ignore } in
  let seq = Sequencer.create ~engine:e ~name:"seq" ~port () in
  let done_ = ref false in
  Sequencer.request seq (Access.load (Addr.block 1)) ~on_complete:(fun _ ~latency:_ ->
      done_ := true);
  check_bool "drains" true (Engine.run e ~max_events:1000 = Engine.Drained);
  check_bool "never completes" false !done_;
  check_int "still queued" 1 (Sequencer.outstanding seq);
  check_int "rejected once" 1 (Sequencer.retries seq)

let tests =
  [
    ( "proto.basics",
      [
        Alcotest.test_case "addr pages" `Quick test_addr_pages;
        Alcotest.test_case "data initial" `Quick test_data_initial_distinct_from_zero;
        Alcotest.test_case "perm lattice" `Quick test_perm_lattice;
        Alcotest.test_case "memory defaults" `Quick test_memory_defaults_and_writes;
      ] );
    ( "proto.cache_array",
      [
        Alcotest.test_case "insert/find" `Quick test_cache_insert_find;
        Alcotest.test_case "LRU victim" `Quick test_cache_lru_victim;
        Alcotest.test_case "full set rejects" `Quick test_cache_full_set_rejects_insert;
        Alcotest.test_case "set payload" `Quick test_cache_set_updates_payload;
        Alcotest.test_case "power-of-two sets" `Quick test_cache_non_power_of_two_sets;
      ] );
    ("proto.tbe", [ Alcotest.test_case "lifecycle" `Quick test_tbe_lifecycle ]);
    ( "proto.sequencer",
      [
        Alcotest.test_case "completes + latency" `Quick test_sequencer_completes_and_measures;
        Alcotest.test_case "retries" `Quick test_sequencer_retries_on_reject;
        Alcotest.test_case "same-address serialization" `Quick
          test_sequencer_serializes_same_address;
        Alcotest.test_case "parallel distinct addresses" `Quick
          test_sequencer_parallel_distinct_addresses;
        Alcotest.test_case "wake on release" `Quick test_sequencer_wake_on_release;
        Alcotest.test_case "never woken: drains" `Quick test_sequencer_never_woken_drains;
      ] );
  ]
