(* Inputs for parser totality properties: random strings over the spec
   alphabet (plus arbitrary bytes), and valid specs with one to four random
   edits.  A total parser answers [Ok] or [Error] on every one of them and
   never raises. *)

module G = QCheck2.Gen

let alphabet = "abcdefghijklmnopqrstuvwxyz0123456789:;,=<>@._- \"\\[]{}+eE"

let spec_char =
  G.frequency [ (4, G.oneofl (List.of_seq (String.to_seq alphabet))); (1, G.char) ]

(* Insert, delete or replace the character at a random position, cut the
   tail there, or repeat the head. *)
let edit s =
  let n = String.length s in
  G.map3
    (fun kind p c ->
      let head = String.sub s 0 p and tail = String.sub s p (n - p) in
      let rest = if p < n then String.sub s (p + 1) (n - p - 1) else "" in
      match kind with
      | 0 -> head ^ String.make 1 c ^ tail
      | 1 -> head ^ rest
      | 2 -> head ^ String.make 1 c ^ rest
      | 3 -> head
      | _ -> head ^ head ^ tail)
    (G.int_bound 4) (G.int_bound n) spec_char

let rec edits k s = if k = 0 then G.pure s else G.bind (edit s) (edits (k - 1))

let input ~valid =
  G.oneof
    [
      G.string_size ~gen:spec_char (G.int_bound 40);
      G.bind (G.int_range 1 4) (fun k -> G.bind (G.oneofl valid) (edits k));
    ]

let total ~name ~valid parse =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:500 ~print:(Printf.sprintf "%S") (input ~valid)
       (fun s -> match parse s with Ok _ | Error _ -> true))
