type op = Load | Store of Data.t

type t = { op : op; addr : Addr.t }

let load addr = { op = Load; addr }
let store addr data = { op = Store data; addr }
let is_store t = match t.op with Store _ -> true | Load -> false

let pp fmt t =
  match t.op with
  | Load -> Format.fprintf fmt "LD %a" Addr.pp t.addr
  | Store d -> Format.fprintf fmt "ST %a=%a" Addr.pp t.addr Data.pp d

type port = {
  issue : t -> on_done:(Data.t -> unit) -> bool;
  watch : (unit -> unit) -> unit;
}

module Waker = struct
  type t = { mutable watcher : (unit -> unit) option; mutable blocked : bool }

  let create () = { watcher = None; blocked = false }

  let watch t f =
    match t.watcher with
    | Some _ -> invalid_arg "Access.Waker.watch: port already has a watcher"
    | None -> t.watcher <- Some f

  (* An accepted access leaves an earlier rejection's wake-up owed. *)
  let issue t f access ~on_done =
    let ok = f access ~on_done in
    if not ok then t.blocked <- true;
    ok

  let port t f = { issue = (fun access ~on_done -> issue t f access ~on_done); watch = watch t }

  let wake t =
    if t.blocked then begin
      t.blocked <- false;
      match t.watcher with Some f -> f () | None -> ()
    end

  let blocked t = t.blocked
end
