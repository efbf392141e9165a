type t =
  | Chan : {
      devid : int;
      ops : 'n Ninep.Server.fs;
      node : 'n;
    }
      -> t

exception Error of string

(* servers turn uncaught handler exceptions into Rerror text; render
   channel errors as their message so "connection hung up" crosses an
   exportfs hop intact instead of as Vfs__Chan.Error(...) *)
let () =
  Printexc.register_printer (function Error e -> Some e | _ -> None)

let ok = function Ok v -> v | Error e -> raise (Error e)

let attach ~devid ops ~uname ~aname =
  let node = ok (ops.Ninep.Server.fs_attach ~uname ~aname) in
  Chan { devid; ops; node }

let qid (Chan c) = c.ops.Ninep.Server.fs_qid c.node
let is_dir c = Ninep.Fcall.qid_is_dir (qid c)
let devid (Chan c) = c.devid

let clone (Chan c) =
  Chan { c with node = ok (c.ops.Ninep.Server.fs_clone c.node) }

let walk (Chan c) name =
  match c.ops.Ninep.Server.fs_walk c.node name with
  | Ok node -> Ok (Chan { c with node })
  | Error e -> Error e

let clunk (Chan c) = c.ops.Ninep.Server.fs_clunk c.node

let clunk_on_error c f =
  try f c
  with Error _ as e ->
    clunk c;
    raise e

let using c f =
  let v = clunk_on_error c f in
  clunk c;
  v

let walk1 (Chan c) name =
  match c.ops.Ninep.Server.fs_clwalk c.node name with
  | Ok node -> Ok (Chan { c with node })
  | Error e -> Error e

let open_ (Chan c) ?(trunc = false) mode =
  ok (c.ops.Ninep.Server.fs_open c.node mode ~trunc)

let create (Chan c) ~name ~perm mode =
  let node = ok (c.ops.Ninep.Server.fs_create c.node ~name ~perm mode) in
  Chan { c with node }

let read (Chan c) ~offset ~count =
  ok (c.ops.Ninep.Server.fs_read c.node ~offset ~count)

let write (Chan c) ~offset data =
  ok (c.ops.Ninep.Server.fs_write c.node ~offset ~data)

let stat (Chan c) = ok (c.ops.Ninep.Server.fs_stat c.node)
let wstat (Chan c) d = ok (c.ops.Ninep.Server.fs_wstat c.node d)
let remove (Chan c) = ok (c.ops.Ninep.Server.fs_remove c.node)
