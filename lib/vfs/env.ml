type fd = int

type open_file = {
  of_chan : Chan.t;
  of_path : string;
  mutable of_offset : int64;
  (* union directories are snapshotted at open so offsets are stable *)
  mutable of_dirdata : string option;
  (* dup and fork share the record; the channel is clunked when the
     last reference closes *)
  mutable of_refs : int;
}

type t = {
  env_ns : Ns.t;
  env_uname : string;
  mutable env_dot : string;
  fds : (int, open_file) Hashtbl.t;
  mutable next_fd : int;
}

let make ~ns ~uname =
  { env_ns = ns; env_uname = uname; env_dot = "/"; fds = Hashtbl.create 17;
    next_fd = 0 }

let fork ?(share_ns = false) t =
  (* descriptors are inherited across fork, sharing channel and offset
     (exactly what the paper's echo server relies on: the child accepts
     the call on the listen fd, the parent closes its copy) *)
  let fds = Hashtbl.create 17 in
  Hashtbl.iter
    (fun fd f ->
      f.of_refs <- f.of_refs + 1;
      Hashtbl.replace fds fd f)
    t.fds;
  {
    env_ns = (if share_ns then t.env_ns else Ns.fork t.env_ns);
    env_uname = t.env_uname;
    env_dot = t.env_dot;
    fds;
    next_fd = t.next_fd;
  }

let ns t = t.env_ns
let uname t = t.env_uname
let dot t = t.env_dot

let abspath t path =
  "/" ^ String.concat "/" (Ns.normalize ~dot:t.env_dot path)

let resolve t path = Ns.resolve t.env_ns (abspath t path)

let chdir t path =
  let p = abspath t path in
  if not (Chan.using (resolve t p) Chan.is_dir) then
    raise (Chan.Error (p ^ ": not a directory"));
  t.env_dot <- p

let install t ofile =
  let fd = t.next_fd in
  t.next_fd <- fd + 1;
  Hashtbl.replace t.fds fd ofile;
  fd

let fetch t fd =
  match Hashtbl.find_opt t.fds fd with
  | Some f -> f
  | None -> raise (Chan.Error (Printf.sprintf "bad file descriptor %d" fd))

(* the union lives on the underlying (mounted-upon) channel: snapshot
   a directory's union there, then cross into the mount and open *)
let open_ t path ?(trunc = false) mode =
  let p = abspath t path in
  let under = Ns.resolve_for_mount t.env_ns p in
  let dirdata =
    if not (Chan.is_dir under) then None
    else
      let es = Ns.read_dir t.env_ns under in
      Some (String.concat "" (List.map Ninep.Fcall.encode_dir es))
  in
  let c = Chan.clunk_on_error under (Ns.enter t.env_ns) in
  let trunc = trunc && dirdata = None in
  Chan.clunk_on_error c (fun c -> Chan.open_ c ~trunc mode);
  install t
    { of_chan = c; of_path = p; of_offset = 0L; of_dirdata = dirdata;
      of_refs = 1 }

let create t path ~perm mode =
  let comps = Ns.normalize ~dot:t.env_dot path in
  match List.rev comps with
  | [] -> raise (Chan.Error "create: empty path")
  | name :: rev_dir ->
    let dirpath = "/" ^ String.concat "/" (List.rev rev_dir) in
    (* create happens in the first union member with MCREATE set *)
    let parent = Ns.resolve_for_mount t.env_ns dirpath in
    let c =
      match Ns.create_target t.env_ns parent with
      | Ok dir ->
        Chan.clunk_on_error dir (fun d -> Chan.create d ~name ~perm mode)
      | Error e ->
        Chan.clunk parent;
        raise (Chan.Error (Printf.sprintf "%s: %s" dirpath e))
    in
    install t
      { of_chan = c; of_path = abspath t path; of_offset = 0L;
        of_dirdata = None; of_refs = 1 }

let pread t fd ~offset n =
  let f = fetch t fd in
  match f.of_dirdata with
  | Some data -> Ninep.Server.slice data ~offset ~count:n
  | None -> Chan.read f.of_chan ~offset ~count:n

let read t fd n =
  let f = fetch t fd in
  let data =
    match f.of_dirdata with
    | Some dirdata ->
      let n = n - (n mod Ninep.Fcall.dirlen) in
      Ninep.Server.slice dirdata ~offset:f.of_offset ~count:n
    | None -> Chan.read f.of_chan ~offset:f.of_offset ~count:n
  in
  f.of_offset <- Int64.add f.of_offset (Int64.of_int (String.length data));
  data

let pwrite t fd ~offset data =
  let f = fetch t fd in
  Chan.write f.of_chan ~offset data

let write t fd data =
  let f = fetch t fd in
  let n = Chan.write f.of_chan ~offset:f.of_offset data in
  f.of_offset <- Int64.add f.of_offset (Int64.of_int n);
  n

let seek t fd off = (fetch t fd).of_offset <- off
let offset t fd = (fetch t fd).of_offset

let close t fd =
  match Hashtbl.find_opt t.fds fd with
  | Some f ->
    Hashtbl.remove t.fds fd;
    f.of_refs <- f.of_refs - 1;
    if f.of_refs <= 0 then Chan.clunk f.of_chan
  | None -> ()

let dup t fd =
  let f = fetch t fd in
  (* Plan 9 dup shares the channel (and offset); sharing the record
     gives exactly that *)
  f.of_refs <- f.of_refs + 1;
  let fd' = t.next_fd in
  t.next_fd <- fd' + 1;
  Hashtbl.replace t.fds fd' f;
  fd'

let fd_path t fd = (fetch t fd).of_path

let stat t path = Chan.using (resolve t path) Chan.stat

let wstat t path d = Chan.using (resolve t path) (fun c -> Chan.wstat c d)

let remove t path = Chan.remove (resolve t path)

let ls t path =
  let under = Ns.resolve_for_mount t.env_ns (abspath t path) in
  let entries =
    if Chan.is_dir under then Chan.using under (Ns.read_dir t.env_ns)
    else
      [ Chan.using (Chan.clunk_on_error under (Ns.enter t.env_ns)) Chan.stat ]
  in
  List.sort (fun a b -> compare a.Ninep.Fcall.d_name b.Ninep.Fcall.d_name) entries

let read_file t path =
  let fd = open_ t path Ninep.Fcall.Oread in
  let buf = Buffer.create 256 in
  let rec go () =
    let s = read t fd Ninep.Fcall.maxfdata in
    if s <> "" then begin
      Buffer.add_string buf s;
      go ()
    end
  in
  go ();
  close t fd;
  Buffer.contents buf

let write_file t path data =
  let fd =
    try open_ t path ~trunc:true Ninep.Fcall.Owrite
    with Chan.Error _ -> create t path ~perm:0o664l Ninep.Fcall.Owrite
  in
  ignore (write t fd data);
  close t fd

let ensure_dir t path =
  ignore
    (List.fold_left
       (fun dir name ->
         let path = dir ^ "/" ^ name in
         (try ignore (stat t path)
          with Chan.Error _ ->
            close t
              (create t path
                 ~perm:(Int32.logor Ninep.Fcall.dmdir 0o775l)
                 Ninep.Fcall.Oread));
         path)
       "" (Ns.normalize ~dot:t.env_dot path))

let install_chan t chan ~path =
  install t
    { of_chan = chan; of_path = path; of_offset = 0L; of_dirdata = None;
      of_refs = 1 }

let bind_chan ~mcreate t csrc ~onto flag =
  match Ns.resolve_for_mount t.env_ns (abspath t onto) with
  | conto -> Ns.bind ~mcreate t.env_ns ~src:csrc ~onto:conto flag
  | exception (Chan.Error _ as e) ->
    Chan.clunk csrc;
    raise e

let bind ?(mcreate = true) t ~src ~onto flag =
  bind_chan ~mcreate t (resolve t src) ~onto flag

let mount_fs ?(mcreate = true) t fs ~onto flag =
  let devid = Ns.fresh_devid t.env_ns in
  let csrc = Chan.attach ~devid fs ~uname:t.env_uname ~aname:"" in
  bind_chan ~mcreate t csrc ~onto flag

let mount ?(mcreate = true) t client ?(aname = "") ~onto flag =
  let metrics = Obs.Metrics.create () in
  Ns.register_mount t.env_ns ~onto:(abspath t onto) metrics client;
  let fs = Mnt.fs client ~aname ~metrics ~name:("mnt:" ^ onto) () in
  mount_fs ~mcreate t fs ~onto flag

(* [onto] and [src] are only keys; the members the unmount drops stay
   unclunked, since a forked name space may still hold them *)
let unmount ?src t ~onto =
  let under = Ns.resolve_for_mount t.env_ns (abspath t onto) in
  Chan.using under (fun under ->
      let csrc = Option.map (resolve t) src in
      Ns.unmount ?src:csrc t.env_ns ~onto:under;
      Option.iter Chan.clunk csrc)
