type node = {
  env : Vfs.Env.t;
  mutable ch : Vfs.Chan.t;
  mutable opened : bool;
  mutable dirdata : string option;  (* union snapshot for dir reads *)
}

let union_snapshot env ch =
  let entries = Vfs.Ns.read_dir (Vfs.Env.ns env) ch in
  String.concat "" (List.map Ninep.Fcall.encode_dir entries)

(* Qids must be unique per 9P connection, but a re-exported name space
   draws on several underlying servers whose qid spaces are
   independent — relaying their qpaths verbatim can alias two distinct
   files at the importer (whose mount table and caches key on the
   qid).  Each export therefore issues its own qpaths, stable per
   underlying file (keyed by the channel's device+qid identity); the
   directory bit and the version — which caches watch for
   invalidation — pass through. *)
type qmap = { qm_tbl : (int * int, int) Hashtbl.t; mutable qm_next : int }

let remap_qid qm ch q =
  let key = (Vfs.Chan.devid ch, (Vfs.Chan.qid ch).Ninep.Fcall.qpath) in
  let path =
    match Hashtbl.find_opt qm.qm_tbl key with
    | Some p -> p
    | None ->
      let p = qm.qm_next in
      qm.qm_next <- (p + 1) land 0xffffffff;
      Hashtbl.add qm.qm_tbl key p;
      p
  in
  let dir = q.Ninep.Fcall.qpath land Ninep.Fcall.qdir_bit in
  { q with Ninep.Fcall.qpath = path lor dir }

(* exportfs keeps no path state; ".." is resolved by the importer's
   lexical cleanup before it ever reaches us *)
let dotdot = "walk .. not supported across export"

let fs env =
  let qm = { qm_tbl = Hashtbl.create 64; qm_next = 1 } in
  {
    Ninep.Server.fs_name = "exportfs";
    fs_attach =
      (fun ~uname:_ ~aname ->
        let path = if aname = "" then "/" else aname in
        match Vfs.Env.resolve env path with
        | ch -> Ok { env; ch; opened = false; dirdata = None }
        | exception Vfs.Chan.Error e -> Error e);
    fs_qid = (fun n -> remap_qid qm n.ch (Vfs.Chan.qid n.ch));
    fs_walk =
      (fun n name ->
        if name = ".." then Error dotdot
        else
          (* the node's own channel walks in place, as the fid does;
             only a union crossing makes a new channel *)
          match Vfs.Ns.walk1 (Vfs.Env.ns n.env) n.ch name with
          | Ok ch ->
            n.ch <- ch;
            Ok n
          | Error e -> Error e);
    fs_open =
      (fun n mode ~trunc ->
        match
          if Vfs.Chan.is_dir n.ch then begin
            (* union listing is computed from the underlying channel *)
            n.dirdata <- Some (union_snapshot n.env n.ch);
            Vfs.Chan.open_ n.ch mode
          end
          else begin
            (* a file that is a mount point must be entered so the
               mounted file, not the one beneath, is opened *)
            n.ch <- Vfs.Ns.enter (Vfs.Env.ns n.env) n.ch;
            Vfs.Chan.open_ n.ch ~trunc mode
          end
        with
        | () ->
          n.opened <- true;
          Ok ()
        | exception Vfs.Chan.Error e -> Error e);
    fs_read =
      (fun n ~offset ~count ->
        if not n.opened then Error "not open"
        else
          match n.dirdata with
          | Some data -> Ok (Ninep.Server.slice data ~offset ~count)
          | None -> (
            match Vfs.Chan.read n.ch ~offset ~count with
            | data -> Ok data
            | exception Vfs.Chan.Error e -> Error e));
    fs_write =
      (fun n ~offset ~data ->
        if not n.opened then Error "not open"
        else
          match Vfs.Chan.write n.ch ~offset data with
          | count -> Ok count
          | exception Vfs.Chan.Error e -> Error e);
    fs_create =
      (fun n ~name ~perm mode ->
        (* create lands in the first union member with MCREATE set, as
           in the kernel; a union that forbids creation relays the
           refusal *)
        match
          match Vfs.Ns.create_target (Vfs.Env.ns n.env) n.ch with
          | Ok target ->
            (* the target replaces the channel, even if create fails *)
            n.ch <- target;
            Vfs.Chan.create target ~name ~perm mode
          | Error e -> raise (Vfs.Chan.Error e)
        with
        | ch ->
          n.ch <- ch;
          n.opened <- true;
          Ok n
        | exception Vfs.Chan.Error e -> Error e);
    fs_remove =
      (fun n ->
        match Vfs.Chan.remove n.ch with
        | () -> Ok ()
        | exception Vfs.Chan.Error e -> Error e);
    fs_stat =
      (fun n ->
        match Vfs.Chan.stat n.ch with
        | d ->
          (* the stat's qid must agree with the walk's *)
          Ok
            {
              d with
              Ninep.Fcall.d_qid =
                remap_qid qm n.ch d.Ninep.Fcall.d_qid;
            }
        | exception Vfs.Chan.Error e -> Error e);
    fs_wstat =
      (fun n d ->
        match Vfs.Chan.wstat n.ch d with
        | () -> Ok ()
        | exception Vfs.Chan.Error e -> Error e);
    fs_clunk = (fun n -> Vfs.Chan.clunk n.ch);
    fs_clone =
      (fun n ->
        match Vfs.Chan.clone n.ch with
        | ch -> Ok { env = n.env; ch; opened = false; dirdata = None }
        | exception Vfs.Chan.Error e -> Error e);
    fs_clwalk =
      (fun n name ->
        if name = ".." then Error dotdot
        else
          (* no clone of our own channel: a Tclwalk from the importer
             is one Tclwalk at a mount it crosses *)
          match Vfs.Ns.clwalk (Vfs.Env.ns n.env) n.ch name with
          | Ok ch -> Ok { env = n.env; ch; opened = false; dirdata = None }
          | Error e -> Error e);
  }

let serve eng env tr = Ninep.Server.serve ~threaded:true eng (fs env) tr

let import eng env ?(proto = "net") ?(mcreate = true) ~host ~remote_root
    ~onto ?(flag = Vfs.Ns.After) () =
  (* the import span is the root covering dial (cs lookup + transport
     handshake), the 9P session and the attach: one trace per mount *)
  let obs = Sim.Engine.obs eng in
  let sp =
    match obs with
    | None -> Obs.Span.none
    | Some tr -> Obs.Span.enter tr ~layer:"import" ("import " ^ host)
  in
  let fin () = match obs with None -> () | Some tr -> Obs.Span.exit tr sp in
  match
    let conn = Dial.dial env (Printf.sprintf "%s!%s!exportfs" proto host) in
    (* the ctl fd must stay open or the connection would drop; it is
       owned by the mount from here on.  9P flows over the data fd. *)
    let tr = Fdtrans.of_conn env ~dir:conn.Dial.dir conn.Dial.data_fd in
    let client = Ninep.Client.make eng tr in
    Ninep.Client.session client;
    Vfs.Env.mount ~mcreate env client ~aname:remote_root ~onto flag
  with
  | r ->
    fin ();
    r
  | exception e ->
    fin ();
    raise e
