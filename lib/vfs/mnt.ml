type node = {
  c : Ninep.Client.t;
  fid : Ninep.Client.fid;
  mutable nqid : Ninep.Fcall.qid;
  tick : string -> unit;
}

let wrap f = try Ok (f ()) with Ninep.Client.Err e -> Error e

let live n =
  if Ninep.Client.alive n.c then Ok () else Error "connection hung up"

let rpc_names =
  [ "Tattach"; "Tclone"; "Twalk"; "Tclwalk"; "Topen"; "Tcreate"; "Tread";
    "Twrite"; "Tclunk"; "Tremove"; "Tstat"; "Twstat" ]

let fs client ?(aname = "") ?metrics ~name () =
  let tick msg =
    match metrics with None -> () | Some m -> Obs.Metrics.bump m msg 1
  in
  {
    Ninep.Server.fs_name = name;
    fs_attach =
      (fun ~uname ~aname:aname' ->
        let aname = if aname' <> "" then aname' else aname in
        tick "Tattach";
        wrap (fun () ->
            let fid, nqid = Ninep.Client.attach_q client ~uname ~aname in
            { c = client; fid; nqid; tick }));
    fs_qid = (fun n -> n.nqid);
    fs_walk =
      (fun n name ->
        n.tick "Twalk";
        wrap (fun () ->
            let q = Ninep.Client.walk n.c n.fid name in
            n.nqid <- q;
            n));
    fs_open =
      (fun n mode ~trunc ->
        n.tick "Topen";
        wrap (fun () -> n.nqid <- Ninep.Client.open_ n.c n.fid ~trunc mode));
    fs_read =
      (fun n ~offset ~count ->
        n.tick "Tread";
        wrap (fun () -> Ninep.Client.read n.c n.fid ~offset ~count));
    fs_write =
      (fun n ~offset ~data ->
        n.tick "Twrite";
        wrap (fun () -> Ninep.Client.write n.c n.fid ~offset data));
    fs_create =
      (fun n ~name ~perm mode ->
        n.tick "Tcreate";
        wrap (fun () ->
            let q = Ninep.Client.create n.c n.fid ~name ~perm mode in
            n.nqid <- q;
            n));
    fs_remove =
      (fun n ->
        n.tick "Tremove";
        wrap (fun () -> Ninep.Client.remove n.c n.fid));
    fs_stat =
      (fun n ->
        n.tick "Tstat";
        wrap (fun () -> Ninep.Client.stat n.c n.fid));
    fs_wstat =
      (fun n d ->
        n.tick "Twstat";
        wrap (fun () -> Ninep.Client.wstat n.c n.fid d));
    fs_clunk =
      (fun n ->
        n.tick "Tclunk";
        try Ninep.Client.clunk n.c n.fid with Ninep.Client.Err _ -> ());
    fs_clone =
      (fun n ->
        n.tick "Tclone";
        wrap (fun () -> { n with fid = Ninep.Client.clone n.c n.fid }));
    fs_clwalk =
      (fun n name ->
        n.tick "Tclwalk";
        wrap (fun () ->
            let fid, nqid = Ninep.Client.clwalk n.c n.fid name in
            { n with fid; nqid }));
  }

let stats_text m =
  let b = Buffer.create 128 in
  let total = ref 0 in
  List.iter
    (fun name ->
      let v = Obs.Metrics.counter m name in
      total := !total + v;
      Printf.bprintf b "%s %d\n" name v)
    rpc_names;
  Printf.bprintf b "total %d\n" !total;
  Printf.bprintf b "leaked_fids %d\n" (Obs.Metrics.counter m "leaked_fids");
  Buffer.contents b

(* ---- the /dev/mnt stats directory ---- *)

type stats_node = int Ninep.Devtab.node

let stats_fs list =
  let nth i = List.nth_opt (list ()) i in
  let text name f =
    {
      Ninep.Devtab.file with
      name;
      perm = 0o444l;
      read =
        (fun n ~offset ~count ->
          match nth (Ninep.Devtab.conv n) with
          | None -> Error "mount is gone"
          | Some (onto, m) -> Ok (Ninep.Server.slice (f onto m) ~offset ~count));
    }
  in
  Ninep.Devtab.fs
    {
      Ninep.Devtab.table with
      fs_name = "mntstats";
      owner = "mnt";
      letter = 'M';
      root = "mnt";
      notdir = "not a directory";
      convs =
        {
          conv_files =
            [|
              text "mountpoint" (fun onto _ -> onto ^ "\n");
              text "stats" (fun _ m -> stats_text m);
            |];
          number = Fun.id;
          find = (fun i -> if i >= 0 && nth i <> None then Some i else None);
          listing = (fun () -> List.mapi (fun i _ -> i) (list ()));
          hold = ignore;
          release = ignore;
        };
    }
