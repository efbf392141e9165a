exception Err of string

type fid = int

type t = {
  eng : Sim.Engine.t;
  tr : Transport.t;
  waiting : (int, Fcall.rmsg -> unit) Hashtbl.t;
  (* every fid the server still holds for us: allocated on attach /
     clone / clwalk, dropped on clunk / remove.  Whatever is left when
     the connection dies is leaked on the server side — the counter the
     chain scenarios watch. *)
  live_fids : (int, unit) Hashtbl.t;
  mutable next_tag : int;
  mutable next_fid : int;
  mutable dead : bool;
}

let alive t = not t.dead

let open_fids t = Hashtbl.length t.live_fids

(* the death path, run once, just after [dead] is first set: every
   waiter learns the connection hung up, and the fids the server still
   held for us are accounted as leaked in the trace.  They stay in
   [live_fids], which is what the mount driver's per-mount ledger
   reads. *)
let fail_all t =
  let ws = Hashtbl.fold (fun _ w acc -> w :: acc) t.waiting [] in
  Hashtbl.reset t.waiting;
  List.iter (fun w -> w (Fcall.Rerror "connection hung up")) ws;
  let leaked = Hashtbl.length t.live_fids in
  if leaked > 0 then
    match Sim.Engine.obs t.eng with
    | Some tr -> Obs.Trace.bump tr "9p.fids_leaked" leaked
    | None -> ()

let make eng tr =
  let t =
    { eng; tr; waiting = Hashtbl.create 17; live_fids = Hashtbl.create 17;
      next_tag = 1; next_fid = 1; dead = false }
  in
  let _demux =
    Sim.Proc.spawn eng ~name:"9p-demux" (fun () ->
        let rec loop () =
          match tr.Transport.t_recv () with
          | None ->
            if not t.dead then begin
              t.dead <- true;
              fail_all t
            end
          | Some raw ->
            (match Fcall.decode raw with
            | Fcall.R (tag, r) -> (
              match Hashtbl.find_opt t.waiting tag with
              | Some waiter ->
                Hashtbl.remove t.waiting tag;
                waiter r
              | None -> () (* flushed or stray *))
            | Fcall.T (_, _) -> () (* clients ignore requests *)
            | exception Fcall.Bad_message _ -> ());
            loop ()
        in
        loop ())
  in
  t

let alloc_tag t =
  let tag = t.next_tag in
  t.next_tag <- (if tag >= 0xfffe then 1 else tag + 1);
  tag

let rpc t tmsg =
  if t.dead then raise (Err "connection hung up");
  let tag = alloc_tag t in
  (* encode before anything is recorded for the call: a message the
     wire cannot carry fails here, leaving no waiter and no open span *)
  let raw =
    try Fcall.encode (Fcall.T (tag, tmsg))
    with Fcall.Bad_message e -> raise (Err e)
  in
  let sp =
    match Sim.Engine.obs t.eng with
    | None -> Obs.Span.none
    | Some tr -> Obs.Span.enter tr ~layer:"9p" ("9p." ^ Fcall.tmsg_name tmsg)
  in
  (match Sim.Engine.obs t.eng with
  | None -> ()
  | Some tr ->
    Obs.Trace.emit tr
      (Obs.Event.Fcall
         { role = `T; tag; msg = Fcall.tmsg_name tmsg; latency = 0. }));
  let t0 = Sim.Engine.now t.eng in
  t.tr.Transport.t_send raw;
  let r =
    try
      Sim.Proc.suspend ~register:(fun ~resume ~abort:_ ->
          Hashtbl.replace t.waiting tag resume;
          fun () -> Hashtbl.remove t.waiting tag)
    with e ->
      (* the calling process was killed while waiting (e.g. the
         server relaying this call saw a Tflush): tell our own server
         to forget the tag before unwinding, so the flush propagates
         hop by hop down an import chain.  Fire-and-forget — we are
         mid-abort and must not block; the Rflush lands on a tag
         nobody waits for. *)
      if not t.dead then begin
        (try
           t.tr.Transport.t_send
             (Fcall.encode (Fcall.T (alloc_tag t, Fcall.Tflush { oldtag = tag })))
         with _ -> ());
        match Sim.Engine.obs t.eng with
        | Some tr -> Obs.Trace.bump tr "9p.flush_sent" 1
        | None -> ()
      end;
      raise e
  in
  (match Sim.Engine.obs t.eng with
  | None -> ()
  | Some tr ->
    let name = Fcall.tmsg_name tmsg in
    let dt = Sim.Engine.now t.eng -. t0 in
    Obs.Trace.emit tr
      (Obs.Event.Fcall { role = `R; tag; msg = name; latency = dt });
    Obs.Trace.observe tr ("9p.rpc." ^ name) dt;
    Obs.Span.exit tr sp);
  match r with Fcall.Rerror e -> raise (Err e) | r -> r

let bad _t what = raise (Err (Printf.sprintf "9p: unexpected reply to %s" what))

let session t =
  match rpc t (Fcall.Tsession { chal = "" }) with
  | Fcall.Rsession _ -> ()
  | _ -> bad t "Tsession"

let alloc_fid t =
  let fid = t.next_fid in
  t.next_fid <- fid + 1;
  fid

let attach_q t ~uname ~aname =
  let fid = alloc_fid t in
  match rpc t (Fcall.Tattach { fid; uname; aname }) with
  | Fcall.Rattach { qid; _ } ->
    Hashtbl.replace t.live_fids fid ();
    (fid, qid)
  | _ -> bad t "Tattach"

let attach t ~uname ~aname = fst (attach_q t ~uname ~aname)

let clone t fid =
  let newfid = alloc_fid t in
  match rpc t (Fcall.Tclone { fid; newfid }) with
  | Fcall.Rclone _ ->
    Hashtbl.replace t.live_fids newfid ();
    newfid
  | _ -> bad t "Tclone"

let walk t fid name =
  match rpc t (Fcall.Twalk { fid; name }) with
  | Fcall.Rwalk { qid; _ } -> qid
  | _ -> bad t "Twalk"

let clunk t fid =
  match rpc t (Fcall.Tclunk { fid }) with
  | Fcall.Rclunk _ -> Hashtbl.remove t.live_fids fid
  | _ -> bad t "Tclunk"
  | exception Err e ->
    (* a clunk the server answered with an error still clunks; only a
       dead connection truly leaks the fid *)
    if not t.dead then Hashtbl.remove t.live_fids fid;
    raise (Err e)

let walk_path t fid names =
  match names with
  | [] -> clone t fid
  | first :: rest -> (
    let newfid = alloc_fid t in
    match rpc t (Fcall.Tclwalk { fid; newfid; name = first }) with
    | Fcall.Rclwalk _ -> (
      Hashtbl.replace t.live_fids newfid ();
      try
        List.iter (fun name -> ignore (walk t newfid name)) rest;
        newfid
      with e ->
        (try clunk t newfid with Err _ -> ());
        raise e)
    | _ -> bad t "Tclwalk")

let open_ t fid ?(trunc = false) mode =
  match rpc t (Fcall.Topen { fid; mode; trunc }) with
  | Fcall.Ropen { qid; _ } -> qid
  | _ -> bad t "Topen"

let create t fid ~name ~perm mode =
  match rpc t (Fcall.Tcreate { fid; name; perm; mode }) with
  | Fcall.Rcreate { qid; _ } -> qid
  | _ -> bad t "Tcreate"

let read t fid ~offset ~count =
  match rpc t (Fcall.Tread { fid; offset; count }) with
  | Fcall.Rread { data } -> data
  | _ -> bad t "Tread"

let write t fid ~offset data =
  match rpc t (Fcall.Twrite { fid; offset; data }) with
  | Fcall.Rwrite { count } -> count
  | _ -> bad t "Twrite"

let remove t fid =
  (* remove clunks whether or not it succeeds *)
  match rpc t (Fcall.Tremove { fid }) with
  | Fcall.Rremove _ -> Hashtbl.remove t.live_fids fid
  | _ -> bad t "Tremove"
  | exception Err e ->
    if not t.dead then Hashtbl.remove t.live_fids fid;
    raise (Err e)

let stat t fid =
  match rpc t (Fcall.Tstat { fid }) with
  | Fcall.Rstat { stat } -> stat
  | _ -> bad t "Tstat"

let wstat t fid d =
  match rpc t (Fcall.Twstat { fid; stat = d }) with
  | Fcall.Rwstat _ -> ()
  | _ -> bad t "Twstat"

let flush t ~oldtag =
  match rpc t (Fcall.Tflush { oldtag }) with
  | Fcall.Rflush -> ()
  | _ -> bad t "Tflush"

let read_dir t fid =
  let rec go off acc =
    let data = read t fid ~offset:(Int64.of_int off) ~count:Fcall.maxfdata in
    if data = "" then List.rev acc
    else begin
      let n = String.length data / Fcall.dirlen in
      let entries = List.init n (fun i -> Fcall.decode_dir data (i * Fcall.dirlen)) in
      go (off + String.length data) (List.rev_append entries acc)
    end
  in
  go 0 []

let read_all t fid =
  let buf = Buffer.create 256 in
  let rec go off =
    let data = read t fid ~offset:(Int64.of_int off) ~count:Fcall.maxfdata in
    if data <> "" then begin
      Buffer.add_string buf data;
      go (off + String.length data)
    end
  in
  go 0;
  Buffer.contents buf

let hangup t =
  if not t.dead then begin
    t.dead <- true;
    t.tr.Transport.t_close ();
    fail_all t
  end
