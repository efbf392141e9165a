exception Err of string

type fid = int

(* One outstanding call.  Its caller sleeps on [wake] until the reply
   lands in [reply] or the reader role is handed to it.  While asleep it
   is linked, oldest first, in the client's circular list of waiting
   callers; an unlinked call points at itself. *)
type call = {
  tag : int;
  wake : Sim.Rendez.t;
  mutable answered : bool;
  mutable reply : Fcall.rmsg;
  mutable older : call;
  mutable newer : call;
}

type t = {
  eng : Sim.Engine.t;
  tr : Transport.t;
  calls : (int, call) Hashtbl.t;  (* outstanding, by tag *)
  waiting : call;  (* head of the waiting list; never a real call *)
  mutable reader : call;  (* the caller reading the transport, or [waiting] *)
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

let new_call eng tag =
  let wake = Sim.Rendez.create eng in
  let rec c =
    { tag; wake; answered = false; reply = Fcall.Rnop; older = c; newer = c }
  in
  c

let enqueue t c =
  let h = t.waiting in
  c.older <- h.older;
  c.newer <- h;
  h.older.newer <- c;
  h.older <- c

let unlink c =
  if c.newer != c then begin
    c.older.newer <- c.newer;
    c.newer.older <- c.older;
    c.older <- c;
    c.newer <- c
  end

let answer c r =
  c.answered <- true;
  c.reply <- r;
  unlink c;
  Sim.Rendez.wakeup c.wake

(* the death path, run once, just after [dead] is first set: every
   caller learns the connection hung up, and the fids the server still
   held for us are accounted as leaked in the trace.  They stay in
   [live_fids], which is what the mount driver's per-mount ledger
   reads. *)
let fail_all t =
  let cs = Hashtbl.fold (fun _ c acc -> c :: acc) t.calls [] in
  Hashtbl.reset t.calls;
  List.iter (fun c -> answer c (Fcall.Rerror "connection hung up")) cs;
  let leaked = Hashtbl.length t.live_fids in
  if leaked > 0 then
    match Sim.Engine.obs t.eng with
    | Some tr -> Obs.Trace.bump tr "9p.fids_leaked" leaked
    | None -> ()

let make eng tr =
  let waiting = new_call eng 0 in
  { eng; tr; calls = Hashtbl.create 17; waiting; reader = waiting;
    live_fids = Hashtbl.create 17; next_tag = 1; next_fid = 1; dead = false }

let alloc_tag t =
  let tag = t.next_tag in
  t.next_tag <- (if tag >= 0xfffe then 1 else tag + 1);
  tag

(* the reader role goes to the oldest caller still waiting *)
let hand_on t =
  t.reader <- t.waiting;
  let c = t.waiting.newer in
  if c != t.waiting then begin
    unlink c;
    Sim.Rendez.wakeup c.wake
  end

(* As the mount driver's mountmux: there is no reader process.  A
   caller whose reply has not come reads the transport itself if nobody
   else does, delivers other callers' replies by tag, and hands the role
   on when its own reply arrives. *)
let rec await t c =
  if c.answered then c.reply
  else if t.reader != t.waiting then begin
    enqueue t c;
    Sim.Rendez.sleep c.wake;
    await t c
  end
  else begin
    t.reader <- c;
    read_until t c;
    hand_on t;
    c.reply
  end

and read_until t c =
  if not c.answered then begin
    (match t.tr.Transport.t_recv () with
    | None ->
      if not t.dead then begin
        t.dead <- true;
        fail_all t
      end
    | Some raw -> (
      match Fcall.decode raw with
      | Fcall.R (tag, r) -> (
        match Hashtbl.find t.calls tag with
        | c' ->
          Hashtbl.remove t.calls tag;
          answer c' r
        | exception Not_found -> () (* flushed or stray *))
      | Fcall.T (_, _) -> () (* clients ignore requests *)
      | exception Fcall.Bad_message _ -> ()));
    read_until t c
  end

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
      (Obs.Event.Fcall { role = `T; tag; msg = Fcall.tmsg_name tmsg; latency = 0. }));
  let t0 = Sim.Engine.now t.eng in
  let c = new_call t.eng tag in
  Hashtbl.replace t.calls tag c;
  let r =
    try
      t.tr.Transport.t_send raw;
      await t c
    with e ->
      (* the calling process was killed while waiting (e.g. the
         server relaying this call saw a Tflush): give up the reader
         role if we held it, and tell our own server to forget the tag
         before unwinding, so the flush propagates hop by hop down an
         import chain.  Fire-and-forget — we are mid-abort and must not
         block; the Rflush lands on a tag nobody waits for. *)
      if not c.answered then Hashtbl.remove t.calls tag;
      unlink c;
      if t.reader == c then hand_on t;
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

let clwalk t fid name =
  let newfid = alloc_fid t in
  match rpc t (Fcall.Tclwalk { fid; newfid; name }) with
  | Fcall.Rclwalk { qid; _ } ->
    Hashtbl.replace t.live_fids newfid ();
    (newfid, qid)
  | _ -> bad t "Tclwalk"

let walk_path t fid names =
  match names with
  | [] -> clone t fid
  | first :: rest -> (
    let newfid, _ = clwalk t fid first in
    try
      List.iter (fun name -> ignore (walk t newfid name)) rest;
      newfid
    with e ->
      (try clunk t newfid with Err _ -> ());
      raise e)

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
