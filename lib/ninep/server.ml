type 'n fs = {
  fs_name : string;
  fs_attach : uname:string -> aname:string -> ('n, string) result;
  fs_qid : 'n -> Fcall.qid;
  fs_walk : 'n -> string -> ('n, string) result;
  fs_open : 'n -> Fcall.mode -> trunc:bool -> (unit, string) result;
  fs_read : 'n -> offset:int64 -> count:int -> (string, string) result;
  fs_write : 'n -> offset:int64 -> data:string -> (int, string) result;
  fs_create :
    'n -> name:string -> perm:int32 -> Fcall.mode -> ('n, string) result;
  fs_remove : 'n -> (unit, string) result;
  fs_stat : 'n -> (Fcall.dir, string) result;
  fs_wstat : 'n -> Fcall.dir -> (unit, string) result;
  fs_clunk : 'n -> unit;
  fs_clone : 'n -> ('n, string) result;
  fs_clwalk : 'n -> string -> ('n, string) result;
}

let clone_walk fs n name =
  match fs.fs_clone n with
  | Error e -> Error e
  | Ok c -> (
    match fs.fs_walk c name with
    | Ok _ as r -> r
    | Error e ->
      fs.fs_clunk c;
      Error e)

let read_only_err = "permission denied"

let slice s ~offset ~count =
  let len = String.length s in
  let off = Int64.to_int offset in
  if off >= len || off < 0 then ""
  else String.sub s off (min count (len - off))

let dir_data entries ~offset ~count =
  let data = String.concat "" (List.map Fcall.encode_dir entries) in
  (* round down to whole entries *)
  let count = count - (count mod Fcall.dirlen) in
  let off = Int64.to_int offset in
  if off mod Fcall.dirlen <> 0 then ""
  else slice data ~offset:(Int64.of_int off) ~count

type auth_hook = uname:string -> challenge:string -> ticket:string -> bool

(* threaded mode: a worker of the connection's pool, asleep on [wake]
   while idle; the serve loop sets its next job before waking it *)
type worker = {
  proc : Sim.Proc.t;
  wake : Sim.Rendez.t;
  mutable tag : int;
  mutable job : Fcall.tmsg;
}

let serve ?(threaded = false) ?auth eng fs tr =
  Sim.Proc.spawn eng ~name:("9psrv:" ^ fs.fs_name) (fun () ->
      let fids : (int, 'n) Hashtbl.t = Hashtbl.create 17 in
      let challenge = ref "" in
      let authenticated : (string, unit) Hashtbl.t = Hashtbl.create 7 in
      let new_challenge () =
        challenge :=
          Printf.sprintf "%08x%08x"
            (Random.State.int (Sim.Engine.random eng) 0x3fffffff)
            (Random.State.int (Sim.Engine.random eng) 0x3fffffff);
        Hashtbl.reset authenticated
      in
      let clear_fids () =
        Hashtbl.iter (fun _ n -> fs.fs_clunk n) fids;
        Hashtbl.reset fids
      in
      let eof = ref false in
      let send tag r = tr.Transport.t_send (Fcall.encode (Fcall.R (tag, r))) in
      (* threaded mode: the worker still working on each tag, so a
         Tflush can abort exactly the request it names *)
      let inflight : (int, Sim.Proc.t) Hashtbl.t = Hashtbl.create 17 in
      let owns tag =
        match Hashtbl.find inflight tag with
        | p -> p == Sim.Proc.self ()
        | exception Not_found -> false
      in
      (* a threaded worker answers only while its tag is still its own:
         once a Tflush or EOF has taken the tag, no R may leave for it,
         even from a victim that was already woken when the kill came *)
      let reply tag r =
        if (not !eof) && ((not threaded) || owns tag) then send tag r
      in
      let idle = ref [] in
      (* at transport EOF no reply leaves, idle workers exit, and every
         worker still in flight is killed (in tag order) and joined
         before the fids are clunked, so none runs on against a clunked
         node *)
      let finish () =
        eof := true;
        List.iter (fun w -> Sim.Rendez.wakeup w.wake) !idle;
        idle := [];
        let handlers =
          Hashtbl.fold (fun tag p acc -> (tag, p) :: acc) inflight []
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        in
        Hashtbl.reset inflight;
        List.iter (fun (_, p) -> Sim.Proc.kill p) handlers;
        List.iter (fun (_, p) -> Sim.Proc.join p) handlers;
        clear_fids ()
      in
      let handle tag (t : Fcall.tmsg) =
        let err e = reply tag (Fcall.Rerror e) in
        let with_fid fid k =
          match Hashtbl.find_opt fids fid with
          | Some node -> k node
          | None -> err "unknown fid"
        in
        match t with
        | Fcall.Tnop -> reply tag Fcall.Rnop
        | Fcall.Tflush { oldtag } ->
          (* non-threaded servers serve requests in order, so nothing
             can be pending; threaded ones abort the in-flight handler.
             Either way Rflush guarantees the old request will never be
             answered. *)
          (match Hashtbl.find_opt inflight oldtag with
          | Some p when Sim.Proc.alive p ->
            (* the tag is free as soon as Rflush goes out, even while
               the victim is still unwinding *)
            Hashtbl.remove inflight oldtag;
            Sim.Proc.kill p;
            (match Sim.Engine.obs eng with
            | Some obs_tr -> Obs.Trace.bump obs_tr "9p.flush_killed" 1
            | None -> ())
          | Some _ | None -> ());
          reply tag Fcall.Rflush
        | Fcall.Tsession _ ->
          clear_fids ();
          (match auth with
          | Some _ -> new_challenge ()
          | None -> ());
          reply tag (Fcall.Rsession { chal = !challenge })
        | Fcall.Tauth { afid; uname; ticket } -> (
          match auth with
          | None ->
            (* no policy: authentication trivially succeeds *)
            reply tag (Fcall.Rauth { afid; ticket = "ok" })
          | Some hook ->
            if hook ~uname ~challenge:!challenge ~ticket then begin
              Hashtbl.replace authenticated uname ();
              reply tag (Fcall.Rauth { afid; ticket = "ok" })
            end
            else err "authentication failed")
        | Fcall.Tattach { fid; uname; aname } -> (
          if Hashtbl.mem fids fid then err "fid in use"
          else if
            (match auth with
            | Some _ -> not (Hashtbl.mem authenticated uname)
            | None -> false)
          then err "authentication required"
          else
            match fs.fs_attach ~uname ~aname with
            | Ok node ->
              Hashtbl.replace fids fid node;
              reply tag (Fcall.Rattach { fid; qid = fs.fs_qid node })
            | Error e -> err e)
        | Fcall.Tclone { fid; newfid } ->
          with_fid fid (fun node ->
              if Hashtbl.mem fids newfid then err "fid in use"
              else
                match fs.fs_clone node with
                | Ok node' ->
                  Hashtbl.replace fids newfid node';
                  reply tag (Fcall.Rclone { fid })
                | Error e -> err e)
        | Fcall.Twalk { fid; name } ->
          with_fid fid (fun node ->
              match fs.fs_walk node name with
              | Ok node' ->
                Hashtbl.replace fids fid node';
                reply tag (Fcall.Rwalk { fid; qid = fs.fs_qid node' })
              | Error e -> err e)
        | Fcall.Tclwalk { fid; newfid; name } ->
          with_fid fid (fun node ->
              if Hashtbl.mem fids newfid && newfid <> fid then
                err "fid in use"
              else
                (* a failed Tclwalk leaves no new fid *)
                match fs.fs_clwalk node name with
                | Ok node' ->
                  (* newfid = fid walks the fid: its old node goes *)
                  if newfid = fid then fs.fs_clunk node;
                  Hashtbl.replace fids newfid node';
                  reply tag (Fcall.Rclwalk { newfid; qid = fs.fs_qid node' })
                | Error e -> err e)
        | Fcall.Topen { fid; mode; trunc } ->
          with_fid fid (fun node ->
              match fs.fs_open node mode ~trunc with
              | Ok () -> reply tag (Fcall.Ropen { fid; qid = fs.fs_qid node })
              | Error e -> err e)
        | Fcall.Tcreate { fid; name; perm; mode } ->
          with_fid fid (fun node ->
              match fs.fs_create node ~name ~perm mode with
              | Ok node' ->
                Hashtbl.replace fids fid node';
                reply tag (Fcall.Rcreate { fid; qid = fs.fs_qid node' })
              | Error e -> err e)
        | Fcall.Tread { fid; offset; count } ->
          with_fid fid (fun node ->
              let count = min count Fcall.maxfdata in
              match fs.fs_read node ~offset ~count with
              | Ok data -> reply tag (Fcall.Rread { data })
              | Error e -> err e)
        | Fcall.Twrite { fid; offset; data } ->
          with_fid fid (fun node ->
              if String.length data > Fcall.maxfdata then err "write too big"
              else
                match fs.fs_write node ~offset ~data with
                | Ok count -> reply tag (Fcall.Rwrite { count })
                | Error e -> err e)
        | Fcall.Tclunk { fid } ->
          with_fid fid (fun node ->
              fs.fs_clunk node;
              Hashtbl.remove fids fid;
              reply tag (Fcall.Rclunk { fid }))
        | Fcall.Tremove { fid } ->
          with_fid fid (fun node ->
              (* remove always clunks, success or not *)
              let res = fs.fs_remove node in
              Hashtbl.remove fids fid;
              match res with
              | Ok () -> reply tag (Fcall.Rremove { fid })
              | Error e -> err e)
        | Fcall.Tstat { fid } ->
          with_fid fid (fun node ->
              match fs.fs_stat node with
              | Ok stat -> reply tag (Fcall.Rstat { stat })
              | Error e -> err e)
        | Fcall.Twstat { fid; stat } ->
          with_fid fid (fun node ->
              match fs.fs_wstat node stat with
              | Ok () -> reply tag (Fcall.Rwstat { fid })
              | Error e -> err e)
      in
      (* server-side service time: receipt of T to completion of its
         reply, observed per message kind *)
      let timed_handle tag t =
        match Sim.Engine.obs eng with
        | None -> handle tag t
        | Some obs_tr ->
          let t0 = Sim.Engine.now eng in
          handle tag t;
          Obs.Trace.observe obs_tr
            ("9p.serve." ^ Fcall.tmsg_name t)
            (Sim.Engine.now eng -. t0)
      in
      (* an fs operation that raises must not take the whole connection
         down with it: the client gets an Rerror and the serving loop
         lives on.  Exportfs relays through live channels, so a dead
         upstream surfaces here as Chan.Error — rendered by its
         registered printer as the bare message.  A kill (Tflush
         forwarding) is not an error: let it unwind. *)
      let safe_handle tag t =
        try timed_handle tag t with
        | Sim.Proc.Killed as e -> raise e
        | e -> reply tag (Fcall.Rerror (Printexc.to_string e))
      in
      (* a worker serves its job, then goes back to the pool and sleeps
         until the serve loop hands it the next one.  A worker whose tag
         was taken (Tflush, EOF) has a kill pending, landing at its next
         sleep: it exits instead, so the pool never holds it. *)
      let rec work w =
        safe_handle w.tag w.job;
        if owns w.tag then begin
          Hashtbl.remove inflight w.tag;
          idle := w :: !idle;
          Sim.Rendez.sleep w.wake;
          if not !eof then work w
        end
      in
      let spawned = ref 0 in
      (* every T goes to a worker in arrival order, Tflush included:
         waking an idle one schedules it exactly as spawning one would *)
      let dispatch tag t =
        match !idle with
        | w :: rest ->
          idle := rest;
          w.tag <- tag;
          w.job <- t;
          Hashtbl.replace inflight tag w.proc;
          Sim.Rendez.wakeup w.wake
        | [] ->
          incr spawned;
          let p =
            Sim.Proc.spawn eng
              ~name:(Printf.sprintf "9psrv:%s:w%d" fs.fs_name !spawned)
              (fun () ->
                work
                  { proc = Sim.Proc.self (); wake = Sim.Rendez.create eng;
                    tag; job = t })
          in
          Hashtbl.replace inflight tag p
      in
      let rec loop () =
        match tr.Transport.t_recv () with
        | None -> finish ()
        | Some raw ->
          (match Fcall.decode raw with
          | Fcall.T (tag, _) when threaded && Hashtbl.mem inflight tag ->
            (* a second request under a live tag would hide the first
               from Tflush *)
            send tag (Fcall.Rerror "tag in use")
          | Fcall.T (tag, t) ->
            if threaded then dispatch tag t else safe_handle tag t
          | Fcall.R (_, _) -> () (* servers ignore replies *)
          | exception Fcall.Bad_message _ -> (
            match Sim.Engine.obs eng with
            | None -> ()
            | Some tr -> Obs.Trace.bump tr "9p.bad_msg" 1));
          loop ()
      in
      loop ())
