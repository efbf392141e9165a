type config = { bsize : int; budget : int; readahead : int }

let default_config = { bsize = 1024; budget = 256 * 1024; readahead = 8 }

(* A cached block, threaded on an intrusive LRU list.  The list is
   cyclic through a sentinel: sentinel.next is most recently used,
   sentinel.prev the eviction victim.  Its bytes are a view of the fill
   reply they arrived in (or of the fresh string a write-through
   built), never a copy: strings are immutable, so the view stays
   valid, and a surviving block pins at most that one fill, which is at
   most maxfdata bytes.  [used] and the budget count view bytes, not
   the pinned strings. *)
type blk = {
  bk_path : int;
  bk_idx : int;
  mutable bk_buf : string;
  mutable bk_off : int;
  mutable bk_len : int;  (* < bsize only for the end-of-file tail *)
  mutable bk_prev : blk;
  mutable bk_next : blk;
}

(* Per-file cache state.  [ce_vers] is the qid version we believe the
   server holds; a reply qid with a different version means someone
   else changed the file and every block here is stale. *)
type centry = {
  ce_path : int;
  mutable ce_vers : int;
  ce_blocks : (int, blk) Hashtbl.t;
  mutable ce_lastend : int64;  (* where the last read stopped: the
                                  sequential-access detector *)
}

type t = {
  eng : Sim.Engine.t;
  mutable cfg : config;
  mutable client : Ninep.Client.t;  (* the upstream (real server) connection *)
  mutable local : Ninep.Transport.t;  (* what the terminal mounts *)
  files : (int, centry) Hashtbl.t;
  lru : blk;  (* sentinel *)
  flights : (int * int, Sim.Rendez.t) Hashtbl.t;
      (* blocks with an upstream read in flight: concurrent misses on
         the same block wait here instead of fetching again *)
  metrics : Obs.Metrics.t;
  mutable used : int;  (* bytes of block data held *)
  mutable sessioned : bool;
}

let bump t name v =
  Obs.Metrics.bump t.metrics name v;
  match Sim.Engine.obs t.eng with
  | None -> ()
  | Some tr -> Obs.Trace.bump tr ("cfs." ^ name) v

(* ---- LRU plumbing ---- *)

let unlink b =
  b.bk_prev.bk_next <- b.bk_next;
  b.bk_next.bk_prev <- b.bk_prev;
  b.bk_prev <- b;
  b.bk_next <- b

let push_front t b =
  b.bk_next <- t.lru.bk_next;
  b.bk_prev <- t.lru;
  t.lru.bk_next.bk_prev <- b;
  t.lru.bk_next <- b

let touch t b =
  unlink b;
  push_front t b

let forget_block t b =
  unlink b;
  t.used <- t.used - b.bk_len;
  match Hashtbl.find_opt t.files b.bk_path with
  | Some e -> Hashtbl.remove e.ce_blocks b.bk_idx
  | None -> ()

let rec evict t =
  if t.used > t.cfg.budget && t.lru.bk_prev != t.lru then begin
    forget_block t t.lru.bk_prev;
    bump t "evictions" 1;
    evict t
  end

let set_view t b buf off len =
  t.used <- t.used - b.bk_len + len;
  b.bk_buf <- buf;
  b.bk_off <- off;
  b.bk_len <- len

(* cache [len] bytes of [buf] from [off] as block [idx] of [e] *)
let insert t e idx buf off len =
  (match Hashtbl.find_opt e.ce_blocks idx with
  | Some b ->
    set_view t b buf off len;
    touch t b
  | None ->
    let rec b =
      { bk_path = e.ce_path; bk_idx = idx; bk_buf = buf; bk_off = off;
        bk_len = len; bk_prev = b; bk_next = b }
    in
    Hashtbl.replace e.ce_blocks idx b;
    t.used <- t.used + len;
    push_front t b);
  evict t

(* ---- file table and validation ---- *)

let entry t (qid : Ninep.Fcall.qid) =
  match Hashtbl.find_opt t.files qid.Ninep.Fcall.qpath with
  | Some e -> e
  | None ->
    let e =
      { ce_path = qid.Ninep.Fcall.qpath; ce_vers = qid.Ninep.Fcall.qvers;
        ce_blocks = Hashtbl.create 7; ce_lastend = 0L }
    in
    Hashtbl.replace t.files qid.Ninep.Fcall.qpath e;
    e

let invalidate t e ~vers =
  Hashtbl.iter
    (fun _ b ->
      unlink b;
      t.used <- t.used - b.bk_len)
    e.ce_blocks;
  Hashtbl.reset e.ce_blocks;
  e.ce_vers <- vers;
  e.ce_lastend <- 0L;
  bump t "invalidations" 1;
  match Sim.Engine.obs t.eng with
  | None -> ()
  | Some tr ->
    Obs.Trace.note tr ~sub:"cfs"
      (Printf.sprintf "invalidate qid %d (foreign change, vers -> %d)"
         e.ce_path vers)

(* Every Rwalk/Ropen/Rcreate/Rstat carries the file's qid: compare the
   version and throw the file's blocks away on a foreign change.  This
   is the revalidation the 1993 cfs paid a stat round trip for. *)
let note_qid t (qid : Ninep.Fcall.qid) =
  if not (Ninep.Fcall.qid_is_dir qid) then begin
    let e = entry t qid in
    if e.ce_vers <> qid.Ninep.Fcall.qvers then
      invalidate t e ~vers:qid.Ninep.Fcall.qvers
  end

let drop_file t path =
  match Hashtbl.find_opt t.files path with
  | None -> ()
  | Some e ->
    Hashtbl.iter
      (fun _ b ->
        unlink b;
        t.used <- t.used - b.bk_len)
      e.ce_blocks;
    Hashtbl.remove t.files path

let flush t =
  Hashtbl.reset t.files;
  t.lru.bk_next <- t.lru;
  t.lru.bk_prev <- t.lru;
  t.used <- 0

(* ---- the cached read path ---- *)

(* [fill n] is the file's own upstream read; a failed fill fails the
   read, and nothing is cached from it *)
let read_cached t qid ~offset ~count fill n =
  if count <= 0 then Ok ""
  else begin
    let e = entry t qid in
    let bsize = t.cfg.bsize in
    let bs64 = Int64.of_int bsize in
    (* one decision per Tread: reads that pick up where the last one
       stopped (including the very first, at 0) are sequential and get
       the full read-ahead window on a miss *)
    let sequential = Int64.equal offset e.ce_lastend in
    (* the answer's pieces, views of cached blocks and fills, joined
       once at the end by [Block.gather] *)
    let first = ref "" and first_off = ref 0 and got = ref 0 in
    let rest = ref [] in
    let upstream = ref 0 in
    let eof = ref false in
    (* On a miss, fetch from the missing block's start: enough blocks to
       finish the request, widened to the read-ahead window when
       sequential, in a single upstream round trip. *)
    let fetch idx boff =
      let remaining = count - !got in
      let nb_needed = (boff + remaining + bsize - 1) / bsize in
      let cap = max 1 (Ninep.Fcall.maxfdata / bsize) in
      let nb =
        min cap (if sequential then max nb_needed t.cfg.readahead else nb_needed)
      in
      let req = nb * bsize in
      let start = Int64.mul (Int64.of_int idx) bs64 in
      (* the fill span parents the upstream 9p.Tread rpc span *)
      let obs = Sim.Engine.obs t.eng in
      let sp =
        match obs with
        | None -> Obs.Span.none
        | Some tr -> Obs.Span.enter tr ~layer:"cfs" "cfs.fill"
      in
      (* the upstream read suspends this process; if a foreign change is
         noticed meanwhile (another connection's walk), the reply bytes
         belong to an unknown version and must not be cached *)
      let vers0 = e.ce_vers in
      let filled =
        match fill n ~offset:start ~count:req with
        | r ->
          (match obs with None -> () | Some tr -> Obs.Span.exit tr sp);
          r
        | exception e ->
          (match obs with None -> () | Some tr -> Obs.Span.exit tr sp);
          raise e
      in
      match filled with
      | Error err -> Error err
      | Ok data ->
        incr upstream;
        bump t "misses" 1;
        bump t "miss_bytes" (String.length data);
        let len = String.length data in
        let fresh =
          match Hashtbl.find_opt t.files e.ce_path with
          | Some e' -> e' == e && Int.equal e.ce_vers vers0
          | None -> false
        in
        if fresh then begin
          let full = len / bsize in
          for k = 0 to full - 1 do
            insert t e (idx + k) data (k * bsize) bsize
          done;
          (* a reply shorter than asked means the file ends inside it; an
             exact-multiple (or empty) short reply is remembered as an
             empty end-of-file marker block, which pins nothing *)
          if len < req then
            if len mod bsize > 0 then
              insert t e (idx + full) data (full * bsize) (len mod bsize)
            else insert t e (idx + full) "" 0 0
        end;
        let blen = min bsize len in
        Ok (data, 0, blen, blen = bsize)
    in
    (* Single flight: when another client's miss on this very block is
       already filling upstream, wait for that read instead of issuing a
       second one — the boot storm's many first readers of one binary
       must cost one origin round trip per block, not one per client.
       A woken waiter re-checks the table and becomes the leader itself
       if the fill failed, was version-guarded away, or was evicted. *)
    let rec acquire idx boff =
      match Hashtbl.find_opt e.ce_blocks idx with
      | Some b ->
        touch t b;
        Ok (b.bk_buf, b.bk_off, b.bk_len, b.bk_len = bsize)
      | None -> (
        let key = (e.ce_path, idx) in
        match Hashtbl.find_opt t.flights key with
        | Some r ->
          bump t "coalesced" 1;
          Sim.Rendez.sleep r;
          acquire idx boff
        | None ->
          let r = Sim.Rendez.create t.eng in
          Hashtbl.replace t.flights key r;
          Fun.protect
            ~finally:(fun () ->
              Hashtbl.remove t.flights key;
              Sim.Rendez.wakeup_all r)
            (fun () -> fetch idx boff))
    in
    let rec serve () =
      if !got >= count || !eof then Ok ()
      else begin
        let pos = Int64.add offset (Int64.of_int !got) in
        let idx = Int64.to_int (Int64.div pos bs64) in
        let boff = Int64.to_int (Int64.rem pos bs64) in
        match acquire idx boff with
        | Error err -> Error err
        | Ok (chunk, off, blen, full_block) ->
          let avail = blen - boff in
          if avail <= 0 then eof := true
          else begin
            let n = min avail (count - !got) in
            if !got = 0 then begin
              first := chunk;
              first_off := off + boff
            end
            else rest := (chunk, off + boff, n) :: !rest;
            got := !got + n;
            (* consuming a short block to its end is end-of-file *)
            if (not full_block) && boff + n = blen then eof := true
          end;
          serve ()
      end
    in
    match serve () with
    | Error err -> Error err
    | Ok () ->
      let out = Block.gather !first !first_off !got !rest in
      if !upstream = 0 then begin
        bump t "hits" 1;
        bump t "hit_bytes" (String.length out)
      end;
      e.ce_lastend <- Int64.add offset (Int64.of_int (String.length out));
      Ok out
  end

(* ---- the write-through update ---- *)

let write_update t (qid : Ninep.Fcall.qid) ~offset ~data =
  match Hashtbl.find_opt t.files qid.Ninep.Fcall.qpath with
  | None -> ()
  | Some e ->
    let bsize = t.cfg.bsize in
    let len = String.length data in
    let off = Int64.to_int offset in
    if len > 0 then begin
      let first = off / bsize and last = (off + len - 1) / bsize in
      for idx = first to last do
        match Hashtbl.find_opt e.ce_blocks idx with
        | None -> ()  (* no write-allocate: a later read fetches fresh *)
        | Some b ->
          let bstart = idx * bsize in
          let s = max off bstart and fin = min (off + len) (bstart + bsize) in
          let rel_s = s - bstart and rel_e = fin - bstart in
          if rel_s > b.bk_len then
            (* a hole this block cannot represent: drop it *)
            forget_block t b
          else begin
            let nd = Bytes.create (max rel_e b.bk_len) in
            Bytes.blit_string b.bk_buf b.bk_off nd 0 rel_s;
            Bytes.blit_string data (s - off) nd rel_s (fin - s);
            if b.bk_len > rel_e then
              Bytes.blit_string b.bk_buf (b.bk_off + rel_e) nd rel_e
                (b.bk_len - rel_e);
            set_view t b (Bytes.unsafe_to_string nd) 0 (Bytes.length nd);
            touch t b
          end
      done;
      evict t
    end;
    (* the server bumps qid.vers once for our own write; account for it
       so the next open does not read as a foreign change *)
    e.ce_vers <- (e.ce_vers + 1) land 0xffffffff

(* ---- the proxy file server ---- *)

(* The upstream face is the mount driver; caching adds a qid check
   after every walk (a Tclwalk too), open, create and stat, the block
   cache on file reads, the cache update after a write and the drop
   after a remove.
   Every node keeps the upstream client that minted its fid, so after
   [set_upstream] an old fid fails on its own hung-up connection and
   can never name a fid of the new one. *)
let proxy_fs t =
  let up = Vfs.Mnt.fs t.client ~name:"cfs" () in
  let noted n = note_qid t (up.fs_qid n) in
  let noted_dir d = note_qid t d.Ninep.Fcall.d_qid in
  {
    up with
    fs_attach =
      (fun ~uname ~aname ->
        match
          if not t.sessioned then begin
            Ninep.Client.session t.client;
            t.sessioned <- true
          end
        with
        | () -> (Vfs.Mnt.fs t.client ~name:"cfs" ()).fs_attach ~uname ~aname
        | exception Ninep.Client.Err e -> Error e);
    fs_walk =
      (fun n name ->
        let r = up.fs_walk n name in
        Result.iter noted r;
        r);
    fs_clwalk =
      (fun n name ->
        let r = up.fs_clwalk n name in
        Result.iter noted r;
        r);
    fs_open =
      (fun n mode ~trunc ->
        let r = up.fs_open n mode ~trunc in
        if Result.is_ok r then noted n;
        r);
    fs_read =
      (fun n ~offset ~count ->
        let qid = up.fs_qid n in
        if Ninep.Fcall.qid_is_dir qid then begin
          bump t "dir_reads" 1;
          up.fs_read n ~offset ~count
        end
        else
          match Vfs.Mnt.live n with
          | Error e -> Error e
          | Ok () -> read_cached t qid ~offset ~count up.fs_read n);
    fs_write =
      (fun n ~offset ~data ->
        (* write-through: the server confirms before the cache moves *)
        let r = up.fs_write n ~offset ~data in
        (match r with
        | Ok cnt ->
          bump t "write_through" 1;
          write_update t (up.fs_qid n) ~offset
            ~data:(if cnt = String.length data then data else String.sub data 0 cnt)
        | Error _ -> ());
        r);
    fs_create =
      (fun n ~name ~perm mode ->
        let r = up.fs_create n ~name ~perm mode in
        Result.iter noted r;
        r);
    fs_remove =
      (fun n ->
        let r = up.fs_remove n in
        if Result.is_ok r then drop_file t (up.fs_qid n).Ninep.Fcall.qpath;
        r);
    fs_stat =
      (fun n ->
        let r = up.fs_stat n in
        Result.iter noted_dir r;
        r);
  }

(* ---- construction ---- *)

(* Serve the cache's 9P face on [tr].  Each call runs its own server
   process with its own fid table; every connection shares the one
   block cache, flight table and upstream client — this is what makes
   the cache stackable (a rack-tier cfs serves many terminals). *)
let serve t tr = Ninep.Server.serve t.eng (proxy_fs t) tr

(* A fresh in-process connection to the cache: one more client of the
   shared cache, e.g. a terminal-tier cfs stacking on a rack tier. *)
let connect t =
  let local, remote = Ninep.Transport.pipe t.eng in
  ignore (serve t remote);
  local

let make ?(config = default_config) eng ~upstream () =
  if config.bsize <= 0 || config.bsize > Ninep.Fcall.maxfdata then
    invalid_arg "Cfs.make: bsize must be in 1..maxfdata";
  if config.readahead <= 0 then invalid_arg "Cfs.make: readahead must be > 0";
  let client = Ninep.Client.make eng upstream in
  let rec sentinel =
    { bk_path = 0; bk_idx = -1; bk_buf = ""; bk_off = 0; bk_len = 0;
      bk_prev = sentinel; bk_next = sentinel }
  in
  let local, remote = Ninep.Transport.pipe eng in
  let t =
    { eng; cfg = config; client; local; files = Hashtbl.create 31;
      lru = sentinel; flights = Hashtbl.create 7;
      metrics = Obs.Metrics.create (); used = 0; sessioned = false }
  in
  ignore (Ninep.Server.serve eng (proxy_fs t) remote);
  t

(* Point the cache at a new upstream connection — the heal path after a
   partition killed the old one.  Cached blocks and version tracking
   survive (same origin, same qid space), so the cache comes back warm;
   downstream fids minted on the old connection fail on it, hung up
   here, and their holders must re-attach. *)
let set_upstream t upstream =
  (try Ninep.Client.hangup t.client with _ -> ());
  t.client <- Ninep.Client.make t.eng upstream;
  t.sessioned <- false

let transport t = t.local
let config t = t.cfg

let set_readahead t n =
  if n <= 0 then invalid_arg "Cfs.set_readahead";
  t.cfg <- { t.cfg with readahead = n }

let set_budget t n =
  if n < 0 then invalid_arg "Cfs.set_budget";
  t.cfg <- { t.cfg with budget = n };
  evict t

(* ---- observability ---- *)

let counter t name = Obs.Metrics.counter t.metrics name
let counters t = Obs.Metrics.counters t.metrics
let cached_bytes t = t.used

let cached_files t =
  Hashtbl.fold
    (fun _ e acc -> if Hashtbl.length e.ce_blocks > 0 then acc + 1 else acc)
    t.files 0

let stat_names =
  [ "hits"; "misses"; "hit_bytes"; "miss_bytes"; "evictions";
    "invalidations"; "write_through"; "dir_reads"; "coalesced" ]

let stats_text t =
  let b = Buffer.create 128 in
  List.iter
    (fun name -> Printf.bprintf b "%s %d\n" name (counter t name))
    stat_names;
  Printf.bprintf b "cached_bytes %d\n" (cached_bytes t);
  Printf.bprintf b "cached_files %d\n" (cached_files t);
  Buffer.contents b

let status_text t =
  Printf.sprintf "cfs bsize %d budget %d readahead %d used %d files %d\n"
    t.cfg.bsize t.cfg.budget t.cfg.readahead t.used (cached_files t)

(* ---- the ctl/stats/status conversation directory ---- *)

type ctlnode = unit Ninep.Devtab.node

let ctl_write t text =
  let words =
    String.split_on_char ' ' (String.trim text)
    |> List.filter (fun w -> w <> "")
  in
  match words with
  | [ "flush" ] ->
    flush t;
    Ok ()
  | [ "readahead"; n ] -> (
    match int_of_string_opt n with
    | Some n when n > 0 ->
      set_readahead t n;
      Ok ()
    | Some _ | None -> Error ("bad read-ahead window: " ^ n))
  | [ "budget"; n ] -> (
    match int_of_string_opt n with
    | Some n when n >= 0 ->
      set_budget t n;
      Ok ()
    | Some _ | None -> Error ("bad budget: " ^ n))
  | [ "bsize"; n ] -> (
    match int_of_string_opt n with
    | Some n when n > 0 && n <= Ninep.Fcall.maxfdata ->
      flush t;
      t.cfg <- { t.cfg with bsize = n };
      Ok ()
    | Some _ | None -> Error ("bad block size: " ^ n))
  | _ -> Error ("bad control message: " ^ String.trim text)

let ctl_fs t =
  let text name f =
    {
      Ninep.Devtab.file with
      name;
      perm = 0o444l;
      read = (fun _ ~offset ~count -> Ok (Ninep.Server.slice (f t) ~offset ~count));
    }
  in
  Ninep.Devtab.fs
    {
      Ninep.Devtab.table with
      fs_name = "cfsctl";
      owner = "cfs";
      letter = 'C';
      top =
        [|
          {
            Ninep.Devtab.file with
            name = "ctl";
            perm = 0o222l;
            write =
              (fun _ data -> Result.map (fun () -> String.length data) (ctl_write t data));
          };
          text "stats" stats_text;
          text "status" status_text;
        |];
    }
