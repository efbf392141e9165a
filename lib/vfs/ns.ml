type flag = Repl | Before | After

type member = { m_chan : Chan.t; m_create : bool }

(* the mounted-upon file: its channel's devid and qid path *)
type entry = { onto_dev : int; onto_path : int; mutable unions : member list }

type t = {
  mutable table : entry list;
  root_chan : Chan.t;
  ns_uname : string;
  mutable next_devid : int;
  mounts : (string * Obs.Metrics.t * Ninep.Client.t) list ref;
      (* 9P-mount RPC ledgers, shared across forks (the [ref] itself is
         copied by [fork], so children see — and add to — one registry) *)
}

(* Selftest chaos plant (see p9explore --selftest): when armed, a
   union walk that hits a dead connection gives up instead of falling
   through to the remaining members — the lost-fallback bug the
   union-member-dies scenario exists to catch.  Invisible to every
   healthy-path test: local union misses say "file does not exist",
   which is not a connection error. *)
let chaos_union_lost_walk = ref false

let is_conn_error e =
  let needle = "hung up" in
  let nl = String.length needle and el = String.length e in
  let rec find i =
    i + nl <= el && (String.sub e i nl = needle || find (i + 1))
  in
  find 0

let make ~root ~uname =
  {
    table = [];
    root_chan = Chan.attach ~devid:0 root ~uname ~aname:"";
    ns_uname = uname;
    next_devid = 1;
    mounts = ref [];
  }

(* Mount-table entries are shared structurally but the list itself is
   copied, so binds after the fork are invisible to the parent...
   except entry.unions is mutable.  Deep-copy the entries. *)
let fork t =
  { t with table = List.map (fun e -> { e with unions = e.unions }) t.table }

let uname t = t.ns_uname

let fresh_devid t =
  let id = t.next_devid in
  t.next_devid <- id + 1;
  id

let register_mount t ~onto metrics client =
  t.mounts := !(t.mounts) @ [ (onto, metrics, client) ]

(* a dead connection's open fids are the ones its server still holds;
   the count no longer changes, so [leaked_fids] is brought up to it
   whenever the ledger is read *)
let mounts t =
  List.map
    (fun (onto, m, c) ->
      let leaked = if Ninep.Client.alive c then 0 else Ninep.Client.open_fids c in
      let d = leaked - Obs.Metrics.counter m "leaked_fids" in
      if d > 0 then Obs.Metrics.bump m "leaked_fids" d;
      (onto, m))
    !(t.mounts)

let qpath c = (Chan.qid c).Ninep.Fcall.qpath

(* the entry mounted on file [path] of server [dev]; a scan that
   allocates nothing *)
let rec find dev path = function
  | [] -> raise_notrace Not_found
  | e :: rest ->
    if Int.equal e.onto_path path && Int.equal e.onto_dev dev then e
    else find dev path rest

let lookup t c = find (Chan.devid c) (qpath c) t.table

let members t c =
  match lookup t c with
  | e -> e.unions
  | exception Not_found -> [ { m_chan = c; m_create = true } ]

(* Walk one component from [c], consulting the union at [c]'s key.  The
   result is the {e underlying} channel — it is never "entered" even if
   it is itself a mount point, so the union information at its key
   remains available for the next step.  A plain step walks [c] in
   place; a union crossing walks each member one step into a new
   channel ([Chan.walk1], one Tclwalk on a mount) and clunks [c].  A
   member whose walk fails (a dead server answers with its hangup
   error) does not stop the walk — the remaining members are still
   consulted, so one dead server cannot take a whole union directory
   down with it. *)
let rec cross name = function
  | [] -> Error "file does not exist"
  | m :: rest -> (
    match Chan.walk1 m.m_chan name with
    | Ok _ as r -> r
    | Error e when rest = [] || (!chaos_union_lost_walk && is_conn_error e) ->
      Error e
    | Error _ -> cross name rest)

let walk1 t c name =
  match lookup t c with
  | e ->
    let r = cross name e.unions in
    if Result.is_ok r then Chan.clunk c;
    r
  | exception Not_found -> Chan.walk c name

let clwalk t c name =
  match lookup t c with
  | e -> cross name e.unions
  | exception Not_found -> Chan.walk1 c name

let replace c m =
  let c' = Chan.clone m.m_chan in
  Chan.clunk c;
  c'

(* Cross into the mounted tree at [c], if any: the head of its union. *)
let enter t c =
  match lookup t c with
  | { unions = m0 :: _; _ } -> replace c m0
  | { unions = []; _ } | (exception Not_found) -> c

(* The member creation lands in: the first with the MCREATE bit, per
   the paper's bind -c.  A union where no member allows creation
   refuses, like the kernel's "mounted directory forbids creation".
   Outside a union the directory itself is the target. *)
let create_target t c =
  match lookup t c with
  | exception Not_found -> Ok c
  | e -> (
    match List.find_opt (fun m -> m.m_create) e.unions with
    | Some m -> ( try Ok (replace c m) with Chan.Error e -> Error e)
    | None -> Error "mounted directory forbids creation")

let normalize ~dot path =
  let full =
    if String.length path > 0 && path.[0] = '/' then path else dot ^ "/" ^ path
  in
  let parts = String.split_on_char '/' full in
  let rec clean acc = function
    | [] -> List.rev acc
    | ("" | ".") :: rest -> clean acc rest
    | ".." :: rest -> (
      match acc with
      | [] -> clean [] rest  (* /.. = / *)
      | _ :: up -> clean up rest)
    | name :: rest -> clean (name :: acc) rest
  in
  clean [] parts

(* namec: clone the root once and walk it in place; whatever channel a
   failure leaves in hand is clunked *)
let resolve_gen ~enter_last t path =
  let components = normalize ~dot:"/" path in
  let rec go c = function
    | [] -> if enter_last then Chan.clunk_on_error c (enter t) else c
    | name :: rest -> (
      match walk1 t c name with
      | Ok c' -> go c' rest
      | Error e ->
        Chan.clunk c;
        raise (Chan.Error (Printf.sprintf "%s: %s" path e)))
  in
  go (Chan.clone t.root_chan) components

let resolve t path = resolve_gen ~enter_last:true t path
let resolve_for_mount t path = resolve_gen ~enter_last:false t path

let bind ?(mcreate = true) t ~src ~onto flag =
  let m = { m_chan = src; m_create = mcreate } in
  match lookup t onto with
  | e ->
    Chan.clunk onto;
    e.unions <-
      (match flag with
      | Repl -> [ m ]
      | Before -> m :: e.unions
      | After -> e.unions @ [ m ])
  | exception Not_found ->
    (* the mounted-upon directory itself keeps its create permission,
       matching the historical behaviour of this table (a documented
       divergence from the 1993 kernel, which required an explicit
       MCREATE even on the underlying directory) *)
    let onto_m = { m_chan = onto; m_create = true } in
    let unions =
      match flag with
      | Repl -> [ m ]
      | Before -> [ m; onto_m ]
      | After -> [ onto_m; m ]
    in
    t.table <-
      { onto_dev = Chan.devid onto; onto_path = qpath onto; unions } :: t.table;
    if flag = Repl then Chan.clunk onto

let unmount ?src t ~onto =
  let dev = Chan.devid onto and path = qpath onto in
  let at_onto e = Int.equal e.onto_dev dev && Int.equal e.onto_path path in
  match src with
  | None -> t.table <- List.filter (fun e -> not (at_onto e)) t.table
  | Some s ->
    let is_src m =
      Int.equal (Chan.devid m.m_chan) (Chan.devid s)
      && Int.equal (qpath m.m_chan) (qpath s)
    in
    t.table <-
      List.filter_map
        (fun e ->
          if not (at_onto e) then Some e
          else
            match List.filter (fun m -> not (is_src m)) e.unions with
            | [] -> None
            | unions -> Some { e with unions })
        t.table

let read_dir t c =
  let seen = Hashtbl.create 17 in
  let member_entries m =
    if not (Chan.is_dir m) then []
    else begin
      let m = Chan.clone m in
      let out = ref [] in
      let rec go off =
        let data = Chan.read m ~offset:(Int64.of_int off) ~count:Ninep.Fcall.maxfdata in
        if data <> "" then begin
          let n = String.length data / Ninep.Fcall.dirlen in
          for i = 0 to n - 1 do
            out := Ninep.Fcall.decode_dir data (i * Ninep.Fcall.dirlen) :: !out
          done;
          go (off + String.length data)
        end
      in
      Chan.using m (fun m ->
          Chan.open_ m Ninep.Fcall.Oread;
          go 0);
      List.rev !out
    end
  in
  (* per-mount error isolation: a member whose server is partitioned
     away answers with an error, not a listing — skip it so the union
     directory stays readable through the survivors *)
  let member_entries m =
    try member_entries m with Chan.Error _ -> []
  in
  List.concat_map
    (fun m ->
      List.filter
        (fun d ->
          let name = d.Ninep.Fcall.d_name in
          if Hashtbl.mem seen name then false
          else begin
            Hashtbl.replace seen name ();
            true
          end)
        (member_entries m.m_chan))
    (members t c)
