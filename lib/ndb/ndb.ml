module Ipaddr = Inet.Ipaddr

type entry = (string * string) list

type lookup_stats = {
  mutable hash_lookups : int;
  mutable linear_scans : int;
  mutable stale_rejected : int;
}

(* an index over one attribute: (value -> entry ids), stamped with the
   master mtime it was built from *)
type index = { idx_mtime : float; idx : (string, int list) Hashtbl.t }

type source = {
  src_path : string option;  (* None: in-memory *)
  mutable src_mtime : float;
  mutable src_entries : entry list;
}

type t = {
  sources : source list;
  mutable all : entry array;  (* concatenated, in search order *)
  indexes : (string, index) Hashtbl.t;
  st : lookup_stats;
}

(* ---- parsing ---- *)

let is_space c = c = ' ' || c = '\t'

(* split a line into attr=value tokens; values may be double-quoted *)
let tokenize line =
  let n = String.length line in
  let toks = ref [] in
  let i = ref 0 in
  while !i < n do
    while !i < n && is_space line.[!i] do
      incr i
    done;
    if !i < n then begin
      if line.[!i] = '#' then i := n
      else begin
        let start = !i in
        let buf = Buffer.create 16 in
        let in_quote = ref false in
        while !i < n && ((not (is_space line.[!i])) || !in_quote) do
          (if line.[!i] = '"' then in_quote := not !in_quote
           else Buffer.add_char buf line.[!i]);
          incr i
        done;
        ignore start;
        toks := Buffer.contents buf :: !toks
      end
    end
  done;
  List.rev !toks

(* tolerate spaces around '=' (the paper prints "sys = helix"): a
   standalone "=" token joins its neighbours *)
let rec join_equals = function
  | a :: "=" :: b :: rest -> (a ^ "=" ^ b) :: join_equals rest
  | tok :: rest -> tok :: join_equals rest
  | [] -> []

let pair_of_token tok =
  match String.index_opt tok '=' with
  | Some eq -> (String.sub tok 0 eq, String.sub tok (eq + 1) (String.length tok - eq - 1))
  | None -> (tok, "")

let parse_string text =
  let lines = String.split_on_char '\n' text in
  let entries = ref [] and current = ref [] in
  let flush () =
    if !current <> [] then begin
      entries := List.rev !current :: !entries;
      current := []
    end
  in
  List.iter
    (fun line ->
      if line = "" || line.[0] = '#' then ()
      else begin
        let continuation = is_space line.[0] in
        let pairs = List.map pair_of_token (join_equals (tokenize line)) in
        if pairs <> [] then
          if continuation then current := List.rev_append pairs !current
          else begin
            flush ();
            current := List.rev pairs
          end
      end)
    lines;
  flush ();
  List.rev !entries

(* ---- construction ---- *)

let rebuild t =
  t.all <- Array.of_list (List.concat_map (fun s -> s.src_entries) t.sources)

let make sources =
  let t =
    {
      sources;
      all = [||];
      indexes = Hashtbl.create 7;
      st = { hash_lookups = 0; linear_scans = 0; stale_rejected = 0 };
    }
  in
  rebuild t;
  t

let of_string text =
  make [ { src_path = None; src_mtime = 0.; src_entries = parse_string text } ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let open_files paths =
  make
    (List.map
       (fun path ->
         {
           src_path = Some path;
           src_mtime = (Unix.stat path).Unix.st_mtime;
           src_entries = parse_string (read_file path);
         })
       paths)

let reload t =
  let changed = ref false in
  List.iter
    (fun s ->
      match s.src_path with
      | None -> ()
      | Some path ->
        let mtime = (Unix.stat path).Unix.st_mtime in
        if mtime <> s.src_mtime then begin
          s.src_mtime <- mtime;
          s.src_entries <- parse_string (read_file path);
          changed := true
        end)
    t.sources;
  if !changed then rebuild t

let entries t = Array.to_list t.all
let stats t = t.st

let get e attr =
  match List.assoc_opt attr e with Some v -> Some v | None -> None

let get_all e attr =
  List.filter_map (fun (a, v) -> if a = attr then Some v else None) e

(* ---- hash indexes ---- *)

let hash_magic = "NDBHASH1"

let master_mtime t =
  (* the newest backing file; in-memory sources count as 0 *)
  List.fold_left
    (fun acc s ->
      match s.src_path with
      | None -> acc
      | Some path -> Float.max acc (Unix.stat path).Unix.st_mtime)
    0. t.sources

let hash_path t attr =
  match List.filter_map (fun s -> s.src_path) t.sources with
  | [] -> None
  | first :: _ -> Some (first ^ "." ^ attr)

let build_index t attr =
  let idx = Hashtbl.create 1024 in
  Array.iteri
    (fun i e ->
      List.iter
        (fun (a, v) ->
          if a = attr then
            Hashtbl.replace idx v
              (i :: (try Hashtbl.find idx v with Not_found -> [])))
        e)
    t.all;
  (* keep ids in database order *)
  Hashtbl.iter (fun v ids -> Hashtbl.replace idx v (List.rev ids)) idx;
  idx

let write_hash t ~attr =
  let idx = build_index t attr in
  (match hash_path t attr with
  | Some path ->
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc hash_magic;
        let mtime = master_mtime t in
        Marshal.to_channel oc (mtime : float) [];
        Marshal.to_channel oc (idx : (string, int list) Hashtbl.t) [])
  | None -> ());
  Hashtbl.replace t.indexes attr { idx_mtime = master_mtime t; idx }

let read_hash_file path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try
          let magic = really_input_string ic (String.length hash_magic) in
          if magic <> hash_magic then None
          else begin
            let mtime : float = Marshal.from_channel ic in
            let idx : (string, int list) Hashtbl.t = Marshal.from_channel ic in
            Some { idx_mtime = mtime; idx }
          end
        with End_of_file | Failure _ -> None)
  end

let fresh_index t attr =
  (* in-memory first, then on disk; reject stale ones *)
  let current = master_mtime t in
  let check = function
    | Some i when i.idx_mtime >= current -> Some i
    | Some _ ->
      t.st.stale_rejected <- t.st.stale_rejected + 1;
      None
    | None -> None
  in
  match check (Hashtbl.find_opt t.indexes attr) with
  | Some i -> Some i
  | None -> (
    match hash_path t attr with
    | None -> None
    | Some path -> (
      match check (read_hash_file path) with
      | Some i ->
        Hashtbl.replace t.indexes attr i;
        Some i
      | None -> None))

(* ---- searching ---- *)

let entry_matches e attr value =
  List.exists (fun (a, v) -> a = attr && v = value) e

let search t ~attr ~value =
  match fresh_index t attr with
  | Some { idx; _ } ->
    t.st.hash_lookups <- t.st.hash_lookups + 1;
    (match Hashtbl.find_opt idx value with
    | Some ids -> List.map (fun i -> t.all.(i)) ids
    | None -> [])
  | None ->
    t.st.linear_scans <- t.st.linear_scans + 1;
    Array.to_list t.all
    |> List.filter (fun e -> entry_matches e attr value)

let find t ~attr ~value ~rattr =
  let vals =
    List.concat_map (fun e -> get_all e rattr) (search t ~attr ~value)
  in
  let seen = Hashtbl.create 7 in
  List.filter
    (fun v ->
      if Hashtbl.mem seen v then false
      else begin
        Hashtbl.replace seen v ();
        true
      end)
    vals

(* ---- network-specific queries ---- *)

let sys_entry t name =
  match search t ~attr:"sys" ~value:name with
  | e :: _ -> Some e
  | [] -> (
    match search t ~attr:"dom" ~value:name with
    | e :: _ -> Some e
    | [] -> (
      match search t ~attr:"ip" ~value:name with
      | e :: _ -> Some e
      | [] -> None))

(* The paper's search order: "the database entry for the source system,
   then its subnetwork (if there is one) and then its network."  The
   network is found under the classful mask; its [ipmask] attribute (if
   any) is the subnet mask that derives the subnetwork address. *)
let ipattr t ~ip ~attr =
  let net_entry addr =
    List.find_opt
      (fun e -> get e "ipnet" <> None)
      (search t ~attr:"ip" ~value:addr)
  in
  let host_val =
    match
      List.find_opt (fun e -> get e "ipnet" = None)
        (search t ~attr:"ip" ~value:ip)
    with
    | Some e -> get e attr
    | None -> None
  in
  match host_val with
  | Some v -> Some v
  | None -> (
    match Ipaddr.of_string_opt ip with
    | None -> None
    | Some ipn -> (
      let cmask = Ipaddr.class_mask ipn in
      let cnet = Ipaddr.logand ipn cmask in
      let network = net_entry (Ipaddr.to_string cnet) in
      let smask =
        match Option.bind network (fun e -> get e "ipmask") with
        | Some m -> (
          match Ipaddr.of_string_opt m with Some m -> m | None -> cmask)
        | None -> cmask
      in
      let snet = Ipaddr.logand ipn smask in
      let subnet =
        if Ipaddr.equal snet cnet then None
        else net_entry (Ipaddr.to_string snet)
      in
      match Option.bind subnet (fun e -> get e attr) with
      | Some v -> Some v
      | None -> Option.bind network (fun e -> get e attr)))

(* The subnet an address belongs to, by containment: every [ipnet]
   entry covers the addresses under its mask — its own [ipmask] when it
   carries one, else the [ipmask] of the classful network entry that
   contains it (the paper's network/subnetwork hierarchy), else the
   class mask.  The most specific covering entry wins, so a /24 subnet
   shadows the /16 network that declares it. *)
let ipnet_entry t ~ip =
  match Ipaddr.of_string_opt ip with
  | None -> None
  | Some ipn ->
    let nets =
      List.filter_map
        (fun e ->
          let net = Option.bind (get e "ip") Ipaddr.of_string_opt in
          match (get e "ipnet", net) with
          | Some _, Some net -> Some (e, net)
          | _, _ -> None)
        (Array.to_list t.all)
    in
    let mask_of e net =
      match Option.bind (get e "ipmask") Ipaddr.of_string_opt with
      | Some m -> m
      | None -> (
        let cmask = Ipaddr.class_mask net in
        let cnet = Ipaddr.logand net cmask in
        match
          List.find_opt
            (fun (_, n) -> Ipaddr.equal n cnet && not (Ipaddr.equal n net))
            nets
        with
        | Some (parent, _) -> (
          match Option.bind (get parent "ipmask") Ipaddr.of_string_opt with
          | Some m -> m
          | None -> cmask)
        | None -> cmask)
    in
    List.filter_map
      (fun (e, net) ->
        let m = mask_of e net in
        if Ipaddr.equal (Ipaddr.logand ipn m) net then
          Some (Ipaddr.masklen m, e)
        else None)
      nets
    |> List.sort (fun (a, _) (b, _) -> compare b a)
    |> function
    | (_, e) :: _ -> Some e
    | [] -> None

(* Datakit networks inherit through [dknet=<prefix>] entries: a system
   with dk=nj/astro/helix belongs to dknet=nj/astro.  Longest matching
   prefix wins. *)
let dkattr t ~dk ~attr =
  let matches e =
    match get e "dknet" with
    | Some prefix ->
      let lp = String.length prefix and ld = String.length dk in
      if ld > lp && String.sub dk 0 lp = prefix && dk.[lp] = '/' then
        Some (lp, e)
      else None
    | None -> None
  in
  List.filter_map matches (Array.to_list t.all)
  |> List.sort (fun (a, _) (b, _) -> compare b a)
  |> List.find_map (fun (_, e) -> get e attr)

let sysattr t ~sys ~attr =
  match sys_entry t sys with
  | None -> None
  | Some e -> (
    match get e attr with
    | Some v -> Some v
    | None -> (
      match
        List.find_map (fun ip -> ipattr t ~ip ~attr) (get_all e "ip")
      with
      | Some v -> Some v
      | None ->
        List.find_map (fun dk -> dkattr t ~dk ~attr) (get_all e "dk")))

let service_port t ~proto ~service =
  match int_of_string_opt service with
  | Some n -> Some n
  | None -> (
    match find t ~attr:proto ~value:service ~rattr:"port" with
    | p :: _ -> int_of_string_opt p
    | [] -> None)

let service_name t ~proto ~port =
  let port_s = string_of_int port in
  List.find_map
    (fun e ->
      match (get e proto, get e "port") with
      | Some name, Some p when p = port_s && name <> "" -> Some name
      | _, _ -> None)
    (Array.to_list t.all)
