type network = {
  nw_proto : string;
  nw_clone : string;
  nw_kind : [ `Inet | `Dk ];
}

type t = {
  sysname : string;
  db : Ndb.t;
  networks : network list;
  dns : string -> string list;
  (* the database is immutable, so every query has one answer for the
     life of the server: memoize it.  A thousand dials to the same
     service cost one ndb walk, not a thousand. *)
  cache : (string, (string list, string) result) Hashtbl.t;
  mutable cache_hits : int;
  mutable cache_misses : int;
}

let make ~sysname ~db ~networks ?(dns = fun _ -> []) () =
  { sysname; db; networks; dns; cache = Hashtbl.create 31;
    cache_hits = 0; cache_misses = 0 }

let cache_stats t = (t.cache_hits, t.cache_misses)

let flush_cache t =
  Hashtbl.reset t.cache;
  t.cache_hits <- 0;
  t.cache_misses <- 0

(* destination addresses a network can use for a host *)
let addrs_for t nw host =
  if host = "*" then [ "*" ]
  else
    match nw.nw_kind with
    | `Inet -> (
      match Inet.Ipaddr.of_string_opt host with
      | Some _ -> [ host ]
      | None -> (
        match Ndb.sys_entry t.db host with
        | Some e -> Ndb.get_all e "ip"
        | None -> if String.contains host '.' then t.dns host else []))
    | `Dk -> (
      (* a literal dk path like nj/astro/helix passes through *)
      if String.contains host '/' then [ host ]
      else
        match Ndb.sys_entry t.db host with
        | Some e -> Ndb.get_all e "dk"
        | None -> [])

(* the service translated for a network: ports for IP protocols,
   literal service names for Datakit *)
let service_for t nw service =
  if service = "" then Some ""
  else
    match nw.nw_kind with
    | `Inet -> (
      match Ndb.service_port t.db ~proto:nw.nw_proto ~service with
      | Some port -> Some (string_of_int port)
      | None when nw.nw_proto = "tcpcc" -> (
        (* tcpcc shares TCP's wire format and port space: databases
           predating the variant need no tcpcc= service lines *)
        match Ndb.service_port t.db ~proto:"tcp" ~service with
        | Some port -> Some (string_of_int port)
        | None -> None)
      | None -> None)
    | `Dk -> Some service

let split_bang s = String.split_on_char '!' s

(* hosts named $attr resolve through the database relative to the
   source system *)
let resolve_meta t host =
  if String.length host > 1 && host.[0] = '$' then begin
    let attr = String.sub host 1 (String.length host - 1) in
    (* every value of the attribute most closely associated with us *)
    let direct =
      match Ndb.sys_entry t.db t.sysname with
      | Some e -> Ndb.get_all e attr
      | None -> []
    in
    let vals =
      if direct <> [] then direct
      else
        match Ndb.sysattr t.db ~sys:t.sysname ~attr with
        | Some v -> [ v ]
        | None -> []
    in
    if vals = [] then Error ("no attribute " ^ attr) else Ok vals
  end
  else Ok [ host ]

let translate_uncached t query =
  match split_bang query with
  | [] | [ _ ] -> Error ("cs: malformed query: " ^ query)
  | netname :: host :: rest -> (
    let service = String.concat "!" rest in
    let networks =
      if netname = "net" then t.networks
      else
        match List.filter (fun nw -> nw.nw_proto = netname) t.networks with
        | _ :: _ as nws -> nws
        | [] -> (
          (* an explicitly named protocol is translated even when this
             host has no such network: after an [import -a helix /net]
             the clone file in the reply resolves to the gateway's
             device — that is the whole point of section 6.1 *)
          match netname with
          | "il" | "tcp" | "tcpcc" | "udp" ->
            [
              {
                nw_proto = netname;
                nw_clone = Printf.sprintf "/net/%s/clone" netname;
                nw_kind = `Inet;
              };
            ]
          | "dk" ->
            [ { nw_proto = "dk"; nw_clone = "/net/dk/clone"; nw_kind = `Dk } ]
          | _ -> [])
    in
    if networks = [] then Error ("cs: no network " ^ netname)
    else
      match resolve_meta t host with
      | Error e -> Error ("cs: " ^ e)
      | Ok hosts ->
        let lines =
          List.concat_map
            (fun nw ->
              match service_for t nw service with
              | None -> []
              | Some svc ->
                List.concat_map
                  (fun host ->
                    List.map
                      (fun addr ->
                        if svc = "" then
                          Printf.sprintf "%s %s" nw.nw_clone addr
                        else
                          Printf.sprintf "%s %s!%s" nw.nw_clone addr svc)
                      (addrs_for t nw host))
                  hosts)
            networks
        in
        if lines = [] then
          Error (Printf.sprintf "cs: no translation for %s" query)
        else Ok lines)

let translate t query =
  match Hashtbl.find_opt t.cache query with
  | Some r ->
    t.cache_hits <- t.cache_hits + 1;
    r
  | None ->
    t.cache_misses <- t.cache_misses + 1;
    let r = translate_uncached t query in
    Hashtbl.replace t.cache query r;
    r

let mount env t =
  Netinfo.mount_service env ~name:"cs" ~file:"cs"
    ~show:(fun () -> "")
    (fun query ->
      Result.map (fun lines -> String.concat "\n" lines ^ "\n") (translate t query))
