let port = 53

(* Wire format (text datagrams):
   query:  "q <id> <name> <rrtype>"
   reply:  "r <id> ok"  + lines "<name> <rrtype> <value>"
           "r <id> nx"
           "r <id> ref" + lines "ns <ip>"                      *)

let words s =
  String.split_on_char ' ' (String.trim s) |> List.filter (fun w -> w <> "")

(* ---- server ---- *)

let zone_answer db name rrtype =
  let entries = Ndb.search db ~attr:"dom" ~value:name in
  let values = List.concat_map (fun e -> Ndb.get_all e rrtype) entries in
  if values <> [] then `Ok values
  else begin
    (* delegation: nsfor=<suffix> ns=<ip> *)
    let suffix_of e = Ndb.get e "nsfor" in
    let matches e =
      match suffix_of e with
      | Some suffix ->
        let ln = String.length name and ls = String.length suffix in
        ln >= ls && String.sub name (ln - ls) ls = suffix
      | None -> false
    in
    let delegations =
      List.filter matches
        (List.filter (fun e -> Ndb.get e "nsfor" <> None) (Ndb.entries db))
    in
    (* the longest matching suffix is the closest delegation *)
    let best =
      List.sort
        (fun a b ->
          compare
            (String.length (Option.value ~default:"" (suffix_of b)))
            (String.length (Option.value ~default:"" (suffix_of a))))
        delegations
    in
    match best with
    | e :: _ -> `Referral (Ndb.get_all e "ns")
    | [] -> `Nx
  end

let serve_zone udp ~db =
  let conv = Inet.Udp.bind ~port udp in
  let eng = Inet.Conv.engine udp in
  Sim.Proc.spawn eng ~name:"dns-server" (fun () ->
      let rec loop () =
        let src_addr, src_port, data = Inet.Udp.recv conv in
        (match words data with
        | [ "q"; id; name; rrtype ] ->
          let reply =
            match zone_answer db name rrtype with
            | `Ok values ->
              Printf.sprintf "r %s ok\n%s" id
                (String.concat "\n"
                   (List.map
                      (fun v -> Printf.sprintf "%s %s %s" name rrtype v)
                      values))
            | `Nx -> Printf.sprintf "r %s nx" id
            | `Referral ns ->
              Printf.sprintf "r %s ref\n%s" id
                (String.concat "\n" (List.map (fun ip -> "ns " ^ ip) ns))
          in
          Inet.Udp.send conv ~dst:src_addr ~dport:src_port reply
        | _ -> (
          match Sim.Engine.obs eng with
          | None -> ()
          | Some tr -> Obs.Trace.bump tr "dns.bad_query" 1));
        loop ()
      in
      loop ())

(* ---- resolver ---- *)

type counters = {
  mutable queries : int;
  mutable cache_hits : int;
  mutable referrals_followed : int;
  mutable timeouts : int;
}

type resolver = {
  udp : Inet.Udp.stack;
  server : Inet.Ipaddr.t;
  cache_ttl : float;
  timeout : float;
  retries : int;
  cache : (string * string, float * string list) Hashtbl.t;
  stats : counters;
  mutable next_id : int;
}

let resolver udp ~server ?(cache_ttl = 300.) ?(timeout = 1.0) ?(retries = 2)
    () =
  {
    udp;
    server;
    cache_ttl;
    timeout;
    retries;
    cache = Hashtbl.create 64;
    stats = { queries = 0; cache_hits = 0; referrals_followed = 0; timeouts = 0 };
    next_id = 1;
  }

let counters r = r.stats

(* one datagram exchange with one server; collects the matching reply
   or times out *)
let exchange r server name rrtype =
  let eng = Inet.Conv.engine r.udp in
  let conv = Inet.Udp.bind r.udp in
  Fun.protect
    ~finally:(fun () -> Inet.Udp.close conv)
    (fun () ->
      let id = string_of_int r.next_id in
      r.next_id <- r.next_id + 1;
      let rec attempt tries =
        if tries <= 0 then begin
          r.stats.timeouts <- r.stats.timeouts + 1;
          None
        end
        else begin
          Inet.Udp.send conv ~dst:server ~dport:port
            (Printf.sprintf "q %s %s %s" id name rrtype);
          let deadline = Sim.Engine.now eng +. r.timeout in
          let rec wait () =
            if Sim.Engine.now eng >= deadline then None
            else
              match Inet.Udp.try_recv conv with
              | Some (_, _, data) -> (
                match String.index_opt data '\n' with
                | _ -> (
                  let header, body =
                    match String.index_opt data '\n' with
                    | Some i ->
                      ( String.sub data 0 i,
                        String.sub data (i + 1) (String.length data - i - 1) )
                    | None -> (data, "")
                  in
                  match words header with
                  | [ "r"; rid; status ] when rid = id -> Some (status, body)
                  | _ -> wait ()))
              | None ->
                Sim.Time.sleep eng 0.01;
                wait ()
          in
          match wait () with
          | Some reply -> Some reply
          | None -> attempt (tries - 1)
        end
      in
      attempt r.retries)

let lookup r name ~rrtype =
  let eng = Inet.Conv.engine r.udp in
  let key = (name, rrtype) in
  match Hashtbl.find_opt r.cache key with
  | Some (expiry, values) when Sim.Engine.now eng < expiry ->
    r.stats.cache_hits <- r.stats.cache_hits + 1;
    values
  | Some _ | None ->
    r.stats.queries <- r.stats.queries + 1;
    let rec ask server depth =
      if depth > 4 then []
      else
        match exchange r server name rrtype with
        | None -> []
        | Some ("ok", body) ->
          String.split_on_char '\n' body
          |> List.filter_map (fun line ->
                 match words line with
                 | [ n; t; v ] when n = name && t = rrtype -> Some v
                 | _ -> None)
        | Some ("ref", body) -> (
          let ns =
            String.split_on_char '\n' body
            |> List.filter_map (fun line ->
                   match words line with
                   | [ "ns"; ip ] -> Inet.Ipaddr.of_string_opt ip
                   | _ -> None)
          in
          match ns with
          | next :: _ ->
            r.stats.referrals_followed <- r.stats.referrals_followed + 1;
            ask next (depth + 1)
          | [] -> [])
        | Some (_, _) -> []
    in
    let values = ask r.server 0 in
    if values <> [] then
      Hashtbl.replace r.cache key
        (Sim.Engine.now eng +. r.cache_ttl, values);
    values

let lookup_ip r name = lookup r name ~rrtype:"ip"

let mount env r =
  Netinfo.mount_service env ~name:"dns" ~file:"dns"
    ~show:(fun () -> "")
    (fun request ->
      match words request with
      | [ name ] | [ name; "ip" ] -> (
        match lookup_ip r name with
        | [] -> Error ("dns: no translation for " ^ name)
        | ips ->
          Ok
            (String.concat ""
               (List.map (fun ip -> Printf.sprintf "%s ip\t%s\n" name ip) ips)))
      | [ name; rrtype ] -> (
        match lookup r name ~rrtype with
        | [] -> Error ("dns: no translation for " ^ name)
        | vs ->
          Ok
            (String.concat ""
               (List.map
                  (fun v -> Printf.sprintf "%s %s\t%s\n" name rrtype v)
                  vs)))
      | _ -> Error "dns: malformed request")
