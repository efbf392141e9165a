let mount_service env ~name ~file ~show handle =
  Vfs.Env.mount_fs env
    (Ninep.Devtab.service ~name ~file ~show handle)
    ~onto:"/net" Vfs.Ns.After

let arp_text ip =
  String.concat ""
    (List.map
       (fun (addr, ea) ->
         Printf.sprintf "%s %s\n"
           (Inet.Ipaddr.to_string addr)
           (Netsim.Eaddr.to_string ea))
       (Inet.Ip.arp_cache_dump ip))

let mount_arp env ip =
  mount_service env ~name:"arp" ~file:"arp"
    ~show:(fun () -> arp_text ip)
    (fun req ->
      match String.trim req with
      | "" | "flush" -> Ok (arp_text ip)
      | other -> Error ("arp: bad request: " ^ other))

let ipifc_text ip =
  let c = Inet.Ip.counters ip in
  Printf.sprintf
    "addr %s mask %s gw %s mtu %d\n\
     in %d out %d badck %d noproto %d reasmdrop %d fwd %d ttlx %d\n"
    (Inet.Ipaddr.to_string (Inet.Ip.addr ip))
    (Inet.Ipaddr.to_string (Inet.Ip.mask ip))
    (match Inet.Ip.gateway ip with
    | Some g -> Inet.Ipaddr.to_string g
    | None -> "none")
    (Inet.Ip.mtu ip) c.Inet.Ip.ip_in c.Inet.Ip.ip_out
    c.Inet.Ip.ip_bad_checksum c.Inet.Ip.ip_no_proto c.Inet.Ip.ip_reasm_drops
    c.Inet.Ip.ip_forwarded c.Inet.Ip.ip_ttl_exceeded

(* /net/log: the kernel event trace as text, newest events last.
   Writing "clear" empties the ring; "limit N" tailors the read. *)
let log_text ?limit eng =
  match Sim.Engine.obs eng with
  | None -> "tracing disabled\n"
  | Some tr ->
    let body = Obs.Trace.render ?limit tr in
    let dropped = Obs.Trace.dropped tr in
    if dropped > 0 then
      Printf.sprintf "... %d earlier events overwritten\n%s" dropped body
    else body

let mount_log env eng =
  mount_service env ~name:"netlog" ~file:"log"
    ~show:(fun () -> log_text eng)
    (fun req ->
      match String.split_on_char ' ' (String.trim req) with
      | [ "" ] -> Ok (log_text eng)
      | [ "clear" ] ->
        (match Sim.Engine.obs eng with
        | Some tr -> Obs.Trace.clear tr
        | None -> ());
        Ok ""
      | [ "limit"; n ] -> (
        match int_of_string_opt n with
        | Some limit when limit > 0 -> Ok (log_text ~limit eng)
        | _ -> Error ("log: bad limit: " ^ n))
      | _ -> Error ("log: bad request: " ^ String.trim req))

(* /net/metrics: periodic counter snapshots as "name value ts" lines
   (Prometheus exposition, virtual timestamps).  Sampling is opt-in —
   an always-on sampler would add engine events to every run and
   perturb the event-economy baselines — so a plain read without any
   stored samples shows one live snapshot instead. *)
type metrics = {
  mutable series : Obs.Series.t option;  (* made at the first use *)
  mutable interval : float;
  mutable sampler : Sim.Time.timer;  (* re-arms itself every [interval] *)
}

let mount_metrics env eng =
  let m = { series = None; interval = 1.0; sampler = Sim.Time.none } in
  m.sampler <-
    Sim.Time.timer ~label:"obs" eng (fun () ->
        (match m.series with
        | Some s -> Obs.Series.sample s (Sim.Engine.now eng)
        | None -> ());
        Sim.Time.arm m.sampler m.interval);
  let get_series () =
    (match (m.series, Sim.Engine.obs eng) with
    | None, Some tr ->
      m.series <- Some (Obs.Series.create (Obs.Trace.metrics tr))
    | _ -> ());
    m.series
  in
  let start interval =
    match get_series () with
    | None -> Error "metrics: tracing disabled"
    | Some _ ->
      m.interval <- interval;
      Sim.Time.arm m.sampler interval;
      Ok ""
  in
  let text () =
    match get_series () with
    | None -> "tracing disabled\n"
    | Some s -> Obs.Series.render ~live_ts:(Sim.Engine.now eng) s
  in
  mount_service env ~name:"netmetrics" ~file:"metrics"
    ~show:text
    (fun req ->
      match String.split_on_char ' ' (String.trim req) with
      | [ "" ] -> Ok (text ())
      | [ "start" ] -> start 1.0
      | [ "start"; iv ] -> (
        match float_of_string_opt iv with
        | Some dt when dt > 0. -> start dt
        | _ -> Error ("metrics: bad interval: " ^ iv))
      | [ "stop" ] ->
        Sim.Time.disarm m.sampler;
        Ok ""
      | [ "sample" ] -> (
        match get_series () with
        | None -> Error "metrics: tracing disabled"
        | Some s ->
          Obs.Series.sample s (Sim.Engine.now eng);
          Ok (text ()))
      | [ "clear" ] ->
        (match m.series with Some s -> Obs.Series.clear s | None -> ());
        Ok ""
      | _ -> Error ("metrics: bad request: " ^ String.trim req))

(* /net/iproute: the host's route table — interfaces, entries
   most-specific first with use counts, and the forward/drop counters.
   Writes speak the Route.ctl grammar (add/del/flush). *)
let mount_iproute env node =
  mount_service env ~name:"iproute" ~file:"iproute"
    ~show:(fun () -> Route.dump node)
    (Route.ctl node)

let mount_ipifc env ip =
  mount_service env ~name:"ipifc" ~file:"ipifc"
    ~show:(fun () -> ipifc_text ip)
    (fun req ->
      match String.trim req with
      | "" -> Ok (ipifc_text ip)
      | other -> Error ("ipifc: bad request: " ^ other))
