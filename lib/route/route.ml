(* -------- the route table: longest-prefix match -------- *)

module Table = struct
  type target =
    | Onlink of string  (* interface name; next hop is the destination *)
    | Via of Inet.Ipaddr.t  (* next hop is the gateway *)
    | Blackhole

  type entry = {
    r_dest : Inet.Ipaddr.t;
    r_mask : Inet.Ipaddr.t;
    r_target : target;
    mutable r_uses : int;
  }

  type t = { mutable entries : entry list }

  let create () = { entries = [] }

  let same_key a b =
    Inet.Ipaddr.equal a.r_dest b.r_dest && Inet.Ipaddr.equal a.r_mask b.r_mask

  (* entries stay sorted most-specific first; insertion order breaks
     ties, so lookup is a first-match scan *)
  let resort t =
    t.entries <-
      List.stable_sort
        (fun a b ->
          Int.compare (Inet.Ipaddr.masklen b.r_mask) (Inet.Ipaddr.masklen a.r_mask))
        t.entries

  let add t ~dest ~mask target =
    let dest = Inet.Ipaddr.logand dest mask in
    let e = { r_dest = dest; r_mask = mask; r_target = target; r_uses = 0 } in
    t.entries <- List.filter (fun x -> not (same_key x e)) t.entries @ [ e ];
    resort t

  let del t ~dest ~mask =
    let dest = Inet.Ipaddr.logand dest mask in
    let n = List.length t.entries in
    t.entries <-
      List.filter
        (fun x ->
          not
            (Inet.Ipaddr.equal x.r_dest dest && Inet.Ipaddr.equal x.r_mask mask))
        t.entries;
    List.length t.entries < n

  let flush t = t.entries <- []

  (* what [first_match] returns when no entry matches *)
  let none =
    { r_dest = Inet.Ipaddr.any; r_mask = Inet.Ipaddr.any; r_target = Blackhole;
      r_uses = 0 }

  (* a first-match scan that allocates nothing *)
  let rec first_match dst = function
    | [] -> none
    | e :: rest ->
      if Inet.Ipaddr.in_subnet dst ~net:e.r_dest ~mask:e.r_mask then e
      else first_match dst rest

  let find t dst = first_match dst t.entries

  let lookup t dst =
    let e = find t dst in
    if e == none then None else Some e

  let entries t = t.entries
end

(* -------- the node: interfaces + table + forwarder -------- *)

type iface = {
  if_name : string;
  if_addr : Inet.Ipaddr.t;
  if_mask : Inet.Ipaddr.t;
  if_emit : nexthop:Inet.Ipaddr.t -> string -> unit;
  if_stack : Inet.Ip.stack option;  (* ether interfaces keep stack stats *)
}

type counters = {
  mutable forwarded : int;
  mutable no_route : int;
  mutable ttl_exceeded : int;
  mutable blackholed : int;
  mutable transit_refused : int;
  mutable bad_header : int;
  mutable tun_tx : int;
  mutable tun_rx : int;
}

type t = {
  name : string;
  eng : Sim.Engine.t;
  table : Table.t;
  mutable ifaces : iface list;
  mutable deliver : (string -> unit) option;
  mutable forwarding : bool;
  mutable hop : Inet.Ipaddr.t;  (* the next hop [resolve] chose *)
  stats : counters;
}

let create ~name eng =
  {
    name;
    eng;
    table = Table.create ();
    ifaces = [];
    deliver = None;
    forwarding = false;
    hop = Inet.Ipaddr.any;
    stats =
      {
        forwarded = 0;
        no_route = 0;
        ttl_exceeded = 0;
        blackholed = 0;
        transit_refused = 0;
        bad_header = 0;
        tun_tx = 0;
        tun_rx = 0;
      };
  }

let name t = t.name
let table t = t.table
let stats t = t.stats
let ifaces t = t.ifaces
let set_deliver t fn = t.deliver <- Some fn
let forwarding t = t.forwarding

let rec local dst = function
  | [] -> false
  | i :: rest -> Inet.Ipaddr.equal dst i.if_addr || local dst rest

(* -------- the drop choke point (one per node) --------

   Every packet the routing layer discards — no route, TTL expiry,
   blackhole route, transit at a non-forwarding host, unparseable
   header — funnels through here: a node counter, an [Obs.Event.Packet]
   with [op = Drop reason], and an [ip.<reason>] counter, so a routed
   swarm that loses traffic is never silent about why. *)

let drop t ~reason raw =
  (match reason with
  | "no_route" -> t.stats.no_route <- t.stats.no_route + 1
  | "ttl_exceeded" -> t.stats.ttl_exceeded <- t.stats.ttl_exceeded + 1
  | "blackhole" -> t.stats.blackholed <- t.stats.blackholed + 1
  | "transit_refused" -> t.stats.transit_refused <- t.stats.transit_refused + 1
  | _ -> t.stats.bad_header <- t.stats.bad_header + 1);
  match Sim.Engine.obs t.eng with
  | None -> ()
  | Some tr ->
    let saddr, daddr =
      match Inet.Ip.decode_header raw with
      | Some h ->
        ( Inet.Ipaddr.to_string h.Inet.Ip.h_src,
          Inet.Ipaddr.to_string h.Inet.Ip.h_dst )
      | None -> ("?", "?")
    in
    Obs.Trace.emit tr
      (Obs.Event.Packet
         {
           medium = "route:" ^ t.name;
           op = Obs.Event.Drop reason;
           src = saddr;
           dst = daddr;
           proto = "ip";
           bytes = String.length raw;
         });
    Obs.Trace.bump tr ("ip." ^ reason) 1

(* -------- route resolution --------

   Resolution allocates nothing: it returns the interface itself, or
   one of two sentinels, and leaves the next hop in [hop]. *)

let sentinel name =
  { if_name = name; if_addr = Inet.Ipaddr.any; if_mask = Inet.Ipaddr.any;
    if_emit = (fun ~nexthop:_ _ -> ()); if_stack = None }

let black = sentinel "blackhole"
let unroutable = sentinel "unroutable"

let rec named ifname = function
  | [] -> unroutable
  | i :: rest -> if i.if_name = ifname then i else named ifname rest

let rec facing gw = function
  | [] -> unroutable
  | i :: rest ->
    if Inet.Ipaddr.in_subnet gw ~net:i.if_addr ~mask:i.if_mask then i
    else facing gw rest

let resolve t dst =
  let e = Table.find t.table dst in
  if e == Table.none then unroutable
  else begin
    e.Table.r_uses <- e.Table.r_uses + 1;
    match e.Table.r_target with
    | Table.Blackhole -> black
    | Table.Onlink ifname ->
      t.hop <- dst;
      named ifname t.ifaces
    | Table.Via gw ->
      t.hop <- gw;
      facing gw t.ifaces
  end

let deliver_local t raw =
  match t.deliver with Some d -> d raw | None -> ()

(* locally-originated traffic, one raw (possibly fragment) at a time;
   installed as the stack's route_out hook.  Delivery to another of the
   node's own addresses loops back on the next tick, like the stack's
   own loopback. *)
let output t raw dst =
  if local dst t.ifaces || Inet.Ipaddr.equal dst Inet.Ipaddr.broadcast then
    Sim.Engine.after ~label:"route" t.eng 0. (fun () -> deliver_local t raw)
  else
    let i = resolve t dst in
    if i == black then drop t ~reason:"blackhole" raw
    else if i == unroutable then begin
      drop t ~reason:"no_route" raw;
      raise (Inet.Ip.No_route dst)
    end
    else i.if_emit ~nexthop:t.hop raw

(* -------- transit -------- *)

(* the one copy a forwarded packet costs: TTL and checksum are patched
   in the copy, and the finished buffer becomes the outgoing string
   without a second copy — nothing else holds it *)
let decrement_ttl raw =
  let b = Bytes.of_string raw in
  Bytes.set b 8 (Char.chr (Char.code raw.[8] - 1));
  Bytes.set b 10 '\000';
  Bytes.set b 11 '\000';
  (* the checksum reads the buffer through a view that dies with the
     call, before the two checksum bytes are written *)
  let sum =
    Inet.Chksum.finish
      (Inet.Chksum.ones_sum (Bytes.unsafe_to_string b) 0 Inet.Ip.header_len)
  in
  Bytes.set b 10 (Char.chr ((sum lsr 8) land 0xff));
  Bytes.set b 11 (Char.chr (sum land 0xff));
  Bytes.unsafe_to_string b

(* a packet arriving from the wire whose destination [dst] is not the
   receiving stack, its header already checked: deliver if it is for
   any of our interfaces, otherwise forward (gateways) or refuse
   (hosts) *)
let transit t ~ingress dst raw =
  if local dst t.ifaces || Inet.Ipaddr.equal dst Inet.Ipaddr.broadcast then
    deliver_local t raw
  else if not t.forwarding then drop t ~reason:"transit_refused" raw
  else if Char.code raw.[8] <= 1 then begin
    (match ingress.if_stack with
    | Some st ->
      let c = Inet.Ip.counters st in
      c.Inet.Ip.ip_ttl_exceeded <- c.Inet.Ip.ip_ttl_exceeded + 1
    | None -> ());
    drop t ~reason:"ttl_exceeded" raw
  end
  else
    let raw = decrement_ttl raw in
    let i = resolve t dst in
    if i == black then drop t ~reason:"blackhole" raw
    else if i == unroutable then drop t ~reason:"no_route" raw
    else begin
      t.stats.forwarded <- t.stats.forwarded + 1;
      (match ingress.if_stack with
      | Some st ->
        let c = Inet.Ip.counters st in
        c.Inet.Ip.ip_forwarded <- c.Inet.Ip.ip_forwarded + 1
      | None -> ());
      i.if_emit ~nexthop:t.hop raw
    end

let input t ~ingress raw =
  match Inet.Ip.decode_header raw with
  | None -> drop t ~reason:"bad_header" raw
  | Some h -> transit t ~ingress h.Inet.Ip.h_dst raw

(* -------- interfaces -------- *)

let add_iface t iface =
  t.ifaces <- t.ifaces @ [ iface ];
  (* every interface brings its on-link route *)
  Table.add t.table
    ~dest:(Inet.Ipaddr.logand iface.if_addr iface.if_mask)
    ~mask:iface.if_mask
    (Table.Onlink iface.if_name);
  if List.length t.ifaces >= 2 then t.forwarding <- true

let attach_stack t ~ifname st =
  let iface =
    {
      if_name = ifname;
      if_addr = Inet.Ip.addr st;
      if_mask = Inet.Ip.mask st;
      if_emit = (fun ~nexthop raw -> Inet.Ip.output_raw st ~nexthop raw);
      if_stack = Some st;
    }
  in
  add_iface t iface;
  Inet.Ip.set_route_out st (fun raw dst -> output t raw dst);
  Inet.Ip.set_forward st (fun dst raw -> transit t ~ingress:iface dst raw);
  iface

(* -------- IP over Datakit --------

   A point-to-point tunnel carrying raw IP packets as single Datakit
   cells, one [Packet] each.  Datakit's switch delivers
   in order but a fault schedule can still discard cells; a lost cell
   is simply a lost IP packet, recovered end-to-end by the transports —
   correct IP-over-anything semantics.  Packets sent before the call
   completes are queued and flushed at establishment.  The tunnel's
   process only places the call: received packets go to [input]
   straight from the switch's delivery event. *)

let tunnel_iface t ~ifname ~addr ~mask setup =
  let circ = ref None in
  let txq = ref [] in
  let send_cell c raw =
    t.stats.tun_tx <- t.stats.tun_tx + 1;
    Dk.Circuit.send c (Dk.Circuit.Packet raw)
  in
  let emit ~nexthop:_ raw =
    match !circ with Some c -> send_cell c raw | None -> txq := raw :: !txq
  in
  let iface =
    { if_name = ifname; if_addr = addr; if_mask = mask; if_emit = emit;
      if_stack = None }
  in
  add_iface t iface;
  ignore
    (Sim.Proc.spawn t.eng
       ~name:(Printf.sprintf "%s:%s" t.name ifname)
       (fun () ->
         let c = setup () in
         circ := Some c;
         Dk.Circuit.set_rx c (function
           | Dk.Circuit.Packet raw ->
             t.stats.tun_rx <- t.stats.tun_rx + 1;
             input t ~ingress:iface raw
           | Dk.Circuit.Data _ | Dk.Circuit.Ctl _ | Dk.Circuit.Hangup -> ());
         List.iter (send_cell c) (List.rev !txq);
         txq := []));
  iface

let dk_tunnel_listen t ~ifname ~addr ~mask line ~service =
  tunnel_iface t ~ifname ~addr ~mask (fun () ->
      let calls = Dk.Circuit.announce line ~service in
      Dk.Circuit.accept (Sim.Mbox.recv calls))

let dk_tunnel_dial t ~ifname ~addr ~mask line ~dest ~service =
  tunnel_iface t ~ifname ~addr ~mask (fun () ->
      (* the listener may not have announced yet; keep calling *)
      let rec go tries =
        match Dk.Circuit.dial line ~dest ~service with
        | c -> c
        | exception (Dk.Circuit.Rejected _ | Dk.Circuit.No_such_line _)
          when tries > 0 ->
          Sim.Time.sleep t.eng 0.1;
          go (tries - 1)
      in
      go 100)

(* -------- the /net/iproute text face -------- *)

let target_text = function
  | Table.Onlink ifname -> "onlink " ^ ifname
  | Table.Via gw -> "via " ^ Inet.Ipaddr.to_string gw
  | Table.Blackhole -> "blackhole"

let dump t =
  let b = Buffer.create 256 in
  List.iter
    (fun i ->
      Printf.bprintf b "ifc %s %s %s%s\n" i.if_name
        (Inet.Ipaddr.to_string i.if_addr)
        (Inet.Ipaddr.to_string i.if_mask)
        (match i.if_stack with None -> " tunnel" | Some _ -> ""))
    t.ifaces;
  List.iter
    (fun e ->
      Printf.bprintf b "%s %s %s uses %d\n"
        (Inet.Ipaddr.to_string e.Table.r_dest)
        (Inet.Ipaddr.to_string e.Table.r_mask)
        (target_text e.Table.r_target)
        e.Table.r_uses)
    (Table.entries t.table);
  let s = t.stats in
  Printf.bprintf b
    "fwd %d noroute %d ttlx %d blackhole %d refused %d badhdr %d tuntx %d \
     tunrx %d\n"
    s.forwarded s.no_route s.ttl_exceeded s.blackholed s.transit_refused
    s.bad_header s.tun_tx s.tun_rx;
  Buffer.contents b

(* ctl grammar (one request per write):
     add dest mask gateway
     add dest mask onlink ifname
     add dest mask blackhole
     del dest mask
     flush                                                            *)
let ctl t req =
  let words =
    String.split_on_char ' ' (String.trim req)
    |> List.filter (fun w -> w <> "")
  in
  let addr s = Inet.Ipaddr.of_string_opt s in
  match words with
  | [] | [ "" ] -> Ok (dump t)
  | [ "flush" ] ->
    Table.flush t.table;
    Ok ""
  | [ "del"; d; m ] -> (
    match (addr d, addr m) with
    | Some dest, Some mask ->
      if Table.del t.table ~dest ~mask then Ok ""
      else Error (Printf.sprintf "iproute: no route %s %s" d m)
    | _ -> Error ("iproute: bad address in: " ^ String.trim req))
  | [ "add"; d; m; "blackhole" ] -> (
    match (addr d, addr m) with
    | Some dest, Some mask ->
      Table.add t.table ~dest ~mask Table.Blackhole;
      Ok ""
    | _ -> Error ("iproute: bad address in: " ^ String.trim req))
  | [ "add"; d; m; "onlink"; ifname ] -> (
    match (addr d, addr m) with
    | Some dest, Some mask ->
      if List.exists (fun i -> i.if_name = ifname) t.ifaces then begin
        Table.add t.table ~dest ~mask (Table.Onlink ifname);
        Ok ""
      end
      else Error ("iproute: no interface " ^ ifname)
    | _ -> Error ("iproute: bad address in: " ^ String.trim req))
  | [ "add"; d; m; g ] -> (
    match (addr d, addr m, addr g) with
    | Some dest, Some mask, Some gw ->
      Table.add t.table ~dest ~mask (Table.Via gw);
      Ok ""
    | _ -> Error ("iproute: bad address in: " ^ String.trim req))
  | _ -> Error ("iproute: bad request: " ^ String.trim req)
