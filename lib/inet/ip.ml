let proto_il = 40
let proto_tcp = 6
let proto_tcpcc = 105
let proto_udp = 17
let etype_ip = 0x0800
let etype_arp = 0x0806
let header_len = 20
let arp_ttl = 600.
let arp_retries = 3
let arp_retry_interval = 1.0
let reasm_timeout = 30.

type counters = {
  mutable ip_in : int;
  mutable ip_out : int;
  mutable ip_bad_checksum : int;
  mutable ip_no_proto : int;
  mutable ip_reasm_drops : int;
  mutable arp_misses : int;
  mutable arp_unresolved_drops : int;
  mutable ip_forwarded : int;
  mutable ip_ttl_exceeded : int;
}

type arp_state =
  | Resolved of Netsim.Eaddr.t * float  (* address, expiry *)
  | Pending of string list ref * int ref  (* queued raw IP packets, tries *)

type reasm = {
  mutable frags : (int * bool * Block.t) list;  (* offset, more, data *)
  mutable born : float;
}

type header = {
  h_len : int;
  h_ipid : int;
  h_frag_off : int;
  h_more : bool;
  h_proto : int;
  h_src : Ipaddr.t;
  h_dst : Ipaddr.t;
}

type stack = {
  eng : Sim.Engine.t;
  port : Etherport.t;
  ipconn : Etherport.conn;
  arpconn : Etherport.conn;
  my_addr : Ipaddr.t;
  my_mask : Ipaddr.t;
  gw : Ipaddr.t option;
  mtu_ : int;
  protos : (int, src:Ipaddr.t -> dst:Ipaddr.t -> Block.t -> unit) Hashtbl.t;
  arp : (Ipaddr.t, arp_state) Hashtbl.t;
  reasm_tbl : (Ipaddr.t * int, reasm) Hashtbl.t;  (* src, ipid *)
  mutable next_ipid : int;
  stats : counters;
  (* a routing node hands non-local arrivals here; None until a
     Route.Node claims the stack *)
  mutable forward : (Ipaddr.t -> string -> unit) option;
  (* route selection for locally-originated packets, one raw fragment
     at a time; None falls back to the built-in my-subnet-or-gateway
     rule *)
  mutable route_out : (string -> Ipaddr.t -> unit) option;
}

let engine t = t.eng
let addr t = t.my_addr
let mask t = t.my_mask
let gateway t = t.gw
let mtu t = t.mtu_
let counters t = t.stats

exception No_route of Ipaddr.t

(* -------- byte-level encode/decode helpers -------- *)

let put16 b off v =
  Bytes.set b off (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 1) (Char.chr (v land 0xff))

let put32 b off v =
  put16 b off ((v lsr 16) land 0xffff);
  put16 b (off + 2) (v land 0xffff)

let get16 s off = (Char.code s.[off] lsl 8) lor Char.code s.[off + 1]
let get32 s off = (get16 s off lsl 16) lor get16 s (off + 2)

(* Ethernet addresses travel on the wire as 6 raw bytes, most
   significant first. *)
let put_eaddr b off (e : Netsim.Eaddr.t) =
  put16 b off ((e :> int) lsr 32);
  put32 b (off + 2) ((e :> int) land 0xffff_ffff)

let eaddr_of_raw s off =
  Netsim.Eaddr.of_int ((get16 s off lsl 32) lor get32 s (off + 2))

(* -------- IP header -------- *)

(* fill the first [header_len] bytes of [b] with the header of a
   datagram [len] bytes long, in place *)
let write_header b ~len ~ipid ~frag_off ~more ~proto ~src:sa ~dst:da =
  Bytes.set b 0 '\x45';
  Bytes.set b 1 '\000';
  put16 b 2 len;
  put16 b 4 ipid;
  put16 b 6 (((if more then 1 else 0) lsl 13) lor (frag_off / 8));
  Bytes.set b 8 '\x40' (* ttl 64 *);
  Bytes.set b 9 (Char.chr proto);
  put16 b 10 0;
  put32 b 12 (sa : Ipaddr.t :> int);
  put32 b 16 (da : Ipaddr.t :> int);
  (* the checksum reads the header through a view that dies with the
     call, before the two checksum bytes are written *)
  let sum =
    Chksum.finish (Chksum.ones_sum (Bytes.unsafe_to_string b) 0 header_len)
  in
  put16 b 10 sum

(* a well-formed, option-free header with a good checksum: what the
   receive path checks before it reads any field in place *)
let header_ok pkt =
  String.length pkt >= header_len
  && Char.code pkt.[0] = 0x45
  && Chksum.valid_sub pkt 0 header_len

let decode_header pkt =
  if not (header_ok pkt) then None
  else
    let fragword = get16 pkt 6 in
    Some
      {
        h_len = get16 pkt 2;
        h_ipid = get16 pkt 4;
        h_frag_off = (fragword land 0x1fff) * 8;
        h_more = fragword land 0x2000 <> 0;
        h_proto = Char.code pkt.[9];
        h_src = Ipaddr.of_int (get32 pkt 12);
        h_dst = Ipaddr.of_int (get32 pkt 16);
      }

(* -------- ARP -------- *)

let encode_arp ~op ~sha ~spa ~tha ~tpa =
  let b = Bytes.make 28 '\000' in
  put16 b 0 1;
  put16 b 2 etype_ip;
  Bytes.set b 4 '\006';
  Bytes.set b 5 '\004';
  put16 b 6 op;
  put_eaddr b 8 sha;
  put32 b 14 (spa : Ipaddr.t :> int);
  put_eaddr b 18 tha;
  put32 b 24 (tpa : Ipaddr.t :> int);
  Bytes.to_string b

let transmit_raw t ~dst_ether raw =
  Etherport.send t.ipconn ~dst:dst_ether raw

let arp_request t target =
  Etherport.send t.arpconn ~dst:Netsim.Eaddr.broadcast
    (encode_arp ~op:1 ~sha:(Etherport.addr t.port) ~spa:t.my_addr
       ~tha:Netsim.Eaddr.broadcast ~tpa:target)

let rec arp_retry t target =
  match Hashtbl.find_opt t.arp target with
  | Some (Pending (queued, tries)) ->
    if !tries >= arp_retries then begin
      t.stats.arp_unresolved_drops <-
        t.stats.arp_unresolved_drops + List.length !queued;
      Hashtbl.remove t.arp target
    end
    else begin
      incr tries;
      arp_request t target;
      Sim.Engine.after ~label:"ip" t.eng arp_retry_interval (fun () -> arp_retry t target)
    end
  | Some (Resolved _) | None -> ()

let resolve_and_send t nexthop raw =
  match Hashtbl.find t.arp nexthop with
  | Resolved (ea, expiry) when Sim.Engine.now t.eng < expiry ->
    transmit_raw t ~dst_ether:ea raw
  | Pending (queued, _) -> queued := raw :: !queued
  | Resolved _ | (exception Not_found) ->
    t.stats.arp_misses <- t.stats.arp_misses + 1;
    Hashtbl.replace t.arp nexthop (Pending (ref [ raw ], ref 1));
    arp_request t nexthop;
    Sim.Engine.after ~label:"ip" t.eng arp_retry_interval (fun () -> arp_retry t nexthop)

let arp_input t (frame : Netsim.Ether.frame) =
  let p = frame.Netsim.Ether.payload in
  if String.length p >= 28 && get16 p 0 = 1 && get16 p 2 = etype_ip then begin
    let op = get16 p 6 in
    let sha = eaddr_of_raw p 8 in
    let spa = Ipaddr.of_int (get32 p 14) in
    let tpa = Ipaddr.of_int (get32 p 24) in
    (* learn the sender either way *)
    let queued =
      match Hashtbl.find_opt t.arp spa with
      | Some (Pending (q, _)) -> List.rev !q
      | Some (Resolved _) | None -> []
    in
    Hashtbl.replace t.arp spa
      (Resolved (sha, Sim.Engine.now t.eng +. arp_ttl));
    List.iter (fun raw -> transmit_raw t ~dst_ether:sha raw) queued;
    if op = 1 && Ipaddr.equal tpa t.my_addr then
      Etherport.send t.arpconn ~dst:frame.Netsim.Ether.src
        (encode_arp ~op:2 ~sha:(Etherport.addr t.port) ~spa:t.my_addr
           ~tha:sha ~tpa:spa)
  end

(* -------- receive path -------- *)

let dispatch t ~src:sa ~dst:da ~proto payload =
  match Hashtbl.find t.protos proto with
  | handler -> handler ~src:sa ~dst:da payload
  | exception Not_found -> t.stats.ip_no_proto <- t.stats.ip_no_proto + 1

let reassemble t h payload =
  let key = (h.h_src, h.h_ipid) in
  let r =
    match Hashtbl.find_opt t.reasm_tbl key with
    | Some r -> r
    | None ->
      let r = { frags = []; born = Sim.Engine.now t.eng } in
      Hashtbl.replace t.reasm_tbl key r;
      Sim.Engine.after ~label:"ip" t.eng reasm_timeout (fun () ->
          if Hashtbl.mem t.reasm_tbl key then begin
            Hashtbl.remove t.reasm_tbl key;
            t.stats.ip_reasm_drops <- t.stats.ip_reasm_drops + 1
          end);
      r
  in
  r.frags <- (h.h_frag_off, h.h_more, payload) :: r.frags;
  (* complete iff we have a no-more fragment and contiguous coverage *)
  let sorted =
    List.sort (fun (a, _, _) (b, _, _) -> compare a b) r.frags
  in
  let rec check expected = function
    | [] -> None
    | (off, more, data) :: rest ->
      if off <> expected then None
      else if more then check (expected + Block.len data) rest
      else if rest = [] then Some (expected + Block.len data)
      else None
  in
  match check 0 sorted with
  | None -> None
  | Some _total ->
    Hashtbl.remove t.reasm_tbl key;
    Some (Block.concat (List.map (fun (_, _, d) -> d) sorted))

let emit_badsum t =
  t.stats.ip_bad_checksum <- t.stats.ip_bad_checksum + 1;
  match Sim.Engine.obs t.eng with
  | None -> ()
  | Some tr ->
    Obs.Trace.emit tr (Obs.Event.Checksum_err { proto = "ip" });
    Obs.Trace.bump tr "ip.badsum" 1

(* hand the transport a view of the datagram's payload over the
   received bytes, read from the header in place; fragments wait for
   the rest of their datagram *)
let input_local t raw len =
  let payload = Block.view raw header_len (len - header_len) in
  let src = Ipaddr.of_int (get32 raw 12) and dst = Ipaddr.of_int (get32 raw 16) in
  let proto = Char.code raw.[9] in
  if get16 raw 6 land 0x3fff = 0 then dispatch t ~src ~dst ~proto payload
  else
    match decode_header raw with
    | Some h -> (
      match reassemble t h payload with
      | Some whole -> dispatch t ~src ~dst ~proto whole
      | None -> ())
    | None -> ()

(* a checked header and the datagram's length, or [-1] after counting
   a bad one *)
let checked_len t raw =
  if not (header_ok raw) then (emit_badsum t; -1)
  else
    let len = get16 raw 2 in
    if String.length raw < len then (emit_badsum t; -1) else len

let ip_input t (frame : Netsim.Ether.frame) =
  let p = frame.Netsim.Ether.payload in
  let len = checked_len t p in
  if len >= 0 then begin
    t.stats.ip_in <- t.stats.ip_in + 1;
    let dst = Ipaddr.of_int (get32 p 16) in
    if Ipaddr.equal dst t.my_addr || Ipaddr.equal dst Ipaddr.broadcast then
      input_local t p len
    else
      match t.forward with
      | Some fwd ->
        (* transit: the frame as it came, trimmed only when padded *)
        fwd dst (if String.length p = len then p else String.sub p 0 len)
      | None -> () (* hosts silently drop transit packets *)
  end

(* -------- send path -------- *)

let send t ~proto ~dst buf =
  let total = Bytes.length buf - header_len in
  if Ipaddr.equal dst t.my_addr then begin
    (* loopback: deliver on the next tick, no wire *)
    let payload = Block.view (Bytes.unsafe_to_string buf) header_len total in
    Sim.Engine.after ~label:"ip" t.eng 0. (fun () ->
        dispatch t ~src:t.my_addr ~dst ~proto payload)
  end
  else begin
    let emit_frag =
      match t.route_out with
      | Some out -> fun raw -> out raw dst
      | None ->
        (* the built-in rule: on-subnet direct, else the one gateway *)
        let nexthop =
          if Ipaddr.in_subnet dst ~net:t.my_addr ~mask:t.my_mask then dst
          else
            match t.gw with Some gw -> gw | None -> raise (No_route dst)
        in
        fun raw ->
          t.stats.ip_out <- t.stats.ip_out + 1;
          resolve_and_send t nexthop raw
    in
    let ipid = t.next_ipid in
    t.next_ipid <- (t.next_ipid + 1) land 0xffff;
    let max_data = t.mtu_ - header_len in
    (* fragment offsets must be multiples of 8 *)
    let max_data = max_data - (max_data mod 8) in
    if total <= max_data then begin
      (* the common case: the buffer itself becomes the frame *)
      write_header buf ~len:(header_len + total) ~ipid ~frag_off:0
        ~more:false ~proto ~src:t.my_addr ~dst;
      emit_frag (Bytes.unsafe_to_string buf)
    end
    else
      let rec emit off =
        let take = min max_data (total - off) in
        let more = off + take < total in
        let frag = Bytes.create (header_len + take) in
        Bytes.blit buf (header_len + off) frag header_len take;
        write_header frag ~len:(header_len + take) ~ipid ~frag_off:off ~more
          ~proto ~src:t.my_addr ~dst;
        emit_frag (Bytes.unsafe_to_string frag);
        if more then emit (off + take)
      in
      emit 0
  end

let register_proto t ~proto handler =
  if Hashtbl.mem t.protos proto then
    invalid_arg (Printf.sprintf "Ip.register_proto: %d taken" proto);
  Hashtbl.replace t.protos proto handler

let create ?(mtu = 1500) ?gateway ~addr:my_addr ~mask:my_mask port =
  let eng = Etherport.engine port in
  let t =
    {
      eng;
      port;
      ipconn = Etherport.connect port etype_ip;
      arpconn = Etherport.connect port etype_arp;
      my_addr;
      my_mask;
      gw = gateway;
      mtu_ = mtu;
      protos = Hashtbl.create 7;
      arp = Hashtbl.create 17;
      reasm_tbl = Hashtbl.create 7;
      next_ipid = 1;
      route_out = None;
      stats =
        {
          ip_in = 0;
          ip_out = 0;
          ip_bad_checksum = 0;
          ip_no_proto = 0;
          ip_reasm_drops = 0;
          arp_misses = 0;
          arp_unresolved_drops = 0;
          ip_forwarded = 0;
          ip_ttl_exceeded = 0;
        };
      forward = None;
    }
  in
  Etherport.set_rx t.ipconn (fun frame -> ip_input t frame);
  Etherport.set_rx t.arpconn (fun frame -> arp_input t frame);
  t

(* transmit one raw IP packet (routing already decided): resolve the
   next hop's Ethernet address and put it on the wire *)
let output_raw t ~nexthop raw =
  t.stats.ip_out <- t.stats.ip_out + 1;
  resolve_and_send t nexthop raw

(* hand a raw IP packet to the local transports, whatever its
   destination address — multi-homed delivery and tunnel receive.
   Fragments reassemble as usual. *)
let deliver_raw t raw =
  let len = checked_len t raw in
  if len >= 0 then input_local t raw len

let set_forward t fn = t.forward <- Some fn
let set_route_out t fn = t.route_out <- Some fn

let arp_cache_dump t =
  Hashtbl.fold
    (fun k v acc ->
      match v with
      | Resolved (ea, _) -> (k, ea) :: acc
      | Pending _ -> acc)
    t.arp []
  |> List.sort (fun (a, _) (b, _) -> Ipaddr.compare a b)
