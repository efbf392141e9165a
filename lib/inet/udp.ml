let header_len = 8

type counters = {
  mutable dg_sent : int;
  mutable dg_rcvd : int;
  mutable dg_dropped_noport : int;
}

type conv = {
  stack : stack;
  cport : int;
  inbox : (Ipaddr.t * int * string) Sim.Mbox.t;
  mutable open_ : bool;
}

and stack = {
  eng : Sim.Engine.t;
  ip : Ip.stack;
  ports : (int, conv) Hashtbl.t;
  mutable next_port : int;
  stats : counters;
}

let engine st = st.eng
let local_addr st = Ip.addr st.ip
let counters st = st.stats
let port c = c.cport

let put16 b off v =
  Bytes.set b off (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 1) (Char.chr (v land 0xff))

let get16 s off = (Char.code s.[off] lsl 8) lor Char.code s.[off + 1]

(* header and payload behind IP's headroom, ready for [Ip.send] *)
let encode ~sport ~dport payload =
  let o = Ip.header_len in
  let len = header_len + String.length payload in
  let b = Bytes.create (o + len) in
  put16 b o sport;
  put16 b (o + 2) dport;
  put16 b (o + 4) len;
  put16 b (o + 6) 0;
  Bytes.blit_string payload 0 b (o + header_len) (String.length payload);
  let sum = Chksum.finish (Chksum.ones_sum (Bytes.unsafe_to_string b) o len) in
  put16 b (o + 6) (if sum = 0 then 0xffff else sum);
  b

let input st ~src ~dst:_ (pkt : Block.t) =
  let s = pkt.Block.buf and o = pkt.Block.rp and n = Block.len pkt in
  if n >= header_len && Chksum.valid_sub s o n then begin
    let sport = get16 s o and dport = get16 s (o + 2) and len = get16 s (o + 4) in
    if len = n then
      match Hashtbl.find_opt st.ports dport with
      | Some conv when conv.open_ ->
        st.stats.dg_rcvd <- st.stats.dg_rcvd + 1;
        Sim.Mbox.send conv.inbox
          (src, sport, String.sub s (o + header_len) (len - header_len))
      | Some _ | None ->
        st.stats.dg_dropped_noport <- st.stats.dg_dropped_noport + 1
  end

let attach ip =
  let st =
    {
      eng = Ip.engine ip;
      ip;
      ports = Hashtbl.create 17;
      next_port = 5000;
      stats = { dg_sent = 0; dg_rcvd = 0; dg_dropped_noport = 0 };
    }
  in
  Ip.register_proto ip ~proto:Ip.proto_udp (fun ~src ~dst pkt ->
      input st ~src ~dst pkt);
  st

let bind ?port st =
  let p =
    match port with
    | Some p ->
      if Hashtbl.mem st.ports p then
        invalid_arg (Printf.sprintf "Udp.bind: port %d in use" p);
      p
    | None ->
      let rec hunt n =
        let p = 5000 + (n mod 60000) in
        if Hashtbl.mem st.ports p then hunt (n + 1) else p
      in
      let p = hunt (st.next_port - 5000) in
      st.next_port <- p + 1;
      p
  in
  let conv = { stack = st; cport = p; inbox = Sim.Mbox.create st.eng;
               open_ = true }
  in
  Hashtbl.replace st.ports p conv;
  conv

let send c ~dst ~dport payload =
  c.stack.stats.dg_sent <- c.stack.stats.dg_sent + 1;
  Ip.send c.stack.ip ~proto:Ip.proto_udp ~dst
    (encode ~sport:c.cport ~dport payload)

let recv c = Sim.Mbox.recv c.inbox
let try_recv c = Sim.Mbox.try_recv c.inbox

let close c =
  c.open_ <- false;
  Hashtbl.remove c.stack.ports c.cport
