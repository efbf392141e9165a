let header_len = 8

type counters = {
  mutable dg_sent : int;
  mutable dg_rcvd : int;
  mutable dg_dropped_noport : int;
}

type conv = {
  sock_stack : stack;
  cport : int;
  inbox : (Ipaddr.t * int * string) Sim.Mbox.t;
  mutable open_ : bool;
}

(* a /net/udp conversation: the core's endpoint is all it needs *)
and face = { ep : (face, priv) Conv.ep }

and priv = { ports : (int, conv) Hashtbl.t; stats : counters }

and stack = (face, priv) Conv.stack

let counters st = (Conv.priv st).stats

(* header and payload behind IP's headroom, ready for [Ip.send] *)
let encode ~sport ~dport payload =
  let o = Ip.header_len in
  let len = header_len + String.length payload in
  let b = Bytes.create (o + len) in
  Ip.put16 b o sport;
  Ip.put16 b (o + 2) dport;
  Ip.put16 b (o + 4) len;
  Ip.put16 b (o + 6) 0;
  Bytes.blit_string payload 0 b (o + header_len) (String.length payload);
  let sum = Chksum.finish (Chksum.ones_sum (Bytes.unsafe_to_string b) o len) in
  Ip.put16 b (o + 6) (if sum = 0 then 0xffff else sum);
  b

let open_face ?lis st ~lport ~rport ~raddr =
  let c = { ep = Conv.make ?lis st ~lport ~rport ~raddr Conv.Open } in
  Conv.insert c.ep c;
  c

(* one datagram per delimited block: the payload view itself *)
let deliver c (pkt : Block.t) =
  Block.consume pkt header_len;
  pkt.Block.delim <- true;
  Block.Q.force_put c.ep.rq pkt

(* a dialed or accepted conversation takes its peer's datagrams; a new
   peer of an announced port is a new call; anything else goes to a
   bound socket *)
let input st ~src (pkt : Block.t) =
  let pv = Conv.priv st in
  let s = pkt.Block.buf and o = pkt.Block.rp and n = Block.len pkt in
  if n >= header_len && Chksum.valid_sub s o n then begin
    let sport = Ip.get16 s o and dport = Ip.get16 s (o + 2) in
    if Ip.get16 s (o + 4) = n then
      match Conv.find st ~lport:dport ~rport:sport ~raddr:src with
      | Some c ->
        pv.stats.dg_rcvd <- pv.stats.dg_rcvd + 1;
        deliver c pkt
      | None -> (
        match (Conv.listener st dport, Hashtbl.find_opt pv.ports dport) with
        | Some lis, _ ->
          if Conv.admit lis then begin
            pv.stats.dg_rcvd <- pv.stats.dg_rcvd + 1;
            let c = open_face ~lis st ~lport:dport ~rport:sport ~raddr:src in
            deliver c pkt;
            Conv.established c.ep c
          end
        | None, Some sock when sock.open_ ->
          pv.stats.dg_rcvd <- pv.stats.dg_rcvd + 1;
          Sim.Mbox.send sock.inbox
            (src, sport, String.sub s (o + header_len) (n - header_len))
        | None, (Some _ | None) ->
          pv.stats.dg_dropped_noport <- pv.stats.dg_dropped_noport + 1)
  end

let send_from st ~sport ~dst ~dport payload =
  let pv = Conv.priv st in
  pv.stats.dg_sent <- pv.stats.dg_sent + 1;
  Conv.output st ~dst (encode ~sport ~dport payload)

let face_read c n =
  match Block.Q.get c.ep.rq with
  | Some b ->
    (* a datagram longer than the read is truncated *)
    Block.to_string (if Block.len b <= n then b else Block.sub b n)
  | None -> ""

let face_write c data =
  if c.ep.phase = Conv.Closed then raise Conv.Hungup;
  send_from c.ep.stack ~sport:c.ep.lport ~dst:c.ep.raddr ~dport:c.ep.rport data

let face_close c = if c.ep.phase <> Conv.Closed then Conv.hangup c.ep None

let attach ip =
  Conv.create ip ~name:"udp" ~ipproto:Ip.proto_udp ~death_time:infinity
    ~cpu:None ~cost_per_msg:0. ~cost_per_byte:0.
    ~priv:
      {
        ports = Hashtbl.create 17;
        stats = { dg_sent = 0; dg_rcvd = 0; dg_dropped_noport = 0 };
      }
    {
      ep = (fun c -> c.ep);
      input;
      (* no handshake: a dialed conversation is open at once *)
      start = (fun st ~lport ~raddr ~rport -> open_face st ~lport ~rport ~raddr);
      read = face_read;
      write = face_write;
      close = face_close;
      status = (fun c -> Printf.sprintf "udp/%d Open" c.ep.lport);
      stats =
        (fun c ->
          let s = counters c.ep.stack in
          Printf.sprintf "dgrams_sent %d\ndgrams_rcvd %d\nno_port %d\n"
            s.dg_sent s.dg_rcvd s.dg_dropped_noport);
      busy = (fun _ -> false);
      abort = (fun c reason -> Conv.hangup c.ep reason);
    }

(* ---- bound sockets ---- *)

let bind ?port st =
  let ports = (Conv.priv st).ports in
  let p =
    match port with
    | Some p ->
      if Hashtbl.mem ports p then
        invalid_arg (Printf.sprintf "Udp.bind: port %d in use" p);
      p
    | None ->
      (* sockets and conversations share one ephemeral cursor *)
      let rec hunt () =
        let p = Conv.alloc_port st in
        if Hashtbl.mem ports p then hunt () else p
      in
      hunt ()
  in
  let conv =
    { sock_stack = st; cport = p; inbox = Sim.Mbox.create (Conv.engine st);
      open_ = true }
  in
  Hashtbl.replace ports p conv;
  conv

let send c ~dst ~dport payload =
  send_from c.sock_stack ~sport:c.cport ~dst ~dport payload

let recv c = Sim.Mbox.recv c.inbox
let try_recv c = Sim.Mbox.try_recv c.inbox

let close c =
  c.open_ <- false;
  Hashtbl.remove (Conv.priv c.sock_stack).ports c.cport
