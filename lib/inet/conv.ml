exception Refused of string
exception Timeout of string
exception Hungup
exception Port_exhausted

type phase = Opening | Open | Closing | Closed

type ('c, 'p) ep = {
  cid : int;
  stack : ('c, 'p) stack;
  lport : int;
  rport : int;
  raddr : Ipaddr.t;
  rq : Block.Q.t;
  wwait : Sim.Rendez.t;
  estwait : Sim.Rendez.t;
  mutable death_tmr : Sim.Time.timer;  (* made by [opened] *)
  mutable death_at : float;
      (* pushed on every ack; rather than re-arm the heap entry each
         time, the timer fires at the stale deadline and re-arms itself
         if the real one has moved (lazy reschedule) *)
  mutable phase : phase;
  mutable err : string option;
  mutable lis : ('c, 'p) listener option;  (* a half-open call's slot *)
}

and ('c, 'p) listener = {
  lstack : ('c, 'p) stack;
  lis_port : int;
  accepts : 'c Sim.Mbox.t;
  mutable lis_open : bool;
  mutable backlog : int;
  mutable pending : int;  (* half-open calls counted in the backlog *)
  mutable refused : int;
}

and ('c, 'p) stack = {
  eng : Sim.Engine.t;
  ip : Ip.stack;
  name : string;
  ipproto : int;
  priv : 'p;
  pr : ('c, 'p) proto;
  death_time : float;
  cpu : Sim.Cpu.t option;
  cost_per_msg : float;
  cost_per_byte : float;
  convs : (int * int * Ipaddr.t, 'c) Hashtbl.t;  (* lport, rport, raddr *)
  listeners : (int, ('c, 'p) listener) Hashtbl.t;
  mutable next_port : int;
  mutable next_cid : int;
  mutable refusals : int;  (* backlog refusals, all listeners *)
  connect_span : string;
  badsum_key : string;
  refused_key : string;
}

and ('c, 'p) proto = {
  ep : 'c -> ('c, 'p) ep;
  input : ('c, 'p) stack -> src:Ipaddr.t -> Block.t -> unit;
  start : ('c, 'p) stack -> lport:int -> raddr:Ipaddr.t -> rport:int -> 'c;
  read : 'c -> int -> string;
  write : 'c -> string -> unit;
  close : 'c -> unit;
  status : 'c -> string;
  stats : 'c -> string;
  busy : 'c -> bool;
  abort : 'c -> string option -> unit;
}

let engine st = st.eng
let name st = st.name
let priv st = st.priv
let proto st = st.pr
let local_addr st = Ip.addr st.ip

(* ---- IP glue, with the optional CPU cost model ---- *)

let output st ~dst buf =
  match st.cpu with
  | None -> Ip.send st.ip ~proto:st.ipproto ~dst buf
  | Some cpu ->
    let cost =
      st.cost_per_msg
      +. (st.cost_per_byte *. float_of_int (Bytes.length buf - Ip.header_len))
    in
    Sim.Cpu.run_after ~label:st.name cpu cost (fun () ->
        Ip.send st.ip ~proto:st.ipproto ~dst buf)

let create ip ~name ~ipproto ~death_time ~cpu ~cost_per_msg ~cost_per_byte
    ~priv pr =
  let st =
    {
      eng = Ip.engine ip;
      ip;
      name;
      ipproto;
      priv;
      pr;
      death_time;
      cpu;
      cost_per_msg;
      cost_per_byte;
      convs = Hashtbl.create 31;
      listeners = Hashtbl.create 7;
      next_port = 5000;
      next_cid = 0;
      refusals = 0;
      connect_span = name ^ ".connect";
      badsum_key = name ^ ".badsum";
      refused_key = name ^ ".backlog_refused";
    }
  in
  Ip.register_proto ip ~proto:ipproto (fun ~src ~dst:_ pkt ->
      match cpu with
      | None -> pr.input st ~src pkt
      | Some cpu ->
        let cost =
          cost_per_msg +. (cost_per_byte *. float_of_int (Block.len pkt))
        in
        Sim.Cpu.run_after ~label:name cpu cost (fun () -> pr.input st ~src pkt));
  st

let badsum st (pkt : Block.t) ~header_len =
  match Sim.Engine.obs st.eng with
  | None -> ()
  | Some tr ->
    if
      Block.len pkt >= header_len
      && not (Chksum.valid_sub pkt.Block.buf pkt.Block.rp (Block.len pkt))
    then begin
      Obs.Trace.emit tr (Obs.Event.Checksum_err { proto = st.name });
      Obs.Trace.bump tr st.badsum_key 1
    end

(* ---- conversations ---- *)

let key ep = (ep.lport, ep.rport, ep.raddr)

let make ?limit ?lis st ~lport ~rport ~raddr phase =
  let cid = st.next_cid in
  st.next_cid <- cid + 1;
  (match lis with Some l -> l.pending <- l.pending + 1 | None -> ());
  {
    cid;
    stack = st;
    lport;
    rport;
    raddr;
    rq = Block.Q.create ?limit st.eng;
    wwait = Sim.Rendez.create st.eng;
    estwait = Sim.Rendez.create st.eng;
    death_tmr = Sim.Time.none;
    death_at = 0.;
    phase;
    err = None;
    lis;
  }

let insert ep c = Hashtbl.replace ep.stack.convs (key ep) c

let find st ~lport ~rport ~raddr =
  Hashtbl.find_opt st.convs (lport, rport, raddr)

let trace_state ep ~from_ ~to_ =
  match Sim.Engine.obs ep.stack.eng with
  | None -> ()
  | Some tr ->
    Obs.Trace.emit tr
      (Obs.Event.Proto_state { proto = ep.stack.name; conv = ep.cid; from_; to_ })

(* There is no protocol ticker: each conversation arms exactly the
   deadlines it needs on the engine heap, so an idle, fully-acked
   conversation lets its death timer lapse and schedules nothing. *)
let arm_death ep =
  ep.death_at <- Sim.Engine.now ep.stack.eng +. ep.stack.death_time;
  if not (Sim.Time.armed ep.death_tmr) then
    Sim.Time.arm_at ep.death_tmr ep.death_at

let death_fire ep c =
  if Sim.Engine.now ep.stack.eng < ep.death_at then
    (* the deadline moved while we slept: chase it *)
    Sim.Time.arm_at ep.death_tmr ep.death_at
  else
    let pr = ep.stack.pr in
    match ep.phase with
    | Closed -> ()
    | Opening -> pr.abort c (Some "connect timed out")
    | Open | Closing ->
      (* fresh traffic re-arms the timer; only outstanding work dies *)
      if pr.busy c then pr.abort c (Some "connection timed out")

let opened ep c ~state =
  insert ep c;
  ep.death_tmr <-
    Sim.Time.timer ~label:ep.stack.name ep.stack.eng (fun () ->
        death_fire ep c);
  arm_death ep;
  trace_state ep ~from_:"Closed" ~to_:state

let established ep c =
  match ep.lis with
  | Some lis ->
    (* the accept queue inherits the half-open call's backlog slot:
       [pending] drops as the mailbox grows, so occupancy is conserved
       until [listen] drains it *)
    lis.pending <- max 0 (lis.pending - 1);
    ep.lis <- None;
    if lis.lis_open then Sim.Mbox.send lis.accepts c
  | None -> Sim.Rendez.wakeup_all ep.estwait

let hangup ep reason =
  ep.phase <- Closed;
  ep.err <- reason;
  Sim.Time.disarm ep.death_tmr;
  (match ep.lis with
  | Some lis ->
    lis.pending <- max 0 (lis.pending - 1);
    ep.lis <- None
  | None -> ());
  Hashtbl.remove ep.stack.convs (key ep);
  Block.Q.force_put ep.rq (Block.hangup ());
  Block.Q.close ep.rq;
  Sim.Rendez.wakeup_all ep.wwait;
  Sim.Rendez.wakeup_all ep.estwait

let read ep n = Block.Q.read ep.rq n

let shutdown st c =
  st.pr.close c;
  Block.Q.force_put (st.pr.ep c).rq (Block.hangup ())

let conv_count st = Hashtbl.length st.convs

(* ---- active open ---- *)

let alloc_port st =
  let start = st.next_port - 5000 in
  let rec try_port i =
    if i >= 60000 then raise Port_exhausted
    else
      let p = 5000 + ((start + i) mod 60000) in
      let used =
        Hashtbl.fold (fun (lp, _, _) _ acc -> acc || lp = p) st.convs false
        || Hashtbl.mem st.listeners p
      in
      if used then try_port (i + 1) else p
  in
  let p = try_port 0 in
  st.next_port <- p + 1;
  p

let connect ?lport st ~raddr ~rport =
  let lport = match lport with Some p -> p | None -> alloc_port st in
  let sp =
    match Sim.Engine.obs st.eng with
    | None -> Obs.Span.none
    | Some tr -> Obs.Span.enter tr ~layer:st.name st.connect_span
  in
  let fin () =
    match Sim.Engine.obs st.eng with
    | None -> ()
    | Some tr -> Obs.Span.exit tr sp
  in
  let c = st.pr.start st ~lport ~raddr ~rport in
  let ep = st.pr.ep c in
  while ep.phase = Opening do
    Sim.Rendez.sleep ep.estwait
  done;
  (match (ep.phase, ep.err) with
  | Open, _ -> fin ()
  | _, Some "connect timed out" ->
    fin ();
    raise (Timeout (st.name ^ " connect"))
  | _, Some reason ->
    fin ();
    raise (Refused reason)
  | _, None ->
    fin ();
    raise (Refused "closed"));
  c

(* ---- passive open ---- *)

let default_backlog = 16

let announce ?(backlog = default_backlog) st ~port =
  if Hashtbl.mem st.listeners port then
    invalid_arg
      (Printf.sprintf "%s.announce: port %d in use"
         (String.capitalize_ascii st.name) port);
  let lis =
    {
      lstack = st;
      lis_port = port;
      accepts = Sim.Mbox.create st.eng;
      lis_open = true;
      backlog = max 1 backlog;
      pending = 0;
      refused = 0;
    }
  in
  Hashtbl.replace st.listeners port lis;
  lis

let listener st port = Hashtbl.find_opt st.listeners port

let admit lis =
  if lis.pending + Sim.Mbox.length lis.accepts < lis.backlog then true
  else begin
    (* backlog full: refuse rather than wedge — the caller sees a clean
       refusal and may redial *)
    let st = lis.lstack in
    lis.refused <- lis.refused + 1;
    st.refusals <- st.refusals + 1;
    (match Sim.Engine.obs st.eng with
    | None -> ()
    | Some tr -> Obs.Trace.bump tr st.refused_key 1);
    false
  end

let listen lis = Sim.Mbox.recv lis.accepts
let set_backlog lis n = lis.backlog <- max 1 n
let backlog lis = lis.backlog
let queued lis = lis.pending + Sim.Mbox.length lis.accepts
let refused lis = lis.refused
let refusals st = st.refusals

let close_listener lis =
  lis.lis_open <- false;
  Hashtbl.remove lis.lstack.listeners lis.lis_port
