let src = Logs.Src.create "il" ~doc:"IL protocol"

module Log = (val Logs.src_log src : Logs.LOG)

let header_len = 18

type msg_type = Sync | Data | Dataquery | Ack | Query | State | Close | Reset

let type_code = function
  | Sync -> 0
  | Data -> 1
  | Dataquery -> 2
  | Ack -> 3
  | Query -> 4
  | State -> 5
  | Close -> 6
  | Reset -> 7

let type_of_code = function
  | 0 -> Some Sync
  | 1 -> Some Data
  | 2 -> Some Dataquery
  | 3 -> Some Ack
  | 4 -> Some Query
  | 5 -> Some State
  | 6 -> Some Close
  | 7 -> Some Reset
  | _ -> None

type config = {
  window : int;
  min_timeout : float;
  max_timeout : float;
  death_time : float;
  ack_delay : float;
  fast_recovery : bool;
  cpu : Sim.Cpu.t option;
  cost_per_msg : float;
  cost_per_byte : float;
}

let default_config =
  {
    window = 20;
    min_timeout = 0.05;
    max_timeout = 4.0;
    death_time = 30.0;
    ack_delay = 0.02;
    fast_recovery = true;
    cpu = None;
    cost_per_msg = 0.;
    cost_per_byte = 0.;
  }

type counters = {
  mutable msgs_sent : int;
  mutable msgs_rcvd : int;
  mutable bytes_sent : int;
  mutable bytes_rcvd : int;
  mutable retransmits : int;
  mutable retransmitted_bytes : int;
  mutable queries_sent : int;
  mutable dups_dropped : int;
  mutable out_of_window : int;
  mutable resets : int;
  mutable rtt_samples : int;
}

type conv_state = SClosed | SSyncer | SSyncee | SEstablished | SClosing

exception Refused of string
exception Timeout of string
exception Hungup
exception Port_exhausted

type conv = {
  cid : int;
  stack : stack;
  lport : int;
  rport : int;
  raddr : Ipaddr.t;
  cstats : counters;  (* per-conversation mirror of the stack counters *)
  mutable state : conv_state;
  mutable start : int;  (* our initial sequence number *)
  mutable next : int;  (* next id we will send *)
  mutable rstart : int;  (* peer's initial sequence number *)
  mutable recvd : int;  (* highest in-order id received *)
  unacked : (int * string) Queue.t;
      (* ascending ids awaiting ack, each with the buffer that went to
         IP for it (IP header included once sent) *)
  mutable oow : (int * Block.t) list;  (* out-of-order buffer, ascending *)
  rq : Block.Q.t;
  wwait : Sim.Rendez.t;  (* writers waiting for window space *)
  estwait : Sim.Rendez.t;  (* connect/close waiters *)
  mutable srtt : float;
  mutable mdev : float;
  mutable backoff : int;
  rexmit_tmr : Sim.Time.timer;  (* disarmed = nothing awaiting (re)send *)
  death_tmr : Sim.Time.timer;
  mutable death_at : float;
      (* the death deadline is pushed on every ack; rather than re-arm
         the heap entry each time, the timer fires at the stale deadline
         and re-arms itself if the real one has moved (lazy reschedule) *)
  ack_tmr : Sim.Time.timer;  (* delayed ack, armed = ack owed *)
  mutable rtt_id : int;  (* message being timed, 0 = none *)
  mutable rtt_sent_at : float;
  mutable err : string option;
  mutable close_sent : bool;
  mutable lis : listener option;  (* half-open syncee's listener slot *)
}

and listener = {
  lstack : stack;
  lis_port : int;
  accepts : conv Sim.Mbox.t;
  mutable lis_open : bool;
  mutable backlog : int;
  mutable lis_pending : int;  (* half-open syncees counted in backlog *)
  mutable refused : int;
}

and stack = {
  eng : Sim.Engine.t;
  ip : Ip.stack;
  cfg : config;
  convs : (int * int * int32, conv) Hashtbl.t;  (* lport, rport, raddr *)
  listeners : (int, listener) Hashtbl.t;
  mutable next_port : int;
  mutable next_cid : int;
  mutable refusals : int;  (* backlog refusals, all listeners *)
  stats : counters;
}

let engine st = st.eng
let counters st = st.stats
let local_addr st = Ip.addr st.ip
let conv_id c = c.cid
let local_port c = c.lport
let remote_port c = c.rport
let remote_addr c = c.raddr
let rtt_estimate c = c.srtt

let state_str = function
  | SClosed -> "Closed"
  | SSyncer -> "Syncer"
  | SSyncee -> "Syncee"
  | SEstablished -> "Established"
  | SClosing -> "Closing"

let state_name c = state_str c.state

let status c =
  Printf.sprintf
    "il/%d %d %s sent %d rcvd %d unacked %d window %d rexmit %d rtt %.0fms"
    c.cid c.lport (state_name c) (c.next - c.start - 1) (c.recvd - c.rstart)
    (Queue.length c.unacked) c.stack.cfg.window c.cstats.retransmits
    (c.srtt *. 1000.)

let conv_counters c = c.cstats

let conv_stats c =
  let s = c.cstats in
  String.concat "\n"
    [
      Printf.sprintf "msgs_sent %d" s.msgs_sent;
      Printf.sprintf "msgs_rcvd %d" s.msgs_rcvd;
      Printf.sprintf "bytes_sent %d" s.bytes_sent;
      Printf.sprintf "bytes_rcvd %d" s.bytes_rcvd;
      Printf.sprintf "retransmits %d" s.retransmits;
      Printf.sprintf "retransmitted_bytes %d" s.retransmitted_bytes;
      Printf.sprintf "queries_sent %d" s.queries_sent;
      Printf.sprintf "dups_dropped %d" s.dups_dropped;
      Printf.sprintf "out_of_window %d" s.out_of_window;
      Printf.sprintf "resets %d" s.resets;
      Printf.sprintf "rtt_samples %d" s.rtt_samples;
      Printf.sprintf "rtt_ms %.3f" (c.srtt *. 1000.);
    ]
  ^ "\n"

(* state transitions are traced; every change funnels through here *)
let set_state c s =
  if c.state <> s then begin
    (match Sim.Engine.obs c.stack.eng with
    | None -> ()
    | Some tr ->
      Obs.Trace.emit tr
        (Obs.Event.Proto_state
           {
             proto = "il";
             conv = c.cid;
             from_ = state_str c.state;
             to_ = state_str s;
           }));
    c.state <- s
  end

(* ---- wire format ---- *)

let put16 b off v =
  Bytes.set b off (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 1) (Char.chr (v land 0xff))

let put32 b off v =
  put16 b off ((v lsr 16) land 0xffff);
  put16 b (off + 2) (v land 0xffff)

let get16 s off = (Char.code s.[off] lsl 8) lor Char.code s.[off + 1]
let get32 s off = (get16 s off lsl 16) lor get16 s (off + 2)

(* One buffer per message: IP's headroom, then our header, then [len]
   bytes of [data] from [off].  The buffer goes to [Ip.send] as is. *)
let encode ~ty ~sport ~dport ~id ~ack data off len =
  let o = Ip.header_len in
  let mlen = header_len + len in
  let b = Bytes.create (o + mlen) in
  put16 b o 0;
  put16 b (o + 2) mlen;
  Bytes.set b (o + 4) (Char.chr (type_code ty));
  Bytes.set b (o + 5) '\000';
  put16 b (o + 6) sport;
  put16 b (o + 8) dport;
  put32 b (o + 10) id;
  put32 b (o + 14) ack;
  Bytes.blit_string data off b (o + header_len) len;
  (* the sum reads through a view that dies with the call *)
  let sum = Chksum.finish (Chksum.ones_sum (Bytes.unsafe_to_string b) o mlen) in
  put16 b o sum;
  b

(* where a message's data sits in the buffer [encode] built *)
let data_off = Ip.header_len + header_len

type packet = {
  p_ty : msg_type;
  p_sport : int;
  p_dport : int;
  p_id : int;
  p_ack : int;
  p_data : Block.t;  (* the datagram's own view, advanced past our header *)
}

(* checked and parsed in place over the received frame *)
let decode (pkt : Block.t) =
  let s = pkt.Block.buf and o = pkt.Block.rp and n = Block.len pkt in
  if n < header_len then None
  else if not (Chksum.valid_sub s o n) then None
  else if get16 s (o + 2) <> n then None
  else
    match type_of_code (Char.code s.[o + 4]) with
    | None -> None
    | Some ty ->
      Block.consume pkt header_len;
      Some
        {
          p_ty = ty;
          p_sport = get16 s (o + 6);
          p_dport = get16 s (o + 8);
          p_id = get32 s (o + 10);
          p_ack = get32 s (o + 14);
          p_data = pkt;
        }

(* ---- output ---- *)

let raw_output st ~dst buf =
  match st.cfg.cpu with
  | None -> Ip.send st.ip ~proto:Ip.proto_il ~dst buf
  | Some cpu ->
    let cost =
      st.cfg.cost_per_msg
      +. st.cfg.cost_per_byte
         *. float_of_int (Bytes.length buf - Ip.header_len)
    in
    Sim.Cpu.run_after ~label:"il" cpu cost (fun () ->
        Ip.send st.ip ~proto:Ip.proto_il ~dst buf)

(* encode and send one message carrying [len] bytes of [data] from
   [off]; the result is the buffer handed to IP, which nobody writes
   again *)
let xmit_data c ty ~id data off len =
  (* every outgoing message acknowledges what we have received *)
  if ty = Data || ty = Ack then Sim.Time.disarm c.ack_tmr;
  let buf =
    encode ~ty ~sport:c.lport ~dport:c.rport ~id ~ack:c.recvd data off len
  in
  raw_output c.stack ~dst:c.raddr buf;
  Bytes.unsafe_to_string buf

let xmit c ty ~id () = ignore (xmit_data c ty ~id "" 0 0)

let rto c =
  let t = c.srtt +. (4. *. c.mdev) in
  let t = t *. float_of_int (1 lsl min c.backoff 6) in
  min c.stack.cfg.max_timeout (max c.stack.cfg.min_timeout t)

(* ---- teardown ---- *)

let conv_key c = (c.lport, c.rport, Ipaddr.to_int32 c.raddr)

let destroy c reason =
  if c.state <> SClosed then begin
    set_state c SClosed;
    c.err <- reason;
    Sim.Time.disarm c.rexmit_tmr;
    Sim.Time.disarm c.death_tmr;
    Sim.Time.disarm c.ack_tmr;
    (match c.lis with
    | Some lis ->
      lis.lis_pending <- max 0 (lis.lis_pending - 1);
      c.lis <- None
    | None -> ());
    Hashtbl.remove c.stack.convs (conv_key c);
    Block.Q.force_put c.rq (Block.hangup ());
    Block.Q.close c.rq;
    Sim.Rendez.wakeup_all c.wwait;
    Sim.Rendez.wakeup_all c.estwait
  end

(* ---- per-conversation timers ----

   There is no protocol ticker: each conversation arms exactly the
   deadlines it needs on the engine heap and disarms them when the work
   is acknowledged, so an idle conversation schedules nothing at all. *)

let rec arm_timer c =
  Sim.Time.arm_at c.rexmit_tmr
    (Sim.Engine.now c.stack.eng +. rto c)
    (fun () -> rexmit_fire c)

and rexmit_fire c =
  match c.state with
  | SClosed -> ()
  | SSyncer | SSyncee ->
    c.backoff <- c.backoff + 1;
    xmit c Sync ~id:c.start ();
    arm_timer c
  | SEstablished | SClosing ->
    if (not (Queue.is_empty c.unacked)) || c.state = SClosing then begin
      if c.state = SClosing && c.close_sent then begin
        c.backoff <- c.backoff + 1;
        xmit c Close ~id:(c.next - 1) ();
        arm_timer c
      end
      else begin
        (* a timeout sends a small query, not the data *)
        c.stack.stats.queries_sent <- c.stack.stats.queries_sent + 1;
        c.cstats.queries_sent <- c.cstats.queries_sent + 1;
        c.backoff <- c.backoff + 1;
        (* Karn: once recovery starts, the timed message's ack may
           arrive via the Query/State exchange; a sample would fold
           the whole timeout into srtt *)
        c.rtt_id <- 0;
        xmit c Query ~id:(c.next - 1) ();
        arm_timer c
      end
    end

let rec arm_death c =
  c.death_at <- Sim.Engine.now c.stack.eng +. c.stack.cfg.death_time;
  if not (Sim.Time.armed c.death_tmr) then
    Sim.Time.arm_at c.death_tmr c.death_at (fun () -> death_fire c)

and death_fire c =
  if Sim.Engine.now c.stack.eng < c.death_at then
    (* the deadline moved while we slept: chase it *)
    Sim.Time.arm_at c.death_tmr c.death_at (fun () -> death_fire c)
  else
    match c.state with
    | SClosed -> ()
    | SSyncer | SSyncee -> destroy c (Some "connect timed out")
    | SEstablished | SClosing ->
      (* an idle, fully-acked conversation just lets the timer lapse;
         fresh traffic re-arms it *)
      if (not (Queue.is_empty c.unacked)) || c.state = SClosing then
        destroy c (Some "connection timed out")

(* ---- rtt ---- *)

let rtt_sample c sample =
  c.stack.stats.rtt_samples <- c.stack.stats.rtt_samples + 1;
  c.cstats.rtt_samples <- c.cstats.rtt_samples + 1;
  if c.srtt = 0. then begin
    c.srtt <- sample;
    c.mdev <- sample /. 2.
  end
  else begin
    let err = sample -. c.srtt in
    (* adapt quickly upward: on a window-limited sender the measured
       round trip includes queueing behind the whole window, and a slow
       climb means a storm of spurious queries *)
    let gain = if err > 0. then 2. else 8. in
    c.srtt <- c.srtt +. (err /. gain);
    c.mdev <- c.mdev +. ((Float.abs err -. c.mdev) /. 4.)
  end

(* ---- ack processing ---- *)

let process_ack c ack =
  let before = Queue.length c.unacked in
  while
    (not (Queue.is_empty c.unacked)) && fst (Queue.peek c.unacked) <= ack
  do
    ignore (Queue.pop c.unacked)
  done;
  let acked = before - Queue.length c.unacked in
  if acked > 0 then begin
    if c.rtt_id <> 0 && ack >= c.rtt_id then begin
      rtt_sample c (Sim.Engine.now c.stack.eng -. c.rtt_sent_at);
      c.rtt_id <- 0
    end;
    c.backoff <- 0;
    arm_death c;
    if Queue.is_empty c.unacked then Sim.Time.disarm c.rexmit_tmr
    else arm_timer c;
    Sim.Rendez.wakeup_all c.wwait
  end

(* ---- receive path ---- *)

(* the payload view itself is queued: one message, one block *)
let deliver c (data : Block.t) =
  let n = Block.len data in
  c.stack.stats.msgs_rcvd <- c.stack.stats.msgs_rcvd + 1;
  c.stack.stats.bytes_rcvd <- c.stack.stats.bytes_rcvd + n;
  c.cstats.msgs_rcvd <- c.cstats.msgs_rcvd + 1;
  c.cstats.bytes_rcvd <- c.cstats.bytes_rcvd + n;
  data.Block.delim <- true;
  Block.Q.force_put c.rq data

let send_ack_now c = xmit c Ack ~id:(c.next - 1) ()

let schedule_ack c =
  if not (Sim.Time.armed c.ack_tmr) then
    Sim.Time.arm c.ack_tmr c.stack.cfg.ack_delay (fun () -> send_ack_now c)

let rec drain_oow c =
  match c.oow with
  | (id, data) :: rest when id = c.recvd + 1 ->
    c.oow <- rest;
    c.recvd <- id;
    deliver c data;
    drain_oow c
  | (id, _) :: rest when id <= c.recvd ->
    c.oow <- rest;
    drain_oow c
  | _ :: _ | [] -> ()

let handle_data c (p : packet) =
  if p.p_id = c.recvd + 1 then begin
    c.recvd <- p.p_id;
    deliver c p.p_data;
    drain_oow c;
    schedule_ack c
  end
  else if p.p_id <= c.recvd then begin
    c.stack.stats.dups_dropped <- c.stack.stats.dups_dropped + 1;
    c.cstats.dups_dropped <- c.cstats.dups_dropped + 1;
    (* a duplicate usually means our ack was lost: re-ack at once *)
    send_ack_now c
  end
  else if p.p_id - c.recvd <= c.stack.cfg.window then begin
    if List.mem_assoc p.p_id c.oow then begin
      (* a duplicate of a message already buffered out of order: it
         must not be delivered again when the gap fills *)
      c.stack.stats.dups_dropped <- c.stack.stats.dups_dropped + 1;
      c.cstats.dups_dropped <- c.cstats.dups_dropped + 1
    end
    else
      c.oow <-
        List.sort (fun (a, _) (b, _) -> compare a b) ((p.p_id, p.p_data) :: c.oow);
    (* a gap means a message was lost: volunteer our sequence state so
       the sender can resend the missing one without waiting for its
       query timer (the timer remains the backstop) *)
    let buffered = List.length c.oow in
    if c.stack.cfg.fast_recovery && (buffered = 1 || buffered mod 8 = 0)
    then xmit c State ~id:(c.next - 1) ()
    else schedule_ack c
  end
  else begin
    c.stack.stats.out_of_window <- c.stack.stats.out_of_window + 1;
    c.cstats.out_of_window <- c.cstats.out_of_window + 1
  end

let retransmit_missing c peer_ack =
  (* resend only the oldest message the peer lacks (as the real IL
     did): later ones are usually still in flight, and the receiver's
     window buffers successors, so one resend unlocks a cumulative
     ack.  This is what keeps IL polite in congestion. *)
  match Seq.find (fun (id, _) -> id > peer_ack) (Queue.to_seq c.unacked) with
  | Some (id, sent) ->
    let len = String.length sent - data_off in
    c.stack.stats.retransmits <- c.stack.stats.retransmits + 1;
    c.stack.stats.retransmitted_bytes <-
      c.stack.stats.retransmitted_bytes + len;
    c.cstats.retransmits <- c.cstats.retransmits + 1;
    c.cstats.retransmitted_bytes <- c.cstats.retransmitted_bytes + len;
    (match Sim.Engine.obs c.stack.eng with
    | None -> ()
    | Some tr ->
      Obs.Trace.emit tr
        (Obs.Event.Retransmit { proto = "il"; conv = c.cid; id; bytes = len });
      Obs.Trace.bump tr "il.retransmits" 1);
    (* Karn: a message that was retransmitted must not contribute a
       round-trip sample — it would fold the whole recovery delay into
       srtt *)
    c.rtt_id <- 0;
    (* a fresh buffer: the resend carries a new ack and IP id, and the
       one already sent may still be on the wire *)
    ignore (xmit_data c Data ~id sent data_off len);
    c.backoff <- c.backoff + 1;
    arm_timer c
  | None -> ()

let handle_packet c (p : packet) =
  match c.state with
  | SClosed -> ()
  | SSyncer -> (
    match p.p_ty with
    | Sync when p.p_ack = c.start ->
      c.rstart <- p.p_id;
      c.recvd <- p.p_id;
      set_state c SEstablished;
      Sim.Time.disarm c.rexmit_tmr;
      c.backoff <- 0;
      arm_death c;
      send_ack_now c;
      Sim.Rendez.wakeup_all c.estwait
    | Reset -> destroy c (Some "connection refused")
    | Sync | Data | Dataquery | Ack | Query | State | Close -> ())
  | SSyncee -> (
    match p.p_ty with
    | (Ack | Data | Dataquery) when p.p_ack >= c.start ->
      set_state c SEstablished;
      Sim.Time.disarm c.rexmit_tmr;
      c.backoff <- 0;
      arm_death c;
      (* the accept queue inherits this conversation's backlog slot:
         lis_pending drops as the mailbox grows, so occupancy is
         conserved until [listen] drains it *)
      (match c.lis with
      | Some lis ->
        lis.lis_pending <- max 0 (lis.lis_pending - 1);
        c.lis <- None;
        if lis.lis_open then Sim.Mbox.send lis.accepts c
      | None -> ());
      (match p.p_ty with
      | Data | Dataquery -> handle_data c p
      | Ack | Sync | Query | State | Close | Reset -> ())
    | Sync when p.p_id = c.rstart ->
      (* retransmitted sync from the peer: re-answer *)
      xmit c Sync ~id:c.start ()
    | Reset -> destroy c (Some "reset")
    | Sync | Ack | Data | Dataquery | Query | State | Close -> ())
  | SEstablished | SClosing -> (
    match p.p_ty with
    | Data ->
      process_ack c p.p_ack;
      handle_data c p
    | Dataquery ->
      process_ack c p.p_ack;
      handle_data c p;
      xmit c State ~id:(c.next - 1) ()
    | Ack -> process_ack c p.p_ack
    | Query ->
      (* the query carries the peer's sequence state; answer with ours *)
      process_ack c p.p_ack;
      xmit c State ~id:(c.next - 1) ()
    | State ->
      process_ack c p.p_ack;
      (* only now do we learn what the peer is missing: resend exactly
         that — never blind retransmission *)
      retransmit_missing c p.p_ack
    | Sync ->
      (* our establishing ack was lost *)
      if p.p_id = c.rstart then send_ack_now c
    | Close ->
      process_ack c p.p_ack;
      if p.p_id > c.recvd then c.recvd <- p.p_id;
      if not c.close_sent then begin
        c.close_sent <- true;
        let id = c.next in
        c.next <- c.next + 1;
        xmit c Close ~id ()
      end;
      destroy c None
    | Reset ->
      c.stack.stats.resets <- c.stack.stats.resets + 1;
      c.cstats.resets <- c.cstats.resets + 1;
      destroy c (Some "reset"))

let send_reset st ~dst ~sport ~dport ~id =
  raw_output st ~dst (encode ~ty:Reset ~sport ~dport ~id ~ack:id "" 0 0)

let new_isn st =
  1 + Random.State.int (Sim.Engine.random st.eng) 0xffffff

let make_conv st ~lport ~rport ~raddr ~state ~start ~rstart =
  let c =
    {
      cid = st.next_cid;
      stack = st;
      lport;
      rport;
      raddr;
      cstats =
        {
          msgs_sent = 0;
          msgs_rcvd = 0;
          bytes_sent = 0;
          bytes_rcvd = 0;
          retransmits = 0;
          retransmitted_bytes = 0;
          queries_sent = 0;
          dups_dropped = 0;
          out_of_window = 0;
          resets = 0;
          rtt_samples = 0;
        };
      state;
      start;
      next = start + 1;
      rstart;
      recvd = rstart;
      unacked = Queue.create ();
      oow = [];
      rq = Block.Q.create st.eng;
      wwait = Sim.Rendez.create st.eng;
      estwait = Sim.Rendez.create st.eng;
      srtt = 0.;
      mdev = 0.;
      backoff = 0;
      rexmit_tmr = Sim.Time.timer ~label:"il" st.eng;
      death_tmr = Sim.Time.timer ~label:"il" st.eng;
      death_at = Sim.Engine.now st.eng +. st.cfg.death_time;
      ack_tmr = Sim.Time.timer ~label:"il" st.eng;
      rtt_id = 0;
      rtt_sent_at = 0.;
      err = None;
      close_sent = false;
      lis = None;
    }
  in
  st.next_cid <- st.next_cid + 1;
  Hashtbl.replace st.convs (conv_key c) c;
  Sim.Time.arm_at c.death_tmr c.death_at (fun () -> death_fire c);
  (match Sim.Engine.obs st.eng with
  | None -> ()
  | Some tr ->
    Obs.Trace.emit tr
      (Obs.Event.Proto_state
         { proto = "il"; conv = c.cid; from_ = "Closed"; to_ = state_str state }));
  c

let input st ~src:sa ~dst:_ (pkt : Block.t) =
  match decode pkt with
  | None -> (
    match Sim.Engine.obs st.eng with
    | None -> ()
    | Some tr ->
      if
        Block.len pkt >= header_len
        && not (Chksum.valid_sub pkt.Block.buf pkt.Block.rp (Block.len pkt))
      then begin
        Obs.Trace.emit tr (Obs.Event.Checksum_err { proto = "il" });
        Obs.Trace.bump tr "il.badsum" 1
      end)
  | Some p -> (
    match
      Hashtbl.find_opt st.convs (p.p_dport, p.p_sport, Ipaddr.to_int32 sa)
    with
    | Some c -> handle_packet c p
    | None -> (
      match (p.p_ty, Hashtbl.find_opt st.listeners p.p_dport) with
      | Sync, Some lis when lis.lis_open ->
        if lis.lis_pending + Sim.Mbox.length lis.accepts >= lis.backlog
        then begin
          (* backlog full: refuse rather than wedge — the caller sees a
             clean "connection refused" and may redial *)
          lis.refused <- lis.refused + 1;
          st.refusals <- st.refusals + 1;
          (match Sim.Engine.obs st.eng with
          | None -> ()
          | Some tr -> Obs.Trace.bump tr "il.backlog_refused" 1);
          send_reset st ~dst:sa ~sport:p.p_dport ~dport:p.p_sport ~id:p.p_id
        end
        else begin
          let c =
            make_conv st ~lport:p.p_dport ~rport:p.p_sport ~raddr:sa
              ~state:SSyncee ~start:(new_isn st) ~rstart:p.p_id
          in
          c.lis <- Some lis;
          lis.lis_pending <- lis.lis_pending + 1;
          arm_timer c;
          xmit c Sync ~id:c.start ()
        end
      | Reset, _ -> ()
      | (Sync | Data | Dataquery | Ack | Query | State | Close), _ ->
        send_reset st ~dst:sa ~sport:p.p_dport ~dport:p.p_sport ~id:p.p_id))

let attach ?(config = default_config) ip =
  let eng = Ip.engine ip in
  let st =
    {
      eng;
      ip;
      cfg = config;
      convs = Hashtbl.create 31;
      listeners = Hashtbl.create 7;
      next_port = 5000;
      next_cid = 0;
      refusals = 0;
      stats =
        {
          msgs_sent = 0;
          msgs_rcvd = 0;
          bytes_sent = 0;
          bytes_rcvd = 0;
          retransmits = 0;
          retransmitted_bytes = 0;
          queries_sent = 0;
          dups_dropped = 0;
          out_of_window = 0;
          resets = 0;
          rtt_samples = 0;
        };
    }
  in
  Ip.register_proto ip ~proto:Ip.proto_il (fun ~src ~dst pkt ->
      match config.cpu with
      | None -> input st ~src ~dst pkt
      | Some cpu ->
        let cost =
          config.cost_per_msg
          +. (config.cost_per_byte *. float_of_int (Block.len pkt))
        in
        Sim.Cpu.run_after ~label:"il" cpu cost (fun () -> input st ~src ~dst pkt));
  st

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
    | Some tr -> Obs.Span.enter tr ~layer:"il" "il.connect"
  in
  let fin () =
    match Sim.Engine.obs st.eng with
    | None -> ()
    | Some tr -> Obs.Span.exit tr sp
  in
  let c =
    make_conv st ~lport ~rport ~raddr ~state:SSyncer ~start:(new_isn st)
      ~rstart:0
  in
  c.recvd <- 0;
  arm_timer c;
  xmit c Sync ~id:c.start ();
  while c.state = SSyncer do
    Sim.Rendez.sleep c.estwait
  done;
  (match (c.state, c.err) with
  | SEstablished, _ -> fin ()
  | _, Some "connect timed out" ->
    fin ();
    raise (Timeout "il connect")
  | _, Some reason ->
    fin ();
    raise (Refused reason)
  | _, None ->
    fin ();
    raise (Refused "closed"));
  c

let default_backlog = 16

let announce ?(backlog = default_backlog) st ~port =
  if Hashtbl.mem st.listeners port then
    invalid_arg (Printf.sprintf "Il.announce: port %d in use" port);
  let lis =
    { lstack = st; lis_port = port; accepts = Sim.Mbox.create st.eng;
      lis_open = true; backlog = max 1 backlog; lis_pending = 0;
      refused = 0 }
  in
  Hashtbl.replace st.listeners port lis;
  lis

let listen lis = Sim.Mbox.recv lis.accepts
let set_backlog lis n = lis.backlog <- max 1 n
let backlog lis = lis.backlog
let queued lis = lis.lis_pending + Sim.Mbox.length lis.accepts
let refused lis = lis.refused
let refusals st = st.refusals
let conv_count st = Hashtbl.length st.convs

let close_listener lis =
  lis.lis_open <- false;
  Hashtbl.remove lis.lstack.listeners lis.lis_port

let write c data =
  (match c.state with
  | SEstablished -> ()
  | SClosed | SClosing | SSyncer | SSyncee -> raise Hungup);
  while
    c.state = SEstablished
    && Queue.length c.unacked >= c.stack.cfg.window
  do
    Sim.Rendez.sleep c.wwait
  done;
  if c.state <> SEstablished then raise Hungup;
  let id = c.next in
  c.next <- id + 1;
  c.stack.stats.msgs_sent <- c.stack.stats.msgs_sent + 1;
  c.stack.stats.bytes_sent <- c.stack.stats.bytes_sent + String.length data;
  c.cstats.msgs_sent <- c.cstats.msgs_sent + 1;
  c.cstats.bytes_sent <- c.cstats.bytes_sent + String.length data;
  if c.rtt_id = 0 then begin
    c.rtt_id <- id;
    c.rtt_sent_at <- Sim.Engine.now c.stack.eng
  end;
  if not (Sim.Time.armed c.rexmit_tmr) then begin
    arm_timer c;
    arm_death c
  end;
  (* an ack for the message can only arrive on a later event, so
     queueing it after the send is in time *)
  Queue.push (id, xmit_data c Data ~id data 0 (String.length data)) c.unacked

let read c n = Block.Q.read c.rq n

let read_msg c =
  match Block.Q.get c.rq with
  | Some b -> Some (Block.to_string b)
  | None -> None

let close c =
  match c.state with
  | SClosed -> ()
  | SSyncer | SSyncee -> destroy c None
  | SClosing -> ()
  | SEstablished ->
    set_state c SClosing;
    c.close_sent <- true;
    let id = c.next in
    c.next <- id + 1;
    xmit c Close ~id ();
    arm_timer c;
    arm_death c;
    (* the peer's Close (handled above) destroys the conversation;
       don't block the closer — Plan 9's close doesn't linger *)
    ()

let _ = ignore Log.debug
