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

type priv = { eng : Sim.Engine.t; cfg : config; stats : counters }

type conv = {
  ep : (conv, priv) Conv.ep;
  pv : priv;
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
  mutable srtt : float;
  mutable mdev : float;
  mutable backoff : int;
  mutable rexmit_tmr : Sim.Time.timer;  (* disarmed = nothing to resend *)
  mutable ack_tmr : Sim.Time.timer;  (* delayed ack, armed = ack owed *)
  mutable rtt_id : int;  (* message being timed, 0 = none *)
  mutable rtt_sent_at : float;
  mutable close_sent : bool;
}

type stack = (conv, priv) Conv.stack
type listener = (conv, priv) Conv.listener

let counters st = (Conv.priv st).stats

let state_str = function
  | SClosed -> "Closed"
  | SSyncer -> "Syncer"
  | SSyncee -> "Syncee"
  | SEstablished -> "Established"
  | SClosing -> "Closing"

let phase = function
  | SClosed -> Conv.Closed
  | SSyncer | SSyncee -> Conv.Opening
  | SEstablished -> Conv.Open
  | SClosing -> Conv.Closing

let status c =
  Printf.sprintf
    "il/%d %d %s sent %d rcvd %d unacked %d window %d rexmit %d rtt %.0fms"
    c.ep.cid c.ep.lport (state_str c.state) (c.next - c.start - 1)
    (c.recvd - c.rstart) (Queue.length c.unacked) c.pv.cfg.window
    c.cstats.retransmits (c.srtt *. 1000.)

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
    Conv.trace_state c.ep ~from_:(state_str c.state) ~to_:(state_str s);
    c.state <- s;
    c.ep.phase <- phase s
  end

(* ---- wire format ---- *)

(* One buffer per message: IP's headroom, then our header, then [len]
   bytes of [data] from [off].  The buffer goes to [Ip.send] as is. *)
let encode ~ty ~sport ~dport ~id ~ack data off len =
  let o = Ip.header_len in
  let mlen = header_len + len in
  let b = Bytes.create (o + mlen) in
  Ip.put16 b o 0;
  Ip.put16 b (o + 2) mlen;
  Bytes.set b (o + 4) (Char.chr (type_code ty));
  Bytes.set b (o + 5) '\000';
  Ip.put16 b (o + 6) sport;
  Ip.put16 b (o + 8) dport;
  Ip.put32 b (o + 10) id;
  Ip.put32 b (o + 14) ack;
  Bytes.blit_string data off b (o + header_len) len;
  (* the sum reads through a view that dies with the call *)
  let sum = Chksum.finish (Chksum.ones_sum (Bytes.unsafe_to_string b) o mlen) in
  Ip.put16 b o sum;
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
  else if Ip.get16 s (o + 2) <> n then None
  else
    match type_of_code (Char.code s.[o + 4]) with
    | None -> None
    | Some ty ->
      Block.consume pkt header_len;
      Some
        {
          p_ty = ty;
          p_sport = Ip.get16 s (o + 6);
          p_dport = Ip.get16 s (o + 8);
          p_id = Ip.get32 s (o + 10);
          p_ack = Ip.get32 s (o + 14);
          p_data = pkt;
        }

(* ---- output ---- *)

(* encode and send one message carrying [len] bytes of [data] from
   [off]; the result is the buffer handed to IP, which nobody writes
   again *)
let xmit_data c ty ~id data off len =
  (* every outgoing message acknowledges what we have received *)
  if ty = Data || ty = Ack then Sim.Time.disarm c.ack_tmr;
  let buf =
    encode ~ty ~sport:c.ep.lport ~dport:c.ep.rport ~id ~ack:c.recvd data off len
  in
  Conv.output c.ep.stack ~dst:c.ep.raddr buf;
  Bytes.unsafe_to_string buf

let xmit c ty ~id () = ignore (xmit_data c ty ~id "" 0 0)

let rto c =
  let t = c.srtt +. (4. *. c.mdev) in
  let t = t *. float_of_int (1 lsl min c.backoff 6) in
  min c.pv.cfg.max_timeout (max c.pv.cfg.min_timeout t)

(* ---- teardown ---- *)

let destroy c reason =
  if c.state <> SClosed then begin
    set_state c SClosed;
    Sim.Time.disarm c.rexmit_tmr;
    Sim.Time.disarm c.ack_tmr;
    Conv.hangup c.ep reason
  end

let arm_death c = Conv.arm_death c.ep

(* work outstanding: unacked messages or an unanswered Close *)
let busy c = (not (Queue.is_empty c.unacked)) || c.state = SClosing

(* ---- per-conversation timers ----

   There is no protocol ticker: each conversation arms exactly the
   deadlines it needs on the engine heap and disarms them when the work
   is acknowledged, so an idle conversation schedules nothing at all. *)

let arm_timer c =
  Sim.Time.arm_at c.rexmit_tmr (Sim.Engine.now c.pv.eng +. rto c)

let rexmit_fire c =
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
        c.pv.stats.queries_sent <- c.pv.stats.queries_sent + 1;
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

(* ---- rtt ---- *)

let rtt_sample c sample =
  c.pv.stats.rtt_samples <- c.pv.stats.rtt_samples + 1;
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
      rtt_sample c (Sim.Engine.now c.pv.eng -. c.rtt_sent_at);
      c.rtt_id <- 0
    end;
    c.backoff <- 0;
    arm_death c;
    if Queue.is_empty c.unacked then Sim.Time.disarm c.rexmit_tmr
    else arm_timer c;
    Sim.Rendez.wakeup_all c.ep.wwait
  end

(* ---- receive path ---- *)

(* the payload view itself is queued: one message, one block *)
let deliver c (data : Block.t) =
  let n = Block.len data in
  c.pv.stats.msgs_rcvd <- c.pv.stats.msgs_rcvd + 1;
  c.pv.stats.bytes_rcvd <- c.pv.stats.bytes_rcvd + n;
  c.cstats.msgs_rcvd <- c.cstats.msgs_rcvd + 1;
  c.cstats.bytes_rcvd <- c.cstats.bytes_rcvd + n;
  data.Block.delim <- true;
  Block.Q.force_put c.ep.rq data

let send_ack_now c = xmit c Ack ~id:(c.next - 1) ()

let schedule_ack c =
  if not (Sim.Time.armed c.ack_tmr) then
    Sim.Time.arm c.ack_tmr c.pv.cfg.ack_delay

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
    c.pv.stats.dups_dropped <- c.pv.stats.dups_dropped + 1;
    c.cstats.dups_dropped <- c.cstats.dups_dropped + 1;
    (* a duplicate usually means our ack was lost: re-ack at once *)
    send_ack_now c
  end
  else if p.p_id - c.recvd <= c.pv.cfg.window then begin
    if List.mem_assoc p.p_id c.oow then begin
      (* a duplicate of a message already buffered out of order: it
         must not be delivered again when the gap fills *)
      c.pv.stats.dups_dropped <- c.pv.stats.dups_dropped + 1;
      c.cstats.dups_dropped <- c.cstats.dups_dropped + 1
    end
    else
      c.oow <-
        List.sort (fun (a, _) (b, _) -> compare a b) ((p.p_id, p.p_data) :: c.oow);
    (* a gap means a message was lost: volunteer our sequence state so
       the sender can resend the missing one without waiting for its
       query timer (the timer remains the backstop) *)
    let buffered = List.length c.oow in
    if c.pv.cfg.fast_recovery && (buffered = 1 || buffered mod 8 = 0)
    then xmit c State ~id:(c.next - 1) ()
    else schedule_ack c
  end
  else begin
    c.pv.stats.out_of_window <- c.pv.stats.out_of_window + 1;
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
    c.pv.stats.retransmits <- c.pv.stats.retransmits + 1;
    c.pv.stats.retransmitted_bytes <-
      c.pv.stats.retransmitted_bytes + len;
    c.cstats.retransmits <- c.cstats.retransmits + 1;
    c.cstats.retransmitted_bytes <- c.cstats.retransmitted_bytes + len;
    (match Sim.Engine.obs c.pv.eng with
    | None -> ()
    | Some tr ->
      Obs.Trace.emit tr
        (Obs.Event.Retransmit { proto = "il"; conv = c.ep.cid; id; bytes = len });
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
      Conv.established c.ep c
    | Reset -> destroy c (Some "connection refused")
    | Sync | Data | Dataquery | Ack | Query | State | Close -> ())
  | SSyncee -> (
    match p.p_ty with
    | (Ack | Data | Dataquery) when p.p_ack >= c.start ->
      set_state c SEstablished;
      Sim.Time.disarm c.rexmit_tmr;
      c.backoff <- 0;
      arm_death c;
      Conv.established c.ep c;
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
      c.pv.stats.resets <- c.pv.stats.resets + 1;
      c.cstats.resets <- c.cstats.resets + 1;
      destroy c (Some "reset"))

let send_reset st ~dst ~sport ~dport ~id =
  Conv.output st ~dst (encode ~ty:Reset ~sport ~dport ~id ~ack:id "" 0 0)

let new_isn st =
  1 + Random.State.int (Sim.Engine.random (Conv.engine st)) 0xffffff

let zero_counters () =
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
  }

let make_conv ?lis st ~lport ~rport ~raddr ~state ~start ~rstart =
  let pv = Conv.priv st in
  let c =
    {
      ep = Conv.make ?lis st ~lport ~rport ~raddr (phase state);
      pv;
      cstats = zero_counters ();
      state;
      start;
      next = start + 1;
      rstart;
      recvd = rstart;
      unacked = Queue.create ();
      oow = [];
      srtt = 0.;
      mdev = 0.;
      backoff = 0;
      rexmit_tmr = Sim.Time.none;
      ack_tmr = Sim.Time.none;
      rtt_id = 0;
      rtt_sent_at = 0.;
      close_sent = false;
    }
  in
  c.rexmit_tmr <- Sim.Time.timer ~label:"il" pv.eng (fun () -> rexmit_fire c);
  c.ack_tmr <- Sim.Time.timer ~label:"il" pv.eng (fun () -> send_ack_now c);
  Conv.opened c.ep c ~state:(state_str state);
  c

let input st ~src:sa (pkt : Block.t) =
  match decode pkt with
  | None -> Conv.badsum st pkt ~header_len
  | Some p -> (
    match Conv.find st ~lport:p.p_dport ~rport:p.p_sport ~raddr:sa with
    | Some c -> handle_packet c p
    | None -> (
      match (p.p_ty, Conv.listener st p.p_dport) with
      | Sync, Some lis ->
        if Conv.admit lis then begin
          let c =
            make_conv ~lis st ~lport:p.p_dport ~rport:p.p_sport ~raddr:sa
              ~state:SSyncee ~start:(new_isn st) ~rstart:p.p_id
          in
          arm_timer c;
          xmit c Sync ~id:c.start ()
        end
        else
          (* the caller sees a clean "connection refused" *)
          send_reset st ~dst:sa ~sport:p.p_dport ~dport:p.p_sport ~id:p.p_id
      | Reset, _ -> ()
      | (Sync | Data | Dataquery | Ack | Query | State | Close), _ ->
        send_reset st ~dst:sa ~sport:p.p_dport ~dport:p.p_sport ~id:p.p_id))

(* the active open *)
let start st ~lport ~raddr ~rport =
  let c =
    make_conv st ~lport ~rport ~raddr ~state:SSyncer ~start:(new_isn st)
      ~rstart:0
  in
  c.recvd <- 0;
  arm_timer c;
  xmit c Sync ~id:c.start ();
  c

let write c data =
  (match c.state with
  | SEstablished -> ()
  | SClosed | SClosing | SSyncer | SSyncee -> raise Conv.Hungup);
  while
    c.state = SEstablished
    && Queue.length c.unacked >= c.pv.cfg.window
  do
    Sim.Rendez.sleep c.ep.wwait
  done;
  if c.state <> SEstablished then raise Conv.Hungup;
  let id = c.next in
  c.next <- id + 1;
  c.pv.stats.msgs_sent <- c.pv.stats.msgs_sent + 1;
  c.pv.stats.bytes_sent <- c.pv.stats.bytes_sent + String.length data;
  c.cstats.msgs_sent <- c.cstats.msgs_sent + 1;
  c.cstats.bytes_sent <- c.cstats.bytes_sent + String.length data;
  if c.rtt_id = 0 then begin
    c.rtt_id <- id;
    c.rtt_sent_at <- Sim.Engine.now c.pv.eng
  end;
  if not (Sim.Time.armed c.rexmit_tmr) then begin
    arm_timer c;
    arm_death c
  end;
  (* an ack for the message can only arrive on a later event, so
     queueing it after the send is in time *)
  Queue.push (id, xmit_data c Data ~id data 0 (String.length data)) c.unacked

let read c n = Conv.read c.ep n

let read_msg c =
  match Block.Q.get c.ep.rq with
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

let attach ?(config = default_config) ip =
  Conv.create ip ~name:"il" ~ipproto:Ip.proto_il ~death_time:config.death_time
    ~cpu:config.cpu ~cost_per_msg:config.cost_per_msg
    ~cost_per_byte:config.cost_per_byte
    ~priv:{ eng = Ip.engine ip; cfg = config; stats = zero_counters () }
    {
      ep = (fun c -> c.ep);
      input;
      start;
      read;
      write;
      close;
      status;
      stats = conv_stats;
      busy;
      abort = destroy;
    }

let connect = Conv.connect
let announce = Conv.announce
let refusals = Conv.refusals
let conv_count = Conv.conv_count

