let header_len = 20
let flag_fin = 1
let flag_syn = 2
let flag_rst = 4
let flag_ack = 16

type config = {
  mss : int;
  send_window : int;
  recv_window : int;
  min_rto : float;
  max_rto : float;
  death_time : float;
  cpu : Sim.Cpu.t option;
  cost_per_seg : float;
  cost_per_byte : float;
}

let default_config =
  {
    mss = 1460;
    send_window = 8 * 1460;
    recv_window = 64 * 1024;
    min_rto = 0.1;
    max_rto = 8.0;
    death_time = 60.0;
    cpu = None;
    cost_per_seg = 0.;
    cost_per_byte = 0.;
  }

type counters = {
  mutable segs_sent : int;
  mutable segs_rcvd : int;
  mutable bytes_sent : int;
  mutable bytes_rcvd : int;
  mutable retransmits : int;
  mutable retransmitted_bytes : int;
  mutable out_of_order_dropped : int;
  mutable dups_dropped : int;
  mutable resets : int;
  mutable fast_retransmits : int;  (* tcpcc: 3-dup-ack retransmits *)
  mutable persist_probes : int;  (* zero-window probes sent *)
}

type tstate =
  | TClosed
  | TSynSent
  | TSynRcvd
  | TEstablished
  | TFinWait1
  | TFinWait2
  | TCloseWait
  | TLastAck
  | TTimeWait

type priv = {
  eng : Sim.Engine.t;
  pname : string;  (* "tcp" or "tcpcc": /net dir, Obs event tag *)
  cc : bool;  (* congestion machinery enabled *)
  cfg : config;
  stats : counters;
}

type conv = {
  ep : (conv, priv) Conv.ep;
  pv : priv;
  cstats : counters;  (* per-conversation mirror of the stack counters *)
  mutable state : tstate;
  mutable iss : int;  (* initial send sequence *)
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable snd_wnd : int;  (* peer-advertised window *)
  mutable irs : int;
  mutable rcv_nxt : int;
  (* bytes from snd_una onward: retransmittable + unsent *)
  txbuf : Buffer.t;
  mutable tx_base : int;  (* sequence number of txbuf byte 0 *)
  mutable fin_queued : bool;
  mutable srtt : float;
  mutable mdev : float;
  mutable backoff : int;
  mutable rexmit_tmr : Sim.Time.timer;  (* disarmed = nothing outstanding *)
  mutable rtt_seq : int;  (* sequence being timed; 0 = none *)
  mutable rtt_sent_at : float;
  mutable retransmitting : bool;  (* Karn: don't time retransmitted data *)
  (* congestion control (tcpcc only; inert on the baseline proto) *)
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable dupacks : int;  (* consecutive duplicate acks at snd_una *)
  mutable recover : int;  (* snd_nxt at loss; fast recovery ends past it *)
  mutable in_recovery : bool;
  mutable ooo : (int * Block.t) list;
      (* out-of-order reassembly, (seq, data) sorted by seq — tcpcc
         only.  The baseline receiver drops anything not at rcv_nxt,
         which is what makes its sender's go-back-N necessary *)
  (* zero-window persist state (both protos) *)
  mutable persist_tmr : Sim.Time.timer;
  mutable persist_backoff : int;
}

type stack = (conv, priv) Conv.stack
type listener = (conv, priv) Conv.listener

let counters st = (Conv.priv st).stats

let state_str = function
  | TClosed -> "Closed"
  | TSynSent -> "Syn_sent"
  | TSynRcvd -> "Syn_received"
  | TEstablished -> "Established"
  | TFinWait1 -> "Finwait1"
  | TFinWait2 -> "Finwait2"
  | TCloseWait -> "Close_wait"
  | TLastAck -> "Last_ack"
  | TTimeWait -> "Time_wait"

let phase = function
  | TClosed -> Conv.Closed
  | TSynSent | TSynRcvd -> Conv.Opening
  | TEstablished -> Conv.Open
  | TFinWait1 | TFinWait2 | TCloseWait | TLastAck | TTimeWait -> Conv.Closing

(* the sender-side recovery state, surfaced in status/stats *)
let recovery_str c =
  if Sim.Time.armed c.persist_tmr then "Persist"
  else if c.in_recovery then "Recovery"
  else "Open"

let status c =
  let base =
    Printf.sprintf "%s/%d %d %s una %d nxt %d rcv %d rexmit %d rtt %.0fms"
      c.pv.pname c.ep.cid c.ep.lport (state_str c.state) c.snd_una c.snd_nxt
      c.rcv_nxt
      c.cstats.retransmits (c.srtt *. 1000.)
  in
  if c.pv.cc then
    base
    ^ Printf.sprintf " cwnd %d ssthresh %d %s" c.cwnd c.ssthresh
        (recovery_str c)
  else base

let conv_stats c =
  let s = c.cstats in
  String.concat "\n"
    ([
       Printf.sprintf "segs_sent %d" s.segs_sent;
       Printf.sprintf "segs_rcvd %d" s.segs_rcvd;
       Printf.sprintf "bytes_sent %d" s.bytes_sent;
       Printf.sprintf "bytes_rcvd %d" s.bytes_rcvd;
       Printf.sprintf "retransmits %d" s.retransmits;
       Printf.sprintf "retransmitted_bytes %d" s.retransmitted_bytes;
       Printf.sprintf "out_of_order_dropped %d" s.out_of_order_dropped;
       Printf.sprintf "dups_dropped %d" s.dups_dropped;
       Printf.sprintf "resets %d" s.resets;
       Printf.sprintf "rtt_ms %.3f" (c.srtt *. 1000.);
     ]
    @
    if c.pv.cc then
      [
        Printf.sprintf "cwnd %d" c.cwnd;
        Printf.sprintf "ssthresh %d" c.ssthresh;
        Printf.sprintf "fast_retransmits %d" s.fast_retransmits;
        Printf.sprintf "persist_probes %d" s.persist_probes;
        Printf.sprintf "recovery %s" (recovery_str c);
      ]
    else [])
  ^ "\n"

let cwnd c = c.cwnd

(* state transitions are traced; every change funnels through here *)
let set_state c s =
  if c.state <> s then begin
    Conv.trace_state c.ep ~from_:(state_str c.state) ~to_:(state_str s);
    c.state <- s;
    c.ep.phase <- phase s
  end

(* ---- wire format ---- *)

(* One buffer per segment: IP's headroom, our header, then [len] bytes
   of the send buffer [data] from [off].  The buffer goes to [Ip.send]
   as is. *)
let encode_buf ~sport ~dport ~seq ~ack ~flags ~window data off len =
  let o = Ip.header_len in
  let slen = header_len + len in
  let b = Bytes.create (o + slen) in
  Ip.put16 b o sport;
  Ip.put16 b (o + 2) dport;
  Ip.put32 b (o + 4) seq;
  Ip.put32 b (o + 8) ack;
  Ip.put16 b (o + 12) ((5 lsl 12) lor flags);
  Ip.put16 b (o + 14) window;
  Ip.put16 b (o + 16) 0;
  Ip.put16 b (o + 18) 0;
  Buffer.blit data off b (o + header_len) len;
  (* the sum reads through a view that dies with the call *)
  let sum = Chksum.finish (Chksum.ones_sum (Bytes.unsafe_to_string b) o slen) in
  Ip.put16 b (o + 16) sum;
  b

type segment = {
  s_sport : int;
  s_dport : int;
  s_seq : int;
  s_ack : int;
  s_flags : int;
  s_window : int;
  s_data : Block.t;  (* the datagram's own view, advanced past our header *)
}

(* checked and parsed in place over the received frame *)
let decode_view (pkt : Block.t) =
  let s = pkt.Block.buf and o = pkt.Block.rp and n = Block.len pkt in
  if n < header_len then None
  else if not (Chksum.valid_sub s o n) then None
  else
    let off_flags = Ip.get16 s (o + 12) in
    let data_off = (off_flags lsr 12) * 4 in
    if data_off < header_len || data_off > n then None
    else begin
      Block.consume pkt data_off;
      Some
        {
          s_sport = Ip.get16 s o;
          s_dport = Ip.get16 s (o + 2);
          s_seq = Ip.get32 s (o + 4);
          s_ack = Ip.get32 s (o + 8);
          s_flags = off_flags land 0x3f;
          s_window = Ip.get16 s (o + 14);
          s_data = pkt;
        }
    end

let encode ~sport ~dport ~seq ~ack ~flags ~window data =
  let n = String.length data in
  let b = Buffer.create n in
  Buffer.add_string b data;
  let buf = encode_buf ~sport ~dport ~seq ~ack ~flags ~window b 0 n in
  Bytes.sub_string buf Ip.header_len (Bytes.length buf - Ip.header_len)

let decode s = decode_view (Block.make s)

(* ---- output ---- *)

let recv_window c =
  let w = max 0 (c.pv.cfg.recv_window - Block.Q.bytes c.ep.rq) in
  (* the wire field is 16 bits, so the default 64 KiB buffer wraps to an
     advertised window of 0 whenever the receive queue is empty.  The
     baseline keeps that wart (its sender's one-MSS floor masks it, and
     the pinned goldens encode the resulting schedule); tcpcc clamps so
     an advertised 0 genuinely means "stop" *)
  if c.pv.cc then min 0xffff w else w

(* send a segment carrying [len] bytes of the send buffer from [seq]
   (none for a bare control segment) *)
let xmit c ~seq ~flags len =
  c.pv.stats.segs_sent <- c.pv.stats.segs_sent + 1;
  c.cstats.segs_sent <- c.cstats.segs_sent + 1;
  Conv.output c.ep.stack ~dst:c.ep.raddr
    (encode_buf ~sport:c.ep.lport ~dport:c.ep.rport ~seq ~ack:c.rcv_nxt
       ~flags:(flags lor flag_ack) ~window:(recv_window c) c.txbuf
       (if len = 0 then 0 else seq - c.tx_base)
       len)

(* the very first SYN carries no ACK — there is nothing to acknowledge *)
let xmit_initial_syn c =
  c.pv.stats.segs_sent <- c.pv.stats.segs_sent + 1;
  c.cstats.segs_sent <- c.cstats.segs_sent + 1;
  Conv.output c.ep.stack ~dst:c.ep.raddr
    (encode_buf ~sport:c.ep.lport ~dport:c.ep.rport ~seq:c.iss ~ack:0
       ~flags:flag_syn
       ~window:(recv_window c) c.txbuf 0 0)

let rto c =
  let t = if c.srtt = 0. then 0.5 else c.srtt +. (4. *. c.mdev) in
  if c.pv.cc then
    (* backoff exponentiates the clamped base.  The baseline multiplies
       the raw srtt term first, so a stale few-millisecond estimate caps
       the backed-off RTO at srtt * 64 — half a second against a queue
       seconds deep, and Karn's rule keeps srtt stale for as long as the
       retransmissions it causes continue: the RTO can never climb out
       of the collapse it is feeding *)
    min c.pv.cfg.max_rto
      ((max c.pv.cfg.min_rto t) *. float_of_int (1 lsl min c.backoff 6))
  else
    let t = t *. float_of_int (1 lsl min c.backoff 6) in
    min c.pv.cfg.max_rto (max c.pv.cfg.min_rto t)

let destroy c reason =
  if c.state <> TClosed then begin
    set_state c TClosed;
    Sim.Time.disarm c.rexmit_tmr;
    Sim.Time.disarm c.persist_tmr;
    c.ooo <- [];
    Conv.hangup c.ep reason
  end

let arm_death c = Conv.arm_death c.ep

(* work outstanding: sent bytes (or a FIN) not yet acknowledged *)
let busy c = c.snd_una < c.snd_nxt

(* ---- sending machinery and per-conversation timers ----

   There is no protocol ticker: every conversation arms exactly the
   deadlines it needs on the engine heap and disarms them when the data
   is acknowledged, so an idle conversation schedules nothing.

   Bytes [snd_una, tx_base + len txbuf) are retransmittable; bytes
   [snd_nxt, ...) are yet unsent.  The txbuf is compacted as acks
   arrive. *)

let tx_limit c =
  (* under tcpcc an advertised zero window really closes the pipe (the
     persist timer probes it open again) and a small nonzero window
     still floors at one MSS; the baseline floors unconditionally — a
     receiver's 0 never quenches it, which is part of the blind
     behaviour the goldens pin *)
  let wnd =
    if c.pv.cc && c.snd_wnd = 0 then 0 else max c.snd_wnd c.pv.cfg.mss
  in
  let wnd = if c.pv.cc then min wnd c.cwnd else wnd in
  min c.pv.cfg.send_window wnd

let fin_seq c = c.tx_base + Buffer.length c.txbuf

let emit_retransmit c ~seq ~bytes =
  match Sim.Engine.obs c.pv.eng with
  | None -> ()
  | Some tr ->
    Obs.Trace.emit tr
      (Obs.Event.Retransmit
         { proto = c.pv.pname; conv = c.ep.cid; id = seq; bytes });
    Obs.Trace.bump tr (c.pv.pname ^ ".retransmits") 1

let bump_counter c name n =
  match Sim.Engine.obs c.pv.eng with
  | None -> ()
  | Some tr -> Obs.Trace.bump tr (c.pv.pname ^ "." ^ name) n

let rec arm_rto c =
  Sim.Time.arm_at c.rexmit_tmr (Sim.Engine.now c.pv.eng +. rto c)

and rto_fire c =
  match c.state with
  | TClosed -> ()
  | TSynSent ->
    c.backoff <- c.backoff + 1;
    xmit_initial_syn c;
    arm_rto c
  | TSynRcvd ->
    c.backoff <- c.backoff + 1;
    xmit c ~seq:c.iss ~flags:flag_syn 0;
    arm_rto c
  | TEstablished | TFinWait1 | TFinWait2 | TCloseWait | TLastAck
  | TTimeWait ->
    if c.snd_una < c.snd_nxt then
      if c.pv.cc then begin
        (* congestion-controlled timeout: multiplicative decrease and a
           slow-start restart, resending only the head-of-window
           segment — never the whole window blindly *)
        let inflight = c.snd_nxt - c.snd_una in
        c.ssthresh <- max (2 * c.pv.cfg.mss) (inflight / 2);
        c.cwnd <- c.pv.cfg.mss;
        c.in_recovery <- false;
        c.dupacks <- 0;
        bump_counter c "cwnd_reset" 1;
        retransmit_head c;
        c.backoff <- c.backoff + 1;
        arm_rto c
      end
      else retransmit_all c

and push_segments c =
  (* send any unsent bytes that fit in the window *)
  let continue_ = ref true in
  while !continue_ do
    let unsent = c.tx_base + Buffer.length c.txbuf - c.snd_nxt in
    let inflight = c.snd_nxt - c.snd_una in
    let room = tx_limit c - inflight in
    let take = min (min unsent room) c.pv.cfg.mss in
    if take > 0 then begin
      if c.rtt_seq = 0 && not c.retransmitting then begin
        c.rtt_seq <- c.snd_nxt + take;
        c.rtt_sent_at <- Sim.Engine.now c.pv.eng
      end;
      c.pv.stats.bytes_sent <- c.pv.stats.bytes_sent + take;
      c.cstats.bytes_sent <- c.cstats.bytes_sent + take;
      xmit c ~seq:c.snd_nxt ~flags:0 take;
      c.snd_nxt <- c.snd_nxt + take;
      if not (Sim.Time.armed c.rexmit_tmr) then begin
        arm_rto c;
        arm_death c
      end
    end
    else begin
      continue_ := false;
      (* a queued FIN goes out once all data is sent *)
      if
        c.fin_queued && unsent = 0
        && c.snd_nxt = fin_seq c
        && (c.state = TFinWait1 || c.state = TLastAck)
      then begin
        xmit c ~seq:c.snd_nxt ~flags:flag_fin 0;
        c.snd_nxt <- c.snd_nxt + 1;
        if not (Sim.Time.armed c.rexmit_tmr) then arm_rto c
      end
      else if
        (* zero-window sender state: data waiting, nothing in flight,
           peer advertised 0 — only the persist probe may touch the
           wire until the window reopens *)
        c.pv.cc && unsent > 0
        && c.snd_wnd = 0
        && c.snd_una = c.snd_nxt
        && not (Sim.Time.armed c.persist_tmr)
      then arm_persist c
    end
  done

and persist_interval c =
  let t = 0.5 *. float_of_int (1 lsl min c.persist_backoff 6) in
  min c.pv.cfg.max_rto (max c.pv.cfg.min_rto t)

and arm_persist c =
  Sim.Time.arm_at c.persist_tmr (Sim.Engine.now c.pv.eng +. persist_interval c)

and persist_fire c =
  match c.state with
  | TClosed -> ()
  | TSynSent | TSynRcvd -> ()
  | TEstablished | TFinWait1 | TFinWait2 | TCloseWait | TLastAck
  | TTimeWait ->
    if c.snd_wnd = 0 then begin
      (* probe with one byte into the closed window; the probe owns its
         own retry (this timer), never the RTO, and is never timed for
         RTT (Karn) *)
      let probe_seq =
        if c.snd_una < c.snd_nxt then c.snd_una else c.snd_nxt
      in
      let data_end = min (fin_seq c) (probe_seq + 1) in
      if probe_seq < data_end then begin
        c.pv.stats.persist_probes <- c.pv.stats.persist_probes + 1;
        c.cstats.persist_probes <- c.cstats.persist_probes + 1;
        bump_counter c "persist_probes" 1;
        (if probe_seq = c.snd_nxt then begin
           c.pv.stats.bytes_sent <- c.pv.stats.bytes_sent + 1;
           c.cstats.bytes_sent <- c.cstats.bytes_sent + 1;
           xmit c ~seq:probe_seq ~flags:0 1;
           c.snd_nxt <- c.snd_nxt + 1
         end
         else xmit c ~seq:probe_seq ~flags:0 1);
        arm_death c
      end;
      c.persist_backoff <- c.persist_backoff + 1;
      arm_persist c
    end
    else begin
      c.persist_backoff <- 0;
      push_segments c
    end

and retransmit_all c =
  (* go-back-N: blind retransmission of everything outstanding *)
  c.retransmitting <- true;
  c.rtt_seq <- 0;
  let outstanding = c.snd_nxt - c.snd_una in
  let data_end = min c.snd_nxt (fin_seq c) in
  let seq = ref c.snd_una in
  while !seq < data_end do
    let take = min (data_end - !seq) c.pv.cfg.mss in
    c.pv.stats.retransmits <- c.pv.stats.retransmits + 1;
    c.pv.stats.retransmitted_bytes <-
      c.pv.stats.retransmitted_bytes + take;
    c.cstats.retransmits <- c.cstats.retransmits + 1;
    c.cstats.retransmitted_bytes <- c.cstats.retransmitted_bytes + take;
    emit_retransmit c ~seq:!seq ~bytes:take;
    xmit c ~seq:!seq ~flags:0 take;
    seq := !seq + take
  done;
  if c.fin_queued && c.snd_nxt > fin_seq c then begin
    c.pv.stats.retransmits <- c.pv.stats.retransmits + 1;
    c.cstats.retransmits <- c.cstats.retransmits + 1;
    emit_retransmit c ~seq:(fin_seq c) ~bytes:0;
    xmit c ~seq:(fin_seq c) ~flags:flag_fin 0
  end;
  if outstanding > 0 || c.fin_queued then begin
    c.backoff <- c.backoff + 1;
    arm_rto c
  end

and retransmit_head c =
  (* resend only the first unacknowledged segment; the rest of the
     window stays put until acks (or further timeouts) call for it *)
  c.retransmitting <- true;
  c.rtt_seq <- 0;
  let data_end = min c.snd_nxt (fin_seq c) in
  if c.snd_una < data_end then begin
    let take = min (data_end - c.snd_una) c.pv.cfg.mss in
    c.pv.stats.retransmits <- c.pv.stats.retransmits + 1;
    c.pv.stats.retransmitted_bytes <-
      c.pv.stats.retransmitted_bytes + take;
    c.cstats.retransmits <- c.cstats.retransmits + 1;
    c.cstats.retransmitted_bytes <- c.cstats.retransmitted_bytes + take;
    emit_retransmit c ~seq:c.snd_una ~bytes:take;
    xmit c ~seq:c.snd_una ~flags:0 take
  end
  else if c.fin_queued && c.snd_nxt > fin_seq c then begin
    c.pv.stats.retransmits <- c.pv.stats.retransmits + 1;
    c.cstats.retransmits <- c.cstats.retransmits + 1;
    emit_retransmit c ~seq:(fin_seq c) ~bytes:0;
    xmit c ~seq:(fin_seq c) ~flags:flag_fin 0
  end

let process_ack c (s : segment) =
  if s.s_flags land flag_ack <> 0 then begin
    c.snd_wnd <- s.s_window;
    let ack = s.s_ack in
    if ack > c.snd_una && ack <= c.snd_nxt then begin
      let acked = ack - c.snd_una in
      (* new data acknowledged *)
      let sampled = c.rtt_seq <> 0 && ack >= c.rtt_seq in
      if sampled then begin
        let sample = Sim.Engine.now c.pv.eng -. c.rtt_sent_at in
        if c.srtt = 0. then begin
          c.srtt <- sample;
          c.mdev <- sample /. 2.
        end
        else begin
          let err = sample -. c.srtt in
          c.srtt <- c.srtt +. (err /. 8.);
          c.mdev <- c.mdev +. ((Float.abs err -. c.mdev) /. 4.)
        end;
        c.rtt_seq <- 0
      end;
      c.retransmitting <- false;
      (* Karn, both halves: the baseline resets its backoff on any
         advance, so once queueing delay exceeds the RTO it re-fires at
         min_rto into a still-full queue forever — that loop IS the
         collapse.  tcpcc keeps the backed-off RTO until a clean sample
         from an untransmitted segment says the network recovered. *)
      if sampled || not c.pv.cc then c.backoff <- 0;
      arm_death c;
      (* drop acked bytes from the front of txbuf *)
      let data_acked = min ack (fin_seq c) in
      let drop = data_acked - c.tx_base in
      if drop > 0 then begin
        let keep = Buffer.sub c.txbuf drop (Buffer.length c.txbuf - drop) in
        Buffer.clear c.txbuf;
        Buffer.add_string c.txbuf keep;
        c.tx_base <- data_acked
      end;
      c.snd_una <- ack;
      if c.pv.cc then begin
        let mss = c.pv.cfg.mss in
        if c.in_recovery then
          if ack >= c.recover then begin
            (* full ack: recovery over, deflate to ssthresh *)
            c.in_recovery <- false;
            c.dupacks <- 0;
            c.cwnd <- max mss c.ssthresh
          end
          else begin
            (* NewReno partial ack: the next hole is now the head;
               resend it at once rather than waiting out an RTO *)
            retransmit_head c;
            c.cwnd <- max mss (c.cwnd - acked + mss)
          end
        else begin
          c.dupacks <- 0;
          if c.cwnd < c.ssthresh then
            (* slow start: one segment per segment acked *)
            c.cwnd <- min c.pv.cfg.send_window (c.cwnd + min acked mss)
          else
            (* congestion avoidance: ~one segment per round trip *)
            c.cwnd <-
              min c.pv.cfg.send_window
                (c.cwnd + max 1 (mss * mss / c.cwnd))
        end
      end;
      if c.snd_una = c.snd_nxt then Sim.Time.disarm c.rexmit_tmr
      else arm_rto c;
      Sim.Rendez.wakeup_all c.ep.wwait;
      (* the ack may have opened the send window: the ticker used to
         retry this on the next tick, now the ack itself drives it *)
      if Buffer.length c.txbuf + c.tx_base > c.snd_nxt then push_segments c
    end
    else if
      c.pv.cc && ack = c.snd_una
      && c.snd_nxt > c.snd_una
      && Block.len s.s_data = 0
      && s.s_flags land (flag_syn lor flag_fin) = 0
    then begin
      (* duplicate ack: the receiver saw something out of order *)
      c.dupacks <- c.dupacks + 1;
      if c.in_recovery then begin
        (* inflate: each dup ack means a segment left the network *)
        c.cwnd <- c.cwnd + c.pv.cfg.mss;
        push_segments c
      end
      else if c.dupacks = 3 then begin
        (* fast retransmit + fast recovery *)
        let mss = c.pv.cfg.mss in
        let inflight = c.snd_nxt - c.snd_una in
        c.ssthresh <- max (2 * mss) (inflight / 2);
        c.recover <- c.snd_nxt;
        c.in_recovery <- true;
        c.pv.stats.fast_retransmits <- c.pv.stats.fast_retransmits + 1;
        c.cstats.fast_retransmits <- c.cstats.fast_retransmits + 1;
        bump_counter c "fast_retransmits" 1;
        bump_counter c "cwnd_halved" 1;
        retransmit_head c;
        c.cwnd <- c.ssthresh + (3 * mss);
        arm_rto c
      end
    end;
    (* a window update may end the zero-window persist state *)
    if c.snd_wnd > 0 && Sim.Time.armed c.persist_tmr then begin
      Sim.Time.disarm c.persist_tmr;
      c.persist_backoff <- 0;
      push_segments c
    end
  end

(* ---- receive ---- *)

(* the segment's payload view itself is queued *)
let deliver c (data : Block.t) =
  let n = Block.len data in
  if n > 0 then begin
    c.pv.stats.bytes_rcvd <- c.pv.stats.bytes_rcvd + n;
    c.cstats.bytes_rcvd <- c.cstats.bytes_rcvd + n;
    (* no delimiters: a plain byte-stream block *)
    Block.Q.force_put c.ep.rq data
  end

let send_bare_ack c = xmit c ~seq:c.snd_nxt ~flags:0 0

(* drain the reassembly queue once the in-order edge moved: deliver
   every buffered byte that is now contiguous with rcv_nxt *)
let drain_ooo c =
  let rec go () =
    match c.ooo with
    | (seq, data) :: rest when seq <= c.rcv_nxt ->
      let len = Block.len data in
      if seq + len > c.rcv_nxt then begin
        let take = seq + len - c.rcv_nxt in
        Block.consume data (len - take);
        deliver c data;
        c.rcv_nxt <- c.rcv_nxt + take
      end;
      c.ooo <- rest;
      go ()
    | _ -> ()
  in
  go ()

let ooo_bytes c =
  List.fold_left (fun a (_, d) -> a + Block.len d) 0 c.ooo

(* stash a beyond-the-hole segment for later reassembly, keeping the
   list seq-sorted and the total bounded by the receive buffer *)
let stash_ooo c ~seq data =
  if
    ooo_bytes c + Block.len data <= c.pv.cfg.recv_window
    && not (List.exists (fun (q, _) -> q = seq) c.ooo)
  then begin
    c.ooo <-
      List.merge (fun (a, _) (b, _) -> compare a b) [ (seq, data) ] c.ooo;
    bump_counter c "ooo_queued" 1
  end

let handle_established c (s : segment) =
  process_ack c s;
  if Block.len s.s_data > 0 || s.s_flags land flag_fin <> 0 then begin
    if s.s_seq = c.rcv_nxt then begin
      c.rcv_nxt <- c.rcv_nxt + Block.len s.s_data;
      deliver c s.s_data;
      (* no data follows a FIN, so draining there could only discard
         stale sub-rcv_nxt leftovers — don't let it move rcv_nxt under
         the FIN's own +1 *)
      if c.pv.cc && s.s_flags land flag_fin = 0 && c.ooo <> [] then
        drain_ooo c;
      if s.s_flags land flag_fin <> 0 then begin
        c.rcv_nxt <- c.rcv_nxt + 1;
        Block.Q.force_put c.ep.rq (Block.hangup ());
        (match c.state with
        | TEstablished -> set_state c TCloseWait
        | TFinWait1 -> set_state c TTimeWait (* simultaneous close *)
        | TFinWait2 ->
          set_state c TTimeWait;
          Sim.Engine.after ~label:c.pv.pname c.pv.eng 1.0 (fun () ->
              destroy c None)
        | TClosed | TSynSent | TSynRcvd | TCloseWait | TLastAck | TTimeWait
          ->
          ())
      end;
      send_bare_ack c
    end
    else begin
      (* out of order or duplicate.  The baseline drops and re-acks —
         forcing its sender's go-back-N; tcpcc buffers beyond-the-hole
         data for reassembly, and the re-ack below becomes the dup ack
         that drives the peer's fast retransmit *)
      if s.s_seq > c.rcv_nxt then begin
        if
          c.pv.cc && Block.len s.s_data > 0
          && s.s_flags land (flag_syn lor flag_fin) = 0
        then stash_ooo c ~seq:s.s_seq s.s_data
        else begin
          c.pv.stats.out_of_order_dropped <-
            c.pv.stats.out_of_order_dropped + 1;
          c.cstats.out_of_order_dropped <- c.cstats.out_of_order_dropped + 1
        end
      end
      else begin
        (* already-delivered data: a duplicate from the wire or a
           retransmission crossing our ack *)
        c.pv.stats.dups_dropped <- c.pv.stats.dups_dropped + 1;
        c.cstats.dups_dropped <- c.cstats.dups_dropped + 1
      end;
      send_bare_ack c
    end
  end

let handle_segment c (s : segment) =
  c.pv.stats.segs_rcvd <- c.pv.stats.segs_rcvd + 1;
  c.cstats.segs_rcvd <- c.cstats.segs_rcvd + 1;
  if s.s_flags land flag_rst <> 0 then begin
    c.pv.stats.resets <- c.pv.stats.resets + 1;
    c.cstats.resets <- c.cstats.resets + 1;
    destroy c (Some "connection reset")
  end
  else
    match c.state with
    | TClosed -> ()
    | TSynSent ->
      if s.s_flags land flag_syn <> 0 && s.s_flags land flag_ack <> 0
         && s.s_ack = c.iss + 1
      then begin
        c.irs <- s.s_seq;
        c.rcv_nxt <- s.s_seq + 1;
        c.snd_una <- s.s_ack;
        c.snd_wnd <- s.s_window;
        set_state c TEstablished;
        Sim.Time.disarm c.rexmit_tmr;
        c.backoff <- 0;
        arm_death c;
        send_bare_ack c;
        Conv.established c.ep c
      end
    | TSynRcvd ->
      if s.s_flags land flag_ack <> 0 && s.s_ack = c.iss + 1 then begin
        c.snd_una <- s.s_ack;
        c.snd_wnd <- s.s_window;
        set_state c TEstablished;
        Sim.Time.disarm c.rexmit_tmr;
        c.backoff <- 0;
        arm_death c;
        Conv.established c.ep c;
        if Block.len s.s_data > 0 || s.s_flags land flag_fin <> 0 then
          handle_established c s
      end
      else if s.s_flags land flag_syn <> 0 then
        (* retransmitted SYN: repeat our SYN-ACK *)
        xmit c ~seq:c.iss ~flags:flag_syn 0
    | TEstablished | TFinWait1 | TFinWait2 | TCloseWait | TLastAck
    | TTimeWait -> (
      handle_established c s;
      (* state progress on our FIN being acked *)
      match c.state with
      | TFinWait1 when c.snd_una = c.snd_nxt && c.fin_queued ->
        set_state c TFinWait2
      | TLastAck when c.snd_una = c.snd_nxt -> destroy c None
      | TTimeWait ->
        Sim.Engine.after ~label:c.pv.pname c.pv.eng 1.0 (fun () ->
            destroy c None)
      | TClosed | TSynSent | TSynRcvd | TEstablished | TFinWait1
      | TFinWait2 | TCloseWait | TLastAck ->
        ())

let send_rst st ~dst ~sport ~dport ~seq ~ack =
  Conv.output st ~dst
    (encode_buf ~sport ~dport ~seq ~ack ~flags:(flag_rst lor flag_ack) ~window:0
       (Buffer.create 0) 0 0)

let new_iss st =
  1 + Random.State.int (Sim.Engine.random (Conv.engine st)) 0xffffff

let zero_counters () =
  {
    segs_sent = 0;
    segs_rcvd = 0;
    bytes_sent = 0;
    bytes_rcvd = 0;
    retransmits = 0;
    retransmitted_bytes = 0;
    out_of_order_dropped = 0;
    dups_dropped = 0;
    resets = 0;
    fast_retransmits = 0;
    persist_probes = 0;
  }

let make_conv ?lis st ~lport ~rport ~raddr ~state ~iss =
  let pv = Conv.priv st in
  let c =
    {
      ep =
        Conv.make ~limit:pv.cfg.recv_window ?lis st ~lport ~rport ~raddr
          (phase state);
      pv;
      cstats = zero_counters ();
      state;
      iss;
      snd_una = iss;
      snd_nxt = iss + 1;
      snd_wnd = pv.cfg.mss;
      irs = 0;
      rcv_nxt = 0;
      txbuf = Buffer.create 4096;
      tx_base = iss + 1;
      fin_queued = false;
      srtt = 0.;
      mdev = 0.;
      backoff = 0;
      rexmit_tmr = Sim.Time.none;
      rtt_seq = 0;
      rtt_sent_at = 0.;
      retransmitting = false;
      cwnd = 2 * pv.cfg.mss;
      ssthresh = pv.cfg.send_window;
      dupacks = 0;
      recover = 0;
      in_recovery = false;
      ooo = [];
      persist_tmr = Sim.Time.none;
      persist_backoff = 0;
    }
  in
  c.rexmit_tmr <- Sim.Time.timer ~label:pv.pname pv.eng (fun () -> rto_fire c);
  c.persist_tmr <-
    Sim.Time.timer ~label:pv.pname pv.eng (fun () -> persist_fire c);
  Conv.opened c.ep c ~state:(state_str state);
  c

let input st ~src:sa (pkt : Block.t) =
  match decode_view pkt with
  | None -> Conv.badsum st pkt ~header_len
  | Some s -> (
    match Conv.find st ~lport:s.s_dport ~rport:s.s_sport ~raddr:sa with
    | Some c -> handle_segment c s
    | None -> (
      match Conv.listener st s.s_dport with
      | Some lis
        when s.s_flags land flag_syn <> 0 && s.s_flags land flag_ack = 0 ->
        if Conv.admit lis then begin
          let c =
            make_conv ~lis st ~lport:s.s_dport ~rport:s.s_sport ~raddr:sa
              ~state:TSynRcvd ~iss:(new_iss st)
          in
          c.irs <- s.s_seq;
          c.rcv_nxt <- s.s_seq + 1;
          c.snd_wnd <- s.s_window;
          arm_rto c;
          xmit c ~seq:c.iss ~flags:flag_syn 0
        end
        else
          (* the caller sees a clean "connection reset" *)
          send_rst st ~dst:sa ~sport:s.s_dport ~dport:s.s_sport ~seq:s.s_ack
            ~ack:(s.s_seq + Block.len s.s_data)
      | Some _ | None ->
        if s.s_flags land flag_rst = 0 then
          send_rst st ~dst:sa ~sport:s.s_dport ~dport:s.s_sport ~seq:s.s_ack
            ~ack:(s.s_seq + Block.len s.s_data)))

(* the active open *)
let start st ~lport ~raddr ~rport =
  let c = make_conv st ~lport ~rport ~raddr ~state:TSynSent ~iss:(new_iss st) in
  arm_rto c;
  xmit_initial_syn c;
  c

let write c data =
  (match c.state with
  | TEstablished | TCloseWait -> ()
  | TClosed | TSynSent | TSynRcvd | TFinWait1 | TFinWait2 | TLastAck
  | TTimeWait ->
    raise Conv.Hungup);
  if c.fin_queued then raise Conv.Hungup;
  (* block while the send buffer is full *)
  while
    (c.state = TEstablished || c.state = TCloseWait)
    && Buffer.length c.txbuf >= c.pv.cfg.recv_window
  do
    Sim.Rendez.sleep c.ep.wwait
  done;
  (match c.state with
  | TEstablished | TCloseWait -> ()
  | TClosed | TSynSent | TSynRcvd | TFinWait1 | TFinWait2 | TLastAck
  | TTimeWait ->
    raise Conv.Hungup);
  Buffer.add_string c.txbuf data;
  push_segments c

let read c n = Conv.read c.ep n

let close c =
  match c.state with
  | TClosed | TFinWait1 | TFinWait2 | TLastAck | TTimeWait -> ()
  | TSynSent | TSynRcvd -> destroy c None
  | TEstablished ->
    c.fin_queued <- true;
    set_state c TFinWait1;
    push_segments c;
    arm_death c
  | TCloseWait ->
    c.fin_queued <- true;
    set_state c TLastAck;
    push_segments c;
    arm_death c

let attach_gen ~pname ~ipproto ~cc ~config ip =
  let eng = Ip.engine ip in
  Conv.create ip ~name:pname ~ipproto ~death_time:config.death_time
    ~cpu:config.cpu ~cost_per_msg:config.cost_per_seg
    ~cost_per_byte:config.cost_per_byte
    ~priv:{ eng; pname; cc; cfg = config; stats = zero_counters () }
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

let attach ?(config = default_config) ip =
  attach_gen ~pname:"tcp" ~ipproto:Ip.proto_tcp ~cc:false ~config ip

let attach_cc ?(config = default_config) ip =
  attach_gen ~pname:"tcpcc" ~ipproto:Ip.proto_tcpcc ~cc:true ~config ip

let refusals = Conv.refusals
let conv_count = Conv.conv_count
