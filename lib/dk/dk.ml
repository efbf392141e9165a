module Switch = struct
  module Fault = Netsim.Fault

  type ctl = Ack | Enq | Echo | Close

  type cell =
    | Data of { payload : string; off : int; len : int; seq : int; last : bool }
    | Packet of string
    | Ctl of { op : ctl; seq : int }
    | Hangup

  (* the text URP's control cells once carried, built once per
     sequence number: the bytes a control cell costs the line, and
     what a fault filter sees *)
  let ack_text = Array.init 256 (fun seq -> "ack " ^ string_of_int seq)
  let echo_text = Array.init 256 (fun seq -> "echo " ^ string_of_int seq)

  let ctl_text op seq =
    match op with
    | Ack -> ack_text.(seq)
    | Echo -> echo_text.(seq)
    | Enq -> "enq"
    | Close -> "close"

  type stats = {
    mutable cells_in : int;
    mutable cells_out : int;
    injected : Fault.tally;
  }

  type cend = {
    ce_line : line;
    ce_chan : int;
    mutable ce_peer : cend option;
    mutable ce_rx : cell -> unit;
        (* cells go straight to it from the delivery event *)
    mutable ce_up : bool;
  }

  and line = {
    l_name : string;
    l_sw : t;
    l_services : (string, incoming Sim.Mbox.t) Hashtbl.t;
    mutable l_next_chan : int;
    l_busy : busy;  (* uplink serialization *)
    l_stats : stats;
  }

  (* all-float, so stored unboxed: setting it allocates nothing *)
  and busy = { mutable until : float }

  and incoming = {
    in_caller : string;
    in_service : string;
    in_callee : line;
    in_caller_line : line;
    mutable in_outcome : outcome;
    in_dialer : Sim.Rendez.t;  (* the dialer sleeps here until it is set *)
  }

  and outcome = Pending | Accepted of cend | Refused of string

  and t = {
    sw_name : string;
    eng : Sim.Engine.t;
    bandwidth : float;
    latency : float;
    sw_fault : Fault.t;
    lines : (string, line) Hashtbl.t;
  }

  let create ?(bandwidth_bps = 2e6) ?(latency = 200e-6) ?(loss = 0.) ~name
      eng =
    let sw_fault = Fault.create () in
    Fault.set_loss sw_fault loss;
    {
      sw_name = name;
      eng;
      bandwidth = bandwidth_bps;
      latency;
      sw_fault;
      lines = Hashtbl.create 17;
    }

  let engine t = t.eng
  let faults t = t.sw_fault

  let attach t ~name =
    if Hashtbl.mem t.lines name then
      invalid_arg ("Dk.Switch.attach: line exists: " ^ name);
    let line =
      {
        l_name = name;
        l_sw = t;
        l_services = Hashtbl.create 7;
        l_next_chan = 1;
        l_busy = { until = 0. };
        l_stats = { cells_in = 0; cells_out = 0; injected = Fault.tally () };
      }
    in
    Hashtbl.replace t.lines name line;
    line

  let line_name l = l.l_name
  let line_stats l = l.l_stats

  let alloc_end line =
    let chan = line.l_next_chan in
    line.l_next_chan <- chan + 1;
    {
      ce_line = line;
      ce_chan = chan;
      ce_peer = None;
      ce_rx = ignore;
      ce_up = true;
    }

  (* a data cell is a 2-byte header (seq, last flag) and its bytes;
     every cell adds 4 bytes of framing *)
  let cell_bytes = function
    | Data { len; _ } -> len + 6
    | Packet raw -> String.length raw + 4
    | Ctl { op; seq } -> String.length (ctl_text op seq) + 4
    | Hangup -> 4

  let inject sw ~src ~(dst : line) kind ~reason bytes =
    Fault.inject dst.l_stats.injected sw.eng ~medium:sw.sw_name kind ~reason
      ~src ~dst:dst.l_name ~proto:"dk" ~bytes ~lost:"dk.cell.drop"

  (* Serialize on the sender's line, cross the switch, deliver to the
     peer end. *)
  let send_cell ce cell =
    match ce.ce_peer with
    | None -> ()
    | Some peer ->
      let sw = ce.ce_line.l_sw in
      let now = Sim.Engine.now sw.eng in
      let line = ce.ce_line in
      let bytes = cell_bytes cell in
      let busy = line.l_busy in
      let start = if busy.until > now then busy.until else now in
      let finish = start +. (float_of_int (bytes * 8) /. sw.bandwidth) in
      busy.until <- finish;
      line.l_stats.cells_out <- line.l_stats.cells_out + 1;
      let dst = peer.ce_line in
      let v =
        match cell with
        | (Data { payload; _ } | Packet payload) when Fault.active sw.sw_fault
          ->
          Fault.decide sw.sw_fault (Sim.Engine.random sw.eng) ~now payload
        | Ctl { op; seq } when Fault.active sw.sw_fault ->
          Fault.decide sw.sw_fault (Sim.Engine.random sw.eng) ~now
            (ctl_text op seq)
        | Data _ | Packet _ | Ctl _ -> Fault.pass
        | Hangup ->
          (* hangups are exempt from every fault: a lost hangup would
             wedge circuit teardown, and the real switch tore circuits
             down out of band *)
          Fault.pass
      in
      (match Sim.Engine.obs sw.eng with
      | None -> ()
      | Some tr ->
        Obs.Trace.emit tr
          (Obs.Event.Packet
             {
               medium = sw.sw_name;
               op = Obs.Event.Tx;
               src = line.l_name;
               dst = dst.l_name;
               proto = "dk";
               bytes;
             });
        Obs.Trace.bump tr "dk.cell.tx" 1);
      match v.Fault.v_drop with
      | Some reason -> inject sw ~src:line.l_name ~dst Fault.Drop ~reason bytes
      | None ->
        let arrive () =
          if peer.ce_up then begin
            dst.l_stats.cells_in <- dst.l_stats.cells_in + 1;
            (match cell with Hangup -> peer.ce_up <- false | _ -> ());
            peer.ce_rx cell
          end
        in
        let base = finish +. sw.latency +. v.Fault.v_delay in
        if v.Fault.v_reorder then
          inject sw ~src:line.l_name ~dst Fault.Reorder ~reason:"reorder" bytes;
        Sim.Engine.at ~label:"dk" sw.eng base arrive;
        if v.Fault.v_dup then begin
          inject sw ~src:line.l_name ~dst Fault.Dup ~reason:"dup" bytes;
          Sim.Engine.at ~label:"dk" sw.eng
            (base +. (float_of_int (bytes * 8) /. sw.bandwidth))
            arrive
        end
end

module Circuit = struct
  type t = Switch.cend

  type ctl = Switch.ctl = Ack | Enq | Echo | Close

  type cell = Switch.cell =
    | Data of { payload : string; off : int; len : int; seq : int; last : bool }
    | Packet of string
    | Ctl of { op : ctl; seq : int }
    | Hangup

  exception Rejected of string
  exception No_such_line of string

  type incoming = Switch.incoming

  let caller (inc : incoming) = inc.Switch.in_caller
  let service (inc : incoming) = inc.Switch.in_service

  let announce line ~service =
    if Hashtbl.mem line.Switch.l_services service then
      invalid_arg ("Dk.Circuit.announce: service exists: " ^ service);
    let mbox = Sim.Mbox.create line.Switch.l_sw.Switch.eng in
    Hashtbl.replace line.Switch.l_services service mbox;
    mbox

  let dial line ~dest ~service =
    let sw = line.Switch.l_sw in
    let obs = Sim.Engine.obs sw.Switch.eng in
    let sp =
      match obs with
      | None -> Obs.Span.none
      | Some tr ->
        Obs.Span.enter tr ~layer:"dk"
          (Printf.sprintf "dk.dial %s!%s" dest service)
    in
    let fin () =
      match obs with None -> () | Some tr -> Obs.Span.exit tr sp
    in
    match Hashtbl.find_opt sw.Switch.lines dest with
    | None ->
      fin ();
      raise (No_such_line dest)
    | Some callee -> (
      let listener =
        match Hashtbl.find_opt callee.Switch.l_services service with
        | Some mbox -> Some mbox
        | None -> Hashtbl.find_opt callee.Switch.l_services "*"
      in
      match listener with
      | None ->
        fin ();
        raise (Rejected ("unknown service: " ^ service))
      | Some mbox -> (
        let eng = sw.Switch.eng in
        (* a dial outside a process fails before the call leaves *)
        ignore (Sim.Proc.self ());
        let inc =
          {
            Switch.in_caller = line.Switch.l_name;
            in_service = service;
            in_callee = callee;
            in_caller_line = line;
            in_outcome = Switch.Pending;
            in_dialer = Sim.Rendez.create eng;
          }
        in
        (* call setup crosses the switch *)
        Sim.Engine.after ~label:"dk" eng sw.Switch.latency (fun () ->
            Sim.Mbox.send mbox inc);
        match Sim.Rendez.sleep inc.Switch.in_dialer with
        | () -> (
          fin ();
          match inc.Switch.in_outcome with
          | Switch.Accepted ce -> ce
          | Switch.Refused reason -> raise (Rejected reason)
          | Switch.Pending -> assert false)
        | exception e ->
          fin ();
          raise e))

  let settled (inc : incoming) =
    match inc.Switch.in_outcome with Switch.Pending -> false | _ -> true

  (* record the outcome and wake the dialer once the answer has crossed
     the switch; a dialer killed meanwhile has left the Rendez, so the
     wakeup finds nobody *)
  let answer (inc : incoming) outcome =
    inc.Switch.in_outcome <- outcome;
    let sw = inc.Switch.in_callee.Switch.l_sw in
    Sim.Engine.after ~label:"dk" sw.Switch.eng sw.Switch.latency (fun () ->
        Sim.Rendez.wakeup inc.Switch.in_dialer)

  let accept (inc : incoming) =
    if settled inc then invalid_arg "Dk.Circuit.accept: settled";
    let caller_end = Switch.alloc_end inc.Switch.in_caller_line in
    let callee_end = Switch.alloc_end inc.Switch.in_callee in
    caller_end.Switch.ce_peer <- Some callee_end;
    callee_end.Switch.ce_peer <- Some caller_end;
    answer inc (Switch.Accepted caller_end);
    callee_end

  let reject (inc : incoming) ~reason =
    if settled inc then invalid_arg "Dk.Circuit.reject: settled";
    answer inc (Switch.Refused reason)

  let send (ce : t) cell = if ce.Switch.ce_up then Switch.send_cell ce cell

  let set_rx (ce : t) rx = ce.Switch.ce_rx <- rx

  let hangup (ce : t) =
    if ce.Switch.ce_up then begin
      Switch.send_cell ce Hangup;
      ce.Switch.ce_up <- false
    end

  let peer_name (ce : t) =
    match ce.Switch.ce_peer with
    | Some p -> p.Switch.ce_line.Switch.l_name
    | None -> "?"
end

module Urp = struct
  type config = {
    cell_size : int;
    window : int;
    min_timeout : float;
    cpu : Sim.Cpu.t option;
    cost_per_cell : float;
    cost_per_byte : float;
  }

  let default_config =
    {
      cell_size = 1024;
      window = 8;
      min_timeout = 0.1;
      cpu = None;
      cost_per_cell = 0.;
      cost_per_byte = 0.;
    }

  type counters = {
    mutable cells_sent : int;
    mutable cells_rcvd : int;
    mutable bytes_sent : int;
    mutable bytes_rcvd : int;
    mutable retransmits : int;
    mutable enqs_sent : int;
    mutable dups_dropped : int;
  }

  exception Hungup

  (* One conversation end.  It has no process of its own: the switch's
     delivery event hands it each cell (as a stream module's put
     routine runs in the line's context), and a single timer slot
     carries its enquiries. *)
  type conv = {
    circ : Circuit.t;
    cfg : config;
    eng : Sim.Engine.t;
    stats : counters;
    (* transmit side; sequence numbers are mod 256, window << 128 *)
    mutable snd_seq : int;  (* seq of next cell to send *)
    unacked : Circuit.cell array;
        (* a ring of the cells sent and not yet acked, kept for
           retransmission; an ack frees a prefix of it *)
    mutable una_head : int;  (* slot of the oldest *)
    mutable una_count : int;
    wwait : Sim.Rendez.t;
    mutable last_progress : float;
    mutable backoff : int;
    enq : Sim.Time.timer;
        (* armed while cells are unacked; it may lapse once after *)
    mutable grid : float;
        (* enquiries fall on [over]'s time plus k * min_timeout/2, each
           point one float add after the last; this is the latest point
           not after now that has been stepped to *)
    (* receive side *)
    mutable rcv_expect : int;  (* next in-order seq *)
    mutable part_first : string;
        (* the message being assembled: the first cell's bytes are
           [part_first] from [part_off], the later cells [part_rest],
           newest first; [part_len] bytes in all, 0 = none *)
    mutable part_off : int;
    mutable part_rest : (string * int * int) list;
    mutable part_len : int;
    rx_backlog : Circuit.cell Queue.t;
        (* cells that arrived while the modelled CPU works on a data
           cell, handled in arrival order *)
    mutable rx_busy : bool;
    rq : Block.Q.t;
    mutable closed_ : bool;
  }

  let counters c = c.stats
  let seq_diff a b = (a - b + 256) mod 256

  (* control cells for every sequence number, built once *)
  let ack_cell = Array.init 256 (fun seq -> Circuit.Ctl { op = Ack; seq })
  let echo_cell = Array.init 256 (fun seq -> Circuit.Ctl { op = Echo; seq })
  let enq_cell = Circuit.Ctl { op = Enq; seq = 0 }
  let close_cell = Circuit.Ctl { op = Close; seq = 0 }

  (* a data cell costs the CPU its 2-byte header and its bytes *)
  let cell_cost c len =
    c.cfg.cost_per_cell +. (c.cfg.cost_per_byte *. float_of_int (len + 2))

  let send_data c cell len =
    c.stats.cells_sent <- c.stats.cells_sent + 1;
    match c.cfg.cpu with
    | None -> Circuit.send c.circ cell
    | Some cpu ->
      Sim.Cpu.run_after ~label:"dk" cpu (cell_cost c len) (fun () ->
          Circuit.send c.circ cell)

  let shut c =
    c.closed_ <- true;
    Block.Q.force_put c.rq (Block.hangup ());
    Block.Q.close c.rq;
    Sim.Rendez.wakeup_all c.wwait;
    Sim.Time.disarm c.enq

  let dead_enqs = 10
  (* consecutive unanswered enquiries before declaring the circuit
     dead — the switch would have torn a real circuit down *)

  let deadline c =
    c.last_progress
    +. (c.cfg.min_timeout *. float_of_int (1 lsl min c.backoff 5))

  (* Arm the enquiry at the first grid point at or after the deadline:
     where a ticker at min_timeout/2 would first have found it due. *)
  let rec arm_enq c =
    let step = c.cfg.min_timeout /. 2. in
    let now = Sim.Engine.now c.eng in
    let g = ref c.grid in
    while !g +. step <= now do
      g := !g +. step
    done;
    c.grid <- !g;
    let due = deadline c in
    while !g < due do
      g := !g +. step
    done;
    Sim.Time.arm_at c.enq !g (fun () -> enq_fire c)

  and enq_fire c =
    let now = Sim.Engine.now c.eng in
    c.grid <- now;
    if c.una_count > 0 && not c.closed_ then
      if now < deadline c then arm_enq c
      else if c.backoff >= dead_enqs then begin
        shut c;
        Circuit.hangup c.circ
      end
      else begin
        c.stats.enqs_sent <- c.stats.enqs_sent + 1;
        c.backoff <- c.backoff + 1;
        c.last_progress <- now;
        Circuit.send c.circ enq_cell;
        arm_enq c
      end

  let acks ack = function
    | Circuit.Data { seq; _ } -> seq_diff ack seq < 128
    | Circuit.Packet _ | Circuit.Ctl _ | Circuit.Hangup -> false

  (* [ack] acknowledges every outstanding cell up to and including
     it *)
  let process_ack c ack =
    let before = c.una_count in
    while c.una_count > 0 && acks ack c.unacked.(c.una_head) do
      c.unacked.(c.una_head) <- Circuit.Hangup;
      c.una_head <- (c.una_head + 1) mod c.cfg.window;
      c.una_count <- c.una_count - 1
    done;
    if c.una_count < before then begin
      let backoff = c.backoff in
      c.last_progress <- Sim.Engine.now c.eng;
      c.backoff <- 0;
      (* A backed-off enquiry is armed late: pull it in, or drop it
         when the window has drained.  Without backoff the armed point
         is no later than the new deadline's; it re-arms or lapses when
         it fires. *)
      if backoff > 0 then
        if c.una_count = 0 then Sim.Time.disarm c.enq else arm_enq c;
      Sim.Rendez.wakeup_all c.wwait
    end

  let retransmit c =
    for i = 0 to c.una_count - 1 do
      match c.unacked.((c.una_head + i) mod c.cfg.window) with
      | Circuit.Data { seq; len; _ } as cell ->
        c.stats.retransmits <- c.stats.retransmits + 1;
        (match Sim.Engine.obs c.eng with
        | None -> ()
        | Some tr ->
          Obs.Trace.emit tr
            (Obs.Event.Retransmit
               {
                 proto = "urp";
                 conv = c.circ.Switch.ce_chan;
                 id = seq;
                 bytes = len;
               });
          Obs.Trace.bump tr "urp.retransmits" 1);
        send_data c cell len
      | Circuit.Packet _ | Circuit.Ctl _ | Circuit.Hangup -> ()
    done

  let handle_data c ~seq ~last payload off len =
    if seq = c.rcv_expect then begin
      c.stats.cells_rcvd <- c.stats.cells_rcvd + 1;
      c.stats.bytes_rcvd <- c.stats.bytes_rcvd + len;
      c.rcv_expect <- (c.rcv_expect + 1) mod 256;
      if last then begin
        let msg =
          if c.part_len = 0 then Block.view payload off len
          else begin
            (* join the cells' views in one copy *)
            let whole =
              Block.gather c.part_first c.part_off (c.part_len + len)
                ((payload, off, len) :: c.part_rest)
            in
            c.part_first <- "";
            c.part_rest <- [];
            c.part_len <- 0;
            Block.make whole
          end
        in
        msg.Block.delim <- true;
        Block.Q.force_put c.rq msg
      end
      else if c.part_len = 0 then begin
        c.part_first <- payload;
        c.part_off <- off;
        c.part_len <- len
      end
      else begin
        c.part_rest <- (payload, off, len) :: c.part_rest;
        c.part_len <- c.part_len + len
      end;
      Circuit.send c.circ ack_cell.(seq)
    end
    else begin
      (* URP receivers do not buffer out-of-order cells: the window
         is small, the circuit is ordered, loss is rare *)
      c.stats.dups_dropped <- c.stats.dups_dropped + 1;
      Circuit.send c.circ ack_cell.((c.rcv_expect + 255) mod 256)
    end

  let handle c = function
    | Circuit.Data { payload; off; len; seq; last } ->
      handle_data c ~seq ~last payload off len
    | Circuit.Ctl { op = Ack; seq } -> process_ack c seq
    | Circuit.Ctl { op = Enq; _ } ->
      (* report our receive state: last in-order cell consumed *)
      Circuit.send c.circ echo_cell.((c.rcv_expect + 255) mod 256)
    | Circuit.Ctl { op = Echo; seq } ->
      process_ack c seq;
      retransmit c
    | Circuit.Ctl { op = Close; _ } | Circuit.Hangup -> shut c
    | Circuit.Packet _ -> ()

  (* The circuit's receive callback.  With a modelled CPU a data cell
     is handled once the CPU has spent its cost, and the cells behind
     it wait their turn. *)
  let rec rx c cell =
    match (c.cfg.cpu, cell) with
    | None, _ -> handle c cell
    | Some _, _ when c.rx_busy -> Queue.push cell c.rx_backlog
    | Some cpu, Circuit.Data { len; _ } ->
      c.rx_busy <- true;
      Sim.Cpu.run_after ~label:"dk" cpu (cell_cost c len) (fun () ->
          c.rx_busy <- false;
          handle c cell;
          while (not c.rx_busy) && not (Queue.is_empty c.rx_backlog) do
            rx c (Queue.pop c.rx_backlog)
          done)
    | Some _, _ -> handle c cell

  let over ?(config = default_config) circ =
    let eng = circ.Switch.ce_line.Switch.l_sw.Switch.eng in
    let c =
      {
        circ;
        cfg = config;
        eng;
        stats =
          {
            cells_sent = 0;
            cells_rcvd = 0;
            bytes_sent = 0;
            bytes_rcvd = 0;
            retransmits = 0;
            enqs_sent = 0;
            dups_dropped = 0;
          };
        snd_seq = 0;
        unacked = Array.make config.window Circuit.Hangup;
        una_head = 0;
        una_count = 0;
        wwait = Sim.Rendez.create eng;
        last_progress = 0.;
        backoff = 0;
        enq = Sim.Time.timer ~label:"dk" eng;
        grid = Sim.Engine.now eng;
        rcv_expect = 0;
        part_first = "";
        part_off = 0;
        part_rest = [];
        part_len = 0;
        rx_backlog = Queue.create ();
        rx_busy = false;
        rq = Block.Q.create eng;
        closed_ = false;
      }
    in
    Circuit.set_rx circ (rx c);
    c

  let write c msg =
    if c.closed_ then raise Hungup;
    let n = String.length msg in
    let ncells = max 1 ((n + c.cfg.cell_size - 1) / c.cfg.cell_size) in
    for i = 0 to ncells - 1 do
      let off = i * c.cfg.cell_size in
      let len = min c.cfg.cell_size (n - off) in
      let last = i = ncells - 1 in
      while c.una_count >= c.cfg.window && not c.closed_ do
        Sim.Rendez.sleep c.wwait
      done;
      if c.closed_ then raise Hungup;
      let seq = c.snd_seq in
      c.snd_seq <- (seq + 1) mod 256;
      (* the cell is a view of [msg]: nothing is copied *)
      let cell = Circuit.Data { payload = msg; off; len; seq; last } in
      c.unacked.((c.una_head + c.una_count) mod c.cfg.window) <- cell;
      c.una_count <- c.una_count + 1;
      if c.backoff = 0 then c.last_progress <- Sim.Engine.now c.eng;
      if not (Sim.Time.armed c.enq) then arm_enq c;
      c.stats.bytes_sent <- c.stats.bytes_sent + len;
      send_data c cell len
    done

  let read c n = Block.Q.read c.rq n

  let read_msg c =
    match Block.Q.get c.rq with
    | Some b -> Some (Block.to_string b)
    | None -> None

  let close c =
    if not c.closed_ then begin
      Circuit.send c.circ close_cell;
      Circuit.hangup c.circ;
      shut c
    end
end
