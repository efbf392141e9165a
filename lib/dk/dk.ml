let src = Logs.Src.create "dk" ~doc:"Datakit switch and URP"

module Log = (val Logs.src_log src : Logs.LOG)

module Switch = struct
  module Fault = Netsim.Fault

  type cell_ = Data_ of { payload : string; last : bool } | Ctl_ of string | Hangup_

  type stats = {
    mutable cells_in : int;
    mutable cells_out : int;
    mutable drops_injected : int;
    mutable dups_injected : int;
    mutable reorders_injected : int;
  }

  type cend = {
    ce_line : line;
    ce_chan : int;
    mutable ce_peer : cend option;
    ce_inq : cell_ option Sim.Mbox.t;  (* None = end of circuit *)
    mutable ce_up : bool;
  }

  and line = {
    l_name : string;
    l_sw : t;
    l_services : (string, incoming Sim.Mbox.t) Hashtbl.t;
    l_chans : (int, cend) Hashtbl.t;
    mutable l_next_chan : int;
    mutable l_busy_until : float;  (* uplink serialization *)
    l_fault : Fault.t;
    l_stats : stats;
  }

  and incoming = {
    in_caller : string;
    in_service : string;
    in_callee : line;
    in_caller_line : line;
    mutable in_settled : bool;
    in_resume : cend -> unit;
    in_abort : exn -> unit;
  }

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
        l_chans = Hashtbl.create 17;
        l_next_chan = 1;
        l_busy_until = 0.;
        l_fault = Fault.create ();
        l_stats =
          {
            cells_in = 0;
            cells_out = 0;
            drops_injected = 0;
            dups_injected = 0;
            reorders_injected = 0;
          };
      }
    in
    Hashtbl.replace t.lines name line;
    line

  let line_name l = l.l_name
  let line_faults l = l.l_fault
  let line_stats l = l.l_stats

  let alloc_end line =
    let chan = line.l_next_chan in
    line.l_next_chan <- chan + 1;
    let ce =
      {
        ce_line = line;
        ce_chan = chan;
        ce_peer = None;
        ce_inq = Sim.Mbox.create line.l_sw.eng;
        ce_up = true;
      }
    in
    Hashtbl.replace line.l_chans chan ce;
    ce

  let cell_bytes = function
    | Data_ { payload; _ } -> String.length payload + 4
    | Ctl_ s -> String.length s + 4
    | Hangup_ -> 4

  let cell_payload = function
    | Data_ { payload; _ } -> payload
    | Ctl_ s -> s
    | Hangup_ -> ""

  (* The single choke point every injected fault funnels through:
     bumps the would-be receiver's line stats and emits a tagged
     Obs event so taps can attribute it. *)
  let inject sw ~src ~(dst : line) ~kind ~reason bytes =
    (match kind with
    | `Drop -> dst.l_stats.drops_injected <- dst.l_stats.drops_injected + 1
    | `Dup -> dst.l_stats.dups_injected <- dst.l_stats.dups_injected + 1
    | `Reorder ->
      dst.l_stats.reorders_injected <- dst.l_stats.reorders_injected + 1);
    match Sim.Engine.obs sw.eng with
    | None -> ()
    | Some tr ->
      let kind_s =
        match kind with
        | `Drop -> if reason = "partition" then "partition" else "drop"
        | `Dup -> "dup"
        | `Reorder -> "reorder"
      in
      Obs.Trace.emit tr
        (Obs.Event.Fault
           {
             medium = sw.sw_name;
             kind = kind_s;
             reason;
             src;
             dst = dst.l_name;
             proto = "dk";
             bytes;
           });
      Obs.Trace.bump tr ("fault." ^ kind_s) 1;
      match kind with
      | `Drop -> Obs.Trace.bump tr "dk.cell.drop" 1
      | `Dup | `Reorder -> ()

  (* Serialize on the sender's line, cross the switch, deliver to the
     peer end's queue. *)
  let send_cell ce cell =
    match ce.ce_peer with
    | None -> ()
    | Some peer ->
      let sw = ce.ce_line.l_sw in
      let now = Sim.Engine.now sw.eng in
      let line = ce.ce_line in
      let bytes = cell_bytes cell in
      let start = if line.l_busy_until > now then line.l_busy_until else now in
      let finish = start +. (float_of_int (bytes * 8) /. sw.bandwidth) in
      line.l_busy_until <- finish;
      line.l_stats.cells_out <- line.l_stats.cells_out + 1;
      let dst = peer.ce_line in
      let v =
        match cell with
        | Hangup_ ->
          (* hangups are exempt from every fault: a lost hangup would
             wedge circuit teardown, and the real switch tore circuits
             down out of band *)
          Fault.pass
        | Data_ _ | Ctl_ _ ->
          let rng = Sim.Engine.random sw.eng in
          let payload = cell_payload cell in
          let v =
            if Fault.active sw.sw_fault then
              Fault.decide sw.sw_fault rng ~now payload
            else Fault.pass
          in
          let v =
            if Fault.active line.l_fault then
              Fault.combine v (Fault.decide line.l_fault rng ~now payload)
            else v
          in
          if Fault.active dst.l_fault then
            Fault.combine v (Fault.decide dst.l_fault rng ~now payload)
          else v
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
      | Some reason -> inject sw ~src:line.l_name ~dst ~kind:`Drop ~reason bytes
      | None ->
        let deliver at =
          Sim.Engine.at ~label:"dk" sw.eng at (fun () ->
              if peer.ce_up then begin
                dst.l_stats.cells_in <- dst.l_stats.cells_in + 1;
                Sim.Mbox.send peer.ce_inq
                  (match cell with Hangup_ -> None | c -> Some c)
              end)
        in
        let base = finish +. sw.latency +. v.Fault.v_delay in
        if v.Fault.v_reorder then
          inject sw ~src:line.l_name ~dst ~kind:`Reorder ~reason:"reorder"
            bytes;
        deliver base;
        if v.Fault.v_dup then begin
          inject sw ~src:line.l_name ~dst ~kind:`Dup ~reason:"dup" bytes;
          deliver (base +. (float_of_int (bytes * 8) /. sw.bandwidth))
        end
end

module Circuit = struct
  type t = Switch.cend

  type cell =
    | Data of { payload : string; last : bool }
    | Ctl of string
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
      | Some mbox ->
        (match
           Sim.Proc.suspend ~register:(fun ~resume ~abort ->
            let inc =
              {
                Switch.in_caller = line.Switch.l_name;
                in_service = service;
                in_callee = callee;
                in_caller_line = line;
                in_settled = false;
                in_resume = resume;
                in_abort = abort;
              }
            in
            (* call setup crosses the switch *)
            Sim.Engine.after ~label:"dk" sw.Switch.eng sw.Switch.latency (fun () ->
                Sim.Mbox.send mbox inc);
            ignore)
         with
        | ce ->
          fin ();
          ce
        | exception e ->
          fin ();
          raise e))

  let accept (inc : incoming) =
    if inc.Switch.in_settled then invalid_arg "Dk.Circuit.accept: settled";
    inc.Switch.in_settled <- true;
    let caller_end = Switch.alloc_end inc.Switch.in_caller_line in
    let callee_end = Switch.alloc_end inc.Switch.in_callee in
    caller_end.Switch.ce_peer <- Some callee_end;
    callee_end.Switch.ce_peer <- Some caller_end;
    let sw = inc.Switch.in_callee.Switch.l_sw in
    Sim.Engine.after ~label:"dk" sw.Switch.eng sw.Switch.latency (fun () ->
        inc.Switch.in_resume caller_end);
    callee_end

  let reject (inc : incoming) ~reason =
    if inc.Switch.in_settled then invalid_arg "Dk.Circuit.reject: settled";
    inc.Switch.in_settled <- true;
    let sw = inc.Switch.in_callee.Switch.l_sw in
    Sim.Engine.after ~label:"dk" sw.Switch.eng sw.Switch.latency (fun () ->
        inc.Switch.in_abort (Rejected reason))

  let send (ce : t) cell =
    if ce.Switch.ce_up then
      Switch.send_cell ce
        (match cell with
        | Data { payload; last } -> Switch.Data_ { payload; last }
        | Ctl s -> Switch.Ctl_ s
        | Hangup -> Switch.Hangup_)

  let recv (ce : t) =
    if not ce.Switch.ce_up then None
    else
      match Sim.Mbox.recv ce.Switch.ce_inq with
      | None ->
        ce.Switch.ce_up <- false;
        None
      | Some (Switch.Data_ { payload; last }) -> Some (Data { payload; last })
      | Some (Switch.Ctl_ s) -> Some (Ctl s)
      | Some Switch.Hangup_ -> None

  let hangup (ce : t) =
    if ce.Switch.ce_up then begin
      Switch.send_cell ce Switch.Hangup_;
      ce.Switch.ce_up <- false;
      Hashtbl.remove ce.Switch.ce_line.Switch.l_chans ce.Switch.ce_chan;
      (* unblock a local reader too *)
      Sim.Mbox.send ce.Switch.ce_inq None
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

  type conv = {
    circ : Circuit.t;
    cfg : config;
    eng : Sim.Engine.t;
    stats : counters;
    (* transmit side; sequence numbers are mod 256, window << 128 *)
    mutable snd_seq : int;  (* seq of next cell to send *)
    mutable unacked : (int * string * bool) list;  (* seq, payload, last *)
    wwait : Sim.Rendez.t;
    mutable last_progress : float;
    mutable backoff : int;
    (* receive side *)
    mutable rcv_expect : int;  (* next in-order seq *)
    partial : Buffer.t;  (* cells of the message being assembled *)
    rq : Block.Q.t;
    mutable closed_ : bool;
    ticker : Sim.Time.ticker;
    kproc : Sim.Proc.t;
  }

  let counters c = c.stats
  let seq_diff a b = (a - b + 256) mod 256

  let cell_cost c bytes =
    match c.cfg.cpu with
    | None -> None
    | Some cpu ->
      Some (cpu, c.cfg.cost_per_cell +. (c.cfg.cost_per_byte *. float_of_int bytes))

  let tx_cell c payload =
    match cell_cost c (String.length payload) with
    | None -> Circuit.send c.circ (Circuit.Data { payload; last = true })
    | Some (cpu, cost) ->
      Sim.Cpu.run_after ~label:"dk" cpu cost (fun () ->
          Circuit.send c.circ (Circuit.Data { payload; last = true }))

  let tx_ctl c s = Circuit.send c.circ (Circuit.Ctl s)

  let send_raw c ~seq ~last payload =
    c.stats.cells_sent <- c.stats.cells_sent + 1;
    let hdr = Bytes.create 2 in
    Bytes.set hdr 0 (Char.chr seq);
    Bytes.set hdr 1 (if last then '\001' else '\000');
    tx_cell c (Bytes.to_string hdr ^ payload)

  let process_ack c ack =
    (* ack acknowledges every outstanding cell up to and including
       [ack] *)
    let acked (seq, _, _) =
      (* seq is acked if it is within 'window' behind or equal to ack *)
      seq_diff ack seq < 128
    in
    let before = List.length c.unacked in
    c.unacked <- List.filter (fun cell -> not (acked cell)) c.unacked;
    if List.length c.unacked < before then begin
      c.last_progress <- Sim.Engine.now c.eng;
      c.backoff <- 0;
      Sim.Rendez.wakeup_all c.wwait
    end

  let retransmit_from c ack =
    let missing =
      List.filter (fun (seq, _, _) -> seq_diff ack seq >= 128) c.unacked
    in
    List.iter
      (fun (seq, payload, last) ->
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
                 bytes = String.length payload;
               });
          Obs.Trace.bump tr "urp.retransmits" 1);
        send_raw c ~seq ~last payload)
      missing

  let handle_data c payload =
    if String.length payload >= 2 then begin
      let seq = Char.code payload.[0] in
      let last = payload.[1] = '\001' in
      let data = String.sub payload 2 (String.length payload - 2) in
      if seq = c.rcv_expect then begin
        c.stats.cells_rcvd <- c.stats.cells_rcvd + 1;
        c.stats.bytes_rcvd <- c.stats.bytes_rcvd + String.length data;
        c.rcv_expect <- (c.rcv_expect + 1) mod 256;
        Buffer.add_string c.partial data;
        if last then begin
          Block.Q.force_put c.rq
            (Block.make ~delim:true (Buffer.contents c.partial));
          Buffer.clear c.partial
        end;
        tx_ctl c (Printf.sprintf "ack %d" seq)
      end
      else begin
        (* URP receivers do not buffer out-of-order cells: the window
           is small, the circuit is ordered, loss is rare *)
        c.stats.dups_dropped <- c.stats.dups_dropped + 1;
        tx_ctl c
          (Printf.sprintf "ack %d" ((c.rcv_expect + 255) mod 256))
      end
    end

  let handle_ctl c s =
    match String.split_on_char ' ' s with
    | [ "ack"; n ] -> (
      match int_of_string_opt n with
      | Some ack -> process_ack c ack
      | None -> ())
    | [ "enq" ] ->
      (* report our receive state: last in-order cell consumed *)
      tx_ctl c (Printf.sprintf "echo %d" ((c.rcv_expect + 255) mod 256))
    | [ "echo"; n ] -> (
      match int_of_string_opt n with
      | Some ack ->
        process_ack c ack;
        retransmit_from c ack
      | None -> ())
    | [ "close" ] ->
      c.closed_ <- true;
      Block.Q.force_put c.rq (Block.hangup ());
      Block.Q.close c.rq;
      Sim.Rendez.wakeup_all c.wwait
    | _ -> Log.debug (fun m -> m "urp: unknown ctl %S" s)

  let dead_enqs = 10
  (* consecutive unanswered enquiries before declaring the circuit
     dead — the switch would have torn a real circuit down *)

  let tick c =
    if c.unacked <> [] && not c.closed_ then begin
      let now = Sim.Engine.now c.eng in
      let deadline =
        c.last_progress
        +. (c.cfg.min_timeout *. float_of_int (1 lsl min c.backoff 5))
      in
      if now >= deadline then
        if c.backoff >= dead_enqs then begin
          c.closed_ <- true;
          Block.Q.force_put c.rq (Block.hangup ());
          Block.Q.close c.rq;
          Circuit.hangup c.circ;
          Sim.Rendez.wakeup_all c.wwait
        end
        else begin
          c.stats.enqs_sent <- c.stats.enqs_sent + 1;
          c.backoff <- c.backoff + 1;
          c.last_progress <- now;
          tx_ctl c "enq"
        end
    end

  let over ?(config = default_config) circ =
    let eng = circ.Switch.ce_line.Switch.l_sw.Switch.eng in
    let rec conv =
      lazy
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
          unacked = [];
          wwait = Sim.Rendez.create eng;
          last_progress = 0.;
          backoff = 0;
          rcv_expect = 0;
          partial = Buffer.create 256;
          rq = Block.Q.create eng;
          closed_ = false;
          ticker =
            Sim.Time.every ~label:"dk" eng (config.min_timeout /. 2.) (fun () ->
                tick (Lazy.force conv));
          kproc =
            Sim.Proc.spawn eng ~name:"urp" (fun () ->
                let c = Lazy.force conv in
                let rec loop () =
                  match Circuit.recv circ with
                  | Some (Circuit.Data { payload; _ }) ->
                    (* model receive-side protocol processing *)
                    (match cell_cost c (String.length payload) with
                    | Some (cpu, cost) -> Sim.Cpu.busy_wait cpu cost
                    | None -> ());
                    handle_data c payload;
                    loop ()
                  | Some (Circuit.Ctl s) ->
                    handle_ctl c s;
                    loop ()
                  | Some Circuit.Hangup | None ->
                    c.closed_ <- true;
                    Block.Q.force_put c.rq (Block.hangup ());
                    Block.Q.close c.rq;
                    Sim.Rendez.wakeup_all c.wwait;
                    Sim.Time.cancel c.ticker
                in
                loop ());
        }
    in
    Lazy.force conv

  let write c msg =
    if c.closed_ then raise Hungup;
    let n = String.length msg in
    let ncells = max 1 ((n + c.cfg.cell_size - 1) / c.cfg.cell_size) in
    for i = 0 to ncells - 1 do
      let off = i * c.cfg.cell_size in
      let take = min c.cfg.cell_size (n - off) in
      let last = i = ncells - 1 in
      while List.length c.unacked >= c.cfg.window && not c.closed_ do
        Sim.Rendez.sleep c.wwait
      done;
      if c.closed_ then raise Hungup;
      let seq = c.snd_seq in
      c.snd_seq <- (seq + 1) mod 256;
      let payload = String.sub msg off take in
      c.unacked <- c.unacked @ [ (seq, payload, last) ];
      if c.unacked <> [] && c.backoff = 0 then
        c.last_progress <- Sim.Engine.now c.eng;
      c.stats.bytes_sent <- c.stats.bytes_sent + take;
      send_raw c ~seq ~last payload
    done

  let read c n = Block.Q.read c.rq n

  let read_msg c =
    match Block.Q.get c.rq with
    | Some b -> Some (Block.to_string b)
    | None -> None

  let close c =
    if not c.closed_ then begin
      c.closed_ <- true;
      tx_ctl c "close";
      Circuit.hangup c.circ;
      Block.Q.force_put c.rq (Block.hangup ());
      Block.Q.close c.rq;
      Sim.Time.cancel c.ticker;
      Sim.Proc.kill c.kproc;
      Sim.Rendez.wakeup_all c.wwait
    end
end
