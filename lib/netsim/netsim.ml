module Eaddr = struct
  type t = int

  let is_hex c =
    (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

  let of_string s =
    if String.length s <> 12 || not (String.for_all is_hex s) then
      invalid_arg ("Eaddr.of_string: " ^ s);
    int_of_string ("0x" ^ s)

  let of_int i = i land 0xffff_ffff_ffff
  let to_string t = Printf.sprintf "%012x" t
  let broadcast = 0xffff_ffff_ffff
end

module Fault = struct
  (* A per-medium (or per-station) fault schedule.  Every decision is
     drawn from the engine's seeded RNG at transmit time, in a fixed
     order, so a given seed produces an identical fault pattern — and
     because a probability of zero draws nothing, an all-zero schedule
     consumes no randomness at all (existing seeded runs are
     unperturbed). *)

  type verdict = {
    v_drop : string option;  (* reason; None = deliver *)
    v_dup : bool;
    v_reorder : bool;
    v_delay : float;  (* added to propagation latency *)
  }

  let pass = { v_drop = None; v_dup = false; v_reorder = false; v_delay = 0. }

  type t = {
    mutable loss : float;  (* uniform per-frame loss *)
    (* Gilbert on/off loss: a two-state chain stepped once per frame;
       while "in burst" frames are lost with [burst_loss] *)
    mutable burst_enter : float;
    mutable burst_exit : float;
    mutable burst_loss : float;
    mutable in_burst : bool;
    mutable dup : float;  (* per-frame duplication probability *)
    mutable reorder : float;  (* per-frame probability of a late copy *)
    mutable reorder_delay : float;  (* how late: bounds the reordering *)
    mutable jitter : float;  (* uniform extra delay in [0, jitter) *)
    mutable partitions : (float * float) list;  (* absolute [from, until) *)
    mutable filter : (string -> string option) option;
        (* deterministic per-payload drop hook, for tests *)
  }

  let create () =
    {
      loss = 0.;
      burst_enter = 0.;
      burst_exit = 0.;
      burst_loss = 0.;
      in_burst = false;
      dup = 0.;
      reorder = 0.;
      reorder_delay = 2e-3;
      jitter = 0.;
      partitions = [];
      filter = None;
    }

  let check_prob fn p =
    if p < 0. || p > 1. || Float.is_nan p then
      invalid_arg (Printf.sprintf "Fault.%s: probability %g" fn p)

  let set_loss t p =
    check_prob "set_loss" p;
    t.loss <- p

  let set_burst t ~p_enter ~p_exit ~loss =
    check_prob "set_burst" p_enter;
    check_prob "set_burst" p_exit;
    check_prob "set_burst" loss;
    t.burst_enter <- p_enter;
    t.burst_exit <- p_exit;
    t.burst_loss <- loss;
    t.in_burst <- false

  let set_dup t p =
    check_prob "set_dup" p;
    t.dup <- p

  let set_reorder ?delay t p =
    check_prob "set_reorder" p;
    t.reorder <- p;
    match delay with None -> () | Some d -> t.reorder_delay <- d

  let set_jitter t j = t.jitter <- max 0. j

  let partition t ~from_ ~until =
    if until > from_ then
      t.partitions <- List.sort compare ((from_, until) :: t.partitions)

  let heal t = t.partitions <- []

  let flap t ~from_ ~until ~period ~down =
    (* a link that goes dark for the first [down] fraction of every
       [period], between [from_] and [until] *)
    if period <= 0. || down <= 0. then invalid_arg "Fault.flap";
    let rec go s =
      if s < until then begin
        partition t ~from_:s ~until:(min until (s +. (period *. min 1. down)));
        go (s +. period)
      end
    in
    go from_

  let partitioned t now =
    List.exists (fun (a, b) -> now >= a && now < b) t.partitions

  let set_filter t fn = t.filter <- Some fn

  let active t =
    t.loss > 0. || t.burst_enter > 0. || t.in_burst || t.dup > 0.
    || t.reorder > 0. || t.jitter > 0. || t.partitions <> []
    || t.filter <> None

  let decide t rng ~now payload =
    if partitioned t now then { pass with v_drop = Some "partition" }
    else
      match match t.filter with Some f -> f payload | None -> None with
      | Some reason -> { pass with v_drop = Some reason }
      | None ->
        if t.burst_enter > 0. || t.in_burst then begin
          let p = if t.in_burst then t.burst_exit else t.burst_enter in
          if p > 0. && Random.State.float rng 1.0 < p then
            t.in_burst <- not t.in_burst
        end;
        let ploss = t.loss +. (if t.in_burst then t.burst_loss else 0.) in
        if ploss > 0. && Random.State.float rng 1.0 < ploss then
          { pass with v_drop = Some (if t.in_burst then "burst" else "loss") }
        else begin
          let dup = t.dup > 0. && Random.State.float rng 1.0 < t.dup in
          let reorder =
            t.reorder > 0. && Random.State.float rng 1.0 < t.reorder
          in
          let delay =
            (if t.jitter > 0. then Random.State.float rng t.jitter else 0.)
            +. (if reorder then t.reorder_delay else 0.)
          in
          { v_drop = None; v_dup = dup; v_reorder = reorder; v_delay = delay }
        end

  (* merge a segment-level and a station-level verdict: first drop
     wins; dup/reorder or; delays add *)
  let combine a b =
    match (a.v_drop, b.v_drop) with
    | Some _, _ -> a
    | None, Some _ -> b
    | None, None ->
      {
        v_drop = None;
        v_dup = a.v_dup || b.v_dup;
        v_reorder = a.v_reorder || b.v_reorder;
        v_delay = a.v_delay +. b.v_delay;
      }

  let describe t =
    let parts =
      List.filter
        (fun s -> s <> "")
        [
          (if t.loss > 0. then Printf.sprintf "loss %.3f" t.loss else "");
          (if t.burst_enter > 0. then
             Printf.sprintf "burst %.3f/%.3f@%.2f" t.burst_enter t.burst_exit
               t.burst_loss
           else "");
          (if t.dup > 0. then Printf.sprintf "dup %.3f" t.dup else "");
          (if t.reorder > 0. then
             Printf.sprintf "reorder %.3f+%.1fms" t.reorder
               (t.reorder_delay *. 1e3)
           else "");
          (if t.jitter > 0. then
             Printf.sprintf "jitter %.1fms" (t.jitter *. 1e3)
           else "");
          (match t.partitions with
          | [] -> ""
          | ps -> Printf.sprintf "partitions %d" (List.length ps));
          (if t.filter <> None then "filter" else "");
        ]
    in
    if parts = [] then "none" else String.concat " " parts

  type kind = Drop | Dup | Reorder
  type tally = { mutable drops : int; mutable dups : int; mutable reorders : int }

  let tally () = { drops = 0; dups = 0; reorders = 0 }

  (* The choke point: every injected fault on every medium passes
     through here exactly once per affected receiver, bumping that
     receiver's tally and emitting the tagged Obs event so snoopy and
     p9stat can attribute it. *)
  let inject tally eng ~medium kind ~reason ~src ~dst ~proto ~bytes ~lost =
    (match kind with
    | Drop -> tally.drops <- tally.drops + 1
    | Dup -> tally.dups <- tally.dups + 1
    | Reorder -> tally.reorders <- tally.reorders + 1);
    match Sim.Engine.obs eng with
    | None -> ()
    | Some tr ->
      let kind_s =
        match kind with
        | Drop -> if reason = "partition" then "partition" else "drop"
        | Dup -> "dup"
        | Reorder -> "reorder"
      in
      Obs.Trace.emit tr
        (Obs.Event.Fault { medium; kind = kind_s; reason; src; dst; proto; bytes });
      Obs.Trace.bump tr ("fault." ^ kind_s) 1;
      if kind = Drop then Obs.Trace.bump tr lost 1
end

module Ether = struct
  type frame = {
    src : Eaddr.t;
    dst : Eaddr.t;
    etype : int;
    payload : string;
  }

  type stats = {
    mutable in_packets : int;
    mutable out_packets : int;
    mutable in_bytes : int;
    mutable out_bytes : int;
    mutable crc_errors : int;
    mutable overflows : int;
    injected : Fault.tally;
  }

  module Stations = Hashtbl.Make (Int)

  (* all floats, so stores into it box nothing *)
  type clock = {
    mutable busy_until : float;  (* the wire is busy until then *)
    mutable deliver_at : float;  (* the frame being offered arrives then *)
  }

  type nic = {
    addr : Eaddr.t;
    text : string;  (* [addr] rendered once, at attach *)
    seg : t;
    mutable rx : frame -> unit;
    mutable promiscuous : bool;
    stats : stats;
    nfault : Fault.t;
  }

  and t = {
    ename : string;
    eng : Sim.Engine.t;
    bandwidth : float;
    latency : float;
    frame_overhead : float;
    sfault : Fault.t;
    mutable stations : nic list;  (* newest first: the scan order *)
    by_addr : nic Stations.t;
    mutable promisc : int;  (* promiscuous stations attached *)
    clock : clock;
  }

  (* shorter payloads are padded on the wire for timing purposes *)
  let min_frame = 60

  (* 14-byte Ethernet header + 4-byte CRC, counted in wire time *)
  let header_bytes = 18

  (* the innermost protocol, read from the wire bytes: unfragmented IP
     with a 20-byte header names its transport *)
  let frame_proto ~etype payload =
    let get16 off = (Char.code payload.[off] lsl 8) lor Char.code payload.[off + 1] in
    match etype with
    | 0x0806 -> "arp"
    | 0x0800 ->
      if String.length payload < 20 || Char.code payload.[0] <> 0x45 then "ip"
      else if get16 6 land 0x1fff <> 0 then "ip"
      else (
        match Char.code payload.[9] with
        | 40 -> "il"
        | 17 -> "udp"
        | 6 -> "tcp"
        | _ -> "ip")
    | _ -> "ether"

  let create ?(bandwidth_bps = 10e6) ?(latency = 50e-6) ?(loss = 0.)
      ?(frame_overhead = 0.) ~name eng =
    let sfault = Fault.create () in
    Fault.set_loss sfault loss;
    {
      ename = name;
      eng;
      bandwidth = bandwidth_bps;
      latency;
      frame_overhead;
      sfault;
      stations = [];
      by_addr = Stations.create 16;
      promisc = 0;
      clock = { busy_until = 0.; deliver_at = 0. };
    }

  let faults t = t.sfault
  let name t = t.ename
  let engine t = t.eng

  let attach t addr =
    if Stations.mem t.by_addr addr then
      invalid_arg
        (Printf.sprintf "Ether.attach: %s already on %s"
           (Eaddr.to_string addr) t.ename);
    let nic =
      {
        addr;
        text = Eaddr.to_string addr;
        seg = t;
        rx = ignore;
        promiscuous = false;
        stats =
          {
            in_packets = 0;
            out_packets = 0;
            in_bytes = 0;
            out_bytes = 0;
            crc_errors = 0;
            overflows = 0;
            injected = Fault.tally ();
          };
        nfault = Fault.create ();
      }
    in
    t.stations <- nic :: t.stations;
    Stations.replace t.by_addr addr nic;
    nic

  let nic_addr n = n.addr
  let nic_stats n = n.stats
  let nic_faults n = n.nfault
  let set_rx n fn = n.rx <- fn

  let set_promiscuous n b =
    if n.promiscuous <> b then begin
      n.promiscuous <- b;
      n.seg.promisc <- (n.seg.promisc + if b then 1 else -1)
    end

  let broadcast_text = Eaddr.to_string Eaddr.broadcast

  (* an address as text, rendered afresh only when no station on the
     segment owns it *)
  let seg_text t a =
    if a = Eaddr.broadcast then broadcast_text
    else
      match Stations.find t.by_addr a with
      | n -> n.text
      | exception Not_found -> Eaddr.to_string a

  let text n a = seg_text n.seg a

  let wire_bits frame =
    let n = String.length frame.payload in
    ((if n > min_frame then n else min_frame) + header_bytes) * 8

  (* inlined: a float returned from a call is boxed *)
  let[@inline] wire_time t frame =
    (float_of_int (wire_bits frame) /. t.bandwidth) +. t.frame_overhead

  let emit_pkt t op frame =
    match Sim.Engine.obs t.eng with
    | None -> ()
    | Some tr ->
      let proto = frame_proto ~etype:frame.etype frame.payload in
      Obs.Trace.emit tr
        (Obs.Event.Packet
           {
             medium = t.ename;
             op;
             src = seg_text t frame.src;
             dst = seg_text t frame.dst;
             proto;
             bytes = String.length frame.payload;
           });
      Obs.Trace.bump tr
        (match op with
        | Obs.Event.Tx -> "pkt.tx"
        | Obs.Event.Rx -> "pkt.rx"
        | Obs.Event.Drop _ -> "pkt.drop")
        1

  let inject t station kind ~reason frame =
    (* frames lost on the wire still look like CRC noise to the
       station *)
    (match (kind, reason) with
    | Fault.Drop, ("loss" | "burst" | "crc") ->
      station.stats.crc_errors <- station.stats.crc_errors + 1
    | _ -> ());
    Fault.inject station.stats.injected t.eng ~medium:t.ename kind ~reason
      ~src:(seg_text t frame.src) ~dst:station.text
      ~proto:(frame_proto ~etype:frame.etype frame.payload)
      ~bytes:(String.length frame.payload) ~lost:"pkt.drop"

  let rx_deliver t station frame =
    station.stats.in_packets <- station.stats.in_packets + 1;
    station.stats.in_bytes <-
      station.stats.in_bytes + String.length frame.payload;
    emit_pkt t Obs.Event.Rx frame;
    station.rx frame

  (* one station's share of a frame: its own fault draws, then the
     delivery event *)
  let offer t station frame seg_v =
    let v =
      if Fault.active station.nfault then
        Fault.combine seg_v
          (Fault.decide station.nfault (Sim.Engine.random t.eng)
             ~now:(Sim.Engine.now t.eng) frame.payload)
      else seg_v
    in
    match v.Fault.v_drop with
    | Some reason -> inject t station Fault.Drop ~reason frame
    | None ->
      if v.Fault.v_reorder then
        inject t station Fault.Reorder ~reason:"reorder" frame;
      Sim.Engine.at ~label:"ether" t.eng
        (t.clock.deliver_at +. v.Fault.v_delay)
        (fun () -> rx_deliver t station frame);
      if v.Fault.v_dup then begin
        inject t station Fault.Dup ~reason:"dup" frame;
        (* the copy trails by one frame time, like a stale
           retransmission from a confused bridge *)
        Sim.Engine.at ~label:"ether" t.eng
          (t.clock.deliver_at +. v.Fault.v_delay +. wire_time t frame)
          (fun () -> rx_deliver t station frame)
      end

  (* every station but the sender that wants the frame, in station
     order *)
  let rec scan t sender frame seg_v = function
    | [] -> ()
    | station :: rest ->
      if
        station != sender
        && (station.promiscuous || station.addr = frame.dst
           || frame.dst = Eaddr.broadcast)
      then offer t station frame seg_v;
      scan t sender frame seg_v rest

  let transmit n frame =
    let t = n.seg in
    let now = Sim.Engine.now t.eng in
    n.stats.out_packets <- n.stats.out_packets + 1;
    n.stats.out_bytes <- n.stats.out_bytes + String.length frame.payload;
    emit_pkt t Obs.Event.Tx frame;
    (* the shared medium serializes frames *)
    let c = t.clock in
    let start = if c.busy_until > now then c.busy_until else now in
    c.busy_until <- start +. wire_time t frame;
    c.deliver_at <- c.busy_until +. t.latency;
    (* all fault decisions are drawn here, at transmit time, in station
       order — never inside delayed callbacks — so the draw sequence
       (and with it the whole run) is a pure function of the seed *)
    let seg_v =
      if Fault.active t.sfault then
        Fault.decide t.sfault (Sim.Engine.random t.eng) ~now frame.payload
      else Fault.pass
    in
    if frame.dst = Eaddr.broadcast || t.promisc > 0 then
      scan t n frame seg_v t.stations
    else
      (* only the addressee wants a unicast frame, so it alone is
         offered it: the same draws as the scan *)
      match Stations.find t.by_addr frame.dst with
      | station -> if station != n then offer t station frame seg_v
      | exception Not_found -> ()
end

module Link = struct
  type endpoint = {
    eng : Sim.Engine.t;
    mutable rate : float;  (* bits per second *)
    byte_bits : int;
    latency : float;
    mutable peer : endpoint option;
    mutable rx : string -> unit;
    mutable busy_until : float;
  }

  let create_pair ~rate ~byte_bits ~latency eng =
    let mk () =
      { eng; rate; byte_bits; latency; peer = None; rx = ignore; busy_until = 0. }
    in
    let a = mk () and b = mk () in
    a.peer <- Some b;
    b.peer <- Some a;
    (a, b)

  let engine e = e.eng
  let rate e = e.rate
  let set_rx e fn = e.rx <- fn

  let set_rate e r =
    e.rate <- r;
    match e.peer with None -> () | Some p -> p.rate <- r

  let send e msg =
    match e.peer with
    | None -> ()
    | Some peer ->
      let now = Sim.Engine.now e.eng in
      let start = if e.busy_until > now then e.busy_until else now in
      let finish =
        start +. (float_of_int (String.length msg * e.byte_bits) /. e.rate)
      in
      e.busy_until <- finish;
      Sim.Engine.at ~label:"ether" e.eng (finish +. e.latency) (fun () ->
          peer.rx msg)
end
