(* Instrumentation for the traced run, all of it outside the library:
   spans around the benchmark's own calls into each layer, a counting
   9P transport wrapper, and a promiscuous capture station whose frames
   feed the micro timings.  [within] and [dial] take a [t option]; with
   [None] (the measured runs) they only call through. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  op : int;  (** the workload op this span belongs to; -1 for none *)
  layer : string;  (** "op", "dial", "vfs" or "9p" *)
  name : string;
  t0 : float;  (** virtual seconds *)
  mutable t1 : float;  (** nan while open *)
}

(* Where a simulated caller is: its current op and innermost span.  A
   wrapped transport reads it to parent the RPCs it carries. *)
type ctx = { mutable c_op : int; mutable c_span : int }

let ctx () = { c_op = -1; c_span = 0 }

(* keep every [stride]-th sample, up to [cap] *)
type sampler = { stride : int; cap : int; mutable seen : int; mutable kept : string list; mutable n : int }

let sampler ~stride ~cap = { stride; cap; seen = 0; kept = []; n = 0 }

let sample s x =
  if s.n < s.cap && s.seen mod s.stride = 0 then begin
    s.kept <- x :: s.kept;
    s.n <- s.n + 1
  end;
  s.seen <- s.seen + 1

type t = {
  eng : Sim.Engine.t;
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable dial_retries : int;
  mutable rpcs : int;  (** T-messages through wrapped transports *)
  mutable rpc_bytes : int;  (** bytes both ways *)
  mutable rtts : float list;  (** virtual seconds per matched T/R pair *)
  messages : sampler;  (** raw 9P messages, both directions *)
  packets : sampler;  (** IP packets off the capture station *)
  mutable dials : (string * string) list;  (** (address, connection dir) *)
}

let create eng =
  {
    eng;
    spans = [];
    next_id = 1;
    dial_retries = 0;
    rpcs = 0;
    rpc_bytes = 0;
    rtts = [];
    messages = sampler ~stride:7 ~cap:4096;
    packets = sampler ~stride:5 ~cap:4096;
    dials = [];
  }

let enter p ~parent ~op layer name =
  let s =
    { id = p.next_id; parent; op; layer; name; t0 = Sim.Engine.now p.eng; t1 = nan }
  in
  p.next_id <- p.next_id + 1;
  p.spans <- s :: p.spans;
  s

let close p s = s.t1 <- Sim.Engine.now p.eng

(* [within probe c layer name f] runs [f] inside a span parented on the
   caller's innermost span, which it becomes for the duration. *)
let within probe c layer name f =
  match probe with
  | None -> f ()
  | Some p ->
    let s = enter p ~parent:c.c_span ~op:c.c_op layer name in
    let outer = c.c_span in
    c.c_span <- s.id;
    Fun.protect
      ~finally:(fun () ->
        c.c_span <- outer;
        close p s)
      f

(* The dial every workload makes: Dial.redial, counting the pauses. *)
let dial probe c env ~tries ~pause addr =
  let pause =
    match probe with
    | None -> pause
    | Some p ->
      fun () ->
        p.dial_retries <- p.dial_retries + 1;
        pause ()
  in
  within probe c "dial" addr (fun () ->
      let conn = P9net.Dial.redial env ~tries ~pause addr in
      (match probe with
      | Some p -> p.dials <- (addr, conn.P9net.Dial.dir) :: p.dials
      | None -> ());
      conn)

(* A counting 9P transport: one span per RPC, opened at the T-message
   and closed at the R-message with the same tag. *)
let wire p c (tr : Ninep.Transport.t) =
  let open_rpcs = Hashtbl.create 8 in
  let tag_of m =
    match Ninep.Fcall.decode_opt m with
    | Ok (Ninep.Fcall.T (tag, tm)) -> `T (tag, Ninep.Fcall.tmsg_name tm)
    | Ok (Ninep.Fcall.R (tag, _)) -> `R tag
    | Error _ -> `Bad
  in
  {
    Ninep.Transport.t_send =
      (fun m ->
        p.rpcs <- p.rpcs + 1;
        p.rpc_bytes <- p.rpc_bytes + String.length m;
        sample p.messages m;
        (match tag_of m with
        | `T (tag, name) ->
          Hashtbl.replace open_rpcs tag
            (enter p ~parent:c.c_span ~op:c.c_op "9p" name)
        | `R _ | `Bad -> ());
        tr.Ninep.Transport.t_send m);
    t_recv =
      (fun () ->
        let r = tr.Ninep.Transport.t_recv () in
        (match r with
        | Some m -> (
          p.rpc_bytes <- p.rpc_bytes + String.length m;
          sample p.messages m;
          match tag_of m with
          | `R tag -> (
            match Hashtbl.find_opt open_rpcs tag with
            | Some s ->
              Hashtbl.remove open_rpcs tag;
              close p s;
              p.rtts <- (s.t1 -. s.t0) :: p.rtts
            | None -> ())
          | `T _ | `Bad -> ())
        | None -> ());
        r);
    t_close = tr.Ninep.Transport.t_close;
  }

(* Plain round-trip and byte counts, e.g. on a rack's origin link. *)
type tally = { mutable rts : int; mutable bytes : int }

let tally () = { rts = 0; bytes = 0 }

let counted t (tr : Ninep.Transport.t) =
  {
    Ninep.Transport.t_send =
      (fun m ->
        t.rts <- t.rts + 1;
        t.bytes <- t.bytes + String.length m;
        tr.Ninep.Transport.t_send m);
    t_recv =
      (fun () ->
        let r = tr.Ninep.Transport.t_recv () in
        (match r with Some m -> t.bytes <- t.bytes + String.length m | None -> ());
        r);
    t_close = tr.Ninep.Transport.t_close;
  }

(* A promiscuous station on [seg] sampling the IP packets it hears.  It
   adds one delivery event per frame on that segment and nothing else. *)
let capture p seg =
  let nic = Netsim.Ether.attach seg (Netsim.Eaddr.of_string "feedbeef0001") in
  Netsim.Ether.set_promiscuous nic true;
  Netsim.Ether.set_rx nic (fun (fr : Netsim.Ether.frame) ->
      if fr.etype = 0x800 then sample p.packets fr.payload)

let spans p = List.rev p.spans

(* Self time per layer: each span's duration minus the part of it that
   its children's intervals cover. *)
let self_times p =
  let kids = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add kids s.parent (s.t0, s.t1))
    p.spans;
  let acc = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if not (Float.is_nan s.t1) then begin
        let ivs =
          List.sort compare
            (List.map
               (fun (a, b) -> (Float.max a s.t0, Float.min b s.t1))
               (Hashtbl.find_all kids s.id))
        in
        let covered, _ =
          List.fold_left
            (fun (cov, reach) (a, b) ->
              let a = Float.max a reach in
              if b > a then (cov +. (b -. a), b) else (cov, reach))
            (0., s.t0) ivs
        in
        let self = Float.max 0. (s.t1 -. s.t0 -. covered) in
        let prev = Option.value ~default:0. (Hashtbl.find_opt acc s.layer) in
        Hashtbl.replace acc s.layer (prev +. self)
      end)
    p.spans;
  fun layer -> Option.value ~default:0. (Hashtbl.find_opt acc layer)

(* Virtual durations of the closed spans of one layer (optionally one
   name within it). *)
let durations ?name p layer =
  List.filter_map
    (fun s ->
      if s.layer = layer
         && (match name with None -> true | Some n -> s.name = n)
         && not (Float.is_nan s.t1)
      then Some (s.t1 -. s.t0)
      else None)
    p.spans

let write_tsv p path =
  let oc = open_out path in
  output_string oc "id\tparent\top\tlayer\tname\tt0\tt1\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%s\t%.9f\t%.9f\n" s.id s.parent s.op
        s.layer s.name s.t0 s.t1)
    (spans p);
  close_out oc
