(* What every workload hands main.ml, and the per-layer counters read
   off a finished world through the library's public accessors. *)

type outcome = {
  attempted : int;
  failed : int;  (** ops that raised or returned wrong bytes *)
  lats : float array;  (** virtual seconds of each completed op *)
  first : float;  (** virtual start of the first op *)
  last : float;  (** virtual finish of the last op *)
  fingerprint : (string * string) list;
      (** deterministic counts; every repetition in one process must
          reproduce them exactly *)
}

type instance = {
  world : P9net.World.t;
  probe : Probe.t option;  (** present in the traced run only *)
  horizon : float;  (** the measured [World.run] stops here at the latest *)
  outcome : unit -> outcome;
  layers : unit -> (string * float) list;
      (** workload-specific per-layer figures (cfs, 9P fids, rpc counts) *)
  daemons : string list;
      (** name prefixes of processes expected to idle forever *)
  micro : unit -> Micro.inputs;
      (** the traced run's captured primitives' inputs *)
}

type t = {
  name : string;
  default_seed : int;
  setup : seed:int -> traced:bool -> instance;
      (** build and boot the world up to just before the first op *)
}

let hosts (w : P9net.World.t) = List.map snd w.P9net.World.hosts

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let opt f = function Some x -> f x | None -> 0

(* Counters summed over every host of the world. *)
let net_layers (w : P9net.World.t) ~ops =
  let hs = hosts w in
  let per_op n = float_of_int n /. float_of_int (max 1 ops) in
  let route f = sum (fun (h : P9net.Host.t) -> opt (fun n -> f (Route.stats n)) h.node) hs in
  let il f = sum (fun (h : P9net.Host.t) -> opt f h.il) hs in
  let tcp f =
    sum (fun (h : P9net.Host.t) -> opt f h.tcp + opt f h.tcpcc) hs
  in
  let cs_hits = sum (fun (h : P9net.Host.t) -> fst (P9net.Cs.cache_stats h.cs)) hs in
  let cs_misses = sum (fun (h : P9net.Host.t) -> snd (P9net.Cs.cache_stats h.cs)) hs in
  let ip_out =
    sum
      (fun (h : P9net.Host.t) ->
        sum (fun st -> (Inet.Ip.counters st).Inet.Ip.ip_out) h.ipstacks)
      hs
  in
  let drops =
    route (fun c ->
        c.Route.no_route + c.Route.ttl_exceeded + c.Route.blackholed
        + c.Route.transit_refused + c.Route.bad_header)
  in
  [
    ("ip.pkts_per_op", per_op ip_out);
    ("route.forwarded_per_op", per_op (route (fun c -> c.Route.forwarded)));
    ("route.tun_tx_per_op", per_op (route (fun c -> c.Route.tun_tx)));
    ("route.drops", float_of_int drops);
    ("il.msgs_per_op", per_op (il (fun s -> (Inet.Il.counters s).Inet.Il.msgs_sent)));
    ("il.retransmits", float_of_int (il (fun s -> (Inet.Il.counters s).Inet.Il.retransmits)));
    ("il.queries", float_of_int (il (fun s -> (Inet.Il.counters s).Inet.Il.queries_sent)));
    ("tcp.segs_per_op", per_op (tcp (fun s -> (Inet.Tcp.counters s).Inet.Tcp.segs_sent)));
    ("tcp.retransmits", float_of_int (tcp (fun s -> (Inet.Tcp.counters s).Inet.Tcp.retransmits)));
    ( "cs.cache_hit_ratio",
      if cs_hits + cs_misses = 0 then 0.
      else float_of_int cs_hits /. float_of_int (cs_hits + cs_misses) );
    ("listener.refused", float_of_int (il Inet.Il.refusals + tcp Inet.Tcp.refusals));
    ("il.conv_count_end", float_of_int (il Inet.Il.conv_count));
    ("tcp.conv_count_end", float_of_int (tcp Inet.Tcp.conv_count));
  ]

let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Processes blocked forever at the end that are not declared daemons.
   A name may carry its host as a "host:" prefix. *)
let stray_stalled inst =
  let eng = inst.world.P9net.World.eng in
  let bare name =
    match String.index_opt name ':' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  List.filter
    (fun name ->
      not (List.exists (fun p -> starts_with p name || starts_with p (bare name)) inst.daemons))
    (Sim.Engine.stalled eng)

let hit_ratio hits misses =
  if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses)
