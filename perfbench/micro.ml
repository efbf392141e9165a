(* Wall-clock cost of non-yielding public primitives, timed on inputs
   captured from the workload's own traffic during the traced run. *)

type inputs = {
  fcalls : string list;  (** raw 9P messages seen on wrapped transports *)
  packets : string list;  (** IP packets heard by the capture station *)
  table : Route.Table.t;  (** a routing table of the workload's world *)
  ns : Vfs.Ns.t;  (** a caller's name space ... *)
  paths : string list;  (** ... and local paths its calls walked *)
  cs : P9net.Cs.t;  (** a dialing host's connection server ... *)
  addrs : string list;  (** ... and the addresses it translated *)
  db : Ndb.t;
  names : string list;  (** [sys=] values the workload looked up *)
}

(* Median ns/call over 25 batches, each calibrated to at least 1 ms.
   0 when the workload produced no input for the primitive. *)
let ns_per_call inputs f =
  let a = Array.of_list inputs in
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    let batch k =
      let t0 = Unix.gettimeofday () in
      for i = 0 to k - 1 do
        f a.(i mod n)
      done;
      Unix.gettimeofday () -. t0
    in
    let k = ref 8 in
    while batch !k < 1e-3 do
      k := !k * 2
    done;
    let samples =
      List.init 25 (fun _ -> batch !k /. float_of_int !k *. 1e9)
    in
    Measure.median samples
  end

(* Exactly [size] bytes of captured traffic per input: a prefix of a
   packet at least that long, else consecutive packets joined. *)
let slices packets size =
  let long = List.filter (fun p -> String.length p >= size) packets in
  if long <> [] then List.map (fun p -> String.sub p 0 size) long
  else begin
    let all = String.concat "" packets in
    List.init (String.length all / size) (fun i -> String.sub all (i * size) size)
  end

let take n l = List.filteri (fun i _ -> i < n) l

let run (m : inputs) =
  let msgs =
    List.filter_map
      (fun s -> Result.to_option (Ninep.Fcall.decode_opt s))
      m.fcalls
  in
  let dsts =
    List.filter_map
      (fun p -> Option.map (fun h -> h.Inet.Ip.h_dst) (Inet.Ip.decode_header p))
      m.packets
  in
  let blocks = List.map (fun p -> Block.make p) (take 256 m.packets) in
  let q = Block.Q.create ~limit:max_int (Sim.Engine.create ()) in
  let paths =
    List.filter
      (fun p ->
        match Vfs.Ns.resolve m.ns p with
        | c ->
          Vfs.Chan.clunk c;
          true
        | exception _ -> false)
      (take 256 m.paths)
  in
  let chksum size =
    ns_per_call (take 256 (slices m.packets size)) (fun s ->
        ignore (Sys.opaque_identity (Inet.Chksum.checksum s)))
  in
  [
    ( "micro.fcall_encode_ns",
      ns_per_call msgs (fun f -> ignore (Sys.opaque_identity (Ninep.Fcall.encode f))) );
    ( "micro.fcall_decode_ns",
      ns_per_call m.fcalls (fun s ->
          ignore (Sys.opaque_identity (Ninep.Fcall.decode_opt s))) );
    ("micro.chksum_40_ns", chksum 40);
    ("micro.chksum_552_ns", chksum 552);
    ("micro.chksum_1500_ns", chksum 1500);
    ( "micro.route_lookup_ns",
      ns_per_call dsts (fun a ->
          ignore (Sys.opaque_identity (Route.Table.lookup m.table a))) );
    ( "micro.block_q_ns",
      ns_per_call blocks (fun b ->
          Block.Q.put q b;
          ignore (Sys.opaque_identity (Block.Q.get q))) );
    ( "micro.ns_walk_ns",
      ns_per_call paths (fun p -> Vfs.Chan.clunk (Vfs.Ns.resolve m.ns p)) );
    ( "micro.cs_translate_ns",
      ns_per_call (take 256 m.addrs) (fun a ->
          ignore (Sys.opaque_identity (P9net.Cs.translate m.cs a))) );
    ( "micro.ndb_search_ns",
      ns_per_call (take 256 m.names) (fun v ->
          ignore (Sys.opaque_identity (Ndb.search m.db ~attr:"sys" ~value:v))) );
  ]
