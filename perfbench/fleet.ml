(* fleet-boot: the tiered boot storm.  Every terminal of World.fleet
   powers on at the same virtual instant, dials its rack's cfs, stacks a
   private terminal-tier Cfs on that connection and replays the
   Bootstage trace as 512-byte Treads.  Path: terminal Cfs -> rack Cfs
   (single-flight) -> origin exportfs.  An op is one terminal's full
   boot; it is correct when it read exactly Bootstage.trace_bytes, every
   file at its full size.

   The seed deals the power-on order (the order of same-instant events).
   The world's own seed stays 17: it belongs to the simulated world, not
   to the inputs, and varying it moves the storm between two regimes
   about 4 % apart.  With [~golden:true] the fleet is 8 racks x 13
   terminals in rack-major order, the tiered side of
   bench/golden/BENCH_bootstorm.json. *)

let storm_at = 5.0
let racks = 8
let terminals = 30
let world_seed = 17

let split_path p = List.filter (fun s -> s <> "") (String.split_on_char '/' p)

let setup ?(golden = false) ~seed ~traced () =
  let racks, terminals = if golden then (8, 13) else (racks, terminals) in
  let origin = Probe.tally () in
  let tap _rack tr = Probe.counted origin tr in
  let fl = P9net.World.fleet ~seed:world_seed ~racks ~terminals ~tap () in
  let w = fl.P9net.World.f_world in
  let eng = w.P9net.World.eng in
  let db = w.P9net.World.db in
  let probe = if traced then Some (Probe.create eng) else None in
  (match probe with
  | Some p -> Probe.capture p (List.assoc "spine" w.P9net.World.segments)
  | None -> ());
  let sys0 = P9net.World.terminal_sys 0 0 in
  let order = Array.of_list fl.P9net.World.f_terminals in
  let n = Array.length order in
  if not golden then begin
    let rng = Random.State.make [| seed |] in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done
  end;
  let lats = ref [] and booted = ref 0 in
  let first = ref infinity and last = ref 0. in
  let term_caches = ref [] and open_fids = ref 0 in
  Array.iteri
    (fun op (rack, tname) ->
      let th = P9net.World.host w tname in
      let trace = P9net.Bootstage.trace ~db ~sys:tname in
      let sizes = P9net.Bootstage.all_files ~db ~sys:tname in
      let trace_bytes = P9net.Bootstage.trace_bytes ~db ~sys:tname in
      ignore
        (P9net.Host.spawn th "boot" (fun env ->
             Sim.Time.sleep eng (storm_at -. Sim.Engine.now eng);
             let c = Probe.ctx () in
             c.c_op <- op;
             let t0 = Sim.Engine.now eng in
             if t0 < !first then first := t0;
             match
               Probe.within probe c "op" "boot" (fun () ->
                   let conn =
                     Probe.dial probe c env ~tries:60
                       ~pause:(fun () -> Sim.Time.sleep eng 0.25)
                       (Printf.sprintf "il!%s!9fs" rack)
                   in
                   let wire = P9net.Fdtrans.of_fd env conn.P9net.Dial.data_fd in
                   let wire =
                     match probe with Some p -> Probe.wire p c wire | None -> wire
                   in
                   let cache = Cfs.make eng ~upstream:wire () in
                   term_caches := cache :: !term_caches;
                   let client = Ninep.Client.make eng (Cfs.transport cache) in
                   Ninep.Client.session client;
                   let root = Ninep.Client.attach client ~uname:tname ~aname:"" in
                   let read_ok =
                     List.fold_left
                       (fun (total, ok) path ->
                         let fid = Ninep.Client.walk_path client root (split_path path) in
                         ignore (Ninep.Client.open_ client fid Ninep.Fcall.Oread);
                         let rec go off =
                           let data =
                             Ninep.Client.read client fid ~offset:(Int64.of_int off) ~count:512
                           in
                           if data = "" then off else go (off + String.length data)
                         in
                         let got = go 0 in
                         Ninep.Client.clunk client fid;
                         (total + got, ok && got = List.assoc path sizes))
                       (0, true) trace
                   in
                   (conn, client, root, read_ok))
             with
             | conn, client, root, (total, ok) ->
               let t1 = Sim.Engine.now eng in
               if t1 > !last then last := t1;
               lats := (t1 -. t0) :: !lats;
               if ok && total = trace_bytes then incr booted;
               (* power-off: release the root fid and the connection.
                  The golden run leaves them up, as bench/ does, so its
                  origin count has no clunk traffic in it. *)
               if not golden then begin
                 Ninep.Client.clunk client root;
                 open_fids := !open_fids + Ninep.Client.open_fids client;
                 Ninep.Client.hangup client;
                 P9net.Dial.hangup env conn
               end
             | exception _ -> ())))
    order;
  (* boot the fleet: rack cfsd processes dial the origin; stop just
     before the storm *)
  P9net.World.run ~until:(storm_at -. 1e-6) w;
  let outcome () =
    {
      Wl.attempted = n;
      (* a boot that raised, read the wrong bytes or never finished *)
      failed = n - !booted;
      lats = Array.of_list !lats;
      first = !first;
      last = !last;
      fingerprint =
        [
          ("engine_events", string_of_int (Sim.Engine.events eng));
          ("convergence_s", Printf.sprintf "%.6f" (!last -. storm_at));
          ("origin_round_trips", string_of_int origin.Probe.rts);
        ];
    }
  in
  let layers () =
    let sum_caches name = Wl.sum (fun c -> Cfs.counter c name) in
    let racks = Hashtbl.fold (fun _ c acc -> c :: acc) fl.P9net.World.f_caches [] in
    let per_op x = float_of_int x /. float_of_int n in
    [
      ("9p.open_fids_end", float_of_int !open_fids);
      ( "cfs.term_hit_ratio",
        Wl.hit_ratio (sum_caches "hits" !term_caches) (sum_caches "misses" !term_caches) );
      ("cfs.rack_hit_ratio", Wl.hit_ratio (sum_caches "hits" racks) (sum_caches "misses" racks));
      ("cfs.coalesced", float_of_int (sum_caches "coalesced" racks));
      ("cfs.origin_rts_per_op", per_op origin.Probe.rts);
      ("cfs.origin_bytes_per_op", per_op origin.Probe.bytes);
      ("cfs.write_through", float_of_int (sum_caches "write_through" (!term_caches @ racks)));
    ]
  in
  let micro () =
    let t0 = P9net.World.host w sys0 in
    let p = Option.get probe in
    {
      Micro.fcalls = p.Probe.messages.kept;
      packets = p.Probe.packets.kept;
      table = Route.table (Option.get fl.P9net.World.f_origin.P9net.Host.node);
      ns = Vfs.Env.ns t0.P9net.Host.env;
      paths = "/net/cs" :: "/net/il/clone" :: List.map (fun (_, d) -> d ^ "/status") p.Probe.dials;
      cs = t0.P9net.Host.cs;
      addrs = List.map fst p.Probe.dials;
      db;
      names = List.map snd fl.P9net.World.f_terminals;
    }
  in
  {
    Wl.world = w;
    probe;
    horizon = 3600.;
    outcome;
    layers;
    daemons = [ "ether"; "listen"; "il"; "cfsd"; "serve"; "exportfs"; "9p"; "cfs" ];
    micro;
  }

let workload =
  { Wl.name = "fleet-boot"; default_seed = 17; setup = (fun ~seed ~traced -> setup ~seed ~traced ()) }
