(* The routed swarm: the swarm benchmark pushed through a real
   internet.  Genndb.subnetted describes [leaves] client subnets, each
   behind its own gateway, two Ethernet backbones joined by a
   point-to-point IP-over-Datakit tunnel, and a server subnet — every
   conversation crosses at least two gateway hops, and conversations
   from the left half of the tree also transit the Datakit fabric.

   The shape of the measurement is the swarm's: every client dials
   [il!swarmsrv!echo] through its own connection server, parks at a
   barrier once connected so all conversations are simultaneously
   established, and the releasing client samples the server stack's
   conversation table.  What is new here is what the gateways report:
   forwarded packet counts, tunnel cell counts, and the drop counters
   from the routing choke point — a healthy run forwards millions of
   packets and drops none. *)

let leaves = 16
let clients_per_leaf = 14
let convs_per_client = 45
let msg_bytes = 512
let ramp_step = 0.002 (* seconds of virtual time between dials *)

type result = {
  r_total : int;
  r_converged : bool;
  r_completed : int;
  r_peak_convs : int;  (* server conversation table at barrier release *)
  r_segments : int;  (* Ethernet segments + the Datakit transit *)
  r_gateways : int;
  r_elapsed : float;  (* virtual seconds until the last client finished *)
  r_events : int;
  r_forwarded : int;  (* summed over every gateway node *)
  r_tun_tx : int;  (* IP packets into the Datakit tunnel *)
  r_tun_rx : int;
  r_drops : int;  (* no_route + ttl_exceeded + blackhole + refused + badhdr *)
  r_refused : int;  (* listener backlog refusals at the server *)
  r_cs_hits : int;
  r_cs_misses : int;
}

let events_per_conv r = float_of_int r.r_events /. float_of_int r.r_total

let run_once ~seed ~leaves ~clients_per_leaf ~convs_per_client =
  let n_clients = leaves * clients_per_leaf in
  let total = n_clients * convs_per_client in
  let db = Ndb.of_string (Genndb.subnetted ~leaves ~clients_per_leaf ()) in
  (* fast wires for the same reason as the flat swarm: the object of
     study is the routed event economy, not congestion collapse *)
  let w =
    P9net.World.routed ~seed ~ether_bandwidth:100e6 ~dk_bandwidth:100e6 ~db ()
  in
  let eng = w.P9net.World.eng in
  let tr = Obs.Trace.create () in
  Sim.Engine.attach_obs eng tr;
  let prof = Obs.Prof.create ~clock:Unix.gettimeofday () in
  Sim.Engine.attach_prof eng prof;
  (* gateways first, so tunnel listeners are announced before anything
     routes into them; then the server; then the leaves *)
  let gateways =
    List.init leaves (fun k -> P9net.World.add_host w (Genndb.gw_sys (k + 1)))
    @ [ P9net.World.add_host w "gwcorel"; P9net.World.add_host w "gwcorer" ]
  in
  let server = P9net.World.add_host w Genndb.server_sys in
  let clients =
    List.concat
      (List.init leaves (fun k ->
           List.init clients_per_leaf (fun i ->
               P9net.World.add_host w (Genndb.client_sys (k + 1) (i + 1)))))
  in
  P9net.World.autoroute w;
  Swarm_bench.serve_echo eng server "il!*!echo";
  let barrier = Sim.Rendez.create eng in
  let arrived = ref 0 and peak = ref 0 in
  let completed = ref 0 and finish = ref 0. in
  let server_convs () =
    Option.fold ~none:0 ~some:Inet.Il.conv_count server.P9net.Host.il
  in
  let payload = String.make msg_bytes 's' in
  List.iteri
    (fun hi host ->
      for ci = 0 to convs_per_client - 1 do
        let idx = (hi * convs_per_client) + ci in
        ignore
          (P9net.Host.spawn host
             (Printf.sprintf "rswarm%d" idx)
             (fun env ->
               Sim.Time.sleep eng (float_of_int idx *. ramp_step);
               let conn =
                 P9net.Dial.redial env ~tries:20
                   ~pause:(fun () -> Sim.Time.sleep eng 0.05)
                   "il!swarmsrv!echo"
               in
               Swarm_bench.echo_once env conn.P9net.Dial.data_fd payload;
               incr arrived;
               if !arrived = total then begin
                 peak := server_convs ();
                 Sim.Rendez.wakeup_all barrier
               end
               else Sim.Rendez.sleep barrier;
               Sim.Time.sleep eng (float_of_int idx *. ramp_step);
               Swarm_bench.echo_once env conn.P9net.Dial.data_fd payload;
               P9net.Dial.hangup env conn;
               incr completed;
               if !completed = total then finish := Sim.Engine.now eng))
      done)
    clients;
  P9net.World.run ~until:900.0 w;
  let forwarded = ref 0
  and tun_tx = ref 0
  and tun_rx = ref 0
  and drops = ref 0 in
  List.iter
    (fun gw ->
      match gw.P9net.Host.node with
      | Some node ->
        let c = Route.stats node in
        forwarded := !forwarded + c.Route.forwarded;
        tun_tx := !tun_tx + c.Route.tun_tx;
        tun_rx := !tun_rx + c.Route.tun_rx;
        drops :=
          !drops + c.Route.no_route + c.Route.ttl_exceeded + c.Route.blackholed
          + c.Route.transit_refused + c.Route.bad_header
      | None -> ())
    gateways;
  let refused =
    Option.fold ~none:0 ~some:Inet.Il.refusals server.P9net.Host.il
  in
  let hits, misses = Swarm_bench.cs_stats clients in
  ( {
      r_total = total;
      r_converged = !completed = total;
      r_completed = !completed;
      r_peak_convs = !peak;
      r_segments = List.length w.P9net.World.segments + 1;
      r_gateways = List.length gateways;
      r_elapsed = !finish;
      r_events = Sim.Engine.events eng;
      r_forwarded = !forwarded;
      r_tun_tx = !tun_tx;
      r_tun_rx = !tun_rx;
      r_drops = !drops;
      r_refused = refused;
      r_cs_hits = hits;
      r_cs_misses = misses;
    },
    Obs.Prof.report prof )

let run ?(seed = 11) ?(leaves = leaves) ?(clients_per_leaf = clients_per_leaf)
    ?(convs_per_client = convs_per_client) () =
  let r, perf = run_once ~seed ~leaves ~clients_per_leaf ~convs_per_client in
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\n";
  Printf.bprintf b "  \"bench\": \"routed_swarm\",\n";
  Printf.bprintf b "  \"seed\": %d,\n" seed;
  Printf.bprintf b "  \"leaves\": %d,\n" leaves;
  Printf.bprintf b "  \"clients_per_leaf\": %d,\n" clients_per_leaf;
  Printf.bprintf b "  \"convs_per_client\": %d,\n" convs_per_client;
  Printf.bprintf b "  \"convs\": %d,\n" r.r_total;
  Printf.bprintf b "  \"msg_bytes\": %d,\n" msg_bytes;
  Printf.bprintf b "  \"segments\": %d,\n" r.r_segments;
  Printf.bprintf b "  \"gateways\": %d,\n" r.r_gateways;
  Printf.bprintf b
    "  \"il\": {\"converged\": %b, \"completed\": %d, \"peak_convs\": %d, \
     \"elapsed_s\": %.6f, \"engine_events\": %d, \"events_per_conv\": %.2f, \
     \"forwarded\": %d, \"tun_tx\": %d, \"tun_rx\": %d, \"route_drops\": %d, \
     \"backlog_refused\": %d, \"cs_cache_hits\": %d, \"cs_cache_misses\": %d}\n"
    r.r_converged r.r_completed r.r_peak_convs r.r_elapsed r.r_events
    (events_per_conv r) r.r_forwarded r.r_tun_tx r.r_tun_rx r.r_drops
    r.r_refused r.r_cs_hits r.r_cs_misses;
  Printf.bprintf b "}\n";
  { Bench.json = Buffer.contents b; perf = [ ("il", perf) ]; value = r }

(* engine events per conversation for the routed topology (seed 11,
   16 leaves x 14 clients x 45 conversations): dearer than the flat
   swarm because every packet crosses two to four gateway hops *)
let baseline = 110.0 (* measured 85.82 *)

let spec =
  {
    Bench.name = "routed";
    title = "routed swarm - 10k conversations across a 20-subnet internet";
    file = "routed";
    run = (fun () -> run ());
    show = Bench.print_json;
    checks =
      [
        ("converged", fun r ->
            Bench.expect r.r_converged "converged only %d of %d conversations"
              r.r_completed r.r_total);
        ("peak", fun r ->
            Bench.expect (r.r_peak_convs >= 10000)
              "peak concurrency %d < 10000 — the barrier did not hold"
              r.r_peak_convs);
        ("segments", fun r ->
            Bench.expect (r.r_segments >= 12)
              "only %d segments — not a multi-segment internet" r.r_segments);
        ("forwarding", fun r ->
            Bench.expect (r.r_forwarded > 0)
              "gateways forwarded nothing — traffic is not crossing subnets");
        ("dk transit", fun r ->
            Bench.expect
              (r.r_tun_tx > 0 && r.r_tun_rx > 0)
              "the Datakit transit carried nothing (tun_tx %d, tun_rx %d)"
              r.r_tun_tx r.r_tun_rx);
        ("no route drops", fun r ->
            Bench.expect (r.r_drops = 0)
              "%d packets dropped at the routing choke point" r.r_drops);
        ("events/conv", fun r ->
            let epc = events_per_conv r in
            Bench.expect (epc <= baseline)
              "%.2f engine events per conversation (baseline %.2f) — the \
               routed event economy regressed"
              epc baseline);
      ];
    golden = true;
  }
