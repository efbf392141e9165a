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
  r_peak_procs : int;  (* engine high-water of live processes *)
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
     routes into them: the cores, right before left, then the leaf
     gateways; then the server; then the leaves.  The golden event count
     depends on this creation order. *)
  let gwcorer = P9net.World.add_host w "gwcorer" in
  let gwcorel = P9net.World.add_host w "gwcorel" in
  let gateways =
    List.init leaves (fun k -> P9net.World.add_host w (Genndb.gw_sys (k + 1)))
    @ [ gwcorel; gwcorer ]
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
      r_peak_procs = Sim.Engine.peak_procs eng;
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
let baseline = 56.0 (* measured 50.41 *)

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

(* The scale guard: the routed swarm at N, 2N and 4N conversations
   (22, 45 and 90 per client).  Per-event cost must not grow with the
   number of live conversations, so the profiler's minor words per
   event at 4N may exceed N's by at most 10%.  Allocation is
   deterministic for a given compiler, so this is a hard check; a
   process list copied on every exit fails it (617 words per event at
   N, 1,616 at 4N).  Words allocated straight into the major heap are
   bounded too, at every point: reads hand out the bytes their blocks
   already hold, which leaves about 0.2 words per event there, while a
   staging buffer per read (a 4 KiB Buffer is 513 words) puts about 30
   there and fails the bound.  Words/event comes from the profiler, so
   it lives in the perf sidecar and the checked value, never in the
   JSON. *)
let scale_points = [ 22; 45; 90 ]
let scale_slack = 1.10
let direct_major_bound = 1.0

(* The stations-per-segment axis: unicast 100-byte frames from the
   first station of one segment to its last, with 8, 32 and 128
   stations attached.  The segment offers a unicast frame to its
   addressee alone, so the time per frame must not grow with the
   stations it passes by: ns/frame at 128 may exceed 8's by at most
   50%, each the median of three runs.  That is loose enough for host
   noise and tight enough for a scan of every station (about 19 ns a
   station, 4x at 128).  The axis checks time, not words: a scan
   allocates nothing per station. *)
let station_points = [ 8; 32; 128 ]
let station_slack = 1.5
let station_frames = 100_000
let station_batch = 1_000

type station_point = {
  s_stations : int;
  s_delivered : int;  (* frames the addressee received, per run *)
  s_events : int;  (* engine events, per run *)
  s_ns_per_frame : float;  (* wall clock, the median of three runs *)
}

let station_run stations =
  let eng = Sim.Engine.create () in
  let seg = Netsim.Ether.create ~name:"ether0" eng in
  let nics =
    Array.init stations (fun i ->
        Netsim.Ether.attach seg
          (Netsim.Eaddr.of_string (Printf.sprintf "08006903%04x" i)))
  in
  let got = ref 0 in
  Array.iter (fun n -> Netsim.Ether.set_rx n (fun _ -> incr got)) nics;
  let src = nics.(0) in
  let frame =
    {
      Netsim.Ether.src = Netsim.Ether.nic_addr src;
      dst = Netsim.Ether.nic_addr nics.(stations - 1);
      etype = 0x0800;
      payload = String.make 100 'x';
    }
  in
  (* every run starts from the same heap, whatever ran before it *)
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  for _ = 1 to station_frames / station_batch do
    for _ = 1 to station_batch do
      Netsim.Ether.transmit src frame
    done;
    Sim.Engine.run eng
  done;
  let ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int station_frames in
  (!got, Sim.Engine.events eng, ns)

let station_point stations =
  let runs = List.init 3 (fun _ -> station_run stations) in
  let got, events, _ = List.hd runs in
  let ns = List.sort Float.compare (List.map (fun (_, _, ns) -> ns) runs) in
  { s_stations = stations; s_delivered = got; s_events = events;
    s_ns_per_frame = List.nth ns 1 }

type scale = {
  convs : (result * float * float) list;
      (* per point: minor and direct-major words per event *)
  stations : station_point list;
}

let scale_spec =
  let run () =
    let points =
      List.map
        (fun c ->
          let r, perf =
            run_once ~seed:11 ~leaves ~clients_per_leaf ~convs_per_client:c
          in
          (c, r, perf))
        scale_points
    in
    let stations = List.map station_point station_points in
    let row (c, r, _) =
      Printf.sprintf
        "    {\"convs_per_client\": %d, \"convs\": %d, \"converged\": %b, \
         \"peak_procs\": %d, \"engine_events\": %d, \"events_per_conv\": %.2f}"
        c r.r_total r.r_converged r.r_peak_procs r.r_events (events_per_conv r)
    in
    let station_row p =
      Printf.sprintf
        "    {\"stations\": %d, \"frames\": %d, \"delivered\": %d, \
         \"engine_events\": %d}"
        p.s_stations station_frames p.s_delivered p.s_events
    in
    {
      Bench.json =
        "{\n  \"bench\": \"routed_scale\",\n  \"seed\": 11,\n  \"points\": [\n"
        ^ String.concat ",\n" (List.map row points)
        ^ "\n  ],\n  \"stations\": [\n"
        ^ String.concat ",\n" (List.map station_row stations)
        ^ "\n  ]\n}\n";
      perf =
        List.map (fun (_, r, perf) -> (Printf.sprintf "n%d" r.r_total, perf)) points;
      value =
        {
          convs =
            List.map
              (fun (_, r, (perf : Obs.Prof.report)) ->
                ( r,
                  perf.r_minor_words_per_event,
                  perf.r_direct_major_words /. float_of_int perf.r_events ))
              points;
          stations;
        };
    }
  in
  let show o =
    Bench.print_json o;
    List.iter
      (fun (r, wpe, dmaj) ->
        Printf.printf
          "%6d convs: %7.1f minor words/event %6.2f direct-major words/event\n"
          r.r_total wpe dmaj)
      o.Bench.value.convs;
    List.iter
      (fun p ->
        Printf.printf "%6d stations: %7.1f ns/frame (median of 3)\n" p.s_stations
          p.s_ns_per_frame)
      o.Bench.value.stations
  in
  {
    Bench.name = "scale";
    title =
      "scale - routed swarm at N, 2N and 4N conversations; 8 to 128 \
       stations a segment";
    file = "scale";
    run;
    show;
    checks =
      [
        ("converged", fun v ->
            List.find_map
              (fun (r, _, _) ->
                Bench.expect r.r_converged "%d convs: converged only %d"
                  r.r_total r.r_completed)
              v.convs);
        ("peak procs", fun v ->
            List.find_map
              (fun (r, _, _) ->
                Bench.expect
                  (r.r_peak_procs >= r.r_total)
                  "%d convs: peak live processes %d < conversations"
                  r.r_total r.r_peak_procs)
              v.convs);
        ("words/event flat", fun v ->
            let n, w1, _ = List.hd v.convs and n4, w4, _ = List.hd (List.rev v.convs) in
            Bench.expect
              (w4 <= w1 *. scale_slack)
              "%.1f minor words/event at %d convs vs %.1f at %d (> +%.0f%%) \
               — per-event cost grows with N"
              w4 n4.r_total w1 n.r_total
              ((scale_slack -. 1.) *. 100.));
        ("direct-major words/event", fun v ->
            List.find_map
              (fun (r, _, dmaj) ->
                Bench.expect
                  (dmaj <= direct_major_bound)
                  "%d convs: %.2f words/event allocated straight into the \
                   major heap (bound %.1f) — a read stages its bytes again"
                  r.r_total dmaj direct_major_bound)
              v.convs);
        ("stations delivered", fun v ->
            List.find_map
              (fun p ->
                Bench.expect
                  (p.s_delivered = station_frames)
                  "%d stations: %d of %d frames delivered" p.s_stations
                  p.s_delivered station_frames)
              v.stations);
        ("ns/frame flat in stations", fun v ->
            let p1 = List.hd v.stations and p4 = List.hd (List.rev v.stations) in
            Bench.expect
              (p4.s_ns_per_frame <= p1.s_ns_per_frame *. station_slack)
              "%.1f ns/frame at %d stations vs %.1f at %d (> %.1fx) — a \
               unicast frame visits every station"
              p4.s_ns_per_frame p4.s_stations p1.s_ns_per_frame p1.s_stations
              station_slack);
      ];
    golden = false;
  }
