(* The fault-injection benchmark: the canonical 20% burst-loss +
   duplication + reorder schedule from DESIGN.md, driven end to end
   through IL, TCP, and URP.  Everything runs in virtual time on one
   seeded engine, so the emitted JSON is byte-identical across
   same-seed runs; the driver runs the whole scenario twice and diffs
   the JSON to prove it. *)

let msgs = 200
let size = 1000

(* Gilbert on/off with stationary burst occupancy
   0.05 / (0.05 + 0.2) = 20% and mean burst length 5 frames, plus 5%
   duplication, 5% reordering (2 ms late), and 0.5 ms jitter. *)
let canonical_schedule f =
  Netsim.Fault.set_burst f ~p_enter:0.05 ~p_exit:0.2 ~loss:1.0;
  Netsim.Fault.set_dup f 0.05;
  Netsim.Fault.set_reorder f ~delay:2e-3 0.05;
  Netsim.Fault.set_jitter f 0.5e-3

let urp_xfer ~seed =
  let eng = Sim.Engine.create ~seed () in
  let prof = Obs.Prof.create ~clock:Unix.gettimeofday () in
  Sim.Engine.attach_prof eng prof;
  let sw = Dk.Switch.create ~name:"dk" eng in
  let la = Dk.Switch.attach sw ~name:"nj/astro/a" in
  let lb = Dk.Switch.attach sw ~name:"nj/astro/b" in
  canonical_schedule (Dk.Switch.faults sw);
  let finish = ref 0. and got = ref 0 in
  let convs = ref [] in
  let inq = Dk.Circuit.announce lb ~service:"bench" in
  ignore
    (Sim.Proc.spawn eng ~name:"rx" (fun () ->
         let inc = Sim.Mbox.recv inq in
         let circ = Dk.Circuit.accept inc in
         let conv = Dk.Urp.over circ in
         convs := conv :: !convs;
         for _ = 1 to msgs do
           match Dk.Urp.read_msg conv with
           | Some _ -> incr got
           | None -> ()
         done;
         finish := Sim.Engine.now eng));
  ignore
    (Sim.Proc.spawn eng ~name:"tx" (fun () ->
         let circ = Dk.Circuit.dial la ~dest:"nj/astro/b" ~service:"bench" in
         let conv = Dk.Urp.over circ in
         convs := conv :: !convs;
         let payload = String.make size 'u' in
         for _ = 1 to msgs do
           Dk.Urp.write conv payload
         done));
  Sim.Engine.run ~until:600.0 eng;
  let sum f = List.fold_left (fun a c -> a + f (Dk.Urp.counters c)) 0 !convs in
  let line f = f (Dk.Switch.line_stats la) + f (Dk.Switch.line_stats lb) in
  ( {
      Xfer.zero with
      converged = !got = msgs;
      elapsed = !finish;
      retransmits = sum (fun c -> c.Dk.Urp.retransmits);
      queries = sum (fun c -> c.Dk.Urp.enqs_sent);
      dups_suppressed = sum (fun c -> c.Dk.Urp.dups_dropped);
      drops_injected = line (fun s -> s.Dk.Switch.drops_injected);
      dups_injected = line (fun s -> s.Dk.Switch.dups_injected);
      reorders_injected = line (fun s -> s.Dk.Switch.reorders_injected);
    },
    Obs.Prof.report prof )

let xfer_json name (x : Xfer.t) =
  Printf.sprintf
    "  %S: {\"converged\": %b, \"elapsed_s\": %.6f, \"retransmits\": %d, \
     \"queries\": %d, \"dups_suppressed\": %d, \"rtt_samples\": %d, \
     \"drops_injected\": %d, \"dups_injected\": %d, \"reorders_injected\": \
     %d}"
    name x.converged x.elapsed x.retransmits x.queries x.dups_suppressed
    x.rtt_samples x.drops_injected x.dups_injected x.reorders_injected

let run ?(seed = 9) () =
  let ip proto = Xfer.run ~seed ~schedule:canonical_schedule ~msgs ~size proto in
  let rows =
    [
      ("il", ip (Xfer.Il Inet.Il.default_config));
      ("tcp", ip (Xfer.Tcp Inet.Tcp.attach));
      ("urp", urp_xfer ~seed);
    ]
  in
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\n";
  Printf.bprintf b "  \"bench\": \"faults\",\n";
  Printf.bprintf b "  \"seed\": %d,\n" seed;
  Printf.bprintf b
    "  \"schedule\": {\"burst_enter\": 0.05, \"burst_exit\": 0.2, \
     \"burst_loss\": 1.0, \"dup\": 0.05, \"reorder\": 0.05, \
     \"reorder_delay_ms\": 2.0, \"jitter_ms\": 0.5},\n";
  Printf.bprintf b "  \"msgs\": %d,\n" msgs;
  Printf.bprintf b "  \"msg_bytes\": %d,\n" size;
  Printf.bprintf b "%s\n}\n"
    (String.concat ",\n" (List.map (fun (p, (x, _)) -> xfer_json p x) rows));
  {
    Bench.json = Buffer.contents b;
    perf = List.map (fun (p, (_, rep)) -> (p, rep)) rows;
    value = List.map (fun (p, (x, _)) -> (p, x)) rows;
  }

let spec =
  let converged proto =
    ( proto ^ " converged",
      fun rows ->
        let x = List.assoc proto rows in
        Bench.expect x.Xfer.converged
          "%s did not complete the transfer under the canonical schedule \
           (virtual %.1fs)"
          proto x.Xfer.elapsed )
  in
  {
    Bench.name = "faults";
    title = "fault injection - 20% burst loss + dup + reorder (DESIGN.md)";
    file = "faults";
    run = (fun () -> run ());
    show = Bench.print_json;
    checks =
      List.map converged [ "il"; "tcp"; "urp" ]
      @ [
          ( "loss reaches the wire",
            fun rows ->
              Bench.expect
                ((List.assoc "il" rows).Xfer.retransmits > 0)
                "the schedule injected no recoverable loss (IL retransmits \
                 = 0) — fault injection is not reaching the wire" );
          ( "dups suppressed",
            fun rows ->
              Bench.expect
                ((List.assoc "il" rows).Xfer.dups_suppressed > 0)
                "no duplicates suppressed by IL under a 5%% duplication \
                 schedule" );
        ];
    golden = true;
  }
