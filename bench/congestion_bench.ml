(* The congestion matrix: IL vs baseline TCP vs congestion-controlled
   TCP (tcpcc) across three stress axes —

     - uniform 5% loss          (point-to-point bulk transfer)
     - Gilbert 20% burst loss   (the canonical faults schedule)
     - many-flow contention     (the PR 4 synchronized-close collapse:
                                 10 Mb/s, zero dial stagger, a thousand
                                 conversations closing at once)

   The loss rows isolate the retransmission policies: IL's query
   scheme, the baseline's go-back-N, and tcpcc's cwnd + fast
   retransmit.  The collapse row is the bug this matrix exists to pin:
   under the baseline the close burst drives queueing delay past the
   minimum RTO and the run degenerates into spurious go-back-N storms;
   tcpcc converges in bounded retransmissions on the same schedule.

   Everything runs in virtual time on seeded engines, so the JSON is
   byte-identical across same-seed runs. *)

let msgs = 200
let size = 1000

(* collapse-axis knobs: PR 4's schedule with the de-tuning reversed —
   10 Mb/s and a perfectly synchronized close burst (dials keep the
   2 ms ramp; a thousand simultaneous SYNs is a different study).  The
   payload is multi-segment (4 KiB) so the window machinery has real
   work — at one segment per message, head-of-window retransmit and
   go-back-N coincide by definition and the comparison would measure
   nothing *)
let collapse_hosts = 25
let collapse_convs_per_host = 40
let collapse_bandwidth = 10e6
let collapse_msg_bytes = 4096

(* dials spread over 10 s: the establishment wave (1000 x 8 KiB echoed)
   must fit under 10 Mb/s or phase one is already the collapse and the
   barrier never releases — only the close burst gets to overload *)
let collapse_dial_ramp = 0.01

let uniform_schedule = Xfer.loss 0.05

let burst_schedule = Faults_bench.canonical_schedule

let loss_row ~schedule ~seed =
  List.map
    (fun (name, proto) -> (name, fst (Xfer.run ~seed ~schedule ~msgs ~size proto)))
    [
      ("il", Xfer.Il Inet.Il.default_config);
      ("tcp", Xfer.Tcp Inet.Tcp.attach);
      ("tcpcc", Xfer.Tcp Inet.Tcp.attach_cc);
    ]

let xfer_json name (x : Xfer.t) =
  Printf.sprintf
    "    %S: {\"converged\": %b, \"elapsed_s\": %.6f, \"retransmits\": %d, \
     \"retransmitted_bytes\": %d, \"fast_retransmits\": %d}"
    name x.converged x.elapsed x.retransmits x.retransmitted_bytes
    x.fast_retransmits

(* ---- the collapse axis: the swarm bench's schedule, de-tuned ---- *)

let collapse_json (s : Swarm_bench.side) =
  Printf.sprintf
    "    %S: {\"converged\": %b, \"completed\": %d, \"elapsed_s\": %.6f, \
     \"retransmits\": %d, \"fast_retransmits\": %d, \"backlog_refused\": %d}"
    s.s_proto s.s_converged s.s_completed s.s_elapsed s.s_retransmits
    s.s_fast_retransmits s.s_refused

type result = {
  uniform : (string * Xfer.t) list;
  burst : (string * Xfer.t) list;
  collapse : (string * Swarm_bench.side) list;
}

let run ?(seed = 9) () =
  let uniform = loss_row ~schedule:uniform_schedule ~seed in
  let burst = loss_row ~schedule:burst_schedule ~seed in
  let collapse_raw =
    List.map
      (fun proto ->
        ( proto,
          Swarm_bench.run_side ~bandwidth:collapse_bandwidth
            ~ramp:collapse_dial_ramp ~close_ramp:0.
            ~msg_bytes:collapse_msg_bytes ~seed ~proto ~hosts:collapse_hosts
            ~convs_per_host:collapse_convs_per_host () ))
      [ "il"; "tcp"; "tcpcc" ]
  in
  let collapse = List.map (fun (p, (s, _)) -> (p, s)) collapse_raw in
  let group name json_of rows =
    Printf.sprintf "  %S: {\n%s\n  }" name
      (String.concat ",\n" (List.map (fun (p, x) -> json_of p x) rows))
  in
  let b = Buffer.create 2048 in
  Printf.bprintf b "{\n";
  Printf.bprintf b "  \"bench\": \"congestion\",\n";
  Printf.bprintf b "  \"seed\": %d,\n" seed;
  Printf.bprintf b "  \"msgs\": %d,\n" msgs;
  Printf.bprintf b "  \"msg_bytes\": %d,\n" size;
  Printf.bprintf b
    "  \"collapse_schedule\": {\"hosts\": %d, \"convs_per_host\": %d, \
     \"bandwidth_mbps\": %.0f, \"ramp_s\": 0.0, \"msg_bytes\": %d},\n"
    collapse_hosts collapse_convs_per_host
    (collapse_bandwidth /. 1e6)
    collapse_msg_bytes;
  Printf.bprintf b "%s,\n%s,\n%s\n}\n"
    (group "uniform_5pct" xfer_json uniform)
    (group "burst_20pct" xfer_json burst)
    (group "collapse" (fun _ s -> collapse_json s) collapse);
  {
    Bench.json = Buffer.contents b;
    perf = List.map (fun (p, (_, rep)) -> ("collapse_" ^ p, rep)) collapse_raw;
    value = { uniform; burst; collapse };
  }

(* recorded bound on tcpcc retransmissions under the collapse schedule
   (seed 9); the run fails if congestion control stops containing the
   synchronized-close storm *)
let collapse_tcpcc_retransmit_cap = 20_000 (* measured 17272, seed 9 *)

let spec =
  let converged (group, rows_of) proto =
    ( Printf.sprintf "%s/%s converged" group proto,
      fun r ->
        let x = List.assoc proto (rows_of r) in
        Bench.expect x.Xfer.converged
          "%s/%s did not complete the transfer (virtual %.1fs)" group proto
          x.Xfer.elapsed )
  in
  let side p r = List.assoc p r.collapse in
  {
    Bench.name = "congestion-matrix";
    title = "congestion matrix - {uniform, burst, collapse} x {il, tcp, tcpcc}";
    file = "congestion";
    run = (fun () -> run ());
    show = Bench.print_json;
    (* every transport must survive both loss schedules *)
    checks =
      List.concat_map
        (fun g -> List.map (converged g) [ "il"; "tcp"; "tcpcc" ])
        [ ("uniform", fun r -> r.uniform); ("burst", fun r -> r.burst) ]
      @ [
          (* loss must actually reach tcpcc, and fast retransmit must
             fire: recovery without it would mean the dupack machinery
             is dead code *)
          ( "tcpcc fast retransmit",
            fun r ->
              Bench.expect
                ((List.assoc "tcpcc" r.uniform).Xfer.fast_retransmits > 0)
                "tcpcc recovered from 5%% uniform loss without one fast \
                 retransmit" );
          (* the headline: the same synchronized-close schedule that
             collapses the baseline converges under tcpcc, in bounded
             retransmissions *)
          ( "tcpcc survives collapse",
            fun r ->
              let cc = side "tcpcc" r in
              Bench.expect cc.s_converged
                "tcpcc collapse run converged only %d of %d" cc.s_completed
                cc.s_total );
          ( "tcpcc retransmit cap",
            fun r ->
              let cc = side "tcpcc" r in
              Bench.expect
                (cc.s_retransmits <= collapse_tcpcc_retransmit_cap)
                "tcpcc resent %d segments under collapse (cap %d)"
                cc.s_retransmits collapse_tcpcc_retransmit_cap );
          (* the baseline's collapse is pinned, not fixed: if it ever
             converges this cheaply the schedule stopped biting and the
             comparison is meaningless *)
          ( "baseline still collapses",
            fun r ->
              let base = side "tcp" r in
              Bench.expect
                (not
                   (base.s_converged
                   && base.s_retransmits <= collapse_tcpcc_retransmit_cap))
                "baseline tcp survived the collapse schedule (%d resent) — \
                 the schedule no longer collapses anything"
                base.s_retransmits );
        ];
    golden = true;
  }

(* the same run, shown as the collapse table *)
let collapse_spec =
  {
    spec with
    name = "collapse";
    title = "collapse - 1000 synchronized closes on a 10 Mb/s ether";
    show =
      (fun o ->
        Printf.printf
          "schedule: %d hosts x %d conversations, zero close stagger, %d-byte\n\
           messages; every conversation sends its second echo and hangs up at\n\
           the same instant.  The baseline TCP answers the queueing delay with\n\
           go-back-N at a fixed window; tcpcc answers with AIMD + fast\n\
           retransmit on the same wire format.\n"
          collapse_hosts collapse_convs_per_host collapse_msg_bytes;
        Bench.hr ();
        Printf.printf "%-6s | %5s | %9s | %9s | %8s | %7s | %7s\n" "proto"
          "conv" "completed" "elapsed s" "resent" "fastrtx" "refused";
        Bench.hr ();
        List.iter
          (fun (_, (s : Swarm_bench.side)) ->
            Printf.printf "%-6s | %5s | %5d/%-4d| %9.2f | %8d | %7d | %7d\n%!"
              s.s_proto
              (if s.s_converged then "yes" else "NO")
              s.s_completed s.s_total s.s_elapsed s.s_retransmits
              s.s_fast_retransmits s.s_refused)
          o.Bench.value.collapse;
        Bench.hr ());
  }
