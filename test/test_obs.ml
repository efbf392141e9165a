(* Observability: the trace core, the status/stats files, /net/log,
   the snoopy tap, and the exporters — including the determinism
   guarantee (same seed, same traffic => byte-identical traces). *)

module F = Ninep.Fcall

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* run a body on musca (an ether host, unlike philw-gnot) inside a
   booted bell-labs world *)
let in_world ?seed ?(horizon = 120.0) f =
  let w = P9net.World.bell_labs ?seed () in
  let finished = ref false in
  let musca = P9net.World.host w "musca" in
  ignore
    (P9net.Host.spawn musca "test" (fun env ->
         f w env;
         finished := true));
  P9net.World.run ~until:horizon w;
  Alcotest.(check bool) "test body completed" true !finished

(* ---- trace core ---- *)

let test_disabled_by_default () =
  let eng = Sim.Engine.create () in
  Alcotest.(check bool) "no sink unless attached" true
    (Sim.Engine.obs eng = None);
  (* instrumented code runs happily with no sink *)
  ignore
    (Sim.Proc.spawn eng ~name:"p" (fun () -> Sim.Time.sleep eng 1.0));
  Sim.Engine.run eng

let test_trace_records_virtual_time () =
  let eng = Sim.Engine.create () in
  let tr = Obs.Trace.create () in
  Sim.Engine.attach_obs eng tr;
  ignore
    (Sim.Proc.spawn eng ~name:"sleeper" (fun () -> Sim.Time.sleep eng 2.5));
  Sim.Engine.run eng;
  (* spawn, block, wake, exit — all stamped with virtual time *)
  let events = Obs.Trace.events tr in
  Alcotest.(check bool) "events recorded" true (List.length events >= 4);
  let times = List.map (fun (t, _, _) -> t) events in
  Alcotest.(check (float 1e-9)) "last event at wake time" 2.5
    (List.fold_left max 0. times)

let test_ring_bounded () =
  (* 16 is the smallest ring the trace will make *)
  let tr = Obs.Trace.create ~capacity:16 () in
  for i = 1 to 20 do
    Obs.Trace.note tr ~sub:"t" (string_of_int i)
  done;
  Alcotest.(check int) "ring holds capacity" 16
    (List.length (Obs.Trace.events tr));
  Alcotest.(check int) "dropped counted" 4 (Obs.Trace.dropped tr);
  (* the survivors are the newest, in order *)
  let labels =
    List.map
      (fun (_, _, e) ->
        match e with Obs.Event.Note { msg; _ } -> msg | _ -> "?")
      (Obs.Trace.events tr)
  in
  Alcotest.(check (list string)) "newest kept"
    (List.init 16 (fun i -> string_of_int (i + 5)))
    labels

let test_metrics () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.bump m "x" 2;
  Obs.Metrics.bump m "x" 3;
  Obs.Metrics.observe m "lat" 0.5;
  Obs.Metrics.observe m "lat" 1.5;
  Alcotest.(check int) "counter sums" 5 (Obs.Metrics.counter m "x");
  Alcotest.(check int) "unknown is zero" 0 (Obs.Metrics.counter m "y");
  match Obs.Metrics.histograms m with
  | [ ("lat", (count, sum, max_)) ] ->
    Alcotest.(check int) "hist count" 2 count;
    Alcotest.(check (float 1e-9)) "hist sum" 2.0 sum;
    Alcotest.(check (float 1e-9)) "hist max" 1.5 max_
  | _ -> Alcotest.fail "expected one histogram"

let test_quantiles_pinned () =
  let m = Obs.Metrics.create () in
  (* a 1..100 ms spread: log buckets double from 1 us, so 1..65 ms land
     at or below the 65.536 ms bound and 66..100 ms in the next bucket *)
  for ms = 1 to 100 do
    Obs.Metrics.observe m "lat" (float_of_int ms /. 1000.)
  done;
  let q p =
    match Obs.Metrics.quantile m "lat" p with
    | Some v -> v
    | None -> Alcotest.fail "histogram disappeared"
  in
  Alcotest.(check (float 1e-12)) "p50 pinned" 0.065536 (q 0.5);
  Alcotest.(check (float 1e-12)) "p95 pinned" 0.131072 (q 0.95);
  Alcotest.(check (float 1e-12)) "p99 pinned" 0.131072 (q 0.99);
  Alcotest.(check bool) "unknown histogram" true
    (Obs.Metrics.quantile m "nope" 0.5 = None);
  (* a single sample answers every quantile with its own bucket bound *)
  let m1 = Obs.Metrics.create () in
  Obs.Metrics.observe m1 "one" 0.0005;
  Alcotest.(check (float 1e-12)) "single p50" 0.000512
    (Option.get (Obs.Metrics.quantile m1 "one" 0.5));
  Alcotest.(check (float 1e-12)) "single p99" 0.000512
    (Option.get (Obs.Metrics.quantile m1 "one" 0.99))

let test_counters_json_quantiles () =
  let tr = Obs.Trace.create () in
  Obs.Trace.observe tr "9p.rpc.Tread" 0.002;
  Obs.Trace.observe tr "9p.rpc.Tread" 0.004;
  let json = Obs.Trace.counters_json tr in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " exported") true (contains json key))
    [ "\"p50_ms\""; "\"p95_ms\""; "\"p99_ms\"" ]

(* ---- the wall-clock profiler (unit, with a fake clock) ---- *)

let test_prof_report () =
  let now = ref 0. in
  let clock () =
    now := !now +. 0.001;
    !now
  in
  let p = Obs.Prof.create ~clock () in
  List.iter
    (fun label ->
      Obs.Prof.begin_event p;
      Obs.Prof.end_event p label)
    [ "il"; "il"; "app" ];
  let r = Obs.Prof.report p in
  Alcotest.(check int) "events" 3 r.Obs.Prof.r_events;
  Alcotest.(check bool) "events/s positive" true
    (r.Obs.Prof.r_events_per_sec > 0.);
  let share_sum =
    List.fold_left (fun a l -> a +. l.Obs.Prof.l_share) 0. r.Obs.Prof.r_layers
  in
  Alcotest.(check (float 1e-6)) "shares sum to 1" 1.0 share_sum;
  let json = Obs.Prof.report_json r in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " in json") true
        (contains json ("\"" ^ key ^ "\"")))
    [
      "events"; "wall_s"; "dispatch_s"; "events_per_sec"; "minor_words";
      "minor_words_per_event"; "direct_major_words"; "promoted_words";
      "major_collections"; "share_sum"; "layers"; "layer"; "share";
      "words_per_event";
    ];
  Alcotest.(check bool) "json is one line" true
    (not (String.contains json '\n'))

let test_prof_attached_to_engine () =
  let eng = Sim.Engine.create () in
  let p = Obs.Prof.create ~clock:Unix.gettimeofday () in
  Sim.Engine.attach_prof eng p;
  let big = ref [||] in
  ignore
    (Sim.Proc.spawn eng ~name:"cfs-reader" (fun () ->
         Sim.Time.sleep eng 1.0;
         (* too large for the minor heap: allocated in the major heap *)
         big := Array.make 10_000 0));
  Sim.Engine.run eng;
  let r = Obs.Prof.report p in
  Alcotest.(check bool) "dispatches measured" true (r.Obs.Prof.r_events >= 2);
  Alcotest.(check bool) "direct major-heap words seen" true
    (r.Obs.Prof.r_direct_major_words >= float_of_int (Array.length !big));
  (* the sleeper's resume is attributed to its handler class *)
  Alcotest.(check bool) "cfs layer attributed" true
    (List.exists (fun l -> l.Obs.Prof.l_label = "cfs") r.Obs.Prof.r_layers);
  let share_sum =
    List.fold_left (fun a l -> a +. l.Obs.Prof.l_share) 0. r.Obs.Prof.r_layers
  in
  Alcotest.(check (float 0.05)) "shares account for the run" 1.0 share_sum

(* ---- counter time-series (unit) ---- *)

let test_series () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.bump m "pkts" 1;
  let s = Obs.Series.create ~capacity:2 m in
  Alcotest.(check int) "empty" 0 (Obs.Series.count s);
  (* a bare read with no stored samples renders one live snapshot *)
  Alcotest.(check string) "live render" "pkts 1 0.500000\n"
    (Obs.Series.render ~live_ts:0.5 s);
  Obs.Series.sample s 1.0;
  Obs.Metrics.bump m "pkts" 1;
  Obs.Series.sample s 2.0;
  Obs.Metrics.bump m "pkts" 1;
  Obs.Series.sample s 3.0;
  (* capacity 2: the 1.0 sample fell off; oldest first *)
  Alcotest.(check int) "ring bounded" 2 (Obs.Series.count s);
  (match Obs.Series.samples s with
  | [ (t1, v1); (t2, v2) ] ->
    Alcotest.(check (float 1e-9)) "oldest kept" 2.0 t1;
    Alcotest.(check (float 1e-9)) "newest last" 3.0 t2;
    Alcotest.(check int) "older value" 2 (List.assoc "pkts" v1);
    Alcotest.(check int) "newer value" 3 (List.assoc "pkts" v2)
  | _ -> Alcotest.fail "expected two samples");
  let rendered = Obs.Series.render s in
  List.iter
    (fun line ->
      if line <> "" then
        Alcotest.(check int)
          ("three tokens: " ^ line)
          3
          (List.length (String.split_on_char ' ' line)))
    (String.split_on_char '\n' rendered);
  Obs.Series.clear s;
  Alcotest.(check int) "cleared" 0 (Obs.Series.count s)

(* ---- causal spans ---- *)

let test_span_nesting () =
  let eng = Sim.Engine.create () in
  let tr = Obs.Trace.create () in
  Sim.Engine.attach_obs eng tr;
  ignore
    (Sim.Proc.spawn eng ~name:"app" (fun () ->
         let outer = Obs.Span.enter tr ~layer:"app" "op.outer" in
         let inner = Obs.Span.enter tr ~layer:"il" "op.inner" in
         Alcotest.(check int) "inner is current" inner (Obs.Span.current tr);
         Sim.Time.sleep eng 1.0;
         Obs.Span.exit tr inner;
         Alcotest.(check int) "outer restored" outer (Obs.Span.current tr);
         Obs.Span.exit tr outer));
  Sim.Engine.run eng;
  Alcotest.(check int) "all closed" 0 (Obs.Span.open_count tr);
  Alcotest.(check string) "indented tree"
    "[app] op.outer\n  [il] op.inner\n"
    (Obs.Span.tree tr);
  (* the chrome export brackets every B with an E *)
  let json = Obs.Trace.to_chrome_json tr in
  let count needle =
    let n = String.length needle and l = String.length json in
    let rec go i acc =
      if i + n > l then acc
      else go (i + 1) (if String.sub json i n = needle then acc + 1 else acc)
    in
    go 0 0
  in
  Alcotest.(check int) "two begins" 2 (count "\"ph\":\"B\"");
  Alcotest.(check bool) "balanced B/E" true
    (count "\"ph\":\"B\"" = count "\"ph\":\"E\"")

let test_span_orphan_at_drain () =
  (* a process that opens a span and then blocks forever: when the
     event queue empties the engine drains, force-closing the span as
     an orphan — the signature of a lost wakeup, with a name on it *)
  let eng = Sim.Engine.create () in
  let tr = Obs.Trace.create () in
  Sim.Engine.attach_obs eng tr;
  let r = Sim.Rendez.create eng in
  ignore
    (Sim.Proc.spawn eng ~name:"stuck" (fun () ->
         ignore (Obs.Span.enter tr ~layer:"app" "op.never" : Obs.Span.h);
         Sim.Rendez.sleep r));
  Sim.Engine.run eng;
  Alcotest.(check int) "drained" 0 (Obs.Span.open_count tr);
  let orphaned =
    List.exists
      (fun (_, _, ev) ->
        match ev with
        | Obs.Event.Span_end { name = "op.never"; orphan = true; _ } -> true
        | _ -> false)
      (Obs.Trace.events tr)
  in
  Alcotest.(check bool) "orphan close recorded" true orphaned

let test_span_disabled_allocates_nothing () =
  (* the guard pattern at every instrumented call site: with no sink
     attached it must not allocate, or tracing would tax the fast path
     even when off *)
  let eng = Sim.Engine.create () in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    let sp =
      match Sim.Engine.obs eng with
      | None -> Obs.Span.none
      | Some tr -> Obs.Span.enter tr ~layer:"il" "op"
    in
    acc := !acc + sp
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "all none" 0 !acc;
  Alcotest.(check bool)
    (Printf.sprintf "no allocation when disabled (%.0f words)" words)
    true (words < 256.)

(* an import + remote read on musca: CS lookup, IL handshake, 9P
   attach — one causal trace, used by the determinism and golden tests *)
let import_span_run () =
  let w = P9net.World.bell_labs ~seed:5 () in
  let tr = Obs.Trace.create ~capacity:65536 () in
  Sim.Engine.attach_obs w.P9net.World.eng tr;
  let helix = P9net.World.host w "helix" in
  Ninep.Ramfs.add_file helix.P9net.Host.root "/tmp/motd" "have a nice day\n";
  let musca = P9net.World.host w "musca" in
  let finished = ref false in
  ignore
    (P9net.Host.spawn musca "test" (fun env ->
         P9net.Exportfs.import w.P9net.World.eng env ~host:"helix"
           ~remote_root:"/tmp" ~onto:"/n" ~flag:Vfs.Ns.Repl ();
         Alcotest.(check string) "read through the import"
           "have a nice day\n"
           (Vfs.Env.read_file env "/n/motd");
         finished := true));
  P9net.World.run ~until:120.0 w;
  Alcotest.(check bool) "import completed" true !finished;
  tr

let test_span_ids_deterministic () =
  let tr1 = import_span_run () in
  let tr2 = import_span_run () in
  let span_lines tr =
    String.concat "\n"
      (List.filter
         (fun l -> contains l "span> " || contains l "span< ")
         (String.split_on_char '\n' (Obs.Trace.render ~limit:100000 tr)))
  in
  Alcotest.(check bool) "spans recorded" true
    (String.length (span_lines tr1) > 0);
  (* same seed => byte-identical span/trace ids, times and nesting *)
  Alcotest.(check string) "span streams identical" (span_lines tr1)
    (span_lines tr2);
  Alcotest.(check string) "trees identical" (Obs.Span.tree tr1)
    (Obs.Span.tree tr2)

let read_golden path =
  (* dune runtest runs us in test/; a manual `dune exec` from the
     workspace root sees the same file one level down *)
  let path = if Sys.file_exists path then path else "test/" ^ path in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_import_trace_golden () =
  let tr = import_span_run () in
  (* trace 1 is the client's import: the CS lookup, the IL dial, the
     9P session/attach, and the reads — one causal tree *)
  let tree = Obs.Span.tree ~trace:1 tr in
  Alcotest.(check string) "pinned span tree"
    (read_golden "golden/import_spans.txt")
    tree;
  let json = Obs.Trace.to_chrome_json tr in
  let count needle =
    let n = String.length needle and l = String.length json in
    let rec go i acc =
      if i + n > l then acc
      else go (i + 1) (if String.sub json i n = needle then acc + 1 else acc)
    in
    go 0 0
  in
  let begins = count "\"ph\":\"B\"" in
  Alcotest.(check bool) "spans exported" true (begins > 0);
  Alcotest.(check int) "balanced chrome B/E" begins (count "\"ph\":\"E\"")

let test_spans_survive_policies () =
  List.iter
    (fun sched ->
      let w = P9net.World.bell_labs ~seed:7 ~sched () in
      let tr = Obs.Trace.create ~capacity:65536 () in
      Sim.Engine.attach_obs w.P9net.World.eng tr;
      let musca = P9net.World.host w "musca" in
      ignore
        (P9net.Host.spawn musca "traffic" (fun env ->
             let conn = P9net.Dial.dial env "il!helix!echo" in
             ignore (Vfs.Env.write env conn.P9net.Dial.data_fd "ping");
             ignore (Vfs.Env.read env conn.P9net.Dial.data_fd 4096);
             P9net.Dial.hangup env conn));
      P9net.World.run ~until:120.0 w;
      let begins, ends =
        List.fold_left
          (fun (b, e) (_, _, ev) ->
            match ev with
            | Obs.Event.Span_begin _ -> (b + 1, e)
            | Obs.Event.Span_end _ -> (b, e + 1)
            | _ -> (b, e))
          (0, 0) (Obs.Trace.events tr)
      in
      Alcotest.(check bool) "spans recorded" true (begins > 0);
      Alcotest.(check int) "every span closed" begins ends;
      Alcotest.(check int) "none left open" 0 (Obs.Span.open_count tr))
    [ Sim.Sched.Shuffle 13; Sim.Sched.Adversarial ]

(* ---- exporters ---- *)

let test_chrome_json_shape () =
  let eng = Sim.Engine.create () in
  let tr = Obs.Trace.create () in
  Sim.Engine.attach_obs eng tr;
  ignore (Sim.Proc.spawn eng ~name:"p" (fun () -> Sim.Time.sleep eng 1.0));
  Sim.Engine.run eng;
  let json = Obs.Trace.to_chrome_json tr in
  Alcotest.(check bool) "traceEvents array" true
    (String.length json > 2
    && String.sub json 0 15 = "{\"traceEvents\":"
    && contains json "\"ph\":\"i\""
    && contains json "\"displayTimeUnit\":\"ms\"");
  let counters = Obs.Trace.counters_json tr in
  Alcotest.(check bool) "counters flat object" true
    (String.length counters >= 2 && counters.[0] = '{')

(* ---- the world: status/stats files, /net/log, the live tap ---- *)

(* a one-shot IL service on helix that waits for one message and then
   hangs up first, so the client can watch its end reach Closed *)
let oneshot_server w =
  let helix = P9net.World.host w "helix" in
  ignore
    (P9net.Host.spawn helix "oneshot" (fun env ->
         let ann = P9net.Dial.announce env "il!*!9991" in
         let conn = P9net.Dial.listen env ann in
         let dfd = P9net.Dial.accept env conn in
         ignore (Vfs.Env.read env dfd 4096);
         (* drop every reference so the connection closes first *)
         Vfs.Env.close env dfd;
         P9net.Dial.hangup env conn))

let test_status_lifecycle () =
  in_world (fun w env ->
      oneshot_server w;
      let conn = P9net.Dial.dial env "il!135.104.9.31!9991" in
      ignore (Vfs.Env.write env conn.P9net.Dial.data_fd "ping");
      let status = Vfs.Env.read_file env (conn.P9net.Dial.dir ^ "/status") in
      Alcotest.(check bool) "established mid-flight" true
        (contains status "Established");
      Alcotest.(check bool) "retransmit count shown" true
        (contains status "rexmit");
      (* the server hangs up; EOF on data, then the close handshake *)
      let eof = Vfs.Env.read env conn.P9net.Dial.data_fd 4096 in
      Alcotest.(check string) "eof after remote hangup" "" eof;
      Sim.Time.sleep w.P9net.World.eng 5.0;
      let status' = Vfs.Env.read_file env (conn.P9net.Dial.dir ^ "/status") in
      Alcotest.(check bool) "closed after hangup" true
        (contains status' "Closed");
      P9net.Dial.hangup env conn)

let test_stats_file () =
  in_world (fun w env ->
      oneshot_server w;
      let conn = P9net.Dial.dial env "il!135.104.9.31!9991" in
      ignore (Vfs.Env.write env conn.P9net.Dial.data_fd "ping");
      Sim.Time.sleep w.P9net.World.eng 1.0;
      let stats = Vfs.Env.read_file env (conn.P9net.Dial.dir ^ "/stats") in
      (* one "name value" line per counter *)
      List.iter
        (fun needle ->
          Alcotest.(check bool) (needle ^ " present") true
            (contains stats needle))
        [ "msgs_sent"; "msgs_rcvd"; "bytes_sent"; "retransmits"; "rtt_ms" ];
      Alcotest.(check bool) "counted our message" true
        (contains stats "msgs_sent 1");
      P9net.Dial.hangup env conn)

let test_net_log () =
  let w = P9net.World.bell_labs () in
  let tr = Obs.Trace.create () in
  Sim.Engine.attach_obs w.P9net.World.eng tr;
  let finished = ref false in
  let musca = P9net.World.host w "musca" in
  ignore
    (P9net.Host.spawn musca "test" (fun env ->
         let conn = P9net.Dial.dial env "il!helix!echo" in
         ignore (Vfs.Env.write env conn.P9net.Dial.data_fd "ping");
         ignore (Vfs.Env.read env conn.P9net.Dial.data_fd 4096);
         let log = Vfs.Env.read_file env "/net/log" in
         Alcotest.(check bool) "wire events in the log" true
           (contains log " tx " && contains log " rx ");
         Alcotest.(check bool) "scheduler events in the log" true
           (contains log "proc.");
         (* writing "clear" empties the ring *)
         let fd = Vfs.Env.open_ env "/net/log" F.Ordwr in
         ignore (Vfs.Env.write env fd "clear");
         Vfs.Env.close env fd;
         Alcotest.(check int) "cleared" 0
           (List.length (Obs.Trace.events tr));
         P9net.Dial.hangup env conn;
         finished := true));
  P9net.World.run ~until:120.0 w;
  Alcotest.(check bool) "test body completed" true !finished

let test_snoop_tap () =
  let w = P9net.World.bell_labs () in
  let tap = P9net.Snoop.start w.P9net.World.ether in
  let helix = P9net.World.host w "helix" in
  ignore
    (P9net.Host.spawn helix "udp-sink" (fun env ->
         let ann = P9net.Dial.announce env "udp!*!3049" in
         let conn = P9net.Dial.listen env ann in
         let dfd = P9net.Dial.accept env conn in
         ignore (Vfs.Env.write env dfd (Vfs.Env.read env dfd 4096))));
  let finished = ref false in
  let musca = P9net.World.host w "musca" in
  ignore
    (P9net.Host.spawn musca "traffic" (fun env ->
         let conn = P9net.Dial.dial env "il!helix!echo" in
         ignore (Vfs.Env.write env conn.P9net.Dial.data_fd "ping");
         ignore (Vfs.Env.read env conn.P9net.Dial.data_fd 4096);
         P9net.Dial.hangup env conn;
         let dg = P9net.Dial.dial env "udp!135.104.9.31!3049" in
         ignore (Vfs.Env.write env dg.P9net.Dial.data_fd "dgram");
         ignore (Vfs.Env.read env dg.P9net.Dial.data_fd 4096);
         P9net.Dial.hangup env dg;
         finished := true));
  P9net.World.run ~until:120.0 w;
  Alcotest.(check bool) "traffic completed" true !finished;
  let counts = P9net.Snoop.proto_counts tap in
  let seen p = List.mem_assoc p counts && List.assoc p counts > 0 in
  (* three distinct frame types on the one wire *)
  Alcotest.(check bool) "arp captured" true (seen "arp");
  Alcotest.(check bool) "il captured" true (seen "il");
  Alcotest.(check bool) "udp captured" true (seen "udp");
  Alcotest.(check bool) "rendered lines" true
    (contains (P9net.Snoop.dump tap) "ether(")

(* ---- /net/metrics: counter time-series as a file ---- *)

let test_net_metrics_disabled () =
  in_world (fun _w env ->
      Alcotest.(check string) "no sink, no series" "tracing disabled\n"
        (Vfs.Env.read_file env "/net/metrics"))

let test_net_metrics () =
  let w = P9net.World.bell_labs () in
  let tr = Obs.Trace.create () in
  Sim.Engine.attach_obs w.P9net.World.eng tr;
  let finished = ref false in
  let musca = P9net.World.host w "musca" in
  ignore
    (P9net.Host.spawn musca "test" (fun env ->
         let ctl () = Vfs.Env.open_ env "/net/metrics" F.Ordwr in
         (* arm the sampler, then generate traffic across a few ticks *)
         let fd = ctl () in
         ignore (Vfs.Env.write env fd "start 0.5");
         Vfs.Env.close env fd;
         let conn = P9net.Dial.dial env "il!helix!echo" in
         ignore (Vfs.Env.write env conn.P9net.Dial.data_fd "ping");
         ignore (Vfs.Env.read env conn.P9net.Dial.data_fd 4096);
         Sim.Time.sleep w.P9net.World.eng 2.0;
         P9net.Dial.hangup env conn;
         let body = Vfs.Env.read_file env "/net/metrics" in
         let lines =
           List.filter (fun l -> l <> "") (String.split_on_char '\n' body)
         in
         Alcotest.(check bool) "samples accumulated" true
           (List.length lines > 0);
         let stamps = Hashtbl.create 7 in
         List.iter
           (fun l ->
             match String.split_on_char ' ' l with
             | [ name; value; ts ] ->
               Alcotest.(check bool) ("named: " ^ l) true
                 (String.length name > 0);
               Alcotest.(check bool) ("integer value: " ^ l) true
                 (int_of_string_opt value <> None);
               (match float_of_string_opt ts with
               | Some t -> Hashtbl.replace stamps t ()
               | None -> Alcotest.fail ("bad timestamp: " ^ l))
             | _ -> Alcotest.fail ("not 'name value ts': " ^ l))
           lines;
         Alcotest.(check bool) "a time-series, not one snapshot" true
           (Hashtbl.length stamps >= 2);
         Alcotest.(check bool) "packet counters sampled" true
           (contains body "pkt.");
         (* a second start moves the one sampler to the new period, and
            a stop ends it *)
         let eng = w.P9net.World.eng in
         let stamps_after t0 =
           List.filter_map
             (fun l ->
               match String.split_on_char ' ' l with
               | [ _; _; ts ] -> (
                 match float_of_string_opt ts with
                 | Some t when t > t0 -> Some t
                 | _ -> None)
               | _ -> None)
             (String.split_on_char '\n' (Vfs.Env.read_file env "/net/metrics"))
           |> List.sort_uniq compare
         in
         let fd = ctl () in
         ignore (Vfs.Env.write env fd "start 0.25");
         Vfs.Env.close env fd;
         let restarted = Sim.Engine.now eng in
         Sim.Time.sleep eng 1.1;
         let later = stamps_after restarted in
         Alcotest.(check int) "four samples in 1.1 s" 4 (List.length later);
         ignore
           (List.fold_left
              (fun prev t ->
                Alcotest.(check (float 1e-5)) "0.25 s apart" 0.25 (t -. prev);
                t)
              (List.hd later) (List.tl later));
         let fd = ctl () in
         ignore (Vfs.Env.write env fd "stop");
         Vfs.Env.close env fd;
         let stopped = stamps_after 0. in
         Sim.Time.sleep eng 2.0;
         Alcotest.(check (list (float 0.))) "no sample after stop" stopped
           (stamps_after 0.);
         (* stop the ticker, clear the ring: a fresh read falls back to
            one live snapshot (single timestamp = now) *)
         let fd = ctl () in
         ignore (Vfs.Env.write env fd "stop");
         Vfs.Env.close env fd;
         let fd = ctl () in
         ignore (Vfs.Env.write env fd "clear");
         Vfs.Env.close env fd;
         let live = Vfs.Env.read_file env "/net/metrics" in
         let live_stamps = Hashtbl.create 7 in
         List.iter
           (fun l ->
             match String.split_on_char ' ' l with
             | [ _; _; ts ] -> Hashtbl.replace live_stamps ts ()
             | _ -> ())
           (String.split_on_char '\n' live);
         Alcotest.(check int) "live snapshot: one timestamp" 1
           (Hashtbl.length live_stamps);
         finished := true));
  P9net.World.run ~until:120.0 w;
  Alcotest.(check bool) "test body completed" true !finished

let test_snoop_sees_ninep () =
  (* an import runs 9P over IL on the shared wire: the promiscuous tap
     should label the frames with their 9P payloads *)
  let w = P9net.World.bell_labs () in
  let tap = P9net.Snoop.start w.P9net.World.ether in
  let helix = P9net.World.host w "helix" in
  Ninep.Ramfs.add_file helix.P9net.Host.root "/tmp/motd" "hello\n";
  let finished = ref false in
  let musca = P9net.World.host w "musca" in
  ignore
    (P9net.Host.spawn musca "test" (fun env ->
         P9net.Exportfs.import w.P9net.World.eng env ~host:"helix"
           ~remote_root:"/tmp" ~onto:"/n" ~flag:Vfs.Ns.Repl ();
         Alcotest.(check string) "read works" "hello\n"
           (Vfs.Env.read_file env "/n/motd");
         finished := true));
  P9net.World.run ~until:120.0 w;
  Alcotest.(check bool) "import completed" true !finished;
  let dump = P9net.Snoop.dump tap in
  Alcotest.(check bool) "attach on the wire" true
    (contains dump "9p(Tattach");
  Alcotest.(check bool) "read on the wire" true (contains dump "9p(Tread");
  Alcotest.(check bool) "replies too" true (contains dump "9p(Rread")

(* ---- determinism: same seed, same traffic, same bytes ---- *)

let traced_run () =
  let w = P9net.World.bell_labs ~seed:3 () in
  let tr = Obs.Trace.create () in
  Sim.Engine.attach_obs w.P9net.World.eng tr;
  let tap = P9net.Snoop.start w.P9net.World.ether in
  let musca = P9net.World.host w "musca" in
  ignore
    (P9net.Host.spawn musca "traffic" (fun env ->
         let conn = P9net.Dial.dial env "il!helix!echo" in
         ignore (Vfs.Env.write env conn.P9net.Dial.data_fd "ping");
         ignore (Vfs.Env.read env conn.P9net.Dial.data_fd 4096);
         P9net.Dial.hangup env conn));
  P9net.World.run ~until:60.0 w;
  ( Obs.Trace.render ~limit:100000 tr,
    Obs.Trace.to_chrome_json tr,
    Obs.Trace.counters_json tr,
    P9net.Snoop.dump tap )

let test_deterministic_traces () =
  let log1, chrome1, counters1, tap1 = traced_run () in
  let log2, chrome2, counters2, tap2 = traced_run () in
  Alcotest.(check bool) "trace non-trivial" true
    (String.length log1 > 1000);
  Alcotest.(check string) "event logs identical" log1 log2;
  Alcotest.(check string) "chrome exports identical" chrome1 chrome2;
  Alcotest.(check string) "counters identical" counters1 counters2;
  Alcotest.(check string) "captures identical" tap1 tap2

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "disabled by default" `Quick
            test_disabled_by_default;
          Alcotest.test_case "virtual time" `Quick
            test_trace_records_virtual_time;
          Alcotest.test_case "ring bounded" `Quick test_ring_bounded;
          Alcotest.test_case "metrics" `Quick test_metrics;
          Alcotest.test_case "quantiles pinned" `Quick test_quantiles_pinned;
          Alcotest.test_case "counters json quantiles" `Quick
            test_counters_json_quantiles;
          Alcotest.test_case "chrome json" `Quick test_chrome_json_shape;
        ] );
      ( "prof",
        [
          Alcotest.test_case "report shape" `Quick test_prof_report;
          Alcotest.test_case "engine attribution" `Quick
            test_prof_attached_to_engine;
        ] );
      ( "series",
        [ Alcotest.test_case "sampling ring" `Quick test_series ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "orphan at drain" `Quick
            test_span_orphan_at_drain;
          Alcotest.test_case "disabled allocates nothing" `Quick
            test_span_disabled_allocates_nothing;
          Alcotest.test_case "ids deterministic" `Quick
            test_span_ids_deterministic;
          Alcotest.test_case "import trace golden" `Quick
            test_import_trace_golden;
          Alcotest.test_case "survive schedule policies" `Quick
            test_spans_survive_policies;
        ] );
      ( "snoopy",
        [
          Alcotest.test_case "live tap" `Quick test_snoop_tap;
          Alcotest.test_case "sees 9p" `Quick test_snoop_sees_ninep;
        ] );
      ( "files",
        [
          Alcotest.test_case "status lifecycle" `Quick test_status_lifecycle;
          Alcotest.test_case "stats file" `Quick test_stats_file;
          Alcotest.test_case "/net/log" `Quick test_net_log;
          Alcotest.test_case "/net/metrics disabled" `Quick
            test_net_metrics_disabled;
          Alcotest.test_case "/net/metrics" `Quick test_net_metrics;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "identical traces" `Quick
            test_deterministic_traces;
        ] );
    ]
