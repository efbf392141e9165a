(* The benchmark harness: regenerates every table and figure in the
   paper's evaluation, plus the quantitative claims made in its text,
   and runs wall-clock microbenchmarks (bechamel) for the hot paths.

   Run with:  dune exec bench/main.exe            (all sections)
              dune exec bench/main.exe -- table1  (one section)     *)

let section = Bench.section
let hr = Bench.hr

(* ------------------------------------------------------------------ *)
(* Table 1: throughput and latency per path                            *)
(* ------------------------------------------------------------------ *)

let run_table1 () =
  section "Table 1 - Performance (paper section 8)";
  Printf.printf
    "throughput: 16k writes between two processes; latency: 1-byte RTT\n";
  hr ();
  Printf.printf "%-12s | %-21s | %-21s\n" ""
    "throughput MB/s" "latency ms";
  Printf.printf "%-12s | %9s %11s | %9s %11s\n" "test" "paper" "measured"
    "paper" "measured";
  hr ();
  List.iter
    (fun p ->
      let mbs = Table1.throughput_mbs p in
      let ms = Table1.latency_ms p in
      Printf.printf "%-12s | %9.2f %11.2f | %9.3f %11.3f\n%!"
        p.Table1.p_name p.Table1.p_paper_mbs mbs p.Table1.p_paper_ms ms)
    Table1.all;
  hr ();
  print_endline
    "expected shape: pipes > Cyclone > IL/ether > URP/Datakit (throughput)\n\
     and the reverse ordering for latency."

(* ------------------------------------------------------------------ *)
(* table1 again, machine-readable, with the kernel trace attached:     *)
(* throughput, latency, and every observability counter per path.      *)
(* ------------------------------------------------------------------ *)

let table1_spec =
  let run () =
    let rows =
      List.map
        (fun p ->
          let tr = Obs.Trace.create () in
          let prof = Obs.Prof.create ~clock:Unix.gettimeofday () in
          let instrument eng =
            Sim.Engine.attach_obs eng tr;
            Sim.Engine.attach_prof eng prof
          in
          let mbs = Table1.throughput_mbs ~instrument p in
          let ms = Table1.latency_ms ~instrument p in
          (p, mbs, ms, tr, prof))
        Table1.all
    in
    let row (p, mbs, ms, tr, _) =
      Printf.sprintf
        "    {\"path\": %S, \"paper_mbs\": %g, \"measured_mbs\": %.4f, \
         \"paper_ms\": %g, \"measured_ms\": %.4f, \"events\": %d, \
         \"counters\": %s}"
        p.Table1.p_name p.Table1.p_paper_mbs mbs p.Table1.p_paper_ms ms
        (Obs.Trace.seq tr)
        (Obs.Trace.counters_json tr)
    in
    {
      Bench.json =
        "{\n  \"table1\": [\n"
        ^ String.concat ",\n" (List.map row rows)
        ^ "\n  ]\n}\n";
      perf =
        List.map
          (fun (p, _, _, _, prof) -> (p.Table1.p_name, Obs.Prof.report prof))
          rows;
      value = List.map (fun (p, _, _, tr, _) -> (p.Table1.p_name, tr)) rows;
    }
  in
  (* a smoke check for CI: every path must record events and counters *)
  let traced p =
    ( p.Table1.p_name ^ " traced",
      fun rows ->
        let tr = List.assoc p.Table1.p_name rows in
        Bench.expect
          (Obs.Trace.seq tr > 0
          && List.exists
               (fun (_, v) -> v <> 0)
               (Obs.Metrics.counters (Obs.Trace.metrics tr)))
          "no observability counters recorded for %s" p.Table1.p_name )
  in
  {
    Bench.name = "json";
    title = "Table 1 - machine-readable, with the kernel trace attached";
    file = "table1";
    run;
    show = Bench.print_json;
    checks = List.map traced Table1.all;
    golden = false;
  }

(* ------------------------------------------------------------------ *)
(* Figure 1: the Ethernet device file tree                             *)
(* ------------------------------------------------------------------ *)

let run_fig1 () =
  section "Figure 1 - the ether device tree (paper section 2.2)";
  let w = P9net.World.bell_labs () in
  let helix = P9net.World.host w "helix" in
  ignore
    (P9net.Host.spawn helix "fig1" (fun env ->
         (* open two more connections so the tree shows fan-out:
            conns 0/1 are IP and ARP from the kernel's own stack *)
         let fd1 = Vfs.Env.open_ env "/net/ether0/clone" Ninep.Fcall.Ordwr in
         let n1 = String.trim (Vfs.Env.read env fd1 32) in
         ignore (Vfs.Env.write env fd1 "connect 2048");
         let fd2 = Vfs.Env.open_ env "/net/ether0/clone" Ninep.Fcall.Ordwr in
         ignore (Vfs.Env.read env fd2 32);
         ignore (Vfs.Env.write env fd2 "connect -1");
         print_string
           (P9net.Ether_dev.render_tree
              (Option.get helix.P9net.Host.etherport));
         Printf.printf "\ncpu%% cat /net/ether0/%s/type\n%s" n1
           (Vfs.Env.read_file env (Printf.sprintf "/net/ether0/%s/type" n1));
         Vfs.Env.close env fd1;
         Vfs.Env.close env fd2));
  P9net.World.run ~until:5.0 w

(* ------------------------------------------------------------------ *)
(* Section 3's code-size claim: IL = 847 lines, TCP = 2200             *)
(* ------------------------------------------------------------------ *)

let count_lines path =
  let ic = open_in path in
  let n = ref 0 in
  (try
     while true do
       let line = input_line ic in
       let t = String.trim line in
       if t <> "" && not (String.length t >= 2 && String.sub t 0 2 = "(*")
       then incr n
     done
   with End_of_file -> ());
  close_in ic;
  !n

let rec find_root dir =
  if Sys.file_exists (Filename.concat dir "lib/inet/il.ml") then Some dir
  else
    let parent = Filename.dirname dir in
    if parent = dir then None else find_root parent

let run_codesize () =
  section "IL vs TCP implementation size (paper section 3)";
  match find_root (Sys.getcwd ()) with
  | None -> print_endline "(source tree not found; run from the repo)"
  | Some root ->
    let il = count_lines (Filename.concat root "lib/inet/il.ml") in
    let tcp = count_lines (Filename.concat root "lib/inet/tcp.ml") in
    Printf.printf
      "paper:  IL = 847 lines, TCP = 2200 lines  (ratio %.2f)\n" (2200. /. 847.);
    Printf.printf
      "ours:   IL = %d lines, TCP = %d lines  (ratio %.2f)\n" il tcp
      (float_of_int tcp /. float_of_int il);
    print_endline
      "(non-blank source lines.  our TCP is a deliberately simplified\n\
      \ baseline — go-back-N, no urgent data, options, or congestion\n\
      \ machinery — so the ratio understates the paper's point; a\n\
      \ production TCP of the era was ~4x our line count, IL was not.)"

(* ------------------------------------------------------------------ *)
(* Section 3's congestion claim: query-based vs blind retransmission   *)
(* ------------------------------------------------------------------ *)

let run_congestion () =
  section "IL vs TCP under loss (paper section 3: no blind retransmission)";
  let msgs = 200 and size = 1000 in
  let payload = msgs * size in
  Printf.printf "workload: %d messages x %d bytes on a lossy 10 Mb/s ether\n"
    msgs size;
  hr ();
  Printf.printf "%-6s | %-25s | %-25s\n" "" "IL (query-based)"
    "TCP (blind go-back-N)";
  Printf.printf "%-6s | %8s %8s %7s | %8s %8s %7s\n" "loss" "KB/s"
    "resent" "ovrhd" "KB/s" "resent" "ovrhd";
  hr ();
  let seeds = [ 9; 10; 11 ] in
  List.iter
    (fun loss ->
      let row3 proto =
        let runs =
          List.map
            (fun seed ->
              fst (Xfer.run ~seed ~msgs ~size ~schedule:(Xfer.loss loss) proto))
            seeds
        in
        let mean f =
          List.fold_left (fun a x -> a +. f x) 0. runs
          /. float_of_int (List.length runs)
        in
        Xfer.
          ( mean (fun x -> x.elapsed),
            mean (fun x -> float_of_int x.retransmitted_bytes),
            mean (fun x -> float_of_int (x.bytes_sent + x.retransmitted_bytes))
          )
      in
      let t_il, re_il, sent_il = row3 (Xfer.Il Inet.Il.default_config) in
      let t_tcp, re_tcp, sent_tcp = row3 (Xfer.Tcp Inet.Tcp.attach) in
      let rate t = if t <= 0. then 0. else float_of_int payload /. t /. 1e3 in
      let ovr sent = (sent -. float_of_int payload) /. float_of_int payload *. 100. in
      Printf.printf "%5.0f%% | %8.1f %8.0f %6.1f%% | %8.1f %8.0f %6.1f%%\n%!"
        (loss *. 100.) (rate t_il) re_il (ovr sent_il) (rate t_tcp) re_tcp
        (ovr sent_tcp))
    [ 0.0; 0.02; 0.05; 0.10 ];
  Printf.printf "(averaged over %d seeds)\n" (List.length seeds);
  hr ();
  print_endline
    "the claim: IL keeps resent bytes (and so added congestion) low\n\
     because a timeout sends a small query, never the data."

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                   *)
(* ------------------------------------------------------------------ *)

let run_ablation () =
  section "ablations (design choices, see DESIGN.md)";
  let msgs = 200 and size = 1000 in
  let il ?(loss = 0.) config =
    fst (Xfer.run ~msgs ~size ~schedule:(Xfer.loss loss) (Xfer.Il config))
  in
  let kbs x =
    let t = x.Xfer.elapsed in
    if t <= 0. then 0. else float_of_int (msgs * size) /. t /. 1e3
  in

  Printf.printf
    "A. IL outstanding-message window (\"a small outstanding message\n\
    \   window\"): bulk throughput on a clean 10 Mb/s ether\n";
  List.iter
    (fun window ->
      Printf.printf "   window %3d : %7.1f KB/s\n%!" window
        (kbs (il { Inet.Il.default_config with window })))
    [ 1; 2; 4; 8; 20; 40 ];
  Printf.printf
    "   (the window must cover the bandwidth-delay product; beyond\n\
    \   that it only costs receiver buffering)\n\n";

  Printf.printf
    "B. receiver-prompted recovery (gap -> state message) vs pure\n\
    \   query-timeout recovery, at 5%% loss\n";
  List.iter
    (fun fast_recovery ->
      let x = il ~loss:0.05 { Inet.Il.default_config with fast_recovery } in
      Printf.printf "   %-22s : %7.1f KB/s, %d resent, %d queries\n%!"
        (if fast_recovery then "gap-prompted (default)" else "timeout only")
        (kbs x) x.Xfer.retransmits x.Xfer.queries)
    [ true; false ];
  Printf.printf "\n";

  Printf.printf
    "C. delayed acknowledgements: ack holdoff vs wire overhead on a\n\
    \   clean link (acks per data message)\n";
  List.iter
    (fun ack_delay ->
      Printf.printf "   ack delay %4.0f ms : %7.1f KB/s\n%!"
        (ack_delay *. 1000.)
        (kbs (il { Inet.Il.default_config with ack_delay })))
    [ 0.0; 0.005; 0.02; 0.1 ]

(* ------------------------------------------------------------------ *)
(* Section 4.1: the 43,000-line database and its hash files            *)
(* ------------------------------------------------------------------ *)

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let run_ndb () =
  section "ndb at scale (paper section 4.1: 43,000-line global file)";
  let lines = 43_000 in
  let dir, path = Genndb.write_temp ~lines in
  Fun.protect
    ~finally:(fun () -> Genndb.cleanup dir)
    (fun () ->
      let t = Ndb.open_files [ path ] in
      Printf.printf "database: %d entries from a %d-line file\n"
        (List.length (Ndb.entries t))
        lines;
      let lookups = 200 in
      let query i =
        ignore
          (Ndb.search t ~attr:"sys" ~value:(Genndb.nth_sys (i * 37 mod 8000)))
      in
      let (), linear =
        time_it (fun () ->
            for i = 1 to lookups do
              query i
            done)
      in
      let (), build = time_it (fun () -> Ndb.write_hash t ~attr:"sys") in
      let (), hashed =
        time_it (fun () ->
            for i = 1 to lookups do
              query i
            done)
      in
      hr ();
      Printf.printf "%d lookups, linear scan : %8.1f ms  (%6.0f us each)\n"
        lookups (linear *. 1e3)
        (linear /. float_of_int lookups *. 1e6);
      Printf.printf "%d lookups, hash file   : %8.1f ms  (%6.0f us each)\n"
        lookups (hashed *. 1e3)
        (hashed /. float_of_int lookups *. 1e6);
      Printf.printf "hash build time          : %8.1f ms (done once per update)\n"
        (build *. 1e3);
      Printf.printf "speedup: %.0fx\n" (linear /. hashed);
      let st = Ndb.stats t in
      Printf.printf
        "stats: %d hash lookups, %d linear scans, %d stale rejections\n"
        st.Ndb.hash_lookups st.Ndb.linear_scans st.Ndb.stale_rejected)

(* ------------------------------------------------------------------ *)
(* Section 4.2: the csquery examples                                   *)
(* ------------------------------------------------------------------ *)

let run_csquery () =
  section "ndb/csquery (paper section 4.2 examples)";
  let w = P9net.World.bell_labs () in
  let helix = P9net.World.host w "helix" in
  List.iter
    (fun q ->
      Printf.printf "> %s\n" q;
      (match P9net.Cs.translate helix.P9net.Host.cs q with
      | Ok lines -> List.iter print_endline lines
      | Error e -> Printf.printf "! %s\n" e);
      print_newline ())
    [ "net!helix!9fs"; "net!$auth!rexauth" ]

(* ------------------------------------------------------------------ *)
(* Section 6.1: the import example                                      *)
(* ------------------------------------------------------------------ *)

let run_import () =
  section "import -a helix /net (paper section 6.1)";
  let w = P9net.World.bell_labs () in
  let gnot = P9net.World.host w "philw-gnot" in
  ignore
    (P9net.Host.spawn gnot "import" (fun env ->
         let show () =
           List.iter
             (fun d -> Printf.printf "/net/%s\n" d.Ninep.Fcall.d_name)
             (Vfs.Env.ls env "/net")
         in
         print_endline "philw-gnot% ls /net";
         show ();
         print_endline "philw-gnot% import -a helix /net";
         P9net.Exportfs.import w.P9net.World.eng env ~host:"helix"
           ~remote_root:"/net" ~onto:"/net" ~flag:Vfs.Ns.After ();
         print_endline "philw-gnot% ls /net";
         show ()));
  P9net.World.run ~until:60.0 w

(* ------------------------------------------------------------------ *)
(* What remote access costs: file reads local vs imported              *)
(* ------------------------------------------------------------------ *)

let run_gateway () =
  section "the cost of transparency: reads through mounts (section 6)";
  let w = P9net.World.bell_labs () in
  let helix = P9net.World.host w "helix" in
  Ninep.Ramfs.add_file helix.P9net.Host.root "/tmp/bench" (String.make 512 'x');
  let reads = 100 in
  let results : (string * float) list ref = ref [] in
  let musca = P9net.World.host w "musca" in
  let gnot = P9net.World.host w "philw-gnot" in
  let eng = w.P9net.World.eng in
  let record name env path =
    (* warm once, then time [reads] whole-file reads *)
    ignore (Vfs.Env.read_file env path);
    let t0 = Sim.Engine.now eng in
    for _ = 1 to reads do
      ignore (Vfs.Env.read_file env path)
    done;
    let dt = Sim.Engine.now eng -. t0 in
    results := (name, dt /. float_of_int reads) :: !results
  in
  ignore
    (P9net.Host.spawn helix "local" (fun env ->
         record "local (procedural 9P)" env "/tmp/bench"));
  ignore
    (P9net.Host.spawn musca "ether" (fun env ->
         P9net.Exportfs.import eng env ~host:"helix" ~remote_root:"/tmp"
           ~onto:"/n" ~flag:Vfs.Ns.Repl ();
         record "imported over IL/ether" env "/n/bench"));
  ignore
    (P9net.Host.spawn gnot "dk" (fun env ->
         P9net.Exportfs.import eng env ~host:"helix" ~remote_root:"/tmp"
           ~onto:"/n" ~flag:Vfs.Ns.Repl ();
         record "imported over URP/Datakit" env "/n/bench"));
  P9net.World.run ~until:600.0 w;
  List.iter
    (fun (name, per_read) ->
      Printf.printf "%-28s %8.3f ms per 512-byte read\n" name
        (per_read *. 1000.))
    (List.rev !results);
  print_endline
    "(each remote read is two 9P RPCs — walk/open amortized, read+read0\n\
    \ — carried as delimited messages on the transport; the name space\n\
    \ makes the three paths the same two lines of client code)"

(* ------------------------------------------------------------------ *)
(* profile: a tiny swarm as a smoke test for the engine profiler        *)
(* ------------------------------------------------------------------ *)

let profile_spec =
  {
    Bench.name = "profile";
    title = "profile smoke - engine profiler on a tiny swarm";
    file = "profile";
    run = (fun () -> Swarm_bench.run ~hosts:2 ~convs_per_host:3 ());
    show =
      (fun o ->
        List.iter
          (fun (name, (rep : Obs.Prof.report)) ->
            Printf.printf
              "%-4s %6d events in %.3fs wall (%.0f events/s), %.1f minor \
               words/event\n"
              name rep.r_events rep.r_wall_s rep.r_events_per_sec
              rep.r_minor_words_per_event;
            List.iter
              (fun l ->
                Printf.printf "       %-10s %6d events  share %.3f  %.1f w/ev\n"
                  l.Obs.Prof.l_label l.Obs.Prof.l_events l.Obs.Prof.l_share
                  l.Obs.Prof.l_words_per_event)
              rep.r_layers)
          o.Bench.perf);
    checks = [];
    golden = false;
  }

(* ------------------------------------------------------------------ *)
(* Wall-clock microbenchmarks (bechamel)                                *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let twrite =
    Ninep.Fcall.T
      ( 7,
        Ninep.Fcall.Twrite
          { fid = 3; offset = 8192L; data = String.make 8192 'x' } )
  in
  let encoded = Ninep.Fcall.encode twrite in
  let db = Ndb.of_string P9net.World.bell_labs_ndb in
  let cs =
    P9net.Cs.make ~sysname:"helix" ~db
      ~networks:
        [
          { P9net.Cs.nw_proto = "il"; nw_clone = "/net/il/clone"; nw_kind = `Inet };
          { P9net.Cs.nw_proto = "dk"; nw_clone = "/net/dk/clone"; nw_kind = `Dk };
        ]
      ()
  in
  let packet = String.make 1500 'p' in
  (* one Test.make per table/figure, plus the hot paths they exercise *)
  Test.make_grouped ~name:"plan9net"
    [
      Test.make ~name:"table1:sim-transfer-64k"
        (Staged.stage (fun () ->
             ignore (Table1.throughput_mbs ~bytes:(64 * 1024) Table1.pipes)));
      Test.make ~name:"fig1:render-ether-tree"
        (Staged.stage (fun () ->
             let eng = Sim.Engine.create () in
             let seg = Netsim.Ether.create ~name:"e" eng in
             let nic =
               Netsim.Ether.attach seg
                 (Netsim.Eaddr.of_string "080069020001")
             in
             let port = Inet.Etherport.create eng nic in
             ignore (Inet.Etherport.connect port 2048);
             ignore (P9net.Ether_dev.render_tree port)));
      Test.make ~name:"9p:encode-twrite-8k"
        (Staged.stage (fun () -> ignore (Ninep.Fcall.encode twrite)));
      Test.make ~name:"9p:decode-twrite-8k"
        (Staged.stage (fun () -> ignore (Ninep.Fcall.decode encoded)));
      Test.make ~name:"il:checksum-1500"
        (Staged.stage (fun () -> ignore (Inet.Chksum.checksum packet)));
      Test.make ~name:"cs:translate"
        (Staged.stage (fun () ->
             ignore (P9net.Cs.translate cs "net!helix!9fs")));
      Test.make ~name:"ndb:parse-entry"
        (Staged.stage (fun () ->
             ignore (Ndb.parse_string "sys=helix\n\tip=1.2.3.4 ether=aa0069000001\n")));
    ]

let run_bechamel () =
  section "microbenchmarks (wall clock, bechamel)";
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] (bechamel_tests ()) in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name est acc ->
        match Analyze.OLS.estimates est with
        | Some [ t ] -> (name, t) :: acc
        | Some _ | None -> acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (name, ns) ->
      let pretty =
        if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Printf.printf "%-34s %s/op\n" name pretty)
    rows

(* ------------------------------------------------------------------ *)

(* report every failure, then fail the whole run *)
let fail_on = function
  | [] -> ()
  | failures ->
    List.iter
      (fun f ->
        Printf.eprintf "error: %s: %s: %s\n" f.Bench.bench f.Bench.check
          f.Bench.detail)
      failures;
    exit 1

let golden =
  let drive s () = Bench.drive s in
  [
    drive Faults_bench.spec; drive Swarm_bench.spec;
    drive Routed_swarm_bench.spec; drive Congestion_bench.spec;
    drive Bootstorm_bench.spec;
  ]

let sections =
  let spec s = (s.Bench.name, fun () -> fail_on (Bench.drive s)) in
  [
    ("table1", run_table1);
    spec table1_spec;
    ("fig1", run_fig1);
    ("codesize", run_codesize);
    ("congestion", run_congestion);
    ("ablation", run_ablation);
    ("ndb", run_ndb);
    ("csquery", run_csquery);
    ("import", run_import);
    ("gateway", run_gateway);
    spec Cfs_bench.spec;
    spec Faults_bench.spec;
    spec Swarm_bench.spec;
    spec Routed_swarm_bench.spec;
    spec Congestion_bench.collapse_spec;
    spec Congestion_bench.spec;
    spec Bootstorm_bench.spec;
    spec Bootstorm_bench.smoke_spec;
    (* every golden bench, each failure reported before the run fails *)
    ("guard", fun () -> fail_on (List.concat_map (fun d -> d ()) golden));
    spec profile_spec;
    ("micro", run_bechamel);
  ]

let () =
  let wanted =
    match
      Array.to_list Sys.argv
      |> List.map (function "--json" -> "json" | a -> a)
    with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst sections
  in
  (* a mistyped section must fail before anything runs *)
  (match List.filter (fun n -> not (List.mem_assoc n sections)) wanted with
  | [] -> ()
  | unknown ->
    Printf.eprintf "unknown section %s (have: %s)\n"
      (String.concat " " unknown)
      (String.concat " " (List.map fst sections));
    exit 2);
  List.iter (fun name -> (List.assoc name sections) ()) wanted;
  print_newline ()
