(* The benchmark program.

     main --workload NAME --seed N --seconds S --trace 0|1
     main --golden

   With --trace 0 it repeats set-up + untraced World.run of one workload
   until S seconds are spent, times every repetition (wall time
   corrected for the host's speed, see hostspeed.ml), checks every
   op's output, and prints the end-to-end metrics; with --trace 1 it
   makes a warm-up, an untraced and a traced run and prints the
   per-layer metrics.  The last line of
   standard output is the JSON result.  --golden reruns routed-swarm and
   fleet-boot at the parameters of bench/golden and compares their
   deterministic counts with those files.  Everything runs in this one
   process on one thread; all traffic is simulated in memory. *)

let workloads = [ Routed.workload; Fleet.workload; Import_rw.workload ]

let now = Unix.gettimeofday

(* One repetition's figures.  The world itself is not kept: a routed
   world holds some 300 MB, and repetitions must not pile up. *)
type rep = {
  setup_s : float;
  run_s : float;  (** wall seconds of the run *)
  run_ref_s : float;  (** the same, corrected for the host's speed (Hostspeed) *)
  words : float;  (** minor-heap words allocated by the run *)
  peak_mb : float;  (** the process's top heap size after the run *)
  out : Wl.outcome;
  crash : string option;
  events : int;
  pending : int;
  stalled : string list;  (** blocked forever, beyond the declared daemons *)
  net : (string * float) list;  (** Wl.net_layers at the end *)
  extra : (string * float) list;  (** the workload's own layer figures *)
}

(* Set up and run one instance; hand the finished instance to [inspect]
   before it is dropped. *)
let one_rep (wl : Wl.t) ~seed ~traced ~attach ~inspect =
  Gc.compact ();
  let t0 = now () in
  let inst = wl.setup ~seed ~traced in
  let setup_s = now () -. t0 in
  Gc.full_major ();
  let eng = inst.Wl.world.P9net.World.eng in
  attach eng;
  let timed = Hostspeed.run inst.world ~horizon:inst.horizon in
  let peak_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let out = inst.outcome () in
  let rep =
    {
      setup_s;
      run_s = timed.wall;
      run_ref_s = Hostspeed.corrected timed;
      words = timed.words;
      peak_mb;
      out;
      crash = Option.map Printexc.to_string timed.crash;
      events = Sim.Engine.events eng;
      pending = Sim.Engine.pending eng;
      stalled = Wl.stray_stalled inst;
      net = Wl.net_layers inst.world ~ops:out.attempted;
      extra = inst.layers ();
    }
  in
  (rep, inspect inst)

let per n d = if d = 0 then 0. else n /. float_of_int d
let ms s = s *. 1000.

(* ---- output ---- *)

let num v = if Float.is_finite v then Printf.sprintf "%.12g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-34s %16s %s\n" name (num v) unit)
    metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
          metrics))

let quiescence (r : rep) =
  let get k l = Option.value ~default:0. (List.assoc_opt k l) in
  Printf.printf
    "quiescence: stalled_beyond_daemons=%d%s pending=%d 9p.open_fids_end=%s \
     il.conv_count=%s tcp.conv_count=%s route.drops=%s\n"
    (List.length r.stalled)
    (if r.stalled = [] then ""
     else " (" ^ String.concat " " (List.filteri (fun i _ -> i < 8) r.stalled) ^ ")")
    r.pending
    (num (get "9p.open_fids_end" r.extra))
    (num (get "il.conv_count_end" r.net))
    (num (get "tcp.conv_count_end" r.net))
    (num (get "route.drops" r.net))

(* ---- end-to-end: repeated untraced runs ---- *)

let end_to_end (wl : Wl.t) ~seed ~seconds =
  let start = now () in
  let rep () = fst (one_rep wl ~seed ~traced:false ~attach:ignore ~inspect:ignore) in
  (* Every repetition is timed, the first too.  It grows the heap from
     nothing, which costs a few per cent, but a routed-swarm repetition
     takes some 9 s, so only four fit in a run: one more sample steadies
     the median more than leaving out the first one would. *)
  let rec loop acc =
    let r = rep () in
    let acc = r :: acc in
    let spent = now () -. start in
    if spent +. r.setup_s +. r.run_s <= seconds then loop acc else List.rev acc
  in
  let reps = loop [] in
  let first = List.hd reps in
  (* Set-up is short next to a run, and a 2 ms set-up is either hit by a
     slow spell of the host or not, which makes single samples bimodal.
     So time batches of set-ups, each batch at least 50 ms long, and take
     the median of the per-set-up mean over at least nine batches filling
     a second.  Each batch is corrected for the host's speed by the
     median of 21 kernel calls made just before it. *)
  let per_batch = max 1 (int_of_float (Float.ceil (0.05 /. first.setup_s))) in
  let setups = ref [] and setup_time = ref 0. in
  while List.length !setups < 9 || !setup_time < 1.0 do
    Gc.compact ();
    let kernel_s = Hostspeed.sample 21 in
    let t0 = now () in
    for _ = 1 to per_batch do
      ignore (Sys.opaque_identity (wl.setup ~seed ~traced:false))
    done;
    let dt = now () -. t0 in
    setup_time := !setup_time +. dt;
    setups :=
      (dt /. float_of_int per_batch *. Hostspeed.reference /. kernel_s) :: !setups
  done;
  let deterministic =
    List.for_all
      (fun r -> r.out.Wl.fingerprint = first.out.fingerprint && r.out.lats = first.out.lats)
      reps
  in
  let lats = Array.to_list first.out.lats in
  let p50, tail, pct = Measure.summary lats in
  let completed = List.length lats in
  let attempted = List.fold_left (fun n r -> n + r.out.attempted) 0 reps in
  let failed = List.fold_left (fun n r -> n + r.out.failed) 0 reps in
  let crashes = List.filter_map (fun r -> r.crash) reps in
  List.iter (fun c -> Printf.printf "crash: %s\n" c) crashes;
  Printf.printf
    "workload %s seed %d: %d ops per rep; %d set-up batches of %d; runs %s s wall, %s s corrected\n"
    wl.name seed first.out.attempted (List.length !setups) per_batch
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.run_s) reps))
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.run_ref_s) reps));
  Printf.printf "deterministic counts: %s%s\n"
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) first.out.fingerprint))
    (if deterministic then "" else "  (DIFFER between reps)");
  Printf.printf "virt_op_tail_ms is p%g of %d samples; error_rate %s\n" pct completed
    (num (per (float_of_int failed) attempted));
  quiescence first;
  print_result
    ~correct:(failed = 0 && deterministic && crashes = [])
    ~attempted ~failed
    [
      ("setup_s", Measure.median !setups, "s");
      ("run_s", Measure.median (List.map (fun r -> r.run_ref_s) reps), "s");
      ("alloc_words_per_op", per first.words completed, "words");
      ("peak_heap_mb", first.peak_mb, "MB");
      ("virt_op_p50_ms", ms p50, "ms_virt");
      ("virt_op_tail_ms", ms tail, "ms_virt");
      ("virt_makespan_s", first.out.last -. first.out.first, "s_virt");
    ]

(* ---- per-layer: one untraced and one traced run ---- *)

let vfs_calls = [ "open"; "create"; "read"; "write"; "stat"; "remove"; "close" ]
let span_layers = [ "op"; "dial"; "vfs"; "9p" ]

let prof_labels =
  [ "app"; "listener"; "ether"; "il"; "ip"; "route"; "dk"; "tcp"; "9p"; "cfs"; "cs"; "timer" ]

(* Every per-layer metric, with its unit, in print order. *)
let layer_schema =
  [
    ("sim.events", "count"); ("sim.events_per_op", "count"); ("sim.words_per_event", "words");
    ("sim.events_per_s", "1/s"); ("sim.pending_end", "count"); ("sim.stalled_end", "count");
    ("ip.pkts_per_op", "count"); ("route.forwarded_per_op", "count");
    ("route.tun_tx_per_op", "count"); ("route.drops", "count"); ("il.msgs_per_op", "count");
    ("il.retransmits", "count"); ("il.queries", "count"); ("tcp.segs_per_op", "count");
    ("tcp.retransmits", "count"); ("il.conv_count_end", "count");
    ("tcp.conv_count_end", "count"); ("dial.virt_p50_ms", "ms_virt"); ("dial.virt_tail_ms", "ms_virt");
    ("dial.retries", "count"); ("cs.cache_hit_ratio", "ratio"); ("listener.refused", "count");
    ("9p.rpcs_per_op", "count"); ("9p.bytes_per_op", "B"); ("9p.rtt_virt_p50_ms", "ms_virt");
    ("9p.rtt_virt_tail_ms", "ms_virt"); ("9p.open_fids_end", "count");
    ("cfs.term_hit_ratio", "ratio"); ("cfs.rack_hit_ratio", "ratio");
    ("cfs.coalesced", "count"); ("cfs.origin_rts_per_op", "count");
    ("cfs.origin_bytes_per_op", "B"); ("cfs.write_through", "count");
  ]
  @ List.concat_map
      (fun c -> [ ("vfs." ^ c ^ ".virt_p50_ms", "ms_virt"); ("vfs." ^ c ^ ".calls", "count") ])
      vfs_calls
  @ List.map (fun l -> ("span." ^ l ^ ".self_ms_per_op", "ms_virt")) span_layers
  @ [
      ("micro.fcall_encode_ns", "ns"); ("micro.fcall_decode_ns", "ns");
      ("micro.chksum_40_ns", "ns"); ("micro.chksum_552_ns", "ns");
      ("micro.chksum_1500_ns", "ns"); ("micro.route_lookup_ns", "ns");
      ("micro.block_q_ns", "ns"); ("micro.ns_walk_ns", "ns"); ("micro.cs_translate_ns", "ns");
      ("micro.ndb_search_ns", "ns"); ("obs.trace_overhead", "ratio");
      ("obs.trace_words_per_event", "words");
    ]
  @ List.concat_map
      (fun l ->
        [ ("prof." ^ l ^ ".share", "ratio"); ("prof." ^ l ^ ".words_per_event", "words") ])
      (prof_labels @ [ "other" ])

let per_layer (wl : Wl.t) ~seed =
  (* warm up first, as end_to_end does, so the untraced/traced ratio
     compares two warm runs *)
  let untraced () = fst (one_rep wl ~seed ~traced:false ~attach:ignore ~inspect:ignore) in
  let warmup = untraced () in
  let ra = untraced () in
  let events = ra.events in
  let tr = Obs.Trace.create () in
  let prof = Obs.Prof.create ~clock:now () in
  let rb, (p, micro) =
    one_rep wl ~seed ~traced:true
      ~attach:(fun eng ->
        Sim.Engine.attach_obs eng tr;
        Sim.Engine.attach_prof eng prof)
      ~inspect:(fun inst -> (Option.get inst.probe, inst.micro ()))
  in
  let ops = rb.out.attempted in
  let summary_ms l =
    let p50, tail, _ = Measure.summary l in
    (ms p50, ms tail)
  in
  let dial_p50, dial_tail = summary_ms (Probe.durations p "dial") in
  let rtt_p50, rtt_tail = summary_ms p.Probe.rtts in
  let self = Probe.self_times p in
  let report = Obs.Prof.report prof in
  let prof_of l =
    List.filter (fun (x : Obs.Prof.layer) -> x.l_label = l) report.r_layers
  in
  let others =
    List.filter (fun (x : Obs.Prof.layer) -> not (List.mem x.l_label prof_labels)) report.r_layers
  in
  let prof_metrics label layers =
    let ev = List.fold_left (fun n (x : Obs.Prof.layer) -> n + x.l_events) 0 layers in
    let share = List.fold_left (fun s (x : Obs.Prof.layer) -> s +. x.l_share) 0. layers in
    let words =
      List.fold_left
        (fun s (x : Obs.Prof.layer) -> s +. (x.l_words_per_event *. float_of_int x.l_events))
        0. layers
    in
    [ ("prof." ^ label ^ ".share", share); ("prof." ^ label ^ ".words_per_event", per words ev) ]
  in
  let computed =
    rb.extra
    @ [
        ("sim.events", float_of_int events);
        ("sim.events_per_op", per (float_of_int events) ra.out.attempted);
        ("sim.words_per_event", per ra.words events);
        ("sim.events_per_s", float_of_int events /. ra.run_ref_s);
        ("sim.pending_end", float_of_int ra.pending);
        ("sim.stalled_end", float_of_int (List.length ra.stalled));
        ("dial.virt_p50_ms", dial_p50);
        ("dial.virt_tail_ms", dial_tail);
        ("dial.retries", float_of_int p.Probe.dial_retries);
        ("9p.rpcs_per_op", per (float_of_int p.Probe.rpcs) ops);
        ("9p.bytes_per_op", per (float_of_int p.Probe.rpc_bytes) ops);
        ("9p.rtt_virt_p50_ms", rtt_p50);
        ("9p.rtt_virt_tail_ms", rtt_tail);
        ("obs.trace_overhead", (rb.run_ref_s /. ra.run_ref_s) -. 1.);
        ("obs.trace_words_per_event", per (rb.words -. ra.words) events);
      ]
    @ rb.net
    @ List.concat_map
        (fun c ->
          let d = Probe.durations ~name:c p "vfs" in
          [
            ("vfs." ^ c ^ ".virt_p50_ms", ms (Measure.median d));
            ("vfs." ^ c ^ ".calls", float_of_int (List.length d));
          ])
        vfs_calls
    @ List.map
        (fun l -> ("span." ^ l ^ ".self_ms_per_op", per (ms (self l)) ops))
        span_layers
    @ Micro.run micro
    @ List.concat_map (fun l -> prof_metrics l (prof_of l)) prof_labels
    @ prof_metrics "other" others
  in
  (* the first value listed wins: workload figures override defaults *)
  let metrics =
    List.map
      (fun (name, unit) ->
        (name, Option.value ~default:0. (List.assoc_opt name computed), unit))
      layer_schema
  in
  (try Sys.mkdir ".perfbench_out" 0o755 with Sys_error _ -> ());
  let file = Printf.sprintf ".perfbench_out/spans-%s-seed%d.tsv" wl.name seed in
  Probe.write_tsv p file;
  Printf.printf "workload %s seed %d: traced run %.3f s vs untraced %.3f s; %d spans in %s\n"
    wl.name seed rb.run_s ra.run_s (List.length p.Probe.spans) file;
  quiescence { ra with extra = rb.extra };
  let crashes = List.filter_map (fun r -> r.crash) [ warmup; ra; rb ] in
  List.iter (fun c -> Printf.printf "crash: %s\n" c) crashes;
  let failed = warmup.out.failed + ra.out.failed + rb.out.failed in
  (* the capture station adds deliveries, so the traced run has more
     engine events; everything else must match the untraced run *)
  let observable (out : Wl.outcome) = List.remove_assoc "engine_events" out.fingerprint in
  print_result
    ~correct:
      (failed = 0 && crashes = [] && warmup.out = ra.out && observable ra.out = observable rb.out)
    ~attempted:(warmup.out.attempted + ra.out.attempted + ops)
    ~failed metrics

(* ---- golden cross-check ---- *)

(* The value after ["key": ] at its first occurrence in [file]. *)
let golden_field file key =
  let s = In_channel.with_open_bin file In_channel.input_all in
  let pat = Printf.sprintf "\"%s\": " key in
  let rec find i =
    if i + String.length pat > String.length s then failwith ("no " ^ key ^ " in " ^ file)
    else if String.sub s i (String.length pat) = pat then i + String.length pat
    else find (i + 1)
  in
  let i = find 0 in
  let j = ref i in
  while !j < String.length s && not (List.mem s.[!j] [ ','; '}'; '\n' ]) do
    incr j
  done;
  String.sub s i (!j - i)

let golden () =
  let check name file keys (inst : Wl.instance) =
    P9net.World.run ~until:inst.horizon inst.world;
    let out = inst.outcome () in
    List.fold_left
      (fun ok key ->
        let want = golden_field file key and got = List.assoc key out.fingerprint in
        Printf.printf "%s %s: golden %s, measured %s%s\n" name key want got
          (if want = got then "" else "  DIFFERS");
        ok && want = got)
      (out.failed = 0) keys
  in
  let a =
    check "routed-swarm" "bench/golden/BENCH_routed.json" [ "engine_events"; "elapsed_s" ]
      (Routed.setup ~golden:true ~seed:11 ~traced:false ())
  in
  let b =
    check "fleet-boot" "bench/golden/BENCH_bootstorm.json"
      [ "origin_round_trips"; "convergence_s" ]
      (Fleet.setup ~golden:true ~seed:17 ~traced:false ())
  in
  exit (if a && b then 0 else 1)

(* ---- command line ---- *)

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10. and trace = ref 0 in
  let gold = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME routed-swarm | fleet-boot | import-rw");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N input seed (default: the workload's)");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--golden", Arg.Set gold, " compare with bench/golden");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main --workload NAME --seed N --seconds S --trace 0|1";
  if !gold then golden ();
  match List.find_opt (fun (w : Wl.t) -> w.name = !workload) workloads with
  | None ->
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  | Some wl ->
    let seed = Option.value ~default:wl.default_seed !seed in
    if !trace = 1 then per_layer wl ~seed else end_to_end wl ~seed ~seconds:!seconds
