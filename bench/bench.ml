(* The one bench driver.  A bench is a [spec]: a run function that
   returns deterministic JSON, the wall-clock profiler reports, and a
   value the spec's named checks inspect.  [drive] runs the spec twice
   and requires byte-identical JSON and the same profiled layer sets,
   writes BENCH_<file>.json with the perf reports beside it in
   BENCH_<file>.perf.json, checks the perf shape and every named check,
   and compares a golden spec's JSON with bench/golden/ byte for byte.
   It returns the failures rather than exiting, so a test can drive a
   fake spec.  Adding a bench means writing one spec. *)

type 'a output = {
  json : string;  (* deterministic: byte-identical across same-seed runs *)
  perf : (string * Obs.Prof.report) list;  (* wall clock; never in [json] *)
  value : 'a;
}

type 'a spec = {
  name : string;  (* the bench/main.exe section *)
  title : string;  (* its banner *)
  file : string;  (* writes BENCH_<file>.json and BENCH_<file>.perf.json *)
  run : unit -> 'a output;
  show : 'a output -> unit;  (* what the section prints to stdout *)
  checks : (string * ('a -> string option)) list;  (* None passes *)
  golden : bool;  (* compare with bench/golden/BENCH_<file>.json *)
}

type failure = { bench : string; check : string; detail : string }

let section title = Printf.printf "\n===== %s =====\n%!" title
let hr () = print_endline (String.make 66 '-')
let print_json o = print_string o.json

(* a check body: [expect ok "what went wrong" args] is None when [ok] *)
let expect ok fmt = Printf.ksprintf (fun m -> if ok then None else Some m) fmt

let write path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let perf_json perfs =
  "{\n"
  ^ String.concat ",\n"
      (List.map
         (fun (n, r) -> Printf.sprintf "  %S: %s" n (Obs.Prof.report_json r))
         perfs)
  ^ "\n}\n"

(* the values are machine-dependent, the shape is not *)
let perf_shape (name, (r : Obs.Prof.report)) =
  let share_sum =
    List.fold_left (fun a l -> a +. l.Obs.Prof.l_share) 0. r.r_layers
  in
  List.filter_map Fun.id
    [
      expect (r.r_events > 0) "%s: no events dispatched" name;
      expect (r.r_events_per_sec > 0.) "%s: events_per_sec = %g" name
        r.r_events_per_sec;
      expect (r.r_minor_words_per_event >= 0.)
        "%s: negative minor_words_per_event" name;
      expect (r.r_layers <> []) "%s: no layers attributed" name;
      expect
        (abs_float (share_sum -. 1.0) <= 0.05)
        "%s: layer shares sum to %.3f, not ~1.0" name share_sum;
    ]

let layer_sets perfs =
  List.map
    (fun (n, (r : Obs.Prof.report)) ->
      (n, List.sort compare (List.map (fun l -> l.Obs.Prof.l_label) r.r_layers)))
    perfs

let drive spec =
  section spec.title;
  let timed () =
    let t0 = Unix.gettimeofday () in
    let o = spec.run () in
    (o, Unix.gettimeofday () -. t0)
  in
  let a, wall_a = timed () in
  let b, wall_b = timed () in
  spec.show a;
  let path = Printf.sprintf "BENCH_%s.json" spec.file in
  write path a.json;
  write (Printf.sprintf "BENCH_%s.perf.json" spec.file) (perf_json a.perf);
  Printf.printf "wrote %s (wall clock %.2fs + %.2fs rerun)\n%!" path wall_a
    wall_b;
  let golden () =
    let gpath = Filename.concat "bench/golden" path in
    match In_channel.with_open_bin gpath In_channel.input_all with
    | want -> expect (a.json = want) "%s differs from %s" path gpath
    | exception Sys_error e -> Some e
  in
  ( "determinism",
    expect (a.json = b.json) "two same-seed runs produced different %s" path )
  :: ( "determinism",
       expect
         (layer_sets a.perf = layer_sets b.perf)
         "two same-seed runs attributed different layer sets" )
  :: (if spec.golden then [ ("golden", golden ()) ] else [])
  @ List.concat_map
      (fun p -> List.map (fun d -> ("perf shape", Some d)) (perf_shape p))
      a.perf
  @ List.map (fun (check, f) -> (check, f a.value)) spec.checks
  |> List.filter_map (fun (check, r) ->
         Option.map (fun detail -> { bench = spec.name; check; detail }) r)
