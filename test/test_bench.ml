(* The bench driver (Bench.drive) on a tiny fake spec, run in a fresh
   directory so the files it writes and the goldens it reads are the
   test's own. *)

let fake_perf () =
  let now = ref 0. in
  let clock () =
    now := !now +. 0.001;
    !now
  in
  let p = Obs.Prof.create ~clock () in
  Obs.Prof.begin_event p;
  Obs.Prof.end_event p "app";
  [ ("fake", Obs.Prof.report p) ]

let fake ?(golden = false) ?(checks = []) json =
  {
    Bench.name = "fake";
    title = "fake bench";
    file = "fake";
    run = (fun () -> { Bench.json = json (); perf = fake_perf (); value = () });
    show = ignore;
    checks;
    golden;
  }

let in_scratch f =
  let cwd = Sys.getcwd () in
  Sys.chdir (Filename.temp_dir "bench" "");
  Sys.mkdir "bench" 0o755;
  Sys.mkdir "bench/golden" 0o755;
  Fun.protect ~finally:(fun () -> Sys.chdir cwd) f

let read path = In_channel.with_open_bin path In_channel.input_all
let write path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)
let failed failures = List.map (fun f -> f.Bench.check) failures
let doc = "{\"bench\": \"fake\"}\n"

let test_nondeterministic () =
  in_scratch (fun () ->
      let n = ref 0 in
      let spec =
        fake (fun () ->
            incr n;
            Printf.sprintf "{\"run\": %d}\n" !n)
      in
      Alcotest.(check (list string))
        "fails as non-deterministic" [ "determinism" ]
        (failed (Bench.drive spec)))

let test_named_check () =
  in_scratch (fun () ->
      let spec =
        fake
          ~checks:
            [ ("holds", fun () -> None); ("breaks", fun () -> Some "by design") ]
          (fun () -> doc)
      in
      match Bench.drive spec with
      | [ f ] ->
        Alcotest.(check string) "named" "breaks" f.Bench.check;
        Alcotest.(check string) "detail" "by design" f.Bench.detail
      | fs ->
        Alcotest.failf "expected one failure, got [%s]"
          (String.concat "; " (failed fs)))

let test_golden_mismatch () =
  in_scratch (fun () ->
      write "bench/golden/BENCH_fake.json" "{\"bench\": \"old\"}\n";
      Alcotest.(check (list string))
        "golden mismatch reported" [ "golden" ]
        (failed (Bench.drive (fake ~golden:true (fun () -> doc)))))

let test_pass_writes_both () =
  in_scratch (fun () ->
      write "bench/golden/BENCH_fake.json" doc;
      Alcotest.(check (list string))
        "passes" []
        (failed (Bench.drive (fake ~golden:true (fun () -> doc))));
      Alcotest.(check string) "json written" doc (read "BENCH_fake.json");
      let perf = read "BENCH_fake.perf.json" in
      Alcotest.(check bool) "perf sidecar carries the report" true
        (String.starts_with ~prefix:"{\n  \"fake\": {\"events\": 1" perf))

let () =
  Alcotest.run "bench"
    [
      ( "driver",
        [
          Alcotest.test_case "non-deterministic run fails" `Quick
            test_nondeterministic;
          Alcotest.test_case "failing check named" `Quick test_named_check;
          Alcotest.test_case "golden mismatch" `Quick test_golden_mismatch;
          Alcotest.test_case "pass writes json and perf" `Quick
            test_pass_writes_both;
        ] );
    ]
