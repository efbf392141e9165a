(* Tests for pipes, the streams of paper section 2.4 that are built. *)

let run_sim f =
  let eng = Sim.Engine.create () in
  let _p = Sim.Proc.spawn eng (fun () -> f eng) in
  Sim.Engine.run eng

(* the stream events a traced run emitted, one line each *)
let stream_events tr =
  List.filter_map
    (fun (_, _, ev) ->
      match ev with
      | Obs.Event.Stream { dev; dir; bytes; delim } ->
        Some
          (Printf.sprintf "%s %s %d%s" dev
             (if dir = Obs.Event.Down then "down" else "up")
             bytes
             (if delim then " delim" else ""))
      | _ -> None)
    (Obs.Trace.events tr)

let traced_pipe eng =
  let tr = Obs.Trace.create () in
  Sim.Engine.attach_obs eng tr;
  (tr, Streams.Pipe.create eng)

(* a pipe end's device is its peer: the writer's end sends the block
   down, the reader's end takes it up, both under their own names *)
let test_write_reaches_device () =
  run_sim (fun eng ->
      let tr, (a, b) = traced_pipe eng in
      Streams.write a "hello";
      Alcotest.(check (list string)) "down at pipe.0, up at pipe.1"
        [ "pipe.0 down 5 delim"; "pipe.1 up 5 delim" ]
        (stream_events tr);
      Alcotest.(check string) "payload" "hello" (Streams.read b 100))

let test_large_write_splits () =
  run_sim (fun eng ->
      let tr, (a, b) = traced_pipe eng in
      let big = String.make (Block.max_atomic_write + 5) 'x' in
      Streams.write a big;
      Streams.write a "next";
      Alcotest.(check (list string)) "32k block, then a delimited tail"
        [
          "pipe.0 down 32768";
          "pipe.1 up 32768";
          "pipe.0 down 5 delim";
          "pipe.1 up 5 delim";
          "pipe.0 down 4 delim";
          "pipe.1 up 4 delim";
        ]
        (stream_events tr);
      Alcotest.(check string) "one message, ended by the only delimiter" big
        (Streams.read b 65536);
      Alcotest.(check string) "next message" "next" (Streams.read b 65536))

let test_hangup_gives_eof () =
  run_sim (fun eng ->
      let tr, (a, b) = traced_pipe eng in
      Streams.write a "last";
      Streams.close a;
      Streams.close a;
      Alcotest.(check (list string)) "one zero-byte hangup goes up"
        [ "pipe.0 down 4 delim"; "pipe.1 up 4 delim"; "pipe.1 up 0 delim" ]
        (stream_events tr);
      Alcotest.(check bool) "closed" true (Streams.closed a);
      Alcotest.(check bool) "write after close raises" true
        (try
           Streams.write a "more";
           false
         with Block.Q.Closed -> true);
      Alcotest.(check string) "data" "last" (Streams.read b 100);
      Alcotest.(check string) "eof" "" (Streams.read b 100))

let test_pipe_roundtrip () =
  let eng = Sim.Engine.create () in
  let a, b = Streams.Pipe.create eng in
  let got = ref "" in
  let _reader = Sim.Proc.spawn eng (fun () -> got := Streams.read b 100) in
  let _writer = Sim.Proc.spawn eng (fun () -> Streams.write a "through") in
  Sim.Engine.run eng;
  Alcotest.(check string) "pipe delivers" "through" !got

let test_pipe_bidirectional () =
  let eng = Sim.Engine.create () in
  let a, b = Streams.Pipe.create eng in
  let reply = ref "" in
  let _server =
    Sim.Proc.spawn eng (fun () ->
        let q = Streams.read b 100 in
        Streams.write b ("re:" ^ q))
  in
  let _client =
    Sim.Proc.spawn eng (fun () ->
        Streams.write a "ping";
        reply := Streams.read a 100)
  in
  Sim.Engine.run eng;
  Alcotest.(check string) "reply" "re:ping" !reply

let test_pipe_close_hangs_up_peer () =
  let eng = Sim.Engine.create () in
  let a, b = Streams.Pipe.create eng in
  let got = ref "sentinel" in
  let _reader = Sim.Proc.spawn eng (fun () -> got := Streams.read b 100) in
  let _closer =
    Sim.Proc.spawn eng (fun () ->
        Sim.Time.sleep eng 1.0;
        Streams.close a)
  in
  Sim.Engine.run eng;
  Alcotest.(check string) "peer sees eof" "" !got

let test_delimiters_preserved_through_pipe () =
  let eng = Sim.Engine.create () in
  let a, b = Streams.Pipe.create eng in
  let msgs = ref [] in
  let _reader =
    Sim.Proc.spawn eng (fun () ->
        let rec go () =
          let m = Streams.read b 4096 in
          if m <> "" then begin
            msgs := m :: !msgs;
            go ()
          end
        in
        go ())
  in
  let _writer =
    Sim.Proc.spawn eng (fun () ->
        Streams.write a "first message";
        Streams.write a "second";
        Streams.close a)
  in
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "boundaries kept"
    [ "first message"; "second" ]
    (List.rev !msgs)

(* ---- wakeup cascades (regressions for schedule-explorer findings) ----

   Both bugs below were flushed out by `p9explore` (scenarios
   stream-backpressure and stream-read-cascade) and stalled under every
   policy, so the pinned repro schedule is plain fifo:

     p9explore -s stream-backpressure -p fifo
     p9explore -s stream-read-cascade -p fifo                          *)

(* one big drain must free every writer that now fits, not just the
   first: a put that leaves room passes the wakeup along *)
let test_writer_wakeup_cascades () =
  let eng = Sim.Engine.create () in
  let a, b = Streams.Pipe.create ~qlimit:1024 eng in
  let done1 = ref false and done2 = ref false in
  ignore
    (Sim.Proc.spawn eng ~name:"fill" (fun () ->
         Streams.write a (String.make 1200 'f')));
  let writer delay flag =
    ignore
      (Sim.Proc.spawn eng ~name:"writer" (fun () ->
           Sim.Time.sleep eng delay;
           Streams.write a (String.make 100 'w');
           flag := true))
  in
  writer 0.5 done1;
  writer 0.6 done2;
  ignore
    (Sim.Proc.spawn eng ~name:"consumer" (fun () ->
         Sim.Time.sleep eng 1.0;
         Alcotest.(check int) "drained backlog" 1200
           (String.length (Streams.read b 4096))));
  Sim.Engine.run eng;
  Alcotest.(check bool) "first writer completed" true !done1;
  Alcotest.(check bool) "second writer completed" true !done2;
  Alcotest.(check (list string)) "no stalled procs" []
    (Sim.Engine.stalled eng)

(* a read that stops at its byte count with data still queued must wake
   the next reader: the enqueue-time wakeup was consumed by the first *)
let test_reader_wakeup_cascades () =
  let eng = Sim.Engine.create () in
  let a, b = Streams.Pipe.create eng in
  let got = ref [] in
  let reader id delay =
    ignore
      (Sim.Proc.spawn eng ~name:"reader" (fun () ->
           Sim.Time.sleep eng delay;
           let data = Streams.read b 100 in
           got := (id, String.length data) :: !got))
  in
  reader 1 0.5;
  reader 2 0.6;
  ignore
    (Sim.Proc.spawn eng ~name:"producer" (fun () ->
         Sim.Time.sleep eng 1.0;
         Streams.write a (String.make 200 'm')));
  Sim.Engine.run eng;
  Alcotest.(check (list (pair int int)))
    "both readers got their half"
    [ (1, 100); (2, 100) ]
    (List.sort compare !got);
  Alcotest.(check (list string)) "no stalled procs" []
    (Sim.Engine.stalled eng)

let () =
  Alcotest.run "streams"
    [
      ( "basic",
        [
          Alcotest.test_case "write reaches device" `Quick
            test_write_reaches_device;
          Alcotest.test_case "large write splits" `Quick
            test_large_write_splits;
          Alcotest.test_case "hangup eof" `Quick test_hangup_gives_eof;
        ] );
      ( "pipes",
        [
          Alcotest.test_case "roundtrip" `Quick test_pipe_roundtrip;
          Alcotest.test_case "bidirectional" `Quick test_pipe_bidirectional;
          Alcotest.test_case "close hangs up peer" `Quick
            test_pipe_close_hangs_up_peer;
          Alcotest.test_case "delimiters preserved" `Quick
            test_delimiters_preserved_through_pipe;
        ] );
      ( "wakeup-cascades",
        [
          Alcotest.test_case "writer cascade" `Quick
            test_writer_wakeup_cascades;
          Alcotest.test_case "reader cascade" `Quick
            test_reader_wakeup_cascades;
        ] );
    ]
