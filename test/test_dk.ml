(* Tests for the Datakit switch and URP. *)

let make_switch ?loss ?(seed = 9) () =
  let eng = Sim.Engine.create ~seed () in
  let sw = Dk.Switch.create ?loss ~name:"dk" eng in
  let helix = Dk.Switch.attach sw ~name:"nj/astro/helix" in
  let gnot = Dk.Switch.attach sw ~name:"nj/astro/philw-gnot" in
  (eng, sw, helix, gnot)

let spawn = Sim.Proc.spawn

let test_dial_accept () =
  let eng, _sw, helix, gnot = make_switch () in
  let caller_seen = ref "" and service_seen = ref "" in
  let _server =
    spawn eng (fun () ->
        let calls = Dk.Circuit.announce helix ~service:"9fs" in
        let inc = Sim.Mbox.recv calls in
        caller_seen := Dk.Circuit.caller inc;
        service_seen := Dk.Circuit.service inc;
        ignore (Dk.Circuit.accept inc))
  in
  let connected = ref false in
  let _client =
    spawn eng (fun () ->
        let circ =
          Dk.Circuit.dial gnot ~dest:"nj/astro/helix" ~service:"9fs"
        in
        connected := true;
        Alcotest.(check string) "peer" "nj/astro/helix"
          (Dk.Circuit.peer_name circ))
  in
  Sim.Engine.run ~until:10.0 eng;
  Alcotest.(check bool) "connected" true !connected;
  Alcotest.(check string) "caller name" "nj/astro/philw-gnot" !caller_seen;
  Alcotest.(check string) "service name" "9fs" !service_seen

let test_dial_reject_with_reason () =
  let eng, _sw, helix, gnot = make_switch () in
  let _server =
    spawn eng (fun () ->
        let calls = Dk.Circuit.announce helix ~service:"9fs" in
        let inc = Sim.Mbox.recv calls in
        Dk.Circuit.reject inc ~reason:"permission denied")
  in
  let reason = ref "" in
  let _client =
    spawn eng (fun () ->
        try
          ignore (Dk.Circuit.dial gnot ~dest:"nj/astro/helix" ~service:"9fs")
        with Dk.Circuit.Rejected r -> reason := r)
  in
  Sim.Engine.run ~until:10.0 eng;
  Alcotest.(check string) "reason delivered" "permission denied" !reason

let test_dial_no_such_line () =
  let eng, _sw, _helix, gnot = make_switch () in
  let ok = ref false in
  let _client =
    spawn eng (fun () ->
        try ignore (Dk.Circuit.dial gnot ~dest:"nj/astro/nowhere" ~service:"x")
        with Dk.Circuit.No_such_line _ -> ok := true)
  in
  Sim.Engine.run ~until:5.0 eng;
  Alcotest.(check bool) "no such line" true !ok

let test_dial_unknown_service () =
  let eng, _sw, _helix, gnot = make_switch () in
  let ok = ref false in
  let _client =
    spawn eng (fun () ->
        try
          ignore (Dk.Circuit.dial gnot ~dest:"nj/astro/helix" ~service:"zap")
        with Dk.Circuit.Rejected _ -> ok := true)
  in
  Sim.Engine.run ~until:5.0 eng;
  Alcotest.(check bool) "rejected" true !ok

let test_wildcard_service () =
  (* announcing "*" receives services not explicitly announced — how
     the Plan 9 listener replaces inetd *)
  let eng, _sw, helix, gnot = make_switch () in
  let got_service = ref "" in
  let _server =
    spawn eng (fun () ->
        let calls = Dk.Circuit.announce helix ~service:"*" in
        let inc = Sim.Mbox.recv calls in
        got_service := Dk.Circuit.service inc;
        ignore (Dk.Circuit.accept inc))
  in
  let _client =
    spawn eng (fun () ->
        ignore (Dk.Circuit.dial gnot ~dest:"nj/astro/helix" ~service:"exportfs"))
  in
  Sim.Engine.run ~until:10.0 eng;
  Alcotest.(check string) "wildcard caught it" "exportfs" !got_service

let test_cells_ordered () =
  let eng, _sw, helix, gnot = make_switch () in
  let got = ref [] in
  let _server =
    spawn eng (fun () ->
        let calls = Dk.Circuit.announce helix ~service:"x" in
        let inc = Sim.Mbox.recv calls in
        let circ = Dk.Circuit.accept inc in
        Dk.Circuit.set_rx circ (function
          | Dk.Circuit.Packet p -> got := p :: !got
          | Dk.Circuit.Data _ | Dk.Circuit.Ctl _ | Dk.Circuit.Hangup -> ()))
  in
  let _client =
    spawn eng (fun () ->
        let circ = Dk.Circuit.dial gnot ~dest:"nj/astro/helix" ~service:"x" in
        List.iter
          (fun p -> Dk.Circuit.send circ (Dk.Circuit.Packet p))
          [ "a"; "b"; "c" ];
        Sim.Time.sleep eng 1.0;
        Dk.Circuit.hangup circ)
  in
  Sim.Engine.run ~until:10.0 eng;
  Alcotest.(check (list string)) "in order" [ "a"; "b"; "c" ] (List.rev !got)

(* An end drops cells until [set_rx]; none can arrive before it is set
   right after [dial] returns, since even the smallest cell the callee
   sends right after [accept] takes a cell time on the line and the
   caller resumes one switch transit after the accept. *)
let test_first_cell_after_accept () =
  let eng, _sw, helix, gnot = make_switch () in
  let got = ref [] in
  let _server =
    spawn eng (fun () ->
        let calls = Dk.Circuit.announce helix ~service:"x" in
        let circ = Dk.Circuit.accept (Sim.Mbox.recv calls) in
        Dk.Circuit.send circ (Dk.Circuit.Packet ""))
  in
  let _client =
    spawn eng (fun () ->
        let circ = Dk.Circuit.dial gnot ~dest:"nj/astro/helix" ~service:"x" in
        Dk.Circuit.set_rx circ (function
          | Dk.Circuit.Packet p -> got := p :: !got
          | Dk.Circuit.Data _ | Dk.Circuit.Ctl _ | Dk.Circuit.Hangup -> ()))
  in
  Sim.Engine.run ~until:10.0 eng;
  Alcotest.(check (list string)) "first cell kept" [ "" ] !got

let urp_pair ?loss ?config () =
  let eng, sw, helix, gnot = make_switch ?loss () in
  let server_conv = ref None in
  let _server =
    spawn eng (fun () ->
        let calls = Dk.Circuit.announce helix ~service:"urp" in
        let inc = Sim.Mbox.recv calls in
        let circ = Dk.Circuit.accept inc in
        server_conv := Some (Dk.Urp.over ?config circ))
  in
  let client_conv = ref None in
  let _client =
    spawn eng (fun () ->
        let circ = Dk.Circuit.dial gnot ~dest:"nj/astro/helix" ~service:"urp" in
        client_conv := Some (Dk.Urp.over ?config circ))
  in
  (eng, sw, server_conv, client_conv)

let test_urp_roundtrip () =
  let eng, _sw, server_conv, client_conv = urp_pair () in
  let got = ref "" in
  let _s =
    spawn eng (fun () ->
        while !server_conv = None do
          Sim.Time.sleep eng 0.01
        done;
        let conv = Option.get !server_conv in
        match Dk.Urp.read_msg conv with
        | Some m -> Dk.Urp.write conv ("re:" ^ m)
        | None -> ())
  in
  let _c =
    spawn eng (fun () ->
        while !client_conv = None do
          Sim.Time.sleep eng 0.01
        done;
        let conv = Option.get !client_conv in
        Dk.Urp.write conv "ping";
        match Dk.Urp.read_msg conv with
        | Some m -> got := m
        | None -> ())
  in
  Sim.Engine.run ~until:30.0 eng;
  Alcotest.(check string) "urp echo" "re:ping" !got

let test_urp_delimiters () =
  let eng, _sw, server_conv, client_conv = urp_pair () in
  let msgs = ref [] in
  let _s =
    spawn eng (fun () ->
        while !server_conv = None do
          Sim.Time.sleep eng 0.01
        done;
        let conv = Option.get !server_conv in
        let rec go n =
          if n > 0 then
            match Dk.Urp.read_msg conv with
            | Some m ->
              msgs := m :: !msgs;
              go (n - 1)
            | None -> ()
        in
        go 2)
  in
  let _c =
    spawn eng (fun () ->
        while !client_conv = None do
          Sim.Time.sleep eng 0.01
        done;
        let conv = Option.get !client_conv in
        (* a multi-cell message and a small one: boundaries must hold *)
        Dk.Urp.write conv (String.make 5000 'x');
        Dk.Urp.write conv "tail")
  in
  Sim.Engine.run ~until:30.0 eng;
  match List.rev !msgs with
  | [ big; small ] ->
    Alcotest.(check int) "multi-cell message reassembled" 5000
      (String.length big);
    Alcotest.(check string) "boundary kept" "tail" small
  | _ -> Alcotest.fail "expected two messages"

let test_urp_reliable_under_loss () =
  let eng, _sw, server_conv, client_conv = urp_pair ~loss:0.05 () in
  let got = ref [] in
  let n = 30 in
  let _s =
    spawn eng (fun () ->
        while !server_conv = None do
          Sim.Time.sleep eng 0.01
        done;
        let conv = Option.get !server_conv in
        let rec go () =
          match Dk.Urp.read_msg conv with
          | Some m ->
            got := m :: !got;
            go ()
          | None -> ()
        in
        go ())
  in
  let _c =
    spawn eng (fun () ->
        while !client_conv = None do
          Sim.Time.sleep eng 0.01
        done;
        let conv = Option.get !client_conv in
        for i = 1 to n do
          Dk.Urp.write conv (Printf.sprintf "m%02d" i)
        done)
  in
  Sim.Engine.run ~until:120.0 eng;
  let expect = List.init n (fun i -> Printf.sprintf "m%02d" (i + 1)) in
  Alcotest.(check (list string)) "complete and ordered" expect
    (List.rev !got);
  let c = Dk.Urp.counters (Option.get !client_conv) in
  Alcotest.(check bool) "enquiries used for recovery" true
    (c.Dk.Urp.enqs_sent > 0)

let test_urp_dup_exactly_once () =
  (* heavy duplication on the switch: every message must still be
     delivered exactly once, in order, with the duplicates counted *)
  let eng, sw, server_conv, client_conv = urp_pair () in
  Netsim.Fault.set_dup (Dk.Switch.faults sw) 0.5;
  let got = ref [] in
  let n = 20 in
  let _s =
    spawn eng (fun () ->
        while !server_conv = None do
          Sim.Time.sleep eng 0.01
        done;
        let conv = Option.get !server_conv in
        let rec go () =
          match Dk.Urp.read_msg conv with
          | Some m ->
            got := m :: !got;
            go ()
          | None -> ()
        in
        go ())
  in
  let _c =
    spawn eng (fun () ->
        while !client_conv = None do
          Sim.Time.sleep eng 0.01
        done;
        let conv = Option.get !client_conv in
        for i = 1 to n do
          Dk.Urp.write conv (Printf.sprintf "m%02d" i)
        done)
  in
  Sim.Engine.run ~until:120.0 eng;
  let expect = List.init n (fun i -> Printf.sprintf "m%02d" (i + 1)) in
  Alcotest.(check (list string)) "exactly once, in order" expect
    (List.rev !got);
  let srv = Dk.Urp.counters (Option.get !server_conv) in
  Alcotest.(check bool) "duplicates were suppressed" true
    (srv.Dk.Urp.dups_dropped > 0)

let test_urp_survives_burst_loss () =
  (* the canonical 20% Gilbert schedule on the switch.  Messages are
     bulk-sized: the Gilbert chain steps per cell, so multi-cell data
     keeps bursts short in wall-clock terms.  A trickle of tiny
     messages can (correctly) die of 10 unanswered enqs inside one
     opaque burst — that teardown path gets its own test below. *)
  let eng, sw, server_conv, client_conv = urp_pair () in
  Netsim.Fault.set_burst (Dk.Switch.faults sw) ~p_enter:0.05 ~p_exit:0.2
    ~loss:1.0;
  let got = ref 0 in
  let n = 40 in
  let _s =
    spawn eng (fun () ->
        while !server_conv = None do
          Sim.Time.sleep eng 0.01
        done;
        let conv = Option.get !server_conv in
        let rec go () =
          match Dk.Urp.read_msg conv with
          | Some _ ->
            incr got;
            go ()
          | None -> ()
        in
        go ())
  in
  let _c =
    spawn eng (fun () ->
        while !client_conv = None do
          Sim.Time.sleep eng 0.01
        done;
        let conv = Option.get !client_conv in
        for _ = 1 to n do
          Dk.Urp.write conv (String.make 1000 'b')
        done)
  in
  Sim.Engine.run ~until:600.0 eng;
  Alcotest.(check int) "all messages recovered" n !got;
  let c = Dk.Urp.counters (Option.get !client_conv) in
  Alcotest.(check bool) "recovery actually ran" true
    (c.Dk.Urp.retransmits > 0)

let test_urp_partition_kills_circuit () =
  (* a partition longer than URP's patience: the sender must see
     Hungup (dead circuit), never a hang *)
  let eng, sw, server_conv, client_conv = urp_pair () in
  let outcome = ref "none" in
  let _s =
    spawn eng (fun () ->
        while !server_conv = None do
          Sim.Time.sleep eng 0.01
        done;
        let conv = Option.get !server_conv in
        let rec go () =
          match Dk.Urp.read_msg conv with Some _ -> go () | None -> ()
        in
        go ())
  in
  let _c =
    spawn eng (fun () ->
        while !client_conv = None do
          Sim.Time.sleep eng 0.01
        done;
        let conv = Option.get !client_conv in
        Dk.Urp.write conv "before";
        Sim.Time.sleep eng 1.0;
        (* now the switch goes dark, for far longer than 10 enqs *)
        Netsim.Fault.partition (Dk.Switch.faults sw)
          ~from_:(Sim.Engine.now eng)
          ~until:(Sim.Engine.now eng +. 10_000.);
        try
          for i = 1 to 1000 do
            Dk.Urp.write conv (Printf.sprintf "m%d" i);
            Sim.Time.sleep eng 1.0
          done;
          outcome := "survived"
        with Dk.Urp.Hungup -> outcome := "hungup")
  in
  Sim.Engine.run ~until:4000.0 eng;
  Alcotest.(check string) "dead circuit detected" "hungup" !outcome

let test_urp_fault_determinism () =
  (* same seed, same switch schedule => identical counters *)
  let run_once () =
    let eng, sw, server_conv, client_conv = urp_pair () in
    let f = Dk.Switch.faults sw in
    Netsim.Fault.set_burst f ~p_enter:0.05 ~p_exit:0.2 ~loss:1.0;
    Netsim.Fault.set_dup f 0.1;
    let _s =
      spawn eng (fun () ->
          while !server_conv = None do
            Sim.Time.sleep eng 0.01
          done;
          let conv = Option.get !server_conv in
          let rec go () =
            match Dk.Urp.read_msg conv with Some _ -> go () | None -> ()
          in
          go ())
    in
    let _c =
      spawn eng (fun () ->
          while !client_conv = None do
            Sim.Time.sleep eng 0.01
          done;
          let conv = Option.get !client_conv in
          for i = 1 to 25 do
            Dk.Urp.write conv (Printf.sprintf "m%02d" i)
          done)
    in
    Sim.Engine.run ~until:240.0 eng;
    let c = Dk.Urp.counters (Option.get !client_conv) in
    let s = Dk.Urp.counters (Option.get !server_conv) in
    Printf.sprintf "tx %d/%d re %d enq %d | rx %d dup %d" c.Dk.Urp.cells_sent
      c.Dk.Urp.bytes_sent c.Dk.Urp.retransmits c.Dk.Urp.enqs_sent
      s.Dk.Urp.cells_rcvd s.Dk.Urp.dups_dropped
  in
  let r1 = run_once () and r2 = run_once () in
  Alcotest.(check string) "same seed, same counters" r1 r2

let test_urp_close_gives_eof () =
  let eng, _sw, server_conv, client_conv = urp_pair () in
  let eof = ref false in
  let _s =
    spawn eng (fun () ->
        while !server_conv = None do
          Sim.Time.sleep eng 0.01
        done;
        let conv = Option.get !server_conv in
        let rec go () =
          match Dk.Urp.read_msg conv with
          | Some _ -> go ()
          | None -> eof := true
        in
        go ())
  in
  let _c =
    spawn eng (fun () ->
        while !client_conv = None do
          Sim.Time.sleep eng 0.01
        done;
        let conv = Option.get !client_conv in
        Dk.Urp.write conv "bye";
        Sim.Time.sleep eng 1.0;
        Dk.Urp.close conv)
  in
  Sim.Engine.run ~until:30.0 eng;
  Alcotest.(check bool) "server saw eof" true !eof

(* The enquiry timer keeps the grid a 20 Hz ticker started at [over]
   would have ticked on, and an ack that resets a backed-off timer
   pulls the next enquiry in.  The client's first message is lost
   until two enquiries have gone out (backoff 2); then an ack gets
   through and the next cell is lost once more.  With [drained] the
   ack empties the window and the lost cell is a later message's;
   otherwise it is the second of two messages sent back to back. *)
let backoff_reset ~drained () =
  let eng, sw, helix, gnot = make_switch () in
  let min_timeout = Dk.Urp.default_config.Dk.Urp.min_timeout in
  let enqs = ref [] in
  (* when the last progress before the lost cell was made: the second
     write, or the send of the ack that resets the backoff *)
  let progress = ref infinity in
  let m2_lost = ref false in
  Netsim.Fault.set_filter (Dk.Switch.faults sw) (fun text ->
      let now = Sim.Engine.now eng in
      let backed_off = List.length !enqs >= 2 in
      match text with
      | "enq" ->
        enqs := now :: !enqs;
        None
      | ("m1" | "m2") when not backed_off -> Some "test"
      | "m2" when not !m2_lost ->
        m2_lost := true;
        Some "test"
      | "ack 0" when (not drained) && !progress = infinity ->
        progress := now;
        None
      | _ -> None);
  let got = ref [] in
  let _server =
    spawn eng (fun () ->
        let calls = Dk.Circuit.announce helix ~service:"urp" in
        let conv = Dk.Urp.over (Dk.Circuit.accept (Sim.Mbox.recv calls)) in
        let rec go () =
          match Dk.Urp.read_msg conv with
          | Some m ->
            got := m :: !got;
            go ()
          | None -> ()
        in
        go ())
  in
  let t0 = ref 0. and spawns = ref (-1) in
  let _client =
    spawn eng (fun () ->
        let circ = Dk.Circuit.dial gnot ~dest:"nj/astro/helix" ~service:"urp" in
        t0 := Sim.Engine.now eng;
        let before = Sim.Engine.spawned eng in
        let conv = Dk.Urp.over circ in
        spawns := Sim.Engine.spawned eng - before;
        Dk.Urp.write conv "m1";
        if drained then begin
          while !got = [] do
            Sim.Time.sleep eng 0.001
          done;
          Sim.Time.sleep eng 0.01;
          progress := Sim.Engine.now eng
        end;
        Dk.Urp.write conv "m2")
  in
  Sim.Engine.run ~until:30.0 eng;
  Alcotest.(check int) "Urp.over spawns no process" 0 !spawns;
  Alcotest.(check (list string)) "both delivered" [ "m1"; "m2" ]
    (List.rev !got);
  Alcotest.(check bool) "the second cell was lost" true !m2_lost;
  let step = min_timeout /. 2. in
  let rec on_grid g t = if g < t then on_grid (g +. step) t else g = t in
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Printf.sprintf "enquiry at %.6f on the grid" t)
        true (on_grid !t0 t))
    !enqs;
  (* the ack's send precedes its arrival by the line's transit *)
  let slack = if drained then 0. else 1e-3 in
  match List.filter (fun t -> t > !progress) (List.rev !enqs) with
  | [] -> Alcotest.fail "no enquiry after the reset"
  | first :: _ ->
    let after = first -. !progress in
    Alcotest.(check bool)
      (Printf.sprintf "first enquiry %.6f s after progress" after)
      true
      (after <= (1.5 *. min_timeout) +. slack)

let test_urp_backoff_reset () =
  backoff_reset ~drained:true ();
  backoff_reset ~drained:false ()

let () =
  Alcotest.run "dk"
    [
      ( "circuit",
        [
          Alcotest.test_case "dial and accept" `Quick test_dial_accept;
          Alcotest.test_case "reject with reason" `Quick
            test_dial_reject_with_reason;
          Alcotest.test_case "no such line" `Quick test_dial_no_such_line;
          Alcotest.test_case "unknown service" `Quick
            test_dial_unknown_service;
          Alcotest.test_case "wildcard service" `Quick test_wildcard_service;
          Alcotest.test_case "cells ordered" `Quick test_cells_ordered;
          Alcotest.test_case "first cell after accept" `Quick
            test_first_cell_after_accept;
        ] );
      ( "urp",
        [
          Alcotest.test_case "roundtrip" `Quick test_urp_roundtrip;
          Alcotest.test_case "delimiters" `Quick test_urp_delimiters;
          Alcotest.test_case "reliable under loss" `Quick
            test_urp_reliable_under_loss;
          Alcotest.test_case "dup exactly once" `Quick test_urp_dup_exactly_once;
          Alcotest.test_case "survives burst loss" `Quick
            test_urp_survives_burst_loss;
          Alcotest.test_case "partition kills circuit" `Quick
            test_urp_partition_kills_circuit;
          Alcotest.test_case "fault determinism" `Quick
            test_urp_fault_determinism;
          Alcotest.test_case "close eof" `Quick test_urp_close_gives_eof;
          Alcotest.test_case "a backoff reset pulls the enquiry in" `Quick
            test_urp_backoff_reset;
        ] );
    ]
