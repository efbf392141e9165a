(* Tests for blocks and blocking queues. *)

let in_sim f =
  let eng = Sim.Engine.create () in
  let result = ref None in
  let _p = Sim.Proc.spawn eng (fun () -> result := Some (f eng)) in
  Sim.Engine.run eng;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "simulated body did not finish"

let test_block_basics () =
  let b = Block.make "hello" in
  Alcotest.(check int) "len" 5 (Block.len b);
  Alcotest.(check string) "contents" "hello" (Block.to_string b);
  Block.consume b 2;
  Alcotest.(check string) "after consume" "llo" (Block.to_string b);
  Alcotest.check_raises "over-consume" (Invalid_argument "Block.consume")
    (fun () -> Block.consume b 10)

let test_block_sub () =
  let b = Block.make ~delim:true "abcdef" in
  let s = Block.sub b 3 in
  Alcotest.(check string) "sub" "abc" (Block.to_string s);
  Alcotest.(check bool) "partial sub drops delim" false s.Block.delim;
  let whole = Block.sub b 6 in
  Alcotest.(check bool) "full sub keeps delim" true whole.Block.delim

let test_block_concat () =
  let b =
    Block.concat [ Block.make "ab"; Block.make "cd"; Block.make ~delim:true "e" ]
  in
  Alcotest.(check string) "concat" "abcde" (Block.to_string b);
  Alcotest.(check bool) "delim carried" true b.Block.delim

let test_q_fifo () =
  in_sim (fun eng ->
      let q = Block.Q.create eng in
      Block.Q.put q (Block.make "one");
      Block.Q.put q (Block.make "two");
      let a = Option.get (Block.Q.get q) in
      let b = Option.get (Block.Q.get q) in
      Alcotest.(check string) "first" "one" (Block.to_string a);
      Alcotest.(check string) "second" "two" (Block.to_string b))

let test_q_read_stops_at_delim () =
  in_sim (fun eng ->
      let q = Block.Q.create eng in
      Block.Q.put q (Block.make ~delim:true "msg1");
      Block.Q.put q (Block.make ~delim:true "msg2");
      Alcotest.(check string) "first message only" "msg1"
        (Block.Q.read q 100);
      Alcotest.(check string) "second message" "msg2" (Block.Q.read q 100))

let test_q_read_spans_undelimited () =
  in_sim (fun eng ->
      let q = Block.Q.create eng in
      Block.Q.put q (Block.make "abc");
      Block.Q.put q (Block.make "def");
      Alcotest.(check string) "byte stream coalesces" "abcdef"
        (Block.Q.read q 100))

let test_q_partial_read () =
  in_sim (fun eng ->
      let q = Block.Q.create eng in
      Block.Q.put q (Block.make ~delim:true "abcdef");
      Alcotest.(check string) "first part" "abc" (Block.Q.read q 3);
      Alcotest.(check string) "rest" "def" (Block.Q.read q 3);
      Block.Q.close q;
      Alcotest.(check string) "eof" "" (Block.Q.read q 3))

let test_q_blocking_read () =
  let eng = Sim.Engine.create () in
  let q = Block.Q.create eng in
  let got = ref "" in
  let _reader =
    Sim.Proc.spawn eng (fun () -> got := Block.Q.read q 10)
  in
  Sim.Engine.after eng 1.0 (fun () ->
      Block.Q.force_put q (Block.make ~delim:true "late"));
  Sim.Engine.run eng;
  Alcotest.(check string) "reader waited" "late" !got

let test_q_writer_blocks_when_full () =
  let eng = Sim.Engine.create () in
  let q = Block.Q.create ~limit:10 eng in
  let wrote_second = ref 0. in
  let _writer =
    Sim.Proc.spawn eng (fun () ->
        Block.Q.put q (Block.make (String.make 10 'x'));
        Block.Q.put q (Block.make "y");
        wrote_second := Sim.Engine.now eng)
  in
  let _reader =
    Sim.Proc.spawn eng (fun () ->
        Sim.Time.sleep eng 5.0;
        ignore (Block.Q.read q 10))
  in
  Sim.Engine.run eng;
  Alcotest.(check bool) "writer blocked until reader drained" true
    (!wrote_second >= 5.0)

let test_q_ctl_overtakes_full_queue () =
  let eng = Sim.Engine.create () in
  let q = Block.Q.create ~limit:5 eng in
  let ok = ref false in
  let _writer =
    Sim.Proc.spawn eng (fun () ->
        Block.Q.put q (Block.make (String.make 5 'x'));
        (* a control block must not block even though the queue is full *)
        Block.Q.put q (Block.make ~kind:Block.Ctl "hangup");
        ok := true)
  in
  Sim.Engine.run eng;
  Alcotest.(check bool) "ctl not blocked" true !ok

let test_q_close_raises_for_writers () =
  in_sim (fun eng ->
      let q = Block.Q.create eng in
      Block.Q.close q;
      Alcotest.check_raises "put on closed" Block.Q.Closed (fun () ->
          Block.Q.put q (Block.make "x")))

let test_q_close_drains () =
  in_sim (fun eng ->
      let q = Block.Q.create eng in
      Block.Q.put q (Block.make ~delim:true "data");
      Block.Q.close q;
      Alcotest.(check string) "drains after close" "data"
        (Block.Q.read q 10);
      Alcotest.(check string) "then eof" "" (Block.Q.read q 10))

let test_q_hangup_block_means_eof () =
  in_sim (fun eng ->
      let q = Block.Q.create eng in
      Block.Q.put q (Block.make ~delim:true "last");
      Block.Q.put q (Block.hangup ());
      Alcotest.(check string) "data first" "last" (Block.Q.read q 10);
      Alcotest.(check string) "hangup is eof" "" (Block.Q.read q 10);
      Alcotest.(check bool) "get sees eof too" true
        (Block.Q.get q = None))

let test_q_try_put () =
  in_sim (fun eng ->
      let q = Block.Q.create ~limit:5 eng in
      Alcotest.(check bool) "fits" true
        (Block.Q.try_put q (Block.make "12345"));
      Alcotest.(check bool) "full" false
        (Block.Q.try_put q (Block.make "x")))

(* Property: any split of a message into blocks reads back identically
   when undelimited, and respects boundaries when delimited. *)
let prop_roundtrip =
  QCheck.Test.make ~name:"queue byte-stream roundtrip" ~count:100
    QCheck.(pair (small_list (string_of_size Gen.(0 -- 50))) bool)
    (fun (chunks, delim_last) ->
      let eng = Sim.Engine.create () in
      let q = Block.Q.create ~limit:max_int eng in
      let expect = String.concat "" chunks in
      let ok = ref false in
      let _p =
        Sim.Proc.spawn eng (fun () ->
            List.iteri
              (fun i c ->
                let delim = delim_last && i = List.length chunks - 1 in
                Block.Q.put q (Block.make ~delim c))
              chunks;
            Block.Q.close q;
            let buf = Buffer.create 64 in
            let rec drain () =
              let s = Block.Q.read q 7 in
              if s <> "" then begin
                Buffer.add_string buf s;
                drain ()
              end
            in
            drain ();
            ok := Buffer.contents buf = expect)
      in
      Sim.Engine.run eng;
      !ok)

(* ---- reads hand out the bytes the blocks hold ---- *)

let test_q_read_whole_block_shares () =
  in_sim (fun eng ->
      let q = Block.Q.create eng in
      let s = String.make 100 'm' in
      Block.Q.put q (Block.make ~delim:true s);
      Alcotest.(check bool) "the block's own string" true (Block.Q.read q 1000 == s);
      (* a view of part of a frame costs one copy of just its bytes *)
      let frame = "hdr" ^ s in
      Block.Q.put q { (Block.view frame 3 100) with Block.delim = true };
      let got = Block.Q.read q 1000 in
      Alcotest.(check string) "view read" s got;
      Alcotest.(check bool) "not the frame" false (got == frame))

(* words allocated straight into the major heap (not promoted there) *)
let direct_major () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

let test_q_read_no_major_staging () =
  in_sim (fun eng ->
      let q = Block.Q.create eng in
      let frame = String.make 140 'f' in
      let read_one () =
        Block.Q.put q { (Block.view frame 40 100) with Block.delim = true };
        ignore (Block.Q.read q Ninep.Fcall.maxmsg)
      in
      read_one ();
      let before = direct_major () in
      for _ = 1 to 100 do
        read_one ()
      done;
      Alcotest.(check (float 0.)) "no direct major-heap words" 0.
        (direct_major () -. before))

(* Property: for any mix of data blocks (delimited or not, views at
   non-zero offsets), control and hangup blocks, any sequence of reads
   returns what a byte-stream reference model returns. *)
type item = D of string * int * bool | C | H

let gen_item =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map3
            (fun s off delim -> D (s, off, delim))
            (string_size ~gen:printable (0 -- 12))
            (0 -- 4) bool );
        (1, return C);
        (1, return H);
      ])

let print_item = function
  | D (s, off, delim) -> Printf.sprintf "D(%S,%d,%b)" s off delim
  | C -> "C"
  | H -> "H"

let block_of = function
  | D (s, off, delim) ->
    let frame = String.make off '<' ^ s ^ ">" in
    { (Block.view frame off (String.length s)) with Block.delim }
  | C -> Block.make ~kind:Block.Ctl "ctl"
  | H -> Block.hangup ()

(* the reference: a list of pending items, read one byte string at a
   time, with the queue closed once everything is queued *)
let model_read items eof want =
  if want <= 0 || !eof then ""
  else if !items = [] then begin
    eof := true;
    ""
  end
  else begin
    let buf = Buffer.create 16 in
    let stop = ref false in
    while (not !stop) && Buffer.length buf < want && !items <> [] do
      match !items with
      | [] -> ()
      | H :: _ ->
        items := List.tl !items;
        eof := true;
        stop := true
      | C :: r -> items := r
      | D (s, off, delim) :: r ->
        let take = min (want - Buffer.length buf) (String.length s) in
        Buffer.add_string buf (String.sub s 0 take);
        if take = String.length s then begin
          items := r;
          if delim then stop := true
        end
        else
          items :=
            D (String.sub s take (String.length s - take), off, delim) :: r
    done;
    Buffer.contents buf
  end

let prop_read_model =
  QCheck.Test.make ~name:"read matches a byte-stream model" ~count:300
    (QCheck.make
       ~print:
         QCheck.Print.(
           pair (list print_item) (list int))
       QCheck.Gen.(pair (list_size (0 -- 12) gen_item) (list_size (1 -- 10) (0 -- 20))))
    (fun (items, wants) ->
      let eng = Sim.Engine.create () in
      let q = Block.Q.create ~limit:max_int eng in
      let pending = ref items and eof = ref false in
      let ok = ref false in
      let _p =
        Sim.Proc.spawn eng (fun () ->
            List.iter (fun i -> Block.Q.put q (block_of i)) items;
            Block.Q.close q;
            ok :=
              List.for_all
                (fun want -> Block.Q.read q want = model_read pending eof want)
                wants)
      in
      Sim.Engine.run eng;
      !ok)

let () =
  Alcotest.run "block"
    [
      ( "block",
        [
          Alcotest.test_case "basics" `Quick test_block_basics;
          Alcotest.test_case "sub" `Quick test_block_sub;
          Alcotest.test_case "concat" `Quick test_block_concat;
        ] );
      ( "queue",
        [
          Alcotest.test_case "fifo" `Quick test_q_fifo;
          Alcotest.test_case "read stops at delim" `Quick
            test_q_read_stops_at_delim;
          Alcotest.test_case "read spans undelimited" `Quick
            test_q_read_spans_undelimited;
          Alcotest.test_case "partial read" `Quick test_q_partial_read;
          Alcotest.test_case "blocking read" `Quick test_q_blocking_read;
          Alcotest.test_case "writer blocks when full" `Quick
            test_q_writer_blocks_when_full;
          Alcotest.test_case "ctl overtakes full queue" `Quick
            test_q_ctl_overtakes_full_queue;
          Alcotest.test_case "close raises for writers" `Quick
            test_q_close_raises_for_writers;
          Alcotest.test_case "close drains" `Quick test_q_close_drains;
          Alcotest.test_case "hangup block" `Quick
            test_q_hangup_block_means_eof;
          Alcotest.test_case "try_put" `Quick test_q_try_put;
          Alcotest.test_case "whole-block read shares" `Quick
            test_q_read_whole_block_shares;
          Alcotest.test_case "read stages nothing in the major heap" `Quick
            test_q_read_no_major_staging;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_read_model;
        ] );
    ]
