(* Tests for the discrete-event kernel. *)

let check_float = Alcotest.(check (float 1e-9))

let test_time_ordering () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.at eng 2.0 (fun () -> log := "b" :: !log);
  Sim.Engine.at eng 1.0 (fun () -> log := "a" :: !log);
  Sim.Engine.at eng 3.0 (fun () -> log := "c" :: !log);
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "final time" 3.0 (Sim.Engine.now eng)

let test_fifo_same_time () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Sim.Engine.at eng 1.0 (fun () -> log := i :: !log)
  done;
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_run_until () =
  let eng = Sim.Engine.create () in
  let hits = ref 0 in
  Sim.Engine.at eng 1.0 (fun () -> incr hits);
  Sim.Engine.at eng 5.0 (fun () -> incr hits);
  Sim.Engine.run ~until:2.0 eng;
  Alcotest.(check int) "only first" 1 !hits;
  check_float "clock at horizon" 2.0 (Sim.Engine.now eng);
  Sim.Engine.run eng;
  Alcotest.(check int) "both" 2 !hits

let test_proc_sleep () =
  let eng = Sim.Engine.create () in
  let woke_at = ref 0. in
  let _p =
    Sim.Proc.spawn eng (fun () ->
        Sim.Time.sleep eng 1.5;
        woke_at := Sim.Engine.now eng)
  in
  Sim.Engine.run eng;
  check_float "slept" 1.5 !woke_at

let test_proc_crash_raises () =
  let eng = Sim.Engine.create () in
  let _p = Sim.Proc.spawn eng (fun () -> failwith "boom") in
  Alcotest.check_raises "crash surfaces" (Failure "boom") (fun () ->
      Sim.Engine.run eng)

let test_join () =
  let eng = Sim.Engine.create () in
  let order = ref [] in
  let worker =
    Sim.Proc.spawn eng ~name:"worker" (fun () ->
        Sim.Time.sleep eng 2.0;
        order := "worker" :: !order)
  in
  let _waiter =
    Sim.Proc.spawn eng ~name:"waiter" (fun () ->
        Sim.Proc.join worker;
        order := "waiter" :: !order)
  in
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "join order" [ "worker"; "waiter" ]
    (List.rev !order)

let test_join_dead () =
  let eng = Sim.Engine.create () in
  let worker = Sim.Proc.spawn eng (fun () -> ()) in
  let finished = ref false in
  let _w =
    Sim.Proc.spawn eng (fun () ->
        Sim.Time.sleep eng 1.0;
        (* worker long dead *)
        Sim.Proc.join worker;
        finished := true)
  in
  Sim.Engine.run eng;
  Alcotest.(check bool) "join of dead proc returns" true !finished

let test_killed_joiner () =
  (* a joiner killed inside [join] leaves the target's Rendez at once:
     the target's exit later must not resume it, not even when it has
     gone on to wait for something else *)
  let eng = Sim.Engine.create () in
  let log = ref [] in
  let note s = log := Printf.sprintf "%s@%.0f" s (Sim.Engine.now eng) :: !log in
  let target =
    Sim.Proc.spawn eng ~name:"target" (fun () -> Sim.Time.sleep eng 10.0)
  in
  let joiner =
    Sim.Proc.spawn eng ~name:"joiner" (fun () ->
        match Sim.Proc.join target with
        | () -> note "joined"
        | exception Sim.Proc.Killed ->
          note "killed";
          Sim.Time.sleep eng 20.0;
          note "slept")
  in
  Sim.Engine.after eng 1.0 (fun () -> Sim.Proc.kill joiner);
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "not resumed by the exit"
    [ "killed@1"; "slept@21" ] (List.rev !log);
  Alcotest.(check bool) "target exited" false (Sim.Proc.alive target);
  Alcotest.(check (list string)) "nobody stalled" [] (Sim.Engine.stalled eng);
  Alcotest.(check int) "nothing queued" 0 (Sim.Engine.pending eng)

let test_two_joiners () =
  let eng = Sim.Engine.create () in
  let woke = ref [] in
  let target = Sim.Proc.spawn eng (fun () -> Sim.Time.sleep eng 5.0) in
  List.iter
    (fun name ->
      ignore
        (Sim.Proc.spawn eng ~name (fun () ->
             Sim.Proc.join target;
             woke := Printf.sprintf "%s@%.0f" name (Sim.Engine.now eng) :: !woke)))
    [ "first"; "second" ];
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "both resume, oldest first"
    [ "first@5"; "second@5" ] (List.rev !woke)

let test_kill_sleeping () =
  let eng = Sim.Engine.create () in
  let cleaned = ref false in
  let victim =
    Sim.Proc.spawn eng ~name:"victim" (fun () ->
        Fun.protect
          ~finally:(fun () -> cleaned := true)
          (fun () -> Sim.Time.sleep eng 100.))
  in
  let _killer =
    Sim.Proc.spawn eng (fun () ->
        Sim.Time.sleep eng 1.0;
        Sim.Proc.kill victim)
  in
  Sim.Engine.run eng;
  Alcotest.(check bool) "victim dead" false (Sim.Proc.alive victim);
  Alcotest.(check bool) "finalizer ran" true !cleaned;
  check_float "killed promptly, not at 100s" 1.0 (Sim.Engine.now eng)

let test_kill_is_not_crash () =
  let eng = Sim.Engine.create () in
  let victim = Sim.Proc.spawn eng (fun () -> Sim.Time.sleep eng 100.) in
  Sim.Engine.after eng 1.0 (fun () -> Sim.Proc.kill victim);
  (* must not raise *)
  Sim.Engine.run eng

let test_rendez () =
  let eng = Sim.Engine.create () in
  let r = Sim.Rendez.create eng in
  let woke = ref [] in
  let sleeper name =
    ignore
      (Sim.Proc.spawn eng ~name (fun () ->
           Sim.Rendez.sleep r;
           woke := name :: !woke))
  in
  sleeper "a";
  sleeper "b";
  Sim.Engine.after eng 1.0 (fun () -> Sim.Rendez.wakeup r);
  Sim.Engine.after eng 2.0 (fun () -> Sim.Rendez.wakeup r);
  Sim.Engine.run eng;
  (* FIFO: a slept first, wakes first *)
  Alcotest.(check (list string)) "fifo wakeups" [ "a"; "b" ] (List.rev !woke)

let test_rendez_wakeup_empty () =
  let eng = Sim.Engine.create () in
  let r = Sim.Rendez.create eng in
  Sim.Rendez.wakeup r;
  Sim.Rendez.wakeup_all r;
  Alcotest.(check int) "no waiters" 0 (Sim.Rendez.waiters r)

let test_mbox () =
  let eng = Sim.Engine.create () in
  let mb = Sim.Mbox.create eng in
  let got = ref [] in
  let _consumer =
    Sim.Proc.spawn eng (fun () ->
        for _ = 1 to 3 do
          got := Sim.Mbox.recv mb :: !got
        done)
  in
  let _producer =
    Sim.Proc.spawn eng (fun () ->
        Sim.Mbox.send mb 1;
        Sim.Time.sleep eng 1.0;
        Sim.Mbox.send mb 2;
        Sim.Mbox.send mb 3)
  in
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "all received in order" [ 1; 2; 3 ]
    (List.rev !got)

let test_killed_sleeper_passes_wakeup () =
  (* a killed sleeper leaves the Rendez at once: the next wakeup goes
     to the next waiter instead of being swallowed *)
  let eng = Sim.Engine.create () in
  let r = Sim.Rendez.create eng in
  let woke = ref [] in
  let sleeper name =
    Sim.Proc.spawn eng ~name (fun () ->
        Sim.Rendez.sleep r;
        woke := name :: !woke)
  in
  let a = sleeper "a" in
  let _b = sleeper "b" in
  Sim.Engine.after eng 1.0 (fun () ->
      Sim.Proc.kill a;
      Alcotest.(check int) "killed sleeper dequeued" 1 (Sim.Rendez.waiters r);
      Sim.Rendez.wakeup r);
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "b got the wakeup" [ "b" ] !woke;
  Alcotest.(check bool) "a dead" false (Sim.Proc.alive a);
  Alcotest.(check (list string)) "nobody stalled" [] (Sim.Engine.stalled eng)

let test_wakeup_all_fifo () =
  let eng = Sim.Engine.create () in
  let r = Sim.Rendez.create eng in
  let woke = ref [] in
  let names = [ "a"; "b"; "c"; "d"; "e" ] in
  List.iteri
    (fun i name ->
      ignore
        (Sim.Proc.spawn eng ~name (fun () ->
             (* sleep in an order unlike spawn order *)
             Sim.Time.sleep eng (float_of_int ((i * 3) mod 5));
             Sim.Rendez.sleep r;
             woke := name :: !woke)))
    names;
  Sim.Engine.after eng 10.0 (fun () ->
      Alcotest.(check int) "all asleep" 5 (Sim.Rendez.waiters r);
      Sim.Rendez.wakeup_all r;
      Alcotest.(check int) "drained" 0 (Sim.Rendez.waiters r));
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "in sleep order" [ "a"; "c"; "e"; "b"; "d" ]
    (List.rev !woke)

let test_kill_after_wakeup () =
  (* woken but not yet run, then killed: the process runs on and takes
     Killed at its next blocking point *)
  let eng = Sim.Engine.create () in
  let r = Sim.Rendez.create eng in
  let log = ref [] in
  let p =
    Sim.Proc.spawn eng ~name:"victim" (fun () ->
        Sim.Rendez.sleep r;
        log := "ran" :: !log;
        match Sim.Time.sleep eng 10.0 with
        | () -> log := "slept" :: !log
        | exception Sim.Proc.Killed ->
          log := Printf.sprintf "killed@%.1f" (Sim.Engine.now eng) :: !log)
  in
  Sim.Engine.after eng 1.0 (fun () ->
      Sim.Rendez.wakeup r;
      Sim.Proc.kill p);
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "killed at the next block"
    [ "ran"; "killed@1.0" ] (List.rev !log);
  Alcotest.(check bool) "dead" false (Sim.Proc.alive p)

let test_block_outside_process () =
  let eng = Sim.Engine.create () in
  let outside = Failure "Sim.Proc.self: not inside a simulated process" in
  Alcotest.check_raises "Time.sleep" outside (fun () -> Sim.Time.sleep eng 1.0);
  Alcotest.check_raises "Rendez.sleep" outside (fun () ->
      Sim.Rendez.sleep (Sim.Rendez.create eng));
  Alcotest.check_raises "Mbox.recv" outside (fun () ->
      ignore (Sim.Mbox.recv (Sim.Mbox.create eng : int Sim.Mbox.t)));
  Alcotest.(check int) "nothing scheduled" 0 (Sim.Engine.pending eng)

let test_cpu_serializes () =
  let eng = Sim.Engine.create () in
  let cpu = Sim.Cpu.create eng in
  let t1 = Sim.Cpu.occupy cpu 1.0 in
  let t2 = Sim.Cpu.occupy cpu 1.0 in
  check_float "first op" 1.0 t1;
  check_float "second op queued behind first" 2.0 t2

let test_cpu_busy_wait () =
  let eng = Sim.Engine.create () in
  let cpu = Sim.Cpu.create eng in
  let done_at = ref 0. in
  let _p =
    Sim.Proc.spawn eng (fun () ->
        Sim.Cpu.busy_wait cpu 0.5;
        Sim.Cpu.busy_wait cpu 0.25;
        done_at := Sim.Engine.now eng)
  in
  Sim.Engine.run eng;
  check_float "serial busy work" 0.75 !done_at

let test_stalled_reports_blocked () =
  let eng = Sim.Engine.create () in
  let r = Sim.Rendez.create eng in
  let _p = Sim.Proc.spawn eng ~name:"stuck" (fun () -> Sim.Rendez.sleep r) in
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "deadlocked proc visible" [ "stuck" ]
    (Sim.Engine.stalled eng)

let test_lost_wakeup_diagnosis () =
  (* the classic lost wakeup: the producer fires its wakeup before any
     reader has gone to sleep, so the wakeup is lost and the readers
     hang forever.  The engine must name the hung processes so the
     deadlock is diagnosable instead of a silent stall. *)
  let eng = Sim.Engine.create () in
  let r = Sim.Rendez.create eng in
  ignore
    (Sim.Proc.spawn eng ~name:"producer" (fun () -> Sim.Rendez.wakeup r));
  ignore
    (Sim.Proc.spawn eng ~name:"reader-a" (fun () ->
         Sim.Time.sleep eng 1.0;
         Sim.Rendez.sleep r));
  ignore
    (Sim.Proc.spawn eng ~name:"reader-b" (fun () ->
         Sim.Time.sleep eng 2.0;
         Sim.Rendez.sleep r));
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "hung readers named"
    [ "reader-a"; "reader-b" ]
    (List.sort compare (Sim.Engine.stalled eng))

let test_stalled_spawn_order_after_exits () =
  (* forty processes: the even ones block forever, the odd ones exit
     in reverse spawn order; a late spawn blocks after the exits.  The
     stalled list must still read oldest first. *)
  let eng = Sim.Engine.create () in
  let r = Sim.Rendez.create eng in
  let n = 40 in
  for i = 0 to n - 1 do
    ignore
      (Sim.Proc.spawn eng ~name:(Printf.sprintf "p%02d" i) (fun () ->
           if i mod 2 = 1 then Sim.Time.sleep eng (float_of_int (n - i))
           else begin
             Sim.Time.sleep eng (float_of_int ((i * 7) mod 13));
             Sim.Rendez.sleep r
           end))
  done;
  Sim.Engine.at eng (float_of_int (n + 1)) (fun () ->
      ignore (Sim.Proc.spawn eng ~name:"late" (fun () -> Sim.Rendez.sleep r)));
  Sim.Engine.run eng;
  let evens = List.init (n / 2) (fun k -> Printf.sprintf "p%02d" (2 * k)) in
  Alcotest.(check (list string)) "blocked, in spawn order" (evens @ [ "late" ])
    (Sim.Engine.stalled eng);
  Alcotest.(check int) "live" ((n / 2) + 1) (Sim.Engine.live_procs eng);
  Alcotest.(check int) "peak" n (Sim.Engine.peak_procs eng)

(* minor words spent spawning and finishing [churn] short-lived
   processes while [blocked] others sit in the process table *)
let churn_words ~blocked ~churn =
  let eng = Sim.Engine.create () in
  let r = Sim.Rendez.create eng in
  for _ = 1 to blocked do
    ignore (Sim.Proc.spawn eng ~name:"blocked" (fun () -> Sim.Rendez.sleep r))
  done;
  Sim.Engine.run eng;
  let before = Gc.minor_words () in
  for _ = 1 to churn do
    ignore (Sim.Proc.spawn eng ~name:"short" ignore)
  done;
  Sim.Engine.run eng;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "only the blocked remain" blocked
    (Sim.Engine.live_procs eng);
  Alcotest.(check int) "peak" (blocked + churn) (Sim.Engine.peak_procs eng);
  words

let test_exit_cost_flat () =
  (* spawn and exit are O(1): the allocation of a fixed churn does not
     grow with the number of other live processes.  Minor words are
     deterministic, so this is exact, not a timing. *)
  let small = churn_words ~blocked:1_000 ~churn:1_000 in
  let large = churn_words ~blocked:16_000 ~churn:1_000 in
  if large > small *. 1.10 then
    Alcotest.failf
      "1000 spawn/exit cost %.0f minor words beside 16000 blocked processes \
       but %.0f beside 1000"
      large small

(* run the engine until nothing is queued *)
let idle eng = while Sim.Engine.step eng do () done

(* minor words per call of [op], after one warm-up call *)
let words_per_op n op =
  op ();
  let before = Gc.minor_words () in
  for _ = 1 to n do
    op ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* minor words per wakeup of one of [waiters] processes that all sleep
   on the same Rendez: each wakeup takes the head, which runs and
   sleeps again at the tail, so the queue stays [waiters] long *)
let rendez_cycle_words ~waiters =
  let eng = Sim.Engine.create () in
  let r = Sim.Rendez.create eng in
  for _ = 1 to waiters do
    ignore
      (Sim.Proc.spawn eng ~name:"sleeper" (fun () ->
           while true do
             Sim.Rendez.sleep r
           done))
  done;
  idle eng;
  Alcotest.(check int) "all queued" waiters (Sim.Rendez.waiters r);
  words_per_op 1_000 (fun () ->
      Sim.Rendez.wakeup r;
      idle eng)

let test_wakeup_cost_flat () =
  (* a wakeup is O(1) in the number of processes queued on the same
     Rendez; minor words are deterministic, so this is exact *)
  let small = rendez_cycle_words ~waiters:10 in
  let large = rendez_cycle_words ~waiters:10_000 in
  if large > small *. 1.10 then
    Alcotest.failf
      "a Rendez sleep/wakeup cycle cost %.0f minor words with 10000 \
       waiters but %.0f with 10"
      large small

let check_ceiling what ceiling words =
  if words > ceiling then
    Alcotest.failf "%s costs %.1f minor words, ceiling %.0f" what words
      ceiling

let test_sleep_words () =
  (* one Time.sleep: push the timer, block, fire, resume *)
  let eng = Sim.Engine.create () in
  ignore
    (Sim.Proc.spawn eng (fun () ->
         while true do
           Sim.Time.sleep eng 1.0
         done));
  ignore (Sim.Engine.step eng);
  check_ceiling "Time.sleep" 16.
    (words_per_op 1_000 (fun () ->
         ignore (Sim.Engine.step eng);
         ignore (Sim.Engine.step eng)))

let test_spawn_words () =
  (* one spawn of a process that exits at once: its record, its
     [Some], its resume closure, its effect handler and its start
     event, 75 words (112 when the record was a [let rec], built twice;
     93 when the name's class was found with a [String.sub] per prefix) *)
  let eng = Sim.Engine.create () in
  check_ceiling "a spawn and exit" 78.
    (words_per_op 1_000 (fun () ->
         ignore (Sim.Proc.spawn eng ~name:"short" ignore);
         idle eng))

let test_mbox_words () =
  (* one Mbox.send to a receiver blocked in recv, until it blocks again *)
  let eng = Sim.Engine.create () in
  let mb = Sim.Mbox.create eng in
  ignore
    (Sim.Proc.spawn eng (fun () ->
         while true do
           ignore (Sim.Mbox.recv mb)
         done));
  idle eng;
  check_ceiling "an Mbox message" 20.
    (words_per_op 1_000 (fun () ->
         Sim.Mbox.send mb 0;
         idle eng))

let test_timer_rearm_words () =
  (* one arm_at/disarm cycle moves the timer's one entry in and out of
     the queue: the deadline's float box is all it may allocate *)
  let eng = Sim.Engine.create () in
  let t =
    Sim.Time.timer eng (fun () -> Alcotest.fail "a disarmed timer fired")
  in
  check_ceiling "a timer re-arm" 3.
    (words_per_op 1_000 (fun () ->
         Sim.Time.arm_at t (Sim.Engine.now eng +. 1.);
         Sim.Time.disarm t));
  Alcotest.(check int) "nothing queued" 0 (Sim.Engine.pending eng)

let test_timer_last_arm_wins () =
  (* an arm moves the one deadline: the handler runs once, at the last
     deadline set, whether that is later or earlier than the one before *)
  let eng = Sim.Engine.create () in
  let log = ref [] in
  let t = Sim.Time.timer eng (fun () -> log := Sim.Engine.now eng :: !log) in
  Sim.Time.arm_at t 1.0;
  Sim.Time.arm_at t 2.0;
  Alcotest.(check int) "one entry" 1 (Sim.Engine.pending eng);
  Sim.Engine.run eng;
  Alcotest.(check (list (float 0.))) "once, at the later time" [ 2.0 ] !log;
  log := [];
  Sim.Time.arm t 3.0;
  Sim.Time.arm t 1.0;
  Sim.Engine.run eng;
  Alcotest.(check (list (float 0.))) "once, at the last deadline" [ 3.0 ] !log

let test_timer_self_rearm () =
  (* a handler that re-arms its own timer: one fire per period, and the
     timer's one entry is all the queue ever holds *)
  let eng = Sim.Engine.create () in
  let fires = ref [] in
  let self = ref Sim.Time.none in
  let t =
    Sim.Time.timer eng (fun () ->
        fires := Sim.Engine.now eng :: !fires;
        Sim.Time.arm !self 0.5)
  in
  self := t;
  Sim.Time.arm t 0.5;
  for i = 1 to 8 do
    Alcotest.(check int) "pending before" 1 (Sim.Engine.pending eng);
    ignore (Sim.Engine.step eng);
    Alcotest.(check int) "pending after" 1 (Sim.Engine.pending eng);
    Alcotest.(check int) "fires" i (List.length !fires);
    Alcotest.(check (float 1e-9)) "at the period" (0.5 *. float_of_int i)
      (Sim.Engine.now eng)
  done;
  Sim.Time.disarm t;
  Alcotest.(check int) "disarmed" 0 (Sim.Engine.pending eng)

let test_timer_none () =
  let eng = Sim.Engine.create () in
  Alcotest.(check bool) "never armed" false (Sim.Time.armed Sim.Time.none);
  Sim.Time.disarm Sim.Time.none;
  Alcotest.check_raises "arm_at"
    (Invalid_argument "Sim.Time.arm_at: Time.none") (fun () ->
      Sim.Time.arm_at Sim.Time.none 1.0);
  Alcotest.check_raises "arm" (Invalid_argument "Sim.Time.arm_at: Time.none")
    (fun () -> Sim.Time.arm Sim.Time.none 1.0);
  Alcotest.(check bool) "still not armed" false (Sim.Time.armed Sim.Time.none);
  Alcotest.(check int) "nothing queued" 0 (Sim.Engine.pending eng)

(* The event queue against a model: random interleavings of one-shot
   events, timer arms and disarms, and steps.  The model keeps what is
   queued as (time, rank, serial, id); a step must fire the least, and
   [Engine.pending] must count exactly what the model holds. *)
type qop = At of int | Arm of int * int | Disarm of int | Step

let show_qop = function
  | At dt -> Printf.sprintf "At %d" dt
  | Arm (k, dt) -> Printf.sprintf "Arm (%d, %d)" k dt
  | Disarm k -> Printf.sprintf "Disarm %d" k
  | Step -> "Step"

let ntimers = 3

let gen_qop =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun dt -> At dt) (0 -- 3));
        (3, map2 (fun k dt -> Arm (k, dt)) (0 -- (ntimers - 1)) (0 -- 3));
        (2, map (fun k -> Disarm k) (0 -- (ntimers - 1)));
        (4, return Step);
      ])

let gen_policy =
  QCheck.Gen.(
    oneof
      [
        return Sim.Sched.Fifo;
        map (fun s -> Sim.Sched.Shuffle s) (0 -- 1000);
        return Sim.Sched.Adversarial;
      ])

let queue_model_holds (sched, ops) =
  let eng = Sim.Engine.create ~sched () in
  let fired = ref [] in
  (* each timer's handler reports the id recorded at its last arm *)
  let last_arm = Array.make ntimers 0 in
  let timers =
    Array.init ntimers (fun k ->
        Sim.Time.timer eng (fun () -> fired := last_arm.(k) :: !fired))
  in
  let serial = ref 0 and next_id = ref 0 in
  (* queued (time, rank, serial, id), with the timer's index if any *)
  let model = ref [] in
  let key (t, r, s, _, _) = (t, r, s) in
  let queue ?timer time =
    incr serial;
    incr next_id;
    let rank =
      match sched with
      | Sim.Sched.Fifo -> 0
      | Sim.Sched.Shuffle seed -> Sim.Sched.mix seed !serial
      | Sim.Sched.Adversarial -> - !serial
    in
    let id = !next_id in
    model := (time, rank, !serial, id, timer) :: !model;
    id
  in
  let unqueue k =
    model := List.filter (fun (_, _, _, _, tm) -> tm <> Some k) !model
  in
  let step () =
    match List.sort (fun a b -> compare (key a) (key b)) !model with
    | [] -> QCheck.Test.fail_report "the model is empty"
    | ((_, _, _, id, _) as least) :: _ ->
      model := List.filter (fun e -> e != least) !model;
      if not (Sim.Engine.step eng) then
        QCheck.Test.fail_reportf "step found nothing; model holds %d" id;
      (match !fired with
      | got :: _ when got = id -> ()
      | got :: _ -> QCheck.Test.fail_reportf "fired %d, model says %d" got id
      | [] -> QCheck.Test.fail_reportf "nothing fired, model says %d" id)
  in
  let apply op =
    let now = Sim.Engine.now eng in
    (match op with
    | At dt ->
      let time = now +. float_of_int dt in
      let id = queue time in
      Sim.Engine.at eng time (fun () -> fired := id :: !fired)
    | Arm (k, dt) ->
      unqueue k;
      let time = now +. float_of_int dt in
      last_arm.(k) <- queue ~timer:k time;
      Sim.Time.arm_at timers.(k) time
    | Disarm k ->
      unqueue k;
      Sim.Time.disarm timers.(k)
    | Step -> if !model = [] then assert (not (Sim.Engine.step eng)) else step ());
    if Sim.Engine.pending eng <> List.length !model then
      QCheck.Test.fail_reportf "after %s: pending %d, model queues %d"
        (show_qop op) (Sim.Engine.pending eng) (List.length !model);
    Array.iteri
      (fun k t ->
        let queued = List.exists (fun (_, _, _, _, tm) -> tm = Some k) !model in
        if Sim.Time.armed t <> queued then
          QCheck.Test.fail_reportf "after %s: timer %d armed %b, model %b"
            (show_qop op) k (Sim.Time.armed t) queued)
      timers
  in
  List.iter apply ops;
  (* drain: what is left fires in the model's order too *)
  while !model <> [] do
    apply Step
  done;
  true

let prop_queue_model =
  QCheck.Test.make ~name:"event queue matches a sorted-list model" ~count:500
    (QCheck.make
       ~print:(fun (sched, ops) ->
         Printf.sprintf "%s: [%s]" (Sim.Sched.to_string sched)
           (String.concat "; " (List.map show_qop ops)))
       QCheck.Gen.(pair gen_policy (list_size (0 -- 60) gen_qop)))
    queue_model_holds

let test_determinism () =
  let trace () =
    let eng = Sim.Engine.create ~seed:42 () in
    let log = Buffer.create 64 in
    for i = 0 to 4 do
      ignore
        (Sim.Proc.spawn eng (fun () ->
             let dt =
               Random.State.float (Sim.Engine.random eng) 1.0
             in
             Sim.Time.sleep eng dt;
             Buffer.add_string log (Printf.sprintf "%d@%.6f;" i
                 (Sim.Engine.now eng))))
    done;
    Sim.Engine.run eng;
    Buffer.contents log
  in
  Alcotest.(check string) "identical runs" (trace ()) (trace ())

(* ---- scheduling policies (Sim.Sched) ---- *)

(* record the firing order of [n] same-time events under a policy *)
let batch_order ?(n = 10) sched =
  let eng = Sim.Engine.create ~sched () in
  let log = ref [] in
  for i = 0 to n - 1 do
    Sim.Engine.at eng 1.0 (fun () -> log := i :: !log)
  done;
  Sim.Engine.run eng;
  List.rev !log

let test_fifo_matches_recorded_order () =
  (* the Fifo policy IS the historical engine: a same-time batch fires
     in scheduling order, exactly as test_fifo_same_time has always
     recorded it *)
  Alcotest.(check (list int)) "fifo = scheduling order"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (batch_order Sim.Sched.Fifo);
  Alcotest.(check (list int)) "default policy is fifo"
    (let eng = Sim.Engine.create () in
     ignore eng;
     batch_order Sim.Sched.Fifo)
    (let eng = Sim.Engine.create () in
     let log = ref [] in
     for i = 0 to 9 do
       Sim.Engine.at eng 1.0 (fun () -> log := i :: !log)
     done;
     Sim.Engine.run eng;
     List.rev !log)

let test_shuffle_same_seed_same_schedule () =
  for seed = 1 to 10 do
    Alcotest.(check (list int))
      (Printf.sprintf "seed %d reproducible" seed)
      (batch_order (Sim.Sched.Shuffle seed))
      (batch_order (Sim.Sched.Shuffle seed))
  done

let test_shuffle_permutes () =
  (* each batch is a permutation, and some seed must actually disturb
     the order (10 seeds all mapping 10 events to the identity would be
     a broken hash) *)
  let disturbed = ref false in
  for seed = 1 to 10 do
    let order = batch_order (Sim.Sched.Shuffle seed) in
    Alcotest.(check (list int))
      (Printf.sprintf "seed %d is a permutation" seed)
      [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
      (List.sort compare order);
    if order <> [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] then disturbed := true
  done;
  Alcotest.(check bool) "some seed reorders" true !disturbed

let test_shuffle_singleton_batch_is_identity () =
  (* a 1-element batch has exactly one ordering: shuffling must change
     nothing about a workload with no same-time ties *)
  let run sched =
    let eng = Sim.Engine.create ~sched () in
    let log = ref [] in
    for i = 0 to 9 do
      Sim.Engine.at eng (float_of_int i) (fun () -> log := i :: !log)
    done;
    Sim.Engine.run eng;
    List.rev !log
  in
  List.iter
    (fun seed ->
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d" seed)
        (run Sim.Sched.Fifo)
        (run (Sim.Sched.Shuffle seed)))
    [ 1; 2; 3; 4; 5 ]

let test_adversarial_is_lifo () =
  Alcotest.(check (list int)) "newest first"
    [ 9; 8; 7; 6; 5; 4; 3; 2; 1; 0 ]
    (batch_order Sim.Sched.Adversarial)

let test_adversarial_no_livelock () =
  (* yield-style reschedules run after the ordinary same-time batch
     even under LIFO, so a polling loop cannot starve the event that
     would satisfy it *)
  let eng = Sim.Engine.create ~sched:Sim.Sched.Adversarial () in
  let victim = Sim.Proc.spawn eng ~name:"victim" (fun () ->
      Sim.Time.sleep eng 100.) in
  let killed_at = ref (-1.) in
  ignore
    (Sim.Proc.spawn eng ~name:"killer" (fun () ->
         Sim.Time.sleep eng 1.0;
         Sim.Proc.kill victim;
         killed_at := Sim.Engine.now eng));
  Sim.Engine.run eng;
  Alcotest.(check bool) "victim dead" false (Sim.Proc.alive victim);
  check_float "kill landed at its own time" 1.0 !killed_at

let test_sched_string_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Sim.Sched.to_string p)
        true
        (Sim.Sched.of_string (Sim.Sched.to_string p) = Some p))
    [ Sim.Sched.Fifo; Sim.Sched.Shuffle 7; Sim.Sched.Shuffle 0;
      Sim.Sched.Adversarial ];
  Alcotest.(check bool) "lifo alias" true
    (Sim.Sched.of_string "lifo" = Some Sim.Sched.Adversarial);
  Alcotest.(check bool) "garbage rejected" true
    (Sim.Sched.of_string "shuffle:x" = None
    && Sim.Sched.of_string "banana" = None)

let test_whole_engine_schedule_determinism () =
  (* same policy, same seed, a workload mixing procs, sleeps, rendez
     and mbox traffic: the full event schedule must replay exactly
     (this is what makes every explorer failure a one-line repro) *)
  let trace sched =
    let eng = Sim.Engine.create ~sched () in
    let log = Buffer.create 256 in
    let r = Sim.Rendez.create eng in
    let mb = Sim.Mbox.create eng in
    for i = 0 to 4 do
      ignore
        (Sim.Proc.spawn eng
           ~name:(Printf.sprintf "p%d" i)
           (fun () ->
             Sim.Time.sleep eng 1.0;
             Sim.Mbox.send mb i;
             Sim.Rendez.sleep r;
             Buffer.add_string log
               (Printf.sprintf "%d@%.3f;" i (Sim.Engine.now eng))))
    done;
    ignore
      (Sim.Proc.spawn eng ~name:"drain" (fun () ->
           for _ = 1 to 5 do
             let i = Sim.Mbox.recv mb in
             Buffer.add_string log (Printf.sprintf "recv%d;" i)
           done;
           for _ = 1 to 5 do
             Sim.Rendez.wakeup r
           done));
    Sim.Engine.run eng;
    Buffer.contents log
  in
  List.iter
    (fun sched ->
      Alcotest.(check string)
        (Sim.Sched.to_string sched)
        (trace sched) (trace sched))
    [ Sim.Sched.Fifo; Sim.Sched.Shuffle 3; Sim.Sched.Shuffle 4;
      Sim.Sched.Adversarial ]

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "time ordering" `Quick test_time_ordering;
          Alcotest.test_case "fifo at same time" `Quick test_fifo_same_time;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "stalled" `Quick test_stalled_reports_blocked;
          Alcotest.test_case "lost wakeup diagnosis" `Quick
            test_lost_wakeup_diagnosis;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "stalled in spawn order after exits" `Quick
            test_stalled_spawn_order_after_exits;
          Alcotest.test_case "exit cost flat in live processes" `Quick
            test_exit_cost_flat;
          Alcotest.test_case "wakeup cost flat in waiters" `Quick
            test_wakeup_cost_flat;
          Alcotest.test_case "Time.sleep words" `Quick test_sleep_words;
          Alcotest.test_case "Mbox message words" `Quick test_mbox_words;
          Alcotest.test_case "spawn words" `Quick test_spawn_words;
          Alcotest.test_case "timer re-arm words" `Quick
            test_timer_rearm_words;
          Alcotest.test_case "two arms fire once, at the last deadline" `Quick
            test_timer_last_arm_wins;
          Alcotest.test_case "self re-arming timer" `Quick
            test_timer_self_rearm;
          Alcotest.test_case "arming Time.none raises" `Quick test_timer_none;
          QCheck_alcotest.to_alcotest prop_queue_model;
        ] );
      ( "proc",
        [
          Alcotest.test_case "sleep" `Quick test_proc_sleep;
          Alcotest.test_case "crash raises" `Quick test_proc_crash_raises;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "join dead" `Quick test_join_dead;
          Alcotest.test_case "killed joiner not resumed" `Quick
            test_killed_joiner;
          Alcotest.test_case "two joiners" `Quick test_two_joiners;
          Alcotest.test_case "kill sleeping" `Quick test_kill_sleeping;
          Alcotest.test_case "kill is not crash" `Quick test_kill_is_not_crash;
        ] );
      ( "sync",
        [
          Alcotest.test_case "rendez" `Quick test_rendez;
          Alcotest.test_case "rendez empty wakeup" `Quick
            test_rendez_wakeup_empty;
          Alcotest.test_case "mbox" `Quick test_mbox;
          Alcotest.test_case "killed sleeper passes the wakeup on" `Quick
            test_killed_sleeper_passes_wakeup;
          Alcotest.test_case "wakeup_all in FIFO order" `Quick
            test_wakeup_all_fifo;
          Alcotest.test_case "kill after wakeup lands at next block" `Quick
            test_kill_after_wakeup;
          Alcotest.test_case "blocking outside a process" `Quick
            test_block_outside_process;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "serializes" `Quick test_cpu_serializes;
          Alcotest.test_case "busy wait" `Quick test_cpu_busy_wait;
        ] );
      ( "sched",
        [
          Alcotest.test_case "fifo matches recorded order" `Quick
            test_fifo_matches_recorded_order;
          Alcotest.test_case "same seed same schedule" `Quick
            test_shuffle_same_seed_same_schedule;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
          Alcotest.test_case "singleton batch identity" `Quick
            test_shuffle_singleton_batch_is_identity;
          Alcotest.test_case "adversarial is lifo" `Quick
            test_adversarial_is_lifo;
          Alcotest.test_case "adversarial no livelock" `Quick
            test_adversarial_no_livelock;
          Alcotest.test_case "policy strings" `Quick
            test_sched_string_roundtrip;
          Alcotest.test_case "whole-engine determinism" `Quick
            test_whole_engine_schedule_determinism;
        ] );
    ]
