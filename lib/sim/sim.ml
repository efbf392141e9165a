(* Tie-break policy for same-timestamp events.  Everything at distinct
   times is ordered by time; within an equal-time batch the policy
   decides, and every policy is a pure function of (policy, serial) so
   a given (policy, seed) pair names exactly one schedule. *)
module Sched = struct
  type policy =
    | Fifo  (* scheduling order: the historical behaviour *)
    | Shuffle of int  (* seeded deterministic permutation of each batch *)
    | Adversarial  (* LIFO: newest same-time event first *)

  let to_string = function
    | Fifo -> "fifo"
    | Shuffle seed -> Printf.sprintf "shuffle:%d" seed
    | Adversarial -> "adversarial"

  let of_string s =
    match String.lowercase_ascii (String.trim s) with
    | "fifo" -> Some Fifo
    | "adversarial" | "lifo" -> Some Adversarial
    | s -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "shuffle" -> (
        let rest = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt rest with
        | Some seed -> Some (Shuffle seed)
        | None -> None)
      | _ -> None)

  (* splitmix64-style finalizer: a deterministic hash of (seed, serial)
     used as the shuffle rank.  Ordering an equal-time batch by a
     per-entry random key is exactly a seeded random permutation of the
     batch, and it needs no batch boundary bookkeeping in the heap. *)
  let mix seed serial =
    let open Int64 in
    let z = add (mul (of_int (serial + 1)) 0x9E3779B97F4A7C15L) (of_int seed) in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = logxor z (shift_right_logical z 31) in
    (* keep ranks well below max_int so deferred entries always lose *)
    to_int (shift_right_logical z 34)
end

(* Scheduling class: [Deferred] entries are polling/yield rescheduling
   loops (Proc.kill's retry, a zero-length Time.sleep) that must run
   after every ordinary same-time event no matter the policy — under
   Adversarial a LIFO-ordered self-rescheduling poll would livelock, and
   a zero-length sleep's contract is "after already-queued same-time
   events" by definition.
   Under Fifo both classes rank 0, preserving the historical order
   byte for byte. *)
type sched_cls = Normal | Deferred

(* Event queue: a binary min-heap ordered by (time, rank, serial).  The
   rank is the policy's tie-break key (0 under Fifo, so same-time events
   fall through to serial order = FIFO, which is what the default
   deterministic schedule requires).  Every entry knows its slot, so a
   reusable deadline is one entry that is moved or removed in place:
   the queue holds only live work. *)
module Heap = struct
  type entry = {
    mutable time : float;
    mutable rank : int;  (* policy tie-break within an equal-time batch *)
    mutable serial : int;
    mutable pos : int;  (* slot in the array, or -1 when not queued *)
    label : string;  (* handler class, for the wall-clock profiler *)
    fn : unit -> unit;
  }

  type t = { mutable a : entry array; mutable n : int }

  let entry label fn = { time = 0.; rank = 0; serial = 0; pos = -1; label; fn }
  let dummy = entry "" ignore
  let create () = { a = Array.make 64 dummy; n = 0 }

  let before x y =
    x.time < y.time
    || (x.time = y.time
       && (x.rank < y.rank || (x.rank = y.rank && x.serial < y.serial)))

  let set h i e =
    h.a.(i) <- e;
    e.pos <- i

  (* settle [e] into the hole at [i], moving earlier parents down *)
  let rec sift_up h i e =
    let p = (i - 1) / 2 in
    if i > 0 && before e h.a.(p) then begin
      set h i h.a.(p);
      sift_up h p e
    end
    else set h i e

  (* settle [e] into the hole at [i], moving earlier children up *)
  let rec sift_down h i e =
    let l = (2 * i) + 1 in
    let c = if l + 1 < h.n && before h.a.(l + 1) h.a.(l) then l + 1 else l in
    if c < h.n && before h.a.(c) e then begin
      set h i h.a.(c);
      sift_down h c e
    end
    else set h i e

  (* restore the order around slot [i] after [e]'s key changed *)
  let fix h i e =
    if i > 0 && before e h.a.((i - 1) / 2) then sift_up h i e
    else sift_down h i e

  let push h e =
    if h.n = Array.length h.a then begin
      let a = Array.make (2 * h.n) dummy in
      Array.blit h.a 0 a 0 h.n;
      h.a <- a
    end;
    h.n <- h.n + 1;
    sift_up h (h.n - 1) e

  (* take a queued [e] out; O(log n) *)
  let remove h e =
    let i = e.pos in
    e.pos <- -1;
    h.n <- h.n - 1;
    let last = h.a.(h.n) in
    h.a.(h.n) <- dummy;
    if i < h.n then fix h i last

  (* the earliest entry; the caller checks [n > 0] *)
  let pop h =
    let top = h.a.(0) in
    remove h top;
    top
end

type proc_state =
  | Ready  (* its resume event is queued *)
  | Running
  | Blocked  (* sleeping on a Rendez or on its timer *)
  | Dead

module Pidtbl = Hashtbl.Make (Int)

type engine = {
  mutable now : float;
  heap : Heap.t;
  mutable serial : int;
  sched : Sched.policy;
  rng : Random.State.t;
  procs : proc Pidtbl.t;  (* live processes by pid *)
  mutable peak_procs : int;  (* high-water mark of [procs] *)
  mutable crashes : exn list;
  mutable next_pid : int;
  mutable events : int;  (* events executed since creation *)
  mutable obs : Obs.Trace.t option;
      (* observability sink; every instrumented layer guards emission on
         this being [Some], so a world without a sink pays nothing *)
  mutable prof : Obs.Prof.t option;
      (* wall-clock profiler; when attached, [step] brackets each
         dispatch with begin/end_event under the entry's label *)
}

(* A process owns its sleep state, as in the Plan 9 kernel: everything
   a wait needs is set up once and reused by every wait, so a sleep
   allocates only its resume event. *)
and proc = {
  pid : int;
  pname : string;
  pclass : string;  (* handler class for the profiler, from the name *)
  eng : engine;
  mutable state : proc_state;
  mutable some : proc option;  (* [Some p], shared by [current] and the links *)
  mutable slot : (unit, unit) Effect.Deep.continuation option;
      (* the continuation a [Block] left behind *)
  mutable timer : Heap.entry;  (* for timed waits; made at the first *)
  mutable rendez : rendez;  (* the Rendez slept on, or [no_rendez] *)
  mutable prev : proc option;  (* Rendez FIFO links *)
  mutable next : proc option;
  mutable exited : rendez;  (* joiners sleep here; made at the first join *)
  mutable killed : bool;  (* raise [Killed] at resume instead *)
  mutable resume : unit -> unit;  (* the resume event: continue the slot *)
}

(* An intrusive FIFO of the processes sleeping on it, oldest first. *)
and rendez = {
  mutable head : proc option;
  mutable tail : proc option;
  mutable count : int;
}

let new_rendez () = { head = None; tail = None; count = 0 }
let no_rendez = new_rendez ()

let rank_of sched cls serial =
  match (sched, cls) with
  | Sched.Fifo, _ -> 0
  | _, Deferred -> max_int
  | Sched.Shuffle seed, Normal -> Sched.mix seed serial
  | Sched.Adversarial, Normal -> -serial

(* key [e] for [time] with the next serial and queue it, moving it in
   place if it is queued already *)
let queue_at eng cls e time =
  e.Heap.time <- (if time < eng.now then eng.now else time);
  eng.serial <- eng.serial + 1;
  e.Heap.rank <- rank_of eng.sched cls eng.serial;
  e.Heap.serial <- eng.serial;
  if e.Heap.pos < 0 then Heap.push eng.heap e
  else Heap.fix eng.heap e.Heap.pos e

let schedule_at ?(cls = Normal) ?(label = "engine") eng time fn =
  queue_at eng cls (Heap.entry label fn) time

(* The process currently executing, if any.  Engines never run
   concurrently, so a single global is safe and avoids threading a
   context parameter through every blocking call. *)
let current : proc option ref = ref None

(* Performed by a process that has registered its waiter; the handler
   only stores the continuation in the process's slot. *)
type _ Effect.t += Block : unit Effect.t

module Engine = struct
  type t = engine

  let create ?(seed = 9) ?(sched = Sched.Fifo) () =
    {
      now = 0.;
      heap = Heap.create ();
      serial = 0;
      sched;
      rng = Random.State.make [| seed; 0x9b4e |];
      procs = Pidtbl.create 64;
      peak_procs = 0;
      crashes = [];
      next_pid = 1;
      events = 0;
      obs = None;
      prof = None;
    }

  let now t = t.now
  let random t = t.rng
  let sched t = t.sched

  let attach_obs t tr =
    Obs.Trace.set_clock tr (fun () -> t.now);
    Obs.Trace.set_scope tr (fun () ->
        match !current with Some p -> p.pid | None -> 0);
    t.obs <- Some tr

  let obs t = t.obs
  let spawned t = t.next_pid - 1

  let attach_prof t p =
    let base = spawned t in
    Obs.Prof.set_spawns p (fun () -> spawned t - base);
    t.prof <- Some p

  let prof t = t.prof
  let at ?label t time fn = schedule_at ?label t time fn
  let after ?label t dt fn = schedule_at ?label t (t.now +. dt) fn
  let pending t = t.heap.Heap.n
  let events t = t.events

  let step t =
    t.heap.Heap.n > 0
    &&
    let e = Heap.pop t.heap in
    t.now <- e.Heap.time;
    t.events <- t.events + 1;
    (match t.prof with
    | None -> e.Heap.fn ()
    | Some p ->
      Obs.Prof.begin_event p;
      e.Heap.fn ();
      Obs.Prof.end_event p e.Heap.label);
    true

  let run ?until t =
    let limit = match until with Some l -> l | None -> infinity in
    while t.heap.Heap.n > 0 && t.heap.Heap.a.(0).Heap.time <= limit do
      ignore (step t)
    done;
    (* a drained queue means every open span's operation is blocked
       forever (or abandoned): close them as orphans so the trace names
       the stuck work instead of silently losing it *)
    if t.heap.Heap.n = 0 then
      (match t.obs with None -> () | Some tr -> Obs.Span.drain tr);
    (match until with Some limit when limit > t.now -> t.now <- limit | _ -> ());
    match List.rev t.crashes with
    | [] -> ()
    | e :: _ ->
      t.crashes <- [];
      raise e

  let live_procs t = Pidtbl.length t.procs
  let peak_procs t = t.peak_procs

  (* oldest first: pids are handed out in spawn order *)
  let stalled t =
    Pidtbl.fold
      (fun pid p acc ->
        match p.state with
        | Blocked | Ready -> (pid, p.pname) :: acc
        | Running | Dead -> acc)
      t.procs []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd
end

module Proc = struct
  type t = proc

  exception Killed

  let name p = p.pname
  let engine p = p.eng
  let alive p = p.state <> Dead

  (* handler class for the profiler, derived once at spawn from the
     conventional process names used across the stack *)
  let proc_class name =
    let starts p =
      String.length name >= String.length p
      && String.sub name 0 (String.length p) = p
    in
    if starts "9p" then "9p"
    else if starts "cfs" then "cfs"
    else if starts "urp" || starts "dk" then "dk"
    else if starts "ether" then "ether"
    else if starts "udp" then "udp"
    else if starts "dns" then "dns"
    else if starts "cs" then "cs"
    else if starts "listen" || starts "serve" || starts "exportfs" then
      "listener"
    else "app"

  let self () =
    match !current with
    | Some p -> p
    | None -> failwith "Sim.Proc.self: not inside a simulated process"

  let self_opt () = !current

  let emit_phase p phase =
    match p.eng.obs with
    | None -> ()
    | Some tr -> Obs.Trace.emit tr (Obs.Event.Proc { name = p.pname; phase })

  (* Rendez links: O(1) append at the tail and O(1) unlink anywhere *)
  let enqueue r p =
    p.rendez <- r;
    p.prev <- r.tail;
    (match r.tail with None -> r.head <- p.some | Some q -> q.next <- p.some);
    r.tail <- p.some;
    r.count <- r.count + 1

  let unlink r p =
    (match p.prev with None -> r.head <- p.next | Some q -> q.next <- p.next);
    (match p.next with None -> r.tail <- p.prev | Some q -> q.prev <- p.prev);
    p.prev <- None;
    p.next <- None;
    p.rendez <- no_rendez;
    r.count <- r.count - 1

  (* The one wakeup path; callers guarantee [p] is waiting (it is
     linked on a Rendez or its timer is queued).  Settling ends the wait
     whatever it was: the process leaves its Rendez and its timer entry
     leaves the queue, so a later wakeup or deadline finds nobody. *)
  let wake p =
    if p.rendez != no_rendez then unlink p.rendez p;
    if p.timer.Heap.pos >= 0 then Heap.remove p.eng.heap p.timer;
    emit_phase p Obs.Event.Wake;
    p.state <- Ready;
    schedule_at ~label:p.pclass p.eng p.eng.now p.resume

  (* the one abort path: wake [p] into [Killed] *)
  let abort p =
    p.killed <- true;
    wake p

  (* each wake unlinks the head, so this drains the FIFO oldest first *)
  let rec wakeup_all r =
    match r.head with
    | None -> ()
    | Some p ->
      wake p;
      wakeup_all r

  let finish p =
    p.state <- Dead;
    Pidtbl.remove p.eng.procs p.pid;
    wakeup_all p.exited

  (* run [f p] as the current process [p] *)
  let run_as p f =
    p.state <- Running;
    let saved = !current in
    current := p.some;
    match f p with
    | () -> current := saved
    | exception e ->
      current := saved;
      raise e

  (* continue the slot; this runs after the [Block] that filled it *)
  let continue_slot p =
    match p.slot with
    | None -> assert false
    | Some k -> (
      p.slot <- None;
      if p.killed then begin
        p.killed <- false;
        Effect.Deep.discontinue k Killed
      end
      else Effect.Deep.continue k ())

  (* The two halves of every wait: mark the caller blocked, register
     the waiter (link on a Rendez, queue the timer), then [block]. *)
  let block_begin () =
    let p = self () in
    p.state <- Blocked;
    emit_phase p Obs.Event.Block;
    p

  let block () = Effect.perform Block

  let timed_wait cls time =
    let p = block_begin () in
    if p.timer == Heap.dummy then
      p.timer <- Heap.entry p.pclass (fun () -> wake p);
    queue_at p.eng cls p.timer time;
    block ()

  let spawn eng ?name body =
    let pid = eng.next_pid in
    eng.next_pid <- pid + 1;
    let pname =
      match name with Some n -> n | None -> Printf.sprintf "proc%d" pid
    in
    let pclass = proc_class pname in
    (* not a [let rec]: that would allocate the record twice *)
    let p =
      { pid; pname; pclass; eng; state = Ready; some = None; slot = None;
        timer = Heap.dummy; rendez = no_rendez; prev = None; next = None;
        exited = no_rendez; killed = false; resume = ignore }
    in
    p.some <- Some p;
    p.resume <- (fun () -> run_as p continue_slot);
    Pidtbl.add eng.procs pid p;
    let live = Pidtbl.length eng.procs in
    if live > eng.peak_procs then eng.peak_procs <- live;
    emit_phase p Obs.Event.Spawn;
    let on_block = Some (fun k -> p.slot <- Some k) in
    let handler : (unit, unit) Effect.Deep.handler =
      {
        retc =
          (fun () ->
            emit_phase p Obs.Event.Exit;
            finish p);
        exnc =
          (fun e ->
            (match e with
            | Killed -> emit_phase p Obs.Event.Exit
            | e ->
              emit_phase p Obs.Event.Crash;
              eng.crashes <- e :: eng.crashes);
            finish p);
        effc =
          (fun (type a) (eff : a Effect.t) :
               ((a, unit) Effect.Deep.continuation -> unit) option ->
            match eff with
            | Block -> on_block
            | _ -> None);
      }
    in
    schedule_at ~label:pclass eng eng.now (fun () ->
        run_as p (fun _ -> Effect.Deep.match_with body () handler));
    p

  let kill p =
    match p.state with
    | Dead -> ()
    | Blocked -> abort p
    | Ready | Running ->
      (* The kill lands when the victim next blocks: we poll cheaply
         by scheduling a check; a Ready proc will be Blocked or Dead
         once its current event completes. *)
      (* Deferred class: the poll must run after the victim's pending
         same-time work under every policy, or an adversarial schedule
         would run the poll ahead of the victim forever. *)
      let rec retry () =
        match p.state with
        | Dead -> ()
        | Blocked -> abort p
        | Ready | Running -> schedule_at ~cls:Deferred p.eng p.eng.now retry
      in
      schedule_at ~cls:Deferred p.eng p.eng.now retry

  let sleep r =
    let p = block_begin () in
    enqueue r p;
    block ()

  let join p =
    if alive p then begin
      if p.exited == no_rendez then p.exited <- new_rendez ();
      sleep p.exited
    end
end

module Time = struct
  let sleep eng dt =
    (* a killed sleeper's entry leaves the queue as the wait settles.  A
       zero-length sleep is a yield, whose contract is "after
       already-queued same-time events" under every policy — hence the
       Deferred class. *)
    Proc.timed_wait (if dt <= 0. then Deferred else Normal) (eng.now +. dt)

  (* A one-shot re-armable timer: one heap entry, made with the timer
     and moved by every arm.  Disarming takes it out of the queue, so an
     idle protocol conversation costs zero events and a cancelled
     deadline leaves nothing behind. *)
  type timer = {
    teng : engine;
    mutable entry : Heap.entry;  (* set once, by [timer] *)
    mutable fn : unit -> unit;  (* the callback of the last arm *)
  }

  let timer_bump t name =
    match t.teng.obs with
    | None -> ()
    | Some tr -> Obs.Trace.bump tr name 1

  (* the entry's event: the queue has already let go of it, so [fn]
     may re-arm.  Fire and disarm drop the callback, so an idle timer
     keeps no closure alive (2.6 MB of routed-swarm's peak heap). *)
  let fire t =
    let f = t.fn in
    t.fn <- ignore;
    timer_bump t "timer.fire";
    f ()

  (* not a [let rec]: that would allocate the records twice *)
  let timer ?(label = "timer") eng =
    let t = { teng = eng; entry = Heap.dummy; fn = ignore } in
    t.entry <- Heap.entry label (fun () -> fire t);
    t

  let armed t = t.entry.Heap.pos >= 0

  let disarm t =
    if armed t then begin
      Heap.remove t.teng.heap t.entry;
      t.fn <- ignore;
      timer_bump t "timer.disarm"
    end

  let arm_at t time fn =
    if armed t then timer_bump t "timer.disarm";
    timer_bump t "timer.arm";
    t.fn <- fn;
    queue_at t.teng Normal t.entry time

  let arm t dt fn = arm_at t (t.teng.now +. dt) fn
end

module Cpu = struct
  type t = { ceng : engine; mutable busy_until : float }

  let create eng = { ceng = eng; busy_until = 0. }

  let occupy t dt =
    let now = t.ceng.now in
    let start = if t.busy_until > now then t.busy_until else now in
    let finish = start +. dt in
    t.busy_until <- finish;
    (match t.ceng.obs with
    | None -> ()
    | Some tr ->
      Obs.Trace.emit tr (Obs.Event.Cpu { queued = start -. now; busy = dt });
      Obs.Trace.observe tr "cpu.queued" (start -. now));
    finish

  let run_after ?label t dt fn = schedule_at ?label t.ceng (occupy t dt) fn

  let busy_wait t dt =
    let finish = occupy t dt in
    Proc.timed_wait Normal finish
end

module Rendez = struct
  type t = rendez

  let create (_ : engine) = new_rendez ()
  let sleep = Proc.sleep
  let wakeup r = match r.head with None -> () | Some p -> Proc.wake p
  let wakeup_all = Proc.wakeup_all

  let waiters r = r.count
end

module Mbox = struct
  type 'a t = { q : 'a Queue.t; r : Rendez.t }

  let create eng = { q = Queue.create (); r = Rendez.create eng }

  let send mb v =
    Queue.push v mb.q;
    Rendez.wakeup mb.r

  let rec recv mb =
    match Queue.take_opt mb.q with
    | Some v -> v
    | None ->
      Rendez.sleep mb.r;
      recv mb

  let try_recv mb = Queue.take_opt mb.q
  let length mb = Queue.length mb.q
end

(* Schedule exploration: rerun a closed scenario under many tie-break
   policies and check that its observable behaviour is independent of
   same-time orderings.  Every run is named by a (policy) pair — the
   policy string carries the shuffle seed — so a failure is a one-line
   repro. *)
module Explore = struct
  type outcome = {
    o_transcript : string;
    o_stalled : string list;
    o_crash : string option;
    o_counters : (string * int) list;
    o_events : int;
  }

  type bound = { b_counter : string; b_min : int; b_max : int }

  type scenario = {
    sc_name : string;
    sc_descr : string;
    sc_schedule_dependent : bool;
    sc_check : outcome -> (unit, string) result;
    sc_bounds : bound list;
    sc_run : sched:Sched.policy -> trace:Obs.Trace.t option -> outcome;
  }

  let scenario ?(descr = "") ?(schedule_dependent = false)
      ?(check = fun _ -> Ok ()) ?(bounds = []) name run =
    {
      sc_name = name;
      sc_descr = descr;
      sc_schedule_dependent = schedule_dependent;
      sc_check = check;
      sc_bounds = bounds;
      sc_run = run;
    }

  let name sc = sc.sc_name
  let descr sc = sc.sc_descr

  type failure = {
    f_scenario : string;
    f_policy : Sched.policy;
    f_reason : string;
  }

  let policies ~seeds =
    (Sched.Fifo :: List.map (fun s -> Sched.Shuffle s) seeds)
    @ [ Sched.Adversarial ]

  let smoke_seeds = [ 1; 2; 3; 4; 5 ]

  (* the per-run invariants; [baseline] is the Fifo transcript *)
  let judge sc ~baseline (o : outcome) =
    let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
    let* () =
      match o.o_crash with
      | Some e -> Error (Printf.sprintf "uncaught crash: %s" e)
      | None -> Ok ()
    in
    let* () =
      match o.o_stalled with
      | [] -> Ok ()
      | names ->
        Error
          (Printf.sprintf "stalled processes: %s" (String.concat ", " names))
    in
    let* () =
      List.fold_left
        (fun acc b ->
          let* () = acc in
          let v =
            match List.assoc_opt b.b_counter o.o_counters with
            | Some v -> v
            | None -> 0
          in
          if v < b.b_min || v > b.b_max then
            Error
              (Printf.sprintf "counter %s = %d outside [%d, %d]" b.b_counter
                 v b.b_min b.b_max)
          else Ok ())
        (Ok ()) sc.sc_bounds
    in
    let* () = sc.sc_check o in
    match baseline with
    | Some base
      when (not sc.sc_schedule_dependent) && o.o_transcript <> base ->
      Error "transcript differs from the fifo baseline"
    | _ -> Ok ()

  let render_trace ?(tail = 30) tr =
    let evs = Obs.Trace.events tr in
    let n = List.length evs in
    let evs =
      if n <= tail then evs
      else
        List.filteri (fun i _ -> i >= n - tail) evs
    in
    let buf = Buffer.create 1024 in
    if n > tail then
      Printf.bprintf buf "  ... (%d earlier events in the ring)\n" (n - tail);
    List.iter
      (fun (t, seq, e) ->
        Printf.bprintf buf "  [%6d] %.6f %s\n" seq t (Obs.Event.render e))
      evs;
    Buffer.contents buf

  (* run one (scenario, policy); on an invariant violation, rerun once
     with a trace attached and hand the rendered tail to [out] *)
  let run_one ?(out = prerr_string) ?baseline sc policy =
    let o = sc.sc_run ~sched:policy ~trace:None in
    match judge sc ~baseline o with
    | Ok () -> Ok o
    | Error reason ->
      let f = { f_scenario = sc.sc_name; f_policy = policy; f_reason = reason } in
      out
        (Printf.sprintf "FAIL %s sched=%s: %s\n" sc.sc_name
           (Sched.to_string policy) reason);
      out
        (Printf.sprintf "  repro: p9explore -s %s -p %s\n" sc.sc_name
           (Sched.to_string policy));
      (* the replay: same (policy, seed), tracing attached *)
      let tr = Obs.Trace.create () in
      let o2 = sc.sc_run ~sched:policy ~trace:(Some tr) in
      out "  replay with tracing attached — event tail:\n";
      out (render_trace tr);
      (* spans still open when the replay drained are the operations
         that never completed — for a lost-wakeup stall this names the
         blocked work directly.  The engine closed them as orphans. *)
      let open_spans =
        List.filter_map
          (fun (_, _, e) ->
            match e with
            | Obs.Event.Span_end { orphan = true; name; layer; span; trace; _ }
              ->
              Some
                (Printf.sprintf "    [%s] %s (span %d, trace %d)\n" layer name
                   span trace)
            | _ -> None)
          (Obs.Trace.events tr)
      in
      out "  open spans at stall (closed as orphans at drain):\n";
      (match open_spans with
      | [] -> out "    (none)\n"
      | ls -> List.iter out ls);
      (match o2.o_crash with
      | Some e -> out (Printf.sprintf "  replay crash: %s\n" e)
      | None -> ());
      if o2.o_transcript <> o.o_transcript then
        out "  (warning: replay transcript differs from the failing run)\n";
      Error f

  (* explore a scenario across [policies]; Fifo runs first and its
     transcript is the cross-schedule baseline *)
  let explore ?(out = prerr_string) ?(policies = policies ~seeds:smoke_seeds)
      sc =
    let baseline = ref None in
    (* make sure Fifo is explored first so the baseline exists *)
    let policies =
      if List.mem Sched.Fifo policies then
        Sched.Fifo :: List.filter (fun p -> p <> Sched.Fifo) policies
      else policies
    in
    List.filter_map
      (fun policy ->
        match run_one ~out ?baseline:!baseline sc policy with
        | Ok o ->
          if policy = Sched.Fifo then baseline := Some o.o_transcript;
          None
        | Error f -> Some f)
      policies
end
