(** Deterministic discrete-event simulation kernel.

    This is the substrate standing in for the Plan 9 kernel's notion of
    time and of "helper kernel processes" (Presotto & Winterbottom,
    section 2.4).  An {!Engine.t} owns a virtual clock and an event
    queue; {!Proc.spawn} creates a cooperative process implemented with
    OCaml 5 effect handlers.  As in the Plan 9 kernel, a process blocks
    in one way only: it sleeps on a {!Rendez.t} ({!Mbox.recv} and
    {!Proc.join} sleep on one) or on its own deadline ({!Time.sleep},
    {!Cpu.busy_wait}), and a wakeup, the deadline or a {!Proc.kill}
    ends the sleep.  Every blocking call must be made from inside a
    process: outside one it raises the [Failure] of {!Proc.self} and
    schedules nothing.  Execution is fully deterministic: events at
    equal timestamps fire in the order the engine's {!Sched.policy}
    dictates (FIFO by default) and all randomness flows from the
    engine's seeded {!Engine.random} state, so every test and benchmark
    is reproducible. *)

module Sched : sig
  type policy =
    | Fifo
        (** same-time events fire in scheduling order — the historical
            behaviour, byte-identical to pre-policy engines *)
    | Shuffle of int
        (** each equal-time batch fires in a deterministic seeded random
            permutation; the same seed always yields the same schedule *)
    | Adversarial
        (** LIFO: the newest same-time event fires first, driving
            depth-first wakeup chains and starving the oldest work —
            the nastiest legal ordering *)
  (** Tie-break policy for same-timestamp events.  Any of these is a
      {e legal} concurrency interleaving of the simulated kernel
      processes; code whose observable behaviour depends on the choice
      has an ordering bug.  Polling/yield reschedules ({!Proc.kill}'s
      retry, a zero-length {!Time.sleep}) are exempt from reordering —
      they always run after the ordinary same-time events, preserving
      their contract and ruling out adversarial livelock. *)

  val to_string : policy -> string
  (** ["fifo"], ["shuffle:SEED"], ["adversarial"]. *)

  val of_string : string -> policy option
  (** Inverse of {!to_string} (also accepts ["lifo"]). *)

  val mix : int -> int -> int
  (** [mix seed serial] — the deterministic rank hash behind
      [Shuffle].  Exposed for tests. *)
end

module Engine : sig
  type t
  (** A simulation world: virtual clock, event queue, process table. *)

  val create : ?seed:int -> ?sched:Sched.policy -> unit -> t
  (** [create ?seed ?sched ()] makes an empty world.  [seed] (default 9)
      seeds {!random}; [sched] (default {!Sched.Fifo}) picks the
      same-time tie-break policy. *)

  val sched : t -> Sched.policy
  (** The tie-break policy this engine runs under. *)

  val now : t -> float
  (** Current virtual time in seconds. *)

  val random : t -> Random.State.t
  (** The engine's random state; all simulated nondeterminism (packet
      loss, jitter) must come from here. *)

  val run : ?until:float -> t -> unit
  (** Execute events in time order until the queue is empty or virtual
      time would exceed [until].  When the queue fully drains with a
      sink attached, open spans are force-closed as orphans
      ({!Obs.Span.drain}) — a blocked-forever operation still names
      itself in the trace.  If any process crashed with an uncaught
      exception, the first such exception is re-raised after the queue
      drains (so tests fail loudly). *)

  val step : t -> bool
  (** Execute a single event; [false] if the queue was empty. *)

  val at : ?label:string -> t -> float -> (unit -> unit) -> unit
  (** [at eng time fn] schedules [fn] at absolute virtual [time]
      (clamped to [now]).  [fn] runs outside any process context.
      [label] (default ["engine"]) is the handler class the profiler
      attributes the dispatch to. *)

  val after : ?label:string -> t -> float -> (unit -> unit) -> unit
  (** [after eng dt fn] = [at eng (now eng +. dt) fn]. *)

  val attach_obs : t -> Obs.Trace.t -> unit
  (** Install an observability sink: the trace's clock becomes this
      engine's virtual clock, its span scope becomes the current pid,
      and every instrumented layer holding the engine starts emitting
      events into it.  Without a sink attached, instrumentation is free
      (no allocation on hot paths). *)

  val obs : t -> Obs.Trace.t option
  (** The attached sink, if any.  Instrumented code matches on this
      around each emission. *)

  val attach_prof : t -> Obs.Prof.t -> unit
  (** Install a wall-clock profiler: every subsequent event dispatch is
      bracketed with {!Obs.Prof.begin_event}/{!Obs.Prof.end_event}
      under the heap entry's handler-class label, and its reports count
      the processes spawned from then on.  Orthogonal to
      {!attach_obs} — profiling reads the real clock and is therefore
      not deterministic, but it never touches virtual time, so it does
      not perturb the simulation. *)

  val prof : t -> Obs.Prof.t option

  val stalled : t -> string list
  (** Names of processes that are neither dead nor scheduled — i.e.
      blocked forever if the event queue is empty — oldest first (spawn
      order).  Useful to diagnose deadlock in tests. *)

  val live_procs : t -> int
  (** Processes spawned and not yet exited; O(1). *)

  val peak_procs : t -> int
  (** High-water mark of {!live_procs} since creation. *)

  val spawned : t -> int
  (** Processes ever spawned since creation; O(1). *)

  val pending : t -> int
  (** Number of queued events, exactly: a disarmed timer or a settled
      sleep takes its entry out of the queue. *)

  val events : t -> int
  (** Total events executed since creation — benches use it to assert
      event volume per unit of goodput. *)
end

module Proc : sig
  type t
  (** A cooperative simulated process. *)

  exception Killed
  (** Raised inside a process aborted by {!kill}. *)

  val spawn : Engine.t -> ?name:string -> (unit -> unit) -> t
  (** Create a process; its body starts at the current virtual time,
      after already-queued events. *)

  val name : t -> string

  val engine : t -> Engine.t

  val self : unit -> t
  (** The currently running process.  @raise Failure outside one. *)

  val self_opt : unit -> t option
  (** [self ()] without the raise — [None] outside any process.  Lets
      library code that may run in either context (dial, mounts) reach
      the engine's observability sink without allocating. *)

  val kill : t -> unit
  (** Abort [t]: if it is blocked, it resumes by raising {!Killed}; if
      it is runnable the kill lands at its next blocking point.  Killing
      a dead process is a no-op. *)

  val alive : t -> bool

  val join : t -> unit
  (** Block until [t] exits (normally, crashed, or killed): sleep on a
      {!Rendez.t} that [t] wakes, all joiners oldest first, as it exits.
      [t] makes that Rendez at its first join.  A joiner that is killed
      leaves it at once.  Returns at once if [t] is dead.
      @raise Failure outside a process, when [t] is alive. *)
end

module Time : sig
  val sleep : Engine.t -> float -> unit
  (** Block the calling process for [dt] virtual seconds.  [sleep eng 0.]
      yields: the process runs again after already-queued same-time
      events, under every {!Sched.policy}.
      @raise Failure outside a process. *)

  type timer
  (** A one-shot re-armable timer: one queue entry and one handler, both
      made with the timer, so an arm only moves the deadline and
      allocates nothing but its float.  The building block for
      per-conversation protocol timers: arm on state change, disarm
      when the work is acknowledged, and an idle conversation
      contributes zero events to the engine.  With an observability
      sink attached, arms, fires and disarms are counted under
      [timer.arm] / [timer.fire] / [timer.disarm]. *)

  val timer : ?label:string -> Engine.t -> (unit -> unit) -> timer
  (** [timer eng handler]: a fresh, disarmed timer that runs [handler]
      at each deadline, outside process context and already disarmed,
      so the handler may re-arm it.  [label] (default ["timer"]) is the
      profiler's handler class for its fires ("il", "tcp"). *)

  val none : timer
  (** Never armed: what a record holds until the timer whose handler
      names that record is made.  @raise Invalid_argument when armed. *)

  val arm_at : timer -> float -> unit
  (** [arm_at t time] moves the deadline to absolute virtual [time]
      (clamped to now), replacing any pending one. *)

  val arm : timer -> float -> unit
  (** [arm t dt] = [arm_at t (now +. dt)]. *)

  val disarm : timer -> unit
  (** Cancel the pending deadline, if any: its entry leaves the queue,
      in O(log n). *)

  val armed : timer -> bool
  (** Whether a deadline is pending. *)
end

module Cpu : sig
  type t
  (** A serialized host-CPU resource for cost modelling: operations
      occupy it one at a time, so protocol processing adds both latency
      and a throughput ceiling, the way a 1993 MIPS did. *)

  val create : Engine.t -> t

  val occupy : t -> float -> float
  (** [occupy cpu dt] reserves the next [dt] seconds of CPU time and
      returns the absolute completion time (>= now). *)

  val run_after : ?label:string -> t -> float -> (unit -> unit) -> unit
  (** Schedule [fn] at the completion time of a [dt]-second occupancy.
      Not process context.  [label] names the handler class for the
      profiler. *)

  val busy_wait : t -> float -> unit
  (** Occupy the CPU for [dt] and block the calling process until the
      work completes.  @raise Failure outside a process. *)
end

module Rendez : sig
  type t
  (** A rendezvous point, after the Plan 9 kernel's [sleep]/[wakeup]:
      a FIFO of blocked processes, linked through the processes
      themselves, so sleep, wakeup and the removal of a killed sleeper
      are O(1) and allocate nothing.  There is no spurious wakeup, but
      callers should still re-check their predicate in a loop when
      several sleepers compete for the same condition. *)

  val create : Engine.t -> t

  val sleep : t -> unit
  (** Block the calling process until a wakeup.  A sleeper that is
      killed leaves the queue at once, so it never swallows a later
      wakeup.  @raise Failure outside a process. *)

  val wakeup : t -> unit
  (** Wake the longest-sleeping process, if any. *)

  val wakeup_all : t -> unit
  (** Wake every sleeper, oldest first; {!waiters} reads 0 after it. *)

  val waiters : t -> int
  (** Processes asleep on [t]; O(1). *)
end

module Mbox : sig
  type 'a t
  (** Unbounded mailbox with blocking receive: how an event hands work
      to a process, e.g. calls to a listener. *)

  val create : Engine.t -> 'a t
  val send : 'a t -> 'a -> unit
  val recv : 'a t -> 'a
  (** Blocks while empty.  @raise Failure outside a process, when it
      would block. *)

  val try_recv : 'a t -> 'a option
  val length : 'a t -> int
end

module Explore : sig
  (** Schedule exploration: rerun a closed scenario under many
      {!Sched.policy} choices and check that its observable behaviour is
      independent of same-time event orderings (FoundationDB-style
      deterministic simulation testing, restricted to tie-breaks).
      Every failure names its exact [(policy, seed)] pair — the policy
      string carries the shuffle seed — and is replayed once with
      tracing attached, so each bug is a one-line repro:
      [p9explore -s SCENARIO -p shuffle:SEED]. *)

  type outcome = {
    o_transcript : string;
        (** the scenario's observable record; compared byte-for-byte
            against the Fifo baseline unless the scenario declares
            itself schedule-dependent *)
    o_stalled : string list;
        (** processes left blocked forever, from {!Engine.stalled},
            minus whatever daemons the scenario expects to idle *)
    o_crash : string option;  (** first uncaught process crash *)
    o_counters : (string * int) list;  (** Obs counters, if traced *)
    o_events : int;  (** live engine events executed *)
  }

  type bound = { b_counter : string; b_min : int; b_max : int }
  (** An inclusive range an Obs counter must land in (missing counter
      reads as 0). *)

  type scenario

  val scenario :
    ?descr:string ->
    ?schedule_dependent:bool ->
    ?check:(outcome -> (unit, string) result) ->
    ?bounds:bound list ->
    string ->
    (sched:Sched.policy -> trace:Obs.Trace.t option -> outcome) ->
    scenario
  (** [scenario name run] wraps a closed scenario.  [run] must build a
      {e fresh} world with [Engine.create ~sched], attach [trace] when
      given (the failure replay passes one), execute to quiescence, and
      report.  [schedule_dependent] exempts the transcript from the
      cross-schedule identity check — [check] then carries the
      schedule-independent properties.  [bounds] constrain counters on
      every run. *)

  val name : scenario -> string
  val descr : scenario -> string

  type failure = {
    f_scenario : string;
    f_policy : Sched.policy;
    f_reason : string;
  }

  val policies : seeds:int list -> Sched.policy list
  (** [Fifo :: Shuffle seeds @ [Adversarial]] — the standard sweep. *)

  val smoke_seeds : int list
  (** The fixed shuffle seeds of the tier-1 smoke budget ([1..5]). *)

  val run_one :
    ?out:(string -> unit) ->
    ?baseline:string ->
    scenario ->
    Sched.policy ->
    (outcome, failure) result
  (** Run one (scenario, policy) and judge the invariants: no crash, no
      stall, counters within bounds, [check] holds, transcript equals
      [baseline] when given.  On failure, prints the repro line to [out]
      (default stderr), reruns once with tracing attached and prints the
      event tail. *)

  val explore :
    ?out:(string -> unit) ->
    ?policies:Sched.policy list ->
    scenario ->
    failure list
  (** Sweep the policy list (default: smoke budget).  Fifo always runs
      first; its transcript becomes the cross-schedule baseline.  An
      empty result means every schedule agreed. *)
end
