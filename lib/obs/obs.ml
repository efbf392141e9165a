(* Zero-dependency observability core.  See obs.mli for the contract:
   deterministic (clock is injected), bounded (ring buffer), and free
   when no sink is installed (callers guard emission themselves). *)

module Event = struct
  type dir = Up | Down
  type proc_phase = Spawn | Block | Wake | Exit | Crash
  type packet_op = Tx | Rx | Drop of string

  type t =
    | Proc of { name : string; phase : proc_phase }
    | Cpu of { queued : float; busy : float }
    | Blk of { op : [ `Alloc | `Free ]; bytes : int }
    | Stream of { dev : string; dir : dir; bytes : int; delim : bool }
    | Flow of { dev : string; stalled : bool; qbytes : int }
    | Packet of {
        medium : string;
        op : packet_op;
        src : string;
        dst : string;
        proto : string;
        bytes : int;
      }
    | Proto_state of { proto : string; conv : int; from_ : string; to_ : string }
    | Fault of {
        medium : string;
        kind : string;
        reason : string;
        src : string;
        dst : string;
        proto : string;
        bytes : int;
      }
    | Retransmit of { proto : string; conv : int; id : int; bytes : int }
    | Checksum_err of { proto : string }
    | Fcall of { role : [ `T | `R ]; tag : int; msg : string; latency : float }
    | Span_begin of {
        name : string;
        layer : string;
        trace : int;
        span : int;
        parent : int;
        scope : int;
      }
    | Span_end of {
        name : string;
        layer : string;
        trace : int;
        span : int;
        scope : int;
        orphan : bool;
      }
    | Note of { sub : string; msg : string }

  let phase_name = function
    | Spawn -> "spawn"
    | Block -> "block"
    | Wake -> "wake"
    | Exit -> "exit"
    | Crash -> "crash"

  let label = function
    | Proc { phase; _ } -> "proc." ^ phase_name phase
    | Cpu _ -> "cpu.occupy"
    | Blk { op = `Alloc; _ } -> "blk.alloc"
    | Blk { op = `Free; _ } -> "blk.free"
    | Stream { dir = Up; _ } -> "stream.up"
    | Stream { dir = Down; _ } -> "stream.down"
    | Flow { stalled = true; _ } -> "flow.stall"
    | Flow { stalled = false; _ } -> "flow.resume"
    | Packet { op = Tx; _ } -> "pkt.tx"
    | Packet { op = Rx; _ } -> "pkt.rx"
    | Packet { op = Drop _; _ } -> "pkt.drop"
    | Proto_state _ -> "proto.state"
    | Fault { kind; _ } -> "fault." ^ kind
    | Retransmit _ -> "proto.retransmit"
    | Checksum_err _ -> "proto.badsum"
    | Fcall { role = `T; _ } -> "9p.t"
    | Fcall { role = `R; _ } -> "9p.r"
    | Span_begin _ -> "span.begin"
    | Span_end _ -> "span.end"
    | Note _ -> "note"

  let args = function
    | Proc { name; _ } -> [ ("proc", name) ]
    | Cpu { queued; busy } ->
      [ ("queued_us", Printf.sprintf "%.1f" (queued *. 1e6));
        ("busy_us", Printf.sprintf "%.1f" (busy *. 1e6)) ]
    | Blk { bytes; _ } -> [ ("bytes", string_of_int bytes) ]
    | Stream { dev; bytes; delim; _ } ->
      [ ("dev", dev); ("bytes", string_of_int bytes);
        ("delim", string_of_bool delim) ]
    | Flow { dev; qbytes; _ } ->
      [ ("dev", dev); ("qbytes", string_of_int qbytes) ]
    | Packet { medium; op; src; dst; proto; bytes } ->
      [ ("medium", medium); ("src", src); ("dst", dst); ("proto", proto);
        ("bytes", string_of_int bytes) ]
      @ (match op with Drop why -> [ ("why", why) ] | Tx | Rx -> [])
    | Proto_state { proto; conv; from_; to_ } ->
      [ ("proto", proto); ("conv", string_of_int conv); ("from", from_);
        ("to", to_) ]
    | Fault { medium; kind; reason; src; dst; proto; bytes } ->
      [ ("medium", medium); ("kind", kind); ("reason", reason); ("src", src);
        ("dst", dst); ("proto", proto); ("bytes", string_of_int bytes) ]
    | Retransmit { proto; conv; id; bytes } ->
      [ ("proto", proto); ("conv", string_of_int conv);
        ("id", string_of_int id); ("bytes", string_of_int bytes) ]
    | Checksum_err { proto } -> [ ("proto", proto) ]
    | Fcall { tag; msg; latency; _ } ->
      [ ("tag", string_of_int tag); ("msg", msg);
        ("latency_us", Printf.sprintf "%.1f" (latency *. 1e6)) ]
    | Span_begin { name; layer; trace; span; parent; scope } ->
      [ ("name", name); ("layer", layer); ("trace", string_of_int trace);
        ("span", string_of_int span); ("parent", string_of_int parent);
        ("scope", string_of_int scope) ]
    | Span_end { name; layer; trace; span; scope; orphan } ->
      [ ("name", name); ("layer", layer); ("trace", string_of_int trace);
        ("span", string_of_int span); ("scope", string_of_int scope);
        ("orphan", string_of_bool orphan) ]
    | Note { sub; msg } -> [ ("sub", sub); ("msg", msg) ]

  let render ev =
    match ev with
    | Note { sub; msg } -> Printf.sprintf "%s: %s" sub msg
    | Span_begin { name; layer; trace; span; parent; _ } ->
      Printf.sprintf "span> [%s] %s trace=%d span=%d parent=%d" layer name
        trace span parent
    | Span_end { name; layer; trace; span; orphan; _ } ->
      Printf.sprintf "span< [%s] %s trace=%d span=%d%s" layer name trace span
        (if orphan then " (orphan)" else "")
    | Proto_state { proto; conv; from_; to_ } ->
      Printf.sprintf "%s/%d %s -> %s" proto conv from_ to_
    | Retransmit { proto; conv; id; bytes } ->
      Printf.sprintf "%s/%d retransmit id %d (%d bytes)" proto conv id bytes
    | Fault { medium; kind; reason; src; dst; proto; bytes } ->
      Printf.sprintf "%s fault %s[%s] %s>%s %s %d" medium kind reason src dst
        proto bytes
    | Packet { medium; op; src; dst; proto; bytes } ->
      Printf.sprintf "%s %s %s>%s %s %d"
        medium
        (match op with Tx -> "tx" | Rx -> "rx" | Drop why -> "drop[" ^ why ^ "]")
        src dst proto bytes
    | ev ->
      String.concat " "
        (label ev
        :: List.map (fun (k, v) -> k ^ "=" ^ v) (args ev))
end

module Metrics = struct
  (* Histograms are log-bucketed: bucket [i] counts samples whose value
     (seconds) is <= 1e-6 * 2^i, with the last bucket catching the rest.
     Quantiles read as the upper bound of the bucket holding the rank,
     so they are deterministic and at most a factor of 2 pessimistic. *)
  let nbuckets = 40

  let bucket_bound i = 1e-6 *. Float.of_int (1 lsl i)

  type hist = {
    mutable count : int;
    mutable sum : float;
    mutable max_ : float;
    buckets : int array;
  }

  type t = {
    counters : (string, int ref) Hashtbl.t;
    hists : (string, hist) Hashtbl.t;
  }

  let create () = { counters = Hashtbl.create 31; hists = Hashtbl.create 7 }

  let bump t name n =
    match Hashtbl.find_opt t.counters name with
    | Some r -> r := !r + n
    | None -> Hashtbl.replace t.counters name (ref n)

  let bucket_of v =
    let rec go i ub =
      if v <= ub || i >= nbuckets - 1 then i else go (i + 1) (ub *. 2.)
    in
    go 0 1e-6

  let observe t name v =
    let h =
      match Hashtbl.find_opt t.hists name with
      | Some h -> h
      | None ->
        let h =
          { count = 0; sum = 0.; max_ = 0.; buckets = Array.make nbuckets 0 }
        in
        Hashtbl.replace t.hists name h;
        h
    in
    h.count <- h.count + 1;
    h.sum <- h.sum +. v;
    let b = bucket_of v in
    h.buckets.(b) <- h.buckets.(b) + 1;
    if v > h.max_ then h.max_ <- v

  let quantile t name q =
    match Hashtbl.find_opt t.hists name with
    | None -> None
    | Some h when h.count = 0 -> None
    | Some h ->
      let q = Float.max 0. (Float.min 1. q) in
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int h.count))) in
      let rec find i acc =
        if i >= nbuckets - 1 then Some (bucket_bound (nbuckets - 1))
        else
          let acc = acc + h.buckets.(i) in
          if acc >= rank then Some (bucket_bound i) else find (i + 1) acc
      in
      find 0 0

  let counter t name =
    match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

  let counters t =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
    |> List.sort compare

  let histograms t =
    Hashtbl.fold (fun k h acc -> (k, (h.count, h.sum, h.max_)) :: acc) t.hists []
    |> List.sort compare

  let clear t =
    Hashtbl.reset t.counters;
    Hashtbl.reset t.hists
end

module Prof = struct
  (* Wall-clock engine profiler.  The clock is injected (the bench
     passes Unix.gettimeofday) because this library links no unix;
     minor-heap allocation comes from Gc.minor_words.  Attribution is
     per heap-entry label, so each dispatched event lands in exactly one
     handler class ("il", "tcp", "9p", "app", ...).  The measurement
     itself boxes a few floats per event; that constant overhead is
     attributed to the event being measured.  Major-heap figures are
     whole-run only, from a snapshot at the first dispatch to the
     report: reading them allocates, so they are not taken per event. *)
  type acc = {
    mutable a_events : int;
    mutable a_time : float;
    mutable a_words : float;
  }

  type t = {
    clock : unit -> float;
    layers : (string, acc) Hashtbl.t;
    mutable t0 : float;
    mutable w0 : float;
    mutable first : float;  (* wall time of the first dispatch, -1 if none *)
    mutable last : float;
    mutable events : int;
    mutable dispatch : float;  (* sum of per-event wall-clock deltas *)
    mutable words : float;  (* sum of per-event minor words *)
    mutable direct0 : float;  (* at the first dispatch: major words
                                 allocated there directly (not promoted) *)
    mutable promoted0 : float;
    mutable majors0 : int;  (* major collections *)
    mutable spawns : unit -> int;  (* processes spawned since attach *)
  }

  let create ~clock () =
    {
      clock;
      layers = Hashtbl.create 17;
      t0 = 0.;
      w0 = 0.;
      first = -1.;
      last = -1.;
      events = 0;
      dispatch = 0.;
      words = 0.;
      direct0 = 0.;
      promoted0 = 0.;
      majors0 = 0;
      spawns = (fun () -> 0);
    }

  let set_spawns p f = p.spawns <- f

  let reset p =
    Hashtbl.reset p.layers;
    p.first <- -1.;
    p.last <- -1.;
    p.events <- 0;
    p.dispatch <- 0.;
    p.words <- 0.

  (* Gc.counters is exact at any moment; quick_stat's major_words lags
     direct allocations *)
  let major_counters () =
    let _, promoted, major = Gc.counters () in
    (major -. promoted, promoted, (Gc.quick_stat ()).Gc.major_collections)

  let begin_event p =
    let t = p.clock () in
    if p.first < 0. then begin
      p.first <- t;
      let direct, promoted, majors = major_counters () in
      p.direct0 <- direct;
      p.promoted0 <- promoted;
      p.majors0 <- majors
    end;
    p.t0 <- t;
    p.w0 <- Gc.minor_words ()

  let end_event p label =
    let t1 = p.clock () in
    let dw = Gc.minor_words () -. p.w0 in
    let dt = t1 -. p.t0 in
    p.last <- t1;
    p.events <- p.events + 1;
    p.dispatch <- p.dispatch +. dt;
    p.words <- p.words +. dw;
    let a =
      match Hashtbl.find_opt p.layers label with
      | Some a -> a
      | None ->
        let a = { a_events = 0; a_time = 0.; a_words = 0. } in
        Hashtbl.replace p.layers label a;
        a
    in
    a.a_events <- a.a_events + 1;
    a.a_time <- a.a_time +. dt;
    a.a_words <- a.a_words +. dw

  type layer = {
    l_label : string;
    l_events : int;
    l_share : float;  (* of total dispatch time; event share if time ~ 0 *)
    l_time_s : float;
    l_words_per_event : float;
  }

  type report = {
    r_events : int;
    r_spawns : int;
    r_wall_s : float;  (* first dispatch begin to last dispatch end *)
    r_dispatch_s : float;
    r_events_per_sec : float;
    r_minor_words : float;
    r_minor_words_per_event : float;
    r_direct_major_words : float;
    r_promoted_words : float;
    r_major_collections : int;
    r_layers : layer list;  (* descending by share *)
  }

  let report p =
    let wall = if p.first < 0. then 0. else p.last -. p.first in
    let fev = float_of_int p.events in
    (* a clock too coarse to see any dispatch falls back to event-count
       shares, so shares always sum to ~1.0 when any event ran *)
    let use_counts = p.dispatch <= 0. in
    let layers =
      Hashtbl.fold (fun k a acc -> (k, a) :: acc) p.layers []
      |> List.map (fun (k, a) ->
             {
               l_label = k;
               l_events = a.a_events;
               l_share =
                 (if use_counts then
                    if p.events = 0 then 0. else float_of_int a.a_events /. fev
                  else a.a_time /. p.dispatch);
               l_time_s = a.a_time;
               l_words_per_event =
                 (if a.a_events = 0 then 0.
                  else a.a_words /. float_of_int a.a_events);
             })
      |> List.sort (fun x y ->
             match compare y.l_share x.l_share with
             | 0 -> compare x.l_label y.l_label
             | c -> c)
    in
    let direct, promoted, majors =
      if p.first < 0. then (0., 0., 0)
      else
        let direct, promoted, majors = major_counters () in
        (direct -. p.direct0, promoted -. p.promoted0, majors - p.majors0)
    in
    {
      r_events = p.events;
      r_spawns = p.spawns ();
      r_wall_s = wall;
      r_dispatch_s = p.dispatch;
      r_events_per_sec = (if wall > 0. then fev /. wall else 0.);
      r_minor_words = p.words;
      r_minor_words_per_event = (if p.events = 0 then 0. else p.words /. fev);
      r_direct_major_words = direct;
      r_promoted_words = promoted;
      r_major_collections = majors;
      r_layers = layers;
    }

  let report_json r =
    let b = Buffer.create 512 in
    Printf.bprintf b
      "{\"events\": %d, \"spawns\": %d, \"wall_s\": %.6f, \
       \"dispatch_s\": %.6f, \"events_per_sec\": %.1f, \"minor_words\": %.0f, \
       \"minor_words_per_event\": %.1f, \"direct_major_words\": %.0f, \
       \"promoted_words\": %.0f, \"major_collections\": %d, \
       \"share_sum\": %.4f, \"layers\": ["
      r.r_events r.r_spawns r.r_wall_s r.r_dispatch_s r.r_events_per_sec
      r.r_minor_words r.r_minor_words_per_event r.r_direct_major_words r.r_promoted_words
      r.r_major_collections
      (List.fold_left (fun s l -> s +. l.l_share) 0. r.r_layers);
    List.iteri
      (fun i l ->
        if i > 0 then Buffer.add_string b ", ";
        Printf.bprintf b
          "{\"layer\": \"%s\", \"events\": %d, \"share\": %.4f, \
           \"words_per_event\": %.1f}"
          l.l_label l.l_events l.l_share l.l_words_per_event)
      r.r_layers;
    Buffer.add_string b "]}";
    Buffer.contents b

end

module Series = struct
  (* A bounded ring of periodic counter snapshots — the data behind
     /net/metrics.  Purely virtual-time: [ts] comes from the caller. *)
  type t = {
    cap : int;
    src : Metrics.t;
    mutable samples : (float * (string * int) list) list;  (* newest first *)
  }

  let create ?(capacity = 128) src =
    { cap = max 1 capacity; src; samples = [] }

  let sample t ts =
    let rec take n = function
      | [] -> []
      | x :: r -> if n <= 0 then [] else x :: take (n - 1) r
    in
    t.samples <- take t.cap ((ts, Metrics.counters t.src) :: t.samples)

  let count t = List.length t.samples
  let samples t = List.rev t.samples
  let clear t = t.samples <- []

  let render ?live_ts t =
    let buf = Buffer.create 1024 in
    let one (ts, vals) =
      List.iter (fun (k, v) -> Printf.bprintf buf "%s %d %.6f\n" k v ts) vals
    in
    List.iter one (List.rev t.samples);
    (match live_ts with
    | Some ts when t.samples = [] -> one (ts, Metrics.counters t.src)
    | _ -> ());
    Buffer.contents buf
end

module Trace = struct
  type entry = { e_t : float; e_seq : int; e_ev : Event.t }

  (* an open span: pushed by [span_enter], popped by [span_exit] or
     closed as an orphan at engine drain *)
  type frame = {
    fr_span : int;
    fr_trace : int;
    fr_parent : int;
    fr_scope : int;
    fr_name : string;
    fr_layer : string;
  }

  type t = {
    capacity : int;
    mutable ring : entry option array;
    mutable next : int;  (* ring slot for the next event *)
    mutable nseq : int;  (* events ever emitted *)
    mutable clock : unit -> float;
    mutable scope_fn : unit -> int;
        (* ambient span scope: the engine installs "current proc pid,
           else 0", so each simulated process carries its own stack *)
    metrics : Metrics.t;
    mutable next_span : int;
    mutable next_trace : int;
    open_spans : (int, frame) Hashtbl.t;  (* span id -> frame *)
    stacks : (int, int list) Hashtbl.t;  (* scope -> open spans, top first *)
  }

  let create ?(capacity = 65536) () =
    {
      capacity = max 16 capacity;
      ring = Array.make (max 16 capacity) None;
      next = 0;
      nseq = 0;
      clock = (fun () -> 0.);
      scope_fn = (fun () -> 0);
      metrics = Metrics.create ();
      next_span = 0;
      next_trace = 0;
      open_spans = Hashtbl.create 31;
      stacks = Hashtbl.create 7;
    }

  let set_clock t fn = t.clock <- fn
  let set_scope t fn = t.scope_fn <- fn
  let now t = t.clock ()
  let metrics t = t.metrics
  let bump t name n = Metrics.bump t.metrics name n
  let observe t name v = Metrics.observe t.metrics name v
  let seq t = t.nseq
  let dropped t = max 0 (t.nseq - t.capacity)

  let emit t ev =
    let time = t.clock () in
    t.ring.(t.next) <- Some { e_t = time; e_seq = t.nseq; e_ev = ev };
    t.next <- (t.next + 1) mod t.capacity;
    t.nseq <- t.nseq + 1

  let note t ~sub msg = emit t (Event.Note { sub; msg })

  (* ---- causal spans ---- *)

  let span_enter t ?(layer = "app") name =
    let scope = t.scope_fn () in
    t.next_span <- t.next_span + 1;
    let span = t.next_span in
    let stack =
      match Hashtbl.find_opt t.stacks scope with Some s -> s | None -> []
    in
    let parent, trace =
      match stack with
      | p :: _ when Hashtbl.mem t.open_spans p ->
        (p, (Hashtbl.find t.open_spans p).fr_trace)
      | _ ->
        t.next_trace <- t.next_trace + 1;
        (0, t.next_trace)
    in
    Hashtbl.replace t.open_spans span
      { fr_span = span; fr_trace = trace; fr_parent = parent; fr_scope = scope;
        fr_name = name; fr_layer = layer };
    Hashtbl.replace t.stacks scope (span :: stack);
    emit t (Event.Span_begin { name; layer; trace; span; parent; scope });
    span

  let span_close t fr ~orphan =
    Hashtbl.remove t.open_spans fr.fr_span;
    emit t
      (Event.Span_end
         { name = fr.fr_name; layer = fr.fr_layer; trace = fr.fr_trace;
           span = fr.fr_span; scope = fr.fr_scope; orphan })

  let span_exit t h =
    if h <> 0 then
      match Hashtbl.find_opt t.open_spans h with
      | None -> ()  (* already closed (double exit or drain) *)
      | Some fr ->
        let scope = fr.fr_scope in
        let stack =
          match Hashtbl.find_opt t.stacks scope with Some s -> s | None -> []
        in
        (* children left open above [h] end first (as orphans), keeping
           the begin/end bracketing well-nested per scope *)
        let rec pop = function
          | [] -> []
          | s :: rest ->
            (match Hashtbl.find_opt t.open_spans s with
            | Some sfr -> span_close t sfr ~orphan:(s <> h)
            | None -> ());
            if s = h then rest else pop rest
        in
        if List.mem h stack then Hashtbl.replace t.stacks scope (pop stack)
        else span_close t fr ~orphan:false

  let span_current t =
    match Hashtbl.find_opt t.stacks (t.scope_fn ()) with
    | Some (s :: _) -> s
    | Some [] | None -> 0

  let span_open_count t = Hashtbl.length t.open_spans

  let span_drain t =
    (* close every open span, innermost first per scope, in scope order
       (deterministic given a deterministic run) *)
    let scopes =
      Hashtbl.fold (fun k _ acc -> k :: acc) t.stacks [] |> List.sort compare
    in
    List.iter
      (fun scope ->
        (match Hashtbl.find_opt t.stacks scope with
        | None -> ()
        | Some stack ->
          List.iter
            (fun s ->
              match Hashtbl.find_opt t.open_spans s with
              | Some fr -> span_close t fr ~orphan:true
              | None -> ())
            stack);
        Hashtbl.remove t.stacks scope)
      scopes

  let clear t =
    Array.fill t.ring 0 t.capacity None;
    t.next <- 0;
    t.nseq <- 0;
    t.next_span <- 0;
    t.next_trace <- 0;
    Hashtbl.reset t.open_spans;
    Hashtbl.reset t.stacks;
    Metrics.clear t.metrics

  let events t =
    (* oldest live entry first: walk the ring from [next] *)
    let acc = ref [] in
    for i = t.capacity - 1 downto 0 do
      match t.ring.((t.next + i) mod t.capacity) with
      | Some e -> acc := (e.e_t, e.e_seq, e.e_ev) :: !acc
      | None -> ()
    done;
    List.sort (fun (_, a, _) (_, b, _) -> compare a b) !acc

  let span_tree ?trace t =
    let buf = Buffer.create 256 in
    let depth = Hashtbl.create 17 in
    List.iter
      (fun (_, _, ev) ->
        match ev with
        | Event.Span_begin { name; layer; trace = tr; span; parent; _ }
          when (match trace with None -> true | Some want -> want = tr) ->
          let d =
            match Hashtbl.find_opt depth parent with
            | Some d -> d + 1
            | None -> 0
          in
          Hashtbl.replace depth span d;
          Printf.bprintf buf "%s[%s] %s\n" (String.make (2 * d) ' ') layer name
        | _ -> ())
      (events t);
    Buffer.contents buf

  let render ?(limit = 100) t =
    let evs = events t in
    let n = List.length evs in
    let evs =
      if n <= limit then evs
      else
        (* keep the newest [limit] *)
        List.filteri (fun i _ -> i >= n - limit) evs
    in
    let buf = Buffer.create 4096 in
    List.iter
      (fun (time, _, ev) ->
        Buffer.add_string buf
          (Printf.sprintf "%.6f %s\n" time (Event.render ev)))
      evs;
    Buffer.contents buf

  (* ---- exporters ---- *)

  let json_escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 32 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let to_chrome_json t =
    (* Chrome trace_event format, virtual microseconds.  Instant events
       stay on tid 1; spans become B/E duration pairs on a per-scope tid
       (scope + 2, so process 1's spans land on tid 3), which is what
       makes them nest correctly in the viewer.  Deterministic by
       construction. *)
    let buf = Buffer.create 16384 in
    Buffer.add_string buf "{\"traceEvents\":[";
    let first = ref true in
    let args_json sq args =
      String.concat ","
        (Printf.sprintf "\"seq\":%d" sq
        :: List.map
             (fun (k, v) ->
               Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
             args)
    in
    List.iter
      (fun (time, sq, ev) ->
        if !first then first := false else Buffer.add_char buf ',';
        (match ev with
        | Event.Span_begin { name; scope; _ } ->
          Buffer.add_string buf
            (Printf.sprintf
               "\n{\"name\":\"%s\",\"ph\":\"B\",\"ts\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{"
               (json_escape name) (time *. 1e6) (scope + 2))
        | Event.Span_end { name; scope; _ } ->
          Buffer.add_string buf
            (Printf.sprintf
               "\n{\"name\":\"%s\",\"ph\":\"E\",\"ts\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{"
               (json_escape name) (time *. 1e6) (scope + 2))
        | ev ->
          Buffer.add_string buf
            (Printf.sprintf
               "\n{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"g\",\"ts\":%.3f,\"pid\":1,\"tid\":1,\"args\":{"
               (json_escape (Event.label ev))
               (time *. 1e6)));
        Buffer.add_string buf (args_json sq (Event.args ev));
        Buffer.add_string buf "}}")
      (events t);
    Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
    Buffer.contents buf

  let counters_json t =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{";
    let first = ref true in
    let sep () = if !first then first := false else Buffer.add_string buf ", " in
    List.iter
      (fun (k, v) ->
        sep ();
        Buffer.add_string buf (Printf.sprintf "\"%s\": %d" (json_escape k) v))
      (Metrics.counters t.metrics);
    List.iter
      (fun (k, (count, sum, mx)) ->
        sep ();
        let q p =
          match Metrics.quantile t.metrics k p with Some v -> v | None -> 0.
        in
        Buffer.add_string buf
          (Printf.sprintf
             "\"%s\": {\"count\": %d, \"sum_ms\": %.6f, \"max_ms\": %.6f, \
              \"p50_ms\": %.6f, \"p95_ms\": %.6f, \"p99_ms\": %.6f}"
             (json_escape k) count (sum *. 1e3) (mx *. 1e3)
             (q 0.50 *. 1e3) (q 0.95 *. 1e3) (q 0.99 *. 1e3)))
      (Metrics.histograms t.metrics);
    Buffer.add_string buf "}";
    Buffer.contents buf
end

module Span = struct
  (* Thin facade over the span machinery living inside Trace (it needs
     the ring and the scope hook).  A handle is just the span id; 0 is
     "no span", so disabled-sink call sites can thread an int through
     without allocating. *)
  type h = int

  let none = 0
  let enter = Trace.span_enter
  let exit = Trace.span_exit
  let current = Trace.span_current
  let drain = Trace.span_drain
  let open_count = Trace.span_open_count
  let tree = Trace.span_tree
end
