(* Host-speed correction for the wall-clock figures.

   The benchmark runs on a share of a machine it does not have to
   itself, and the speed that share gives memory-bound code drifts by
   tens of per cent within minutes: identical routed-swarm repetitions
   went from 10.4 s to 6.8 s over four minutes, while a plain arithmetic
   loop moved by a few per cent only.

   So every timed span is measured together with a fixed kernel owned by
   the benchmark.  [kernel] walks a list of 10,000 records scattered
   through the heap, five times over, and writes three words per record
   into a 2 MB array: some 4 MB touched per call, more than a core's
   L2, so it runs at the speed of the shared cache and memory, as the
   workloads do.  It allocates nothing, so the program's garbage
   collector never runs inside it, and it calls nothing in lib/, so no
   change to the program can move it.  Timed between slices of 28
   routed-swarm repetitions, its median followed the run time with a
   correlation of 0.96; wall time divided by it spread 0.02 of the
   median (interquartile range) where raw wall time spread 0.09.  It
   under-corrects a little (the run slows about 1.4 times as much as
   the kernel), so a large drift still leaves a third of itself.

   A corrected figure is [wall *. reference /. kernel]: the seconds the
   span would take on a host where one kernel call takes [reference]
   seconds. *)

let now = Unix.gettimeofday

let reference = 0.000125

(* Two-word records, each followed by a dropped 20-word block, so they
   end up spread over the heap the way long-lived process records do.
   Built once, when the module is initialised. *)
let records =
  let l = ref [] in
  for i = 1 to 10_000 do
    l := ref i :: !l;
    ignore (Sys.opaque_identity (Array.make 20 i))
  done;
  !l

let sink_words = 1 lsl 18
let sink = Array.make sink_words 0
let pos = ref 0

(* Wall seconds of one call. *)
let kernel () =
  let t0 = now () in
  for k = 1 to 5 do
    let rec go p = function
      | [] -> p
      | r :: tl ->
        if !r = k then go p tl
        else begin
          Array.unsafe_set sink p !r;
          Array.unsafe_set sink (p + 1) p;
          Array.unsafe_set sink (p + 2) k;
          go ((p + 3) land (sink_words - 4)) tl
        end
    in
    pos := go !pos records
  done;
  now () -. t0

(* The kernel is timed between two slices of a run at most this often
   (wall seconds), and a run is cut into slices this long (virtual
   seconds).  Slicing changes nothing the simulation does: every
   repetition must still reproduce the same deterministic counts. *)
let period = 0.05
let slice = 0.01

type timed = {
  wall : float;  (** wall seconds inside [World.run], kernel calls excluded *)
  words : float;  (** minor-heap words allocated inside [World.run] *)
  kernel_s : float;  (** median wall seconds of the kernel calls made *)
  crash : exn option;
}

let corrected t = t.wall *. reference /. t.kernel_s

(* [World.run ~until:horizon], in slices, with the kernel timed between
   slices every [period] of wall time and once at the end. *)
let run (world : P9net.World.t) ~horizon =
  let eng = world.P9net.World.eng in
  let wall = ref 0. and words = ref 0. and kern = ref [] in
  let last = ref (now ()) in
  let step until =
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let r = try Ok (P9net.World.run ~until world) with e -> Error e in
    let t1 = now () in
    words := !words +. (Gc.minor_words () -. w0);
    wall := !wall +. (t1 -. t0);
    if t1 -. !last >= period then begin
      kern := kernel () :: !kern;
      last := now ()
    end;
    r
  in
  let rec go t =
    if Sim.Engine.pending eng > 0 && t < horizon then
      match step t with Ok () -> go (t +. slice) | Error e -> Some e
    else match step horizon with Ok () -> None | Error e -> Some e
  in
  let crash = go slice in
  kern := kernel () :: !kern;
  { wall = !wall; words = !words; kernel_s = Measure.median !kern; crash }

(* Median kernel time over [n] calls, for spans not worth slicing. *)
let sample n = Measure.median (List.init n (fun _ -> kernel ()))
