type stream = {
  eng : Sim.Engine.t;
  name : string;
  rq : Block.Q.t;
  peer : stream;
  mutable is_closed : bool;
}

let closed s = s.is_closed

(* one block through an end: [Down] at the writer's, [Up] at the
   reader's *)
let note s dir b =
  match Sim.Engine.obs s.eng with
  | None -> ()
  | Some tr ->
    let bytes = Block.len b in
    Obs.Trace.emit tr
      (Obs.Event.Stream { dev = s.name; dir; bytes; delim = b.Block.delim });
    let blocks_ctr, bytes_ctr =
      match dir with
      | Obs.Event.Down -> ("stream.down.blocks", "stream.down.bytes")
      | Obs.Event.Up -> ("stream.up.blocks", "stream.up.bytes")
    in
    Obs.Trace.bump tr blocks_ctr 1;
    Obs.Trace.bump tr bytes_ctr bytes

let deliver s b =
  if not s.is_closed then begin
    note s Obs.Event.Up b;
    Block.Q.put s.rq b
  end

let send s b =
  if s.is_closed then raise Block.Q.Closed;
  note s Obs.Event.Down b;
  deliver s.peer b

let write ?(delim = true) s data =
  let n = String.length data in
  if n = 0 then send s (Block.make ~delim "")
  else begin
    let off = ref 0 in
    while !off < n do
      let take = min Block.max_atomic_write (n - !off) in
      let last = !off + take >= n in
      send s (Block.make ~delim:(delim && last) (String.sub data !off take));
      off := !off + take
    done
  end

let read s n = Block.Q.read s.rq n

let close s =
  if not s.is_closed then begin
    s.is_closed <- true;
    deliver s.peer (Block.hangup ());
    Block.Q.close s.rq
  end

module Pipe = struct
  let create ?(qlimit = 64 * 1024) eng =
    let q name = Block.Q.create ~limit:qlimit ~name:(name ^ ".up") eng in
    let q0 = q "pipe.0" and q1 = q "pipe.1" in
    let rec a = { eng; name = "pipe.0"; rq = q0; peer = b; is_closed = false }
    and b = { eng; name = "pipe.1"; rq = q1; peer = a; is_closed = false } in
    (a, b)
end
