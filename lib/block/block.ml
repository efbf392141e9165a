type kind = Data | Ctl | Hangup

type t = {
  kind : kind;
  buf : string;
  mutable rp : int;
  mutable wp : int;
  mutable delim : bool;
}

let max_atomic_write = 32 * 1024

let make ?(kind = Data) ?(delim = false) s =
  { kind; buf = s; rp = 0; wp = String.length s; delim }

let view s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Block.view";
  { kind = Data; buf = s; rp = off; wp = off + len; delim = false }

let hangup () = { kind = Hangup; buf = ""; rp = 0; wp = 0; delim = true }

let len b = b.wp - b.rp

(* strings are immutable, so a block spanning its whole buffer can hand
   the buffer itself out *)
let to_string b =
  if b.rp = 0 && b.wp = String.length b.buf then b.buf
  else String.sub b.buf b.rp (len b)

let consume b n =
  if n < 0 || n > len b then invalid_arg "Block.consume";
  b.rp <- b.rp + n

let sub b n =
  if n < 0 || n > len b then invalid_arg "Block.sub";
  { b with wp = b.rp + n; delim = b.delim && n = len b }

let concat bs =
  let total = List.fold_left (fun acc b -> acc + len b) 0 bs in
  let buf = Bytes.create total in
  let off = ref 0 in
  List.iter
    (fun b ->
      Bytes.blit_string b.buf b.rp buf !off (len b);
      off := !off + len b)
    bs;
  let delim = match List.rev bs with [] -> false | last :: _ -> last.delim in
  make ~delim (Bytes.unsafe_to_string buf)

let gather first off total rest =
  match rest with
  | [] ->
    if off = 0 && total = String.length first then first
    else String.sub first off total
  | pieces ->
    let out = Bytes.create total in
    let fin =
      List.fold_left
        (fun fin (s, o, n) ->
          Bytes.blit_string s o out (fin - n) n;
          fin - n)
        total pieces
    in
    Bytes.blit_string first off out 0 fin;
    Bytes.unsafe_to_string out

module Q = struct
  type block = t

  type q = {
    eng : Sim.Engine.t;
    limit : int;
    items : block Queue.t;
    mutable nbytes : int;
    mutable closed : bool;
    mutable eof : bool;  (* a Hangup has been delivered or drain done *)
    readers : Sim.Rendez.t;
    writers : Sim.Rendez.t;
    qname : string;  (* label for flow-control trace events *)
  }

  type t = q

  exception Closed

  let create ?(limit = 64 * 1024) ?(name = "q") eng =
    {
      eng;
      limit;
      items = Queue.create ();
      nbytes = 0;
      closed = false;
      eof = false;
      readers = Sim.Rendez.create eng;
      writers = Sim.Rendez.create eng;
      qname = name;
    }

  let bytes q = q.nbytes
  let blocks q = Queue.length q.items
  let is_closed q = q.closed
  let full q = q.nbytes >= q.limit

  (* Test-only planted ordering bug (see DESIGN.md, "Schedule
     exploration"): when set, a put onto a non-empty queue skips the
     reader wakeup on the theory that the wakeup for the earlier block
     is still pending — a classic lost wakeup.  It is harmless whenever
     the woken reader drains the queue before the next put (which is
     what FIFO schedules happen to do here), and strands a reader under
     schedules where a second reader goes to sleep before a producer's
     back-to-back puts: the first put wakes the wrong (older) sleeper
     and the second put's wakeup — the one the young sleeper needed —
     is the one skipped.
     Never set outside the explorer's self-test. *)
  let chaos_lost_wakeup = ref false

  let enqueue q b =
    Queue.push b q.items;
    q.nbytes <- q.nbytes + len b;
    (match Sim.Engine.obs q.eng with
    | None -> ()
    | Some tr ->
      Obs.Trace.emit tr (Obs.Event.Blk { op = `Alloc; bytes = len b });
      Obs.Trace.bump tr "blk.alloc" 1);
    if not (!chaos_lost_wakeup && Queue.length q.items > 1) then
      Sim.Rendez.wakeup q.readers

  let force_put q b = if not q.eof then enqueue q b

  let try_put q b =
    if q.closed then raise Closed;
    match b.kind with
    | Ctl | Hangup ->
      enqueue q b;
      true
    | Data ->
      if full q then false
      else begin
        enqueue q b;
        true
      end

  let put q b =
    if q.closed then raise Closed;
    (match b.kind with
    | Ctl | Hangup -> ()
    | Data ->
      if full q then begin
        (match Sim.Engine.obs q.eng with
        | None -> ()
        | Some tr ->
          Obs.Trace.emit tr
            (Obs.Event.Flow { dev = q.qname; stalled = true; qbytes = q.nbytes });
          Obs.Trace.bump tr "flow.stalls" 1);
        while full q && not q.closed do
          Sim.Rendez.sleep q.writers
        done;
        match Sim.Engine.obs q.eng with
        | None -> ()
        | Some tr ->
          Obs.Trace.emit tr
            (Obs.Event.Flow { dev = q.qname; stalled = false; qbytes = q.nbytes })
      end;
      if q.closed then raise Closed);
    enqueue q b;
    (* cascade: a drain wakes only one blocked writer; if this put left
       room, pass the wakeup along so every writer that now fits gets
       through (found by the schedule explorer: stream-backpressure
       stranded its second writer under every policy) *)
    if not (full q) then Sim.Rendez.wakeup q.writers

  let dequeue q =
    let b = Queue.pop q.items in
    q.nbytes <- q.nbytes - len b;
    (match Sim.Engine.obs q.eng with
    | None -> ()
    | Some tr ->
      Obs.Trace.emit tr (Obs.Event.Blk { op = `Free; bytes = len b });
      Obs.Trace.bump tr "blk.free" 1);
    Sim.Rendez.wakeup q.writers;
    b

  let rec get q =
    if q.eof then None
    else
      match Queue.is_empty q.items with
      | true ->
        if q.closed then begin
          q.eof <- true;
          None
        end
        else begin
          Sim.Rendez.sleep q.readers;
          get q
        end
      | false -> (
        let b = dequeue q in
        match b.kind with
        | Hangup ->
          q.eof <- true;
          None
        | Data | Ctl -> Some b)

  let read q want =
    (* Block until there is a block to look at, or EOF. *)
    let rec wait () =
      if q.eof then false
      else if not (Queue.is_empty q.items) then true
      else if q.closed then begin
        q.eof <- true;
        false
      end
      else begin
        Sim.Rendez.sleep q.readers;
        wait ()
      end
    in
    if want <= 0 || not (wait ()) then ""
    else begin
      (* the bytes taken are noted as pieces of the blocks' own strings,
         which nobody writes, and joined once by [gather] at the end *)
      let first = ref "" and first_off = ref 0 and got = ref 0 in
      let rest = ref [] in
      let stop = ref false in
      while (not !stop) && !got < want && not (Queue.is_empty q.items) do
        let b = Queue.peek q.items in
        match b.kind with
        | Hangup ->
          ignore (Queue.pop q.items);
          q.eof <- true;
          stop := true
        | Ctl ->
          (* control blocks are invisible to byte-stream reads; callers
             that care use [get] *)
          ignore (Queue.pop q.items);
          q.nbytes <- q.nbytes - len b
        | Data ->
          let take = min (want - !got) (len b) in
          if take > 0 then begin
            if !got = 0 then begin
              first := b.buf;
              first_off := b.rp
            end
            else rest := (b.buf, b.rp, take) :: !rest;
            got := !got + take
          end;
          consume b take;
          q.nbytes <- q.nbytes - take;
          Sim.Rendez.wakeup q.writers;
          if len b = 0 then begin
            ignore (Queue.pop q.items);
            if b.delim then stop := true
          end
      done;
      (* cascade: this read satisfied one waiter but may have left data
         behind (a partial take, or a delimiter stop); the enqueue-time
         wakeup for those bytes was already consumed by us, so wake the
         next reader ourselves (found by the schedule explorer:
         stream-read-cascade stranded its second reader) *)
      if not (Queue.is_empty q.items) then Sim.Rendez.wakeup q.readers;
      gather !first !first_off !got !rest
    end

  let close q =
    if not q.closed then begin
      q.closed <- true;
      Sim.Rendez.wakeup_all q.readers;
      Sim.Rendez.wakeup_all q.writers
    end
end
