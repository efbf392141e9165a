let src = Logs.Src.create "streams" ~doc:"Plan 9 streams"

module Log = (val Logs.src_log src : Logs.LOG)

type module_impl = {
  mi_name : string;
  mi_close : slot -> unit;
  mi_uput : slot -> Block.t -> unit;
  mi_dput : slot -> Block.t -> unit;
}

and slot = {
  impl : module_impl;
  stream : stream;
  mutable above : slot option;
  mutable below : slot option;
}

and device = {
  dev_name : string;
  dev_dput : Block.t -> unit;
  dev_close : unit -> unit;
}

and stream = {
  eng : Sim.Engine.t;
  upq : Block.Q.t;
  device : device;
  mutable top : slot option;
  mutable bottom : slot option;
  mutable is_closed : bool;
}

let null_device name =
  { dev_name = name; dev_dput = ignore; dev_close = ignore }

let registry : (string, unit -> module_impl) Hashtbl.t = Hashtbl.create 17

let register_module name factory = Hashtbl.replace registry name factory
let module_registered name = Hashtbl.mem registry name

let create ?(qlimit = 64 * 1024) eng device =
  {
    eng;
    upq = Block.Q.create ~limit:qlimit ~name:(device.dev_name ^ ".up") eng;
    device;
    top = None;
    bottom = None;
    is_closed = false;
  }

let engine s = s.eng
let device_name s = s.device.dev_name
let upq s = s.upq
let closed s = s.is_closed
let slot_stream sl = sl.stream

let pass_up sl b =
  match sl.above with
  | Some up -> up.impl.mi_uput up b
  | None -> Block.Q.put sl.stream.upq b

let pass_down sl b =
  match sl.below with
  | Some down -> down.impl.mi_dput down b
  | None -> sl.stream.device.dev_dput b

let send_down s b =
  match s.top with
  | Some top -> top.impl.mi_dput top b
  | None -> s.device.dev_dput b

let input s b =
  if not s.is_closed then begin
    (match Sim.Engine.obs s.eng with
    | None -> ()
    | Some tr ->
      Obs.Trace.emit tr
        (Obs.Event.Stream
           {
             dev = s.device.dev_name;
             dir = Obs.Event.Up;
             bytes = Block.len b;
             delim = b.Block.delim;
           });
      Obs.Trace.bump tr "stream.up.blocks" 1;
      Obs.Trace.bump tr "stream.up.bytes" (Block.len b));
    match s.bottom with
    | Some bottom -> bottom.impl.mi_uput bottom b
    | None -> Block.Q.put s.upq b
  end

let hangup s = input s (Block.hangup ())

let push_impl s impl =
  let sl = { impl; stream = s; above = None; below = s.top } in
  (match s.top with Some old -> old.above <- Some sl | None -> ());
  s.top <- Some sl;
  if s.bottom = None then s.bottom <- Some sl

let push s name =
  match Hashtbl.find_opt registry name with
  | Some factory -> push_impl s (factory ())
  | None -> failwith (Printf.sprintf "Streams.push: unknown module %s" name)

let pop s =
  match s.top with
  | None -> ()
  | Some sl ->
    sl.impl.mi_close sl;
    s.top <- sl.below;
    (match sl.below with
    | Some below -> below.above <- None
    | None -> s.bottom <- None)

let modules s =
  let rec walk acc = function
    | None -> List.rev acc
    | Some sl -> walk (sl.impl.mi_name :: acc) sl.below
  in
  walk [] s.top

let find_slot s name =
  let rec walk = function
    | None -> None
    | Some sl -> if sl.impl.mi_name = name then Some sl else walk sl.below
  in
  walk s.top

let close s =
  if not s.is_closed then begin
    s.is_closed <- true;
    let rec close_all = function
      | None -> ()
      | Some sl ->
        sl.impl.mi_close sl;
        close_all sl.below
    in
    close_all s.top;
    s.top <- None;
    s.bottom <- None;
    s.device.dev_close ();
    Block.Q.close s.upq
  end

let write_block s b =
  if s.is_closed then raise Block.Q.Closed;
  (match Sim.Engine.obs s.eng with
  | None -> ()
  | Some tr ->
    Obs.Trace.emit tr
      (Obs.Event.Stream
         {
           dev = s.device.dev_name;
           dir = Obs.Event.Down;
           bytes = Block.len b;
           delim = b.Block.delim;
         });
    Obs.Trace.bump tr "stream.down.blocks" 1;
    Obs.Trace.bump tr "stream.down.bytes" (Block.len b));
  if Block.is_ctl b then begin
    match Block.ctl_words b with
    | "push" :: name :: _ -> push s name
    | [ "pop" ] -> pop s
    | [ "hangup" ] -> Block.Q.put s.upq (Block.hangup ())
    | _ -> send_down s b
  end
  else send_down s b

let write ?(delim = true) s data =
  let n = String.length data in
  if n = 0 then write_block s (Block.make ~delim "")
  else begin
    let off = ref 0 in
    while !off < n do
      let take = min Block.max_atomic_write (n - !off) in
      let last = !off + take >= n in
      write_block s
        (Block.make ~delim:(delim && last) (String.sub data !off take));
      off := !off + take
    done
  end

let write_ctl s cmd = write_block s (Block.make ~kind:Block.Ctl cmd)
let read s n = Block.Q.read s.upq n
let read_block s = Block.Q.get s.upq

module Pipe = struct
  let create ?qlimit eng =
    (* Each side's device output is the other side's device-end input.
       The cross-link is set up after both streams exist. *)
    let other : stream option ref * stream option ref = (ref None, ref None) in
    let mk name cell =
      let dput b =
        match !cell with Some peer -> input peer b | None -> ()
      in
      let dclose () =
        match !cell with
        | Some peer -> if not peer.is_closed then hangup peer
        | None -> ()
      in
      create ?qlimit eng
        { dev_name = name; dev_dput = dput; dev_close = dclose }
    in
    let a = mk "pipe.0" (fst other) in
    let b = mk "pipe.1" (snd other) in
    fst other := Some b;
    snd other := Some a;
    (a, b)
end

module Stdmods = struct
(* the count module stashes its counters here, keyed by physical slot
   identity (slots contain closures, so structural equality is out) *)
module Slot_tbl = Hashtbl.Make (struct
  type t = slot

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let count_tables : (int ref * int ref * int ref * int ref) Slot_tbl.t =
  Slot_tbl.create 7

let counts slot =
  match Slot_tbl.find_opt count_tables slot with
  | Some (bd, byd, bu, byu) -> Some (!bd, !byd, !bu, !byu)
  | None -> None

let frame_factory () =
  (* upstream reassembly state *)
  let pending = Buffer.create 64 in
  let split_upstream slot =
    let continue_ = ref true in
    while !continue_ do
      let data = Buffer.contents pending in
      if String.length data < 2 then continue_ := false
      else begin
        let n = (Char.code data.[0] lsl 8) lor Char.code data.[1] in
        if String.length data < 2 + n then continue_ := false
        else begin
          pass_up slot
            (Block.make ~delim:true (String.sub data 2 n));
          Buffer.clear pending;
          Buffer.add_string pending
            (String.sub data (2 + n) (String.length data - 2 - n))
        end
      end
    done
  in
  {
    mi_name = "frame";
    mi_close = ignore;
    mi_uput =
      (fun slot b ->
        match b.Block.kind with
        | Block.Data ->
          Buffer.add_string pending (Block.to_string b);
          split_upstream slot
        | Block.Ctl | Block.Hangup -> pass_up slot b);
    mi_dput =
      (fun slot b ->
        match b.Block.kind with
        | Block.Data ->
          let n = Block.len b in
          let prefixed = Bytes.create (n + 2) in
          Bytes.set prefixed 0 (Char.chr ((n lsr 8) land 0xff));
          Bytes.set prefixed 1 (Char.chr (n land 0xff));
          Bytes.blit_string b.Block.buf b.Block.rp prefixed 2 n;
          pass_down slot (Block.make (Bytes.unsafe_to_string prefixed))
        | Block.Ctl | Block.Hangup -> pass_down slot b);
  }

let delim_factory () =
  {
    mi_name = "delim";
    mi_close = ignore;
    mi_uput = (fun slot b -> pass_up slot b);
    mi_dput =
      (fun slot b ->
        (match b.Block.kind with
        | Block.Data -> b.Block.delim <- true
        | Block.Ctl | Block.Hangup -> ());
        pass_down slot b);
  }

let count_factory () =
  let bd = ref 0 and byd = ref 0 and bu = ref 0 and byu = ref 0 in
  let registered = ref false in
  let note slot =
    if not !registered then begin
      registered := true;
      Slot_tbl.replace count_tables slot (bd, byd, bu, byu)
    end
  in
  {
    mi_name = "count";
    mi_close = ignore;
    mi_uput =
      (fun slot b ->
        note slot;
        incr bu;
        byu := !byu + Block.len b;
        pass_up slot b);
    mi_dput =
      (fun slot b ->
        note slot;
        incr bd;
        byd := !byd + Block.len b;
        pass_down slot b);
  }

let register () =
  register_module "frame" frame_factory;
  register_module "delim" delim_factory;
  register_module "count" count_factory

end
