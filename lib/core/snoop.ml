type t = {
  eng : Sim.Engine.t;
  nic : Netsim.Ether.nic;
  buf : Buffer.t;
  mutable nframes : int;
  by_proto : (string, int) Hashtbl.t;
  mutable running : bool;
}

let default_addr = "feeddefaced0"

let start ?(addr = default_addr) seg =
  let eng = Netsim.Ether.engine seg in
  let nic = Netsim.Ether.attach seg (Netsim.Eaddr.of_string addr) in
  Netsim.Ether.set_promiscuous nic true;
  let t =
    {
      eng;
      nic;
      buf = Buffer.create 1024;
      nframes = 0;
      by_proto = Hashtbl.create 7;
      running = true;
    }
  in
  Netsim.Ether.set_rx nic (fun (fr : Netsim.Ether.frame) ->
      if t.running then begin
        t.nframes <- t.nframes + 1;
        let proto = Obs.Snoopy.frame_proto ~etype:fr.etype fr.payload in
        Hashtbl.replace t.by_proto proto
          (1 + Option.value ~default:0 (Hashtbl.find_opt t.by_proto proto));
        Buffer.add_string t.buf
          (Obs.Snoopy.render_frame
             ~time:(Sim.Engine.now eng)
             ~src:(Netsim.Eaddr.to_string fr.src)
             ~dst:(Netsim.Eaddr.to_string fr.dst)
             ~etype:fr.etype fr.payload);
        Buffer.add_char t.buf '\n'
      end);
  t

let stop t = t.running <- false
let resume t = t.running <- true
let dump t = Buffer.contents t.buf
let clear t = Buffer.clear t.buf
let frames t = t.nframes

let proto_counts t =
  Hashtbl.fold (fun p n acc -> (p, n) :: acc) t.by_proto []
  |> List.sort compare

let summary t =
  String.concat ""
    (List.map
       (fun (p, n) -> Printf.sprintf "%s %d\n" p n)
       (proto_counts t))

(* /net/snoop: read the capture so far; "clear" resets it, "stop" and
   "start" gate it, "stats" answers with per-protocol frame counts. *)
let mount env t =
  Netinfo.mount_service env ~name:"snoop" ~file:"snoop"
    ~show:(fun () -> dump t)
    (fun req ->
      match String.trim req with
      | "" -> Ok (dump t)
      | "clear" ->
        clear t;
        Ok ""
      | "stop" ->
        stop t;
        Ok ""
      | "start" ->
        resume t;
        Ok ""
      | "stats" -> Ok (summary t)
      | other -> Error ("snoop: bad request: " ^ other))
