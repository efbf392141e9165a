(* ---- rendering: one line per frame, parsed from the wire bytes ---- *)

let get16 s off = (Char.code s.[off] lsl 8) lor Char.code s.[off + 1]
let get32 s off = (get16 s off lsl 16) lor get16 s (off + 2)

let ipstr s off =
  Printf.sprintf "%d.%d.%d.%d" (Char.code s.[off])
    (Char.code s.[off + 1])
    (Char.code s.[off + 2])
    (Char.code s.[off + 3])

let eastr s off =
  String.concat ""
    (List.init 6 (fun i -> Printf.sprintf "%02x" (Char.code s.[off + i])))

let il_type = function
  | 0 -> "sync"
  | 1 -> "data"
  | 2 -> "dataquery"
  | 3 -> "ack"
  | 4 -> "query"
  | 5 -> "state"
  | 6 -> "close"
  | 7 -> "reset"
  | n -> Printf.sprintf "type%d" n

let tcp_flags f =
  let names =
    [ (1, "fin"); (2, "syn"); (4, "rst"); (8, "psh"); (16, "ack") ]
  in
  match List.filter_map (fun (b, n) -> if f land b <> 0 then Some n else None) names with
  | [] -> "none"
  | fs -> String.concat "+" fs

(* a transport payload that is exactly one 9P message is labelled with
   it; anything else, look-alikes included, is left as it is *)
let with_ninep base payload =
  match Ninep.Fcall.decode_opt payload with
  | Ok m -> base ^ " 9p(" ^ Ninep.Fcall.to_string m ^ ")"
  | Error _ -> base

let render_arp p =
  if String.length p < 28 then "arp runt"
  else
    let op = get16 p 6 in
    let spa = ipstr p 14 and tpa = ipstr p 24 in
    match op with
    | 1 -> Printf.sprintf "arp who-has %s tell %s" tpa spa
    | 2 -> Printf.sprintf "arp %s is-at %s" spa (eastr p 8)
    | n -> Printf.sprintf "arp op%d %s > %s" n spa tpa

let render_il p =
  if String.length p < 18 then "il runt"
  else
    let base =
      Printf.sprintf "il %s %d>%d id %d ack %d len %d"
        (il_type (Char.code p.[4]))
        (get16 p 6) (get16 p 8) (get32 p 10) (get32 p 14)
        (String.length p - 18)
    in
    let ty = Char.code p.[4] in
    if (ty = 1 || ty = 2) && String.length p > 18 then
      with_ninep base (String.sub p 18 (String.length p - 18))
    else base

let render_udp p =
  if String.length p < 8 then "udp runt"
  else
    Printf.sprintf "udp %d>%d len %d" (get16 p 0) (get16 p 2)
      (String.length p - 8)

let render_tcp p =
  if String.length p < 20 then "tcp runt"
  else
    let off = ((get16 p 12) lsr 12) * 4 in
    let base =
      Printf.sprintf "tcp %s %d>%d seq %d ack %d len %d"
        (tcp_flags (get16 p 12 land 0x3f))
        (get16 p 0) (get16 p 2) (get32 p 4) (get32 p 8)
        (max 0 (String.length p - off))
    in
    if off >= 20 && String.length p > off then
      with_ninep base (String.sub p off (String.length p - off))
    else base

(* the inner rendering of a well-formed 20-byte IP header's payload *)
let ip_payload p =
  let proto = Char.code p.[9] in
  let frag_off = (get16 p 6 land 0x1fff) * 8 in
  let body = String.sub p 20 (String.length p - 20) in
  if frag_off > 0 then
    Printf.sprintf "frag off %d proto %d len %d" frag_off proto
      (String.length body)
  else
    match proto with
    | 40 -> render_il body
    | 17 -> render_udp body
    | 6 -> render_tcp body
    | n -> Printf.sprintf "proto %d len %d" n (String.length body)

let render_ip p =
  if String.length p < 20 || Char.code p.[0] <> 0x45 then "ip runt"
  else
    Printf.sprintf "ip(%s > %s) %s" (ipstr p 12) (ipstr p 16) (ip_payload p)

let render_frame ~time ~src ~dst ~etype payload =
  let body =
    match etype with
    | 0x0806 -> render_arp payload
    | 0x0800 -> render_ip payload
    | n -> Printf.sprintf "type %d len %d" n (String.length payload)
  in
  Printf.sprintf "%.6f ether(%s > %s) %s" time src dst body

(* ---- the tap ---- *)

type t = {
  eng : Sim.Engine.t;
  nic : Netsim.Ether.nic;
  buf : Buffer.t;
  mutable nframes : int;
  by_proto : (string, int) Hashtbl.t;
  mutable running : bool;
}

(* the tap's station address, chosen to collide with nothing a host
   would use *)
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
        let proto = Netsim.Ether.frame_proto ~etype:fr.etype fr.payload in
        Hashtbl.replace t.by_proto proto
          (1 + Option.value ~default:0 (Hashtbl.find_opt t.by_proto proto));
        Buffer.add_string t.buf
          (render_frame
             ~time:(Sim.Engine.now eng)
             ~src:(Netsim.Ether.text nic fr.src)
             ~dst:(Netsim.Ether.text nic fr.dst)
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
