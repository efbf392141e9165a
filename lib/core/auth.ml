exception Auth_error of string

(* a 64-bit keyed FNV-1a variant as 16 hex digits: two passes with the
   key mixed in front and behind.  Not cryptographically secure; a
   placeholder for the era's DES — documented. *)
let keyed_hash ~key data =
  let fnv s h0 =
    let h = ref h0 in
    String.iter
      (fun c ->
        h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c)))
               0x100000001b3L)
      s;
    !h
  in
  let h1 = fnv (key ^ "\x01" ^ data) 0xcbf29ce484222325L in
  let h2 = fnv (data ^ "\x02" ^ key) h1 in
  Printf.sprintf "%016Lx" h2

let make_ticket ~authkey ~user ~challenge =
  keyed_hash ~key:authkey (user ^ "\x00" ^ challenge)

let validate ~authkey ~user ~challenge ~ticket =
  ticket <> "" && String.equal (make_ticket ~authkey ~user ~challenge) ticket

(* ---- the rexauth service ---- *)

let words s =
  String.split_on_char ' ' (String.trim s) |> List.filter (fun w -> w <> "")

let serve host ~users ~authkey =
  let protos =
    List.concat
      [
        (match host.Host.il with Some _ -> [ "il" ] | None -> []);
        (match host.Host.dkline with Some _ -> [ "dk" ] | None -> []);
      ]
  in
  List.iter
    (fun proto ->
      ignore
        (Listener.start host.Host.eng host.Host.env
           ~addr:(Printf.sprintf "%s!*!rexauth" proto)
           ~handler:(fun env _conn ~data_fd ->
             let request = Vfs.Env.read env data_fd 8192 in
             let reply =
               match words request with
               | [ "ticket"; user; challenge; mac ] -> (
                 match List.assoc_opt user users with
                 | Some secret
                   when String.equal
                          (keyed_hash ~key:secret (user ^ challenge))
                          mac ->
                   "ok " ^ make_ticket ~authkey ~user ~challenge
                 | Some _ -> "no bad credentials"
                 | None -> "no unknown user")
               | _ -> "no malformed request"
             in
             ignore (Vfs.Env.write env data_fd reply))))
    protos

let get_ticket env ~user ~secret ~challenge =
  let conn =
    try Dial.dial env "net!$auth!rexauth"
    with Dial.Dial_error e -> raise (Auth_error e)
  in
  Fun.protect
    ~finally:(fun () -> Dial.hangup env conn)
    (fun () ->
      let mac = keyed_hash ~key:secret (user ^ challenge) in
      ignore
        (Vfs.Env.write env conn.Dial.data_fd
           (Printf.sprintf "ticket %s %s %s" user challenge mac));
      match words (Vfs.Env.read env conn.Dial.data_fd 8192) with
      | [ "ok"; ticket ] -> ticket
      | "no" :: reason -> raise (Auth_error (String.concat " " reason))
      | _ -> raise (Auth_error "auth server hung up"))

(* ---- 9P integration ---- *)

let server_hook ~authkey ~uname ~challenge ~ticket =
  validate ~authkey ~user:uname ~challenge ~ticket

let client_attach env client ~user ~secret ~aname =
  let challenge =
    match Ninep.Client.rpc client (Ninep.Fcall.Tsession { chal = "" }) with
    | Ninep.Fcall.Rsession { chal } -> chal
    | _ -> raise (Auth_error "bad session reply")
  in
  let ticket = get_ticket env ~user ~secret ~challenge in
  (match
     Ninep.Client.rpc client (Ninep.Fcall.Tauth { afid = 0; uname = user; ticket })
   with
  | Ninep.Fcall.Rauth _ -> ()
  | _ -> raise (Auth_error "bad auth reply")
  | exception Ninep.Client.Err e -> raise (Auth_error e));
  Ninep.Client.attach client ~uname:user ~aname
