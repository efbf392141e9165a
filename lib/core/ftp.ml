(* ------------------------------------------------------------------ *)
(* line-oriented IO over a byte-stream descriptor                      *)
(* ------------------------------------------------------------------ *)

type lineio = {
  lio_env : Vfs.Env.t;
  lio_fd : Vfs.Env.fd;
  mutable lio_buf : string;
}

let lineio env fd = { lio_env = env; lio_fd = fd; lio_buf = "" }

let rec read_line lio =
  match String.index_opt lio.lio_buf '\n' with
  | Some i ->
    let line = String.sub lio.lio_buf 0 i in
    lio.lio_buf <-
      String.sub lio.lio_buf (i + 1) (String.length lio.lio_buf - i - 1);
    Some line
  | None -> (
    match Vfs.Env.read lio.lio_env lio.lio_fd 4096 with
    | "" -> None
    | chunk ->
      lio.lio_buf <- lio.lio_buf ^ chunk;
      read_line lio)

let rec read_exactly lio n =
  if String.length lio.lio_buf >= n then begin
    let data = String.sub lio.lio_buf 0 n in
    lio.lio_buf <- String.sub lio.lio_buf n (String.length lio.lio_buf - n);
    Some data
  end
  else
    match Vfs.Env.read lio.lio_env lio.lio_fd 8192 with
    | "" -> None
    | chunk ->
      lio.lio_buf <- lio.lio_buf ^ chunk;
      read_exactly lio n

let send lio s = ignore (Vfs.Env.write lio.lio_env lio.lio_fd s)
let send_line lio s = send lio (s ^ "\n")

(* ------------------------------------------------------------------ *)
(* the server                                                          *)
(* ------------------------------------------------------------------ *)

let words s =
  String.split_on_char ' ' (String.trim s) |> List.filter (fun w -> w <> "")

let listing_of env path =
  let entries = Vfs.Env.ls env path in
  String.concat ""
    (List.map
       (fun d ->
         if Int32.logand d.Ninep.Fcall.d_mode Ninep.Fcall.dmdir <> 0l then
           Printf.sprintf "d 0 %s\n" d.Ninep.Fcall.d_name
         else
           Printf.sprintf "f %Ld %s\n" d.Ninep.Fcall.d_length
             d.Ninep.Fcall.d_name)
       entries)

let serve_session env lio =
  send_line lio "220 plan9net ftp ready";
  let logged_in = ref false in
  let cwd = ref "/" in
  let resolve arg =
    if arg = "" then !cwd
    else if arg.[0] = '/' then arg
    else if !cwd = "/" then "/" ^ arg
    else !cwd ^ "/" ^ arg
  in
  let rec loop () =
    match read_line lio with
    | None -> ()
    | Some line ->
      let continue_ = ref true in
      (match words line with
      | [ "USER"; _ ] -> send_line lio "331 password please"
      | [ "PASS"; _ ] ->
        logged_in := true;
        send_line lio "230 logged in"
      | "TYPE" :: _ -> send_line lio "200 type set"
      | _ when not !logged_in -> send_line lio "530 not logged in"
      | [ "PWD" ] -> send_line lio (Printf.sprintf "257 \"%s\"" !cwd)
      | [ "CWD"; dir ] -> (
        let path = resolve dir in
        match Vfs.Env.stat env path with
        | d when Int32.logand d.Ninep.Fcall.d_mode Ninep.Fcall.dmdir <> 0l ->
          cwd := path;
          send_line lio "250 ok"
        | _ -> send_line lio "550 not a directory"
        | exception Vfs.Chan.Error e -> send_line lio ("550 " ^ e))
      | "LIST" :: rest -> (
        let path = resolve (String.concat " " rest) in
        match listing_of env path with
        | data ->
          send_line lio (Printf.sprintf "150 %d" (String.length data));
          send lio data
        | exception Vfs.Chan.Error e -> send_line lio ("550 " ^ e))
      | [ "RETR"; file ] -> (
        match Vfs.Env.read_file env (resolve file) with
        | data ->
          send_line lio (Printf.sprintf "150 %d" (String.length data));
          send lio data
        | exception Vfs.Chan.Error e -> send_line lio ("550 " ^ e))
      | [ "STOR"; len; file ] -> (
        match int_of_string_opt len with
        | None -> send_line lio "501 bad length"
        | Some n -> (
          send_line lio "150 send it";
          match read_exactly lio n with
          | None -> continue_ := false
          | Some data -> (
            match Vfs.Env.write_file env (resolve file) data with
            | () -> send_line lio "226 stored"
            | exception Vfs.Chan.Error e -> send_line lio ("550 " ^ e))))
      | [ "DELE"; file ] -> (
        match Vfs.Env.remove env (resolve file) with
        | () -> send_line lio "250 deleted"
        | exception Vfs.Chan.Error e -> send_line lio ("550 " ^ e))
      | [ "QUIT" ] ->
        send_line lio "221 bye";
        continue_ := false
      | _ -> send_line lio "502 not implemented");
      if !continue_ then loop ()
  in
  loop ()

let serve host =
  ignore
    (Listener.start host.Host.eng host.Host.env ~addr:"tcp!*!ftp"
       ~handler:(fun env _conn ~data_fd ->
         serve_session env (lineio env data_fd)))

(* ------------------------------------------------------------------ *)
(* the ftpfs client                                                    *)
(* ------------------------------------------------------------------ *)

type counters = {
  mutable ftp_commands : int;
  mutable cache_hits : int;
}

type entry = { e_name : string; e_dir : bool; e_size : int }

type session = {
  lio : lineio;
  stats : counters;
  dirs : (string, entry list) Hashtbl.t;  (* path -> cached listing *)
  files : (string, string) Hashtbl.t;  (* path -> cached contents *)
}

exception Ftp_error of string

let expect_code lio codes =
  match read_line lio with
  | None -> raise (Ftp_error "connection closed")
  | Some line ->
    let code = try String.sub line 0 3 with Invalid_argument _ -> "" in
    if List.mem code codes then line
    else raise (Ftp_error line)

let command s fmt =
  Printf.ksprintf
    (fun cmd ->
      s.stats.ftp_commands <- s.stats.ftp_commands + 1;
      send_line s.lio cmd)
    fmt

let fetch_payload s =
  let reply = expect_code s.lio [ "150" ] in
  match words reply with
  | [ _; len ] -> (
    match
      Option.bind (int_of_string_opt len) (fun n -> read_exactly s.lio n)
    with
    | Some data -> data
    | None -> raise (Ftp_error "short transfer"))
  | _ -> raise (Ftp_error reply)

let path_string comps = "/" ^ String.concat "/" comps

let dir_listing s comps =
  let key = path_string comps in
  match Hashtbl.find_opt s.dirs key with
  | Some l ->
    s.stats.cache_hits <- s.stats.cache_hits + 1;
    l
  | None ->
    command s "LIST %s" key;
    let raw = fetch_payload s in
    let entries =
      String.split_on_char '\n' raw
      |> List.filter_map (fun line ->
             match words line with
             | [ "d"; _; name ] -> Some { e_name = name; e_dir = true; e_size = 0 }
             | [ "f"; size; name ] ->
               Some
                 {
                   e_name = name;
                   e_dir = false;
                   e_size = Option.value ~default:0 (int_of_string_opt size);
                 }
             | _ -> None)
    in
    Hashtbl.replace s.dirs key entries;
    entries

let file_contents s comps =
  let key = path_string comps in
  match Hashtbl.find_opt s.files key with
  | Some data ->
    s.stats.cache_hits <- s.stats.cache_hits + 1;
    data
  | None ->
    command s "RETR %s" key;
    let data = fetch_payload s in
    Hashtbl.replace s.files key data;
    data

let store s comps data =
  let key = path_string comps in
  command s "STOR %d %s" (String.length data) key;
  ignore (expect_code s.lio [ "150" ]);
  send s.lio data;
  ignore (expect_code s.lio [ "226" ]);
  (* "The cache is updated whenever a file is created" *)
  Hashtbl.replace s.files key data;
  (match List.rev comps with
  | _ :: rev_dir -> Hashtbl.remove s.dirs (path_string (List.rev rev_dir))
  | [] -> ())

(* fid state *)
type node = {
  s : session;
  mutable comps : string list;  (* path from the remote root *)
  mutable dir : bool;
  mutable opened : bool;
  mutable wbuf : Buffer.t option;  (* write-behind; flushed on clunk *)
}

let qid_of n =
  let h = Hashtbl.hash (path_string n.comps) land 0xffffff in
  {
    Ninep.Fcall.qpath = (if n.dir then Ninep.Fcall.qdir_bit lor h else h);
    qvers = 0;
  }

let stat_of n =
  let name = match List.rev n.comps with x :: _ -> x | [] -> "/" in
  let size =
    if n.dir then 0
    else
      match Hashtbl.find_opt n.s.files (path_string n.comps) with
      | Some d -> String.length d
      | None -> (
        match List.rev n.comps with
        | leaf :: rev_dir -> (
          let parent = List.rev rev_dir in
          match
            List.find_opt (fun e -> e.e_name = leaf) (dir_listing n.s parent)
          with
          | Some e -> e.e_size
          | None -> 0)
        | [] -> 0)
  in
  {
    Ninep.Fcall.d_name = name;
    d_uid = "ftp";
    d_gid = "ftp";
    d_qid = qid_of n;
    d_mode =
      (if n.dir then Int32.logor Ninep.Fcall.dmdir 0o775l else 0o664l);
    d_atime = 0l;
    d_mtime = 0l;
    d_length = Int64.of_int size;
    d_type = Char.code 'F';
    d_dev = 0;
  }

let wrap f = try Ok (f ()) with Ftp_error e -> Error e

let ftpfs session =
  let rec fs = {
    Ninep.Server.fs_name = "ftpfs";
    fs_attach =
      (fun ~uname:_ ~aname:_ ->
        Ok { s = session; comps = []; dir = true; opened = false; wbuf = None });
    fs_qid = qid_of;
    fs_walk =
      (fun n name ->
        if not n.dir then Error "not a directory"
        else if name = ".." then begin
          (match List.rev n.comps with
          | _ :: rev -> n.comps <- List.rev rev
          | [] -> ());
          Ok n
        end
        else
          match wrap (fun () -> dir_listing n.s n.comps) with
          | Error e -> Error e
          | Ok entries -> (
            match List.find_opt (fun e -> e.e_name = name) entries with
            | Some e ->
              n.comps <- n.comps @ [ name ];
              n.dir <- e.e_dir;
              Ok n
            | None -> Error "file does not exist"));
    fs_open =
      (fun n mode ~trunc ->
        n.opened <- true;
        (match (mode, n.dir) with
        | (Ninep.Fcall.Owrite | Ninep.Fcall.Ordwr), false ->
          let b = Buffer.create 256 in
          if not trunc then (
            match wrap (fun () -> file_contents n.s n.comps) with
            | Ok data -> Buffer.add_string b data
            | Error _ -> ());
          n.wbuf <- Some b
        | _, _ -> ());
        Ok ());
    fs_read =
      (fun n ~offset ~count ->
        if not n.opened then Error "not open"
        else if n.dir then
          match wrap (fun () -> dir_listing n.s n.comps) with
          | Error e -> Error e
          | Ok entries ->
            let stats =
              List.map
                (fun e ->
                  stat_of
                    {
                      s = n.s;
                      comps = n.comps @ [ e.e_name ];
                      dir = e.e_dir;
                      opened = false;
                      wbuf = None;
                    })
                entries
            in
            Ok (Ninep.Server.dir_data stats ~offset ~count)
        else
          match wrap (fun () -> file_contents n.s n.comps) with
          | Ok data -> Ok (Ninep.Server.slice data ~offset ~count)
          | Error e -> Error e);
    fs_write =
      (fun n ~offset ~data ->
        if not n.opened then Error "not open"
        else
          match n.wbuf with
          | None -> Error "not open for writing"
          | Some b ->
            let off = Int64.to_int offset in
            let cur = Buffer.contents b in
            let curlen = String.length cur in
            if off > curlen then Error "write past end of file"
            else begin
              Buffer.clear b;
              Buffer.add_string b (String.sub cur 0 off);
              Buffer.add_string b data;
              let tail = off + String.length data in
              if tail < curlen then
                Buffer.add_string b (String.sub cur tail (curlen - tail));
              Ok (String.length data)
            end);
    fs_create =
      (fun n ~name ~perm mode ->
        ignore perm;
        ignore mode;
        if not n.dir then Error "not a directory"
        else begin
          n.comps <- n.comps @ [ name ];
          n.dir <- false;
          n.opened <- true;
          n.wbuf <- Some (Buffer.create 256);
          Ok n
        end);
    fs_remove =
      (fun n ->
        wrap (fun () ->
            command n.s "DELE %s" (path_string n.comps);
            ignore (expect_code n.s.lio [ "250" ]);
            Hashtbl.remove n.s.files (path_string n.comps);
            match List.rev n.comps with
            | _ :: rev_dir ->
              Hashtbl.remove n.s.dirs (path_string (List.rev rev_dir))
            | [] -> ()));
    fs_stat = (fun n -> wrap (fun () -> stat_of n));
    fs_wstat = (fun _ _ -> Error "permission denied");
    fs_clunk =
      (fun n ->
        match n.wbuf with
        | Some b -> (
          n.wbuf <- None;
          try store n.s n.comps (Buffer.contents b) with Ftp_error _ -> ())
        | None -> ());
    fs_clone =
      (fun n ->
        Ok { n with opened = false; wbuf = None });
    fs_clwalk = (fun n name -> Ninep.Server.clone_walk fs n name);
  } in
  fs

type mountpoint = { mp_session : session; mp_ctl : Vfs.Env.fd }

let counters mp = mp.mp_session.stats

let mount env ~host ?(user = "anonymous") ?(password = "none") ~onto () =
  let conn = Dial.dial env (Printf.sprintf "tcp!%s!ftp" host) in
  let lio = lineio env conn.Dial.data_fd in
  let session =
    {
      lio;
      stats = { ftp_commands = 0; cache_hits = 0 };
      dirs = Hashtbl.create 17;
      files = Hashtbl.create 17;
    }
  in
  ignore (expect_code lio [ "220" ]);
  command session "USER %s" user;
  ignore (expect_code lio [ "331"; "230" ]);
  command session "PASS %s" password;
  ignore (expect_code lio [ "230" ]);
  command session "TYPE I";
  ignore (expect_code lio [ "200" ]);
  Vfs.Env.mount_fs env (ftpfs session) ~onto Vfs.Ns.Repl;
  { mp_session = session; mp_ctl = conn.Dial.ctl_fd }

let unmount ~t mp =
  (try
     command mp.mp_session "QUIT";
     ignore (expect_code mp.mp_session.lio [ "221" ])
   with Ftp_error _ -> ());
  Vfs.Env.close t mp.mp_session.lio.lio_fd;
  Vfs.Env.close t mp.mp_ctl
