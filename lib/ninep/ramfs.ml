type entry = {
  mutable e_name : string;
  mutable e_qid : Fcall.qid;
  mutable e_mode : int32;  (* includes Fcall.dmdir for directories *)
  mutable e_uid : string;
  mutable e_gid : string;
  mutable e_mtime : int32;
  mutable e_atime : int32;
  e_kind : kind;
  mutable e_parent : entry option;  (* None for the root *)
}

and kind = Dir of entry list ref | File of Buffer.t

type t = { root : entry; owner : string; fsname : string; mutable next_path : int }

(* a fid's state: which entry, and whether it has been opened *)
type node = { mutable n_entry : entry; mutable n_open : bool }


let make ?(owner = "bootes") ~name () =
  let root =
    {
      e_name = "/";
      e_qid = { Fcall.qpath = Fcall.qdir_bit lor 1; qvers = 0 };
      e_mode = Int32.logor Fcall.dmdir 0o775l;
      e_uid = owner;
      e_gid = owner;
      e_mtime = 0l;
      e_atime = 0l;
      e_kind = Dir (ref []);
      e_parent = None;
    }
  in
  { root; owner; fsname = name; next_path = 2 }

let alloc_qid t ~dir =
  let p = t.next_path in
  t.next_path <- p + 1;
  { Fcall.qpath = (if dir then Fcall.qdir_bit lor p else p); qvers = 0 }

(* the version wraps at 32 bits, as it does on the wire *)
let bump e =
  e.e_qid <-
    { e.e_qid with Fcall.qvers = (e.e_qid.Fcall.qvers + 1) land 0xffffffff }

let length_of e =
  match e.e_kind with
  | Dir children -> Int64.of_int (List.length !children * Fcall.dirlen)
  | File b -> Int64.of_int (Buffer.length b)

let stat_of e =
  {
    Fcall.d_name = e.e_name;
    d_uid = e.e_uid;
    d_gid = e.e_gid;
    d_qid = e.e_qid;
    d_mode = e.e_mode;
    d_atime = e.e_atime;
    d_mtime = e.e_mtime;
    d_length = length_of e;
    d_type = Char.code 'r';
    d_dev = 0;
  }

let lookup dir name =
  match dir.e_kind with
  | File _ -> None
  | Dir children -> List.find_opt (fun e -> e.e_name = name) !children

let fs t =
  let rec fs = {
    Server.fs_name = t.fsname;
    fs_attach =
      (fun ~uname ~aname:_ ->
        ignore uname;
        Ok { n_entry = t.root; n_open = false });
    fs_qid = (fun n -> n.n_entry.e_qid);
    fs_walk =
      (fun n name ->
        if n.n_open then Error "fid is open"
        else if name = ".." then
          match n.n_entry.e_parent with
          | Some p ->
            n.n_entry <- p;
            Ok n
          | None -> Ok n (* .. at root is root *)
        else
          match lookup n.n_entry name with
          | Some e ->
            n.n_entry <- e;
            Ok n
          | None -> Error "file does not exist");
    fs_open =
      (fun n mode ~trunc ->
        if n.n_open then Error "already open"
        else begin
          (match (mode, n.n_entry.e_kind) with
          | (Fcall.Owrite | Fcall.Ordwr), Dir _ ->
            Error "is a directory"
          | _, File b when trunc ->
            Buffer.clear b;
            bump n.n_entry;
            Ok ()
          | _, (Dir _ | File _) -> Ok ())
          |> Result.map (fun () -> n.n_open <- true)
        end);
    fs_read =
      (fun n ~offset ~count ->
        if not n.n_open then Error "not open"
        else
          match n.n_entry.e_kind with
          | Dir children ->
            Ok
              (Server.dir_data
                 (List.map stat_of (List.rev !children))
                 ~offset ~count)
          | File b ->
            (* only the requested range leaves the file *)
            let len = Buffer.length b and off = Int64.to_int offset in
            if off >= len || off < 0 then Ok ""
            else Ok (Buffer.sub b off (min count (len - off))));
    fs_write =
      (fun n ~offset ~data ->
        if not n.n_open then Error "not open"
        else
          match n.n_entry.e_kind with
          | Dir _ -> Error "is a directory"
          | File b ->
            let off = Int64.to_int offset in
            let curlen = Buffer.length b in
            if off > curlen then Error "write past end of file"
            else begin
              (* rewrite from [off] on, in place: only bytes past the
                 write's end are carried over, so appends copy nothing *)
              let stop = off + String.length data in
              let tail =
                if stop < curlen then Buffer.sub b stop (curlen - stop) else ""
              in
              Buffer.truncate b off;
              Buffer.add_string b data;
              Buffer.add_string b tail;
              bump n.n_entry;
              Ok (String.length data)
            end);
    fs_create =
      (fun n ~name ~perm mode ->
        ignore mode;
        match n.n_entry.e_kind with
        | File _ -> Error "not a directory"
        | Dir children ->
          if lookup n.n_entry name <> None then Error "file exists"
          else if name = "" || name = "." || name = ".." then
            Error "bad file name"
          else begin
            let dir = Int32.logand perm Fcall.dmdir <> 0l in
            let e =
              {
                e_name = name;
                e_qid = alloc_qid t ~dir;
                e_mode = perm;
                e_uid = t.owner;
                e_gid = t.owner;
                e_mtime = 0l;
                e_atime = 0l;
                e_kind = (if dir then Dir (ref []) else File (Buffer.create 64));
                e_parent = Some n.n_entry;
              }
            in
            children := e :: !children;
            bump n.n_entry;
            Ok { n_entry = e; n_open = true }
          end);
    fs_remove =
      (fun n ->
        let e = n.n_entry in
        match e.e_parent with
        | None -> Error "cannot remove root"
        | Some parent -> (
          match e.e_kind with
          | Dir children when !children <> [] -> Error "directory not empty"
          | Dir _ | File _ -> (
            match parent.e_kind with
            | Dir siblings ->
              siblings := List.filter (fun x -> x != e) !siblings;
              bump parent;
              Ok ()
            | File _ -> Error "bad parent")));
    fs_stat = (fun n -> Ok (stat_of n.n_entry));
    fs_wstat =
      (fun n d ->
        let e = n.n_entry in
        (* rename *)
        if d.Fcall.d_name <> "" && d.Fcall.d_name <> e.e_name then begin
          match e.e_parent with
          | None -> ()
          | Some parent ->
            if lookup parent d.Fcall.d_name <> None then ()
            else e.e_name <- d.Fcall.d_name
        end;
        if d.Fcall.d_mode <> -1l then
          e.e_mode <-
            Int32.logor
              (Int32.logand e.e_mode Fcall.dmdir)
              (Int32.logand d.Fcall.d_mode (Int32.lognot Fcall.dmdir));
        if d.Fcall.d_mtime <> -1l then e.e_mtime <- d.Fcall.d_mtime;
        (* wstat is a modification like any other: cache validators
           keyed on qid.vers must see it *)
        bump e;
        Ok ());
    fs_clunk = (fun _ -> ());
    fs_clone = (fun n -> Ok { n_entry = n.n_entry; n_open = false });
    fs_clwalk = (fun n name -> Server.clone_walk fs n name);
  } in
  fs

(* ---- direct manipulation ---- *)

let split_path p = List.filter (fun s -> s <> "") (String.split_on_char '/' p)

let rec find_entry e = function
  | [] -> Some e
  | name :: rest -> (
    match lookup e name with
    | Some child -> find_entry child rest
    | None -> None)

let mkdir t path =
  let rec go e = function
    | [] -> ()
    | name :: rest ->
      let child =
        match lookup e name with
        | Some c -> c
        | None -> (
          match e.e_kind with
          | File _ -> invalid_arg "Ramfs.mkdir: file in path"
          | Dir children ->
            let c =
              {
                e_name = name;
                e_qid = alloc_qid t ~dir:true;
                e_mode = Int32.logor Fcall.dmdir 0o775l;
                e_uid = t.owner;
                e_gid = t.owner;
                e_mtime = 0l;
                e_atime = 0l;
                e_kind = Dir (ref []);
                e_parent = Some e;
              }
            in
            children := c :: !children;
            c)
      in
      go child rest
  in
  go t.root (split_path path)

let add_file t path contents =
  match List.rev (split_path path) with
  | [] -> invalid_arg "Ramfs.add_file: empty path"
  | name :: rev_dirs ->
    let dirs = List.rev rev_dirs in
    mkdir t (String.concat "/" dirs);
    (match find_entry t.root dirs with
    | Some dir -> (
      match dir.e_kind with
      | File _ -> invalid_arg "Ramfs.add_file: not a directory"
      | Dir children ->
        (match lookup dir name with
        | Some old -> children := List.filter (fun x -> x != old) !children
        | None -> ());
        let b = Buffer.create (String.length contents) in
        Buffer.add_string b contents;
        let e =
          {
            e_name = name;
            e_qid = alloc_qid t ~dir:false;
            e_mode = 0o664l;
            e_uid = t.owner;
            e_gid = t.owner;
            e_mtime = 0l;
            e_atime = 0l;
            e_kind = File b;
            e_parent = Some dir;
          }
        in
        children := e :: !children)
    | None -> invalid_arg "Ramfs.add_file: missing directory")

let read_file t path =
  match find_entry t.root (split_path path) with
  | Some { e_kind = File b; _ } -> Some (Buffer.contents b)
  | Some { e_kind = Dir _; _ } | None -> None

let exists t path = find_entry t.root (split_path path) <> None

let set_vers t path v =
  match find_entry t.root (split_path path) with
  | Some e -> e.e_qid <- { e.e_qid with Fcall.qvers = v land 0xffffffff }
  | None -> invalid_arg "Ramfs.set_vers: no such file"
