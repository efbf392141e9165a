type 'c file = {
  name : string;
  perm : int32;
  open_ : 'c node -> (unit, string) result;
  read : 'c node -> offset:int64 -> count:int -> (string, string) result;
  write : 'c node -> string -> (int, string) result;
  clunk : 'c node -> unit;
}

and 'c convs = {
  conv_files : 'c file array;
  number : 'c -> int;
  find : int -> 'c option;
  listing : unit -> 'c list;
  hold : 'c -> unit;
  release : 'c -> unit;
}

and 'c t = {
  fs_name : string;
  owner : string;
  letter : char;
  root : string;
  notdir : string;
  top : 'c file array;
  convs : 'c convs;
}

and 'c node = {
  tab : 'c t;
  mutable conv : 'c option;  (* Some c: at or below c's directory *)
  mutable file : int;  (* index into the directory's files; -1: the directory *)
  mutable opened : bool;
  mutable reply : string;  (* per-open state: a service's reply *)
}

let file =
  {
    name = "";
    perm = 0o666l;
    open_ = (fun _ -> Ok ());
    read = (fun _ ~offset:_ ~count:_ -> Ok "");
    write = (fun _ _ -> Error Server.read_only_err);
    clunk = (fun _ -> ());
  }

let nofile = "file does not exist"

let table =
  { fs_name = ""; owner = ""; letter = ' '; root = "."; notdir = nofile; top = [||];
    convs = { conv_files = [||]; number = (fun _ -> 0); find = (fun _ -> None);
              listing = (fun () -> []); hold = ignore; release = ignore } }

let qid ~dir path =
  {
    Fcall.qpath = (if dir then Fcall.qdir_bit lor path else path);
    qvers = 0;
  }

let dir_mode = Int32.logor Fcall.dmdir 0o555l

let stat tab name q mode =
  {
    Fcall.d_name = name;
    d_uid = tab.owner;
    d_gid = tab.owner;
    d_qid = q;
    d_mode = mode;
    d_atime = 0l;
    d_mtime = 0l;
    d_length = 0L;
    d_type = Char.code tab.letter;
    d_dev = 0;
  }

(* the root's and the first top-level files' qids, shared by every
   device *)
let root_qid = qid ~dir:true 1
let top_qids = Array.init 8 (fun k -> qid ~dir:false (k + 2))

(* the entry [k] of a directory (-1: the directory itself) *)
let qid_at tab conv k =
  match conv with
  | None ->
    if k < 0 then root_qid
    else if k < Array.length top_qids then top_qids.(k)
    else qid ~dir:false (k + 2)
  | Some c ->
    (* conversation N's qids start at 0x100 * (N + 1) *)
    let base = 0x100 * (tab.convs.number c + 1) in
    if k < 0 then qid ~dir:true base else qid ~dir:false (base + 1 + k)

let stat_at tab conv k =
  let q = qid_at tab conv k in
  match conv with
  | None when k < 0 -> stat tab tab.root q dir_mode
  | None -> stat tab tab.top.(k).name q tab.top.(k).perm
  | Some c when k < 0 -> stat tab (string_of_int (tab.convs.number c)) q dir_mode
  | Some _ -> stat tab tab.convs.conv_files.(k).name q tab.convs.conv_files.(k).perm

let listing n =
  let tab = n.tab in
  match n.conv with
  | None ->
    List.init (Array.length tab.top) (stat_at tab None)
    @ List.map (fun c -> stat_at tab (Some c) (-1)) (tab.convs.listing ())
  | Some _ -> List.init (Array.length tab.convs.conv_files) (stat_at tab n.conv)

let files n = match n.conv with None -> n.tab.top | Some _ -> n.tab.convs.conv_files

let index files name =
  let rec go k =
    if k = Array.length files then -1
    else if files.(k).name = name then k
    else go (k + 1)
  in
  go 0

(* [..] leads from a file to its directory and from a directory to the
   root; names are looked up among the directory's files, then (at the
   root) among the conversation numbers *)
let walk n name =
  if name = ".." then begin
    if n.file >= 0 then n.file <- -1 else n.conv <- None;
    Ok n
  end
  else if n.file >= 0 then Error n.tab.notdir
  else
    match index (files n) name with
    | k when k >= 0 ->
      n.file <- k;
      Ok n
    | _ when Option.is_some n.conv -> Error nofile
    | _ -> (
      match Option.bind (int_of_string_opt name) n.tab.convs.find with
      | Some c ->
        n.conv <- Some c;
        Ok n
      | None -> Error nofile)

let conv n =
  match n.conv with Some c -> c | None -> invalid_arg "Devtab.conv"

let redirect n c name =
  n.conv <- Some c;
  n.file <- index n.tab.convs.conv_files name;
  Ok ()

let fs tab =
  let rec fs = {
    Server.fs_name = tab.fs_name;
    fs_attach =
      (fun ~uname:_ ~aname:_ ->
        Ok { tab; conv = None; file = -1; opened = false; reply = "" });
    fs_qid = (fun n -> qid_at n.tab n.conv n.file);
    fs_walk = walk;
    fs_open =
      (fun n _mode ~trunc:_ ->
        match if n.file < 0 then Ok () else (files n).(n.file).open_ n with
        | Ok () ->
          n.opened <- true;
          if n.file >= 0 then Option.iter n.tab.convs.hold n.conv;
          Ok ()
        | Error e -> Error e);
    fs_read =
      (fun n ~offset ~count ->
        if not n.opened then Error "not open"
        else if n.file < 0 then Ok (Server.dir_data (listing n) ~offset ~count)
        else (files n).(n.file).read n ~offset ~count);
    fs_write =
      (fun n ~offset:_ ~data ->
        if not n.opened then Error "not open"
        else if n.file < 0 then Error Server.read_only_err
        else (files n).(n.file).write n data);
    fs_create = (fun _ ~name:_ ~perm:_ _ -> Error Server.read_only_err);
    fs_remove = (fun _ -> Error Server.read_only_err);
    fs_stat = (fun n -> Ok (stat_at n.tab n.conv n.file));
    fs_wstat = (fun _ _ -> Error Server.read_only_err);
    fs_clunk =
      (fun n ->
        if n.opened then begin
          n.opened <- false;
          if n.file >= 0 then begin
            (files n).(n.file).clunk n;
            Option.iter n.tab.convs.release n.conv
          end
        end);
    fs_clone = (fun n -> Ok { n with opened = false });
    fs_clwalk = (fun n name -> Server.clone_walk fs n name);
  } in
  fs

let service ~name ~file:fname ~show handle =
  fs
    {
      table with
      fs_name = name;
      owner = name;
      letter = 's';
      top =
        [|
          {
            file with
            name = fname;
            read =
              (fun n ~offset ~count ->
                if n.reply = "" && offset = 0L then n.reply <- show ();
                Ok (Server.slice n.reply ~offset ~count));
            write =
              (fun n data ->
                match handle (String.trim data) with
                | Ok reply ->
                  n.reply <- reply;
                  Ok (String.length data)
                | Error e -> Error e);
          };
        |];
    }
