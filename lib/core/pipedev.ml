type node = unit Ninep.Devtab.node

(* one end: reads and writes go to its own stream, and closing the fid
   closes the stream *)
let end_ name s =
  {
    Ninep.Devtab.file with
    name;
    read = (fun _ ~offset:_ ~count -> Ok (Streams.read s count));
    write =
      (fun _ data ->
        if Streams.closed s then Error "write on closed pipe"
        else begin
          Streams.write s data;
          Ok (String.length data)
        end);
    clunk = (fun _ -> Streams.close s);
  }

let table =
  { Ninep.Devtab.table with fs_name = "pipe"; owner = "pipe"; letter = '|' }

let fs eng =
  {
    (Ninep.Devtab.fs table) with
    (* every attach is a fresh pipe, like #| *)
    Ninep.Server.fs_attach =
      (fun ~uname ~aname ->
        let s0, s1 = Streams.Pipe.create eng in
        let pipe = { table with top = [| end_ "data" s0; end_ "data1" s1 |] } in
        (Ninep.Devtab.fs pipe).fs_attach ~uname ~aname);
  }

let pipe eng env =
  let ops = fs eng in
  let root =
    Vfs.Chan.attach ~devid:(Vfs.Ns.fresh_devid (Vfs.Env.ns env)) ops
      ~uname:(Vfs.Env.uname env) ~aname:""
  in
  let end_of name =
    match Vfs.Chan.walk1 root name with
    | Ok c ->
      Vfs.Chan.open_ c Ninep.Fcall.Ordwr;
      Vfs.Env.install_chan env c ~path:("/dev/pipe/" ^ name)
    | Error e -> raise (Vfs.Chan.Error e)
  in
  let fd0 = end_of "data" in
  let fd1 = end_of "data1" in
  (fd0, fd1)
