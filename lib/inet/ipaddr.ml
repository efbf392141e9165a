type t = int

let of_int i = i land 0xffffffff
let compare = Int.compare
let equal = Int.equal

let of_string_opt s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
    let byte x =
      match int_of_string_opt x with
      | Some v when v >= 0 && v <= 255 -> Some v
      | Some _ | None -> None
    in
    match (byte a, byte b, byte c, byte d) with
    | Some a, Some b, Some c, Some d ->
      Some ((a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d)
    | _, _, _, _ -> None)
  | _ -> None

let of_string s =
  match of_string_opt s with
  | Some t -> t
  | None -> invalid_arg ("Ipaddr.of_string: " ^ s)

let to_string t =
  Printf.sprintf "%d.%d.%d.%d" (t lsr 24) ((t lsr 16) land 0xff)
    ((t lsr 8) land 0xff) (t land 0xff)

let any = 0
let broadcast = 0xffffffff
let logand = ( land )
let in_subnet t ~net ~mask = t land mask = net land mask

let class_mask t =
  let top = t lsr 24 in
  if top < 128 then 0xff000000 else if top < 192 then 0xffff0000 else 0xffffff00

let masklen m =
  let rec pop n v = if v = 0 then n else pop (n + (v land 1)) (v lsr 1) in
  pop 0 m
