let ones_sum ?(init = 0) s off len =
  let sum = ref init in
  let i = ref off in
  let stop = off + len in
  while !i + 1 < stop do
    sum := !sum + (Char.code s.[!i] lsl 8) + Char.code s.[!i + 1];
    i := !i + 2
  done;
  if !i < stop then sum := !sum + (Char.code s.[!i] lsl 8);
  !sum

let finish sum =
  let s = ref sum in
  while !s lsr 16 <> 0 do
    s := (!s land 0xffff) + (!s lsr 16)
  done;
  lnot !s land 0xffff

let checksum s = finish (ones_sum s 0 (String.length s))

let valid_sub s off len =
  let folded =
    let v = ref (ones_sum s off len) in
    while !v lsr 16 <> 0 do
      v := (!v land 0xffff) + (!v lsr 16)
    done;
    !v
  in
  folded = 0xffff

let valid s = valid_sub s 0 (String.length s)
