(* the sum of the big-endian 16-bit words, read 64 bits at a time and
   added as four halves, so the unfolded sum is exactly the
   word-by-word one *)
let ones_sum ?(init = 0) s off len =
  let sum = ref init in
  let i = ref off in
  let stop = off + len in
  while !i + 7 < stop do
    let w = String.get_int64_be s !i in
    let hi = Int64.to_int (Int64.shift_right_logical w 32) in
    let lo = Int64.to_int w land 0xffff_ffff in
    sum := !sum + (hi lsr 16) + (hi land 0xffff) + (lo lsr 16) + (lo land 0xffff);
    i := !i + 8
  done;
  while !i + 1 < stop do
    sum := !sum + String.get_uint16_be s !i;
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
