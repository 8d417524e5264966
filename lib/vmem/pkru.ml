type t = int

let ad key = 1 lsl (2 * key)
let wd key = 1 lsl ((2 * key) + 1)
let all_access = 0

let allow t ~key = t land lnot (ad key lor wd key)
let allow_read t ~key = t land lnot (ad key) lor wd key
let deny t ~key = t lor ad key
let can_read t ~key = t land ad key = 0
let can_write t ~key = t land (ad key lor wd key) = 0

let pp ppf t =
  for key = 0 to 15 do
    let c =
      if not (can_read t ~key) then '-'
      else if can_write t ~key then 'w'
      else 'r'
    in
    Format.fprintf ppf "%c" c
  done
