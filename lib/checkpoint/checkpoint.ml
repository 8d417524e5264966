module Rewind_log = Rewind_log
module Flight = Flight
module Sched = Simkern.Sched
module Cost = Simkern.Cost
module Space = Vmem.Space

type snap = { image : Space.image; pages : int }

let page_size = 4096

(* Re-populating warm state from upstream (database reload over the
   network) is far slower than a local memcpy: the paper reports ~2
   minutes for 10 GiB, i.e. roughly 24 cycles per byte at 2.1 GHz. *)
let reload_cycles_per_byte = 24.0

(* Process re-exec and initialization until it accepts connections; the
   paper measures ~0.4 s to restart the Memcached container and ~1 ms to
   respawn an NGINX worker. This constant is the bare-process part; the
   caller adds container or reload overheads as appropriate. *)
let exec_cycles = 2.1e6

let dump_cost cost pages =
  cost.Cost.syscall
  +. (float_of_int pages
      *. (cost.Cost.mmap_per_page
          +. (float_of_int page_size *. cost.Cost.mem_byte)))

let restore_cost cost pages =
  cost.Cost.syscall
  +. (float_of_int pages
      *. (cost.Cost.mmap_per_page +. cost.Cost.page_touch
          +. (float_of_int page_size *. cost.Cost.mem_byte)))

let take space =
  let image = Space.checkpoint space in
  let pages = Space.image_bytes image / page_size in
  Sched.charge (dump_cost (Space.cost space) pages);
  { image; pages }

let restore space snap =
  Space.restore_image space snap.image;
  Sched.charge (restore_cost (Space.cost space) snap.pages)

let bytes snap = snap.pages * page_size
let take_cycles space snap = dump_cost (Space.cost space) snap.pages
let restore_cycles space snap = restore_cost (Space.cost space) snap.pages

let restart_cycles _space ~reload_bytes =
  exec_cycles +. (reload_cycles_per_byte *. float_of_int reload_bytes)
