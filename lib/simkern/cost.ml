type t = {
  clock_ghz : float;
  wrpkru : float;
  rdpkru : float;
  mem_access : float;
  mem_byte : float;
  page_touch : float;
  syscall : float;
  mmap_per_page : float;
  signal_delivery : float;
  context_save : float;
  context_restore : float;
  stack_switch : float;
  switch_work : float;
  thread_spawn : float;
  net_msg : float;
  net_byte : float;
}

let default =
  {
    clock_ghz = 2.10;
    wrpkru = 28.0;
    rdpkru = 20.0;
    mem_access = 1.0;
    mem_byte = 0.125;
    page_touch = 500.0;
    syscall = 3_000.0;
    mmap_per_page = 50.0;
    signal_delivery = 2_500.0;
    context_save = 60.0;
    context_restore = 60.0;
    stack_switch = 12.0;
    switch_work = 80.0;
    thread_spawn = 50_000.0;
    net_msg = 1_200.0;
    net_byte = 0.3;
  }

let cycles_of_ns t ns = ns *. t.clock_ghz
let cycles_of_us t us = cycles_of_ns t (us *. 1e3)
let ns_of_cycles t c = c /. t.clock_ghz
let us_of_cycles t c = ns_of_cycles t c /. 1e3
let sec_of_cycles t c = ns_of_cycles t c /. 1e9
