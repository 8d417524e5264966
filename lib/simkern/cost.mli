(** Virtual-time cost model.

    Every simulated activity charges a number of CPU cycles to the executing
    simulated thread. The constants below were chosen to match published
    microarchitectural measurements for the paper's evaluation platform
    (Intel Xeon Silver 4116 @ 2.10 GHz): a WRPKRU write flushes the pipeline
    (ERIM and libmpk report 20–260 cycles; the paper attributes 30–50 % of a
    domain switch to it), memcpy streams at ~8–16 bytes/cycle, and an mmap
    or mprotect system call costs a few microseconds. Absolute numbers are
    not claimed — only the relative shapes — but keeping the constants in a
    realistic regime is what makes the shapes come out right. *)

type t = {
  clock_ghz : float;  (** cycles per nanosecond *)
  wrpkru : float;
      (** PKRU register write (pipeline flush); libmpk and ERIM measure
          WRPKRU in the tens of cycles on Xeon-class parts *)
  rdpkru : float;
  mem_access : float;  (** one checked load/store *)
  mem_byte : float;  (** per byte of a bulk copy/fill *)
  page_touch : float;  (** first touch of a page (soft fault) *)
  syscall : float;  (** kernel round trip (mmap/mprotect/...) *)
  mmap_per_page : float;  (** incremental cost per mapped page *)
  signal_delivery : float;  (** SEGV delivery kernel -> user handler *)
  context_save : float;  (** setjmp-like register/sigmask save *)
  context_restore : float;  (** longjmp-like restore *)
  stack_switch : float;  (** swap stack pointers on a domain transition *)
  switch_work : float;
      (** reference-monitor work per domain transition besides the PKRU
          writes: argument validation, control-data updates, spilling and
          reloading callee-saved registers. Sized so the PKRU writes make
          up 30-50 % of a switch, matching the paper's profile. *)
  thread_spawn : float;
  net_msg : float;  (** fixed loopback message cost *)
  net_byte : float;  (** per byte on the loopback *)
}

val default : t
(** 2.10 GHz Xeon-like constants. *)

val cycles_of_us : t -> float -> float
val ns_of_cycles : t -> float -> float
val us_of_cycles : t -> float -> float
val sec_of_cycles : t -> float -> float
