(* String receives for tests and runners, built on
   [Netsim.recv_buf_deadline]. Each call takes a fresh buffer and
   deadline slot, so threads that wait at once share nothing. *)

let recv_deadline c ~deadline =
  let b = Netsim.Buf.create () and slot = Float.Array.make 1 deadline in
  if Netsim.recv_buf_deadline c b slot 0 then Some (Netsim.Buf.contents b)
  else None

(* Non-blocking: [None] when nothing is deliverable at the caller's
   clock. *)
let try_recv c = recv_deadline c ~deadline:(Simkern.Sched.now ())
