(* Monotonic wall clock for every benchmark timing. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9
