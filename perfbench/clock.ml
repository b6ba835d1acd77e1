(* Monotonic nanosecond clock (CLOCK_MONOTONIC through bechamel's stub:
   no allocation, fine enough for 5-20 us transactions). *)

let now () = Int64.to_int (Monotonic_clock.now ())
let seconds ns = float_of_int ns /. 1e9
let micros ns = float_of_int ns /. 1e3
