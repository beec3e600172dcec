(* Differential-test oracle: the bimodal branch predictor as Sniper,
   CoreSim and gem5 each carried it before they shared Timing's
   table-driven one, kept verbatim. 4096 2-bit saturating counters,
   indexed by the pc shifted right by one modulo the table size, start
   weakly taken; the counter's upper half predicts taken, and min/max
   saturate the update. *)

let predictor_entries = 4096
let create () = Bytes.make predictor_entries '\002'

(* [true] iff the branch at [pc] was mispredicted; trains the counter. *)
let branch predictor pc taken =
  let idx =
    abs (Int64.to_int (Int64.rem (Int64.shift_right_logical pc 1)
                         (Int64.of_int predictor_entries)))
  in
  let counter = Char.code (Bytes.get predictor idx) in
  let predicted = counter >= 2 in
  Bytes.set predictor idx
    (Char.chr (if taken then min 3 (counter + 1) else max 0 (counter - 1)));
  predicted <> taken
