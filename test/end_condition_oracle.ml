(* Differential-test oracle: Sniper's region-end profiler as it was
   before it moved to the block observer, kept verbatim. An [on_ins]
   hook keeps a per-PC histogram for the whole constrained replay, so
   the run is on the per-instruction interpreter. Slow, but obviously
   right: [Sniper.profile_end_condition] must return the same
   [(pc, count)] pair on every pinball test_sim.ml drives through both. *)

open Elfie_machine
module Sniper = Elfie_sniper.Sniper

let profile_end_condition ?(exclude = (0L, 0L)) pb =
  let lo, hi = exclude in
  let hist : (int64, int) Hashtbl.t = Hashtbl.create 1024 in
  let last_pc = ref 0L in
  let machine, _kernel, _ = Elfie_pin.Replayer.materialize ~constrained:true pb in
  let tool =
    {
      (Elfie_pin.Pintool.empty ~name:"pc-profile") with
      on_ins =
        Some
          (fun _ pc _ ->
            if not (pc >= lo && pc < hi) then begin
              Hashtbl.replace hist pc
                (1 + Option.value ~default:0 (Hashtbl.find_opt hist pc));
              last_pc := pc
            end);
    }
  in
  let detach = Elfie_pin.Pintool.attach machine [ tool ] in
  Machine.run machine;
  detach ();
  { Sniper.pc = !last_pc; count = Hashtbl.find hist !last_pc }
