open Elfie_isa

(* --- Shared mechanisms ---------------------------------------------------- *)

let walk levels addr = Cache.walk levels (Cache.key addr)
let predictor_entries = 4096
let predictor () = Bytes.make predictor_entries '\002'

(* Saturating 2-bit counter transition table, indexed by
   [counter * 2 + taken]: the min/max update as a lookup, so the host
   CPU does not have to branch on the (data-dependent, often
   unpredictable) guest branch direction. *)
let bp_next = "\000\001\000\002\001\003\002\003"

(* [pc] is the branch pc as [Int64.to_int] gives it: bits 1..12 index
   the table, and [Int64.to_int] keeps bits 0..62. *)
let[@inline] predict p pc taken =
  let ti = Bool.to_int taken in
  let idx = pc lsr 1 land (predictor_entries - 1) in
  let counter = Char.code (Bytes.unsafe_get p idx) in
  Bytes.unsafe_set p idx (String.unsafe_get bp_next ((counter lsl 1) lor ti));
  (* Prediction is the counter's high bit; mispredicted iff it differs
     from the actual direction. *)
  (counter lsr 1) lxor ti

let mispredicted p ~pc ~taken = predict p (Int64.to_int pc) taken

(* --- The machine's own "hardware" ---------------------------------------- *)

let ins_cost = function
  | Insn.K_alu -> 1
  | K_load -> 2
  | K_store -> 1
  | K_branch -> 1
  | K_call -> 2
  | K_syscall -> 50
  | K_vector -> 3
  | K_other -> 1

(* Penalty by the level [walk] reports: L1 hit, L2 hit, LLC hit, memory. *)
let penalties = [| 0; 10; 25; 150 |]
let mispredict_cycles = 15

type t = { levels : Cache.t array; predictor : Bytes.t }

let create () =
  {
    levels =
      [|
        Cache.create (Cache.config ~size_bytes:32_768 ~ways:8 ~line_bytes:64);
        Cache.create (Cache.config ~size_bytes:262_144 ~ways:8 ~line_bytes:64);
        Cache.create (Cache.config ~size_bytes:8_388_608 ~ways:16 ~line_bytes:64);
      |];
    predictor = predictor ();
  }

(* Independent clone: forked machines must charge the same penalties
   the parent would have, without aliasing predictor or tag state. *)
let copy t = { levels = Array.map Cache.copy t.levels; predictor = Bytes.copy t.predictor }
let mem_cost t k = Array.unsafe_get penalties (Cache.walk t.levels k)
let branch_cost t ~pc ~taken = predict t.predictor pc taken * mispredict_cycles
