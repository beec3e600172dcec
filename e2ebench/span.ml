(* Layer spans recorded by the benchmark around its calls into each
   layer's public functions. The program's own tracer stays off; these
   spans are the benchmark's, kept in memory and aggregated when the
   traced pass ends. A span's self time and self allocation exclude the
   spans nested inside it. *)

type record = { name : string; self_s : float; self_words : float }

type frame = {
  f_name : string;
  t0 : float;
  w0 : float;
  mutable child_s : float;
  mutable child_words : float;
}

let enabled = ref false
let stack : frame list ref = ref []
let records : record list ref = ref []
let counts : (string, float) Hashtbl.t = Hashtbl.create 16

(* Words allocated so far by this domain. The benchmark runs on one
   domain, so deltas are the allocation of the code between them.
   [Gc.quick_stat]'s minor count only advances at minor collections in
   OCaml 5.1, so the minor part comes from [Gc.minor_words], which
   includes the current minor heap. *)
let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let reset () =
  stack := [];
  records := [];
  Hashtbl.reset counts

let close fr =
  let dur = Unix.gettimeofday () -. fr.t0 in
  let alloc = words () -. fr.w0 in
  stack := List.tl !stack;
  (match !stack with
  | parent :: _ ->
      parent.child_s <- parent.child_s +. dur;
      parent.child_words <- parent.child_words +. alloc
  | [] -> ());
  records :=
    {
      name = fr.f_name;
      self_s = dur -. fr.child_s;
      self_words = alloc -. fr.child_words;
    }
    :: !records

(** [with_ name f] runs [f ()], as one call of layer [name] when
    tracing is on. *)
let with_ name f =
  if not !enabled then f ()
  else begin
    let fr =
      {
        f_name = name;
        t0 = Unix.gettimeofday ();
        w0 = words ();
        child_s = 0.0;
        child_words = 0.0;
      }
    in
    stack := fr :: !stack;
    Fun.protect ~finally:(fun () -> close fr) f
  end

(** Add [v] to the named work counter of the traced pass. *)
let count name v =
  if !enabled then
    Hashtbl.replace counts name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt counts name))

let counter name = Option.value ~default:0.0 (Hashtbl.find_opt counts name)

type layer = { calls : int; self_s : float; alloc_words : float }

(** Totals of every span named [name] since the last {!reset}. *)
let layer name =
  List.fold_left
    (fun acc (r : record) ->
      if r.name = name then
        {
          calls = acc.calls + 1;
          self_s = acc.self_s +. r.self_s;
          alloc_words = acc.alloc_words +. r.self_words;
        }
      else acc)
    { calls = 0; self_s = 0.0; alloc_words = 0.0 }
    !records

(** Summed self time of every span since the last {!reset}. *)
let attributed_s () =
  List.fold_left (fun acc (r : record) -> acc +. r.self_s) 0.0 !records
