open Elfie_machine

type t = {
  name : string;
  on_ins : (int -> int64 -> Elfie_isa.Insn.t -> unit) option;
  on_mem_read : (int -> int64 -> int -> unit) option;
  on_mem_write : (int -> int64 -> int -> unit) option;
  on_branch : (int -> int64 -> int64 -> bool -> unit) option;
  on_marker : (int -> Elfie_isa.Insn.t -> unit) option;
  on_thread_start : (int -> unit) option;
  on_thread_exit : (int -> int -> unit) option;
}

let empty ~name =
  {
    name;
    on_ins = None;
    on_mem_read = None;
    on_mem_write = None;
    on_branch = None;
    on_marker = None;
    on_thread_start = None;
    on_thread_exit = None;
  }

(* Fold the tools' callbacks [fs] in after [prev], one [join]ed closure
   per extra callback. A lone callback is installed as it is, so a
   single tool pays no dispatch of its own per event. *)
let chain join prev fs =
  List.fold_left
    (fun acc f -> Some (match acc with None -> f | Some p -> join p f))
    prev fs

let attach machine tools =
  let h = Machine.hooks machine in
  let saved_ins = h.on_ins
  and saved_mr = h.on_mem_read
  and saved_mw = h.on_mem_write
  and saved_br = h.on_branch
  and saved_mk = h.on_marker
  and saved_ts = h.on_thread_start
  and saved_te = h.on_thread_exit in
  let pick f = List.filter_map f tools in
  let join1 p f a = p a; f a
  and join2 p f a b = p a b; f a b
  and join3 p f a b c = p a b c; f a b c
  and join4 p f a b c d = p a b c d; f a b c d in
  h.on_ins <- chain join3 saved_ins (pick (fun t -> t.on_ins));
  h.on_mem_read <- chain join3 saved_mr (pick (fun t -> t.on_mem_read));
  h.on_mem_write <- chain join3 saved_mw (pick (fun t -> t.on_mem_write));
  h.on_branch <- chain join4 saved_br (pick (fun t -> t.on_branch));
  h.on_marker <- chain join2 saved_mk (pick (fun t -> t.on_marker));
  h.on_thread_start <- chain join1 saved_ts (pick (fun t -> t.on_thread_start));
  h.on_thread_exit <- chain join2 saved_te (pick (fun t -> t.on_thread_exit));
  fun () ->
    h.on_ins <- saved_ins;
    h.on_mem_read <- saved_mr;
    h.on_mem_write <- saved_mw;
    h.on_branch <- saved_br;
    h.on_marker <- saved_mk;
    h.on_thread_start <- saved_ts;
    h.on_thread_exit <- saved_te

(* Until the marker only an [on_marker] arming tool is attached, so the
   machine fast-forwards on its chain tier. The marker callback runs
   inside the marker instruction, which ends its translation: the next
   block is fetched with [tool]'s hooks in place. *)
let attach_from_marker ?(armed = false) machine tool =
  (* Retired count when [tool] was attached, and its detach. *)
  let attached = ref None in
  let arm () = attached := Some (Machine.total_retired machine, attach machine [ tool ]) in
  let detach_arm =
    if armed then begin
      arm ();
      fun () -> ()
    end
    else
      attach machine
        [ { (empty ~name:(tool.name ^ ".arm")) with
            on_marker = Some (fun _ _ -> if Option.is_none !attached then arm ()) } ]
  in
  fun () ->
    let fast_forward =
      match !attached with
      | Some (at, detach) ->
          detach ();
          at
      | None -> Machine.total_retired machine
    in
    detach_arm ();
    fast_forward

let instruction_counter () =
  let count = ref 0L in
  let tool =
    {
      (empty ~name:"icount") with
      on_ins = Some (fun _ _ _ -> count := Int64.add !count 1L);
    }
  in
  (tool, fun () -> !count)
