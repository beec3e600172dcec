type level = Debug | Info | Warn | Error

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

type event = {
  ev_ts : float;
  ev_level : level;
  ev_name : string;
  ev_pid : int;
  ev_attrs : Trace.attrs;
}

(* Bounded ring: [ring.(i)] holds the (head - size + i mod cap)-th
   oldest accepted event. All state below is process-global and fed
   from pool worker domains, so every mutation takes [lock]; the sink
   write happens inside the same critical section so concurrent writers
   can never interleave (tear) JSONL lines. *)
let lock = Mutex.create ()
let default_capacity = 2048
let ring : event option array ref = ref (Array.make default_capacity None)
let head = ref 0 (* next write slot *)
let size = ref 0
let emitted_count = ref 0
let min_level = ref Debug
let sink : out_channel option ref = ref None

let[@inline] locked f = Mutex.protect lock f

let set_level l = min_level := l
let level () = !min_level

let set_capacity n =
  locked (fun () ->
      let n = max 1 n in
      ring := Array.make n None;
      head := 0;
      size := 0)

let render ev =
  let b = Buffer.create 96 in
  Buffer.add_string b
    (Printf.sprintf "{\"ts\":%.6f,\"level\":\"%s\",\"event\":\"%s\",\"pid\":%d"
       ev.ev_ts
       (level_to_string ev.ev_level)
       (Json.escape ev.ev_name) ev.ev_pid);
  List.iter
    (fun (k, v) ->
      Buffer.add_string b
        (Printf.sprintf ",\"%s\":%s" (Json.escape k) (Trace.json_of_value v)))
    ev.ev_attrs;
  Buffer.add_char b '}';
  Buffer.contents b

(* Well-known keys come first; every other member is an attribute. *)
let parse_line line =
  match Json.parse line with
  | Error _ -> None
  | Ok json -> (
      let str key = Option.bind (Json.member key json) Json.to_str in
      let num key = Option.bind (Json.member key json) Json.to_float in
      match (num "ts", Option.bind (str "level") level_of_string, str "event")
      with
      | Some ts, Some lvl, Some name ->
          let attrs =
            match json with
            | Json.Obj members ->
                List.filter_map
                  (fun (k, v) ->
                    match k with
                    | "ts" | "level" | "event" | "pid" -> None
                    | _ ->
                        Some
                          ( k,
                            match v with
                            | Json.Str s -> Trace.S s
                            | Json.Bool b -> Trace.B b
                            | Json.Num f when Float.is_integer f ->
                                Trace.I (Int64.of_float f)
                            | Json.Num f -> Trace.F f
                            | v -> Trace.S (Json.to_string v) ))
                  members
            | _ -> []
          in
          Some
            {
              ev_ts = ts;
              ev_level = lvl;
              ev_name = name;
              ev_pid =
                (match num "pid" with Some p -> int_of_float p | None -> 0);
              ev_attrs = attrs;
            }
      | _ -> None)

let push_unlocked ev =
  incr emitted_count;
  let cap = Array.length !ring in
  !ring.(!head) <- Some ev;
  head := (!head + 1) mod cap;
  if !size < cap then incr size;
  match !sink with
  | None -> ()
  | Some oc ->
      output_string oc (render ev);
      output_char oc '\n';
      flush oc

let log lvl ?(attrs = []) name =
  if level_rank lvl >= level_rank !min_level then
    let ev =
      {
        ev_ts = Unix.gettimeofday ();
        ev_level = lvl;
        ev_name = name;
        ev_pid = Unix.getpid ();
        ev_attrs = attrs;
      }
    in
    locked (fun () -> push_unlocked ev)

let debug ?attrs name = log Debug ?attrs name
let info ?attrs name = log Info ?attrs name
let warn ?attrs name = log Warn ?attrs name
let error ?attrs name = log Error ?attrs name

let recent ?limit () =
  locked (fun () ->
      let cap = Array.length !ring in
      let n = match limit with Some l -> min l !size | None -> !size in
      List.filter_map Fun.id
        (List.init n (fun i -> !ring.((!head - n + i + (2 * cap)) mod cap))))

let emitted () = locked (fun () -> !emitted_count)

let to_jsonl ?limit () =
  let evs = recent ?limit () in
  String.concat "" (List.map (fun ev -> render ev ^ "\n") evs)

let set_sink path =
  locked (fun () ->
      (match !sink with Some oc -> close_out_noerr oc | None -> ());
      sink :=
        Option.map
          (fun path ->
            open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path)
          path)

let reset () =
  locked (fun () ->
      Array.fill !ring 0 (Array.length !ring) None;
      head := 0;
      size := 0;
      emitted_count := 0)
