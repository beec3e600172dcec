open Elfie_isa
module Metrics = Elfie_obs.Metrics

type fault =
  | Page_fault of { addr : int64; access : Addr_space.access; pc : int64 }
  | Invalid_opcode of int64
  | Privileged of int64

let pp_fault fmt = function
  | Page_fault { addr; access; pc } ->
      let a =
        match access with
        | Addr_space.Read -> "read"
        | Write -> "write"
        | Exec -> "exec"
      in
      Format.fprintf fmt "page fault (%s) at 0x%Lx, pc=0x%Lx" a addr pc
  | Invalid_opcode pc -> Format.fprintf fmt "invalid opcode at pc=0x%Lx" pc
  | Privileged pc -> Format.fprintf fmt "privileged instruction at pc=0x%Lx" pc

type thread_state = Runnable | Exited of int | Faulted of fault

type thread = {
  tid : int;
  ctx : Context.t;
  mutable state : thread_state;
  mutable retired : int64;
  mutable cycles : int64;
  mutable counter_target : int64 option;
  mutable counter_fired : bool;
  mutable arm_retired : int64;
  mutable arm_cycles : int64;
  mutable mark_target : int64 option;
  mutable mark_retired : int64 option;
  mutable mark_cycles : int64;
  mutable timer_left : int;
}

type scheduler =
  | Free of { seed : int64; quantum_min : int; quantum_max : int }
  | Recorded of (int * int) list

type hooks = {
  mutable on_ins : (int -> int64 -> Insn.t -> unit) option;
  mutable on_mem_read : (int -> int64 -> int -> unit) option;
  mutable on_mem_write : (int -> int64 -> int -> unit) option;
  mutable on_branch : (int -> int64 -> int64 -> bool -> unit) option;
  mutable on_marker : (int -> Insn.t -> unit) option;
  mutable on_thread_start : (int -> unit) option;
  mutable on_thread_exit : (int -> int -> unit) option;
}

type syscall_action = Run_syscall | Skip_syscall

type sched_state =
  | S_free of {
      rng : Elfie_util.Rng.t;
      quantum_min : int;
      quantum_max : int;
      (* A quantum interrupted by a [run ~max_ins] boundary resumes on
         the next call, so segmented driving (the multi-region logger)
         produces exactly the interleaving of one continuous run. *)
      mutable pending : (int * int) option;
    }
  | S_recorded of (int * int) list ref

(* A translated basic block: a straight-line run of decoded instructions
   ending at the first branch/call/syscall/marker (or the translation
   window). Executing one replays the per-instruction interpreter
   exactly, but pays fetch, decode, static cost classification and
   micro-op specialisation once per block instead of once per
   instruction. [bb_uops] holds each instruction compiled to a closure
   with operands pre-resolved (register indices, addressing mode): the
   chain executor composes them into whole-block mega-ops, and runs them
   one by one for a first block it cannot run whole. *)
type bb = {
  bb_pc : int64 array;  (* pc of each instruction *)
  bb_ins : Insn.t array;
  bb_next : int64 array;  (* pc just past each instruction *)
  bb_cost : int array;  (* static per-class cost (Timing.ins_cost) *)
  bb_prefix : int array;  (* length n+1; prefix.(i) = sum of bb_cost.(<i) *)
  bb_uops : (t -> thread -> unit) array;
  bb_ends_block : bool;  (* last instruction is a branch/call/syscall *)
  (* The terminator is a plain branch/call/ret (no syscall, marker or
     trap), so the chain executor may run the whole block including it. *)
  bb_tail_batchable : bool;
  (* --- superblock tier -------------------------------------------------
     A block whose terminator is a direct branch/call knows its static
     successor pcs; the chain executor links the translations together
     so predicted edges hop block-to-block without touching the
     dispatch loop. *)
  bb_writes_mem : bool;
      (* some instruction may write memory (stores, pushes, calls, or
         any [execute]-fallback form): only such a block can dirty a
         code page mid-block, so only such a block needs the
         per-instruction generation re-check. *)
  bb_succ_taken : int64;  (* direct taken-edge target pc, or -1L *)
  bb_succ_fall : int64;  (* fall-through pc of a [Jcc] tail, or -1L *)
  bb_kill_prefix : int;
      (* length of the leading run of pure (non-faulting, non-reading)
         instructions ending at the first full flag writer, or -1: once
         that prefix runs, all four flags are freshly written, so a
         predecessor chained into this block may elide its own dead
         trailing flag results. *)
  bb_mega_safe : t -> thread -> unit;
      (* the whole block as ONE composed closure (straight-line calls,
         no per-instruction dispatch, SMC re-checks only after
         store-capable slots): the chain executor's hop body. Built over
         the always-safe chain variant — in-block-dead ALU flag results
         elided, compare+Jcc tails fused with eager flag
         materialisation — so it is exact for any whole-block run. Only
         valid for full-block runs: a fault records its slot in
         [t.mega_idx], a mid-block invalidation raises {!Smc_break}. *)
  bb_mega_chain : t -> thread -> unit;
      (* same composition over the exit-dead variant: additionally skips
         flag results the block's static successors provably rewrite
         (lazy fusion, trailing elisions). Physically equal to
         [bb_mega_safe] when the exit assumption buys nothing. Only run
         under the [bb_chain_extra] fuel gate. *)
  mutable bb_links : bb array;
      (* [||] until {!resolve_links} runs; then [| fall; taken |]
         successor translations ([dummy_bb] for unresolvable edges),
         indexed by the direction the terminator recorded in [t.took] —
         the hop transition is an array load, not a RIP compare. *)
  mutable bb_chain_extra : int;
      (* -2: successors not yet resolved; -1: the elided variant is
         unusable (no elisions, or some successor lacks a kill prefix);
         >= 0: extra whole-chain fuel (the largest successor kill
         prefix) that must be available beyond this block's length
         before [bb_uops_chain] may run — the guarantee that the flags
         it leaves stale are rewritten before anything observes them. *)
}

(* Live-counter block for the stats snapshot kept per machine. *)
and core_stats = {
  mutable st_memo_hits : int;
  mutable st_memo_misses : int;
  mutable st_sb_built : int;
  mutable st_sb_broken : int;
  mutable st_x_indirect : int;
  mutable st_x_fuel : int;
  mutable st_x_fault : int;
  mutable st_x_inval : int;
  mutable st_x_stop : int;
}

and t = {
  mem : Addr_space.t;
  mutable thread_list : thread list;  (* reversed *)
  mutable thread_arr : thread array;
  hooks : hooks;
  timing : Timing.t;
  sched : sched_state;
  mutable syscall_handler : t -> int -> unit;
  mutable syscall_filter : (t -> int -> syscall_action) option;
  mutable stop_requested : bool;
  mutable ring0 : int64;
  mutable retired_total : int64;
  mutable record_schedule : bool;
  mutable schedule_rev : (int * int) list;
  mutable schedule_cut : bool;
  block_cache : (int64, bb) Hashtbl.t;
  mutable decode_generation : int;
  mutable timer : (int * int * Elfie_util.Rng.t) option;
  (* Dynamic cycle cost of the instruction currently in [execute]; a
     field rather than a per-call ref so the interpreter allocates
     nothing per instruction. Not reentrant — syscall handlers run
     inside [execute] but never recurse into it. *)
  mutable exec_cost : int;
  (* Dynamic (cache, branch, pause) cycle cost accumulated by micro-ops
     across one chain hop or partial-block run; static class costs come
     from [bb_prefix]. Moved into the executor's cycle accumulator, and
     zeroed, after each run. *)
  mutable dyn_cost : int;
  (* Direct-mapped front memo for the block cache: hot loops (whose
     bodies typically span a handful of blocks) fetch translations with
     an unboxed int64 compare instead of an int64-keyed hash probe.
     [block_memo_pc.(slot) = -1L] marks an empty slot. *)
  block_memo_pc : int64 array;
  block_memo : bb array;
  mutable block_observer :
    (tid:int -> pcs:int64 array -> n:int -> ends_block:bool -> unit) option;
  (* Slot index a mega-op was executing when it raised: [Fault] leaves
     the faulting slot here, [Smc_break] the count of completed slots. *)
  mutable mega_idx : int;
  (* Direction the last direct branch/call terminator resolved to
     (1 = taken edge, 0 = fall-through), recorded branchlessly by the
     terminator micro-ops. Valid right after a whole-block mega run of a
     directly-terminated block — exactly when the chain executor indexes
     [bb_links] with it. *)
  mutable took : int;
  (* [Addr_space.code_writes] sampled at mega-op entry; the composed
     post-store re-checks compare against it. *)
  mutable mega_cw : int;
  mutable live_links : int;  (* installed chain edges in this generation *)
  stats : core_stats;  (* monotone per-machine counters *)
  stats_flushed : core_stats;  (* snapshot at the last metrics flush *)
  (* [Addr_space.cow_copies t.mem] at the last metrics flush. *)
  mutable cow_flushed : int;
  (* When set, a firing warmup mark also requests a stop: [run] returns
     right after the mark instruction retires, leaving the machine
     warmed and snapshot-ready. *)
  mutable stop_on_mark : bool;
}

let block_memo_size = 64 (* power of two *)

(* Placeholder behind [block_memo_pc.(slot) = -1L] and behind
   unresolved/unresolvable chain links, never matching a pc. *)
let dummy_bb =
  {
    bb_pc = [||];
    bb_ins = [||];
    bb_next = [||];
    bb_cost = [||];
    bb_prefix = [| 0 |];
    bb_uops = [||];
    bb_ends_block = false;
    bb_tail_batchable = false;
    bb_writes_mem = false;
    bb_succ_taken = -1L;
    bb_succ_fall = -1L;
    bb_kill_prefix = -1;
    bb_mega_safe = (fun _ _ -> ());
    bb_mega_chain = (fun _ _ -> ());
    bb_links = [||];
    bb_chain_extra = -1;
  }

let fresh_stats () =
  {
    st_memo_hits = 0;
    st_memo_misses = 0;
    st_sb_built = 0;
    st_sb_broken = 0;
    st_x_indirect = 0;
    st_x_fuel = 0;
    st_x_fault = 0;
    st_x_inval = 0;
    st_x_stop = 0;
  }

let fresh_hooks () =
  {
    on_ins = None;
    on_mem_read = None;
    on_mem_write = None;
    on_branch = None;
    on_marker = None;
    on_thread_start = None;
    on_thread_exit = None;
  }

let create scheduler =
  let sched =
    match scheduler with
    | Free { seed; quantum_min; quantum_max } ->
        S_free
          { rng = Elfie_util.Rng.create seed; quantum_min; quantum_max;
            pending = None }
    | Recorded slices -> S_recorded (ref slices)
  in
  {
    mem = Addr_space.create ();
    thread_list = [];
    thread_arr = [||];
    hooks = fresh_hooks ();
    timing = Timing.create ();
    sched;
    syscall_handler = (fun _ _ -> failwith "Machine: no syscall handler installed");
    syscall_filter = None;
    stop_requested = false;
    ring0 = 0L;
    retired_total = 0L;
    record_schedule = false;
    schedule_rev = [];
    schedule_cut = false;
    block_cache = Hashtbl.create 1024;
    decode_generation = -1;
    timer = None;
    exec_cost = 0;
    dyn_cost = 0;
    block_memo_pc = Array.make block_memo_size (-1L);
    block_memo = Array.make block_memo_size dummy_bb;
    block_observer = None;
    mega_idx = 0;
    mega_cw = 0;
    took = 0;
    live_links = 0;
    stats = fresh_stats ();
    stats_flushed = fresh_stats ();
    cow_flushed = 0;
    stop_on_mark = false;
  }

let mem t = t.mem
let hooks t = t.hooks
let set_syscall_handler t h = t.syscall_handler <- h
let set_syscall_filter t f = t.syscall_filter <- Some f

let add_thread t ctx =
  let tid = Array.length t.thread_arr in
  let th =
    {
      tid;
      ctx;
      state = Runnable;
      retired = 0L;
      cycles = 0L;
      counter_target = None;
      counter_fired = false;
      arm_retired = 0L;
      arm_cycles = 0L;
      mark_target = None;
      mark_retired = None;
      mark_cycles = 0L;
      timer_left = max_int;
    }
  in
  t.thread_list <- th :: t.thread_list;
  t.thread_arr <- Array.of_list (List.rev t.thread_list);
  (match t.timer with
  | Some (interval, _, rng) ->
      th.timer_left <- (interval / 2) + Elfie_util.Rng.int rng interval
  | None -> ());
  (match t.hooks.on_thread_start with Some f -> f tid | None -> ());
  tid

let thread t tid =
  if tid < 0 || tid >= Array.length t.thread_arr then
    invalid_arg (Printf.sprintf "Machine.thread: bad tid %d" tid);
  t.thread_arr.(tid)

let threads t = Array.to_list t.thread_arr
let thread_count t = Array.length t.thread_arr

let exit_thread t tid ~status =
  let th = thread t tid in
  if th.state = Runnable then begin
    th.state <- Exited status;
    match t.hooks.on_thread_exit with Some f -> f tid status | None -> ()
  end

let exit_all t ~status =
  Array.iter (fun th -> if th.state = Runnable then exit_thread t th.tid ~status)
    t.thread_arr

let arm_counter t tid ~target =
  let th = thread t tid in
  th.counter_target <- Some target;
  th.arm_retired <- th.retired;
  th.arm_cycles <- th.cycles

let arm_mark t tid ~target =
  let th = thread t tid in
  th.mark_target <- Some target

let set_timer t ~interval ~cycles ~seed =
  let rng = Elfie_util.Rng.create seed in
  t.timer <- Some (interval, cycles, rng);
  Array.iter
    (fun th -> th.timer_left <- (interval / 2) + Elfie_util.Rng.int rng interval)
    t.thread_arr

let request_stop t = t.stop_requested <- true
let stop_requested t = t.stop_requested

let charge_ring0 t tid ~instructions ~cycles =
  let th = thread t tid in
  th.cycles <- Int64.add th.cycles (Int64.of_int cycles);
  t.ring0 <- Int64.add t.ring0 (Int64.of_int instructions)

let ring0_retired t = t.ring0
let set_record_schedule t b = t.record_schedule <- b

let recorded_schedule t = List.rev t.schedule_rev
let cut_schedule t = t.schedule_cut <- true

let total_retired t = t.retired_total

let elapsed_cycles t =
  Array.fold_left (fun acc th -> max acc th.cycles) 0L t.thread_arr

let all_exited_cleanly t =
  Array.for_all (fun th -> th.state = Exited 0) t.thread_arr

(* --- Fetch with basic-block translation cache -------------------------- *)

let set_block_observer t f = t.block_observer <- f
let translated_blocks t = Hashtbl.length t.block_cache

type chain_stats = {
  memo_hits : int;
  memo_misses : int;
  superblocks_built : int;
  superblocks_broken : int;
  exits_indirect : int;
  exits_fuel : int;
  exits_fault : int;
  exits_invalidation : int;
  exits_stop : int;
}

let chain_stats t =
  {
    memo_hits = t.stats.st_memo_hits;
    memo_misses = t.stats.st_memo_misses;
    superblocks_built = t.stats.st_sb_built;
    superblocks_broken = t.stats.st_sb_broken;
    exits_indirect = t.stats.st_x_indirect;
    exits_fuel = t.stats.st_x_fuel;
    exits_fault = t.stats.st_x_fault;
    exits_invalidation = t.stats.st_x_inval;
    exits_stop = t.stats.st_x_stop;
  }

(* Block-cache and superblock efficacy families. Counters are process
   monotone: each machine flushes only the delta since its last flush
   (end of every [run]), so concurrent machines in one process
   accumulate rather than clobber. *)
let m_memo_hits =
  Metrics.counter "elfie_core_block_memo_hits"
    ~help:"Translated-block fetches served by the direct-mapped memo"

let m_memo_misses =
  Metrics.counter "elfie_core_block_memo_misses"
    ~help:"Translated-block fetches that fell back to the hash probe"

let m_sb_built =
  Metrics.counter "elfie_core_superblocks_built"
    ~help:"Chain links installed between translated blocks"

let m_sb_broken =
  Metrics.counter "elfie_core_superblocks_broken"
    ~help:"Chain links discarded by translation-cache invalidation"

let m_chain_exits =
  Metrics.counter "elfie_core_chain_exits"
    ~help:"Chained runs broken back to dispatch, by reason"

(* Copy-on-write snapshot efficacy: captures/forks are bumped at the
   call site; CoW page privatisations flush as per-machine deltas with
   the other core counters. *)
let m_snap_captures =
  Metrics.counter "elfie_snapshot_captures_total"
    ~help:"Machine snapshots captured (address space frozen)"

let m_snap_forks =
  Metrics.counter "elfie_snapshot_forks_total"
    ~help:"Machines forked from a snapshot"

let m_snap_cow_pages =
  Metrics.counter "elfie_snapshot_cow_page_copies_total"
    ~help:"Pages privatised lazily by a write into frozen snapshot backing"

let flush_core_metrics t =
  let bump ?labels fam live flushed =
    if live > flushed then
      Metrics.inc ?labels ~by:(float_of_int (live - flushed)) fam
  in
  let s = t.stats and f = t.stats_flushed in
  bump m_memo_hits s.st_memo_hits f.st_memo_hits;
  bump m_memo_misses s.st_memo_misses f.st_memo_misses;
  bump m_sb_built s.st_sb_built f.st_sb_built;
  bump m_sb_broken s.st_sb_broken f.st_sb_broken;
  let reason r = bump ~labels:[ ("reason", r) ] m_chain_exits in
  reason "indirect" s.st_x_indirect f.st_x_indirect;
  reason "fuel" s.st_x_fuel f.st_x_fuel;
  reason "fault" s.st_x_fault f.st_x_fault;
  reason "invalidation" s.st_x_inval f.st_x_inval;
  reason "stop" s.st_x_stop f.st_x_stop;
  f.st_memo_hits <- s.st_memo_hits;
  f.st_memo_misses <- s.st_memo_misses;
  f.st_sb_built <- s.st_sb_built;
  f.st_sb_broken <- s.st_sb_broken;
  f.st_x_indirect <- s.st_x_indirect;
  f.st_x_fuel <- s.st_x_fuel;
  f.st_x_fault <- s.st_x_fault;
  f.st_x_inval <- s.st_x_inval;
  f.st_x_stop <- s.st_x_stop;
  let cow = Addr_space.cow_copies t.mem in
  if cow > t.cow_flushed then begin
    Metrics.inc ~by:(float_of_int (cow - t.cow_flushed)) m_snap_cow_pages;
    t.cow_flushed <- cow
  end

(* --- Instruction semantics --------------------------------------------- *)

(* The hot-path rule. dune's dev profile compiles every module with
   [-opaque], so no call into another module is ever inlined, and an
   [int64] passed to or returned from such a call is boxed: three words
   allocated per value. Every per-instruction path below — the micro-ops,
   the composed and fused tails, and the memory, branch and address
   helpers of [execute] — therefore hands other modules immediates only:
   registers and vector lanes move through the [Context.get64]/[set64]
   primitives at byte offsets, memory through [Addr_space.read_page]/
   [write_page] by page number, and the timing model takes the address
   in its [Cache.key] form and the branch pc as an [int]. The helpers
   here are [@inline], so their int64 arguments and results stay
   unboxed as well. *)

let page_bits = Addr_space.page_bits
let page_size = Addr_space.page_size
let rsp_off = Context.gpr_offset Reg.RSP
let[@inline] cache_key addr = Int64.to_int (Int64.shift_right_logical addr 1)
let reg_offset = function Some r -> Context.gpr_offset r | None -> -1

(* The one effective-address computation. [base] and [index] are
   register byte offsets, or -1 when absent; [scale] only applies to the
   index. Micro-ops resolve the operands once, at translation ([amode]);
   [execute] per instruction. *)
let[@inline] address g base index scale disp =
  let a = if base < 0 then disp else Int64.add (Context.get64 g base) disp in
  if index < 0 then a
  else Int64.add a (Int64.mul (Context.get64 g index) (Int64.of_int scale))

type amode = { base : int; index : int; scale : int; disp : int64 }

let amode (m : Insn.mem) =
  { base = reg_offset m.base; index = reg_offset m.index; scale = m.scale;
    disp = m.disp }

let[@inline] ea g a = address g a.base a.index a.scale a.disp

let[@inline] effective_address g (m : Insn.mem) =
  address g (reg_offset m.base) (reg_offset m.index) m.scale m.disp

let[@inline] get ctx r = Context.get64 ctx.Context.gprs (Context.gpr_offset r)
let[@inline] set ctx r v = Context.set64 ctx.Context.gprs (Context.gpr_offset r) v

(* A little-endian load of width [w], zero-extended, and a store of the
   low bytes of [v]: one soft-TLB probe and one [Bytes] access when the
   access stays inside its page. A page-crossing access goes through
   [Addr_space.read]/[write] (the only boxing path here), which also
   reports the exact fault address. *)
let[@inline] last_off (w : Insn.width) =
  match w with
  | W8 -> page_size - 1
  | W16 -> page_size - 2
  | W32 -> page_size - 4
  | W64 -> page_size - 8

let[@inline] load t addr (w : Insn.width) =
  let off = Int64.to_int addr land (page_size - 1) in
  if off <= last_off w then
    match
      Addr_space.read_page t.mem
        (Int64.to_int (Int64.shift_right_logical addr page_bits))
    with
    | data -> (
        match w with
        | W64 -> Bytes.get_int64_le data off
        | W32 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le data off)) 0xffff_ffffL
        | W16 -> Int64.of_int (Bytes.get_uint16_le data off)
        | W8 -> Int64.of_int (Bytes.get_uint8 data off))
    | exception Not_found -> raise (Addr_space.Fault { addr; access = Read })
  else Addr_space.read t.mem addr (Insn.width_bytes w)

let[@inline] store t addr (w : Insn.width) v =
  let off = Int64.to_int addr land (page_size - 1) in
  if off <= last_off w then
    match
      Addr_space.write_page t.mem
        (Int64.to_int (Int64.shift_right_logical addr page_bits))
    with
    | data -> (
        match w with
        | W64 -> Bytes.set_int64_le data off v
        | W32 -> Bytes.set_int32_le data off (Int64.to_int32 v)
        | W16 -> Bytes.set_uint16_le data off (Int64.to_int v land 0xffff)
        | W8 -> Bytes.set_uint8 data off (Int64.to_int v land 0xff))
    | exception Not_found -> raise (Addr_space.Fault { addr; access = Write })
  else Addr_space.write t.mem addr (Insn.width_bytes w) v

let[@inline] mem_cost t addr = Timing.mem_cost t.timing (cache_key addr)

let[@inline] set_zf_sf (flags : Reg.flags) r =
  flags.zf <- r = 0L;
  flags.sf <- r < 0L

(* ALU flag semantics. The flag writers return unit, so a caller that
   only wants the flags never materialises the result; [alu] always
   returns the result and [alu_writes] says whether it lands in a
   register. *)
let[@inline] sub_flags (flags : Reg.flags) a b r =
  flags.cf <- Int64.unsigned_compare a b < 0;
  flags.ovf <- (a >= 0L && b < 0L && r < 0L) || (a < 0L && b >= 0L && r >= 0L);
  set_zf_sf flags r

let[@inline] logic_flags (flags : Reg.flags) r =
  flags.cf <- false;
  flags.ovf <- false;
  set_zf_sf flags r

let[@inline] alu_sub flags a b =
  let r = Int64.sub a b in
  sub_flags flags a b r;
  r

let[@inline] alu (flags : Reg.flags) (op : Insn.alu) a b =
  match op with
  | Add ->
      let r = Int64.add a b in
      flags.cf <- Int64.unsigned_compare r a < 0;
      flags.ovf <- (a >= 0L && b >= 0L && r < 0L) || (a < 0L && b < 0L && r >= 0L);
      set_zf_sf flags r;
      r
  | Sub | Cmp -> alu_sub flags a b
  | And | Test | Or | Xor | Imul ->
      let r =
        match op with
        | And | Test -> Int64.logand a b
        | Or -> Int64.logor a b
        | Xor -> Int64.logxor a b
        | _ -> Int64.mul a b
      in
      logic_flags flags r;
      r

let alu_writes = function Insn.Cmp | Insn.Test -> false | _ -> true

(* Flag-free value forms used when a liveness pass proved the flag
   results dead: same register result as [alu], no flag stores.
   [Cmp]/[Test] compute nothing at all in that case. *)
let[@inline] pure_alu (op : Insn.alu) a b =
  match op with
  | Add -> Int64.add a b
  | Sub | Cmp -> Int64.sub a b
  | And | Test -> Int64.logand a b
  | Or -> Int64.logor a b
  | Xor -> Int64.logxor a b
  | Imul -> Int64.mul a b

let[@inline] pure_shift (op : Insn.shift) v n =
  match op with
  | Shl -> Int64.shift_left v n
  | Shr -> Int64.shift_right_logical v n
  | Sar -> Int64.shift_right v n

let[@inline] exec_shift (flags : Reg.flags) (op : Insn.shift) v n =
  if n = 0 then v
  else begin
    let r = pure_shift op v n in
    let last_out =
      match op with
      | Shl -> Int64.logand (Int64.shift_right_logical v (64 - n)) 1L
      | Shr | Sar -> Int64.logand (Int64.shift_right_logical v (n - 1)) 1L
    in
    flags.cf <- last_out = 1L;
    flags.ovf <- false;
    set_zf_sf flags r;
    r
  end

let[@inline] eval_cond (flags : Reg.flags) (c : Insn.cond) =
  match c with
  | Eq -> flags.zf
  | Ne -> not flags.zf
  | Lt -> flags.sf <> flags.ovf
  | Ge -> flags.sf = flags.ovf
  | Le -> flags.zf || flags.sf <> flags.ovf
  | Gt -> (not flags.zf) && flags.sf = flags.ovf
  | Ult -> flags.cf
  | Uge -> not flags.cf

(* Direct evaluation of [Jcc] conditions over the flags a [Cmp]/[Sub]
   of (a, b) would set — lets a fused compare-branch skip flag
   materialisation entirely and compare the operand values it already
   holds in locals. *)
let[@inline] cmp_cond (c : Insn.cond) a b =
  match c with
  | Eq -> Int64.equal a b
  | Ne -> not (Int64.equal a b)
  | Lt -> Int64.compare a b < 0
  | Ge -> Int64.compare a b >= 0
  | Le -> Int64.compare a b <= 0
  | Gt -> Int64.compare a b > 0
  | Ult -> Int64.unsigned_compare a b < 0
  | Uge -> Int64.unsigned_compare a b >= 0

(* Same for the flags [Test] of v = a land b sets
   (cf = ovf = false, zf = v=0, sf = v<0). *)
let[@inline] test_cond (c : Insn.cond) v =
  match c with
  | Eq -> Int64.equal v 0L
  | Ne -> not (Int64.equal v 0L)
  | Lt -> Int64.compare v 0L < 0
  | Ge -> Int64.compare v 0L >= 0
  | Le -> Int64.compare v 0L <= 0
  | Gt -> Int64.compare v 0L > 0
  | Ult -> false
  | Uge -> true

let[@inline] float_lane_op (op : Insn.vop) a b =
  let fa = Int64.float_of_bits a and fb = Int64.float_of_bits b in
  let r = match op with Vadd -> fa +. fb | Vmul -> fa *. fb | Vsub -> fa -. fb in
  Int64.bits_of_float r

(* Vector lanes: 64-bit lane [lane] of register [x] in the
   little-endian XSAVE layout of [Context.xmm]. *)
let[@inline] lane_off x lane = (x * 16) + (lane * 8)

(* Memory helpers for [execute]: the hook dispatch, the stateful cache
   cost and the access itself. Top-level functions accumulating into
   [t.exec_cost] so the interpreter allocates no closures. *)
let[@inline] mem_read t tid addr w =
  (match t.hooks.on_mem_read with
  | Some f -> f tid addr (Insn.width_bytes w)
  | None -> ());
  t.exec_cost <- t.exec_cost + mem_cost t addr;
  load t addr w

let[@inline] mem_write t tid addr w v =
  (match t.hooks.on_mem_write with
  | Some f -> f tid addr (Insn.width_bytes w)
  | None -> ());
  t.exec_cost <- t.exec_cost + mem_cost t addr;
  store t addr w v

let[@inline] push t tid g v =
  let sp = Int64.sub (Context.get64 g rsp_off) 8L in
  Context.set64 g rsp_off sp;
  mem_write t tid sp W64 v

let[@inline] pop t tid g =
  let sp = Context.get64 g rsp_off in
  let v = mem_read t tid sp W64 in
  Context.set64 g rsp_off (Int64.add sp 8L);
  v

let[@inline] branch_to t tid ctx pc target taken =
  t.exec_cost <-
    t.exec_cost + Timing.branch_cost t.timing ~pc:(Int64.to_int pc) ~taken;
  (match t.hooks.on_branch with Some f -> f tid pc target taken | None -> ());
  if taken then ctx.Context.rip <- target

(* Execute [ins] for thread [th]; RIP already points past it. The
   instruction's dynamic cycle cost (cache, branch, pause) is left in
   [t.exec_cost], and the caller charges it, with the static class
   cost, once the instruction completed. A syscall handler charges
   [th.cycles] itself. *)
let execute t th pc ins =
  let ctx = th.ctx in
  let g = ctx.Context.gprs in
  let flags = ctx.Context.flags in
  let tid = th.tid in
  t.exec_cost <- 0;
  match ins with
  | Insn.Mov_ri (r, v) -> set ctx r v
  | Mov_rr (d, s) -> set ctx d (get ctx s)
  | Load (w, r, m) -> set ctx r (mem_read t tid (effective_address g m) w)
  | Store (w, m, r) ->
      let v = get ctx r in
      mem_write t tid (effective_address g m) w v
  | Lea (r, m) -> set ctx r (effective_address g m)
  | Alu_rr (op, d, s) ->
      let r = alu flags op (get ctx d) (get ctx s) in
      if alu_writes op then set ctx d r
  | Alu_ri (op, d, imm) ->
      let r = alu flags op (get ctx d) imm in
      if alu_writes op then set ctx d r
  | Shift_ri (op, d, n) -> set ctx d (exec_shift flags op (get ctx d) n)
  | Neg d -> set ctx d (alu_sub flags 0L (get ctx d))
  | Push r -> push t tid g (get ctx r)
  | Pop r -> set ctx r (pop t tid g)
  | Jmp rel ->
      branch_to t tid ctx pc (Int64.add ctx.Context.rip (Int64.of_int rel)) true
  | Jcc (c, rel) ->
      let taken = eval_cond flags c in
      branch_to t tid ctx pc (Int64.add ctx.Context.rip (Int64.of_int rel)) taken
  | Jmp_r r -> branch_to t tid ctx pc (get ctx r) true
  | Jmp_m m ->
      let target = mem_read t tid (effective_address g m) W64 in
      branch_to t tid ctx pc target true
  | Call rel ->
      push t tid g ctx.Context.rip;
      branch_to t tid ctx pc (Int64.add ctx.Context.rip (Int64.of_int rel)) true
  | Call_r r ->
      push t tid g ctx.Context.rip;
      branch_to t tid ctx pc (get ctx r) true
  | Ret -> branch_to t tid ctx pc (pop t tid g) true
  | Syscall -> (
      let action =
        match t.syscall_filter with
        | Some f -> f t tid
        | None -> Run_syscall
      in
      match action with
      | Run_syscall -> t.syscall_handler t tid
      | Skip_syscall -> ())
  | Cpuid ->
      (* Vendor string "VX86" in RBX; leaves a recognisable marker. *)
      (match t.hooks.on_marker with Some f -> f tid ins | None -> ());
      set ctx RAX 1L;
      set ctx RBX 0x36385856L;
      set ctx RCX 0L;
      set ctx RDX 0L
  | Nop -> ()
  | Ssc_marker _ | Magic _ -> (
      match t.hooks.on_marker with Some f -> f tid ins | None -> ())
  | Pause -> t.exec_cost <- t.exec_cost + 10
  | Xchg (r, m) ->
      let addr = effective_address g m in
      let old = mem_read t tid addr W64 in
      mem_write t tid addr W64 (get ctx r);
      set ctx r old
  | Cmpxchg (m, r) ->
      let addr = effective_address g m in
      let old = mem_read t tid addr W64 in
      if Int64.equal old (get ctx RAX) then begin
        mem_write t tid addr W64 (get ctx r);
        flags.zf <- true
      end
      else begin
        set ctx RAX old;
        flags.zf <- false
      end
  | Ldctx r ->
      let img = Addr_space.read_bytes t.mem (get ctx r) Context.xsave_size in
      Context.xrstor ctx img
  | Stctx r -> Addr_space.write_bytes t.mem (get ctx r) (Context.xsave ctx)
  | Wrfsbase r -> ctx.Context.fs_base <- get ctx r
  | Wrgsbase r -> ctx.Context.gs_base <- get ctx r
  | Rdfsbase r -> set ctx r ctx.Context.fs_base
  | Rdgsbase r -> set ctx r ctx.Context.gs_base
  | Popf ->
      let fl = Reg.flags_of_word (pop t tid g) in
      flags.zf <- fl.zf;
      flags.sf <- fl.sf;
      flags.cf <- fl.cf;
      flags.ovf <- fl.ovf
  | Pushf -> push t tid g (Reg.flags_to_word flags)
  | Vload (x, m) ->
      let xmm = ctx.Context.xmm in
      let addr = effective_address g m in
      Bytes.set_int64_le xmm (lane_off x 0) (mem_read t tid addr W64);
      Bytes.set_int64_le xmm (lane_off x 1)
        (mem_read t tid (Int64.add addr 8L) W64)
  | Vstore (m, x) ->
      let xmm = ctx.Context.xmm in
      let addr = effective_address g m in
      mem_write t tid addr W64 (Bytes.get_int64_le xmm (lane_off x 0));
      mem_write t tid (Int64.add addr 8L) W64
        (Bytes.get_int64_le xmm (lane_off x 1))
  | Vop_rr (op, d, s) ->
      let xmm = ctx.Context.xmm in
      for lane = 0 to 1 do
        Bytes.set_int64_le xmm (lane_off d lane)
          (float_lane_op op
             (Bytes.get_int64_le xmm (lane_off d lane))
             (Bytes.get_int64_le xmm (lane_off s lane)))
      done
  | Hlt -> raise (Addr_space.Fault { addr = pc; access = Exec })
  | Ud2 -> raise (Addr_space.Fault { addr = pc; access = Exec })

(* --- Micro-op compilation ---------------------------------------------- *)

let uop_nop : t -> thread -> unit = fun _t _th -> ()

(* The micro-ops' memory access: the cache walk first, then the access;
   the cost lands in [dyn_cost] only once the access succeeded. *)
let[@inline] uload t addr w =
  let c = mem_cost t addr in
  let v = load t addr w in
  t.dyn_cost <- t.dyn_cost + c;
  v

let[@inline] ustore t addr w v =
  let c = mem_cost t addr in
  store t addr w v;
  t.dyn_cost <- t.dyn_cost + c

let[@inline] upush t g v =
  let sp = Int64.sub (Context.get64 g rsp_off) 8L in
  Context.set64 g rsp_off sp;
  ustore t sp W64 v

let[@inline] upop t g =
  let sp = Context.get64 g rsp_off in
  let v = uload t sp W64 in
  Context.set64 g rsp_off (Int64.add sp 8L);
  v

(* A taken branch, call or return: predictor update and the target. *)
let[@inline] jump_to t ctx pci target =
  t.dyn_cost <- t.dyn_cost + Timing.branch_cost t.timing ~pc:pci ~taken:true;
  ctx.Context.rip <- target

(* A taken direct branch or call also records the edge index the chain
   executor reads. *)
let[@inline] jump_taken t ctx pci target =
  t.took <- 1;
  jump_to t ctx pci target

(* A conditional branch: both successor RIPs pre-boxed in a pair
   [tgts] indexed by the branch direction, so a data-dependent guest
   branch becomes a host array load instead of a (frequently
   mispredicted) host branch. *)
let[@inline] jump_cond t ctx pci tgts taken =
  t.dyn_cost <- t.dyn_cost + Timing.branch_cost t.timing ~pc:pci ~taken;
  let ti = Bool.to_int taken in
  t.took <- ti;
  ctx.Context.rip <- Array.unsafe_get tgts ti

(* Compile one instruction to its micro-op form. Contract: the
   closure performs exactly what [execute] does when every hook is
   absent, except that (a) static class cost is accounted by the caller
   through [bb_prefix] and (b) dynamic cost (cache misses, branch
   prediction, [Pause]) is accumulated into [t.dyn_cost]. Cache and
   predictor state are touched in the same order as [execute], and a
   faulting micro-op leaves all of its own cost out of [dyn_cost],
   mirroring [execute] discarding [exec_cost] when the fault unwinds it.
   Operands — register byte offsets, addressing modes, the operation —
   are resolved here, at translation; the closure body matches on the
   captured operation through the [@inline] helpers above. It allocates
   nothing, except the boxed target an indirect branch, call or return
   stores in RIP and the slow path of a page-crossing access.

   [pc] is the instruction's address and [next] the address just past
   it — both block-translation constants, so a branch's relative target
   is resolved here, at compile time ([execute] sees RIP already
   advanced to [next], hence target = next + rel). Branches only ever
   terminate a block; they are compiled so the chain executor can retire
   the terminator too. Syscalls, markers and traps always run through
   [execute].

   Unlike [execute], a micro-op does NOT expect RIP to be advanced
   beforehand — the caller skips that per-instruction store, and the
   executor repairs RIP once on exit. The forms that observe RIP bake
   in the [next] constant instead: every branch sets RIP
   unconditionally (a non-taken [Jcc] writes [next]), calls push
   [next], and the [execute] fallback advances RIP itself.

   [flags_dead] comes from the chain tier's liveness pass: when true,
   every flag this instruction would write is overwritten before any
   read, fault point or chain exit, so ALU/shift/neg forms skip flag
   materialisation ([Cmp]/[Test] become complete no-ops). Exact
   semantics ([flags_dead = false]) remain the fallback everywhere. *)
let compile_ins ~pc ~next ?(flags_dead = false) (ins : Insn.t) :
    t -> thread -> unit =
  let off = Context.gpr_offset and pci = Int64.to_int pc in
  match ins with
  | Insn.Alu_rr (op, d, s) when flags_dead ->
      if alu_writes op then begin
        let d = off d and s = off s in
        fun _t th ->
          let g = th.ctx.Context.gprs in
          Context.set64 g d (pure_alu op (Context.get64 g d) (Context.get64 g s))
      end
      else uop_nop
  | Alu_ri (op, d, imm) when flags_dead ->
      if alu_writes op then begin
        let d = off d in
        fun _t th ->
          let g = th.ctx.Context.gprs in
          Context.set64 g d (pure_alu op (Context.get64 g d) imm)
      end
      else uop_nop
  | Shift_ri (op, d, n) when flags_dead && n > 0 ->
      let d = off d in
      fun _t th ->
        let g = th.ctx.Context.gprs in
        Context.set64 g d (pure_shift op (Context.get64 g d) n)
  | Neg d when flags_dead ->
      let d = off d in
      fun _t th ->
        let g = th.ctx.Context.gprs in
        Context.set64 g d (Int64.neg (Context.get64 g d))
  | Insn.Jmp rel ->
      let target = Int64.add next (Int64.of_int rel) in
      fun t th -> jump_taken t th.ctx pci target
  | Jcc (c, rel) ->
      let tgts = [| next; Int64.add next (Int64.of_int rel) |] in
      fun t th ->
        let ctx = th.ctx in
        jump_cond t ctx pci tgts (eval_cond ctx.Context.flags c)
  | Jmp_r r ->
      let r = off r in
      fun t th ->
        let ctx = th.ctx in
        jump_to t ctx pci (Context.get64 ctx.Context.gprs r)
  | Jmp_m m ->
      let a = amode m in
      fun t th ->
        let ctx = th.ctx in
        jump_to t ctx pci (uload t (ea ctx.Context.gprs a) W64)
  | Call rel ->
      let target = Int64.add next (Int64.of_int rel) in
      fun t th ->
        let ctx = th.ctx in
        upush t ctx.Context.gprs next;
        jump_taken t ctx pci target
  | Call_r r ->
      let r = off r in
      fun t th ->
        let ctx = th.ctx in
        let g = ctx.Context.gprs in
        upush t g next;
        (* Target read after the push, as [execute] does (a call through
           RSP sees the decremented stack pointer). *)
        jump_to t ctx pci (Context.get64 g r)
  | Ret ->
      fun t th ->
        let ctx = th.ctx in
        jump_to t ctx pci (upop t ctx.Context.gprs)
  | Insn.Mov_ri (r, v) ->
      let r = off r in
      fun _t th -> Context.set64 th.ctx.Context.gprs r v
  | Mov_rr (d, s) ->
      let d = off d and s = off s in
      fun _t th ->
        let g = th.ctx.Context.gprs in
        Context.set64 g d (Context.get64 g s)
  | Load (w, r, m) ->
      let a = amode m and r = off r in
      fun t th ->
        let g = th.ctx.Context.gprs in
        Context.set64 g r (uload t (ea g a) w)
  | Store (w, m, r) ->
      let a = amode m and r = off r in
      fun t th ->
        let g = th.ctx.Context.gprs in
        let v = Context.get64 g r in
        ustore t (ea g a) w v
  | Lea (r, m) ->
      let a = amode m and r = off r in
      fun _t th ->
        let g = th.ctx.Context.gprs in
        Context.set64 g r (ea g a)
  | Alu_rr (op, d, s) ->
      let writes = alu_writes op and d = off d and s = off s in
      fun _t th ->
        let ctx = th.ctx in
        let g = ctx.Context.gprs in
        let r = alu ctx.Context.flags op (Context.get64 g d) (Context.get64 g s) in
        if writes then Context.set64 g d r
  | Alu_ri (op, d, imm) ->
      let writes = alu_writes op and d = off d in
      fun _t th ->
        let ctx = th.ctx in
        let g = ctx.Context.gprs in
        let r = alu ctx.Context.flags op (Context.get64 g d) imm in
        if writes then Context.set64 g d r
  | Shift_ri (op, d, n) ->
      let d = off d in
      fun _t th ->
        let ctx = th.ctx in
        let g = ctx.Context.gprs in
        Context.set64 g d (exec_shift ctx.Context.flags op (Context.get64 g d) n)
  | Neg d ->
      let d = off d in
      fun _t th ->
        let ctx = th.ctx in
        let g = ctx.Context.gprs in
        Context.set64 g d (alu_sub ctx.Context.flags 0L (Context.get64 g d))
  | Push r ->
      let r = off r in
      fun t th ->
        let g = th.ctx.Context.gprs in
        upush t g (Context.get64 g r)
  | Pop r ->
      let r = off r in
      fun t th ->
        let g = th.ctx.Context.gprs in
        let v = upop t g in
        Context.set64 g r v
  | Vload (x, m) ->
      let a = amode m and l0 = lane_off x 0 and l1 = lane_off x 1 in
      fun t th ->
        let ctx = th.ctx in
        let xmm = ctx.Context.xmm in
        let addr = ea ctx.Context.gprs a in
        (* Both lanes' costs land only once both accesses succeeded; the
           first lane is written before the second is read, as in
           [execute]. *)
        let c0 = mem_cost t addr in
        let v0 = load t addr W64 in
        Bytes.set_int64_le xmm l0 v0;
        let addr1 = Int64.add addr 8L in
        let c1 = mem_cost t addr1 in
        let v1 = load t addr1 W64 in
        Bytes.set_int64_le xmm l1 v1;
        t.dyn_cost <- t.dyn_cost + c0 + c1
  | Vstore (m, x) ->
      let a = amode m and l0 = lane_off x 0 and l1 = lane_off x 1 in
      fun t th ->
        let ctx = th.ctx in
        let xmm = ctx.Context.xmm in
        let addr = ea ctx.Context.gprs a in
        let c0 = mem_cost t addr in
        store t addr W64 (Bytes.get_int64_le xmm l0);
        let addr1 = Int64.add addr 8L in
        let c1 = mem_cost t addr1 in
        store t addr1 W64 (Bytes.get_int64_le xmm l1);
        t.dyn_cost <- t.dyn_cost + c0 + c1
  | Vop_rr (op, d, s) ->
      let d0 = lane_off d 0 and d1 = lane_off d 1 in
      let s0 = lane_off s 0 and s1 = lane_off s 1 in
      fun _t th ->
        let xmm = th.ctx.Context.xmm in
        Bytes.set_int64_le xmm d0
          (float_lane_op op (Bytes.get_int64_le xmm d0) (Bytes.get_int64_le xmm s0));
        Bytes.set_int64_le xmm d1
          (float_lane_op op (Bytes.get_int64_le xmm d1) (Bytes.get_int64_le xmm s1))
  | Nop -> uop_nop
  | Pause -> fun t _th -> t.dyn_cost <- t.dyn_cost + 10
  | ins ->
      fun t th ->
        th.ctx.Context.rip <- next;
        execute t th pc ins;
        t.dyn_cost <- t.dyn_cost + t.exec_cost

(* --- Flag liveness ------------------------------------------------------ *)

(* How an instruction interacts with the four materialised flags
   (ZF/SF/CF/OVF), as seen by the backward liveness pass.

   [F_observe] is deliberately broad: it covers true readers ([Jcc],
   [Pushf]) and every instruction that can fault or falls back to
   [execute] (memory forms, syscalls, markers, traps). Treating a
   potential fault point as a reader forces all earlier flag writes to
   materialise, which makes the flags architecturally exact at every
   fault — so elision never needs fault-time re-materialisation
   machinery: exactness holds by construction. *)
type flag_class = F_kill | F_neutral | F_observe

let flag_class (ins : Insn.t) =
  match ins with
  | Insn.Alu_rr _ | Alu_ri _ | Neg _ -> F_kill
  | Shift_ri (_, _, n) -> if n > 0 then F_kill else F_neutral
  | Mov_ri _ | Mov_rr _ | Lea _ | Nop | Pause | Jmp _ | Jmp_r _ -> F_neutral
  | _ -> F_observe

(* Conservative may-write-memory predicate: listed forms are provably
   store-free, anything else (including every [execute] fallback) is
   assumed to write. Only a writing instruction can dirty a code page,
   i.e. move the decode generation mid-block. *)
let may_write_mem (ins : Insn.t) =
  match ins with
  | Insn.Mov_ri _ | Mov_rr _ | Load _ | Lea _ | Alu_rr _ | Alu_ri _
  | Shift_ri _ | Neg _ | Pop _ | Jmp _ | Jcc _ | Jmp_r _ | Jmp_m _ | Nop
  | Pause | Popf | Vload _ | Vop_rr _ | Rdfsbase _ | Rdgsbase _ | Wrfsbase _
  | Wrgsbase _ | Ldctx _ | Hlt | Ud2 ->
      false
  | _ -> true

(* Provably non-faulting forms (register/immediate only, no memory
   access, not routed through the [execute] fallback). Anything else may
   raise {!Addr_space.Fault}. *)
let may_fault (ins : Insn.t) =
  match ins with
  | Insn.Mov_ri _ | Mov_rr _ | Lea _ | Alu_rr _ | Alu_ri _ | Shift_ri _
  | Neg _ | Jmp _ | Jcc _ | Jmp_r _ | Nop | Pause | Vop_rr _ | Rdfsbase _
  | Rdgsbase _ | Wrfsbase _ | Wrgsbase _ ->
      false
  | _ -> true

(* Raised by a mega-op when a store dirtied a code page mid-block:
   [t.mega_idx] holds the number of completed slots, and — stores being
   flag-observation barriers — the flags are exact at that point. *)
exception Smc_break

(* Compose a block's micro-op array into one straight-line closure for
   whole-block runs: no per-slot array fetch, indirect-call dispatch or
   bounds bookkeeping, and the self-modifying-code re-check collapses
   from every slot to just the store-capable ones ([code_writes] can
   only move at a store). Fault attribution survives composition through
   [t.mega_idx]: each fault-capable slot records its index before
   running, so the handler can repair RIP and report the precise slot
   exactly as the interpreted loop does. *)
let compose_mega (bb_ins : Insn.t array) (uops : (t -> thread -> unit) array) =
  let n = Array.length uops in
  (* Per-slot wrapper carrying the attribution/re-check obligations. *)
  let slot i =
    let u = Array.unsafe_get uops i in
    if may_write_mem bb_ins.(i) && i < n - 1 then (fun t th ->
      (* A last-slot store needs no composed re-check: the hop loop
         re-checks the generation after every completed block. *)
      t.mega_idx <- i;
      u t th;
      if t.mega_cw <> Addr_space.code_writes t.mem then begin
        t.mega_idx <- i + 1;
        raise Smc_break
      end)
    else if may_fault bb_ins.(i) then (fun t th ->
      t.mega_idx <- i;
      u t th)
    else u
  in
  (* Flatten into one arity-specialised sequencing closure: n + 1
     indirect calls per run instead of the 2n - 1 a pairwise fold
     costs. Longer blocks chunk by eight and fold the chunks. *)
  let slots = Array.init n slot in
  let rec seq lo n =
    match n with
    | 1 -> Array.unsafe_get slots lo
    | 2 ->
        let a = slots.(lo) and b = slots.(lo + 1) in
        fun t th ->
          a t th;
          b t th
    | 3 ->
        let a = slots.(lo) and b = slots.(lo + 1) and c = slots.(lo + 2) in
        fun t th ->
          a t th;
          b t th;
          c t th
    | 4 ->
        let a = slots.(lo)
        and b = slots.(lo + 1)
        and c = slots.(lo + 2)
        and d = slots.(lo + 3) in
        fun t th ->
          a t th;
          b t th;
          c t th;
          d t th
    | 5 ->
        let a = slots.(lo)
        and b = slots.(lo + 1)
        and c = slots.(lo + 2)
        and d = slots.(lo + 3)
        and e = slots.(lo + 4) in
        fun t th ->
          a t th;
          b t th;
          c t th;
          d t th;
          e t th
    | 6 ->
        let a = slots.(lo)
        and b = slots.(lo + 1)
        and c = slots.(lo + 2)
        and d = slots.(lo + 3)
        and e = slots.(lo + 4)
        and f = slots.(lo + 5) in
        fun t th ->
          a t th;
          b t th;
          c t th;
          d t th;
          e t th;
          f t th
    | 7 ->
        let a = slots.(lo)
        and b = slots.(lo + 1)
        and c = slots.(lo + 2)
        and d = slots.(lo + 3)
        and e = slots.(lo + 4)
        and f = slots.(lo + 5)
        and g = slots.(lo + 6) in
        fun t th ->
          a t th;
          b t th;
          c t th;
          d t th;
          e t th;
          f t th;
          g t th
    | 8 ->
        let a = slots.(lo)
        and b = slots.(lo + 1)
        and c = slots.(lo + 2)
        and d = slots.(lo + 3)
        and e = slots.(lo + 4)
        and f = slots.(lo + 5)
        and g = slots.(lo + 6)
        and h = slots.(lo + 7) in
        fun t th ->
          a t th;
          b t th;
          c t th;
          d t th;
          e t th;
          f t th;
          g t th;
          h t th
    | n ->
        let a = seq lo 8 and b = seq (lo + 8) (n - 8) in
        fun t th ->
          a t th;
          b t th
  in
  seq 0 n

(* Fuse a [Cmp]/[Test]/[Sub] immediately preceding the block's
   terminating [Jcc] into one micro-op that evaluates the condition
   directly on the operand values (held in OCaml locals) — no flag
   round-trip through the context. Only the chain tier runs this (the
   pair must execute atomically, so only whole-block runs qualify). The
   fused op occupies the compare's slot; the [Jcc] slot becomes a no-op,
   keeping the 1:1 slot/instruction mapping (neither can fault).

   [eager]: materialise the compare's flags exactly as the unfused pair
   would (the always-safe chain variant). When [eager] is false, flag
   materialisation is skipped entirely — the exit-dead variant, legal
   only under the cross-block liveness gate, which guarantees every
   static successor rewrites all four flags before anything observes
   them. *)
let compile_fused_tail ~eager ~jcc_pc ~jcc_next (alu : Insn.t) c ~rel :
    (t -> thread -> unit) option =
  let pci = Int64.to_int jcc_pc in
  let tgts = [| jcc_next; Int64.add jcc_next (Int64.of_int rel) |] in
  let off = Context.gpr_offset in
  match alu with
  | Insn.Alu_ri (Insn.Cmp, r, imm) ->
      let r = off r in
      Some
        (fun t th ->
          let ctx = th.ctx in
          let a = Context.get64 ctx.Context.gprs r in
          if eager then sub_flags ctx.Context.flags a imm (Int64.sub a imm);
          jump_cond t ctx pci tgts (cmp_cond c a imm))
  | Alu_rr (Cmp, d, s) ->
      let d = off d and s = off s in
      Some
        (fun t th ->
          let ctx = th.ctx in
          let g = ctx.Context.gprs in
          let a = Context.get64 g d and b = Context.get64 g s in
          if eager then sub_flags ctx.Context.flags a b (Int64.sub a b);
          jump_cond t ctx pci tgts (cmp_cond c a b))
  | Alu_ri (Test, r, imm) ->
      let r = off r in
      Some
        (fun t th ->
          let ctx = th.ctx in
          let v = Int64.logand (Context.get64 ctx.Context.gprs r) imm in
          if eager then logic_flags ctx.Context.flags v;
          jump_cond t ctx pci tgts (test_cond c v))
  | Alu_rr (Test, d, s) ->
      let d = off d and s = off s in
      Some
        (fun t th ->
          let ctx = th.ctx in
          let g = ctx.Context.gprs in
          let v = Int64.logand (Context.get64 g d) (Context.get64 g s) in
          if eager then logic_flags ctx.Context.flags v;
          jump_cond t ctx pci tgts (test_cond c v))
  | Alu_ri (Sub, r, imm) ->
      (* The loop-backedge idiom (Sub RCX, 1; Jcc Ne head): decrement,
         then compare the PRE-decrement value against the immediate —
         [Sub]'s flags match [Cmp a imm] exactly. *)
      let r = off r in
      Some
        (fun t th ->
          let ctx = th.ctx in
          let g = ctx.Context.gprs in
          let a = Context.get64 g r in
          let v = Int64.sub a imm in
          if eager then sub_flags ctx.Context.flags a imm v;
          Context.set64 g r v;
          jump_cond t ctx pci tgts (cmp_cond c a imm))
  | Alu_rr (Sub, d, s) ->
      let d = off d and s = off s in
      Some
        (fun t th ->
          let ctx = th.ctx in
          let g = ctx.Context.gprs in
          let a = Context.get64 g d and b = Context.get64 g s in
          let v = Int64.sub a b in
          if eager then sub_flags ctx.Context.flags a b v;
          Context.set64 g d v;
          jump_cond t ctx pci tgts (cmp_cond c a b))
  | _ -> None

(* --- Block translation -------------------------------------------------- *)

let max_ins_bytes = 16
let block_window = 512  (* bytes of code decoded per translation *)
let max_block_ins = 64

(* Markers terminate translation too: they are rare, and ending blocks
   at them keeps marker-driven observers on block boundaries. *)
let terminates_block ins =
  match Insn.classify ins with
  | Insn.K_branch | K_call | K_syscall -> true
  | K_alu | K_load | K_store | K_vector -> false
  | K_other -> (
      match ins with
      | Insn.Cpuid | Ssc_marker _ | Magic _ | Hlt | Ud2 -> true
      | _ -> false)

let build_block t pc =
  let buf = Addr_space.read_avail t.mem pc block_window in
  let len = Bytes.length buf in
  let full = len >= block_window in
  let r = Elfie_util.Byteio.Reader.of_bytes buf in
  let acc = ref [] in
  let count = ref 0 in
  let stop = ref false in
  while not !stop do
    let off = Elfie_util.Byteio.Reader.pos r in
    (* When the window filled, stop before an instruction that could be
       cut short by it (encodings are at most [max_ins_bytes]); it will
       head the next block, decoded from a fresh window. *)
    if !count >= max_block_ins || (full && off > block_window - max_ins_bytes)
    then stop := true
    else
      match Codec.decode r with
      | ins ->
          acc := (off, ins, Elfie_util.Byteio.Reader.pos r) :: !acc;
          incr count;
          if terminates_block ins then stop := true
      | exception Codec.Invalid _ ->
          if !count = 0 then
            raise (Addr_space.Fault { addr = pc; access = Exec });
          stop := true
      | exception Elfie_util.Byteio.Truncated _ ->
          (* The first instruction runs off the end of mapped memory:
             the truncation point is the first unmapped byte, the same
             fault address a 16-byte fetch window would report. A later
             instruction merely ends the block here; re-fetching at its
             pc reports the precise fault. *)
          if !count = 0 then
            raise
              (Addr_space.Fault
                 { addr = Int64.add pc (Int64.of_int len); access = Exec });
          stop := true
  done;
  let items = Array.of_list (List.rev !acc) in
  let n = Array.length items in
  let _, ins0, _ = items.(0) in
  let bb_pc = Array.make n 0L in
  let bb_ins = Array.make n ins0 in
  let bb_next = Array.make n 0L in
  let bb_cost = Array.make n 0 in
  Array.iteri
    (fun i (off, ins, end_off) ->
      bb_pc.(i) <- Int64.add pc (Int64.of_int off);
      bb_ins.(i) <- ins;
      bb_next.(i) <- Int64.add pc (Int64.of_int end_off);
      bb_cost.(i) <- Timing.ins_cost (Insn.classify ins))
    items;
  let bb_prefix = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    bb_prefix.(i + 1) <- bb_prefix.(i) + bb_cost.(i)
  done;
  let bb_uops =
    Array.init n (fun i ->
        compile_ins ~pc:bb_pc.(i) ~next:bb_next.(i) bb_ins.(i))
  in
  let bb_ends_block =
    match Insn.classify bb_ins.(n - 1) with
    | Insn.K_branch | K_call | K_syscall -> true
    | K_alu | K_load | K_store | K_vector | K_other -> false
  in
  let bb_tail_batchable =
    match bb_ins.(n - 1) with
    | Insn.Jmp _ | Jcc _ | Jmp_r _ | Jmp_m _ | Call _ | Call_r _ | Ret -> true
    | _ -> false
  in
  let bb_writes_mem = Array.exists may_write_mem bb_ins in
  (* Static successor pcs: only a direct branch/call terminator yields
     chainable edges. *)
  let bb_succ_taken, bb_succ_fall =
    if not bb_tail_batchable then (-1L, -1L)
    else
      let next = bb_next.(n - 1) in
      match bb_ins.(n - 1) with
      | Insn.Jmp rel -> (Int64.add next (Int64.of_int rel), -1L)
      | Jcc (_, rel) -> (Int64.add next (Int64.of_int rel), next)
      | Call rel -> (Int64.add next (Int64.of_int rel), -1L)
      | _ -> (-1L, -1L)
  in
  let bb_kill_prefix =
    let rec go i =
      if i >= n then -1
      else
        match flag_class bb_ins.(i) with
        | F_kill -> i + 1
        | F_neutral -> go (i + 1)
        | F_observe -> -1
    in
    go 0
  in
  (* Chain-variant micro-ops, parameterised on the exit-liveness
     assumption. [exit_dead = false] builds the ALWAYS-SAFE variant:
     flag results dead before any in-block observation point (reader or
     fault-capable slot) are elided, and a compare+Jcc tail fuses with
     eager flag materialisation — exact for any whole-block run, no
     successor knowledge needed. [exit_dead = true] additionally assumes
     the flags are dead at block exit (lazy fusion, trailing elisions):
     legal only under the cross-block gate that every static successor
     starts with a pure full-flag-killing prefix. *)
  let chain_variant ~exit_dead =
    let fused =
      if n >= 2 then
        match bb_ins.(n - 1) with
        | Insn.Jcc (c, rel) ->
            compile_fused_tail ~eager:(not exit_dead) ~jcc_pc:bb_pc.(n - 1)
              ~jcc_next:bb_next.(n - 1) bb_ins.(n - 2) c ~rel
        | _ -> None
      else None
    in
    let fused_at = match fused with Some _ -> n - 2 | None -> n in
    (* Backward pass: [dead] = all four flags overwritten before any
       observation point. An eager fused pair writes the compare's flags
       in full, so it kills like the unfused compare would. *)
    let dead = Array.make n false in
    let d = ref exit_dead in
    for i = n - 1 downto 0 do
      if i >= fused_at then begin
        dead.(i) <- true;
        if i = fused_at && not exit_dead then d := true
      end
      else begin
        dead.(i) <- !d;
        match flag_class bb_ins.(i) with
        | F_kill -> d := true
        | F_neutral -> ()
        | F_observe -> d := false
      end
    done;
    let elides i = dead.(i) && flag_class bb_ins.(i) = F_kill in
    let any = ref (fused <> None) in
    for i = 0 to fused_at - 1 do
      if elides i then any := true
    done;
    if not !any then bb_uops
    else
      Array.init n (fun i ->
          match fused with
          | Some f when i = n - 2 -> f
          | Some _ when i = n - 1 -> uop_nop
          | _ ->
              if elides i then
                compile_ins ~pc:bb_pc.(i) ~next:bb_next.(i) ~flags_dead:true
                  bb_ins.(i)
              else bb_uops.(i))
  in
  let bb_uops_safe = chain_variant ~exit_dead:false in
  (* Exit-dead variant only when a direct taken edge exists — an
     indirect or cut tail leaves an unknown successor, so its exit flags
     must stay exact. *)
  let bb_uops_chain =
    if Int64.equal bb_succ_taken (-1L) then bb_uops_safe
    else chain_variant ~exit_dead:true
  in
  let bb_mega_safe = compose_mega bb_ins bb_uops_safe in
  let bb_mega_chain =
    if bb_uops_chain == bb_uops_safe then bb_mega_safe
    else compose_mega bb_ins bb_uops_chain
  in
  let _, _, span = items.(n - 1) in
  (* Writes into the decoded span must invalidate this translation. *)
  Addr_space.note_code t.mem ~addr:pc ~len:span;
  {
    bb_pc;
    bb_ins;
    bb_next;
    bb_cost;
    bb_prefix;
    bb_uops;
    bb_ends_block;
    bb_tail_batchable;
    bb_writes_mem;
    bb_succ_taken;
    bb_succ_fall;
    bb_kill_prefix;
    bb_mega_safe;
    bb_mega_chain;
    bb_links = [||];
    bb_chain_extra = -2;
  }

let fetch_block t pc =
  let gen = Addr_space.generation t.mem in
  if gen <> t.decode_generation then begin
    Hashtbl.reset t.block_cache;
    t.decode_generation <- gen;
    Array.fill t.block_memo_pc 0 block_memo_size (-1L);
    (* Chain links are pointers between translations of the discarded
       generation: the reset breaks every superblock wholesale, so a
       chain crossing the dirtied page can never survive it. *)
    t.stats.st_sb_broken <- t.stats.st_sb_broken + t.live_links;
    t.live_links <- 0
  end;
  let slot = Int64.to_int pc land (block_memo_size - 1) in
  if Int64.equal (Array.unsafe_get t.block_memo_pc slot) pc then begin
    t.stats.st_memo_hits <- t.stats.st_memo_hits + 1;
    Array.unsafe_get t.block_memo slot
  end
  else begin
    t.stats.st_memo_misses <- t.stats.st_memo_misses + 1;
    let b =
      match Hashtbl.find_opt t.block_cache pc with
      | Some b -> b
      | None ->
          let b = build_block t pc in
          Hashtbl.replace t.block_cache pc b;
          b
    in
    t.block_memo_pc.(slot) <- pc;
    t.block_memo.(slot) <- b;
    b
  end

(* Retirement epilogue shared by every executed instruction: perf
   counter, timer interrupt, warmup mark, armed-counter graceful exit —
   in the historical per-step order. *)
let retire t th =
  th.retired <- Int64.add th.retired 1L;
  t.retired_total <- Int64.add t.retired_total 1L;
  (match t.timer with
  | Some (interval, cycles, rng) ->
      th.timer_left <- th.timer_left - 1;
      if th.timer_left <= 0 then begin
        th.cycles <- Int64.add th.cycles (Int64.of_int cycles);
        t.ring0 <- Int64.add t.ring0 (Int64.of_int cycles);
        th.timer_left <- (interval / 2) + Elfie_util.Rng.int rng interval
      end
  | None -> ());
  (match th.mark_target with
  | Some target when th.retired >= target ->
      th.mark_target <- None;
      th.mark_retired <- Some th.retired;
      th.mark_cycles <- th.cycles;
      if t.stop_on_mark then t.stop_requested <- true
  | Some _ | None -> ());
  match th.counter_target with
  | Some target when th.retired >= target ->
      (* The counter reaches its count even when this very instruction
         made the thread exit (e.g. a region ending in exit_group). *)
      th.counter_fired <- true;
      (match th.state with
      | Runnable -> exit_thread t th.tid ~status:0
      | Exited _ | Faulted _ -> ())
  | Some _ | None -> ()

let record_fault th pc ins addr access =
  (* Ud2/Hlt reuse the fault exception with access=Exec, addr=pc. *)
  match ins with
  | Insn.Ud2 -> th.state <- Faulted (Invalid_opcode pc)
  | Hlt -> th.state <- Faulted (Privileged pc)
  | _ -> th.state <- Faulted (Page_fault { addr; access; pc })

(* Run [b]'s exact micro-ops [0 .. fuel-1]: the first block of a call
   when it cannot run whole. Returns the count of completed micro-ops,
   or [-(idx+1)] when micro-op [idx] faulted (RIP and the thread's fault
   state are already recorded). Stops right after a write that dirtied
   a code page: between system calls (and syscalls never run here —
   they terminate translation and are not tail-batchable) a code-page
   write is the only way the decode generation can move. *)
let run_uops t th (b : bb) fuel =
  let cw = Addr_space.code_writes t.mem in
  let i = ref 0 in
  let fault = ref 0 in
  let brk = ref false in
  while (not !brk) && !i < fuel do
    match (Array.unsafe_get b.bb_uops !i) t th with
    | () ->
        incr i;
        if cw <> Addr_space.code_writes t.mem then brk := true
    | exception Addr_space.Fault { addr; access } ->
        (* The interpreter advances RIP before executing; a fault leaves
           it past the faulting instruction. *)
        let idx = !i in
        th.ctx.Context.rip <- Array.unsafe_get b.bb_next idx;
        record_fault th
          (Array.unsafe_get b.bb_pc idx)
          (Array.unsafe_get b.bb_ins idx)
          addr access;
        fault := -(idx + 1);
        brk := true
  done;
  if !fault <> 0 then !fault else !i

(* Events fire when [retired] reaches the target: a micro-op run must
   stop one instruction short of it so the event fires in the
   interpreter. *)
let[@inline] cap_target fuel target retired =
  let room = Int64.sub target retired in
  if Int64.compare room (Int64.of_int fuel) <= 0 then
    if Int64.compare room 1L < 0 then 0 else Int64.to_int room - 1
  else fuel

(* Largest micro-op budget that keeps every retirement event (timer
   tick, warmup mark, armed counter) strictly outside the run. *)
let[@inline] event_fuel t th limit =
  let fuel =
    match t.timer with
    | Some _ -> if th.timer_left - 1 < limit then th.timer_left - 1 else limit
    | None -> limit
  in
  let fuel =
    match th.mark_target with
    | Some tg -> cap_target fuel tg th.retired
    | None -> fuel
  in
  match th.counter_target with
  | Some tg -> cap_target fuel tg th.retired
  | None -> fuel

(* First chain visit of a direct-tail block: translate both static
   successors eagerly and install the links (the superblock's edges).
   Eager rather than on first traversal of each edge, so a hot backedge
   does not wait for its rarely-taken sibling before the elided variant
   can qualify. A successor that cannot be fetched (unmapped target)
   leaves its link dummy; arriving there exits the chain and the next
   fetch reports the precise fault. Also decides the elision
   gate [bb_chain_extra]: the flag-elided variant is usable only when
   every static successor starts with a pure full-flag-killing prefix
   (so whatever the branch decides, the flags the variant leaves stale
   are rewritten before any observation point), and running it
   additionally requires fuel for this block plus the largest such
   prefix. *)
let resolve_links t (b : bb) =
  let link pc =
    if Int64.equal pc (-1L) then dummy_bb
    else
      match fetch_block t pc with
      | nb ->
          t.stats.st_sb_built <- t.stats.st_sb_built + 1;
          t.live_links <- t.live_links + 1;
          nb
      | exception Addr_space.Fault _ -> dummy_bb
  in
  let lf = link b.bb_succ_fall in
  let lt = link b.bb_succ_taken in
  b.bb_links <- [| lf; lt |];
  let extra =
    if b.bb_mega_chain == b.bb_mega_safe then -1
    else begin
      let edge pc l =
        if Int64.equal pc (-1L) then 0
        else if l == dummy_bb || l.bb_kill_prefix < 0 then -1
        else l.bb_kill_prefix
      in
      let a = edge b.bb_succ_taken lt in
      let f = edge b.bb_succ_fall lf in
      if a < 0 || f < 0 then -1 else if a > f then a else f
    end
  in
  b.bb_chain_extra <- extra

(* The interpreter: instructions [start .. n-1] of [bb], each one
   [execute] plus [retire] with every hook live. Stops early when the
   thread exits or faults, a stop is requested, or a write into a code
   page (or a map/unmap) invalidated the translation mid-block — the
   scheduler loop then re-fetches from a fresh decode. Returns the
   count attempted from the block head. *)
let interpret t th (bb : bb) gen start n =
  let attempted = ref start in
  let continue_ = ref true in
  while !continue_ && !attempted < n do
    let idx = !attempted in
    let pc = Array.unsafe_get bb.bb_pc idx in
    let ins = Array.unsafe_get bb.bb_ins idx in
    (match t.hooks.on_ins with Some f -> f th.tid pc ins | None -> ());
    th.ctx.Context.rip <- Array.unsafe_get bb.bb_next idx;
    incr attempted;
    (match execute t th pc ins with
    | () ->
        th.cycles <-
          Int64.add th.cycles
            (Int64.of_int (Array.unsafe_get bb.bb_cost idx + t.exec_cost));
        retire t th
    | exception Addr_space.Fault { addr; access } ->
        record_fault th pc ins addr access);
    (match th.state with
    | Runnable -> ()
    | Exited _ | Faulted _ -> continue_ := false);
    if t.stop_requested || gen <> Addr_space.generation t.mem then
      continue_ := false
  done;
  !attempted

(* Notify the block observer (count-driven profiler) of the [n]
   instructions attempted from [b]'s head — equivalent to feeding it
   one instruction at a time. *)
let[@inline] observe t th (b : bb) n =
  match t.block_observer with
  | None -> ()
  | Some f ->
      f ~tid:th.tid ~pcs:b.bb_pc ~n
        ~ends_block:(n = Array.length b.bb_pc && b.bb_ends_block)

(* Execute up to [limit] instructions of [th] from its current block —
   the machine's one execution entry point. A hook that observes single
   instructions ([on_ins], [on_mem_read], [on_mem_write], [on_branch])
   sends the block to the interpreter. Otherwise the chain executor
   runs it: whole blocks hop translation-to-translation along
   direct-branch links without returning to the dispatch loop, with
   deferred retirement and one block-observer call per hop (identical
   granularity to per-block dispatch, so BBV slice accounting is
   unchanged). Indirect branches, faults, event-fuel exhaustion,
   invalidations and stop requests break the chain back to dispatch. A
   first block that cannot run whole (syscall, marker or trap tail,
   window cut, or less event fuel than its length) runs its exact
   micro-ops up to the event boundary and the interpreter finishes it.
   Hooks can only appear or vanish from a syscall handler or a marker
   callback, and syscalls and markers both terminate translation, so
   hook presence is invariant within a block.
   Returns how many instructions were attempted (a faulting fetch or
   instruction counts as one, matching the per-step accounting). *)
let exec_block t th limit =
  let pc0 = th.ctx.Context.rip in
  match fetch_block t pc0 with
  | exception Addr_space.Fault { addr; access = _ } ->
      th.state <- Faulted (Page_fault { addr; access = Exec; pc = pc0 });
      1
  | bb ->
      let gen = t.decode_generation in
      let len0 = Array.length bb.bb_ins in
      let n0 = if limit < len0 then limit else len0 in
      let h = t.hooks in
      if
        Option.is_some h.on_ins || Option.is_some h.on_mem_read
        || Option.is_some h.on_mem_write || Option.is_some h.on_branch
      then begin
        let n = interpret t th bb gen 0 n0 in
        observe t th bb n;
        n
      end
      else begin
        let st = t.stats in
        let total = ref 0 in
        (* Retirement is deferred: completed-instruction and cycle
           counts accumulate in unboxed locals and flush into the boxed
           int64 thread counters once per call, not once per hop.
           [budget] keeps event boundaries exact meanwhile. *)
        let retired_acc = ref 0 in
        let acc_cycles = ref 0 in
        let cur = ref bb in
        let looping = ref true in
        let observer_none =
          match t.block_observer with None -> true | Some _ -> false
        in
        (* Event fuel is computed once per call: every retirement target
           (timer, mark, counter) and the caller's limit shrink in
           lockstep with the instructions the chain executes, so a
           single budget decremented per hop gives the same bound as
           recomputing the fuel every hop. *)
        let budget = ref (event_fuel t th limit) in
        let iters = ref 0 in
        let part = ref 0 in
        let faulted = ref false in
        let cut = ref false in
        t.dyn_cost <- 0;
        while !looping do
          let b = !cur in
          let len = Array.length b.bb_uops in
          let fuel = !budget in
          if (not b.bb_tail_batchable) || fuel < len then begin
            (* A syscall/marker/trap tail (or a translation-window cut)
               only the interpreter may run; a block longer than the
               event fuel cannot hop whole. *)
            looping := false;
            if !total > 0 then
              if b.bb_tail_batchable then st.st_x_fuel <- st.st_x_fuel + 1
              else st.st_x_indirect <- st.st_x_indirect + 1
          end
          else begin
            if
              b.bb_chain_extra = -2
              && not (Int64.equal b.bb_succ_taken (-1L))
            then resolve_links t b;
            let links = b.bb_links in
            let linked = Array.length links = 2 in
            let chained =
              b.bb_chain_extra >= 0 && fuel >= len + b.bb_chain_extra
            in
            let mega = if chained then b.bb_mega_chain else b.bb_mega_safe in
            if b.bb_writes_mem then
              t.mega_cw <- Addr_space.code_writes t.mem;
            (* Self-loop turbo: an unobserved block whose hot edge is
               its own head re-runs the mega back to back, paying the
               per-hop bookkeeping once per burst. The iteration
               budget keeps the burst inside the event fuel, and — for
               the flag-elided variant — additionally reserves the
               successor kill prefix so the final iteration still
               meets the elision gate's exit guarantee. Blocks that do
               not link to themselves skip the budget division: their
               burst is a single iteration by construction. *)
            let max_iters =
              if
                observer_none && linked
                && (Array.unsafe_get links 0 == b
                   || Array.unsafe_get links 1 == b)
              then (if chained then fuel - b.bb_chain_extra else fuel) / len
              else 1
            in
            iters := 0;
            part := 0;
            faulted := false;
            cut := false;
            (try
               let go = ref true in
               while !go do
                 mega t th;
                 incr iters;
                 (* [t.took] was just written by the terminator slot;
                    when [max_iters = 1] the short-circuit exits before
                    the (possibly empty) links array is touched. *)
                 if
                   !iters >= max_iters
                   || Array.unsafe_get links t.took != b
                 then go := false
               done
             with
            | Addr_space.Fault { addr; access } ->
                let idx = t.mega_idx in
                th.ctx.Context.rip <- Array.unsafe_get b.bb_next idx;
                record_fault th
                  (Array.unsafe_get b.bb_pc idx)
                  (Array.unsafe_get b.bb_ins idx)
                  addr access;
                part := idx;
                faulted := true;
                cut := true
            | Smc_break ->
                part := t.mega_idx;
                cut := true);
            let ok = (!iters * len) + !part in
            if !part > 0 && !part < len && not !faulted then
              th.ctx.Context.rip <- Array.unsafe_get b.bb_next (!part - 1);
            acc_cycles :=
              !acc_cycles
              + (!iters * Array.unsafe_get b.bb_prefix len)
              + (if !part > 0 then Array.unsafe_get b.bb_prefix !part else 0)
              + t.dyn_cost;
            t.dyn_cost <- 0;
            retired_acc := !retired_acc + ok;
            let attempted = if !faulted then ok + 1 else ok in
            total := !total + attempted;
            budget := !budget - attempted;
            observe t th b attempted;
            if !faulted then begin
              looping := false;
              st.st_x_fault <- st.st_x_fault + 1
            end
            else if
              !cut
              (* Between chain hops the generation can only move from a
                 store (no syscalls run here — they are not
                 tail-batchable) or, conceivably, an observer callback;
                 hops with neither skip the re-check, and a
                 store-bearing hop checks right after itself, so a
                 moved generation is never outrun. *)
              || (b.bb_writes_mem || not observer_none)
                 && gen <> Addr_space.generation t.mem
            then begin
              looping := false;
              st.st_x_inval <- st.st_x_inval + 1
            end
            else if t.stop_requested then begin
              looping := false;
              st.st_x_stop <- st.st_x_stop + 1
            end
            else begin
              (* A whole-block run of a directly-terminated block left
                 the edge index in [t.took]; indirect or cut tails have
                 no links array and exit to dispatch. *)
              let nxt =
                if linked then Array.unsafe_get links t.took else dummy_bb
              in
              if nxt == dummy_bb then begin
                looping := false;
                st.st_x_indirect <- st.st_x_indirect + 1
              end
              else cur := nxt
            end
          end
        done;
        (* The first block cannot run whole: its exact micro-ops run up
           to the event boundary (a syscall, marker or trap tail is left
           out), and once retirement is flushed below the interpreter
           finishes the block, so every event fires on its exact
           instruction. *)
        let partial = !total = 0 in
        let stopped = ref false in
        if partial then begin
          let m = if bb.bb_tail_batchable then len0 else len0 - 1 in
          let fuel = if !budget < m then !budget else m in
          if fuel > 0 then begin
            let r = run_uops t th bb fuel in
            let faulted = r < 0 in
            let ok = if faulted then -r - 1 else r in
            (* Micro-ops skip the per-instruction RIP store; only a
               terminating branch and the fault path write RIP. *)
            if ok > 0 && ok < len0 && not faulted then
              th.ctx.Context.rip <- Array.unsafe_get bb.bb_next (ok - 1);
            retired_acc := ok;
            acc_cycles := Array.unsafe_get bb.bb_prefix ok + t.dyn_cost;
            t.dyn_cost <- 0;
            total := if faulted then ok + 1 else ok;
            stopped :=
              faulted || t.stop_requested || gen <> Addr_space.generation t.mem
          end
        end;
        if !retired_acc > 0 || !acc_cycles > 0 then begin
          let okL = Int64.of_int !retired_acc in
          th.retired <- Int64.add th.retired okL;
          t.retired_total <- Int64.add t.retired_total okL;
          (match t.timer with
          | Some _ -> th.timer_left <- th.timer_left - !retired_acc
          | None -> ());
          th.cycles <- Int64.add th.cycles (Int64.of_int !acc_cycles)
        end;
        if not partial then !total
        else begin
          let n = if !stopped then !total else interpret t th bb gen !total n0 in
          observe t th bb n;
          n
        end
      end

let step t tid =
  let th = thread t tid in
  if th.state <> Runnable then invalid_arg "Machine.step: thread not runnable";
  ignore (exec_block t th 1)

(* Run up to [n] instructions of [tid]; returns how many retired. *)
let run_quantum t tid n limit =
  let th = thread t tid in
  let executed = ref 0 in
  while
    (match th.state with Runnable -> true | Exited _ | Faulted _ -> false)
    && !executed < n
    && (not t.stop_requested)
    && match limit with
       | Some l -> Int64.compare t.retired_total l < 0
       | None -> true
  do
    let room =
      match limit with
      | None -> n - !executed
      | Some l ->
          let left = Int64.sub l t.retired_total in
          let room = n - !executed in
          if Int64.of_int room <= left then room else Int64.to_int left
    in
    executed := !executed + exec_block t th room
  done;
  !executed

let run_thread t tid n = run_quantum t tid n None

let record_slice t tid n =
  if t.record_schedule && n > 0 then begin
    let merged =
      match t.schedule_rev with
      | (tid', n') :: rest when tid' = tid && not t.schedule_cut ->
          (tid, n + n') :: rest
      | rest -> (tid, n) :: rest
    in
    t.schedule_cut <- false;
    t.schedule_rev <- merged
  end

(* The Free scheduler's pick, allocation-free: the runnable count, and
   the [k]-th runnable tid in ascending order (tids index [thread_arr]). *)
let runnable_count t =
  let n = ref 0 in
  for i = 0 to Array.length t.thread_arr - 1 do
    match (Array.unsafe_get t.thread_arr i).state with
    | Runnable -> incr n
    | Exited _ | Faulted _ -> ()
  done;
  !n

let nth_runnable t k =
  let rec go i k =
    match t.thread_arr.(i).state with
    | Runnable -> if k = 0 then i else go (i + 1) (k - 1)
    | Exited _ | Faulted _ -> go (i + 1) k
  in
  go 0 k

let run ?max_ins t =
  let continue_ () =
    (not t.stop_requested)
    && (match max_ins with Some l -> total_retired t < l | None -> true)
  in
  (match t.sched with
  | S_free s ->
      let rec loop () =
        if continue_ () then begin
          match runnable_count t with
          | 0 -> ()
          | runnable ->
              let tid, quantum =
                match s.pending with
                | Some (tid, left) when (thread t tid).state = Runnable ->
                    s.pending <- None;
                    (tid, left)
                | Some _ | None ->
                    let tid = nth_runnable t (Elfie_util.Rng.int s.rng runnable) in
                    let quantum =
                      s.quantum_min
                      + Elfie_util.Rng.int s.rng (s.quantum_max - s.quantum_min + 1)
                    in
                    (* A quantum only exists to interleave threads: with
                       a single runnable thread (and no schedule being
                       recorded, where slice granularity is the output)
                       its size is architecturally invisible, so widen
                       it and spare the dispatch round-trips. The RNG
                       draws above still happen, keeping the stream —
                       and thus any later multi-thread interleaving —
                       identical. *)
                    let quantum =
                      if runnable = 1 && (not t.record_schedule) && quantum < 65536
                      then 65536
                      else quantum
                    in
                    (tid, quantum)
              in
              let n = run_quantum t tid quantum max_ins in
              record_slice t tid n;
              if n < quantum && (thread t tid).state = Runnable then
                s.pending <- Some (tid, quantum - n);
              loop ()
        end
      in
      loop ()
  | S_recorded slices ->
      let rec loop () =
        if continue_ () then
          match !slices with
          | [] -> ()
          | (tid, n) :: rest ->
              slices := rest;
              let th = thread t tid in
              if th.state = Runnable then begin
                let executed = run_quantum t tid n max_ins in
                ignore executed
              end;
              loop ()
      in
      loop ());
  flush_core_metrics t

(* --- Copy-on-write machine snapshots ----------------------------------- *)

(* Everything a forked machine needs, captured by value: the address
   space is frozen (pointer work only), contexts and the timing model
   are copied, RNGs are duplicated at their exact stream position.
   Derived caches (block cache, memo, soft-TLB, chain links) are NOT
   captured — a fork re-translates lazily, which both keeps the capture
   O(pages + threads) and makes forks trivially safe to run on separate
   domains (translated [bb] records hold mutable link arrays that
   [resolve_links] writes; sharing them across forks would race). *)
type snap_thread = {
  sn_tid : int;
  sn_ctx : Context.t;
  sn_state : thread_state;
  sn_retired : int64;
  sn_cycles : int64;
  sn_counter_target : int64 option;
  sn_counter_fired : bool;
  sn_arm_retired : int64;
  sn_arm_cycles : int64;
  sn_mark_target : int64 option;
  sn_mark_retired : int64 option;
  sn_mark_cycles : int64;
  sn_timer_left : int;
}

type snap_sched =
  | Sn_free of {
      rng : Elfie_util.Rng.t;
      quantum_min : int;
      quantum_max : int;
      pending : (int * int) option;
    }
  | Sn_recorded of (int * int) list

type snapshot = {
  snap_mem : Addr_space.frozen;
  snap_threads : snap_thread array;
  snap_timing : Timing.t;  (* private copy; each fork copies it again *)
  snap_sched : snap_sched;
  snap_timer : (int * int * Elfie_util.Rng.t) option;
  snap_ring0 : int64;
  snap_retired_total : int64;
  snap_record_schedule : bool;
  snap_schedule_rev : (int * int) list;
  snap_schedule_cut : bool;
}

let snapshot t =
  Metrics.inc m_snap_captures;
  {
    snap_mem = Addr_space.freeze t.mem;
    snap_threads =
      Array.map
        (fun th ->
          {
            sn_tid = th.tid;
            sn_ctx = Context.copy th.ctx;
            sn_state = th.state;
            sn_retired = th.retired;
            sn_cycles = th.cycles;
            sn_counter_target = th.counter_target;
            sn_counter_fired = th.counter_fired;
            sn_arm_retired = th.arm_retired;
            sn_arm_cycles = th.arm_cycles;
            sn_mark_target = th.mark_target;
            sn_mark_retired = th.mark_retired;
            sn_mark_cycles = th.mark_cycles;
            sn_timer_left = th.timer_left;
          })
        t.thread_arr;
    snap_timing = Timing.copy t.timing;
    snap_sched =
      (match t.sched with
      | S_free s ->
          Sn_free
            {
              rng = Elfie_util.Rng.copy s.rng;
              quantum_min = s.quantum_min;
              quantum_max = s.quantum_max;
              pending = s.pending;
            }
      | S_recorded slices -> Sn_recorded !slices);
    snap_timer =
      Option.map (fun (i, c, rng) -> (i, c, Elfie_util.Rng.copy rng)) t.timer;
    snap_ring0 = t.ring0;
    snap_retired_total = t.retired_total;
    snap_record_schedule = t.record_schedule;
    snap_schedule_rev = t.schedule_rev;
    snap_schedule_cut = t.schedule_cut;
  }

let snapshot_page_count snap = Addr_space.frozen_page_count snap.snap_mem

(* Re-derive the machine's nondeterminism sources from [seed] at the
   current point: the scheduler and timer streams restart from
   seed-derived states and any partially consumed quantum is dropped,
   so the continuation depends only on (architectural state, seed).
   Applying the same seed to a fork and to an identically warmed fresh
   machine yields bit-identical continuations — the per-trial variation
   handle for warm-once/fork-many measurement. *)
let reseed t seed =
  let base = Elfie_util.Rng.create seed in
  (match t.sched with
  | S_free s ->
      Elfie_util.Rng.reseed s.rng (Elfie_util.Rng.next64 base);
      s.pending <- None
  | S_recorded _ -> ());
  match t.timer with
  | Some (_, _, rng) -> Elfie_util.Rng.reseed rng (Elfie_util.Rng.next64 base)
  | None -> ()

let clear_stop t = t.stop_requested <- false
let set_stop_on_mark t b = t.stop_on_mark <- b

let fork ?reseed:seed snap =
  Metrics.inc m_snap_forks;
  let thread_arr =
    Array.map
      (fun sn ->
        {
          tid = sn.sn_tid;
          ctx = Context.copy sn.sn_ctx;
          state = sn.sn_state;
          retired = sn.sn_retired;
          cycles = sn.sn_cycles;
          counter_target = sn.sn_counter_target;
          counter_fired = sn.sn_counter_fired;
          arm_retired = sn.sn_arm_retired;
          arm_cycles = sn.sn_arm_cycles;
          mark_target = sn.sn_mark_target;
          mark_retired = sn.sn_mark_retired;
          mark_cycles = sn.sn_mark_cycles;
          timer_left = sn.sn_timer_left;
        })
      snap.snap_threads
  in
  let sched =
    match snap.snap_sched with
    | Sn_free s ->
        S_free
          {
            rng = Elfie_util.Rng.copy s.rng;
            quantum_min = s.quantum_min;
            quantum_max = s.quantum_max;
            pending = s.pending;
          }
    | Sn_recorded slices -> S_recorded (ref slices)
  in
  let m =
    {
      mem = Addr_space.fork snap.snap_mem;
      thread_list = List.rev (Array.to_list thread_arr);
      thread_arr;
      hooks = fresh_hooks ();
      timing = Timing.copy snap.snap_timing;
      sched;
      syscall_handler =
        (fun _ _ -> failwith "Machine: no syscall handler installed");
      syscall_filter = None;
      stop_requested = false;
      ring0 = snap.snap_ring0;
      retired_total = snap.snap_retired_total;
      record_schedule = snap.snap_record_schedule;
      schedule_rev = snap.snap_schedule_rev;
      schedule_cut = snap.snap_schedule_cut;
      block_cache = Hashtbl.create 1024;
      decode_generation = -1;
      timer =
        Option.map
          (fun (i, c, rng) -> (i, c, Elfie_util.Rng.copy rng))
          snap.snap_timer;
      exec_cost = 0;
      dyn_cost = 0;
      block_memo_pc = Array.make block_memo_size (-1L);
      block_memo = Array.make block_memo_size dummy_bb;
      block_observer = None;
      mega_idx = 0;
      mega_cw = 0;
      took = 0;
      live_links = 0;
      stats = fresh_stats ();
      stats_flushed = fresh_stats ();
      cow_flushed = 0;
      stop_on_mark = false;
    }
  in
  (match seed with Some s -> reseed m s | None -> ());
  m
