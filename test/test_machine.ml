(* Tests for the machine substrate: address space, contexts, caches,
   timing, and the interpreter's instruction semantics. *)

open Elfie_isa
open Elfie_isa.Insn
open Elfie_machine

(* --- address space -------------------------------------------------------- *)

let test_as_map_rw () =
  let m = Addr_space.create () in
  Addr_space.map m ~addr:0x1000L ~len:4096;
  Addr_space.write m 0x1000L 8 0x1122334455667788L;
  Alcotest.check Tutil.i64 "u64" 0x1122334455667788L (Addr_space.read m 0x1000L 8);
  Alcotest.check Tutil.i64 "u8 zero-extended" 0x88L (Addr_space.read m 0x1000L 1);
  Alcotest.check Tutil.i64 "u16" 0x7788L (Addr_space.read m 0x1000L 2);
  Alcotest.check Tutil.i64 "u32" 0x55667788L (Addr_space.read m 0x1000L 4)

let test_as_cross_page () =
  let m = Addr_space.create () in
  Addr_space.map m ~addr:0x1000L ~len:8192;
  Addr_space.write m 0x1ffcL 8 0xabcdef0123456789L;
  Alcotest.check Tutil.i64 "crosses page" 0xabcdef0123456789L
    (Addr_space.read m 0x1ffcL 8)

let test_as_fault () =
  let m = Addr_space.create () in
  (try
     ignore (Addr_space.read m 0x5000L 8);
     Alcotest.fail "expected fault"
   with Addr_space.Fault { addr; access = Addr_space.Read } ->
     Alcotest.check Tutil.i64 "fault addr" 0x5000L addr);
  Addr_space.map m ~addr:0x5000L ~len:1;
  Alcotest.check Tutil.i64 "mapped now" 0L (Addr_space.read m 0x5000L 8)

let test_as_unmap () =
  let m = Addr_space.create () in
  Addr_space.map m ~addr:0x1000L ~len:8192;
  Addr_space.unmap m ~addr:0x1000L ~len:4096;
  Alcotest.(check bool) "first gone" false (Addr_space.is_mapped m 0x1000L);
  Alcotest.(check bool) "second kept" true (Addr_space.is_mapped m 0x2000L)

let test_as_store_and_pages () =
  let m = Addr_space.create () in
  Addr_space.store m 0x2ff0L (Bytes.make 32 'x');
  Alcotest.(check int) "two pages mapped" 2 (Addr_space.page_count m);
  let pages = Addr_space.pages m in
  Alcotest.check Tutil.i64 "sorted first" 0x2000L (fst (List.hd pages))

let test_as_copy_isolated () =
  let m = Addr_space.create () in
  Addr_space.store m 0x1000L (Bytes.of_string "aaaa");
  let c = Addr_space.copy m in
  Addr_space.write m 0x1000L 1 0x62L;
  Alcotest.check Tutil.i64 "copy unchanged" (Int64.of_int (Char.code 'a'))
    (Addr_space.read c 0x1000L 1)

let test_as_read_avail' () =
  let m = Addr_space.create () in
  Addr_space.map m ~addr:0x1000L ~len:4096;
  (* Starts mapped, truncates at the unmapped page. *)
  let b = Addr_space.read_avail m 0x1ff8L 16 in
  Alcotest.(check int) "truncated at boundary" 8 (Bytes.length b)

let test_as_generation () =
  let m = Addr_space.create () in
  let g0 = Addr_space.generation m in
  Addr_space.map m ~addr:0L ~len:1;
  Alcotest.(check bool) "bumped" true (Addr_space.generation m > g0)

(* Property: the paged address space behaves like a flat byte map under
   random mapped writes and reads. *)
let prop_addr_space_model =
  let op_gen =
    let open QCheck.Gen in
    let addr = map (fun a -> Int64.of_int (a land 0xffff)) int in
    let width = oneofl [ 1; 2; 4; 8 ] in
    oneof
      [ map2 (fun a v -> `Write (a, v)) addr (map Int64.of_int int);
        map (fun a -> `Read a) addr ]
    |> fun g -> pair g width
  in
  QCheck.Test.make ~name:"addr_space matches a flat reference model" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 100) (make op_gen))
    (fun ops ->
      let m = Addr_space.create () in
      Addr_space.map m ~addr:0L ~len:0x10000;
      let reference = Bytes.make 0x10000 '\000' in
      let ref_read a w =
        let acc = ref 0L in
        for i = w - 1 downto 0 do
          let idx = (Int64.to_int a + i) land 0xffff in
          acc :=
            Int64.logor
              (Int64.shift_left !acc 8)
              (Int64.of_int (Char.code (Bytes.get reference idx)))
        done;
        !acc
      in
      List.for_all
        (fun (op, w) ->
          match op with
          | `Write (a, v) when Int64.to_int a + w <= 0x10000 ->
              Addr_space.write m a w v;
              for i = 0 to w - 1 do
                Bytes.set reference
                  (Int64.to_int a + i)
                  (Char.chr
                     (Int64.to_int
                        (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL)))
              done;
              true
          | `Write _ -> true
          | `Read a when Int64.to_int a + w <= 0x10000 ->
              Addr_space.read m a w = ref_read a w
          | `Read _ -> true)
        ops)

(* --- context -------------------------------------------------------------- *)

let test_context_roundtrip () =
  let c = Context.create () in
  Context.set c Reg.RAX 42L;
  Context.set c Reg.R15 (-1L);
  c.Context.rip <- 0xdeadL;
  c.Context.fs_base <- 0x1000L;
  c.Context.flags.Reg.zf <- true;
  Context.set_xmm_lane c 7 1 0x1234L;
  let c' = Context.of_bytes (Context.to_bytes c) in
  Alcotest.(check bool) "equal" true (Context.equal c c')

let test_xsave_roundtrip () =
  let c = Context.create () in
  Context.set_xmm_lane c 0 0 111L;
  Context.set_xmm_lane c 15 1 222L;
  let img = Context.xsave c in
  let c2 = Context.create () in
  Context.xrstor c2 img;
  Alcotest.check Tutil.i64 "lane 0" 111L (Context.xmm_lane c2 0 0);
  Alcotest.check Tutil.i64 "lane 31" 222L (Context.xmm_lane c2 15 1);
  Alcotest.check_raises "short image" (Invalid_argument "Context.xrstor: short image")
    (fun () -> Context.xrstor c2 (Bytes.create 3))

let test_context_copy_isolated () =
  let c = Context.create () in
  Context.set c Reg.RBX 7L;
  let c' = Context.copy c in
  Context.set c Reg.RBX 8L;
  Alcotest.check Tutil.i64 "copy keeps value" 7L (Context.get c' Reg.RBX)

(* --- cache ---------------------------------------------------------------- *)

let test_cache_hit_miss () =
  let c = Cache.create (Cache.config ~size_bytes:1024 ~ways:2 ~line_bytes:64) in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0L);
  Alcotest.(check bool) "hit" true (Cache.access c 8L);
  Alcotest.(check int) "stats" 1 (Cache.hits c);
  Alcotest.(check int) "stats" 1 (Cache.misses c)

let test_cache_lru_eviction () =
  (* 2 ways, 8 sets; three lines mapping to set 0 evict the oldest. *)
  let c = Cache.create (Cache.config ~size_bytes:1024 ~ways:2 ~line_bytes:64) in
  let line n = Int64.of_int (n * 512) in
  ignore (Cache.access c (line 0));
  ignore (Cache.access c (line 1));
  ignore (Cache.access c (line 0));
  (* line 1 is now LRU *)
  ignore (Cache.access c (line 2));
  Alcotest.(check bool) "line0 kept" true (Cache.access c (line 0));
  Alcotest.(check bool) "line1 evicted" false (Cache.access c (line 1))

let test_cache_flush () =
  let c = Cache.create (Cache.config ~size_bytes:1024 ~ways:2 ~line_bytes:64) in
  ignore (Cache.access c 0L);
  ignore (Cache.access c 64L);
  ignore (Cache.access c 0L);
  Cache.flush c;
  Alcotest.(check bool) "flushed" false (Cache.access c 0L)

let rejects ~size_bytes ~ways ~line_bytes =
  match Cache.config ~size_bytes ~ways ~line_bytes with
  | _ -> Alcotest.failf "accepted %d/%d/%d" size_bytes ways line_bytes
  | exception Invalid_argument _ -> ()

let test_cache_rejects_size () =
  (* A zero size would give a set mask of -1: out-of-bounds tag reads. *)
  rejects ~size_bytes:0 ~ways:2 ~line_bytes:64;
  rejects ~size_bytes:(-1024) ~ways:2 ~line_bytes:64

let test_cache_rejects_ways () =
  (* Zero ways would divide by zero inside [config]. *)
  rejects ~size_bytes:1024 ~ways:0 ~line_bytes:64;
  rejects ~size_bytes:1024 ~ways:(-2) ~line_bytes:64

let test_cache_rejects_line_size () =
  (* Below four bytes, the line number of an address with the top bit
     set wraps negative: with 1- or 2-byte lines, address -1 would map
     to the invalid tag and a cold access would report a hit. *)
  rejects ~size_bytes:1024 ~ways:2 ~line_bytes:0;
  rejects ~size_bytes:1024 ~ways:2 ~line_bytes:1;
  rejects ~size_bytes:1024 ~ways:2 ~line_bytes:2;
  rejects ~size_bytes:1024 ~ways:2 ~line_bytes:48;
  let c = Cache.create (Cache.config ~size_bytes:1024 ~ways:2 ~line_bytes:4) in
  Alcotest.(check bool) "top line is a cold miss" false (Cache.access c (-1L));
  Alcotest.(check bool) "then a hit" true (Cache.access c (-1L))

(* Differential check against the stamp-LRU model in cache_oracle.ml:
   identical hit/miss on every access and identical counters, across
   geometries, flushes and mid-stream copies. *)
let test_cache_matches_oracle () =
  let rng = Random.State.make [| 0xcac4e |] in
  (* Line numbers drawn from a pool about three times the capacity give
     a mix of hits, conflict misses and cold misses; a tenth of the
     accesses repeat the previous address, and some carry the kernel's
     high address bits or an arbitrary 64-bit value. *)
  let stream ~line_bytes ~lines n =
    let prev = ref 0L in
    List.init n (fun _ ->
        let a =
          match Random.State.int rng 20 with
          | 0 | 1 -> !prev
          | 2 -> Random.State.bits64 rng
          | 3 ->
              Int64.logor 0xffff_8800_0000_0000L
                (Int64.of_int (Random.State.int rng (3 * lines) * line_bytes))
          | _ ->
              Int64.of_int
                ((Random.State.int rng (3 * lines) * line_bytes)
                + Random.State.int rng line_bytes)
        in
        prev := a;
        a)
  in
  let drive name c o addrs =
    List.iteri
      (fun i a ->
        if Random.State.int rng 500 = 0 then begin
          Cache.flush c;
          Cache_oracle.flush o
        end;
        let want = Cache_oracle.access o a in
        if Cache.access c a <> want then
          Alcotest.failf "%s access %d (0x%Lx): oracle hit=%b" name i a want)
      addrs;
    Alcotest.(check int) (name ^ " hits") (Cache_oracle.hits o) (Cache.hits c);
    Alcotest.(check int) (name ^ " misses") (Cache_oracle.misses o) (Cache.misses c)
  in
  let geometries =
    (* (sets, ways, line_bytes) *)
    List.init 16 (fun w -> (16, w + 1, 64))
    @ [ (12, 11, 64);  (* CoreSim's 11 LLC ways, non-power-of-two set count *)
        (7, 4, 32);
        (1, 64, 4096);  (* CoreSim's fully associative DTLB *)
        (64, 8, 4) ]
  in
  List.iter
    (fun (sets, ways, line_bytes) ->
      let name = Printf.sprintf "%dx%dx%d" sets ways line_bytes in
      let cfg = Cache.config ~size_bytes:(sets * ways * line_bytes) ~ways ~line_bytes in
      let ocfg =
        Cache_oracle.config ~size_bytes:(sets * ways * line_bytes) ~ways ~line_bytes
      in
      let c = Cache.create cfg and o = Cache_oracle.create ocfg in
      let n = 4000 and lines = sets * ways in
      drive name c o (stream ~line_bytes ~lines n);
      let c' = Cache.copy c and o' = Cache_oracle.copy o in
      drive (name ^ " original") c o (stream ~line_bytes ~lines n);
      drive (name ^ " clone") c' o' (stream ~line_bytes ~lines n))
    geometries

(* The shared hierarchy walk against the simulators' former
   if-else chain over oracle caches: the same level on every access
   (a level after the one that hit is not probed) and the same
   per-level counters. Hierarchies: gem5's two levels, and two Sniper
   cores whose L1/L2 are private and whose LLC is one shared cache,
   accessed in an interleaved stream. Small geometries keep all four
   outcomes common. *)
let test_walk_matches_oracle () =
  let rng = Random.State.make [| 0x3a1c |] in
  let geom (sets, ways) = (sets * ways * 64, ways) in
  let pair g =
    let size_bytes, ways = geom g in
    ( Cache.create (Cache.config ~size_bytes ~ways ~line_bytes:64),
      Cache_oracle.create (Cache_oracle.config ~size_bytes ~ways ~line_bytes:64) )
  in
  let rec oracle_walk levels addr i =
    if i = Array.length levels || Cache_oracle.access levels.(i) addr then i
    else oracle_walk levels addr (i + 1)
  in
  let check name hierarchies =
    for n = 0 to 20_000 do
      let k = Random.State.int rng (List.length hierarchies) in
      let levels, oracles = List.nth hierarchies k in
      let a =
        if Random.State.int rng 16 = 0 then Random.State.bits64 rng
        else Int64.of_int (Random.State.int rng 256 * 64)
      in
      let want = oracle_walk oracles a 0 in
      if Timing.walk levels a <> want then
        Alcotest.failf "%s access %d (0x%Lx): oracle level %d" name n a want
    done;
    List.iter
      (fun (levels, oracles) ->
        Array.iteri
          (fun i c ->
            Alcotest.(check int) (Printf.sprintf "%s L%d hits" name (i + 1))
              (Cache_oracle.hits oracles.(i)) (Cache.hits c);
            Alcotest.(check int) (Printf.sprintf "%s L%d misses" name (i + 1))
              (Cache_oracle.misses oracles.(i)) (Cache.misses c))
          levels)
      hierarchies
  in
  let l1, o1 = pair (4, 2) and l2, o2 = pair (8, 4) in
  check "two-level" [ ([| l1; l2 |], [| o1; o2 |]) ];
  let llc, ollc = pair (16, 8) in
  let core () =
    let l1, o1 = pair (4, 2) and l2, o2 = pair (8, 2) in
    ([| l1; l2; llc |], [| o1; o2; ollc |])
  in
  check "shared LLC" [ core (); core () ]

let test_timing_predictor_learns () =
  let t = Timing.create () in
  (* Always-taken branch: after training, no penalty. *)
  ignore (Timing.branch_cost t ~pc:0x40 ~taken:true);
  ignore (Timing.branch_cost t ~pc:0x40 ~taken:true);
  Alcotest.(check int) "trained" 0 (Timing.branch_cost t ~pc:0x40 ~taken:true);
  Alcotest.(check bool) "surprise costs" true
    (Timing.branch_cost t ~pc:0x40 ~taken:false > 0)

(* Random branch streams through the shared predictor and the
   simulators' former min/max one: the same mispredict sequence and the
   same final counters. PCs come from three pools: any 64-bit value
   (bit 63 set about half the time), kernel-half addresses, and user
   PCs that alias modulo the 8 KiB the index spans. *)
let prop_predictor_matches_oracle =
  let pc_gen =
    let open QCheck.Gen in
    oneof
      [
        map2 (fun hi lo -> Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))
          (int_bound 0xffff_ffff) (int_bound 0xffff_ffff);
        map (fun off -> Int64.add 0xffff_8800_0000_0000L (Int64.of_int off)) (int_bound 0xf_ffff);
        map2
          (fun base k -> Int64.of_int (0x40_0000 + base + (k * 8192)))
          (int_bound 15) (int_bound 7);
      ]
  in
  QCheck.Test.make ~name:"shared predictor matches the min/max oracle" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 500) (pair pc_gen bool)))
    (fun stream ->
      let p = Timing.predictor () and o = Predictor_oracle.create () in
      List.for_all
        (fun (pc, taken) ->
          Timing.mispredicted p ~pc ~taken = Bool.to_int (Predictor_oracle.branch o pc taken))
        stream
      && Bytes.equal p o)

(* --- machine semantics ----------------------------------------------------- *)

(* Execute a list of instructions in a bare machine and return the thread. *)
let exec instructions =
  let b = Builder.create () in
  List.iter (Builder.ins b) instructions;
  Builder.ins b Hlt;
  let prog = Builder.assemble b ~base:0x1000L in
  let m = Machine.create (Machine.Free { seed = 1L; quantum_min = 100; quantum_max = 100 }) in
  Addr_space.store (Machine.mem m) 0x1000L prog.Builder.code;
  Addr_space.map (Machine.mem m) ~addr:0x8000L ~len:8192;
  let ctx = Context.create () in
  ctx.Context.rip <- 0x1000L;
  Context.set ctx Reg.RSP 0x9000L;
  let tid = Machine.add_thread m ctx in
  for _ = 1 to List.length instructions do
    if (Machine.thread m tid).Machine.state = Machine.Runnable then
      Machine.step m tid
  done;
  Machine.thread m tid

let check_reg th r expected =
  Alcotest.check Tutil.i64 (Reg.gpr_name r) expected (Context.get th.Machine.ctx r)

let test_alu_add_flags () =
  let th = exec [ Mov_ri (Reg.RAX, Int64.max_int); Alu_ri (Add, Reg.RAX, 1L) ] in
  check_reg th Reg.RAX Int64.min_int;
  Alcotest.(check bool) "of set" true th.Machine.ctx.Context.flags.Reg.ovf;
  Alcotest.(check bool) "sf set" true th.Machine.ctx.Context.flags.Reg.sf

let test_alu_sub_borrow () =
  let th = exec [ Mov_ri (Reg.RBX, 1L); Alu_ri (Sub, Reg.RBX, 2L) ] in
  check_reg th Reg.RBX (-1L);
  Alcotest.(check bool) "cf (borrow)" true th.Machine.ctx.Context.flags.Reg.cf

let test_cmp_does_not_write () =
  let th = exec [ Mov_ri (Reg.RCX, 5L); Alu_ri (Cmp, Reg.RCX, 5L) ] in
  check_reg th Reg.RCX 5L;
  Alcotest.(check bool) "zf" true th.Machine.ctx.Context.flags.Reg.zf

let test_shifts () =
  let th =
    exec
      [ Mov_ri (Reg.RAX, -8L); Shift_ri (Sar, Reg.RAX, 1);
        Mov_ri (Reg.RBX, -8L); Shift_ri (Shr, Reg.RBX, 1);
        Mov_ri (Reg.RCX, 3L); Shift_ri (Shl, Reg.RCX, 2) ]
  in
  check_reg th Reg.RAX (-4L);
  check_reg th Reg.RBX 0x7FFFFFFFFFFFFFFCL;
  check_reg th Reg.RCX 12L

let test_load_store_widths () =
  let th =
    exec
      [ Mov_ri (Reg.RAX, 0x1122334455667788L);
        Store (W64, mem_abs 0x8000L, Reg.RAX);
        Load (W8, Reg.RBX, mem_abs 0x8000L);
        Load (W16, Reg.RCX, mem_abs 0x8000L);
        Load (W32, Reg.RDX, mem_abs 0x8000L);
        Mov_ri (Reg.RSI, 0xffffffffffffffffL);
        Store (W8, mem_abs 0x8010L, Reg.RSI);
        Load (W64, Reg.RDI, mem_abs 0x8010L) ]
  in
  check_reg th Reg.RBX 0x88L;
  check_reg th Reg.RCX 0x7788L;
  check_reg th Reg.RDX 0x55667788L;
  check_reg th Reg.RDI 0xffL

let test_lea_effective_address () =
  let th =
    exec
      [ Mov_ri (Reg.RBX, 0x100L); Mov_ri (Reg.RCX, 8L);
        Lea (Reg.RAX, { base = Some Reg.RBX; index = Some Reg.RCX; scale = 4; disp = 2L }) ]
  in
  check_reg th Reg.RAX 0x122L

let test_push_pop () =
  let th = exec [ Mov_ri (Reg.RAX, 99L); Push Reg.RAX; Mov_ri (Reg.RAX, 0L); Pop Reg.RBX ] in
  check_reg th Reg.RBX 99L;
  check_reg th Reg.RSP 0x9000L

let test_jcc_taken_and_not () =
  let b = Builder.create () in
  Builder.ins b (Mov_ri (Reg.RAX, 1L));
  Builder.ins b (Alu_ri (Cmp, Reg.RAX, 1L));
  let skip = Builder.new_label b in
  Builder.jcc b Eq skip;
  Builder.ins b (Mov_ri (Reg.RBX, 111L));
  Builder.bind b skip;
  Builder.ins b (Mov_ri (Reg.RCX, 222L));
  Builder.ins b Hlt;
  let prog = Builder.assemble b ~base:0x1000L in
  let m = Machine.create (Machine.Free { seed = 1L; quantum_min = 10; quantum_max = 10 }) in
  Addr_space.store (Machine.mem m) 0x1000L prog.Builder.code;
  let ctx = Context.create () in
  ctx.Context.rip <- 0x1000L;
  let tid = Machine.add_thread m ctx in
  Machine.run m;
  let th = Machine.thread m tid in
  check_reg th Reg.RBX 0L;
  check_reg th Reg.RCX 222L

let test_call_ret () =
  let b = Builder.create () in
  let f = Builder.new_label b in
  Builder.call b f;
  Builder.ins b (Mov_ri (Reg.RBX, 2L));
  Builder.ins b Hlt;
  Builder.bind b f;
  Builder.ins b (Mov_ri (Reg.RAX, 1L));
  Builder.ins b Ret;
  let prog = Builder.assemble b ~base:0x1000L in
  let m = Machine.create (Machine.Free { seed = 1L; quantum_min = 10; quantum_max = 10 }) in
  Addr_space.store (Machine.mem m) 0x1000L prog.Builder.code;
  Addr_space.map (Machine.mem m) ~addr:0x8000L ~len:4096;
  let ctx = Context.create () in
  ctx.Context.rip <- 0x1000L;
  Context.set ctx Reg.RSP 0x9000L;
  let tid = Machine.add_thread m ctx in
  Machine.run m;
  let th = Machine.thread m tid in
  check_reg th Reg.RAX 1L;
  check_reg th Reg.RBX 2L;
  check_reg th Reg.RSP 0x9000L

let test_cmpxchg_success_failure () =
  let th =
    exec
      [ Mov_ri (Reg.RAX, 0L); Mov_ri (Reg.RBX, 7L);
        Cmpxchg (mem_abs 0x8000L, Reg.RBX);  (* [0]=0=rax -> store 7, zf *)
        Mov_ri (Reg.RAX, 5L);
        Cmpxchg (mem_abs 0x8000L, Reg.RBX);  (* [7]<>5 -> rax:=7, !zf *)
        Load (W64, Reg.RCX, mem_abs 0x8000L) ]
  in
  check_reg th Reg.RAX 7L;
  check_reg th Reg.RCX 7L;
  Alcotest.(check bool) "zf clear after failure" false
    th.Machine.ctx.Context.flags.Reg.zf

let test_xchg () =
  let th =
    exec
      [ Mov_ri (Reg.RAX, 1L); Store (W64, mem_abs 0x8000L, Reg.RAX);
        Mov_ri (Reg.RBX, 2L); Xchg (Reg.RBX, mem_abs 0x8000L) ]
  in
  check_reg th Reg.RBX 1L

let test_pushf_popf () =
  let th =
    exec
      [ Mov_ri (Reg.RAX, 0L); Alu_ri (Cmp, Reg.RAX, 0L) (* zf *); Pushf;
        Alu_ri (Cmp, Reg.RAX, 1L) (* clears zf *); Popf ]
  in
  Alcotest.(check bool) "zf restored" true th.Machine.ctx.Context.flags.Reg.zf

let test_fs_gs_base () =
  let th =
    exec
      [ Mov_ri (Reg.RAX, 0x7000L); Wrfsbase Reg.RAX; Mov_ri (Reg.RAX, 0L);
        Rdfsbase Reg.RBX ]
  in
  check_reg th Reg.RBX 0x7000L;
  Alcotest.check Tutil.i64 "fs base" 0x7000L th.Machine.ctx.Context.fs_base

let test_ldctx_stctx () =
  let th =
    exec
      [ Mov_ri (Reg.RAX, Int64.bits_of_float 2.5);
        Store (W64, mem_abs 0x8100L, Reg.RAX);
        Store (W64, mem_abs 0x8108L, Reg.RAX);
        Mov_ri (Reg.RBX, 0x8100L); Vload (0, mem_base Reg.RBX);
        Mov_ri (Reg.RCX, 0x8200L); Stctx Reg.RCX;
        Vop_rr (Vadd, 0, 0) (* xmm0 doubles *); Ldctx Reg.RCX (* restore *) ]
  in
  Alcotest.check Tutil.i64 "xmm restored" (Int64.bits_of_float 2.5)
    (Context.xmm_lane th.Machine.ctx 0 0)

let test_vector_arith () =
  let th =
    exec
      [ Mov_ri (Reg.RAX, Int64.bits_of_float 3.0);
        Store (W64, mem_abs 0x8100L, Reg.RAX);
        Mov_ri (Reg.RAX, Int64.bits_of_float 4.0);
        Store (W64, mem_abs 0x8108L, Reg.RAX);
        Vload (1, mem_abs 0x8100L);
        Vop_rr (Vmul, 1, 1);
        Vstore (mem_abs 0x8110L, 1);
        Load (W64, Reg.RBX, mem_abs 0x8110L);
        Load (W64, Reg.RCX, mem_abs 0x8118L) ]
  in
  Alcotest.(check (float 1e-9)) "lane0 squared" 9.0
    (Int64.float_of_bits (Context.get th.Machine.ctx Reg.RBX));
  Alcotest.(check (float 1e-9)) "lane1 squared" 16.0
    (Int64.float_of_bits (Context.get th.Machine.ctx Reg.RCX))

(* Differential oracle: an independent, purely functional evaluator for
   straight-line register programs, checked against the interpreter. *)
module Oracle = struct
  type state = { regs : int64 array }

  let init () = { regs = Array.make 16 0L }
  let get s r = s.regs.(Reg.gpr_index r)

  let set s r v =
    let regs = Array.copy s.regs in
    regs.(Reg.gpr_index r) <- v;
    { regs }

  let eval s = function
    | Mov_ri (r, v) -> set s r v
    | Mov_rr (d, src) -> set s d (get s src)
    | Alu_rr (op, d, src) -> (
        let a = get s d and b = get s src in
        match op with
        | Add -> set s d (Int64.add a b)
        | Sub -> set s d (Int64.sub a b)
        | And -> set s d (Int64.logand a b)
        | Or -> set s d (Int64.logor a b)
        | Xor -> set s d (Int64.logxor a b)
        | Imul -> set s d (Int64.mul a b)
        | Cmp | Test -> s)
    | Alu_ri (op, d, b) -> (
        let a = get s d in
        match op with
        | Add -> set s d (Int64.add a b)
        | Sub -> set s d (Int64.sub a b)
        | And -> set s d (Int64.logand a b)
        | Or -> set s d (Int64.logor a b)
        | Xor -> set s d (Int64.logxor a b)
        | Imul -> set s d (Int64.mul a b)
        | Cmp | Test -> s)
    | Shift_ri (op, d, n) -> (
        let a = get s d in
        match op with
        | Shl -> set s d (Int64.shift_left a n)
        | Shr -> set s d (Int64.shift_right_logical a n)
        | Sar -> set s d (Int64.shift_right a n))
    | Neg d -> set s d (Int64.neg (get s d))
    | _ -> s
end

let prop_interpreter_matches_oracle =
  let reg_gen = QCheck.Gen.map Reg.gpr_of_index (QCheck.Gen.int_range 0 15) in
  let reg_no_rsp =
    QCheck.Gen.map
      (fun r -> if r = Reg.RSP then Reg.RAX else r)
      reg_gen
  in
  let ins_gen =
    let open QCheck.Gen in
    let alu = oneofl [ Add; Sub; And; Or; Xor; Imul; Cmp; Test ] in
    oneof
      [
        map2 (fun r v -> Mov_ri (r, v)) reg_no_rsp (map Int64.of_int int);
        map2 (fun a b -> Mov_rr (a, b)) reg_no_rsp reg_no_rsp;
        map3 (fun op a b -> Alu_rr (op, a, b)) alu reg_no_rsp reg_no_rsp;
        map3
          (fun op r v -> Alu_ri (op, r, Int64.of_int v))
          alu reg_no_rsp
          (int_range (-0x8000_0000) 0x7fff_ffff);
        map3
          (fun op r n -> Shift_ri (op, r, n))
          (oneofl [ Shl; Shr; Sar ])
          reg_no_rsp (int_range 0 63);
        map (fun r -> Neg r) reg_no_rsp;
      ]
  in
  QCheck.Test.make ~name:"interpreter matches functional oracle" ~count:300
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 40) ins_gen)
       ~print:(fun l -> String.concat "; " (List.map Insn.to_string l)))
    (fun instructions ->
      let th = exec instructions in
      let expected =
        List.fold_left Oracle.eval (Oracle.init ()) instructions
      in
      List.for_all
        (fun r ->
          r = Reg.RSP
          || Context.get th.Machine.ctx r = Oracle.get expected r)
        Reg.all_gprs)

let test_faults () =
  let th = exec [ Mov_ri (Reg.RAX, 0xdead000L); Load (W64, Reg.RBX, mem_base Reg.RAX) ] in
  (match th.Machine.state with
  | Machine.Faulted (Machine.Page_fault { addr; _ }) ->
      Alcotest.check Tutil.i64 "fault addr" 0xdead000L addr
  | _ -> Alcotest.fail "expected page fault");
  let th = exec [ Ud2 ] in
  (match th.Machine.state with
  | Machine.Faulted (Machine.Invalid_opcode _) -> ()
  | _ -> Alcotest.fail "expected invalid opcode");
  let th = exec [ Hlt ] in
  match th.Machine.state with
  | Machine.Faulted (Machine.Privileged _) -> ()
  | _ -> Alcotest.fail "expected privileged fault"

let test_counter_graceful_exit () =
  let b = Builder.create () in
  let loop = Builder.here b in
  Builder.ins b Nop;
  Builder.jmp b loop;
  let prog = Builder.assemble b ~base:0x1000L in
  let m = Machine.create (Machine.Free { seed = 1L; quantum_min = 10; quantum_max = 10 }) in
  Addr_space.store (Machine.mem m) 0x1000L prog.Builder.code;
  let ctx = Context.create () in
  ctx.Context.rip <- 0x1000L;
  let tid = Machine.add_thread m ctx in
  Machine.arm_counter m tid ~target:1000L;
  Machine.run m;
  let th = Machine.thread m tid in
  Alcotest.(check bool) "fired" true th.Machine.counter_fired;
  Alcotest.check Tutil.i64 "exact" 1000L th.Machine.retired;
  Alcotest.(check bool) "exited 0" true (th.Machine.state = Machine.Exited 0)

let test_mark_snapshot () =
  let b = Builder.create () in
  let loop = Builder.here b in
  Builder.ins b Nop;
  Builder.jmp b loop;
  let prog = Builder.assemble b ~base:0x1000L in
  let m = Machine.create (Machine.Free { seed = 1L; quantum_min = 10; quantum_max = 10 }) in
  Addr_space.store (Machine.mem m) 0x1000L prog.Builder.code;
  let ctx = Context.create () in
  ctx.Context.rip <- 0x1000L;
  let tid = Machine.add_thread m ctx in
  Machine.arm_mark m tid ~target:100L;
  Machine.arm_counter m tid ~target:300L;
  Machine.run m;
  let th = Machine.thread m tid in
  Alcotest.(check (option Tutil.i64)) "mark at 100" (Some 100L) th.Machine.mark_retired

let test_recorded_scheduler_exact () =
  (* Two infinite-loop threads driven by an explicit schedule. *)
  let b = Builder.create () in
  let loop = Builder.here b in
  Builder.ins b Nop;
  Builder.jmp b loop;
  let prog = Builder.assemble b ~base:0x1000L in
  let m = Machine.create (Machine.Recorded [ (0, 5); (1, 3); (0, 2) ]) in
  Addr_space.store (Machine.mem m) 0x1000L prog.Builder.code;
  let mk () =
    let ctx = Context.create () in
    ctx.Context.rip <- 0x1000L;
    ignore (Machine.add_thread m ctx)
  in
  mk ();
  mk ();
  Machine.run m;
  Alcotest.check Tutil.i64 "thread 0" 7L (Machine.thread m 0).Machine.retired;
  Alcotest.check Tutil.i64 "thread 1" 3L (Machine.thread m 1).Machine.retired

let test_schedule_recording_roundtrip () =
  let b = Builder.create () in
  let loop = Builder.here b in
  Builder.ins b Nop;
  Builder.jmp b loop;
  let prog = Builder.assemble b ~base:0x1000L in
  let m = Machine.create (Machine.Free { seed = 3L; quantum_min = 5; quantum_max = 20 }) in
  Addr_space.store (Machine.mem m) 0x1000L prog.Builder.code;
  for _ = 1 to 2 do
    let ctx = Context.create () in
    ctx.Context.rip <- 0x1000L;
    ignore (Machine.add_thread m ctx)
  done;
  Machine.set_record_schedule m true;
  Machine.run ~max_ins:500L m;
  let sched = Machine.recorded_schedule m in
  let total = List.fold_left (fun a (_, n) -> a + n) 0 sched in
  Alcotest.(check int) "schedule covers run" 500 total;
  (* Replaying the schedule reproduces per-thread counts. *)
  let m2 = Machine.create (Machine.Recorded sched) in
  Addr_space.store (Machine.mem m2) 0x1000L prog.Builder.code;
  for _ = 1 to 2 do
    let ctx = Context.create () in
    ctx.Context.rip <- 0x1000L;
    ignore (Machine.add_thread m2 ctx)
  done;
  Machine.run m2;
  Alcotest.check Tutil.i64 "t0 match" (Machine.thread m 0).Machine.retired
    (Machine.thread m2 0).Machine.retired

let test_max_ins_stops_exactly () =
  let b = Builder.create () in
  let loop = Builder.here b in
  Builder.ins b Nop;
  Builder.jmp b loop;
  let prog = Builder.assemble b ~base:0x1000L in
  let m = Machine.create (Machine.Free { seed = 1L; quantum_min = 64; quantum_max = 64 }) in
  Addr_space.store (Machine.mem m) 0x1000L prog.Builder.code;
  let ctx = Context.create () in
  ctx.Context.rip <- 0x1000L;
  ignore (Machine.add_thread m ctx);
  Machine.run ~max_ins:333L m;
  Alcotest.check Tutil.i64 "exact stop" 333L (Machine.total_retired m)

let test_ring0_accounting () =
  let m = Machine.create (Machine.Free { seed = 1L; quantum_min = 10; quantum_max = 10 }) in
  let ctx = Context.create () in
  let tid = Machine.add_thread m ctx in
  Machine.charge_ring0 m tid ~instructions:123 ~cycles:456;
  Alcotest.check Tutil.i64 "ring0 instructions" 123L (Machine.ring0_retired m);
  Alcotest.check Tutil.i64 "cycles charged to thread" 456L
    (Machine.thread m tid).Machine.cycles;
  Alcotest.check Tutil.i64 "user retired untouched" 0L (Machine.total_retired m)

let test_elapsed_cycles_is_max () =
  let m = Machine.create (Machine.Free { seed = 1L; quantum_min = 10; quantum_max = 10 }) in
  let t0 = Machine.add_thread m (Context.create ()) in
  let t1 = Machine.add_thread m (Context.create ()) in
  Machine.charge_ring0 m t0 ~instructions:0 ~cycles:100;
  Machine.charge_ring0 m t1 ~instructions:0 ~cycles:250;
  Alcotest.check Tutil.i64 "wall clock is the max core" 250L (Machine.elapsed_cycles m)

let test_timer_charges_cycles () =
  let b = Builder.create () in
  let loop = Builder.here b in
  Builder.ins b Nop;
  Builder.jmp b loop;
  let prog = Builder.assemble b ~base:0x1000L in
  let run seed =
    let m = Machine.create (Machine.Free { seed = 1L; quantum_min = 64; quantum_max = 64 }) in
    Addr_space.store (Machine.mem m) 0x1000L prog.Builder.code;
    let ctx = Context.create () in
    ctx.Context.rip <- 0x1000L;
    ignore (Machine.add_thread m ctx);
    Machine.set_timer m ~interval:100 ~cycles:50 ~seed;
    Machine.run ~max_ins:10_000L m;
    Machine.elapsed_cycles m
  in
  let a = run 1L and b' = run 2L in
  Alcotest.(check bool) "seeds differ" true (a <> b');
  Alcotest.(check bool) "charged" true (a > 10_000L)

let suite =
  [
    Alcotest.test_case "addr_space map/rw" `Quick test_as_map_rw;
    Alcotest.test_case "addr_space cross-page" `Quick test_as_cross_page;
    Alcotest.test_case "addr_space fault" `Quick test_as_fault;
    Alcotest.test_case "addr_space unmap" `Quick test_as_unmap;
    Alcotest.test_case "addr_space store/pages" `Quick test_as_store_and_pages;
    Alcotest.test_case "addr_space copy isolation" `Quick test_as_copy_isolated;
    Alcotest.test_case "addr_space read_avail truncates" `Quick test_as_read_avail';
    Alcotest.test_case "addr_space generation" `Quick test_as_generation;
    QCheck_alcotest.to_alcotest prop_addr_space_model;
    QCheck_alcotest.to_alcotest prop_interpreter_matches_oracle;
    Alcotest.test_case "context serialize roundtrip" `Quick test_context_roundtrip;
    Alcotest.test_case "xsave/xrstor roundtrip" `Quick test_xsave_roundtrip;
    Alcotest.test_case "context copy isolation" `Quick test_context_copy_isolated;
    Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache flush" `Quick test_cache_flush;
    Alcotest.test_case "cache rejects size <= 0" `Quick test_cache_rejects_size;
    Alcotest.test_case "cache rejects ways <= 0" `Quick test_cache_rejects_ways;
    Alcotest.test_case "cache rejects line < 4 bytes" `Quick
      test_cache_rejects_line_size;
    Alcotest.test_case "cache matches stamp-LRU oracle" `Quick
      test_cache_matches_oracle;
    Alcotest.test_case "branch predictor learns" `Quick test_timing_predictor_learns;
    Alcotest.test_case "add overflow flags" `Quick test_alu_add_flags;
    Alcotest.test_case "sub borrow" `Quick test_alu_sub_borrow;
    Alcotest.test_case "cmp does not write" `Quick test_cmp_does_not_write;
    Alcotest.test_case "shifts" `Quick test_shifts;
    Alcotest.test_case "load/store widths" `Quick test_load_store_widths;
    Alcotest.test_case "lea effective address" `Quick test_lea_effective_address;
    Alcotest.test_case "push/pop" `Quick test_push_pop;
    Alcotest.test_case "jcc taken/not-taken" `Quick test_jcc_taken_and_not;
    Alcotest.test_case "call/ret" `Quick test_call_ret;
    Alcotest.test_case "cmpxchg" `Quick test_cmpxchg_success_failure;
    Alcotest.test_case "xchg" `Quick test_xchg;
    Alcotest.test_case "pushf/popf" `Quick test_pushf_popf;
    Alcotest.test_case "fs/gs base" `Quick test_fs_gs_base;
    Alcotest.test_case "ldctx/stctx" `Quick test_ldctx_stctx;
    Alcotest.test_case "vector arithmetic" `Quick test_vector_arith;
    Alcotest.test_case "faults" `Quick test_faults;
    Alcotest.test_case "counter graceful exit" `Quick test_counter_graceful_exit;
    Alcotest.test_case "mark snapshot" `Quick test_mark_snapshot;
    Alcotest.test_case "recorded scheduler exact" `Quick test_recorded_scheduler_exact;
    Alcotest.test_case "schedule record/replay" `Quick test_schedule_recording_roundtrip;
    Alcotest.test_case "max_ins stops exactly" `Quick test_max_ins_stops_exactly;
    Alcotest.test_case "timer interrupts" `Quick test_timer_charges_cycles;
    Alcotest.test_case "ring0 accounting" `Quick test_ring0_accounting;
    Alcotest.test_case "elapsed cycles is per-core max" `Quick
      test_elapsed_cycles_is_max;
    Alcotest.test_case "shared walk matches oracle walk" `Quick
      test_walk_matches_oracle;
    QCheck_alcotest.to_alcotest prop_predictor_matches_oracle;
  ]
