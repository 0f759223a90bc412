open Tca_uarch

(* Fixed generator stream: the cycle-monotonicity properties carry
   slack tolerances for interleaving noise, and an unlucky draw can
   exceed them — run-to-run nondeterminism, not a simulator bug. A
   pinned seed keeps the suite deterministic; vary it deliberately when
   hunting for new counterexamples. *)
let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x7ca; Hashtbl.hash name |])
    (QCheck.Test.make ~count ~name gen prop)

(* --- Isa --- *)

let test_isa_constructors () =
  let i = Isa.int_alu ~src1:1 ~src2:2 ~dst:3 () in
  Alcotest.(check int) "dst" 3 i.Isa.dst;
  Alcotest.(check bool) "not mem" false (Isa.is_mem i);
  let l = Isa.load ~dst:4 ~addr:128 () in
  Alcotest.(check bool) "load is mem" true (Isa.is_mem l);
  let s = Isa.store ~addr:64 () in
  Alcotest.(check bool) "store is mem" true (Isa.is_mem s);
  let b = Isa.branch ~taken:true () in
  Alcotest.(check bool) "branch taken" true b.Isa.taken

let test_isa_register_validation () =
  Alcotest.check_raises "reg out of range"
    (Invalid_argument
       (Printf.sprintf "Isa.int_alu: register %d out of range"
          Isa.num_arch_regs)) (fun () ->
      ignore (Isa.int_alu ~dst:Isa.num_arch_regs ()))

let test_isa_addr_validation () =
  Alcotest.check_raises "negative addr"
    (Invalid_argument "Isa.load: negative address") (fun () ->
      ignore (Isa.load ~dst:0 ~addr:(-8) ()))

let test_isa_accel () =
  let a =
    Isa.accel ~compute_latency:5 ~reads:[| 0; 64 |] ~writes:[| 128 |] ()
  in
  (match a.Isa.op with
  | Isa.Accel acc ->
      Alcotest.(check int) "latency" 5 acc.Isa.compute_latency;
      Alcotest.(check int) "reads" 2 (Array.length acc.Isa.reads)
  | _ -> Alcotest.fail "expected accel");
  Alcotest.(check bool) "accel not mem-queued" false (Isa.is_mem a);
  Alcotest.check_raises "negative latency"
    (Invalid_argument "Isa.accel: negative compute latency") (fun () ->
      ignore (Isa.accel ~compute_latency:(-1) ~reads:[||] ~writes:[||] ()))

let test_isa_op_names () =
  Alcotest.(check string) "alu" "int_alu" (Isa.op_name Isa.Int_alu);
  Alcotest.(check string) "branch" "branch" (Isa.op_name Isa.Branch)

(* --- Trace --- *)

let test_trace_builder_pcs () =
  let b = Trace.Builder.create () in
  Trace.Builder.add b (Isa.int_alu ~dst:0 ());
  Trace.Builder.add b (Isa.int_alu ~dst:1 ());
  let t = Trace.Builder.build b in
  Alcotest.(check int) "length" 2 (Trace.length t);
  Alcotest.(check int) "pc 0" 0 (Trace.get t 0).Isa.pc;
  Alcotest.(check int) "pc 4" 4 (Trace.get t 1).Isa.pc

let test_trace_add_at_site () =
  let b = Trace.Builder.create () in
  Trace.Builder.add_at_site b (Isa.branch ~pc:0x999 ~taken:true ());
  let t = Trace.Builder.build b in
  Alcotest.(check int) "site pc kept" 0x999 (Trace.get t 0).Isa.pc

let test_trace_builder_growth () =
  let b = Trace.Builder.create ~capacity:2 () in
  for i = 0 to 99 do
    Trace.Builder.add b (Isa.int_alu ~dst:(i mod 8) ())
  done;
  Alcotest.(check int) "grew" 100 (Trace.Builder.length b);
  Alcotest.(check int) "built" 100 (Trace.length (Trace.Builder.build b))

let test_trace_validate_bad_reg () =
  let bad = { (Isa.int_alu ~dst:0 ()) with Isa.src1 = 1000 } in
  match Trace.validate [| bad |] with
  | Error msg ->
      Alcotest.(check bool) "mentions instruction" true
        (String.length msg > 0)
  | Ok () -> Alcotest.fail "expected validation error"

let test_trace_counts () =
  let b = Trace.Builder.create () in
  Trace.Builder.add b (Isa.int_alu ~dst:0 ());
  Trace.Builder.add b (Isa.load ~dst:1 ~addr:0 ());
  Trace.Builder.add b (Isa.store ~addr:0 ());
  Trace.Builder.add b (Isa.branch ~taken:false ());
  Trace.Builder.add b (Isa.fp_mult ~dst:2 ());
  Trace.Builder.add b (Isa.accel ~compute_latency:1 ~reads:[||] ~writes:[||] ());
  let c = Trace.counts (Trace.Builder.build b) in
  Alcotest.(check int) "total" 6 c.Trace.total;
  Alcotest.(check int) "alu" 1 c.Trace.int_alu;
  Alcotest.(check int) "loads" 1 c.Trace.loads;
  Alcotest.(check int) "stores" 1 c.Trace.stores;
  Alcotest.(check int) "branches" 1 c.Trace.branches;
  Alcotest.(check int) "fp mult" 1 c.Trace.fp_mult;
  Alcotest.(check int) "accels" 1 c.Trace.accels

let test_trace_io_roundtrip () =
  let b = Trace.Builder.create () in
  Trace.Builder.add b (Isa.int_alu ~src1:1 ~src2:2 ~dst:3 ());
  Trace.Builder.add b (Isa.load ~base:4 ~dst:5 ~addr:4096 ());
  Trace.Builder.add b (Isa.store ~src:6 ~addr:8192 ());
  Trace.Builder.add_at_site b (Isa.branch ~pc:0x777 ~taken:true ());
  Trace.Builder.add b
    (Isa.accel ~src1:7 ~dst:8 ~compute_latency:9 ~reads:[| 64; 128 |]
       ~writes:[| 256 |] ());
  let t = Trace.Builder.build b in
  let path = Filename.temp_file "tca" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save path t;
      let t' = Trace.load path in
      Alcotest.(check int) "length" (Trace.length t) (Trace.length t');
      for i = 0 to Trace.length t - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "instr %d" i)
          true
          (Trace.get t i = Trace.get t' i)
      done)

let test_trace_io_rejects_garbage () =
  let check_fails content =
    let path = Filename.temp_file "tca" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out path in
        output_string oc content;
        close_out oc;
        Alcotest.(check bool) "rejected" true
          (try
             ignore (Trace.load path);
             false
           with Failure _ -> true))
  in
  check_fails "";
  check_fails "not a trace\n";
  check_fails "tca-trace 1 2\n0 int_alu 0 -1 -1 0 false\n";
  check_fails "tca-trace 1 1\n0 bogus 0 -1 -1 0 false\n";
  check_fails "tca-trace 1 1\n0 accel 0 -1 -1 0 false 5 2 64\n"

(* Every parser failure must identify the offending line so a corrupted
   trace file can be repaired by hand. *)
let test_trace_io_error_messages () =
  let msg_of content =
    let path = Filename.temp_file "tca" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out path in
        output_string oc content;
        close_out oc;
        try
          ignore (Trace.load path);
          Alcotest.fail "expected Failure"
        with Failure m -> m)
  in
  let contains what hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec scan i =
      i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1))
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s mentions %S in %S" what needle hay)
      true (scan 0)
  in
  let m = msg_of "tca-trace 1\n" in
  contains "truncated header" m "bad header";
  let m = msg_of "tca-trace 1 2\n0 int_alu 0 -1 -1 0 false\n" in
  contains "truncated body" m "expected 2 instructions, got 1";
  let m = msg_of "tca-trace 1 1\n0 bogus 0 -1 -1 0 false\n" in
  contains "bad opcode" m "line 2";
  contains "bad opcode" m "bogus";
  let m = msg_of "tca-trace 1 1\n0 int_alu 64 -1 -1 0 false\n" in
  contains "register range" m "line 2";
  contains "register range" m "dst register 64 out of range";
  let m =
    msg_of
      "tca-trace 1 2\n0 int_alu 0 -1 -1 0 false\n4 int_alu 1 -99 -1 0 false\n"
  in
  contains "register range line number" m "line 3";
  contains "register range line number" m "src1 register -99 out of range";
  let m = msg_of "tca-trace 1 1\n0 int_alu 0 -1 -1 0 false\njunk\n" in
  contains "trailing garbage" m "line 3";
  contains "trailing garbage" m "trailing garbage"

let test_trace_validate_noop_accel () =
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec scan i =
      i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1))
    in
    scan 0
  in
  (match
     Trace.validate [| Isa.accel ~compute_latency:0 ~reads:[||] ~writes:[||] () |]
   with
  | Error msg ->
      Alcotest.(check bool) "names the no-op" true (contains msg "no-op accel")
  | Ok () -> Alcotest.fail "expected validation error");
  (* A latency-only invocation stays legal: the heap TCA has compute
     time but no modeled memory footprint. *)
  match
    Trace.validate [| Isa.accel ~compute_latency:1 ~reads:[||] ~writes:[||] () |]
  with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_trace_counts_json () =
  let b = Trace.Builder.create () in
  Trace.Builder.add b (Isa.int_alu ~dst:0 ());
  Trace.Builder.add b (Isa.load ~dst:1 ~addr:0 ());
  Trace.Builder.add b (Isa.store ~addr:64 ());
  Trace.Builder.add b (Isa.accel ~compute_latency:1 ~reads:[||] ~writes:[||] ());
  let c = Trace.counts (Trace.Builder.build b) in
  let expected =
    Tca_util.Json.(
      Obj
        [
          ("total", Int 4); ("int_alu", Int 1); ("int_mult", Int 0);
          ("fp_alu", Int 0); ("fp_mult", Int 0); ("loads", Int 1);
          ("stores", Int 1); ("branches", Int 0); ("accels", Int 1);
        ])
  in
  Alcotest.(check bool) "schema" true (Trace.counts_to_json c = expected)

let test_trace_io_simulates_identically () =
  let b = Trace.Builder.create () in
  for i = 0 to 999 do
    if i mod 9 = 8 then
      Trace.Builder.add b
        (Isa.accel ~compute_latency:4 ~reads:[| i * 64 mod 2048 |] ~writes:[||] ())
    else Trace.Builder.add b (Isa.int_alu ~src1:(i mod 3) ~dst:(i mod 12) ())
  done;
  let t = Trace.Builder.build b in
  let path = Filename.temp_file "tca" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save path t;
      let t' = Trace.load path in
      let cfg = Config.hp ~coupling:Config.coupling_nl_t () in
      Alcotest.(check int) "same cycles"
        (Pipeline.run_exn cfg t).Sim_stats.cycles
        (Pipeline.run_exn cfg t').Sim_stats.cycles)

(* --- Bpred --- *)

let test_bpred_bimodal_learns () =
  let p = Bpred.create (Bpred.Bimodal 10) in
  for _ = 1 to 10 do
    Bpred.update p ~pc:0x40 ~taken:false
  done;
  Alcotest.(check bool) "learned not-taken" false (Bpred.predict p ~pc:0x40);
  for _ = 1 to 10 do
    Bpred.update p ~pc:0x80 ~taken:true
  done;
  Alcotest.(check bool) "learned taken" true (Bpred.predict p ~pc:0x80)

let test_bpred_gshare_learns_pattern () =
  (* Alternating T/NT at one PC: history disambiguates perfectly after
     warmup. *)
  let p = Bpred.create (Bpred.Gshare 12) in
  let correct = ref 0 in
  for i = 0 to 999 do
    let taken = i mod 2 = 0 in
    if Bpred.predict p ~pc:0x100 = taken then incr correct;
    Bpred.update p ~pc:0x100 ~taken
  done;
  Alcotest.(check bool) "gshare learns alternation" true (!correct > 900)

let test_bpred_bimodal_fails_pattern () =
  let p = Bpred.create (Bpred.Bimodal 12) in
  let correct = ref 0 in
  for i = 0 to 999 do
    let taken = i mod 2 = 0 in
    if Bpred.predict p ~pc:0x100 = taken then incr correct;
    Bpred.update p ~pc:0x100 ~taken
  done;
  Alcotest.(check bool) "bimodal cannot learn alternation" true (!correct < 700)

let test_bpred_tournament_best_of_both () =
  (* Site A alternates (gshare wins), site B is biased with random other
     history (bimodal wins); the tournament should do well on both. *)
  let p = Bpred.create (Bpred.Tournament 12) in
  let rng = Tca_util.Prng.create 3 in
  let correct = ref 0 and total = ref 0 in
  for i = 0 to 4999 do
    let pc_a = 0x100 and pc_b = 0x200 in
    let taken_a = i mod 2 = 0 in
    let taken_b = Tca_util.Prng.bernoulli rng 0.95 in
    if i > 1000 then begin
      if Bpred.predict p ~pc:pc_a = taken_a then incr correct;
      if Bpred.predict p ~pc:pc_b = taken_b then incr correct;
      total := !total + 2
    end;
    Bpred.update p ~pc:pc_a ~taken:taken_a;
    Bpred.update p ~pc:pc_b ~taken:taken_b
  done;
  let rate = float_of_int !correct /. float_of_int !total in
  Alcotest.(check bool) "tournament accuracy above 90%" true (rate > 0.90)

let test_bpred_perfect () =
  Alcotest.(check bool) "perfect" true (Bpred.is_perfect (Bpred.create Bpred.Perfect));
  Alcotest.(check bool) "others not" false
    (Bpred.is_perfect (Bpred.create (Bpred.Bimodal 8)))

let test_bpred_bits_validation () =
  Alcotest.check_raises "bits range"
    (Invalid_argument "Bpred.create: bits out of range") (fun () ->
      ignore (Bpred.create (Bpred.Gshare 0)))

(* --- Cache --- *)

let small_cache () =
  Cache.create (Cache.config ~size_bytes:1024 ~assoc:2 ~line_bytes:64 ())

let test_cache_config_validation () =
  Alcotest.check_raises "size divisibility"
    (Invalid_argument "Cache.config: size not divisible by line_bytes * assoc")
    (fun () -> ignore (Cache.config ~size_bytes:1000 ~assoc:2 ()));
  Alcotest.check_raises "line pow2"
    (Invalid_argument "Cache.config: line_bytes not a power of two") (fun () ->
      ignore (Cache.config ~line_bytes:48 ~size_bytes:960 ~assoc:2 ()))

let test_cache_hit_after_miss () =
  let c = small_cache () in
  Alcotest.(check bool) "first is miss" false (Cache.access c 0x1000);
  Alcotest.(check bool) "second is hit" true (Cache.access c 0x1000);
  Alcotest.(check bool) "same line hit" true (Cache.access c 0x103F);
  Alcotest.(check bool) "next line miss" false (Cache.access c 0x1040);
  Alcotest.(check int) "hits" 2 (Cache.hits c);
  Alcotest.(check int) "misses" 2 (Cache.misses c)

let test_cache_lru_eviction () =
  let c = small_cache () in
  (* 8 sets; addresses with the same set index, different tags. *)
  let set_stride = Cache.num_sets c * Cache.line_bytes c in
  let a = 0 and b = set_stride and d = 2 * set_stride in
  ignore (Cache.access c a);
  ignore (Cache.access c b);
  (* Touch [a] so [b] is LRU; inserting [d] must evict [b]. *)
  ignore (Cache.access c a);
  ignore (Cache.access c d);
  Alcotest.(check bool) "a stays" true (Cache.probe c a);
  Alcotest.(check bool) "b evicted" false (Cache.probe c b);
  Alcotest.(check bool) "d resident" true (Cache.probe c d)

let test_cache_probe_nonmutating () =
  let c = small_cache () in
  Alcotest.(check bool) "probe miss" false (Cache.probe c 0x2000);
  Alcotest.(check bool) "still miss after probe" false (Cache.access c 0x2000)

let test_cache_reset_stats () =
  let c = small_cache () in
  ignore (Cache.access c 0);
  Cache.reset_stats c;
  Alcotest.(check int) "hits reset" 0 (Cache.hits c);
  Alcotest.(check int) "misses reset" 0 (Cache.misses c)

(* --- Mem_hier --- *)

let hier () =
  Mem_hier.create
    (Mem_hier.config
       ~l1:(Cache.config ~size_bytes:1024 ~assoc:2 ~hit_latency:2 ())
       ~l2:(Cache.config ~size_bytes:8192 ~assoc:4 ~hit_latency:10 ())
       ~mem_latency:50 ())

let test_hier_latencies () =
  let h = hier () in
  Alcotest.(check int) "cold goes to memory" 62 (Mem_hier.load_latency h 0x4000);
  Alcotest.(check int) "L1 hit" 2 (Mem_hier.load_latency h 0x4000);
  (* Evict from L1 with conflicting lines; L2 still holds it. *)
  for k = 1 to 4 do
    ignore (Mem_hier.load_latency h (0x4000 + (k * 1024)))
  done;
  Alcotest.(check int) "L2 hit" 12 (Mem_hier.load_latency h 0x4000)

let test_hier_store_fills () =
  let h = hier () in
  Mem_hier.store h 0x8000;
  Alcotest.(check int) "load after store hits L1" 2
    (Mem_hier.load_latency h 0x8000)

let test_hier_no_l2 () =
  let h =
    Mem_hier.create
      (Mem_hier.config
         ~l1:(Cache.config ~size_bytes:1024 ~assoc:2 ~hit_latency:3 ())
         ~mem_latency:80 ())
  in
  Alcotest.(check int) "miss to memory" 83 (Mem_hier.load_latency h 0);
  Alcotest.(check bool) "no l2 stats" true (Mem_hier.l2_stats h = None)

(* --- Ports --- *)

let test_ports_bandwidth () =
  let p = Ports.create ~width:2 ~horizon:64 in
  Alcotest.(check int) "slot 1" 10 (Ports.reserve p ~now:10);
  Alcotest.(check int) "slot 2" 10 (Ports.reserve p ~now:10);
  Alcotest.(check int) "spills to next cycle" 11 (Ports.reserve p ~now:10);
  Alcotest.(check int) "independent cycle" 20 (Ports.reserve p ~now:20)

let test_ports_reuse_after_wrap () =
  let p = Ports.create ~width:1 ~horizon:8 in
  Alcotest.(check int) "cycle 0" 0 (Ports.reserve p ~now:0);
  (* Same ring cell, much later cycle: must be fresh. *)
  Alcotest.(check int) "cycle 8 reuses cell" 8 (Ports.reserve p ~now:8);
  Alcotest.(check int) "cycle 16" 16 (Ports.reserve p ~now:16)

let test_ports_validation () =
  Alcotest.check_raises "width" (Invalid_argument "Ports.create: width below 1")
    (fun () -> ignore (Ports.create ~width:0 ~horizon:8))

(* --- Tlb --- *)

let test_tlb_config_validation () =
  Alcotest.check_raises "entries pow2"
    (Invalid_argument "Tlb.config: entries not a power of two") (fun () ->
      ignore (Tlb.config ~entries:48 ()));
  Alcotest.check_raises "page bits"
    (Invalid_argument "Tlb.config: page_bits out of [6, 30]") (fun () ->
      ignore (Tlb.config ~entries:64 ~page_bits:2 ()))

let test_tlb_hit_miss () =
  let t = Tlb.create (Tlb.config ~entries:16 ~assoc:4 ~walk_latency:30 ()) in
  Alcotest.(check int) "cold miss walks" 30 (Tlb.access t 0x1234);
  Alcotest.(check int) "same page hits" 0 (Tlb.access t 0x1FFF);
  Alcotest.(check int) "next page misses" 30 (Tlb.access t 0x2000);
  Alcotest.(check int) "hits" 1 (Tlb.hits t);
  Alcotest.(check int) "misses" 2 (Tlb.misses t)

let test_tlb_lru () =
  (* 4 sets x 4 ways: five pages mapping to the same set evict LRU. *)
  let t = Tlb.create (Tlb.config ~entries:16 ~assoc:4 ~walk_latency:30 ()) in
  let page k = k * 4 * 4096 in
  for k = 0 to 3 do
    ignore (Tlb.access t (page k))
  done;
  ignore (Tlb.access t (page 0));
  (* page 4 evicts page 1 (LRU), page 0 stays. *)
  ignore (Tlb.access t (page 4));
  Alcotest.(check int) "page 0 still resident" 0 (Tlb.access t (page 0));
  Alcotest.(check int) "page 1 evicted" 30 (Tlb.access t (page 1))

let test_pipeline_dtlb () =
  (* Loads spanning many pages: with a tiny DTLB the run must be slower
     and the stats must report walks. *)
  let b = Trace.Builder.create () in
  for i = 0 to 999 do
    Trace.Builder.add b
      (Isa.load ~dst:(i mod 16) ~addr:(i * 4096 mod (1 lsl 22)) ())
  done;
  let t = Trace.Builder.build b in
  let base = Pipeline.run_exn (Config.hp ()) t in
  let with_tlb =
    Pipeline.run_exn
      { (Config.hp ()) with Config.dtlb = Some (Tlb.config ~entries:16 ()) }
      t
  in
  Alcotest.(check bool) "no dtlb stats by default" true
    (base.Sim_stats.dtlb = None);
  (match with_tlb.Sim_stats.dtlb with
  | Some s -> Alcotest.(check bool) "misses recorded" true (s.Mem_hier.misses > 100)
  | None -> Alcotest.fail "expected dtlb stats");
  Alcotest.(check bool) "walks cost cycles" true
    (with_tlb.Sim_stats.cycles > base.Sim_stats.cycles)

(* --- Config --- *)

let test_config_coupling_names () =
  Alcotest.(check string) "nl_nt" "NL_NT" (Config.coupling_name Config.coupling_nl_nt);
  Alcotest.(check string) "l_t" "L_T" (Config.coupling_name Config.coupling_l_t);
  Alcotest.(check int) "four couplings" 4 (List.length Config.all_couplings)

let test_config_validate () =
  let cfg = Config.hp () in
  Alcotest.(check bool) "hp valid" true (Config.validate cfg = Ok ());
  Alcotest.(check bool) "broken rejected" true
    (Config.validate { cfg with Config.rob_size = 1 } <> Ok ())

let test_config_with_coupling () =
  let cfg = Config.with_coupling (Config.hp ()) Config.coupling_nl_nt in
  Alcotest.(check string) "updated" "NL_NT" (Config.coupling_name cfg.Config.coupling)

(* --- Pipeline --- *)

let run_trace ?(cfg = Config.hp ()) instrs =
  let b = Trace.Builder.create () in
  List.iter (Trace.Builder.add b) instrs;
  Pipeline.run_exn cfg (Trace.Builder.build b)

let repeat n f = List.init n f

let test_pipeline_single_instr () =
  let stats = run_trace [ Isa.int_alu ~dst:0 () ] in
  Alcotest.(check int) "committed" 1 stats.Sim_stats.committed;
  Alcotest.(check bool) "few cycles" true (stats.Sim_stats.cycles < 30)

let test_pipeline_independent_ipc () =
  let stats = run_trace (repeat 8000 (fun i -> Isa.int_alu ~dst:(i mod 32) ())) in
  Alcotest.(check bool) "IPC near dispatch width" true
    (stats.Sim_stats.ipc > 3.5)

let test_pipeline_chain_ipc () =
  let stats = run_trace (repeat 4000 (fun _ -> Isa.int_alu ~src1:0 ~dst:0 ())) in
  Alcotest.(check bool) "IPC near 1" true
    (stats.Sim_stats.ipc > 0.9 && stats.Sim_stats.ipc <= 1.05)

let test_pipeline_mult_chain_ipc () =
  let stats = run_trace (repeat 2000 (fun _ -> Isa.int_mult ~src1:0 ~dst:0 ())) in
  Alcotest.(check bool) "IPC near 1/3" true
    (stats.Sim_stats.ipc > 0.28 && stats.Sim_stats.ipc < 0.38)

let test_pipeline_commits_everything () =
  let stats =
    run_trace
      (repeat 500 (fun i ->
           if i mod 7 = 0 then Isa.load ~dst:(i mod 16) ~addr:(i * 8) ()
           else Isa.int_alu ~dst:(i mod 16) ()))
  in
  Alcotest.(check int) "all committed" 500 stats.Sim_stats.committed;
  Alcotest.(check bool) "ipc consistent" true
    (Float.abs
       (stats.Sim_stats.ipc
       -. (float_of_int stats.Sim_stats.committed
          /. float_of_int stats.Sim_stats.cycles))
    < 1e-9)

let test_pipeline_cache_counted () =
  let stats =
    run_trace (repeat 1000 (fun i -> Isa.load ~dst:(i mod 8) ~addr:(i * 8 mod 4096) ()))
  in
  let total = stats.Sim_stats.l1.Mem_hier.hits + stats.Sim_stats.l1.Mem_hier.misses in
  Alcotest.(check int) "every load accesses L1" 1000 total;
  Alcotest.(check bool) "mostly hits (64-line working set)" true
    (stats.Sim_stats.l1.Mem_hier.misses <= 64)

let test_pipeline_store_load_forwarding () =
  (* A reload of a just-stored (still in-flight) address is forwarded in
     one cycle; loading a different cold line instead goes to memory.
     Both traces touch only cold lines, so the cycle gap is pure
     forwarding. *)
  let mk reload_same =
    repeat 300 (fun i ->
        let addr = 0x100000 + (i * 64) in
        [
          Isa.store ~addr ();
          Isa.load ~dst:1 ~addr:(if reload_same then addr else addr + 8192) ();
        ])
    |> List.concat
  in
  let fwd = run_trace (mk true) in
  let cold = run_trace (mk false) in
  Alcotest.(check bool) "forwarding is much faster than memory" true
    (fwd.Sim_stats.cycles * 2 < cold.Sim_stats.cycles)

let test_pipeline_mispredict_penalty () =
  let mk_trace pattern_random =
    let rng = Tca_util.Prng.create 5 in
    let b = Trace.Builder.create () in
    for i = 0 to 3999 do
      if i mod 8 = 7 then
        let taken =
          if pattern_random then Tca_util.Prng.bool rng
          else true
        in
        Trace.Builder.add_at_site b (Isa.branch ~pc:0x500 ~taken ())
      else Trace.Builder.add b (Isa.int_alu ~dst:(i mod 24) ())
    done;
    Trace.Builder.build b
  in
  let cfg = Config.hp () in
  let predictable = Pipeline.run_exn cfg (mk_trace false) in
  let random = Pipeline.run_exn cfg (mk_trace true) in
  Alcotest.(check bool) "random branches cost cycles" true
    (random.Sim_stats.cycles > predictable.Sim_stats.cycles);
  Alcotest.(check bool) "mispredict counts differ" true
    (random.Sim_stats.mispredicts > predictable.Sim_stats.mispredicts);
  let perfect =
    Pipeline.run_exn { cfg with Config.bpred = Bpred.Perfect } (mk_trace true)
  in
  Alcotest.(check int) "perfect never mispredicts" 0
    perfect.Sim_stats.mispredicts;
  Alcotest.(check bool) "perfect faster" true
    (perfect.Sim_stats.cycles < random.Sim_stats.cycles)

let accel_trace ~latency ~n ~gap =
  let b = Trace.Builder.create () in
  for i = 0 to n - 1 do
    for j = 0 to gap - 1 do
      ignore j;
      Trace.Builder.add b (Isa.int_alu ~dst:(i mod 16) ())
    done;
    Trace.Builder.add b
      (Isa.accel ~compute_latency:latency ~reads:[||] ~writes:[||] ())
  done;
  Trace.Builder.build b

let test_pipeline_serialize_barrier () =
  let t = accel_trace ~latency:20 ~n:50 ~gap:40 in
  let nt = Pipeline.run_exn (Config.hp ~coupling:Config.coupling_l_nt ()) t in
  let tt = Pipeline.run_exn (Config.hp ~coupling:Config.coupling_l_t ()) t in
  Alcotest.(check bool) "NT stalls dispatch" true
    (nt.Sim_stats.stalls.Sim_stats.serialize > 0);
  Alcotest.(check int) "T never serializes" 0
    tt.Sim_stats.stalls.Sim_stats.serialize;
  Alcotest.(check bool) "barrier costs cycles" true
    (nt.Sim_stats.cycles > tt.Sim_stats.cycles)

let test_pipeline_nl_head_wait () =
  let t = accel_trace ~latency:20 ~n:50 ~gap:40 in
  let nl = Pipeline.run_exn (Config.hp ~coupling:Config.coupling_nl_t ()) t in
  let l = Pipeline.run_exn (Config.hp ~coupling:Config.coupling_l_t ()) t in
  Alcotest.(check bool) "NL waits for head" true
    (nl.Sim_stats.accel_wait_for_head_cycles > 0);
  Alcotest.(check int) "L never waits" 0 l.Sim_stats.accel_wait_for_head_cycles;
  Alcotest.(check bool) "waiting costs cycles" true
    (nl.Sim_stats.cycles >= l.Sim_stats.cycles)

let test_pipeline_mode_cycle_ordering () =
  let t = accel_trace ~latency:30 ~n:40 ~gap:50 in
  let cycles c = (Pipeline.run_exn (Config.hp ~coupling:c ()) t).Sim_stats.cycles in
  let nl_nt = cycles Config.coupling_nl_nt
  and l_nt = cycles Config.coupling_l_nt
  and nl_t = cycles Config.coupling_nl_t
  and l_t = cycles Config.coupling_l_t in
  Alcotest.(check bool) "L_T fastest" true (l_t <= l_nt && l_t <= nl_t);
  Alcotest.(check bool) "NL_NT slowest" true (nl_nt >= l_nt && nl_nt >= nl_t)

let test_pipeline_accel_memory () =
  let b = Trace.Builder.create () in
  Trace.Builder.add b
    (Isa.accel ~compute_latency:4 ~reads:[| 0; 64; 128 |] ~writes:[| 256 |] ());
  let stats = Pipeline.run_exn (Config.hp ()) (Trace.Builder.build b) in
  Alcotest.(check int) "committed" 1 stats.Sim_stats.committed;
  Alcotest.(check int) "invocations" 1 stats.Sim_stats.accel_invocations;
  Alcotest.(check bool) "busy at least compute + memory" true
    (stats.Sim_stats.accel_busy_cycles > 4);
  let touched = stats.Sim_stats.l1.Mem_hier.hits + stats.Sim_stats.l1.Mem_hier.misses in
  Alcotest.(check bool) "reads and writes reach the cache" true (touched >= 4)

let test_pipeline_determinism () =
  let t = accel_trace ~latency:10 ~n:20 ~gap:30 in
  let a = Pipeline.run_exn (Config.hp ()) t in
  let b = Pipeline.run_exn (Config.hp ()) t in
  Alcotest.(check int) "same cycles" a.Sim_stats.cycles b.Sim_stats.cycles;
  Alcotest.(check int) "same commits" a.Sim_stats.committed b.Sim_stats.committed

let test_pipeline_probe () =
  let t = accel_trace ~latency:10 ~n:5 ~gap:20 in
  let dispatched = ref 0 and issued = ref 0 in
  let probe =
    {
      Pipeline.on_cycle =
        (fun ~cycle:_ ~dispatched:d ~issued:i ~executing:_ ~rob_occupancy:_ ->
          dispatched := !dispatched + d;
          issued := !issued + i);
    }
  in
  let stats = Pipeline.run_exn ~probe (Config.hp ()) t in
  Alcotest.(check int) "probe sees every dispatch" (Trace.length t) !dispatched;
  Alcotest.(check int) "probe sees every issue" stats.Sim_stats.committed !issued

let test_pipeline_watchdog_partial () =
  let cfg = { (Config.hp ()) with Config.max_cycles = Some 3 } in
  let t =
    let b = Trace.Builder.create () in
    for _ = 1 to 100 do
      Trace.Builder.add b (Isa.int_mult ~src1:0 ~dst:0 ())
    done;
    Trace.Builder.build b
  in
  (match Pipeline.run cfg t with
  | Ok (Pipeline.Partial { stats; diag }) -> (
      match diag with
      | Tca_util.Diag.Watchdog { cycles; committed; total } ->
          Alcotest.(check bool) "cycles past cap" true (cycles > 3);
          Alcotest.(check int) "committed matches snapshot" stats.Sim_stats.committed
            committed;
          Alcotest.(check int) "total is trace length" (Trace.length t) total;
          Alcotest.(check bool) "truncated" true (committed < total)
      | d -> Alcotest.fail ("expected Watchdog, got " ^ Tca_util.Diag.to_string d))
  | Ok (Pipeline.Complete _) -> Alcotest.fail "expected Partial under tiny budget"
  | Error d -> Alcotest.fail ("unexpected error: " ^ Tca_util.Diag.to_string d));
  (* the _exn wrapper surfaces the same diagnostic as an exception *)
  Alcotest.(check bool) "run_exn raises Diag.Error" true
    (try
       ignore (Pipeline.run_exn cfg t);
       false
     with Tca_util.Diag.Error (Tca_util.Diag.Watchdog _) -> true)

let test_pipeline_invalid_config () =
  let cfg = { (Config.hp ()) with Config.dispatch_width = 0 } in
  let t =
    let b = Trace.Builder.create () in
    Trace.Builder.add b (Isa.int_alu ~dst:0 ());
    Trace.Builder.build b
  in
  (match Pipeline.run cfg t with
  | Error (Tca_util.Diag.Domain { field; _ }) ->
      Alcotest.(check bool) "names the field" true
        (String.length field > 0)
  | Error d -> Alcotest.fail ("expected Domain, got " ^ Tca_util.Diag.to_string d)
  | Ok _ -> Alcotest.fail "invalid config accepted");
  Alcotest.(check bool) "invalid config rejected" true
    (try
       ignore (Pipeline.run_exn cfg t);
       false
     with Tca_util.Diag.Error _ -> true)

let test_pipeline_lp_slower () =
  let t = accel_trace ~latency:10 ~n:20 ~gap:50 in
  let hp = Pipeline.run_exn (Config.hp ()) t in
  let lp = Pipeline.run_exn (Config.lp ()) t in
  Alcotest.(check bool) "narrow core slower" true
    (lp.Sim_stats.cycles > hp.Sim_stats.cycles)

(* Random well-formed traces always terminate and commit everything,
   under every coupling. *)
let random_trace_gen =
  let open QCheck.Gen in
  let instr =
    frequency
      [
        (5, map (fun d -> Isa.int_alu ~src1:(d mod 7) ~dst:(d mod 16) ()) (int_bound 1000));
        (2, map (fun d -> Isa.int_mult ~src1:(d mod 5) ~dst:(d mod 16) ()) (int_bound 1000));
        (2, map (fun d -> Isa.fp_alu ~src1:(d mod 5) ~dst:(16 + (d mod 8)) ()) (int_bound 1000));
        ( 3,
          map
            (fun d -> Isa.load ~base:(d mod 4) ~dst:(d mod 16) ~addr:(d * 8 mod 8192) ())
            (int_bound 1000) );
        (2, map (fun d -> Isa.store ~src:(d mod 16) ~addr:(d * 8 mod 8192) ()) (int_bound 1000));
        (1, map (fun d -> Isa.branch ~pc:(0x700 + (d mod 16 * 4)) ~taken:(d mod 3 = 0) ()) (int_bound 1000));
        ( 1,
          map
            (fun d ->
              Isa.accel
                ~compute_latency:(1 + (d mod 30))
                ~reads:(if d mod 2 = 0 then [| d * 64 mod 4096 |] else [||])
                ~writes:[||] ~dst:(d mod 16) ())
            (int_bound 1000) );
      ]
  in
  QCheck.make
    ~print:(fun (instrs, _) -> Printf.sprintf "<%d instrs>" (List.length instrs))
    (pair (list_size (int_range 1 300) instr) (int_bound 3))

let prop_random_traces_terminate =
  qtest ~count:60 "random traces commit fully under every coupling"
    random_trace_gen (fun (instrs, coupling_idx) ->
      let coupling = List.nth Config.all_couplings coupling_idx in
      let b = Trace.Builder.create () in
      List.iter
        (fun (i : Isa.instr) ->
          match i.Isa.op with
          | Isa.Branch -> Trace.Builder.add_at_site b i
          | _ -> Trace.Builder.add b i)
        instrs;
      let t = Trace.Builder.build b in
      let stats = Pipeline.run_exn (Config.hp ~coupling ()) t in
      stats.Sim_stats.committed = Trace.length t
      && stats.Sim_stats.cycles > 0)

(* Metamorphic properties: directional changes with known-sign effects. *)

let mixed_accel_trace seed latency =
  let rng = Tca_util.Prng.create seed in
  let b = Trace.Builder.create () in
  for i = 0 to 1499 do
    if i mod 40 = 39 then
      Trace.Builder.add b
        (Isa.accel ~compute_latency:latency
           ~reads:(if i mod 80 = 79 then [| i * 64 mod 4096 |] else [||])
           ~writes:[||] ())
    else if i mod 7 = 3 then
      Trace.Builder.add b
        (Isa.load ~dst:(i mod 12) ~addr:(8 * Tca_util.Prng.int rng 2048) ())
    else Trace.Builder.add b (Isa.int_alu ~src1:(i mod 5) ~dst:(i mod 12) ())
  done;
  Trace.Builder.build b

let prop_latency_monotone =
  qtest ~count:20 "cycles monotone in TCA latency (3% slack)"
    QCheck.(pair small_int (int_range 0 3))
    (fun (seed, coupling_idx) ->
      let coupling = List.nth Config.all_couplings coupling_idx in
      let cfg = Config.hp ~coupling () in
      let fast = Pipeline.run_exn cfg (mixed_accel_trace seed 5) in
      let slow = Pipeline.run_exn cfg (mixed_accel_trace seed 50) in
      (* Fully-overlapped couplings can absorb the extra latency and even
         shift cache/port interleavings slightly in either direction;
         allow second-order slack (seed 88 under L_T reaches 2.33%). *)
      float_of_int slow.Sim_stats.cycles
      >= 0.97 *. float_of_int fast.Sim_stats.cycles)

let prop_coupling_monotone =
  qtest ~count:20 "removing a coupling barrier never adds cycles"
    QCheck.small_int
    (fun seed ->
      let t = mixed_accel_trace seed 20 in
      let cycles c = (Pipeline.run_exn (Config.hp ~coupling:c ()) t).Sim_stats.cycles in
      let nl_nt = float_of_int (cycles Config.coupling_nl_nt)
      and l_nt = float_of_int (cycles Config.coupling_l_nt)
      and nl_t = float_of_int (cycles Config.coupling_nl_t)
      and l_t = float_of_int (cycles Config.coupling_l_t) in
      (* 1% slack for cycle-level interleaving noise. *)
      l_t <= 1.01 *. l_nt && l_t <= 1.01 *. nl_t
      && l_nt <= 1.01 *. nl_nt && nl_t <= 1.01 *. nl_nt)

let prop_mem_latency_monotone =
  qtest ~count:10 "cycles monotone in memory latency"
    QCheck.small_int
    (fun seed ->
      let t = mixed_accel_trace seed 10 in
      let run lat =
        let mem =
          Mem_hier.config
            ~l1:(Cache.config ~size_bytes:1024 ~assoc:2 ~hit_latency:2 ())
            ~mem_latency:lat ()
        in
        (Pipeline.run_exn { (Config.hp ()) with Config.mem } t).Sim_stats.cycles
      in
      run 200 >= run 50)

(* --- Simulator --- *)

let test_simulator_compare_modes () =
  let baseline = accel_trace ~latency:1 ~n:0 ~gap:1 in
  let b = Trace.Builder.create () in
  for i = 0 to 999 do
    Trace.Builder.add b (Isa.int_alu ~dst:(i mod 8) ())
  done;
  let baseline = ignore baseline; Trace.Builder.build b in
  let accelerated = accel_trace ~latency:20 ~n:10 ~gap:80 in
  let cmp =
    Simulator.compare_modes_exn ~cfg:(Config.hp ()) ~baseline ~accelerated ()
  in
  Alcotest.(check int) "four modes" 4 (List.length cmp.Simulator.modes);
  List.iter
    (fun (r : Simulator.mode_result) ->
      Alcotest.(check bool) "positive speedup" true (r.Simulator.speedup > 0.0))
    cmp.Simulator.modes;
  let lt = Simulator.find_mode_result_exn cmp Config.coupling_l_t in
  Alcotest.(check string) "find L_T" "L_T" (Config.coupling_name lt.Simulator.coupling)

let test_simulator_measure_ipc () =
  let b = Trace.Builder.create () in
  for i = 0 to 1999 do
    Trace.Builder.add b (Isa.int_alu ~dst:(i mod 32) ())
  done;
  let ipc = Simulator.measure_ipc_exn (Config.hp ()) (Trace.Builder.build b) in
  Alcotest.(check bool) "near width" true (ipc > 3.0 && ipc <= 4.0)

(* [run_batch] is a pure fan-out: entry-for-entry identical to a
   sequential [Pipeline.run] loop, serial or parallel, and a bad entry
   reports its [Error] in place without poisoning the rest. *)
let outcome_key = function
  | Ok o ->
      "ok:"
      ^ Tca_util.Json.to_string
          (Sim_stats.to_json (Pipeline.stats_of_outcome o))
      ^ (match o with
        | Pipeline.Partial { diag; _ } -> "|" ^ Tca_util.Diag.to_string diag
        | Pipeline.Complete _ -> "")
  | Error d -> "error:" ^ Tca_util.Diag.to_string d

let test_simulator_run_batch () =
  let cfg = Config.hp () in
  let t1 = mixed_accel_trace 3 10 and t2 = mixed_accel_trace 7 25 in
  let bad = { cfg with Config.dispatch_width = 0 } in
  let entries =
    [|
      (cfg, t1);
      (Config.with_coupling cfg Config.coupling_l_t, t2);
      (bad, t1);
      (Config.lp (), t2);
    |]
  in
  let seq = Array.map (fun (c, t) -> outcome_key (Pipeline.run c t)) entries in
  let batch = Array.map outcome_key (Simulator.run_batch entries) in
  Alcotest.(check (array string)) "batch = sequential loop" seq batch;
  let par_batch =
    Tca_engine.Pool.with_pool ~workers:3 (fun pool ->
        Array.map outcome_key
          (Simulator.run_batch ~par:(Tca_engine.Pool.parmap pool) entries))
  in
  Alcotest.(check (array string)) "parallel batch = sequential loop" seq
    par_batch;
  Alcotest.(check bool) "bad entry reported in place" true
    (String.length batch.(2) >= 6 && String.sub batch.(2) 0 6 = "error:")

(* Regression: one watchdog-truncated entry (tiny cycle budget) mixed
   into a healthy batch must surface as [Ok (Partial _)] in place —
   stats snapshot kept, [Watchdog] diag attached — while every other
   entry completes untouched, serial and parallel alike. *)
let test_simulator_run_batch_partial_mix () =
  let cfg = Config.hp () in
  let long =
    let b = Trace.Builder.create () in
    for _ = 1 to 200 do
      Trace.Builder.add b (Isa.int_mult ~src1:0 ~dst:0 ())
    done;
    Trace.Builder.build b
  in
  let strangled = { cfg with Config.max_cycles = Some 2 } in
  let entries =
    [|
      (cfg, mixed_accel_trace 3 10);
      (strangled, long);
      (Config.lp (), mixed_accel_trace 7 25);
    |]
  in
  let check_results results =
    (match results.(1) with
    | Ok
        (Pipeline.Partial
           { stats; diag = Tca_util.Diag.Watchdog { committed; _ } }) ->
        Alcotest.(check int) "snapshot committed" stats.Sim_stats.committed
          committed;
        Alcotest.(check bool) "truncated" true (committed < Trace.length long)
    | Ok (Pipeline.Partial { diag; _ }) ->
        Alcotest.fail ("expected Watchdog, got " ^ Tca_util.Diag.to_string diag)
    | Ok (Pipeline.Complete _) -> Alcotest.fail "expected Partial in place"
    | Error d -> Alcotest.fail ("unexpected error: " ^ Tca_util.Diag.to_string d));
    Array.iteri
      (fun i r ->
        if i <> 1 then
          match r with
          | Ok (Pipeline.Complete _) -> ()
          | Ok (Pipeline.Partial _) ->
              Alcotest.fail "healthy entry truncated"
          | Error d ->
              Alcotest.fail
                ("healthy entry failed: " ^ Tca_util.Diag.to_string d))
      results
  in
  let serial = Simulator.run_batch entries in
  check_results serial;
  let parallel =
    Tca_engine.Pool.with_pool ~workers:2 (fun pool ->
        Simulator.run_batch ~par:(Tca_engine.Pool.parmap pool) entries)
  in
  check_results parallel;
  Alcotest.(check (array string)) "serial = parallel"
    (Array.map outcome_key serial)
    (Array.map outcome_key parallel)

(* --- Multi-unit TCA --- *)

let multi_scenario ?(n_pairs = 20) kind =
  Tca_workloads.Multi_tca.generate
    (Tca_workloads.Multi_tca.config ~n_pairs kind)

(* The two pipelines must agree instruction-for-instruction on
   heterogeneous-unit traces exactly as they do on the golden single-unit
   pairs: compare the full [Sim_stats.to_json] bytes (which include the
   per-unit breakdown) across the baseline and all four couplings of
   every bundled multi-unit scenario. *)
let test_multi_unit_pipelines_agree () =
  List.iter
    (fun kind ->
      let sc = multi_scenario kind in
      let name = Tca_workloads.Multi_tca.kind_name kind in
      let cfg =
        Config.with_tca_units (Config.hp ())
          sc.Tca_workloads.Multi_tca.tca_units
      in
      let pair = sc.Tca_workloads.Multi_tca.pair in
      let agree label cfg trace =
        let opt = Pipeline.run_exn cfg trace in
        let ref_ = Pipeline_reference.run_exn cfg trace in
        Alcotest.(check string)
          (name ^ "/" ^ label)
          (Tca_util.Json.to_string (Sim_stats.to_json ref_))
          (Tca_util.Json.to_string (Sim_stats.to_json opt));
        opt
      in
      ignore (agree "baseline" cfg pair.Tca_workloads.Meta.baseline);
      List.iter
        (fun c ->
          let stats =
            agree
              (Config.coupling_name c)
              (Config.with_coupling cfg c)
              pair.Tca_workloads.Meta.accelerated
          in
          Alcotest.(check int)
            (name ^ ": two per-unit rows")
            2
            (List.length stats.Sim_stats.per_unit);
          List.iteri
            (fun i (u : Sim_stats.unit_stats) ->
              Alcotest.(check int) (name ^ ": unit id") i u.Sim_stats.unit_id;
              Alcotest.(check int)
                (name ^ ": per-unit invocations")
                20 u.Sim_stats.invocations)
            stats.Sim_stats.per_unit)
        Config.all_couplings)
    Tca_workloads.Multi_tca.all_kinds

let test_multi_trace_io_roundtrip () =
  let build unit_id =
    let b = Trace.Builder.create () in
    Trace.Builder.add b (Isa.int_alu ~src1:1 ~src2:2 ~dst:3 ());
    Trace.Builder.add b
      (Isa.accel ~src1:7 ~dst:8 ~compute_latency:9 ~unit_id
         ~reads:[| 64; 128 |] ~writes:[| 256 |] ());
    Trace.Builder.add b
      (Isa.accel ~src1:8 ~dst:9 ~compute_latency:4 ~unit_id:1 ~reads:[||]
         ~writes:[| 512 |] ());
    Trace.Builder.build b
  in
  let save_to_string t =
    let path = Filename.temp_file "tca" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Trace.save path t;
        let ic = open_in_bin path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let t' = Trace.load path in
        Alcotest.(check int) "length" (Trace.length t) (Trace.length t');
        for i = 0 to Trace.length t - 1 do
          Alcotest.(check bool)
            (Printf.sprintf "instr %d" i)
            true
            (Trace.get t i = Trace.get t' i)
        done;
        s)
  in
  let zero = save_to_string (build 0) in
  let one = save_to_string (build 1) in
  (* Unit 0 keeps the pre-[Tca_unit] line shape (no trailing unit
     field); a non-zero id appends exactly one field. *)
  Alcotest.(check bool) "unit id changes the accel line" true (zero <> one);
  let accel_fields s =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | _ :: "accel" :: rest -> Some (2 + List.length rest)
        | _ -> None)
      (String.split_on_char '\n' s)
  in
  match (accel_fields zero, accel_fields one) with
  | [ z0; z1 ], [ o0; o1 ] ->
      Alcotest.(check int) "trailing unit id is one field" (z0 + 1) o0;
      Alcotest.(check int) "unit 1 lines identical" z1 o1
  | _ -> Alcotest.fail "expected two accel lines per trace"

let test_multi_config_validate () =
  let cfg = Config.hp () in
  Alcotest.(check bool) "default table valid" true
    (Config.validate cfg = Ok ());
  let bad_pos =
    Config.with_tca_units cfg [| Tca_unit.default 0; Tca_unit.default 0 |]
  in
  Alcotest.(check bool) "id must equal position" true
    (match Config.validate bad_pos with Error _ -> true | Ok () -> false);
  let empty = Config.with_tca_units cfg [||] in
  Alcotest.(check bool) "empty unit table rejected" true
    (match Config.validate empty with Error _ -> true | Ok () -> false);
  Alcotest.check_raises "negative extra latency"
    (Invalid_argument "Tca_unit.make: negative extra invocation latency")
    (fun () -> ignore (Tca_unit.make ~extra_invocation_latency:(-1) 0))

(* A trace invoking a unit the config does not define must be rejected
   up front, with the same diagnostic from both pipelines. *)
let test_multi_trace_unit_bound () =
  let b = Trace.Builder.create () in
  Trace.Builder.add b (Isa.int_alu ~dst:1 ());
  Trace.Builder.add b
    (Isa.accel ~dst:2 ~compute_latency:4 ~unit_id:1 ~reads:[||] ~writes:[||]
       ());
  let t = Trace.Builder.build b in
  let cfg = Config.hp () in
  let diag name = function
    | Error (Tca_util.Diag.Invalid _ as d) -> Tca_util.Diag.to_string d
    | Error d -> Alcotest.fail (name ^ ": wrong diag " ^ Tca_util.Diag.to_string d)
    | Ok _ -> Alcotest.fail (name ^ ": expected rejection")
  in
  let opt = diag "optimized" (Pipeline.run cfg t) in
  let ref_ = diag "reference" (Pipeline_reference.run cfg t) in
  Alcotest.(check string) "same diagnostic" opt ref_

let test_multi_sim_stats_roundtrips () =
  let sc = multi_scenario Tca_workloads.Multi_tca.Alternating in
  let cfg =
    Config.with_tca_units (Config.hp ()) sc.Tca_workloads.Multi_tca.tca_units
  in
  let pair = sc.Tca_workloads.Multi_tca.pair in
  let multi = Pipeline.run_exn cfg pair.Tca_workloads.Meta.accelerated in
  Alcotest.(check bool) "fixture has per-unit rows" true
    (multi.Sim_stats.per_unit <> []);
  let single =
    Pipeline.run_exn (Config.hp ()) pair.Tca_workloads.Meta.baseline
  in
  Alcotest.(check bool) "single-unit stats omit per_unit" false
    (let json = Tca_util.Json.to_string (Sim_stats.to_json single) in
     let needle = "per_unit" in
     let n = String.length needle in
     let rec mem i =
       i + n <= String.length json
       && (String.sub json i n = needle || mem (i + 1))
     in
     mem 0);
  List.iter
    (fun (label, stats) ->
      (match Sim_stats.of_json (Sim_stats.to_json stats) with
      | Ok stats' ->
          Alcotest.(check bool) (label ^ ": json roundtrip") true
            (stats = stats');
          Alcotest.(check string)
            (label ^ ": json bytes stable")
            (Tca_util.Json.to_string (Sim_stats.to_json stats))
            (Tca_util.Json.to_string (Sim_stats.to_json stats'))
      | Error d ->
          Alcotest.fail (label ^ ": of_json " ^ Tca_util.Diag.to_string d));
      match Sim_stats.of_json_string (Tca_util.Json.to_string (Sim_stats.to_json stats)) with
      | Ok stats' ->
          Alcotest.(check bool) (label ^ ": json string roundtrip") true
            (stats = stats')
      | Error d ->
          Alcotest.fail
            (label ^ ": of_json_string " ^ Tca_util.Diag.to_string d))
    [ ("multi", multi); ("single", single) ];
  List.iter
    (fun (label, stats) ->
      let row = Sim_stats.csv_row stats in
      Alcotest.(check int)
        (label ^ ": csv arity")
        (List.length Sim_stats.csv_header)
        (List.length row);
      match Sim_stats.of_csv_row row with
      | Ok stats' ->
          Alcotest.(check (list string))
            (label ^ ": csv roundtrip")
            row
            (Sim_stats.csv_row stats')
      | Error d ->
          Alcotest.fail (label ^ ": of_csv_row " ^ Tca_util.Diag.to_string d))
    [ ("multi", multi); ("single", single) ]

(* --- Configuration mechanisms (T1)-(T3) --- *)

let config_cfg mode latency =
  Config.with_tca_units (Config.hp ())
    [|
      Tca_unit.make ~config_mode:mode ~config_latency:latency
        ~config_queue_depth:2 0;
    |]

let test_config_unit_validate () =
  Alcotest.check_raises "negative config latency"
    (Invalid_argument "Tca_unit.make: negative config latency") (fun () ->
      ignore (Tca_unit.make ~config_latency:(-1) 0));
  Alcotest.check_raises "config queue depth < 1"
    (Invalid_argument "Tca_unit.make: config queue depth < 1") (fun () ->
      ignore (Tca_unit.make ~config_queue_depth:0 0));
  let reject label u =
    Alcotest.(check bool) label true
      (match Tca_unit.validate u with Error _ -> true | Ok _ -> false)
  in
  reject "validate: negative config latency"
    { (Tca_unit.default 0) with Tca_unit.config_latency = -3 };
  reject "validate: config queue depth < 1"
    { (Tca_unit.default 0) with Tca_unit.config_queue_depth = 0 };
  Alcotest.(check bool) "queued unit valid" true
    (Result.is_ok
       (Tca_unit.validate
          (Tca_unit.make ~config_mode:Tca_unit.Queued ~config_latency:50
             ~config_queue_depth:2 0)));
  Alcotest.(check bool) "config in pp only when latency > 0" true
    (let show u = Format.asprintf "%a" Tca_unit.pp u in
     let inert = show (Tca_unit.default 0) in
     let active =
       show (Tca_unit.make ~config_mode:Tca_unit.Queued ~config_latency:50 0)
     in
     (not (String.length inert >= String.length active))
     && inert <> active)

(* Both pipelines must agree byte-for-byte with every configuration
   mechanism active, and the config counters must land where the
   mechanism says: [Sync] stalls every invocation, [Queued] stalls only
   on a full descriptor queue, [Preprogrammed] pays once. The dense pair
   (two accel units per chunk) keeps the queued engine saturated so the
   queue-full path is actually exercised. *)
let test_config_pipelines_agree () =
  let sparse =
    Tca_workloads.Synthetic.generate
      (Tca_workloads.Synthetic.config ~n_units:600 ~n_chunks:60
         ~accel_latency:20 ())
  in
  let dense =
    Tca_workloads.Synthetic.generate
      (Tca_workloads.Synthetic.config ~n_units:400 ~n_chunks:200
         ~accel_latency:20 ())
  in
  let run_all label cfg (pair : Tca_workloads.Meta.pair) =
    List.map
      (fun c ->
        let cfg = Config.with_coupling cfg c in
        let trace = pair.Tca_workloads.Meta.accelerated in
        let opt = Pipeline.run_exn cfg trace in
        let ref_ = Pipeline_reference.run_exn cfg trace in
        Alcotest.(check string)
          (label ^ "/" ^ Config.coupling_name c)
          (Tca_util.Json.to_string (Sim_stats.to_json ref_))
          (Tca_util.Json.to_string (Sim_stats.to_json opt));
        opt)
      Config.all_couplings
  in
  let total f stats = List.fold_left (fun acc s -> acc + f s) 0 stats in
  let sync_stall s = s.Sim_stats.config_stall_cycles in
  let queue_stall s = s.Sim_stats.config_queue_stall_cycles in
  (* Baseline traces carry no accel instructions: config counters stay 0
     and the run is identical to an unconfigured one. *)
  let base =
    Pipeline.run_exn
      (config_cfg Tca_unit.Sync 30)
      sparse.Tca_workloads.Meta.baseline
  in
  Alcotest.(check int) "baseline: no config stalls" 0
    (sync_stall base + queue_stall base);
  let sync = run_all "sync" (config_cfg Tca_unit.Sync 30) sparse in
  Alcotest.(check bool) "sync: stalls every invocation" true
    (List.for_all (fun s -> sync_stall s > 0 && queue_stall s = 0) sync);
  let preprog = run_all "preprog" (config_cfg Tca_unit.Preprogrammed 30) sparse in
  List.iter2
    (fun s p ->
      Alcotest.(check bool) "preprog: pays once, less than sync" true
        (sync_stall p > 0 && sync_stall p < sync_stall s && queue_stall p = 0))
    sync preprog;
  let queued_sparse = run_all "queued" (config_cfg Tca_unit.Queued 5) sparse in
  Alcotest.(check int) "queued: deep sparse stream never fills the queue" 0
    (total queue_stall queued_sparse + total sync_stall queued_sparse);
  let queued_dense = run_all "queued-dense" (config_cfg Tca_unit.Queued 50) dense in
  Alcotest.(check bool) "queued: dense stream hits the queue bound" true
    (total queue_stall queued_dense > 0
    && total sync_stall queued_dense = 0);
  (* Round-trips with non-zero config counters: the two counters sit
     outside the golden six-reason stall breakdown, so they only get
     exercised here. *)
  List.iter
    (fun (label, stats) ->
      (match Sim_stats.of_json (Sim_stats.to_json stats) with
      | Ok stats' ->
          Alcotest.(check bool) (label ^ ": json roundtrip") true
            (stats = stats')
      | Error d ->
          Alcotest.fail (label ^ ": of_json " ^ Tca_util.Diag.to_string d));
      let row = Sim_stats.csv_row stats in
      Alcotest.(check int)
        (label ^ ": csv arity")
        (List.length Sim_stats.csv_header)
        (List.length row);
      match Sim_stats.of_csv_row row with
      | Ok stats' ->
          Alcotest.(check (list string))
            (label ^ ": csv roundtrip")
            row
            (Sim_stats.csv_row stats')
      | Error d ->
          Alcotest.fail (label ^ ": of_csv_row " ^ Tca_util.Diag.to_string d))
    [
      ("sync stats", List.hd sync);
      ("queued stats", List.nth queued_dense 3);
    ]

(* --- Golden pins --- *)

(* test/golden/<name>.golden pins [Sim_stats.to_json] for the baseline
   and all four couplings of each bundled workload family, produced by
   the pre-optimization pipeline. Both the optimized path (through
   [Simulator.compare_modes], i.e. [run_batch]) and the verbatim
   reference implementation must reproduce those bytes exactly.
   Regenerate with [dune exec test/gen_golden.exe] only on deliberate
   semantic changes. *)
let read_golden name =
  (* The dune [deps] glob copies the pins next to the test binary in
     _build, so resolve against the executable rather than the cwd
     (which differs between [dune runtest] and [dune exec]). *)
  let path =
    Filename.concat
      (Filename.concat (Filename.dirname Sys.executable_name) "golden")
      (name ^ ".golden")
  in
  let ic = open_in path in
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_string buf (input_line ic);
       Buffer.add_char buf '\n'
     done
   with End_of_file -> ());
  close_in ic;
  Buffer.contents buf

let golden_line label stats =
  Printf.sprintf "%s\t%s\n" label
    (Tca_util.Json.to_string (Sim_stats.to_json stats))

let golden_optimized (pair : Tca_workloads.Meta.pair) =
  let cmp =
    Simulator.compare_modes_exn ~cfg:(Config.hp ())
      ~baseline:pair.Tca_workloads.Meta.baseline
      ~accelerated:pair.Tca_workloads.Meta.accelerated ()
  in
  String.concat ""
    (golden_line "baseline" cmp.Simulator.baseline
    :: List.map
         (fun (r : Simulator.mode_result) ->
           golden_line (Config.coupling_name r.Simulator.coupling)
             r.Simulator.stats)
         cmp.Simulator.modes)

let golden_reference (pair : Tca_workloads.Meta.pair) =
  let cfg = Config.hp () in
  String.concat ""
    (golden_line "baseline"
       (Pipeline_reference.run_exn cfg pair.Tca_workloads.Meta.baseline)
    :: List.map
         (fun c ->
           golden_line (Config.coupling_name c)
             (Pipeline_reference.run_exn (Config.with_coupling cfg c)
                pair.Tca_workloads.Meta.accelerated))
         Config.all_couplings)

let test_golden_pins () =
  List.iter
    (fun (name, pair) ->
      let pinned = read_golden name in
      Alcotest.(check string)
        (name ^ ": optimized pipeline matches golden")
        pinned (golden_optimized pair);
      Alcotest.(check string)
        (name ^ ": reference pipeline matches golden")
        pinned (golden_reference pair))
    (Tca_experiments.Exp_common.golden_pairs ())

(* --- Event-driven clock advance: targeted differential cases ---

   [Pipeline.run] without a probe jumps over idle cycles; with a probe
   it steps every cycle, as [Pipeline_reference] always does. Each case
   aims a stall span at one event boundary of the jump and must match
   the reference on the [Sim_stats] JSON, the outcome constructor and
   the diagnostic. The probed run must match too, and must see at least
   two idle cycles in a row, so the jump is really taken. [expect]
   checks the case reaches the regime it names. *)

let skip_trace n body =
  let b = Trace.Builder.create () in
  for k = 0 to n - 1 do
    List.iter (Trace.Builder.add b) (body k)
  done;
  Trace.Builder.build b

(* A load to a line no other instruction touches: misses L1 and L2. *)
let dram_miss ~dst k = Isa.load ~dst ~addr:(0x100000 + (k * 4096)) ()
let alu k = Isa.int_alu ~dst:(8 + (k mod 48)) ()
let alus k n = List.init n (fun j -> alu ((k * n) + j))
let coin k = (((k * 1103515245) + 12345) lsr 16) land 1 = 1

let one_unit ?(coupling = Config.coupling_l_t) unit =
  Config.with_tca_units (Config.hp ~coupling ()) [| unit |]

let skip_cases =
  let cfg_of f = f (Config.hp ()) in
  [
    ( "watchdog cap inside a stall span",
      cfg_of (fun c -> { c with Config.max_cycles = Some 700 }),
      skip_trace 1 (fun _ ->
          Isa.accel ~dst:1 ~compute_latency:2000 ~reads:[||] ~writes:[||] ()
          :: alus 0 400),
      fun o ->
        (match o with Pipeline.Partial _ -> true | Pipeline.Complete _ -> false)
        && (Pipeline.stats_of_outcome o).Sim_stats.cycles = 701 );
  ]
  (* Depth 1 resumes on the cycle after the branch resolves; depth 2
     leaves one idle cycle whose successor is the resume cycle itself. *)
  @ List.map
      (fun depth ->
        ( Printf.sprintf "frontend_depth %d: redirect resumes" depth,
          cfg_of (fun c -> { c with Config.frontend_depth = depth }),
          skip_trace 60 (fun k ->
              [ dram_miss ~dst:1 k; Isa.branch ~src1:1 ~taken:(coin k) () ]
              @ alus k 3),
          fun o -> (Pipeline.stats_of_outcome o).Sim_stats.mispredicts > 0 ))
      [ 1; 2 ]
  (* Under NT the second accelerator of each pair heads the dispatch
     group that follows the first one's commit, so its one-cycle CSR
     write is a counted stall that ends on the very next cycle. *)
  @ List.map
      (fun (name, mode) ->
        ( name ^ " unit, config_latency 1",
          one_unit ~coupling:Config.coupling_nl_nt
            (Tca_unit.make ~config_mode:mode ~config_latency:1 0),
          skip_trace 30 (fun k ->
              [
                Isa.accel ~dst:2 ~compute_latency:30 ~reads:[||] ~writes:[||]
                  ();
                Isa.accel ~src1:1 ~dst:3 ~compute_latency:30 ~reads:[||]
                  ~writes:[||] ();
                dram_miss ~dst:1 k;
              ]
              @ alus k 4),
          fun o ->
            (Pipeline.stats_of_outcome o).Sim_stats.config_stall_cycles > 0 ))
      [ ("sync", Tca_unit.Sync); ("preprogrammed", Tca_unit.Preprogrammed) ]
  @ List.map
      (fun depth ->
        ( Printf.sprintf "queued unit, depth %d" depth,
          one_unit
            (Tca_unit.make ~config_mode:Tca_unit.Queued ~config_latency:40
               ~config_queue_depth:depth 0),
          (* Compute latencies sweep every residue of the descriptor
             period, so some commit lands just before a queue release
             and the idle cycle after it ends on the release itself. *)
          skip_trace 40 (fun k ->
              Isa.accel ~dst:2
                ~compute_latency:(1 + (k * 13 mod 40))
                ~reads:[||] ~writes:[||] ()
              :: alus k 2),
          fun o ->
            (Pipeline.stats_of_outcome o).Sim_stats.config_queue_stall_cycles
            > 0 ))
      [ 1; 2 ]
  @ List.map
      (fun coupling ->
        ( "two units, non-head accelerators wait under "
          ^ Config.coupling_name coupling,
          Config.with_tca_units (Config.hp ~coupling ())
            [| Tca_unit.default 0; Tca_unit.default 1 |],
          skip_trace 20 (fun k ->
              [
                dram_miss ~dst:1 k;
                Isa.accel ~dst:2 ~compute_latency:10 ~reads:[||] ~writes:[||]
                  ();
                dram_miss ~dst:4 (k + 1000);
                Isa.accel ~unit_id:1 ~dst:3 ~compute_latency:10 ~reads:[||]
                  ~writes:[||] ();
              ]
              @ alus k 4),
          fun o ->
            let per_unit = (Pipeline.stats_of_outcome o).Sim_stats.per_unit in
            List.length per_unit = 2
            && List.for_all
                 (fun (u : Sim_stats.unit_stats) ->
                   u.Sim_stats.wait_for_head_cycles > 0)
                 per_unit ))
      [ Config.coupling_nl_t; Config.coupling_nl_nt ]
  (* The writebacks fall due mid-stall, on their accelerator's
     completion cycle. The cap at cycle 100, after the first drain and
     before the miss returns, also compares a Partial snapshot whose
     cache counters include it. *)
  @ List.map
      (fun cap ->
        ( Printf.sprintf "accelerator writebacks due during a full-ROB stall%s"
            (match cap with Some c -> Printf.sprintf ", cap %d" c | None -> ""),
          cfg_of (fun c -> { c with Config.max_cycles = cap }),
          skip_trace 6 (fun k ->
              [
                dram_miss ~dst:1 k;
                Isa.accel ~dst:2 ~compute_latency:80 ~reads:[||]
                  ~writes:[| 0x8000 + (k * 64); 0x9000 + (k * 64) |]
                  ();
              ]
              @ alus k 300),
          fun o ->
            let st = Pipeline.stats_of_outcome o in
            st.Sim_stats.stalls.Sim_stats.rob_full > 0
            && st.Sim_stats.accel_invocations > 0 ))
      [ None; Some 100 ]

let test_skip_differential () =
  List.iter
    (fun (name, cfg, trace, expect) ->
      let idle = ref 0 and longest = ref 0 in
      let probe =
        {
          Pipeline.on_cycle =
            (fun ~cycle:_ ~dispatched ~issued ~executing:_ ~rob_occupancy:_ ->
              if dispatched = 0 && issued = 0 then begin
                incr idle;
                if !idle > !longest then longest := !idle
              end
              else idle := 0);
        }
      in
      let fast = Pipeline.run cfg trace in
      let stepped = Pipeline.run ~probe cfg trace in
      let oracle = outcome_key (Pipeline_reference.run cfg trace) in
      Alcotest.(check string) (name ^ ": fast = reference") oracle
        (outcome_key fast);
      Alcotest.(check string) (name ^ ": probed = reference") oracle
        (outcome_key stepped);
      Alcotest.(check bool) (name ^ ": has an idle span to skip") true
        (!longest >= 2);
      Alcotest.(check bool) (name ^ ": reaches its regime") true
        (match fast with Ok o -> expect o | Error _ -> false))
    skip_cases

(* --- Wakeup-driven issue: targeted differential cases ---

   [Pipeline] issues from a ready set (a bitmap over ROB slots, visited
   from [head] round the ring) fed by per-producer wakeup lists, and
   completes from a min-heap; [Pipeline_reference] rescans the whole
   window every cycle. Each case puts ready-but-unissued entries where
   that bookkeeping can go wrong — across the ring's wrap, across bitmap
   words, behind saturated units, blocked loads and head-waiting
   accelerators — and must match the reference on the [Sim_stats] JSON,
   the outcome constructor and the diagnostic, with and without a
   probe. [expect] checks the case reaches the regime it names. *)

let with_rob n c = { c with Config.rob_size = n; iq_size = n; lsq_size = n }

(* One iteration of a mixed body: a miss that stalls commit, a store
   whose address waits on it and a load blocked behind that store, a
   multiply chain reading one register twice, and independent FP and
   ALU work. *)
let mixed k =
  let line = 0x2000 + (k mod 4 * 64) in
  [
    dram_miss ~dst:1 k;
    Isa.store ~base:1 ~addr:line ();
    Isa.load ~dst:4 ~addr:line ();
    Isa.int_mult ~src1:2 ~src2:2 ~dst:2 ();
    Isa.fp_alu ~dst:(20 + (k mod 8)) ();
    Isa.fp_mult ~dst:(28 + (k mod 4)) ();
  ]
  @ alus k 3

let wakeup_cases =
  let cfg_of f = f (Config.hp ()) in
  [
    (* Dispatch outruns the single ALU, so a full 20-entry ROB holds
       ready ALU ops on both sides of slot 0 while the head miss waits. *)
    ( "full ROB wraps with ready entries both sides of slot 0",
      cfg_of (fun c -> { (with_rob 20 c) with Config.int_alu_units = 1 }),
      skip_trace 40 (fun k -> dram_miss ~dst:1 k :: alus k 12),
      fun o ->
        (Pipeline.stats_of_outcome o).Sim_stats.stalls.Sim_stats.rob_full > 0
    );
    (* Each multiply reads the previous one's result twice: two wakeup
       nodes in one producer's list. The chain of 200 three-cycle
       multiplies bounds the run from below. *)
    ( "src1 = src2 on the same producer",
      cfg_of Fun.id,
      skip_trace 200 (fun k ->
          [ Isa.int_mult ~src1:2 ~src2:2 ~dst:2 (); alu k ]),
      fun o -> (Pipeline.stats_of_outcome o).Sim_stats.cycles > 200 * 3 );
    (* The load's operands are ready at dispatch, but the older store to
       its line waits on a miss, so the load is visited and blocked on
       every cycle of the miss while younger ALU ops issue past it. Once
       the store executes the load forwards from it, so the L1 sees only
       the 20 misses and the 20 committed stores. *)
    ( "store-blocked load stays ready",
      cfg_of Fun.id,
      skip_trace 20 (fun k ->
          [
            dram_miss ~dst:1 k;
            Isa.store ~base:1 ~addr:(0x3000 + (k * 64)) ();
            Isa.load ~dst:4 ~addr:(0x3000 + (k * 64)) ();
          ]
          @ alus k 8),
      fun o ->
        let l1 = (Pipeline.stats_of_outcome o).Sim_stats.l1 in
        l1.Mem_hier.hits + l1.Mem_hier.misses = 40 );
  ]
  (* Several ready non-leading accelerators queue behind a miss at the
     head; each cycle of the miss counts one head wait per accelerator,
     per unit with two units. *)
  @ List.map
      (fun n ->
        ( Printf.sprintf "ready NL accelerators wait for head, %d unit(s)" n,
          Config.with_tca_units
            (Config.hp ~coupling:Config.coupling_nl_t ())
            (Array.init n Tca_unit.default),
          skip_trace 15 (fun k ->
              (dram_miss ~dst:1 k
              :: List.init 4 (fun j ->
                     Isa.accel ~unit_id:(j mod n) ~dst:(2 + j)
                       ~compute_latency:5 ~reads:[||] ~writes:[||] ()))
              @ alus k 4),
          fun o ->
            let st = Pipeline.stats_of_outcome o in
            st.Sim_stats.accel_wait_for_head_cycles > 0
            && List.for_all
                 (fun (u : Sim_stats.unit_stats) ->
                   u.Sim_stats.wait_for_head_cycles > 0)
                 st.Sim_stats.per_unit ))
      [ 1; 2 ]
  (* One multiplier and one FP unit: ready multiplies and FP ops queue
     while younger ready ALU ops issue past them. *)
  @ [
      ( "int_mult_units = 1, fp_units = 1 saturate behind ready ALU ops",
        cfg_of (fun c ->
            { c with Config.int_mult_units = 1; fp_units = 1 }),
        skip_trace 60 (fun k ->
            [
              Isa.int_mult ~dst:(20 + (k mod 4)) ();
              Isa.int_mult ~dst:(24 + (k mod 4)) ();
              Isa.fp_alu ~dst:(28 + (k mod 4)) ();
              Isa.fp_mult ~dst:(32 + (k mod 4)) ();
            ]
            @ alus k 2),
        fun o ->
          (* 120 multiplies through one unit bound the run from below *)
          (Pipeline.stats_of_outcome o).Sim_stats.cycles >= 120 );
    ]
  (* ROB sizes either side of one and two 62-slot bitmap words; the
     mixed body fills every slot of the window behind a miss (a full-ROB
     stall) and wraps it. *)
  @ List.map
      (fun n ->
        ( Printf.sprintf "rob_size %d" n,
          cfg_of (with_rob n),
          skip_trace 40 mixed,
          fun o ->
            (Pipeline.stats_of_outcome o).Sim_stats.stalls.Sim_stats.rob_full
            > 0 ))
      [ 2; 61; 62; 63; 124; 125 ]

let test_wakeup_differential () =
  (* Any probe selects the per-cycle loop. *)
  let probe =
    {
      Pipeline.on_cycle =
        (fun ~cycle:_ ~dispatched:_ ~issued:_ ~executing:_ ~rob_occupancy:_ ->
          ());
    }
  in
  List.iter
    (fun (name, cfg, trace, expect) ->
      let fast = Pipeline.run cfg trace in
      let oracle = outcome_key (Pipeline_reference.run cfg trace) in
      Alcotest.(check string) (name ^ ": fast = reference") oracle
        (outcome_key fast);
      Alcotest.(check string) (name ^ ": probed = reference") oracle
        (outcome_key (Pipeline.run ~probe cfg trace));
      Alcotest.(check bool) (name ^ ": reaches its regime") true
        (match fast with Ok o -> expect o | Error _ -> false))
    wakeup_cases

let () =
  Alcotest.run "tca_uarch"
    [
      ( "isa",
        [
          Alcotest.test_case "constructors" `Quick test_isa_constructors;
          Alcotest.test_case "register validation" `Quick test_isa_register_validation;
          Alcotest.test_case "address validation" `Quick test_isa_addr_validation;
          Alcotest.test_case "accel" `Quick test_isa_accel;
          Alcotest.test_case "op names" `Quick test_isa_op_names;
        ] );
      ( "trace",
        [
          Alcotest.test_case "builder pcs" `Quick test_trace_builder_pcs;
          Alcotest.test_case "add_at_site" `Quick test_trace_add_at_site;
          Alcotest.test_case "builder growth" `Quick test_trace_builder_growth;
          Alcotest.test_case "validate bad reg" `Quick test_trace_validate_bad_reg;
          Alcotest.test_case "counts" `Quick test_trace_counts;
          Alcotest.test_case "io roundtrip" `Quick test_trace_io_roundtrip;
          Alcotest.test_case "io rejects garbage" `Quick test_trace_io_rejects_garbage;
          Alcotest.test_case "io error messages" `Quick test_trace_io_error_messages;
          Alcotest.test_case "validate no-op accel" `Quick test_trace_validate_noop_accel;
          Alcotest.test_case "counts json" `Quick test_trace_counts_json;
          Alcotest.test_case "io simulates identically" `Quick test_trace_io_simulates_identically;
        ] );
      ( "bpred",
        [
          Alcotest.test_case "bimodal learns bias" `Quick test_bpred_bimodal_learns;
          Alcotest.test_case "gshare learns pattern" `Quick test_bpred_gshare_learns_pattern;
          Alcotest.test_case "bimodal misses pattern" `Quick test_bpred_bimodal_fails_pattern;
          Alcotest.test_case "tournament" `Quick test_bpred_tournament_best_of_both;
          Alcotest.test_case "perfect" `Quick test_bpred_perfect;
          Alcotest.test_case "bits validation" `Quick test_bpred_bits_validation;
        ] );
      ( "cache",
        [
          Alcotest.test_case "config validation" `Quick test_cache_config_validation;
          Alcotest.test_case "hit after miss" `Quick test_cache_hit_after_miss;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "probe non-mutating" `Quick test_cache_probe_nonmutating;
          Alcotest.test_case "reset stats" `Quick test_cache_reset_stats;
        ] );
      ( "mem_hier",
        [
          Alcotest.test_case "latencies" `Quick test_hier_latencies;
          Alcotest.test_case "store fills" `Quick test_hier_store_fills;
          Alcotest.test_case "no L2" `Quick test_hier_no_l2;
        ] );
      ( "ports",
        [
          Alcotest.test_case "bandwidth" `Quick test_ports_bandwidth;
          Alcotest.test_case "ring reuse" `Quick test_ports_reuse_after_wrap;
          Alcotest.test_case "validation" `Quick test_ports_validation;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "config validation" `Quick test_tlb_config_validation;
          Alcotest.test_case "hit/miss" `Quick test_tlb_hit_miss;
          Alcotest.test_case "LRU" `Quick test_tlb_lru;
          Alcotest.test_case "pipeline integration" `Quick test_pipeline_dtlb;
        ] );
      ( "config",
        [
          Alcotest.test_case "coupling names" `Quick test_config_coupling_names;
          Alcotest.test_case "validate" `Quick test_config_validate;
          Alcotest.test_case "with_coupling" `Quick test_config_with_coupling;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "single instruction" `Quick test_pipeline_single_instr;
          Alcotest.test_case "independent IPC" `Quick test_pipeline_independent_ipc;
          Alcotest.test_case "chain IPC" `Quick test_pipeline_chain_ipc;
          Alcotest.test_case "mult chain IPC" `Quick test_pipeline_mult_chain_ipc;
          Alcotest.test_case "commits everything" `Quick test_pipeline_commits_everything;
          Alcotest.test_case "cache counted" `Quick test_pipeline_cache_counted;
          Alcotest.test_case "store-load forwarding" `Quick test_pipeline_store_load_forwarding;
          Alcotest.test_case "mispredict penalty" `Quick test_pipeline_mispredict_penalty;
          Alcotest.test_case "serialize barrier" `Quick test_pipeline_serialize_barrier;
          Alcotest.test_case "NL head wait" `Quick test_pipeline_nl_head_wait;
          Alcotest.test_case "mode cycle ordering" `Quick test_pipeline_mode_cycle_ordering;
          Alcotest.test_case "accel memory" `Quick test_pipeline_accel_memory;
          Alcotest.test_case "determinism" `Quick test_pipeline_determinism;
          Alcotest.test_case "probe" `Quick test_pipeline_probe;
          Alcotest.test_case "watchdog partial" `Quick test_pipeline_watchdog_partial;
          Alcotest.test_case "invalid config" `Quick test_pipeline_invalid_config;
          Alcotest.test_case "LP slower than HP" `Quick test_pipeline_lp_slower;
          prop_random_traces_terminate;
          prop_latency_monotone;
          prop_coupling_monotone;
          prop_mem_latency_monotone;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "compare modes" `Quick test_simulator_compare_modes;
          Alcotest.test_case "measure ipc" `Quick test_simulator_measure_ipc;
          Alcotest.test_case "run_batch" `Quick test_simulator_run_batch;
          Alcotest.test_case "run_batch partial mix" `Quick
            test_simulator_run_batch_partial_mix;
        ] );
      ( "multi_unit",
        [
          Alcotest.test_case "pipelines agree" `Slow
            test_multi_unit_pipelines_agree;
          Alcotest.test_case "trace io roundtrip" `Quick
            test_multi_trace_io_roundtrip;
          Alcotest.test_case "config validation" `Quick
            test_multi_config_validate;
          Alcotest.test_case "trace unit bound" `Quick
            test_multi_trace_unit_bound;
          Alcotest.test_case "sim stats roundtrips" `Quick
            test_multi_sim_stats_roundtrips;
        ] );
      ( "config_cost",
        [
          Alcotest.test_case "unit validation" `Quick test_config_unit_validate;
          Alcotest.test_case "pipelines agree + counters" `Slow
            test_config_pipelines_agree;
        ] );
      ( "clock_jump",
        [
          Alcotest.test_case "differential cases" `Quick
            test_skip_differential;
        ] );
      ( "wakeup",
        [
          Alcotest.test_case "differential cases" `Quick
            test_wakeup_differential;
        ] );
      ( "golden",
        [ Alcotest.test_case "workload pins" `Quick test_golden_pins ] );
    ]
