(* Optimized hot path. Semantics are pinned, bit for bit, to
   [Pipeline_reference] (the original implementation): the golden tests,
   the fuzz harness and [bench simulator] all diff the two. The
   optimizations are purely representational:

   - the trace is pre-decoded once into [Trace.Decoded] flat arrays
     (shared and memoized per trace), so the per-cycle loops index int
     arrays instead of chasing [Isa.instr] records and matching variant
     constructors;
   - pending accelerator writes live in a parallel-array stack instead
     of a per-cycle [List.partition] (drained newest-first, exactly the
     reference's list order, since store order shapes cache LRU state);
   - store-to-load forwarding scans an explicit in-flight store queue
     (the stores between dispatch and commit, in program order) instead
     of walking every older ROB slot;
   - ring-buffer indices wrap with a compare instead of [mod], stage
     loops are tail-recursive over int accumulators instead of
     closure/ref based, and per-opcode latencies come from a table built
     at [create];
   - issue and completion are event-driven where the reference rescans
     the whole window every cycle (gem5's O3 core wakes dependants the
     same way). At dispatch an entry links one node per source operand
     into its still-pending producer's consumer list and counts them in
     [pend]; completion walks the list and an entry whose count reaches
     0 joins the ready set, a bitmap over ROB slots that issue visits
     oldest-first from [head] (the reference's visiting order, minus the
     entries it would find not ready). Executing entries sit in a
     min-heap on [complete_at], and completion pops exactly those due.
     Invariants: the ready set holds exactly the waiting entries with
     [pend = 0] (an entry leaves it only in [start_executing], so
     blocked loads, head-waiting accelerators and ops behind saturated
     units stay in it); [pend] counts the entry's source nodes whose
     producer has not completed; the heap holds exactly the executing
     entries ([executing] is its size). Nothing is squashed, so no list
     or heap entry goes stale;
   - the run loop is split: the [?telemetry:None] + [?probe:None] path
     does no interval bookkeeping at all, the instrumented path is the
     reference loop verbatim;
   - the fast path advances from event to event: after a cycle in which
     nothing completed, committed, issued or dispatched, it jumps the
     clock to the earliest cycle at which any stage can change state —
     the next completion (the heap top), the next accelerator
     writeback ([paw_next_due]), the done head's commit time
     ([complete_at + commit_depth]), the redirect resume
     ([fetch_resume_at]), the end of synchronous CSR writes
     ([cfg_ready_at]), the next instruction's descriptor-queue release,
     or [cap + 1] for the watchdog — and credits the skipped cycles'
     occupancy, stall reason and head waits in one step. Exact, not an
     approximation: every skipped cycle would have repeated the idle one.
     The instrumented path (a [?probe] or [?telemetry] is given) and
     [Pipeline_reference] still step every cycle.

   The stages and the memory models they call (ports, caches, TLB)
   allocate nothing per cycle or per access: their loops — the heap
   sifts and the bitmap search included — are top-level tail-recursive
   functions over ints, never closures. Measured with perfbench's
   traced runs, the allocation left is per-run set-up (ROB, port and
   cache arrays): pipeline.words_per_uop 1.71 on sim_stall and 0.45
   on sim_dense (9.65 and 5.43 with the per-access closures and tuples
   this replaced). *)

module D = Trace.Decoded

type probe = {
  on_cycle :
    cycle:int -> dispatched:int -> issued:int -> executing:int ->
    rob_occupancy:int -> unit;
}

(* ROB entry states. *)
let st_empty = 0
let st_waiting = 1
let st_executing = 2
let st_done = 3

(* Stall reasons for the first unfilled dispatch slot of a cycle
   (scratch encoding; see [dispatch_stage]). *)
let stall_none = 0
let stall_drained = 1
let stall_redirect = 2
let stall_serialize = 3
let stall_rob = 4
let stall_iq = 5
let stall_lsq = 6
let stall_config = 7
let stall_config_queue = 8

type state = {
  cfg : Config.t;
  telemetry : Tca_telemetry.Sink.t option;
      (* Observation only: instrumentation reads simulator state, never
         writes it, so an attached sink cannot perturb results (asserted
         by the fuzz harness). *)
  trace : Trace.t;
  d : D.t;  (* pre-decoded struct-of-arrays view of [trace] *)
  tlen : int;
  hier : Mem_hier.t;
  bp : Bpred.t;
  bp_perfect : bool;
  ports : Ports.t;
  miss_ports : Ports.t option;
  dtlb : Tlb.t option;
  (* Per-TCA-unit state, indexed by [Isa.accel.unit_id] (= the unit's
     position in [cfg.tca_units]). Effective flags are resolved once at
     [create] — unit override, else the core-wide knob — so the hot loop
     only ever indexes flat arrays. With the default single unit every
     array is the old scalar and the schedules are bit-identical. *)
  n_units : int;
  u_free_at : int array;  (* per-unit [accel_free_at] *)
  u_exclusive : bool array;
  u_allow_leading : bool array;
  u_allow_trailing : bool array;
  u_extra_lat : int array;  (* Tca_unit.extra_invocation_latency *)
  u_ports : Ports.t option array;
      (* [Some] = the unit's private writeback-port bank
         ([Tca_unit.Private]); [None] = contend on the shared ports *)
  u_invocations : int array;
  u_busy : int array;
  u_head_wait : int array;
  u_serialize : int array;
  mutable serialize_unit : int;  (* unit owning [serialize_slot] *)
  (* Configuration-wall mechanics (Tca_unit.config_mode, the simulator
     counterpart of Equations terms (T1)-(T3)). Every path below is
     gated on [u_cfg_lat > 0], so the default zero-latency units leave
     schedules bit-identical to the pre-t_config pipeline. *)
  u_cfg_mode : Tca_unit.config_mode array;
  u_cfg_lat : int array;  (* Tca_unit.config_latency *)
  u_cfg_depth : int array;  (* Tca_unit.config_queue_depth *)
  u_desc_free_at : int array;
      (* cycle the unit's serial descriptor engine finishes its backlog;
         with backlog R = free_at - now > 0, outstanding descriptors are
         exactly ceil(R / c) (completions spaced c apart), so queue-full
         is the integer test [R > (depth - 1) * c] *)
  u_preprog_done : bool array;  (* Preprogrammed one-time cost paid *)
  cfg_ready : int array;
      (* per-ROB-slot: cycle the invocation's descriptor is processed
         and execution may start (0 for non-queued invocations) *)
  mutable cfg_paid_ti : int;
      (* trace index whose synchronous CSR writes are in flight, -1 none *)
  mutable cfg_ready_at : int;  (* cycle those CSR writes complete *)
  rob : int;  (* capacity, cached *)
  (* Config scalars cached flat (one load instead of two). *)
  issue_width : int;
  dispatch_width : int;
  commit_width : int;
  commit_depth : int;
  frontend_depth : int;
  iq_size : int;
  lsq_size : int;
  int_alu_units : int;
  int_mult_units : int;
  fp_units : int;
  lat : int array;  (* latency per opcode, indexed by [D.op_*] *)
  (* Parallel ROB arrays, indexed by slot. *)
  tr_idx : int array;
  st : int array;
  complete_at : int array;
  seq : int array;
  (* Wakeup lists: every waiting entry links one node per source operand
     whose producer was still pending at dispatch (node [2 * slot + j]
     for source [j], so [src1 = src2] links two nodes into the same
     list), and [pend] counts its nodes not yet woken. *)
  pend : int array;
  wk_head : int array;  (* per producer slot: first consumer node, -1 none *)
  wk_next : int array;  (* per node: next node in the same list, -1 end *)
  ready : int array;
      (* bitmap over slots, [ready_bits] per word: the waiting entries
         with [pend = 0] *)
  (* Executing entries: a binary min-heap on [complete_at], [executing]
     entries long. *)
  heap_at : int array;
  heap_slot : int array;
  (* Rename table: architectural register -> youngest producer. *)
  ren_slot : int array;
  ren_seq : int array;
  (* In-flight stores (dispatched, not committed), program order:
     ring of ROB slot indices, scanned for store-to-load forwarding. *)
  stq : int array;
  mutable stq_head : int;
  mutable stq_count : int;
  mutable head : int;
  mutable tail : int;
  mutable count : int;
  mutable executing : int;  (* entries in [st_executing] = heap size *)
  mutable iq_count : int;
  mutable lsq_count : int;
  mutable next_fetch : int;
  mutable next_seq : int;
  mutable fetch_resume_at : int;
  mutable pending_redirect : int;  (* slot of unresolved mispredicted branch, -1 none *)
  mutable pending_redirect_seq : int;
  mutable serialize_slot : int;  (* in-flight NT TCA blocking dispatch, -1 none *)
  (* Pending accelerator writebacks: a stack of (due cycle, span in
     [d.accel_mem]) triples, drained newest-first. *)
  mutable paw_at : int array;
  mutable paw_off : int array;
  mutable paw_len : int array;
  mutable paw_count : int;
  mutable paw_next_due : int;
  mutable stall_reason : int;  (* dispatch_stage scratch *)
  (* Statistics. *)
  mutable cycle : int;
  mutable committed : int;
  mutable branches : int;
  mutable mispredicts : int;
  mutable accel_invocations : int;
  mutable accel_busy : int;
  mutable accel_head_wait : int;
  mutable stall_rob : int;
  mutable stall_iq : int;
  mutable stall_lsq : int;
  mutable stall_serialize : int;
  mutable stall_redirect : int;
  mutable stall_drained : int;
  mutable stall_config : int;
  mutable stall_config_queue : int;
  mutable occupancy_sum : int;
  mutable occupancy_at_accel_sum : int;
}

(* Slots per word of the ready bitmap: 62 keeps every bit clear of the
   sign bit of OCaml's 63-bit int. *)
let ready_bits = 62

let create ?telemetry cfg trace =
  let r = cfg.Config.rob_size in
  let bp = Bpred.create cfg.Config.bpred in
  let lat = Array.make 8 0 in
  lat.(D.op_int_alu) <- cfg.Config.latencies.Config.int_alu;
  lat.(D.op_int_mult) <- cfg.Config.latencies.Config.int_mult;
  lat.(D.op_fp_alu) <- cfg.Config.latencies.Config.fp_alu;
  lat.(D.op_fp_mult) <- cfg.Config.latencies.Config.fp_mult;
  lat.(D.op_branch) <- cfg.Config.latencies.Config.int_alu;
  let units = cfg.Config.tca_units in
  let nu = Array.length units in
  {
    cfg;
    telemetry;
    trace;
    d = Trace.decoded trace;
    tlen = Trace.length trace;
    hier = Mem_hier.create cfg.Config.mem;
    bp;
    bp_perfect = Bpred.is_perfect bp;
    ports = Ports.create ~width:cfg.Config.mem_ports ~horizon:8192;
    miss_ports =
      Option.map
        (fun width -> Ports.create ~width ~horizon:8192)
        cfg.Config.miss_bandwidth;
    dtlb = Option.map Tlb.create cfg.Config.dtlb;
    n_units = nu;
    u_free_at = Array.make nu 0;
    u_exclusive = Array.map (Config.unit_exclusive cfg) units;
    u_allow_leading = Array.map (Config.unit_allow_leading cfg) units;
    u_allow_trailing = Array.map (Config.unit_allow_trailing cfg) units;
    u_extra_lat =
      Array.map
        (fun (u : Tca_unit.t) -> u.Tca_unit.extra_invocation_latency)
        units;
    u_ports =
      Array.map
        (fun (u : Tca_unit.t) ->
          match u.Tca_unit.commit_port with
          | Tca_unit.Shared -> None
          | Tca_unit.Private ->
              Some (Ports.create ~width:cfg.Config.mem_ports ~horizon:8192))
        units;
    u_invocations = Array.make nu 0;
    u_busy = Array.make nu 0;
    u_head_wait = Array.make nu 0;
    u_serialize = Array.make nu 0;
    serialize_unit = -1;
    u_cfg_mode =
      Array.map (fun (u : Tca_unit.t) -> u.Tca_unit.config_mode) units;
    u_cfg_lat =
      Array.map (fun (u : Tca_unit.t) -> u.Tca_unit.config_latency) units;
    u_cfg_depth =
      Array.map (fun (u : Tca_unit.t) -> u.Tca_unit.config_queue_depth) units;
    u_desc_free_at = Array.make nu 0;
    u_preprog_done = Array.make nu false;
    cfg_ready = Array.make r 0;
    cfg_paid_ti = -1;
    cfg_ready_at = 0;
    rob = r;
    issue_width = cfg.Config.issue_width;
    dispatch_width = cfg.Config.dispatch_width;
    commit_width = cfg.Config.commit_width;
    commit_depth = cfg.Config.commit_depth;
    frontend_depth = cfg.Config.frontend_depth;
    iq_size = cfg.Config.iq_size;
    lsq_size = cfg.Config.lsq_size;
    int_alu_units = cfg.Config.int_alu_units;
    int_mult_units = cfg.Config.int_mult_units;
    fp_units = cfg.Config.fp_units;
    lat;
    tr_idx = Array.make r (-1);
    st = Array.make r st_empty;
    complete_at = Array.make r 0;
    seq = Array.make r (-1);
    pend = Array.make r 0;
    wk_head = Array.make r (-1);
    wk_next = Array.make (2 * r) (-1);
    ready = Array.make ((r + ready_bits - 1) / ready_bits) 0;
    heap_at = Array.make r 0;
    heap_slot = Array.make r 0;
    ren_slot = Array.make Isa.num_arch_regs (-1);
    ren_seq = Array.make Isa.num_arch_regs (-1);
    stq = Array.make r (-1);
    stq_head = 0;
    stq_count = 0;
    head = 0;
    tail = 0;
    count = 0;
    executing = 0;
    iq_count = 0;
    lsq_count = 0;
    next_fetch = 0;
    next_seq = 0;
    fetch_resume_at = 0;
    pending_redirect = -1;
    pending_redirect_seq = -1;
    serialize_slot = -1;
    paw_at = Array.make 8 0;
    paw_off = Array.make 8 0;
    paw_len = Array.make 8 0;
    paw_count = 0;
    paw_next_due = max_int;
    stall_reason = stall_none;
    cycle = 0;
    committed = 0;
    branches = 0;
    mispredicts = 0;
    accel_invocations = 0;
    accel_busy = 0;
    accel_head_wait = 0;
    stall_rob = 0;
    stall_iq = 0;
    stall_lsq = 0;
    stall_serialize = 0;
    stall_redirect = 0;
    stall_drained = 0;
    stall_config = 0;
    stall_config_queue = 0;
    occupancy_sum = 0;
    occupancy_at_accel_sum = 0;
  }

(* [head + k] reduced into [0, rob): both operands are < rob, so one
   conditional subtraction replaces the reference's [mod]. *)
let[@inline] wrap s i = if i >= s.rob then i - s.rob else i

let[@inline] imin (a : int) b = if a < b then a else b

(* A producer is still pending iff its slot holds the same dynamic
   instruction (sequence number matches) and it has not completed. A
   mismatching sequence means the producer committed and its slot was
   reused (or freed): the value is architecturally available. Tested
   once, at dispatch; a pending producer wakes its consumers when it
   completes ([wake]), which always precedes its commit. *)
let[@inline] producer_pending s slot seq =
  slot >= 0 && s.st.(slot) <> st_empty && s.seq.(slot) = seq
  && s.st.(slot) <> st_done

(* --- ready bitmap --- *)

let[@inline] set_ready s slot =
  let w = slot / ready_bits in
  s.ready.(w) <- s.ready.(w) lor (1 lsl (slot - (w * ready_bits)))

let[@inline] clear_ready s slot =
  let w = slot / ready_bits in
  s.ready.(w) <- s.ready.(w) land lnot (1 lsl (slot - (w * ready_bits)))

(* Index of the lowest set bit of [x <> 0], by halving. *)
let ctz x =
  let n = if x land 0xFFFF_FFFF = 0 then 32 else 0 in
  let x = x lsr n in
  let m = if x land 0xFFFF = 0 then 16 else 0 in
  let x = x lsr m and n = n + m in
  let m = if x land 0xFF = 0 then 8 else 0 in
  let x = x lsr m and n = n + m in
  let m = if x land 0xF = 0 then 4 else 0 in
  let x = x lsr m and n = n + m in
  let m = if x land 0x3 = 0 then 2 else 0 in
  let x = x lsr m and n = n + m in
  if x land 1 = 0 then n + 1 else n

(* Lowest ready slot in [[p, stop)], or [stop] if none. *)
let rec next_ready s p stop =
  if p >= stop then stop
  else
    let w = p / ready_bits in
    let bits = s.ready.(w) lsr (p - (w * ready_bits)) in
    if bits <> 0 then imin (p + ctz bits) stop
    else next_ready s ((w + 1) * ready_bits) stop

(* --- completion heap: [heap_at]/[heap_slot] [0, executing) --- *)

let[@inline] heap_set s i at slot =
  s.heap_at.(i) <- at;
  s.heap_slot.(i) <- slot

let rec sift_up s i at slot =
  if i = 0 then heap_set s i at slot
  else
    let parent = (i - 1) / 2 in
    if s.heap_at.(parent) > at then begin
      heap_set s i s.heap_at.(parent) s.heap_slot.(parent);
      sift_up s parent at slot
    end
    else heap_set s i at slot

let rec sift_down s i n at slot =
  let l = (2 * i) + 1 in
  if l >= n then heap_set s i at slot
  else
    let c =
      if l + 1 < n && s.heap_at.(l + 1) < s.heap_at.(l) then l + 1 else l
    in
    if s.heap_at.(c) < at then begin
      heap_set s i s.heap_at.(c) s.heap_slot.(c);
      sift_down s c n at slot
    end
    else heap_set s i at slot

let heap_pop s =
  let n = s.executing - 1 in
  s.executing <- n;
  if n > 0 then sift_down s 0 n s.heap_at.(n) s.heap_slot.(n)

(* Youngest in-flight store older (in program order, i.e. by sequence
   number) than the load, to the same address. Walks the store queue
   newest-first from position [k] — the same answer as the reference's
   backwards ROB scan, which skips every non-store slot, but in
   O(in-flight stores). Top-level rather than a closure, so the scan
   (re-run every cycle for a blocked load) allocates nothing. Returns:
   [`None] no conflict, access memory;
   [`Forward] matching store completed, forward in 1 cycle;
   [`Blocked] matching store not yet executed, the load must wait. *)
let rec older_store_match s load_seq addr k =
  if k < 0 then `None
  else
    let slot = s.stq.(wrap s (s.stq_head + k)) in
    if s.seq.(slot) >= load_seq then older_store_match s load_seq addr (k - 1)
    else if s.d.addr.(s.tr_idx.(slot)) = addr then
      if s.st.(slot) = st_done then `Forward else `Blocked
    else older_store_match s load_seq addr (k - 1)

(* Partial speculation: a deterministic per-dynamic-instance coin decides
   whether this TCA invocation may execute speculatively (as a
   confidence-based design would, paper Section VIII). *)
let accel_speculative s slot u =
  match s.cfg.Config.tca_speculate_fraction with
  | None -> s.u_allow_leading.(u)
  | Some p ->
      let h = s.seq.(slot) * 0x9E3779B9 in
      let h = (h lxor (h lsr 16)) land 0xFFFF in
      float_of_int h < p *. 65536.0

(* --- per-cycle stages, called in order: complete, commit, issue,
   dispatch --- *)

(* Retire due accelerator writes into the cache hierarchy. Two passes:
   the stores drain newest-entry-first (the reference's list order —
   store order shapes LRU/dirty state), then the survivors compact in
   place keeping their relative order. *)
let drain_accel_writes s =
  let mem = s.d.accel_mem in
  for i = s.paw_count - 1 downto 0 do
    if s.paw_at.(i) <= s.cycle then begin
      let off = s.paw_off.(i) in
      for k = off to off + s.paw_len.(i) - 1 do
        Mem_hier.store s.hier mem.(k)
      done
    end
  done;
  let j = ref 0 and min_at = ref max_int in
  for i = 0 to s.paw_count - 1 do
    if s.paw_at.(i) > s.cycle then begin
      s.paw_at.(!j) <- s.paw_at.(i);
      s.paw_off.(!j) <- s.paw_off.(i);
      s.paw_len.(!j) <- s.paw_len.(i);
      if s.paw_at.(i) < !min_at then min_at := s.paw_at.(i);
      incr j
    end
  done;
  s.paw_count <- !j;
  s.paw_next_due <- !min_at

let push_accel_write s ~finish ~off ~len =
  if s.paw_count = Array.length s.paw_at then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    s.paw_at <- grow s.paw_at;
    s.paw_off <- grow s.paw_off;
    s.paw_len <- grow s.paw_len
  end;
  s.paw_at.(s.paw_count) <- finish;
  s.paw_off.(s.paw_count) <- off;
  s.paw_len.(s.paw_count) <- len;
  s.paw_count <- s.paw_count + 1;
  if finish < s.paw_next_due then s.paw_next_due <- finish

(* Walk a completed producer's consumer list: each node resolves one
   source operand, and an entry whose last pending source resolves
   becomes ready. *)
let rec wake s node =
  if node >= 0 then begin
    let c = node / 2 in
    let p = s.pend.(c) - 1 in
    s.pend.(c) <- p;
    if p = 0 then set_ready s c;
    wake s s.wk_next.(node)
  end

(* Pop every executing entry due this cycle. Completions commute (each
   touches only its own slot, its consumers' counts and its own
   redirect), so the heap's pop order cannot change results. *)
let rec complete_due s =
  if s.executing > 0 && s.heap_at.(0) <= s.cycle then begin
    let slot = s.heap_slot.(0) in
    heap_pop s;
    s.st.(slot) <- st_done;
    if s.pending_redirect = slot && s.pending_redirect_seq = s.seq.(slot)
    then begin
      s.fetch_resume_at <- s.cycle + s.frontend_depth;
      s.pending_redirect <- -1;
      s.pending_redirect_seq <- -1
    end;
    wake s s.wk_head.(slot);
    s.wk_head.(slot) <- -1;
    complete_due s
  end

let complete_stage s =
  if s.paw_count > 0 && s.paw_next_due <= s.cycle then drain_accel_writes s;
  complete_due s

let rec commit_loop s n =
  if n < s.commit_width && s.count > 0 then begin
    let slot = s.head in
    if s.st.(slot) = st_done && s.complete_at.(slot) + s.commit_depth <= s.cycle
    then begin
      let ti = s.tr_idx.(slot) in
      let opc = s.d.op.(ti) in
      if opc = D.op_store then begin
        Mem_hier.store s.hier s.d.addr.(ti);
        (* the head store is necessarily the oldest in the queue *)
        s.stq_head <- wrap s (s.stq_head + 1);
        s.stq_count <- s.stq_count - 1
      end;
      if opc = D.op_load || opc = D.op_store then
        s.lsq_count <- s.lsq_count - 1;
      let dst = s.d.dst.(ti) in
      if dst >= 0 && s.ren_slot.(dst) = slot && s.ren_seq.(dst) = s.seq.(slot)
      then begin
        s.ren_slot.(dst) <- -1;
        s.ren_seq.(dst) <- -1
      end;
      if s.serialize_slot = slot then s.serialize_slot <- -1;
      s.st.(slot) <- st_empty;
      s.seq.(slot) <- -1;
      s.head <- wrap s (s.head + 1);
      s.count <- s.count - 1;
      s.committed <- s.committed + 1;
      commit_loop s (n + 1)
    end
  end

let commit_stage s = commit_loop s 0

(* Issue one line read at or after [now]: books a memory port, and when
   the line misses the L1 also books an MSHR-injection slot if miss
   bandwidth is limited. Returns the completion cycle. *)
let memory_read s ~now addr =
  let port_cycle = Ports.reserve s.ports ~now in
  let start =
    match s.miss_ports with
    | Some mp when not (Mem_hier.l1_resident s.hier addr) ->
        max port_cycle (Ports.reserve mp ~now:port_cycle)
    | Some _ | None -> port_cycle
  in
  let translation =
    match s.dtlb with Some tlb -> Tlb.access tlb addr | None -> 0
  in
  start + translation + Mem_hier.load_latency s.hier addr

let rec accel_reads_loop s ~now off k len acc =
  if k >= len then acc
  else
    accel_reads_loop s ~now off (k + 1) len
      (max acc (memory_read s ~now s.d.accel_mem.(off + k)))

let rec accel_writes_loop ports ~now k len acc =
  if k >= len then acc
  else
    let port_cycle = Ports.reserve ports ~now in
    accel_writes_loop ports ~now (k + 1) len (max acc (port_cycle + 1))

let issue_accel s slot ti u =
  let start =
    if s.u_exclusive.(u) then max s.cycle s.u_free_at.(u) else s.cycle
  in
  (* A queued invocation may not start before its descriptor is
     processed ([cfg_ready] is 0 for every other kind of invocation). *)
  let start = if s.cfg_ready.(slot) > start then s.cfg_ready.(slot) else start in
  let reads_len = s.d.reads_len.(ti) in
  let writes_len = s.d.writes_len.(ti) in
  let reads_done =
    accel_reads_loop s ~now:start s.d.reads_off.(ti) 0 reads_len start
  in
  let compute_done = reads_done + s.d.accel_lat.(ti) + s.u_extra_lat.(u) in
  let wports = match s.u_ports.(u) with Some p -> p | None -> s.ports in
  let write_done =
    accel_writes_loop wports ~now:compute_done 0 writes_len compute_done
  in
  let finish = max compute_done write_done in
  if writes_len > 0 then
    push_accel_write s ~finish ~off:s.d.writes_off.(ti) ~len:writes_len;
  let complete = max finish (s.cycle + 1) in
  s.u_free_at.(u) <- complete;
  s.accel_busy <- s.accel_busy + (complete - s.cycle);
  s.u_busy.(u) <- s.u_busy.(u) + (complete - s.cycle);
  (match s.telemetry with
  | None -> ()
  | Some sink ->
      (* Invoke-to-complete span; its duration is exactly this
         invocation's contribution to [accel_busy]. *)
      Tca_telemetry.Sink.span sink ~cat:"accel"
        ~args:
          ([
             ("reads", Tca_util.Json.Int reads_len);
             ("writes", Tca_util.Json.Int writes_len);
             ("compute_latency", Tca_util.Json.Int s.d.accel_lat.(ti));
           ]
          @ if s.n_units > 1 then [ ("unit", Tca_util.Json.Int u) ] else [])
        ~ts:(float_of_int s.cycle)
        ~dur:(float_of_int (complete - s.cycle))
        "accel.invoke");
  complete

(* The only way out of the ready set: every issue path, the
   accelerator's included, goes through here. *)
let[@inline] start_executing s slot complete =
  clear_ready s slot;
  s.st.(slot) <- st_executing;
  s.complete_at.(slot) <- complete;
  let i = s.executing in
  s.executing <- i + 1;
  sift_up s i complete slot;
  s.iq_count <- s.iq_count - 1

(* Visit the ready set oldest-first — slots [[slot, stop)], first from
   [head] to the end of the ring, then from 0 up to [head] — issuing up
   to [issue_width] instructions, bounded by the per-class unit counts.
   This is the reference's visiting order over its whole-window scan,
   minus the entries it would skip as not ready. Tail-recursive over
   int accumulators: no closure, no ref, no allocation. *)
let rec issue_scan s slot stop issued ialu imult fp =
  if issued >= s.issue_width then issued
  else
    let slot = next_ready s slot stop in
    if slot >= stop then
      if stop = s.rob && s.head > 0 then
        issue_scan s 0 s.head issued ialu imult fp
      else issued
    else begin
      let ti = s.tr_idx.(slot) in
      let opc = s.d.op.(ti) in
      if opc = D.op_int_alu || opc = D.op_branch then
        if ialu < s.int_alu_units then begin
          start_executing s slot (s.cycle + s.lat.(opc));
          issue_scan s (slot + 1) stop (issued + 1) (ialu + 1) imult fp
        end
        else issue_scan s (slot + 1) stop issued ialu imult fp
      else if opc = D.op_int_mult then
        if imult < s.int_mult_units then begin
          start_executing s slot (s.cycle + s.lat.(opc));
          issue_scan s (slot + 1) stop (issued + 1) ialu (imult + 1) fp
        end
        else issue_scan s (slot + 1) stop issued ialu imult fp
      else if opc = D.op_fp_alu || opc = D.op_fp_mult then
        if fp < s.fp_units then begin
          start_executing s slot (s.cycle + s.lat.(opc));
          issue_scan s (slot + 1) stop (issued + 1) ialu imult (fp + 1)
        end
        else issue_scan s (slot + 1) stop issued ialu imult fp
      else if opc = D.op_store then begin
        (* Address generation; data drains to cache at commit. *)
        start_executing s slot (s.cycle + 1);
        issue_scan s (slot + 1) stop (issued + 1) ialu imult fp
      end
      else if opc = D.op_load then (
        match
          older_store_match s s.seq.(slot) s.d.addr.(ti) (s.stq_count - 1)
        with
        | `Blocked -> issue_scan s (slot + 1) stop issued ialu imult fp
        | `Forward ->
            start_executing s slot (s.cycle + 1);
            issue_scan s (slot + 1) stop (issued + 1) ialu imult fp
        | `None ->
            start_executing s slot (memory_read s ~now:s.cycle s.d.addr.(ti));
            issue_scan s (slot + 1) stop (issued + 1) ialu imult fp)
      else begin
        (* accel *)
        let u = s.d.accel_unit.(ti) in
        if accel_speculative s slot u || slot = s.head then begin
          start_executing s slot (issue_accel s slot ti u);
          issue_scan s (slot + 1) stop (issued + 1) ialu imult fp
        end
        else begin
          s.accel_head_wait <- s.accel_head_wait + 1;
          s.u_head_wait.(u) <- s.u_head_wait.(u) + 1;
          issue_scan s (slot + 1) stop issued ialu imult fp
        end
      end
    end

let issue_stage s = issue_scan s s.head s.rob 0 0 0 0

(* Synchronous configuration gate for trace index [ti] on a unit with
   config latency [c]: the first attempt starts [c] cycles of CSR
   writes, dispatch waits until they complete. *)
let sync_gate s ti c =
  if s.cfg_paid_ti <> ti then begin
    s.cfg_paid_ti <- ti;
    s.cfg_ready_at <- s.cycle + c;
    stall_config
  end
  else if s.cycle < s.cfg_ready_at then stall_config
  else stall_none

(* Source [j] of the entry dispatched into [slot] reads register [src]
   (-1 none): if its producer is still pending, link node [2 * slot + j]
   into the producer's consumer list. *)
let link_source s slot j src =
  if src >= 0 then begin
    let p = s.ren_slot.(src) in
    if producer_pending s p s.ren_seq.(src) then begin
      let node = (2 * slot) + j in
      s.wk_next.(node) <- s.wk_head.(p);
      s.wk_head.(p) <- node;
      s.pend.(slot) <- s.pend.(slot) + 1
    end
  end

let rec dispatch_loop s dispatched =
  if dispatched >= s.dispatch_width then dispatched
  else if s.next_fetch >= s.tlen then begin
    s.stall_reason <- stall_drained;
    dispatched
  end
  else if s.cycle < s.fetch_resume_at then begin
    s.stall_reason <- stall_redirect;
    dispatched
  end
  else if s.serialize_slot >= 0 then begin
    s.stall_reason <- stall_serialize;
    dispatched
  end
  else if s.count = s.rob then begin
    s.stall_reason <- stall_rob;
    dispatched
  end
  else if s.iq_count = s.iq_size then begin
    s.stall_reason <- stall_iq;
    dispatched
  end
  else begin
    let ti = s.next_fetch in
    let opc = s.d.op.(ti) in
    let is_mem = opc = D.op_load || opc = D.op_store in
    if is_mem && s.lsq_count = s.lsq_size then begin
      s.stall_reason <- stall_lsq;
      dispatched
    end
    else begin
      (* Configuration gate, evaluated only for accel instructions of a
         unit with a non-zero config latency (so the default pipeline is
         untouched). [Sync] (and the one-time [Preprogrammed] cost)
         blocks dispatch for [config_latency] cycles of CSR writes; a
         [Queued] unit only blocks while its descriptor queue is full. *)
      let cfg_block =
        if opc <> D.op_accel then stall_none
        else
          let u = s.d.accel_unit.(ti) in
          let c = s.u_cfg_lat.(u) in
          if c = 0 then stall_none
          else
            match s.u_cfg_mode.(u) with
            | Tca_unit.Sync -> sync_gate s ti c
            | Tca_unit.Preprogrammed ->
                if s.u_preprog_done.(u) then stall_none else sync_gate s ti c
            | Tca_unit.Queued ->
                (* backlog R = free_at - now; outstanding = ceil(R / c),
                   so full <=> R > (depth - 1) * c *)
                if
                  s.u_desc_free_at.(u) - s.cycle
                  > (s.u_cfg_depth.(u) - 1) * c
                then stall_config_queue
                else stall_none
      in
      if cfg_block <> stall_none then begin
        s.stall_reason <- cfg_block;
        dispatched
      end
      else begin
      let slot = s.tail in
      s.tail <- wrap s (s.tail + 1);
      s.count <- s.count + 1;
      s.tr_idx.(slot) <- ti;
      s.st.(slot) <- st_waiting;
      s.seq.(slot) <- s.next_seq;
      s.next_seq <- s.next_seq + 1;
      s.pend.(slot) <- 0;
      link_source s slot 0 s.d.src1.(ti);
      link_source s slot 1 s.d.src2.(ti);
      if s.pend.(slot) = 0 then set_ready s slot;
      let dst = s.d.dst.(ti) in
      if dst >= 0 then begin
        s.ren_slot.(dst) <- slot;
        s.ren_seq.(dst) <- s.seq.(slot)
      end;
      s.iq_count <- s.iq_count + 1;
      if is_mem then begin
        s.lsq_count <- s.lsq_count + 1;
        if opc = D.op_store then begin
          s.stq.(wrap s (s.stq_head + s.stq_count)) <- slot;
          s.stq_count <- s.stq_count + 1
        end
      end;
      if opc = D.op_branch then begin
        s.branches <- s.branches + 1;
        if not s.bp_perfect then begin
          let pc = s.d.pc.(ti) in
          let taken = s.d.taken.(ti) in
          let predicted = Bpred.predict s.bp ~pc in
          Bpred.update s.bp ~pc ~taken;
          if predicted <> taken then begin
            s.mispredicts <- s.mispredicts + 1;
            s.pending_redirect <- slot;
            s.pending_redirect_seq <- s.seq.(slot);
            s.fetch_resume_at <- max_int;
            match s.telemetry with
            | None -> ()
            | Some sink ->
                Tca_telemetry.Sink.instant sink ~cat:"branch"
                  ~args:[ ("pc", Tca_util.Json.Int pc) ]
                  ~ts:(float_of_int s.cycle) "flush.mispredict"
          end
        end
      end
      else if opc = D.op_accel then begin
        let u = s.d.accel_unit.(ti) in
        s.accel_invocations <- s.accel_invocations + 1;
        s.u_invocations.(u) <- s.u_invocations.(u) + 1;
        s.occupancy_at_accel_sum <- s.occupancy_at_accel_sum + s.count - 1;
        if not s.u_allow_trailing.(u) then begin
          s.serialize_slot <- slot;
          s.serialize_unit <- u
        end;
        (* Config bookkeeping: enqueue the descriptor (serial engine,
           one descriptor per [config_latency] cycles) or mark the
           one-time programming as paid. [cfg_ready] is cleared first so
           a reused ROB slot cannot leak a stale descriptor deadline. *)
        s.cfg_ready.(slot) <- 0;
        (if s.u_cfg_lat.(u) > 0 then
           match s.u_cfg_mode.(u) with
           | Tca_unit.Queued ->
               let start =
                 if s.u_desc_free_at.(u) > s.cycle then s.u_desc_free_at.(u)
                 else s.cycle
               in
               let done_at = start + s.u_cfg_lat.(u) in
               s.u_desc_free_at.(u) <- done_at;
               s.cfg_ready.(slot) <- done_at
           | Tca_unit.Preprogrammed -> s.u_preprog_done.(u) <- true
           | Tca_unit.Sync -> ());
        match s.telemetry with
        | None -> ()
        | Some sink ->
            Tca_telemetry.Sink.instant sink ~cat:"accel"
              ~args:
                (("rob_occupancy", Tca_util.Json.Int (s.count - 1))
                :: (if s.n_units > 1 then [ ("unit", Tca_util.Json.Int u) ]
                    else []))
              ~ts:(float_of_int s.cycle) "accel.dispatch"
      end;
      s.next_fetch <- s.next_fetch + 1;
      dispatch_loop s (dispatched + 1)
      end
    end
  end

(* Charge [n] dispatch-less cycles to stall reason [r]. *)
let count_stall s r n =
  if r = stall_drained then s.stall_drained <- s.stall_drained + n
  else if r = stall_redirect then s.stall_redirect <- s.stall_redirect + n
  else if r = stall_serialize then begin
    s.stall_serialize <- s.stall_serialize + n;
    (* [serialize_unit] was set with [serialize_slot] and only read
       while that slot is still in flight, so it is never stale here. *)
    s.u_serialize.(s.serialize_unit) <- s.u_serialize.(s.serialize_unit) + n
  end
  else if r = stall_rob then s.stall_rob <- s.stall_rob + n
  else if r = stall_iq then s.stall_iq <- s.stall_iq + n
  else if r = stall_lsq then s.stall_lsq <- s.stall_lsq + n
  else if r = stall_config then s.stall_config <- s.stall_config + n
  else if r = stall_config_queue then
    s.stall_config_queue <- s.stall_config_queue + n

let dispatch_stage s =
  s.stall_reason <- stall_none;
  let dispatched = dispatch_loop s 0 in
  (* Attribute the cycle to a stall reason only when nothing at all was
     dispatched: that is the "zero useful dispatches" notion the model
     reasons about. *)
  if dispatched = 0 then count_stall s s.stall_reason 1;
  dispatched

let executing_occupancy s = s.executing

let stats_of s =
  {
    Sim_stats.cycles = s.cycle;
    committed = s.committed;
    ipc =
      (if s.cycle = 0 then 0.0
       else float_of_int s.committed /. float_of_int s.cycle);
    branches = s.branches;
    mispredicts = s.mispredicts;
    l1 = Mem_hier.l1_stats s.hier;
    l2 = Mem_hier.l2_stats s.hier;
    accel_invocations = s.accel_invocations;
    accel_busy_cycles = s.accel_busy;
    accel_wait_for_head_cycles = s.accel_head_wait;
    avg_rob_occupancy =
      (if s.cycle = 0 then 0.0
       else float_of_int s.occupancy_sum /. float_of_int s.cycle);
    avg_rob_at_accel_dispatch =
      (if s.accel_invocations = 0 then 0.0
       else
         float_of_int s.occupancy_at_accel_sum
         /. float_of_int s.accel_invocations);
    dtlb =
      Option.map
        (fun tlb ->
          { Mem_hier.hits = Tlb.hits tlb; misses = Tlb.misses tlb })
        s.dtlb;
    stalls =
      {
        Sim_stats.rob_full = s.stall_rob;
        iq_full = s.stall_iq;
        lsq_full = s.stall_lsq;
        serialize = s.stall_serialize;
        redirect = s.stall_redirect;
        drained = s.stall_drained;
      };
    config_stall_cycles = s.stall_config;
    config_queue_stall_cycles = s.stall_config_queue;
    per_unit =
      (* Single-unit runs keep the breakdown empty: the aggregate accel
         counters already are that unit's slice, and the golden JSON
         bytes must not change. *)
      (if s.n_units <= 1 then []
       else
         List.init s.n_units (fun i ->
             {
               Sim_stats.unit_id = i;
               invocations = s.u_invocations.(i);
               busy_cycles = s.u_busy.(i);
               wait_for_head_cycles = s.u_head_wait.(i);
               serialize_stall_cycles = s.u_serialize.(i);
             }));
  }

type outcome =
  | Complete of Sim_stats.t
  | Partial of { stats : Sim_stats.t; diag : Tca_util.Diag.t }

let stats_of_outcome = function
  | Complete stats -> stats
  | Partial { stats; _ } -> stats

let default_cycle_budget trace = 100_000 + (500 * Trace.length trace)

(* Per-interval telemetry: a snapshot of the cumulative counters at the
   last flush, so each flush emits exact deltas. Because the final
   (possibly partial) interval is flushed when the run ends, the deltas
   of every series sum to the corresponding [Sim_stats] total by
   construction. *)
type interval_snap = {
  mutable last_cycle : int;  (* cycle of the previous flush *)
  mutable s_rob : int;
  mutable s_iq : int;
  mutable s_lsq : int;
  mutable s_serialize : int;
  mutable s_redirect : int;
  mutable s_drained : int;
  mutable s_committed : int;
  mutable s_occupancy_sum : int;
  mutable acc_dispatched : int;  (* accumulated since the last flush *)
  mutable acc_issued : int;
}

let flush_interval s sink snap ~now =
  let len = now - snap.last_cycle in
  if len > 0 then begin
    let ts = float_of_int now in
    let f = float_of_int in
    Tca_telemetry.Sink.counter sink ~cat:"sim" ~ts "sim.stalls"
      [
        ("rob", f (s.stall_rob - snap.s_rob));
        ("iq", f (s.stall_iq - snap.s_iq));
        ("lsq", f (s.stall_lsq - snap.s_lsq));
        ("serialize", f (s.stall_serialize - snap.s_serialize));
        ("redirect", f (s.stall_redirect - snap.s_redirect));
        ("drained", f (s.stall_drained - snap.s_drained));
      ];
    Tca_telemetry.Sink.counter sink ~cat:"sim" ~ts "sim.pipeline"
      [
        ("committed", f (s.committed - snap.s_committed));
        ("dispatched", f snap.acc_dispatched);
        ("issued", f snap.acc_issued);
      ];
    Tca_telemetry.Sink.counter sink ~cat:"sim" ~ts "sim.rob"
      [
        ("occupancy", f s.count);
        ( "avg",
          float_of_int (s.occupancy_sum - snap.s_occupancy_sum)
          /. float_of_int len );
      ];
    snap.last_cycle <- now;
    snap.s_rob <- s.stall_rob;
    snap.s_iq <- s.stall_iq;
    snap.s_lsq <- s.stall_lsq;
    snap.s_serialize <- s.stall_serialize;
    snap.s_redirect <- s.stall_redirect;
    snap.s_drained <- s.stall_drained;
    snap.s_committed <- s.committed;
    snap.s_occupancy_sum <- s.occupancy_sum;
    snap.acc_dispatched <- 0;
    snap.acc_issued <- 0
  end

let finish_telemetry s sink snap outcome_stats =
  flush_interval s sink snap ~now:s.cycle;
  Tca_telemetry.Sink.span sink ~cat:"sim" ~ts:0.0 ~dur:(float_of_int s.cycle)
    ~args:
      [
        ("committed", Tca_util.Json.Int s.committed);
        ("ipc", Tca_util.Json.Float outcome_stats.Sim_stats.ipc);
        ("accel_invocations", Tca_util.Json.Int s.accel_invocations);
      ]
    "sim.run";
  match Tca_telemetry.Sink.metrics sink with
  | None -> ()
  | Some reg ->
      let add name v =
        match Tca_telemetry.Metrics.counter reg name with
        | Ok c -> Tca_telemetry.Metrics.Counter.add c v
        | Error _ -> ()
      in
      add "sim.runs" 1;
      add "sim.cycles" s.cycle;
      add "sim.committed" s.committed;
      add "sim.accel_invocations" s.accel_invocations

let watchdog_diag s =
  Tca_util.Diag.Watchdog
    { cycles = s.cycle; committed = s.committed; total = s.tlen }

(* --- event-driven clock advance (fast path only) ---

   A cycle in which nothing completed, committed, issued or dispatched
   leaves the ROB, the rename table, the queues and the ports as they
   were. Every later cycle then repeats it exactly (same stall reason,
   same head waits) until one of the time-gated conditions the stages
   test flips; [next_event] is the earliest such cycle, so the cycles
   before it can be credited in one step. *)

(* Earliest cycle >= [s.cycle] at which a stage may change state, read
   right after an idle cycle; [cap + 1] bounds it so the watchdog trips
   on the same cycle as when stepping. *)
let next_event s cap =
  let t = if cap < max_int then cap + 1 else max_int in
  let t = if s.executing > 0 then imin t s.heap_at.(0) else t in
  (* A writeback falls due when its accelerator completes, so this
     event coincides with a completion; it is kept so the skip does
     not rest on that. *)
  let t = if s.paw_count > 0 then imin t s.paw_next_due else t in
  let t =
    if s.count > 0 && s.st.(s.head) = st_done then
      imin t (s.complete_at.(s.head) + s.commit_depth)
    else t
  in
  (* A redirect or CSR-write deadline already in the past gates nothing;
     one due on the current cycle must stop the skip. *)
  let t = if s.fetch_resume_at >= s.cycle then imin t s.fetch_resume_at else t in
  let t = if s.cfg_ready_at >= s.cycle then imin t s.cfg_ready_at else t in
  (* The next instruction's descriptor queue frees a slot once the
     backlog drops to [(depth - 1) * c] (see [dispatch_loop]). *)
  if s.next_fetch < s.tlen && s.d.op.(s.next_fetch) = D.op_accel then
    let u = s.d.accel_unit.(s.next_fetch) in
    let c = s.u_cfg_lat.(u) in
    match s.u_cfg_mode.(u) with
    | Tca_unit.Queued when c > 0 ->
        let release = s.u_desc_free_at.(u) - ((s.u_cfg_depth.(u) - 1) * c) in
        if release >= s.cycle then imin t release else t
    | Tca_unit.Queued | Tca_unit.Sync | Tca_unit.Preprogrammed -> t
  else t

(* In an idle cycle [issue_scan] visits the whole ready set, so each
   ready accelerator in it was a head wait (it would have issued
   otherwise): credit its unit [n] more. *)
let rec credit_unit_head_waits s n slot =
  let slot = next_ready s slot s.rob in
  if slot < s.rob then begin
    let ti = s.tr_idx.(slot) in
    if s.d.op.(ti) = D.op_accel then begin
      let u = s.d.accel_unit.(ti) in
      s.u_head_wait.(u) <- s.u_head_wait.(u) + n
    end;
    credit_unit_head_waits s n (slot + 1)
  end

(* Called after an idle cycle that added [head_waits] to
   [accel_head_wait]: jump to [next_event], crediting the skipped
   cycles exactly as stepping through them would. *)
let skip_idle s cap head_waits =
  let t = next_event s cap in
  let n = t - s.cycle in
  if n > 0 && t < max_int then begin
    s.occupancy_sum <- s.occupancy_sum + (n * s.count);
    count_stall s s.stall_reason n;
    if head_waits > 0 then begin
      s.accel_head_wait <- s.accel_head_wait + (n * head_waits);
      credit_unit_head_waits s n 0
    end;
    s.cycle <- t
  end

(* The uninstrumented loop: no per-cycle option match, no interval
   bookkeeping, no probe dispatch — the four stages, two counter
   updates and, after an idle cycle, a jump over the cycles that would
   repeat it. Returns the watchdog diagnostic if the budget expired.
   The watchdog snapshot and the stats snapshot are taken at the same
   instant, so [diag.committed = stats.committed] holds by
   construction. *)
let rec run_fast s cap =
  if s.next_fetch >= s.tlen && s.count = 0 then None
  else if s.cycle > cap then Some (watchdog_diag s)
  else begin
    let committed = s.committed
    and executing = s.executing
    and head_waits = s.accel_head_wait in
    complete_stage s;
    commit_stage s;
    let issued = issue_stage s in
    let dispatched = dispatch_stage s in
    s.occupancy_sum <- s.occupancy_sum + s.count;
    s.cycle <- s.cycle + 1;
    (* With nothing issued, an unchanged [executing] means nothing
       completed either. *)
    if
      issued = 0 && dispatched = 0 && s.committed = committed
      && s.executing = executing
    then skip_idle s cap (s.accel_head_wait - head_waits);
    run_fast s cap
  end

(* The instrumented loop: the reference run loop verbatim (per-cycle
   probe callback, interval accumulation, periodic flush). *)
let run_instrumented s cap probe snap =
  let watchdog = ref None in
  while !watchdog = None && (s.next_fetch < s.tlen || s.count > 0) do
    if s.cycle > cap then watchdog := Some (watchdog_diag s)
    else begin
      complete_stage s;
      commit_stage s;
      let issued = issue_stage s in
      let dispatched = dispatch_stage s in
      s.occupancy_sum <- s.occupancy_sum + s.count;
      (match probe with
      | Some p ->
          p.on_cycle ~cycle:s.cycle ~dispatched ~issued
            ~executing:(executing_occupancy s) ~rob_occupancy:s.count
      | None -> ());
      s.cycle <- s.cycle + 1;
      match s.telemetry with
      | None -> ()
      | Some sink ->
          snap.acc_dispatched <- snap.acc_dispatched + dispatched;
          snap.acc_issued <- snap.acc_issued + issued;
          if s.cycle mod Tca_telemetry.Sink.interval sink = 0 then
            flush_interval s sink snap ~now:s.cycle
    end
  done;
  !watchdog

(* A trace invoking a unit id outside [cfg.tca_units] would index the
   per-unit arrays out of bounds; reject the pairing up front. *)
let check_trace_units cfg trace =
  let d = Trace.decoded trace in
  let nu = Array.length cfg.Config.tca_units in
  let bad = ref None in
  for i = d.D.n - 1 downto 0 do
    if d.D.accel_unit.(i) >= nu then bad := Some (i, d.D.accel_unit.(i))
  done;
  match !bad with
  | None -> Ok ()
  | Some (i, u) ->
      Error
        (Tca_util.Diag.Invalid
           {
             field = "Trace";
             message =
               Printf.sprintf
                 "instruction %d invokes TCA unit %d but Config.tca_units \
                  defines %d unit(s)"
                 i u nu;
           })

let run ?probe ?telemetry cfg trace =
  match
    match Config.validate cfg with
    | Result.Error _ as e -> e
    | Ok () -> check_trace_units cfg trace
  with
  | Result.Error d -> Result.Error d
  | Ok () ->
      let s = create ?telemetry cfg trace in
      let cap =
        match cfg.Config.max_cycles with
        | Some c -> c
        | None -> default_cycle_budget trace
      in
      let watchdog, snap =
        match (telemetry, probe) with
        | None, None -> (run_fast s cap, None)
        | _ ->
            let snap =
              {
                last_cycle = 0;
                s_rob = 0;
                s_iq = 0;
                s_lsq = 0;
                s_serialize = 0;
                s_redirect = 0;
                s_drained = 0;
                s_committed = 0;
                s_occupancy_sum = 0;
                acc_dispatched = 0;
                acc_issued = 0;
              }
            in
            (run_instrumented s cap probe snap, Some snap)
      in
      let outcome =
        match watchdog with
        | Some diag -> Partial { stats = stats_of s; diag }
        | None -> Complete (stats_of s)
      in
      (match (s.telemetry, snap) with
      | Some sink, Some snap ->
          (match watchdog with
          | Some _ ->
              Tca_telemetry.Sink.instant sink ~cat:"sim"
                ~ts:(float_of_int s.cycle) "sim.watchdog"
          | None -> ());
          finish_telemetry s sink snap (stats_of_outcome outcome)
      | _ -> ());
      Ok outcome

let run_exn ?probe ?telemetry cfg trace =
  match run ?probe ?telemetry cfg trace with
  | Ok (Complete stats) -> stats
  | Ok (Partial { diag; _ }) | Result.Error diag ->
      raise (Tca_util.Diag.Error diag)
