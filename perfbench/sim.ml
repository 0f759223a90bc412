(* The two simulation workloads, [sim_stall] and [sim_dense].

   A pass generates every trace from the seed (layer [workloads]),
   decodes it ([trace]), then simulates it on [Config.hp] through
   [Pipeline.run] ([pipeline]) or [Simulator.compare_modes]
   ([simulator]). Nothing is reused across passes: the traces are new
   values each time, so their decode memo starts empty, and every
   [Pipeline.run] starts with empty modelled caches. *)

open Tca_uarch
open Tca_workloads
module C = Common

let cfg = Config.hp ()

type item =
  | Run of { label : string; trace : Trace.t }
      (** one [Pipeline.run] *)
  | Pair of {
      label : string;
      pair : Meta.pair;
      via_compare_modes : bool;
          (** baseline plus four couplings through
              [Simulator.compare_modes]; else five [Pipeline.run]s *)
    }

(* The X4 application-code mixes of [Mechanistic_cmp] (120k uops each,
   the model-friendly branch mix with the stated dependence window and
   working set). *)
let x4_uops = 120_000
let friendly = Codegen.model_friendly_config
let balanced = { friendly with Codegen.dep_window = 12 }
let chain_limited = { friendly with Codegen.dep_window = 3 }

let memory_bound =
  {
    friendly with
    Codegen.dep_window = 12;
    load_every = 3;
    working_set_bytes = 8 * 1024 * 1024;
  }

let x4 label app seed =
  let gen = Codegen.create ~config:app ~rng:(Tca_util.Prng.create seed) () in
  let b = Trace.Builder.create () in
  Codegen.emit_block gen b x4_uops;
  Run { label; trace = Trace.Builder.build b }

(* 400 units of 50 uops, 100 of them replaced by a 400-cycle TCA: the
   accelerated runs wait on the accelerator with a full ROB. *)
let synthetic_lat400 seed =
  Pair
    {
      label = "synthetic.lat400";
      pair =
        Synthetic.generate
          (Synthetic.config ~seed ~n_units:400 ~n_chunks:100
             ~accel_latency:400 ());
      via_compare_modes = false;
    }

let heap seed =
  Pair
    {
      label = "heap";
      pair =
        Heap_workload.generate
          (Heap_workload.config ~seed ~n_calls:2000 ~app_instrs_per_call:100
             ());
      via_compare_modes = true;
    }

(* The 4x4 MMA pair at the size [tca run --quick] gives fig6. *)
let dgemm4x4 seed =
  Pair
    {
      label = "dgemm4x4";
      pair = Dgemm_workload.pair (Dgemm_workload.config ~seed ~n:32 ()) ~dim:4;
      via_compare_modes = true;
    }

(* Generators of a workload, each given its own seed derived from the
   run's [--seed]. *)
let sim_stall = [ x4 "x4.memory-bound" memory_bound; synthetic_lat400 ]

let sim_dense =
  [ x4 "x4.balanced" balanced; x4 "x4.chain-limited" chain_limited; heap; dgemm4x4 ]

(* [step] runs each generator; a timed pass uses it to time them apart. *)
let generate ?(step = fun f -> f ()) gens seed =
  List.mapi
    (fun i g -> step (fun () -> Span.with_ "workloads" (fun () -> g ((seed * 16) + i))))
    gens

let traces = function
  | Run { trace; _ } -> [ trace ]
  | Pair { pair; _ } -> [ pair.Meta.baseline; pair.Meta.accelerated ]

let decode ?(step = fun f -> f ()) items =
  List.iter
    (fun it ->
      step (fun () ->
          List.iter
            (fun t -> ignore (Span.with_ "trace" (fun () -> Trace.decoded t)))
            (traces it)))
    items

(* Every simulator run an item stands for, with the configuration
   [compare_modes] gives it. *)
let entries = function
  | Run { label; trace } -> [ (label, cfg, trace) ]
  | Pair { label; pair; _ } ->
      (label ^ "/baseline", cfg, pair.Meta.baseline)
      :: List.map
           (fun c ->
             ( label ^ "/" ^ Config.coupling_name c,
               Config.with_coupling cfg c,
               pair.Meta.accelerated ))
           Config.all_couplings

let stats_of = function
  | Ok (Pipeline.Complete s) -> Ok s
  | Ok (Pipeline.Partial { diag; _ }) -> Error (Tca_util.Diag.to_string diag)
  | Error d -> Error (Tca_util.Diag.to_string d)

(* A serial [Parmap] that puts each of [compare_modes]' runs in a
   [pipeline] span, so the traced run can split the simulator's self
   time from the pipeline's. *)
let spanning_par =
  {
    Tca_util.Parmap.run =
      (fun f xs -> Array.map (fun x -> Span.with_ "pipeline" (fun () -> f x)) xs);
  }

type acc = {
  mutable calls : float list;  (** seconds of each call, newest first *)
  mutable words : float;
}

(* One call into the simulator, timed and with its allocation counted. *)
let call acc layer f =
  Span.with_ layer (fun () ->
      let w0 = C.alloc_words () in
      let t0 = C.now () in
      let r = f () in
      acc.calls <- C.since t0 :: acc.calls;
      acc.words <- acc.words +. (C.alloc_words () -. w0);
      r)

let simulate acc = function
  | Run { label; trace } ->
      [ (label, stats_of (call acc "pipeline" (fun () -> Pipeline.run cfg trace))) ]
  | Pair { via_compare_modes = false; _ } as it ->
      List.map
        (fun (l, cfg, trace) ->
          (l, stats_of (call acc "pipeline" (fun () -> Pipeline.run cfg trace))))
        (entries it)
  | Pair { label; pair; _ } as it -> (
      let par = if !Span.enabled then Some spanning_par else None in
      match
        call acc "simulator" (fun () ->
            Simulator.compare_modes ?par ~cfg ~baseline:pair.Meta.baseline
              ~accelerated:pair.Meta.accelerated ())
      with
      | Error d ->
          let e = Error (Tca_util.Diag.to_string d) in
          List.map (fun (l, _, _) -> (l, e)) (entries it)
      | Ok c ->
          let mode (r : Simulator.mode_result) =
            ( label ^ "/" ^ Config.coupling_name r.Simulator.coupling,
              match r.Simulator.partial with
              | None -> Ok r.Simulator.stats
              | Some d -> Error (Tca_util.Diag.to_string d) )
          in
          ( label ^ "/baseline",
            match c.Simulator.baseline_partial with
            | None -> Ok c.Simulator.baseline
            | Some d -> Error (Tca_util.Diag.to_string d) )
          :: List.map mode c.Simulator.modes)

(* Times are seconds; the [*_steps] lists hold one entry per generator,
   per item decoded and per simulator call, in the order the pass ran
   them, so that every pass's lists line up. *)
type pass = {
  wall : float;
  gen_steps : float list;
  decode_steps : float list;
  sim_steps : float list;
  words : float;  (** words allocated inside simulator calls *)
  instrs : int;  (** generated trace length, all traces *)
  results : (string * (Sim_stats.t, string) result) list;
  gc : C.gc;
}

let run_pass gens seed =
  let g0 = C.gc_now () in
  let t0 = C.now () in
  let timed_steps () =
    let times = ref [] in
    let step f =
      let r, s = C.timed f in
      times := s :: !times;
      r
    in
    (step, fun () -> List.rev !times)
  in
  let items, gen_steps, decode_steps, acc, results =
    Span.with_ "other" (fun () ->
        let step, gen_steps = timed_steps () in
        let items = generate ~step gens seed in
        let step, decode_steps = timed_steps () in
        decode ~step items;
        let acc = { calls = []; words = 0.0 } in
        let results = List.concat_map (simulate acc) items in
        (items, gen_steps (), decode_steps (), acc, results))
  in
  let wall = C.since t0 in
  let gc = C.gc_since g0 in
  {
    wall;
    gen_steps;
    decode_steps;
    sim_steps = List.rev acc.calls;
    words = acc.words;
    instrs =
      List.fold_left
        (fun n it -> List.fold_left (fun n t -> n + Trace.length t) n (traces it))
        0 items;
    results;
    gc;
  }

let ok_stats p = List.filter_map (fun (_, r) -> Result.to_option r) p.results
let sum_int f p = List.fold_left (fun n s -> n + f s) 0 (ok_stats p)
let uops p = sum_int (fun s -> s.Sim_stats.committed) p
let cycles p = sum_int (fun s -> s.Sim_stats.cycles) p
let json s = Tca_util.Json.to_string (Sim_stats.to_json s)

(* The oracle's statistics for every run of the workload, computed once
   on the set-up inputs, outside the timed passes. *)
let reference items =
  List.concat_map
    (fun it ->
      List.map
        (fun (l, cfg, trace) -> (l, Result.map json (stats_of (Oracle.run cfg trace))))
        (entries it))
    items

let check_pass tally oracle p =
  List.iter
    (fun (l, r) ->
      let what = Printf.sprintf "%s: Pipeline.run vs Pipeline_reference" l in
      match (r, List.assoc_opt l oracle) with
      | Ok s, Some (Ok expected) ->
          C.check tally (json s = expected) (what ^ ": stats differ")
      | Error e, _ -> C.check tally false (what ^ ": " ^ e)
      | _, Some (Error e) -> C.check tally false (what ^ ": oracle: " ^ e)
      | Ok _, None -> C.check tally false (what ^ ": no oracle run"))
    p.results

(* Cycles in which nothing dispatched and nothing issued, through the
   pipeline's public probe. Exact and host-independent. *)
let idle_cycles items =
  let idle = ref 0 and total = ref 0 in
  let probe =
    {
      Pipeline.on_cycle =
        (fun ~cycle:_ ~dispatched ~issued ~executing:_ ~rob_occupancy:_ ->
          incr total;
          if dispatched = 0 && issued = 0 then incr idle);
    }
  in
  List.iter
    (fun it ->
      List.iter
        (fun (label, cfg, trace) ->
          let i0 = !idle and n0 = !total in
          ignore (Pipeline.run ~probe cfg trace);
          let i = !idle - i0 and n = !total - n0 in
          Printf.eprintf "  idle %-26s %8d / %8d cycles (%.3f)\n" label i n
            (C.ratio (float_of_int i) (float_of_int n)))
        (entries it))
    items;
  (!idle, !total)

(* Host seconds of every run of the workload without and with a
   telemetry sink attached. *)
let sink_overhead items =
  let time telemetry =
    snd
      (C.timed (fun () ->
           List.iter
             (fun it ->
               List.iter
                 (fun (_, cfg, trace) ->
                   let telemetry =
                     Option.map (fun () -> Tca_telemetry.Sink.create ()) telemetry
                   in
                   ignore (Pipeline.run ?telemetry cfg trace))
                 (entries it))
             items))
  in
  let off = time None in
  let on = time (Some ()) in
  C.ratio (on -. off) off

let run ~gens ~measure_sink ~seed ~seconds ~trace =
  let tally = C.tally () in
  let items, setup_s =
    C.setup ~k:9 (fun () ->
        let items = generate gens seed in
        decode items;
        items)
  in
  let oracle = reference items in
  let timed_passes traced budget =
    Span.enabled := traced;
    let ps =
      C.passes ~seconds:budget (fun i ->
          Span.set_pass i;
          run_pass gens seed)
    in
    Span.enabled := false;
    List.iter (check_pass tally oracle) ps;
    ps
  in
  let plain = timed_passes false (if trace then seconds /. 2.0 else seconds) in
  let traced = if trace then timed_passes true (seconds /. 2.0) else [] in
  let first = List.hd plain in
  let fastest_of f ps = C.fastest (List.map f ps) in
  (* A pass's steps, and what it spent outside them, as one list. *)
  let all_steps p =
    let steps = p.gen_steps @ p.decode_steps @ p.sim_steps in
    (p.wall -. C.sum steps) :: steps
  in
  let sim_s = C.scaled (C.fastest_steps (List.map (fun p -> p.sim_steps) plain)) in
  let e2e =
    [
      C.m "setup_s" "s" (C.scaled setup_s);
      C.m "wall_s" "s" (C.scaled (C.fastest_steps (List.map all_steps plain)));
      C.m "warm_s" "s" sim_s;
      C.m "sim_muops_per_s" "Muop/s" (float_of_int (uops first) /. sim_s /. 1e6);
      C.m "sim_mcycles_per_s" "Mcycle/s" (float_of_int (cycles first) /. sim_s /. 1e6);
      C.m "peak_heap_mb" "MiB" (C.peak_heap_mb ());
    ]
  in
  let layers =
    if not trace then []
    else begin
      let idle, probed = idle_cycles items in
      let u = float_of_int (uops first) and cy = float_of_int (cycles first) in
      let stall f = float_of_int (sum_int f first) in
      let spans = Span.all () in
      let self_in p = Span.self_by_layer ~keep:(fun s -> s.Span.pass = p) spans in
      let per_pass layer = C.fastest (List.mapi (fun i _ -> self_in i layer) traced) in
      let run_s = per_pass "pipeline" in
      let gen_s = C.fastest_steps (List.map (fun p -> p.gen_steps) traced) in
      let decode_s = C.fastest_steps (List.map (fun p -> p.decode_steps) traced) in
      let instrs = float_of_int first.instrs in
      [
        C.m "pipeline.idle_cycle_frac" "frac"
          (C.ratio (float_of_int idle) (float_of_int probed));
        C.m "pipeline.run_s" "s" run_s;
        C.m "pipeline.ns_per_cycle" "ns" (1e9 *. C.ratio run_s cy);
        C.m "pipeline.ns_per_uop" "ns" (1e9 *. C.ratio run_s u);
        C.m "pipeline.words_per_uop" "words" (C.ratio first.words u);
        C.m "pipeline.words_per_cycle" "words" (C.ratio first.words cy);
        C.m "pipeline.uops" "count" u;
        C.m "pipeline.cycles" "count" cy;
        C.m "pipeline.ipc" "uop/cycle" (C.ratio u cy);
        C.m "pipeline.stall.rob_full" "count"
          (stall (fun s -> s.Sim_stats.stalls.Sim_stats.rob_full));
        C.m "pipeline.stall.serialize" "count"
          (stall (fun s -> s.Sim_stats.stalls.Sim_stats.serialize));
        C.m "pipeline.accel_wait_for_head" "count"
          (stall (fun s -> s.Sim_stats.accel_wait_for_head_cycles));
        C.m "simulator.compare_modes_s" "s" (per_pass "simulator");
        C.m "workloads.gen_s" "s" gen_s;
        C.m "workloads.gen_ns_per_uop" "ns" (1e9 *. C.ratio gen_s instrs);
        C.m "trace.decode_s" "s" decode_s;
        C.m "trace.decode_ns_per_uop" "ns" (1e9 *. C.ratio decode_s instrs);
        C.m "telemetry.sink_overhead_frac" "frac"
          (if measure_sink then sink_overhead items else 0.0);
        C.m "telemetry.bench_overhead_frac" "frac"
          (C.ratio (fastest_of (fun p -> p.wall) traced) (fastest_of (fun p -> p.wall) plain)
          -. 1.0);
      ]
      @ C.gc_metrics first.gc
      @ List.map
          (fun l -> C.m ("self_s." ^ l) "s" (per_pass l))
          [ "workloads"; "trace"; "pipeline"; "simulator"; "other" ]
    end
  in
  C.report tally (e2e @ layers)

let sim_stall = run ~gens:sim_stall ~measure_sink:false
let sim_dense = run ~gens:sim_dense ~measure_sink:true
