(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md section 4 for the index) and runs Bechamel
   micro-benchmarks of the hot kernels.

   Usage:
     bench/main.exe                    run everything (full sizes)
     bench/main.exe --quick            smaller validation sweeps
     bench/main.exe --csv DIR          also dump machine-readable series
     bench/main.exe --summary FILE     JSON summary path (default
                                       BENCH_results.json; --no-summary
                                       to skip)
     bench/main.exe fig5 fig8          run selected targets
   Targets: table1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 logca partial
            design mechanistic occupancy cores hashmap regex strfn
            engine simulator scaling bechamel all

   The [engine] target times the experiment engine itself: the same job
   set serial (--jobs 1) vs parallel (--jobs = recommended domains) and
   cold vs warm through the result cache, and records the wall-clocks
   plus the bit-identity check under "engine" in the JSON summary.

   The [simulator] target times the optimized pipeline against the
   verbatim pre-optimization reference (Pipeline_reference) on the same
   trace, plus Simulator.run_batch serial vs a domain pool, and records
   both ratios under "simulator" in the JSON summary, then the same
   optimized/reference ratio and the simulated cycles for the X4
   balanced, chain-limited and memory-bound classes. CI guards the
   single-trace speedup against the committed BENCH_results.json and
   requires each class's simulated cycles to equal the committed count.

   The [scaling] target runs the engine job mix fully profiled at
   1..N domains and records {domains, wall_s, speedup, efficiency} plus
   the profiler's component attribution per point under "scaling". CI
   gates the efficiency at 2 domains against the committed curve. *)

open Tca_experiments

let quick = ref false
let csv_dir : string option ref = ref None
let summary_path = ref (Some "BENCH_results.json")

(* One sink + registry shared by every target: wall-clock spans land in
   the sink (and as [bench.<name>.seconds] histograms in the registry),
   cumulative simulated cycles in the [sim.cycles] counter. *)
let registry = Tca_telemetry.Metrics.create ()
let sink = Tca_telemetry.Sink.create ~metrics:registry ()
let telemetry = Some sink

type summary_row = { name : string; seconds : float; sim_cycles : int }

let summary : summary_row list ref = ref []

(* Filled by the [engine] target: serial-vs-parallel and cold-vs-warm
   cache wall-clock, recorded verbatim in the JSON summary. *)
let engine_summary : Tca_util.Json.t option ref = ref None

(* Filled by the [simulator] target: optimized-vs-reference pipeline
   throughput and batch scaling, recorded under "simulator". The CI
   regression guard compares the committed speedup against a fresh
   quick run. *)
let simulator_summary : Tca_util.Json.t option ref = ref None

(* Filled by the [scaling] target: the fixed job mix at 1..N domains
   with profiler attribution per point, recorded under "scaling". CI
   gates the parallel efficiency at 2 domains against the committed
   curve. *)
let scaling_summary : Tca_util.Json.t option ref = ref None

(* Provenance of a BENCH_results.json: which commit, toolchain and
   machine shape produced it. The regression guard ignores this block —
   it exists so a curve can be traced back to its origin. *)
let run_meta () =
  let git_rev =
    match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
    | exception _ -> "unknown"
    | ic -> (
        let line = try input_line ic with End_of_file -> "" in
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 when line <> "" -> line
        | _ | (exception _) -> "unknown")
  in
  let open Tca_util.Json in
  Obj
    [
      ("git_rev", String git_rev);
      ("ocaml_version", String Sys.ocaml_version);
      ("recommended_domains", Int (Domain.recommended_domain_count ()));
      ("quick", Bool !quick);
    ]

let write_summary () =
  match !summary_path with
  | None -> ()
  | Some path ->
      let open Tca_util.Json in
      let rows =
        List.rev_map
          (fun r ->
            Obj
              [
                ("name", String r.name);
                ("wall_clock_s", Float r.seconds);
                ("sim_cycles", Int r.sim_cycles);
              ])
          !summary
      in
      let doc =
        Obj
          ([
             ("quick", Bool !quick);
             ("meta", run_meta ());
             ("targets", List rows);
           ]
          @ (match !engine_summary with
            | Some e -> [ ("engine", e) ]
            | None -> [])
          @ (match !simulator_summary with
            | Some s -> [ ("simulator", s) ]
            | None -> [])
          @ (match !scaling_summary with
            | Some s -> [ ("scaling", s) ]
            | None -> [])
          @ [
              ("total_sim_cycles",
               Int (Tca_telemetry.Metrics.counter_value registry "sim.cycles"));
            ])
      in
      (* Atomic so an interrupted bench never leaves a truncated
         BENCH_results.json for the CI regression guard to parse. *)
      Tca_util.Atomic_file.write_exn path (to_string_indent doc ^ "\n");
      Printf.printf "[bench] wrote %s\n" path

let write_csv name contents =
  match !csv_dir with
  | None -> ()
  | Some dir ->
      let path = Filename.concat dir (name ^ ".csv") in
      Tca_util.Atomic_file.write_exn path contents;
      Printf.printf "[csv] wrote %s\n" path

let banner id title =
  Printf.printf "\n%s\n=== [%s] %s\n%s\n" (String.make 72 '=') id title
    (String.make 72 '=')

let run_table1 () =
  banner "T1" "Model parameters (paper Table I)";
  Table1.print ()

let run_fig2 () =
  banner "F2" "Speedup vs granularity (paper Fig. 2)";
  let rows = Fig2.run ?telemetry () in
  Fig2.print rows;
  write_csv "fig2" (Fig2.csv rows)

let run_fig3 () =
  banner "F3" "Effective ILP timeline (paper Fig. 3)";
  Fig3.print (Fig3.run ?telemetry ())

let run_fig4 () =
  banner "F4" "Synthetic microbenchmark validation (paper Fig. 4)";
  let rows = Fig4.run ?telemetry ~quick:!quick () in
  Fig4.print rows;
  write_csv "fig4" (Exp_common.validation_csv rows)

let run_fig5 () =
  banner "F5" "Heap-manager TCA validation (paper Fig. 5)";
  let rows = Fig5.run ?telemetry ~quick:!quick () in
  Fig5.print rows;
  write_csv "fig5" (Exp_common.validation_csv rows)

let run_fig6 () =
  banner "F6" "DGEMM TCA validation (paper Fig. 6)";
  let rows = Fig6.run ?telemetry ~n:(if !quick then 32 else 64) () in
  Fig6.print rows;
  write_csv "fig6" (Exp_common.validation_csv rows)

let run_fig7 () =
  banner "F7" "Speedup heatmaps (paper Fig. 7)";
  let maps = Fig7.run ?telemetry () in
  Fig7.print maps;
  write_csv "fig7" (Fig7.csv maps)

let run_fig8 () =
  banner "F8" "Concurrency analysis (paper Fig. 8)";
  let series = Fig8.run ?telemetry () in
  Fig8.print series;
  write_csv "fig8" (Fig8.csv series)

let run_logca () =
  banner "X1" "LogCA comparison (ablation)";
  Logca_cmp.print (Logca_cmp.run ())

let run_partial () =
  banner "X2" "Partial speculation (paper Section VIII extension)";
  Partial_spec.print (Partial_spec.run ())

let run_design () =
  banner "X3" "Design-space analysis: Pareto / energy / sensitivity";
  Design_space.print ()

let run_mechanistic () =
  banner "X4" "Mechanistic CPI model vs simulator";
  Mechanistic_cmp.print (Mechanistic_cmp.run ())

let run_hashmap () =
  banner "X7" "Hash-map TCA validation";
  Hashmap_val.print (Hashmap_val.run ?telemetry ~quick:!quick ())

let run_regex () =
  banner "X8" "Regular-expression TCA validation";
  Regex_val.print (Regex_val.run ?telemetry ~quick:!quick ())

let run_strfn () =
  banner "X9" "String-function TCA validation";
  Strfn_val.print (Strfn_val.run ?telemetry ~quick:!quick ())

let run_cores () =
  banner "X6" "HP vs LP core sensitivity (simulator)";
  Cores_cmp.print (Cores_cmp.run ~quick:!quick ())

let run_occupancy () =
  banner "X5" "Accelerator occupancy ablation";
  Occupancy.print (Occupancy.run ~n:(if !quick then 32 else 64) ())

(* --- Experiment-engine wall-clock: scheduler parallelism + cache --- *)

let run_engine () =
  banner "E" "Experiment engine: multicore scheduler + result cache";
  let module Scheduler = Tca_engine.Scheduler in
  let module Cache = Tca_engine.Cache in
  let job_registry = Jobs.registry () in
  (* A mix of model-only and simulator-backed jobs, heavy enough that
     scheduling overhead is noise. *)
  let names =
    [ "table1"; "fig2"; "fig3"; "fig4"; "logca"; "design"; "mechanistic";
      "cores" ]
  in
  let js =
    match Tca_engine.Registry.resolve job_registry names with
    | Ok js -> js
    | Error d -> failwith (Tca_util.Diag.to_string d)
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let jobs_n = max 2 (Domain.recommended_domain_count ()) in
  let quick = !quick in
  let serial_out, serial_s =
    time (fun () -> Scheduler.run ~quick ~jobs:1 js)
  in
  let par_out, parallel_s =
    time (fun () -> Scheduler.run ~quick ~jobs:jobs_n js)
  in
  let fingerprints os =
    List.map
      (fun (o : Scheduler.outcome) ->
        Tca_engine.Artifact.fingerprint (Scheduler.artifact_exn o))
      os
  in
  let identical = fingerprints serial_out = fingerprints par_out in
  if not identical then
    Printf.eprintf "[engine] WARNING: parallel artifacts differ from serial\n";
  let cache = Cache.create () in
  let _, cache_cold_s = time (fun () -> Scheduler.run ~cache ~quick ~jobs:1 js) in
  let warm_out, cache_warm_s =
    time (fun () -> Scheduler.run ~cache ~quick ~jobs:1 js)
  in
  let all_cached =
    List.for_all (fun (o : Scheduler.outcome) -> o.Scheduler.cached) warm_out
  in
  let speedup = if parallel_s > 0.0 then serial_s /. parallel_s else 0.0 in
  let cache_speedup =
    if cache_warm_s > 0.0 then cache_cold_s /. cache_warm_s else 0.0
  in
  Printf.printf
    "%d jobs, --jobs %d: serial %.3f s, parallel %.3f s (%.2fx), artifacts \
     %s\ncache: cold %.3f s, warm %.3f s (%.0fx), %d hit(s), all cached: %b\n"
    (List.length js) jobs_n serial_s parallel_s speedup
    (if identical then "bit-identical" else "DIFFER")
    cache_cold_s cache_warm_s cache_speedup (Cache.hits cache) all_cached;
  let open Tca_util.Json in
  engine_summary :=
    Some
      (Obj
         [
           ("n_jobs", Int (List.length js));
           ("jobs", Int jobs_n);
           ("serial_s", Float serial_s);
           ("parallel_s", Float parallel_s);
           ("speedup", Float speedup);
           ("artifacts_bit_identical", Bool identical);
           ("cache_cold_s", Float cache_cold_s);
           ("cache_warm_s", Float cache_warm_s);
           ("cache_speedup", Float cache_speedup);
           ("cache_hits", Int (Cache.hits cache));
           ("warm_run_fully_cached", Bool all_cached);
         ])

(* --- Simulator hot path: optimized vs reference pipeline --- *)

let run_simulator () =
  banner "S" "Simulator hot path: optimized vs reference pipeline";
  let open Tca_uarch in
  let pair =
    Tca_workloads.Synthetic.generate
      (Tca_workloads.Synthetic.config ~n_units:200 ~n_chunks:20
         ~accel_latency:10 ())
  in
  let cfg = Config.hp () in
  let trace = pair.Tca_workloads.Meta.baseline in
  let uops = Trace.length trace in
  let reps = if !quick then 3 else 10 in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  (* The speedup only counts if the stats agree bit for bit. *)
  let stats_json s = Tca_util.Json.to_string (Sim_stats.to_json s) in
  let identical =
    stats_json (Pipeline.run_exn cfg trace)
    = stats_json (Pipeline_reference.run_exn cfg trace)
  in
  if not identical then
    Printf.eprintf
      "[simulator] WARNING: optimized stats differ from reference\n";
  (* The identity check above also warmed both paths (and the decode
     memo), so the timed loops run steady-state. *)
  let optimized_s =
    time (fun () ->
        for _ = 1 to reps do
          ignore (Pipeline.run_exn cfg trace)
        done)
  in
  let reference_s =
    time (fun () ->
        for _ = 1 to reps do
          ignore (Pipeline_reference.run_exn cfg trace)
        done)
  in
  let per_s s = if s > 0.0 then float_of_int (uops * reps) /. s else 0.0 in
  let speedup = if optimized_s > 0.0 then reference_s /. optimized_s else 0.0 in
  (* Per workload class: the X4 balanced (issue-bound), chain-limited
     (dependence-bound, [dep_window = 3]: the wakeup path) and
     memory-bound (stall-bound: the clock advance) mixes. The simulated
     cycle counts are deterministic, so CI requires them to equal the
     committed ones exactly. *)
  let class_reps = if !quick then 1 else 3 in
  let classes =
    List.map
      (fun label ->
        let trace =
          Mechanistic_cmp.case_trace (List.assoc label Mechanistic_cmp.cases)
        in
        let opt = Pipeline.run_exn cfg trace in
        let ref_ = Pipeline_reference.run_exn cfg trace in
        let identical = stats_json opt = stats_json ref_ in
        if not identical then
          Printf.eprintf "[simulator] WARNING: %s stats differ from reference\n"
            label;
        let run_all run () =
          for _ = 1 to class_reps do
            ignore (run cfg trace : Sim_stats.t)
          done
        in
        let optimized_s = time (run_all Pipeline.run_exn) in
        let reference_s = time (run_all Pipeline_reference.run_exn) in
        let speedup =
          if optimized_s > 0.0 then reference_s /. optimized_s else 0.0
        in
        Printf.printf
          "class %-13s (%d uops, %d cycles): reference %.3f s, optimized \
           %.3f s -> %.2fx, stats %s\n"
          label (Trace.length trace) opt.Sim_stats.cycles reference_s
          optimized_s speedup
          (if identical then "bit-identical" else "DIFFER");
        let open Tca_util.Json in
        Obj
          [
            ("class", String label);
            ("trace_uops", Int (Trace.length trace));
            ("sim_cycles", Int opt.Sim_stats.cycles);
            ("reps", Int class_reps);
            ("reference_s", Float reference_s);
            ("optimized_s", Float optimized_s);
            ("speedup", Float speedup);
            ("stats_bit_identical", Bool identical);
          ])
      [ "balanced"; "chain-limited"; "memory-bound" ]
  in
  (* Batched evaluation: the compare_modes shape (baseline + the four
     couplings), replicated, through run_batch serial vs a domain
     pool — with the usual bit-identity requirement. *)
  let couplings = Array.of_list Config.all_couplings in
  let replicas = if !quick then 2 else 4 in
  let entries =
    Array.init (replicas * 5) (fun i ->
        match i mod 5 with
        | 0 -> (cfg, trace)
        | k ->
            ( Config.with_coupling cfg couplings.(k - 1),
              pair.Tca_workloads.Meta.accelerated ))
  in
  let keys results =
    Array.map
      (function
        | Ok o -> stats_json (Pipeline.stats_of_outcome o)
        | Error d -> Tca_util.Diag.to_string d)
      results
  in
  let serial_keys = ref [||] and par_keys = ref [||] in
  let batch_serial_s =
    time (fun () -> serial_keys := keys (Simulator.run_batch entries))
  in
  let pool_workers = max 2 (Domain.recommended_domain_count ()) in
  let batch_parallel_s =
    Tca_engine.Pool.with_pool ~workers:pool_workers (fun pool ->
        time (fun () ->
            par_keys :=
              keys
                (Simulator.run_batch ~par:(Tca_engine.Pool.parmap pool) entries)))
  in
  let batch_identical = !serial_keys = !par_keys in
  if not batch_identical then
    Printf.eprintf "[simulator] WARNING: parallel batch differs from serial\n";
  let batch_speedup =
    if batch_parallel_s > 0.0 then batch_serial_s /. batch_parallel_s else 0.0
  in
  Printf.printf
    "single trace (%d uops x %d reps): reference %.3f s (%.2e uops/s), \
     optimized %.3f s (%.2e uops/s) -> %.2fx, stats %s\n\
     batch (%d entries): serial %.3f s, parallel %.3f s (workers %d, %.2fx), \
     results %s\n"
    uops reps reference_s (per_s reference_s) optimized_s (per_s optimized_s)
    speedup
    (if identical then "bit-identical" else "DIFFER")
    (Array.length entries) batch_serial_s batch_parallel_s pool_workers
    batch_speedup
    (if batch_identical then "bit-identical" else "DIFFER");
  let open Tca_util.Json in
  simulator_summary :=
    Some
      (Obj
         [
           ("trace_uops", Int uops);
           ("reps", Int reps);
           ("reference_s", Float reference_s);
           ("optimized_s", Float optimized_s);
           ("reference_uops_per_s", Float (per_s reference_s));
           ("optimized_uops_per_s", Float (per_s optimized_s));
           ("speedup", Float speedup);
           ("stats_bit_identical", Bool identical);
           ("classes", List classes);
           ( "batch",
             Obj
               [
                 ("entries", Int (Array.length entries));
                 ("serial_s", Float batch_serial_s);
                 ("parallel_s", Float batch_parallel_s);
                 ("workers", Int pool_workers);
                 ("speedup", Float batch_speedup);
                 ("results_bit_identical", Bool batch_identical);
               ] );
         ])

(* --- Scaling curve: the fixed job mix at 1..N domains, profiled --- *)

let run_scaling () =
  banner "SC" "Scaling curve: fixed job mix at 1..N domains (profiled)";
  let module Scheduler = Tca_engine.Scheduler in
  let module T = Tca_telemetry in
  let job_registry = Jobs.registry () in
  (* Same mix as the [engine] target, so the two sections are
     comparable. *)
  let names =
    [ "table1"; "fig2"; "fig3"; "fig4"; "logca"; "design"; "mechanistic";
      "cores" ]
  in
  let js =
    match Tca_engine.Registry.resolve job_registry names with
    | Ok js -> js
    | Error d -> failwith (Tca_util.Diag.to_string d)
  in
  let quick = !quick in
  let max_domains = min 8 (max 4 (Domain.recommended_domain_count ())) in
  (* Every point runs fully instrumented (task sinks + host sink), so
     the per-point attribution explains the curve: when efficiency
     drops, the components say whether the time went to scheduler
     waits, fork/join or the simulator itself. The instrumentation cost
     is identical at every point, so the ratios are fair. *)
  let run_at n =
    let host = T.Sink.create ~metrics:(T.Metrics.create ()) () in
    let h = Some host in
    let t0 = T.Timing.now_us () in
    let outcomes =
      T.Timing.with_span h T.Profiler.total_span_name (fun () ->
          let outcomes =
            Scheduler.run ~quick ~collect_telemetry:true ~host_telemetry:host
              ~jobs:n js
          in
          T.Timing.with_span h "telemetry.merge" (fun () ->
              Scheduler.join_telemetry ~into:host outcomes);
          outcomes)
    in
    let wall_s = (T.Timing.now_us () -. t0) /. 1e6 in
    let fingerprints =
      List.map
        (fun (o : Scheduler.outcome) ->
          Tca_engine.Artifact.fingerprint (Scheduler.artifact_exn o))
        outcomes
    in
    (n, wall_s, T.Profiler.of_sink host, fingerprints)
  in
  let points = List.map run_at (List.init max_domains (fun i -> i + 1)) in
  let _, serial_wall, _, serial_fps =
    match points with p :: _ -> p | [] -> assert false
  in
  let identical =
    List.for_all (fun (_, _, _, fps) -> fps = serial_fps) points
  in
  if not identical then
    Printf.eprintf "[scaling] WARNING: artifacts differ across domain counts\n";
  List.iter
    (fun (n, wall_s, profile, _) ->
      let speedup = if wall_s > 0.0 then serial_wall /. wall_s else 0.0 in
      Printf.printf
        "domains %d: wall %.3f s, speedup %.2fx, efficiency %.2f, cpu %.3f s\n"
        n wall_s speedup
        (speedup /. float_of_int n)
        profile.T.Profiler.cpu_s)
    points;
  let open Tca_util.Json in
  scaling_summary :=
    Some
      (Obj
         [
           ("n_jobs", Int (List.length js));
           ("max_domains", Int max_domains);
           ("artifacts_bit_identical", Bool identical);
           ( "points",
             List
               (List.map
                  (fun (n, wall_s, profile, _) ->
                    let speedup =
                      if wall_s > 0.0 then serial_wall /. wall_s else 0.0
                    in
                    Obj
                      [
                        ("domains", Int n);
                        ("wall_s", Float wall_s);
                        ("speedup", Float speedup);
                        ("efficiency", Float (speedup /. float_of_int n));
                        ("cpu_s", Float profile.T.Profiler.cpu_s);
                        ( "attributed_fraction",
                          Float (T.Profiler.attributed_fraction profile) );
                        ( "components",
                          Obj
                            (List.map
                               (fun (k, v) -> (k, Float v))
                               profile.T.Profiler.components) );
                      ])
                  points) );
         ])

(* --- Bechamel micro-benchmarks of the implementation's hot paths --- *)

let bechamel_tests () =
  let open Bechamel in
  let core = Tca_model.Presets.hp_core in
  let scenario =
    Tca_model.Params.scenario_exn ~a:0.35 ~v:0.005
      ~accel:(Tca_model.Params.Latency 1.0) ()
  in
  let model_eval =
    Test.make ~name:"model-4mode-eval"
      (Staged.stage (fun () ->
           ignore (Tca_model.Equations.speedups_exn core scenario)))
  in
  let pair =
    Tca_workloads.Synthetic.generate
      (Tca_workloads.Synthetic.config ~n_units:200 ~n_chunks:20
         ~accel_latency:10 ())
  in
  let sim_cfg = Tca_uarch.Config.hp () in
  let simulate =
    Test.make ~name:"pipeline-10k-uops"
      (Staged.stage (fun () ->
           ignore
             (Tca_uarch.Pipeline.run_exn sim_cfg pair.Tca_workloads.Meta.baseline)))
  in
  let heap_ops =
    Test.make ~name:"tcmalloc-1k-ops"
      (Staged.stage (fun () ->
           let h = Tca_heap.Tcmalloc.create () in
           let addrs = Array.make 500 0 in
           for i = 0 to 499 do
             addrs.(i) <- Tca_heap.Tcmalloc.malloc h ((i mod 128) + 1)
           done;
           Array.iter (Tca_heap.Tcmalloc.free h) addrs))
  in
  let rng = Tca_util.Prng.create 3 in
  let a = Tca_dgemm.Matrix.random rng 32 in
  let b = Tca_dgemm.Matrix.random rng 32 in
  let mma_kernel =
    Test.make ~name:"mma-32x32-via-4x4"
      (Staged.stage (fun () ->
           ignore (Tca_dgemm.Mma.multiply_blocked_mma ~block:32 ~dim:4 a b)))
  in
  let hashmap_ops =
    Test.make ~name:"hashmap-1k-lookups"
      (Staged.stage (fun () ->
           let t = Tca_hashmap.Table.create ~capacity_pow2:10 () in
           for k = 0 to 499 do
             ignore (Tca_hashmap.Table.insert t ((k * 7919) + 1) k)
           done;
           for k = 0 to 499 do
             ignore (Tca_hashmap.Table.find t ((k * 7919) + 1))
           done))
  in
  let regex_engine =
    let engine =
      Tca_regex.Engine.compile (Tca_regex.Pattern.parse_exn "err(or)?[0-9]+")
    in
    let text = String.concat "" (List.init 16 (fun _ -> "the quick brown fox error42 jumps ")) in
    Test.make ~name:"regex-scan-500-chars"
      (Staged.stage (fun () -> ignore (Tca_regex.Engine.search engine text)))
  in
  let strfn_ops =
    let arena = Tca_strfn.Arena.create ~capacity:8192 () in
    let addrs =
      Array.init 50 (fun i ->
          Tca_strfn.Arena.add_string arena (String.make (20 + (i mod 80)) 'x'))
    in
    Test.make ~name:"strfn-50-strlen"
      (Staged.stage (fun () ->
           Array.iter (fun a -> ignore (Tca_strfn.Arena.strlen arena a)) addrs))
  in
  let trace_gen =
    Test.make ~name:"codegen-10k-uops"
      (Staged.stage (fun () ->
           let rng = Tca_util.Prng.create 5 in
           let gen = Tca_workloads.Codegen.create ~rng () in
           let b = Tca_uarch.Trace.Builder.create () in
           Tca_workloads.Codegen.emit_block gen b 10_000;
           ignore (Tca_uarch.Trace.Builder.build b)))
  in
  let heatmap_grid =
    let freqs = Tca_util.Sweep.logspace_exn 1e-6 0.1 48 in
    let coverages = Tca_util.Sweep.linspace_exn 0.05 0.95 17 in
    Test.make ~name:"model-heatmap-816-cells"
      (Staged.stage (fun () ->
           ignore
             (Tca_model.Grid.compute_exn Tca_model.Presets.hp_core
                ~accel:(Tca_model.Params.Factor 1.5) ~freqs ~coverages
                Tca_model.Mode.L_T)))
  in
  Test.make_grouped ~name:"tca"
    [
      model_eval; simulate; heap_ops; mma_kernel; hashmap_ops; regex_engine;
      strfn_ops; trace_gen; heatmap_grid;
    ]

let run_bechamel () =
  banner "B" "Bechamel micro-benchmarks (implementation hot paths)";
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg [ instance ] (bechamel_tests ()) in
  let results = Analyze.all ols instance raw in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Printf.printf "%-28s %12.1f ns/run\n" name est
      | _ -> Printf.printf "%-28s (no estimate)\n" name)
    results

let targets =
  [
    ("table1", run_table1);
    ("fig2", run_fig2);
    ("fig3", run_fig3);
    ("fig4", run_fig4);
    ("fig5", run_fig5);
    ("fig6", run_fig6);
    ("fig7", run_fig7);
    ("fig8", run_fig8);
    ("logca", run_logca);
    ("partial", run_partial);
    ("design", run_design);
    ("mechanistic", run_mechanistic);
    ("occupancy", run_occupancy);
    ("cores", run_cores);
    ("hashmap", run_hashmap);
    ("regex", run_regex);
    ("strfn", run_strfn);
    ("engine", run_engine);
    ("simulator", run_simulator);
    ("scaling", run_scaling);
    ("bechamel", run_bechamel);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec strip_flags acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
        quick := true;
        strip_flags acc rest
    | "--csv" :: dir :: rest ->
        if not (Sys.file_exists dir && Sys.is_directory dir) then begin
          Printf.eprintf "--csv: %s is not a directory\n" dir;
          exit 2
        end;
        csv_dir := Some dir;
        strip_flags acc rest
    | "--summary" :: path :: rest ->
        summary_path := Some path;
        strip_flags acc rest
    | "--no-summary" :: rest ->
        summary_path := None;
        strip_flags acc rest
    | arg :: rest -> strip_flags (arg :: acc) rest
  in
  let args = strip_flags [] args in
  let selected =
    match args with [] | [ "all" ] -> List.map fst targets | picks -> picks
  in
  List.iter
    (fun name ->
      match List.assoc_opt name targets with
      | Some f ->
          let span = "bench." ^ name in
          let cycles0 =
            Tca_telemetry.Metrics.counter_value registry "sim.cycles"
          in
          Tca_telemetry.Timing.with_span telemetry span f;
          let seconds =
            Tca_telemetry.Metrics.Histogram.sum
              (Tca_telemetry.Metrics.histogram_exn registry (span ^ ".seconds"))
          in
          let sim_cycles =
            Tca_telemetry.Metrics.counter_value registry "sim.cycles" - cycles0
          in
          summary := { name; seconds; sim_cycles } :: !summary
      | None ->
          Printf.eprintf "unknown target %s (available: %s)\n" name
            (String.concat " " (List.map fst targets));
          exit 2)
    selected;
  write_summary ()
