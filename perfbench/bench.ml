(* Benchmark entry point: runs one workload and prints a run-metadata
   line, then the result line the benchmark contract asks for.

     bench.exe --workload W --seed N --seconds S --trace 0|1
               [--nproc N] [--git-rev R] [--spans FILE]

   See README.md in this directory. *)

module C = Common

let workloads = [ "sim_stall"; "sim_dense"; "model_sweep"; "suite" ]

(* End-to-end metrics, reported by an untraced run ([--trace 0]). A
   metric that does not apply to a workload (a simulation rate on
   [model_sweep], say) reads 1.0 there, so that every result line
   carries every declared key; README.md lists which apply where. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("warm_s", "s");
    ("sim_muops_per_s", "Muop/s");
    ("sim_mcycles_per_s", "Mcycle/s");
    ("model_mevals_per_s", "Meval/s");
    ("model_err_pct", "%");
    ("peak_heap_mb", "MiB");
  ]

(* Per-layer metrics, reported by a traced run ([--trace 1]). A layer
   the workload does not exercise reads 0. *)
let per_layer =
  [
    ("pipeline.idle_cycle_frac", "frac");
    ("pipeline.ns_per_cycle", "ns");
    ("pipeline.ns_per_uop", "ns");
    ("pipeline.words_per_uop", "words");
    ("pipeline.words_per_cycle", "words");
    ("pipeline.run_s", "s");
    ("pipeline.uops", "count");
    ("pipeline.cycles", "count");
    ("pipeline.ipc", "uop/cycle");
    ("pipeline.stall.rob_full", "count");
    ("pipeline.stall.serialize", "count");
    ("pipeline.accel_wait_for_head", "count");
    ("simulator.compare_modes_s", "s");
    ("workloads.gen_s", "s");
    ("workloads.gen_ns_per_uop", "ns");
    ("trace.decode_s", "s");
    ("trace.decode_ns_per_uop", "ns");
    ("model.evals", "count");
    ("model.ns_per_eval", "ns");
    ("model.words_per_eval", "words");
    ("model.checksum", "sum");
  ]
  @ List.map (fun j -> ("engine.job_s." ^ j, "s")) Suite.pinned
  @ [
      ("engine.critical_path_s", "s");
      ("engine.sum_job_s", "s");
      ("engine.bound_s", "s");
      ("engine.efficiency_vs_bound", "frac");
      ("engine.lane_wait_s", "s");
      ("cache.store_s", "s");
      ("cache.find_s", "s");
      ("cache.hits", "count");
      ("cache.misses", "count");
      ("cache.bytes", "bytes");
      ("telemetry.sink_overhead_frac", "frac");
      ("telemetry.bench_overhead_frac", "frac");
      ("gc.minor_words", "words");
      ("gc.major_words", "words");
      ("gc.major_collections", "count");
      ("gc.peak_heap_mb", "MiB");
      ("host.calibration_s", "s");
      ("busy_frac.model", "frac");
      ("busy_frac.experiments", "frac");
    ]
  @ List.map
      (fun l -> ("self_s." ^ l, "s"))
      [
        "workloads"; "trace"; "pipeline"; "simulator"; "model"; "engine";
        "experiments"; "other";
      ]

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The [declared] metrics in order, each with the workload's value, or
   the not-applicable default. A metric that neither list declares, or
   with another unit, is a bug in the benchmark. *)
let fill ~declared ~default metrics =
  List.iter
    (fun (m : C.metric) ->
      match List.assoc_opt m.C.name (end_to_end @ per_layer) with
      | Some u when u = m.C.unit -> ()
      | _ -> failwith ("undeclared metric " ^ m.C.name ^ " [" ^ m.C.unit ^ "]"))
    metrics;
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (m : C.metric) -> m.C.name = name) metrics with
      | Some m -> m
      | None -> C.m name unit default)
    declared

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let nproc = ref 0 and git_rev = ref "unknown" and spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
      ("--nproc", Arg.Set_int nproc, "N usable CPUs (default: recommended domains)");
      ("--git-rev", Arg.Set_string git_rev, "R revision for the metadata line");
      ("--spans", Arg.Set_string spans, "FILE write a traced run's spans as JSON lines");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline
      ("perfbench: --workload must be one of " ^ String.concat ", " workloads);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace must be 0 or 1";
    exit 2
  end;
  let recommended = Domain.recommended_domain_count () in
  let nproc = if !nproc > 0 then !nproc else recommended in
  let traced = !trace = 1 in
  let domains = if !workload = "suite" && traced then min nproc recommended else 1 in
  Printf.printf
    "{\"meta\": {\"workload\": %S, \"seed\": %d, \"seconds\": %s, \"trace\": %b, \
     \"git_rev\": %S, \"ocaml_version\": %S, \"nproc\": %d, \
     \"recommended_domains\": %d, \"domains_used\": %d, \
     \"oversubscribed\": %b}}\n%!"
    !workload !seed (number !seconds) traced !git_rev Sys.ocaml_version nproc
    recommended domains (domains > nproc);
  if domains > nproc then
    Printf.eprintf "perfbench: WARNING: %d domains on %d CPUs (oversubscribed)\n%!"
      domains nproc;
  let seed = !seed and seconds = !seconds in
  let tally, metrics =
    match !workload with
    | "sim_stall" -> Sim.sim_stall ~seed ~seconds ~trace:traced
    | "sim_dense" -> Sim.sim_dense ~seed ~seconds ~trace:traced
    | "model_sweep" -> Sweep.run ~seed ~seconds ~trace:traced
    | _ -> Suite.run ~domains ~seed ~seconds ~trace:traced
  in
  if !spans <> "" then Span.write !spans;
  Printf.eprintf "  calibration: lower decile %.6f s of %d samples; times scaled by %.4f\n%!"
    (C.calibration_s ()) (List.length !C.calibration) (C.scaled 1.0);
  let metrics =
    if traced then
      fill ~declared:per_layer ~default:0.0
        (C.m "gc.peak_heap_mb" "MiB" (C.peak_heap_mb ())
        :: C.m "host.calibration_s" "s" (C.calibration_s ())
        :: metrics)
    else fill ~declared:end_to_end ~default:1.0 metrics
  in
  (* A non-finite value is a failure of the run, not a measurement. *)
  let bad = List.filter (fun (m : C.metric) -> not (Float.is_finite m.C.value)) metrics in
  List.iter
    (fun (m : C.metric) -> prerr_endline ("perfbench: FAILED: non-finite " ^ m.C.name))
    bad;
  let failed = tally.C.failed + List.length bad in
  let attempted = max 1 (tally.C.attempted + List.length bad) in
  List.iter
    (fun (m : C.metric) ->
      Printf.eprintf "  %-34s %14s %s\n" m.C.name (number m.C.value) m.C.unit)
    metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (m : C.metric) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.C.name
              (number (if Float.is_finite m.C.value then m.C.value else 0.0))
              m.C.unit)
          metrics))
