open Tca_uarch
open Tca_workloads
open Tca_interval

type row = {
  label : string;
  predicted_ipc : float;
  simulated_ipc : float;
  error_pct : float;
}

(* Measure the code's dependence-limited issue rate by simulating a
   slice on an ideal front end (perfect predictor, huge working set in
   L1): what the mechanistic model calls chain_ipc. An architect would
   estimate this from the dataflow graph; measuring it on a 100k-μop slice
   keeps the comparison honest without leaking the full answer. *)
let chain_ipc_of app =
  let rng = Tca_util.Prng.create 99 in
  let gen =
    Codegen.create
      ~config:{ app with Codegen.branch_every = 0; working_set_bytes = 4096 }
      ~rng ()
  in
  let b = Trace.Builder.create () in
  Codegen.emit_block gen b 100_000;
  let cfg = { (Config.hp ()) with Config.bpred = Bpred.Perfect } in
  (Pipeline.run_exn cfg (Trace.Builder.build b)).Sim_stats.ipc

let cases =
  [
    ( "balanced",
      { Codegen.model_friendly_config with Codegen.dep_window = 12 } );
    ( "chain-limited",
      { Codegen.model_friendly_config with Codegen.dep_window = 3 } );
    ( "branch-heavy",
      {
        Codegen.model_friendly_config with
        Codegen.dep_window = 12;
        branch_every = 5;
        hard_branch_fraction = 0.1;
      } );
    ( "memory-bound",
      {
        Codegen.model_friendly_config with
        Codegen.dep_window = 12;
        load_every = 3;
        working_set_bytes = 8 * 1024 * 1024;
      } );
  ]

let case_trace app =
  let rng = Tca_util.Prng.create 4242 in
  let gen = Codegen.create ~config:app ~rng () in
  let b = Trace.Builder.create () in
  Codegen.emit_block gen b 120_000;
  Trace.Builder.build b

let run ?telemetry ?(par = Tca_util.Parmap.serial) () =
  let cfg = Config.hp () in
  let cases_a = Array.of_list cases in
  let sinks =
    Array.map (fun _ -> Option.map Tca_telemetry.Sink.fork telemetry) cases_a
  in
  let eval i =
    let label, app = cases_a.(i) in
    let trace =
      Tca_telemetry.Timing.with_span sinks.(i) "sim.workload" (fun () ->
          case_trace app)
    in
    let stats =
      Tca_telemetry.Timing.with_span sinks.(i) "sim.step" (fun () ->
          Pipeline.run_exn ?telemetry:sinks.(i) cfg trace)
    in
      (* Event rates the architect would know: instruction mix from the
         code, predictor accuracy from hardware counters, steady-state
         miss rates from working-set sizes (uniform random accesses:
         DRAM rate = 1 - L2/WS when the working set exceeds the L2). *)
      let counts = Trace.counts trace in
      let fi = float_of_int in
      let branch_rate = fi counts.Trace.branches /. fi counts.Trace.total in
      let load_rate = fi counts.Trace.loads /. fi counts.Trace.total in
      let mispredict_rate = Sim_stats.mispredict_rate stats in
      let l2_bytes =
        match cfg.Config.mem.Mem_hier.l2 with
        | Some l2 -> l2.Cache.size_bytes
        | None -> 0
      in
      let ws = app.Codegen.working_set_bytes in
      let dram_miss_rate =
        if ws <= l2_bytes then 0.0
        else 1.0 -. (fi l2_bytes /. fi ws)
      in
      (* Independent random misses overlap up to the dependence window's
         ability to expose them. *)
      let mlp =
        Float.max 1.0 (fi app.Codegen.dep_window /. 4.0)
      in
      let machine =
        Mechanistic.machine ~dispatch_width:cfg.Config.dispatch_width
          ~rob_size:cfg.Config.rob_size
          ~frontend_depth:cfg.Config.frontend_depth
          ~mem_latency:cfg.Config.mem.Mem_hier.mem_latency ()
      in
      let w =
        Mechanistic.stats ~branch_rate ~mispredict_rate ~load_rate
          ~dram_miss_rate ~mlp
          ~chain_ipc:
            (Tca_telemetry.Timing.with_span sinks.(i) "sim.calibrate"
               (fun () -> chain_ipc_of app))
          ()
      in
      let predicted = Mechanistic.ipc machine w in
      {
        label;
        predicted_ipc = predicted;
        simulated_ipc = stats.Sim_stats.ipc;
        error_pct =
          100.0 *. (predicted -. stats.Sim_stats.ipc) /. stats.Sim_stats.ipc;
      }
  in
  let rows =
    par.Tca_util.Parmap.run eval (Array.init (Array.length cases_a) Fun.id)
  in
  (match telemetry with
  | Some into ->
      Array.iter
        (function
          | Some child -> Tca_telemetry.Sink.join ~into child | None -> ())
        sinks
  | None -> ());
  Array.to_list rows

let artifact rows =
  let module A = Tca_engine.Artifact in
  A.make ~job:"mechanistic"
    ~title:"X4: mechanistic CPI model (Eyerman-style) vs cycle-level simulator"
    [
      A.Table
        (A.table ~name:"ipc"
           ~headers:[ "workload"; "predicted IPC"; "simulated IPC"; "error" ]
           (List.map
              (fun r ->
                [
                  A.text r.label;
                  A.flt r.predicted_ipc;
                  A.flt r.simulated_ipc;
                  A.pct r.error_pct;
                ])
              rows));
    ]

let print rows = print_string (Tca_engine.Artifact.to_text (artifact rows))
