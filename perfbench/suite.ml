(* The [suite] workload: what [tca run --quick] does.

   A cold pass runs the pinned list of registered jobs through
   [Scheduler.run] into a fresh on-disk [Cache]: every job executes and
   its artifact is written. Warm passes then re-serve every job from
   that directory through a new [Cache.t], as a second [tca run
   --cache-dir] would. The jobs carry their own seeded inputs and take
   no seed, so [--seed] changes nothing here. *)

open Tca_engine
module C = Common

(* All 27 jobs registered when the benchmark was defined, in registry
   order. The benchmark runs exactly these: a job added later is not
   part of the workload, and a job removed makes the run fail. *)
let pinned =
  [
    "composition"; "config_wall"; "cores"; "design"; "fig2"; "fig3"; "fig4";
    "fig5"; "fig6"; "fig7"; "fig8"; "hashmap"; "logca"; "mechanistic";
    "occupancy"; "partial"; "regexv"; "simulate.config_wall";
    "simulate.dgemm"; "simulate.hashmap"; "simulate.heap";
    "simulate.multi_tca"; "simulate.regex"; "simulate.strfn";
    "simulate.synthetic"; "strfn"; "table1";
  ]

(* Jobs whose body evaluates the analytical model and runs no
   simulation: their time is the [model] layer's share of the suite. *)
let model_only =
  [ "table1"; "fig2"; "fig7"; "fig8"; "logca"; "design"; "composition"; "config_wall" ]

let layer_of name = if List.mem name model_only then "model" else "experiments"

(* Jobs whose validation rows give [model_err_pct]. *)
let validation_jobs = [ "fig4"; "fig5"; "fig6" ]

let scratch = ".perfbench-tmp"

let rec remove path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let dir_bytes dir =
  Array.fold_left
    (fun n f ->
      let p = Filename.concat dir f in
      if Sys.is_directory p then n else n + (Unix.stat p).Unix.st_size)
    0 (Sys.readdir dir)

(* The job with its body, and every chunk it hands to [ctx.par], in
   spans labelled with the job's name. The pool's domains run other
   jobs' chunks while they wait, so only self time, summed over every
   lane, is the job's own work. *)
let traced (j : Job.t) =
  let span f = Span.with_ ~label:j.Job.name (layer_of j.Job.name) f in
  {
    j with
    Job.body =
      (fun ctx ->
        let par =
          {
            Tca_util.Parmap.run =
              (fun f xs ->
                ctx.Job.par.Tca_util.Parmap.run (fun x -> span (fun () -> f x)) xs);
          }
        in
        span (fun () -> j.Job.body { ctx with Job.par }));
  }

(* Self seconds by label, on one domain. While a job waits on the
   chunks it handed to [ctx.par], the calling domain works the pool's
   queue, so other jobs' bodies run nested inside it: a job's own time
   is the time of its body and chunks minus what nested inside them. *)
type self_clock = {
  self : (string, float) Hashtbl.t;
  mutable stack : (string * int64 ref) list;  (** open spans, innermost first *)
}

let self_clock () = { self = Hashtbl.create 32; stack = [] }

let within c label f =
  let add l s =
    Hashtbl.replace c.self l (s +. Option.value ~default:0.0 (Hashtbl.find_opt c.self l))
  in
  (match c.stack with (outer, t) :: _ -> add outer (C.since !t) | [] -> ());
  let t = ref (C.now ()) in
  c.stack <- (label, t) :: c.stack;
  Fun.protect f ~finally:(fun () ->
      add label (C.since !t);
      c.stack <- List.tl c.stack;
      match c.stack with (_, t) :: _ -> t := C.now () | [] -> ())

let self_of c label = Option.value ~default:0.0 (Hashtbl.find_opt c.self label)

(* The job with its body and chunks on [c]'s clock, labelled with the
   job's name, each after a calibration sample on its own label. *)
let clocked c (j : Job.t) =
  let run f x =
    within c "calibration" (fun () -> ignore (C.calibrate ()));
    within c j.Job.name (fun () -> f x)
  in
  {
    j with
    Job.body =
      (fun ctx ->
        let par =
          {
            Tca_util.Parmap.run =
              (fun f xs -> ctx.Job.par.Tca_util.Parmap.run (run f) xs);
          }
        in
        run j.Job.body { ctx with Job.par });
  }

(* Seconds the scheduler spent in its [name] phase spans. *)
let phase_seconds sink name =
  C.sum
    (List.filter_map
       (fun (e : Tca_telemetry.Sink.event) ->
         if e.Tca_telemetry.Sink.name = name && e.Tca_telemetry.Sink.ph = 'X' then
           Some (e.Tca_telemetry.Sink.dur /. 1e6)
         else None)
       (Tca_telemetry.Sink.events sink))

let fingerprints outcomes =
  List.map (fun o -> Option.map Artifact.fingerprint (Scheduler.artifact o)) outcomes

let float_of_cell = function
  | Artifact.Fixed (_, f) | Artifact.Sci f | Artifact.Pct f -> Some f
  | Artifact.Int i -> Some (float_of_int i)
  | Artifact.Text s -> float_of_string_opt s

(* |model - simulator| / simulator over the validation rows, percent. *)
let validation_errors outcomes =
  List.concat_map
    (fun (o : Scheduler.outcome) ->
      match Scheduler.artifact o with
      | Some a when List.mem o.Scheduler.job.Job.name validation_jobs -> (
          match Artifact.find_table a "validation" with
          | None -> []
          | Some t ->
              let col h =
                let rec go i = function
                  | [] -> None
                  | x :: _ when x = h -> Some i
                  | _ :: r -> go (i + 1) r
                in
                go 0 t.Artifact.headers
              in
              (match (col "sim", col "model") with
              | Some si, Some mi ->
                  List.filter_map
                    (fun row ->
                      let cell i = float_of_cell (List.nth row i) in
                      match (cell si, cell mi) with
                      | Some sim, Some model when sim <> 0.0 ->
                          Some (100.0 *. Float.abs (model -. sim) /. sim)
                      | _ -> None)
                    t.Artifact.cells
              | _ -> []))
      | _ -> [])
    outcomes

type pass = {
  wall : float;
  job_s : float list;
      (** each pinned job's self seconds, in [pinned] order, on one
          domain; empty on more *)
  calib_s : float;  (** calibration samples taken inside the pass *)
  warm : float list;  (** each warm re-serve of the whole list *)
  outcomes : Scheduler.outcome list;
  warm_outcomes : Scheduler.outcome list;
  misses : int;
  hits : int;
  bytes : int;
  store_s : float;
  find_s : float;
  sched_s : float;  (** [Scheduler.run] of the cold pass *)
  gc : C.gc;
}

let warm_reps = 100

let run_pass ~domains ~trace jobs i =
  let dir = Filename.concat scratch (Printf.sprintf "suite-%d-%d" (Unix.getpid ()) i) in
  let host = if trace then Some (Tca_telemetry.Sink.create ()) else None in
  let clock = self_clock () in
  let g0 = C.gc_now () in
  let t0 = C.now () in
  let cache, outcomes, sched_s =
    Span.with_ "other" (fun () ->
        let cache = Cache.create ~dir () in
        let jobs =
          if trace then List.map traced jobs
          else if domains = 1 then List.map (clocked clock) jobs
          else jobs
        in
        let outcomes, sched_s =
          C.timed (fun () ->
              Span.with_ "engine" (fun () ->
                  Scheduler.run ~cache ~quick:true ?host_telemetry:host ~jobs:domains
                    jobs))
        in
        (cache, outcomes, sched_s))
  in
  let wall = C.since t0 in
  let gc = C.gc_since g0 in
  let phase name = Option.fold ~none:0.0 ~some:(fun s -> phase_seconds s name) in
  let store_s = phase "cache.store" host in
  let bytes = dir_bytes dir in
  Gc.full_major ();
  let warm_runs =
    List.init warm_reps (fun _ ->
        let host = if trace then Some (Tca_telemetry.Sink.create ()) else None in
        let cache = Cache.create ~dir () in
        let outcomes, s =
          C.timed (fun () ->
              Scheduler.run ~cache ~quick:true ?host_telemetry:host ~jobs:domains jobs)
        in
        (s, outcomes, cache, phase "cache.lookup" host))
  in
  remove dir;
  let _, warm_outcomes, warm_cache, _ = List.hd warm_runs in
  let job_s = if domains = 1 && not trace then List.map (self_of clock) pinned else [] in
  {
    wall;
    job_s;
    calib_s = self_of clock "calibration";
    warm = List.map (fun (s, _, _, _) -> s) warm_runs;
    outcomes;
    warm_outcomes;
    misses = Cache.misses cache;
    hits = Cache.hits warm_cache;
    bytes;
    store_s;
    find_s = C.fastest (List.map (fun (_, _, _, f) -> f) warm_runs);
    sched_s;
    gc;
  }

let check_pass tally reference p =
  List.iter
    (fun (o : Scheduler.outcome) ->
      let name = o.Scheduler.job.Job.name in
      match o.Scheduler.status with
      | Scheduler.Done _ -> C.check tally true ""
      | Scheduler.Failed f ->
          C.check tally false (name ^ ": " ^ Tca_util.Diag.to_string f.Scheduler.diag)
      | Scheduler.Skipped -> C.check tally false (name ^ ": skipped"))
    p.outcomes;
  let cold = fingerprints p.outcomes in
  C.check tally (cold = reference)
    "suite: cold artifacts differ from the first cold pass";
  List.iter2
    (fun (o : Scheduler.outcome) fp ->
      C.check tally
        (o.Scheduler.cached
        && Option.map Artifact.fingerprint (Scheduler.artifact o) = fp)
        (o.Scheduler.job.Job.name ^ ": warm pass did not re-serve the cold artifact"))
    p.warm_outcomes cold

(* [domains] is what the run uses: an untraced run passes 1 (the
   [tca run] default), so that each job's time can be taken apart from
   the others'; a traced run passes more, to show the engine's parallel
   behaviour. *)
let run ~domains ~seed:_ ~seconds ~trace =
  let tally = C.tally () in
  (* Set-up: the registry, the pinned jobs resolved in it, and the
     cache address of each, as [tca run] computes them before running. *)
  let jobs, setup_s =
    C.setup ~batch:200 ~k:25 (fun () ->
        Result.map
          (fun jobs ->
            let cache = Cache.create () in
            List.iter (fun j -> ignore (Cache.key cache j ~quick:true)) jobs;
            jobs)
          (Registry.resolve (Tca_experiments.Jobs.registry ()) pinned))
  in
  match jobs with
  | Error d ->
      C.check tally false ("suite: " ^ Tca_util.Diag.to_string d);
      C.report tally [ C.m "setup_s" "s" (C.scaled setup_s) ]
  | Ok jobs ->
      (try Sys.mkdir scratch 0o755 with Sys_error _ -> ());
      let timed traced budget =
        Span.enabled := traced;
        let ps =
          C.passes ~min_passes:(if traced then 1 else 2) ~seconds:budget (fun i ->
              Span.set_pass i;
              run_pass ~domains ~trace:traced jobs i)
        in
        Span.enabled := false;
        ps
      in
      let plain = timed false (if trace then seconds /. 2.0 else seconds) in
      let traced_passes = if trace then timed true (seconds /. 2.0) else [] in
      (try Sys.rmdir scratch with Sys_error _ -> ());
      let first = List.hd plain in
      let reference = fingerprints first.outcomes in
      List.iter (check_pass tally reference) (plain @ traced_passes);
      let fastest_of f ps = C.fastest (List.map f ps) in
      (* A cold pass's job bodies, and what it spent outside them and
         outside its calibration samples, as one list. *)
      let steps p = (p.wall -. C.sum p.job_s -. p.calib_s) :: p.job_s in
      let e2e =
        [
          C.m "setup_s" "s" (C.scaled setup_s);
          C.m "wall_s" "s" (C.scaled (C.fastest_steps (List.map steps plain)));
          C.m "warm_s" "s"
            (C.scaled (C.fastest (List.concat_map (fun p -> p.warm) plain)));
          C.m "model_err_pct" "%" (C.median (validation_errors first.outcomes));
          C.m "peak_heap_mb" "MiB" (C.peak_heap_mb ());
        ]
      in
      let layers =
        if not trace then []
        else begin
          let n = float_of_int domains in
          let spans = Span.all () in
          let main = (Domain.self () :> int) in
          let over_passes f = C.fastest (List.mapi f traced_passes) in
          let self_of layer =
            over_passes (fun i _ ->
                Span.self_by_layer
                  ~keep:(fun s -> s.Span.pass = i && s.Span.lane = main)
                  spans layer)
          in
          let busy_of layer =
            over_passes (fun i _ ->
                Span.self_by_layer ~keep:(fun s -> s.Span.pass = i) spans layer)
          in
          (* Per traced pass: each pinned job's self seconds over all lanes. *)
          let jobs_s =
            List.mapi
              (fun i _ ->
                let self =
                  Span.self_by_layer ~by_label:true ~keep:(fun s -> s.Span.pass = i) spans
                in
                List.map (fun name -> (name, self name)) pinned)
              traced_passes
          in
          let fastest_jobs f = C.fastest (List.map f jobs_s) in
          let job name = fastest_jobs (List.assoc name) in
          let sum_jobs js = C.sum (List.map snd js) in
          let longest js = List.fold_left (fun m (_, s) -> Float.max m s) 0.0 js in
          let bound js = Float.max (sum_jobs js /. n) (longest js) in
          let per_pass f = C.fastest (List.map2 f traced_passes jobs_s) in
          let wall = fastest_of (fun p -> p.wall) traced_passes in
          List.map (fun name -> C.m ("engine.job_s." ^ name) "s" (job name)) pinned
          @ [
              C.m "engine.critical_path_s" "s" (fastest_jobs longest);
              C.m "engine.sum_job_s" "s" (fastest_jobs sum_jobs);
              C.m "engine.bound_s" "s" (fastest_jobs bound);
              C.m "engine.efficiency_vs_bound" "frac"
                (per_pass (fun p js -> C.ratio (bound js) p.wall));
              C.m "engine.lane_wait_s" "s"
                (per_pass (fun p js -> (n *. p.sched_s) -. sum_jobs js));
              C.m "cache.store_s" "s" (fastest_of (fun p -> p.store_s) traced_passes);
              C.m "cache.find_s" "s" (fastest_of (fun p -> p.find_s) traced_passes);
              C.m "cache.hits" "count" (float_of_int first.hits);
              C.m "cache.misses" "count" (float_of_int first.misses);
              C.m "cache.bytes" "bytes" (float_of_int first.bytes);
              C.m "telemetry.bench_overhead_frac" "frac"
                (C.ratio wall (fastest_of (fun p -> p.wall) plain) -. 1.0);
              C.m "busy_frac.model" "frac" (C.ratio (busy_of "model") (n *. wall));
              C.m "busy_frac.experiments" "frac"
                (C.ratio (busy_of "experiments") (n *. wall));
            ]
          @ List.map
              (fun l -> C.m ("self_s." ^ l) "s" (self_of l))
              [ "engine"; "experiments"; "model"; "other" ]
          @ C.gc_metrics first.gc
        end
      in
      C.report tally (e2e @ layers)
