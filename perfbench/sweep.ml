(* The [model_sweep] workload: an analytical design-space sweep with no
   simulation.

   A pass builds every scenario from the (a, v) grid through the model's
   validating constructors, then evaluates [Equations.speedups] over
   grid x accelerator factors x the three core presets (all four modes
   per call), [composed_speedups] over chained fractions and both commit
   ports, and [config_break_even] for the three configuration
   mechanisms. One evaluation is one call into the model. *)

open Tca_model
module C = Common

let n_a = 160
let n_g = 160
let factors = [| 2.0; 4.0; 8.0; 16.0; 64.0 |]
let cores = [| Presets.hp_core; Presets.lp_core; Presets.arm_a72 |]
let chained = Array.init 11 (fun i -> float_of_int i /. 10.0)
let ports = [| Params.Shared; Params.Private |]

let configs =
  [|
    Params.Sync 20.0;
    Params.Queued { t_config = 20.0; depth = 4 };
    Params.Preprogrammed { t_config = 2000.0; invocations = 50 };
  |]

type grid = {
  points : (float * float) array;  (** (a, v), a in (0, 1], granularity a/v in [1, 1e4] *)
  unit_points : (float * float) array;
      (** per-unit (a, v) of the two-unit compositions *)
  break_even_a : float array;
}

(* The grid is jittered by the seed: every cell of the regular a x
   log-granularity lattice gets one uniformly placed point. *)
let grid seed =
  let rng = Tca_util.Prng.create seed in
  let point ~a_max ~g_max i j ~ni ~nj =
    let a = a_max *. (float_of_int i +. Tca_util.Prng.float rng 1.0) /. float_of_int ni in
    let a = Float.max a 1e-3 in
    let u = (float_of_int j +. Tca_util.Prng.float rng 1.0) /. float_of_int nj in
    let g = 10.0 ** (g_max *. u) in
    (a, a /. g)
  in
  {
    points =
      Array.init (n_a * n_g) (fun k ->
          point ~a_max:1.0 ~g_max:4.0 (k / n_g) (k mod n_g) ~ni:n_a ~nj:n_g);
    unit_points =
      Array.init 144 (fun k ->
          point ~a_max:0.45 ~g_max:3.0 (k / 12) (k mod 12) ~ni:12 ~nj:12);
    break_even_a =
      Array.init 8 (fun i ->
          0.1 +. (0.1 *. float_of_int i) +. Tca_util.Prng.float rng 0.05);
  }

type built = {
  scenarios : Params.scenario array;  (** point-major, factor-minor *)
  compositions : Params.composition array;
}

exception Invalid_input of string

let ok what = function
  | Ok x -> x
  | Error d -> raise (Invalid_input (what ^ ": " ^ Tca_util.Diag.to_string d))

let build g =
  let nf = Array.length factors in
  let scenarios =
    Array.init
      (Array.length g.points * nf)
      (fun k ->
        let a, v = g.points.(k / nf) in
        let accel = Params.Factor factors.(k mod nf) in
        ok "scenario" (Params.scenario ~a ~v ~accel ()))
  in
  let unit (a, v) f =
    ok "unit" (Params.unit_scenario ~a ~v ~accel:(Params.Factor f) ())
  in
  let np = Array.length g.unit_points in
  let compositions =
    Array.init
      (np * Array.length chained * Array.length ports)
      (fun k ->
        let p = k mod np and rest = k / np in
        let c = chained.(rest mod Array.length chained)
        and port = ports.(rest / Array.length chained) in
        let units =
          [ unit g.unit_points.(p) 8.0; unit g.unit_points.((p * 7 + 3) mod np) 16.0 ]
        in
        ok "composition" (Params.composition ~chained:c ~commit_port:port ~units ()))
  in
  { scenarios; compositions }

(* Evaluation counts and a checksum over every value the model
   returned; [bad] counts [Error]s and non-finite values. *)
type tally = { mutable evals : int; mutable bad : int; mutable checksum : float }

let add t = function
  | Ok l ->
      t.evals <- t.evals + 1;
      List.iter
        (fun (_, s) ->
          if Float.is_finite s then t.checksum <- t.checksum +. s else t.bad <- t.bad + 1)
        l
  | Error _ ->
      t.evals <- t.evals + 1;
      t.bad <- t.bad + 1

(* [step] runs each of the nine parts (three kinds of call per core
   preset); a timed pass uses it to time them apart. *)
let evaluate ~step g b =
  let t = { evals = 0; bad = 0; checksum = 0.0 } in
  let break_even core a config =
    List.iter
      (fun mode ->
        add t
          (Result.map
             (fun be -> [ (mode, Option.value ~default:0.0 be) ])
             (Equations.config_break_even core ~a ~accel:(Params.Factor 8.0) ~config mode)))
      Mode.all
  in
  Array.iter
    (fun core ->
      step (fun () -> Array.iter (fun s -> add t (Equations.speedups core s)) b.scenarios);
      step (fun () ->
          Array.iter (fun c -> add t (Equations.composed_speedups core c)) b.compositions);
      step (fun () ->
          Array.iter (fun a -> Array.iter (break_even core a) configs) g.break_even_a))
    cores;
  t

type pass = {
  wall : float;
  build_s : float;
  eval_steps : float list;  (** the nine parts of [evaluate], in order *)
  result : tally;
  words : float;
  gc : C.gc;
}

let run_pass g =
  Span.with_ "other" (fun () ->
      let g0 = C.gc_now () in
      let w0 = C.alloc_words () in
      let t0 = C.now () in
      let b, build_s = C.timed (fun () -> Span.with_ "model" (fun () -> build g)) in
      let times = ref [] in
      let step f =
        let (), s = C.timed f in
        times := s :: !times
      in
      let result = Span.with_ "model" (fun () -> evaluate ~step g b) in
      let wall = C.since t0 in
      let words = C.alloc_words () -. w0 in
      { wall; build_s; eval_steps = List.rev !times; result; words; gc = C.gc_since g0 })

let run ~seed ~seconds ~trace =
  let tally = C.tally () in
  let g, setup_s = C.setup ~k:25 (fun () -> grid seed) in
  let timed traced budget =
    Span.enabled := traced;
    let ps =
      C.passes ~seconds:budget (fun i ->
          Span.set_pass i;
          run_pass g)
    in
    Span.enabled := false;
    ps
  in
  let plain, traced =
    match timed false (if trace then seconds /. 2.0 else seconds) with
    | exception Invalid_input msg ->
        C.check tally false msg;
        ([], [])
    | plain -> (plain, if trace then timed true (seconds /. 2.0) else [])
  in
  let first = match plain with p :: _ -> Some p | [] -> None in
  List.iter
    (fun p ->
      let r = p.result and r0 = (Option.get first).result in
      tally.C.attempted <- tally.C.attempted + r.evals;
      tally.C.failed <- tally.C.failed + r.bad;
      if r.bad > 0 then
        Printf.eprintf
          "perfbench: FAILED: model_sweep: %d failed or non-finite evaluations\n" r.bad;
      C.check tally
        (Int64.equal (Int64.bits_of_float r.checksum) (Int64.bits_of_float r0.checksum)
        && r.evals = r0.evals)
        "model_sweep: checksum differs between passes")
    (plain @ traced);
  let fastest_of f ps = C.fastest (List.map f ps) in
  let evals = match first with Some p -> float_of_int p.result.evals | None -> 0.0 in
  (* A pass's steps, and what it spent outside them, as one list. *)
  let all_steps p =
    let steps = p.build_s :: p.eval_steps in
    (p.wall -. C.sum steps) :: steps
  in
  let wall_s = C.scaled (C.fastest_steps (List.map all_steps plain)) in
  let e2e =
    [
      C.m "setup_s" "s" (C.scaled setup_s);
      C.m "wall_s" "s" wall_s;
      C.m "warm_s" "s"
        (C.scaled (C.fastest_steps (List.map (fun p -> p.eval_steps) plain)));
      C.m "model_mevals_per_s" "Meval/s" (evals /. wall_s /. 1e6);
      C.m "peak_heap_mb" "MiB" (C.peak_heap_mb ());
    ]
  in
  let layers =
    if not trace || first = None then []
    else
      let p0 = Option.get first in
      let spans = Span.all () in
      let self_of layer =
        C.fastest
          (List.mapi
             (fun i _ -> Span.self_by_layer ~keep:(fun s -> s.Span.pass = i) spans layer)
             traced)
      in
      [
        C.m "model.evals" "count" evals;
        C.m "model.ns_per_eval" "ns"
          (1e9 *. C.ratio (fastest_of (fun p -> p.wall) traced) evals);
        C.m "model.words_per_eval" "words" (C.ratio p0.words evals);
        C.m "model.checksum" "sum" p0.result.checksum;
        C.m "telemetry.bench_overhead_frac" "frac"
          (C.ratio (fastest_of (fun p -> p.wall) traced) (fastest_of (fun p -> p.wall) plain)
          -. 1.0);
        C.m "self_s.model" "s" (self_of "model");
        C.m "self_s.other" "s" (self_of "other");
      ]
      @ C.gc_metrics p0.gc
  in
  C.report tally (e2e @ layers)
