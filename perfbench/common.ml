(* Shared plumbing of the benchmark: the clock, order statistics,
   allocation counters and the metric/report types every workload
   returns. *)

let now () = Monotonic_clock.now ()

let since t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e9

(* [f ()] and its host seconds on the monotonic clock. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, since t0)

(* Words allocated by the calling domain so far. Allocation is a count
   made by the runtime, so for deterministic single-domain code its
   deltas repeat exactly across runs. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Runtime GC counters of the calling domain, and their change over a
   stretch of work. *)
type gc = { minor_words : float; major_words : float; major_collections : int }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    major_words = s.Gc.major_words;
    major_collections = s.Gc.major_collections;
  }

let gc_since g0 =
  let g1 = gc_now () in
  {
    minor_words = g1.minor_words -. g0.minor_words;
    major_words = g1.major_words -. g0.major_words;
    major_collections = g1.major_collections - g0.major_collections;
  }

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The fastest of a run's samples of one timed quantity. Interference
   from other tenants of a shared host only ever adds time,
   in bursts that last seconds to minutes, so under such noise the
   minimum is the most stable estimate of what the code costs (Chen and
   Revels, "Robust benchmarking in noisy environments", 2016). *)
let fastest = function [] -> 0.0 | x :: xs -> List.fold_left Float.min x xs

let sum = List.fold_left ( +. ) 0.0

(* The sum, over the steps every pass takes in the same order, of each
   step's fastest time in the run: [steps] holds one list of step times
   per pass. Interference on this host comes and goes within a second,
   so a step is far more likely to find one quiet moment in a run than
   a whole pass is; the sum is what a pass costs when nothing
   interferes. *)
let fastest_steps = function
  | [] -> 0.0
  | first :: _ as steps ->
      let a = List.map Array.of_list steps in
      sum (List.init (List.length first) (fun k -> fastest (List.map (fun p -> p.(k)) a)))

let ratio num den = if den = 0.0 then 0.0 else num /. den

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. (1024.0 *. 1024.0)

(* Host-speed calibration.

   Other tenants of a shared host slow this one by up to 1.8x, in
   spells that last from under a second to minutes, so a whole run can
   fall inside one: the same code's fastest pass then differs by 20%
   or more between runs, and no statistic over one run's passes removes
   that. So every run also times a fixed kernel of its own, never
   changed with the program, between passes (at most every half second)
   and before each set-up. The kernel does what the simulator does most:
   allocates short-lived blocks, indexes a 256 KiB array at random and
   updates a hash table (a 4 MiB array, missing the caches, tracked the
   workloads' slowdowns worse). Its lower-decile time in the run,
   against the same on the reference host, gives the run's host speed,
   and every end-to-end time is reported scaled to the reference host:
   [scaled t = t * reference / kernel time]. A change to the program
   leaves the kernel as it is, so it moves the scaled time as it moves
   the raw one. *)

(* The kernel's lower-decile time in the quietest of a set of runs on
   the reference host (2-vCPU shared VM, OCaml 5.1.1, release
   profile). *)
let calibration_reference_s = 0.035

(* The kernel's array is allocated once: a fresh block would make every
   sample pay for page faults, whose cost on a virtual machine varies
   far more than the host's speed does. *)
let kernel_array = Array.make (1 lsl 15) 0

let kernel () =
  let a = kernel_array in
  let n = Array.length a in
  Array.fill a 0 n 0;
  let h = Hashtbl.create 4096 in
  let x = ref 88172645463 in
  let recent = ref [] in
  for k = 1 to 400_000 do
    x := (!x * 25214903917) + 11;
    let i = (!x lsr 17) land (n - 1) in
    a.(i) <- a.(i) + (!x lsr 40);
    if a.(i) land 3 = 0 then recent := (i, k) :: !recent;
    if k land 63 = 0 then recent := [];
    let key = i land 8191 in
    Hashtbl.replace h key (1 + Option.value ~default:0 (Hashtbl.find_opt h key))
  done;
  ignore (Sys.opaque_identity (a, !recent, h))

let calibration : float list ref = ref []
let last_calibration = ref 0L

(* Take a calibration sample unless one was taken in the last half
   second; returns the seconds it took, 0 if none was taken. *)
let calibrate () =
  if !calibration <> [] && since !last_calibration < 0.5 then 0.0
  else begin
    let (), s = timed kernel in
    calibration := s :: !calibration;
    last_calibration := now ();
    s
  end

(* The run's lower-decile kernel time, and a host time scaled to the
   reference host. Not the fastest sample: a 35 ms kernel finds a
   quiet moment far more often than a step of a pass does, so its
   minimum runs ahead of theirs; the lower decile (the 2nd to 5th
   fastest of a run's 20 to 50 samples) matches them better. *)
let calibration_s () =
  match List.sort Float.compare !calibration with
  | [] -> 0.0
  | sorted -> List.nth sorted (List.length sorted / 10)

let scaled t = t *. calibration_reference_s /. calibration_s ()

(* Run [pass] until [seconds] of host time have been spent in the loop,
   at least [min_passes] times, and return every pass's result in
   order. The last pass may overrun the budget; its time still counts.
   A full major collection before each pass (outside its timing) frees
   the previous pass's garbage, so passes start from the same heap
   state and the heap does not grow across them; a calibration sample
   comes before it, so that its garbage is collected too. *)
let passes ?(min_passes = 3) ~seconds pass =
  let t0 = now () in
  let rec go i acc =
    if i >= min_passes && since t0 >= seconds then List.rev acc
    else begin
      let c = calibrate () in
      Gc.full_major ();
      let r, s = timed (fun () -> pass i) in
      Printf.eprintf "  pass %d: %.4f s (calibration %.4f s)\n%!" i s c;
      go (i + 1) (r :: acc)
    end
  in
  go 0 []

(* Median of [k] timed set-ups, each after a calibration sample and a
   full major collection (as for passes); returns the last set-up's
   value, so the inputs the workload then runs on were built exactly
   like the timed ones. With [batch], a sample times that many set-ups
   back to back and counts their mean: for a set-up of microseconds,
   whose single timing is mostly clock and interrupt noise. *)
let setup ?(batch = 1) ~k f =
  let rec go i times last =
    if i = k then (Option.get last, median times)
    else begin
      ignore (calibrate ());
      Gc.full_major ();
      let t0 = now () in
      for _ = 2 to batch do
        ignore (Sys.opaque_identity (f ()))
      done;
      let r = f () in
      let t = since t0 /. float_of_int batch in
      go (i + 1) (t :: times) (Some r)
    end
  in
  go 0 [] None

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

(* Failure accounting shared by the workloads: every checked operation
   counts as attempted, and a mismatch, an [Error], a watchdog [Partial]
   or a failed job counts it as failed. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    prerr_endline ("perfbench: FAILED: " ^ what)
  end

(* What a workload returns: its tally and its own metrics, by name. *)
let report (t : tally) (metrics : metric list) = (t, metrics)

let gc_metrics g =
  [
    m "gc.minor_words" "words" g.minor_words;
    m "gc.major_words" "words" g.major_words;
    m "gc.major_collections" "count" (float_of_int g.major_collections);
  ]
