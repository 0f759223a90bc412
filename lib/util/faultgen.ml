type t = Prng.t

let create ~seed = Prng.create seed
let fork = Prng.split

let specials =
  [|
    Float.nan; infinity; neg_infinity; 0.0; -0.0; Float.min_float;
    -.Float.min_float; max_float; -.max_float; 1e308; -1e308; 1e-300;
    epsilon_float; -1.0; 1.0;
  |]

let finite_float t ~lo ~hi = lo +. Prng.float t (hi -. lo)

let float_adversarial t =
  match Prng.int t 4 with
  | 0 -> Prng.choose t specials
  | 1 -> finite_float t ~lo:(-1e6) ~hi:1e6
  | 2 -> finite_float t ~lo:(-10.0) ~hi:10.0
  | _ -> Float.of_int (Prng.int_in t (-1000) 1000)

let fraction_adversarial t =
  match Prng.int t 8 with
  | 0 -> Prng.choose t specials
  | 1 -> finite_float t ~lo:(-2.0) ~hi:3.0
  | _ -> Prng.float t 1.0

let positive_adversarial t =
  match Prng.int t 8 with
  | 0 -> Prng.choose t specials
  | 1 -> 0.0
  | 2 -> -.Prng.float t 100.0
  | 3 -> 1e300 *. (1.0 +. Prng.float t 8.0)
  | 4 -> 1e-300 *. Prng.float t 1.0
  | _ -> 0.001 +. Prng.float t 100.0

let int_adversarial t =
  match Prng.int t 8 with
  | 0 -> 0
  | 1 -> -Prng.int_in t 1 1000
  | 2 -> max_int - Prng.int t 4
  | 3 -> min_int + Prng.int t 4
  | _ -> Prng.int_in t 1 512

let size_adversarial t ~max =
  match Prng.int t 10 with
  | 0 -> 0
  | 1 -> -Prng.int_in t 1 100
  | 2 -> max * Prng.int_in t 10 1000
  | _ -> Prng.int_in t 1 (Stdlib.max 1 max)

let array_adversarial ?(max_len = 32) t gen =
  let len = if Prng.int t 10 = 0 then 0 else Prng.int_in t 1 max_len in
  Array.init len (fun _ -> gen t)

let matrix_adversarial t =
  let rows = if Prng.int t 10 = 0 then 0 else Prng.int_in t 1 8 in
  let cols = Prng.int_in t 1 8 in
  Array.init rows (fun _ ->
      let c = if Prng.int t 5 = 0 then Prng.int_in t 0 8 else cols in
      Array.init c (fun _ -> float_adversarial t))

(* --- engine-layer faults --- *)

type engine_fault =
  | Raise
  | Transient_failures of int
  | Hang
  | Corrupt_artifact

let engine_fault t =
  match Prng.int t 4 with
  | 0 -> Raise
  | 1 -> Transient_failures (Prng.int_in t 1 4)
  | 2 -> Hang
  | _ -> Corrupt_artifact

(* Bit-flip somewhere in the middle, truncate, or both — the shapes a
   torn write or a bad sector leaves behind. The result is never equal
   to the input (a flip changes one byte; a truncation shortens). *)
let corrupt_string t s =
  let n = String.length s in
  if n = 0 then "\x00"
  else
    let flip_byte str =
      let b = Bytes.of_string str in
      let i = Prng.int t (Bytes.length b) in
      Bytes.set b i
        (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Prng.int t 8)));
      Bytes.to_string b
    in
    match Prng.int t 3 with
    | 0 -> String.sub s 0 (Prng.int t n) (* truncate, possibly to empty *)
    | 1 -> flip_byte s
    | _ -> flip_byte (String.sub s 0 (1 + Prng.int t n))

type core_spec = {
  ipc : float;
  rob_size : int;
  issue_width : int;
  commit_stall : float;
  drain_beta : float;
}

let core_spec t =
  {
    ipc = positive_adversarial t;
    rob_size = int_adversarial t;
    issue_width = int_adversarial t;
    commit_stall = positive_adversarial t;
    drain_beta = positive_adversarial t;
  }

type scenario_spec = {
  a : float;
  v : float;
  use_factor : bool;
  factor : float;
  latency : float;
  drain_fixed : float option;
}

let scenario_spec t =
  {
    a = fraction_adversarial t;
    v = (if Prng.int t 4 = 0 then fraction_adversarial t
         else Prng.float t 0.02);
    use_factor = Prng.bool t;
    factor = positive_adversarial t;
    latency = positive_adversarial t;
    drain_fixed =
      (if Prng.int t 4 = 0 then Some (positive_adversarial t) else None);
  }

type uarch_spec = {
  dispatch_width : int;
  u_issue_width : int;
  commit_width : int;
  u_rob_size : int;
  iq_size : int;
  lsq_size : int;
  int_alu_units : int;
  int_mult_units : int;
  fp_units : int;
  mem_ports : int;
  frontend_depth : int;
  commit_depth : int;
  speculate_fraction : float option;
  watchdog_cycles : int option;
}

(* Structural knobs skew small — ROB-size-1 cores, single-port memory —
   because the interesting simulator failures live at the degenerate end
   of the design space. *)
let small t = Prng.int_in t 1 8

let uarch_spec t =
  {
    dispatch_width = small t;
    u_issue_width = small t;
    commit_width = small t;
    u_rob_size =
      (* One draw in six past 64 slots: ready bitmaps of three or more
         62-slot words. *)
      (match Prng.int t 6 with
      | 0 | 1 -> Prng.int_in t 0 2
      | 2 -> Prng.int_in t 65 200
      | _ -> Prng.int_in t 2 64);
    iq_size = (if Prng.int t 4 = 0 then 1 else Prng.int_in t 1 64);
    lsq_size = (if Prng.int t 4 = 0 then 1 else Prng.int_in t 1 64);
    int_alu_units = small t;
    int_mult_units = small t;
    fp_units = small t;
    mem_ports = small t;
    frontend_depth = Prng.int_in t 1 16;
    commit_depth = Prng.int_in t 0 8;
    speculate_fraction =
      (if Prng.int t 3 = 0 then Some (fraction_adversarial t) else None);
    watchdog_cycles =
      (if Prng.int t 3 = 0 then Some (Prng.int_in t 1 200) else None);
  }
