type t = {
  width : int;
  horizon : int;
  used : int array;  (** indexed by [cycle mod horizon] *)
  cell_cycle : int array;  (** which cycle each cell currently counts *)
}

let create ~width ~horizon =
  if width < 1 then invalid_arg "Ports.create: width below 1";
  if horizon < 2 then invalid_arg "Ports.create: horizon below 2";
  {
    width;
    horizon;
    used = Array.make horizon 0;
    cell_cycle = Array.make horizon (-1);
  }

let usage_at t c =
  let idx = c mod t.horizon in
  if t.cell_cycle.(idx) = c then t.used.(idx) else 0

let book t c =
  let idx = c mod t.horizon in
  if t.cell_cycle.(idx) <> c then begin
    t.cell_cycle.(idx) <- c;
    t.used.(idx) <- 0
  end;
  t.used.(idx) <- t.used.(idx) + 1

(* Top-level rather than a local closure over [t] and [now], so a
   reservation allocates nothing. *)
let rec reserve_from t now c =
  if c - now >= t.horizon then
    failwith "Ports.reserve: reservation horizon exhausted"
  else if usage_at t c < t.width then begin
    book t c;
    c
  end
  else reserve_from t now (c + 1)

let reserve t ~now = reserve_from t now now

let width t = t.width
