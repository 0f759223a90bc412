type config = {
  entries : int;
  assoc : int;
  page_bits : int;
  walk_latency : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let config ?(assoc = 4) ?(page_bits = 12) ?(walk_latency = 30) ~entries () =
  if not (is_pow2 entries) then invalid_arg "Tlb.config: entries not a power of two";
  if assoc <= 0 || entries mod assoc <> 0 then invalid_arg "Tlb.config: bad associativity";
  if not (is_pow2 (entries / assoc)) then invalid_arg "Tlb.config: set count not a power of two";
  if page_bits < 6 || page_bits > 30 then invalid_arg "Tlb.config: page_bits out of [6, 30]";
  if walk_latency < 1 then invalid_arg "Tlb.config: walk_latency below 1";
  { entries; assoc; page_bits; walk_latency }

type t = {
  cfg : config;
  tags : int array;
  stamps : int array;
  set_mask : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let create cfg =
  let sets = cfg.entries / cfg.assoc in
  {
    cfg;
    tags = Array.make cfg.entries (-1);
    stamps = Array.make cfg.entries 0;
    set_mask = sets - 1;
    clock = 0;
    hits = 0;
    misses = 0;
  }

(* Top-level, not a closure over [base] and [page]: no allocation. *)
let rec find t base page w =
  if w = t.cfg.assoc then -1
  else if t.tags.(base + w) = page then base + w
  else find t base page (w + 1)

let access t addr =
  let page = addr lsr t.cfg.page_bits in
  let base = (page land t.set_mask) * t.cfg.assoc in
  t.clock <- t.clock + 1;
  let idx = find t base page 0 in
  if idx >= 0 then begin
    t.stamps.(idx) <- t.clock;
    t.hits <- t.hits + 1;
    0
  end
  else begin
    t.misses <- t.misses + 1;
    let victim = ref base in
    for w = 1 to t.cfg.assoc - 1 do
      if t.stamps.(base + w) < t.stamps.(!victim) then victim := base + w
    done;
    t.tags.(!victim) <- page;
    t.stamps.(!victim) <- t.clock;
    t.cfg.walk_latency
  end

let hits t = t.hits
let misses t = t.misses
