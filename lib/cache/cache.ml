type config = { sets : int; ways : int; line_words : int }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let config ?(sets = 64) ?(ways = 4) ?(line_words = 8) () =
  if not (is_pow2 sets && is_pow2 line_words && ways > 0) then
    invalid_arg "Cache.config: sets and line_words must be powers of two";
  { sets; ways; line_words }

type stats = { mutable accesses : int; mutable misses : int }

type t = {
  cfg : config;
  line_shift : int; (* log2 line_words *)
  set_shift : int; (* log2 sets *)
  tags : int array; (* [set * ways + way]; -1 = invalid *)
  lru : int array; (* larger = more recently used *)
  mutable tick : int;
  stats : stats;
}

let log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

let make cfg =
  let n = cfg.sets * cfg.ways in
  {
    cfg;
    line_shift = log2 cfg.line_words;
    set_shift = log2 cfg.sets;
    tags = Array.make n (-1);
    lru = Array.make n 0;
    tick = 0;
    stats = { accesses = 0; misses = 0 };
  }

let sign_shift = Sys.int_size - 1

(* [a / (mask + 1)] for a power of two [mask + 1 = 1 lsl k], truncating
   toward zero like [/]: a negative [a] is biased by [mask] first, since
   [asr] alone rounds toward minus infinity *)
let[@inline] div_pow2 a mask k = (a + ((a asr sign_shift) land mask)) asr k

let access c addr =
  let cfg = c.cfg in
  let line = div_pow2 addr (cfg.line_words - 1) c.line_shift in
  let set = line land (cfg.sets - 1) in
  let tag = div_pow2 line (cfg.sets - 1) c.set_shift in
  let tags = c.tags and lru = c.lru in
  c.tick <- c.tick + 1;
  c.stats.accesses <- c.stats.accesses + 1;
  (* way search as a plain loop: no closure, no option *)
  let ways = cfg.ways in
  let base = set * ways in
  let last = base + ways in
  let w = ref base in
  while !w < last && tags.(!w) <> tag do
    incr w
  done;
  if !w < last then begin
    lru.(!w) <- c.tick;
    true
  end
  else begin
    c.stats.misses <- c.stats.misses + 1;
    (* LRU victim: smallest tick (invalid ways have tick 0, chosen first) *)
    let victim = ref base in
    for w = base + 1 to last - 1 do
      if lru.(w) < lru.(!victim) then victim := w
    done;
    tags.(!victim) <- tag;
    lru.(!victim) <- c.tick;
    false
  end

let invalidate_all c =
  Array.fill c.tags 0 (Array.length c.tags) (-1);
  Array.fill c.lru 0 (Array.length c.lru) 0

let stats c = c.stats
let miss_rate c =
  if c.stats.accesses = 0 then 0.0
  else float_of_int c.stats.misses /. float_of_int c.stats.accesses

let reset_stats c =
  c.stats.accesses <- 0;
  c.stats.misses <- 0

module Hierarchy = struct
  type latencies = { l1_hit : int; l2_hit : int; memory : int }

  let latencies ?(l1_hit = 1) ?(l2_hit = 12) ?(memory = 100) () =
    { l1_hit; l2_hit; memory }

  type cache = t

  type nonrec t = { l1 : cache; l2 : cache; lat : latencies }

  let make_cache = make

  let make ?(l1 = config ()) ?(l2 = config ~sets:1024 ~ways:8 ()) ?(lat = latencies ()) () =
    { l1 = make_cache l1; l2 = make_cache l2; lat }

  let make_shared ?(l1 = config ()) ~lat ~l2 () =
    { l1 = make_cache l1; l2 = l2.l2; lat }

  let access h addr =
    if access h.l1 addr then h.lat.l1_hit
    else if access h.l2 addr then h.lat.l2_hit
    else h.lat.memory

  let invalidate_l1 h = invalidate_all h.l1
  let l1_stats h = stats h.l1
  let l2_stats h = stats h.l2
end
