type config = { sets : int; ways : int; line_words : int }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let config ?(sets = 64) ?(ways = 4) ?(line_words = 8) () =
  if not (is_pow2 sets && is_pow2 line_words && ways > 0) then
    invalid_arg "Cache.config: sets and line_words must be powers of two";
  { sets; ways; line_words }

type stats = { mutable accesses : int; mutable misses : int }

type t = {
  cfg : config;
  tags : int array array; (* [set].[way]; -1 = invalid *)
  lru : int array array; (* larger = more recently used *)
  mutable tick : int;
  stats : stats;
}

let make cfg =
  {
    cfg;
    tags = Array.init cfg.sets (fun _ -> Array.make cfg.ways (-1));
    lru = Array.init cfg.sets (fun _ -> Array.make cfg.ways 0);
    tick = 0;
    stats = { accesses = 0; misses = 0 };
  }

let access c addr =
  let line = addr / c.cfg.line_words in
  let set = line land (c.cfg.sets - 1) in
  let tag = line / c.cfg.sets in
  let tags = c.tags.(set) and lru = c.lru.(set) in
  c.tick <- c.tick + 1;
  c.stats.accesses <- c.stats.accesses + 1;
  (* way search as a plain loop: no closure, no option *)
  let ways = c.cfg.ways in
  let w = ref 0 in
  while !w < ways && tags.(!w) <> tag do
    incr w
  done;
  if !w < ways then begin
    lru.(!w) <- c.tick;
    true
  end
  else begin
    c.stats.misses <- c.stats.misses + 1;
    (* LRU victim: smallest tick (invalid ways have tick 0, chosen first) *)
    let victim = ref 0 in
    for w = 1 to c.cfg.ways - 1 do
      if lru.(w) < lru.(!victim) then victim := w
    done;
    tags.(!victim) <- tag;
    lru.(!victim) <- c.tick;
    false
  end

let invalidate_all c =
  Array.iter (fun tags -> Array.fill tags 0 (Array.length tags) (-1)) c.tags;
  Array.iter (fun lru -> Array.fill lru 0 (Array.length lru) 0) c.lru

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
  let l1_miss_rate h = miss_rate h.l1
  let l1_stats h = stats h.l1
  let l2_stats h = stats h.l2
end
