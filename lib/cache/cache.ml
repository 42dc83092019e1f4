type config = { sets : int; ways : int; line_words : int }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let config ?(sets = 64) ?(ways = 4) ?(line_words = 8) () =
  if not (is_pow2 sets && is_pow2 line_words && ways > 0) then
    invalid_arg "Cache.config: sets and line_words must be powers of two";
  { sets; ways; line_words }

type stats = { mutable accesses : int; mutable misses : int }

(* The sets live in chunks of [1 lsl chunk_shift] consecutive sets, each
   chunk one [int array] of at most [max_chunk_words] words (one set
   when a set alone is larger): set [s]'s way [w] is the pair at
   [2 * (((s land chunk_set_mask) * ways) + w)], its tag then its
   last-use tick (larger = more recent). A tick of 0 marks an invalid
   way, whatever its tag: a used way's tick is at least 1, while with
   one set of one-word lines every [int] is a tag, so no tag value could
   serve. A chunk is [empty] until one of its sets is first touched.

   The memo holds the last two distinct lines with the slot of their
   tick words, [(chunk lsl slot_shift) lor offset]; a slot of -1 means
   no line. *)
type t = {
  line_mask : int; (* line_words - 1 *)
  line_shift : int; (* log2 line_words *)
  set_mask : int; (* sets - 1 *)
  set_shift : int; (* log2 sets *)
  set_words : int; (* 2 * ways *)
  chunk_shift : int; (* log2 sets per chunk *)
  chunk_set_mask : int; (* sets per chunk - 1 *)
  chunk_words : int;
  slot_shift : int;
  slot_mask : int;
  chunks : int array array;
  two_lines : bool; (* ways >= 2: the older memo line cannot be evicted *)
  mutable line0 : int; (* newest *)
  mutable slot0 : int;
  mutable line1 : int; (* the distinct line touched before [line0] *)
  mutable slot1 : int;
  mutable tick : int;
  stats : stats;
}

let max_chunk_words = 256 (* a minor-heap block *)
let empty : int array = [||]

(* ceiling log2 *)
let log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

let make cfg =
  let set_words = 2 * cfg.ways in
  let rec fit k =
    if 2 lsl k <= cfg.sets && (2 lsl k) * set_words <= max_chunk_words then fit (k + 1)
    else k
  in
  let chunk_shift = fit 0 in
  let chunk_words = set_words lsl chunk_shift in
  let slot_shift = log2 chunk_words in
  {
    line_mask = cfg.line_words - 1;
    line_shift = log2 cfg.line_words;
    set_mask = cfg.sets - 1;
    set_shift = log2 cfg.sets;
    set_words;
    chunk_shift;
    chunk_set_mask = (1 lsl chunk_shift) - 1;
    chunk_words;
    slot_shift;
    slot_mask = (1 lsl slot_shift) - 1;
    chunks = Array.make (cfg.sets lsr chunk_shift) empty;
    two_lines = cfg.ways >= 2;
    line0 = 0;
    slot0 = -1;
    line1 = 0;
    slot1 = -1;
    tick = 0;
    stats = { accesses = 0; misses = 0 };
  }

let clear_chunk ch = Array.fill ch 0 (Array.length ch) 0

let build c ci =
  let ch = Array.make c.chunk_words 0 in
  c.chunks.(ci) <- ch;
  ch

let sign_shift = Sys.int_size - 1

(* [a / (mask + 1)] for a power of two [mask + 1 = 1 lsl k], truncating
   toward zero like [/]: a negative [a] is biased by [mask] first, since
   [asr] alone rounds toward minus infinity *)
let[@inline] div_pow2 a mask k = (a + ((a asr sign_shift) land mask)) asr k

(* The set search for a line the memo does not hold: a way search as a
   plain loop, and on a miss the LRU fill. The line becomes the newest
   memo line, the old newest one the older (ways >= 2 only). *)
let search c line tick =
  let set = line land c.set_mask in
  let tag = div_pow2 line c.set_mask c.set_shift in
  let ci = set lsr c.chunk_shift in
  let chunk =
    let ch = c.chunks.(ci) in
    if ch == empty then build c ci else ch
  in
  let base = (set land c.chunk_set_mask) * c.set_words in
  let last = base + c.set_words in
  let w = ref base in
  while !w < last && (chunk.(!w) <> tag || chunk.(!w + 1) = 0) do
    w := !w + 2
  done;
  let hit = !w < last in
  if not hit then begin
    c.stats.misses <- c.stats.misses + 1;
    (* LRU victim: smallest tick (invalid ways have tick 0, chosen first) *)
    w := base;
    let v = ref (base + 2) in
    while !v < last do
      if chunk.(!v + 1) < chunk.(!w + 1) then w := !v;
      v := !v + 2
    done;
    chunk.(!w) <- tag
  end;
  chunk.(!w + 1) <- tick;
  if c.two_lines then begin
    c.line1 <- c.line0;
    c.slot1 <- c.slot0
  end;
  c.line0 <- line;
  c.slot0 <- (ci lsl c.slot_shift) lor (!w + 1);
  hit

(* A memo slot was made by [search] from a built chunk, so both indices
   are in bounds. *)
let[@inline] touch c slot tick =
  Array.unsafe_set
    (Array.unsafe_get c.chunks (slot lsr c.slot_shift))
    (slot land c.slot_mask)
    tick

let[@inline] access c addr =
  let line = div_pow2 addr c.line_mask c.line_shift in
  let tick = c.tick + 1 in
  c.tick <- tick;
  let stats = c.stats in
  stats.accesses <- stats.accesses + 1;
  if line = c.line0 && c.slot0 >= 0 then begin
    touch c c.slot0 tick;
    true
  end
  else if line = c.line1 && c.slot1 >= 0 then begin
    let slot = c.slot1 in
    touch c slot tick;
    c.line1 <- c.line0;
    c.slot1 <- c.slot0;
    c.line0 <- line;
    c.slot0 <- slot;
    true
  end
  else search c line tick

let repeat_hits c n =
  if c.slot0 < 0 || n < 0 then invalid_arg "Cache.repeat_hits";
  let tick = c.tick + n in
  c.tick <- tick;
  c.stats.accesses <- c.stats.accesses + n;
  touch c c.slot0 tick

let invalidate_all c =
  Array.iter clear_chunk c.chunks;
  c.slot0 <- -1;
  c.slot1 <- -1

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

  let[@inline] access h addr =
    if access h.l1 addr then h.lat.l1_hit
    else if access h.l2 addr then h.lat.l2_hit
    else h.lat.memory

  let repeat_hits h n =
    repeat_hits h.l1 n;
    n * h.lat.l1_hit

  let invalidate_l1 h = invalidate_all h.l1
  let l1_stats h = stats h.l1
  let l2_stats h = stats h.l2
end
