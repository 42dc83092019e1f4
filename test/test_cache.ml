(* Tests for the set-associative cache model and the two-level
   hierarchy. *)

open Mssp_cache

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_config_validation () =
  Alcotest.check_raises "bad sets"
    (Invalid_argument "Cache.config: sets and line_words must be powers of two")
    (fun () -> ignore (Cache.config ~sets:3 () : Cache.config))

let test_cold_miss_then_hit () =
  let c = Cache.make (Cache.config ~sets:4 ~ways:2 ~line_words:4 ()) in
  check "cold miss" false (Cache.access c 100);
  check "hit" true (Cache.access c 100);
  check "same line" true (Cache.access c 101);
  check "different line" false (Cache.access c 104)

let test_lru_eviction () =
  (* 1 set, 2 ways: three distinct lines mapping to the same set *)
  let c = Cache.make (Cache.config ~sets:1 ~ways:2 ~line_words:1 ()) in
  check "miss a" false (Cache.access c 0);
  check "miss b" false (Cache.access c 1);
  check "hit a" true (Cache.access c 0);
  (* b is now LRU; c evicts it *)
  check "miss c" false (Cache.access c 2);
  check "a survives" true (Cache.access c 0);
  check "b evicted" false (Cache.access c 1)

let test_associativity_conflicts () =
  (* direct-mapped: two lines in the same set thrash *)
  let c = Cache.make (Cache.config ~sets:2 ~ways:1 ~line_words:1 ()) in
  check "miss 0" false (Cache.access c 0);
  check "miss 2 (same set)" false (Cache.access c 2);
  check "0 evicted" false (Cache.access c 0);
  (* 2-way stops the thrash *)
  let c = Cache.make (Cache.config ~sets:2 ~ways:2 ~line_words:1 ()) in
  check "miss 0" false (Cache.access c 0);
  check "miss 2" false (Cache.access c 2);
  check "both resident" true (Cache.access c 0 && Cache.access c 2)

let test_stats_and_invalidate () =
  let c = Cache.make (Cache.config ()) in
  ignore (Cache.access c 0 : bool);
  ignore (Cache.access c 0 : bool);
  check_int "accesses" 2 (Cache.stats c).Cache.accesses;
  check_int "misses" 1 (Cache.stats c).Cache.misses;
  check "miss rate" true (abs_float (Cache.miss_rate c -. 0.5) < 1e-9);
  Cache.invalidate_all c;
  check "invalidated" false (Cache.access c 0);
  Cache.reset_stats c;
  check_int "reset" 0 (Cache.stats c).Cache.accesses

let test_hierarchy_latencies () =
  let lat = Cache.Hierarchy.latencies ~l1_hit:1 ~l2_hit:10 ~memory:100 () in
  let h = Cache.Hierarchy.make ~lat () in
  check_int "cold: memory" 100 (Cache.Hierarchy.access h 0);
  check_int "warm: l1" 1 (Cache.Hierarchy.access h 0);
  Cache.Hierarchy.invalidate_l1 h;
  check_int "after l1 invalidate: l2" 10 (Cache.Hierarchy.access h 0);
  check_int "repeats: l1 hits" 7 (Cache.Hierarchy.repeat_hits h 7);
  check_int "l1 accesses" 10 (Cache.Hierarchy.l1_stats h).Cache.accesses;
  check_int "l2 accesses" 2 (Cache.Hierarchy.l2_stats h).Cache.accesses;
  Alcotest.check_raises "no access since invalidate"
    (Invalid_argument "Cache.repeat_hits") (fun () ->
      Cache.Hierarchy.invalidate_l1 h;
      ignore (Cache.Hierarchy.repeat_hits h 1 : int))

let test_shared_l2 () =
  let lat = Cache.Hierarchy.latencies ~l1_hit:1 ~l2_hit:10 ~memory:100 () in
  let owner = Cache.Hierarchy.make ~lat () in
  let sharer = Cache.Hierarchy.make_shared ~lat ~l2:owner () in
  ignore (Cache.Hierarchy.access owner 0 : int);
  (* the sharer's L1 is cold but the shared L2 already has the line *)
  check_int "sharer sees l2" 10 (Cache.Hierarchy.access sharer 0)

(* property: hit rate of a repeated scan over a working set that fits is
   eventually 100% *)
let prop_fitting_working_set =
  QCheck.Test.make ~name:"fitting working set has no steady-state misses"
    ~count:50
    QCheck.(int_range 1 256)
    (fun size ->
      let c = Cache.make (Cache.config ~sets:64 ~ways:4 ~line_words:1 ()) in
      (* first pass warms, second pass must hit entirely *)
      for a = 0 to size - 1 do
        ignore (Cache.access c a : bool)
      done;
      let ok = ref true in
      for a = 0 to size - 1 do
        if not (Cache.access c a) then ok := false
      done;
      !ok)

(* The division-based model as it stood before [Cache.access] computed
   its quotients by shift: per-set arrays, [/] for the line and the tag,
   and a valid flag per way, since every [int] can be a tag (one set of
   one-word lines). The shipped model must agree with it access by
   access. *)
module Div_model = struct
  type t = {
    cfg : Cache.config;
    valid : bool array array;
    tags : int array array;
    lru : int array array;
    mutable tick : int;
    stats : Cache.stats;
  }

  let make (cfg : Cache.config) =
    {
      cfg;
      valid = Array.init cfg.sets (fun _ -> Array.make cfg.ways false);
      tags = Array.init cfg.sets (fun _ -> Array.make cfg.ways 0);
      lru = Array.init cfg.sets (fun _ -> Array.make cfg.ways 0);
      tick = 0;
      stats = { Cache.accesses = 0; misses = 0 };
    }

  let access c addr =
    let line = addr / c.cfg.line_words in
    let set = line land (c.cfg.sets - 1) in
    let tag = line / c.cfg.sets in
    let valid = c.valid.(set) and tags = c.tags.(set) and lru = c.lru.(set) in
    c.tick <- c.tick + 1;
    c.stats.accesses <- c.stats.accesses + 1;
    let ways = c.cfg.ways in
    let w = ref 0 in
    while !w < ways && not (valid.(!w) && tags.(!w) = tag) do
      incr w
    done;
    if !w < ways then begin
      lru.(!w) <- c.tick;
      true
    end
    else begin
      c.stats.misses <- c.stats.misses + 1;
      let victim = ref 0 in
      for w = 1 to c.cfg.ways - 1 do
        if lru.(w) < lru.(!victim) then victim := w
      done;
      valid.(!victim) <- true;
      tags.(!victim) <- tag;
      lru.(!victim) <- c.tick;
      false
    end

  let invalidate_all c =
    Array.iter (fun valid -> Array.fill valid 0 (Array.length valid) false) c.valid;
    Array.iter (fun lru -> Array.fill lru 0 (Array.length lru) 0) c.lru
end

type op = Access of int | Invalidate

let show_op = function
  | Access a -> string_of_int a
  | Invalidate -> "invalidate"

(* addresses around a base drawn from small, negative, extreme and
   large-stride values, so that the sign correction and the top bits of
   the tag are exercised as well as reuse and set conflicts *)
let gen_addr =
  let open QCheck.Gen in
  let base =
    frequency
      [
        (4, int_range (-64) 64);
        (2, int_range (-100_000) 100_000);
        (1, oneofl [ min_int; max_int; min_int + 1; max_int - 1; -1; 0 ]);
        (2, map2 (fun k s -> k * s) (int_range (-8) 8) (oneofl [ 1 lsl 20; 1 lsl 40; 1 lsl 61 ]));
        (1, int);
      ]
  in
  map2 (fun b d -> b + d) base (int_range (-3) 3)

let gen_ops =
  let open QCheck.Gen in
  list_size (int_range 1 300)
    (frequency [ (30, map (fun a -> Access a) gen_addr); (1, return Invalidate) ])

let gen_config =
  let open QCheck.Gen in
  map3
    (fun sets ways line_words -> Cache.config ~sets ~ways ~line_words ())
    (oneofl [ 1; 2; 4; 64; 1024 ])
    (oneofl [ 1; 2; 3; 4; 8 ])
    (oneofl [ 1; 2; 4; 8; 16 ])

let extremes = [ min_int; min_int + 1; max_int; -1; 0 ]

(* runs of one line, alternation between two or three lines of one set
   or of different sets, and invalidations between them: the accesses
   the hit memo serves. Line [l] is reached through an address that
   truncates to it (negative lines count down from [l * line_words]). *)
let gen_reuse_ops (cfg : Cache.config) =
  let open QCheck.Gen in
  let addr l off =
    let a = l * cfg.line_words in
    if l < 0 then a - off else a + off
  in
  let access l = map (fun off -> Access (addr l off)) (int_bound (cfg.line_words - 1)) in
  let tag = frequency [ (8, int_range (-4) 4); (1, oneofl [ min_int / cfg.sets; max_int / cfg.sets ]) ] in
  let set = int_bound (cfg.sets - 1) in
  (* extreme lines too: a fresh or invalidated memo must not hold them *)
  let line =
    frequency
      [
        (6, map2 (fun t s -> (t * cfg.sets) + s) tag set);
        (1, oneofl extremes);
      ]
  in
  let alternate lines =
    int_range 2 24 >>= fun n ->
    bool >>= fun cyclic ->
    let k = List.length lines in
    flatten_l
      (List.init n (fun i ->
           (if cyclic then return (i mod k) else int_bound (k - 1)) >>= fun j ->
           access (List.nth lines j)))
  in
  let segment =
    frequency
      [
        (3, map2 (fun l n -> (l, n)) line (int_range 1 10) >>= fun (l, n) ->
            flatten_l (List.init n (fun _ -> access l)));
        (* two or three lines of one set, distinct tags *)
        ( 3,
          int_range 2 3 >>= fun k ->
          set >>= fun s ->
          int_range (-4) (4 - k) >>= fun t0 ->
          alternate (List.init k (fun i -> ((t0 + i) * cfg.sets) + s)) );
        (* two or three lines of any sets *)
        (3, int_range 2 3 >>= fun k -> list_repeat k line >>= alternate);
        (1, return [ Invalidate ]);
        (1, map (fun a -> [ Invalidate; Access a ]) (oneofl extremes));
        (1, map (fun a -> [ Access a ]) gen_addr);
      ]
  in
  map List.concat (list_size (int_range 1 30) segment)

let print_case ((cfg : Cache.config), ops) =
  Printf.sprintf "sets=%d ways=%d line_words=%d [%s]" cfg.sets cfg.ways
    cfg.line_words
    (String.concat "; " (List.map show_op ops))

let matches_division_model (cfg, ops) =
  let c = Cache.make cfg and d = Div_model.make cfg in
  List.for_all
    (function
      | Access a -> Cache.access c a = Div_model.access d a
      | Invalidate ->
          Cache.invalidate_all c;
          Div_model.invalidate_all d;
          true)
    ops
  && Cache.stats c = d.stats

(* random and reuse-heavy streams over the configuration grid *)
let gen_case gen_config =
  let open QCheck.Gen in
  gen_config >>= fun cfg ->
  map (fun ops -> (cfg, ops)) (oneof [ gen_ops; gen_reuse_ops cfg ])

let prop_matches_division_model =
  QCheck.Test.make ~name:"shift model matches the division model" ~count:1000
    (QCheck.make ~print:print_case (gen_case gen_config))
    matches_division_model

(* ways = 1: the memo keeps one line, since a fill may evict the other *)
let prop_direct_mapped_matches_division_model =
  QCheck.Test.make ~name:"direct-mapped model matches the division model"
    ~count:300
    (QCheck.make ~print:print_case
       (gen_case
          QCheck.Gen.(
            map2
              (fun sets line_words -> Cache.config ~sets ~ways:1 ~line_words ())
              (oneofl [ 1; 2; 4; 64; 1024 ])
              (oneofl [ 1; 2; 8 ]))))
    matches_division_model

(* A fresh or invalidated memo holds no line, whatever the line: with
   one-word lines every int is one, so no sentinel line can mark the
   memo empty. *)
let test_empty_memo () =
  List.iter
    (fun (sets, ways) ->
      let cfg = Cache.config ~sets ~ways ~line_words:1 () in
      List.iter
        (fun a ->
          let ops = [ Access a; Access a; Access (a + 1); Invalidate; Access a; Access a ] in
          check
            (Printf.sprintf "sets=%d ways=%d address %d" sets ways a)
            true
            (matches_division_model (cfg, ops)))
        extremes)
    [ (1, 1); (2, 1); (1, 2); (2, 2); (64, 4); (1024, 8) ]

(* A way no line has filled holds no tag, whatever the tag asked for:
   on the default L1, -512 and -520 are lines -64 and -65, both of
   tag -1. *)
let test_fresh_negative_tags () =
  let c = Cache.make (Cache.config ()) in
  check "-512 misses" false (Cache.access c (-512));
  check "-520 misses" false (Cache.access c (-520));
  check_int "misses" 2 (Cache.stats c).Cache.misses;
  Cache.invalidate_all c;
  check "-512 misses after invalidate" false (Cache.access c (-512))

(* [repeat_hits c n] after an access is [n] plain accesses to its
   address: a prefix stream sets up the memo and the sets, then one
   cache takes the repeats in closed form and the other one by one, and
   both run the same stream after them. *)
let prop_repeat_hits =
  let gen =
    let open QCheck.Gen in
    map3
      (fun ways line_words sets -> Cache.config ~sets ~ways ~line_words ())
      (oneofl [ 1; 2; 4; 8 ])
      (oneofl [ 1; 2; 8 ])
      (oneofl [ 1; 2; 64 ])
    >>= fun cfg ->
    let ops = oneof [ gen_ops; gen_reuse_ops cfg ] in
    map3
      (fun (before, a) n after -> (cfg, before, a, n, after))
      (pair ops gen_addr) (int_bound 50) ops
  in
  let print ((cfg : Cache.config), before, a, n, after) =
    Printf.sprintf "%s, access %d, %d repeats, then %s"
      (print_case (cfg, before))
      a n
      (String.concat "; " (List.map show_op after))
  in
  QCheck.Test.make ~name:"repeat hits equal plain accesses" ~count:500
    (QCheck.make ~print gen)
    (fun (cfg, before, a, n, after) ->
      let run c repeat =
        let outcome = function
          | Access a -> Cache.access c a
          | Invalidate ->
              Cache.invalidate_all c;
              true
        in
        let pre = List.map outcome before in
        let first = Cache.access c a in
        repeat c;
        let post = List.map outcome after in
        (pre, first, post, Cache.stats c)
      in
      let closed = run (Cache.make cfg) (fun c -> Cache.repeat_hits c n) in
      let plain =
        run (Cache.make cfg) (fun c ->
            for _ = 1 to n do
              assert (Cache.access c a)
            done)
      in
      closed = plain)

(* Two hierarchies on one L2, accessed interleaved, against two division
   L1s over one division L2: the shared L2's memo sees both cores'
   accesses. *)
type core_op = Core of int * int | Squash of int

let prop_shared_l2_matches_division_model =
  let lat = Cache.Hierarchy.latencies ~l1_hit:1 ~l2_hit:10 ~memory:100 () in
  let gen =
    let open QCheck.Gen in
    gen_config >>= fun l1 ->
    gen_config >>= fun l2 ->
    (* lines drawn at the coarser line size reuse in both levels *)
    let cfg = if l1.line_words >= l2.line_words then l1 else l2 in
    oneof [ gen_ops; gen_reuse_ops cfg ] >>= fun ops ->
    flatten_l
      (List.map
         (fun op ->
           map
             (fun core -> match op with Access a -> Core (core, a) | Invalidate -> Squash core)
             (int_bound 1))
         ops)
    >>= fun ops -> return (l1, l2, ops)
  in
  let print ((l1 : Cache.config), (l2 : Cache.config), ops) =
    Printf.sprintf "l1 sets=%d ways=%d line_words=%d, l2 sets=%d ways=%d line_words=%d [%s]"
      l1.sets l1.ways l1.line_words l2.sets l2.ways l2.line_words
      (String.concat "; "
         (List.map
            (function
              | Core (k, a) -> Printf.sprintf "%d:%d" k a
              | Squash k -> Printf.sprintf "%d:invalidate" k)
            ops))
  in
  QCheck.Test.make ~name:"shared L2 matches the division model" ~count:300
    (QCheck.make ~print gen)
    (fun (l1, l2, ops) ->
      let owner = Cache.Hierarchy.make ~l1 ~l2 ~lat () in
      let hs = [| owner; Cache.Hierarchy.make_shared ~l1 ~lat ~l2:owner () |] in
      let d2 = Div_model.make l2 in
      let d1 = [| Div_model.make l1; Div_model.make l1 |] in
      let div_access k a =
        if Div_model.access d1.(k) a then lat.l1_hit
        else if Div_model.access d2 a then lat.l2_hit
        else lat.memory
      in
      List.for_all
        (function
          | Core (k, a) -> Cache.Hierarchy.access hs.(k) a = div_access k a
          | Squash k ->
              Cache.Hierarchy.invalidate_l1 hs.(k);
              Div_model.invalidate_all d1.(k);
              true)
        ops
      && Cache.Hierarchy.l1_stats hs.(0) = d1.(0).stats
      && Cache.Hierarchy.l1_stats hs.(1) = d1.(1).stats
      && Cache.Hierarchy.l2_stats hs.(0) = d2.stats
      && Cache.Hierarchy.l2_stats hs.(1) = d2.stats)

(* words allocated, minor plus major, after a full major, less what
   the measurement itself allocates *)
let words =
  let measure f =
    let total () =
      Gc.full_major ();
      let minor, promoted, major = Gc.counters () in
      minor +. major -. promoted
    in
    let w0 = total () in
    f ();
    total () -. w0
  in
  let overhead = measure ignore in
  fun f -> measure f -. overhead

let bounded name bound f =
  let w = words f in
  check (Printf.sprintf "%s: %.0f words (bound %d)" name w bound) true
    (w <= float_of_int bound)

(* Storage follows the footprint: a hierarchy costs its chunk tables,
   not its sets (two 8,192-slot arrays for the default L2 before), and
   a line first touched builds at most its own chunk of at most 256
   words. *)
let test_allocation () =
  bounded "Hierarchy.make" 1_000 (fun () ->
      ignore (Sys.opaque_identity (Cache.Hierarchy.make ())));
  let l2 = Cache.config ~sets:1024 ~ways:8 () in
  let chunk = 257 (* at most 256 words and a header *) in
  List.iter
    (fun (name, stride) ->
      List.iter
        (fun k ->
          let c = Cache.make l2 in
          bounded
            (Printf.sprintf "%d lines %s" k name)
            (k * chunk)
            (fun () ->
              for i = 0 to k - 1 do
                ignore (Cache.access c (i * stride) : bool)
              done))
        [ 1; 2; 16; 64 ])
    [ ("in consecutive sets", 8); ("a chunk apart", 16 * 8); ("a set apart", 1024 * 8) ];
  let c = Cache.make l2 in
  for i = 0 to 255 do
    ignore (Cache.access c (i * 8) : bool)
  done;
  bounded "invalidate_all" 0 (fun () -> Cache.invalidate_all c);
  check "invalidated" false (Cache.access c 0)

let () =
  Alcotest.run "cache"
    [
      ( "cache",
        [
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "cold miss then hit" `Quick test_cold_miss_then_hit;
          Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
          Alcotest.test_case "associativity" `Quick test_associativity_conflicts;
          Alcotest.test_case "stats/invalidate" `Quick test_stats_and_invalidate;
          Mssp_testkit.to_alcotest prop_fitting_working_set;
          Mssp_testkit.to_alcotest prop_matches_division_model;
          Mssp_testkit.to_alcotest prop_direct_mapped_matches_division_model;
          Alcotest.test_case "empty memo" `Quick test_empty_memo;
          Alcotest.test_case "fresh ways hold no tag" `Quick test_fresh_negative_tags;
          Mssp_testkit.to_alcotest prop_repeat_hits;
          Alcotest.test_case "allocation" `Quick test_allocation;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "latencies" `Quick test_hierarchy_latencies;
          Alcotest.test_case "shared L2" `Quick test_shared_l2;
          Mssp_testkit.to_alcotest prop_shared_l2_matches_division_model;
        ] );
    ]
