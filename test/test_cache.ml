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
  check_int "after l1 invalidate: l2" 10 (Cache.Hierarchy.access h 0)

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
   its quotients by shift: per-set arrays, [/] for the line and the tag.
   The shipped model must agree with it access by access. *)
module Div_model = struct
  type t = {
    cfg : Cache.config;
    tags : int array array;
    lru : int array array;
    mutable tick : int;
    stats : Cache.stats;
  }

  let make (cfg : Cache.config) =
    {
      cfg;
      tags = Array.init cfg.sets (fun _ -> Array.make cfg.ways (-1));
      lru = Array.init cfg.sets (fun _ -> Array.make cfg.ways 0);
      tick = 0;
      stats = { Cache.accesses = 0; misses = 0 };
    }

  let access c addr =
    let line = addr / c.cfg.line_words in
    let set = line land (c.cfg.sets - 1) in
    let tag = line / c.cfg.sets in
    let tags = c.tags.(set) and lru = c.lru.(set) in
    c.tick <- c.tick + 1;
    c.stats.accesses <- c.stats.accesses + 1;
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

let prop_matches_division_model =
  QCheck.Test.make ~name:"shift model matches the division model" ~count:300
    (QCheck.make
       ~print:(fun ((cfg : Cache.config), ops) ->
         Printf.sprintf "sets=%d ways=%d line_words=%d [%s]" cfg.sets cfg.ways
           cfg.line_words
           (String.concat "; " (List.map show_op ops)))
       QCheck.Gen.(pair gen_config gen_ops))
    (fun (cfg, ops) ->
      let c = Cache.make cfg and d = Div_model.make cfg in
      List.for_all
        (function
          | Access a -> Cache.access c a = Div_model.access d a
          | Invalidate ->
              Cache.invalidate_all c;
              Div_model.invalidate_all d;
              true)
        ops
      && Cache.stats c = d.stats)

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
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "latencies" `Quick test_hierarchy_latencies;
          Alcotest.test_case "shared L2" `Quick test_shared_l2;
        ] );
    ]
