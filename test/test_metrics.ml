(* Tests for statistics helpers and table rendering. *)

module Stats = Mssp_metrics.Stats
module Table = Mssp_metrics.Table

let check = Alcotest.(check bool)
let close a b = abs_float (a -. b) < 1e-9

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_mean () =
  check "empty" true (close (Stats.mean []) 0.0);
  check "mean" true (close (Stats.mean [ 1.0; 2.0; 3.0 ]) 2.0)

let test_geomean () =
  check "empty" true (close (Stats.geomean []) 0.0);
  check "geomean" true (close (Stats.geomean [ 1.0; 4.0 ]) 2.0);
  check "identity" true (close (Stats.geomean [ 3.0; 3.0; 3.0 ]) 3.0);
  (* geomean <= mean (AM-GM) *)
  let xs = [ 0.5; 1.4; 2.0; 3.7 ] in
  check "am-gm" true (Stats.geomean xs <= Stats.mean xs)

let test_stddev () =
  check "constant" true (close (Stats.stddev [ 5.0; 5.0; 5.0 ]) 0.0);
  check "spread" true (Stats.stddev [ 0.0; 10.0 ] > 0.0)

let test_median_percentile () =
  check "median odd" true (close (Stats.median [ 3.0; 1.0; 2.0 ]) 2.0);
  check "median even" true (close (Stats.median [ 1.0; 2.0; 3.0; 4.0 ]) 2.5);
  check "p0" true (close (Stats.percentile 0.0 [ 1.0; 9.0 ]) 1.0);
  check "p100" true (close (Stats.percentile 100.0 [ 1.0; 9.0 ]) 9.0);
  check "p50 interp" true (close (Stats.percentile 50.0 [ 0.0; 10.0 ]) 5.0)

let test_histogram () =
  let h = Stats.histogram ~bins:2 [ 0.0; 1.0; 2.0; 3.0 ] in
  check "two bins" true (List.length h = 2);
  let total = List.fold_left (fun a (_, _, c) -> a + c) 0 h in
  check "all counted" true (total = 4);
  check "empty data" true (Stats.histogram ~bins:3 [] = [])

let test_of_ints () =
  check "conversion" true (Stats.of_ints [ 1; 2 ] = [ 1.0; 2.0 ])

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone in p" ~count:200
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 1 20) (float_bound_inclusive 100.0)) (pair (float_bound_inclusive 100.0) (float_bound_inclusive 100.0)))
    (fun (xs, (p1, p2)) ->
      let lo = min p1 p2 and hi = max p1 p2 in
      Stats.percentile lo xs <= Stats.percentile hi xs +. 1e-9)

let test_table_render () =
  let s =
    Table.render ~header:[ "name"; "value" ]
      [ [ "alpha"; "1" ]; [ "b"; "22" ] ]
  in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' s)
  in
  check "header + rule + 2 rows" true (List.length lines = 4);
  let lens = List.map String.length lines in
  check "aligned" true (List.for_all (fun l -> l = List.hd lens) lens);
  (* short rows are padded, not crashed *)
  let s = Table.render ~header:[ "a"; "b"; "c" ] [ [ "x" ] ] in
  check "padded" true (String.length s > 0)

let test_series_render () =
  let s =
    Table.render_series ~x_label:"slaves" ~y_label:"speedup"
      [ ("1", 1.0); ("2", 2.0) ]
  in
  check "contains bar" true (String.contains s '#');
  check "contains x label" true (contains_substring s "slaves");
  check "contains y label" true (contains_substring s "speedup");
  check "values rendered" true (contains_substring s "2.00")

let test_fmt_float () =
  check "two decimals" true (Table.fmt_float 1.23456 = "1.23")

let () =
  Alcotest.run "metrics"
    [
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "median/percentile" `Quick test_median_percentile;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "of_ints" `Quick test_of_ints;
          Mssp_testkit.to_alcotest prop_percentile_monotone;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "series" `Quick test_series_render;
          Alcotest.test_case "fmt_float" `Quick test_fmt_float;
        ] );
    ]
