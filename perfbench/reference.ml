(** The committed simulated record the benchmark checks its cycles
    against: BENCH_mssp.json's E1 rows (every registry kernel at ref size,
    default config) and its ADPTG rows (8 slaves, tournament predictor at
    the default [predict_seed], one adapted round). A point whose cycles
    differ is counted in [core.cycle_drift_points]. *)

(** (kernel, slaves, MSSP cycles) *)
let e1 =
  [
    ("vecsum", 1, 300131); ("vecsum", 2, 175628); ("vecsum", 4, 153280);
    ("vecsum", 8, 153280); ("listwalk", 1, 282958); ("listwalk", 2, 220622);
    ("listwalk", 4, 217659); ("listwalk", 8, 217659); ("branchy", 1, 172774);
    ("branchy", 2, 113643); ("branchy", 4, 113533); ("branchy", 8, 113533);
    ("qsort", 1, 395401); ("qsort", 2, 324181); ("qsort", 4, 324151);
    ("qsort", 8, 324151); ("hashbuild", 1, 303309); ("hashbuild", 2, 267366);
    ("hashbuild", 4, 267366); ("hashbuild", 8, 267366); ("matmul", 1, 226581);
    ("matmul", 2, 187661); ("matmul", 4, 187661); ("matmul", 8, 187661);
    ("strmatch", 1, 274432); ("strmatch", 2, 241073); ("strmatch", 4, 241073);
    ("strmatch", 8, 241073); ("treesum", 1, 580655); ("treesum", 2, 463436);
    ("treesum", 4, 463348); ("treesum", 8, 463348); ("rle", 1, 169820);
    ("rle", 2, 166337); ("rle", 4, 166337); ("rle", 8, 166337);
    ("dijkstra", 1, 355388); ("dijkstra", 2, 319598); ("dijkstra", 4, 319471);
    ("dijkstra", 8, 319471); ("fir", 1, 1033325); ("fir", 2, 857902);
    ("fir", 4, 857860); ("fir", 8, 857860); ("nqueens", 1, 1336098);
    ("nqueens", 2, 1038131); ("nqueens", 4, 1035661); ("nqueens", 8, 1034038);
    ("mandel", 1, 5794866); ("mandel", 2, 5339980); ("mandel", 4, 5338343);
    ("mandel", 8, 5338343);
  ]

(** (kernel, round-0 cycles, best-round cycles) *)
let adapt =
  [
    ("fir", 857860, 285848);
    ("rle", 166337, 166043);
    ("treesum", 463348, 447809);
    ("dijkstra", 319471, 317249);
  ]
