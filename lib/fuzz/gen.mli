(** Seeded, weighted random program generator for differential fuzzing.

    This stitches terminating shapes together with a deterministic PRNG
    (same seed, same program). The six plain shapes are straight-line ALU
    blocks, scratch-region loads/stores, branches over seeded data,
    counted loops, leaf calls and [Out] ({!plain} draws only these); the
    rest of the repertoire is chosen to stress the corners of the
    simulator rather than to look like a benchmark:

    - {e far memory}: loads/stores at the edge of and beyond the paged
      span of {!Mssp_state.Full} (the last paged word, the first overflow
      word, negative addresses, addresses past 2{^40}) so the overflow
      table and the span-edge bounds check see traffic;
    - {e page straddles}: store/load runs crossing a page boundary, so
      checkpoint copies alias pages on both sides and the COW privatize
      path, written-word masks and diff/equal scans are exercised at the
      edge;
    - {e shared accumulators}: read-modify-write of one fixed cell and
      reuse of the same counter registers across shapes, manufacturing
      register and memory live-in collisions between tasks;
    - {e self-halting}: data-dependent [Halt] in the middle of the
      program, so some tasks complete with [Program_halted] mid-stream;
    - {e runaway loops}: trip counts large enough to blow the per-task
      budget ([Budget_exhausted] squashes) while still terminating under
      the sequential fuel;
    - {e self-modifying code}: loops that patch an instruction word in
      their own body and re-execute it, so the image decoder's word
      check must reject the patched word, and slaves must fetch their
      own buffered code stores.

    Every shape is bounded, so generated programs halt unless a
    data-dependent early [Halt] race makes them halt {e sooner} — the
    oracle skips the (rare) program whose reference run does not halt
    cleanly within its fuel. *)

type weights = {
  alu : int;  (** straight-line ALU blocks *)
  mem : int;  (** scratch-region loads/stores *)
  data_branch : int;  (** branches over seeded data *)
  loop : int;  (** counted loops with mixed bodies *)
  call : int;  (** leaf calls *)
  out : int;  (** architected output *)
  far_mem : int;  (** paged-span edge and overflow-table addresses *)
  straddle : int;  (** page-boundary-crossing store/load runs *)
  shared_acc : int;  (** read-modify-write of one shared cell *)
  early_halt : int;  (** data-dependent mid-program [Halt] *)
  runaway : int;  (** budget-blowing (but terminating) loops *)
  smc : int;  (** loops that patch their own body, then re-enter it *)
}

val default_weights : weights

val smc_heavy : weights
(** The self-modifying-code stress profile: [smc] boosted to dominate
    (with [alu]/[loop] rebalanced), so most programs patch their own
    bodies: pre-decoded images see patched words on every trip. Shared
    by the sblock/sjournal property tests and the CI SMC fuzz smoke and
    nightly leg. *)

val plain : weights
(** The six plain shapes only (ALU, memory, data branch, loop, call, out
    in the ratio 3:2:2:1:1:1); loop bodies still mix in shared-cell and
    page-straddle accesses. No far addresses, early halts, runaway loops
    or self-modifying code: the small, well-behaved programs the
    property tests, [mssp_sim formal] and the formal experiments draw. *)

val generate :
  ?weights:weights -> seed:int -> size:int -> unit -> Mssp_isa.Program.t
(** [generate ~seed ~size ()] is a deterministic function of its arguments;
    [size] counts top-level shapes. *)

val plan : seed:int -> Mssp_faults.Plan.t
(** Fault-plan arbitrary for program x plan fuzzing: a deterministic
    function of [seed] producing an {e always-absorbable} plan — 1 to 4
    actions over {!Mssp_faults.Plan.absorbable_surfaces} with varied
    probabilities and occasional cycle windows/magnitudes. The
    oracle's invariant for any such plan: final architected state
    identical to SEQ; only stats and cycles move. *)
