(** The program distiller.

    Produces the {e distilled program} the master executes: an
    approximate, aggressively reduced version of the original binary,
    annotated with [Fork] task-boundary markers. The transformations are
    deliberately {e unsound} — correctness never depends on them
    (verification catches every wrong prediction); they only have to be
    right often enough to be fast (paper §1–2).

    The distiller is a {e checked pass pipeline}: each transformation is
    one named, independently-switchable {!Pass.t} with a uniform
    signature over a shared distillation state. {!distill} runs a list
    of them, keeps a copy of the code before and after every pass, and
    with [~check:true] asserts the {!Check} invariants after every step.
    The listings and diffs are rendered from those copies only by
    {!dump}.

    Transformations, all profile-driven, in default order:
    + {b Branch hardening} ([harden]): a branch taken (or fallen through)
      with frequency ≥ [branch_bias_threshold] on the training input
      becomes an unconditional jump (or nothing), removing the test and
      the cold arm from the master's path. Paired with [repair], which
      restores hardened branches whose pruned cold edge lost hot code.
    + {b Non-communicating store removal} ([drop-stores]): stores whose
      values were never loaded back within [store_comm_distance] dynamic
      instructions on the training input become [Nop] in the master's
      code — their live-outs are produced by slaves anyway, and
      long-distance communication flows through architected state, not
      through the master's predictions. (If the reference input does read
      one back sooner, the slave sees a stale value and verification
      squashes — unsound-but-checked, like every other transformation
      here.)
    + {b Dead-write removal} ([dead-writes]): register writes never
      observed live (liveness on the hardened CFG) become [Nop].
    + {b Task-boundary insertion} ([boundaries]): [Fork orig_pc] markers
      are placed at every hot loop header and function entry, plus the
      program entry, so all useful work flows through slave tasks.
      Markers are cheap: the {e master} paces actual checkpoint creation
      with its task-size counter ([Mssp_config.task_size]), the moral
      equivalent of the paper's loop unrolling for task sizing.
    + {b Adaptive passes} ([split-merge], [faint-writes]): identities
      unless [options.feedback] carries a previous run's measurements.
    + {b Compaction} ([compact]): unreachable blocks and [Nop]s are
      dropped and the survivors re-laid-out contiguously at
      {!Mssp_isa.Layout.distilled_base}, with all direct control-flow
      retargeted. (Indirect targets materialized as constants are {e not}
      rewritten — the master may wander into original code, which is
      functionally harmless; see DESIGN.md.)

    The result also carries the {e entry map} (original task-entry PC →
    distilled PC of its [Fork]), which the machine uses to restart the
    master after a squash. *)

type feedback = Pass.feedback = {
  fb_squash_rate : float;  (** squashes per committed task, previous run *)
  fb_target_size : int;  (** the machine's [task_size] *)
  fb_elide : bool;  (** enable faint-write elision ({!Pass.faint_writes}) *)
}
(** Measured feedback from a previous run of the same program: the input
    of the adaptive passes ([split-merge], [faint-writes]).
    [options.feedback = None] keeps both passes identities — the
    default pipeline's output is unchanged. *)

type options = Pass.options = {
  branch_bias_threshold : float;
      (** harden branches with bias ≥ this; > 1.0 disables hardening *)
  min_branch_count : int;  (** never harden branches executed fewer times *)
  remove_dead_writes : bool;
  remove_noncomm_stores : bool;
  store_comm_distance : int;
      (** stores whose minimum observed store-to-load distance exceeds
          this are dropped from the distilled code *)
  min_store_count : int;  (** never drop stores executed fewer times *)
  compact : bool;  (** drop unreachable code and [Nop]s, re-lay-out *)
  min_boundary_count : int;
      (** candidate boundaries executed fewer times are ignored *)
  feedback : feedback option;
      (** previous-run feedback driving the adaptive passes; [None] (the
          default) makes them identities *)
}

val default_options : options
(** bias 0.98 (min 8), dead-write and non-communicating-store removal on
    (comm distance 1000, min 8), compaction on, boundary min 4. *)

val identity_options : options
(** Disable every code transformation: the distilled program is the
    original program plus [Fork] markers — the "no-distillation master"
    ablation (E11). *)

type stats = {
  original_static : int;
  distilled_static : int;
  forks_inserted : int;
  branches_hardened : int;
  dead_writes_removed : int;
  stores_removed : int;
  blocks_dropped : int;
  estimated_dynamic_original : int;
      (** dynamic instructions of the training run *)
  estimated_dynamic_distilled : int;
      (** training-run dynamic count re-priced on the distilled code:
          surviving instructions keep their counts, forks add theirs *)
}

val pp_stats : Format.formatter -> stats -> unit

val static_ratio : stats -> float
(** original/distilled static size (> 1 means smaller distilled code). *)

val dynamic_ratio : stats -> float
(** estimated original/distilled dynamic length — the paper's headline
    distillation metric. *)

(** {1 The pass registry} *)

val default_passes : unit -> Pass.t list
(** The default pipeline: harden, drop-stores, repair, dead-writes,
    boundaries, split-merge, faint-writes, compact. *)

val names : Pass.t list -> string list

val resolve : string list -> (Pass.t list, string) Result.t
(** Look up passes by name among the default passes and the
    deliberately broken mutation-testing ones ([broken-harden],
    [broken-stores], [broken-forks], never in a default pipeline);
    [Error] lists unknown names and the known ones. *)

(** {1 Distillation} *)

(** One executed pass: its stats, its checker violations, and copies of
    the working code just before and just after it. *)
type step = {
  index : int;
  pass : Pass.t;
  stat : Pass.pstat;
  violations : Check.violation list;
  before : Mssp_isa.Program.t;  (** working code at the original's base *)
  after : Mssp_isa.Program.t;
      (** working code after the pass, or the laid-out image for a
          layout pass *)
}

type t = {
  original : Mssp_isa.Program.t;
  distilled : Mssp_isa.Program.t;  (** based at [Layout.distilled_base] *)
  task_entries : int list;  (** original task-boundary PCs, sorted *)
  entry_map : (int, int) Hashtbl.t;  (** original entry PC -> distilled PC *)
  pc_map : (int, int) Hashtbl.t;
      (** every retained original block start -> its distilled address;
          the master-side redirection map. Calls in distilled code leave
          {e original} return addresses in registers (so values predict
          the original program); when the master then jumps to an
          original-code address, the machine redirects it through this
          map back into distilled code. *)
  stats : stats;
      (** flat aggregate record, derived by composing the steps' stats —
          one counter summed over every pass that claims it, so custom
          pipelines still account correctly *)
  steps : step list;
      (** execution order, including the appended layout if any *)
  violations : Check.violation list;
      (** per-pass then final; always [[]] without [~check:true] *)
}

val distill :
  ?options:options ->
  ?passes:Pass.t list ->
  ?check:bool ->
  Mssp_isa.Program.t ->
  Mssp_profile.Profile.t ->
  t
(** [distill p profile] runs the pass pipeline ([?passes] defaults to
    {!default_passes}). Any pass subset/order yields a complete runnable
    package — the driver appends an identity layout when the list
    carries no layout pass. [~check:true] (default [false]) runs the
    {!Check} pass-checker after every step and on the final package. *)

val ok : t -> bool
(** No checker violations anywhere. *)

val distilled_entry_for : t -> int -> int option
(** Distilled PC (of the [Fork]) for an original task-entry PC. *)

val is_task_entry : t -> int -> bool

(** {1 Diagnostics} *)

val pp_steps : Format.formatter -> t -> unit
(** Per-pass stats table, checker violations inlined. *)

val dump : dir:string -> t -> string list
(** Write one [NN-<pass>.diff] per executed pass (a unified-style
    disassembly diff, checker violations inlined as [! ...] lines) plus
    [pipeline.json] (each pass's rewrites, named counters and violations,
    and the package's [stats] as its summary) under [dir], created if
    missing; returns the paths written. *)
