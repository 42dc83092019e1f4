(** Distiller passes: small, named, independently-switchable
    transformations over a shared distillation state.

    Each pass has the uniform signature [state -> state * pstat]. Rewrite
    passes mutate the working code copy in place (same length and layout
    as the original program); analysis passes only read it; the layout
    pass consumes it and produces the distilled program image. The
    default pipeline is {!Distill.default_passes}. *)

(** Measured feedback from a previous MSSP run of the same program — the
    input of the adaptive passes ({!split_merge}, {!faint_writes}).
    Produced by the re-distillation loop ([Mssp_core.Mssp_adapt]) from
    the machine's squash attribution. *)
type feedback = {
  fb_squash_rate : float;  (** squashes per committed task, previous run *)
  fb_target_size : int;
      (** the machine's [task_size]: markers observed more often than
          this buy nothing and are merge candidates *)
  fb_elide : bool;
      (** enable {!faint_writes} — only worth it when the squash rate
          is already low (each stale residual read costs a squash) *)
}

val split_threshold : float
(** Squash-rate boundary between the split and merge reactions of
    {!split_merge} (0.05 squashes per commit). *)

(** Tuning knobs shared by every pass. Defaults follow the paper's
    framing: aggressive on clearly-biased branches, conservative
    elsewhere. *)
type options = {
  branch_bias_threshold : float;
      (** harden a branch when one direction's frequency is >= this *)
  min_branch_count : int;  (** ... and it executed at least this often *)
  remove_dead_writes : bool;  (** enable dead register-write removal *)
  remove_noncomm_stores : bool;  (** enable non-communicating-store removal *)
  store_comm_distance : int;
      (** a store is non-communicating if never read back within this many
          dynamic instructions on the training run *)
  min_store_count : int;  (** ... and it executed at least this often *)
  compact : bool;  (** drop nops and unreachable blocks during layout *)
  min_boundary_count : int;
      (** keep a task-boundary candidate executed at least this often *)
  feedback : feedback option;
      (** previous-run feedback driving the adaptive passes; [None] (the
          default) makes {!split_merge} and {!faint_writes} identities *)
}

val default_options : options

val identity_options : options
    (** disables every transformation: the distilled program is the
        original relocated to the distilled base with a Fork at entry *)

(** One executed pass's composable stats record: the number of in-place
    instruction rewrites it performed plus named counters specific to the
    pass ([candidates], [stores_removed], [restored],
    [kept], [dead_writes_removed], [selected], [emitted], [forks],
    [blocks_dropped], [estimated_dynamic]). *)
type pstat = {
  pass : string;
  rewrites : int;
  detail : (string * int) list;
}

val counter : pstat -> string -> int
(** [counter s name] is the named counter, or [0] when absent. *)

val pp_pstat : Format.formatter -> pstat -> unit

(** The distilled program image plus the maps the machine consumes. *)
type layout_result = {
  distilled : Mssp_isa.Program.t;
  entry_map : (int, int) Hashtbl.t;  (** original entry -> Fork address *)
  pc_map : (int, int) Hashtbl.t;  (** original block start -> distilled *)
  blocks_dropped : int;
  estimated_dynamic : int;
      (** training-profile estimate of the master's dynamic instruction
          count over the distilled image *)
}

(** The distillation state threaded through a pipeline. *)
type state = {
  original : Mssp_isa.Program.t;
  profile : Mssp_profile.Profile.t;
  options : options;
  code : Mssp_isa.Instr.t array;
      (** working copy, same length/layout as the original *)
  hardened : (int * Mssp_isa.Instr.t * int) list;
      (** (pc, original branch, cold-edge target) per standing hardening *)
  task_entries : int list option;  (** set by {!boundaries} *)
  layout : layout_result option;  (** set by {!compact} / the finisher *)
}

val init :
  ?options:options -> Mssp_isa.Program.t -> Mssp_profile.Profile.t -> state

(** [Rewrite] passes mutate [state.code] in place (length preserved);
    [Analysis] passes must leave it untouched; [Layout] passes produce
    [state.layout]. The checker enforces the distinction. *)
type kind = Rewrite | Analysis | Layout

type t = {
  name : string;
  doc : string;
  kind : kind;
  apply : state -> state * pstat;
}

(** {1 The distiller transformations} *)

val harden : t  (** branch hardening: biased branches -> Jmp / fall-through *)

val drop_stores : t  (** non-communicating-store removal: St -> Nop *)

val repair : t
(** hardening repair: restore hardened branches whose cold edge lost hot
    code. Must run after {!harden} to have anything to repair. *)

val dead_writes : t  (** dead register-write elimination (iterated liveness) *)

val boundaries : t  (** task-boundary selection on the original CFG *)

val split_merge : t
(** adaptive task sizing over the selected boundary set: high previous
    squash rate re-admits every candidate (finer tasks), low squash rate
    drops markers whose observed spacing cannot fill a task (so inner
    accumulator chains become dead at the remaining boundaries). The
    highest-pc marker always survives a merge — the master's tail after
    its final fork is work no slave absorbs, and a hardened tail loop
    would otherwise spin into the runaway guard. The identity without
    [options.feedback]. Must run after {!boundaries}. *)

val faint_writes : t
(** strongly-live (faint-variable) dead-write elision: removes pure
    register chains — loop-carried ones included — that no effectful
    instruction and no retained boundary's original-program live-in set
    observes. The master stops computing values only verification-exempt
    reads would consume; a slave that still reads one gets a stale value,
    which verify/commit absorbs as a squash. Gated on
    [options.feedback.fb_elide]; the identity otherwise. *)

val compact : t
(** layout + compaction: honors [options.compact] for nop-dropping.
    Terminal: consumes the working code into [state.layout]. *)

val finish_layout : t
(** identity layout (nops kept) — appended automatically by the pipeline
    driver when a pass list contains no [Layout] pass, so every pipeline
    yields a complete package. *)

val is_pure_def : Mssp_isa.Instr.t -> bool
(** true for register-writing instructions with no other effect — the
    only dead-write candidates (used by the pass-checker too). *)

(** {1 Deliberately broken passes — mutation-testing material ONLY}

    Each violates a checked invariant; the pass-checker must refuse all
    of them, and the machine must still absorb their output. *)

val broken_harden : t  (** hardens the wrong (cold) branch arm *)

val broken_stores : t  (** drops communicating and stack stores *)

val broken_forks : t  (** steals a Fork marker after a normal layout *)
