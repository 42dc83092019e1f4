(** Execution profiling — the distiller's training input.

    A profile is collected by running the original program on a training
    input under the sequential machine while observing, per static
    instruction: execution counts, branch outcomes and store-to-load
    communication distances. This mirrors the paper's toolchain, where
    the distilled binary is produced offline from profile data;
    approximateness comes from the training input differing from the
    reference input. *)

type branch_stats = {
  mutable taken : int;
  mutable not_taken : int;
}

type store_stats = {
  mutable store_executions : int;
  mutable min_comm_distance : int;
      (** smallest dynamic-instruction distance at which a value written
          by this site was loaded back before being overwritten;
          [max_int] if never read back. Short-distance stores communicate
          through the master's predictions; long-distance ones flow
          through architected state, so the distiller can drop them from
          the master's code. *)
}

type t = {
  block_counts : (int, int) Hashtbl.t;  (** pc of executed instruction -> count *)
  branches : (int, branch_stats) Hashtbl.t;  (** branch pc -> outcomes *)
  stores : (int, store_stats) Hashtbl.t;  (** store pc -> communication *)
  mutable dynamic_instructions : int;
  mutable stop : Mssp_seq.Machine.stop option;
}

val collect : ?fuel:int -> Mssp_isa.Program.t -> t
(** Run the program to completion (default fuel 100M instructions) and
    record the profile. *)

val exec_count : t -> int -> int
(** Times the instruction at a PC executed. *)

val branch_bias : t -> int -> (bool * float) option
(** For a branch PC: the dominant direction ([true] = taken) and its
    frequency in [0.5, 1.0]. [None] if the branch never executed. *)

val store_comm_distance : t -> int -> int option
(** For a store PC: the minimum observed store-to-load communication
    distance ([max_int] = never read back). [None] if never executed. *)

val pp_summary : Format.formatter -> t -> unit
