(** Execution profiling — the distiller's training input.

    A profile is collected by running the original program on a training
    input under the sequential machine while observing, per static
    instruction: execution counts, branch outcomes and store-to-load
    communication distances, plus the values flowing through each memory
    cell (the live-in predictors' warm-up). This mirrors the
    paper's toolchain, where the distilled binary is produced offline
    from profile data; approximateness comes from the training input
    differing from the reference input. *)

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

type stream = { mutable values : int list; mutable count : int }
(** One address's observations, newest first; [count] is the length of
    [values], so capping costs O(1) per observation. *)

type t = {
  block_counts : (int, int) Hashtbl.t;  (** pc of executed instruction -> count *)
  branches : (int, branch_stats) Hashtbl.t;  (** branch pc -> outcomes *)
  stores : (int, store_stats) Hashtbl.t;  (** store pc -> communication *)
  cells : (int, stream) Hashtbl.t;
      (** per-address observation stream (reversed internally; use
          {!cell_observations}) — the value predictors' warm-up food *)
  mutable dynamic_instructions : int;
  mutable stop : Mssp_seq.Machine.stop option;
}

val cell_stream_cap : int
(** Per-address cap on the recorded observation stream. *)

val collect : ?fuel:int -> Mssp_isa.Program.t -> t
(** Run the program to completion (default fuel 100M instructions) and
    record the profile. *)

val exec_count : t -> int -> int
(** Times the instruction at a PC executed. *)

val branch_bias : t -> int -> (bool * float) option
(** For a branch PC: the dominant direction ([true] = taken) and its
    frequency in [0.5, 1.0]. [None] if the branch never executed. *)

val cell_observations : t -> int -> int list
(** Every value observed flowing through a memory address (loads from it
    and stores to it), in execution order, capped at
    {!cell_stream_cap}. [[]] if the address was never touched. The
    collection run is single-threaded, so this order is the program's
    own — stable regardless of any [--jobs] parallelism consuming the
    profile. *)

val observed_cells : t -> int list
(** Addresses with a non-empty observation stream, ascending. *)

val store_comm_distance : t -> int -> int option
(** For a store PC: the minimum observed store-to-load communication
    distance ([max_int] = never read back). [None] if never executed. *)

val pp_summary : Format.formatter -> t -> unit
