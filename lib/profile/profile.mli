(** Execution profiling — the distiller's training input.

    A profile is collected by running the original program on a training
    input under the sequential machine while observing, per static
    instruction: execution counts, branch outcomes and store-to-load
    communication distances. This mirrors the paper's toolchain, where
    the distilled binary is produced offline from profile data;
    approximateness comes from the training input differing from the
    reference input. *)

type sites
(** The per-PC counters: flat [int] arrays indexed by a PC's offset in
    the program's code image, so counting an instruction is an array
    increment. PCs executed outside the image (a jump into data the
    program wrote, say) get slots past the image's, handed out through a
    {!Mssp_state.Mem_log} in first-execution order, so the profile is
    exact for every program. Per slot: executions, a branch's taken and
    fall-through counts, a store's executions, and a store's smallest
    store-to-load communication distance: the fewest dynamic
    instructions between a store and a load that read the value it
    wrote before any store overwrote it ([max_int] if never read back).
    Short-distance stores communicate through the master's predictions;
    long-distance ones flow through architected state, so the distiller
    can drop them from the master's code. *)

type t = {
  dynamic_instructions : int;  (** instructions retired *)
  stop : Mssp_seq.Machine.stop option;
      (** why the run ended: [Halted], [Faulted] or [Out_of_fuel];
          always [Some] *)
  sites : sites;
}

val collect : ?fuel:int -> Mssp_isa.Program.t -> t
(** Run the program to completion (default fuel 100M instructions) and
    record the profile.

    The run is {!Mssp_seq.Machine.run}'s direct step: fetch through
    memory, decode through the program's pre-decoded image,
    {!Mssp_seq.Exec.exec}; fuel is checked before each instruction.
    The last store to each address is kept in a
    {!Mssp_state.Mem_log} from address to store site, with the store's
    dynamic index in a parallel array, so a step allocates nothing once
    the tables have grown. *)

val exec_count : t -> int -> int
(** Times the instruction at a PC executed. *)

val branch_bias : t -> int -> (bool * float) option
(** For a branch PC: the dominant direction ([true] = taken) and its
    frequency in [0.5, 1.0]. [None] if the branch never executed. *)

val store_comm_distance : t -> int -> int option
(** For a store PC: the minimum observed store-to-load communication
    distance ([max_int] = never read back). [None] if never executed. *)

val pp_summary : Format.formatter -> t -> unit
