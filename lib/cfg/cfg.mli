(** Control-flow graphs over SIR programs.

    Basic blocks are built from the static code image. Indirect control
    ([Jr]/[Jalr]) has statically unknown successors; such blocks are
    marked {!block.has_indirect} and analyses treat them conservatively
    (anything may follow, everything live). The distiller relies on this
    module for reachability, liveness-based dead-code removal and loop
    headers (back-edge targets) as task-boundary candidates. *)

type block = {
  id : int;
  start : int;  (** absolute PC of the first instruction *)
  len : int;
  mutable succs : int list;  (** successor block ids (static only) *)
  mutable preds : int list;
  has_indirect : bool;  (** ends in [Jr]/[Jalr]: unknown successors *)
}

type t = {
  program : Mssp_isa.Program.t;
  blocks : block array;
  entry : int;  (** id of the block containing the program entry *)
}

val build : Mssp_isa.Program.t -> t
(** Partition the code image into maximal basic blocks. Every branch
    target, fall-through point and the entry start a block. Targets
    outside the code image are ignored (they fault at run time, which the
    machine handles). *)

val block_of_pc : t -> int -> block option
(** The block containing an absolute PC. *)

val instrs : t -> block -> Mssp_isa.Instr.t array
(** The block's instructions, in order. *)

val reachable : t -> bool array
(** Per-block reachability from the entry. Blocks reachable only through
    indirect jumps are kept reachable conservatively: any block whose
    start address is loaded as a constant somewhere in the program, plus
    every instruction following a call (return points), are treated as
    indirect-target roots. *)

val back_edge_targets : t -> int list
(** Start PCs of blocks that are targets of a back edge (header of a
    natural loop under a DFS ordering) — the distiller's primary task
    boundary candidates. *)

val dominators : t -> int array
(** Immediate dominator per block id (entry maps to itself; blocks not
    reachable from the entry by direct edges map to -1).
    Cooper-Harvey-Kennedy iteration. *)

val dominates : int array -> int -> int -> bool
(** [dominates idom a b]: does block [a] dominate block [b], under the
    [idom] array returned by {!dominators}? *)

(** {1 Register liveness} *)

type liveness = { live_in : Regset.t array; live_out : Regset.t array }

val liveness : t -> liveness
(** Backward may-liveness per block. Conservative at indirect terminators
    (all registers live out — the continuation is unknown); empty at
    [Halt]/successor-less blocks. The empty halting boundary is tuned for
    the distiller: the master only needs values some later read observes,
    and all its predictions are verified, so "live at program end" is not
    a constraint it must honor. *)

val uses : Mssp_isa.Instr.t -> Regset.t
(** Registers read by an instruction (address bases included). *)

val defs : Mssp_isa.Instr.t -> Regset.t
(** Registers written by an instruction. *)

val pp : Format.formatter -> t -> unit
