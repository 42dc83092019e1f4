(** Full, mutable machine state — the simulator's working representation.

    A full state is total: every register exists and every memory word
    reads as 0 until written. Architected state (the paper's "ISA-visible
    state maintained in the shared L2"), the master's speculative state
    and the baseline machines all use this representation.

    Memory is a paged image behind a two-level table: a state's top
    level of 128 directory blocks, each of 128 pages of 1,024 words,
    spans 2^24 words (Layout up to [io_limit]). A page is one bytes
    block of 64-bit slots (its words, its written-word mask and its
    refcount), which the GC neither initializes nor scans. A load is
    three indexations, a store the same plus two refcount reads.
    Directories and pages are shared copy-on-write: {!create} and
    {!copy} cost O(top level), about 200 words, whatever the footprint,
    and the first store through either state privatizes only the
    directory block and the page it touches (about 1,200 words); a
    page's privatization is one memcpy.
    Addresses outside the paged span (negative or huge) spill to a
    per-word table, keeping memory total over all of [int]. Pages
    remember exactly which words were explicitly written (including
    writes of 0), so {!snapshot} and {!pp} enumerate the same
    "materialized" set the representation has always exposed. The scans
    ({!equal_observable}, {!diff_observable}, {!live_pages},
    {!snapshot}) skip empty and physically shared blocks: they cost
    O(top level + pages live or differing), so comparing a state with a
    fresh copy of itself is O(top level).

    The verify/commit unit checks a task's live-ins against a full state
    and superimposes its live-outs onto it through [Mssp_task.Task]
    ([live_ins_consistent], [commit_into]); {!snapshot} reads a full
    state back as a fragment. *)

type t

val create : unit -> t
(** Fresh state: PC 0, all registers 0, all memory 0. *)

val copy : t -> t
(** Observationally deep copy: the two states never see each other's
    writes. O(top level), not O(memory): directory blocks and pages are
    shared copy-on-write and privatized lazily on first store. *)

val get : t -> Cell.t -> int
val set : t -> Cell.t -> int -> unit

val pc : t -> int
val set_pc : t -> int -> unit

val get_reg : t -> Mssp_isa.Reg.t -> int
(** Reads of the hardwired zero register return 0. *)

val set_reg : t -> Mssp_isa.Reg.t -> int -> unit
(** Writes to the hardwired zero register are discarded. *)

val copy_regs : t -> int array
(** A fresh array of the registers by index (slot 0, the zero register,
    holds 0): one block copy. *)

val get_mem : t -> int -> int
val set_mem : t -> int -> int -> unit

val load : ?set_entry:bool -> t -> Mssp_isa.Program.t -> unit
(** Load a program image: encode its instructions into memory at its
    [base], write its data image, seed [sp] from {!Mssp_isa.Layout} and
    [gp] with [Layout.data_base]. When [set_entry] (default [true]), also
    set the PC to the program's entry. Loading a second image (e.g. the
    distilled program at {!Mssp_isa.Layout.distilled_base}) with
    [~set_entry:false] leaves the PC alone. *)

val snapshot : t -> Fragment.t
(** PC, all registers, and every memory word ever written (explicitly
    materialized cells). Intended for small formal-model states and
    debugging, not for the simulator fast path. *)

val equal_observable : t -> t -> bool
(** States agree on PC, all registers, and every memory cell materialized
    in either — i.e. they are indistinguishable by any program. This is
    the end-to-end equivalence check between SEQ and MSSP runs. *)

val diff_observable : t -> t -> (Cell.t * int * int) list
(** Cells on which {!equal_observable} fails, with both values; for test
    diagnostics. *)

val live_pages : t -> int
(** Aligned 4,096-word regions of the paged span that hold a written
    word (footprint/trace counter). The unit is the page size of the
    earlier flat table, so the [mem.arch_live_pages] counter reads the
    same as it always has. *)

val overflow_words : t -> int
(** Words held in the out-of-span overflow table (trace counter). *)

val pp : Format.formatter -> t -> unit
(** Compact rendering: PC, non-zero registers, dirty-memory count. *)
