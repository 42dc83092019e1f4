(** Executable program images.

    A program is a relocated code image (instructions at consecutive
    addresses starting at [base]), an entry PC, an initial data image and
    a symbol table. The loader ({!Mssp_state.Full.load}) encodes the code
    into memory words, writes the data image, seeds [sp], and sets the PC
    to [entry]. *)

type t = {
  base : int;  (** address of [code.(0)] *)
  code : Instr.t array;
  entry : int;  (** initial PC (absolute) *)
  data : (int * int) list;  (** initial memory image: (address, value) *)
  symbols : (string * int) list;  (** label -> absolute address *)
}

val make :
  ?base:int ->
  ?entry:int ->
  ?data:(int * int) list ->
  ?symbols:(string * int) list ->
  Instr.t array ->
  t
(** [make code] is a program with [base] defaulting to {!Layout.code_base}
    and [entry] defaulting to [base]. *)

val length : t -> int
(** Static instruction count. *)

val limit : t -> int
(** One past the last code address: [base + length]. *)

val in_code : t -> int -> bool
(** Whether an address falls inside the code image. *)

val instr_at : t -> int -> Instr.t option
(** Instruction at an absolute address, if inside the image. *)

val symbol : t -> string -> int
(** Address of a label. @raise Not_found if absent. *)

(** {1 Pre-decoded images}

    The per-program decode cache: both arrays are indexed by
    [pc - base], sized exactly to the program — no cap, no hashing, no
    silent degradation on large fuzz programs. Execution engines fetch a
    word from memory and validate it against [i_words] with one compare;
    a match reuses the pre-decoded instruction, a mismatch (the program
    modified its own code, or the PC left the image) falls back to
    {!Instr.decode_cached}. The word compare is what keeps pre-decode
    sound under self-modifying code: fetch still goes through memory. *)

type image = {
  i_base : int;  (** address of [i_words.(0)] *)
  i_words : int array;  (** encodings the loader wrote into memory *)
  i_instrs : Instr.t option array;
      (** [decode i_words.(i)], pre-computed (boxed once, so a hit
          allocates nothing) *)
}

val decode_all : t -> image
(** Pre-decode the whole code image. *)

val image_decode : image -> pc:int -> word:int -> Instr.t option
(** Decode [word] fetched at [pc]: the pre-decoded instruction when
    [pc] is inside the image and the word matches the image's encoding,
    otherwise [Instr.decode_cached word]. Always agrees with
    [Instr.decode word]. *)

val image_decoder :
  image list -> pc:int -> word:int -> Instr.t option
(** Compose images (e.g. original + distilled, both loaded in memory)
    into one decode function; falls back to {!Instr.decode_cached}
    outside every image. *)

val pp : Format.formatter -> t -> unit
(** Disassembly listing with addresses and symbols. *)
