(** A deliberately tiny JSON value type with a compact printer and a
    recursive-descent parser.

    The trace layer needs JSON twice — JSONL event streams and the Chrome
    [trace_event] export — and the repo carries no JSON dependency, so
    this module implements the sliver of the format we use: objects,
    arrays, strings (with escapes), integers, floats, booleans, null.
    {!to_string} emits everything on one line, which is exactly what
    JSONL wants and what Chrome tolerates; {!pretty} indents, for the
    bench report. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering (no spaces, no newlines). *)

val pretty : t -> string
(** Indented multi-line rendering, two spaces per level, with a trailing
    newline — for reports meant to be read and diffed. *)

val parse : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed). Errors carry a
    character offset. *)

val member : string -> t -> t option
(** [member k (Obj ...)] looks up a key; [None] on missing key or
    non-object. *)

val to_int : t -> int option
(** [Int n] and integral [Float]s. *)

val to_str : t -> string option
val to_list : t -> t list option
