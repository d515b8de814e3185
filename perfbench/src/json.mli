(** Minimal JSON values: enough to print the benchmark's result lines,
    read back the daemon's stats snapshot, and parse the emitted trace
    in tests. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** The whole string must be one value (surrounding whitespace allowed). *)

val to_string : t -> string
(** Compact rendering.  Numbers keep every digit ([%.17g]; integral
    values print without a fraction).
    @raise Invalid_argument on a non-finite number. *)

val member : string -> t -> t option
(** Field of an object; [None] for other values or a missing key. *)

val path : string list -> t -> t option
(** Nested {!member}. *)

val to_float : t -> float option
