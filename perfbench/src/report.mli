(** The benchmark's result line. *)

val valid_name : string -> bool
(** A metric name: 1 to 64 characters from [\[A-Za-z0-9_.-\]], starting
    with a letter or a digit. *)

type metric = { name : string; value : float; unit : string }

val result_line :
  correct:bool -> attempted:int -> failed:int -> metric list -> string
(** One JSON object with exactly the keys [correct], [attempted],
    [failed] and [metrics] ([{name: {value, unit}}]).
    @raise Invalid_argument on an invalid or repeated name, a
    non-finite value, or [attempted < 1]. *)
