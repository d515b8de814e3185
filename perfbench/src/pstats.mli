(** Order statistics for benchmark samples. *)

val percentile : float array -> float -> float
(** [percentile sorted p] — nearest-rank [p]-th percentile
    ([p] in (0, 100]) of an ascending array.
    @raise Invalid_argument on an empty array. *)

val median : float list -> float
(** Nearest-rank median (the lower middle for even counts), so the
    reported value is always one that was measured.
    @raise Invalid_argument on an empty list. *)

val beyond : n:int -> float -> int
(** [beyond ~n p] — how many of [n] samples lie strictly above the
    nearest-rank [p]-th percentile. *)

val supported_percentile : n:int -> want:float -> float
(** The tail percentile a sample of [n] can report: the highest of
    99.9, 99, 95, 90, 75 and 50 that is at most [want] and has at least
    ten samples beyond it.  When even the median has fewer than ten
    samples beyond it, the median (50). *)

val tail : float array -> want:float -> float * float
(** [tail sorted ~want] is [(p, value)] with
    [p = supported_percentile ~n ~want]. *)
