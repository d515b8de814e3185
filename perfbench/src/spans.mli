(** Spans recorded by the benchmark around its calls into the library,
    kept in memory and written out as Chrome trace-event JSON when the
    run ends.

    A span has a name, a start and an end on the monotonic clock, the
    span that caused it ([parent], [-1] for a root), a lane (rendered
    as one Chrome "thread") and an optional request id shared by the
    spans of one request.  Recording is thread-safe.  A disabled
    recorder records nothing and {!with_span} just calls its body. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  lane : int;
  req : int;  (** [-1] when the span belongs to no request *)
  t0 : float;  (** seconds *)
  t1 : float;
}

val no_span : int
(** [-1]: the parent of a root span, and the id {!with_span} passes to
    its body when recording is off. *)

type t

val create : enabled:bool -> t
val enabled : t -> bool

val with_span : t -> ?parent:int -> string -> (int -> 'a) -> 'a
(** [with_span r name f] times [f id] on lane 0, where [id] is the new
    span's id for use as the parent of nested spans.  The span is
    recorded even when [f] raises. *)

val record :
  t -> ?parent:int -> ?lane:int -> ?req:int -> string -> t0:float -> t1:float ->
  int
(** Record a span with explicit endpoints; returns its id ({!no_span}
    when disabled). *)

val spans : t -> span list
(** Everything recorded, ordered by id. *)

val self_time : span list -> span -> float
(** The span's duration minus the part of its interval covered by its
    direct children (overlapping children are counted once). *)

val self_time_by_name : span list -> (string * float) list
(** Total self time per span name, in first-appearance order. *)

val to_chrome_json : ?lanes:(int * string) list -> span list -> string
(** Chrome trace-event JSON in the event shape of the simulator's trace
    export: complete ("X") events with [ts]/[dur] in microseconds
    (relative to the earliest span), [pid] 1, [tid] = lane, span id,
    parent and request id under [args], plus one [thread_name]
    metadata event per lane named in [lanes]. *)
