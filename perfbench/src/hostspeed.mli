(** Host speed, measured with a fixed integer kernel.

    The benchmark runs on shared machines whose speed moves by tens of
    percent over minutes and hours while the program stays the same.  A
    probe — a fixed, allocation-free integer matrix product owned by the
    benchmark, not by the program under test — is timed next to every
    measured operation.  Dividing a time by the host's slowdown (or
    multiplying a rate by it) restates the time at the speed of a
    reference host, so that two sets of runs of the same program agree
    even when the machine under them did not. *)

val probe : unit -> float
(** Seconds taken by one run of the probe kernel. *)

val probes : int -> float list
(** [probes n] — [n] probe times in a row. *)

val reference_s : float
(** Probe time on the reference host: a 2-vCPU Intel Xeon (Sapphire
    Rapids) KVM guest in a quiet hour. *)

val slowdown : float list -> float
(** Mean probe time over {!reference_s}: above 1 when the host runs
    slower than the reference.
    @raise Invalid_argument on an empty list. *)
