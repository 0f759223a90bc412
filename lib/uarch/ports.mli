(** Cycle-granular bandwidth reservation for shared memory ports.

    Core loads and accelerator line requests all book slots here, which
    models the paper's "all memory requests required by the accelerator
    pass through arbitration for shared access to the core's LSQ and
    memory hierarchy" with age-order priority (older instructions issue,
    and therefore reserve, first). *)

type t

val create : width:int -> horizon:int -> t
(** [width] slots per cycle; reservations may land at most [horizon]
    cycles in the future. *)

val reserve : t -> now:int -> int
(** Book one slot at the earliest cycle [>= now] with spare capacity and
    return that cycle. Raises [Failure] if the horizon is exhausted
    (indicates a configuration error, not a program condition). *)

val width : t -> int
