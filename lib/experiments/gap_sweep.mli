(** Extensions X7–X9: validation of the data-dependent TCA families of
    the paper's Fig. 2 markers — hash map, regular expression and string
    functions — model-vs-simulator across invocation gaps, like Fig. 5.

    The three sweeps share one driver and differ only in the data of
    their entry: the workload generator, which also measures the
    family's data-dependent cost (probes per lookup, characters scanned
    per search, bytes inspected per call — so the software μops
    replaced and the TCA's line traffic come from a live table, a real
    NFA/DFA engine or a real string arena), the gap list, the sizes and
    the seed. *)

type t = {
  job : string;  (** engine job name, e.g. ["hashmap"] *)
  id : string;  (** extension id, e.g. ["X7"] *)
  what : string;  (** e.g. ["hash-map TCA validation"] *)
  title : string;  (** artifact title *)
  span : string;  (** wall-clock span around {!run} *)
  gaps : int list;  (** full sweep, in application μops between calls *)
  quick_gaps : int list;
  size : int;  (** calls per trace *)
  quick_size : int;
  seed : int;  (** a gap's trace is seeded [seed + gap] *)
  generate :
    size:int -> gap:int -> seed:int -> Tca_workloads.Meta.pair * float;
      (** the pair plus the family's measured mean cost per call *)
  note : float -> string;  (** artifact note from that mean *)
}

val hashmap : t
(** X7: lookups in a live open-addressing table; mean probes per lookup. *)

val regex : t
(** X8: record searches with the real engine; mean characters scanned. *)

val strfn : t
(** X9: strlen/strcmp/find_char over a string arena; mean bytes
    inspected. *)

val all : t list
(** [hashmap; regex; strfn]. *)

val run :
  ?telemetry:Tca_telemetry.Sink.t ->
  ?par:Tca_util.Parmap.t ->
  ?quick:bool -> t ->
  Exp_common.validation_row list * float
(** Rows over the sweep's gaps plus the mean cost measured at the
    finest gap. [?par] evaluates the gaps concurrently with identical
    rows and merged trace. *)

val artifact :
  t -> Exp_common.validation_row list * float -> Tca_engine.Artifact.t

val print : t -> Exp_common.validation_row list * float -> unit
