(** Fork/join over a parallel map: the {!Sink} multi-domain protocol
    ({!Sink.fork} / {!Sink.join}) packaged once for every caller that
    spreads instrumented work over a {!Tca_util.Parmap.t}.

    [map telemetry par f xs] forks one child sink per element (none
    when [telemetry] is [None]), evaluates [f child x] for every
    element through [par], then joins the children back into
    [telemetry] in element order, inside a [telemetry.join] wall-clock
    span. The results are [par]'s, so in element order; because a
    serial run also records element [i]'s events before element
    [i+1]'s, the merged event sequence is the serial one whatever
    [par] is — only wall-clock timestamps and durations differ.

    If an element raises, [par] raises the exception of the
    lowest-indexed failing element after all elements have settled,
    and no child is joined. *)

val map :
  Sink.t option -> Tca_util.Parmap.t -> (Sink.t option -> 'a -> 'b) ->
  'a array -> 'b array

val map_list :
  Sink.t option -> Tca_util.Parmap.t -> (Sink.t option -> 'a -> 'b) ->
  'a list -> 'b list
(** {!map} over a list. *)
