let map telemetry (par : Tca_util.Parmap.t) f xs =
  let sinks = Array.map (fun _ -> Option.map Sink.fork telemetry) xs in
  let results =
    par.run (fun i -> f sinks.(i) xs.(i)) (Array.init (Array.length xs) Fun.id)
  in
  (match telemetry with
  | None -> ()
  | Some into ->
      Timing.with_span telemetry "telemetry.join" (fun () ->
          Array.iter (Option.iter (Sink.join ~into)) sinks));
  results

let map_list telemetry par f xs =
  Array.to_list (map telemetry par f (Array.of_list xs))
