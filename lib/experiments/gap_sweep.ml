open Tca_workloads

type t = {
  job : string;
  id : string;
  what : string;
  title : string;
  span : string;
  gaps : int list;
  quick_gaps : int list;
  size : int;
  quick_size : int;
  seed : int;
  generate : size:int -> gap:int -> seed:int -> Meta.pair * float;
  note : float -> string;
}

let hashmap =
  {
    job = "hashmap";
    id = "X7";
    what = "hash-map TCA validation";
    title =
      "X7: hash-map TCA validation (probe counts from a live \
       open-addressing table)";
    span = "hashmap_val.run";
    gaps = [ 800; 400; 200; 100; 50 ];
    quick_gaps = [ 200 ];
    size = 1500;
    quick_size = 500;
    seed = 17;
    generate =
      (fun ~size ~gap ~seed ->
        Hashmap_workload.generate
          (Hashmap_workload.config ~n_lookups:size ~app_instrs_per_lookup:gap
             ~seed ()));
    note =
      (fun mean_probes ->
        Printf.sprintf
          "mean probes per lookup %.2f -> mean software cost %d uops (the \
           'hash map' marker granularity of Fig. 2)"
          mean_probes
          (Tca_hashmap.Cost_model.software_uops
             ~probes:(int_of_float (Float.round mean_probes))));
  }

let regex =
  {
    job = "regexv";
    id = "X8";
    what = "regular-expression TCA validation";
    title =
      "X8: regular-expression TCA validation (scan lengths from the real \
       NFA/DFA engine)";
    span = "regex_val.run";
    gaps = [ 3200; 1600; 800; 400; 200 ];
    quick_gaps = [ 400 ];
    size = 400;
    quick_size = 120;
    seed = 23;
    generate =
      (fun ~size ~gap ~seed ->
        Regex_workload.generate
          (Regex_workload.config ~n_records:size ~app_instrs_per_record:gap
             ~seed ()));
    note =
      (fun mean_scan ->
        Printf.sprintf
          "mean scan %.0f chars -> mean software cost ~%d uops (the 'regular \
           expression' marker granularity of Fig. 2)"
          mean_scan
          (Tca_regex.Cost_model.software_uops
             ~chars_scanned:(int_of_float mean_scan)));
  }

let strfn =
  {
    job = "strfn";
    id = "X9";
    what = "string-function TCA validation";
    title =
      "X9: string-function TCA validation (strlen/strcmp/find_char over a \
       real string arena)";
    span = "strfn_val.run";
    gaps = [ 1200; 600; 300; 150; 75 ];
    quick_gaps = [ 300 ];
    size = 1200;
    quick_size = 400;
    seed = 11;
    generate =
      (fun ~size ~gap ~seed ->
        Strfn_workload.generate
          (Strfn_workload.config ~n_calls:size ~app_instrs_per_call:gap ~seed
             ()));
    note =
      (fun mean_bytes ->
        Printf.sprintf
          "mean bytes inspected %.0f -> mean software cost ~%d uops (the \
           'string functions' marker granularity of Fig. 2)"
          mean_bytes
          (Tca_strfn.Cost_model.software_uops
             ~bytes_inspected:(int_of_float mean_bytes)));
  }

let all = [ hashmap; regex; strfn ]

let run ?telemetry ?(par = Tca_util.Parmap.serial) ?(quick = false) sw =
  Tca_telemetry.Timing.with_span telemetry sw.span @@ fun () ->
  let cfg = Exp_common.validation_core () in
  let size = if quick then sw.quick_size else sw.size in
  let per_gap =
    Tca_telemetry.Fork.map telemetry par
      (fun telemetry gap ->
        let pair, mean =
          Tca_telemetry.Timing.with_span telemetry "sim.workload" (fun () ->
              sw.generate ~size ~gap ~seed:(sw.seed + gap))
        in
        let latency = Exp_common.meta_latency pair.Meta.meta ~cfg in
        (Exp_common.validate_pair ?telemetry ~cfg ~pair ~latency (), mean))
      (Array.of_list (if quick then sw.quick_gaps else sw.gaps))
  in
  let rows = List.concat_map fst (Array.to_list per_gap) in
  (rows, snd per_gap.(Array.length per_gap - 1))

let artifact sw (rows, mean) =
  Exp_common.validation_artifact ~job:sw.job ~title:sw.title
    ~notes:[ sw.note mean ] rows

let print sw result =
  print_string (Tca_engine.Artifact.to_text (artifact sw result))
