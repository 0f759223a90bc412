(* Layer spans for the traced run, recorded from the benchmark's side of
   every call into a layer. Spans stay in memory until the run ends.
   Each span knows its parent on its own domain's lane, so a layer's
   self time is its duration minus that of its direct children. When
   tracing is off, [with_] is a plain call. *)

type t = {
  id : int;
  parent : int;  (** enclosing span on the same lane, or -1 *)
  pass : int;  (** the timed pass the span belongs to *)
  layer : string;
  label : string;  (** what ran: a job name in [suite], else the layer *)
  lane : int;  (** recording domain *)
  t0 : int64;
  t1 : int64;
}

let enabled = ref false
let next_id = Atomic.make 0
let current_pass = Atomic.make 0
let lock = Mutex.create ()
let spans : t list ref = ref []
let stack = Domain.DLS.new_key (fun () -> ref [])

let set_pass i = Atomic.set current_pass i

let with_ ?label layer f =
  if not !enabled then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let st = Domain.DLS.get stack in
    let parent = match !st with p :: _ -> p | [] -> -1 in
    st := id :: !st;
    let t0 = Common.now () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Common.now () in
        st := List.tl !st;
        let s =
          {
            id;
            parent;
            pass = Atomic.get current_pass;
            layer;
            label = Option.value label ~default:layer;
            lane = (Domain.self () :> int);
            t0;
            t1;
          }
        in
        Mutex.protect lock (fun () -> spans := s :: !spans))
  end

let all () = Mutex.protect lock (fun () -> List.rev !spans)
let seconds s = Int64.to_float (Int64.sub s.t1 s.t0) /. 1e9

(* Self seconds per span id: duration minus direct children's. *)
let self_times l =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (seconds s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    l;
  List.map
    (fun s -> (s, seconds s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    l

(* Self seconds per layer (or per [label] with [~by_label:true]),
   summed over the spans [keep] accepts. *)
let self_by_layer ?(by_label = false) ?(keep = fun _ -> true) l =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let k = if by_label then s.label else s.layer in
      if keep s then
        Hashtbl.replace acc k
          (self +. Option.value ~default:0.0 (Hashtbl.find_opt acc k)))
    (self_times l);
  fun k -> Option.value ~default:0.0 (Hashtbl.find_opt acc k)

(* One JSON line per span, for offline inspection ([--spans FILE]). *)
let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"pass\":%d,\"layer\":%S,\"label\":%S,\
         \"lane\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
        s.id s.parent s.pass s.layer s.label s.lane s.t0 s.t1)
    (all ());
  close_out oc
