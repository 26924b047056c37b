(* Spans recorded by the benchmark around its calls into the program's
   layers. Only the main domain records; spans nest strictly, so a span's
   self time is its duration minus its children's. Spans of a request
   (a guest run or a service session) share its request id. Sessions run
   on the daemon's worker domains and overlap each other, so they are kept
   as a separate list of request spans outside the nesting tree.

   Nothing is recorded while tracing is off: [span] is then just [f ()]. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a top-level span *)
  req : string;
  t0 : float;
  t1 : float;
}

let on = ref false
let spans : span list ref = ref []
let requests : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let span ?(req = "") name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let t0 = Unix.gettimeofday () in
    let finish () =
      stack := List.tl !stack;
      spans := { id; name; parent; req; t0; t1 = Unix.gettimeofday () } :: !spans
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

(* Run [f] inside one top-level span [name] with recording off, so the
   untraced half of a traced run is still covered by the span tree. *)
let untraced name f =
  span name (fun () ->
      on := false;
      Fun.protect ~finally:(fun () -> on := true) f)

(* A request span measured elsewhere (a service session, from when it
   was due until it completed). *)
let request ~name ~req ~t0 ~t1 =
  if !on then begin
    let id = !next_id in
    incr next_id;
    requests := { id; name; parent = -1; req; t0; t1 } :: !requests
  end

let dur s = s.t1 -. s.t0

(* Self time per span name, summed over the nesting tree. *)
let self_times () =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((try Hashtbl.find child s.parent with Not_found -> 0.0) +. dur s))
    !spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self = dur s -. (try Hashtbl.find child s.id with Not_found -> 0.0) in
      let n, t = try Hashtbl.find by_name s.name with Not_found -> (0, 0.0) in
      Hashtbl.replace by_name s.name (n + 1, t +. self))
    !spans;
  Hashtbl.fold (fun k (n, t) acc -> (k, n, t) :: acc) by_name []
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)

let total_self () = List.fold_left (fun acc (_, _, t) -> acc +. t) 0.0 (self_times ())

let top_level () = List.filter (fun s -> s.parent < 0) !spans

(* Summed duration of the top-level spans; they are sequential, so this
   is the wall time they cover. *)
let covered () = List.fold_left (fun acc s -> acc +. dur s) 0.0 (top_level ())

let json_of_span base s =
  Obs.Json.(
    Obj
      [
        ("id", Int s.id);
        ("name", String s.name);
        ("parent", Int s.parent);
        ("req", String s.req);
        ("start_ms", Float ((s.t0 -. base) *. 1000.0));
        ("end_ms", Float ((s.t1 -. base) *. 1000.0));
      ])

let print_self_table oc ~wall =
  Printf.fprintf oc "%-28s %8s %12s %7s\n" "span" "count" "self_ms" "share";
  List.iter
    (fun (name, n, t) ->
      Printf.fprintf oc "%-28s %8d %12.2f %6.1f%%\n" name n (t *. 1000.0) (100.0 *. t /. wall))
    (self_times ());
  Printf.fprintf oc "%-28s %8s %12.2f %6.1f%%\n" "(sum of self times)" ""
    (total_self () *. 1000.0)
    (100.0 *. total_self () /. wall);
  Printf.fprintf oc "%-28s %8s %12.2f\n%!" "(wall)" "" (wall *. 1000.0)

(* Write every span, the self-time table and [extra] fields as one JSON
   document. *)
let export path ~base ~wall extra =
  let self =
    List.map
      (fun (name, n, t) ->
        Obs.Json.(Obj [ ("name", String name); ("count", Int n); ("self_ms", Float (t *. 1000.0)) ]))
      (self_times ())
  in
  let doc =
    Obs.Json.(
      Obj
        ([
           ("schema", String "ildp-dbt-perfbench-trace/1");
           ("wall_ms", Float (wall *. 1000.0));
           ("covered_ms", Float (covered () *. 1000.0));
           ("self_sum_ms", Float (total_self () *. 1000.0));
           ("self_times", List self);
           ("spans", List (List.rev_map (json_of_span base) !spans));
           ("requests", List (List.rev_map (json_of_span base) !requests));
         ]
        @ extra))
  in
  Obs.Json.write_file path doc
