(* Single-flight snapshot registry. One mutex + condition; slots move
   [absent -> Building -> Ready] (or back to absent on abandon), and the
   condition is broadcast on every transition out of [Building]. *)

type slot = Building | Ready of Persist.Snapshot.t

type admission = Warm of Persist.Snapshot.t | Build

type t = {
  m : Mutex.t;
  changed : Condition.t;
  slots : (Persist.Snapshot.fingerprint, slot) Hashtbl.t;
  dir : string option;
  mutable warm_hits : int;
  mutable cold_builds : int;
  mutable build_waits : int;
  mutable abandons : int;
  mutable disk_loads : int;
}

type stats = {
  warm_hits : int;
  cold_builds : int;
  build_waits : int;
  abandons : int;
  disk_loads : int;
  ready : int;
}

let create ?dir () =
  (match dir with
  | Some d when not (Sys.file_exists d) -> Sys.mkdir d 0o755
  | _ -> ());
  {
    m = Mutex.create ();
    changed = Condition.create ();
    slots = Hashtbl.create 16;
    dir;
    warm_hits = 0;
    cold_builds = 0;
    build_waits = 0;
    abandons = 0;
    disk_loads = 0;
  }

(* Spill filename: image digest (already hex MD5) plus a digest of every
   other fingerprint field, so distinct configurations of one image never
   collide and the name stays filesystem-safe. *)
let spill_name (fp : Persist.Snapshot.fingerprint) =
  let cfg_tag =
    Printf.sprintf "%s/%s/%s/%s/%d/%d/%d/%b/%b/%d" fp.fp_backend fp.fp_isa
      fp.fp_chaining fp.fp_engine fp.fp_n_accs fp.fp_hot_threshold
      fp.fp_max_superblock fp.fp_stop_at_translated fp.fp_fuse_mem
      fp.fp_tcache_max_slots
  in
  Printf.sprintf "%s-%s.snap" fp.fp_image_digest
    (Digest.to_hex (Digest.string cfg_tag))

(* Called under [t.m]. A stale or corrupt spill file is treated as a
   miss (the caller builds and re-publishes over it), never an error. *)
let try_disk_load t fp =
  match t.dir with
  | None -> None
  | Some dir -> (
    let path = Filename.concat dir (spill_name fp) in
    if not (Sys.file_exists path) then None
    else
      match Persist.Snapshot.read_file path with
      | snap when snap.Persist.Snapshot.fingerprint = fp -> Some snap
      | _ | (exception Persist.Snapshot.Error _) | (exception Sys_error _)
        -> None)

let acquire t fp =
  Mutex.lock t.m;
  let waited = ref false in
  let rec go () =
    match Hashtbl.find_opt t.slots fp with
    | Some (Ready snap) ->
      t.warm_hits <- t.warm_hits + 1;
      if !waited then t.build_waits <- t.build_waits + 1;
      Mutex.unlock t.m;
      Warm snap
    | Some Building ->
      waited := true;
      Condition.wait t.changed t.m;
      go ()
    | None -> (
      match try_disk_load t fp with
      | Some snap ->
        Hashtbl.replace t.slots fp (Ready snap);
        t.disk_loads <- t.disk_loads + 1;
        t.warm_hits <- t.warm_hits + 1;
        if !waited then t.build_waits <- t.build_waits + 1;
        Condition.broadcast t.changed;
        Mutex.unlock t.m;
        Warm snap
      | None ->
        Hashtbl.replace t.slots fp Building;
        t.cold_builds <- t.cold_builds + 1;
        if !waited then t.build_waits <- t.build_waits + 1;
        Mutex.unlock t.m;
        Build)
  in
  go ()

let publish t (snap : Persist.Snapshot.t) =
  let fp = snap.Persist.Snapshot.fingerprint in
  Mutex.lock t.m;
  let fresh =
    match Hashtbl.find_opt t.slots fp with
    | Some (Ready _) -> false (* first publish wins *)
    | Some Building | None ->
      Hashtbl.replace t.slots fp (Ready snap);
      true
  in
  Condition.broadcast t.changed;
  Mutex.unlock t.m;
  if fresh then
    match t.dir with
    | None -> ()
    | Some dir -> (
      try Persist.Snapshot.write_file (Filename.concat dir (spill_name fp)) snap
      with Sys_error _ -> () (* spill is best-effort; memory copy stands *))

let abandon t fp =
  Mutex.lock t.m;
  (match Hashtbl.find_opt t.slots fp with
  | Some Building ->
    Hashtbl.remove t.slots fp;
    t.abandons <- t.abandons + 1
  | Some (Ready _) | None -> ());
  Condition.broadcast t.changed;
  Mutex.unlock t.m

let stats t =
  Mutex.lock t.m;
  let ready =
    Hashtbl.fold
      (fun _ slot n -> match slot with Ready _ -> n + 1 | Building -> n)
      t.slots 0
  in
  let s =
    {
      warm_hits = t.warm_hits;
      cold_builds = t.cold_builds;
      build_waits = t.build_waits;
      abandons = t.abandons;
      disk_loads = t.disk_loads;
      ready;
    }
  in
  Mutex.unlock t.m;
  s
