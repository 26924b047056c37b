module Vec = Machine.Vec

(* Translation cache: translated code, fragment metadata, the PC-translation
   map, pending patch sites, and PEI tables (paper Sections 2.2, 3.1, 3.2).

   Parameterised over the target instruction type: the accumulator backends
   store {!Accisa.Insn.t}, the code-straightening-only backend stores
   {!Alpha.Insn.t}. Code lives in a flat slot array; control-flow targets in
   translated code are slot indices. The parallel [addr] array carries each
   slot's byte address in the I-address space (slots have different encoded
   sizes in the I-ISA), which is what the timing models' I-cache and BTB
   see.

   Patching ("a patch is performed", Section 3.2) is expressed as closures
   registered against an untranslated V-address: installing a fragment for
   that address runs the closures with the new entry slot, replacing
   call-translator instructions with direct branches and completing
   push-dual-RAS pairs. *)

type pei = {
  pei_v_pc : int; (* V-ISA address of the potentially-excepting insn *)
  acc_map : (int * int) array;
  (* accumulators holding the architecturally-current value of a register
     at this point: (accumulator, architected register) pairs *)
}

type frag = {
  id : int;
  entry_slot : int;
  v_start : int;
  mutable n_slots : int;
  mutable v_insns : int; (* V-ISA instructions covered (NOPs excluded) *)
  mutable v_bytes : int; (* static V-ISA bytes covered *)
  mutable i_bytes : int; (* static translated bytes *)
  mutable exec_count : int; (* times entered *)
  cat_count : int array; (* per-Usage.category static node counts *)
}

let n_categories = 7

(* Telemetry (shared by both backend instantiations; the accumulator and
   straightening caches aggregate into the same names — one VM only ever
   owns one kind). All sites are load-and-branch when telemetry is off. *)
let c_installs = Obs.counter "tcache.installs"
let c_flushes = Obs.counter "tcache.flushes"
let c_patches = Obs.counter "tcache.patches"
let c_lookup_hits = Obs.counter "tcache.lookup_hits"
let c_lookup_misses = Obs.counter "tcache.lookup_misses"
let c_slots_hw = Obs.max_gauge "tcache.slots_high_water"
let c_frags_hw = Obs.max_gauge "tcache.frags_high_water"

(* Top bound sized for 10-100x workload scales; the companion
   [tcache.frag_slots.saturated] counter reports any residual clipping. *)
let h_frag_slots =
  Obs.histogram "tcache.frag_slots"
    ~bounds:[| 4; 8; 16; 32; 64; 128; 256; 512; 1024; 2048 |]

let cat_index : Usage.category -> int = function
  | Temp -> 0
  | No_user -> 1
  | Local -> 2
  | No_user_global -> 3
  | Local_global -> 4
  | Comm_global -> 5
  | Liveout_global -> 6

module Make (C : sig
  type insn

  val bytes : insn -> int
  val dummy : insn
end) =
struct
  type t = {
    code : C.insn Vec.t;
    addr : int Vec.t; (* byte address of each slot *)
    strand_start : bool Vec.t; (* slot begins a new strand (ILDP steering) *)
    frags : frag Vec.t;
    entry_ix : int Vec.t;
    (* per-slot fragment id when the slot is a fragment entry, -1 otherwise:
       the O(1) entry map the execution engines probe on taken transfers *)
    mutable next_entry : int;
    (* fragment id to stamp on the next pushed slot ([install] always
       precedes the push of its entry slot), -1 when none is pending *)
    patch_log : int Vec.t; (* slots patched since the last [clear] *)
    mutable gen : int;
    (* generation, bumped by [clear]: compiled-code caches that shadow the
       slot array key their validity on it *)
    by_ventry : (int, int) Hashtbl.t; (* V-address -> entry slot *)
    peis : (int, pei) Hashtbl.t; (* slot -> PEI record *)
    pending : (int, (int -> unit) list) Hashtbl.t;
    (* V-address -> patch closures to run when it gets translated *)
    base : int; (* byte address of slot 0 *)
    mutable next_addr : int;
  }

  let create ?(base = 0x4000_0000) () =
    {
      code = Vec.create ~dummy:C.dummy;
      addr = Vec.create ~dummy:0;
      strand_start = Vec.create ~dummy:false;
      frags = Vec.create ~dummy:{
        id = -1; entry_slot = 0; v_start = 0; n_slots = 0; v_insns = 0;
        v_bytes = 0; i_bytes = 0; exec_count = 0;
        cat_count = [||] };
      entry_ix = Vec.create ~dummy:(-1);
      next_entry = -1;
      patch_log = Vec.create ~dummy:0;
      gen = 0;
      by_ventry = Hashtbl.create 256;
      peis = Hashtbl.create 256;
      pending = Hashtbl.create 256;
      base;
      next_addr = base;
    }

  let n_slots t = Vec.length t.code
  let generation t = t.gen

  (* Append one instruction; returns its slot. *)
  let push ?(strand_start = false) t insn =
    let slot = Vec.length t.code in
    Vec.push t.code insn;
    Vec.push t.addr t.next_addr;
    Vec.push t.strand_start strand_start;
    Vec.push t.entry_ix t.next_entry;
    t.next_entry <- -1;
    t.next_addr <- t.next_addr + C.bytes insn;
    Obs.set_max c_slots_hw (slot + 1);
    slot

  let get t slot = Vec.get t.code slot
  let addr_of t slot = Vec.get t.addr slot
  let starts_strand t slot = Vec.get t.strand_start slot

  (* In-place patch. The byte layout is stable because every patch replaces
     an instruction with one of the same encoded size (checked). The patch
     log lets compiled-code caches recompile exactly the rewritten slots. *)
  let patch t slot insn =
    assert (C.bytes insn = C.bytes (Vec.get t.code slot));
    Vec.set t.code slot insn;
    Vec.push t.patch_log slot;
    Obs.bump c_patches 1

  let patch_count t = Vec.length t.patch_log
  let patched_slot t i = Vec.get t.patch_log i

  let lookup t v_addr =
    let r = Hashtbl.find_opt t.by_ventry v_addr in
    (match r with
    | Some _ -> Obs.bump c_lookup_hits 1
    | None -> Obs.bump c_lookup_misses 1);
    r

  let is_translated t v_addr = Hashtbl.mem t.by_ventry v_addr

  (* O(1), allocation-free entry probe: fragment id of [slot] when it is a
     fragment entry, -1 otherwise (including out-of-range slots). *)
  let frag_id_of_entry t slot =
    if slot >= 0 && slot < Vec.length t.entry_ix then Vec.get t.entry_ix slot
    else -1

  let frag_by_id t id = Vec.get t.frags id

  let frag_of_entry t entry_slot =
    let id = frag_id_of_entry t entry_slot in
    if id >= 0 then Some (Vec.get t.frags id) else None

  (* Register a patch closure to run when [v_addr] gets translated; runs
     immediately if it already is. *)
  let on_translate t v_addr f =
    match Hashtbl.find_opt t.by_ventry v_addr with
    | Some entry -> f entry
    | None ->
      let old = Option.value ~default:[] (Hashtbl.find_opt t.pending v_addr) in
      Hashtbl.replace t.pending v_addr (f :: old)

  let add_pei t slot pei = Hashtbl.replace t.peis slot pei
  let pei_at t slot = Hashtbl.find_opt t.peis slot

  (* Declare a new fragment entry: binds the V-address, creates metadata,
     and fires any pending patches against this address. *)
  let install t ~v_start ~entry_slot =
    (* the entry-index stamp below relies on the entry slot being the very
       next slot pushed — which is how both translators call us *)
    assert (entry_slot = Vec.length t.code);
    let f =
      {
        id = Vec.length t.frags;
        entry_slot;
        v_start;
        n_slots = 0;
        v_insns = 0;
        v_bytes = 0;
        i_bytes = 0;
        exec_count = 0;
        cat_count = Array.make n_categories 0;
      }
    in
    Vec.push t.frags f;
    Obs.bump c_installs 1;
    Obs.set_max c_frags_hw (f.id + 1);
    Hashtbl.replace t.by_ventry v_start entry_slot;
    t.next_entry <- f.id;
    (match Hashtbl.find_opt t.pending v_start with
    | Some patches ->
      Hashtbl.remove t.pending v_start;
      List.iter (fun p -> p entry_slot) patches
    | None -> ());
    f

  (* Finish a fragment: record its slot extent and static sizes. *)
  let seal t (f : frag) =
    f.n_slots <- Vec.length t.code - f.entry_slot;
    let b = ref 0 in
    for s = f.entry_slot to Vec.length t.code - 1 do
      b := !b + C.bytes (Vec.get t.code s)
    done;
    f.i_bytes <- !b;
    Obs.observe h_frag_slots f.n_slots

  (* Flush: drop all fragments, code, patches and PEI tables (paper
     Section 4.1's Dynamo-style cache flush). The byte-address space
     restarts at [base]. *)
  let clear t =
    Obs.bump c_flushes 1;
    Vec.clear t.code;
    Vec.clear t.addr;
    Vec.clear t.strand_start;
    Vec.clear t.frags;
    Vec.clear t.entry_ix;
    (* [reset], not [clear]: the patch log fills during a generation and
       empties here, so retaining its high-water capacity across repeated
       flush cycles would leak the largest generation's allocation forever *)
    Vec.reset t.patch_log;
    t.next_entry <- -1;
    t.gen <- t.gen + 1;
    Hashtbl.reset t.by_ventry;
    Hashtbl.reset t.peis;
    Hashtbl.reset t.pending;
    t.next_addr <- t.base

  let patch_log_capacity t = Vec.capacity t.patch_log
  let pei_list t = Hashtbl.fold (fun slot p acc -> (slot, p) :: acc) t.peis []

  (* Reload the cache from snapshot contents (Persist subsystem). Like
     [clear] this starts a new generation — compiled-closure shadows key
     their validity on [gen] and must recompile from the restored slots —
     but it is not a flush: no flush telemetry, and the caller provides the
     complete replacement state. Slot byte addresses are recomputed from
     [base]; they are a deterministic function of the slot sequence, which
     is why the snapshot does not carry them. Pending patch closures are
     not restorable (they capture translator state); an unpatched
     call-translator slot safely exits to the VM, which re-registers the
     patch when the target translates again. *)
  let restore t ~code ~frags ~peis =
    Vec.clear t.code;
    Vec.clear t.addr;
    Vec.clear t.strand_start;
    Vec.clear t.frags;
    Vec.clear t.entry_ix;
    Vec.reset t.patch_log;
    t.next_entry <- -1;
    t.gen <- t.gen + 1;
    Hashtbl.reset t.by_ventry;
    Hashtbl.reset t.peis;
    Hashtbl.reset t.pending;
    t.next_addr <- t.base;
    Array.iter
      (fun (insn, strand_start) -> ignore (push ~strand_start t insn))
      code;
    Array.iter
      (fun (f : frag) ->
        assert (f.id = Vec.length t.frags);
        Vec.push t.frags f;
        Hashtbl.replace t.by_ventry f.v_start f.entry_slot;
        Vec.set t.entry_ix f.entry_slot f.id;
        Obs.set_max c_frags_hw (f.id + 1))
      frags;
    List.iter (fun (slot, p) -> Hashtbl.replace t.peis slot p) peis

  let fragments t = Vec.to_list t.frags

  (* Aggregate static translated bytes across all fragments. *)
  let total_i_bytes t =
    List.fold_left (fun acc f -> acc + f.i_bytes) 0 (fragments t)

  let total_v_bytes t =
    List.fold_left (fun acc f -> acc + f.v_bytes) 0 (fragments t)
end

module Acc = Make (struct
  type insn = Accisa.Insn.t

  let bytes = Accisa.Size.bytes
  let dummy = Accisa.Insn.Br { target = 0 }
end)

module Straight = Make (struct
  type insn = Alpha.Insn.t

  let bytes _ = 4
  let dummy = Alpha.Insn.Br (31, 0)
end)
