module Memory = Machine.Memory
module Vec = Machine.Vec
module Cell = Machine.Cell

(* Functional execution engines for translated code, written once for both
   I-ISAs.

   Architected Alpha registers are shared with the interpreter's register
   file (the VM keeps one architected state); the backend's own registers
   (accumulators, VM scratch registers) and the dual-address RAS belong to
   the engine. Execution proceeds slot by slot through the translation
   cache until a call-translator instruction (or a fuel bound) hands
   control back to the VM.

   Every cache slot is compiled once into a specialized OCaml closure (an
   {!op}), with operand reads, the destination write and the ALU operation
   resolved to register cells at compile time. The ops are the one
   per-slot semantics of an I-ISA, and two loops run them:

   - the sink-less {e trampoline}, a tight [(Array.unsafe_get ops slot) t]
     loop for functional runs;
   - the {e evented} loop, taken when a timing sink is attached: it runs
     the same ops and streams one {!Machine.Ev.t} per executed slot into
     the sink. Each slot's event is a template built from its static facts
     the first time the slot runs ({!BACKEND.template}); every execution
     rewrites only the dynamic facts in place, so the loop allocates
     nothing. The facts an op does not return are derived around the
     call: the effective address is read from the base cell before the op
     runs ({!BACKEND.ea}), whether a transfer was taken is derived from
     the op's result code ({!BACKEND.taken}), and a dual-RAS return hit
     when the op returned [ret_dynamic].

   [Make] owns everything that does not depend on the instruction set: the
   engine record, the closure shadow of the cache with its patch replay,
   both loops (statistics and budget, fragment-entry accounting, the sink
   call, the fuel stop) and precise-trap repair. A {!BACKEND} supplies the
   rest: its registers, the per-slot closure compiler, the event facts, the
   PEI repair and the dispatch-miss target. {!Exec_acc} and
   {!Exec_straight} are its two applications.

   Precise traps: a memory fault inside a fragment looks up the PEI table
   entry for the faulting slot, lets the backend restore any architected
   values still live in its own registers, sets the interpreter's PC to the
   V-ISA instruction, and reports [X_trap_recovered]; the VM then
   re-executes that instruction by interpretation, which raises the
   architectural trap with fully precise state. *)

type stats = {
  mutable i_exec : int; (* I-ISA instructions executed *)
  by_class : int array; (* per Translate.slot_class *)
  mutable alpha_retired : int; (* V-ISA instructions retired in fragments *)
  mutable frag_enters : int;
  mutable ret_dras_hits : int;
  mutable ret_dras_misses : int;
}

type exit =
  | X_reason of Exitr.reason
  | X_trap_recovered (* interpreter PC set to the faulting V-instruction *)
  | X_fuel

type ('ctx, 'regs) t = {
  ctx : 'ctx;
  regs : 'regs; (* the backend's own registers *)
  interp : Alpha.Interp.t; (* shares architected registers and memory *)
  dras : Machine.Dual_ras.t;
  mutable vbase : int;
  stats : stats;
  mutable budget : int; (* V-ISA retirement budget of the current run *)
  mutable target : int; (* slot a [ret_dynamic] transfer goes to *)
  mutable ops : ('ctx, 'regs) op array; (* compiled slots [0, ops_len) *)
  mutable alphas : int array; (* per-slot V-ISA retirement, ops-parallel *)
  mutable classes : int array; (* per-slot Translate.slot_class, ops-parallel *)
  mutable evs : Machine.Ev.t array;
      (* per-slot event template, ops-parallel once the evented loop has
         run ([||] before); {!Machine.Ev.no_template} until that loop first
         runs the slot *)
  mutable ops_len : int;
  mutable ops_gen : int; (* Tcache generation the compiled prefix shadows *)
  mutable patch_mark : int; (* patch-log entries already recompiled *)
  mutable flushed : bool; (* a cache flush has dropped a compiled shadow *)
  mutable recompiled : int; (* slots compiled since that first flush *)
}

and ('ctx, 'regs) op = ('ctx, 'regs) t -> int

(* Result protocol of a compiled op: a value >= 0 is the next slot,
   reached through a static (compile-time checked) edge; [ret_fault]
   reports a memory fault at the current slot, which the engine turns into
   a precise-trap repair; [ret_dynamic] transfers to the
   register-valued slot left in [target], which the engine validates and
   counts as a fragment entry; [ret_exit id] names an entry of the exit
   table. *)
let ret_fault = -1
let ret_dynamic = -2
let ret_exit exit_id = -(exit_id + 3)

(* ---------- guest memory ---------- *)

(* Guest-memory moves between memory and a register cell, by access width
   in bytes. Only 4-byte loads sign-extend ([signed]); narrower loads
   zero-extend. The returned functions are closed, so selecting one
   allocates nothing, and the value never leaves a cell, so running one
   allocates nothing either. *)
let load_into ~bytes ~signed : Memory.t -> int -> Cell.t -> int -> unit =
  match bytes with
  | 8 -> Memory.get_i64_into
  | 4 when signed ->
    fun m a c o ->
      Cell.set c o (Int64.of_int32 (Int32.of_int (Memory.get_u32 m a)))
  | 4 -> fun m a c o -> Cell.set c o (Int64.of_int (Memory.get_u32 m a))
  | 2 -> fun m a c o -> Cell.set c o (Int64.of_int (Memory.get_u16 m a))
  | _ -> fun m a c o -> Cell.set c o (Int64.of_int (Memory.get_u8 m a))

let store_from ~bytes : Memory.t -> int -> Cell.t -> int -> unit =
  match bytes with
  | 8 -> Memory.set_i64_from
  | 4 ->
    fun m a c o ->
      Memory.set_u32 m a (Int64.to_int (Cell.get c o) land 0xffffffff)
  | 2 ->
    fun m a c o -> Memory.set_u16 m a (Int64.to_int (Cell.get c o) land 0xffff)
  | _ ->
    fun m a c o -> Memory.set_u8 m a (Int64.to_int (Cell.get c o) land 0xff)

(* Effective address of an access whose base register is the cell at
   [off] in [file]. *)
let ea_of_cell file off disp =
  (Int64.to_int (Cell.get file off) + disp) land Alpha.Interp.addr_mask

(* ---------- shared slot helpers ---------- *)

(* Single source of truth for fragment-entry accounting. *)
let enter_fragment t (f : Tcache.frag) =
  f.exec_count <- f.exec_count + 1;
  t.stats.frag_enters <- t.stats.frag_enters + 1

(* Static branch targets are validated when their slot is compiled, so the
   trampoline's unchecked [ops] indexing stays safe. *)
let check_static ~n_slots ~slot target =
  if target < 0 || target >= n_slots then
    invalid_arg
      (Printf.sprintf "exec: slot %d branches to invalid slot %d" slot target)

(* A register-valued transfer to [target]. *)
let jump t target =
  t.target <- target;
  ret_dynamic

(* Dynamic transfer targets are validated when they are taken. *)
let check_slot t n =
  if n < 0 || n >= t.ops_len then
    invalid_arg "exec: indirect transfer to an invalid slot";
  n

let uncompiled_op _ = failwith "exec: uncompiled slot"

(* Dual-RAS return: a verified pop jumps to the paired slot; a stale or
   unpatched pair, or an empty stack, falls through to the dispatch code
   that follows every dual-RAS return. *)
let ret_dras t ~v_actual ~next =
  match Machine.Dual_ras.pop_verify t.dras ~v_actual with
  | Some i ->
    t.stats.ret_dras_hits <- t.stats.ret_dras_hits + 1;
    jump t i
  | None ->
    t.stats.ret_dras_misses <- t.stats.ret_dras_misses + 1;
    next

(* ---------- closure shapes shared by both slot compilers ---------- *)

(* Compile-time operand location: one register cell, [off] bytes into
   [file]. A read of r31 resolves to its never-written zero cell, a write
   to r31 to the interpreter's discard cell, and a constant to a constant
   cell of its own, so every operand is read and written the same way and
   the closures built from locs touch no variants and allocate nothing. *)
type loc = { file : Cell.t; off : int }

let const v = { file = Cell.const v; off = 0 }

(* Direct branch; the target's entry status is static, so its fragment is
   resolved at compile time ([entry]). *)
let br_op entry target : _ op =
  match entry with
  | Some f ->
    fun t ->
      enter_fragment t f;
      target
  | None -> fun _ -> target

let bc_op entry cond (v : loc) ~target ~next : _ op =
  let c = Alpha.Insn.cond_cell cond and x = v.file and i = v.off in
  match entry with
  | Some f ->
    fun t ->
      if c x i then begin
        enter_fragment t f;
        target
      end
      else next
  | None -> fun _ -> if c x i then target else next

(* Register-indirect jump to the slot held in [v]. *)
let jump_op (v : loc) : _ op =
  let x = v.file and i = v.off in
  fun t -> jump t (Int64.to_int (Cell.get x i))

let ret_dras_op (v : loc) ~next : _ op =
  let x = v.file and i = v.off in
  fun t -> ret_dras t ~v_actual:(Int64.to_int (Cell.get x i)) ~next

(* Register move (or constant materialization) from [src] to [dst]. *)
let copy_op ~(src : loc) ~(dst : loc) ~next : _ op =
  let xs = src.file and is = src.off and xd = dst.file and id = dst.off in
  fun _ ->
    Cell.set xd id (Cell.get xs is);
    next

(* Push-dual-RAS after the return-address register write; only the
   [Sw_pred_ras] configuration has the hardware stack. An unpatched push
   (return point untranslated at emission time) encodes its missing
   I-address as a negative immediate. The I-address option is built here,
   once, so executing the push allocates nothing. *)
let push_dras_op (chaining : Config.chaining) (dst : loc) ~v_ret ~i_ret ~next
    : _ op =
  let vr = Int64.of_int v_ret and x = dst.file and i = dst.off in
  match chaining with
  | Sw_pred_ras ->
    let i_addr = if i_ret >= 0 then Some i_ret else None in
    fun t ->
      Cell.set x i vr;
      Machine.Dual_ras.push t.dras ~v_addr:v_ret ~i_addr;
      next
  | No_pred | Sw_pred_no_ras ->
    fun _ ->
      Cell.set x i vr;
      next

(* Load into one cell. Address faults surface as [ret_fault]. *)
let load_op mem ~bytes ~signed ~(base : loc) ~disp ~next (dst : loc) : _ op =
  let ld = load_into ~bytes ~signed and amask = bytes - 1 in
  let xb = base.file and ib = base.off and xd = dst.file and id = dst.off in
  fun _ ->
    let addr = ea_of_cell xb ib disp in
    if addr land amask <> 0 then ret_fault
    else
      match ld mem addr xd id with
      | () -> next
      | exception Memory.Fault _ -> ret_fault

let store_op mem ~bytes ~(value : loc) ~(base : loc) ~disp ~next : _ op =
  let st = store_from ~bytes and amask = bytes - 1 in
  let xv = value.file and iv = value.off and xb = base.file and ib = base.off in
  fun _ ->
    let addr = ea_of_cell xb ib disp in
    if addr land amask <> 0 then ret_fault
    else
      match st mem addr xv iv with
      | () -> next
      | exception Memory.Fault _ -> ret_fault

(* Conditional call-translator exit. *)
let exit_cond_op cond (v : loc) ~exit_id ~next : _ op =
  let c = Alpha.Insn.cond_cell cond and x = v.file and i = v.off in
  let code = ret_exit exit_id in
  fun _ -> if c x i then code else next

(* Telemetry (one VM owns one engine, so the registry aggregates whichever
   backend ran). *)
let c_compiles = Obs.counter "engine.compiled_slots"
let c_replays = Obs.counter "engine.patch_replays"
let sp_compile = Obs.span "compile_to_closure"

(* ---------- backends ---------- *)

(* The translation-cache queries the engine makes; {!Tcache.Make}'s
   instances provide them. *)
module type CACHE = sig
  type t

  val n_slots : t -> int
  val generation : t -> int
  val patch_count : t -> int
  val patched_slot : t -> int -> int
  val frag_id_of_entry : t -> int -> int
  val frag_by_id : t -> int -> Tcache.frag
  val addr_of : t -> int -> int
end

module type BACKEND = sig
  type ctx (* the translator's context *)
  type regs

  module Tc : CACHE

  val tc : ctx -> Tc.t
  val exits : ctx -> Exitr.reason Vec.t
  val slot_alpha : ctx -> int Vec.t
  val slot_class : ctx -> int Vec.t
  val regs : unit -> regs

  val compile : (ctx, regs) t -> int -> (ctx, regs) op
  (** Specialized closure of one cache slot. Runs after translation of the
      current region is complete, so every static branch target exists and
      the entry status of every existing slot is final. The closure does
      the slot's work only: per-slot statistics and the budget live in the
      loops. *)

  val ea : (ctx, regs) t -> int -> int
  (** Effective address of the memory access at a slot, read from its base
      cell before the op runs (so a load that overwrites its own base, and
      a faulting access, still report it); 0 for any other slot. *)

  val template : (ctx, regs) t -> int -> alpha:int -> Machine.Ev.t
  (** A fresh event carrying a slot's static facts (address, size, class,
      register tokens, steering, prediction kind) and its V-ISA retirement
      [alpha]. The loop fills in the dynamic facts on every execution. *)

  val taken : (ctx, regs) t -> int -> res:int -> bool
  (** Whether the slot whose op just returned [res] transferred control,
      derived from [res] and the slot's instruction. *)

  val repair : (ctx, regs) t -> int -> int option
  (** PEI repair at a faulting slot: restore architected values the backend
      still holds and return the faulting V-ISA PC. *)

  val dispatch_target : (ctx, regs) t -> int
  (** Dynamic target V-address held when the dispatch code misses. *)
end

module Make (B : BACKEND) = struct
  type nonrec t = (B.ctx, B.regs) t
  type nonrec op = (B.ctx, B.regs) op

  let create ctx interp : t =
    Translate.map_vm_memory interp.Alpha.Interp.mem;
    {
      ctx;
      regs = B.regs ();
      interp;
      dras = Machine.Dual_ras.create ();
      vbase = 0;
      stats =
        {
          i_exec = 0;
          by_class = Array.make 4 0;
          alpha_retired = 0;
          frag_enters = 0;
          ret_dras_hits = 0;
          ret_dras_misses = 0;
        };
      budget = 0;
      target = 0;
      ops = [||];
      alphas = [||];
      classes = [||];
      evs = [||];
      ops_len = 0;
      ops_gen = -1;
      patch_mark = 0;
      flushed = false;
      recompiled = 0;
    }

  let dispatch_target = B.dispatch_target

  (* Fragment-entry accounting for a target known only at run time: O(1)
     probe of the cache's slot-indexed entry map. *)
  let enter_dynamic t target =
    let tc = B.tc t.ctx in
    let id = B.Tc.frag_id_of_entry tc target in
    if id >= 0 then enter_fragment t (B.Tc.frag_by_id tc id)

  (* Cold fault path: the faulting V-ISA instruction does not commit here
     (the VM re-executes it by interpretation), so take back the one
     retirement credit its slot claimed for it. Credits for earlier
     straightened-away instructions folded into the same slot did commit
     and stay counted. *)
  let faulted t s =
    t.stats.alpha_retired <- t.stats.alpha_retired - 1;
    t.budget <- t.budget + 1;
    match B.repair t s with
    | Some v_pc ->
      t.interp.pc <- v_pc;
      X_trap_recovered
    | None -> failwith "exec: fault at a slot with no PEI entry"

  (* The run ends at slot [s] with result [n] (a fault or an exit). *)
  let stop t s n =
    if n = ret_fault then faulted t s
    else X_reason (Vec.get (B.exits t.ctx) (-n - 3))

  (* Lazily (re)build the compiled-op shadow of the translation cache: reset
     on cache flush (generation bump), compile newly pushed slots, then
     recompile every slot patched since the last sync (chaining patches
     rewrite call-translator slots into direct branches). Event templates
     follow the ops: a flush drops them all, and a recompiled slot's
     template goes back to {!Machine.Ev.no_template}, so the evented loop
     rebuilds it from the patched instruction. *)
  let sync_ops t =
    let tc = B.tc t.ctx in
    let gen = B.Tc.generation tc in
    if t.ops_gen <> gen then begin
      if t.ops_len > 0 then t.flushed <- true;
      t.ops <- [||];
      t.evs <- [||];
      t.ops_len <- 0;
      t.patch_mark <- 0;
      t.ops_gen <- gen
    end;
    let n = B.Tc.n_slots tc in
    if n > Array.length t.ops then begin
      let cap = ref (max 1024 (Array.length t.ops)) in
      while !cap < n do
        cap := !cap * 2
      done;
      let grown = Array.make !cap uncompiled_op in
      Array.blit t.ops 0 grown 0 t.ops_len;
      t.ops <- grown;
      let ga = Array.make !cap 0 and gc = Array.make !cap 0 in
      Array.blit t.alphas 0 ga 0 t.ops_len;
      Array.blit t.classes 0 gc 0 t.ops_len;
      t.alphas <- ga;
      t.classes <- gc
    end;
    (* compile fresh slots first so late patches to them recompile below *)
    let m = B.Tc.patch_count tc in
    if n > t.ops_len || m > t.patch_mark then
      Obs.with_span sp_compile (fun () ->
          Obs.bump c_compiles (n - t.ops_len);
          if t.flushed then t.recompiled <- t.recompiled + (n - t.ops_len);
          let slot_alpha = B.slot_alpha t.ctx
          and slot_class = B.slot_class t.ctx in
          for sl = t.ops_len to n - 1 do
            Array.unsafe_set t.ops sl (B.compile t sl);
            Array.unsafe_set t.alphas sl (Vec.get slot_alpha sl);
            Array.unsafe_set t.classes sl (Vec.get slot_class sl)
          done;
          t.ops_len <- n;
          for i = t.patch_mark to m - 1 do
            let sl = B.Tc.patched_slot tc i in
            if sl < n then begin
              t.ops.(sl) <- B.compile t sl;
              if sl < Array.length t.evs then
                t.evs.(sl) <- Machine.Ev.no_template;
              Obs.bump c_replays 1
            end
          done;
          t.patch_mark <- m)

  (* Both loops: exactly one indirect call per executed slot. Statistics
     and the budget decrement happen before the op runs (the fault path
     refunds the faulting instruction's credit). An exit taken on the very
     slot that exhausts the budget wins over [X_fuel]. *)
  let start ?(fuel = max_int) t ~entry =
    sync_ops t;
    if entry < 0 || entry >= t.ops_len then
      invalid_arg "exec: entry is not a translated slot";
    t.budget <- fuel;
    enter_dynamic t entry

  (* Sink-less trampoline. *)
  let run_threaded ?fuel t ~entry : exit =
    start ?fuel t ~entry;
    let ops = t.ops and alphas = t.alphas and classes = t.classes in
    let st = t.stats in
    let by_class = st.by_class in
    let rec loop slot =
      st.i_exec <- st.i_exec + 1;
      let cls = Array.unsafe_get classes slot in
      Array.unsafe_set by_class cls (Array.unsafe_get by_class cls + 1);
      let a = Array.unsafe_get alphas slot in
      st.alpha_retired <- st.alpha_retired + a;
      t.budget <- t.budget - a;
      let n = (Array.unsafe_get ops slot) t in
      if n >= 0 then if t.budget <= 0 then X_fuel else loop n
      else if n = ret_dynamic then begin
        let n = check_slot t t.target in
        enter_dynamic t n;
        if t.budget <= 0 then X_fuel else loop n
      end
      else stop t slot n
    in
    loop entry

  (* The template array grows to the shadow's capacity when the evented
     loop starts, so sink-less runs never allocate it. Templates already
     built stay valid: a flush empties the array. *)
  let sync_evs t =
    let cap = Array.length t.ops in
    if Array.length t.evs < cap then begin
      let ge = Array.make cap Machine.Ev.no_template in
      Array.blit t.evs 0 ge 0 (Array.length t.evs);
      t.evs <- ge
    end

  (* Evented loop: the trampoline plus one sink call per executed slot,
     made after the slot's transfer (or its exit or fault) resolved. The
     sink gets the slot's template with this execution's dynamic facts
     written in. *)
  let run_evented (sink : Machine.Ev.t -> unit) ?fuel t ~entry : exit =
    start ?fuel t ~entry;
    sync_evs t;
    let tc = B.tc t.ctx in
    let ops = t.ops and alphas = t.alphas and classes = t.classes in
    let evs = t.evs in
    let st = t.stats in
    let by_class = st.by_class in
    let rec loop slot =
      st.i_exec <- st.i_exec + 1;
      let cls = Array.unsafe_get classes slot in
      Array.unsafe_set by_class cls (Array.unsafe_get by_class cls + 1);
      let alpha = Array.unsafe_get alphas slot in
      st.alpha_retired <- st.alpha_retired + alpha;
      t.budget <- t.budget - alpha;
      let ev = Array.unsafe_get evs slot in
      let ev =
        if ev != Machine.Ev.no_template then ev
        else begin
          let e = B.template t slot ~alpha in
          Array.unsafe_set evs slot e;
          e
        end
      in
      ev.ea <- B.ea t slot;
      let res = (Array.unsafe_get ops slot) t in
      ev.taken <- B.taken t slot ~res;
      (match ev.pred with
      | Machine.Ev.P_dras_ret _ ->
        ev.pred <-
          (if res = ret_dynamic then Machine.Ev.p_dras_hit
           else Machine.Ev.p_dras_miss)
      | _ -> ());
      if res >= 0 || res = ret_dynamic then begin
        let next = if res >= 0 then res else check_slot t t.target in
        if res = ret_dynamic then enter_dynamic t next;
        ev.target <- B.Tc.addr_of tc next;
        sink ev;
        if t.budget <= 0 then X_fuel else loop next
      end
      else begin
        let r = stop t slot res in
        ev.target <- B.Tc.addr_of tc slot + 4;
        sink ev;
        r
      end
    in
    loop entry

  (* A timing sink needs per-instruction events, which only the evented
     loop produces. *)
  let run ?sink ?fuel t ~entry : exit =
    match sink with
    | Some f -> run_evented f ?fuel t ~entry
    | None -> run_threaded ?fuel t ~entry
end
