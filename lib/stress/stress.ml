module Rng = Machine.Rng
module Gen = Oracle.Gen

(* Adversarial generators aimed at the translator. See the interface. *)

type arm = Flush_storm | Megamorphic | Call_tower

let all_arms = [ Flush_storm; Megamorphic; Call_tower ]

let arm_name = function
  | Flush_storm -> "flush-storm"
  | Megamorphic -> "megamorphic"
  | Call_tower -> "call-tower"

(* Phase-switching storm: the selector [(t8 >> 4) & 7] holds each of the
   eight phases for 16 consecutive iterations, long enough to get the
   phase's trace translated and its closures compiled before control
   migrates to the next phase and grows the cache again.
   Phases are fat (8–12 ALU lines) so each one costs real slots. *)
let flush_storm rng k : Gen.block =
  let n_phases = 8 in
  let phase i = Printf.sprintf "stf%dp%d" k i in
  let join = Printf.sprintf "stf%dj" k in
  let tab = Printf.sprintf "stf%dt" k in
  let text =
    [ "srl t8, 4, t10";
      Printf.sprintf "and t10, %d, t10" (n_phases - 1);
      Printf.sprintf "la t9, %s" tab;
      "s8addq t10, t9, t10";
      "ldq t10, 0(t10)";
      "jmp (t10)" ]
    @ List.concat
        (List.init n_phases (fun i ->
             [ phase i ^ ":" ]
             @ Gen.alu_lines rng (8 + Rng.int rng 5)
             @ [ Printf.sprintf "br %s" join ]))
    @ [ join ^ ":" ]
  in
  let data =
    [ "  .align 8"; tab ^ ":" ]
    @ List.init n_phases (fun i -> Printf.sprintf "  .quad %s" (phase i))
  in
  { Gen.text; procs = []; data }

(* Megamorphic indirect jump: the target cycles through all 16 cases, one
   per iteration, so whichever single target the translator predicted is
   wrong 15 times out of 16 and the transfer falls through to dispatch. *)
let megamorphic rng k : Gen.block =
  let n_cases = 16 in
  let case i = Printf.sprintf "stm%dc%d" k i in
  let join = Printf.sprintf "stm%dj" k in
  let tab = Printf.sprintf "stm%dt" k in
  let text =
    [ Printf.sprintf "and t8, %d, t10" (n_cases - 1);
      Printf.sprintf "la t9, %s" tab;
      "s8addq t10, t9, t10";
      "ldq t10, 0(t10)";
      "jmp (t10)" ]
    @ List.concat
        (List.init n_cases (fun i ->
             [ case i ^ ":" ]
             @ Gen.alu_lines rng (1 + Rng.int rng 2)
             @ [ Printf.sprintf "br %s" join ]))
    @ [ join ^ ":" ]
  in
  let data =
    [ "  .align 8"; tab ^ ":" ]
    @ List.init n_cases (fun i -> Printf.sprintf "  .quad %s" (case i))
  in
  { Gen.text; procs = []; data }

(* Call tower: a straight chain of calls 16–24 deep. The dual RAS holds 8
   entries, so by the bottom of the tower the outer return addresses have
   all been evicted — every iteration the 8 innermost returns hit and the
   rest miss, verifying through the dispatch path. *)
let call_tower rng k : Gen.block =
  let d = 16 + Rng.int rng 9 in
  let fn i = Printf.sprintf "stc%df%d" k i in
  let procs =
    List.concat
      (List.init d (fun i ->
           [ fn i ^ ":"; "subq sp, 16, sp"; "stq ra, 8(sp)" ]
           @ Gen.alu_lines rng (1 + Rng.int rng 2)
           @ (if i + 1 < d then [ Printf.sprintf "bsr ra, %s" (fn (i + 1)) ]
              else [])
           @ [ "ldq ra, 8(sp)"; "addq sp, 16, sp"; "ret" ]))
  in
  { Gen.text = [ Printf.sprintf "bsr ra, %s" (fn 0) ]; procs; data = [] }

let block arm rng k =
  match arm with
  | Flush_storm -> flush_storm rng k
  | Megamorphic -> megamorphic rng k
  | Call_tower -> call_tower rng k

let single ?(iters = 256) arm ~seed : Gen.program =
  let rng = Rng.create seed in
  { Gen.seed; iters; blocks = [ block arm rng 0 ] }

let generate ~seed : Gen.program =
  let rng = Rng.create seed in
  let iters = 192 + Rng.int rng 128 in
  let n_blocks = 1 + Rng.int rng 3 in
  let blocks =
    List.init n_blocks (fun k ->
        match Rng.int rng 3 with
        | 0 -> flush_storm rng k
        | 1 -> megamorphic rng k
        | _ -> call_tower rng k)
  in
  { Gen.seed; iters; blocks }

let workloads =
  [ ("stress_flush", Flush_storm);
    ("stress_mega", Megamorphic);
    ("stress_tower", Call_tower) ]

let workload_names = List.map fst workloads

let find_workload name =
  List.assoc_opt name workloads
  |> Option.map (fun arm ->
         fun ~scale -> Gen.assemble (single ~iters:(256 * max 1 scale) arm ~seed:7))
