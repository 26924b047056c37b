(* Data-side memory hierarchy timing: L1 D-cache -> L2 -> memory.

   Latencies follow the paper's Table 1: 2-cycle L1D, 8-cycle L2, 72-cycle
   memory (the 64-bit wide 4-cycle burst is folded into the flat memory
   latency, as the simulated machines never exceed one outstanding refill in
   this first-order model). The ILDP machine replicates the L1 across
   processing elements; [replicate] builds the extra copies and [store_all]
   keeps them coherent the way the paper assumes (free store broadcast). *)

type cfg = {
  l1_size : int;
  l1_ways : int;
  l1_line : int;
  l1_lat : int;
  l2_size : int;
  l2_ways : int;
  l2_line : int;
  l2_lat : int;
  mem_lat : int;
}

let default_cfg =
  {
    l1_size = 32 * 1024;
    l1_ways = 4;
    l1_line = 64;
    l1_lat = 2;
    l2_size = 1024 * 1024;
    l2_ways = 4;
    l2_line = 128;
    l2_lat = 8;
    mem_lat = 72;
  }

(* 8 KiB 2-way replicated L1, the alternative ILDP configuration of Table 1. *)
let small_l1 cfg = { cfg with l1_size = 8 * 1024; l1_ways = 2 }

type t = { cfg : cfg; l1s : Cache.t array; l2 : Cache.t }

let create ?(replicas = 1) cfg =
  {
    cfg;
    l1s =
      Array.init replicas (fun i ->
          Cache.create
            ~name:(Printf.sprintf "L1D.%d" i)
            ~size:cfg.l1_size ~line:cfg.l1_line ~ways:cfg.l1_ways
            ~policy:Cache.Random);
    l2 =
      Cache.create ~name:"L2" ~size:cfg.l2_size ~line:cfg.l2_line
        ~ways:cfg.l2_ways ~policy:Cache.Random;
  }

let replicas t = Array.length t.l1s

(* Latency of a load issued from replica [pe]. *)
let load t ~pe addr =
  if Cache.access t.l1s.(pe) addr then t.cfg.l1_lat
  else if Cache.access t.l2 addr then t.cfg.l1_lat + t.cfg.l2_lat
  else t.cfg.l1_lat + t.cfg.l2_lat + t.cfg.mem_lat

(* Stores update every replica (write-allocate broadcast). Store latency is
   hidden by the store buffer in both machines, so we return only the L1
   access time for accounting purposes. *)
let store t addr =
  let missed_all = ref true in
  for pe = 0 to Array.length t.l1s - 1 do
    if Cache.access t.l1s.(pe) addr then missed_all := false
  done;
  ignore (Cache.access t.l2 addr);
  if !missed_all then t.cfg.l1_lat + t.cfg.l2_lat else t.cfg.l1_lat
