(* Binary writer/reader for the snapshot format. Little-endian throughout;
   see the interface for the error contract. *)

exception Error of string

(* ---------- writer ---------- *)

type writer = Buffer.t

let writer () = Buffer.create 4096
let contents w = Buffer.contents w

let u8 w v =
  if v < 0 || v > 0xff then invalid_arg "Bin_io.u8";
  Buffer.add_char w (Char.chr v)

let u32 w v =
  if v < 0 || v > 0xffffffff then invalid_arg "Bin_io.u32";
  Buffer.add_char w (Char.chr (v land 0xff));
  Buffer.add_char w (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char w (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char w (Char.chr ((v lsr 24) land 0xff))

let i64 w v =
  for i = 0 to 7 do
    Buffer.add_char w
      (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
  done

let int w v = i64 w (Int64.of_int v)
let bool w v = u8 w (if v then 1 else 0)

let str w s =
  u32 w (String.length s);
  Buffer.add_string w s

let raw w s = Buffer.add_string w s

(* ---------- reader ---------- *)

type reader = { data : string; mutable pos : int }

let reader data = { data; pos = 0 }
let pos r = r.pos
let eof r = r.pos >= String.length r.data
let remaining r = String.length r.data - r.pos

let error r fmt =
  Printf.ksprintf (fun s -> raise (Error (Printf.sprintf "byte %d: %s" r.pos s))) fmt

let need r n =
  if r.pos + n > String.length r.data then
    error r "truncated input (need %d bytes, %d left)" n
      (String.length r.data - r.pos)

let read_u8 r =
  need r 1;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let read_u32 r =
  need r 4;
  let b i = Char.code r.data.[r.pos + i] in
  let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  r.pos <- r.pos + 4;
  v

let read_i64 r =
  need r 8;
  let v = ref 0L in
  for i = 7 downto 0 do
    v :=
      Int64.logor
        (Int64.shift_left !v 8)
        (Int64.of_int (Char.code r.data.[r.pos + i]))
  done;
  r.pos <- r.pos + 8;
  !v

let read_int r = Int64.to_int (read_i64 r)

let read_bool r =
  match read_u8 r with
  | 0 -> false
  | 1 -> true
  | v -> error r "invalid boolean byte %#x" v

let read_bytes r n =
  need r n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let read_str r =
  let n = read_u32 r in
  read_bytes r n

(* ---------- CRC-32 (IEEE 802.3, reflected) ---------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xffffffff in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xffffffff
