(* Quantized MLP inference: 3 dense layers (24 -> 16 -> 12 -> 8) in Q8
   fixed point. Weights, biases and per-pass inputs come from a
   deterministic xorshift64 PRNG clipped to int8 range; each layer is a
   fixed-point matmul, a rounding requantize (arithmetic shift by the Q8
   scale) and a ReLU (compiled to CMOVNE via [sel]). A running checksum
   per layer is the verified guest output, so the lockstep oracle and
   interpreter-verified sweeps cover the kernel like any SPEC analogue.

   The shape is the dense-ALU-strand / strided-memory workload the SPEC
   set barely covers: long multiply-accumulate chains over contiguous
   weight rows, a call per activation, and no data-dependent control
   flow inside the hot loops. *)

let name = "nn_mlp"

let description =
  "quantized 3-layer MLP inference (Q8 matmul + requantize + ReLU)"

let source ~scale =
  Printf.sprintf
    {|
int w1[384];
int w2[192];
int w3[96];
int b1[16];
int b2[12];
int b3[8];
int x[24];
int h1[16];
int h2[12];
int y[8];
int rng = 88172645463325252;
int c1 = 0;
int c2 = 0;
int c3 = 0;

// xorshift64, clipped to int8 range; >>> keeps the shift logical on
// negative 64-bit states
int next8() {
  rng ^= rng << 13;
  rng ^= rng >>> 7;
  rng ^= rng << 17;
  return (rng & 255) - 128;
}

// requantize from Q16 back to Q8 (round to nearest) + ReLU
int rq(int acc) {
  int v = (acc + 128) >> 8;
  return sel(v > 0, v, 0);
}

int main() {
  int passes = %d;
  int p;
  int i;
  int j;
  int acc;
  int base;
  for (i = 0; i < 384; i += 1) { w1[i] = next8(); }
  for (i = 0; i < 192; i += 1) { w2[i] = next8(); }
  for (i = 0; i < 96; i += 1) { w3[i] = next8(); }
  for (i = 0; i < 16; i += 1) { b1[i] = next8() << 4; }
  for (i = 0; i < 12; i += 1) { b2[i] = next8() << 4; }
  for (i = 0; i < 8; i += 1) { b3[i] = next8() << 4; }
  for (p = 0; p < passes; p += 1) {
    for (i = 0; i < 24; i += 1) { x[i] = next8(); }
    for (j = 0; j < 16; j += 1) {
      acc = b1[j];
      base = j * 24;
      for (i = 0; i < 24; i += 1) { acc += w1[base + i] * x[i]; }
      h1[j] = rq(acc);
      c1 = (c1 * 31 + h1[j]) & 0xffffff;
    }
    for (j = 0; j < 12; j += 1) {
      acc = b2[j];
      base = j * 16;
      for (i = 0; i < 16; i += 1) { acc += w2[base + i] * h1[i]; }
      h2[j] = rq(acc);
      c2 = (c2 * 31 + h2[j]) & 0xffffff;
    }
    for (j = 0; j < 8; j += 1) {
      acc = b3[j];
      base = j * 12;
      for (i = 0; i < 12; i += 1) { acc += w3[base + i] * h2[i]; }
      y[j] = rq(acc);
      c3 = (c3 * 31 + y[j]) & 0xffffff;
    }
  }
  print c1;
  print c2;
  print c3;
  print rng & 0xffffff;
  return 0;
}
|}
    (min 2000 (60 * scale))
