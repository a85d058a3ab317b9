open Asym_util

type op = Push of bytes | Pop | Put of int64 * bytes | Get of int64

type t = {
  rng : Rng.t;
  zipf : Zipf.t;
  kind : [ `Kv of float | `Fifo of float ];
  max_value : int;
}

let create ?(keyspace = 100_000) ?(max_value = 8192) ~kind rng =
  (* Power-law popularity: the paper's traces "satisfy the power-law
     distribution"; theta 0.99 is the conventional heavy-tail setting. *)
  { rng; zipf = Zipf.create ~theta:0.99 ~n:keyspace (Rng.split rng); kind; max_value }

(* Value sizes 64 B - 8 KB with a power-law tail: most values small. *)
let value_size t =
  let u = Rng.float t.rng in
  let exponent = 2.0 in
  let lo = 64.0 and hi = float_of_int t.max_value in
  let x = lo /. ((1.0 -. (u *. (1.0 -. ((lo /. hi) ** exponent)))) ** (1.0 /. exponent)) in
  min t.max_value (max 64 (int_of_float x))

(* Keys "hashed to 64 bytes" in the trace; we keep the 8-byte hash the
   structures index by. *)
let hashed_key t = Int64.of_int (Zipf.next_scrambled t.zipf)

(* Zero-filled: the bytes past the 8-byte tag reach the media, so they
   must not depend on what the allocator left in the buffer. *)
let value t =
  let n = value_size t in
  let b = Bytes.make n '\000' in
  Bytes.set_int64_le b 0 (Rng.next_int64 t.rng);
  b

let next t =
  match t.kind with
  | `Fifo push_ratio -> if Rng.float t.rng < push_ratio then Push (value t) else Pop
  | `Kv put_ratio ->
      let k = hashed_key t in
      if Rng.float t.rng < put_ratio then Put (k, value t) else Get k
