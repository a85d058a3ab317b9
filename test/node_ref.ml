(* Reference model of the B+Tree node: a decoded record with one spare
   slot per array and an explicit 512-byte codec. [Pbptree.Node] edits the
   image in place; the node byte-image property checks that every edit
   leaves the same bytes as this model's [encode]. *)

let fanout = Asym_structs.Pbptree.fanout
let max_keys = Asym_structs.Pbptree.max_keys

type t = {
  leaf : bool;
  mutable nkeys : int;
  keys : int64 array;  (* max_keys (+ 1 spare) *)
  children : int array;  (* fanout (+ 1 spare), internal only *)
  mutable next : int;  (* leaf only *)
  vals : int array;  (* max_keys (+ 1 spare), leaf only *)
}

let node_bytes = 512

let empty leaf =
  {
    leaf;
    nkeys = 0;
    keys = Array.make (max_keys + 1) 0L;
    children = Array.make (fanout + 1) 0;
    next = 0;
    vals = Array.make (max_keys + 1) 0;
  }

let encode n =
  assert (n.nkeys <= max_keys);
  let b = Bytes.make node_bytes '\000' in
  Bytes.set_uint8 b 0 (if n.leaf then 1 else 2);
  Bytes.set_uint8 b 1 n.nkeys;
  if n.leaf then begin
    Bytes.set_int64_le b 8 (Int64.of_int n.next);
    for i = 0 to max_keys - 1 do
      Bytes.set_int64_le b (16 + (8 * i)) n.keys.(i);
      Bytes.set_int64_le b (264 + (8 * i)) (Int64.of_int n.vals.(i))
    done
  end
  else
    for i = 0 to fanout - 1 do
      if i < max_keys then Bytes.set_int64_le b (8 + (8 * i)) n.keys.(i);
      Bytes.set_int64_le b (256 + (8 * i)) (Int64.of_int n.children.(i))
    done;
  b

let decode b =
  let leaf = Bytes.get_uint8 b 0 = 1 in
  let n = empty leaf in
  n.nkeys <- Bytes.get_uint8 b 1;
  if leaf then begin
    n.next <- Int64.to_int (Bytes.get_int64_le b 8);
    for i = 0 to max_keys - 1 do
      n.keys.(i) <- Bytes.get_int64_le b (16 + (8 * i));
      n.vals.(i) <- Int64.to_int (Bytes.get_int64_le b (264 + (8 * i)))
    done
  end
  else
    for i = 0 to fanout - 1 do
      if i < max_keys then n.keys.(i) <- Bytes.get_int64_le b (8 + (8 * i));
      n.children.(i) <- Int64.to_int (Bytes.get_int64_le b (256 + (8 * i)))
    done;
  n

let child_index n key =
  let rec go i = if i < n.nkeys && n.keys.(i) <= key then go (i + 1) else i in
  go 0

let leaf_pos n key =
  let rec go i = if i < n.nkeys && n.keys.(i) < key then go (i + 1) else i in
  go 0

let leaf_insert_at n pos key valptr =
  for i = n.nkeys downto pos + 1 do
    n.keys.(i) <- n.keys.(i - 1);
    n.vals.(i) <- n.vals.(i - 1)
  done;
  n.keys.(pos) <- key;
  n.vals.(pos) <- valptr;
  n.nkeys <- n.nkeys + 1

let leaf_remove_at n pos =
  for i = pos to n.nkeys - 2 do
    n.keys.(i) <- n.keys.(i + 1);
    n.vals.(i) <- n.vals.(i + 1)
  done;
  n.nkeys <- n.nkeys - 1

let internal_insert_at n pos key child =
  for i = n.nkeys downto pos + 1 do
    n.keys.(i) <- n.keys.(i - 1)
  done;
  for i = n.nkeys + 1 downto pos + 2 do
    n.children.(i) <- n.children.(i - 1)
  done;
  n.keys.(pos) <- key;
  n.children.(pos + 1) <- child;
  n.nkeys <- n.nkeys + 1

(* Split [n] in two, zeroing the slots it vacates. *)
let split n =
  let right = empty n.leaf in
  if n.leaf then begin
    let half = n.nkeys / 2 in
    let moved = n.nkeys - half in
    for i = 0 to moved - 1 do
      right.keys.(i) <- n.keys.(half + i);
      right.vals.(i) <- n.vals.(half + i);
      n.keys.(half + i) <- 0L;
      n.vals.(half + i) <- 0
    done;
    right.nkeys <- moved;
    n.nkeys <- half;
    right.next <- n.next;
    (right.keys.(0), right)
  end
  else begin
    let mid = n.nkeys / 2 in
    let sep = n.keys.(mid) in
    let moved = n.nkeys - mid - 1 in
    for i = 0 to moved - 1 do
      right.keys.(i) <- n.keys.(mid + 1 + i);
      n.keys.(mid + 1 + i) <- 0L
    done;
    for i = 0 to moved do
      right.children.(i) <- n.children.(mid + 1 + i);
      n.children.(mid + 1 + i) <- 0
    done;
    right.nkeys <- moved;
    n.keys.(mid) <- 0L;
    n.nkeys <- mid;
    (sep, right)
  end
