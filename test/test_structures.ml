open Asym_sim
open Asym_core
open Asym_structs

let check = Alcotest.check
let lat = Latency.default

let mk_backend ?(capacity = 32 * 1024 * 1024) () =
  Backend.create ~name:"bk" ~max_sessions:8 ~memlog_cap:(1024 * 1024) ~oplog_cap:(512 * 1024)
    ~slab_size:4096 ~capacity lat

let mk_client ?(cfg = Client.rcb ()) ?(name = "fe") bk =
  Client.connect ~name cfg bk ~clock:(Clock.create ~name ())

let mk_local () = Asym_baseline.Local_store.create lat ~clock:(Clock.create ~name:"sym" ())

let bytes_eq = Alcotest.testable (fun fmt b -> Fmt.string fmt (Bytes.to_string b)) Bytes.equal
let v s = Bytes.of_string s

(* Instantiate every structure over both stores. *)
module Stack_c = Pstack.Make (Client)
module Stack_l = Pstack.Make (Asym_baseline.Local_store)
module Queue_c = Pqueue.Make (Client)
module Queue_l = Pqueue.Make (Asym_baseline.Local_store)
module Hash_c = Phash.Make (Client)
module Hash_l = Phash.Make (Asym_baseline.Local_store)
module Skip_c = Pskiplist.Make (Client)
module Skip_l = Pskiplist.Make (Asym_baseline.Local_store)
module Bst_c = Pbst.Make (Client)
module Bst_l = Pbst.Make (Asym_baseline.Local_store)
module Bpt_c = Pbptree.Make (Client)
module Bpt_l = Pbptree.Make (Asym_baseline.Local_store)
module Mvbst_c = Pmvbst.Make (Client)
module Mvbpt_c = Pmvbptree.Make (Client)
module Part_c = Partition.Make (Client)

(* ---------------- stack ---------------- *)

let test_stack_lifo () =
  let fe = mk_client (mk_backend ()) in
  let s = Stack_c.attach fe ~name:"s" in
  Stack_c.push s (v "a");
  Stack_c.push s (v "b");
  Stack_c.push s (v "c");
  check Alcotest.int "size" 3 (Stack_c.size s);
  check (Alcotest.option bytes_eq) "peek" (Some (v "c")) (Stack_c.peek s);
  check (Alcotest.option bytes_eq) "pop c" (Some (v "c")) (Stack_c.pop s);
  check (Alcotest.option bytes_eq) "pop b" (Some (v "b")) (Stack_c.pop s);
  check (Alcotest.option bytes_eq) "pop a" (Some (v "a")) (Stack_c.pop s);
  check (Alcotest.option bytes_eq) "empty" None (Stack_c.pop s);
  check Alcotest.int "size 0" 0 (Stack_c.size s)

let test_stack_persists_across_clients () =
  let bk = mk_backend () in
  let fe1 = mk_client ~name:"fe1" bk in
  let s1 = Stack_c.attach fe1 ~name:"shared" in
  Stack_c.push s1 (v "deep");
  Stack_c.push s1 (v "top");
  Client.flush fe1;
  let fe2 = mk_client ~name:"fe2" bk in
  let s2 = Stack_c.attach fe2 ~name:"shared" in
  check Alcotest.int "size visible" 2 (Stack_c.size s2);
  check (Alcotest.option bytes_eq) "top visible" (Some (v "top")) (Stack_c.peek s2)

let test_stack_pop_after_push_no_rdma_reads () =
  (* §8.1: a pop right after an unflushed push is served from the overlay. *)
  let bk = mk_backend () in
  let fe = mk_client ~cfg:(Client.rcb ~batch_size:64 ()) ~name:"fe" bk in
  let s = Stack_c.attach fe ~name:"s" in
  Stack_c.push s (v "x");
  let before = Client.rdma_ops fe in
  ignore (Stack_c.pop s);
  let extra = Client.rdma_ops fe - before in
  (* Only the pop's operation-log write should hit the wire. *)
  check Alcotest.bool "pop mostly local" true (extra <= 1)

let prop_stack_model =
  QCheck.Test.make ~count:60 ~name:"stack vs list model"
    QCheck.(small_list (option (string_of_size Gen.(0 -- 20))))
    (fun ops ->
      let fe = mk_client (mk_backend ()) in
      let s = Stack_c.attach fe ~name:"s" in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Some str ->
              Stack_c.push s (v str);
              model := v str :: !model;
              true
          | None -> (
              let got = Stack_c.pop s in
              match !model with
              | [] -> got = None
              | x :: rest ->
                  model := rest;
                  got = Some x))
        ops
      && Stack_c.to_list s = !model)

(* ---------------- queue ---------------- *)

let test_queue_fifo () =
  let fe = mk_client (mk_backend ()) in
  let q = Queue_c.attach fe ~name:"q" in
  Queue_c.enqueue q (v "1");
  Queue_c.enqueue q (v "2");
  Queue_c.enqueue q (v "3");
  check Alcotest.int "size" 3 (Queue_c.size q);
  check (Alcotest.option bytes_eq) "deq 1" (Some (v "1")) (Queue_c.dequeue q);
  check (Alcotest.option bytes_eq) "deq 2" (Some (v "2")) (Queue_c.dequeue q);
  Queue_c.enqueue q (v "4");
  check (Alcotest.option bytes_eq) "deq 3" (Some (v "3")) (Queue_c.dequeue q);
  check (Alcotest.option bytes_eq) "deq 4" (Some (v "4")) (Queue_c.dequeue q);
  check (Alcotest.option bytes_eq) "empty" None (Queue_c.dequeue q)

let test_queue_drain_refill () =
  let fe = mk_client (mk_backend ()) in
  let q = Queue_c.attach fe ~name:"q" in
  Queue_c.enqueue q (v "a");
  check (Alcotest.option bytes_eq) "a" (Some (v "a")) (Queue_c.dequeue q);
  check (Alcotest.option bytes_eq) "empty" None (Queue_c.dequeue q);
  (* head=tail=0 again: refill must relink both ends. *)
  Queue_c.enqueue q (v "b");
  check (Alcotest.option bytes_eq) "peek b" (Some (v "b")) (Queue_c.peek q);
  check (Alcotest.option bytes_eq) "b" (Some (v "b")) (Queue_c.dequeue q)

let prop_queue_model =
  QCheck.Test.make ~count:60 ~name:"queue vs model"
    QCheck.(small_list (option (string_of_size Gen.(0 -- 20))))
    (fun ops ->
      let fe = mk_client (mk_backend ()) in
      let q = Queue_c.attach fe ~name:"q" in
      let model = Queue.create () in
      List.for_all
        (fun op ->
          match op with
          | Some str ->
              Queue_c.enqueue q (v str);
              Queue.push (v str) model;
              true
          | None -> (
              let got = Queue_c.dequeue q in
              match Queue.take_opt model with
              | None -> got = None
              | some -> got = some))
        ops)

(* ---------------- hash table ---------------- *)

let test_hash_put_get_delete () =
  let fe = mk_client ~cfg:(Client.rc ()) (mk_backend ()) in
  let h = Hash_c.attach ~nbuckets:64 fe ~name:"h" in
  Hash_c.put h ~key:1L ~value:(v "one");
  Hash_c.put h ~key:2L ~value:(v "two");
  check (Alcotest.option bytes_eq) "get 1" (Some (v "one")) (Hash_c.get h ~key:1L);
  check (Alcotest.option bytes_eq) "get 2" (Some (v "two")) (Hash_c.get h ~key:2L);
  check (Alcotest.option bytes_eq) "get missing" None (Hash_c.get h ~key:3L);
  Hash_c.put h ~key:1L ~value:(v "uno");
  check (Alcotest.option bytes_eq) "updated" (Some (v "uno")) (Hash_c.get h ~key:1L);
  check Alcotest.int "size 2" 2 (Hash_c.size h);
  check Alcotest.bool "delete" true (Hash_c.delete h ~key:1L);
  check Alcotest.bool "delete again" false (Hash_c.delete h ~key:1L);
  check (Alcotest.option bytes_eq) "gone" None (Hash_c.get h ~key:1L);
  check Alcotest.int "size 1" 1 (Hash_c.size h)

let test_hash_collisions () =
  (* One bucket forces every key onto a single chain. *)
  let fe = mk_client (mk_backend ()) in
  let h = Hash_c.attach ~nbuckets:1 fe ~name:"h" in
  for i = 0 to 40 do
    Hash_c.put h ~key:(Int64.of_int i) ~value:(v (string_of_int i))
  done;
  check Alcotest.int "size" 41 (Hash_c.size h);
  for i = 0 to 40 do
    check (Alcotest.option bytes_eq)
      (Printf.sprintf "get %d" i)
      (Some (v (string_of_int i)))
      (Hash_c.get h ~key:(Int64.of_int i))
  done;
  (* Delete from the middle of the chain. *)
  check Alcotest.bool "del 20" true (Hash_c.delete h ~key:20L);
  check (Alcotest.option bytes_eq) "20 gone" None (Hash_c.get h ~key:20L);
  check (Alcotest.option bytes_eq) "19 intact" (Some (v "19")) (Hash_c.get h ~key:19L);
  check (Alcotest.option bytes_eq) "21 intact" (Some (v "21")) (Hash_c.get h ~key:21L)

let prop_hash_model =
  QCheck.Test.make ~count:40 ~name:"hash vs Hashtbl model"
    QCheck.(small_list (pair (int_bound 50) (option (string_of_size Gen.(0 -- 16)))))
    (fun ops ->
      let fe = mk_client (mk_backend ()) in
      let h = Hash_c.attach ~nbuckets:16 fe ~name:"h" in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (k, op) ->
          let key = Int64.of_int k in
          match op with
          | Some str ->
              Hash_c.put h ~key ~value:(v str);
              Hashtbl.replace model key (v str);
              Hash_c.get h ~key = Some (v str)
          | None ->
              let expected = Hashtbl.mem model key in
              Hashtbl.remove model key;
              Hash_c.delete h ~key = expected)
        ops
      && Hashtbl.fold (fun k value acc -> acc && Hash_c.get h ~key:k = Some value) model true)

(* ---------------- ordered maps: skiplist / bst / bptree ---------------- *)

module type ORDERED = sig
  type t

  val put : t -> key:int64 -> value:bytes -> unit
  val find : t -> key:int64 -> bytes option
  val delete : t -> key:int64 -> bool
  val to_list : t -> (int64 * bytes) list
end

let ordered_semantics (type a) (module M : ORDERED with type t = a) (t : a) =
  M.put t ~key:5L ~value:(v "five");
  M.put t ~key:1L ~value:(v "one");
  M.put t ~key:9L ~value:(v "nine");
  M.put t ~key:3L ~value:(v "three");
  check (Alcotest.option bytes_eq) "find 3" (Some (v "three")) (M.find t ~key:3L);
  check (Alcotest.option bytes_eq) "find missing" None (M.find t ~key:4L);
  M.put t ~key:3L ~value:(v "THREE");
  check (Alcotest.option bytes_eq) "update" (Some (v "THREE")) (M.find t ~key:3L);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int64 bytes_eq))
    "sorted"
    [ (1L, v "one"); (3L, v "THREE"); (5L, v "five"); (9L, v "nine") ]
    (M.to_list t);
  check Alcotest.bool "delete 5" true (M.delete t ~key:5L);
  check Alcotest.bool "delete 5 again" false (M.delete t ~key:5L);
  check (Alcotest.option bytes_eq) "5 gone" None (M.find t ~key:5L);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int64 bytes_eq))
    "sorted after delete"
    [ (1L, v "one"); (3L, v "THREE"); (9L, v "nine") ]
    (M.to_list t)

let ordered_model (type a) ?(keys = 60) (module M : ORDERED with type t = a) (t : a) ops =
  let module Im = Map.Make (Int64) in
  let model = ref Im.empty in
  List.for_all
    (fun (k, op) ->
      let key = Int64.of_int (k mod keys) in
      match op with
      | Some str ->
          M.put t ~key ~value:(v str);
          model := Im.add key (v str) !model;
          true
      | None ->
          let expected = Im.mem key !model in
          model := Im.remove key !model;
          M.delete t ~key = expected)
    ops
  && M.to_list t = Im.bindings !model

let ops_gen = QCheck.(small_list (pair (int_bound 1000) (option (string_of_size Gen.(0 -- 16)))))

let mk_ordered_prop name make =
  QCheck.Test.make ~count:40 ~name ops_gen (fun ops ->
      let m, t = make () in
      ordered_model m t ops)

let test_skiplist_semantics () =
  let fe = mk_client (mk_backend ()) in
  ordered_semantics (module Skip_c) (Skip_c.attach fe ~name:"sl")

let prop_skiplist =
  mk_ordered_prop "skiplist vs Map model" (fun () ->
      let fe = mk_client (mk_backend ()) in
      ((module Skip_c : ORDERED with type t = Skip_c.t), Skip_c.attach fe ~name:"sl"))

let test_bst_semantics () =
  let fe = mk_client (mk_backend ()) in
  ordered_semantics (module Bst_c) (Bst_c.attach fe ~name:"bst")

let prop_bst =
  mk_ordered_prop "bst vs Map model" (fun () ->
      let fe = mk_client (mk_backend ()) in
      ((module Bst_c : ORDERED with type t = Bst_c.t), Bst_c.attach fe ~name:"bst"))

let test_bst_delete_two_children_cases () =
  let fe = mk_client (mk_backend ()) in
  let t = Bst_c.attach fe ~name:"bst" in
  (* Build:        50
                 /    \
               30      70
              /  \    /  \
            20   40  60   80   *)
  List.iter
    (fun k -> Bst_c.put t ~key:(Int64.of_int k) ~value:(v (string_of_int k)))
    [ 50; 30; 70; 20; 40; 60; 80 ];
  (* Delete the root (two children, successor is a grandchild). *)
  check Alcotest.bool "del 50" true (Bst_c.delete t ~key:50L);
  check
    (Alcotest.list Alcotest.int64)
    "inorder" [ 20L; 30L; 40L; 60L; 70L; 80L ]
    (List.map fst (Bst_c.to_list t));
  (* Delete a node whose successor is its immediate right child. *)
  check Alcotest.bool "del 70" true (Bst_c.delete t ~key:70L);
  check
    (Alcotest.list Alcotest.int64)
    "inorder2" [ 20L; 30L; 40L; 60L; 80L ]
    (List.map fst (Bst_c.to_list t))

let test_bptree_semantics () =
  let fe = mk_client (mk_backend ()) in
  ordered_semantics (module Bpt_c) (Bpt_c.attach fe ~name:"bpt")

let prop_bptree =
  mk_ordered_prop "bptree vs Map model" (fun () ->
      let fe = mk_client (mk_backend ()) in
      ((module Bpt_c : ORDERED with type t = Bpt_c.t), Bpt_c.attach fe ~name:"bpt"))

let test_bptree_splits () =
  let fe = mk_client (mk_backend ()) in
  let t = Bpt_c.attach fe ~name:"bpt" in
  let n = 2000 in
  for i = 0 to n - 1 do
    (* Shuffle-ish order via multiplication mod prime. *)
    let k = i * 7919 mod n in
    Bpt_c.put t ~key:(Int64.of_int k) ~value:(v (string_of_int k))
  done;
  let l = Bpt_c.to_list t in
  check Alcotest.int "all present" n (List.length l);
  check (Alcotest.list Alcotest.int64) "sorted"
    (List.init n (fun i -> Int64.of_int i))
    (List.map fst l);
  for i = 0 to 99 do
    check (Alcotest.option bytes_eq)
      (Printf.sprintf "find %d" i)
      (Some (v (string_of_int i)))
      (Bpt_c.find t ~key:(Int64.of_int i))
  done

(* -- B+Tree node (store-independent) ---------------------------------------- *)

module Node = Pbptree.Node

let int_list = Alcotest.(list int)
let int64_list = Alcotest.(list int64)

(* Keys 10, 20, ...; leaf values 1000 + i, internal children 100 + i. *)
let mk_leaf nkeys =
  let n = Node.empty true in
  for i = 0 to nkeys - 1 do
    Node.leaf_insert_at n i (Int64.of_int (10 * (i + 1))) (1000 + i)
  done;
  Node.set_next n 4242;
  n

let mk_internal nkeys =
  let n = Node.empty false in
  Node.set_child n 0 100;
  for i = 0 to nkeys - 1 do
    Node.internal_insert_at n i (Int64.of_int (10 * (i + 1))) (101 + i)
  done;
  n

let keys n from upto = List.init (upto - from) (fun i -> Node.key n (from + i))
let children n from upto = List.init (upto - from) (fun i -> Node.child n (from + i))
let values n from upto = List.init (upto - from) (fun i -> Node.value n (from + i))

(* The view reads back what was written, and its bytes are exactly the
   reference codec's image of the same node. *)
let test_node_roundtrip () =
  let leaf = mk_leaf 7 in
  check Alcotest.int "512-byte image" Node.node_bytes (Bytes.length leaf);
  check Alcotest.bool "leaf" true (Node.leaf leaf);
  check Alcotest.int "nkeys" 7 (Node.nkeys leaf);
  check int64_list "keys" (List.init 7 (fun i -> Int64.of_int (10 * (i + 1)))) (keys leaf 0 7);
  check int_list "values" (List.init 7 (fun i -> 1000 + i)) (values leaf 0 7);
  check Alcotest.int "next" 4242 (Node.next leaf);
  check bytes_eq "leaf image" (Node_ref.encode (Node_ref.decode leaf)) leaf;
  let full = mk_leaf Pbptree.max_keys in
  check bytes_eq "full leaf image" (Node_ref.encode (Node_ref.decode full)) full;
  let internal = mk_internal Pbptree.max_keys in
  check Alcotest.bool "internal" false (Node.leaf internal);
  check int_list "children" (List.init Pbptree.fanout (fun i -> 100 + i))
    (children internal 0 Pbptree.fanout);
  check bytes_eq "internal image" (Node_ref.encode (Node_ref.decode internal)) internal;
  check Alcotest.int "descend right of an equal separator" 2 (Node.child_index internal 20L);
  check Alcotest.int "leaf insertion point" 3 (Node.leaf_pos leaf 35L)

let zero_from f n i upto = List.for_all (fun x -> x = 0) (List.init (upto - i) (fun k -> f n (i + k)))

let test_node_split_leaf () =
  let n = mk_leaf Pbptree.max_keys in
  let sep, right = Node.split n in
  let half = Pbptree.max_keys / 2 in
  let moved = Pbptree.max_keys - half in
  check Alcotest.int "left keeps the lower half" half (Node.nkeys n);
  check Alcotest.int "right takes the rest" moved (Node.nkeys right);
  check Alcotest.int64 "separator is the right's first key" (Node.key right 0) sep;
  check Alcotest.int64 "separator" (Int64.of_int (10 * (half + 1))) sep;
  check int64_list "right keys"
    (List.init moved (fun i -> Int64.of_int (10 * (half + i + 1))))
    (keys right 0 moved);
  check int_list "right vals" (List.init moved (fun i -> 1000 + half + i)) (values right 0 moved);
  check Alcotest.bool "vacated keys zeroed" true
    (List.for_all (fun k -> k = 0L) (keys n half Pbptree.max_keys));
  check Alcotest.bool "vacated vals zeroed" true (zero_from Node.value n half Pbptree.max_keys);
  check Alcotest.int "right inherits the chain link" 4242 (Node.next right);
  check Alcotest.bool "right is a leaf" true (Node.leaf right)

let test_node_split_internal () =
  (* A full node taking one more separator: the max_keys + 1 keys split
     as one overflowed node would. *)
  let n = mk_internal Pbptree.max_keys in
  let total = Pbptree.max_keys + 1 in
  let mid = total / 2 in
  let sep, right =
    match Node.insert_split n Pbptree.max_keys (Int64.of_int (10 * total)) (100 + total) with
    | Some s -> s
    | None -> Alcotest.fail "a full node must split"
  in
  check Alcotest.int64 "middle key moves up" (Int64.of_int (10 * (mid + 1))) sep;
  check Alcotest.int "left keys" mid (Node.nkeys n);
  check Alcotest.int "right keys" (total - mid - 1) (Node.nkeys right);
  check int64_list "right keys"
    (List.init (Node.nkeys right) (fun i -> Int64.of_int (10 * (mid + i + 2))))
    (keys right 0 (Node.nkeys right));
  check int_list "right children"
    (List.init (Node.nkeys right + 1) (fun i -> 101 + mid + i))
    (children right 0 (Node.nkeys right + 1));
  check int_list "left children" (List.init (mid + 1) (fun i -> 100 + i)) (children n 0 (mid + 1));
  check Alcotest.bool "vacated keys (separator included) zeroed" true
    (List.for_all (fun k -> k = 0L) (keys n mid Pbptree.max_keys));
  check Alcotest.bool "vacated children zeroed" true
    (zero_from Node.child n (mid + 1) Pbptree.fanout);
  check Alcotest.bool "right is internal" false (Node.leaf right)

let test_node_full_insert_rejected () =
  let assert_fails msg f =
    let raised = match f () with () -> false | exception Assert_failure _ -> true in
    check Alcotest.bool msg true raised
  in
  let leaf = mk_leaf Pbptree.max_keys and internal = mk_internal Pbptree.max_keys in
  assert_fails "full leaf" (fun () -> Node.leaf_insert_at leaf 0 1L 1);
  assert_fails "full internal node" (fun () -> Node.internal_insert_at internal 0 1L 1)

let test_node_torn_reads () =
  (* A reclaimed block can claim 255 keys: reads past the image see one
     zero slot, then fail inside the read section. *)
  let n = mk_leaf 3 in
  Bytes.set_uint8 n 1 255;
  check Alcotest.int64 "spare slot reads zero" 0L (Node.key n Pbptree.max_keys);
  let raised =
    match Node.key n (Pbptree.max_keys + 1) with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check Alcotest.bool "past the spare slot" true raised;
  let runs_off = match Node.leaf_pos n 100L with _ -> false | exception Invalid_argument _ -> true in
  check Alcotest.bool "a search runs off the image and fails" true runs_off

(* Random edit sequences on the view and on the reference record: every
   intermediate image, split sibling and separator must agree byte for
   byte. A full node takes an insert either BPT-leaf style (split, then
   insert into a half) or through [insert_split] (the reference inserts
   into its spare slot, then splits). *)
type node_op = Ins of int * int64 * int | Rem of int | Split | Keep_right of bool

let node_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map3 (fun p k v -> Ins (p, k, v)) (int_bound 40) (map Int64.of_int int) (int_bound 1_000_000));
        (2, map (fun p -> Rem p) (int_bound 40));
        (1, return Split);
        (1, map (fun b -> Keep_right b) bool);
      ])

let prop_node_byte_image =
  QCheck.Test.make ~count:300 ~name:"node view matches the reference image"
    QCheck.(make Gen.(pair bool (list_size (int_range 1 120) node_op_gen)))
    (fun (is_leaf, ops) ->
      let v = ref (Node.empty is_leaf) and r = ref (Node_ref.empty is_leaf) in
      if not is_leaf then begin
        Node.set_child !v 0 7;
        !r.Node_ref.children.(0) <- 7
      end;
      let same what (a : Node.t) b =
        if not (Bytes.equal a (Node_ref.encode b)) then
          QCheck.Test.fail_reportf "%s: images differ" what
      in
      let take_split (sep, right) (rsep, rright) =
        if sep <> rsep then QCheck.Test.fail_reportf "separators differ";
        same "right sibling" right rright;
        (right, rright)
      in
      let last_right = ref None in
      List.iter
        (fun op ->
          let nk = Node.nkeys !v in
          (match op with
          | Ins (p, k, x) ->
              let pos = p mod (nk + 1) in
              if nk < Pbptree.max_keys then begin
                if is_leaf then begin
                  Node.leaf_insert_at !v pos k x;
                  Node_ref.leaf_insert_at !r pos k x
                end
                else begin
                  Node.internal_insert_at !v pos k x;
                  Node_ref.internal_insert_at !r pos k x
                end
              end
              else if is_leaf && x mod 2 = 0 then begin
                let sep, right = Node.split !v and rsep, rright = Node_ref.split !r in
                last_right := Some (take_split (sep, right) (rsep, rright));
                let half = Node.nkeys !v in
                if pos <= half then begin
                  Node.leaf_insert_at !v pos k x;
                  Node_ref.leaf_insert_at !r pos k x
                end
                else begin
                  Node.leaf_insert_at right (pos - half) k x;
                  Node_ref.leaf_insert_at rright (pos - half) k x;
                  same "right after insert" right rright
                end
              end
              else begin
                (if is_leaf then Node_ref.leaf_insert_at !r pos k x
                 else Node_ref.internal_insert_at !r pos k x);
                let rs = Node_ref.split !r in
                match Node.insert_split !v pos k x with
                | Some s -> last_right := Some (take_split s rs)
                | None -> QCheck.Test.fail_reportf "full node did not split"
              end
          | Rem p ->
              if is_leaf && nk > 0 then begin
                Node.leaf_remove_at !v (p mod nk);
                Node_ref.leaf_remove_at !r (p mod nk)
              end
          | Split ->
              if nk > 0 then
                last_right := Some (take_split (Node.split !v) (Node_ref.split !r))
          | Keep_right b -> (
              match !last_right with
              | Some (right, rright) when b ->
                  v := right;
                  r := rright;
                  last_right := None
              | _ -> ()));
          same "node" !v !r)
        ops;
      true)

let test_bptree_range () =
  let fe = mk_client (mk_backend ()) in
  let t = Bpt_c.attach fe ~name:"bpt" in
  for i = 0 to 199 do
    Bpt_c.put t ~key:(Int64.of_int (2 * i)) ~value:(v (string_of_int (2 * i)))
  done;
  let r = Bpt_c.range t ~lo:100L ~hi:120L in
  check (Alcotest.list Alcotest.int64) "range keys"
    [ 100L; 102L; 104L; 106L; 108L; 110L; 112L; 114L; 116L; 118L; 120L ]
    (List.map fst r)

let test_skiplist_range () =
  let fe = mk_client (mk_backend ()) in
  let t = Skip_c.attach fe ~name:"sl" in
  for i = 0 to 99 do
    Skip_c.put t ~key:(Int64.of_int (3 * i)) ~value:(v (string_of_int (3 * i)))
  done;
  check (Alcotest.list Alcotest.int64) "inclusive bounds" [ 30L; 33L; 36L; 39L ]
    (List.map fst (Skip_c.range t ~lo:30L ~hi:39L));
  check (Alcotest.list Alcotest.int64) "bounds between keys" [ 33L; 36L ]
    (List.map fst (Skip_c.range t ~lo:31L ~hi:38L));
  check Alcotest.int "empty range" 0 (List.length (Skip_c.range t ~lo:1000L ~hi:2000L))

let test_bst_range () =
  let fe = mk_client (mk_backend ()) in
  let t = Bst_c.attach fe ~name:"bst" in
  List.iter
    (fun k -> Bst_c.put t ~key:(Int64.of_int k) ~value:(v (string_of_int k)))
    [ 50; 30; 70; 20; 40; 60; 80; 35; 45 ];
  check (Alcotest.list Alcotest.int64) "mid range" [ 35L; 40L; 45L; 50L; 60L ]
    (List.map fst (Bst_c.range t ~lo:35L ~hi:60L));
  check (Alcotest.list Alcotest.int64) "whole tree" [ 20L; 30L; 35L; 40L; 45L; 50L; 60L; 70L; 80L ]
    (List.map fst (Bst_c.range t ~lo:Int64.min_int ~hi:Int64.max_int));
  check Alcotest.int "empty" 0 (List.length (Bst_c.range t ~lo:81L ~hi:100L))

(* Range scans against the Map model: every structure with [range] must
   agree with filtering the reference bindings. *)
let range_prop name make_range =
  QCheck.Test.make ~count:30 ~name
    QCheck.(triple (small_list (int_bound 200)) (int_bound 200) (int_bound 200))
    (fun (keys, a, b) ->
      let lo = Int64.of_int (min a b) and hi = Int64.of_int (max a b) in
      let fe = mk_client (mk_backend ()) in
      let put, range = make_range fe in
      let module Im = Map.Make (Int64) in
      let model =
        List.fold_left
          (fun m k ->
            let key = Int64.of_int k in
            put key (v (string_of_int k));
            Im.add key (v (string_of_int k)) m)
          Im.empty keys
      in
      let expected =
        Im.bindings (Im.filter (fun k _ -> k >= lo && k <= hi) model)
      in
      range ~lo ~hi = expected)

let prop_bst_range =
  range_prop "bst range vs model" (fun fe ->
      let t = Bst_c.attach fe ~name:"bst" in
      ((fun key value -> Bst_c.put t ~key ~value), fun ~lo ~hi -> Bst_c.range t ~lo ~hi))

let prop_bpt_range =
  range_prop "bptree range vs model" (fun fe ->
      let t = Bpt_c.attach fe ~name:"bpt" in
      ((fun key value -> Bpt_c.put t ~key ~value), fun ~lo ~hi -> Bpt_c.range t ~lo ~hi))

let prop_skiplist_range =
  range_prop "skiplist range vs model" (fun fe ->
      let t = Skip_c.attach fe ~name:"sl" in
      ((fun key value -> Skip_c.put t ~key ~value), fun ~lo ~hi -> Skip_c.range t ~lo ~hi))

(* ---------------- multi-version ---------------- *)

let test_mvbst_semantics () =
  let fe = mk_client (mk_backend ()) in
  ordered_semantics (module Mvbst_c) (Mvbst_c.attach fe ~name:"mv")

let prop_mvbst =
  mk_ordered_prop "mv-bst vs Map model" (fun () ->
      let fe = mk_client (mk_backend ()) in
      ((module Mvbst_c : ORDERED with type t = Mvbst_c.t), Mvbst_c.attach fe ~name:"mv"))

let test_mvbst_gc_defers_then_frees () =
  let fe = mk_client (mk_backend ()) in
  let t = Mvbst_c.attach fe ~name:"mv" in
  for i = 0 to 9 do
    Mvbst_c.put t ~key:(Int64.of_int i) ~value:(v "x")
  done;
  check Alcotest.bool "garbage deferred" true (Mvbst_c.gc_pending t > 0);
  (* After the grace period, pumping (via another op) reclaims. *)
  Clock.advance (Client.clock fe) (Simtime.us 6000);
  Mvbst_c.put t ~key:100L ~value:(v "y");
  check Alcotest.bool "most garbage reclaimed" true (Mvbst_c.gc_pending t < 12);
  Mvbst_c.gc_drain t;
  check Alcotest.int "drained" 0 (Mvbst_c.gc_pending t)

let test_mvbpt_semantics () =
  let fe = mk_client (mk_backend ()) in
  ordered_semantics (module Mvbpt_c) (Mvbpt_c.attach fe ~name:"mvb")

let prop_mvbpt =
  mk_ordered_prop "mv-bptree vs Map model" (fun () ->
      let fe = mk_client (mk_backend ()) in
      ((module Mvbpt_c : ORDERED with type t = Mvbpt_c.t), Mvbpt_c.attach fe ~name:"mvb"))

let test_mvbpt_many_inserts () =
  let fe = mk_client (mk_backend ()) in
  let t = Mvbpt_c.attach fe ~name:"mvb" in
  let n = 800 in
  for i = 0 to n - 1 do
    let k = i * 6113 mod n in
    Mvbpt_c.put t ~key:(Int64.of_int k) ~value:(v (string_of_int k))
  done;
  check (Alcotest.list Alcotest.int64) "sorted complete"
    (List.init n (fun i -> Int64.of_int i))
    (List.map fst (Mvbpt_c.to_list t))

(* ---------------- symmetric baseline runs the same functors ------------- *)

let test_structures_on_local_store () =
  let s = mk_local () in
  ordered_semantics (module Bst_l) (Bst_l.attach s ~name:"bst");
  ordered_semantics (module Bpt_l) (Bpt_l.attach s ~name:"bpt");
  ordered_semantics (module Skip_l) (Skip_l.attach s ~name:"sl");
  let st = Stack_l.attach s ~name:"st" in
  Stack_l.push st (v "x");
  check (Alcotest.option bytes_eq) "stack" (Some (v "x")) (Stack_l.pop st);
  let q = Queue_l.attach s ~name:"q" in
  Queue_l.enqueue q (v "y");
  check (Alcotest.option bytes_eq) "queue" (Some (v "y")) (Queue_l.dequeue q);
  let h = Hash_l.attach ~nbuckets:32 s ~name:"h" in
  Hash_l.put h ~key:7L ~value:(v "z");
  check (Alcotest.option bytes_eq) "hash" (Some (v "z")) (Hash_l.get h ~key:7L)

(* ---------------- vector operations ---------------- *)

let test_vector_insert_bst () =
  let fe = mk_client (mk_backend ()) in
  let t = Bst_c.attach fe ~name:"bst" in
  Bst_c.insert_vector t
    [ (5L, v "5"); (1L, v "1"); (9L, v "9"); (5L, v "5b") ];
  (* Duplicate keys in the vector: last write wins after sorting keeps
     both applications; the final value for 5 is one of the two. *)
  check Alcotest.bool "5 present" true (Bst_c.mem t ~key:5L);
  check Alcotest.bool "1 present" true (Bst_c.mem t ~key:1L);
  check Alcotest.bool "9 present" true (Bst_c.mem t ~key:9L)

let test_vector_insert_bptree_cheaper_than_loop () =
  let run ~vector =
    let fe = mk_client ~cfg:(Client.rcb ~batch_size:64 ()) (mk_backend ()) in
    let t = Bpt_c.attach fe ~name:"bpt" in
    let pairs = List.init 256 (fun i -> (Int64.of_int i, v "payload-64-bytes")) in
    let t0 = Clock.now (Client.clock fe) in
    if vector then
      List.iter (fun chunk -> Bpt_c.insert_vector t chunk)
        (let rec chunks l = match l with [] -> [] | _ ->
           let take = List.filteri (fun i _ -> i < 32) l in
           let rest = List.filteri (fun i _ -> i >= 32) l in
           take :: chunks rest
         in
         chunks pairs)
    else List.iter (fun (key, value) -> Bpt_c.put t ~key ~value) pairs;
    Client.flush fe;
    Clock.now (Client.clock fe) - t0
  in
  check Alcotest.bool "vector api at least as fast" true (run ~vector:true <= run ~vector:false)

(* ---------------- partitioning ---------------- *)

let test_partition_routing_stable () =
  let bk = mk_backend () in
  let fe = mk_client bk in
  let p =
    Part_c.create fe ~name:"ph" ~n:4 ~attach:(fun i ->
        Hash_c.attach ~nbuckets:64 fe ~name:(Printf.sprintf "ph.%d" i))
  in
  check Alcotest.int "npartitions" 4 (Part_c.npartitions p);
  for k = 0 to 99 do
    let key = Int64.of_int k in
    Hash_c.put (Part_c.route p key) ~key ~value:(v (string_of_int k))
  done;
  for k = 0 to 99 do
    let key = Int64.of_int k in
    check (Alcotest.option bytes_eq)
      (Printf.sprintf "route %d" k)
      (Some (v (string_of_int k)))
      (Hash_c.get (Part_c.route p key) ~key)
  done;
  (* Keys must spread across partitions. *)
  let counts = Array.make 4 0 in
  for i = 0 to 3 do
    counts.(i) <- Hash_c.size (Part_c.part p i)
  done;
  Array.iter (fun c -> check Alcotest.bool "no empty partition" true (c > 5)) counts

let test_partition_count_persisted () =
  let bk = mk_backend () in
  let fe = mk_client bk in
  let _ =
    Part_c.create fe ~name:"pp" ~n:3 ~attach:(fun i ->
        Hash_c.attach ~nbuckets:16 fe ~name:(Printf.sprintf "pp.%d" i))
  in
  (* Re-open with a different requested n: the persisted map wins. *)
  let fe2 = mk_client ~name:"fe2" bk in
  let p2 =
    Part_c.create fe2 ~name:"pp" ~n:7 ~attach:(fun i ->
        Hash_c.attach ~nbuckets:16 fe2 ~name:(Printf.sprintf "pp.%d" i))
  in
  check Alcotest.int "persisted count wins" 3 (Part_c.npartitions p2)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "structures"
    [
      ( "stack",
        [
          Alcotest.test_case "lifo" `Quick test_stack_lifo;
          Alcotest.test_case "persists across clients" `Quick test_stack_persists_across_clients;
          Alcotest.test_case "pop after push is local" `Quick
            test_stack_pop_after_push_no_rdma_reads;
          qt prop_stack_model;
        ] );
      ( "queue",
        [
          Alcotest.test_case "fifo" `Quick test_queue_fifo;
          Alcotest.test_case "drain/refill" `Quick test_queue_drain_refill;
          qt prop_queue_model;
        ] );
      ( "hash",
        [
          Alcotest.test_case "put/get/delete" `Quick test_hash_put_get_delete;
          Alcotest.test_case "collisions" `Quick test_hash_collisions;
          qt prop_hash_model;
        ] );
      ( "skiplist",
        [
          Alcotest.test_case "semantics" `Quick test_skiplist_semantics;
          Alcotest.test_case "range scan" `Quick test_skiplist_range;
          qt prop_skiplist;
          qt prop_skiplist_range;
        ] );
      ( "bst",
        [
          Alcotest.test_case "semantics" `Quick test_bst_semantics;
          Alcotest.test_case "delete two-children" `Quick test_bst_delete_two_children_cases;
          Alcotest.test_case "range scan" `Quick test_bst_range;
          qt prop_bst;
          qt prop_bst_range;
        ] );
      ( "bptree",
        [
          Alcotest.test_case "semantics" `Quick test_bptree_semantics;
          Alcotest.test_case "splits (2000 keys)" `Quick test_bptree_splits;
          Alcotest.test_case "range scan" `Quick test_bptree_range;
          Alcotest.test_case "node round-trip" `Quick test_node_roundtrip;
          Alcotest.test_case "node split leaf" `Quick test_node_split_leaf;
          Alcotest.test_case "node split internal" `Quick test_node_split_internal;
          Alcotest.test_case "node full insert rejected" `Quick test_node_full_insert_rejected;
          Alcotest.test_case "node torn reads" `Quick test_node_torn_reads;
          qt prop_node_byte_image;
          qt prop_bptree;
          qt prop_bpt_range;
        ] );
      ( "multi-version",
        [
          Alcotest.test_case "mv-bst semantics" `Quick test_mvbst_semantics;
          Alcotest.test_case "mv-bst gc" `Quick test_mvbst_gc_defers_then_frees;
          Alcotest.test_case "mv-bptree semantics" `Quick test_mvbpt_semantics;
          Alcotest.test_case "mv-bptree bulk" `Quick test_mvbpt_many_inserts;
          qt prop_mvbst;
          qt prop_mvbpt;
        ] );
      ( "symmetric-baseline",
        [ Alcotest.test_case "same functors run" `Quick test_structures_on_local_store ] );
      ( "vector-ops",
        [
          Alcotest.test_case "bst vector insert" `Quick test_vector_insert_bst;
          Alcotest.test_case "bptree vector no slower" `Quick
            test_vector_insert_bptree_cheaper_than_loop;
        ] );
      ( "partition",
        [
          Alcotest.test_case "routing" `Quick test_partition_routing_stable;
          Alcotest.test_case "count persisted" `Quick test_partition_count_persisted;
        ] );
    ]
