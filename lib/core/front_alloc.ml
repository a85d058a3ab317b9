exception Out_of_nvm

type backend_ops = {
  slab_size : int;
  alloc_slabs : int -> Types.addr;
  free_slabs : Types.addr -> int -> unit;
  free_slab_batch : Types.addr list -> unit;
  slab_base_of : Types.addr -> Types.addr;
}

type slab = {
  base : Types.addr;
  cls : int;  (* block size *)
  mutable free_blocks : int list;  (* offsets *)
  mutable used : int;
}

type t = {
  ops : backend_ops;
  min_class : int;
  classes : int array;  (* block sizes, ascending powers of two *)
  partial : slab list ref array;  (* per class, slabs with free blocks *)
  slabs : (Types.addr, slab) Hashtbl.t;
  large : (Types.addr, int) Hashtbl.t;  (* base -> slab count *)
  mutable empty_pool : Types.addr list;
  mutable empty_count : int;
  mutable n_alloc : int;
  mutable n_slab_rpc : int;
}

(* Slabs fetched per back-end RPC, and emptied slabs kept before the
   surplus goes back. *)
let prefetch = 8
let reclaim_threshold = 64

let create ops =
  let min_class = 16 in
  (* Size classes up to the full slab (a whole-slab "class" still benefits
     from prefetching several slabs per RPC). *)
  let rec build c acc = if c > ops.slab_size then List.rev acc else build (c * 2) (c :: acc) in
  let classes = Array.of_list (build min_class []) in
  {
    ops;
    min_class;
    classes;
    partial = Array.init (Array.length classes) (fun _ -> ref []);
    slabs = Hashtbl.create 64;
    large = Hashtbl.create 16;
    empty_pool = [];
    empty_count = 0;
    n_alloc = 0;
    n_slab_rpc = 0;
  }

let class_index t size =
  let rec go i =
    if i >= Array.length t.classes then None
    else if t.classes.(i) >= size then Some i
    else go (i + 1)
  in
  go 0

let take_empty_slab t =
  match t.empty_pool with
  | base :: rest ->
      t.empty_pool <- rest;
      t.empty_count <- t.empty_count - 1;
      base
  | [] ->
      (* Amortize the RPC: fetch a contiguous run of slabs at once and
         stash the extras in the empty pool. *)
      t.n_slab_rpc <- t.n_slab_rpc + 1;
      let base, got =
        try (t.ops.alloc_slabs prefetch, prefetch) with Out_of_nvm -> (t.ops.alloc_slabs 1, 1)
      in
      for i = got - 1 downto 1 do
        t.empty_pool <- (base + (i * t.ops.slab_size)) :: t.empty_pool;
        t.empty_count <- t.empty_count + 1
      done;
      base

let carve t base cls =
  let blocks = ref [] in
  let n = t.ops.slab_size / cls in
  for i = n - 1 downto 0 do
    blocks := (i * cls) :: !blocks
  done;
  let s = { base; cls; free_blocks = !blocks; used = 0 } in
  Hashtbl.replace t.slabs base s;
  s

let alloc t size =
  if size <= 0 then invalid_arg "Front_alloc.alloc: size <= 0";
  t.n_alloc <- t.n_alloc + 1;
  match class_index t size with
  | None ->
      (* Large object: straight to the back-end. *)
      let slabs = (size + t.ops.slab_size - 1) / t.ops.slab_size in
      t.n_slab_rpc <- t.n_slab_rpc + 1;
      let base = t.ops.alloc_slabs slabs in
      Hashtbl.replace t.large base slabs;
      base
  | Some ci -> (
      let cls = t.classes.(ci) in
      let rec pick () =
        match !(t.partial.(ci)) with
        | s :: rest ->
            if s.free_blocks = [] then begin
              t.partial.(ci) := rest;
              pick ()
            end
            else s
        | [] ->
            let s = carve t (take_empty_slab t) cls in
            t.partial.(ci) := [ s ];
            s
      in
      let s = pick () in
      match s.free_blocks with
      | [] -> assert false
      | off :: rest ->
          s.free_blocks <- rest;
          s.used <- s.used + 1;
          if rest = [] then t.partial.(ci) := List.filter (fun x -> x != s) !(t.partial.(ci));
          s.base + off)

(* Periodic reclamation (§5.2): emptied slabs pool up locally; once the
   pool exceeds the threshold, half of it goes back in one batched RPC. *)
let release_slab t s =
  Hashtbl.remove t.slabs s.base;
  t.empty_pool <- s.base :: t.empty_pool;
  t.empty_count <- t.empty_count + 1;
  if t.empty_count > reclaim_threshold then begin
    let keep = reclaim_threshold / 2 in
    let rec split i acc = function
      | rest when i = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> split (i - 1) (x :: acc) rest
    in
    let kept, surplus = split keep [] t.empty_pool in
    t.empty_pool <- kept;
    t.empty_count <- List.length kept;
    if surplus <> [] then t.ops.free_slab_batch surplus
  end

let free t addr ~len =
  match Hashtbl.find_opt t.large addr with
  | Some slabs ->
      Hashtbl.remove t.large addr;
      (* This is a back-end round trip just like the large-alloc path, so
         it must count: the Table 2 RPC totals pair every large alloc
         with its free. *)
      t.n_slab_rpc <- t.n_slab_rpc + 1;
      t.ops.free_slabs addr slabs
  | None -> (
      ignore len;
      let base = t.ops.slab_base_of addr in
      match Hashtbl.find_opt t.slabs base with
      | None ->
          (* A block allocated by a pre-crash incarnation: only slab-level
             occupancy was recovered (§5.2), so the block leaks inside its
             still-live slab. Bounded by design. *)
          ()
      | Some s ->
          let off = addr - base in
          if off mod s.cls <> 0 then invalid_arg "Front_alloc.free: misaligned block";
          let was_full = s.free_blocks = [] in
          s.free_blocks <- off :: s.free_blocks;
          s.used <- s.used - 1;
          if s.used = 0 then begin
            (match class_index t s.cls with
            | Some ci -> t.partial.(ci) := List.filter (fun x -> x != s) !(t.partial.(ci))
            | None -> ());
            release_slab t s
          end
          else if was_full then begin
            match class_index t s.cls with
            | Some ci -> t.partial.(ci) := s :: !(t.partial.(ci))
            | None -> ()
          end)

let allocations t = t.n_alloc
let slab_rpcs t = t.n_slab_rpc
