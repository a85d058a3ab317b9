let block_shift = 6
let block_size = 1 lsl block_shift

(* [n_valid] counts the set bytes of [valid]; a full block ([n_valid =
   block_size]) is copied with one blit and never scanned. *)
type block = { data : bytes; valid : bytes (* 0/1 per byte *); mutable n_valid : int }

module Blocks = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (id : int) = id
end)

type t = block Blocks.t

let create () = Blocks.create 64

let block_for t id =
  match Blocks.find t id with
  | b -> b
  | exception Not_found ->
      let b =
        { data = Bytes.create block_size; valid = Bytes.make block_size '\000'; n_valid = 0 }
      in
      Blocks.replace t id b;
      b

let add t ~addr value =
  let len = Bytes.length value in
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let id = a lsr block_shift in
    let off = a land (block_size - 1) in
    let n = min (block_size - off) (len - !i) in
    let b = block_for t id in
    Bytes.blit value !i b.data off n;
    if n = block_size then begin
      Bytes.fill b.valid 0 block_size '\001';
      b.n_valid <- block_size
    end
    else if b.n_valid < block_size then
      for k = off to off + n - 1 do
        if Bytes.get b.valid k = '\000' then begin
          Bytes.set b.valid k '\001';
          b.n_valid <- b.n_valid + 1
        end
      done;
    i := !i + n
  done

let patch t ~addr buf =
  if Blocks.length t > 0 then begin
    let len = Bytes.length buf in
    let first = addr lsr block_shift in
    let last = (addr + len - 1) lsr block_shift in
    for id = first to last do
      match Blocks.find t id with
      | exception Not_found -> ()
      | b ->
          let block_base = id lsl block_shift in
          let lo = max addr block_base in
          let hi = min (addr + len) (block_base + block_size) in
          if b.n_valid = block_size then
            Bytes.blit b.data (lo - block_base) buf (lo - addr) (hi - lo)
          else
            for a = lo to hi - 1 do
              let off = a - block_base in
              if Bytes.get b.valid off = '\001' then
                Bytes.set buf (a - addr) (Bytes.get b.data off)
            done
    done
  end

(* Every byte of [lo, hi) (block offsets) is pending in [b]. *)
let covers b lo hi =
  b.n_valid = block_size
  ||
  let rec from k = k >= hi || (Bytes.get b.valid k = '\001' && from (k + 1)) in
  from lo

let try_read t ~addr ~len =
  if Blocks.length t = 0 then None
  else begin
    (* One lookup per block; the result is allocated only once the first
       block is known to be covered. *)
    let out = ref Bytes.empty in
    let rec go a =
      if a >= addr + len then Some !out
      else
        let id = a lsr block_shift in
        let block_base = id lsl block_shift in
        let hi = min (addr + len) (block_base + block_size) in
        match Blocks.find t id with
        | exception Not_found -> None
        | b when not (covers b (a - block_base) (hi - block_base)) -> None
        | b ->
            if a = addr then out := Bytes.create len;
            Bytes.blit b.data (a - block_base) !out (a - addr) (hi - a);
            go hi
    in
    go addr
  end

let clear t = Blocks.reset t
