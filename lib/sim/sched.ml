(* Verb-granular co-simulation engine.

   Each client runs inside an OCaml 5 effect handler. A resumed client
   gets a limit on its clock: the earliest suspended client's time, minus
   one when that client wins the tie-break. Once an advance takes the
   clock past it, the clock performs [Clock.Yield] (see Clock.yield), the
   handler captures the continuation, and the scheduler resumes the
   globally-earliest clock — so clients suspend and resume *inside*
   operations, at every virtual-time advance that lets another client go
   first. A client that is still earliest keeps running without an
   effect, and a lone client never performs one.

   Determinism: the next client to run is a pure function of virtual
   time — a binary min-heap keyed on (clock value, client id), with the
   client id (list position passed to [run]) as the fixed tie-break.
   Same program + same seeds therefore produce the same interleaving,
   byte for byte. *)

type client = { clock : Clock.t; body : unit -> unit }

let client ~clock ~run = { clock; body = run }

(* -- task execution under the handler ----------------------------------- *)

type status = Done | Yielded of (unit, status) Effect.Deep.continuation

type task = {
  id : int;
  tclock : Clock.t;
  mutable at : Simtime.t;  (* heap key: clock sampled at suspension *)
  mutable state : state;
}

and state = Start of (unit -> unit) | Suspended of (unit, status) Effect.Deep.continuation

let handler : (status, status) Effect.Deep.handler =
  {
    retc = (fun s -> s);
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Clock.Yield _ ->
            Some (fun (k : (a, status) Effect.Deep.continuation) -> Yielded k)
        | _ -> None);
  }

let exec t =
  match t.state with
  | Start f -> Effect.Deep.match_with (fun () -> f (); Done) () handler
  | Suspended k -> Effect.Deep.continue k ()

(* -- binary min-heap on (at, id) ----------------------------------------- *)

module Heap = struct
  type t = { mutable a : task array; mutable n : int }

  let create ~dummy cap = { a = Array.make (max 1 cap) dummy; n = 0 }
  let before x y = x.at < y.at || (x.at = y.at && x.id < y.id)

  let push h t =
    if h.n = Array.length h.a then begin
      let a' = Array.make (2 * h.n) h.a.(0) in
      Array.blit h.a 0 a' 0 h.n;
      h.a <- a'
    end;
    let i = ref h.n in
    h.n <- h.n + 1;
    h.a.(!i) <- t;
    while !i > 0 && before h.a.(!i) h.a.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  let pop h =
    if h.n = 0 then None
    else begin
      let top = h.a.(0) in
      h.n <- h.n - 1;
      if h.n > 0 then begin
        h.a.(0) <- h.a.(h.n);
        let i = ref 0 in
        let continue_ = ref true in
        while !continue_ do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let s = ref !i in
          if l < h.n && before h.a.(l) h.a.(!s) then s := l;
          if r < h.n && before h.a.(r) h.a.(!s) then s := r;
          if !s = !i then continue_ := false
          else begin
            let tmp = h.a.(!s) in
            h.a.(!s) <- h.a.(!i);
            h.a.(!i) <- tmp;
            i := !s
          end
        done
      end;
      Some top
    end
end

(* -- scheduler ------------------------------------------------------------ *)

let run clients =
  match clients with
  | [] -> ()
  | clients ->
      let tasks =
        List.mapi
          (fun id c -> { id; tclock = c.clock; at = Clock.now c.clock; state = Start c.body })
          clients
      in
      let h = Heap.create ~dummy:(List.hd tasks) (List.length tasks) in
      List.iter (fun t -> Heap.push h t) tasks;
      List.iter (fun c -> Clock.set_limit c.clock min_int) clients;
      Fun.protect
        ~finally:(fun () -> List.iter (fun c -> Clock.set_limit c.clock max_int) clients)
        (fun () ->
          let rec drive t =
            (* [t] runs until its clock passes the earliest suspended task. *)
            (if h.Heap.n = 0 then Clock.set_limit t.tclock max_int
             else
               let m = h.Heap.a.(0) in
               Clock.set_limit t.tclock (if t.id < m.id then m.at else m.at - 1));
            let status = exec t in
            Clock.set_limit t.tclock min_int;
            match status with
            | Done -> next ()
            | Yielded k ->
                t.at <- Clock.now t.tclock;
                t.state <- Suspended k;
                Heap.push h t;
                next ()
          and next () =
            match Heap.pop h with None -> () | Some t -> drive t
          in
          next ())

let makespan clocks = List.fold_left (fun acc c -> Simtime.max acc (Clock.now c)) 0 clocks
