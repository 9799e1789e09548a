type schedule = Fifo | Lifo | Seeded_shuffle of int

let pp_schedule ppf = function
  | Fifo -> Fmt.string ppf "fifo"
  | Lifo -> Fmt.string ppf "lifo"
  | Seeded_shuffle seed -> Fmt.pf ppf "shuffle:%d" seed

let schedule_to_string s = Fmt.str "%a" pp_schedule s

let schedule_of_string s =
  match s with
  | "fifo" -> Ok Fifo
  | "lifo" -> Ok Lifo
  | _ -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "shuffle" -> (
          let rest = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt rest with
          | Some seed -> Ok (Seeded_shuffle seed)
          | None -> Error (Fmt.str "bad shuffle seed %S" rest))
      | _ -> Error (Fmt.str "unknown schedule %S (expected fifo, lifo or shuffle:<seed>)" s))

type 'a entry = { time : float; rank : int; seq : int; value : 'a }

(* Entries live in a binary heap ordered by (time, rank, seq), except under
   [Fifo], where an entry added at [ready_time] — the time of the last entry
   popped from the heap — goes to the [ready] ring instead, an O(1) FIFO.
   Most engine events are scheduled at the current instant (semaphore
   grants, wake-ups, spawns), so this skips the heap for the bulk of them.

   Pop order stays exactly (time, seq). The ring only ever holds entries at
   [ready_time], in insertion order. [ready_time] moves only when the ring
   is empty, so every ring entry was added after the last move, while a
   heap entry at [ready_time] was added before it (after it, the entry
   would have gone to the ring): heap entries at or before [ready_time]
   precede the whole ring, and heap entries after it follow. *)
type 'a t = {
  mutable heap : 'a entry array;
  (* heap.(0) is unused padding until first add; [size] tracks live items *)
  mutable size : int;
  mutable seq : int;
  schedule : schedule;
  fifo : bool;  (* [schedule = Fifo]: the ready ring is in use *)
  mutable ready_time : float;
  mutable ready : (float * 'a) option array;
      (* a ring of [count] entries from [head], each stored as [pop] returns
         it; a popped slot is reset to [None] so that the ring, which lives
         in the major heap, does not drag dead events into it *)
  mutable head : int;
  mutable count : int;
}

let create ?(schedule = Fifo) () =
  {
    heap = [||];
    size = 0;
    seq = 0;
    schedule;
    fifo = schedule = Fifo;
    ready_time = 0.0;
    ready = [||];
    head = 0;
    count = 0;
  }

let schedule t = t.schedule
let is_empty t = t.size = 0 && t.count = 0
let length t = t.size + t.count

(* The tie-break key among same-timestamp entries. [Fifo] reproduces the
   historical (time, insertion) order bit for bit; the other policies only
   ever reorder entries that share a timestamp, because [earlier] compares
   times first. *)
let rank_of t seq =
  match t.schedule with
  | Fifo -> seq
  | Lifo -> -seq
  | Seeded_shuffle seed -> Rng.rank ~seed seq

let earlier a b =
  a.time < b.time
  || (a.time = b.time && (a.rank < b.rank || (a.rank = b.rank && a.seq < b.seq)))

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if earlier t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < t.size && earlier t.heap.(left) t.heap.(!smallest) then smallest := left;
  if right < t.size && earlier t.heap.(right) t.heap.(!smallest) then smallest := right;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let grow t entry =
  let capacity = Array.length t.heap in
  if t.size = capacity then begin
    let new_capacity = max 16 (2 * capacity) in
    let heap = Array.make new_capacity entry in
    Array.blit t.heap 0 heap 0 t.size;
    t.heap <- heap
  end

let push_ready t entry =
  let capacity = Array.length t.ready in
  if t.count = capacity then begin
    let ready = Array.make (max 16 (2 * capacity)) None in
    for i = 0 to t.count - 1 do
      ready.(i) <- t.ready.((t.head + i) land (capacity - 1))
    done;
    t.ready <- ready;
    t.head <- 0
  end;
  t.ready.((t.head + t.count) land (Array.length t.ready - 1)) <- entry;
  t.count <- t.count + 1

let add t ~time value =
  if t.fifo && time = t.ready_time then push_ready t (Some (time, value))
  else begin
    let entry = { time; rank = rank_of t t.seq; seq = t.seq; value } in
    grow t entry;
    t.heap.(t.size) <- entry;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)
  end;
  t.seq <- t.seq + 1

(* Whether the next entry comes from the ready ring: it is non-empty and
   the heap holds nothing at or before [ready_time]. *)
let ready_first t = t.count > 0 && (t.size = 0 || t.heap.(0).time > t.ready_time)

let pop t =
  if ready_first t then begin
    let entry = t.ready.(t.head) in
    t.ready.(t.head) <- None;
    t.head <- (t.head + 1) land (Array.length t.ready - 1);
    t.count <- t.count - 1;
    entry
  end
  else if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.heap.(0) <- t.heap.(t.size);
      sift_down t 0
    end;
    if t.fifo && t.count = 0 then t.ready_time <- top.time;
    Some (top.time, top.value)
  end

let peek_time t =
  if ready_first t then Option.map fst t.ready.(t.head)
  else if t.size = 0 then None
  else Some t.heap.(0).time
