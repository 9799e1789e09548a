(* Tests for the simulation kernel: sizes, RNG, payloads, event queue,
   engine fibers, synchronization primitives, cancellation, stats. *)

open Simcore

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Size *)

let test_size_constants () =
  Alcotest.(check int) "kib" 1024 Size.kib;
  Alcotest.(check int) "mib" (1024 * 1024) Size.mib;
  Alcotest.(check int) "mib_n" (50 * 1024 * 1024) (Size.mib_n 50);
  check_float "to_mib" 50.0 (Size.to_mib (Size.mib_n 50))

let test_size_rounding () =
  Alcotest.(check int) "div_ceil exact" 4 (Size.div_ceil 8 2);
  Alcotest.(check int) "div_ceil up" 5 (Size.div_ceil 9 2);
  Alcotest.(check int) "div_ceil zero" 0 (Size.div_ceil 0 7);
  Alcotest.(check int) "round_up" 512 (Size.round_up 300 256);
  Alcotest.(check int) "round_up exact" 256 (Size.round_up 256 256)

let test_size_pp () =
  Alcotest.(check string) "mb" "52.0 MB" (Size.to_string (Size.mib_n 52));
  Alcotest.(check string) "b" "17 B" (Size.to_string 17);
  Alcotest.(check string) "kb" "1.5 KB" (Size.to_string 1536)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different streams" false (Rng.int64 a = Rng.int64 b)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_float_bounds () =
  let rng = Rng.create 4 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_exponential_positive () =
  let rng = Rng.create 5 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "positive" true (Rng.exponential rng 10.0 > 0.0)
  done

let test_rng_split_independent () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  Alcotest.(check bool) "diverge" false (Rng.int64 a = Rng.int64 b)

let test_rng_byte_at_pure () =
  Alcotest.(check char) "pure" (Rng.byte_at ~seed:5L 100) (Rng.byte_at ~seed:5L 100);
  let distinct = ref 0 in
  for i = 0 to 255 do
    if Rng.byte_at ~seed:5L i <> Rng.byte_at ~seed:6L i then incr distinct
  done;
  Alcotest.(check bool) "seeds differ" true (!distinct > 200)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 11 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Payload *)

let payload = Alcotest.testable Payload.pp Payload.equal

let test_payload_basics () =
  let p = Payload.of_string "hello world" in
  Alcotest.(check int) "length" 11 (Payload.length p);
  Alcotest.(check string) "roundtrip" "hello world" (Payload.to_string p);
  Alcotest.(check char) "byte_at" 'w' (Payload.byte_at p 6)

let test_payload_zero () =
  let p = Payload.zero 5 in
  Alcotest.(check string) "zeros" "\000\000\000\000\000" (Payload.to_string p)

let test_payload_sub () =
  let p = Payload.of_string "abcdefgh" in
  Alcotest.(check string) "middle" "cde" (Payload.to_string (Payload.sub p ~pos:2 ~len:3));
  Alcotest.(check string) "empty" "" (Payload.to_string (Payload.sub p ~pos:4 ~len:0))

let test_payload_concat () =
  let p = Payload.concat [ Payload.of_string "ab"; Payload.of_string "cd"; Payload.zero 2 ] in
  Alcotest.(check string) "concat" "abcd\000\000" (Payload.to_string p);
  Alcotest.(check int) "len" 6 (Payload.length p)

let test_payload_pattern_deterministic () =
  let a = Payload.pattern ~seed:42L 1000 and b = Payload.pattern ~seed:42L 1000 in
  Alcotest.check payload "equal" a b;
  let c = Payload.pattern ~seed:43L 1000 in
  Alcotest.(check bool) "different" false (Payload.equal a c)

let test_payload_pattern_slicing () =
  (* A slice of a pattern equals the corresponding bytes of the whole. *)
  let whole = Payload.pattern ~seed:7L 100 in
  let slice = Payload.sub whole ~pos:33 ~len:20 in
  let expected = String.sub (Payload.to_string whole) 33 20 in
  Alcotest.(check string) "slice bytes" expected (Payload.to_string slice)

let test_payload_equal_mixed_repr () =
  (* Same content built via different structures compares equal. *)
  let a = Payload.of_string "abcdef" in
  let b = Payload.concat [ Payload.of_string "abc"; Payload.of_string "def" ] in
  Alcotest.check payload "structural vs split" a b

let test_payload_digest_matches_equal () =
  let a = Payload.concat [ Payload.pattern ~seed:3L 100; Payload.zero 50 ] in
  let b =
    Payload.concat
      [ Payload.sub (Payload.pattern ~seed:3L 100) ~pos:0 ~len:60;
        Payload.sub (Payload.pattern ~seed:3L 100) ~pos:60 ~len:40; Payload.zero 50 ]
  in
  Alcotest.(check int64) "digest equal" (Payload.digest a) (Payload.digest b)

let test_payload_digest_zero_closed_form () =
  (* The O(log n) zero digest must agree with the byte-by-byte digest. *)
  let z = Payload.zero 1000 in
  let explicit = Payload.of_bytes (Bytes.make 1000 '\000') in
  Alcotest.(check int64) "closed form" (Payload.digest explicit) (Payload.digest z)

let test_payload_to_string_guard () =
  Alcotest.check_raises "guard" (Invalid_argument "Payload.to_string: payload too large")
    (fun () -> ignore (Payload.to_string (Payload.zero (Size.mib_n 65))))

(* qcheck: random slicing/concatenation preserves content. *)
let prop_payload_slice_concat =
  QCheck.Test.make ~name:"payload: split at any point and reconcat is identity" ~count:200
    QCheck.(pair (string_of_size Gen.(int_range 1 200)) (int_range 0 200))
    (fun (s, cut) ->
      QCheck.assume (s <> "");
      let cut = cut mod String.length s in
      let p = Payload.of_string s in
      let left = Payload.sub p ~pos:0 ~len:cut in
      let right = Payload.sub p ~pos:cut ~len:(String.length s - cut) in
      Payload.to_string (Payload.concat [ left; right ]) = s)

let prop_payload_digest_agrees_with_equal =
  QCheck.Test.make ~name:"payload: equal strings have equal digests" ~count:200
    QCheck.(pair small_string small_string)
    (fun (a, b) ->
      let pa = Payload.of_string a and pb = Payload.of_string b in
      if a = b then Payload.digest pa = Payload.digest pb && Payload.equal pa pb
      else (not (Payload.equal pa pb)) || a = b)

(* The word-at-a-time [Pattern] digest and [to_string] against byte-wise
   references built only from [Rng.byte_at] / [Payload.byte_at]. *)
let reference_fold byte len =
  let h = ref 0L in
  for i = 0 to len - 1 do
    h := Int64.add (Int64.mul !h 0x100000001B3L) (Int64.of_int (Char.code (byte i) + 1))
  done;
  !h

(* Lengths below a word, a few words, and up to ~200 KiB; offsets both
   small (every alignment, slices inside one word) and far into the stream. *)
let slice_len_gen =
  QCheck.Gen.(frequency [ (3, int_range 0 16); (3, int_range 0 200); (2, int_range 0 (200 * 1024)) ])

let slice_off_gen = QCheck.Gen.(frequency [ (3, int_range 0 64); (2, int_range 0 (1 lsl 40)) ])

let pattern_slice ~seed ~off ~len = Payload.sub (Payload.pattern ~seed (off + len)) ~pos:off ~len

let print_slice (seed, off, len) = Printf.sprintf "seed=%Ld off=%d len=%d" seed off len

let prop_pattern_digest_matches_bytewise =
  QCheck.Test.make ~name:"payload: pattern digest = byte-wise fold, hashed_bytes += len"
    ~count:300
    (QCheck.make ~print:print_slice QCheck.Gen.(triple ui64 slice_off_gen slice_len_gen))
    (fun (seed, off, len) ->
      let expected = reference_fold (fun i -> Rng.byte_at ~seed (off + i)) len in
      let before = Payload.hashed_bytes () in
      let fresh = Payload.digest (pattern_slice ~seed ~off ~len) in
      let mid = Payload.hashed_bytes () in
      (* A new value with the same (seed, off, len): segment-cache hit. *)
      let cached = Payload.digest (pattern_slice ~seed ~off ~len) in
      let after = Payload.hashed_bytes () in
      fresh = expected && cached = expected && mid - before = len && after - mid = len)

(* A payload mixing Pattern, Zero and Bytes segments via concat, then sliced. *)
let mixed_payload_gen =
  let open QCheck.Gen in
  let piece =
    frequency
      [ ( 3,
          map
            (fun (seed, off, len) -> pattern_slice ~seed ~off ~len)
            (triple ui64 slice_off_gen (int_range 0 (64 * 1024))) );
        (1, map Payload.zero (int_range 0 4096));
        (1, map Payload.of_string (string_size (int_range 0 300))) ]
  in
  list_size (int_range 1 6) piece >>= fun pieces ->
  let p = Payload.concat pieces in
  let n = Payload.length p in
  int_range 0 n >>= fun pos ->
  int_range 0 (n - pos) >|= fun len -> Payload.sub p ~pos ~len

let prop_mixed_digest_matches_bytewise =
  QCheck.Test.make ~name:"payload: mixed-segment digest = byte-wise fold" ~count:100
    (QCheck.make ~print:(Fmt.to_to_string Payload.pp) mixed_payload_gen)
    (fun p ->
      Payload.digest p = reference_fold (Payload.byte_at p) (Payload.length p))

let prop_pattern_to_string_matches_byte_at =
  QCheck.Test.make ~name:"payload: pattern to_string = byte_at at every index" ~count:300
    (QCheck.make ~print:print_slice
       QCheck.Gen.(triple ui64 slice_off_gen (frequency [ (3, int_range 0 64); (1, int_range 0 5000) ])))
    (fun (seed, off, len) ->
      let p = pattern_slice ~seed ~off ~len in
      let s = Payload.to_string p in
      String.length s = len
      && List.for_all
           (fun i -> s.[i] = Payload.byte_at p i)
           (List.init len Fun.id))

(* Pinned values: the pattern stream and the digest polynomial are part of
   every golden output, so neither may drift. *)
let test_payload_pattern_digest_pinned () =
  List.iter
    (fun (seed, off, len, want) ->
      Alcotest.(check int64) (print_slice (seed, off, len)) want
        (Payload.digest (pattern_slice ~seed ~off ~len)))
    [ (42L, 0, 1000, 0x34a79ddaeb77983aL); (0x5EEDL, 3, 65536, 0xa51be0c41a6aa69bL);
      (-7L, 1_000_003, 13, 0xd736af0e16c25feL); (1L, 5, 2, 0x1700000027a8L) ]

(* ------------------------------------------------------------------ *)
(* Event_queue *)

let test_event_queue_order () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:3.0 "c";
  Event_queue.add q ~time:1.0 "a";
  Event_queue.add q ~time:2.0 "b";
  let order = List.init 3 (fun _ -> Event_queue.pop q) in
  Alcotest.(check (list (option (pair (float 0.0) string))))
    "sorted" [ Some (1.0, "a"); Some (2.0, "b"); Some (3.0, "c") ] order

let test_event_queue_fifo_ties () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    Event_queue.add q ~time:1.0 i
  done;
  let order = List.init 10 (fun _ -> snd (Option.get (Event_queue.pop q))) in
  Alcotest.(check (list int)) "insertion order" (List.init 10 Fun.id) order

let test_event_queue_empty () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q);
  Alcotest.(check (option (pair (float 0.0) int))) "pop none" None (Event_queue.pop q);
  Alcotest.(check (option (float 0.0))) "peek none" None (Event_queue.peek_time q)

let prop_event_queue_sorted =
  QCheck.Test.make ~name:"event queue: pops are time-sorted" ~count:100
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun time -> Event_queue.add q ~time ()) times;
      let rec drain last =
        match Event_queue.pop q with
        | None -> true
        | Some (t, ()) -> t >= last && drain t
      in
      drain neg_infinity)

(* Equivalence: [Event_queue] against the plain binary heap it replaced,
   copied here as the reference. Under [Fifo] the queue keeps same-instant
   entries in a ready ring outside its heap; the pop order, [peek_time],
   [length] and [is_empty] must match the reference under every schedule. *)
module Ref_queue = struct
  type 'a entry = { time : float; rank : int; seq : int; value : 'a }

  type 'a t = {
    mutable heap : 'a entry array;
    mutable size : int;
    mutable seq : int;
    schedule : Event_queue.schedule;
  }

  let create schedule = { heap = [||]; size = 0; seq = 0; schedule }
  let is_empty t = t.size = 0
  let length t = t.size

  let rank_of t seq =
    match t.schedule with
    | Event_queue.Fifo -> seq
    | Event_queue.Lifo -> -seq
    | Event_queue.Seeded_shuffle seed -> Rng.rank ~seed seq

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

  let add t ~time value =
    let entry = { time; rank = rank_of t t.seq; seq = t.seq; value } in
    t.seq <- t.seq + 1;
    grow t entry;
    t.heap.(t.size) <- entry;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)

  let pop t =
    if t.size = 0 then None
    else begin
      let top = t.heap.(0) in
      t.size <- t.size - 1;
      if t.size > 0 then begin
        t.heap.(0) <- t.heap.(t.size);
        sift_down t 0
      end;
      Some (top.time, top.value)
    end

  let peek_time t = if t.size = 0 then None else Some t.heap.(0).time
end

(* Adds are timed relative to the last popped time, which is where the
   ready ring takes over, or at a small absolute time (heavy ties, and
   sometimes before the last pop). *)
type queue_op = Add_at_last | Add_after_last of int | Add_at of int | Pop

let pp_queue_op ppf = function
  | Add_at_last -> Fmt.string ppf "add@last"
  | Add_after_last k -> Fmt.pf ppf "add@last+%d" k
  | Add_at k -> Fmt.pf ppf "add@%d" k
  | Pop -> Fmt.string ppf "pop"

let queue_case_gen =
  let open QCheck.Gen in
  let schedule =
    frequency
      [ (2, return Event_queue.Fifo); (1, return Event_queue.Lifo);
        (1, map (fun s -> Event_queue.Seeded_shuffle s) (int_range 0 1000)) ]
  in
  let op =
    frequency
      [ (4, return Add_at_last); (2, map (fun k -> Add_after_last k) (int_range 1 2));
        (2, map (fun k -> Add_at k) (int_range 0 3)); (5, return Pop) ]
  in
  pair schedule (list_size (int_range 0 200) op)

let print_queue_case (schedule, ops) =
  Fmt.str "%a: %a" Event_queue.pp_schedule schedule Fmt.(list ~sep:sp pp_queue_op) ops

let prop_event_queue_matches_reference =
  QCheck.Test.make ~name:"event queue: same pops, peek, length as the reference heap" ~count:500
    (QCheck.make ~print:print_queue_case queue_case_gen)
    (fun (schedule, ops) ->
      let q = Event_queue.create ~schedule () and r = Ref_queue.create schedule in
      let last = ref 0.0 and n = ref 0 in
      let agree () =
        Event_queue.length q = Ref_queue.length r
        && Event_queue.is_empty q = Ref_queue.is_empty r
        && Option.equal Float.equal (Event_queue.peek_time q) (Ref_queue.peek_time r)
      in
      let add time =
        Event_queue.add q ~time !n;
        Ref_queue.add r ~time !n;
        incr n
      in
      let pop () =
        let got = Event_queue.pop q and want = Ref_queue.pop r in
        Option.iter (fun (time, _) -> last := time) want;
        got = want
      in
      List.for_all
        (fun op ->
          (match op with
          | Add_at_last -> add !last; true
          | Add_after_last k -> add (!last +. float_of_int k); true
          | Add_at k -> add (float_of_int k); true
          | Pop -> pop ())
          && agree ())
        ops
      && List.for_all (fun _ -> pop () && agree ()) (List.init (Ref_queue.length r + 1) Fun.id))

(* Schedule policies: the mixed-time workload used by the policy tests —
   three runs of simultaneous events separated by distinct times. *)
let schedule_workload q =
  List.iteri
    (fun i time -> Event_queue.add q ~time (i, time))
    [ 1.0; 1.0; 1.0; 1.0; 0.5; 2.0; 2.0; 2.0; 1.5 ]

let drain q =
  let rec go acc =
    match Event_queue.pop q with None -> List.rev acc | Some (_, v) -> go (v :: acc)
  in
  go []

let pops schedule =
  let q = Event_queue.create ~schedule () in
  schedule_workload q;
  drain q

let test_schedule_fifo_matches_default () =
  (* Fifo is the default, and both are byte-identical to historical
     insertion-order behavior. *)
  let dflt =
    let q = Event_queue.create () in
    schedule_workload q;
    drain q
  in
  Alcotest.(check (list (pair int (float 0.0)))) "fifo = default" dflt (pops Event_queue.Fifo);
  Alcotest.(check (list int)) "insertion order within ties"
    [ 4; 0; 1; 2; 3; 8; 5; 6; 7 ]
    (List.map fst dflt)

let test_schedule_lifo_reverses_ties () =
  Alcotest.(check (list int)) "reverse insertion order within ties"
    [ 4; 3; 2; 1; 0; 8; 7; 6; 5 ]
    (List.map fst (pops Event_queue.Lifo))

let test_schedule_shuffle_permutes_within_ties () =
  (* Any seed: time order is preserved, and each same-time run pops a
     permutation of exactly the events inserted at that time. *)
  List.iter
    (fun seed ->
      let order = pops (Event_queue.Seeded_shuffle seed) in
      Alcotest.(check (list (float 0.0)))
        (Fmt.str "times sorted (seed %d)" seed)
        [ 0.5; 1.0; 1.0; 1.0; 1.0; 1.5; 2.0; 2.0; 2.0 ]
        (List.map snd order);
      let bucket t =
        List.filter_map (fun (i, time) -> if time = t then Some i else None) order
      in
      Alcotest.(check (list int))
        (Fmt.str "t=1.0 run is a permutation (seed %d)" seed)
        [ 0; 1; 2; 3 ]
        (List.sort Int.compare (bucket 1.0));
      Alcotest.(check (list int))
        (Fmt.str "t=2.0 run is a permutation (seed %d)" seed)
        [ 5; 6; 7 ]
        (List.sort Int.compare (bucket 2.0)))
    [ 0; 1; 7; 42; 1337 ]

let test_schedule_shuffle_deterministic () =
  Alcotest.(check (list (pair int (float 0.0))))
    "same seed, same pop order"
    (pops (Event_queue.Seeded_shuffle 7))
    (pops (Event_queue.Seeded_shuffle 7));
  (* Some pair of distinct seeds must disagree — shuffling that never
     shuffles would be vacuous. *)
  let orders = List.map (fun s -> pops (Event_queue.Seeded_shuffle s)) [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check bool) "distinct seeds can disagree" true
    (List.exists (fun o -> o <> List.hd orders) orders)

let test_schedule_parse_roundtrip () =
  List.iter
    (fun s ->
      match Event_queue.schedule_of_string (Event_queue.schedule_to_string s) with
      | Ok s' -> Alcotest.(check bool) "roundtrip" true (s = s')
      | Error m -> Alcotest.fail m)
    [ Event_queue.Fifo; Event_queue.Lifo; Event_queue.Seeded_shuffle 503 ];
  Alcotest.(check bool) "garbage rejected" true
    (match Event_queue.schedule_of_string "random" with Error _ -> true | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_time_advances () =
  let e = Engine.create () in
  let log = ref [] in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        log := (Engine.now e, "start") :: !log;
        Engine.sleep e 5.0;
        log := (Engine.now e, "mid") :: !log;
        Engine.sleep e 2.5;
        log := (Engine.now e, "end") :: !log)
  in
  Engine.run e;
  Alcotest.(check (list (pair (float 1e-9) string)))
    "timeline"
    [ (0.0, "start"); (5.0, "mid"); (7.5, "end") ]
    (List.rev !log)

let test_engine_interleaving_deterministic () =
  let run_once () =
    let e = Engine.create () in
    let log = ref [] in
    let mk name delays =
      ignore
        (Engine.Fiber.spawn e ~name (fun () ->
             List.iter
               (fun d ->
                 Engine.sleep e d;
                 log := Fmt.str "%s@%.1f" name (Engine.now e) :: !log)
               delays))
    in
    mk "a" [ 1.0; 2.0 ];
    mk "b" [ 2.0; 2.0 ];
    Engine.run e;
    List.rev !log
  in
  Alcotest.(check (list string))
    "expected interleaving"
    [ "a@1.0"; "b@2.0"; "a@3.0"; "b@4.0" ]
    (run_once ());
  Alcotest.(check (list string)) "reproducible" (run_once ()) (run_once ())

(* Two sleeps end at the same instant: both wake-up events were queued
   before the clock got there, so both precede anything scheduled once it
   has — b wakes before a's yield comes back. *)
let test_engine_same_instant_order () =
  let e = Engine.create () in
  let log = ref [] in
  let note s = log := s :: !log in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        Engine.sleep e 1.0;
        note "a";
        Engine.yield e;
        note "a after yield")
  in
  let _ = Engine.Fiber.spawn e (fun () -> Engine.sleep e 1.0; note "b") in
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "a after yield" ] (List.rev !log)

let test_engine_fiber_failure_surfaces () =
  let e = Engine.create () in
  let _ = Engine.Fiber.spawn e ~name:"boom" (fun () -> failwith "kaput") in
  Alcotest.check_raises "failure raised"
    (Engine.Fiber_failure ("boom", Failure "kaput"))
    (fun () -> Engine.run e)

let test_engine_run_until () =
  let e = Engine.create () in
  let hits = ref 0 in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        for _ = 1 to 10 do
          Engine.sleep e 1.0;
          incr hits
        done)
  in
  Engine.run_until e 4.5;
  Alcotest.(check int) "partial" 4 !hits;
  check_float "clock at limit" 4.5 (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "rest" 10 !hits

let test_engine_at_callback () =
  let e = Engine.create () in
  let fired = ref (-1.0) in
  Engine.at e 3.25 (fun () -> fired := Engine.now e);
  Engine.run e;
  check_float "fired at" 3.25 !fired

let test_engine_at_rejects_past () =
  let e = Engine.create () in
  Engine.at e 2.0 ignore;
  Engine.run e;
  let rejects time =
    match Engine.at e time ignore with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "before now" true (rejects 1.0);
  Alcotest.(check bool) "nan" true (rejects nan);
  Alcotest.(check bool) "at now" false (rejects 2.0);
  Engine.run e;
  check_float "clock never went back" 2.0 (Engine.now e)

let test_ivar_basic () =
  let e = Engine.create () in
  let iv = Engine.Ivar.create e in
  let got = ref 0 in
  let _ = Engine.Fiber.spawn e (fun () -> got := Engine.Ivar.read iv) in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        Engine.sleep e 2.0;
        Engine.Ivar.fill iv 42)
  in
  Engine.run e;
  Alcotest.(check int) "value" 42 !got

let test_ivar_read_after_fill () =
  let e = Engine.create () in
  let iv = Engine.Ivar.create e in
  Engine.Ivar.fill iv "x";
  let got = ref "" in
  let _ = Engine.Fiber.spawn e (fun () -> got := Engine.Ivar.read iv) in
  Engine.run e;
  Alcotest.(check string) "value" "x" !got

let test_ivar_double_fill_rejected () =
  let e = Engine.create () in
  let iv = Engine.Ivar.create e in
  Engine.Ivar.fill iv 1;
  Alcotest.check_raises "double fill" (Invalid_argument "Ivar.fill: already filled")
    (fun () -> Engine.Ivar.fill iv 2)

let test_ivar_multiple_readers () =
  let e = Engine.create () in
  let iv = Engine.Ivar.create e in
  let sum = ref 0 in
  for _ = 1 to 5 do
    ignore (Engine.Fiber.spawn e (fun () -> sum := !sum + Engine.Ivar.read iv))
  done;
  let _ = Engine.Fiber.spawn e (fun () -> Engine.sleep e 1.0; Engine.Ivar.fill iv 10) in
  Engine.run e;
  Alcotest.(check int) "all woken" 50 !sum

let test_mailbox_fifo () =
  let e = Engine.create () in
  let mb = Engine.Mailbox.create e in
  let got = ref [] in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        for _ = 1 to 3 do
          got := Engine.Mailbox.recv mb :: !got
        done)
  in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        List.iter
          (fun v ->
            Engine.sleep e 1.0;
            Engine.Mailbox.send mb v)
          [ 1; 2; 3 ])
  in
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_buffered_before_recv () =
  let e = Engine.create () in
  let mb = Engine.Mailbox.create e in
  Engine.Mailbox.send mb "a";
  Engine.Mailbox.send mb "b";
  Alcotest.(check int) "buffered" 2 (Engine.Mailbox.length mb);
  let got = ref [] in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        let first = Engine.Mailbox.recv mb in
        let second = Engine.Mailbox.recv mb in
        got := [ first; second ])
  in
  Engine.run e;
  Alcotest.(check (list string)) "drained" [ "a"; "b" ] !got

let test_semaphore_limits_concurrency () =
  let e = Engine.create () in
  let sem = Engine.Semaphore.create e 2 in
  let active = ref 0 and peak = ref 0 in
  for _ = 1 to 6 do
    ignore
      (Engine.Fiber.spawn e (fun () ->
           Engine.Semaphore.with_held sem (fun () ->
               incr active;
               peak := max !peak !active;
               Engine.sleep e 1.0;
               decr active)))
  done;
  Engine.run e;
  Alcotest.(check int) "peak concurrency" 2 !peak;
  check_float "three waves" 3.0 (Engine.now e)

let test_semaphore_release_on_exception () =
  let e = Engine.create () in
  let sem = Engine.Semaphore.create e 1 in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        (try Engine.Semaphore.with_held sem (fun () -> failwith "die") with
        | Failure _ -> ());
        Engine.Semaphore.with_held sem (fun () -> ()))
  in
  Engine.run e;
  Alcotest.(check int) "token back" 1 (Engine.Semaphore.available sem)

let test_fiber_join () =
  let e = Engine.create () in
  let order = ref [] in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        let child =
          Engine.Fiber.spawn e (fun () ->
              Engine.sleep e 3.0;
              order := "child" :: !order)
        in
        Engine.Fiber.join child;
        order := "parent" :: !order)
  in
  Engine.run e;
  Alcotest.(check (list string)) "join waits" [ "child"; "parent" ] (List.rev !order)

let test_fiber_cancel_blocked () =
  let e = Engine.create () in
  let cancelled_at = ref (-1.0) and reached = ref false in
  let victim =
    Engine.Fiber.spawn e ~name:"victim" (fun () ->
        (try Engine.sleep e 100.0
         with Engine.Cancelled as exn ->
           cancelled_at := Engine.now e;
           raise exn);
        reached := true)
  in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        Engine.sleep e 1.0;
        Engine.Fiber.cancel victim)
  in
  Engine.run e;
  check_float "cancelled at 1s, not 100s" 1.0 !cancelled_at;
  Alcotest.(check bool) "body aborted" false !reached;
  Alcotest.(check bool) "finished" true (Engine.Fiber.is_finished victim)

let test_fiber_cancel_before_start () =
  let e = Engine.create () in
  let ran = ref false in
  let f = Engine.Fiber.spawn e (fun () -> ran := true) in
  Engine.Fiber.cancel f;
  Engine.run e;
  Alcotest.(check bool) "never ran" false !ran

let test_fiber_cancel_outcome () =
  let e = Engine.create () in
  let victim = Engine.Fiber.spawn e (fun () -> Engine.sleep e 10.0) in
  let outcome = ref Engine.Fiber.Completed in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        Engine.sleep e 1.0;
        Engine.Fiber.cancel victim;
        outcome := Engine.Fiber.await victim)
  in
  Engine.run e;
  Alcotest.(check bool) "cancelled outcome" true (!outcome = Engine.Fiber.Cancelled_outcome)

let test_group_cancel () =
  let e = Engine.create () in
  let group = Engine.Group.create () in
  let survivors = ref 0 in
  for _ = 1 to 4 do
    ignore
      (Engine.Fiber.spawn e ~group (fun () ->
           Engine.sleep e 50.0;
           incr survivors))
  done;
  let _ =
    Engine.Fiber.spawn e (fun () ->
        Engine.sleep e 5.0;
        Engine.Group.cancel e group)
  in
  Engine.run_until e 6.0;
  Alcotest.(check int) "group live after cancel" 0 (Engine.Group.live group);
  Engine.run e;
  Alcotest.(check int) "all killed" 0 !survivors

let test_engine_all_barrier () =
  let e = Engine.create () in
  let finished_at = ref 0.0 in
  let _ =
    Engine.Fiber.spawn e (fun () ->
        Engine.all e
          [ (fun () -> Engine.sleep e 1.0); (fun () -> Engine.sleep e 7.0);
            (fun () -> Engine.sleep e 3.0) ];
        finished_at := Engine.now e)
  in
  Engine.run e;
  check_float "barrier waits for slowest" 7.0 !finished_at

let test_cancelled_semaphore_waiter_does_not_eat_token () =
  let e = Engine.create () in
  let sem = Engine.Semaphore.create e 1 in
  let got_token = ref false in
  let _ =
    Engine.Fiber.spawn e ~name:"holder" (fun () ->
        Engine.Semaphore.with_held sem (fun () -> Engine.sleep e 10.0))
  in
  let waiter =
    Engine.Fiber.spawn e ~name:"waiter" (fun () ->
        Engine.sleep e 1.0;
        Engine.Semaphore.acquire sem)
  in
  let _ =
    Engine.Fiber.spawn e ~name:"late" (fun () ->
        Engine.sleep e 5.0;
        Engine.Fiber.cancel waiter;
        Engine.Semaphore.acquire sem;
        got_token := true)
  in
  Engine.run e;
  Alcotest.(check bool) "token reached late fiber" true !got_token

let test_blocked_fibers_counter () =
  let e = Engine.create () in
  let iv : unit Engine.Ivar.t = Engine.Ivar.create e in
  for _ = 1 to 3 do
    ignore (Engine.Fiber.spawn e (fun () -> Engine.Ivar.read iv))
  done;
  Engine.run e;
  Alcotest.(check int) "blocked" 3 (Engine.blocked_fibers e);
  Alcotest.(check int) "live" 3 (Engine.live_fibers e)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_series () =
  let s = Stats.series "a" in
  Stats.add s ~x:1.0 ~y:10.0;
  Stats.add s ~x:2.0 ~y:20.0;
  Alcotest.(check (option (float 0.0))) "lookup" (Some 20.0) (Stats.y_at s ~x:2.0);
  Alcotest.(check (option (float 0.0))) "missing" None (Stats.y_at s ~x:3.0)

let test_stats_render_table () =
  let a = Stats.series "alpha" and b = Stats.series "beta" in
  Stats.add a ~x:1.0 ~y:1.5;
  Stats.add b ~x:1.0 ~y:2.5;
  Stats.add a ~x:2.0 ~y:3.5;
  let t = Stats.table ~title:"t" ~x_label:"x" ~y_label:"y" [ a; b ] in
  let rendered = Stats.render t in
  Alcotest.(check bool) "has header" true
    (String.length rendered > 0 && String.sub rendered 0 2 = "==");
  (* beta has no point at x=2: rendered as "-" *)
  Alcotest.(check bool) "hole marker" true
    (String.split_on_char '\n' rendered |> List.exists (fun l ->
         String.length l > 0
         && String.trim l <> ""
         && String.split_on_char ' ' l |> List.filter (( <> ) "") |> fun cells ->
            cells = [ "2"; "3.50"; "-" ]))

let test_stats_csv () =
  let a = Stats.series "s" in
  Stats.add a ~x:1.0 ~y:2.0;
  let t = Stats.table ~title:"t" ~x_label:"n" ~y_label:"y" [ a ] in
  Alcotest.(check string) "csv" "n,s\n1,2\n" (Stats.to_csv t)

let test_stats_aggregates () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "stddev" 1.0 (Stats.stddev [ 1.0; 2.0; 3.0 ]);
  let lo, hi = Stats.min_max [ 3.0; 1.0; 2.0 ] in
  check_float "min" 1.0 lo;
  check_float "max" 3.0 hi

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let () =
  Alcotest.run "simcore"
    [
      ( "size",
        [
          Alcotest.test_case "constants" `Quick test_size_constants;
          Alcotest.test_case "rounding" `Quick test_size_rounding;
          Alcotest.test_case "pretty printing" `Quick test_size_pp;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "exponential positive" `Quick test_rng_exponential_positive;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "byte_at purity" `Quick test_rng_byte_at_pure;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "payload",
        [
          Alcotest.test_case "basics" `Quick test_payload_basics;
          Alcotest.test_case "zero" `Quick test_payload_zero;
          Alcotest.test_case "sub" `Quick test_payload_sub;
          Alcotest.test_case "concat" `Quick test_payload_concat;
          Alcotest.test_case "pattern determinism" `Quick test_payload_pattern_deterministic;
          Alcotest.test_case "pattern slicing" `Quick test_payload_pattern_slicing;
          Alcotest.test_case "mixed representation equality" `Quick test_payload_equal_mixed_repr;
          Alcotest.test_case "digest respects equality" `Quick test_payload_digest_matches_equal;
          Alcotest.test_case "zero digest closed form" `Quick test_payload_digest_zero_closed_form;
          Alcotest.test_case "to_string guard" `Quick test_payload_to_string_guard;
          Alcotest.test_case "pattern digest pinned" `Quick test_payload_pattern_digest_pinned;
        ]
        @ qsuite
            [ prop_payload_slice_concat; prop_payload_digest_agrees_with_equal;
              prop_pattern_digest_matches_bytewise; prop_mixed_digest_matches_bytewise;
              prop_pattern_to_string_matches_byte_at ] );
      ( "event_queue",
        [
          Alcotest.test_case "time order" `Quick test_event_queue_order;
          Alcotest.test_case "fifo on ties" `Quick test_event_queue_fifo_ties;
          Alcotest.test_case "empty queue" `Quick test_event_queue_empty;
          Alcotest.test_case "fifo matches default" `Quick test_schedule_fifo_matches_default;
          Alcotest.test_case "lifo reverses ties" `Quick test_schedule_lifo_reverses_ties;
          Alcotest.test_case "shuffle permutes within ties" `Quick
            test_schedule_shuffle_permutes_within_ties;
          Alcotest.test_case "shuffle deterministic per seed" `Quick
            test_schedule_shuffle_deterministic;
          Alcotest.test_case "schedule parse roundtrip" `Quick test_schedule_parse_roundtrip;
        ]
        @ qsuite [ prop_event_queue_sorted; prop_event_queue_matches_reference ] );
      ( "engine",
        [
          Alcotest.test_case "time advances" `Quick test_engine_time_advances;
          Alcotest.test_case "deterministic interleaving" `Quick
            test_engine_interleaving_deterministic;
          Alcotest.test_case "same-instant order" `Quick test_engine_same_instant_order;
          Alcotest.test_case "fiber failure surfaces" `Quick test_engine_fiber_failure_surfaces;
          Alcotest.test_case "run_until" `Quick test_engine_run_until;
          Alcotest.test_case "at callback" `Quick test_engine_at_callback;
          Alcotest.test_case "at rejects the past" `Quick test_engine_at_rejects_past;
          Alcotest.test_case "all barrier" `Quick test_engine_all_barrier;
          Alcotest.test_case "blocked fiber count" `Quick test_blocked_fibers_counter;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "basic" `Quick test_ivar_basic;
          Alcotest.test_case "read after fill" `Quick test_ivar_read_after_fill;
          Alcotest.test_case "double fill rejected" `Quick test_ivar_double_fill_rejected;
          Alcotest.test_case "multiple readers" `Quick test_ivar_multiple_readers;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "buffered before recv" `Quick test_mailbox_buffered_before_recv;
        ] );
      ( "semaphore",
        [
          Alcotest.test_case "limits concurrency" `Quick test_semaphore_limits_concurrency;
          Alcotest.test_case "release on exception" `Quick test_semaphore_release_on_exception;
          Alcotest.test_case "cancelled waiter keeps token" `Quick
            test_cancelled_semaphore_waiter_does_not_eat_token;
        ] );
      ( "fiber",
        [
          Alcotest.test_case "join" `Quick test_fiber_join;
          Alcotest.test_case "cancel blocked fiber" `Quick test_fiber_cancel_blocked;
          Alcotest.test_case "cancel before start" `Quick test_fiber_cancel_before_start;
          Alcotest.test_case "cancel outcome" `Quick test_fiber_cancel_outcome;
          Alcotest.test_case "group cancel" `Quick test_group_cancel;
        ] );
      ( "stats",
        [
          Alcotest.test_case "series" `Quick test_stats_series;
          Alcotest.test_case "render table" `Quick test_stats_render_table;
          Alcotest.test_case "csv" `Quick test_stats_csv;
          Alcotest.test_case "aggregates" `Quick test_stats_aggregates;
        ] );
    ]
