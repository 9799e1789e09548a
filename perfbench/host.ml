(* Host-side clocks and heap figures: the only place the benchmark reads
   the machine it runs on. Simulated code never sees these values. *)

let wall () = Unix.gettimeofday () (* lint: allow wall-clock — host time is the measurand *)

(* User plus system CPU seconds of this process (getrusage resolution). *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let mib = 1048576.0
let word_bytes = float_of_int (Sys.word_size / 8)

type gc = { minor_words : float; major_words : float; major_collections : int }

(* [open Blobcr] would shadow [Gc] with the snapshot collector, so the
   runtime's module is always named in full. *)
let gc () =
  let s = Stdlib.Gc.quick_stat () in
  {
    minor_words = s.Stdlib.Gc.minor_words;
    major_words = s.Stdlib.Gc.major_words;
    major_collections = s.Stdlib.Gc.major_collections;
  }

let peak_heap_mib () =
  float_of_int (Stdlib.Gc.quick_stat ()).Stdlib.Gc.top_heap_words *. word_bytes /. mib


(* The reference slice: a frozen copy of the simulator's hot path as it
   stood when the benchmark was defined — [Simcore.Payload]'s byte-wise
   polynomial digest over [Simcore.Rng.byte_at] pattern bytes — hashing
   64 KiB. The benchmark times one slice after every operation. Other
   tenants of the machine slow this slice and the simulator alike, so
   host times divided by the run's mean slice time (and multiplied by
   [nominal_slice]) no longer depend on how busy the machine was. The
   copy is frozen on purpose: a later speed-up of the simulator's own
   digest must not speed up the yardstick. [nominal_slice] only fixes the
   scale: the slice time at 225 MiB/s, about the rate [Payload.digest]
   reaches on an idle 2-vCPU 2.1 GHz Xeon. *)
let nominal_slice = 65536.0 /. (225.0 *. 1048576.0)

let[@inline never] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline never] byte_at ~seed i =
  let word = mix (Int64.add seed (Int64.of_int (i lsr 3))) in
  Char.chr (Int64.to_int (Int64.shift_right_logical word ((i land 7) * 8)) land 0xff)

let reference_slice () =
  let c0 = cpu () in
  let h = ref 0L in
  for i = 0 to 65535 do
    h := Int64.add (Int64.mul !h 0x100000001B3L) (Int64.of_int (Char.code (byte_at ~seed:0x5EEDL i) + 1))
  done;
  ignore (Sys.opaque_identity !h);
  cpu () -. c0
