(** Priority queue of timestamped events.

    Events are ordered by time; how same-timestamp ties break is a
    pluggable {!schedule} policy. The default, {!Fifo}, orders ties by a
    monotonically increasing insertion counter, so simultaneous events run
    in insertion order and the simulation is fully deterministic — and
    bit-identical to the historical behavior. The other policies exist to
    {e fuzz} schedules (see [Analysis.Schedule_fuzz]): they permute only
    same-timestamp runs, never the time order, and are equally
    deterministic for a fixed policy value.

    Under {!Fifo}, entries added at the time of the last entry popped —
    the simulated instant being run — skip the heap and go to an O(1)
    ready FIFO; the pop order is still exactly (time, insertion). *)

type schedule =
  | Fifo  (** ties pop in insertion order (the default) *)
  | Lifo  (** ties pop in reverse insertion order *)
  | Seeded_shuffle of int
      (** ties pop in a pseudo-random order derived purely from the seed
          and each entry's insertion index ({!Rng.rank}) — the same seed
          always yields the same permutation *)

val pp_schedule : Format.formatter -> schedule -> unit
(** ["fifo"], ["lifo"] or ["shuffle:<seed>"]. *)

val schedule_to_string : schedule -> string
(** Same rendering as {!pp_schedule}, as a string — the inverse of
    {!schedule_of_string}. *)

val schedule_of_string : string -> (schedule, string) result
(** Parse ["fifo"], ["lifo"] or ["shuffle:<seed>"]; [Error] carries a
    human-readable message. *)

type 'a t

val create : ?schedule:schedule -> unit -> 'a t
(** An empty queue with the insertion counter at zero, breaking ties
    according to [schedule] (default {!Fifo}). *)

val schedule : 'a t -> schedule
(** The tie-break policy this queue was created with. *)

val is_empty : 'a t -> bool
(** [true] iff no events are pending. *)

val length : 'a t -> int
(** Number of pending events. *)

val add : 'a t -> time:float -> 'a -> unit
(** Insert an event at the given simulated time. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event. *)

val peek_time : 'a t -> float option
(** Time of the earliest event without removing it. *)
