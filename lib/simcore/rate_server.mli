(** FIFO byte-rate server.

    Models a device that serves requests one at a time at a fixed byte rate
    with a fixed per-operation overhead — the building block for disks and
    network interfaces. Concurrent callers queue in FIFO order, so
    contention shows up as queueing delay, exactly like a saturated disk or
    NIC. *)

type t

val create :
  Engine.t -> rate:float -> ?per_op:float -> ?seek:float -> ?name:string -> unit -> t
(** [create engine ~rate ~per_op ~seek ()] serves requests at [rate]
    bytes/second, charging an additional [per_op] seconds (default 0) of
    service time per operation, plus [seek] seconds (default 0) whenever a
    request belongs to a different {e stream} than the previous one — the
    head-repositioning model that makes a disk fast for one sequential
    writer and slow when interleaving many. Requires [rate > 0]. *)

val process : t -> ?stream:int -> int -> unit
(** [process t ~stream bytes] blocks the calling fiber until the server has
    served this request: queueing delay plus [per_op + bytes/rate], plus
    [seek] if [stream] differs from the previously served stream.
    Requests without a [stream] never pay or trigger seeks. Raises
    [Invalid_argument] if [stream] is [min_int], which is reserved. *)

val process_many : t -> ?stream:int -> ops:int -> int -> unit
(** [process_many t ~ops bytes] serves a batch of [ops] back-to-back
    operations totalling [bytes] as one FIFO occupancy (at most one
    seek). *)

val seeks : t -> int
(** Stream switches served so far. *)

val name : t -> string
(** The name passed at creation (for traces); [""] by default. *)

val rate : t -> float
(** Service rate in bytes/second. *)

val busy_time : t -> float
(** Total simulated seconds the server has spent serving requests. *)

val ops : t -> int
(** Operations served so far. *)

val bytes_served : t -> int
(** Total bytes served so far. *)

val utilization : t -> float
(** [busy_time / now], 0 at time 0. *)
