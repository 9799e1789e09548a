(** Deterministic splittable pseudo-random number generator (splitmix64).

    Every stochastic decision in the simulator draws from an explicit [Rng.t]
    so that simulations are reproducible: the same seed yields the same event
    trace, byte-for-byte. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Distinct seeds give independent
    streams. *)

val copy : t -> t
(** [copy t] duplicates the current state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** A fair coin flip. *)

val exponential : t -> float -> float
(** [exponential t mean] draws from an exponential distribution with the
    given mean. Used for failure inter-arrival times. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val of_key : seed:int -> string -> t
(** [of_key ~seed name] is a generator whose stream is a pure function of
    [(seed, name)]. Unlike {!split}, it consumes nothing from any parent
    stream, so the stream a component receives never depends on {e the
    order} in which components were created — the property that keeps
    simulation results independent of event tie-break scheduling (see
    {!Engine.derived_rng}). *)

val rank : seed:int -> int -> int
(** [rank ~seed i] is a non-negative pseudo-random priority for index [i]
    under stream [seed] — a pure function of [(seed, i)]. Used by
    {!Event_queue} to permute same-timestamp event runs deterministically
    without any mutable generator state. *)

val byte_at : seed:int64 -> int -> char
(** [byte_at ~seed i] is the [i]-th byte of the infinite deterministic
    pattern stream identified by [seed]. Pure function of [(seed, i)];
    used by {!Payload.Pattern} to represent large random buffers without
    materializing them. Each call computes one 64-bit stream word; use
    {!pattern_blit} or {!pattern_hash} to walk a range. *)

val pattern_blit : seed:int64 -> off:int -> bytes -> int -> int -> unit
(** [pattern_blit ~seed ~off buf pos len] writes stream bytes
    [\[off, off+len)] into [buf] at [pos], computing each stream word
    once. Raises [Invalid_argument] if [off < 0] or the target range is
    not within [buf]. *)

val pattern_hash : base:int64 -> seed:int64 -> off:int -> len:int -> int64
(** [pattern_hash ~base ~seed ~off ~len] folds stream bytes
    [\[off, off+len)] into [h := h * base + (byte + 1)] (mod 2^64) from
    [h = 0] — exactly the byte-by-byte fold, computed a word at a time:
    one stream word per 8 bytes and one serial multiply-add per word. This
    is {!Payload.digest}'s [Pattern] kernel; it lives here, next to the
    stream's mixing function, so that function is inlined into the loop. *)
