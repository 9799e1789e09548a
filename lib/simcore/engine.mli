(** Discrete-event simulation engine.

    The engine runs cooperative {e fibers} implemented with OCaml 5 effect
    handlers: a fiber is an ordinary OCaml function that may block on
    {!sleep}, {!Ivar.read}, {!Mailbox.recv}, {!Semaphore.acquire} or
    {!Fiber.await}; blocking suspends the underlying continuation and hands
    control back to the scheduler, which advances simulated time.

    Scheduling is deterministic: events execute in time order, with
    same-timestamp ties broken by the engine's {!Event_queue.schedule}
    policy (insertion order by default), and all randomness flows through
    the engine's {!rng}. Running the same simulation twice with the same
    seed and schedule produces identical traces.

    Fibers can be {e cancelled} (individually or per {!Group}), which models
    fail-stop machine crashes: a cancelled fiber's pending blocking operation
    raises {!Cancelled} inside the fiber, unwinding it. *)

type t
(** A simulation engine instance. *)

type fiber
(** A lightweight simulated process. *)

exception Cancelled
(** Raised inside a fiber when it is cancelled while blocked. *)

exception Fiber_failure of string * exn
(** Raised out of {!run} when a fiber dies with an unhandled exception
    (other than {!Cancelled}); carries the fiber name and the exception. *)

exception Audit_failure of string * string list
(** Raised out of {!run} when teardown audits are enabled and a registered
    audit subject violates a structural invariant; carries the subject name
    and the violation descriptions. *)

val create : ?seed:int -> ?schedule:Event_queue.schedule -> unit -> t
(** [create ~seed ()] is a fresh engine at time [0.0]. Default seed 42.
    [schedule] selects the event queue's same-timestamp tie-break policy
    (default {!Event_queue.Fifo}, which is bit-identical to the historical
    insertion-order behavior); see {!Event_queue.schedule}. *)

val now : t -> float
(** Current simulated time in seconds. *)

val rng : t -> Rng.t
(** The engine's root random stream. Draws (and {!Rng.split}s) consume it
    in {e event execution order}, so a stream obtained from it inside a
    fiber depends on how same-timestamp ties were broken. Components that
    need schedule-independent randomness must use {!derived_rng}
    instead. *)

val derived_rng : t -> string -> Rng.t
(** [derived_rng t name] is a private random stream keyed by the engine
    seed and [name] — a pure function of the two, consuming nothing from
    {!rng}. Identity-keyed streams are what keep simulation {e results}
    independent of the tie-break {!schedule}: with order-keyed streams a
    schedule change silently reassigns randomness between components
    (found by [blobcr_lint fuzz], see DESIGN.md section 13). *)

val schedule : t -> Event_queue.schedule
(** The tie-break policy the engine's event queue runs under. *)

val current_fiber : t -> fiber option
(** The fiber whose body is executing right now, or [None] between events
    (or inside a plain {!at} callback). Observability layers use this to
    attribute work to a logical thread; it never changes scheduling. *)

val run : t -> unit
(** Process events until the queue is empty. Raises {!Fiber_failure} as soon
    as any fiber dies with an unhandled exception. Fibers still blocked when
    the queue drains are simply left suspended (use {!blocked_fibers} to
    detect unexpected deadlock in tests). *)

val run_until : t -> float -> unit
(** [run_until t limit] processes all events with time [<= limit] and then
    advances the clock to [limit]. *)

val step : t -> bool
(** Execute a single event. Returns [false] when the queue is empty. *)

val live_fibers : t -> int
(** Number of fibers spawned and not yet finished. *)

val blocked_fibers : t -> int
(** Number of live fibers currently suspended on a blocking operation. *)

(** {1 Teardown audits}

    Stateful components (disk images, mirrors, version managers, ...)
    register themselves as {e audit subjects} at creation. When audits are
    enabled, {!run} checks every subject's structural invariants once the
    event queue drains and raises {!Audit_failure} on the first violation.
    The actual invariant checks live above the component libraries (in
    [Analysis.Invariants]) and are injected with {!set_subject_auditor};
    until an auditor is installed, registered subjects are inert. *)

type audit_subject = ..
(** Extensible registry of auditable state. Component modules add their own
    constructor (e.g. [Qcow2.Audit_image]) and register instances. *)

val register_audit_subject : t -> audit_subject -> unit
(** Attach a subject to this engine's teardown audit. Cheap, and safe to
    call even when audits are disabled. *)

val audit_subjects : t -> audit_subject list
(** All registered subjects, in registration order. *)

val audit_violations : t -> (string * string list) list
(** Run the installed auditor over every subject and return the non-clean
    results as [(subject, violations)]. Does not raise. *)

val set_subject_auditor : (audit_subject -> (string * string list) option) -> unit
(** Install the global subject auditor (normally [Analysis.Invariants]'s;
    the function receives each subject and returns [None] when clean). *)

val audits_enabled : unit -> bool
(** Whether {!run} performs teardown audits. Defaults to the [BLOBCR_AUDIT]
    environment variable (unset, empty or ["0"] means disabled). *)

val set_audits_enabled : bool -> unit
(** Override the audit toggle for the current process (tests use this to
    force audits on regardless of the environment). *)

val sleep : t -> float -> unit
(** [sleep t d] blocks the calling fiber for [d] simulated seconds.
    Must be called from inside a fiber. Requires [d >= 0.]. *)

val yield : t -> unit
(** Reschedule the calling fiber at the current time, letting other ready
    fibers run first. *)

val at : t -> float -> (unit -> unit) -> unit
(** [at t time f] schedules plain callback [f] (not a fiber; it must not
    block) at absolute simulated [time]. Raises [Invalid_argument] if
    [time] is before {!now} (or is NaN): the clock never goes back. *)

module Group : sig
  (** A cancellation group: all fibers spawned into the group can be killed
      together. Used to model a machine crash taking down every process
      hosted on it. *)

  type engine := t
  type t

  val create : unit -> t
  val cancel : engine -> t -> unit
  (** Cancel every member fiber (idempotent). *)

  val live : t -> int
  (** Number of member fibers not yet finished. *)
end

module Fiber : sig
  type engine := t
  type t = fiber

  type outcome =
    | Completed
    | Cancelled_outcome
    | Failed of exn

  val spawn : engine -> ?name:string -> ?group:Group.t -> (unit -> unit) -> t
  (** Start a new fiber at the current simulated time. May be called from
      inside or outside a fiber. *)

  val name : t -> string
  val id : t -> int

  val cancel : t -> unit
  (** Request cancellation. If the fiber is blocked, it is resumed with
      {!Cancelled} at the current time; if it is running or not yet started,
      it is cancelled at its next blocking point (or before starting). *)

  val is_finished : t -> bool

  val await : t -> outcome
  (** Block until the fiber finishes and return how it finished. *)

  val join : t -> unit
  (** Like {!await} but returns unit; a [Failed] outcome raises
      {!Fiber_failure}. A cancelled fiber joins normally. *)
end

val all : t -> ?name:string -> (unit -> unit) list -> unit
(** [all t fs] runs each thunk in its own fiber and blocks until every one
    has finished (a fork–join barrier). Must be called from inside a
    fiber. *)

module Ivar : sig
  (** Write-once synchronization variable. *)

  type engine := t
  type 'a t

  val create : engine -> 'a t

  val fill : 'a t -> 'a -> unit
  (** Wakes all readers. Raises [Invalid_argument] if already filled. *)

  val read : 'a t -> 'a
  (** Block until filled, then return the value. *)

  val peek : 'a t -> 'a option
  val is_filled : 'a t -> bool
end

module Mailbox : sig
  (** Unbounded FIFO message queue between fibers. *)

  type engine := t
  type 'a t

  val create : engine -> 'a t
  val send : 'a t -> 'a -> unit
  val recv : 'a t -> 'a
  (** Block until a message is available. Messages are delivered in FIFO
      order; competing receivers are served in arrival order. *)

  val length : 'a t -> int
end

module Semaphore : sig
  (** Counting semaphore; the building block for FIFO resources such as
      disks and CPU cores. *)

  type engine := t
  type t

  val create : engine -> int -> t
  val acquire : t -> unit
  val release : t -> unit
  val with_held : t -> (unit -> 'a) -> 'a
  (** Acquire, run, release (also on exception). *)

  val available : t -> int
  val waiting : t -> int
end
