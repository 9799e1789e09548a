exception Cancelled
exception Fiber_failure of string * exn
exception Audit_failure of string * string list

let () =
  Printexc.register_printer (function
    | Fiber_failure (name, exn) ->
        Some (Printf.sprintf "Fiber_failure(%s: %s)" name (Printexc.to_string exn))
    | Audit_failure (subject, violations) ->
        Some
          (Printf.sprintf "Audit_failure(%s: %s)" subject (String.concat "; " violations))
    | _ -> None)

type audit_subject = ..

(* The subject auditor is installed by [Analysis.Invariants] (which lives
   above the component libraries in the dependency order); until it is
   installed, registered subjects are inert. *)
let subject_auditor : (audit_subject -> (string * string list) option) ref =
  ref (fun _ -> None)

let set_subject_auditor f = subject_auditor := f

let audits_enabled_flag =
  ref (match Sys.getenv_opt "BLOBCR_AUDIT" with Some ("0" | "") | None -> false | Some _ -> true)

let audits_enabled () = !audits_enabled_flag
let set_audits_enabled v = audits_enabled_flag := v

type outcome = Completed | Cancelled_outcome | Failed of exn

(* A resumer delivers a value to a suspended fiber. It returns [false] when
   the suspension was already consumed (normally or by cancellation), which
   lets resources such as semaphores skip dead waiters without losing
   tokens. *)
type 'a resumer = 'a -> bool

type t = {
  mutable now : float;
  queue : (unit -> unit) Event_queue.t;
  seed : int;
  rng : Rng.t;
  mutable current : fiber option;
  mutable error : (string * exn) option;
  mutable live : int;
  mutable blocked : int;
  mutable next_id : int;
  mutable audit_subjects : audit_subject list;
}

and fiber = {
  id : int;
  fname : string;
  engine : t;
  self : fiber option;  (* [Some] of this fiber, allocated once *)
  mutable finished : bool;
  mutable cancel_requested : bool;
  mutable token : int;
      (* bumped each time a suspension is consumed (resumed or cancelled):
         a resumer fires only while the token it captured is current *)
  mutable parked : parked;
  done_ivar : outcome ivar;
}

(* The continuation of a suspended fiber, boxed with its answer type hidden:
   cancellation discontinues it without knowing what it was waiting for. *)
and parked = Running | Parked : (_, unit) Effect.Deep.continuation -> parked
and 'a ivar_state = Iempty of 'a resumer list | Ifull of 'a
and 'a ivar = { iengine : t; mutable istate : 'a ivar_state }

type _ Effect.t +=
  | Suspend : ('a resumer -> unit) -> 'a Effect.t

let create ?(seed = 42) ?schedule () =
  {
    now = 0.0;
    queue = Event_queue.create ?schedule ();
    seed;
    rng = Rng.create seed;
    current = None;
    error = None;
    live = 0;
    blocked = 0;
    next_id = 0;
    audit_subjects = [];
  }

let register_audit_subject t s = t.audit_subjects <- s :: t.audit_subjects
let audit_subjects t = List.rev t.audit_subjects

let audit_violations t =
  List.filter_map (fun s -> !subject_auditor s) (audit_subjects t)

let now t = t.now
let rng t = t.rng
let derived_rng t name = Rng.of_key ~seed:t.seed name
let schedule t = Event_queue.schedule t.queue
let current_fiber t = t.current
let live_fibers t = t.live
let blocked_fibers t = t.blocked
let enqueue t ~time f = Event_queue.add t.queue ~time f

let at t time f =
  if not (time >= t.now) then
    invalid_arg (Printf.sprintf "Engine.at: time %g is before now (%g)" time t.now);
  enqueue t ~time f

let set_error t name exn =
  if t.error = None then t.error <- Some (name, exn)

let ivar_create engine = { iengine = engine; istate = Iempty [] }

let ivar_fill iv v =
  match iv.istate with
  | Ifull _ -> invalid_arg "Ivar.fill: already filled"
  | Iempty waiters ->
      iv.istate <- Ifull v;
      List.iter (fun resume -> ignore (resume v)) (List.rev waiters)

let finish t fiber outcome =
  fiber.finished <- true;
  t.live <- t.live - 1;
  ivar_fill fiber.done_ivar outcome

(* Runs [f x y] with [fiber] as the current fiber. Every event runs through
   here, so it takes [f]'s arguments rather than a thunk and restores the
   current fiber with [match ... with exception] rather than [Fun.protect]:
   neither allocates. *)
let with_current t fiber f x y =
  let saved = t.current in
  t.current <- fiber.self;
  match f x y with
  | v ->
      t.current <- saved;
      v
  | exception exn ->
      let bt = Printexc.get_raw_backtrace () in
      t.current <- saved;
      Printexc.raise_with_backtrace exn bt

(* Ends the current suspension of a parked fiber: stale resumers and a
   later {!cancel_fiber} then see it as consumed. *)
let unpark t fiber =
  fiber.token <- fiber.token + 1;
  fiber.parked <- Running;
  t.blocked <- t.blocked - 1

(* Runs [f] as the body of [fiber] under the effect handler that implements
   blocking. Every blocking primitive performs [Suspend register]; the
   handler parks the continuation, hands [register] a one-shot resumer, and
   returns to the scheduler. Resumers deliver the value by scheduling an
   event that continues the parked continuation. A suspension allocates the
   [Parked] box, the resumer and, once resumed, the event closure. *)
let start_fiber fiber f =
  let t = fiber.engine in
  let open Effect.Deep in
  match_with
    (fun () ->
      if fiber.cancel_requested then raise Cancelled;
      f ())
    ()
    {
      retc = (fun () -> finish t fiber Completed);
      exnc =
        (fun exn ->
          match exn with
          | Cancelled -> finish t fiber Cancelled_outcome
          | exn ->
              finish t fiber (Failed exn);
              set_error t fiber.fname exn);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register ->
              Some
                (fun (k : (a, _) continuation) ->
                  if fiber.cancel_requested then discontinue k Cancelled
                  else begin
                    let token = fiber.token in
                    t.blocked <- t.blocked + 1;
                    fiber.parked <- Parked k;
                    register (fun v ->
                        fiber.token = token
                        && begin
                             unpark t fiber;
                             enqueue t ~time:t.now (fun () ->
                                 with_current t fiber continue k v);
                             true
                           end)
                  end)
          | _ -> None);
    }

let spawn_fiber t ?(name = "fiber") f =
  let done_ivar = ivar_create t in
  let rec fiber =
    {
      id = t.next_id;
      fname = name;
      engine = t;
      self = Some fiber;
      finished = false;
      cancel_requested = false;
      token = 0;
      parked = Running;
      done_ivar;
    }
  in
  t.next_id <- t.next_id + 1;
  t.live <- t.live + 1;
  enqueue t ~time:t.now (fun () -> with_current t fiber start_fiber fiber f);
  fiber

let cancel_fiber fiber =
  if not fiber.finished then begin
    fiber.cancel_requested <- true;
    match fiber.parked with
    | Parked k ->
        let t = fiber.engine in
        unpark t fiber;
        enqueue t ~time:t.now (fun () ->
            with_current t fiber Effect.Deep.discontinue k Cancelled)
    | Running -> ()
  end

let suspend (register : 'a resumer -> unit) : 'a = Effect.perform (Suspend register)

let sleep t d =
  if d < 0.0 then invalid_arg "Engine.sleep: negative duration";
  suspend (fun resume ->
      enqueue t ~time:(t.now +. d) (fun () -> ignore (resume ())))

let yield t = sleep t 0.0

let check_error t =
  match t.error with
  | Some (name, exn) ->
      t.error <- None;
      raise (Fiber_failure (name, exn))
  | None -> ()

let step t =
  match Event_queue.pop t.queue with
  | None -> false
  | Some (time, ev) ->
      t.now <- time;
      ev ();
      check_error t;
      true

let run t =
  while step t do
    ()
  done;
  (* Teardown audit: at quiescence every registered subject's structural
     invariants must hold (debug builds only, see BLOBCR_AUDIT). *)
  if audits_enabled () then
    match audit_violations t with
    | [] -> ()
    | (subject, violations) :: _ -> raise (Audit_failure (subject, violations))

let run_until t limit =
  let rec go () =
    match Event_queue.peek_time t.queue with
    | Some time when time <= limit ->
        ignore (step t);
        go ()
    | _ -> ()
  in
  go ();
  if t.now < limit then t.now <- limit

module Group = struct
  type t = { mutable members : fiber list }

  let create () = { members = [] }
  let add g fiber = g.members <- fiber :: g.members

  let cancel _engine g =
    List.iter cancel_fiber g.members

  let live g = List.length (List.filter (fun f -> not f.finished) g.members)
end

module Ivar = struct
  type 'a t = 'a ivar

  let create = ivar_create
  let fill = ivar_fill

  let read iv =
    suspend (fun resume ->
        match iv.istate with
        | Ifull v -> ignore (resume v)
        | Iempty waiters -> iv.istate <- Iempty (resume :: waiters))

  let peek iv = match iv.istate with Ifull v -> Some v | Iempty _ -> None
  let is_filled iv = match iv.istate with Ifull _ -> true | Iempty _ -> false
end

module Fiber = struct
  type t = fiber
  type nonrec outcome = outcome = Completed | Cancelled_outcome | Failed of exn

  let spawn engine ?name ?group f =
    let fiber = spawn_fiber engine ?name f in
    (match group with Some g -> Group.add g fiber | None -> ());
    fiber

  let name f = f.fname
  let id f = f.id
  let cancel = cancel_fiber
  let is_finished f = f.finished
  let await f = Ivar.read f.done_ivar

  let join f =
    match await f with
    | Completed | Cancelled_outcome -> ()
    | Failed exn -> raise (Fiber_failure (f.fname, exn))
end

let all t ?(name = "all") fs =
  let fibers = List.mapi (fun i f -> Fiber.spawn t ~name:(Fmt.str "%s.%d" name i) f) fs in
  List.iter Fiber.join fibers

module Mailbox = struct
  type nonrec 'a t = {
    engine : t;
    messages : 'a Queue.t;
    mutable waiters : 'a resumer list; (* newest first *)
  }

  let create engine = { engine; messages = Queue.create (); waiters = [] }

  let send mb v =
    (* Deliver to the oldest live waiter, else enqueue. *)
    let rec deliver = function
      | [] ->
          Queue.add v mb.messages;
          []
      | oldest :: rest ->
          if oldest v then rest else deliver rest
    in
    mb.waiters <- List.rev (deliver (List.rev mb.waiters))

  let recv mb =
    suspend (fun resume ->
        if Queue.is_empty mb.messages then mb.waiters <- resume :: mb.waiters
        else ignore (resume (Queue.pop mb.messages)))

  let length mb = Queue.length mb.messages
end

module Semaphore = struct
  type nonrec t = {
    engine : t;
    mutable count : int;
    waiters : unit resumer Queue.t;
  }

  let create engine count =
    if count < 0 then invalid_arg "Semaphore.create";
    { engine; count; waiters = Queue.create () }

  let acquire s =
    suspend (fun resume ->
        if s.count > 0 then begin
          s.count <- s.count - 1;
          ignore (resume ())
        end
        else Queue.add resume s.waiters)

  let release s =
    let rec wake () =
      if Queue.is_empty s.waiters then s.count <- s.count + 1
      else if Queue.pop s.waiters () then ()
      else wake ()
    in
    wake ()

  let with_held s f =
    acquire s;
    match f () with
    | v ->
        release s;
        v
    | exception exn ->
        let bt = Printexc.get_raw_backtrace () in
        release s;
        Printexc.raise_with_backtrace exn bt

  let available s = s.count

  let waiting s =
    Queue.fold (fun acc _ -> acc + 1) 0 s.waiters
end
