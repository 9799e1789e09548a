type t = {
  engine : Engine.t;
  sname : string;
  rate : float;
  per_op : float;
  seek : float;
  lock : Engine.Semaphore.t;
  mutable last_stream : int;  (* [no_stream] until a stream is served *)
  mutable busy : float;
  mutable ops : int;
  mutable bytes : int;
  mutable seek_count : int;
}

(* Sentinel for "no stream served yet"; [process] rejects it as a stream. *)
let no_stream = min_int

let create engine ~rate ?(per_op = 0.0) ?(seek = 0.0) ?(name = "rate-server") () =
  if rate <= 0.0 then invalid_arg "Rate_server.create: rate must be positive";
  if per_op < 0.0 || seek < 0.0 then invalid_arg "Rate_server.create: negative cost";
  {
    engine;
    sname = name;
    rate;
    per_op;
    seek;
    lock = Engine.Semaphore.create engine 1;
    last_stream = no_stream;
    busy = 0.0;
    ops = 0;
    bytes = 0;
    seek_count = 0;
  }

let process_many t ?stream ~ops bytes =
  if bytes < 0 then invalid_arg "Rate_server.process: negative size";
  if ops < 0 then invalid_arg "Rate_server.process: negative ops";
  (match stream with
  | Some s when s = no_stream -> invalid_arg "Rate_server.process: stream id min_int is reserved"
  | Some _ | None -> ());
  Engine.Semaphore.with_held t.lock (fun () ->
      let seek_time =
        match stream with
        | Some s when s <> t.last_stream ->
            t.last_stream <- s;
            t.seek_count <- t.seek_count + 1;
            t.seek
        | Some _ | None -> 0.0
      in
      let service =
        seek_time +. (float_of_int ops *. t.per_op) +. (float_of_int bytes /. t.rate)
      in
      Engine.sleep t.engine service;
      t.busy <- t.busy +. service;
      t.ops <- t.ops + ops;
      t.bytes <- t.bytes + bytes)

let process t ?stream bytes = process_many t ?stream ~ops:1 bytes

let name t = t.sname
let rate t = t.rate
let busy_time t = t.busy
let ops t = t.ops
let bytes_served t = t.bytes
let seeks t = t.seek_count

let utilization t =
  let now = Engine.now t.engine in
  if now <= 0.0 then 0.0 else t.busy /. now
