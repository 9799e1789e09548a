(* Benchmark-side spans around every call into a layer.

   A span records its name, the span that caused it, and its interval on
   three clocks: host wall, host CPU and simulated time. Spans stay in
   memory and are written out when the benchmark ends. Tracing is off
   unless [enabled] is set, so the measured run pays one branch per call.

   Sequential calls made by the benchmark's main fiber (cluster build,
   global checkpoint, global restart) push themselves as the parent of
   whatever opens inside them. Calls made on per-instance fibers (deploy,
   dump, restore) run concurrently, so they only take the innermost
   sequential span as parent. *)

type span = {
  id : int;
  name : string;
  parent : int option;
  wall0 : float;
  cpu0 : float;
  sim0 : float;
  mutable wall1 : float;
  mutable cpu1 : float;
  mutable sim1 : float;
}

let enabled = ref false
let closed : span list ref = ref []
let open_stack : span list ref = ref []
let next_id = ref 0

let reset () =
  closed := [];
  open_stack := [];
  next_id := 0

let with_ ?(sequential = false) ~sim name f =
  if not !enabled then f ()
  else begin
    let parent = match !open_stack with s :: _ -> Some s.id | [] -> None in
    let s =
      {
        id = !next_id;
        name;
        parent;
        wall0 = Host.wall ();
        cpu0 = Host.cpu ();
        sim0 = sim ();
        wall1 = 0.0;
        cpu1 = 0.0;
        sim1 = 0.0;
      }
    in
    incr next_id;
    if sequential then open_stack := s :: !open_stack;
    Fun.protect
      ~finally:(fun () ->
        s.wall1 <- Host.wall ();
        s.cpu1 <- Host.cpu ();
        s.sim1 <- sim ();
        if sequential then open_stack := List.filter (fun o -> o.id <> s.id) !open_stack;
        closed := s :: !closed)
      f
  end

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
  in
  let total, last =
    List.fold_left
      (fun (total, last) (a, b) ->
        match last with
        | Some (la, lb) when a <= lb -> (total, Some (la, Float.max lb b))
        | Some (la, lb) -> (total +. (lb -. la), Some (a, b))
        | None -> (total, Some (a, b)))
      (0.0, None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

type summary = { calls : int; self_cpu_s : float; sim_s : float }

(* Per span name: call count, host CPU self time (the span's CPU interval
   minus the part its children cover) and simulated seconds spent inside. *)
let summarise () =
  (* Ids run 0 .. n-1 in open order, so they index the children table. *)
  let children = Array.make !next_id [] in
  List.iter
    (fun s -> match s.parent with Some p -> children.(p) <- s :: children.(p) | None -> ())
    !closed;
  let table = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let kids = children.(s.id) in
      let self_cpu =
        s.cpu1 -. s.cpu0
        -. covered ~lo:s.cpu0 ~hi:s.cpu1 (List.map (fun k -> (k.cpu0, k.cpu1)) kids)
      in
      let prev =
        Option.value ~default:{ calls = 0; self_cpu_s = 0.0; sim_s = 0.0 }
          (Hashtbl.find_opt table s.name)
      in
      Hashtbl.replace table s.name
        {
          calls = prev.calls + 1;
          self_cpu_s = prev.self_cpu_s +. self_cpu;
          sim_s = prev.sim_s +. (s.sim1 -. s.sim0);
        })
    !closed;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* One JSON object per span, in open order. *)
let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"parent\": %s, \"wall\": [%.6f, %.6f], \"cpu\": [%.6f, \
         %.6f], \"sim\": [%.9f, %.9f]}\n"
        s.id s.name
        (match s.parent with Some p -> string_of_int p | None -> "null")
        s.wall0 s.wall1 s.cpu0 s.cpu1 s.sim0 s.sim1)
    (List.sort (fun a b -> Int.compare a.id b.id) !closed);
  close_out oc
