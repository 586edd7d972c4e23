(** A* shortest path over an {e implicit} graph, with a reusable arena.

    This is the flat-core counterpart of {!Dijkstra.run_to_iter}: same
    push-iterator expansion, same edge-validity rules (non-finite or
    negative weights are ignored), plus an admissible heuristic that
    prunes the frontier.  The arena owns dist/pred scratch arrays, an
    epoch stamp (so re-initialization costs O(touched), not O(n)) and a
    decrease-key heap — a search allocates only the returned path list.

    Determinism: the heap orders by (f, g, id) lexicographically.  When
    the heuristic is the constant floor used by the path allocator
    (h(v) = c for v <> target, h(target) = 0, with c an exact-float lower
    bound on any admissible edge into the target), the result — cost and
    path — is bit-identical to {!Dijkstra.run_to_iter} on the same
    expansion.  The admissibility argument lives in docs/ALGORITHM.md. *)

type arena

val create : unit -> arena
(** Fresh arena.  Grows on demand; reuse it across searches to keep the
    hot path allocation-free. *)

val run_to_iter :
  arena ->
  n:int ->
  successors_iter:(int -> (int -> float -> unit) -> unit) ->
  heuristic:(int -> float) ->
  source:int ->
  target:int ->
  (float * int list) option
(** [run_to_iter arena ~n ~successors_iter ~heuristic ~source ~target] is
    the cheapest path as [(cost, nodes)] including both endpoints, or
    [None] if unreachable.  [heuristic v] must be a non-negative (possibly
    [infinity], never NaN) lower bound on the remaining cost from [v] to
    [target], with [heuristic target = 0.]; an inconsistent heuristic is
    handled by node re-expansion and still returns an optimal path when
    the bound is admissible.  The returned cost is the true path cost
    (g), not f.
    @raise Invalid_argument if [source] or [target] is out of range. *)

type cell = { mutable cost : float }
(** The edge-weight cell of {!run_to_const}.  An all-float record is
    stored flat, so writing a weight here allocates nothing — unlike
    passing it to a closure, which boxes it without flambda. *)

val cell : unit -> cell

val run_to_const :
  arena ->
  n:int ->
  successors_iter:(int -> (int -> unit) -> unit) ->
  cost:cell ->
  floor:float ->
  source:int ->
  target:int ->
  (float * int list) option
(** [run_to_iter] specialized to the constant-floor heuristic
    [h v = if v = target then 0.0 else floor] — the shape the path
    allocator always uses — with a relaxation protocol that passes edge
    weights without boxing them: [successors_iter u relax] reports each edge [u -> v] by storing its
    weight in [cost.cost] and then calling [relax v].  [relax] is built
    once per search, so the caller should likewise build its expansion
    once per search.  Results are bit-identical to [run_to_iter] with the
    constant closure and the same edges.  [floor] must be non-negative
    ([infinity] allowed, NaN rejected).
    @raise Invalid_argument on out-of-range endpoints or a NaN/negative
    [floor]. *)
