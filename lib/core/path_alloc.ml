module Flow = Noc_spec.Flow
module Soc_spec = Noc_spec.Soc_spec
module Vi = Noc_spec.Vi
module Units = Noc_models.Units
module Switch_model = Noc_models.Switch_model
module Link_model = Noc_models.Link_model
module Sync_model = Noc_models.Sync_model
module Dijkstra = Noc_graph.Dijkstra
module Astar = Noc_graph.Astar
module Geometry = Noc_floorplan.Geometry
module Metrics = Noc_exec.Metrics

type error = {
  flow : Flow.t;
  reason : [ `No_path | `Latency of int ];
}

type stats = {
  ripups : int;
  reroutes : int;
  rollbacks : int;
  restarts : int;
}

let no_stats = { ripups = 0; reroutes = 0; rollbacks = 0; restarts = 0 }

let pp_error ppf e =
  match e.reason with
  | `No_path -> Format.fprintf ppf "no path for flow %a" Flow.pp e.flow
  | `Latency excess ->
    Format.fprintf ppf "flow %a misses latency by %d cycles" Flow.pp e.flow
      excess

type mask = {
  dead_switch : int -> bool;
  dead_link : int -> int -> bool;
}

let no_mask = { dead_switch = (fun _ -> false); dead_link = (fun _ _ -> false) }

let mask_union a b =
  {
    dead_switch = (fun s -> a.dead_switch s || b.dead_switch s);
    dead_link = (fun u v -> a.dead_link u v || b.dead_link u v);
  }

(* Which routing engine expands the search.  Both produce bit-identical
   topologies, routes and stats; [Reference] is the plain per-search
   Dijkstra kept as the identity oracle (and the honest "before" side of
   the EXP-SCALE bench), [Flat] is the arena-reused A* over the flat
   adjacency with the hop-cost floor heuristic and the allocation-free
   hop kernel. *)
type engine = Reference | Flat

(* Per-switch factors of the hop cost, one float array per factor, filled
   once per routing state by the [Noc_models] functions themselves (so
   their argument checks still run).  A wire-memo miss in the flat engine
   then costs a few flops over these arrays instead of about ten
   cross-module calls that each return a boxed float.  Every entry is a
   model call at one switch's own (vdd, freq); the pairwise maxima the
   models take ([Float.max] of the two vdds or freqs) select the entry of
   the switch holding the maximum, which is the same call, so each
   recomposed cost is bit-identical to the model path. *)
type factors = {
  x : float array;
  y : float array;
  vdd : float array;
  freq : float array;
  escale : float array;        (* Tech.energy_scale *)
  register_pj : float array;   (* Link_model.register_energy_per_flit_pj *)
  sync_pj : float array;       (* Sync_model.energy_per_flit_pj *)
  port_clock_mw : float array; (* one more port's clock power *)
  converter_mw : float array;  (* Sync_model leakage + clock power *)
}

let factors_of config topo =
  let tech = config.Config.tech and flit_bits = topo.Topology.flit_bits in
  let per f = Array.map f topo.Topology.switches in
  {
    x = per (fun sw -> sw.Topology.position.Geometry.x);
    y = per (fun sw -> sw.Topology.position.Geometry.y);
    vdd = per (fun sw -> sw.Topology.vdd);
    freq = per (fun sw -> sw.Topology.freq_mhz);
    escale = per (fun sw -> Noc_models.Tech.energy_scale tech ~vdd:sw.Topology.vdd);
    register_pj =
      per (fun sw ->
          Link_model.register_energy_per_flit_pj tech ~flit_bits
            ~vdd:sw.Topology.vdd);
    sync_pj =
      per (fun sw ->
          Sync_model.energy_per_flit_pj tech ~flit_bits ~vdd:sw.Topology.vdd);
    port_clock_mw =
      per (fun sw ->
          Units.power_mw_of_energy
            ~energy_pj:
              (1.0 *. Noc_models.Tech.energy_scale tech ~vdd:sw.Topology.vdd)
            ~events_per_second:(sw.Topology.freq_mhz *. 1e6));
    converter_mw =
      per (fun sw ->
          let vdd = sw.Topology.vdd in
          Sync_model.leakage_mw tech ~flit_bits ~depth:Sync_model.default_depth
            ~vdd
          +. Sync_model.clock_power_mw tech ~flit_bits ~vdd
               ~freq_mhz:sw.Topology.freq_mhz);
  }

(* The hop-energy memo, laid out for the search inner loop: directly
   indexed slots — no hashing, no allocation — holding the
   flow-independent cost factors, each tagged with the inputs it was
   computed from (a slot whose tag no longer matches is recomputed and
   overwritten).  The factors are cached separately because they drift at
   very different rates: the wire part of a hop (link, converter and
   register energy, standing power, latency) is pure in the fixed
   geometry and [stages], which is constant per (is_new, u, v) pair in
   practice — while the switch-traversal part depends on v's live port
   counts, which change every time routing opens a link.  Coupling them
   under one tag would throw away the wire part on every port drift. *)
type hop_cache = {
  wire_tag : int array;
      (* (memo_epoch lsl 16) lor stages, or -1 cold — per (is_new, u, v).
         Pipeline stages are a handful of registers on a die-scale wire,
         far below 2^16, so the epoch field never aliases. *)
  wire_energy : float array;  (* energy_pj of the wire part of the hop *)
  wire_standing : float array; (* standing mW of opening the link *)
  wire_latency : float array; (* hop latency in cycles, as the search uses it *)
  sw_tag : int array;
      (* (memo_epoch lsl 20) lor packed ports, or -1 cold — per (is_new, v);
         the port packing is 20 bits by construction *)
  sw_energy : float array;    (* energy_pj of traversing switch v *)
}

let fresh_hop_cache n =
  {
    wire_tag = Array.make (2 * n * n) (-1);
    wire_energy = Array.make (2 * n * n) 0.0;
    wire_standing = Array.make (2 * n * n) 0.0;
    wire_latency = Array.make (2 * n * n) 0.0;
    sw_tag = Array.make (2 * n) (-1);
    sw_energy = Array.make (2 * n) 0.0;
  }

(* One hop's flow-independent factors, as read from the memo.  All-float
   records are stored flat, so filling this cell allocates nothing. *)
type hop_out = {
  mutable energy : float;   (* pJ per flit: switch part +. wire part *)
  mutable standing : float; (* mW of opening the link *)
  mutable latency : float;  (* cycles *)
}

(* The flow-dependent inputs of the flat kernel, set once per search and
   read by every probe — float arguments would be boxed per call. *)
type query = {
  mutable bw : float;       (* the flow's MB/s *)
  mutable rate : float;     (* its flits per second *)
  mutable beta : float;
  mutable p_norm : float;   (* [reference_hop_power_mw] for the flow *)
  mutable lat_norm : float; (* its latency budget, in cycles *)
}

(* Per-domain pool for the O(n²) memo arrays above.  A sweep calls
   [route_all] once per candidate, and a fresh [make_state] used to push
   five major-heap arrays per call — at d48 the resulting GC pressure
   (marking + sweeping) cost more than the routing itself.  [route_all]
   states are strictly scoped to one call on one domain, so they borrow
   the domain's scratch instead: reuse just bumps [sc_epoch], which every
   memo tag carries — all stored entries go stale in O(1), with no
   per-candidate refill at all (value arrays are tag-gated and need no
   reset).  The A* search arena rides along for the same reason: one
   live search per domain.  Sessions outlive their creating call and may
   overlap arbitrarily, so they never pool. *)
type scratch = {
  mutable sc_cap : int; (* node count the arrays are sized for *)
  mutable sc_epoch : int;
      (* current borrower's epoch, baked into every memo tag
         ([state.memo_epoch]); bumping it on reuse invalidates all stored
         entries in O(1) — no O(n²) refill per candidate *)
  mutable sc_hop : hop_cache;
  mutable sc_new_stages : int array;
  sc_arena : Astar.arena;
      (* the domain's reusable search arena — internally epoch-stamped,
         so hand-off between borrowers needs no reset either *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        sc_cap = 0;
        sc_epoch = 0;
        sc_hop = fresh_hop_cache 0;
        sc_new_stages = [||];
        sc_arena = Astar.create ();
      })

let borrow_scratch n =
  let sc = Domain.DLS.get scratch_key in
  (* epoch 0 is reserved for unpooled states, whose arrays start -1-filled *)
  sc.sc_epoch <- sc.sc_epoch + 1;
  if n > sc.sc_cap then begin
    let cap = max n (2 * sc.sc_cap) in
    sc.sc_cap <- cap;
    sc.sc_hop <- fresh_hop_cache cap;
    sc.sc_new_stages <- Array.make (cap * cap) (-1)
  end;
  sc

(* Mutable routing state: port counters are maintained incrementally because
   recounting them from the link table inside the search would be
   quadratic. *)
type state = {
  topo : Topology.t;
  n : int;  (* switch count *)
  mask : mask;  (* switches/links the search must neither reuse nor open *)
  max_arity : int array;   (* per switch *)
  in_ports : int array;
  out_ports : int array;
  capacity : float array;  (* usable MB/s of a link driven by this switch *)
  has_indirect : bool;
  out_to_inter : bool array;
      (* direct switch already owns a link towards the intermediate VI *)
  in_from_inter : bool array;
  island : int array;
      (* per switch: its island id, or -1 for the intermediate VI *)
  factors : factors;
  hop_cache : hop_cache;
      (* the flow-independent hop factors per (is_new, u, v), tag-validated
         against the evolving (stages, ports) inputs — see [hop_factors].
         Local to this state (one domain), no lock. *)
  new_stages : int array;
      (* pipeline stages of a prospective u->v link, encoded
         [(memo_epoch lsl 16) lor stages] ([-1] cold) — pure in
         the fixed geometry and u's clock, so one manhattan/stage model
         evaluation per pair instead of one per probe. *)
  memo_epoch : int;
      (* epoch baked into this state's [hop_cache]/[new_stages] tags: a
         pooled state inherits the scratch arrays without clearing them,
         and the fresh epoch makes every stale entry miss.  0 for
         unpooled states (whose arrays start cold-filled). *)
  allowed_memo : (int, int array) Hashtbl.t;
      (* ascending switch ids admissible for an (si, di) flow — a pure
         function of the fixed switch locations.  Fault masks are checked
         per lookup, never baked in, so states sharing these tables across
         a mask change ([route_backup]) stay correct. *)
  hop_hits : int ref;   (* flushed to Metrics in batch: the global counter *)
  hop_misses : int ref; (* mutex must not be taken per search edge *)
  engine : engine;
  arena : Astar.arena;
      (* the flat engine's reusable search arena (dist/pred/heap scratch);
         shared by design with the functional-update copies
         [route_backup_with] makes — one domain, one search at a time *)
  hop_out : hop_out;
  query : query;
  cell : Astar.cell;  (* where the flat kernel leaves an edge's cost *)
}

let make_state ?(mask = no_mask) ?(engine = Flat) ?(pooled = false) config
    topo ~clocks =
  let n = Array.length topo.Topology.switches in
  let inter = lazy (Freq_assign.intermediate_clock config clocks) in
  let arity_of sw =
    match sw.Topology.location with
    | Topology.Island isl -> clocks.(isl).Freq_assign.max_arity
    | Topology.Intermediate -> (Lazy.force inter).Freq_assign.max_arity
  in
  let capacity_of sw =
    config.Config.link_utilization_cap
    *. Units.bandwidth_mbps_of_frequency ~freq_mhz:sw.Topology.freq_mhz
         ~flit_bits:topo.Topology.flit_bits
  in
  let has_indirect =
    Array.exists
      (fun sw -> sw.Topology.location = Topology.Intermediate)
      topo.Topology.switches
  in
  (* The scratch pool serves the flat hot path.  The reference engine is
     the identity oracle and the benchmark baseline: it keeps the
     pre-refactor allocation pattern (fresh memo arrays per state, raw
     epoch-0 tags) so what EXP-SCALE reports as "reference" is the
     unoptimized path, and so the oracle stays trivially auditable. *)
  let hop_cache, new_stages, memo_epoch, arena =
    if pooled && engine = Flat then begin
      let sc = borrow_scratch n in
      (sc.sc_hop, sc.sc_new_stages, sc.sc_epoch, sc.sc_arena)
    end
    else (fresh_hop_cache n, Array.make (n * n) (-1), 0, Astar.create ())
  in
  {
    topo;
    n;
    mask;
    max_arity = Array.map arity_of topo.Topology.switches;
    in_ports = Array.init n (fun sw -> Topology.in_ports topo sw);
    out_ports = Array.init n (fun sw -> Topology.out_ports topo sw);
    capacity = Array.map capacity_of topo.Topology.switches;
    has_indirect;
    out_to_inter = Array.make n false;
    in_from_inter = Array.make n false;
    island =
      Array.map
        (fun sw ->
          match sw.Topology.location with
          | Topology.Island isl -> isl
          | Topology.Intermediate -> -1)
        topo.Topology.switches;
    factors = factors_of config topo;
    hop_cache;
    new_stages;
    memo_epoch;
    allowed_memo = Hashtbl.create 16;
    hop_hits = ref 0;
    hop_misses = ref 0;
    engine;
    arena;
    hop_out = { energy = 0.0; standing = 0.0; latency = 0.0 };
    query = { bw = 0.0; rate = 0.0; beta = 0.0; p_norm = 1.0; lat_norm = 1.0 };
    cell = Astar.cell ();
  }

let flush_hop_metrics state =
  if !(state.hop_hits) > 0 then begin
    Metrics.incr ~by:!(state.hop_hits) "cache.hop_energy.hits";
    state.hop_hits := 0
  end;
  if !(state.hop_misses) > 0 then begin
    Metrics.incr ~by:!(state.hop_misses) "cache.hop_energy.misses";
    state.hop_misses := 0
  end

let is_intermediate state s = state.island.(s) < 0

(* While a direct switch is not yet connected to the intermediate VI, one
   port per direction is held back for that connection: otherwise the
   highest-bandwidth flows exhaust the crossbar on direct island-to-island
   links and leave low-rate fan-out flows with no legal path at all. *)
let out_reserve state u =
  if state.has_indirect && (not (is_intermediate state u))
     && not state.out_to_inter.(u)
  then 1
  else 0

let in_reserve state v =
  if state.has_indirect && (not (is_intermediate state v))
     && not state.in_from_inter.(v)
  then 1
  else 0

(* May a *new* link u->v be opened for a flow from island [si] to [di]?
   This encodes the paper's shutdown-safe link rules. *)
let may_open state ~si ~di u v =
  let loc s = state.topo.Topology.switches.(s).Topology.location in
  match (loc u, loc v) with
  | Topology.Island a, Topology.Island b ->
    a = b || (a = si && b = di)
  | Topology.Island a, Topology.Intermediate -> a = si
  | Topology.Intermediate, Topology.Island b -> b = di
  | Topology.Intermediate, Topology.Intermediate -> true

let node_allowed state ~si ~di s =
  match state.topo.Topology.switches.(s).Topology.location with
  | Topology.Island a -> a = si || a = di
  | Topology.Intermediate -> true

let link_capacity state u v =
  Float.min state.capacity.(u) state.capacity.(v)

let hop_latency_cycles ~crossing ~stages =
  Switch_model.pipeline_latency_cycles + Link_model.traversal_cycles + stages
  + if crossing then Sync_model.crossing_latency_cycles else 0

(* pipeline registers needed on a prospective link driven by [sw_u] *)
let stages_needed config sw_u ~length_mm =
  if config.Config.allow_link_pipelining then
    Link_model.stages_for config.Config.tech ~length_mm
      ~freq_mhz:sw_u.Topology.freq_mhz
  else 0

(* The switch-traversal part of a hop's energy: entering switch [v] sized
   as it would be with this flow admitted.  Depends on the evolving port
   counts only through the packed (v, inputs, outputs) memo key. *)
let hop_switch_energy_pj config state ~is_new v =
  let topo = state.topo in
  let sw_v = topo.Topology.switches.(v) in
  let switch_cfg =
    {
      Switch_model.inputs = max 2 (state.in_ports.(v) + if is_new then 1 else 0);
      outputs = max 2 state.out_ports.(v);
      flit_bits = topo.Topology.flit_bits;
      buffer_depth = config.Config.buffer_depth;
    }
  in
  Switch_model.energy_per_flit_pj config.Config.tech switch_cfg
    ~vdd:sw_v.Topology.vdd

(* The wire part of a hop's cost — link, converter and pipeline-register
   energy plus the standing power of opening the link — a pure function of
   the topology's fixed geometry and supplies and (is_new, stages): the
   (is_new, stages, u, v) memo key.  Stated through the model calls: this
   is the reference engine's fill, and the oracle [wire_of_factors] is
   checked against. *)
let wire_of_models config state ~is_new ~stages u v =
  let topo = state.topo in
  let tech = config.Config.tech in
  let flit_bits = topo.Topology.flit_bits in
  let sw_v = topo.Topology.switches.(v) in
  let sw_u = topo.Topology.switches.(u) in
  let crossing = Topology.is_crossing topo u v in
  let length =
    Geometry.manhattan sw_u.Topology.position sw_v.Topology.position
  in
  let e_link =
    Link_model.energy_per_flit_pj tech ~length_mm:length ~flit_bits
      ~vdd:sw_u.Topology.vdd
  in
  let e_sync =
    if crossing then
      Sync_model.energy_per_flit_pj tech ~flit_bits
        ~vdd:(Float.max sw_u.Topology.vdd sw_v.Topology.vdd)
    else 0.0
  in
  let e_registers =
    float_of_int stages
    *. Link_model.register_energy_per_flit_pj tech ~flit_bits
         ~vdd:sw_u.Topology.vdd
  in
  let e_open = if is_new then config.Config.new_link_penalty_pj else 0.0 in
  (* Opening a link costs standing power whether or not this flow is hot:
     one extra port's clock energy on both switches, plus — on a crossing —
     the converter's leakage and clock.  This is what consolidates
     inter-island traffic onto few links instead of a link per flow. *)
  let standing =
    if not is_new then 0.0
    else begin
      let port_clock sw =
        let f = sw.Topology.freq_mhz *. 1e6 in
        Units.power_mw_of_energy
          ~energy_pj:
            (1.0 *. Noc_models.Tech.energy_scale tech ~vdd:sw.Topology.vdd)
          ~events_per_second:f
      in
      let converter =
        if crossing then begin
          let vdd = Float.max sw_u.Topology.vdd sw_v.Topology.vdd in
          Sync_model.leakage_mw tech ~flit_bits
            ~depth:Sync_model.default_depth ~vdd
          +. Sync_model.clock_power_mw tech ~flit_bits ~vdd
               ~freq_mhz:(Float.max sw_u.Topology.freq_mhz sw_v.Topology.freq_mhz)
        end
        else 0.0
      in
      port_clock sw_u +. port_clock sw_v +. converter
    end
  in
  (e_link +. e_sync +. e_registers +. e_open, standing)

(* The same wire part from the per-switch factor table, in the models'
   exact association order ([Link_model.energy_per_flit_pj] is
   [pj_per_mm_bit *. length *. toggling_bits *. energy_scale]), written
   straight into memo slot [widx]. *)
let wire_of_factors config state ~is_new ~stages u v widx =
  let f = state.factors and hc = state.hop_cache in
  let crossing = state.island.(u) <> state.island.(v) in
  let length = Float.abs (f.x.(u) -. f.x.(v)) +. Float.abs (f.y.(u) -. f.y.(v)) in
  let e_link =
    config.Config.tech.Noc_models.Tech.wire_energy_pj_per_mm_bit *. length
    *. (0.5 *. float_of_int state.topo.Topology.flit_bits)
    *. f.escale.(u)
  in
  (* the switch at the higher supply — [Float.max vdd_u vdd_v]'s
     argument — and, between equal supplies, at the higher clock *)
  let hi =
    if f.vdd.(u) > f.vdd.(v) || (f.vdd.(u) = f.vdd.(v) && f.freq.(u) >= f.freq.(v))
    then u
    else v
  in
  let e_sync = if crossing then f.sync_pj.(hi) else 0.0 in
  let e_registers = float_of_int stages *. f.register_pj.(u) in
  let e_open = if is_new then config.Config.new_link_penalty_pj else 0.0 in
  hc.wire_energy.(widx) <- e_link +. e_sync +. e_registers +. e_open;
  hc.wire_standing.(widx) <-
    (if not is_new then 0.0
     else begin
       let converter =
         if not crossing then 0.0
         else if f.freq.(hi) >= f.freq.(u + v - hi) then f.converter_mw.(hi)
         else begin
           (* supply and clock maxima sit on different switches — never
              under [Tech.vdd_for_frequency], which is monotone *)
           let vdd = f.vdd.(hi) and flit_bits = state.topo.Topology.flit_bits in
           let tech = config.Config.tech in
           Sync_model.leakage_mw tech ~flit_bits
             ~depth:Sync_model.default_depth ~vdd
           +. Sync_model.clock_power_mw tech ~flit_bits ~vdd
                ~freq_mhz:(Float.max f.freq.(u) f.freq.(v))
         end
       in
       f.port_clock_mw.(u) +. f.port_clock_mw.(v) +. converter
     end);
  hc.wire_latency.(widx) <- float_of_int (hop_latency_cycles ~crossing ~stages)

(* Fill wire slot [widx] the engine's way. *)
let fill_wire config state ~is_new ~stages u v widx =
  match state.engine with
  | Flat -> wire_of_factors config state ~is_new ~stages u v widx
  | Reference ->
    let hc = state.hop_cache in
    let e_wire, standing = wire_of_models config state ~is_new ~stages u v in
    hc.wire_energy.(widx) <- e_wire;
    hc.wire_standing.(widx) <- standing;
    hc.wire_latency.(widx) <-
      float_of_int
        (hop_latency_cycles ~crossing:(Topology.is_crossing state.topo u v)
           ~stages)

let wire_factors engine config topo ~clocks =
  let state = make_state ~engine config topo ~clocks in
  let n = state.n and hc = state.hop_cache in
  let out = ref [] in
  for stages = 1 downto 0 do
    for widx = (2 * n * n) - 1 downto 0 do
      let is_new = widx >= n * n and u = widx / n mod n and v = widx mod n in
      if u <> v then begin
        fill_wire config state ~is_new ~stages u v widx;
        out :=
          hc.wire_energy.(widx) :: hc.wire_standing.(widx)
          :: hc.wire_latency.(widx) :: !out
      end
    done
  done;
  Array.of_list !out

(* The flow-independent factors of hop u->v (entering switch v) into
   [state.hop_out], through the memo.  This is the synthesis hot spot
   (~7M evaluations per d128 sweep): the wire slot per (is_new, u, v) is
   validated against [stages], the switch slot per (is_new, v) against
   the live port counts, so a lookup neither hashes nor allocates.  The
   flow only enters through the flit rate, and
   [Units.power_mw_of_energy ~energy_pj ~events_per_second] is linear in
   the rate, so caching the exact (energy_pj, standing_mw) pair and
   recomposing keeps every cost bit-identical to direct evaluation.  The
   energy is summed switch part first, the models' order. *)
let hop_factors config state ~is_new ~stages u v =
  let hc = state.hop_cache and n = state.n in
  let widx = ((((if is_new then 1 else 0) * n) + u) * n) + v in
  let wire_etag = (state.memo_epoch lsl 16) lor stages in
  if hc.wire_tag.(widx) = wire_etag then incr state.hop_hits
  else begin
    incr state.hop_misses;
    fill_wire config state ~is_new ~stages u v widx;
    hc.wire_tag.(widx) <- wire_etag
  end;
  let in_v = state.in_ports.(v) and out_v = state.out_ports.(v) in
  let e_switch =
    if in_v < 1024 && out_v < 1024 then begin
      let sidx = (if is_new then n else 0) + v in
      let sw_etag = (state.memo_epoch lsl 20) lor (in_v lsl 10) lor out_v in
      if hc.sw_tag.(sidx) <> sw_etag then begin
        hc.sw_tag.(sidx) <- sw_etag;
        hc.sw_energy.(sidx) <- hop_switch_energy_pj config state ~is_new v
      end;
      hc.sw_energy.(sidx)
    end
    else (* beyond the 10-bit port packing: never cached *)
      hop_switch_energy_pj config state ~is_new v
  in
  let out = state.hop_out in
  out.energy <- e_switch +. hc.wire_energy.(widx);
  out.standing <- hc.wire_standing.(widx);
  out.latency <- hc.wire_latency.(widx)

(* Power increase of pushing the flow through hop u->v, in mW, and the
   hop's latency: the reference engine's per-edge cost inputs. *)
let hop_power_latency config state flow ~is_new ~stages u v =
  let rate =
    Units.flits_per_second ~bw_mbps:flow.Flow.bandwidth_mbps
      ~flit_bits:state.topo.Topology.flit_bits
  in
  hop_factors config state ~is_new ~stages u v;
  let out = state.hop_out in
  ( Units.power_mw_of_energy ~energy_pj:out.energy ~events_per_second:rate
    +. out.standing,
    out.latency )

(* Normalization so the beta mix is dimensionless: a "typical" hop is a 5x5
   switch plus 2 mm of wire at nominal supply. *)
let reference_hop_power_mw config topo flow =
  let tech = config.Config.tech in
  let flit_bits = topo.Topology.flit_bits in
  let rate =
    Units.flits_per_second ~bw_mbps:flow.Flow.bandwidth_mbps ~flit_bits
  in
  let cfg =
    {
      Switch_model.inputs = 5;
      outputs = 5;
      flit_bits;
      buffer_depth = config.Config.buffer_depth;
    }
  in
  let e =
    Switch_model.energy_per_flit_pj tech cfg ~vdd:tech.Noc_models.Tech.vdd_nominal
    +. Link_model.energy_per_flit_pj tech ~length_mm:2.0 ~flit_bits
         ~vdd:tech.Noc_models.Tech.vdd_nominal
  in
  Float.max 1e-9 (Units.power_mw_of_energy ~energy_pj:e ~events_per_second:rate)

(* Ascending ids of the switches an (si, di) flow may visit — a pure
   function of the topology's fixed switch locations, so it is memoized
   per state (fault masks are deliberately NOT baked in: a
   [route_backup] state shares these tables across a mask change). *)
let allowed_nodes state ~si ~di =
  let compute () =
    let buf = Array.make state.n 0 in
    let count = ref 0 in
    for v = 0 to state.n - 1 do
      if node_allowed state ~si ~di v then begin
        buf.(!count) <- v;
        incr count
      end
    done;
    Array.sub buf 0 !count
  in
  if si >= 0 && si < 0xFFFFF && di >= 0 && di < 0xFFFFF then begin
    let key = (si lsl 20) lor di in
    match Hashtbl.find_opt state.allowed_memo key with
    | Some nodes -> nodes
    | None ->
      let nodes = compute () in
      Hashtbl.add state.allowed_memo key nodes;
      nodes
  end
  else compute ()

(* Pipeline stages of a prospective u->v link, through [state.new_stages]:
   entries are [(memo_epoch lsl 16) lor stages], and an epoch mismatch is
   a stale (or cold, for epoch 0 with -1 fill) slot. *)
let new_link_stages config state u v =
  let idx = (u * state.n) + v in
  let cached = state.new_stages.(idx) in
  if cached asr 16 = state.memo_epoch && cached >= 0 then cached land 0xFFFF
  else begin
    let sw_u = state.topo.Topology.switches.(u) in
    let length =
      Geometry.manhattan sw_u.Topology.position
        state.topo.Topology.switches.(v).Topology.position
    in
    let fresh = stages_needed config sw_u ~length_mm:length in
    if fresh land 0xFFFF = fresh then
      state.new_stages.(idx) <- (state.memo_epoch lsl 16) lor fresh;
    fresh
  end

(* The reference engine's expansion ({!Dijkstra.run_to_iter}'s
   push-iterator shape): calls [relax v cost] per admissible edge.  It
   states the admissibility rules through the named helpers above and
   fills the wire memo through the models, independently of [hop] below,
   which it is the oracle for.  [p_norm] is [reference_hop_power_mw] for
   this flow. *)
let successors_iter config state flow ~si ~di ~beta ~p_norm ~allowed u relax =
  let topo = state.topo in
  let lat_norm = float_of_int flow.Flow.max_latency_cycles in
  let consider v =
    if
      v <> u
      && (not (state.mask.dead_switch v))
      && (not (state.mask.dead_link u v))
    then begin
      (* one link lookup decides admissibility AND the pipeline stages *)
      let candidate =
        match Topology.find_link topo ~src:u ~dst:v with
        | Some link ->
          if
            link.Topology.bw_mbps +. flow.Flow.bandwidth_mbps
            <= link_capacity state u v +. 1e-9
          then Some (false, link.Topology.stages)
          else None
        | None ->
          (* links touching the intermediate VI may consume the reserved
             port — they are what it is reserved for *)
          let out_cap =
            state.max_arity.(u)
            - if is_intermediate state v then 0 else out_reserve state u
          in
          let in_cap =
            state.max_arity.(v)
            - if is_intermediate state u then 0 else in_reserve state v
          in
          if
            may_open state ~si ~di u v
            && state.out_ports.(u) + 1 <= out_cap
            && state.in_ports.(v) + 1 <= in_cap
            && flow.Flow.bandwidth_mbps <= link_capacity state u v +. 1e-9
          then Some (true, new_link_stages config state u v)
          else None
      in
      match candidate with
      | None -> ()
      | Some (is_new, stages) ->
        let power, latency =
          hop_power_latency config state flow ~is_new ~stages u v
        in
        let cost =
          (beta *. (power /. p_norm))
          +. ((1.0 -. beta) *. (latency /. lat_norm))
        in
        (* strictly positive costs keep Dijkstra's invariants honest *)
        relax v (Float.max 1e-9 cost)
    end
  in
  (* Descending, matching the consed successor lists of earlier
     revisions, so routes stay stable across refactors. *)
  for i = Array.length allowed - 1 downto 0 do
    consider allowed.(i)
  done

(* ---------- the flat engine's hop kernel ---------- *)

(* The flat engine's single statement of edge admissibility and hop cost:
   may hop u->v carry the flow described by [state.query] from island
   [si] to [di]?  If so, its relax cost is left in [state.cell] and the
   answer is [true].  [row] is u's row of the flat link table
   ([Flat.out_row]), which callers hoist.  The expansion and
   [target_floor] both call it, so the A* floor is taken over exactly the
   edges — and the cost floats — the search relaxes.

   Only ints, pointers and a bool cross its boundary; every float lives
   in the state's all-float records and arrays, so no probe allocates. *)
let hop config state ~si ~di ~row u v =
  v <> u
  && (state.mask == no_mask
     || not (state.mask.dead_switch v || state.mask.dead_link u v))
  &&
  let q = state.query in
  let cap_u = state.capacity.(u) and cap_v = state.capacity.(v) in
  (* [link_capacity]: both capacities are positive and finite *)
  let cap = if cap_u <= cap_v then cap_u else cap_v in
  let admitted =
    match (match row with None -> None | Some row -> row.(v)) with
    | Some link ->
      link.Topology.bw_mbps +. q.bw <= cap +. 1e-9
      && begin
        hop_factors config state ~is_new:false ~stages:link.Topology.stages u v;
        true
      end
    | None ->
      let isl_u = state.island.(u) and isl_v = state.island.(v) in
      (* the shutdown-safe opening rules of [may_open] over island ids *)
      (if isl_u >= 0 then
         if isl_v < 0 then isl_u = si
         else isl_u = isl_v || (isl_u = si && isl_v = di)
       else isl_v < 0 || isl_v = di)
      (* [out_reserve]/[in_reserve]: a link between two direct switches
         may not take the port held back for the intermediate VI *)
      && (let reserved = state.has_indirect && isl_u >= 0 && isl_v >= 0 in
          state.out_ports.(u) + 1
          <= state.max_arity.(u)
             - (if reserved && not state.out_to_inter.(u) then 1 else 0)
          && state.in_ports.(v) + 1
             <= state.max_arity.(v)
                - (if reserved && not state.in_from_inter.(v) then 1 else 0))
      && q.bw <= cap +. 1e-9
      && begin
        hop_factors config state ~is_new:true
          ~stages:(new_link_stages config state u v) u v;
        true
      end
  in
  admitted
  && begin
    (* [Units.power_mw_of_energy ... +. standing], then the beta mix *)
    let out = state.hop_out in
    let power = (out.energy *. q.rate *. 1e-9) +. out.standing in
    let cost =
      (q.beta *. (power /. q.p_norm))
      +. ((1.0 -. q.beta) *. (out.latency /. q.lat_norm))
    in
    (* [Float.max 1e-9 cost] for a non-NaN [cost] *)
    state.cell.Astar.cost <- (if cost > 1e-9 then cost else 1e-9);
    true
  end

(* The A* heuristic's constant: the exact float minimum relax cost over
   the admissible edges entering [target], from [hop] itself.  During one
   search the routing state is immutable, so this set — and each edge's
   cost — is fixed; h(v) = floor for v <> target and h(target) = 0 is
   therefore consistent, and with the heap's (f, g, id) ordering A* pops
   non-target nodes in exactly Dijkstra's (g, id) order (see
   docs/ALGORITHM.md for the identity argument).  [infinity] when no edge
   can enter the target: every f is then infinite, the g tie-key alone
   orders the pops exactly as Dijkstra would, and the search proves
   unreachability the same way.  A dead switch is never settled, so its
   edges are left out. *)
let target_floor config state ~si ~di ~allowed ~target =
  let links = state.topo.Topology.links in
  let best = ref infinity in
  for i = 0 to Array.length allowed - 1 do
    let u = allowed.(i) in
    if
      (state.mask == no_mask || not (state.mask.dead_switch u))
      && hop config state ~si ~di ~row:(Noc_graph.Flat.out_row links u) u
           target
    then begin
      let w = state.cell.Astar.cost in
      if w < !best then best := w
    end
  done;
  !best

(* One search, dispatched on the state's engine.  Both sides expand the
   same edges, in the same descending order, at the same costs; the flat
   side adds the floor heuristic and reuses the arena. *)
let shortest_path config state flow ~si ~di ~beta ~p_norm ~allowed ~source
    ~target =
  match state.engine with
  | Reference ->
    Dijkstra.run_to_iter ~n:state.n
      ~successors_iter:
        (successors_iter config state flow ~si ~di ~beta ~p_norm ~allowed)
      ~source ~target
  | Flat ->
    let q = state.query in
    q.bw <- flow.Flow.bandwidth_mbps;
    q.rate <-
      Units.flits_per_second ~bw_mbps:flow.Flow.bandwidth_mbps
        ~flit_bits:state.topo.Topology.flit_bits;
    q.beta <- beta;
    q.p_norm <- p_norm;
    q.lat_norm <- float_of_int flow.Flow.max_latency_cycles;
    let floor = target_floor config state ~si ~di ~allowed ~target in
    let links = state.topo.Topology.links in
    let expand u relax =
      let row = Noc_graph.Flat.out_row links u in
      for i = Array.length allowed - 1 downto 0 do
        let v = allowed.(i) in
        if hop config state ~si ~di ~row u v then relax v
      done
    in
    Astar.run_to_const state.arena ~n:state.n ~successors_iter:expand
      ~cost:state.cell ~floor ~source ~target

let open_missing config state route =
  let topo = state.topo in
  let rec go = function
    | a :: (b :: _ as rest) ->
      (match Topology.find_link topo ~src:a ~dst:b with
       | Some _ -> ()
       | None ->
         let length =
           Geometry.manhattan topo.Topology.switches.(a).Topology.position
             topo.Topology.switches.(b).Topology.position
         in
         let stages =
           stages_needed config topo.Topology.switches.(a) ~length_mm:length
         in
         ignore (Topology.add_link ~stages topo ~src:a ~dst:b ~length_mm:length);
         state.out_ports.(a) <- state.out_ports.(a) + 1;
         state.in_ports.(b) <- state.in_ports.(b) + 1;
         if is_intermediate state b then state.out_to_inter.(a) <- true;
         if is_intermediate state a then state.in_from_inter.(b) <- true);
      go rest
    | [ _ ] | [] -> ()
  in
  go route

let commit config state flow route =
  open_missing config state route;
  Topology.commit_flow state.topo flow ~route

let route_flow config state flow =
  let topo = state.topo in
  let si = ref 0 and di = ref 0 in
  (match
     ( topo.Topology.switches.(topo.Topology.core_switch.(flow.Flow.src))
         .Topology.location,
       topo.Topology.switches.(topo.Topology.core_switch.(flow.Flow.dst))
         .Topology.location )
   with
   | Topology.Island a, Topology.Island b ->
     si := a;
     di := b
   | _ -> assert false (* cores never attach to indirect switches *));
  let ss = topo.Topology.core_switch.(flow.Flow.src) in
  let ds = topo.Topology.core_switch.(flow.Flow.dst) in
  if state.mask.dead_switch ss || state.mask.dead_switch ds then
    (* a dead endpoint switch strands the flow's NI — nothing to route *)
    Error { flow; reason = `No_path }
  else if ss = ds then begin
    commit config state flow [ ss ];
    Ok ()
  end
  else begin
    let p_norm = reference_hop_power_mw config topo flow in
    (* one memo lookup per flow, not one per node expansion *)
    let allowed = allowed_nodes state ~si:!si ~di:!di in
    let attempt beta =
      shortest_path config state flow ~si:!si ~di:!di ~beta ~p_norm ~allowed
        ~source:ss ~target:ds
    in
    let try_route beta =
      match attempt beta with
      | None -> Error { flow; reason = `No_path }
      | Some (_, route) ->
        let latency = Topology.route_latency_cycles topo route in
        if latency <= flow.Flow.max_latency_cycles then begin
          commit config state flow route;
          Ok ()
        end
        else Error { flow; reason = `Latency (latency - flow.Flow.max_latency_cycles) }
    in
    match try_route config.Config.beta with
    | Ok () -> Ok ()
    | Error { reason = `Latency _; _ } when config.Config.beta > 0.0 ->
      (* power-cheapest path was too slow: retry latency-driven *)
      try_route 0.0
    | Error _ as e -> e
  end

(* ---------- transactional rip-up and reroute ---------- *)

(* A consistent snapshot of the mutable routing state: the topology's
   journal checkpoint plus copies of the incremental port/reserve
   counters.  [restore] brings both back in one step, so the allocator can
   speculate freely and abandon a failed recovery without rebuilding
   anything. *)
type snapshot = {
  cp : Topology.checkpoint;
  in_ports_snap : int array;
  out_ports_snap : int array;
  out_to_inter_snap : bool array;
  in_from_inter_snap : bool array;
}

let save state =
  {
    cp = Topology.checkpoint state.topo;
    in_ports_snap = Array.copy state.in_ports;
    out_ports_snap = Array.copy state.out_ports;
    out_to_inter_snap = Array.copy state.out_to_inter;
    in_from_inter_snap = Array.copy state.in_from_inter;
  }

let restore state snap =
  Topology.rollback state.topo snap.cp;
  Array.blit snap.in_ports_snap 0 state.in_ports 0
    (Array.length state.in_ports);
  Array.blit snap.out_ports_snap 0 state.out_ports 0
    (Array.length state.out_ports);
  Array.blit snap.out_to_inter_snap 0 state.out_to_inter 0
    (Array.length state.out_to_inter);
  Array.blit snap.in_from_inter_snap 0 state.in_from_inter 0
    (Array.length state.in_from_inter)

let intermediate_switches state =
  let acc = ref [] in
  Array.iter
    (fun sw ->
      if sw.Topology.location = Topology.Intermediate then
        acc := sw.Topology.sw_id :: !acc)
    state.topo.Topology.switches;
  List.rev !acc

(* Update the incremental counters after [Topology.remove_flow] dropped
   zero-bandwidth links, keeping them equal to what a recount would
   give. *)
let note_dropped_links state dropped =
  let inter = lazy (intermediate_switches state) in
  List.iter
    (fun link ->
      let u = link.Topology.link_src and v = link.Topology.link_dst in
      state.out_ports.(u) <- state.out_ports.(u) - 1;
      state.in_ports.(v) <- state.in_ports.(v) - 1;
      if is_intermediate state v then
        state.out_to_inter.(u) <-
          List.exists
            (fun w ->
              Topology.find_link state.topo ~src:u ~dst:w <> None)
            (Lazy.force inter);
      if is_intermediate state u then
        state.in_from_inter.(v) <-
          List.exists
            (fun w ->
              Topology.find_link state.topo ~src:w ~dst:v <> None)
            (Lazy.force inter))
    dropped

(* Committed flows standing in the failed flow's way, cheapest first: any
   flow routed over a link, inside the failed flow's legal switch region,
   that is either too full to take the flow's bandwidth or driven
   from/into a port-saturated switch.  Those are exactly the resources a
   capacity- or port-starved flow needs back. *)
let conflict_victims state flow ~si ~di =
  let topo = state.topo in
  let congested (u, v) link =
    node_allowed state ~si ~di u
    && node_allowed state ~si ~di v
    && (link.Topology.bw_mbps +. flow.Flow.bandwidth_mbps
        > link_capacity state u v +. 1e-9
        || state.out_ports.(u) + 1 > state.max_arity.(u)
        || state.in_ports.(v) + 1 > state.max_arity.(v))
  in
  let congested_links =
    List.filter
      (fun l -> congested (l.Topology.link_src, l.Topology.link_dst) l)
      (Topology.links_list topo)
  in
  if congested_links = [] then []
  else begin
    let on_link (a, b) route =
      let rec scan = function
        | x :: (y :: _ as rest) -> (x = a && y = b) || scan rest
        | [ _ ] | [] -> false
      in
      scan route
    in
    let key (s, d) = (s, d) in
    let seen = Hashtbl.create 16 in
    let victims =
      List.filter
        (fun (f, route) ->
          let k = key (f.Flow.src, f.Flow.dst) in
          if Hashtbl.mem seen k then false
          else if
            List.exists
              (fun l ->
                on_link (l.Topology.link_src, l.Topology.link_dst) route)
              congested_links
          then begin
            Hashtbl.add seen k ();
            true
          end
          else false)
        topo.Topology.routes
      |> List.map fst
    in
    (* cheapest first: ripping up a low-bandwidth flow frees capacity at
       the smallest reroute risk; ties broken by (src, dst) so recovery is
       deterministic *)
    List.sort
      (fun a b ->
        match compare a.Flow.bandwidth_mbps b.Flow.bandwidth_mbps with
        | 0 -> compare (a.Flow.src, a.Flow.dst) (b.Flow.src, b.Flow.dst)
        | c -> c)
      victims
  end

(* Recovery is bounded: past this many rip-ups the congestion is
   structural and a full restart (or rejecting the candidate) is
   cheaper than continuing to dig. *)
let max_ripups_per_recovery = 8

(* Rip up the cheapest conflicting flows one at a time until the failed
   flow routes, then put every ripped-up flow back (hottest first, like
   the main order).  Returns the number of flows ripped up on success;
   rolls the topology and counters back to [snap]-time state on
   failure. *)
let rip_up_and_reroute config state flow ~si ~di =
  let snap = save state in
  let victims = conflict_victims state flow ~si ~di in
  (* [`Failed rolled_back]: whether any speculation had to be undone, as
     opposed to finding no victim to rip up at all *)
  let roll_back ripped =
    restore state snap;
    if ripped <> [] then Metrics.incr "path_alloc.rollbacks";
    `Failed (ripped <> [])
  in
  let rec rip ripped = function
    | [] -> Error ripped
    | _ when List.length ripped >= max_ripups_per_recovery -> Error ripped
    | victim :: rest ->
      (match Topology.remove_flow state.topo victim with
       | None -> rip ripped rest (* stale: already ripped up *)
       | Some (_route, dropped) ->
         note_dropped_links state dropped;
         Metrics.incr "path_alloc.ripups";
         let ripped = victim :: ripped in
         (match route_flow config state flow with
          | Ok () -> Ok ripped
          | Error _ -> rip ripped rest))
  in
  match rip [] victims with
  | Error ripped -> roll_back ripped
  | Ok ripped ->
    (* reroute the victims in the main loop's order: decreasing
       bandwidth, ties by (src, dst) *)
    let by_bandwidth a b =
      match compare b.Flow.bandwidth_mbps a.Flow.bandwidth_mbps with
      | 0 -> compare (a.Flow.src, a.Flow.dst) (b.Flow.src, b.Flow.dst)
      | c -> c
    in
    let rec reroute = function
      | [] -> true
      | v :: rest ->
        (match route_flow config state v with
         | Ok () ->
           Metrics.incr "path_alloc.reroutes";
           reroute rest
         | Error _ -> false)
    in
    if reroute (List.sort by_bandwidth ripped) then
      `Recovered (List.length ripped)
    else roll_back ripped

let islands_of_flow state flow =
  let topo = state.topo in
  match
    ( topo.Topology.switches.(topo.Topology.core_switch.(flow.Flow.src))
        .Topology.location,
      topo.Topology.switches.(topo.Topology.core_switch.(flow.Flow.dst))
        .Topology.location )
  with
  | Topology.Island a, Topology.Island b -> (a, b)
  | _ -> assert false (* cores never attach to indirect switches *)

let by_bandwidth a b =
  match compare b.Flow.bandwidth_mbps a.Flow.bandwidth_mbps with
  | 0 ->
    (match Int.compare a.Flow.src b.Flow.src with
     | 0 -> Int.compare a.Flow.dst b.Flow.dst
     | c -> c)
  | c -> c

(* One-entry, per-domain memo of [List.sort by_bandwidth soc.flows]: the
   flow list is the same physical value for every candidate of a sweep
   and the comparator is pure, so the sweep sorts it once instead of once
   per candidate.  Keyed by physical identity — a different (even equal)
   list just recomputes. *)
let sorted_flows_key :
    (Flow.t list * Flow.t list) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let sorted_by_bandwidth flows =
  let cell = Domain.DLS.get sorted_flows_key in
  match !cell with
  | Some (key, sorted) when key == flows -> sorted
  | _ ->
    let sorted = List.sort by_bandwidth flows in
    cell := Some (flows, sorted);
    sorted

let route_all ?(priority = []) ?cache:_ ?engine config soc topo ~clocks =
  Metrics.time "path_alloc.route_all" @@ fun () ->
  let state = make_state ?engine ~pooled:true config topo ~clocks in
  let pristine = save state in
  let flows_of priority =
    match priority with
    | [] ->
      (* every rank ties at max_int — skip the per-comparison hashing
         (and its key-tuple allocation) the ranked path pays *)
      sorted_by_bandwidth soc.Soc_spec.flows
    | _ ->
      (* position in the priority list, or max_int for unlisted flows *)
      let rank_tbl = Hashtbl.create (List.length priority * 2 + 1) in
      List.iteri
        (fun i key ->
          if not (Hashtbl.mem rank_tbl key) then Hashtbl.add rank_tbl key i)
        priority;
      let rank f =
        match Hashtbl.find_opt rank_tbl (f.Flow.src, f.Flow.dst) with
        | Some i -> i
        | None -> max_int
      in
      let by_priority_then_bandwidth a b =
        match compare (rank a) (rank b) with
        | 0 -> by_bandwidth a b
        | c -> c
      in
      List.sort by_priority_then_bandwidth soc.Soc_spec.flows
  in
  (* One pass over the flows.  A failure first tries in-place recovery
     (rip up the cheapest conflicting committed flows, route the failed
     flow, put the victims back); if recovery fails, the whole allocation
     restarts from the pristine state with the troublesome flows routed
     first — the rebuild-free equivalent of the old
     rebuild-the-candidate retry, since a rebuilt candidate is
     deterministic and identical to the pristine rollback. *)
  let rec attempt priority restarts_left stats =
    let rec go stats = function
      | [] -> Ok stats
      | flow :: rest ->
        (match route_flow config state flow with
         | Ok () -> go stats rest
         | Error e ->
           let si, di = islands_of_flow state flow in
           (match rip_up_and_reroute config state flow ~si ~di with
            | `Recovered ripped ->
              go
                {
                  stats with
                  ripups = stats.ripups + ripped;
                  reroutes = stats.reroutes + ripped;
                }
                rest
            | `Failed rolled_back ->
              let stats =
                if rolled_back then
                  { stats with rollbacks = stats.rollbacks + 1 }
                else stats
              in
              let key = (flow.Flow.src, flow.Flow.dst) in
              if restarts_left > 0 && not (List.mem key priority) then begin
                restore state pristine;
                Metrics.incr "path_alloc.restarts";
                attempt (priority @ [ key ])
                  (restarts_left - 1)
                  { stats with restarts = stats.restarts + 1 }
              end
              else Error e))
    in
    go stats (flows_of priority)
  in
  let result = attempt priority 2 no_stats in
  (match result with
   | Ok _ -> Topology.clear_journal topo
   | Error _ -> ());
  flush_hop_metrics state;
  result

(* ---------- incremental sessions (fault repair) ---------- *)

(* A session wraps the mutable routing state for callers outside the main
   [route_all] sweep: the fault analyzer repairs severed flows one at a
   time, and protected synthesis allocates backup routes.  The optional
   mask removes faulted switches/links from Dijkstra's view — they can be
   neither reused nor reopened. *)
type session = {
  s_config : Config.t;
  s_state : state;
}

let session ?mask ?cache:_ ?engine config topo ~clocks =
  {
    s_config = config;
    s_state = make_state ?mask ?engine config topo ~clocks;
  }

let discard { s_state = state; _ } flow =
  match Topology.remove_flow state.topo flow with
  | None -> false
  | Some (_route, dropped) ->
    note_dropped_links state dropped;
    true

let reroute { s_config = config; s_state = state } flow =
  let result =
    match route_flow config state flow with
    | Ok () -> Ok ()
    | Error e ->
      let si, di = islands_of_flow state flow in
      (match rip_up_and_reroute config state flow ~si ~di with
       | `Recovered _ -> Ok ()
       | `Failed _ -> Error e)
  in
  flush_hop_metrics state;
  result

(* ---------- protection (backup) routes ---------- *)

let links_of_route route =
  let rec go acc = function
    | a :: (b :: _ as rest) -> go ((a, b) :: acc) rest
    | [ _ ] | [] -> List.rev acc
  in
  go [] route

let route_backup_with config state flow ~si ~di ~ss ~ds mask =
  let masked = { state with mask } in
  let topo = state.topo in
  let p_norm = reference_hop_power_mw config topo flow in
  let allowed = allowed_nodes masked ~si ~di in
  let attempt beta =
    shortest_path config masked flow ~si ~di ~beta ~p_norm ~allowed ~source:ss
      ~target:ds
  in
  (* Backups only carry traffic after a fault, in degraded mode; they get
     a slacked latency budget where primaries must meet the deadline. *)
  let budget =
    int_of_float
      (config.Config.protect_latency_slack
      *. float_of_int flow.Flow.max_latency_cycles)
  in
  let finish route =
    let latency = Topology.route_latency_cycles topo route in
    if latency <= budget then begin
      open_missing config state route;
      Topology.commit_backup topo flow ~route;
      Ok ()
    end
    else Error { flow; reason = `Latency (latency - budget) }
  in
  match attempt config.Config.beta with
  | None -> Error { flow; reason = `No_path }
  | Some (_, route) ->
    (match finish route with
     | Ok () -> Ok ()
     | Error { reason = `Latency _; _ } when config.Config.beta > 0.0 ->
       (* power-cheapest backup was too slow: retry latency-driven *)
       (match attempt 0.0 with
        | None -> Error { flow; reason = `No_path }
        | Some (_, route) -> finish route)
     | Error _ as e -> e)

let route_backup { s_config = config; s_state = state } flow =
  let topo = state.topo in
  let ss = topo.Topology.core_switch.(flow.Flow.src) in
  let ds = topo.Topology.core_switch.(flow.Flow.dst) in
  if ss = ds then Ok () (* NI-local flow: no fabric hop to protect *)
  else begin
    let primary =
      match
        List.find_opt
          (fun (f, _) ->
            (f.Flow.src, f.Flow.dst) = (flow.Flow.src, flow.Flow.dst))
          topo.Topology.routes
      with
      | Some (_, r) -> r
      | None ->
        invalid_arg "Path_alloc.route_backup: flow has no committed primary"
    in
    let si, di = islands_of_flow state flow in
    let prim_links = links_of_route primary in
    (* link-disjoint is the guarantee; switch-disjointness is attempted
       first and degrades gracefully when port budgets are too tight *)
    let link_disjoint =
      {
        dead_switch = (fun _ -> false);
        dead_link = (fun u v -> List.mem (u, v) prim_links);
      }
    in
    let switch_disjoint =
      {
        link_disjoint with
        dead_switch = (fun s -> s <> ss && s <> ds && List.mem s primary);
      }
    in
    let attempt m =
      route_backup_with config state flow ~si ~di ~ss ~ds
        (mask_union state.mask m)
    in
    let result =
      match attempt switch_disjoint with
      | Ok () -> Ok ()
      | Error _ -> attempt link_disjoint
    in
    flush_hop_metrics state;
    result
  end
