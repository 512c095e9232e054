module Rng = Rumor_rng.Rng
module Dist = Rumor_rng.Dist
module Graph = Rumor_graph.Graph

type table = { sources : int list; created : int }

type table_result = {
  completion_round : int option;
  informed : int;
  push_tx : int;
  pull_tx : int;
  knows : Bitset.t;
}

type result = {
  rounds : int;
  population : int;
  channels : int;
  down : int list;
  trace : Trace.t option;
  tables : table_result array;
}

type gate = informed:bool -> node:int -> round:int -> bool

(* Per-node protocol state behind an index-addressed store, so the
   round loop is identical whether the state lives in an ['st array] of
   boxed records (the general path) or in a flat [Cells.t] of int codes
   (the packed path — a few bytes per node, which is what admits
   n = 10^8). Closure dispatch costs one indirect call per operation,
   the same price the boxed path already paid calling the protocol's
   own closures. *)
type store = {
  s_init : int -> informed:bool -> unit;
  s_decide : int -> round:int -> Protocol.decision;
  s_receive : int -> round:int -> unit;
  s_feedback : int -> round:int -> unit;
  s_quiescent : int -> round:int -> bool;
}

let boxed_store (protocol : _ Protocol.t) cap =
  let state = Array.init cap (fun _ -> protocol.Protocol.init ~informed:false) in
  {
    s_init = (fun v ~informed -> state.(v) <- protocol.Protocol.init ~informed);
    s_decide = (fun v ~round -> protocol.Protocol.decide state.(v) ~round);
    s_receive =
      (fun v ~round -> state.(v) <- protocol.Protocol.receive state.(v) ~round);
    s_feedback =
      (fun v ~round -> state.(v) <- protocol.Protocol.feedback state.(v) ~round);
    s_quiescent =
      (fun v ~round -> protocol.Protocol.quiescent state.(v) ~round);
  }

let packed_store (p : Protocol.packed_ops) cap =
  let cells = Cells.create (Cells.width_of_bits p.Protocol.bits) cap in
  let uninformed = p.Protocol.p_init ~informed:false in
  if uninformed <> 0 then Cells.fill cells uninformed;
  {
    s_init = (fun v ~informed -> Cells.set cells v (p.Protocol.p_init ~informed));
    s_decide = (fun v ~round -> p.Protocol.p_decide (Cells.get cells v) ~round);
    s_receive =
      (fun v ~round ->
        Cells.set cells v (p.Protocol.p_receive (Cells.get cells v) ~round));
    s_feedback =
      (fun v ~round ->
        Cells.set cells v (p.Protocol.p_feedback (Cells.get cells v) ~round));
    s_quiescent =
      (fun v ~round -> p.Protocol.p_quiescent (Cells.get cells v) ~round);
  }

let store_of ~packed (protocol : _ Protocol.t) cap =
  match (if packed then protocol.Protocol.packed else None) with
  | Some pk -> packed_store pk.Protocol.ops cap
  | None -> boxed_store protocol cap

(* Per-rumor state. Every table owns its informed set, protocol state,
   decision cache, end-of-round receipt/feedback queues and accounting;
   the round's channel set is shared by all of them.

   Two staging representations coexist:

   - [ordered] (boxed protocols): pending receipts and feedback targets
     are queued in capacity-sized id arrays and applied in delivery
     order — protocols whose [receive]/[feedback] draw randomness
     (Demers coin variants) observe that order, so it is part of the
     pinned randomness contract.
   - packed protocols are rng-pure by contract, so delivery order is
     unobservable; the ids live only in the [pending]/[dup_mark]
     bitsets and are applied by an ascending word-parallel scan. No
     capacity-sized word array is allocated per rumor. *)
type tstate = {
  created : int;
  srcs : int list;
  informed : Bitset.t;
  store : store;
  ordered : bool;
  dec_push : Bitset.t;
  dec_pull : Bitset.t;
  stamp : Cells.t;
  pending : Bitset.t;
  pending_ids : int array;
  mutable pending_len : int;
  dups : Cells.t;
  dup_mark : Bitset.t;
  dup_ids : int array;
  mutable dup_len : int;
  mutable know : int;
  mutable down_informed : int;
  mutable witness : int;
  mutable push_tx : int;
  mutable pull_tx : int;
  mutable completion : int option;
  mutable injected : bool;
}

let run ?(fault = Fault.none) ?(collect_trace = false) ?gate
    ?(forget_on_recover = false) ?reset ?on_round_end ?observe ?skew ?monitor
    ?(packed = true) ~rng ~topology ~protocol ~tables () =
  let open Topology in
  let open Protocol in
  let cap = topology.capacity in
  let nt = Array.length tables in
  if nt = 0 then invalid_arg "Kernel.run: no tables";
  let skew_f = match skew with Some f -> f | None -> fun _ -> 0 in
  let max_skew =
    match skew with
    | None -> 0
    | Some f ->
        let worst = ref 0 in
        for v = 0 to cap - 1 do
          if f v > !worst then worst := f v
        done;
        !worst
  in
  let frt = Fault.start fault ~capacity:cap in
  let active v = Fault.active frt v in
  let may_recover = Fault.may_recover frt in
  (* A plan without a partition never opens the window, so this is two
     loads and a branch that always answers [true]. *)
  let connected u w = Fault.same_side frt u w in
  let push_ok u = Fault.push_ok frt rng ~sender:u in
  let pull_ok w = Fault.pull_ok frt rng ~sender:w in
  let selector = Selector.make protocol.selector ~capacity:cap in
  let scratch = Array.make (max (Selector.fanout protocol.selector) 1) 0 in
  (* Census strategy: see the invariant in kernel.mli. *)
  let census_incremental = on_round_end = None in
  let live = ref 0 in
  if census_incremental then live := Topology.alive_count topology;
  let horizon =
    let h = ref 0 in
    Array.iter
      (fun (t : table) ->
        if t.created + protocol.horizon > !h then
          h := t.created + protocol.horizon)
      tables;
    !h + max_skew
  in
  (* Receipt stamps hold round numbers in [1, horizon]: one byte for
     the paper's O(log n) schedules, two up to 65535 rounds. *)
  let stamp_width = Cells.width_for (max 1 horizon) in
  let packed_on = packed && Option.is_some protocol.packed in
  let mk_table (spec : table) =
    {
      created = spec.created;
      srcs = spec.sources;
      informed = Bitset.create cap;
      store = store_of ~packed protocol cap;
      ordered = not packed_on;
      dec_push = Bitset.create cap;
      dec_pull = Bitset.create cap;
      stamp = Cells.create stamp_width cap;
      pending = Bitset.create cap;
      pending_ids = (if packed_on then [||] else Array.make cap 0);
      pending_len = 0;
      dups = Cells.create Cells.W16 cap;
      dup_mark = Bitset.create (if packed_on then cap else 0);
      dup_ids = (if packed_on then [||] else Array.make cap 0);
      dup_len = 0;
      know = 0;
      down_informed = 0;
      witness = 0;
      push_tx = 0;
      pull_tx = 0;
      completion = None;
      injected = false;
    }
  in
  let tbs = Array.map mk_table tables in
  let inject tb =
    List.iter
      (fun s ->
        if not (Bitset.get tb.informed s) then begin
          Bitset.set tb.informed s;
          tb.store.s_init s ~informed:true;
          if census_incremental && topology.alive s && active s then
            tb.know <- tb.know + 1
        end)
      tb.srcs;
    tb.injected <- true
  in
  Array.iter (fun tb -> if tb.created = 0 then inject tb) tbs;
  let mark tb v =
    if not (Bitset.get tb.pending v) then begin
      Bitset.set tb.pending v;
      if tb.ordered then tb.pending_ids.(tb.pending_len) <- v;
      tb.pending_len <- tb.pending_len + 1
    end
  in
  let record_dup tb v =
    let c = Cells.get tb.dups v in
    if c = 0 then begin
      if tb.ordered then tb.dup_ids.(tb.dup_len) <- v
      else Bitset.set tb.dup_mark v;
      tb.dup_len <- tb.dup_len + 1
    end;
    Cells.set tb.dups v (c + 1)
  in
  let informed_any v =
    let rec go j = j < nt && (Bitset.get tbs.(j).informed v || go (j + 1)) in
    go 0
  in
  let informed_all v =
    let rec go j = j >= nt || (Bitset.get tbs.(j).informed v && go (j + 1)) in
    go 0
  in
  let on_crash =
    if census_incremental then
      Some
        (fun v ->
          decr live;
          for j = 0 to nt - 1 do
            let tb = tbs.(j) in
            if Bitset.get tb.informed v then begin
              tb.know <- tb.know - 1;
              tb.down_informed <- tb.down_informed + 1
            end
          done)
    else None
  in
  let on_recover =
    (* Recovery amnesia: the node lost its volatile state while it was
       down — every rumor at once — and re-enters the uninformed
       census. Nodes only crash while alive and active, so a recovering
       node is alive here. *)
    if forget_on_recover then
      Some
        (fun v ->
          if census_incremental then incr live;
          for j = 0 to nt - 1 do
            let tb = tbs.(j) in
            if census_incremental && Bitset.get tb.informed v then
              tb.down_informed <- tb.down_informed - 1;
            Bitset.clear tb.informed v;
            tb.store.s_init v ~informed:false
          done)
    else if census_incremental then
      Some
        (fun v ->
          incr live;
          for j = 0 to nt - 1 do
            let tb = tbs.(j) in
            if Bitset.get tb.informed v then begin
              tb.know <- tb.know + 1;
              tb.down_informed <- tb.down_informed - 1
            end
          done)
    else None
  in
  (* Decision cache accessors, hoisted out of the round loop (the
     closures close over [cur_round] instead of the round variable). A
     table whose logical round has not started yet decides [silent]
     without consulting the protocol, so it also draws no delivery
     randomness. *)
  let cur_round = ref 0 in
  let decide_at tb v =
    let r = !cur_round in
    let logical = r - tb.created - skew_f v in
    let d =
      if logical < 1 then Protocol.silent
      else tb.store.s_decide v ~round:logical
    in
    Bitset.assign tb.dec_push v d.push;
    Bitset.assign tb.dec_pull v d.pull;
    Cells.set tb.stamp v r
  in
  let push_of tb v =
    if Cells.get tb.stamp v <> !cur_round then decide_at tb v;
    Bitset.get tb.dec_push v
  in
  let pull_of tb v =
    if Cells.get tb.stamp v <> !cur_round then decide_at tb v;
    Bitset.get tb.dec_pull v
  in
  (* Quiescence is a pure conjunction over informed live nodes, so the
     scan may exit at the first talkative node; remembering that node
     as a per-table witness makes the steady-state check O(1) — it
     stays talkative round after round until the protocol winds down,
     and only then does a full scan run (right before the loop
     stops). *)
  let quiet_at tb r v =
    let logical = r + 1 - tb.created - skew_f v in
    logical >= 1 && tb.store.s_quiescent v ~round:logical
  in
  let table_quiet_fast tb r =
    if tb.created >= r then false
    else begin
      let w = tb.witness in
      if
        w < cap && topology.alive w && active w
        && Bitset.get tb.informed w
        && not (quiet_at tb r w)
      then false
      else begin
        (* Word-level frontier walk: only informed nodes can be
           talkative, so scan the informed set (64 ids per load)
           instead of probing every id. Ascending order, so the witness
           found is the same node the per-id scan would pick. *)
        let v = ref (Bitset.next_set tb.informed 0) and quiet = ref true in
        while !quiet && !v >= 0 do
          let u = !v in
          if topology.alive u && active u && not (quiet_at tb r u) then begin
            quiet := false;
            tb.witness <- u
          end;
          v := Bitset.next_set tb.informed (u + 1)
        done;
        !quiet
      end
    end
  in
  let any_down_informed () =
    let rec go j = j < nt && (tbs.(j).down_informed > 0 || go (j + 1)) in
    go 0
  in
  let all_quiet_fast r =
    (* An informed crashed node may come back and resume its schedule;
       don't declare the system quiet without it. *)
    if may_recover && any_down_informed () then false
    else begin
      let quiet = ref true and j = ref 0 in
      while !quiet && !j < nt do
        if not (table_quiet_fast tbs.(!j) r) then quiet := false;
        incr j
      done;
      !quiet
    end
  in
  let full_census r =
    (* Census after churn: [alive] may have changed arbitrarily, so
       recount; completion means every live node knows. *)
    live := 0;
    for j = 0 to nt - 1 do
      tbs.(j).know <- 0
    done;
    let quiet = ref true in
    for j = 0 to nt - 1 do
      if tbs.(j).created >= r then quiet := false
    done;
    for v = 0 to cap - 1 do
      if topology.alive v then begin
        if active v then begin
          incr live;
          for j = 0 to nt - 1 do
            let tb = tbs.(j) in
            if Bitset.get tb.informed v then begin
              tb.know <- tb.know + 1;
              if not (quiet_at tb r v) then quiet := false
            end
          done
        end
        else if informed_any v && may_recover then quiet := false
      end
    done;
    !quiet
  in
  let trace = if collect_trace then Some (Trace.create ()) else None in
  let total_channels = ref 0 in
  (* Invariant-monitor state: last round's per-table informed counts
     (monotonicity) — allocated only when a monitor is installed, so
     monitor-off runs stay allocation-free. *)
  let prev_know =
    match monitor with
    | Some _ -> Array.map (fun tb -> tb.know) tbs
    | None -> [||]
  in
  let may_shrink =
    Fault.has_node_faults fault || forget_on_recover
    || Option.is_some reset
    || Option.is_some on_round_end
  in
  let round = ref 0 in
  let stop = ref false in
  while (not !stop) && !round < horizon do
    incr round;
    let r = !round in
    cur_round := r;
    Fault.begin_round ?on_recover ?on_crash frt ~rng ~round:r
      ~degree:topology.degree ~alive:topology.alive ~informed:informed_any;
    (* Inject rumors created at the end of the previous round. *)
    for j = 0 to nt - 1 do
      let tb = tbs.(j) in
      if (not tb.injected) && tb.created = r - 1 then inject tb
    done;
    let push_now = ref 0 and pull_now = ref 0 and channels_now = ref 0 in
    for u = 0 to cap - 1 do
      if
        topology.alive u && active u
        && (match gate with
           | None -> true
           | Some g -> g ~informed:(informed_all u) ~node:u ~round:r)
      then begin
        let d = topology.degree u in
        if d > 0 then begin
          let k = Selector.select selector ~rng ~node:u ~degree:d ~out:scratch in
          for i = 0 to k - 1 do
            let w = topology.neighbor u scratch.(i) in
            (* [connected] is checked before the channel draw: a call
               blocked by a partition consumes no randomness, exactly
               like a call to a dead node. *)
            if
              topology.alive w && active w && connected u w
              && Fault.channel_ok fault rng
            then begin
              incr channels_now;
              for j = 0 to nt - 1 do
                let tb = tbs.(j) in
                if Bitset.get tb.informed u && push_of tb u && push_ok u
                then begin
                  incr push_now;
                  tb.push_tx <- tb.push_tx + 1;
                  if Bitset.get tb.informed w || Bitset.get tb.pending w then
                    record_dup tb u
                  else mark tb w
                end;
                if Bitset.get tb.informed w && pull_of tb w && pull_ok w
                then begin
                  incr pull_now;
                  tb.pull_tx <- tb.pull_tx + 1;
                  if Bitset.get tb.informed u || Bitset.get tb.pending u then
                    record_dup tb w
                  else mark tb u
                end
              done
            end
          done
        end
      end
    done;
    (* Newly-informed sets were deferred so a node never forwards a
       rumor in the round it first receives it; apply them now. The
       ordered path replays delivery order from the id queue; the
       packed path scans the pending bitset in ascending id order
       (packed ops are rng-pure, so the order is unobservable). *)
    let newly_total = ref 0 in
    for j = 0 to nt - 1 do
      let tb = tbs.(j) in
      let newly = tb.pending_len in
      if tb.ordered then
        for i = 0 to newly - 1 do
          let v = tb.pending_ids.(i) in
          Bitset.clear tb.pending v;
          Bitset.set tb.informed v;
          tb.store.s_receive v ~round:(max 0 (r - tb.created - skew_f v))
        done
      else if newly > 0 then begin
        Bitset.iter_set tb.pending (fun v ->
            Bitset.set tb.informed v;
            tb.store.s_receive v ~round:(max 0 (r - tb.created - skew_f v)));
        Bitset.reset tb.pending
      end;
      tb.pending_len <- 0;
      (* Every marked node was alive and active when marked (both are
         checked before a channel carries anything, and crashes land
         only at round start), so the incremental count moves by
         [newly]. *)
      if census_incremental then tb.know <- tb.know + newly;
      newly_total := !newly_total + newly
    done;
    for j = 0 to nt - 1 do
      let tb = tbs.(j) in
      if tb.ordered then begin
        for i = 0 to tb.dup_len - 1 do
          let v = tb.dup_ids.(i) in
          let logical = max 0 (r - tb.created - skew_f v) in
          for _ = 1 to Cells.get tb.dups v do
            tb.store.s_feedback v ~round:logical
          done;
          Cells.set tb.dups v 0
        done
      end
      else if tb.dup_len > 0 then begin
        Bitset.iter_set tb.dup_mark (fun v ->
            let logical = max 0 (r - tb.created - skew_f v) in
            for _ = 1 to Cells.get tb.dups v do
              tb.store.s_feedback v ~round:logical
            done;
            Cells.set tb.dups v 0);
        Bitset.reset tb.dup_mark
      end;
      tb.dup_len <- 0
    done;
    total_channels := !total_channels + !channels_now;
    (match on_round_end with Some f -> f r | None -> ());
    (match reset with
    | Some f ->
        (* Ids handed back by the churn harness (fresh joins, id reuse)
           restart uninformed regardless of any stale flag. *)
        List.iter
          (fun v ->
            if v >= 0 && v < cap then
              for j = 0 to nt - 1 do
                let tb = tbs.(j) in
                if
                  census_incremental
                  && Bitset.get tb.informed v
                  && topology.alive v
                then
                  if active v then tb.know <- tb.know - 1
                  else tb.down_informed <- tb.down_informed - 1;
                Bitset.clear tb.informed v;
                tb.store.s_init v ~informed:false
              done)
          (f ())
    | None -> ());
    let all_quiet =
      if census_incremental then all_quiet_fast r else full_census r
    in
    (match trace with
    | Some t ->
        let know_total = ref 0 in
        for j = 0 to nt - 1 do
          know_total := !know_total + tbs.(j).know
        done;
        Trace.add t
          {
            Trace.round = r;
            informed = !know_total;
            newly = !newly_total;
            push_tx = !push_now;
            pull_tx = !pull_now;
            channels = !channels_now;
          }
    | None -> ());
    for j = 0 to nt - 1 do
      let tb = tbs.(j) in
      if tb.completion = None && !live > 0 && tb.know = !live then
        tb.completion <- Some r
    done;
    (* Runtime invariant monitor: re-derive every census quantity from
       the bitsets and compare with the kernel's own counters. Runs in
       both census modes (after [full_census] has refreshed them), so a
       kernel that wrongly keeps the incremental census under churn is
       caught here. Observation only: no randomness, no control flow. *)
    (match monitor with
    | None -> ()
    | Some m ->
        Invariant.tick m;
        let live' = ref 0 in
        for v = 0 to cap - 1 do
          if topology.alive v && active v then incr live'
        done;
        if !live' <> !live then
          Invariant.record m ~check:"census" ~round:r
            ~detail:(Printf.sprintf "live: recount %d, kernel %d" !live' !live);
        for j = 0 to nt - 1 do
          let tb = tbs.(j) in
          let know' = ref 0 and down_inf' = ref 0 in
          Bitset.iter_set tb.informed (fun v ->
              if topology.alive v then
                if active v then incr know' else incr down_inf');
          if !know' <> tb.know then
            Invariant.record m ~check:"census" ~round:r
              ~detail:
                (Printf.sprintf "table %d informed: recount %d, kernel %d" j
                   !know' tb.know);
          if census_incremental && !down_inf' <> tb.down_informed then
            Invariant.record m ~check:"census" ~round:r
              ~detail:
                (Printf.sprintf "table %d down-informed: recount %d, kernel %d"
                   j !down_inf' tb.down_informed);
          if tb.know > !live' then
            Invariant.record m ~check:"conserve" ~round:r
              ~detail:
                (Printf.sprintf "table %d informed %d exceeds live %d" j
                   tb.know !live');
          if (not may_shrink) && tb.know < prev_know.(j) then
            Invariant.record m ~check:"monotone" ~round:r
              ~detail:
                (Printf.sprintf "table %d informed fell %d -> %d" j
                   prev_know.(j) tb.know);
          prev_know.(j) <- tb.know;
          if tb.pending_len <> 0 || tb.dup_len <> 0 then
            Invariant.record m ~check:"drain" ~round:r
              ~detail:
                (Printf.sprintf
                   "table %d staging not drained (%d pending, %d dups)" j
                   tb.pending_len tb.dup_len)
        done;
        if !newly_total > !push_now + !pull_now then
          Invariant.record m ~check:"conserve" ~round:r
            ~detail:
              (Printf.sprintf "%d newly informed from %d surviving deliveries"
                 !newly_total (!push_now + !pull_now));
        if !push_now > !channels_now * nt || !pull_now > !channels_now * nt
        then
          Invariant.record m ~check:"conserve" ~round:r
            ~detail:
              (Printf.sprintf
                 "%d push + %d pull deliveries on %d channels x %d tables"
                 !push_now !pull_now !channels_now nt));
    if all_quiet then stop := true;
    if protocol.stop_at_completion then begin
      let all = ref true in
      for j = 0 to nt - 1 do
        if tbs.(j).completion = None then all := false
      done;
      if !all then stop := true
    end;
    (match observe with Some f -> f r | None -> ())
  done;
  (* Final counts. The incremental census already holds them — the
     invariant the differential tests pin — so only the crashed-id list
     (node-fault runs) or the post-churn recount needs a scan. *)
  let down = ref [] in
  if census_incremental then begin
    if Fault.down_count frt > 0 then
      for v = cap - 1 downto 0 do
        if topology.alive v && not (Fault.active frt v) then down := v :: !down
      done
  end
  else begin
    live := 0;
    for j = 0 to nt - 1 do
      tbs.(j).know <- 0
    done;
    for v = cap - 1 downto 0 do
      if topology.alive v then
        if active v then begin
          incr live;
          for j = 0 to nt - 1 do
            let tb = tbs.(j) in
            if Bitset.get tb.informed v then tb.know <- tb.know + 1
          done
        end
        else down := v :: !down
    done
  end;
  {
    rounds = !round;
    population = !live;
    channels = !total_channels;
    down = !down;
    trace;
    tables =
      Array.map
        (fun tb ->
          {
            completion_round = tb.completion;
            informed = tb.know;
            push_tx = tb.push_tx;
            pull_tx = tb.pull_tx;
            knows = tb.informed;
          })
        tbs;
  }

type epoch_stat = {
  epoch : int;
  epoch_rounds : int;
  epoch_informed : int;
  epoch_population : int;
  repair_push_tx : int;
  repair_pull_tx : int;
  repair_channels : int;
}

type 'st epoch_plan = {
  epoch_protocol : 'st Protocol.t;
  epoch_gate : gate;
}

let run_epochs ?(fault = Fault.none) ?(collect_trace = false)
    ?(forget_on_recover = false) ?reset ?on_round_end ?observe ?skew
    ?(max_epochs = 8) ?monitor ?packed ~rng ~topology ~protocol ~repair
    ~sources () =
  if max_epochs < 0 then invalid_arg "Kernel.run_epochs: max_epochs < 0";
  let main =
    run ~fault ~collect_trace ~forget_on_recover ?reset ?on_round_end ?observe
      ?skew ?monitor ?packed ~rng ~topology ~protocol
      ~tables:[| { sources; created = 0 } |]
      ()
  in
  let cap = topology.Topology.capacity in
  let knows = Bitset.copy main.tables.(0).knows in
  (* Nodes still down when a run stops would come back up under the next
     epoch's fresh fault runtime; with amnesia their knowledge is gone. *)
  let forget_down r =
    if forget_on_recover then List.iter (Bitset.clear knows) r.down
  in
  forget_down main;
  let live_census () =
    let live = ref 0 and know = ref 0 in
    for v = 0 to cap - 1 do
      if topology.Topology.alive v then begin
        incr live;
        if Bitset.get knows v then incr know
      end
    done;
    (!live, !know)
  in
  let push = ref main.tables.(0).push_tx in
  let pull = ref main.tables.(0).pull_tx in
  let stats = ref [] in
  let rounds = ref main.rounds in
  let chans = ref main.channels in
  let down = ref main.down in
  let epoch = ref 0 in
  let continue = ref true in
  while !continue && !epoch < max_epochs do
    let live, know = live_census () in
    (* Repairable while there is both a live knower to pull from and a
       live non-knower to reach; with none left — covered, extinct, or
       an empty network — the loop is done. *)
    if not (know > 0 && know < live) then continue := false
    else begin
      incr epoch;
      let srcs = ref [] in
      for v = cap - 1 downto 0 do
        if topology.Topology.alive v && Bitset.get knows v then
          srcs := v :: !srcs
      done;
      let plan = repair ~epoch:!epoch ~knows in
      (* Epochs fight the channel, not the reaper: communication faults
         (loss, call failure, bursts) stay on, while the node-dynamics
         modes (crash_rate, strike) act on the main timeline only —
         otherwise perpetual mid-repair amnesia makes the total-coverage
         target unreachable by construction. *)
      let epoch_fault = { fault with Fault.crash_rate = 0.; strike = None } in
      (* The observer sees one round count across the whole run: epoch
         rounds continue the main schedule's numbering. *)
      let offset = !rounds in
      let r =
        run ~fault:epoch_fault ~forget_on_recover ~gate:plan.epoch_gate
          ?observe:(Option.map (fun f r -> f (offset + r)) observe)
          ?monitor ?packed ~rng ~topology ~protocol:plan.epoch_protocol
          ~tables:[| { sources = !srcs; created = 0 } |]
          ()
      in
      (match monitor with
      | None -> ()
      | Some m ->
          if !epoch > max_epochs then
            Invariant.record m ~check:"budget" ~round:r.rounds
              ~detail:
                (Printf.sprintf "epoch %d exceeds max_epochs %d" !epoch
                   max_epochs);
          if r.rounds > plan.epoch_protocol.Protocol.horizon then
            Invariant.record m ~check:"budget" ~round:r.rounds
              ~detail:
                (Printf.sprintf "epoch %d ran %d rounds past horizon %d"
                   !epoch r.rounds plan.epoch_protocol.Protocol.horizon));
      (* The epoch restarted from every knower, so its final flags are
         the current truth (amnesia included): replace, don't merge. *)
      let t = r.tables.(0) in
      Bitset.blit ~src:t.knows ~dst:knows;
      push := !push + t.push_tx;
      pull := !pull + t.pull_tx;
      forget_down r;
      stats :=
        {
          epoch = !epoch;
          epoch_rounds = r.rounds;
          epoch_informed = t.informed;
          epoch_population = r.population;
          repair_push_tx = t.push_tx;
          repair_pull_tx = t.pull_tx;
          repair_channels = r.channels;
        }
        :: !stats;
      rounds := !rounds + r.rounds;
      chans := !chans + r.channels;
      down := r.down
    end
  done;
  let live, know = live_census () in
  ( {
      rounds = !rounds;
      population = live;
      channels = !chans;
      down = !down;
      trace = main.trace;
      tables =
        [|
          {
            completion_round = main.tables.(0).completion_round;
            informed = know;
            push_tx = !push;
            pull_tx = !pull;
            knows;
          };
        |];
    },
    List.rev !stats )

type async_result = {
  activations : int;
  time : float;
  completion_time : float option;
  informed : int;
  transmissions : int;
  trace : Trace.t option;
}

let run_async ?(fault = Fault.none) ?(collect_trace = false) ?on_round_end
    ?reset ?monitor ?(packed = true) ~rng ~graph ~protocol ~sources () =
  let open Protocol in
  let n = Graph.n graph in
  let informed = Bitset.create n in
  let store = store_of ~packed protocol n in
  List.iter
    (fun s ->
      Bitset.set informed s;
      store.s_init s ~informed:true)
    sources;
  let selector = Selector.make protocol.selector ~capacity:n in
  let scratch = Array.make (max (Selector.fanout protocol.selector) 1) 0 in
  let time = ref 0. in
  let activations = ref 0 in
  let transmissions = ref 0 in
  let informed_count = ref (List.length sources) in
  let completion = ref (if !informed_count = n then Some 0. else None) in
  let horizon = float_of_int protocol.horizon in
  let logical () = int_of_float !time + 1 in
  (* Quiescence is only re-checked occasionally (it costs O(n)); the
     horizon bounds the run regardless. The scan exits at the first
     talkative node, checking last time's witness first. *)
  let witness = ref 0 in
  let all_quiet () =
    let round = logical () in
    let w = !witness in
    if
      w < n && Bitset.get informed w
      && not (store.s_quiescent w ~round)
    then false
    else begin
      let quiet = ref true in
      let v = ref 0 in
      while !quiet && !v < n do
        let u = !v in
        if Bitset.get informed u && not (store.s_quiescent u ~round)
        then begin
          quiet := false;
          witness := u
        end;
        incr v
      done;
      !quiet
    end
  in
  (* Hoisted out of the activation loop so steady-state activations
     allocate nothing; [cur_round] carries the logical round. *)
  let cur_round = ref 1 in
  (* Unit-boundary machinery: a unit of continuous time is the
     asynchronous analogue of a round, so trace rows, [on_round_end]
     and [reset] land at the integer boundaries the run crosses. All of
     it draws nothing, and without hooks or tracing none of it runs. *)
  let trace = if collect_trace then Some (Trace.create ()) else None in
  let unit_boundaries =
    collect_trace
    || Option.is_some on_round_end
    || Option.is_some reset
    || Option.is_some monitor
  in
  let prev_informed = ref !informed_count in
  let unit_done = ref 0 in
  let unit_newly = ref 0 in
  let unit_push = ref 0 and unit_pull = ref 0 and unit_channels = ref 0 in
  let flush_row u =
    match trace with
    | Some t ->
        Trace.add t
          {
            Trace.round = u;
            informed = !informed_count;
            newly = !unit_newly;
            push_tx = !unit_push;
            pull_tx = !unit_pull;
            channels = !unit_channels;
          };
        unit_newly := 0;
        unit_push := 0;
        unit_pull := 0;
        unit_channels := 0
    | None -> ()
  in
  let flush_unit u =
    (* Monitor checks run before the churn hooks so they observe the
       state the protocol produced, not the harness's mutations. *)
    (match monitor with
    | None -> ()
    | Some m ->
        Invariant.tick m;
        let c = Bitset.cardinal informed in
        if c <> !informed_count then
          Invariant.record m ~check:"census" ~round:u
            ~detail:
              (Printf.sprintf "informed: recount %d, kernel %d" c
                 !informed_count);
        if Option.is_none reset && !informed_count < !prev_informed then
          Invariant.record m ~check:"monotone" ~round:u
            ~detail:
              (Printf.sprintf "informed fell %d -> %d" !prev_informed
                 !informed_count);
        prev_informed := !informed_count);
    flush_row u;
    (match on_round_end with Some f -> f u | None -> ());
    match reset with
    | Some f ->
        List.iter
          (fun v ->
            if v >= 0 && v < n then begin
              if Bitset.get informed v then begin
                Bitset.clear informed v;
                decr informed_count
              end;
              store.s_init v ~informed:false
            end)
          (f ())
    | None -> ()
  in
  let advance_units () =
    if unit_boundaries then begin
      let nu = int_of_float !time in
      while !unit_done < nu do
        incr unit_done;
        flush_unit !unit_done
      done
    end
  in
  let deliver ~sender target =
    let round = !cur_round in
    if not (Bitset.get informed target) then begin
      Bitset.set informed target;
      store.s_receive target ~round;
      incr informed_count;
      incr unit_newly;
      if !informed_count = n then completion := Some !time
    end
    else store.s_feedback sender ~round
  in
  let stop = ref false in
  while (not !stop) && !time < horizon do
    (* Superposition of n rate-1 clocks: global rate n. *)
    time := !time +. Dist.exponential rng ~rate:(float_of_int n);
    if !time < horizon then begin
      advance_units ();
      incr activations;
      let v = Rng.int rng n in
      let deg = Graph.degree graph v in
      if deg > 0 then begin
        let round = logical () in
        cur_round := round;
        let k = Selector.select selector ~rng ~node:v ~degree:deg ~out:scratch in
        for i = 0 to k - 1 do
          let w = Graph.neighbor graph v scratch.(i) in
          if Fault.channel_ok fault rng then begin
            incr unit_channels;
            (* push: the activated caller transmits to the callee. *)
            if Bitset.get informed v && (store.s_decide v ~round).push
               && Fault.delivery_ok ~dir:`Push fault rng
            then begin
              incr transmissions;
              incr unit_push;
              deliver ~sender:v w
            end;
            (* pull: the callee answers the caller. *)
            if Bitset.get informed w && (store.s_decide w ~round).pull
               && Fault.delivery_ok ~dir:`Pull fault rng
            then begin
              incr transmissions;
              incr unit_pull;
              deliver ~sender:w v
            end
          end
        done
      end;
      if protocol.stop_at_completion && !informed_count = n then stop := true;
      if !activations mod (4 * n) = 0 && all_quiet () then stop := true
    end
  done;
  (* The run usually ends mid-unit: emit the partial unit's row so the
     trace accounts for every delivery. *)
  if collect_trace && (!time > float_of_int !unit_done || !unit_done = 0)
  then flush_row (!unit_done + 1);
  {
    activations = !activations;
    time = !time;
    completion_time = !completion;
    informed = !informed_count;
    transmissions = !transmissions;
    trace;
  }
