module Rng = Rumor_rng.Rng
module Dist = Rumor_rng.Dist
module Builder = Rumor_graph.Builder

let sample ~rng ~n ~p =
  if n < 0 then invalid_arg "Gnp.sample: n < 0";
  if p < 0. || p > 1. then invalid_arg "Gnp.sample: p out of range";
  let b = Builder.create ~n () in
  if p > 0. then begin
    if p >= 1. then
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          Builder.add_edge b u v
        done
      done
    else begin
      (* Walk the upper triangle with geometric skips between edges. *)
      let total = n * (n - 1) / 2 in
      let pos = ref (-1) in
      let continue = ref (total > 0) in
      (* [pos] only grows, so the row cursor [u] (whose row starts at
         index [acc]) only moves forward: O(n + m) overall. *)
      let u = ref 0 and acc = ref 0 in
      while !continue do
        let skip = Dist.geometric rng ~p in
        pos := !pos + skip + 1;
        if !pos >= total then continue := false
        else begin
          (* Invert the row-major index of the strict upper triangle. *)
          let idx = !pos in
          while !acc + (n - 1 - !u) <= idx do
            acc := !acc + (n - 1 - !u);
            incr u
          done;
          let v = !u + 1 + (idx - !acc) in
          Builder.add_edge b !u v
        end
      done
    end
  end;
  Builder.build b

let sample_gnm ~rng ~n ~m =
  let total = n * (n - 1) / 2 in
  if m < 0 || m > total then invalid_arg "Gnp.sample_gnm: m out of range";
  let seen = Hashtbl.create (2 * max m 1) in
  let b = Builder.create ~capacity:(max m 1) ~n () in
  let added = ref 0 in
  while !added < m do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then begin
      let key = (min u v * n) + max u v in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        Builder.add_edge b u v;
        incr added
      end
    end
  done;
  Builder.build b
