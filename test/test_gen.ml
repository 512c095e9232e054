(* Tests for the rumor_gen library: configuration model, random regular
   graphs, G(n,p), classic families, products and preferential
   attachment. *)

module Rng = Rumor_rng.Rng
module Graph = Rumor_graph.Graph
module Traversal = Rumor_graph.Traversal
module Config_model = Rumor_gen.Config_model
module Regular = Rumor_gen.Regular
module Gnp = Rumor_gen.Gnp
module Classic = Rumor_gen.Classic
module Product = Rumor_gen.Product
module Preferential = Rumor_gen.Preferential

let degrees g = Array.init (Graph.n g) (Graph.degree g)

(* --- Configuration model --- *)

let test_pair_degrees () =
  let rng = Rng.create 1 in
  let deg = [| 3; 1; 2; 4; 2 |] in
  let g = Config_model.pair ~rng ~deg in
  Alcotest.(check (array int)) "degrees preserved" deg (degrees g);
  Alcotest.(check bool) "invariant" true (Graph.invariant g)

let test_pair_odd_sum () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "odd sum"
    (Invalid_argument "Config_model.pair: odd degree sum") (fun () ->
      ignore (Config_model.pair ~rng ~deg:[| 1; 1; 1 |]))

let test_pair_negative () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "negative degree"
    (Invalid_argument "Config_model.pair: negative degree") (fun () ->
      ignore (Config_model.pair ~rng ~deg:[| 2; -1; 1 |]))

let test_pair_simple_is_simple () =
  let rng = Rng.create 2 in
  match Config_model.pair_simple ~rng ~deg:(Array.make 20 4) ~max_attempts:500 with
  | None -> Alcotest.fail "no simple pairing found in 500 attempts"
  | Some g ->
      Alcotest.(check bool) "simple" true (Graph.is_simple g);
      Alcotest.(check (option int)) "4-regular" (Some 4) (Graph.is_regular g)

let test_pair_simple_exhaust () =
  (* Degree sequence [2] forces a self-loop: simplicity is impossible. *)
  let rng = Rng.create 3 in
  Alcotest.(check bool) "impossible sequence gives None" true
    (Config_model.pair_simple ~rng ~deg:[| 2 |] ~max_attempts:20 = None)

let test_erase_simplifies () =
  let rng = Rng.create 4 in
  (* Many parallel edges expected: 2 nodes of degree 6. *)
  let g = Config_model.pair ~rng ~deg:[| 6; 6 |] in
  let e = Config_model.erase g in
  Alcotest.(check bool) "erased is simple" true (Graph.is_simple e);
  Alcotest.(check bool) "erased has fewer or equal edges" true
    (Graph.m e <= Graph.m g)

let test_erase_identity_on_simple () =
  let g = Classic.cycle 10 in
  let e = Config_model.erase g in
  Alcotest.(check int) "same m" (Graph.m g) (Graph.m e);
  Alcotest.(check (array int)) "same degrees" (degrees g) (degrees e)

(* --- Random regular --- *)

let test_feasible () =
  Alcotest.(check bool) "n=10 d=3 ok" true (Regular.feasible ~n:10 ~d:3);
  Alcotest.(check bool) "odd product infeasible" false (Regular.feasible ~n:5 ~d:3);
  Alcotest.(check bool) "d >= n infeasible" false (Regular.feasible ~n:4 ~d:4);
  Alcotest.(check bool) "d=0 feasible" true (Regular.feasible ~n:4 ~d:0)

let test_sample_pairing_regular () =
  let rng = Rng.create 5 in
  let g = Regular.sample ~rng ~n:100 ~d:6 Regular.Pairing in
  Alcotest.(check (option int)) "6-regular" (Some 6) (Graph.is_regular g);
  Alcotest.(check bool) "invariant" true (Graph.invariant g)

let test_sample_simple_variant () =
  let rng = Rng.create 6 in
  let g = Regular.sample ~rng ~n:60 ~d:4 (Regular.Simple { max_attempts = 1000 }) in
  Alcotest.(check bool) "simple" true (Graph.is_simple g);
  Alcotest.(check (option int)) "4-regular" (Some 4) (Graph.is_regular g)

let test_sample_erased_variant () =
  let rng = Rng.create 7 in
  let g = Regular.sample ~rng ~n:200 ~d:8 Regular.Erased in
  Alcotest.(check bool) "simple" true (Graph.is_simple g);
  Alcotest.(check bool) "max degree <= d" true (Graph.max_degree g <= 8);
  (* Erasure removes O(d^2) edges in expectation: degrees stay close. *)
  Alcotest.(check bool) "min degree >= d - 3" true (Graph.min_degree g >= 5)

let test_sample_infeasible () =
  let rng = Rng.create 8 in
  Alcotest.check_raises "infeasible"
    (Invalid_argument "Regular.sample: infeasible (n, d)") (fun () ->
      ignore (Regular.sample ~rng ~n:5 ~d:3 Regular.Pairing))

let test_sample_connected () =
  let rng = Rng.create 9 in
  for _ = 1 to 5 do
    let g = Regular.sample_connected ~rng ~n:64 ~d:3 Regular.Pairing in
    Alcotest.(check bool) "connected" true (Traversal.is_connected g)
  done

let test_sample_many_seeds_regular () =
  for seed = 1 to 20 do
    let rng = Rng.create seed in
    let g = Regular.sample ~rng ~n:50 ~d:4 Regular.Pairing in
    Alcotest.(check (option int)) "always 4-regular" (Some 4) (Graph.is_regular g)
  done

(* --- Gnp --- *)

let test_gnp_extremes () =
  let rng = Rng.create 10 in
  let empty = Gnp.sample ~rng ~n:20 ~p:0. in
  Alcotest.(check int) "p=0 no edges" 0 (Graph.m empty);
  let full = Gnp.sample ~rng ~n:20 ~p:1. in
  Alcotest.(check int) "p=1 complete" (20 * 19 / 2) (Graph.m full);
  Alcotest.(check bool) "complete simple" true (Graph.is_simple full)

let test_gnp_edge_count () =
  let rng = Rng.create 11 in
  let n = 300 and p = 0.05 in
  let g = Gnp.sample ~rng ~n ~p in
  let expect = p *. float_of_int (n * (n - 1) / 2) in
  let sd = sqrt (expect *. (1. -. p)) in
  let m = float_of_int (Graph.m g) in
  Alcotest.(check bool)
    (Printf.sprintf "m=%.0f within 5 sd of %.0f" m expect)
    true
    (abs_float (m -. expect) < 5. *. sd);
  Alcotest.(check bool) "simple" true (Graph.is_simple g)

(* The sampler walks the upper triangle with a forward-only row
   cursor; it must pick exactly the pairs a from-scratch inversion of
   each skip position picks, on the same stream. *)
let test_gnp_matches_reference () =
  let reference ~rng ~n ~p =
    let total = n * (n - 1) / 2 in
    let pos = ref (-1) and edges = ref [] in
    let continue = ref true in
    while !continue do
      pos := !pos + Rumor_rng.Dist.geometric rng ~p + 1;
      if !pos >= total then continue := false
      else begin
        let u = ref 0 and acc = ref 0 in
        while !acc + (n - 1 - !u) <= !pos do
          acc := !acc + (n - 1 - !u);
          incr u
        done;
        edges := (!u, !u + 1 + (!pos - !acc)) :: !edges
      end
    done;
    Graph.of_edges ~n (List.rev !edges)
  in
  List.iter
    (fun (n, p, seed) ->
      let g = Gnp.sample ~rng:(Rng.create seed) ~n ~p in
      let r = reference ~rng:(Rng.create seed) ~n ~p in
      let edges g =
        let l = ref [] in
        Graph.iter_edges g (fun u v -> l := (u, v) :: !l);
        List.sort compare !l
      in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "n=%d p=%g" n p)
        (edges r) (edges g))
    [ (2, 0.5, 1); (50, 0.3, 2); (300, 0.02, 3); (1000, 0.004, 4) ]

let test_gnp_invalid () =
  let rng = Rng.create 12 in
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Gnp.sample: p out of range") (fun () ->
      ignore (Gnp.sample ~rng ~n:5 ~p:1.5))

let test_gnm_exact () =
  let rng = Rng.create 13 in
  let g = Gnp.sample_gnm ~rng ~n:40 ~m:100 in
  Alcotest.(check int) "exact edges" 100 (Graph.m g);
  Alcotest.(check bool) "simple" true (Graph.is_simple g)

let test_gnm_full () =
  let rng = Rng.create 14 in
  let g = Gnp.sample_gnm ~rng ~n:8 ~m:28 in
  Alcotest.(check int) "K8" 28 (Graph.m g)

let test_gnm_invalid () =
  let rng = Rng.create 15 in
  Alcotest.check_raises "too many edges"
    (Invalid_argument "Gnp.sample_gnm: m out of range") (fun () ->
      ignore (Gnp.sample_gnm ~rng ~n:4 ~m:7))

(* --- Classic families --- *)

let test_complete () =
  let g = Classic.complete 7 in
  Alcotest.(check int) "m" 21 (Graph.m g);
  Alcotest.(check (option int)) "regular" (Some 6) (Graph.is_regular g);
  Alcotest.(check bool) "simple" true (Graph.is_simple g)

let test_cycle () =
  let g = Classic.cycle 9 in
  Alcotest.(check int) "m" 9 (Graph.m g);
  Alcotest.(check (option int)) "2-regular" (Some 2) (Graph.is_regular g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  Alcotest.check_raises "too small" (Invalid_argument "Classic.cycle: n < 3")
    (fun () -> ignore (Classic.cycle 2))

let test_path_star () =
  let p = Classic.path 5 in
  Alcotest.(check int) "path m" 4 (Graph.m p);
  Alcotest.(check int) "path end degree" 1 (Graph.degree p 0);
  let s = Classic.star 6 in
  Alcotest.(check int) "star hub" 5 (Graph.degree s 0);
  Alcotest.(check int) "star leaf" 1 (Graph.degree s 3)

let test_hypercube () =
  let g = Classic.hypercube 4 in
  Alcotest.(check int) "n" 16 (Graph.n g);
  Alcotest.(check (option int)) "4-regular" (Some 4) (Graph.is_regular g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  (* Neighbours differ in exactly one bit. *)
  Graph.iter_edges g (fun u v ->
      let x = u lxor v in
      Alcotest.(check bool) "one-bit flip" true (x land (x - 1) = 0 && x <> 0));
  Alcotest.(check int) "diameter = dimension" 4 (Traversal.eccentricity g 0)

let test_torus () =
  let g = Classic.torus2d 4 5 in
  Alcotest.(check int) "n" 20 (Graph.n g);
  Alcotest.(check (option int)) "4-regular" (Some 4) (Graph.is_regular g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  Alcotest.(check bool) "simple" true (Graph.is_simple g)

let test_circulant () =
  let g = Classic.circulant 10 [ 1; 2 ] in
  Alcotest.(check (option int)) "4-regular" (Some 4) (Graph.is_regular g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  (* Antipodal offset halves the per-offset edge count. *)
  let h = Classic.circulant 10 [ 5 ] in
  Alcotest.(check int) "antipodal m" 5 (Graph.m h);
  Alcotest.(check (option int)) "1-regular" (Some 1) (Graph.is_regular h);
  Alcotest.check_raises "offset range"
    (Invalid_argument "Classic.circulant: offset range") (fun () ->
      ignore (Classic.circulant 10 [ 6 ]))

(* --- Products --- *)

let test_product_k2_k2 () =
  (* K2 x K2 is the 4-cycle. *)
  let g = Product.cartesian (Classic.complete 2) (Classic.complete 2) in
  Alcotest.(check int) "n" 4 (Graph.n g);
  Alcotest.(check int) "m" 4 (Graph.m g);
  Alcotest.(check (option int)) "2-regular" (Some 2) (Graph.is_regular g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  Alcotest.(check int) "girth-4: no triangles" 0
    (Rumor_graph.Metrics.triangles_at g 0)

let test_product_regularity () =
  let rng = Rng.create 16 in
  let g = Regular.sample_connected ~rng ~n:20 ~d:3 Regular.Pairing in
  let p = Product.with_clique g ~k:5 in
  Alcotest.(check int) "n multiplied" 100 (Graph.n p);
  Alcotest.(check (option int)) "(3+4)-regular" (Some 7) (Graph.is_regular p);
  Alcotest.(check bool) "connected" true (Traversal.is_connected p)

let test_product_edge_count () =
  let g = Classic.cycle 6 and h = Classic.path 3 in
  let p = Product.cartesian g h in
  (* m(g x h) = m(g)*n(h) + m(h)*n(g) *)
  Alcotest.(check int) "edge count" ((6 * 3) + (2 * 6)) (Graph.m p)

(* --- Preferential attachment --- *)

let test_preferential_structure () =
  let rng = Rng.create 17 in
  let g = Preferential.sample ~rng ~n:200 ~m:3 in
  Alcotest.(check int) "n" 200 (Graph.n g);
  Alcotest.(check int) "m total" ((3 * 4 / 2) + (196 * 3)) (Graph.m g);
  Alcotest.(check bool) "min degree >= m" true (Graph.min_degree g >= 3);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g)

let test_preferential_hubs () =
  let rng = Rng.create 18 in
  let g = Preferential.sample ~rng ~n:500 ~m:2 in
  (* Scale-free graphs grow hubs: max degree far above the minimum. *)
  Alcotest.(check bool) "has hubs" true (Graph.max_degree g > 15)

let test_preferential_invalid () =
  let rng = Rng.create 19 in
  Alcotest.check_raises "m < 1" (Invalid_argument "Preferential.sample: m < 1")
    (fun () -> ignore (Preferential.sample ~rng ~n:10 ~m:0));
  Alcotest.check_raises "n too small"
    (Invalid_argument "Preferential.sample: n < m + 1") (fun () ->
      ignore (Preferential.sample ~rng ~n:3 ~m:3))

(* --- qcheck properties --- *)

let prop_pairing_preserves_degrees =
  QCheck.Test.make ~count:100 ~name:"configuration model hits its degree sequence"
    QCheck.(pair small_int (list_of_size Gen.(int_range 2 20) (int_range 0 6)))
    (fun (seed, degs) ->
      let deg = Array.of_list degs in
      let total = Array.fold_left ( + ) 0 deg in
      (* Make the sum even by bumping the first entry if needed. *)
      if total mod 2 = 1 then deg.(0) <- deg.(0) + 1;
      let rng = Rng.create seed in
      let g = Config_model.pair ~rng ~deg in
      degrees g = deg)

let prop_regular_samples_are_regular =
  QCheck.Test.make ~count:60 ~name:"G(n,d) pairing sample is d-regular"
    QCheck.(triple small_int (int_range 4 60) (int_range 1 6))
    (fun (seed, n, d) ->
      QCheck.assume (Regular.feasible ~n ~d);
      let rng = Rng.create seed in
      Graph.is_regular (Regular.sample ~rng ~n ~d Regular.Pairing) = Some d)

let prop_gnm_edge_exact =
  QCheck.Test.make ~count:60 ~name:"G(n,m) has exactly m edges"
    QCheck.(triple small_int (int_range 3 30) (int_range 0 30))
    (fun (seed, n, m) ->
      QCheck.assume (m <= n * (n - 1) / 2);
      let rng = Rng.create seed in
      let g = Gnp.sample_gnm ~rng ~n ~m in
      Graph.m g = m && Graph.is_simple g)

let prop_product_degree_addition =
  QCheck.Test.make ~count:40 ~name:"cartesian product adds degrees"
    QCheck.(pair (int_range 3 8) (int_range 2 5))
    (fun (nc, k) ->
      let g = Classic.cycle nc and h = Classic.complete k in
      Graph.is_regular (Product.cartesian g h) = Some (2 + k - 1))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_pairing_preserves_degrees;
      prop_regular_samples_are_regular;
      prop_gnm_edge_exact;
      prop_product_degree_addition;
    ]

let () =
  Alcotest.run "rumor_gen"
    [
      ( "config_model",
        [
          Alcotest.test_case "pair degrees" `Quick test_pair_degrees;
          Alcotest.test_case "odd sum" `Quick test_pair_odd_sum;
          Alcotest.test_case "negative degree" `Quick test_pair_negative;
          Alcotest.test_case "pair_simple" `Quick test_pair_simple_is_simple;
          Alcotest.test_case "pair_simple exhausts" `Quick test_pair_simple_exhaust;
          Alcotest.test_case "erase simplifies" `Quick test_erase_simplifies;
          Alcotest.test_case "erase on simple" `Quick test_erase_identity_on_simple;
        ] );
      ( "regular",
        [
          Alcotest.test_case "feasible" `Quick test_feasible;
          Alcotest.test_case "pairing regular" `Quick test_sample_pairing_regular;
          Alcotest.test_case "simple variant" `Quick test_sample_simple_variant;
          Alcotest.test_case "erased variant" `Quick test_sample_erased_variant;
          Alcotest.test_case "infeasible" `Quick test_sample_infeasible;
          Alcotest.test_case "connected" `Quick test_sample_connected;
          Alcotest.test_case "many seeds" `Quick test_sample_many_seeds_regular;
        ] );
      ( "gnp",
        [
          Alcotest.test_case "extremes" `Quick test_gnp_extremes;
          Alcotest.test_case "edge count" `Quick test_gnp_edge_count;
          Alcotest.test_case "invalid" `Quick test_gnp_invalid;
          Alcotest.test_case "matches the reference walk" `Quick
            test_gnp_matches_reference;
          Alcotest.test_case "gnm exact" `Quick test_gnm_exact;
          Alcotest.test_case "gnm full" `Quick test_gnm_full;
          Alcotest.test_case "gnm invalid" `Quick test_gnm_invalid;
        ] );
      ( "classic",
        [
          Alcotest.test_case "complete" `Quick test_complete;
          Alcotest.test_case "cycle" `Quick test_cycle;
          Alcotest.test_case "path & star" `Quick test_path_star;
          Alcotest.test_case "hypercube" `Quick test_hypercube;
          Alcotest.test_case "torus" `Quick test_torus;
          Alcotest.test_case "circulant" `Quick test_circulant;
        ] );
      ( "product",
        [
          Alcotest.test_case "K2 x K2" `Quick test_product_k2_k2;
          Alcotest.test_case "regularity" `Quick test_product_regularity;
          Alcotest.test_case "edge count" `Quick test_product_edge_count;
        ] );
      ( "preferential",
        [
          Alcotest.test_case "structure" `Quick test_preferential_structure;
          Alcotest.test_case "hubs" `Quick test_preferential_hubs;
          Alcotest.test_case "invalid" `Quick test_preferential_invalid;
        ] );
      ("properties", qcheck_cases);
    ]
