(* Benchmark harness: one entry per paper table/figure plus ablations and
   micro-benchmarks. `dune exec bench/main.exe` runs everything in quick
   mode; `-- --full` uses the paper's client counts and windows; `-- --only
   fig5,tab1` selects specific experiments. *)

let benches =
  [
    ("fig4", "2PC protocol in isolation (Figure 4)", Bench_fig4.run);
    ("fig5", "distributed YCSB (Figure 5)", Bench_fig5.run);
    ("fig3", "distributed TPC-C 10W/100W (Figure 3)", Bench_fig3.run);
    ("fig6", "single-node pessimistic (Figure 6)", Bench_fig67.run_fig6);
    ("fig7", "single-node optimistic (Figure 7)", Bench_fig67.run_fig7);
    ("fig8", "network library (Figure 8)", Bench_fig8.run);
    ("tab1", "recovery overheads (Table I)", Bench_tab1.run);
    ("abl", "design ablations", Bench_ablation.run);
    ("micro", "micro-benchmarks (Bechamel)", Bench_micro.run);
    ("read", "authenticated read path (Bloom + block cache)", Bench_read_path.run);
    ("cc", "concurrency-control ablation (2PL vs OCC + ro fast path)", Bench_cc.run);
    ("scale", "10/30/100-node million-key scale sweep", Bench_scale.run);
  ]

let run_selected only full =
  Common.full_mode := full;
  let selected =
    match only with
    | [] -> benches
    | ids ->
        List.filter (fun (id, _, _) -> List.mem id ids) benches
  in
  if selected = [] then begin
    Printf.eprintf "unknown bench id; available: %s\n"
      (String.concat ", " (List.map (fun (id, _, _) -> id) benches));
    exit 1
  end;
  Printf.printf "Treaty benchmark harness (%s mode)\n"
    (if full then "full" else "quick");
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (id, _, run) ->
      let s = Unix.gettimeofday () in
      run ();
      Printf.printf "  [%s done in %.1fs wall]\n%!" id (Unix.gettimeofday () -. s))
    selected;
  Printf.printf "\nall done in %.1fs wall\n" (Unix.gettimeofday () -. t0)

open Cmdliner

let only =
  let doc = "Comma-separated bench ids (fig3,fig4,fig5,fig6,fig7,fig8,tab1,abl,micro,read,cc)." in
  Arg.(value & opt (list string) [] & info [ "only" ] ~doc)

let full =
  let doc = "Run with the paper's client counts and measurement windows." in
  Arg.(value & flag & info [ "full" ] ~doc)

let cmd =
  let doc = "Regenerate the Treaty paper's tables and figures" in
  Cmd.v
    (Cmd.info "treaty-bench" ~doc)
    Term.(const run_selected $ only $ full)

let () = exit (Cmd.eval cmd)
