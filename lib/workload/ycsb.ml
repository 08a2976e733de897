module Rng = Treaty_sim.Rng
module Client = Treaty_core.Client
module Types = Treaty_core.Types

type config = {
  read_fraction : float;
  ops_per_txn : int;
  value_size : int;
  n_keys : int;
  distribution : [ `Uniform | `Zipfian of float ];
}

let default =
  {
    read_fraction = 0.5;
    ops_per_txn = 10;
    value_size = 1000;
    n_keys = 10_000;
    distribution = `Uniform;
  }

type op = Read of string | Update of string * string

let key_of_index i = Printf.sprintf "user%08d" i

let load_keys config = List.init config.n_keys key_of_index

let make_value config rng =
  String.init config.value_size (fun _ -> Char.chr (97 + Rng.int rng 26))

type generator = { config : config; rng : Rng.t; dist : Zipf.t }

let generator config rng =
  let dist =
    match config.distribution with
    | `Uniform -> Zipf.uniform ~n:config.n_keys
    | `Zipfian theta -> Zipf.create ~theta ~n:config.n_keys ()
  in
  { config; rng; dist }

let next_txn g =
  List.init g.config.ops_per_txn (fun _ ->
      let key = key_of_index (Zipf.sample g.dist g.rng) in
      if Rng.float g.rng 1.0 < g.config.read_fraction then Read key
      else Update (key, make_value g.config g.rng))

let run_txn ?(ro_fast_path = false) client coord ops =
  let read_keys =
    if ro_fast_path then
      List.fold_left
        (fun acc op ->
          match (acc, op) with
          | Some ks, Read k -> Some (k :: ks)
          | _, Update _ | None, _ -> None)
        (Some []) ops
    else None
  in
  match read_keys with
  | Some keys ->
      (* Client-declared read-only transaction: one zero-RPC snapshot round
         per owning shard instead of begin + per-op + commit rounds. *)
      (match Client.read_only client (List.rev keys) with
      | Ok _ -> Ok ()
      | Error e -> Error e)
  | None ->
  Client.with_txn client ?coord (fun txn ->
      let rec go = function
        | [] -> Ok ()
        | Read key :: rest -> (
            match Client.get client txn key with
            | Ok _ -> go rest
            | Error e -> Error e)
        | Update (key, value) :: rest -> (
            match Client.put client txn key value with
            | Ok () -> go rest
            | Error e -> Error e)
      in
      go ops)
