(* Table I: recovery overheads w.r.t. native recovery.

   The paper constructs logs of 800k entries of ~100 B each (69 MiB plain,
   91 MiB encrypted — the worst case for Treaty: many syscalls, many
   decryption calls) and replays them. Expected: Treaty w/o Enc ~1.5x,
   Treaty (w/ Enc) ~2.0x slower than native replay. *)

module Sim = Treaty_sim.Sim
module Enclave = Treaty_tee.Enclave
module Storage = Treaty_storage

let entries () = if !Common.full_mode then 800_000 else 120_000
let entry_size = 100

type variant = { name : string; mode : Enclave.mode; auth : bool; enc : bool }

let variants =
  [
    { name = "Native recovery"; mode = Enclave.Native; auth = false; enc = false };
    { name = "Treaty w/o Enc"; mode = Enclave.Scone; auth = true; enc = false };
    { name = "Treaty (w/ Enc)"; mode = Enclave.Scone; auth = true; enc = true };
  ]

let measure v =
  let sim = Sim.create () in
  let cost = Treaty_sim.Costmodel.default in
  let enclave =
    Enclave.create sim ~mode:v.mode ~cost ~cores:8 ~node_id:1 ~code_identity:"rec"
  in
  let sec =
    Storage.Sec.create ~enclave ~auth:v.auth
      ~enc:(if v.enc then Some (Treaty_crypto.Aead.key_of_string "k") else None)
      ()
  in
  let ssd = Storage.Ssd.create sim cost in
  let n = entries () in
  let replay_time = ref 0 and log_bytes = ref 0 in
  Sim.run sim (fun () ->
      let log = Storage.Log_auth.create ssd sec ~name:"RECLOG" in
      let payload = String.make entry_size 'e' in
      for _ = 1 to n do
        ignore (Storage.Log_auth.append log (fun b -> Buffer.add_string b payload))
      done;
      log_bytes := Storage.Log_auth.bytes_on_disk log;
      (* Fresh handle = a rebooted node replaying from scratch. *)
      let log2 = Storage.Log_auth.create ssd sec ~name:"RECLOG" in
      let t0 = Sim.now sim in
      (match Storage.Log_auth.replay log2 () with
      | Ok (replayed, dropped) ->
          assert (List.length replayed = n && dropped = 0)
      | Error e ->
          failwith (Format.asprintf "%a" Storage.Log_auth.pp_replay_error e));
      replay_time := Sim.now sim - t0);
  (!replay_time, !log_bytes)

let run () =
  Common.section "Table I: recovery overheads w.r.t. native recovery";
  Printf.printf "  %d entries of %dB each\n" (entries ()) entry_size;
  let results = List.map (fun v -> (v, measure v)) variants in
  let baseline = float_of_int (fst (snd (List.hd results))) in
  List.iter
    (fun (v, (t, bytes)) ->
      Printf.printf "  %-18s log %6.1f MiB   replay %8.2f ms   slowdown %.2fx\n%!"
        v.name
        (float_of_int bytes /. 1048576.0)
        (float_of_int t /. 1e6)
        (float_of_int t /. baseline))
    results;
  Common.expected "Treaty w/o Enc ~1.5x, Treaty (w/ Enc) ~2.0x; logs ~69/91 MiB at 800k entries"
