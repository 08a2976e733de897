module Rng = Treaty_sim.Rng
module Client = Treaty_core.Client
module Types = Treaty_core.Types
module Lock_table = Treaty_core.Lock_table

type config = {
  warehouses : int;
  districts_per_warehouse : int;
  customers_per_district : int;
  items : int;
  remote_item_pct : int;
  remote_customer_pct : int;
}

let config ?(warehouses = 10) () =
  {
    warehouses;
    districts_per_warehouse = 10;
    customers_per_district = 60;
    items = 400;
    remote_item_pct = 1;
    remote_customer_pct = 15;
  }

(* --- schema records (marshalled as values) ----------------------------- *)

type warehouse = { w_name : string; w_tax : float; mutable w_ytd : float }

type district = {
  d_name : string;
  d_tax : float;
  mutable d_ytd : float;
  mutable d_next_o_id : int;
}

type customer = {
  c_last : string;
  c_credit : string;
  c_discount : float;
  mutable c_balance : float;
  mutable c_ytd_payment : float;
  mutable c_payment_cnt : int;
  mutable c_delivery_cnt : int;
}

type item = { i_name : string; i_price : float }

type stock = {
  mutable s_quantity : int;
  mutable s_ytd : int;
  mutable s_order_cnt : int;
  mutable s_remote_cnt : int;
}

type order = {
  o_c_id : int;
  o_entry_d : int;
  mutable o_carrier_id : int option;
  o_ol_cnt : int;
}

type order_line = {
  ol_i_id : int;
  ol_supply_w_id : int;
  ol_quantity : int;
  ol_amount : float;
  mutable ol_delivery_d : int option;
}

let ser v = Marshal.to_string v []
let deser (s : string) : 'a = Marshal.from_string s 0

(* --- key mapping -------------------------------------------------------- *)

let k_warehouse w = Printf.sprintf "w:%d" w
let k_district w d = Printf.sprintf "d:%d:%d" w d
let k_customer w d c = Printf.sprintf "c:%d:%d:%d" w d c
let k_item w i = Printf.sprintf "i:%d:%d" w i
let k_stock w i = Printf.sprintf "s:%d:%d" w i
let k_order w d o = Printf.sprintf "o:%d:%d:%d" w d o
let k_order_line w d o n = Printf.sprintf "ol:%d:%d:%d:%d" w d o n
let k_no_first w d = Printf.sprintf "no_first:%d:%d" w d
let k_customer_last_order w d c = Printf.sprintf "c_last_o:%d:%d:%d" w d c
let k_customer_index w d last = Printf.sprintf "cidx:%d:%d:%s" w d last
let k_history w d c ts = Printf.sprintf "h:%d:%d:%d:%d" w d c ts

(* Every TPC-C key embeds its warehouse right after the first ':'. *)
let warehouse_of_key key =
  match String.index_opt key ':' with
  | None -> 0
  | Some i -> (
      let rest = String.sub key (i + 1) (String.length key - i - 1) in
      match String.index_opt rest ':' with
      | None -> ( try int_of_string rest with _ -> 0)
      | Some j -> ( try int_of_string (String.sub rest 0 j) with _ -> 0))

let route _config ~nodes key = (warehouse_of_key key - 1 + nodes) mod nodes
let home_node config ~nodes ~warehouse =
  route config ~nodes (k_warehouse warehouse)

(* --- load ---------------------------------------------------------------- *)

let last_names =
  [| "BAR"; "OUGHT"; "ABLE"; "PRI"; "PRES"; "ESE"; "ANTI"; "CALLY"; "ATION"; "EING" |]

let last_name_of i =
  (* Standard TPC-C syllable construction. *)
  last_names.(i / 100 mod 10) ^ last_names.(i / 10 mod 10) ^ last_names.(i mod 10)

exception Load_failure of string

let put_exn client txn key value =
  match Client.put client txn key value with
  | Ok () -> ()
  | Error e ->
      raise (Load_failure ("tpcc load put failed: " ^ Types.abort_reason_to_string e))

let load config client rng =
  let commit_batch puts =
    (* Loading is chunked into moderate transactions to bound buffer sizes. *)
    let rec chunks l =
      match l with
      | [] -> ()
      | _ ->
          let batch, rest =
            let rec take n acc = function
              | x :: tl when n > 0 -> take (n - 1) (x :: acc) tl
              | tl -> (List.rev acc, tl)
            in
            take 200 [] l
          in
          (match
             Client.with_txn client (fun txn ->
                 List.iter (fun (k, v) -> put_exn client txn k v) batch;
                 Ok ())
           with
          | Ok () -> ()
          | Error e ->
              raise
                (Load_failure
                   ("tpcc load commit failed: " ^ Types.abort_reason_to_string e)));
          chunks rest
    in
    chunks puts
  in
  for w = 1 to config.warehouses do
    let puts = ref [] in
    let add k v = puts := (k, v) :: !puts in
    add (k_warehouse w)
      (ser { w_name = Printf.sprintf "wh-%d" w; w_tax = 0.05; w_ytd = 300000.0 });
    for i = 1 to config.items do
      add (k_item w i)
        (ser { i_name = Printf.sprintf "item-%d" i; i_price = 1.0 +. float_of_int (i mod 100) });
      add (k_stock w i)
        (ser { s_quantity = 50 + Rng.int rng 50; s_ytd = 0; s_order_cnt = 0; s_remote_cnt = 0 })
    done;
    for d = 1 to config.districts_per_warehouse do
      add (k_district w d)
        (ser { d_name = Printf.sprintf "d-%d" d; d_tax = 0.05; d_ytd = 30000.0; d_next_o_id = 1 });
      add (k_no_first w d) (ser 1);
      let index : (string, int list) Hashtbl.t = Hashtbl.create 16 in
      for c = 1 to config.customers_per_district do
        let c_last = last_name_of (c - 1) in
        add (k_customer w d c)
          (ser
             {
               c_last;
               c_credit = (if Rng.int rng 10 = 0 then "BC" else "GC");
               c_discount = 0.1;
               c_balance = -10.0;
               c_ytd_payment = 10.0;
               c_payment_cnt = 1;
               c_delivery_cnt = 0;
             });
        Hashtbl.replace index c_last
          (c :: Option.value ~default:[] (Hashtbl.find_opt index c_last))
      done;
      Hashtbl.iter (fun last cs -> add (k_customer_index w d last) (ser (List.sort compare cs))) index
    done;
    commit_batch (List.rev !puts)
  done

(* --- transaction profiles ------------------------------------------------ *)

type txn_kind = New_order | Payment | Order_status | Delivery | Stock_level

let kind_name = function
  | New_order -> "NewOrder"
  | Payment -> "Payment"
  | Order_status -> "OrderStatus"
  | Delivery -> "Delivery"
  | Stock_level -> "StockLevel"

let pick_kind rng =
  let r = Rng.int rng 100 in
  if r < 45 then New_order
  else if r < 88 then Payment
  else if r < 92 then Order_status
  else if r < 96 then Delivery
  else Stock_level

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let put_rec client txn key v =
  match Client.put client txn key (ser v) with Ok () -> Ok () | Error e -> Error e

(* Read [keys], each with its lock mode, in one request: the records found,
   by key. *)
let read_batch client txn keys =
  match Client.get_many client txn keys with
  | Error e -> Error e
  | Ok values ->
      let found = Hashtbl.create 32 in
      let rec note keys values =
        match (keys, values) with
        | (key, _) :: keys, value :: values ->
            Option.iter (Hashtbl.replace found key) value;
            note keys values
        | [], _ | _, [] -> ()
      in
      note keys values;
      Ok found

(* A record the load put there: a missing one breaks a load invariant. *)
let required value : ('a, Types.abort_reason) result =
  match value with Some v -> Ok (deser v) | None -> Error Types.Integrity

(* A record a batch read must have found. *)
let found_rec found key = required (Hashtbl.find_opt found key)

let find_rec found key = Option.map deser (Hashtbl.find_opt found key)

(* One record that must exist, read alone with lock [mode]; one key needs
   no [read_batch] table. *)
let get_rec ?(mode = Lock_table.Read) client txn key =
  match Client.get_many client txn [ (key, mode) ] with
  | Ok [ value ] -> required value
  | Ok ([] | _ :: _ :: _) -> Error Types.Participant_failed
  | Error e -> Error e

(* NURand-ish customer selection: skewed towards a hot subset. *)
let pick_customer config rng =
  let n = config.customers_per_district in
  let a = Rng.int rng n and b = Rng.int rng n in
  1 + min a b

let pick_district config rng = 1 + Rng.int rng config.districts_per_warehouse

let rec other_warehouse config rng ~home =
  let w = 1 + Rng.int rng config.warehouses in
  if w = home then other_warehouse config rng ~home else w

type line = { supply_w : int; remote : bool; i_id : int; qty : int }

(* Reads ride together: the warehouse and the district in one request, then
   every line's item and stock in one more. The rows the order writes are
   read with their write lock (Client.get_many), so two NewOrders of one
   district queue for it rather than both holding its read lock. *)
let new_order config client rng ~home txn =
  let d = pick_district config rng in
  let c = pick_customer config rng in
  let ol_cnt = 5 + Rng.int rng 11 in
  (* 1% of NewOrders roll back on an invalid item (spec 2.4.1.4). *)
  let rollback = Rng.int rng 100 = 0 in
  let* head =
    read_batch client txn
      [ (k_warehouse home, Lock_table.Read); (k_district home d, Lock_table.Write) ]
  in
  let* (_w : warehouse) = found_rec head (k_warehouse home) in
  let* (district : district) = found_rec head (k_district home d) in
  let o_id = district.d_next_o_id in
  let* () =
    put_rec client txn (k_district home d) { district with d_next_o_id = o_id + 1 }
  in
  (* Each line's inputs, drawn in the order the lines have always drawn
     them; a rolled-back order stops at its last line's unused item. *)
  let rec draw n acc =
    if n > ol_cnt then (List.rev acc, false)
    else
      let remote = Rng.int rng 100 < config.remote_item_pct && config.warehouses > 1 in
      let supply_w = if remote then other_warehouse config rng ~home else home in
      if rollback && n = ol_cnt then (List.rev acc, true)
      else
        let i_id = 1 + Rng.int rng config.items in
        let qty = 1 + Rng.int rng 10 in
        draw (n + 1) ({ supply_w; remote; i_id; qty } :: acc)
  in
  let lines, rolled_back = draw 1 [] in
  let* rows =
    read_batch client txn
      (List.concat_map
         (fun l ->
           [ (k_item home l.i_id, Lock_table.Read);
             (k_stock l.supply_w l.i_id, Lock_table.Write) ])
         lines)
  in
  let rec order_lines n = function
    | [] -> Ok ()
    | l :: rest ->
        let* (item : item) = found_rec rows (k_item home l.i_id) in
        let key = k_stock l.supply_w l.i_id in
        let* (stock : stock) = found_rec rows key in
        let s_quantity =
          if stock.s_quantity >= l.qty + 10 then stock.s_quantity - l.qty
          else stock.s_quantity - l.qty + 91
        in
        let stock =
          ser
            {
              s_quantity;
              s_ytd = stock.s_ytd + l.qty;
              s_order_cnt = stock.s_order_cnt + 1;
              s_remote_cnt = (stock.s_remote_cnt + if l.remote then 1 else 0);
            }
        in
        (* A later line of the same stock row reads this update, as it
           read its own write when each line made its own request. *)
        Hashtbl.replace rows key stock;
        let* () = Client.put client txn key stock in
        let* () =
          put_rec client txn
            (k_order_line home d o_id n)
            {
              ol_i_id = l.i_id;
              ol_supply_w_id = l.supply_w;
              ol_quantity = l.qty;
              ol_amount = float_of_int l.qty *. item.i_price;
              ol_delivery_d = None;
            }
        in
        order_lines (n + 1) rest
  in
  let* () = order_lines 1 lines in
  if rolled_back then Error Types.Rolled_back
  else
    let* () =
      put_rec client txn (k_order home d o_id)
        { o_c_id = c; o_entry_d = 0; o_carrier_id = None; o_ol_cnt = ol_cnt }
    in
    put_rec client txn (k_customer_last_order home d c) o_id

let payment config client rng ~home txn =
  let d = pick_district config rng in
  let amount = 1.0 +. Rng.float rng 4999.0 in
  (* 15% of payments are for a customer of a remote warehouse (2.5.1.2). *)
  let c_w, c_d =
    if Rng.int rng 100 < config.remote_customer_pct && config.warehouses > 1 then
      let w = other_warehouse config rng ~home in
      (w, pick_district config rng)
    else (home, d)
  in
  let* head =
    read_batch client txn
      [ (k_warehouse home, Lock_table.Write); (k_district home d, Lock_table.Write) ]
  in
  let* (w : warehouse) = found_rec head (k_warehouse home) in
  let* (district : district) = found_rec head (k_district home d) in
  let* () = put_rec client txn (k_warehouse home) { w with w_ytd = w.w_ytd +. amount } in
  let* () =
    put_rec client txn (k_district home d)
      { district with d_ytd = district.d_ytd +. amount }
  in
  (* 60% select customer by last name through the index (2.5.1.2). *)
  let* c_id =
    if Rng.int rng 100 < 60 then begin
      let last = last_name_of (Rng.int rng config.customers_per_district) in
      match Client.get client txn (k_customer_index c_w c_d last) with
      | Ok (Some v) -> (
          let ids : int list = deser v in
          match ids with
          | [] -> Ok (pick_customer config rng)
          | _ -> Ok (List.nth ids (List.length ids / 2)) (* median, per spec *))
      | Ok None -> Ok (pick_customer config rng)
      | Error e -> Error e
    end
    else Ok (pick_customer config rng)
  in
  let key = k_customer c_w c_d c_id in
  let* (cust : customer) = get_rec ~mode:Lock_table.Write client txn key in
  let* () =
    put_rec client txn key
      {
        cust with
        c_balance = cust.c_balance -. amount;
        c_ytd_payment = cust.c_ytd_payment +. amount;
        c_payment_cnt = cust.c_payment_cnt + 1;
      }
  in
  put_rec client txn
    (k_history home d c_id (Rng.int rng max_int))
    (amount, home, d, c_w, c_d)

let order_status config client rng ~home txn =
  let d = pick_district config rng in
  let c = pick_customer config rng in
  let* found =
    read_batch client txn
      [ (k_customer home d c, Lock_table.Read);
        (k_customer_last_order home d c, Lock_table.Read) ]
  in
  let* (_cust : customer) = found_rec found (k_customer home d c) in
  match find_rec found (k_customer_last_order home d c) with
  | None -> Ok () (* no order yet *)
  | Some o_id ->
      let* (order : order) = get_rec client txn (k_order home d o_id) in
      let* _lines =
        Client.get_many client txn
          (List.init order.o_ol_cnt (fun i ->
               (k_order_line home d o_id (i + 1), Lock_table.Read)))
      in
      Ok ()

(* Every district's cursor and row in one request, then the orders to
   deliver, their lines and their customers, a request each. Every row it
   writes is read with its write lock. *)
let delivery config client rng ~home txn =
  let carrier = 1 + Rng.int rng 10 in
  let districts = List.init config.districts_per_warehouse (fun i -> i + 1) in
  let* heads =
    read_batch client txn
      (List.concat_map
         (fun d ->
           [ (k_no_first home d, Lock_table.Write); (k_district home d, Lock_table.Read) ])
         districts)
  in
  (* Each district's oldest undelivered order, if it has one. *)
  let* pending =
    map_result
      (fun d ->
        let* (first : int) = found_rec heads (k_no_first home d) in
        let* (district : district) = found_rec heads (k_district home d) in
        Ok (if first >= district.d_next_o_id then None else Some (d, first)))
      districts
  in
  let pending = List.filter_map Fun.id pending in
  let* order_rows =
    read_batch client txn
      (List.map (fun (d, o_id) -> (k_order home d o_id, Lock_table.Write)) pending)
  in
  let* orders =
    map_result
      (fun (d, o_id) ->
        let* (order : order) = found_rec order_rows (k_order home d o_id) in
        Ok (d, o_id, order))
      pending
  in
  let line_keys (d, o_id, order) =
    List.init order.o_ol_cnt (fun i -> k_order_line home d o_id (i + 1))
  in
  let customer_key (d, _, order) = k_customer home d order.o_c_id in
  let* line_rows =
    read_batch client txn
      (List.concat_map
         (fun o -> List.map (fun key -> (key, Lock_table.Write)) (line_keys o))
         orders)
  in
  let* customer_rows =
    read_batch client txn
      (List.map (fun o -> (customer_key o, Lock_table.Write)) orders)
  in
  let deliver ((d, o_id, order) as o) =
    let* () =
      put_rec client txn (k_order home d o_id) { order with o_carrier_id = Some carrier }
    in
    let* total =
      List.fold_left
        (fun total key ->
          let* total = total in
          let* (ol : order_line) = found_rec line_rows key in
          let* () = put_rec client txn key { ol with ol_delivery_d = Some 1 } in
          Ok (total +. ol.ol_amount))
        (Ok 0.0) (line_keys o)
    in
    let* (cust : customer) = found_rec customer_rows (customer_key o) in
    let* () =
      put_rec client txn (customer_key o)
        {
          cust with
          c_balance = cust.c_balance +. total;
          c_delivery_cnt = cust.c_delivery_cnt + 1;
        }
    in
    put_rec client txn (k_no_first home d) (o_id + 1)
  in
  let* _delivered = map_result deliver orders in
  Ok ()

(* The district, then its last 20 orders in one request, their lines in
   one more and the lines' distinct items' stock in a last one. *)
let stock_level config client rng ~home txn =
  let d = pick_district config rng in
  let threshold = 10 + Rng.int rng 11 in
  let* (district : district) = get_rec client txn (k_district home d) in
  let next = district.d_next_o_id in
  let lo = max 1 (next - 20) in
  let o_ids = List.init (max 0 (next - lo)) (fun i -> lo + i) in
  let* order_rows =
    read_batch client txn (List.map (fun o -> (k_order home d o, Lock_table.Read)) o_ids)
  in
  let line_keys =
    List.concat_map
      (fun o ->
        match find_rec order_rows (k_order home d o) with
        | None -> []
        | Some (order : order) ->
            List.init order.o_ol_cnt (fun i -> k_order_line home d o (i + 1)))
      o_ids
  in
  let* line_rows =
    read_batch client txn (List.map (fun key -> (key, Lock_table.Read)) line_keys)
  in
  let seen = Hashtbl.create 64 in
  let items =
    List.filter_map
      (fun key ->
        match find_rec line_rows key with
        | None -> None
        | Some (ol : order_line) ->
            if Hashtbl.mem seen ol.ol_i_id then None
            else begin
              Hashtbl.replace seen ol.ol_i_id ();
              Some ol.ol_i_id
            end)
      line_keys
  in
  let* stock_rows =
    read_batch client txn (List.map (fun i -> (k_stock home i, Lock_table.Read)) items)
  in
  let _low_stock =
    List.length
      (List.filter
         (fun i ->
           match find_rec stock_rows (k_stock home i) with
           | Some (stock : stock) -> stock.s_quantity < threshold
           | None -> false)
         items)
  in
  Ok ()

let run config client rng ~nodes ~home kind =
  let coord = 1 + home_node config ~nodes ~warehouse:home in
  Client.with_txn client ~coord (fun txn ->
      match kind with
      | New_order -> new_order config client rng ~home txn
      | Payment -> payment config client rng ~home txn
      | Order_status -> order_status config client rng ~home txn
      | Delivery -> delivery config client rng ~home txn
      | Stock_level -> stock_level config client rng ~home txn)

module Check = struct
  let district_orders config client ~warehouse =
    match
      Client.with_txn client (fun txn ->
          let ok = ref true in
          let rec go d =
            if d > config.districts_per_warehouse then Ok !ok
            else
              let* district =
                (get_rec client txn (k_district warehouse d) : (district, _) result)
              in
              let top = district.d_next_o_id - 1 in
              (if top >= 1 then
                 match Client.get client txn (k_order warehouse d top) with
                 | Ok (Some _) -> ()
                 | _ -> ok := false);
              (match Client.get client txn (k_order warehouse d (top + 1)) with
              | Ok (Some _) -> ok := false
              | _ -> ());
              go (d + 1)
          in
          go 1)
    with
    | Ok b -> b
    | Error _ -> false

  let warehouse_ytd config client ~warehouse =
    let districts = List.init config.districts_per_warehouse (fun i -> i + 1) in
    match
      Client.with_txn client (fun txn ->
          let* rows =
            read_batch client txn
              ((k_warehouse warehouse, Lock_table.Read)
              :: List.map (fun d -> (k_district warehouse d, Lock_table.Read)) districts)
          in
          let* (w : warehouse) = found_rec rows (k_warehouse warehouse) in
          let* ytds =
            map_result
              (fun d ->
                let* (district : district) = found_rec rows (k_district warehouse d) in
                Ok district.d_ytd)
              districts
          in
          let sum = List.fold_left ( +. ) 0.0 ytds in
          (* The sums add the same payments in different orders. *)
          Ok (Float.abs (w.w_ytd -. sum) <= 1e-9 *. Float.abs w.w_ytd))
    with
    | Ok b -> b
    | Error _ -> false
end
