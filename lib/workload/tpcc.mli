(** TPC-C over Treaty's KV API.

    The full benchmark: warehouse/district/customer/item/stock/order/
    order-line/new-order/history schema mapped onto keys, and all five
    transaction profiles with the standard mix (NewOrder 45%, Payment 43%,
    OrderStatus 4%, Delivery 4%, StockLevel 4%), including the 1% NewOrder
    rollback and the remote-warehouse probabilities that make a fraction of
    transactions distributed.

    Key mapping (records are marshalled OCaml values):
    - ["w:W"], ["d:W:D"], ["c:W:D:C"], ["s:W:I"], ["o:W:D:O"],
      ["ol:W:D:O:N"], ["no_first:W:D"] (oldest undelivered order cursor),
      ["c_last_o:W:D:C"] (customer's latest order), ["cidx:W:D:NAME"]
      (customer last-name index), ["h:..."] (history).
    - The read-only item catalog is replicated per warehouse as ["i:W:I"],
      modelling the replicated catalog real deployments use — otherwise
      every NewOrder would cross shards just to price items.

    Sharding is by warehouse ({!route}), so single-home transactions stay on
    one node and remote-warehouse accesses drive 2PC, as in the paper's
    distributed runs. Scale knobs default to simulation-sized tables; the
    contention shape (10 warehouses = heavy W-W conflicts on districts) is
    what matters for the figures, and that is governed by [warehouses]. *)

type config = {
  warehouses : int;
  districts_per_warehouse : int;  (** 10 per spec. *)
  customers_per_district : int;  (** 3000 per spec; scaled down by default. *)
  items : int;  (** 100k per spec; scaled down by default. *)
  remote_item_pct : int;  (** NewOrder lines from a remote warehouse (1%). *)
  remote_customer_pct : int;  (** Payment for a remote customer (15%). *)
}

val config : ?warehouses:int -> unit -> config
(** Defaults: 10 warehouses, 10 districts, 60 customers/district, 400
    items. *)

val route : config -> nodes:int -> string -> int
(** Shard map: warehouse number -> node index; pass to
    [Cluster.create ~route]. *)

val home_node : config -> nodes:int -> warehouse:int -> int
(** Node index of a warehouse (to pin a client's coordinator). *)

exception Load_failure of string
(** Raised by {!load} when a populate transaction aborts — the database is
    not in a usable state and the harness should stop. *)

val load : config -> Treaty_core.Client.t -> Treaty_sim.Rng.t -> unit
(** Populate the database (run once, before measuring). Uses one loader
    client; idempotent. Raises {!Load_failure} if a load transaction
    aborts. *)

type txn_kind = New_order | Payment | Order_status | Delivery | Stock_level
(** Each profile reads everything it can in one request
    ({!Treaty_core.Client.get_many}), and reads a row it will write with
    its write lock. It draws its inputs from the RNG in the order a
    profile that made one request per row did, so a seed gives the same
    inputs, and it reads and writes the same rows. *)

val kind_name : txn_kind -> string

val pick_kind : Treaty_sim.Rng.t -> txn_kind
(** Standard mix. *)

val run :
  config ->
  Treaty_core.Client.t ->
  Treaty_sim.Rng.t ->
  nodes:int ->
  home:int ->
  txn_kind ->
  unit Treaty_core.Types.txn_result
(** Execute one transaction of the given profile from a terminal homed at
    warehouse [home]. *)

val terminal :
  config ->
  nodes:int ->
  Treaty_core.Client.t ->
  client_index:int ->
  Treaty_sim.Rng.t ->
  unit Treaty_core.Types.txn_result
(** A closed-loop terminal for {!Driver.run_clients}: client [i] is homed
    at warehouse [1 + i mod warehouses] and runs the standard mix
    ({!pick_kind}). *)

(** Consistency conditions (TPC-C §3.3.2), checked by the tests. *)
module Check : sig
  val district_orders :
    config -> Treaty_core.Client.t -> warehouse:int -> bool
  (** C-1/C-2 style: for every district, [d_next_o_id - 1] equals the
      highest order id present. *)

  val warehouse_ytd :
    config -> Treaty_core.Client.t -> warehouse:int -> bool
  (** Consistency condition 1: the warehouse's [W_YTD] equals the sum of
      its districts' [D_YTD], within float rounding. The load sets
      300000 = 10 × 30000, and every Payment adds its amount to both. *)
end
