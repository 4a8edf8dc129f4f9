#include "gen.h"

#include <algorithm>

namespace e2e {

std::vector<std::string> TableDdl() {
  return {
      "CREATE TABLE customers (cid INT64, region INT64, tier INT64)",
      "CREATE TABLE orders (oid INT64, cid INT64, amt INT64, status INT64)",
      "CREATE TABLE items (iid INT64, oid INT64, qty INT64, price INT64)",
  };
}

std::vector<std::string> ViewDdl() {
  return {
      // Section 4: ~1% of order updates are relevant; the rest are
      // screened out, and item/customer transactions skip the view.
      "CREATE MATERIALIZED VIEW v_sel AS SELECT oid, amt FROM orders "
      "WHERE amt > 9900",
      // Section 5.2: projection with duplicate counters.
      "CREATE MATERIALIZED VIEW v_proj AS SELECT cid, status FROM orders",
      // Section 5.3: 2-way join.
      "CREATE MATERIALIZED VIEW v_join2 AS SELECT orders.oid, orders.amt, "
      "customers.region FROM orders, customers "
      "WHERE orders.cid = customers.cid",
      // 3-way join with an x op y + c predicate.
      "CREATE MATERIALIZED VIEW v_join3 AS SELECT items.iid, orders.oid, "
      "customers.region FROM items, orders, customers "
      "WHERE items.oid = orders.oid AND orders.cid = customers.cid "
      "AND items.price > orders.amt + 2000",
      // Hash-partitioned join, maintained one job per partition.
      "CREATE MATERIALIZED VIEW v_part PARTITIONS 4 AS SELECT items.iid, "
      "items.qty, orders.cid FROM items, orders WHERE items.oid = orders.oid",
      // Section 6: deferred snapshot join, brought current by REFRESH VIEW.
      "CREATE MATERIALIZED VIEW v_def DEFERRED AS SELECT orders.oid, "
      "orders.status, customers.tier FROM orders, customers "
      "WHERE orders.cid = customers.cid AND orders.status < 4",
  };
}

const std::vector<std::string>& ViewNames() {
  static const std::vector<std::string> kNames = {
      "v_sel", "v_proj", "v_join2", "v_join3", "v_part", "v_def"};
  return kNames;
}

void KeySet::Add(int64_t k) {
  if (pos_[k] >= 0) return;
  pos_[k] = static_cast<int64_t>(keys_.size());
  keys_.push_back(k);
}

void KeySet::Remove(int64_t k) {
  int64_t p = pos_[k];
  if (p < 0) return;
  int64_t last = keys_.back();
  keys_[p] = last;
  pos_[last] = p;
  keys_.pop_back();
  pos_[k] = -1;
}

Generator::Table::Table(std::string n, int a, int64_t space)
    : name(std::move(n)), arity(a), live(space), free(space), rows(space) {
  for (int64_t k = 0; k < space; ++k) free.Add(k);
}

Generator::Generator(Sizes sizes, uint64_t seed)
    : sizes_(sizes),
      rng_(seed),
      customers_("customers", 3, sizes.customers),
      orders_("orders", 4, 2 * sizes.orders),
      items_("items", 4, 2 * sizes.items) {
  auto fill = [this](Table& t, int64_t n) {
    while (t.live.size() < n) {
      int64_t k = t.free.Pick(rng_);
      t.rows[k] = RandomRow(t, k);
      t.free.Remove(k);
      t.live.Add(k);
    }
  };
  fill(customers_, sizes.customers);
  fill(orders_, sizes.orders);
  fill(items_, sizes.items);
}

Generator::Row Generator::RandomRow(Table& t, int64_t key) {
  if (&t == &customers_) {
    return {key, rng_.Below(16), rng_.Below(4), 0};
  }
  if (&t == &orders_) {
    return {key, rng_.Below(sizes_.customers), rng_.Below(10000),
            rng_.Below(8)};
  }
  // Items reference the whole order key space, so about half join a live
  // order whatever the churn.
  return {key, rng_.Below(2 * sizes_.orders), rng_.Between(1, 10),
          rng_.Below(10000)};
}

namespace {

std::string RowSql(const Generator::Row& r, int arity) {
  std::string s = "(";
  for (int i = 0; i < arity; ++i) {
    if (i > 0) s += ",";
    s += std::to_string(r[i]);
  }
  return s + ")";
}

mview::Tuple RowTuple(const Generator::Row& r, int arity) {
  std::vector<mview::Value> v;
  for (int i = 0; i < arity; ++i) v.emplace_back(r[i]);
  return mview::Tuple(std::move(v));
}

const char* KeyColumn(const std::string& table) {
  if (table == "customers") return "cid";
  if (table == "orders") return "oid";
  return "iid";
}

}  // namespace

std::vector<std::string> Generator::LoadStatements() const {
  std::vector<std::string> out;
  for (const Table* t : {&customers_, &orders_, &items_}) {
    std::vector<int64_t> keys = t->live.keys();
    std::sort(keys.begin(), keys.end());
    for (size_t i = 0; i < keys.size(); i += 500) {
      std::string sql = "INSERT INTO " + t->name + " VALUES ";
      for (size_t j = i; j < std::min(keys.size(), i + 500); ++j) {
        if (j > i) sql += ",";
        sql += RowSql(t->rows[keys[j]], t->arity);
      }
      out.push_back(std::move(sql));
    }
  }
  return out;
}

void Generator::Insert(Table& t, int n, WriteOp* op, std::string* sql) {
  *sql = "INSERT INTO " + t.name + " VALUES ";
  for (int i = 0; i < n; ++i) {
    int64_t k = t.free.Pick(rng_);
    t.rows[k] = RandomRow(t, k);
    t.free.Remove(k);
    t.live.Add(k);
    if (i > 0) *sql += ",";
    *sql += RowSql(t.rows[k], t.arity);
    op->txn.Insert(t.name, RowTuple(t.rows[k], t.arity));
    op->cells += t.arity;
  }
}

void Generator::Delete(Table& t, int n, WriteOp* op, std::string* sql) {
  *sql = "DELETE FROM " + t.name + " WHERE ";
  for (int i = 0; i < n; ++i) {
    int64_t k = t.live.Pick(rng_);
    t.live.Remove(k);
    t.free.Add(k);
    if (i > 0) *sql += " OR ";
    *sql += std::string(KeyColumn(t.name)) + " = " + std::to_string(k);
    op->txn.Delete(t.name, RowTuple(t.rows[k], t.arity));
    op->cells += t.arity;
  }
}

void Generator::UpdateCustomer(WriteOp* op, std::string* sql) {
  int64_t k = customers_.live.Pick(rng_);
  Row old = customers_.rows[k];
  Row now = old;
  now[1] = (old[1] + 1 + rng_.Below(15)) % 16;
  customers_.rows[k] = now;
  *sql = "UPDATE customers SET region = " + std::to_string(now[1]) +
         " WHERE cid = " + std::to_string(k);
  op->txn.Update("customers", RowTuple(old, 3), RowTuple(now, 3));
  op->cells += 2 * 3;
}

int Generator::Drift(const Table& t, int64_t target) const {
  // +1 per 1% above target: deletes outnumber inserts until it is back.
  return static_cast<int>((t.live.size() - target) * 100 / target);
}

WriteOp Generator::NextWrite(double txn_share) {
  WriteOp op;
  std::string sql;
  if (rng_.Chance(txn_share)) {
    op.stmts.push_back("BEGIN");
    // Deletes first: a staged DELETE matches committed rows only, so it
    // must not target rows this transaction inserts.
    int n_orders = static_cast<int>(rng_.Between(3, 6));
    int n_items = static_cast<int>(rng_.Between(6, 12));
    int d_orders = std::clamp(n_orders + Drift(orders_, sizes_.orders), 1, 8);
    int d_items = std::clamp(n_items + Drift(items_, sizes_.items), 1, 16);
    Delete(orders_, d_orders, &op, &sql);
    op.stmts.push_back(sql);
    Delete(items_, d_items, &op, &sql);
    op.stmts.push_back(sql);
    Insert(orders_, n_orders, &op, &sql);
    op.stmts.push_back(sql);
    Insert(items_, n_items, &op, &sql);
    op.stmts.push_back(sql);
    UpdateCustomer(&op, &sql);
    op.stmts.push_back(sql);
    op.stmts.push_back("COMMIT");
    return op;
  }
  Table& t = rng_.Chance(0.5) ? orders_ : items_;
  const int64_t target = &t == &orders_ ? sizes_.orders : sizes_.items;
  const double p_insert =
      std::clamp(0.5 - 0.05 * Drift(t, target), 0.1, 0.9);
  const int n = static_cast<int>(rng_.Between(1, 5));
  if (rng_.Chance(p_insert)) {
    Insert(t, n, &op, &sql);
  } else {
    Delete(t, n, &op, &sql);
  }
  op.stmts.push_back(sql);
  return op;
}

std::string Generator::Read(Rng& rng, int64_t i) const {
  if (i % 4 != 3) {
    return "SELECT * FROM v_join2 WHERE oid = " +
           std::to_string(rng.Below(2 * sizes_.orders));
  }
  return "SELECT * FROM v_sel";
}

std::string Generator::AdhocJoin() const {
  return "SELECT customers.region, items.qty FROM items, orders, customers "
         "WHERE items.oid = orders.oid AND orders.cid = customers.cid";
}

std::vector<Generator::Row> Generator::LiveRows(
    const std::string& table) const {
  const Table& t = table == "customers" ? customers_
                   : table == "orders"  ? orders_
                                        : items_;
  std::vector<Row> out;
  for (int64_t k : t.live.keys()) out.push_back(t.rows[k]);
  return out;
}

int64_t Generator::LiveCells() const {
  return customers_.live.size() * 3 + orders_.live.size() * 4 +
         items_.live.size() * 4;
}

}  // namespace e2e
