//! TPC-H-shaped database generator with Zipfian skew.
//!
//! Mirrors the 8-table TPC-H schema and the Microsoft skewed-`dbgen`
//! convention used by the paper: a single Zipf parameter Z controls the
//! skew of foreign-key reference patterns and of value columns
//! (quantity, categories). `Z = 0` is uniform (standard TPC-H); the paper
//! evaluates Z ∈ {0, 1, 2}.
//!
//! Row counts are scaled down ~1000× versus real TPC-H: `scale = 10`
//! yields a lineitem of ~60k rows instead of 60M. Workload behaviour that
//! matters for progress estimation (fan-out variance, operator mix,
//! cardinality-estimation error) is driven by the distributions, not the
//! absolute sizes.

use crate::schema::{ColumnMeta, ColumnRole, TableMeta};
use crate::table::{Column, Database, Table};
use crate::zipf::Zipf;
use crate::GenConfig;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn scaled(base: u64, scale: f64) -> usize {
    ((base as f64 * scale).round() as usize).max(1)
}

/// Day-number domain used for all date columns (~7 years, like TPC-H's
/// 1992-01-01 .. 1998-12-31).
pub const DATE_MIN: i64 = 0;
pub const DATE_MAX: i64 = 2556;

/// Generate a TPC-H-shaped [`Database`].
pub fn generate(cfg: &GenConfig) -> Database {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7c67_15c3);
    let mut db = Database::new(&format!("tpch_sf{}_z{}", cfg.scale, cfg.skew));

    let n_supplier = scaled(10, cfg.scale);
    let n_customer = scaled(150, cfg.scale);
    let n_part = scaled(200, cfg.scale);
    let n_orders = scaled(1500, cfg.scale);

    db.add(region());
    db.add(nation(&mut rng));
    db.add(supplier(n_supplier, &mut rng));
    db.add(customer(n_customer, cfg.skew, &mut rng));
    db.add(part(n_part, cfg.skew, &mut rng));
    db.add(partsupp(n_part, n_supplier, cfg.skew, &mut rng));
    let order_dates = {
        let t = orders(n_orders, n_customer, cfg.skew, &mut rng);
        let dates = t.column(t.col("o_orderdate")).to_vec();
        db.add(t);
        dates
    };
    db.add(lineitem(&order_dates, n_part, n_supplier, cfg.skew, &mut rng));
    db
}

fn pk(n: usize) -> Vec<i64> {
    (1..=n as i64).collect()
}

fn region() -> Table {
    let meta =
        TableMeta::new("region", 120, vec![ColumnMeta::new("r_regionkey", ColumnRole::PrimaryKey)]);
    Table::new(meta, vec![Column { name: "r_regionkey".into(), data: pk(5) }])
}

fn nation(rng: &mut StdRng) -> Table {
    let n = 25;
    let meta = TableMeta::new(
        "nation",
        130,
        vec![
            ColumnMeta::new("n_nationkey", ColumnRole::PrimaryKey),
            ColumnMeta::new("n_regionkey", ColumnRole::ForeignKey { table: "region".into() }),
        ],
    );
    let regionkey = (0..n).map(|i| (i as i64 % 5) + 1).collect::<Vec<_>>();
    let _ = rng; // nations are fixed, like the spec
    Table::new(
        meta,
        vec![
            Column { name: "n_nationkey".into(), data: pk(n) },
            Column { name: "n_regionkey".into(), data: regionkey },
        ],
    )
}

fn supplier(n: usize, rng: &mut StdRng) -> Table {
    let meta = TableMeta::new(
        "supplier",
        160,
        vec![
            ColumnMeta::new("s_suppkey", ColumnRole::PrimaryKey),
            ColumnMeta::new("s_nationkey", ColumnRole::ForeignKey { table: "nation".into() }),
            ColumnMeta::new("s_acctbal", ColumnRole::Value { min: -999, max: 9999 }),
        ],
    );
    let nationkey = (0..n).map(|_| rng.random_range(1..=25)).collect();
    let acctbal = (0..n).map(|_| rng.random_range(-999..=9999)).collect();
    Table::new(
        meta,
        vec![
            Column { name: "s_suppkey".into(), data: pk(n) },
            Column { name: "s_nationkey".into(), data: nationkey },
            Column { name: "s_acctbal".into(), data: acctbal },
        ],
    )
}

fn customer(n: usize, skew: f64, rng: &mut StdRng) -> Table {
    let meta = TableMeta::new(
        "customer",
        180,
        vec![
            ColumnMeta::new("c_custkey", ColumnRole::PrimaryKey),
            ColumnMeta::new("c_nationkey", ColumnRole::ForeignKey { table: "nation".into() }),
            ColumnMeta::new("c_mktsegment", ColumnRole::Category { cardinality: 5 }),
            ColumnMeta::new("c_acctbal", ColumnRole::Value { min: -999, max: 9999 }),
        ],
    );
    let seg_dist = Zipf::new(5, skew * 0.5);
    let nationkey = (0..n).map(|_| rng.random_range(1..=25)).collect();
    let mktsegment = (0..n).map(|_| seg_dist.sample(rng) as i64).collect();
    let acctbal = (0..n).map(|_| rng.random_range(-999..=9999)).collect();
    Table::new(
        meta,
        vec![
            Column { name: "c_custkey".into(), data: pk(n) },
            Column { name: "c_nationkey".into(), data: nationkey },
            Column { name: "c_mktsegment".into(), data: mktsegment },
            Column { name: "c_acctbal".into(), data: acctbal },
        ],
    )
}

fn part(n: usize, skew: f64, rng: &mut StdRng) -> Table {
    let meta = TableMeta::new(
        "part",
        155,
        vec![
            ColumnMeta::new("p_partkey", ColumnRole::PrimaryKey),
            ColumnMeta::new("p_brand", ColumnRole::Category { cardinality: 25 }),
            ColumnMeta::new("p_type", ColumnRole::Category { cardinality: 150 }),
            ColumnMeta::new("p_size", ColumnRole::Value { min: 1, max: 50 }),
            ColumnMeta::new("p_retailprice", ColumnRole::Value { min: 900, max: 2100 }),
        ],
    );
    let brand_dist = Zipf::new(25, skew * 0.5);
    let type_dist = Zipf::new(150, skew * 0.5);
    let brand = (0..n).map(|_| brand_dist.sample(rng) as i64).collect();
    let ptype = (0..n).map(|_| type_dist.sample(rng) as i64).collect();
    let size = (0..n).map(|_| rng.random_range(1..=50)).collect();
    // Retail price correlates with part key, like the TPC-H spec formula.
    let price = (1..=n as i64).map(|k| 900 + (k % 1000) + (k / 10) % 200).collect();
    Table::new(
        meta,
        vec![
            Column { name: "p_partkey".into(), data: pk(n) },
            Column { name: "p_brand".into(), data: brand },
            Column { name: "p_type".into(), data: ptype },
            Column { name: "p_size".into(), data: size },
            Column { name: "p_retailprice".into(), data: price },
        ],
    )
}

fn partsupp(n_part: usize, n_supplier: usize, skew: f64, rng: &mut StdRng) -> Table {
    let meta = TableMeta::new(
        "partsupp",
        144,
        vec![
            ColumnMeta::new("ps_partkey", ColumnRole::ForeignKey { table: "part".into() }),
            ColumnMeta::new("ps_suppkey", ColumnRole::ForeignKey { table: "supplier".into() }),
            ColumnMeta::new("ps_availqty", ColumnRole::Value { min: 1, max: 9999 }),
            ColumnMeta::new("ps_supplycost", ColumnRole::Value { min: 1, max: 1000 }),
        ],
    );
    // Four suppliers per part, like TPC-H.
    let n = n_part * 4;
    let supp_dist = Zipf::new(n_supplier as u64, skew);
    let mut partkey = Vec::with_capacity(n);
    let mut suppkey = Vec::with_capacity(n);
    for p in 1..=n_part as i64 {
        for _ in 0..4 {
            partkey.push(p);
            suppkey.push(supp_dist.sample_permuted(rng) as i64);
        }
    }
    let availqty = (0..n).map(|_| rng.random_range(1..=9999)).collect();
    let supplycost = (0..n).map(|_| rng.random_range(1..=1000)).collect();
    Table::new(
        meta,
        vec![
            Column { name: "ps_partkey".into(), data: partkey },
            Column { name: "ps_suppkey".into(), data: suppkey },
            Column { name: "ps_availqty".into(), data: availqty },
            Column { name: "ps_supplycost".into(), data: supplycost },
        ],
    )
}

/// Orders are appended chronologically: `o_orderdate` grows with the row
/// position (plus noise), and the customer base grows over time, so early
/// orders reference only early customers. This positional correlation is
/// what real append-ordered tables exhibit, and it is a key source of
/// progress-estimator failure (work clustered by scan position).
fn orders(n: usize, n_customer: usize, skew: f64, rng: &mut StdRng) -> Table {
    let meta = TableMeta::new(
        "orders",
        121,
        vec![
            ColumnMeta::new("o_orderkey", ColumnRole::PrimaryKey),
            ColumnMeta::new("o_custkey", ColumnRole::ForeignKey { table: "customer".into() }),
            ColumnMeta::new(
                "o_orderdate",
                ColumnRole::Date { min_day: DATE_MIN, max_day: DATE_MAX },
            ),
            ColumnMeta::new("o_totalprice", ColumnRole::Value { min: 800, max: 500_000 }),
            ColumnMeta::new("o_orderpriority", ColumnRole::Category { cardinality: 5 }),
            ColumnMeta::new("o_orderstatus", ColumnRole::Category { cardinality: 3 }),
        ],
    );
    let cust_dist = Zipf::new(n_customer as u64, skew);
    let prio_dist = Zipf::new(5, skew * 0.5);
    let custkey = (0..n)
        .map(|i| {
            // Customer base grows over time: order i can only reference
            // customers acquired so far.
            let frac = (i as f64 + 1.0) / n as f64;
            let cap = ((0.2 + 0.8 * frac) * n_customer as f64).ceil().max(1.0) as i64;
            let raw = cust_dist.sample_permuted(rng) as i64;
            (raw - 1) % cap + 1
        })
        .collect();
    let span = (DATE_MAX - DATE_MIN) as f64;
    let orderdate: Vec<i64> = (0..n)
        .map(|i| {
            let base = DATE_MIN as f64 + span * (i as f64 / n as f64);
            (base + rng.random_range(-120.0f64..120.0))
                .round()
                .clamp(DATE_MIN as f64, DATE_MAX as f64) as i64
        })
        .collect();
    let totalprice = (0..n).map(|_| rng.random_range(800..=500_000)).collect();
    let orderpriority = (0..n).map(|_| prio_dist.sample(rng) as i64).collect();
    let orderstatus = (0..n).map(|_| rng.random_range(1..=3)).collect();
    Table::new(
        meta,
        vec![
            Column { name: "o_orderkey".into(), data: pk(n) },
            Column { name: "o_custkey".into(), data: custkey },
            Column { name: "o_orderdate".into(), data: orderdate },
            Column { name: "o_totalprice".into(), data: totalprice },
            Column { name: "o_orderpriority".into(), data: orderpriority },
            Column { name: "o_orderstatus".into(), data: orderstatus },
        ],
    )
}

fn lineitem(
    order_dates: &[i64],
    n_part: usize,
    n_supplier: usize,
    skew: f64,
    rng: &mut StdRng,
) -> Table {
    let meta = TableMeta::new(
        "lineitem",
        128,
        vec![
            ColumnMeta::new("l_orderkey", ColumnRole::ForeignKey { table: "orders".into() }),
            ColumnMeta::new("l_partkey", ColumnRole::ForeignKey { table: "part".into() }),
            ColumnMeta::new("l_suppkey", ColumnRole::ForeignKey { table: "supplier".into() }),
            ColumnMeta::new("l_quantity", ColumnRole::Value { min: 1, max: 50 }),
            ColumnMeta::new("l_extendedprice", ColumnRole::Value { min: 900, max: 110_000 }),
            ColumnMeta::new("l_discount", ColumnRole::Value { min: 0, max: 10 }),
            ColumnMeta::new(
                "l_shipdate",
                ColumnRole::Date { min_day: DATE_MIN, max_day: DATE_MAX + 122 },
            ),
            ColumnMeta::new(
                "l_receiptdate",
                ColumnRole::Date { min_day: DATE_MIN, max_day: DATE_MAX + 152 },
            ),
            ColumnMeta::new("l_returnflag", ColumnRole::Category { cardinality: 3 }),
            ColumnMeta::new("l_linestatus", ColumnRole::Category { cardinality: 2 }),
            ColumnMeta::new("l_shipmode", ColumnRole::Category { cardinality: 7 }),
        ],
    );
    let part_dist = Zipf::new(n_part as u64, skew);
    let supp_dist = Zipf::new(n_supplier as u64, skew);
    let qty_dist = Zipf::new(50, skew);
    let mode_dist = Zipf::new(7, skew * 0.5);

    let n_orders = order_dates.len();
    let mut orderkey = Vec::new();
    let mut partkey = Vec::new();
    let mut suppkey = Vec::new();
    let mut quantity: Vec<i64> = Vec::new();
    let mut extendedprice = Vec::new();
    let mut discount = Vec::new();
    let mut shipdate = Vec::new();
    let mut receiptdate = Vec::new();
    let mut returnflag = Vec::new();
    let mut linestatus = Vec::new();
    let mut shipmode = Vec::new();

    for (o, &order_date) in order_dates.iter().enumerate().take(n_orders) {
        let lines = rng.random_range(1..=7);
        // Parts are introduced over time: early orders draw from a smaller
        // part catalogue (position-correlated fan-out for part joins).
        let date_frac =
            ((order_date - DATE_MIN) as f64 / (DATE_MAX - DATE_MIN) as f64).clamp(0.0, 1.0);
        let part_cap = ((0.3 + 0.7 * date_frac) * n_part as f64).ceil().max(1.0) as i64;
        for _ in 0..lines {
            orderkey.push(o as i64 + 1);
            let p = (part_dist.sample_permuted(rng) as i64 - 1) % part_cap + 1;
            partkey.push(p);
            suppkey.push(supp_dist.sample_permuted(rng) as i64);
            let q = qty_dist.sample(rng) as i64;
            quantity.push(q);
            // Price correlates with quantity and part (correlation matters:
            // it is a real source of optimizer estimation error).
            extendedprice.push(q * (900 + (p % 1000) + (p / 10) % 200));
            discount.push(rng.random_range(0..=10));
            let sd = order_date + rng.random_range(1i64..=121);
            shipdate.push(sd);
            receiptdate.push(sd + rng.random_range(1i64..=30));
            // Return flag correlates with ship date (older lines returned).
            returnflag.push(if sd < DATE_MAX / 2 { rng.random_range(1..=2) } else { 3 });
            linestatus.push(if sd < DATE_MAX * 3 / 4 { 1 } else { 2 });
            shipmode.push(mode_dist.sample(rng) as i64);
        }
    }

    Table::new(
        meta,
        vec![
            Column { name: "l_orderkey".into(), data: orderkey },
            Column { name: "l_partkey".into(), data: partkey },
            Column { name: "l_suppkey".into(), data: suppkey },
            Column { name: "l_quantity".into(), data: quantity },
            Column { name: "l_extendedprice".into(), data: extendedprice },
            Column { name: "l_discount".into(), data: discount },
            Column { name: "l_shipdate".into(), data: shipdate },
            Column { name: "l_receiptdate".into(), data: receiptdate },
            Column { name: "l_returnflag".into(), data: returnflag },
            Column { name: "l_linestatus".into(), data: linestatus },
            Column { name: "l_shipmode".into(), data: shipmode },
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_all_eight_tables() {
        let db = generate(&GenConfig { scale: 0.5, skew: 1.0, seed: 1 });
        for t in
            ["region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"]
        {
            assert!(db.try_table(t).is_some(), "missing {t}");
        }
    }

    #[test]
    fn row_counts_scale() {
        let small = generate(&GenConfig { scale: 1.0, skew: 0.0, seed: 1 });
        let large = generate(&GenConfig { scale: 4.0, skew: 0.0, seed: 1 });
        assert_eq!(small.table("orders").rows(), 1500);
        assert_eq!(large.table("orders").rows(), 6000);
        let ratio = large.table("lineitem").rows() as f64 / small.table("lineitem").rows() as f64;
        assert!((ratio - 4.0).abs() < 0.3, "lineitem ratio {ratio}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate(&GenConfig { scale: 0.5, skew: 1.0, seed: 9 });
        let b = generate(&GenConfig { scale: 0.5, skew: 1.0, seed: 9 });
        let la = a.table("lineitem");
        let lb = b.table("lineitem");
        assert_eq!(la.rows(), lb.rows());
        assert_eq!(la.column(la.col("l_partkey")), lb.column(lb.col("l_partkey")));
    }

    #[test]
    fn foreign_keys_reference_valid_rows() {
        let db = generate(&GenConfig { scale: 0.5, skew: 2.0, seed: 3 });
        let li = db.table("lineitem");
        let n_orders = db.table("orders").rows() as i64;
        let n_part = db.table("part").rows() as i64;
        for &ok in li.column(li.col("l_orderkey")) {
            assert!(ok >= 1 && ok <= n_orders);
        }
        for &p in li.column(li.col("l_partkey")) {
            assert!(p >= 1 && p <= n_part);
        }
    }

    #[test]
    fn skew_concentrates_part_references() {
        let uniform = generate(&GenConfig { scale: 1.0, skew: 0.0, seed: 3 });
        let skewed = generate(&GenConfig { scale: 1.0, skew: 2.0, seed: 3 });
        let top_share = |db: &Database| {
            let li = db.table("lineitem");
            let col = li.column(li.col("l_partkey"));
            let mut counts = std::collections::HashMap::<i64, usize>::new();
            for &v in col {
                *counts.entry(v).or_default() += 1;
            }
            *counts.values().max().unwrap() as f64 / col.len() as f64
        };
        assert!(top_share(&skewed) > 10.0 * top_share(&uniform));
    }
}
