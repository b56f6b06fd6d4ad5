//! Synthetic stand-ins for the paper's two proprietary real-world
//! decision-support databases.
//!
//! * **Real-1** (paper: 9 GB sales/reporting DB, 477 queries, 5–8-way joins
//!   and nested sub-queries) — [`generate_real1`] builds an 8-table sales
//!   schema with *correlated* attributes (product price bands by category,
//!   deal size by industry, amount = units × price across a join), because
//!   correlation is the dominant source of real-world cardinality
//!   estimation error.
//! * **Real-2** (paper: 12 GB DB, 632 queries, ~12 joins per query) —
//!   [`generate_real2`] builds a wide snowflake: one fact table, six
//!   dimensions, six sub-dimensions, so a typical query can join 12+
//!   tables.

use crate::schema::{ColumnMeta, ColumnRole, TableMeta};
use crate::table::{Column, Database, Table};
use crate::zipf::Zipf;
use crate::GenConfig;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn pk(n: usize) -> Vec<i64> {
    (1..=n as i64).collect()
}

/// Generate the Real-1 style sales database.
pub fn generate_real1(cfg: &GenConfig) -> Database {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5a1e_5a1e);
    let mut db = Database::new(&format!("real1_sf{}", cfg.scale));

    let n_acct = ((120.0 * cfg.scale) as usize).max(20);
    let n_prod = ((80.0 * cfg.scale) as usize).max(10);
    let n_terr = 30;
    let n_emp = ((40.0 * cfg.scale) as usize).max(8);
    let n_dates = 1096;
    let n_sales = ((4000.0 * cfg.scale) as usize).max(200);
    let n_targets = ((160.0 * cfg.scale) as usize).max(16);

    // territories(t_id, t_region)
    {
        let meta = TableMeta::new(
            "territories",
            96,
            vec![
                ColumnMeta::new("t_id", ColumnRole::PrimaryKey),
                ColumnMeta::new("t_region", ColumnRole::Category { cardinality: 15 }),
            ],
        );
        let region = (0..n_terr).map(|i| (i as i64 % 15) + 1).collect();
        db.add(Table::new(
            meta,
            vec![
                Column { name: "t_id".into(), data: pk(n_terr) },
                Column { name: "t_region".into(), data: region },
            ],
        ));
    }

    // accounts(a_id, a_region, a_industry, a_size): size correlates with industry.
    {
        let meta = TableMeta::new(
            "accounts",
            210,
            vec![
                ColumnMeta::new("a_id", ColumnRole::PrimaryKey),
                ColumnMeta::new("a_region", ColumnRole::Category { cardinality: 15 }),
                ColumnMeta::new("a_industry", ColumnRole::Category { cardinality: 30 }),
                ColumnMeta::new("a_size", ColumnRole::Value { min: 1, max: 1000 }),
            ],
        );
        let industry_dist = Zipf::new(30, 1.0);
        let region: Vec<i64> = (0..n_acct).map(|_| rng.random_range(1..=15)).collect();
        let industry: Vec<i64> =
            (0..n_acct).map(|_| industry_dist.sample(&mut rng) as i64).collect();
        let size =
            industry.iter().map(|&i| (i * 30 + rng.random_range(1i64..=100)).min(1000)).collect();
        db.add(Table::new(
            meta,
            vec![
                Column { name: "a_id".into(), data: pk(n_acct) },
                Column { name: "a_region".into(), data: region },
                Column { name: "a_industry".into(), data: industry },
                Column { name: "a_size".into(), data: size },
            ],
        ));
    }

    // products(p_id, p_category, p_price): price band by category.
    let prod_price: Vec<i64> = {
        let meta = TableMeta::new(
            "products",
            190,
            vec![
                ColumnMeta::new("p_id", ColumnRole::PrimaryKey),
                ColumnMeta::new("p_category", ColumnRole::Category { cardinality: 12 }),
                ColumnMeta::new("p_price", ColumnRole::Value { min: 5, max: 1300 }),
            ],
        );
        let cat_dist = Zipf::new(12, 0.8);
        let category: Vec<i64> = (0..n_prod).map(|_| cat_dist.sample(&mut rng) as i64).collect();
        let price: Vec<i64> =
            category.iter().map(|&c| c * 100 + rng.random_range(5i64..=100)).collect();
        db.add(Table::new(
            meta,
            vec![
                Column { name: "p_id".into(), data: pk(n_prod) },
                Column { name: "p_category".into(), data: category },
                Column { name: "p_price".into(), data: price.clone() },
            ],
        ));
        price
    };

    // employees(e_id, e_territory, e_quota)
    {
        let meta = TableMeta::new(
            "employees",
            150,
            vec![
                ColumnMeta::new("e_id", ColumnRole::PrimaryKey),
                ColumnMeta::new(
                    "e_territory",
                    ColumnRole::ForeignKey { table: "territories".into() },
                ),
                ColumnMeta::new("e_quota", ColumnRole::Value { min: 100, max: 10_000 }),
            ],
        );
        let terr = (0..n_emp).map(|_| rng.random_range(1..=n_terr as i64)).collect();
        let quota = (0..n_emp).map(|_| rng.random_range(100..=10_000)).collect();
        db.add(Table::new(
            meta,
            vec![
                Column { name: "e_id".into(), data: pk(n_emp) },
                Column { name: "e_territory".into(), data: terr },
                Column { name: "e_quota".into(), data: quota },
            ],
        ));
    }

    // dates(d_id, d_year, d_quarter, d_month)
    {
        let meta = TableMeta::new(
            "dates",
            80,
            vec![
                ColumnMeta::new("d_id", ColumnRole::PrimaryKey),
                ColumnMeta::new("d_year", ColumnRole::Value { min: 2008, max: 2010 }),
                ColumnMeta::new("d_quarter", ColumnRole::Value { min: 1, max: 4 }),
                ColumnMeta::new("d_month", ColumnRole::Value { min: 1, max: 12 }),
            ],
        );
        let mut year = Vec::new();
        let mut quarter = Vec::new();
        let mut month = Vec::new();
        for d in 0..n_dates as i64 {
            year.push(2008 + d / 366);
            let m = (d % 366) / 31 + 1;
            month.push(m.min(12));
            quarter.push((m.min(12) - 1) / 3 + 1);
        }
        db.add(Table::new(
            meta,
            vec![
                Column { name: "d_id".into(), data: pk(n_dates) },
                Column { name: "d_year".into(), data: year },
                Column { name: "d_quarter".into(), data: quarter },
                Column { name: "d_month".into(), data: month },
            ],
        ));
    }

    // sales fact: amount = units * product price (cross-join correlation).
    let n_sales_actual;
    {
        let meta = TableMeta::new(
            "sales",
            140,
            vec![
                ColumnMeta::new("s_id", ColumnRole::PrimaryKey),
                ColumnMeta::new("s_account", ColumnRole::ForeignKey { table: "accounts".into() }),
                ColumnMeta::new("s_product", ColumnRole::ForeignKey { table: "products".into() }),
                ColumnMeta::new("s_employee", ColumnRole::ForeignKey { table: "employees".into() }),
                ColumnMeta::new("s_date", ColumnRole::ForeignKey { table: "dates".into() }),
                ColumnMeta::new("s_units", ColumnRole::Value { min: 1, max: 40 }),
                ColumnMeta::new("s_amount", ColumnRole::Value { min: 5, max: 52_000 }),
            ],
        );
        let acct_dist = Zipf::new(n_acct as u64, cfg.skew);
        let prod_dist = Zipf::new(n_prod as u64, cfg.skew);
        let unit_dist = Zipf::new(40, cfg.skew.min(1.5));
        let mut account = Vec::with_capacity(n_sales);
        let mut product = Vec::with_capacity(n_sales);
        let mut employee = Vec::with_capacity(n_sales);
        let mut date = Vec::with_capacity(n_sales);
        let mut units: Vec<i64> = Vec::with_capacity(n_sales);
        let mut amount = Vec::with_capacity(n_sales);
        for i in 0..n_sales {
            // Account base grows over time; sales are appended by date.
            let frac = (i as f64 + 1.0) / n_sales as f64;
            let acct_cap = ((0.25 + 0.75 * frac) * n_acct as f64).ceil().max(1.0) as i64;
            account.push((acct_dist.sample_permuted(&mut rng) as i64 - 1) % acct_cap + 1);
            let p = prod_dist.sample_permuted(&mut rng) as i64;
            product.push(p);
            employee.push(rng.random_range(1..=n_emp as i64));
            let base = n_dates as f64 * frac;
            date.push(
                (base + rng.random_range(-90.0f64..90.0)).round().clamp(1.0, n_dates as f64) as i64
            );
            let u = unit_dist.sample(&mut rng) as i64;
            units.push(u);
            amount.push(u * prod_price[(p - 1) as usize]);
        }
        n_sales_actual = account.len();
        db.add(Table::new(
            meta,
            vec![
                Column { name: "s_id".into(), data: pk(n_sales) },
                Column { name: "s_account".into(), data: account },
                Column { name: "s_product".into(), data: product },
                Column { name: "s_employee".into(), data: employee },
                Column { name: "s_date".into(), data: date },
                Column { name: "s_units".into(), data: units },
                Column { name: "s_amount".into(), data: amount },
            ],
        ));
    }

    // shipments: ~3/4 of sales ship (semi-join-shaped relationship).
    {
        let meta = TableMeta::new(
            "shipments",
            110,
            vec![
                ColumnMeta::new("sh_sale", ColumnRole::ForeignKey { table: "sales".into() }),
                ColumnMeta::new("sh_carrier", ColumnRole::Category { cardinality: 8 }),
                ColumnMeta::new("sh_delay", ColumnRole::Value { min: 0, max: 60 }),
            ],
        );
        let mut sale = Vec::new();
        let mut carrier = Vec::new();
        let mut delay = Vec::new();
        let carrier_dist = Zipf::new(8, 0.9);
        for s in 1..=n_sales_actual as i64 {
            if rng.random_range(0..4) < 3 {
                sale.push(s);
                carrier.push(carrier_dist.sample(&mut rng) as i64);
                delay.push(rng.random_range(0..=60));
            }
        }
        db.add(Table::new(
            meta,
            vec![
                Column { name: "sh_sale".into(), data: sale },
                Column { name: "sh_carrier".into(), data: carrier },
                Column { name: "sh_delay".into(), data: delay },
            ],
        ));
    }

    // targets(tg_employee, tg_quarter, tg_amount)
    {
        let meta = TableMeta::new(
            "targets",
            72,
            vec![
                ColumnMeta::new(
                    "tg_employee",
                    ColumnRole::ForeignKey { table: "employees".into() },
                ),
                ColumnMeta::new("tg_quarter", ColumnRole::Value { min: 1, max: 12 }),
                ColumnMeta::new("tg_amount", ColumnRole::Value { min: 100, max: 20_000 }),
            ],
        );
        let employee = (0..n_targets).map(|i| (i % n_emp) as i64 + 1).collect();
        let quarter = (0..n_targets).map(|_| rng.random_range(1..=12)).collect();
        let amount = (0..n_targets).map(|_| rng.random_range(100..=20_000)).collect();
        db.add(Table::new(
            meta,
            vec![
                Column { name: "tg_employee".into(), data: employee },
                Column { name: "tg_quarter".into(), data: quarter },
                Column { name: "tg_amount".into(), data: amount },
            ],
        ));
    }

    db
}

/// Names of Real-2's dimension / sub-dimension pairs: the fact table
/// `events` has FK `e_dim{i}` → `dim{i}.d_id`, and each `dim{i}` has
/// FK `d_sub` → `subdim{i}.sd_id`.
pub const REAL2_DIMS: usize = 6;

/// Generate the Real-2 style snowflake database (1 fact + 6 dims + 6
/// sub-dims = 13 tables).
pub fn generate_real2(cfg: &GenConfig) -> Database {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x2ea1_2222);
    let mut db = Database::new(&format!("real2_sf{}", cfg.scale));

    let n_fact = ((5000.0 * cfg.scale) as usize).max(300);
    let dim_sizes: Vec<usize> =
        (0..REAL2_DIMS).map(|i| (((40 + i * 70) as f64 * cfg.scale) as usize).max(8)).collect();
    let sub_sizes: Vec<usize> = (0..REAL2_DIMS).map(|i| 8 + i * 7).collect();

    for i in 0..REAL2_DIMS {
        // subdim{i}(sd_id, sd_attr)
        let sub_name = format!("subdim{i}");
        let meta = TableMeta::new(
            &sub_name,
            88,
            vec![
                ColumnMeta::new("sd_id", ColumnRole::PrimaryKey),
                ColumnMeta::new("sd_attr", ColumnRole::Category { cardinality: 6 }),
            ],
        );
        let attr = (0..sub_sizes[i]).map(|_| rng.random_range(1..=6)).collect();
        db.add(Table::new(
            meta,
            vec![
                Column { name: "sd_id".into(), data: pk(sub_sizes[i]) },
                Column { name: "sd_attr".into(), data: attr },
            ],
        ));

        // dim{i}(d_id, d_sub, d_attr, d_weight)
        let dim_name = format!("dim{i}");
        let meta = TableMeta::new(
            &dim_name,
            130,
            vec![
                ColumnMeta::new("d_id", ColumnRole::PrimaryKey),
                ColumnMeta::new("d_sub", ColumnRole::ForeignKey { table: sub_name.clone() }),
                ColumnMeta::new("d_attr", ColumnRole::Category { cardinality: 10 }),
                ColumnMeta::new("d_weight", ColumnRole::Value { min: 1, max: 500 }),
            ],
        );
        let sub_dist = Zipf::new(sub_sizes[i] as u64, 0.8);
        let sub = (0..dim_sizes[i]).map(|_| sub_dist.sample(&mut rng) as i64).collect();
        let attr: Vec<i64> = (0..dim_sizes[i]).map(|_| rng.random_range(1..=10)).collect();
        // Weight correlates with attr.
        let weight = attr.iter().map(|&a| a * 40 + rng.random_range(1i64..=100)).collect();
        db.add(Table::new(
            meta,
            vec![
                Column { name: "d_id".into(), data: pk(dim_sizes[i]) },
                Column { name: "d_sub".into(), data: sub },
                Column { name: "d_attr".into(), data: attr },
                Column { name: "d_weight".into(), data: weight },
            ],
        ));
    }

    // events fact table.
    let mut cols = vec![ColumnMeta::new("e_id", ColumnRole::PrimaryKey)];
    for i in 0..REAL2_DIMS {
        cols.push(ColumnMeta::new(
            &format!("e_dim{i}"),
            ColumnRole::ForeignKey { table: format!("dim{i}") },
        ));
    }
    cols.push(ColumnMeta::new("e_metric1", ColumnRole::Value { min: 1, max: 10_000 }));
    cols.push(ColumnMeta::new("e_metric2", ColumnRole::Value { min: 1, max: 1000 }));
    cols.push(ColumnMeta::new("e_kind", ColumnRole::Category { cardinality: 9 }));
    let meta = TableMeta::new("events", 152, cols);

    let mut data: Vec<Vec<i64>> = vec![pk(n_fact)];
    for &size in dim_sizes.iter().take(REAL2_DIMS) {
        let dist = Zipf::new(size as u64, cfg.skew);
        data.push((0..n_fact).map(|_| dist.sample_permuted(&mut rng) as i64).collect());
    }
    let kind_dist = Zipf::new(9, 1.0);
    let m1: Vec<i64> = (0..n_fact).map(|_| rng.random_range(1..=10_000)).collect();
    let m2 = m1.iter().map(|&v| (v / 10).max(1)).collect(); // correlated metrics
    data.push(m1);
    data.push(m2);
    data.push((0..n_fact).map(|_| kind_dist.sample(&mut rng) as i64).collect());

    let names: Vec<String> = meta.columns.iter().map(|c| c.name.clone()).collect();
    db.add(Table::new(
        meta,
        names.into_iter().zip(data).map(|(name, data)| Column { name, data }).collect(),
    ));
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    const CFG: GenConfig = GenConfig { scale: 1.0, skew: 1.2, seed: 42 };

    #[test]
    fn real1_has_eight_tables() {
        let db = generate_real1(&CFG);
        assert_eq!(db.tables().count(), 8);
        assert!(db.table("sales").rows() >= 200);
    }

    #[test]
    fn real1_amount_correlates_with_price() {
        let db = generate_real1(&CFG);
        let sales = db.table("sales");
        let products = db.table("products");
        let s_prod = sales.column(sales.col("s_product"));
        let s_units = sales.column(sales.col("s_units"));
        let s_amount = sales.column(sales.col("s_amount"));
        let p_price = products.column(products.col("p_price"));
        for i in 0..sales.rows().min(500) {
            let expect = s_units[i] * p_price[(s_prod[i] - 1) as usize];
            assert_eq!(s_amount[i], expect, "row {i}");
        }
    }

    #[test]
    fn real2_has_thirteen_tables() {
        let db = generate_real2(&CFG);
        assert_eq!(db.tables().count(), 1 + 2 * REAL2_DIMS);
        let ev = db.table("events");
        for i in 0..REAL2_DIMS {
            let dim = db.table(&format!("dim{i}"));
            let fk = ev.column(ev.col(&format!("e_dim{i}")));
            let n = dim.rows() as i64;
            for &v in fk.iter().take(300) {
                assert!(v >= 1 && v <= n);
            }
            // dim's sub FK valid too
            let sub = db.table(&format!("subdim{i}"));
            let sfk = dim.column(dim.col("d_sub"));
            for &v in sfk {
                assert!(v >= 1 && v <= sub.rows() as i64);
            }
        }
    }

    #[test]
    fn real_generators_deterministic() {
        let a = generate_real1(&CFG);
        let b = generate_real1(&CFG);
        assert_eq!(a.table("sales").column(1), b.table("sales").column(1));
        let c = generate_real2(&CFG);
        let d = generate_real2(&CFG);
        assert_eq!(c.table("events").column(1), d.table("events").column(1));
    }
}
