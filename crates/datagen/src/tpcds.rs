//! TPC-DS-shaped star-schema subset.
//!
//! The paper uses ~200 randomly chosen TPC-DS queries over a 10 GB
//! database. We generate the portion of the schema those reporting
//! queries exercise most: the `store_sales` fact table plus five
//! dimensions, with skewed foreign keys. (TPC-DS's official data is
//! *not* skewed between keys, but its dimensional selectivities are
//! highly non-uniform; the category/brand Zipf here plays that role.)

use crate::schema::{ColumnMeta, ColumnRole, TableMeta};
use crate::table::{Column, Database, Table};
use crate::zipf::Zipf;
use crate::GenConfig;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Number of days in the `date_dim` dimension (5 years).
pub const N_DATES: usize = 1826;

/// Generate the TPC-DS-shaped [`Database`].
pub fn generate(cfg: &GenConfig) -> Database {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xd5_0bad_5eed);
    let mut db = Database::new(&format!("tpcds_sf{}", cfg.scale));

    let n_item = ((180.0 * cfg.scale) as usize).max(10);
    let n_store = ((2.0 * cfg.scale) as usize).max(2);
    let n_customer = ((100.0 * cfg.scale) as usize).max(10);
    let n_promo = ((3.0 * cfg.scale) as usize).max(2);
    let n_fact = ((2880.0 * cfg.scale) as usize).max(100);

    db.add(date_dim());
    db.add(item(n_item, cfg.skew, &mut rng));
    db.add(store(n_store, &mut rng));
    db.add(customer_dim(n_customer, &mut rng));
    db.add(promotion(n_promo, &mut rng));
    db.add(store_sales(n_fact, n_item, n_store, n_customer, n_promo, cfg.skew, &mut rng));
    db
}

fn pk(n: usize) -> Vec<i64> {
    (1..=n as i64).collect()
}

fn date_dim() -> Table {
    let meta = TableMeta::new(
        "date_dim",
        141,
        vec![
            ColumnMeta::new("d_date_sk", ColumnRole::PrimaryKey),
            ColumnMeta::new("d_year", ColumnRole::Value { min: 1999, max: 2003 }),
            ColumnMeta::new("d_moy", ColumnRole::Value { min: 1, max: 12 }),
            ColumnMeta::new("d_dom", ColumnRole::Value { min: 1, max: 31 }),
        ],
    );
    let mut year = Vec::with_capacity(N_DATES);
    let mut moy = Vec::with_capacity(N_DATES);
    let mut dom = Vec::with_capacity(N_DATES);
    for d in 0..N_DATES as i64 {
        year.push(1999 + d / 365);
        moy.push((d % 365) / 31 + 1);
        dom.push(d % 31 + 1);
    }
    Table::new(
        meta,
        vec![
            Column { name: "d_date_sk".into(), data: pk(N_DATES) },
            Column { name: "d_year".into(), data: year },
            Column { name: "d_moy".into(), data: moy },
            Column { name: "d_dom".into(), data: dom },
        ],
    )
}

fn item(n: usize, skew: f64, rng: &mut StdRng) -> Table {
    let meta = TableMeta::new(
        "item",
        281,
        vec![
            ColumnMeta::new("i_item_sk", ColumnRole::PrimaryKey),
            ColumnMeta::new("i_category", ColumnRole::Category { cardinality: 10 }),
            ColumnMeta::new("i_brand", ColumnRole::Category { cardinality: 100 }),
            ColumnMeta::new("i_current_price", ColumnRole::Value { min: 1, max: 300 }),
        ],
    );
    let cat_dist = Zipf::new(10, (skew * 0.7).max(0.3));
    let brand_dist = Zipf::new(100, (skew * 0.7).max(0.3));
    let category: Vec<i64> = (0..n).map(|_| cat_dist.sample(rng) as i64).collect();
    let brand = (0..n).map(|_| brand_dist.sample(rng) as i64).collect();
    // Price correlates with category: categories have price bands.
    let price = category.iter().map(|&c| c * 25 + rng.random_range(1i64..=50)).collect();
    Table::new(
        meta,
        vec![
            Column { name: "i_item_sk".into(), data: pk(n) },
            Column { name: "i_category".into(), data: category },
            Column { name: "i_brand".into(), data: brand },
            Column { name: "i_current_price".into(), data: price },
        ],
    )
}

fn store(n: usize, rng: &mut StdRng) -> Table {
    let meta = TableMeta::new(
        "store",
        263,
        vec![
            ColumnMeta::new("s_store_sk", ColumnRole::PrimaryKey),
            ColumnMeta::new("s_state", ColumnRole::Category { cardinality: 20 }),
        ],
    );
    let state = (0..n).map(|_| rng.random_range(1..=20)).collect();
    Table::new(
        meta,
        vec![
            Column { name: "s_store_sk".into(), data: pk(n) },
            Column { name: "s_state".into(), data: state },
        ],
    )
}

fn customer_dim(n: usize, rng: &mut StdRng) -> Table {
    let meta = TableMeta::new(
        "customer_dim",
        132,
        vec![
            ColumnMeta::new("c_customer_sk", ColumnRole::PrimaryKey),
            ColumnMeta::new("c_birth_year", ColumnRole::Value { min: 1930, max: 2000 }),
            ColumnMeta::new("c_gender", ColumnRole::Category { cardinality: 2 }),
        ],
    );
    let birth = (0..n).map(|_| rng.random_range(1930..=2000)).collect();
    let gender = (0..n).map(|_| rng.random_range(1..=2)).collect();
    Table::new(
        meta,
        vec![
            Column { name: "c_customer_sk".into(), data: pk(n) },
            Column { name: "c_birth_year".into(), data: birth },
            Column { name: "c_gender".into(), data: gender },
        ],
    )
}

fn promotion(n: usize, rng: &mut StdRng) -> Table {
    let meta = TableMeta::new(
        "promotion",
        124,
        vec![
            ColumnMeta::new("p_promo_sk", ColumnRole::PrimaryKey),
            ColumnMeta::new("p_channel", ColumnRole::Category { cardinality: 4 }),
        ],
    );
    let channel = (0..n).map(|_| rng.random_range(1..=4)).collect();
    Table::new(
        meta,
        vec![
            Column { name: "p_promo_sk".into(), data: pk(n) },
            Column { name: "p_channel".into(), data: channel },
        ],
    )
}

#[allow(clippy::too_many_arguments)]
fn store_sales(
    n: usize,
    n_item: usize,
    n_store: usize,
    n_customer: usize,
    n_promo: usize,
    skew: f64,
    rng: &mut StdRng,
) -> Table {
    let meta = TableMeta::new(
        "store_sales",
        164,
        vec![
            ColumnMeta::new("ss_sold_date_sk", ColumnRole::ForeignKey { table: "date_dim".into() }),
            ColumnMeta::new("ss_item_sk", ColumnRole::ForeignKey { table: "item".into() }),
            ColumnMeta::new("ss_store_sk", ColumnRole::ForeignKey { table: "store".into() }),
            ColumnMeta::new(
                "ss_customer_sk",
                ColumnRole::ForeignKey { table: "customer_dim".into() },
            ),
            ColumnMeta::new("ss_promo_sk", ColumnRole::ForeignKey { table: "promotion".into() }),
            ColumnMeta::new("ss_quantity", ColumnRole::Value { min: 1, max: 100 }),
            ColumnMeta::new("ss_ext_sales_price", ColumnRole::Value { min: 1, max: 30_000 }),
        ],
    );
    let item_dist = Zipf::new(n_item as u64, skew);
    let cust_dist = Zipf::new(n_customer as u64, skew);

    let mut sold_date = Vec::with_capacity(n);
    let mut item_sk = Vec::with_capacity(n);
    let mut store_sk = Vec::with_capacity(n);
    let mut customer_sk = Vec::with_capacity(n);
    let mut promo_sk = Vec::with_capacity(n);
    let mut quantity: Vec<i64> = Vec::with_capacity(n);
    let mut ext_price = Vec::with_capacity(n);
    for i in 0..n {
        // Fact rows are appended chronologically with jitter.
        let base = N_DATES as f64 * (i as f64 / n as f64);
        sold_date.push(
            (base + rng.random_range(-60.0f64..60.0)).round().clamp(1.0, N_DATES as f64) as i64,
        );
        let it = item_dist.sample_permuted(rng) as i64;
        item_sk.push(it);
        store_sk.push(rng.random_range(1..=n_store as i64));
        customer_sk.push(cust_dist.sample_permuted(rng) as i64);
        promo_sk.push(rng.random_range(1..=n_promo as i64));
        let q = rng.random_range(1..=100);
        quantity.push(q);
        // Revenue correlates with item (via its price band) and quantity.
        ext_price.push(q * ((it % 10 + 1) * 25 + 10));
    }
    Table::new(
        meta,
        vec![
            Column { name: "ss_sold_date_sk".into(), data: sold_date },
            Column { name: "ss_item_sk".into(), data: item_sk },
            Column { name: "ss_store_sk".into(), data: store_sk },
            Column { name: "ss_customer_sk".into(), data: customer_sk },
            Column { name: "ss_promo_sk".into(), data: promo_sk },
            Column { name: "ss_quantity".into(), data: quantity },
            Column { name: "ss_ext_sales_price".into(), data: ext_price },
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_star_schema() {
        let db = generate(&GenConfig { scale: 0.5, skew: 1.0, seed: 2 });
        for t in ["date_dim", "item", "store", "customer_dim", "promotion", "store_sales"] {
            assert!(db.try_table(t).is_some(), "missing {t}");
        }
        assert!(db.table("store_sales").rows() >= 1000);
    }

    #[test]
    fn fact_fks_valid() {
        let db = generate(&GenConfig { scale: 0.5, skew: 2.0, seed: 2 });
        let ss = db.table("store_sales");
        let n_item = db.table("item").rows() as i64;
        for &v in ss.column(ss.col("ss_item_sk")) {
            assert!(v >= 1 && v <= n_item, "item fk {v} out of range");
        }
        let n_date = db.table("date_dim").rows() as i64;
        for &v in ss.column(ss.col("ss_sold_date_sk")) {
            assert!(v >= 1 && v <= n_date, "date fk {v} out of range");
        }
    }

    #[test]
    fn deterministic() {
        let a = generate(&GenConfig { scale: 1.0, skew: 1.0, seed: 42 });
        let b = generate(&GenConfig { scale: 1.0, skew: 1.0, seed: 42 });
        let ta = a.table("store_sales");
        let tb = b.table("store_sales");
        assert_eq!(ta.column(0), tb.column(0));
    }
}
