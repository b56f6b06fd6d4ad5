//! The four query-template families and the parameter helpers they
//! share. Each template draws its constants from `rng` in a fixed order,
//! so a workload seed pins every generated query.

use crate::query::{AggKind, AggSpec, FilterSpec, JoinSpec, OrderTarget, QuerySpec, TableRef};
use crate::stats::DbStats;
use prosel_datagen::{realworld, Database};
use prosel_engine::CmpOp;
use rand::rngs::StdRng;
use rand::RngExt;

// ---------------------------------------------------------------------------
// Parameter helpers
// ---------------------------------------------------------------------------

/// A range filter on `col` with approximate selectivity drawn from
/// `[min_sel, max_sel]`.
fn range_filter(
    stats: &DbStats,
    rng: &mut StdRng,
    table: &str,
    db_col: usize,
    col: &str,
    min_sel: f64,
    max_sel: f64,
) -> FilterSpec {
    let hist = &stats.table(table).columns[db_col].histogram;
    let sel = rng.random_range(min_sel..max_sel);
    let start = rng.random_range(0.0..(1.0 - sel).max(1e-6));
    let lo = hist.quantile(start);
    let hi = hist.quantile(start + sel).max(lo);
    FilterSpec::Range { col: col.to_string(), lo, hi }
}

/// An equality filter. Most constants are drawn from the actual value
/// distribution (frequent values picked more often — the easy case), but
/// a fraction is drawn uniformly from the domain: under skew those "cold"
/// constants are exactly the ones histogram uniformity misestimates,
/// giving the workload realistic hard cases.
fn eq_filter(
    stats: &DbStats,
    rng: &mut StdRng,
    table: &str,
    db_col: usize,
    col: &str,
) -> FilterSpec {
    let cs = &stats.table(table).columns[db_col];
    let val = if rng.random_bool(0.4) {
        rng.random_range(cs.min..=cs.max.max(cs.min))
    } else {
        cs.histogram.quantile(rng.random_range(0.0..1.0))
    };
    FilterSpec::Cmp { col: col.to_string(), op: CmpOp::Eq, val }
}

fn join(left_table: usize, left_col: &str, right_col: &str) -> JoinSpec {
    JoinSpec { left_table, left_col: left_col.into(), right_col: right_col.into() }
}

// ---------------------------------------------------------------------------
// TPC-H-like templates
// ---------------------------------------------------------------------------

pub(super) fn tpch_template(rng: &mut StdRng, stats: &DbStats) -> QuerySpec {
    // Column indices in the generated schema (fixed by the generator).
    const L_SHIPDATE: usize = 6;
    const O_ORDERDATE: usize = 2;
    const O_TOTALPRICE: usize = 3;
    const C_MKTSEGMENT: usize = 2;
    const P_BRAND: usize = 1;

    match rng.random_range(0..14) {
        // Q1-style pricing summary over lineitem.
        0 => QuerySpec {
            tables: vec![TableRef::new("lineitem").with_filter(range_filter(
                stats,
                rng,
                "lineitem",
                L_SHIPDATE,
                "l_shipdate",
                0.5,
                0.95,
            ))],
            joins: vec![],
            aggregate: Some(AggSpec {
                group_cols: vec![(0, "l_returnflag".into()), (0, "l_linestatus".into())],
                aggs: vec![
                    AggKind::Sum { table: 0, col: "l_quantity".into() },
                    AggKind::Sum { table: 0, col: "l_extendedprice".into() },
                    AggKind::Count,
                ],
                having: None,
            }),
            order_by: None,
            top: None,
        },
        // Q3-style shipping priority: customer ⋈ orders ⋈ lineitem.
        1 => QuerySpec {
            tables: vec![
                TableRef::new("customer").with_filter(eq_filter(
                    stats,
                    rng,
                    "customer",
                    C_MKTSEGMENT,
                    "c_mktsegment",
                )),
                TableRef::new("orders").with_filter(range_filter(
                    stats,
                    rng,
                    "orders",
                    O_ORDERDATE,
                    "o_orderdate",
                    0.1,
                    0.6,
                )),
                TableRef::new("lineitem"),
            ],
            joins: vec![join(0, "c_custkey", "o_custkey"), join(1, "o_orderkey", "l_orderkey")],
            aggregate: Some(AggSpec {
                group_cols: vec![(1, "o_orderdate".into())],
                aggs: vec![AggKind::Sum { table: 2, col: "l_extendedprice".into() }],
                having: None,
            }),
            order_by: Some(OrderTarget::AggResult { idx: 0 }),
            top: Some(rng.random_range(5..20)),
        },
        // Q4-style order priority checking.
        2 => QuerySpec {
            tables: vec![
                TableRef::new("orders").with_filter(range_filter(
                    stats,
                    rng,
                    "orders",
                    O_ORDERDATE,
                    "o_orderdate",
                    0.05,
                    0.3,
                )),
                TableRef::new("lineitem"),
            ],
            joins: vec![join(0, "o_orderkey", "l_orderkey")],
            aggregate: Some(AggSpec {
                group_cols: vec![(0, "o_orderpriority".into())],
                aggs: vec![AggKind::Count],
                having: None,
            }),
            order_by: None,
            top: None,
        },
        // Q5-style local supplier volume: 6-way join.
        3 => QuerySpec {
            tables: vec![
                TableRef::new("customer"),
                TableRef::new("orders").with_filter(range_filter(
                    stats,
                    rng,
                    "orders",
                    O_ORDERDATE,
                    "o_orderdate",
                    0.1,
                    0.4,
                )),
                TableRef::new("lineitem"),
                TableRef::new("supplier"),
                TableRef::new("nation"),
                TableRef::new("region").with_filter(FilterSpec::Cmp {
                    col: "r_regionkey".into(),
                    op: CmpOp::Eq,
                    val: rng.random_range(1..=5),
                }),
            ],
            joins: vec![
                join(0, "c_custkey", "o_custkey"),
                join(1, "o_orderkey", "l_orderkey"),
                join(2, "l_suppkey", "s_suppkey"),
                join(3, "s_nationkey", "n_nationkey"),
                join(4, "n_regionkey", "r_regionkey"),
            ],
            aggregate: Some(AggSpec {
                group_cols: vec![(4, "n_nationkey".into())],
                aggs: vec![AggKind::Sum { table: 2, col: "l_extendedprice".into() }],
                having: None,
            }),
            order_by: Some(OrderTarget::AggResult { idx: 0 }),
            top: None,
        },
        // Q6-style revenue forecast (tight scan + filters).
        4 => QuerySpec {
            tables: vec![TableRef::new("lineitem")
                .with_filter(range_filter(
                    stats,
                    rng,
                    "lineitem",
                    L_SHIPDATE,
                    "l_shipdate",
                    0.1,
                    0.25,
                ))
                .with_filter(FilterSpec::Range {
                    col: "l_discount".into(),
                    lo: rng.random_range(0..=3),
                    hi: rng.random_range(4..=7),
                })
                .with_filter(FilterSpec::Cmp {
                    col: "l_quantity".into(),
                    op: CmpOp::Lt,
                    val: rng.random_range(20..=45),
                })],
            joins: vec![],
            aggregate: Some(AggSpec {
                group_cols: vec![(0, "l_linestatus".into())],
                aggs: vec![AggKind::Sum { table: 0, col: "l_extendedprice".into() }],
                having: None,
            }),
            order_by: None,
            top: None,
        },
        // Q17-style small-quantity-order revenue: part ⋈ lineitem.
        5 => QuerySpec {
            tables: vec![
                TableRef::new("part")
                    .with_filter(eq_filter(stats, rng, "part", P_BRAND, "p_brand")),
                TableRef::new("lineitem"),
            ],
            joins: vec![join(0, "p_partkey", "l_partkey")],
            aggregate: Some(AggSpec {
                group_cols: vec![(0, "p_partkey".into())],
                aggs: vec![AggKind::Count, AggKind::Sum { table: 1, col: "l_quantity".into() }],
                having: Some((CmpOp::Gt, rng.random_range(1..6))),
            }),
            order_by: None,
            top: None,
        },
        // Part/partsupp stock report.
        6 => QuerySpec {
            tables: vec![
                TableRef::new("part").with_filter(FilterSpec::Range {
                    col: "p_size".into(),
                    lo: 1,
                    hi: rng.random_range(5..25),
                }),
                TableRef::new("partsupp"),
            ],
            joins: vec![join(0, "p_partkey", "ps_partkey")],
            aggregate: Some(AggSpec {
                group_cols: vec![(0, "p_brand".into())],
                aggs: vec![AggKind::Sum { table: 1, col: "ps_supplycost".into() }],
                having: None,
            }),
            order_by: Some(OrderTarget::AggResult { idx: 0 }),
            top: Some(20),
        },
        // Q18-style large volume customers.
        7 => QuerySpec {
            tables: vec![TableRef::new("orders"), TableRef::new("lineitem")],
            joins: vec![join(0, "o_orderkey", "l_orderkey")],
            aggregate: Some(AggSpec {
                group_cols: vec![(0, "o_orderkey".into())],
                aggs: vec![AggKind::Sum { table: 1, col: "l_quantity".into() }],
                having: Some((CmpOp::Gt, rng.random_range(100..250))),
            }),
            order_by: Some(OrderTarget::AggResult { idx: 0 }),
            top: Some(100),
        },
        // Supplier activity: supplier ⋈ lineitem ⋈ orders.
        8 => QuerySpec {
            tables: vec![
                TableRef::new("supplier"),
                TableRef::new("lineitem").with_filter(range_filter(
                    stats,
                    rng,
                    "lineitem",
                    L_SHIPDATE,
                    "l_shipdate",
                    0.2,
                    0.6,
                )),
                TableRef::new("orders"),
            ],
            joins: vec![join(0, "s_suppkey", "l_suppkey"), join(1, "l_orderkey", "o_orderkey")],
            aggregate: Some(AggSpec {
                group_cols: vec![(0, "s_suppkey".into())],
                aggs: vec![AggKind::Count],
                having: Some((CmpOp::Gt, rng.random_range(5..50))),
            }),
            order_by: None,
            top: None,
        },
        // Expensive-orders listing: sort + top, no aggregate.
        9 => QuerySpec {
            tables: vec![TableRef::new("orders").with_filter(range_filter(
                stats,
                rng,
                "orders",
                O_TOTALPRICE,
                "o_totalprice",
                0.05,
                0.4,
            ))],
            joins: vec![],
            aggregate: None,
            order_by: Some(OrderTarget::Column { table: 0, col: "o_orderdate".into() }),
            top: Some(rng.random_range(50..500)),
        },
        // Partsupp sourcing by nation: partsupp ⋈ supplier ⋈ nation.
        10 => QuerySpec {
            tables: vec![
                TableRef::new("partsupp"),
                TableRef::new("supplier"),
                TableRef::new("nation"),
            ],
            joins: vec![join(0, "ps_suppkey", "s_suppkey"), join(1, "s_nationkey", "n_nationkey")],
            aggregate: Some(AggSpec {
                group_cols: vec![(2, "n_nationkey".into())],
                aggs: vec![AggKind::Sum { table: 0, col: "ps_availqty".into() }],
                having: None,
            }),
            order_by: None,
            top: None,
        },
        // Order-detail lookup: a narrow orders slice seeking into the
        // customer and nation primary keys (nested iteration even in the
        // untuned design, whose PK indexes always exist).
        11 => QuerySpec {
            tables: vec![
                TableRef::new("orders").with_filter(range_filter(
                    stats,
                    rng,
                    "orders",
                    O_ORDERDATE,
                    "o_orderdate",
                    0.01,
                    0.06,
                )),
                TableRef::new("customer"),
                TableRef::new("nation"),
            ],
            joins: vec![join(0, "o_custkey", "c_custkey"), join(1, "c_nationkey", "n_nationkey")],
            aggregate: Some(AggSpec {
                group_cols: vec![(2, "n_nationkey".into())],
                aggs: vec![AggKind::Sum { table: 0, col: "o_totalprice".into() }],
                having: None,
            }),
            order_by: None,
            top: None,
        },
        // Shipment audit: a narrow lineitem slice seeking into the orders
        // primary key.
        12 => QuerySpec {
            tables: vec![
                TableRef::new("lineitem").with_filter(range_filter(
                    stats,
                    rng,
                    "lineitem",
                    L_SHIPDATE,
                    "l_shipdate",
                    0.01,
                    0.05,
                )),
                TableRef::new("orders"),
            ],
            joins: vec![join(0, "l_orderkey", "o_orderkey")],
            aggregate: Some(AggSpec {
                group_cols: vec![(1, "o_orderstatus".into())],
                aggs: vec![AggKind::Count, AggKind::Sum { table: 0, col: "l_quantity".into() }],
                having: None,
            }),
            order_by: None,
            top: None,
        },
        // Q12-style shipping modes: lineitem ⋈ orders.
        _ => QuerySpec {
            tables: vec![
                TableRef::new("lineitem")
                    .with_filter(eq_filter(stats, rng, "lineitem", 10, "l_shipmode"))
                    .with_filter(range_filter(
                        stats,
                        rng,
                        "lineitem",
                        7,
                        "l_receiptdate",
                        0.1,
                        0.5,
                    )),
                TableRef::new("orders"),
            ],
            joins: vec![join(0, "l_orderkey", "o_orderkey")],
            aggregate: Some(AggSpec {
                group_cols: vec![(1, "o_orderpriority".into())],
                aggs: vec![AggKind::Count],
                having: None,
            }),
            order_by: None,
            top: None,
        },
    }
}

// ---------------------------------------------------------------------------
// TPC-DS-like templates
// ---------------------------------------------------------------------------

pub(super) fn tpcds_template(rng: &mut StdRng, stats: &DbStats) -> QuerySpec {
    const D_YEAR: usize = 1;
    const I_CATEGORY: usize = 1;
    const C_BIRTH: usize = 1;
    match rng.random_range(0..6) {
        // Brand revenue by month.
        0 => QuerySpec {
            tables: vec![
                TableRef::new("store_sales"),
                TableRef::new("date_dim")
                    .with_filter(eq_filter(stats, rng, "date_dim", D_YEAR, "d_year"))
                    .with_filter(FilterSpec::Cmp {
                        col: "d_moy".into(),
                        op: CmpOp::Eq,
                        val: rng.random_range(1..=12),
                    }),
                TableRef::new("item").with_filter(eq_filter(
                    stats,
                    rng,
                    "item",
                    I_CATEGORY,
                    "i_category",
                )),
            ],
            joins: vec![
                join(0, "ss_sold_date_sk", "d_date_sk"),
                join(0, "ss_item_sk", "i_item_sk"),
            ],
            aggregate: Some(AggSpec {
                group_cols: vec![(2, "i_brand".into())],
                aggs: vec![AggKind::Sum { table: 0, col: "ss_ext_sales_price".into() }],
                having: None,
            }),
            order_by: Some(OrderTarget::AggResult { idx: 0 }),
            top: Some(100),
        },
        // Store revenue for a category.
        1 => QuerySpec {
            tables: vec![
                TableRef::new("store_sales"),
                TableRef::new("item").with_filter(eq_filter(
                    stats,
                    rng,
                    "item",
                    I_CATEGORY,
                    "i_category",
                )),
            ],
            joins: vec![join(0, "ss_item_sk", "i_item_sk")],
            aggregate: Some(AggSpec {
                group_cols: vec![(0, "ss_store_sk".into())],
                aggs: vec![AggKind::Sum { table: 0, col: "ss_ext_sales_price".into() }],
                having: None,
            }),
            order_by: None,
            top: None,
        },
        // Demographic slice across four dimensions.
        2 => QuerySpec {
            tables: vec![
                TableRef::new("store_sales"),
                TableRef::new("date_dim").with_filter(range_filter(
                    stats,
                    rng,
                    "date_dim",
                    0,
                    "d_date_sk",
                    0.1,
                    0.5,
                )),
                TableRef::new("store"),
                TableRef::new("customer_dim").with_filter(FilterSpec::Cmp {
                    col: "c_gender".into(),
                    op: CmpOp::Eq,
                    val: rng.random_range(1..=2),
                }),
            ],
            joins: vec![
                join(0, "ss_sold_date_sk", "d_date_sk"),
                join(0, "ss_store_sk", "s_store_sk"),
                join(0, "ss_customer_sk", "c_customer_sk"),
            ],
            aggregate: Some(AggSpec {
                group_cols: vec![(2, "s_state".into())],
                aggs: vec![AggKind::Count],
                having: None,
            }),
            order_by: None,
            top: None,
        },
        // Promotion effectiveness.
        3 => QuerySpec {
            tables: vec![
                TableRef::new("store_sales"),
                TableRef::new("promotion").with_filter(FilterSpec::Cmp {
                    col: "p_channel".into(),
                    op: CmpOp::Eq,
                    val: rng.random_range(1..=4),
                }),
                TableRef::new("item"),
            ],
            joins: vec![join(0, "ss_promo_sk", "p_promo_sk"), join(0, "ss_item_sk", "i_item_sk")],
            aggregate: Some(AggSpec {
                group_cols: vec![(2, "i_category".into())],
                aggs: vec![AggKind::Sum { table: 0, col: "ss_ext_sales_price".into() }],
                having: None,
            }),
            order_by: None,
            top: None,
        },
        // Hot items (heavy aggregation + having + top).
        4 => QuerySpec {
            tables: vec![TableRef::new("store_sales").with_filter(range_filter(
                stats,
                rng,
                "store_sales",
                5,
                "ss_quantity",
                0.2,
                0.7,
            ))],
            joins: vec![],
            aggregate: Some(AggSpec {
                group_cols: vec![(0, "ss_item_sk".into())],
                aggs: vec![AggKind::Count, AggKind::Sum { table: 0, col: "ss_quantity".into() }],
                having: Some((CmpOp::Gt, rng.random_range(2..12))),
            }),
            order_by: Some(OrderTarget::AggResult { idx: 1 }),
            top: Some(50),
        },
        // Birth-cohort revenue.
        _ => QuerySpec {
            tables: vec![
                TableRef::new("store_sales"),
                TableRef::new("customer_dim").with_filter(range_filter(
                    stats,
                    rng,
                    "customer_dim",
                    C_BIRTH,
                    "c_birth_year",
                    0.1,
                    0.4,
                )),
                TableRef::new("date_dim"),
            ],
            joins: vec![
                join(0, "ss_customer_sk", "c_customer_sk"),
                join(0, "ss_sold_date_sk", "d_date_sk"),
            ],
            aggregate: Some(AggSpec {
                group_cols: vec![(1, "c_birth_year".into())],
                aggs: vec![AggKind::Sum { table: 0, col: "ss_ext_sales_price".into() }],
                having: None,
            }),
            order_by: None,
            top: None,
        },
    }
}

// ---------------------------------------------------------------------------
// Real-1 templates (5–8-way joins, HAVING as the nested-sub-query stand-in)
// ---------------------------------------------------------------------------

pub(super) fn real1_template(rng: &mut StdRng, stats: &DbStats) -> QuerySpec {
    const A_SIZE: usize = 3;
    const P_PRICE: usize = 2;
    const S_AMOUNT: usize = 6;
    match rng.random_range(0..5) {
        // Regional revenue: 5-way join.
        0 => QuerySpec {
            tables: vec![
                TableRef::new("sales"),
                TableRef::new("accounts").with_filter(FilterSpec::Cmp {
                    col: "a_region".into(),
                    op: CmpOp::Eq,
                    val: rng.random_range(1..=15),
                }),
                TableRef::new("products"),
                TableRef::new("employees"),
                TableRef::new("territories"),
            ],
            joins: vec![
                join(0, "s_account", "a_id"),
                join(0, "s_product", "p_id"),
                join(0, "s_employee", "e_id"),
                join(3, "e_territory", "t_id"),
            ],
            aggregate: Some(AggSpec {
                group_cols: vec![(4, "t_region".into())],
                aggs: vec![AggKind::Sum { table: 0, col: "s_amount".into() }],
                having: None,
            }),
            order_by: None,
            top: None,
        },
        // Category counts with correlated price/size filters + HAVING.
        1 => QuerySpec {
            tables: vec![
                TableRef::new("sales"),
                TableRef::new("products").with_filter(range_filter(
                    stats, rng, "products", P_PRICE, "p_price", 0.1, 0.5,
                )),
                TableRef::new("accounts")
                    .with_filter(eq_filter(stats, rng, "accounts", 2, "a_industry"))
                    .with_filter(range_filter(stats, rng, "accounts", A_SIZE, "a_size", 0.2, 0.8)),
                TableRef::new("dates").with_filter(eq_filter(stats, rng, "dates", 1, "d_year")),
            ],
            joins: vec![
                join(0, "s_product", "p_id"),
                join(0, "s_account", "a_id"),
                join(0, "s_date", "d_id"),
            ],
            aggregate: Some(AggSpec {
                group_cols: vec![(1, "p_category".into())],
                aggs: vec![AggKind::Count],
                having: Some((CmpOp::Gt, rng.random_range(2..20))),
            }),
            order_by: None,
            top: None,
        },
        // Carrier delays: 6-way join through shipments.
        2 => QuerySpec {
            tables: vec![
                TableRef::new("shipments").with_filter(FilterSpec::Range {
                    col: "sh_delay".into(),
                    lo: rng.random_range(0..10),
                    hi: rng.random_range(20..60),
                }),
                TableRef::new("sales"),
                TableRef::new("accounts"),
                TableRef::new("products"),
                TableRef::new("employees"),
                TableRef::new("territories"),
            ],
            joins: vec![
                join(0, "sh_sale", "s_id"),
                join(1, "s_account", "a_id"),
                join(1, "s_product", "p_id"),
                join(1, "s_employee", "e_id"),
                join(4, "e_territory", "t_id"),
            ],
            aggregate: Some(AggSpec {
                group_cols: vec![(0, "sh_carrier".into())],
                aggs: vec![AggKind::Sum { table: 0, col: "sh_delay".into() }, AggKind::Count],
                having: None,
            }),
            order_by: Some(OrderTarget::AggResult { idx: 0 }),
            top: None,
        },
        // Quota attainment: 8-way join.
        3 => QuerySpec {
            tables: vec![
                TableRef::new("sales"),
                TableRef::new("employees"),
                TableRef::new("targets").with_filter(FilterSpec::Range {
                    col: "tg_quarter".into(),
                    lo: 1,
                    hi: rng.random_range(3..=12),
                }),
                TableRef::new("territories"),
                TableRef::new("accounts"),
                TableRef::new("products"),
                TableRef::new("dates"),
                TableRef::new("shipments"),
            ],
            joins: vec![
                join(0, "s_employee", "e_id"),
                join(1, "e_id", "tg_employee"),
                join(1, "e_territory", "t_id"),
                join(0, "s_account", "a_id"),
                join(0, "s_product", "p_id"),
                join(0, "s_date", "d_id"),
                join(0, "s_id", "sh_sale"),
            ],
            aggregate: Some(AggSpec {
                group_cols: vec![(3, "t_region".into())],
                aggs: vec![AggKind::Sum { table: 0, col: "s_amount".into() }],
                having: None,
            }),
            order_by: None,
            top: None,
        },
        // Big-ticket listing: sort + top.
        _ => QuerySpec {
            tables: vec![
                TableRef::new("sales").with_filter(range_filter(
                    stats, rng, "sales", S_AMOUNT, "s_amount", 0.02, 0.3,
                )),
                TableRef::new("accounts"),
                TableRef::new("products"),
            ],
            joins: vec![join(0, "s_account", "a_id"), join(0, "s_product", "p_id")],
            aggregate: None,
            order_by: Some(OrderTarget::Column { table: 0, col: "s_amount".into() }),
            top: Some(rng.random_range(20..200)),
        },
    }
}

// ---------------------------------------------------------------------------
// Real-2 templates (snowflake, up to 12 joins)
// ---------------------------------------------------------------------------

pub(super) fn real2_template(rng: &mut StdRng, db: &Database, stats: &DbStats) -> QuerySpec {
    let n_dims = realworld::REAL2_DIMS;
    // Choose how many dimension branches to traverse (4..=6) and how many
    // of those continue into their sub-dimension (most of them).
    let branches = rng.random_range(4..=n_dims);
    let mut dims: Vec<usize> = (0..n_dims).collect();
    // Seeded partial shuffle.
    for i in 0..branches {
        let j = rng.random_range(i..n_dims);
        dims.swap(i, j);
    }
    let chosen = &dims[..branches];

    let mut tables = vec![TableRef::new("events")];
    let mut joins = Vec::new();
    let mut filters_placed = 0;
    let mut group: Option<(usize, String)> = None;

    for &d in chosen {
        let dim_name = format!("dim{d}");
        let mut dref = TableRef::new(&dim_name);
        if filters_placed < 3 && rng.random_bool(0.6) {
            dref = dref.with_filter(FilterSpec::Cmp {
                col: "d_attr".into(),
                op: CmpOp::Le,
                val: rng.random_range(3..=9),
            });
            filters_placed += 1;
        }
        let dim_idx = tables.len();
        tables.push(dref);
        joins.push(join(0, &format!("e_dim{d}"), "d_id"));
        if group.is_none() {
            group = Some((dim_idx, "d_attr".into()));
        }
        // Continue into the sub-dimension most of the time.
        if rng.random_bool(0.8) {
            let sub_name = format!("subdim{d}");
            let mut sref = TableRef::new(&sub_name);
            if filters_placed < 3 && rng.random_bool(0.3) {
                sref = sref.with_filter(FilterSpec::Cmp {
                    col: "sd_attr".into(),
                    op: CmpOp::Le,
                    val: rng.random_range(2..=5),
                });
                filters_placed += 1;
            }
            tables.push(sref);
            joins.push(join(dim_idx, "d_sub", "sd_id"));
        }
    }
    let _ = (db, stats);

    QuerySpec {
        tables,
        joins,
        aggregate: Some(AggSpec {
            group_cols: vec![group.expect("at least one dim")],
            aggs: vec![AggKind::Sum { table: 0, col: "e_metric1".into() }, AggKind::Count],
            having: if rng.random_bool(0.3) {
                Some((CmpOp::Gt, rng.random_range(2..30)))
            } else {
                None
            },
        }),
        order_by: if rng.random_bool(0.4) { Some(OrderTarget::AggResult { idx: 0 }) } else { None },
        top: if rng.random_bool(0.3) { Some(rng.random_range(10..100)) } else { None },
    }
}
