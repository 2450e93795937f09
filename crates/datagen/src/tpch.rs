//! TPC-H subset: the `lineitem` and `orders` columns needed by Q1 and Q4
//! (paper, Section 5.2 and Appendix A.2; the paper runs SF 50 and SF 100).
//!
//! Dates are encoded as integer day numbers; the generator reproduces the
//! properties the two queries depend on: Q1's `shipDate <= cutoff` filter
//! keeps ~97 % of lineitems, Q1 groups into the 4 (returnFlag, lineStatus)
//! combinations, and Q4's correlated `EXISTS` matches a realistic fraction
//! of orders within a quarter-sized date window.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use emma_compiler::value::Value;

/// `lineitem` tuple fields.
pub mod lineitem {
    /// Foreign key to orders.
    pub const ORDER_KEY: usize = 0;
    /// Quantity.
    pub const QUANTITY: usize = 1;
    /// Extended price.
    pub const EXTENDED_PRICE: usize = 2;
    /// Discount ∈ [0, 0.1].
    pub const DISCOUNT: usize = 3;
    /// Tax ∈ [0, 0.08].
    pub const TAX: usize = 4;
    /// Return flag ("A", "N", "R").
    pub const RETURN_FLAG: usize = 5;
    /// Line status ("O", "F").
    pub const LINE_STATUS: usize = 6;
    /// Ship date (day number).
    pub const SHIP_DATE: usize = 7;
    /// Commit date (day number).
    pub const COMMIT_DATE: usize = 8;
    /// Receipt date (day number).
    pub const RECEIPT_DATE: usize = 9;
}

/// `orders` tuple fields.
pub mod orders {
    /// Order key.
    pub const ORDER_KEY: usize = 0;
    /// Order date (day number).
    pub const ORDER_DATE: usize = 1;
    /// Order priority ("1-URGENT" … "5-LOW").
    pub const PRIORITY: usize = 2;
}

/// Day-number range of the generated dates (7 years, like TPC-H).
pub const DATE_MIN: i64 = 0;
/// Exclusive upper bound of generated order dates.
pub const DATE_MAX: i64 = 2_557;

/// Q1's ship-date cutoff (`1998-12-01 - 90 days` in TPC-H; here: the day
/// that keeps ~97 % of lineitems).
pub const Q1_SHIP_CUTOFF: i64 = DATE_MAX - 60;

/// Q4's quarter window start (a quarter somewhere in the middle).
pub const Q4_DATE_MIN: i64 = 1_200;
/// Q4's window end (3 months later).
pub const Q4_DATE_MAX: i64 = Q4_DATE_MIN + 90;

/// TPC-H priorities.
pub const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];

/// Parameters of the TPC-H subset generator. `scale` ≈ a micro scale factor:
/// `orders = 1500 × scale`, `lineitems ≈ 4 × orders` (TPC-H's ratio).
#[derive(Clone, Copy, Debug)]
pub struct TpchSpec {
    /// Micro scale factor.
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TpchSpec {
    fn default() -> Self {
        TpchSpec {
            scale: 1.0,
            seed: 42,
        }
    }
}

/// Generates `(lineitem, orders)` row sets.
pub fn generate(spec: &TpchSpec) -> (Vec<Value>, Vec<Value>) {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let num_orders = ((1_500.0 * spec.scale) as usize).max(1);
    let orders_rows: Vec<Value> = (0..num_orders)
        .map(|k| {
            Value::tuple([
                Value::Int(k as i64),
                Value::Int(rng.gen_range(DATE_MIN..DATE_MAX)),
                Value::str(PRIORITIES[rng.gen_range(0..PRIORITIES.len())]),
            ])
        })
        .collect();
    let mut lineitems = Vec::with_capacity(num_orders * 4);
    for order in &orders_rows {
        let okey = order.field(orders::ORDER_KEY).expect("key").clone();
        let odate = order
            .field(orders::ORDER_DATE)
            .expect("date")
            .as_int()
            .expect("int");
        let lines = rng.gen_range(1..=7);
        for _ in 0..lines {
            let ship = odate + rng.gen_range(1..121);
            let commit = odate + rng.gen_range(30..91);
            let receipt = ship + rng.gen_range(1..31);
            let quantity = rng.gen_range(1..51) as f64;
            let price = quantity * rng.gen_range(900.0..110_000.0) / 50.0;
            lineitems.push(Value::tuple([
                okey.clone(),
                Value::Float(quantity),
                Value::Float((price * 100.0).round() / 100.0),
                Value::Float(rng.gen_range(0..11) as f64 / 100.0),
                Value::Float(rng.gen_range(0..9) as f64 / 100.0),
                Value::str(["A", "N", "R"][rng.gen_range(0..3)]),
                Value::str(["O", "F"][rng.gen_range(0..2)]),
                Value::Int(ship),
                Value::Int(commit),
                Value::Int(receipt),
            ]));
        }
    }
    (lineitems, orders_rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineitem_orders_ratio_is_tpch_like() {
        let (li, ord) = generate(&TpchSpec::default());
        assert_eq!(ord.len(), 1_500);
        let ratio = li.len() as f64 / ord.len() as f64;
        assert!((3.0..5.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn q1_cutoff_keeps_most_lineitems() {
        let (li, _) = generate(&TpchSpec::default());
        let kept = li
            .iter()
            .filter(|l| l.field(lineitem::SHIP_DATE).unwrap().as_int().unwrap() <= Q1_SHIP_CUTOFF)
            .count() as f64
            / li.len() as f64;
        assert!(kept > 0.9, "kept {kept}");
    }

    #[test]
    fn q4_window_matches_a_reasonable_fraction_of_orders() {
        let (_, ord) = generate(&TpchSpec::default());
        let inside = ord
            .iter()
            .filter(|o| {
                let d = o.field(orders::ORDER_DATE).unwrap().as_int().unwrap();
                (Q4_DATE_MIN..Q4_DATE_MAX).contains(&d)
            })
            .count() as f64
            / ord.len() as f64;
        assert!((0.01..0.10).contains(&inside), "window fraction {inside}");
    }

    #[test]
    fn some_lineitems_are_late() {
        // Q4's EXISTS predicate: commitDate < receiptDate.
        let (li, _) = generate(&TpchSpec::default());
        let late = li
            .iter()
            .filter(|l| {
                l.field(lineitem::COMMIT_DATE).unwrap().as_int().unwrap()
                    < l.field(lineitem::RECEIPT_DATE).unwrap().as_int().unwrap()
            })
            .count() as f64
            / li.len() as f64;
        assert!((0.2..0.9).contains(&late), "late fraction {late}");
    }

    #[test]
    fn flags_and_priorities_cover_their_domains() {
        let (li, ord) = generate(&TpchSpec::default());
        let flags: std::collections::HashSet<&str> = li
            .iter()
            .map(|l| l.field(lineitem::RETURN_FLAG).unwrap().as_str().unwrap())
            .collect();
        assert_eq!(flags.len(), 3);
        let prios: std::collections::HashSet<&str> = ord
            .iter()
            .map(|o| o.field(orders::PRIORITY).unwrap().as_str().unwrap())
            .collect();
        assert_eq!(prios.len(), 5);
    }

    #[test]
    fn scale_scales() {
        let (li2, ord2) = generate(&TpchSpec {
            scale: 2.0,
            seed: 42,
        });
        assert_eq!(ord2.len(), 3_000);
        assert!(li2.len() > 9_000);
    }
}
