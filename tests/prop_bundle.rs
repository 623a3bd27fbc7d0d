//! Property tests: parcel sizes are monotone, merging is idempotent and
//! iteration is sorted.

use droidsim_bundle::{Bundle, Value};
use proptest::prelude::*;

fn arb_leaf_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<bool>().prop_map(Value::Bool),
        any::<i32>().prop_map(Value::I32),
        any::<i64>().prop_map(Value::I64),
        // Finite doubles only: NaN breaks the PartialEq-based merge check.
        (-1.0e12f64..1.0e12).prop_map(Value::F64),
        "[a-zA-Z0-9 ]{0,32}".prop_map(Value::Str),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Value::Blob),
        proptest::collection::vec(any::<i32>(), 0..16).prop_map(Value::I32List),
        proptest::collection::vec("[a-z]{0,8}".prop_map(String::from), 0..8)
            .prop_map(Value::StrList),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    arb_leaf_value().prop_recursive(3, 64, 8, |inner| {
        proptest::collection::btree_map("[a-z_]{1,12}", inner, 0..8)
            .prop_map(|m| Value::Nested(m.into_iter().collect()))
    })
}

fn arb_bundle() -> impl Strategy<Value = Bundle> {
    proptest::collection::btree_map("[a-z_:.]{1,16}", arb_value(), 0..12)
        .prop_map(|m| m.into_iter().collect())
}

proptest! {
    #[test]
    fn parcel_size_is_monotone_under_insertion(
        bundle in arb_bundle(),
        key in "[a-z]{1,8}",
        value in arb_leaf_value(),
    ) {
        let before = bundle.parcel_size();
        let mut grown = bundle.clone();
        let replaced = grown.put(&key, value);
        // Inserting a NEW key can only grow the flattened size.
        if replaced.is_none() {
            prop_assert!(grown.parcel_size() > before);
        }
    }

    #[test]
    fn merge_is_idempotent(bundle in arb_bundle()) {
        let mut merged = bundle.clone();
        merged.merge(bundle.clone());
        prop_assert_eq!(merged, bundle);
    }

    #[test]
    fn iteration_order_is_sorted(bundle in arb_bundle()) {
        let keys: Vec<&str> = bundle.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        prop_assert_eq!(keys, sorted);
    }
}
