//! Property tests: Bundle/Parcel flattening is lossless and sizes are
//! monotone.

use droidsim_bundle::{Bundle, Parcel, ParcelReader, Value};
use proptest::prelude::*;

fn arb_leaf_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<bool>().prop_map(Value::Bool),
        any::<i32>().prop_map(Value::I32),
        any::<i64>().prop_map(Value::I64),
        // Finite doubles only: NaN breaks PartialEq-based round-trip checks.
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
    fn parcel_round_trip_is_lossless(bundle in arb_bundle()) {
        let mut parcel = Parcel::new();
        parcel.write_bundle(&bundle);
        let mut reader = parcel.into_reader();
        let restored = reader.read_bundle().expect("well-formed parcel parses");
        prop_assert_eq!(restored, bundle);
        prop_assert_eq!(reader.remaining(), 0);
    }

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
    fn truncation_never_panics_and_never_misparses(
        bundle in arb_bundle(),
        cut_fraction in 0.0f64..1.0,
    ) {
        // A parcel cut at ANY byte boundary must either fail to parse or
        // parse to the ORIGINAL bundle (a cut in trailing slack) — never
        // panic, hang, or yield corrupt data silently accepted as equal.
        let mut parcel = Parcel::new();
        parcel.write_bundle(&bundle);
        let bytes = parcel.into_bytes();
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        let truncated = bytes[..cut].to_vec();
        let mut reader = droidsim_bundle::parcel::ParcelReader::from_bytes(truncated);
        match reader.read_bundle() {
            Err(_) => {} // expected for almost every cut
            Ok(parsed) => {
                // Only possible when the cut removed nothing semantic —
                // i.e. the parse consumed exactly the cut prefix AND the
                // result round-trips to the same bytes.
                prop_assert_eq!(&parsed, &bundle, "silent corruption at cut {}", cut);
            }
        }
    }

    #[test]
    fn malformed_bytes_never_panic(
        // Half the bytes are small, so lengths and tags often look valid
        // and the reader gets past the first prefix.
        bytes in proptest::collection::vec(prop_oneof![0u8..10, any::<u8>()], 0..256),
    ) {
        // Ok or Err are both fine; a panic fails the test.
        let _ = ParcelReader::from_bytes(bytes).read_bundle();
    }

    #[test]
    fn one_byte_corruptions_never_panic(
        bundle in arb_bundle(),
        at in 0.0f64..1.0,
        byte in any::<u8>(),
    ) {
        let mut parcel = Parcel::new();
        parcel.write_bundle(&bundle);
        let mut bytes = parcel.into_bytes();
        let i = ((bytes.len() as f64) * at) as usize;
        bytes[i] = byte;
        let _ = ParcelReader::from_bytes(bytes).read_bundle();
    }

    #[test]
    fn wire_round_trip_via_bytes(bundle in arb_bundle()) {
        let mut parcel = Parcel::new();
        parcel.write_bundle(&bundle);
        let bytes = parcel.into_bytes();
        let mut reader = droidsim_bundle::parcel::ParcelReader::from_bytes(bytes);
        prop_assert_eq!(reader.read_bundle().unwrap(), bundle);
    }

    #[test]
    fn iteration_order_is_sorted(bundle in arb_bundle()) {
        let keys: Vec<&str> = bundle.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        prop_assert_eq!(keys, sorted);
    }
}
