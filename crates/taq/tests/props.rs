//! Property-based tests for the market-data substrate.

use proptest::prelude::*;

use taq::dataset::DayData;
use taq::io;
use taq::quote::Quote;
use taq::symbol::Symbol;
use taq::time::{Timestamp, MILLIS_PER_SESSION};

prop_compose! {
    fn arb_quote()(
        millis in 0u32..MILLIS_PER_SESSION,
        sym in 0u16..8,
        bid in 1u32..99_000,
        spread in 1u32..500,
        bid_size in 1u16..500,
        ask_size in 1u16..500,
    ) -> Quote {
        Quote {
            ts: Timestamp::new(0, millis),
            symbol: Symbol(sym),
            bid_cents: bid,
            ask_cents: bid + spread,
            bid_size,
            ask_size,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn binary_round_trip_arbitrary_tapes(
        quotes in proptest::collection::vec(arb_quote(), 0..200),
    ) {
        let day = DayData::new(0, quotes, 8, vec![]);
        let encoded = io::encode_binary(&day);
        let decoded = io::decode_binary(&encoded, 8).unwrap();
        prop_assert_eq!(decoded.quotes(), day.quotes());
    }

    #[test]
    fn day_index_partitions_the_tape(
        quotes in proptest::collection::vec(arb_quote(), 0..150),
    ) {
        let day = DayData::new(0, quotes, 8, vec![]);
        let total: usize = (0..8).map(|s| day.for_symbol(Symbol(s)).count()).sum();
        prop_assert_eq!(total, day.len());
        // Per-symbol views are time-ordered and correctly labelled.
        for s in 0..8u16 {
            let mut prev = None;
            for q in day.for_symbol(Symbol(s)) {
                prop_assert_eq!(q.symbol, Symbol(s));
                if let Some(p) = prev {
                    prop_assert!(q.ts >= p);
                }
                prev = Some(q.ts);
            }
        }
    }

    #[test]
    fn interval_assignment_is_consistent(
        millis in 0u32..MILLIS_PER_SESSION,
        dt in prop::sample::select(vec![15u32, 30, 60, 300]),
    ) {
        let ts = Timestamp::new(0, millis);
        let s = ts.interval(dt);
        prop_assert!(s < (taq::time::SECONDS_PER_SESSION / dt) as usize);
        // The interval's second range contains the timestamp.
        prop_assert!(ts.seconds() >= s as u32 * dt);
        prop_assert!(ts.seconds() < (s as u32 + 1) * dt);
    }

    #[test]
    fn midpoint_between_bid_and_ask(q in arb_quote()) {
        prop_assert!(q.midpoint() >= q.bid());
        prop_assert!(q.midpoint() <= q.ask());
        prop_assert!(q.is_well_formed());
        prop_assert!(q.spread() > 0.0);
    }
}
