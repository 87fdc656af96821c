//! Property-based tests of the measurement chain: the paper's estimators
//! must be accurate and conservative for arbitrary rail topologies and
//! load shapes.

use archline_powermon::{parse_log, write_log, PowerMon2, Rail, RailSplit};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_split() -> impl Strategy<Value = RailSplit> {
    proptest::collection::vec((1.0..20.0f64, 0.1..5.0f64, proptest::bool::ANY), 1..5).prop_map(
        |rails| {
            RailSplit::new(
                rails
                    .into_iter()
                    .enumerate()
                    .map(|(i, (volts, weight, limited))| {
                        if limited {
                            Rail::limited(format!("rail{i}"), volts, weight, 40.0 + volts * 10.0)
                        } else {
                            Rail::new(format!("rail{i}"), volts, weight)
                        }
                    })
                    .collect(),
            )
        },
    )
}

/// Independent replica of the allocating rail split: weights first, then
/// clamp over-limit rails and spill the excess over the rest, with any
/// unplaceable remainder on the last rail.
fn split_replica(split: &RailSplit, watts: f64) -> Vec<f64> {
    let rails = split.rails();
    let total_weight: f64 = rails.iter().map(|r| r.weight).sum();
    let mut alloc: Vec<f64> = rails.iter().map(|r| watts * r.weight / total_weight).collect();
    for _ in 0..rails.len() {
        let (mut excess, mut free_weight) = (0.0, 0.0);
        for (a, r) in alloc.iter_mut().zip(rails) {
            match r.max_watts {
                Some(max) if *a > max => {
                    excess += *a - max;
                    *a = max;
                }
                Some(max) if *a >= max => {}
                _ => free_weight += r.weight,
            }
        }
        if excess <= 1e-12 {
            break;
        }
        if free_weight == 0.0 {
            *alloc.last_mut().unwrap() += excess;
            break;
        }
        for (a, r) in alloc.iter_mut().zip(rails) {
            if r.max_watts.is_none_or(|m| *a < m) {
                *a += excess * r.weight / free_weight;
            }
        }
    }
    alloc
}

/// `split_into` writes exactly what `split` returns and what the replica
/// computes, bit for bit, into a reused buffer.
fn assert_split_into_matches(split: &RailSplit, watts: f64) {
    let mut buf = [f64::NAN; PowerMon2::MAX_CHANNELS];
    let n = split.rails().len();
    split.split_into(watts, &mut buf[..n]);
    let bits = |v: &[f64]| v.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&buf[..n]), bits(&split.split(watts)), "split_into vs split at {watts} W");
    assert_eq!(bits(&buf[..n]), bits(&split_replica(split, watts)), "vs replica at {watts} W");
}

#[test]
fn split_into_matches_split_when_clamping_and_spilling() {
    let slot_and_connector = RailSplit::new(vec![
        Rail::limited("slot", 12.0, 1.0, 75.0),
        Rail::new("8pin", 12.0, 2.0),
    ]);
    let all_limited = RailSplit::new(vec![
        Rail::limited("a", 12.0, 1.0, 10.0),
        Rail::limited("b", 12.0, 3.0, 10.0),
    ]);
    let cascade = RailSplit::new(vec![
        Rail::limited("slot", 12.0, 2.0, 20.0),
        Rail::limited("6pin", 12.0, 1.0, 40.0),
        Rail::new("8pin", 12.0, 1.0),
    ]);
    for split in [&slot_and_connector, &all_limited, &cascade, &RailSplit::single("brick", 5.0)] {
        // Below every limit, at a limit, over one limit (spill), over
        // every limit (remainder on the last rail), and zero.
        for watts in [0.0, 7.5, 20.0, 40.0, 90.0, 225.0, 300.0, 1e4] {
            assert_split_into_matches(split, watts);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn split_into_matches_split(split in arb_split(), watts in 0.0..1000.0f64) {
        assert_split_into_matches(&split, watts);
    }

    #[test]
    fn split_conserves_power(split in arb_split(), watts in 0.0..1000.0f64) {
        let alloc = split.split(watts);
        let total: f64 = alloc.iter().sum();
        prop_assert!((total - watts).abs() < 1e-6, "{total} vs {watts}");
        prop_assert!(alloc.iter().all(|&w| w >= -1e-12));
    }

    #[test]
    fn constant_load_measured_within_percent(split in arb_split(), watts in 1.0..500.0f64, seed in 0u64..100) {
        let dev = PowerMon2::for_rails(&split, watts * 1.5);
        let mut rng = StdRng::seed_from_u64(seed);
        let m = dev.record(&split, |_| watts, 0.5, &mut rng);
        let rel = (m.avg_power() - watts).abs() / watts;
        prop_assert!(rel < 0.02, "measured {} vs true {watts}", m.avg_power());
        // Energy estimator consistent with its definition.
        prop_assert!((m.energy() - m.avg_power() * 0.5).abs() < 1e-9);
    }

    #[test]
    fn sinusoidal_load_average_captured(split in arb_split(), base in 10.0..200.0f64, seed in 0u64..50) {
        // Mean of base + 0.2·base·sin(2π·13t) over whole periods is base.
        let dev = PowerMon2::for_rails(&split, base * 1.6);
        let mut rng = StdRng::seed_from_u64(seed);
        let m = dev.record(
            &split,
            |t| base * (1.0 + 0.2 * (2.0 * std::f64::consts::PI * 13.0 * t).sin()),
            1.0,
            &mut rng,
        );
        let rel = (m.avg_power() - base).abs() / base;
        prop_assert!(rel < 0.03, "measured {} vs {base}", m.avg_power());
    }

    #[test]
    fn log_round_trip_is_lossless(split in arb_split(), watts in 1.0..300.0f64, seed in 0u64..50) {
        let dev = PowerMon2::for_rails(&split, watts * 1.5);
        let mut rng = StdRng::seed_from_u64(seed);
        let m = dev.record(&split, |t| watts * (1.0 + 0.1 * (t * 50.0).cos()), 0.05, &mut rng);
        let back = parse_log(&write_log(&m)).expect("parse back");
        prop_assert_eq!(back.avg_power(), m.avg_power());
        prop_assert_eq!(back.energy(), m.energy());
        prop_assert_eq!(back.rail_names, m.rail_names);
    }
}
