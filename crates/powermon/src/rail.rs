//! DC power rails and the splitting of a device's draw across them.

use serde::{Deserialize, Serialize};

/// One DC rail feeding a device (e.g. "12V EPS", "PCIe slot", "8-pin").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rail {
    /// Human-readable name.
    pub name: String,
    /// Nominal voltage, Volts (PowerMon channels measure V and I
    /// separately; simulated voltage jitters around this value).
    pub nominal_volts: f64,
    /// Fraction of the device's total draw this rail nominally carries.
    pub weight: f64,
    /// Hard limit this rail can deliver, Watts (e.g. 75 W for a PCIe slot);
    /// draw beyond the limit spills onto the remaining rails.
    pub max_watts: Option<f64>,
}

impl Rail {
    /// Convenience constructor for an unlimited rail.
    pub fn new(name: impl Into<String>, nominal_volts: f64, weight: f64) -> Self {
        Self { name: name.into(), nominal_volts, weight, max_watts: None }
    }

    /// Convenience constructor for a current-limited rail.
    pub fn limited(name: impl Into<String>, nominal_volts: f64, weight: f64, max_watts: f64) -> Self {
        Self { name: name.into(), nominal_volts, weight, max_watts: Some(max_watts) }
    }
}

/// How a device's total instantaneous power divides across its rails.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RailSplit {
    rails: Vec<Rail>,
}

impl RailSplit {
    /// Creates a split; weights are normalized internally.
    ///
    /// # Panics
    /// Panics if no rails are given or weights are not positive/finite.
    pub fn new(rails: Vec<Rail>) -> Self {
        assert!(!rails.is_empty(), "need at least one rail");
        assert!(
            rails.iter().all(|r| r.weight.is_finite() && r.weight > 0.0),
            "rail weights must be positive"
        );
        Self { rails }
    }

    /// A single unlimited rail carrying everything — the setup for the
    /// mobile dev boards (system-level measurement through one power brick).
    pub fn single(name: impl Into<String>, volts: f64) -> Self {
        Self::new(vec![Rail::new(name, volts, 1.0)])
    }

    /// The rails.
    pub fn rails(&self) -> &[Rail] {
        &self.rails
    }

    /// Splits total power `watts` across the rails: nominal weights first,
    /// then any rail over its limit is clamped and the excess is
    /// redistributed over unclamped rails (proportionally to weight).
    ///
    /// Returns per-rail wattages in rail order. If every rail is clamped and
    /// demand still exceeds the total limit, the remainder is assigned to
    /// the last rail (the measurement must still account for all power).
    pub fn split(&self, watts: f64) -> Vec<f64> {
        let mut alloc = vec![0.0; self.rails.len()];
        self.split_into(watts, &mut alloc);
        alloc
    }

    /// [`RailSplit::split`] into a caller-owned buffer, one slot per rail,
    /// so a sampling loop can split every sample without allocating.
    ///
    /// # Panics
    /// Panics if `alloc.len()` differs from the rail count or `watts` is
    /// negative or not finite.
    pub fn split_into(&self, watts: f64, alloc: &mut [f64]) {
        assert!(watts >= 0.0 && watts.is_finite(), "power must be non-negative");
        assert_eq!(alloc.len(), self.rails.len(), "one output slot per rail");
        let total_weight: f64 = self.rails.iter().map(|r| r.weight).sum();
        for (a, r) in alloc.iter_mut().zip(&self.rails) {
            *a = watts * r.weight / total_weight;
        }
        // Iteratively clamp over-limit rails, spilling to the rest.
        for _ in 0..self.rails.len() {
            let mut excess = 0.0;
            let mut free_weight = 0.0;
            for (a, r) in alloc.iter_mut().zip(&self.rails) {
                if let Some(max) = r.max_watts {
                    if *a > max {
                        excess += *a - max;
                        *a = max;
                    } else if *a < max {
                        free_weight += r.weight;
                    }
                } else {
                    free_weight += r.weight;
                }
            }
            if excess <= 1e-12 {
                break;
            }
            if free_weight == 0.0 {
                // Nowhere to spill: account on the last rail regardless.
                *alloc.last_mut().expect("non-empty") += excess;
                break;
            }
            for (a, r) in alloc.iter_mut().zip(&self.rails) {
                let under_limit = r.max_watts.is_none_or(|m| *a < m);
                if under_limit {
                    *a += excess * r.weight / free_weight;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_split_without_limits() {
        let s = RailSplit::new(vec![
            Rail::new("a", 12.0, 3.0),
            Rail::new("b", 12.0, 1.0),
        ]);
        let alloc = s.split(100.0);
        assert!((alloc[0] - 75.0).abs() < 1e-12);
        assert!((alloc[1] - 25.0).abs() < 1e-12);
    }

    #[test]
    fn split_conserves_power() {
        let s = RailSplit::new(vec![
            Rail::limited("slot", 12.0, 1.0, 75.0),
            Rail::limited("6pin", 12.0, 1.0, 75.0),
            Rail::new("8pin", 12.0, 2.0),
        ]);
        for w in [0.0, 10.0, 150.0, 250.0, 400.0] {
            let total: f64 = s.split(w).iter().sum();
            assert!((total - w).abs() < 1e-9, "w={w} total={total}");
        }
    }

    #[test]
    fn slot_limit_spills_to_connectors() {
        // GPU drawing 300 W with a 75 W slot: slot clamps, connectors absorb.
        let s = RailSplit::new(vec![
            Rail::limited("slot", 12.0, 1.0, 75.0),
            Rail::new("8pin", 12.0, 1.0),
        ]);
        let alloc = s.split(300.0);
        assert!((alloc[0] - 75.0).abs() < 1e-9);
        assert!((alloc[1] - 225.0).abs() < 1e-9);
    }

    #[test]
    fn all_limited_overflow_lands_on_last_rail() {
        let s = RailSplit::new(vec![
            Rail::limited("a", 12.0, 1.0, 10.0),
            Rail::limited("b", 12.0, 1.0, 10.0),
        ]);
        let alloc = s.split(50.0);
        assert!((alloc[0] - 10.0).abs() < 1e-9);
        assert!((alloc[1] - 40.0).abs() < 1e-9);
    }

    #[test]
    fn single_rail_takes_everything() {
        let s = RailSplit::single("brick", 5.0);
        assert_eq!(s.split(7.5), vec![7.5]);
        assert_eq!(s.rails().len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one rail")]
    fn empty_rails_rejected() {
        let _ = RailSplit::new(vec![]);
    }
}
