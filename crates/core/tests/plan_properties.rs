//! Property sweep: the plan-compiled batch kernels are bit-identical to the
//! per-point scalar model across randomized capped/uncapped machines and
//! adversarial inputs (0, ±∞, NaN, the exact balance points), serial or
//! parallel, at any split.
//!
//! **ULP policy vs. the paper's formulas.** The canonical kernels hoist
//! divisions by plan constants into reciprocals (`op · (1/Δπ)` for the
//! paper's `op / Δπ`) and use `mul_add` where eq. 7 writes `π_mem +
//! π_flop·I/B_τ`. Against a literal transcription of the paper's arithmetic
//! this shifts results by at most [`MAX_ULP_VS_REPLICA`] units in the last
//! place — asserted below, not assumed. Between any two paths *inside* the
//! crate (scalar model, plan point kernels, batch, serial, parallel) the
//! contract stays exact `to_bits()` equality: they all execute the one
//! canonical operation sequence.
//!
//! Deterministic hand-rolled generators (an LCG) instead of `proptest` so
//! the sweep runs identically everywhere and failures print a plain seed.

use archline_core::plan::PAR_THRESHOLD;
use archline_core::power::sample_intensities;
use archline_core::{EnergyRoofline, MachineParams, Metric, PowerCap, Regime, RooflinePlan, Workload};

/// The documented bound on the reciprocal-hoist + `mul_add` rewrites,
/// measured against an independent replica of the paper's division-form
/// arithmetic. One correctly-rounded operation replaced per kernel → a
/// couple of ULP worst case; 4 leaves headroom without hiding a real bug
/// (any algebraic mistake is off by *orders of magnitude*, not ULPs).
const MAX_ULP_VS_REPLICA: u64 = 4;

/// Maps an `f64` to a key on which ULP distance is plain integer distance:
/// negatives are bit-flipped, positives get the sign bit set, making the
/// key monotone over the whole ordered double range.
fn ulp_key(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// ULP distance between two doubles; NaN equals NaN (same "value" for the
/// purposes of the replica comparison), NaN vs non-NaN is `u64::MAX`.
fn ulp_diff(a: f64, b: f64) -> u64 {
    if a.is_nan() || b.is_nan() {
        return if a.is_nan() && b.is_nan() { 0 } else { u64::MAX };
    }
    ulp_key(a).abs_diff(ulp_key(b))
}

/// Minimal xorshift-multiply LCG; uniform in [0, 1).
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        // splitmix64 step: good enough mixing for parameter sampling.
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Log-uniform in [lo, hi].
    fn log_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo * (hi / lo).powf(self.unit())
    }
}

/// A random plausible machine; capped with probability ~1/2. Retries until
/// validation passes (the ranges below essentially always do).
fn random_params(rng: &mut Lcg) -> MachineParams {
    loop {
        let flops_per_sec = rng.log_range(1e9, 1e13);
        let bytes_per_sec = rng.log_range(1e8, 1e12);
        let energy_per_flop = rng.log_range(1e-12, 1e-9);
        let energy_per_byte = rng.log_range(1e-12, 1e-9);
        let const_power = rng.log_range(0.1, 300.0);
        let capped = rng.unit() < 0.5;
        let pi_f = flops_per_sec * energy_per_flop;
        let pi_m = bytes_per_sec * energy_per_byte;
        let cap = if capped {
            // Between the single-pipeline powers and their sum, so all
            // three regimes exist for some machines.
            PowerCap::Capped(pi_f.max(pi_m) * (0.5 + rng.unit()))
        } else {
            PowerCap::Uncapped
        };
        let p = MachineParams {
            time_per_flop: 1.0 / flops_per_sec,
            time_per_byte: 1.0 / bytes_per_sec,
            energy_per_flop,
            energy_per_byte,
            const_power,
            cap,
        };
        if p.validate().is_ok() {
            return p;
        }
    }
}

/// Literal transcription of the paper's formulas, division form (`op / Δπ`,
/// with the historical `is_infinite` uncapped branch) — the ULP-policy
/// reference, deliberately *not* sharing arithmetic with the crate.
fn replica_time_energy(p: &MachineParams, flops: f64, bytes: f64) -> (f64, f64) {
    let t_flop = flops * p.time_per_flop;
    let t_mem = bytes * p.time_per_byte;
    let op = flops * p.energy_per_flop + bytes * p.energy_per_byte;
    let t = t_flop.max(t_mem).max(op / p.cap.watts());
    (t, op + p.const_power * t)
}

#[test]
fn batch_kernels_bit_identical_to_scalar_across_random_machines() {
    let mut rng = Lcg(0xA5A5_0001);
    for trial in 0..200 {
        let params = random_params(&mut rng);
        let model = EnergyRoofline::new(params);
        let plan = RooflinePlan::new(params);
        let n = 64;
        let flops: Vec<f64> = (0..n).map(|_| rng.log_range(1e6, 1e12)).collect();
        let bytes: Vec<f64> = (0..n).map(|_| rng.log_range(1e6, 1e12)).collect();
        let (mut t_out, mut e_out, mut p_out) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let mut r_out = vec![Regime::MemoryBound; n];
        plan.evaluate_batch(&flops, &bytes, &mut t_out, &mut e_out, &mut p_out, &mut r_out);
        for k in 0..n {
            let w = Workload::new(flops[k], bytes[k]);
            let (rt, re) = replica_time_energy(&params, flops[k], bytes[k]);
            // Exact against the scalar model (same canonical arithmetic) …
            assert_eq!(t_out[k].to_bits(), model.time(&w).to_bits(), "trial {trial} time");
            assert_eq!(e_out[k].to_bits(), model.energy(&w).to_bits(), "trial {trial} energy");
            // … ULP-bounded against the paper's division form (see the
            // module-level ULP policy).
            let dt = ulp_diff(t_out[k], rt);
            let de = ulp_diff(e_out[k], re);
            assert!(
                dt <= MAX_ULP_VS_REPLICA,
                "trial {trial} time vs replica: {dt} ULP ({} vs {rt})",
                t_out[k]
            );
            assert!(
                de <= MAX_ULP_VS_REPLICA,
                "trial {trial} energy vs replica: {de} ULP ({} vs {re})",
                e_out[k]
            );
            let power = e_out[k] / t_out[k];
            assert_eq!(p_out[k].to_bits(), power.to_bits(), "trial {trial} fused power");
            let regime = model.regime_at(flops[k] / bytes[k]);
            assert_eq!(r_out[k], regime, "trial {trial} fused regime");
        }
    }
}

#[test]
fn intensity_kernels_bit_identical_on_adversarial_points() {
    let mut rng = Lcg(0xA5A5_0002);
    for trial in 0..200 {
        let params = random_params(&mut rng);
        let model = EnergyRoofline::new(params);
        let plan = RooflinePlan::new(params);
        let b = plan.balances();
        // 0, ∞, the exact balance points, their neighborhoods, and a few
        // random intensities.
        let mut xs = vec![0.0, f64::INFINITY, b.time];
        for v in [b.lower, b.upper] {
            if v.is_finite() && v > 0.0 {
                xs.extend([v, v * (1.0 - 1e-15), v * (1.0 + 1e-15)]);
            }
        }
        for _ in 0..8 {
            xs.push(rng.log_range(1e-4, 1e6));
        }
        let mut power = vec![0.0; xs.len()];
        plan.avg_power_batch(&xs, &mut power);
        for (k, &x) in xs.iter().enumerate() {
            assert_eq!(
                power[k].to_bits(),
                model.avg_power_at(x).to_bits(),
                "trial {trial}, I = {x}"
            );
            assert!(power[k].is_finite(), "trial {trial}: non-finite power at I = {x}");
        }
        // The fused power+regime pass: the same power curve, and the regimes.
        let mut pw = vec![0.0; xs.len()];
        let mut regime = vec![Regime::MemoryBound; xs.len()];
        plan.power_regime_batch(&xs, &mut pw, &mut regime);
        assert!(pw.iter().zip(&power).all(|(a, b)| a.to_bits() == b.to_bits()));
        for (k, &x) in xs.iter().enumerate() {
            assert_eq!(regime[k], model.regime_at(x), "trial {trial}, I = {x}");
        }
        // perf/energy-eff require positive finite intensity.
        let pos: Vec<f64> = xs.iter().copied().filter(|x| *x > 0.0 && x.is_finite()).collect();
        let mut perf = vec![0.0; pos.len()];
        let mut eff = vec![0.0; pos.len()];
        plan.perf_batch(&pos, &mut perf);
        plan.energy_eff_batch(&pos, &mut eff);
        for (k, &x) in pos.iter().enumerate() {
            assert_eq!(perf[k].to_bits(), model.perf_at(x).to_bits(), "trial {trial}");
            assert_eq!(eff[k].to_bits(), model.energy_eff_at(x).to_bits(), "trial {trial}");
        }
        // … and the fused efficiency pass matches all three curves.
        let (mut f2, mut e2, mut p2) = (vec![0.0; pos.len()], vec![0.0; pos.len()], vec![0.0; pos.len()]);
        plan.efficiency_batch(&pos, &mut f2, &mut e2, &mut p2);
        for (k, &x) in pos.iter().enumerate() {
            assert_eq!(f2[k].to_bits(), perf[k].to_bits(), "trial {trial}");
            assert_eq!(e2[k].to_bits(), eff[k].to_bits(), "trial {trial}");
            assert_eq!(p2[k].to_bits(), model.avg_power_at(x).to_bits(), "trial {trial}");
        }
    }
}

/// Regimes exactly *at* the balance boundaries: `I = B⁻` classifies
/// memory-bound, `I = B⁺` compute-bound (closed interval ends), interior
/// points cap-bound, and a collapsed interval (uncapped: `B⁻ = B_τ = B⁺`)
/// resolves the tie compute-bound — the historical `if`-chain precedence the
/// branchless table must preserve.
#[test]
fn regime_boundaries_classify_exactly_at_balance() {
    let mut rng = Lcg(0xA5A5_0007);
    for _ in 0..100 {
        let params = random_params(&mut rng);
        let plan = RooflinePlan::new(params);
        let b = plan.balances();
        if b.lower > 0.0 && b.lower < b.upper {
            assert_eq!(plan.regime_at(b.lower), Regime::MemoryBound, "at B- of {b:?}");
        }
        if b.upper.is_finite() && b.lower < b.upper {
            assert_eq!(plan.regime_at(b.upper), Regime::ComputeBound, "at B+ of {b:?}");
        }
        if b.lower == b.upper {
            // Collapsed interval (uncapped machine): >= upper wins the tie.
            assert_eq!(plan.regime_at(b.time), Regime::ComputeBound, "collapsed {b:?}");
        } else if b.lower < b.time && b.time < b.upper {
            assert_eq!(plan.regime_at(b.time), Regime::CapBound, "at B of {b:?}");
        }
        // NaN fails both boundary compares → cap arm, like the branchy form.
        assert_eq!(plan.regime_at(f64::NAN), Regime::CapBound);
    }
}

/// Zero, negative, infinite, and NaN `(W, Q)` points flow through the batch
/// kernels exactly as through the scalar methods — including NaN payloads
/// (compared via `to_bits`; NaN == NaN here).
#[test]
fn degenerate_workload_points_match_scalar_bitwise() {
    let mut rng = Lcg(0xA5A5_0008);
    let specials = [0.0, -0.0, 1.0, -1.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e308, 5e-324];
    let mut flops = Vec::new();
    let mut bytes = Vec::new();
    for &f in &specials {
        for &q in &specials {
            flops.push(f);
            bytes.push(q);
        }
    }
    for _ in 0..23 {
        // Pad past the lane width with ordinary points so the special
        // values land in both the lane blocks and the scalar tail.
        flops.push(rng.log_range(1e3, 1e12));
        bytes.push(rng.log_range(1e3, 1e12));
    }
    for _ in 0..50 {
        let params = random_params(&mut rng);
        let plan = RooflinePlan::new(params);
        let n = flops.len();
        let (mut t, mut e, mut p) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let mut r = vec![Regime::MemoryBound; n];
        plan.evaluate_batch(&flops, &bytes, &mut t, &mut e, &mut p, &mut r);
        for k in 0..n {
            let (st, se, sp, sr) = plan.evaluate(flops[k], bytes[k]);
            let ctx = format!("W = {}, Q = {}", flops[k], bytes[k]);
            assert_eq!(t[k].to_bits(), st.to_bits(), "time, {ctx}");
            assert_eq!(e[k].to_bits(), se.to_bits(), "energy, {ctx}");
            assert_eq!(p[k].to_bits(), sp.to_bits(), "power, {ctx}");
            assert_eq!(r[k], sr, "regime, {ctx}");
        }
    }
}

/// Every batch kernel — including the fused ones — straddled across
/// `PAR_THRESHOLD ± 1`: at `n = PAR_THRESHOLD - 1` the serial path runs, at
/// `n = PAR_THRESHOLD + 1` the executor path runs, and both are bit-identical
/// to the `_serial` twin where one exists (itself checked per-point above),
/// else to a per-point loop over the scalar methods.
#[test]
fn parallel_dispatch_bit_identical_to_serial_above_threshold() {
    let mut rng = Lcg(0xA5A5_0003);
    let params = random_params(&mut rng);
    let plan = RooflinePlan::new(params);
    for n in [PAR_THRESHOLD - 1, PAR_THRESHOLD + 1, PAR_THRESHOLD + 4321] {
        let xs: Vec<f64> = (0..n).map(|_| rng.log_range(1e-3, 1e5)).collect();
        let flops: Vec<f64> = (0..n).map(|_| rng.log_range(1e6, 1e12)).collect();
        let bytes: Vec<f64> = (0..n).map(|_| rng.log_range(1e6, 1e12)).collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let mut a = vec![0.0; n];
        let mut b = vec![0.0; n];
        plan.avg_power_batch(&xs, &mut a);
        plan.avg_power_batch_serial(&xs, &mut b);
        assert_eq!(bits(&a), bits(&b), "avg_power n={n}");

        plan.perf_batch(&xs, &mut a);
        plan.perf_batch_serial(&xs, &mut b);
        assert_eq!(bits(&a), bits(&b), "perf n={n}");

        plan.energy_eff_batch(&xs, &mut a);
        plan.energy_eff_batch_serial(&xs, &mut b);
        assert_eq!(bits(&a), bits(&b), "energy_eff n={n}");

        let power: Vec<f64> = xs.iter().map(|&x| plan.avg_power_at(x)).collect();
        let regimes: Vec<Regime> = xs.iter().map(|&x| plan.regime_at(x)).collect();
        let mut rg_a = vec![Regime::MemoryBound; n];
        plan.power_regime_batch(&xs, &mut a, &mut rg_a);
        assert_eq!(bits(&a), bits(&power), "power_regime p n={n}");
        assert_eq!(rg_a, regimes, "power_regime r n={n}");

        let perf: Vec<f64> = xs.iter().map(|&x| plan.perf_at(x)).collect();
        let eff: Vec<f64> = xs.iter().map(|&x| plan.energy_eff_at(x)).collect();
        let (mut f1, mut g1) = (vec![0.0; n], vec![0.0; n]);
        plan.efficiency_batch(&xs, &mut f1, &mut g1, &mut a);
        assert_eq!(bits(&f1), bits(&perf), "efficiency perf n={n}");
        assert_eq!(bits(&g1), bits(&eff), "efficiency eff n={n}");
        assert_eq!(bits(&a), bits(&power), "efficiency p n={n}");

        let (mut ta, mut ea, mut pa) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let (mut tb, mut eb, mut pb) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let mut rg_b = vec![Regime::MemoryBound; n];
        plan.evaluate_batch(&flops, &bytes, &mut ta, &mut ea, &mut pa, &mut rg_a);
        plan.evaluate_batch_serial(&flops, &bytes, &mut tb, &mut eb, &mut pb, &mut rg_b);
        assert_eq!(bits(&ta), bits(&tb), "evaluate t n={n}");
        assert_eq!(bits(&ea), bits(&eb), "evaluate e n={n}");
        assert_eq!(bits(&pa), bits(&pb), "evaluate p n={n}");
        assert_eq!(rg_a, rg_b, "evaluate r n={n}");
    }
}

/// `sample_intensities` followed by the metric's serial batch kernel: the
/// reference [`RooflinePlan::sweep`] must reproduce bit for bit.
fn grid_then_kernel(plan: &RooflinePlan, metric: Metric, lo: f64, hi: f64, n: usize) -> (Vec<f64>, Vec<f64>) {
    let xs = sample_intensities(lo, hi, n);
    let mut out = vec![0.0; n];
    match metric {
        Metric::Power => plan.avg_power_batch_serial(&xs, &mut out),
        Metric::Performance => plan.perf_batch_serial(&xs, &mut out),
        Metric::EnergyEfficiency => plan.energy_eff_batch_serial(&xs, &mut out),
    }
    (xs, out)
}

const METRICS: [Metric; 3] = [Metric::Power, Metric::Performance, Metric::EnergyEfficiency];

/// The fused sweep at sizes on both sides of `PAR_THRESHOLD` (serial below,
/// parallel chunks at and above) equals the grid followed by the serial
/// kernel, for every metric, on seeded machines and ranges.
#[test]
fn fused_sweep_bit_identical_to_grid_then_serial_kernel() {
    let mut rng = Lcg(0xA5A5_0004);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for n in [2, 3, 257, 4097, PAR_THRESHOLD - 1, PAR_THRESHOLD, PAR_THRESHOLD + 123, 1 << 18] {
        let plan = RooflinePlan::new(random_params(&mut rng));
        let lo = rng.log_range(1e-3, 1.0);
        let hi = rng.log_range(10.0, 1e5);
        for metric in METRICS {
            let (xs, out) = plan.sweep(metric, lo, hi, n);
            let (want_xs, want_out) = grid_then_kernel(&plan, metric, lo, hi, n);
            let ctx = format!("{metric:?} n={n} lo={lo:e} hi={hi:e}");
            assert_eq!(bits(&xs), bits(&want_xs), "grid, {ctx}");
            assert_eq!(bits(&out), bits(&want_out), "values, {ctx}");
        }
    }
}

fn panic_message(f: impl FnOnce()) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).expect_err("must panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// The fused sweep panics with the messages of the grid and of the kernel
/// validation it replaces, including when the last `exp` overflows and the
/// panic comes from a parallel chunk.
#[test]
fn fused_sweep_keeps_the_grid_and_kernel_panic_messages() {
    let plan = RooflinePlan::new(random_params(&mut Lcg(0xA5A5_0005)));
    for metric in METRICS {
        for (lo, hi) in [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (1.0, 1.0), (f64::NAN, 1.0), (1.0, f64::INFINITY)] {
            let msg = panic_message(|| drop(plan.sweep(metric, lo, hi, 16)));
            assert_eq!(msg, "bad intensity range", "{metric:?} lo={lo} hi={hi}");
        }
        for n in [0, 1] {
            let msg = panic_message(|| drop(plan.sweep(metric, 0.1, 10.0, n)));
            assert_eq!(msg, "need at least two samples", "{metric:?} n={n}");
        }
    }

    // A range whose top endpoint is finite but whose last grid point
    // rounds past f64::MAX.
    let lo = [1e-300, 3e-300, 7e-300, 1e-298, 1e-296, 1e-290]
        .into_iter()
        .find(|&lo| [257, PAR_THRESHOLD + 123].iter().all(|&n| {
            sample_intensities(lo, f64::MAX, n).last().is_some_and(|x| x.is_infinite())
        }))
        .expect("a range whose last grid point overflows");
    for n in [257, PAR_THRESHOLD + 123] {
        for metric in [Metric::Performance, Metric::EnergyEfficiency] {
            let msg = panic_message(|| drop(plan.sweep(metric, lo, f64::MAX, n)));
            assert!(msg.starts_with("intensity must be positive and finite"), "{metric:?} n={n}: {msg}");
            let want = panic_message(|| drop(grid_then_kernel(&plan, metric, lo, f64::MAX, n)));
            assert_eq!(msg, want, "{metric:?} n={n}");
        }
        // The power curve validates nothing: an infinite intensity is a
        // value, not a panic, on both paths.
        let (xs, out) = plan.sweep(Metric::Power, lo, f64::MAX, n);
        let (want_xs, want_out) = grid_then_kernel(&plan, Metric::Power, lo, f64::MAX, n);
        assert!(xs.iter().zip(&want_xs).all(|(a, b)| a.to_bits() == b.to_bits()), "power grid n={n}");
        assert!(out.iter().zip(&want_out).all(|(a, b)| a.to_bits() == b.to_bits()), "power n={n}");
    }
}
