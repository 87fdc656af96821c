//! Plan-compiled batch evaluation of the roofline model.
//!
//! Every hot path in the workspace — fit objectives, fig4/fig5 intensity
//! sweeps, crossover scans, the simulated-machine fast path — reduces to
//! evaluating eqs. 1–7 over many `(W, Q)` points against *one* fixed
//! [`MachineParams`]. The scalar methods re-derive the balance interval and
//! the `π` components on every call; a [`RooflinePlan`] derives them once and
//! exposes SoA batch kernels (`avg_power_batch`, `perf_batch`, `energy_eff_batch`, the
//! fused [`RooflinePlan::evaluate_batch`], `power_regime_batch`, `efficiency_batch`)
//! that write into caller-provided output buffers and parallelize over
//! chunks via `archline-par` above a size threshold, plus
//! [`RooflinePlan::sweep`], which builds a log-spaced intensity grid and
//! evaluates one metric over it in the same chunked pass.
//!
//! **Kernel shape.** The batch kernels are allocation-free, branchless
//! lockstep streams of pure multiply/`mul_add`/`max`/compare-select
//! arithmetic that LLVM autovectorizes into wide unrolled lanes (8 × `f64`
//! per 512-bit register here — no intrinsics, no nightly `std::simd`).
//! Divisions by *plan constants* are hoisted into reciprocals precomputed
//! at construction ([`RooflinePlan::try_new`]); only divisions by per-point
//! *data* (`E/T`, `B·π_mem/I`, `W/Q`) remain in the loops. Regime
//! classification is a branchless two-compare table lookup, emitted as a
//! *separate* byte-store pass in the fused kernels so the f64 passes stay
//! shuffle-free (hand-chunked fixed-width blocks with interleaved byte
//! stores measured ~3× slower — see EXPERIMENTS.md, "Kernel optimization").
//!
//! **Bit-identity contract:** every batch kernel performs the exact same
//! floating-point operations, in the same order, as the corresponding
//! single-point method on this type (and therefore on
//! [`crate::EnergyRoofline`], whose scalar methods delegate here). Batch
//! output is `to_bits()`-identical to a per-point scalar loop, serial or
//! parallel, at any split (property-tested in `tests/plan_properties.rs`).
//!
//! **ULP policy vs. the paper's formulas:** the canonical arithmetic uses
//! `op · (1/Δπ)` where the paper writes `op / Δπ`, and
//! `fma(π_flop/B_τ, I, π_mem)` where eq. 7 writes `π_mem + π_flop·I/B_τ`.
//! Both rewrites are documented, ULP-bounded deviations from a literal
//! transcription (at most a few units in the last place; the property suite
//! asserts an explicit bound against an independent replica). They are *not*
//! deviations between any two paths in this crate — scalar, batch, serial,
//! and parallel all share the canonical form bit-for-bit.

use archline_par::{adaptive_grain, parallel_chunks_mut, parallel_jobs};

use crate::crossover::Metric;
use crate::error::ModelError;
use crate::params::{Balances, MachineParams};
use crate::power::{log_point, log_range, Regime};

/// Batch sizes at or above this go through `archline-par`; smaller inputs
/// are evaluated serially (spawn/steal overhead would dominate). The chunk
/// length itself adapts to input size and worker count — see
/// [`archline_par::adaptive_grain`].
pub const PAR_THRESHOLD: usize = 1 << 15;

/// The chunk grain when a batch is parallelized, `None` when it runs
/// serially.
#[inline]
fn par_grain(len: usize) -> Option<usize> {
    (len >= PAR_THRESHOLD).then(|| adaptive_grain(len))
}

/// A [`MachineParams`] precompiled for repeated evaluation: the derived
/// balance interval `[B⁻_τ, B_τ, B⁺_τ]`, the power components
/// `π_flop`/`π_mem`, the cap in Watts, and the reciprocal/product constants
/// the kernels need (`1/Δπ`, `π_mem·B_τ`, `π_flop/B_τ`) are computed once at
/// construction instead of once per model query.
///
/// Construct with [`RooflinePlan::new`] (panicking) or
/// [`RooflinePlan::try_new`] (fallible), or borrow one from an
/// [`crate::EnergyRoofline`] via [`crate::EnergyRoofline::plan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RooflinePlan {
    params: MachineParams,
    balances: Balances,
    pi_flop: f64,
    pi_mem: f64,
    cap_watts: f64,
    /// `1/Δπ`; `+0.0` when uncapped (`1/∞`), which makes the cap term of the
    /// time roofline vanish exactly as the division form did.
    inv_cap: f64,
    /// `π_mem · B_τ` — the numerator of eq. 7's compute-bound tail. Hoisting
    /// the product is bit-identical to the left-associated scalar form
    /// `π_mem · B_τ / I`.
    pim_btime: f64,
    /// `π_flop / B_τ` — the slope of eq. 7's memory-bound ramp.
    pif_over_btime: f64,
}

impl RooflinePlan {
    /// Precompiles validated machine parameters.
    ///
    /// # Panics
    /// Panics if the parameters do not validate; use
    /// [`RooflinePlan::try_new`] for fallible construction.
    pub fn new(params: MachineParams) -> Self {
        Self::try_new(params).expect("invalid machine parameters")
    }

    /// Precompiles machine parameters, rejecting invalid ones.
    pub fn try_new(params: MachineParams) -> Result<Self, ModelError> {
        params.validate()?;
        let balances = params.balances();
        let pi_flop = params.flop_power();
        let pi_mem = params.mem_power();
        let cap_watts = params.cap.watts();
        Ok(Self {
            params,
            balances,
            pi_flop,
            pi_mem,
            cap_watts,
            inv_cap: 1.0 / cap_watts,
            pim_btime: pi_mem * balances.time,
            pif_over_btime: pi_flop / balances.time,
        })
    }

    /// The underlying machine constants.
    pub fn params(&self) -> &MachineParams {
        &self.params
    }

    /// The precompiled balance interval (paper eqs. 5–6).
    pub fn balances(&self) -> Balances {
        self.balances
    }

    // ------------------------------------------------------------------
    // Single-point kernels — the canonical arithmetic. Every batch loop
    // calls exactly these, so batch output is bit-identical to a scalar
    // loop by construction.
    // ------------------------------------------------------------------

    /// Best-case execution time `T(W,Q)` (paper eq. 3), with the cap term
    /// as `op · (1/Δπ)` (see the module-level ULP policy).
    #[inline(always)]
    pub fn time(&self, flops: f64, bytes: f64) -> f64 {
        let t_flop = flops * self.params.time_per_flop;
        let t_mem = bytes * self.params.time_per_byte;
        let t_cap = self.operation_energy(flops, bytes) * self.inv_cap; // 0 when uncapped
        t_flop.max(t_mem).max(t_cap)
    }

    /// Marginal operation energy `W·ε_flop + Q·ε_mem`.
    #[inline(always)]
    pub fn operation_energy(&self, flops: f64, bytes: f64) -> f64 {
        // lint:allow(float-discipline, reason = "canonical form of paper eq. 1: the batch kernels replay these exact ops, so mul_add here would fork the bit-identity contract")
        flops * self.params.energy_per_flop + bytes * self.params.energy_per_byte
    }

    /// Total energy `E(W,Q)` (paper eq. 1).
    #[inline(always)]
    pub fn energy(&self, flops: f64, bytes: f64) -> f64 {
        // lint:allow(float-discipline, reason = "canonical form of paper eq. 1: the batch kernels replay these exact ops, so mul_add here would fork the bit-identity contract")
        self.operation_energy(flops, bytes) + self.params.const_power * self.time(flops, bytes)
    }

    /// `(T, E)` fused: the operation energy and time are computed once and
    /// shared, bit-identical to calling [`RooflinePlan::time`] and
    /// [`RooflinePlan::energy`] separately.
    #[inline(always)]
    pub fn time_energy(&self, flops: f64, bytes: f64) -> (f64, f64) {
        let t_flop = flops * self.params.time_per_flop;
        let t_mem = bytes * self.params.time_per_byte;
        let op = self.operation_energy(flops, bytes);
        let t = t_flop.max(t_mem).max(op * self.inv_cap);
        // lint:allow(float-discipline, reason = "must round exactly like energy() above for the fused-vs-separate bit-identity tests; see the module ULP policy")
        (t, op + self.params.const_power * t)
    }

    /// Average power `P̄ = E/T` for a concrete workload.
    #[inline(always)]
    pub fn avg_power(&self, flops: f64, bytes: f64) -> f64 {
        let (t, e) = self.time_energy(flops, bytes);
        e / t
    }

    /// Fully fused point evaluation — `(T, E, P̄ = E/T, regime(W/Q))` — the
    /// scalar anchor of [`RooflinePlan::evaluate_batch`].
    #[inline(always)]
    pub fn evaluate(&self, flops: f64, bytes: f64) -> (f64, f64, f64, Regime) {
        let (t, e) = self.time_energy(flops, bytes);
        (t, e, e / t, self.regime_at(flops / bytes))
    }

    /// Average power at intensity `I`, closed form (paper eq. 7).
    ///
    /// Branchless: both piecewise arms are computed unconditionally (cheap
    /// selects instead of branches, so the batch loop vectorizes). The
    /// compute-bound arm's `π_mem·B_τ/I` evaluates to `+0.0` at `I = ∞`,
    /// which makes the historical `is_infinite` special case bit-identical
    /// without the branch. A NaN intensity fails both comparisons and takes
    /// the cap arm, exactly as the branchy form did.
    #[inline(always)]
    pub fn avg_power_at(&self, intensity: f64) -> f64 {
        let hi = self.pi_flop + self.pim_btime / intensity;
        let lo = self.pif_over_btime.mul_add(intensity, self.pi_mem);
        let piecewise = if intensity >= self.balances.upper {
            hi
        } else if intensity <= self.balances.lower {
            lo
        } else {
            self.cap_watts
        };
        self.params.const_power + piecewise
    }

    /// Operating regime at intensity `I` — a branchless two-compare table
    /// lookup. Matches the historical `if` chain exactly, including its
    /// precedence when the balance interval is collapsed (`I ≥ B⁺` wins) and
    /// its NaN behavior (both compares false → cap-bound).
    #[inline(always)]
    pub fn regime_at(&self, intensity: f64) -> Regime {
        const LUT: [Regime; 4] = [
            Regime::CapBound,     // neither compare: strictly inside the interval (or NaN)
            Regime::MemoryBound,  // I ≤ B⁻ only
            Regime::ComputeBound, // I ≥ B⁺ only
            Regime::ComputeBound, // both (collapsed interval): ≥ B⁺ takes precedence
        ];
        let hi = usize::from(intensity >= self.balances.upper);
        let lo = usize::from(intensity <= self.balances.lower);
        LUT[(hi << 1) | lo]
    }

    /// Performance at intensity `I` in flop/s (`W/T` at unit work).
    ///
    /// # Panics
    /// Panics if `intensity` is not strictly positive and finite (matching
    /// [`crate::Workload::from_intensity`]).
    #[inline]
    pub fn perf_at(&self, intensity: f64) -> f64 {
        validate_intensity(intensity);
        self.perf_point(intensity)
    }

    /// Energy-efficiency at intensity `I` in flop/J (`W/E` at unit work).
    ///
    /// # Panics
    /// Panics if `intensity` is not strictly positive and finite.
    #[inline]
    pub fn energy_eff_at(&self, intensity: f64) -> f64 {
        validate_intensity(intensity);
        self.energy_eff_point(intensity)
    }

    #[inline(always)]
    fn perf_point(&self, intensity: f64) -> f64 {
        1.0 / self.time(1.0, 1.0 / intensity)
    }

    #[inline(always)]
    fn energy_eff_point(&self, intensity: f64) -> f64 {
        1.0 / self.energy(1.0, 1.0 / intensity)
    }

    // ------------------------------------------------------------------
    // Serial slice kernels: plain lockstep (zip) streams over the point
    // kernels. LLVM autovectorizes these into wide unrolled lanes;
    // measured faster than hand-chunked fixed-width blocks, whose mixed
    // f64/byte stores compiled into shuffle-heavy code (see
    // EXPERIMENTS.md, "Kernel optimization"). Kernels with a byte-typed
    // regime output split it into a second pass over the same inputs so
    // the f64 arithmetic vectorizes cleanly — per-element operations and
    // their order are unchanged, so batch output stays bit-identical to
    // the per-point scalar methods.
    //
    // `#[inline(never)]`: each kernel gets exactly one out-of-line copy.
    // When these loops inline into large callers the vectorizer emits a
    // markedly worse body under register pressure (measured ~3.5x slower
    // for the fused kernel inlined into a big main); a pinned standalone
    // copy keeps every call site on the clean codegen, and the call
    // overhead is noise next to the loop.
    // ------------------------------------------------------------------

    #[inline(never)]
    fn evaluate_slice(
        &self,
        flops: &[f64],
        bytes: &[f64],
        t_out: &mut [f64],
        e_out: &mut [f64],
        p_out: &mut [f64],
        r_out: &mut [Regime],
    ) {
        // Pass 1: the f64 outputs (vectorizes as pure mul/fma/max/div).
        for ((((&w, &q), t), e), p) in flops
            .iter()
            .zip(bytes)
            .zip(t_out.iter_mut())
            .zip(e_out.iter_mut())
            .zip(p_out.iter_mut())
        {
            let (tv, ev) = self.time_energy(w, q);
            *t = tv;
            *e = ev;
            *p = ev / tv;
        }
        // Pass 2: the regime bytes (same classification the scalar
        // `evaluate` performs; separate loop so pass 1 stays shuffle-free).
        for ((&w, &q), r) in flops.iter().zip(bytes).zip(r_out.iter_mut()) {
            *r = self.regime_at(w / q);
        }
    }

    #[inline(never)]
    fn avg_power_slice(&self, intensities: &[f64], out: &mut [f64]) {
        for (&x, o) in intensities.iter().zip(out.iter_mut()) {
            *o = self.avg_power_at(x);
        }
    }

    #[inline(never)]
    fn regime_slice(&self, intensities: &[f64], out: &mut [Regime]) {
        for (&x, o) in intensities.iter().zip(out.iter_mut()) {
            *o = self.regime_at(x);
        }
    }

    #[inline(never)]
    fn power_regime_slice(&self, intensities: &[f64], p_out: &mut [f64], r_out: &mut [Regime]) {
        self.avg_power_slice(intensities, p_out);
        self.regime_slice(intensities, r_out);
    }

    #[inline(never)]
    fn perf_slice(&self, intensities: &[f64], out: &mut [f64]) {
        for (&x, o) in intensities.iter().zip(out.iter_mut()) {
            *o = self.perf_point(x);
        }
    }

    #[inline(never)]
    fn energy_eff_slice(&self, intensities: &[f64], out: &mut [f64]) {
        for (&x, o) in intensities.iter().zip(out.iter_mut()) {
            *o = self.energy_eff_point(x);
        }
    }

    #[inline(never)]
    fn efficiency_slice(
        &self,
        intensities: &[f64],
        perf_out: &mut [f64],
        eff_out: &mut [f64],
        p_out: &mut [f64],
    ) {
        // Perf and energy-eff share the unit workload and its (T, E); the
        // power curve only needs the intensity, so it runs as its own
        // stream. Identical per-element arithmetic to the three point
        // kernels (perf/energy-eff fused via the shared `time_energy`).
        for ((&x, f), e) in intensities.iter().zip(perf_out.iter_mut()).zip(eff_out.iter_mut()) {
            let q = 1.0 / x;
            let (t, en) = self.time_energy(1.0, q);
            *f = 1.0 / t;
            *e = 1.0 / en;
        }
        self.avg_power_slice(intensities, p_out);
    }

    // ------------------------------------------------------------------
    // SoA batch kernels: adaptive-grain parallel above PAR_THRESHOLD,
    // lane-structured serial below. `_serial` variants never parallelize;
    // both paths are bit-identical (elementwise kernels are split-invariant).
    // ------------------------------------------------------------------

    /// The fully fused sweep kernel: one memory pass computing
    /// `t_out[k], e_out[k], p_out[k], r_out[k] = evaluate(flops[k], bytes[k])`
    /// — time, energy, average power `E/T`, and the regime at `W/Q` — for
    /// the fit objective and the figure artifacts, instead of touching the
    /// input arrays four times with four kernels.
    ///
    /// # Panics
    /// Panics if the slice lengths differ.
    pub fn evaluate_batch(
        &self,
        flops: &[f64],
        bytes: &[f64],
        t_out: &mut [f64],
        e_out: &mut [f64],
        p_out: &mut [f64],
        r_out: &mut [Regime],
    ) {
        assert_batch_lens(flops.len(), bytes.len(), t_out.len());
        assert_batch_lens(e_out.len(), p_out.len(), r_out.len());
        assert_batch_lens(flops.len(), flops.len(), e_out.len());
        match par_grain(t_out.len()) {
            Some(g) => parallel_jobs(
                flops
                    .chunks(g)
                    .zip(bytes.chunks(g))
                    .zip(t_out.chunks_mut(g).zip(e_out.chunks_mut(g)))
                    .zip(p_out.chunks_mut(g).zip(r_out.chunks_mut(g)))
                    .map(|(((f, b), (tc, ec)), (pc, rc))| {
                        move || self.evaluate_slice(f, b, tc, ec, pc, rc)
                    }),
            ),
            None => self.evaluate_slice(flops, bytes, t_out, e_out, p_out, r_out),
        }
    }

    /// Serial variant of [`RooflinePlan::evaluate_batch`].
    pub fn evaluate_batch_serial(
        &self,
        flops: &[f64],
        bytes: &[f64],
        t_out: &mut [f64],
        e_out: &mut [f64],
        p_out: &mut [f64],
        r_out: &mut [Regime],
    ) {
        assert_batch_lens(flops.len(), bytes.len(), t_out.len());
        assert_batch_lens(e_out.len(), p_out.len(), r_out.len());
        assert_batch_lens(flops.len(), flops.len(), e_out.len());
        self.evaluate_slice(flops, bytes, t_out, e_out, p_out, r_out);
    }

    /// `out[k] = P̄(intensities[k])` (closed form, paper eq. 7).
    ///
    /// # Panics
    /// Panics if the slice lengths differ.
    pub fn avg_power_batch(&self, intensities: &[f64], out: &mut [f64]) {
        assert_eq!(intensities.len(), out.len(), "batch slice lengths must match");
        match par_grain(out.len()) {
            Some(g) => parallel_chunks_mut(out, g, |idx, chunk| {
                let base = idx * g;
                self.avg_power_slice(&intensities[base..base + chunk.len()], chunk);
            }),
            None => self.avg_power_slice(intensities, out),
        }
    }

    /// Serial variant of [`RooflinePlan::avg_power_batch`].
    pub fn avg_power_batch_serial(&self, intensities: &[f64], out: &mut [f64]) {
        assert_eq!(intensities.len(), out.len(), "batch slice lengths must match");
        self.avg_power_slice(intensities, out);
    }

    /// Fused power-curve kernel: `p_out[k], r_out[k] = (P̄, regime)` at
    /// `intensities[k]` in one memory pass (the two quantities share their
    /// balance compares).
    ///
    /// # Panics
    /// Panics if the slice lengths differ.
    pub fn power_regime_batch(&self, intensities: &[f64], p_out: &mut [f64], r_out: &mut [Regime]) {
        assert_batch_lens(intensities.len(), p_out.len(), r_out.len());
        match par_grain(p_out.len()) {
            Some(g) => parallel_jobs(
                intensities
                    .chunks(g)
                    .zip(p_out.chunks_mut(g).zip(r_out.chunks_mut(g)))
                    .map(|(xs, (pc, rc))| move || self.power_regime_slice(xs, pc, rc)),
            ),
            None => self.power_regime_slice(intensities, p_out, r_out),
        }
    }

    /// `out[k] = perf(intensities[k])` in flop/s.
    ///
    /// # Panics
    /// Panics if the slice lengths differ, or any intensity is not strictly
    /// positive and finite.
    pub fn perf_batch(&self, intensities: &[f64], out: &mut [f64]) {
        assert_eq!(intensities.len(), out.len(), "batch slice lengths must match");
        validate_intensities(intensities);
        match par_grain(out.len()) {
            Some(g) => parallel_chunks_mut(out, g, |idx, chunk| {
                let base = idx * g;
                self.perf_slice(&intensities[base..base + chunk.len()], chunk);
            }),
            None => self.perf_slice(intensities, out),
        }
    }

    /// Serial variant of [`RooflinePlan::perf_batch`].
    pub fn perf_batch_serial(&self, intensities: &[f64], out: &mut [f64]) {
        assert_eq!(intensities.len(), out.len(), "batch slice lengths must match");
        validate_intensities(intensities);
        self.perf_slice(intensities, out);
    }

    /// `out[k] = energy_eff(intensities[k])` in flop/J.
    ///
    /// # Panics
    /// Panics if the slice lengths differ, or any intensity is not strictly
    /// positive and finite.
    pub fn energy_eff_batch(&self, intensities: &[f64], out: &mut [f64]) {
        assert_eq!(intensities.len(), out.len(), "batch slice lengths must match");
        validate_intensities(intensities);
        match par_grain(out.len()) {
            Some(g) => parallel_chunks_mut(out, g, |idx, chunk| {
                let base = idx * g;
                self.energy_eff_slice(&intensities[base..base + chunk.len()], chunk);
            }),
            None => self.energy_eff_slice(intensities, out),
        }
    }

    /// Serial variant of [`RooflinePlan::energy_eff_batch`].
    pub fn energy_eff_batch_serial(&self, intensities: &[f64], out: &mut [f64]) {
        assert_eq!(intensities.len(), out.len(), "batch slice lengths must match");
        validate_intensities(intensities);
        self.energy_eff_slice(intensities, out);
    }

    /// Fused efficiency-curve kernel: `perf_out[k], eff_out[k], p_out[k] =
    /// (perf, energy-eff, P̄)` at `intensities[k]` in one memory pass (the
    /// unit workload and `(T, E)` are shared between the three quantities).
    ///
    /// # Panics
    /// Panics if the slice lengths differ, or any intensity is not strictly
    /// positive and finite.
    pub fn efficiency_batch(
        &self,
        intensities: &[f64],
        perf_out: &mut [f64],
        eff_out: &mut [f64],
        p_out: &mut [f64],
    ) {
        assert_batch_lens(intensities.len(), perf_out.len(), eff_out.len());
        assert_batch_lens(intensities.len(), intensities.len(), p_out.len());
        validate_intensities(intensities);
        match par_grain(perf_out.len()) {
            Some(g) => parallel_jobs(
                intensities
                    .chunks(g)
                    .zip(perf_out.chunks_mut(g).zip(eff_out.chunks_mut(g)))
                    .zip(p_out.chunks_mut(g))
                    .map(|((xs, (fc, ec)), pc)| move || self.efficiency_slice(xs, fc, ec, pc)),
            ),
            None => self.efficiency_slice(intensities, perf_out, eff_out, p_out),
        }
    }

    /// One metric over a whole log-spaced sweep, grid included: returns the
    /// `n` intensities of [`crate::power::sample_intensities`]`(lo, hi, n)`
    /// and the metric at each, bit-identical to that grid followed by the
    /// metric's `*_batch_serial` kernel. Each chunk computes its own
    /// intensities (one `exp` per point, the expensive half) and then its
    /// metric values, so above [`PAR_THRESHOLD`] the grid is split across
    /// workers along with the kernel.
    ///
    /// # Panics
    /// Panics, before any work is split, if `lo`/`hi` are not positive
    /// finite with `lo < hi` or `n < 2`. For [`Metric::Performance`] and
    /// [`Metric::EnergyEfficiency`], panics if a grid point is not strictly
    /// positive and finite (an `exp` that overflows).
    pub fn sweep(&self, metric: Metric, lo: f64, hi: f64, n: usize) -> (Vec<f64>, Vec<f64>) {
        let (llo, lhi) = log_range(lo, hi, n);
        let chunk = |base: usize, xs: &mut [f64], out: &mut [f64]| {
            for (k, x) in xs.iter_mut().enumerate() {
                *x = log_point(llo, lhi, n, base + k);
            }
            match metric {
                Metric::Power => self.avg_power_slice(xs, out),
                Metric::Performance => {
                    validate_intensities(xs);
                    self.perf_slice(xs, out);
                }
                Metric::EnergyEfficiency => {
                    validate_intensities(xs);
                    self.energy_eff_slice(xs, out);
                }
            }
        };
        let (mut xs, mut out) = (vec![0.0; n], vec![0.0; n]);
        match par_grain(n) {
            Some(g) => parallel_jobs(
                xs.chunks_mut(g)
                    .zip(out.chunks_mut(g))
                    .enumerate()
                    .map(|(idx, (xc, oc))| move || chunk(idx * g, xc, oc)),
            ),
            None => chunk(0, &mut xs, &mut out),
        }
        (xs, out)
    }
}

#[inline(always)]
fn validate_intensity(intensity: f64) {
    assert!(
        intensity.is_finite() && intensity > 0.0,
        "intensity must be positive and finite, got {intensity}"
    );
}

/// Upfront validation for the perf/energy-eff kernels: one cheap
/// vectorizable pass, so the hot loops stay assert-free (a per-point assert
/// defeats if-conversion). Panics with the same message, and for the first
/// offending value, as the per-point form did.
fn validate_intensities(intensities: &[f64]) {
    // Non-short-circuiting fold: `&` instead of `&&` keeps the pass free of
    // early exits so it vectorizes (the short-circuit form compiled to a
    // scalar loop that cost as much as the kernel it was guarding).
    let ok = intensities.iter().fold(true, |ok, x| ok & (x.is_finite() & (*x > 0.0)));
    if !ok {
        let bad = intensities
            .iter()
            .copied()
            .find(|x| !(x.is_finite() && *x > 0.0))
            .expect("offending intensity");
        validate_intensity(bad);
    }
}

/// Checked before every dispatch: the parallel path zips the slices' chunks,
/// and a zip would silently stop at the shortest slice.
fn assert_batch_lens(flops: usize, bytes: usize, out: usize) {
    assert!(flops == bytes && bytes == out, "batch slice lengths must match");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::EnergyRoofline;
    use crate::workload::Workload;

    fn titan_params() -> MachineParams {
        MachineParams::builder()
            .flops_per_sec(4.02e12)
            .bytes_per_sec(239e9)
            .energy_per_flop(30.4e-12)
            .energy_per_byte(267e-12)
            .const_power(123.0)
            .usable_power(164.0)
            .build()
            .unwrap()
    }

    #[test]
    fn plan_matches_scalar_model_bitwise() {
        let params = titan_params();
        let plan = RooflinePlan::new(params);
        let model = EnergyRoofline::new(params);
        for k in -8..=24 {
            let i = 2f64.powi(k);
            let w = Workload::from_intensity(1e11, i);
            assert_eq!(plan.time(w.flops, w.bytes).to_bits(), model.time(&w).to_bits());
            assert_eq!(plan.energy(w.flops, w.bytes).to_bits(), model.energy(&w).to_bits());
            assert_eq!(plan.avg_power_at(i).to_bits(), model.avg_power_at(i).to_bits());
            assert_eq!(plan.regime_at(i), model.regime_at(i));
        }
    }

    #[test]
    fn fused_time_energy_matches_separate_calls() {
        let plan = RooflinePlan::new(titan_params());
        for k in -8..=24 {
            let i = 2f64.powi(k);
            let w = Workload::from_intensity(1e11, i);
            let (t, e) = plan.time_energy(w.flops, w.bytes);
            assert_eq!(t.to_bits(), plan.time(w.flops, w.bytes).to_bits());
            assert_eq!(e.to_bits(), plan.energy(w.flops, w.bytes).to_bits());
        }
    }

    #[test]
    fn fused_evaluate_matches_separate_calls() {
        let plan = RooflinePlan::new(titan_params());
        for k in -8..=24 {
            let i = 2f64.powi(k);
            let w = Workload::from_intensity(1e11, i);
            let (t, e, p, r) = plan.evaluate(w.flops, w.bytes);
            assert_eq!(t.to_bits(), plan.time(w.flops, w.bytes).to_bits());
            assert_eq!(e.to_bits(), plan.energy(w.flops, w.bytes).to_bits());
            assert_eq!(p.to_bits(), plan.avg_power(w.flops, w.bytes).to_bits());
            assert_eq!(r, plan.regime_at(w.flops / w.bytes));
        }
    }

    #[test]
    fn batch_kernels_match_point_kernels() {
        let plan = RooflinePlan::new(titan_params());
        let n = 257; // deliberately not a power of two: exercises the lane tail
        let intensities: Vec<f64> = (0..n).map(|k| 2f64.powf(k as f64 / 16.0 - 4.0)).collect();

        let mut p = vec![0.0; n];
        plan.avg_power_batch(&intensities, &mut p);
        let (mut p2, mut r) = (vec![0.0; n], vec![Regime::MemoryBound; n]);
        plan.power_regime_batch(&intensities, &mut p2, &mut r);
        for k in 0..n {
            assert_eq!(p[k].to_bits(), plan.avg_power_at(intensities[k]).to_bits());
            assert_eq!(p2[k].to_bits(), plan.avg_power_at(intensities[k]).to_bits());
            assert_eq!(r[k], plan.regime_at(intensities[k]));
        }
    }

    #[test]
    fn fused_batches_match_their_point_kernels() {
        let plan = RooflinePlan::new(titan_params());
        let n = 203;
        let intensities: Vec<f64> = (0..n).map(|k| 2f64.powf(k as f64 / 12.0 - 4.0)).collect();
        let flops: Vec<f64> = intensities.iter().map(|_| 1e11).collect();
        let bytes: Vec<f64> = intensities.iter().map(|&i| 1e11 / i).collect();

        let (mut t, mut e, mut p) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let mut r = vec![Regime::MemoryBound; n];
        plan.evaluate_batch(&flops, &bytes, &mut t, &mut e, &mut p, &mut r);
        for k in 0..n {
            let (st, se, sp, sr) = plan.evaluate(flops[k], bytes[k]);
            assert_eq!(t[k].to_bits(), st.to_bits());
            assert_eq!(e[k].to_bits(), se.to_bits());
            assert_eq!(p[k].to_bits(), sp.to_bits());
            assert_eq!(r[k], sr);
        }

        let (mut pw, mut rg) = (vec![0.0; n], vec![Regime::MemoryBound; n]);
        plan.power_regime_batch(&intensities, &mut pw, &mut rg);
        let (mut pf, mut ef, mut p2) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        plan.efficiency_batch(&intensities, &mut pf, &mut ef, &mut p2);
        for k in 0..n {
            assert_eq!(pw[k].to_bits(), plan.avg_power_at(intensities[k]).to_bits());
            assert_eq!(rg[k], plan.regime_at(intensities[k]));
            assert_eq!(pf[k].to_bits(), plan.perf_at(intensities[k]).to_bits());
            assert_eq!(ef[k].to_bits(), plan.energy_eff_at(intensities[k]).to_bits());
            assert_eq!(p2[k].to_bits(), plan.avg_power_at(intensities[k]).to_bits());
        }
    }

    #[test]
    fn parallel_dispatch_is_bit_identical_to_serial() {
        let plan = RooflinePlan::new(titan_params());
        let n = PAR_THRESHOLD + 123; // forces the parallel path
        let intensities: Vec<f64> =
            (0..n).map(|k| 2f64.powf((k % 977) as f64 / 61.0 - 4.0)).collect();
        let mut par = vec![0.0; n];
        let mut ser = vec![0.0; n];
        plan.avg_power_batch(&intensities, &mut par);
        plan.avg_power_batch_serial(&intensities, &mut ser);
        for k in 0..n {
            assert_eq!(par[k].to_bits(), ser[k].to_bits(), "mismatch at {k}");
        }
    }

    #[test]
    fn adversarial_intensities_handled() {
        let plan = RooflinePlan::new(titan_params());
        let b = plan.balances();
        let is = [0.0, b.lower, b.time, b.upper, f64::INFINITY];
        let mut p = vec![0.0; is.len()];
        plan.avg_power_batch(&is, &mut p);
        let model = EnergyRoofline::new(*plan.params());
        for (k, &i) in is.iter().enumerate() {
            assert_eq!(p[k].to_bits(), model.avg_power_at(i).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "batch slice lengths must match")]
    fn mismatched_lengths_rejected() {
        let plan = RooflinePlan::new(titan_params());
        let mut out = vec![0.0; 3];
        plan.avg_power_batch(&[1.0, 2.0], &mut out);
    }

    /// The parallel path zips the outputs' chunks, so the length check must
    /// fire there too, or a short output would silently drop its tail.
    #[test]
    fn mismatched_lengths_rejected_on_parallel_path() {
        fn panic_message(run: impl FnOnce()) -> String {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                .expect_err("short output accepted");
            err.downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        }
        let plan = RooflinePlan::new(titan_params());
        let n = PAR_THRESHOLD + 123;
        let xs: Vec<f64> = (1..=n).map(|k| k as f64).collect();
        for short in 0..4 {
            let len = |k: usize| if k == short { n - 1 } else { n };
            let (mut t, mut e, mut p) = (vec![0.0; len(0)], vec![0.0; len(1)], vec![0.0; len(2)]);
            let mut r = vec![Regime::MemoryBound; len(3)];
            let msg = panic_message(|| plan.evaluate_batch(&xs, &xs, &mut t, &mut e, &mut p, &mut r));
            assert_eq!(msg, "batch slice lengths must match", "evaluate_batch, output {short}");
            if short < 3 {
                let msg = panic_message(|| plan.efficiency_batch(&xs, &mut t, &mut e, &mut p));
                assert_eq!(msg, "batch slice lengths must match", "efficiency_batch, output {short}");
            }
            if short >= 2 {
                // `p` or `r` is the short one.
                let msg = panic_message(|| plan.power_regime_batch(&xs, &mut p, &mut r));
                let ctx = format!("power_regime_batch, output {short}");
                assert_eq!(msg, "batch slice lengths must match", "{ctx}");
            }
        }
        // The single-output kernels check with `assert_eq!`, whose message
        // carries an `assertion ... failed: ` prefix and the two lengths.
        let mut out = vec![0.0; n - 1];
        for (name, msg) in [
            ("avg_power_batch", panic_message(|| plan.avg_power_batch(&xs, &mut out))),
            ("perf_batch", panic_message(|| plan.perf_batch(&xs, &mut out))),
            ("energy_eff_batch", panic_message(|| plan.energy_eff_batch(&xs, &mut out))),
        ] {
            assert!(msg.contains("batch slice lengths must match"), "{name}: {msg}");
        }
    }

    #[test]
    #[should_panic(expected = "intensity must be positive and finite")]
    fn perf_batch_rejects_nonpositive_intensities() {
        let plan = RooflinePlan::new(titan_params());
        let mut out = vec![0.0; 3];
        plan.perf_batch(&[1.0, 0.0, 2.0], &mut out);
    }

    #[test]
    #[should_panic(expected = "invalid machine parameters")]
    fn new_rejects_invalid_params() {
        let mut p = titan_params();
        p.time_per_flop = -1.0;
        let _ = RooflinePlan::new(p);
    }
}
