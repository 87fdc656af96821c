//! Standard normal draws, shared by the sensor model here and the machine
//! simulator: one Box–Muller construction, so one seeded stream gives the
//! same bits wherever it is drawn.

use rand::Rng;

/// Standard normal via Box–Muller: [`gauss_uniforms`] then [`box_muller`].
pub fn gauss<R: Rng>(rng: &mut R) -> f64 {
    box_muller(gauss_uniforms(rng))
}

/// Draws the uniform pair one [`gauss`] call consumes, in the same order:
/// `u1` in `[ε, 1)`, then `u2` in `[0, 1)`.
pub fn gauss_uniforms<R: Rng>(rng: &mut R) -> [f64; 2] {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    [u1, u2]
}

/// The Box–Muller transform of a pair from [`gauss_uniforms`]. A pure
/// function of its inputs, so deferring it to when the value is read gives
/// the same bits as computing it at draw time.
pub fn box_muller([u1, u2]: [f64; 2]) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}
