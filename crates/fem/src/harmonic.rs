//! Frequency-response data containers shared by the FE substrate and
//! the PXT rational-function fitter.

use mems_numerics::Complex64;

/// A sampled frequency response `H(jω)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyResponse {
    /// Sample frequencies \[Hz\].
    pub freqs: Vec<f64>,
    /// Complex response values at each frequency.
    pub h: Vec<Complex64>,
}

impl FrequencyResponse {
    /// Creates a response from matched vectors.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn new(freqs: Vec<f64>, h: Vec<Complex64>) -> Self {
        assert_eq!(freqs.len(), h.len(), "frequency/response length mismatch");
        FrequencyResponse { freqs, h }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }

    /// Magnitudes.
    pub fn magnitudes(&self) -> Vec<f64> {
        self.h.iter().map(|z| z.abs()).collect()
    }

    /// Phases \[degrees\].
    pub fn phases_deg(&self) -> Vec<f64> {
        self.h.iter().map(|z| z.arg().to_degrees()).collect()
    }

    /// Frequency of maximum magnitude (resonance peak).
    pub fn peak_frequency(&self) -> Option<f64> {
        self.h
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.abs().partial_cmp(&b.abs()).expect("finite response"))
            .map(|(i, _)| self.freqs[i])
    }

    /// Maximum relative magnitude error against another response on
    /// the same grid.
    ///
    /// # Panics
    ///
    /// Panics when grids differ in length.
    pub fn max_rel_error(&self, other: &FrequencyResponse) -> f64 {
        assert_eq!(self.len(), other.len(), "grid mismatch");
        let scale = self
            .magnitudes()
            .into_iter()
            .fold(0.0f64, f64::max)
            .max(1e-300);
        self.h
            .iter()
            .zip(&other.h)
            .map(|(a, b)| (*a - *b).abs() / scale)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_pole(freqs: &[f64], fc: f64) -> FrequencyResponse {
        let h = freqs
            .iter()
            .map(|f| (Complex64::ONE + Complex64::new(0.0, f / fc)).recip())
            .collect();
        FrequencyResponse::new(freqs.to_vec(), h)
    }

    #[test]
    fn magnitudes_and_phases() {
        let r = single_pole(&[1.0, 100.0, 10000.0], 100.0);
        let mags = r.magnitudes();
        assert!((mags[1] - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        let ph = r.phases_deg();
        assert!((ph[1] + 45.0).abs() < 1e-9);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
    }

    #[test]
    fn peak_detection() {
        let freqs: Vec<f64> = (1..100).map(|i| i as f64 * 10.0).collect();
        let h: Vec<Complex64> = freqs
            .iter()
            .map(|f| {
                // Resonance at 500 Hz.
                let s = Complex64::new(0.0, f / 500.0);
                (s * s + s * 0.05 + Complex64::ONE).recip()
            })
            .collect();
        let r = FrequencyResponse::new(freqs, h);
        let peak = r.peak_frequency().unwrap();
        assert!((peak - 500.0).abs() <= 10.0, "peak at {peak}");
    }

    #[test]
    fn error_metric_is_zero_for_self() {
        let r = single_pole(&[1.0, 2.0, 3.0], 2.0);
        assert_eq!(r.max_rel_error(&r), 0.0);
    }
}
