//! Correctness checks. Each compares a run's output against a property
//! the method must have, never against a saved copy of earlier output.

/// Proposition 1 bound: the measured remote fetches per epoch may exceed
/// the VIP-predicted expectation for the deployed cache by at most the
/// factor `slack` (sampling noise over one epoch's rounds).
pub fn vip_bound(measured: f64, predicted: f64, slack: f64) -> Result<(), String> {
    if !(measured.is_finite() && predicted.is_finite()) || predicted <= 0.0 {
        return Err(format!(
            "VIP bound: unusable counts (measured {measured}, predicted {predicted})"
        ));
    }
    let ratio = measured / predicted;
    if ratio > slack {
        return Err(format!(
            "VIP bound: measured {measured:.0} remote rows per epoch is {ratio:.3}x the \
             predicted {predicted:.0} (limit {slack}x)"
        ));
    }
    Ok(())
}

/// One served request's answer: `(request id, label, logits checksum)`.
pub type Answer = (u64, usize, u64);

/// Cache transparency: with full-precision tiers every request must get
/// exactly the answer of a deployment without any cache. Both slices are
/// sorted by request id.
pub fn transparent(got: &[Answer], reference: &[Answer]) -> Result<(), String> {
    if got.len() != reference.len() {
        return Err(format!(
            "cache transparency: {} answers vs {} without caches",
            got.len(),
            reference.len()
        ));
    }
    for (g, r) in got.iter().zip(reference) {
        if g != r {
            return Err(format!(
                "cache transparency: request {} answered (label {}, checksum {:#x}) \
                 but (label {}, checksum {:#x}) without caches",
                g.0, g.1, g.2, r.1, r.2
            ));
        }
    }
    Ok(())
}

/// Training progress: every epoch's mean loss is finite and the last
/// measured epoch's loss is below the first's.
pub fn loss_decreases(losses: &[f64]) -> Result<(), String> {
    if losses.len() < 2 {
        return Err(format!("need two measured epochs, got {}", losses.len()));
    }
    if let Some(bad) = losses.iter().position(|l| !l.is_finite()) {
        return Err(format!("epoch {bad} has a non-finite mean loss"));
    }
    let (first, last) = (losses[0], losses[losses.len() - 1]);
    if last >= first {
        return Err(format!("loss did not decrease: {first} -> {last}"));
    }
    Ok(())
}

/// Accuracy at least `factor` times chance over `classes` classes.
pub fn above_chance(accuracy: f64, classes: usize, factor: f64) -> Result<(), String> {
    let floor = factor / classes as f64;
    if accuracy.is_finite() && accuracy > floor {
        Ok(())
    } else {
        Err(format!(
            "accuracy {accuracy:.3} not above {factor}x chance ({floor:.3}) for {classes} classes"
        ))
    }
}

/// Order-sensitive FNV-1a checksum over raw `f32` bit patterns — the
/// checksum the inference server attaches to each completion.
pub fn logits_checksum(row: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &x in row {
        h ^= u64::from(x.to_bits());
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Collects check results: the run is correct only if every check passed.
#[derive(Default)]
pub struct Verdict {
    failures: Vec<String>,
}

impl Verdict {
    /// Records one check's outcome under `name`.
    pub fn check(&mut self, name: &str, outcome: Result<(), String>) {
        match outcome {
            Ok(()) => eprintln!("check ok: {name}"),
            Err(e) => {
                eprintln!("check FAILED: {name}: {e}");
                self.failures.push(format!("{name}: {e}"));
            }
        }
    }

    /// Records a boolean property.
    pub fn expect(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.check(name, if ok { Ok(()) } else { Err(detail()) });
    }

    /// Whether every recorded check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vip_bound_accepts_measured_reference_ratio() {
        // 40,236 measured vs 39,326 predicted per epoch (ratio 1.02).
        assert!(vip_bound(40_236.0, 39_326.0, 1.1).is_ok());
        assert!(vip_bound(30_000.0, 39_326.0, 1.1).is_ok());
    }

    #[test]
    fn vip_bound_rejects_seeded_wrong_count() {
        // The count without a cache (97,861) fed against the cached
        // prediction must fail, as must a doubled count.
        assert!(vip_bound(97_861.0, 39_326.0, 1.1).is_err());
        assert!(vip_bound(2.0 * 40_236.0, 39_326.0, 1.1).is_err());
        assert!(vip_bound(f64::NAN, 39_326.0, 1.1).is_err());
        assert!(vip_bound(10.0, 0.0, 1.1).is_err());
    }

    #[test]
    fn transparency_rejects_perturbed_checksum() {
        let reference = vec![(0, 3, 0xdead), (1, 7, 0xbeef), (2, 3, 0xf00d)];
        assert!(transparent(&reference, &reference).is_ok());
        let mut perturbed = reference.clone();
        perturbed[1].2 ^= 1;
        assert!(transparent(&perturbed, &reference).is_err());
        let mut relabelled = reference.clone();
        relabelled[2].1 = 4;
        assert!(transparent(&relabelled, &reference).is_err());
        assert!(transparent(&reference[..2], &reference).is_err());
    }

    #[test]
    fn loss_check_needs_finite_decrease() {
        assert!(loss_decreases(&[2.0, 1.5, 1.0]).is_ok());
        assert!(loss_decreases(&[2.0, 2.5]).is_err());
        assert!(loss_decreases(&[2.0, f64::NAN, 1.0]).is_err());
        assert!(loss_decreases(&[2.0]).is_err());
    }

    #[test]
    fn chance_floor() {
        assert!(above_chance(0.9, 16, 4.0).is_ok());
        assert!(above_chance(0.2, 16, 4.0).is_err());
        assert!(above_chance(f64::NAN, 16, 4.0).is_err());
    }

    #[test]
    fn checksum_is_order_sensitive() {
        assert_ne!(logits_checksum(&[1.0, 2.0]), logits_checksum(&[2.0, 1.0]));
        assert_eq!(logits_checksum(&[]), 0xcbf2_9ce4_8422_2325);
    }
}
