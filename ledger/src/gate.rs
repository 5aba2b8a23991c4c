//! Correctness gates and the reference data they check against.
//!
//! Exact `--verify` sweeps are far too slow to run per rep (four frequency
//! points on the Table 4 mesh take minutes), so the mesh workloads check
//! the retained poles against `reference/<workload>.json`, recorded with
//! `ledger reference` from a known-good build.

use std::path::PathBuf;

use pact::json::Value;

/// Relative tolerance on each retained pole.
pub const POLE_RTOL: f64 = 1e-6;

/// The retained poles must match the reference in count and, one by one,
/// within [`POLE_RTOL`].
pub fn poles_match(reference: &[f64], got: &[f64]) -> Result<(), String> {
    if reference.len() != got.len() {
        return Err(format!(
            "{} poles retained, reference has {}",
            got.len(),
            reference.len()
        ));
    }
    for (i, (r, g)) in reference.iter().zip(got).enumerate() {
        let rel = (g - r).abs() / r.abs();
        if rel.is_nan() || rel > POLE_RTOL {
            return Err(format!(
                "pole {i} is {g:e}, reference {r:e} (relative {rel:.1e})"
            ));
        }
    }
    Ok(())
}

fn path(workload: &str) -> PathBuf {
    crate::ledger_dir()
        .join("reference")
        .join(format!("{workload}.json"))
}

/// Corner keys in reference files.
pub fn corner_key(corner: f64) -> String {
    format!("{corner}")
}

/// One workload's reference data at one size (`full` or `smoke`).
pub struct Reference(Value);

impl Reference {
    /// An empty reference when the file is missing or unreadable: every
    /// gate that needs it then fails.
    pub fn load(workload: &str, smoke: bool) -> Reference {
        let doc = std::fs::read_to_string(path(workload))
            .ok()
            .and_then(|t| Value::parse(&t).ok());
        let size = if smoke { "smoke" } else { "full" };
        Reference(
            doc.and_then(|d| d.get(size).cloned())
                .unwrap_or(Value::Null),
        )
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.get(key)
    }

    /// Checks `got` against the poles recorded for `corner`.
    pub fn poles(&self, corner: f64, got: &[f64]) -> Result<(), String> {
        let key = corner_key(corner);
        let reference: Option<Vec<f64>> = self
            .get(&key)
            .and_then(Value::as_arr)
            .map(|a| a.iter().filter_map(Value::as_f64).collect());
        match reference {
            Some(r) => poles_match(&r, got).map_err(|e| format!("corner {key}: {e}")),
            None => Err(format!("no reference poles for corner {key}")),
        }
    }
}

/// Writes `reference/<workload>.json` with both sizes.
pub fn write(workload: &str, full: Value, smoke: Value) -> std::io::Result<()> {
    let doc = Value::obj(vec![
        ("workload".into(), Value::str(workload)),
        ("full".into(), full),
        ("smoke".into(), smoke),
    ]);
    std::fs::write(path(workload), doc.render() + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pole_off_by_one_part_in_a_thousand_fails() {
        let reference = [1.0e-10, 3.5e-11, 7.25e-12];
        assert!(poles_match(&reference, &reference).is_ok());
        let mut nudged = reference;
        nudged[1] *= 1.0 + 1e-9;
        assert!(poles_match(&reference, &nudged).is_ok());
        let mut perturbed = reference;
        perturbed[1] *= 1.0 + 1e-3;
        let e = poles_match(&reference, &perturbed).unwrap_err();
        assert!(e.contains("pole 1"), "{e}");
        assert!(poles_match(&reference, &reference[..2]).is_err());
        assert!(poles_match(&reference, &[1.0e-10, f64::NAN, 7.25e-12]).is_err());
    }
}
