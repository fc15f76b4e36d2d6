//! Answer comparison for the correctness checks.
//!
//! Serving answers must equal a one-shot batch answer bit for bit.
//! The join algorithms sum presences in a different order than the
//! iterative ones and may pick a different POI among several tied at
//! the k-th flow, so join-versus-iterative accepts flows equal to a
//! relative tolerance and ranked sets that differ only among POIs tied
//! at the k-th flow. Anything else is a wrong answer.

use inflow_indoor::PoiId;
use std::collections::HashMap;

/// Relative tolerance for join-versus-iterative flows.
pub const REL_TOL: f64 = 1e-9;

/// Bitwise equality of two ranked answers.
pub fn identical(want: &[(PoiId, f64)], got: &[(PoiId, f64)]) -> Result<(), String> {
    let same = want.len() == got.len()
        && want.iter().zip(got).all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
    if same {
        Ok(())
    } else {
        Err(format!("want {want:?}, got {got:?}"))
    }
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
}

/// Compares a top-k answer against a reference of the same query.
pub fn same_topk(want: &[(PoiId, f64)], got: &[(PoiId, f64)]) -> Result<(), String> {
    if want.len() != got.len() {
        return Err(format!("{} ranked POIs, reference has {}", got.len(), want.len()));
    }
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        if !close(w.1, g.1) {
            return Err(format!("rank {i}: flow {} vs reference {}", g.1, w.1));
        }
    }
    let Some(&(_, kth)) = want.last() else { return Ok(()) };
    let want_map: HashMap<PoiId, f64> = want.iter().copied().collect();
    let got_map: HashMap<PoiId, f64> = got.iter().copied().collect();
    for (poi, flow) in got {
        match want_map.get(poi) {
            Some(&w) if !close(w, *flow) => {
                return Err(format!("{poi:?}: flow {flow} vs reference {w}"));
            }
            None if !close(*flow, kth) => {
                return Err(format!("{poi:?} (flow {flow}) is not in the reference top-k"));
            }
            _ => {}
        }
    }
    for (poi, flow) in want {
        if !got_map.contains_key(poi) && !close(*flow, kth) {
            return Err(format!("{poi:?} (flow {flow}) is missing and not tied at the k-th flow"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(xs: &[(u32, f64)]) -> Vec<(PoiId, f64)> {
        xs.iter().map(|&(p, f)| (PoiId(p), f)).collect()
    }

    #[test]
    fn accepts_rounding_and_tie_swap() {
        let want = r(&[(3, 12.5), (1, 9.0), (4, 8.0), (7, 8.0)]);
        let rounded = r(&[(3, 12.5 + 1e-15), (1, 9.0), (4, 8.0), (7, 8.0)]);
        assert!(same_topk(&want, &rounded).is_ok());
        // POI 9 is tied with POI 7 at the k-th flow.
        let swapped = r(&[(3, 12.5), (1, 9.0), (4, 8.0), (9, 8.0)]);
        assert!(same_topk(&want, &swapped).is_ok());
    }

    #[test]
    fn rejects_perturbed_ranking() {
        let want = r(&[(3, 12.5), (1, 9.0), (4, 8.0), (7, 8.0)]);
        let flow_off = r(&[(3, 12.5), (1, 9.001), (4, 8.0), (7, 8.0)]);
        assert!(same_topk(&want, &flow_off).is_err());
        // A POI above the k-th flow replaced by a stranger at the same flow.
        let stranger = r(&[(3, 12.5), (2, 9.0), (4, 8.0), (7, 8.0)]);
        assert!(same_topk(&want, &stranger).is_err());
        let short = r(&[(3, 12.5), (1, 9.0), (4, 8.0)]);
        assert!(same_topk(&want, &short).is_err());
        let swapped_order = r(&[(1, 9.0), (3, 12.5), (4, 8.0), (7, 8.0)]);
        assert!(same_topk(&want, &swapped_order).is_err());
    }

    #[test]
    fn identical_is_bitwise() {
        let want = r(&[(3, 0.1 + 0.2)]);
        assert!(identical(&want, &want.clone()).is_ok());
        assert!(identical(&want, &r(&[(3, 0.3)])).is_err());
    }
}
