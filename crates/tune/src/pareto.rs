//! Pareto dominance, frontier extraction, and the ε-tolerance band.
//!
//! All three objectives are minimised. The frontier filter is a pure
//! function of the evaluated objective vectors in candidate order:
//! duplicates collapse onto the earliest candidate, survivors are
//! reported in evaluation order, and nothing depends on thread count
//! or iteration timing — the determinism the golden-frontier gate
//! byte-compares.

/// True when `a` Pareto-dominates `b`: no worse on every objective and
/// strictly better on at least one.
pub fn dominates(a: &[f64; 3], b: &[f64; 3]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
}

/// Extracts the Pareto frontier of `points`, returning the *positions*
/// of the surviving points in input order.
///
/// A point survives when no other point dominates it and no earlier
/// point has identical objectives (ties keep the lowest position, so
/// δ-variants with equal objectives collapse deterministically).
pub fn frontier(points: &[[f64; 3]]) -> Vec<usize> {
    let mut out = Vec::new();
    'candidate: for (i, p) in points.iter().enumerate() {
        for (j, q) in points.iter().enumerate() {
            if j != i && dominates(q, p) {
                continue 'candidate;
            }
            if j < i && q == p {
                continue 'candidate;
            }
        }
        out.push(i);
    }
    out
}

/// Sabotage hook for the `--sabotage` self-test: leaks a defect into a
/// computed frontier. Prefers leaking the first *dominated* evaluated
/// position (a minimality violation); when no evaluated point is
/// dominated (points off the frontier only duplicate members),
/// duplicates the first member instead (a uniqueness violation).
/// Either defect must trip [`violations`] and fail the run.
pub fn leak(points: &[[f64; 3]], front: &mut Vec<usize>) {
    let dominated = |i: usize| points.iter().any(|q| dominates(q, &points[i]));
    if let Some(dominated) = (0..points.len()).find(|&i| dominated(i)) {
        front.push(dominated);
        front.sort_unstable();
    } else if let Some(&first) = front.first() {
        front.push(first);
    }
}

/// True when `p` lies on or within the ε-band of the frontier: after
/// shrinking `p` by `1/(1 + tol)` on every objective, no frontier
/// point strictly dominates it. Equivalently, `p` fails only if some
/// frontier point beats it by more than `tol` on *every* objective.
pub fn within_band(p: &[f64; 3], frontier_points: &[[f64; 3]], tol: f64) -> bool {
    let shrunk = [p[0] / (1.0 + tol), p[1] / (1.0 + tol), p[2] / (1.0 + tol)];
    !frontier_points.iter().any(|q| dominates(q, &shrunk))
}

/// Self-validation of an emitted frontier against the evaluated set:
/// every member must be undominated by every evaluated point, and no
/// two members may share identical objectives. Returns human-readable
/// violations (empty = valid). This is the check the `--sabotage`
/// leak must trip.
pub fn violations(points: &[[f64; 3]], front: &[usize]) -> Vec<String> {
    let mut out = Vec::new();
    for (n, &i) in front.iter().enumerate() {
        if i >= points.len() {
            out.push(format!("frontier position {i} out of range"));
            continue;
        }
        for (j, q) in points.iter().enumerate() {
            if j != i && dominates(q, &points[i]) {
                out.push(format!(
                    "frontier point at position {i} is dominated by evaluated point {j}"
                ));
                break;
            }
        }
        for &k in &front[..n] {
            if k < points.len() && points[k] == points[i] {
                out.push(format!(
                    "frontier points at positions {k} and {i} have identical objectives"
                ));
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 3] = [1.0, 1.0, 1.0];
    const B: [f64; 3] = [2.0, 2.0, 2.0];
    const C: [f64; 3] = [0.5, 3.0, 1.0];

    #[test]
    fn dominance_is_strict_somewhere() {
        assert!(dominates(&A, &B));
        assert!(!dominates(&B, &A));
        assert!(!dominates(&A, &A), "a point never dominates itself");
        assert!(!dominates(&A, &C) && !dominates(&C, &A), "incomparable");
    }

    #[test]
    fn frontier_drops_dominated_and_duplicate_points() {
        let pts = [A, B, C, A];
        assert_eq!(
            frontier(&pts),
            vec![0, 2],
            "B dominated, duplicate A dropped"
        );
    }

    #[test]
    fn leak_makes_validation_fail() {
        let pts = [A, B, C];
        let mut front = frontier(&pts);
        assert!(violations(&pts, &front).is_empty());
        leak(&pts, &mut front);
        assert!(!violations(&pts, &front).is_empty());
    }

    #[test]
    fn leak_prefers_a_dominated_point_over_a_collapsed_duplicate() {
        // Position 1 duplicates A and is off the frontier without being
        // dominated; position 2 is dominated, and that is the leak.
        let pts = [A, A, B, C];
        let mut front = frontier(&pts);
        assert_eq!(front, vec![0, 3]);
        leak(&pts, &mut front);
        assert_eq!(front, vec![0, 2, 3]);
        let v = violations(&pts, &front);
        assert!(v.iter().any(|m| m.contains("dominated")), "{v:?}");
        assert!(!v.iter().any(|m| m.contains("identical")), "{v:?}");
    }

    #[test]
    fn leak_falls_back_to_duplication() {
        // Position 2 is off the frontier only as a collapsed duplicate.
        let pts = [A, C, A];
        let mut front = frontier(&pts);
        assert_eq!(front.len(), 2, "nothing dominated");
        leak(&pts, &mut front);
        assert_eq!(front, vec![0, 1, 0], "the first member is duplicated");
        let v = violations(&pts, &front);
        assert!(v.iter().any(|m| m.contains("identical")), "{v:?}");
    }

    #[test]
    fn band_admits_near_frontier_points_only() {
        let front = [A];
        assert!(
            within_band(&A, &front, 0.05),
            "frontier members are in band"
        );
        assert!(within_band(&[1.04, 1.04, 1.04], &front, 0.05));
        assert!(!within_band(&[1.2, 1.2, 1.2], &front, 0.05));
        // Worse on one objective only: the shrink makes it strictly
        // better elsewhere, so any positive tolerance admits it.
        assert!(within_band(&[5.0, 1.0, 1.0], &front, 0.05));
        assert!(!within_band(&[5.0, 1.0, 1.0], &front, 0.0));
    }
}
