//! Parameter grids used across experiments.

/// The standard load-factor grid for delay sweeps (stays below 1).
pub fn rho_grid_standard() -> Vec<f64> {
    vec![0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95]
}

/// A load-factor grid straddling the ρ = 1 stability boundary.
pub fn rho_grid_boundary() -> Vec<f64> {
    vec![0.7, 0.8, 0.9, 0.95, 1.05, 1.1, 1.2, 1.3]
}

/// Cartesian product of two slices.
pub fn cartesian<A: Clone, B: Clone>(xs: &[A], ys: &[B]) -> Vec<(A, B)> {
    xs.iter()
        .flat_map(|x| ys.iter().map(move |y| (x.clone(), y.clone())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_grid_is_stable_region() {
        assert!(rho_grid_standard().iter().all(|&r| r > 0.0 && r < 1.0));
    }

    #[test]
    fn boundary_grid_straddles_one() {
        let g = rho_grid_boundary();
        assert!(g.iter().any(|&r| r < 1.0));
        assert!(g.iter().any(|&r| r > 1.0));
    }

    #[test]
    fn cartesian_product_size() {
        let p = cartesian(&[1, 2, 3], &['a', 'b']);
        assert_eq!(p.len(), 6);
        assert_eq!(p[0], (1, 'a'));
        assert_eq!(p[5], (3, 'b'));
    }
}
