//! The Markov/numerical lint pass (`M0xx` diagnostics).
//!
//! [`lint_generator`] inspects a candidate infinitesimal generator `Q`
//! and reports **every** violation of the generator conditions the
//! paper's CTMC analyses assume (Sec. 3.2): finite entries, non-negative
//! off-diagonal rates, non-positive diagonals, and row conservation
//! `q_ii = -Σ_{j≠i} q_ij`. It also surfaces numerical health signals —
//! a zero uniformization constant (Sec. 4.2.1), absorbing states, and
//! stiffness (departure rates spanning many orders of magnitude, which
//! slows the Gauss–Seidel sweeps of Sec. 5.2).
//!
//! [`crate::ctmc::Ctmc::from_generator`] enforces the error-level subset
//! of these rules fail-first; this pass reports the complete picture
//! without constructing anything.

use wfms_diag::{codes, Diagnostic, Diagnostics, Location};

use crate::ctmc::{Ctmc, STOCHASTIC_TOLERANCE};
use crate::linalg::Matrix;

/// Departure-rate spread beyond which a chain is flagged as stiff.
pub const STIFFNESS_RATIO: f64 = 1e10;

/// Lints a candidate generator matrix `Q`, returning every finding.
///
/// `matrix` names the matrix in diagnostic locations (e.g. the workflow
/// or availability model it belongs to).
pub fn lint_generator(q: &Matrix, matrix: &str) -> Diagnostics {
    let mut out = Diagnostics::new();
    if !q.is_square() {
        let (r, c) = q.shape();
        out.push(Diagnostic::error(
            codes::M_ROW_CONSERVATION,
            Location::MatrixRow {
                matrix: matrix.to_string(),
                row: 0,
            },
            format!("generator must be square, got {r}x{c}"),
        ));
        return out;
    }
    let n = q.rows();
    let mut departure_rates = Vec::with_capacity(n);
    let mut absorbing = Vec::new();
    for i in 0..n {
        let row = q.row(i);
        let mut row_finite = true;
        for (j, &v) in row.iter().enumerate() {
            if !v.is_finite() {
                row_finite = false;
                out.push(Diagnostic::error(
                    codes::M_NON_FINITE,
                    Location::MatrixEntry {
                        matrix: matrix.to_string(),
                        row: i,
                        col: j,
                    },
                    format!("generator entry q[{i}][{j}] is {v}"),
                ));
            } else if j != i && v < -STOCHASTIC_TOLERANCE {
                out.push(Diagnostic::error(
                    codes::M_NEGATIVE_OFF_DIAGONAL,
                    Location::MatrixEntry {
                        matrix: matrix.to_string(),
                        row: i,
                        col: j,
                    },
                    format!("off-diagonal rate q[{i}][{j}] = {v} is negative"),
                ));
            }
        }
        if !row_finite {
            // Conservation and rates are meaningless for this row.
            departure_rates.push(None);
            continue;
        }
        let off_sum: f64 = row
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, &v)| v)
            .sum();
        if row[i] > STOCHASTIC_TOLERANCE * off_sum.abs().max(1.0) {
            out.push(Diagnostic::error(
                codes::M_POSITIVE_DIAGONAL,
                Location::MatrixEntry {
                    matrix: matrix.to_string(),
                    row: i,
                    col: i,
                },
                format!("diagonal entry q[{i}][{i}] = {} is positive", row[i]),
            ));
        }
        // Same scaled tolerance as `Ctmc::from_generator`.
        let scale = off_sum.abs().max(row[i].abs()).max(1.0);
        if (row[i] + off_sum).abs() > STOCHASTIC_TOLERANCE * scale {
            out.push(Diagnostic::error(
                codes::M_ROW_CONSERVATION,
                Location::MatrixRow {
                    matrix: matrix.to_string(),
                    row: i,
                },
                format!(
                    "row {i} sums to {:.6e}, violating q_ii = -sum of off-diagonal rates",
                    row[i] + off_sum
                ),
            ));
        }
        if off_sum <= 0.0 {
            absorbing.push(i);
        }
        departure_rates.push(Some(off_sum.max(0.0)));
    }

    // Uniformization constant v = max departure rate (Sec. 4.2.1).
    let rates: Vec<f64> = departure_rates.iter().filter_map(|r| *r).collect();
    if rates.len() == n && rates.iter().all(|&r| r <= 0.0) {
        out.push(Diagnostic::warning(
            codes::M_ZERO_UNIFORMIZATION,
            Location::MatrixRow {
                matrix: matrix.to_string(),
                row: 0,
            },
            "every departure rate is zero: the uniformization constant vanishes and \
             the chain never moves"
                .to_string(),
        ));
    } else if !absorbing.is_empty() {
        out.push(Diagnostic::hint(
            codes::M_ABSORBING_STATES,
            Location::MatrixRow {
                matrix: matrix.to_string(),
                row: absorbing[0],
            },
            format!(
                "{} absorbing state(s) detected (rows {:?}); expected for workflow \
                 chains, fatal for availability chains",
                absorbing.len(),
                absorbing
            ),
        ));
    }

    // Stiffness: spread of positive departure rates.
    let positive: Vec<f64> = rates.iter().copied().filter(|&r| r > 0.0).collect();
    if let (Some(&max), Some(&min)) = (
        positive.iter().max_by(|a, b| a.total_cmp(b)),
        positive.iter().min_by(|a, b| a.total_cmp(b)),
    ) {
        if max / min > STIFFNESS_RATIO {
            out.push(Diagnostic::hint(
                codes::M_STIFF_CHAIN,
                Location::MatrixRow {
                    matrix: matrix.to_string(),
                    row: 0,
                },
                format!(
                    "departure rates span {:.1e}..{:.1e} ({:.0e}x): iterative solvers \
                     may converge slowly",
                    min,
                    max,
                    max / min
                ),
            ));
        }
    }
    out
}

/// Lints an already-constructed CTMC by reassembling its generator.
///
/// Construction already rejects error-level defects, so this surfaces
/// the warning/hint-level signals (uniformization, absorption,
/// stiffness) for a chain known to be well-formed.
pub fn lint_ctmc(ctmc: &Ctmc, matrix: &str) -> Diagnostics {
    lint_generator(&ctmc.generator(), matrix)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag_codes(d: &Diagnostics) -> Vec<String> {
        d.distinct_codes()
    }

    #[test]
    fn clean_generator_yields_absorbing_hint_only() {
        let q = Matrix::from_nested(&[&[-1.0, 1.0], &[0.0, 0.0]]);
        let d = lint_generator(&q, "wf");
        assert_eq!(d.error_count(), 0, "{d}");
        assert_eq!(diag_codes(&d), vec![codes::M_ABSORBING_STATES.to_string()]);
    }

    #[test]
    fn ergodic_generator_is_silent() {
        let q = Matrix::from_nested(&[&[-1.0, 1.0], &[2.0, -2.0]]);
        let d = lint_generator(&q, "avail");
        assert!(d.is_empty(), "{d}");
    }

    #[test]
    fn non_finite_entry_is_reported_once_per_entry() {
        let q = Matrix::from_nested(&[&[f64::NAN, 1.0], &[2.0, -2.0]]);
        let d = lint_generator(&q, "wf");
        assert_eq!(d.with_code(codes::M_NON_FINITE).count(), 1);
        // The broken row is excluded from conservation checks.
        assert_eq!(d.with_code(codes::M_ROW_CONSERVATION).count(), 0, "{d}");
    }

    #[test]
    fn negative_off_diagonal_and_conservation_both_reported() {
        let q = Matrix::from_nested(&[&[1.0, -1.0], &[1.0, -1.0]]);
        let d = lint_generator(&q, "wf");
        let found = diag_codes(&d);
        assert!(
            found.contains(&codes::M_NEGATIVE_OFF_DIAGONAL.to_string()),
            "{found:?}"
        );
        assert!(
            found.contains(&codes::M_POSITIVE_DIAGONAL.to_string()),
            "{found:?}"
        );
    }

    #[test]
    fn row_conservation_violation_is_reported() {
        let q = Matrix::from_nested(&[&[-1.0, 0.5], &[1.0, -1.0]]);
        let d = lint_generator(&q, "wf");
        assert_eq!(d.with_code(codes::M_ROW_CONSERVATION).count(), 1);
        assert!(Ctmc::from_generator(&q).is_err());
    }

    #[test]
    fn all_absorbing_chain_warns_zero_uniformization() {
        let q = Matrix::zeros(2, 2);
        let d = lint_generator(&q, "wf");
        assert_eq!(
            diag_codes(&d),
            vec![codes::M_ZERO_UNIFORMIZATION.to_string()]
        );
        assert_eq!(d.error_count(), 0);
    }

    #[test]
    fn stiff_chain_is_hinted() {
        let q = Matrix::from_nested(&[&[-1e-8, 1e-8, 0.0], &[0.0, -1e6, 1e6], &[1e6, 0.0, -1e6]]);
        let d = lint_generator(&q, "wf");
        assert!(
            diag_codes(&d).contains(&codes::M_STIFF_CHAIN.to_string()),
            "{d}"
        );
        assert_eq!(d.error_count(), 0);
    }

    #[test]
    fn non_square_matrix_is_an_error() {
        let q = Matrix::zeros(2, 3);
        let d = lint_generator(&q, "wf");
        assert_eq!(d.error_count(), 1);
    }

    #[test]
    fn generator_accepted_by_ctmc_lints_without_errors() {
        let q = Matrix::from_nested(&[&[-2.0, 1.5, 0.5], &[0.3, -1.3, 1.0], &[2.0, 0.1, -2.1]]);
        let c = Ctmc::from_generator(&q).unwrap();
        assert_eq!(lint_ctmc(&c, "avail").error_count(), 0);
    }
}
