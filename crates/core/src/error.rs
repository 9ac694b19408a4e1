//! Error type for `trim-core`.

use std::fmt;

/// Errors raised by the game-theoretic core.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A configuration parameter was outside its legal range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Human-readable constraint description.
        constraint: &'static str,
        /// The offending value.
        value: f64,
    },
    /// Best-response iteration failed to converge.
    NoConvergence {
        /// Iterations performed.
        iterations: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidParameter {
                name,
                constraint,
                value,
            } => write!(f, "invalid parameter {name}={value}: requires {constraint}"),
            CoreError::NoConvergence { iterations } => {
                write!(
                    f,
                    "best-response iteration did not converge in {iterations} iterations"
                )
            }
        }
    }
}

impl std::error::Error for CoreError {}

/// `a > b` under `partial_cmp`, false for NaN — the explicit form for
/// validation guards, where a NaN parameter must fail the check.
pub(crate) fn strictly_greater(a: f64, b: f64) -> bool {
    a.partial_cmp(&b) == Some(std::cmp::Ordering::Greater)
}

/// `a < b` under `partial_cmp`, false for NaN (see [`strictly_greater`]).
pub(crate) fn strictly_less(a: f64, b: f64) -> bool {
    a.partial_cmp(&b) == Some(std::cmp::Ordering::Less)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = CoreError::InvalidParameter {
            name: "k",
            constraint: "0 < k < 1",
            value: 2.0,
        };
        assert!(e.to_string().contains("k=2"));
        assert!(CoreError::NoConvergence { iterations: 5 }
            .to_string()
            .contains('5'));
    }
}
