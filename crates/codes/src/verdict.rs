//! The three-way outcome of a position-error check.
//!
//! Moved here from `rtm-pecc` (which re-exports it) so the stream
//! codecs and the cyclic code share one verdict vocabulary.

use std::fmt;

/// Decoder output for one shift check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Observed pattern matches the expectation: no position error
    /// (or, for the cyclic code only, an aliased multiple of the code
    /// period — the stream codecs never alias).
    Clean,
    /// A ±k out-of-step error was identified; the payload is the signed
    /// offset to undo (positive = walls over-shifted, shift back).
    Correctable(i32),
    /// An error was detected but could not be corrected (ambiguous
    /// direction, garbled read, or beyond design strength): raise a
    /// DUE.
    Uncorrectable,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Clean => write!(f, "clean"),
            Verdict::Correctable(k) => write!(f, "correctable ({k:+})"),
            Verdict::Uncorrectable => write!(f, "uncorrectable"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_display() {
        assert_eq!(Verdict::Clean.to_string(), "clean");
        assert_eq!(Verdict::Correctable(-1).to_string(), "correctable (-1)");
        assert_eq!(Verdict::Uncorrectable.to_string(), "uncorrectable");
    }
}
