//! The scheme menu of the batcher.

/// The engine's name for a [`CaptureLaw`](timber_schemes::CaptureLaw):
/// it evaluates the scalar schemes' own law in-line, lane by lane.
pub use timber_schemes::CaptureLaw as BatchScheme;

#[cfg(test)]
mod tests {
    use super::*;
    use timber_netlist::Picos;

    #[test]
    #[should_panic(expected = "guard band must be positive")]
    fn validate_mirrors_scalar_asserts() {
        BatchScheme::Canary { guard: Picos(0) }.validate();
    }
}
