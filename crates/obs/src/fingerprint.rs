//! Stable 64-bit fingerprints for compiled plans.
//!
//! The conformance harness and the recompile-attribution audit both need a
//! cheap, deterministic identity for "the plan this run executed": two runs
//! whose explained plans render identically must fingerprint identically,
//! across processes and across machines. We hash the rendered plan text
//! with the FxHash function the engine uses for lineage keys.

/// FxHash fingerprint of a plan's text ([`sysds_common::hash::hash_str`]).
pub fn fingerprint64(text: &str) -> u64 {
    sysds_common::hash::hash_str(text)
}

/// Render a fingerprint the way reports print it (16 hex digits).
pub fn render_fingerprint(fp: u64) -> String {
    format!("{fp:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_discriminating() {
        assert_eq!(fingerprint64("abc"), fingerprint64("abc"));
        assert_ne!(fingerprint64("abc"), fingerprint64("abd"));
        assert_ne!(fingerprint64(""), fingerprint64(" "));
    }

    #[test]
    fn tail_bytes_matter() {
        // Exercise the chunk remainder path: same 8-byte prefix, different
        // tails must differ.
        assert_ne!(fingerprint64("12345678a"), fingerprint64("12345678b"));
        assert_ne!(fingerprint64("12345678"), fingerprint64("12345678\0"));
    }

    #[test]
    fn fingerprints_keep_their_values() {
        // Values of the fingerprints reports have always printed; a change
        // here breaks every stored plan fingerprint.
        let plan = "PROGRAM\n--MAIN PROGRAM\n----GENERIC (lines 1-2)\n";
        assert_eq!(render_fingerprint(fingerprint64(plan)), "b45f3c422faa53b3");
        assert_eq!(
            render_fingerprint(fingerprint64("plan")),
            "a7777ff22058a784"
        );
        assert_eq!(fingerprint64(""), 0);
    }

    #[test]
    fn rendering_is_fixed_width_hex() {
        let s = render_fingerprint(fingerprint64("plan"));
        assert_eq!(s.len(), 16);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
