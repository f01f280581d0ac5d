//! The virtual cost model translating logical work into CPU time.
//!
//! The paper's performance arguments are about *relative* costs: digital
//! signatures dominate hashing, query execution scales with data scanned,
//! and the auditor wins by skipping signatures and replies.  Experiments
//! charge virtual CPU microseconds through this table, so results are
//! machine-independent and deterministic.  Default constants were
//! calibrated against the `sdr-crypto`/`sdr-store` criterion benches (see
//! E11 in EXPERIMENTS.md) and rounded; the *ratios* are what matter.

use crate::time::SimDuration;

/// Cost constants (virtual microseconds) for protocol operations.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Producing one digital signature (paper-era RSA ≈ milliseconds; the
    /// slave must do this for every read it serves).
    pub sign: SimDuration,
    /// Verifying one signature (cheaper than signing).
    pub verify: SimDuration,
    /// Hashing cost per KiB of data (SHA-1/SHA-256 are within 2x).
    pub hash_per_kib: SimDuration,
    /// Fixed per-query planning/dispatch overhead.
    pub query_fixed: SimDuration,
    /// Cost per row scanned by a query.
    pub row_scan: SimDuration,
    /// Cost per row fetched through an index (cheaper than a scan row).
    pub index_probe: SimDuration,
    /// Cost per byte of text matched by a grep query, expressed per KiB.
    pub grep_per_kib: SimDuration,
    /// Applying one write operation to the store.
    pub write_apply: SimDuration,
    /// Serialising/deserialising a message, per KiB.
    pub serde_per_kib: SimDuration,
    /// Query-cache lookup (auditor optimisation).
    pub cache_lookup: SimDuration,
}

impl CostModel {
    /// Default calibration (see module docs).
    pub fn standard() -> Self {
        CostModel {
            sign: SimDuration::from_micros(2_500),
            verify: SimDuration::from_micros(400),
            hash_per_kib: SimDuration::from_micros(4),
            query_fixed: SimDuration::from_micros(20),
            row_scan: SimDuration::from_micros(2),
            index_probe: SimDuration::from_micros(5),
            grep_per_kib: SimDuration::from_micros(12),
            write_apply: SimDuration::from_micros(50),
            serde_per_kib: SimDuration::from_micros(2),
            cache_lookup: SimDuration::from_micros(3),
        }
    }

    /// Hashing cost for `bytes` of data.
    pub fn hash_cost(&self, bytes: usize) -> SimDuration {
        per_kib(self.hash_per_kib, bytes)
    }

    /// Serialisation cost for `bytes`.
    pub fn serde_cost(&self, bytes: usize) -> SimDuration {
        per_kib(self.serde_per_kib, bytes)
    }

    /// Grep cost over `bytes` of text.
    pub fn grep_cost(&self, bytes: usize) -> SimDuration {
        per_kib(self.grep_per_kib, bytes)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::standard()
    }
}

/// Scales a per-KiB cost to `bytes`, rounding up to at least 1 µs for any
/// non-empty payload so work is never free.
fn per_kib(rate: SimDuration, bytes: usize) -> SimDuration {
    if bytes == 0 || rate == SimDuration::ZERO {
        return SimDuration::ZERO;
    }
    let micros = (rate.as_micros() as u128 * bytes as u128).div_ceil(1024) as u64;
    SimDuration::from_micros(micros.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signing_dominates_verification_dominates_hashing() {
        let c = CostModel::standard();
        assert!(c.sign > c.verify);
        assert!(c.verify > c.hash_cost(1024));
    }

    #[test]
    fn per_kib_scaling() {
        let c = CostModel::standard();
        assert_eq!(c.hash_cost(0), SimDuration::ZERO);
        assert_eq!(c.hash_cost(1024), c.hash_per_kib);
        assert_eq!(c.hash_cost(2048), c.hash_per_kib * 2);
        // Sub-KiB payloads still cost at least 1 µs.
        assert!(c.hash_cost(10) >= SimDuration::from_micros(1));
    }
}
