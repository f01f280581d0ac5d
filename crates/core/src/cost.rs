//! Converts store-level query costs into virtual CPU time.

use sdr_sim::{CostModel, SimDuration};
use sdr_store::QueryCost;

/// CPU time to execute a query with cost profile `cost` producing
/// `result_bytes` of output.
pub fn query_charge(cost: &QueryCost, result_bytes: usize, m: &CostModel) -> SimDuration {
    m.query_fixed
        + m.row_scan * cost.rows_scanned
        + m.index_probe * cost.index_probes
        + m.grep_cost(cost.bytes_processed as usize)
        + m.serde_cost(result_bytes)
}

/// CPU time to assemble or fold one Merkle proof of `depth` levels: a
/// 64-byte node hash per level plus the leaf.  The one proof charge —
/// slaves pay it building a path, range skeleton or manifest slice,
/// clients pay it folding the same evidence back up to the signed digest.
pub fn proof_fold_charge(depth: usize, m: &CostModel) -> SimDuration {
    m.hash_cost(64) * (1 + depth as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_scales_with_work() {
        let m = CostModel::standard();
        let cheap = QueryCost {
            rows_scanned: 1,
            index_probes: 0,
            bytes_processed: 0,
            rows_returned: 1,
        };
        let expensive = QueryCost {
            rows_scanned: 10_000,
            index_probes: 0,
            bytes_processed: 1 << 20,
            rows_returned: 100,
        };
        assert!(query_charge(&expensive, 4096, &m) > query_charge(&cheap, 64, &m) * 100);
    }

    #[test]
    fn index_cheaper_than_scan_for_selective_queries() {
        let m = CostModel::standard();
        let scan = QueryCost {
            rows_scanned: 10_000,
            index_probes: 0,
            bytes_processed: 0,
            rows_returned: 3,
        };
        let probe = QueryCost {
            rows_scanned: 0,
            index_probes: 3,
            bytes_processed: 0,
            rows_returned: 3,
        };
        assert!(query_charge(&probe, 64, &m) < query_charge(&scan, 64, &m));
    }
}
