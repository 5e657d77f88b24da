//! Strategy and residency selection from the memory budget (§III-B).
//!
//! SPU needs ping-pong copies of every interval: `2·n·Ba` bytes. If the
//! budget covers that, SPU is "always preferred over DPU" (Exp 3). With a
//! partial budget, `Q = ⌊B_M/(2·n·Ba)·P⌋` intervals stay resident and MPU
//! applies; with none, DPU. The degree table (4 bytes/vertex, needed by
//! scatter-style programs) is charged against the budget first.

use nxgraph_storage::budget::ResidencyPlan;

use super::Strategy;

/// Bytes per vertex of the always-resident out-degree table.
pub const DEGREE_TABLE_BYTES_PER_VERTEX: u64 = 4;

/// Resolve the strategy and residency plan for a graph of `n` vertices,
/// `p` intervals, `value_size`-byte attributes and `budget` bytes.
pub fn choose_strategy(n: u64, p: u32, value_size: usize, budget: u64) -> (Strategy, ResidencyPlan) {
    let effective = budget.saturating_sub(n * DEGREE_TABLE_BYTES_PER_VERTEX);
    let plan = ResidencyPlan::compute(n, p as usize, value_size as u64, effective);
    let strategy = if plan.is_spu() {
        Strategy::Spu
    } else if plan.is_dpu() {
        Strategy::Dpu
    } else {
        Strategy::Mpu
    };
    (strategy, plan)
}

/// Resolve `requested` (`Auto` picks via [`choose_strategy`]) and the one
/// driver's residency for it: `(strategy, Q, sub-shard cache bytes)`.
///
/// * SPU keeps all `P` intervals resident and, "if there are still memory
///   budget left", caches sub-shards with what the ping-pong pairs and the
///   degree table leave over (§III-B1).
/// * DPU keeps nothing resident and never caches, whatever the budget.
/// * MPU takes the residency plan's `Q` and leftover.
pub fn residency(
    requested: Strategy,
    n: u64,
    p: u32,
    value_size: usize,
    budget: u64,
) -> (Strategy, u32, u64) {
    let (auto, plan) = choose_strategy(n, p, value_size, budget);
    let strategy = if requested == Strategy::Auto { auto } else { requested };
    match strategy {
        Strategy::Spu => {
            let resident = 2 * n * value_size as u64 + n * DEGREE_TABLE_BYTES_PER_VERTEX;
            (strategy, p, budget.saturating_sub(resident))
        }
        Strategy::Dpu => (strategy, 0, 0),
        _ => (strategy, plan.resident_intervals as u32, plan.shard_cache_bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_is_spu() {
        let (s, plan) = choose_strategy(1_000_000, 16, 8, u64::MAX);
        assert_eq!(s, Strategy::Spu);
        assert!(plan.is_spu());
    }

    #[test]
    fn tiny_budget_is_dpu() {
        let (s, plan) = choose_strategy(1_000_000, 16, 8, 4_000_000);
        // Degree table alone eats the budget.
        assert_eq!(s, Strategy::Dpu);
        assert!(plan.is_dpu());
    }

    #[test]
    fn middle_budget_is_mpu() {
        // n=1M, Ba=8 → ping-pong 16 MB; degrees 4 MB. Budget 12 MB →
        // 8 MB effective → Q = 8 of 16.
        let (s, plan) = choose_strategy(1_000_000, 16, 8, 12_000_000);
        assert_eq!(s, Strategy::Mpu);
        assert_eq!(plan.resident_intervals, 8);
    }

    #[test]
    fn threshold_is_exact() {
        let n = 1000u64;
        let full = n * 4 + 2 * n * 8;
        assert_eq!(choose_strategy(n, 4, 8, full).0, Strategy::Spu);
        assert_ne!(choose_strategy(n, 4, 8, full - 1).0, Strategy::Spu);
    }

    #[test]
    fn residency_per_strategy() {
        // n=1000, Ba=8: ping-pong 16 000, degrees 4 000.
        let (n, p) = (1000u64, 8u32);
        assert_eq!(residency(Strategy::Auto, n, p, 8, u64::MAX).0, Strategy::Spu);
        assert_eq!(residency(Strategy::Spu, n, p, 8, 25_000), (Strategy::Spu, 8, 5_000));
        // Saturates instead of underflowing below the SPU footprint.
        assert_eq!(residency(Strategy::Spu, n, p, 8, 1_000), (Strategy::Spu, 8, 0));
        assert_eq!(residency(Strategy::Dpu, n, p, 8, u64::MAX), (Strategy::Dpu, 0, 0));
        // Auto at a budget below one interval's pair resolves to DPU, which
        // drops the plan's leftover rather than caching with it.
        assert_eq!(residency(Strategy::Auto, n, p, 8, 4_100), (Strategy::Dpu, 0, 0));
        // 8 000 effective → Q = 4 of 8, whose pairs consume all of it.
        assert_eq!(residency(Strategy::Mpu, n, p, 8, 12_000), (Strategy::Mpu, 4, 0));
        assert_eq!(residency(Strategy::Mpu, n, p, 8, 13_000), (Strategy::Mpu, 4, 1_000));
    }

    #[test]
    fn strategy_monotone_in_budget() {
        // As budget grows the resident count must not shrink.
        let mut last = 0usize;
        for budget in (0..30_000u64).step_by(1000) {
            let (_, plan) = choose_strategy(1000, 8, 8, budget);
            assert!(plan.resident_intervals >= last);
            last = plan.resident_intervals;
        }
    }
}
