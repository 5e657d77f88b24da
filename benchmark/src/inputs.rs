//! Everything a workload feeds the program under test, derived from the
//! seed alone: graphs, update batches, queries, and the ticket gate that
//! fixes the interleaving of the two `serve-mixed` clients.

use std::sync::{Condvar, Mutex};

use nxgraph_core::serve::Query;
use nxgraph_graphgen::mesh::{self, MeshConfig};
use nxgraph_graphgen::rmat::{self, RmatConfig};

/// R-MAT edges per vertex (Graph500's 16).
pub const EDGE_FACTOR: u32 = 16;

/// splitmix64: tiny, seedable, and good enough to pick endpoints.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (modulo bias is irrelevant at these ranges).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

pub fn rmat_edges(scale: u32, seed: u64) -> Vec<(u64, u64)> {
    rmat::generate(&RmatConfig::graph500(scale, EDGE_FACTOR, seed))
        .into_iter()
        .map(|e| (e.src, e.dst))
        .collect()
}

/// The mesh has no random part: every seed yields the same grid, which is
/// what keeps the BFS depth (and so the iteration count) fixed.
pub fn mesh_edges(scale: u32) -> Vec<(u64, u64)> {
    mesh::generate(&MeshConfig::with_scale(scale))
        .into_iter()
        .map(|e| (e.src, e.dst))
        .collect()
}

/// `count` batches of `size` edges between indices the base graph already
/// knows, so every commit takes the incremental path and none rebuilds.
pub fn batches(known: &[u64], count: usize, size: usize, seed: u64) -> Vec<Vec<(u64, u64)>> {
    let mut rng = Rng::new(seed ^ 0x0ba7_c4e5);
    let n = known.len() as u64;
    (0..count)
        .map(|_| {
            (0..size)
                .map(|_| (known[rng.below(n) as usize], known[rng.below(n) as usize]))
                .collect()
        })
        .collect()
}

/// Query number `k` of a stream over `n` vertices: kind by `k mod 4`
/// (BFS, SSSP, PPR-from-seed, top-k PageRank), endpoints from the seed.
pub fn query(k: usize, n: u32, rng: &mut Rng) -> Query {
    let a = rng.below(n as u64) as u32;
    let b = rng.below(n as u64) as u32;
    match k % 4 {
        0 => Query::Bfs { root: a, target: b },
        1 => Query::Sssp { root: a, target: b },
        2 => Query::PprFromSeed {
            seed: a,
            iterations: 5,
            k: 8,
        },
        _ => Query::PageRankTopK {
            iterations: 3,
            k: 8,
        },
    }
}

pub fn queries(count: usize, n: u32, seed: u64) -> Vec<Query> {
    let mut rng = Rng::new(seed ^ 0x009e_71e5);
    (0..count).map(|k| query(k, n, &mut rng)).collect()
}

/// Closed-loop coupling of the query client and the writer: commit `k`
/// may start once query `2k` has started. Both counts and the order in
/// which operations are *released* are therefore fixed by construction;
/// only how long each takes is left to the system.
pub struct TicketGate {
    started: Mutex<usize>,
    cv: Condvar,
}

impl TicketGate {
    pub fn new() -> Self {
        Self {
            started: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// The query client calls this as it starts each query.
    pub fn query_started(&self) {
        *self.started.lock().expect("gate lock poisoned") += 1;
        self.cv.notify_all();
    }

    /// The writer calls this before commit `k`; blocks (no spinning — the
    /// two cores belong to the system under test) until query `2k` started.
    pub fn wait_for_commit(&self, k: usize) {
        let mut started = self.started.lock().expect("gate lock poisoned");
        while *started < 2 * k + 1 {
            started = self.cv.wait(started).expect("gate lock poisoned");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn same_seed_same_inputs() {
        let known: Vec<u64> = (0..100).map(|k| k * 3).collect();
        assert_eq!(batches(&known, 4, 16, 42), batches(&known, 4, 16, 42));
        assert_ne!(batches(&known, 4, 16, 42), batches(&known, 4, 16, 7));
        assert!(batches(&known, 4, 16, 42)
            .iter()
            .flatten()
            .all(|(s, d)| s % 3 == 0 && d % 3 == 0));
        assert_eq!(queries(8, 50, 1), queries(8, 50, 1));
        assert_eq!(rmat_edges(6, 9), rmat_edges(6, 9));
        assert_eq!(
            mesh_edges(4).len(),
            MeshConfig::with_scale(4).num_edges() as usize
        );
    }

    #[test]
    fn query_kinds_rotate() {
        let qs = queries(8, 10, 3);
        for (k, q) in qs.iter().enumerate() {
            let kind = match q {
                Query::Bfs { .. } => 0,
                Query::Sssp { .. } => 1,
                Query::PprFromSeed { .. } => 2,
                Query::PageRankTopK { .. } => 3,
            };
            assert_eq!(kind, k % 4);
        }
    }

    /// The ticketed interleaving yields exactly 400 queries and 200
    /// commits, and no commit runs ahead of its ticket.
    #[test]
    fn ticketed_interleaving_counts_and_order() {
        const QUERIES: usize = 400;
        let gate = TicketGate::new();
        let started = AtomicUsize::new(0);
        let commits = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for k in 0..QUERIES / 2 {
                    gate.wait_for_commit(k);
                    assert!(
                        started.load(Ordering::SeqCst) > 2 * k,
                        "commit {k} ran early"
                    );
                    commits.fetch_add(1, Ordering::SeqCst);
                }
            });
            for k in 0..QUERIES {
                started.fetch_add(1, Ordering::SeqCst);
                gate.query_started();
                // A commit can never be more than k/2 + 1 ahead.
                assert!(commits.load(Ordering::SeqCst) <= k / 2 + 1);
            }
        });
        assert_eq!(started.load(Ordering::SeqCst), 400);
        assert_eq!(commits.load(Ordering::SeqCst), 200);
    }
}
