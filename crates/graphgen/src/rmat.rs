//! R-MAT (Recursive MATrix) graph generator.
//!
//! R-MAT [Chakrabarti et al., SDM 2004] recursively subdivides the adjacency
//! matrix into quadrants with probabilities `(a, b, c, d)`; skewed
//! probabilities produce the power-law in/out-degree distributions of web
//! and social graphs — the property that drives sub-shard imbalance and hub
//! in-degree `d` in the NXgraph evaluation.
//!
//! **Stream contract.** Every edge is sampled from one SplitMix64 stream
//! (the `rand` shim's `StdRng`, bit for bit, though this module does not
//! draw through `rand`). Edge `e` uses exactly draws `[e·k, (e+1)·k)`,
//! where `k = scale · (1 + 4·[noise > 0])`: one draw per level picks the
//! quadrant, and with noise on four more perturb `(a, b, c, d)`. SplitMix64
//! jumps ahead in O(1), so any range of edges can be filled on its own;
//! [`generate`] fills slices on every available core and the result does
//! not depend on the number of threads.

use crate::RawEdge;

/// R-MAT generator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatConfig {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Edges per vertex (the generated edge count is `edge_factor << scale`).
    pub edge_factor: u32,
    /// Quadrant probability `a` (top-left).
    pub a: f64,
    /// Quadrant probability `b` (top-right).
    pub b: f64,
    /// Quadrant probability `c` (bottom-left).
    pub c: f64,
    /// RNG seed; generation is fully deterministic given the config.
    pub seed: u64,
    /// Perturbation noise applied to quadrant probabilities per level,
    /// avoiding exact self-similarity artifacts (0.0 disables).
    pub noise: f64,
}

impl RmatConfig {
    /// The classic "graph500"-style skew: a=0.57, b=0.19, c=0.19.
    pub fn graph500(scale: u32, edge_factor: u32, seed: u64) -> Self {
        Self {
            scale,
            edge_factor,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed,
            noise: 0.05,
        }
    }

    /// Quadrant probability `d` (derived).
    pub fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }

    /// Number of vertices in the id space (`2^scale`).
    pub fn num_vertices(&self) -> u64 {
        1u64 << self.scale
    }

    /// Number of edges to generate.
    pub fn num_edges(&self) -> u64 {
        self.edge_factor as u64 * self.num_vertices()
    }
}

/// Generate the full edge list for `cfg`.
///
/// The list is allocated once and filled in contiguous slices, one per
/// available core, by scoped threads that are joined before this returns.
/// The result does not depend on the number of threads.
pub fn generate(cfg: &RmatConfig) -> Vec<RawEdge> {
    assert!(cfg.scale > 0 && cfg.scale < 40, "scale out of range");
    assert!(
        cfg.a > 0.0 && cfg.b >= 0.0 && cfg.c >= 0.0 && cfg.d() >= 0.0,
        "invalid quadrant probabilities"
    );
    let mut edges = vec![RawEdge::new(0, 0); cfg.num_edges() as usize];
    fill_parallel(cfg, cfg.seed, &mut edges);
    edges
}

/// Generate the edge list in fixed-size chunks without ever holding the
/// whole list in memory — the source for out-of-core preprocessing, where
/// the graph must not fit in RAM.
///
/// Chunk `k` is the stream seeded with `cfg.seed + k`, so it is
/// deterministic and independent of every other chunk; the union follows
/// the same R-MAT distribution as [`generate`] (each edge is an i.i.d.
/// sample), though not the identical edge sequence.
pub fn generate_chunked(
    cfg: &RmatConfig,
    chunk_edges: u64,
) -> impl Iterator<Item = Vec<RawEdge>> + '_ {
    assert!(cfg.scale > 0 && cfg.scale < 40, "scale out of range");
    assert!(chunk_edges > 0, "chunk_edges must be positive");
    let m = cfg.num_edges();
    let chunks = m.div_ceil(chunk_edges);
    (0..chunks).map(move |k| {
        let len = chunk_edges.min(m - k * chunk_edges) as usize;
        let mut edges = vec![RawEdge::new(0, 0); len];
        fill_parallel(cfg, cfg.seed.wrapping_add(k), &mut edges);
        edges
    })
}

/// [`fill`] `out` (edges `0..out.len()` of the stream) in one contiguous
/// slice per available core.
fn fill_parallel(cfg: &RmatConfig, stream_seed: u64, out: &mut [RawEdge]) {
    if out.is_empty() {
        return;
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let per = out.len().div_ceil(threads);
    std::thread::scope(|s| {
        let mut slices = out.chunks_mut(per).enumerate();
        let (_, first) = slices.next().expect("out is not empty");
        for (i, slice) in slices {
            s.spawn(move || fill(cfg, stream_seed, (i * per) as u64, slice));
        }
        fill(cfg, stream_seed, 0, first);
    });
}

/// SplitMix64's increment: the state after `n` draws is `seed + n·GAMMA`.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The next uniform `f64` in `[0, 1)` of a SplitMix64 stream: the same
/// words and the same 53-bit conversion as the `rand` shim's `StdRng`.
#[inline(always)]
fn unit(state: &mut u64) -> f64 {
    *state = state.wrapping_add(GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Fill `out` with edges `first_edge..first_edge + out.len()` of the
/// stream seeded with `stream_seed`: edge `e` uses draws `[e·k, (e+1)·k)`
/// (the module's stream contract), so any split of a range fills the same
/// edges as one call over it. Edges are sampled two at a time.
fn fill(cfg: &RmatConfig, stream_seed: u64, first_edge: u64, out: &mut [RawEdge]) {
    // k draws per edge: one per level, plus four noise draws per level.
    let k = cfg.scale as u64 * if cfg.noise > 0.0 { 5 } else { 1 };
    let stride = k.wrapping_mul(GAMMA);
    let mut state = stream_seed.wrapping_add(first_edge.wrapping_mul(stride));
    let mut pairs = out.chunks_exact_mut(2);
    for pair in &mut pairs {
        let next = state.wrapping_add(stride);
        pair.copy_from_slice(&sample(cfg, [state, next]));
        state = next.wrapping_add(stride);
    }
    if let [last] = pairs.into_remainder() {
        [*last] = sample(cfg, [state]);
    }
}

/// Sample `L` independent edges in lockstep, lane `l` drawing from the
/// SplitMix64 state `state[l]`. The quadrant is picked without branches;
/// the float operations are the classic sampler's, in its order.
#[inline(always)]
fn sample<const L: usize>(cfg: &RmatConfig, mut state: [u64; L]) -> [RawEdge; L] {
    let (lo, span) = (1.0 - cfg.noise, 2.0 * cfg.noise);
    let (mut src, mut dst) = ([0u64; L], [0u64; L]);
    let (mut a, mut b, mut c) = ([cfg.a; L], [cfg.b; L], [cfg.c; L]);
    for _ in 0..cfg.scale {
        for l in 0..L {
            let r = unit(&mut state[l]);
            let ab = a[l] + b[l];
            // Quadrants in order a (none), b (dst), c (src), d (both).
            let (in_a, in_ab, in_abc) = (r < a[l], r < ab, r < ab + c[l]);
            src[l] = src[l] << 1 | u64::from(!in_a & !in_ab);
            dst[l] = dst[l] << 1 | u64::from(!in_a & (in_ab | !in_abc));
            if cfg.noise > 0.0 {
                // Multiplicative noise, renormalised, keeps expected skew.
                let na = a[l] * (lo + span * unit(&mut state[l]));
                let nb = b[l] * (lo + span * unit(&mut state[l]));
                let nc = c[l] * (lo + span * unit(&mut state[l]));
                let nd = (1.0 - a[l] - b[l] - c[l]) * (lo + span * unit(&mut state[l]));
                let sum = na + nb + nc + nd;
                a[l] = na / sum;
                b[l] = nb / sum;
                c[l] = nc / sum;
            }
        }
    }
    std::array::from_fn(|l| RawEdge::new(src[l], dst[l]))
}

#[cfg(test)]
#[path = "../tests/rmat_oracle/mod.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    /// FNV-1a over each edge's `src` then `dst`, little-endian.
    fn digest<'a>(edges: impl IntoIterator<Item = &'a RawEdge>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for e in edges {
            for byte in e.src.to_le_bytes().into_iter().chain(e.dst.to_le_bytes()) {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn fill_over_any_split_equals_the_oracle() {
        let m = 1001u64;
        // Cut points: 1 to 5 pieces, with pieces of length 0, 1 and odd.
        let splits: [&[u64]; 7] = [
            &[],
            &[0],
            &[1],
            &[m],
            &[7, 7, 8],
            &[2, 501, 1000],
            &[333, 334, 667, 1000],
        ];
        for noise in [0.05, 0.0] {
            for seed in [42, u64::MAX - 3] {
                let cfg = RmatConfig {
                    noise,
                    ..RmatConfig::graph500(10, 1, seed)
                };
                let want = oracle::edges(&cfg, seed, m);
                for cuts in splits {
                    let mut got = vec![RawEdge::new(0, 0); m as usize];
                    let mut from = 0;
                    for &to in cuts.iter().chain([&m]) {
                        fill(&cfg, seed, from, &mut got[from as usize..to as usize]);
                        from = to;
                    }
                    assert_eq!(got, want, "noise {noise}, seed {seed}, cuts {cuts:?}");
                }
            }
        }
    }

    #[test]
    fn generated_graphs_are_pinned() {
        // Digests of the classic serial sampler's output; `generate` spans
        // several threads wherever more than one core is available.
        let edges = generate(&RmatConfig::graph500(16, 4, 42));
        assert_eq!(digest(&edges), 0x671a_fee9_d130_850a);
        let chunks: Vec<Vec<RawEdge>> =
            generate_chunked(&RmatConfig::graph500(12, 4, 9), 1000).collect();
        assert_eq!(digest(chunks.iter().flatten()), 0xf4d8_4b2a_8609_61da);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = RmatConfig::graph500(10, 8, 42);
        assert_eq!(generate(&cfg), generate(&cfg));
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&RmatConfig::graph500(10, 8, 1));
        let b = generate(&RmatConfig::graph500(10, 8, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn edge_count_and_id_range() {
        let cfg = RmatConfig::graph500(8, 4, 7);
        let edges = generate(&cfg);
        assert_eq!(edges.len(), 4 << 8);
        let n = cfg.num_vertices();
        assert!(edges.iter().all(|e| e.src < n && e.dst < n));
    }

    #[test]
    fn chunked_generation_is_deterministic_and_complete() {
        let cfg = RmatConfig::graph500(8, 4, 9);
        let a: Vec<Vec<RawEdge>> = generate_chunked(&cfg, 100).collect();
        let b: Vec<Vec<RawEdge>> = generate_chunked(&cfg, 100).collect();
        assert_eq!(a, b);
        let total: usize = a.iter().map(Vec::len).sum();
        assert_eq!(total as u64, cfg.num_edges());
        // Every chunk except the last is exactly chunk_edges long.
        for c in &a[..a.len() - 1] {
            assert_eq!(c.len(), 100);
        }
        let n = cfg.num_vertices();
        assert!(a.iter().flatten().all(|e| e.src < n && e.dst < n));
    }

    #[test]
    fn produces_skewed_degrees() {
        // With graph500 skew the max degree should far exceed the mean.
        let cfg = RmatConfig::graph500(12, 16, 3);
        let edges = generate(&cfg);
        let s = stats(&edges);
        assert!(
            s.max_out_degree as f64 > 8.0 * s.mean_degree,
            "max {} vs mean {}",
            s.max_out_degree,
            s.mean_degree
        );
    }

    #[test]
    fn uniform_probabilities_are_not_skewed() {
        let cfg = RmatConfig {
            scale: 12,
            edge_factor: 16,
            a: 0.25,
            b: 0.25,
            c: 0.25,
            seed: 3,
            noise: 0.0,
        };
        let edges = generate(&cfg);
        let s = stats(&edges);
        // Uniform quadrants ≈ Erdős–Rényi: max degree stays close to mean.
        assert!((s.max_out_degree as f64) < 5.0 * s.mean_degree);
    }

    #[test]
    #[should_panic(expected = "scale out of range")]
    fn rejects_zero_scale() {
        generate(&RmatConfig::graph500(0, 1, 0));
    }
}
