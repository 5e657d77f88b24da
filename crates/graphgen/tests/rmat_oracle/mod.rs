//! The classic per-edge R-MAT sampler, drawing through `rand`'s `StdRng`:
//! the oracle `rmat`'s own kernel must equal edge for edge. It is shared by
//! `rmat`'s unit tests and `generator_props.rs`, and resolves `RmatConfig`
//! and `RawEdge` from whichever module includes it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{RawEdge, RmatConfig};

/// The first `m` edges of the stream seeded with `seed`.
pub fn edges(cfg: &RmatConfig, seed: u64, m: u64) -> Vec<RawEdge> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m).map(|_| sample_edge(cfg, &mut rng)).collect()
}

fn sample_edge(cfg: &RmatConfig, rng: &mut StdRng) -> RawEdge {
    let mut src = 0u64;
    let mut dst = 0u64;
    let (mut a, mut b, mut c) = (cfg.a, cfg.b, cfg.c);
    for level in 0..cfg.scale {
        let r: f64 = rng.random();
        let bit = 1u64 << (cfg.scale - 1 - level);
        if r < a {
            // top-left: no bits set
        } else if r < a + b {
            dst |= bit;
        } else if r < a + b + c {
            src |= bit;
        } else {
            src |= bit;
            dst |= bit;
        }
        if cfg.noise > 0.0 {
            let na = a * (1.0 - cfg.noise + 2.0 * cfg.noise * rng.random::<f64>());
            let nb = b * (1.0 - cfg.noise + 2.0 * cfg.noise * rng.random::<f64>());
            let nc = c * (1.0 - cfg.noise + 2.0 * cfg.noise * rng.random::<f64>());
            let nd = (1.0 - a - b - c) * (1.0 - cfg.noise + 2.0 * cfg.noise * rng.random::<f64>());
            let sum = na + nb + nc + nd;
            a = na / sum;
            b = nb / sum;
            c = nc / sum;
        }
    }
    RawEdge::new(src, dst)
}
