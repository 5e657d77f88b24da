//! NXgraph core engine.
//!
//! A from-scratch Rust implementation of *NXgraph: An Efficient Graph
//! Processing System on a Single Machine* (Chi et al., ICDE 2016).
//!
//! The system stores a directed graph as `P` vertex **intervals** and
//! `P²` edge **sub-shards**; sub-shard `SS(i→j)` holds every edge whose
//! source lies in interval `Iᵢ` and destination in interval `Iⱼ`, sorted by
//! destination then source (the **Destination-Sorted Sub-Shard** structure,
//! §II-A/§III-A). Destination-sorting gives each worker thread exclusive
//! ownership of a destination range, so updates need no locks or atomics
//! (§III-D), and lets edges be stored in a compressed sparse format.
//!
//! Three update strategies trade memory for I/O (§III-B), all executed by
//! one driver ([`engine::mpu`]) that keeps `Q` of `P` intervals resident
//! as ping-pong pairs and sends the rest through hubs:
//!
//! * **Single-Phase Update** (`Q = P`): every interval lives in memory;
//!   sub-shards stream through; minimum I/O.
//! * **Double-Phase Update** (`Q = 0`): fully disk-resident; a *ToHub*
//!   pass streams intervals row-by-row writing incremental hubs, a
//!   *FromHub* pass folds hubs column-by-column back into intervals.
//! * **Mixed-Phase Update** (`0 < Q < P`): resident intervals update
//!   SPU-style, the rest DPU-style.
//!
//! The strategy and its residency `(Q, sub-shard cache)` are chosen from
//! the memory budget in one place ([`engine::select`]).
//!
//! Vertex computations (PageRank, BFS, WCC, SCC, …) implement
//! [`program::VertexProgram`]; [`algo`] ships the paper's evaluation suite.
//! [`iomodel`] reproduces the closed-form I/O bounds of Table II and the
//! MPU-vs-TurboGraph ratio of Fig 6. [`mod@reference`] contains single-threaded
//! in-memory oracles used by the test-suite to validate every engine.

pub mod algo;
pub mod dsss;
pub mod dynamic;
pub mod engine;
pub mod error;
pub mod iomodel;
pub mod maintain;
pub mod parallel;
pub mod prep;
pub mod program;
pub mod reference;
pub mod serve;
pub mod types;

pub use dsss::PreparedGraph;
pub use dynamic::{CommitStats, CompactReport, Compaction, DynamicConfig, DynamicGraph};
pub use engine::{EngineConfig, RunStats, Strategy};
pub use error::{EngineError, EngineResult};
pub use maintain::{MaintStats, MaintenanceThread, ScrubReport};
pub use prep::{preprocess, PrepConfig};
pub use program::VertexProgram;
pub use serve::{
    GraphService, Query, QueryOutput, ServeConfig, ServeError, ServeStats, SlotHold, Snapshot,
};
pub use types::{Attr, VertexId};

/// The example graph of Fig 1 in the paper (7 vertices, 14 edges), used
/// throughout the test-suite.
///
/// Edges are returned as dense `(src, dst)` pairs.
pub fn fig1_example_edges() -> Vec<(VertexId, VertexId)> {
    vec![
        // Shard S1 (dst ∈ {0,1}): SS2.1: 3→0, 2→1, 3→1. SS3.1: 4→1. SS4.1: 6→1.
        (3, 0),
        (2, 1),
        (3, 1),
        (4, 1),
        (6, 1),
        // Shard S2 (dst ∈ {2,3}): SS1.2: 1→2, 0→3, 1→3. SS2.2: 3→2. SS3.2: 5→2, 4→3, 5→3.
        (1, 2),
        (0, 3),
        (1, 3),
        (3, 2),
        (5, 2),
        (4, 3),
        (5, 3),
        // Shard S3 (dst ∈ {4,5}): SS1.3: 1→4, 0→5. SS2.3: 3→4, 3→5. SS3.3: 5→4, 4→5. SS4.3: 6→4.
        (1, 4),
        (0, 5),
        (3, 4),
        (3, 5),
        (5, 4),
        (4, 5),
        (6, 4),
        // Shard S4 (dst = 6): SS1.4: 0→6. SS3.4: 4→6.
        (0, 6),
        (4, 6),
    ]
}
