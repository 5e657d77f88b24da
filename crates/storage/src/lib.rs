//! Storage substrate for NXgraph.
//!
//! The NXgraph paper (ICDE 2016) is fundamentally a paper about *disk I/O
//! discipline*: every update strategy (SPU / DPU / MPU) is characterised by
//! how many bytes it moves between memory and disk and whether those moves
//! are sequential. This crate provides the substrate those engines run on:
//!
//! * [`disk`] — a [`Disk`] abstraction over whole-file operations with
//!   byte-exact I/O accounting. Backing stores: [`OsDisk`] (real files)
//!   and [`MemDisk`] (in-memory, for tests and RAM-disk runs). Wrappers
//!   return their inner disk from [`Disk::inner`] and override only what
//!   they intercept — [`PacedDisk`] `read_all`/`read_into`; [`FaultDisk`]
//!   `read_all`/`read_into`/`create`/`write_all_to`/`io_profile`;
//!   [`CrashDisk`] (a power-loss simulator that replays any prefix of the
//!   recorded write/remove/rename stream, torn final writes included)
//!   `create`/`write_all_to`/`remove`/`rename` — so adding a primitive
//!   touches only the trait, `OsDisk`, `MemDisk` and the wrappers that
//!   intercept it.
//! * [`counter`] — atomic [`IoCounters`] shared by all
//!   files of a disk; engines never bypass them, so the Table II / Fig 6
//!   byte formulas of the paper can be checked *empirically*.
//! * [`mod@format`] — little-endian binary encoding of typed arrays with
//!   checksummed headers (word-wise FNV-1a since format v2); the on-disk
//!   representation of intervals, sub-shards and hubs. Every blob is read
//!   through one slice parser, [`parse_blob_encoded`](format::parse_blob_encoded)
//!   (raw-only kinds via [`parse_blob`](format::parse_blob)), under the
//!   verify-once [`ChecksumPolicy`]. Since format v3,
//!   sub-shard and hub blobs may carry delta+varint compressed payloads
//!   (sniffed per blob via [`Encoding`], chosen at write time via
//!   [`EncodingPolicy`]).
//! * [`varint`] — the LEB128 primitive behind the v3 compressed payloads.
//! * [`pool`] — page-aligned [`BufferPool`] read buffers and the
//!   [`SharedBytes`] currency behind zero-copy decoding
//!   ([`Disk::read_shared`]).
//! * [`budget`] — explicit memory-budget accounting. The paper controls the
//!   memory knob via kernel boot options; we model the budget directly since
//!   it only ever acts through the engines' residency decisions.
//! * [`profile`] — device cost models (HDD / SSD / RAID-0 SSD) converting
//!   counted bytes + seeks into modeled I/O time, used to reproduce the
//!   paper's HDD-vs-SSD comparisons on arbitrary hardware.
//! * [`manifest`] — a tiny hand-parsed text manifest describing a prepared
//!   graph (no serde; the format is line-oriented `key = value`).

pub mod budget;
pub mod counter;
pub mod disk;
pub mod error;
pub mod fault;
pub mod format;
pub mod layout;
pub mod manifest;
pub mod paced;
pub mod pool;
pub mod profile;
pub mod retry;
pub mod scratch;
pub mod varint;

pub use budget::{global_over_releases, BudgetLease, MemoryBudget};
pub use counter::{IoCounters, IoSnapshot};
pub use disk::{CrashDisk, CrashOp, CutPoint, Disk, DiskConfig, DiskWrite, MemDisk, OsDisk};
pub use error::{ErrorClass, StorageError, StorageResult};
pub use fault::{FaultDisk, FaultKind, FaultOp, FaultPlan, FaultRule, Injection};
pub use format::{ChecksumPolicy, Encoding, EncodingPolicy};
pub use layout::{layout_key, LayoutToken};
pub use manifest::{ChainInfo, GraphManifest};
pub use paced::PacedDisk;
pub use pool::{AlignedBuf, BufferPool, PooledBuf, SharedBytes};
pub use profile::{DeviceProfile, IoProfile, IoProfileSnapshot};
pub use retry::RetryPolicy;
pub use scratch::ScratchDir;
