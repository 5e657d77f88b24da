//! One iteration of Algorithm 1 as a value.
//!
//! [`plan`] lays out, in order, what an iteration reads, absorbs, writes
//! and folds: one [`Group`] per read-pipeline stream (phase A, each active
//! on-disk row of phase B, each on-disk column of phase C), plus a
//! fetch-less group between B and C that finalises the resident intervals.
//! Each step is one term of Table II's per-iteration traffic:
//!
//! * [`Step::ReadInterval`]: an on-disk interval's `n·Ba/P` read, as phase
//!   B's sources or as phase C's old values (only when the program applies
//!   against them; PageRank skips it).
//! * [`Step::Absorb`]: the `m·Be` sub-shard term. A cached cell holds its
//!   view and costs no I/O; a streamed cell is the group's next `Fetch`,
//!   unless an earlier read this run found it empty (the store's memo).
//! * [`Step::ToHub`] / [`Step::FoldHubs`]: the `m·(Ba+Bv)/d` hub term.
//!   ToHub folds the `m·Be` cells between two on-disk intervals (both
//!   directions of one `(i, j)`) straight into hub `H(i→j)` in phase B,
//!   and FromHub reads the hubs back into their column in phase C.
//! * [`Step::Finalize`]: apply, no I/O.
//! * [`Step::WriteInterval`]: an on-disk column's `n·Ba/P` write-back.
//!
//! Planning touches no disk: hits come from the [`ShardStore`], so a fetch
//! list holds only misses, then the hubs its column may fold.
//!
//! For a frontier program (`!ALWAYS_APPLY`, `APPLY_NEEDS_OLD`: BFS, WCC,
//! SSSP, SCC) the plan is an upper bound, so Table II is one too: the
//! executor skips the `ReadInterval`, `Finalize` and `WriteInterval` of a
//! phase C column that no message reached, and any program that reads old
//! values writes an interval back only if its bits changed. Empty cells
//! drop out of the `m·Be` term for every program.

use std::ops::Range;
use std::sync::Arc;

use crate::dsss::{Fetch, PreparedGraph, SubShardView};

use super::store::{Key, ShardStore};
use super::Activity;

/// A cell an [`Step::Absorb`] or a [`Step::ToHub`] folds.
pub enum Cell {
    /// A cached (or memoised empty) view: no I/O.
    Held(Arc<SubShardView>),
    /// The group's next streamed sub-shard, which is cell `Key`.
    Streamed(Key),
}

/// One step of an iteration.
pub enum Step {
    /// Load on-disk interval `j`'s values into the group.
    ReadInterval(u32),
    /// Fold row `row`'s `cells` into the resident accumulators (`None`:
    /// one task list) or column `j`'s buffer (`Some(j)`: one per cell).
    Absorb { row: u32, cells: Vec<Cell>, into: Option<u32> },
    /// ToHub: fold on-disk row `i`'s `cells` of column `j` (one per
    /// direction, forward first) into hub `H(i→j)`, written if any
    /// destination got a message.
    ToHub { i: u32, j: u32, cells: Vec<Cell> },
    /// FromHub: fold the written hubs of `rows` into column `j`, remove them.
    FoldHubs { j: u32, rows: Vec<u32> },
    /// Apply the resident intervals (`None`) or on-disk column `j`.
    Finalize(Option<u32>),
    /// Write on-disk column `j`'s new values back.
    WriteInterval(u32),
}

/// The steps one pipeline stream serves, and that stream's fetch list.
#[derive(Default)]
pub struct Group {
    pub fetches: Vec<Fetch>,
    pub steps: Vec<Step>,
}

/// An iteration's groups, in execution order.
pub struct IterPlan {
    pub groups: Vec<Group>,
}

/// The iteration with intervals `0..q` resident, under this iteration's
/// `activity`, for a program reading directions `dirs` (`read_old`: its
/// on-disk columns apply against their old values).
pub fn plan(
    g: &PreparedGraph,
    q: u32,
    store: &ShardStore,
    activity: &Activity,
    dirs: &[bool],
    read_old: bool,
) -> IterPlan {
    let p = g.num_intervals();
    let live = |i: &u32| !activity.row_skippable(*i);
    let res_rows: Vec<u32> = (0..q).filter(live).collect();
    let disk_rows: Vec<u32> = (q..p).filter(live).collect();
    // Row `i`'s cells `cols × dirs`, direction-major, listing each cache
    // miss for the group's stream.
    let list_cells = |group: &mut Group, i: u32, cols: Range<u32>, dirs: &[bool]| {
        let mut cells = Vec::with_capacity(cols.len() * dirs.len());
        for &reverse in dirs {
            for j in cols.clone() {
                cells.push(match store.cached(i, j, reverse) {
                    Some(view) => Cell::Held(view),
                    None => {
                        group.fetches.push(Fetch::Shard { i, j, reverse });
                        Cell::Streamed((i, j, reverse))
                    }
                });
            }
        }
        cells
    };
    let absorb = |group: &mut Group, i: u32, cols: Range<u32>, dirs: &[bool], into| {
        let cells = list_cells(group, i, cols, dirs);
        group.steps.push(Step::Absorb { row: i, cells, into });
    };

    // Phase A: resident rows into resident columns, SPU order.
    let mut a = Group::default();
    for &reverse in dirs {
        for &i in &res_rows {
            absorb(&mut a, i, 0..q, &[reverse], None);
        }
    }
    let mut groups = vec![a];

    // Phase B: each on-disk row, loaded once; resident columns absorb in
    // memory, each on-disk column's cells (both directions) become one hub.
    for &i in &disk_rows {
        let mut b = Group { fetches: Vec::new(), steps: vec![Step::ReadInterval(i)] };
        for &reverse in dirs {
            absorb(&mut b, i, 0..q, &[reverse], None);
        }
        for j in q..p {
            let cells = list_cells(&mut b, i, j..j + 1, dirs);
            b.steps.push(Step::ToHub { i, j, cells });
        }
        groups.push(b);
    }
    groups.push(Group { fetches: Vec::new(), steps: vec![Step::Finalize(None)] });

    // Phase C: each on-disk column; resident rows absorb their previous
    // values, on-disk rows arrive through their hubs. The old values are
    // read only once every message is in, so a column none reached can
    // skip its read, finalize and write.
    for j in q..p {
        let mut c = Group::default();
        for &reverse in dirs {
            for &i in &res_rows {
                absorb(&mut c, i, j..j + 1, &[reverse], Some(j));
            }
        }
        c.fetches.extend(disk_rows.iter().map(|&i| Fetch::Hub { i, j }));
        c.steps.push(Step::FoldHubs { j, rows: disk_rows.clone() });
        c.steps.extend(read_old.then_some(Step::ReadInterval(j)));
        c.steps.extend([Step::Finalize(Some(j)), Step::WriteInterval(j)]);
        groups.push(c);
    }
    IterPlan { groups }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::{preprocess, PrepConfig};
    use nxgraph_storage::{Disk, MemDisk};

    #[test]
    fn a_skipped_row_yields_no_step_and_columns_fold_only_active_rows() {
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let edges: Vec<(u64, u64)> = crate::fig1_example_edges()
            .into_iter()
            .map(|(s, d)| (s as u64, d as u64))
            .collect();
        let g = preprocess(&edges, &PrepConfig::new("fig1", 4), disk).unwrap();
        let store = ShardStore::new(&g);
        // Q = 2: rows 0 and 1 resident; on-disk row 2 inactive, row 3 active.
        let activity = Activity { active: vec![true, true, false, true], tracks: true };
        let plan = plan(&g, 2, &store, &activity, &[false], true);
        // Phase A, phase B for row 3 only, the resident finalize, columns 2 and 3.
        assert_eq!(plan.groups.len(), 5);
        assert!(matches!(plan.groups[1].steps[0], Step::ReadInterval(3)));
        for step in plan.groups.iter().flat_map(|group| &group.steps) {
            if let Step::Absorb { row: i, .. } | Step::ToHub { i, .. } = *step {
                assert_ne!(i, 2, "the skipped row has a step");
            }
        }
        // Each column fetches and folds the hub of row 3 alone.
        for (group, j) in plan.groups[3..].iter().zip(2..) {
            let is_hub = |f: &&Fetch| matches!(f, Fetch::Hub { .. });
            let hubs: Vec<&Fetch> = group.fetches.iter().filter(is_hub).collect();
            assert_eq!(hubs, [&Fetch::Hub { i: 3, j }]);
            let fold = group.steps.iter().find_map(|step| match step {
                Step::FoldHubs { j, rows } => Some((*j, rows.as_slice())),
                _ => None,
            });
            assert_eq!(fold, Some((j, &[3][..])));
        }
    }
}
