//! Per-interval accumulator state shared by all three update strategies.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::dsss::HubView;
use crate::parallel::{run_tasks, split_ranges};
use crate::program::VertexProgram;
use crate::types::VertexId;

/// Accumulators (and has-message flags) for one destination interval.
///
/// `acc[k]` belongs to vertex `base + k`. The resident intervals' buffers
/// live for the whole run (all of SPU, MPU's resident part); an on-disk
/// column gets one for its phase C fold (FromHub) in DPU and MPU. Hubs are
/// not built through it: ToHub ([`super::kernel::to_hub`]) accumulates by
/// position in each hub's own destination list.
pub struct AccBuf<P: VertexProgram> {
    /// First vertex id of the interval.
    pub base: VertexId,
    /// One accumulator per vertex of the interval.
    pub acc: Vec<P::Accum>,
    /// 1 when the vertex received at least one message this pass.
    pub has: Vec<u8>,
}

impl<P: VertexProgram> AccBuf<P> {
    /// Fresh zeroed buffer for an interval of `len` vertices starting at
    /// `base`.
    pub fn new(prog: &P, base: VertexId, len: usize) -> Self {
        Self {
            base,
            acc: vec![prog.zero(); len],
            has: vec![0u8; len],
        }
    }

    /// Reset to the zero state (reused across iterations to avoid
    /// reallocation — the "workhorse collection" pattern).
    pub fn reset(&mut self, prog: &P) {
        self.acc.fill(prog.zero());
        self.has.fill(0);
    }

    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.acc.len()
    }

    /// Whether the buffer covers no vertices.
    pub fn is_empty(&self) -> bool {
        self.acc.is_empty()
    }

    /// Compact into hub form: the (global id, accumulator) pairs of
    /// vertices that received messages. Destination ids come out sorted
    /// because the buffer is id-ordered.
    ///
    /// The engine no longer calls this: it scans the whole interval, which
    /// ToHub ([`super::kernel::to_hub`]) avoids. Only the benchmark's layer
    /// walk (`benchmark/src/walk.rs`) and the `hub/compact` bench still do,
    /// and the kernel's tests keep it as `to_hub`'s oracle.
    ///
    /// Branch-free: after counting the messaged vertices, every slot up to
    /// the last messaged one is written unconditionally at the fill cursor,
    /// which then advances by that slot's flag — so an unmessaged slot is
    /// overwritten by the next messaged one and the cursor never passes the
    /// count.
    pub fn compact(&self) -> (Vec<VertexId>, Vec<P::Accum>) {
        let count = self.has.iter().filter(|&&h| h != 0).count();
        let Some(last) = self.has.iter().rposition(|&h| h != 0) else {
            return (Vec::new(), Vec::new());
        };
        let mut dsts = vec![0 as VertexId; count];
        let mut accs = vec![self.acc[last]; count];
        let mut j = 0usize;
        for (k, (&h, &a)) in self.has[..=last].iter().zip(&self.acc).enumerate() {
            dsts[j] = self.base + k as VertexId;
            accs[j] = a;
            j += (h != 0) as usize;
        }
        debug_assert_eq!(j, count);
        (dsts, accs)
    }

    /// Merge a hub (ascending destinations and their accumulators) back
    /// in via the program's `combine`.
    pub fn merge_hub(&mut self, prog: &P, dsts: &[VertexId], accs: &[P::Accum]) {
        debug_assert_eq!(dsts.len(), accs.len());
        for (&d, a) in dsts.iter().zip(accs) {
            self.merge_one(prog, d, a);
        }
    }

    /// Merge a zero-copy [`HubView`] — same semantics as
    /// [`AccBuf::merge_hub`], decoding each accumulator straight out of
    /// the blob with no intermediate vectors.
    pub fn merge_hub_view(&mut self, prog: &P, hub: &HubView<P::Accum>) {
        let dsts = hub.dsts();
        for (k, &d) in dsts.iter().enumerate() {
            self.merge_one(prog, d, &hub.acc(k));
        }
    }

    #[inline]
    fn merge_one(&mut self, prog: &P, d: VertexId, a: &P::Accum) {
        let k = (d - self.base) as usize;
        if self.has[k] == 0 {
            self.acc[k] = *a;
            self.has[k] = 1;
        } else {
            prog.combine(&mut self.acc[k], a);
        }
    }

    /// Merge a whole column's hubs at once with destination-range
    /// parallelism: the buffer is sliced into disjoint vertex ranges and
    /// each task folds *every* hub's entries for its range, in hub order.
    ///
    /// Per destination slot the merge order equals the sequential
    /// `merge_hub_view(hubs[0]); merge_hub_view(hubs[1]); …` order, so the
    /// result is bitwise-identical to the serial fold at any thread count.
    /// Must be called from outside the worker pool (it submits a batch).
    pub fn merge_hub_views_par(
        &mut self,
        prog: &P,
        hubs: &[HubView<P::Accum>],
        threads: usize,
    ) {
        if hubs.is_empty() {
            return;
        }
        if threads <= 1 || self.len() <= 1 {
            for hub in hubs {
                self.merge_hub_view(prog, hub);
            }
            return;
        }
        let base = self.base;
        #[allow(clippy::type_complexity)]
        let mut tasks: Vec<(VertexId, &mut [P::Accum], &mut [u8])> = Vec::new();
        let mut acc_rest: &mut [P::Accum] = &mut self.acc;
        let mut has_rest: &mut [u8] = &mut self.has;
        let mut start = 0usize;
        for range in split_ranges(acc_rest.len(), threads) {
            let (acc, ar) = std::mem::take(&mut acc_rest).split_at_mut(range.len());
            let (has, hr) = std::mem::take(&mut has_rest).split_at_mut(range.len());
            acc_rest = ar;
            has_rest = hr;
            tasks.push((base + start as VertexId, acc, has));
            start = range.end;
        }
        run_tasks(threads, tasks, |(lo, acc, has)| {
            let hi = lo + acc.len() as VertexId;
            for hub in hubs {
                let dsts = hub.dsts();
                // Hub destinations are sorted; binary-search the slice of
                // entries landing in [lo, hi).
                let from = dsts.partition_point(|&d| d < lo);
                let to = dsts.partition_point(|&d| d < hi);
                for (k, &dst) in (from..to).zip(&dsts[from..to]) {
                    let slot = (dst - lo) as usize;
                    let a = hub.acc(k);
                    if has[slot] == 0 {
                        acc[slot] = a;
                        has[slot] = 1;
                    } else {
                        prog.combine(&mut acc[slot], &a);
                    }
                }
            }
        });
    }
}

/// Finalise one destination interval: fold accumulators into new values.
///
/// `old` and `out` both cover the interval (`out` may alias a ping-pong
/// "next" buffer). Returns whether any vertex changed.
pub fn finalize_interval<P: VertexProgram>(
    prog: &P,
    buf: &AccBuf<P>,
    old: &[P::Value],
    out: &mut [P::Value],
) -> bool {
    debug_assert_eq!(old.len(), buf.len());
    debug_assert_eq!(out.len(), buf.len());
    finalize_range(prog, buf, 0, old, out, None)
}

/// Finalise the sub-range of an interval starting `offset` vertices in:
/// `old`/`out` cover positions `offset .. offset + out.len()` of `buf`.
/// Returns whether any vertex changed, and sets bit `v` of `changed`
/// (global ids) for each vertex `v` that did: the frontier of §II-B's
/// activity, one atomic OR per word so that ranges sharing a word at
/// their ends need no other coordination.
///
/// This is the chunk body behind [`finalize_intervals_par`] — `apply` is
/// elementwise, so any chunking of the interval produces bitwise-identical
/// values to the serial sweep.
pub fn finalize_range<P: VertexProgram>(
    prog: &P,
    buf: &AccBuf<P>,
    offset: usize,
    old: &[P::Value],
    out: &mut [P::Value],
    changed: Option<&[AtomicU64]>,
) -> bool {
    debug_assert_eq!(old.len(), out.len());
    debug_assert!(offset + out.len() <= buf.len());
    let mut any = false;
    // The word of `changed` being filled: (index, bits not yet ORed in).
    let mut word = (0usize, 0u64);
    for (idx, k) in (offset..offset + out.len()).enumerate() {
        let v = buf.base + k as VertexId;
        let got = buf.has[k] != 0;
        let new = if got || P::ALWAYS_APPLY {
            prog.apply(v, &old[idx], &buf.acc[k], got)
        } else {
            old[idx]
        };
        if prog.changed(&old[idx], &new) {
            any = true;
            if let Some(bits) = changed {
                let w = v as usize / 64;
                if w != word.0 && word.1 != 0 {
                    bits[word.0].fetch_or(word.1, Ordering::Relaxed);
                    word.1 = 0;
                }
                word = (w, word.1 | 1 << (v % 64));
            }
        }
        out[idx] = new;
    }
    if let Some(bits) = changed.filter(|_| word.1 != 0) {
        bits[word.0].fetch_or(word.1, Ordering::Relaxed);
    }
    any
}

/// Finalise several consecutive intervals as one flat pool batch of
/// destination-range chunks, returning whether any vertex changed and
/// marking each one that did in `changed` (see [`finalize_range`]).
///
/// `bufs` are the intervals' accumulators in id order; `prev`/`next` are
/// the ping-pong arrays covering exactly those intervals, starting at
/// `bufs[0].base`. One batch — not one per interval — so a handful of
/// large intervals still spreads across all workers (apply is
/// elementwise, so chunking does not affect the values). A single
/// interval is a one-buffer batch. Must be called from outside the worker
/// pool.
pub fn finalize_intervals_par<P: VertexProgram>(
    prog: &P,
    bufs: &[&AccBuf<P>],
    prev: &[P::Value],
    next: &mut [P::Value],
    threads: usize,
    changed: Option<&[AtomicU64]>,
) -> bool {
    let any = AtomicBool::new(false);
    #[allow(clippy::type_complexity)]
    let mut tasks: Vec<(usize, usize, &[P::Value], &mut [P::Value])> = Vec::new();
    let mut prev_rest = prev;
    let mut next_rest = next;
    for (j, buf) in bufs.iter().enumerate() {
        let mut offset = 0usize;
        for range in split_ranges(buf.len(), threads) {
            let (o, orest) = prev_rest.split_at(range.len());
            let (w, wrest) = std::mem::take(&mut next_rest).split_at_mut(range.len());
            prev_rest = orest;
            next_rest = wrest;
            tasks.push((j, offset, o, w));
            offset = range.end;
        }
    }
    run_tasks(threads, tasks, |(j, off, o, w)| {
        if finalize_range(prog, bufs[j], off, o, w, changed) {
            any.store(true, Ordering::Relaxed);
        }
    });
    any.into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::VertexProgram;

    struct Sum;

    impl VertexProgram for Sum {
        type Value = f64;
        type Accum = f64;
        const APPLY_NEEDS_OLD: bool = false;
        const ALWAYS_APPLY: bool = true;

        fn init(&self, _v: VertexId) -> f64 {
            0.0
        }

        fn zero(&self) -> f64 {
            0.0
        }

        fn absorb(&self, _s: VertexId, sv: &f64, _d: VertexId, acc: &mut f64) -> bool {
            *acc += sv;
            true
        }

        fn combine(&self, a: &mut f64, b: &f64) {
            *a += b;
        }

        fn apply(&self, _v: VertexId, _old: &f64, acc: &f64, _got: bool) -> f64 {
            *acc
        }
    }

    #[test]
    fn compact_and_merge_roundtrip() {
        let p = Sum;
        let mut a = AccBuf::<Sum>::new(&p, 10, 5);
        a.acc[1] = 2.5;
        a.has[1] = 1;
        a.acc[4] = 7.0;
        a.has[4] = 1;
        let (dsts, accs) = a.compact();
        assert_eq!(dsts, vec![11, 14]);
        assert_eq!(accs, vec![2.5, 7.0]);

        let mut b = AccBuf::<Sum>::new(&p, 10, 5);
        b.acc[4] = 1.0;
        b.has[4] = 1;
        b.merge_hub(&p, &dsts, &accs);
        assert_eq!(b.acc[1], 2.5);
        assert_eq!(b.acc[4], 8.0);
        assert_eq!(b.has, vec![0, 1, 0, 0, 1]);
    }

    #[test]
    fn compact_equals_the_definitional_filter() {
        let p = Sum;
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut patterns = vec![vec![], vec![0; 77], vec![1; 77], vec![0, 0, 1], vec![1, 0, 0]];
        for len in [1usize, 63, 64, 65, 1000] {
            for density in [2u64, 4, 16] {
                // Any non-zero byte counts as a message, not just 1.
                let has =
                    (0..len).map(|_| (next() % density == 0) as u8 * (1 + next() % 255) as u8);
                patterns.push(has.collect());
            }
        }
        for has in patterns {
            let mut buf = AccBuf::<Sum>::new(&p, 1000, has.len());
            for (k, a) in buf.acc.iter_mut().enumerate() {
                // Distinct bit patterns, signed zero and NaN payloads
                // included, so `to_bits` equality checks every slot.
                *a = match k % 4 {
                    0 => f64::from_bits(next()),
                    1 => -0.0,
                    2 => f64::from_bits(0x7ff8_0000_0000_0000 | k as u64),
                    _ => k as f64,
                };
            }
            buf.has = has.clone();
            let want: Vec<(VertexId, u64)> = (0..has.len())
                .filter(|&k| has[k] != 0)
                .map(|k| (1000 + k as VertexId, buf.acc[k].to_bits()))
                .collect();
            let (dsts, accs) = buf.compact();
            let got: Vec<(VertexId, u64)> = dsts
                .iter()
                .zip(&accs)
                .map(|(&d, a)| (d, a.to_bits()))
                .collect();
            assert_eq!(got, want, "has = {has:?}");
            assert_eq!(dsts.capacity(), want.len());
        }
    }

    #[test]
    fn reset_clears() {
        let p = Sum;
        let mut a = AccBuf::<Sum>::new(&p, 0, 3);
        a.acc[0] = 9.0;
        a.has[0] = 1;
        a.reset(&p);
        assert_eq!(a.acc, vec![0.0; 3]);
        assert_eq!(a.has, vec![0; 3]);
    }

    #[test]
    fn finalize_reports_changes() {
        let p = Sum;
        let mut buf = AccBuf::<Sum>::new(&p, 0, 2);
        buf.acc[0] = 3.0;
        buf.has[0] = 1;
        let old = vec![3.0, 0.0];
        let mut out = vec![0.0; 2];
        // Vertex 0: 3.0 → 3.0 unchanged; vertex 1: ALWAYS_APPLY applies
        // acc 0.0 over old 0.0, unchanged.
        assert!(!finalize_interval(&p, &buf, &old, &mut out));
        assert_eq!(out, vec![3.0, 0.0]);

        buf.acc[1] = 5.0;
        buf.has[1] = 1;
        assert!(finalize_interval(&p, &buf, &old, &mut out));
        assert_eq!(out, vec![3.0, 5.0]);
    }

    /// A monotone min program to exercise the !ALWAYS_APPLY path.
    struct Min;

    impl VertexProgram for Min {
        type Value = u32;
        type Accum = u32;
        const APPLY_NEEDS_OLD: bool = true;
        const ALWAYS_APPLY: bool = false;

        fn init(&self, _v: VertexId) -> u32 {
            u32::MAX
        }

        fn zero(&self) -> u32 {
            u32::MAX
        }

        fn absorb(&self, _s: VertexId, sv: &u32, _d: VertexId, acc: &mut u32) -> bool {
            *acc = (*acc).min(sv.saturating_add(1));
            true
        }

        fn combine(&self, a: &mut u32, b: &u32) {
            *a = (*a).min(*b);
        }

        fn apply(&self, _v: VertexId, old: &u32, acc: &u32, _got: bool) -> u32 {
            (*old).min(*acc)
        }
    }

    #[test]
    fn finalize_keeps_old_without_messages() {
        let p = Min;
        let buf = AccBuf::<Min>::new(&p, 0, 2);
        let old = vec![4u32, 9];
        let mut out = vec![0u32; 2];
        assert!(!finalize_interval(&p, &buf, &old, &mut out));
        assert_eq!(out, old);
    }

    #[test]
    fn flat_batch_finalize_matches_per_interval_serial() {
        let p = Sum;
        let lens = [5usize, 0, 17, 1];
        let total: usize = lens.iter().sum();
        let prev: Vec<f64> = (0..total).map(|k| k as f64 * 0.5).collect();
        let mut base = 0u32;
        let bufs: Vec<AccBuf<Sum>> = lens
            .iter()
            .map(|&len| {
                let mut b = AccBuf::<Sum>::new(&p, base, len);
                for k in 0..len {
                    // Interval 2 reproduces `prev` exactly: unchanged.
                    b.acc[k] = if len == 17 { (base as usize + k) as f64 * 0.5 } else { 9.0 };
                    b.has[k] = 1;
                }
                base += len as u32;
                b
            })
            .collect();
        let refs: Vec<&AccBuf<Sum>> = bufs.iter().collect();
        let mut serial = vec![0.0f64; total];
        let mut want = Vec::new();
        let mut at = 0;
        for b in &bufs {
            let r = at..at + b.len();
            want.push(finalize_interval(&p, b, &prev[r.clone()], &mut serial[r.clone()]));
            at = r.end;
        }
        assert_eq!(want, vec![true, false, false, true]);
        // Bit `v` is set exactly for the vertices whose value changed.
        let bits_of = |changed: &[AtomicU64], len: usize| -> Vec<bool> {
            (0..len).map(|v| changed[v / 64].load(Ordering::Relaxed) >> (v % 64) & 1 != 0).collect()
        };
        let words = |len: usize| -> Vec<AtomicU64> {
            (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect()
        };
        let moved: Vec<bool> = prev.iter().zip(&serial).map(|(a, b)| a != b).collect();
        for threads in [1usize, 3, 8] {
            let mut next = vec![0.0f64; total];
            let changed = words(total);
            let got = finalize_intervals_par(&p, &refs, &prev, &mut next, threads, Some(&changed));
            assert!(got, "threads={threads}");
            assert!(serial.iter().zip(&next).all(|(a, b)| a.to_bits() == b.to_bits()));
            let bits = bits_of(&changed, total);
            assert_eq!(bits, moved, "threads={threads}");
            // Each interval's flag is "some bit set in the interval".
            let mut at = 0;
            for (b, &flag) in bufs.iter().zip(&want) {
                assert_eq!(bits[at..at + b.len()].contains(&true), flag, "threads={threads}");
                at += b.len();
            }
        }

        // A one-buffer batch (how phase C finalises an on-disk column):
        // 103 vertices not starting at 0, every third without a message,
        // so the tasks' ranges share words of the bitset at their ends.
        let len = 103;
        let mut buf = AccBuf::<Sum>::new(&p, 5, len);
        for k in (0..len).filter(|k| k % 3 != 0) {
            buf.acc[k] = k as f64 * 0.1;
            buf.has[k] = 1;
        }
        let old: Vec<f64> = (0..len).map(|k| k as f64 * 0.01).collect();
        let mut serial = vec![0.0f64; len];
        let want = finalize_interval(&p, &buf, &old, &mut serial);
        let mut moved = vec![false; 5];
        moved.extend(old.iter().zip(&serial).map(|(a, b)| a != b));
        for threads in [1usize, 2, 4, 8] {
            let mut next = vec![0.0f64; len];
            let changed = words(5 + len);
            let got = finalize_intervals_par(&p, &[&buf], &old, &mut next, threads, Some(&changed));
            assert_eq!(got, want, "threads={threads}");
            assert!(
                serial.iter().zip(&next).all(|(a, b)| a.to_bits() == b.to_bits()),
                "threads={threads}"
            );
            assert_eq!(bits_of(&changed, 5 + len), moved, "threads={threads}");
            let mut none = vec![0.0f64; len];
            assert_eq!(finalize_intervals_par(&p, &[&buf], &old, &mut none, threads, None), want);
        }
    }

    fn hub(dsts: &[VertexId], accs: &[f64]) -> HubView<f64> {
        use nxgraph_storage::format::{self, FileKind};
        use nxgraph_storage::SharedBytes;
        let mut payload = Vec::new();
        format::push_u32(&mut payload, dsts.len() as u32);
        for &d in dsts {
            format::push_u32(&mut payload, d);
        }
        for a in accs {
            use crate::types::Attr;
            a.write_to(&mut payload);
        }
        let mut blob = Vec::new();
        format::write_blob(&mut blob, FileKind::Hub, &payload).unwrap();
        HubView::parse(SharedBytes::from(blob), "h", true).unwrap()
    }

    #[test]
    fn parallel_hub_merge_matches_serial_bitwise() {
        let p = Sum;
        let len = 64usize;
        let hubs = vec![
            hub(&[3, 7, 40, 63], &[0.1, 0.2, 0.3, 0.4]),
            hub(&[0, 7, 39, 40], &[1.5, 2.5, 3.5, 4.5]),
            hub(&[7, 62], &[-0.25, 8.0]),
        ];
        let mut serial = AccBuf::<Sum>::new(&p, 0, len);
        serial.acc[7] = 9.0;
        serial.has[7] = 1;
        for h in &hubs {
            serial.merge_hub_view(&p, h);
        }
        for threads in [1usize, 2, 4, 8] {
            let mut par = AccBuf::<Sum>::new(&p, 0, len);
            par.acc[7] = 9.0;
            par.has[7] = 1;
            par.merge_hub_views_par(&p, &hubs, threads);
            assert_eq!(serial.has, par.has, "threads={threads}");
            assert!(
                serial
                    .acc
                    .iter()
                    .zip(&par.acc)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "threads={threads}"
            );
        }
    }
}
