//! Run-length-encoded taint shadows.
//!
//! The paper tracks inter-node flows at byte granularity (§III-A), but
//! real payloads are dominated by long stretches of identically-tainted
//! bytes: a message body minted from one source variable carries one
//! taint across thousands of bytes. [`TaintRuns`] stores the shadow as
//! `{len, taint}` segments so that slicing, splicing, concatenation and
//! whole-buffer unions cost O(runs) instead of O(bytes), while
//! [`TaintRuns::iter_dense`] remains isomorphic to the old per-byte
//! `Vec<Taint>` view.
//!
//! # Canonical form
//!
//! Two invariants hold at all times and make derived equality coincide
//! with dense per-byte equality:
//!
//! 1. no run has length zero, and
//! 2. adjacent runs carry *different* taints.
//!
//! Every constructor and mutator below re-coalesces at edit points, so
//! splitting a buffer and gluing the halves back produces bit-identical
//! runs (and therefore identical wire bytes — the encoder walks runs,
//! never run boundaries).

use crate::tree::Taint;

/// One maximal stretch of identically-tainted bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaintRun {
    /// Number of consecutive bytes sharing [`TaintRun::taint`]. Never zero.
    pub len: usize,
    /// The shared taint handle.
    pub taint: Taint,
}

/// A run-length-encoded per-byte taint shadow.
///
/// Semantically equivalent to a `Vec<Taint>` with one entry per byte;
/// structurally a coalesced list of [`TaintRun`] segments.
///
/// # Example
///
/// ```rust
/// use dista_taint::{Taint, TaintRuns};
///
/// let mut shadow = TaintRuns::new();
/// shadow.push_run(Taint::EMPTY, 1000);
/// shadow.push_run(Taint::EMPTY, 24); // coalesces with the previous run
/// assert_eq!(shadow.len(), 1024);
/// assert_eq!(shadow.num_runs(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TaintRuns {
    runs: Vec<TaintRun>,
    total: usize,
}

impl TaintRuns {
    /// An empty shadow.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty shadow with room for `runs` runs.
    pub fn with_capacity(runs: usize) -> Self {
        TaintRuns {
            runs: Vec::with_capacity(runs),
            total: 0,
        }
    }

    /// A shadow of `n` bytes all carrying `taint`.
    pub fn uniform(taint: Taint, n: usize) -> Self {
        let mut s = Self::new();
        s.push_run(taint, n);
        s
    }

    /// Builds the canonical run representation of a dense shadow.
    pub fn from_dense(taints: &[Taint]) -> Self {
        let mut s = Self::new();
        for &t in taints {
            s.push_run(t, 1);
        }
        s
    }

    /// Materializes the dense per-byte view.
    pub fn to_dense(&self) -> Vec<Taint> {
        let mut out = Vec::with_capacity(self.total);
        for run in &self.runs {
            out.extend(std::iter::repeat_n(run.taint, run.len));
        }
        out
    }

    /// Total number of shadowed bytes.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the shadow covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of runs (always ≤ [`TaintRuns::len`]).
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// The coalesced run segments.
    pub fn runs(&self) -> &[TaintRun] {
        &self.runs
    }

    /// Taint of the byte at `idx`, or `None` past the end. O(runs).
    pub fn get(&self, idx: usize) -> Option<Taint> {
        if idx >= self.total {
            return None;
        }
        let mut pos = 0;
        for run in &self.runs {
            pos += run.len;
            if idx < pos {
                return Some(run.taint);
            }
        }
        None
    }

    /// Appends `n` bytes of `taint`, coalescing with the trailing run.
    pub fn push_run(&mut self, taint: Taint, n: usize) {
        if n == 0 {
            return;
        }
        self.total += n;
        if let Some(last) = self.runs.last_mut() {
            if last.taint == taint {
                last.len += n;
                return;
            }
        }
        self.runs.push(TaintRun { len: n, taint });
    }

    /// Appends another shadow (splice). O(runs of `other`).
    pub fn extend_runs(&mut self, other: &TaintRuns) {
        for run in &other.runs {
            self.push_run(run.taint, run.len);
        }
    }

    /// Copies out the shadow for bytes `[start, end)`. O(runs).
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > len()`.
    pub fn slice(&self, start: usize, end: usize) -> TaintRuns {
        assert!(
            start <= end && end <= self.total,
            "taint run slice {start}..{end} out of bounds for length {}",
            self.total
        );
        let mut out = TaintRuns::new();
        if start == end {
            return out;
        }
        let mut pos = 0;
        for run in &self.runs {
            let run_start = pos;
            let run_end = pos + run.len;
            pos = run_end;
            if run_end <= start {
                continue;
            }
            if run_start >= end {
                break;
            }
            let take = run_end.min(end) - run_start.max(start);
            // Runs come from a canonical list, so pushes never coalesce
            // except trivially; push_run keeps the result canonical.
            out.push_run(run.taint, take);
        }
        out
    }

    /// Removes and returns the shadow of the first `n` bytes (fewer if
    /// the shadow is shorter). O(runs).
    pub fn split_front(&mut self, n: usize) -> TaintRuns {
        let n = n.min(self.total);
        let front = self.slice(0, n);
        let back = self.slice(n, self.total);
        *self = back;
        front
    }

    /// Truncates to the first `n` bytes. O(runs).
    pub fn truncate(&mut self, n: usize) {
        if n >= self.total {
            return;
        }
        let mut pos = 0;
        for (i, run) in self.runs.iter_mut().enumerate() {
            let run_end = pos + run.len;
            if run_end >= n {
                run.len = n - pos;
                let keep = if run.len == 0 { i } else { i + 1 };
                self.runs.truncate(keep);
                self.total = n;
                return;
            }
            pos = run_end;
        }
    }

    /// Rebuilds the shadow with `f` applied to each run's taint,
    /// re-coalescing runs that become equal. O(runs) calls to `f`.
    pub fn map_taints(&mut self, mut f: impl FnMut(Taint) -> Taint) {
        let mut out = TaintRuns::new();
        for run in &self.runs {
            out.push_run(f(run.taint), run.len);
        }
        *self = out;
    }

    /// Iterates the dense per-byte view without materializing it.
    /// Isomorphic to iterating the old `Vec<Taint>` shadow.
    pub fn iter_dense(&self) -> impl Iterator<Item = Taint> + '_ {
        self.runs
            .iter()
            .flat_map(|run| std::iter::repeat_n(run.taint, run.len))
    }

    /// Iterates `(len, taint)` run pairs.
    pub fn iter_runs(&self) -> impl Iterator<Item = (usize, Taint)> + '_ {
        self.runs.iter().map(|run| (run.len, run.taint))
    }

    /// Distinct non-empty taints in first-appearance order. O(runs²)
    /// worst case but O(runs · distinct) in practice.
    pub fn distinct_taints(&self) -> Vec<Taint> {
        let mut seen = Vec::new();
        for run in &self.runs {
            if !run.taint.is_empty() && !seen.contains(&run.taint) {
                seen.push(run.taint);
            }
        }
        seen
    }
}

impl FromIterator<Taint> for TaintRuns {
    fn from_iter<I: IntoIterator<Item = Taint>>(iter: I) -> Self {
        let mut s = TaintRuns::new();
        for t in iter {
            s.push_run(t, 1);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(raw: u32) -> Taint {
        Taint(raw)
    }

    #[test]
    fn push_run_coalesces_adjacent_equal_taints() {
        let mut s = TaintRuns::new();
        s.push_run(t(1), 3);
        s.push_run(t(1), 2);
        s.push_run(t(2), 1);
        s.push_run(t(2), 0); // no-op
        assert_eq!(s.len(), 6);
        assert_eq!(s.num_runs(), 2);
        assert_eq!(
            s.runs()[0],
            TaintRun {
                len: 5,
                taint: t(1)
            }
        );
    }

    #[test]
    fn dense_round_trip_is_identity() {
        let dense = vec![t(0), t(0), t(7), t(7), t(7), t(0), t(3)];
        let s = TaintRuns::from_dense(&dense);
        assert_eq!(s.num_runs(), 4);
        assert_eq!(s.to_dense(), dense);
        assert_eq!(s.iter_dense().collect::<Vec<_>>(), dense);
    }

    #[test]
    fn get_walks_runs() {
        let mut s = TaintRuns::new();
        s.push_run(t(1), 2);
        s.push_run(t(2), 3);
        assert_eq!(s.get(0), Some(t(1)));
        assert_eq!(s.get(1), Some(t(1)));
        assert_eq!(s.get(2), Some(t(2)));
        assert_eq!(s.get(4), Some(t(2)));
        assert_eq!(s.get(5), None);
    }

    #[test]
    fn slice_matches_dense_slice() {
        let mut s = TaintRuns::new();
        s.push_run(t(1), 4);
        s.push_run(t(2), 4);
        s.push_run(t(1), 4);
        let dense = s.to_dense();
        for start in 0..=dense.len() {
            for end in start..=dense.len() {
                assert_eq!(
                    s.slice(start, end).to_dense(),
                    dense[start..end].to_vec(),
                    "slice {start}..{end}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        TaintRuns::uniform(t(1), 2).slice(0, 3);
    }

    #[test]
    fn split_front_then_extend_restores_canonical_runs() {
        let mut s = TaintRuns::new();
        s.push_run(t(1), 10);
        s.push_run(t(2), 10);
        let original = s.clone();
        // Split mid-run and glue back: runs must re-coalesce exactly.
        let front = s.split_front(5);
        assert_eq!(front.len(), 5);
        assert_eq!(s.len(), 15);
        let mut glued = front;
        glued.extend_runs(&s);
        assert_eq!(glued, original);
        assert_eq!(glued.num_runs(), 2);
    }

    #[test]
    fn split_front_over_length_takes_everything() {
        let mut s = TaintRuns::uniform(t(1), 3);
        let front = s.split_front(99);
        assert_eq!(front.len(), 3);
        assert!(s.is_empty());
    }

    #[test]
    fn truncate_cuts_mid_run() {
        let mut s = TaintRuns::new();
        s.push_run(t(1), 4);
        s.push_run(t(2), 4);
        s.truncate(6);
        assert_eq!(s.len(), 6);
        assert_eq!(s.num_runs(), 2);
        assert_eq!(
            s.runs()[1],
            TaintRun {
                len: 2,
                taint: t(2)
            }
        );
        s.truncate(4);
        assert_eq!(s.num_runs(), 1);
        s.truncate(100); // no-op past the end
        assert_eq!(s.len(), 4);
        s.truncate(0);
        assert!(s.is_empty());
        assert_eq!(s.num_runs(), 0);
    }

    #[test]
    fn map_taints_recoalesces() {
        let mut s = TaintRuns::new();
        s.push_run(t(1), 2);
        s.push_run(t(2), 2);
        s.map_taints(|_| t(9));
        assert_eq!(s.num_runs(), 1);
        assert_eq!(s.len(), 4);
        assert_eq!(s.get(3), Some(t(9)));
    }

    #[test]
    fn distinct_taints_skips_empty_and_dedups() {
        let mut s = TaintRuns::new();
        s.push_run(Taint::EMPTY, 2);
        s.push_run(t(1), 1);
        s.push_run(t(2), 1);
        s.push_run(t(1), 1);
        assert_eq!(s.distinct_taints(), vec![t(1), t(2)]);
    }

    #[test]
    fn from_iterator_collects_dense() {
        let s: TaintRuns = vec![t(1), t(1), t(2)].into_iter().collect();
        assert_eq!(s.num_runs(), 2);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn equality_is_dense_equality() {
        let mut a = TaintRuns::new();
        a.push_run(t(1), 3);
        let mut b = TaintRuns::new();
        b.push_run(t(1), 1);
        b.push_run(t(1), 2);
        assert_eq!(a, b);
        let mut c = TaintRuns::new();
        c.push_run(t(1), 2);
        assert_ne!(a, c);
    }
}
