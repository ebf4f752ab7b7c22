//! Distinct-segment counting shared by the lane and block collectors.
//!
//! Coalescing charges one transaction per distinct aligned segment a
//! warp-wide access touches. Nearly every kernel issues its lanes'
//! addresses in non-decreasing order (contiguous ranges, CSR gathers,
//! sorted scatters), so [`SegSet`] keeps the segment list sorted by
//! construction: a span that starts at or after the current top appends
//! only the segments past it, and a warp's count is then just the list
//! length. Only a sequence that steps *backwards* falls back to
//! `sort_unstable` + `dedup`.

use crate::{TEX_TRANSACTION_BYTES, TRANSACTION_BYTES};

const _: () =
    assert!(TRANSACTION_BYTES.is_power_of_two() && TEX_TRANSACTION_BYTES.is_power_of_two());

/// `log2` of [`TRANSACTION_BYTES`]: `addr >> SEG_SHIFT` is the L1/L2 segment.
pub(crate) const SEG_SHIFT: u32 = TRANSACTION_BYTES.trailing_zeros();

/// `log2` of [`TEX_TRANSACTION_BYTES`]: the texture-path segment shift.
pub(crate) const TEX_SEG_SHIFT: u32 = TEX_TRANSACTION_BYTES.trailing_zeros();

/// The distinct segments of one warp-wide access, built incrementally.
///
/// Invariant: every segment pushed is present in `segs`, and while
/// `sorted` holds `segs` is strictly increasing (so its length is the
/// distinct count). Only exact repeats of the current top are dropped.
#[derive(Debug)]
pub(crate) struct SegSet {
    segs: Vec<u64>,
    sorted: bool,
}

impl SegSet {
    /// An empty set (`const`, for thread-local scratch).
    pub(crate) const fn new() -> SegSet {
        SegSet {
            segs: Vec::new(),
            sorted: true,
        }
    }

    /// Empties the set, keeping its capacity.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.segs.clear();
        self.sorted = true;
    }

    /// Adds the segments `first..=last` (one element's byte span).
    #[inline]
    pub(crate) fn push_span(&mut self, first: u64, last: u64) {
        match self.segs.last() {
            Some(&top) if first < top => {
                self.sorted = false;
                self.segs.extend(first..=last);
            }
            Some(&top) if first == top => self.segs.extend(top + 1..=last),
            _ => self.segs.extend(first..=last),
        }
    }

    /// Number of distinct segments pushed since the last [`SegSet::clear`].
    #[inline]
    pub(crate) fn count(&mut self) -> u64 {
        if !self.sorted {
            self.segs.sort_unstable();
            self.segs.dedup();
            self.sorted = true;
        }
        self.segs.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shifts_match_transaction_sizes() {
        assert_eq!(1u64 << SEG_SHIFT, TRANSACTION_BYTES);
        assert_eq!(1u64 << TEX_SEG_SHIFT, TEX_TRANSACTION_BYTES);
    }

    #[test]
    fn monotone_spans_count_without_sorting() {
        let mut s = SegSet::new();
        for (f, l) in [(3, 3), (3, 3), (3, 5), (5, 5), (9, 9)] {
            s.push_span(f, l);
        }
        assert!(s.sorted);
        assert_eq!(s.count(), 4); // {3, 4, 5, 9}
    }

    #[test]
    fn a_decrease_falls_back_to_sort_dedup() {
        let mut s = SegSet::new();
        for (f, l) in [(7, 8), (2, 3), (8, 8), (3, 3)] {
            s.push_span(f, l);
        }
        assert!(!s.sorted);
        assert_eq!(s.count(), 4); // {2, 3, 7, 8}
        s.clear();
        assert_eq!(s.count(), 0);
    }
}
