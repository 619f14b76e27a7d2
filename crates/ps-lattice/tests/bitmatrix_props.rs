//! Property tests pinning the word-parallel [`BitMatrix`] delta operations
//! to their per-bit references.
//!
//! The saturation hot path of the implication engine is the chunked,
//! split-borrow implementation of `or_row_into_delta` /
//! `or_and_rows_into_delta` / `union_rows_into_delta`; correctness must not
//! depend on the width being a word multiple.  Widths are drawn to cluster
//! around the 64-bit boundaries and every operation is checked for (a) the
//! same resulting matrix, (b) the same changed verdict and (c) the same
//! delta set as the per-bit loop over `get`/`set`.
//!
//! The window kernels (`or_window_into_delta`, `or_and_window_into_delta`)
//! that semi-naive goal extension pushes pending bits with are pinned the
//! same way, at the widths 63, 64 and 65 around the first word boundary
//! and at every window start.

use proptest::prelude::*;
use ps_lattice::BitMatrix;

/// Widths flanking the word boundaries, plus a few interior ones.
fn arb_dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        7usize..=10,
        62usize..=66,
        126usize..=130,
        Just(192usize),
    ]
}

/// A matrix of dimension `n` with each listed `(row, col)` bit set
/// (coordinates are taken modulo the dimension).
fn matrix_from(n: usize, bits: &[(usize, usize)]) -> BitMatrix {
    let mut m = BitMatrix::new(n);
    for &(r, c) in bits {
        m.set(r % n, c % n);
    }
    m
}

/// The window of `words` starting at `first_word` of an `n`-wide row,
/// with every bit at or beyond `n` cleared (window sources never carry
/// columns outside the matrix).
fn window(n: usize, first_word: usize, words: &[u64]) -> Vec<u64> {
    let w = n.div_ceil(64);
    let first_word = first_word % w;
    (first_word..w)
        .map(|k| {
            let word = words[k % words.len()];
            let valid = n - k * 64;
            if valid >= 64 {
                word
            } else {
                word & ((1u64 << valid) - 1)
            }
        })
        .collect()
}

fn sorted(mut v: Vec<usize>) -> Vec<usize> {
    v.sort_unstable();
    v
}

proptest! {
    #[test]
    fn or_row_into_delta_matches_per_bit(
        n in arb_dim(),
        bits in proptest::collection::vec((0usize..4, 0usize..200), 0..60),
        src in 0usize..4,
        dst in 0usize..4,
    ) {
        prop_assume!(n >= 4);
        let mut fast = matrix_from(n, &bits);
        let mut slow = fast.clone();
        let (mut df, mut ds) = (Vec::new(), Vec::new());
        let changed_fast = fast.or_row_into_delta(src, dst, &mut df);
        let changed_slow = slow.or_row_into_delta_per_bit(src, dst, &mut ds);
        prop_assert_eq!(changed_fast, changed_slow);
        prop_assert_eq!(sorted(df), sorted(ds));
        prop_assert_eq!(&fast, &slow);
        fast.debug_validate_tails();
    }

    #[test]
    fn or_and_rows_into_delta_matches_per_bit(
        n in arb_dim(),
        bits in proptest::collection::vec((0usize..5, 0usize..200), 0..80),
        a in 0usize..5,
        b in 0usize..5,
        dst in 0usize..5,
    ) {
        prop_assume!(n >= 5);
        let mut fast = matrix_from(n, &bits);
        let mut slow = fast.clone();
        let (mut df, mut ds) = (Vec::new(), Vec::new());
        let changed_fast = fast.or_and_rows_into_delta(a, b, dst, &mut df);
        let changed_slow = slow.or_and_rows_into_delta_per_bit(a, b, dst, &mut ds);
        prop_assert_eq!(changed_fast, changed_slow);
        prop_assert_eq!(sorted(df), sorted(ds));
        prop_assert_eq!(&fast, &slow);
        fast.debug_validate_tails();
    }

    /// The batched union equals the fold of single-row ORs: same matrix,
    /// same union of deltas (each column reported exactly once).
    #[test]
    fn union_rows_equals_sequential_ors(
        n in arb_dim(),
        bits in proptest::collection::vec((0usize..6, 0usize..200), 0..80),
        srcs in proptest::collection::vec(0usize..6, 0..5),
        dst in 0usize..6,
    ) {
        prop_assume!(n >= 6);
        let mut batched = matrix_from(n, &bits);
        let mut folded = batched.clone();
        let mut db = Vec::new();
        let changed_batched = batched.union_rows_into_delta(&srcs, dst, &mut db);
        let mut dfold = Vec::new();
        let mut changed_folded = false;
        for &src in &srcs {
            changed_folded |= folded.or_row_into_delta(src, dst, &mut dfold);
        }
        prop_assert_eq!(changed_batched, changed_folded);
        prop_assert_eq!(sorted(db), sorted(dfold));
        prop_assert_eq!(&batched, &folded);
        batched.debug_validate_tails();
    }

    #[test]
    fn or_window_into_delta_matches_per_bit(
        n in 63usize..=65,
        bits in proptest::collection::vec((0usize..4, 0usize..200), 0..60),
        words in proptest::collection::vec(0u64..=u64::MAX, 1..3),
        first_word in 0usize..2,
        dst in 0usize..4,
    ) {
        let src = window(n, first_word, &words);
        let first_word = first_word % n.div_ceil(64);
        let mut fast = matrix_from(n, &bits);
        let mut slow = fast.clone();
        let (mut df, mut ds) = (Vec::new(), Vec::new());
        let changed_fast = fast.or_window_into_delta(dst, first_word, &src, &mut df);
        let changed_slow = slow.or_window_into_delta_per_bit(dst, first_word, &src, &mut ds);
        prop_assert_eq!(changed_fast, changed_slow);
        prop_assert_eq!(sorted(df), sorted(ds));
        prop_assert_eq!(&fast, &slow);
        fast.debug_validate_tails();
    }

    #[test]
    fn or_and_window_into_delta_matches_per_bit(
        n in 63usize..=65,
        bits in proptest::collection::vec((0usize..5, 0usize..200), 0..80),
        words in proptest::collection::vec(0u64..=u64::MAX, 1..3),
        first_word in 0usize..2,
        other in 0usize..5,
        dst in 0usize..5,
    ) {
        let src = window(n, first_word, &words);
        let first_word = first_word % n.div_ceil(64);
        let mut fast = matrix_from(n, &bits);
        let mut slow = fast.clone();
        let (mut df, mut ds) = (Vec::new(), Vec::new());
        let changed_fast = fast.or_and_window_into_delta(dst, first_word, &src, other, &mut df);
        let changed_slow =
            slow.or_and_window_into_delta_per_bit(dst, first_word, &src, other, &mut ds);
        prop_assert_eq!(changed_fast, changed_slow);
        prop_assert_eq!(sorted(df), sorted(ds));
        prop_assert_eq!(&fast, &slow);
        fast.debug_validate_tails();
    }

    /// A window spanning the whole row from word 0 is the row OR: the
    /// window kernel agrees with `or_row_into_delta` fed the same row.
    #[test]
    fn full_window_equals_the_row_or(
        n in arb_dim(),
        bits in proptest::collection::vec((0usize..4, 0usize..200), 0..60),
        src in 0usize..4,
        dst in 0usize..4,
    ) {
        prop_assume!(n >= 4 && src != dst);
        let mut by_window = matrix_from(n, &bits);
        let mut by_row = by_window.clone();
        let mut words = vec![0u64; n.div_ceil(64)];
        for c in by_window.iter_row(src) {
            words[c / 64] |= 1 << (c % 64);
        }
        let (mut dw, mut dr) = (Vec::new(), Vec::new());
        let changed_window = by_window.or_window_into_delta(dst, 0, &words, &mut dw);
        let changed_row = by_row.or_row_into_delta(src, dst, &mut dr);
        prop_assert_eq!(changed_window, changed_row);
        prop_assert_eq!(dw, dr);
        prop_assert_eq!(&by_window, &by_row);
    }

    /// Growing never disturbs existing bits or the tail invariant, at any
    /// width pair (including non-word-multiple → non-word-multiple).
    #[test]
    fn grow_preserves_bits_at_any_width(
        n in arb_dim(),
        extra in 0usize..70,
        bits in proptest::collection::vec((0usize..200, 0usize..200), 0..40),
    ) {
        let mut m = matrix_from(n, &bits);
        let before: Vec<(usize, usize)> =
            (0..n).flat_map(|r| m.iter_row(r).map(move |c| (r, c))).collect();
        m.grow(n + extra);
        m.debug_validate_tails();
        // Every new column of an old row, and every new row, starts clear
        // (an in-place restride must not leave stale words behind).
        for r in 0..n + extra {
            prop_assert!(m.iter_row(r).all(|c| r < n && c < n));
        }
        let after: Vec<(usize, usize)> =
            (0..n).flat_map(|r| m.iter_row(r).map(move |c| (r, c))).collect();
        prop_assert_eq!(before, after);
        prop_assert_eq!(m.count_ones(), {
            let mut dedup: Vec<(usize, usize)> =
                bits.iter().map(|&(r, c)| (r % n, c % n)).collect();
            dedup.sort_unstable();
            dedup.dedup();
            dedup.len()
        });
    }

    /// The same check forced across a row-stride change (the in-place
    /// back-to-front restride), from every width flanking a word boundary.
    #[test]
    fn grow_preserves_bits_across_a_stride_change(
        n in arb_dim(),
        words_more in 1usize..3,
        bits in proptest::collection::vec((0usize..200, 0usize..200), 0..60),
    ) {
        let mut m = matrix_from(n, &bits);
        let before = m.clone();
        let new_n = (n.div_ceil(64) + words_more) * 64 - 1;
        m.grow(new_n);
        m.debug_validate_tails();
        prop_assert_eq!(m.count_ones(), before.count_ones());
        for r in 0..new_n {
            let cols: Vec<usize> = m.iter_row(r).collect();
            let expected: Vec<usize> = if r < n { before.iter_row(r).collect() } else { Vec::new() };
            prop_assert_eq!(cols, expected);
        }
    }
}
