//! A compact square bit matrix.
//!
//! Algorithm `ALG` (Section 5.2) maintains a set `Γ` of directed arcs over
//! the subexpression set `V`; the matrix below stores those arcs with one
//! bit per pair, which keeps the `O(n⁴)` fixpoint loops cache-friendly.
//!
//! # Hot-path discipline
//!
//! The saturation engine ([`crate::ImplicationEngine`]) spends almost all of
//! its time in the delta row operations: the row-to-row kernels
//! ([`BitMatrix::or_row_into_delta`], [`BitMatrix::or_and_rows_into_delta`],
//! [`BitMatrix::union_rows_into_delta`]) that seed new composites and push
//! whole rows, and the window kernels ([`BitMatrix::or_window_into_delta`],
//! [`BitMatrix::or_and_window_into_delta`]) that push a goal extension's
//! pending bits.
//! They are written to three rules, measured by the `BENCH_*.json` trajectory
//! (see `docs/BENCHMARKS.md`):
//!
//! 1. **word-parallel**: 64 arcs move per `u64` OR / AND-OR — per-bit work
//!    happens only for *newly set* bits, which must be reported in the delta;
//! 2. **split-borrow slices**: source and destination rows are disjoint
//!    sub-slices of the backing store, so the inner loops run on plain slice
//!    iterators with no per-word bounds checks;
//! 3. **chunked scanning**: words are scanned [`CHUNK`] at a time with a
//!    single "any new bit?" test per chunk, because in the saturation steady
//!    state almost every chunk is already subsumed and the test is the only
//!    work done.
//!
//! The straightforward per-bit loops are kept as `*_per_bit` reference
//! implementations; property tests pin the optimized paths to them
//! (`tests/bitmatrix_props.rs`).
//!
//! # The tail invariant
//!
//! When `n` is not a multiple of 64, the last word of each row has `64 - n%64`
//! spare high bits.  Every mutating operation preserves the invariant that
//! those tail bits are **zero**: [`BitMatrix::set`] is bounds-asserted,
//! [`BitMatrix::grow`] zeroes every word it adds to a row, and the row
//! operations can only copy zeros into a tail (window sources must carry
//! no bits at or beyond `dim()`).  The invariant is what lets
//! [`BitMatrix::count_ones`] and the delta extraction loops skip last-word
//! masking; [`BitMatrix::debug_validate_tails`] checks it in tests.

/// Words scanned per "any new bit?" test in the delta row operations.
const CHUNK: usize = 4;

/// A dense `n × n` bit matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    n: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

/// Splits `bits` into the row `src` (shared) and the row `dst` (mutable).
/// The rows must be distinct; the backing ranges are then disjoint.
fn two_rows_mut(bits: &mut [u64], w: usize, src: usize, dst: usize) -> (&[u64], &mut [u64]) {
    debug_assert_ne!(src, dst);
    let (s0, d0) = (src * w, dst * w);
    if s0 < d0 {
        let (head, tail) = bits.split_at_mut(d0);
        (&head[s0..s0 + w], &mut tail[..w])
    } else {
        let (head, tail) = bits.split_at_mut(s0);
        (&tail[..w], &mut head[d0..d0 + w])
    }
}

/// Appends the column indices of the set bits of `word` (whose first column
/// is `base`) to `delta`.
#[inline]
fn push_set_bits(mut word: u64, base: usize, delta: &mut Vec<usize>) {
    while word != 0 {
        let bit = word.trailing_zeros() as usize;
        word &= word - 1;
        delta.push(base + bit);
    }
}

impl BitMatrix {
    /// Creates an all-zero `n × n` matrix.
    pub fn new(n: usize) -> Self {
        let words_per_row = n.div_ceil(64);
        BitMatrix {
            n,
            words_per_row,
            bits: vec![0; n * words_per_row],
        }
    }

    /// The dimension `n`.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Reads bit `(row, col)`.
    pub fn get(&self, row: usize, col: usize) -> bool {
        debug_assert!(row < self.n && col < self.n);
        let word = self.bits[row * self.words_per_row + col / 64];
        (word >> (col % 64)) & 1 == 1
    }

    /// Sets bit `(row, col)`; returns `true` if it was previously clear.
    ///
    /// `col` must be `< dim()` — an out-of-range column would land in a
    /// last-word tail bit and break the tail invariant, so it is rejected in
    /// every build profile (not just debug).
    pub fn set(&mut self, row: usize, col: usize) -> bool {
        assert!(
            row < self.n && col < self.n,
            "BitMatrix::set({row}, {col}) out of bounds for dim {}",
            self.n
        );
        let idx = row * self.words_per_row + col / 64;
        let mask = 1u64 << (col % 64);
        let was_clear = self.bits[idx] & mask == 0;
        self.bits[idx] |= mask;
        was_clear
    }

    /// Number of set bits in the whole matrix.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Grows the matrix to `new_n × new_n`, preserving every existing bit.
    ///
    /// New rows and columns start all-zero.  Shrinking is not supported;
    /// `new_n < dim()` panics.
    pub fn grow(&mut self, new_n: usize) {
        assert!(new_n >= self.n, "BitMatrix::grow cannot shrink");
        if new_n == self.n {
            return;
        }
        let new_words_per_row = new_n.div_ceil(64);
        let old_words_per_row = self.words_per_row;
        // One resize of the backing store, zero-filled at the end.  When the
        // stride grows, the old rows are moved to their new offsets back to
        // front (a row's new offset is never below its old one, so moving
        // the last row first never overwrites a row still to be moved) and
        // each moved row's new tail words are zeroed.  No second matrix is
        // allocated on the incremental-extension hot path.
        self.bits.resize(new_n * new_words_per_row, 0);
        if new_words_per_row != old_words_per_row {
            for row in (1..self.n).rev() {
                let src = row * old_words_per_row;
                let dst = row * new_words_per_row;
                self.bits.copy_within(src..src + old_words_per_row, dst);
            }
            for row in 0..self.n {
                let start = row * new_words_per_row;
                self.bits[start + old_words_per_row..start + new_words_per_row].fill(0);
            }
            self.words_per_row = new_words_per_row;
        }
        self.n = new_n;
    }

    /// ORs row `src` into row `dst`; returns `true` if `dst` changed.
    pub fn or_row_into(&mut self, src: usize, dst: usize) -> bool {
        if src == dst {
            return false;
        }
        let (src_row, dst_row) = two_rows_mut(&mut self.bits, self.words_per_row, src, dst);
        let mut changed = false;
        for (d, &s) in dst_row.iter_mut().zip(src_row) {
            let merged = *d | s;
            changed |= merged != *d;
            *d = merged;
        }
        changed
    }

    /// ORs row `src` into row `dst`, appending the column index of every bit
    /// that became set to `delta`.  Returns `true` if `dst` changed.
    ///
    /// The saturation engine uses the delta to mirror new arcs into the
    /// transposed matrix and to seed its worklist.
    pub fn or_row_into_delta(&mut self, src: usize, dst: usize, delta: &mut Vec<usize>) -> bool {
        if src == dst {
            return false;
        }
        let w = self.words_per_row;
        let (src_row, dst_row) = two_rows_mut(&mut self.bits, w, src, dst);
        let mut changed = false;
        let mut base = 0usize;
        let mut dst_chunks = dst_row.chunks_exact_mut(CHUNK);
        let mut src_chunks = src_row.chunks_exact(CHUNK);
        for (dc, sc) in dst_chunks.by_ref().zip(src_chunks.by_ref()) {
            let mut any = 0u64;
            for (d, &s) in dc.iter().zip(sc) {
                any |= s & !d;
            }
            if any != 0 {
                changed = true;
                for (j, (d, &s)) in dc.iter_mut().zip(sc).enumerate() {
                    push_set_bits(s & !*d, (base + j) * 64, delta);
                    *d |= s;
                }
            }
            base += CHUNK;
        }
        for (j, (d, &s)) in dst_chunks
            .into_remainder()
            .iter_mut()
            .zip(src_chunks.remainder())
            .enumerate()
        {
            let new_bits = s & !*d;
            if new_bits != 0 {
                changed = true;
                push_set_bits(new_bits, (base + j) * 64, delta);
                *d |= s;
            }
        }
        changed
    }

    /// ORs the intersection of rows `a` and `b` into row `dst`
    /// (`dst |= a & b`), appending newly set column indices to `delta`.
    /// Returns `true` if `dst` changed.
    ///
    /// This is the word-parallel form of the two-premise rules of algorithm
    /// ALG (rules 2 and 4): the conclusion row receives every element reached
    /// by *both* children at once.  When `dst` coincides with `a` or `b` the
    /// intersection is already contained in `dst` and the call is a no-op.
    pub fn or_and_rows_into_delta(
        &mut self,
        a: usize,
        b: usize,
        dst: usize,
        delta: &mut Vec<usize>,
    ) -> bool {
        if dst == a || dst == b {
            // a & b ⊆ dst already.
            return false;
        }
        if a == b {
            return self.or_row_into_delta(a, dst, delta);
        }
        let w = self.words_per_row;
        let d0 = dst * w;
        let (head, rest) = self.bits.split_at_mut(d0);
        let (dst_row, tail) = rest.split_at_mut(w);
        let row = |idx: usize| -> &[u64] {
            let start = idx * w;
            if start < d0 {
                &head[start..start + w]
            } else {
                &tail[start - d0 - w..start - d0 - w + w]
            }
        };
        let (a_row, b_row) = (row(a), row(b));
        let mut changed = false;
        let mut base = 0usize;
        let mut dst_chunks = dst_row.chunks_exact_mut(CHUNK);
        let mut a_chunks = a_row.chunks_exact(CHUNK);
        let mut b_chunks = b_row.chunks_exact(CHUNK);
        for ((dc, ac), bc) in dst_chunks
            .by_ref()
            .zip(a_chunks.by_ref())
            .zip(b_chunks.by_ref())
        {
            let mut any = 0u64;
            for ((d, &x), &y) in dc.iter().zip(ac).zip(bc) {
                any |= (x & y) & !d;
            }
            if any != 0 {
                changed = true;
                for (j, ((d, &x), &y)) in dc.iter_mut().zip(ac).zip(bc).enumerate() {
                    let s = x & y;
                    push_set_bits(s & !*d, (base + j) * 64, delta);
                    *d |= s;
                }
            }
            base += CHUNK;
        }
        for (j, ((d, &x), &y)) in dst_chunks
            .into_remainder()
            .iter_mut()
            .zip(a_chunks.remainder())
            .zip(b_chunks.remainder())
            .enumerate()
        {
            let s = x & y;
            let new_bits = s & !*d;
            if new_bits != 0 {
                changed = true;
                push_set_bits(new_bits, (base + j) * 64, delta);
                *d |= s;
            }
        }
        changed
    }

    /// ORs every row of `srcs` into row `dst` in one pass (row-range
    /// batching), appending newly set column indices to `delta`.  Returns
    /// `true` if `dst` changed.
    ///
    /// Equivalent to calling [`BitMatrix::or_row_into_delta`] once per
    /// source, but the destination row is walked (and its delta extracted)
    /// only once however many sources there are; sources equal to `dst`
    /// contribute nothing and are skipped.
    pub fn union_rows_into_delta(
        &mut self,
        srcs: &[usize],
        dst: usize,
        delta: &mut Vec<usize>,
    ) -> bool {
        let w = self.words_per_row;
        let d0 = dst * w;
        let (head, rest) = self.bits.split_at_mut(d0);
        let (dst_row, tail) = rest.split_at_mut(w);
        let row = |idx: usize| -> &[u64] {
            let start = idx * w;
            if start < d0 {
                &head[start..start + w]
            } else {
                &tail[start - d0 - w..start - d0 - w + w]
            }
        };
        let mut changed = false;
        let mut k = 0usize;
        while k < w {
            let end = (k + CHUNK).min(w);
            let mut acc = [0u64; CHUNK];
            for &src in srcs {
                if src == dst {
                    continue;
                }
                let src_row = row(src);
                for (a, &s) in acc.iter_mut().zip(&src_row[k..end]) {
                    *a |= s;
                }
            }
            let dc = &mut dst_row[k..end];
            let mut any = 0u64;
            for (d, &s) in dc.iter().zip(&acc) {
                any |= s & !d;
            }
            if any != 0 {
                changed = true;
                for (j, (d, &s)) in dc.iter_mut().zip(&acc).enumerate() {
                    push_set_bits(s & !*d, (k + j) * 64, delta);
                    *d |= s;
                }
            }
            k = end;
        }
        changed
    }

    /// ORs the word window `src` into row `dst`, starting at word
    /// `first_word` (`dst[first_word + k] |= src[k]`), appending the column
    /// index of every bit that became set to `delta`.  Returns `true` if
    /// `dst` changed.
    ///
    /// The window kernel of semi-naive saturation: `src` is a pending delta
    /// row that lives outside the matrix, and it may cover only the words
    /// from `first_word` on (the columns Lemma 9.2 lets an old row gain).
    /// `src` must not carry bits at or beyond `dim()`.
    pub fn or_window_into_delta(
        &mut self,
        dst: usize,
        first_word: usize,
        src: &[u64],
        delta: &mut Vec<usize>,
    ) -> bool {
        let start = dst * self.words_per_row + first_word;
        let dst_row = &mut self.bits[start..start + src.len()];
        let mut changed = false;
        let mut base = first_word;
        let mut dst_chunks = dst_row.chunks_exact_mut(CHUNK);
        let mut src_chunks = src.chunks_exact(CHUNK);
        for (dc, sc) in dst_chunks.by_ref().zip(src_chunks.by_ref()) {
            let mut any = 0u64;
            for (d, &s) in dc.iter().zip(sc) {
                any |= s & !d;
            }
            if any != 0 {
                changed = true;
                for (j, (d, &s)) in dc.iter_mut().zip(sc).enumerate() {
                    push_set_bits(s & !*d, (base + j) * 64, delta);
                    *d |= s;
                }
            }
            base += CHUNK;
        }
        for (j, (d, &s)) in dst_chunks
            .into_remainder()
            .iter_mut()
            .zip(src_chunks.remainder())
            .enumerate()
        {
            let new_bits = s & !*d;
            if new_bits != 0 {
                changed = true;
                push_set_bits(new_bits, (base + j) * 64, delta);
                *d |= s;
            }
        }
        changed
    }

    /// ORs the intersection of the word window `src` with row `other` into
    /// row `dst` (`dst[first_word + k] |= src[k] & other[first_word + k]`),
    /// appending newly set column indices to `delta`.  Returns `true` if
    /// `dst` changed.
    ///
    /// The window form of the two-premise rules (2 and 4) under semi-naive
    /// saturation: the pending bits of one child meet the whole row of its
    /// sibling.  When `other == dst` the intersection is already in `dst`
    /// and the call is a no-op.
    pub fn or_and_window_into_delta(
        &mut self,
        dst: usize,
        first_word: usize,
        src: &[u64],
        other: usize,
        delta: &mut Vec<usize>,
    ) -> bool {
        if other == dst {
            return false;
        }
        let w = self.words_per_row;
        let (other_row, dst_row) = two_rows_mut(&mut self.bits, w, other, dst);
        let other_row = &other_row[first_word..first_word + src.len()];
        let dst_row = &mut dst_row[first_word..first_word + src.len()];
        let mut changed = false;
        let mut base = first_word;
        let mut dst_chunks = dst_row.chunks_exact_mut(CHUNK);
        let mut src_chunks = src.chunks_exact(CHUNK);
        let mut other_chunks = other_row.chunks_exact(CHUNK);
        for ((dc, sc), oc) in dst_chunks
            .by_ref()
            .zip(src_chunks.by_ref())
            .zip(other_chunks.by_ref())
        {
            let mut any = 0u64;
            for ((d, &x), &y) in dc.iter().zip(sc).zip(oc) {
                any |= (x & y) & !d;
            }
            if any != 0 {
                changed = true;
                for (j, ((d, &x), &y)) in dc.iter_mut().zip(sc).zip(oc).enumerate() {
                    let s = x & y;
                    push_set_bits(s & !*d, (base + j) * 64, delta);
                    *d |= s;
                }
            }
            base += CHUNK;
        }
        for (j, ((d, &x), &y)) in dst_chunks
            .into_remainder()
            .iter_mut()
            .zip(src_chunks.remainder())
            .zip(other_chunks.remainder())
            .enumerate()
        {
            let new_bits = (x & y) & !*d;
            if new_bits != 0 {
                changed = true;
                push_set_bits(new_bits, (base + j) * 64, delta);
                *d |= new_bits;
            }
        }
        changed
    }

    /// Per-bit reference for [`BitMatrix::or_window_into_delta`]: one
    /// [`BitMatrix::set`] per set bit of the window, in column order.
    pub fn or_window_into_delta_per_bit(
        &mut self,
        dst: usize,
        first_word: usize,
        src: &[u64],
        delta: &mut Vec<usize>,
    ) -> bool {
        let mut changed = false;
        for col in first_word * 64..(first_word + src.len()) * 64 {
            let k = col / 64 - first_word;
            if (src[k] >> (col % 64)) & 1 == 1 && self.set(dst, col) {
                delta.push(col);
                changed = true;
            }
        }
        changed
    }

    /// Per-bit reference for [`BitMatrix::or_and_window_into_delta`] (see
    /// [`BitMatrix::or_window_into_delta_per_bit`]).
    pub fn or_and_window_into_delta_per_bit(
        &mut self,
        dst: usize,
        first_word: usize,
        src: &[u64],
        other: usize,
        delta: &mut Vec<usize>,
    ) -> bool {
        let mut changed = false;
        for col in first_word * 64..(first_word + src.len()) * 64 {
            let k = col / 64 - first_word;
            if (src[k] >> (col % 64)) & 1 == 1 && self.get(other, col) && self.set(dst, col) {
                delta.push(col);
                changed = true;
            }
        }
        changed
    }

    /// Per-bit reference for [`BitMatrix::or_row_into_delta`]: the naive
    /// column loop over [`BitMatrix::get`]/[`BitMatrix::set`].  Kept (like
    /// `chase_tableau_naive` and `DerivedOrder`) as the pinned
    /// reference the optimized word-parallel path is property-tested and
    /// benchmarked against.
    pub fn or_row_into_delta_per_bit(
        &mut self,
        src: usize,
        dst: usize,
        delta: &mut Vec<usize>,
    ) -> bool {
        if src == dst {
            return false;
        }
        let mut changed = false;
        for col in 0..self.n {
            if self.get(src, col) && self.set(dst, col) {
                delta.push(col);
                changed = true;
            }
        }
        changed
    }

    /// Per-bit reference for [`BitMatrix::or_and_rows_into_delta`] (see
    /// [`BitMatrix::or_row_into_delta_per_bit`]).
    pub fn or_and_rows_into_delta_per_bit(
        &mut self,
        a: usize,
        b: usize,
        dst: usize,
        delta: &mut Vec<usize>,
    ) -> bool {
        let mut changed = false;
        for col in 0..self.n {
            if self.get(a, col) && self.get(b, col) && self.set(dst, col) {
                delta.push(col);
                changed = true;
            }
        }
        changed
    }

    /// Iterates over the column indices of set bits in `row`.
    pub fn iter_row(&self, row: usize) -> impl Iterator<Item = usize> + '_ {
        let start = row * self.words_per_row;
        let n = self.n;
        (0..self.words_per_row)
            .flat_map(move |k| {
                let mut word = self.bits[start + k];
                std::iter::from_fn(move || {
                    if word == 0 {
                        None
                    } else {
                        let bit = word.trailing_zeros() as usize;
                        word &= word - 1;
                        Some(k * 64 + bit)
                    }
                })
            })
            .take_while(move |&c| c < n)
    }

    /// Computes the reflexive–transitive closure in place (Floyd–Warshall on
    /// booleans, using word-parallel row ORs).
    pub fn transitive_closure(&mut self) {
        for i in 0..self.n {
            self.set(i, i);
        }
        for k in 0..self.n {
            for i in 0..self.n {
                if self.get(i, k) {
                    self.or_row_into(k, i);
                }
            }
        }
    }

    /// Asserts the tail invariant: when `n % 64 != 0`, the spare high bits
    /// of every row's last word are zero.  Test/debug helper.
    pub fn debug_validate_tails(&self) {
        if self.n.is_multiple_of(64) || self.words_per_row == 0 {
            return;
        }
        let mask = !0u64 << (self.n % 64);
        for row in 0..self.n {
            let last = self.bits[row * self.words_per_row + self.words_per_row - 1];
            assert_eq!(
                last & mask,
                0,
                "tail bits of row {row} are set (dim {})",
                self.n
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_get() {
        let mut m = BitMatrix::new(70);
        assert!(!m.get(3, 65));
        assert!(m.set(3, 65));
        assert!(!m.set(3, 65));
        assert!(m.get(3, 65));
        assert_eq!(m.count_ones(), 1);
        assert_eq!(m.dim(), 70);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_rejects_out_of_range_columns_in_release_too() {
        let mut m = BitMatrix::new(63);
        m.set(0, 63); // would land in a tail bit of the last word
    }

    #[test]
    fn or_row_into_merges() {
        let mut m = BitMatrix::new(10);
        m.set(0, 1);
        m.set(0, 9);
        assert!(m.or_row_into(0, 2));
        assert!(m.get(2, 1) && m.get(2, 9));
        assert!(!m.or_row_into(0, 2));
        assert!(!m.or_row_into(5, 5));
    }

    #[test]
    fn iter_row_lists_set_columns() {
        let mut m = BitMatrix::new(130);
        for c in [0, 63, 64, 129] {
            m.set(7, c);
        }
        let cols: Vec<usize> = m.iter_row(7).collect();
        assert_eq!(cols, vec![0, 63, 64, 129]);
        assert!(m.iter_row(8).next().is_none());
    }

    #[test]
    fn grow_preserves_existing_bits() {
        let mut m = BitMatrix::new(3);
        m.set(0, 2);
        m.set(2, 1);
        m.grow(130); // crosses a word boundary
        assert_eq!(m.dim(), 130);
        assert!(m.get(0, 2) && m.get(2, 1));
        assert_eq!(m.count_ones(), 2);
        assert!(m.set(100, 129));
        assert!(m.get(100, 129));
        // Growing to the same size is a no-op.
        m.grow(130);
        assert_eq!(m.count_ones(), 3);
    }

    /// Regression fixture for the non-word-multiple widths around the u64
    /// boundary: grow across 63 → 64 → 65 (same-stride and stride-changing
    /// paths), checking bit preservation, the tail invariant and the
    /// last-column behaviour at every step.
    #[test]
    fn grow_across_word_boundary_widths() {
        for (from, to) in [(63, 64), (63, 65), (64, 65), (65, 128), (63, 130)] {
            let mut m = BitMatrix::new(from);
            // Mark the main diagonal plus the last valid column of row 0.
            for i in 0..from {
                m.set(i, i);
            }
            m.set(0, from - 1);
            let ones_before = m.count_ones();
            m.grow(to);
            m.debug_validate_tails();
            assert_eq!(m.dim(), to, "{from}->{to}");
            assert_eq!(m.count_ones(), ones_before, "{from}->{to}");
            for i in 0..from {
                assert!(m.get(i, i), "{from}->{to}: diagonal bit {i} lost");
            }
            assert!(m.get(0, from - 1), "{from}->{to}: last column lost");
            // The new columns and rows are clear and writable.
            for i in from..to {
                assert!(!m.get(0, i), "{from}->{to}: new column {i} dirty");
                assert!(m.set(i, to - 1), "{from}->{to}: new row {i} not writable");
            }
            m.debug_validate_tails();
        }
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn grow_rejects_shrinking() {
        let mut m = BitMatrix::new(4);
        m.grow(2);
    }

    #[test]
    fn or_row_into_delta_reports_new_columns() {
        let mut m = BitMatrix::new(70);
        m.set(0, 1);
        m.set(0, 65);
        m.set(2, 1); // already present in dst
        let mut delta = Vec::new();
        assert!(m.or_row_into_delta(0, 2, &mut delta));
        assert_eq!(delta, vec![65]);
        delta.clear();
        assert!(!m.or_row_into_delta(0, 2, &mut delta));
        assert!(delta.is_empty());
        assert!(!m.or_row_into_delta(0, 0, &mut delta));
    }

    #[test]
    fn or_and_rows_into_delta_intersects() {
        let mut m = BitMatrix::new(10);
        m.set(0, 3);
        m.set(0, 4);
        m.set(1, 4);
        m.set(1, 5);
        let mut delta = Vec::new();
        assert!(m.or_and_rows_into_delta(0, 1, 2, &mut delta));
        assert_eq!(delta, vec![4]); // only the shared column lands in dst
        assert!(m.get(2, 4) && !m.get(2, 3) && !m.get(2, 5));
        delta.clear();
        assert!(!m.or_and_rows_into_delta(0, 1, 2, &mut delta));
    }

    #[test]
    fn or_and_rows_handles_aliased_and_equal_rows() {
        let mut m = BitMatrix::new(70);
        m.set(0, 3);
        m.set(0, 67);
        m.set(1, 3);
        let mut delta = Vec::new();
        // dst aliases a source: a & b ⊆ dst, provably a no-op.
        assert!(!m.or_and_rows_into_delta(0, 1, 0, &mut delta));
        assert!(!m.or_and_rows_into_delta(0, 1, 1, &mut delta));
        assert!(delta.is_empty());
        // a == b degenerates to the plain row OR.
        assert!(m.or_and_rows_into_delta(0, 0, 2, &mut delta));
        assert_eq!(delta, vec![3, 67]);
        assert!(m.get(2, 3) && m.get(2, 67));
    }

    #[test]
    fn union_rows_batches_multiple_sources() {
        let mut m = BitMatrix::new(70);
        m.set(0, 1);
        m.set(1, 65);
        m.set(2, 1); // already in dst
        m.set(3, 69);
        let mut delta = Vec::new();
        // Sources equal to dst are skipped rather than self-merged.
        assert!(m.union_rows_into_delta(&[0, 1, 2, 3], 2, &mut delta));
        let mut sorted = delta.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![65, 69]);
        assert!(m.get(2, 1) && m.get(2, 65) && m.get(2, 69));
        delta.clear();
        assert!(!m.union_rows_into_delta(&[0, 1, 3], 2, &mut delta));
        assert!(!m.union_rows_into_delta(&[], 2, &mut delta));
        m.debug_validate_tails();
    }

    /// The optimized word-parallel paths agree with the per-bit references
    /// at the widths flanking the word boundary (the proptest in
    /// `tests/bitmatrix_props.rs` covers random widths and patterns).
    #[test]
    fn delta_ops_match_per_bit_references_at_boundary_widths() {
        for n in [63usize, 64, 65] {
            let mut fast = BitMatrix::new(n);
            let mut slow = BitMatrix::new(n);
            // A deterministic pseudo-random pattern over three rows.
            let mut x = 0x9e3779b97f4a7c15u64;
            for row in 0..3 {
                for col in 0..n {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(row as u64);
                    if x >> 62 == 3 {
                        fast.set(row, col);
                        slow.set(row, col);
                    }
                }
            }
            let (mut df, mut ds) = (Vec::new(), Vec::new());
            assert_eq!(
                fast.or_row_into_delta(0, 2, &mut df),
                slow.or_row_into_delta_per_bit(0, 2, &mut ds),
                "width {n}"
            );
            df.sort_unstable();
            ds.sort_unstable();
            assert_eq!(df, ds, "width {n}");
            assert_eq!(fast, slow, "width {n}");

            let (mut df, mut ds) = (Vec::new(), Vec::new());
            assert_eq!(
                fast.or_and_rows_into_delta(0, 1, 2, &mut df),
                slow.or_and_rows_into_delta_per_bit(0, 1, 2, &mut ds),
                "width {n}"
            );
            df.sort_unstable();
            ds.sort_unstable();
            assert_eq!(df, ds, "width {n}");
            assert_eq!(fast, slow, "width {n}");
            fast.debug_validate_tails();
        }
    }

    #[test]
    fn transitive_closure_of_a_chain() {
        let mut m = BitMatrix::new(5);
        for i in 0..4 {
            m.set(i, i + 1);
        }
        m.transitive_closure();
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(m.get(i, j), i <= j, "({i},{j})");
            }
        }
    }

    #[test]
    fn transitive_closure_is_idempotent() {
        let mut m = BitMatrix::new(8);
        m.set(0, 3);
        m.set(3, 6);
        m.set(6, 1);
        m.transitive_closure();
        let snapshot = m.clone();
        m.transitive_closure();
        assert_eq!(m, snapshot);
    }
}
