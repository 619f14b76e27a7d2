//! The [`Partition`] type: a family of non-empty, disjoint blocks whose
//! union is a population (Definition 1 of the paper calls the per-attribute
//! instance `π_A` the *atomic partition* of `A`).
//!
//! # The flat kernel
//!
//! Internally a partition is **not** stored as nested blocks.  The primary
//! representation is a flat *label vector*: position `i` of
//! [`Partition::labels`] holds the block label of the `i`-th smallest
//! population element.  Labels are canonical — scanning positions left to
//! right, the first occurrences of labels read `0, 1, 2, …` — so two
//! partitions are mathematically equal iff their populations and label
//! vectors are bytewise equal, and `==` / `Hash` operate on the flat arrays
//! without touching any block structure.
//!
//! Because labels are assigned by first appearance over the ascending
//! population, label order coincides with "blocks ordered by smallest
//! element": the canonical block order of the paper's figures is preserved
//! exactly, and [`Partition::block_index_of`] returns the same indices the
//! historical nested representation did.
//!
//! Block-shaped access ([`Partition::blocks`], [`Partition::block_of`]) is
//! served by a lazily materialized CSR view ([`BlocksView`]): an offsets
//! array plus one elements array grouped by block, built once per partition
//! by a counting sort and cached.  Operations never need it — product, sum
//! and the refinement order all run directly on the label vectors (see the
//! `ops` module).

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Index;
use std::sync::OnceLock;

use crate::{Element, PartitionError, Population, Result};

/// A partition of a population: non-empty, pairwise disjoint *blocks* whose
/// union is the population.
///
/// The representation is a canonical flat label vector (see the module
/// docs), so structural equality (`==`, `Hash`) coincides with mathematical
/// equality of partitions while staying O(n) with no pointer chasing.
///
/// ```
/// use ps_partition::{Partition, Population};
/// let pop = Population::range(4);
/// let p = Partition::from_blocks(vec![vec![0, 1], vec![2, 3]]).unwrap();
/// assert_eq!(p.population(), &pop);
/// assert_eq!(p.num_blocks(), 2);
/// assert!(p.same_block(0.into(), 1.into()));
/// assert!(!p.same_block(1.into(), 2.into()));
/// assert_eq!(p.labels(), &[0, 0, 1, 1]);
/// ```
#[derive(Debug)]
pub struct Partition {
    population: Population,
    /// `labels[i]` is the block label of `population.as_slice()[i]`,
    /// normalized so first occurrences appear in increasing order.
    labels: Vec<u32>,
    num_blocks: u32,
    /// Lazily materialized CSR view for block iteration.
    csr: OnceLock<Csr>,
}

/// The materialized CSR (compressed sparse row) view of a partition:
/// `elems[offsets[b] as usize..offsets[b + 1] as usize]` is block `b`,
/// sorted ascending; blocks are ordered by label (= by smallest element).
#[derive(Debug, Clone)]
struct Csr {
    offsets: Vec<u32>,
    elems: Vec<Element>,
}

impl Csr {
    fn build(population: &Population, labels: &[u32], num_blocks: u32) -> Self {
        let nb = num_blocks as usize;
        // Counting sort by label: stable over the ascending population, so
        // each block comes out sorted ascending.
        let mut counts = vec![0u32; nb + 1];
        for &l in labels {
            counts[l as usize + 1] += 1;
        }
        for b in 0..nb {
            counts[b + 1] += counts[b];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut elems = vec![Element::new(0); labels.len()];
        for (e, &l) in population.iter().zip(labels) {
            let slot = cursor[l as usize];
            elems[slot as usize] = e;
            cursor[l as usize] += 1;
        }
        Csr { offsets, elems }
    }

    fn block(&self, b: usize) -> &[Element] {
        &self.elems[self.offsets[b] as usize..self.offsets[b + 1] as usize]
    }
}

impl Clone for Partition {
    fn clone(&self) -> Self {
        // The cached CSR is cheap to carry along when it exists.
        let csr = OnceLock::new();
        if let Some(existing) = self.csr.get() {
            let _ = csr.set(existing.clone());
        }
        Partition {
            population: self.population.clone(),
            labels: self.labels.clone(),
            num_blocks: self.num_blocks,
            csr,
        }
    }
}

impl PartialEq for Partition {
    fn eq(&self, other: &Self) -> bool {
        // Canonical labels: flat comparison is mathematical equality.
        self.labels == other.labels && self.population == other.population
    }
}

impl Eq for Partition {}

impl Hash for Partition {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.population.hash(state);
        self.labels.hash(state);
    }
}

/// First-appearance renumbering: maps arbitrary raw ids (block labels,
/// union–find roots, …) to dense canonical labels `0, 1, 2, …` in the order
/// they are first seen.  This is the single implementation of the
/// canonical-labeling invariant; every producer of label vectors goes
/// through it.
pub(crate) struct Renumbering {
    remap: Vec<u32>,
    next: u32,
}

impl Renumbering {
    /// A renumbering accepting raw ids `0..raw_count`.
    pub(crate) fn new(raw_count: usize) -> Self {
        Renumbering {
            remap: vec![u32::MAX; raw_count],
            next: 0,
        }
    }

    /// The canonical label of `raw`, assigning the next fresh label on first
    /// sight.
    pub(crate) fn canonical(&mut self, raw: usize) -> u32 {
        let slot = &mut self.remap[raw];
        if *slot == u32::MAX {
            *slot = self.next;
            self.next += 1;
        }
        *slot
    }

    /// Number of distinct canonical labels assigned so far.
    pub(crate) fn count(&self) -> u32 {
        self.next
    }
}

impl Partition {
    /// Assembles a partition from already-canonical parts (no validation
    /// beyond debug assertions; every internal producer guarantees the
    /// invariants).
    pub(crate) fn from_parts(population: Population, labels: Vec<u32>, num_blocks: u32) -> Self {
        debug_assert_eq!(population.len(), labels.len());
        debug_assert!(labels_are_canonical(&labels, num_blocks));
        Partition {
            population,
            labels,
            num_blocks,
            csr: OnceLock::new(),
        }
    }

    /// Builds a partition from `(element, raw label)` pairs: two elements
    /// share a block iff they carry the same raw label.  Duplicate pairs with
    /// equal labels are collapsed; the same element under two different raw
    /// labels is an overlap error.
    pub(crate) fn from_raw_labeled(mut pairs: Vec<(Element, u32)>) -> Result<Self> {
        pairs.sort_unstable();
        pairs.dedup();
        for w in pairs.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(PartitionError::OverlappingBlocks(w[0].0));
            }
        }
        let raw_max = pairs.iter().map(|&(_, l)| l).max().map_or(0, |m| m + 1);
        let mut renumbering = Renumbering::new(raw_max as usize);
        let mut items = Vec::with_capacity(pairs.len());
        let mut labels = Vec::with_capacity(pairs.len());
        for (e, raw) in pairs {
            items.push(e);
            labels.push(renumbering.canonical(raw as usize));
        }
        let num_blocks = renumbering.count();
        Ok(Partition::from_parts(
            Population::from_sorted_vec(items),
            labels,
            num_blocks,
        ))
    }

    /// The *discrete* (finest) partition of `pop`: every element is its own
    /// block.
    ///
    /// ```
    /// use ps_partition::{Partition, Population};
    /// let d = Partition::discrete(&Population::range(3));
    /// assert_eq!(d.num_blocks(), 3);
    /// assert!(d.is_discrete());
    /// ```
    pub fn discrete(pop: &Population) -> Self {
        let labels = (0..pop.len() as u32).collect();
        Partition::from_parts(pop.clone(), labels, pop.len() as u32)
    }

    /// The *indiscrete* (coarsest) partition of `pop`: a single block (or no
    /// block if the population is empty).
    ///
    /// ```
    /// use ps_partition::{Partition, Population};
    /// let i = Partition::indiscrete(&Population::range(3));
    /// assert_eq!(i.num_blocks(), 1);
    /// assert!(i.is_indiscrete());
    /// ```
    pub fn indiscrete(pop: &Population) -> Self {
        let num_blocks = u32::from(!pop.is_empty());
        Partition::from_parts(pop.clone(), vec![0; pop.len()], num_blocks)
    }

    /// The empty partition (of the empty population).  This is the meaning of
    /// an expression whose populations have empty intersection.
    ///
    /// ```
    /// use ps_partition::Partition;
    /// assert!(Partition::empty().is_empty());
    /// ```
    pub fn empty() -> Self {
        Partition::from_parts(Population::new(), Vec::new(), 0)
    }

    /// Builds a partition from explicit blocks given as raw element ids.
    ///
    /// Fails if any block is empty or two blocks overlap.  The population is
    /// the union of the blocks.
    ///
    /// ```
    /// use ps_partition::Partition;
    /// let p = Partition::from_blocks(vec![vec![3, 2], vec![0, 1]]).unwrap();
    /// let q = Partition::from_blocks(vec![vec![0, 1], vec![2, 3]]).unwrap();
    /// assert_eq!(p, q); // canonical representation
    /// assert!(Partition::from_blocks(vec![vec![0, 1], vec![1, 2]]).is_err());
    /// ```
    pub fn from_blocks<I, B>(blocks: I) -> Result<Self>
    where
        I: IntoIterator<Item = B>,
        B: IntoIterator<Item = u32>,
    {
        let element_blocks: Vec<Vec<Element>> = blocks
            .into_iter()
            .map(|b| b.into_iter().map(Element::new).collect())
            .collect();
        Self::from_element_blocks(element_blocks)
    }

    /// Builds a partition from explicit blocks of [`Element`]s.
    ///
    /// ```
    /// use ps_partition::{Element, Partition};
    /// let blocks = vec![vec![Element::new(2), Element::new(0)], vec![Element::new(1)]];
    /// let p = Partition::from_element_blocks(blocks).unwrap();
    /// assert_eq!(p.num_blocks(), 2);
    /// assert!(p.same_block(Element::new(0), Element::new(2)));
    /// ```
    pub fn from_element_blocks(blocks: Vec<Vec<Element>>) -> Result<Self> {
        let mut pairs = Vec::with_capacity(blocks.iter().map(Vec::len).sum());
        for (raw, block) in blocks.iter().enumerate() {
            if block.is_empty() {
                return Err(PartitionError::EmptyBlock);
            }
            for &e in block {
                pairs.push((e, raw as u32));
            }
        }
        Self::from_raw_labeled(pairs)
    }

    /// Builds a partition by grouping the elements of `pairs` by key: two
    /// elements end up in the same block iff they are paired with equal keys.
    ///
    /// This is how the naming functions `f_A` of Definition 1 induce the
    /// atomic partition `π_A`: elements mapped to the same symbol share a
    /// block.  Pairs given in strictly ascending element order are labelled
    /// in one pass, with no sort.
    ///
    /// # Panics
    /// Panics if the same element is paired with two different keys (that
    /// would put it in two blocks).
    ///
    /// ```
    /// use ps_partition::{Element, Partition};
    /// // Figure 1's π_A = {{1},{4},{2,3}} induced by f_A.
    /// let p = Partition::from_keys(vec![
    ///     (Element::new(1), "a"),
    ///     (Element::new(4), "a1"),
    ///     (Element::new(2), "a2"),
    ///     (Element::new(3), "a2"),
    /// ]);
    /// assert_eq!(p, Partition::from_blocks(vec![vec![1], vec![4], vec![2, 3]]).unwrap());
    /// ```
    pub fn from_keys<K, I>(pairs: I) -> Self
    where
        K: std::hash::Hash + Eq,
        I: IntoIterator<Item = (Element, K)>,
    {
        let pairs = pairs.into_iter();
        let mut raw_of_key: HashMap<K, u32> = HashMap::with_capacity(pairs.size_hint().0);
        let mut raw_pairs = Vec::with_capacity(pairs.size_hint().0);
        for (e, k) in pairs {
            let next = raw_of_key.len() as u32;
            let raw = *raw_of_key.entry(k).or_insert(next);
            raw_pairs.push((e, raw));
        }
        // Keys met in ascending element order are numbered by first
        // appearance over the population: the raw labels are canonical.
        if raw_pairs.windows(2).all(|w| w[0].0 < w[1].0) {
            let (items, labels) = raw_pairs.into_iter().unzip();
            return Partition::from_parts(
                Population::from_sorted_vec(items),
                labels,
                raw_of_key.len() as u32,
            );
        }
        Self::from_raw_labeled(raw_pairs)
            .expect("grouping by key cannot produce overlapping blocks")
    }

    /// Builds a partition of the population `{0, …, n−1}` from a label
    /// vector that is already canonical: `labels[i]` is the block of element
    /// `i`, and the first occurrences of labels read `0, 1, 2, …`.  One check
    /// pass, no hashing and no sort — the constructor for producers that
    /// number their blocks by first occurrence themselves, like the chase's
    /// per-column labels of a weak instance.
    ///
    /// Fails with [`PartitionError::NonCanonicalLabels`] if some label is
    /// more than one above every label before it.
    ///
    /// ```
    /// use ps_partition::{Partition, PartitionError};
    /// let p = Partition::from_canonical_labels(vec![0, 1, 0, 2]).unwrap();
    /// assert_eq!(p, Partition::from_blocks(vec![vec![0, 2], vec![1], vec![3]]).unwrap());
    /// assert_eq!(
    ///     Partition::from_canonical_labels(vec![0, 2, 1]),
    ///     Err(PartitionError::NonCanonicalLabels)
    /// );
    /// ```
    pub fn from_canonical_labels(labels: Vec<u32>) -> Result<Self> {
        let mut num_blocks = 0u32;
        for &label in &labels {
            if label > num_blocks {
                return Err(PartitionError::NonCanonicalLabels);
            }
            num_blocks += u32::from(label == num_blocks);
        }
        Ok(Partition::from_parts(
            Population::range(labels.len() as u32),
            labels,
            num_blocks,
        ))
    }

    /// The population of the partition.
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// The flat label vector: `labels()[i]` is the block label of the `i`-th
    /// smallest population element.  Labels are canonical (first occurrences
    /// increase left to right), so this slice *is* the partition.
    ///
    /// ```
    /// use ps_partition::Partition;
    /// let p = Partition::from_blocks(vec![vec![1, 3], vec![2]]).unwrap();
    /// // population [1, 2, 3] → labels [0, 1, 0]
    /// assert_eq!(p.labels(), &[0, 1, 0]);
    /// ```
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// The block label of `e`, if `e` is in the population: one binary
    /// search for the position, then one array read.
    ///
    /// ```
    /// use ps_partition::{Element, Partition};
    /// let p = Partition::from_blocks(vec![vec![1, 3], vec![2]]).unwrap();
    /// assert_eq!(p.label_of(Element::new(3)), Some(0));
    /// assert_eq!(p.label_of(Element::new(9)), None);
    /// ```
    pub fn label_of(&self, e: Element) -> Option<u32> {
        self.population.position(e).map(|i| self.labels[i])
    }

    /// The blocks as a CSR-backed view, each sorted ascending, ordered by
    /// smallest element.  The view is materialized lazily on first call and
    /// cached.
    ///
    /// ```
    /// use ps_partition::{Element, Partition};
    /// let p = Partition::from_blocks(vec![vec![2, 3], vec![1]]).unwrap();
    /// let blocks = p.blocks();
    /// assert_eq!(blocks.len(), 2);
    /// assert_eq!(&blocks[0], &[Element::new(1)][..]);
    /// let sizes: Vec<usize> = blocks.iter().map(<[Element]>::len).collect();
    /// assert_eq!(sizes, vec![1, 2]);
    /// ```
    pub fn blocks(&self) -> BlocksView<'_> {
        let csr = self.csr();
        BlocksView {
            offsets: &csr.offsets,
            elems: &csr.elems,
        }
    }

    /// Block `index` as a sorted slice.
    ///
    /// # Panics
    /// Panics if `index >= self.num_blocks()`.
    ///
    /// ```
    /// use ps_partition::{Element, Partition};
    /// let p = Partition::from_blocks(vec![vec![1], vec![2, 3]]).unwrap();
    /// assert_eq!(p.block(1), &[Element::new(2), Element::new(3)]);
    /// ```
    pub fn block(&self, index: usize) -> &[Element] {
        self.csr().block(index)
    }

    fn csr(&self) -> &Csr {
        self.csr
            .get_or_init(|| Csr::build(&self.population, &self.labels, self.num_blocks))
    }

    /// Invalidates the cached CSR view after a label mutation.
    pub(crate) fn invalidate_csr(&mut self) {
        self.csr.take();
    }

    /// Grants the `ops` module mutable access to the label vector together
    /// with the paired population (for in-place refinement).
    pub(crate) fn labels_mut(&mut self) -> &mut Vec<u32> {
        &mut self.labels
    }

    pub(crate) fn set_num_blocks(&mut self, num_blocks: u32) {
        self.num_blocks = num_blocks;
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks as usize
    }

    /// Whether the partition has an empty population (and hence no blocks).
    pub fn is_empty(&self) -> bool {
        self.population.is_empty()
    }

    /// The index of the block containing `e`, if `e` is in the population.
    ///
    /// Block indices equal block labels: blocks are ordered by smallest
    /// element, exactly as the historical nested representation ordered
    /// them.
    ///
    /// ```
    /// use ps_partition::{Element, Partition};
    /// let p = Partition::from_blocks(vec![vec![1, 4], vec![2, 3]]).unwrap();
    /// assert_eq!(p.block_index_of(Element::new(4)), Some(0));
    /// assert_eq!(p.block_index_of(Element::new(2)), Some(1));
    /// assert_eq!(p.block_index_of(Element::new(7)), None);
    /// ```
    pub fn block_index_of(&self, e: Element) -> Option<usize> {
        self.label_of(e).map(|l| l as usize)
    }

    /// The block containing `e`, if any.
    ///
    /// ```
    /// use ps_partition::{Element, Partition};
    /// let p = Partition::from_blocks(vec![vec![1, 2], vec![3]]).unwrap();
    /// assert_eq!(p.block_of(Element::new(2)).unwrap(), &[Element::new(1), Element::new(2)]);
    /// assert_eq!(p.block_of(Element::new(9)), None);
    /// ```
    pub fn block_of(&self, e: Element) -> Option<&[Element]> {
        self.block_index_of(e).map(|i| self.csr().block(i))
    }

    /// Whether `a` and `b` lie in the same block.  Elements outside the
    /// population are never in any block.
    ///
    /// ```
    /// use ps_partition::Partition;
    /// let p = Partition::from_blocks(vec![vec![1, 2], vec![3]]).unwrap();
    /// assert!(p.same_block(1.into(), 2.into()));
    /// assert!(!p.same_block(1.into(), 3.into()));
    /// assert!(!p.same_block(1.into(), 9.into()));
    /// ```
    pub fn same_block(&self, a: Element, b: Element) -> bool {
        match (self.label_of(a), self.label_of(b)) {
            (Some(la), Some(lb)) => la == lb,
            _ => false,
        }
    }

    /// A dense map from element to block index, usable for O(1) lookups when
    /// a partition is queried repeatedly.
    ///
    /// ```
    /// use ps_partition::{Element, Partition};
    /// let p = Partition::from_blocks(vec![vec![1, 2], vec![3]]).unwrap();
    /// assert_eq!(p.block_index_map()[&Element::new(3)], 1);
    /// ```
    pub fn block_index_map(&self) -> HashMap<Element, usize> {
        self.population
            .iter()
            .zip(&self.labels)
            .map(|(e, &l)| (e, l as usize))
            .collect()
    }

    /// Whether the partition is the discrete partition of its population.
    pub fn is_discrete(&self) -> bool {
        self.num_blocks as usize == self.population.len()
    }

    /// Whether the partition is the indiscrete partition of its population.
    pub fn is_indiscrete(&self) -> bool {
        self.num_blocks <= 1
    }

    /// The blocks copied out as nested vectors — a compatibility bridge for
    /// callers that want owned block lists (e.g. the chaining reference
    /// implementation of the sum).
    ///
    /// ```
    /// use ps_partition::{Element, Partition};
    /// let p = Partition::from_blocks(vec![vec![1], vec![2, 3]]).unwrap();
    /// assert_eq!(
    ///     p.to_block_vecs(),
    ///     vec![vec![Element::new(1)], vec![Element::new(2), Element::new(3)]],
    /// );
    /// ```
    pub fn to_block_vecs(&self) -> Vec<Vec<Element>> {
        self.blocks().iter().map(<[Element]>::to_vec).collect()
    }

    /// Validates the internal invariants (labels canonical and in range, one
    /// label per population element, every block non-empty).  Mostly useful
    /// in tests.
    ///
    /// ```
    /// use ps_partition::Partition;
    /// let p = Partition::from_blocks(vec![vec![1, 2]]).unwrap();
    /// assert!(p.validate().is_ok());
    /// ```
    pub fn validate(&self) -> Result<()> {
        if self.labels.len() != self.population.len() {
            return Err(PartitionError::PopulationMismatch);
        }
        let sorted_strict = self.population.as_slice().windows(2).all(|w| w[0] < w[1]);
        if !sorted_strict {
            return Err(PartitionError::PopulationMismatch);
        }
        if !labels_are_canonical(&self.labels, self.num_blocks) {
            return Err(PartitionError::PopulationMismatch);
        }
        if let Some(csr) = self.csr.get() {
            let rebuilt = Csr::build(&self.population, &self.labels, self.num_blocks);
            if csr.offsets != rebuilt.offsets || csr.elems != rebuilt.elems {
                return Err(PartitionError::PopulationMismatch);
            }
        }
        Ok(())
    }
}

/// Checks the canonical-labeling invariant: every label is `< num_blocks`,
/// every label in `0..num_blocks` occurs, and first occurrences appear in
/// increasing order.
fn labels_are_canonical(labels: &[u32], num_blocks: u32) -> bool {
    let mut next_fresh = 0u32;
    for &l in labels {
        if l > next_fresh || l >= num_blocks.max(1) {
            return false;
        }
        if l == next_fresh {
            next_fresh += 1;
        }
    }
    next_fresh == num_blocks
}

/// A borrowed, CSR-backed view of a partition's blocks: indexable and
/// iterable as sorted `&[Element]` slices, ordered by smallest element.
///
/// ```
/// use ps_partition::{Element, Partition};
/// let p = Partition::from_blocks(vec![vec![0, 2], vec![1]]).unwrap();
/// let view = p.blocks();
/// assert_eq!(view.len(), 2);
/// for block in view.iter() {
///     assert!(!block.is_empty());
/// }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BlocksView<'a> {
    offsets: &'a [u32],
    elems: &'a [Element],
}

impl<'a> BlocksView<'a> {
    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether there are no blocks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Block `index`, or `None` when out of range.
    pub fn get(&self, index: usize) -> Option<&'a [Element]> {
        if index < self.len() {
            Some(&self.elems[self.offsets[index] as usize..self.offsets[index + 1] as usize])
        } else {
            None
        }
    }

    /// Iterates over the blocks as sorted slices.
    pub fn iter(&self) -> BlocksIter<'a> {
        BlocksIter {
            view: *self,
            front: 0,
            back: self.len(),
        }
    }
}

impl<'a> Index<usize> for BlocksView<'a> {
    type Output = [Element];

    fn index(&self, index: usize) -> &Self::Output {
        self.get(index).expect("block index out of range")
    }
}

impl<'a> IntoIterator for BlocksView<'a> {
    type Item = &'a [Element];
    type IntoIter = BlocksIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over the blocks of a [`BlocksView`].
#[derive(Debug, Clone)]
pub struct BlocksIter<'a> {
    view: BlocksView<'a>,
    front: usize,
    back: usize,
}

impl<'a> Iterator for BlocksIter<'a> {
    type Item = &'a [Element];

    fn next(&mut self) -> Option<Self::Item> {
        if self.front < self.back {
            let block = self.view.get(self.front);
            self.front += 1;
            block
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.back - self.front;
        (remaining, Some(remaining))
    }
}

impl DoubleEndedIterator for BlocksIter<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        if self.front < self.back {
            self.back -= 1;
            self.view.get(self.back)
        } else {
            None
        }
    }
}

impl ExactSizeIterator for BlocksIter<'_> {}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, block) in self.blocks().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{{")?;
            for (j, e) in block.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{e}")?;
            }
            write!(f, "}}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discrete_and_indiscrete() {
        let pop = Population::range(3);
        let d = Partition::discrete(&pop);
        let i = Partition::indiscrete(&pop);
        assert_eq!(d.num_blocks(), 3);
        assert!(d.is_discrete());
        assert_eq!(i.num_blocks(), 1);
        assert!(i.is_indiscrete());
        assert!(d.validate().is_ok());
        assert!(i.validate().is_ok());
        assert_eq!(d.labels(), &[0, 1, 2]);
        assert_eq!(i.labels(), &[0, 0, 0]);
    }

    #[test]
    fn empty_partition() {
        let p = Partition::empty();
        assert!(p.is_empty());
        assert_eq!(p.num_blocks(), 0);
        assert!(p.validate().is_ok());
        assert!(p.is_discrete() && p.is_indiscrete());
        assert_eq!(p.blocks().len(), 0);
        assert!(p.blocks().is_empty());
    }

    #[test]
    fn from_blocks_canonicalizes() {
        let p = Partition::from_blocks(vec![vec![3, 2], vec![0, 1]]).unwrap();
        assert_eq!(&p.blocks()[0], &[Element::new(0), Element::new(1)][..]);
        assert_eq!(&p.blocks()[1], &[Element::new(2), Element::new(3)][..]);
        let q = Partition::from_blocks(vec![vec![0, 1], vec![2, 3]]).unwrap();
        assert_eq!(p, q);
        assert_eq!(p.labels(), &[0, 0, 1, 1]);
    }

    #[test]
    fn from_blocks_rejects_empty_and_overlap() {
        assert_eq!(
            Partition::from_blocks(vec![vec![], vec![1u32]]).unwrap_err(),
            PartitionError::EmptyBlock
        );
        assert_eq!(
            Partition::from_blocks(vec![vec![0, 1], vec![1, 2]]).unwrap_err(),
            PartitionError::OverlappingBlocks(Element::new(1))
        );
    }

    #[test]
    fn duplicate_elements_within_a_block_are_collapsed() {
        let p = Partition::from_blocks(vec![vec![1, 1, 2]]).unwrap();
        assert_eq!(p, Partition::from_blocks(vec![vec![1, 2]]).unwrap());
    }

    #[test]
    fn from_keys_groups_correctly() {
        // Figure 1's π_A = {{1},{4},{2,3}} induced by f_A.
        let p = Partition::from_keys(vec![
            (Element::new(1), "a"),
            (Element::new(4), "a1"),
            (Element::new(2), "a2"),
            (Element::new(3), "a2"),
        ]);
        assert_eq!(
            p,
            Partition::from_blocks(vec![vec![1], vec![4], vec![2, 3]]).unwrap()
        );
    }

    #[test]
    fn block_lookup_and_same_block() {
        let p = Partition::from_blocks(vec![vec![1, 2], vec![3]]).unwrap();
        assert_eq!(
            p.block_of(Element::new(2)).unwrap(),
            &[Element::new(1), Element::new(2)]
        );
        assert_eq!(p.block_of(Element::new(9)), None);
        assert!(p.same_block(Element::new(1), Element::new(2)));
        assert!(!p.same_block(Element::new(1), Element::new(3)));
        assert!(!p.same_block(Element::new(1), Element::new(9)));
        let map = p.block_index_map();
        assert_eq!(map[&Element::new(3)], 1);
        assert_eq!(p.block(1), &[Element::new(3)]);
    }

    #[test]
    fn labels_and_block_indices_agree() {
        let p = Partition::from_blocks(vec![vec![1, 4], vec![2, 3], vec![5]]).unwrap();
        for e in p.population().iter() {
            assert_eq!(
                p.label_of(e).map(|l| l as usize),
                p.block_index_of(e),
                "label/index mismatch at {e}"
            );
            let block = p.block_of(e).unwrap();
            assert!(block.contains(&e));
        }
        assert_eq!(p.label_of(Element::new(99)), None);
    }

    #[test]
    fn blocks_view_iteration() {
        let p = Partition::from_blocks(vec![vec![0, 5], vec![1], vec![2, 3, 4]]).unwrap();
        let view = p.blocks();
        assert_eq!(view.iter().len(), 3);
        let forward: Vec<usize> = view.iter().map(<[Element]>::len).collect();
        assert_eq!(forward, vec![2, 1, 3]);
        let backward: Vec<usize> = view.iter().rev().map(<[Element]>::len).collect();
        assert_eq!(backward, vec![3, 1, 2]);
        assert_eq!(view.get(7), None);
        // The view is Copy and usable in for-loops.
        let mut total = 0;
        for block in view {
            total += block.len();
        }
        assert_eq!(total, p.population().len());
    }

    #[test]
    fn clone_preserves_cached_view() {
        let p = Partition::from_blocks(vec![vec![0, 1], vec![2]]).unwrap();
        let _force = p.blocks();
        let q = p.clone();
        assert_eq!(p, q);
        assert!(q.validate().is_ok());
        assert_eq!(q.blocks().len(), 2);
    }

    #[test]
    fn display_formats_blocks() {
        let p = Partition::from_blocks(vec![vec![1], vec![2, 3]]).unwrap();
        assert_eq!(format!("{p}"), "{{1}, {2,3}}");
    }

    #[test]
    fn validate_detects_broken_invariants() {
        let mut p = Partition::from_blocks(vec![vec![1, 2]]).unwrap();
        p.labels_mut().push(0);
        assert_eq!(
            p.validate().unwrap_err(),
            PartitionError::PopulationMismatch
        );

        let mut q = Partition::from_blocks(vec![vec![1], vec![2]]).unwrap();
        // Non-canonical labeling: first occurrence order must be 0, 1, ….
        q.labels_mut()[0] = 1;
        q.labels_mut()[1] = 0;
        assert!(q.validate().is_err());
    }

    #[test]
    fn canonical_label_checker() {
        assert!(labels_are_canonical(&[], 0));
        assert!(labels_are_canonical(&[0, 0, 1, 0, 2], 3));
        assert!(!labels_are_canonical(&[1, 0], 2)); // wrong first-occurrence order
        assert!(!labels_are_canonical(&[0, 2], 3)); // label 1 skipped
        assert!(!labels_are_canonical(&[0, 1], 3)); // label 2 missing
        assert!(!labels_are_canonical(&[0, 3], 2)); // out of range
    }
}
