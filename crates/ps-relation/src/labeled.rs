//! Relations as dense per-column labels: the shape a chased weak instance
//! comes out of the chase in.
//!
//! A [`LabeledRelation`] stores, for every column, one `u32` label per row
//! and one symbol per label.  Labels are numbered by first occurrence down
//! each column, so the label vector of a column is exactly the canonical
//! label vector of the partition `I(w)` gives that attribute (Definition 5)
//! over the population `{0, …, len−1}`, and the symbol list names its
//! blocks in order.  The chase produces this from its class roots with no
//! hashing (see [`crate::chase`]); the Lemma 12.1 repair appends bridging
//! rows as labels; the witness builds `I(w)` and the [`Relation`] from it
//! column by column.
//!
//! Rows are pairwise distinct.  [`LabeledRelation::push_row`] keeps that
//! true: a row with a fresh cell is new by construction, and only a row
//! made entirely of existing labels is looked up, in a row index built the
//! first time one is pushed.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use ps_base::{AttrSet, Attribute, NullSource, Symbol};

use crate::{Relation, RelationScheme};

/// A relation stored as dense per-column labels (see the module docs).
#[derive(Debug, Clone)]
pub struct LabeledRelation {
    attrs: AttrSet,
    len: usize,
    /// `labels[c][r]`: the label of row `r`'s cell in column `c`; the first
    /// occurrences down each column read `0, 1, 2, …`.
    labels: Vec<Vec<u32>>,
    /// `names[c][l]`: the symbol label `l` stands for in column `c`.  The
    /// symbols of one column are pairwise distinct.
    names: Vec<Vec<Symbol>>,
    /// Every row, by the hash of its labels; built by the first
    /// [`LabeledRelation::push_row`] that needs a membership test.
    index: Option<RowIndex>,
}

/// Rows of a column-major label table, by the hash of their labels.
#[derive(Debug, Clone, Default)]
struct RowIndex(HashMap<u64, Vec<u32>>);

impl RowIndex {
    /// The indexed row of `labels` that carries exactly `key`, if any.
    fn find(&self, labels: &[Vec<u32>], key: &[u32]) -> Option<u32> {
        self.0.get(&hash_labels(key))?.iter().copied().find(|&row| {
            labels
                .iter()
                .zip(key)
                .all(|(column, &label)| column[row as usize] == label)
        })
    }

    fn insert(&mut self, key: &[u32], row: u32) {
        self.0.entry(hash_labels(key)).or_default().push(row);
    }
}

/// The labels of row `row` of a column-major label table.
fn row_key(labels: &[Vec<u32>], row: usize) -> Vec<u32> {
    labels.iter().map(|column| column[row]).collect()
}

impl PartialEq for LabeledRelation {
    fn eq(&self, other: &Self) -> bool {
        // The index is derived from the labels.
        self.attrs == other.attrs
            && self.len == other.len
            && self.labels == other.labels
            && self.names == other.names
    }
}

impl Eq for LabeledRelation {}

/// Labels one column by hashing its symbols: first occurrence order.
fn hash_label(column: impl ExactSizeIterator<Item = Symbol>) -> (Vec<u32>, Vec<Symbol>) {
    let mut label_of: HashMap<Symbol, u32, BuildHasherDefault<SymbolHasher>> =
        HashMap::with_capacity_and_hasher(column.len(), Default::default());
    let mut names = Vec::new();
    let labels = column
        .map(|symbol| {
            *label_of.entry(symbol).or_insert_with(|| {
                names.push(symbol);
                names.len() as u32 - 1
            })
        })
        .collect();
    (labels, names)
}

impl LabeledRelation {
    /// Labels every column of `relation` by hashing its symbols.  The rows
    /// of a relation are distinct already, so none is dropped.
    pub fn from_relation(relation: &Relation) -> Self {
        let (labels, names) = (0..relation.scheme().arity())
            .map(|pos| hash_label(relation.column(pos).iter().copied()))
            .unzip();
        LabeledRelation {
            attrs: relation.scheme().attrs().clone(),
            len: relation.len(),
            labels,
            names,
            index: None,
        }
    }

    /// Labels symbol rows over `attrs` by hashing, and drops every row equal
    /// to an earlier one.  Returns the relation and, per input row, the row
    /// it became (empty when no row was dropped).
    pub(crate) fn from_rows(attrs: AttrSet, rows: &[Vec<Symbol>]) -> (Self, Vec<u32>) {
        let (labels, names) = (0..attrs.len())
            .map(|c| hash_label(rows.iter().map(|row| row[c])))
            .unzip();
        Self::distinct(attrs, rows.len(), labels, names, |_| true)
    }

    /// Assembles `num_rows` rows given as canonical per-column labels and
    /// drops every row equal to an earlier one.  Only rows for which
    /// `candidate` holds are compared; a caller passes `false` for rows it
    /// knows to be unequal to every other row.  A dropped row repeats an
    /// earlier row's labels, so the labels stay numbered by first
    /// occurrence.  Returns the relation and, per input row, the row it
    /// became (empty when no row was dropped).
    pub(crate) fn distinct(
        attrs: AttrSet,
        num_rows: usize,
        mut labels: Vec<Vec<u32>>,
        names: Vec<Vec<Symbol>>,
        candidate: impl Fn(usize) -> bool,
    ) -> (Self, Vec<u32>) {
        let mut relation = LabeledRelation {
            attrs,
            len: num_rows,
            labels: Vec::new(),
            names,
            index: None,
        };
        let mut seen = RowIndex::default();
        let mut duplicate_of: Vec<(u32, u32)> = Vec::new();
        for row in (0..num_rows).filter(|&row| candidate(row)) {
            let key = row_key(&labels, row);
            match seen.find(&labels, &key) {
                Some(first) => duplicate_of.push((row as u32, first)),
                None => seen.insert(&key, row as u32),
            }
        }
        if duplicate_of.is_empty() {
            relation.labels = labels;
            return (relation, Vec::new());
        }
        // Number the kept rows, send each dropped row to its first copy
        // (which is kept and earlier), then compact every column.
        let mut row_of: Vec<u32> = (0..num_rows as u32).collect();
        for &(row, first) in &duplicate_of {
            row_of[row as usize] = first;
        }
        let mut kept = 0u32;
        let mut keep = vec![true; num_rows];
        for row in 0..num_rows {
            if row_of[row] == row as u32 {
                row_of[row] = kept;
                kept += 1;
            } else {
                keep[row] = false;
                row_of[row] = row_of[row_of[row] as usize];
            }
        }
        for column in &mut labels {
            let mut flags = keep.iter();
            column.retain(|_| *flags.next().expect("one flag per row"));
        }
        relation.labels = labels;
        relation.len = kept as usize;
        (relation, row_of)
    }

    /// The attributes, in column order.
    pub fn attrs(&self) -> &AttrSet {
        &self.attrs
    }

    /// Number of (distinct) rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The column index of `attr`, if it is one of the attributes.
    pub fn position(&self, attr: Attribute) -> Option<usize> {
        self.attrs.iter().position(|a| a == attr)
    }

    /// The labels of column `col`, one per row.
    pub fn labels(&self, col: usize) -> &[u32] {
        &self.labels[col]
    }

    /// The symbol in row `row`, column `col`.
    pub fn symbol(&self, row: usize, col: usize) -> Symbol {
        self.names[col][self.labels[col][row] as usize]
    }

    /// Row `row` as symbols, in column order.
    pub fn row_values(&self, row: usize) -> Vec<Symbol> {
        (0..self.labels.len())
            .map(|col| self.symbol(row, col))
            .collect()
    }

    /// Appends a row given per column as an existing label (`Some`) or as a
    /// fresh cell (`None`), whose symbol is minted from `nulls` — in column
    /// order — under a new label.  Minted nulls are fresh, so a row with a
    /// fresh cell is new; a row of existing labels is appended only if no
    /// row carries the same labels.  Returns whether the row was appended.
    ///
    /// # Panics
    /// Panics if `cells` has the wrong length or names a label the column
    /// does not have.
    pub fn push_row(&mut self, cells: &[Option<u32>], nulls: &mut impl NullSource) -> bool {
        assert_eq!(cells.len(), self.labels.len(), "one cell per column");
        for (col, cell) in cells.iter().enumerate() {
            if let Some(label) = cell {
                assert!(
                    (*label as usize) < self.names[col].len(),
                    "label {label} is not in column {col}"
                );
            }
        }
        if cells.iter().all(Option::is_some) {
            let key: Vec<u32> = cells.iter().flatten().copied().collect();
            let (labels, len) = (&self.labels, self.len);
            let index = self.index.get_or_insert_with(|| {
                let mut index = RowIndex::default();
                for row in 0..len {
                    index.insert(&row_key(labels, row), row as u32);
                }
                index
            });
            if index.find(labels, &key).is_some() {
                return false;
            }
        }
        let row = self.len;
        for ((column, names), cell) in self.labels.iter_mut().zip(&mut self.names).zip(cells) {
            let label = cell.unwrap_or_else(|| {
                names.push(nulls.fresh());
                names.len() as u32 - 1
            });
            column.push(label);
        }
        self.len += 1;
        if let Some(index) = &mut self.index {
            index.insert(&row_key(&self.labels, row), row as u32);
        }
        true
    }

    /// The relation named `name` over these attributes, built column by
    /// column; its dedup index is left for first use.
    pub fn to_relation(&self, name: &str) -> Relation {
        let columns = self
            .labels
            .iter()
            .zip(&self.names)
            .map(|(labels, names)| labels.iter().map(|&l| names[l as usize]).collect())
            .collect();
        Relation::from_distinct_columns(RelationScheme::new(name, self.attrs.clone()), columns)
    }

    /// Splits into `(attribute, labels, names)` per column, in column order.
    pub fn into_columns(self) -> impl Iterator<Item = (Attribute, Vec<u32>, Vec<Symbol>)> {
        let attrs: Vec<Attribute> = self.attrs.iter().collect();
        attrs
            .into_iter()
            .zip(self.labels)
            .zip(self.names)
            .map(|((attr, labels), names)| (attr, labels, names))
    }
}

fn hash_labels(labels: &[u32]) -> u64 {
    let mut hasher = DefaultHasher::new();
    labels.hash(&mut hasher);
    hasher.finish()
}

/// The hasher of [`hash_label`]'s symbol map and of the chase's interning
/// map.  A symbol hashes as its interner index, a dense integer the program
/// assigns, so one multiply spreads consecutive indices over the table;
/// SipHash, the default, costs more than all the rest of labeling a column.
#[derive(Debug, Default)]
pub(crate) struct SymbolHasher(u64);

impl Hasher for SymbolHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(n)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_base::{SymbolTable, Universe};

    #[test]
    fn push_row_looks_up_only_rows_without_a_fresh_cell() {
        let mut universe = Universe::new();
        let mut symbols = SymbolTable::new();
        let attrs = universe.attrs(["A", "B"]);
        let mut relation = Relation::new(RelationScheme::new("R", attrs));
        for row in [["a", "b"], ["a2", "b"]] {
            relation
                .insert_values(&row.map(|s| symbols.symbol(s)))
                .unwrap();
        }
        let mut labeled = LabeledRelation::from_relation(&relation);
        assert_eq!(
            (labeled.labels(0), labeled.labels(1)),
            (&[0, 1][..], &[0, 0][..])
        );
        // A row of existing labels is looked up: both rows are refused.
        assert!(!labeled.push_row(&[Some(1), Some(0)], &mut symbols));
        assert!(labeled.index.is_some());
        assert!(!labeled.push_row(&[Some(0), Some(0)], &mut symbols));
        // A fresh cell mints a null in its column under the next label, and
        // the index, built by the first lookup, takes the new row too.
        let before = symbols.clone();
        assert!(labeled.push_row(&[Some(1), None], &mut symbols));
        assert!(!labeled.push_row(&[Some(1), Some(1)], &mut symbols));
        assert_eq!(labeled.len(), 3);
        assert_eq!(labeled.labels(1), &[0, 0, 1]);
        assert_eq!(labeled.symbol(2, 1), before.clone().fresh());
        assert_eq!(labeled.to_relation("R").len(), 3);
    }
}
