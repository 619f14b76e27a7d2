//! Relations: finite sets of tuples over a relation scheme, stored as
//! dictionary-encoded columns.
//!
//! A [`Relation`] keeps, per attribute, one `u32` *code* per row and a
//! *dictionary* of the column's distinct symbols: row `r` holds
//! `dictionary[c][codes[c][r]]` in column `c`.  Codes are numbered by first
//! occurrence down the column, so the codes of a column read `0, 1, 2, …`
//! at their first appearances.  A relation only grows, so this holds by
//! construction: a symbol new to a column gets the next code.  Hence a
//! column's codes are exactly the canonical label vector of the partition
//! `I(r)` gives that attribute (Definition 5), and its dictionary names the
//! blocks in order — `ps_core::canonical` reads `I(r)` off the columns
//! without hashing a symbol.  Equal row sequences have equal codes and
//! dictionaries, so equality compares those.
//!
//! Callers that need row shape get zero-copy [`RowRef`] views from
//! [`Relation::iter`] / [`Relation::row`]; the bulk operations
//! ([`Relation::project`], [`Relation::satisfies_fd`],
//! [`Relation::satisfies_mvd`]) walk the columns and are linear
//! (hash-grouped) rather than quadratic rescans, and
//! [`Relation::active_domain`] is a column's dictionary.
//!
//! **The lazy lookup index.**  Inserting a row needs each column's
//! symbol → code map and a row index keyed by the hash of a row's codes.
//! Both form one structure, built on the first [`Relation::insert_values`],
//! [`Relation::contains_values`] or [`Relation::push_row`] that needs it and
//! kept current from then on.  A relation that is only read — such as the
//! weak instance a chase hands back, written code by code from rows it
//! already knows to be distinct ([`crate::chase`]) — never builds it.  That
//! constructor is crate-private, so every public way to add a row still
//! goes through the dedup.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::OnceLock;

use ps_base::{AttrSet, Attribute, NullSource, Symbol, SymbolTable, Universe};

use crate::{Fd, Mvd, RelationError, RelationScheme, Result, Tuple};

/// A finite relation `r` over a scheme `R[U]`: a set of tuples.
///
/// Tuples are deduplicated (a relation is a *set*), and insertion order is
/// preserved for deterministic iteration and display.  Storage is
/// dictionary-encoded per column (see the module docs): each row's cells
/// are stored exactly once, as codes.
#[derive(Debug, Clone)]
pub struct Relation {
    scheme: RelationScheme,
    /// `codes[c][r]`: the code of row `r`'s cell in column `c`, in scheme
    /// column order; the first occurrences down each column read
    /// `0, 1, 2, …`.  All columns have the same length (the number of rows).
    codes: Vec<Vec<u32>>,
    /// `dictionary[c][code]`: the symbol `code` stands for in column `c`.
    /// The symbols of one column are pairwise distinct.
    dictionary: Vec<Vec<Symbol>>,
    /// The symbol → code maps and the row index, built on first use (see
    /// the module docs).
    index: OnceLock<Index>,
}

/// What inserting and looking up rows needs beyond the columns.
#[derive(Debug, Clone)]
struct Index {
    /// `code_of[c]`: the inverse of `dictionary[c]`.
    code_of: Vec<SymbolMap<u32>>,
    /// Every row, by the hash of its codes.
    rows: RowIndex,
    /// Scratch for the codes of the row being inserted.
    key: Vec<u32>,
}

/// A hash map keyed by [`Symbol`]s, hashed with [`SymbolHasher`].
pub(crate) type SymbolMap<V> = HashMap<Symbol, V, BuildHasherDefault<SymbolHasher>>;

/// Rows by the hash of their codes ([`hash_codes`]).  Almost every hash
/// belongs to one row; the later rows that share a hash with an earlier one
/// are kept aside, so the common case stores one row id and no vector.
#[derive(Debug, Clone, Default)]
struct RowIndex {
    first: HashMap<u64, u32, BuildHasherDefault<SymbolHasher>>,
    rest: HashMap<u64, Vec<u32>>,
}

impl RowIndex {
    /// The first indexed row under `hash` for which `matches` holds.
    fn find(&self, hash: u64, matches: impl Fn(usize) -> bool) -> Option<usize> {
        let first = *self.first.get(&hash)? as usize;
        if matches(first) {
            return Some(first);
        }
        let rest = self.rest.get(&hash)?;
        rest.iter()
            .map(|&row| row as usize)
            .find(|&row| matches(row))
    }

    /// Indexes `row` under `hash`.
    fn insert(&mut self, hash: u64, row: usize) {
        match self.first.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(row as u32);
            }
            Entry::Occupied(_) => self.rest.entry(hash).or_default().push(row as u32),
        }
    }
}

/// The row-index hash of a row given by its codes in column order.
fn hash_codes(key: &[u32]) -> u64 {
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    hasher.finish()
}

/// Gathers the codes of row `row` of the code columns `codes` into `key`.
fn gather_codes(codes: &[Vec<u32>], row: usize, key: &mut Vec<u32>) {
    key.clear();
    key.extend(codes.iter().map(|column| column[row]));
}

/// Whether rows `a` and `b` of the code columns `codes` are equal.
fn same_codes(codes: &[Vec<u32>], a: usize, b: usize) -> bool {
    codes.iter().all(|column| column[a] == column[b])
}

/// The hasher of the symbol → code maps, of the chase's interning map and
/// of the row index's (already hashed) keys.  A symbol hashes as its
/// interner index, a dense integer the program assigns, so one multiply
/// spreads consecutive indices over the table; SipHash, the default, costs
/// more than the rest of coding a cell.
#[derive(Debug, Default)]
pub(crate) struct SymbolHasher(u64);

impl Hasher for SymbolHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        // The index is derived from the columns.  Codes are numbered by
        // first occurrence, so equal row sequences have equal codes and
        // dictionaries, and conversely.
        self.scheme == other.scheme
            && self.codes == other.codes
            && self.dictionary == other.dictionary
    }
}

impl Eq for Relation {}

impl Relation {
    /// Creates an empty relation over `scheme`.
    pub fn new(scheme: RelationScheme) -> Self {
        let arity = scheme.arity();
        Relation {
            scheme,
            codes: vec![Vec::new(); arity],
            dictionary: vec![Vec::new(); arity],
            index: OnceLock::new(),
        }
    }

    /// Assembles `num_rows` rows given as first-occurrence codes per column
    /// (`codes[c]`) and the symbols they stand for (`dictionary[c]`), and
    /// drops every row equal to an earlier one.  Only rows for which
    /// `candidate` holds are compared; a caller passes `false` for rows it
    /// knows to be unequal to every other row.  A dropped row repeats an
    /// earlier row's codes, so the codes stay numbered by first occurrence.
    /// Returns the relation, whose lookup index is left for first use, and,
    /// per input row, the row it became (empty when no row was dropped).
    pub(crate) fn from_codes(
        scheme: RelationScheme,
        num_rows: usize,
        mut codes: Vec<Vec<u32>>,
        dictionary: Vec<Vec<Symbol>>,
        candidate: impl Fn(usize) -> bool,
    ) -> (Self, Vec<u32>) {
        debug_assert_eq!(codes.len(), scheme.arity());
        debug_assert!(codes.iter().all(|column| column.len() == num_rows));
        let mut seen = RowIndex::default();
        let mut duplicate_of: Vec<(u32, u32)> = Vec::new();
        let mut key = Vec::with_capacity(codes.len());
        for row in (0..num_rows).filter(|&row| candidate(row)) {
            gather_codes(&codes, row, &mut key);
            let hash = hash_codes(&key);
            match seen.find(hash, |other| same_codes(&codes, other, row)) {
                Some(first) => duplicate_of.push((row as u32, first as u32)),
                None => seen.insert(hash, row),
            }
        }
        let mut row_of = Vec::new();
        if !duplicate_of.is_empty() {
            // Number the kept rows, send each dropped row to its first copy
            // (which is kept and earlier), then compact every column.
            row_of = (0..num_rows as u32).collect();
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
            for column in &mut codes {
                let mut flags = keep.iter();
                column.retain(|_| *flags.next().expect("one flag per row"));
            }
        }
        let relation = Relation {
            scheme,
            codes,
            dictionary,
            index: OnceLock::new(),
        };
        debug_assert!(relation.codes_are_canonical());
        (relation, row_of)
    }

    /// Whether every column's codes are numbered by first occurrence and
    /// cover its dictionary exactly (the storage invariant).
    fn codes_are_canonical(&self) -> bool {
        self.codes
            .iter()
            .zip(&self.dictionary)
            .all(|(column, names)| {
                let mut next = 0u32;
                column.iter().all(|&code| {
                    next += u32::from(code == next);
                    code < next
                }) && next as usize == names.len()
            })
    }

    /// The same rows under a scheme named `name`.
    pub(crate) fn into_renamed(mut self, name: &str) -> Relation {
        if self.scheme.name() != name {
            self.scheme = RelationScheme::new(name, self.scheme.attrs().clone());
        }
        self
    }

    /// Builds the lookup index from the columns.
    fn build_index(&self) -> Index {
        let code_of = self
            .dictionary
            .iter()
            .map(|names| {
                let mut map = SymbolMap::with_capacity_and_hasher(names.len(), Default::default());
                map.extend(names.iter().enumerate().map(|(code, &s)| (s, code as u32)));
                map
            })
            .collect();
        let mut rows = RowIndex::default();
        let mut key = Vec::with_capacity(self.codes.len());
        for row in 0..self.len() {
            gather_codes(&self.codes, row, &mut key);
            rows.insert(hash_codes(&key), row);
        }
        Index { code_of, rows, key }
    }

    /// The lookup index, built on first use.
    fn index(&self) -> &Index {
        self.index.get_or_init(|| self.build_index())
    }

    /// The relation's scheme.
    pub fn scheme(&self) -> &RelationScheme {
        &self.scheme
    }

    /// Number of (distinct) tuples.
    pub fn len(&self) -> usize {
        self.codes[0].len()
    }

    /// Whether the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.codes[0].is_empty()
    }

    /// Total number of code cells stored (`arity × len`).
    ///
    /// Every row is stored once, as one code per column; the dictionaries
    /// add at most one symbol per cell (one per distinct value of a
    /// column), and the row index holds row *ids*, not copies.  The
    /// regression test `single_storage_of_rows` pins this so a second full
    /// copy of the tuples (as the old `Vec<Tuple>` + `HashSet<Tuple>`
    /// layout had) cannot sneak back in.
    pub fn storage_cells(&self) -> usize {
        self.codes.iter().map(Vec::len).sum()
    }

    /// The codes of the `pos`-th column of the scheme, one per row,
    /// numbered by first occurrence down the column.
    pub fn codes(&self, pos: usize) -> &[u32] {
        &self.codes[pos]
    }

    /// The dictionary of the `pos`-th column of the scheme: the symbol
    /// each code stands for, in code order (first occurrence down the
    /// column).
    pub fn dictionary(&self, pos: usize) -> &[Symbol] {
        &self.dictionary[pos]
    }

    /// The symbol in row `idx`, column `pos`.
    pub fn symbol(&self, idx: usize, pos: usize) -> Symbol {
        self.dictionary[pos][self.codes[pos][idx] as usize]
    }

    /// The column index of `attr`.
    fn position_of(&self, attr: Attribute) -> Result<usize> {
        self.scheme
            .position(attr)
            .ok_or(RelationError::AttributeNotInScheme {
                scheme: self.scheme.name().to_owned(),
                attribute: attr,
            })
    }

    /// Inserts a tuple; returns `true` if it was not already present.
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool> {
        self.insert_values(tuple.values())
    }

    /// Inserts a tuple given as a value slice in scheme column order;
    /// returns `true` if it was not already present.
    pub fn insert_values(&mut self, values: &[Symbol]) -> Result<bool> {
        if values.len() != self.scheme.arity() {
            return Err(RelationError::ArityMismatch {
                scheme: self.scheme.name().to_owned(),
                expected: self.scheme.arity(),
                found: values.len(),
            });
        }
        self.index();
        let Relation {
            codes,
            dictionary,
            index,
            ..
        } = self;
        let index = index.get_mut().expect("the index was built just above");
        // Code the row into the columns' tails; a symbol new to its column
        // gets the next code there, and then the row is new.
        let row = codes[0].len();
        let mut fresh = false;
        index.key.clear();
        for (((column, names), code_of), &value) in codes
            .iter_mut()
            .zip(dictionary.iter_mut())
            .zip(&mut index.code_of)
            .zip(values)
        {
            let code = *code_of.entry(value).or_insert_with(|| {
                fresh = true;
                names.push(value);
                names.len() as u32 - 1
            });
            index.key.push(code);
            column.push(code);
        }
        let hash = hash_codes(&index.key);
        if !fresh
            && index
                .rows
                .find(hash, |other| same_codes(codes, other, row))
                .is_some()
        {
            for column in codes.iter_mut() {
                column.pop();
            }
            return Ok(false);
        }
        index.rows.insert(hash, row);
        Ok(true)
    }

    /// Appends a row given per column as an existing code (`Some`) or as a
    /// fresh cell (`None`), whose symbol is minted from `nulls` — in column
    /// order — under the column's next code.  Minted nulls are fresh, so a
    /// row with a fresh cell is new; a row of existing codes is appended
    /// only if no row carries the same codes, which the lookup index
    /// (built by the first such row) decides.  Returns whether the row was
    /// appended.
    ///
    /// # Panics
    /// Panics if `cells` has the wrong length or names a code the column
    /// does not have.
    pub fn push_row(&mut self, cells: &[Option<u32>], nulls: &mut impl NullSource) -> bool {
        assert_eq!(cells.len(), self.codes.len(), "one cell per column");
        for (col, cell) in cells.iter().enumerate() {
            if let Some(code) = cell {
                assert!(
                    (*code as usize) < self.dictionary[col].len(),
                    "code {code} is not in column {col}"
                );
            }
        }
        let row = self.len();
        if cells.iter().all(Option::is_some) {
            let key: Vec<u32> = cells.iter().flatten().copied().collect();
            let matches = |other: usize| {
                self.codes
                    .iter()
                    .zip(&key)
                    .all(|(column, &code)| column[other] == code)
            };
            if self.index().rows.find(hash_codes(&key), matches).is_some() {
                return false;
            }
        }
        for ((column, names), cell) in self.codes.iter_mut().zip(&mut self.dictionary).zip(cells) {
            let code = cell.unwrap_or_else(|| {
                names.push(nulls.fresh());
                names.len() as u32 - 1
            });
            column.push(code);
        }
        if let Some(index) = self.index.get_mut() {
            for ((code_of, names), cell) in
                index.code_of.iter_mut().zip(&self.dictionary).zip(cells)
            {
                if cell.is_none() {
                    let minted = code_of.insert(names[names.len() - 1], names.len() as u32 - 1);
                    debug_assert!(minted.is_none(), "a minted null is new to its column");
                }
            }
            gather_codes(&self.codes, row, &mut index.key);
            index.rows.insert(hash_codes(&index.key), row);
        }
        true
    }

    /// The row holding `values` (in scheme column order), if any.
    pub(crate) fn find_values(&self, values: &[Symbol]) -> Option<usize> {
        if values.len() != self.scheme.arity() {
            return None;
        }
        let index = self.index();
        let key = index
            .code_of
            .iter()
            .zip(values)
            .map(|(code_of, value)| code_of.get(value).copied())
            .collect::<Option<Vec<u32>>>()?;
        index.rows.find(hash_codes(&key), |row| {
            self.codes
                .iter()
                .zip(&key)
                .all(|(column, &code)| column[row] == code)
        })
    }

    /// Whether the relation contains the tuple.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.contains_values(tuple.values())
    }

    /// Whether the relation contains the row given as a value slice in
    /// scheme column order (slices of the wrong arity are never contained).
    pub fn contains_values(&self, values: &[Symbol]) -> bool {
        self.find_values(values).is_some()
    }

    /// Whether the relation contains the row viewed by `row` (which may
    /// belong to a different relation over an equal-arity scheme).
    pub fn contains_row(&self, row: RowRef<'_>) -> bool {
        self.contains_values(&row.to_values())
    }

    /// Iterates over the rows in insertion order, as zero-copy views.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = RowRef<'_>> {
        (0..self.len()).map(move |idx| RowRef {
            relation: self,
            idx,
        })
    }

    /// A zero-copy view of the `idx`-th row.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn row(&self, idx: usize) -> RowRef<'_> {
        assert!(idx < self.len(), "row index {idx} out of range");
        RowRef {
            relation: self,
            idx,
        }
    }

    /// The `idx`-th row materialized as a value vector in scheme column
    /// order.
    pub fn row_values(&self, idx: usize) -> Vec<Symbol> {
        (0..self.codes.len())
            .map(|pos| self.symbol(idx, pos))
            .collect()
    }

    /// The value `t[A]` of the `idx`-th tuple.
    pub fn value(&self, idx: usize, attr: Attribute) -> Result<Symbol> {
        Ok(self.symbol(idx, self.position_of(attr)?))
    }

    /// The projection `r[X]` onto `attrs ∩ U` (Section 2.1), as a new
    /// relation named `name`.
    pub fn project(&self, name: impl Into<String>, attrs: &AttrSet) -> Result<Relation> {
        let kept = attrs.intersection(self.scheme.attrs());
        if kept.is_empty() {
            return Err(RelationError::EmptyAttributeSet("projection"));
        }
        let positions: Vec<usize> = kept
            .iter()
            .map(|a| self.scheme.position(a).expect("kept ⊆ scheme"))
            .collect();
        let scheme = RelationScheme::new(name, kept);
        let mut out = Relation::new(scheme);
        let mut buffer = vec![Symbol::from_index(0); positions.len()];
        for idx in 0..self.len() {
            for (slot, &pos) in buffer.iter_mut().zip(&positions) {
                *slot = self.symbol(idx, pos);
            }
            out.insert_values(&buffer)?;
        }
        Ok(out)
    }

    /// The set of symbols appearing under attribute `attr` — the active
    /// domain of that column, written `d[A]` in the paper — in order of
    /// first occurrence: the column's dictionary.
    pub fn active_domain(&self, attr: Attribute) -> Result<Vec<Symbol>> {
        Ok(self.dictionary[self.position_of(attr)?].clone())
    }

    /// The column indices of `attrs ∩ U`, in sorted attribute order.
    fn positions_of(&self, attrs: &AttrSet) -> Vec<usize> {
        attrs
            .iter()
            .filter_map(|a| self.scheme.position(a))
            .collect()
    }

    /// Gathers the `positions` entries of row `idx` into `buffer`.
    fn gather(&self, idx: usize, positions: &[usize], buffer: &mut Vec<Symbol>) {
        buffer.clear();
        buffer.extend(positions.iter().map(|&p| self.symbol(idx, p)));
    }

    /// Whether the relation satisfies the functional dependency `X → Y`
    /// (Section 2.1): any two tuples agreeing on `X` agree on `Y`.
    ///
    /// One hash-grouped pass over the columns: rows are bucketed by their
    /// `X`-values and each bucket must carry a single `Y`-value.  Attributes
    /// outside the scheme do not participate (the FD constrains the
    /// projection that exists), exactly as in the quadratic reference.
    pub fn satisfies_fd(&self, fd: &Fd) -> bool {
        let lhs = self.positions_of(&fd.lhs);
        let rhs = self.positions_of(&fd.rhs);
        let mut witness: HashMap<Vec<Symbol>, Vec<Symbol>> = HashMap::new();
        let mut key = Vec::with_capacity(lhs.len());
        let mut val = Vec::with_capacity(rhs.len());
        for idx in 0..self.len() {
            self.gather(idx, &lhs, &mut key);
            self.gather(idx, &rhs, &mut val);
            match witness.get(&key) {
                None => {
                    witness.insert(key.clone(), val.clone());
                }
                Some(existing) => {
                    if existing != &val {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Whether the relation satisfies every FD in `fds`.
    pub fn satisfies_all_fds(&self, fds: &[Fd]) -> bool {
        fds.iter().all(|fd| self.satisfies_fd(fd))
    }

    /// Whether the relation satisfies the multivalued dependency
    /// `X ↠ Y` (Section 4.2): whenever two tuples agree on `X`, the tuple
    /// combining the first's `Y`-values with the second's remaining values is
    /// also present.
    ///
    /// Hash-grouped: rows are bucketed by `X`-value; a bucket satisfies the
    /// MVD iff its set of `(Y, Z)` pairs is the full product of its `Y`-set
    /// and its `Z`-set (`Z = U − XY`), which the cardinality check
    /// `|pairs| = |Y-set| · |Z-set|` decides without materializing the
    /// product.
    pub fn satisfies_mvd(&self, mvd: &Mvd) -> bool {
        let x_cols = self.positions_of(&mvd.lhs);
        let y_cols = self.positions_of(&mvd.rhs);
        let z_attrs = self.scheme.attrs().difference(&mvd.lhs.union(&mvd.rhs));
        let z_cols = self.positions_of(&z_attrs);

        struct Group {
            pairs: HashSet<(Vec<Symbol>, Vec<Symbol>)>,
            ys: HashSet<Vec<Symbol>>,
            zs: HashSet<Vec<Symbol>>,
        }
        let mut groups: HashMap<Vec<Symbol>, Group> = HashMap::new();
        let mut x_key = Vec::with_capacity(x_cols.len());
        for idx in 0..self.len() {
            self.gather(idx, &x_cols, &mut x_key);
            let mut y_key = Vec::with_capacity(y_cols.len());
            let mut z_key = Vec::with_capacity(z_cols.len());
            y_key.extend(y_cols.iter().map(|&p| self.symbol(idx, p)));
            z_key.extend(z_cols.iter().map(|&p| self.symbol(idx, p)));
            let group = groups.entry(x_key.clone()).or_insert_with(|| Group {
                pairs: HashSet::new(),
                ys: HashSet::new(),
                zs: HashSet::new(),
            });
            group.ys.insert(y_key.clone());
            group.zs.insert(z_key.clone());
            group.pairs.insert((y_key, z_key));
        }
        groups
            .values()
            .all(|g| g.pairs.len() == g.ys.len() * g.zs.len())
    }

    /// Renders the relation as a small table using attribute and symbol
    /// names.
    pub fn render(&self, universe: &Universe, symbols: &SymbolTable) -> String {
        let mut out = String::new();
        out.push_str(&self.scheme.render(universe));
        out.push('\n');
        let header: Vec<String> = self
            .scheme
            .attrs()
            .iter()
            .map(|a| universe.name(a).unwrap_or("?").to_owned())
            .collect();
        out.push_str(&header.join("\t"));
        out.push('\n');
        for idx in 0..self.len() {
            let row: Vec<String> = (0..self.codes.len())
                .map(|pos| symbols.render(self.symbol(idx, pos)))
                .collect();
            out.push_str(&row.join("\t"));
            out.push('\n');
        }
        out
    }
}

/// A zero-copy view of one row of a [`Relation`].
///
/// The view borrows the relation's columns; no symbols are copied
/// until a caller asks for row shape via [`RowRef::to_values`] or
/// [`RowRef::to_tuple`].  The view knows its relation's scheme, so
/// attribute-addressed access needs no scheme argument.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    relation: &'a Relation,
    idx: usize,
}

impl<'a> RowRef<'a> {
    /// The relation this row belongs to.
    pub fn relation(&self) -> &'a Relation {
        self.relation
    }

    /// The row's index within its relation (insertion order).
    pub fn index(&self) -> usize {
        self.idx
    }

    /// Number of values in the row.
    pub fn arity(&self) -> usize {
        self.relation.scheme.arity()
    }

    /// The value in the `pos`-th column.
    pub fn value_at(&self, pos: usize) -> Symbol {
        self.relation.symbol(self.idx, pos)
    }

    /// The value `t[A]` under attribute `attr`.
    pub fn get(&self, attr: Attribute) -> Result<Symbol> {
        self.relation.value(self.idx, attr)
    }

    /// The restriction `t[X]` of the row to the attributes `X ∩ scheme`, in
    /// sorted attribute order.
    pub fn project(&self, attrs: &AttrSet) -> Vec<Symbol> {
        attrs
            .iter()
            .filter_map(|a| self.relation.scheme.position(a))
            .map(|p| self.relation.symbol(self.idx, p))
            .collect()
    }

    /// Iterates over the row's values in scheme column order.
    pub fn values(&self) -> impl Iterator<Item = Symbol> + 'a {
        let (relation, idx) = (self.relation, self.idx);
        (0..relation.codes.len()).map(move |pos| relation.symbol(idx, pos))
    }

    /// The row materialized as a value vector in scheme column order.
    pub fn to_values(&self) -> Vec<Symbol> {
        self.relation.row_values(self.idx)
    }

    /// The row materialized as an owned [`Tuple`].
    pub fn to_tuple(&self) -> Tuple {
        Tuple::from_values(self.to_values())
    }

    /// Renders the row using a symbol table, e.g. `(a, b1, c)`.
    pub fn render(&self, symbols: &SymbolTable) -> String {
        let parts: Vec<String> = self.values().map(|s| symbols.render(s)).collect();
        format!("({})", parts.join(", "))
    }
}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RowRef")
            .field("idx", &self.idx)
            .field("values", &self.to_values())
            .finish()
    }
}

impl fmt::Display for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixture {
        universe: Universe,
        symbols: SymbolTable,
        attrs: Vec<Attribute>,
    }

    fn setup() -> Fixture {
        let mut universe = Universe::new();
        let attrs = universe.attrs(["A", "B", "C"]);
        Fixture {
            universe,
            symbols: SymbolTable::new(),
            attrs,
        }
    }

    fn relation_abc(f: &mut Fixture, rows: &[[&str; 3]]) -> Relation {
        let scheme = RelationScheme::new("R", f.attrs.clone());
        let mut r = Relation::new(scheme);
        for row in rows {
            let vals: Vec<Symbol> = row.iter().map(|s| f.symbols.symbol(s)).collect();
            r.insert_values(&vals).unwrap();
        }
        r
    }

    #[test]
    fn insert_deduplicates() {
        let mut f = setup();
        let mut r = relation_abc(&mut f, &[["a", "b", "c"]]);
        let vals: Vec<Symbol> = ["a", "b", "c"]
            .iter()
            .map(|s| f.symbols.symbol(s))
            .collect();
        assert!(!r.insert_values(&vals).unwrap());
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
        assert!(r.contains(&Tuple::new(r.scheme(), vals).unwrap()));
    }

    #[test]
    fn insert_rejects_wrong_arity() {
        let mut f = setup();
        let mut r = relation_abc(&mut f, &[]);
        let vals: Vec<Symbol> = ["a", "b"].iter().map(|s| f.symbols.symbol(s)).collect();
        assert!(matches!(
            r.insert_values(&vals),
            Err(RelationError::ArityMismatch { .. })
        ));
        // Wrong-arity rows are never contained (rather than erroring).
        assert!(!r.contains_values(&vals));
    }

    /// The regression guard for the old double-storage layout
    /// (`tuples: Vec<Tuple>` plus `seen: HashSet<Tuple>`, each owning a full
    /// copy of every row): the relation stores exactly `arity × len` code
    /// cells, not twice that, and no dictionary is longer than its column.
    #[test]
    fn single_storage_of_rows() {
        let mut f = setup();
        let r = relation_abc(
            &mut f,
            &[["a", "b", "c"], ["a", "b2", "c"], ["a2", "b", "c1"]],
        );
        assert_eq!(r.storage_cells(), r.scheme().arity() * r.len());
        for pos in 0..r.scheme().arity() {
            assert!(r.dictionary(pos).len() <= r.codes(pos).len());
        }
        assert_eq!(r.dictionary(0).len(), 2);
        // Duplicate inserts change neither the row count nor the cell count.
        let mut r2 = r.clone();
        let vals: Vec<Symbol> = ["a", "b", "c"]
            .iter()
            .map(|s| f.symbols.symbol(s))
            .collect();
        assert!(!r2.insert_values(&vals).unwrap());
        assert_eq!(r2.storage_cells(), r.storage_cells());
        assert_eq!(r2.len(), r.len());
        assert_eq!(r2, r);
    }

    #[test]
    fn chased_relations_build_the_index_on_first_use() {
        let mut f = setup();
        let built = relation_abc(&mut f, &[["a", "b", "c"], ["a2", "b", "c"]]);
        let attrs = built.scheme().attrs().clone();
        let rows = (0..built.len()).map(|idx| built.row_values(idx)).collect();
        let outcome = crate::chase_tableau_with(
            &crate::Tableau::from_rows(attrs.clone(), rows),
            &[],
            &mut crate::ChaseScratch::default(),
        );
        let mut r = outcome.weak_instance("R", &attrs).unwrap();
        assert!(r.index.get().is_none());
        let before = r.clone();
        assert_eq!(before, built);
        let row = built.row_values(1);
        assert!(r.contains_values(&row));
        assert!(r.index.get().is_some());
        assert!(!r.insert_values(&row).unwrap());
        let after = r.clone();
        assert_eq!(before, after);
        assert_eq!(after.len(), 2);
        let fresh = ["a3", "b", "c"].map(|s| f.symbols.symbol(s));
        assert!(r.insert_values(&fresh).unwrap());
        assert!(r.contains_values(&fresh));
        assert_eq!(r.len(), 3);
        assert_eq!(r.codes(0), &[0, 1, 2]);
        assert_eq!(r.codes(1), &[0, 0, 0]);
        assert_ne!(r, after);
    }

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
        // Start from a relation that has never built its index.
        let mut relation = Relation {
            index: OnceLock::new(),
            ..relation
        };
        assert_eq!(
            (relation.codes(0), relation.codes(1)),
            (&[0, 1][..], &[0, 0][..])
        );
        // A row of existing codes is looked up: both rows are refused.
        assert!(!relation.push_row(&[Some(1), Some(0)], &mut symbols));
        assert!(relation.index.get().is_some());
        assert!(!relation.push_row(&[Some(0), Some(0)], &mut symbols));
        // A fresh cell mints a null in its column under the next code, and
        // the index, built by the first lookup, takes the new row too.
        let before = symbols.clone();
        assert!(relation.push_row(&[Some(1), None], &mut symbols));
        assert!(!relation.push_row(&[Some(1), Some(1)], &mut symbols));
        assert_eq!(relation.len(), 3);
        assert_eq!(relation.codes(1), &[0, 0, 1]);
        assert_eq!(relation.symbol(2, 1), before.clone().fresh());
        // The minted null is in the symbol → code map as well.
        let row = relation.row_values(2);
        assert!(relation.contains_values(&row));
        assert!(!relation.insert_values(&row).unwrap());
    }

    #[test]
    fn row_views_expose_values_and_projections() {
        let mut f = setup();
        let r = relation_abc(&mut f, &[["a", "b", "c"], ["a2", "b2", "c2"]]);
        let row = r.row(1);
        assert_eq!(row.index(), 1);
        assert_eq!(row.arity(), 3);
        assert_eq!(row.value_at(0), f.symbols.lookup("a2").unwrap());
        assert_eq!(
            row.get(f.attrs[1]).unwrap(),
            f.symbols.lookup("b2").unwrap()
        );
        assert!(row.get(Attribute::from_index(99)).is_err());
        let ac: AttrSet = vec![f.attrs[0], f.attrs[2]].into();
        assert_eq!(
            row.project(&ac),
            vec![
                f.symbols.lookup("a2").unwrap(),
                f.symbols.lookup("c2").unwrap()
            ]
        );
        assert_eq!(row.to_values(), r.row_values(1));
        assert_eq!(row.to_tuple().values(), r.row_values(1).as_slice());
        assert_eq!(row.values().count(), 3);
        assert!(r.contains_row(row));
        assert_eq!(row.render(&f.symbols), "(a2, b2, c2)");
        assert_eq!(format!("{row}"), format!("{}", row.to_tuple()));
        assert!(format!("{row:?}").contains("idx"));
        assert_eq!(row.relation().len(), 2);
    }

    #[test]
    fn columns_are_directly_addressable() {
        let mut f = setup();
        let r = relation_abc(&mut f, &[["a", "b", "c"], ["a2", "b", "c"]]);
        assert_eq!(r.codes(0), &[0, 1]);
        assert_eq!(r.codes(1), &[0, 0]);
        let b = f.symbols.lookup("b").unwrap();
        assert_eq!(r.dictionary(1), &[b]);
        assert_eq!(r.symbol(1, 1), b);
        let mut u2 = f.universe.clone();
        let d = u2.attr("D");
        assert!(r.value(0, d).is_err());
    }

    #[test]
    fn projection_and_active_domain() {
        let mut f = setup();
        let r = relation_abc(
            &mut f,
            &[["a", "b", "c"], ["a", "b2", "c"], ["a2", "b", "c1"]],
        );
        let ab: AttrSet = vec![f.attrs[0], f.attrs[1]].into();
        let proj = r.project("P", &ab).unwrap();
        assert_eq!(proj.len(), 3);
        assert_eq!(proj.scheme().arity(), 2);
        let a_dom = r.active_domain(f.attrs[0]).unwrap();
        assert_eq!(a_dom.len(), 2);
        let c_dom = r.active_domain(f.attrs[2]).unwrap();
        assert_eq!(c_dom.len(), 2);
        // Projection onto an attribute outside the scheme is empty → error.
        let mut u2 = f.universe.clone();
        let d = u2.attr("D");
        assert!(r.project("P", &AttrSet::singleton(d)).is_err());
        assert!(r.active_domain(d).is_err());
    }

    #[test]
    fn projection_deduplicates_tuples() {
        let mut f = setup();
        let r = relation_abc(&mut f, &[["a", "b", "c"], ["a", "b", "c2"]]);
        let ab: AttrSet = vec![f.attrs[0], f.attrs[1]].into();
        assert_eq!(r.project("P", &ab).unwrap().len(), 1);
    }

    #[test]
    fn fd_satisfaction() {
        let mut f = setup();
        let r = relation_abc(
            &mut f,
            &[["a", "b", "c"], ["a", "b", "c2"], ["a2", "b2", "c"]],
        );
        let a_to_b = Fd::new(
            AttrSet::singleton(f.attrs[0]),
            AttrSet::singleton(f.attrs[1]),
        );
        let a_to_c = Fd::new(
            AttrSet::singleton(f.attrs[0]),
            AttrSet::singleton(f.attrs[2]),
        );
        assert!(r.satisfies_fd(&a_to_b));
        assert!(!r.satisfies_fd(&a_to_c));
        assert!(!r.satisfies_all_fds(&[a_to_b, a_to_c]));
    }

    #[test]
    fn mvd_satisfaction_figure2() {
        // Figure 2: r1 satisfies A ↠ B, r2 does not.
        let mut f = setup();
        let r1 = relation_abc(
            &mut f,
            &[
                ["a", "b1", "c1"],
                ["a", "b1", "c2"],
                ["a", "b2", "c1"],
                ["a", "b2", "c2"],
            ],
        );
        let r2 = relation_abc(
            &mut f,
            &[["a", "b1", "c1"], ["a", "b2", "c2"], ["a", "b1", "c2"]],
        );
        let mvd = Mvd::new(
            AttrSet::singleton(f.attrs[0]),
            AttrSet::singleton(f.attrs[1]),
        );
        assert!(r1.satisfies_mvd(&mvd));
        assert!(!r2.satisfies_mvd(&mvd));
    }

    #[test]
    fn render_contains_header_and_rows() {
        let mut f = setup();
        let r = relation_abc(&mut f, &[["a", "b", "c"]]);
        let rendered = r.render(&f.universe, &f.symbols);
        assert!(rendered.contains("R[ABC]"));
        assert!(rendered.contains("A\tB\tC"));
        assert!(rendered.contains("a\tb\tc"));
    }

    #[test]
    fn value_accessor() {
        let mut f = setup();
        let r = relation_abc(&mut f, &[["a", "b", "c"]]);
        let b = f.symbols.lookup("b").unwrap();
        assert_eq!(r.value(0, f.attrs[1]).unwrap(), b);
    }
}
