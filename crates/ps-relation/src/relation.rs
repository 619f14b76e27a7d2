//! Relations: finite sets of tuples over a relation scheme, stored columnar.
//!
//! A [`Relation`] keeps one `Vec<Symbol>` per attribute (column-major
//! storage) plus a single row-hash dedup index.  Row `i` is the slice
//! `columns[0][i], …, columns[arity-1][i]`; no tuple is ever stored twice
//! (the index holds row ids, not copies).  Callers that need row shape get
//! zero-copy [`RowRef`] views from [`Relation::iter`] / [`Relation::row`];
//! the bulk operations ([`Relation::project`], [`Relation::active_domain`],
//! [`Relation::satisfies_fd`], [`Relation::satisfies_mvd`]) walk columns
//! directly and are linear (hash-grouped) rather than quadratic rescans.
//!
//! **The lazy index.**  The dedup index is built on the first
//! [`Relation::insert_values`] or [`Relation::contains_values`] and kept
//! current from then on.  A relation that is only read — the weak instance
//! a consistency check hands back, built column-wise from rows the chase
//! already knows to be distinct ([`crate::LabeledRelation::to_relation`])
//! — never hashes a row.  That column-wise constructor is crate-private,
//! so every public way to make a relation still goes through the dedup.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

use ps_base::{AttrSet, Attribute, Symbol, SymbolTable, Universe};

use crate::{Fd, Mvd, RelationError, RelationScheme, Result, Tuple};

/// A finite relation `r` over a scheme `R[U]`: a set of tuples.
///
/// Tuples are deduplicated (a relation is a *set*), and insertion order is
/// preserved for deterministic iteration and display.  Storage is columnar:
/// one symbol vector per attribute plus a row-hash index, built lazily —
/// each row's symbols are stored exactly once.
#[derive(Debug, Clone)]
pub struct Relation {
    scheme: RelationScheme,
    /// One value vector per attribute, in scheme column order; all columns
    /// have the same length (the number of rows).
    columns: Vec<Vec<Symbol>>,
    /// Dedup index: hash of a row's symbols → ids of rows with that hash
    /// (almost always one; collisions are resolved by comparing cells).
    /// Built on first use (see the module docs).
    index: OnceLock<RowIndex>,
}

type RowIndex = HashMap<u64, Vec<u32>>;

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        // The index is derived from the columns; equality is scheme + rows
        // in insertion order (the same notion the row-oriented kernel had).
        self.scheme == other.scheme && self.columns == other.columns
    }
}

impl Eq for Relation {}

fn hash_row(values: &[Symbol]) -> u64 {
    let mut hasher = DefaultHasher::new();
    for v in values {
        v.hash(&mut hasher);
    }
    hasher.finish()
}

impl Relation {
    /// Creates an empty relation over `scheme`.
    pub fn new(scheme: RelationScheme) -> Self {
        let arity = scheme.arity();
        Relation {
            scheme,
            columns: vec![Vec::new(); arity],
            index: OnceLock::new(),
        }
    }

    /// A relation over `scheme` whose rows are given column-wise and are
    /// already pairwise distinct; the dedup index is left unbuilt.  Only
    /// producers that know their rows are distinct may call this.
    pub(crate) fn from_distinct_columns(scheme: RelationScheme, columns: Vec<Vec<Symbol>>) -> Self {
        debug_assert_eq!(columns.len(), scheme.arity());
        debug_assert!(columns.windows(2).all(|w| w[0].len() == w[1].len()));
        let relation = Relation {
            scheme,
            columns,
            index: OnceLock::new(),
        };
        debug_assert_eq!(
            (0..relation.len())
                .map(|idx| relation.row_values(idx))
                .collect::<HashSet<_>>()
                .len(),
            relation.len(),
            "rows given as distinct must be distinct"
        );
        relation
    }

    /// Hashes every row into a fresh dedup index.
    fn build_index(&self) -> RowIndex {
        let mut index = RowIndex::new();
        let mut values = Vec::with_capacity(self.columns.len());
        for idx in 0..self.len() {
            values.clear();
            values.extend(self.columns.iter().map(|col| col[idx]));
            index.entry(hash_row(&values)).or_default().push(idx as u32);
        }
        index
    }

    /// The dedup index, built on first use.
    fn index(&self) -> &RowIndex {
        self.index.get_or_init(|| self.build_index())
    }

    /// The relation's scheme.
    pub fn scheme(&self) -> &RelationScheme {
        &self.scheme
    }

    /// Number of (distinct) tuples.
    pub fn len(&self) -> usize {
        self.columns[0].len()
    }

    /// Whether the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.columns[0].is_empty()
    }

    /// Total number of symbol cells stored (`arity × len`).
    ///
    /// This is exactly the information content of the relation: the columnar
    /// kernel stores every row once, with the dedup index holding row *ids*
    /// rather than copies.  The regression test `single_storage_of_rows`
    /// pins this so a second full copy of the tuples (as the old
    /// `Vec<Tuple>` + `HashSet<Tuple>` layout had) cannot sneak back in.
    pub fn storage_cells(&self) -> usize {
        self.columns.iter().map(Vec::len).sum()
    }

    /// The column of values under the `pos`-th attribute of the scheme.
    pub fn column(&self, pos: usize) -> &[Symbol] {
        &self.columns[pos]
    }

    /// The column of values under `attr`.
    pub fn column_of(&self, attr: Attribute) -> Result<&[Symbol]> {
        let pos = self
            .scheme
            .position(attr)
            .ok_or(RelationError::AttributeNotInScheme {
                scheme: self.scheme.name().to_owned(),
                attribute: attr,
            })?;
        Ok(&self.columns[pos])
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
        let hash = hash_row(values);
        self.index();
        let index = self
            .index
            .get_mut()
            .expect("the index was built just above");
        let bucket = index.entry(hash).or_default();
        if bucket.is_empty() {
            // Fast path: fresh hash, certainly a new row.
        } else if bucket
            .iter()
            .any(|&idx| columns_match(&self.columns, idx, values))
        {
            return Ok(false);
        }
        let idx = self.columns[0].len() as u32;
        bucket.push(idx);
        for (col, &v) in self.columns.iter_mut().zip(values) {
            col.push(v);
        }
        Ok(true)
    }

    /// Whether the relation contains the tuple.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.contains_values(tuple.values())
    }

    /// Whether the relation contains the row given as a value slice in
    /// scheme column order (slices of the wrong arity are never contained).
    pub fn contains_values(&self, values: &[Symbol]) -> bool {
        if values.len() != self.scheme.arity() {
            return false;
        }
        match self.index().get(&hash_row(values)) {
            None => false,
            Some(bucket) => bucket
                .iter()
                .any(|&idx| columns_match(&self.columns, idx, values)),
        }
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
        self.columns.iter().map(|col| col[idx]).collect()
    }

    /// The value `t[A]` of the `idx`-th tuple.
    pub fn value(&self, idx: usize, attr: Attribute) -> Result<Symbol> {
        Ok(self.column_of(attr)?[idx])
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
                *slot = self.columns[pos][idx];
            }
            out.insert_values(&buffer)?;
        }
        Ok(out)
    }

    /// The set of symbols appearing under attribute `attr` — the active
    /// domain of that column, written `d[A]` in the paper.  One column walk.
    pub fn active_domain(&self, attr: Attribute) -> Result<Vec<Symbol>> {
        let column = self.column_of(attr)?;
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for &v in column {
            if seen.insert(v) {
                out.push(v);
            }
        }
        Ok(out)
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
        buffer.extend(positions.iter().map(|&p| self.columns[p][idx]));
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
            y_key.extend(y_cols.iter().map(|&p| self.columns[p][idx]));
            z_key.extend(z_cols.iter().map(|&p| self.columns[p][idx]));
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
            let row: Vec<String> = self
                .columns
                .iter()
                .map(|col| symbols.render(col[idx]))
                .collect();
            out.push_str(&row.join("\t"));
            out.push('\n');
        }
        out
    }
}

fn columns_match(columns: &[Vec<Symbol>], idx: u32, values: &[Symbol]) -> bool {
    columns
        .iter()
        .zip(values)
        .all(|(col, &v)| col[idx as usize] == v)
}

/// A zero-copy view of one row of a [`Relation`].
///
/// The view borrows the relation's columnar storage; no symbols are copied
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
        self.relation.columns[pos][self.idx]
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
            .map(|p| self.relation.columns[p][self.idx])
            .collect()
    }

    /// Iterates over the row's values in scheme column order.
    pub fn values(&self) -> impl Iterator<Item = Symbol> + 'a {
        let (relation, idx) = (self.relation, self.idx);
        relation.columns.iter().map(move |col| col[idx])
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

    /// The satellite regression guard for the old double-storage layout
    /// (`tuples: Vec<Tuple>` plus `seen: HashSet<Tuple>`, each owning a full
    /// copy of every row): the columnar kernel stores exactly `arity × len`
    /// symbol cells, not twice that.
    #[test]
    fn single_storage_of_rows() {
        let mut f = setup();
        let r = relation_abc(
            &mut f,
            &[["a", "b", "c"], ["a", "b2", "c"], ["a2", "b", "c1"]],
        );
        assert_eq!(r.storage_cells(), r.scheme().arity() * r.len());
        // Duplicate inserts change neither the row count nor the cell count.
        let mut r2 = r.clone();
        let vals: Vec<Symbol> = ["a", "b", "c"]
            .iter()
            .map(|s| f.symbols.symbol(s))
            .collect();
        assert!(!r2.insert_values(&vals).unwrap());
        assert_eq!(r2.storage_cells(), r.storage_cells());
        assert_eq!(r2.len(), r.len());
    }

    #[test]
    fn distinct_columns_build_the_index_on_first_use() {
        let mut f = setup();
        let built = relation_abc(&mut f, &[["a", "b", "c"], ["a2", "b", "c"]]);
        let columns = (0..3).map(|pos| built.column(pos).to_vec()).collect();
        let mut r = Relation::from_distinct_columns(built.scheme().clone(), columns);
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
        assert_ne!(r, after);
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
        assert_eq!(r.column(1), r.column_of(f.attrs[1]).unwrap());
        assert_eq!(r.column(0).len(), 2);
        let mut u2 = f.universe.clone();
        let d = u2.attr("D");
        assert!(r.column_of(d).is_err());
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
