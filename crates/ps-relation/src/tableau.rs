//! Tableaux: padded tables over the full attribute universe.
//!
//! The weak-satisfaction test of Honeyman (used throughout Sections 4.3 and
//! 6 of the paper) starts from a *tableau*: one row per database tuple,
//! ranging over the union `U` of all attributes, with the tuple's own
//! columns holding its constants and every other column holding a fresh
//! null.  The chase ([`crate::chase`]) then equates symbols as dictated by
//! the FDs.
//!
//! Most cells of a padded tableau are padding: a null that occurs in no
//! other cell.  The tableau records where they are, per run of rows, so the
//! chase never has to look for them.

use std::collections::HashMap;

use ps_base::{AttrSet, Attribute, NullSource, Symbol};

use crate::Database;

/// A tableau: rows of symbols over a fixed attribute set, stored row-major,
/// that knows which of its cells are padding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tableau {
    attrs: AttrSet,
    num_rows: usize,
    /// Cell `(row, col)` is `cells[row · width + col]`.
    cells: Vec<Symbol>,
    /// The rows in order, cut into runs that share their padding columns.
    segments: Vec<Segment>,
}

/// A run of consecutive tableau rows whose padding cells lie in the same
/// columns.  A padding cell holds a null that occurs in no other cell of
/// the tableau.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Segment {
    /// Number of rows in the run.
    pub(crate) rows: usize,
    /// The padding columns of every row of the run, ascending.
    pub(crate) padding: Vec<usize>,
}

impl Tableau {
    /// Builds the tableau of `db` over the attribute set `attrs`, which
    /// may contain more attributes than `db` uses (the Section 6.2 pipeline
    /// adds the attributes its constraints mention).  Every column a tuple
    /// lacks holds a fresh null drawn from `nulls`: one block for the whole
    /// tableau, handed out in row-major order.  Each relation is one
    /// segment, padded in the columns of `attrs` its scheme lacks.
    ///
    /// The source decides only the nulls' identities, which never affect a
    /// chase verdict: a session passes its own [`ps_base::SymbolTable`],
    /// a snapshot worker a detached [`ps_base::FreshSymbols`].  It must not
    /// have issued a null the database holds, or that null would stand in
    /// two cells the chase takes for distinct.
    ///
    /// # Panics
    ///
    /// When `attrs` lacks an attribute of one of `db`'s relations.
    pub fn from_database(db: &Database, attrs: &AttrSet, nulls: &mut impl NullSource) -> Self {
        // Resolve each tableau column to the relation's column (or a
        // padding null) once per relation.
        let (positions, segments): (Vec<_>, Vec<_>) = db
            .relations()
            .iter()
            .map(|relation| {
                let scheme = relation.scheme();
                let positions: Vec<Option<usize>> =
                    attrs.iter().map(|a| scheme.position(a)).collect();
                let padding: Vec<usize> = (0..positions.len())
                    .filter(|&c| positions[c].is_none())
                    .collect();
                assert_eq!(
                    positions.len() - padding.len(),
                    scheme.arity(),
                    "the tableau's attributes must contain every attribute of {}",
                    scheme.name()
                );
                let rows = relation.len();
                (positions, Segment { rows, padding })
            })
            .unzip();
        let num_padding = segments.iter().map(|s| s.rows * s.padding.len()).sum();
        let mut padding = nulls.fresh_block(num_padding);
        let num_rows = db.total_tuples();
        let width = attrs.len();
        let mut cells = vec![Symbol::from_index(0); num_rows * width];
        let mut start = 0;
        for ((relation, positions), segment) in db.relations().iter().zip(&positions).zip(&segments)
        {
            let rows = &mut cells[start * width..(start + segment.rows) * width];
            start += segment.rows;
            // The padding nulls in row-major order, then each of the
            // relation's own columns, decoded down the column.
            for row in rows.chunks_exact_mut(width) {
                for &c in &segment.padding {
                    row[c] = padding.next().expect("the block holds every padding null");
                }
            }
            for (c, pos) in positions.iter().enumerate() {
                let Some(pos) = *pos else { continue };
                let names = relation.dictionary(pos);
                for (row, &code) in rows.chunks_exact_mut(width).zip(relation.codes(pos)) {
                    row[c] = names[code as usize];
                }
            }
        }
        Tableau {
            attrs: attrs.clone(),
            num_rows,
            cells,
            segments,
        }
    }

    /// Creates a tableau directly from rows (mainly for tests).  A null
    /// that occurs in exactly one cell is that row's padding.
    pub fn from_rows(attrs: AttrSet, rows: Vec<Vec<Symbol>>) -> Self {
        assert!(
            rows.iter().all(|r| r.len() == attrs.len()),
            "every row must have one symbol per attribute"
        );
        let mut count: HashMap<Symbol, usize> = HashMap::new();
        for &s in rows.iter().flatten().filter(|s| s.is_null()) {
            *count.entry(s).or_default() += 1;
        }
        let mut segments: Vec<Segment> = Vec::new();
        for row in &rows {
            let padding: Vec<usize> = (0..row.len())
                .filter(|&c| row[c].is_null() && count[&row[c]] == 1)
                .collect();
            match segments.last_mut() {
                Some(last) if last.padding == padding => last.rows += 1,
                _ => segments.push(Segment { rows: 1, padding }),
            }
        }
        Tableau {
            attrs,
            num_rows: rows.len(),
            cells: rows.into_iter().flatten().collect(),
            segments,
        }
    }

    /// The attribute set the tableau ranges over.
    pub fn attrs(&self) -> &AttrSet {
        &self.attrs
    }

    /// The rows, in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Symbol]> {
        (0..self.num_rows).map(|r| self.row(r))
    }

    /// Row `row`.
    pub fn row(&self, row: usize) -> &[Symbol] {
        let width = self.attrs.len();
        &self.cells[row * width..(row + 1) * width]
    }

    /// Every cell, row-major: cell `(row, col)` is `cells[row · width + col]`.
    pub(crate) fn cells(&self) -> &[Symbol] {
        &self.cells
    }

    /// The rows in order, as runs sharing their padding columns.
    pub(crate) fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Whether the tableau has no rows.
    pub fn is_empty(&self) -> bool {
        self.num_rows == 0
    }

    /// The column index of `attr`, if it is part of the tableau.
    pub fn position(&self, attr: Attribute) -> Option<usize> {
        self.attrs.as_slice().binary_search(&attr).ok()
    }

    /// The symbol at `(row, attr)`.
    pub fn get(&self, row: usize, attr: Attribute) -> Option<Symbol> {
        Some(self.row(row)[self.position(attr)?])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::DatabaseBuilder;
    use ps_base::{SymbolTable, Universe};

    fn two_relation_db() -> (Universe, SymbolTable, Database) {
        let mut u = Universe::new();
        let mut s = SymbolTable::new();
        let db = DatabaseBuilder::new()
            .relation(
                &mut u,
                &mut s,
                "R1",
                &["A", "B"],
                &[&["a", "b"], &["a2", "b"]],
            )
            .unwrap()
            .relation(&mut u, &mut s, "R2", &["B", "C"], &[&["b", "c"]])
            .unwrap()
            .build();
        (u, s, db)
    }

    #[test]
    fn tableau_has_one_row_per_tuple_and_pads_with_nulls() {
        let (u, mut s, db) = two_relation_db();
        let tableau = Tableau::from_database(&db, &db.all_attributes(), &mut s);
        assert_eq!(tableau.num_rows(), 3);
        assert_eq!(tableau.attrs().len(), 3);
        assert!(!tableau.is_empty());
        let a = u.lookup("A").unwrap();
        let c = u.lookup("C").unwrap();
        // First row comes from R1: constant under A, fresh null under C.
        let a_val = tableau.get(0, a).unwrap();
        let c_val = tableau.get(0, c).unwrap();
        assert!(a_val.is_constant());
        assert!(c_val.is_null());
        // Third row comes from R2: null under A, constant under C.
        assert!(tableau.get(2, a).unwrap().is_null());
        assert!(tableau.get(2, c).unwrap().is_constant());
    }

    #[test]
    fn nulls_are_distinct_across_cells() {
        let (_, mut s, db) = two_relation_db();
        let tableau = Tableau::from_database(&db, &db.all_attributes(), &mut s);
        let mut nulls = Vec::new();
        for row in tableau.rows() {
            for &sym in row {
                if sym.is_null() {
                    nulls.push(sym);
                }
            }
        }
        let unique: std::collections::HashSet<_> = nulls.iter().collect();
        assert_eq!(unique.len(), nulls.len());
        assert_eq!(nulls.len(), 2 + 1); // R1 rows miss C (2 nulls), R2 row misses A (1 null).
    }

    #[test]
    fn from_database_can_add_extra_attributes() {
        let (mut u, mut s, db) = two_relation_db();
        let d = u.attr("D");
        let mut attrs = db.all_attributes();
        attrs.insert(d);
        let tableau = Tableau::from_database(&db, &attrs, &mut s);
        assert_eq!(tableau.attrs().len(), 4);
        assert!(tableau.get(0, d).unwrap().is_null());
    }

    #[test]
    fn detached_source_pads_like_the_table() {
        let (_, mut s, db) = two_relation_db();
        let attrs = db.all_attributes();
        let detached = {
            let mut source = s.fresh_source();
            Tableau::from_database(&db, &attrs, &mut source)
        };
        let minted_before = s.num_fresh();
        let owned = Tableau::from_database(&db, &attrs, &mut s);
        // Both start minting at the same cursor, so they agree
        // symbol-for-symbol; only the table itself advanced.
        assert_eq!(detached, owned);
        assert_eq!(s.num_fresh(), minted_before + 3);
    }

    #[test]
    fn one_block_pads_like_one_null_per_cell() {
        // The padding nulls, minted in one block, are the ones per-cell
        // minting from a clone of the source puts in the same cells.
        let (mut u, mut s, db) = two_relation_db();
        let d = u.attr("D");
        let mut attrs = db.all_attributes();
        attrs.insert(d);
        s.fresh();
        let mut cloned = s.clone();
        let tableau = Tableau::from_database(&db, &attrs, &mut s);
        let mut expected = Vec::new();
        for relation in db.relations() {
            for row in relation.iter() {
                for a in attrs.iter() {
                    expected.push(match relation.scheme().position(a) {
                        Some(pos) => row.value_at(pos),
                        None => cloned.fresh(),
                    });
                }
            }
        }
        assert_eq!(tableau.cells(), expected.as_slice());
        assert_eq!(s.num_fresh(), cloned.num_fresh());
        // One segment per relation: R1 lacks C and D, R2 lacks A and D.
        let segments: Vec<(usize, Vec<usize>)> = tableau
            .segments()
            .iter()
            .map(|s| (s.rows, s.padding.clone()))
            .collect();
        assert_eq!(segments, vec![(2, vec![2, 3]), (1, vec![0, 3])]);
    }

    #[test]
    #[should_panic(expected = "must contain every attribute of R2")]
    fn from_database_requires_every_relation_attribute() {
        let (u, mut s, db) = two_relation_db();
        let attrs: AttrSet = ["A", "B"]
            .map(|n| u.lookup(n).unwrap())
            .into_iter()
            .collect();
        let _ = Tableau::from_database(&db, &attrs, &mut s);
    }

    #[test]
    fn from_rows_finds_its_padding_by_counting() {
        // Row 0 = (n0, n1), row 1 = (n0, n2), row 2 = (a, n3): n0 occurs
        // twice, so only the B cells are padding, however far apart the
        // nulls' indices lie.
        let mut u = Universe::new();
        let attrs: AttrSet = u.attrs(["A", "B"]).into();
        let mut s = SymbolTable::new();
        let a = s.symbol("a");
        let mut spaced = || {
            let null = s.fresh();
            s.fresh_block(999);
            null
        };
        let [n0, n1, n2, n3] = [(); 4].map(|()| spaced());
        let tableau = Tableau::from_rows(attrs, vec![vec![n0, n1], vec![n0, n2], vec![a, n3]]);
        let segments: Vec<(usize, Vec<usize>)> = tableau
            .segments()
            .iter()
            .map(|s| (s.rows, s.padding.clone()))
            .collect();
        assert_eq!(segments, vec![(3, vec![1])]);
        assert_eq!(tableau.row(2), &[a, n3]);
        assert_eq!(tableau.rows().len(), 3);
    }

    #[test]
    fn position_and_get_handle_missing_attributes() {
        let (mut u, mut s, db) = two_relation_db();
        let tableau = Tableau::from_database(&db, &db.all_attributes(), &mut s);
        let z = u.attr("Z");
        assert_eq!(tableau.position(z), None);
        assert_eq!(tableau.get(0, z), None);
    }

    #[test]
    #[should_panic(expected = "one symbol per attribute")]
    fn from_rows_checks_arity() {
        let mut u = Universe::new();
        let attrs: AttrSet = u.attrs(["A", "B"]).into();
        let mut s = SymbolTable::new();
        let _ = Tableau::from_rows(attrs, vec![vec![s.symbol("a")]]);
    }
}
