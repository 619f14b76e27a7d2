//! Tableaux: padded tables over the full attribute universe.
//!
//! The weak-satisfaction test of Honeyman (used throughout Sections 4.3 and
//! 6 of the paper) starts from a *tableau*: one row per database tuple,
//! ranging over the union `U` of all attributes, with the tuple's own
//! columns holding its constants and every other column holding a fresh
//! null.  The chase ([`crate::chase`]) then equates symbols as dictated by
//! the FDs.

use ps_base::{AttrSet, Attribute, NullSource, Symbol};

use crate::Database;

/// A tableau: rows of symbols over a fixed attribute set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tableau {
    attrs: AttrSet,
    rows: Vec<Vec<Symbol>>,
}

impl Tableau {
    /// Builds the tableau of `db` over the attribute set `attrs`, which
    /// must contain every attribute used by `db` and may contain more (the
    /// Section 6.2 pipeline adds the attributes its constraints mention).
    /// Every column a tuple lacks holds a fresh null drawn from `nulls`.
    ///
    /// The source decides only the nulls' identities, which never affect a
    /// chase verdict: a session passes its own [`ps_base::SymbolTable`],
    /// a snapshot worker a detached [`ps_base::FreshSymbols`].
    pub fn from_database(db: &Database, attrs: &AttrSet, nulls: &mut impl NullSource) -> Self {
        let mut rows = Vec::with_capacity(db.total_tuples());
        for relation in db.relations() {
            // Resolve each tableau column to the relation's column (or a
            // fresh-null pad) once per relation, then walk the columns.
            let positions: Vec<Option<usize>> = attrs
                .iter()
                .map(|a| relation.scheme().position(a))
                .collect();
            for row in relation.iter() {
                let padded: Vec<Symbol> = positions
                    .iter()
                    .map(|pos| match pos {
                        Some(pos) => row.value_at(*pos),
                        None => nulls.fresh(),
                    })
                    .collect();
                rows.push(padded);
            }
        }
        Tableau {
            attrs: attrs.clone(),
            rows,
        }
    }

    /// Creates a tableau directly from rows (mainly for tests).
    pub fn from_rows(attrs: AttrSet, rows: Vec<Vec<Symbol>>) -> Self {
        assert!(
            rows.iter().all(|r| r.len() == attrs.len()),
            "every row must have one symbol per attribute"
        );
        Tableau { attrs, rows }
    }

    /// The attribute set the tableau ranges over.
    pub fn attrs(&self) -> &AttrSet {
        &self.attrs
    }

    /// The rows.
    pub fn rows(&self) -> &[Vec<Symbol>] {
        &self.rows
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Whether the tableau has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The column index of `attr`, if it is part of the tableau.
    pub fn position(&self, attr: Attribute) -> Option<usize> {
        self.attrs.as_slice().binary_search(&attr).ok()
    }

    /// The symbol at `(row, attr)`.
    pub fn get(&self, row: usize, attr: Attribute) -> Option<Symbol> {
        Some(self.rows[row][self.position(attr)?])
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
        assert_eq!(detached.rows(), owned.rows());
        assert_eq!(s.num_fresh(), minted_before + 3);
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
