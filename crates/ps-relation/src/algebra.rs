//! Relational-algebra operations.
//!
//! The conclusion of the paper stresses that assigning partition semantics
//! to the relational model does not take away the familiar algebraic
//! operations on relations — "after all these operations are syntactic
//! manipulations of syntactic objects".  This module provides them:
//! selection, projection (already on [`Relation`]), natural join, Cartesian
//! product, union, difference, intersection and renaming.  All operations
//! run on the columnar kernel: rows are read through zero-copy
//! [`RowRef`] views, and the natural join is a hash join on the shared
//! attributes rather than a nested-loop scan.

use std::collections::HashMap;

use ps_base::Symbol;

use crate::{Relation, RelationError, RelationScheme, Result, RowRef};

/// Selection `σ_pred(r)`: keeps the rows satisfying `pred`.
pub fn select(r: &Relation, name: &str, pred: impl Fn(RowRef<'_>) -> bool) -> Relation {
    let mut out = Relation::new(RelationScheme::new(name, r.scheme().attrs().clone()));
    for row in r.iter() {
        if pred(row) {
            out.insert_values(&row.to_values()).expect("same scheme");
        }
    }
    out
}

/// Union `r ∪ s` of two relations over identical attribute sets.
pub fn union(r: &Relation, s: &Relation, name: &str) -> Result<Relation> {
    require_same_attrs(r, s)?;
    let mut out = Relation::new(RelationScheme::new(name, r.scheme().attrs().clone()));
    for row in r.iter().chain(s.iter()) {
        out.insert_values(&row.to_values())?;
    }
    Ok(out)
}

/// Difference `r − s` of two relations over identical attribute sets.
pub fn difference(r: &Relation, s: &Relation, name: &str) -> Result<Relation> {
    require_same_attrs(r, s)?;
    let mut out = Relation::new(RelationScheme::new(name, r.scheme().attrs().clone()));
    for row in r.iter() {
        let values = row.to_values();
        if !s.contains_values(&values) {
            out.insert_values(&values)?;
        }
    }
    Ok(out)
}

/// Intersection `r ∩ s` of two relations over identical attribute sets.
pub fn intersection(r: &Relation, s: &Relation, name: &str) -> Result<Relation> {
    require_same_attrs(r, s)?;
    let mut out = Relation::new(RelationScheme::new(name, r.scheme().attrs().clone()));
    for row in r.iter() {
        let values = row.to_values();
        if s.contains_values(&values) {
            out.insert_values(&values)?;
        }
    }
    Ok(out)
}

/// Natural join `r ⋈ s`: tuples agreeing on the common attributes are
/// combined; with disjoint schemes this degenerates to the Cartesian
/// product.
///
/// Implemented as a hash join: `s` is bucketed by its shared-attribute key
/// once, and each row of `r` probes its bucket — `O(|r| + |s| + output)`
/// instead of the nested-loop `O(|r| · |s|)`.
pub fn natural_join(r: &Relation, s: &Relation, name: &str) -> Result<Relation> {
    let shared = r.scheme().attrs().intersection(s.scheme().attrs());
    let out_attrs = r.scheme().attrs().union(s.scheme().attrs());
    let scheme = RelationScheme::new(name, out_attrs.clone());
    let mut out = Relation::new(scheme);

    // Bucket `s` rows by their shared-attribute key.
    let mut buckets: HashMap<Vec<Symbol>, Vec<usize>> = HashMap::new();
    for row in s.iter() {
        buckets
            .entry(row.project(&shared))
            .or_default()
            .push(row.index());
    }

    // Each output column pulls from a fixed position of `r` or of `s`.
    enum Source {
        Left(usize),
        Right(usize),
    }
    let sources: Vec<Source> = out_attrs
        .iter()
        .map(|a| {
            if let Some(pos) = r.scheme().position(a) {
                Source::Left(pos)
            } else {
                let pos = s.scheme().position(a).expect("attribute from union");
                Source::Right(pos)
            }
        })
        .collect();

    let mut values = vec![Symbol::from_index(0); out_attrs.len()];
    for row in r.iter() {
        let Some(matches) = buckets.get(&row.project(&shared)) else {
            continue;
        };
        for &s_idx in matches {
            for (slot, source) in values.iter_mut().zip(&sources) {
                *slot = match source {
                    Source::Left(pos) => row.value_at(*pos),
                    Source::Right(pos) => s.row(s_idx).value_at(*pos),
                };
            }
            out.insert_values(&values)?;
        }
    }
    Ok(out)
}

/// Cartesian product `r × s` of relations over disjoint attribute sets.
pub fn cartesian_product(r: &Relation, s: &Relation, name: &str) -> Result<Relation> {
    if !r.scheme().attrs().is_disjoint(s.scheme().attrs()) {
        return Err(RelationError::SchemeMismatch {
            left: r.scheme().name().to_owned(),
            right: s.scheme().name().to_owned(),
        });
    }
    natural_join(r, s, name)
}

/// Renames a relation (the scheme keeps the same attributes).
pub fn rename(r: &Relation, name: &str) -> Relation {
    r.clone().into_renamed(name)
}

fn require_same_attrs(r: &Relation, s: &Relation) -> Result<()> {
    if r.scheme().attrs() != s.scheme().attrs() {
        return Err(RelationError::SchemeMismatch {
            left: r.scheme().name().to_owned(),
            right: s.scheme().name().to_owned(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::DatabaseBuilder;
    use ps_base::{SymbolTable, Universe};

    struct Fixture {
        universe: Universe,
        symbols: SymbolTable,
    }

    fn relation(f: &mut Fixture, name: &str, attrs: &[&str], rows: &[&[&str]]) -> Relation {
        let db = DatabaseBuilder::new()
            .relation(&mut f.universe, &mut f.symbols, name, attrs, rows)
            .unwrap()
            .build();
        db.relations()[0].clone()
    }

    fn fixture() -> Fixture {
        Fixture {
            universe: Universe::new(),
            symbols: SymbolTable::new(),
        }
    }

    #[test]
    fn selection_filters_rows() {
        let mut f = fixture();
        let r = relation(&mut f, "R", &["A", "B"], &[&["a1", "b1"], &["a2", "b2"]]);
        let a1 = f.symbols.lookup("a1").unwrap();
        let sel = select(&r, "S", |t| t.value_at(0) == a1);
        assert_eq!(sel.len(), 1);
    }

    #[test]
    fn union_difference_intersection() {
        let mut f = fixture();
        let r = relation(&mut f, "R", &["A", "B"], &[&["a1", "b1"], &["a2", "b2"]]);
        let s = relation(&mut f, "S", &["A", "B"], &[&["a2", "b2"], &["a3", "b3"]]);
        assert_eq!(union(&r, &s, "U").unwrap().len(), 3);
        assert_eq!(difference(&r, &s, "D").unwrap().len(), 1);
        assert_eq!(intersection(&r, &s, "I").unwrap().len(), 1);
        // Mismatched schemes are rejected.
        let t = relation(&mut f, "T", &["A", "C"], &[&["a1", "c1"]]);
        assert!(union(&r, &t, "U").is_err());
        assert!(difference(&r, &t, "D").is_err());
        assert!(intersection(&r, &t, "I").is_err());
    }

    #[test]
    fn natural_join_combines_on_shared_attributes() {
        let mut f = fixture();
        let r = relation(&mut f, "R", &["A", "B"], &[&["a1", "b1"], &["a2", "b2"]]);
        let s = relation(
            &mut f,
            "S",
            &["B", "C"],
            &[&["b1", "c1"], &["b1", "c2"], &["b3", "c3"]],
        );
        let j = natural_join(&r, &s, "J").unwrap();
        assert_eq!(j.scheme().arity(), 3);
        assert_eq!(j.len(), 2); // a1 joins with two S-tuples, a2 with none.
    }

    #[test]
    fn cartesian_product_requires_disjoint_schemes() {
        let mut f = fixture();
        let r = relation(&mut f, "R", &["A"], &[&["a1"], &["a2"]]);
        let s = relation(&mut f, "S", &["B"], &[&["b1"], &["b2"], &["b3"]]);
        let p = cartesian_product(&r, &s, "P").unwrap();
        assert_eq!(p.len(), 6);
        let overlapping = relation(&mut f, "T", &["A", "B"], &[&["a1", "b1"]]);
        assert!(cartesian_product(&r, &overlapping, "P").is_err());
    }

    #[test]
    fn rename_preserves_contents() {
        let mut f = fixture();
        let r = relation(&mut f, "R", &["A"], &[&["a1"]]);
        let renamed = rename(&r, "R2");
        assert_eq!(renamed.scheme().name(), "R2");
        assert_eq!(renamed.len(), 1);
        assert_eq!(renamed.scheme().attrs(), r.scheme().attrs());
    }

    #[test]
    fn join_on_disjoint_schemes_is_cartesian() {
        let mut f = fixture();
        let r = relation(&mut f, "R", &["A"], &[&["a1"], &["a2"]]);
        let s = relation(&mut f, "S", &["B"], &[&["b1"]]);
        assert_eq!(natural_join(&r, &s, "J").unwrap().len(), 2);
    }
}
