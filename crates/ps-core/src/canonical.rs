//! Canonical constructions between relations and partition interpretations
//! (Definitions 5–7 and Theorem 3).
//!
//! * [`canonical_interpretation`] — `I(r)`: the population consists of one
//!   element per tuple; `f_A(x)` is the set of (indices of) tuples whose `A`
//!   entry is `x`; the atomic partition `π_A` is the one induced by `f_A`.
//! * [`canonical_relation`] — `R(I)`: one tuple per element of the union of
//!   the populations; `t_i[A] = x` if `i ∈ f_A(x)`, and a fresh symbol
//!   otherwise.
//! * [`relation_satisfies_pd`] — Definition 7: `r ⊨ δ  ⇔  I(r) ⊨ δ`.
//!   This is the notion of PD satisfaction *by a relation* used everywhere
//!   in the expressiveness results of Section 4.

use std::collections::HashMap;

use ps_base::{Symbol, SymbolTable};
use ps_lattice::{Equation, TermArena};
use ps_partition::Element;
use ps_relation::{Relation, RelationScheme, Tuple};

use crate::{PartitionInterpretation, Result};

/// Builds the canonical interpretation `I(r)` of a relation (Definition 5).
///
/// The population of every attribute is `{0, …, |r|−1}` (one element per
/// tuple, in the relation's iteration order), so `I(r)` always satisfies the
/// EAP assumption.
pub fn canonical_interpretation(relation: &Relation) -> Result<PartitionInterpretation> {
    let mut interpretation = PartitionInterpretation::new();
    let scheme = relation.scheme();
    for attribute in scheme.attrs().iter() {
        let mut by_symbol: HashMap<Symbol, Vec<u32>> = HashMap::new();
        for (idx, tuple) in relation.iter().enumerate() {
            let symbol = tuple.get(attribute)?;
            by_symbol.entry(symbol).or_default().push(idx as u32);
        }
        let named_blocks: Vec<(Symbol, Vec<u32>)> = {
            let mut pairs: Vec<_> = by_symbol.into_iter().collect();
            pairs.sort_by_key(|(s, _)| *s);
            pairs
        };
        if named_blocks.is_empty() {
            // An empty relation yields an interpretation with no attributes
            // rather than empty populations (Definition 1 forbids the latter).
            continue;
        }
        interpretation.set_named_blocks(attribute, named_blocks)?;
    }
    Ok(interpretation)
}

/// Builds the canonical relation `R(I)` of an interpretation (Definition 6).
///
/// For each element `i` of the union of the populations there is one tuple
/// `t_i`: `t_i[A]` is the symbol naming the block of `π_A` containing `i`,
/// or a fresh symbol (unique to `i` and `A`) when `i ∉ p_A`.
pub fn canonical_relation(
    interpretation: &PartitionInterpretation,
    symbols: &mut SymbolTable,
    name: &str,
) -> Result<Relation> {
    let attrs: ps_base::AttrSet = interpretation.attributes().collect();
    let scheme = RelationScheme::new(name, attrs.clone());
    let mut relation = Relation::new(scheme.clone());
    for element in interpretation.total_population().iter() {
        let mut values: Vec<Symbol> = Vec::with_capacity(attrs.len());
        for attribute in attrs.iter() {
            let attr_interp = interpretation.require(attribute)?;
            let value = match attr_interp.atomic().block_index_of(element) {
                Some(block) => attr_interp
                    .symbol_of_block(block)
                    .expect("every block of a valid interpretation has a name"),
                None => symbols.fresh(),
            };
            values.push(value);
        }
        relation.insert(Tuple::new(&scheme, values)?)?;
    }
    Ok(relation)
}

/// Definition 7: a relation satisfies a PD iff its canonical interpretation
/// does.
pub fn relation_satisfies_pd(relation: &Relation, arena: &TermArena, pd: Equation) -> Result<bool> {
    let interpretation = canonical_interpretation(relation)?;
    if interpretation.is_empty() {
        // The empty relation has the empty interpretation, which satisfies
        // every PD vacuously (both sides denote the empty partition).
        return Ok(true);
    }
    interpretation.satisfies_pd(arena, pd)
}

/// Whether a relation satisfies every PD in the list.
pub fn relation_satisfies_all_pds(
    relation: &Relation,
    arena: &TermArena,
    pds: &[Equation],
) -> Result<bool> {
    let interpretation = canonical_interpretation(relation)?;
    if interpretation.is_empty() {
        return Ok(true);
    }
    interpretation.satisfies_all_pds(arena, pds)
}

/// The tuple indices of `relation`, as population elements — handy when a
/// caller wants to relate `I(r)`'s population back to tuples.
pub fn tuple_elements(relation: &Relation) -> Vec<Element> {
    (0..relation.len() as u32).map(Element::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependency::Fpd;
    use ps_base::{AttrSet, Universe};
    use ps_lattice::parse_term;
    use ps_relation::{fd, DatabaseBuilder};

    struct Fixture {
        universe: Universe,
        symbols: SymbolTable,
    }

    fn fixture() -> Fixture {
        Fixture {
            universe: Universe::new(),
            symbols: SymbolTable::new(),
        }
    }

    fn relation(f: &mut Fixture, rows: &[[&str; 3]]) -> Relation {
        let rows_ref: Vec<&[&str]> = rows.iter().map(|r| r.as_slice()).collect();
        DatabaseBuilder::new()
            .relation(
                &mut f.universe,
                &mut f.symbols,
                "R",
                &["A", "B", "C"],
                &rows_ref,
            )
            .unwrap()
            .build()
            .relations()[0]
            .clone()
    }

    #[test]
    fn canonical_interpretation_of_figure2_r1() {
        let mut f = fixture();
        let r1 = relation(
            &mut f,
            &[
                ["a", "b1", "c1"],
                ["a", "b1", "c2"],
                ["a", "b2", "c1"],
                ["a", "b2", "c2"],
            ],
        );
        let interp = canonical_interpretation(&r1).unwrap();
        assert!(interp.satisfies_eap());
        let a = f.universe.lookup("A").unwrap();
        let b = f.universe.lookup("B").unwrap();
        // π_A is the indiscrete partition of {0,1,2,3}; π_B has two blocks.
        assert_eq!(interp.require(a).unwrap().atomic().num_blocks(), 1);
        assert_eq!(interp.require(b).unwrap().atomic().num_blocks(), 2);
        // I(r) satisfies r (every tuple denotes a non-empty set).
        let db = {
            let mut db = ps_relation::Database::new();
            db.add(r1.clone());
            db
        };
        assert!(interp.satisfies_database(&db).unwrap());
    }

    #[test]
    fn theorem3b_fd_satisfaction_coincides_with_fpd_satisfaction() {
        let mut f = fixture();
        // r satisfies A→B but not A→C.
        let r = relation(
            &mut f,
            &[["a", "b", "c1"], ["a", "b", "c2"], ["a2", "b2", "c1"]],
        );
        let a = f.universe.lookup("A").unwrap();
        let b = f.universe.lookup("B").unwrap();
        let c = f.universe.lookup("C").unwrap();
        let mut arena = TermArena::new();
        let good_fd = fd(&[a], &[b]);
        let bad_fd = fd(&[a], &[c]);
        let good_pd = Fpd::from_fd(&good_fd).as_meet_equation(&mut arena);
        let bad_pd = Fpd::from_fd(&bad_fd).as_meet_equation(&mut arena);
        assert_eq!(
            r.satisfies_fd(&good_fd),
            relation_satisfies_pd(&r, &arena, good_pd).unwrap()
        );
        assert_eq!(
            r.satisfies_fd(&bad_fd),
            relation_satisfies_pd(&r, &arena, bad_pd).unwrap()
        );
        assert!(r.satisfies_fd(&good_fd));
        assert!(!r.satisfies_fd(&bad_fd));
        // The dual join form is satisfied exactly when the meet form is.
        let good_join = Fpd::from_fd(&good_fd).as_join_equation(&mut arena);
        assert!(relation_satisfies_pd(&r, &arena, good_join).unwrap());
    }

    #[test]
    fn round_trip_r_of_i_of_r_is_r() {
        // Because I(r) satisfies EAP, R(I(r)) = r (Section 4.1).
        let mut f = fixture();
        let r = relation(
            &mut f,
            &[["a", "b", "c"], ["a2", "b", "c1"], ["a", "b2", "c"]],
        );
        let interp = canonical_interpretation(&r).unwrap();
        let back = canonical_relation(&interp, &mut f.symbols, "R").unwrap();
        assert_eq!(back.len(), r.len());
        for tuple in r.iter() {
            assert!(back.contains_row(tuple), "missing tuple {tuple}");
        }
        for tuple in back.iter() {
            assert!(r.contains_row(tuple), "extra tuple {tuple}");
        }
    }

    #[test]
    fn canonical_relation_pads_elements_outside_a_population() {
        // An interpretation violating EAP: p_A = {1,2}, p_B = {1,2,3}.
        let mut universe = Universe::new();
        let mut symbols = SymbolTable::new();
        let (a, b) = (universe.attr("A"), universe.attr("B"));
        let mut interp = PartitionInterpretation::new();
        interp
            .set_named_blocks(a, vec![(symbols.symbol("x"), vec![1, 2])])
            .unwrap();
        interp
            .set_named_blocks(b, vec![(symbols.symbol("y"), vec![1, 2, 3])])
            .unwrap();
        let r = canonical_relation(&interp, &mut symbols, "W").unwrap();
        // Elements 1 and 2 are in the same block of every atomic partition,
        // so their tuples coincide and the relation keeps only one copy
        // (the collapse discussed after Definition 6 in Section 4.1).
        assert_eq!(r.len(), 2);
        // Element 3 is outside p_A, so its A entry is a fresh symbol.
        let fresh_count = r
            .iter()
            .flat_map(|t| t.values())
            .filter(|s| s.is_null())
            .count();
        assert_eq!(fresh_count, 1);
    }

    #[test]
    fn characterization_ii_connectivity_example() {
        // From Section 4.1 (II): r ⊨ C = A+B iff equal C values correspond
        // exactly to chain-connectedness on A/B values.
        let mut f = fixture();
        // Two edges {1,2} and {3,4} in separate components.
        let r = relation(
            &mut f,
            &[
                ["v1", "v2", "comp1"],
                ["v2", "v1", "comp1"],
                ["v1", "v1", "comp1"],
                ["v2", "v2", "comp1"],
                ["v3", "v4", "comp2"],
                ["v4", "v3", "comp2"],
                ["v3", "v3", "comp2"],
                ["v4", "v4", "comp2"],
            ],
        );
        let mut arena = TermArena::new();
        let pd = {
            let lhs = parse_term("C", &mut f.universe, &mut arena).unwrap();
            let rhs = parse_term("A+B", &mut f.universe, &mut arena).unwrap();
            Equation::new(lhs, rhs)
        };
        assert!(relation_satisfies_pd(&r, &arena, pd).unwrap());
        // Mislabelling one edge's component breaks the PD.
        let bad = relation(
            &mut f,
            &[
                ["v1", "v2", "comp1"],
                ["v2", "v1", "comp1"],
                ["v1", "v1", "comp1"],
                ["v2", "v2", "comp2"],
            ],
        );
        assert!(!relation_satisfies_pd(&bad, &arena, pd).unwrap());
    }

    #[test]
    fn empty_relation_satisfies_everything() {
        let mut f = fixture();
        let scheme = RelationScheme::new(
            "R",
            AttrSet::from(vec![f.universe.attr("A"), f.universe.attr("B")]),
        );
        let empty = Relation::new(scheme);
        let mut arena = TermArena::new();
        let pd = {
            let lhs = parse_term("A", &mut f.universe, &mut arena).unwrap();
            let rhs = parse_term("B", &mut f.universe, &mut arena).unwrap();
            Equation::new(lhs, rhs)
        };
        assert!(relation_satisfies_pd(&empty, &arena, pd).unwrap());
        assert!(relation_satisfies_all_pds(&empty, &arena, &[pd]).unwrap());
        assert!(tuple_elements(&empty).is_empty());
    }

    #[test]
    fn product_dependency_characterization_i() {
        // (I): r ⊨ C = A*B iff equal C values correspond exactly to equality
        // on both A and B.
        let mut f = fixture();
        let good = relation(
            &mut f,
            &[
                ["a1", "b1", "c1"],
                ["a1", "b2", "c2"],
                ["a2", "b1", "c3"],
                ["a1", "b1", "c1"],
            ],
        );
        let mut arena = TermArena::new();
        let pd = {
            let lhs = parse_term("C", &mut f.universe, &mut arena).unwrap();
            let rhs = parse_term("A*B", &mut f.universe, &mut arena).unwrap();
            Equation::new(lhs, rhs)
        };
        assert!(relation_satisfies_pd(&good, &arena, pd).unwrap());
        let bad = relation(&mut f, &[["a1", "b1", "c1"], ["a1", "b2", "c1"]]);
        assert!(!relation_satisfies_pd(&bad, &arena, pd).unwrap());
    }
}
