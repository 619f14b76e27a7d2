//! Property tests for the canonical constructions of Section 4.1
//! (Definitions 5–7 and Theorem 3) and the characterizations (I)–(III) of PD
//! satisfaction by relations.

mod common;

use common::World;
use partition_semantics::core::canonical::{canonical_relation, tuple_elements};
use partition_semantics::core::weak_bridge::weak_instance_from_interpretation;
use partition_semantics::core::AttributeInterpretation;
use partition_semantics::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};

/// `R(I(r)) = r` for every relation `r` — stated right after Definition 6.
#[test]
fn canonical_relation_of_canonical_interpretation_is_identity() {
    for seed in 0..25u64 {
        let mut world = World::new();
        let attrs = world.attrs(3);
        let relation = common::random_relation(&mut world, "R", &attrs, 6, 3, seed);
        let interpretation = canonical_interpretation(&relation).unwrap();
        let back = canonical_relation(&interpretation, &mut world.symbols, "R").unwrap();
        assert_eq!(back.len(), relation.len(), "seed {seed}");
        for tuple in relation.iter() {
            assert!(back.contains_row(tuple), "seed {seed}: missing {tuple}");
        }
        assert_eq!(tuple_elements(&relation).len(), relation.len());
    }
}

/// Theorem 3a: if an interpretation (not necessarily EAP) satisfies the FPD
/// `X = X·Y`, its canonical relation satisfies the FD `X → Y`.
#[test]
fn theorem3a_holds_for_random_interpretations() {
    let mut exercised = 0usize;
    for seed in 0..40u64 {
        let mut world = World::new();
        let attrs = world.attrs(3);
        let interpretation = common::random_interpretation(&mut world, &attrs, 5, seed);
        let relation =
            weak_instance_from_interpretation(&interpretation, &mut world.symbols).unwrap();
        for (i, &x) in attrs.iter().enumerate() {
            for &y in attrs.iter().skip(i + 1) {
                let fpd = Fpd::new(AttrSet::singleton(x), AttrSet::singleton(y));
                let pd = fpd.as_meet_equation(&mut world.arena);
                if interpretation.satisfies_pd(&world.arena, pd).unwrap() {
                    exercised += 1;
                    assert!(
                        relation.satisfies_fd(&fpd.to_fd()),
                        "seed {seed}: Theorem 3a violated for {}",
                        fpd.render(&world.universe)
                    );
                }
            }
        }
    }
    assert!(exercised > 0, "no satisfied FPDs sampled");
}

/// The characterizations of Section 4.1: (I) `r ⊨ C = A·B` iff equal `C`
/// values coincide with equality on both `A` and `B`; (III) the chain variant
/// with "and" is equivalent to (I).
#[test]
fn characterization_i_and_iii_are_equivalent() {
    for seed in 0..30u64 {
        let mut world = World::new();
        let attrs = world.attrs(3);
        let relation = common::random_relation(&mut world, "R", &attrs, 6, 2, seed);
        let (a, b, c) = (attrs[0], attrs[1], attrs[2]);

        // Direct statement of (I).
        let direct_i = relation.iter().all(|t| {
            relation.iter().all(|h| {
                let same_c = t.get(c).unwrap() == h.get(c).unwrap();
                let same_ab = t.get(a).unwrap() == h.get(a).unwrap()
                    && t.get(b).unwrap() == h.get(b).unwrap();
                same_c == same_ab
            })
        });

        // Definition 7 route: I(r) ⊨ C = A*B.
        let pd = {
            let ca = world.arena.atom(c);
            let aa = world.arena.atom(a);
            let bb = world.arena.atom(b);
            let ab = world.arena.meet(aa, bb);
            Equation::new(ca, ab)
        };
        let via_interpretation = relation_satisfies_pd(&relation, &world.arena, pd).unwrap();
        assert_eq!(direct_i, via_interpretation, "seed {seed}");

        // (III): chains in which consecutive tuples agree on *both* A and B
        // collapse to direct equality on A and B, so it is equivalent to (I).
        let chain_iii = {
            // Group tuples by (A, B) value; chains stay within a group.
            let mut class_of: HashMap<(Symbol, Symbol), usize> = HashMap::new();
            let mut next = 0usize;
            let classes: Vec<usize> = relation
                .iter()
                .map(|t| {
                    let key = (t.get(a).unwrap(), t.get(b).unwrap());
                    *class_of.entry(key).or_insert_with(|| {
                        next += 1;
                        next - 1
                    })
                })
                .collect();
            let c_values: Vec<Symbol> = relation.iter().map(|t| t.get(c).unwrap()).collect();
            let mut c_to_class: HashMap<Symbol, usize> = HashMap::new();
            let mut class_to_c: HashMap<usize, Symbol> = HashMap::new();
            let mut ok = true;
            for (idx, &cv) in c_values.iter().enumerate() {
                if *c_to_class.entry(cv).or_insert(classes[idx]) != classes[idx] {
                    ok = false;
                }
                if *class_to_c.entry(classes[idx]).or_insert(cv) != cv {
                    ok = false;
                }
            }
            ok
        };
        assert_eq!(
            direct_i, chain_iii,
            "seed {seed}: (I) and (III) must coincide"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Definition 7 is invariant under duplicating tuples (relations are
    /// sets) and under permuting the insertion order.
    #[test]
    fn prop_pd_satisfaction_is_order_insensitive(seed in 0u64..2_000, rows in 2usize..7) {
        let mut world = World::new();
        let attrs = world.attrs(3);
        let relation = common::random_relation(&mut world, "R", &attrs, rows, 2, seed);
        let pd = common::random_pd(&mut world.arena, &attrs, 4, seed ^ 0xBEEF);
        let original = relation_satisfies_pd(&relation, &world.arena, pd).unwrap();

        // Re-insert the tuples in reverse order (and twice).
        let mut shuffled = Relation::new(relation.scheme().clone());
        for idx in (0..relation.len()).rev() {
            shuffled.insert_values(&relation.row_values(idx)).unwrap();
        }
        for tuple in relation.iter() {
            shuffled.insert_values(&tuple.to_values()).unwrap();
        }
        let permuted = relation_satisfies_pd(&shuffled, &world.arena, pd).unwrap();
        prop_assert_eq!(original, permuted);
    }

    /// Projection onto the attributes of a PD cannot change its satisfaction
    /// (the canonical interpretation only looks at those columns).
    #[test]
    fn prop_pd_satisfaction_survives_projection(seed in 0u64..2_000) {
        let mut world = World::new();
        let attrs = world.attrs(4);
        let relation = common::random_relation(&mut world, "R", &attrs, 5, 2, seed);
        // A PD over the first three attributes only.
        let pd = common::random_pd(&mut world.arena, &attrs[..3], 3, seed ^ 0xF00D);
        let full = relation_satisfies_pd(&relation, &world.arena, pd).unwrap();
        let projected = relation
            .project("P", &AttrSet::from(attrs[..3].to_vec()))
            .unwrap();
        let on_projection = relation_satisfies_pd(&projected, &world.arena, pd).unwrap();
        prop_assert_eq!(full, on_projection);
    }
}

/// Definition 5 read literally: for each attribute, group the tuple indices
/// by symbol and name each group by its symbol.  The empty relation has the
/// empty interpretation.
fn canonical_interpretation_by_blocks(relation: &Relation) -> PartitionInterpretation {
    let mut interpretation = PartitionInterpretation::new();
    if relation.is_empty() {
        return interpretation;
    }
    for attribute in relation.scheme().attrs().iter() {
        let mut blocks: BTreeMap<Symbol, Vec<u32>> = BTreeMap::new();
        for (idx, tuple) in relation.iter().enumerate() {
            blocks
                .entry(tuple.get(attribute).unwrap())
                .or_default()
                .push(idx as u32);
        }
        let named =
            AttributeInterpretation::from_named_blocks(attribute, blocks.into_iter().collect())
                .unwrap();
        interpretation.set(attribute, named);
    }
    interpretation
}

/// A relation of `rows` tuples over `arity` columns, each column drawn in
/// one of three shapes: all rows equal, all rows distinct, or values from a
/// domain of two or three symbols.
fn shaped_relation(world: &mut World, arity: usize, rows: usize, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let attrs = world.attrs(arity);
    let scheme = RelationScheme::new("R", attrs.clone());
    let shapes: Vec<usize> = (0..arity).map(|_| rng.gen_range(0..3usize)).collect();
    let mut relation = Relation::new(scheme.clone());
    for row in 0..rows {
        let mut values = vec![Symbol::from_index(0); arity];
        for (col, &attr) in attrs.iter().enumerate() {
            let v = match shapes[col] {
                0 => 0,
                1 => row,
                _ => rng.gen_range(0..2 + col % 2),
            };
            values[scheme.position(attr).unwrap()] = world.symbols.symbol(&format!("c{col}_v{v}"));
        }
        relation.insert_values(&values).unwrap();
    }
    relation
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The one-pass, column-wise `I(r)` equals the block-by-block reference,
    /// on empty, one-column, all-distinct and all-equal columns alike.
    #[test]
    fn prop_column_wise_canonical_interpretation_matches_the_block_reference(
        seed in 0u64..100_000,
        arity in 1usize..5,
        rows in 0usize..10,
    ) {
        let mut world = World::new();
        let relation = shaped_relation(&mut world, arity, rows, seed);
        let expected = canonical_interpretation_by_blocks(&relation);
        let actual = canonical_interpretation(&relation).unwrap();
        prop_assert_eq!(&actual, &expected);
        // The block-indexed names invert the naming, block for block.
        for attribute in actual.attributes() {
            let interp = actual.require(attribute).unwrap();
            let blocks = interp.atomic().num_blocks();
            let mut by_naming = vec![None; blocks];
            for (symbol, block) in interp.naming() {
                by_naming[block] = Some(symbol);
            }
            for (block, name) in by_naming.into_iter().enumerate() {
                prop_assert!(name.is_some());
                prop_assert_eq!(interp.symbol_of_block(block), name);
            }
            prop_assert_eq!(interp.symbol_of_block(blocks), None);
        }
    }
}

/// The corner shapes of the property above, named: the empty relation, one
/// column, an all-distinct column and an all-equal column.
#[test]
fn column_wise_canonical_interpretation_corner_cases() {
    let mut world = World::new();
    let empty = shaped_relation(&mut world, 2, 0, 1);
    assert!(canonical_interpretation(&empty).unwrap().is_empty());
    for seed in 0..30u64 {
        for (arity, rows) in [(1, 1), (1, 7), (3, 9)] {
            let relation = shaped_relation(&mut world, arity, rows, seed);
            assert_eq!(
                canonical_interpretation(&relation).unwrap(),
                canonical_interpretation_by_blocks(&relation),
                "seed {seed}, arity {arity}, rows {rows}"
            );
        }
    }
    let a = world.universe.attr("A");
    let scheme = RelationScheme::new("D", AttrSet::singleton(a));
    let (mut distinct, mut equal) = (Relation::new(scheme.clone()), Relation::new(scheme));
    for i in 0..6 {
        distinct
            .insert_values(&[world.symbols.symbol(&format!("d{i}"))])
            .unwrap();
    }
    equal.insert_values(&[world.symbols.symbol("e")]).unwrap();
    for (relation, blocks) in [(&distinct, 6), (&equal, 1)] {
        let interpretation = canonical_interpretation(relation).unwrap();
        assert_eq!(interpretation, canonical_interpretation_by_blocks(relation));
        assert_eq!(
            interpretation.require(a).unwrap().atomic().num_blocks(),
            blocks
        );
    }
}
