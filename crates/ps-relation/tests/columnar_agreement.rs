//! Property tests pinning the columnar kernel and the indexed chase to
//! row-oriented reference implementations.
//!
//! The references deliberately re-implement the pre-columnar semantics:
//! rows as materialized `Vec<Symbol>` lists with `Vec + HashSet` dedup,
//! quadratic double-loop FD checks, the triple-loop MVD check, and the
//! full-rescan chase ([`ps_relation::chase_tableau_naive`]).  Every public bulk
//! operation of the columnar [`Relation`] must agree with them on random
//! inputs, and the attribute closure's linear Beeri–Bernstein counter
//! algorithm must agree with the naïve fixpoint loop.

use std::collections::HashSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ps_base::{AttrSet, Attribute, Symbol, SymbolTable, Universe};
use ps_relation::{
    canonical_chase_rows, chase_tableau_naive, chase_tableau_with, fd_closure, ChaseScratch,
    Database, Fd, Mvd, Relation, RelationScheme, Tableau,
};

/// A random relation over `arity` attributes with `rows` candidate rows
/// drawn from a per-column domain of `domain` symbols (duplicates likely).
struct RandomRelation {
    universe: Universe,
    symbols: SymbolTable,
    attrs: Vec<Attribute>,
    relation: Relation,
    /// The raw candidate rows, in insertion order, duplicates included.
    raw_rows: Vec<Vec<Symbol>>,
}

fn random_relation(arity: usize, rows: usize, domain: usize, seed: u64) -> RandomRelation {
    let mut universe = Universe::new();
    let mut symbols = SymbolTable::new();
    let attrs: Vec<Attribute> = (0..arity)
        .map(|i| universe.attr(&format!("A{i}")))
        .collect();
    let scheme = RelationScheme::new("R", attrs.clone());
    let mut relation = Relation::new(scheme);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut raw_rows = Vec::new();
    for _ in 0..rows {
        let values: Vec<Symbol> = (0..arity)
            .map(|c| symbols.symbol(&format!("c{c}_v{}", rng.gen_range(0..domain))))
            .collect();
        relation.insert_values(&values).unwrap();
        raw_rows.push(values);
    }
    RandomRelation {
        universe,
        symbols,
        attrs,
        relation,
        raw_rows,
    }
}

/// A random non-empty subset of `attrs`.
fn random_attr_subset(attrs: &[Attribute], rng: &mut StdRng) -> AttrSet {
    loop {
        let set: AttrSet = attrs
            .iter()
            .filter(|_| rng.gen_bool(0.5))
            .copied()
            .collect();
        if !set.is_empty() {
            return set;
        }
    }
}

// ---------------------------------------------------------------------------
// Row-oriented references (the pre-columnar semantics).
// ---------------------------------------------------------------------------

/// Reference dedup: `Vec` for order, `HashSet` for membership.
fn ref_distinct_rows(raw: &[Vec<Symbol>]) -> Vec<Vec<Symbol>> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for row in raw {
        if seen.insert(row.clone()) {
            out.push(row.clone());
        }
    }
    out
}

/// Reference `t[X]`: values of the row under `attrs ∩ scheme`, in sorted
/// attribute order.
fn ref_project_row(scheme: &RelationScheme, row: &[Symbol], attrs: &AttrSet) -> Vec<Symbol> {
    attrs
        .iter()
        .filter_map(|a| scheme.position(a))
        .map(|p| row[p])
        .collect()
}

/// Reference projection: project every row, dedup in order.
fn ref_project(scheme: &RelationScheme, rows: &[Vec<Symbol>], attrs: &AttrSet) -> Vec<Vec<Symbol>> {
    let projected: Vec<Vec<Symbol>> = rows
        .iter()
        .map(|r| ref_project_row(scheme, r, attrs))
        .collect();
    ref_distinct_rows(&projected)
}

/// Reference FD check: the quadratic double loop.
fn ref_satisfies_fd(scheme: &RelationScheme, rows: &[Vec<Symbol>], fd: &Fd) -> bool {
    for i in 0..rows.len() {
        for j in (i + 1)..rows.len() {
            if ref_project_row(scheme, &rows[i], &fd.lhs)
                == ref_project_row(scheme, &rows[j], &fd.lhs)
                && ref_project_row(scheme, &rows[i], &fd.rhs)
                    != ref_project_row(scheme, &rows[j], &fd.rhs)
            {
                return false;
            }
        }
    }
    true
}

/// Reference MVD check: the triple loop over row pairs and witnesses.
fn ref_satisfies_mvd(scheme: &RelationScheme, rows: &[Vec<Symbol>], mvd: &Mvd) -> bool {
    let x = &mvd.lhs;
    let y = &mvd.rhs;
    let z = scheme.attrs().difference(&x.union(y));
    for t in rows {
        for h in rows {
            if ref_project_row(scheme, t, x) != ref_project_row(scheme, h, x) {
                continue;
            }
            let exists = rows.iter().any(|w| {
                ref_project_row(scheme, w, x) == ref_project_row(scheme, t, x)
                    && ref_project_row(scheme, w, y) == ref_project_row(scheme, t, y)
                    && ref_project_row(scheme, w, &z) == ref_project_row(scheme, h, &z)
            });
            if !exists {
                return false;
            }
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `insert` agrees with the Vec + HashSet reference: same distinct rows
    /// in the same insertion order, and `contains_values` matches set
    /// membership (including for rows never inserted).
    #[test]
    fn prop_insert_matches_row_reference(
        seed in 0u64..10_000,
        arity in 1usize..4,
        rows in 0usize..12,
        domain in 1usize..3,
    ) {
        let w = random_relation(arity, rows, domain, seed);
        let expected = ref_distinct_rows(&w.raw_rows);
        let actual: Vec<Vec<Symbol>> = w.relation.iter().map(|t| t.to_values()).collect();
        prop_assert_eq!(&actual, &expected);
        prop_assert_eq!(w.relation.len(), expected.len());
        prop_assert_eq!(
            w.relation.storage_cells(),
            w.relation.scheme().arity() * w.relation.len(),
            "columnar kernel must store each row exactly once"
        );
        let member: HashSet<Vec<Symbol>> = expected.iter().cloned().collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        let mut symbols = w.symbols.clone();
        for _ in 0..8 {
            let probe: Vec<Symbol> = (0..arity)
                .map(|c| symbols.symbol(&format!("c{c}_v{}", rng.gen_range(0..domain + 1))))
                .collect();
            prop_assert_eq!(w.relation.contains_values(&probe), member.contains(&probe));
        }
    }

    /// `project` agrees with project-every-row-then-dedup.
    #[test]
    fn prop_project_matches_row_reference(
        seed in 0u64..10_000,
        arity in 1usize..4,
        rows in 0usize..12,
    ) {
        let w = random_relation(arity, rows, 2, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFACADE);
        let attrs = random_attr_subset(&w.attrs, &mut rng);
        let distinct = ref_distinct_rows(&w.raw_rows);
        let expected = ref_project(w.relation.scheme(), &distinct, &attrs);
        let actual: Vec<Vec<Symbol>> = w
            .relation
            .project("P", &attrs)
            .unwrap()
            .iter()
            .map(|t| t.to_values())
            .collect();
        prop_assert_eq!(actual, expected);
        // active_domain of each column equals the distinct column values.
        for (pos, &attr) in w.attrs.iter().enumerate() {
            let mut seen = HashSet::new();
            let expected_domain: Vec<Symbol> = distinct
                .iter()
                .map(|r| r[pos])
                .filter(|&s| seen.insert(s))
                .collect();
            prop_assert_eq!(w.relation.active_domain(attr).unwrap(), expected_domain);
        }
    }

    /// The hash-grouped `satisfies_fd` agrees with the quadratic double loop,
    /// including FDs whose attributes fall partly or fully outside the
    /// scheme.
    #[test]
    fn prop_satisfies_fd_matches_quadratic_reference(
        seed in 0u64..10_000,
        arity in 1usize..4,
        rows in 0usize..12,
    ) {
        let mut w = random_relation(arity, rows, 2, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFD);
        // One attribute beyond the scheme, to exercise vacuous columns.
        let extra = w.universe.attr("Z");
        let mut pool = w.attrs.clone();
        pool.push(extra);
        let distinct = ref_distinct_rows(&w.raw_rows);
        for _ in 0..6 {
            let fd = Fd::new(
                random_attr_subset(&pool, &mut rng),
                random_attr_subset(&pool, &mut rng),
            );
            prop_assert_eq!(
                w.relation.satisfies_fd(&fd),
                ref_satisfies_fd(w.relation.scheme(), &distinct, &fd),
                "fd {}", fd.render(&w.universe)
            );
        }
    }

    /// The hash-grouped, cardinality-based `satisfies_mvd` agrees with the
    /// triple-loop reference.
    #[test]
    fn prop_satisfies_mvd_matches_triple_loop_reference(
        seed in 0u64..10_000,
        arity in 2usize..4,
        rows in 0usize..10,
    ) {
        let w = random_relation(arity, rows, 2, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3FD);
        let distinct = ref_distinct_rows(&w.raw_rows);
        for _ in 0..6 {
            let mvd = Mvd::new(
                random_attr_subset(&w.attrs, &mut rng),
                random_attr_subset(&w.attrs, &mut rng),
            );
            prop_assert_eq!(
                w.relation.satisfies_mvd(&mvd),
                ref_satisfies_mvd(w.relation.scheme(), &distinct, &mvd),
                "mvd {}", mvd.render(&w.universe)
            );
        }
    }

    /// The indexed worklist chase agrees with the full-rescan reference on
    /// random databases: same verdict, same chased rows up to null renaming
    /// (the FD chase is confluent), valid weak instances when consistent.
    #[test]
    fn prop_indexed_chase_matches_full_rescans(
        seed in 0u64..10_000,
        relations in 1usize..4,
        rows in 1usize..6,
        num_fds in 0usize..4,
    ) {
        let mut universe = Universe::new();
        let mut symbols = SymbolTable::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let attrs: Vec<Attribute> = (0..4).map(|i| universe.attr(&format!("A{i}"))).collect();
        let mut db = Database::new();
        for r in 0..relations {
            let subset = random_attr_subset(&attrs, &mut rng);
            let scheme = RelationScheme::new(format!("R{r}"), subset.clone());
            let mut relation = Relation::new(scheme.clone());
            for _ in 0..rows {
                let mut values = vec![Symbol::from_index(0); subset.len()];
                for a in subset.iter() {
                    values[scheme.position(a).unwrap()] =
                        symbols.symbol(&format!("a{}_v{}", a.index(), rng.gen_range(0..3)));
                }
                relation.insert_values(&values).unwrap();
            }
            db.add(relation);
        }
        let used: Vec<Attribute> = db.all_attributes().iter().collect();
        let fds: Vec<Fd> = (0..num_fds)
            .map(|_| {
                let lhs = used[rng.gen_range(0..used.len())];
                let rhs = used[rng.gen_range(0..used.len())];
                Fd::new(AttrSet::singleton(lhs), AttrSet::singleton(rhs))
            })
            .collect();

        let tableau = Tableau::from_database(&db, &db.all_attributes(), &mut symbols);
        let indexed = chase_tableau_with(&tableau, &fds, &mut ChaseScratch::default());
        let naive = chase_tableau_naive(&tableau, &fds);
        prop_assert_eq!(indexed.consistent, naive.consistent);
        match (&indexed.rows, &naive.rows) {
            (Some(a), Some(b)) => {
                prop_assert_eq!(
                    canonical_chase_rows(a, &symbols),
                    canonical_chase_rows(b, &symbols)
                );
                prop_assert_eq!(indexed.steps, naive.steps);
            }
            (None, None) => {}
            _ => prop_assert!(false, "verdicts agree but rows differ in presence"),
        }
        if let Some(w) = indexed.weak_instance("W", &db.all_attributes()) {
            prop_assert!(db.has_weak_instance(&w));
            prop_assert!(w.satisfies_all_fds(&fds));
        }
    }

    /// Buffer reuse never changes results: chasing a sequence of random
    /// databases through one shared [`ChaseScratch`] yields outcomes
    /// identical — verdict, rows, and every counter — to fresh-allocation
    /// runs, regardless of what the scratch held before.
    #[test]
    fn prop_chase_scratch_reuse_matches_fresh_runs(
        seed in 0u64..10_000,
        batches in 1usize..5,
        rows in 1usize..6,
        num_fds in 0usize..4,
    ) {
        let mut universe = Universe::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5C8A7C4);
        let attrs: Vec<Attribute> = (0..4).map(|i| universe.attr(&format!("A{i}"))).collect();
        let mut scratch = ChaseScratch::default();
        for batch in 0..batches {
            let mut symbols = SymbolTable::new();
            let mut db = Database::new();
            let relations = 1 + batch % 3;
            for r in 0..relations {
                let subset = random_attr_subset(&attrs, &mut rng);
                let scheme = RelationScheme::new(format!("R{r}"), subset.clone());
                let mut relation = Relation::new(scheme.clone());
                for _ in 0..rows {
                    let mut values = vec![Symbol::from_index(0); subset.len()];
                    for a in subset.iter() {
                        values[scheme.position(a).unwrap()] =
                            symbols.symbol(&format!("a{}_v{}", a.index(), rng.gen_range(0..3)));
                    }
                    relation.insert_values(&values).unwrap();
                }
                db.add(relation);
            }
            let used: Vec<Attribute> = db.all_attributes().iter().collect();
            let fds: Vec<Fd> = (0..num_fds)
                .map(|_| {
                    let lhs = used[rng.gen_range(0..used.len())];
                    let rhs = used[rng.gen_range(0..used.len())];
                    Fd::new(AttrSet::singleton(lhs), AttrSet::singleton(rhs))
                })
                .collect();

            let tableau = Tableau::from_database(&db, &db.all_attributes(), &mut symbols);
            let reused = chase_tableau_with(&tableau, &fds, &mut scratch);
            let fresh = chase_tableau_with(&tableau, &fds, &mut ChaseScratch::default());
            prop_assert_eq!(reused.consistent, fresh.consistent);
            prop_assert_eq!(reused.steps, fresh.steps);
            prop_assert_eq!(reused.rounds, fresh.rounds);
            prop_assert_eq!(reused.row_visits, fresh.row_visits);
            match (&reused.rows, &fresh.rows) {
                (Some(a), Some(b)) => prop_assert_eq!(a, b),
                (None, None) => {}
                _ => prop_assert!(false, "verdicts agree but rows differ in presence"),
            }
        }
    }

    /// Satellite: the linear Beeri–Bernstein attribute closure agrees with
    /// the naïve quadratic fixpoint on random FD sets.
    #[test]
    fn prop_attribute_closure_matches_naive_loop(
        seed in 0u64..10_000,
        num_attrs in 2usize..7,
        num_fds in 0usize..8,
    ) {
        let mut universe = Universe::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let attrs: Vec<Attribute> = (0..num_attrs)
            .map(|i| universe.attr(&format!("A{i}")))
            .collect();
        let fds: Vec<Fd> = (0..num_fds)
            .map(|_| {
                Fd::new(
                    random_attr_subset(&attrs, &mut rng),
                    random_attr_subset(&attrs, &mut rng),
                )
            })
            .collect();
        let start = random_attr_subset(&attrs, &mut rng);
        prop_assert_eq!(
            fd_closure::attribute_closure(&fds, &start),
            fd_closure::attribute_closure_naive(&fds, &start)
        );
    }
}
