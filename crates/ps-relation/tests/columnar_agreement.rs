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

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ps_base::{AttrSet, Attribute, Symbol, SymbolTable, Universe};
use ps_relation::{
    canonical_chase_rows, chase_tableau_naive, chase_tableau_verdict, chase_tableau_with,
    fd_closure, ChaseScratch, Database, Fd, Mvd, Relation, RelationScheme, Tableau,
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

/// A random insert sequence over `arity` columns: `len` rows drawn from a
/// per-column pool of `domain` constants and `domain` nulls, so rows and
/// cells repeat.
fn random_insert_sequence(
    symbols: &mut SymbolTable,
    arity: usize,
    len: usize,
    domain: usize,
    rng: &mut StdRng,
) -> Vec<Vec<Symbol>> {
    let pools: Vec<Vec<Symbol>> = (0..arity)
        .map(|c| {
            let mut pool: Vec<Symbol> = (0..domain)
                .map(|v| symbols.symbol(&format!("c{c}_v{v}")))
                .collect();
            pool.extend((0..domain).map(|_| symbols.fresh()));
            pool
        })
        .collect();
    (0..len)
        .map(|_| {
            pools
                .iter()
                .map(|pool| pool[rng.gen_range(0..pool.len())])
                .collect()
        })
        .collect()
}

/// Reference first-occurrence labels of one column, by hashing.
fn ref_hash_labels(column: impl Iterator<Item = Symbol>) -> (Vec<u32>, Vec<Symbol>) {
    let mut label_of: HashMap<Symbol, u32> = HashMap::new();
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

/// Inserts `rows` one by one into a new relation over `scheme`, checking
/// each `insert_values` answer against a `Vec` + `HashSet` model; returns
/// the relation and the model's rows.
fn insert_against_model(
    scheme: &RelationScheme,
    rows: &[Vec<Symbol>],
) -> (Relation, Vec<Vec<Symbol>>) {
    let mut relation = Relation::new(scheme.clone());
    let mut model: Vec<Vec<Symbol>> = Vec::new();
    let mut seen: HashSet<Vec<Symbol>> = HashSet::new();
    for row in rows {
        prop_assert_eq!(relation.contains_values(row), seen.contains(row));
        let new = seen.insert(row.clone());
        if new {
            model.push(row.clone());
        }
        prop_assert_eq!(relation.insert_values(row).unwrap(), new);
        prop_assert!(relation.contains_values(row));
        prop_assert_eq!(relation.len(), model.len());
    }
    (relation, model)
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

/// One random chase input: a tableau, the FDs to chase it with, the
/// symbol table its constants live in, and — for the database arm — the
/// database the tableau pads.
struct ChaseCase {
    symbols: SymbolTable,
    tableau: Tableau,
    fds: Vec<Fd>,
    db: Option<Database>,
}

/// A random chase input over `attrs` (four attributes).
///
/// Half the cases pad a random database of `relations` relations with
/// `rows` rows each; the padding cells are the engine's lone cells.  In
/// half of those, the relations hold nulls of their own in some cells, some
/// repeated across rows and columns and some used once: cells a relation
/// holds are interned like constants and are never lone.  The other cases
/// build a tableau of as many rows directly, whose lone cells the tableau
/// finds by counting.  In half of those, three cells in four are nulls that
/// repeat across rows and columns, minted either contiguously or a
/// thousand indices apart.  In the other half, nulls used in one cell only
/// (lone cells) sit beside nulls that repeat, and one column holds mostly
/// lone nulls; an extra FD keys that column together with another, so its
/// pairs wait for a merge to reach the lone cell.
/// Constants are drawn from a per-column pool or from a pool shared by all
/// columns.  FDs have one- or two-column left-hand sides.  About one case
/// in three puts 60 to 64 trivial FDs (`A → A`) first, so the FDs that do
/// work sit across the boundary of the engine's 64-bit pending words.
fn random_chase_case(
    attrs: &[Attribute],
    relations: usize,
    rows: usize,
    num_fds: usize,
    rng: &mut StdRng,
) -> ChaseCase {
    let mut symbols = SymbolTable::new();
    let constant = |symbols: &mut SymbolTable, rng: &mut StdRng, attr: Attribute| {
        if rng.gen_bool(0.3) {
            symbols.symbol(&format!("v{}", rng.gen_range(0..3)))
        } else {
            symbols.symbol(&format!("a{}_v{}", attr.index(), rng.gen_range(0..3)))
        }
    };
    let all: AttrSet = attrs.iter().copied().collect();
    let (tableau, db, lone_column) = if rng.gen_bool(0.5) {
        // Nulls a relation holds, when it holds any: a pool of repeated
        // ones beside nulls minted for one cell.
        let pool: Vec<Symbol> = if rng.gen_bool(0.5) {
            (0..1 + rng.gen_range(0..3))
                .map(|_| symbols.fresh())
                .collect()
        } else {
            Vec::new()
        };
        let mut db = Database::new();
        for r in 0..relations {
            let subset = random_attr_subset(attrs, rng);
            let scheme = RelationScheme::new(format!("R{r}"), subset.clone());
            let mut relation = Relation::new(scheme.clone());
            for _ in 0..rows {
                let mut values = vec![Symbol::from_index(0); subset.len()];
                for a in subset.iter() {
                    values[scheme.position(a).unwrap()] = if !pool.is_empty() && rng.gen_bool(0.4) {
                        if rng.gen_bool(0.5) {
                            pool[rng.gen_range(0..pool.len())]
                        } else {
                            symbols.fresh()
                        }
                    } else {
                        constant(&mut symbols, rng, a)
                    };
                }
                relation.insert_values(&values).unwrap();
            }
            db.add(relation);
        }
        let tableau = Tableau::from_database(&db, &db.all_attributes(), &mut symbols);
        // The chase may equate a relation's own null with a constant, so a
        // weak instance need not hold such a relation's tuples verbatim.
        let db = pool.is_empty().then_some(db);
        (tableau, db, None)
    } else if rng.gen_bool(0.5) {
        let spread: usize = if rng.gen_bool(0.5) { 1 } else { 1_000 };
        let pool = 1 + rng.gen_range(0..12usize);
        let nulls: Vec<Symbol> = (0..pool * spread)
            .map(|_| symbols.fresh())
            .step_by(spread)
            .collect();
        let table = (0..relations * rows)
            .map(|_| {
                all.iter()
                    .map(|a| {
                        if rng.gen_bool(0.75) {
                            nulls[rng.gen_range(0..nulls.len())]
                        } else {
                            constant(&mut symbols, rng, a)
                        }
                    })
                    .collect()
            })
            .collect();
        (Tableau::from_rows(all, table), None, None)
    } else {
        // At most four repeated nulls beside nulls minted for one cell
        // each, which the tableau counts as its padding.
        let lone_column = rng.gen_range(0..all.len());
        let pool: Vec<Symbol> = (0..1 + rng.gen_range(0..4))
            .map(|_| symbols.fresh())
            .collect();
        let table = (0..relations * rows)
            .map(|_| {
                all.iter()
                    .enumerate()
                    .map(|(c, a)| {
                        if c == lone_column && rng.gen_bool(0.8) {
                            return symbols.fresh();
                        }
                        match rng.gen_range(0..3) {
                            0 => symbols.fresh(),
                            1 => pool[rng.gen_range(0..pool.len())],
                            _ => constant(&mut symbols, rng, a),
                        }
                    })
                    .collect()
            })
            .collect();
        let lone = all.as_slice()[lone_column];
        (Tableau::from_rows(all, table), None, Some(lone))
    };
    let used: Vec<Attribute> = tableau.attrs().iter().collect();
    let trivial = if rng.gen_bool(0.3) {
        rng.gen_range(60..65)
    } else {
        0
    };
    let mut fds: Vec<Fd> = (0..trivial)
        .map(|_| {
            let a = AttrSet::singleton(used[rng.gen_range(0..used.len())]);
            Fd::new(a.clone(), a)
        })
        .collect();
    fds.extend((0..num_fds).map(|_| {
        let mut lhs = AttrSet::singleton(used[rng.gen_range(0..used.len())]);
        if rng.gen_bool(0.3) {
            lhs.insert(used[rng.gen_range(0..used.len())]);
        }
        let rhs = used[rng.gen_range(0..used.len())];
        Fd::new(lhs, AttrSet::singleton(rhs))
    }));
    if let Some(lone) = lone_column {
        let others: Vec<Attribute> = used.iter().copied().filter(|&a| a != lone).collect();
        let mut lhs = AttrSet::singleton(lone);
        lhs.insert(others[rng.gen_range(0..others.len())]);
        let rhs = used[rng.gen_range(0..used.len())];
        fds.push(Fd::new(lhs, AttrSet::singleton(rhs)));
    }
    ChaseCase {
        symbols,
        tableau,
        fds,
        db,
    }
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

    /// The dictionary-encoded relation agrees with a `Vec<Vec<Symbol>>` +
    /// `HashSet` model over insert sequences with repeated rows and cells,
    /// constants and nulls: every `insert_values` and `contains_values`
    /// answer, `len` and `row_values`; each column's codes and dictionary
    /// are the first-occurrence hash labels of the model's column; and
    /// `==` holds exactly when the two row sequences are equal (a second
    /// sequence replays the first with repeats appended, reordered, or
    /// drawn anew).
    #[test]
    fn prop_dictionary_relation_matches_row_model(
        seed in 0u64..10_000,
        arity in 1usize..4,
        len in 0usize..24,
        domain in 1usize..4,
    ) {
        let mut universe = Universe::new();
        let mut symbols = SymbolTable::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let attrs: Vec<Attribute> = (0..arity).map(|i| universe.attr(&format!("A{i}"))).collect();
        let scheme = RelationScheme::new("R", attrs);
        let rows = random_insert_sequence(&mut symbols, arity, len, domain, &mut rng);
        let (relation, model) = insert_against_model(&scheme, &rows);
        for (idx, row) in model.iter().enumerate() {
            prop_assert_eq!(&relation.row_values(idx), row);
        }
        prop_assert_eq!(relation.storage_cells(), arity * model.len());
        for pos in 0..arity {
            let (labels, names) = ref_hash_labels(model.iter().map(|row| row[pos]));
            prop_assert_eq!(relation.codes(pos), labels.as_slice());
            prop_assert_eq!(relation.dictionary(pos), names.as_slice());
        }
        // Probes never inserted, some with a symbol no column holds.
        for probe in random_insert_sequence(&mut symbols, arity, 4, domain + 1, &mut rng) {
            prop_assert_eq!(relation.contains_values(&probe), model.contains(&probe));
        }

        let mut replay = rows.clone();
        match rng.gen_range(0..3) {
            0 if !rows.is_empty() => {
                for _ in 0..rng.gen_range(0..4) {
                    replay.push(rows[rng.gen_range(0..rows.len())].clone());
                }
            }
            1 => {
                for i in (1..replay.len()).rev() {
                    replay.swap(i, rng.gen_range(0..i + 1));
                }
            }
            _ => replay = random_insert_sequence(&mut symbols, arity, len, domain, &mut rng),
        }
        let (other, other_model) = insert_against_model(&scheme, &replay);
        prop_assert_eq!(relation == other, model == other_model);
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

proptest! {
    // The chase properties draw more cases: most random inputs settle in
    // one pass, and the ones that need a re-examination are what they pin.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The indexed worklist chase agrees with the full-rescan reference on
    /// random inputs (see [`random_chase_case`]): same verdict, same chased
    /// rows up to null renaming (the FD chase is confluent) and the same
    /// number of merges when consistent, valid weak instances when
    /// consistent.
    #[test]
    fn prop_indexed_chase_matches_full_rescans(
        seed in 0u64..10_000,
        relations in 1usize..4,
        rows in 1usize..6,
        num_fds in 0usize..8,
    ) {
        let mut universe = Universe::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let attrs: Vec<Attribute> = (0..4).map(|i| universe.attr(&format!("A{i}"))).collect();
        let case = random_chase_case(&attrs, relations, rows, num_fds, &mut rng);
        let (tableau, fds, symbols) = (&case.tableau, &case.fds, &case.symbols);

        let indexed = chase_tableau_with(tableau, fds, &mut ChaseScratch::default());
        let naive = chase_tableau_naive(tableau, fds);
        prop_assert_eq!(indexed.consistent, naive.consistent);
        match (&indexed.rows(), &naive.rows()) {
            (Some(a), Some(b)) => {
                prop_assert_eq!(
                    canonical_chase_rows(a, symbols),
                    canonical_chase_rows(b, symbols)
                );
                prop_assert_eq!(indexed.steps, naive.steps);
            }
            (None, None) => {}
            _ => prop_assert!(false, "verdicts agree but rows differ in presence"),
        }
        if let Some(w) = indexed.weak_instance("W", tableau.attrs()) {
            if let Some(db) = &case.db {
                prop_assert!(db.has_weak_instance(&w));
            }
            prop_assert!(w.satisfies_all_fds(fds));
            // The codes the chase wrote are exactly the ones the public
            // insert path assigns to the same rows.
            let mut reinserted = Relation::new(w.scheme().clone());
            for row in w.iter() {
                prop_assert!(reinserted.insert_values(&row.to_values()).unwrap());
            }
            prop_assert_eq!(&reinserted, &w);
        }
    }

    /// The verdict exit runs the witness exit's fixpoint loop and stops at
    /// its verdict: on random inputs (see [`random_chase_case`]) it reports
    /// the verdict, `steps` and `row_visits` of [`chase_tableau_with`], and
    /// the verdict of the full-rescan reference.  One scratch serves both
    /// exits in turn, so neither depends on what the other left behind.
    #[test]
    fn prop_chase_verdict_matches_both_engines(
        seed in 0u64..10_000,
        relations in 1usize..4,
        rows in 1usize..6,
        num_fds in 0usize..8,
    ) {
        let mut universe = Universe::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1C7);
        let attrs: Vec<Attribute> = (0..4).map(|i| universe.attr(&format!("A{i}"))).collect();
        let mut scratch = ChaseScratch::default();
        for _ in 0..2 {
            let case = random_chase_case(&attrs, relations, rows, num_fds, &mut rng);
            let verdict = chase_tableau_verdict(&case.tableau, &case.fds, &mut scratch);
            let labelled = chase_tableau_with(&case.tableau, &case.fds, &mut scratch);
            prop_assert_eq!(
                (verdict.consistent, verdict.steps, verdict.row_visits),
                (labelled.consistent, labelled.steps, labelled.row_visits)
            );
            prop_assert_eq!(
                verdict,
                chase_tableau_verdict(&case.tableau, &case.fds, &mut ChaseScratch::default())
            );
            let naive = chase_tableau_naive(&case.tableau, &case.fds);
            prop_assert_eq!(verdict.consistent, naive.consistent);
        }
    }

    /// Buffer reuse never changes results: chasing a sequence of random
    /// inputs (see [`random_chase_case`]) through one shared
    /// [`ChaseScratch`] yields outcomes identical — verdict, rows, and every
    /// counter — to fresh-allocation runs, regardless of what the scratch
    /// held before.
    #[test]
    fn prop_chase_scratch_reuse_matches_fresh_runs(
        seed in 0u64..10_000,
        batches in 1usize..5,
        rows in 1usize..6,
        num_fds in 0usize..8,
    ) {
        let mut universe = Universe::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5C8A7C4);
        let attrs: Vec<Attribute> = (0..4).map(|i| universe.attr(&format!("A{i}"))).collect();
        let mut scratch = ChaseScratch::default();
        for batch in 0..batches {
            let case = random_chase_case(&attrs, 1 + batch % 3, rows, num_fds, &mut rng);
            let reused = chase_tableau_with(&case.tableau, &case.fds, &mut scratch);
            let fresh = chase_tableau_with(&case.tableau, &case.fds, &mut ChaseScratch::default());
            prop_assert_eq!(reused.consistent, fresh.consistent);
            prop_assert_eq!(reused.steps, fresh.steps);
            prop_assert_eq!(reused.rounds, fresh.rounds);
            prop_assert_eq!(reused.row_visits, fresh.row_visits);
            match (&reused.rows(), &fresh.rows()) {
                (Some(a), Some(b)) => prop_assert_eq!(a, b),
                (None, None) => {}
                _ => prop_assert!(false, "verdicts agree but rows differ in presence"),
            }
        }
    }
}
