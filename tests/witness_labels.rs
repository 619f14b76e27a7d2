//! Differential tests for the Theorem 12 witness path, which keeps the
//! weak-instance relation the chase writes, code by code, from the fixpoint
//! to `I(w)`.
//!
//! The reference is the symbol-level composition: the chased rows
//! (`ChaseOutcome::rows`) inserted one by one into a `Relation`, so its
//! codes come from `insert_values`, then the pinned Lemma 12.1 reference
//! `repair_sum_violations_naive` and `canonical_interpretation`, all
//! minting from a clone of the null source the path under test uses.  The
//! weak-instance relation must be byte-identical (codes and dictionaries),
//! and the `RepairStatus` and `I(w)` equal, on the session, snapshot and
//! `weak_instance_many_par` paths.  Both sides build `I(w)` with the same
//! builder; `canonical_props`' block-by-block reference is the independent
//! check of that builder.
//!
//! The generator reaches the three shapes the chase's coding treats
//! specially:
//! sums whose repair adds bridges, the same all-constant tuple in two
//! relations (two chased rows that coincide and are kept once), and a
//! database holding an old null, which the chase interns like a constant
//! however far its index lies from the padding nulls'.

mod common;

use common::World;
use partition_semantics::base::{FreshSymbols, NullSource};
use partition_semantics::core::consistency::{
    close_constraints, consistent_with_closed, normalize_pds, repair_sum_violations_naive,
    ClosedConstraints,
};
use partition_semantics::core::weak_bridge::{RepairStatus, SatisfiabilityWitness};
use partition_semantics::prelude::*;
use partition_semantics::relation::{canonical_chase_rows, ChaseScratch};
use partition_semantics::session::{ConstraintSetId, Session};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One generated problem: a warm session with one registered set, the
/// set's closed system (recomputed from clones of the session's catalogs)
/// and a batch of databases.
struct Case {
    session: Session,
    set: ConstraintSetId,
    closed: ClosedConstraints,
    dbs: Vec<Database>,
}

/// Three attributes `A0`–`A2` under `fpds` random PDs `Ai = Ai*Aj`, and
/// `sums` sums `Ck = Bk + Dk`, each over its own attributes.  Each of the
/// `batch` databases holds two random relations over the `A`s
/// (`common::random_database`), one relation per sum whose four rows draw
/// `Bk` from three values, take a new `Dk` each and the `Ck` of their `Bk`
/// (two `Bk` share a `Ck` without a chain, so the repair must bridge), and
/// one tuple over every attribute repeated in two relations.  Each
/// database also holds an old null; with `sparse` it is minted 4096 nulls
/// before the padding, so the tableau's nulls lie far apart.
fn case(seed: u64, sums: usize, fpds: usize, batch: usize, sparse: bool) -> Case {
    let mut world = World::new();
    let a_attrs = world.attrs(3);
    let mut rng = StdRng::seed_from_u64(seed);
    let old_null = world.symbols.fresh();
    if sparse {
        for _ in 0..4096 {
            world.symbols.fresh();
        }
    }
    let mut texts = Vec::new();
    for _ in 0..fpds {
        let (x, y) = (rng.gen_range(0..3), rng.gen_range(0..3));
        texts.push(format!("A{x} = A{x}*A{y}"));
    }
    let mut sum_attrs = Vec::new();
    for k in 0..sums {
        texts.push(format!("C{k} = B{k}+D{k}"));
        sum_attrs.push(["B", "D", "C"].map(|p| world.universe.attr(&format!("{p}{k}"))));
    }
    let pds: Vec<Equation> = texts
        .iter()
        .map(|t| parse_equation(t, &mut world.universe, &mut world.arena).unwrap())
        .collect();
    let all_attrs: Vec<Attribute> = a_attrs
        .iter()
        .copied()
        .chain(sum_attrs.iter().flatten().copied())
        .collect();
    let dbs: Vec<Database> = (0..batch as u64)
        .map(|i| {
            let db_seed = seed.wrapping_mul(7919).wrapping_add(i);
            let mut db = common::random_database(&mut world, &a_attrs, 2, 3, 4, db_seed);
            for (k, attrs) in sum_attrs.iter().enumerate() {
                let scheme = RelationScheme::new(format!("T{k}"), attrs.to_vec());
                let pos = attrs.map(|a| scheme.position(a).unwrap());
                let mut relation = Relation::new(scheme);
                for j in 0..4 {
                    // `Ck = Bk + Dk` implies `Bk → Ck` and `Dk → Ck`, so `Ck`
                    // follows `Bk`, and `Dk` is new on every row.
                    let b = rng.gen_range(0..3);
                    let mut values = vec![old_null; 3];
                    values[pos[0]] = world.symbols.symbol(&format!("b{k}_{b}"));
                    values[pos[1]] = world.symbols.symbol(&format!("d{k}_{j}"));
                    values[pos[2]] = world.symbols.symbol(&format!("c{k}_{}", b % 2));
                    relation.insert_values(&values).unwrap();
                }
                db.add(relation);
            }
            let scheme = RelationScheme::new("W0", all_attrs.clone());
            let tuple: Vec<Symbol> = (0..all_attrs.len())
                .map(|c| world.symbols.symbol(&format!("w{}_{c}", db_seed % 3)))
                .collect();
            for name in ["W0", "W1"] {
                let mut twin = Relation::new(RelationScheme::new(name, scheme.attrs().clone()));
                twin.insert_values(&tuple).unwrap();
                db.add(twin);
            }
            if sparse {
                let scheme = RelationScheme::new("N", a_attrs[..2].to_vec());
                let mut holder = Relation::new(scheme);
                let a = world.symbols.symbol("n_a");
                holder.insert_values(&[a, old_null]).unwrap();
                db.add(holder);
            }
            db
        })
        .collect();
    let (mut universe, mut arena) = (world.universe.clone(), world.arena.clone());
    let mut session = Session::from_parts(world.universe, world.symbols, world.arena);
    let set = session.register(&pds).unwrap();
    // Warm the set's closure, as the snapshot freeze would.
    session.weak_instance(set, &dbs[0]).unwrap();
    let closed = close_constraints(&normalize_pds(&pds, &mut arena, &mut universe), &mut arena);
    Case {
        session,
        set,
        closed,
        dbs,
    }
}

/// What the reference composition builds for one database: the witness
/// fields plus, for the coverage test, the chased tableau's row count.
struct Reference {
    weak_instance: Option<Relation>,
    interpretation: Option<PartitionInterpretation>,
    repair: RepairStatus,
    satisfiable: bool,
    tableau_rows: usize,
}

/// The symbol-level composition: chased rows → `Relation::insert_values`
/// → `repair_sum_violations_naive` → `I(w)`.
fn reference(closed: &ClosedConstraints, db: &Database, nulls: &mut impl NullSource) -> Reference {
    let outcome = consistent_with_closed(db, closed, nulls, &mut ChaseScratch::default());
    let Some(rows) = outcome.chase.rows() else {
        return Reference {
            weak_instance: None,
            interpretation: None,
            repair: RepairStatus::default(),
            satisfiable: false,
            tableau_rows: 0,
        };
    };
    let mut chased = Relation::new(RelationScheme::new(
        "weak_instance",
        outcome.attributes.clone(),
    ));
    for row in &rows {
        chased.insert_values(row).unwrap();
    }
    let budget = (chased.len() * closed.sums.len()).max(64);
    let (repaired, converged) =
        repair_sum_violations_naive(&chased, &closed.fds, &closed.sums, nulls, budget);
    let repair = RepairStatus {
        converged,
        bridges: repaired.len() - chased.len(),
    };
    let interpretation = converged.then(|| canonical_interpretation(&repaired).unwrap());
    Reference {
        weak_instance: converged.then_some(repaired),
        interpretation,
        repair,
        satisfiable: true,
        tableau_rows: rows.len(),
    }
}

fn assert_matches(got: &SatisfiabilityWitness, want: &Reference, label: &str) {
    assert_eq!(got.satisfiable, want.satisfiable, "{label}: verdict");
    assert_eq!(got.repair, want.repair, "{label}: repair status");
    assert_eq!(
        got.weak_instance, want.weak_instance,
        "{label}: weak instance"
    );
    assert_eq!(got.interpretation, want.interpretation, "{label}: I(w)");
}

/// The witness's rows with nulls renamed to first-occurrence order.
fn canonical_rows(
    witness: &SatisfiabilityWitness,
    symbols: &SymbolTable,
) -> Option<Vec<Vec<String>>> {
    let w = witness.weak_instance.as_ref()?;
    let rows: Vec<Vec<Symbol>> = w.iter().map(|t| t.to_values()).collect();
    Some(canonical_chase_rows(&rows, symbols))
}

/// Runs every path against the reference; returns one reference per
/// database (from the session path) for the coverage test.
fn check_case(case: &mut Case, label: &str) -> Vec<Reference> {
    let mut references = Vec::new();
    // Session path: the session mints from its own table, which keeps the
    // nulls of a handed-out witness and gives back those of any other
    // answer.
    for (i, db) in case.dbs.iter().enumerate() {
        let before = case.session.symbols().num_fresh();
        let mut nulls = case.session.symbols().clone();
        let want = reference(&case.closed, db, &mut nulls);
        let got = case.session.weak_instance(case.set, db).unwrap().value;
        assert_matches(&got, &want, &format!("{label}, session, db {i}"));
        let expected = if want.weak_instance.is_some() {
            nulls.num_fresh()
        } else {
            before
        };
        assert_eq!(
            case.session.symbols().num_fresh(),
            expected,
            "{label}, session, db {i}: minted nulls"
        );
        references.push(want);
    }

    // Snapshot path, and a one-worker batch through the executor: both mint
    // from one detached source, database after database.
    let snapshot = case.session.snapshot(case.set).unwrap();
    let mut want_nulls: FreshSymbols = snapshot.symbols().fresh_source();
    let want: Vec<Reference> = case
        .dbs
        .iter()
        .map(|db| reference(&case.closed, db, &mut want_nulls))
        .collect();
    let mut fresh = snapshot.symbols().fresh_source();
    let mut scratch = ChaseScratch::default();
    for (i, (db, want)) in case.dbs.iter().zip(&want).enumerate() {
        let (got, _) = snapshot
            .weak_instance(db, &mut fresh, &mut scratch)
            .unwrap();
        assert_matches(&got, want, &format!("{label}, snapshot, db {i}"));
    }
    let batch = ParallelExecutor::new(1)
        .weak_instance_many_par(&snapshot, &case.dbs)
        .unwrap();
    for (i, (got, want)) in batch.value.iter().zip(&want).enumerate() {
        assert_matches(got, want, &format!("{label}, one-worker batch, db {i}"));
    }

    // Several workers mint from one source each, so their nulls depend on
    // the claim order: the witnesses agree up to null renaming.
    let batch = ParallelExecutor::new(3)
        .weak_instance_many_par(&snapshot, &case.dbs)
        .unwrap();
    for (i, (got, want)) in batch.value.iter().zip(&want).enumerate() {
        let label = format!("{label}, three-worker batch, db {i}");
        assert_eq!(got.satisfiable, want.satisfiable, "{label}: verdict");
        assert_eq!(got.repair, want.repair, "{label}: repair status");
        let want_rows = want.weak_instance.as_ref().map(|w| {
            let rows: Vec<Vec<Symbol>> = w.iter().map(|t| t.to_values()).collect();
            canonical_chase_rows(&rows, snapshot.symbols())
        });
        assert_eq!(
            canonical_rows(got, snapshot.symbols()),
            want_rows,
            "{label}: rows"
        );
    }
    references
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random sum and FPD sets over random databases with twinned
    /// all-constant tuples, with the database's own null near or far from
    /// the padding nulls: the coded witness path equals the symbol-level
    /// reference on every path.
    #[test]
    fn prop_labeled_witness_matches_the_symbol_reference(
        seed in 0u64..100_000,
        sums in 1usize..3,
        fpds in 0usize..3,
        batch in 1usize..4,
        sparse in 0u8..2,
    ) {
        let mut case = case(seed, sums, fpds, batch, sparse == 1);
        check_case(&mut case, &format!("seed {seed}"));
    }
}

/// The generator reaches what the chase's coding treats specially:
/// repairs that bridge, chased rows dropped as duplicates, and tableaux
/// whose nulls lie far apart.
#[test]
fn generated_cases_cover_bridges_duplicate_rows_and_sparse_nulls() {
    let (mut bridged, mut deduplicated, mut sparse_runs) = (0, 0, 0);
    for seed in 0..60u64 {
        let sparse = seed % 2 == 1;
        let mut case = case(
            seed,
            1 + (seed % 2) as usize,
            (seed % 3) as usize,
            2,
            sparse,
        );
        for r in check_case(&mut case, &format!("seed {seed}")) {
            bridged += usize::from(r.repair.bridges > 0);
            deduplicated += usize::from(
                r.weak_instance
                    .as_ref()
                    .is_some_and(|w| w.len() - r.repair.bridges < r.tableau_rows),
            );
            sparse_runs += usize::from(sparse && r.satisfiable);
        }
    }
    assert!(bridged > 20, "only {bridged} witnesses needed a bridge");
    assert!(
        deduplicated > 20,
        "only {deduplicated} witnesses dropped a chased row"
    );
    assert!(
        sparse_runs > 20,
        "only {sparse_runs} satisfiable runs had sparse nulls"
    );
}
