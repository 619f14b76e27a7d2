//! Workload generators and the benchmark trajectory suite.
//!
//! Every generator is deterministic in an explicit seed so runs are
//! reproducible.  Timings live in one place: the [`trajectory`] suite, whose
//! reports (`BENCH_*.json`) are committed and diffed.  Each experiment id
//! maps to the trajectory record or the test that carries it:
//!
//! | Experiment | Trajectory record / test | Paper claim being reproduced |
//! |---|---|---|
//! | E1 | `alg_engine_vs_fixpoint`, `implication_skewed_mix` | Theorem 9: PD implication in polynomial time (ALG) |
//! | E2 | `tests/implication_props.rs` | Section 5.3: FD implication three ways |
//! | E3 | `identity_batch`; `tests/implication_props.rs` | Theorem 10: identity recognition |
//! | E4 | `connectivity_gnp`; `tests/graph_pd.rs` | Example e / Theorem 4: PDs express connectivity |
//! | E5 | `consistency_polynomial_warm`, `weak_instance_witness`, `chase_worklist_vs_rescan`, `chase_scratch_reuse` | Theorems 6, 7, 12: polynomial consistency tests |
//! | E6 / F3 | `cad_eap_batch`; `tests/figure3_np.rs` | Theorem 11: CAD+EAP consistency is NP-complete |
//! | F1, F2 | `tests/figure1.rs`, `tests/figure2_mvd.rs` | Figures 1 and 2 regenerated from scratch |
//! | E7 | `alg_engine_vs_fixpoint`; `ps-partition/tests/{partition_properties,flat_kernel_agreement}.rs` | Design-choice ablations (naïve-fixpoint vs engine ALG, sum via chaining vs union–find, bulk ops) |
//! | E8 | this crate's unit tests (rule-firing counters) | Cached `ImplicationEngine`: build-once-query-many vs rebuild-per-goal |
//! | E9 | `tests/session_props.rs` | Session facade: warm cached-engine queries vs cold sessions |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod trajectory;

/// The dependency-free JSON tree (re-exported from [`ps_base::json`], its
/// shared home since the `ps-server` wire protocol also speaks it); the
/// trajectory reports keep reading and writing through `ps_bench::json`.
pub use ps_base::json;

use ps_base::{AttrSet, Attribute, SymbolTable, Universe};
use ps_core::Fpd;
use ps_lattice::{Equation, TermArena, TermId};
use ps_relation::{Database, Fd, Relation, RelationScheme};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A prepared implication instance: a constraint set `E` and a goal.
pub struct ImplicationWorkload {
    /// Attribute universe.
    pub universe: Universe,
    /// Term arena holding all expressions.
    pub arena: TermArena,
    /// The constraint set `E`.
    pub equations: Vec<Equation>,
    /// The goal PD (implied by `E` for the chain workloads).
    pub goal: Equation,
}

/// A chain of FPDs `A_0 ≤ A_1 ≤ … ≤ A_{n-1}` with the transitive goal
/// `A_0 ≤ A_{n-1}` — the classic FD-style workload for experiment E1 (the
/// `alg_engine_vs_fixpoint` trajectory record).
pub fn fpd_chain(n: usize) -> ImplicationWorkload {
    assert!(n >= 2);
    let mut universe = Universe::new();
    let mut arena = TermArena::new();
    let attrs: Vec<Attribute> = (0..n).map(|i| universe.attr(&format!("A{i}"))).collect();
    let equations: Vec<Equation> = (0..n - 1)
        .map(|i| {
            let a = arena.atom(attrs[i]);
            let b = arena.atom(attrs[i + 1]);
            let ab = arena.meet(a, b);
            Equation::new(a, ab)
        })
        .collect();
    let first = arena.atom(attrs[0]);
    let last = arena.atom(attrs[n - 1]);
    let goal_rhs = arena.meet(first, last);
    let goal = Equation::new(first, goal_rhs);
    ImplicationWorkload {
        universe,
        arena,
        equations,
        goal,
    }
}

/// A "grid" of mixed product/sum PDs over `n` attributes: each constraint
/// relates three consecutive attributes with alternating `*` / `+`, and the
/// goal asks for an order relation between the two ends.  Exercises both
/// halves of ALG (experiment E1).
pub fn mixed_pd_grid(n: usize) -> ImplicationWorkload {
    assert!(n >= 3);
    let mut universe = Universe::new();
    let mut arena = TermArena::new();
    let attrs: Vec<Attribute> = (0..n).map(|i| universe.attr(&format!("A{i}"))).collect();
    let mut equations = Vec::new();
    for i in 0..n - 2 {
        let a = arena.atom(attrs[i]);
        let b = arena.atom(attrs[i + 1]);
        let c = arena.atom(attrs[i + 2]);
        let rhs = if i % 2 == 0 {
            arena.meet(a, b)
        } else {
            arena.join(a, b)
        };
        equations.push(Equation::new(c, rhs));
    }
    // Goal: adjoining the last attribute to the join of the first two changes
    // nothing — implied because every later attribute is generated from the
    // earlier ones by meets and joins.
    let first = arena.atom(attrs[0]);
    let second = arena.atom(attrs[1]);
    let last = arena.atom(attrs[n - 1]);
    let base = arena.join(first, second);
    let with_last = arena.join(base, last);
    let goal = Equation::new(with_last, base);
    ImplicationWorkload {
        universe,
        arena,
        equations,
        goal,
    }
}

/// A random lattice term over `attrs` with at most `budget` leaves.
fn random_term(
    arena: &mut TermArena,
    attrs: &[Attribute],
    budget: usize,
    rng: &mut StdRng,
) -> TermId {
    if budget <= 1 || rng.gen_bool(0.3) {
        return arena.atom(attrs[rng.gen_range(0..attrs.len())]);
    }
    let left_budget = rng.gen_range(1..budget);
    let left = random_term(arena, attrs, left_budget, rng);
    let right = random_term(arena, attrs, budget - left_budget, rng);
    if rng.gen_bool(0.5) {
        arena.meet(left, right)
    } else {
        arena.join(left, right)
    }
}

/// Random PDs over `num_attrs` attributes (experiment E1, negative cases).
pub fn random_pd_set(
    num_attrs: usize,
    num_pds: usize,
    budget: usize,
    seed: u64,
) -> ImplicationWorkload {
    let mut universe = Universe::new();
    let mut arena = TermArena::new();
    let attrs: Vec<Attribute> = (0..num_attrs)
        .map(|i| universe.attr(&format!("A{i}")))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let equations: Vec<Equation> = (0..num_pds)
        .map(|_| {
            let lhs = random_term(&mut arena, &attrs, budget, &mut rng);
            let rhs = random_term(&mut arena, &attrs, budget, &mut rng);
            Equation::new(lhs, rhs)
        })
        .collect();
    let lhs = random_term(&mut arena, &attrs, budget, &mut rng);
    let rhs = random_term(&mut arena, &attrs, budget, &mut rng);
    let goal = Equation::new(lhs, rhs);
    ImplicationWorkload {
        universe,
        arena,
        equations,
        goal,
    }
}

/// A word-problem workload for the build-once-query-many engine: one random
/// constraint set `E` plus a batch of goal equations to test against it.
pub struct WordProblemWorkload {
    /// Attribute universe.
    pub universe: Universe,
    /// Term arena holding all expressions.
    pub arena: TermArena,
    /// The constraint set `E`.
    pub equations: Vec<Equation>,
    /// The goal batch (a mix of entailed and non-entailed equations).
    pub goals: Vec<Equation>,
}

/// A random equation set plus a batch of `num_goals` random goal equations —
/// the fixture behind the rule-firing counter acceptance test (cached engine
/// vs. rebuild-per-goal) and the parallel implication fan-out.
pub fn random_word_problem_workload(
    num_attrs: usize,
    num_pds: usize,
    budget: usize,
    num_goals: usize,
    goal_budget: usize,
    seed: u64,
) -> WordProblemWorkload {
    let mut universe = Universe::new();
    let mut arena = TermArena::new();
    let attrs: Vec<Attribute> = (0..num_attrs)
        .map(|i| universe.attr(&format!("A{i}")))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let equations: Vec<Equation> = (0..num_pds)
        .map(|_| {
            let lhs = random_term(&mut arena, &attrs, budget, &mut rng);
            let rhs = random_term(&mut arena, &attrs, budget, &mut rng);
            Equation::new(lhs, rhs)
        })
        .collect();
    let goals: Vec<Equation> = (0..num_goals)
        .map(|_| {
            let lhs = random_term(&mut arena, &attrs, goal_budget, &mut rng);
            let rhs = random_term(&mut arena, &attrs, goal_budget, &mut rng);
            Equation::new(lhs, rhs)
        })
        .collect();
    WordProblemWorkload {
        universe,
        arena,
        equations,
        goals,
    }
}

/// A warm-session implication query mix: several constraint sets sharing
/// one arena, plus a stream of `(set, goal)` queries whose set choice is
/// skewed toward a few hot sets — the access pattern of a long-lived
/// session, where cached engines should absorb most of the work.
pub struct QueryMixWorkload {
    /// Attribute universe.
    pub universe: Universe,
    /// Term arena shared by every set and goal.
    pub arena: TermArena,
    /// The constraint sets.
    pub sets: Vec<Vec<Equation>>,
    /// The query stream: `(set index, goal equation)`, skewed so that low
    /// set indices receive quadratically more queries.
    pub queries: Vec<(usize, Equation)>,
}

/// Builds a [`QueryMixWorkload`]: `num_sets` random PD sets of
/// `pds_per_set` equations each, and `num_queries` goals whose target set
/// is drawn with quadratic skew (set 0 is the hottest).  Deterministic in
/// `seed`.
pub fn skewed_query_mix(
    num_sets: usize,
    num_attrs: usize,
    pds_per_set: usize,
    budget: usize,
    num_queries: usize,
    seed: u64,
) -> QueryMixWorkload {
    assert!(num_sets >= 1 && num_attrs >= 2);
    let mut universe = Universe::new();
    let mut arena = TermArena::new();
    let attrs: Vec<Attribute> = (0..num_attrs)
        .map(|i| universe.attr(&format!("A{i}")))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let sets: Vec<Vec<Equation>> = (0..num_sets)
        .map(|_| {
            (0..pds_per_set)
                .map(|_| {
                    let lhs = random_term(&mut arena, &attrs, budget, &mut rng);
                    let rhs = random_term(&mut arena, &attrs, budget, &mut rng);
                    Equation::new(lhs, rhs)
                })
                .collect()
        })
        .collect();
    let queries: Vec<(usize, Equation)> = (0..num_queries)
        .map(|_| {
            // Quadratic skew: squaring a uniform draw concentrates the mass
            // near zero, so a handful of sets serve most of the stream.
            let r: f64 = rng.gen_range(0.0..1.0);
            let set = ((r * r) * num_sets as f64) as usize;
            let lhs = random_term(&mut arena, &attrs, budget, &mut rng);
            let rhs = random_term(&mut arena, &attrs, budget, &mut rng);
            (set.min(num_sets - 1), Equation::new(lhs, rhs))
        })
        .collect();
    QueryMixWorkload {
        universe,
        arena,
        sets,
        queries,
    }
}

/// One step of a live-mutation edit script (see [`mutation_workload`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditOp {
    /// Add the pool PD at this index to the live set (a no-op if an equal
    /// PD — same pair modulo orientation — is already present).
    Add(usize),
    /// Remove the pool PD at this index from the live set (a no-op if
    /// absent).
    Remove(usize),
    /// Ask whether the live set implies the goal at this index of
    /// [`MutationWorkload::goals`].
    Query(usize),
}

/// A live constraint-set mutation workload: a PD pool, an initial prefix of
/// it to register, a goal batch, and an interleaved add/remove/query edit
/// script over them — the fixture behind the `mutation` trajectory workload
/// and the differential mutation harness.
pub struct MutationWorkload {
    /// Attribute universe.
    pub universe: Universe,
    /// Term arena holding all expressions.
    pub arena: TermArena,
    /// The PD pool the script draws add/remove indices from.
    pub pool: Vec<Equation>,
    /// How many leading pool PDs form the initially registered set.
    pub initial: usize,
    /// The goal equations queried by [`EditOp::Query`] steps.
    pub goals: Vec<Equation>,
    /// The edit script.
    pub script: Vec<EditOp>,
}

/// Builds a [`MutationWorkload`]: `pool_pds` random PDs (the first
/// `initial_pds` of them are the starting set), `num_goals` random goals,
/// and a `script_len`-step script mixing queries (~40%), additions (~35%)
/// and removals (~25%) with indices drawn uniformly from the pool.
/// Deterministic in `seed`.
pub fn mutation_workload(
    num_attrs: usize,
    pool_pds: usize,
    initial_pds: usize,
    budget: usize,
    num_goals: usize,
    script_len: usize,
    seed: u64,
) -> MutationWorkload {
    assert!(num_attrs >= 2 && pool_pds >= 1 && initial_pds <= pool_pds && num_goals >= 1);
    let mut universe = Universe::new();
    let mut arena = TermArena::new();
    let attrs: Vec<Attribute> = (0..num_attrs)
        .map(|i| universe.attr(&format!("A{i}")))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let random_equation = |arena: &mut TermArena, rng: &mut StdRng| {
        let lhs = random_term(arena, &attrs, budget, rng);
        let rhs = random_term(arena, &attrs, budget, rng);
        Equation::new(lhs, rhs)
    };
    let pool: Vec<Equation> = (0..pool_pds)
        .map(|_| random_equation(&mut arena, &mut rng))
        .collect();
    let goals: Vec<Equation> = (0..num_goals)
        .map(|_| random_equation(&mut arena, &mut rng))
        .collect();
    let script: Vec<EditOp> = (0..script_len)
        .map(|_| {
            let roll: f64 = rng.gen_range(0.0..1.0);
            if roll < 0.40 {
                EditOp::Query(rng.gen_range(0..goals.len()))
            } else if roll < 0.75 {
                EditOp::Add(rng.gen_range(0..pool.len()))
            } else {
                EditOp::Remove(rng.gen_range(0..pool.len()))
            }
        })
        .collect();
    MutationWorkload {
        universe,
        arena,
        pool,
        initial: initial_pds,
        goals,
        script,
    }
}

/// A multi-relation database workload for the consistency trajectory
/// records (experiment E5).
pub struct ConsistencyWorkload {
    /// Attribute universe.
    pub universe: Universe,
    /// Symbol table.
    pub symbols: SymbolTable,
    /// Term arena.
    pub arena: TermArena,
    /// The database.
    pub database: Database,
    /// The FPD constraints.
    pub fpds: Vec<Fpd>,
    /// The same constraints as PDs (meet equations).
    pub pds: Vec<Equation>,
}

/// Builds a consistent "join path" database R_0[A_0 A_1], R_1[A_1 A_2], …
/// with `rows` tuples per relation and FPDs `A_i → A_{i+1}`.
pub fn consistency_workload(relations: usize, rows: usize, seed: u64) -> ConsistencyWorkload {
    assert!(relations >= 1);
    let mut universe = Universe::new();
    let mut symbols = SymbolTable::new();
    let mut arena = TermArena::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let attrs: Vec<Attribute> = (0..=relations)
        .map(|i| universe.attr(&format!("A{i}")))
        .collect();
    let mut database = Database::new();
    for r in 0..relations {
        let scheme = RelationScheme::new(format!("R{r}"), vec![attrs[r], attrs[r + 1]]);
        let mut relation = Relation::new(scheme.clone());
        for _ in 0..rows {
            // Keep A_i → A_{i+1} satisfiable: the right value is a function
            // of the left value.
            let left = rng.gen_range(0..rows.max(1));
            let right = left % 7;
            let left_symbol = symbols.symbol(&format!("v{r}_{left}"));
            let right_symbol = symbols.symbol(&format!("v{}_{right}", r + 1));
            let mut values = vec![left_symbol; 2];
            values[scheme
                .position(attrs[r])
                .expect("scheme was built over attrs[r], attrs[r+1]")] = left_symbol;
            values[scheme
                .position(attrs[r + 1])
                .expect("scheme was built over attrs[r], attrs[r+1]")] = right_symbol;
            relation.insert_values(&values).expect("arity matches");
        }
        database.add(relation);
    }
    let fpds: Vec<Fpd> = (0..relations)
        .map(|i| {
            Fpd::new(
                AttrSet::singleton(attrs[i]),
                AttrSet::singleton(attrs[i + 1]),
            )
        })
        .collect();
    let pds: Vec<Equation> = fpds
        .iter()
        .map(|f| f.as_meet_equation(&mut arena))
        .collect();
    ConsistencyWorkload {
        universe,
        symbols,
        arena,
        database,
        fpds,
        pds,
    }
}

/// A parallel fan-out consistency workload: many independent databases
/// sharing one interner family and one PD set — the shape served by
/// [`ps_session::SetSnapshot`] plus [`ps_session::ParallelExecutor`], where
/// each database is chased by whichever worker claims it.
pub struct FanoutConsistencyWorkload {
    /// Attribute universe shared by every database.
    pub universe: Universe,
    /// Symbol table shared by every database.
    pub symbols: SymbolTable,
    /// Term arena holding the PD set.
    pub arena: TermArena,
    /// The independent databases (odd indices carry an injected FD
    /// violation, so verdicts are a mix of consistent and inconsistent).
    pub databases: Vec<Database>,
    /// The join-path FPDs `A_i → A_{i+1}` as meet equations.
    pub pds: Vec<Equation>,
}

/// Builds a [`FanoutConsistencyWorkload`]: `dbs` join-path databases of
/// `relations` relations × `rows` tuples each, all over one shared
/// universe/symbol-table/arena, constrained by the FPDs `A_i → A_{i+1}`.
/// Even-indexed databases keep the right value a function of the left
/// (consistent); odd-indexed ones get two extra tuples violating the first
/// FD on named constants (inconsistent).  Deterministic in `seed`.
pub fn fanout_consistency_workload(
    relations: usize,
    dbs: usize,
    rows: usize,
    seed: u64,
) -> FanoutConsistencyWorkload {
    assert!(relations >= 1 && dbs >= 1);
    let mut universe = Universe::new();
    let mut symbols = SymbolTable::new();
    let mut arena = TermArena::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let attrs: Vec<Attribute> = (0..=relations)
        .map(|i| universe.attr(&format!("A{i}")))
        .collect();
    let mut databases = Vec::with_capacity(dbs);
    for d in 0..dbs {
        let mut database = Database::new();
        for r in 0..relations {
            let scheme = RelationScheme::new(format!("R{r}"), vec![attrs[r], attrs[r + 1]]);
            let left_pos = scheme.position(attrs[r]).expect("left in scheme");
            let right_pos = scheme.position(attrs[r + 1]).expect("right in scheme");
            let mut relation = Relation::new(scheme);
            for _ in 0..rows {
                let left = rng.gen_range(0..rows.max(1));
                let right = left % 7;
                let mut values = vec![ps_base::Symbol::from_index(0); 2];
                values[left_pos] = symbols.symbol(&format!("d{d}_v{r}_{left}"));
                values[right_pos] = symbols.symbol(&format!("d{d}_v{}_{right}", r + 1));
                relation.insert_values(&values).expect("arity matches");
            }
            if r == 0 && d % 2 == 1 {
                // Same left constant, two distinct right constants: a direct
                // A_0 → A_1 violation the chase cannot repair.
                let clash = symbols.symbol(&format!("d{d}_clash"));
                for w in 0..2 {
                    let mut values = vec![ps_base::Symbol::from_index(0); 2];
                    values[left_pos] = clash;
                    values[right_pos] = symbols.symbol(&format!("d{d}_w{w}"));
                    relation.insert_values(&values).expect("arity matches");
                }
            }
            database.add(relation);
        }
        databases.push(database);
    }
    let pds: Vec<Equation> = (0..relations)
        .map(|i| {
            Fpd::new(
                AttrSet::singleton(attrs[i]),
                AttrSet::singleton(attrs[i + 1]),
            )
            .as_meet_equation(&mut arena)
        })
        .collect();
    FanoutConsistencyWorkload {
        universe,
        symbols,
        arena,
        databases,
        pds,
    }
}

/// [`fanout_consistency_workload`] with `sums` sum PDs `C_k = B_k + D_k`
/// added, each over its own three attributes, and one relation `T_k[B_k
/// D_k C_k]` per sum in every database: `rows` tuples with a new `B_k` and
/// `D_k` each and `C_k` drawn from three values, so tuples share a `C_k`
/// without a chain and the Lemma 12.1 repair must bridge them.  The
/// `consistency_chase` benchmark builds the same shape.
pub fn fanout_witness_workload(
    relations: usize,
    dbs: usize,
    rows: usize,
    sums: usize,
    seed: u64,
) -> FanoutConsistencyWorkload {
    let mut w = fanout_consistency_workload(relations, dbs, rows, seed);
    let mut sum_attrs = Vec::with_capacity(sums);
    for k in 0..sums {
        let [b, d, c] = ["B", "D", "C"].map(|p| w.universe.attr(&format!("{p}{k}")));
        let (bt, dt, ct) = (w.arena.atom(b), w.arena.atom(d), w.arena.atom(c));
        let join = w.arena.join(bt, dt);
        w.pds.push(Equation::new(ct, join));
        sum_attrs.push([b, d, c]);
    }
    for (d, db) in w.databases.iter_mut().enumerate() {
        for (k, attrs) in sum_attrs.iter().enumerate() {
            let scheme = RelationScheme::new(format!("T{k}"), attrs.to_vec());
            let pos = attrs.map(|a| scheme.position(a).expect("attr in scheme"));
            let mut relation = Relation::new(scheme);
            for j in 0..rows {
                let mut values = vec![ps_base::Symbol::from_index(0); 3];
                values[pos[0]] = w.symbols.symbol(&format!("d{d}_b{k}_{j}"));
                values[pos[1]] = w.symbols.symbol(&format!("d{d}_d{k}_{j}"));
                values[pos[2]] = w.symbols.symbol(&format!("d{d}_c{k}_{}", j % 3));
                relation.insert_values(&values).expect("arity matches");
            }
            db.add(relation);
        }
    }
    w
}

/// A prepared chase instance: a database plus the FD set to chase it with
/// (experiment E5: the chase trajectory records and the operation-counter
/// tests).
pub struct ChaseWorkload {
    /// Attribute universe.
    pub universe: Universe,
    /// Symbol table (the chase draws fresh nulls from it).
    pub symbols: SymbolTable,
    /// The database.
    pub database: Database,
    /// The FD set.
    pub fds: Vec<Fd>,
}

/// A propagation-chain chase fixture: relations `R_i[A_i A_{i+1}]`
/// (`i < levels`), each holding `rows` tuples that share the right value
/// `v{i+1}_0`, under the FDs `A_i → A_{i+1}` listed *against* the
/// propagation direction.
///
/// Equalities discovered at `A_1` must travel level by level up to
/// `A_levels`, so the full-rescan chase needs one global round per level
/// while the worklist engine only revisits the rows whose symbols actually
/// changed — the fixture behind the operation-counter acceptance test.
pub fn chase_chain_workload(levels: usize, rows: usize) -> ChaseWorkload {
    assert!(levels >= 2 && rows >= 2);
    let mut universe = Universe::new();
    let mut symbols = SymbolTable::new();
    let attrs: Vec<Attribute> = (0..=levels)
        .map(|i| universe.attr(&format!("A{i}")))
        .collect();
    let mut database = Database::new();
    for i in 0..levels {
        let scheme = RelationScheme::new(format!("R{i}"), vec![attrs[i], attrs[i + 1]]);
        let left_pos = scheme.position(attrs[i]).expect("left in scheme");
        let right_pos = scheme.position(attrs[i + 1]).expect("right in scheme");
        let mut relation = Relation::new(scheme);
        let shared_right = symbols.symbol(&format!("v{}_0", i + 1));
        for j in 0..rows {
            let mut values = vec![shared_right; 2];
            values[left_pos] = symbols.symbol(&format!("v{i}_{j}"));
            values[right_pos] = shared_right;
            relation.insert_values(&values).expect("arity matches");
        }
        database.add(relation);
    }
    let mut fds: Vec<Fd> = (0..levels)
        .map(|i| ps_relation::fd(&[attrs[i]], &[attrs[i + 1]]))
        .collect();
    fds.reverse();
    ChaseWorkload {
        universe,
        symbols,
        database,
        fds,
    }
}

/// A random multi-relation chase workload: `relations` relations over random
/// 2–3 attribute subsets of a `num_attrs` universe, `rows` tuples each with
/// values from a per-attribute domain of `domain` symbols, plus `num_fds`
/// random single-attribute FDs.  Databases drawn this way are consistent or
/// inconsistent depending on the seed, which is exactly what the chase
/// records and tests want to exercise.
pub fn random_chase_workload(
    num_attrs: usize,
    relations: usize,
    rows: usize,
    domain: usize,
    num_fds: usize,
    seed: u64,
) -> ChaseWorkload {
    assert!(num_attrs >= 3 && domain >= 1);
    let mut universe = Universe::new();
    let mut symbols = SymbolTable::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let attrs: Vec<Attribute> = (0..num_attrs)
        .map(|i| universe.attr(&format!("A{i}")))
        .collect();
    let mut database = Database::new();
    for r in 0..relations {
        let arity = rng.gen_range(2..=3);
        let mut chosen: Vec<Attribute> = Vec::new();
        while chosen.len() < arity {
            let a = attrs[rng.gen_range(0..attrs.len())];
            if !chosen.contains(&a) {
                chosen.push(a);
            }
        }
        let scheme = RelationScheme::new(format!("R{r}"), chosen.clone());
        let mut relation = Relation::new(scheme.clone());
        for _ in 0..rows {
            let mut values = vec![ps_base::Symbol::from_index(0); arity];
            for &attr in &chosen {
                let v = rng.gen_range(0..domain);
                values[scheme.position(attr).expect("chosen attr")] =
                    symbols.symbol(&format!("a{}_v{v}", attr.index()));
            }
            relation.insert_values(&values).expect("arity matches");
        }
        database.add(relation);
    }
    // Draw the FDs from the attributes the database actually uses, so the
    // weak-instance FD check and the tableau chase see the same columns.
    let used: Vec<Attribute> = database.all_attributes().iter().collect();
    let mut fds = Vec::new();
    while fds.len() < num_fds {
        let lhs = used[rng.gen_range(0..used.len())];
        let rhs = used[rng.gen_range(0..used.len())];
        if lhs != rhs {
            fds.push(ps_relation::fd(&[lhs], &[rhs]));
        }
    }
    ChaseWorkload {
        universe,
        symbols,
        database,
        fds,
    }
}

/// Random partitions over a common population `{0, …, population-1}`.
fn random_partitions(
    population: u32,
    blocks: usize,
    count: usize,
    seed: u64,
) -> Vec<ps_partition::Partition> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let assignment: Vec<(ps_partition::Element, usize)> = (0..population)
                .map(|e| (ps_partition::Element::new(e), rng.gen_range(0..blocks)))
                .collect();
            ps_partition::Partition::from_keys(assignment)
        })
        .collect()
}

/// Generator partitions whose product/sum closure strictly extends them — the
/// lattice-closure fixture used to compare the incremental frontier
/// saturation of [`ps_partition::close_under_ops`] against the
/// full-recombination reference [`ps_partition::close_under_ops_naive`] by
/// operation count.
///
/// The generators are random partitions of a small common population with
/// few blocks each, which makes new products and sums very likely (and on
/// the seeds used by the tests, certain).
pub fn lattice_closure_generators(
    population: u32,
    generators: usize,
    seed: u64,
) -> Vec<ps_partition::Partition> {
    let blocks = (population as usize / 2).max(2);
    random_partitions(population, blocks, generators, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_lattice::{word_problem, DerivedOrder};

    #[test]
    fn chain_goals_are_implied_and_grid_goals_too() {
        for n in [2usize, 5, 17] {
            let w = fpd_chain(n);
            assert!(word_problem::entails(&w.arena, &w.equations, w.goal));
        }
        for n in [3usize, 6, 12] {
            let w = mixed_pd_grid(n);
            assert!(word_problem::entails(&w.arena, &w.equations, w.goal));
        }
    }

    #[test]
    fn random_pd_sets_are_well_formed() {
        let w = random_pd_set(5, 6, 5, 99);
        assert_eq!(w.equations.len(), 6);
        // The engine and the naive fixpoint agree on the random goal.
        let reference = DerivedOrder::build(&w.arena, &w.equations, &[w.goal.lhs, w.goal.rhs]);
        assert_eq!(
            Some(word_problem::entails(&w.arena, &w.equations, w.goal)),
            reference.entails(w.goal)
        );
    }

    #[test]
    fn mutation_workload_scripts_cover_all_op_kinds() {
        let w = mutation_workload(6, 10, 4, 4, 6, 60, 11);
        assert_eq!(w.pool.len(), 10);
        assert!(w.initial <= w.pool.len());
        let (mut adds, mut removes, mut queries) = (0, 0, 0);
        for op in &w.script {
            match *op {
                EditOp::Add(i) => {
                    assert!(i < w.pool.len());
                    adds += 1;
                }
                EditOp::Remove(i) => {
                    assert!(i < w.pool.len());
                    removes += 1;
                }
                EditOp::Query(g) => {
                    assert!(g < w.goals.len());
                    queries += 1;
                }
            }
        }
        assert!(adds > 0 && removes > 0 && queries > 0);
    }

    #[test]
    fn consistency_workload_is_consistent() {
        let w = consistency_workload(4, 16, 7);
        let fds: Vec<Fd> = w.fpds.iter().map(Fpd::to_fd).collect();
        assert!(ps_relation::consistency::weak_instance_consistent(
            &w.database,
            &fds,
            &w.symbols
        ));
    }

    #[test]
    fn fanout_workload_alternates_verdicts() {
        let mut w = fanout_consistency_workload(3, 4, 8, 5);
        assert_eq!(w.databases.len(), 4);
        let fds: Vec<Fd> = w
            .pds
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let universe = &mut w.universe;
                ps_relation::fd(
                    &[universe.attr(&format!("A{i}"))],
                    &[universe.attr(&format!("A{}", i + 1))],
                )
            })
            .collect();
        for (d, db) in w.databases.iter().enumerate() {
            let consistent =
                ps_relation::consistency::weak_instance_consistent(db, &fds, &w.symbols);
            assert_eq!(consistent, d % 2 == 0, "database {d}");
        }
    }

    #[test]
    fn random_partitions_share_a_population() {
        let parts = random_partitions(32, 4, 3, 1);
        assert_eq!(parts.len(), 3);
        assert!(parts
            .windows(2)
            .all(|pair| pair[0].population() == pair[1].population()));
    }

    /// The acceptance gate for the incremental frontier closure: on a
    /// closure fixture that actually grows, the frontier strategy performs
    /// strictly fewer product/sum evaluations than full recombination while
    /// producing the same lattice.
    #[test]
    fn incremental_closure_does_strictly_less_work_than_recombination() {
        use std::collections::HashSet;

        for seed in [3u64, 11, 29] {
            let generators = lattice_closure_generators(8, 3, seed);
            let (incremental, fast) = ps_partition::close_under_ops(&generators, 10_000);
            let (naive, slow) = ps_partition::close_under_ops_naive(&generators, 10_000);
            let a: HashSet<_> = incremental.iter().cloned().collect();
            let b: HashSet<_> = naive.iter().cloned().collect();
            assert_eq!(a, b, "strategies must agree on the closure (seed {seed})");
            assert!(
                fast.size > generators.len(),
                "fixture must actually grow (seed {seed})"
            );
            assert!(
                fast.operations < slow.operations,
                "frontier closure must do strictly less pairwise work \
                 (seed {seed}: {} vs {})",
                fast.operations,
                slow.operations
            );
            // The frontier strategy touches each unordered pair exactly once.
            assert_eq!(fast.operations, fast.size * (fast.size + 1));
        }
    }

    /// The acceptance gate for the cached implication engine: answering a
    /// goal batch from one engine (built once per constraint set, extended
    /// incrementally) performs strictly fewer rule firings — arc insertions,
    /// the strategy-independent work unit both engines count — than building
    /// one fresh `DerivedOrder` per goal, while agreeing on every verdict.
    #[test]
    fn cached_engine_does_strictly_fewer_rule_firings_than_rebuilds() {
        use ps_lattice::ImplicationEngine;

        for seed in [1u64, 7, 23, 71] {
            let w = random_word_problem_workload(6, 5, 6, 8, 3, seed);
            let mut engine = ImplicationEngine::new(&w.arena, &w.equations);
            let engine_verdicts = engine.entails_many(&w.arena, &w.goals);

            let mut rebuild_firings = 0usize;
            let mut reference_verdicts = Vec::new();
            for &goal in &w.goals {
                let order = DerivedOrder::build(&w.arena, &w.equations, &[goal.lhs, goal.rhs]);
                rebuild_firings += order.rule_firings();
                reference_verdicts.push(order.entails(goal).expect("goal terms are in V"));
            }
            assert_eq!(engine_verdicts, reference_verdicts, "seed {seed}");
            assert!(
                engine.rule_firings() < rebuild_firings,
                "one cached engine must fire fewer rules than {} rebuilds \
                 (seed {seed}: {} vs {rebuild_firings})",
                w.goals.len(),
                engine.rule_firings(),
            );
        }
    }

    /// The per-goal row-op budget of ALG goal extension: answering a goal
    /// costs row operations in proportion to what the goal adds (arcs
    /// inserted plus terms appended), never in proportion to `|V|`.  Every
    /// single extension over a 120-PD set must stay within 4 row operations
    /// per added arc or term; an extension that re-ORs whole old rows
    /// (hundreds of operations per arc) fails here by counter.
    #[test]
    fn goal_extension_row_ops_stay_proportional_to_what_it_adds() {
        use ps_lattice::ImplicationEngine;

        let w = skewed_query_mix(1, 16, 120, 3, 40, 0x5EED);
        let mut engine = ImplicationEngine::new(&w.arena, &w.sets[0]);
        let mut extensions = 0;
        for (i, &(_, goal)) in w.queries.iter().enumerate() {
            let (ops, arcs, terms) = (
                engine.row_ops(),
                engine.rule_firings(),
                engine.terms().len(),
            );
            if engine.add_goal_terms(&w.arena, &[goal.lhs, goal.rhs]) == 0 {
                continue;
            }
            extensions += 1;
            let row_ops = engine.row_ops() - ops;
            let added = (engine.rule_firings() - arcs) + (engine.terms().len() - terms);
            assert!(
                row_ops <= 4 * added,
                "goal {i}: {row_ops} row ops for {added} added arcs and terms"
            );
        }
        assert!(extensions > 20, "the fixture must exercise extensions");
    }

    /// Incremental `add_goal_terms` pays only the frontier: extending a
    /// built engine with the goal batch fires strictly fewer rules than the
    /// full from-scratch saturation of an equivalent fresh engine, and lands
    /// in the identical closure.
    #[test]
    fn incremental_extension_does_strictly_less_work_than_a_fresh_build() {
        use ps_lattice::{ImplicationEngine, TermId};

        for seed in [3u64, 13, 43] {
            let w = random_word_problem_workload(6, 5, 6, 8, 3, seed);
            let goal_terms: Vec<TermId> = w.goals.iter().flat_map(|g| [g.lhs, g.rhs]).collect();

            let mut incremental = ImplicationEngine::new(&w.arena, &w.equations);
            let base_firings = incremental.rule_firings();
            for chunk in goal_terms.chunks(2) {
                incremental.add_goal_terms(&w.arena, chunk);
            }
            let extension_firings = incremental.rule_firings() - base_firings;

            let fresh = ImplicationEngine::with_goal_terms(&w.arena, &w.equations, &goal_terms);
            assert_eq!(incremental.num_arcs(), fresh.num_arcs(), "seed {seed}");
            assert_eq!(
                incremental.rule_firings(),
                fresh.rule_firings(),
                "every arc is inserted exactly once either way (seed {seed})"
            );
            assert!(
                extension_firings < fresh.rule_firings(),
                "the incremental path must only pay the frontier \
                 (seed {seed}: {extension_firings} vs {})",
                fresh.rule_firings()
            );
        }
    }

    /// One tableau of the workload's database, chased by the indexed engine
    /// and by the full-rescan reference.
    fn chase_both(w: &ChaseWorkload) -> (ps_relation::ChaseOutcome, ps_relation::ChaseOutcome) {
        let mut symbols = w.symbols.clone();
        let attrs = w.database.all_attributes();
        let tableau = ps_relation::Tableau::from_database(&w.database, &attrs, &mut symbols);
        (
            ps_relation::chase_tableau_with(&tableau, &w.fds, &mut Default::default()),
            ps_relation::chase_tableau_naive(&tableau, &w.fds),
        )
    }

    /// The acceptance gate for the indexed, worklist-driven chase: on the
    /// propagation-chain fixture (where the full-rescan engine needs one
    /// global round per chain level), the worklist engine agrees on the
    /// verdict and performs strictly fewer (row, FD) visits.
    #[test]
    fn indexed_chase_does_strictly_less_work_than_full_rescans() {
        for (levels, rows) in [(4usize, 4usize), (6, 8), (8, 16)] {
            let w = chase_chain_workload(levels, rows);
            let (indexed, naive) = chase_both(&w);
            assert_eq!(indexed.consistent, naive.consistent, "{levels}x{rows}");
            assert!(indexed.consistent, "the chain fixture is consistent");
            assert_eq!(
                indexed.steps, naive.steps,
                "the FD chase is confluent: both engines perform the same merges"
            );
            assert!(
                indexed.row_visits < naive.row_visits,
                "worklist chase must do strictly less row work \
                 ({levels}x{rows}: {} vs {})",
                indexed.row_visits,
                naive.row_visits
            );
        }
    }

    /// The two engines agree on random databases — consistent or not.
    #[test]
    fn chase_engines_agree_on_random_workloads() {
        let mut consistent = 0usize;
        let mut inconsistent = 0usize;
        for seed in 0..24u64 {
            let w = random_chase_workload(6, 2, 3, 6, 2, seed);
            let (indexed, naive) = chase_both(&w);
            assert_eq!(indexed.consistent, naive.consistent, "seed {seed}");
            match indexed.consistent {
                true => consistent += 1,
                false => inconsistent += 1,
            }
            if let Some(w_inst) = indexed.weak_instance("W", &w.database.all_attributes()) {
                assert!(w.database.has_weak_instance(&w_inst), "seed {seed}");
                assert!(w_inst.satisfies_all_fds(&w.fds), "seed {seed}");
            }
        }
        assert!(consistent > 0, "sample must contain consistent instances");
        assert!(
            inconsistent > 0,
            "sample must contain inconsistent instances"
        );
    }
}
