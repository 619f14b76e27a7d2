//! The [`Session`]: one long-lived owner of the interners, with cached
//! engines per registered constraint set and typed, batched queries for
//! every decision procedure of the paper.

use std::collections::HashMap;
use std::sync::Arc;

use ps_base::{AttrSet, Attribute, Symbol, SymbolTable, Universe};
use ps_core::consistency::{
    close_constraints_with, normalize_pds, ClosedConstraints, SumConstraint,
};
use ps_core::weak_bridge::SatisfiabilityWitness;
use ps_core::{Fpd, PartitionInterpretation};
use ps_graph::GraphEncoding;
use ps_lattice::{
    free_order, parse_equation, parse_term, Equation, ImplicationEngine, LatticeError, TermArena,
    TermId, TermNode,
};
use ps_relation::{ChaseScratch, Database, DatabaseBuilder, Fd, Relation};

use crate::{Counters, Epoch, Error, Outcome, Result};

/// A handle to a constraint set registered with [`Session::register`].
///
/// Handles are cheap copies; the session keeps the set's parsed PDs, its
/// lazily built [`ImplicationEngine`] and its normalized/closed consistency
/// system behind the handle.  Registering an equal set (same equations up to
/// order, orientation and duplication) returns the *same* handle, so all
/// cached artifacts are shared.
///
/// Handles stay live across mutations: [`Session::add_pd`] /
/// [`Session::remove_pd`] evolve the set in place, bumping its [`Epoch`]
/// and invalidating only the cached artifacts that depended on the edited
/// PD (see [`Session::artifact_epochs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConstraintSetId(u32);

impl ConstraintSetId {
    /// Builds a handle from a raw index (for diagnostics and tests; handles
    /// are normally obtained from [`Session::register`]).
    pub fn from_index(index: u32) -> Self {
        ConstraintSetId(index)
    }

    /// The raw index of the handle.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// Which consistency procedure [`Session::consistent`] runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ConsistencyMode {
    /// Theorem 12: the polynomial-time open-world test (normalize, close,
    /// chase the FD part; sum constraints are always repairable by
    /// Lemma 12.1).
    #[default]
    Polynomial,
    /// Theorem 11 / Theorem 6b: the exact closed-world test under the
    /// complete-atomic-data and equal-atomic-population assumptions.
    /// NP-complete in general; requires every registered PD to be a
    /// functional partition dependency (a meet equation).
    ExactCadEap,
}

/// The typed answer of [`Session::consistent`].
#[derive(Debug, Clone)]
pub struct ConsistencyAnswer {
    /// Whether the database is consistent with the registered PDs under the
    /// selected mode.
    pub consistent: bool,
    /// The mode that produced this answer.
    pub mode: ConsistencyMode,
    /// The FD set `F` the decision ran with (the closed FD image of the
    /// constraints for [`ConsistencyMode::Polynomial`], the direct FD image
    /// for [`ConsistencyMode::ExactCadEap`]).
    pub fds: Vec<Fd>,
    /// Sum constraints `C ≤ A + B` that survived closure (always empty in
    /// CAD mode, which only admits FPDs).
    pub sums: Vec<SumConstraint>,
    /// A witnessing relation when consistent: the chase's representative
    /// weak instance (polynomial mode, satisfies `F`; apply
    /// [`ps_core::consistency::repair_sum_violations`] to also satisfy
    /// `sums`) or the CAD witness (exact mode).
    pub witness: Option<Relation>,
    /// The witnessing interpretation `I(w)` (exact mode only; polynomial
    /// callers wanting an interpretation should use
    /// [`Session::weak_instance`], which also repairs sum violations).
    pub interpretation: Option<PartitionInterpretation>,
}

/// The orientation-normalized term-id pair of a PD — the unit the
/// dependency tracker and the registration key both work in: `l = r` and
/// `r = l` are the same constraint, and hash-consing makes structurally
/// equal terms share ids.
fn normalized_pair(pd: Equation) -> (u32, u32) {
    let (a, b) = (pd.lhs.index(), pd.rhs.index());
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The normalized-set cache key: sorted, deduplicated pairs — syntactic
/// equality of the set modulo order, orientation and duplication.
fn normalized_key(pds: &[Equation]) -> Vec<(u32, u32)> {
    let mut key: Vec<(u32, u32)> = pds.iter().map(|&pd| normalized_pair(pd)).collect();
    key.sort_unstable();
    key.dedup();
    key
}

/// The dependency tracker's record for one cached artifact: which PDs the
/// artifact consumed when it was built or last refreshed (as sorted
/// normalized pairs) and the [`Epoch`] at which it was last certified
/// current.  `remove_pd` consults `depends_on` to invalidate the minimum
/// cut; the `ensure_*` functions consult `is_current` / `is_subset_of` to
/// decide between reuse, incremental extension and rebuild.
#[derive(Debug, Clone, Default)]
struct ArtifactDeps {
    /// Normalized pairs of the PDs the artifact was built from (sorted).
    pairs: Vec<(u32, u32)>,
    /// Epoch stamped at the last build or revalidation.
    epoch: Epoch,
}

impl ArtifactDeps {
    /// Did the artifact consume this PD?  (If not, removing the PD cannot
    /// change the artifact.)
    fn depends_on(&self, pair: (u32, u32)) -> bool {
        self.pairs.binary_search(&pair).is_ok()
    }

    /// Is the artifact built from exactly the current set?
    fn is_current(&self, key: &[(u32, u32)]) -> bool {
        self.pairs == key
    }

    /// Is every consumed PD still in the current set?  (True after pure
    /// additions: the artifact is extendable rather than poisoned.)
    fn is_subset_of(&self, key: &[(u32, u32)]) -> bool {
        self.pairs.iter().all(|p| key.binary_search(p).is_ok())
    }

    /// Marks the artifact current for `key` at `epoch`.
    fn certify(&mut self, key: &[(u32, u32)], epoch: Epoch) {
        if self.pairs != key {
            self.pairs = key.to_vec();
        }
        self.epoch = epoch;
    }
}

/// One registered constraint set and its lazily built, cached artifacts,
/// each paired with the [`ArtifactDeps`] record the mutation API uses to
/// invalidate the minimum consistent cut.
struct ConstraintSet {
    /// The registered PDs, deduplicated by normalized pair, in first-seen
    /// order.  Mutable via [`Session::add_pd`] / [`Session::remove_pd`].
    pds: Vec<Equation>,
    /// The normalized key currently claimed for this set in
    /// [`Session::keys`] (artifact: the normalized-set cache key, maintained
    /// eagerly on every mutation).
    key: Vec<(u32, u32)>,
    /// Mutation epoch: bumped once per successful add/remove.
    epoch: Epoch,
    /// Epoch at which `key` was last recomputed (always equals `epoch`; the
    /// key is the one eagerly maintained artifact).
    key_epoch: Epoch,
    /// The cached ALG engine over `pds`, built on first implication-family
    /// query, incrementally extended by each goal's subterms and — after
    /// `add_pd` — by the new equations' arcs.
    engine: Option<ImplicationEngine>,
    engine_deps: ArtifactDeps,
    /// The cached Section 6.2 closure (normalize once, close once), built on
    /// first consistency-family query; the weak-instance pipeline consults
    /// this same artifact.
    closed: Option<ClosedConstraints>,
    closed_deps: ArtifactDeps,
    /// The cached CAD FPD view of `pds` (ExactCadEap mode), built on first
    /// exact consistency query of an FPD-only set.
    fpds: Option<Vec<Fpd>>,
    fpds_deps: ArtifactDeps,
}

impl ConstraintSet {
    fn new(pds: Vec<Equation>, key: Vec<(u32, u32)>) -> Self {
        ConstraintSet {
            pds,
            key,
            epoch: Epoch::default(),
            key_epoch: Epoch::default(),
            engine: None,
            engine_deps: ArtifactDeps::default(),
            closed: None,
            closed_deps: ArtifactDeps::default(),
            fpds: None,
            fpds_deps: ArtifactDeps::default(),
        }
    }
}

/// A long-lived solver session.
///
/// The session owns the three interners every paper object lives in — the
/// attribute [`Universe`] (`𝒰`), the [`SymbolTable`] (`𝒟`) and the
/// [`TermArena`] of hash-consed partition expressions — so callers never
/// hand-thread `&mut` catalogs through calls.  Constraint sets are
/// registered once and queried many times; per set the session caches the
/// saturated [`ImplicationEngine`] (build-once-query-many, extended
/// incrementally per goal) and the normalized/closed consistency system.
///
/// ```
/// use ps_session::{ConsistencyMode, Session};
///
/// let mut session = Session::new();
/// let e = session.register_texts(&["A = A*B", "C = A+B"]).unwrap();
///
/// // Theorems 8/9: PD implication.
/// let goal = session.equation("A + C = C").unwrap();
/// assert!(session.implies(e, goal).unwrap().value);
///
/// // Theorem 12: consistency of a concrete database.
/// let db = session
///     .database()
///     .relation("R", &["A", "B", "C"], &[&["a1", "b", "c"], &["a2", "b", "c"]])
///     .unwrap()
///     .build();
/// let outcome = session.consistent(e, &db, ConsistencyMode::Polynomial).unwrap();
/// assert!(outcome.value.consistent);
/// ```
#[derive(Default)]
pub struct Session {
    universe: Universe,
    symbols: SymbolTable,
    arena: TermArena,
    sets: Vec<ConstraintSet>,
    /// Normalized-set key (sorted, deduplicated, orientation-normalized
    /// term-id pairs) → index into `sets`.  Hash-consing makes structurally
    /// equal equations share term ids, so the key is syntactic equality of
    /// the set modulo order, orientation and duplication.
    keys: HashMap<Vec<(u32, u32)>, usize>,
    totals: Counters,
    /// Reusable chase buffers shared by every consistency-family query: a
    /// warm session pays the lhs-index/worklist allocations once, not per
    /// query (see [`ps_relation::ChaseScratch`]).
    chase_scratch: ChaseScratch,
}

impl Session {
    /// Creates an empty session with fresh interners.
    pub fn new() -> Self {
        Session::default()
    }

    /// Builds a session around existing interners — the migration path for
    /// code that already owns a `Universe`/`SymbolTable`/`TermArena` (for
    /// example the output of a workload generator or of
    /// [`ps_core::cad::reduce_nae3sat`]).
    pub fn from_parts(universe: Universe, symbols: SymbolTable, arena: TermArena) -> Self {
        Session {
            universe,
            symbols,
            arena,
            ..Session::default()
        }
    }

    /// Disassembles the session back into its interners, dropping all
    /// cached engines.
    pub fn into_parts(self) -> (Universe, SymbolTable, TermArena) {
        (self.universe, self.symbols, self.arena)
    }

    // ------------------------------------------------------------------
    // Interner access and parsing.
    // ------------------------------------------------------------------

    /// The attribute universe `𝒰`.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// Mutable access to the attribute universe.  Interners are append-only,
    /// so direct interning never invalidates cached engines.
    pub fn universe_mut(&mut self) -> &mut Universe {
        &mut self.universe
    }

    /// The symbol table `𝒟`.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Mutable access to the symbol table (append-only; see
    /// [`Session::universe_mut`]).
    pub fn symbols_mut(&mut self) -> &mut SymbolTable {
        &mut self.symbols
    }

    /// The term arena of hash-consed partition expressions.
    pub fn arena(&self) -> &TermArena {
        &self.arena
    }

    /// Mutable access to the term arena (append-only; see
    /// [`Session::universe_mut`]).
    pub fn arena_mut(&mut self) -> &mut TermArena {
        &mut self.arena
    }

    /// Runs a closure with simultaneous mutable access to all three
    /// interners — the split-borrow escape hatch for free functions that
    /// take several catalogs at once (e.g.
    /// [`ps_core::connectivity::theorem4_path_relation`]).  Interners are
    /// append-only, so nothing a closure can do invalidates cached engines.
    pub fn with_interners<T>(
        &mut self,
        f: impl FnOnce(&mut Universe, &mut SymbolTable, &mut TermArena) -> T,
    ) -> T {
        f(&mut self.universe, &mut self.symbols, &mut self.arena)
    }

    /// Interns (or looks up) an attribute by name.
    pub fn attribute(&mut self, name: &str) -> Attribute {
        self.universe.attr(name)
    }

    /// Interns (or looks up) a data symbol by name.
    pub fn symbol(&mut self, name: &str) -> Symbol {
        self.symbols.symbol(name)
    }

    /// Parses a partition dependency such as `"C = A + B"` into the
    /// session's interners.
    pub fn equation(&mut self, text: &str) -> Result<Equation> {
        Ok(parse_equation(text, &mut self.universe, &mut self.arena)?)
    }

    /// Parses a partition expression such as `"A*(B+C)"`.
    pub fn term(&mut self, text: &str) -> Result<TermId> {
        Ok(parse_term(text, &mut self.universe, &mut self.arena)?)
    }

    /// Renders an equation of this session in the concrete syntax.
    pub fn render(&self, pd: Equation) -> String {
        pd.display(&self.arena, &self.universe)
    }

    /// Starts a chained database builder over the session's interners.
    pub fn database(&mut self) -> SessionDatabaseBuilder<'_> {
        SessionDatabaseBuilder {
            session: self,
            builder: DatabaseBuilder::new(),
        }
    }

    /// Builds a single relation over the session's interners.
    pub fn relation(
        &mut self,
        name: &str,
        attr_names: &[&str],
        rows: &[&[&str]],
    ) -> Result<Relation> {
        let db = DatabaseBuilder::new()
            .relation(
                &mut self.universe,
                &mut self.symbols,
                name,
                attr_names,
                rows,
            )?
            .build();
        Ok(db.relations()[0].clone())
    }

    // ------------------------------------------------------------------
    // Constraint-set registration.
    // ------------------------------------------------------------------

    /// Registers a set of PDs and returns its handle.
    ///
    /// The set is keyed by its normalized form (order, orientation and
    /// duplicates ignored): registering an equal set again returns the same
    /// handle and therefore reuses every cached engine.  Mutated sets keep
    /// participating in this deduplication — after [`Session::add_pd`] /
    /// [`Session::remove_pd`] the set is re-keyed under its *current*
    /// normalized form, so registering a set equal to the mutated state
    /// returns the live (warm) handle, not a cold copy.
    pub fn register(&mut self, pds: &[Equation]) -> Result<ConstraintSetId> {
        for &pd in pds {
            self.validate_equation(pd)?;
        }
        let key = normalized_key(pds);
        if let Some(&idx) = self.keys.get(&key) {
            return Ok(ConstraintSetId(idx as u32));
        }
        let idx = self.sets.len();
        let mut deduped: Vec<Equation> = Vec::new();
        for &pd in pds {
            if !deduped
                .iter()
                .any(|&p| normalized_pair(p) == normalized_pair(pd))
            {
                deduped.push(pd);
            }
        }
        self.sets.push(ConstraintSet::new(deduped, key.clone()));
        self.keys.insert(key, idx);
        Ok(ConstraintSetId(idx as u32))
    }

    /// Parses and registers a set of PDs given in the concrete syntax.
    pub fn register_texts(&mut self, texts: &[&str]) -> Result<ConstraintSetId> {
        let pds = texts
            .iter()
            .map(|t| self.equation(t))
            .collect::<Result<Vec<_>>>()?;
        self.register(&pds)
    }

    // ------------------------------------------------------------------
    // Constraint-set mutation (epoch-based invalidation).
    // ------------------------------------------------------------------

    /// Adds one PD to a live set.  Returns `true` when the set actually
    /// grew (`false` if an equal PD — same pair modulo orientation — was
    /// already registered).  See [`Session::add_pds`] for the semantics.
    pub fn add_pd(&mut self, set: ConstraintSetId, pd: Equation) -> Result<Outcome<bool>> {
        self.add_pds(set, std::slice::from_ref(&pd))
            .map(|outcome| outcome.map(|added| added == 1))
    }

    /// Adds a batch of PDs to a live set, returning how many were new.
    ///
    /// Additions are *monotone* for the ALG engine (Lemma 9.2: saturating a
    /// superset only adds arcs), so the cached [`ImplicationEngine`] is kept
    /// and incrementally re-saturated with just the new equations on the
    /// next implication query — no rebuild, and the delta is reported in
    /// that query's `rule_firings`.  Derived artifacts that cannot be
    /// extended in place (the Section 6.2 closure, the CAD FPD view) are
    /// left untouched here and lazily rebuilt when next consulted.
    ///
    /// Every effective call bumps the set's [`Epoch`] (reported in the
    /// returned counters) and re-keys the set so future registrations of
    /// the grown set dedup onto this live handle.  A batch where every PD
    /// was already present is a no-op: no bump, no invalidation.
    pub fn add_pds(&mut self, set: ConstraintSetId, pds: &[Equation]) -> Result<Outcome<usize>> {
        for &pd in pds {
            self.validate_equation(pd)?;
        }
        let idx = self.index_of(set)?;
        let mut added = 0usize;
        for &pd in pds {
            let pair = normalized_pair(pd);
            if !self.sets[idx]
                .pds
                .iter()
                .any(|&p| normalized_pair(p) == pair)
            {
                self.sets[idx].pds.push(pd);
                added += 1;
            }
        }
        if added > 0 {
            self.bump_and_rekey(idx);
        }
        let counters = Counters {
            epoch: self.sets[idx].epoch,
            ..Counters::default()
        };
        Ok(Outcome::new(added, counters))
    }

    /// Removes one PD from a live set (matched by normalized pair, so
    /// orientation does not matter).  Returns `true` when a PD was
    /// actually removed.
    ///
    /// Removal is *not* monotone — retracting an equation can retract
    /// derived arcs — so no artifact can be patched in place.  Instead the
    /// dependency tracker drops exactly the cached artifacts that consumed
    /// the removed PD and keeps the rest: an artifact whose recorded
    /// dependencies do not include the PD is provably unaffected and
    /// survives the [`Epoch`] bump as a cache hit (it is re-certified at
    /// the new epoch when next consulted).  Removing an absent PD is a
    /// no-op: no bump, no invalidation.
    pub fn remove_pd(&mut self, set: ConstraintSetId, pd: Equation) -> Result<Outcome<bool>> {
        self.validate_equation(pd)?;
        let idx = self.index_of(set)?;
        let pair = normalized_pair(pd);
        let before = self.sets[idx].pds.len();
        self.sets[idx].pds.retain(|&p| normalized_pair(p) != pair);
        let removed = self.sets[idx].pds.len() < before;
        if removed {
            let set_mut = &mut self.sets[idx];
            if set_mut.engine_deps.depends_on(pair) {
                set_mut.engine = None;
                set_mut.engine_deps = ArtifactDeps::default();
            }
            // The tracker's verdict must agree with the ps-core provenance
            // hook on the closure it tracks.
            debug_assert_eq!(
                set_mut.closed.as_ref().is_some_and(|c| c.depends_on(pd)),
                set_mut.closed.is_some() && set_mut.closed_deps.depends_on(pair),
                "dependency tracker and ClosedConstraints provenance disagree"
            );
            if set_mut.closed_deps.depends_on(pair) {
                set_mut.closed = None;
                set_mut.closed_deps = ArtifactDeps::default();
            }
            if set_mut.fpds_deps.depends_on(pair) {
                set_mut.fpds = None;
                set_mut.fpds_deps = ArtifactDeps::default();
            }
            self.bump_and_rekey(idx);
        }
        let counters = Counters {
            epoch: self.sets[idx].epoch,
            ..Counters::default()
        };
        Ok(Outcome::new(removed, counters))
    }

    /// The current mutation [`Epoch`] of a registered set (0 until the
    /// first successful mutation).
    pub fn epoch(&self, set: ConstraintSetId) -> Result<Epoch> {
        Ok(self.set_ref(set)?.epoch)
    }

    /// The epoch at which each *currently built* artifact of the set was
    /// last certified current, keyed by artifact name (`"key"` for the
    /// eagerly maintained normalized-set cache key, then `"engine"`,
    /// `"closed"`, `"fpds"` as built).  Artifacts a query consulted are
    /// re-certified at the set's current epoch, so after any query all its
    /// consulted artifacts report the same epoch as
    /// [`Counters::epoch`]; an artifact left behind (still stamped with an
    /// older epoch) is exactly one that the query provably did not read.
    pub fn artifact_epochs(&self, set: ConstraintSetId) -> Result<Vec<(&'static str, Epoch)>> {
        let s = self.set_ref(set)?;
        let mut epochs = vec![("key", s.key_epoch)];
        if s.engine.is_some() {
            epochs.push(("engine", s.engine_deps.epoch));
        }
        if s.closed.is_some() {
            epochs.push(("closed", s.closed_deps.epoch));
        }
        if s.fpds.is_some() {
            epochs.push(("fpds", s.fpds_deps.epoch));
        }
        Ok(epochs)
    }

    /// Bumps the set's epoch and moves it to its new normalized key.
    ///
    /// The old key is released only if this set owns it; the new key is
    /// claimed only if free (when a mutation makes the set equal to an
    /// older registration, the older set keeps the key — first
    /// registration wins — and both handles stay live and independent).
    fn bump_and_rekey(&mut self, idx: usize) {
        let new_key = normalized_key(&self.sets[idx].pds);
        let old_key = std::mem::replace(&mut self.sets[idx].key, new_key.clone());
        if self.keys.get(&old_key) == Some(&idx) {
            self.keys.remove(&old_key);
        }
        self.keys.entry(new_key).or_insert(idx);
        let set = &mut self.sets[idx];
        set.epoch.bump();
        set.key_epoch = set.epoch;
    }

    /// The PDs registered behind a handle, deduplicated, in first-seen
    /// order.
    pub fn pds(&self, set: ConstraintSetId) -> Result<&[Equation]> {
        Ok(&self.set_ref(set)?.pds)
    }

    /// Number of distinct constraint sets registered so far.
    pub fn num_constraint_sets(&self) -> usize {
        self.sets.len()
    }

    /// Cumulative [`Counters`] over every query this session answered.
    pub fn counters(&self) -> Counters {
        self.totals
    }

    /// Returns the cumulative [`Counters`] and resets them to zero — the
    /// measurement-window primitive used by the `ps-bench` trajectory
    /// runner to attribute counter totals to one workload at a time.
    /// Cached engines and scratch buffers are untouched, so a warm session
    /// stays warm across windows.
    pub fn take_counters(&mut self) -> Counters {
        std::mem::take(&mut self.totals)
    }

    // ------------------------------------------------------------------
    // Snapshots (the share-nothing parallel query path).
    // ------------------------------------------------------------------

    /// Freezes a registered set at its current [`Epoch`] into an immutable,
    /// `Send + Sync` [`SetSnapshot`](crate::SetSnapshot) for parallel
    /// querying (see [`crate::ParallelExecutor`]).
    ///
    /// The freeze warms the set's cached artifacts first — the saturated
    /// [`ImplicationEngine`] and the Section 6.2 closure — counting that
    /// work against the session totals exactly like a query would (one
    /// hit or miss per artifact, build firings included), then copies them
    /// out together with the interners.  Copy-on-write discipline: the
    /// snapshot owns its artifacts, so [`Session::add_pd`] /
    /// [`Session::remove_pd`] on the live set afterwards (which bump the
    /// epoch and invalidate live caches) can never disturb a snapshot
    /// already taken, and snapshot outcomes keep reporting the frozen
    /// epoch in [`Counters::epoch`].
    ///
    /// Implication goals must be inside the frozen vocabulary `V`; freeze
    /// with [`Session::snapshot_with_goals`] to pre-extend `V` with a
    /// planned batch (consistency queries need no pre-extension — any
    /// database over the session's interners works).
    pub fn snapshot(&mut self, set: ConstraintSetId) -> Result<Arc<crate::SetSnapshot>> {
        self.snapshot_with_goals(set, &[])
    }

    /// [`Session::snapshot`], pre-extending the frozen engine's vocabulary
    /// `V` with every subterm of `goals` so the whole batch is answerable
    /// read-only.  The extension's saturation delta is paid once, here
    /// (reported in the session totals' `rule_firings`), not per query.
    pub fn snapshot_with_goals(
        &mut self,
        set: ConstraintSetId,
        goals: &[Equation],
    ) -> Result<Arc<crate::SetSnapshot>> {
        for &goal in goals {
            self.validate_equation(goal)?;
        }
        let idx = self.index_of(set)?;
        let mut counters = Counters {
            epoch: self.sets[idx].epoch,
            ..Counters::default()
        };
        ensure_engine(&self.arena, &mut self.sets[idx], &mut counters);
        let engine = self.sets[idx].engine.as_mut().expect("engine just ensured");
        let before = engine.rule_firings() as u64;
        let roots: Vec<TermId> = goals.iter().flat_map(|g| [g.lhs, g.rhs]).collect();
        engine.add_goal_terms(&self.arena, &roots);
        counters.rule_firings += engine.rule_firings() as u64 - before;
        ensure_closed(
            &mut self.arena,
            &mut self.universe,
            &mut self.sets[idx],
            &mut counters,
        );
        self.totals += counters;
        let set = &self.sets[idx];
        Ok(Arc::new(crate::SetSnapshot::freeze(
            set.epoch,
            set.pds.clone(),
            self.universe.clone(),
            self.symbols.clone(),
            self.arena.clone(),
            set.engine.clone().expect("engine just ensured"),
            set.closed.clone().expect("closure just ensured"),
        )))
    }

    // ------------------------------------------------------------------
    // Implication family (Theorems 8, 9; Section 5.3).
    // ------------------------------------------------------------------

    /// Does the registered set imply the PD `goal`?  (Theorems 8 and 9,
    /// answered by the cached ALG engine.)
    pub fn implies(&mut self, set: ConstraintSetId, goal: Equation) -> Result<Outcome<bool>> {
        self.validate_equation(goal)?;
        let answers = self.implies_many(set, &[goal])?;
        Ok(answers.map(|mut v| v.pop().unwrap_or_default()))
    }

    /// Batched PD implication: one engine pass per goal, all against the
    /// same cached closure.
    pub fn implies_many(
        &mut self,
        set: ConstraintSetId,
        goals: &[Equation],
    ) -> Result<Outcome<Vec<bool>>> {
        for &goal in goals {
            self.validate_equation(goal)?;
        }
        let idx = self.index_of(set)?;
        let mut counters = Counters {
            epoch: self.sets[idx].epoch,
            ..Counters::default()
        };
        ensure_engine(&self.arena, &mut self.sets[idx], &mut counters);
        let engine = self.sets[idx].engine.as_mut().expect("engine just ensured");
        let before = engine.rule_firings() as u64;
        let value = engine.entails_many(&self.arena, goals);
        counters.rule_firings += engine.rule_firings() as u64 - before;
        self.totals += counters;
        Ok(Outcome::new(value, counters))
    }

    /// Does the registered set imply the FPD `goal`?
    pub fn implies_fpd(&mut self, set: ConstraintSetId, goal: &Fpd) -> Result<Outcome<bool>> {
        self.validate_attrs(goal.lhs.iter().chain(goal.rhs.iter()))?;
        let goal_equation = goal.as_meet_equation(&mut self.arena);
        self.implies(set, goal_equation)
    }

    /// Does the registered set imply the FD `goal`?  (The Section 5.3
    /// embedding of FD implication into the lattice word problem.)
    pub fn implies_fd(&mut self, set: ConstraintSetId, goal: &Fd) -> Result<Outcome<bool>> {
        let fpd = Fpd::from_fd(goal);
        self.implies_fpd(set, &fpd)
    }

    /// Batched FD implication against the cached engine.
    pub fn implies_fds(
        &mut self,
        set: ConstraintSetId,
        goals: &[Fd],
    ) -> Result<Outcome<Vec<bool>>> {
        let mut goal_equations = Vec::with_capacity(goals.len());
        for goal in goals {
            self.validate_attrs(goal.lhs.iter().chain(goal.rhs.iter()))?;
            goal_equations.push(Fpd::from_fd(goal).as_meet_equation(&mut self.arena));
        }
        self.implies_many(set, &goal_equations)
    }

    /// Is the PD an identity — true in every partition interpretation?
    /// (Theorem 10, decided by the free-lattice order without any engine.)
    pub fn identity(&mut self, pd: Equation) -> Result<Outcome<bool>> {
        self.validate_equation(pd)?;
        let value = free_order::is_identity(&self.arena, pd);
        Ok(Outcome::new(value, Counters::default()))
    }

    /// Theorem 8's finite controllability: searches for a finite lattice
    /// with constants satisfying the registered set but violating `goal`
    /// (useful as an explanation when [`Session::implies`] answers `false`).
    pub fn countermodel(
        &mut self,
        set: ConstraintSetId,
        goal: Equation,
        max_generators: usize,
    ) -> Result<Option<ps_lattice::Countermodel>> {
        self.validate_equation(goal)?;
        let idx = self.index_of(set)?;
        Ok(ps_lattice::finite_countermodel(
            &mut self.arena,
            &self.universe,
            &self.sets[idx].pds,
            goal,
            max_generators,
        ))
    }

    // ------------------------------------------------------------------
    // Consistency family (Theorems 6, 7, 11, 12).
    // ------------------------------------------------------------------

    /// Is the database consistent with the registered PDs?  The mode picks
    /// Theorem 12's polynomial open-world pipeline or Theorem 11's exact
    /// CAD+EAP search (the latter requires an FPD-only set).
    pub fn consistent(
        &mut self,
        set: ConstraintSetId,
        db: &Database,
        mode: ConsistencyMode,
    ) -> Result<Outcome<ConsistencyAnswer>> {
        let idx = self.index_of(set)?;
        let mut counters = Counters {
            epoch: self.sets[idx].epoch,
            ..Counters::default()
        };
        let answer = match mode {
            ConsistencyMode::Polynomial => {
                ensure_closed(
                    &mut self.arena,
                    &mut self.universe,
                    &mut self.sets[idx],
                    &mut counters,
                );
                let closed = self.sets[idx]
                    .closed
                    .as_ref()
                    .expect("closure just ensured");
                let outcome = ps_core::consistency::consistent_with_closed(
                    db,
                    closed,
                    &mut self.symbols,
                    &mut self.chase_scratch,
                );
                counters.row_visits += outcome.chase.row_visits as u64;
                ConsistencyAnswer {
                    consistent: outcome.consistent,
                    mode,
                    fds: outcome.fds,
                    sums: outcome.sums,
                    witness: outcome.weak_instance,
                    interpretation: None,
                }
            }
            ConsistencyMode::ExactCadEap => {
                self.ensure_fpds(idx, &mut counters)?;
                let fpds = self.sets[idx].fpds.as_ref().expect("fpds just ensured");
                let outcome = ps_core::cad::consistent_with_cad_eap(db, fpds)?;
                counters.row_visits += outcome.stats.assignments as u64;
                ConsistencyAnswer {
                    consistent: outcome.consistent,
                    mode,
                    fds: ps_core::dependency::fds_of_fpds(fpds),
                    sums: Vec::new(),
                    witness: outcome.witness,
                    interpretation: outcome.interpretation,
                }
            }
        };
        self.totals += counters;
        Ok(Outcome::new(answer, counters))
    }

    /// Theorem 7, decision + witness forms: is there a partition
    /// interpretation satisfying the database and the registered PDs?
    ///
    /// When satisfiable, the answer carries a weak instance upgraded by the
    /// Lemma 12.1 sum-constraint repair and the interpretation `I(w)` built
    /// from it (both `None` in the rare case the bounded repair stops short
    /// of a fixpoint, mirroring
    /// [`ps_core::weak_bridge::satisfiable_with_pds`]).
    pub fn weak_instance(
        &mut self,
        set: ConstraintSetId,
        db: &Database,
    ) -> Result<Outcome<SatisfiabilityWitness>> {
        let idx = self.index_of(set)?;
        let mut counters = Counters {
            epoch: self.sets[idx].epoch,
            ..Counters::default()
        };
        ensure_closed(
            &mut self.arena,
            &mut self.universe,
            &mut self.sets[idx],
            &mut counters,
        );
        let closed = self.sets[idx]
            .closed
            .as_ref()
            .expect("closure just ensured");
        let outcome = ps_core::consistency::consistent_with_closed(
            db,
            closed,
            &mut self.symbols,
            &mut self.chase_scratch,
        );
        counters.row_visits += outcome.chase.row_visits as u64;
        let witness = ps_core::weak_bridge::witness_from_consistency(outcome, &mut self.symbols)?;
        self.totals += counters;
        Ok(Outcome::new(witness, counters))
    }

    // ------------------------------------------------------------------
    // Connectivity (Example e, Theorem 4).
    // ------------------------------------------------------------------

    /// Encodes a graph as the Example e relation over head `A`, tail `B`
    /// and component `C` (true components in the `C` column), interning
    /// into this session.
    pub fn component_relation(
        &mut self,
        graph: &ps_graph::UndirectedGraph,
        name: &str,
    ) -> (Relation, GraphEncoding) {
        ps_graph::component_relation(graph, &mut self.universe, &mut self.symbols, name)
    }

    /// Encodes a graph with an arbitrary vertex labelling in the `C` column
    /// (the labelling to be *checked* against the PD `C = A + B`).
    pub fn edge_relation(
        &mut self,
        graph: &ps_graph::UndirectedGraph,
        labelling: &[usize],
        name: &str,
    ) -> (Relation, GraphEncoding) {
        ps_graph::edge_relation(
            graph,
            labelling,
            &mut self.universe,
            &mut self.symbols,
            name,
        )
    }

    /// Computes the connected components of an Example e relation *through
    /// partition semantics* (the blocks of `A + B` in `I(r)`), one
    /// component id per encoded vertex.
    pub fn connected_components(
        &mut self,
        relation: &Relation,
        encoding: &GraphEncoding,
    ) -> Result<Outcome<Vec<usize>>> {
        let counters = Counters {
            row_visits: relation.len() as u64,
            ..Counters::default()
        };
        let value = ps_core::connectivity::components_via_partition_semantics(
            relation,
            &mut self.arena,
            encoding,
        )?;
        self.totals += counters;
        Ok(Outcome::new(value, counters))
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    fn index_of(&self, set: ConstraintSetId) -> Result<usize> {
        let idx = set.0 as usize;
        if idx < self.sets.len() {
            Ok(idx)
        } else {
            Err(Error::UnknownConstraintSet(set))
        }
    }

    fn set_ref(&self, set: ConstraintSetId) -> Result<&ConstraintSet> {
        self.index_of(set).map(|idx| &self.sets[idx])
    }

    /// Best-effort rejection of equations whose term ids were minted by a
    /// different arena: ids beyond this arena's length are caught
    /// (`ForeignTerm`), but an in-bounds id from a foreign arena is
    /// indistinguishable from a legitimate one and resolves to whatever
    /// *this* session's arena holds at that index.  Term ids are plain
    /// indices, so callers must not mix sessions.
    fn validate_equation(&self, pd: Equation) -> Result<()> {
        for id in [pd.lhs, pd.rhs] {
            if id.index() as usize >= self.arena.len() {
                return Err(Error::Lattice(LatticeError::ForeignTerm(id.index())));
            }
        }
        Ok(())
    }

    /// Rejects attributes interned by a different universe.
    fn validate_attrs(&self, attrs: impl IntoIterator<Item = Attribute>) -> Result<()> {
        for a in attrs {
            if a.index() as usize >= self.universe.len() {
                return Err(Error::Core(ps_core::CoreError::UninterpretedAttribute(a)));
            }
        }
        Ok(())
    }

    /// Lazily builds the cached CAD FPD view of a set (the third tracked
    /// artifact), with the same hit/miss accounting and epoch certification
    /// as the engine and the closure.  Errors (a sum PD in the set) leave
    /// counters and cache untouched.
    fn ensure_fpds(&mut self, idx: usize, counters: &mut Counters) -> Result<()> {
        let current = {
            let set = &self.sets[idx];
            set.fpds.is_some() && set.fpds_deps.is_current(&set.key)
        };
        if current {
            counters.engine_hits += 1;
        } else {
            let fpds = self.fpds_of_set(idx)?;
            counters.engine_misses += 1;
            self.sets[idx].fpds = Some(fpds);
        }
        let set = &mut self.sets[idx];
        let epoch = set.epoch;
        set.fpds_deps.certify(&set.key, epoch);
        Ok(())
    }

    /// Converts the set's PDs into FPDs for the CAD path, rejecting sums.
    fn fpds_of_set(&self, idx: usize) -> Result<Vec<Fpd>> {
        let mut fpds = Vec::new();
        for &pd in &self.sets[idx].pds {
            let lhs = meet_atoms(&self.arena, pd.lhs);
            let rhs = meet_atoms(&self.arena, pd.rhs);
            let (Some(lhs), Some(rhs)) = (lhs, rhs) else {
                return Err(Error::CadRequiresFpds {
                    pd: self.render(pd),
                });
            };
            // m(S) = m(T) is equivalent to the FD pair S → T, T → S, but a
            // direction whose right side is contained in its left is the
            // trivial FD X ⊇ Y ⊢ X → Y: skip it rather than inflating the
            // NP-complete search (and the reported FD set) with no-ops.
            // The canonical FPD shape m(X) = m(X∪Y) keeps exactly X → X∪Y.
            if !rhs.is_subset(&lhs) {
                fpds.push(Fpd::new(lhs.clone(), rhs.clone()));
            }
            if !lhs.is_subset(&rhs) {
                fpds.push(Fpd::new(rhs, lhs));
            }
        }
        Ok(fpds)
    }
}

/// Collects the atoms of a pure meet term (`None` if the term contains a
/// join and therefore is not the side of an FPD).
fn meet_atoms(arena: &TermArena, term: TermId) -> Option<AttrSet> {
    match arena.node(term) {
        TermNode::Atom(a) => Some(AttrSet::singleton(a)),
        TermNode::Meet(l, r) => {
            let mut atoms = meet_atoms(arena, l)?;
            for a in meet_atoms(arena, r)?.iter() {
                atoms.insert(a);
            }
            Some(atoms)
        }
        TermNode::Join(..) => None,
    }
}

/// Lazily builds — or revalidates — the cached ALG engine for a set.
///
/// Three-way freshness decision against the dependency tracker:
///
/// 1. deps match the current key exactly → pure hit;
/// 2. deps are a *subset* of the key (the set only grew since the engine
///    was built) → incremental hit: the missing equations are fed to
///    [`ImplicationEngine::add_equations`] and only the saturation delta is
///    paid (counted in `rule_firings`), per Lemma 9.2 monotonicity;
/// 3. otherwise (never built, or poisoned by a removal) → full rebuild,
///    counted as an engine miss.
///
/// In every case the tracker is re-certified for the current key at the
/// current epoch, so the artifact this query consulted reports the query's
/// epoch in [`Session::artifact_epochs`].
fn ensure_engine(arena: &TermArena, set: &mut ConstraintSet, counters: &mut Counters) {
    match set.engine.as_mut() {
        Some(_) if set.engine_deps.is_current(&set.key) => {
            counters.engine_hits += 1;
        }
        Some(engine) if set.engine_deps.is_subset_of(&set.key) => {
            let missing: Vec<Equation> = set
                .pds
                .iter()
                .copied()
                .filter(|&pd| !set.engine_deps.depends_on(normalized_pair(pd)))
                .collect();
            counters.rule_firings += engine.add_equations(arena, &missing) as u64;
            counters.engine_hits += 1;
        }
        _ => {
            let engine = ImplicationEngine::new(arena, &set.pds);
            counters.rule_firings += engine.rule_firings() as u64;
            counters.engine_misses += 1;
            set.engine = Some(engine);
        }
    }
    let epoch = set.epoch;
    set.engine_deps.certify(&set.key, epoch);
}

/// Lazily normalizes and closes a set's constraints (Section 6.2 steps
/// 1–3), counting the closure build as an engine miss.
///
/// Unlike the ALG engine the closure is not extended in place: normalization
/// mints definitional `_t` attributes whose numbering depends on the whole
/// set, so any change to the PDs (addition or removal) rebuilds it.  The
/// dependency tracker still earns its keep on removals: a closure whose
/// recorded dependencies avoid the removed PD survives untouched and this
/// function re-certifies it as a hit at the new epoch.
fn ensure_closed(
    arena: &mut TermArena,
    universe: &mut Universe,
    set: &mut ConstraintSet,
    counters: &mut Counters,
) {
    if set.closed.is_some() && set.closed_deps.is_current(&set.key) {
        debug_assert!(
            set.closed
                .as_ref()
                .is_some_and(|c| c.is_current_for(&set.pds)),
            "dependency tracker and ClosedConstraints provenance disagree"
        );
        counters.engine_hits += 1;
    } else {
        let normalized = normalize_pds(&set.pds, arena, universe);
        let mut engine = ImplicationEngine::new(arena, &normalized.equations);
        let closed = close_constraints_with(&mut engine, &normalized, arena);
        counters.rule_firings += engine.rule_firings() as u64;
        counters.engine_misses += 1;
        set.closed = Some(closed);
    }
    let epoch = set.epoch;
    set.closed_deps.certify(&set.key, epoch);
}

/// A chained database builder writing through the session's interners
/// (mirrors [`ps_relation::DatabaseBuilder`], without the hand-threaded
/// `&mut` catalogs).
pub struct SessionDatabaseBuilder<'s> {
    session: &'s mut Session,
    builder: DatabaseBuilder,
}

impl SessionDatabaseBuilder<'_> {
    /// Adds a relation with the given name, attribute names and rows of
    /// symbol names (see [`ps_relation::DatabaseBuilder::relation`] for the
    /// rejected malformed inputs).
    pub fn relation(mut self, name: &str, attr_names: &[&str], rows: &[&[&str]]) -> Result<Self> {
        self.builder = self.builder.relation(
            &mut self.session.universe,
            &mut self.session.symbols,
            name,
            attr_names,
            rows,
        )?;
        Ok(self)
    }

    /// Finishes building the database.
    pub fn build(self) -> Database {
        self.builder.build()
    }
}
