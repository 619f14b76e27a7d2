//! Algorithm `ALG`: the uniform word problem for lattices (Section 5.2).
//!
//! Given a finite set of equations `E` between lattice terms and a goal
//! equation `e = e′`, decide whether every lattice with constants satisfying
//! `E` also satisfies the goal.  By Theorem 8 this single relation captures
//! implication of partition dependencies over lattices, over all relations,
//! and over finite relations alike.
//!
//! The algorithm constructs the set `V` of all subexpressions of `E`, `e`
//! and `e′`, and saturates a set `Γ ⊆ V × V` of arcs `(p, q)` meaning
//! "`p ≤_E q` is derivable" under the rules:
//!
//! 1. reflexivity `(v, v)`;
//! 2. `(p,s), (q,s) ⟹ (p+q, s)` when `p+q ∈ V`;
//! 3. `(p,s) or (q,s) ⟹ (p*q, s)` when `p*q ∈ V`;
//! 4. `(s,p), (s,q) ⟹ (s, p*q)` when `p*q ∈ V`;
//! 5. `(s,p) or (s,q) ⟹ (s, p+q)` when `p+q ∈ V`;
//! 6. `(p,q), (q,p)` for every equation `p = q` in `E`;
//! 7. transitivity.
//!
//! Lemma 9.2 shows that for `p, q ∈ V`, `p ≤_E q` iff `(p, q)` ends up in
//! `Γ`.  Crucially, the restriction of the saturated `Γ` to any subset of
//! `V` depends only on `E` — enlarging `V` never changes the verdict on
//! terms already present.  That independence is what makes the closure
//! *cacheable* and *incrementally extendable*, and this module exploits it
//! at two levels:
//!
//! * [`ImplicationEngine`] — the production engine.  Built **once** per
//!   constraint set `E`, it owns the arena-dense subexpression universe `V`
//!   and the saturated `Γ` (stored as a [`BitMatrix`] pair: successor rows
//!   and their transpose), answers arbitrarily many [`ImplicationEngine::leq`]
//!   / [`ImplicationEngine::entails`] queries without re-saturating, and
//!   grows on demand: [`ImplicationEngine::add_goal_terms`] appends new
//!   subterms to `V` and re-saturates only what they add.  Rules 2–5 and
//!   transitivity fire as word-parallel row OR/AND operations instead of
//!   per-pair probes.  A goal extension pushes only each row's pending bits,
//!   stored in the column window Lemma 9.2 leaves open
//!   ([`BitMatrix::or_window_into_delta`],
//!   [`BitMatrix::or_and_window_into_delta`]), and pushes an arc that one
//!   of rules 2–5 wrote along transitivity in one direction only; the cold
//!   build and [`ImplicationEngine::add_equations`] push whole
//!   rows.  See [`ImplicationEngine`] for the discipline and its
//!   completeness argument.  The rule-firing and row-op counters
//!   ([`ImplicationEngine::rule_firings`], [`ImplicationEngine::row_ops`])
//!   expose the work done so the benchmark suite can assert it by counter.
//! * [`DerivedOrder`] — the reference implementation, rebuilt from scratch
//!   per instance by the paper's literal repeat-until-no-change fixpoint
//!   (`O(n⁴)` with the straightforward implementation).  It is the one
//!   reference the engine is pinned against: property tests, the debug
//!   cross-check in `ps-core`'s closure step and the benchmark suite
//!   (experiment E7 and the `word_problem` bench group) all compare the two.
//!
//! The one-shot [`entails`] runs on the engine.

use std::collections::{HashMap, VecDeque};

use ps_base::Universe;

use crate::{BitMatrix, Equation, TermArena, TermId, TermNode};

/// The saturated derived order `≤_E` restricted to the subexpression set `V`.
///
/// Build it once per constraint set (plus any goal terms of interest) with
/// [`DerivedOrder::build`], then query arbitrarily many pairs with
/// [`DerivedOrder::leq`] / [`DerivedOrder::entails`].
#[derive(Debug, Clone)]
pub struct DerivedOrder {
    /// The terms making up `V`, in dense order.
    terms: Vec<TermId>,
    /// Map from term id to dense index in `terms`.
    dense: HashMap<TermId, usize>,
    /// `gamma[i][j]` iff `terms[i] ≤_E terms[j]` is derivable.
    gamma: BitMatrix,
    /// Number of saturation rounds.
    work: usize,
}

impl DerivedOrder {
    /// Runs algorithm `ALG` for the equations `E = equations`, making sure
    /// every term in `extra_terms` (e.g. the two sides of a goal equation)
    /// is included in the subexpression set `V`.  Saturation is the paper's
    /// repeat-until-no-change loop over every rule instance.
    pub fn build(arena: &TermArena, equations: &[Equation], extra_terms: &[TermId]) -> Self {
        // --- Collect V: all subterms of E and the extra terms. ---
        let mut terms: Vec<TermId> = Vec::new();
        let mut dense: HashMap<TermId, usize> = HashMap::new();
        let add_subterms =
            |root: TermId, terms: &mut Vec<TermId>, dense: &mut HashMap<TermId, usize>| {
                for t in arena.subterms(root) {
                    dense.entry(t).or_insert_with(|| {
                        terms.push(t);
                        terms.len() - 1
                    });
                }
            };
        for eq in equations {
            add_subterms(eq.lhs, &mut terms, &mut dense);
            add_subterms(eq.rhs, &mut terms, &mut dense);
        }
        for &t in extra_terms {
            add_subterms(t, &mut terms, &mut dense);
        }

        let n = terms.len();
        let mut gamma = BitMatrix::new(n);

        // Seed rule 1 (reflexivity) and rule 6 (the equations of E).
        for i in 0..n {
            gamma.set(i, i);
        }
        for eq in equations {
            let (i, j) = (dense[&eq.lhs], dense[&eq.rhs]);
            gamma.set(i, j);
            gamma.set(j, i);
        }
        let work = saturate_naive(arena, &terms, &dense, &mut gamma);

        DerivedOrder {
            terms,
            dense,
            gamma,
            work,
        }
    }

    /// Whether `lhs ≤_E rhs` is derivable.
    ///
    /// # The `Option` contract
    ///
    /// Both terms must be members of the subexpression set `V` this order
    /// was built over (pass them as `extra_terms` to [`DerivedOrder::build`]).
    /// A foreign term yields `None` — which means "not a member of `V`",
    /// **not** "not entailed".  Callers must not collapse `None` into
    /// `false`: a `None` is a construction bug (the goal was forgotten when
    /// the order was built), and treating it as a negative verdict silently
    /// turns that bug into a wrong answer.  Debug builds therefore assert
    /// membership; use [`DerivedOrder::contains_term`] to query membership
    /// explicitly.
    pub fn leq(&self, lhs: TermId, rhs: TermId) -> Option<bool> {
        debug_assert!(
            self.dense.contains_key(&lhs) && self.dense.contains_key(&rhs),
            "DerivedOrder::leq queried with a term outside V — \
             include goal terms via `extra_terms` when building"
        );
        let (&i, &j) = (self.dense.get(&lhs)?, self.dense.get(&rhs)?);
        Some(self.gamma.get(i, j))
    }

    /// Whether the equation `goal` is entailed: both `lhs ≤_E rhs` and
    /// `rhs ≤_E lhs`.
    ///
    /// Shares the [`Option` contract](DerivedOrder::leq) of `leq`: `None`
    /// means a goal term is outside `V` (asserted in debug builds), never
    /// "not entailed".
    pub fn entails(&self, goal: Equation) -> Option<bool> {
        Some(self.leq(goal.lhs, goal.rhs)? && self.leq(goal.rhs, goal.lhs)?)
    }

    /// Whether `term` is a member of the subexpression set `V`, i.e. whether
    /// [`DerivedOrder::leq`] can answer queries about it.
    pub fn contains_term(&self, term: TermId) -> bool {
        self.dense.contains_key(&term)
    }

    /// The subexpression set `V` (dense order).
    pub fn terms(&self) -> &[TermId] {
        &self.terms
    }

    /// Number of derived arcs in `Γ`.
    pub fn num_arcs(&self) -> usize {
        self.gamma.count_ones()
    }

    /// The number of saturation rounds the fixpoint took; exposed for the
    /// benchmark reports.
    pub fn work(&self) -> usize {
        self.work
    }

    /// Number of rule firings performed while saturating `Γ`.
    ///
    /// A *firing* is a rule application that actually inserted a new arc
    /// (rules 1–7; each arc is inserted exactly once, whichever rule gets
    /// there first, so the count does not depend on the saturation order).
    /// [`ImplicationEngine::rule_firings`] counts the same unit, which is
    /// what lets the ps-bench fixtures compare build-once-query-many against
    /// rebuild-per-goal by counter.
    pub fn rule_firings(&self) -> usize {
        self.gamma.count_ones()
    }

    /// All pairs of *atoms* `(A, B)` with `A ≤_E B`; used by the consistency
    /// pipeline of Section 6.2 to compute the closure `E⁺`.
    pub fn atom_consequences(&self, arena: &TermArena) -> Vec<(TermId, TermId)> {
        atom_consequence_pairs(&self.terms, &self.gamma, arena)
    }

    /// Renders the derived order as a list of `p ≤ q` lines (for debugging
    /// and the examples).
    pub fn render(&self, arena: &TermArena, universe: &Universe) -> String {
        let mut lines = Vec::new();
        for (i, &p) in self.terms.iter().enumerate() {
            for j in self.gamma.iter_row(i) {
                if i == j {
                    continue;
                }
                let q = self.terms[j];
                lines.push(format!(
                    "{} <= {}",
                    arena.display(p, universe),
                    arena.display(q, universe)
                ));
            }
        }
        lines.join("\n")
    }
}

/// The paper's repeat-until-stable saturation.  Returns the number of rounds.
fn saturate_naive(
    arena: &TermArena,
    terms: &[TermId],
    dense: &HashMap<TermId, usize>,
    gamma: &mut BitMatrix,
) -> usize {
    let n = terms.len();
    // Pre-resolve the children of every composite term in V.
    let composites: Vec<(usize, usize, usize, bool)> = terms
        .iter()
        .enumerate()
        .filter_map(|(i, &t)| match arena.node(t) {
            TermNode::Meet(l, r) => Some((i, dense[&l], dense[&r], true)),
            TermNode::Join(l, r) => Some((i, dense[&l], dense[&r], false)),
            TermNode::Atom(_) => None,
        })
        .collect();

    let mut rounds = 0;
    loop {
        rounds += 1;
        let before = gamma.count_ones();

        // Rules 2–5: scan every composite against every s ∈ V.
        for &(c, l, r, is_meet) in &composites {
            for s in 0..n {
                if is_meet {
                    // rule 3: (l,s) or (r,s) ⟹ (c,s)
                    if gamma.get(l, s) || gamma.get(r, s) {
                        gamma.set(c, s);
                    }
                    // rule 4: (s,l) and (s,r) ⟹ (s,c)
                    if gamma.get(s, l) && gamma.get(s, r) {
                        gamma.set(s, c);
                    }
                } else {
                    // rule 2: (l,s) and (r,s) ⟹ (c,s)
                    if gamma.get(l, s) && gamma.get(r, s) {
                        gamma.set(c, s);
                    }
                    // rule 5: (s,l) or (s,r) ⟹ (s,c)
                    if gamma.get(s, l) || gamma.get(s, r) {
                        gamma.set(s, c);
                    }
                }
            }
        }

        // Rule 7: transitivity.
        gamma.transitive_closure();

        if gamma.count_ones() == before {
            return rounds;
        }
    }
}

/// Collects all `(A, B)` atom pairs with an `A ≤_E B` arc in `gamma` —
/// shared by [`DerivedOrder::atom_consequences`] and
/// [`ImplicationEngine::atom_consequences`] so the two engines cannot drift
/// apart on the atom-pair semantics the Section 6.2 closure relies on.
fn atom_consequence_pairs(
    terms: &[TermId],
    gamma: &BitMatrix,
    arena: &TermArena,
) -> Vec<(TermId, TermId)> {
    let mut out = Vec::new();
    for (i, &p) in terms.iter().enumerate() {
        if !arena.is_atom(p) {
            continue;
        }
        for j in gamma.iter_row(i) {
            let q = terms[j];
            if i != j && arena.is_atom(q) {
                out.push((p, q));
            }
        }
    }
    out
}

/// For one term, the composites of `V` it occurs in as a direct child,
/// together with the dense index of the sibling child.
#[derive(Debug, Default, Clone)]
struct Occurrences {
    /// `(composite, sibling)` pairs where the composite is a meet.
    meets: Vec<(usize, usize)>,
    /// `(composite, sibling)` pairs where the composite is a join.
    joins: Vec<(usize, usize)>,
}

/// The cached, incrementally extendable implication engine for algorithm
/// `ALG` — build once per constraint set `E`, query many goals.
///
/// The engine owns the subexpression universe `V` (every subterm of `E`,
/// plus whatever goal terms have been added) and the saturated derived order
/// `Γ`, stored twice for word-parallelism: `succ` holds successor rows
/// (`succ[i][j]` iff `terms[i] ≤_E terms[j]`) and `pred` its transpose.
/// Rules 2–5 and transitivity all become row OR / AND-OR operations on one
/// of the two matrices, so saturation moves 64 arcs per word instead of
/// probing pairs:
///
/// * rule 3 (meet `c = l*r`): `succ[c] |= succ[l]` (and symmetrically `r`);
/// * rule 2 (join `c = l+r`): `succ[c] |= succ[l] & succ[r]`;
/// * rule 5 (join `c = l+r`): `pred[c] |= pred[l]` (and symmetrically `r`);
/// * rule 4 (meet `c = l*r`): `pred[c] |= pred[l] & pred[r]`;
/// * rule 7 (transitivity): `succ[u] |= succ[x]` for `u ∈ pred[x]`, and
///   `pred[v] |= pred[x]` for `v ∈ succ[x]`.
///
/// # Re-saturation discipline
///
/// A worklist of dirty terms drives the fixpoint: every newly inserted arc
/// `(u, v)` marks `u` successor-dirty and `v` predecessor-dirty, and only
/// dirty terms re-fire their rules.  New terms get reflexive arcs (rule 1)
/// and each new composite fires its rules once against the whole current
/// rows of its children (old children are clean and would never re-fire on
/// their own).  What a dirty term then pushes depends on the mode:
///
/// * **Whole rows** — [`ImplicationEngine::new`] and
///   [`ImplicationEngine::add_equations`]: a dirty term pushes its entire
///   row, along rule 7 and into rules 2–5.  Adding an equation can change
///   arcs between old terms, so nothing narrower is safe without more
///   bookkeeping; [`ImplicationEngine::retract_equations`] rebuilds.
/// * **Pending bits** — [`ImplicationEngine::add_goal_terms`] and every
///   auto-extending query: a dirty term pushes only the bits its rows
///   gained since it was last processed (semi-naive evaluation).
///   - *The Lemma 9.2 window.*  Enlarging `V` never changes `Γ` on old
///     terms, so an old row can gain bits only in new columns.  Its pending
///     bits are stored as the words from `old_n / 64` on; only the new rows
///     are full width.  Per pending kind that is about `n × 2` words, not
///     `n × |V| / 64`.
///   - *Side-aware transitivity.*  Each new arc carries the side of rule 7
///     it is pushed along.  An arc that rule 3 or 2 wrote into `succ[c]` is
///     pushed only to the predecessors of `c`; an arc that rule 5 or 4
///     wrote into `pred[c]` only to the successors of `c`; base arcs and
///     arcs inserted by rule 7 itself both ways.  Rules 2–5 see every new
///     bit.  The saving is in the seeding: a new join `t = l+r` copies
///     `pred[l] ∪ pred[r]` into `pred[t]`, hundreds of arcs `(u, t)` whose
///     push to the predecessors of each `u` could only rediscover arcs into
///     `t` — `pred[u] ⊆ pred[l]` already.
///
/// The pending bits and the worklist live only inside one saturation call;
/// the engine at rest, which sessions cache and snapshots clone, holds only
/// `V`, the two matrices and the occurrence lists.
///
/// **Completeness of the side rule.**  Rules 2–5 are closed at the fixpoint:
/// a new composite is seeded from the whole rows of its children, and every
/// later bit of a child's row reaches the composite through the child's
/// pending bits (for rules 2 and 4 the later of the two premises meets the
/// other's whole row).  For transitivity take arcs `f = (a, b)` and
/// `s = (b, c)`; show `(a, c) ∈ Γ` by induction on the sum of their
/// insertion times (arcs of the saturated `Γ` before the extension count
/// as time 0: present from the start, never pushed, and closed among
/// themselves).
///
/// * `s` is pushed to the predecessors of `b` (or is old) and `f` to the
///   successors of `b` (or is old): the push that is processed last sees
///   the other arc and inserts `(a, c)` — if `f` existed when `s` was
///   pushed, `a ∈ pred[b]` then; otherwise `f` arrived later and so was
///   pushed after `s` existed.  (Two old arcs: `Γ` was closed.)
/// * `f` was written by rule 3 or 2, so `a` is a meet `l*r` with `(l, b)`,
///   or a join `l+r` with `(l, b)` and `(r, b)`.  Those premises are older
///   than `f`, so by induction `(l, c)` (and `(r, c)`) are in `Γ`, and the
///   closed rule 3 (rule 2) gives `(a, c)`.
/// * `s` was written by rule 5 or 4: the mirror image, through `c`'s
///   children.
///
/// These cases are exhaustive, since only rule 2–5 arcs skip a side.  Arcs
/// inserted by rule 7 keep both sides: skipping one there has no argument
/// this short.  It costs nothing: on `skewed_query_mix` goal streams no
/// goal extension inserts a single arc by rule 7 — every new arc comes from
/// rules 2–5 — so the two-sided rule-7 arcs never add a push.
///
/// ```
/// use ps_base::Universe;
/// use ps_lattice::{parse_equation, parse_term, ImplicationEngine, TermArena};
///
/// let mut universe = Universe::new();
/// let mut arena = TermArena::new();
/// let e = vec![
///     parse_equation("A = A*B", &mut universe, &mut arena).unwrap(),
///     parse_equation("B = B*C", &mut universe, &mut arena).unwrap(),
/// ];
/// // Build once…
/// let mut engine = ImplicationEngine::new(&arena, &e);
/// // …query many goals; V grows on demand, re-saturating only the frontier.
/// let goal = parse_equation("A = A*C", &mut universe, &mut arena).unwrap();
/// let converse = parse_equation("C = C*A", &mut universe, &mut arena).unwrap();
/// assert_eq!(engine.entails_many(&arena, &[goal, converse]), vec![true, false]);
/// let (a, c) = (
///     parse_term("A", &mut universe, &mut arena).unwrap(),
///     parse_term("C", &mut universe, &mut arena).unwrap(),
/// );
/// assert!(engine.leq_goal(&arena, a, c));
/// ```
#[derive(Debug, Clone)]
pub struct ImplicationEngine {
    /// The constraint set `E` the engine was built for.
    equations: Vec<Equation>,
    /// The terms making up `V`, in dense order (append-only).
    terms: Vec<TermId>,
    /// Map from term id to dense index in `terms`.
    dense: HashMap<TermId, usize>,
    /// `succ[i][j]` iff `terms[i] ≤_E terms[j]` is derivable.
    succ: BitMatrix,
    /// Transpose of `succ`: `pred[j][i]` iff `terms[i] ≤_E terms[j]`.
    pred: BitMatrix,
    /// Child → parent-composite occurrence lists.
    occ: Vec<Occurrences>,
    /// Arcs inserted by rule applications (same unit as
    /// [`DerivedOrder::rule_firings`]).
    rule_firings: usize,
    /// Word-parallel row operations executed.
    row_ops: usize,
}

impl ImplicationEngine {
    /// Builds and saturates the engine for the constraint set `equations`.
    ///
    /// `V` starts as the subexpression set of `E`; extend it afterwards with
    /// [`ImplicationEngine::add_goal_terms`] (or implicitly through the
    /// `*_goal` / `*_many` query methods).
    pub fn new(arena: &TermArena, equations: &[Equation]) -> Self {
        let mut engine = ImplicationEngine {
            equations: equations.to_vec(),
            terms: Vec::new(),
            dense: HashMap::new(),
            succ: BitMatrix::new(0),
            pred: BitMatrix::new(0),
            occ: Vec::new(),
            rule_firings: 0,
            row_ops: 0,
        };
        engine.add_equations_whole_rows(arena, equations);
        engine
    }

    /// Builds the engine and immediately extends `V` with `extra_terms` —
    /// the drop-in replacement for [`DerivedOrder::build`].
    pub fn with_goal_terms(
        arena: &TermArena,
        equations: &[Equation],
        extra_terms: &[TermId],
    ) -> Self {
        let mut engine = Self::new(arena, equations);
        engine.add_goal_terms(arena, extra_terms);
        engine
    }

    /// Extends `V` with every subterm of `terms` that is not yet present and
    /// re-saturates incrementally: only the worklist frontier seeded by the
    /// new rows/columns is processed, never the already-saturated closure.
    /// Returns the number of terms actually added (0 is a no-op).
    pub fn add_goal_terms(&mut self, arena: &TermArena, terms: &[TermId]) -> usize {
        let old_n = self.push_terms(arena, terms);
        let n = self.terms.len();
        if n > old_n {
            let mut frontier = Frontier::window(old_n, n);
            self.seed_terms(arena, old_n, &mut frontier);
            self.saturate(&mut frontier);
        }
        n - old_n
    }

    /// Appends `new_equations` to the constraint set `E` and re-saturates
    /// incrementally: each new equation's subterms join `V`, its rule-6 arcs
    /// are seeded against the already-saturated closure, and the worklist
    /// drains only the affected frontier.  Saturation is monotone in `E`
    /// (adding an equation can only grow `Γ`), so the closure over the old
    /// set is reused, never recomputed — the same discipline
    /// [`ImplicationEngine::add_goal_terms`] applies to `V` growth.
    ///
    /// Returns the number of arcs the extension inserted (the incremental
    /// re-saturation delta, in the same unit as
    /// [`ImplicationEngine::rule_firings`]); `0` means every new equation
    /// was already entailed.  Compare the delta against a fresh
    /// [`ImplicationEngine::new`] over the grown set to see the saving: the
    /// fresh build re-fires every old arc, the extension fires only new
    /// ones.
    pub fn add_equations(&mut self, arena: &TermArena, new_equations: &[Equation]) -> usize {
        let before = self.rule_firings;
        self.equations.extend_from_slice(new_equations);
        self.add_equations_whole_rows(arena, new_equations);
        self.rule_firings - before
    }

    /// Retracts equations from `E` (matched modulo orientation) by
    /// rebuilding.  Retraction is non-monotone: an arc contributed by a
    /// removed equation cannot be identified after the fact (other equations
    /// may independently re-derive it), so the only sound path is a fresh
    /// saturation of the remaining set.  The rebuild also keeps `V` minimal
    /// again — goal terms added by earlier queries are dropped together with
    /// every arc that mentions them — and restarts the
    /// [`ImplicationEngine::rule_firings`] / [`ImplicationEngine::row_ops`]
    /// counters with it.
    ///
    /// Returns the number of equations removed; `0` leaves the engine (and
    /// its counters) untouched.
    pub fn retract_equations(&mut self, arena: &TermArena, removed: &[Equation]) -> usize {
        let matches = |eq: &Equation, r: &Equation| {
            (eq.lhs == r.lhs && eq.rhs == r.rhs) || (eq.lhs == r.rhs && eq.rhs == r.lhs)
        };
        let remaining: Vec<Equation> = self
            .equations
            .iter()
            .copied()
            .filter(|eq| !removed.iter().any(|r| matches(eq, r)))
            .collect();
        let removed_count = self.equations.len() - remaining.len();
        if removed_count > 0 {
            *self = ImplicationEngine::new(arena, &remaining);
        }
        removed_count
    }

    /// Whether `lhs ≤_E rhs` is derivable.  Same [`Option`
    /// contract](DerivedOrder::leq) as the reference order: `None` means the
    /// term is outside `V` (asserted in debug builds) — extend `V` first with
    /// [`ImplicationEngine::add_goal_terms`], or use the auto-extending
    /// [`ImplicationEngine::leq_goal`].
    pub fn leq(&self, lhs: TermId, rhs: TermId) -> Option<bool> {
        debug_assert!(
            self.dense.contains_key(&lhs) && self.dense.contains_key(&rhs),
            "ImplicationEngine::leq queried with a term outside V — \
             add goal terms via `add_goal_terms` first"
        );
        let (&i, &j) = (self.dense.get(&lhs)?, self.dense.get(&rhs)?);
        Some(self.succ.get(i, j))
    }

    /// Whether the equation `goal` is entailed (both `≤` directions).  Same
    /// [`Option` contract](DerivedOrder::leq) as [`ImplicationEngine::leq`].
    pub fn entails(&self, goal: Equation) -> Option<bool> {
        Some(self.leq(goal.lhs, goal.rhs)? && self.leq(goal.rhs, goal.lhs)?)
    }

    /// Whether `term` is a member of the current subexpression set `V`.
    pub fn contains_term(&self, term: TermId) -> bool {
        self.dense.contains_key(&term)
    }

    /// Read-only `lhs ≤_E rhs` for *frozen* (shared, immutable) engines.
    ///
    /// Identical to [`ImplicationEngine::leq`] except that a term outside
    /// `V` is an *expected* outcome, not a caller bug: `None` means "outside
    /// the frozen vocabulary" (never "false") and there is no debug
    /// assertion.  Snapshot layers that pre-extend `V` with a batch's goal
    /// subterms use this to answer each goal without `&mut` access; a `None`
    /// surfaces as an outside-vocabulary error instead of silently mutating.
    pub fn leq_frozen(&self, lhs: TermId, rhs: TermId) -> Option<bool> {
        let (&i, &j) = (self.dense.get(&lhs)?, self.dense.get(&rhs)?);
        Some(self.succ.get(i, j))
    }

    /// Read-only entailment for frozen engines: both `≤` directions of
    /// `goal` via [`ImplicationEngine::leq_frozen`].  `None` means a goal
    /// term is outside the frozen vocabulary `V`, never "false".
    pub fn entails_frozen(&self, goal: Equation) -> Option<bool> {
        Some(self.leq_frozen(goal.lhs, goal.rhs)? && self.leq_frozen(goal.rhs, goal.lhs)?)
    }

    /// `lhs ≤_E rhs`, extending `V` with both terms first if necessary.
    pub fn leq_goal(&mut self, arena: &TermArena, lhs: TermId, rhs: TermId) -> bool {
        self.add_goal_terms(arena, &[lhs, rhs]);
        self.leq(lhs, rhs).expect("goal terms were just added to V")
    }

    /// Does `E` entail `goal`, extending `V` with the goal terms first if
    /// necessary?
    pub fn entails_goal(&mut self, arena: &TermArena, goal: Equation) -> bool {
        self.add_goal_terms(arena, &[goal.lhs, goal.rhs]);
        self.entails(goal).expect("goal terms were just added to V")
    }

    /// Batched entailment: one `V` extension covering every goal, then one
    /// lookup per goal.
    pub fn entails_many(&mut self, arena: &TermArena, goals: &[Equation]) -> Vec<bool> {
        let roots: Vec<TermId> = goals.iter().flat_map(|g| [g.lhs, g.rhs]).collect();
        self.add_goal_terms(arena, &roots);
        goals
            .iter()
            .map(|&g| self.entails(g).expect("goal terms were just added to V"))
            .collect()
    }

    /// Batched order queries: one `V` extension covering every pair, then
    /// one lookup per pair.
    pub fn leq_many(&mut self, arena: &TermArena, pairs: &[(TermId, TermId)]) -> Vec<bool> {
        let roots: Vec<TermId> = pairs.iter().flat_map(|&(l, r)| [l, r]).collect();
        self.add_goal_terms(arena, &roots);
        pairs
            .iter()
            .map(|&(l, r)| self.leq(l, r).expect("goal terms were just added to V"))
            .collect()
    }

    /// The constraint set `E` the engine was built for.
    pub fn equations(&self) -> &[Equation] {
        &self.equations
    }

    /// The current subexpression set `V` (dense order, append-only).
    pub fn terms(&self) -> &[TermId] {
        &self.terms
    }

    /// Number of derived arcs in `Γ`.
    pub fn num_arcs(&self) -> usize {
        self.succ.count_ones()
    }

    /// Number of rule firings (arc insertions) performed so far, cumulative
    /// across the initial build and every incremental extension.  Same unit
    /// as [`DerivedOrder::rule_firings`], so `k` independent rebuilds can be
    /// compared against one cached engine answering `k` goals.
    pub fn rule_firings(&self) -> usize {
        self.rule_firings
    }

    /// Number of word-parallel row operations executed so far (each OR /
    /// AND-OR pass over a row pair counts once, whether or not it fired).
    pub fn row_ops(&self) -> usize {
        self.row_ops
    }

    /// All pairs of *atoms* `(A, B)` with `A ≤_E B`; used by the consistency
    /// pipeline of Section 6.2 to compute the closure `E⁺`.
    pub fn atom_consequences(&self, arena: &TermArena) -> Vec<(TermId, TermId)> {
        atom_consequence_pairs(&self.terms, &self.succ, arena)
    }

    // --- Internals -----------------------------------------------------

    /// Adds the subterms of `new_equations` to `V` and their rule-6 arcs
    /// to `Γ`, then saturates in whole-row mode.  (The caller records the
    /// equations themselves in `self.equations`.)
    fn add_equations_whole_rows(&mut self, arena: &TermArena, new_equations: &[Equation]) {
        let roots: Vec<TermId> = new_equations
            .iter()
            .flat_map(|eq| [eq.lhs, eq.rhs])
            .collect();
        let old_n = self.push_terms(arena, &roots);
        let mut frontier = Frontier::whole_rows(self.terms.len());
        self.seed_terms(arena, old_n, &mut frontier);
        // Rule 6: the equations, in both directions.
        for eq in new_equations {
            let (i, j) = (self.dense[&eq.lhs], self.dense[&eq.rhs]);
            self.insert_arc(i, j, &mut frontier);
            self.insert_arc(j, i, &mut frontier);
        }
        self.saturate(&mut frontier);
    }

    /// Appends every not-yet-present subterm of `roots` to `V`, growing the
    /// matrices and the occurrence lists.  Returns the old size of `V`;
    /// callers seed the new terms with [`ImplicationEngine::seed_terms`].
    fn push_terms(&mut self, arena: &TermArena, roots: &[TermId]) -> usize {
        let old_n = self.terms.len();
        for &root in roots {
            for t in arena.subterms(root) {
                if !self.dense.contains_key(&t) {
                    self.dense.insert(t, self.terms.len());
                    self.terms.push(t);
                }
            }
        }
        let new_n = self.terms.len();
        if new_n == old_n {
            return old_n;
        }
        self.succ.grow(new_n);
        self.pred.grow(new_n);
        self.occ.resize_with(new_n, Occurrences::default);
        // Children of a new composite are always in V already (subterms are
        // added child-first), but may be *old* terms.
        for i in old_n..new_n {
            match arena.node(self.terms[i]) {
                TermNode::Meet(l, r) => {
                    let (dl, dr) = (self.dense[&l], self.dense[&r]);
                    self.occ[dl].meets.push((i, dr));
                    self.occ[dr].meets.push((i, dl));
                }
                TermNode::Join(l, r) => {
                    let (dl, dr) = (self.dense[&l], self.dense[&r]);
                    self.occ[dl].joins.push((i, dr));
                    self.occ[dr].joins.push((i, dl));
                }
                TermNode::Atom(_) => {}
            }
        }
        old_n
    }

    /// Seeds the terms from `old_n` on: reflexive arcs (rule 1), then each
    /// new composite fires its rules once against the whole current rows of
    /// its children.  Old children are clean and would never re-fire on
    /// their own, which is why the seeding must be explicit.  The
    /// one-premise rules (3 and 5) take both children in a single batched
    /// row union.
    fn seed_terms(&mut self, arena: &TermArena, old_n: usize, f: &mut Frontier) {
        let n = self.terms.len();
        for i in old_n..n {
            self.insert_arc(i, i, f);
        }
        for i in old_n..n {
            match arena.node(self.terms[i]) {
                TermNode::Meet(l, r) => {
                    let (dl, dr) = (self.dense[&l], self.dense[&r]);
                    self.row_ops += 2;
                    self.succ.union_rows_into_delta(&[dl, dr], i, &mut f.delta);
                    self.absorb(i, Side::Succ, false, f); // rule 3 (either child)
                    self.row_ops += 1;
                    self.pred.or_and_rows_into_delta(dl, dr, i, &mut f.delta);
                    self.absorb(i, Side::Pred, false, f); // rule 4
                }
                TermNode::Join(l, r) => {
                    let (dl, dr) = (self.dense[&l], self.dense[&r]);
                    self.row_ops += 1;
                    self.succ.or_and_rows_into_delta(dl, dr, i, &mut f.delta);
                    self.absorb(i, Side::Succ, false, f); // rule 2
                    self.row_ops += 2;
                    self.pred.union_rows_into_delta(&[dl, dr], i, &mut f.delta);
                    self.absorb(i, Side::Pred, false, f); // rule 5 (either child)
                }
                TermNode::Atom(_) => {}
            }
        }
    }

    /// Inserts the base arc `terms[u] ≤_E terms[v]` (rules 1 and 6),
    /// mirroring it into the transpose.  Base arcs are pushed along rule 7
    /// both ways.
    fn insert_arc(&mut self, u: usize, v: usize, f: &mut Frontier) {
        if self.succ.set(u, v) {
            self.pred.set(v, u);
            self.rule_firings += 1;
            if let Some(p) = &mut f.pending {
                p.note(u, v, Side::Succ, true);
            }
            f.mark_dirty(u, Side::Succ);
            f.mark_dirty(v, Side::Pred);
        }
    }

    /// The matrix whose rows are `side`'s rows: `succ` or `pred`.
    fn rows(&mut self, side: Side) -> &mut BitMatrix {
        match side {
            Side::Succ => &mut self.succ,
            Side::Pred => &mut self.pred,
        }
    }

    /// The composites `x` is a child of that fire a rule on `side` from a
    /// single child (`either`: rule 3 on the successor side, rule 5 on the
    /// predecessor side) or from both children (rules 2 and 4), with the
    /// sibling's index.
    fn parents(&self, x: usize, side: Side, either: bool) -> &[(usize, usize)] {
        let occ = &self.occ[x];
        if (side == Side::Succ) == either {
            &occ.meets
        } else {
            &occ.joins
        }
    }

    /// Takes the bits a row operation just set in row `dst` of `side`'s
    /// matrix (left in `f.delta`), mirrors them into the transpose and
    /// records the new arcs — as pushed along rule 7 on `side` only, or
    /// both ways when `both` (arcs inserted by rule 7 itself).
    fn absorb(&mut self, dst: usize, side: Side, both: bool, f: &mut Frontier) {
        let delta = std::mem::take(&mut f.delta);
        if !delta.is_empty() {
            let (mirror, other) = (self.rows(side.other()), side.other());
            for &k in &delta {
                mirror.set(k, dst);
                f.mark_dirty(k, other);
            }
            f.mark_dirty(dst, side);
            self.rule_firings += delta.len();
            if let Some(p) = &mut f.pending {
                for &k in &delta {
                    match side {
                        Side::Succ => p.note(dst, k, side, both),
                        Side::Pred => p.note(k, dst, side, both),
                    }
                }
            }
        }
        f.delta = delta;
        f.delta.clear();
    }

    /// Drains the worklist to the fixpoint.  Each popped term processes its
    /// successor side first, then its predecessor side.
    fn saturate(&mut self, f: &mut Frontier) {
        while let Some(x) = f.queue.pop_front() {
            f.queued[x] = false;
            for side in [Side::Succ, Side::Pred] {
                if std::mem::take(&mut f.dirty[side as usize][x]) {
                    self.process(x, side, f);
                }
            }
        }
        debug_assert_eq!(
            self.rule_firings,
            self.succ.count_ones(),
            "every arc is inserted (and counted) exactly once"
        );
    }

    /// `x`'s row on `side` gained bits: push them along rule 7 (on the
    /// successor side backwards to `x`'s predecessors, on the predecessor
    /// side forwards to its successors) and up into the composites `x` is a
    /// child of (rules 3 and 2, or 5 and 4).
    fn process(&mut self, x: usize, side: Side, f: &mut Frontier) {
        let (mut trans, mut rule) = (std::mem::take(&mut f.trans), std::mem::take(&mut f.rule));
        match f.take_pending(x, side, &mut trans, &mut rule) {
            None => self.push(x, side, WholeRow(x), WholeRow(x), f),
            Some(first) => {
                let window = |words| Window { first, words };
                self.push(x, side, window(&trans), window(&rule), f);
            }
        }
        (f.trans, f.rule) = (trans, rule);
    }

    /// Pushes `trans` along rule 7 and `rule` into rules 2–5 for the dirty
    /// term `x` on `side`.  Generic so that each mode's loop compiles to
    /// direct kernel calls.
    fn push<P: Push>(&mut self, x: usize, side: Side, trans: P, rule: P, f: &mut Frontier) {
        if !trans.is_empty() {
            // Rule 7.  The neighbour list is snapshotted because the rule
            // ops below may grow it (any such arc is recorded for `x`, so
            // nothing is missed).
            let mut others = std::mem::take(&mut f.row_buf);
            others.clear();
            others.extend(self.rows(side.other()).iter_row(x));
            for &u in &others {
                if u != x {
                    self.row_ops += 1;
                    if trans.or_into(self.rows(side), u, &mut f.delta) {
                        self.absorb(u, side, true, f);
                    }
                }
            }
            f.row_buf = others;
        }
        if !rule.is_empty() {
            for k in 0..self.parents(x, side, true).len() {
                let (c, _sibling) = self.parents(x, side, true)[k];
                self.row_ops += 1;
                if rule.or_into(self.rows(side), c, &mut f.delta) {
                    self.absorb(c, side, false, f);
                }
            }
            for k in 0..self.parents(x, side, false).len() {
                let (c, sibling) = self.parents(x, side, false)[k];
                self.row_ops += 1;
                if rule.or_and_into(self.rows(side), c, sibling, &mut f.delta) {
                    self.absorb(c, side, false, f);
                }
            }
        }
    }
}

/// One of the two matrices: `Succ` rows hold what a term reaches, `Pred`
/// rows what reaches it.  A row operation writes one side's rows and the
/// new arcs are mirrored into the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Succ = 0,
    Pred = 1,
}

impl Side {
    fn other(self) -> Side {
        match self {
            Side::Succ => Side::Pred,
            Side::Pred => Side::Succ,
        }
    }
}

/// What a dirty term pushes into another row `dst` of the matrix being
/// written.
trait Push: Copy {
    /// Whether there is nothing to push.
    fn is_empty(&self) -> bool;
    /// `m[dst] |= pushed`; returns whether `dst` changed.
    fn or_into(&self, m: &mut BitMatrix, dst: usize, delta: &mut Vec<usize>) -> bool;
    /// `m[dst] |= pushed & m[other]`; returns whether `dst` changed.
    fn or_and_into(
        &self,
        m: &mut BitMatrix,
        dst: usize,
        other: usize,
        delta: &mut Vec<usize>,
    ) -> bool;
}

/// Whole-row mode: the term's entire row.  It holds at least the reflexive
/// bit, so it is never empty.
#[derive(Debug, Clone, Copy)]
struct WholeRow(usize);

impl Push for WholeRow {
    fn is_empty(&self) -> bool {
        false
    }
    fn or_into(&self, m: &mut BitMatrix, dst: usize, delta: &mut Vec<usize>) -> bool {
        m.or_row_into_delta(self.0, dst, delta)
    }
    fn or_and_into(
        &self,
        m: &mut BitMatrix,
        dst: usize,
        other: usize,
        delta: &mut Vec<usize>,
    ) -> bool {
        m.or_and_rows_into_delta(self.0, other, dst, delta)
    }
}

/// Pending-bit mode: the term's pending words, starting at word `first`.
#[derive(Debug, Clone, Copy)]
struct Window<'a> {
    first: usize,
    words: &'a [u64],
}

impl Push for Window<'_> {
    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
    fn or_into(&self, m: &mut BitMatrix, dst: usize, delta: &mut Vec<usize>) -> bool {
        m.or_window_into_delta(dst, self.first, self.words, delta)
    }
    fn or_and_into(
        &self,
        m: &mut BitMatrix,
        dst: usize,
        other: usize,
        delta: &mut Vec<usize>,
    ) -> bool {
        m.or_and_window_into_delta(dst, self.first, self.words, other, delta)
    }
}

/// One kind of pending bits during a goal extension, one row per term of
/// `V`.  By Lemma 9.2 a row that existed before the extension can only gain
/// bits in new columns, so an old row stores just the window of words from
/// `old_n / 64` on; the new rows are full width.
#[derive(Debug)]
struct DeltaRows {
    old_n: usize,
    /// First word of an old row's window.
    base: usize,
    /// Full row width in words.
    width: usize,
    bits: Vec<u64>,
}

impl DeltaRows {
    fn new(old_n: usize, n: usize) -> Self {
        let width = n.div_ceil(64);
        let base = old_n / 64;
        DeltaRows {
            old_n,
            base,
            width,
            bits: vec![0; old_n * (width - base) + (n - old_n) * width],
        }
    }

    /// `(offset into bits, first word, length)` of row `x`.
    fn span(&self, x: usize) -> (usize, usize, usize) {
        let win = self.width - self.base;
        if x < self.old_n {
            (x * win, self.base, win)
        } else {
            (
                self.old_n * win + (x - self.old_n) * self.width,
                0,
                self.width,
            )
        }
    }

    fn set(&mut self, x: usize, col: usize) {
        let (offset, first, _) = self.span(x);
        debug_assert!(
            col / 64 >= first,
            "Lemma 9.2: old row {x} gained old column {col}"
        );
        self.bits[offset + col / 64 - first] |= 1u64 << (col % 64);
    }

    /// Moves row `x`'s pending bits into `buf` (replacing its contents)
    /// and clears them; returns the first word the bits belong at.
    fn take(&mut self, x: usize, buf: &mut Vec<u64>) -> usize {
        let (offset, first, len) = self.span(x);
        buf.clear();
        buf.extend_from_slice(&self.bits[offset..offset + len]);
        self.bits[offset..offset + len].fill(0);
        first
    }
}

/// The pending bits of a goal extension, per side (indexed by `Side as
/// usize`).  `rule[side]` holds every bit a row gained (rules 2–5 see them
/// all); `trans[side]` only the bits rule 7 pushes on from that row —
/// everything except the arcs the other side's rules (4–5 for the
/// successor side, 2–3 for the predecessor side) wrote.
#[derive(Debug)]
struct Pending {
    rule: [DeltaRows; 2],
    trans: [DeltaRows; 2],
}

impl Pending {
    /// Records the new arc `(u, w)`, written into a `side` row; `both` when
    /// rule 7 pushes it on from both of its rows.
    fn note(&mut self, u: usize, w: usize, side: Side, both: bool) {
        self.rule[Side::Succ as usize].set(u, w);
        self.rule[Side::Pred as usize].set(w, u);
        if side == Side::Succ || both {
            self.trans[Side::Succ as usize].set(u, w);
        }
        if side == Side::Pred || both {
            self.trans[Side::Pred as usize].set(w, u);
        }
    }
}

/// The state of one saturation: the dirty-term worklist and, for a goal
/// extension, the pending bits.  It lives only for the duration of one
/// `new` / `add_goal_terms` / `add_equations` call; the engine at rest
/// holds none of it.
#[derive(Debug)]
struct Frontier {
    /// Per side (`Side as usize`): terms whose row on that side changed.
    dirty: [Vec<bool>; 2],
    queued: Vec<bool>,
    queue: VecDeque<usize>,
    /// `None`: whole-row mode, where a dirty term pushes its entire row.
    pending: Option<Pending>,
    /// Columns (or rows) set by the last row operation.
    delta: Vec<usize>,
    /// Row snapshot taken while processing a dirty term.
    row_buf: Vec<usize>,
    /// The pending words the term being processed pushes along rule 7 and
    /// into rules 2–5.
    trans: Vec<u64>,
    rule: Vec<u64>,
}

impl Frontier {
    /// Whole-row mode over `n` terms: the cold build and `add_equations`.
    fn whole_rows(n: usize) -> Self {
        Frontier {
            dirty: [vec![false; n], vec![false; n]],
            queued: vec![false; n],
            queue: VecDeque::new(),
            pending: None,
            delta: Vec::new(),
            row_buf: Vec::new(),
            trans: Vec::new(),
            rule: Vec::new(),
        }
    }

    /// Pending-bit mode for a goal extension from `old_n` to `n` terms.
    fn window(old_n: usize, n: usize) -> Self {
        let rows = || DeltaRows::new(old_n, n);
        Frontier {
            pending: Some(Pending {
                rule: [rows(), rows()],
                trans: [rows(), rows()],
            }),
            ..Frontier::whole_rows(n)
        }
    }

    /// Moves `x`'s pending bits on `side` into `trans` and `rule` and
    /// returns the word they start at, or `None` in whole-row mode.
    fn take_pending(
        &mut self,
        x: usize,
        side: Side,
        trans: &mut Vec<u64>,
        rule: &mut Vec<u64>,
    ) -> Option<usize> {
        let p = self.pending.as_mut()?;
        p.trans[side as usize].take(x, trans);
        Some(p.rule[side as usize].take(x, rule))
    }

    fn mark_dirty(&mut self, x: usize, side: Side) {
        if !self.dirty[side as usize][x] {
            self.dirty[side as usize][x] = true;
            if !self.queued[x] {
                self.queued[x] = true;
                self.queue.push_back(x);
            }
        }
    }
}

/// Convenience: does `E` entail the equation `goal` (the uniform word
/// problem / PD implication, Theorem 8)?  Builds one [`ImplicationEngine`]
/// over `E` and the goal's terms.
pub fn entails(arena: &TermArena, equations: &[Equation], goal: Equation) -> bool {
    ImplicationEngine::new(arena, equations).entails_goal(arena, goal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{free_order, parse_equation, parse_term};
    use ps_base::Universe;

    struct Fixture {
        universe: Universe,
        arena: TermArena,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                universe: Universe::new(),
                arena: TermArena::new(),
            }
        }
        fn eq(&mut self, s: &str) -> Equation {
            parse_equation(s, &mut self.universe, &mut self.arena).unwrap()
        }
        fn t(&mut self, s: &str) -> TermId {
            parse_term(s, &mut self.universe, &mut self.arena).unwrap()
        }
    }

    /// The reference verdict: a fresh naive fixpoint over `E` and the goal.
    fn naive(arena: &TermArena, e: &[Equation], goal: Equation) -> bool {
        DerivedOrder::build(arena, e, &[goal.lhs, goal.rhs])
            .entails(goal)
            .expect("goal terms are in V by construction")
    }

    /// The engine-backed [`entails`], asserted equal to the reference.
    fn decide(arena: &TermArena, e: &[Equation], goal: Equation) -> bool {
        let verdict = entails(arena, e, goal);
        assert_eq!(verdict, naive(arena, e, goal), "engine vs naive fixpoint");
        verdict
    }

    #[test]
    fn frozen_queries_agree_with_mutable_and_report_outside_v() {
        let mut f = Fixture::new();
        let e = vec![f.eq("A=A*B"), f.eq("B=B*C")];
        let goal = f.eq("A=A*C");
        let non_goal = f.eq("C=C*A");
        let outside = f.eq("A=A*D"); // D never added to V.
        let mut engine = ImplicationEngine::new(&f.arena, &e);
        engine.add_goal_terms(&f.arena, &[goal.lhs, goal.rhs, non_goal.lhs, non_goal.rhs]);
        let firings = engine.rule_firings();
        // Read-only path answers pre-extended goals without &mut…
        let frozen: &ImplicationEngine = &engine;
        assert_eq!(frozen.entails_frozen(goal), Some(true));
        assert_eq!(frozen.entails_frozen(non_goal), Some(false));
        assert_eq!(frozen.leq_frozen(goal.lhs, goal.rhs), Some(true));
        // …reports outside-V as None (never false, and no debug assert)…
        assert_eq!(frozen.entails_frozen(outside), None);
        assert_eq!(frozen.leq_frozen(outside.lhs, outside.rhs), None);
        // …and fires no rules.
        assert_eq!(engine.rule_firings(), firings);
        // A saturated engine is shareable across threads.
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        assert_send_sync(&engine);
    }

    #[test]
    fn empty_e_entails_exactly_the_identities() {
        let mut f = Fixture::new();
        let identity = f.eq("A*(A+B)=A");
        let non_identity = f.eq("A*(B+C)=(A*B)+(A*C)");
        assert!(decide(&f.arena, &[], identity));
        assert!(!decide(&f.arena, &[], non_identity));
    }

    #[test]
    fn fd_style_transitivity() {
        // A=A*B (A→B) and B=B*C (B→C) entail A=A*C (A→C).
        let mut f = Fixture::new();
        let e = vec![f.eq("A=A*B"), f.eq("B=B*C")];
        let goal = f.eq("A=A*C");
        let non_goal = f.eq("C=C*A");
        assert!(decide(&f.arena, &e, goal));
        assert!(!decide(&f.arena, &e, non_goal));
    }

    #[test]
    fn fpd_duality_meet_and_join_forms() {
        // A = A*B is equivalent to B = B+A: each entails the other.
        let mut f = Fixture::new();
        let meet_form = f.eq("A=A*B");
        let join_form = f.eq("B=B+A");
        assert!(decide(&f.arena, &[meet_form], join_form));
        assert!(decide(&f.arena, &[join_form], meet_form));
    }

    #[test]
    fn sum_dependency_consequences() {
        // From C = A + B we get A ≤ C and B ≤ C, i.e. A = A*C and B = B*C.
        let mut f = Fixture::new();
        let e = vec![f.eq("C=A+B")];
        let a_leq_c = f.eq("A=A*C");
        let b_leq_c = f.eq("B=B*C");
        let c_leq_a = f.eq("C=C*A");
        assert!(decide(&f.arena, &e, a_leq_c));
        assert!(decide(&f.arena, &e, b_leq_c));
        assert!(!decide(&f.arena, &e, c_leq_a));
    }

    #[test]
    fn example_f_product_equation_decomposition() {
        // Example f: X = Y*Z is equivalent to {X = X*(Y*Z), Y*Z = Y*Z*X}.
        let mut f = Fixture::new();
        let original = f.eq("X=Y*Z");
        let dec1 = f.eq("X=X*(Y*Z)");
        let dec2 = f.eq("Y*Z=Y*Z*X");
        assert!(decide(&f.arena, &[original], dec1));
        assert!(decide(&f.arena, &[original], dec2));
        assert!(decide(&f.arena, &[dec1, dec2], original));
    }

    #[test]
    fn theorem4_remark_sum_equation_decomposes_into_fpds() {
        // C = A+B entails A=A*C, B=B*C and C=C*(A+B);
        // and conversely {A=A*C, B=B*C, C=C*(A+B)} entails C=A+B.
        let mut f = Fixture::new();
        let sum_eq = f.eq("C=A+B");
        let fpd_a = f.eq("A=A*C");
        let fpd_b = f.eq("B=B*C");
        let c_below = f.eq("C=C*(A+B)");
        assert!(decide(&f.arena, &[sum_eq], fpd_a));
        assert!(decide(&f.arena, &[sum_eq], fpd_b));
        assert!(decide(&f.arena, &[sum_eq], c_below));
        assert!(decide(&f.arena, &[fpd_a, fpd_b, c_below], sum_eq));
    }

    #[test]
    fn equations_propagate_through_contexts() {
        // From A = B we should get A+C = B+C and A*C = B*C.
        let mut f = Fixture::new();
        let e = vec![f.eq("A=B")];
        let joins = f.eq("A+C=B+C");
        let meets = f.eq("A*C=B*C");
        assert!(decide(&f.arena, &e, joins));
        assert!(decide(&f.arena, &e, meets));
    }

    #[test]
    fn derived_order_exposes_atom_consequences() {
        let mut f = Fixture::new();
        let e = vec![f.eq("A=A*B"), f.eq("B=B*C")];
        let a = f.t("A");
        let b = f.t("B");
        let c = f.t("C");
        let order = DerivedOrder::build(&f.arena, &e, &[a, b, c]);
        let consequences = order.atom_consequences(&f.arena);
        assert!(consequences.contains(&(a, b)));
        assert!(consequences.contains(&(a, c)));
        assert!(consequences.contains(&(b, c)));
        assert!(!consequences.contains(&(c, a)));
        assert!(order.num_arcs() > 0);
        assert!(order.work() > 0);
        assert!(!order.render(&f.arena, &f.universe).is_empty());
        assert_eq!(order.leq(a, b), Some(true));
        assert_eq!(order.leq(c, a), Some(false));
    }

    #[test]
    fn entailment_is_sound_with_respect_to_the_free_order() {
        // With E = ∅, ≤_E coincides with ≤_id on the terms of V.
        let mut f = Fixture::new();
        let pairs = [
            ("A*(B+C)", "(A*B)+(A*C)"),
            ("(A*B)+(A*C)", "A*(B+C)"),
            ("A*B*C", "A+B"),
            ("A+B", "A*B*C"),
            ("(A+B)*(A+C)", "A+(B*C)"),
            ("A+(B*C)", "(A+B)*(A+C)"),
        ];
        for (l, r) in pairs {
            let lt = f.t(l);
            let rt = f.t(r);
            let expected = free_order::leq_id(&f.arena, lt, rt);
            let mut engine = ImplicationEngine::new(&f.arena, &[]);
            assert_eq!(engine.leq_goal(&f.arena, lt, rt), expected, "{l} <= {r}");
            let order = DerivedOrder::build(&f.arena, &[], &[lt, rt]);
            assert_eq!(order.leq(lt, rt), Some(expected), "{l} <= {r}");
        }
    }

    #[test]
    fn goal_terms_outside_v_are_detectable() {
        let mut f = Fixture::new();
        let e = vec![f.eq("A=A*B")];
        let a = f.t("A");
        let stranger = f.t("X+Y");
        let order = DerivedOrder::build(&f.arena, &e, &[]);
        assert!(order.contains_term(a));
        assert!(!order.contains_term(stranger));
        let engine = ImplicationEngine::new(&f.arena, &e);
        assert!(engine.contains_term(a));
        assert!(!engine.contains_term(stranger));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside V")]
    fn leq_on_foreign_terms_panics_in_debug_builds() {
        let mut f = Fixture::new();
        let e = vec![f.eq("A=A*B")];
        let a = f.t("A");
        let stranger = f.t("X+Y");
        let order = DerivedOrder::build(&f.arena, &e, &[]);
        let _ = order.leq(a, stranger);
    }

    #[test]
    fn engine_agrees_with_references_on_the_fixture_suite() {
        let mut f = Fixture::new();
        let e = vec![
            f.eq("A=A*B"),
            f.eq("C=B+D"),
            f.eq("D=D*(A+C)"),
            f.eq("E=A*C"),
        ];
        let goals = vec![
            f.eq("A=A*C"),
            f.eq("B=B*C"),
            f.eq("D=D*C"),
            f.eq("E=E*B"),
            f.eq("A+D=C+A"),
            f.eq("E=A"),
            f.eq("A*(A+B)=A"),
        ];
        let mut engine = ImplicationEngine::new(&f.arena, &e);
        for &goal in &goals {
            let reference = naive(&f.arena, &e, goal);
            assert_eq!(
                engine.entails_goal(&f.arena, goal),
                reference,
                "{}",
                goal.display(&f.arena, &f.universe)
            );
        }
        // Batched queries agree with one reference order over every goal.
        let extra: Vec<TermId> = goals.iter().flat_map(|g| [g.lhs, g.rhs]).collect();
        let order = DerivedOrder::build(&f.arena, &e, &extra);
        let batched: Vec<bool> = goals.iter().map(|&g| order.entails(g).unwrap()).collect();
        let mut engine2 = ImplicationEngine::new(&f.arena, &e);
        assert_eq!(engine2.entails_many(&f.arena, &goals), batched);
    }

    #[test]
    fn incremental_extension_matches_a_fresh_build() {
        let mut f = Fixture::new();
        let e = vec![f.eq("A=A*B"), f.eq("B=B*C")];
        let goal1 = f.eq("A=A*C");
        let goal2 = f.eq("C=C*(A+D)");
        // Incremental: build on E alone, extend twice.
        let mut incremental = ImplicationEngine::new(&f.arena, &e);
        let build_firings = incremental.rule_firings();
        assert!(incremental.entails_goal(&f.arena, goal1));
        assert!(!incremental.entails_goal(&f.arena, goal2));
        // Fresh: one engine with all goal terms from the start.
        let fresh = ImplicationEngine::with_goal_terms(
            &f.arena,
            &e,
            &[goal1.lhs, goal1.rhs, goal2.lhs, goal2.rhs],
        );
        assert_eq!(incremental.num_arcs(), fresh.num_arcs());
        assert_eq!(incremental.terms().len(), fresh.terms().len());
        // Every arc is inserted exactly once, so the cumulative firing count
        // matches the fresh build and each extension only paid its delta.
        assert_eq!(incremental.rule_firings(), fresh.rule_firings());
        assert!(build_firings < incremental.rule_firings());
        assert!(incremental.row_ops() > 0);
        // Re-adding known terms is a no-op.
        let firings_before = incremental.rule_firings();
        assert_eq!(incremental.add_goal_terms(&f.arena, &[goal1.lhs]), 0);
        assert_eq!(incremental.rule_firings(), firings_before);
    }

    #[test]
    fn engine_exposes_atom_consequences_and_metadata() {
        let mut f = Fixture::new();
        let e = vec![f.eq("A=A*B"), f.eq("B=B*C")];
        let a = f.t("A");
        let b = f.t("B");
        let c = f.t("C");
        let mut engine = ImplicationEngine::new(&f.arena, &e);
        engine.add_goal_terms(&f.arena, &[a, b, c]);
        let consequences = engine.atom_consequences(&f.arena);
        assert!(consequences.contains(&(a, b)));
        assert!(consequences.contains(&(a, c)));
        assert!(consequences.contains(&(b, c)));
        assert!(!consequences.contains(&(c, a)));
        assert_eq!(engine.equations(), &e[..]);
        assert_eq!(
            engine.leq_many(&f.arena, &[(a, c), (c, a)]),
            vec![true, false]
        );
        // Counters line up with the derived arcs.
        assert_eq!(engine.rule_firings(), engine.num_arcs());
        // And agree with the reference order over the same V.
        let order = DerivedOrder::build(&f.arena, &e, &[a, b, c]);
        assert_eq!(order.num_arcs(), engine.num_arcs());
        assert_eq!(order.rule_firings(), order.num_arcs());
    }

    #[test]
    fn add_equations_matches_a_fresh_build_and_pays_only_the_delta() {
        let mut f = Fixture::new();
        let base = vec![f.eq("A=A*B"), f.eq("C=A+B")];
        let extra = vec![f.eq("B=B*D"), f.eq("D=D*E")];
        let goals = vec![
            f.eq("A=A*D"), // needs both extras on top of the base.
            f.eq("A=A*E"), // transitivity through the extras.
            f.eq("A+B=C"), // already held before the extension.
            f.eq("E=E*A"), // never holds.
        ];

        let mut incremental = ImplicationEngine::new(&f.arena, &base);
        // Warm the engine with goal terms first, as a live session would.
        let warm_verdicts = incremental.entails_many(&f.arena, &goals);
        assert_eq!(warm_verdicts, vec![false, false, true, false]);
        let build_firings = incremental.rule_firings();
        let delta = incremental.add_equations(&f.arena, &extra);
        assert_eq!(incremental.rule_firings(), build_firings + delta);

        let mut grown = base.clone();
        grown.extend_from_slice(&extra);
        let mut fresh = ImplicationEngine::new(&f.arena, &grown);
        assert_eq!(
            incremental.entails_many(&f.arena, &goals),
            fresh.entails_many(&f.arena, &goals),
        );
        assert_eq!(incremental.equations(), &grown[..]);
        // The extension pays strictly less than the fresh build, which
        // re-fires every old arc on top of the delta.
        assert!(
            delta < fresh.rule_firings(),
            "extension delta {delta} must undercut the fresh build's {}",
            fresh.rule_firings()
        );
        // An already-entailed equation inserts nothing new.
        let noop = f.eq("A*B=A");
        assert_eq!(incremental.add_equations(&f.arena, &[noop]), 0);
    }

    #[test]
    fn retract_equations_rebuilds_to_the_remaining_set() {
        let mut f = Fixture::new();
        let e = vec![f.eq("A=A*B"), f.eq("B=B*C"), f.eq("D=A+C")];
        let goal_through_b = f.eq("A=A*C");
        let mut engine = ImplicationEngine::new(&f.arena, &e);
        assert!(engine.entails_goal(&f.arena, goal_through_b));

        // Retract matches modulo orientation and drops goal-term growth.
        let flipped = Equation::new(e[1].rhs, e[1].lhs);
        assert_eq!(engine.retract_equations(&f.arena, &[flipped]), 1);
        assert_eq!(engine.equations(), &[e[0], e[2]][..]);
        let mut reference = ImplicationEngine::new(&f.arena, &[e[0], e[2]]);
        assert_eq!(engine.num_arcs(), reference.num_arcs());
        assert!(!engine.entails_goal(&f.arena, goal_through_b));
        assert!(!reference.entails_goal(&f.arena, goal_through_b));

        // Retracting something absent is a free no-op.
        let absent = f.eq("A=A*E");
        let arcs = engine.num_arcs();
        assert_eq!(engine.retract_equations(&f.arena, &[absent]), 0);
        assert_eq!(engine.num_arcs(), arcs);
    }
}
