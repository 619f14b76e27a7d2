//! Polynomial-time consistency of a database with a set of partition
//! dependencies (Section 6.2, Lemma 12.1 and Theorem 12).
//!
//! The pipeline follows the paper's transformation exactly:
//!
//! 1. **Normalize** `E` into an equivalent set `E′` of PDs of the forms
//!    `C = A * B`, `C = A + B` and `X = Y` over an extended attribute
//!    universe `U′` (one new attribute per compound subexpression) —
//!    [`normalize_pds`].
//! 2. **Split** into functional partition dependencies (kept as the FD set
//!    `F`) and residual sum constraints `C ≤ A + B`.
//! 3. **Close**: compute all consequences `A ≤ B` between attributes with the
//!    word-problem algorithm of Section 5 and add them to `F`; drop any
//!    `C ≤ A + B` whose `A ≤ B` or `B ≤ A` is derivable (then `A + B`
//!    collapses and the constraint becomes an FPD).  The closed `F` is
//!    emitted as an equivalent cover, not as the transitive closure: each
//!    ≤-cycle class as a star on its least attribute, the Hasse edges
//!    between classes, and what each multi-attribute normalized FD adds
//!    beyond them — one FD per left-hand side, by the union rule
//!    ([`close_constraints_with`]).  Any equivalent cover chases to the
//!    same rows in the same steps; a smaller one makes fewer row visits.
//! 4. **Chase**: by Lemma 12.1, the database is consistent with `E` iff it is
//!    consistent with the FD set `F` alone, which Honeyman's chase decides in
//!    polynomial time — [`consistent_with_pds`] runs all four steps, and
//!    [`consistent_with_closed`] the chase alone against a cached `E⁺`.
//!    [`decide_with_closed`] is its verdict twin: the same chase, stopped
//!    at the verdict with no weak instance labelled, for callers that want
//!    the answer and not the witness.
//!
//! Lemma 12.1's constructive argument (adding bridging tuples to repair
//! violated sum constraints) is implemented by [`repair_sum_violations`], so
//! the tests can exhibit an explicit weak instance satisfying the *whole* of
//! `E⁺`, not just `F`.  A sum `C ≤ A + B` is violated by two rows with equal
//! `C` entries in different *chain classes* (rows linked by shared `A` or
//! `B` entries); the bridge for rows `t₁`, `t₂` copies `t₁` on `A⁺`, `t₂` on
//! `B⁺` and is fresh elsewhere.
//!
//! * **The repair runs on codes.**  A [`Relation`] stores each column as
//!   one dense code per row, numbered by first occurrence, plus a
//!   dictionary of one symbol per code.  Two cells of a column hold the
//!   same symbol iff they hold the same code, so the repair never looks at
//!   a symbol: it appends each bridge as codes
//!   ([`Relation::push_row`]) — `t₁`'s on `A⁺`, `t₂`'s on `B⁺ ∖ A⁺`, and a
//!   fresh code with a minted null elsewhere, minted in column order.  A
//!   bridge with a fresh cell is new by construction; only one made
//!   entirely of existing codes is looked up before it is appended.
//!   [`repair_sum_violations`] repairs a copy of the relation it is given;
//!   the witness path repairs the chase's weak instance in place.
//! * **Incremental index.**  The repair builds one index per applicable sum,
//!   once per call: a union-find over rows, the first row holding each `A`
//!   and each `B` code (the leaders rows are unioned through), the first
//!   row of each `C` group, and the rows that were outside their group's
//!   class when added ("suspects", ascending).  The three lookups are dense
//!   vectors indexed by code.  A bridge only appends a row; each index
//!   unions it with the leaders of its `A` and `B` codes and marks it
//!   suspect if needed, O(arity + sums) per bridge.  `A⁺` and `B⁺` are
//!   computed once per sum, the first time it is violated.
//! * **Same rows as the reference.**  Each round picks the violation that
//!   [`repair_sum_violations_naive`]'s full rescan would: the lowest-indexed
//!   sum with a violation, and in it the lowest row whose class differs from
//!   its `C` group's first row.  Classes only merge, so a row that is
//!   satisfied stays satisfied; suspects are dropped lazily from the front.
//!   The bridging rows, their order and their nulls are byte-identical.
//! * **Budget.**  Take the *defect* of a sum: over its `C` groups, the
//!   number of chain classes meeting the group, minus one.  It is at most
//!   `rows − 1`.  A bridge for that sum lies in the class of `t₁` and of
//!   `t₂`, so it merges two classes meeting the same group and, since
//!   classes only merge, opens no new defect: its `C` entry is either
//!   `t₁`'s group or fresh.  So one sum needs at most `rows − 1` bridges.
//!   The same holds per sum when no sum's `A⁺ ∪ B⁺` reaches another sum's
//!   attributes, because another sum's bridge is then fresh on them: a new
//!   singleton class in a new group.  Hence the witness path
//!   ([`crate::weak_bridge::witness_from_consistency`]) allows
//!   `max(64, rows × sums)` bridges.  When sums feed each other the bound
//!   is not proved and the number is a budget; running out of it is
//!   reported, never hidden.
//!
//! The chase and the repair mint their nulls from a [`NullSource`]: the
//! session passes its own [`SymbolTable`], a snapshot worker a detached
//! [`ps_base::FreshSymbols`].  There is one pipeline for both; the source
//! only decides the nulls' identities, never a verdict or a counter.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use ps_base::{AttrSet, Attribute, NullSource, Symbol, SymbolTable, Universe};
use ps_lattice::{Equation, TermArena, TermNode};
use ps_partition::UnionFind;
use ps_relation::{
    chase_fds_over_with, chase_verdict_over, fd_closure, ChaseOutcome, ChaseScratch, ChaseVerdict,
    Database, Fd, Relation,
};

use crate::Result;

/// A residual sum constraint `target ≤ left + right` (the only non-functional
/// shape surviving the Section 6.2 transformation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SumConstraint {
    /// The bounded attribute `C`.
    pub target: Attribute,
    /// The left summand `A`.
    pub left: Attribute,
    /// The right summand `B`.
    pub right: Attribute,
}

impl SumConstraint {
    /// Renders the constraint as `C<=A+B`.
    pub fn render(&self, universe: &Universe) -> String {
        format!(
            "{}<={}+{}",
            universe.name(self.target).unwrap_or("?"),
            universe.name(self.left).unwrap_or("?"),
            universe.name(self.right).unwrap_or("?")
        )
    }
}

/// The result of normalizing a set of PDs into binary form (step 1 and 2 of
/// the Section 6.2 pipeline).
#[derive(Debug, Clone, Default)]
pub struct NormalizedConstraints {
    /// Functional dependencies `F` (the FD images of all FPD-shaped pieces).
    pub fds: Vec<Fd>,
    /// Residual sum constraints `C ≤ A + B`.
    pub sums: Vec<SumConstraint>,
    /// The binary PDs `E′` themselves, as equations (used for the closure).
    pub equations: Vec<Equation>,
    /// Every attribute of the extended universe `U′` mentioned by the
    /// constraints (original attributes plus the definitional ones).
    pub attributes: AttrSet,
    /// The definitional attributes introduced for compound subexpressions,
    /// together with the subexpression they name.
    pub definitions: Vec<(Attribute, ps_lattice::TermId)>,
    /// The original PDs this normalization was computed from — provenance
    /// for the invalidation hooks ([`ClosedConstraints::depends_on`],
    /// [`ClosedConstraints::is_current_for`]) of mutable-set callers.
    pub source_pds: Vec<Equation>,
}

/// Appends the FD `lhs → rhs` to `out.fds` unless it is trivial or already
/// present; `seen` mirrors `out.fds` so the duplicate test is a hash probe.
fn push_fd(out: &mut NormalizedConstraints, seen: &mut HashSet<Fd>, lhs: AttrSet, rhs: AttrSet) {
    let fd = Fd::new(lhs, rhs);
    if !fd.is_trivial() && seen.insert(fd.clone()) {
        out.fds.push(fd);
    }
}

/// Normalizes a set of PDs into the equivalent binary form of Section 6.2:
/// every compound subexpression `l op r` receives a fresh definitional
/// attribute `_t<id>` constrained by `_t<id> = l op r`, and every original
/// equation becomes an equality between two attributes.
///
/// The FD / sum-constraint split is performed at the same time:
/// `C = A * B` contributes the FDs `C → AB` and `AB → C`; `C = A + B`
/// contributes the FDs `A → C`, `B → C` and the residual constraint
/// `C ≤ A + B`; `X = Y` contributes `X → Y` and `Y → X`.
///
/// ```
/// use ps_base::Universe;
/// use ps_core::consistency::normalize_pds;
/// use ps_lattice::{parse_equation, TermArena};
///
/// let mut universe = Universe::new();
/// let mut arena = TermArena::new();
/// let pds = vec![parse_equation("D = A+B", &mut universe, &mut arena).unwrap()];
/// let normalized = normalize_pds(&pds, &mut arena, &mut universe);
/// assert_eq!(normalized.definitions.len(), 1); // one fresh attribute for A+B
/// assert_eq!(normalized.sums.len(), 1);        // the residual _t ≤ A + B
/// ```
pub fn normalize_pds(
    pds: &[Equation],
    arena: &mut TermArena,
    universe: &mut Universe,
) -> NormalizedConstraints {
    let mut out = NormalizedConstraints {
        source_pds: pds.to_vec(),
        ..NormalizedConstraints::default()
    };
    let mut attr_of: HashMap<ps_lattice::TermId, Attribute> = HashMap::new();
    let mut seen: HashSet<Fd> = HashSet::new();

    // Recursively assign an attribute to a term, emitting the definitional
    // constraints for compound nodes.
    fn attr_of_term(
        term: ps_lattice::TermId,
        arena: &mut TermArena,
        universe: &mut Universe,
        attr_of: &mut HashMap<ps_lattice::TermId, Attribute>,
        out: &mut NormalizedConstraints,
        seen: &mut HashSet<Fd>,
    ) -> Attribute {
        if let Some(&a) = attr_of.get(&term) {
            return a;
        }
        let node = arena.node(term);
        let attr = match node {
            TermNode::Atom(a) => a,
            TermNode::Meet(l, r) => {
                let la = attr_of_term(l, arena, universe, attr_of, out, seen);
                let ra = attr_of_term(r, arena, universe, attr_of, out, seen);
                let fresh = universe.attr(&format!("_t{}", term.index()));
                out.definitions.push((fresh, term));
                // fresh = la * ra  ⇒  FDs fresh → {la, ra} and {la, ra} → fresh.
                let both: AttrSet = vec![la, ra].into();
                push_fd(out, seen, AttrSet::singleton(fresh), both.clone());
                push_fd(out, seen, both, AttrSet::singleton(fresh));
                // Record the binary equation fresh = la * ra for the closure.
                let lhs = arena.atom(fresh);
                let la_t = arena.atom(la);
                let ra_t = arena.atom(ra);
                let rhs = arena.meet(la_t, ra_t);
                out.equations.push(Equation::new(lhs, rhs));
                fresh
            }
            TermNode::Join(l, r) => {
                let la = attr_of_term(l, arena, universe, attr_of, out, seen);
                let ra = attr_of_term(r, arena, universe, attr_of, out, seen);
                let fresh = universe.attr(&format!("_t{}", term.index()));
                out.definitions.push((fresh, term));
                // fresh = la + ra  ⇒  FDs la → fresh, ra → fresh plus the
                // residual constraint fresh ≤ la + ra.
                push_fd(out, seen, AttrSet::singleton(la), AttrSet::singleton(fresh));
                push_fd(out, seen, AttrSet::singleton(ra), AttrSet::singleton(fresh));
                out.sums.push(SumConstraint {
                    target: fresh,
                    left: la,
                    right: ra,
                });
                let lhs = arena.atom(fresh);
                let la_t = arena.atom(la);
                let ra_t = arena.atom(ra);
                let rhs = arena.join(la_t, ra_t);
                out.equations.push(Equation::new(lhs, rhs));
                fresh
            }
        };
        attr_of.insert(term, attr);
        out.attributes.insert(attr);
        attr
    }

    for pd in pds {
        let lhs = attr_of_term(pd.lhs, arena, universe, &mut attr_of, &mut out, &mut seen);
        let rhs = attr_of_term(pd.rhs, arena, universe, &mut attr_of, &mut out, &mut seen);
        if lhs != rhs {
            let (x, y) = (AttrSet::singleton(lhs), AttrSet::singleton(rhs));
            push_fd(&mut out, &mut seen, x.clone(), y.clone());
            push_fd(&mut out, &mut seen, y, x);
            let l = arena.atom(lhs);
            let r = arena.atom(rhs);
            out.equations.push(Equation::new(l, r));
        }
        // Original atoms of the PD are part of U′ as well.
        for a in arena.atoms(pd.lhs).iter().chain(arena.atoms(pd.rhs).iter()) {
            out.attributes.insert(a);
        }
    }
    out
}

/// The fully transformed constraint set `E⁺` of Section 6.2: the FD set `F`
/// enriched with every derivable `A ≤ B` between attributes, and the
/// surviving sum constraints.
#[derive(Debug, Clone, Default)]
pub struct ClosedConstraints {
    /// The FD set `F` used by the chase.
    pub fds: Vec<Fd>,
    /// Sum constraints that could not be reduced to FPDs.
    pub sums: Vec<SumConstraint>,
    /// The extended attribute universe `U′`.
    pub attributes: AttrSet,
    /// The original PDs the closure was computed from (copied through from
    /// [`NormalizedConstraints::source_pds`]) — the provenance behind the
    /// invalidation hooks below.
    pub source_pds: Vec<Equation>,
}

/// Orientation-normalized term-id pair of a PD — the invalidation unit:
/// `l = r` and `r = l` are the same constraint, so dependency checks
/// compare unordered pairs of hash-consed term ids.
fn pd_pair(pd: Equation) -> (u32, u32) {
    let (a, b) = (pd.lhs.index(), pd.rhs.index());
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

fn pair_set(pds: &[Equation]) -> Vec<(u32, u32)> {
    let mut pairs: Vec<(u32, u32)> = pds.iter().map(|&pd| pd_pair(pd)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

impl ClosedConstraints {
    /// Invalidation hook: does this closure depend on `pd`?  Removing a PD
    /// the closure never consumed cannot change it (the closure is a
    /// function of its source set), so callers caching a
    /// [`ClosedConstraints`] only need to rebuild when this answers `true`.
    /// Matching is modulo orientation (`l = r` ≡ `r = l`).
    pub fn depends_on(&self, pd: Equation) -> bool {
        let pair = pd_pair(pd);
        self.source_pds.iter().any(|&p| pd_pair(p) == pair)
    }

    /// Invalidation hook: is this closure exactly the closure of `pds`?
    /// Compares the source set modulo order, orientation and duplicates —
    /// the same equivalence the session layer keys constraint sets by — so
    /// a cached closure can be revalidated after mutations without being
    /// recomputed.
    pub fn is_current_for(&self, pds: &[Equation]) -> bool {
        pair_set(&self.source_pds) == pair_set(pds)
    }
}

/// Computes `E⁺` from a normalized constraint set: adds every derivable
/// `A ≤ B` (as the FD `A → B`) to `F`, and eliminates each sum constraint
/// `C ≤ A + B` for which `A ≤ B` or `B ≤ A` is derivable (step 3 of the
/// pipeline).  The resulting FD set is the transitive reduction of that
/// closure, with exactly one FD per left-hand side (see
/// [`close_constraints_with`]).
///
/// One [`ps_lattice::ImplicationEngine`] is built per normalized constraint
/// set and queried for every consequence.  Debug builds cross-check the
/// engine's closure against the naive-fixpoint reference
/// [`ps_lattice::DerivedOrder`].
pub fn close_constraints(
    normalized: &NormalizedConstraints,
    arena: &mut TermArena,
) -> ClosedConstraints {
    let mut engine = ps_lattice::ImplicationEngine::new(arena, &normalized.equations);
    #[cfg(debug_assertions)]
    {
        let attributes: Vec<Attribute> = normalized.attributes.iter().collect();
        let cached = crate::implication::atom_order_closure_with(&mut engine, arena, &attributes);
        let atoms: Vec<_> = attributes.iter().map(|&a| arena.atom(a)).collect();
        let reference = ps_lattice::DerivedOrder::build(arena, &normalized.equations, &atoms);
        debug_assert_eq!(
            cached,
            crate::implication::atom_pairs(arena, reference.atom_consequences(arena)),
            "the cached engine and the naive fixpoint must derive the same closure"
        );
    }
    close_constraints_with(&mut engine, normalized, arena)
}

/// The engine-hook variant of [`close_constraints`]: computes `E⁺` out of a
/// caller-supplied [`ps_lattice::ImplicationEngine`] that was built over
/// `normalized.equations`.  Long-lived callers (the session layer) keep the
/// engine cached per constraint set, so repeated closures pay no
/// re-saturation and the engine's `rule_firings` counter stays observable.
///
/// The closed FD set is the *transitive reduction* of `E⁺`'s attribute
/// order, not its transitive closure.  Any FD set equivalent to `F` chases
/// to the same finest partition, so the verdict, the chased rows and the
/// chase's `steps` do not depend on which cover is used; a smaller cover
/// only saves the chase the re-examination of equalities it has already
/// made.  The reduction:
///
/// 1. `up` is the reflexive–transitive closure over `U′` of every
///    single-attribute FD — the engine's `A ≤_E B`, the normalized FDs with
///    one-attribute left-hand sides and the collapsed-sum `C → B` — as
///    dense bit rows closed by one Warshall pass.
/// 2. A ≤-cycle class (mutually reachable attributes) is emitted as a star
///    on its least attribute, the *leader*: `M → leader` for every other
///    member, and `leader → other members`.
/// 3. Each leader gets `L → D` for the leaders `D` of its immediate
///    successor classes (the Hasse diagram of the order on classes).
/// 4. A multi-attribute normalized FD `X → Y` (a meet's `{l, r} → _t`)
///    keeps `Y ∖ X ∖ ⋃ₓ up[x]`, and is dropped when that is empty.
///
/// FDs sharing a left-hand side are merged by the union rule, so the set
/// holds one FD per left-hand side, in ascending lhs order.  The cost is
/// that of one Warshall pass, O(|U′|³/64) word operations, and O(|U′|³)
/// bit probes for the Hasse test in the worst case (a chain).  Debug
/// builds check that the reduced set is FD-equivalent to the full one
/// (the normalized FDs, one FD per derived `A ≤_E B` and the
/// collapsed-sum FDs).
pub fn close_constraints_with(
    engine: &mut ps_lattice::ImplicationEngine,
    normalized: &NormalizedConstraints,
    arena: &mut TermArena,
) -> ClosedConstraints {
    let atoms: Vec<_> = normalized
        .attributes
        .iter()
        .map(|a| arena.atom(a))
        .collect();
    engine.add_goal_terms(arena, &atoms);
    let pairs: Vec<(Attribute, Attribute)> =
        crate::implication::attribute_pairs(arena, engine.atom_consequences(arena)).collect();

    // Dense ids: the position in U′, so the least id is the least attribute.
    // A cached engine may know atoms outside U′ (from goals); an atom that
    // no PD mentions is only below itself, so its pairs are dropped.
    let universe = normalized.attributes.as_slice();
    let position = |a: Attribute| universe.binary_search(&a);
    let at = |a: Attribute| position(a).expect("constraint attributes lie in U′");
    let mut up = ps_lattice::BitMatrix::new(universe.len());
    for &(a, b) in &pairs {
        if let (Ok(i), Ok(j)) = (position(a), position(b)) {
            up.set(i, j);
        }
    }

    // A ≤ B collapses A + B to B, so C ≤ A + B becomes C ≤ B (and
    // symmetrically for B ≤ A).  Decided on the engine's pairs, before
    // the closure pass.
    let leq = |a: Attribute, b: Attribute| up.get(at(a), at(b));
    let mut sums = Vec::new();
    let mut collapsed = Vec::new();
    for &sum in &normalized.sums {
        if leq(sum.left, sum.right) {
            collapsed.push((sum.target, sum.right));
        } else if leq(sum.right, sum.left) {
            collapsed.push((sum.target, sum.left));
        } else {
            sums.push(sum);
        }
    }

    let single_fds = normalized.fds.iter().filter_map(|fd| {
        let a = fd.lhs.as_singleton()?;
        Some(fd.rhs.iter().map(move |b| (a, b)))
    });
    for (a, b) in single_fds.flatten().chain(collapsed.iter().copied()) {
        up.set(at(a), at(b));
    }
    up.transitive_closure();

    // The leader of each ≤-cycle class.  Attribute `i` is unassigned only
    // if no smaller attribute is in its class, so it leads its class.
    let mut leader = vec![usize::MAX; universe.len()];
    for i in 0..universe.len() {
        if leader[i] == usize::MAX {
            for j in up.iter_row(i).filter(|&j| up.get(j, i)) {
                leader[j] = i;
            }
        }
    }

    let mut groups: BTreeMap<AttrSet, AttrSet> = BTreeMap::new();
    let mut add = |lhs: AttrSet, rhs: Attribute| {
        groups.entry(lhs).or_default().insert(rhs);
    };
    for (i, &l) in leader.iter().enumerate() {
        if i != l {
            // The star: member → leader, leader → member.
            add(AttrSet::singleton(universe[i]), universe[l]);
            add(AttrSet::singleton(universe[l]), universe[i]);
            continue;
        }
        // The Hasse edges: the leaders strictly above `i` that no other
        // of them lies below.
        let above: Vec<usize> = up
            .iter_row(i)
            .filter(|&d| d != i && leader[d] == d)
            .collect();
        for &d in &above {
            if above.iter().all(|&m| m == d || !up.get(m, d)) {
                add(AttrSet::singleton(universe[i]), universe[d]);
            }
        }
    }
    // A multi-attribute FD keeps what its attributes do not reach alone.
    for fd in normalized.fds.iter().filter(|fd| fd.lhs.len() > 1) {
        for b in fd.rhs.iter() {
            if !fd.lhs.iter().any(|a| up.get(at(a), at(b))) {
                add(fd.lhs.clone(), b);
            }
        }
    }
    let fds: Vec<Fd> = groups
        .into_iter()
        .map(|(lhs, rhs)| Fd::new(lhs, rhs))
        .collect();

    #[cfg(debug_assertions)]
    {
        let mut full = normalized.fds.clone();
        full.extend(
            pairs
                .iter()
                .chain(&collapsed)
                .filter(|(a, b)| a != b)
                .map(|&(a, b)| ps_relation::fd(&[a], &[b])),
        );
        debug_assert!(
            fd_closure::equivalent(&fds, &full),
            "the reduced closed system must be FD-equivalent to the full one"
        );
    }

    ClosedConstraints {
        fds,
        sums,
        attributes: normalized.attributes.clone(),
        source_pds: normalized.source_pds.clone(),
    }
}

/// The outcome of the Section 6.2 consistency test.
#[derive(Debug, Clone)]
pub struct ConsistencyOutcome {
    /// Whether the database is consistent with the PDs (equivalently: whether
    /// a weak instance satisfying them — and hence a satisfying partition
    /// interpretation, Theorem 7 — exists).
    pub consistent: bool,
    /// The FD set `F` the chase was run with.
    pub fds: Vec<Fd>,
    /// The surviving sum constraints `C ≤ A + B`.
    pub sums: Vec<SumConstraint>,
    /// The extended attribute universe `U′`.
    pub attributes: AttrSet,
    /// The raw chase outcome; when consistent it holds the chased weak
    /// instance ([`ChaseOutcome::into_weak_instance`]).
    pub chase: ChaseOutcome,
}

impl ConsistencyOutcome {
    /// The representative weak instance produced by the chase, when
    /// consistent, copied from the chase outcome on every call.
    /// It satisfies `F`; apply [`repair_sum_violations`] to also satisfy
    /// the sum constraints.
    pub fn weak_instance(&self) -> Option<Relation> {
        self.chase.weak_instance("weak_instance", &self.attributes)
    }
}

/// Theorem 12: polynomial-time consistency of a database with an arbitrary
/// set of PDs.  Normalizes, closes and chases in one call.
///
/// ```
/// use ps_base::{SymbolTable, Universe};
/// use ps_core::consistency::consistent_with_pds;
/// use ps_lattice::{parse_equation, TermArena};
/// use ps_relation::DatabaseBuilder;
///
/// let mut universe = Universe::new();
/// let mut symbols = SymbolTable::new();
/// let mut arena = TermArena::new();
/// let db = DatabaseBuilder::new()
///     .relation(&mut universe, &mut symbols, "R", &["A", "B"],
///               &[&["a", "b1"], &["a", "b2"]])
///     .unwrap()
///     .build();
/// // A = A*B is the FPD for A → B, which the two rows violate (same a,
/// // different b): inconsistent.
/// let violated = vec![parse_equation("A = A*B", &mut universe, &mut arena).unwrap()];
/// let outcome = consistent_with_pds(&db, &violated, &mut arena, &mut universe, &mut symbols)
///     .unwrap();
/// assert!(!outcome.consistent);
///
/// // The reverse direction B → A is satisfied: consistent, with a weak
/// // instance to witness it.
/// let satisfied = vec![parse_equation("B = B*A", &mut universe, &mut arena).unwrap()];
/// let outcome = consistent_with_pds(&db, &satisfied, &mut arena, &mut universe, &mut symbols)
///     .unwrap();
/// assert!(outcome.consistent);
/// assert!(outcome.weak_instance().is_some());
/// ```
pub fn consistent_with_pds(
    db: &Database,
    pds: &[Equation],
    arena: &mut TermArena,
    universe: &mut Universe,
    symbols: &mut SymbolTable,
) -> Result<ConsistencyOutcome> {
    let normalized = normalize_pds(pds, arena, universe);
    let closed = close_constraints(&normalized, arena);
    Ok(consistent_with_closed(
        db,
        &closed,
        symbols,
        &mut ChaseScratch::default(),
    ))
}

/// The chase half of [`consistent_with_pds`], for callers that cache the
/// normalized/closed constraint system per set (the session layer and its
/// snapshots): chases `db` against an already-closed system and packages
/// the outcome with the chased weak instance — the witness path, which
/// [`crate::weak_bridge::witness_from_consistency`] repairs into a Theorem 7
/// witness.  Padding nulls come from `nulls`; `scratch` holds the chase's
/// reusable index and worklist buffers across calls.
pub fn consistent_with_closed(
    db: &Database,
    closed: &ClosedConstraints,
    nulls: &mut impl NullSource,
    scratch: &mut ChaseScratch,
) -> ConsistencyOutcome {
    let attrs = chase_attributes(db, closed);
    let chase = chase_fds_over_with(db, &attrs, &closed.fds, nulls, scratch);
    ConsistencyOutcome {
        consistent: chase.consistent,
        fds: closed.fds.clone(),
        sums: closed.sums.clone(),
        attributes: attrs,
        chase,
    }
}

/// The verdict twin of [`consistent_with_closed`]: the same chase over the
/// same tableau, left by the chase's verdict exit
/// ([`ps_relation::chase_verdict_over`]), so nothing is labelled and no
/// weak instance is built.  By Lemma 12.1 the verdict is Theorem 12's
/// answer; `steps` and `row_visits` equal the witness path's.  The padding
/// nulls drawn from `nulls` do not outlive the call.
pub fn decide_with_closed(
    db: &Database,
    closed: &ClosedConstraints,
    nulls: &mut impl NullSource,
    scratch: &mut ChaseScratch,
) -> ChaseVerdict {
    let attrs = chase_attributes(db, closed);
    chase_verdict_over(db, &attrs, &closed.fds, nulls, scratch)
}

/// The chase runs over the database's attributes together with every
/// attribute the constraints mention.
fn chase_attributes(db: &Database, closed: &ClosedConstraints) -> AttrSet {
    let mut attrs = db.all_attributes();
    for a in closed.attributes.iter() {
        attrs.insert(a);
    }
    attrs
}

/// Whether a relation satisfies the *one-directional* sum PD `C ≤ A + B`
/// under Definition 7: tuples with equal `C` entries must be chain-connected
/// through shared `A` or `B` entries.  A constraint over an attribute the
/// relation lacks is vacuous.
pub fn relation_satisfies_sum_constraint(relation: &Relation, constraint: SumConstraint) -> bool {
    first_sum_violation(relation, &[constraint]).is_none()
}

/// Whether a relation satisfies every surviving sum constraint.
pub fn relation_satisfies_sum_constraints(relation: &Relation, sums: &[SumConstraint]) -> bool {
    first_sum_violation(relation, sums).is_none()
}

/// The constructive half of Lemma 12.1: starting from a weak instance
/// satisfying the FD set `F`, repeatedly repair violations of the sum
/// constraints by inserting bridging tuples (`t[A⁺] = t₁[A⁺]`,
/// `t[B⁺] = t₂[B⁺]`, fresh elsewhere).  The paper iterates this ω times; here
/// at most `max_rounds` bridges are inserted, and the second component of
/// the return value reports whether a fixpoint (all constraints satisfied)
/// was reached.  The bridging tuples' fresh entries are minted from `nulls`.
///
/// One chain index per applicable sum is built once, over dense vectors
/// indexed by code, and kept current as bridges are appended, so a round
/// costs O(arity + sums) amortized instead of a rescan of the relation (see
/// the module doc).  Every round picks the same violation as
/// [`repair_sum_violations_naive`], so the bridging rows, their order and
/// their nulls are identical to the reference's.
pub fn repair_sum_violations(
    weak_instance: &Relation,
    fds: &[Fd],
    sums: &[SumConstraint],
    nulls: &mut impl NullSource,
    max_rounds: usize,
) -> (Relation, bool) {
    let mut repaired = weak_instance.clone();
    let converged = repair_in_place(&mut repaired, fds, sums, nulls, max_rounds);
    (repaired, converged)
}

/// [`repair_sum_violations`] appending the bridging rows to `relation`
/// itself; returns whether every sum constraint holds at the end.  A
/// bridge takes `t₁`'s codes on `A⁺`, `t₂`'s on `B⁺ ∖ A⁺`, and a fresh
/// code with a minted null everywhere else, minted in column order
/// ([`Relation::push_row`]).
pub(crate) fn repair_in_place(
    relation: &mut Relation,
    fds: &[Fd],
    sums: &[SumConstraint],
    nulls: &mut impl NullSource,
    max_rounds: usize,
) -> bool {
    let mut indexes: Vec<(usize, SumIndex)> = sums
        .iter()
        .enumerate()
        .filter_map(|(idx, &sum)| Some((idx, SumIndex::build(relation, sum)?)))
        .collect();
    let mut closures: Vec<Option<(AttrSet, AttrSet)>> = vec![None; sums.len()];
    let attrs = relation.scheme().attrs().clone();
    let mut cells = Vec::with_capacity(attrs.len());
    for _ in 0..max_rounds {
        let Some((idx, t1, t2)) = indexes
            .iter_mut()
            .find_map(|(idx, index)| index.next_violation().map(|(t1, t2)| (*idx, t1, t2)))
        else {
            return true;
        };
        let (a_plus, b_plus) = sum_closures(&mut closures, fds, sums, idx);
        cells.clear();
        cells.extend(attrs.iter().enumerate().map(|(pos, attr)| {
            if a_plus.contains(attr) {
                Some(relation.codes(pos)[t1])
            } else if b_plus.contains(attr) {
                Some(relation.codes(pos)[t2])
            } else {
                None
            }
        }));
        if relation.push_row(&cells, nulls) {
            let row = relation.len() - 1;
            for (_, index) in &mut indexes {
                index.add(relation, row);
            }
        }
    }
    indexes
        .iter_mut()
        .all(|(_, index)| index.next_violation().is_none())
}

/// The pinned reference for [`repair_sum_violations`]: the same loop, but
/// every round rescans the whole relation for the first violation.
pub fn repair_sum_violations_naive(
    weak_instance: &Relation,
    fds: &[Fd],
    sums: &[SumConstraint],
    nulls: &mut impl NullSource,
    max_rounds: usize,
) -> (Relation, bool) {
    let mut current = weak_instance.clone();
    let mut closures: Vec<Option<(AttrSet, AttrSet)>> = vec![None; sums.len()];
    for _ in 0..max_rounds {
        let Some((idx, t1, t2)) = first_sum_violation(&current, sums) else {
            return (current, true);
        };
        let (a_plus, b_plus) = sum_closures(&mut closures, fds, sums, idx);
        let values = bridge_values(&current, t1, t2, a_plus, b_plus, nulls);
        current
            .insert_values(&values)
            .expect("bridging row matches the scheme");
    }
    let converged = relation_satisfies_sum_constraints(&current, sums);
    (current, converged)
}

/// `(A⁺, B⁺)` of `sums[idx]` under `fds`, computed the first time that sum
/// is violated and cached in `closures`.
fn sum_closures<'c>(
    closures: &'c mut [Option<(AttrSet, AttrSet)>],
    fds: &[Fd],
    sums: &[SumConstraint],
    idx: usize,
) -> (&'c AttrSet, &'c AttrSet) {
    let sum = sums[idx];
    let (a_plus, b_plus) = closures[idx].get_or_insert_with(|| {
        (
            fd_closure::attribute_closure(fds, &AttrSet::singleton(sum.left)),
            fd_closure::attribute_closure(fds, &AttrSet::singleton(sum.right)),
        )
    });
    (a_plus, b_plus)
}

/// The bridging row for rows `t1` and `t2`, in scheme column order: `t1` on
/// `A⁺`, `t2` on `B⁺ ∖ A⁺`, a fresh null from `nulls` everywhere else.
fn bridge_values(
    relation: &Relation,
    t1: usize,
    t2: usize,
    a_plus: &AttrSet,
    b_plus: &AttrSet,
    nulls: &mut impl NullSource,
) -> Vec<Symbol> {
    let (row1, row2) = (relation.row(t1), relation.row(t2));
    relation
        .scheme()
        .attrs()
        .iter()
        .enumerate()
        .map(|(pos, attr)| {
            if a_plus.contains(attr) {
                row1.value_at(pos)
            } else if b_plus.contains(attr) {
                row2.value_at(pos)
            } else {
                nulls.fresh()
            }
        })
        .collect()
}

/// The chain classes of one sum `C ≤ A + B` over a relation that only grows:
/// rows sharing an `A` or a `B` code are unioned through the first row
/// holding that code, and each row is checked against the first row of its
/// `C` group once, when it is added.  Classes only merge, so a row in its
/// group's class stays there; the rows that were not are kept in ascending
/// order and dropped lazily once their class catches up.
struct SumIndex {
    /// Column positions of `A`, `B` and `C`.
    left: usize,
    right: usize,
    target: usize,
    classes: UnionFind,
    /// `by_left[l]`: the first row whose `A` code is `l`; likewise
    /// `by_right` for `B` and `first_with_target` for `C`.  Codes are
    /// numbered by first occurrence, so each vector grows by one entry
    /// whenever a row brings a new code.
    by_left: Vec<usize>,
    by_right: Vec<usize>,
    first_with_target: Vec<usize>,
    /// `(row, first row of its C group)` for every row that was outside its
    /// group's class when added, ascending by row (rows are only appended).
    suspects: VecDeque<(usize, usize)>,
}

impl SumIndex {
    /// The index of `sum` over `relation`, or `None` when the constraint
    /// mentions an attribute outside the scheme (it is then vacuous).
    fn build(relation: &Relation, sum: SumConstraint) -> Option<Self> {
        let scheme = relation.scheme();
        let mut index = SumIndex {
            left: scheme.position(sum.left)?,
            right: scheme.position(sum.right)?,
            target: scheme.position(sum.target)?,
            classes: UnionFind::new(0),
            by_left: Vec::new(),
            by_right: Vec::new(),
            first_with_target: Vec::new(),
            suspects: VecDeque::new(),
        };
        for row in 0..relation.len() {
            index.add(relation, row);
        }
        Some(index)
    }

    /// The first row holding `code` in `firsts`, recording `row` if the
    /// code is new.
    fn first(firsts: &mut Vec<usize>, code: u32, row: usize) -> usize {
        let code = code as usize;
        if code == firsts.len() {
            firsts.push(row);
        }
        debug_assert!(
            code < firsts.len(),
            "codes are numbered by first occurrence"
        );
        firsts[code]
    }

    /// Adds row `row`, the next row of `relation`.
    fn add(&mut self, relation: &Relation, row: usize) {
        let pushed = self.classes.push();
        debug_assert_eq!(pushed, row, "rows are added in order");
        let left = Self::first(&mut self.by_left, relation.codes(self.left)[row], row);
        self.classes.union(left, row);
        let right = Self::first(&mut self.by_right, relation.codes(self.right)[row], row);
        self.classes.union(right, row);
        let first = Self::first(
            &mut self.first_with_target,
            relation.codes(self.target)[row],
            row,
        );
        if self.classes.find(first) != self.classes.find(row) {
            self.suspects.push_back((row, first));
        }
    }

    /// The lowest row outside its `C` group's class, with the group's first
    /// row: `(first, row)`, the pair the reference scan reports.
    fn next_violation(&mut self) -> Option<(usize, usize)> {
        while let Some(&(row, first)) = self.suspects.front() {
            if self.classes.find(first) != self.classes.find(row) {
                return Some((first, row));
            }
            self.suspects.pop_front();
        }
        None
    }
}

/// Finds one violated sum constraint (by its index in `sums`) together
/// with a witnessing pair of tuple indices (equal `target` value, different
/// chain classes).  Constraints over attributes outside the relation's
/// scheme are skipped as vacuous.
fn first_sum_violation(
    relation: &Relation,
    sums: &[SumConstraint],
) -> Option<(usize, usize, usize)> {
    let scheme = relation.scheme();
    let n = relation.len();
    for (sum_idx, &constraint) in sums.iter().enumerate() {
        if !scheme.contains(constraint.target)
            || !scheme.contains(constraint.left)
            || !scheme.contains(constraint.right)
        {
            continue;
        }
        let mut uf = UnionFind::new(n);
        let mut by_a: HashMap<Symbol, usize> = HashMap::new();
        let mut by_b: HashMap<Symbol, usize> = HashMap::new();
        for (idx, tuple) in relation.iter().enumerate() {
            let a = tuple.get(constraint.left).expect("left in scheme");
            let b = tuple.get(constraint.right).expect("right in scheme");
            match by_a.get(&a) {
                Some(&leader) => {
                    uf.union(leader, idx);
                }
                None => {
                    by_a.insert(a, idx);
                }
            }
            match by_b.get(&b) {
                Some(&leader) => {
                    uf.union(leader, idx);
                }
                None => {
                    by_b.insert(b, idx);
                }
            }
        }
        let mut first_with_c: HashMap<Symbol, usize> = HashMap::new();
        for (idx, tuple) in relation.iter().enumerate() {
            let c = tuple.get(constraint.target).expect("target in scheme");
            match first_with_c.get(&c) {
                None => {
                    first_with_c.insert(c, idx);
                }
                Some(&other) => {
                    if uf.find(other) != uf.find(idx) {
                        return Some((sum_idx, other, idx));
                    }
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_lattice::parse_equation;
    use ps_relation::DatabaseBuilder;

    struct Fixture {
        universe: Universe,
        symbols: SymbolTable,
        arena: TermArena,
    }

    fn fixture() -> Fixture {
        Fixture {
            universe: Universe::new(),
            symbols: SymbolTable::new(),
            arena: TermArena::new(),
        }
    }

    #[test]
    fn normalization_splits_meet_join_and_equality() {
        let mut f = fixture();
        let pds = vec![
            parse_equation("C = A*B", &mut f.universe, &mut f.arena).unwrap(),
            parse_equation("D = A+B", &mut f.universe, &mut f.arena).unwrap(),
            parse_equation("A = B", &mut f.universe, &mut f.arena).unwrap(),
        ];
        let normalized = normalize_pds(&pds, &mut f.arena, &mut f.universe);
        // C = A*B introduces one definitional attribute with two FDs plus
        // C ↔ def; D = A+B introduces one with two FDs and a sum constraint.
        assert_eq!(normalized.definitions.len(), 2);
        assert_eq!(normalized.sums.len(), 1);
        assert!(normalized.fds.len() >= 7);
        assert!(normalized.attributes.len() >= 6);
        // Every definitional attribute has a name starting with "_t".
        for &(attr, _) in &normalized.definitions {
            assert!(f.universe.name(attr).unwrap().starts_with("_t"));
        }
    }

    #[test]
    fn closure_collapses_redundant_sum_constraints() {
        let mut f = fixture();
        // A ≤ B (as A = A*B) makes A + B equal to B, so C = A + B reduces to
        // C = B and the sum constraint disappears.
        let pds = vec![
            parse_equation("A = A*B", &mut f.universe, &mut f.arena).unwrap(),
            parse_equation("C = A+B", &mut f.universe, &mut f.arena).unwrap(),
        ];
        let normalized = normalize_pds(&pds, &mut f.arena, &mut f.universe);
        assert_eq!(normalized.sums.len(), 1);
        let closed = close_constraints(&normalized, &mut f.arena);
        assert!(closed.sums.is_empty(), "A ≤ B collapses the sum constraint");
        // And C → B is now derivable from F alone.
        let b = f.universe.lookup("B").unwrap();
        let c = f.universe.lookup("C").unwrap();
        assert!(fd_closure::implies(
            &closed.fds,
            &ps_relation::fd(&[c], &[b])
        ));
    }

    /// The closed FDs of `texts` in emission order, as `X -> Y` with each
    /// definitional attribute shown as the term it names, `[A*B]`.
    fn closed_fds(f: &mut Fixture, texts: &[&str]) -> Vec<String> {
        let pds: Vec<Equation> = texts
            .iter()
            .map(|t| parse_equation(t, &mut f.universe, &mut f.arena).unwrap())
            .collect();
        let normalized = normalize_pds(&pds, &mut f.arena, &mut f.universe);
        let closed = close_constraints(&normalized, &mut f.arena);
        let name = |a: Attribute| match normalized.definitions.iter().find(|d| d.0 == a) {
            Some(&(_, term)) => format!("[{}]", f.arena.display(term, &f.universe)),
            None => f.universe.name(a).unwrap().to_owned(),
        };
        let list = |set: &AttrSet| set.iter().map(name).collect::<Vec<_>>().join(",");
        closed
            .fds
            .iter()
            .map(|fd| format!("{} -> {}", list(&fd.lhs), list(&fd.rhs)))
            .collect()
    }

    #[test]
    fn fpd_chain_closes_to_its_hasse_edges() {
        // A ≤ B ≤ C ≤ D: the closure derives A ≤ C, A ≤ D and B ≤ D too,
        // but only the covering edges are emitted.  Each A*B is ≡ A, so it
        // joins A's class as a star, and {A,B} → A*B is dropped.
        let mut f = fixture();
        let fds = closed_fds(&mut f, &["A = A*B", "B = B*C", "C = C*D"]);
        assert_eq!(
            fds,
            [
                "A -> B,[A*B]",
                "B -> C,[B*C]",
                "C -> D,[C*D]",
                "[A*B] -> A",
                "[B*C] -> B",
                "[C*D] -> C",
            ]
        );
    }

    #[test]
    fn cycle_closes_to_a_star_on_its_least_attribute() {
        let mut f = fixture();
        let fds = closed_fds(&mut f, &["A = A*B", "B = B*A"]);
        assert_eq!(
            fds,
            ["A -> B,[A*B],[B*A]", "B -> A", "[A*B] -> A", "[B*A] -> A"]
        );
    }

    #[test]
    fn meet_keeps_its_two_attribute_fd() {
        // C ≡ A*B lies below A and below B, but neither A nor B alone
        // reaches it: {A,B} → A*B is the only way to C.
        let mut f = fixture();
        let fds = closed_fds(&mut f, &["C = A*B"]);
        assert_eq!(fds, ["C -> A,B,[A*B]", "A,B -> [A*B]", "[A*B] -> C"]);
    }

    #[test]
    fn collapsed_sum_still_yields_its_fd() {
        // A ≤ B collapses C = A + B to C = B: C and A+B join B's class.
        let mut f = fixture();
        let fds = closed_fds(&mut f, &["A = A*B", "C = A+B"]);
        assert_eq!(
            fds,
            [
                "A -> B,[A*B]",
                "B -> C,[A+B]",
                "C -> B",
                "[A*B] -> A",
                "[A+B] -> B",
            ]
        );
    }

    #[test]
    fn closure_invalidation_hooks_track_source_pds() {
        let mut f = fixture();
        let a_fd = parse_equation("A = A*B", &mut f.universe, &mut f.arena).unwrap();
        let sum = parse_equation("C = A+B", &mut f.universe, &mut f.arena).unwrap();
        let unrelated = parse_equation("D = D*E", &mut f.universe, &mut f.arena).unwrap();
        let normalized = normalize_pds(&[a_fd, sum], &mut f.arena, &mut f.universe);
        assert_eq!(normalized.source_pds, vec![a_fd, sum]);
        let closed = close_constraints(&normalized, &mut f.arena);

        // Dependency is modulo orientation; PDs never consumed don't count.
        let flipped = Equation::new(a_fd.rhs, a_fd.lhs);
        assert!(closed.depends_on(a_fd));
        assert!(closed.depends_on(flipped));
        assert!(!closed.depends_on(unrelated));

        // Currency is modulo order, orientation and duplicates.
        assert!(closed.is_current_for(&[a_fd, sum]));
        assert!(closed.is_current_for(&[sum, flipped, a_fd]));
        assert!(!closed.is_current_for(&[a_fd]));
        assert!(!closed.is_current_for(&[a_fd, sum, unrelated]));
    }

    #[test]
    fn fpd_only_constraints_reduce_to_the_chase() {
        let mut f = fixture();
        let db = DatabaseBuilder::new()
            .relation(
                &mut f.universe,
                &mut f.symbols,
                "R",
                &["A", "B"],
                &[&["a", "b1"], &["a", "b2"]],
            )
            .unwrap()
            .build();
        let violated = vec![parse_equation("A = A*B", &mut f.universe, &mut f.arena).unwrap()];
        let outcome = consistent_with_pds(
            &db,
            &violated,
            &mut f.arena,
            &mut f.universe,
            &mut f.symbols,
        )
        .unwrap();
        assert!(!outcome.consistent);
        assert!(outcome.weak_instance().is_none());

        let satisfied = vec![parse_equation("B = B*A", &mut f.universe, &mut f.arena).unwrap()];
        let outcome = consistent_with_pds(
            &db,
            &satisfied,
            &mut f.arena,
            &mut f.universe,
            &mut f.symbols,
        )
        .unwrap();
        assert!(outcome.consistent);
        let w = outcome.weak_instance().unwrap();
        assert!(db.has_weak_instance(&w));
        assert!(w.satisfies_all_fds(&outcome.fds));
    }

    #[test]
    fn sum_constraints_never_cause_inconsistency() {
        // Lemma 12.1: sum constraints alone can always be repaired, so
        // consistency is governed by the FD part only.
        let mut f = fixture();
        let db = DatabaseBuilder::new()
            .relation(
                &mut f.universe,
                &mut f.symbols,
                "R",
                &["A", "B", "C"],
                &[&["a1", "b1", "c"], &["a2", "b2", "c"]],
            )
            .unwrap()
            .build();
        // C = A + B: the two tuples share a C value but are not chain
        // connected; still consistent because a bridging tuple can be added.
        let pds = vec![parse_equation("C = A+B", &mut f.universe, &mut f.arena).unwrap()];
        let outcome =
            consistent_with_pds(&db, &pds, &mut f.arena, &mut f.universe, &mut f.symbols).unwrap();
        assert!(outcome.consistent);
        assert!(!outcome.sums.is_empty());
        let w = outcome.weak_instance().unwrap();
        // The chased instance satisfies F but may violate the sum constraint…
        assert!(w.satisfies_all_fds(&outcome.fds));
        // …which the Lemma 12.1 repair fixes.
        let (repaired, converged) =
            repair_sum_violations(&w, &outcome.fds, &outcome.sums, &mut f.symbols, 32);
        assert!(converged);
        assert!(relation_satisfies_sum_constraints(&repaired, &outcome.sums));
        assert!(repaired.satisfies_all_fds(&outcome.fds));
        assert!(db.has_weak_instance(&repaired));
        assert!(repaired.len() > w.len());
    }

    #[test]
    fn mixed_constraints_detect_fd_level_contradictions() {
        let mut f = fixture();
        // D = A + B together with D = D*E and E-values that clash.
        let db = DatabaseBuilder::new()
            .relation(
                &mut f.universe,
                &mut f.symbols,
                "R",
                &["A", "B", "D", "E"],
                &[&["a1", "b1", "d", "e1"], &["a2", "b2", "d", "e2"]],
            )
            .unwrap()
            .build();
        let pds = vec![
            parse_equation("D = A+B", &mut f.universe, &mut f.arena).unwrap(),
            parse_equation("D = D*E", &mut f.universe, &mut f.arena).unwrap(),
        ];
        let outcome =
            consistent_with_pds(&db, &pds, &mut f.arena, &mut f.universe, &mut f.symbols).unwrap();
        // D → E is in F and is violated by the two rows (same d, e1 ≠ e2).
        assert!(!outcome.consistent);
    }

    #[test]
    fn sum_constraint_satisfaction_checks() {
        let mut f = fixture();
        let db = DatabaseBuilder::new()
            .relation(
                &mut f.universe,
                &mut f.symbols,
                "R",
                &["A", "B", "C"],
                &[&["a1", "b", "c"], &["a2", "b", "c"], &["a3", "b3", "c2"]],
            )
            .unwrap()
            .build();
        let r = db.relations()[0].clone();
        let a = f.universe.lookup("A").unwrap();
        let b = f.universe.lookup("B").unwrap();
        let c = f.universe.lookup("C").unwrap();
        let ok = SumConstraint {
            target: c,
            left: a,
            right: b,
        };
        assert!(relation_satisfies_sum_constraint(&r, ok));
        // Swap roles: A ≤ B + C fails because a1/a2 … actually every tuple has
        // a distinct A value, so A ≤ anything holds; use a constraint whose
        // target groups unconnected tuples instead.
        let bad_db = DatabaseBuilder::new()
            .relation(
                &mut f.universe,
                &mut f.symbols,
                "S",
                &["A", "B", "C"],
                &[&["a1", "b1", "c"], &["a2", "b2", "c"]],
            )
            .unwrap()
            .build();
        let s = bad_db.relations()[0].clone();
        assert!(!relation_satisfies_sum_constraint(&s, ok));
        assert!(!relation_satisfies_sum_constraints(&s, &[ok]));
        // Constraints over attributes missing from the scheme are vacuous.
        let z = f.universe.attr("Z");
        let vacuous = SumConstraint {
            target: z,
            left: a,
            right: b,
        };
        assert!(relation_satisfies_sum_constraint(&s, vacuous));
        assert_eq!(vacuous.render(&f.universe), "Z<=A+B");
    }

    #[test]
    fn repair_handles_overlapping_closures() {
        let mut f = fixture();
        // F contains A → Q and B → Q; the sum constraint C ≤ A + B plus equal
        // Q values in the closure overlap is exactly the delicate case of the
        // Lemma 12.1 proof.
        let db = DatabaseBuilder::new()
            .relation(
                &mut f.universe,
                &mut f.symbols,
                "R",
                &["A", "B", "C", "Q"],
                &[&["a1", "b1", "c", "q"], &["a2", "b2", "c", "q"]],
            )
            .unwrap()
            .build();
        let pds = vec![
            parse_equation("C = A+B", &mut f.universe, &mut f.arena).unwrap(),
            parse_equation("A = A*Q", &mut f.universe, &mut f.arena).unwrap(),
            parse_equation("B = B*Q", &mut f.universe, &mut f.arena).unwrap(),
        ];
        let outcome =
            consistent_with_pds(&db, &pds, &mut f.arena, &mut f.universe, &mut f.symbols).unwrap();
        assert!(outcome.consistent);
        let w = outcome.weak_instance().unwrap();
        let (repaired, converged) =
            repair_sum_violations(&w, &outcome.fds, &outcome.sums, &mut f.symbols, 32);
        assert!(converged);
        assert!(repaired.satisfies_all_fds(&outcome.fds));
        assert!(relation_satisfies_sum_constraints(&repaired, &outcome.sums));
    }
}
