//! The chase with functional dependencies (Honeyman's weak-satisfaction
//! test).
//!
//! Given a database `d` and a set of FDs `Σ` over the union `U` of its
//! attributes, `d` is *consistent with `Σ` under the weak instance
//! assumption* iff there is a weak instance for `d` satisfying `Σ`
//! (Section 2.1).  The test builds the padded tableau of `d`
//! ([`crate::Tableau`]) and repeatedly applies the FDs: whenever two rows
//! agree on `X`, their `Y`-entries are equated.  Equating two *distinct
//! constants* is a contradiction; otherwise the chase terminates with a
//! representative weak instance.
//!
//! Two engines implement the fixpoint, both over a prebuilt tableau:
//!
//! * [`chase_tableau_with`] — the **indexed, worklist-driven engine**: one
//!   leader index per FD maps a row's lhs class key to the leader row first
//!   seen with it, symbol classes are merged through a
//!   [`ps_partition::UnionFind`], and a dirty-row worklist revisits only
//!   rows whose symbols changed class.  An FD whose lhs is a single tableau
//!   column keys a dense `u32` slot array by the column's class root; a
//!   multi-column lhs keys a hash map by the vector of roots.  Every row is
//!   examined `O(1 + changes)` times per FD instead of once per global
//!   round.
//! * [`chase_tableau_naive`] — the full-rescan reference: repeat passes
//!   over every (FD, row) pair until a pass changes nothing.
//!
//! Both report their work in [`ChaseOutcome::row_visits`], which the
//! `ps-bench` operation-counter test uses to prove the indexed engine does
//! strictly less work.  Visits scale with the number of FDs, so the engines
//! take the FD set as given and never regroup it: the Theorem 12 pipeline
//! hands them a closed system already condensed to one FD per left-hand
//! side (`ps_core::consistency::close_constraints_with`).  Neither consults
//! a symbol table: constants and nulls are told apart by
//! [`Symbol::is_constant`].
//!
//! [`chase_fds_over_with`] is the one database-level entry point: it pads
//! the tableau with nulls from any [`NullSource`] and runs the indexed
//! engine.  This is the polynomial-time workhorse behind Theorems 6, 7 and
//! 12 of the paper (experiment E5).

use std::collections::{HashMap, VecDeque};

use ps_base::{AttrSet, FreshSymbols, NullSource, Symbol, SymbolTable};
use ps_partition::UnionFind;

use crate::{Database, Fd, Relation, RelationScheme, Tableau};

/// The outcome of chasing a tableau with FDs.
#[derive(Debug, Clone)]
pub struct ChaseOutcome {
    /// Whether the chase finished without equating two distinct constants.
    pub consistent: bool,
    /// Number of equate operations performed.
    pub steps: usize,
    /// Number of passes over the FD set (always `1` for the worklist
    /// engine, which has no global rounds).
    pub rounds: usize,
    /// Number of (row, FD) examinations performed — the work measure the
    /// operation-counter tests compare across engines.  A visit is one
    /// examination of one row against one FD of the set as given; for a
    /// closed Theorem 12 system, whose FDs are grouped one per left-hand
    /// side, that is one (row, grouped FD) examination.
    pub row_visits: usize,
    /// If consistent, the chased tableau rows with every symbol replaced by
    /// its representative.
    pub rows: Option<Vec<Vec<Symbol>>>,
}

impl ChaseOutcome {
    fn inconsistent(steps: usize, rounds: usize, row_visits: usize) -> Self {
        ChaseOutcome {
            consistent: false,
            steps,
            rounds,
            row_visits,
            rows: None,
        }
    }

    /// Converts the chased rows into a representative weak-instance relation
    /// over `attrs` named `name`.  Returns `None` if the chase found an
    /// inconsistency.
    pub fn weak_instance(&self, name: &str, attrs: &AttrSet) -> Option<Relation> {
        let rows = self.rows.as_ref()?;
        let scheme = RelationScheme::new(name, attrs.clone());
        let mut relation = Relation::new(scheme);
        for row in rows {
            relation
                .insert_values(row)
                .expect("chased rows match the attribute set");
        }
        Some(relation)
    }
}

/// Union–find over symbols in which constants can never be merged with each
/// other (HashMap-based; used by the naive reference engine).
#[derive(Default)]
struct SymbolClasses {
    parent: HashMap<Symbol, Symbol>,
}

impl SymbolClasses {
    fn find(&mut self, s: Symbol) -> Symbol {
        let p = *self.parent.get(&s).unwrap_or(&s);
        if p == s {
            return s;
        }
        let root = self.find(p);
        self.parent.insert(s, root);
        root
    }

    /// Merges the classes of `a` and `b`.  Returns `Ok(true)` if a merge
    /// happened, `Ok(false)` if they were already equal, and `Err(())` if
    /// both classes are rooted at distinct constants.
    fn union(&mut self, a: Symbol, b: Symbol) -> Result<bool, ()> {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return Ok(false);
        }
        match (ra.is_constant(), rb.is_constant()) {
            (true, true) => Err(()),
            (true, false) => {
                self.parent.insert(rb, ra);
                Ok(true)
            }
            _ => {
                // rb is a constant (keep it as root) or both are nulls.
                self.parent.insert(ra, rb);
                Ok(true)
            }
        }
    }
}

/// Pre-computes, for each FD, the column indices of its lhs/rhs attributes
/// that occur in the tableau, dropping FDs whose lhs mentions a column the
/// tableau lacks entirely (no two rows can agree on a column that does not
/// exist, so such FDs can never fire).
fn active_fd_columns(tableau: &Tableau, fds: &[Fd]) -> Vec<(Vec<usize>, Vec<usize>)> {
    fds.iter()
        .filter_map(|fd| {
            let lhs: Vec<usize> = fd.lhs.iter().filter_map(|a| tableau.position(a)).collect();
            if lhs.len() != fd.lhs.len() {
                return None;
            }
            let rhs: Vec<usize> = fd.rhs.iter().filter_map(|a| tableau.position(a)).collect();
            Some((lhs, rhs))
        })
        .collect()
}

/// Chases `tableau` with `fds` by full rescans: every pass re-examines
/// every (FD, row) pair until a pass changes nothing.  Kept as the
/// reference implementation the indexed engine is pinned against.
pub fn chase_tableau_naive(tableau: &Tableau, fds: &[Fd]) -> ChaseOutcome {
    let mut classes = SymbolClasses::default();
    let mut steps = 0usize;
    let mut rounds = 0usize;
    let mut row_visits = 0usize;

    let fd_columns = active_fd_columns(tableau, fds);

    loop {
        rounds += 1;
        let mut changed = false;
        for (lhs_cols, rhs_cols) in &fd_columns {
            // Group rows by the representative vector of their lhs columns.
            let mut groups: HashMap<Vec<Symbol>, usize> = HashMap::new();
            for (row_idx, row) in tableau.rows().iter().enumerate() {
                row_visits += 1;
                let key: Vec<Symbol> = lhs_cols.iter().map(|&c| classes.find(row[c])).collect();
                match groups.get(&key) {
                    None => {
                        groups.insert(key, row_idx);
                    }
                    Some(&leader) => {
                        // Equate the rhs entries of `row_idx` with the leader's.
                        for &c in rhs_cols {
                            let a = tableau.rows()[leader][c];
                            let b = row[c];
                            match classes.union(a, b) {
                                Ok(true) => {
                                    steps += 1;
                                    changed = true;
                                }
                                Ok(false) => {}
                                Err(()) => {
                                    return ChaseOutcome::inconsistent(steps, rounds, row_visits)
                                }
                            }
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    let rows = tableau
        .rows()
        .iter()
        .map(|row| row.iter().map(|&s| classes.find(s)).collect())
        .collect();
    ChaseOutcome {
        consistent: true,
        steps,
        rounds,
        row_visits,
        rows: Some(rows),
    }
}

/// Reusable working storage for the indexed chase engine.
///
/// One [`chase_tableau_with`] run allocates a local symbol-interning table,
/// per-class row lists, one dense leader-slot array per single-column FD,
/// one lhs-key hash index per multi-column FD, the dirty-row queue and a
/// key scratch buffer.  On macro workloads (10⁵–10⁶ tuples chased per
/// batch, or one chase per query in a long-lived session) that allocation
/// churn is a measurable share of the chase's wall-clock, so callers that
/// chase repeatedly hold one `ChaseScratch` and pass it to every run; each
/// run clears — but keeps the capacity of — every buffer.  The buffer-reuse
/// path is pinned to the fresh-allocation path by the `columnar_agreement`
/// proptests and measured in the `BENCH_*.json` trajectory
/// (`chase_scratch_reuse` workload).
#[derive(Debug, Default)]
pub struct ChaseScratch {
    /// Dense local interning of the tableau's distinct symbols.
    local: HashMap<Symbol, u32>,
    /// `rep[r]` for a root `r`: the minimum symbol of the class.
    rep: Vec<Symbol>,
    /// `rows_of[r]` for a root `r`: the rows containing any class member.
    /// Pooled: entries beyond the current run's symbol count are kept empty.
    rows_of: Vec<Vec<u32>>,
    /// Per-row dense symbol ids (pooled like `rows_of`).
    cells: Vec<Vec<u32>>,
    /// The leader slots of the FDs whose active lhs is a single column:
    /// FD `k`'s slots are `slots[k·n .. (k+1)·n]` for `n` interned symbols,
    /// and slot `root` holds the leader row first seen with lhs class
    /// `root` (or [`NO_ROW`]).
    slots: Vec<u32>,
    /// One lhs-key index per multi-column FD, mapping the class roots of a
    /// row's lhs columns to the leader row first seen with that key.
    indexes: Vec<HashMap<Vec<u32>, u32>>,
    /// Dirty-row worklist and its membership mask.
    queue: VecDeque<u32>,
    queued: Vec<bool>,
    /// Scratch for the current row's lhs key (cloned only on index misses).
    key_buf: Vec<u32>,
    /// Rows dirtied by the most recent class merge.
    moved: Vec<u32>,
}

impl ChaseScratch {
    /// Creates an empty scratch (equivalent to `ChaseScratch::default()`).
    pub fn new() -> Self {
        ChaseScratch::default()
    }

    /// Clears every buffer for a fresh run, keeping capacities.  The dense
    /// slots are sized later, once the symbol count is known.
    fn reset(&mut self, num_rows: usize, num_hashed: usize) {
        self.local.clear();
        self.rep.clear();
        for list in &mut self.rows_of {
            list.clear();
        }
        for row in &mut self.cells {
            row.clear();
        }
        if self.cells.len() > num_rows {
            self.cells.truncate(num_rows);
        }
        for index in &mut self.indexes {
            index.clear();
        }
        self.indexes.resize_with(num_hashed, HashMap::new);
        self.queue.clear();
        self.queued.clear();
        self.queued.resize(num_rows, true);
        self.key_buf.clear();
        self.moved.clear();
    }
}

/// Result of merging two symbol classes.
enum Merge {
    /// Already the same class.
    Same,
    /// Classes merged; `ChaseScratch::moved` lists the rows whose key roots
    /// changed.
    Merged,
    /// Both classes were rooted at distinct constants.
    Clash,
}

/// Merges the classes of dense ids `a` and `b` in `uf`, maintaining the
/// minimum-symbol representative in `rep` (constants sort below fresh
/// nulls, so a class with a constant is always represented by it — and
/// since merging two constants is a contradiction, each class holds at most
/// one).  On a merge, the losing class's rows are drained into `moved` (for
/// re-queueing) and folded into the winner's list.
fn merge_classes(
    uf: &mut UnionFind,
    rep: &mut [Symbol],
    rows_of: &mut [Vec<u32>],
    moved: &mut Vec<u32>,
    a: u32,
    b: u32,
) -> Merge {
    let ra = uf.find(a as usize);
    let rb = uf.find(b as usize);
    if ra == rb {
        return Merge::Same;
    }
    if rep[ra].is_constant() && rep[rb].is_constant() {
        // Distinct roots with constant representatives ⇒ distinct
        // constants (equal constants intern to the same symbol).
        return Merge::Clash;
    }
    uf.union(ra, rb);
    let winner = uf.find(ra);
    let loser = if winner == ra { rb } else { ra };
    rep[winner] = rep[ra].min(rep[rb]);
    // Rows touching the losing class now hash to new keys: hand them to
    // the caller for re-queueing, and fold them into the winner's list.
    moved.clear();
    moved.extend_from_slice(&rows_of[loser]);
    rows_of[loser].clear();
    let (winner_rows, loser_rows) = if winner < loser {
        let (head, tail) = rows_of.split_at_mut(loser);
        (&mut head[winner], &tail[0])
    } else {
        let (head, tail) = rows_of.split_at_mut(winner);
        (&mut tail[0], &head[loser])
    };
    debug_assert!(loser_rows.is_empty());
    winner_rows.extend_from_slice(moved);
    Merge::Merged
}

/// Marks an empty dense leader slot.
const NO_ROW: u32 = u32::MAX;

/// Where one FD of the indexed engine looks up a row's leader.
#[derive(Clone, Copy)]
enum LeaderIndex {
    /// Single-column lhs: the dense slots starting at this offset of
    /// [`ChaseScratch::slots`], indexed by the lhs class root.
    Dense(usize),
    /// Multi-column lhs: this entry of [`ChaseScratch::indexes`], keyed by
    /// the lhs class roots.
    Hashed(usize),
}

/// Chases `tableau` with `fds` using the indexed, worklist-driven engine
/// (see the module docs).  The leader indexes, dirty-row queue, interning
/// tables and key scratch live in `scratch` and are cleared — not
/// reallocated — between runs; pass `&mut ChaseScratch::default()` for a
/// one-off chase.
pub fn chase_tableau_with(
    tableau: &Tableau,
    fds: &[Fd],
    scratch: &mut ChaseScratch,
) -> ChaseOutcome {
    let rows = tableau.rows();
    let num_rows = rows.len();
    let fd_columns = active_fd_columns(tableau, fds);
    let (mut dense, mut hashed) = (0, 0);
    let leader_index: Vec<LeaderIndex> = fd_columns
        .iter()
        .map(|(lhs_cols, _)| {
            if lhs_cols.len() == 1 {
                dense += 1;
                LeaderIndex::Dense(dense - 1)
            } else {
                hashed += 1;
                LeaderIndex::Hashed(hashed - 1)
            }
        })
        .collect();
    scratch.reset(num_rows, hashed);

    // Dense local interning of every distinct symbol in the tableau.
    for (row_idx, row) in rows.iter().enumerate() {
        let cells_row = if row_idx < scratch.cells.len() {
            &mut scratch.cells[row_idx]
        } else {
            scratch.cells.push(Vec::with_capacity(row.len()));
            scratch.cells.last_mut().expect("just pushed")
        };
        for &s in row {
            let id = match scratch.local.entry(s) {
                std::collections::hash_map::Entry::Occupied(e) => *e.get(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    let id = scratch.rep.len() as u32;
                    scratch.rep.push(s);
                    if scratch.rows_of.len() <= id as usize {
                        scratch.rows_of.push(Vec::new());
                    }
                    e.insert(id);
                    id
                }
            };
            let list = &mut scratch.rows_of[id as usize];
            if list.last() != Some(&(row_idx as u32)) {
                list.push(row_idx as u32);
            }
            cells_row.push(id);
        }
    }

    let num_symbols = scratch.rep.len();
    scratch.slots.clear();
    scratch.slots.resize(dense * num_symbols, NO_ROW);
    let mut uf = UnionFind::new(num_symbols);
    scratch.queue.extend(0..num_rows as u32);

    let mut steps = 0usize;
    let mut row_visits = 0usize;

    while let Some(row) = scratch.queue.pop_front() {
        scratch.queued[row as usize] = false;
        for ((lhs_cols, rhs_cols), &index) in fd_columns.iter().zip(&leader_index) {
            row_visits += 1;
            let cells = &scratch.cells[row as usize];
            let leader = match index {
                // A slot under a root that has since lost a merge is never
                // read again (`find` only returns roots), so merges leave
                // stale slots behind instead of clearing them.
                LeaderIndex::Dense(k) => {
                    let root = uf.find(cells[lhs_cols[0]] as usize);
                    let slot = &mut scratch.slots[k * num_symbols + root];
                    if *slot == NO_ROW {
                        *slot = row;
                        continue;
                    }
                    *slot
                }
                LeaderIndex::Hashed(h) => {
                    scratch.key_buf.clear();
                    for &c in lhs_cols {
                        scratch.key_buf.push(uf.find(cells[c] as usize) as u32);
                    }
                    // Look up by slice; the key is cloned into the map only
                    // on the first sighting, so the per-(row, FD) visit
                    // allocates nothing once the index is warm.
                    match scratch.indexes[h].get(scratch.key_buf.as_slice()) {
                        None => {
                            scratch.indexes[h].insert(scratch.key_buf.clone(), row);
                            continue;
                        }
                        Some(&leader) => leader,
                    }
                }
            };
            if leader == row {
                continue;
            }
            for &c in rhs_cols {
                let a = scratch.cells[leader as usize][c];
                let b = scratch.cells[row as usize][c];
                match merge_classes(
                    &mut uf,
                    &mut scratch.rep,
                    &mut scratch.rows_of,
                    &mut scratch.moved,
                    a,
                    b,
                ) {
                    Merge::Same => {}
                    Merge::Clash => {
                        return ChaseOutcome::inconsistent(steps, 1, row_visits);
                    }
                    Merge::Merged => {
                        steps += 1;
                        for &r in &scratch.moved {
                            if !scratch.queued[r as usize] {
                                scratch.queued[r as usize] = true;
                                scratch.queue.push_back(r);
                            }
                        }
                    }
                }
            }
        }
    }

    let chased = scratch
        .cells
        .iter()
        .take(num_rows)
        .map(|row| {
            row.iter()
                .map(|&id| scratch.rep[uf.find(id as usize)])
                .collect()
        })
        .collect();
    ChaseOutcome {
        consistent: true,
        steps,
        rounds: 1,
        row_visits,
        rows: Some(chased),
    }
}

/// Chases the padded tableau of `db` over the attribute universe `attrs`
/// (which contains the database's own attributes and may contain more, as
/// happens in the Section 6.2 pipeline where constraints introduce new
/// attributes), using the indexed engine with the caller's reusable
/// buffers.  Padding nulls come from `nulls`; see [`Tableau::from_database`].
pub fn chase_fds_over_with(
    db: &Database,
    attrs: &AttrSet,
    fds: &[Fd],
    nulls: &mut impl NullSource,
    scratch: &mut ChaseScratch,
) -> ChaseOutcome {
    let tableau = Tableau::from_database(db, attrs, nulls);
    chase_tableau_with(&tableau, fds, scratch)
}

/// [`chase_fds_over_with`] with a detached [`FreshSymbols`] source; the
/// table is not consulted.  Kept only for the call shape of the
/// repository's `perfbench` harness — new code calls
/// [`chase_fds_over_with`] directly.
pub fn chase_fds_over_frozen(
    db: &Database,
    attrs: &AttrSet,
    fds: &[Fd],
    _symbols: &SymbolTable,
    fresh: &mut FreshSymbols,
    scratch: &mut ChaseScratch,
) -> ChaseOutcome {
    chase_fds_over_with(db, attrs, fds, fresh, scratch)
}

/// Renames fresh nulls to their first-occurrence index so chased rows can
/// be compared across engines and runs (each engine picks its own null
/// representatives; constants render by name).
pub fn canonical_chase_rows(rows: &[Vec<Symbol>], symbols: &SymbolTable) -> Vec<Vec<String>> {
    let mut naming: HashMap<Symbol, String> = HashMap::new();
    rows.iter()
        .map(|row| {
            row.iter()
                .map(|&s| {
                    if s.is_constant() {
                        symbols.render(s)
                    } else {
                        let next = format!("null{}", naming.len());
                        naming.entry(s).or_insert(next).clone()
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::DatabaseBuilder;
    use crate::fd::fd;
    use ps_base::Universe;

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

    /// Chases one tableau of `db` with both engines, which must agree: same
    /// verdict, same chased rows up to null renaming (the FD chase is
    /// confluent).  Returns the indexed engine's outcome.  No relation
    /// between their `row_visits` is asserted here — the worklist engine
    /// wins on propagation-heavy workloads but can lose on tiny ones, where
    /// re-queues outnumber the naive engine's few global rounds.
    fn chase(db: &Database, fds: &[Fd], symbols: &mut SymbolTable) -> ChaseOutcome {
        let tableau = Tableau::from_database(db, &db.all_attributes(), symbols);
        let indexed = chase_tableau_with(&tableau, fds, &mut ChaseScratch::default());
        let naive = chase_tableau_naive(&tableau, fds);
        assert_eq!(indexed.consistent, naive.consistent);
        match (&indexed.rows, &naive.rows) {
            (Some(a), Some(b)) => {
                assert_eq!(
                    canonical_chase_rows(a, symbols),
                    canonical_chase_rows(b, symbols)
                );
            }
            (None, None) => {}
            _ => unreachable!("verdicts agree"),
        }
        indexed
    }

    #[test]
    fn consistent_database_produces_a_weak_instance() {
        let mut f = fixture();
        // R1[AB], R2[BC] with B→C; consistent.
        let db = DatabaseBuilder::new()
            .relation(
                &mut f.universe,
                &mut f.symbols,
                "R1",
                &["A", "B"],
                &[&["a1", "b"], &["a2", "b"]],
            )
            .unwrap()
            .relation(
                &mut f.universe,
                &mut f.symbols,
                "R2",
                &["B", "C"],
                &[&["b", "c"]],
            )
            .unwrap()
            .build();
        let b = f.universe.lookup("B").unwrap();
        let c = f.universe.lookup("C").unwrap();
        let fds = vec![fd(&[b], &[c])];
        let outcome = chase(&db, &fds, &mut f.symbols);
        assert!(outcome.consistent);
        let w = outcome.weak_instance("W", &db.all_attributes()).unwrap();
        assert_eq!(w.len(), 3);
        assert!(db.has_weak_instance(&w));
        assert!(w.satisfies_all_fds(&fds));
        // All three rows agree on B, so the chase propagated the constant c
        // into the rows coming from R1.
        let c_domain = w.active_domain(c).unwrap();
        assert_eq!(c_domain.len(), 1);
        assert!(c_domain[0].is_constant());
    }

    #[test]
    fn inconsistent_database_is_detected() {
        let mut f = fixture();
        // Two R1 tuples with the same A but different B, plus FD A→B.
        let db = DatabaseBuilder::new()
            .relation(
                &mut f.universe,
                &mut f.symbols,
                "R1",
                &["A", "B"],
                &[&["a", "b1"], &["a", "b2"]],
            )
            .unwrap()
            .build();
        let a = f.universe.lookup("A").unwrap();
        let b = f.universe.lookup("B").unwrap();
        let outcome = chase(&db, &[fd(&[a], &[b])], &mut f.symbols);
        assert!(!outcome.consistent);
        assert!(outcome.rows.is_none());
        assert!(outcome.weak_instance("W", &db.all_attributes()).is_none());
    }

    #[test]
    fn cross_relation_inconsistency_via_nulls() {
        let mut f = fixture();
        // R1[AC]: (a,c1); R2[AC]: (a,c2); FD A→C equates the constants c1, c2.
        let db = DatabaseBuilder::new()
            .relation(
                &mut f.universe,
                &mut f.symbols,
                "R1",
                &["A", "C"],
                &[&["a", "c1"]],
            )
            .unwrap()
            .relation(
                &mut f.universe,
                &mut f.symbols,
                "R2",
                &["A", "C"],
                &[&["a", "c2"]],
            )
            .unwrap()
            .build();
        let a = f.universe.lookup("A").unwrap();
        let c = f.universe.lookup("C").unwrap();
        let outcome = chase(&db, &[fd(&[a], &[c])], &mut f.symbols);
        assert!(!outcome.consistent);
    }

    #[test]
    fn chase_propagates_transitively_through_nulls() {
        let mut f = fixture();
        // R1[AB]: (a,b); R2[BC]: (b,c); R3[AC]: (a,c2).
        // FDs A→B, B→C make the null C of row 1 equal to c, and then A→C
        // forces c = c2: inconsistent.
        let db = DatabaseBuilder::new()
            .relation(
                &mut f.universe,
                &mut f.symbols,
                "R1",
                &["A", "B"],
                &[&["a", "b"]],
            )
            .unwrap()
            .relation(
                &mut f.universe,
                &mut f.symbols,
                "R2",
                &["B", "C"],
                &[&["b", "c"]],
            )
            .unwrap()
            .relation(
                &mut f.universe,
                &mut f.symbols,
                "R3",
                &["A", "C"],
                &[&["a", "c2"]],
            )
            .unwrap()
            .build();
        let a = f.universe.lookup("A").unwrap();
        let b = f.universe.lookup("B").unwrap();
        let c = f.universe.lookup("C").unwrap();
        let fds = vec![fd(&[a], &[b]), fd(&[b], &[c]), fd(&[a], &[c])];
        let outcome = chase(&db, &fds, &mut f.symbols);
        assert!(!outcome.consistent);
        // Without the contradicting R3 tuple it is consistent.
        let db2 = DatabaseBuilder::new()
            .relation(
                &mut f.universe,
                &mut f.symbols,
                "R1",
                &["A", "B"],
                &[&["a", "b"]],
            )
            .unwrap()
            .relation(
                &mut f.universe,
                &mut f.symbols,
                "R2",
                &["B", "C"],
                &[&["b", "c"]],
            )
            .unwrap()
            .build();
        let outcome2 = chase(&db2, &fds, &mut f.symbols);
        assert!(outcome2.consistent);
        let w = outcome2.weak_instance("W", &db2.all_attributes()).unwrap();
        assert!(w.satisfies_all_fds(&fds));
    }

    #[test]
    fn empty_fd_set_is_always_consistent() {
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
        let outcome = chase(&db, &[], &mut f.symbols);
        assert!(outcome.consistent);
        assert_eq!(outcome.steps, 0);
        assert_eq!(outcome.row_visits, 0);
    }

    #[test]
    fn chase_over_extra_attributes() {
        let mut f = fixture();
        let db = DatabaseBuilder::new()
            .relation(&mut f.universe, &mut f.symbols, "R", &["A"], &[&["a"]])
            .unwrap()
            .build();
        let b = f.universe.attr("B");
        let a = f.universe.lookup("A").unwrap();
        let mut attrs = db.all_attributes();
        attrs.insert(b);
        let outcome = chase_fds_over_with(
            &db,
            &attrs,
            &[fd(&[a], &[b])],
            &mut f.symbols,
            &mut ChaseScratch::default(),
        );
        assert!(outcome.consistent);
        let w = outcome.weak_instance("W", &attrs).unwrap();
        assert_eq!(w.scheme().arity(), 2);
    }

    #[test]
    fn dense_slots_survive_merges_beside_hashed_keys() {
        let mut f = fixture();
        // Tableau over X, A, B, C, D (A null in both rows):
        //   row 0 = (x, n0, b1, c, _ ),  row 1 = (x, n2, _, c, d1).
        // Row 1 first claims the dense A → B slot under its own root n2;
        // X → A then merges n2 into n0, leaving that slot stale, and
        // re-queues row 1, whose next A → B visit meets row 0 under n0
        // (equating B with b1) while the two-column AC → D key now hits
        // row 0 in the hash index (equating D with d1).
        let db = DatabaseBuilder::new()
            .relation(
                &mut f.universe,
                &mut f.symbols,
                "R1",
                &["X", "B", "C"],
                &[&["x", "b1", "c"]],
            )
            .unwrap()
            .relation(
                &mut f.universe,
                &mut f.symbols,
                "R2",
                &["X", "C", "D"],
                &[&["x", "c", "d1"]],
            )
            .unwrap()
            .relation(&mut f.universe, &mut f.symbols, "RA", &["A"], &[])
            .unwrap()
            .build();
        let [x, a, b, c, d] = ["X", "A", "B", "C", "D"].map(|n| f.universe.attr(n));
        let fds = vec![fd(&[a], &[b]), fd(&[x], &[a]), fd(&[a, c], &[d])];
        let outcome = chase(&db, &fds, &mut f.symbols);
        assert!(outcome.consistent);
        let rows = outcome.rows.as_ref().unwrap();
        let tableau = Tableau::from_database(&db, &db.all_attributes(), &mut f.symbols);
        let (pa, pb, pd) = (
            tableau.position(a).unwrap(),
            tableau.position(b).unwrap(),
            tableau.position(d).unwrap(),
        );
        assert_eq!(rows[0][pa], rows[1][pa]);
        assert_eq!(f.symbols.render(rows[1][pb]), "b1");
        assert_eq!(f.symbols.render(rows[0][pd]), "d1");
        // The A → B slots still hold both leaders, one under a root that
        // lost the merge; only the two-column FD used a hash index.
        let mut scratch = ChaseScratch::default();
        chase_tableau_with(&tableau, &fds, &mut scratch);
        let n = scratch.rep.len();
        let leaders = scratch.slots[..n].iter().filter(|&&s| s != NO_ROW).count();
        assert_eq!(leaders, 2);
        assert_eq!(scratch.slots.len(), 2 * n);
        assert_eq!(scratch.indexes.len(), 1);
    }

    #[test]
    fn indexed_engine_revisits_fewer_rows_on_propagation_chains() {
        let mut f = fixture();
        // A propagation chain A0→A1→…→A4 across single-attribute-overlap
        // relations, with the FDs listed against the propagation direction
        // so the full-rescan engine needs several rounds.
        let mut builder = DatabaseBuilder::new();
        for i in 0..4 {
            let name = format!("R{i}");
            let attrs = [format!("A{i}"), format!("A{}", i + 1)];
            let rows = [
                [format!("v{i}_0"), format!("v{}_0", i + 1)],
                [format!("v{i}_1"), format!("v{}_0", i + 1)],
            ];
            let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
            let row_refs: Vec<Vec<&str>> = rows
                .iter()
                .map(|r| r.iter().map(String::as_str).collect())
                .collect();
            let row_slices: Vec<&[&str]> = row_refs.iter().map(Vec::as_slice).collect();
            builder = builder
                .relation(
                    &mut f.universe,
                    &mut f.symbols,
                    &name,
                    &attr_refs,
                    &row_slices,
                )
                .unwrap();
        }
        let db = builder.build();
        let mut fds: Vec<Fd> = (0..4)
            .map(|i| {
                let lhs = f.universe.lookup(&format!("A{i}")).unwrap();
                let rhs = f.universe.lookup(&format!("A{}", i + 1)).unwrap();
                fd(&[lhs], &[rhs])
            })
            .collect();
        fds.reverse();
        let indexed = chase(&db, &fds, &mut f.symbols);
        let tableau = Tableau::from_database(&db, &db.all_attributes(), &mut f.symbols);
        let naive = chase_tableau_naive(&tableau, &fds);
        assert!(indexed.consistent && naive.consistent);
        assert!(
            indexed.row_visits < naive.row_visits,
            "worklist engine must do strictly less work ({} vs {})",
            indexed.row_visits,
            naive.row_visits
        );
    }
}
