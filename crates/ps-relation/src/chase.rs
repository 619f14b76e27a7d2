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
//! * [`chase_tableau_with`] — the **indexed, worklist-driven engine**, on
//!   flat per-cell state.  One leader index per FD maps a row's lhs class
//!   key to the leader row first seen with it, and symbol classes are
//!   merged through a [`ps_partition::UnionFind`].  Each class keeps an
//!   *occurrence list* of the tableau cells holding its members (the use
//!   list of congruence closure, Downey–Sethi–Tarjan 1980); a merge walks
//!   only the losing class's list and splices it onto the winner's in
//!   O(1).  Each row carries one pending bit per FD: a moved cell `(r, c)`
//!   marks on row `r` exactly the FDs whose lhs contains column `c`, and
//!   queues `r`.  A popped row examines only its pending FDs, so a merge
//!   in a column no lhs contains re-examines nothing.  An FD whose lhs is a
//!   single tableau column keys a dense `u32` leader slot by the column's
//!   class root — the slots are root-major, `slots[root · dense + d]` for
//!   the `d`-th such FD — and a multi-column lhs keys a hash map by the
//!   vector of roots.
//! * [`chase_tableau_naive`] — the full-rescan reference: repeat passes
//!   over every (FD, row) pair until a pass changes nothing.
//!
//! **Lone cells.**  Most cells of a padded tableau hold a padding null
//! that occurs in no other cell.  Such a *lone* cell gets no class until a
//! merge reaches it (congruence closure likewise gives a term no class
//! structure until it takes part in an equation): no union-find node, no
//! occurrence-list entry, no leader slots, and a row starts with no FD
//! pending whose lhs contains one of its lone cells.  A multi-column FD
//! that becomes pending while another of its lhs cells is still lone is
//! skipped, and the skip is not a visit.  Equating works on the two rhs
//! *cells*: two cells with classes merge as above; a lone cell adopts the
//! other cell's root (joins its occurrence list, may lower its
//! representative, and is marked); two lone cells form a new class — a
//! [`UnionFind::push`] plus `dense` empty leader slots — and *both* are
//! marked, since neither was ever examined under a key.  A lone cell holds
//! a null, so it never clashes; each of these is one union, so `steps`
//! counts exactly what it counts without lone cells.
//!
//! **Why skipping the other FDs loses nothing.**  A visit's outcome depends
//! only on the row's lhs class key and on the leader entry under that key,
//! and classes only ever merge.  So once a (row, FD) pair has been
//! examined, examining it again under the same key changes nothing: if the
//! row claimed the key's slot it is still that key's leader (slots are
//! written only when empty), and if it equated its rhs with the leader's,
//! those cells stay equal.  The key changes only when one of the row's lhs
//! cells loses a merge, and then that cell is on the loser's occurrence
//! list, so the merge marks the pair pending again.  Two rows whose keys
//! become equal are caught the same way: one of them had an lhs cell on the
//! losing side.  A pair whose key holds a lone cell is skipped safely: the
//! lone cell's class is a singleton, so no other row can share a key that
//! contains it, and the moment the cell gets a class it is marked — both
//! cells when two lone cells pair up.  Every other pair starts pending, and
//! a bit is cleared just before its visit, so at the fixpoint every pair
//! whose key could match another row's has been examined under its final
//! key — exactly the full-rescan engine's stopping condition.
//!
//! The lone cells are the tableau's padding, which the [`Tableau`] records
//! per run of rows: [`Tableau::from_database`] knows which columns it
//! padded, and [`Tableau::from_rows`] counts each null's cells.  So the
//! engine starts with every cell lone and interns only the other cells:
//! each distinct symbol gets the next dense id at its first occurrence in
//! row-major order, through one hash map keyed by the symbol's index.  A
//! null in a database's own cells is interned like a constant and is never
//! lone.  A run's rows all start with the same pending bits: every FD but
//! those whose lhs meets one of the run's padding columns.  A lone cell's
//! chased value is its own symbol.
//!
//! **Coded output.**  At the fixpoint the chase already knows which cells
//! are equal: they share a class root.  So it writes the weak instance
//! straight into a dictionary-encoded [`Relation`], with no symbol hashed.
//! Each column is coded densely in first-occurrence order down the column
//! — a cell with a class gets its root's code in that column, a lone cell
//! a fresh code — and its dictionary keeps one symbol per code (the class
//! representative, or the lone cell's own null).  Rows equal to an earlier
//! row are dropped, and only rows without a lone cell are compared, by
//! their codes: a lone cell's null occurs in no other cell, so a row
//! holding one equals no other row.  The repair and `I(w)` read these
//! codes (`ps_core::consistency`, `ps_core::canonical`) from the relation
//! [`ChaseOutcome::into_weak_instance`] hands over; [`ChaseOutcome::rows`]
//! materializes symbol rows only for the callers that ask.  The
//! full-rescan engine inserts its symbol rows one by one
//! ([`Relation::insert_values`]), so both engines return the same type.
//!
//! Both report their work in [`ChaseOutcome::row_visits`], which the
//! `ps-bench` operation-counter test uses to prove the indexed engine does
//! strictly less work.  Visits scale with the number of FDs, so the engines
//! take the FD set as given and never regroup it: the Theorem 12 pipeline
//! hands them a closed system already reduced to its Hasse diagram, one FD
//! per left-hand side (`ps_core::consistency::close_constraints_with`).
//! Neither consults a symbol table: constants and nulls are told apart by
//! [`Symbol::is_constant`].
//!
//! **Two exits.**  The indexed engine runs one fixpoint loop and leaves it
//! by one of two exits.  The *witness exit*, [`chase_tableau_with`], codes
//! the fixpoint into its weak instance as above.  The *verdict exit*,
//! [`chase_tableau_verdict`], stops at the fixpoint (or the clash) and
//! returns a [`ChaseVerdict`]: the verdict, `steps` and `row_visits`,
//! equal to the witness exit's, with nothing labelled.  Theorem 12's
//! verdict is exactly "the loop ends without a clash", so the decision
//! paths take the verdict exit and only the witness paths (Theorems 6 and
//! 7, the Lemma 12.1 repair, `I(w)`) pay for the labels.
//!
//! [`chase_fds_over_with`] and [`chase_verdict_over`] are the database-level
//! entry points to the two exits: each pads the tableau with nulls from any
//! [`NullSource`] and runs the indexed engine.  This is the polynomial-time
//! workhorse behind Theorems 6, 7 and 12 of the paper (experiment E5).

use std::collections::{HashMap, VecDeque};

use ps_base::{AttrSet, FreshSymbols, NullSource, Symbol, SymbolTable};
use ps_partition::UnionFind;

use crate::relation::SymbolMap;
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
    /// closed Theorem 12 system, reduced to one FD per left-hand side, that
    /// is one (row, reduced FD) examination, so an equivalent cover with
    /// fewer FDs makes fewer visits for the same chased rows and `steps`.
    /// The indexed engine examines each pair once, and again only after a
    /// merge moved one of the row's lhs cells (its pending bit for that
    /// FD); a pair it skips because the row's lhs holds a lone cell (see
    /// the module docs) is not a visit.  The naive engine examines every
    /// pair on every round.
    pub row_visits: usize,
    /// If consistent, the chased weak instance: the distinct chased rows.
    weak: Option<Relation>,
    /// `tableau_rows[r]`: the row of `weak` that tableau row `r` became;
    /// empty when that is `r` itself for every row.
    tableau_rows: Vec<u32>,
}

/// What the verdict exit of the indexed engine reports: whether the chase
/// reached a fixpoint without equating two distinct constants, and the
/// work it took, counted exactly as in [`ChaseOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaseVerdict {
    /// Whether the chase finished without equating two distinct constants.
    pub consistent: bool,
    /// Number of equate operations performed.
    pub steps: usize,
    /// Number of (row, FD) examinations performed
    /// (see [`ChaseOutcome::row_visits`]).
    pub row_visits: usize,
}

impl ChaseOutcome {
    fn inconsistent(steps: usize, rounds: usize, row_visits: usize) -> Self {
        ChaseOutcome {
            consistent: false,
            steps,
            rounds,
            row_visits,
            weak: None,
            tableau_rows: Vec::new(),
        }
    }

    fn fixpoint(
        steps: usize,
        rounds: usize,
        row_visits: usize,
        (weak, tableau_rows): (Relation, Vec<u32>),
    ) -> Self {
        ChaseOutcome {
            consistent: true,
            steps,
            rounds,
            row_visits,
            weak: Some(weak),
            tableau_rows,
        }
    }

    /// If consistent, the chased tableau rows, one per tableau row, with
    /// every symbol replaced by its representative.  Materialized from the
    /// weak instance's codes on every call.
    pub fn rows(&self) -> Option<Vec<Vec<Symbol>>> {
        let weak = self.weak.as_ref()?;
        let rows = if self.tableau_rows.is_empty() {
            (0..weak.len()).map(|r| weak.row_values(r)).collect()
        } else {
            self.tableau_rows
                .iter()
                .map(|&r| weak.row_values(r as usize))
                .collect()
        };
        Some(rows)
    }

    /// If consistent, the chased weak instance, named `weak_instance`: the
    /// distinct chased rows in first-occurrence order, handed over without
    /// a copy.
    pub fn into_weak_instance(self) -> Option<Relation> {
        self.weak
    }

    /// A copy of the representative weak-instance relation over `attrs`
    /// (the chased tableau's attributes), named `name`.  Returns `None` if
    /// the chase found an inconsistency.
    pub fn weak_instance(&self, name: &str, attrs: &AttrSet) -> Option<Relation> {
        let weak = self.weak.as_ref()?;
        debug_assert_eq!(
            attrs,
            weak.scheme().attrs(),
            "the chased tableau's attributes"
        );
        Some(weak.clone().into_renamed(name))
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
            for (row_idx, row) in tableau.rows().enumerate() {
                row_visits += 1;
                let key: Vec<Symbol> = lhs_cols.iter().map(|&c| classes.find(row[c])).collect();
                match groups.get(&key) {
                    None => {
                        groups.insert(key, row_idx);
                    }
                    Some(&leader) => {
                        // Equate the rhs entries of `row_idx` with the leader's.
                        for &c in rhs_cols {
                            let a = tableau.row(leader)[c];
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

    let mut weak = Relation::new(weak_scheme(tableau));
    let mut chased = Vec::with_capacity(tableau.attrs().len());
    let tableau_rows = tableau
        .rows()
        .map(|row| {
            chased.clear();
            chased.extend(row.iter().map(|&s| classes.find(s)));
            weak.insert_values(&chased)
                .expect("chased rows span the tableau");
            weak.find_values(&chased)
                .expect("the row was just inserted") as u32
        })
        .collect();
    ChaseOutcome::fixpoint(steps, rounds, row_visits, (weak, tableau_rows))
}

/// The scheme of a chased weak instance over `tableau`'s attributes.
fn weak_scheme(tableau: &Tableau) -> RelationScheme {
    RelationScheme::new("weak_instance", tableau.attrs().clone())
}

/// Reusable working storage for the indexed chase engine.
///
/// One [`chase_tableau_with`] run needs a symbol-interning map, the flat
/// cell array, per-class occurrence lists, per-row pending FD bits,
/// the dense leader slots of the single-column FDs, one lhs-key hash index
/// per multi-column FD, the dirty-row queue and a key scratch buffer.  On
/// macro workloads (10⁵–10⁶ tuples chased per batch, or one chase per query
/// in a long-lived session) that allocation churn is a measurable share of
/// the chase's wall-clock, so callers that chase repeatedly hold one
/// `ChaseScratch` and pass it to every run; each run clears — but keeps the
/// capacity of — every buffer.  The buffer-reuse path is pinned to the
/// fresh-allocation path by the `columnar_agreement` proptests and measured
/// in the `BENCH_*.json` trajectory (`chase_scratch_reuse` workload).
#[derive(Debug, Default)]
pub struct ChaseScratch {
    /// Dense interning of every symbol outside the tableau's padding.
    local: SymbolMap<u32>,
    /// `rep[r]` for a root `r`: the minimum symbol of the class.
    rep: Vec<Symbol>,
    /// Dense symbol ids, row-major: cell `(row, col)` is
    /// `cells[row · width + col]`, or [`LONE`] for a lone cell — a padding
    /// cell of the tableau that no merge has reached yet.
    cells: Vec<u32>,
    /// Occurrence lists over cell indices: for a root `r`, `head[r]` and
    /// `tail[r]` are the first and last cell holding a member of its class;
    /// `next[cell]` is the cell after `cell` in its list (or [`NONE`]).  A
    /// lone cell is on no list until a merge gives it a class.
    head: Vec<u32>,
    tail: Vec<u32>,
    next: Vec<u32>,
    /// `lhs_fds[c · words ..][..words]`: the FDs whose lhs contains tableau
    /// column `c`, one bit per active FD.
    lhs_fds: Vec<u64>,
    /// `pending[row · words ..][..words]`: the FDs `row` has yet to
    /// (re-)examine.  A row starts with every FD pending except those whose
    /// lhs contains one of its padding columns.
    pending: Vec<u64>,
    /// The leader slots of the FDs whose active lhs is a single column,
    /// root-major: with `dense` such FDs, the slot of the `d`-th one under
    /// class root `r` is `slots[r · dense + d]`, holding the leader row
    /// first seen with lhs class `r` (or [`NONE`]).  A class created by
    /// pairing two lone cells appends its `dense` empty slots.
    slots: Vec<u32>,
    /// One lhs-key index per multi-column FD, mapping the class roots of a
    /// row's lhs columns to the leader row first seen with that key.
    indexes: Vec<HashMap<Vec<u32>, u32>>,
    /// Dirty-row worklist and its membership mask.
    queue: VecDeque<u32>,
    queued: Vec<bool>,
    /// Scratch for the current row's lhs key (cloned only on index misses).
    key_buf: Vec<u32>,
    /// Coding at the fixpoint: `root_code[r]` for a class root `r` is
    /// `(column, code)`, the last column that coded the class and the code
    /// it got there.
    root_code: Vec<(u32, u32)>,
    /// Coding at the fixpoint: whether each row holds a lone cell.
    lone_rows: Vec<bool>,
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
        self.cells.clear();
        self.head.clear();
        self.tail.clear();
        self.next.clear();
        self.lhs_fds.clear();
        self.pending.clear();
        for index in &mut self.indexes {
            index.clear();
        }
        self.indexes.resize_with(num_hashed, HashMap::new);
        self.queue.clear();
        self.queued.clear();
        self.queued.resize(num_rows, false);
        self.key_buf.clear();
    }

    /// Interns every cell of `tableau` outside its padding in row-major
    /// order: each distinct symbol gets the next dense id at its first
    /// occurrence, and each cell is appended to its symbol's occurrence
    /// list.  Padding cells stay [`LONE`].
    fn intern(&mut self, tableau: &Tableau) {
        let symbols = tableau.cells();
        let width = tableau.attrs().len();
        self.cells.resize(symbols.len(), LONE);
        self.next.resize(symbols.len(), NONE);
        let mut values = Vec::with_capacity(width);
        let mut row_start = 0;
        for segment in tableau.segments() {
            values.clear();
            values.extend((0..width).filter(|c| !segment.padding.contains(c)));
            for _ in 0..segment.rows {
                for &c in &values {
                    let cell = row_start + c;
                    let fresh = self.rep.len() as u32;
                    let id = *self.local.entry(symbols[cell]).or_insert(fresh);
                    if id == fresh {
                        self.rep.push(symbols[cell]);
                        self.head.push(cell as u32);
                        self.tail.push(cell as u32);
                    } else {
                        let last = std::mem::replace(&mut self.tail[id as usize], cell as u32);
                        self.next[last as usize] = cell as u32;
                    }
                    self.cells[cell] = id;
                }
                row_start += width;
            }
        }
    }

    /// Codes the chased tableau at the fixpoint, column by column, in
    /// first-occurrence order down the column: a cell with a class gets
    /// its root's code in that column (the first cell of the root there
    /// gets the next code, naming the class representative), and a lone
    /// cell gets the next code, naming its own symbol.  Then drops every
    /// row equal to an earlier one, comparing only rows without a lone cell
    /// (see the module docs).
    fn label(&mut self, tableau: &Tableau, uf: &mut UnionFind) -> (Relation, Vec<u32>) {
        let symbols = tableau.cells();
        let num_rows = tableau.num_rows();
        let width = tableau.attrs().len();
        self.root_code.clear();
        self.root_code.resize(self.rep.len(), (NONE, 0));
        self.lone_rows.clear();
        self.lone_rows.resize(num_rows, false);
        let mut codes = Vec::with_capacity(width);
        let mut dictionary = Vec::with_capacity(width);
        for c in 0..width {
            let mut column = Vec::with_capacity(num_rows);
            let mut names = Vec::new();
            for r in 0..num_rows {
                let cell = r * width + c;
                let id = self.cells[cell];
                let code = if id == LONE {
                    self.lone_rows[r] = true;
                    names.push(symbols[cell]);
                    names.len() as u32 - 1
                } else {
                    let root = uf.find(id as usize);
                    let entry = &mut self.root_code[root];
                    if entry.0 != c as u32 {
                        *entry = (c as u32, names.len() as u32);
                        names.push(self.rep[root]);
                    }
                    entry.1
                };
                column.push(code);
            }
            codes.push(column);
            dictionary.push(names);
        }
        let lone_rows = &self.lone_rows;
        Relation::from_codes(weak_scheme(tableau), num_rows, codes, dictionary, |r| {
            !lone_rows[r]
        })
    }

    /// Marks on `cell`'s row the FDs whose lhs contains its column, and
    /// queues the row if that marked anything: the cell's class key moved.
    fn mark(&mut self, width: usize, words: usize, cell: u32) {
        let (row, col) = (cell as usize / width, cell as usize % width);
        let fds = &self.lhs_fds[col * words..(col + 1) * words];
        if fds.iter().any(|&bits| bits != 0) {
            let pending = &mut self.pending[row * words..(row + 1) * words];
            for (p, &f) in pending.iter_mut().zip(fds) {
                *p |= f;
            }
            if !self.queued[row] {
                self.queued[row] = true;
                self.queue.push_back(row as u32);
            }
        }
    }

    /// Equates tableau cells `a` and `b` (flat indices), either of which
    /// may be lone; `symbols`, the tableau's cells, supplies a lone cell's
    /// symbol.  Two cells with
    /// classes merge as in [`ChaseScratch::merge`].  A lone cell adopts the
    /// other cell's class: it joins the root's occurrence list, may lower
    /// its representative, and is marked.  Two lone cells form a new class
    /// (a [`UnionFind::push`] plus `dense` empty leader slots) whose list
    /// is `a` then `b`, and both are marked, since neither was ever
    /// examined under a key.  A lone cell holds a null, so only two classes
    /// can clash; each outcome but `Same` is one union.
    fn merge_cells(
        &mut self,
        uf: &mut UnionFind,
        symbols: &[Symbol],
        (width, words, dense): (usize, usize, usize),
        a: u32,
        b: u32,
    ) -> Merge {
        let symbol = |cell: u32| symbols[cell as usize];
        let (ia, ib) = (self.cells[a as usize], self.cells[b as usize]);
        if ia != LONE && ib != LONE {
            return self.merge(uf, width, words, ia, ib);
        }
        if ia == LONE && ib == LONE {
            let id = uf.push() as u32;
            self.rep.push(symbol(a).min(symbol(b)));
            self.head.push(a);
            self.tail.push(b);
            self.next[a as usize] = b;
            self.cells[a as usize] = id;
            self.cells[b as usize] = id;
            self.slots.resize(self.slots.len() + dense, NONE);
            self.mark(width, words, a);
            self.mark(width, words, b);
            return Merge::Merged;
        }
        let (lone, class) = if ia == LONE { (a, ib) } else { (b, ia) };
        let root = uf.find(class as usize);
        self.rep[root] = self.rep[root].min(symbol(lone));
        let last = std::mem::replace(&mut self.tail[root], lone);
        self.next[last as usize] = lone;
        self.cells[lone as usize] = root as u32;
        self.mark(width, words, lone);
        Merge::Merged
    }

    /// Merges the classes of dense ids `a` and `b` in `uf`, maintaining the
    /// minimum-symbol representative in `rep` (constants sort below fresh
    /// nulls, so a class with a constant is always represented by it — and
    /// since merging two constants is a contradiction, each class holds at
    /// most one).  On a merge, each cell of the losing class is marked (see
    /// [`ChaseScratch::mark`]); then the loser's occurrence list is spliced
    /// onto the winner's tail, so lists keep the order winner's cells, then
    /// loser's.
    fn merge(&mut self, uf: &mut UnionFind, width: usize, words: usize, a: u32, b: u32) -> Merge {
        let ra = uf.find(a as usize);
        let rb = uf.find(b as usize);
        if ra == rb {
            return Merge::Same;
        }
        if self.rep[ra].is_constant() && self.rep[rb].is_constant() {
            // Distinct roots with constant representatives ⇒ distinct
            // constants (equal constants intern to the same symbol).
            return Merge::Clash;
        }
        uf.union(ra, rb);
        let winner = uf.find(ra);
        let loser = if winner == ra { rb } else { ra };
        self.rep[winner] = self.rep[ra].min(self.rep[rb]);
        let mut cell = self.head[loser];
        while cell != NONE {
            self.mark(width, words, cell);
            cell = self.next[cell as usize];
        }
        self.next[self.tail[winner] as usize] = self.head[loser];
        self.tail[winner] = self.tail[loser];
        Merge::Merged
    }
}

/// Result of merging two symbol classes.
enum Merge {
    /// Already the same class.
    Same,
    /// Classes merged; the rows whose lhs keys moved are pending and queued.
    Merged,
    /// Both classes were rooted at distinct constants.
    Clash,
}

/// Marks an empty dense leader slot and the end of an occurrence list.
const NONE: u32 = u32::MAX;

/// Marks a lone cell in [`ChaseScratch::cells`].
const LONE: u32 = u32::MAX - 1;

/// The least FD index `≥ from` whose bit is set in `bits`.
fn next_pending(bits: &[u64], from: usize) -> Option<usize> {
    let mut w = from / 64;
    let mut word = bits.get(w)? & (!0u64 << (from % 64));
    while word == 0 {
        w += 1;
        word = *bits.get(w)?;
    }
    Some(w * 64 + word.trailing_zeros() as usize)
}

/// Where one FD of the indexed engine looks up a row's leader.
#[derive(Clone, Copy)]
enum LeaderIndex {
    /// Single-column lhs: the `d`-th slot of each root's run of
    /// [`ChaseScratch::slots`].
    Dense(usize),
    /// Multi-column lhs: this entry of [`ChaseScratch::indexes`], keyed by
    /// the lhs class roots.
    Hashed(usize),
}

/// Chases `tableau` with `fds` using the indexed, worklist-driven engine
/// (see the module docs) and labels the fixpoint into its weak instance:
/// the witness exit.  The leader indexes, occurrence lists, pending bits,
/// dirty-row queue, interning map and key scratch live in `scratch` and are
/// cleared — not reallocated — between runs; pass
/// `&mut ChaseScratch::default()` for a one-off chase.
pub fn chase_tableau_with(
    tableau: &Tableau,
    fds: &[Fd],
    scratch: &mut ChaseScratch,
) -> ChaseOutcome {
    let (verdict, mut uf) = chase_worklist(tableau, fds, scratch);
    if !verdict.consistent {
        return ChaseOutcome::inconsistent(verdict.steps, 1, verdict.row_visits);
    }
    let weak = scratch.label(tableau, &mut uf);
    ChaseOutcome::fixpoint(verdict.steps, 1, verdict.row_visits, weak)
}

/// The verdict exit of the indexed engine: the same fixpoint loop as
/// [`chase_tableau_with`], with the same `steps` and `row_visits`, but
/// nothing is labelled and no weak instance is built.
pub fn chase_tableau_verdict(
    tableau: &Tableau,
    fds: &[Fd],
    scratch: &mut ChaseScratch,
) -> ChaseVerdict {
    chase_worklist(tableau, fds, scratch).0
}

/// The worklist fixpoint both exits share.  Returns the verdict and the
/// union-find over the classes in `scratch`, which [`ChaseScratch::label`]
/// reads at a fixpoint; after a clash the loop stops at once.
fn chase_worklist(
    tableau: &Tableau,
    fds: &[Fd],
    scratch: &mut ChaseScratch,
) -> (ChaseVerdict, UnionFind) {
    let num_rows = tableau.num_rows();
    let width = tableau.attrs().len();
    let fd_columns = active_fd_columns(tableau, fds);
    let words = fd_columns.len().div_ceil(64);
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
    scratch.intern(tableau);

    // Which FDs each column feeds; every FD pending on every row except
    // those keyed on one of the row's padding columns, once per run.
    scratch.lhs_fds.resize(width * words, 0);
    for (k, (lhs_cols, _)) in fd_columns.iter().enumerate() {
        for &c in lhs_cols {
            scratch.lhs_fds[c * words + k / 64] |= 1 << (k % 64);
        }
    }
    let all_fds = |w: usize| match fd_columns.len() - 64 * w {
        n if n >= 64 => !0u64,
        n => (1u64 << n) - 1,
    };
    let mut seed: Vec<u64> = Vec::with_capacity(words);
    let mut r = 0;
    for segment in tableau.segments() {
        seed.clear();
        seed.extend((0..words).map(all_fds));
        for &c in &segment.padding {
            for (bits, &fds) in seed.iter_mut().zip(&scratch.lhs_fds[c * words..]) {
                *bits &= !fds;
            }
        }
        let any = seed.iter().any(|&bits| bits != 0);
        for _ in 0..segment.rows {
            scratch.pending.extend_from_slice(&seed);
            if any {
                scratch.queued[r] = true;
                scratch.queue.push_back(r as u32);
            }
            r += 1;
        }
    }

    let num_symbols = scratch.rep.len();
    scratch.slots.clear();
    scratch.slots.resize(dense * num_symbols, NONE);
    let mut uf = UnionFind::new(num_symbols);

    let mut steps = 0usize;
    let mut row_visits = 0usize;

    while let Some(row) = scratch.queue.pop_front() {
        let r = row as usize;
        scratch.queued[r] = false;
        // Visit the pending FDs in ascending order, clearing each bit first:
        // a merge during the visits sets bits again and re-queues the row.
        let mut from = 0;
        while let Some(k) = next_pending(&scratch.pending[r * words..(r + 1) * words], from) {
            scratch.pending[r * words + k / 64] &= !(1 << (k % 64));
            from = k + 1;
            let (lhs_cols, rhs_cols) = &fd_columns[k];
            let cells = &scratch.cells[r * width..(r + 1) * width];
            let leader = match leader_index[k] {
                // A slot under a root that has since lost a merge is never
                // read again (`find` only returns roots), so merges leave
                // stale slots behind instead of clearing them.  A lone lhs
                // cell never has this FD pending: its bit is set only once
                // a merge gives the cell a class.
                LeaderIndex::Dense(d) => {
                    row_visits += 1;
                    debug_assert_ne!(cells[lhs_cols[0]], LONE);
                    let root = uf.find(cells[lhs_cols[0]] as usize);
                    let slot = &mut scratch.slots[root * dense + d];
                    if *slot == NONE {
                        *slot = row;
                        continue;
                    }
                    *slot
                }
                LeaderIndex::Hashed(h) => {
                    // A key holding a lone cell matches no other row's, and
                    // the pair comes back once that cell gets a class: skip
                    // it without counting a visit.
                    if lhs_cols.iter().any(|&c| cells[c] == LONE) {
                        continue;
                    }
                    row_visits += 1;
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
                let a = (leader as usize * width + c) as u32;
                let b = (r * width + c) as u32;
                match scratch.merge_cells(&mut uf, tableau.cells(), (width, words, dense), a, b) {
                    Merge::Same => {}
                    Merge::Clash => {
                        let verdict = ChaseVerdict {
                            consistent: false,
                            steps,
                            row_visits,
                        };
                        return (verdict, uf);
                    }
                    Merge::Merged => steps += 1,
                }
            }
        }
    }

    let verdict = ChaseVerdict {
        consistent: true,
        steps,
        row_visits,
    };
    (verdict, uf)
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

/// The verdict exit of [`chase_fds_over_with`]: pads the same tableau and
/// runs the same fixpoint loop, but stops at the verdict
/// ([`chase_tableau_verdict`]).  The padding nulls drawn from `nulls` live
/// only in the tableau, which is dropped on return, so a caller that draws
/// them from a detached source keeps none.
pub fn chase_verdict_over(
    db: &Database,
    attrs: &AttrSet,
    fds: &[Fd],
    nulls: &mut impl NullSource,
    scratch: &mut ChaseScratch,
) -> ChaseVerdict {
    let tableau = Tableau::from_database(db, attrs, nulls);
    chase_tableau_verdict(&tableau, fds, scratch)
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

    /// Chases one tableau of `db` with both engines (see [`chase_rows`]).
    fn chase(db: &Database, fds: &[Fd], symbols: &mut SymbolTable) -> ChaseOutcome {
        let tableau = Tableau::from_database(db, &db.all_attributes(), symbols);
        chase_rows(&tableau, fds, symbols)
    }

    /// Chases `tableau` with both engines, which must agree: same verdict,
    /// same chased rows up to null renaming (the FD chase is confluent).
    /// Returns the indexed engine's outcome.  No relation between their
    /// `row_visits` is asserted here — the worklist engine wins on
    /// propagation-heavy workloads but can lose on tiny ones, where
    /// re-queues outnumber the naive engine's few global rounds.
    fn chase_rows(tableau: &Tableau, fds: &[Fd], symbols: &SymbolTable) -> ChaseOutcome {
        let indexed = chase_tableau_with(tableau, fds, &mut ChaseScratch::default());
        let naive = chase_tableau_naive(tableau, fds);
        assert_eq!(indexed.consistent, naive.consistent);
        match (&indexed.rows(), &naive.rows()) {
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
        assert!(outcome.rows().is_none());
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
        // Tableau over X, A, B, C, D, where `_` is a lone null:
        //   row 0 = (x, n0, b1, c, _ ),  row 1 = (x, n2, _, c, d1),
        //   row 2 = (y, n2, _,  _, _ ),  row 3 = (z, n0, _, _, _ ).
        // Rows 2 and 3 make both A nulls occur twice, so they get classes.
        // Row 1 first claims the dense A → B slot under its own root n2;
        // X → A then merges n2 into n0, leaving that slot stale, and
        // re-queues rows 1 and 2, whose next A → B visits meet row 0 under
        // n0 (equating B with b1), while the two-column AC → D key of row 1
        // now hits row 0 in the hash index (equating D with d1).  Rows 2 and
        // 3 never examine AC → D: their C cells stay lone.
        let [x, a, b, c, d] = ["X", "A", "B", "C", "D"].map(|n| f.universe.attr(n));
        let attrs: AttrSet = [x, a, b, c, d].into_iter().collect();
        let [sx, b1, sc, d1, sy, sz] =
            ["x", "b1", "c", "d1", "y", "z"].map(|n| f.symbols.symbol(n));
        let (n0, n2) = (f.symbols.fresh(), f.symbols.fresh());
        let mut lone = || f.symbols.fresh();
        let rows = vec![
            vec![sx, n0, b1, sc, lone()],
            vec![sx, n2, lone(), sc, d1],
            vec![sy, n2, lone(), lone(), lone()],
            vec![sz, n0, lone(), lone(), lone()],
        ];
        let tableau = Tableau::from_rows(attrs, rows);
        let fds = vec![fd(&[a], &[b]), fd(&[x], &[a]), fd(&[a, c], &[d])];
        let outcome = chase_rows(&tableau, &fds, &f.symbols);
        assert!(outcome.consistent);
        // 3 + 3 first visits on rows 0 and 1, 2 + 2 on rows 2 and 3 (their
        // AC → D is skipped), and A → B again on row 1 (its AC → D bit, set
        // by the merge, was consumed by the visit that followed it).
        assert_eq!((outcome.steps, outcome.row_visits), (5, 11));
        let rows = outcome.rows().unwrap();
        let [px, pa, pb, pc, pd] = [x, a, b, c, d].map(|attr| tableau.position(attr).unwrap());
        assert_eq!(rows[0][pa], rows[1][pa]);
        assert_eq!(f.symbols.render(rows[1][pb]), "b1");
        assert_eq!(f.symbols.render(rows[0][pd]), "d1");
        // A lone cell no merge reached keeps its own symbol.
        assert_eq!(rows[2][pc], tableau.row(2)[pc]);
        // The A → B slots (the first of each root's two) still hold both
        // leaders, one under a root that lost the merge; only the
        // two-column FD used a hash index.
        let mut scratch = ChaseScratch::default();
        chase_tableau_with(&tableau, &fds, &mut scratch);
        let n = scratch.rep.len();
        let leaders = (0..n).filter(|&r| scratch.slots[2 * r] != NONE).count();
        assert_eq!(leaders, 2);
        assert_eq!(scratch.slots.len(), 2 * n);
        assert_eq!(scratch.indexes.len(), 1);
        // Flat cells; the six constants and the two shared nulls are
        // hashed and got ids, the once-used nulls were never interned.
        let width = tableau.attrs().len();
        assert_eq!(scratch.cells.len(), 4 * width);
        assert_eq!(scratch.local.len(), 8);
        assert_eq!(n, 8);
        assert_eq!(scratch.cells[2 * width + pc], LONE);
        // Column A feeds A → B and AC → D, column X feeds X → A.
        assert_eq!(scratch.lhs_fds[pa], 0b101);
        assert_eq!(scratch.lhs_fds[px], 0b010);
        assert_eq!(scratch.lhs_fds[pb], 0);
        // X → A merged row 1's null into row 0's: the winner's occurrence
        // list now runs through all four A cells, winner's first, and the
        // loser's list is its spliced-on suffix.  Row 0's lone D cell
        // adopted d1's class and joined its list.
        let walk = |cell: usize| {
            let mut out = Vec::new();
            let mut cell = scratch.head[scratch.cells[cell] as usize];
            while cell != NONE {
                out.push(cell as usize);
                cell = scratch.next[cell as usize];
            }
            out
        };
        let [a0, a1, a2, a3] = [0, 1, 2, 3].map(|r| r * width + pa);
        assert_eq!(walk(a0), vec![a0, a3, a1, a2]);
        assert_eq!(walk(a1), vec![a1, a2]);
        assert_eq!(walk(width + pd), vec![width + pd, pd]);
        // Every pending FD bit was consumed.
        assert!(scratch.pending.iter().all(|&bits| bits == 0));
    }

    #[test]
    fn lone_cells_get_a_class_only_when_a_merge_reaches_them() {
        // Tableau over A, B, C from R1[A] = (a), R2[A] = (a), R3[AC] =
        // (a, c); every null is lone.  FDs B → C, A → B.  Only A → B is
        // pending at first (B → C is keyed on lone cells).  Row 1's A → B
        // pairs its lone B null with row 0's into a new class and marks
        // both; row 2's lone B null then adopts that class and is marked.
        // Row 0 claims the B → C slot, so row 1 pairs the C nulls and row
        // 2 finds row 0 as its leader and brings in c: 3 + 3 visits.
        // Marking only row 1's cell leaves row 0's C null apart; not
        // marking the adopting cell leaves c out — both disagree with the
        // full-rescan engine.
        let mut f = fixture();
        let [a, b, c] = ["A", "B", "C"].map(|n| f.universe.attr(n));
        let db = DatabaseBuilder::new()
            .relation(&mut f.universe, &mut f.symbols, "R1", &["A"], &[&["a"]])
            .unwrap()
            .relation(&mut f.universe, &mut f.symbols, "R2", &["A"], &[&["a"]])
            .unwrap()
            .relation(
                &mut f.universe,
                &mut f.symbols,
                "R3",
                &["A", "C"],
                &[&["a", "c"]],
            )
            .unwrap()
            .relation(&mut f.universe, &mut f.symbols, "RB", &["B"], &[])
            .unwrap()
            .build();
        let fds = vec![fd(&[b], &[c]), fd(&[a], &[b])];
        let outcome = chase(&db, &fds, &mut f.symbols);
        assert!(outcome.consistent);
        assert_eq!((outcome.steps, outcome.row_visits), (4, 6));
        let rows = outcome.rows().unwrap();
        assert!(rows
            .iter()
            .all(|row| row[1] == rows[0][1] && row[1].is_null()));
        assert!(rows.iter().all(|row| f.symbols.render(row[2]) == "c"));
        // Two classes were pushed (the B nulls, the C nulls) beside the
        // interned a and c, each with its two root-major leader slots.
        let tableau = Tableau::from_database(&db, &db.all_attributes(), &mut f.symbols);
        let mut scratch = ChaseScratch::default();
        chase_tableau_with(&tableau, &fds, &mut scratch);
        assert_eq!(scratch.rep.len(), 4);
        assert_eq!(scratch.slots.len(), 4 * 2);
        assert!(scratch.cells.iter().all(|&id| id != LONE));
    }

    #[test]
    fn once_used_nulls_are_lone_however_far_apart() {
        // Tableau over A, B, C, with every null minted a thousand indices
        // after the one before: row 0 = (a, b, n0), row 1 = (a, n1, c),
        // row 2 = (n2, n3, c2).  Each null occurs once, so each is lone.
        // Row 2 has no FD pending (both lhs columns are lone), row 1 only
        // A → B.  Row 0 claims both slots; row 1's A → B gives n1 b's class
        // and brings row 1 back for B → C, which gives row 0's n0 c's
        // class: 2 merges in 4 visits.  Hashing these nulls instead would
        // give each a class, visit row 2 as well and take 6 visits.
        let mut f = fixture();
        let [a, b, c] = ["A", "B", "C"].map(|n| f.universe.attr(n));
        let attrs: AttrSet = [a, b, c].into_iter().collect();
        let [sa, sb, sc, sc2] = ["a", "b", "c", "c2"].map(|n| f.symbols.symbol(n));
        let mut spaced = || {
            let null = f.symbols.fresh();
            f.symbols.fresh_block(999);
            null
        };
        let [n0, n1, n2, n3] = [(); 4].map(|()| spaced());
        let tableau = Tableau::from_rows(
            attrs,
            vec![vec![sa, sb, n0], vec![sa, n1, sc], vec![n2, n3, sc2]],
        );
        let fds = vec![fd(&[a], &[b]), fd(&[b], &[c])];
        let outcome = chase_rows(&tableau, &fds, &f.symbols);
        assert!(outcome.consistent);
        assert_eq!((outcome.steps, outcome.row_visits), (2, 4));
        let rows = outcome.rows().unwrap();
        assert_eq!(rows[0], vec![sa, sb, sc]);
        assert_eq!(rows[1], vec![sa, sb, sc]);
        assert_eq!(rows[2], vec![n2, n3, sc2]);
    }

    #[test]
    fn merges_re_examine_only_the_fds_whose_lhs_moved() {
        // Tableau over A, B, C: row 0 = (a, b1, _), row 1 = (a, _, c).
        // Row 0's C null is lone, so its C → A pair is never pending.  Row
        // 1's A → B visit merges its B null into b1.  No lhs contains B, so
        // nothing is re-queued: three first visits are all the work
        // (re-examining every FD of a re-queued row would make it 5).
        let mut f = fixture();
        let db = DatabaseBuilder::new()
            .relation(
                &mut f.universe,
                &mut f.symbols,
                "R1",
                &["A", "B"],
                &[&["a", "b1"]],
            )
            .unwrap()
            .relation(
                &mut f.universe,
                &mut f.symbols,
                "R2",
                &["A", "C"],
                &[&["a", "c"]],
            )
            .unwrap()
            .build();
        let [a, b, c] = ["A", "B", "C"].map(|n| f.universe.attr(n));
        let outcome = chase(&db, &[fd(&[a], &[b]), fd(&[c], &[a])], &mut f.symbols);
        assert!(outcome.consistent);
        assert_eq!(outcome.steps, 1);
        assert_eq!(outcome.row_visits, 3);

        // Tableau over A, B, C, D: row 0 = (a, b1, c1, _), row 1 =
        // (a, _, _, d), FDs B → C, A → B, D → C.  Lone cells leave row 0
        // without D → C and row 1 without B → C.  Row 1's A → B visit gives
        // its B null b1's class; column B feeds only B → C, so row 1 comes
        // back for that one FD (which equates C with c1, a column no lhs
        // contains): 2 + 2 + 1 visits, where re-examining whole rows would
        // take 9.
        let mut f = fixture();
        let db = DatabaseBuilder::new()
            .relation(
                &mut f.universe,
                &mut f.symbols,
                "R1",
                &["A", "B", "C"],
                &[&["a", "b1", "c1"]],
            )
            .unwrap()
            .relation(
                &mut f.universe,
                &mut f.symbols,
                "R2",
                &["A", "D"],
                &[&["a", "d"]],
            )
            .unwrap()
            .build();
        let [a, b, c, d] = ["A", "B", "C", "D"].map(|n| f.universe.attr(n));
        let fds = vec![fd(&[b], &[c]), fd(&[a], &[b]), fd(&[d], &[c])];
        let outcome = chase(&db, &fds, &mut f.symbols);
        assert!(outcome.consistent);
        assert_eq!(outcome.steps, 2);
        assert_eq!(outcome.row_visits, 5);

        // Behind 64 trivial FDs the bit that brings row 1 back lies in the
        // second pending word: 2 × 66 + 1 visits.
        let mut padded = vec![fd(&[a], &[a]); 64];
        padded.extend(fds);
        let outcome = chase(&db, &padded, &mut f.symbols);
        assert!(outcome.consistent);
        assert_eq!(outcome.steps, 2);
        assert_eq!(outcome.row_visits, 133);
    }

    #[test]
    fn equal_chased_rows_are_kept_once() {
        // R1[AB] = (a, b) and R2[AB] = {(a, b), (a2, b)}: the first two
        // tableau rows are the same all-constant row.  The weak instance
        // keeps it once, and `rows()` still reports one row per tableau row.
        let mut f = fixture();
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
                &["A", "B"],
                &[&["a", "b"], &["a2", "b"]],
            )
            .unwrap()
            .build();
        let [a, b] = ["A", "B"].map(|n| f.universe.lookup(n).unwrap());
        let outcome = chase(&db, &[fd(&[a], &[b])], &mut f.symbols);
        let rows = outcome.rows().unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], rows[1]);
        let weak = outcome.weak.as_ref().unwrap();
        assert_eq!(weak.len(), 2);
        assert_eq!((weak.codes(0), weak.codes(1)), (&[0, 1][..], &[0, 0][..]));
        assert_eq!(weak.row_values(0), rows[0]);
        assert_eq!(weak.row_values(1), rows[2]);
        let w = outcome.weak_instance("W", &db.all_attributes()).unwrap();
        assert_eq!(w.len(), 2);
        // The codes name each column's symbols in first-occurrence order.
        let [sa, sa2, sb] = ["a", "a2", "b"].map(|n| f.symbols.lookup(n).unwrap());
        assert_eq!((w.codes(0), w.codes(1)), (&[0, 1][..], &[0, 0][..]));
        assert_eq!(
            (w.dictionary(0), w.dictionary(1)),
            (&[sa, sa2][..], &[sb][..])
        );
        assert_eq!(w.scheme().name(), "W");
    }

    #[test]
    fn a_row_with_a_lone_cell_is_never_dropped() {
        // Tableau over A, B from R1[A] = (a) and R2[A] = (a): rows (a, n1)
        // and (a, n2) with lone B nulls.  With no FD they agree on A only
        // and both stay; with A → B the two nulls pair up into one class,
        // the rows become equal, and the second is dropped.
        let mut f = fixture();
        let b = f.universe.attr("B");
        let db = DatabaseBuilder::new()
            .relation(&mut f.universe, &mut f.symbols, "R1", &["A"], &[&["a"]])
            .unwrap()
            .relation(&mut f.universe, &mut f.symbols, "R2", &["A"], &[&["a"]])
            .unwrap()
            .build();
        let a = f.universe.lookup("A").unwrap();
        let attrs: AttrSet = [a, b].into_iter().collect();
        let tableau = Tableau::from_database(&db, &attrs, &mut f.symbols);
        let mut scratch = ChaseScratch::default();
        let apart = chase_rows(&tableau, &[], &f.symbols);
        chase_tableau_with(&tableau, &[], &mut scratch);
        assert!(scratch.lone_rows.iter().all(|&lone| lone));
        assert_eq!(apart.weak.as_ref().unwrap().len(), 2);
        let weak = apart.weak.as_ref().unwrap();
        assert_eq!(weak.codes(weak.scheme().position(b).unwrap()), &[0, 1]);
        assert_eq!(weak.codes(weak.scheme().position(a).unwrap()), &[0, 0]);
        let merged = chase_rows(&tableau, &[fd(&[a], &[b])], &f.symbols);
        assert_eq!(merged.weak.as_ref().unwrap().len(), 1);
        assert_eq!(merged.rows().unwrap().len(), 2);
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
