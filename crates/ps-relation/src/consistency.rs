//! Consistency of a database with a set of FDs.
//!
//! Two notions from the paper:
//!
//! * **open-world / weak-instance consistency** (Sections 2.1, 4.3, 6.2):
//!   is there *some* weak instance for `d` satisfying the FDs?  Decidable in
//!   polynomial time by the chase ([`weak_instance_consistent`]).
//! * **complete-atomic-data (CAD) consistency** (Section 6.1): is there a
//!   weak instance `w` satisfying the FDs with `w[A] = d[A]` for every
//!   attribute — i.e. using *only* symbols already present in the database?
//!   Theorem 11 shows this is NP-complete; [`cad_consistent`] is an exact
//!   backtracking solver (with FD-violation pruning) intended for the small
//!   instances produced by the Theorem 11 reduction and the benchmarks.

use ps_base::{Attribute, Symbol, SymbolTable};

use crate::{chase, ChaseScratch, Database, Fd, Relation, RelationScheme};

/// Whether `db` is consistent with `fds` under the weak instance assumption
/// (Honeyman's polynomial test), through the chase's verdict exit.  The
/// padding nulls come from a detached [`SymbolTable::fresh_source`] that is
/// dropped, so the table's null cursor does not move.
pub fn weak_instance_consistent(db: &Database, fds: &[Fd], symbols: &SymbolTable) -> bool {
    let attrs = db.all_attributes();
    let mut nulls = symbols.fresh_source();
    chase::chase_verdict_over(db, &attrs, fds, &mut nulls, &mut ChaseScratch::default()).consistent
}

/// Statistics returned by the CAD solver alongside its verdict.
#[derive(Debug, Clone, Default)]
pub struct CadSearchStats {
    /// Number of cell assignments tried.
    pub assignments: usize,
    /// Number of backtracks.
    pub backtracks: usize,
}

/// The result of a CAD-consistency search.
#[derive(Debug, Clone)]
pub struct CadOutcome {
    /// Whether a CAD-respecting weak instance exists.
    pub consistent: bool,
    /// The completed weak instance, when one exists and the attribute
    /// universe is non-empty.
    pub witness: Option<Relation>,
    /// Search statistics.
    pub stats: CadSearchStats,
}

impl CadOutcome {
    /// Whether a CAD-respecting weak instance exists.
    pub fn is_consistent(&self) -> bool {
        self.consistent
    }
}

/// Decides whether there is a weak instance `w` for `db` satisfying `fds`
/// with `w[A] = d[A]` for every attribute `A` (consistency under CAD and
/// EAP, Theorem 6b / Theorem 11).
///
/// As in the paper's NP-membership argument, it suffices to look for a weak
/// instance with exactly one row per database tuple whose free cells take
/// values from the corresponding active domains `d[A]`.
pub fn cad_consistent(db: &Database, fds: &[Fd]) -> CadOutcome {
    let attrs = db.all_attributes();
    let columns: Vec<Attribute> = attrs.iter().collect();

    // Active domains per column; if a column has an empty active domain and
    // there is at least one row, no CAD weak instance can exist.
    let domains: Vec<Vec<Symbol>> = columns.iter().map(|&a| db.active_domain(a)).collect();

    // Build the partially filled table: one row per database tuple.
    let mut rows: Vec<Vec<Option<Symbol>>> = Vec::new();
    for relation in db.relations() {
        for tuple in relation.iter() {
            let row: Vec<Option<Symbol>> = columns
                .iter()
                .map(|&a| relation.scheme().position(a).map(|p| tuple.value_at(p)))
                .collect();
            rows.push(row);
        }
    }

    let mut stats = CadSearchStats::default();

    if rows.is_empty() {
        // The empty weak instance works (and trivially has w[A] = d[A] = ∅).
        let witness = if attrs.is_empty() {
            None
        } else {
            Some(Relation::new(RelationScheme::new(
                "cad_weak_instance",
                attrs.clone(),
            )))
        };
        return CadOutcome {
            consistent: true,
            witness,
            stats,
        };
    }
    if domains.iter().any(Vec::is_empty) {
        return CadOutcome {
            consistent: false,
            witness: None,
            stats,
        };
    }

    // Column indices of each FD, for the violation check.
    let fd_cols: Vec<(Vec<usize>, Vec<usize>)> = fds
        .iter()
        .map(|fd| {
            (
                fd.lhs
                    .iter()
                    .filter_map(|a| columns.iter().position(|&c| c == a))
                    .collect(),
                fd.rhs
                    .iter()
                    .filter_map(|a| columns.iter().position(|&c| c == a))
                    .collect(),
            )
        })
        .collect();

    // The free cells, row-major.
    let free_cells: Vec<(usize, usize)> = rows
        .iter()
        .enumerate()
        .flat_map(|(r, row)| {
            row.iter()
                .enumerate()
                .filter(|(_, v)| v.is_none())
                .map(move |(c, _)| (r, c))
                .collect::<Vec<_>>()
        })
        .collect();

    let found = fill(
        &mut rows,
        &free_cells,
        0,
        &domains,
        &fd_cols,
        fds,
        &mut stats,
    );

    let witness = if found {
        let scheme = RelationScheme::new("cad_weak_instance", attrs.clone());
        let mut w = Relation::new(scheme);
        for row in &rows {
            let values: Vec<Symbol> = row.iter().map(|v| v.expect("search completed")).collect();
            w.insert_values(&values).expect("row matches scheme arity");
        }
        Some(w)
    } else {
        None
    };
    CadOutcome {
        consistent: found,
        witness,
        stats,
    }
}

/// Checks whether the partially filled `rows` contain a definite violation of
/// some FD: two rows fully agreeing on the (all-assigned) lhs columns while
/// disagreeing on some mutually assigned rhs column.
fn has_definite_violation(
    rows: &[Vec<Option<Symbol>>],
    fd_cols: &[(Vec<usize>, Vec<usize>)],
    fds: &[Fd],
) -> bool {
    for (idx, (lhs, rhs)) in fd_cols.iter().enumerate() {
        // FDs whose lhs mentions attributes outside the universe cannot fire.
        if lhs.len() != fds[idx].lhs.len() {
            continue;
        }
        for i in 0..rows.len() {
            for j in (i + 1)..rows.len() {
                let agree_on_lhs = lhs
                    .iter()
                    .all(|&c| matches!((rows[i][c], rows[j][c]), (Some(a), Some(b)) if a == b));
                if !agree_on_lhs {
                    continue;
                }
                let disagree_on_rhs = rhs
                    .iter()
                    .any(|&c| matches!((rows[i][c], rows[j][c]), (Some(a), Some(b)) if a != b));
                if disagree_on_rhs {
                    return true;
                }
            }
        }
    }
    false
}

#[allow(clippy::too_many_arguments)]
fn fill(
    rows: &mut Vec<Vec<Option<Symbol>>>,
    free_cells: &[(usize, usize)],
    next: usize,
    domains: &[Vec<Symbol>],
    fd_cols: &[(Vec<usize>, Vec<usize>)],
    fds: &[Fd],
    stats: &mut CadSearchStats,
) -> bool {
    if has_definite_violation(rows, fd_cols, fds) {
        return false;
    }
    if next == free_cells.len() {
        return true;
    }
    let (r, c) = free_cells[next];
    for &candidate in &domains[c] {
        stats.assignments += 1;
        rows[r][c] = Some(candidate);
        if fill(rows, free_cells, next + 1, domains, fd_cols, fds, stats) {
            return true;
        }
        stats.backtracks += 1;
    }
    rows[r][c] = None;
    false
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

    #[test]
    fn weak_instance_consistency_matches_chase() {
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
        let a = f.universe.lookup("A").unwrap();
        let b = f.universe.lookup("B").unwrap();
        assert!(!weak_instance_consistent(
            &db,
            &[fd(&[a], &[b])],
            &f.symbols
        ));
        assert!(weak_instance_consistent(&db, &[fd(&[b], &[a])], &f.symbols));
    }

    #[test]
    fn weak_instance_consistency_leaves_the_null_cursor_alone() {
        let mut f = fixture();
        // R1[AB] and R2[BC] pad each other's missing column with nulls.
        let db = DatabaseBuilder::new()
            .relation(
                &mut f.universe,
                &mut f.symbols,
                "R1",
                &["A", "B"],
                &[&["a", "b1"], &["a", "b2"]],
            )
            .unwrap()
            .relation(
                &mut f.universe,
                &mut f.symbols,
                "R2",
                &["B", "C"],
                &[&["b1", "c1"], &["b2", "c2"]],
            )
            .unwrap()
            .build();
        let [a, b, c] = ["A", "B", "C"].map(|n| f.universe.lookup(n).unwrap());
        let attrs = db.all_attributes();
        for (fds, consistent) in [(vec![fd(&[a], &[b])], false), (vec![fd(&[b], &[c])], true)] {
            let before = f.symbols.num_fresh();
            assert_eq!(weak_instance_consistent(&db, &fds, &f.symbols), consistent);
            assert_eq!(f.symbols.num_fresh(), before);
            // Padding from the table itself gives the same verdict but
            // moves its cursor.
            let mut own = f.symbols.clone();
            let verdict = chase::chase_verdict_over(
                &db,
                &attrs,
                &fds,
                &mut own,
                &mut ChaseScratch::default(),
            );
            assert_eq!(verdict.consistent, consistent);
            assert!(own.num_fresh() > before);
        }
    }

    #[test]
    fn cad_consistent_when_open_world_is_but_values_align() {
        let mut f = fixture();
        // R1[AB]: (a,b); R2[BC]: (b,c).  FD B→C. The free C cell of the R1 row
        // can be filled with the existing constant c.
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
            .build();
        let b = f.universe.lookup("B").unwrap();
        let c = f.universe.lookup("C").unwrap();
        let outcome = cad_consistent(&db, &[fd(&[b], &[c])]);
        assert!(outcome.is_consistent());
        let w = outcome.witness.unwrap();
        assert!(db.has_weak_instance(&w));
        assert!(w.satisfies_fd(&fd(&[b], &[c])));
        // CAD: the witness only uses symbols from the database.
        for attr in db.all_attributes().iter() {
            let w_dom = w.active_domain(attr).unwrap();
            let d_dom = db.active_domain(attr);
            assert!(w_dom.iter().all(|s| d_dom.contains(s)));
            assert!(d_dom.iter().all(|s| w_dom.contains(s)));
        }
    }

    #[test]
    fn cad_inconsistent_when_domains_force_a_violation() {
        let mut f = fixture();
        // R1[AB]: (a,b1), (a2,b2); R2[AC]: (a,c).  FDs: C→A and B→C, A→B.
        // Open world is fine, but under CAD the single row of R2 must take a
        // B value from {b1, b2}; A→B forces it to b1 (to agree with row (a,b1)),
        // B→C then forces row (a,b1)'s C to c, fine; but also row (a2,b2)'s C
        // must take value c (the only C value), and then C→A forces a2 = a:
        // impossible because both are fixed constants.
        let db = DatabaseBuilder::new()
            .relation(
                &mut f.universe,
                &mut f.symbols,
                "R1",
                &["A", "B"],
                &[&["a", "b1"], &["a2", "b2"]],
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
        let a = f.universe.lookup("A").unwrap();
        let b = f.universe.lookup("B").unwrap();
        let c = f.universe.lookup("C").unwrap();
        let fds = vec![fd(&[c], &[a]), fd(&[b], &[c]), fd(&[a], &[b])];
        let outcome = cad_consistent(&db, &fds);
        assert!(!outcome.is_consistent());
        assert!(outcome.stats.assignments > 0);
        // The same database is consistent in the open world: fresh nulls can
        // be used instead of forcing existing constants.
        assert!(weak_instance_consistent(&db, &fds, &f.symbols));
    }

    #[test]
    fn cad_on_single_relation_reduces_to_fd_satisfaction() {
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
        let a = f.universe.lookup("A").unwrap();
        let b = f.universe.lookup("B").unwrap();
        // A→B is violated outright: no filling can fix a complete relation.
        assert!(!cad_consistent(&db, &[fd(&[a], &[b])]).is_consistent());
        // B→A holds already.
        assert!(cad_consistent(&db, &[fd(&[b], &[a])]).is_consistent());
    }

    #[test]
    fn cad_with_empty_database_is_consistent() {
        let f = fixture();
        let db = Database::new();
        let outcome = cad_consistent(&db, &[]);
        assert!(outcome.is_consistent());
        let _ = f;
    }
}
