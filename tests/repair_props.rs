//! Differential tests for the Lemma 12.1 repair: the incremental
//! `repair_sum_violations` against its pinned reference
//! `repair_sum_violations_naive`, which rescans the relation every round.
//!
//! Both must insert the same bridging rows in the same order, mint the same
//! nulls and report the same convergence, including on runs cut short by
//! `max_rounds`.

mod common;

use common::World;
use partition_semantics::base::FreshSymbols;
use partition_semantics::core::consistency::{
    relation_satisfies_sum_constraint, relation_satisfies_sum_constraints, repair_sum_violations,
    repair_sum_violations_naive, SumConstraint,
};
use partition_semantics::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One generated repair problem: a relation, its FDs and sums.
struct Case {
    world: World,
    relation: Relation,
    fds: Vec<Fd>,
    sums: Vec<SumConstraint>,
}

/// A relation over five attributes: `T0`, `T1` draw from two symbols (so
/// `C` groups are shared) and `S0`–`S2` from `domain` symbols (so chains
/// break).  `sums` random sum constraints `T ≤ S + S'` (one in eight has its
/// target outside the scheme, which makes it vacuous, and one in four takes
/// its target among the `S` columns) and `fds` random FDs over all five
/// attributes, so the `A⁺` / `B⁺` of different sums overlap.
fn case(seed: u64, rows: usize, domain: usize, sums: usize, fds: usize) -> Case {
    let mut world = World::new();
    let names = ["T0", "T1", "S0", "S1", "S2"];
    let attrs: Vec<Attribute> = names.iter().map(|n| world.universe.attr(n)).collect();
    let outside = world.universe.attr("Z");
    let mut rng = StdRng::seed_from_u64(seed);
    let scheme = RelationScheme::new("R", attrs.clone());
    let mut relation = Relation::new(scheme.clone());
    for _ in 0..rows {
        let mut values = vec![Symbol::from_index(0); attrs.len()];
        for (col, (&attr, name)) in attrs.iter().zip(names).enumerate() {
            let v = rng.gen_range(0..if col < 2 { 2 } else { domain });
            values[scheme.position(attr).expect("attr in scheme")] =
                world.symbols.symbol(&format!("{name}_{v}"));
        }
        relation.insert_values(&values).expect("arity matches");
    }
    let sums = (0..sums)
        .map(|_| {
            let mut summands: Vec<Attribute> = Vec::new();
            while summands.len() < 2 {
                let a = attrs[rng.gen_range(2..attrs.len())];
                if !summands.contains(&a) {
                    summands.push(a);
                }
            }
            let target = match rng.gen_range(0..8usize) {
                0 => outside,
                1 | 2 => *attrs[2..]
                    .iter()
                    .find(|a| !summands.contains(a))
                    .expect("three S columns, two summands"),
                _ => attrs[rng.gen_range(0..2usize)],
            };
            SumConstraint {
                target,
                left: summands[0],
                right: summands[1],
            }
        })
        .collect();
    let fds = common::random_fds(&attrs, fds, seed ^ 0xFD);
    Case {
        world,
        relation,
        fds,
        sums,
    }
}

/// Runs both repairs from equal-state null sources and asserts they agree
/// row for row; returns `(bridges, converged)`.
fn assert_repairs_agree(case: &Case, max_rounds: usize, label: &str) -> (usize, bool) {
    let mut fast_nulls: FreshSymbols = case.world.symbols.fresh_source();
    let mut naive_nulls: FreshSymbols = case.world.symbols.fresh_source();
    let (fast, fast_converged) = repair_sum_violations(
        &case.relation,
        &case.fds,
        &case.sums,
        &mut fast_nulls,
        max_rounds,
    );
    let (naive, naive_converged) = repair_sum_violations_naive(
        &case.relation,
        &case.fds,
        &case.sums,
        &mut naive_nulls,
        max_rounds,
    );
    assert_eq!(fast, naive, "{label}: bridging rows or their order differ");
    assert_eq!(fast_converged, naive_converged, "{label}: convergence");
    assert_eq!(
        fast_nulls.fresh(),
        naive_nulls.fresh(),
        "{label}: the two repairs minted different numbers of nulls"
    );
    assert_eq!(
        fast_converged,
        relation_satisfies_sum_constraints(&fast, &case.sums),
        "{label}: the flag must say whether every sum holds"
    );
    (fast.len() - case.relation.len(), fast_converged)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random relations with 1–3 sums, random FDs and a round cap drawn
    /// from `0..=rows + 2`: identical rows, order, nulls and flag.
    #[test]
    fn prop_incremental_repair_matches_the_naive_reference(
        seed in 0u64..100_000,
        rows in 1usize..12,
        domain in 2usize..7,
        sums in 1usize..4,
        fds in 0usize..5,
        cap in 0usize..=13,
    ) {
        let case = case(seed, rows, domain, sums, fds);
        let max_rounds = cap % (rows + 3);
        assert_repairs_agree(&case, max_rounds, &format!("seed {seed}, cap {max_rounds}"));
    }
}

/// The generator above reaches the cases that matter: repairs that bridge,
/// repairs cut short by the cap, and relations violating two sums at once.
/// The same differential check runs on each.
#[test]
fn differential_cases_cover_bridging_capping_and_several_sums() {
    let (mut bridged, mut capped, mut multi_sum) = (0, 0, 0);
    for seed in 0..300u64 {
        let rows = 3 + (seed % 9) as usize;
        let sums = 1 + (seed % 3) as usize;
        let case = case(
            seed,
            rows,
            2 + (seed % 5) as usize,
            sums,
            (seed % 5) as usize,
        );
        let violated = case
            .sums
            .iter()
            .filter(|&&sum| !relation_satisfies_sum_constraint(&case.relation, sum))
            .count();
        multi_sum += usize::from(violated > 1);
        for max_rounds in [0, rows / 2, rows + 2, 4 * rows] {
            let (bridges, converged) =
                assert_repairs_agree(&case, max_rounds, &format!("seed {seed}"));
            bridged += usize::from(bridges > 0);
            capped += usize::from(!converged);
        }
    }
    assert!(bridged > 250, "only {bridged} runs inserted a bridge");
    assert!(capped > 100, "only {capped} runs were cut short by the cap");
    assert!(
        multi_sum > 30,
        "only {multi_sum} relations violate two sums"
    );
}
