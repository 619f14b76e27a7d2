//! Partition interpretations (Definitions 1, 2 and 4 of the paper).

use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;

use ps_base::{Attribute, Symbol, Universe};
use ps_lattice::{Equation, TermArena, TermId, TermNode};
use ps_partition::{Element, Partition, Population};
use ps_relation::Database;

use crate::{CoreError, Result};

/// The interpretation of one attribute: its population `p_A`, its atomic
/// partition `π_A`, and the naming function `f_A` that sends a symbol to a
/// block of `π_A` (every other symbol is sent to `∅`).
///
/// `f_A` is kept as `names`, the symbol of each block; the symbol → block
/// map is built from it on the first [`AttributeInterpretation::block_of_symbol`]
/// or [`AttributeInterpretation::naming`] call, so a witness `I(w)` that is
/// only compared or evaluated never builds it.
#[derive(Debug, Clone)]
pub struct AttributeInterpretation {
    /// `π_A`, which carries the population `p_A`.
    atomic: Partition,
    /// Symbol → index of the block of `atomic` it names (the inverse of
    /// `names`), built on first use.  By Definition 1 this is a bijection
    /// between a set of symbols and the blocks.
    naming: OnceLock<BTreeMap<Symbol, usize>>,
    /// `names[block]` is the symbol naming it.
    names: Vec<Symbol>,
}

impl PartialEq for AttributeInterpretation {
    fn eq(&self, other: &Self) -> bool {
        // `naming` is the inverse of `names`; `Partition` equality compares
        // the populations.
        self.atomic == other.atomic && self.names == other.names
    }
}

impl Eq for AttributeInterpretation {}

impl AttributeInterpretation {
    /// Builds the interpretation of a single attribute from named blocks:
    /// each `(symbol, block)` pair says that `f_A(symbol)` is that block.
    ///
    /// The population is the union of the blocks; Definition 1's requirements
    /// (non-empty disjoint blocks, one distinct symbol per block) are
    /// enforced.
    pub fn from_named_blocks(
        attribute: Attribute,
        named_blocks: Vec<(Symbol, Vec<u32>)>,
    ) -> Result<Self> {
        let blocks: Vec<Vec<u32>> = named_blocks.iter().map(|(_, b)| b.clone()).collect();
        let atomic = Partition::from_blocks(blocks).map_err(CoreError::Partition)?;
        if atomic.is_empty() {
            return Err(CoreError::EmptyPopulation(attribute));
        }
        // `Partition::from_blocks` canonicalizes block order, so recover each
        // named block's canonical index by content (via any of its elements).
        let mut naming = BTreeMap::new();
        for (symbol, block) in &named_blocks {
            let representative = Element::new(*block.iter().min().ok_or(CoreError::Partition(
                ps_partition::PartitionError::EmptyBlock,
            ))?);
            let idx = atomic
                .block_index_of(representative)
                .expect("block elements are in the partition");
            if naming.insert(*symbol, idx).is_some() {
                return Err(CoreError::InvalidNaming {
                    attribute,
                    reason: format!("symbol {symbol} names two different blocks"),
                });
            }
        }
        Self::new(attribute, atomic, naming)
    }

    /// Builds the interpretation from an explicit partition and naming.
    pub fn new(
        attribute: Attribute,
        atomic: Partition,
        naming: BTreeMap<Symbol, usize>,
    ) -> Result<Self> {
        if atomic.is_empty() {
            return Err(CoreError::EmptyPopulation(attribute));
        }
        let names = Self::block_names(attribute, &atomic, &naming)?;
        Ok(AttributeInterpretation {
            atomic,
            naming: OnceLock::from(naming),
            names,
        })
    }

    /// Builds the interpretation from a partition and the symbol naming
    /// each of its blocks, in block order.  The caller guarantees that the
    /// symbols are pairwise distinct, as a column's dictionary in a
    /// [`ps_relation::Relation`] is; the count is checked.
    pub(crate) fn from_block_names(
        attribute: Attribute,
        atomic: Partition,
        names: Vec<Symbol>,
    ) -> Result<Self> {
        if atomic.is_empty() {
            return Err(CoreError::EmptyPopulation(attribute));
        }
        if names.len() != atomic.num_blocks() {
            return Err(CoreError::InvalidNaming {
                attribute,
                reason: format!("{} names for {} blocks", names.len(), atomic.num_blocks()),
            });
        }
        debug_assert_eq!(
            names.iter().collect::<std::collections::HashSet<_>>().len(),
            names.len(),
            "block names are pairwise distinct"
        );
        Ok(AttributeInterpretation {
            atomic,
            naming: OnceLock::new(),
            names,
        })
    }

    /// The symbol → block map, built from `names` on first use.
    fn naming_map(&self) -> &BTreeMap<Symbol, usize> {
        self.naming.get_or_init(|| {
            self.names
                .iter()
                .enumerate()
                .map(|(block, &symbol)| (symbol, block))
                .collect()
        })
    }

    /// Checks that every block of `atomic` is named by exactly one symbol,
    /// and returns the names indexed by block.
    fn block_names(
        attribute: Attribute,
        atomic: &Partition,
        naming: &BTreeMap<Symbol, usize>,
    ) -> Result<Vec<Symbol>> {
        let mut names: Vec<Option<Symbol>> = vec![None; atomic.num_blocks()];
        for (&symbol, &block) in naming {
            let Some(name) = names.get_mut(block) else {
                return Err(CoreError::InvalidNaming {
                    attribute,
                    reason: format!("symbol {symbol} names non-existent block {block}"),
                });
            };
            if name.replace(symbol).is_some() {
                return Err(CoreError::InvalidNaming {
                    attribute,
                    reason: format!("block {block} has more than one name"),
                });
            }
        }
        names
            .into_iter()
            .enumerate()
            .map(|(block, name)| {
                name.ok_or_else(|| CoreError::InvalidNaming {
                    attribute,
                    reason: format!("block {block} has no name"),
                })
            })
            .collect()
    }

    /// The population `p_A`.
    pub fn population(&self) -> &Population {
        self.atomic.population()
    }

    /// The atomic partition `π_A`.
    pub fn atomic(&self) -> &Partition {
        &self.atomic
    }

    /// The meaning `f_A(symbol)`: the named block, or `None` (meaning `∅`).
    pub fn block_of_symbol(&self, symbol: Symbol) -> Option<&[Element]> {
        self.naming_map()
            .get(&symbol)
            .map(|&idx| self.atomic.block(idx))
    }

    /// The symbol naming a given block index, if any.
    pub fn symbol_of_block(&self, block: usize) -> Option<Symbol> {
        self.names.get(block).copied()
    }

    /// Iterates over `(symbol, block index)` pairs of the naming function.
    pub fn naming(&self) -> impl Iterator<Item = (Symbol, usize)> + '_ {
        self.naming_map().iter().map(|(&s, &b)| (s, b))
    }
}

/// A partition interpretation `I = {(p_A, π_A, f_A) | A ∈ 𝒰}`
/// (Definition 1).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartitionInterpretation {
    attrs: BTreeMap<Attribute, AttributeInterpretation>,
}

impl PartitionInterpretation {
    /// Creates an interpretation with no attributes (add them with
    /// [`PartitionInterpretation::set`] / [`PartitionInterpretation::set_named_blocks`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the interpretation of `attribute`.
    pub fn set(&mut self, attribute: Attribute, interpretation: AttributeInterpretation) {
        self.attrs.insert(attribute, interpretation);
    }

    /// Convenience: sets the interpretation of `attribute` from named blocks
    /// (see [`AttributeInterpretation::from_named_blocks`]).
    pub fn set_named_blocks(
        &mut self,
        attribute: Attribute,
        named_blocks: Vec<(Symbol, Vec<u32>)>,
    ) -> Result<()> {
        let interp = AttributeInterpretation::from_named_blocks(attribute, named_blocks)?;
        self.set(attribute, interp);
        Ok(())
    }

    /// The attributes this interpretation covers.
    pub fn attributes(&self) -> impl Iterator<Item = Attribute> + '_ {
        self.attrs.keys().copied()
    }

    /// Number of interpreted attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Whether no attribute is interpreted.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// The interpretation of `attribute`, if present.
    pub fn get(&self, attribute: Attribute) -> Option<&AttributeInterpretation> {
        self.attrs.get(&attribute)
    }

    /// The interpretation of `attribute`, or an error.
    pub fn require(&self, attribute: Attribute) -> Result<&AttributeInterpretation> {
        self.get(attribute)
            .ok_or(CoreError::UninterpretedAttribute(attribute))
    }

    /// Evaluates a partition expression: the meaning of an attribute is its
    /// atomic partition, `*` is partition product and `+` partition sum
    /// (Section 3.1).  The returned [`Partition`] carries its population.
    pub fn eval(&self, arena: &TermArena, term: TermId) -> Result<Partition> {
        match arena.node(term) {
            TermNode::Atom(a) => Ok(self.require(a)?.atomic().clone()),
            TermNode::Meet(l, r) => Ok(self.eval(arena, l)?.product(&self.eval(arena, r)?)),
            TermNode::Join(l, r) => Ok(self.eval(arena, l)?.sum(&self.eval(arena, r)?)),
        }
    }

    /// The meaning of a relation scheme `R[U]`: the product of the atomic
    /// partitions of its attributes (Section 3.1), computed with the bulk
    /// entry point [`Partition::product_many`] (one in-place refinement per
    /// attribute, no intermediate partitions).
    pub fn meaning_of_scheme(&self, attrs: &ps_base::AttrSet) -> Result<Partition> {
        if attrs.is_empty() {
            return Err(CoreError::Relation(
                ps_relation::RelationError::EmptyAttributeSet("relation scheme"),
            ));
        }
        let atomics = attrs
            .iter()
            .map(|a| self.require(a).map(AttributeInterpretation::atomic))
            .collect::<Result<Vec<&Partition>>>()?;
        Ok(Partition::product_many(atomics))
    }

    /// The meaning of a tuple: the intersection `⋂_{A ∈ U} f_A(t[A])`
    /// (Section 3.1).  Returns the set of elements (possibly empty).  The
    /// tuple is addressed as a zero-copy [`ps_relation::RowRef`] view, which
    /// carries its relation (and hence its scheme) itself.
    pub fn meaning_of_tuple(&self, tuple: ps_relation::RowRef<'_>) -> Result<Vec<Element>> {
        let scheme = tuple.relation().scheme();
        let mut current: Option<Vec<Element>> = None;
        for attr in scheme.attrs().iter() {
            let symbol = tuple.get(attr).map_err(CoreError::Relation)?;
            let block = self.require(attr)?.block_of_symbol(symbol);
            let block: Vec<Element> = match block {
                None => return Ok(Vec::new()),
                Some(b) => b.to_vec(),
            };
            current = Some(match current {
                None => block,
                Some(prev) => prev.into_iter().filter(|e| block.contains(e)).collect(),
            });
            if matches!(&current, Some(c) if c.is_empty()) {
                return Ok(Vec::new());
            }
        }
        Ok(current.unwrap_or_default())
    }

    /// Definition 2: the interpretation satisfies database `d` iff every
    /// tuple of every relation has non-empty meaning.
    pub fn satisfies_database(&self, db: &Database) -> Result<bool> {
        for relation in db.relations() {
            for tuple in relation.iter() {
                if self.meaning_of_tuple(tuple)?.is_empty() {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Definition 3: the interpretation satisfies the PD `e = e′` iff the
    /// meanings of the two sides are the same partition *of the same
    /// population*.
    pub fn satisfies_pd(&self, arena: &TermArena, pd: Equation) -> Result<bool> {
        Ok(self.eval(arena, pd.lhs)? == self.eval(arena, pd.rhs)?)
    }

    /// Whether every PD in `pds` is satisfied.
    pub fn satisfies_all_pds(&self, arena: &TermArena, pds: &[Equation]) -> Result<bool> {
        for &pd in pds {
            if !self.satisfies_pd(arena, pd)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Definition 4.1: the **complete atomic data** assumption with respect
    /// to database `d`: for every attribute `A` and symbol `x`,
    /// `x ∈ d[A]  ⇔  f_A(x) ≠ ∅`.
    pub fn satisfies_cad(&self, db: &Database) -> Result<bool> {
        for (&attribute, interp) in &self.attrs {
            let domain: Vec<Symbol> = db.active_domain(attribute);
            // Every database symbol must have a non-empty meaning…
            for &symbol in &domain {
                if interp.block_of_symbol(symbol).is_none() {
                    return Ok(false);
                }
            }
            // …and every named symbol must occur in the database column.
            for (symbol, _) in interp.naming() {
                if !domain.contains(&symbol) {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Definition 4.2: the **equal atomic populations** assumption: all
    /// attributes share the same population.
    pub fn satisfies_eap(&self) -> bool {
        let mut populations = self.attrs.values().map(AttributeInterpretation::population);
        match populations.next() {
            None => true,
            Some(first) => populations.all(|p| p == first),
        }
    }

    /// Whether two attributes have disjoint populations — the additional
    /// assumption discussed after Definition 4, under which `+` computes the
    /// plain union of the two block families (Example c: every vehicle is
    /// either a car or a bicycle).
    pub fn populations_disjoint(&self, a: Attribute, b: Attribute) -> Result<bool> {
        Ok(self
            .require(a)?
            .population()
            .is_disjoint(self.require(b)?.population()))
    }

    /// The union of all populations (the set the canonical relation `R(I)` of
    /// Definition 6 ranges over).
    pub fn total_population(&self) -> Population {
        self.attrs
            .values()
            .fold(Population::new(), |acc, i| acc.union(i.population()))
    }

    /// Renders the interpretation (populations, partitions, namings) for the
    /// examples.
    pub fn render(&self, universe: &Universe, symbols: &ps_base::SymbolTable) -> String {
        let mut out = String::new();
        for (&attribute, interp) in &self.attrs {
            let name = universe.name(attribute).unwrap_or("?");
            out.push_str(&format!(
                "p_{name} = {}\nπ_{name} = {}\n",
                interp.population(),
                interp.atomic()
            ));
            let mut names: Vec<String> = interp
                .naming()
                .map(|(s, b)| {
                    format!(
                        "f_{name}({}) = {{{}}}",
                        symbols.render(s),
                        interp
                            .atomic()
                            .block(b)
                            .iter()
                            .map(|e| e.to_string())
                            .collect::<Vec<_>>()
                            .join(",")
                    )
                })
                .collect();
            names.sort();
            out.push_str(&names.join("  "));
            out.push('\n');
        }
        out
    }

    /// A dense map from attribute to its atomic partition, used when building
    /// the lattice `L(I)`.
    pub fn atomic_partitions(&self) -> HashMap<Attribute, Partition> {
        self.attrs
            .iter()
            .map(|(&a, i)| (a, i.atomic().clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_base::SymbolTable;
    use ps_lattice::parse_term;
    use ps_relation::DatabaseBuilder;

    /// The Figure 1 interpretation: populations {1,2,3,4},
    /// π_A = {{1},{4},{2,3}}, π_B = {{1,4},{2,3}}, π_C = {{1,2},{3,4}},
    /// f_A: a↦{1}, a1↦{4}, a2↦{2,3}; f_B: b↦{1,4}, b1↦{2,3};
    /// f_C: c↦{1,2}, c1↦{3,4}.
    pub(crate) fn figure1() -> (Universe, SymbolTable, PartitionInterpretation) {
        let mut universe = Universe::new();
        let mut symbols = SymbolTable::new();
        let (a, b, c) = (universe.attr("A"), universe.attr("B"), universe.attr("C"));
        let mut interp = PartitionInterpretation::new();
        interp
            .set_named_blocks(
                a,
                vec![
                    (symbols.symbol("a"), vec![1]),
                    (symbols.symbol("a1"), vec![4]),
                    (symbols.symbol("a2"), vec![2, 3]),
                ],
            )
            .unwrap();
        interp
            .set_named_blocks(
                b,
                vec![
                    (symbols.symbol("b"), vec![1, 4]),
                    (symbols.symbol("b1"), vec![2, 3]),
                ],
            )
            .unwrap();
        interp
            .set_named_blocks(
                c,
                vec![
                    (symbols.symbol("c"), vec![1, 2]),
                    (symbols.symbol("c1"), vec![3, 4]),
                ],
            )
            .unwrap();
        (universe, symbols, interp)
    }

    fn figure1_database(universe: &mut Universe, symbols: &mut SymbolTable) -> Database {
        DatabaseBuilder::new()
            .relation(
                universe,
                symbols,
                "R",
                &["A", "B", "C"],
                &[
                    &["a", "b", "c"],
                    &["a2", "b1", "c"],
                    &["a2", "b1", "c1"],
                    &["a1", "b", "c1"],
                ],
            )
            .unwrap()
            .build()
    }

    #[test]
    fn construction_validates_naming() {
        let mut universe = Universe::new();
        let mut symbols = SymbolTable::new();
        let a = universe.attr("A");
        let mut interp = PartitionInterpretation::new();
        // Same symbol naming two blocks is rejected.
        let s = symbols.symbol("x");
        let err = interp
            .set_named_blocks(a, vec![(s, vec![1]), (s, vec![2])])
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidNaming { .. }));
        // Empty block list is rejected.
        let err = interp.set_named_blocks(a, vec![]).unwrap_err();
        assert!(matches!(err, CoreError::EmptyPopulation(_)));
        // Overlapping blocks are rejected by the partition layer.
        let t = symbols.symbol("y");
        let err = interp
            .set_named_blocks(a, vec![(s, vec![1, 2]), (t, vec![2, 3])])
            .unwrap_err();
        assert!(matches!(err, CoreError::Partition(_)));
    }

    #[test]
    fn explicit_constructor_requires_bijective_naming() {
        let mut universe = Universe::new();
        let mut symbols = SymbolTable::new();
        let a = universe.attr("A");
        let partition = Partition::from_blocks(vec![vec![1], vec![2]]).unwrap();
        // Missing name for block 1.
        let mut naming = BTreeMap::new();
        naming.insert(symbols.symbol("x"), 0);
        let err = AttributeInterpretation::new(a, partition.clone(), naming.clone()).unwrap_err();
        assert!(matches!(err, CoreError::InvalidNaming { .. }));
        // Out-of-range block index.
        naming.insert(symbols.symbol("y"), 5);
        let err = AttributeInterpretation::new(a, partition.clone(), naming).unwrap_err();
        assert!(matches!(err, CoreError::InvalidNaming { .. }));
        // A correct bijection is accepted.
        let mut good = BTreeMap::new();
        good.insert(symbols.symbol("x"), 0);
        good.insert(symbols.symbol("y"), 1);
        let interp = AttributeInterpretation::new(a, partition, good).unwrap();
        assert_eq!(
            interp.symbol_of_block(0),
            Some(symbols.lookup("x").unwrap())
        );
        assert_eq!(interp.symbol_of_block(7), None);
    }

    #[test]
    fn figure1_satisfies_the_database_and_assumptions() {
        let (mut universe, mut symbols, interp) = figure1();
        let db = figure1_database(&mut universe, &mut symbols);
        assert!(interp.satisfies_database(&db).unwrap());
        assert!(interp.satisfies_cad(&db).unwrap());
        assert!(interp.satisfies_eap());
        assert_eq!(
            interp.total_population(),
            Population::range(5).iter().skip(1).collect()
        );
        assert_eq!(interp.len(), 3);
        assert!(!interp.is_empty());
        let rendered = interp.render(&universe, &symbols);
        assert!(rendered.contains("π_A"));
        assert!(rendered.contains("f_B(b)"));
    }

    #[test]
    fn figure1_tuple_meanings_match_the_paper() {
        let (mut universe, mut symbols, interp) = figure1();
        let db = figure1_database(&mut universe, &mut symbols);
        let r = &db.relations()[0];
        // The four tuples denote {1}, {2}, {3}, {4} respectively.
        let expected: Vec<Vec<u32>> = vec![vec![1], vec![2], vec![3], vec![4]];
        for (tuple, expect) in r.iter().zip(expected) {
            let meaning = interp.meaning_of_tuple(tuple).unwrap();
            let expect: Vec<Element> = expect.into_iter().map(Element::new).collect();
            assert_eq!(meaning, expect);
        }
    }

    #[test]
    fn tuple_with_unnamed_symbol_has_empty_meaning() {
        let (mut universe, mut symbols, interp) = figure1();
        // A database with a symbol the interpretation gives no meaning.
        let db = DatabaseBuilder::new()
            .relation(
                &mut universe,
                &mut symbols,
                "R",
                &["A", "B", "C"],
                &[&["zzz", "b", "c"]],
            )
            .unwrap()
            .build();
        assert!(!interp.satisfies_database(&db).unwrap());
        // CAD also fails: "zzz" appears in d[A] but f_A(zzz) = ∅.
        assert!(!interp.satisfies_cad(&db).unwrap());
    }

    #[test]
    fn figure1_satisfies_its_dependencies() {
        let (mut universe, _, interp) = figure1();
        let mut arena = TermArena::new();
        // A = A*B holds (every A-block refines a B-block).
        let lhs = parse_term("A", &mut universe, &mut arena).unwrap();
        let rhs = parse_term("A*B", &mut universe, &mut arena).unwrap();
        assert!(interp
            .satisfies_pd(&arena, Equation::new(lhs, rhs))
            .unwrap());
        // B + C = A + C (both are the indiscrete partition of {1,2,3,4}).
        let l2 = parse_term("B+C", &mut universe, &mut arena).unwrap();
        let r2 = parse_term("A+C", &mut universe, &mut arena).unwrap();
        assert!(interp.satisfies_pd(&arena, Equation::new(l2, r2)).unwrap());
        // B = B*C fails.
        let l3 = parse_term("B", &mut universe, &mut arena).unwrap();
        let r3 = parse_term("B*C", &mut universe, &mut arena).unwrap();
        assert!(!interp.satisfies_pd(&arena, Equation::new(l3, r3)).unwrap());
        assert!(interp
            .satisfies_all_pds(&arena, &[Equation::new(lhs, rhs), Equation::new(l2, r2)])
            .unwrap());
        assert!(!interp
            .satisfies_all_pds(&arena, &[Equation::new(lhs, rhs), Equation::new(l3, r3)])
            .unwrap());
    }

    #[test]
    fn figure1_distributivity_fails_in_the_interpretation() {
        // B*(A+C) ≠ (B*A)+(B*C): the non-distributivity observed in Figure 1.
        let (mut universe, _, interp) = figure1();
        let mut arena = TermArena::new();
        let lhs = parse_term("B*(A+C)", &mut universe, &mut arena).unwrap();
        let rhs = parse_term("(B*A)+(B*C)", &mut universe, &mut arena).unwrap();
        assert!(!interp
            .satisfies_pd(&arena, Equation::new(lhs, rhs))
            .unwrap());
    }

    #[test]
    fn meaning_of_scheme_is_the_product_of_atoms() {
        let (mut universe, _, interp) = figure1();
        let mut arena = TermArena::new();
        let abc: ps_base::AttrSet = vec![
            universe.lookup("A").unwrap(),
            universe.lookup("B").unwrap(),
            universe.lookup("C").unwrap(),
        ]
        .into();
        let by_scheme = interp.meaning_of_scheme(&abc).unwrap();
        let term = parse_term("A*B*C", &mut universe, &mut arena).unwrap();
        let by_term = interp.eval(&arena, term).unwrap();
        assert_eq!(by_scheme, by_term);
        // For Figure 1 the composite partition is discrete.
        assert!(by_scheme.is_discrete());
        assert_eq!(by_scheme.num_blocks(), 4);
    }

    #[test]
    fn eval_rejects_uninterpreted_attributes() {
        let (mut universe, _, interp) = figure1();
        let mut arena = TermArena::new();
        let term = parse_term("A*Z", &mut universe, &mut arena).unwrap();
        assert!(matches!(
            interp.eval(&arena, term),
            Err(CoreError::UninterpretedAttribute(_))
        ));
        let z = universe.lookup("Z").unwrap();
        assert!(interp.require(z).is_err());
    }

    #[test]
    fn example_c_disjoint_populations_make_sum_a_union() {
        // Example c: cars and bicycles have disjoint populations; the vehicle
        // registration partition is their sum, which is then just the union
        // of the two block families.
        let mut universe = Universe::new();
        let mut symbols = SymbolTable::new();
        let (car, bike, veh) = (
            universe.attr("Car"),
            universe.attr("Bike"),
            universe.attr("Veh"),
        );
        let mut interp = PartitionInterpretation::new();
        interp
            .set_named_blocks(
                car,
                vec![
                    (symbols.symbol("c1"), vec![1, 2]),
                    (symbols.symbol("c2"), vec![3]),
                ],
            )
            .unwrap();
        interp
            .set_named_blocks(
                bike,
                vec![
                    (symbols.symbol("b1"), vec![10]),
                    (symbols.symbol("b2"), vec![11, 12]),
                ],
            )
            .unwrap();
        interp
            .set_named_blocks(
                veh,
                vec![
                    (symbols.symbol("v1"), vec![1, 2]),
                    (symbols.symbol("v2"), vec![3]),
                    (symbols.symbol("v3"), vec![10]),
                    (symbols.symbol("v4"), vec![11, 12]),
                ],
            )
            .unwrap();
        assert!(interp.populations_disjoint(car, bike).unwrap());
        assert!(!interp.populations_disjoint(car, veh).unwrap());
        assert!(interp
            .populations_disjoint(universe.attr("Car"), bike)
            .unwrap());
        // Veh = Car + Bike holds, and the sum has exactly the four blocks.
        let mut arena = TermArena::new();
        let lhs = parse_term("Veh", &mut universe, &mut arena).unwrap();
        let rhs = parse_term("Car+Bike", &mut universe, &mut arena).unwrap();
        assert!(interp
            .satisfies_pd(&arena, Equation::new(lhs, rhs))
            .unwrap());
        let sum = interp.eval(&arena, rhs).unwrap();
        assert_eq!(sum.num_blocks(), 4);
        // Unknown attributes are reported as errors.
        let ghost = universe.attr("Ghost");
        assert!(interp.populations_disjoint(car, ghost).is_err());
    }

    #[test]
    fn eap_detects_unequal_populations() {
        let mut universe = Universe::new();
        let mut symbols = SymbolTable::new();
        let (a, b) = (universe.attr("A"), universe.attr("B"));
        let mut interp = PartitionInterpretation::new();
        interp
            .set_named_blocks(a, vec![(symbols.symbol("x"), vec![1, 2])])
            .unwrap();
        interp
            .set_named_blocks(b, vec![(symbols.symbol("y"), vec![1, 2, 3])])
            .unwrap();
        assert!(!interp.satisfies_eap());
        assert_eq!(interp.total_population().len(), 3);
        // Example a: A = A*B can still hold with p_A ⊊ p_B.
        let mut arena = TermArena::new();
        let lhs = parse_term("A", &mut universe, &mut arena).unwrap();
        let rhs = parse_term("A*B", &mut universe, &mut arena).unwrap();
        assert!(interp
            .satisfies_pd(&arena, Equation::new(lhs, rhs))
            .unwrap());
        // The dual form A+B = B holds as well (Section 3.2).
        let l2 = parse_term("A+B", &mut universe, &mut arena).unwrap();
        let r2 = parse_term("B", &mut universe, &mut arena).unwrap();
        assert!(interp.satisfies_pd(&arena, Equation::new(l2, r2)).unwrap());
    }

    #[test]
    fn cad_requires_named_symbols_to_appear_in_the_database() {
        let (mut universe, mut symbols, interp) = figure1();
        // Drop the tuple containing a1 from the database: f_A(a1) ≠ ∅ but a1
        // no longer occurs under column A, so CAD fails.
        let db = DatabaseBuilder::new()
            .relation(
                &mut universe,
                &mut symbols,
                "R",
                &["A", "B", "C"],
                &[&["a", "b", "c"], &["a2", "b1", "c"], &["a2", "b1", "c1"]],
            )
            .unwrap()
            .build();
        assert!(interp.satisfies_database(&db).unwrap());
        assert!(!interp.satisfies_cad(&db).unwrap());
    }
}
