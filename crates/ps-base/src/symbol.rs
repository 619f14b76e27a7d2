//! Data symbols (the countably infinite set `𝒟` of Section 2.1).
//!
//! Tuple entries in relations are drawn from `𝒟`.  The weak-instance chase
//! additionally needs an endless supply of *fresh* symbols ("nulls" or
//! "unique variables"); a [`NullSource`] provides them without ever
//! colliding with interned constants.  Whether a symbol is a constant or a
//! null is a property of the symbol itself ([`Symbol::is_constant`]), so
//! code that only classifies symbols needs no table.

use std::fmt;

use crate::{BaseError, Interner, Result};

/// An interned data symbol (an element of `𝒟`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

/// Nulls are tagged with the high bit so they can never collide with
/// interned constants; each namespace holds 2³¹ symbols.
const FRESH_TAG: u32 = 1 << 31;

impl Symbol {
    /// Constructs a symbol from a raw index (see [`SymbolTable`]).
    pub fn from_index(index: u32) -> Self {
        Symbol(index)
    }

    /// The raw dense index of this symbol.
    pub fn index(self) -> u32 {
        self.0
    }

    /// The raw index as `usize`, for vector indexing.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// Whether this is an interned constant (as opposed to a null).
    pub fn is_constant(self) -> bool {
        self.0 & FRESH_TAG == 0
    }

    /// Whether this is a null minted by a [`NullSource`].
    pub fn is_null(self) -> bool {
        !self.is_constant()
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${}", self.0)
    }
}

/// A supply of nulls: each call returns symbols distinct from every
/// constant and from every null this source issued before.
///
/// A source mints by counting up its namespace, so `n` calls to
/// [`NullSource::fresh`] and one call to [`NullSource::fresh_block`] with
/// `n` hand out the same nulls in the same order.  The chase's padded
/// tableau takes all its padding nulls in one block; the Lemma 12.1 repair
/// takes its bridging nulls one at a time.  A [`SymbolTable`] is a source
/// that advances the table itself; a [`FreshSymbols`] cursor is a detached
/// source that leaves a shared table untouched (one per snapshot worker).
pub trait NullSource {
    /// Mints the next null.
    fn fresh(&mut self) -> Symbol;

    /// Mints the next `n` nulls at once, in the order `n` calls to
    /// [`NullSource::fresh`] would mint them.
    fn fresh_block(&mut self, n: usize) -> NullBlock;
}

/// The nulls of one [`NullSource::fresh_block`] call, in minting order.
#[derive(Debug, Clone)]
pub struct NullBlock {
    next: u32,
    end: u32,
}

impl Iterator for NullBlock {
    type Item = Symbol;

    fn next(&mut self) -> Option<Symbol> {
        let id = self.next;
        (id < self.end).then(|| {
            self.next = id + 1;
            Symbol(FRESH_TAG | id)
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = (self.end - self.next) as usize;
        (len, Some(len))
    }
}

impl ExactSizeIterator for NullBlock {}

/// The catalog of data symbols, modelling the countably infinite set `𝒟`.
///
/// Two kinds of symbols are issued:
///
/// * **constants** — interned by name via [`SymbolTable::symbol`]; these are
///   the symbols that appear in user databases;
/// * **nulls** — generated via [`SymbolTable::fresh`]; each call returns a
///   brand-new symbol distinct from every other symbol.  These play the role
///   of the "distinct new values" used when padding weak instances
///   (Section 6.2) and of the unique tuple indices `i_t` of Definition 5.
///
/// ```
/// use ps_base::SymbolTable;
/// let mut t = SymbolTable::new();
/// let a = t.symbol("a");
/// let fresh = t.fresh();
/// assert_ne!(a, fresh);
/// assert!(a.is_constant());
/// assert!(fresh.is_null());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    interner: Interner,
    /// The cursor of the null namespace.
    nulls: FreshSymbols,
}

impl SymbolTable {
    /// Creates an empty symbol table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a named constant.
    pub fn symbol(&mut self, name: &str) -> Symbol {
        let id = self.interner.intern(name);
        assert!(
            id < FRESH_TAG,
            "symbol table overflowed the constant namespace"
        );
        Symbol(id)
    }

    /// Interns several constants at once.
    pub fn symbols<'a, I: IntoIterator<Item = &'a str>>(&mut self, names: I) -> Vec<Symbol> {
        names.into_iter().map(|n| self.symbol(n)).collect()
    }

    /// Looks up an existing constant by name.
    pub fn lookup(&self, name: &str) -> Result<Symbol> {
        self.interner
            .get(name)
            .map(Symbol)
            .ok_or_else(|| BaseError::UnknownSymbol(name.to_owned()))
    }

    /// Generates a null, distinct from every constant and every null this
    /// table generated before.
    pub fn fresh(&mut self) -> Symbol {
        self.nulls.fresh()
    }

    /// Generates `n` nulls at once (see [`FreshSymbols::fresh_block`]).
    pub fn fresh_block(&mut self, n: usize) -> NullBlock {
        self.nulls.fresh_block(n)
    }

    /// The name of a constant symbol, if it was interned here.
    pub fn name(&self, sym: Symbol) -> Option<&str> {
        if sym.is_constant() {
            self.interner.resolve(sym.0)
        } else {
            None
        }
    }

    /// Renders a symbol: constants by name, nulls as `⊥k`.
    pub fn render(&self, sym: Symbol) -> String {
        match self.name(sym) {
            Some(n) => n.to_owned(),
            None => format!("⊥{}", sym.0 & !FRESH_TAG),
        }
    }

    /// Number of interned constants (nulls are not counted).
    pub fn num_constants(&self) -> usize {
        self.interner.len()
    }

    /// Number of nulls issued so far.
    pub fn num_fresh(&self) -> usize {
        self.nulls.next as usize
    }

    /// A detached null source starting just above every null this table
    /// has issued so far.
    ///
    /// The source never touches the table: many workers can each hold their
    /// own source and mint nulls against a shared `&SymbolTable`.  Symbols
    /// from two sources derived from the same table state *may* collide
    /// with each other — callers that need cross-worker distinctness must
    /// keep worker outputs separate (null names never influence chase
    /// verdicts; each worker only needs within-run distinctness).
    pub fn fresh_source(&self) -> FreshSymbols {
        FreshSymbols {
            next: self.nulls.next,
            start: self.nulls.next,
        }
    }

    /// Moves the table's null cursor past every null `source` minted, so
    /// the table never hands them out again.  The cursor only moves
    /// forwards: a source behind the table leaves it unchanged.
    ///
    /// A caller that mints from a [`SymbolTable::fresh_source`] and hands
    /// out only some of its answers calls this for those alone; the nulls
    /// of an answer it drops are minted again by the next source.
    ///
    /// ```
    /// use ps_base::SymbolTable;
    /// let mut t = SymbolTable::new();
    /// let mut kept = t.fresh_source();
    /// let handed_out = kept.fresh();
    /// let mut dropped = t.fresh_source();
    /// dropped.fresh_block(8);
    /// t.advance_past(&kept);
    /// assert_eq!(t.num_fresh(), 1);
    /// assert_ne!(t.fresh(), handed_out);
    /// t.advance_past(&kept); // behind the table now: no effect
    /// assert_eq!(t.num_fresh(), 2);
    /// ```
    pub fn advance_past(&mut self, source: &FreshSymbols) {
        self.nulls.next = self.nulls.next.max(source.next);
    }
}

impl NullSource for SymbolTable {
    fn fresh(&mut self) -> Symbol {
        SymbolTable::fresh(self)
    }

    fn fresh_block(&mut self, n: usize) -> NullBlock {
        SymbolTable::fresh_block(self, n)
    }
}

/// A cursor over the null namespace.  A [`SymbolTable`] keeps one for its
/// own nulls; [`SymbolTable::fresh_source`] hands out detached copies that
/// mint without mutating the table.
///
/// ```
/// use ps_base::SymbolTable;
/// let mut t = SymbolTable::new();
/// let minted = t.fresh();
/// let mut source = t.fresh_source();
/// let detached = source.fresh();
/// assert_ne!(minted, detached);
/// assert!(detached.is_null());
/// ```
#[derive(Debug, Clone, Default)]
pub struct FreshSymbols {
    next: u32,
    start: u32,
}

impl FreshSymbols {
    /// Mints the next null from this source.
    ///
    /// # Panics
    ///
    /// When the 2³¹ nulls of the namespace are used up: one more would wrap
    /// onto the first null.
    pub fn fresh(&mut self) -> Symbol {
        let id = self.next;
        assert!(id < FRESH_TAG, "null source overflowed the null namespace");
        self.next += 1;
        Symbol(FRESH_TAG | id)
    }

    /// Mints the next `n` nulls from this source at once.
    ///
    /// # Panics
    ///
    /// When the block does not fit in what is left of the namespace, with
    /// [`FreshSymbols::fresh`]'s message; the check is one comparison for
    /// the whole block.
    pub fn fresh_block(&mut self, n: usize) -> NullBlock {
        let start = self.next;
        assert!(
            u64::from(start) + n as u64 <= u64::from(FRESH_TAG),
            "null source overflowed the null namespace"
        );
        self.next += n as u32;
        NullBlock {
            next: start,
            end: self.next,
        }
    }

    /// Number of symbols this source has minted.
    pub fn minted(&self) -> usize {
        (self.next - self.start) as usize
    }
}

impl NullSource for FreshSymbols {
    fn fresh(&mut self) -> Symbol {
        FreshSymbols::fresh(self)
    }

    fn fresh_block(&mut self, n: usize) -> NullBlock {
        FreshSymbols::fresh_block(self, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_interned() {
        let mut t = SymbolTable::new();
        let a = t.symbol("a");
        let b = t.symbol("b");
        assert_ne!(a, b);
        assert_eq!(t.symbol("a"), a);
        assert_eq!(t.lookup("b").unwrap(), b);
        assert!(t.lookup("zz").is_err());
        assert_eq!(t.num_constants(), 2);
    }

    #[test]
    fn fresh_symbols_are_all_distinct() {
        let mut t = SymbolTable::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            assert!(seen.insert(t.fresh()));
        }
        assert_eq!(t.num_fresh(), 100);
    }

    #[test]
    fn fresh_never_collides_with_constants() {
        let mut t = SymbolTable::new();
        let consts: Vec<_> = (0..50).map(|i| t.symbol(&format!("c{i}"))).collect();
        let fresh: Vec<_> = (0..50).map(|_| t.fresh()).collect();
        for c in &consts {
            assert!(c.is_constant());
            for f in &fresh {
                assert_ne!(c, f);
            }
        }
        for f in &fresh {
            assert!(f.is_null());
        }
    }

    #[test]
    fn render_uses_names_and_null_notation() {
        let mut t = SymbolTable::new();
        let a = t.symbol("alice");
        let f = t.fresh();
        assert_eq!(t.render(a), "alice");
        assert_eq!(t.render(f), "⊥0");
        assert_eq!(t.name(f), None);
    }

    #[test]
    fn fresh_source_is_detached_and_tagged() {
        let mut t = SymbolTable::new();
        let before = t.fresh();
        let mut source = t.fresh_source();
        let s1 = source.fresh();
        let s2 = source.fresh();
        assert_ne!(s1, s2);
        assert_ne!(before, s1);
        assert!(s1.is_null() && s2.is_null());
        assert_eq!(source.minted(), 2);
        // Minting from the source never advances the table.
        assert_eq!(t.num_fresh(), 1);
        // A second source from the same state restarts at the same cursor.
        let mut again = t.fresh_source();
        assert_eq!(again.fresh(), s1);
    }

    #[test]
    #[should_panic(expected = "overflowed the null namespace")]
    fn null_namespace_does_not_wrap() {
        let mut source = FreshSymbols {
            next: FRESH_TAG - 1,
            start: FRESH_TAG - 1,
        };
        let last = source.fresh();
        assert_eq!(last.index(), u32::MAX);
        // The next null would be FRESH_TAG | 0 again.
        let _ = source.fresh();
    }

    /// A source whose cursor sits `left` nulls below the end of the
    /// namespace.
    fn near_the_end(left: u32) -> FreshSymbols {
        FreshSymbols {
            next: FRESH_TAG - left,
            start: FRESH_TAG - left,
        }
    }

    #[test]
    fn a_block_mints_what_single_calls_mint() {
        let mut t = SymbolTable::new();
        t.fresh();
        let mut single = t.fresh_source();
        let block: Vec<Symbol> = t.fresh_block(5).collect();
        assert_eq!(block, (0..5).map(|_| single.fresh()).collect::<Vec<_>>());
        assert_eq!(t.num_fresh(), 6);
        assert_eq!(t.fresh(), single.fresh());
        assert_eq!(t.fresh_block(0).len(), 0);
    }

    #[test]
    fn a_block_may_end_exactly_at_the_namespace_bound() {
        let mut source = near_the_end(3);
        let block: Vec<Symbol> = source.fresh_block(3).collect();
        assert_eq!(block.last().map(|s| s.index()), Some(u32::MAX));
        assert_eq!(source.minted(), 3);
        let mut table = SymbolTable {
            nulls: near_the_end(3),
            ..SymbolTable::default()
        };
        assert_eq!(table.fresh_block(3).len(), 3);
        assert_eq!(table.fresh_block(0).len(), 0);
    }

    #[test]
    #[should_panic(expected = "overflowed the null namespace")]
    fn a_detached_block_crossing_the_bound_panics() {
        let _ = near_the_end(3).fresh_block(4);
    }

    #[test]
    #[should_panic(expected = "overflowed the null namespace")]
    fn a_table_block_crossing_the_bound_panics() {
        let mut table = SymbolTable {
            nulls: near_the_end(3),
            ..SymbolTable::default()
        };
        let _ = table.fresh_block(4);
    }

    #[test]
    #[should_panic(expected = "overflowed the null namespace")]
    fn a_block_cannot_wrap_the_cursor() {
        // `next + n` would wrap a `u32` to a small cursor.
        let _ = near_the_end(3).fresh_block(u32::MAX as usize);
    }

    #[test]
    fn display_is_index_based() {
        let mut t = SymbolTable::new();
        let a = t.symbol("a");
        assert_eq!(format!("{a}"), "$0");
    }
}
