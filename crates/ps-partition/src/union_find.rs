//! Disjoint-set (union–find) structure.
//!
//! Used as the efficient implementation of the partition **sum** (the
//! chaining condition in Section 3.1 is exactly transitive closure of block
//! overlap) and, via `ps-graph`, for undirected connected components
//! (Example e of the paper).

/// A union–find structure over the dense index range `0..len`.
///
/// Uses path halving and union by rank; the amortized cost of each operation
/// is effectively constant.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    num_sets: usize,
}

impl UnionFind {
    /// Creates a union–find with `len` singleton sets `{0}, {1}, …`.
    pub fn new(len: usize) -> Self {
        UnionFind {
            parent: (0..len as u32).collect(),
            rank: vec![0; len],
            num_sets: len,
        }
    }

    /// Appends a new singleton set `{len}` and returns its element.
    pub fn push(&mut self) -> usize {
        let x = self.parent.len();
        self.parent.push(x as u32);
        self.rank.push(0);
        self.num_sets += 1;
        x
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently represented.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Finds the canonical representative of `x`'s set.
    ///
    /// # Panics
    /// Panics if `x >= self.len()`.
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            // Path halving: point x at its grandparent.
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x as usize
    }

    /// Finds the representative without mutating (no path compression).
    pub fn find_immutable(&self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x as usize
    }

    /// Merges the sets containing `a` and `b`.  Returns `true` if they were
    /// previously in different sets.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo] = hi as u32;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        self.num_sets -= 1;
        true
    }

    /// Whether `a` and `b` are currently in the same set.
    pub fn same_set(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Groups the elements `0..len` by their representative and returns the
    /// groups (each sorted ascending, groups ordered by smallest member).
    pub fn groups(&mut self) -> Vec<Vec<usize>> {
        let len = self.len();
        let mut by_root: std::collections::HashMap<usize, Vec<usize>> =
            std::collections::HashMap::new();
        for x in 0..len {
            by_root.entry(self.find(x)).or_default().push(x);
        }
        let mut groups: Vec<Vec<usize>> = by_root.into_values().collect();
        for g in &mut groups {
            g.sort_unstable();
        }
        groups.sort_by_key(|g| g[0]);
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_as_singletons() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.num_sets(), 5);
        for i in 0..5 {
            assert_eq!(uf.find(i), i);
        }
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(!uf.union(1, 0));
        assert!(uf.union(1, 2));
        assert_eq!(uf.num_sets(), 3);
        assert!(uf.same_set(0, 3));
        assert!(!uf.same_set(0, 4));
    }

    #[test]
    fn groups_are_sorted_and_complete() {
        let mut uf = UnionFind::new(5);
        uf.union(4, 2);
        uf.union(0, 3);
        let groups = uf.groups();
        assert_eq!(groups, vec![vec![0, 3], vec![1], vec![2, 4]]);
    }

    #[test]
    fn find_immutable_agrees_with_find() {
        let mut uf = UnionFind::new(8);
        uf.union(0, 1);
        uf.union(1, 2);
        uf.union(5, 6);
        for i in 0..8 {
            let a = uf.find_immutable(i);
            let b = uf.find(i);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn long_chain_compresses() {
        let n = 1000;
        let mut uf = UnionFind::new(n);
        for i in 1..n {
            uf.union(i - 1, i);
        }
        assert_eq!(uf.num_sets(), 1);
        assert!(uf.same_set(0, n - 1));
    }

    #[test]
    fn push_appends_a_singleton() {
        let mut uf = UnionFind::new(2);
        uf.union(0, 1);
        assert_eq!(uf.push(), 2);
        assert_eq!((uf.len(), uf.num_sets()), (3, 2));
        assert!(!uf.same_set(0, 2));
        assert!(uf.union(2, 1));
        assert!(uf.same_set(0, 2));
    }

    #[test]
    fn empty_structure() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.num_sets(), 0);
    }
}
