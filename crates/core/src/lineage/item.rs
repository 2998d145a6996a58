//! Lineage items: fine-grained provenance DAGs of logical operations.
//!
//! "We trace inputs (by name), literals, and all executed operations
//! (including non-determinism like generated seeds) to maintain lineage
//! DAGs of live variables" (paper §3.1). Every item carries a precomputed
//! structural hash: the reuse cache keys on it, so hashing must be O(1)
//! per probe. A 64-bit hash can collide, so the cache confirms a hit with
//! the structural equality of [`PartialEq`].

use std::fmt::Write as _;
use std::sync::Arc;
use sysds_common::hash::{combine, hash_str, FxHashMap, FxHashSet};

/// One node of a lineage DAG.
#[derive(Debug)]
pub struct LineageItem {
    /// Logical opcode (`tsmm`, `ba+*`, `lit:3`, `input:X#42`, ...).
    pub opcode: String,
    /// Lineage of the operation's inputs.
    pub inputs: Vec<Arc<LineageItem>>,
    /// Structural hash over opcode and inputs (precomputed).
    pub hash: u64,
}

impl LineageItem {
    /// A leaf item (literal, named input, seeded generator).
    pub fn leaf(opcode: impl Into<String>) -> Arc<LineageItem> {
        let opcode = opcode.into();
        let hash = hash_str(&opcode);
        Arc::new(LineageItem {
            opcode,
            inputs: Vec::new(),
            hash,
        })
    }

    /// An operation item over input lineages.
    pub fn node(opcode: impl Into<String>, inputs: Vec<Arc<LineageItem>>) -> Arc<LineageItem> {
        let opcode = opcode.into();
        let mut hash = hash_str(&opcode);
        for i in &inputs {
            hash = combine(hash, i.hash);
        }
        Arc::new(LineageItem {
            opcode,
            inputs,
            hash,
        })
    }

    /// Number of nodes in the DAG (shared nodes counted once). Walks with
    /// an explicit stack, so a chain as long as a loop's trip count does
    /// not overflow the thread's stack.
    pub fn dag_size(self: &Arc<Self>) -> usize {
        let mut seen = FxHashSet::default();
        let mut pending = vec![&**self];
        while let Some(item) = pending.pop() {
            if seen.insert(item as *const Self) {
                pending.extend(item.inputs.iter().map(|i| &**i));
            }
        }
        seen.len()
    }

    /// Serialize the DAG as a deterministic, numbered trace — the format
    /// used for debugging via "query processing over lineage traces".
    /// Nodes are numbered in post-order, inputs left to right; the walk
    /// keeps its own stack.
    pub fn trace(self: &Arc<Self>) -> String {
        let mut ids: FxHashMap<*const Self, usize> = FxHashMap::default();
        let mut out = String::new();
        // Each entry is a node and the number of its inputs visited so far.
        let mut stack = vec![(&**self, 0usize)];
        while let Some(top) = stack.last_mut() {
            let item = top.0;
            if let Some(input) = item.inputs.get(top.1) {
                top.1 += 1;
                if !ids.contains_key(&Arc::as_ptr(input)) {
                    stack.push((&**input, 0));
                }
                continue;
            }
            stack.pop();
            let id = ids.len();
            ids.insert(item as *const Self, id);
            let args: Vec<String> = item
                .inputs
                .iter()
                .map(|i| format!("%{}", ids[&Arc::as_ptr(i)]))
                .collect();
            let _ = writeln!(out, "%{id} <- {} ({})", item.opcode, args.join(", "));
        }
        out
    }
}

impl Drop for LineageItem {
    /// Frees the DAG with a worklist instead of the derived recursive drop,
    /// so releasing a chain as long as a loop's trip count does not
    /// overflow the thread's stack. Inputs still shared elsewhere only lose
    /// a reference.
    fn drop(&mut self) {
        let mut pending = std::mem::take(&mut self.inputs);
        while let Some(input) = pending.pop() {
            if let Some(mut freed) = Arc::into_inner(input) {
                pending.append(&mut freed.inputs);
            }
        }
    }
}

impl PartialEq for LineageItem {
    /// Structural equality: same opcode and pairwise-equal inputs. Nodes
    /// that are the same allocation are equal without a walk, and each pair
    /// of nodes is compared once, so shared sub-DAGs cost one visit.
    fn eq(&self, other: &Self) -> bool {
        let mut compared = FxHashSet::default();
        let mut pending = vec![(self, other)];
        while let Some((a, b)) = pending.pop() {
            if std::ptr::eq(a, b) || !compared.insert((a as *const Self, b as *const Self)) {
                continue;
            }
            if a.hash != b.hash || a.opcode != b.opcode || a.inputs.len() != b.inputs.len() {
                return false;
            }
            pending.extend(a.inputs.iter().zip(&b.inputs).map(|(x, y)| (&**x, &**y)));
        }
        true
    }
}

impl Eq for LineageItem {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_structures_hash_equal() {
        let x = LineageItem::leaf("input:X");
        let a = LineageItem::node("tsmm", vec![x.clone()]);
        let b = LineageItem::node("tsmm", vec![x.clone()]);
        assert_eq!(a.hash, b.hash);
    }

    #[test]
    fn different_opcodes_hash_differently() {
        let x = LineageItem::leaf("input:X");
        let a = LineageItem::node("tsmm", vec![x.clone()]);
        let b = LineageItem::node("r'", vec![x]);
        assert_ne!(a.hash, b.hash);
    }

    #[test]
    fn input_order_matters() {
        let x = LineageItem::leaf("input:X");
        let y = LineageItem::leaf("input:Y");
        let a = LineageItem::node("ba+*", vec![x.clone(), y.clone()]);
        let b = LineageItem::node("ba+*", vec![y, x]);
        assert_ne!(a.hash, b.hash);
    }

    #[test]
    fn seeds_propagate_into_hash() {
        let a = LineageItem::leaf("rand:100:10:7");
        let b = LineageItem::leaf("rand:100:10:8");
        assert_ne!(a.hash, b.hash);
    }

    #[test]
    fn dag_size_counts_shared_once() {
        let x = LineageItem::leaf("input:X");
        let t = LineageItem::node("tsmm", vec![x.clone()]);
        let s = LineageItem::node("+", vec![t.clone(), t.clone()]);
        assert_eq!(s.dag_size(), 3);
    }

    #[test]
    fn trace_is_deterministic_and_numbered() {
        let x = LineageItem::leaf("input:X");
        let y = LineageItem::leaf("lit:2");
        let p = LineageItem::node("*", vec![x, y]);
        let t = p.trace();
        assert!(t.contains("%0 <- input:X ()"));
        assert!(t.contains("%1 <- lit:2 ()"));
        assert!(t.contains("%2 <- * (%0, %1)"));
    }

    #[test]
    fn equality_is_structural_not_by_hash() {
        // Two 16-byte leaf strings with equal FxHash values.
        let a = LineageItem::leaf("read:6n,E4e_byU?");
        let b = LineageItem::leaf("read:1d&S4e_bYhx");
        assert_eq!(a.hash, b.hash);
        assert_ne!(*a, *b);
        let ta = LineageItem::node("tsmm", vec![a.clone()]);
        assert_ne!(*ta, *LineageItem::node("tsmm", vec![b]));
        assert_eq!(
            *ta,
            *LineageItem::node("tsmm", vec![LineageItem::leaf("read:6n,E4e_byU?")])
        );
        assert_eq!(*ta, *LineageItem::node("tsmm", vec![a]));
    }

    #[test]
    fn deep_chain_hashing_is_stable() {
        let mut item = LineageItem::leaf("input:X");
        for _ in 0..100 {
            item = LineageItem::node("exp", vec![item]);
        }
        let mut item2 = LineageItem::leaf("input:X");
        for _ in 0..100 {
            item2 = LineageItem::node("exp", vec![item2]);
        }
        assert_eq!(item.hash, item2.hash);
        assert_eq!(*item, *item2);
    }
}
