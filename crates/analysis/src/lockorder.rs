//! Lock-order graph construction and deadlock-cycle detection.
//!
//! Every acquisition site from the [`crate::lockstack`] pass contributes
//! *held-while-acquiring* edges `h → a` for each symbol `h` held when `a`
//! is taken. Edges are propagated interprocedurally through `Invoke`: a
//! callee's summary (what it may acquire, and its internal edges) is
//! substituted into the caller's namespace by mapping the callee's
//! `Arg(i)` symbols to the caller's symbolic arguments at the call site.
//! The fixpoint grounds argument-parameterized edges to concrete pool
//! objects wherever a call chain determines them.
//!
//! The program-wide graph is the union of all *grounded* (pool-to-pool)
//! edges; a cycle in that graph means two threads interleaving those
//! code paths can deadlock. Self-edges (re-entrant nesting of one lock)
//! are legal for Java monitors and excluded. Edges with a statically
//! unresolvable endpoint are counted separately as a coverage caveat
//! rather than wired into the cycle check, which would otherwise flag
//! every dynamic (`ALoadPool`) program.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::lockstack::{summary_fixpoint, MethodLockFacts, Sym};

/// One held-while-acquiring edge between two pool objects.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct OrderEdge {
    /// Pool index held.
    pub from: u32,
    /// Pool index acquired while `from` is held.
    pub to: u32,
    /// Name of a method witnessing the edge.
    pub witness: String,
}

impl fmt::Display for OrderEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pool[{}] -> pool[{}] (in {})",
            self.from, self.to, self.witness
        )
    }
}

/// The program-wide lock-order analysis result.
#[derive(Debug, Clone, Default)]
pub struct LockOrderReport {
    /// All grounded pool-to-pool edges, deduplicated, self-edges kept
    /// (they are legal re-entrancy, listed for completeness).
    pub edges: Vec<OrderEdge>,
    /// Cycles among distinct pool objects: each entry is the set of pool
    /// indices in one strongly connected component of size ≥ 2. A
    /// non-empty list means a potential deadlock.
    pub cycles: Vec<Vec<u32>>,
    /// Number of held-while-acquiring facts with a statically
    /// unresolvable endpoint, excluded from the cycle check.
    pub unresolved_edges: usize,
}

impl LockOrderReport {
    /// True when no deadlock cycle was found.
    pub fn is_acyclic(&self) -> bool {
        self.cycles.is_empty()
    }
}

/// Per-method interprocedural summary, in the method's own namespace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Summary {
    /// Symbols this method (or anything it calls) may acquire.
    acquires: BTreeSet<Sym>,
    /// Held-while-acquiring edges, including substituted callee edges.
    edges: BTreeSet<(Sym, Sym)>,
}

/// Builds the lock-order graph from per-method lock facts.
pub fn build(facts: &[MethodLockFacts]) -> LockOrderReport {
    let by_id: BTreeMap<u16, &MethodLockFacts> = facts.iter().map(|f| (f.method_id, f)).collect();
    // Summaries only grow, and the symbol universe per method (pool
    // constants, argument indices, Unknown) is finite.
    let summaries = summary_fixpoint::<Summary>(facts, |f, calls| {
        let mut s = Summary::default();
        for a in &f.acquires {
            s.acquires.insert(a.sym);
            for &h in &a.held {
                s.edges.insert((h, a.sym));
            }
        }
        for (call, callee) in calls {
            for &a in &callee.acquires {
                let ga = a.substitute(&call.args);
                s.acquires.insert(ga);
                // Everything held at the call site orders before
                // everything the callee may acquire.
                for &h in &call.held {
                    s.edges.insert((h, ga));
                }
            }
            for &(x, y) in &callee.edges {
                s.edges
                    .insert((x.substitute(&call.args), y.substitute(&call.args)));
            }
        }
        s
    });

    // Union the grounded edges; attribute each to the first method whose
    // summary contains it.
    let mut grounded: BTreeMap<(u32, u32), String> = BTreeMap::new();
    let mut unresolved = 0usize;
    for f in facts {
        for &(x, y) in &summaries[&f.method_id].edges {
            match (x, y) {
                (Sym::Pool(a), Sym::Pool(b)) => {
                    grounded
                        .entry((a, b))
                        .or_insert_with(|| by_id[&f.method_id].name.clone());
                }
                _ => unresolved += 1,
            }
        }
    }

    let edges: Vec<OrderEdge> = grounded
        .iter()
        .map(|(&(from, to), witness)| OrderEdge {
            from,
            to,
            witness: witness.clone(),
        })
        .collect();

    LockOrderReport {
        cycles: find_cycles(grounded.keys().copied()),
        edges,
        unresolved_edges: unresolved,
    }
}

/// Tarjan SCC over the pool-index graph; returns components of size ≥ 2
/// (self-edges alone are re-entrant nesting, not deadlock).
fn find_cycles(edge_iter: impl Iterator<Item = (u32, u32)>) -> Vec<Vec<u32>> {
    let mut adj: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for (a, b) in edge_iter {
        if a != b {
            adj.entry(a).or_default().push(b);
            adj.entry(b).or_default();
        }
    }
    let nodes: Vec<u32> = adj.keys().copied().collect();
    let index_of: BTreeMap<u32, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();

    // Iterative Tarjan to keep deep graphs off the call stack.
    const UNVISITED: usize = usize::MAX;
    let n = nodes.len();
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<u32>> = Vec::new();

    for start in 0..n {
        if index[start] != UNVISITED {
            continue;
        }
        // (node, next child position)
        let mut call: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&(v, child)) = call.last() {
            if child == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            let succs = &adj[&nodes[v]];
            if child < succs.len() {
                call.last_mut().expect("non-empty").1 += 1;
                let w = index_of[&succs[child]];
                if index[w] == UNVISITED {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack non-empty");
                        on_stack[w] = false;
                        comp.push(nodes[w]);
                        if w == v {
                            break;
                        }
                    }
                    if comp.len() >= 2 {
                        comp.sort_unstable();
                        sccs.push(comp);
                    }
                }
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    low[parent] = low[parent].min(low[v]);
                }
            }
        }
    }
    sccs.sort();
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockstack;
    use thinlock_vm::programs::{self, MicroBench};

    #[test]
    fn seeded_deadlock_pair_is_flagged() {
        let p = programs::deadlock_pair();
        let facts = lockstack::analyze_program(&p);
        let report = build(&facts);
        assert!(!report.is_acyclic(), "expected a cycle: {report:?}");
        assert_eq!(report.cycles, vec![vec![0, 1]]);
    }

    #[test]
    fn nested_sync_on_one_lock_is_acyclic() {
        let p = MicroBench::NestedSync.program();
        let facts = lockstack::analyze_program(&p);
        let report = build(&facts);
        assert!(report.is_acyclic(), "{report:?}");
    }

    #[test]
    fn mixed_sync_reentrant_nesting_is_acyclic() {
        // MixedSync nests pool[0] inside itself: a self-edge, which is
        // legal re-entrancy, never a deadlock.
        let p = MicroBench::MixedSync.program();
        let facts = lockstack::analyze_program(&p);
        let report = build(&facts);
        assert!(report.is_acyclic(), "{report:?}");
        assert!(report.edges.iter().any(|e| (e.from, e.to) == (0, 0)));
    }

    #[test]
    fn consistent_two_lock_order_is_acyclic() {
        // Same nesting order as one arm of the deadlock pair, alone:
        // a 0 -> 1 edge and no cycle.
        use thinlock_vm::program::{Method, MethodFlags, Program};
        use thinlock_vm::Op;
        let mut p = Program::new(2);
        p.add_method(Method::new(
            "main",
            0,
            0,
            MethodFlags::default(),
            vec![
                Op::AConst(0),
                Op::MonitorEnter,
                Op::AConst(1),
                Op::MonitorEnter,
                Op::AConst(1),
                Op::MonitorExit,
                Op::AConst(0),
                Op::MonitorExit,
                Op::Return,
            ],
        ));
        let facts = lockstack::analyze_program(&p);
        let report = build(&facts);
        assert!(report.is_acyclic(), "{report:?}");
        assert!(report.edges.iter().any(|e| (e.from, e.to) == (0, 1)));
    }

    #[test]
    fn synchronized_callee_grounds_receiver_edge() {
        // main holds pool[1] while invoking a synchronized callee with
        // receiver pool[0]: that is a grounded 1 -> 0 edge.
        use thinlock_vm::program::{Method, MethodFlags, Program};
        use thinlock_vm::Op;
        let mut p = Program::new(2);
        p.add_method(Method::new(
            "main",
            0,
            0,
            MethodFlags::default(),
            vec![
                Op::AConst(1),
                Op::MonitorEnter,
                Op::AConst(0),
                Op::Invoke(1),
                Op::AConst(1),
                Op::MonitorExit,
                Op::Return,
            ],
        ));
        p.add_method(Method::new(
            "locked",
            1,
            1,
            MethodFlags {
                synchronized: true,
                returns_value: false,
            },
            vec![Op::Return],
        ));
        let facts = lockstack::analyze_program(&p);
        let report = build(&facts);
        assert!(
            report.edges.iter().any(|e| (e.from, e.to) == (1, 0)),
            "{report:?}"
        );
        assert!(report.is_acyclic());
    }
}
