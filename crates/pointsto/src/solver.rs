//! The points-to solver: computes the transitive closure `G~` of the
//! extracted graph under the grammar `C_pt` (Figure 3).
//!
//! The implementation is an inclusion-based (Andersen) analysis over
//! points-to sets and a field-indexed abstract heap; the `Transfer` and
//! `Alias` relations of the paper are answered as queries over the final
//! solution:
//!
//! * `FlowsTo(o, x)`   ⇔  `o ∈ pts(x)`
//! * `Alias(x, y)`     ⇔  `pts(x) ∩ pts(y) ≠ ∅`
//! * `Transfer(x, y)`  ⇔  `y` is reachable from `x` in the *flow graph*
//!   (assign edges plus store/load pairs matched through aliased base
//!   objects), i.e. anything flowing into `x` also flows into `y`.
//!
//! [`Solver::solve`] runs difference propagation: edges are indexed per
//! node, each node carries a *delta* of objects not yet pushed to its
//! successors, and only nodes whose sets actually grew are revisited.
//! Field stores/loads are matched incrementally through a per-heap-cell
//! reader registry, so no edge is ever rescanned against an unchanged set.
//!
//! [`solve_naive`] is the original rescan-every-edge fixpoint, retained as
//! an executable specification: the equivalence tests and the solver
//! benchmark hold the worklist solver to it.  Nothing at run time selects
//! it.

use crate::graph::{Graph, Node, NodeId, ObjId};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// The points-to solver.  Stateless; see [`Solver::solve`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Solver;

impl Solver {
    /// Creates a solver.
    pub fn new() -> Solver {
        Solver
    }

    /// Computes the closure of `graph` by difference propagation.
    pub fn solve(&self, graph: &Graph) -> PointsToResult {
        solve_worklist(graph)
    }
}

/// Difference-propagation state shared by the worklist solver's rules.
struct WorklistState {
    /// Confirmed points-to sets.
    pts: Vec<BTreeSet<ObjId>>,
    /// Objects added to `pts` but not yet pushed along outgoing edges.
    delta: Vec<BTreeSet<ObjId>>,
    queued: Vec<bool>,
    worklist: VecDeque<NodeId>,
    heap: BTreeMap<(ObjId, u32), BTreeSet<ObjId>>,
    /// Load destinations registered per heap cell: when the cell grows, the
    /// growth is pushed to exactly these nodes instead of rescanning loads.
    cell_readers: HashMap<(ObjId, u32), Vec<NodeId>>,
}

impl WorklistState {
    fn enqueue(&mut self, v: NodeId) {
        if !self.queued[v.0 as usize] {
            self.queued[v.0 as usize] = true;
            self.worklist.push_back(v);
        }
    }

    /// Adds `objs` to `pts(w)`; newly added objects enter `delta(w)` and
    /// requeue `w`.
    fn add_objs(&mut self, w: NodeId, objs: &BTreeSet<ObjId>) {
        let wi = w.0 as usize;
        let mut grew = false;
        for &o in objs {
            if self.pts[wi].insert(o) {
                self.delta[wi].insert(o);
                grew = true;
            }
        }
        if grew {
            self.enqueue(w);
        }
    }

    /// Adds `objs` to the heap cell; the growth is pushed to every reader
    /// already registered on the cell.
    fn add_to_cell(&mut self, cell: (ObjId, u32), objs: &BTreeSet<ObjId>) {
        let slot = self.heap.entry(cell).or_default();
        let new: BTreeSet<ObjId> = objs.difference(slot).copied().collect();
        if new.is_empty() {
            return;
        }
        slot.extend(new.iter().copied());
        if let Some(readers) = self.cell_readers.get(&cell) {
            for dst in readers.clone() {
                self.add_objs(dst, &new);
            }
        }
    }
}

fn solve_worklist(graph: &Graph) -> PointsToResult {
    let n = graph.num_nodes();

    // Node-indexed adjacency, deduplicated so a duplicated edge in the input
    // never doubles the propagation work.
    let mut copy_succ: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for &(src, dst) in &graph.copy_edges {
        if src != dst {
            copy_succ[src.0 as usize].push(dst);
        }
    }
    // objvar -> (field, src): stores writing through the node.
    let mut stores_at: Vec<Vec<(u32, NodeId)>> = vec![Vec::new(); n];
    // src -> (field, objvar): stores reading the node's value.
    let mut stores_from: Vec<Vec<(u32, NodeId)>> = vec![Vec::new(); n];
    for store in &graph.store_edges {
        stores_at[store.objvar.0 as usize].push((store.field, store.src));
        stores_from[store.src.0 as usize].push((store.field, store.objvar));
    }
    // objvar -> (field, dst): loads reading through the node.
    let mut loads_at: Vec<Vec<(u32, NodeId)>> = vec![Vec::new(); n];
    for load in &graph.load_edges {
        loads_at[load.objvar.0 as usize].push((load.field, load.dst));
    }
    for adj in copy_succ.iter_mut() {
        adj.sort_unstable();
        adj.dedup();
    }
    for adj in stores_at
        .iter_mut()
        .chain(stores_from.iter_mut())
        .chain(loads_at.iter_mut())
    {
        adj.sort_unstable();
        adj.dedup();
    }

    let mut state = WorklistState {
        pts: vec![BTreeSet::new(); n],
        delta: vec![BTreeSet::new(); n],
        queued: vec![false; n],
        worklist: VecDeque::new(),
        heap: BTreeMap::new(),
        cell_readers: HashMap::new(),
    };

    // Seed with allocation edges.
    for &(o, v) in &graph.alloc_edges {
        let vi = v.0 as usize;
        if state.pts[vi].insert(o) {
            state.delta[vi].insert(o);
            state.enqueue(v);
        }
    }

    let mut iterations = 0usize;
    while let Some(v) = state.worklist.pop_front() {
        let vi = v.0 as usize;
        state.queued[vi] = false;
        let d = std::mem::take(&mut state.delta[vi]);
        if d.is_empty() {
            continue;
        }
        iterations += 1;

        // Assign edges: push the delta to every copy successor.
        for &w in &copy_succ[vi] {
            state.add_objs(w, &d);
        }

        // `v` is the value operand of a store: the new values reach every
        // heap cell the store already writes (bases discovered later are
        // handled by the objvar rule below).
        for &(field, objvar) in &stores_from[vi] {
            let bases: Vec<ObjId> = state.pts[objvar.0 as usize].iter().copied().collect();
            for base in bases {
                state.add_to_cell((base, field), &d);
            }
        }

        // `v` is the base of a store: each newly discovered base object
        // receives the store's current value set.
        for &(field, src) in &stores_at[vi] {
            let vals = state.pts[src.0 as usize].clone();
            if vals.is_empty() {
                // Still nothing to write; the src rule above fires once the
                // value set becomes non-empty.
                continue;
            }
            for &base in &d {
                state.add_to_cell((base, field), &vals);
            }
        }

        // `v` is the base of a load: register the destination as a reader of
        // each newly discovered cell and pull the cell's current contents.
        for &(field, dst) in &loads_at[vi] {
            for &base in &d {
                let cell = (base, field);
                let readers = state.cell_readers.entry(cell).or_default();
                if !readers.contains(&dst) {
                    readers.push(dst);
                }
                if let Some(contents) = state.heap.get(&cell) {
                    let contents = contents.clone();
                    state.add_objs(dst, &contents);
                }
            }
        }
    }

    let flow_succ = derive_flow_succ(graph, &state.pts);
    PointsToResult {
        pts: state.pts,
        heap: state.heap,
        flow_succ,
        iterations,
    }
}

/// The original naive fixpoint: rescans every edge each round until nothing
/// changes.  Quadratic in the worst case, but trivially correct — kept as
/// the reference the worklist algorithm ([`Solver::solve`]) is checked
/// against.
pub fn solve_naive(graph: &Graph) -> PointsToResult {
    let n = graph.num_nodes();
    let mut pts: Vec<BTreeSet<ObjId>> = vec![BTreeSet::new(); n];
    let mut heap: BTreeMap<(ObjId, u32), BTreeSet<ObjId>> = BTreeMap::new();

    // Seed with allocation edges.
    for &(o, v) in &graph.alloc_edges {
        pts[v.0 as usize].insert(o);
    }

    let mut iterations = 0usize;
    loop {
        iterations += 1;
        let mut changed = false;

        for &(src, dst) in &graph.copy_edges {
            if src == dst {
                continue;
            }
            let add: Vec<ObjId> = pts[src.0 as usize]
                .difference(&pts[dst.0 as usize])
                .copied()
                .collect();
            if !add.is_empty() {
                pts[dst.0 as usize].extend(add);
                changed = true;
            }
        }

        for store in &graph.store_edges {
            if pts[store.src.0 as usize].is_empty() {
                continue;
            }
            let bases: Vec<ObjId> = pts[store.objvar.0 as usize].iter().copied().collect();
            for base in bases {
                let cell = heap.entry((base, store.field)).or_default();
                let before = cell.len();
                cell.extend(pts[store.src.0 as usize].iter().copied());
                if cell.len() != before {
                    changed = true;
                }
            }
        }

        for load in &graph.load_edges {
            let bases: Vec<ObjId> = pts[load.objvar.0 as usize].iter().copied().collect();
            for base in bases {
                if let Some(cell) = heap.get(&(base, load.field)) {
                    let add: Vec<ObjId> = cell
                        .difference(&pts[load.dst.0 as usize])
                        .copied()
                        .collect();
                    if !add.is_empty() {
                        pts[load.dst.0 as usize].extend(add);
                        changed = true;
                    }
                }
            }
        }

        if !changed {
            break;
        }
    }

    let flow_succ = derive_flow_succ(graph, &pts);
    PointsToResult {
        pts,
        heap,
        flow_succ,
        iterations,
    }
}

/// Derives the flow graph used for `Transfer` queries from the final
/// points-to solution: assign edges plus store/load pairs matched through a
/// common base object and field.
fn derive_flow_succ(graph: &Graph, pts: &[BTreeSet<ObjId>]) -> Vec<BTreeSet<NodeId>> {
    let n = graph.num_nodes();
    let mut flow_succ: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); n];
    for &(src, dst) in &graph.copy_edges {
        if src != dst {
            flow_succ[src.0 as usize].insert(dst);
        }
    }
    let mut writers: HashMap<(ObjId, u32), Vec<NodeId>> = HashMap::new();
    for store in &graph.store_edges {
        for &base in &pts[store.objvar.0 as usize] {
            writers
                .entry((base, store.field))
                .or_default()
                .push(store.src);
        }
    }
    for load in &graph.load_edges {
        for &base in &pts[load.objvar.0 as usize] {
            if let Some(srcs) = writers.get(&(base, load.field)) {
                for &src in srcs {
                    if src != load.dst {
                        flow_succ[src.0 as usize].insert(load.dst);
                    }
                }
            }
        }
    }
    flow_succ
}

/// The result of the points-to analysis: the computed closure `G~`.
#[derive(Debug, Clone)]
pub struct PointsToResult {
    pts: Vec<BTreeSet<ObjId>>,
    heap: BTreeMap<(ObjId, u32), BTreeSet<ObjId>>,
    flow_succ: Vec<BTreeSet<NodeId>>,
    iterations: usize,
}

/// Two results are equal when they encode the same closure — points-to sets,
/// abstract heap, and flow graph.  The `iterations` diagnostic is excluded:
/// different algorithms reach the same fixpoint in different step counts.
impl PartialEq for PointsToResult {
    fn eq(&self, other: &PointsToResult) -> bool {
        self.pts == other.pts && self.heap == other.heap && self.flow_succ == other.flow_succ
    }
}

impl Eq for PointsToResult {}

impl PointsToResult {
    /// The points-to set of a node (`FlowsTo` edges into the node).
    pub fn points_to(&self, node: NodeId) -> &BTreeSet<ObjId> {
        &self.pts[node.0 as usize]
    }

    /// The points-to set of a node identified by its [`Node`] key, or an
    /// empty set if the node does not appear in the graph.
    pub fn points_to_node(&self, graph: &Graph, node: Node) -> BTreeSet<ObjId> {
        graph
            .find_node(node)
            .map(|id| self.points_to(id).clone())
            .unwrap_or_default()
    }

    /// The contents of the abstract heap cell `(obj, field)`.
    pub fn heap_cell(&self, obj: ObjId, field: u32) -> Option<&BTreeSet<ObjId>> {
        self.heap.get(&(obj, field))
    }

    /// Iterates over all abstract heap cells.
    pub fn heap_cells(&self) -> impl Iterator<Item = (&(ObjId, u32), &BTreeSet<ObjId>)> {
        self.heap.iter()
    }

    /// `Alias(a, b)`: the two variables may point to a common object.
    pub fn alias(&self, a: NodeId, b: NodeId) -> bool {
        let (pa, pb) = (&self.pts[a.0 as usize], &self.pts[b.0 as usize]);
        if pa.len() > pb.len() {
            pb.iter().any(|o| pa.contains(o))
        } else {
            pa.iter().any(|o| pb.contains(o))
        }
    }

    /// `Transfer(from, to)`: everything flowing into `from` also flows into
    /// `to` (reflexive).
    pub fn transfer(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return true;
        }
        let mut seen = HashSet::new();
        let mut queue = VecDeque::new();
        seen.insert(from);
        queue.push_back(from);
        while let Some(cur) = queue.pop_front() {
            for &next in &self.flow_succ[cur.0 as usize] {
                if next == to {
                    return true;
                }
                if seen.insert(next) {
                    queue.push_back(next);
                }
            }
        }
        false
    }

    /// The full set of nodes reachable from `from` in the flow graph
    /// (the `Transfer` image of `from`), excluding `from` itself.
    pub fn transfer_image(&self, from: NodeId) -> BTreeSet<NodeId> {
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::new();
        queue.push_back(from);
        while let Some(cur) = queue.pop_front() {
            for &next in &self.flow_succ[cur.0 as usize] {
                if seen.insert(next) {
                    queue.push_back(next);
                }
            }
        }
        seen
    }

    /// Number of fixpoint steps the solver took (a diagnostics metric: full
    /// rounds for the naive algorithm, productive node visits for the
    /// worklist).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Total number of `FlowsTo` (points-to) edges in the solution.
    pub fn num_points_to_edges(&self) -> usize {
        self.pts.iter().map(|s| s.len()).sum()
    }

    /// All points-to edges `(node, obj)`.
    pub fn points_to_edges(&self) -> impl Iterator<Item = (NodeId, ObjId)> + '_ {
        self.pts
            .iter()
            .enumerate()
            .flat_map(|(i, set)| set.iter().map(move |&o| (NodeId(i as u32), o)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::tests::box_program;
    use crate::graph::{ExtractionOptions, LoadEdge, Node, StoreEdge};
    use atlas_ir::Var;

    #[test]
    fn box_example_with_implementation() {
        let p = box_program();
        let g = Graph::extract(&p, &ExtractionOptions::with_implementation());
        let r = Solver::new().solve(&g);
        let test = p.method_qualified("Main.test").unwrap();
        let tm = p.method(test);
        let in_node = g
            .find_node(Node::Var(test, tm.var_named("in").unwrap()))
            .unwrap();
        let out_node = g
            .find_node(Node::Var(test, tm.var_named("out").unwrap()))
            .unwrap();
        let box_node = g
            .find_node(Node::Var(test, tm.var_named("box").unwrap()))
            .unwrap();
        // `out` sees o_in through the heap: in is stored into box.f by set,
        // loaded by get.
        assert!(r.alias(in_node, out_node), "in and out must alias");
        assert!(!r.alias(in_node, box_node), "in and box must not alias");
        // Transfer: the parameter of set transfers to the return of get.
        let set = p.method_qualified("Box.set").unwrap();
        let get = p.method_qualified("Box.get").unwrap();
        let ob = g
            .find_node(Node::Var(set, p.method(set).param_var(0)))
            .unwrap();
        let rget = g.find_node(Node::Ret(get)).unwrap();
        assert!(r.transfer(ob, rget));
        assert!(!r.transfer(rget, ob));
        assert!(r.transfer(ob, ob), "transfer is reflexive");
        assert!(r.iterations() >= 2);
        assert!(r.num_points_to_edges() > 4);
    }

    #[test]
    fn box_example_without_specs_loses_flow() {
        let p = box_program();
        let g = Graph::extract(&p, &ExtractionOptions::empty_specs());
        let r = Solver::new().solve(&g);
        let test = p.method_qualified("Main.test").unwrap();
        let tm = p.method(test);
        let in_node = g
            .find_node(Node::Var(test, tm.var_named("in").unwrap()))
            .unwrap();
        let out_node = g
            .find_node(Node::Var(test, tm.var_named("out").unwrap()))
            .unwrap();
        assert!(
            !r.alias(in_node, out_node),
            "without library bodies, no flow"
        );
        // `out` points to nothing.
        assert!(r.points_to(out_node).is_empty());
    }

    #[test]
    fn clone_chains_are_tracked_through_implementation() {
        // in -> box.set, box2 = box.clone(), out = box2.get(): out aliases in.
        use atlas_ir::builder::ProgramBuilder;
        use atlas_ir::Type;
        let p = {
            // Extend the Box program with a client that clones.
            let mut pb = ProgramBuilder::new();
            pb.class("Object").build();
            let mut c = pb.class("Box");
            c.library(true);
            c.field("f", Type::object());
            let mut set = c.method("set");
            let this = set.this();
            let ob = set.param("ob", Type::object());
            set.store(this, "f", ob);
            set.finish();
            let mut get = c.method("get");
            get.returns(Type::object());
            let this = get.this();
            let r = get.local("r", Type::object());
            get.load(r, this, "f");
            get.ret(Some(r));
            get.finish();
            let mut clone = c.method("clone");
            clone.returns(Type::class("Box"));
            let this = clone.this();
            let b = clone.local("b", Type::class("Box"));
            let tmp = clone.local("tmp", Type::object());
            let box_class = clone.cref("Box");
            clone.new_object(b, box_class);
            clone.load(tmp, this, "f");
            clone.store(b, "f", tmp);
            clone.ret(Some(b));
            clone.finish();
            c.build();
            let mut main = pb.class("Main");
            let mut t = main.static_method("test");
            let in_v = t.local("in", Type::object());
            let box_v = t.local("box", Type::class("Box"));
            let box2 = t.local("box2", Type::class("Box"));
            let out_v = t.local("out", Type::object());
            let obj = t.cref("Object");
            let boxc = t.cref("Box");
            t.new_object(in_v, obj);
            t.new_object(box_v, boxc);
            let set = t.mref("Box", "set");
            let get = t.mref("Box", "get");
            let clone = t.mref("Box", "clone");
            t.call(None, set, Some(box_v), &[in_v]);
            t.call(Some(box2), clone, Some(box_v), &[]);
            t.call(Some(out_v), get, Some(box2), &[]);
            t.finish();
            main.build();
            pb.build()
        };
        let g = Graph::extract(&p, &ExtractionOptions::with_implementation());
        let r = Solver::new().solve(&g);
        let test = p.method_qualified("Main.test").unwrap();
        let tm = p.method(test);
        let in_node = g
            .find_node(Node::Var(test, tm.var_named("in").unwrap()))
            .unwrap();
        let out_node = g
            .find_node(Node::Var(test, tm.var_named("out").unwrap()))
            .unwrap();
        assert!(r.alias(in_node, out_node));
        // transfer_image of `in` contains `out`.
        assert!(r.transfer_image(in_node).contains(&out_node));
    }

    #[test]
    fn heap_cells_are_exposed() {
        let p = box_program();
        let g = Graph::extract(&p, &ExtractionOptions::with_implementation());
        let r = Solver::new().solve(&g);
        // box.f contains o_in; at least one heap cell exists.
        assert!(r.heap_cells().count() >= 1);
        let (cell, contents) = r.heap_cells().next().unwrap();
        assert!(r.heap_cell(cell.0, cell.1).is_some());
        assert!(!contents.is_empty());
    }

    #[test]
    fn points_to_node_missing_is_empty() {
        let p = box_program();
        let g = Graph::extract(&p, &ExtractionOptions::empty_specs());
        let r = Solver::new().solve(&g);
        let clone = p.method_qualified("Box.clone").unwrap();
        // clone body was never analyzed, so its local var node is absent.
        let missing = Node::Var(clone, Var::from_index(5));
        assert!(r.points_to_node(&g, missing).is_empty());
    }

    #[test]
    fn worklist_matches_naive_on_extracted_graphs() {
        let p = box_program();
        for options in [
            ExtractionOptions::with_implementation(),
            ExtractionOptions::empty_specs(),
        ] {
            let g = Graph::extract(&p, &options);
            let worklist = Solver::new().solve(&g);
            let naive = solve_naive(&g);
            assert_eq!(worklist, naive);
        }
    }

    /// A tiny deterministic LCG, enough to drive randomized graphs without
    /// a dev-dependency.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self, bound: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) % bound as u64) as usize
        }
    }

    /// Builds a pseudo-random synthetic constraint graph.
    fn random_graph(seed: u64, nodes: usize, objs: usize, edges: usize, fields: u32) -> Graph {
        let mut g = Graph::synthetic(nodes, objs);
        let mut rng = Lcg(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
        for _ in 0..objs.max(1) {
            g.alloc_edges
                .push((ObjId(rng.next(objs) as u32), NodeId(rng.next(nodes) as u32)));
        }
        for _ in 0..edges {
            match rng.next(4) {
                0 => {
                    let (s, d) = (
                        NodeId(rng.next(nodes) as u32),
                        NodeId(rng.next(nodes) as u32),
                    );
                    g.copy_edges.push((s, d));
                }
                1 => g
                    .alloc_edges
                    .push((ObjId(rng.next(objs) as u32), NodeId(rng.next(nodes) as u32))),
                2 => g.store_edges.push(StoreEdge {
                    src: NodeId(rng.next(nodes) as u32),
                    field: rng.next(fields as usize) as u32,
                    objvar: NodeId(rng.next(nodes) as u32),
                }),
                _ => g.load_edges.push(LoadEdge {
                    objvar: NodeId(rng.next(nodes) as u32),
                    field: rng.next(fields as usize) as u32,
                    dst: NodeId(rng.next(nodes) as u32),
                }),
            }
        }
        g
    }

    #[test]
    fn worklist_matches_naive_on_randomized_graphs() {
        for seed in 0..60 {
            let g = random_graph(seed, 24, 8, 80, 3);
            let worklist = Solver::new().solve(&g);
            let naive = solve_naive(&g);
            assert_eq!(worklist, naive, "closure mismatch at seed {seed}");
            assert_eq!(
                worklist.num_points_to_edges(),
                naive.num_points_to_edges(),
                "edge count mismatch at seed {seed}"
            );
        }
    }

    #[test]
    fn self_loops_and_duplicate_edges_are_harmless() {
        let mut g = Graph::synthetic(3, 2);
        g.alloc_edges.push((ObjId(0), NodeId(0)));
        g.alloc_edges.push((ObjId(0), NodeId(0)));
        g.copy_edges.push((NodeId(0), NodeId(0)));
        g.copy_edges.push((NodeId(0), NodeId(1)));
        g.copy_edges.push((NodeId(0), NodeId(1)));
        g.store_edges.push(StoreEdge {
            src: NodeId(1),
            field: 0,
            objvar: NodeId(1),
        });
        g.store_edges.push(StoreEdge {
            src: NodeId(1),
            field: 0,
            objvar: NodeId(1),
        });
        g.load_edges.push(LoadEdge {
            objvar: NodeId(1),
            field: 0,
            dst: NodeId(2),
        });
        let worklist = Solver::new().solve(&g);
        let naive = solve_naive(&g);
        assert_eq!(worklist, naive);
        // o0 flows 0 -> 1, is stored into o0.f0 through node 1 (which holds
        // o0 itself), and is loaded back out into node 2.
        assert!(worklist.points_to(NodeId(2)).contains(&ObjId(0)));
    }
}
