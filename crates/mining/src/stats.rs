//! Corpus observation database.
//!
//! One pass over the corpus aggregates every statistic the template library
//! needs: attribute value distributions, intra-resource joint counts, typed
//! edge-pattern statistics, sibling/hub/copath co-occurrences, degree
//! histograms, and nested-block lengths. Template instantiation then never
//! has to touch the corpus again — candidate confidence comes straight from
//! these counters (the association-rule formulation of §3.3).
//!
//! All keys are interned [`Symbol`]s: resource types and attribute paths
//! recur across every table, so interning makes key comparison O(1) and the
//! same symbols flow straight into the check IR when templates instantiate.

use std::collections::{BTreeMap, BTreeSet};
use zodiac_graph::ResourceGraph;
use zodiac_kb::{KnowledgeBase, ValueFormat};
use zodiac_model::{Cidr, Program, Resource, Symbol, Value};

/// `(rtype, attr)` pair.
pub type TypeAttr = (Symbol, Symbol);

/// Key for intra-resource joint counts: `(rtype, cond_attr, cond_value)`.
pub type CondKey = (Symbol, Symbol, Value);

/// Key for a typed edge pattern:
/// `(src_type, in_endpoint, dst_type, out_attr)`.
pub type EdgeKey = (Symbol, Symbol, Symbol, Symbol);

/// Statistics per typed edge pattern.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeStats {
    /// Number of edge occurrences.
    pub occurrences: usize,
    /// Same-path attribute equality: attr → (equal, both-present).
    pub attr_eq: BTreeMap<Symbol, (usize, usize)>,
    /// Destination attribute value counts (enum-ish attrs only).
    pub dst_vals: BTreeMap<(Symbol, Value), usize>,
    /// Source attribute value counts (enum-ish attrs only).
    pub src_vals: BTreeMap<(Symbol, Value), usize>,
    /// `contain(dst.a, src.b)` counts: (a, b) → (holds, both-present).
    pub contain: BTreeMap<(Symbol, Symbol), (usize, usize)>,
    /// Edges whose destination has exactly one incoming edge from the
    /// source type.
    pub dst_indeg_one: usize,
    /// Edges whose destination has zero incoming edges from other types.
    pub dst_excl: usize,
}

/// Pairwise statistics (siblings / copath): attr → (non-overlapping, total).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PairStats {
    /// Per-attribute overlap counts.
    pub overlap: BTreeMap<Symbol, (usize, usize)>,
    /// Number of pairs observed.
    pub pairs: usize,
}

/// Hub pattern key: `(src_type, ep1, dst1, out1, ep2, dst2, out2)`.
pub type HubKey = (Symbol, Symbol, Symbol, Symbol, Symbol, Symbol, Symbol);

/// Hub statistics: one source referencing two destinations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HubStats {
    /// Occurrences of the hub pattern.
    pub occurrences: usize,
    /// Name-attribute inequality: (a1, a2) → (different, both-present).
    pub name_ne: BTreeMap<(Symbol, Symbol), (usize, usize)>,
    /// CIDR non-overlap: (a1, a2) → (non-overlapping, both-present).
    pub no_overlap: BTreeMap<(Symbol, Symbol), (usize, usize)>,
}

/// Degree statistics under a condition:
/// `(rtype, cond_attr, cond_value, direction, τ)` → stats.
pub type DegreeKey = (Symbol, Symbol, Value, Direction, Symbol);

/// Edge direction for degree aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// Incoming edges.
    In,
    /// Outgoing edges.
    Out,
}

/// Observed degree aggregate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegreeStats {
    /// Maximum observed degree.
    pub max: i64,
    /// Resources observed with non-zero degree.
    pub count: usize,
}

/// Length statistics: `(rtype, cond_attr, cond_value, list_attr)` →
/// (min length, count).
pub type LengthKey = (Symbol, Symbol, Value, Symbol);

/// The full observation database.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CorpusStats {
    /// Number of programs observed.
    pub total_programs: usize,
    /// Instances per resource type.
    pub resource_count: BTreeMap<Symbol, usize>,
    /// Presence count per `(rtype, attr)`.
    pub attr_present: BTreeMap<TypeAttr, usize>,
    /// Value count per `(rtype, attr, value)`.
    pub attr_value: BTreeMap<(Symbol, Symbol, Value), usize>,
    /// All attrs seen per rtype.
    pub attrs_of: BTreeMap<Symbol, BTreeSet<Symbol>>,
    /// Condition support: identical to `attr_value` restricted to enum-ish
    /// condition attributes.
    pub cond_support: BTreeMap<CondKey, usize>,
    /// Joint value counts: cond → (attr2, v2) → count.
    pub joint_value: BTreeMap<CondKey, BTreeMap<(Symbol, Value), usize>>,
    /// Joint presence: cond → attr2 → count.
    pub joint_present: BTreeMap<CondKey, BTreeMap<Symbol, usize>>,
    /// Typed edge patterns.
    pub edges: BTreeMap<EdgeKey, EdgeStats>,
    /// Sibling patterns: `(src_type, in_endpoint, dst_type, out_attr)`.
    pub siblings: BTreeMap<EdgeKey, PairStats>,
    /// Hub patterns: `(src_type, ep1, dst1, out1, ep2, dst2, out2)` with
    /// `ep1 < ep2`.
    pub hubs: BTreeMap<HubKey, HubStats>,
    /// Copath pairs: `(a_type, c_type)`.
    pub copaths: BTreeMap<(Symbol, Symbol), PairStats>,
    /// Path-connected location equality: `(a_type, b_type)` → (eq, both).
    pub path_loc_eq: BTreeMap<(Symbol, Symbol), (usize, usize)>,
    /// Conditioned degrees.
    pub degrees: BTreeMap<DegreeKey, DegreeStats>,
    /// Conditioned block lengths.
    pub lengths: BTreeMap<LengthKey, (i64, usize)>,
}

impl CorpusStats {
    /// Builds the database in one pass over the corpus.
    ///
    /// `use_kb` controls which attributes count as enum-ish conditions: with
    /// the KB, only declared `Enum`/`Bool` attributes qualify (plus reserved
    /// names for statement values); without it, *every* observed string or
    /// boolean value does — the unconstrained search space of Figure 7a.
    pub fn build(programs: &[Program], kb: &KnowledgeBase, use_kb: bool) -> Self {
        let mut s = CorpusStats::default();
        let mut arena = FlattenArena::default();
        for program in programs {
            s.observe_program_with(program, kb, use_kb, &mut arena);
        }
        s
    }

    /// Observes one program into the database. Every observation a program
    /// contributes depends only on that program (within `observe_graph` the
    /// intra pass populates `attrs_of` before the sibling pass reads it),
    /// so `build` over any partition of a corpus, merged with
    /// [`CorpusStats::merge_from`], equals the monolithic build — the
    /// invariant sharded mining rests on.
    pub fn observe_program(&mut self, program: &Program, kb: &KnowledgeBase, use_kb: bool) {
        self.observe_program_with(program, kb, use_kb, &mut FlattenArena::default());
    }

    /// [`CorpusStats::observe_program`] with a caller-held [`FlattenArena`],
    /// so a shard worker streaming thousands of projects reuses one
    /// allocation for every project's flattened attribute vectors.
    pub fn observe_program_with(
        &mut self,
        program: &Program,
        kb: &KnowledgeBase,
        use_kb: bool,
        arena: &mut FlattenArena,
    ) {
        self.total_programs += 1;
        let graph = ResourceGraph::build(program.clone());
        arena.begin(&graph, kb, use_kb);
        self.observe_graph(&graph, kb, use_kb, arena);
    }

    /// Merges another database into this one: the **exact**, order- and
    /// partition-insensitive shard merge.
    ///
    /// Every table is an integer counter (sums), a set (unions), or a
    /// monotone fold (degree maxima, length minima) — there is no floating-
    /// point accumulation anywhere, so merging shards in any order yields
    /// bit-identical state, and the probabilities ([`CorpusStats::p_value`]
    /// & friends) derived from the merged counters at query time are
    /// bit-identical too. [`crate::IncrementalStats`] absorbs per-project
    /// contributions through this same method, keeping the daemon's
    /// incremental database field-for-field consistent with shard merges.
    pub fn merge_from(&mut self, other: &CorpusStats) {
        self.total_programs += other.total_programs;
        for (k, n) in &other.resource_count {
            *self.resource_count.entry(*k).or_default() += n;
        }
        for (k, n) in &other.attr_present {
            *self.attr_present.entry(*k).or_default() += n;
        }
        for (k, n) in &other.attr_value {
            *self.attr_value.entry(k.clone()).or_default() += n;
        }
        for (rt, attrs) in &other.attrs_of {
            self.attrs_of
                .entry(*rt)
                .or_default()
                .extend(attrs.iter().copied());
        }
        for (k, n) in &other.cond_support {
            *self.cond_support.entry(k.clone()).or_default() += n;
        }
        for (k, inner) in &other.joint_value {
            let dst = self.joint_value.entry(k.clone()).or_default();
            for (ik, n) in inner {
                *dst.entry(ik.clone()).or_default() += n;
            }
        }
        for (k, inner) in &other.joint_present {
            let dst = self.joint_present.entry(k.clone()).or_default();
            for (ik, n) in inner {
                *dst.entry(*ik).or_default() += n;
            }
        }
        for (k, e) in &other.edges {
            let dst = self.edges.entry(*k).or_default();
            dst.occurrences += e.occurrences;
            dst.dst_indeg_one += e.dst_indeg_one;
            dst.dst_excl += e.dst_excl;
            for (a, (x, y)) in &e.attr_eq {
                let t = dst.attr_eq.entry(*a).or_default();
                t.0 += x;
                t.1 += y;
            }
            for (a, n) in &e.dst_vals {
                *dst.dst_vals.entry(a.clone()).or_default() += n;
            }
            for (a, n) in &e.src_vals {
                *dst.src_vals.entry(a.clone()).or_default() += n;
            }
            for (a, (x, y)) in &e.contain {
                let t = dst.contain.entry(*a).or_default();
                t.0 += x;
                t.1 += y;
            }
        }
        for (k, p) in &other.siblings {
            let dst = self.siblings.entry(*k).or_default();
            dst.pairs += p.pairs;
            for (a, (x, y)) in &p.overlap {
                let t = dst.overlap.entry(*a).or_default();
                t.0 += x;
                t.1 += y;
            }
        }
        for (k, h) in &other.hubs {
            let dst = self.hubs.entry(*k).or_default();
            dst.occurrences += h.occurrences;
            for (a, (x, y)) in &h.name_ne {
                let t = dst.name_ne.entry(*a).or_default();
                t.0 += x;
                t.1 += y;
            }
            for (a, (x, y)) in &h.no_overlap {
                let t = dst.no_overlap.entry(*a).or_default();
                t.0 += x;
                t.1 += y;
            }
        }
        for (k, p) in &other.copaths {
            let dst = self.copaths.entry(*k).or_default();
            dst.pairs += p.pairs;
            for (a, (x, y)) in &p.overlap {
                let t = dst.overlap.entry(*a).or_default();
                t.0 += x;
                t.1 += y;
            }
        }
        for (k, (x, y)) in &other.path_loc_eq {
            let t = self.path_loc_eq.entry(*k).or_default();
            t.0 += x;
            t.1 += y;
        }
        for (k, d) in &other.degrees {
            let entry = self.degrees.entry(k.clone()).or_default();
            entry.max = entry.max.max(d.max);
            entry.count += d.count;
        }
        for (k, (min, count)) in &other.lengths {
            let entry = self.lengths.entry(k.clone()).or_insert((i64::MAX, 0));
            entry.0 = entry.0.min(*min);
            entry.1 += count;
        }
    }

    /// The marginal probability `P(rtype.attr == value)`.
    pub fn p_value(&self, rtype: impl Into<Symbol>, attr: impl Into<Symbol>, value: &Value) -> f64 {
        let rtype = rtype.into();
        let total = self.resource_count.get(&rtype).copied().unwrap_or(0);
        if total == 0 {
            return 0.0;
        }
        let n = self
            .attr_value
            .get(&(rtype, attr.into(), value.clone()))
            .copied()
            .unwrap_or(0);
        n as f64 / total as f64
    }

    /// The marginal probability `P(rtype.attr present)`.
    pub fn p_present(&self, rtype: impl Into<Symbol>, attr: impl Into<Symbol>) -> f64 {
        let rtype = rtype.into();
        let total = self.resource_count.get(&rtype).copied().unwrap_or(0);
        if total == 0 {
            return 0.0;
        }
        let n = self
            .attr_present
            .get(&(rtype, attr.into()))
            .copied()
            .unwrap_or(0);
        n as f64 / total as f64
    }

    /// Probability that two independent draws of `(t1.a1, t2.a2)` are
    /// equal, from the observed value distributions.
    pub fn p_eq(
        &self,
        t1: impl Into<Symbol>,
        a1: impl Into<Symbol>,
        t2: impl Into<Symbol>,
        a2: impl Into<Symbol>,
    ) -> f64 {
        let d1 = self.value_dist(t1.into(), a1.into());
        let d2 = self.value_dist(t2.into(), a2.into());
        let mut p = 0.0;
        for (v, p1) in &d1 {
            if let Some((_, p2)) = d2.iter().find(|(w, _)| w == v) {
                p += p1 * p2;
            }
        }
        p
    }

    /// Probability that two independent CIDR draws overlap.
    pub fn p_overlap(
        &self,
        t1: impl Into<Symbol>,
        a1: impl Into<Symbol>,
        t2: impl Into<Symbol>,
        a2: impl Into<Symbol>,
    ) -> f64 {
        let c1 = self.cidr_dist(t1.into(), a1.into());
        let c2 = self.cidr_dist(t2.into(), a2.into());
        let mut p = 0.0;
        for (x, p1) in &c1 {
            for (y, p2) in &c2 {
                if x.overlaps(y) {
                    p += p1 * p2;
                }
            }
        }
        p
    }

    /// Probability that `contain(t1.a1, t2.a2)` holds for independent draws.
    pub fn p_contain(
        &self,
        t1: impl Into<Symbol>,
        a1: impl Into<Symbol>,
        t2: impl Into<Symbol>,
        a2: impl Into<Symbol>,
    ) -> f64 {
        let c1 = self.cidr_dist(t1.into(), a1.into());
        let c2 = self.cidr_dist(t2.into(), a2.into());
        let mut p = 0.0;
        for (x, p1) in &c1 {
            for (y, p2) in &c2 {
                if x.contains(y) {
                    p += p1 * p2;
                }
            }
        }
        p
    }

    fn value_dist(&self, rtype: Symbol, attr: Symbol) -> Vec<(Value, f64)> {
        let total = self.resource_count.get(&rtype).copied().unwrap_or(0).max(1) as f64;
        let mut out: Vec<(Value, f64)> = self
            .attr_value
            .iter()
            .filter(|((t, a, _), _)| *t == rtype && *a == attr)
            .map(|((_, _, v), n)| (v.clone(), *n as f64 / total))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out.truncate(64);
        out
    }

    fn cidr_dist(&self, rtype: Symbol, attr: Symbol) -> Vec<(Cidr, f64)> {
        self.value_dist(rtype, attr)
            .into_iter()
            .filter_map(|(v, p)| v.as_str().and_then(|s| s.parse().ok()).map(|c| (c, p)))
            .collect()
    }

    fn observe_graph(
        &mut self,
        graph: &ResourceGraph,
        kb: &KnowledgeBase,
        use_kb: bool,
        arena: &FlattenArena,
    ) {
        // --- per-resource (intra) observations -------------------------
        for idx in 0..graph.len() {
            let r = graph.resource(idx);
            let rt = Symbol::intern(&r.rtype);
            *self.resource_count.entry(rt).or_default() += 1;
            let leaves = arena.leaves(idx);
            for (attr, _) in leaves {
                self.attrs_of.entry(rt).or_default().insert(*attr);
            }
            for (attr, v) in leaves {
                *self.attr_present.entry((rt, *attr)).or_default() += 1;
                if track_value(v) {
                    *self.attr_value.entry((rt, *attr, v.clone())).or_default() += 1;
                }
            }
            // Joint counts under each enum-ish condition.
            let conds: Vec<(Symbol, Value)> = leaves
                .iter()
                .filter(|(a, v)| is_cond_attr(kb, use_kb, &r.rtype, a, v))
                .map(|(a, v)| (*a, v.clone()))
                .collect();
            for (ca, cv) in &conds {
                let key = (rt, *ca, cv.clone());
                *self.cond_support.entry(key.clone()).or_default() += 1;
                let jv = self.joint_value.entry(key.clone()).or_default();
                let jp = self.joint_present.entry(key).or_default();
                for (attr, v) in leaves {
                    if attr == ca {
                        continue;
                    }
                    *jp.entry(*attr).or_default() += 1;
                    if track_value(v) {
                        *jv.entry((*attr, v.clone())).or_default() += 1;
                    }
                }
            }
            // Conditioned degrees and lengths.
            let mut touched: BTreeSet<(Direction, Symbol)> = BTreeSet::new();
            for e in graph.out_edges(idx) {
                touched.insert((Direction::Out, Symbol::intern(&graph.resource(e.dst).rtype)));
            }
            for e in graph.in_edges(idx) {
                touched.insert((Direction::In, Symbol::intern(&graph.resource(e.src).rtype)));
            }
            for (ca, cv) in &conds {
                for (dir, tau) in &touched {
                    let deg = match dir {
                        Direction::In => graph.distinct_in_neighbors(idx, tau, false),
                        Direction::Out => graph.distinct_out_neighbors(idx, tau, false),
                    } as i64;
                    let entry = self
                        .degrees
                        .entry((rt, *ca, cv.clone(), *dir, *tau))
                        .or_default();
                    entry.max = entry.max.max(deg);
                    entry.count += 1;
                }
                for (attr, value) in &r.attrs {
                    if let Value::List(l) = value {
                        if l.iter().all(|x| matches!(x, Value::Map(_))) {
                            let key = (rt, *ca, cv.clone(), Symbol::intern(attr));
                            let entry = self.lengths.entry(key).or_insert((i64::MAX, 0));
                            entry.0 = entry.0.min(l.len() as i64);
                            entry.1 += 1;
                        }
                    }
                }
            }
        }

        // --- edge observations ------------------------------------------
        for e in graph.edges() {
            let src = graph.resource(e.src);
            let dst = graph.resource(e.dst);
            let key: EdgeKey = (
                Symbol::intern(&src.rtype),
                Symbol::intern(&e.in_endpoint),
                Symbol::intern(&dst.rtype),
                Symbol::intern(&e.out_attr),
            );
            let src_leaves = arena.leaves(e.src);
            let dst_leaves = arena.leaves(e.dst);
            let stats = self.edges.entry(key).or_default();
            stats.occurrences += 1;
            // Same-path equality.
            for (a, v) in src_leaves {
                if let Some((_, w)) = dst_leaves.iter().find(|(b, _)| b == a) {
                    let entry = stats.attr_eq.entry(*a).or_default();
                    entry.1 += 1;
                    if v == w {
                        entry.0 += 1;
                    }
                }
            }
            // Enum-ish statement values on both sides.
            for (a, v) in dst_leaves.iter() {
                if is_stmt_value(kb, use_kb, &dst.rtype, a, v) {
                    *stats.dst_vals.entry((*a, v.clone())).or_default() += 1;
                }
            }
            for (a, v) in src_leaves.iter() {
                if is_stmt_value(kb, use_kb, &src.rtype, a, v) {
                    *stats.src_vals.entry((*a, v.clone())).or_default() += 1;
                }
            }
            // Containment between CIDR attributes.
            for (da, dv) in dst_leaves
                .iter()
                .filter(|(a, _)| is_cidr_attr(kb, use_kb, &dst.rtype, a))
            {
                for (sa, sv) in src_leaves
                    .iter()
                    .filter(|(a, _)| is_cidr_attr(kb, use_kb, &src.rtype, a))
                {
                    let entry = stats.contain.entry((*da, *sa)).or_default();
                    entry.1 += 1;
                    if cidr_contains_any(dst, da, src, sa, dv, sv) {
                        entry.0 += 1;
                    }
                }
            }
            // Degree facts about the destination.
            let indeg_same = graph.distinct_in_neighbors(e.dst, &src.rtype, false);
            let indeg_other = graph.distinct_in_neighbors(e.dst, &src.rtype, true);
            if indeg_same == 1 {
                stats.dst_indeg_one += 1;
            }
            if indeg_other == 0 {
                stats.dst_excl += 1;
            }
        }

        // --- sibling patterns --------------------------------------------
        self.observe_siblings(graph, kb, use_kb);
        // --- hub patterns -------------------------------------------------
        self.observe_hubs(graph, kb, use_kb);
        // --- copath + path patterns --------------------------------------
        self.observe_paths(graph, kb, use_kb);
    }

    fn observe_siblings(&mut self, graph: &ResourceGraph, kb: &KnowledgeBase, use_kb: bool) {
        for dst in 0..graph.len() {
            // Group incoming edges by (src_type, endpoint).
            let mut groups: BTreeMap<(Symbol, Symbol, Symbol), Vec<usize>> = BTreeMap::new();
            for e in graph.in_edges(dst) {
                let src = graph.resource(e.src);
                groups
                    .entry((
                        Symbol::intern(&src.rtype),
                        Symbol::intern(&e.in_endpoint),
                        Symbol::intern(&e.out_attr),
                    ))
                    .or_default()
                    .push(e.src);
            }
            for ((stype, ep, out_attr), mut members) in groups {
                members.sort_unstable();
                members.dedup();
                if members.len() < 2 {
                    continue;
                }
                let key = (
                    stype,
                    ep,
                    Symbol::intern(&graph.resource(dst).rtype),
                    out_attr,
                );
                let cidr_attrs: Vec<Symbol> = self
                    .attrs_of
                    .get(&stype)
                    .map(|attrs| {
                        attrs
                            .iter()
                            .filter(|a| is_cidr_attr(kb, use_kb, &stype, a))
                            .copied()
                            .collect()
                    })
                    .unwrap_or_default();
                let stats = self.siblings.entry(key).or_default();
                for i in 0..members.len() {
                    for j in (i + 1)..members.len() {
                        stats.pairs += 1;
                        for attr in &cidr_attrs {
                            let a = cidrs_of(graph.resource(members[i]), *attr);
                            let b = cidrs_of(graph.resource(members[j]), *attr);
                            if a.is_empty() || b.is_empty() {
                                continue;
                            }
                            let entry = stats.overlap.entry(*attr).or_default();
                            entry.1 += 1;
                            let overlaps = a.iter().any(|x| b.iter().any(|y| x.overlaps(y)));
                            if !overlaps {
                                entry.0 += 1;
                            }
                        }
                    }
                }
            }
        }
    }

    fn observe_hubs(&mut self, graph: &ResourceGraph, kb: &KnowledgeBase, use_kb: bool) {
        for src in 0..graph.len() {
            let edges: Vec<_> = graph.out_edges(src).collect();
            for i in 0..edges.len() {
                for j in 0..edges.len() {
                    if i == j {
                        continue;
                    }
                    let (e1, e2) = (edges[i], edges[j]);
                    if e1.in_endpoint >= e2.in_endpoint {
                        continue; // canonical order, distinct endpoints
                    }
                    let d1 = graph.resource(e1.dst);
                    let d2 = graph.resource(e2.dst);
                    let key = (
                        Symbol::intern(&graph.resource(src).rtype),
                        Symbol::intern(&e1.in_endpoint),
                        Symbol::intern(&d1.rtype),
                        Symbol::intern(&e1.out_attr),
                        Symbol::intern(&e2.in_endpoint),
                        Symbol::intern(&d2.rtype),
                        Symbol::intern(&e2.out_attr),
                    );
                    // Collect attrs before borrowing the entry mutably.
                    let name_attrs_1 = name_attrs(d1);
                    let name_attrs_2 = name_attrs(d2);
                    let cidr_1: Vec<Symbol> = leaf_attrs(d1)
                        .into_iter()
                        .filter(|a| is_cidr_attr(kb, use_kb, &d1.rtype, a))
                        .collect();
                    let cidr_2: Vec<Symbol> = leaf_attrs(d2)
                        .into_iter()
                        .filter(|a| is_cidr_attr(kb, use_kb, &d2.rtype, a))
                        .collect();
                    let stats = self.hubs.entry(key).or_default();
                    stats.occurrences += 1;
                    for a1 in &name_attrs_1 {
                        for a2 in &name_attrs_2 {
                            let v1 = leaf_value(d1, *a1);
                            let v2 = leaf_value(d2, *a2);
                            if let (Some(v1), Some(v2)) = (v1, v2) {
                                let entry = stats.name_ne.entry((*a1, *a2)).or_default();
                                entry.1 += 1;
                                if v1 != v2 {
                                    entry.0 += 1;
                                }
                            }
                        }
                    }
                    for a1 in &cidr_1 {
                        for a2 in &cidr_2 {
                            let c1 = cidrs_of(d1, *a1);
                            let c2 = cidrs_of(d2, *a2);
                            if c1.is_empty() || c2.is_empty() {
                                continue;
                            }
                            let entry = stats.no_overlap.entry((*a1, *a2)).or_default();
                            entry.1 += 1;
                            if !c1.iter().any(|x| c2.iter().any(|y| x.overlaps(y))) {
                                entry.0 += 1;
                            }
                        }
                    }
                }
            }
        }
    }

    fn observe_paths(&mut self, graph: &ResourceGraph, kb: &KnowledgeBase, use_kb: bool) {
        let _ = (kb, use_kb);
        // Reachability sets (graphs are small).
        for a in 0..graph.len() {
            let ra = graph.resource(a);
            let mut reach: Vec<usize> = Vec::new();
            for b in 0..graph.len() {
                if a != b && graph.path(a, b) {
                    reach.push(b);
                }
            }
            // Path-based location equality.
            for &b in &reach {
                let rb = graph.resource(b);
                let (Some(la), Some(lb)) = (
                    ra.get_attr("location").and_then(Value::as_str),
                    rb.get_attr("location").and_then(Value::as_str),
                ) else {
                    continue;
                };
                let entry = self
                    .path_loc_eq
                    .entry((Symbol::intern(&ra.rtype), Symbol::intern(&rb.rtype)))
                    .or_default();
                entry.1 += 1;
                if la == lb {
                    entry.0 += 1;
                }
            }
            // Copath: pairs of same-type reachable targets with CIDR attrs.
            let mut by_type: BTreeMap<Symbol, Vec<usize>> = BTreeMap::new();
            for &b in &reach {
                by_type
                    .entry(Symbol::intern(&graph.resource(b).rtype))
                    .or_default()
                    .push(b);
            }
            for (ctype, members) in by_type {
                if members.len() < 2 {
                    continue;
                }
                let cidr_attrs: Vec<Symbol> = leaf_attrs(graph.resource(members[0]))
                    .into_iter()
                    .filter(|attr| is_cidr_attr(kb, use_kb, &ctype, attr))
                    .collect();
                if cidr_attrs.is_empty() {
                    continue;
                }
                let stats = self
                    .copaths
                    .entry((Symbol::intern(&ra.rtype), ctype))
                    .or_default();
                for i in 0..members.len() {
                    for j in (i + 1)..members.len() {
                        stats.pairs += 1;
                        for attr in &cidr_attrs {
                            let c1 = cidrs_of(graph.resource(members[i]), *attr);
                            let c2 = cidrs_of(graph.resource(members[j]), *attr);
                            if c1.is_empty() || c2.is_empty() {
                                continue;
                            }
                            let entry = stats.overlap.entry(*attr).or_default();
                            entry.1 += 1;
                            if !c1.iter().any(|x| c2.iter().any(|y| x.overlaps(y))) {
                                entry.0 += 1;
                            }
                        }
                    }
                }
            }
        }
    }
}

// --------------------------------------------------------------------------
// Attribute helpers
// --------------------------------------------------------------------------

/// A per-project arena for flattened attribute vectors.
///
/// Every resource's `(path, leaf value)` pairs live contiguously in one
/// backing vector with per-resource index ranges, so the observation pass
/// flattens each resource exactly once per project (the edge pass used to
/// re-flatten both endpoints of every edge) and a shard worker streaming
/// projects reuses the same backing allocation for all of them.
#[derive(Debug, Default)]
pub struct FlattenArena {
    leaves: Vec<(Symbol, Value)>,
    spans: Vec<(u32, u32)>,
}

impl FlattenArena {
    /// Flattens every resource of `graph`, replacing the previous project's
    /// contents but keeping the backing capacity.
    pub fn begin(&mut self, graph: &ResourceGraph, kb: &KnowledgeBase, use_kb: bool) {
        self.leaves.clear();
        self.spans.clear();
        for idx in 0..graph.len() {
            let start = self.leaves.len();
            flatten_into(graph.resource(idx), kb, use_kb, &mut self.leaves);
            self.spans.push((start as u32, self.leaves.len() as u32));
        }
    }

    /// The flattened leaves of resource `idx` in the current project.
    pub fn leaves(&self, idx: usize) -> &[(Symbol, Value)] {
        let (start, end) = self.spans[idx];
        &self.leaves[start as usize..end as usize]
    }
}

/// Flattens a resource into `(normalised path, leaf value)` pairs, applying
/// KB defaults for omitted enum/bool attributes when `use_kb` is set.
pub fn flatten(r: &Resource, kb: &KnowledgeBase, use_kb: bool) -> Vec<(Symbol, Value)> {
    let mut out = Vec::new();
    flatten_into(r, kb, use_kb, &mut out);
    out
}

/// [`flatten`] into a caller-held buffer: appends to `out` without
/// clearing, so an arena can pack many resources into one vector.
fn flatten_into(r: &Resource, kb: &KnowledgeBase, use_kb: bool, out: &mut Vec<(Symbol, Value)>) {
    let start = out.len();
    for (k, v) in &r.attrs {
        flatten_value(k, v, out);
    }
    if use_kb {
        if let Some(schema) = kb.resource(&r.rtype) {
            for attr in schema.attrs.values() {
                if out[start..].iter().any(|(a, _)| *a == attr.path) {
                    continue;
                }
                if let Some(default) = attr.format.default_value() {
                    out.push((Symbol::intern(&attr.path), default));
                }
            }
        }
    }
}

fn flatten_value(path: &str, v: &Value, out: &mut Vec<(Symbol, Value)>) {
    match v {
        Value::Map(m) => {
            for (k, inner) in m {
                flatten_value(&format!("{path}.{k}"), inner, out);
            }
        }
        Value::List(l) => {
            for inner in l {
                match inner {
                    Value::Map(_) | Value::List(_) => flatten_value(path, inner, out),
                    other => out.push((Symbol::intern(path), other.clone())),
                }
            }
        }
        Value::Ref(_) => {}
        other => out.push((Symbol::intern(path), other.clone())),
    }
}

fn leaf_attrs(r: &Resource) -> Vec<Symbol> {
    let mut out = Vec::new();
    for (k, v) in &r.attrs {
        collect_attr_names(k, v, &mut out);
    }
    out.sort();
    out.dedup();
    out
}

fn collect_attr_names(path: &str, v: &Value, out: &mut Vec<Symbol>) {
    match v {
        Value::Map(m) => {
            for (k, inner) in m {
                collect_attr_names(&format!("{path}.{k}"), inner, out);
            }
        }
        Value::List(l) => {
            for inner in l {
                match inner {
                    Value::Map(_) | Value::List(_) => collect_attr_names(path, inner, out),
                    _ => out.push(Symbol::intern(path)),
                }
            }
        }
        Value::Ref(_) => {}
        _ => out.push(Symbol::intern(path)),
    }
}

fn name_attrs(r: &Resource) -> Vec<Symbol> {
    leaf_attrs(r)
        .into_iter()
        .filter(|a| *a == "name" || a.ends_with(".name"))
        .collect()
}

fn leaf_value(r: &Resource, attr: Symbol) -> Option<Value> {
    r.get_all(&attr).first().copied().cloned()
}

fn cidrs_of(r: &Resource, attr: Symbol) -> Vec<Cidr> {
    r.get_all(&attr)
        .into_iter()
        .filter_map(Value::as_str)
        .filter_map(|s| s.parse().ok())
        .collect()
}

fn cidr_contains_any(
    _dst: &Resource,
    _da: &Symbol,
    _src: &Resource,
    _sa: &Symbol,
    dv: &Value,
    sv: &Value,
) -> bool {
    let (Some(a), Some(b)) = (
        dv.as_str().and_then(|s| s.parse::<Cidr>().ok()),
        sv.as_str().and_then(|s| s.parse::<Cidr>().ok()),
    ) else {
        return false;
    };
    a.contains(&b)
}

/// Should this value be tracked in value-count tables?
fn track_value(v: &Value) -> bool {
    matches!(v, Value::Str(_) | Value::Bool(_) | Value::Int(_))
}

/// Is `(rtype, attr)` an enum-ish *condition* attribute?
fn is_cond_attr(kb: &KnowledgeBase, use_kb: bool, rtype: &str, attr: &str, v: &Value) -> bool {
    if !use_kb {
        return matches!(v, Value::Str(_) | Value::Bool(_));
    }
    matches!(
        kb.format(rtype, attr),
        Some(ValueFormat::Enum { .. }) | Some(ValueFormat::BoolDefault { .. })
    )
}

/// Is `(rtype, attr = v)` an acceptable *statement* value (enum member or
/// reserved name)?
pub(crate) fn is_stmt_value(
    kb: &KnowledgeBase,
    use_kb: bool,
    rtype: &str,
    attr: &str,
    v: &Value,
) -> bool {
    if !use_kb {
        return matches!(v, Value::Str(_) | Value::Bool(_));
    }
    match kb.format(rtype, attr) {
        Some(ValueFormat::Enum { .. }) | Some(ValueFormat::BoolDefault { .. }) => true,
        Some(ValueFormat::ReservedName { reserved }) => v
            .as_str()
            .map(|s| reserved.iter().any(|r| r == s))
            .unwrap_or(false),
        _ => false,
    }
}

/// Is `(rtype, attr)` CIDR-formatted?
pub(crate) fn is_cidr_attr(kb: &KnowledgeBase, use_kb: bool, rtype: &str, attr: &str) -> bool {
    if use_kb {
        matches!(kb.format(rtype, attr), Some(ValueFormat::Cidr))
    } else {
        // Without the KB, fall back to the attribute name heuristic.
        attr.contains("address") || attr.contains("prefix") || attr.contains("cidr")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb() -> KnowledgeBase {
        zodiac_kb::azure_kb()
    }

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn flatten_applies_kb_defaults() {
        let r = Resource::new("azurerm_public_ip", "ip").with("allocation_method", "Dynamic");
        let leaves = flatten(&r, &kb(), true);
        assert!(leaves.contains(&(sym("sku"), Value::s("Basic"))));
        let without = flatten(&r, &kb(), false);
        assert!(!without.iter().any(|(a, _)| *a == "sku"));
    }

    #[test]
    fn counts_attr_values() {
        let programs: Vec<Program> = (0..5)
            .map(|_| {
                Program::new().with(
                    Resource::new("azurerm_public_ip", "ip")
                        .with("sku", "Standard")
                        .with("allocation_method", "Static"),
                )
            })
            .collect();
        let s = CorpusStats::build(&programs, &kb(), true);
        assert_eq!(
            s.p_value("azurerm_public_ip", "sku", &Value::s("Standard")),
            1.0
        );
        assert_eq!(
            s.cond_support
                .get(&(sym("azurerm_public_ip"), sym("sku"), Value::s("Standard")))
                .copied(),
            Some(5)
        );
    }

    #[test]
    fn edge_stats_capture_equality() {
        let programs: Vec<Program> = (0..4)
            .map(|i| {
                Program::new()
                    .with(
                        Resource::new("azurerm_network_interface", "nic")
                            .with("location", "eastus")
                            .with("subnet_id", Value::r("azurerm_subnet", "s", "id")),
                    )
                    .with(Resource::new("azurerm_subnet", "s").with("name", format!("sn{i}")))
                    .with(
                        Resource::new("azurerm_linux_virtual_machine", "vm")
                            .with("location", "eastus")
                            .with(
                                "network_interface_ids",
                                Value::List(vec![Value::r(
                                    "azurerm_network_interface",
                                    "nic",
                                    "id",
                                )]),
                            ),
                    )
            })
            .collect();
        let s = CorpusStats::build(&programs, &kb(), true);
        let key: EdgeKey = (
            sym("azurerm_linux_virtual_machine"),
            sym("network_interface_ids"),
            sym("azurerm_network_interface"),
            sym("id"),
        );
        let e = s.edges.get(&key).expect("edge pattern observed");
        assert_eq!(e.occurrences, 4);
        assert_eq!(e.attr_eq.get(&sym("location")), Some(&(4, 4)));
        assert_eq!(e.dst_indeg_one, 4);
    }

    #[test]
    fn sibling_overlap_counts() {
        let program = Program::new()
            .with(Resource::new("azurerm_virtual_network", "v").with("name", "vn"))
            .with(
                Resource::new("azurerm_subnet", "a")
                    .with(
                        "address_prefixes",
                        Value::List(vec![Value::s("10.0.1.0/24")]),
                    )
                    .with(
                        "virtual_network_name",
                        Value::r("azurerm_virtual_network", "v", "name"),
                    ),
            )
            .with(
                Resource::new("azurerm_subnet", "b")
                    .with(
                        "address_prefixes",
                        Value::List(vec![Value::s("10.0.2.0/24")]),
                    )
                    .with(
                        "virtual_network_name",
                        Value::r("azurerm_virtual_network", "v", "name"),
                    ),
            );
        let s = CorpusStats::build(&[program], &kb(), true);
        let key = (
            sym("azurerm_subnet"),
            sym("virtual_network_name"),
            sym("azurerm_virtual_network"),
            sym("name"),
        );
        let stats = s.siblings.get(&key).expect("sibling pattern");
        assert_eq!(stats.pairs, 1);
        assert_eq!(stats.overlap.get(&sym("address_prefixes")), Some(&(1, 1)));
    }

    #[test]
    fn degree_stats_record_max() {
        let mut p = Program::new().with(
            Resource::new("azurerm_linux_virtual_machine", "vm")
                .with("size", "Standard_F2s_v2")
                .with(
                    "network_interface_ids",
                    Value::List(vec![
                        Value::r("azurerm_network_interface", "a", "id"),
                        Value::r("azurerm_network_interface", "b", "id"),
                    ]),
                ),
        );
        p.add(Resource::new("azurerm_network_interface", "a"))
            .unwrap();
        p.add(Resource::new("azurerm_network_interface", "b"))
            .unwrap();
        let s = CorpusStats::build(&[p], &kb(), true);
        let key: DegreeKey = (
            sym("azurerm_linux_virtual_machine"),
            sym("size"),
            Value::s("Standard_F2s_v2"),
            Direction::Out,
            sym("azurerm_network_interface"),
        );
        assert_eq!(s.degrees.get(&key).map(|d| d.max), Some(2));
    }
}
