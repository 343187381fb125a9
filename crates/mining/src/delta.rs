//! Delta-aware corpus statistics: the incremental re-mining substrate.
//!
//! [`CorpusStats::build`] is a batch fold over the whole corpus. A serving
//! system (`zodiacd`) instead receives *corpus deltas* — a project added,
//! removed, or changed — and must re-score the association-rule statistics
//! without re-observing every unchanged project. [`IncrementalStats`] keeps
//! the merged observation database live under an `observe`/`retract` API:
//!
//! * every additive table (value counts, joint counts, edge/sibling/hub/
//!   copath statistics) is updated by adding or subtracting the single
//!   project's own contribution, with exact zero-pruning so the merged
//!   database stays structurally identical to a from-scratch build;
//! * the two non-invertible aggregates — conditioned degree **maxima** and
//!   block-length **minima** — keep a per-key supporter index
//!   (`key → project → contribution`) and re-fold only the keys the
//!   changed project touched;
//! * a per-resource-type supporting-project index records which template
//!   families are affected by each delta ([`IncrementalStats::take_changed_types`]),
//!   so callers can report (and bound) what was re-scored.
//!
//! The invariant, enforced by the `incremental` differential test in the
//! daemon crate: after any sequence of observes and retracts, the merged
//! database equals `CorpusStats::build` over the surviving projects —
//! `PartialEq`-exact, so template instantiation over it yields the same
//! candidate checks as full re-mining.

use crate::shard::fan_out;
use crate::stats::{CorpusStats, DegreeKey, DegreeStats, FlattenArena, LengthKey};
use crate::ShardConfig;
use std::collections::{BTreeMap, BTreeSet};
use zodiac_kb::KnowledgeBase;
use zodiac_model::{Program, Symbol};

/// A corpus maintained project-by-project, with the merged observation
/// database kept exactly equal to a batch [`CorpusStats::build`] over the
/// current project set.
#[derive(Debug, Default)]
pub struct IncrementalStats {
    use_kb: bool,
    merged: CorpusStats,
    programs: BTreeMap<String, Program>,
    /// Supporter index for the degree-max aggregate.
    degree_contrib: BTreeMap<DegreeKey, BTreeMap<String, DegreeStats>>,
    /// Supporter index for the length-min aggregate.
    length_contrib: BTreeMap<LengthKey, BTreeMap<String, (i64, usize)>>,
    /// Projects containing at least one resource of each type.
    type_support: BTreeMap<Symbol, BTreeSet<String>>,
    /// Resource types whose supporting projects changed since the last
    /// [`IncrementalStats::take_changed_types`].
    changed_types: BTreeSet<Symbol>,
}

impl IncrementalStats {
    /// Creates an empty incremental database. `use_kb` matches the
    /// [`crate::MiningConfig::use_kb`] flag the stats will be mined under.
    pub fn new(use_kb: bool) -> Self {
        IncrementalStats {
            use_kb,
            ..Default::default()
        }
    }

    /// The merged observation database (equal to a batch build over the
    /// current projects).
    pub fn stats(&self) -> &CorpusStats {
        &self.merged
    }

    /// Number of projects currently observed.
    pub fn projects(&self) -> usize {
        self.programs.len()
    }

    /// Whether a project id is currently observed.
    pub fn contains(&self, id: &str) -> bool {
        self.programs.contains_key(id)
    }

    /// Ids of the currently observed projects, in order.
    pub fn project_ids(&self) -> impl Iterator<Item = &str> {
        self.programs.keys().map(String::as_str)
    }

    /// The currently observed programs, in project-id order — the corpus a
    /// re-validation pass deploys against.
    pub fn observed_programs(&self) -> impl Iterator<Item = &Program> {
        self.programs.values()
    }

    /// Projects supporting (containing resources of) a type — the support
    /// set of every template family anchored on that type.
    pub fn supporting_projects(&self, rtype: Symbol) -> Option<&BTreeSet<String>> {
        self.type_support.get(&rtype)
    }

    /// Drains the set of resource types whose supporting projects changed
    /// since the last call — the template families a delta re-scored.
    pub fn take_changed_types(&mut self) -> BTreeSet<Symbol> {
        std::mem::take(&mut self.changed_types)
    }

    /// Drains the changed-type set and expands it one step along the
    /// co-occurrence relation of the merged pair tables — the set of
    /// template anchors whose association-rule statistics a delta can have
    /// touched.
    ///
    /// Directly-changed types are not enough: a connection candidate
    /// anchored at `s` normalises its lift by the *destination* type's
    /// value marginal, so a delta touching only `d`-supporting projects
    /// still re-scores `s`-anchored templates. Every stats row a project
    /// contributes mentions only types present in that project, so one
    /// expansion step over the pair keys (edges, siblings, hubs, copaths,
    /// path-location, conditioned degrees) covers every such cross-type
    /// marginal; pairs that appear or disappear entirely are covered by
    /// direct membership, since the program creating or destroying the pair
    /// contains both types.
    pub fn take_affected_types(&mut self) -> BTreeSet<Symbol> {
        let changed = std::mem::take(&mut self.changed_types);
        let mut out = changed.clone();
        if changed.is_empty() {
            return out;
        }
        let m = &self.merged;
        let mut pairs: Vec<(Symbol, Symbol)> = Vec::new();
        pairs.extend(m.edges.keys().map(|k| (k.0, k.2)));
        pairs.extend(m.siblings.keys().map(|k| (k.0, k.2)));
        for k in m.hubs.keys() {
            pairs.push((k.0, k.2));
            pairs.push((k.0, k.5));
            pairs.push((k.2, k.5));
        }
        pairs.extend(m.copaths.keys().copied());
        pairs.extend(m.path_loc_eq.keys().copied());
        pairs.extend(m.degrees.keys().map(|k| (k.0, k.4)));
        for (a, b) in pairs {
            if changed.contains(&a) {
                out.insert(b);
            }
            if changed.contains(&b) {
                out.insert(a);
            }
        }
        out
    }

    /// Observes (or re-observes) one project. A project already present
    /// under this id is retracted first, making `observe` the `change`
    /// operation as well; returns `true` if an existing project was
    /// replaced.
    pub fn observe(&mut self, id: impl Into<String>, program: Program, kb: &KnowledgeBase) -> bool {
        let id = id.into();
        let replaced = self.retract(&id, kb);
        let mut per = CorpusStats::default();
        per.observe_program(&program, kb, self.use_kb);
        self.absorb(&per, &id);
        self.programs.insert(id, program);
        replaced
    }

    /// Observes a batch of projects. Each project's single-program
    /// observation database is built on the crate's one worker pool
    /// ([`crate::shard`]), `shard.shards` workers drawing one project per
    /// message; the databases are then folded in sequentially, in batch
    /// order (the fold itself is cheap, and id-ordered state — supporter
    /// indexes, type support — keeps it on the caller's thread).
    /// Equivalent to calling [`IncrementalStats::observe`] per item, in
    /// order; returns how many existing projects were replaced.
    pub fn observe_batch(
        &mut self,
        items: Vec<(String, Program)>,
        kb: &KnowledgeBase,
        shard: &ShardConfig,
    ) -> usize {
        let use_kb = self.use_kb;
        let mut per: Vec<(usize, CorpusStats)> =
            fan_out(items.iter().enumerate(), shard.shards, 1, |_, items| {
                let mut arena = FlattenArena::default();
                items
                    .map(|(i, (_, p))| {
                        let mut s = CorpusStats::default();
                        s.observe_program_with(p, kb, use_kb, &mut arena);
                        (i, s)
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        per.sort_unstable_by_key(|(i, _)| *i);
        let mut replaced = 0;
        for ((id, program), (_, stats)) in items.into_iter().zip(per) {
            // Re-observing an id retracts the stored program first, so a
            // duplicate id within one batch degrades to last-write-wins —
            // the same outcome as sequential `observe` calls.
            if self.retract(&id, kb) {
                replaced += 1;
            }
            self.absorb(&stats, &id);
            self.programs.insert(id, program);
        }
        replaced
    }

    /// Retracts one project; returns `false` if the id was never observed.
    pub fn retract(&mut self, id: &str, kb: &KnowledgeBase) -> bool {
        let Some(program) = self.programs.remove(id) else {
            return false;
        };
        let per = CorpusStats::build(std::slice::from_ref(&program), kb, self.use_kb);
        self.subtract(&per, id);
        true
    }

    // ---------------------------------------------------------------------
    // Merging one project's contribution in
    // ---------------------------------------------------------------------

    fn absorb(&mut self, per: &CorpusStats, id: &str) {
        for k in per.resource_count.keys() {
            self.type_support
                .entry(*k)
                .or_default()
                .insert(id.to_string());
            self.changed_types.insert(*k);
        }
        // The shard driver's merge is the single definition of "add a
        // partial database in": additive tables sum, set tables union, and
        // the monotone aggregates (degree max, length min) fold exactly as
        // the supporter-index refold would for an *addition* — max of
        // maxima, min of minima, sum of counts. Sharing the code is what
        // keeps incremental observes field-for-field consistent with merged
        // shard stats.
        self.merged.merge_from(per);
        // Record the supporter contributions so a later retract can re-fold
        // the non-invertible aggregates.
        for (k, d) in &per.degrees {
            self.degree_contrib
                .entry(k.clone())
                .or_default()
                .insert(id.to_string(), d.clone());
        }
        for (k, l) in &per.lengths {
            self.length_contrib
                .entry(k.clone())
                .or_default()
                .insert(id.to_string(), *l);
        }
    }

    // ---------------------------------------------------------------------
    // Subtracting one project's contribution out
    // ---------------------------------------------------------------------

    fn subtract(&mut self, per: &CorpusStats, id: &str) {
        let m = &mut self.merged;
        m.total_programs = m.total_programs.saturating_sub(per.total_programs);
        for (k, n) in &per.resource_count {
            sub_count(&mut m.resource_count, k, *n);
            if let Some(set) = self.type_support.get_mut(k) {
                set.remove(id);
                if set.is_empty() {
                    self.type_support.remove(k);
                }
            }
            self.changed_types.insert(*k);
        }
        for (k, n) in &per.attr_present {
            sub_count(&mut m.attr_present, k, *n);
        }
        for (k, n) in &per.attr_value {
            sub_count(&mut m.attr_value, k, *n);
        }
        // `attrs_of` mirrors the key set of `attr_present`: an attribute
        // stays in the set iff some surviving project still presents it.
        for (rt, attrs) in &per.attrs_of {
            if let Some(set) = m.attrs_of.get_mut(rt) {
                for a in attrs {
                    if !m.attr_present.contains_key(&(*rt, *a)) {
                        set.remove(a);
                    }
                }
                if set.is_empty() {
                    m.attrs_of.remove(rt);
                }
            }
        }
        for (k, n) in &per.cond_support {
            sub_count(&mut m.cond_support, k, *n);
        }
        // Joint tables exist exactly for observed conditions, so they are
        // pruned when the condition's support reaches zero — even if inner
        // maps still happen to be empty on both sides.
        for (k, inner) in &per.joint_value {
            if let Some(dst) = m.joint_value.get_mut(k) {
                for (ik, n) in inner {
                    sub_count(dst, ik, *n);
                }
            }
            if !m.cond_support.contains_key(k) {
                m.joint_value.remove(k);
            }
        }
        for (k, inner) in &per.joint_present {
            if let Some(dst) = m.joint_present.get_mut(k) {
                for (ik, n) in inner {
                    sub_count(dst, ik, *n);
                }
            }
            if !m.cond_support.contains_key(k) {
                m.joint_present.remove(k);
            }
        }
        for (k, e) in &per.edges {
            if let Some(dst) = m.edges.get_mut(k) {
                dst.occurrences = dst.occurrences.saturating_sub(e.occurrences);
                dst.dst_indeg_one = dst.dst_indeg_one.saturating_sub(e.dst_indeg_one);
                dst.dst_excl = dst.dst_excl.saturating_sub(e.dst_excl);
                for (a, (x, y)) in &e.attr_eq {
                    sub_pair(&mut dst.attr_eq, a, *x, *y);
                }
                for (a, n) in &e.dst_vals {
                    sub_count(&mut dst.dst_vals, a, *n);
                }
                for (a, n) in &e.src_vals {
                    sub_count(&mut dst.src_vals, a, *n);
                }
                for (a, (x, y)) in &e.contain {
                    sub_pair(&mut dst.contain, a, *x, *y);
                }
                if dst.occurrences == 0 {
                    m.edges.remove(k);
                }
            }
        }
        for (k, p) in &per.siblings {
            if let Some(dst) = m.siblings.get_mut(k) {
                dst.pairs = dst.pairs.saturating_sub(p.pairs);
                for (a, (x, y)) in &p.overlap {
                    sub_pair(&mut dst.overlap, a, *x, *y);
                }
                if dst.pairs == 0 {
                    m.siblings.remove(k);
                }
            }
        }
        for (k, h) in &per.hubs {
            if let Some(dst) = m.hubs.get_mut(k) {
                dst.occurrences = dst.occurrences.saturating_sub(h.occurrences);
                for (a, (x, y)) in &h.name_ne {
                    sub_pair(&mut dst.name_ne, a, *x, *y);
                }
                for (a, (x, y)) in &h.no_overlap {
                    sub_pair(&mut dst.no_overlap, a, *x, *y);
                }
                if dst.occurrences == 0 {
                    m.hubs.remove(k);
                }
            }
        }
        for (k, p) in &per.copaths {
            if let Some(dst) = m.copaths.get_mut(k) {
                dst.pairs = dst.pairs.saturating_sub(p.pairs);
                for (a, (x, y)) in &p.overlap {
                    sub_pair(&mut dst.overlap, a, *x, *y);
                }
                if dst.pairs == 0 {
                    m.copaths.remove(k);
                }
            }
        }
        for (k, (x, y)) in &per.path_loc_eq {
            sub_pair(&mut m.path_loc_eq, k, *x, *y);
        }
        for k in per.degrees.keys() {
            if let Some(contrib) = self.degree_contrib.get_mut(k) {
                contrib.remove(id);
                if contrib.is_empty() {
                    self.degree_contrib.remove(k);
                    m.degrees.remove(k);
                } else {
                    refold_degree(m, &self.degree_contrib, k);
                }
            }
        }
        for k in per.lengths.keys() {
            if let Some(contrib) = self.length_contrib.get_mut(k) {
                contrib.remove(id);
                if contrib.is_empty() {
                    self.length_contrib.remove(k);
                    m.lengths.remove(k);
                } else {
                    refold_length(m, &self.length_contrib, k);
                }
            }
        }
    }
}

/// Re-folds one degree key from its supporter index: max of maxima, sum of
/// counts — the same aggregate a batch build computes.
fn refold_degree(
    m: &mut CorpusStats,
    contrib: &BTreeMap<DegreeKey, BTreeMap<String, DegreeStats>>,
    key: &DegreeKey,
) {
    if let Some(supporters) = contrib.get(key) {
        let folded = DegreeStats {
            max: supporters.values().map(|d| d.max).max().unwrap_or(0),
            count: supporters.values().map(|d| d.count).sum(),
        };
        m.degrees.insert(key.clone(), folded);
    }
}

/// Re-folds one length key: min of minima, sum of counts.
fn refold_length(
    m: &mut CorpusStats,
    contrib: &BTreeMap<LengthKey, BTreeMap<String, (i64, usize)>>,
    key: &LengthKey,
) {
    if let Some(supporters) = contrib.get(key) {
        let folded = (
            supporters.values().map(|l| l.0).min().unwrap_or(i64::MAX),
            supporters.values().map(|l| l.1).sum(),
        );
        m.lengths.insert(key.clone(), folded);
    }
}

/// Subtracts from a count map, removing the entry at zero so the merged map
/// stays structurally equal to a fresh build.
fn sub_count<K: Ord + Clone>(m: &mut BTreeMap<K, usize>, k: &K, n: usize) {
    if let Some(v) = m.get_mut(k) {
        *v = v.saturating_sub(n);
        if *v == 0 {
            m.remove(k);
        }
    }
}

/// Subtracts from a `(numerator, denominator)` pair map; entries are created
/// only alongside a denominator increment, so they are pruned when the
/// denominator reaches zero.
fn sub_pair<K: Ord + Clone>(m: &mut BTreeMap<K, (usize, usize)>, k: &K, x: usize, y: usize) {
    if let Some(v) = m.get_mut(k) {
        v.0 = v.0.saturating_sub(x);
        v.1 = v.1.saturating_sub(y);
        if v.1 == 0 {
            m.remove(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zodiac_model::{Resource, Value};

    fn kb() -> KnowledgeBase {
        zodiac_kb::azure_kb()
    }

    fn spot_vm(i: usize) -> Program {
        let mut vm = Resource::new("azurerm_linux_virtual_machine", "vm")
            .with("name", format!("vm-{i}"))
            .with("size", "Standard_B1s")
            .with(
                "priority",
                if i.is_multiple_of(3) {
                    "Spot"
                } else {
                    "Regular"
                },
            );
        if i.is_multiple_of(3) {
            vm = vm.with("eviction_policy", "Deallocate");
        }
        Program::new().with(vm)
    }

    fn networked(i: usize) -> Program {
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
                    .with("size", "Standard_F2s_v2")
                    .with(
                        "network_interface_ids",
                        Value::List(vec![Value::r("azurerm_network_interface", "nic", "id")]),
                    ),
            )
    }

    #[test]
    fn observe_matches_batch_build() {
        let kb = kb();
        let programs: Vec<Program> = (0..12)
            .map(|i| if i % 2 == 0 { spot_vm(i) } else { networked(i) })
            .collect();
        let mut inc = IncrementalStats::new(true);
        for (i, p) in programs.iter().enumerate() {
            inc.observe(format!("p{i}"), p.clone(), &kb);
        }
        let batch = CorpusStats::build(&programs, &kb, true);
        assert_eq!(inc.stats(), &batch);
    }

    #[test]
    fn observe_batch_matches_sequential_observes_at_every_shard_count() {
        let kb = kb();
        let observe_base = |inc: &mut IncrementalStats| {
            for i in 0..4 {
                inc.observe(format!("p{i}"), spot_vm(i), &kb);
            }
            inc.take_changed_types();
        };
        // The batch re-observes an existing id (`p1`) and repeats one id
        // (`n2`), so two items replace a project.
        let batch: Vec<(String, Program)> = vec![
            ("n0".into(), networked(0)),
            ("p1".into(), networked(1)),
            ("n2".into(), networked(2)),
            ("s5".into(), spot_vm(5)),
            ("n2".into(), spot_vm(6)),
            ("n3".into(), networked(3)),
        ];
        let mut reference = IncrementalStats::new(true);
        observe_base(&mut reference);
        let mut replaced = 0;
        for (id, p) in &batch {
            if reference.observe(id.clone(), p.clone(), &kb) {
                replaced += 1;
            }
        }
        assert_eq!(replaced, 2);
        let changed = reference.take_changed_types();
        for shards in [1, 2, 3, 8] {
            let mut inc = IncrementalStats::new(true);
            observe_base(&mut inc);
            let got = inc.observe_batch(batch.clone(), &kb, &ShardConfig::with_shards(shards));
            assert_eq!(got, replaced, "{shards} shards");
            assert_eq!(inc.stats(), reference.stats(), "{shards} shards");
            assert!(
                inc.project_ids().eq(reference.project_ids()),
                "{shards} shards"
            );
            assert_eq!(inc.take_changed_types(), changed, "{shards} shards");
        }
    }

    #[test]
    fn retract_returns_to_earlier_state() {
        let kb = kb();
        let base: Vec<Program> = (0..6).map(spot_vm).collect();
        let mut inc = IncrementalStats::new(true);
        for (i, p) in base.iter().enumerate() {
            inc.observe(format!("p{i}"), p.clone(), &kb);
        }
        inc.observe("extra", networked(0), &kb);
        assert!(inc.retract("extra", &kb));
        assert!(!inc.retract("extra", &kb));
        let batch = CorpusStats::build(&base, &kb, true);
        assert_eq!(inc.stats(), &batch);
        assert_eq!(inc.projects(), 6);
    }

    #[test]
    fn retract_to_empty_is_pristine() {
        let kb = kb();
        let mut inc = IncrementalStats::new(true);
        inc.observe("a", networked(1), &kb);
        inc.observe("b", spot_vm(3), &kb);
        assert!(inc.retract("a", &kb));
        assert!(inc.retract("b", &kb));
        assert_eq!(inc.stats(), &CorpusStats::default());
        assert_eq!(inc.projects(), 0);
    }

    #[test]
    fn observe_replaces_existing_project() {
        let kb = kb();
        let mut inc = IncrementalStats::new(true);
        assert!(!inc.observe("p", spot_vm(0), &kb));
        assert!(inc.observe("p", networked(0), &kb));
        let batch = CorpusStats::build(&[networked(0)], &kb, true);
        assert_eq!(inc.stats(), &batch);
    }

    #[test]
    fn changed_types_track_delta_support() {
        let kb = kb();
        let mut inc = IncrementalStats::new(true);
        inc.observe("p", spot_vm(0), &kb);
        let changed = inc.take_changed_types();
        assert!(changed.contains(&Symbol::intern("azurerm_linux_virtual_machine")));
        assert!(inc.take_changed_types().is_empty());
        let vm = Symbol::intern("azurerm_linux_virtual_machine");
        assert_eq!(inc.supporting_projects(vm).map(|s| s.len()), Some(1));
        inc.retract("p", &kb);
        assert!(inc.take_changed_types().contains(&vm));
        assert!(inc.supporting_projects(vm).is_none());
    }

    #[test]
    fn affected_types_expand_across_pair_keys() {
        let kb = kb();
        let mut inc = IncrementalStats::new(true);
        for i in 0..4 {
            inc.observe(format!("n{i}"), networked(i), &kb);
        }
        inc.take_changed_types();
        // A delta touching only subnets shifts the subnet value marginal,
        // which re-normalises the lift of nic-anchored connection
        // templates — the nic anchor must be invalidated too.
        let subnet_only =
            Program::new().with(Resource::new("azurerm_subnet", "s").with("name", "lonely"));
        inc.observe("s-only", subnet_only, &kb);
        let subnet = Symbol::intern("azurerm_subnet");
        let nic = Symbol::intern("azurerm_network_interface");
        let affected = inc.take_affected_types();
        assert!(affected.contains(&subnet));
        assert!(
            affected.contains(&nic),
            "edge partner of a changed type must be re-scored: {affected:?}"
        );
        assert!(inc.take_affected_types().is_empty());
    }

    #[test]
    fn degree_max_survives_retraction_of_the_max_holder() {
        let kb = kb();
        // Two projects: one VM with two NICs (max degree 2), one with one.
        let two_nics = {
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
            p
        };
        let one_nic = networked(0);
        let mut inc = IncrementalStats::new(true);
        inc.observe("two", two_nics, &kb);
        inc.observe("one", one_nic.clone(), &kb);
        inc.retract("two", &kb);
        let batch = CorpusStats::build(&[one_nic], &kb, true);
        assert_eq!(inc.stats(), &batch, "degree max must re-fold to 1");
    }
}
