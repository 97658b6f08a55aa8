//! Galton–Watson workload model of the branch-and-bound search tree.
//!
//! The search tree Gentrius explores is a branching process: a state at
//! insertion position `d` (that many taxa placed on the agile tree) has
//! as many children as the next taxon has admissible branches — possibly
//! zero (a dead end). Fitting a per-depth-stratum offspring distribution
//! from a cheap, budget-capped serial profiling run yields a predictive
//! model in the spirit of the *Parallel Galton–Watson Process* analysis:
//!
//! * expected population per depth (`Z_{d+1} = Z_d · m_d`), hence
//!   expected stand-tree, intermediate-state and dead-end totals with
//!   log-space confidence bands from per-stratum standard errors;
//! * expected scaling per thread count, by replaying the engine's split
//!   policy (serial DFS within a task, stealable siblings only where the
//!   §III-A rule allows: ≥ 2 pending and ≥ `MIN_REMAINING` taxa left) on
//!   a deterministic synthetic tree drawn from the fitted offspring
//!   histograms. This reproduces the Fig. 5a plateau — a mean-value
//!   bound like Brent's would predict near-linear scaling for chain-
//!   shaped trees and mis-gate the bench.
//!
//! Everything is a pure function of the profile: fitting twice, or
//! predicting twice, yields identical results (no RNG, no clocks).

use gentrius_core::explore::{Explorer, StepEvent};
use gentrius_core::state::SearchState;
use gentrius_core::{CountOnly, GentriusConfig, ProblemError, StandProblem};
use std::collections::BTreeMap;

/// The engine's §III-A split cut-off (the default of
/// `min_remaining_for_split` in both the parallel engine and the
/// simulator): frames with fewer remaining taxa below them are never
/// split into tasks.
pub const MIN_REMAINING_FOR_SPLIT: usize = 3;

/// Node cap for the synthetic scheduling tree: far beyond the point where
/// scaling estimates stabilize, small enough to build in microseconds.
const SYNTH_NODE_CAP: usize = 150_000;

/// Per-stratum observations from a profiling run. Stratum `position` `d`
/// holds the nodes whose insertion made the `d`-th missing taxon concrete
/// (`1..=depth`); nodes at the final position are stand trees.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StratumStats {
    /// 1-based insertion position of the stratum.
    pub position: usize,
    /// Nodes observed at this position (entered states + dead ends, or
    /// stand trees at the final position).
    pub nodes: u64,
    /// Dead ends observed at this position.
    pub dead_ends: u64,
    /// Offspring histogram: `children -> count`. Dead ends contribute the
    /// zero bucket; the final position has no offspring.
    pub offspring: BTreeMap<u32, u64>,
}

impl StratumStats {
    fn new(position: usize) -> Self {
        StratumStats {
            position,
            nodes: 0,
            dead_ends: 0,
            offspring: BTreeMap::new(),
        }
    }

    fn record(&mut self, children: u32, dead: bool) {
        self.nodes += 1;
        if dead {
            self.dead_ends += 1;
        }
        *self.offspring.entry(children).or_insert(0) += 1;
    }
}

/// A budget-capped serial profile of one instance's search tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SearchProfile {
    /// Number of missing taxa = number of insertion positions.
    pub depth: usize,
    /// Admissible branches of the root state's first taxon (`Z_1`).
    pub root_offspring: u64,
    /// Per-position observations, indexed `position - 1`.
    pub strata: Vec<StratumStats>,
    /// Events consumed (entered + dead ends + stand trees).
    pub events: u64,
    /// True when the budget truncated the run before exhaustion.
    pub truncated: bool,
}

/// Runs a serial, budget-capped exploration and records per-stratum
/// offspring observations. Mirrors `run_serial`'s setup (initial tree,
/// root compatibility check, taxon order, mapping engine) so the profiled
/// tree is the same tree the engines search: an initial tree that
/// conflicts with a constraint profiles an empty search. DFS descends to
/// full depth immediately, so even small budgets populate every stratum.
pub fn profile_search(
    problem: &StandProblem,
    config: &GentriusConfig,
    max_events: u64,
) -> Result<SearchProfile, ProblemError> {
    let initial = problem.initial_tree_index(&config.initial_tree)?;
    let mut state = SearchState::new(problem, initial, &config.taxon_order)
        .map_err(ProblemError::BadTaxonOrder)?;
    state.enable_mapping(config.mapping);
    let depth = problem.all_taxa().count() - problem.constraints()[initial].taxa().count();
    let mut strata: Vec<StratumStats> = (1..=depth).map(StratumStats::new).collect();
    if problem.conflicting_constraint(&state.agile).is_some() {
        return Ok(SearchProfile {
            depth,
            root_offspring: 0,
            strata,
            events: 0,
            truncated: false,
        });
    }
    let mut ex = Explorer::new_root(state);
    let root_offspring = ex.top().map(|f| f.branches.len() as u64).unwrap_or(0);
    let mut events = 0u64;
    let mut sink = CountOnly;
    let mut truncated = false;
    loop {
        // Position of the node the next step materializes: the pre-step
        // stack length (the root frame sits at depth 1 / position 1).
        let position = ex.depth();
        match ex.step(&mut sink) {
            StepEvent::Entered => {
                let children = ex.top().map(|f| f.branches.len() as u32).unwrap_or(0);
                strata[position - 1].record(children, false);
                events += 1;
            }
            StepEvent::DeadEnd => {
                strata[position - 1].record(0, true);
                events += 1;
            }
            StepEvent::StandTree => {
                if position >= 1 && position <= strata.len() {
                    strata[position - 1].record(0, false);
                }
                events += 1;
            }
            StepEvent::Backtracked => {}
            StepEvent::Finished => break,
        }
        if events >= max_events {
            truncated = true;
            break;
        }
    }
    Ok(SearchProfile {
        depth,
        root_offspring,
        strata,
        events,
        truncated,
    })
}

/// One fitted stratum of the Galton–Watson model.
#[derive(Clone, Debug, PartialEq)]
pub struct GwStratum {
    /// 1-based insertion position.
    pub position: usize,
    /// Observations the fit is based on.
    pub n: u64,
    /// Mean offspring (branching factor) of nodes at this position.
    pub mean: f64,
    /// Offspring standard deviation.
    pub sd: f64,
    /// Dead-end probability (offspring = 0).
    pub p_dead: f64,
    /// Offspring histogram as fractions, `(children, probability)`.
    pub hist: Vec<(u32, f64)>,
}

/// The fitted per-instance-class Galton–Watson model.
#[derive(Clone, Debug, PartialEq)]
pub struct GwModel {
    /// Number of insertion positions.
    pub depth: usize,
    /// Root branching (`Z_1`).
    pub root_offspring: u64,
    /// Fitted strata for positions `1..depth` (the final position bears
    /// stand trees, not offspring).
    pub strata: Vec<GwStratum>,
}

/// Count predictions with a multiplicative confidence band.
#[derive(Clone, Debug, PartialEq)]
pub struct CountPrediction {
    /// Expected stand trees (`Z_depth`).
    pub stand_trees: f64,
    /// Expected intermediate states (`Σ_{d<depth} Z_d`).
    pub intermediate_states: f64,
    /// Expected dead ends (`Σ Z_d · p_dead_d`).
    pub dead_ends: f64,
    /// Expected population per position, `Z_1..Z_depth`.
    pub depth_profile: Vec<f64>,
    /// Multiplicative band: measured/predicted within `[1/band, band]` is
    /// consistent with the fit (log-space, two-sigma per-stratum standard
    /// errors compounded along the depth profile, with an inflation floor
    /// for the DFS-truncation bias of capped profiles).
    pub band: f64,
}

impl GwModel {
    /// Fits per-stratum offspring distributions from a profile. Pure:
    /// identical profiles yield identical models.
    pub fn fit(profile: &SearchProfile) -> GwModel {
        let strata = profile
            .strata
            .iter()
            .take(profile.depth.saturating_sub(1))
            .map(|s| {
                let n = s.nodes;
                let (mut sum, mut sumsq) = (0.0f64, 0.0f64);
                for (&k, &c) in &s.offspring {
                    sum += k as f64 * c as f64;
                    sumsq += (k as f64) * (k as f64) * c as f64;
                }
                let nf = (n as f64).max(1.0);
                let mean = sum / nf;
                let var = (sumsq / nf - mean * mean).max(0.0);
                let hist = s
                    .offspring
                    .iter()
                    .map(|(&k, &c)| (k, c as f64 / nf))
                    .collect();
                GwStratum {
                    position: s.position,
                    n,
                    mean,
                    sd: var.sqrt(),
                    p_dead: s.dead_ends as f64 / nf,
                    hist,
                }
            })
            .collect();
        GwModel {
            depth: profile.depth,
            root_offspring: profile.root_offspring,
            strata,
        }
    }

    /// Expected per-position populations and event totals, with the
    /// fitted confidence band.
    pub fn predict_counts(&self) -> CountPrediction {
        if self.depth == 0 {
            return CountPrediction {
                stand_trees: 1.0,
                intermediate_states: 0.0,
                dead_ends: 0.0,
                depth_profile: Vec::new(),
                band: 1.5,
            };
        }
        let mut depth_profile = Vec::with_capacity(self.depth);
        let mut z = self.root_offspring as f64;
        depth_profile.push(z);
        let mut log_var = 0.0f64;
        let mut dead = 0.0f64;
        for s in &self.strata {
            dead += z * s.p_dead;
            // Relative standard error of the stratum mean, compounded in
            // log space along the product Z_{d+1} = Z_d · m_d.
            if s.mean > 0.0 && s.n > 0 {
                let rel_se = s.sd / (s.n as f64).sqrt() / s.mean;
                log_var += rel_se * rel_se;
            }
            z *= s.mean;
            depth_profile.push(z);
        }
        let stand_trees = depth_profile[self.depth - 1];
        let intermediate_states: f64 = depth_profile[..self.depth - 1].iter().sum();
        // Two-sigma log-space band with an inflation floor: capped
        // profiles observe a DFS prefix, not an unbiased sample, so the
        // analytic term alone under-covers.
        let band = (2.0 * log_var.sqrt()).exp().clamp(1.6, 12.0);
        CountPrediction {
            stand_trees,
            intermediate_states,
            dead_ends: dead,
            depth_profile,
            band,
        }
    }

    /// Predicted speedup at `threads` workers: builds a deterministic
    /// synthetic tree from the fitted offspring histograms and replays
    /// the engine's split policy on it in lock-step. Chain-shaped strata
    /// produce the Fig. 5a plateau; bushy strata scale nearly linearly.
    pub fn predict_speedup(&self, threads: usize) -> f64 {
        let tree = self.synthetic_tree();
        if tree.is_empty() || threads <= 1 {
            return 1.0;
        }
        let t1 = tree.len() as u64;
        let tn = schedule_makespan(&tree, self.depth, threads.max(1));
        t1 as f64 / tn.max(1) as f64
    }

    /// Deterministic synthetic tree: per stratum, offspring counts are
    /// allocated to nodes by largest-remainder apportionment of the
    /// fitted histogram, then dealt round-robin so sibling shapes mix.
    /// Returns nodes as `(position, children_count)` in creation (BFS)
    /// order with child ranges implicit; capped at [`SYNTH_NODE_CAP`].
    fn synthetic_tree(&self) -> Vec<SynthNode> {
        let mut nodes: Vec<SynthNode> = Vec::new();
        if self.depth == 0 {
            return nodes;
        }
        // Position-1 nodes: the root's branches.
        let mut frontier = (self.root_offspring as usize).min(SYNTH_NODE_CAP);
        for _ in 0..frontier {
            nodes.push(SynthNode {
                position: 1,
                children: 0,
            });
        }
        let mut level_start = 0usize;
        for s in &self.strata {
            if frontier == 0 || nodes.len() >= SYNTH_NODE_CAP {
                break;
            }
            let counts = apportion(&s.hist, frontier);
            let mut next = 0usize;
            for (i, &c) in counts.iter().enumerate() {
                let budget_left = SYNTH_NODE_CAP.saturating_sub(nodes.len() + next);
                let c = c.min(budget_left);
                nodes[level_start + i].children = c as u32;
                next += c;
            }
            for _ in 0..next {
                nodes.push(SynthNode {
                    position: s.position + 1,
                    children: 0,
                });
            }
            level_start += frontier;
            frontier = next;
        }
        nodes
    }
}

/// A synthetic-tree node: its insertion position and child count. The
/// children of level-order node `i` occupy the next free slots of the
/// following level, in order — enough structure for the scheduler, which
/// only walks levels.
#[derive(Clone, Copy, Debug)]
struct SynthNode {
    position: usize,
    children: u32,
}

/// Largest-remainder apportionment of `hist` (fractions) over `n` nodes,
/// dealt round-robin across the node list so consecutive nodes differ.
fn apportion(hist: &[(u32, f64)], n: usize) -> Vec<usize> {
    let mut quota: Vec<(u32, f64)> = hist.iter().map(|&(k, p)| (k, p * n as f64)).collect();
    let mut alloc: Vec<(u32, usize)> = quota.iter().map(|&(k, q)| (k, q as usize)).collect();
    let assigned: usize = alloc.iter().map(|&(_, c)| c).sum();
    // Distribute the remainder to the largest fractional parts
    // (ties broken by child count, descending — favor branching).
    quota.iter_mut().for_each(|e| e.1 -= e.1.floor());
    let mut order: Vec<usize> = (0..quota.len()).collect();
    order.sort_by(|&a, &b| {
        quota[b]
            .1
            .partial_cmp(&quota[a].1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(quota[b].0.cmp(&quota[a].0))
    });
    for &i in order.iter().take(n.saturating_sub(assigned)) {
        alloc[i].1 += 1;
    }
    // Deal the multiset round-robin: node j takes one value from bucket
    // j mod buckets until buckets drain.
    let mut out = Vec::with_capacity(n);
    let mut buckets: Vec<(u32, usize)> = alloc.into_iter().filter(|&(_, c)| c > 0).collect();
    let mut bi = 0usize;
    while out.len() < n && !buckets.is_empty() {
        bi %= buckets.len();
        let (k, ref mut c) = buckets[bi];
        out.push(k as usize);
        *c -= 1;
        if buckets[bi].1 == 0 {
            buckets.remove(bi);
        } else {
            bi += 1;
        }
    }
    while out.len() < n {
        out.push(0);
    }
    out
}

/// Lock-step list scheduler honoring the engine's split policy: every
/// node costs one tick; a worker explores its subtree DFS (LIFO own
/// stack); siblings become stealable only when the frame had ≥ 2 pending
/// children and at least [`MIN_REMAINING_FOR_SPLIT`] insertion positions
/// remained below; idle workers steal the shallowest stealable entry
/// from the fullest victim. Deterministic.
fn schedule_makespan(tree: &[SynthNode], depth: usize, threads: usize) -> u64 {
    // Rebuild child ranges level by level (children occupy the next
    // level's slots in order).
    let n = tree.len();
    let mut first_child = vec![usize::MAX; n];
    let mut level_start = 0usize;
    let mut level_len = tree.iter().take_while(|s| s.position == 1).count();
    let mut next_level_start = level_len;
    while level_len > 0 && next_level_start < n {
        let mut cursor = next_level_start;
        for i in level_start..level_start + level_len {
            if tree[i].children > 0 {
                first_child[i] = cursor;
                cursor += tree[i].children as usize;
            }
        }
        level_start = next_level_start;
        level_len = cursor - next_level_start;
        next_level_start = cursor;
    }

    #[derive(Clone)]
    struct Entry {
        node: usize,
        stealable: bool,
    }
    let root_count = tree.iter().take_while(|s| s.position == 1).count();
    let mut stacks: Vec<Vec<Entry>> = vec![Vec::new(); threads];
    // The root frame: all position-1 branches, stealable when the split
    // rule allows at the root.
    let root_stealable = root_count >= 2 && depth >= MIN_REMAINING_FOR_SPLIT;
    for i in (0..root_count).rev() {
        stacks[0].push(Entry {
            node: i,
            stealable: root_stealable,
        });
    }
    let mut ticks = 0u64;
    loop {
        if stacks.iter().all(|s| s.is_empty()) {
            break;
        }
        ticks += 1;
        // Execution phase: every non-idle worker pays one tick for its
        // top entry and expands it.
        let mut pushes: Vec<(usize, Vec<Entry>)> = Vec::new();
        for (w, stack) in stacks.iter_mut().enumerate() {
            let Some(e) = stack.pop() else { continue };
            let node = &tree[e.node];
            let c = node.children as usize;
            if c > 0 && first_child[e.node] != usize::MAX {
                let remaining = depth.saturating_sub(node.position);
                let stealable = c >= 2 && remaining >= MIN_REMAINING_FOR_SPLIT;
                let entries: Vec<Entry> = (0..c)
                    .rev()
                    .map(|j| Entry {
                        node: first_child[e.node] + j,
                        stealable,
                    })
                    .collect();
                pushes.push((w, entries));
            }
        }
        for (w, entries) in pushes {
            stacks[w].extend(entries);
        }
        // Steal phase: each idle worker takes the shallowest stealable
        // entry from the victim with the most stealable work.
        for w in 0..threads {
            if !stacks[w].is_empty() {
                continue;
            }
            let victim = (0..threads)
                .filter(|&v| v != w)
                .max_by_key(|&v| stacks[v].iter().filter(|e| e.stealable).count());
            if let Some(v) = victim {
                if let Some(pos) = stacks[v].iter().position(|e| e.stealable) {
                    let e = stacks[v].remove(pos);
                    stacks[w].push(e);
                }
            }
        }
    }
    ticks
}

#[cfg(test)]
mod tests {
    use super::*;
    use gentrius_core::run_serial;
    use phylo::newick::parse_forest;

    fn toy_problem() -> StandProblem {
        let (_, trees) = parse_forest(["((A,B),(C,D));", "((A,E),(F,G));"]).unwrap();
        StandProblem::from_constraints(trees).unwrap()
    }

    #[test]
    fn profile_matches_serial_counters_when_unbounded() {
        let p = toy_problem();
        let cfg = GentriusConfig::exhaustive();
        let profile = profile_search(&p, &cfg, u64::MAX).unwrap();
        assert!(!profile.truncated);
        let serial = run_serial(&p, &cfg, &mut CountOnly).unwrap();
        let trees: u64 = profile.strata.last().map(|s| s.nodes).unwrap_or(0);
        let states: u64 = profile.strata[..profile.depth - 1]
            .iter()
            .map(|s| s.nodes)
            .sum();
        let dead: u64 = profile.strata.iter().map(|s| s.dead_ends).sum();
        assert_eq!(trees, serial.stats.stand_trees);
        assert_eq!(states, serial.stats.intermediate_states);
        assert_eq!(dead, serial.stats.dead_ends);
    }

    #[test]
    fn conflicting_initial_tree_profiles_an_empty_search() {
        // The first two constraints split {A,B,C,D} differently, so
        // `run_serial` reports an empty stand without exploring, and the
        // profile must not walk a search the engines never run.
        let (_, trees) =
            parse_forest(["((A,B),(C,D));", "((A,C),(B,D));", "((A,E),(F,B));"]).unwrap();
        let p = StandProblem::from_constraints(trees).unwrap();
        let cfg = GentriusConfig::exhaustive();
        let serial = run_serial(&p, &cfg, &mut CountOnly).unwrap();
        assert!(serial.complete());
        assert_eq!(serial.stats.intermediate_states, 0);
        assert_eq!(serial.stats.stand_trees, 0);
        let profile = profile_search(&p, &cfg, u64::MAX).unwrap();
        assert_eq!(profile.events, 0);
        assert_eq!(profile.root_offspring, 0);
        assert!(!profile.truncated);
        assert!(profile.strata.iter().all(|s| s.nodes == 0));
    }

    #[test]
    fn unbounded_fit_predicts_exact_totals() {
        let p = toy_problem();
        let cfg = GentriusConfig::exhaustive();
        let profile = profile_search(&p, &cfg, u64::MAX).unwrap();
        let model = GwModel::fit(&profile);
        let pred = model.predict_counts();
        let serial = run_serial(&p, &cfg, &mut CountOnly).unwrap();
        // An unbounded profile observes the whole tree: the per-stratum
        // means are exact, so the depth-profile products reproduce the
        // true totals exactly (floating-point roundoff aside).
        assert!((pred.stand_trees - serial.stats.stand_trees as f64).abs() < 1e-6);
        assert!((pred.intermediate_states - serial.stats.intermediate_states as f64).abs() < 1e-6);
        assert!((pred.dead_ends - serial.stats.dead_ends as f64).abs() < 1e-6);
    }

    #[test]
    fn fit_and_predictions_are_deterministic() {
        let p = toy_problem();
        let cfg = GentriusConfig::exhaustive();
        let pr1 = profile_search(&p, &cfg, 1_000).unwrap();
        let pr2 = profile_search(&p, &cfg, 1_000).unwrap();
        assert_eq!(pr1, pr2);
        let m1 = GwModel::fit(&pr1);
        let m2 = GwModel::fit(&pr2);
        assert_eq!(m1, m2);
        assert_eq!(m1.predict_counts(), m2.predict_counts());
        assert_eq!(
            m1.predict_speedup(4).to_bits(),
            m2.predict_speedup(4).to_bits()
        );
    }

    #[test]
    fn chain_tree_does_not_scale() {
        // A pure chain: one child per stratum — no stealable work at all.
        let model = GwModel {
            depth: 20,
            root_offspring: 1,
            strata: (1..20)
                .map(|d| GwStratum {
                    position: d,
                    n: 1,
                    mean: 1.0,
                    sd: 0.0,
                    p_dead: 0.0,
                    hist: vec![(1, 1.0)],
                })
                .collect(),
        };
        let sp = model.predict_speedup(8);
        assert!((sp - 1.0).abs() < 1e-9, "chain speedup {sp}");
    }

    #[test]
    fn bushy_tree_scales_and_saturated_chain_plateaus() {
        // Binary-branching tree: close-to-linear scaling.
        let bushy = GwModel {
            depth: 12,
            root_offspring: 2,
            strata: (1..12)
                .map(|d| GwStratum {
                    position: d,
                    n: 100,
                    mean: 2.0,
                    sd: 0.0,
                    p_dead: 0.0,
                    hist: vec![(2, 1.0)],
                })
                .collect(),
        };
        let sp4 = bushy.predict_speedup(4);
        assert!(sp4 > 3.0, "bushy sp4={sp4}");
        // Plateau shape: a 4-way split at the top, pure chains below —
        // speedup saturates near 4 no matter the thread count.
        let plateau = GwModel {
            depth: 30,
            root_offspring: 4,
            strata: (1..30)
                .map(|d| GwStratum {
                    position: d,
                    n: 4,
                    mean: 1.0,
                    sd: 0.0,
                    p_dead: 0.0,
                    hist: vec![(1, 1.0)],
                })
                .collect(),
        };
        let sp8 = plateau.predict_speedup(8);
        let sp16 = plateau.predict_speedup(16);
        assert!(sp8 > 2.5, "plateau sp8={sp8}");
        assert!(sp8 < 5.0, "plateau sp8={sp8}");
        assert!((sp16 - sp8).abs() < 0.5, "no plateau: {sp8} vs {sp16}");
    }
}
