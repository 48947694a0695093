//! Seeded input generation. The benchmark's workloads see only what this
//! module builds from `--seed`; the same seed always yields the same stages.
//!
//! Continuous parameters are drawn by stratified sampling (one draw per
//! equal-width stratum, in seeded order), so every seed produces nearly the
//! same distribution of stage costs and only the pairing of parameters moves.
//! That keeps medians comparable across seeds without fixing the inputs.
//!
//! What is anchored and what is chosen: long lines (and the line stages of
//! the dependent chains) are the paper's published geometries with their
//! published parasitics (`interconnect::paper_cases`: Table 1 and the figure
//! cases, 3–7 mm, 0.8–3.0 µm), the drive sizes are the paper's 25X, 75X and
//! 100X, and input slews span the paper's 50–100 ps. The batch mix weights,
//! the lumped, pi, short-line and tree parameter ranges and the receiver
//! capacitances are chosen for this benchmark, not measured from any design.

use std::sync::Arc;

use rlc_ceff_suite::interconnect::paper_cases::{all_published_parasitics, PublishedParasitics};
use rlc_ceff_suite::interconnect::prelude::*;
use rlc_ceff_suite::moments::PiModel;
use rlc_ceff_suite::{DistributedRlcLoad, LoadModel, LumpedCapLoad, PiModelLoad, RlcTreeLoad};
use rlc_service::RemoteLoad;

/// Drive strengths characterized through `Library` on the default grid, the
/// sizes the paper's cases use; the seed picks one per stage.
pub const DRIVE_SIZES: [f64; 3] = [25.0, 75.0, 100.0];

/// Input slews, in ps: the range of the paper's cases.
const SLEW_PS: (f64, f64) = (50.0, 100.0);

/// Sink names of the 3-sink tree loads.
pub const TREE_SINKS: [&str; 3] = ["rx0", "rx1", "rx2"];

/// SplitMix64: small, fast and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_cafe_f00d_d00d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `n` values in `[lo, hi)`, one per equal-width stratum, in seeded order.
    pub fn stratified(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        let mut strata: Vec<usize> = (0..n).collect();
        self.shuffle(&mut strata);
        strata
            .into_iter()
            .map(|k| lo + (hi - lo) * (k as f64 + self.unit()) / n as f64)
            .collect()
    }

    /// `n` drive sizes, each size equally often, in seeded order.
    pub fn sizes(&mut self, n: usize) -> Vec<f64> {
        let mut sizes: Vec<f64> = (0..n).map(|i| DRIVE_SIZES[i % DRIVE_SIZES.len()]).collect();
        self.shuffle(&mut sizes);
        sizes
    }
}

fn wire(length_mm: f64, width_um: f64) -> RlcLine {
    EmpiricalExtractor::cmos018().extract(&WireGeometry::new(mm(length_mm), um(width_um)))
}

fn published_line(p: &PublishedParasitics) -> RlcLine {
    RlcLine::new(p.r_ohms, p.l_nh * 1e-9, p.c_pf * 1e-12, mm(p.length_mm))
}

/// A load description both the facade and the service client can build.
#[derive(Debug, Clone)]
pub enum LoadSpec {
    Lumped {
        c: f64,
    },
    Pi {
        c_near: f64,
        resistance: f64,
        c_far: f64,
    },
    Line {
        line: RlcLine,
        c_load: f64,
    },
    /// A trunk feeding three branches, one sink each ([`TREE_SINKS`]).
    Tree {
        trunk: RlcLine,
        branches: Vec<(RlcLine, f64)>,
    },
}

impl LoadSpec {
    fn tree(&self) -> Option<RlcTree> {
        let LoadSpec::Tree { trunk, branches } = self else {
            return None;
        };
        let mut tree = RlcTree::new();
        let root = tree.add_branch(None, *trunk);
        for ((line, c), name) in branches.iter().zip(TREE_SINKS) {
            let branch = tree.add_branch(Some(root), *line);
            tree.set_sink(branch, name, *c);
        }
        Some(tree)
    }

    /// The facade load model.
    pub fn model(&self) -> Arc<dyn LoadModel> {
        match self {
            LoadSpec::Lumped { c } => Arc::new(LumpedCapLoad::new(*c).expect("valid lumped load")),
            LoadSpec::Pi {
                c_near,
                resistance,
                c_far,
            } => Arc::new(
                PiModelLoad::new(PiModel {
                    c_near: *c_near,
                    resistance: *resistance,
                    c_far: *c_far,
                })
                .expect("valid pi load"),
            ),
            LoadSpec::Line { line, c_load } => {
                Arc::new(DistributedRlcLoad::new(*line, *c_load).expect("valid line load"))
            }
            LoadSpec::Tree { .. } => Arc::new(
                RlcTreeLoad::new(self.tree().expect("tree spec")).expect("valid tree load"),
            ),
        }
    }

    /// The same load as a service-client description.
    pub fn remote(&self) -> RemoteLoad {
        match self {
            LoadSpec::Lumped { c } => RemoteLoad::lumped(*c),
            LoadSpec::Pi {
                c_near,
                resistance,
                c_far,
            } => RemoteLoad::pi(*c_near, *resistance, *c_far),
            LoadSpec::Line { line, c_load } => RemoteLoad::line(line, *c_load),
            LoadSpec::Tree { .. } => RemoteLoad::from_tree(&self.tree().expect("tree spec")),
        }
    }

    /// The receiver capacitance an ECO edit changes: the line's far-end load
    /// or the first tree sink.
    pub fn fanout(&self) -> f64 {
        match self {
            LoadSpec::Lumped { c } => *c,
            LoadSpec::Pi { c_far, .. } => *c_far,
            LoadSpec::Line { c_load, .. } => *c_load,
            LoadSpec::Tree { branches, .. } => branches[0].1,
        }
    }

    /// This load with its [`LoadSpec::fanout`] replaced.
    pub fn with_fanout(&self, c: f64) -> LoadSpec {
        let mut edited = self.clone();
        match &mut edited {
            LoadSpec::Lumped { c: old } => *old = c,
            LoadSpec::Pi { c_far, .. } => *c_far = c,
            LoadSpec::Line { c_load, .. } => *c_load = c,
            LoadSpec::Tree { branches, .. } => branches[0].1 = c,
        }
        edited
    }
}

/// Where a stage's input comes from; producers are earlier stages of the
/// same request, by position.
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    Slew(f64),
    FarEnd(usize),
    Sink(usize, &'static str),
}

impl Input {
    pub fn producer(&self) -> Option<usize> {
        match self {
            Input::Slew(_) => None,
            Input::FarEnd(p) | Input::Sink(p, _) => Some(*p),
        }
    }
}

#[derive(Debug, Clone)]
pub struct StageSpec {
    pub label: String,
    pub size: f64,
    pub load: LoadSpec,
    pub input: Input,
}

/// One closed-loop request: stages in topological order.
pub type Request = Vec<StageSpec>;

/// Load classes of the batch mix, with their share of a round out of 8. The
/// weights are chosen, not measured: every class is in every round, and the
/// line classes, which span the single- to two-ramp range, get twice the
/// weight of the lumped and pi loads.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Class {
    Lumped,
    Pi,
    ShortLine,
    LongLine,
    Tree,
}

const BATCH_MIX: [(Class, usize); 5] = [
    (Class::Lumped, 1),
    (Class::Pi, 1),
    (Class::ShortLine, 2),
    (Class::LongLine, 2),
    (Class::Tree, 2),
];

/// Stages per batch round.
pub const ROUND_STAGES: usize = 64;

fn tree_loads(rng: &mut Rng, n: usize) -> Vec<LoadSpec> {
    let trunks = rng.stratified(n, 1.0, 3.0);
    let branch_lengths: Vec<Vec<f64>> = (0..3).map(|_| rng.stratified(n, 0.4, 1.5)).collect();
    let sink_caps: Vec<Vec<f64>> = (0..3).map(|_| rng.stratified(n, 8.0, 30.0)).collect();
    (0..n)
        .map(|i| LoadSpec::Tree {
            trunk: wire(trunks[i], 1.6),
            branches: (0..3)
                .map(|b| (wire(branch_lengths[b][i], 0.8), ff(sink_caps[b][i])))
                .collect(),
        })
        .collect()
}

/// `n` short lines (0.3–1.5 mm, 0.8–1.6 µm), which the model drives with a
/// single ramp.
fn short_line_loads(rng: &mut Rng, n: usize) -> Vec<LoadSpec> {
    let lengths = rng.stratified(n, 0.3, 1.5);
    let widths = rng.stratified(n, 0.8, 1.6);
    let caps = rng.stratified(n, 5.0, 50.0);
    (0..n)
        .map(|i| LoadSpec::Line {
            line: wire(lengths[i], widths[i]),
            c_load: ff(caps[i]),
        })
        .collect()
}

/// `n` lines of the paper's published geometries, each geometry equally
/// often (seeded order), with chosen receiver capacitances.
fn published_line_loads(rng: &mut Rng, n: usize) -> Vec<LoadSpec> {
    let published = all_published_parasitics();
    let mut picks: Vec<usize> = (0..n).map(|i| i % published.len()).collect();
    rng.shuffle(&mut picks);
    let caps = rng.stratified(n, 5.0, 50.0);
    picks
        .into_iter()
        .zip(caps)
        .map(|(k, c)| LoadSpec::Line {
            line: published_line(&published[k]),
            c_load: ff(c),
        })
        .collect()
}

fn class_loads(rng: &mut Rng, class: Class, n: usize) -> Vec<LoadSpec> {
    match class {
        Class::Lumped => rng
            .stratified(n, 50.0, 1000.0)
            .into_iter()
            .map(|c| LoadSpec::Lumped { c: ff(c) })
            .collect(),
        Class::Pi => {
            let near = rng.stratified(n, 50.0, 400.0);
            let res = rng.stratified(n, 20.0, 200.0);
            let far = rng.stratified(n, 100.0, 800.0);
            (0..n)
                .map(|i| LoadSpec::Pi {
                    c_near: ff(near[i]),
                    resistance: res[i],
                    c_far: ff(far[i]),
                })
                .collect()
        }
        Class::ShortLine => short_line_loads(rng, n),
        Class::LongLine => published_line_loads(rng, n),
        Class::Tree => tree_loads(rng, n),
    }
}

/// The independent-stage stream of `wide_batch` and `remote_batch`: `rounds`
/// rounds of [`ROUND_STAGES`] stages, each round holding the full load mix in
/// fixed proportions.
pub fn batch_rounds(seed: u64, rounds: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    let total = rounds * ROUND_STAGES;
    let eighth = total / 8;
    let mut per_round: Vec<Vec<LoadSpec>> = vec![Vec::new(); rounds];
    for (class, share) in BATCH_MIX {
        let drawn = class_loads(&mut rng, class, share * eighth);
        // Deal each class evenly over the rounds.
        for (i, load) in drawn.into_iter().enumerate() {
            per_round[i % rounds].push(load);
        }
    }
    let sizes = rng.sizes(total);
    let slews = rng.stratified(total, SLEW_PS.0, SLEW_PS.1);
    let mut requests = Vec::with_capacity(rounds);
    for (r, mut round) in per_round.into_iter().enumerate() {
        rng.shuffle(&mut round);
        requests.push(
            round
                .into_iter()
                .enumerate()
                .map(|(i, load)| {
                    let k = r * ROUND_STAGES + i;
                    StageSpec {
                        label: format!("r{r}-s{i}"),
                        size: sizes[k],
                        load,
                        input: Input::Slew(ps(slews[k])),
                    }
                })
                .collect(),
        );
    }
    requests
}

/// One repeater chain: line → tree (handoff through the line's far end) →
/// line (handoff through a tree sink) → tree …, `stages` long.
fn chain(
    prefix: &str,
    stages: usize,
    slew: f64,
    sizes: &[f64],
    lines: &mut impl Iterator<Item = LoadSpec>,
    trees: &mut impl Iterator<Item = LoadSpec>,
    sink: &'static str,
) -> Request {
    (0..stages)
        .map(|k| StageSpec {
            label: format!("{prefix}-s{k}"),
            size: sizes[k],
            load: if k % 2 == 0 {
                lines.next().expect("enough lines")
            } else {
                trees.next().expect("enough trees")
            },
            input: match k {
                0 => Input::Slew(ps(slew)),
                k if k % 2 == 1 => Input::FarEnd(k - 1),
                k => Input::Sink(k - 1, sink),
            },
        })
        .collect()
}

/// Stages per `deep_paths` path: line → tree → line → tree, the shape of the
/// legacy `path_chain_4stage` row.
pub const PATH_STAGES: usize = 4;

/// The dependent paths of `deep_paths`: each a [`PATH_STAGES`]-stage chain
/// whose handoffs take both far-end routes (`input_from` a line,
/// `input_from_sink` a tree).
pub fn paths(seed: u64, count: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ 0xd33b);
    let lines_needed = count * PATH_STAGES.div_ceil(2);
    let trees_needed = count * (PATH_STAGES / 2);
    let mut lines = published_line_loads(&mut rng, lines_needed).into_iter();
    let mut trees = tree_loads(&mut rng, trees_needed).into_iter();
    let sizes = rng.sizes(count * PATH_STAGES);
    let slews = rng.stratified(count, SLEW_PS.0, SLEW_PS.1);
    (0..count)
        .map(|p| {
            let sink = TREE_SINKS[rng.below(TREE_SINKS.len())];
            chain(
                &format!("p{p}"),
                PATH_STAGES,
                slews[p],
                &sizes[p * PATH_STAGES..],
                &mut lines,
                &mut trees,
                sink,
            )
        })
        .collect()
}

/// Chains and stages per chain of the `eco_edit` design.
pub const ECO_CHAINS: usize = 4;
pub const ECO_CHAIN_STAGES: usize = 4;

/// The fixed `eco_edit` design: [`ECO_CHAINS`] independent repeater chains
/// of [`ECO_CHAIN_STAGES`] stages, flattened into one request.
pub fn eco_design(seed: u64) -> Request {
    let mut rng = Rng::new(seed ^ 0xec0);
    let n = ECO_CHAINS * ECO_CHAIN_STAGES;
    let mut lines = published_line_loads(&mut rng, n / 2).into_iter();
    let mut trees = tree_loads(&mut rng, n / 2).into_iter();
    let sizes = rng.sizes(n);
    let slews = rng.stratified(ECO_CHAINS, SLEW_PS.0, SLEW_PS.1);
    let mut design = Vec::with_capacity(n);
    for (c, slew) in slews.into_iter().enumerate() {
        let sink = TREE_SINKS[rng.below(TREE_SINKS.len())];
        let offset = design.len();
        for mut stage in chain(
            &format!("c{c}"),
            ECO_CHAIN_STAGES,
            slew,
            &sizes[offset..],
            &mut lines,
            &mut trees,
            sink,
        ) {
            stage.input = match stage.input {
                Input::Slew(s) => Input::Slew(s),
                Input::FarEnd(p) => Input::FarEnd(p + offset),
                Input::Sink(p, name) => Input::Sink(p + offset, name),
            };
            design.push(stage);
        }
    }
    design
}

/// The seeded edit sequence of `eco_edit`: design positions in an order that
/// visits every position once per cycle, so each seed edits every cone depth
/// equally often.
pub fn eco_edit_order(seed: u64, edits: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0xed17);
    let n = ECO_CHAINS * ECO_CHAIN_STAGES;
    let mut order = Vec::with_capacity(edits);
    while order.len() < edits {
        let mut cycle: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut cycle);
        order.extend(cycle);
    }
    order.truncate(edits);
    order
}

/// The stages an edit of `position` re-simulates: it and everything after
/// it in its chain.
pub fn eco_cone(position: usize) -> usize {
    ECO_CHAIN_STAGES - position % ECO_CHAIN_STAGES
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(requests: &[Request]) -> String {
        format!("{requests:?}")
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        assert_eq!(
            fingerprint(&batch_rounds(7, 2)),
            fingerprint(&batch_rounds(7, 2))
        );
        assert_eq!(fingerprint(&paths(7, 4)), fingerprint(&paths(7, 4)));
        assert_eq!(fingerprint(&[eco_design(7)]), fingerprint(&[eco_design(7)]));
        assert_eq!(eco_edit_order(7, 40), eco_edit_order(7, 40));
        assert_ne!(
            fingerprint(&batch_rounds(7, 2)),
            fingerprint(&batch_rounds(8, 2))
        );
        assert_ne!(fingerprint(&paths(7, 4)), fingerprint(&paths(8, 4)));
    }

    #[test]
    fn rounds_hold_the_full_mix_in_fixed_proportions() {
        for round in batch_rounds(3, 4) {
            assert_eq!(round.len(), ROUND_STAGES);
            let count = |f: fn(&LoadSpec) -> bool| round.iter().filter(|s| f(&s.load)).count();
            assert_eq!(count(|l| matches!(l, LoadSpec::Lumped { .. })), 8);
            assert_eq!(count(|l| matches!(l, LoadSpec::Pi { .. })), 8);
            assert_eq!(count(|l| matches!(l, LoadSpec::Line { .. })), 32);
            assert_eq!(count(|l| matches!(l, LoadSpec::Tree { .. })), 16);
            for size in DRIVE_SIZES {
                assert!(round.iter().any(|s| s.size == size));
            }
        }
    }

    #[test]
    fn chains_alternate_both_handoff_routes() {
        for path in paths(11, 3) {
            assert_eq!(path[1].input, Input::FarEnd(0));
            assert!(matches!(path[2].input, Input::Sink(1, _)));
            assert_eq!(path[3].input, Input::FarEnd(2));
        }
        let design = eco_design(11);
        assert_eq!(design.len(), ECO_CHAINS * ECO_CHAIN_STAGES);
        assert_eq!(design[5].input, Input::FarEnd(4));
        assert_eq!(eco_cone(4), ECO_CHAIN_STAGES);
        assert_eq!(eco_cone(7), 1);
    }

    #[test]
    fn edits_visit_every_position_once_per_cycle() {
        let n = ECO_CHAINS * ECO_CHAIN_STAGES;
        let mut cycle = eco_edit_order(5, n);
        cycle.sort_unstable();
        assert_eq!(cycle, (0..n).collect::<Vec<_>>());
    }
}
