//! Early-stop parity: a run given `TransientOptions::stop_at` must be a
//! bit-exact prefix of the same run without it, on every kernel, and must end
//! at the first time point by which every listed crossing has occurred. A
//! crossing that never comes leaves the run to end at `stop_time`.

use rlc_numeric::units::{ff, nh, pf, ps};
use rlc_spice::prelude::*;
use rlc_spice::source::SourceWaveform;
use rlc_spice::testbench::{
    inverter_with_cap_load, pwl_source_with_rlc_line, InverterSpec, OutputTransition,
};

const VDD: f64 = 1.8;

/// Runs `ckt` with and without the stop rule and returns both results after
/// checking that the stopped run is a bit-exact prefix of the full one.
fn stopped_and_full(
    label: &str,
    ckt: &Circuit,
    options: TransientOptions,
    stop_at: &[Crossing],
) -> (TransientResult, TransientResult) {
    let full = TransientAnalysis::new(options.clone()).run(ckt).unwrap();
    let stopped = TransientAnalysis::new(options.with_stop_at(stop_at.iter().copied()))
        .run(ckt)
        .unwrap();
    assert_eq!(stopped.strategy(), full.strategy(), "{label}: kernel");
    let n = stopped.num_points();
    assert!(n <= full.num_points(), "{label}: stopped run is longer");
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(stopped.times()),
        bits(&full.times()[..n]),
        "{label}: times"
    );
    for (k, (a, b)) in stopped.solutions().zip(full.solutions()).enumerate() {
        assert_eq!(bits(a), bits(b), "{label}: solution at point {k}");
    }
    assert_eq!(stopped.solutions().count(), n);
    (stopped, full)
}

/// Checks that `stopped` ended early, at the first point by which every
/// crossing had occurred, and that each crossing measures as on `full`.
fn assert_stops_at_last_crossing(
    label: &str,
    stopped: &TransientResult,
    full: &TransientResult,
    stop_at: &[Crossing],
) {
    let n = stopped.num_points();
    assert!(n < full.num_points(), "{label}: run did not stop early");
    let mut last = 0.0f64;
    for c in stop_at {
        let at = stopped.waveform(c.node).crossing_time(c.level, c.rising);
        let at_full = full.waveform(c.node).crossing_time(c.level, c.rising);
        assert_eq!(at.map(f64::to_bits), at_full.map(f64::to_bits), "{label}");
        last = last.max(at.expect("listed crossing occurred"));
    }
    // The last listed crossing lies in the run's final segment: one point
    // fewer would not have contained it.
    let times = stopped.times();
    assert!(
        times[n - 2] <= last && last <= times[n - 1],
        "{label}: last crossing at {last:e} s, run ended at {:e} s",
        times[n - 1]
    );
}

fn options(time_step: f64, stop: f64, strategy: KernelStrategy) -> TransientOptions {
    TransientOptions::try_new(time_step, stop)
        .unwrap()
        .with_strategy(strategy)
}

/// A ramp driving a fig4-style RLC ladder: the linear kernels' workload.
fn ladder() -> (Circuit, NodeId) {
    let (ckt, nodes) = pwl_source_with_rlc_line(
        SourceWaveform::rising_ramp(VDD, 0.0, ps(100.0)),
        0.0,
        72.44,
        nh(5.14),
        pf(1.10),
        16,
        ff(10.0),
    );
    (ckt, nodes.far_end)
}

/// The characterization testbench: a 75X inverter into a lumped 1 pF, on
/// which the split-stamp kernel takes its Woodbury rank-update path.
fn inverter() -> (Circuit, NodeId) {
    let (ckt, nodes) = inverter_with_cap_load(
        &InverterSpec::sized_018(75.0),
        ps(100.0),
        ps(20.0),
        pf(1.0),
        OutputTransition::Rising,
    );
    (ckt, nodes.output)
}

/// Two stacked zero-parasitic NMOS devices: the MOSFET-only middle node
/// fails the rank-update conditioning gate, so the split-stamp kernel takes
/// its refactorizing path. Node "d" falls from 1.8 V and settles near
/// 0.59 V.
fn gmin_stack() -> (Circuit, NodeId) {
    let mut params = MosfetParams::nmos_018();
    params.c_gate_per_width = 0.0;
    params.c_junction_per_width = 0.0;
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let d = ckt.node("d");
    let m = ckt.node("m");
    let g = ckt.node("g");
    ckt.add_vsource("VDD", a, Circuit::GROUND, SourceWaveform::dc(VDD));
    ckt.add_vsource(
        "VG",
        g,
        Circuit::GROUND,
        SourceWaveform::rising_ramp(VDD, ps(20.0), ps(100.0)),
    );
    ckt.add_resistor("R1", a, d, 500.0);
    ckt.add_capacitor("C1", d, Circuit::GROUND, ff(100.0));
    ckt.add_mosfet("M1", d, g, m, params, 10e-6);
    ckt.add_mosfet("M2", m, g, Circuit::GROUND, params, 10e-6);
    ckt.set_initial_condition(a, VDD);
    ckt.set_initial_condition(d, VDD);
    (ckt, d)
}

fn edge(node: NodeId, fractions: &[f64], rising: bool) -> Vec<Crossing> {
    fractions
        .iter()
        .map(|&f| Crossing {
            node,
            level: f * VDD,
            rising,
        })
        .collect()
}

#[test]
fn factor_once_stops_at_the_last_crossing() {
    let (ckt, far) = ladder();
    let stop_at = edge(far, &[0.1, 0.5, 0.9], true);
    let opts = options(ps(0.5), ps(1500.0), KernelStrategy::FactorOnce);
    let (stopped, full) = stopped_and_full("factor-once", &ckt, opts, &stop_at);
    assert_eq!(full.strategy(), KernelStrategy::FactorOnce);
    assert_stops_at_last_crossing("factor-once", &stopped, &full, &stop_at);
}

#[test]
fn sparse_stops_at_the_last_crossing() {
    let (ckt, far) = ladder();
    let stop_at = edge(far, &[0.1, 0.5, 0.9], true);
    let opts = options(ps(0.5), ps(1500.0), KernelStrategy::Sparse);
    let (stopped, full) = stopped_and_full("sparse", &ckt, opts, &stop_at);
    assert_eq!(full.strategy(), KernelStrategy::Sparse);
    assert_stops_at_last_crossing("sparse", &stopped, &full, &stop_at);
}

#[test]
fn split_stamp_rank_update_stops_at_the_last_crossing() {
    let (ckt, out) = inverter();
    let stop_at = edge(out, &[0.5, 0.9], true);
    let opts = options(ps(0.5), ps(2000.0), KernelStrategy::SplitStamp);
    let (stopped, full) = stopped_and_full("rank-update", &ckt, opts, &stop_at);
    assert_stops_at_last_crossing("rank-update", &stopped, &full, &stop_at);
}

#[test]
fn split_stamp_refactor_stops_at_the_last_crossing() {
    let (ckt, d) = gmin_stack();
    let stop_at = edge(d, &[0.9, 0.5], false);
    let opts = options(ps(0.5), ps(1000.0), KernelStrategy::SplitStamp);
    let (stopped, full) = stopped_and_full("refactor", &ckt, opts, &stop_at);
    assert_stops_at_last_crossing("refactor", &stopped, &full, &stop_at);
}

#[test]
fn legacy_full_stops_at_the_last_crossing() {
    let (ckt, out) = inverter();
    let stop_at = edge(out, &[0.5, 0.9], true);
    let opts = options(ps(1.0), ps(1000.0), KernelStrategy::LegacyFull);
    let (stopped, full) = stopped_and_full("legacy", &ckt, opts, &stop_at);
    assert_stops_at_last_crossing("legacy", &stopped, &full, &stop_at);
}

/// A crossing that never occurs (a level above the swing) leaves the run to
/// end at `stop_time`, identical to a run without the rule — also when the
/// other listed crossings did occur.
#[test]
fn a_crossing_that_never_comes_runs_to_stop_time() {
    let (ckt, out) = inverter();
    let mut stop_at = edge(out, &[0.5], true);
    stop_at.push(Crossing {
        node: out,
        level: 1.5 * VDD,
        rising: true,
    });
    let opts = options(ps(1.0), ps(600.0), KernelStrategy::Auto);
    let (stopped, full) = stopped_and_full("never", &ckt, opts, &stop_at);
    assert_eq!(stopped.num_points(), full.num_points());
    assert_eq!(stopped.times().last(), Some(&ps(600.0)));
}

/// A node that starts exactly on the level and stays there has crossed at
/// its first sample (the sample-0 case of the first-crossing rule), so the
/// run ends after its first step.
#[test]
fn a_crossing_at_the_first_sample_stops_after_one_step() {
    let (ckt, nodes) = inverter_with_cap_load(
        &InverterSpec::sized_018(75.0),
        ps(100.0),
        ps(20.0),
        pf(1.0),
        OutputTransition::Rising,
    );
    let stop_at = edge(nodes.vdd, &[1.0], true);
    let opts = options(ps(1.0), ps(600.0), KernelStrategy::Auto);
    let (stopped, full) = stopped_and_full("sample-0", &ckt, opts, &stop_at);
    assert_eq!(stopped.num_points(), 2);
    assert_eq!(full.waveform(nodes.vdd).crossing_time(VDD, true), Some(0.0));
    assert_stops_at_last_crossing("sample-0", &stopped, &full, &stop_at);
}

/// Watching a node the circuit does not have is an options error.
#[test]
fn watching_a_foreign_node_is_rejected() {
    let (ckt, _) = inverter();
    let opts = options(ps(1.0), ps(100.0), KernelStrategy::Auto).with_stop_at([Crossing {
        node: NodeId::from_index(ckt.num_nodes()),
        level: 0.5,
        rising: true,
    }]);
    let err = TransientAnalysis::new(opts).run(&ckt).unwrap_err();
    assert!(matches!(err, SpiceError::InvalidOptions(_)), "{err}");
}
