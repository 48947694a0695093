//! Runners for every table and figure in the paper's evaluation section.

use std::sync::Arc;
use std::thread;

use rlc_ceff::flow::{AnalysisCase, DriverOutputModel, DriverOutputModeler};
use rlc_ceff::validation::{CaseComparison, FarEndComparison, GoldenWaveforms};
use rlc_ceff::CeffError;
use rlc_charlib::DriverCell;
use rlc_interconnect::paper_cases::{self, FigureCase, Table1Row};
use rlc_interconnect::{EmpiricalExtractor, Extractor, RlcLine, WireGeometry};
use rlc_numeric::stats::ErrorSummary;
use rlc_numeric::units::{ff, mm, ps, um};
use rlc_spice::Waveform;

use crate::setup::{build_line, ExperimentContext, SimFidelity};

/// A labelled time/voltage series for CSV export.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveformSeries {
    /// Series label (used as the CSV file suffix).
    pub label: String,
    /// Sample times (seconds).
    pub times: Vec<f64>,
    /// Sample values (volts).
    pub values: Vec<f64>,
}

impl WaveformSeries {
    /// Builds a series from a simulator waveform.
    pub fn from_waveform(label: &str, w: &Waveform) -> Self {
        WaveformSeries {
            label: label.to_string(),
            times: w.times().to_vec(),
            values: w.values().to_vec(),
        }
    }

    /// Builds a series by sampling a closure over `[0, t_stop]`.
    pub fn from_fn<F: Fn(f64) -> f64>(label: &str, f: F, t_stop: f64, n: usize) -> Self {
        let w = Waveform::from_fn(f, t_stop, n);
        Self::from_waveform(label, &w)
    }
}

/// Writes a set of waveform series as CSV files named
/// `<prefix>_<label>.csv` in the experiment output directory.
pub fn export_series(paths: &crate::output::OutputPaths, prefix: &str, series: &[WaveformSeries]) {
    for s in series {
        let rows: Vec<Vec<f64>> = s
            .times
            .iter()
            .zip(&s.values)
            .map(|(&t, &v)| vec![t, v])
            .collect();
        crate::output::write_csv(
            &paths.file(&format!("{prefix}_{}.csv", s.label)),
            &["time_s", "voltage_v"],
            &rows,
        );
    }
}

/// The far-end load used for all experiments: the input capacitance of a
/// matching receiver is small compared to the line capacitance, consistent
/// with the paper's `C_L << C·l` assumption. A fixed small value keeps the
/// published parasitics the dominant load.
pub fn receiver_load() -> f64 {
    ff(10.0)
}

fn figure_setup(ctx: &mut ExperimentContext, case: &FigureCase) -> (Arc<DriverCell>, RlcLine) {
    (ctx.cell(case.driver_size), build_line(&case.parasitics))
}

/// Figure 1: the golden driver-output waveform of the 5 mm / 1.6 µm line
/// driven by a 75X inverter, showing the reflection steps and plateaus.
///
/// # Errors
/// Propagates simulation errors.
pub fn run_fig1(ctx: &mut ExperimentContext) -> Result<Vec<WaveformSeries>, CeffError> {
    let case = paper_cases::figure1_case();
    let (cell, line) = figure_setup(ctx, &case);
    let analysis = AnalysisCase::try_new(&cell, &line, receiver_load(), ps(case.input_slew_ps))?;
    let golden = GoldenWaveforms::simulate(&analysis, &SimFidelity::Reference.golden())?;
    Ok(vec![
        WaveformSeries::from_waveform("input", &golden.input),
        WaveformSeries::from_waveform("driver_output", &golden.near),
        WaveformSeries::from_waveform("far_end", &golden.far),
    ])
}

/// Result of the Figure 3 experiment: the actual driver output against the
/// single-Ceff approximations (charge to 100 % and charge to 50 %).
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// Waveform series: actual, ceff-100 %, ceff-50 %.
    pub series: Vec<WaveformSeries>,
    /// Effective capacitance from charge matching over the full transition (F).
    pub ceff_full: f64,
    /// Effective capacitance from charge matching to the 50 % point (F).
    pub ceff_to_50: f64,
    /// Total load capacitance (F).
    pub total_capacitance: f64,
}

/// Figure 3: single effective capacitances cannot capture an inductive
/// driver-output waveform.
///
/// # Errors
/// Propagates simulation and fit errors.
pub fn run_fig3(ctx: &mut ExperimentContext) -> Result<Fig3Result, CeffError> {
    use rlc_ceff::iteration::{iterate_ceff1, IterationSettings};
    use rlc_ceff::SingleRampModel;
    use rlc_moments::{distributed_admittance_moments, RationalAdmittance};

    let case = paper_cases::figure3_case();
    let (cell, line) = figure_setup(ctx, &case);
    let c_load = receiver_load();
    let analysis = AnalysisCase::try_new(&cell, &line, c_load, ps(case.input_slew_ps))?;
    let golden = GoldenWaveforms::simulate(&analysis, &SimFidelity::Reference.golden())?;

    let moments = distributed_admittance_moments(&line, c_load, 5);
    let fit = RationalAdmittance::from_moments(&moments)?;
    let settings = IterationSettings::default();
    let full = iterate_ceff1(&cell, &fit, analysis.input_slew, 1.0, &settings)?;
    let half = iterate_ceff1(&cell, &fit, analysis.input_slew, 0.5, &settings)?;

    let t_stop = golden.near.last_time();
    let make_ramp = |it: &rlc_ceff::CeffIteration| {
        SingleRampModel::new(
            cell.vdd(),
            it.ramp_time,
            analysis.input_t50() + it.delay - 0.5 * it.ramp_time,
        )
    };
    let ramp_full = make_ramp(&full);
    let ramp_half = make_ramp(&half);
    Ok(Fig3Result {
        series: vec![
            WaveformSeries::from_waveform("actual_driver_output", &golden.near),
            WaveformSeries::from_fn(
                "ceff_charge_to_100pct",
                |t| ramp_full.value_at(t),
                t_stop,
                1200,
            ),
            WaveformSeries::from_fn(
                "ceff_charge_to_50pct",
                |t| ramp_half.value_at(t),
                t_stop,
                1200,
            ),
        ],
        ceff_full: full.ceff,
        ceff_to_50: half.ceff,
        total_capacitance: fit.total_capacitance(),
    })
}

/// Result of the Figure 4 experiment: the two-ramp construction.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// Waveform series: golden, ramp1, ramp2 (uncorrected), two-ramp model.
    pub series: Vec<WaveformSeries>,
    /// Breakpoint fraction `f`.
    pub breakpoint: f64,
    /// First-ramp duration `Tr1` (s).
    pub tr1: f64,
    /// Second-ramp duration before the plateau correction (s).
    pub tr2: f64,
    /// Second-ramp duration after the plateau correction (s).
    pub tr2_new: f64,
    /// Plateau duration `2 tf − Tr1` (s).
    pub plateau: f64,
}

/// Figure 4: construction of the two-ramp model (ramp 1 from `Ceff1`, ramp 2
/// from `Ceff2`, and the plateau-shifted ramp 2).
///
/// # Errors
/// Propagates simulation and fit errors.
pub fn run_fig4(ctx: &mut ExperimentContext) -> Result<Fig4Result, CeffError> {
    let case = paper_cases::figure4_case();
    let (cell, line) = figure_setup(ctx, &case);
    let analysis = AnalysisCase::try_new(&cell, &line, receiver_load(), ps(case.input_slew_ps))?;
    let golden = GoldenWaveforms::simulate(&analysis, &SimFidelity::Reference.golden())?;
    let modeler = DriverOutputModeler::new(ctx.config);
    let model = modeler.model_two_ramp(&analysis)?;

    let two = match model.waveform {
        rlc_ceff::flow::ModelWaveform::TwoRamp(m) => m,
        rlc_ceff::flow::ModelWaveform::SingleRamp(_) => unreachable!("forced two-ramp"),
    };
    let tr2_raw = model.tr2_uncorrected.expect("two-ramp model has tr2");
    let uncorrected = rlc_ceff::TwoRampModel::new(two.vdd, two.f, two.tr1, tr2_raw, two.start_time);
    let ramp1_only = rlc_ceff::SingleRampModel::new(two.vdd, two.tr1, two.start_time);

    let t_stop = golden.near.last_time();
    Ok(Fig4Result {
        series: vec![
            WaveformSeries::from_waveform("actual_waveform", &golden.near),
            WaveformSeries::from_fn("ramp1_ceff1", |t| ramp1_only.value_at(t), t_stop, 1200),
            WaveformSeries::from_fn(
                "ramp2_ceff2_uncorrected",
                |t| uncorrected.value_at(t),
                t_stop,
                1200,
            ),
            WaveformSeries::from_fn("proposed_two_ramp_model", |t| two.value_at(t), t_stop, 1200),
        ],
        breakpoint: model.breakpoint,
        tr1: two.tr1,
        tr2: tr2_raw,
        tr2_new: two.tr2,
        plateau: (2.0 * line.time_of_flight() - two.tr1).max(0.0),
    })
}

/// One near-end waveform comparison (Figures 5 and 6-left).
#[derive(Debug, Clone)]
pub struct WaveformComparison {
    /// Case label.
    pub label: String,
    /// Waveform series: golden and model.
    pub series: Vec<WaveformSeries>,
    /// Delay/slew comparison at the driver output.
    pub comparison: CaseComparison,
}

fn compare_case(
    label: &str,
    cell: &DriverCell,
    line: &RlcLine,
    input_slew: f64,
    ctx: &ExperimentContext,
    fidelity: SimFidelity,
) -> Result<WaveformComparison, CeffError> {
    let analysis = AnalysisCase::try_new(cell, line, receiver_load(), input_slew)?;
    let golden = GoldenWaveforms::simulate(&analysis, &fidelity.golden())?;
    let modeler = DriverOutputModeler::new(ctx.config);
    let model = modeler.model(&analysis)?;
    let t_stop = golden.near.last_time();
    let model_series = WaveformSeries::from_fn("model", |t| model.value_at(t), t_stop, 1500);
    let comparison = CaseComparison::against_golden(&golden, model)?;
    Ok(WaveformComparison {
        label: label.to_string(),
        series: vec![
            WaveformSeries::from_waveform("spice", &golden.near),
            model_series,
        ],
        comparison,
    })
}

/// Figure 5: two-ramp model vs. the golden simulation for the 3 mm / 1.2 µm
/// 75X 75 ps case and the 5 mm / 1.6 µm 100X 100 ps case.
///
/// # Errors
/// Propagates simulation and fit errors.
pub fn run_fig5(ctx: &mut ExperimentContext) -> Result<Vec<WaveformComparison>, CeffError> {
    let cases = [
        paper_cases::figure5_left_case(),
        paper_cases::figure5_right_case(),
    ];
    let mut out = Vec::new();
    for case in cases {
        let (cell, line) = figure_setup(ctx, &case);
        out.push(compare_case(
            case.parasitics.label,
            &cell,
            &line,
            ps(case.input_slew_ps),
            ctx,
            SimFidelity::Reference,
        )?);
    }
    Ok(out)
}

/// Result of the Figure 6 experiment.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// Left panel: the 25X-driven case where a single ramp suffices.
    pub single_ramp_case: WaveformComparison,
    /// Whether the flow indeed selected the single-ramp model for it.
    pub single_ramp_selected: bool,
    /// Right panel: near- and far-end waveforms (golden and model).
    pub near_far_series: Vec<WaveformSeries>,
    /// Far-end delay/slew comparison for the right panel.
    pub far_end: FarEndComparison,
}

/// Figure 6: (left) one-ramp model when inductance is insignificant;
/// (right) near and far-end responses of the modelled waveform.
///
/// # Errors
/// Propagates simulation and fit errors.
pub fn run_fig6(ctx: &mut ExperimentContext) -> Result<Fig6Result, CeffError> {
    // Left: 4 mm / 1.6 um, 25X, 100 ps.
    let left = paper_cases::figure6_left_case();
    let (cell_l, line_l) = figure_setup(ctx, &left);
    let left_cmp = compare_case(
        left.parasitics.label,
        &cell_l,
        &line_l,
        ps(left.input_slew_ps),
        ctx,
        SimFidelity::Reference,
    )?;
    let single_selected = !left_cmp.comparison.used_two_ramp;

    // Right: 4 mm / 0.8 um, 75X, 50 ps — near and far ends.
    let right = paper_cases::figure6_right_case();
    let (cell_r, line_r) = figure_setup(ctx, &right);
    let analysis =
        AnalysisCase::try_new(&cell_r, &line_r, receiver_load(), ps(right.input_slew_ps))?;
    let golden = GoldenWaveforms::simulate(&analysis, &SimFidelity::Reference.golden())?;
    let modeler = DriverOutputModeler::new(ctx.config);
    let model = modeler.model(&analysis)?;
    let t_stop = golden.near.last_time();
    let model_near = WaveformSeries::from_fn("model_near", |t| model.value_at(t), t_stop, 1500);
    let comparison = CaseComparison::against_golden(&golden, model)?;
    let far = comparison.far_end(
        &golden,
        &line_r,
        receiver_load(),
        &SimFidelity::Reference.far_end(),
    )?;
    let far_model_wave = rlc_ceff::far_end::FarEndResponse::from_model(
        &comparison.model,
        &line_r,
        receiver_load(),
        &SimFidelity::Reference.far_end(),
    )?;
    Ok(Fig6Result {
        single_ramp_case: left_cmp,
        single_ramp_selected: single_selected,
        near_far_series: vec![
            WaveformSeries::from_waveform("spice_near", &golden.near),
            WaveformSeries::from_waveform("spice_far", &golden.far),
            model_near,
            WaveformSeries::from_waveform("model_far", &far_model_wave.far_waveform),
        ],
        far_end: far,
    })
}

/// One case of the Figure 7 sweep.
#[derive(Debug, Clone)]
pub struct SweepCase {
    /// Line length (mm).
    pub length_mm: f64,
    /// Line width (µm).
    pub width_um: f64,
    /// Driver size (X).
    pub driver_size: f64,
    /// Input slew (ps).
    pub input_slew_ps: f64,
    /// Golden near-end delay (s).
    pub sim_delay: f64,
    /// Golden near-end slew (s).
    pub sim_slew: f64,
    /// Model near-end delay (s).
    pub model_delay: f64,
    /// Model near-end slew (s).
    pub model_slew: f64,
    /// Signed relative delay error.
    pub delay_error: f64,
    /// Signed relative slew error.
    pub slew_error: f64,
}

/// Aggregate result of the Figure 7 sweep.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// Every inductive case that was evaluated.
    pub cases: Vec<SweepCase>,
    /// Sweep points the model screened out as not inductive.
    pub screened_out: usize,
    /// Sweep points the model failed on while screening, so they were
    /// neither admitted nor screened out.
    pub model_failed: usize,
    /// Inductive cases dropped because their golden comparison failed.
    pub golden_failed: usize,
    /// Delay error statistics over the inductive cases.
    pub delay_stats: ErrorSummary,
    /// Slew error statistics over the inductive cases.
    pub slew_stats: ErrorSummary,
}

/// Figure 7's screening tally: what the model said about each sweep point.
#[derive(Debug, Default)]
struct Screening {
    screened_out: usize,
    model_failed: usize,
}

impl Screening {
    /// Whether the point's model admits it as inductive (two-ramp). Counts a
    /// single-ramp model as screened out and an error as a model failure.
    fn admit(&mut self, model: Result<DriverOutputModel, CeffError>) -> bool {
        match model {
            Ok(model) if model.is_two_ramp() => return true,
            Ok(_) => self.screened_out += 1,
            Err(_) => self.model_failed += 1,
        }
        false
    }
}

/// The sweep grid of Section 6: lengths 1–7 mm, widths 0.8–3.5 µm, drivers
/// 25X–125X, input transitions 50–200 ps.
pub fn fig7_grid() -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    (
        vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
        vec![0.8, 1.2, 1.6, 2.0, 2.5, 3.0, 3.5],
        vec![25.0, 50.0, 75.0, 100.0, 125.0],
        vec![50.0, 100.0, 150.0, 200.0],
    )
}

/// Figure 7: sweep the full grid, keep the cases the screening criteria mark
/// as inductive, and compare the two-ramp model against the golden simulation
/// for each. `thread_count` golden simulations run in parallel.
///
/// # Errors
/// Propagates characterization errors; individual case failures are skipped
/// (and counted in `model_failed` or `golden_failed`) so one pathological
/// corner cannot kill the whole sweep.
pub fn run_fig7(
    ctx: &mut ExperimentContext,
    fidelity: SimFidelity,
    thread_count: usize,
    max_cases: Option<usize>,
) -> Result<Fig7Result, CeffError> {
    let (lengths, widths, drivers, slews) = fig7_grid();
    let cells = ctx.cells(&drivers);
    let extractor = EmpiricalExtractor::cmos018();
    let config = ctx.config;

    // Enumerate the full grid with extracted parasitics.
    struct Point {
        length_mm: f64,
        width_um: f64,
        driver_size: f64,
        input_slew_ps: f64,
        line: RlcLine,
    }
    let mut points = Vec::new();
    for &len in &lengths {
        for &wid in &widths {
            let line = extractor.extract(&WireGeometry::new(mm(len), um(wid)));
            for &drv in &drivers {
                for &slew in &slews {
                    points.push(Point {
                        length_mm: len,
                        width_um: wid,
                        driver_size: drv,
                        input_slew_ps: slew,
                        line,
                    });
                }
            }
        }
    }

    // Screen with the modelling flow itself (cheap: no golden simulation) and
    // keep only the inductive cases.
    let modeler = DriverOutputModeler::new(config);
    let mut inductive: Vec<Point> = Vec::new();
    let mut screen = Screening::default();
    for p in points {
        let cell = &cells[&((p.driver_size * 1000.0) as u64)];
        let analysis = AnalysisCase::try_new(cell, &p.line, receiver_load(), ps(p.input_slew_ps))?;
        if screen.admit(modeler.model(&analysis)) {
            inductive.push(p);
        }
    }
    if let Some(limit) = max_cases {
        inductive.truncate(limit);
    }

    // Golden-simulate the inductive cases in parallel.
    let golden_opts = fidelity.golden();
    let n_threads = thread_count.max(1);
    let results = std::sync::Mutex::new(Vec::<SweepCase>::new());
    let next = std::sync::atomic::AtomicUsize::new(0);
    let golden_failed = std::sync::atomic::AtomicUsize::new(0);
    thread::scope(|scope| {
        for _ in 0..n_threads {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                if idx >= inductive.len() {
                    break;
                }
                let p = &inductive[idx];
                let cell = &cells[&((p.driver_size * 1000.0) as u64)];
                let modeler = DriverOutputModeler::new(config);
                let compared =
                    AnalysisCase::try_new(cell, &p.line, receiver_load(), ps(p.input_slew_ps))
                        .and_then(|analysis| {
                            CaseComparison::evaluate(&analysis, &modeler, &golden_opts)
                        });
                let Ok(cmp) = compared else {
                    golden_failed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    continue;
                };
                let case = SweepCase {
                    length_mm: p.length_mm,
                    width_um: p.width_um,
                    driver_size: p.driver_size,
                    input_slew_ps: p.input_slew_ps,
                    sim_delay: cmp.sim_delay,
                    sim_slew: cmp.sim_slew,
                    model_delay: cmp.model_delay,
                    model_slew: cmp.model_slew,
                    delay_error: cmp.delay_error,
                    slew_error: cmp.slew_error,
                };
                results
                    .lock()
                    .expect("no sweep worker panics while holding the results lock")
                    .push(case);
            });
        }
    });
    let mut cases = results.into_inner().unwrap();
    cases.sort_by(|a, b| {
        (a.length_mm, a.width_um, a.driver_size, a.input_slew_ps)
            .partial_cmp(&(b.length_mm, b.width_um, b.driver_size, b.input_slew_ps))
            .unwrap()
    });

    let delay_errors: Vec<f64> = cases.iter().map(|c| c.delay_error).collect();
    let slew_errors: Vec<f64> = cases.iter().map(|c| c.slew_error).collect();
    let delay_stats = ErrorSummary::from_errors(&delay_errors).ok_or_else(|| {
        CeffError::Measurement("figure 7 sweep produced no inductive cases".into())
    })?;
    let slew_stats = ErrorSummary::from_errors(&slew_errors).ok_or_else(|| {
        CeffError::Measurement("figure 7 sweep produced no inductive cases".into())
    })?;
    Ok(Fig7Result {
        cases,
        screened_out: screen.screened_out,
        model_failed: screen.model_failed,
        golden_failed: golden_failed.into_inner(),
        delay_stats,
        slew_stats,
    })
}

/// One reproduced row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Result {
    /// The published row (geometry, parasitics, paper-reported numbers).
    pub published: Table1Row,
    /// Golden near-end delay from our simulator (s).
    pub sim_delay: f64,
    /// Golden near-end slew (s).
    pub sim_slew: f64,
    /// Two-ramp model delay (s).
    pub two_ramp_delay: f64,
    /// Two-ramp model slew (s).
    pub two_ramp_slew: f64,
    /// One-ramp model delay (s).
    pub one_ramp_delay: f64,
    /// One-ramp model slew (s).
    pub one_ramp_slew: f64,
    /// Signed relative errors of the two-ramp model vs. our golden simulator.
    pub two_ramp_delay_error: f64,
    /// Two-ramp slew error.
    pub two_ramp_slew_error: f64,
    /// One-ramp delay error.
    pub one_ramp_delay_error: f64,
    /// One-ramp slew error.
    pub one_ramp_slew_error: f64,
}

/// Table 1: the 15 published inductive cases, each evaluated with the golden
/// simulator, the two-ramp model and the one-ramp baseline.
///
/// # Errors
/// Propagates simulation and fit errors.
pub fn run_table1(
    ctx: &mut ExperimentContext,
    fidelity: SimFidelity,
    thread_count: usize,
) -> Result<Vec<Table1Result>, CeffError> {
    let rows = paper_cases::table1_rows();
    let sizes: Vec<f64> = {
        let mut s: Vec<f64> = rows.iter().map(|r| r.driver_size).collect();
        s.sort_by(f64::total_cmp);
        s.dedup();
        s
    };
    let cells = ctx.cells(&sizes);
    let config = ctx.config;
    let golden_opts = fidelity.golden();

    let results = std::sync::Mutex::new(Vec::<(usize, Table1Result)>::new());
    let next = std::sync::atomic::AtomicUsize::new(0);
    let errors = std::sync::Mutex::new(Vec::<CeffError>::new());
    thread::scope(|scope| {
        for _ in 0..thread_count.max(1) {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                if idx >= rows.len() {
                    break;
                }
                let row = rows[idx];
                let cell = &cells[&((row.driver_size * 1000.0) as u64)];
                let line = build_line(&row.parasitics);
                let Ok(analysis) =
                    AnalysisCase::try_new(cell, &line, receiver_load(), ps(row.input_slew_ps))
                else {
                    continue;
                };
                let modeler = DriverOutputModeler::new(config);
                let outcome = (|| -> Result<Table1Result, CeffError> {
                    let golden = GoldenWaveforms::simulate(&analysis, &golden_opts)?;
                    let two = modeler.model_two_ramp(&analysis)?;
                    let one = modeler.model_single_ramp(&analysis)?;
                    let sim_delay = golden.near_delay()?;
                    let sim_slew = golden.near_slew()?;
                    Ok(Table1Result {
                        published: row,
                        sim_delay,
                        sim_slew,
                        two_ramp_delay: two.delay(),
                        two_ramp_slew: two.slew(),
                        one_ramp_delay: one.delay(),
                        one_ramp_slew: one.slew(),
                        two_ramp_delay_error: rlc_numeric::relative_error(two.delay(), sim_delay),
                        two_ramp_slew_error: rlc_numeric::relative_error(two.slew(), sim_slew),
                        one_ramp_delay_error: rlc_numeric::relative_error(one.delay(), sim_delay),
                        one_ramp_slew_error: rlc_numeric::relative_error(one.slew(), sim_slew),
                    })
                })();
                match outcome {
                    Ok(r) => results.lock().unwrap().push((idx, r)),
                    Err(e) => errors.lock().unwrap().push(e),
                }
            });
        }
    });
    let errs = errors.into_inner().unwrap();
    if let Some(e) = errs.into_iter().next() {
        return Err(e);
    }
    let mut indexed = results.into_inner().unwrap();
    indexed.sort_by_key(|(idx, _)| *idx);
    Ok(indexed.into_iter().map(|(_, r)| r).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waveform_series_conversion() {
        let w = Waveform::new(vec![0.0, 1e-12, 2e-12], vec![0.0, 0.5, 1.0]);
        let s = WaveformSeries::from_waveform("x", &w);
        assert_eq!(s.label, "x");
        assert_eq!(s.times.len(), 3);
        let f = WaveformSeries::from_fn("y", |t| 2.0 * t, 1.0, 4);
        assert_eq!(f.values.len(), 5);
        assert!((f.values[4] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fig7_grid_covers_the_paper_ranges() {
        let (lengths, widths, drivers, slews) = fig7_grid();
        assert_eq!(lengths.first(), Some(&1.0));
        assert_eq!(lengths.last(), Some(&7.0));
        assert_eq!(widths.first(), Some(&0.8));
        assert_eq!(widths.last(), Some(&3.5));
        assert_eq!(drivers.first(), Some(&25.0));
        assert_eq!(drivers.last(), Some(&125.0));
        assert_eq!(slews.first(), Some(&50.0));
        assert_eq!(slews.last(), Some(&200.0));
    }

    /// A sweep point whose model errors is counted as a model failure, not
    /// as a screen-out. The error is forced by allowing the Ceff iteration
    /// no iterations on a real inductive-looking case.
    #[test]
    fn forced_model_error_lands_in_model_failed() {
        let cell = rlc_ceff_suite::fixtures::synthetic_cell_75x();
        let line = EmpiricalExtractor::cmos018().extract(&WireGeometry::new(mm(5.0), um(1.6)));
        let case = AnalysisCase::try_new(&cell, &line, receiver_load(), ps(100.0)).unwrap();
        let mut config = rlc_ceff::flow::ModelingConfig {
            extract_rs_per_case: false,
            ..Default::default()
        };
        config.iteration.max_iterations = 0;
        let mut screen = Screening::default();
        assert!(!screen.admit(DriverOutputModeler::new(config).model(&case)));
        assert_eq!((screen.model_failed, screen.screened_out), (1, 0));

        // The same case with a working iteration is screened, not failed.
        config.iteration.max_iterations = 100;
        let admitted = screen.admit(DriverOutputModeler::new(config).model(&case));
        assert_eq!(screen.model_failed, 1);
        assert_eq!(screen.screened_out, usize::from(!admitted));
    }

    #[test]
    fn receiver_load_is_small_compared_to_line_caps() {
        // Every published line capacitance is at least 0.5 pF.
        assert!(receiver_load() < 0.05e-12);
    }
}
