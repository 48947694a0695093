//! The traced layer replay: one request executed by the benchmark itself
//! through each layer's public function, every call wrapped in a span.
//!
//! A session runs these calls on its own worker threads, where the
//! benchmark cannot see them, so the traced run replays each stage in the
//! order the session's worker does (lint, result-cache key and load, far-end
//! handoff, analysis, result-cache store) and checks afterwards that the
//! replay produced the session's result bits. The analytic backend's body is
//! replayed as its three layer calls — load reduction, driver-Rs extraction
//! and the Ceff model — so `backend.analyze` self time is only the glue
//! between them.

use std::sync::Arc;

use rlc_ceff_suite::ceff::flow::{DriverOutputModeler, ModelWaveform};
use rlc_ceff_suite::ceff::ModelingConfig;
use rlc_ceff_suite::charlib::DriverCell;
use rlc_ceff_suite::{
    stage_key, AnalyticDetails, DriverModel, EngineError, InputEvent, InputFingerprint,
    SessionOptions, Stage, StageKey, StageReport, StageResultCache,
};

use crate::gen::{Input, Request};
use crate::trace::Tracer;
use crate::workloads::{engine_code_name, Env};

/// One replayed stage: its report (or the failing error's code name) and,
/// with a result store, its cache key.
pub type Replayed = Result<(StageReport, Option<StageKey>), String>;

fn code(e: EngineError) -> String {
    engine_code_name(&e).to_string()
}

/// Replays `request` stage by stage. `store` turns on the result-cache
/// lookups an engine with `result_cache_dir` performs. Alongside each stage's
/// result it returns the time its layer spans covered, in ns.
pub fn replay(
    t: &mut Tracer,
    env: &Env,
    request: &Request,
    id: u64,
    store: Option<&StageResultCache>,
) -> (Vec<Replayed>, Vec<u64>) {
    let mut done: Vec<Replayed> = Vec::with_capacity(request.len());
    let mut layer_ns = Vec::with_capacity(request.len());
    for spec in request {
        let producer = match spec.input.producer().map(|p| &done[p]) {
            Some(Err(_)) => {
                done.push(Err("upstream-failed".to_string()));
                layer_ns.push(0);
                continue;
            }
            Some(Ok(p)) => Some(p),
            None => None,
        };
        let root = t.spans().len();
        let result = t.span("stage", id, |t| {
            replay_stage(t, env, spec, producer, request, id, store)
        });
        layer_ns.push(
            t.spans()[root + 1..]
                .iter()
                .filter(|s| s.parent == Some(root))
                .map(|s| s.duration_ns())
                .sum(),
        );
        done.push(result);
    }
    (done, layer_ns)
}

fn replay_stage(
    t: &mut Tracer,
    env: &Env,
    spec: &crate::gen::StageSpec,
    producer: Option<&(StageReport, Option<StageKey>)>,
    request: &Request,
    id: u64,
    store: Option<&StageResultCache>,
) -> Replayed {
    let engine = &env.engine;
    let options = SessionOptions::default();
    let cell = env.cell(spec.size);
    let load = spec.load.model();
    let builder = Stage::builder_shared(cell.clone(), load.clone()).label(spec.label.clone());
    let fixed = match spec.input {
        Input::Slew(slew) => builder.input_slew(slew),
        // The lint pass and the cache key do not depend on the resolved
        // event; the stage is rebuilt with it below.
        _ => builder.input_slew(1e-10),
    }
    .build()
    .map_err(code)?;

    let lints = t.span("lint", id, |_| engine.lint(&fixed));
    t.count("lint.findings", lints.len() as f64);
    if engine.config().lint_level.rejects(&lints) {
        return Err("lint".to_string());
    }

    let key = match store {
        None => None,
        Some(_) => {
            let fingerprint = match (&spec.input, producer) {
                (Input::Slew(_), _) => InputFingerprint::Fixed(fixed.input()),
                (Input::FarEnd(_), Some((_, Some(k)))) => InputFingerprint::FarEnd {
                    producer: k.value(),
                },
                (Input::Sink(_, sink), Some((_, Some(k)))) => InputFingerprint::Sink {
                    producer: k.value(),
                    sink,
                },
                _ => return Err("uncacheable-producer".to_string()),
            };
            t.span("eco.key", id, |_| {
                stage_key(&fixed, fingerprint, engine.config(), &options)
            })
        }
    };
    if let (Some(store), Some(key)) = (store, &key) {
        let hit = t.span("eco.load", id, |_| store.load(key, &spec.label));
        t.count("eco.lookups", 1.0);
        if let Some(report) = hit {
            t.count("eco.hits", 1.0);
            return Ok((report, Some(*key)));
        }
    }

    let handoff_start = t.spans().len();
    let event = match (&spec.input, producer) {
        (Input::Slew(_), _) => fixed.input(),
        (Input::FarEnd(p), Some((report, _))) => {
            let far = t
                .span("backend.far_end", id, |_| {
                    report.far_end(request[*p].load.model().as_ref(), &options.far_end)
                })
                .map_err(code)?;
            t.count("spice.steps", far.waveform.times().len() as f64);
            t.count(
                "spice.degraded_to_dense",
                f64::from(u8::from(far.degraded_to_dense)),
            );
            InputEvent::from_measured(report.input_t50 + far.delay_from_input, far.slew)
        }
        (Input::Sink(p, sink), Some((report, _))) => {
            let sinks = t
                .span("backend.far_end_sinks", id, |_| {
                    report.far_end_sinks(request[*p].load.model().as_ref(), &options.far_end)
                })
                .map_err(code)?;
            t.count(
                "spice.steps",
                sinks.first().map_or(0, |s| s.waveform.times().len()) as f64,
            );
            let tapped = sinks
                .iter()
                .find(|s| s.sink == *sink)
                .ok_or_else(|| "unknown-sink".to_string())?;
            let (Some(delay), Some(slew)) = (tapped.delay_from_input, tapped.slew) else {
                return Err("unsupported".to_string());
            };
            InputEvent::from_measured(report.input_t50 + delay, slew)
        }
        _ => unreachable!("dependent stages are replayed after their producer"),
    };
    if producer.is_some_and(|(report, _)| report.cache_hit) {
        let handoff = &t.spans()[handoff_start];
        let seconds = handoff.duration_ns() as f64 * 1e-9;
        t.count("eco.replayed_handoffs", 1.0);
        t.count("eco.replayed_handoff_s", seconds);
    }
    let stage = Stage::builder_shared(cell.clone(), load)
        .label(spec.label.clone())
        .input_slew(event.slew)
        .input_delay(event.delay)
        .build()
        .map_err(code)?;

    let mut report = t
        .span("backend.analyze", id, |t| {
            analytic(t, env, &cell, &stage, id)
        })
        .map_err(code)?;
    report.lints = lints;

    if let (Some(store), Some(key)) = (store, &key) {
        t.span("eco.store", id, |_| store.store(key, &report))
            .map_err(code)?;
        let bytes = std::fs::metadata(store.entry_path(key.value())).map_or(0, |m| m.len());
        t.count("eco.store_bytes", bytes as f64);
    }
    Ok((report, key))
}

/// The analytic backend's work as its layer calls: reduce the load, extract
/// the driver resistance against the reduced load's total capacitance, then
/// run the Ceff model with that resistance.
fn analytic(
    t: &mut Tracer,
    env: &Env,
    cell: &Arc<DriverCell>,
    stage: &Stage,
    id: u64,
) -> Result<StageReport, EngineError> {
    let started = std::time::Instant::now();
    let config = env.engine.config();
    let reduced = t.span("load.reduce", id, |_| stage.load().reduce())?;
    let rs = if config.extract_rs_per_case {
        t.span("charlib.rs_extract", id, |_| {
            cell.on_resistance_for_load(reduced.total_capacitance())
        })
        .map_err(|e| EngineError::from(rlc_ceff_suite::ceff::CeffError::from(e)))?
    } else {
        cell.on_resistance()
    };
    // The model reads the resistance from the cell it is given, so hand it
    // a copy carrying the extracted value instead of extracting again.
    let with_rs = DriverCell::from_parts(*cell.spec(), cell.table().clone(), rs);
    let modeler = DriverOutputModeler::new(ModelingConfig {
        extract_rs_per_case: false,
        ..config.modeling_config()
    });
    let input = stage.input();
    let model = t.span("ceff.model", id, |_| {
        modeler.model_reduced(&with_rs, &reduced, input.slew, input.delay)
    })?;
    t.count(
        "ceff.iterations",
        (model.ceff1.iterations + model.ceff2.map_or(0, |c| c.iterations)) as f64,
    );
    t.count("ceff.two_ramp", f64::from(u8::from(model.is_two_ramp())));
    let waveform: Arc<dyn DriverModel> = match model.waveform {
        ModelWaveform::SingleRamp(m) => Arc::new(m),
        ModelWaveform::TwoRamp(m) => Arc::new(m),
    };
    Ok(StageReport {
        label: stage.label().to_string(),
        backend: "analytic",
        delay: model.delay(),
        slew: model.slew(),
        input_t50: model.input_t50,
        vdd: model.vdd,
        used_two_ramp: model.is_two_ramp(),
        waveform,
        simulated_far_end: None,
        analytic: Some(AnalyticDetails {
            fit: model.fit,
            driver_resistance: model.driver_resistance,
            breakpoint: model.breakpoint,
            ceff1: model.ceff1,
            ceff2: model.ceff2,
            criteria: model.criteria,
        }),
        lints: Vec::new(),
        elapsed_seconds: started.elapsed().as_secs_f64(),
        cache_hit: false,
    })
}

/// The layer time a request's result waited for: the longest producer chain
/// of per-stage layer time, or the total spread over `threads` workers,
/// whichever is larger. `stage_ns[i]` is stage `i`'s summed layer spans.
pub fn critical_path_ns(request: &Request, stage_ns: &[u64], threads: usize) -> u64 {
    let mut finish = vec![0u64; request.len()];
    for (i, spec) in request.iter().enumerate() {
        finish[i] = stage_ns[i] + spec.input.producer().map_or(0, |p| finish[p]);
    }
    let chain = finish.iter().copied().max().unwrap_or(0);
    let total: u64 = stage_ns.iter().sum();
    chain.max(total / threads.max(1) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{LoadSpec, StageSpec};

    fn spec(input: Input) -> StageSpec {
        StageSpec {
            label: String::new(),
            size: 75.0,
            load: LoadSpec::Lumped { c: 1e-13 },
            input,
        }
    }

    #[test]
    fn critical_path_takes_the_longer_of_chain_and_spread() {
        let chain = vec![
            spec(Input::Slew(1e-10)),
            spec(Input::FarEnd(0)),
            spec(Input::Sink(1, "rx0")),
        ];
        assert_eq!(critical_path_ns(&chain, &[10, 20, 30], 2), 60);
        let wide = vec![spec(Input::Slew(1e-10)); 4];
        assert_eq!(critical_path_ns(&wide, &[10, 20, 30, 40], 2), 50);
        assert_eq!(critical_path_ns(&wide, &[10, 20, 30, 100], 2), 100);
    }
}
