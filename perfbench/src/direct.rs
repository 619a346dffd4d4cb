//! The direct workloads (`campaign_full`, `campaign_drop`) and the
//! serial layer pass every traced run makes.

use crate::inputs::{self, permutation, permuted, FrontEnd, Workload, ORDERS};
use crate::trace;
use crate::verdict::{failed_faults, Counts, Reference};
use crate::{peak_rss_mb, Observed, Tally, RSS_AFTER_FLOWS};
use anafault::{protocol, CampaignResult, CampaignSpec, HardFaultModel};
use std::time::Instant;

/// One set-up: front end plus the reference run, a direct in-process
/// scalar campaign with fault dropping over the seed's first order.
/// Returns the reference verdict table.
pub fn setup(seed: u64) -> Reference {
    let fe = inputs::front_end(0);
    let faults = permuted(&fe.faults, &permutation(fe.faults.len(), seed, 0));
    let result = inputs::campaign(fe.testbench, true, anafault::BatchMode::Off)
        .run(&faults)
        .expect("the nominal fig5 simulation succeeds");
    Reference::new(&result)
}

/// Checks one campaign result; returns the problems found.
pub fn check(reference: &Reference, result: &CampaignResult) -> Vec<String> {
    let mut problems = reference.diff(result);
    let failed = failed_faults(result);
    if failed > 0 {
        problems.push(format!("{failed} faults failed to inject or simulate"));
    }
    problems
}

/// Runs flows until `seconds` have passed, and at least
/// [`RSS_AFTER_FLOWS`] of them.
/// With `trace`, odd iterations record spans and even ones do not, so
/// the traced and untraced medians come from interleaved flows.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference: &Reference,
    obs: &mut Observed,
    tally: &mut Tally,
) {
    let samples = inputs::coverage_samples();
    let start = Instant::now();
    let mut i: u64 = 0;
    while i < RSS_AFTER_FLOWS || start.elapsed().as_secs_f64() < seconds {
        let traced = trace && i % 2 == 1;
        trace::set_enabled(traced);
        let order = i % ORDERS;

        let flow_span = trace::span("flow", i);
        let t0 = Instant::now();
        let FrontEnd { testbench, faults } = inputs::front_end(i);
        let faults = permuted(&faults, &permutation(faults.len(), seed, order));
        let campaign = inputs::campaign(testbench, workload.early_stop(), workload.batch());
        let t_submit = Instant::now();
        let mut first: Option<Instant> = None;
        let result = {
            let _s = trace::span("anafault.campaign", i);
            campaign
                .session(&faults)
                .run_with_progress(|_| {
                    first.get_or_insert_with(Instant::now);
                })
                .expect("the nominal fig5 simulation succeeds")
        };
        let t_result = Instant::now();
        let curve = {
            let _s = trace::span("anafault.coverage", i);
            result.coverage_curve(&samples)
        };
        let t_end = Instant::now();
        drop(flow_span);
        std::hint::black_box(curve);

        let mut problems = check(reference, &result);
        problems.extend(obs.counts.record(workload.count_key(order), &result));
        tally.op(problems);
        let lap = obs.lap(traced);
        let counts = Counts::of(&result);
        lap.lu.push(counts.refactorisations as f64);
        lap.newton.push(counts.newton_iterations as f64);
        lap.flow.push((t_end - t0).as_secs_f64());
        lap.submit.push((t_result - t_submit).as_secs_f64());
        lap.first_event
            .push((first.unwrap_or(t_result) - t_submit).as_secs_f64());
        lap.verdicts += result.records.len() as u64;
        if i + 1 == RSS_AFTER_FLOWS {
            obs.rss_mb = Some(peak_rss_mb());
        }
        i += 1;
    }
    trace::set_enabled(false);
    obs.wall = start.elapsed().as_secs_f64();
}

/// Times each layer's public calls once, serially, on the workload's
/// inputs (first order of the seed): front end, nominal pass, fault
/// injection, every fault through `simulate_fault` on one thread,
/// coverage, and the protocol encoders and decoders. Returns the
/// encoded result document's size in bytes.
pub fn layer_pass(workload: Workload, seed: u64, reference: &Reference, tally: &mut Tally) -> u64 {
    const PROTOCOL_REPEATS: usize = 5;
    trace::set_enabled(true);
    let fe = inputs::front_end(u64::MAX);
    let faults = permuted(&fe.faults, &permutation(fe.faults.len(), seed, 0));
    let served = workload == Workload::ServeMixed;
    let spec = inputs::spec(&fe.testbench, faults.clone(), "perfbench");
    // The daemon simulates the campaign its spec rebuilds, so the
    // served layer pass does too.
    let campaign = if served {
        spec.build_campaign().expect("the fig5 spec builds")
    } else {
        inputs::campaign(
            fe.testbench.clone(),
            workload.early_stop(),
            anafault::BatchMode::Off,
        )
    };
    let prepared = {
        let _s = trace::span("anafault.prepare", 0);
        campaign
            .prepare()
            .expect("the nominal fig5 simulation succeeds")
    };
    for f in &faults {
        let _s = trace::span("anafault.inject", f.id as u64);
        std::hint::black_box(
            anafault::inject(&fe.testbench, f, HardFaultModel::Source).expect("LIFT faults inject"),
        );
    }
    let t0 = Instant::now();
    let records = {
        let _s = trace::span("anafault.serial", 0);
        faults
            .iter()
            .map(|f| {
                let _s = trace::span("anafault.simulate_fault", f.id as u64);
                prepared.simulate_fault(f)
            })
            .collect()
    };
    let result = prepared.finish(records, 0, t0.elapsed().as_secs_f64());
    {
        let _s = trace::span("anafault.coverage", 0);
        std::hint::black_box(result.coverage_curve(&inputs::coverage_samples()));
    }
    tally.op(check(reference, &result));

    let mut bytes = 0;
    for _ in 0..PROTOCOL_REPEATS {
        let text = {
            let _s = trace::span("protocol.spec_encode", 0);
            spec.to_json()
        };
        {
            let _s = trace::span("protocol.spec_decode", 0);
            CampaignSpec::from_json(&text).expect("the spec round-trips");
        }
        let doc = {
            let _s = trace::span("protocol.result_encode", 0);
            protocol::to_json(&result)
        };
        let back = {
            let _s = trace::span("protocol.result_decode", 0);
            protocol::from_json(&doc).expect("the result round-trips")
        };
        tally.op(check(reference, &back));
        bytes = doc.len() as u64;
    }
    trace::set_enabled(false);
    bytes
}
