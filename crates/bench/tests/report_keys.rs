//! The `--metrics` run report must carry every counter key the CI
//! smoke job greps for, parse as JSON, and embed the campaign report.

use anafault::protocol::parse_json;
use anafault::{Campaign, DetectionSpec, HardFaultModel};
use bench::{render_report, DiagnosisSummary, REPORT_SCHEMA, REQUIRED_COUNTERS};
use spice::tran::TranSpec;
use vco::OBSERVED_NODE;

#[test]
fn report_contains_required_keys() {
    cat_telemetry::set_enabled(true);
    let (sys, tb) = bench::vco_system();
    let faults: Vec<_> = sys.fault_list().into_iter().take(4).collect();
    let campaign = Campaign::builder()
        .testbench(tb)
        .tran(TranSpec::new(10e-9, 0.2e-6).with_uic())
        .observe(OBSERVED_NODE)
        .detection(DetectionSpec::paper_fig5())
        .model(HardFaultModel::paper_resistor())
        .early_stop(true)
        .build()
        .expect("complete configuration");
    let result = campaign.run(&faults).expect("campaign runs");
    cat_telemetry::set_enabled(false);

    let phases = vec![("campaign".to_string(), 0.25)];
    let diagnosis = DiagnosisSummary {
        entries: 4,
        classes: 3,
        queries: 4,
        top1: 4,
        top3: 4,
    };
    let text = render_report(
        "smoke",
        1.0,
        &phases,
        Some(&result.report()),
        Some(diagnosis),
    );
    let doc = parse_json(&text).expect("report is valid JSON");

    assert_eq!(
        doc.field("schema").unwrap().as_str().unwrap(),
        REPORT_SCHEMA
    );
    assert_eq!(doc.field("bench").unwrap().as_str().unwrap(), "smoke");
    assert_eq!(doc.field("wall_seconds").unwrap().as_f64().unwrap(), 1.0);

    let phases_json = doc.field("phases").unwrap().as_array().unwrap();
    assert_eq!(phases_json.len(), 1);
    assert_eq!(
        phases_json[0].field("name").unwrap().as_str().unwrap(),
        "campaign"
    );
    assert_eq!(
        phases_json[0].field("seconds").unwrap().as_f64().unwrap(),
        0.25
    );

    // Every key the CI smoke job checks for must exist even when its
    // counter never fired (zero-filled).
    let counters = doc.field("counters").expect("counters object");
    for key in REQUIRED_COUNTERS {
        counters
            .get(key)
            .unwrap_or_else(|| panic!("required counter `{key}` missing"))
            .as_u64()
            .unwrap_or_else(|_| panic!("counter `{key}` must be an integer"));
    }
    // The campaign really ran under telemetry, so the transient
    // counters are non-zero, not just present.
    assert!(counters.get("spice.tran.runs").unwrap().as_u64().unwrap() > 0);
    assert!(
        counters
            .get("spice.newton.iterations")
            .unwrap()
            .as_u64()
            .unwrap()
            > 0
    );

    // The diagnosis entry round-trips through the report.
    let diag_json = doc.field("diagnosis").expect("diagnosis object");
    for (key, want) in [
        ("entries", 4u64),
        ("classes", 3),
        ("queries", 4),
        ("top1", 4),
        ("top3", 4),
    ] {
        assert_eq!(
            diag_json.field(key).unwrap().as_u64().unwrap(),
            want,
            "diagnosis key `{key}`"
        );
    }

    let campaign_json = doc.field("campaign").expect("campaign object");
    assert_eq!(
        campaign_json.field("faults").unwrap().as_u64().unwrap(),
        faults.len() as u64
    );
    for key in [
        "coverage_percent",
        "wall_seconds",
        "pattern_builds",
        "batches",
        "batched_faults",
        "ejections",
        "sim_seconds_distribution",
        "newton_iterations_distribution",
    ] {
        assert!(
            campaign_json.get(key).is_some(),
            "campaign report key `{key}` missing"
        );
    }
}

#[test]
fn report_without_campaign_has_null_campaign() {
    let text = render_report("empty", 0.0, &[], None, None);
    let doc = parse_json(&text).expect("report is valid JSON");
    assert_eq!(
        doc.field("schema").unwrap().as_str().unwrap(),
        REPORT_SCHEMA
    );
    // `campaign` and `diagnosis` are present-but-null so
    // consumers can distinguish "didn't run" from a truncated document.
    assert!(doc.get("campaign").is_some());
    assert!(doc.get("campaign").unwrap().as_f64().is_err());
    assert!(doc.get("diagnosis").is_some());
}
