//! FIG5 — regenerates the fault-coverage plot: coverage vs % of test
//! time with 2 V amplitude and 0.2 µs time tolerance. Paper: coverage
//! almost 100 % after 25 % of test time, all faults detected by ~55 %.
//! By default the campaign runs once per linear-solver backend and the
//! dense-vs-sparse comparison is recorded alongside the report (the
//! sparse run doubles as the report's data); `--skip-solver-compare`
//! runs the campaign a single time instead, with fault dropping, as
//! does `--json`.

use anafault::report::{coverage_plot, protocol_table};
use anafault::{protocol, HardFaultModel};
use bench::{
    fig5_campaign_limited, fig5_campaign_signed, fig5_campaign_spec, fig5_curve,
    fig5_solver_comparison, self_diagnose, ArgSpec, Metrics,
};

const ARGS: ArgSpec = ArgSpec {
    bench: "fig5",
    usage: "\
usage: fig5 [flags]

  --json                 print the machine-readable protocol document
  --emit-spec            print the campaign as an anafault-serve spec and exit
  --signatures           record diagnosis signatures in --emit-spec output
  --diagnose             run with signatures, build the fault dictionary and
                         self-diagnose every detected fault
  --skip-solver-compare  run the campaign once, with fault dropping
                         (no dense-vs-sparse pass)
  --max-faults N         trim the fault list to the first N faults
  --client NAME          client tag stamped into --emit-spec output
  --metrics FILE         write the bench-report/1 run report to FILE
  --help                 print this help
",
    value_flags: &["--metrics", "--max-faults", "--client"],
    bool_flags: &[
        "--json",
        "--emit-spec",
        "--signatures",
        "--diagnose",
        "--skip-solver-compare",
    ],
};

fn main() {
    let args = ARGS.parse_or_exit();
    let mut metrics = Metrics::with_path("fig5", args.value("--metrics").map(String::from));
    let skip_compare = args.flag("--skip-solver-compare");
    let max_faults: Option<usize> = match args.parsed("--max-faults") {
        Ok(n @ Some(1..)) | Ok(n @ None) => n,
        _ => ARGS.fail("--max-faults requires a positive integer"),
    };
    // `--emit-spec` prints the campaign as a serve-submittable spec
    // document — the producer side of the anafault-serve smoke flow.
    if args.flag("--emit-spec") {
        let spec = fig5_campaign_spec(
            HardFaultModel::Source,
            max_faults,
            args.value("--client").map(String::from),
            args.flag("--signatures"),
        );
        print!("{}", spec.to_json());
        return;
    }
    // `--diagnose` runs the signature-recording campaign, builds the
    // fault dictionary, checks it round-trips bitwise through the
    // protocol, then feeds every detected fault's own synthesized probe
    // back through the diagnoser. A probe reconstructs its stored
    // trajectory to round-off, so the true ambiguity class must rank
    // first for every query — anything less is a failure (exit 1).
    if args.flag("--diagnose") {
        metrics.phase("campaign");
        let (result, _) = fig5_campaign_signed(HardFaultModel::Source, max_faults);
        metrics.phase("dictionary");
        let dict = anafault::build_dictionary(&result)
            .expect("signature-recording campaign seeds a dictionary");
        let text = protocol::dictionary_to_json(&dict);
        let reloaded = protocol::dictionary_from_json(&text).expect("dictionary document parses");
        assert_eq!(
            protocol::dictionary_to_json(&reloaded),
            text,
            "dictionary must survive serialize/reload bitwise"
        );
        metrics.phase("diagnose");
        let summary = self_diagnose(&dict, &result);
        println!("Fig. 5 campaign — fault-dictionary self-diagnosis (source model)\n");
        println!("  faults simulated      {:>6}", result.records.len());
        println!("  dictionary entries    {:>6}", summary.entries);
        println!("  ambiguity classes     {:>6}", summary.classes);
        println!("  detected faults probed{:>6}", summary.queries);
        println!(
            "  top-1 accuracy        {:>6} / {} ({:.1}%)",
            summary.top1,
            summary.queries,
            100.0 * summary.top1 as f64 / summary.queries.max(1) as f64
        );
        println!(
            "  top-3 accuracy        {:>6} / {} ({:.1}%)",
            summary.top3,
            summary.queries,
            100.0 * summary.top3 as f64 / summary.queries.max(1) as f64
        );
        let ok = summary.top1 == summary.queries && summary.queries > 0;
        metrics.attach_campaign(result.report());
        metrics.attach_diagnosis(summary);
        metrics.finish();
        if !ok {
            eprintln!("self-diagnosis missed: every detected fault must rank top-1");
            std::process::exit(1);
        }
        return;
    }
    // `--json` emits the machine-readable protocol document instead of
    // the hand-formatted report (pipe into a file or a service).
    if args.flag("--json") {
        metrics.phase("campaign");
        let (result, _) = fig5_campaign_limited(HardFaultModel::Source, max_faults, true);
        print!("{}", anafault::protocol::to_json(&result));
        metrics.attach_campaign(result.report());
        metrics.finish();
        return;
    }
    let (comparison, result) = if skip_compare {
        metrics.phase("campaign");
        let (result, _) = fig5_campaign_limited(HardFaultModel::Source, max_faults, true);
        (None, result)
    } else {
        metrics.phase("solver-comparison");
        let (cmp, sparse_result) = fig5_solver_comparison(HardFaultModel::Source);
        (Some(cmp), sparse_result)
    };
    metrics.attach_campaign(result.report());
    metrics.phase("render");
    let curve = fig5_curve(&result);
    println!("Fig. 5 — fault coverage plot (source model, 2 V / 0.2 µs tolerance)\n");
    print!("{}", coverage_plot(&curve, 80, 16));

    // Key milestones.
    let cov_at = |pct: f64| {
        curve
            .iter()
            .find(|(t, _)| *t >= pct / 100.0 * 4e-6)
            .map(|(_, c)| *c)
            .unwrap_or(0.0)
    };
    let detections: Vec<f64> = result.detections().into_iter().flatten().collect();
    let last_detection = detections.iter().copied().fold(0.0, f64::max);
    println!("\n{:<46} {:>8} {:>9}", "", "paper", "measured");
    println!("{}", "-".repeat(66));
    println!(
        "{:<46} {:>8} {:>8.1}%",
        "coverage at 25% of test time",
        "~100%",
        cov_at(25.0)
    );
    println!(
        "{:<46} {:>8} {:>8.1}%",
        "all detected faults found by (% test time)",
        "55%",
        100.0 * last_detection / 4e-6
    );
    println!(
        "{:<46} {:>8} {:>8.1}%",
        "final fault coverage",
        "100%",
        result.final_coverage()
    );
    println!("\nprotocol (first 15 rows):");
    let table = protocol_table(&result);
    for line in table.lines().take(18) {
        println!("{line}");
    }

    if let Some(cmp) = comparison {
        println!(
            "\nsolver comparison (full campaign, {} faults):",
            cmp.n_faults
        );
        println!(
            "  dense LU      {:>8.2} s   ({} Newton iterations)",
            cmp.dense_seconds, cmp.dense_work
        );
        println!(
            "  sparse engine {:>8.2} s   ({} Newton iterations)",
            cmp.sparse_seconds, cmp.sparse_work
        );
        println!("  speedup       {:>8.2} x  (wall-clock)", cmp.speedup());
        println!(
            "  speedup       {:>8.2} x  (per unit of kernel work)",
            cmp.work_normalised_speedup()
        );
        if cmp.verdicts_agree() {
            println!("  verdicts      identical on every fault");
        } else {
            println!("  verdicts      DISAGREE on faults {:?}", cmp.disagreements);
        }
    }
    metrics.finish();
}
