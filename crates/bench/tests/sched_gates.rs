//! The scheduling acceptance gates as a test: on the quick study's
//! default seed set, the Queue-model predictive policy must realize
//! strictly lower mean stretch than the Random and FirstFit baselines,
//! every policy must carry a finite regret anchored at zero on the
//! oracle, and a flow-backed decision must be at least 10x cheaper than
//! a DES-backed one. This is the same story `sched_study --quick`
//! prints, pinned here so `cargo test` catches a policy or engine
//! regression without the binary.

use anp_core::{measure_campaign, Backend, DesBackend, ModelKind, Supervisor, WorkloadSpec};
use anp_flowsim::FlowBackend;
use anp_sched::{records, run_suite, DecisionEngine, GroundTruth, PolicySpec, StudyOpts};

#[test]
fn predictive_scheduling_beats_naive_baselines_with_cheap_decisions() {
    let mut opts = StudyOpts::quick(0xA11CE, 1);
    opts.cfg.jobs = anp_core::Parallelism::Auto;

    let campaign = measure_campaign(
        &DesBackend,
        &opts.cfg,
        &opts.apps,
        &opts.ladder,
        true,
        &Supervisor::none(),
        None,
        |_, _| {},
    )
    .expect("truth measurement must not error");
    assert!(
        campaign.ledger.is_complete(),
        "unsupervised quick truth must complete ({}/{} cells)",
        campaign.ledger.completed,
        campaign.ledger.total
    );
    let study = campaign.study.expect("complete campaign");
    let truth = &GroundTruth::new(study, &campaign.outcomes);

    // Precompute the flow engine's app descriptors, as a deployment
    // would: the first-ever extraction per app is a one-time cost, not
    // part of a placement decision.
    for &app in &opts.apps {
        FlowBackend
            .measure_impact_profile(&opts.cfg, WorkloadSpec::App(app))
            .expect("flow profile");
    }

    let specs = [
        PolicySpec::FirstFit,
        PolicySpec::Random,
        PolicySpec::Predictive(ModelKind::Queue, DecisionEngine::Flow),
        PolicySpec::Predictive(ModelKind::Queue, DecisionEngine::Des),
        PolicySpec::Oracle,
    ];
    let outcomes = run_suite(&opts, truth, &specs, |_| {}).unwrap();
    let recs = records(&outcomes);
    assert_eq!(recs.len(), specs.len(), "one record per policy");

    let by = |label: &str| {
        recs.iter()
            .find(|r| r.policy == label)
            .unwrap_or_else(|| panic!("no record for {label}"))
    };
    for r in &recs {
        assert!(
            r.regret_pct.is_finite(),
            "{} must carry a finite regret",
            r.policy
        );
    }
    assert_eq!(by("oracle").regret_pct, 0.0, "the oracle anchors regret");

    let q_flow = by("predictive:Queue:flow");
    assert!(
        q_flow.mean_slowdown_pct < by("random").mean_slowdown_pct,
        "Queue-model placement ({:.2}%) must beat random ({:.2}%)",
        q_flow.mean_slowdown_pct,
        by("random").mean_slowdown_pct
    );
    assert!(
        q_flow.mean_slowdown_pct < by("first-fit").mean_slowdown_pct,
        "Queue-model placement ({:.2}%) must beat first-fit ({:.2}%)",
        q_flow.mean_slowdown_pct,
        by("first-fit").mean_slowdown_pct
    );

    let q_des = by("predictive:Queue:des");
    assert!(q_flow.decisions > 0 && q_des.decisions > 0);
    let flow_per = q_flow.decision_wall_secs / q_flow.decisions as f64;
    let des_per = q_des.decision_wall_secs / q_des.decisions as f64;
    assert!(
        flow_per * 10.0 <= des_per,
        "flow-backed decisions ({:.3}ms) must be at least 10x cheaper \
         than DES-backed ones ({:.3}ms)",
        flow_per * 1e3,
        des_per * 1e3
    );
}
