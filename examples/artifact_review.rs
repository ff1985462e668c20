//! The §2.1 artifact-evaluation study, end to end: pilot the study
//! materials, revise them from feedback, then put an artifact through the
//! badge ladder with rerun evidence — the full sociotechnical loop the REU
//! students worked inside.
//!
//! Run with: `cargo run --release --example artifact_review`

use treu::core::artifact::Artifact;
use treu::core::badge::{evaluate, Badge, ClaimCheck};
use treu::core::study::{
    default_diary_study, default_interview_protocol, revise, validity_score, ItemFeedback,
    PilotSession,
};

fn main() {
    // --- Phase 1: pilot the study materials (the paper ran four sessions).
    let v1 = default_diary_study();
    println!("== Diary study v{} ==", v1.version);
    for item in &v1.items {
        println!("  [{}] {}", item.id, item.prompt);
    }

    let pilots: Vec<PilotSession> = (0..4)
        .map(|i| PilotSession {
            participant: format!("pilot-{i}"),
            instrument_version: 1,
            feedback: vec![
                ItemFeedback { item_id: "d2".into(), clarity: 2, comprehensiveness: 3,
                    suggestion: Some("Which specific claim were you trying to reproduce today?".into()) },
                ItemFeedback { item_id: "d3".into(), clarity: 2, comprehensiveness: 4,
                    suggestion: Some("List every blocker (missing docs, broken dependency, hardware) and how long each cost you.".into()) },
                ItemFeedback { item_id: "d5".into(), clarity: 4, comprehensiveness: 4, suggestion: None },
            ],
        })
        .collect();
    let before = validity_score(&pilots).expect("feedback present");

    let v2 = revise(&v1, &pilots, 3.0);
    println!("\n== After piloting (validity {before:.2}/5) ==");
    for line in &v2.changelog {
        println!("  {line}");
    }
    println!("  revised d2: {}", v2.item("d2").expect("exists").prompt);

    let interviews = default_interview_protocol();
    println!(
        "\nInterview protocol has {} questions (conducted over Zoom in the paper).",
        interviews.items.len()
    );

    // --- Phase 2: review an artifact the way the study's subjects do.
    println!("\n== Reviewing the TREU artifact itself ==");
    let artifact = Artifact::new("treu", env!("CARGO_PKG_VERSION"))
        .with_code("workspace crates", "rust", true, true)
        .with_code("benchmarks", "rust", true, true)
        .with_doc("README.md", &["T1"])
        .with_doc("EXPERIMENTS.md", &["T1", "E2.10"])
        .with_claim("T1", "Table 1 reproduces exactly", 0.0)
        .with_claim("E2.10", "spectral filter beats coordinate median at d=256", 0.0);

    let assessment = artifact.assess();
    println!(
        "code complete: {} (pinned {:.0}%, checked {:.0}%); docs complete: {}",
        assessment.code_complete(),
        assessment.code_pinned_fraction * 100.0,
        assessment.code_checked_fraction * 100.0,
        assessment.docs_complete()
    );

    // Rerun evidence straight from the registry.
    let reg = treu::full_registry();
    let t1 = reg.run("T1", 2023).expect("registered");
    let e210 = reg.run("E2.10", 2023).expect("registered");
    let beats = (e210.metric("d256_filter").unwrap() < e210.metric("d256_median").unwrap()) as i64;
    let checks = vec![
        ClaimCheck {
            claim_id: "T1".into(),
            claimed: 0.0,
            measured: t1.metric("max_abs_dev").unwrap(),
        },
        ClaimCheck { claim_id: "E2.10".into(), claimed: 1.0, measured: beats as f64 },
    ];
    let eval = evaluate(&artifact, true, &checks);
    println!("\nBadges:");
    for b in [Badge::ArtifactsAvailable, Badge::ArtifactsFunctional, Badge::ResultsReproduced] {
        println!("  {b:?}: {}", if eval.has(b) { "AWARDED" } else { "withheld" });
    }
    for w in &eval.withheld {
        println!("  withheld because: {w}");
    }
    assert!(eval.has(Badge::ResultsReproduced));
    println!("\nartifact_review: OK");
}
