//! **Serving latency** — the paper's "predict online real-time transaction
//! fraud within only milliseconds" claim (§1, §4.5: "tens of milliseconds
//! at most for online detection").
//!
//! ```sh
//! cargo run --release -p titant-bench --bin serving
//! ```
//!
//! Runs the full production path — Alipay front end → Model Server →
//! Ali-HBase feature fetch → GBDT scoring — over a replayed test day and
//! reports the latency distribution.

use std::fmt::Write as _;
use titant_bench::harness;
use titant_core::prelude::*;

fn main() {
    let world = World::generate(WorldConfig {
        n_users: 5_000,
        seed: 0x005e_121e,
        ..Default::default()
    });
    let slice = DatasetSlice::paper(0);
    eprintln!("training the deployed model…");
    let artifacts = OfflinePipeline::new(PipelineConfig {
        embedding_dim: 32,
        walks_per_node: 10,
        threads: 8,
        ..Default::default()
    })
    .run(&world, &slice)
    .expect("offline pipeline");
    let deployment = OnlineDeployment::new(artifacts).expect("deployable model");

    eprintln!("replaying the test day…");
    let report = deployment.replay_test_day(&world, &slice);
    let lat = deployment.model_server().latency();

    let mut out = String::from("Serving latency (full MS path: HBase fetch + GBDT scoring)\n\n");
    let _ = writeln!(out, "transactions    {:>12}", report.transactions);
    let _ = writeln!(
        out,
        "frauds caught   {:>12} (missed {}, false alerts {})",
        report.true_alerts, report.missed_frauds, report.false_alerts
    );
    let _ = writeln!(
        out,
        "rejected/degraded {:>10} / {}",
        report.errors, report.degraded
    );
    let _ = writeln!(out, "serving F1      {:>11.1}%", report.f1 * 100.0);
    for q in [0.5, 0.9, 0.99, 0.999] {
        let _ = writeln!(
            out,
            "p{:<5}          {:>12.1?}",
            q * 100.0,
            lat.quantile(q).unwrap_or_default()
        );
    }
    let _ = writeln!(
        out,
        "mean            {:>12.1?}",
        lat.mean().unwrap_or_default()
    );
    out.push_str("\nper-stage breakdown (p50 / p99):\n");
    for (name, stage) in [
        ("store fetch", report.fetch),
        ("assembly", report.assemble),
        ("predict", report.predict),
    ] {
        let _ = writeln!(
            out,
            "  {name:<12}  {:>10.1?} / {:<10.1?}",
            stage.p50, stage.p99
        );
    }
    out.push_str(
        "\npaper bound: tens of milliseconds per prediction — measured here in microseconds\n",
    );
    println!("{out}");
    harness::save_results("serving.txt", &out);
}
