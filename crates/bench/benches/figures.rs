//! One benchmark per reproduced table/figure: each bench times the
//! code path that regenerates that artifact (at reduced fidelity where
//! the full run would take seconds). Uses the in-tree
//! [`rtm_bench::timing`] harness (offline builds cannot pull a
//! benchmarking framework).

use rtm_bench::timing::bench;
use rtm_core::experiments::{
    ablation, design, energy_exp, errormodel, motivation, performance, reliability_exp,
    SweepSettings,
};
use rtm_model::analytic::Engine;

fn bench_settings() -> SweepSettings {
    let mut s = SweepSettings::quick();
    s.accesses = 10_000;
    s
}

fn main() {
    let s = bench_settings();
    bench("fig1_mttf_curve", motivation::figure1);
    bench("fig4_position_pdf_mc", || {
        errormodel::figure4_experiment(20_000, 7, Engine::MonteCarlo)
    });
    bench("table2_rate_table", errormodel::table2_experiment);
    bench("fig7_area_sweep", design::figure7_experiment);
    bench("table3_safe_sequences", design::table3_experiment);
    bench("table5_overheads", design::table5_experiment);
    bench("fig10_sdc_mttf_sim", || {
        reliability_exp::figure10_experiment(&s)
    });
    bench("fig11_due_mttf_sim", || {
        reliability_exp::figure11_experiment(&s)
    });
    bench("fig12_mttf_sensitivity", || {
        reliability_exp::figure12_experiment(5.12e9)
    });
    bench("fig13_area_sensitivity", design::figure13_experiment);
    bench("fig14_shift_latency_sim", || {
        performance::figure14_experiment(&s)
    });
    bench("fig15_latency_sensitivity", || {
        performance::figure15_experiment(200)
    });
    bench("fig16_execution_time_sim", || {
        performance::figure16_experiment(&s)
    });
    bench("fig17_dynamic_energy_sim", || {
        energy_exp::figure17_experiment(&s)
    });
    bench("fig18_total_energy_sim", || {
        energy_exp::figure18_experiment(&s)
    });
    bench("ablation_report", || {
        ablation::render_ablations(5_000, 7, 5.12e9, Engine::MonteCarlo)
    });
}
