//! Criterion benches for the three flow phases (the time columns of
//! Table 2): module filtering (with dataflow), cluster identification,
//! and eFPGA selection.

use alice_core::cluster::identify_clusters;
use alice_core::filter::filter_modules;
use alice_core::select::select_efpgas;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn phase_benches(c: &mut Criterion) {
    // Representative subset: one small, one clustered, one logic-heavy.
    let picks = ["GCD", "SASC", "USB_PHY"];
    let mut group = c.benchmark_group("flow_phases");
    group.sample_size(10);
    for bench in alice_benchmarks::suite() {
        if !picks.contains(&bench.name) {
            continue;
        }
        let design = bench.design().expect("load");
        let cfg = bench.config(alice_core::config::AliceConfig::cfg1());
        let df = alice_dataflow::analyze(&design.file, design.hierarchy.top.as_str()).expect("df");
        group.bench_with_input(BenchmarkId::new("filter", bench.name), &design, |b, d| {
            b.iter(|| {
                let df = alice_dataflow::analyze(&d.file, d.hierarchy.top.as_str()).expect("df");
                filter_modules(d, &df, &cfg).expect("filter")
            })
        });
        let r = filter_modules(&design, &df, &cfg)
            .expect("filter")
            .candidates;
        group.bench_with_input(BenchmarkId::new("cluster", bench.name), &r, |b, r| {
            b.iter(|| identify_clusters(r, &design.paths, &cfg))
        });
        let clusters = identify_clusters(&r, &design.paths, &cfg).clusters;
        group.bench_with_input(
            BenchmarkId::new("select", bench.name),
            &clusters,
            |b, cl| {
                b.iter(|| {
                    select_efpgas(&design, &r, cl, &cfg, &alice_core::db::DesignDb::new())
                        .expect("select")
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, phase_benches);
criterion_main!(benches);
