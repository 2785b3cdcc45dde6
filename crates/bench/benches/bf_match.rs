//! Wall-clock benchmark of the four-stage matcher cascade behind
//! Fig. 3(b): real brute-force 2-NN + ratio + symmetry + RANSAC at several
//! execution caps, and the city scenario's query — one frame against the
//! 21-object database at the city's cap of 24.

use acacia_vision::db::ObjectDb;
use acacia_vision::feature::{object_features, render_view, Similarity, ViewParams};
use acacia_vision::image::{ImageSpec, Resolution};
use acacia_vision::matcher::{match_pair, MatcherConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_match(c: &mut Criterion) {
    let base = object_features(5, 700);
    let view = render_view(&base, Similarity::from_seed(2), ViewParams::default(), 9);
    let mut g = c.benchmark_group("bf_match");
    for cap in [24usize, 32, 64, 128, 256] {
        let cfg = MatcherConfig {
            exec_cap: cap,
            ..MatcherConfig::default()
        };
        g.bench_with_input(BenchmarkId::new("match_pair", cap), &cfg, |b, cfg| {
            b.iter(|| match_pair(std::hint::black_box(&view), &base, cfg))
        });
    }

    // The city's database (one object per subsection) and a frame of one
    // of its objects at the AR client's resolution.
    let db = ObjectDb::retail_cached(1, 42);
    let target = &db.objects()[0];
    let spec = ImageSpec::new(target.id, Resolution::E2E);
    let frame = render_view(
        &object_features(target.id, spec.feature_count()),
        Similarity::from_seed(3),
        ViewParams::default(),
        3,
    );
    let cfg = MatcherConfig {
        exec_cap: 24,
        ..MatcherConfig::default()
    };
    g.bench_function(BenchmarkId::new("match_against", db.len()), |b| {
        b.iter(|| db.match_against(std::hint::black_box(&frame), db.objects(), &cfg))
    });
    g.finish();
}

criterion_group!(benches, bench_match);
criterion_main!(benches);
