//! Telemetry micro-benchmarks: the cost of one serving-boundary
//! observation on the hot scan path (registry + rolling windows +
//! exemplar offer, the work `Daemon::handle` adds around dispatch) and
//! the cost of rendering a `/metrics` scrape. EXPERIMENTS.md records the
//! figures. What the boundary may add to a request (no allocation, only its
//! own records) is pinned by a unit test in `zodiac-daemon`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use zodiac_obs::{
    Exemplar, MemoryRecorder, MonotonicClock, Obs, Recorder, RollingRecorder, TailExemplars,
};

/// An `Obs` handle wired the way `Daemon::open` wires it: a cumulative
/// registry plus a rolling-window recorder.
fn serving_obs() -> (Obs, Arc<MemoryRecorder>, Arc<RollingRecorder>) {
    let registry = Arc::new(MemoryRecorder::new());
    let rolling = Arc::new(RollingRecorder::new(Arc::new(MonotonicClock::new())));
    let obs = Obs::null()
        .with_sink(registry.clone())
        .with_sink(rolling.clone() as Arc<dyn Recorder>);
    (obs, registry, rolling)
}

const OPS: [&str; 4] = ["scan", "repair", "status", "explain"];

fn bench_obs(c: &mut Criterion) {
    // One boundary observation: span + latency histogram into both sinks +
    // exemplar offer — amortised over a batch so per-op cost is readable.
    c.bench_function("obs/boundary-record-1k", |b| {
        let (obs, _registry, _rolling) = serving_obs();
        let exemplars = TailExemplars::new(8);
        b.iter(|| {
            for i in 0..1_000u64 {
                let span = obs.start_leaf_span("daemon/request/scan");
                let span_id = span.id();
                span.finish();
                obs.histogram("op.scan.us", black_box(40 + i % 64));
                exemplars.observe(
                    "scan",
                    Exemplar {
                        latency_us: 40 + i % 64,
                        ts_us: i,
                        span_id,
                        fingerprints: Vec::new(),
                    },
                );
            }
        })
    });

    // The rolling recorder alone, on an already-hot op.
    c.bench_function("obs/rolling-record-1k", |b| {
        let rolling = RollingRecorder::new(Arc::new(MonotonicClock::new()));
        rolling.record_latency("scan", 50);
        b.iter(|| {
            for i in 0..1_000u64 {
                rolling.record_latency("scan", black_box(40 + i % 64));
            }
        })
    });

    // One /metrics scrape of a serving-shaped registry: a few counters and
    // gauges, boundary histograms and windows for four ops, exemplars.
    c.bench_function("obs/prometheus-render", |b| {
        let (obs, registry, rolling) = serving_obs();
        let exemplars = TailExemplars::new(8);
        for op in OPS {
            for i in 0..200u64 {
                obs.histogram(&format!("op.{op}.us"), 30 + i % 512);
            }
            obs.counter(&format!("op.{op}.errors"), 3);
            exemplars.observe(
                op,
                Exemplar {
                    latency_us: 541,
                    ts_us: 7,
                    span_id: 9,
                    fingerprints: vec![0xFEED],
                },
            );
        }
        obs.counter("daemon.scans", 800);
        obs.gauge_set("heap.live_bytes", 4 << 20);
        obs.gauge_set("daemon.checks_live", 40);
        b.iter(|| {
            let page = zodiac_obs::render_prometheus(
                &registry.snapshot(),
                Some(&rolling.snapshot()),
                Some(&exemplars),
            );
            black_box(page.len())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_obs
}
criterion_main!(benches);
