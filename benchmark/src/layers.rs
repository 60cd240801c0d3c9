//! Per-layer kernel probes: each layer's public functions called directly
//! on seeded inputs, one span per call site.
//!
//! These do not depend on the workload; every traced run repeats them, so
//! that every traced run reports every per-layer metric. Kernels run on
//! one thread (a one-thread rayon pool is installed around them) at the
//! paper's middle window, M = 100. Each probe is time-boxed and reports
//! the median of its calls.

use std::hint::black_box;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Instant;

use marketminer::live::LiveEpoch;
use marketminer::messages::{CorrSnapshot, Message};
use marketminer::shard::FramedConn;
use pairtrade_core::ckpt::CheckpointStore;
use pairtrade_core::engine::run_pair_day;
use pairtrade_core::exec::ExecutionConfig;
use pairtrade_core::params::StrategyParams;
use serve::{EgressRing, Popped, Router, ServerFrame, SessionRegistry, SubscriptionSpec};
use stats::blocked::corr_matrix_blocked;
use stats::correlation::CorrType;
use stats::matrix::SymMatrix;
use stats::parallel::ParallelCorrEngine;
use stats::simd::{force_backend, Backend};
use stats::sliding_matrix::OnlineCorrMatrix;
use taq::rng::MarketRng;
use telemetry::lineage::Cause;
use timeseries::bam::PriceGrid;
use timeseries::clean::CleanConfig;
use timeseries::returns::ReturnsPanel;

use crate::stats::{median, tail_percentile};
use crate::trace::Recorder;
use crate::workload::{n_pairs, tape, Env, Metrics, DT_SECONDS};

/// The paper's middle correlation window.
const M: usize = 100;
/// Seconds each probe may spend calling its kernel.
const BOX_S: f64 = 0.12;
/// Payload of one checkpoint: what a `fleet_ckpt` worker wrote per epoch
/// on the sizing machine (`shard.ckpt_dir_mb` ≈ 133 MB over 11 epochs ×
/// 2 ranks).
const CKPT_PAYLOAD_BYTES: usize = 6 << 20;
/// Saves timed: enough that the tail percentile is the 80th.
const CKPT_SAVES: usize = 50;

/// Call `f` under a span until the time box is spent (at least three
/// calls); per-call seconds.
fn probe(rec: &mut Recorder, name: &str, f: impl FnMut()) -> Vec<f64> {
    probe_at_least(rec, name, 3, f)
}

/// [`probe`] with a floor on the number of calls, for probes that report
/// a tail percentile (see `stats::tail_percentile`).
fn probe_at_least(
    rec: &mut Recorder,
    name: &str,
    min_calls: usize,
    mut f: impl FnMut(),
) -> Vec<f64> {
    rec.span(name, |_| {
        let mut secs = Vec::new();
        let start = Instant::now();
        while secs.len() < min_calls || start.elapsed().as_secs_f64() < BOX_S {
            let t = Instant::now();
            f();
            secs.push(t.elapsed().as_secs_f64());
        }
        let calls = secs.len() as u64;
        (secs, calls)
    })
}

/// `n` return series of length `len` sharing one market factor, so the
/// robust estimators iterate as they do on real returns.
fn factor_returns(n: usize, len: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = MarketRng::seed_from(seed).derive(0x6c61_7965_7273);
    let factor: Vec<f64> = (0..len).map(|_| rng.gauss()).collect();
    (0..n)
        .map(|_| {
            factor
                .iter()
                .map(|f| 1e-3 * (0.6 * f + 0.8 * rng.gauss()))
                .collect()
        })
        .collect()
}

fn windows_at(series: &[Vec<f64>], lo: usize) -> Vec<&[f64]> {
    series.iter().map(|s| &s[lo..lo + M]).collect()
}

fn ns_per_pair(secs: &[f64], n: usize) -> f64 {
    median(secs) * 1e9 / n_pairs(n) as f64
}

fn taq_timeseries(rec: &mut Recorder, env: &Env, m: &mut Metrics) {
    let mut day = tape(61, env.seed);
    let secs = probe(rec, "taq.gen_day", || day = black_box(tape(61, env.seed)));
    m.insert("taq.gen_day_ms", median(&secs) * 1e3);

    let mut bytes = 0usize;
    let secs = probe(rec, "taq.tape_codec", || {
        let buf = taq::io::encode_binary(&day);
        bytes = buf.len();
        black_box(taq::io::decode_binary(&buf, 61).expect("own encoding decodes"));
    });
    m.insert(
        "taq.tape_codec_mb_s",
        2.0 * bytes as f64 / 1e6 / median(&secs),
    );

    let clean = CleanConfig::default();
    let mut grid = PriceGrid::from_day(&day, 61, DT_SECONDS, clean);
    let secs = probe(rec, "timeseries.grid", || {
        grid = black_box(PriceGrid::from_day(&day, 61, DT_SECONDS, clean));
    });
    m.insert("timeseries.grid_ms", median(&secs) * 1e3);
    let secs = probe(rec, "timeseries.returns", || {
        black_box(ReturnsPanel::from_grid(&grid));
    });
    m.insert("timeseries.returns_ms", median(&secs) * 1e3);
    let (rejected, total) = (0..61).fold((0u64, 0u64), |(r, t), s| {
        let c = grid.clean_stats(s);
        (r + c.rejected(), t + c.total())
    });
    m.insert(
        "timeseries.clean_reject_share",
        rejected as f64 / total as f64,
    );

    // `run_pair_day` per pair on a precomputed price grid and Pearson
    // correlation series, at the paper's base parameter vector.
    const K: usize = 8;
    let panel = ReturnsPanel::from_grid(&grid);
    let cube = ParallelCorrEngine::new(CorrType::Pearson)
        .cube(&panel.all()[..K], M)
        .expect("a full day holds a window");
    let params = StrategyParams::paper_default();
    let exec = ExecutionConfig::paper();
    let secs = probe(rec, "core.run_pair_day", || {
        for rank in 0..n_pairs(K) {
            let (i, j) = SymMatrix::pair_from_rank(rank);
            black_box(run_pair_day(
                (i, j),
                &params,
                &exec,
                grid.series(i),
                grid.series(j),
                cube.series_by_rank(rank),
                cube.first_step() + 1,
            ));
        }
    });
    m.insert("core.pair_day_us", median(&secs) * 1e6 / n_pairs(K) as f64);
}

fn stats_kernels(rec: &mut Recorder, env: &Env, m: &mut Metrics) {
    // The n-axis: the paper's 61, then 250 and 1000 synthetic symbols —
    // the scale of the all-pairs TSE study the O(n²) layers must be
    // characterised at.
    const STEPS: usize = 50;
    let series = factor_returns(1000, M + STEPS, env.seed);

    for (n, name, metric) in [
        (
            61,
            "stats.pearson_blocked.n61",
            "stats.pearson_blocked_ns_pair.n61",
        ),
        (
            250,
            "stats.pearson_blocked.n250",
            "stats.pearson_blocked_ns_pair.n250",
        ),
        (
            1000,
            "stats.pearson_blocked.n1000",
            "stats.pearson_blocked_ns_pair.n1000",
        ),
    ] {
        let windows = windows_at(&series[..n], 0);
        let secs = probe(rec, name, || {
            black_box(corr_matrix_blocked(black_box(&windows), false));
        });
        m.insert(metric, ns_per_pair(&secs, n));
    }

    // Same kernel, scalar backend ÷ default backend.
    let windows = windows_at(&series[..250], 0);
    force_backend(Some(Backend::Scalar));
    let scalar = probe(rec, "stats.pearson_blocked.n250.scalar", || {
        black_box(corr_matrix_blocked(black_box(&windows), false));
    });
    force_backend(None);
    let default = probe(rec, "stats.pearson_blocked.n250.default", || {
        black_box(corr_matrix_blocked(black_box(&windows), false));
    });
    m.insert("stats.simd_x", median(&scalar) / median(&default));

    for (n, name, metric) in [
        (
            61,
            "stats.online_update.n61",
            "stats.online_update_ns_pair.n61",
        ),
        (
            250,
            "stats.online_update.n250",
            "stats.online_update_ns_pair.n250",
        ),
    ] {
        let vectors: Vec<Vec<f64>> = (0..M + STEPS)
            .map(|t| series[..n].iter().map(|s| s[t]).collect())
            .collect();
        let mut online = OnlineCorrMatrix::new(n, M);
        for v in &vectors[..M] {
            online.push(v);
        }
        let mut out = SymMatrix::identity(n);
        let mut t = M;
        let secs = probe(rec, name, || {
            online.push(black_box(&vectors[M + t % STEPS]));
            online.matrix_into(&mut out);
            t += 1;
        });
        m.insert(metric, ns_per_pair(&secs, n));
    }

    let windows = windows_at(&series[..61], 0);
    let cold = ParallelCorrEngine::new(CorrType::Maronna);
    let secs = probe(rec, "stats.maronna_cold.n61", || {
        black_box(cold.matrix(black_box(&windows)));
    });
    m.insert("stats.maronna_cold_ns_pair.n61", ns_per_pair(&secs, 61));

    // Warm-started robust sweeps over consecutive windows, as the
    // streaming engine runs them; the first (cold) window seeds the rest
    // and is not timed.
    for (ctype, n, name, metric) in [
        (
            CorrType::Maronna,
            61,
            "stats.maronna_warm.n61",
            "stats.maronna_warm_ns_pair.n61",
        ),
        (
            CorrType::Maronna,
            250,
            "stats.maronna_warm.n250",
            "stats.maronna_warm_ns_pair.n250",
        ),
        (
            CorrType::Combined,
            61,
            "stats.combined_warm.n61",
            "stats.combined_warm_ns_pair.n61",
        ),
    ] {
        let engine = ParallelCorrEngine::new(ctype);
        let mut seeds = vec![None; n_pairs(n)];
        let mut out = SymMatrix::identity(n);
        engine.matrix_robust_warm_into(&windows_at(&series[..n], 0), &mut seeds, &mut out);
        let mut step = 1;
        let secs = probe(rec, name, || {
            let windows = windows_at(&series[..n], 1 + step % STEPS);
            engine.matrix_robust_warm_into(black_box(&windows), &mut seeds, &mut out);
            step += 1;
        });
        m.insert(metric, ns_per_pair(&secs, n));
    }
}

fn snapshot61(seed: u64) -> Arc<CorrSnapshot> {
    let series = factor_returns(61, M, seed);
    Arc::new(CorrSnapshot {
        interval: M,
        stream: 0,
        matrix: corr_matrix_blocked(&windows_at(&series, 0), false),
        cause: Cause::none(),
    })
}

fn wire_and_ckpt(rec: &mut Recorder, env: &Env, m: &mut Metrics) {
    let msg = Message::Corr(snapshot61(env.seed));
    let mut frame = Vec::new();
    let secs = probe(rec, "wire.corr_encode", || {
        frame = black_box(wire::to_bytes(black_box(&msg)));
    });
    m.insert("wire.corr_frame_bytes", frame.len() as f64);
    m.insert(
        "wire.corr_encode_mb_s",
        frame.len() as f64 / 1e6 / median(&secs),
    );
    let secs = probe(rec, "wire.corr_decode", || {
        black_box(wire::from_bytes::<Message>(black_box(&frame)).expect("own encoding decodes"));
    });
    m.insert(
        "wire.corr_decode_mb_s",
        frame.len() as f64 / 1e6 / median(&secs),
    );

    let dir = env
        .out_dir
        .join(format!("ckpt-probe-{}", std::process::id()));
    let store = CheckpointStore::open(&dir).expect("open checkpoint store");
    let payload = vec![0xA5u8; CKPT_PAYLOAD_BYTES];
    let mut epoch = 0u64;
    let mut fsyncs = 0u32;
    let secs = probe_at_least(rec, "core.ckpt_save", CKPT_SAVES, || {
        fsyncs = store
            .save(epoch, &payload)
            .expect("checkpoint saves")
            .fsyncs;
        epoch += 1;
        store.retain_last(2).expect("old checkpoints prune");
    });
    m.insert("core.ckpt_save_ms.p50", median(&secs) * 1e3);
    m.insert(
        "core.ckpt_save_ms.tail",
        tail_percentile(&secs).map_or(0.0, |(_, v)| v * 1e3),
    );
    m.insert("core.ckpt_fsyncs_per_save", f64::from(fsyncs));
    let secs = probe(rec, "core.ckpt_recover", || {
        black_box(store.recover().expect("newest checkpoint recovers"));
    });
    m.insert("core.ckpt_recover_ms", median(&secs) * 1e3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A length-prefixed byte run as a frame payload.
struct Blob(Vec<u8>);

impl wire::Codec for Blob {
    fn encode(&self, w: &mut wire::Writer) {
        w.bytes(&self.0);
    }
    fn decode(r: &mut wire::Reader<'_>) -> Result<Self, wire::WireError> {
        Ok(Blob(r.bytes()?.to_vec()))
    }
}

fn shard_transport(rec: &mut Recorder, m: &mut Metrics) {
    let (a, b) = UnixStream::pair().expect("socket pair");
    let (mut near, mut far) = (FramedConn::new(a), FramedConn::new(b));
    let echo = std::thread::spawn(move || {
        while let Ok(blob) = far.recv::<Blob>() {
            if far.send(&blob).is_err() {
                break;
            }
        }
    });
    for (bytes, name, metric) in [
        (1usize << 10, "shard.uds_echo.1k", "shard.uds_rtt_us.1k"),
        (1usize << 20, "shard.uds_echo.1m", "shard.uds_rtt_us.1m"),
    ] {
        let blob = Blob(vec![0x5Au8; bytes]);
        let secs = probe(rec, name, || {
            near.send(&blob).expect("frame sends");
            black_box(near.recv::<Blob>().expect("echo returns"));
        });
        m.insert(metric, median(&secs) * 1e6);
        if bytes == 1 << 20 {
            m.insert("shard.uds_mb_s", 2.0 * bytes as f64 / 1e6 / median(&secs));
        }
    }
    near.shutdown().expect("socket shuts down");
    echo.join().expect("echo thread");
}

fn serve_egress(rec: &mut Recorder, env: &Env, m: &mut Metrics) {
    let snap = snapshot61(env.seed);
    let key = (CorrType::Pearson, M);

    // `Router::publish` of one cut into 1000 in-process sessions, no
    // sockets: the copy-on-write fan-out alone.
    let registry = SessionRegistry::new();
    let router = Router::new();
    for i in 0..1000 {
        let session = registry.open(format!("s{i}"), 256, 0);
        router.subscribe(
            &session,
            SubscriptionSpec::Corr {
                ctype: key.0,
                window: key.1,
                top_k: None,
            },
        );
    }
    let cut = LiveEpoch {
        snapshots: vec![Arc::clone(&snap)],
        ..LiveEpoch::default()
    };
    let secs = probe(rec, "serve.publish.1000", || {
        black_box(router.publish(black_box(&cut), &[key]));
    });
    m.insert("serve.publish_us.p50", median(&secs) * 1e6);
    m.insert(
        "serve.publish_us.tail",
        tail_percentile(&secs).map_or(0.0, |(_, v)| v * 1e6),
    );

    const RING_OPS: u64 = 10_000;
    let ring: EgressRing<u64> = EgressRing::new(256);
    let secs = probe(rec, "serve.ring_push_pop", || {
        for i in 0..RING_OPS {
            ring.push(black_box(i));
            match ring.pop(std::time::Duration::ZERO) {
                Popped::Item { item, .. } => {
                    black_box(item);
                }
                _ => unreachable!("the ring holds what was just pushed"),
            }
        }
    });
    m.insert(
        "serve.ring_push_pop_ns",
        median(&secs) * 1e9 / RING_OPS as f64,
    );

    let secs = probe(rec, "serve.top_pairs", || {
        black_box(serve::router::top_pairs(black_box(&snap), 20));
    });
    m.insert("serve.topk_us", median(&secs) * 1e6);

    let event = ServerFrame::Event {
        sub_id: 1,
        seq: 0,
        dropped_before: 0,
        payload: Message::Corr(snap),
    };
    let secs = probe(rec, "serve.event_encode", || {
        black_box(wire::to_bytes(black_box(&event)));
    });
    m.insert("serve.event_encode_us", median(&secs) * 1e6);
}

/// Run every kernel probe, on one thread.
pub fn run(rec: &mut Recorder, env: &Env, m: &mut Metrics) {
    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the pool shim always builds");
    single.install(|| {
        rec.span("layers", |rec| {
            taq_timeseries(rec, env, m);
            stats_kernels(rec, env, m);
            wire_and_ckpt(rec, env, m);
            shard_transport(rec, m);
            serve_egress(rec, env, m);
            ((), 0)
        })
    });
}
