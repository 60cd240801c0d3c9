//! Process-level chaos: `kill -9` real worker processes at randomized
//! epochs and demand the merged sweep output is trade-for-trade
//! bit-identical to an unkilled run — the durable-checkpoint +
//! exactly-once-replay contract, end to end.
//!
//! The harness spawns the actual `shard_worker` binary (the one the
//! supervisor ships), so every layer is exercised for real: the framed
//! Unix-socket transport, the durable checkpoint store, the silence
//! timeout, respawn with `--resume-seq`, and degraded masking when the
//! restart budget runs out.
//!
//! Workers run at the fleet's telemetry level, so the tests that read
//! lineage ask for `Full`; the rest run at the default (`Counters`).

use std::path::PathBuf;

use marketminer::components::ReplayCollector;
use marketminer::pipeline::{run_sweep_pipeline_with, SweepConfig, SweepOutput};
use marketminer::shard::supervisor::{note_corrupt, ShardSweepOutput};
use marketminer::shard::{ShardConfig, ShardRunner};
use marketminer::{Runtime, RuntimeConfig, TelemetryLevel};
use pairtrade_core::ckpt::CheckpointStore;
use taq::dataset::DayData;
use taq::generator::{MarketConfig, MarketGenerator};

mod common;

const WORKER_EXE: &str = env!("CARGO_BIN_EXE_shard_worker");

fn small_day(seed: u64) -> (DayData, usize) {
    let mut cfg = MarketConfig::small(4, 1, seed);
    cfg.micro.quote_rate_hz = 0.05;
    (MarketGenerator::new(cfg).next_day().unwrap(), 4)
}

/// A test-speed shard config in a unique scratch directory: ~7 epochs
/// per day, near-instant respawn backoff.
fn test_config(tag: &str, day: &DayData, shards: usize) -> ShardConfig {
    ShardConfig {
        shards,
        ckpt_dir: std::env::temp_dir().join(format!(
            "mm-process-chaos-{tag}-{}-{shards}",
            std::process::id()
        )),
        epoch_quotes: day.quotes().len().div_ceil(7).max(1),
        // Debug-build workers load the tape and build a 50+-node graph
        // before connecting; keep silence detection well clear of that.
        silence_timeout: std::time::Duration::from_secs(20),
        backoff_base: std::time::Duration::from_millis(10),
        backoff_max: std::time::Duration::from_millis(50),
        max_restarts: 5,
    }
}

fn epochs_in(day: &DayData, cfg: &ShardConfig) -> u64 {
    (day.quotes().len().div_ceil(cfg.epoch_quotes)) as u64
}

fn in_process_sweep(day: DayData, cfg: &SweepConfig) -> SweepOutput {
    let runtime = Runtime::with_config(RuntimeConfig {
        workers: 1,
        capacity: 256,
        telemetry: TelemetryLevel::Off,
    });
    run_sweep_pipeline_with(runtime, Box::new(ReplayCollector::new(day)), cfg).unwrap()
}

/// Lineage with the wall-clock stamp stripped: the deterministic
/// coordinates that must survive `kill -9`.
type LineageKey = (u64, &'static str, Option<u64>, Vec<u64>);

fn canon_lineage(out: &ShardSweepOutput) -> Vec<LineageKey> {
    out.lineage
        .iter()
        .map(|e| {
            (
                e.id.0,
                e.kind,
                e.interval,
                e.parents.iter().map(|p| p.0).collect(),
            )
        })
        .collect()
}

/// Deterministic pseudo-random stream for kill schedules (splitmix64).
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// An unkilled sharded run must merge to exactly the in-process sweep:
/// same trades per parameter set, same canonically-ordered baskets, same
/// health transitions — at 1 shard and at 3.
#[test]
fn sharded_run_matches_in_process_sweep() {
    let (day, n) = small_day(91);
    let sweep = SweepConfig::paper(n);
    let base = in_process_sweep(day.clone(), &sweep);

    for shards in [1usize, 3] {
        let cfg = test_config("baseline", &day, shards);
        let out = ShardRunner::new(cfg, WORKER_EXE).run(&day, &sweep).unwrap();
        assert_eq!(
            base.trades_per_param, out.trades_per_param,
            "trades diverged at shards={shards}"
        );
        assert_eq!(base.baskets, out.baskets, "shards={shards}");
        assert_eq!(base.health_events, out.health_events, "shards={shards}");
        assert!(out.degraded_params.is_empty());
        assert_eq!(out.reports.len(), shards);
        for r in &out.reports {
            assert!(!r.degraded, "rank {} degraded without chaos", r.rank);
            assert_eq!(r.restarts, 0, "rank {} restarted without chaos", r.rank);
        }
    }
}

/// Tentpole acceptance: `kill -9` any worker at a randomized epoch (three
/// seeds) and the completed run is bit-identical to the unkilled run —
/// trades, baskets, health, and lineage (modulo wall-clock stamps) — at
/// shard counts 1 and 3.
#[test]
fn kill9_at_random_epochs_is_bit_identical_to_unkilled() {
    let (day, n) = small_day(91);
    let sweep = SweepConfig::paper(n);

    for shards in [1usize, 3] {
        let cfg = test_config("unkilled", &day, shards);
        let n_epochs = epochs_in(&day, &cfg);
        assert!(n_epochs >= 4, "day too small to place interesting kills");
        let clean = ShardRunner::new(cfg, WORKER_EXE)
            .with_telemetry(TelemetryLevel::Full)
            .run(&day, &sweep)
            .unwrap();
        let clean_lineage = canon_lineage(&clean);
        assert!(!clean_lineage.is_empty(), "workers recorded no lineage");

        for seed in [11u64, 23, 47] {
            let mut rng = seed;
            // Two SIGKILLs per run: two distinct (rank, epoch) draws, the
            // epoch anywhere in the run including the end-of-day flush.
            let kills: Vec<(usize, u64)> = (0..2)
                .map(|_| {
                    (
                        (mix(&mut rng) as usize) % shards,
                        1 + mix(&mut rng) % n_epochs,
                    )
                })
                .collect();
            let cfg = test_config(&format!("kill-{seed}"), &day, shards);
            let out = ShardRunner::new(cfg, WORKER_EXE)
                .with_telemetry(TelemetryLevel::Full)
                .with_chaos(kills.clone())
                .run(&day, &sweep)
                .unwrap();
            assert_eq!(
                clean.trades_per_param, out.trades_per_param,
                "trades diverged after kills {kills:?} at shards={shards}"
            );
            assert_eq!(
                clean.baskets, out.baskets,
                "baskets diverged after kills {kills:?} at shards={shards}"
            );
            assert_eq!(
                clean.health_events, out.health_events,
                "health diverged after kills {kills:?} at shards={shards}"
            );
            assert_eq!(
                clean_lineage,
                canon_lineage(&out),
                "lineage diverged after kills {kills:?} at shards={shards}"
            );
            assert!(out.degraded_params.is_empty());
            let total_restarts: u32 = out.reports.iter().map(|r| r.restarts).sum();
            assert!(
                total_restarts > 0,
                "chaos plan {kills:?} killed nothing (shards={shards})"
            );
        }
    }
}

/// Results leave the workers epoch by epoch, so every epoch boundary is a
/// place where "already delivered" and "still in the checkpoint" must
/// meet exactly: `kill -9` rank 0 of a two-rank fleet after each result
/// frame in turn — every epoch's and the end-of-day flush — and each
/// killed day equals the unkilled fleet (trades, baskets, health, and
/// lineage at `Full`) and the in-process sweep (trades, baskets, health).
#[test]
fn kill9_at_every_epoch_equals_unkilled_and_in_process() {
    let (day, n) = small_day(91);
    let sweep = SweepConfig::paper(n);
    let base = in_process_sweep(day.clone(), &sweep);
    let shards = 2usize;

    let cfg = test_config("every-clean", &day, shards);
    let n_epochs = epochs_in(&day, &cfg);
    let clean = ShardRunner::new(cfg, WORKER_EXE)
        .with_telemetry(TelemetryLevel::Full)
        .run(&day, &sweep)
        .unwrap();
    assert_eq!(base.trades_per_param, clean.trades_per_param);
    assert_eq!(base.baskets, clean.baskets);
    assert_eq!(base.health_events, clean.health_events);
    let clean_lineage = canon_lineage(&clean);
    // One result frame per epoch plus the end-of-day flush, and most of
    // the day's baskets are out before the flush.
    assert!(clean
        .reports
        .iter()
        .all(|r| r.frames_accepted == n_epochs + 1));

    for seq in 0..=n_epochs {
        let cfg = test_config(&format!("every-{seq}"), &day, shards);
        let out = ShardRunner::new(cfg, WORKER_EXE)
            .with_telemetry(TelemetryLevel::Full)
            .with_chaos(vec![(0, seq)])
            .run(&day, &sweep)
            .unwrap();
        assert_eq!(out.reports[0].restarts, 1, "kill after frame {seq}");
        assert!(out.degraded_params.is_empty());
        assert_eq!(
            clean.trades_per_param, out.trades_per_param,
            "trades diverged, killed after frame {seq}"
        );
        assert_eq!(
            clean.baskets, out.baskets,
            "baskets diverged, killed after frame {seq}"
        );
        assert_eq!(clean.health_events, out.health_events);
        assert_eq!(
            clean_lineage,
            canon_lineage(&out),
            "lineage diverged, killed after frame {seq}"
        );
    }
}

/// Playing supervisor to one real `shard_worker`: a staged job
/// directory and its bound control socket, for the cases that need the
/// durable store in a state `ShardRunner` (which starts every run cold)
/// would never leave it in.
struct Staged {
    dir: PathBuf,
    endpoint: marketminer::shard::Endpoint,
    listener: marketminer::shard::Listener,
    epoch_quotes: usize,
}

impl Staged {
    fn new(tag: &str, day: &DayData, sweep: &SweepConfig) -> Staged {
        use marketminer::shard::{Endpoint, Listener, JOB_FILE, TAPE_FILE};

        let dir = std::env::temp_dir().join(format!("mm-staged-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("shard-0")).unwrap();
        std::fs::write(dir.join(JOB_FILE), wire::to_bytes(sweep)).unwrap();
        taq::io::write_binary_file(day, &dir.join(TAPE_FILE)).unwrap();
        let endpoint = Endpoint::Unix(dir.join("control.sock"));
        let listener = Listener::bind(&endpoint).unwrap();
        Staged {
            dir,
            endpoint,
            listener,
            epoch_quotes: day.quotes().len().div_ceil(7),
        }
    }

    fn store(&self) -> PathBuf {
        self.dir.join("shard-0")
    }

    /// Spawn rank 0 of a one-rank fleet and take its `Hello`.
    fn spawn(
        &self,
        resume_seq: u64,
    ) -> (
        std::process::Child,
        marketminer::shard::FramedConn,
        Vec<String>,
    ) {
        use marketminer::shard::Frame;
        let child = std::process::Command::new(WORKER_EXE)
            .args(["--rank", "0", "--shards", "1"])
            .args(["--telemetry", "counters"])
            .args(["--resume-seq", &resume_seq.to_string()])
            .args(["--epoch-quotes", &self.epoch_quotes.to_string()])
            .arg("--socket")
            .arg(self.endpoint.to_string())
            .arg("--ckpt-dir")
            .arg(&self.dir)
            .spawn()
            .unwrap();
        let mut conn = self.listener.accept().unwrap();
        conn.set_read_timeout(Some(std::time::Duration::from_secs(60)))
            .unwrap();
        let corrupt = match conn.recv::<Frame>().unwrap() {
            Frame::Hello { corrupt, .. } => corrupt,
            other => panic!("expected Hello, got {other:?}"),
        };
        (child, conn, corrupt)
    }

    /// A worker over a store holding only `planted` (a cut of `epoch`) must
    /// leave it alone and start the day cold — its first result frame is
    /// epoch 0 — naming the file in its `Hello`, which the supervisor logs
    /// as a `checkpoint.corrupt` flight. Returns the rendered report.
    fn cold_start_over(&self, planted: &std::path::Path, epoch: u64) -> String {
        use marketminer::shard::Frame;
        let name = format!("ckpt-{epoch:010}.bin");
        std::fs::copy(planted, self.store().join(&name)).unwrap();
        let (mut child, mut conn, corrupt) = self.spawn(0);
        assert_eq!(corrupt.len(), 1, "{corrupt:?}");
        assert!(corrupt[0].contains(&name), "{corrupt:?}");
        let first = loop {
            match conn.recv::<Frame>().unwrap() {
                Frame::Results { seq, .. } => break seq,
                Frame::Done { .. } => panic!("the day ended without a result frame"),
                _ => {}
            }
        };
        assert_eq!(first, 0, "a refused checkpoint means a cold start");
        let _ = child.kill();
        let _ = child.wait();

        let tel = telemetry::Telemetry::new(TelemetryLevel::Counters);
        note_corrupt(&tel, 0, &corrupt);
        let rendered = tel.finish().render();
        assert!(rendered.contains("checkpoint.corrupt"), "{rendered}");
        rendered
    }
}

impl Drop for Staged {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A worker that finds only a checkpoint of the previous format version
/// in its store (a fleet upgraded mid-day) must not touch it: the
/// committed version-8 file — a valid header and CRC, epoch 7 — is
/// refused by version and the day starts cold.
#[test]
fn old_version_checkpoint_cold_starts_with_a_corrupt_flight() {
    let (day, n) = small_day(91);
    let staged = Staged::new("old-ckpt", &day, &SweepConfig::paper(n));
    let old = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ckpt_v8_layout.bin");
    let rendered = staged.cold_start_over(&old, 7);
    assert!(rendered.contains("format version 8"), "{rendered}");
}

/// A checkpoint that validates and decodes but was cut from another
/// graph — another placement, another job — is as unusable as a corrupt
/// one. A respawn onto it used to fail outright, and again on every
/// respawn after, burning the rank's restart budget to `degraded`; it
/// must read as a `checkpoint.corrupt` flight and a cold start. The
/// planted file is a real cut of this build, of a two-spec slice.
#[test]
fn a_cut_of_another_slice_cold_starts_with_a_corrupt_flight() {
    use pairtrade_core::{StrategyParams, StrategySpec};

    let (day, n) = small_day(91);
    let other = SweepConfig::from_specs(
        n,
        vec![
            StrategySpec::Paper(StrategyParams::paper_default()),
            StrategySpec::Paper(StrategyParams {
                corr_window: 50,
                ..StrategyParams::paper_default()
            }),
        ],
    )
    .unwrap();
    let cfg = test_config("other-slice", &day, 1);
    let theirs = cfg.ckpt_dir.clone();
    ShardRunner::new(cfg, WORKER_EXE).run(&day, &other).unwrap();
    let cut = theirs.join("shard-0/ckpt-0000000003.bin");
    assert!(cut.exists(), "the donor fleet kept its last four cuts");

    let staged = Staged::new("other-slice", &day, &SweepConfig::paper(n));
    let rendered = staged.cold_start_over(&cut, 3);
    assert!(rendered.contains("does not match graph"), "{rendered}");
    let _ = std::fs::remove_dir_all(theirs);
}

/// The exactly-once rule must not depend on the replay being one epoch
/// long: the worker is SIGKILLed after `Results(e + 1)` and its two
/// newest cuts are lost (a torn temporary of `ckpt(e)` beside
/// `ckpt(e - 1)` — what a save still in flight at the kill, or a newest
/// file that fails validation, leaves). The supervisor expects `e + 2`;
/// the respawn must replay two epochs silently, re-cut both, and carry
/// on — every result frame of the day delivered once, each equal to the
/// unkilled day's.
#[test]
fn kill9_with_the_newest_cuts_lost_replays_two_epochs_exactly_once() {
    use marketminer::shard::{Frame, FramedConn};
    use std::collections::BTreeMap;

    /// What one incarnation sent.
    #[derive(Default)]
    struct Life {
        /// Result frames by seq, each a sorted bag of its encoded
        /// messages (stream nodes reach the sink in scheduling order
        /// within an interval).
        results: BTreeMap<u64, Vec<Vec<u8>>>,
        /// Epochs cut, in `CkptDone` order.
        cuts: Vec<u64>,
        /// `Done`'s final seq, if it got that far.
        done: Option<u64>,
    }

    /// Read `conn` until `Done`, or until result frame `stop_after`.
    fn collect(conn: &mut FramedConn, stop_after: Option<u64>) -> Life {
        let mut life = Life::default();
        while life.done.is_none() {
            match conn.recv::<Frame>().unwrap() {
                Frame::Results { seq, messages, .. } => {
                    let mut bag: Vec<Vec<u8>> = messages.iter().map(wire::to_bytes).collect();
                    bag.sort();
                    let again = life.results.insert(seq, bag);
                    assert!(again.is_none(), "seq {seq} sent twice");
                    if stop_after == Some(seq) {
                        break;
                    }
                }
                Frame::CkptDone { epoch, .. } => life.cuts.push(epoch),
                Frame::Done { final_seq } => life.done = Some(final_seq),
                _ => {}
            }
        }
        life
    }

    let (day, n) = small_day(91);
    let staged = Staged::new("cuts-lost", &day, &SweepConfig::paper(n));
    let (mut child, mut conn, _) = staged.spawn(0);
    let unkilled = collect(&mut conn, None);
    child.wait().unwrap();
    assert_eq!(unkilled.cuts, (0..7).collect::<Vec<u64>>());
    assert_eq!(unkilled.done, Some(8));
    assert!(
        unkilled.results.values().any(|bag| !bag.is_empty()),
        "vacuous day"
    );
    std::fs::remove_dir_all(staged.store()).unwrap();
    std::fs::create_dir_all(staged.store()).unwrap();

    let e = 3u64;
    let (mut child, mut conn, _) = staged.spawn(0);
    let first = collect(&mut conn, Some(e + 1));
    child.kill().unwrap();
    child.wait().unwrap();
    drop(conn);
    assert!(first.cuts.contains(&e), "{:?}", first.cuts);
    for epoch in e..7 {
        let _ = std::fs::remove_file(staged.store().join(format!("ckpt-{epoch:010}.bin")));
    }
    std::fs::write(
        staged.store().join(format!(".tmp-ckpt-{e:010}.bin")),
        b"MMCK torn",
    )
    .unwrap();

    let (mut child, mut conn, corrupt) = staged.spawn(e + 2);
    assert!(corrupt.is_empty(), "{corrupt:?}");
    let second = collect(&mut conn, None);
    child.wait().unwrap();
    assert_eq!(
        second.results.keys().copied().collect::<Vec<u64>>(),
        (e + 2..=7).collect::<Vec<u64>>(),
        "the replayed epochs stay silent"
    );
    assert_eq!(
        second.cuts,
        (e..7).collect::<Vec<u64>>(),
        "both epochs are re-cut"
    );
    assert_eq!(second.done, Some(8));
    let mut delivered = first.results;
    delivered.extend(second.results);
    assert!(
        delivered == unkilled.results,
        "a frame differs from the unkilled day's"
    );
}

/// The two fleets the benchmark's sizing could not run (its README,
/// "findings"): one rank carrying all 42 specs at n = 16, and two ranks
/// at n = 24, a full day cut every 1000 quotes. With the day's orders
/// and trades in every checkpoint and in one end-of-day frame they died
/// on the transport's frame bound; with results leaving per epoch both
/// complete with every parameter set. Minutes in a debug build: the
/// `process-chaos` CI job runs it with `--release -- --ignored`.
#[test]
#[ignore = "full-size fleets; run with --release (CI process-chaos job)"]
fn one_rank_and_wide_fleets_complete_a_full_day() {
    for (n, shards) in [(16usize, 1usize), (24, 2)] {
        let mut market = MarketConfig::small(n, 1, 2009);
        market.micro.quote_rate_hz = 0.05;
        let day = MarketGenerator::new(market).next_day().unwrap();
        let sweep = SweepConfig::paper(n);
        let cfg = ShardConfig {
            epoch_quotes: 1000,
            silence_timeout: std::time::Duration::from_secs(60),
            ..test_config(&format!("wide-{n}"), &day, shards)
        };
        let ckpt_dir = cfg.ckpt_dir.clone();
        let out = ShardRunner::new(cfg, WORKER_EXE)
            .with_telemetry(TelemetryLevel::Off)
            .run(&day, &sweep)
            .unwrap();
        assert!(out.degraded_params.is_empty(), "n={n}: {:?}", out.reports);
        for r in &out.reports {
            assert!(!r.degraded && r.restarts == 0, "n={n}: {r:?}");
        }
        assert!(
            out.trades_per_param.iter().all(|t| !t.is_empty()),
            "n={n}: a parameter set reported nothing"
        );
        assert!(
            out.baskets.len() > 300,
            "n={n}: {} baskets",
            out.baskets.len()
        );
        let _ = std::fs::remove_dir_all(ckpt_dir);
    }
}

/// Heterogeneous chaos: a mixed {paper, Kalman, overlay} shard job
/// SIGKILLed mid-day must replay to bit-identical output — the Kalman
/// filter state and the overlay's wrapped position both round-trip
/// through the durable checkpoint exactly once.
#[test]
fn kill9_mid_day_is_bit_identical_for_mixed_strategies() {
    let (day, n) = small_day(91);
    let sweep = SweepConfig::from_specs(n, common::mixed_specs()).unwrap();
    let base = in_process_sweep(day.clone(), &sweep);
    common::assert_every_family_trades(&sweep.specs, &base.trades_per_param);

    for shards in [1usize, 2] {
        let cfg = test_config("mixed-clean", &day, shards);
        let n_epochs = epochs_in(&day, &cfg);
        let clean = ShardRunner::new(cfg, WORKER_EXE).run(&day, &sweep).unwrap();
        assert_eq!(
            base.trades_per_param, clean.trades_per_param,
            "mixed shard run diverged from in-process sweep (shards={shards})"
        );

        for seed in [5u64, 31] {
            let mut rng = seed;
            // Mid-day kills only: the strategies hold live state (open
            // positions, Kalman covariance) at the cut.
            let kills: Vec<(usize, u64)> = (0..2)
                .map(|_| {
                    (
                        (mix(&mut rng) as usize) % shards,
                        1 + mix(&mut rng) % (n_epochs - 1).max(1),
                    )
                })
                .collect();
            let cfg = test_config(&format!("mixed-kill-{seed}"), &day, shards);
            let out = ShardRunner::new(cfg, WORKER_EXE)
                .with_chaos(kills.clone())
                .run(&day, &sweep)
                .unwrap();
            assert_eq!(
                clean.trades_per_param, out.trades_per_param,
                "mixed trades diverged after kills {kills:?} at shards={shards}"
            );
            assert_eq!(
                clean.baskets, out.baskets,
                "mixed baskets diverged after kills {kills:?} at shards={shards}"
            );
            assert!(out.degraded_params.is_empty());
            assert!(
                out.reports.iter().map(|r| r.restarts).sum::<u32>() > 0,
                "chaos plan {kills:?} killed nothing (shards={shards})"
            );
        }
    }
}

/// A respawned rank can replay, finish and exit while the supervisor is
/// busy with another rank's death; it has finished, not died. Kill rank 1
/// near the end of the day and rank 0 at its end-of-day flush, with a
/// backoff long enough for either rank's second life to run whole inside
/// the other's: each rank restarts exactly once, and the day equals the
/// in-process sweep. (A supervisor that slept its backoff in the event
/// loop found the finished worker's `Hello` still queued, called its exit
/// "exited before connecting" and respawned it again.)
#[test]
fn a_rank_that_finishes_during_another_ranks_backoff_is_not_declared_dead() {
    let (day, n) = small_day(91);
    let sweep = SweepConfig::paper(n);
    let base = in_process_sweep(day.clone(), &sweep);
    let backoff = std::time::Duration::from_secs(2);
    let cfg = ShardConfig {
        backoff_base: backoff,
        backoff_max: backoff,
        ..test_config("finished-in-backoff", &day, 2)
    };
    let n_epochs = epochs_in(&day, &cfg);
    let out = ShardRunner::new(cfg, WORKER_EXE)
        .with_chaos(vec![(1, n_epochs - 1), (0, n_epochs)])
        .run(&day, &sweep)
        .unwrap();
    let restarts: Vec<u32> = out.reports.iter().map(|r| r.restarts).collect();
    assert_eq!(restarts, vec![1, 1], "{:?}", out.reports);
    assert!(out.degraded_params.is_empty());
    assert_eq!(base.trades_per_param, out.trades_per_param);
    assert_eq!(base.baskets, out.baskets);
    assert_eq!(base.health_events, out.health_events);
}

/// The live `shard_worker` serving `rank` of the fleet staged in
/// `ckpt_dir`, found by its command line.
fn worker_pid(ckpt_dir: &std::path::Path, rank: usize) -> Option<u32> {
    let dir = ckpt_dir.to_str()?.as_bytes();
    let rank = rank.to_string();
    std::fs::read_dir("/proc")
        .ok()?
        .flatten()
        .find_map(|entry| {
            let pid = entry.file_name().to_str()?.parse().ok()?;
            let cmdline = std::fs::read(entry.path().join("cmdline")).ok()?;
            let args: Vec<&[u8]> = cmdline.split(|&b| b == 0).collect();
            let ours = args.contains(&dir)
                && (args.windows(2)).any(|w| w[0] == b"--rank" && w[1] == rank.as_bytes());
            ours.then_some(pid)
        })
}

/// A rank that stops making progress sends nothing, and its reader
/// declares it silent: SIGSTOP rank 1's worker mid-day (a node wedged
/// inside a live worker leaves its rank just as quiet) and the supervisor
/// kills it and respawns it from its last cut exactly once, the restart
/// flight names the silence, and the day equals the unstopped fleet's.
#[test]
fn a_stopped_rank_is_declared_silent_and_respawned() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    let (day, n) = small_day(91);
    let sweep = SweepConfig::paper(n);
    let config = |tag: &str| ShardConfig {
        // Twenty cuts a day: a stop after the second lands mid-day
        // however fast the build.
        epoch_quotes: day.quotes().len().div_ceil(20),
        // Debug-build workers start up and cut an epoch well inside this.
        silence_timeout: Duration::from_secs(5),
        ..test_config(tag, &day, 2)
    };
    let clean = ShardRunner::new(config("unstopped"), WORKER_EXE)
        .run(&day, &sweep)
        .unwrap();

    let cfg = config("stopped");
    let finished = Arc::new(AtomicBool::new(false));
    let stopper = std::thread::spawn({
        let (ckpt_dir, finished) = (cfg.ckpt_dir.clone(), Arc::clone(&finished));
        move || {
            let second_cut = ckpt_dir.join("shard-1/ckpt-0000000001.bin");
            while !finished.load(Ordering::Acquire) {
                let mid_day = second_cut.exists();
                if let Some(pid) = mid_day.then(|| worker_pid(&ckpt_dir, 1)).flatten() {
                    let stopped = std::process::Command::new("kill")
                        .args(["-STOP", &pid.to_string()])
                        .status()
                        .unwrap();
                    assert!(stopped.success(), "kill -STOP {pid}");
                    return Some(pid);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            None
        }
    });
    let out = ShardRunner::new(cfg, WORKER_EXE).run(&day, &sweep).unwrap();
    finished.store(true, Ordering::Release);
    assert!(
        stopper.join().unwrap().is_some(),
        "rank 1 finished before it could be stopped"
    );

    let restarts: Vec<u32> = out.reports.iter().map(|r| r.restarts).collect();
    assert_eq!(restarts, vec![0, 1], "{:?}", out.reports);
    assert!(out.degraded_params.is_empty());
    let rendered = out.telemetry.as_ref().expect("fleet telemetry").render();
    assert!(
        (rendered.lines()).any(|l| l.contains("shard.restarts") && l.contains("silence")),
        "{rendered}"
    );
    assert_eq!(clean.trades_per_param, out.trades_per_param);
    assert_eq!(clean.baskets, out.baskets);
    assert_eq!(clean.health_events, out.health_events);
}

/// The signal plane through `kill -9`: a health-enabled sweep whose tape
/// carries an outage and a corruption burst, two averaging windows on one
/// stream, killed at the epochs around the degradation — so the durable
/// cut holds lagging plane columns, queued health transitions and
/// flattened books, and the restored stream nodes must carry on from
/// them bit-identically.
#[test]
fn kill9_mid_degradation_restores_the_signal_plane_bit_identically() {
    use marketminer::HealthPolicy;
    use pairtrade_core::{ExitReason, StrategyParams, StrategySpec};
    use taq::{CorruptionBurst, OutageWindow, StreamFaultPlan};

    let n = 6;
    let mut market = MarketConfig::small(n, 1, 23);
    market.micro.quote_rate_hz = 0.2;
    market.errors = taq::ErrorConfig::none();
    let clean_tape = MarketGenerator::new(market).next_day().unwrap();
    let plan = StreamFaultPlan {
        outages: vec![OutageWindow {
            symbol: 1,
            start_s: 6_000,
            end_s: 9_000,
        }],
        bursts: vec![CorruptionBurst {
            symbol: 4,
            start_s: 12_000,
            end_s: 13_200,
            intensity: 0.95,
        }],
        seed: 23,
        ..StreamFaultPlan::none()
    };
    let (quotes, log) = taq::errors::apply_stream_faults(clean_tape.quotes(), &plan);
    assert!(log.dropped > 0 && log.corrupted > 0);
    let day = DayData::new(clean_tape.day, quotes, n, Vec::new());

    let base = StrategyParams {
        corr_window: 20,
        avg_window: 10,
        div_window: 5,
        divergence: 0.0005,
        ..StrategyParams::paper_default()
    };
    let specs = vec![
        StrategySpec::Paper(base),
        StrategySpec::Paper(StrategyParams {
            avg_window: 25,
            ..base
        }),
    ];
    let mut sweep = SweepConfig::from_specs(n, specs)
        .unwrap()
        .with_health(HealthPolicy::default());
    sweep.clean.k_sigma = 12.0;

    let in_process = in_process_sweep(day.clone(), &sweep);
    assert!(in_process.health_events.iter().any(|h| h.is_degraded()));
    assert!(
        in_process
            .trades_per_param
            .iter()
            .flatten()
            .any(|t| t.reason == ExitReason::Degraded),
        "no position was open on a symbol when it degraded"
    );

    // Seven epochs a day: the outage spans epochs 2–3, the burst epoch 4.
    let kills: Vec<(usize, u64)> = vec![(0, 2), (0, 3), (0, 4)];
    let mut cfg = test_config("signal-plane", &day, 1);
    cfg.max_restarts = 5;
    assert_eq!(epochs_in(&day, &cfg), 7);
    let out = ShardRunner::new(cfg, WORKER_EXE)
        .with_chaos(kills)
        .run(&day, &sweep)
        .unwrap();
    assert_eq!(out.reports[0].restarts, 3);
    assert!(out.degraded_params.is_empty());
    assert_eq!(in_process.trades_per_param, out.trades_per_param);
    assert_eq!(in_process.baskets, out.baskets);
    assert_eq!(in_process.health_events, out.health_events);
}

/// Restart-budget exhaustion must not hang or poison the sweep: the
/// repeatedly-killed shard's parameter sets are masked degraded, every
/// other shard's output is still bit-identical to the in-process run, and
/// the exit report says exactly what happened.
#[test]
fn restart_budget_exhaustion_degrades_shard_and_completes() {
    let (day, n) = small_day(91);
    let sweep = SweepConfig::paper(n);
    let base = in_process_sweep(day.clone(), &sweep);

    let shards = 3usize;
    let victim = 1usize;
    let mut cfg = test_config("budget", &day, shards);
    cfg.max_restarts = 1;
    // Three kills against a budget of one respawn: the second death
    // exhausts it.
    let kills = vec![(victim, 1u64), (victim, 2), (victim, 3)];
    let out = ShardRunner::new(cfg, WORKER_EXE)
        .with_chaos(kills)
        .run(&day, &sweep)
        .unwrap();

    let masked = marketminer::shard::placement(&sweep.specs, shards).swap_remove(victim);
    assert!(!masked.is_empty() && masked.len() < sweep.specs.len());
    assert_eq!(out.degraded_params, masked);
    assert!(out.reports[victim].degraded);
    assert!(out.reports[victim].restarts > 1);
    for (k, trades) in out.trades_per_param.iter().enumerate() {
        if masked.contains(&k) {
            assert!(trades.is_empty(), "degraded param {k} leaked trades");
        } else {
            assert_eq!(
                base.trades_per_param[k], *trades,
                "healthy param {k} diverged while shard {victim} degraded"
            );
        }
    }
    // No masked parameter set's orders leak into the merged baskets.
    for b in &out.baskets {
        assert!(b.orders.iter().all(|o| !masked.contains(&o.param_set)));
    }
    // The incident trail: restarts then a degrade, in the flight log.
    let report = out.telemetry.as_ref().expect("supervisor telemetry");
    let rendered = report.render();
    assert!(rendered.contains("shard.degraded"), "{rendered}");
    assert!(rendered.contains("restart budget"), "{rendered}");
}

/// Durable-store corruption: truncate one newer checkpoint and bit-flip
/// another; recovery must fall back to the newest *valid* epoch, name
/// both casualties, and the supervisor logs each as a
/// `checkpoint.corrupt` flight incident.
#[test]
fn corrupt_checkpoints_fall_back_and_are_reported() {
    let dir = std::env::temp_dir().join(format!("mm-ckpt-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).unwrap();
    for epoch in 0..3u64 {
        store
            .save(epoch, format!("payload-{epoch}").as_bytes())
            .unwrap();
    }
    // Torn write: the newest file loses its tail.
    let newest: PathBuf = dir.join("ckpt-0000000002.bin");
    let bytes = std::fs::read(&newest).unwrap();
    std::fs::write(&newest, &bytes[..bytes.len() - 3]).unwrap();
    // Bit rot: flip one payload bit in the middle one.
    let middle: PathBuf = dir.join("ckpt-0000000001.bin");
    let mut bytes = std::fs::read(&middle).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&middle, &bytes).unwrap();

    let rec = store.recover().unwrap();
    assert_eq!(rec.epoch, 0, "must fall back past both corrupt files");
    assert_eq!(rec.payload, b"payload-0");
    assert_eq!(rec.corrupt.len(), 2, "{:?}", rec.corrupt);
    assert_eq!(rec.corrupt[0].epoch, 2, "newest casualty first");
    assert_eq!(rec.corrupt[1].epoch, 1);

    // The supervisor-side incident path: every skipped file becomes a
    // `checkpoint.corrupt` flight event in the rendered report.
    let tel = telemetry::Telemetry::new(TelemetryLevel::Full);
    let descriptions: Vec<String> = rec
        .corrupt
        .iter()
        .map(|c| {
            format!(
                "{}: {}",
                c.path.file_name().unwrap().to_string_lossy(),
                c.reason
            )
        })
        .collect();
    note_corrupt(&tel, 0, &descriptions);
    let rendered = tel.finish().render();
    assert!(rendered.contains("checkpoint.corrupt"), "{rendered}");
    assert!(rendered.contains("ckpt-0000000002.bin"), "{rendered}");
    assert!(rendered.contains("ckpt-0000000001.bin"), "{rendered}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The deterministic slice of a merged metrics registry: strategy and
/// risk decision counters, per stream node the sums over that stream's
/// parameter sets. They partition cleanly across shards (each parameter
/// set runs on exactly one rank, and a stream cut across ranks sums
/// under its one label) and are pure functions of the tape — unlike
/// timing histograms, scheduler turn counts, or the front-end counters
/// every rank duplicates.
fn canon_counters(
    m: &telemetry::metrics::MetricsSnapshot,
) -> std::collections::BTreeMap<(String, String), u64> {
    const DECISIONS: &[&str] = &[
        "positions.opened",
        "positions.closed",
        "positions.flattened",
        "positions.eod_closed",
        "orders.passed",
        "orders.rejected_size",
        "orders.rejected_book_full",
        "orders.rejected_degraded",
    ];
    m.counters
        .iter()
        .filter(|((label, name), &v)| {
            // Zero-valued counters are dropped: wire deltas elide them,
            // a direct registry read keeps them, and both mean the same
            // thing.
            v > 0 && DECISIONS.contains(&name.as_str()) && label.starts_with("strategy-host(")
        })
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

fn in_process_full_sweep(day: DayData, cfg: &SweepConfig, workers: usize) -> SweepOutput {
    let runtime = Runtime::with_config(RuntimeConfig {
        workers,
        capacity: 256,
        telemetry: TelemetryLevel::Full,
    });
    run_sweep_pipeline_with(runtime, Box::new(ReplayCollector::new(day)), cfg).unwrap()
}

/// Tentpole acceptance: a 3-shard fleet merges to ONE telemetry report
/// whose decision-counter totals are bit-identical to a single-process
/// run — at in-process worker counts 1/2/max and fleet shard counts
/// 1/2/3 — and ONE merged trace carrying a process lane per rank.
#[test]
fn fleet_telemetry_counters_sum_bit_identically_to_single_process() {
    let (day, n) = small_day(91);
    let sweep = SweepConfig::paper(n);

    let base = canon_counters(
        &in_process_full_sweep(day.clone(), &sweep, 1)
            .telemetry
            .expect("telemetry at Full")
            .metrics,
    );
    assert!(
        base.values().any(|&v| v > 0),
        "vacuous: no decisions counted"
    );
    for workers in [2usize, 0] {
        let out = in_process_full_sweep(day.clone(), &sweep, workers);
        assert_eq!(
            base,
            canon_counters(&out.telemetry.unwrap().metrics),
            "decision counters diverged at workers={workers}"
        );
    }

    for shards in [1usize, 2, 3] {
        let cfg = test_config(&format!("telmerge-{shards}"), &day, shards);
        let out = ShardRunner::new(cfg, WORKER_EXE)
            .with_telemetry(TelemetryLevel::Full)
            .run(&day, &sweep)
            .unwrap();
        let report = out.telemetry.as_ref().expect("fleet telemetry at Full");
        let fleet = canon_counters(&report.metrics);
        assert_eq!(
            base, fleet,
            "fleet sum diverged from single-process at shards={shards}"
        );
        // Merged step accounting must cover every stream exactly once
        // (each accepted frame folds once, not per delivery; a stream
        // cut across ranks is one row).
        let profile = telemetry::profile::Profile::from_snapshot(&report.metrics);
        let streams = profile
            .nodes()
            .iter()
            .filter(|p| p.node.starts_with("strategy-host("))
            .count();
        assert_eq!(streams, sweep.distinct_streams().len(), "shards={shards}");
        // ONE merged trace with a process lane pair per rank.
        let trace = out.trace_json.as_ref().expect("merged trace at Full");
        for rank in 0..shards {
            assert!(
                trace.contains(&format!("shard{rank}/workers"))
                    && trace.contains(&format!("shard{rank}/nodes")),
                "merged trace lost rank {rank}'s lanes at shards={shards}"
            );
        }
    }
}

/// `kill -9` must not corrupt the merged observability plane: an epoch's
/// telemetry delta rides its result frame, which the seq rule accepts
/// once however often a respawn replays the epoch, so the killed fleet's
/// decision counters equal the clean fleet's (and the single-process
/// run's), and the merged trace still carries every rank's lanes.
#[test]
fn kill9_keeps_merged_telemetry_canonical() {
    let (day, n) = small_day(91);
    let sweep = SweepConfig::paper(n);
    let shards = 3usize;

    let clean_cfg = test_config("telkill-clean", &day, shards);
    let n_epochs = epochs_in(&day, &clean_cfg);
    let clean = ShardRunner::new(clean_cfg, WORKER_EXE)
        .with_telemetry(TelemetryLevel::Full)
        .run(&day, &sweep)
        .unwrap();
    let clean_canon = canon_counters(&clean.telemetry.as_ref().unwrap().metrics);
    assert!(clean_canon.values().any(|&v| v > 0));

    let killed_cfg = test_config("telkill", &day, shards);
    let out = ShardRunner::new(killed_cfg, WORKER_EXE)
        .with_telemetry(TelemetryLevel::Full)
        .with_chaos(vec![(0, 1), (2, n_epochs / 2)])
        .run(&day, &sweep)
        .unwrap();
    assert!(
        out.reports.iter().map(|r| r.restarts).sum::<u32>() >= 2,
        "chaos plan killed nothing"
    );
    let report = out.telemetry.as_ref().unwrap();
    assert_eq!(
        clean_canon,
        canon_counters(&report.metrics),
        "kill -9 corrupted the merged decision counters"
    );
    // The restart incidents surface in the merged flight log, attributed
    // to the supervisor (worker flights would be shard-prefixed).
    let rendered = report.render();
    assert!(rendered.contains("shard.restarts"), "{rendered}");
    let trace = out.trace_json.as_ref().expect("merged trace at Full");
    for rank in 0..shards {
        assert!(
            trace.contains(&format!("shard{rank}/nodes")),
            "kill -9 lost rank {rank}'s trace lane"
        );
    }
}

/// After a mid-run `kill -9` and replay, the merged fleet lineage must
/// still explain every basket: unique ids, no orphan parent references,
/// every basket walks back to a correlation snapshot and a quote, and the
/// `explain_trade` export resolves shard-qualified node names.
#[test]
fn lineage_explains_trades_across_shard_restart() {
    use std::collections::{HashMap, HashSet, VecDeque};

    let (day, n) = small_day(91);
    let sweep = SweepConfig::paper(n);
    let shards = 3usize;
    let cfg = test_config("explain", &day, shards);
    let n_epochs = epochs_in(&day, &cfg);
    let out = ShardRunner::new(cfg, WORKER_EXE)
        .with_telemetry(TelemetryLevel::Full)
        .with_chaos(vec![(0, 1), (2, n_epochs / 2)])
        .run(&day, &sweep)
        .unwrap();
    assert!(out.reports.iter().map(|r| r.restarts).sum::<u32>() >= 2);

    let events: HashMap<u64, &telemetry::lineage::LineageEvent> =
        out.lineage.iter().map(|e| (e.id.0, e)).collect();
    assert_eq!(events.len(), out.lineage.len(), "duplicate lineage ids");
    assert!(!out.baskets.is_empty(), "vacuous: no baskets traded");
    for basket in &out.baskets {
        // Merged baskets derive their cause from member orders; walk from
        // the orders (each stamped by its emitting shard).
        for order in &basket.orders {
            assert!(order.cause.id.is_set());
            let (mut saw_corr, mut saw_quote) = (false, false);
            let mut seen: HashSet<u64> = HashSet::new();
            let mut queue = VecDeque::from([order.cause.id.0]);
            while let Some(id) = queue.pop_front() {
                if !seen.insert(id) {
                    continue;
                }
                let e = events
                    .get(&id)
                    .unwrap_or_else(|| panic!("orphan lineage id {id:#x} after restart"));
                match e.kind {
                    "corr" => saw_corr = true,
                    "quote" => saw_quote = true,
                    _ => {}
                }
                queue.extend(e.parents.iter().map(|p| p.0));
            }
            assert!(
                saw_corr,
                "order in basket @{} lost corr lineage",
                basket.interval
            );
            assert!(
                saw_quote,
                "order in basket @{} lost quote lineage",
                basket.interval
            );
        }
    }

    // The explain_trade input: shard-qualified node names resolve.
    let json = out.lineage_export();
    assert!(json.contains("shard0/"), "export lost shard-0 node names");
    assert!(json.contains("shard2/"), "export lost shard-2 node names");
    assert!(json.contains("\"basket\""), "export lost basket events");
}
