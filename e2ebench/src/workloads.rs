//! The three workloads, their set-up, and their closed loops.
//!
//! Every workload is closed-loop: one caller replays 100 ms report buckets
//! and waits for each to close before building the next. A run's inputs
//! are `INPUTS` distinct traffic realisations made from its seed; one
//! *round* runs each of them once through a fresh deployment. A run
//! repeats rounds until its time is spent, so every round must reproduce
//! the first round's digests. Several inputs per round average out the
//! run-to-run differences in content (how many false positives land in
//! one bucket) that one input alone would show.

use crate::deploy::{render_detections, Loop, TracedDeployment};
use crate::ledger::{Layer, Ledger, Totals};
use parking_lot::Mutex;
use sixg_xsec::mitigator::MitigationSummary;
use sixg_xsec::mobiwatch::{MobiWatchConfig, MobiWatchState};
use sixg_xsec::pipeline::{Pipeline, PipelineConfig};
use sixg_xsec::scale::ScaleDeployment;
use sixg_xsec::shard::ShardedMobiWatch;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;
use xsec_attacks::{MigrateConfig, MigrationSchedule};
use xsec_control::{ActionTemplate, ControlAction, PolicyRule};
use xsec_mobiflow::{extract_from_events_at, TelemetryStream};
use xsec_obs::Obs;
use xsec_ran::{StormConfig, StreamConfig, StreamingScenario};
use xsec_types::{AttackKind, Duration, Timestamp};

/// Seed of the benign training traffic (odd).
const TRAINING_SEED: u64 = 0x5eed_0001;
/// Report period: one closed-loop step per 100 ms of virtual time.
const PERIOD: Duration = Duration::from_millis(100);
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Distinct traffic inputs per run.
const INPUTS: u64 = 4;
/// Cells (and agents) of the benign replay.
const REPLAY_CELLS: usize = 4;
/// Benign UEs per replay input (≈ 11 records each).
const REPLAY_UES: u64 = 4_000;
/// Cells (and agents, ring-1 neighbours) of the flood.
const FLOOD_CELLS: usize = 16;
/// Each flood input stops here, whatever the engine still has queued.
const FLOOD_HORIZON: Duration = Duration::from_secs(15);
/// Buckets per round that must ship a Control Request on the flood.
const FLOOD_CONTROL_BUCKETS: usize = 100;

/// One named correctness check.
pub type Check = (String, bool);

/// What one round (or one input of it) measured and produced.
#[derive(Default)]
pub struct Pass {
    pub wall_s: f64,
    pub records: u64,
    /// Wall time of each bucket's `step` (or `process_batch`).
    pub bucket_ms: Vec<f64>,
    /// Wall time of each whole loop iteration (traffic, `step`,
    /// enforcement); these sum to `wall_s`.
    pub loop_ms: Vec<f64>,
    /// Wall times of the buckets that shipped at least one Control Request.
    pub control_bucket_ms: Vec<f64>,
    /// Per-input digests of the detector windows and incident traces.
    pub detections: Vec<u64>,
    pub incidents: Vec<u64>,
    pub flagged: u64,
    pub alerts: u64,
    pub findings: u64,
    pub events: u64,
    pub enforced: u64,
    pub mitigation: MitigationSummary,
    pub sdl_entries: u64,
    pub deliveries: u64,
    pub pdus: u64,
    pub conns_scanned: u64,
    pub controls_sent: u64,
    pub controls_acked: u64,
    pub controls_broadcast: u64,
    pub ric_egress_dropped: u64,
    pub agent_egress_dropped: u64,
    pub controls_failed: u64,
    pub controls_unroutable: u64,
    pub incidents_kept: u64,
    pub incidents_dropped: u64,
    pub checks: Vec<Check>,
    pub totals: Option<Totals>,
}

impl Pass {
    /// Operations attempted: records pushed plus Control Requests sent.
    pub fn attempted(&self) -> u64 {
        self.records + self.controls_sent
    }

    /// Operations lost or refused, failed checks included.
    pub fn failed(&self) -> u64 {
        self.ric_egress_dropped
            + self.agent_egress_dropped
            + self.controls_failed
            + self.controls_unroutable
            + (self.mitigation.expired + self.mitigation.exhausted) as u64
            + self.checks.iter().filter(|(_, ok)| !ok).count() as u64
    }

    /// Adds one input's pass to this round.
    fn absorb(&mut self, p: Pass) {
        self.wall_s += p.wall_s;
        self.records += p.records;
        self.bucket_ms.extend(p.bucket_ms);
        self.loop_ms.extend(p.loop_ms);
        self.control_bucket_ms.extend(p.control_bucket_ms);
        self.detections.extend(p.detections);
        self.incidents.extend(p.incidents);
        for (sum, add) in [
            (&mut self.flagged, p.flagged),
            (&mut self.alerts, p.alerts),
            (&mut self.findings, p.findings),
            (&mut self.events, p.events),
            (&mut self.enforced, p.enforced),
            (&mut self.sdl_entries, p.sdl_entries),
            (&mut self.deliveries, p.deliveries),
            (&mut self.pdus, p.pdus),
            (&mut self.conns_scanned, p.conns_scanned),
            (&mut self.controls_sent, p.controls_sent),
            (&mut self.controls_acked, p.controls_acked),
            (&mut self.controls_broadcast, p.controls_broadcast),
            (&mut self.ric_egress_dropped, p.ric_egress_dropped),
            (&mut self.agent_egress_dropped, p.agent_egress_dropped),
            (&mut self.controls_failed, p.controls_failed),
            (&mut self.controls_unroutable, p.controls_unroutable),
            (&mut self.incidents_kept, p.incidents_kept),
            (&mut self.incidents_dropped, p.incidents_dropped),
        ] {
            *sum += add;
        }
        let (m, pm) = (&mut self.mitigation, p.mitigation);
        m.issued += pm.issued;
        m.acked += pm.acked;
        m.failed += pm.failed;
        m.expired += pm.expired;
        m.exhausted += pm.exhausted;
        m.supervised += pm.supervised;
        m.detection_to_ack_us.extend(pm.detection_to_ack_us);
        merge_checks(&mut self.checks, p.checks);
        if let Some(t) = p.totals {
            self.totals.get_or_insert_with(Totals::default).add(&t);
        }
    }
}

/// ANDs `more` into `checks` by name, keeping first-seen order.
pub fn merge_checks(checks: &mut Vec<Check>, more: impl IntoIterator<Item = Check>) {
    for (name, ok) in more {
        match checks.iter_mut().find(|(n, _)| *n == name) {
            Some(entry) => entry.1 &= ok,
            None => checks.push((name, ok)),
        }
    }
}

/// One traffic input of a run.
pub struct Input {
    /// Evaluation traffic seed (always even).
    seed: u64,
    /// The pre-generated replay stream (empty for the flood, which
    /// generates its traffic inside the loop).
    stream: TelemetryStream,
    /// Report buckets of `stream` in time order.
    buckets: Vec<Range<usize>>,
}

/// Everything a run's rounds share, and the set-up times.
pub struct Setup {
    workload: String,
    pipeline: Pipeline,
    inputs: Vec<Input>,
    pub setup_s: Vec<f64>,
}

/// The benign traffic shape: mobility, churn and registration storms.
fn benign_config(seed: u64, cells: usize, total_ues: u64) -> StreamConfig {
    StreamConfig {
        seed,
        cells,
        total_ues,
        storm: Some(StormConfig {
            period: Duration::from_secs(5),
            burst: 128,
        }),
        ..StreamConfig::default()
    }
}

/// Runs an engine to completion in report buckets.
fn drain(mut engine: StreamingScenario) -> TelemetryStream {
    let mut records = TelemetryStream::default();
    let mut deadline = Timestamp::ZERO + PERIOD;
    while !engine.done() {
        let events = engine.step(deadline);
        let chunk = extract_from_events_at(&events, records.records.len() as u64);
        records.records.extend(chunk.records);
        deadline += PERIOD;
    }
    records
}

/// Trains on benign traffic from `seed`: about 13k records for either cell
/// count.
fn train(seed: u64, cells: usize) -> Pipeline {
    let mut config = PipelineConfig::small(seed, 0);
    config.scoring_shards = 1;
    config.training.lstm_epochs = 1;
    let ues = if cells > REPLAY_CELLS { 500 } else { 1_000 };
    let training = drain(StreamingScenario::new(benign_config(seed, cells, ues)));
    Pipeline::train_on(&config, &training)
}

fn bucketize(stream: &TelemetryStream) -> Vec<Range<usize>> {
    let mut buckets = Vec::new();
    let mut start = 0;
    let mut bucket_end = Timestamp::ZERO + PERIOD;
    for (i, record) in stream.records.iter().enumerate() {
        while record.timestamp >= bucket_end {
            buckets.push(start..i);
            start = i;
            bucket_end += PERIOD;
        }
    }
    buckets.push(start..stream.records.len());
    buckets
}

/// Set-up: training, traffic generation, deployment and E2 handshake,
/// repeated `SETUP_REPS` times so `setup_s` is a median.
pub fn setup(workload: &str, seed: u64) -> Setup {
    // The deployed models are fixed across seeds, so a run-to-run change in
    // detector work comes from the traffic alone. Training traffic uses an
    // odd seed and evaluation traffic even ones, so they never coincide.
    let flood = workload == "closed_loop_flood";
    let cells = if flood { FLOOD_CELLS } else { REPLAY_CELLS };
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // One set-up in memory at a time, so `peak_rss_mb` sees the run's
        // footprint and not two set-ups overlapping.
        drop(last.take());
        let t0 = Instant::now();
        let pipeline = train(TRAINING_SEED, cells);
        let inputs: Vec<Input> = (0..INPUTS)
            .map(|k| {
                let seed = seed.wrapping_mul(INPUTS).wrapping_add(k).wrapping_mul(2);
                let stream = if flood {
                    TelemetryStream::default()
                } else {
                    drain(StreamingScenario::new(benign_config(
                        seed, cells, REPLAY_UES,
                    )))
                };
                let buckets = bucketize(&stream);
                Input {
                    seed,
                    stream,
                    buckets,
                }
            })
            .collect();
        match workload {
            "detector_only" => drop(detector(&pipeline)),
            _ => drop(ScaleDeployment::new(&pipeline, cells)),
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        last = Some((pipeline, inputs));
    }
    let (pipeline, inputs) = last.expect("at least one set-up");
    Setup {
        workload: workload.to_string(),
        pipeline,
        inputs,
        setup_s,
    }
}

/// Runs every input once, untraced or with a fresh ledger per input.
pub fn round(setup: &Setup, traced: bool) -> Pass {
    let pass: fn(&Pipeline, &Input, Option<&Ledger>) -> Pass = match setup.workload.as_str() {
        "replay_benign" => replay_pass,
        "closed_loop_flood" => flood_pass,
        _ => detector_pass,
    };
    let mut round = Pass::default();
    for input in &setup.inputs {
        let ledger = traced.then(Ledger::default);
        round.absorb(pass(&setup.pipeline, input, ledger.as_ref()));
    }
    if let Some(t) = &round.totals {
        // The ledger must account for nearly all of the traced wall time.
        let coverage = t.covered_ms() / (round.wall_s * 1e3);
        round.checks.push((
            "ledger covers >= 0.9 of the traced wall".into(),
            coverage >= 0.9,
        ));
    }
    if setup.workload == "closed_loop_flood" {
        round.checks.push((
            format!("{FLOOD_CONTROL_BUCKETS}+ buckets per round shipped a Control Request"),
            round.control_bucket_ms.len() >= FLOOD_CONTROL_BUCKETS,
        ));
    }
    round
}

fn span<R>(ledger: Option<&Ledger>, layer: Layer, f: impl FnOnce() -> R) -> R {
    match ledger {
        Some(l) => l.time(layer, f),
        None => f(),
    }
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// FNV-1a 64: a digest that is stable across builds and toolchains.
fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Closes one bucket, timing the step and the whole loop iteration that
/// ends with it (`mark` is where the previous iteration ended).
fn step<D: Loop>(
    d: &mut D,
    now: Timestamp,
    pass: &mut Pass,
    mark: &mut Instant,
) -> Vec<ControlAction> {
    let t0 = Instant::now();
    let actions = d.step(now);
    let end = Instant::now();
    let step_ms = (end - t0).as_secs_f64() * 1e3;
    pass.bucket_ms.push(step_ms);
    pass.loop_ms.push((end - *mark).as_secs_f64() * 1e3);
    *mark = end;
    if !actions.is_empty() {
        pass.control_bucket_ms.push(step_ms);
    }
    actions
}

/// `replay_benign`: the pre-generated stream through the deployment.
fn replay_pass(pipeline: &Pipeline, input: &Input, ledger: Option<&Ledger>) -> Pass {
    match ledger {
        None => replay_on(ScaleDeployment::new(pipeline, REPLAY_CELLS), input, None),
        Some(l) => {
            let d = TracedDeployment::new(pipeline, REPLAY_CELLS, l.clone());
            replay_on(d, input, Some(l))
        }
    }
}

fn replay_on<D: Loop>(mut d: D, input: &Input, ledger: Option<&Ledger>) -> Pass {
    let mut pass = Pass::default();
    if let Some(l) = ledger {
        l.reset();
    }
    let t0 = Instant::now();
    let mut mark = t0;
    let mut bucket_end = Timestamp::ZERO + PERIOD;
    for record in &input.stream.records {
        while record.timestamp >= bucket_end {
            step(&mut d, bucket_end, &mut pass, &mut mark);
            bucket_end += PERIOD;
        }
        d.push_record(record.clone());
    }
    for _ in 0..4 {
        step(&mut d, bucket_end, &mut pass, &mut mark);
        bucket_end += PERIOD;
    }
    pass.wall_s = t0.elapsed().as_secs_f64();
    finish(&d, &mut pass, ledger);
    let consumed = pass.records == input.stream.records.len() as u64;
    pass.checks.push(("stream fully consumed".into(), consumed));
    pass
}

/// The flood's attackers: two SIMs tour every cell half a ring apart,
/// one cell per 100 ms bucket, over and over until the horizon. Each visit
/// opens 10 stalled connections 6 ms apart. Short, frequent visits keep
/// Control Requests flowing in most buckets at a moderate alert load.
fn flood_schedules() -> Vec<MigrationSchedule> {
    let dwell = Duration::from_millis(100);
    let visits = (FLOOD_HORIZON.as_micros() / dwell.as_micros()) as usize;
    (0..2)
        .map(|k| {
            let cells: Vec<usize> = (0..visits)
                .map(|v| (v + k * FLOOD_CELLS / 2) % FLOOD_CELLS)
                .collect();
            MigrationSchedule::tour(
                &cells,
                Timestamp::ZERO + Duration::from_millis(200),
                dwell,
                MigrateConfig {
                    attacker_msin: 999_100 + k as u64,
                    connections_per_visit: 10,
                    ..MigrateConfig::default()
                },
            )
        })
        .collect()
}

/// `closed_loop_flood`: live traffic, every bucket's Control Requests
/// enforced on the engine before the next bucket runs.
fn flood_pass(pipeline: &Pipeline, input: &Input, ledger: Option<&Ledger>) -> Pass {
    match ledger {
        None => flood_on(ScaleDeployment::new(pipeline, FLOOD_CELLS), input, None),
        Some(l) => {
            let d = TracedDeployment::new(pipeline, FLOOD_CELLS, l.clone());
            flood_on(d, input, Some(l))
        }
    }
}

fn flood_on<D: Loop>(mut d: D, input: &Input, ledger: Option<&Ledger>) -> Pass {
    // Arrivals never run out before the horizon.
    let mut engine = StreamingScenario::new(benign_config(input.seed, FLOOD_CELLS, 1_000_000));
    for schedule in flood_schedules() {
        schedule.install(&mut engine);
    }
    // Harden the BTS DoS response over A1: quarantine the flooded cell and,
    // through the ring topology, brace both neighbours. The 1 s TTL lets a
    // cell reopen before the attackers' next tour reaches it.
    d.a1_client()
        .update(PolicyRule {
            id: "bts-dos".into(),
            attack: AttackKind::BtsDos,
            min_confidence: 0.6,
            require_llm_confirmation: true,
            ttl: Duration::from_secs(1),
            templates: vec![ActionTemplate::QuarantineCell],
        })
        .expect("a1 update");
    d.step(Timestamp::ZERO);
    engine.attach_recorder(&d.obs().recorder);

    let mut pass = Pass::default();
    if let Some(l) = ledger {
        l.reset();
    }
    let t0 = Instant::now();
    let mut mark = t0;
    let horizon = Timestamp::ZERO + FLOOD_HORIZON;
    let mut bucket_end = Timestamp::ZERO + PERIOD;
    let mut cursor = 0u64;
    while bucket_end <= horizon {
        let events = span(ledger, Layer::RanStep, || engine.step(bucket_end));
        pass.events += events.len() as u64;
        let chunk = span(ledger, Layer::Extract, || {
            extract_from_events_at(&events, cursor)
        });
        cursor += chunk.records.len() as u64;
        for record in chunk.records {
            d.push_record(record);
        }
        for action in step(&mut d, bucket_end, &mut pass, &mut mark) {
            span(ledger, Layer::RanEnforce, || {
                engine.apply_control(bucket_end, &action)
            });
            pass.enforced += 1;
        }
        bucket_end += PERIOD;
    }
    pass.wall_s = t0.elapsed().as_secs_f64();
    finish(&d, &mut pass, ledger);
    let m = &pass.mitigation;
    let checks = [
        ("every extracted record pushed", pass.records == cursor),
        (
            "controls acked == controls sent",
            pass.controls_acked == pass.controls_sent,
        ),
        (
            "no control failed or unroutable",
            pass.controls_failed + pass.controls_unroutable == 0,
        ),
        (
            "no egress drops",
            pass.ric_egress_dropped + pass.agent_egress_dropped == 0,
        ),
        (
            "no action expired or exhausted",
            m.expired + m.exhausted == 0,
        ),
        ("a window was flagged", pass.flagged > 0),
        ("an action was enforced", pass.enforced > 0),
    ];
    pass.checks
        .extend(checks.iter().map(|(name, ok)| (name.to_string(), *ok)));
    pass
}

/// Reads the deployment's outputs and counters into `pass`.
fn finish<D: Loop>(d: &D, pass: &mut Pass, ledger: Option<&Ledger>) {
    let outcome = d.outcome();
    let platform = d.platform();
    let recorder = &d.obs().recorder;
    let metrics = &outcome.metrics;
    pass.records = outcome.records as u64;
    pass.detections = vec![fnv64(&d.detections_digest())];
    pass.incidents = vec![fnv64(&recorder.incidents_jsonl())];
    pass.flagged = outcome.flagged_windows as u64;
    pass.alerts = outcome.alerts as u64;
    pass.findings = outcome.findings as u64;
    pass.sdl_entries = platform.sdl().len("mobiflow") as u64;
    pass.deliveries = metrics.counter_total("xsec_ric_records_delivered_total");
    pass.pdus = metrics.counter_total("xsec_ric_pdus_total");
    pass.conns_scanned = metrics.counter_total("xsec_ric_pump_conns_scanned_total");
    pass.controls_sent = metrics.counter_total("xsec_ric_controls_sent_total");
    pass.controls_acked = platform.controls_acked();
    pass.controls_broadcast = platform.controls_broadcast();
    pass.controls_failed = platform.controls_failed();
    pass.controls_unroutable = platform.controls_unroutable();
    pass.ric_egress_dropped = platform.egress_dropped();
    pass.agent_egress_dropped = d.agent_egress_dropped();
    pass.incidents_kept = recorder.incidents().len() as u64;
    pass.incidents_dropped = recorder.dropped_incidents();
    pass.mitigation = outcome.mitigation;
    // Each record MobiWatch featurizes lands one sample in this histogram:
    // read as a count, never as a time.
    let featurized = metrics.histogram_count("xsec_mobiwatch_featurize_latency_us");
    pass.checks.push((
        "mobiwatch featurized every pushed record".into(),
        featurized == pass.records,
    ));
    if let Some(l) = ledger {
        let totals = l.totals();
        let handed = totals.watch_records == pass.records;
        pass.checks
            .push(("mobiwatch was handed every pushed record".into(), handed));
        pass.totals = Some(totals);
    }
}

fn detector(pipeline: &Pipeline) -> (ShardedMobiWatch, Arc<Mutex<MobiWatchState>>) {
    let config = pipeline.config();
    ShardedMobiWatch::new(
        pipeline.models().clone(),
        MobiWatchConfig {
            detector: config.detector,
            precision: config.precision,
            ..MobiWatchConfig::default()
        },
        config.scoring_shards,
    )
}

/// `detector_only`: the replay stream, in time order, straight into
/// `ShardedMobiWatch::process_batch`, one call per bucket.
fn detector_pass(pipeline: &Pipeline, input: &Input, ledger: Option<&Ledger>) -> Pass {
    let obs = Obs::new();
    let (mut pool, state) = detector(pipeline);
    pool.attach_obs(&obs);
    let records = &input.stream.records;
    let mut pass = Pass::default();
    let t0 = Instant::now();
    for range in &input.buckets {
        let b0 = Instant::now();
        span(ledger, Layer::MobiWatch, || {
            pool.process_batch(&records[range.clone()])
        });
        pass.bucket_ms.push(ms(b0));
        pass.loop_ms.push(ms(b0));
    }
    pass.wall_s = t0.elapsed().as_secs_f64();
    drop(pool);
    let state = state.lock();
    pass.records = records.len() as u64;
    pass.detections = vec![fnv64(&render_detections(&state.scores))];
    pass.incidents = vec![fnv64(&obs.recorder.incidents_jsonl())];
    pass.flagged = state.scores.iter().filter(|(_, _, f)| *f).count() as u64;
    pass.alerts = state.alerts.len() as u64;
    pass.incidents_kept = obs.recorder.incidents().len() as u64;
    pass.incidents_dropped = obs.recorder.dropped_incidents();
    let featurized = obs
        .snapshot()
        .histogram_count("xsec_mobiwatch_featurize_latency_us");
    pass.checks.push((
        "mobiwatch featurized every record".into(),
        featurized == pass.records,
    ));
    if let Some(l) = ledger {
        let mut totals = l.totals();
        totals.watch_records = pass.records;
        pass.totals = Some(totals);
    }
    pass
}
