//! The closed loop the workloads run, in its untraced and traced forms.
//!
//! The untraced form is the program's own `ScaleDeployment`. The traced
//! form wires the same public constructors `ScaleDeployment` wires (secured
//! router, the same grants, ring-1 neighbours, the same E2 handshake) with
//! the ledger's decorators around every transport and xApp, and closes
//! each report bucket with the same call sequence. Both must produce
//! byte-identical detection and incident digests, which is checked on
//! every traced run.

use crate::ledger::{Layer, Ledger, TimedTransport, TimedXApp};
use parking_lot::Mutex;
use sixg_xsec::analyzer::{AnalyzerState, LlmAnalyzer};
use sixg_xsec::mitigator::{
    Mitigator, MitigatorState, A1_POLICY_STATUS_TOPIC, A1_POLICY_TOPIC, CONTROL_ACKS_TOPIC,
    FINDINGS_TOPIC,
};
use sixg_xsec::mobiwatch::{MobiWatchConfig, MobiWatchState};
use sixg_xsec::pipeline::Pipeline;
use sixg_xsec::scale::{ScaleDeployment, ScaleOutcome};
use sixg_xsec::shard::ShardedMobiWatch;
use sixg_xsec::smo::A1PolicyClient;
use std::sync::Arc;
use xsec_control::{ControlAction, PolicyEngine};
use xsec_e2::{in_proc_pair, InProcTransport, RicAgent, RicAgentConfig};
use xsec_llm::SimulatedExpert;
use xsec_mobiflow::UeMobiFlow;
use xsec_obs::Obs;
use xsec_ric::{Grants, RicPlatform, RouterHandle, SubscriptionSpec, XAppIdentity};
use xsec_types::{CellId, GnbId, Timestamp};

/// What a workload loop needs from a deployment.
pub trait Loop {
    fn push_record(&mut self, record: UeMobiFlow);
    fn step(&mut self, now: Timestamp) -> Vec<ControlAction>;
    fn obs(&self) -> &Obs;
    fn platform(&self) -> &RicPlatform;
    fn agent_egress_dropped(&self) -> u64;
    fn a1_client(&self) -> A1PolicyClient;
    fn outcome(&self) -> ScaleOutcome;
    fn detections_digest(&self) -> String;
}

impl Loop for ScaleDeployment {
    fn push_record(&mut self, record: UeMobiFlow) {
        ScaleDeployment::push_record(self, record);
    }
    fn step(&mut self, now: Timestamp) -> Vec<ControlAction> {
        ScaleDeployment::step(self, now)
    }
    fn obs(&self) -> &Obs {
        ScaleDeployment::obs(self)
    }
    fn platform(&self) -> &RicPlatform {
        ScaleDeployment::platform(self)
    }
    fn agent_egress_dropped(&self) -> u64 {
        ScaleDeployment::agent_egress_dropped(self)
    }
    fn a1_client(&self) -> A1PolicyClient {
        ScaleDeployment::a1_client(self)
    }
    fn outcome(&self) -> ScaleOutcome {
        ScaleDeployment::outcome(self)
    }
    fn detections_digest(&self) -> String {
        ScaleDeployment::detections_digest(self)
    }
}

/// `(record index, score, flagged)` rows rendered as `ScaleDeployment`
/// renders its detections digest.
pub fn render_detections(scores: &[(u64, f32, bool)]) -> String {
    let mut out = String::new();
    for (index, score, flagged) in scores {
        out.push_str(&format!(
            "{}:{:08x}:{}\n",
            index,
            score.to_bits(),
            u8::from(*flagged)
        ));
    }
    out
}

/// The instrumented deployment.
pub struct TracedDeployment {
    obs: Obs,
    agents: Vec<RicAgent<TimedTransport<InProcTransport>>>,
    platform: RicPlatform,
    watch_state: Arc<Mutex<MobiWatchState>>,
    analyzer_state: Arc<Mutex<AnalyzerState>>,
    mitigator_state: Arc<Mutex<MitigatorState>>,
    smo: RouterHandle,
    bucket: Vec<UeMobiFlow>,
    records: usize,
    ledger: Ledger,
}

impl TracedDeployment {
    /// Deploys `agents` agents with ring-1 neighbours, secured, timed into
    /// `ledger`.
    pub fn new(pipeline: &Pipeline, agents: usize, ledger: Ledger) -> Self {
        let config = pipeline.config();
        let obs = Obs::from_env();
        let mut platform = RicPlatform::with_obs(obs.clone());
        let mut ric_agents = Vec::with_capacity(agents);
        for i in 0..agents {
            let (agent_end, ric_end) = in_proc_pair();
            let mut agent = RicAgent::new(
                RicAgentConfig {
                    gnb_id: GnbId(i as u32 + 1),
                    cell: CellId(i as u32 + 1),
                },
                TimedTransport::new(agent_end, ledger.clone(), Layer::AgentTransport),
            )
            .expect("agent starts");
            agent.attach_obs(&obs);
            platform.add_agent(Box::new(TimedTransport::new(
                ric_end,
                ledger.clone(),
                Layer::RicTransport,
            )));
            ric_agents.push(agent);
        }
        if agents > 1 {
            for i in 0..agents {
                let mut neighbours = vec![
                    CellId(((i + 1) % agents) as u32 + 1),
                    CellId(((i + agents - 1) % agents) as u32 + 1),
                ];
                neighbours.dedup();
                platform.set_neighbours(CellId(i as u32 + 1), neighbours);
            }
        }

        let watch_config = MobiWatchConfig {
            detector: config.detector,
            precision: config.precision,
            ..MobiWatchConfig::default()
        };
        let (mut watch, watch_state) = ShardedMobiWatch::new(
            pipeline.models().clone(),
            watch_config,
            config.scoring_shards,
        );
        watch.attach_obs(&obs);
        let (mut analyzer, analyzer_state) = LlmAnalyzer::new(
            Box::new(SimulatedExpert::new(config.personality)),
            "anomalies",
        );
        analyzer.attach_obs(&obs);
        let (mitigator, mitigator_state) =
            Mitigator::with_obs(PolicyEngine::default(), obs.clone());
        let timed = |app, records, messages| {
            Box::new(TimedXApp::new(app, ledger.clone(), records, messages))
        };

        platform.harden();
        platform
            .register_xapp_scoped(
                timed(Box::new(watch), Layer::MobiWatch, Layer::MobiWatch),
                SubscriptionSpec::telemetry(config.report_period_ms),
                Grants::none().publish("anomalies"),
            )
            .expect("register mobiwatch");
        platform
            .register_xapp_scoped(
                timed(Box::new(analyzer), Layer::Analyzer, Layer::Analyzer),
                SubscriptionSpec::topics_only(&["anomalies"]),
                Grants::none()
                    .subscribe("anomalies")
                    .publish(FINDINGS_TOPIC),
            )
            .expect("register analyzer");
        platform
            .register_xapp_scoped(
                timed(
                    Box::new(mitigator),
                    Layer::MitigatorClock,
                    Layer::MitigatorFindings,
                ),
                SubscriptionSpec::telemetry(config.report_period_ms)
                    .with_topic(FINDINGS_TOPIC)
                    .with_topic(CONTROL_ACKS_TOPIC)
                    .with_topic(A1_POLICY_TOPIC),
                Grants::none()
                    .subscribe(FINDINGS_TOPIC)
                    .subscribe(CONTROL_ACKS_TOPIC)
                    .subscribe(A1_POLICY_TOPIC)
                    .publish(A1_POLICY_STATUS_TOPIC)
                    .control("release-ue")
                    .control("blacklist-rnti")
                    .control("force-reauth")
                    .control("quarantine-cell")
                    .control("rate-limit-cause"),
            )
            .expect("register mitigator");
        let smo = platform
            .register_identity(
                XAppIdentity::named("smo"),
                Grants::none()
                    .publish(A1_POLICY_TOPIC)
                    .subscribe(A1_POLICY_STATUS_TOPIC)
                    .a1_all(),
            )
            .expect("register smo");
        platform.seal();

        let mut d = TracedDeployment {
            obs,
            agents: ric_agents,
            platform,
            watch_state,
            analyzer_state,
            mitigator_state,
            smo,
            bucket: Vec::new(),
            records: 0,
            ledger,
        };
        for _ in 0..3 {
            d.platform.pump().expect("pump");
            for agent in &mut d.agents {
                agent.poll(Timestamp::ZERO).expect("agent poll");
            }
        }
        assert!(
            d.agents.iter().all(|a| a.is_setup()),
            "handshake incomplete"
        );
        d
    }

    fn pump(&mut self) {
        let platform = &mut self.platform;
        self.ledger
            .time(Layer::Pump, || platform.pump())
            .expect("pump");
    }

    fn poll_agents(&mut self, now: Timestamp) {
        for agent in &mut self.agents {
            self.ledger
                .time(Layer::Agent, || agent.poll(now))
                .expect("agent poll");
        }
    }
}

impl Loop for TracedDeployment {
    fn push_record(&mut self, record: UeMobiFlow) {
        self.bucket.push(record);
    }

    /// `ScaleDeployment::step`, call for call.
    fn step(&mut self, now: Timestamp) -> Vec<ControlAction> {
        self.bucket.sort_by_key(|r| r.cell.0);
        self.records += self.bucket.len();
        let (agents, bucket) = (&mut self.agents, &mut self.bucket);
        self.ledger.time(Layer::Agent, || {
            let n = agents.len();
            for record in bucket.drain(..) {
                let ai = if n <= 1 {
                    0
                } else {
                    (record.cell.0.saturating_sub(1) as usize) % n
                };
                agents[ai].push_record(record);
            }
        });
        self.poll_agents(now);
        self.pump();
        self.pump();
        let mut actions = Vec::new();
        for ai in 0..self.agents.len() {
            let agent = &mut self.agents[ai];
            self.ledger
                .time(Layer::Agent, || agent.poll(now))
                .expect("agent poll");
            for payload in agent.take_control_requests() {
                if let Ok(action) = ControlAction::decode(&payload) {
                    actions.push(action);
                }
            }
        }
        self.pump();
        actions
    }

    fn obs(&self) -> &Obs {
        &self.obs
    }
    fn platform(&self) -> &RicPlatform {
        &self.platform
    }
    fn agent_egress_dropped(&self) -> u64 {
        self.agents.iter().map(|a| a.egress_dropped()).sum()
    }
    fn a1_client(&self) -> A1PolicyClient {
        A1PolicyClient::scoped(self.smo.clone())
    }
    fn outcome(&self) -> ScaleOutcome {
        let watch = self.watch_state.lock();
        ScaleOutcome {
            records: self.records,
            flagged_windows: watch.scores.iter().filter(|(_, _, f)| *f).count(),
            alerts: watch.alerts.len(),
            findings: self.analyzer_state.lock().findings.len(),
            mitigation: self.mitigator_state.lock().summary(),
            metrics: self.obs.snapshot(),
        }
    }
    fn detections_digest(&self) -> String {
        render_detections(&self.watch_state.lock().scores)
    }
}
