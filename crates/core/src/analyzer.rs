//! The LLM analyzer xApp: expert referencing on flagged windows.
//!
//! Subscribes to the `anomalies` topic, turns each alert into the Figure 5
//! zero-shot prompt, queries the configured LLM backend, parses the answer,
//! and cross-compares it with the detector's decision. Contradictions land
//! in the human-supervision queue (§3.3).

use crate::mobiwatch::AnomalyAlert;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;
use xsec_llm::{cross_compare, CrossVerdict, LlmBackend, ParsedResponse, PromptTemplate};
use xsec_mobiflow::{decode_ue_record, UeMobiFlow};
use xsec_obs::{FlightEvent, FlightRecorder, Histogram, Obs, TraceStage};
use xsec_ric::{XApp, XAppContext};
use xsec_types::Timestamp;

/// One analyzed alert.
#[derive(Debug, Clone)]
pub struct AnalyzerFinding {
    /// Stream index of the alert's flagged window.
    pub at_record: u64,
    /// Detector score that triggered the alert.
    pub score: f32,
    /// The model's full completion text.
    pub response: String,
    /// The parsed verdict.
    pub parsed: ParsedResponse,
    /// Detector/model agreement.
    pub verdict: CrossVerdict,
}

/// Shared inspection state.
#[derive(Debug, Default)]
pub struct AnalyzerState {
    /// Every analyzed alert, in arrival order.
    pub findings: Vec<AnalyzerFinding>,
    /// Indices (into `findings`) queued for human supervision.
    pub human_review: Vec<usize>,
}

/// The expert-referencing xApp.
pub struct LlmAnalyzer {
    backend: Box<dyn LlmBackend>,
    template: PromptTemplate,
    topic: String,
    state: Arc<Mutex<AnalyzerState>>,
    turnaround: Histogram,
    recorder: FlightRecorder,
}

impl LlmAnalyzer {
    /// Creates the analyzer over a backend; returns the shared state handle.
    pub fn new(backend: Box<dyn LlmBackend>, topic: &str) -> (Self, Arc<Mutex<AnalyzerState>>) {
        let state = Arc::new(Mutex::new(AnalyzerState::default()));
        (
            LlmAnalyzer {
                backend,
                template: PromptTemplate::default(),
                topic: topic.to_string(),
                state: state.clone(),
                turnaround: Obs::new().histogram("xsec_analyzer_turnaround_us", &[]),
                recorder: FlightRecorder::new(),
            },
            state,
        )
    }

    /// Re-homes the turnaround histogram into `obs`'s registry and flight
    /// recording into `obs`'s recorder. Call before analysis starts —
    /// samples do not carry over.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.turnaround = obs.histogram("xsec_analyzer_turnaround_us", &[]);
        self.recorder = obs.recorder.clone();
    }

    /// The topic this analyzer listens on.
    pub fn topic(&self) -> &str {
        &self.topic
    }

    /// Analyzes one alert directly (also used by the Table 3 harness).
    pub fn analyze_alert(&mut self, alert: &AnomalyAlert) -> AnalyzerFinding {
        let start = Instant::now();
        let records: Vec<UeMobiFlow> =
            alert.records.iter().filter_map(|l| decode_ue_record(l).ok()).collect();
        let prompt = self.template.render(&records);
        let response = match self.backend.complete(&prompt) {
            Ok(text) => text,
            Err(e) => format!("Verdict: BENIGN\n(backend error: {e})"),
        };
        let parsed = ParsedResponse::parse(&response);
        let verdict = cross_compare(true, &parsed);
        self.turnaround.observe_duration_with_exemplar(start.elapsed(), alert.trace);
        self.recorder.record_stage(FlightEvent {
            trace: alert.trace,
            stage: TraceStage::Verdict,
            at_us: alert.at_time.as_micros(),
            a: u64::from(matches!(verdict, CrossVerdict::ConfirmedAnomalous)),
            b: u64::from(matches!(verdict, CrossVerdict::NeedsHumanReview { .. })),
        });
        let finding = AnalyzerFinding {
            at_record: alert.at_record,
            score: alert.score,
            response,
            parsed,
            verdict,
        };
        let mut state = self.state.lock();
        if matches!(finding.verdict, CrossVerdict::NeedsHumanReview { .. }) {
            let idx = state.findings.len();
            state.human_review.push(idx);
        }
        state.findings.push(finding.clone());
        finding
    }
}

impl XApp for LlmAnalyzer {
    fn name(&self) -> &str {
        "llm-analyzer"
    }

    fn on_records(
        &mut self,
        _ctx: &mut XAppContext<'_>,
        _records: &[UeMobiFlow],
        _window_end: Timestamp,
    ) {
        // The analyzer consumes alerts, not raw telemetry.
    }

    fn on_message(&mut self, ctx: &mut XAppContext<'_>, topic: &str, payload: &[u8]) {
        if topic != self.topic {
            return;
        }
        let Ok(alert) = serde_json::from_slice::<AnomalyAlert>(payload) else {
            return;
        };
        let finding = self.analyze_alert(&alert);
        // Downstream consumers (the mitigator) get the conclusion, not the
        // raw completion text: verdict, named attacks, and the evidence
        // records needed to scope a response.
        let notice = crate::mitigator::FindingNotice {
            trace: alert.trace,
            at_record: alert.at_record,
            at_time: alert.at_time,
            score: alert.score,
            threshold: alert.threshold,
            anomalous: finding.parsed.anomalous,
            confirmed: matches!(finding.verdict, CrossVerdict::ConfirmedAnomalous),
            needs_human: matches!(finding.verdict, CrossVerdict::NeedsHumanReview { .. }),
            attacks: finding.parsed.attacks.clone(),
            records: alert.records,
        };
        if let Ok(json) = serde_json::to_vec(&notice) {
            ctx.publish(crate::mitigator::FINDINGS_TOPIC, &json);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsec_llm::{ModelPersonality, SimulatedExpert};
    use xsec_proto::MessageKind;
    use xsec_types::{CellId, Rnti};

    fn flood_alert() -> AnomalyAlert {
        use MessageKind as K;
        let mut lines = Vec::new();
        let mut id = 0u64;
        for conn in 1..=6u32 {
            for k in [
                K::RrcSetupRequest,
                K::RrcSetup,
                K::RrcSetupComplete,
                K::NasRegistrationRequest,
                K::NasAuthenticationRequest,
            ] {
                let r = UeMobiFlow {
                    msg_id: id,
                    timestamp: Timestamp(id * 500),
                    cell: CellId(1),
                    rnti: Rnti(0x4600 + conn as u16),
                    du_ue_id: conn,
                    direction: k.direction(),
                    msg: k,
                    tmsi: None,
                    supi: None,
                    cipher_alg: None,
                    integrity_alg: None,
                    establishment_cause: None,
                    release_cause: None,
                };
                lines.push(xsec_mobiflow::encode_ue_record(&r));
                id += 1;
            }
        }
        AnomalyAlert {
            trace: 0,
            at_record: id,
            at_time: Timestamp(id * 500),
            score: 0.5,
            threshold: 0.1,
            records: lines,
        }
    }

    #[test]
    fn flood_alert_is_confirmed_by_gpt4o() {
        let (mut analyzer, state) = LlmAnalyzer::new(
            Box::new(SimulatedExpert::new(ModelPersonality::CHATGPT_4O)),
            "anomalies",
        );
        let obs = Obs::new();
        analyzer.attach_obs(&obs);
        let finding = analyzer.analyze_alert(&flood_alert());
        assert!(finding.parsed.anomalous);
        assert_eq!(finding.verdict, CrossVerdict::ConfirmedAnomalous);
        assert!(finding.response.contains("Signaling storm"));
        assert!(state.lock().human_review.is_empty());
        assert_eq!(
            obs.snapshot().histogram_count("xsec_analyzer_turnaround_us"),
            1,
            "turnaround must be sampled once per alert"
        );
    }

    #[test]
    fn blind_model_disagreement_goes_to_human_review() {
        // Llama3 is flood-blind: the detector flagged, the model says
        // benign → human supervision.
        let (mut analyzer, state) = LlmAnalyzer::new(
            Box::new(SimulatedExpert::new(ModelPersonality::LLAMA3)),
            "anomalies",
        );
        let finding = analyzer.analyze_alert(&flood_alert());
        assert!(!finding.parsed.anomalous);
        assert!(matches!(finding.verdict, CrossVerdict::NeedsHumanReview { .. }));
        assert_eq!(state.lock().human_review, vec![0]);
    }

    #[test]
    fn malformed_topic_payloads_are_ignored() {
        let (mut analyzer, state) = LlmAnalyzer::new(
            Box::new(SimulatedExpert::new(ModelPersonality::ORACLE)),
            "anomalies",
        );
        let sdl = xsec_ric::SharedDataLayer::new();
        let router = xsec_ric::Router::new();
        let mut control = Vec::new();
        let mut ctx = xsec_ric::XAppContext {
            sdl: &sdl,
            router: &router,
            control_out: &mut control,
            scope: None,
        };
        analyzer.on_message(&mut ctx, "anomalies", b"not json");
        analyzer.on_message(&mut ctx, "other-topic", b"{}");
        assert!(state.lock().findings.is_empty());
    }
}
