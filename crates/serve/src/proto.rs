//! Wire protocol message model.
//!
//! Transport framing (4-byte big-endian length + UTF-8 JSON) lives in
//! [`gncg_json::frame`]; this module defines *what* travels in the
//! frames and how it executes server-side. Grammar (see DESIGN.md §2h):
//!
//! ```text
//! request  := hello | submit | cancel | ping
//! hello    := {"kind":"hello","client":ID}
//! submit   := {"kind":"submit","req":N,"idem":KEY,"spec":jobspec}
//! cancel   := {"kind":"cancel","req":N}
//! ping     := {"kind":"ping","seq":N}
//!
//! jobspec  := certify | dynamics | sweep
//! certify  := {"op":"certify","points":P,"network":G,"alpha":A,
//!              "exact":B,"model":"sum"|"maxdist","budget_ms":N|null}
//! dynamics := {"op":"dynamics","points":P,"alpha":A,"rule":"best"|"single",
//!              "steps":N,"model":M,"formation":"unilateral"|"bilateral",
//!              "start":G|null,"budget_ms":N|null}
//! sweep    := {"op":"sweep","spec":SPEC,"budget_ms":N|null}
//!             SPEC is the declarative sweep grammar of
//!             `gncg_sweep::spec` (sent in canonical form)
//!
//! response := hello_ok | event | result | error | pong | draining
//! hello_ok := {"kind":"hello_ok","server":S,"quota":N}
//! event    := {"kind":"event","req":N,"event":"accepted"|"started"}
//! result   := {"kind":"result","req":N,"ok":V}
//!           | {"kind":"result","req":N,"err":"cancelled"}
//!           | {"kind":"result","req":N,"err":"panicked","message":S}
//! error    := {"kind":"error","req":N|null,"code":C,"message":S}
//!              C ∈ quota | queue_full | draining | bad_request | protocol
//! pong     := {"kind":"pong","seq":N}
//! draining := {"kind":"draining"}
//! ```
//!
//! A `result.ok` payload is the solver's own JSON (e.g.
//! [`gncg_game::certify::CertifyReport::to_json`], which its
//! `FromJson` parses back); because the printer emits finite floats
//! in shortest-roundtrip form, decoding reproduces every float
//! bit-for-bit.

use gncg_config::ModelKind;
use gncg_game::{dynamics, EdgeFormation, GameSpec, OwnedNetwork, SolverConfig};
use gncg_geometry::PointSet;
use gncg_json::{field, object, FromJson, JsonError, ToJson, Value};
use gncg_parallel::Budget;
use gncg_service::cache::ResultCache;
use gncg_service::JobKind;
use gncg_sweep::spec::SweepSpec;
use std::sync::Arc;

/// Frame-size cap in bytes (16 MiB), one constant for both ends: the
/// server's reader and writer and the client's encoder. A length
/// prefix above it is a typed protocol error that closes the
/// connection (the stream cannot be resynchronized).
pub const MAX_FRAME: usize = 16 << 20;

// ---------------------------------------------------------------------------
// job specs

/// A remotely-submitted job: everything the server needs to run it.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// A (β, γ) certification of one profile.
    Certify {
        points: PointSet,
        network: OwnedNetwork,
        alpha: f64,
        exact: bool,
        model: ModelKind,
        /// Per-job budget override in milliseconds (`Some(0)` is a
        /// deliberately pre-exhausted budget — the remote analogue of a
        /// cancelled submission, used to exercise the exit-75 path).
        budget_ms: Option<u64>,
    },
    /// A response-dynamics run under a full [`GameSpec`].
    Dynamics {
        points: PointSet,
        alpha: f64,
        rule: dynamics::ResponseRule,
        steps: usize,
        spec: GameSpec,
        /// Starting profile; `None` means the center star at agent 0
        /// (the CLI's historical default).
        start: Option<OwnedNetwork>,
        budget_ms: Option<u64>,
    },
    /// A whole declarative sweep, executed through the server's
    /// content-addressed result cache (`GNCG_CACHE_DIR`). The spec
    /// travels in canonical form; `budget_ms` bounds the *run* (the
    /// engine checkpoints and returns its partial report on
    /// exhaustion — [`JobKind::Sweep`] wiring, not a cancellation).
    Sweep {
        // boxed: a parsed spec (six expanded axes) would otherwise
        // dominate the size of every JobSpec/Request on the wire path
        spec: Box<SweepSpec>,
        budget_ms: Option<u64>,
    },
}

/// The string at `key` of `value`.
fn str_field<'a>(value: &'a Value, key: &str) -> Result<&'a str, JsonError> {
    let v = field(value, key)?;
    v.as_str()
        .ok_or_else(|| JsonError::new(format!("{key} must be a string")))
}

fn model_from_str(s: &str) -> Result<ModelKind, JsonError> {
    ModelKind::from_name(s).ok_or_else(|| JsonError::new(format!("bad model: {s:?}")))
}

impl JobSpec {
    /// The service-lane kind this spec runs as; budget wiring follows
    /// [`JobKind::budget_wiring`].
    pub fn kind(&self) -> JobKind {
        match self {
            JobSpec::Certify { .. } => JobKind::Certify,
            JobSpec::Dynamics { .. } => JobKind::Dynamics,
            JobSpec::Sweep { .. } => JobKind::Sweep,
        }
    }

    /// The per-job budget override, if any.
    pub fn budget_ms(&self) -> Option<u64> {
        match self {
            JobSpec::Certify { budget_ms, .. }
            | JobSpec::Dynamics { budget_ms, .. }
            | JobSpec::Sweep { budget_ms, .. } => *budget_ms,
        }
    }

    /// Run the job on the current thread and return its result payload.
    /// Called from inside the session's job envelope, so panics and
    /// budget exhaustion resolve exactly like local submissions; solver
    /// budgets are threaded into the options (certify), dynamics runs
    /// under the ambient budget installed by the envelope.
    pub fn execute(self, budget: &Budget) -> Value {
        match self {
            JobSpec::Certify {
                points,
                network,
                alpha,
                exact,
                model,
                ..
            } => {
                let cfg = if exact {
                    SolverConfig::exact()
                } else {
                    SolverConfig::default()
                }
                .with_model(model)
                .with_budget(budget);
                gncg_game::certify::certify(&points, &network, alpha, &cfg).to_json()
            }
            JobSpec::Dynamics {
                points,
                alpha,
                rule,
                steps,
                spec,
                start,
                ..
            } => {
                let start =
                    start.unwrap_or_else(|| OwnedNetwork::center_star(points.len().max(1), 0));
                let outcome = dynamics::run_spec(
                    &points,
                    &start,
                    alpha,
                    rule,
                    dynamics::AgentOrder::RoundRobin,
                    steps,
                    &SolverConfig::from(spec),
                );
                dynamics_outcome_to_json(&outcome)
            }
            JobSpec::Sweep { spec, .. } => {
                // Inline engine (`session: None`): this body is already
                // a session job, and nested submits would deadlock a
                // one-worker pool. The cache is the server's own
                // (`GNCG_CACHE_DIR`), so concurrent sweeps and repeat
                // submissions dedupe against each other.
                let cache = ResultCache::from_env().map(Arc::new);
                let outcome = gncg_sweep::engine::run_spec(&spec, cache, None, budget, None);
                object(vec![
                    ("sweep", spec.id.to_json()),
                    ("interrupted", outcome.interrupted.to_json()),
                    ("units_total", outcome.units_total.to_json()),
                    ("units_done", outcome.units_done.to_json()),
                    ("report", outcome.report.to_json()),
                ])
            }
        }
    }
}

impl ToJson for JobSpec {
    fn to_json(&self) -> Value {
        match self {
            JobSpec::Certify {
                points,
                network,
                alpha,
                exact,
                model,
                budget_ms,
            } => object(vec![
                ("op", "certify".to_json()),
                ("points", points.to_json()),
                ("network", network.to_json()),
                ("alpha", alpha.to_json()),
                ("exact", exact.to_json()),
                ("model", model.as_str().to_json()),
                ("budget_ms", budget_ms.to_json()),
            ]),
            JobSpec::Dynamics {
                points,
                alpha,
                rule,
                steps,
                spec,
                start,
                budget_ms,
            } => object(vec![
                ("op", "dynamics".to_json()),
                ("points", points.to_json()),
                ("alpha", alpha.to_json()),
                (
                    "rule",
                    match rule {
                        dynamics::ResponseRule::BestResponse => "best",
                        dynamics::ResponseRule::BestSingleMove => "single",
                    }
                    .to_json(),
                ),
                ("steps", steps.to_json()),
                ("model", spec.model.as_str().to_json()),
                (
                    "formation",
                    match spec.formation {
                        EdgeFormation::Unilateral => "unilateral",
                        EdgeFormation::Bilateral => "bilateral",
                    }
                    .to_json(),
                ),
                ("start", start.to_json()),
                ("budget_ms", budget_ms.to_json()),
            ]),
            JobSpec::Sweep { spec, budget_ms } => object(vec![
                ("op", "sweep".to_json()),
                ("spec", spec.canonical_value()),
                ("budget_ms", budget_ms.to_json()),
            ]),
        }
    }
}

impl FromJson for JobSpec {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        match field(value, "op")?.as_str() {
            Some("certify") => Ok(JobSpec::Certify {
                points: PointSet::from_json(field(value, "points")?)?,
                network: OwnedNetwork::from_json(field(value, "network")?)?,
                alpha: f64::from_json(field(value, "alpha")?)?,
                exact: bool::from_json(field(value, "exact")?)?,
                model: model_from_str(str_field(value, "model")?)?,
                budget_ms: Option::<u64>::from_json(field(value, "budget_ms")?)?,
            }),
            Some("dynamics") => Ok(JobSpec::Dynamics {
                points: PointSet::from_json(field(value, "points")?)?,
                alpha: f64::from_json(field(value, "alpha")?)?,
                rule: match field(value, "rule")?.as_str() {
                    Some("best") => dynamics::ResponseRule::BestResponse,
                    Some("single") => dynamics::ResponseRule::BestSingleMove,
                    other => return Err(JsonError::new(format!("bad rule: {other:?}"))),
                },
                steps: usize::from_json(field(value, "steps")?)?,
                spec: GameSpec {
                    model: model_from_str(str_field(value, "model")?)?,
                    formation: match field(value, "formation")?.as_str() {
                        Some("unilateral") => EdgeFormation::Unilateral,
                        Some("bilateral") => EdgeFormation::Bilateral,
                        other => return Err(JsonError::new(format!("bad formation: {other:?}"))),
                    },
                },
                start: Option::<OwnedNetwork>::from_json(field(value, "start")?)?,
                budget_ms: Option::<u64>::from_json(field(value, "budget_ms")?)?,
            }),
            Some("sweep") => Ok(JobSpec::Sweep {
                spec: Box::new(
                    SweepSpec::from_value(field(value, "spec")?)
                        .map_err(|e| JsonError::new(e.to_string()))?,
                ),
                budget_ms: Option::<u64>::from_json(field(value, "budget_ms")?)?,
            }),
            other => Err(JsonError::new(format!("unknown op: {other:?}"))),
        }
    }
}

/// Serialize a dynamics outcome for the wire.
pub fn dynamics_outcome_to_json(o: &dynamics::Outcome) -> Value {
    match o {
        dynamics::Outcome::Converged { state, steps } => object(vec![
            ("outcome", "converged".to_json()),
            ("steps", steps.to_json()),
            ("state", state.to_json()),
        ]),
        dynamics::Outcome::Cycle {
            history,
            cycle_start,
        } => object(vec![
            ("outcome", "cycle".to_json()),
            ("cycle_start", cycle_start.to_json()),
            ("history", history.to_json()),
        ]),
        dynamics::Outcome::Exhausted { state, steps } => object(vec![
            ("outcome", "exhausted".to_json()),
            ("steps", steps.to_json()),
            ("state", state.to_json()),
        ]),
    }
}

// ---------------------------------------------------------------------------
// requests

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Identify the client (first frame on every connection).
    Hello { client: String },
    /// Submit a job under a connection-scoped request id and a
    /// client-scoped idempotency key.
    Submit {
        req: u64,
        idem: String,
        spec: JobSpec,
    },
    /// Cancel the job submitted under `req` on this connection.
    Cancel { req: u64 },
    /// Liveness probe.
    Ping { seq: u64 },
}

impl ToJson for Request {
    fn to_json(&self) -> Value {
        match self {
            Request::Hello { client } => object(vec![
                ("kind", "hello".to_json()),
                ("client", client.to_json()),
            ]),
            Request::Submit { req, idem, spec } => object(vec![
                ("kind", "submit".to_json()),
                ("req", req.to_json()),
                ("idem", idem.to_json()),
                ("spec", spec.to_json()),
            ]),
            Request::Cancel { req } => {
                object(vec![("kind", "cancel".to_json()), ("req", req.to_json())])
            }
            Request::Ping { seq } => {
                object(vec![("kind", "ping".to_json()), ("seq", seq.to_json())])
            }
        }
    }
}

impl FromJson for Request {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        match field(value, "kind")?.as_str() {
            Some("hello") => Ok(Request::Hello {
                client: String::from_json(field(value, "client")?)?,
            }),
            Some("submit") => Ok(Request::Submit {
                req: u64::from_json(field(value, "req")?)?,
                idem: String::from_json(field(value, "idem")?)?,
                spec: JobSpec::from_json(field(value, "spec")?)?,
            }),
            Some("cancel") => Ok(Request::Cancel {
                req: u64::from_json(field(value, "req")?)?,
            }),
            Some("ping") => Ok(Request::Ping {
                seq: u64::from_json(field(value, "seq")?)?,
            }),
            other => Err(JsonError::new(format!("unknown request kind: {other:?}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// responses

/// Progress events streamed while a job is pending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The submission was admitted (or attached to an in-flight
    /// idempotency key).
    Accepted,
    /// A worker started executing the job.
    Started,
}

impl EventKind {
    fn as_str(self) -> &'static str {
        match self {
            EventKind::Accepted => "accepted",
            EventKind::Started => "started",
        }
    }
}

/// Why a job resolved without a payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteError {
    /// The job's budget was exhausted or cancelled; the client maps
    /// this to the shared interrupted exit code
    /// ([`gncg_config::INTERRUPTED_EXIT`]) and may resubmit.
    Cancelled,
    /// The job body panicked server-side (isolated to that job).
    Panicked(String),
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Cancelled => write!(f, "job cancelled"),
            RemoteError::Panicked(m) => write!(f, "job panicked: {m}"),
        }
    }
}

/// Typed rejection/protocol errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The client's per-client outstanding-jobs quota is exhausted.
    Quota,
    /// The session lane is full (backpressure); retry later.
    QueueFull,
    /// The server is draining and admits no new jobs.
    Draining,
    /// The request was structurally valid JSON but semantically bad.
    BadRequest,
    /// The frame's payload was not a valid request (bad UTF-8 / JSON /
    /// unknown kind).
    Protocol,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Quota => "quota",
            ErrorCode::QueueFull => "queue_full",
            ErrorCode::Draining => "draining",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Protocol => "protocol",
        }
    }

    fn from_str(s: &str) -> Result<Self, JsonError> {
        use ErrorCode::*;
        [Quota, QueueFull, Draining, BadRequest, Protocol]
            .into_iter()
            .find(|code| code.as_str() == s)
            .ok_or_else(|| JsonError::new(format!("unknown error code: {s:?}")))
    }
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake acknowledgement.
    HelloOk { server: String, quota: usize },
    /// Progress event for a pending request.
    Event { req: u64, event: EventKind },
    /// Terminal resolution of a request.
    Result {
        req: u64,
        outcome: Result<Value, RemoteError>,
    },
    /// Typed rejection (submission-scoped when `req` is set).
    Error {
        req: Option<u64>,
        code: ErrorCode,
        message: String,
    },
    /// Liveness reply.
    Pong { seq: u64 },
    /// Broadcast: the server has begun draining; no new submissions
    /// will be admitted (in-flight results still arrive).
    Draining,
}

impl ToJson for Response {
    fn to_json(&self) -> Value {
        match self {
            Response::HelloOk { server, quota } => object(vec![
                ("kind", "hello_ok".to_json()),
                ("server", server.to_json()),
                ("quota", quota.to_json()),
            ]),
            Response::Event { req, event } => object(vec![
                ("kind", "event".to_json()),
                ("req", req.to_json()),
                ("event", event.as_str().to_json()),
            ]),
            Response::Result { req, outcome } => {
                let mut fields = vec![("kind", "result".to_json()), ("req", req.to_json())];
                match outcome {
                    Ok(payload) => fields.push(("ok", payload.clone())),
                    Err(RemoteError::Cancelled) => fields.push(("err", "cancelled".to_json())),
                    Err(RemoteError::Panicked(m)) => {
                        fields.push(("err", "panicked".to_json()));
                        fields.push(("message", m.to_json()));
                    }
                }
                object(fields)
            }
            Response::Error { req, code, message } => object(vec![
                ("kind", "error".to_json()),
                ("req", req.to_json()),
                ("code", code.as_str().to_json()),
                ("message", message.to_json()),
            ]),
            Response::Pong { seq } => {
                object(vec![("kind", "pong".to_json()), ("seq", seq.to_json())])
            }
            Response::Draining => object(vec![("kind", "draining".to_json())]),
        }
    }
}

impl FromJson for Response {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        match field(value, "kind")?.as_str() {
            Some("hello_ok") => Ok(Response::HelloOk {
                server: String::from_json(field(value, "server")?)?,
                quota: usize::from_json(field(value, "quota")?)?,
            }),
            Some("event") => Ok(Response::Event {
                req: u64::from_json(field(value, "req")?)?,
                event: match field(value, "event")?.as_str() {
                    Some("accepted") => EventKind::Accepted,
                    Some("started") => EventKind::Started,
                    other => return Err(JsonError::new(format!("bad event: {other:?}"))),
                },
            }),
            Some("result") => {
                let req = u64::from_json(field(value, "req")?)?;
                let outcome = if let Some(ok) = value.get("ok") {
                    Ok(ok.clone())
                } else {
                    match field(value, "err")?.as_str() {
                        Some("cancelled") => Err(RemoteError::Cancelled),
                        Some("panicked") => Err(RemoteError::Panicked(
                            value
                                .get("message")
                                .and_then(|m| m.as_str())
                                .unwrap_or("<no message>")
                                .to_string(),
                        )),
                        other => return Err(JsonError::new(format!("bad err: {other:?}"))),
                    }
                };
                Ok(Response::Result { req, outcome })
            }
            Some("error") => Ok(Response::Error {
                req: Option::<u64>::from_json(field(value, "req")?)?,
                code: ErrorCode::from_str(str_field(value, "code")?)?,
                message: String::from_json(field(value, "message")?)?,
            }),
            Some("pong") => Ok(Response::Pong {
                seq: u64::from_json(field(value, "seq")?)?,
            }),
            Some("draining") => Ok(Response::Draining),
            other => Err(JsonError::new(format!("unknown response kind: {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gncg_game::certify::CertifyReport;
    use gncg_geometry::generators;

    fn round_trip_request(r: &Request) {
        let v = r.to_json();
        let text = gncg_json::to_string(&v);
        let back = Request::from_json(&gncg_json::parse(&text).unwrap()).unwrap();
        assert_eq!(&back, r);
    }

    fn round_trip_response(r: &Response) {
        let v = r.to_json();
        let text = gncg_json::to_string(&v);
        let back = Response::from_json(&gncg_json::parse(&text).unwrap()).unwrap();
        assert_eq!(&back, r);
    }

    #[test]
    fn requests_round_trip() {
        let ps = generators::uniform_unit_square(5, 11);
        round_trip_request(&Request::Hello {
            client: "c1".into(),
        });
        round_trip_request(&Request::Submit {
            req: 3,
            idem: "key-1".into(),
            spec: JobSpec::Certify {
                points: ps.clone(),
                network: OwnedNetwork::center_star(5, 0),
                alpha: 1.5,
                exact: true,
                model: ModelKind::SumDistances,
                budget_ms: None,
            },
        });
        round_trip_request(&Request::Submit {
            req: 4,
            idem: "key-2".into(),
            spec: JobSpec::Dynamics {
                points: ps,
                alpha: 2.0,
                rule: dynamics::ResponseRule::BestSingleMove,
                steps: 100,
                spec: GameSpec::bilateral(ModelKind::MaxDistance),
                start: Some(OwnedNetwork::center_star(5, 2)),
                budget_ms: Some(0),
            },
        });
        round_trip_request(&Request::Submit {
            req: 5,
            idem: "key-3".into(),
            spec: JobSpec::Sweep {
                spec: Box::new(SweepSpec::parse(
                    r#"{"sweep": "wire_rt", "claim": "round trip", "version": 1,
                        "instances": {"generator": "uniform", "n": [4], "seeds": {"base": 7, "count": 2}},
                        "network": {"method": ["mst", "star"]},
                        "alphas": {"start": 1, "stop": 2, "step": 0.5},
                        "job": {"kind": "certify", "model": "maxdist"}}"#,
                )
                .unwrap()),
                budget_ms: Some(30_000),
            },
        });
        round_trip_request(&Request::Cancel { req: 3 });
        round_trip_request(&Request::Ping { seq: 9 });
        for model in [ModelKind::SumDistances, ModelKind::MaxDistance] {
            assert_eq!(model_from_str(model.as_str()), Ok(model));
        }
        assert_eq!(
            model_from_str("max"),
            Err(JsonError::new(r#"bad model: "max""#))
        );
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(&Response::HelloOk {
            server: "gncg-serve".into(),
            quota: 16,
        });
        round_trip_response(&Response::Event {
            req: 1,
            event: EventKind::Started,
        });
        round_trip_response(&Response::Result {
            req: 1,
            outcome: Ok(Value::Number(1.5)),
        });
        round_trip_response(&Response::Result {
            req: 2,
            outcome: Err(RemoteError::Cancelled),
        });
        round_trip_response(&Response::Result {
            req: 3,
            outcome: Err(RemoteError::Panicked("boom".into())),
        });
        round_trip_response(&Response::Error {
            req: Some(4),
            code: ErrorCode::Quota,
            message: "quota exhausted".into(),
        });
        round_trip_response(&Response::Error {
            req: None,
            code: ErrorCode::Protocol,
            message: "bad frame".into(),
        });
        round_trip_response(&Response::Pong { seq: 7 });
        round_trip_response(&Response::Draining);
    }

    #[test]
    fn certify_report_survives_the_wire_bit_for_bit() {
        let ps = generators::uniform_unit_square(6, 3);
        let net = OwnedNetwork::center_star(6, 0);
        let direct = gncg_game::certify::certify(&ps, &net, 1.5, &SolverConfig::exact());
        let payload = direct.to_json();
        let text = gncg_json::to_string(&payload);
        let decoded = CertifyReport::from_json(&gncg_json::parse(&text).unwrap()).unwrap();
        assert_eq!(decoded.social_cost.to_bits(), direct.social_cost.to_bits());
        assert_eq!(
            decoded.beta_exact.unwrap().to_bits(),
            direct.beta_exact.unwrap().to_bits()
        );
        assert_eq!(
            decoded.gamma_exact.unwrap().to_bits(),
            direct.gamma_exact.unwrap().to_bits()
        );
        assert_eq!(decoded.beta_regime, direct.beta_regime);
        assert_eq!(decoded, direct);
    }
}
