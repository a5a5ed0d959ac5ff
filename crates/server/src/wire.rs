//! Wire format for compile/simulate requests and responses.
//!
//! Requests describe *workloads* (tenant, instruction set, generator, size,
//! seed), not serialized circuits: both ends of the wire own the same
//! deterministic generators ([`apps::workloads`]), so a handful of scalars
//! reproduces any circuit bit-for-bit — the same trick the paper's sweep
//! binaries use to name their workloads.
//!
//! The encoding is a flat, single-level JSON object with string and unsigned
//! integer values only. The codec here is hand-rolled because the vendored
//! `serde` shim is marker-only (see `vendor/README.md`); the types still
//! carry the derive markers so switching to real `serde_json` later is a
//! mechanical change.

use serde::{Deserialize, Serialize};
use sim::FusionPolicy;

/// Canonical wire spelling of a fusion policy.
pub(crate) fn fusion_as_str(policy: FusionPolicy) -> &'static str {
    match policy {
        FusionPolicy::Off => "off",
        FusionPolicy::Safe => "safe",
        FusionPolicy::Aggressive => "aggressive",
    }
}

fn fusion_from_str(text: &str) -> Result<FusionPolicy, WireError> {
    match text {
        "off" => Ok(FusionPolicy::Off),
        "safe" => Ok(FusionPolicy::Safe),
        "aggressive" => Ok(FusionPolicy::Aggressive),
        other => Err(WireError::new(format!(
            "unknown fusion {other:?} (expected \"off\", \"safe\" or \"aggressive\")"
        ))),
    }
}

/// What a job should do after compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobOp {
    /// Compile only; report circuit and cache statistics.
    Compile,
    /// Compile, then sample the compiled circuit under the device's
    /// calibrated noise.
    Simulate {
        /// Number of measurement shots.
        shots: usize,
    },
}

/// Which deterministic workload generator to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// Quantum-volume model circuit ([`apps::workloads::qv_circuit`]).
    Qv,
    /// Hardware-style QAOA instance ([`apps::workloads::qaoa_circuit`]).
    Qaoa,
}

impl WorkloadKind {
    fn as_str(&self) -> &'static str {
        match self {
            WorkloadKind::Qv => "qv",
            WorkloadKind::Qaoa => "qaoa",
        }
    }
}

/// One compile-or-simulate request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRequest {
    /// Tenant namespace; each tenant gets its own decomposition cache.
    pub tenant: String,
    /// Table II instruction-set name (e.g. `"G3"`, case-insensitive).
    pub set: String,
    /// Workload generator.
    pub workload: WorkloadKind,
    /// Number of logical qubits.
    pub qubits: usize,
    /// Seed of the workload generator.
    pub seed: u64,
    /// Compile only, or compile then simulate.
    pub op: JobOp,
    /// Gate-fusion policy the circuit is lowered under. `None` uses the
    /// server engine's own policy; `Some` overrides it for this request
    /// (`"off"`, `"safe"` or `"aggressive"` on the wire).
    pub fusion: Option<FusionPolicy>,
}

impl JobRequest {
    /// Encodes the request as a flat JSON object.
    pub fn encode(&self) -> String {
        let mut out = String::from("{");
        push_str_field(&mut out, "tenant", &self.tenant);
        push_str_field(&mut out, "set", &self.set);
        push_str_field(&mut out, "workload", self.workload.as_str());
        push_num_field(&mut out, "qubits", self.qubits as u64);
        push_num_field(&mut out, "seed", self.seed);
        match self.op {
            JobOp::Compile => push_str_field(&mut out, "op", "compile"),
            JobOp::Simulate { shots } => {
                push_str_field(&mut out, "op", "simulate");
                push_num_field(&mut out, "shots", shots as u64);
            }
        }
        if let Some(policy) = self.fusion {
            push_str_field(&mut out, "fusion", fusion_as_str(policy));
        }
        out.pop(); // trailing comma
        out.push('}');
        out
    }

    /// Parses a request from the flat JSON produced by [`JobRequest::encode`].
    pub fn parse(text: &str) -> Result<JobRequest, WireError> {
        let fields = parse_flat_object(text)?;
        let tenant = require_str(&fields, "tenant")?.to_string();
        if tenant.is_empty() {
            return Err(WireError::new("field `tenant` must be non-empty"));
        }
        let set = require_str(&fields, "set")?.to_string();
        let workload = match require_str(&fields, "workload")? {
            "qv" => WorkloadKind::Qv,
            "qaoa" => WorkloadKind::Qaoa,
            other => {
                return Err(WireError::new(format!(
                    "unknown workload {other:?} (expected \"qv\" or \"qaoa\")"
                )))
            }
        };
        let qubits = require_num(&fields, "qubits")? as usize;
        let seed = require_num(&fields, "seed")?;
        let op = match require_str(&fields, "op")? {
            "compile" => JobOp::Compile,
            "simulate" => JobOp::Simulate {
                shots: require_num(&fields, "shots")? as usize,
            },
            other => {
                return Err(WireError::new(format!(
                    "unknown op {other:?} (expected \"compile\" or \"simulate\")"
                )))
            }
        };
        let fusion = match fields.iter().find(|(k, _)| k == "fusion") {
            None => None,
            Some(_) => Some(fusion_from_str(require_str(&fields, "fusion")?)?),
        };
        Ok(JobRequest {
            tenant,
            set,
            workload,
            qubits,
            seed,
            op,
            fusion,
        })
    }
}

/// Simulation half of a [`JobResponse`], present for `op = simulate`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimSummary {
    /// Shots executed.
    pub shots: usize,
    /// Wall-clock of the sampling phase, microseconds.
    pub simulate_micros: u64,
    /// Number of distinct measured outcomes (a cheap sanity statistic that
    /// does not bloat the wire with a full histogram).
    pub distinct_outcomes: usize,
    /// Fusion policy the engine actually ran (the request's choice, or the
    /// server engine's default when the request left it unset).
    pub fusion: FusionPolicy,
}

/// What a completed job reports back.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobResponse {
    /// Echo of the request's tenant.
    pub tenant: String,
    /// Echo of the request's instruction set (canonical Table II casing).
    pub set: String,
    /// Two-qubit hardware gates in the compiled circuit.
    pub two_qubit_gates: usize,
    /// Routing SWAPs inserted before decomposition.
    pub swap_count: usize,
    /// Decomposition-cache hits during this compile.
    pub cache_hits: usize,
    /// Decomposition-cache misses during this compile.
    pub cache_misses: usize,
    /// Wall-clock of the compile phase, microseconds.
    pub compile_micros: u64,
    /// Present when the job also simulated.
    pub sim: Option<SimSummary>,
}

impl JobResponse {
    /// Encodes the response as a flat JSON object.
    pub fn encode(&self) -> String {
        let mut out = String::from("{");
        push_str_field(&mut out, "tenant", &self.tenant);
        push_str_field(&mut out, "set", &self.set);
        push_num_field(&mut out, "two_qubit_gates", self.two_qubit_gates as u64);
        push_num_field(&mut out, "swap_count", self.swap_count as u64);
        push_num_field(&mut out, "cache_hits", self.cache_hits as u64);
        push_num_field(&mut out, "cache_misses", self.cache_misses as u64);
        push_num_field(&mut out, "compile_micros", self.compile_micros);
        if let Some(sim) = &self.sim {
            push_num_field(&mut out, "shots", sim.shots as u64);
            push_num_field(&mut out, "simulate_micros", sim.simulate_micros);
            push_num_field(&mut out, "distinct_outcomes", sim.distinct_outcomes as u64);
            push_str_field(&mut out, "fusion", fusion_as_str(sim.fusion));
        }
        out.pop();
        out.push('}');
        out
    }
}

/// A malformed wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    reason: String,
}

impl WireError {
    pub(crate) fn new(reason: impl Into<String>) -> Self {
        WireError {
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed wire message: {}", self.reason)
    }
}

impl std::error::Error for WireError {}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    out.push_str(value);
    out.push_str("\",");
}

fn push_num_field(out: &mut String, key: &str, value: u64) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&value.to_string());
    out.push(',');
}

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Num(u64),
}

/// Parses a single-level JSON object with string and unsigned-integer values.
/// Escape sequences are rejected (no field this format carries needs them).
fn parse_flat_object(text: &str) -> Result<Vec<(String, Value)>, WireError> {
    let mut chars = text.chars().peekable();
    let mut fields = Vec::new();
    skip_ws(&mut chars);
    expect_char(&mut chars, '{')?;
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
        return finish(chars, fields);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        expect_char(&mut chars, ':')?;
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some('"') => Value::Str(parse_string(&mut chars)?),
            Some(c) if c.is_ascii_digit() => Value::Num(parse_number(&mut chars)?),
            Some(c) => {
                return Err(WireError::new(format!(
                    "unexpected {c:?} (values must be strings or unsigned integers)"
                )))
            }
            None => return Err(WireError::new("unexpected end of input")),
        };
        if fields.iter().any(|(k, _)| *k == key) {
            return Err(WireError::new(format!("duplicate field `{key}`")));
        }
        fields.push((key, value));
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => continue,
            Some('}') => return finish(chars, fields),
            Some(c) => return Err(WireError::new(format!("expected ',' or '}}', got {c:?}"))),
            None => return Err(WireError::new("unexpected end of input")),
        }
    }
}

fn finish(
    mut chars: std::iter::Peekable<std::str::Chars<'_>>,
    fields: Vec<(String, Value)>,
) -> Result<Vec<(String, Value)>, WireError> {
    skip_ws(&mut chars);
    match chars.next() {
        None => Ok(fields),
        Some(c) => Err(WireError::new(format!(
            "trailing {c:?} after closing brace"
        ))),
    }
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.peek().is_some_and(|c| c.is_whitespace()) {
        chars.next();
    }
}

fn expect_char(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
    want: char,
) -> Result<(), WireError> {
    match chars.next() {
        Some(c) if c == want => Ok(()),
        Some(c) => Err(WireError::new(format!("expected {want:?}, got {c:?}"))),
        None => Err(WireError::new(format!(
            "expected {want:?}, got end of input"
        ))),
    }
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<String, WireError> {
    expect_char(chars, '"')?;
    let mut out = String::new();
    for c in chars.by_ref() {
        match c {
            '"' => return Ok(out),
            '\\' => return Err(WireError::new("escape sequences are not supported")),
            c => out.push(c),
        }
    }
    Err(WireError::new("unterminated string"))
}

fn parse_number(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<u64, WireError> {
    let mut out = String::new();
    while let Some(c) = chars.next_if(|c| c.is_ascii_digit()) {
        out.push(c);
    }
    out.parse()
        .map_err(|_| WireError::new(format!("integer {out:?} out of range")))
}

fn require_str<'a>(fields: &'a [(String, Value)], key: &str) -> Result<&'a str, WireError> {
    match fields.iter().find(|(k, _)| k == key) {
        Some((_, Value::Str(s))) => Ok(s),
        Some((_, Value::Num(_))) => Err(WireError::new(format!("field `{key}` must be a string"))),
        None => Err(WireError::new(format!("missing field `{key}`"))),
    }
}

fn require_num(fields: &[(String, Value)], key: &str) -> Result<u64, WireError> {
    match fields.iter().find(|(k, _)| k == key) {
        Some((_, Value::Num(n))) => Ok(*n),
        Some((_, Value::Str(_))) => Err(WireError::new(format!(
            "field `{key}` must be an unsigned integer"
        ))),
        None => Err(WireError::new(format!("missing field `{key}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobRequest {
        JobRequest {
            tenant: "team-a".into(),
            set: "G3".into(),
            workload: WorkloadKind::Qaoa,
            qubits: 3,
            seed: 42,
            op: JobOp::Simulate { shots: 256 },
            fusion: None,
        }
    }

    #[test]
    fn requests_round_trip() {
        let req = sample();
        assert_eq!(JobRequest::parse(&req.encode()).unwrap(), req);

        let compile_only = JobRequest {
            op: JobOp::Compile,
            ..sample()
        };
        assert_eq!(
            JobRequest::parse(&compile_only.encode()).unwrap(),
            compile_only
        );
    }

    #[test]
    fn fusion_field_round_trips_and_defaults_to_unset() {
        for policy in [
            FusionPolicy::Off,
            FusionPolicy::Safe,
            FusionPolicy::Aggressive,
        ] {
            let req = JobRequest {
                fusion: Some(policy),
                ..sample()
            };
            let text = req.encode();
            assert!(text.contains(&format!("\"fusion\":\"{}\"", fusion_as_str(policy))));
            assert_eq!(JobRequest::parse(&text).unwrap(), req);
        }
        // Absent on the wire means "server's engine decides".
        let req = sample();
        assert!(!req.encode().contains("fusion"));
        assert_eq!(JobRequest::parse(&req.encode()).unwrap().fusion, None);
        // Unknown spellings are rejected with the reason.
        let text = r#"{"tenant":"t","set":"G3","workload":"qv","qubits":3,"seed":1,
                       "op":"compile","fusion":"turbo"}"#;
        let err = JobRequest::parse(text).unwrap_err();
        assert!(err.to_string().contains("unknown fusion"));
    }

    #[test]
    fn parser_accepts_whitespace_and_any_field_order() {
        let text = r#" { "op" : "compile" , "seed": 7, "qubits": 4,
                         "workload": "qv", "set": "S3", "tenant": "t" } "#;
        let req = JobRequest::parse(text).unwrap();
        assert_eq!(req.set, "S3");
        assert_eq!(req.op, JobOp::Compile);
        assert_eq!(req.qubits, 4);
    }

    #[test]
    fn malformed_requests_are_rejected_with_the_reason() {
        let cases = [
            ("{}", "missing field `tenant`"),
            (r#"{"tenant":"t"}"#, "missing field `set`"),
            (r#"{"tenant":""}"#, "non-empty"),
            (r#"{"tenant":3}"#, "must be a string"),
            (r#"{"tenant":"t","tenant":"u"}"#, "duplicate"),
            (r#"{"tenant":"t" "set":"G3"}"#, "expected ',' or '}'"),
            (r#"{"tenant":"t"} trailing"#, "trailing"),
            (r#"{"tenant":"t\n"}"#, "escape"),
            ("not json", "expected '{'"),
        ];
        for (text, needle) in cases {
            let err = JobRequest::parse(text).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{text:?}: {err} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn simulate_requires_shots() {
        let text =
            r#"{"tenant":"t","set":"G3","workload":"qv","qubits":3,"seed":1,"op":"simulate"}"#;
        let err = JobRequest::parse(text).unwrap_err();
        assert!(err.to_string().contains("shots"));
    }

    #[test]
    fn responses_encode_flat_json() {
        let resp = JobResponse {
            tenant: "t".into(),
            set: "G3".into(),
            two_qubit_gates: 12,
            swap_count: 2,
            cache_hits: 10,
            cache_misses: 2,
            compile_micros: 1500,
            sim: Some(SimSummary {
                shots: 256,
                simulate_micros: 900,
                distinct_outcomes: 8,
                fusion: FusionPolicy::Aggressive,
            }),
        };
        let text = resp.encode();
        assert!(text.starts_with('{') && text.ends_with('}'));
        assert!(text.contains("\"two_qubit_gates\":12"));
        assert!(text.contains("\"shots\":256"));
        assert!(text.contains("\"fusion\":\"aggressive\""));
        // Compile-only responses omit the simulation fields entirely.
        let compile_only = JobResponse { sim: None, ..resp };
        assert!(!compile_only.encode().contains("shots"));
    }
}
