//! Seeded workload generation.
//!
//! An op is a pure function of `(workload, seed, stream, index)`: streams
//! 0 and 1 are the two closed-loop clients, 2 and 3 their warm-up passes
//! (from [`DEFAULT_SEED`]), whose response bodies have a committed digest.  Request
//! seeds encode the stream and the op index, so no two requests of a run
//! share a cache line, and the server only ever sees the generated inputs.

use guide_ppl::dist::Sample;
use guide_ppl::models::{self, Benchmark};

/// The seed of the warm-up (golden) pass, whatever seed a run is given.
pub const DEFAULT_SEED: u64 = 1;

/// Closed-loop clients, each with one keep-alive connection.
pub const CLIENTS: u64 = 2;

/// The warm-up stream of client 0; client `i` warms up on stream
/// `WARM_UP_STREAM + i`, one op per rotation entry.
pub const WARM_UP_STREAM: u64 = 2;

/// Cold and repeated queries per tenant session.
pub const SESSION_QUERIES: usize = 4;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 20,000-particle IS on the models the block planner vectorises.
    IsVectorised,
    /// 10,000-particle IS on the recursive models the planner gives up on.
    IsRecursive,
    /// Submit a model variant, query it cold, query it again, scrape.
    TenantSession,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::IsVectorised,
        Workload::IsRecursive,
        Workload::TenantSession,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::IsVectorised => "is-vectorised",
            Workload::IsRecursive => "is-recursive",
            Workload::TenantSession => "tenant-session",
        }
    }

    /// Registry models the ops rotate through (odd length, equal shares).
    pub fn rotation(self) -> &'static [&'static str] {
        match self {
            Workload::IsVectorised => &["gmm", "ex-1", "branching"],
            Workload::IsRecursive => &["geometric", "marsaglia", "ptrace", "ex-2", "gp-dsl"],
            Workload::TenantSession => &["ex-1", "kalman", "geometric"],
        }
    }

    /// Importance-sampling particles per query.
    pub fn particles(self) -> usize {
        match self {
            Workload::IsVectorised => 20_000,
            Workload::IsRecursive => 10_000,
            Workload::TenantSession => 200,
        }
    }
}

/// One `POST /v1/query` request.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// The model id the request names (a registry name or a minted id).
    pub model: String,
    /// The registry model the sources and observations come from.
    pub template: &'static str,
    pub observations: Vec<Sample>,
    pub seed: u64,
    pub particles: usize,
}

impl QuerySpec {
    pub fn body(&self) -> String {
        let obs: Vec<String> = self
            .observations
            .iter()
            .map(|s| match s {
                Sample::Real(x) => format!("{x}"),
                Sample::Bool(b) => format!("{b}"),
                Sample::Nat(n) => format!("{{\"nat\":{n}}}"),
            })
            .collect();
        format!(
            "{{\"model\":{},\"observations\":[{}],\"method\":{{\"algorithm\":\"importance\",\
             \"particles\":{}}},\"seed\":{}}}",
            json_string(&self.model),
            obs.join(","),
            self.particles,
            self.seed
        )
    }
}

/// One `POST /v1/models` request: a registry model with one numeric
/// literal perturbed.
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    pub template: &'static str,
    pub name: String,
    pub model_src: String,
    pub model_proc: &'static str,
    pub guide_src: &'static str,
    pub guide_proc: &'static str,
}

impl Submission {
    pub fn body(&self) -> String {
        format!(
            "{{\"name\":{},\"model_src\":{},\"model_proc\":{},\"guide_src\":{},\"guide_proc\":{}}}",
            json_string(&self.name),
            json_string(&self.model_src),
            json_string(self.model_proc),
            json_string(self.guide_src),
            json_string(self.guide_proc)
        )
    }

    /// The id the server must mint for these sources.
    pub fn expected_id(&self) -> String {
        ppl_serve::ingest::model_id(
            &self.model_src,
            self.model_proc,
            self.guide_src,
            self.guide_proc,
        )
    }
}

/// One workload step.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A single cold query.
    Query(QuerySpec),
    /// A tenant session: submit, [`SESSION_QUERIES`] cold queries on the
    /// minted id, the same queries again as cache hits, one `GET /metrics`.
    Session {
        submission: Submission,
        queries: Vec<QuerySpec>,
    },
}

#[cfg(test)]
impl Op {
    /// The registry model this op is built from.
    pub fn template(&self) -> &'static str {
        match self {
            Op::Query(q) => q.template,
            Op::Session { submission, .. } => submission.template,
        }
    }
}

/// The registry benchmark `name` (one of the rotation models).
pub fn benchmark(name: &str) -> Benchmark {
    models::benchmark(name).unwrap_or_else(|| panic!("'{name}' is a registry model"))
}

/// The rotation entry of op `index` of `stream`: the streams start one
/// entry apart and step through the rotation.
pub fn class(workload: Workload, stream: u64, index: u64) -> usize {
    ((stream + index) % workload.rotation().len() as u64) as usize
}

/// The op at position `index` of `stream` for this workload and seed.
pub fn op(workload: Workload, seed: u64, stream: u64, index: u64) -> Op {
    let template = workload.rotation()[class(workload, stream, index)];
    let bench = benchmark(template);
    let query = |model: String, serial: u64| QuerySpec {
        model,
        template,
        observations: bench.observations.clone(),
        seed: request_seed(seed, stream, serial),
        particles: workload.particles(),
    };
    match workload {
        Workload::IsVectorised | Workload::IsRecursive => Op::Query(query(template.into(), index)),
        Workload::TenantSession => {
            let mut rng = SplitMix64::new(seed ^ (stream << 56) ^ index.wrapping_mul(0x9e37));
            let submission = variant(&bench, stream, index, rng.next_f64());
            let id = submission.expected_id();
            let queries = (0..SESSION_QUERIES as u64)
                .map(|j| query(id.clone(), index * SESSION_QUERIES as u64 + j))
                .collect();
            Op::Session {
                submission,
                queries,
            }
        }
    }
}

/// A request seed below 2^53 (JSON numbers are doubles): 28 bits from the
/// workload seed, 2 bits of stream, 23 bits of per-stream serial.
pub fn request_seed(seed: u64, stream: u64, serial: u64) -> u64 {
    let base = SplitMix64::new(seed).next_u64() >> 36;
    (base << 25) | ((stream & 3) << 23) | (serial & ((1 << 23) - 1))
}

/// The tenant variant of `bench`: one literal moved by up to ±10%, written
/// with the stream and index appended to its digits so every session's
/// sources (and so its minted id) are distinct.
fn variant(bench: &Benchmark, stream: u64, index: u64, u: f64) -> Submission {
    // (the sample site, its literal, the literal's range)
    let (site, literal, lo, hi) = match bench.name {
        "ex-1" => ("Gamma(2.0, 1.0)", "2.0", 1.8, 2.2),
        "kalman" => ("Normal(0.0, 1.0)", "1.0", 0.9, 1.1),
        "geometric" => ("GeoStep(0.5)", "0.5", 0.45, 0.55),
        other => panic!("no tenant variant for '{other}'"),
    };
    assert!(bench.model_src.contains(site), "template site present");
    let value = format!("{:.3}{stream}{index:07}", lo + (hi - lo) * u);
    Submission {
        template: bench.name,
        name: format!("tenant-{stream}-{index}"),
        model_src: bench
            .model_src
            .replacen(site, &site.replacen(literal, &value, 1), 1),
        model_proc: bench.model_proc,
        guide_src: bench.guide_src,
        guide_proc: bench.guide_proc,
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// SplitMix64: the benchmark's own input generator, independent of the
/// program's RNG.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform on [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(workload: Workload, seed: u64) -> Vec<String> {
        (0..CLIENTS)
            .flat_map(|stream| (0..12).map(move |k| (stream, k)))
            .map(|(stream, k)| match op(workload, seed, stream, k) {
                Op::Query(q) => q.body(),
                Op::Session {
                    submission,
                    queries,
                } => {
                    let mut s = submission.body();
                    for q in &queries {
                        s.push_str(&q.body());
                    }
                    s
                }
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_ops() {
        for w in Workload::ALL {
            assert_eq!(sequence(w, 42), sequence(w, 42), "{}", w.name());
        }
    }

    #[test]
    fn different_seeds_give_different_ops() {
        for w in Workload::ALL {
            let (a, b) = (sequence(w, 42), sequence(w, 43));
            assert!(a.iter().zip(&b).all(|(x, y)| x != y), "{}", w.name());
        }
    }

    #[test]
    fn no_two_requests_of_a_run_collide() {
        for w in Workload::ALL {
            let mut seen = std::collections::HashSet::new();
            for stream in 0..CLIENTS + WARM_UP_STREAM {
                for k in 0..50 {
                    match op(w, DEFAULT_SEED, stream, k) {
                        Op::Query(q) => assert!(seen.insert(q.body())),
                        Op::Session {
                            submission,
                            queries,
                        } => {
                            assert!(seen.insert(submission.expected_id()));
                            for q in queries {
                                assert!(seen.insert(q.body()));
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rotations_have_odd_length_and_equal_shares() {
        for w in Workload::ALL {
            let n = w.rotation().len() as u64;
            assert_eq!(n % 2, 1);
            let mut counts = vec![0; n as usize];
            for stream in 0..CLIENTS {
                for k in 0..n * 4 {
                    let t = op(w, 9, stream, k).template();
                    let i = w.rotation().iter().position(|m| *m == t).unwrap();
                    counts[i] += 1;
                }
            }
            assert!(counts.iter().all(|&c| c == counts[0]), "{counts:?}");
        }
    }

    #[test]
    fn request_seeds_fit_in_a_double() {
        assert!(request_seed(u64::MAX, 3, u64::MAX) < 1 << 53);
    }

    #[test]
    fn variants_parse_and_type_check() {
        for k in 0..3 {
            let Op::Session { submission, .. } = op(Workload::TenantSession, 5, 0, k) else {
                panic!("tenant ops are sessions");
            };
            guide_ppl::Session::from_sources(
                &submission.model_src,
                submission.model_proc,
                submission.guide_src,
                submission.guide_proc,
            )
            .unwrap_or_else(|e| panic!("{}: {e}", submission.template));
        }
    }

    #[test]
    fn json_strings_escape_quotes_and_newlines() {
        assert_eq!(json_string("a\"b\nc\\"), "\"a\\\"b\\nc\\\\\"");
    }
}
