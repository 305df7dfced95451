//! `serve_http`: a live `ServeServer` on the paper's 430 nodes, fed
//! CTC-model jobs with paper-interarrival submit stamps, deployed the
//! way `serve --listen` deploys it (ring recorder, flight recorder on).
//!
//! Two phases, each from at most two client threads and two concurrent
//! connections:
//! 1. open loop: Poisson arrivals at [`RATE`] requests/s alternating
//!    batch `POST /v1/jobs` and `GET /v1/jobs/<id>` of an admitted job,
//!    each timed from its due time;
//! 2. closed-loop burst: both connections post batch bodies back to back.
//!
//! The traced run then replays the same bodies in-process to split the
//! HTTP latency into parse, core batch, decision-loop queue and HTTP
//! layers.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dynp_core::SelfTuning;
use dynp_obs::JsonValue;
use dynp_sched::Metric;
use dynp_serve::{JobRequest, ServeConfig, ServeServer, ServiceCore};
use dynp_trace::{CtcModel, WorkloadModel};

use crate::ledger::Ledger;
use crate::stats::{self, Latency, SplitMix};
use crate::{Args, Outcome};

/// The paper's machine.
const NODES: u32 = 430;
/// Open-loop request rate (submits and reads together), per second.
const RATE: f64 = 50.0;
/// Jobs per open-loop submit body and per burst body.
const JOBS_PER_SUBMIT: usize = 4;
const JOBS_PER_BURST_BODY: usize = 32;
/// Closed-loop burst length; the open loop gets the rest of the run.
const BURST: Duration = Duration::from_millis(2500);
/// Jobs admitted in-process during set-up, so reads have targets and
/// the queue is warm before the open loop starts.
const PRIME_JOBS: usize = 64;
/// Client socket timeout: a request slower than this counts as failed.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);
/// The generator's threads and concurrent connections.
const CLIENTS: usize = 2;
/// Highest open-loop latency rank reported: the p99 of the ~1 225
/// requests of a 27 s run rests on 12 of them, and over 1 075 requests it
/// moved 22% between seeds; the p95 rests on 61.
const OPEN_TAIL: f64 = 0.95;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 9;

/// One open-loop request.
#[derive(Clone, Debug)]
enum Kind {
    /// `POST /v1/jobs` with the open-loop body of this index.
    Submit(usize),
    /// `GET /v1/jobs/<id>`; the id is this pick modulo the admitted count.
    Read(u64),
}

/// Everything the run sends, generated from the seed.
#[derive(Clone, Debug)]
pub struct Inputs {
    prime: Vec<JobRequest>,
    /// Open-loop submit bodies, their parsed jobs, and the schedule.
    open_bodies: Vec<String>,
    open_jobs: Vec<Vec<JobRequest>>,
    schedule: Vec<(Duration, Kind)>,
    burst_bodies: Vec<String>,
}

fn body(jobs: &[JobRequest]) -> String {
    let mut list = JsonValue::array();
    for j in jobs {
        let mut job = JsonValue::object()
            .with("width", j.width)
            .with("runtime", j.runtime);
        if let Some(a) = j.actual_runtime {
            job.set("actual_runtime", a);
        }
        if let Some(s) = j.submit {
            job.set("submit", s);
        }
        list.push(job);
    }
    JsonValue::object()
        .with("v", 1u64)
        .with("jobs", list)
        .to_json()
}

/// Generates the run's inputs for about `open` seconds of open loop:
/// a fixed request count, so the tail percentile's rank never changes.
pub fn inputs(seed: u64, open: Duration) -> Inputs {
    let mut rng = SplitMix::new(seed ^ 0x5EED_5E7E);
    let count = (open.as_secs_f64() * RATE).round() as usize;
    let mut schedule = Vec::with_capacity(count);
    let mut t = 0.0;
    let mut submits = 0;
    while schedule.len() < count {
        t += rng.exp(1.0 / RATE);
        let kind = if schedule.len() % 2 == 0 {
            submits += 1;
            Kind::Submit(submits - 1)
        } else {
            Kind::Read(rng.next_u64())
        };
        schedule.push((Duration::from_secs_f64(t), kind));
    }
    // Enough burst bodies for two connections at several times the
    // rate the accept loop allows.
    let burst_bodies_n = (BURST.as_secs_f64() * 400.0) as usize;
    let total = PRIME_JOBS + submits * JOBS_PER_SUBMIT + burst_bodies_n * JOBS_PER_BURST_BODY;
    let trace = CtcModel {
        nodes: NODES,
        ..CtcModel::default()
    }
    .generate(total, seed);
    let requests: Vec<JobRequest> = trace
        .jobs
        .iter()
        .map(|j| JobRequest {
            width: j.width,
            runtime: j.estimated_duration,
            actual_runtime: Some(j.actual_duration),
            submit: Some(j.submit),
        })
        .collect();
    let (prime, rest) = requests.split_at(PRIME_JOBS);
    let (open, burst) = rest.split_at(submits * JOBS_PER_SUBMIT);
    let open_jobs: Vec<Vec<JobRequest>> = open.chunks(JOBS_PER_SUBMIT).map(<[_]>::to_vec).collect();
    Inputs {
        prime: prime.to_vec(),
        open_bodies: open_jobs.iter().map(|j| body(j)).collect(),
        open_jobs,
        schedule,
        burst_bodies: burst.chunks(JOBS_PER_BURST_BODY).map(body).collect(),
    }
}

/// The service configuration `serve --listen` uses, on the paper's
/// machine.
fn config() -> ServeConfig {
    let mut config = ServeConfig::new(NODES);
    config.queue_depth = 256;
    config
}

/// Starts a server and admits the priming jobs in-process.
fn start(inputs: &Inputs) -> Result<ServeServer, String> {
    let server = ServeServer::start("127.0.0.1:0", config()).map_err(|e| e.to_string())?;
    for chunk in inputs.prime.chunks(8) {
        server
            .submit(chunk.to_vec())
            .map_err(|e| e.message.clone())?;
    }
    Ok(server)
}

/// One HTTP exchange's outcome.
#[derive(Clone, Debug)]
struct Reply {
    status: u16,
    body: String,
}

/// One request on a fresh connection (the server answers
/// `Connection: close`). `Err` is a connect, write or read failure.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Reply, String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(CLIENT_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(CLIENT_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| e.to_string())?;
    let raw = String::from_utf8(raw).map_err(|e| e.to_string())?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("malformed status line")?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok(Reply { status, body })
}

/// Admitted job ids in a 200 submit reply, or why the body is not a v1
/// decisions body.
fn decision_ids(body: &str) -> Result<Vec<u32>, String> {
    let json = dynp_obs::parse_json(body).map_err(|e| e.to_string())?;
    if json.get("v").and_then(JsonValue::as_u64) != Some(1) {
        return Err("reply is not v1".into());
    }
    let decisions = json
        .get("decisions")
        .and_then(JsonValue::as_array)
        .ok_or("reply has no decisions")?;
    decisions
        .iter()
        .map(|d| {
            if d.get("v").and_then(JsonValue::as_u64) != Some(1) {
                return Err("decision is not v1".to_string());
            }
            d.get("id")
                .and_then(JsonValue::as_u64)
                .map(|id| id as u32)
                .ok_or_else(|| "decision has no id".to_string())
        })
        .collect()
}

/// Checks a 200 status body decodes as v1 for the requested id.
fn check_view(body: &str, id: u32) -> Result<(), String> {
    let json = dynp_obs::parse_json(body).map_err(|e| e.to_string())?;
    let v1 = json.get("v").and_then(JsonValue::as_u64) == Some(1);
    let same = json.get("id").and_then(JsonValue::as_u64) == Some(u64::from(id));
    if v1 && same {
        Ok(())
    } else {
        Err(format!("job view for {id} is not a v1 view of that job"))
    }
}

/// One timed open-loop request.
#[derive(Clone, Debug)]
struct Sample {
    submit: bool,
    /// From due time to the reply.
    latency_ms: f64,
    /// From sending to the reply (the service time alone).
    service_ms: f64,
    /// How late the generator sent it.
    late_ms: f64,
    /// HTTP status, 0 for a transport failure.
    status: u16,
    /// Id a read targeted.
    read_id: Option<u32>,
    /// Why a reply failed its output check.
    bad: Option<String>,
}

/// The open loop: both client threads take the next scheduled request,
/// wait for its due time and send it.
fn open_loop(addr: SocketAddr, inputs: &Inputs, admitted: &AtomicU32) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(inputs.schedule.len()));
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((due, kind)) = inputs.schedule.get(i) else {
                    break;
                };
                let due = start + *due;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let (submit, read_id, result) = match kind {
                    Kind::Submit(b) => (
                        true,
                        None,
                        http(addr, "POST", "/v1/jobs", &inputs.open_bodies[*b]),
                    ),
                    Kind::Read(pick) => {
                        let id = (pick % (u64::from(admitted.load(Ordering::Relaxed)) + 1)) as u32;
                        (
                            false,
                            Some(id),
                            http(addr, "GET", &format!("/v1/jobs/{id}"), ""),
                        )
                    }
                };
                let done = Instant::now();
                let ms = |d: Duration| d.as_secs_f64() * 1e3;
                let (status, bad) = match &result {
                    Err(e) => (0, Some(e.clone())),
                    Ok(r) if r.status != 200 => (r.status, None),
                    Ok(r) => match read_id {
                        Some(id) => (200, check_view(&r.body, id).err()),
                        None => match decision_ids(&r.body) {
                            Ok(ids) => {
                                if let Some(&max) = ids.iter().max() {
                                    admitted.fetch_max(max, Ordering::Relaxed);
                                }
                                (200, None)
                            }
                            Err(e) => (200, Some(e)),
                        },
                    },
                };
                samples.lock().expect("sample list poisoned").push(Sample {
                    submit,
                    latency_ms: ms(done - due),
                    service_ms: ms(done - sent),
                    late_ms: ms(sent.saturating_duration_since(due)),
                    status,
                    read_id,
                    bad,
                });
            });
        }
    });
    samples.into_inner().expect("sample list poisoned")
}

/// What the closed-loop burst saw.
struct Burst {
    /// Jobs admitted by 200 replies.
    jobs: u64,
    /// From the first send to the last reply.
    elapsed: Duration,
    /// Bodies sent.
    sent: u64,
    /// Status of every non-200 reply (0 for a transport failure).
    statuses: Vec<u16>,
    /// Why replies failed their output check.
    bad: Vec<String>,
}

/// The closed-loop burst: both connections post back to back for
/// [`BURST`].
fn burst(addr: SocketAddr, inputs: &Inputs) -> Burst {
    let next = AtomicUsize::new(0);
    let results = Mutex::new((0u64, Vec::new(), Vec::new()));
    let started = Instant::now();
    let last = Mutex::new(started);
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                while started.elapsed() < BURST {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(body) = inputs.burst_bodies.get(i) else {
                        break;
                    };
                    let reply = http(addr, "POST", "/v1/jobs", body);
                    let done = Instant::now();
                    let mut r = results.lock().expect("burst results poisoned");
                    match reply {
                        Ok(reply) if reply.status == 200 => match decision_ids(&reply.body) {
                            Ok(ids) => r.0 += ids.len() as u64,
                            Err(e) => r.2.push(e),
                        },
                        Ok(reply) => r.1.push(reply.status),
                        Err(e) => {
                            r.1.push(0);
                            r.2.push(e);
                        }
                    }
                    let mut l = last.lock().expect("burst clock poisoned");
                    *l = (*l).max(done);
                }
            });
        }
    });
    let (jobs, statuses, bad) = results.into_inner().expect("burst results poisoned");
    let sent = next.load(Ordering::Relaxed).min(inputs.burst_bodies.len());
    let last = last.into_inner().expect("burst clock poisoned");
    Burst {
        jobs,
        elapsed: last - started,
        sent: sent as u64,
        statuses,
        bad,
    }
}

/// Checks the drained server's statistics: every admitted job completed.
fn check_drained(out: &mut Outcome, stats: &JsonValue, admitted_by_client: u64) -> (u64, u64) {
    let get = |k: &str| stats.get(k).and_then(JsonValue::as_u64).unwrap_or(u64::MAX);
    let (submitted, completed, declined) = (get("submitted"), get("completed"), get("declined"));
    out.check(
        get("waiting") == 0 && get("running") == 0 && completed + declined == submitted,
        format!(
            "drained core: {completed} completed + {declined} declined of {submitted} submitted"
        ),
    );
    out.check(
        submitted == admitted_by_client + PRIME_JOBS as u64,
        format!("server admitted {submitted} jobs, clients saw {admitted_by_client} + {PRIME_JOBS} primed"),
    );
    out.failed += declined;
    (get("batches"), submitted)
}

/// Mean microseconds per call of `f` over `items`, timing each call.
fn time_each<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let mut total = Duration::ZERO;
    for item in items {
        let t = Instant::now();
        f(item);
        total += t.elapsed();
    }
    total.as_secs_f64() * 1e6 / items.len().max(1) as f64
}

/// Mean microseconds per `submit_batch` on a fresh core fed the prime
/// and open-loop batches in order; returns the core for reads.
fn core_pass(inputs: &Inputs) -> (f64, ServiceCore) {
    let mut core = ServiceCore::new(NODES, SelfTuning::paper_config(Metric::SldwA));
    for chunk in inputs.prime.chunks(8) {
        core.submit_batch(chunk);
    }
    let us = time_each(&inputs.open_jobs, |jobs| {
        std::hint::black_box(core.submit_batch(jobs));
    });
    (us, core)
}

/// Runs `serve_http`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let open = args
        .seconds
        .saturating_sub(BURST)
        .max(Duration::from_secs(1));
    let inputs = inputs(args.seed, open);
    // The recorder cannot be uninstalled, so the recorder-off core pass
    // of the traced run goes first.
    let core_without_recorder_us = args.trace.then(|| core_pass(&inputs).0);
    dynp_obs::install(dynp_obs::Recorder::new(dynp_obs::Sink::ring(4096)));

    // Set-up: generate the inputs, start and prime a server. Each
    // earlier set-up's server is shut down outside the timed region.
    let mut setups = Vec::new();
    let mut server: Option<ServeServer> = None;
    for _ in 0..SETUPS {
        if let Some(old) = server.take() {
            old.shutdown();
        }
        let t = Instant::now();
        let fresh = start(&crate::serve::inputs(args.seed, open))?;
        setups.push(t.elapsed().as_secs_f64());
        server = Some(fresh);
    }
    let server = server.expect("at least one set-up");
    out.set("setup_s", stats::median(&setups));
    let addr = server.local_addr();
    let warm = http(addr, "GET", "/healthz", "")?;
    out.check(
        warm.status == 200,
        format!("/healthz answered {}", warm.status),
    );

    let admitted = AtomicU32::new(PRIME_JOBS as u32 - 1);
    let samples = open_loop(addr, &inputs, &admitted);
    let b = burst(addr, &inputs);
    let stats_json = server.shutdown();

    // Failure accounting and output checks.
    let failed_open = samples.iter().filter(|s| s.status != 200).count() as u64;
    out.attempted += samples.len() as u64 + b.sent;
    out.failed += failed_open + b.statuses.len() as u64;
    for s in samples.iter().filter_map(|s| s.bad.as_ref()).chain(&b.bad) {
        out.check(false, format!("bad reply: {s}"));
    }
    let open_admitted = samples
        .iter()
        .filter(|s| s.submit && s.status == 200)
        .count()
        * JOBS_PER_SUBMIT;
    let (batches, submitted) = check_drained(&mut out, &stats_json, open_admitted as u64 + b.jobs);

    // A failed request misses every latency limit: it enters the
    // percentiles as infinitely slow.
    let latency_of = |pick: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| pick(s))
            .map(|s| {
                if s.status == 200 {
                    s.latency_ms
                } else {
                    f64::INFINITY
                }
            })
            .collect()
    };
    let all = Latency::of(&latency_of(&|_| true), OPEN_TAIL).ok_or("too few open-loop requests")?;
    let submits = Latency::of(&latency_of(&|s| s.submit), OPEN_TAIL).ok_or("too few submits")?;
    let reads = Latency::of(&latency_of(&|s| !s.submit), OPEN_TAIL).ok_or("too few reads")?;
    let late = Latency::of(&samples.iter().map(|s| s.late_ms).collect::<Vec<_>>(), 0.99)
        .ok_or("no lateness")?;
    let burst_rate = b.jobs as f64 / b.elapsed.as_secs_f64();
    eprintln!(
        "serve: open loop {} requests at {RATE}/s over {:.1} s: all {}; submit {}; read {}; generator late {}",
        samples.len(),
        open.as_secs_f64(),
        all.describe("ms"),
        submits.describe("ms"),
        reads.describe("ms"),
        late.describe("ms")
    );
    eprintln!(
        "serve: burst {} bodies x {JOBS_PER_BURST_BODY} jobs, {} admitted in {:.3} s = {burst_rate:.1} jobs/s; {} batches for {submitted} jobs; non-200: {:?}",
        b.sent,
        b.jobs,
        b.elapsed.as_secs_f64(),
        batches,
        b.statuses
    );
    out.set("ops_per_s", burst_rate);
    out.set("latency_p50_ms", all.p50.value);
    out.set("latency_tail_ms", all.tail.value);
    if !args.trace {
        return Ok(out);
    }

    // Traced run: in-process replays of the same bodies.
    let parse_us = time_each(&inputs.open_bodies, |b| {
        out.check(
            JobRequest::parse_submit_body(b).is_ok(),
            "a sent body does not parse",
        );
    });
    let (batch_us, core) = core_pass(&inputs);
    let whole_started = Instant::now();
    let mut untimed = ServiceCore::new(NODES, SelfTuning::paper_config(Metric::SldwA));
    for chunk in inputs.prime.chunks(8) {
        untimed.submit_batch(chunk);
    }
    for jobs in &inputs.open_jobs {
        std::hint::black_box(untimed.submit_batch(jobs));
    }
    let whole_us = whole_started.elapsed().as_secs_f64() * 1e6;
    let read_ids: Vec<u32> = samples.iter().filter_map(|s| s.read_id).collect();
    let read_us = time_each(&read_ids, |&id| {
        std::hint::black_box(core.job_view(id));
    });
    let in_process = start(&inputs)?;
    let submit_ms = time_each(&inputs.open_jobs, |jobs| {
        let ok = in_process.submit(jobs.clone()).is_ok();
        out.check(ok, "in-process submit refused");
    }) / 1e3;
    in_process.shutdown();

    let http_service_ms = stats::mean(
        &samples
            .iter()
            .filter(|s| s.submit && s.status == 200)
            .map(|s| s.service_ms)
            .collect::<Vec<_>>(),
    );
    let queue_ms = submit_ms - batch_us / 1e3;
    let watch_ms = http_service_ms - submit_ms - parse_us / 1e3;
    let ledger = Ledger::new("mean HTTP submit, send to reply", http_service_ms / 1e3)
        .layer("serve.api.parse", parse_us / 1e6)
        .layer("serve.core.batch", batch_us / 1e6)
        .layer("serve.queue (remainder)", queue_ms / 1e3)
        .layer("watch.http (remainder)", watch_ms / 1e3);
    eprint!("{}", ledger.render());
    out.check(
        queue_ms > -0.1 * http_service_ms && watch_ms > -0.1 * http_service_ms,
        "a derived serve layer is negative beyond the residual bound",
    );
    let count = |code: u16| {
        samples.iter().filter(|s| s.status == code).count()
            + b.statuses.iter().filter(|&&s| s == code).count()
    };
    let timed_pass_us = batch_us * inputs.open_jobs.len() as f64;
    out.set("trace.residual_pct", ledger.residual_pct());
    out.set(
        "trace.overhead_pct",
        100.0 * (timed_pass_us / whole_us - 1.0),
    );
    out.set("serve.api.parse_us", parse_us);
    out.set("serve.core.batch_us", batch_us);
    out.set("serve.core.read_us", read_us);
    out.set("serve.server.submit_ms", submit_ms);
    out.set("serve.queue_ms", queue_ms);
    out.set("watch.http_ms", watch_ms);
    out.set("serve.batches", batches as f64);
    out.set(
        "serve.jobs_per_batch",
        submitted as f64 / batches.max(1) as f64,
    );
    out.set("serve.rejected_429", count(429) as f64);
    out.set("serve.rejected_503", count(503) as f64);
    let without = core_without_recorder_us.expect("traced run measured the recorder-off pass");
    out.set("obs.batch_overhead_pct", 100.0 * (batch_us / without - 1.0));
    out.set("gen.late_p99_ms", late.tail.value);
    out.set("serve.submit_p50_ms", submits.p50.value);
    out.set("serve.submit_tail_ms", submits.tail.value);
    out.set("serve.read_p50_ms", reads.p50.value);
    out.set("serve.read_tail_ms", reads.tail.value);
    out.set("serve.burst_jobs_per_s", burst_rate);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_have_a_fixed_request_count_and_valid_bodies() {
        let a = inputs(9, Duration::from_secs(4));
        assert_eq!(a.schedule.len(), (4.0 * RATE) as usize);
        assert_eq!(a.open_bodies.len(), a.schedule.len().div_ceil(2));
        for (body, jobs) in a.open_bodies.iter().zip(&a.open_jobs) {
            let (parsed, batch) = JobRequest::parse_submit_body(body).unwrap();
            assert!(batch);
            assert_eq!(&parsed, jobs);
        }
        let b = inputs(9, Duration::from_secs(4));
        assert_eq!(a.open_bodies, b.open_bodies);
        assert_eq!(a.burst_bodies, b.burst_bodies);
    }

    #[test]
    fn reply_decoders_accept_v1_and_reject_the_rest() {
        let ok = r#"{"v":1,"decisions":[{"v":1,"id":7},{"v":1,"id":8}]}"#;
        assert_eq!(decision_ids(ok).unwrap(), vec![7, 8]);
        assert!(decision_ids(r#"{"v":2,"decisions":[]}"#).is_err());
        assert!(decision_ids(r#"{"v":1,"decisions":[{"v":1}]}"#).is_err());
        assert!(check_view(r#"{"v":1,"id":3,"status":"waiting"}"#, 3).is_ok());
        assert!(check_view(r#"{"v":1,"id":4,"status":"waiting"}"#, 3).is_err());
    }
}
