//! The five workloads. Each runs for a wall-clock budget, checks every
//! output against the golden verdicts, and fills an [`Outcome`] with the
//! end-to-end metrics (untraced run) or the per-layer metrics (traced
//! run). End-to-end numbers never come from a traced run.

use crate::golden::{self, Golden};
use crate::http::{self, Daemon};
use crate::inputs::{self, Inputs, Mode, Rng, SetupTimes, TSTOP};
use crate::metrics::Outcome;
use crate::stats::{median, percentile};
use crate::sys;
use crate::trace::Trace;
use anafault::protocol::{self, parse_json, CampaignSpec, Json, StreamEvent};
use anafault::{CampaignResult, FaultOutcome, FaultRecord};
use diagnose::{Diagnoser, FaultDictionary};
use spice::Wave;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// The workloads, in the order `perfbench run` executes them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fig5-drop",
        why: "scalar source-model campaign with fault dropping on nproc threads: the honest \
              baseline; nominal, symbolic and scheduling costs show",
    },
    Workload {
        name: "fig5-batched",
        why: "the same campaign through the lockstep batched engine, the only path that reaches \
              spice::batch; must not move fig5-drop",
    },
    Workload {
        name: "fig5-full",
        why: "the paper protocol (resistor model, full length, no dropping): kernel-bound, so \
              stamping, factorisation and MOS evaluation show",
    },
    Workload {
        name: "fig5-served",
        why: "two closed-loop HTTP clients against anafault-serve: admission, work queue, \
              checkpointing and NDJSON streaming show",
    },
    Workload {
        name: "fig5-diagnose",
        why: "signature campaigns, dictionary build and JSON round trip, then noisy \
              Diagnoser::rank queries: the diagnosis layer and its accuracy",
    },
];

/// How one run is driven.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Input builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;
/// Daemon start-ups per served run; their median is the daemon's share of
/// `setup_s`.
const SPAWN_REPS: usize = 9;
/// Shares of a traced run's budget spent untraced and traced, for
/// `trace.overhead_pct`; the rest goes to the decomposed repetition and
/// layer-specific probes.
const UNTRACED_SHARE: f64 = 0.35;
const TRACED_SHARE: f64 = 0.35;
/// Share of a diagnose run spent on dictionary cycles; ranking gets the
/// rest.
const DICT_SHARE: f64 = 0.7;
/// Probe noise for diagnosis queries: Gaussian voltage noise and a
/// uniform per-probe time offset (trigger jitter).
const NOISE_SIGMA_V: f64 = 0.2;
const JITTER_S: f64 = 20e-9;
/// Top-1 accuracy below this fails the diagnose run.
const TOP1_FLOOR_PCT: f64 = 90.0;
/// Largest share of a decomposed repetition's wall time that no layer
/// span may account for.
const CONSERVATION_PCT: f64 = 5.0;

/// Seed streams, so each kind of input draws independent numbers.
const STREAM_DECOMPOSED: u64 = 1 << 32;
const STREAM_SERVED: u64 = 2 << 32;
const STREAM_PROBES: u64 = 3 << 32;

/// Runs workload `name`, recording spans of a traced run into `trace`.
pub fn run(name: &str, p: Params, trace: &mut Trace) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    match name {
        "fig5-drop" => in_process(Mode::Drop, p, trace, &mut out),
        "fig5-batched" => in_process(Mode::Batched, p, trace, &mut out),
        "fig5-full" => in_process(Mode::Full, p, trace, &mut out),
        "fig5-served" => served(p, trace, &mut out),
        "fig5-diagnose" => diagnosis(p, trace, &mut out),
        _ => return Err(format!("unknown workload `{name}`")),
    }
    Ok(out)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What every repetition of a run shares: the inputs, the golden
/// verdicts results are checked against, and the seed.
struct Job {
    inputs: Inputs,
    golden: Golden,
    seed: u64,
}

// ---------------------------------------------------------------------
// In-process campaigns
// ---------------------------------------------------------------------

/// Runs the campaign in `mode` over seeded fault orders until `seconds`
/// have passed (at least once), checking each result. `each` sees every
/// successful result; returns the wall time of each campaign.
fn campaign_loop(
    job: &Job,
    mode: Mode,
    first_rep: u64,
    seconds: f64,
    out: &mut Outcome,
    mut each: impl FnMut(&CampaignResult),
) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut rep = first_rep;
    while rep == first_rep || start.elapsed().as_secs_f64() < seconds {
        let faults = inputs::permuted(&job.inputs.faults, job.seed, rep);
        rep += 1;
        let campaign = inputs::campaign(&job.inputs.testbench, mode);
        let t0 = Instant::now();
        let result = campaign.run(&faults);
        let wall = t0.elapsed().as_secs_f64();
        match result {
            Ok(result) => {
                walls.push(wall);
                out.op(golden::verify(&job.golden, &result, "campaign"));
                each(&result);
            }
            Err(e) => out.op(Err(format!("campaign: {e}"))),
        }
    }
    walls
}

fn in_process(mode: Mode, p: Params, trace: &mut Trace, out: &mut Outcome) {
    let (inputs, setup) = inputs::build_repeatedly(SETUP_REPS);
    let job = Job {
        inputs,
        golden: Golden::for_model(mode.model()),
        seed: p.seed,
    };
    let faults = job.inputs.faults.len() as f64;
    if !p.trace {
        let cpu0 = sys::cpu_seconds(None);
        let walls = campaign_loop(&job, mode, 0, p.seconds, out, |_| {});
        let cpu = sys::cpu_seconds(None) - cpu0;
        let done = walls.len() as f64 * faults;
        out.set("setup_s", setup.total.as_secs_f64());
        out.latencies_ms = walls.iter().map(|w| w * 1e3).collect();
        out.set("latency_p50_ms", median(&walls) * 1e3);
        out.set("faults_per_s", done / walls.iter().sum::<f64>());
        out.set("cpu_ms_per_fault", cpu * 1e3 / done);
        out.set("peak_rss_mb", sys::peak_rss_mb(None));
        return;
    }

    setup_layers(out, &setup, &job.inputs, mode);
    let untraced = campaign_loop(&job, mode, 0, p.seconds * UNTRACED_SHARE, out, |_| {});
    let mut results = Vec::new();
    let (traced, counters) = with_telemetry(|| {
        campaign_loop(&job, mode, 1 << 16, p.seconds * TRACED_SHARE, out, |r| {
            results.push(r.clone())
        })
    });
    out.set("trace.overhead_pct", overhead_pct(&untraced, &traced));
    campaign_layers(out, &results, &counters, mode.threads());
    protocol_layers(out, &job.inputs, results.last());
    let unattributed = decomposed_rep(&job, mode, trace, out);
    out.set("trace.unattributed_pct", unattributed);
}

/// Runs `f` with library telemetry on and a zeroed registry; returns
/// its value and the counters it accumulated.
fn with_telemetry<T>(f: impl FnOnce() -> T) -> (T, BTreeMap<String, u64>) {
    cat_telemetry::global().reset();
    cat_telemetry::set_enabled(true);
    let value = f();
    cat_telemetry::set_enabled(false);
    (value, cat_telemetry::global().counter_values())
}

fn overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    let base = median(untraced);
    if base > 0.0 {
        (median(traced) - base) / base * 100.0
    } else {
        0.0
    }
}

fn setup_layers(out: &mut Outcome, setup: &SetupTimes, inputs: &Inputs, mode: Mode) {
    out.set("layout.gen_ms", ms(setup.layout));
    out.set("extract.extract_ms", ms(setup.extract));
    out.set("lift.extract_faults_ms", ms(setup.lift));
    out.set("lift.faults", inputs.faults.len() as f64);
    let times: Vec<f64> = inputs
        .faults
        .iter()
        .map(|fault| {
            let t0 = Instant::now();
            let injected = anafault::inject(&inputs.testbench, fault, mode.model());
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(injected).ok();
            dt
        })
        .collect();
    out.set("inject.p50_us", median(&times) * 1e6);
}

/// Median of `reps` timings of `f`, in milliseconds.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let xs: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&xs)
}

/// Spec parsing and result writing/parsing, timed on the workload's own
/// documents.
fn protocol_layers(out: &mut Outcome, inputs: &Inputs, result: Option<&CampaignResult>) {
    let spec = inputs::served_spec(&inputs.testbench, inputs.faults.clone(), "perfbench");
    let text = spec.to_json();
    out.set(
        "protocol.spec_parse_ms",
        time_ms(5, || CampaignSpec::from_json(&text)),
    );
    if let Some(result) = result {
        let doc = protocol::to_json(result);
        out.set(
            "protocol.result_write_ms",
            time_ms(5, || protocol::to_json(result)),
        );
        out.set(
            "protocol.result_parse_ms",
            time_ms(5, || protocol::from_json(&doc)),
        );
    }
}

/// Campaign, kernel and batch layers from finished results and the
/// telemetry counters accumulated while they ran.
fn campaign_layers(
    out: &mut Outcome,
    results: &[CampaignResult],
    counters: &BTreeMap<String, u64>,
    threads: usize,
) {
    if results.is_empty() {
        return;
    }
    let per = |f: &dyn Fn(&CampaignResult) -> f64| -> f64 {
        median(&results.iter().map(f).collect::<Vec<_>>())
    };
    let sum = |r: &CampaignResult, f: &dyn Fn(&FaultRecord) -> f64| -> f64 {
        r.records.iter().map(f).sum()
    };
    let busy = |r: &CampaignResult| sum(r, &|x| x.sim_seconds);
    let threads = threads as f64;
    out.set("campaign.nominal_ms", per(&|r| r.nominal_seconds) * 1e3);
    out.set("campaign.fault_busy_s", per(&busy));
    let fault_ms: Vec<f64> = results
        .iter()
        .flat_map(|r| r.records.iter().map(|x| x.sim_seconds * 1e3))
        .collect();
    out.set("campaign.fault_p50_ms", percentile(&fault_ms, 50.0));
    out.set("campaign.fault_p85_ms", percentile(&fault_ms, 85.0));
    out.set(
        "campaign.drop_saved_frac",
        per(&|r| {
            let saved = sum(r, &|x| match x.outcome {
                FaultOutcome::Detected { at, .. } if x.telemetry.early_stopped => TSTOP - at,
                _ => 0.0,
            });
            saved / (r.records.len() as f64 * TSTOP)
        }),
    );
    out.set(
        "campaign.parallel_eff",
        per(&|r| busy(r) / (threads * (r.total_seconds - r.nominal_seconds))),
    );
    out.set(
        "campaign.sched_overhead_ms",
        per(&|r| (r.total_seconds - r.nominal_seconds - busy(r) / threads) * 1e3),
    );
    let newton = |r: &CampaignResult| sum(r, &|x| x.telemetry.newton_iterations as f64);
    let steps = |r: &CampaignResult| sum(r, &|x| x.telemetry.steps as f64);
    out.set("spice.us_per_newton", per(&|r| busy(r) / newton(r)) * 1e6);
    out.set("spice.newton_iterations", per(&newton));
    out.set("spice.steps", per(&steps));
    out.set(
        "spice.halvings",
        per(&|r| sum(r, &|x| x.telemetry.halvings as f64)),
    );
    out.set("spice.newton_per_step", per(&|r| newton(r) / steps(r)));
    out.set(
        "spice.refactorisations",
        per(&|r| sum(r, &|x| x.telemetry.solver.refactorisations as f64)),
    );
    out.set(
        "spice.repivots",
        per(&|r| sum(r, &|x| x.telemetry.solver.repivots as f64)),
    );
    out.set(
        "spice.dense_fallbacks",
        per(&|r| sum(r, &|x| x.telemetry.solver.dense_fallbacks as f64)),
    );
    let n = results.len() as f64;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64 / n;
    out.set(
        "spice.convergence_failures",
        counter("spice.newton.convergence_failures"),
    );
    out.set(
        "spice.pattern_builds",
        counter("spice.sparse.pattern_builds"),
    );
    out.set(
        "spice.pattern_hit_ratio",
        per(&|r| {
            let t = &r.telemetry;
            let lookups = t.pattern_cache_hits + t.pattern_cache_misses;
            if lookups == 0 {
                0.0
            } else {
                t.pattern_cache_hits as f64 / lookups as f64
            }
        }),
    );
    out.set("batch.lanes", counter("spice.batch.lanes"));
    out.set(
        "batch.batched_faults",
        per(&|r| r.telemetry.batched_faults as f64),
    );
    out.set(
        "batch.lane_yield",
        per(&|r| r.telemetry.batched_faults as f64 / r.records.len() as f64),
    );
    out.set("batch.ejections", per(&|r| r.telemetry.ejections as f64));
    out.set(
        "batch.ejected_wall_frac",
        per(&|r| {
            let ejected = sum(r, &|x| {
                if x.telemetry.ejected {
                    x.sim_seconds
                } else {
                    0.0
                }
            });
            ejected / busy(r)
        }),
    );
    out.set(
        "batch.compactions",
        per(&|r| r.telemetry.lane_compactions as f64),
    );
    out.set("batch.refills", per(&|r| r.telemetry.lane_refills as f64));
    out.set(
        "diagnose.onset_share",
        per(&|r| {
            let onset = sum(r, &|x| match x.outcome {
                FaultOutcome::Detected { at, .. } => at,
                _ => TSTOP,
            });
            onset / (r.records.len() as f64 * TSTOP)
        }),
    );
}

/// One repetition split into its layer calls — `prepare`, one
/// `simulate_fault` per fault on nproc threads, `finish`, and a protocol
/// round trip — with a span around each. Returns the share (%) of the
/// repetition's wall time that no layer span accounts for along the
/// blocking path; above [`CONSERVATION_PCT`] it counts as a failure.
fn decomposed_rep(job: &Job, mode: Mode, trace: &mut Trace, out: &mut Outcome) -> f64 {
    let request = 0;
    let faults = inputs::permuted(&job.inputs.faults, job.seed, STREAM_DECOMPOSED);
    let campaign = inputs::campaign(&job.inputs.testbench, mode);
    let root_start = Instant::now();
    let prepared = match campaign.prepare() {
        Ok(prepared) => prepared,
        Err(e) => {
            out.op(Err(format!("prepare: {e}")));
            return 0.0;
        }
    };
    let prepare_end = Instant::now();
    let next = AtomicUsize::new(0);
    type Done = Vec<(usize, FaultRecord, Instant, Instant)>;
    let sim_start = Instant::now();
    let workers: Vec<(Instant, Instant, Done)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..inputs::nproc())
            .map(|_| {
                s.spawn(|| {
                    let start = Instant::now();
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= faults.len() {
                            break;
                        }
                        let t0 = Instant::now();
                        let record = prepared.simulate_fault(&faults[i]);
                        done.push((i, record, t0, Instant::now()));
                    }
                    (start, Instant::now(), done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a simulation worker panicked"))
            .collect()
    });
    let sim_end = Instant::now();
    let mut slots: Vec<Option<FaultRecord>> = vec![None; faults.len()];
    for (_, _, done) in &workers {
        for (i, record, _, _) in done {
            slots[*i] = Some(record.clone());
        }
    }
    let records: Vec<FaultRecord> = slots
        .into_iter()
        .map(|r| r.expect("every fault simulated once"))
        .collect();
    let finish_start = Instant::now();
    let result = prepared.finish(records, 0, (finish_start - root_start).as_secs_f64());
    let finish_end = Instant::now();
    let text = protocol::to_json(&result);
    let reparsed = protocol::from_json(&text);
    let root_end = Instant::now();
    out.op(golden::verify(
        &job.golden,
        &result,
        "decomposed repetition",
    ));
    out.op(match reparsed {
        Ok(back) if back.records.len() == result.records.len() => Ok(()),
        Ok(_) => Err("protocol round trip lost records".into()),
        Err(e) => Err(format!("protocol round trip: {e}")),
    });

    let root = trace.add("repetition", None, request, root_start, root_end);
    trace.add(
        "campaign.prepare",
        Some(root),
        request,
        root_start,
        prepare_end,
    );
    let sim = trace.add("campaign.simulate", Some(root), request, sim_start, sim_end);
    let mut critical = None;
    for (start, end, done) in &workers {
        let w = trace.add("campaign.worker", Some(sim), request, *start, *end);
        for (_, _, t0, t1) in done {
            trace.add("campaign.simulate_fault", Some(w), request, *t0, *t1);
        }
        if critical.is_none_or(|(_, e)| end > e) {
            critical = Some((w, end));
        }
    }
    trace.add(
        "campaign.finish",
        Some(root),
        request,
        finish_start,
        finish_end,
    );
    trace.add(
        "protocol.round_trip",
        Some(root),
        request,
        finish_end,
        root_end,
    );
    let (critical, _) = critical.expect("at least one worker");
    let unattributed = trace.self_time(root) + trace.self_time(sim) + trace.self_time(critical);
    let pct = unattributed / trace.duration(root) * 100.0;
    out.op(if pct <= CONSERVATION_PCT {
        Ok(())
    } else {
        Err(format!(
            "trace conservation: {pct:.2}% of the repetition is outside every layer span"
        ))
    });
    pct
}

// ---------------------------------------------------------------------
// Served campaigns
// ---------------------------------------------------------------------

/// The daemon binary built next to this one.
fn daemon_exe() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let daemon = exe.with_file_name("anafault-serve");
    if daemon.exists() {
        Ok(daemon)
    } else {
        Err(format!(
            "{} not found; build the perfbench package",
            daemon.display()
        ))
    }
}

/// A state directory inside the working directory.
fn state_dir(k: usize) -> PathBuf {
    Path::new(".perfbench_tmp").join(format!("state-{}-{k}", std::process::id()))
}

/// What one client saw of one served campaign.
struct Served {
    posted: Instant,
    submitted: Instant,
    events_start: Instant,
    first_event: Instant,
    done: Instant,
    first_fault_s: f64,
    gaps_ms: Vec<f64>,
    stream_bytes: u64,
    state_bytes: u64,
    result: CampaignResult,
}

impl Served {
    fn latency(&self) -> f64 {
        (self.done - self.posted).as_secs_f64()
    }

    fn first_event(&self) -> f64 {
        (self.first_event - self.posted).as_secs_f64()
    }
}

/// Submits one campaign and tails its event stream to the result line.
fn serve_one(daemon: &Daemon, body: &str, golden: &Golden) -> Result<Served, String> {
    let addr = daemon.addr.as_str();
    let posted = Instant::now();
    let (status, reply) =
        http::request(addr, "POST", "/campaigns", body).map_err(|e| format!("POST: {e}"))?;
    let submitted = Instant::now();
    if status != 201 {
        return Err(format!(
            "POST /campaigns answered {status}: {}",
            reply.trim()
        ));
    }
    let id = parse_json(&reply)
        .ok()
        .and_then(|doc| {
            doc.get("id")
                .and_then(|v| v.as_str().ok().map(str::to_string))
        })
        .ok_or_else(|| format!("POST reply without an id: {}", reply.trim()))?;
    let mut first: Option<(Instant, String)> = None;
    let mut last = None;
    let mut gaps_ms = Vec::new();
    let mut result_line = None;
    let events_start = Instant::now();
    let (status, stream_bytes) = http::stream(
        addr,
        "GET",
        &format!("/campaigns/{id}/events"),
        "",
        |line| {
            let now = Instant::now();
            if line.starts_with("{\"event\": \"result\"") {
                result_line = Some((now, line.to_string()));
            } else if first.is_none() {
                first = Some((now, line.to_string()));
            }
            if let Some(prev) = last.replace(now) {
                gaps_ms.push(ms(now - prev));
            }
            Ok(())
        },
    )
    .map_err(|e| format!("events of {id}: {e}"))?;
    if status != 200 {
        return Err(format!("GET events of {id} answered {status}"));
    }
    let (done, line) =
        result_line.ok_or_else(|| format!("events of {id} ended without a result"))?;
    let result = match protocol::event_from_json(&line) {
        Ok(StreamEvent::Result(result)) => result,
        Ok(_) => return Err(format!("events of {id}: last line is not a result")),
        Err(e) => return Err(format!("events of {id}: result line: {e}")),
    };
    golden::verify(golden, &result, &format!("served campaign {id}"))?;
    let (first_event, first_line) = first.ok_or_else(|| format!("events of {id}: no progress"))?;
    let first_fault_s = match protocol::event_from_json(&first_line) {
        Ok(StreamEvent::Progress(p)) => p.record.sim_seconds,
        _ => return Err(format!("events of {id}: first line is not progress")),
    };
    let state_bytes = ["spec.json", "ndjson", "result.json"]
        .iter()
        .filter_map(|ext| std::fs::metadata(daemon.state_dir().join(format!("{id}.{ext}"))).ok())
        .map(|m| m.len())
        .sum();
    Ok(Served {
        posted,
        submitted,
        events_start,
        first_event,
        done,
        first_fault_s,
        gaps_ms,
        stream_bytes,
        state_bytes,
        result,
    })
}

/// Closed loop: each client submits its next campaign when the previous
/// one's result line arrives, until `seconds` have passed. Returns every
/// completed campaign and the window's wall time.
fn serve_window(
    daemon: &Daemon,
    job: &Job,
    first: u64,
    seconds: f64,
    out: &mut Outcome,
) -> (Vec<Served>, f64) {
    let clients = inputs::nproc().clamp(1, 2);
    let start = Instant::now();
    let per_client: Vec<Vec<Result<Served, String>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut done = Vec::new();
                    let mut k = 0u64;
                    while k == 0 || start.elapsed().as_secs_f64() < seconds {
                        let rep = STREAM_SERVED + first + k * clients as u64 + c as u64;
                        let faults = inputs::permuted(&job.inputs.faults, job.seed, rep);
                        let tag = format!("perfbench-{c}");
                        let spec = inputs::served_spec(&job.inputs.testbench, faults, &tag);
                        done.push(serve_one(daemon, &spec.to_json(), &job.golden));
                        k += 1;
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut served = Vec::new();
    for outcome in per_client.into_iter().flatten() {
        match outcome {
            Ok(s) => {
                out.op(Ok(()));
                served.push(s);
            }
            Err(e) => out.op(Err(e)),
        }
    }
    (served, wall)
}

/// The daemon's `/metrics` counters.
fn daemon_counters(daemon: &Daemon) -> BTreeMap<String, u64> {
    let Ok((200, body)) = http::request(&daemon.addr, "GET", "/metrics", "") else {
        return BTreeMap::new();
    };
    match parse_json(&body) {
        Ok(Json::Object(map)) => map
            .into_iter()
            .filter_map(|(k, v)| v.as_u64().ok().map(|v| (k, v)))
            .collect(),
        _ => BTreeMap::new(),
    }
}

fn served(p: Params, trace: &mut Trace, out: &mut Outcome) {
    let (inputs, setup) = inputs::build_repeatedly(SETUP_REPS);
    let job = Job {
        inputs,
        golden: Golden::for_model(anafault::HardFaultModel::Source),
        seed: p.seed,
    };
    let exe = match daemon_exe() {
        Ok(exe) => exe,
        Err(e) => return out.op(Err(e)),
    };
    let mut starts = Vec::new();
    let mut daemon = None;
    for k in 0..SPAWN_REPS {
        drop(daemon.take());
        let t0 = Instant::now();
        match Daemon::start(&exe, inputs::nproc(), state_dir(k)) {
            Ok(d) => {
                starts.push(t0.elapsed().as_secs_f64());
                daemon = Some(d);
            }
            Err(e) => return out.op(Err(format!("daemon start: {e}"))),
        }
    }
    let daemon = daemon.expect("the last start succeeded");
    let pid = Some(daemon.pid());

    if !p.trace {
        let cpu0 = sys::cpu_seconds(pid);
        let (campaigns, wall) = serve_window(&daemon, &job, 0, p.seconds, out);
        let cpu = sys::cpu_seconds(pid) - cpu0;
        let done: f64 = campaigns
            .iter()
            .map(|s| s.result.records.len() as f64)
            .sum();
        let latencies: Vec<f64> = campaigns.iter().map(Served::latency).collect();
        // The client builds its inputs before it can submit anything.
        out.set("setup_s", setup.total.as_secs_f64() + median(&starts));
        out.latencies_ms = latencies.iter().map(|l| l * 1e3).collect();
        out.set("latency_p50_ms", median(&latencies) * 1e3);
        out.set("faults_per_s", done / wall);
        out.set("cpu_ms_per_fault", cpu * 1e3 / done.max(1.0));
        out.set("peak_rss_mb", sys::peak_rss_mb(pid));
        return;
    }

    setup_layers(out, &setup, &job.inputs, Mode::Drop);
    let (untraced, _) = serve_window(&daemon, &job, 0, p.seconds * UNTRACED_SHARE, out);
    let before = daemon_counters(&daemon);
    let (traced, _) = serve_window(&daemon, &job, 1 << 16, p.seconds * TRACED_SHARE, out);
    let after = daemon_counters(&daemon);
    let delta: BTreeMap<String, u64> = after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
        .collect();
    let latency = |s: &[Served]| s.iter().map(Served::latency).collect::<Vec<_>>();
    out.set(
        "trace.overhead_pct",
        overhead_pct(&latency(&untraced), &latency(&traced)),
    );
    let results: Vec<CampaignResult> = traced.iter().map(|s| s.result.clone()).collect();
    campaign_layers(out, &results, &delta, inputs::nproc());
    protocol_layers(out, &job.inputs, results.last());

    let col = |f: &dyn Fn(&Served) -> f64| traced.iter().map(f).collect::<Vec<f64>>();
    let first_events = col(&|s| s.first_event() * 1e3);
    let gaps: Vec<f64> = traced.iter().flat_map(|s| s.gaps_ms.clone()).collect();
    let n = traced.len().max(1) as f64;
    out.set(
        "serve.submit_p50_ms",
        median(&col(&|s| ms(s.submitted - s.posted))),
    );
    out.set(
        "serve.queue_wait_p50_ms",
        median(&col(&|s| {
            ((s.first_event - s.submitted).as_secs_f64() - s.first_fault_s).max(0.0) * 1e3
        })),
    );
    out.set("serve.first_event_p50_ms", percentile(&first_events, 50.0));
    out.set("serve.first_event_p85_ms", percentile(&first_events, 85.0));
    out.set(
        "serve.latency_p85_ms",
        percentile(&col(&|s| s.latency() * 1e3), 85.0),
    );
    out.set("serve.event_gap_p50_ms", percentile(&gaps, 50.0));
    out.set("serve.event_gap_p99_ms", percentile(&gaps, 99.0));
    out.set(
        "serve.result_lag_ms",
        median(&col(&|s| {
            // The gap in front of the result line is the last one.
            s.gaps_ms.last().copied().unwrap_or(0.0)
        })),
    );
    out.set(
        "serve.stream_kb_per_campaign",
        col(&|s| s.stream_bytes as f64).iter().sum::<f64>() / n / 1e3,
    );
    out.set(
        "serve.state_kb_per_campaign",
        col(&|s| s.state_bytes as f64).iter().sum::<f64>() / n / 1e3,
    );
    let width = results
        .iter()
        .flat_map(|r| r.records.iter().map(|x| x.telemetry.batch_width))
        .max()
        .unwrap_or(0);
    out.set("serve.batch_width_max", f64::from(width));

    // Per request: a submit span and an event-stream span under the
    // request; what they do not cover is client-side time.
    let mut unattributed = Vec::new();
    for (k, s) in traced.iter().enumerate() {
        let request = k as u64;
        let root = trace.add("serve.request", None, request, s.posted, s.done);
        trace.add("serve.submit", Some(root), request, s.posted, s.submitted);
        trace.add("serve.events", Some(root), request, s.events_start, s.done);
        unattributed.push(trace.self_time(root) / trace.duration(root) * 100.0);
    }
    out.set("trace.unattributed_pct", median(&unattributed));
}

// ---------------------------------------------------------------------
// Diagnosis
// ---------------------------------------------------------------------

/// One dictionary cycle's timings.
struct DictCycle {
    campaign_s: f64,
    build_ms: f64,
    roundtrip_ms: f64,
}

/// Signature campaign, dictionary build, and dictionary JSON round trip,
/// repeated until `seconds` have passed (at least once). Returns the
/// cycles, the last dictionary, and the faults its campaign detected.
fn dictionary_loop(
    job: &Job,
    first_rep: u64,
    seconds: f64,
    out: &mut Outcome,
    mut each: impl FnMut(&CampaignResult),
) -> (Vec<DictCycle>, Option<(FaultDictionary, Vec<usize>)>) {
    let start = Instant::now();
    let mut cycles = Vec::new();
    let mut last = None;
    let mut rep = first_rep;
    while rep == first_rep || start.elapsed().as_secs_f64() < seconds {
        let faults = inputs::permuted(&job.inputs.faults, job.seed, rep);
        rep += 1;
        let campaign = inputs::campaign(&job.inputs.testbench, Mode::Signed);
        let t0 = Instant::now();
        let result = match campaign.run(&faults) {
            Ok(result) => result,
            Err(e) => {
                out.op(Err(format!("signature campaign: {e}")));
                continue;
            }
        };
        let t1 = Instant::now();
        let dict = anafault::build_dictionary(&result);
        let t2 = Instant::now();
        out.op(golden::verify(&job.golden, &result, "signature campaign"));
        each(&result);
        let dict = match dict {
            Ok(dict) => dict,
            Err(e) => {
                out.op(Err(format!("dictionary build: {e}")));
                continue;
            }
        };
        let t3 = Instant::now();
        let text = protocol::dictionary_to_json(&dict);
        let reloaded = protocol::dictionary_from_json(&text);
        let same = reloaded
            .as_ref()
            .is_ok_and(|d| protocol::dictionary_to_json(d) == text);
        let t4 = Instant::now();
        out.op(if same {
            Ok(())
        } else {
            Err("dictionary does not survive its JSON round trip".into())
        });
        cycles.push(DictCycle {
            campaign_s: (t1 - t0).as_secs_f64(),
            build_ms: ms(t2 - t1),
            roundtrip_ms: ms(t4 - t3),
        });
        let detected = result
            .records
            .iter()
            .filter(|r| matches!(r.outcome, FaultOutcome::Detected { .. }))
            .map(|r| r.fault.id)
            .collect();
        last = Some((dict, detected));
    }
    (cycles, last)
}

/// Ranks seeded noisy probes of the `detected` faults until `seconds`
/// have passed; returns per-call times (s) and top-1/top-3 hit counts.
fn rank_loop(
    (dict, detected): &(FaultDictionary, Vec<usize>),
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> (Vec<f64>, u64, u64) {
    let probes: Vec<(usize, Vec<(String, Wave)>)> = detected
        .iter()
        .filter_map(|&id| dict.probe_waves(id).map(|w| (id, w)))
        .collect();
    if probes.is_empty() {
        out.op(Err("dictionary has no detected faults to probe".into()));
        return (Vec::new(), 0, 0);
    }
    let diagnoser = Diagnoser::new(dict);
    let mut rng = Rng::new(seed, STREAM_PROBES);
    let (mut times, mut top1, mut top3) = (Vec::new(), 0, 0);
    let start = Instant::now();
    while times.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (id, clean) = &probes[rng.below(probes.len())];
        let shift = (2.0 * rng.uniform() - 1.0) * JITTER_S;
        let probe: Vec<(String, Wave)> = clean
            .iter()
            .map(|(node, w)| {
                let t = w.times().iter().map(|t| t + shift).collect();
                let v = w
                    .values()
                    .iter()
                    .map(|v| v + NOISE_SIGMA_V * rng.gaussian())
                    .collect();
                (node.clone(), Wave::new(t, v))
            })
            .collect();
        let t0 = Instant::now();
        let ranked = diagnoser.rank(&probe);
        times.push(t0.elapsed().as_secs_f64());
        match ranked {
            Ok(ranked) => {
                out.op(Ok(()));
                let hit = |c: &diagnose::Candidate| c.fault_ids.contains(id);
                top1 += u64::from(ranked.first().is_some_and(hit));
                top3 += u64::from(ranked.iter().take(3).any(hit));
            }
            Err(e) => out.op(Err(format!("rank: {e}"))),
        }
    }
    (times, top1, top3)
}

fn diagnosis(p: Params, trace: &mut Trace, out: &mut Outcome) {
    let (inputs, setup) = inputs::build_repeatedly(SETUP_REPS);
    let job = Job {
        inputs,
        golden: Golden::for_model(anafault::HardFaultModel::Source),
        seed: p.seed,
    };
    let faults = job.inputs.faults.len() as f64;
    if !p.trace {
        let cpu0 = sys::cpu_seconds(None);
        let (cycles, dict) = dictionary_loop(&job, 0, p.seconds * DICT_SHARE, out, |_| {});
        let cpu = sys::cpu_seconds(None) - cpu0;
        let Some(dict) = dict else { return };
        let remaining = p.seconds * (1.0 - DICT_SHARE);
        let (times, top1, _) = rank_loop(&dict, p.seed, remaining, out);
        check_accuracy(top1, times.len(), out);
        let campaign_s: f64 = cycles.iter().map(|c| c.campaign_s).sum();
        let done = cycles.len() as f64 * faults;
        out.set("setup_s", setup.total.as_secs_f64());
        out.latencies_ms = times.iter().map(|t| t * 1e3).collect();
        out.set("latency_p50_ms", median(&times) * 1e3);
        out.set("faults_per_s", done / campaign_s);
        out.set("cpu_ms_per_fault", cpu * 1e3 / done);
        out.set("peak_rss_mb", sys::peak_rss_mb(None));
        return;
    }

    setup_layers(out, &setup, &job.inputs, Mode::Signed);
    // Half the usual traced and untraced shares: the rest of the budget
    // goes to ranking.
    let share = (UNTRACED_SHARE + TRACED_SHARE) / 4.0;
    let (untraced, _) = dictionary_loop(&job, 0, p.seconds * share, out, |_| {});
    let mut results = Vec::new();
    let ((traced, dict), counters) = with_telemetry(|| {
        dictionary_loop(&job, 1 << 16, p.seconds * share, out, |r| {
            results.push(r.clone())
        })
    });
    let campaign_s = |c: &[DictCycle]| c.iter().map(|c| c.campaign_s).collect::<Vec<_>>();
    out.set(
        "trace.overhead_pct",
        overhead_pct(&campaign_s(&untraced), &campaign_s(&traced)),
    );
    campaign_layers(out, &results, &counters, Mode::Signed.threads());
    protocol_layers(out, &job.inputs, results.last());
    let unattributed = decomposed_rep(&job, Mode::Signed, trace, out);
    out.set("trace.unattributed_pct", unattributed);
    let Some(dict) = dict else { return };
    out.set("diagnose.signed_campaign_s", median(&campaign_s(&traced)));
    out.set(
        "diagnose.build_ms",
        median(&traced.iter().map(|c| c.build_ms).collect::<Vec<_>>()),
    );
    out.set(
        "diagnose.json_roundtrip_ms",
        median(&traced.iter().map(|c| c.roundtrip_ms).collect::<Vec<_>>()),
    );
    out.set("diagnose.entries", dict.0.entries.len() as f64);
    out.set("diagnose.classes", dict.0.classes.len() as f64);
    let remaining = p.seconds * (1.0 - UNTRACED_SHARE - TRACED_SHARE);
    let (times, top1, top3) = rank_loop(&dict, p.seed, remaining, out);
    check_accuracy(top1, times.len(), out);
    let n = times.len().max(1) as f64;
    out.set("diagnose.rank_p50_us", percentile(&times, 50.0) * 1e6);
    out.set("diagnose.rank_p99_us", percentile(&times, 99.0) * 1e6);
    out.set("diagnose.top1_pct", top1 as f64 / n * 100.0);
    out.set("diagnose.top3_pct", top3 as f64 / n * 100.0);
}

fn check_accuracy(top1: u64, queries: usize, out: &mut Outcome) {
    let pct = top1 as f64 / queries.max(1) as f64 * 100.0;
    out.op(if pct >= TOP1_FLOOR_PCT {
        Ok(())
    } else {
        Err(format!(
            "top-1 accuracy {pct:.2}% is below the {TOP1_FLOOR_PCT}% floor"
        ))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_these_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = parse_json(&text).expect("BENCHMARK.json parses");
        let listed = doc.field("workloads").unwrap().as_array().unwrap();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (entry, w) in listed.iter().zip(WORKLOADS) {
            assert_eq!(entry.field("name").unwrap().as_str().unwrap(), w.name);
            assert_eq!(entry.field("why").unwrap().as_str().unwrap(), w.why);
        }
    }
}
