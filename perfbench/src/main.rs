//! perfbench — the routing plane's benchmark.
//!
//! ```text
//! perfbench --workload route-fresh|route-storm|predict-feedback
//!           --seed N --seconds S --trace 0|1
//!           --scoutctl PATH --scratch DIR [--world-seed W]
//! ```
//!
//! Each run generates its inputs from the seed within the world that
//! `scoutctl serve --seed W` builds (W defaults to 42), starts fresh
//! `scoutctl serve` processes (world seed W, deployed defaults), drives
//! one of them over HTTP for `S` seconds, then trains its own copy of
//! the server's models and checks every answer against a reference
//! computed offline. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` also replays the run's inputs in process through each
//! layer's public functions and reports per-layer metrics. The last
//! stdout line is one JSON object; everything above it is the report.
//! `perfbench/run.sh` builds both binaries and passes the paths.

mod load;
mod offline;
mod plan;
mod server;
mod stats;

use load::{Req, Shot};
use offline::{Layers, Models, PredictAnswer, Reference, RouteAnswer};
use plan::{Kind, Plan, Properties};
use server::{Scrape, Server};
use stats::{mean, percentile, ratio, windowed_rate};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Servers started per `--trace 0` run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Latency limit for a route to count toward goodput (the limit the
/// storm bench gates on).
const ROUTE_LIMIT_MS: f64 = 750.0;
/// Latency limit for a predict (the server's `predict-latency` SLO).
const PREDICT_LIMIT_MS: f64 = 250.0;
/// A traced run audits one in this many suppressed open-loop answers
/// against their own reference.
const AUDIT_EVERY: usize = 4;
/// `/healthz` round trips timed on the drained server in a traced run.
const HEALTHZ_PROBES: usize = 200;
/// The world every run serves unless `--world-seed` names another: the
/// `scoutctl` default.
const WORLD_SEED: u64 = 42;

/// Per-layer metrics: name, unit, and the end-to-end metric (on which
/// workload) each should move.
const LAYER_METRICS: [(&str, &str, &str); 28] = [
    ("serve.healthz_p50_us", "us", "p50_ms on predict-feedback"),
    ("serve.unattributed_ms", "ms", "p50_ms on all workloads"),
    ("serve.shed_ratio", "ratio", "error_ratio and goodput_rps"),
    (
        "batcher.occupancy_mean",
        "count",
        "goodput_rps on predict-feedback",
    ),
    ("batcher.wait_ms", "ms", "p50_ms on predict-feedback"),
    (
        "stormroute.batch_mean",
        "count",
        "goodput_rps on route-fresh",
    ),
    ("fleet.dispatch_ms", "ms", "p50_ms on route-fresh"),
    (
        "fleet.team_busy_ms",
        "ms",
        "p50_ms and goodput_rps on route-fresh",
    ),
    ("fleet.parallel_eff", "ratio", "p50_ms on route-fresh"),
    (
        "fleet.fanouts_per_req",
        "ratio",
        "dup_p99_ms and p99_ms on route-storm, goodput_rps on route-fresh",
    ),
    ("monitoring.build_ms", "ms", "p50_ms on all workloads"),
    (
        "scout.prepare_ms",
        "ms",
        "p50_ms and goodput_rps on route-fresh",
    ),
    (
        "scout.prepare_calls_per_req",
        "ratio",
        "p50_ms and goodput_rps on route-fresh",
    ),
    (
        "scout.distinct_rows_per_req",
        "ratio",
        "goodput_rps on route-fresh",
    ),
    ("scout.classify_ms", "ms", "p50_ms on route-fresh"),
    ("featcache.hit_ratio", "ratio", "p50_ms on all workloads"),
    ("featcache.bytes", "bytes", "peak_rss_mb"),
    ("featcache.evictions", "count", "peak_rss_mb"),
    ("ml.score_ms", "ms", "p50_ms on route-fresh"),
    ("master.route_us", "us", "p50_ms on route-fresh"),
    ("storm.front_us", "us", "dup_p50_ms on route-storm"),
    (
        "storm.suppressed_ratio",
        "ratio",
        "dup_p50_ms and fleet.fanouts_per_req on route-storm",
    ),
    (
        "storm.novel_suppressed",
        "ratio",
        "accuracy on route-fresh and route-storm",
    ),
    ("storm.throttled", "count", "error_ratio on route-storm"),
    (
        "wal.appends_per_fsync",
        "ratio",
        "write_p99_ms and p99_ms on predict-feedback",
    ),
    ("wal.fsync_p50_ms", "ms", "write_p99_ms on predict-feedback"),
    (
        "pool.queue_depth_end",
        "count",
        "goodput_rps on all workloads",
    ),
    ("pool.tasks_per_req", "ratio", "p50_ms on route-fresh"),
];

struct Args {
    kind: Kind,
    seed: u64,
    world_seed: u64,
    seconds: f64,
    trace: bool,
    scoutctl: PathBuf,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let pos = raw
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        raw.get(pos + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let kind = Kind::from_name(&workload).ok_or_else(|| {
        format!("unknown workload '{workload}' (route-fresh, route-storm, predict-feedback)")
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let world_seed = if raw.iter().any(|a| a == "--world-seed") {
        get("--world-seed")?
            .parse()
            .map_err(|e| format!("--world-seed: {e}"))?
    } else {
        WORLD_SEED
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    Ok(Args {
        kind,
        seed,
        world_seed,
        seconds,
        trace,
        scoutctl: PathBuf::from(get("--scoutctl")?),
        scratch: PathBuf::from(get("--scratch")?),
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let started = Instant::now();
    let kind = args.kind;
    std::fs::create_dir_all(&args.scratch)
        .map_err(|e| format!("cannot create {}: {e}", args.scratch.display()))?;
    let mut phases: Vec<String> = Vec::new();
    let mut lap = Instant::now();
    let mut phase = |name: &str| {
        phases.push(format!("{name} {:.1} s", lap.elapsed().as_secs_f64()));
        lap = Instant::now();
    };
    let world = Arc::new(plan::world(args.world_seed));
    let plan = plan::plan(kind, &world, args.seed);
    phase("inputs");

    // Set-up: fresh servers, timed from spawn to ready; the last serves
    // the run, so its dedup tables and caches start cold.
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..if args.trace { 1 } else { SETUP_REPEATS } {
        let s = Server::start(&args.scoutctl, kind, args.world_seed, &args.scratch)?;
        setups.push(s.setup_s);
        server = Some(s);
    }
    let server = server.expect("at least one server started");
    phase("set-up");
    let cpu_before = cpu_ticks();
    let shots = load::drive(kind, &plan, &server.addr, args.seconds);
    let steal = cpu_before
        .zip(cpu_ticks())
        .map(|((t0, s0), (t1, s1))| ratio((s1 - s0) as f64, (t1 - t0) as f64));
    let healthz_us = if args.trace {
        healthz_probes(&server.addr)?
    } else {
        Vec::new()
    };
    let scrape = server.scrape()?;
    let peak_rss_mb = server.peak_rss_mb()?;
    drop(server);
    phase("load");

    // Offline: the server's models, then a reference for every answer.
    let models = match kind {
        Kind::PredictFeedback => Models::phynet(&world),
        _ => Models::synthetic_fleet(&world, kind.teams()),
    };
    phase("training");
    let open: Vec<usize> = (0..shots.len())
        .filter(|&i| shots[i].open_loop() && answerable(shots[i].req))
        .collect();
    let (layers, mut refs) = if !args.trace {
        (None, Vec::new())
    } else if kind.routes() {
        let (layers, refs) = offline::replay_routes(&models, &world, &plan, &shots, &open)?;
        (Some(layers), refs)
    } else {
        let layers = offline::replay_predicts(&models, &world, &plan, &shots, &open)?;
        (Some(layers), Vec::new())
    };
    phase("replay");
    let covered: std::collections::BTreeSet<usize> = refs.iter().map(|(i, _)| *i).collect();
    // A suppressed route is checked against its fingerprint's original
    // answer. A traced run also audits every AUDIT_EVERY-th suppressed
    // open-loop answer against its own reference (`storm.novel_suppressed`).
    let mut suppressed_seen = 0;
    let rest: Vec<usize> = (0..shots.len())
        .filter(|&i| {
            let shot = &shots[i];
            if !answerable(shot.req) || !shot.ok() || covered.contains(&i) {
                return false;
            }
            if !matches!(RouteAnswer::parse(&shot.body), Some((_, true))) {
                return true;
            }
            suppressed_seen += 1;
            args.trace && shot.open_loop() && suppressed_seen % AUDIT_EVERY == 1
        })
        .collect();
    let registry = models.registry()?;
    refs.extend(offline::references(
        &models, &registry, &world, &plan, &shots, &rest,
    ));
    let refs: BTreeMap<usize, Reference> = refs.into_iter().collect();
    phase("references");
    let check = Check::new(&models, &plan, &shots, &refs);

    let report = Report {
        args,
        plan: &plan,
        shots: &shots,
        check: &check,
        setups: &setups,
        peak_rss_mb,
    };
    report.print_header(&world);
    match steal {
        Some(share) => println!(
            "cpu steal during the load phases: {:.2}% of host CPU time",
            100.0 * share
        ),
        None => println!("cpu steal during the load phases: unknown"),
    }
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let end_to_end = report.end_to_end();
    let correct = match &layers {
        None => {
            metrics = end_to_end;
            check.failed == 0
        }
        Some(layers) => {
            let values = layer_values(layers, &scrape, &shots, &check, &healthz_us);
            println!("per-layer (traced replay of {} open-loop requests; {} decisions compared, {} differed, {} dedup outcomes differed):", layers.requests, layers.compared, layers.mismatched, layers.dedup_disagreed);
            for (name, unit, moves) in LAYER_METRICS {
                let v = values[name];
                println!("  {name:<30} {v:>14.4} {unit:<6} -> {moves}");
                metrics.push((name, v, unit));
            }
            let prepare: f64 = layers.prepare_ms.iter().sum();
            let busy: f64 = layers.team_busy_ms.iter().sum();
            println!(
                "  scout.prepare_ms is {:.1}% of fleet.team_busy_ms on {}",
                100.0 * ratio(prepare, busy),
                kind.name()
            );
            check.failed == 0 && layers.mismatched == 0
        }
    };
    println!(
        "run wall time {:.1} s ({})",
        started.elapsed().as_secs_f64(),
        phases.join(", ")
    );
    let mut body = obs::json::Obj::new();
    for (name, value, unit) in &metrics {
        body = body.raw(
            name,
            &obs::json::Obj::new()
                .num("value", *value)
                .str("unit", unit)
                .finish(),
        );
    }
    println!(
        "{}",
        obs::json::Obj::new()
            .bool("correct", correct)
            .uint("attempted", shots.len() as u64)
            .uint("failed", check.failed as u64)
            .raw("metrics", &body.finish())
            .finish()
    );
    Ok(())
}

/// Shots with a reference answer: routes and predicts.
fn answerable(req: Req) -> bool {
    matches!(
        req,
        Req::Route { .. } | Req::Storm { .. } | Req::Predict { .. }
    )
}

/// `/healthz` round trips on one connection, in microseconds.
fn healthz_probes(addr: &str) -> Result<Vec<f64>, String> {
    let mut client = serve::Client::connect(addr).map_err(|e| e.to_string())?;
    (0..HEALTHZ_PROBES)
        .map(|_| {
            let t = Instant::now();
            let resp = client.get("/healthz").map_err(|e| e.to_string())?;
            if resp.status != 200 {
                return Err(format!("/healthz answered {}", resp.status));
            }
            Ok(t.elapsed().as_secs_f64() * 1e6)
        })
        .collect()
}

/// Every shot judged against its reference.
struct Check {
    /// Per shot: answered 2xx with the right output.
    good: Vec<bool>,
    /// Per primary shot: the decision named the owner.
    hit: Vec<bool>,
    /// Non-2xx, transport errors and wrong outputs.
    failed: usize,
    wrong: usize,
    /// Suppressed route answers, those audited against their own
    /// reference, and the audited ones that reference differs from.
    suppressed: usize,
    audited: usize,
    novel_suppressed: usize,
}

impl Check {
    fn new(
        models: &Models,
        plan: &Plan,
        shots: &[Shot],
        refs: &BTreeMap<usize, Reference>,
    ) -> Check {
        let scouted = models.scouted();
        let mut c = Check {
            good: vec![false; shots.len()],
            hit: vec![false; shots.len()],
            failed: 0,
            wrong: 0,
            suppressed: 0,
            audited: 0,
            novel_suppressed: 0,
        };
        // The first routed answer per storm fingerprint: what storm
        // control caches and replays to that fingerprint's duplicates.
        let mut originals: BTreeMap<u64, RouteAnswer> = BTreeMap::new();
        for (i, shot) in shots.iter().enumerate() {
            let right = shot.ok()
                && match shot.req {
                    Req::Feedback { incident, .. } => {
                        obs::json::Value::parse(&shot.body)
                            .and_then(|v| v.get("incident").and_then(obs::json::Value::as_f64))
                            == Some(incident as f64)
                    }
                    Req::Route { .. } | Req::Storm { .. } => {
                        let alert = offline::route_alert(plan, shot.req).expect("route shot");
                        let fp = storm::fingerprint(&alert.text, &alert.source);
                        let reference = match refs.get(&i) {
                            Some(Reference::Route(r)) => Some(r),
                            _ => None,
                        };
                        match RouteAnswer::parse(&shot.body) {
                            None => false,
                            Some((answer, suppressed)) => {
                                c.hit[i] = answer.hit(alert.owner, &scouted);
                                if suppressed {
                                    c.suppressed += 1;
                                    if let Some(r) = reference {
                                        c.audited += 1;
                                        c.novel_suppressed += usize::from(*r != answer);
                                    }
                                    originals.get(&fp) == Some(&answer)
                                } else {
                                    let right = reference == Some(&answer);
                                    originals.entry(fp).or_insert(answer);
                                    right
                                }
                            }
                        }
                    }
                    Req::Predict { item } => match (PredictAnswer::parse(&shot.body), refs.get(&i))
                    {
                        (Some(answer), Some(Reference::Predict(reference))) => {
                            c.hit[i] = answer.hit(load::alert(&plan.primary, item).owner);
                            answer == *reference
                        }
                        _ => false,
                    },
                };
            c.good[i] = right;
            if !right {
                c.failed += 1;
                c.wrong += usize::from(shot.ok());
            }
        }
        c
    }
}

struct Report<'a> {
    args: &'a Args,
    plan: &'a Plan,
    shots: &'a [Shot],
    check: &'a Check,
    setups: &'a [f64],
    peak_rss_mb: f64,
}

impl Report<'_> {
    fn print_header(&self, world: &incident::Workload) {
        let kind = self.args.kind;
        println!(
            "perfbench {} seed={} world-seed={} seconds={} trace={}",
            kind.name(),
            self.args.seed,
            self.args.world_seed,
            self.args.seconds,
            u8::from(self.args.trace)
        );
        println!(
            "host: nproc={} commit={} rustc={}",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            command_line("git", &["rev-parse", "--short", "HEAD"]),
            command_line("rustc", &["--version"]),
        );
        let storm = match kind {
            Kind::RouteStorm => format!("; storm firings at {}/s throughout", load::STORM_RATE),
            _ => String::new(),
        };
        let slices = load::slices(self.args.seconds);
        println!(
            "workload: teams={}, {} open-loop slices at {}/s alternating with {} closed-loop slices, {:.3} s each{storm}",
            kind.teams(),
            slices.len() / 2,
            load::primary_rate(kind),
            slices.len() / 2,
            (slices[0].end_ms - slices[0].start_ms) / 1e3,
        );
        println!(
            "properties of the world: {}",
            plan::world_properties(world).render()
        );
        let sent: Vec<&plan::Alert> = self
            .shots
            .iter()
            .filter_map(|s| match s.req {
                Req::Predict { item } => Some(load::alert(&self.plan.primary, item)),
                req => offline::route_alert(self.plan, req),
            })
            .collect();
        println!(
            "properties of the requests sent: {}",
            Properties::of(sent).render()
        );
        let lateness: Vec<f64> = self
            .shots
            .iter()
            .filter_map(|s| s.due_ms.map(|due| s.sent_ms - due))
            .collect();
        println!(
            "open-loop generator lateness: n={} mean={:.3} ms p99={:.3} ms max={:.3} ms",
            lateness.len(),
            mean(&lateness),
            percentile(&lateness, 0.99),
            percentile(&lateness, 1.0)
        );
        println!(
            "outputs: {} sent, {} failed ({} wrong), {} suppressed ({} audited, {} of them unlike their own reference)",
            self.shots.len(),
            self.check.failed,
            self.check.wrong,
            self.check.suppressed,
            self.check.audited,
            self.check.novel_suppressed
        );
    }

    /// Open-loop latencies of the shots `class` selects.
    fn latencies(&self, class: impl Fn(Req) -> bool) -> Vec<f64> {
        self.shots
            .iter()
            .filter(|s| s.open_loop() && class(s.req))
            .map(Shot::latency_ms)
            .collect()
    }

    /// The workload's second request class: Sev3 routes (which storm
    /// control coalesces) on route-fresh, storm firings on route-storm,
    /// feedback posts on predict-feedback.
    fn side(&self, req: Req) -> bool {
        match (self.args.kind, req) {
            (Kind::RouteFresh, Req::Route { item }) => {
                load::alert(&self.plan.primary, item).severity == 3
            }
            (Kind::RouteStorm, Req::Storm { .. }) => true,
            (Kind::PredictFeedback, Req::Feedback { .. }) => true,
            _ => false,
        }
    }

    /// The end-to-end metrics, printed and returned.
    fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let kind = self.args.kind;
        let primary = self.latencies(Req::primary);
        let side = self.latencies(|req| self.side(req));
        let limit = if kind.routes() {
            ROUTE_LIMIT_MS
        } else {
            PREDICT_LIMIT_MS
        };
        // Goodput is the median over the closed-loop slices, so a CPU
        // stall on the shared host that covers fewer than half of them
        // leaves it where it was.
        let closed: Vec<(f64, f64)> = load::slices(self.args.seconds)
            .iter()
            .filter(|s| !s.open)
            .map(|s| (s.start_ms, s.end_ms))
            .collect();
        let closed_s: f64 = closed.iter().map(|(lo, hi)| (hi - lo) / 1e3).sum();
        let good: Vec<(f64, f64)> = self
            .shots
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                !s.open_loop() && s.req.primary() && self.check.good[*i] && s.latency_ms() <= limit
            })
            .map(|(_, s)| (s.sent_ms, s.done_ms))
            .collect();
        let primaries: Vec<usize> = (0..self.shots.len())
            .filter(|&i| self.shots[i].req.primary())
            .collect();
        let hits = primaries.iter().filter(|&&i| self.check.hit[i]).count();
        let side_name = match kind {
            Kind::RouteFresh => "sev3",
            Kind::RouteStorm => "dup",
            Kind::PredictFeedback => "write",
        };
        println!("setup: {} servers, {:?} s", self.setups.len(), self.setups);
        println!(
            "goodput over all closed-loop time instead of per slice: {:.4} 1/s ({} good in {:.1} s)",
            good.len() as f64 / closed_s,
            good.len(),
            closed_s,
        );
        // Every end-to-end number, by the names the workload gives them;
        // the JSON below carries the ones steady enough to gate on.
        let table = [
            ("setup_s".to_string(), percentile(self.setups, 0.5), "s"),
            ("p50_ms".into(), percentile(&primary, 0.5), "ms"),
            ("p99_ms".into(), percentile(&primary, 0.99), "ms"),
            ("goodput_rps".into(), windowed_rate(&good, &closed), "1/s"),
            (
                "error_ratio".into(),
                ratio(self.check.failed as f64, self.shots.len() as f64),
                "ratio",
            ),
            (
                "accuracy".into(),
                ratio(hits as f64, primaries.len() as f64),
                "ratio",
            ),
            ("peak_rss_mb".into(), self.peak_rss_mb, "MiB"),
            (format!("{side_name}_p50_ms"), percentile(&side, 0.5), "ms"),
            (format!("{side_name}_p99_ms"), percentile(&side, 0.99), "ms"),
        ];
        println!(
            "end to end (latency samples: primary n={}, {side_name} n={}; goodput is the median over closed-loop slices):",
            primary.len(),
            side.len()
        );
        for (name, value, unit) in &table {
            println!("  {name:<14} {value:>14.4} {unit}");
        }
        let value = |name: &str| {
            table
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or(f64::NAN, |t| t.1)
        };
        let metrics = vec![
            ("setup_s", value("setup_s"), "s"),
            ("p50_ms", value("p50_ms"), "ms"),
            ("goodput_rps", value("goodput_rps"), "1/s"),
            ("accuracy", value("accuracy"), "ratio"),
            ("peak_rss_mb", value("peak_rss_mb"), "MiB"),
            ("side_p50_ms", value(&format!("{side_name}_p50_ms")), "ms"),
        ];
        metrics
    }
}

/// Host CPU ticks since boot, `(all, stolen by the hypervisor)`, from
/// `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

/// First line of a command's output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The per-layer metrics of a traced run.
fn layer_values(
    layers: &Layers,
    scrape: &Scrape,
    shots: &[Shot],
    check: &Check,
    healthz_us: &[f64],
) -> BTreeMap<&'static str, f64> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let served = shots.iter().filter(|s| answerable(s.req)).count() as f64;
    let routes = shots
        .iter()
        .filter(|s| matches!(s.req, Req::Route { .. } | Req::Storm { .. }))
        .count() as f64;
    let service: Vec<f64> = shots
        .iter()
        .filter(|s| s.open_loop() && s.req.primary())
        .map(Shot::service_ms)
        .collect();
    let batches = scrape.get("span.storm.route.batch:count");
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let or0 = |v: f64| if v.is_nan() { 0.0 } else { v };
    let hits = scrape.get("featcache.hits");
    BTreeMap::from([
        ("serve.healthz_p50_us", percentile(healthz_us, 0.5)),
        (
            "serve.unattributed_ms",
            percentile(&service, 0.5) - or0(percentile(&layers.traced_ms, 0.5)),
        ),
        ("serve.shed_ratio", ratio(scrape.get("serve.shed"), served)),
        (
            "batcher.occupancy_mean",
            scrape.get("serve.batch.occupancy:mean"),
        ),
        (
            "batcher.wait_ms",
            or0(percentile(&layers.batcher_wait_ms, 0.5)),
        ),
        (
            "stormroute.batch_mean",
            ratio(scrape.get("storm.batch.coalesced") + batches, batches),
        ),
        ("fleet.dispatch_ms", or0(mean(&layers.dispatch_ms))),
        ("fleet.team_busy_ms", or0(mean(&layers.team_busy_ms))),
        (
            "fleet.parallel_eff",
            ratio(
                sum(&layers.team_busy_ms),
                sum(&layers.dispatch_sampled_ms) * nproc,
            ),
        ),
        (
            "fleet.fanouts_per_req",
            ratio(scrape.get("fleet.dispatch.fanouts"), routes),
        ),
        (
            "monitoring.build_ms",
            or0(mean(&layers.monitoring_build_ms)),
        ),
        ("scout.prepare_ms", or0(mean(&layers.prepare_ms))),
        (
            "scout.prepare_calls_per_req",
            ratio(
                layers.prepare_ms.len() as f64,
                layers.team_busy_ms.len() as f64,
            ) * ratio(layers.fanouts as f64, layers.requests as f64),
        ),
        (
            "scout.distinct_rows_per_req",
            or0(mean(&layers.distinct_rows)),
        ),
        ("scout.classify_ms", or0(mean(&layers.classify_ms))),
        (
            "featcache.hit_ratio",
            ratio(hits, hits + scrape.get("featcache.misses")),
        ),
        ("featcache.bytes", scrape.get("featcache.bytes")),
        ("featcache.evictions", scrape.get("featcache.evictions")),
        ("ml.score_ms", or0(mean(&layers.score_ms))),
        ("master.route_us", or0(mean(&layers.master_us))),
        ("storm.front_us", or0(mean(&layers.storm_front_us))),
        (
            "storm.suppressed_ratio",
            ratio(scrape.get("storm.dedup.suppressed"), routes),
        ),
        (
            "storm.novel_suppressed",
            ratio(check.novel_suppressed as f64, check.audited as f64),
        ),
        ("storm.throttled", scrape.get("storm.throttle.dropped")),
        (
            "wal.appends_per_fsync",
            ratio(scrape.get("wal.appends"), scrape.get("wal.fsyncs")),
        ),
        ("wal.fsync_p50_ms", scrape.get("wal.fsync_ms:p50")),
        ("pool.queue_depth_end", scrape.get("pool.queue.depth")),
        (
            "pool.tasks_per_req",
            ratio(scrape.get("pool.tasks"), served),
        ),
    ])
}
