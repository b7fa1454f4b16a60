//! `perfbench` — the Dynamoth repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paced|flood|hotspot|sim_game --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a `meta` line, an `info` line and, last, one JSON result
//! object `{"correct", "attempted", "failed", "metrics"}`;
//! `--workload all` runs the four workloads in turn. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones. See `perfbench/README.md`.

mod live;
mod micro;
mod procfs;
mod report;
mod sim;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use dynamoth_pubsub::BrokerConfig;
use dynamoth_sim::SimRng;

use live::{default_ring, names_on, uniform_schedule, Control, Episode, Ev, LiveOutcome, LiveSpec};
use report::{jstr, median, num, num_list, object, quantile, sorted, Metrics, SpanLog};

/// Every workload the benchmark can run. `BENCHMARK.json` lists all but
/// `hotspot`, which fails its exactly-once and FIFO checks at this
/// revision (README.md, "Findings"); it stays runnable by name.
const WORKLOADS: [&str; 4] = ["paced", "flood", "hotspot", "sim_game"];

/// `flood`'s offered rate. One publisher with default client settings
/// starts shedding `QueueFull` on one broker at 45–50k pub/s when the
/// 2-vCPU reference host runs fast, and at 30k pub/s in its slow
/// periods. At 20k pub/s the pipeline still queued in slow periods and
/// `deliver_p99_ms` spread up to 0.59 between runs; this is about 40 %
/// of the slow-period onset (see README.md, "Sizing").
const FLOOD_RATE: f64 = 12_000.0;

/// Per-layer metrics, in output order, with units. A traced run of any
/// workload reports all of them; a layer the workload does not run
/// reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("gen.late_p99_ms", "ms"),
    ("gen.cpu_s", "s"),
    ("router.publish_call_us_p50", "us"),
    ("router.publish_call_us_p99", "us"),
    ("router.downstream_ms_p50", "ms"),
    ("router.downstream_ms_p99", "ms"),
    ("client.upstream_ms_p50", "ms"),
    ("client.upstream_ms_p99", "ms"),
    ("client.cpu_us_per_delivery", "us"),
    ("client.publish_drops", "count"),
    ("client.frame_payload_ns", "ns"),
    ("client.parse_payload_ns", "ns"),
    ("resp.decode_publish_ns", "ns"),
    ("resp.encode_push_ns", "ns"),
    ("broker.cpu_us_per_delivery", "us"),
    ("broker.busy_frac", "ratio"),
    ("broker.frames_per_write", "count"),
    ("broker.wakeups_per_frame", "ratio"),
    ("broker.bytes_per_delivery", "B"),
    ("broker.header_bytes_per_delivery", "B"),
    ("broker.retained_bytes", "B"),
    ("broker.dropped_frames", "count"),
    ("broker.overflow_kills", "count"),
    ("broker.protocol_errors", "count"),
    ("load.note_publish_ns", "ns"),
    ("load.harvest_us", "us"),
    ("balance.place_us", "us"),
    ("control.decode_ns", "ns"),
    ("plan.resolve_ns", "ns"),
    ("hashing.server_for_ns", "ns"),
    ("failed_frac", "ratio"),
    ("sim_events_per_s", "1/s"),
    ("sim_response_ms", "ms"),
    ("sim_server_s", "s"),
    ("sim.events", "count"),
    ("sim.messages_sent", "count"),
    ("sim.messages_dropped", "count"),
    ("core.rebalances_high_load", "count"),
    ("core.rebalances_low_load", "count"),
    ("core.rebalances_channel_level", "count"),
    ("core.servers_peak", "count"),
    ("workloads.players_peak", "count"),
    ("trace.tap_samples", "count"),
    ("trace.tap_after_delivery", "count"),
    ("trace.cpu_unattributed_frac", "ratio"),
    ("trace.overhead_p50_frac", "ratio"),
    ("trace.overhead_cpu_frac", "ratio"),
];

/// Per-layer metrics of the control plane (balancer, sidecars and the
/// router's handling of their frames). Only `hotspot` runs that plane,
/// and only its traced run reports these, after [`PER_LAYER`].
const CONTROL_LAYERS: &[(&str, &str)] = &[
    ("router.duplicates_suppressed", "count"),
    ("router.switches_applied", "count"),
    ("router.moved_applied", "count"),
    ("router.stale_control_frames", "count"),
    ("router.switch_ms", "ms"),
    ("balancer.detect_ms", "ms"),
    ("balancer.decide_ms", "ms"),
    ("balancer.reports_received", "count"),
    ("balancer.plans_installed", "count"),
    ("balancer.reactive_migrations", "count"),
    ("balancer.placement_installs", "count"),
    ("balancer.low_load_drains", "count"),
    ("dispatcher.forwarded", "count"),
    ("dispatcher.switches_emitted", "count"),
    ("dispatcher.moved_emitted", "count"),
    ("dispatcher.duplicates_suppressed", "count"),
    ("dispatcher.unforwardable", "count"),
    ("converge_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be all or one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// The trimmed standard output of a command, or `unknown`. Git may not
/// look above the working directory for a repository, so a checkout
/// without one reads `unknown` rather than some enclosing repository's
/// revision.
fn command_line(program: &str, args: &[&str]) -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    std::process::Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

/// What was built: the git revision, or, outside a repository, an
/// FNV-1a digest of this executable.
fn build_id() -> String {
    let rev = command_line("git", &["rev-parse", "HEAD"]);
    if rev != "unknown" {
        return rev;
    }
    match std::env::current_exe().and_then(std::fs::read) {
        Ok(bytes) => {
            let mut digest = sim::FNV_OFFSET;
            sim::fnv(&mut digest, &bytes);
            format!("exe{digest:016x}")
        }
        Err(_) => "unknown".into(),
    }
}

fn host_cores() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
        .max(1)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn meta_line(args: &Args) -> String {
    object(&[(
        "meta",
        object(&[
            ("workload", jstr(&args.workload)),
            ("seed", args.seed.to_string()),
            ("run_seconds", args.seconds.to_string()),
            ("trace", (args.trace as u8).to_string()),
            (
                "git_revision",
                jstr(&command_line("git", &["rev-parse", "HEAD"])),
            ),
            ("rustc", jstr(&command_line("rustc", &["--version"]))),
            ("nproc", nproc().to_string()),
            ("host_cores", host_cores().to_string()),
            (
                "io_loops",
                BrokerConfig::default().resolved_io_loops().to_string(),
            ),
        ]),
    )])
}

/// The live workloads' inputs, all derived from the seed.
fn live_spec(workload: &str, seed: u64, seconds: u64) -> LiveSpec {
    let mut rng = SimRng::new(seed);
    let window_us = seconds * 1_000_000;
    match workload {
        "paced" => {
            let names: Vec<String> = (0..64).map(|i| format!("paced-{i:04}")).collect();
            let chans: Vec<u16> = (0..names.len() as u16).collect();
            LiveSpec {
                brokers: 3,
                schedule: uniform_schedule(&mut rng, 2_000.0, window_us, &chans),
                names,
                body: 200,
                window_us,
                sub_us: 250_000,
                control: None,
                episodes: Vec::new(),
                seed,
            }
        }
        "flood" => {
            let names: Vec<String> = (0..8).map(|i| format!("flood-{i:04}")).collect();
            let chans: Vec<u16> = (0..names.len() as u16).collect();
            LiveSpec {
                brokers: 1,
                schedule: uniform_schedule(&mut rng, FLOOD_RATE, window_us, &chans),
                names,
                body: 16,
                window_us,
                sub_us: 250_000,
                control: None,
                episodes: Vec::new(),
                seed,
            }
        }
        "hotspot" => hotspot_spec(&mut rng, seed, window_us),
        _ => unreachable!("checked by parse_args"),
    }
}

/// `hotspot` sizing: every broker carries [`BASE_PER_BROKER`] pub/s on
/// its own ring-homed base channels (load ratio ≈ [`BASE_LR`]); an
/// episode adds traffic on a fresh group of channels homed on one
/// broker, lifting it to ≈ [`HOT_LR`] for [`EPISODE_US`].
const BASE_PER_BROKER: f64 = 500.0;
const BASE_LR: f64 = 0.6;
const HOT_LR: f64 = 1.3;
const HOTSPOT_BODY: usize = 200;
/// The window is cut into periods of [`EPISODE_PERIOD_US`]; each period
/// opens with [`EPISODE_ONSET_US`] of base load, then runs hot for
/// [`EPISODE_US`], then cools down. The balancer answers an episode in
/// 200–500 ms, so each one leaves it time to respond and to settle
/// before the next. The latency sub-windows are [`HOTSPOT_SUB_US`]
/// long, five per period, so the tenth left out of the gated
/// percentiles is half a period in every ten.
const EPISODE_PERIOD_US: u64 = 2_500_000;
const EPISODE_ONSET_US: u64 = 500_000;
const EPISODE_US: u64 = 1_200_000;
const HOTSPOT_SUB_US: u64 = 500_000;

fn hotspot_spec(rng: &mut SimRng, seed: u64, window_us: u64) -> LiveSpec {
    const BROKERS: usize = 3;
    const BASE_CHANNELS: usize = 8;
    const HOT_CHANNELS: usize = 4;
    let ring = default_ring(BROKERS);
    let mut names: Vec<String> = Vec::new();
    let mut base_chans: Vec<Vec<u16>> = Vec::new();
    for b in 0..BROKERS {
        let start = names.len() as u16;
        names.extend(names_on(&ring, "base", b, BASE_CHANNELS));
        base_chans.push((start..names.len() as u16).collect());
    }
    // Episodes rotate over the brokers, starting at a seeded one.
    let first = rng.next_below(BROKERS as u64) as usize;
    let mut episodes = Vec::new();
    for k in 0..window_us / EPISODE_PERIOD_US {
        let onset = k * EPISODE_PERIOD_US + EPISODE_ONSET_US;
        episodes.push(Episode {
            onset_us: onset,
            end_us: onset + EPISODE_US,
            broker: (first + k as usize) % BROKERS,
        });
    }
    let mut schedule: Vec<Ev> = Vec::new();
    for chans in &base_chans {
        schedule.extend(uniform_schedule(rng, BASE_PER_BROKER, window_us, chans));
    }
    let hot_rate = BASE_PER_BROKER * (HOT_LR - BASE_LR) / BASE_LR;
    for (e, ep) in episodes.iter().enumerate() {
        let start = names.len() as u16;
        names.extend(names_on(
            &ring,
            &format!("hot{e:02}"),
            ep.broker,
            HOT_CHANNELS,
        ));
        let chans: Vec<u16> = (start..names.len() as u16).collect();
        schedule.extend(
            uniform_schedule(rng, hot_rate, ep.end_us - ep.onset_us, &chans)
                .into_iter()
                .map(|ev| Ev {
                    due_us: ev.due_us + ep.onset_us,
                    ..ev
                }),
        );
    }
    schedule.sort_by_key(|ev| ev.due_us);
    // Egress bytes of one delivery: body plus RESP push, channel name,
    // and the DMSEQ1/DMID1 headers.
    let frame_bytes = (HOTSPOT_BODY + 110) as f64;
    let base_bytes_per_report = BASE_PER_BROKER / 10.0 * frame_bytes;
    LiveSpec {
        brokers: BROKERS,
        names,
        schedule,
        body: HOTSPOT_BODY,
        window_us,
        sub_us: HOTSPOT_SUB_US,
        control: Some(Control {
            capacity_floor: base_bytes_per_report / BASE_LR,
        }),
        episodes,
        seed,
    }
}

/// What a run contributes beyond its metrics.
struct RunOutput {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    info: Vec<(&'static str, String)>,
}

/// End-to-end metrics of one live outcome. The latency percentiles
/// pool every sample of the window except those of the tenth of the
/// sub-windows with the highest p99 (`LiveOutcome::gated_ms`).
fn live_metrics(out: &LiveOutcome) -> Metrics {
    let mut m = Metrics::default();
    m.put(
        "setup_s",
        quantile(&sorted(out.setup_s.clone()), live::SETUP_QUANTILE),
        "s",
    );
    m.put("deliver_p50_ms", quantile(&out.gated_ms, 0.5), "ms");
    m.put("deliver_p99_ms", quantile(&out.gated_ms, 0.99), "ms");
    m.put(
        "deliveries_per_cpu_s",
        out.deliveries as f64 / out.process_cpu_s.max(procfs::TICKS_PER_S.recip()),
        "1/s",
    );
    m.put("rss_peak_mb", out.rss_peak_mb, "MiB");
    m
}

/// Generator lateness may be at most this share of the p99 latency it
/// is measuring before the run is flagged invalid.
const MAX_LATE_SHARE: f64 = 0.5;

fn run_live(args: &Args) -> (RunOutput, SpanLog) {
    let spec = live_spec(&args.workload, args.seed, args.seconds);
    let untraced = live::run(&spec, false);
    let (out, baseline) = if args.trace {
        (live::run(&spec, true), Some(untraced))
    } else {
        (untraced, None)
    };
    let e2e = live_metrics(&out);
    let lat = sorted(out.latencies_ms.clone());
    let late = sorted(out.late_ms.clone());
    let late_p99 = quantile(&late, 0.99);
    let p99 = e2e.get("deliver_p99_ms");
    let valid = late_p99 <= MAX_LATE_SHARE * p99;
    let mut problems = out.problems.clone();
    if !valid {
        problems.push(format!(
            "generator late p99 {late_p99:.3} ms > {MAX_LATE_SHARE} x deliver p99 {p99:.3} ms"
        ));
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    let converge = report::mean(&out.converge_ms);
    // CPU reconciliation: broker + client + generator threads against
    // the process total, within 5 % plus one clock tick per thread.
    let unattributed = out.process_cpu_s - out.roles.total();
    let tolerance = 0.05 * out.process_cpu_s + out.roles.threads as f64 / procfs::TICKS_PER_S;
    if args.trace && unattributed.abs() > tolerance {
        problems.push(format!(
            "thread CPU {:.2} s != process CPU {:.2} s (tolerance {tolerance:.2} s)",
            out.roles.total(),
            out.process_cpu_s
        ));
    }
    let mut info = vec![
        ("attempted", out.attempted.to_string()),
        ("deliveries", out.deliveries.to_string()),
        ("lost", out.lost.to_string()),
        ("duplicated", out.duplicates.to_string()),
        ("reordered", out.reordered.to_string()),
        ("shed", out.shed.to_string()),
        ("failed_frac", num(failed_frac)),
        ("latency_samples", lat.len().to_string()),
        (
            "highest_percentile_10_beyond",
            report::highest_supported_percentile(lat.len()).map_or("null".into(), num),
        ),
        (
            "deliver_highest_ms",
            report::highest_supported_percentile(lat.len())
                .map_or("null".into(), |p| num(quantile(&lat, p / 100.0))),
        ),
        ("gen_late_p99_ms", num(late_p99)),
        ("valid", valid.to_string()),
        ("deliver_p50_ms_whole_window", num(quantile(&lat, 0.5))),
        ("deliver_p99_ms_whole_window", num(quantile(&lat, 0.99))),
        (
            "sub_window_p99_ms",
            num_list(out.sub_window_p99_ms.iter().copied()),
        ),
        ("window_s", num(out.window_s)),
        ("process_cpu_s", num(out.process_cpu_s)),
        ("broker_cpu_s", num(out.roles.broker)),
        ("client_cpu_s", num(out.roles.client)),
        ("generator_cpu_s", num(out.roles.generator)),
        ("cpu_tolerance_s", num(tolerance)),
        ("setup_s_median", num(median(&out.setup_s))),
        ("setup_samples_s", num_list(out.setup_s.iter().copied())),
    ];
    if spec.control.is_some() {
        info.push(("episodes", spec.episodes.len().to_string()));
        info.push(("episodes_unanswered", out.unanswered.to_string()));
        info.push(("converge_ms", num(converge)));
    }
    info.extend(out.notes.iter().cloned());
    let metrics = if args.trace {
        let mut layers: Vec<(String, f64, &str)> = out.layers.clone();
        layers.push(("gen.late_p99_ms".into(), late_p99, "ms"));
        layers.push(("converge_ms".into(), converge, "ms"));
        layers.push(("failed_frac".into(), failed_frac, "ratio"));
        layers.push((
            "trace.cpu_unattributed_frac".into(),
            unattributed / out.process_cpu_s.max(1e-9),
            "ratio",
        ));
        if let Some(base) = &baseline {
            let b = live_metrics(base);
            layers.push((
                "trace.overhead_p50_frac".into(),
                e2e.get("deliver_p50_ms") / b.get("deliver_p50_ms").max(1e-9) - 1.0,
                "ratio",
            ));
            layers.push((
                "trace.overhead_cpu_frac".into(),
                b.get("deliveries_per_cpu_s") / e2e.get("deliveries_per_cpu_s").max(1e-9) - 1.0,
                "ratio",
            ));
        }
        let cap = spec.control.map_or(100_000.0, |c| c.capacity_floor);
        layers.extend(micro::timings(&spec.names, spec.body, spec.brokers, cap));
        per_layer(layers, spec.control.is_some())
    } else {
        e2e
    };
    info.push(("problems", json_list(&problems)));
    let run = RunOutput {
        correct: problems.is_empty(),
        attempted: out.attempted,
        failed: out.failed,
        metrics,
        info,
    };
    (run, out.spans)
}

/// JSON array of strings.
fn json_list(items: &[String]) -> String {
    format!(
        "[{}]",
        items.iter().map(|p| jstr(p)).collect::<Vec<_>>().join(", ")
    )
}

/// Orders measured per-layer values by [`PER_LAYER`], then
/// [`CONTROL_LAYERS`] when the workload runs the control plane, filling
/// the layers a workload does not run with 0.
fn per_layer(measured: Vec<(String, f64, &str)>, control: bool) -> Metrics {
    let extra: &[(&str, &str)] = if control { CONTROL_LAYERS } else { &[] };
    let mut m = Metrics::default();
    for &(name, unit) in PER_LAYER.iter().chain(extra) {
        let v = measured
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |e| e.1);
        m.put(name, v, unit);
    }
    m
}

/// Where traced runs and the simulator digests are written.
const OUT_DIR: &str = ".bench_out";

fn run_sim(args: &Args) -> (RunOutput, SpanLog) {
    let epoch = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut spans = SpanLog::default();
    let mut reps = Vec::new();
    let mut traced = Vec::new();
    // At least two repetitions, so determinism is checked on every run.
    // A traced run alternates untraced and traced repetitions so the
    // overhead compares like with like.
    while reps.len() + traced.len() < 2 || epoch.elapsed() < budget {
        if args.trace && reps.len() > traced.len() {
            traced.push(sim::run_once(args.seed, epoch, Some(&mut spans)));
        } else {
            reps.push(sim::run_once(args.seed, epoch, None));
        }
    }
    let mut problems = Vec::new();
    let all: Vec<&sim::SimRep> = reps.iter().chain(&traced).collect();
    let digest = all[0].digest;
    if all.iter().any(|r| r.digest != digest) {
        problems.push("simulated series differ between repetitions of one seed".to_owned());
    }
    // Across runs of one build: the first run of a seed records its
    // digest, later runs of the same build must match it. A different
    // build may legitimately change the series, so it keeps its own.
    let path =
        std::path::Path::new(OUT_DIR).join(format!("sim_digest-{}-{}", build_id(), args.seed));
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev.trim() != format!("{digest:016x}") => problems.push(format!(
            "simulated series digest {digest:016x} differs from an earlier run's {}",
            prev.trim()
        )),
        Ok(_) => {}
        Err(_) => {
            let _ = std::fs::create_dir_all(OUT_DIR);
            let _ = std::fs::write(&path, format!("{digest:016x}\n"));
        }
    }
    let first = all[0];
    let series = sorted(first.response_series.clone());
    let rate =
        |rs: &[sim::SimRep]| median(&rs.iter().map(|r| r.events_per_s()).collect::<Vec<_>>());
    let per_cpu = |rs: &[sim::SimRep]| {
        median(
            &rs.iter()
                .map(|r| r.deliveries_per_ref_cpu_s())
                .collect::<Vec<_>>(),
        )
    };
    let metrics = if args.trace {
        let mut layers: Vec<(String, f64, &str)> = vec![
            ("sim_events_per_s".into(), rate(&reps), "1/s"),
            ("sim_response_ms".into(), first.mean_response_ms, "ms"),
            ("sim_server_s".into(), first.server_s as f64, "s"),
            ("sim.events".into(), first.events as f64, "count"),
            (
                "sim.messages_sent".into(),
                first.messages_sent as f64,
                "count",
            ),
            (
                "sim.messages_dropped".into(),
                first.messages_dropped as f64,
                "count",
            ),
            (
                "core.servers_peak".into(),
                first.servers_peak as f64,
                "count",
            ),
            (
                "workloads.players_peak".into(),
                first.players_peak as f64,
                "count",
            ),
            (
                "trace.overhead_cpu_frac".into(),
                per_cpu(&reps) / per_cpu(&traced).max(1e-9) - 1.0,
                "ratio",
            ),
        ];
        for (kind, n) in &first.rebalances {
            layers.push((format!("core.rebalances_{kind}"), *n as f64, "count"));
        }
        per_layer(layers, false)
    } else {
        let mut m = Metrics::default();
        m.put(
            "setup_s",
            median(&all.iter().flat_map(|r| r.setup_ref_s()).collect::<Vec<_>>()),
            "s",
        );
        m.put("deliver_p50_ms", quantile(&series, 0.5), "ms");
        m.put("deliver_p99_ms", quantile(&series, 0.99), "ms");
        m.put("deliveries_per_cpu_s", per_cpu(&reps), "1/s");
        m.put("rss_peak_mb", procfs::rss_peak_mb(), "MiB");
        m
    };
    let info = vec![
        ("repetitions", all.len().to_string()),
        (
            "repetition_deliveries_per_cpu_s",
            num_list(all.iter().map(|r| r.deliveries_per_cpu_s().round())),
        ),
        (
            "repetition_reference_ops_per_s",
            num_list(all.iter().map(|r| r.ref_ops_per_s.round())),
        ),
        (
            "repetition_deliveries_per_ref_cpu_s",
            num_list(all.iter().map(|r| r.deliveries_per_ref_cpu_s().round())),
        ),
        (
            "setup_s_as_measured",
            num(median(
                &all.iter()
                    .flat_map(|r| r.setup_s.iter().copied())
                    .collect::<Vec<_>>(),
            )),
        ),
        ("digest", jstr(&format!("{digest:016x}"))),
        ("sim_events_per_s", num(rate(&reps))),
        ("sim_response_ms", num(first.mean_response_ms)),
        ("hist_p50_ms", num(first.hist_p50_ms)),
        ("hist_p99_ms", num(first.hist_p99_ms)),
        ("sim_server_s", first.server_s.to_string()),
        ("simulated_seconds", first.response_series.len().to_string()),
        ("delivered", first.delivered.to_string()),
        ("lost_subscriptions", first.lost_subscriptions.to_string()),
        ("problems", json_list(&problems)),
    ];
    let run = RunOutput {
        correct: problems.is_empty(),
        attempted: all.len() as u64,
        failed: all.iter().filter(|r| r.digest != digest).count() as u64,
        metrics,
        info,
    };
    (run, spans)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <all|{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        for w in WORKLOADS {
            run_workload(&Args {
                workload: w.to_owned(),
                ..args
            });
        }
    } else {
        run_workload(&args);
    }
    ExitCode::SUCCESS
}

/// Runs one workload and prints its `meta`, `info` and result lines.
fn run_workload(args: &Args) {
    println!("{}", meta_line(args));
    // `all` runs the workloads in one process: each one's memory peak
    // starts from here.
    let rss_reset = procfs::reset_rss_peak();
    if let Err(e) = &rss_reset {
        eprintln!("perfbench: could not reset the RSS peak: {e}");
    }
    let (mut run, spans) = if args.workload == "sim_game" {
        run_sim(args)
    } else {
        run_live(args)
    };
    if args.trace {
        let path = std::path::Path::new(OUT_DIR)
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match spans.write(&path) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                spans.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    run.info
        .push(("rss_peak_reset", rss_reset.is_ok().to_string()));
    println!("{}", object(&[("info", object(&run.info))]));
    println!(
        "{}",
        object(&[
            ("correct", run.correct.to_string()),
            ("attempted", run.attempted.max(1).to_string()),
            ("failed", run.failed.to_string()),
            ("metrics", run.metrics.json()),
        ])
    );
}
