//! Command-line experiment driver.
//!
//! ```text
//! dynamoth-cli fig4a [--replicated] [--subscribers N] [--seed S]
//! dynamoth-cli fig4b [--replicated] [--publishers N] [--seed S]
//! dynamoth-cli fig5  [--strategy dynamoth|ch] [--players N] [--seed S] [--out FILE]
//! dynamoth-cli fig7  [--seed S] [--out FILE]
//! dynamoth-cli chat  [--users N] [--rooms N] [--seed S]
//! dynamoth-cli bench-broker [--pubs 1,4,16] [--subs 1,100,1000] [--conns 0,10000]
//!                           [--duration-ms N] [--payload BYTES] [--out FILE]
//!                           [--assert-coalescing RATIO]
//! dynamoth-cli bench-router [--brokers 1,3] [--subs 1,4] [--duration-ms N]
//!                           [--payload BYTES] [--seed S] [--out FILE]
//! dynamoth-cli bench-rebalance [--offered 1000,4000,16000] [--duration-ms N]
//!                              [--payload BYTES] [--seed S] [--out FILE]
//!                              [--skewed] [--skew-offered 2000,2500,3000]
//! dynamoth-cli bench-resume [--outages 64,512,4096] [--retentions 128,1024]
//!                           [--payload BYTES] [--seed S] [--out FILE]
//! dynamoth-cli bench-failover [--suspects 2,3] [--intervals-ms 100,200]
//!                             [--seed S] [--out FILE]
//! dynamoth-cli bench-scale [--scenario celebrity|rgame|chat|flash|conflate]
//!                          [--vclients N] [--pool N] [--brokers N]
//!                          [--publishes K] [--steps N] [--payload BYTES]
//!                          [--seed S] [--assert-ratio R] [--out FILE]
//! dynamoth-cli bench-scale --figs DIR [--sim-players N] [--quick] [--seed S]
//! ```
//!
//! Series are printed as CSV (or written to `--out`). Durations scale
//! with `DYNAMOTH_TIME_SCALE`.

use std::io::Write;

use dynamoth_bench::{fig4a, fig4b, fig5, fig7, sustained_players, GameSeries};
use dynamoth_core::BalancerStrategy;

struct Args {
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let arg = &raw[i];
            if let Some(name) = arg.strip_prefix("--") {
                let value = raw.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
                if value.is_some() {
                    i += 1;
                }
                flags.push((name.to_string(), value));
            }
            i += 1;
        }
        Args { flags }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

fn out_writer(args: &Args) -> Box<dyn Write> {
    match args.get("out") {
        Some(path) => Box::new(std::fs::File::create(path).expect("create --out file")),
        None => Box::new(std::io::stdout()),
    }
}

fn write_game_series(mut w: impl Write, series: &GameSeries) {
    writeln!(
        w,
        "second,players,servers,messages_per_s,response_ms,avg_lr,max_lr"
    )
    .unwrap();
    let at = |v: &[(u64, usize)], sec: u64| {
        v.iter()
            .take_while(|&&(s, _)| s <= sec)
            .last()
            .map(|&(_, n)| n)
            .unwrap_or(0)
    };
    for &(sec, resp) in &series.response {
        let players = at(&series.players, sec);
        let servers = at(&series.servers, sec);
        let msgs = series
            .messages
            .iter()
            .find(|&&(s, _)| s == sec)
            .map(|&(_, m)| m)
            .unwrap_or(0);
        let (avg, max) = series
            .load
            .iter()
            .find(|&&(s, _, _)| s == sec)
            .map(|&(_, a, m)| (a, m))
            .unwrap_or((0.0, 0.0));
        writeln!(
            w,
            "{sec},{players},{servers},{msgs},{resp:.1},{avg:.3},{max:.3}"
        )
        .unwrap();
    }
    writeln!(w, "# reconfigurations").unwrap();
    for (t, kind) in &series.rebalances {
        writeln!(w, "# {t:.0},{kind:?}").unwrap();
    }
}

/// Every command, for the usage and unknown-command messages.
const COMMANDS: &str = "fig4a|fig4b|fig5|fig7|chat|bench-broker|bench-router|bench-rebalance|\
                        bench-resume|bench-failover|bench-scale";

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = raw.first().cloned() else {
        eprintln!("usage: dynamoth-cli <{COMMANDS}> [flags]  (see the source header)");
        std::process::exit(2);
    };
    let args = Args::parse(&raw[1..]);
    let seed = args.num("seed", 1u64);

    match command.as_str() {
        "fig4a" => {
            let subs = args.num("subscribers", 500usize);
            let row = fig4a(subs, args.has("replicated"), seed);
            println!("subscribers,response_ms,delivery_ratio,lost_subscriptions");
            println!(
                "{subs},{},{:.3},{}",
                row.response_ms
                    .map(|r| format!("{r:.1}"))
                    .unwrap_or_default(),
                row.delivery_ratio,
                row.lost_subscriptions
            );
        }
        "fig4b" => {
            let pubs = args.num("publishers", 300usize);
            let row = fig4b(pubs, args.has("replicated"), seed);
            println!("publishers,response_ms,delivery_ratio,lost_subscriptions");
            println!(
                "{pubs},{},{:.3},{}",
                row.response_ms
                    .map(|r| format!("{r:.1}"))
                    .unwrap_or_default(),
                row.delivery_ratio,
                row.lost_subscriptions
            );
        }
        "fig5" => {
            let strategy = match args.get("strategy").unwrap_or("dynamoth") {
                "ch" | "consistent-hash" => BalancerStrategy::ConsistentHash,
                _ => BalancerStrategy::Dynamoth,
            };
            let players = args.num("players", 1_200usize);
            let series = fig5(strategy, players, seed);
            eprintln!(
                "sustained below 150 ms: {}",
                sustained_players(&series, 150.0)
            );
            write_game_series(out_writer(&args), &series);
        }
        "fig7" => {
            let series = fig7(seed);
            write_game_series(out_writer(&args), &series);
        }
        "chat" => {
            use dynamoth_core::{Cluster, ClusterConfig};
            use dynamoth_sim::{SimDuration, SimTime};
            use dynamoth_workloads::setup::spawn_chat_users;
            use dynamoth_workloads::ChatConfig;
            use std::sync::Arc;

            let users = args.num("users", 800usize);
            let rooms = args.num("rooms", 400usize);
            let mut cluster = Cluster::build(ClusterConfig {
                seed,
                pool_size: 6,
                initial_active: 1,
                ..Default::default()
            });
            let cfg = Arc::new(ChatConfig {
                rooms,
                ..Default::default()
            });
            spawn_chat_users(
                &mut cluster,
                &cfg,
                users,
                SimTime::from_secs(1),
                SimDuration::from_secs(45),
            );
            cluster.run_for(SimDuration::from_secs(120));
            println!(
                "users,{users}\nrooms,{rooms}\nmean_response_ms,{:.1}\np99_response_ms,{:.1}\nservers,{}\nserver_seconds,{}\ndelivered,{}",
                cluster.trace.mean_response_ms().unwrap_or(f64::NAN),
                cluster.trace.response_quantile_ms(0.99).unwrap_or(f64::NAN),
                cluster.active_server_count(),
                cluster.trace.server_seconds(),
                cluster.trace.delivered_total()
            );
        }
        "bench-broker" => {
            use dynamoth_bench::broker_bench::{assert_coalescing, broker_grid, write_broker_json};
            use std::time::Duration;

            let parse_list = |flag: &str, default: &[usize]| -> Vec<usize> {
                args.get(flag)
                    .map(|v| {
                        v.split(',')
                            .filter_map(|n| n.trim().parse().ok())
                            .collect::<Vec<usize>>()
                    })
                    .filter(|v| !v.is_empty())
                    .unwrap_or_else(|| default.to_vec())
            };
            let pubs = parse_list("pubs", &[1, 4, 16]);
            let subs = parse_list("subs", &[1, 100, 1_000]);
            let conns = parse_list("conns", &[0]);
            let duration = Duration::from_millis(args.num("duration-ms", 1_000u64));
            let payload = args.num("payload", 64usize);
            let rows = broker_grid(&pubs, &subs, &conns, duration, payload);
            write_broker_json(out_writer(&args), &rows).expect("write json");
            // CI gate: on high-fan-out cells the reactor must batch
            // outbox frames into far fewer writev syscalls than the
            // one-write-per-frame floor.
            if args.has("assert-coalescing") {
                let ratio: f64 = args.num("assert-coalescing", 0.5);
                let gated: Vec<_> = rows.iter().filter(|r| r.subscribers >= 1_000).collect();
                assert!(
                    !gated.is_empty(),
                    "--assert-coalescing needs a cell with >= 1000 subscribers"
                );
                for row in gated {
                    assert_coalescing(row, ratio);
                    eprintln!(
                        "coalescing ok at {}x{} (+{} idle): {} writes / {} frames",
                        row.publishers,
                        row.subscribers,
                        row.connections,
                        row.flush_writes,
                        row.flush_frames
                    );
                }
            }
        }
        "bench-router" => {
            use dynamoth_bench::router_bench::{router_grid, write_router_json};
            use std::time::Duration;

            let parse_list = |flag: &str, default: &[usize]| -> Vec<usize> {
                args.get(flag)
                    .map(|v| {
                        v.split(',')
                            .filter_map(|n| n.trim().parse().ok())
                            .collect::<Vec<usize>>()
                    })
                    .filter(|v| !v.is_empty())
                    .unwrap_or_else(|| default.to_vec())
            };
            let brokers = parse_list("brokers", &[1, 3]);
            let subs = parse_list("subs", &[1, 4]);
            let duration = Duration::from_millis(args.num("duration-ms", 1_000u64));
            let payload = args.num("payload", 64usize);
            let rows = router_grid(&brokers, &subs, duration, payload, seed);
            write_router_json(out_writer(&args), &rows).expect("write json");
        }
        "bench-rebalance" => {
            use dynamoth_bench::rebalance_bench::{
                rebalance_grid, rebalance_skewed_grid, write_rebalance_json,
            };
            use std::time::Duration;

            let offered: Vec<u64> = args
                .get("offered")
                .map(|v| {
                    v.split(',')
                        .filter_map(|n| n.trim().parse().ok())
                        .collect::<Vec<u64>>()
                })
                .filter(|v| !v.is_empty())
                .unwrap_or_else(|| vec![1_000, 4_000, 16_000]);
            let duration = Duration::from_millis(args.num("duration-ms", 2_000u64));
            let payload = args.num("payload", 512usize);
            let mut rows = rebalance_grid(&offered, duration, payload, seed);
            if args.has("skewed") {
                // Zipf-named channels, placement pass off vs on. Own
                // rung list: the contrast lives in the moderate-overload
                // regime (see rebalance_skewed_grid).
                let skew_offered: Vec<u64> = args
                    .get("skew-offered")
                    .map(|v| {
                        v.split(',')
                            .filter_map(|n| n.trim().parse().ok())
                            .collect::<Vec<u64>>()
                    })
                    .filter(|v| !v.is_empty())
                    .unwrap_or_else(|| vec![2_000, 2_500, 3_000]);
                rows.extend(rebalance_skewed_grid(
                    &skew_offered,
                    duration,
                    payload,
                    seed,
                ));
            }
            write_rebalance_json(out_writer(&args), &rows).expect("write json");
        }
        "bench-resume" => {
            use dynamoth_bench::resume_bench::{resume_grid, write_resume_json};

            let parse_list = |flag: &str, default: &[usize]| -> Vec<usize> {
                args.get(flag)
                    .map(|v| {
                        v.split(',')
                            .filter_map(|n| n.trim().parse().ok())
                            .collect::<Vec<usize>>()
                    })
                    .filter(|v| !v.is_empty())
                    .unwrap_or_else(|| default.to_vec())
            };
            let outages = parse_list("outages", &[64, 512, 4_096]);
            let retentions = parse_list("retentions", &[128, 1_024]);
            let payload = args.num("payload", 64usize);
            let rows = resume_grid(&outages, &retentions, payload, seed);
            write_resume_json(out_writer(&args), &rows).expect("write json");
        }
        "bench-failover" => {
            use dynamoth_bench::failover_bench::{failover_grid, write_failover_json};

            let suspects: Vec<u32> = args
                .get("suspects")
                .map(|v| {
                    v.split(',')
                        .filter_map(|n| n.trim().parse().ok())
                        .collect::<Vec<u32>>()
                })
                .filter(|v| !v.is_empty())
                .unwrap_or_else(|| vec![2, 3]);
            let intervals: Vec<u64> = args
                .get("intervals-ms")
                .map(|v| {
                    v.split(',')
                        .filter_map(|n| n.trim().parse().ok())
                        .collect::<Vec<u64>>()
                })
                .filter(|v| !v.is_empty())
                .unwrap_or_else(|| vec![100, 200]);
            let rows = failover_grid(&suspects, &intervals, seed);
            write_failover_json(out_writer(&args), &rows).expect("write json");
        }
        "bench-scale" => {
            use dynamoth_bench::scale::{
                celebrity_scale, chat_scale, conflate_scale, emit_figs, flash_scale, rgame_scale,
                write_conflate_json, write_scale_json, ScaleConfig,
            };

            if let Some(dir) = args.get("figs") {
                let dir = std::path::Path::new(dir);
                std::fs::create_dir_all(dir).expect("create --figs dir");
                emit_figs(
                    dir,
                    seed,
                    args.num("sim-players", 900usize),
                    args.has("quick"),
                );
                eprintln!(
                    "wrote BENCH_fig4.json..BENCH_fig7.json to {}",
                    dir.display()
                );
                return;
            }

            let cfg = ScaleConfig {
                brokers: args.num("brokers", 2usize),
                pool: args.num("pool", 64usize),
                vclients: args.num("vclients", 100_000usize),
                publishes: args.num("publishes", 200usize),
                steps: args.num("steps", 20usize),
                payload: args.num("payload", 256usize),
                seed,
            };
            let scenario = args.get("scenario").unwrap_or("celebrity");
            if scenario == "conflate" {
                let row = conflate_scale(seed, args.num("publishes", 2_000u64), cfg.payload);
                write_conflate_json(out_writer(&args), &row).expect("write json");
                assert!(row.accounted, "conflation drop accounting did not close");
                assert!(row.seq_monotone, "conflated stream regressed a sequence");
                return;
            }
            let run = match scenario {
                "celebrity" => celebrity_scale(&cfg),
                "rgame" => rgame_scale(&cfg),
                "chat" => chat_scale(&cfg),
                "flash" => flash_scale(&cfg),
                other => {
                    eprintln!(
                        "unknown scenario {other:?}; expected \
                         celebrity|rgame|chat|flash|conflate"
                    );
                    std::process::exit(2);
                }
            };
            eprintln!(
                "{}: {} virtual clients over {} real connections, delivery ratio {:.4}",
                run.row.scenario,
                run.row.vclients,
                run.row.real_connections,
                run.row.delivery_ratio
            );
            write_scale_json(out_writer(&args), std::slice::from_ref(&run.row))
                .expect("write json");
            if let Some(min) = args.get("assert-ratio").and_then(|v| v.parse::<f64>().ok()) {
                assert!(
                    run.row.delivery_ratio >= min,
                    "delivery ratio {:.4} below the {min} gate",
                    run.row.delivery_ratio
                );
                assert_eq!(run.row.duplicates, 0, "duplicate virtual deliveries");
            }
        }
        other => {
            eprintln!("unknown command {other:?}; expected {COMMANDS}");
            std::process::exit(2);
        }
    }
}
