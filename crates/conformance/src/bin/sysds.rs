//! The `sysds` command-line launcher (paper §2.2 (1): "command line
//! invocation").
//!
//! ```bash
//! sysds run script.dml                      # execute a DML script
//! sysds run script.dml --reuse --stats      # with lineage reuse + stats
//! sysds run script.dml --threads 8
//! sysds run script.dml --arg X=features.csv # $X substitution
//! sysds run script.dml --explain hops       # HOP DAGs with size estimates
//! sysds run script.dml --chrome-trace t.json # chrome://tracing timeline
//! sysds worker --listen 127.0.0.1:7461      # federated site daemon
//! sysds fedlm --workers 127.0.0.1:7461 --stats # federated lm over TCP
//! sysds fuzz --seed 0 --iters 1000          # differential conformance fuzz
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use sysds::api::SystemDS;
use sysds::compiler::explain::ExplainLevel;
use sysds_common::config::ReusePolicy;
use sysds_common::{EngineConfig, NetConfig};
use sysds_fed::{FederatedMatrix, Transport, WorkerHandle};
use sysds_net::{TcpTransport, WorkerServer};

fn usage() -> ! {
    eprintln!(
        "usage: sysds run <script.dml> [options]\n\
         \x20      sysds worker --listen ADDR [--threads N]\n\
         \x20      sysds fedlm [--workers A,B,..] [options]\n\
         \x20      sysds fuzz --seed S --iters N [--corpus DIR]\n\
         \n\
         run options:\n\
           --arg NAME=VALUE   substitute $NAME in the script with VALUE\n\
           --threads N        kernel/parfor parallelism (default: cores)\n\
           --reuse            enable lineage tracing + full/partial reuse\n\
           --no-recompile     disable dynamic recompilation\n\
           --no-fusion        disable cell-wise operator fusion\n\
           --stats            print heavy-hitter, buffer-pool, cache and\n\
                              estimate-vs-actual statistics after execution\n\
           --trace FILE       write one JSONL span record per compiler\n\
                              phase / instruction / worker to FILE\n\
           --chrome-trace FILE  export the run timeline as Chrome\n\
                              trace_event JSON (chrome://tracing, Perfetto)\n\
           --explain [LEVEL]  print the compiled plan before executing;\n\
                              LEVEL is 'hops' (default: HOP DAGs with\n\
                              dims/sparsity/memory) or 'runtime'\n\
                              (lowered instructions)\n\
         \n\
         worker options (federated site daemon, framed wire protocol):\n\
           --listen ADDR      bind address, e.g. 127.0.0.1:7461 (required;\n\
                              port 0 picks an ephemeral port)\n\
           --threads N        kernel parallelism for site-local compute\n\
         \n\
         fedlm options (federated linear regression driver):\n\
           --workers A,B,..   comma-separated site addresses (host:port);\n\
                              omitted: spawn in-process workers instead\n\
           --sites N          in-process site count when --workers is\n\
                              omitted (default 2)\n\
           --rows N --cols N  synthetic regression data shape (200 x 8)\n\
           --lambda L         ridge regularization (default 0.001)\n\
           --seed S           data generator seed (default 42)\n\
           --stats            print runtime statistics incl. the per-site\n\
                              network table\n\
           --shutdown-workers send a graceful Shutdown to each remote site\n\
                              after the run\n\
         \n\
         fuzz options (differential conformance harness):\n\
           --seed S           campaign seed (default 0); iteration i fuzzes\n\
                              an independent seed derived from (S, i)\n\
           --iters N          scripts to generate and cross-check (default\n\
                              100); each runs under the full configuration\n\
                              matrix (fusion, threads, reuse, evict,\n\
                              norecompile vs the reference)\n\
           --corpus DIR       write minimized .dml repros of any failing\n\
                              seed into DIR\n\
           --fed-every N      every Nth script is federated-compatible and\n\
                              additionally cross-checks in-process vs TCP\n\
                              transports (default 10; 0 disables)\n\
           --max-dim N        generated matrix dimension cap (default 16)\n\
           --save-samples N   with --corpus: also save every Nth passing\n\
                              script as a replayable corpus sample"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run_cmd(&args[1..]),
        Some("worker") => worker_cmd(&args[1..]),
        Some("fedlm") => fedlm_cmd(&args[1..]),
        Some("fuzz") => fuzz_cmd(&args[1..]),
        _ => usage(),
    }
}

fn run_cmd(args: &[String]) -> ExitCode {
    if args.is_empty() {
        usage();
    }
    let script_path = &args[0];
    let mut config = EngineConfig::default();
    let mut stats = false;
    let mut explain: Option<ExplainLevel> = None;
    let mut substitutions: Vec<(String, String)> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--arg" => {
                i += 1;
                let Some(pair) = args.get(i) else { usage() };
                let Some((k, v)) = pair.split_once('=') else {
                    usage()
                };
                substitutions.push((k.to_string(), v.to_string()));
            }
            "--threads" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|v| v.parse().ok()) else {
                    usage()
                };
                config.num_threads = n;
            }
            "--reuse" => config = config.reuse_policy(ReusePolicy::FullAndPartial),
            "--no-recompile" => config.dynamic_recompile = false,
            "--no-fusion" => config.fusion = false,
            "--stats" => {
                stats = true;
                config.stats = true;
            }
            "--trace" => {
                i += 1;
                let Some(path) = args.get(i) else { usage() };
                config.trace_file = Some(path.into());
            }
            "--chrome-trace" => {
                i += 1;
                let Some(path) = args.get(i) else { usage() };
                config.chrome_trace_file = Some(path.into());
            }
            "--explain" => {
                // Optional level: `--explain runtime`; bare `--explain`
                // defaults to the HOP view.
                match args.get(i + 1).map(|s| s.parse::<ExplainLevel>()) {
                    Some(Ok(level)) => {
                        explain = Some(level);
                        i += 1;
                    }
                    _ => explain = Some(ExplainLevel::Hops),
                }
            }
            other => {
                eprintln!("unknown option '{other}'");
                usage();
            }
        }
        i += 1;
    }

    let mut script = match std::fs::read_to_string(script_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read '{script_path}': {e}");
            return ExitCode::FAILURE;
        }
    };
    // $NAME substitution, longest names first so $XY wins over $X.
    substitutions.sort_by_key(|(k, _)| std::cmp::Reverse(k.len()));
    for (k, v) in &substitutions {
        script = script.replace(&format!("${k}"), v);
    }

    let mut sds = match SystemDS::with_config(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("engine init failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    sds.echo_stdout(true);

    // Compile exactly once; explain and execution share the program.
    let program = match sds.compile(&script) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(level) = explain {
        eprintln!(
            "# compiled program: {} top-level blocks, {} functions",
            program.blocks.len(),
            program.functions.len()
        );
        eprint!("{}", sds.explain(&program, level));
    }

    let tracing = sds.config().trace_file.is_some();
    let start = std::time::Instant::now();
    let result = sds.execute_program(&program, &[], &[]);
    if tracing {
        // Flush and close the JSONL sink so every span record is on disk.
        sysds_obs::disable_trace();
    }
    match sds.export_chrome_trace() {
        Ok(Some(path)) => eprintln!("# chrome trace written to {}", path.display()),
        Ok(None) => {}
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    match result {
        Ok(_) => {
            if stats {
                eprintln!("# elapsed: {:.3}s", start.elapsed().as_secs_f64());
                eprint!("{}", sds.run_report().render());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `sysds fuzz`: run a differential conformance campaign. Prints a
/// deterministic report (no wall-clock, no paths) so identical invocations
/// print identical bytes; exits non-zero when any seed diverged.
fn fuzz_cmd(args: &[String]) -> ExitCode {
    let mut opts = sysds_conformance::FuzzOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|v| v.parse().ok()) else {
                    usage()
                };
                opts.seed = v;
            }
            "--iters" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|v| v.parse().ok()) else {
                    usage()
                };
                opts.iters = v;
            }
            "--corpus" => {
                i += 1;
                let Some(dir) = args.get(i) else { usage() };
                opts.corpus_dir = Some(dir.into());
            }
            "--fed-every" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|v| v.parse().ok()) else {
                    usage()
                };
                opts.fed_every = v;
            }
            "--max-dim" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|v| v.parse().ok()) else {
                    usage()
                };
                opts.max_dim = v;
            }
            "--save-samples" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|v| v.parse().ok()) else {
                    usage()
                };
                opts.save_samples = Some(v);
            }
            other => {
                eprintln!("unknown option '{other}'");
                usage();
            }
        }
        i += 1;
    }
    match sysds_conformance::run(&opts) {
        Ok(report) => {
            print!("{}", report.render());
            if report.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `sysds worker --listen ADDR`: run one federated site daemon until a
/// wire `Shutdown` request arrives (or the process is killed).
fn worker_cmd(args: &[String]) -> ExitCode {
    let mut listen: Option<String> = None;
    let mut threads = 1usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => {
                i += 1;
                let Some(addr) = args.get(i) else { usage() };
                listen = Some(addr.clone());
            }
            "--threads" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|v| v.parse().ok()) else {
                    usage()
                };
                threads = n;
            }
            other => {
                eprintln!("unknown option '{other}'");
                usage();
            }
        }
        i += 1;
    }
    let Some(addr) = listen else { usage() };
    let server = match WorkerServer::bind(&addr, vec![], threads) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The endpoint line is the startup handshake scripts wait for (the
    // bound port matters when --listen used port 0).
    println!("# sysds worker listening on {}", server.endpoint());
    while !server.is_stopped() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    eprintln!("# sysds worker shut down");
    ExitCode::SUCCESS
}

/// `sysds fedlm`: federated ridge regression driver — the CLI entry point
/// for exercising the networked federation path end to end. Runs the same
/// model over the requested transports AND over in-process workers, and
/// reports whether the results are bitwise identical.
fn fedlm_cmd(args: &[String]) -> ExitCode {
    let mut worker_addrs: Vec<String> = Vec::new();
    let mut sites = 2usize;
    let mut rows = 200usize;
    let mut cols = 8usize;
    let mut lambda = 0.001f64;
    let mut seed = 42u64;
    let mut stats = false;
    let mut shutdown_workers = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workers" => {
                i += 1;
                let Some(list) = args.get(i) else { usage() };
                worker_addrs = list
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
            }
            "--sites" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|v| v.parse().ok()) else {
                    usage()
                };
                sites = n;
            }
            "--rows" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|v| v.parse().ok()) else {
                    usage()
                };
                rows = n;
            }
            "--cols" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|v| v.parse().ok()) else {
                    usage()
                };
                cols = n;
            }
            "--lambda" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|v| v.parse().ok()) else {
                    usage()
                };
                lambda = v;
            }
            "--seed" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|v| v.parse().ok()) else {
                    usage()
                };
                seed = v;
            }
            "--stats" => stats = true,
            "--shutdown-workers" => shutdown_workers = true,
            other => {
                eprintln!("unknown option '{other}'");
                usage();
            }
        }
        i += 1;
    }
    if stats {
        sysds_obs::enable_stats();
    }
    let (x, y) = sysds_tensor::kernels::gen::synthetic_regression(rows, cols, 1.0, 0.1, seed);

    // Remote TCP transports (kept concretely typed for shutdown_site).
    let mut tcp_sites: Vec<Arc<TcpTransport>> = Vec::new();
    let workers: Vec<Arc<dyn Transport>> = if worker_addrs.is_empty() {
        (0..sites.max(1))
            .map(|_| Arc::new(WorkerHandle::spawn(vec![], 1)) as Arc<dyn Transport>)
            .collect()
    } else {
        let cfg = NetConfig::default();
        let mut ws = Vec::new();
        for addr in &worker_addrs {
            match TcpTransport::connect(addr, cfg) {
                Ok(t) => {
                    let t = Arc::new(t);
                    tcp_sites.push(Arc::clone(&t));
                    ws.push(t as Arc<dyn Transport>);
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        ws
    };
    for site in &workers {
        println!("# site: {}", site.endpoint());
    }

    let start = std::time::Instant::now();
    let fed = (|| {
        let fx = FederatedMatrix::scatter(&x, &workers)?;
        let fy = FederatedMatrix::scatter(&y, &workers)?;
        sysds_fed::learn::federated_lm(&fx, &fy, lambda)
    })();
    let fed = match fed {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = start.elapsed();

    // Reference: the identical model over in-process workers with the same
    // partitioning — must be bitwise identical, transport changes nothing.
    let reference = (|| {
        let local: Vec<Arc<dyn Transport>> = (0..workers.len())
            .map(|_| Arc::new(WorkerHandle::spawn(vec![], 1)) as Arc<dyn Transport>)
            .collect();
        let fx = FederatedMatrix::scatter(&x, &local)?;
        let fy = FederatedMatrix::scatter(&y, &local)?;
        sysds_fed::learn::federated_lm(&fx, &fy, lambda)
    })();
    match reference {
        Ok(r) => {
            let identical = r.to_vec() == fed.to_vec();
            println!("# identical to in-process: {identical}");
            if !identical {
                eprintln!("error: transport changed the result");
                return ExitCode::FAILURE;
            }
        }
        Err(e) => {
            eprintln!("error: reference run failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    let w = fed.to_vec();
    println!(
        "# weights[0..{}] = {:?}",
        w.len().min(4),
        &w[..w.len().min(4)]
    );

    if shutdown_workers {
        for site in &tcp_sites {
            if let Err(e) = site.shutdown_site() {
                eprintln!("warning: shutdown of {} failed: {e}", site.endpoint());
            }
        }
    }
    if stats {
        eprintln!("# elapsed: {:.3}s", elapsed.as_secs_f64());
        let sds = match SystemDS::with_config(EngineConfig {
            stats: true,
            ..EngineConfig::default()
        }) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("engine init failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprint!("{}", sds.run_report().render());
    }
    ExitCode::SUCCESS
}
