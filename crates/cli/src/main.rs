//! The Protocol Generator (PG) command-line tool — the Rust counterpart of
//! the Prolog prototype described in paper Section 4.2.
//!
//! ```text
//! protogen check    <spec.lotos>          syntax + attribute + R1-R3 report
//! protogen attrs    <spec.lotos>          SP/EP/AP/N table (paper Fig. 4)
//! protogen derive   <spec.lotos> [-p P]   derived entity specifications
//! protogen verify   <spec.lotos> [-l N]   Section 5 theorem instance check
//! protogen simulate <spec.lotos> [--seed S] [--runs K]
//! protogen run      <spec.lotos> [--seed S] [--faults PROF]   one live session
//! protogen load     <spec.lotos> --sessions N --threads T [--faults PROF]
//! protogen trace    <spec.lotos> [run/load flags] | --inspect F | --validate F
//! protogen serve    <spec.lotos> --place P --hub ADDR   one entity process
//! protogen codegen  <spec.lotos> [--place P] [--rust]   compiled entity tables
//! protogen gen      [--seed S] [--places N] [--depth D] [--disable] [--rec]
//! protogen central  <spec.lotos> [--server P]   §3 centralized baseline
//! protogen lts      <spec.lotos> [-m]           service LTS (minimized with -m)
//! protogen top      <host:port> [--interval MS] [--once]   live hub dashboard
//! ```
//!
//! `<spec.lotos>` may be `-` for standard input.
//!
//! Every command funnels through the [`protogen::Pipeline`] facade; exit
//! codes follow [`ProtogenError::exit_code`] — 2 parse, 3 restriction
//! (R1–R3), 4 verification, 5 other derivation error, 1 anything else.

use lotos::place::PlaceId;
use lotos::printer::{print_expr, print_spec};
use obs::{EventKind, Recorder, Registry};
use protogen::stats::{message_stats, operator_counts};
use protogen::{Pipeline, PipelineConfig, ProtogenError};
use runtime::{
    BackendChoice, DistributedConfig, FaultProfile, RuntimeConfig, RuntimeReport, ServeConfig,
};
use semantics::ExploreConfig;
use sim::{simulate, SimConfig};
use std::io::Read;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use transport::{Addr, FaultProxy, LinkFaults};
use verify::{PipelineVerify, VerifyConfig};

mod top;

fn main() -> ExitCode {
    // Exit quietly when stdout is closed early (`protogen ... | head`):
    // a broken pipe is normal Unix operation, not a crash.
    std::panic::set_hook(Box::new(|info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if msg.contains("Broken pipe") {
            std::process::exit(0);
        }
        eprintln!("{info}");
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("protogen: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn usage() -> ProtogenError {
    ProtogenError::Usage(
        "usage: protogen <check|attrs|derive|verify|simulate|trace|codegen|gen> [options] <spec.lotos|->\n\
         \n\
         check     parse and report restriction violations (R1, R2, R3, ...)\n\
         attrs     print the SP/EP/AP attribute table and node numbering\n\
         derive    print the derived protocol entity specifications\n\
         \x20          -p <place>    only this place\n\
         verify    check  S = hide G in ((T1 ||| ... ||| Tn) |[G]| Medium)\n\
         \x20          -l <len>      observable-trace bound (default 6)\n\
         \x20          -s <states>   state cap (default 60000)\n\
         simulate  run the derived protocol through the event simulator\n\
         \x20          --seed <s>    RNG seed       --runs <k>   number of runs\n\
         \x20          --loss <p>    frame-loss probability (unreliable link, §6)\n\
         \x20          --no-arq      disable the ARQ recovery layer\n\
         run       execute one session on the entity runtime (trace + conformance)\n\
         \x20          --seed <s>    session seed\n\
         \x20          --faults <f>  none | lossy[:p] | reorder[:p] | delay[:min..max]\n\
         \x20          --threads <t> >= 2 selects the concurrent actor engine\n\
         \x20          --report <file> write the JSON RuntimeReport here\n\
         load      drive many concurrent sessions and report load metrics\n\
         \x20          --sessions <n>  session count (default 1)\n\
         \x20          --threads <t>   entity threads (scales the in-flight window)\n\
         \x20          --faults <f>    fault profile (as for run)\n\
         \x20          --seed <s> --capacity <c> --max-steps <m>\n\
         \x20          --backend <b>   interpreted | compiled | auto (default: auto\n\
         \x20                          compiles each entity to tables where possible)\n\
         \x20          --report <file> write the JSON RuntimeReport here (alias: --out)\n\
         \x20          --refuse <a@p>  primitive the place-p user never offers (repeatable)\n\
         \x20          --stall-after <ms>  flag sessions older than this with stall\n\
         \x20                          forensics (default: derived from the live p99)\n\
         \n\
         run/load can execute over real sockets instead of in-process:\n\
         \x20          --distributed   run as the hub: entities connect over TCP/UDS\n\
         \x20          --listen <a>    hub address: tcp:host:port | uds:/path\n\
         \x20                          (default tcp:127.0.0.1:0, resolved port printed)\n\
         \x20          --spawn         also fork one `protogen serve` per place\n\
         \x20          --link-faults <f>  with --spawn: route each entity through a\n\
         \x20                          seeded fault proxy (clean | flaky-link | partition-heal)\n\
         \x20          --metrics <h:p> serve Prometheus text on /metrics and a\n\
         \x20                          JSON snapshot on /health (hub only)\n\
         \x20          --batch-frames <n>  frames coalesced per link before a\n\
         \x20                          mid-sweep flush (default 128; forwarded to\n\
         \x20                          --spawn children)\n\
         run/load/trace flight recording:\n\
         \x20          --trace <file>  record the run and write Chrome trace JSON here\n\
         trace     record a run into a merged causal trace, or inspect one\n\
         \x20          (accepts all run/load flags; default output protogen-trace.json)\n\
         \x20          --timeline      also print the per-session causal timeline\n\
         \x20          --inspect <file>  print an existing trace (filters: --session\n\
         \x20                          <n>, --place <p>) instead of recording\n\
         \x20          --validate <file> parse-check an existing trace and exit\n\
         serve     run one protocol entity against a distributed hub\n\
         \x20          --place <p>     which entity (required)\n\
         \x20          --hub <a>       hub address (required), as for --listen\n\
         \x20          --refuse <a@p>  refused primitive (repeatable)\n\
         \x20          --seed <s>      reconnect-jitter seed\n\
         \x20          --backend <b>   as for run/load\n\
         \x20          --batch-frames <n>  as for --distributed\n\
         codegen   lower each entity to flat transition tables and emit them\n\
         \x20          --place <p>     only this place\n\
         \x20          --out <file>    write here instead of stdout\n\
         \x20          --rust          emit a standalone Rust module instead of JSON\n\
         gen       emit a random well-formed service specification\n\
         \x20          --seed <s> --places <n> --depth <d> --disable --rec\n\
         central   derive the Section-3 centralized-server baseline\n\
         \x20          --server <p>  server place (default: lowest place)\n\
         lts       print the service's labelled transition system\n\
         \x20          -m            minimize by strong bisimilarity first\n\
         \x20          --dot         emit Graphviz DOT instead of text\n\
         top       live dashboard over a hub's --metrics endpoint\n\
         \x20          --interval <ms>  poll period (default 1000)\n\
         \x20          --once           print one frame and exit\n\
         \n\
         -j <threads> on derive/verify/lts selects exploration parallelism\n\
         (0 = auto-detect; default 1). Exit codes: 2 parse error, 3\n\
         restriction violation, 4 verification failure, 5 derivation\n\
         error, 6 distributed transport failure (dead link / aborted\n\
         sessions), 1 other."
            .to_string(),
    )
}

/// Flags that consume the following argument as their value. Their values
/// must not be mistaken for the spec path when locating it.
const VALUE_FLAGS: &[&str] = &[
    "-j",
    "-l",
    "-s",
    "-p",
    "--seed",
    "--runs",
    "--loss",
    "--places",
    "--depth",
    "--server",
    "--sessions",
    "--threads",
    "--faults",
    "--backend",
    "--capacity",
    "--max-steps",
    "--out",
    "--report",
    "--refuse",
    "--place",
    "--hub",
    "--listen",
    "--link-faults",
    "--batch-frames",
    "--trace",
    "--metrics",
    "--inspect",
    "--validate",
    "--session",
    "--stall-after",
    "--interval",
];

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &[
    "-m",
    "--disable",
    "--distributed",
    "--dot",
    "--no-arq",
    "--once",
    "--rec",
    "--rust",
    "--spawn",
    "--timeline",
];

/// Fail on any `-`-prefixed argument that neither [`VALUE_FLAGS`] nor
/// [`BOOL_FLAGS`] names (`-` alone, for stdin, is no flag), so a typo
/// is a usage error instead of being ignored or read as the spec path.
fn check_flags(args: &[String]) -> Result<(), ProtogenError> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if VALUE_FLAGS.contains(&a.as_str()) {
            it.next();
        } else if a.starts_with('-') && a != "-" && !BOOL_FLAGS.contains(&a.as_str()) {
            return Err(ProtogenError::Usage(format!(
                "unknown flag `{a}` (see `protogen help`)"
            )));
        }
    }
    Ok(())
}

/// Locate the spec argument (path or `-` for stdin), skipping over flag
/// values so `verify spec.lotos -l 6 -j 4` does not read `4` as the path.
fn spec_arg(args: &[String]) -> Option<&String> {
    let mut it = args.iter();
    let mut path = None;
    while let Some(a) = it.next() {
        if VALUE_FLAGS.contains(&a.as_str()) {
            it.next();
        } else if !a.starts_with('-') || a == "-" {
            path = Some(a);
        }
    }
    path
}

/// Parse the spec argument (path or `-` for stdin) into a pipeline with
/// the exploration configuration from `-j`.
fn load_pipeline(args: &[String]) -> Result<Pipeline, ProtogenError> {
    let path = spec_arg(args).ok_or_else(usage)?;
    let pipeline = if path == "-" {
        let mut src = String::new();
        std::io::stdin()
            .read_to_string(&mut src)
            .map_err(|e| ProtogenError::Io {
                path: "<stdin>".to_string(),
                message: e.to_string(),
            })?;
        Pipeline::load(&src)?
    } else {
        Pipeline::load_file(path)?
    };
    let threads = match flag_value(args, "-j") {
        Some(v) => v
            .parse()
            .map_err(|_| ProtogenError::Usage("bad -j value".into()))?,
        None => 1,
    };
    Ok(pipeline.with_config(PipelineConfig::new().threads(threads)))
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    name: &str,
) -> Result<Option<T>, ProtogenError> {
    match flag_value(args, name) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| ProtogenError::Usage(format!("bad {name} value"))),
    }
}

/// Every value of a repeatable flag, in order.
fn flag_values<'a>(args: &'a [String], name: &str) -> Vec<&'a str> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == name)
        .filter_map(|(i, _)| args.get(i + 1))
        .map(|s| s.as_str())
        .collect()
}

/// Parse the repeatable `--refuse name@place` flags.
fn refusals(args: &[String]) -> Result<Vec<(String, PlaceId)>, ProtogenError> {
    flag_values(args, "--refuse")
        .into_iter()
        .map(|v| {
            let (name, place) = v.split_once('@').ok_or_else(|| {
                ProtogenError::Usage(format!("bad --refuse value `{v}`: expected name@place"))
            })?;
            let place: PlaceId = place.parse().map_err(|_| {
                ProtogenError::Usage(format!("bad --refuse value `{v}`: `{place}` is no place"))
            })?;
            Ok((name.to_string(), place))
        })
        .collect()
}

/// Assemble a [`RuntimeConfig`] from the shared `run`/`load` flags.
fn runtime_config(args: &[String]) -> Result<RuntimeConfig, ProtogenError> {
    let mut cfg = RuntimeConfig::new();
    if let Some(n) = parse_flag(args, "--sessions")? {
        cfg = cfg.sessions(n);
    }
    if let Some(t) = parse_flag(args, "--threads")? {
        cfg = cfg.threads(t);
    }
    if let Some(s) = parse_flag(args, "--seed")? {
        cfg = cfg.seed(s);
    }
    if let Some(c) = parse_flag(args, "--capacity")? {
        cfg = cfg.capacity(c);
    }
    if let Some(m) = parse_flag(args, "--max-steps")? {
        cfg = cfg.max_steps(m);
    }
    if let Some(f) = flag_value(args, "--faults") {
        let profile = FaultProfile::parse(f)
            .map_err(|e| ProtogenError::Usage(format!("bad --faults value: {e}")))?;
        cfg = cfg.faults(profile);
    }
    if let Some(b) = flag_value(args, "--backend") {
        let choice = BackendChoice::parse(b).map_err(ProtogenError::Usage)?;
        cfg = cfg.backend(choice);
    }
    if let Some(ms) = parse_flag::<u64>(args, "--stall-after")? {
        if ms == 0 {
            return Err(ProtogenError::Usage(
                "--stall-after must be at least 1 (ms)".into(),
            ));
        }
        cfg = cfg.stall_after(std::time::Duration::from_millis(ms));
    }
    for (name, place) in refusals(args)? {
        cfg = cfg.refuse(&name, place);
    }
    Ok(cfg)
}

/// Where `run`/`load` write the JSON report: `--report <path>`, or the
/// older `--out <path>` alias.
fn report_path(args: &[String]) -> Option<&str> {
    flag_value(args, "--report").or_else(|| flag_value(args, "--out"))
}

/// Write the JSON report to `path`, or dump it to stdout when there is
/// no path and `dump_default` is set.
fn write_report(
    path: Option<&str>,
    report: &RuntimeReport,
    dump_default: bool,
) -> Result<(), ProtogenError> {
    match path {
        Some(path) => {
            std::fs::write(path, report.to_json().to_string()).map_err(|e| ProtogenError::Io {
                path: path.to_string(),
                message: e.to_string(),
            })?;
            println!("report: {path}");
        }
        None if dump_default => println!("{}", report.to_json()),
        None => {}
    }
    Ok(())
}

/// Execute `run`/`load` as the distributed hub (`--distributed`):
/// listen on `--listen` (default loopback TCP, OS-assigned port) and,
/// with `--spawn`, fork one `protogen serve` child per place. With a
/// registry in `cfg` the hub records at place 0, stamps its trace id
/// into every session `Open`, and absorbs the entity-side recorder
/// chunks; with `--metrics` it serves Prometheus text on `/metrics` for
/// the run's duration (plus `/trace` when recording).
fn run_distributed(
    derived: &protogen::pipeline::Derived,
    cfg: &RuntimeConfig,
    args: &[String],
) -> Result<RuntimeReport, ProtogenError> {
    let d = derived.derivation();
    let listen = match flag_value(args, "--listen") {
        Some(a) => Addr::parse(a).map_err(ProtogenError::Usage)?,
        None => Addr::Tcp("127.0.0.1:0".to_string()),
    };
    let io_err = |e: std::io::Error| ProtogenError::Io {
        path: listen.to_string(),
        message: e.to_string(),
    };
    let mut dcfg = DistributedConfig::new(listen.clone());
    let batch_frames: Option<usize> = parse_flag(args, "--batch-frames")?;
    if let Some(n) = batch_frames {
        if n == 0 {
            return Err(ProtogenError::Usage(
                "--batch-frames must be at least 1".into(),
            ));
        }
        dcfg.batch_frames = n;
    }
    dcfg.metrics = flag_value(args, "--metrics").map(str::to_string);
    if let Some(addr) = &dcfg.metrics {
        eprintln!("hub: metrics exposition on http://{addr}/metrics");
    }
    let listener = dcfg.listen.listen().map_err(io_err)?;
    let bound = listener.local_addr().map_err(io_err)?;
    eprintln!(
        "hub: listening on {bound} for {} entities",
        d.entities.len()
    );

    let link_faults = match flag_value(args, "--link-faults") {
        Some(v) => Some(LinkFaults::parse(v).map_err(ProtogenError::Usage)?),
        None => None,
    };
    if link_faults.is_some() && !args.iter().any(|a| a == "--spawn") {
        return Err(ProtogenError::Usage(
            "--link-faults needs --spawn (the proxies sit in front of spawned entities)".into(),
        ));
    }

    let mut children = Vec::new();
    let mut proxies = Vec::new();
    if args.iter().any(|a| a == "--spawn") {
        let spec = spec_arg(args).ok_or_else(usage)?;
        if spec == "-" {
            return Err(ProtogenError::Usage(
                "--spawn needs a spec file path (children re-read it), not stdin".into(),
            ));
        }
        let exe = std::env::current_exe().map_err(|e| ProtogenError::Io {
            path: "argv[0]".to_string(),
            message: e.to_string(),
        })?;
        for (i, (p, _)) in d.entities.iter().enumerate() {
            // With --link-faults every entity talks to its own seeded
            // fault proxy instead of the hub directly, so connection
            // kills and partitions exercise the supervised link.
            let hub_addr = match link_faults {
                Some(faults) => {
                    let proxy = FaultProxy::spawn(
                        &Addr::Tcp("127.0.0.1:0".to_string()),
                        bound.clone(),
                        faults,
                        cfg.seed
                            .wrapping_add(i as u64)
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    )
                    .map_err(io_err)?;
                    let addr = proxy.addr.clone();
                    proxies.push(proxy);
                    addr
                }
                None => bound.clone(),
            };
            let mut cmd = std::process::Command::new(&exe);
            cmd.arg("serve")
                .arg(spec)
                .args(["--place", &p.to_string()])
                .args(["--hub", &hub_addr.to_string()])
                .args(["--seed", &cfg.seed.to_string()])
                .args(["--backend", &cfg.backend.to_string()])
                .stdout(std::process::Stdio::null());
            if let Some(n) = batch_frames {
                cmd.args(["--batch-frames", &n.to_string()]);
            }
            for (name, place) in &cfg.refuse {
                cmd.args(["--refuse", &format!("{name}@{place}")]);
            }
            let child = cmd.spawn().map_err(|e| ProtogenError::Io {
                path: exe.display().to_string(),
                message: format!("spawning serve for place {p}: {e}"),
            })?;
            children.push(child);
        }
    }

    let report = runtime::run_hub_on(d, cfg, &dcfg, listener).map_err(io_err);
    // Entities exit on Shutdown; whatever is still running once the
    // grace period lapses (e.g. after an aborted run) is cleaned up.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    for mut child in children {
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                _ if std::time::Instant::now() >= deadline => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break;
                }
                _ => std::thread::sleep(std::time::Duration::from_millis(20)),
            }
        }
    }
    let kills: u64 = proxies.iter().map(|p| p.kills()).sum();
    if link_faults.is_some() {
        eprintln!("link-faults: proxies killed {kills} connection(s)");
    }
    for proxy in proxies {
        proxy.stop();
    }
    report
}

/// Run one pipeline stage, timing it into `phases` and bracketing it
/// with `PhaseStart`/`PhaseEnd` recorder events when recording.
fn staged<T>(
    rec: Option<&Recorder>,
    phases: &mut Vec<(String, f64)>,
    name: &str,
    f: impl FnOnce() -> Result<T, ProtogenError>,
) -> Result<T, ProtogenError> {
    if let Some(r) = rec {
        r.record_named(EventKind::PhaseStart, obs::NO_SESSION, 0, name, 0);
    }
    let t = Instant::now();
    let out = f();
    if let Some(r) = rec {
        r.record_named(EventKind::PhaseEnd, obs::NO_SESSION, 0, name, 0);
    }
    phases.push((name.to_string(), t.elapsed().as_secs_f64() * 1000.0));
    out
}

/// Shared `run`/`load`/`trace` executor: phase-timed pipeline stages,
/// optional flight recording (`--trace <path>` or `trace_path`), local
/// or distributed (`--distributed`) execution. Returns the report with
/// measured phase timings plus the registry when the run recorded.
fn execute_runtime(
    rest: &[String],
    single: bool,
    trace_path: Option<&str>,
) -> Result<(RuntimeReport, Option<Arc<Registry>>), ProtogenError> {
    let mut cfg = runtime_config(rest)?;
    if single {
        cfg = cfg.sessions(1);
    }
    let registry = (trace_path.is_some() || cfg.record)
        .then(|| Registry::new(runtime::trace_id_for(cfg.seed), obs::DEFAULT_CAPACITY));
    if let Some(reg) = &registry {
        cfg = cfg.record(true).registry(Arc::clone(reg));
    }
    let rec = registry.as_ref().map(|r| r.recorder(0));
    let rec = rec.as_ref();
    let mut phases = Vec::new();

    let pipeline = staged(rec, &mut phases, "parse", || load_pipeline(rest))?;
    let checked = staged(rec, &mut phases, "attributes", || pipeline.check())?;
    let derived = staged(rec, &mut phases, "derive", || checked.derive())?;

    let distributed = rest.iter().any(|a| a == "--distributed");
    if flag_value(rest, "--metrics").is_some() && !distributed {
        return Err(ProtogenError::Usage(
            "--metrics needs --distributed (the hub serves the exposition)".into(),
        ));
    }
    let mut report = staged(rec, &mut phases, "run", || {
        if distributed {
            run_distributed(&derived, &cfg, rest)
        } else {
            runtime::try_run(derived.derivation(), &cfg).map_err(ProtogenError::Usage)
        }
    })?;
    report.phases = phases;

    if let Some(reg) = &registry {
        // Refresh the counts past the final PhaseEnd, then export.
        let (rings, events, dropped) = reg.stats();
        report.trace_meta = Some(runtime::TraceMeta {
            trace_id: reg.trace_id,
            rings,
            events,
            dropped,
        });
        if let Some(path) = trace_path {
            std::fs::write(path, reg.snapshot().to_chrome_json()).map_err(|e| {
                ProtogenError::Io {
                    path: path.to_string(),
                    message: e.to_string(),
                }
            })?;
            eprintln!("trace: wrote {path} ({events} events)");
        }
    }
    Ok((report, registry))
}

fn run(args: &[String]) -> Result<(), ProtogenError> {
    let cmd = args.first().ok_or_else(usage)?.as_str();
    let rest = &args[1..];
    check_flags(rest)?;
    match cmd {
        "check" => {
            let pipeline = load_pipeline(rest)?;
            let attrs = pipeline.attrs();
            let ops = operator_counts(pipeline.spec());
            println!(
                "places: {}   operators: {} prefix, {} choice, {} par, {} enable, {} disable, {} call",
                attrs.all, ops.prefix, ops.choice, ops.par, ops.enable, ops.disable, ops.call
            );
            match pipeline.check() {
                Ok(_) => {
                    println!("OK: specification satisfies R1, R2, R3 and the service grammar");
                    Ok(())
                }
                Err(e) => {
                    if let ProtogenError::Restriction(violations) = &e {
                        for v in violations {
                            println!("VIOLATION: {v}");
                        }
                    }
                    Err(e)
                }
            }
        }
        "attrs" => {
            let pipeline = load_pipeline(rest)?;
            let spec = pipeline.spec();
            let attrs = pipeline.attrs();
            println!("ALL = {}   (fixpoint passes: {})", attrs.all, attrs.passes);
            for (pi, p) in spec.procs.iter().enumerate() {
                println!(
                    "PROC {}: SP = {}  EP = {}  AP = {}",
                    p.name, attrs.proc_sp[pi], attrs.proc_ep[pi], attrs.proc_ap[pi]
                );
            }
            println!(
                "{:>4} {:>10} {:>10} {:>10}  expression",
                "N", "SP", "EP", "AP"
            );
            let mut rows: Vec<(u32, lotos::NodeId)> = spec
                .iter_nodes()
                .filter(|(id, _)| attrs.num(*id) > 0)
                .map(|(id, _)| (attrs.num(id), id))
                .collect();
            rows.sort_unstable();
            for (n, id) in rows {
                let mut text = print_expr(spec, id);
                if text.len() > 48 {
                    text.truncate(45);
                    text.push_str("...");
                }
                println!(
                    "{:>4} {:>10} {:>10} {:>10}  {}",
                    n,
                    attrs.sp(id).to_string(),
                    attrs.ep(id).to_string(),
                    attrs.ap(id).to_string(),
                    text
                );
            }
            Ok(())
        }
        "derive" => {
            let only: Option<u8> = parse_flag(rest, "-p")?;
            let derived = load_pipeline(rest)?.check()?.derive()?;
            let d = derived.derivation();
            for (p, entity) in &d.entities {
                if let Some(q) = only {
                    if *p != q {
                        continue;
                    }
                }
                println!("-- place {p}");
                println!("{}", print_spec(entity));
            }
            let stats = message_stats(d);
            println!(
                "-- synchronization messages: {} sends, {} receives",
                stats.total, stats.recv_total
            );
            for (kind, count) in &stats.per_kind {
                println!("--   {kind}: {count}");
            }
            Ok(())
        }
        "verify" => {
            let derived = load_pipeline(rest)?.check()?.derive()?;
            let mut opts = VerifyConfig::default();
            if let Some(l) = parse_flag(rest, "-l")? {
                opts.trace_len = l;
            }
            if let Some(s) = parse_flag(rest, "-s")? {
                opts = opts.max_states(s);
            }
            let report = derived.verify_report(&opts);
            print!("{report}");
            if report.passed() {
                Ok(())
            } else if let (true, Some(d)) = (report.inconclusive(), report.exact_depth) {
                Err(ProtogenError::Inconclusive(format!(
                    "traces agree up to length {d}, where the state cap cut the exploration; raise -s or lower -l"
                )))
            } else {
                Err(ProtogenError::Verification(
                    "trace sets differ, deadlock found, or bisimulation failed".into(),
                ))
            }
        }
        "simulate" => {
            let derived = load_pipeline(rest)?.check()?.derive()?;
            let d = derived.derivation();
            let mut cfg = SimConfig::default();
            if let Some(s) = parse_flag(rest, "--seed")? {
                cfg.seed = s;
            }
            if let Some(loss) = parse_flag::<f64>(rest, "--loss")? {
                cfg.link = Some(sim::LinkConfig {
                    loss,
                    arq: !rest.iter().any(|a| a == "--no-arq"),
                    ..sim::LinkConfig::default()
                });
            }
            let runs: usize = parse_flag(rest, "--runs")?.unwrap_or(1);
            let mut ok = true;
            for r in 0..runs {
                let outcome = simulate(
                    d,
                    SimConfig {
                        seed: cfg.seed.wrapping_add(r as u64),
                        ..cfg.clone()
                    },
                );
                let trace: Vec<String> = outcome
                    .trace
                    .iter()
                    .map(|(n, p)| format!("{n}{p}"))
                    .collect();
                let link_info = if cfg.link.is_some() {
                    format!(
                        " lost={} retx={}",
                        outcome.metrics.frames_lost, outcome.metrics.retransmissions
                    )
                } else {
                    String::new()
                };
                println!(
                    "run {r}: {:?} conforms={} prims={} msgs={} (ratio {:.2}) t={:.1}{link_info} trace={}",
                    outcome.result,
                    outcome.conforms(),
                    outcome.metrics.primitives,
                    outcome.metrics.messages,
                    outcome.metrics.overhead_ratio(),
                    outcome.metrics.end_time,
                    trace.join(".")
                );
                ok &= outcome.conforms();
            }
            if ok {
                Ok(())
            } else {
                Err(ProtogenError::Verification(
                    "simulation found service violations".into(),
                ))
            }
        }
        "run" => {
            let (report, _) = execute_runtime(rest, true, flag_value(rest, "--trace"))?;
            let session = report
                .reports
                .first()
                .ok_or_else(|| ProtogenError::Derive("runtime produced no session".into()))?;
            let trace: Vec<String> = session
                .trace
                .iter()
                .map(|(n, p)| format!("{n}{p}"))
                .collect();
            println!(
                "engine={} end={:?} conforms={} prims={} msgs={} steps={} (overhead {:.2})",
                report.engine,
                session.end,
                session.conforms,
                session.primitives,
                session.messages,
                session.steps,
                report.overhead_ratio(),
            );
            if report.frames_lost + report.retransmissions > 0 {
                println!(
                    "faults: lost={} retx={}",
                    report.frames_lost, report.retransmissions
                );
            }
            println!("trace: {}", trace.join("."));
            if let Some((name, place)) = &session.violation {
                println!("VIOLATION: primitive {name}{place} not allowed by the service");
            }
            for event in &report.transport_events {
                eprintln!("transport: {event}");
            }
            write_report(report_path(rest), &report, false)?;
            if report.aborted > 0 {
                Err(ProtogenError::Transport(format!(
                    "{} session(s) aborted on a dead link",
                    report.aborted
                )))
            } else if report.passed() {
                Ok(())
            } else {
                Err(ProtogenError::Verification(
                    "session violated the service specification or failed to terminate".into(),
                ))
            }
        }
        "load" => {
            let (report, _) = execute_runtime(rest, false, flag_value(rest, "--trace"))?;
            println!(
                "engine={} sessions={} conforming={} terminated={} deadlocked={} \
                 step-limited={} violations={}",
                report.engine,
                report.sessions,
                report.conforming,
                report.terminated,
                report.deadlocked,
                report.step_limited,
                report.violations.len(),
            );
            println!(
                "prims={} msgs={} delivered={} overhead={:.2} lost={} retx={} \
                 max-queue={} wall={:.3}s sessions/s={:.1} latency p50={}us p99={}us",
                report.primitives,
                report.messages,
                report.delivered,
                report.overhead_ratio(),
                report.frames_lost,
                report.retransmissions,
                report.max_queue_depth,
                report.wall_s,
                report.sessions_per_sec,
                report.session_latency.p50,
                report.session_latency.p99,
            );
            for event in &report.transport_events {
                eprintln!("transport: {event}");
            }
            write_report(report_path(rest), &report, true)?;
            if report.aborted > 0 {
                Err(ProtogenError::Transport(format!(
                    "{} of {} sessions aborted on a dead link",
                    report.aborted, report.sessions
                )))
            } else if report.passed() {
                Ok(())
            } else {
                Err(ProtogenError::Verification(format!(
                    "{} of {} sessions failed to conform",
                    report.sessions - report.conforming,
                    report.sessions
                )))
            }
        }
        "trace" => {
            let read_file = |path: &str| {
                std::fs::read_to_string(path).map_err(|e| ProtogenError::Io {
                    path: path.to_string(),
                    message: e.to_string(),
                })
            };
            if let Some(path) = flag_value(rest, "--validate") {
                let events = obs::parse_chrome_json(&read_file(path)?)
                    .map_err(|e| ProtogenError::Verification(format!("{path}: {e}")))?;
                println!("{path}: valid Chrome trace JSON, {} events", events.len());
                return Ok(());
            }
            if let Some(path) = flag_value(rest, "--inspect") {
                let mut events = obs::parse_chrome_json(&read_file(path)?)
                    .map_err(|e| ProtogenError::Verification(format!("{path}: {e}")))?;
                if let Some(s) = parse_flag::<i64>(rest, "--session")? {
                    events.retain(|e| e.session == s);
                }
                if let Some(p) = parse_flag::<u64>(rest, "--place")? {
                    events.retain(|e| e.pid == p);
                }
                for e in &events {
                    println!(
                        "ts={:>12.3}us place={} session={:<3} lc={:<5} [{}] {}",
                        e.ts_us, e.pid, e.session, e.lc, e.cat, e.name
                    );
                }
                println!("{} events", events.len());
                return Ok(());
            }
            // Record mode: run the spec (all run/load flags apply) with
            // the flight recorder on and write the merged causal trace.
            let path = flag_value(rest, "--trace")
                .or_else(|| flag_value(rest, "--out"))
                .unwrap_or("protogen-trace.json");
            let (report, registry) = execute_runtime(rest, false, Some(path))?;
            let registry = registry.expect("trace records by construction");
            let log = registry.snapshot();
            for (name, ms) in &report.phases {
                println!("phase {name}: {ms:.3} ms");
            }
            println!(
                "sessions={} conforming={} violations={} events={}",
                report.sessions,
                report.conforming,
                report.violations.len(),
                log.events.len(),
            );
            if rest.iter().any(|a| a == "--timeline") {
                print!("{}", log.to_timeline());
            }
            let causal = log.causal_violations();
            for c in &causal {
                eprintln!("causal: {c}");
            }
            // `--out` names the trace file here; only `--report` writes
            // the JSON report.
            write_report(flag_value(rest, "--report"), &report, false)?;
            if !causal.is_empty() {
                Err(ProtogenError::Verification(format!(
                    "{} causal inconsistencies in the merged trace",
                    causal.len()
                )))
            } else if report.passed() {
                Ok(())
            } else {
                Err(ProtogenError::Verification(
                    "run failed (violations or aborted sessions); see the report".into(),
                ))
            }
        }
        "serve" => {
            let derived = load_pipeline(rest)?.check()?.derive()?;
            let d = derived.derivation();
            let place: PlaceId = parse_flag(rest, "--place")?
                .ok_or_else(|| ProtogenError::Usage("serve needs --place <p>".into()))?;
            let hub = flag_value(rest, "--hub")
                .ok_or_else(|| ProtogenError::Usage("serve needs --hub <addr>".into()))?;
            let hub = Addr::parse(hub).map_err(ProtogenError::Usage)?;
            let entity = d
                .entities
                .iter()
                .find(|(p, _)| *p == place)
                .map(|(_, spec)| spec)
                .ok_or_else(|| {
                    ProtogenError::Derive(format!("the service has no place {place}"))
                })?;
            let mut scfg = ServeConfig::new(hub, place);
            if let Some(s) = parse_flag(rest, "--seed")? {
                scfg.seed = s;
            }
            if let Some(b) = flag_value(rest, "--backend") {
                scfg.backend = BackendChoice::parse(b).map_err(ProtogenError::Usage)?;
            }
            if let Some(n) = parse_flag::<usize>(rest, "--batch-frames")? {
                if n == 0 {
                    return Err(ProtogenError::Usage(
                        "--batch-frames must be at least 1".into(),
                    ));
                }
                scfg.batch_frames = n;
            }
            scfg.refuse = refusals(rest)?;
            eprintln!("serve: place {place} connecting to {}", scfg.hub);
            match runtime::serve_entity(entity, &scfg) {
                Ok(out) => {
                    println!(
                        "place {place}: sessions={} prims={} reconnects={} retx={} dup-dropped={}",
                        out.sessions_closed,
                        out.primitives,
                        out.link.reconnects,
                        out.link.retransmissions,
                        out.link.dup_dropped,
                    );
                    Ok(())
                }
                Err(e) => Err(ProtogenError::Transport(e)),
            }
        }
        "codegen" => {
            let derived = load_pipeline(rest)?.check()?.derive()?;
            let d = derived.derivation();
            let only: Option<PlaceId> = parse_flag(rest, "--place")?;
            let entities: Vec<(PlaceId, lotos::ast::Spec)> = d
                .entities
                .iter()
                .filter(|(p, _)| only.is_none_or(|q| *p == q))
                .cloned()
                .collect();
            if entities.is_empty() {
                return Err(ProtogenError::Derive(format!(
                    "the service has no place {}",
                    only.expect("unfiltered derivations are never empty")
                )));
            }
            let cfg = semantics::lower::LowerConfig::default();
            let set = semantics::lower::lower_entities(&entities, &cfg).map_err(|e| {
                ProtogenError::Derive(format!(
                    "lowering failed: {e} (such entities can only run on the \
                     interpreted backend; see docs/COMPILED.md)"
                ))
            })?;
            let out = if rest.iter().any(|a| a == "--rust") {
                let name = spec_arg(rest)
                    .map(|p| p.as_str())
                    .filter(|p| *p != "-")
                    .and_then(|p| std::path::Path::new(p).file_stem())
                    .and_then(|s| s.to_str())
                    .unwrap_or("service");
                semantics::lower::emit_rust_module(&set, name)
            } else {
                let tables = semantics::json_obj! {
                    "schema" => "protogen-tables-v1",
                    "entities" => set
                        .entities
                        .iter()
                        .map(|(_, e)| e.to_json())
                        .collect::<semantics::json::Json>(),
                };
                format!("{tables:#}\n")
            };
            eprintln!(
                "codegen: {} entit{} lowered, {} states total",
                set.entities.len(),
                if set.entities.len() == 1 { "y" } else { "ies" },
                set.total_states()
            );
            match flag_value(rest, "--out") {
                Some(path) => {
                    std::fs::write(path, &out).map_err(|e| ProtogenError::Io {
                        path: path.to_string(),
                        message: e.to_string(),
                    })?;
                    println!("tables: {path}");
                }
                None => print!("{out}"),
            }
            Ok(())
        }
        "gen" => {
            let mut cfg = specgen::GenConfig::default();
            if let Some(s) = parse_flag(rest, "--seed")? {
                cfg.seed = s;
            }
            if let Some(p) = parse_flag(rest, "--places")? {
                cfg.places = p;
            }
            if let Some(d) = parse_flag(rest, "--depth")? {
                cfg.max_depth = d;
            }
            cfg.allow_disable = rest.iter().any(|a| a == "--disable");
            cfg.allow_recursion = rest.iter().any(|a| a == "--rec");
            let spec = specgen::generate(cfg);
            println!("{}", print_spec(&spec));
            Ok(())
        }
        "central" => {
            let pipeline = load_pipeline(rest)?;
            let attrs = pipeline.attrs();
            let server: u8 = match parse_flag(rest, "--server")? {
                Some(v) => v,
                None => attrs
                    .all
                    .min_place()
                    .ok_or_else(|| ProtogenError::Derive("service mentions no place".into()))?,
            };
            let d = protogen::centralized::centralize(pipeline.spec(), server)
                .map_err(ProtogenError::from)?;
            for (p, entity) in &d.entities {
                println!(
                    "-- place {p}{}",
                    if *p == server { " (server)" } else { "" }
                );
                println!("{}", print_spec(entity));
            }
            let stats = message_stats(&d);
            println!("-- synchronization messages: {} sends", stats.total);
            Ok(())
        }
        "lts" => {
            let pipeline = load_pipeline(rest)?;
            let threads = pipeline.config().explore.threads;
            let pipeline = pipeline.with_config(
                PipelineConfig::new().explore(
                    ExploreConfig::new()
                        .max_states(20_000)
                        .max_depth(2_000)
                        .threads(threads),
                ),
            );
            let minimize = rest.iter().any(|a| a == "-m");
            let (lts, _) = pipeline.service_lts();
            if !lts.complete {
                eprintln!("note: state space truncated at {} states", lts.len());
            }
            let lts = if minimize { lts.minimize() } else { lts };
            if rest.iter().any(|a| a == "--dot") {
                print!("{}", semantics::dot::to_dot(&lts, "service"));
                return Ok(());
            }
            println!(
                "states: {}   transitions: {}   initial: {}",
                lts.len(),
                lts.transition_count(),
                lts.initial
            );
            for (s, edges) in lts.trans.iter().enumerate() {
                for (l, t) in edges {
                    println!("  {s} --{l}--> {t}");
                }
            }
            Ok(())
        }
        "top" => top::top(rest),
        "help" | "--help" | "-h" => {
            let ProtogenError::Usage(text) = usage() else {
                unreachable!()
            };
            println!("{text}");
            Ok(())
        }
        other => Err(ProtogenError::Usage(format!(
            "unknown command `{other}`\n{}",
            match usage() {
                ProtogenError::Usage(text) => text,
                _ => unreachable!(),
            }
        ))),
    }
}
