//! End-to-end tests of the `protogen` command-line tool.

use semantics::json::Json;
use std::io::Write;
use std::process::{Command, Stdio};

const EXAMPLE3: &str = "SPEC S [> interrupt3 ; exit WHERE\n\
    PROC S = (read1; push2; S >> pop2; write3; exit)\n\
          [] (eof1; make3; exit) END ENDSPEC\n";

fn protogen(args: &[&str], stdin: Option<&str>) -> (String, String, bool) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_protogen"));
    cmd.args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn protogen");
    if let Some(input) = stdin {
        // A usage error can end the child before it reads its input; the
        // pipe then breaks, and the exit status and stderr still tell.
        let written = child.stdin.as_mut().unwrap().write_all(input.as_bytes());
        if let Err(e) = written {
            assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe, "{e}");
        }
    }
    drop(child.stdin.take());
    let out = child.wait_with_output().expect("wait protogen");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn check_accepts_example3() {
    let (stdout, _, ok) = protogen(&["check", "-"], Some(EXAMPLE3));
    assert!(ok, "{stdout}");
    assert!(stdout.contains("OK"), "{stdout}");
    assert!(stdout.contains("places: {1,2,3}"), "{stdout}");
}

#[test]
fn check_rejects_r1_violation() {
    let (stdout, _, ok) = protogen(
        &["check", "-"],
        Some("SPEC a1;c3;exit [] b2;c3;exit ENDSPEC"),
    );
    assert!(!ok);
    assert!(stdout.contains("R1"), "{stdout}");
}

#[test]
fn attrs_prints_fixpoint() {
    let (stdout, _, ok) = protogen(&["attrs", "-"], Some(EXAMPLE3));
    assert!(ok, "{stdout}");
    assert!(
        stdout.contains("PROC S: SP = {1}  EP = {3}  AP = {1,2,3}"),
        "{stdout}"
    );
    assert!(stdout.contains("ALL = {1,2,3}"), "{stdout}");
}

#[test]
fn derive_prints_three_entities() {
    let (stdout, _, ok) = protogen(&["derive", "-"], Some(EXAMPLE3));
    assert!(ok, "{stdout}");
    for p in 1..=3 {
        assert!(stdout.contains(&format!("-- place {p}")), "{stdout}");
    }
    assert!(
        stdout.contains("synchronization messages: 14 sends"),
        "{stdout}"
    );
    // -p filters to one place
    let (one, _, ok) = protogen(&["derive", "-p", "2", "-"], Some(EXAMPLE3));
    assert!(ok);
    assert!(
        one.contains("-- place 2") && !one.contains("-- place 1"),
        "{one}"
    );
}

#[test]
fn verify_passes_for_simple_service() {
    let (stdout, _, ok) = protogen(
        &["verify", "-l", "5", "-"],
        Some("SPEC a1; b2; c3; exit ENDSPEC"),
    );
    assert!(ok, "{stdout}");
    assert!(stdout.contains("EQUAL"), "{stdout}");
    assert!(stdout.contains("weak bisimulation: EQUIVALENT"), "{stdout}");
}

/// A state cap below the trace bound makes a trace-equal verdict
/// inconclusive: exit 7 with the depth reached, not the failure exit 4.
#[test]
fn verify_truncated_by_the_state_cap_is_inconclusive() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_protogen"))
        .args(["verify", "specs/example2_anbn.lotos", "-l", "8", "-s", "40"])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(7), "{stdout}{stderr}");
    assert!(
        stdout.contains("traces ≤ 8: INCONCLUSIVE (equal up to length"),
        "{stdout}"
    );
    assert!(stderr.contains("verification inconclusive"), "{stderr}");
}

#[test]
fn verify_fails_for_r1_violation() {
    let (_, stderr, ok) = protogen(
        &["verify", "-"],
        Some("SPEC a1;c3;exit [] b2;c3;exit ENDSPEC"),
    );
    assert!(!ok);
    assert!(stderr.contains("R1"), "{stderr}");
}

#[test]
fn simulate_reports_runs() {
    let (stdout, _, ok) = protogen(
        &["simulate", "--runs", "3", "--seed", "7", "-"],
        Some("SPEC a1; b2; exit ENDSPEC"),
    );
    assert!(ok, "{stdout}");
    assert_eq!(stdout.matches("conforms=true").count(), 3, "{stdout}");
    assert!(stdout.contains("trace=a1.b2"), "{stdout}");
}

#[test]
fn gen_produces_derivable_spec() {
    let (stdout, _, ok) = protogen(&["gen", "--seed", "5", "--places", "3", "--rec"], None);
    assert!(ok, "{stdout}");
    // the generated text round-trips through check
    let (check_out, _, check_ok) = protogen(&["check", "-"], Some(&stdout));
    assert!(check_ok, "{check_out}\n{stdout}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let (_, stderr, ok) = protogen(&["frobnicate"], None);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn help_prints_usage() {
    let (stdout, _, ok) = protogen(&["help"], None);
    assert!(ok);
    assert!(stdout.contains("usage:"));
}

#[test]
fn central_derives_server_and_clients() {
    let (stdout, _, ok) = protogen(
        &["central", "--server", "1", "-"],
        Some("SPEC a1; b2; c3; exit ENDSPEC"),
    );
    assert!(ok, "{stdout}");
    assert!(stdout.contains("place 1 (server)"), "{stdout}");
    assert!(stdout.contains("PROC CLIENT"), "{stdout}");
}

#[test]
fn central_defaults_to_lowest_place() {
    let (stdout, _, ok) = protogen(&["central", "-"], Some("SPEC b2; c3; exit ENDSPEC"));
    assert!(ok, "{stdout}");
    assert!(stdout.contains("place 2 (server)"), "{stdout}");
}

#[test]
fn lts_prints_transitions() {
    let (stdout, _, ok) = protogen(&["lts", "-"], Some("SPEC a1; b2; exit ENDSPEC"));
    assert!(ok, "{stdout}");
    assert!(stdout.contains("states: 4"), "{stdout}");
    assert!(stdout.contains("--a1-->"), "{stdout}");
    assert!(
        stdout.contains("--\u{3b4}-->") || stdout.contains("δ"),
        "{stdout}"
    );
}

#[test]
fn lts_minimize_reduces_duplicates() {
    let (full, _, _) = protogen(&["lts", "-"], Some("SPEC a1;c1;exit [] a1;c1;exit ENDSPEC"));
    let (min, _, ok) = protogen(
        &["lts", "-m", "-"],
        Some("SPEC a1;c1;exit [] a1;c1;exit ENDSPEC"),
    );
    assert!(ok);
    let states = |s: &str| -> usize {
        s.lines()
            .find(|l| l.starts_with("states:"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap()
    };
    assert!(states(&min) <= states(&full), "{min}\n{full}");
    assert_eq!(states(&min), 4, "{min}");
}

#[test]
fn lts_dot_output() {
    let (stdout, _, ok) = protogen(
        &["lts", "-m", "--dot", "-"],
        Some("SPEC a1; b2; exit ENDSPEC"),
    );
    assert!(ok, "{stdout}");
    assert!(stdout.starts_with("digraph"), "{stdout}");
    assert!(stdout.contains("label=\"a1\""), "{stdout}");
}

#[test]
fn simulate_with_lossy_link() {
    let (stdout, _, ok) = protogen(
        &["simulate", "--loss", "0.3", "--runs", "2", "-"],
        Some("SPEC a1; b2; a1; b2; exit ENDSPEC"),
    );
    assert!(ok, "{stdout}");
    assert!(stdout.contains("lost="), "{stdout}");
    assert_eq!(stdout.matches("conforms=true").count(), 2, "{stdout}");
}

#[test]
fn run_executes_one_session_with_trace() {
    let (stdout, _, ok) = protogen(
        &["run", "--seed", "3", "-"],
        Some("SPEC a1; b2; c3; exit ENDSPEC"),
    );
    assert!(ok, "{stdout}");
    assert!(stdout.contains("end=Terminated"), "{stdout}");
    assert!(stdout.contains("conforms=true"), "{stdout}");
    assert!(stdout.contains("trace: a1.b2.c3"), "{stdout}");
}

#[test]
fn run_concurrent_engine_with_faults() {
    let (stdout, _, ok) = protogen(
        &[
            "run",
            "--threads",
            "2",
            "--faults",
            "lossy:0.3",
            "--seed",
            "11",
            "-",
        ],
        Some("SPEC a1; b2; a1; b2; exit ENDSPEC"),
    );
    assert!(ok, "{stdout}");
    assert!(stdout.contains("engine=concurrent"), "{stdout}");
    assert!(stdout.contains("conforms=true"), "{stdout}");
}

#[test]
fn load_reports_and_writes_json() {
    let out = std::env::temp_dir().join("protogen_load_report.json");
    let out_s = out.to_str().unwrap();
    let (stdout, _, ok) = protogen(
        &[
            "load",
            "--sessions",
            "50",
            "--threads",
            "4",
            "--faults",
            "reorder",
            "--seed",
            "9",
            "--out",
            out_s,
            "-",
        ],
        Some("SPEC a1; b2; c3; exit ENDSPEC"),
    );
    assert!(ok, "{stdout}");
    assert!(stdout.contains("conforming=50"), "{stdout}");
    let json = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    std::fs::remove_file(&out).ok();
    assert_eq!(json["sessions"].as_u64(), Some(50), "{json}");
    assert_eq!(json["engine"].as_str(), Some("concurrent"), "{json}");
    for prim in ["a", "b", "c"] {
        assert_eq!(json["per_prim"][prim]["count"].as_u64(), Some(50), "{json}");
    }
}

#[test]
fn load_fails_with_exit_code_4_on_violations() {
    // `interrupt3` admissible at any moment: the §3.3 disable deviation
    // makes some seeded runs non-conformant (EXPERIMENTS.md E5/E6).
    let mut seen_failure = false;
    for seed in ["1", "2", "3", "4", "5"] {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_protogen"));
        cmd.args(["load", "--sessions", "20", "--seed", seed, "-"])
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped());
        let mut child = cmd.spawn().unwrap();
        use std::io::Write as _;
        child
            .stdin
            .as_mut()
            .unwrap()
            .write_all(EXAMPLE3.as_bytes())
            .unwrap();
        drop(child.stdin.take());
        let out = child.wait_with_output().unwrap();
        if !out.status.success() {
            assert_eq!(out.status.code(), Some(4));
            seen_failure = true;
            break;
        }
    }
    assert!(seen_failure, "disable deviation never surfaced in 5 seeds");
}

#[test]
fn distributed_spawn_run_conforms_over_tcp() {
    let dir = std::env::temp_dir();
    let spec = dir.join("protogen_dist_run.lotos");
    let report = dir.join("protogen_dist_run.json");
    std::fs::write(&spec, "SPEC a1; b2; c1; exit ENDSPEC").unwrap();
    let (stdout, stderr, ok) = protogen(
        &[
            "run",
            spec.to_str().unwrap(),
            "--distributed",
            "--spawn",
            "--seed",
            "5",
            "--report",
            report.to_str().unwrap(),
        ],
        None,
    );
    assert!(ok, "{stdout}\n{stderr}");
    assert!(stdout.contains("engine=distributed"), "{stdout}");
    assert!(stdout.contains("conforms=true"), "{stdout}");
    assert!(stdout.contains("trace: a1.b2.c1"), "{stdout}");
    let json = Json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
    std::fs::remove_file(&report).ok();
    std::fs::remove_file(&spec).ok();
    assert_eq!(json["engine"].as_str(), Some("distributed"), "{json}");
    assert_eq!(
        json["schema_version"].as_u64(),
        Some(runtime::REPORT_SCHEMA_VERSION as u64)
    );
    assert_eq!(json["stages"]["wire"]["count"].as_u64(), Some(1), "{json}");
    assert!(json["gauges"]["window_size"].as_u64() > Some(0), "{json}");
    assert!(json["backend"].as_str().is_some(), "{json}");
    assert!(
        matches!(json["per_link"], Json::Obj(ref links) if !links.is_empty()),
        "{json}"
    );
    // The hub counts what it forwards: a1 → b2 → c1 needs two
    // sequencing messages, and one channel at a time holds one.
    assert!(
        matches!(json["messages_per_kind"], Json::Obj(ref kinds) if !kinds.is_empty()),
        "{json}"
    );
    assert_eq!(
        json["messages_per_kind"]["seq"].as_u64(),
        json["messages"].as_u64(),
        "{json}"
    );
    assert!(json["max_queue_depth"].as_u64() > Some(0), "{json}");
}

#[test]
fn distributed_load_over_uds_under_flaky_proxies() {
    let dir = std::env::temp_dir();
    let spec = dir.join("protogen_dist_flaky.lotos");
    let sock = dir.join(format!("protogen_dist_{}.sock", std::process::id()));
    std::fs::remove_file(&sock).ok();
    std::fs::write(&spec, "SPEC a1; b2; exit ENDSPEC").unwrap();
    let (stdout, stderr, ok) = protogen(
        &[
            "load",
            spec.to_str().unwrap(),
            "--distributed",
            "--spawn",
            "--listen",
            &format!("uds:{}", sock.display()),
            "--link-faults",
            "flaky-link",
            "--sessions",
            "12",
            "--threads",
            "2",
            "--seed",
            "11",
        ],
        None,
    );
    std::fs::remove_file(&spec).ok();
    std::fs::remove_file(&sock).ok();
    assert!(ok, "{stdout}\n{stderr}");
    assert!(stdout.contains("engine=distributed"), "{stdout}");
    assert!(stdout.contains("conforming=12"), "{stdout}");
    assert!(stderr.contains("link-faults:"), "{stderr}");
}

/// Killing one entity process mid-run must surface as the distinct
/// transport exit code (6) with diagnostics — never as a hang.
#[test]
fn distributed_dead_entity_exits_with_transport_code() {
    use std::io::{BufRead, BufReader, Read as _};
    use std::time::{Duration, Instant};

    let dir = std::env::temp_dir();
    let spec = dir.join("protogen_dist_kill.lotos");
    std::fs::write(&spec, "SPEC a1; b2; exit ENDSPEC").unwrap();
    let spec_s = spec.to_str().unwrap().to_string();

    let mut hub = Command::new(env!("CARGO_BIN_EXE_protogen"))
        .args([
            "load",
            &spec_s,
            "--distributed",
            "--listen",
            "tcp:127.0.0.1:0",
            "--sessions",
            "50000",
            "--threads",
            "1",
            "--seed",
            "3",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut hub_err = BufReader::new(hub.stderr.take().unwrap());
    let mut line = String::new();
    let hub_addr = loop {
        line.clear();
        assert!(
            hub_err.read_line(&mut line).unwrap() > 0,
            "hub exited before announcing its address"
        );
        if let Some(rest) = line.split("listening on ").nth(1) {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };

    let serve = |place: &str| {
        Command::new(env!("CARGO_BIN_EXE_protogen"))
            .args(["serve", &spec_s, "--place", place, "--hub", &hub_addr])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap()
    };
    let mut e1 = serve("1");
    let mut e2 = serve("2");
    std::thread::sleep(Duration::from_millis(150));
    e2.kill().unwrap();
    e2.wait().unwrap();

    // Drain hub stderr from a thread: per-session abort diagnostics can
    // overflow the pipe buffer and would otherwise block the hub's exit.
    let drain = std::thread::spawn(move || {
        let mut rest = String::new();
        hub_err.read_to_string(&mut rest).ok();
        rest
    });

    // The hub must declare place 2 dead after its reconnect deadline and
    // abort the remaining sessions; well under the 30s guard here.
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(s) = hub.try_wait().unwrap() {
            break s;
        }
        if Instant::now() >= deadline {
            hub.kill().ok();
            panic!("hub hung after an entity died");
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    let rest = drain.join().unwrap();
    std::fs::remove_file(&spec).ok();
    assert_eq!(
        status.code(),
        Some(6),
        "expected transport exit code 6\nstderr: {rest}"
    );
    assert!(
        rest.contains("dead") || rest.contains("aborted"),
        "no dead-link diagnostic in stderr: {rest}"
    );

    // The surviving entity received Shutdown and exits on its own.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if e1.try_wait().unwrap().is_some() {
            break;
        }
        if Instant::now() >= deadline {
            e1.kill().ok();
            panic!("surviving entity never shut down");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn run_rejects_bad_fault_profile() {
    let (_, stderr, ok) = protogen(
        &["run", "--faults", "chaos", "-"],
        Some("SPEC a1; b2; exit ENDSPEC"),
    );
    assert!(!ok);
    assert!(stderr.contains("--faults"), "{stderr}");
}

/// Non-numeric values of `derive -p` and `simulate --runs` are usage
/// errors (exit 1), like `--seed`, not silently place 0 or one run.
#[test]
fn bad_place_and_runs_values_fail_with_usage() {
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/transport2.lotos");
    for (args, msg) in [
        (["derive", spec, "-p", "x"], "bad -p value"),
        (["simulate", spec, "--runs", "x"], "bad --runs value"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_protogen"))
            .args(args)
            .output()
            .expect("run protogen");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(msg), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed output");
    }
}

/// A mistyped flag is a usage error (exit 1) that names it — not a run
/// of the wrong engine, and not a value read as the spec path.
#[test]
fn unknown_flags_fail_with_usage() {
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/transport2.lotos");
    for (args, flag) in [
        (vec!["load", spec, "--distribted"], "--distribted"),
        (vec!["load", spec, "--sesions", "5"], "--sesions"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_protogen"))
            .args(&args)
            .output()
            .expect("run protogen");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed output");
    }
}
