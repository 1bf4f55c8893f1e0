//! Black-box tests of the `helix` binary: the `serve` daemon smoke test (50 mixed
//! requests over the stdio batch protocol, one fault-injected panic among them) and
//! the file-IO error paths (missing input, unwritable output — both must name the
//! offending path), the host-topology labels of `helix fuzz`, the success path of
//! `helix trace` (a well-formed Chrome trace of the loop chosen at the traced worker
//! count) and the JSON report of `helix explain`.

use std::process::{Command, Stdio};

use helix_service::{CacheOutcome, Client, Fault, Op, Request, Status};

fn helix_exe() -> &'static str {
    env!("CARGO_BIN_EXE_helix")
}

/// The same DOALL-shaped program family the service tests use; `seed` varies the
/// content hash so the smoke test exercises misses, hits and (tight caps) evictions.
fn doall(seed: i64) -> String {
    format!(
        r#"module cli_smoke
global @g0 "arr" [64 words]
global @g1 "acc" [1 words]
func main(0 params, 8 vars) {{
bb0: (entry)
  %v0 = const 0
  br bb1
bb1:
  %v1 = cmp.lt %v0, 64
  condbr %v1, bb2, bb3
bb2:
  %v2 = add @g0, %v0
  %v3 = mul %v0, {seed}
  %v3 = xor %v3, 40503
  %v3 = mul %v3, 31
  %v3 = xor %v3, 99991
  store [%v2 + 0], %v3
  %v0 = add %v0, 1
  br bb1
bb3:
  %v0 = const 0
  br bb4
bb4:
  %v1 = cmp.lt %v0, 64
  condbr %v1, bb5, bb6
bb5:
  %v2 = add @g0, %v0
  %v4 = load [%v2 + 0]
  %v5 = load [@g1 + 0]
  %v5 = add %v5, %v4
  store [@g1 + 0], %v5
  %v0 = add %v0, 1
  br bb4
bb6:
  %v5 = load [@g1 + 0]
  ret %v5
}}
"#
    )
}

#[test]
fn serve_smoke_50_mixed_requests_survive_an_injected_panic() {
    let mut child = Command::new(helix_exe())
        .args([
            "serve",
            "--stdio",
            "--no-calibrate",
            "--service-threads",
            "2",
            "--threads",
            "2",
            "--cache-cap",
            "8",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn helix serve");
    let stdin = child.stdin.take().unwrap();
    let stdout = child.stdout.take().unwrap();
    let mut client = Client::from_halves(stdout, stdin);

    // 50 mixed requests: runs rotating over three programs (so the cache sees misses
    // AND hits), pings and stats sprinkled in, and one fault-injected panicking job.
    const FAULT_ID: u64 = 25;
    let programs = [doall(11), doall(22), doall(33)];
    for id in 1..=50u64 {
        let req = match id % 10 {
            3 => Request::new(Op::Ping, id),
            7 => Request::new(Op::Stats, id),
            _ => {
                let mut req = Request::run(id, &programs[(id % 3) as usize]);
                if id == FAULT_ID {
                    req.fault = Fault::PanicAt(3);
                }
                req
            }
        };
        client.send(&req).unwrap();
    }
    client.send(&Request::new(Op::Shutdown, 51)).unwrap();

    let mut responses = Vec::new();
    while let Some(resp) = client.recv().unwrap() {
        responses.push(resp);
    }
    let mut ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    assert_eq!(
        ids,
        (1..=51).collect::<Vec<u64>>(),
        "every request must be answered exactly once"
    );

    let mut hits = 0;
    for resp in &responses {
        if resp.id == FAULT_ID {
            assert_eq!(resp.status, Some(Status::Panic), "fault job: {resp:?}");
            let error = resp.error.as_deref().unwrap_or("");
            assert!(
                error.contains("injected fault"),
                "panic payload must reach the client: {error}"
            );
        } else {
            assert_eq!(
                resp.status,
                Some(Status::Ok),
                "non-faulty id {} must succeed after the panic: {:?}",
                resp.id,
                resp.error
            );
        }
        if resp.cache == CacheOutcome::Hit {
            hits += 1;
        }
    }
    assert!(hits > 0, "repeated programs must hit the cache");

    let status = child.wait().expect("wait for helix serve");
    assert!(status.success(), "daemon must exit cleanly, got {status}");
}

#[test]
fn missing_input_file_error_names_the_path() {
    let output = Command::new(helix_exe())
        .args(["run", "/no/such/dir/program.hir"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("/no/such/dir/program.hir"),
        "read error must name the path: {stderr}"
    );
}

#[test]
fn closed_stdout_ends_the_cli_quietly() {
    let mut child = Command::new(helix_exe())
        .args(["dump-workload", "art"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Close the read end before the child writes anything, like `| (exec 0<&-; true)`.
    drop(child.stdout.take());
    let output = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_ne!(output.status.code(), Some(101), "stderr: {stderr}");
}

#[test]
fn unwritable_output_path_error_names_the_path() {
    let dir = std::env::temp_dir().join(format!("helix-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let program = dir.join("prog.hir");
    std::fs::write(&program, doall(5)).unwrap();

    // The parent of --out does not exist, so the trace write must fail — with the path.
    let out_path = "/no/such/dir/out.trace.json";
    let output = Command::new(helix_exe())
        .args([
            "trace",
            program.to_str().unwrap(),
            "--threads",
            "2",
            "--out",
            out_path,
        ])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains(out_path) && stderr.contains("cannot write"),
        "write error must name the path: {stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fuzz_reports_hardware_threads_and_labels_time_sliced_counts() {
    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
    // One count the host can run concurrently, one it cannot whatever the host is.
    let oversubscribed = hardware + 1;
    let threads = format!("1,{oversubscribed}");
    let run = |extra: &[&str]| {
        let out = Command::new(helix_exe())
            .args([
                "fuzz",
                "--seeds",
                "2",
                "--gen-config",
                "small",
                "--no-shrink",
            ])
            .args(["--threads", &threads, "--repeats", "1"])
            .args(["--out", "/nonexistent-dir/never-written"])
            .args(extra)
            .output()
            .expect("run helix fuzz");
        assert!(out.status.success(), "fuzz failed: {out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    let text = run(&[]);
    assert!(
        text.contains(&format!(
            "hardware_threads: {hardware}; worker counts: 1, {oversubscribed} (time-sliced)"
        )),
        "topology line missing: {text}"
    );
    assert!(
        text.contains(&format!(
            "no divergences at 1 worker(s) run concurrently; at {oversubscribed} worker(s) \
             only time-sliced on {hardware} hardware thread(s)"
        )),
        "clean verdict must split concurrent from time-sliced counts: {text}"
    );
    let json = run(&["--json"]);
    assert!(
        json.contains(&format!("\"hardware_threads\":{hardware}")),
        "{json}"
    );
    assert!(
        json.contains("{\"workers\":1,\"mode\":\"concurrent\"}")
            && json.contains(&format!(
                "{{\"workers\":{oversubscribed},\"mode\":\"time-sliced\"}}"
            )),
        "per-count labels missing: {json}"
    );
}

#[test]
fn fuzz_never_prints_a_bare_clean_verdict() {
    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
    let verdict = |threads: &str| {
        let out = Command::new(helix_exe())
            .args([
                "fuzz",
                "--seeds",
                "1",
                "--gen-config",
                "small",
                "--no-shrink",
            ])
            .args(["--threads", threads, "--repeats", "1"])
            .args(["--out", "/nonexistent-dir/never-written"])
            .output()
            .expect("run helix fuzz");
        assert!(out.status.success(), "fuzz failed: {out:?}");
        let text = String::from_utf8(out.stdout).unwrap();
        let line = text.lines().last().unwrap_or_default().to_string();
        assert_ne!(line, "no divergences", "{text}");
        line
    };
    assert_eq!(
        verdict("1"),
        "no divergences at 1 worker(s), all run concurrently"
    );
    let sliced = hardware + 1;
    assert_eq!(
        verdict(&sliced.to_string()),
        format!(
            "no divergences, but only time-sliced: {sliced} worker(s) on {hardware} hardware \
             thread(s), none run concurrently"
        )
    );
}

fn nest_flip() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus/nest_flip.hir")
}

#[test]
fn trace_writes_a_chrome_trace_and_the_lane_table() {
    let dir = std::env::temp_dir().join(format!("helix-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join("nest_flip.trace.json");
    let output = Command::new(helix_exe())
        .args(["trace", nest_flip(), "--threads", "2", "--out"])
        .arg(&out_path)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "trace failed: {output:?}");

    // The checker itself rejects near-misses, so a pass below means well-formed JSON.
    for broken in ["{\"a\":[1,]}", "{\"a\" 1}", "[1.]", "\"\\x\"", "{} {}"] {
        assert!(parse_json(broken).is_err(), "accepted {broken}");
    }
    let text = std::fs::read_to_string(&out_path).unwrap();
    let trace = parse_json(&text).unwrap_or_else(|e| panic!("trace is not JSON: {e}"));
    match trace.get("traceEvents") {
        Some(Json::Arr(events)) => assert!(!events.is_empty(), "traceEvents is empty"),
        other => panic!("no traceEvents array: {other:?}"),
    }
    assert!(
        stdout.contains("lane  dep") && stdout.contains("chrome trace:"),
        "lane table missing: {stdout}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_runs_the_loop_chosen_at_the_traced_worker_count() {
    // At 6 cores the hot signal-bound loop0 is selected; at 2 only loop1 is.
    let output = Command::new(helix_exe())
        .args(["trace", nest_flip(), "--threads", "2", "--out", "/dev/null"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "trace failed: {output:?}");
    assert!(
        stdout.starts_with("traced loop loop1 of `main`"),
        "{stdout}"
    );
}

#[test]
fn explain_json_prices_every_candidate_three_ways_and_observes_the_entry_loops() {
    let output = Command::new(helix_exe())
        .args(["explain", nest_flip(), "--json"])
        .output()
        .unwrap();
    assert!(output.status.success(), "explain failed: {output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let report = parse_json(&stdout).unwrap_or_else(|e| panic!("not JSON: {e}: {stdout}"));
    let Some(Json::Arr(loops)) = report.get("loops") else {
        panic!("no loops array: {stdout}")
    };
    let names: Vec<_> = loops.iter().map(|l| l.scalar("loop")).collect();
    assert_eq!(names, ["\"loop0\"", "\"loop1\"", "\"loop2\""], "{stdout}");
    // The whole-program estimate at the paper's constants, under the default mode.
    assert_eq!(report.scalar("mode"), "\"helix\"", "{stdout}");
    let estimate: f64 = report.scalar("estimated_speedup").parse().unwrap();
    assert!(estimate > 0.0 && estimate <= 6.0, "{stdout}");
    for l in loops {
        // The paper-constant plan of the loop.
        let Some(plan) = l.get("plan") else {
            panic!("no plan: {stdout}")
        };
        let field = |name: &str| -> f64 {
            plan.scalar(name)
                .parse()
                .unwrap_or_else(|_| panic!("plan field {name} missing: {stdout}"))
        };
        for name in [
            "cycles_per_iter",
            "sequential_fraction",
            "loop_carried_fraction",
        ] {
            assert!(field(name) >= 0.0, "{stdout}");
        }
        assert!(field("nesting_depth") >= 1.0, "{stdout}");
        assert!(
            field("synchronized_segments") <= field("segments"),
            "{stdout}"
        );
        assert!(
            field("signals_after") <= field("signals_before"),
            "{stdout}"
        );
        for pricing in ["paper", "calibrated_lowered", "calibrated_observed"] {
            let Some(decision) = l.get(pricing) else {
                panic!("no {pricing} pricing: {stdout}")
            };
            assert!(
                ["true", "false"].contains(&decision.scalar("selected")),
                "{stdout}"
            );
            assert_ne!(decision.scalar("saved_cycles"), "null", "{stdout}");
        }
        // Every loop of nest_flip is in the entry function, so every one ran.
        assert_eq!(l.scalar("function"), "\"main\"");
        assert_eq!(l.scalar("observed"), "true", "{stdout}");
        let Some(Json::Arr(segments)) = l.get("segments") else {
            panic!("no segments: {stdout}")
        };
        assert_eq!(field("segments"), segments.len() as f64, "{stdout}");
        for s in segments
            .iter()
            .filter(|s| s.scalar("synchronized") == "true")
        {
            for column in ["lowered_cycles", "observed_cycles", "ratio"] {
                assert_ne!(s.scalar(column), "null", "{column} missing: {stdout}");
            }
        }
    }
}

/// A JSON value, parsed just far enough to prove a file is well-formed JSON: strings,
/// numbers, booleans and `null` are checked and kept as their source text; object keys
/// stay raw.
#[derive(Debug)]
enum Json {
    Scalar(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value under `key` of an object.
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The source text of the scalar under `key`, or `""` when there is none.
    fn scalar(&self, key: &str) -> &str {
        match self.get(key) {
            Some(Json::Scalar(text)) => text,
            _ => "",
        }
    }
}

/// Parses one complete JSON document, or says at which byte it stopped being JSON.
fn parse_json(text: &str) -> Result<Json, String> {
    let mut parser = JsonParser {
        s: text.as_bytes(),
        i: 0,
    };
    let value = parser.value()?;
    match parser.peek() {
        None => Ok(value),
        Some(_) => Err(format!("trailing bytes at {}", parser.i)),
    }
}

struct JsonParser<'a> {
    s: &'a [u8],
    i: usize,
}

impl JsonParser<'_> {
    /// The next byte after any whitespace.
    fn peek(&mut self) -> Option<u8> {
        while matches!(self.s.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
        self.s.get(self.i).copied()
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() != Some(byte) {
            return Err(format!("expected `{}` at byte {}", byte as char, self.i));
        }
        self.i += 1;
        Ok(())
    }

    /// `item (',' item)* close`, or just `close`, after the opening bracket.
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.i += 1;
        let mut items = Vec::new();
        while self.peek() != Some(close) {
            if !items.is_empty() {
                self.eat(b',')?;
            }
            items.push(item(self)?);
        }
        self.i += 1;
        Ok(items)
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self
                .seq(b'}', |p| {
                    Ok((p.string()?, p.eat(b':').and_then(|()| p.value())?))
                })
                .map(Json::Obj),
            Some(b'[') => self.seq(b']', Self::value).map(Json::Arr),
            Some(b'"') => {
                let start = self.i;
                self.string()?;
                Ok(self.scalar_from(start))
            }
            _ => {
                let rest = &self.s[self.i..];
                if let Some(word) = ["true", "false", "null"]
                    .into_iter()
                    .find(|w| rest.starts_with(w.as_bytes()))
                {
                    let start = self.i;
                    self.i += word.len();
                    return Ok(self.scalar_from(start));
                }
                self.number()
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let start = self.i;
        loop {
            match self.s.get(self.i) {
                Some(b'"') => break,
                Some(b'\\') => match self.s.get(self.i + 1) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => self.i += 2,
                    Some(b'u')
                        if self
                            .s
                            .get(self.i + 2..self.i + 6)
                            .is_some_and(|hex| hex.iter().all(u8::is_ascii_hexdigit)) =>
                    {
                        self.i += 6
                    }
                    _ => return Err(format!("bad escape at byte {}", self.i)),
                },
                Some(0x20..) => self.i += 1,
                _ => return Err(format!("bad string byte at {}", self.i)),
            }
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).map_err(|e| e.to_string())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        let digits = |p: &mut Self| {
            let from = p.i;
            while p.s.get(p.i).is_some_and(u8::is_ascii_digit) {
                p.i += 1;
            }
            p.i > from
        };
        self.i += usize::from(self.s.get(self.i) == Some(&b'-'));
        let mut ok = digits(self);
        if self.s.get(self.i) == Some(&b'.') {
            self.i += 1;
            ok &= digits(self);
        }
        if matches!(self.s.get(self.i), Some(b'e' | b'E')) {
            self.i += 1 + usize::from(matches!(self.s.get(self.i + 1), Some(b'+' | b'-')));
            ok &= digits(self);
        }
        if !ok {
            return Err(format!("not a JSON value at byte {start}"));
        }
        Ok(self.scalar_from(start))
    }

    /// The scalar whose source text runs from `start` to the current byte.
    fn scalar_from(&self, start: usize) -> Json {
        Json::Scalar(String::from_utf8_lossy(&self.s[start..self.i]).into_owned())
    }
}
