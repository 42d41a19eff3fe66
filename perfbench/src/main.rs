//! `perfbench` — end-to-end and per-layer benchmark of the fault-campaign
//! pipeline (layout → extraction → LIFT → AnaFAULT, the campaign daemon
//! and the diagnosis layer). See `perfbench/README.md`.

mod compare;
mod golden;
mod http;
mod inputs;
mod metrics;
mod stats;
mod sys;
mod trace;
mod workloads;

use metrics::{Outcome, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Params, WORKLOADS};

const USAGE: &str = "\
usage:
  perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
      one run of one workload; the last stdout line is its result object
  perfbench run [--seed N] [--seconds S] [--out FILE]
      every workload untraced; prints every end-to-end metric and appends
      the result lines to FILE
  perfbench trace [--seed N] [--seconds S] [--out FILE]
      every workload traced; per-layer metrics and spans to FILE
  perfbench compare BASE HEAD
      paired-run verdicts between two `run --out` files (exit 1 on a
      regression)
  perfbench baseline [--seconds S] --out FILE
      two `run` sets and one `trace` set with a machine fingerprint
  perfbench golden
      rewrite the golden verdict tables from the full-length scalar path
";

/// Seconds per workload when a subcommand is not told otherwise.
const DEFAULT_SECONDS: f64 = 20.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => sweep(&args[1..], false).map(|_| ExitCode::SUCCESS),
        Some("trace") => sweep(&args[1..], true).map(|_| ExitCode::SUCCESS),
        Some("compare") => compare_files(&args[1..]),
        Some("baseline") => baseline(&args[1..]).map(|_| ExitCode::SUCCESS),
        Some("golden") => golden::regenerate().map(|_| ExitCode::SUCCESS),
        Some("--help" | "-h") => {
            print!("{USAGE}\nworkloads:\n");
            for w in WORKLOADS {
                println!("  {:<14} {}", w.name, w.why);
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => single(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n\n{USAGE}");
        ExitCode::from(2)
    })
}

/// `--flag value` pairs, every flag checked against `known`.
fn flags(args: &[String], known: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument `{flag}`"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(flag.clone(), value.clone());
    }
    Ok(map)
}

fn parsed<T: std::str::FromStr>(
    map: &BTreeMap<String, String>,
    flag: &str,
    default: Option<T>,
) -> Result<T, String> {
    match map.get(flag) {
        Some(v) => v.parse().map_err(|_| format!("{flag}: cannot parse `{v}`")),
        None => default.ok_or_else(|| format!("{flag} is required")),
    }
}

/// One run of one workload, in the form BENCHMARK.json's command takes.
fn single(args: &[String]) -> Result<ExitCode, String> {
    let map = flags(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--spans"],
    )?;
    let name: String = parsed(&map, "--workload", None)?;
    let trace = match parsed::<u8>(&map, "--trace", None)? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    let params = Params {
        seed: parsed(&map, "--seed", None)?,
        seconds: parsed(&map, "--seconds", None)?,
        trace,
    };
    if !params.seconds.is_finite() || params.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let mut spans = trace::Trace::default();
    let outcome = workloads::run(&name, params, &mut spans)?;
    if let Some(path) = map.get("--spans") {
        // The served workload's clean-up may have removed an emptied
        // parent directory.
        if let Some(dir) = Path::new(path).parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, spans.to_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    let table = if trace { PER_LAYER } else { END_TO_END };
    eprint!("{}", summary(&name, &outcome, table));
    println!("{}", outcome.to_json(table));
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Human-readable metrics of one run.
fn summary(name: &str, outcome: &Outcome, table: &[metrics::MetricDef]) -> String {
    let mut s = format!(
        "{name}: {} operations, {} failed\n",
        outcome.attempted, outcome.failed
    );
    for d in table {
        s.push_str(&format!(
            "  {:<30} {:>14} {}\n",
            d.name,
            format!("{:.6}", outcome.get(d.name)),
            d.unit
        ));
    }
    let lat = &outcome.latencies_ms;
    if !lat.is_empty() {
        let tail = match stats::tail_percentile(lat) {
            Some((level, value)) => format!("p{level} {value:.6} ms"),
            None => format!(
                "no percentile has {} samples beyond it",
                stats::TAIL_MIN_BEYOND
            ),
        };
        s.push_str(&format!(
            "  request latency: median {:.6} ms, {tail} (n = {})\n",
            stats::median(lat),
            lat.len()
        ));
    }
    s
}

/// Machine fingerprint recorded with every result file.
fn fingerprint() -> String {
    format!(
        "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"rustc\": \"{}\", \"git_rev\": \"{}\"}}",
        inputs::nproc(),
        sys::cpu_model().replace('"', "'"),
        sys::command_line_output("rustc", &["--version"]),
        sys::command_line_output("git", &["rev-parse", "HEAD"]),
    )
}

/// Runs every workload in a child process of its own (so peak memory
/// and process state do not carry over) and returns each result line,
/// tagged with the workload and seed.
fn run_all(seed: u64, seconds: f64, trace: bool, with_spans: bool) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let tmp = PathBuf::from(".perfbench_tmp");
    let mut lines = Vec::new();
    for w in WORKLOADS {
        let spans = tmp.join(format!("spans-{}-{}.json", std::process::id(), w.name));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name, "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ])
            .stderr(Stdio::inherit());
        if with_spans {
            cmd.arg("--spans").arg(&spans);
        }
        let output = cmd
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let result = stdout
            .lines()
            .last()
            .filter(|l| l.starts_with('{'))
            .ok_or_else(|| format!("{} printed no result", w.name))?;
        let mut line = format!(
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {}, {}",
            w.name,
            u8::from(trace),
            &result[1..]
        );
        if with_spans {
            let text = std::fs::read_to_string(&spans).map_err(|e| e.to_string())?;
            std::fs::remove_file(&spans).ok();
            line.truncate(line.len() - 1);
            line.push_str(&format!(", \"spans\": {text}}}"));
        }
        lines.push(line);
    }
    std::fs::remove_dir(&tmp).ok();
    Ok(lines)
}

/// `run` / `trace`: every workload, printed, and appended to `--out`.
fn sweep(args: &[String], trace: bool) -> Result<(), String> {
    let map = flags(args, &["--seed", "--seconds", "--out"])?;
    let seed: u64 = parsed(&map, "--seed", Some(1))?;
    let seconds: f64 = parsed(&map, "--seconds", Some(DEFAULT_SECONDS))?;
    let lines = run_all(seed, seconds, trace, trace && map.contains_key("--out"))?;
    if let Some(path) = map.get("--out") {
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        let command = std::env::args().collect::<Vec<_>>().join(" ");
        writeln!(
            file,
            "{{\"fingerprint\": {}, \"command\": \"{command}\"}}",
            fingerprint()
        )
        .and_then(|()| lines.iter().try_for_each(|l| writeln!(file, "{l}")))
        .map_err(|e| format!("{path}: {e}"))?;
    }
    let failed = lines.iter().any(|l| l.contains("\"correct\": false"));
    if failed {
        return Err("some workload failed its checks (see above)".into());
    }
    Ok(())
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [base, head] = args else {
        return Err("compare takes two files".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (report, regressed) =
        compare::compare(&compare::load(&read(base)?)?, &compare::load(&read(head)?)?)?;
    print!("{report}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `baseline`: two untraced sets (seeds 1 and 2) and one traced set
/// (seed 3), written as one JSON document with the fingerprint and the
/// commands that reproduce each part.
fn baseline(args: &[String]) -> Result<(), String> {
    let map = flags(args, &["--seconds", "--out"])?;
    let seconds: f64 = parsed(&map, "--seconds", Some(DEFAULT_SECONDS))?;
    let out: String = parsed(&map, "--out", None)?;
    let sets = [
        run_all(1, seconds, false, false)?,
        run_all(2, seconds, false, false)?,
    ];
    let traced = run_all(3, seconds, true, false)?;
    let join = |lines: &[String]| format!("[\n    {}\n  ]", lines.join(",\n    "));
    let doc = format!(
        "{{\n  \"fingerprint\": {},\n  \"commands\": {{\n    \
         \"build\": \"cargo build --release --offline --manifest-path perfbench/Cargo.toml\",\n    \
         \"this_file\": \"bash perfbench/run.sh baseline --seconds {seconds} --out {out}\",\n    \
         \"set_1\": \"bash perfbench/run.sh run --seed 1 --seconds {seconds}\",\n    \
         \"set_2\": \"bash perfbench/run.sh run --seed 2 --seconds {seconds}\",\n    \
         \"trace\": \"bash perfbench/run.sh trace --seed 3 --seconds {seconds}\"\n  }},\n  \
         \"set_1\": {},\n  \"set_2\": {},\n  \"trace\": {}\n}}\n",
        fingerprint(),
        join(&sets[0]),
        join(&sets[1]),
        join(&traced)
    );
    std::fs::write(Path::new(&out), doc).map_err(|e| format!("{out}: {e}"))
}
