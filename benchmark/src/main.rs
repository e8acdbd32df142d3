//! The crossing benchmark's command line. See `benchmark/README.md`.

mod compare;
mod crossing;
mod fixture;
mod gen;
mod hist;
mod host;
mod json;
mod pipeline;
mod record;
mod run;
mod spec;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

use json::Value;
use spec::{Contract, Workload, WORKLOADS};

const USAGE: &str = "usage:
  dista-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one pass of one workload; the last stdout line is the result object
  dista-benchmark run [--smoke] [--seed <n>] [--out <file>]
      both passes of all five workloads; appends to results/history.jsonl
  dista-benchmark compare <old.jsonl> <new.jsonl>
      old vs new against BENCHMARK.json's bounds; exits 1 on regression
  dista-benchmark selftest
      proves the checker can fail: a wrong expected tag must fail the run";

/// Set by the parent on the pinned child it re-executes itself as; its
/// value says whether `taskset` confined it.
const CHILD_ENV: &str = "DISTA_BENCH_CHILD";

/// Share of the op counts a `--smoke` run uses.
const SMOKE_SHARE: f64 = 0.01;

struct PassArgs {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    expect_wrong_tag: bool,
}

impl PassArgs {
    fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "--workload".to_string(),
            self.workload.name.to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--seconds".to_string(),
            self.seconds.to_string(),
            "--trace".to_string(),
            u8::from(self.trace).to_string(),
        ];
        if self.expect_wrong_tag {
            args.push("--expect-wrong-tag".to_string());
        }
        args
    }
}

fn parse_pass(args: &[String]) -> Result<PassArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut wrong) = (None, 1, None, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(spec::workload(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--expect-wrong-tag" => wrong = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(PassArgs {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        expect_wrong_tag: wrong,
    })
}

/// Re-executes this binary as the workload's own child process,
/// confined with `taskset` to as many of the allowed cores as the
/// workload has drivers (unconfined if `taskset` is missing).
fn pinned_child(pass: &PassArgs) -> std::io::Result<Command> {
    let exe = std::env::current_exe()?;
    let cores: Vec<String> = host::allowed_cores()
        .iter()
        .take(pass.workload.drivers)
        .map(usize::to_string)
        .collect();
    let have_taskset = !cores.is_empty()
        && Command::new("taskset")
            .arg("--version")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
    let mut cmd = if have_taskset {
        let mut cmd = Command::new("taskset");
        cmd.arg("-c").arg(cores.join(",")).arg(exe);
        cmd
    } else {
        Command::new(exe)
    };
    cmd.args(pass.to_args())
        .env(CHILD_ENV, if have_taskset { "pinned" } else { "unpinned" });
    Ok(cmd)
}

/// The child: runs the pass and prints every metric by name with its
/// unit, then the run's meta object, then — last — the result object.
fn run_pass(pass: &PassArgs, contract: &Contract, pinned: bool) -> ExitCode {
    let params = run::Params {
        seed: pass.seed,
        seconds: pass.seconds,
        expect_wrong_tag: pass.expect_wrong_tag,
    };
    let trace_path = record::results_dir().join(format!("{}.trace.jsonl", pass.workload.name));
    let outcome = if pass.trace {
        std::fs::create_dir_all(record::results_dir())
            .map_err(|e| format!("{}: {e}", record::results_dir().display()))
            .and_then(|()| run::layers(pass.workload, params, &trace_path))
    } else {
        run::end_to_end(pass.workload, params)
    };
    let result = match outcome {
        Ok(result) => result,
        Err(e) => {
            eprintln!("dista-benchmark: {}: {e}", pass.workload.name);
            return ExitCode::FAILURE;
        }
    };

    let listed = if pass.trace {
        &contract.per_layer
    } else {
        &contract.end_to_end
    };
    let mut metrics = Vec::with_capacity(listed.len());
    for m in listed {
        let Some(&(_, value)) = result.metrics.iter().find(|(name, _)| *name == m.name) else {
            eprintln!(
                "dista-benchmark: BENCHMARK.json lists {:?}, which this pass does not measure",
                m.name
            );
            return ExitCode::FAILURE;
        };
        println!(
            "{:<16} {:<34} {:>16.4} {}",
            pass.workload.name, m.name, value, m.unit
        );
        metrics.push((
            m.name.clone(),
            Value::obj([
                ("value", Value::Num(value)),
                ("unit", Value::Str(m.unit.clone())),
            ]),
        ));
    }
    let failed_share = result.failed as f64 / result.attempted as f64;
    println!(
        "{:<16} {:<34} {:>16.4} ratio",
        pass.workload.name, "failed_share", failed_share
    );

    let mut meta = vec![
        (
            "workload".to_string(),
            Value::Str(pass.workload.name.into()),
        ),
        ("seed".to_string(), Value::Num(pass.seed as f64)),
        ("seconds".to_string(), Value::Num(pass.seconds)),
        ("trace".to_string(), Value::Bool(pass.trace)),
        (
            "drivers".to_string(),
            Value::Num(pass.workload.drivers as f64),
        ),
        ("nproc".to_string(), Value::Num(host::nproc() as f64)),
        ("pinned".to_string(), Value::Bool(pinned)),
        (
            "cores".to_string(),
            Value::Arr(
                host::allowed_cores()
                    .iter()
                    .map(|&c| Value::Num(c as f64))
                    .collect(),
            ),
        ),
    ];
    meta.extend(result.notes.iter().map(|(k, v)| (k.to_string(), v.clone())));
    println!("{}", Value::Obj(meta).render());
    println!(
        "{}",
        Value::obj([
            ("correct", Value::Bool(result.failed == 0)),
            ("attempted", Value::Num(result.attempted as f64)),
            ("failed", Value::Num(result.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
        .render()
    );
    if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A child pass's captured output: exit status, the metric table it
/// printed, and its meta and result objects.
struct ChildOutput {
    success: bool,
    table: String,
    meta: Value,
    result: Value,
}

fn capture_pass(pass: &PassArgs) -> Result<ChildOutput, String> {
    let output = pinned_child(pass)
        .and_then(|mut cmd| cmd.stderr(Stdio::inherit()).output())
        .map_err(|e| format!("spawning the {} child: {e}", pass.workload.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let (Some(result), Some(meta)) = (lines.pop(), lines.pop()) else {
        return Err(format!(
            "the {} child printed no result",
            pass.workload.name
        ));
    };
    Ok(ChildOutput {
        success: output.status.success(),
        table: lines.join("\n"),
        meta: Value::parse(meta)?,
        result: Value::parse(result)?,
    })
}

/// `{name: {value, unit}}` → `{name: value}`.
fn flatten(metrics: Option<&Value>) -> Value {
    Value::Obj(
        metrics
            .and_then(Value::as_obj)
            .unwrap_or_default()
            .iter()
            .map(|(name, m)| (name.clone(), m.get("value").cloned().unwrap_or(Value::Null)))
            .collect(),
    )
}

/// `run`: both passes of every workload, one history line each.
fn run_all(args: &[String], contract: &Contract) -> Result<ExitCode, String> {
    let (mut smoke, mut seed, mut out): (bool, u64, Option<PathBuf>) = (false, 1, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed needs a whole number")?
            }
            "--out" => out = Some(it.next().ok_or("--out needs a file")?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let seconds = contract.run_seconds * if smoke { SMOKE_SHARE } else { 1.0 };
    let commit = host::commit();
    let mut lines = Vec::new();
    let mut all_passed = true;
    for workload in &WORKLOADS {
        let pass = |trace| PassArgs {
            workload,
            seed,
            seconds,
            trace,
            expect_wrong_tag: false,
        };
        let end_to_end = capture_pass(&pass(false))?;
        println!("{}", end_to_end.table);
        let layers = capture_pass(&pass(true))?;
        println!("{}", layers.table);
        all_passed &= end_to_end.success && layers.success;

        let count = |child: &ChildOutput, key: &str| {
            child.result.get(key).and_then(Value::as_f64).unwrap_or(0.0)
        };
        let attempted = count(&end_to_end, "attempted");
        let failed = count(&end_to_end, "failed");
        let line = Value::obj([
            (
                "time_unix",
                Value::Num(
                    SystemTime::now()
                        .duration_since(UNIX_EPOCH)
                        .map_or(0.0, |d| d.as_secs() as f64),
                ),
            ),
            ("commit", Value::Str(commit.clone())),
            ("workload", Value::Str(workload.name.into())),
            ("smoke", Value::Bool(smoke)),
            ("ops", Value::Num(workload.ops_for(seconds) as f64)),
            ("attempted", Value::Num(attempted)),
            ("failed", Value::Num(failed)),
            ("failed_share", Value::Num(failed / attempted.max(1.0))),
            ("layers_attempted", Value::Num(count(&layers, "attempted"))),
            ("layers_failed", Value::Num(count(&layers, "failed"))),
            ("end_to_end", flatten(end_to_end.result.get("metrics"))),
            ("per_layer", flatten(layers.result.get("metrics"))),
            ("end_to_end_run", end_to_end.meta.clone()),
            ("layers_run", layers.meta.clone()),
        ]);
        lines.push(line);
    }
    if !smoke {
        record::append(&record::results_dir().join("history.jsonl"), &lines)?;
    }
    if let Some(path) = out {
        record::append(&path, &lines)?;
    }
    Ok(if all_passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(args: &[String], contract: &Contract) -> Result<ExitCode, String> {
    let [old, new] = args else {
        return Err("compare takes two result files".into());
    };
    let rows = compare::compare(
        &record::load(Path::new(old))?,
        &record::load(Path::new(new))?,
        &contract.end_to_end,
    );
    if rows.is_empty() {
        return Err("the two files share no workload".into());
    }
    print!("{}", compare::render(&rows));
    let regressed = rows
        .iter()
        .any(|r| r.verdict == compare::Verdict::Regression);
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Runs the contended workload's smoke pass against a tag the sender
/// never attached. The checker works only if that run fails.
fn selftest(contract: &Contract) -> Result<ExitCode, String> {
    let child = capture_pass(&PassArgs {
        workload: &WORKLOADS[1],
        seed: 1,
        seconds: contract.run_seconds * SMOKE_SHARE,
        trace: false,
        expect_wrong_tag: true,
    })?;
    let count = |key: &str| child.result.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    let failed_share = count("failed") / count("attempted").max(1.0);
    let caught = !child.success
        && failed_share > 0.0
        && child.result.get("correct").and_then(Value::as_bool) == Some(false);
    println!(
        "selftest: wrong expected tag -> failed_share {failed_share}, child exit {}: {}",
        if child.success { "zero" } else { "non-zero" },
        if caught {
            "checker fails as it should"
        } else {
            "CHECKER DID NOT FAIL"
        }
    );
    Ok(if caught {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let contract = spec::contract();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..], &contract),
        Some("compare") => compare_files(&args[1..], &contract),
        Some("selftest") => selftest(&contract),
        Some(flag) if flag.starts_with("--") => parse_pass(&args).and_then(|pass| {
            match std::env::var(CHILD_ENV) {
                Ok(how) => Ok(run_pass(&pass, &contract, how == "pinned")),
                // Not the child yet: become its parent, pass its output
                // and exit status through, and wait for it to end.
                Err(_) => pinned_child(&pass)
                    .and_then(|mut cmd| cmd.status())
                    .map(|status| {
                        if status.success() {
                            ExitCode::SUCCESS
                        } else {
                            ExitCode::FAILURE
                        }
                    })
                    .map_err(|e| format!("spawning the {} child: {e}", pass.workload.name)),
            }
        }),
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("dista-benchmark: {e}");
        ExitCode::from(2)
    })
}
