//! Result lines. One run of one workload is one JSON object on one
//! line; `results/history.jsonl` is those lines, appended and never
//! rewritten, and `compare` reads any file of them.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::json::Value;

pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// One run of one workload, as `compare` needs it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunLine {
    pub workload: String,
    pub attempted: f64,
    pub failed: f64,
    pub end_to_end: BTreeMap<String, f64>,
}

fn numbers(obj: Option<&Value>) -> BTreeMap<String, f64> {
    obj.and_then(Value::as_obj)
        .unwrap_or_default()
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect()
}

impl RunLine {
    /// An end-to-end metric by name; `failed_share` is derived from the
    /// line's counts.
    pub fn value(&self, metric: &str) -> Option<f64> {
        match metric {
            "failed_share" => Some(self.failed / self.attempted.max(1.0)),
            _ => self.end_to_end.get(metric).copied(),
        }
    }

    pub fn from_value(line: &Value) -> Result<RunLine, String> {
        let num = |key: &str| {
            line.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("result line lacks {key:?}"))
        };
        Ok(RunLine {
            workload: line
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("result line lacks \"workload\"")?
                .to_string(),
            attempted: num("attempted")?,
            failed: num("failed")?,
            end_to_end: numbers(line.get("end_to_end")),
        })
    }
}

pub fn load(path: &Path) -> Result<Vec<RunLine>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| {
            Value::parse(l)
                .and_then(|v| RunLine::from_value(&v))
                .map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))
        })
        .collect()
}

/// Appends `lines` to `path`, creating it if need be. Existing content
/// is never touched.
pub fn append(path: &Path, lines: &[Value]) -> Result<(), String> {
    let write = || -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        for line in lines {
            writeln!(file, "{}", line.render())?;
        }
        file.flush()
    };
    write().map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appended_lines_load_back_and_earlier_lines_survive() {
        let path = std::env::temp_dir().join(format!(
            "dista-benchmark-record-test-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let line = |workload: &str, rate: f64| {
            Value::obj([
                ("workload", Value::Str(workload.into())),
                ("attempted", Value::Num(100.0)),
                ("failed", Value::Num(0.0)),
                ("end_to_end", Value::obj([("ops_per_s", Value::Num(rate))])),
                (
                    "per_layer",
                    Value::obj([("taint.mint_us", Value::Num(0.25))]),
                ),
            ])
        };
        append(&path, &[line("clean_small", 1.5e6)]).unwrap();
        append(&path, &[line("fresh_taints", 20_123.456_789)]).unwrap();
        let loaded = load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].workload, "clean_small");
        assert_eq!(loaded[1].end_to_end["ops_per_s"], 20_123.456_789);
    }
}
