//! Plain-text tables and `BENCH_*.json` records for the benchmark harness.

use std::fmt::{Display, Write as _};
use std::io;
use std::path::{Path, PathBuf};

/// A simple fixed-width table printer.
///
/// ```
/// use rackni::report::Table;
/// let mut t = Table::new(&["design", "cycles"]);
/// t.row(&["NI_split", "447"]);
/// let s = t.render();
/// assert!(s.contains("NI_split"));
/// ```
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    ///
    /// # Panics
    /// Panics if the row length differs from the header length.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Append a row of already-owned cells.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render to an aligned plain-text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:<width$}  ", c, width = widths[i]);
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        for (i, w) in widths.iter().enumerate() {
            let _ = write!(&mut out, "{}  ", "-".repeat(*w));
            let _ = i;
        }
        out.push('\n');
        for r in &self.rows {
            fmt_row(&mut out, r);
        }
        out
    }
}

/// Format a float with one decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Format a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{x:.1}%")
}

/// The workspace root, where every `BENCH_*.json` record lands regardless
/// of the invoker's working directory (`cargo bench` runs its binaries
/// from the package directory, `cargo run` from wherever it was called).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/core sits two levels below the workspace root")
        .to_path_buf()
}

/// An ordered set of JSON fields: one header scalar each, or one point of
/// a [`BenchRecord`].
#[derive(Debug, Default)]
pub struct Fields(Vec<(&'static str, String)>);

impl Fields {
    /// An empty field set.
    pub fn new() -> Fields {
        Fields::default()
    }

    /// A string field. Values are plain labels (names, `4x4x4` shapes);
    /// `Debug` quoting escapes any quote or backslash.
    pub fn str(mut self, key: &'static str, value: &str) -> Fields {
        self.0.push((key, format!("{value:?}")));
        self
    }

    /// An integer field.
    pub fn int(mut self, key: &'static str, value: impl Display) -> Fields {
        self.0.push((key, value.to_string()));
        self
    }

    /// A boolean field.
    pub fn bool(mut self, key: &'static str, value: bool) -> Fields {
        self.0.push((key, value.to_string()));
        self
    }

    /// A float field with `decimals` places. JSON has no NaN or infinity,
    /// so a non-finite value is written as `null`.
    pub fn float(mut self, key: &'static str, value: f64, decimals: usize) -> Fields {
        let v = if value.is_finite() {
            format!("{value:.decimals$}")
        } else {
            "null".to_string()
        };
        self.0.push((key, v));
        self
    }
}

/// One machine-readable bench record, `BENCH_<name>.json` at the
/// [`workspace_root`]: the schema tag `rackni-bench-<name>/<version>`, the
/// header scalars, then `"points"` with one point per line. Readers may
/// scan the file line by line (the simperf baseline reader does), so the
/// layout is part of the format.
#[derive(Debug)]
pub struct BenchRecord {
    name: &'static str,
    version: u32,
    header: Fields,
    points: Vec<Fields>,
}

impl BenchRecord {
    /// Start a record whose header carries `header` after the schema tag.
    pub fn new(name: &'static str, version: u32, header: Fields) -> BenchRecord {
        BenchRecord {
            name,
            version,
            header,
            points: Vec::new(),
        }
    }

    /// Append one point.
    pub fn push(&mut self, point: Fields) {
        self.points.push(point);
    }

    /// The record as JSON text.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{{\n  \"schema\": \"rackni-bench-{}/{}\",\n",
            self.name, self.version
        );
        for (k, v) in &self.header.0 {
            let _ = writeln!(out, "  \"{k}\": {v},");
        }
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                let fields: Vec<String> =
                    p.0.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
                format!("    {{{}}}", fields.join(", "))
            })
            .collect();
        let _ = write!(out, "  \"points\": [\n{}\n  ]\n}}\n", points.join(",\n"));
        out
    }

    /// Write the record to `BENCH_<name>.json` at the workspace root and
    /// return the path written.
    pub fn write(&self) -> io::Result<PathBuf> {
        let path = workspace_root().join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.render())?;
        Ok(path)
    }
}

/// Wall-clock stopwatch for *reporting* simulator throughput.
///
/// This is the single sanctioned wall-clock reading point in the
/// experiment harness. Simulation results must never depend on host time
/// (the determinism linter's `wall-clock` rule enforces that), but the
/// bench reports publish wall-ms and cycles/sec trajectory numbers, which
/// do. Keeping the `Instant` behind this type makes the boundary a single
/// greppable site instead of ad-hoc `Instant::now()` calls.
// lint: file-allow(wall-clock) — Stopwatch is the sanctioned reporting
// boundary; measured time feeds reports only, never simulation state.
#[derive(Debug)]
pub struct Stopwatch {
    started: std::time::Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            started: std::time::Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`], clamped away from zero
    /// so callers may divide by it.
    pub fn secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64().max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(&["xxxx", "y"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a     bbbb"));
        assert!(lines[2].starts_with("xxxx  y"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(&["a"]);
        t.row(&["1", "2"]);
    }

    #[test]
    fn bench_record_layout() {
        let mut r = BenchRecord::new("demo", 2, Fields::new().str("scale", "quick").int("n", 3));
        r.push(Fields::new().str("name", "a").bool("ok", true));
        r.push(Fields::new().str("name", "b").float("x", 2.0, 3));
        assert_eq!(
            r.render(),
            "{\n  \"schema\": \"rackni-bench-demo/2\",\n  \"scale\": \"quick\",\n  \"n\": 3,\n  \
             \"points\": [\n    {\"name\": \"a\", \"ok\": true},\n    \
             {\"name\": \"b\", \"x\": 2.000}\n  ]\n}\n"
        );
    }

    #[test]
    fn non_finite_floats_are_null() {
        let f = Fields::new()
            .float("a", f64::NAN, 4)
            .float("b", f64::INFINITY, 4);
        let s = BenchRecord::new("demo", 1, f.float("c", 1.5, 4)).render();
        assert!(
            s.contains("\"a\": null,\n  \"b\": null,\n  \"c\": 1.5000,"),
            "{s}"
        );
    }

    #[test]
    fn formatters() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(pct(79.66), "79.7%");
    }
}
