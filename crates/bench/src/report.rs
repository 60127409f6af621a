//! Experiment result tables: aligned text for the terminal, CSV and JSON
//! for further analysis; plus the JSON-lines report the criterion benches
//! append to.

use std::path::Path;

/// One experiment's output table.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment id (e.g. `fig11-q1`).
    pub name: String,
    /// Free-text description shown above the table.
    pub description: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// Free-text footnotes rendered below the table (e.g. I/O counter
    /// summaries that don't fit the row grid).
    pub notes: Vec<String>,
}

impl ExperimentResult {
    /// Create an empty result table.
    pub fn new(
        name: impl Into<String>,
        description: impl Into<String>,
        headers: Vec<String>,
    ) -> Self {
        ExperimentResult {
            name: name.into(),
            description: description.into(),
            headers,
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push_row(&mut self, row: Vec<String>) {
        debug_assert_eq!(row.len(), self.headers.len());
        self.rows.push(row);
    }

    /// Append a footnote rendered below the table.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Aligned text rendering.
    pub fn pretty(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = format!("## {} — {}\n", self.name, self.description);
        for (i, h) in self.headers.iter().enumerate() {
            out.push_str(&format!("{:>w$}  ", h, w = widths[i]));
        }
        out.push('\n');
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                out.push_str(&format!("{:>w$}  ", c, w = widths[i]));
            }
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }

    /// CSV rendering.
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// JSON rendering (hand-rolled; the environment builds without serde).
    pub fn to_json(&self) -> String {
        fn quote(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        fn string_array(items: &[String], indent: &str) -> String {
            let body: Vec<String> = items.iter().map(|s| quote(s)).collect();
            format!("{indent}[{}]", body.join(", "))
        }
        let rows: Vec<String> = self.rows.iter().map(|r| string_array(r, "    ")).collect();
        format!(
            "{{\n  \"name\": {},\n  \"description\": {},\n  \"headers\": {},\n  \"rows\": [\n{}\n  ],\n  \"notes\": {}\n}}\n",
            quote(&self.name),
            quote(&self.description),
            string_array(&self.headers, "").trim_start(),
            rows.join(",\n"),
            string_array(&self.notes, "").trim_start()
        )
    }

    /// Write `name.csv` and `name.json` into a directory.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{}.csv", self.name)), self.to_csv())?;
        std::fs::write(dir.join(format!("{}.json", self.name)), self.to_json())?;
        Ok(())
    }
}

/// Append one JSON line to the `COHANA_BENCH_REPORT` file, the same report
/// the criterion shim writes its timings to (bench binaries run
/// sequentially, so appending is race-free). A no-op when the variable is
/// unset.
pub fn record_line(line: &str) {
    let Some(path) = std::env::var_os("COHANA_BENCH_REPORT") else { return };
    if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(Path::new(&path))
    {
        use std::io::Write;
        let _ = writeln!(f, "{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentResult {
        let mut r = ExperimentResult::new("fig0", "demo", vec!["scale".into(), "time".into()]);
        r.push_row(vec!["1".into(), "0.5".into()]);
        r.push_row(vec!["2".into(), "1.1".into()]);
        r
    }

    #[test]
    fn pretty_and_csv() {
        let r = sample();
        assert!(r.pretty().contains("## fig0"));
        assert_eq!(r.to_csv(), "scale,time\n1,0.5\n2,1.1\n");
    }

    #[test]
    fn notes_render_in_pretty_and_json() {
        let mut r = sample();
        r.push_note("cache budget 4096 bytes");
        assert!(r.pretty().contains("note: cache budget 4096 bytes"));
        assert!(r.to_json().contains("\"cache budget 4096 bytes\""));
        // CSV stays a plain data grid.
        assert!(!r.to_csv().contains("cache budget"));
    }

    #[test]
    fn writes_files() {
        let dir = std::env::temp_dir().join("cohana-bench-report-test");
        let r = sample();
        r.write_to(&dir).unwrap();
        assert!(dir.join("fig0.csv").exists());
        assert!(dir.join("fig0.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
