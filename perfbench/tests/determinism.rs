//! Smoke-sized runs of every workload: one seed twice must report the
//! same counts, another seed must change the data, every answer must
//! match the naive reference, and the metric names the binary prints must
//! be the ones `BENCHMARK.json` declares.

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["serve-warm", "scan-spill", "ingest-scan"];

/// One run's two output lines: details, then the result.
struct Run {
    details: String,
    result: String,
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "0.4"])
        .args(["--trace", if trace { "1" } else { "0" }, "--users", "300"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "{workload}: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut lines = stdout.lines().rev();
    let result = lines.next().expect("result line").to_string();
    let details = lines.next().expect("details line").to_string();
    Run { details, result }
}

/// The number that follows `"key": ` (or `"key": {"value": `) in `text`.
fn number(text: &str, key: &str) -> f64 {
    let at = text.find(&format!("\"{key}\": ")).unwrap_or_else(|| panic!("{key} missing"));
    let rest = text[at + key.len() + 4..].trim_start_matches("{\"value\": ");
    let end = rest.find([',', '}']).expect("number ends");
    rest[..end].parse().unwrap_or_else(|e| panic!("{key}: {e}"))
}

/// The metric names of one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = json.find(&format!("\"{list}\"")).expect("list present");
    let body = &json[start..json[start..].find(']').map(|e| start + e).expect("list ends")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name ends")].to_string())
        .collect()
}

fn printed(result: &str) -> Vec<String> {
    let metrics = &result[result.find("\"metrics\"").expect("metrics")..];
    // Every piece but the last ends with the quoted name of a metric.
    let pieces: Vec<&str> = metrics.split("\": {\"value\"").collect();
    pieces[..pieces.len() - 1]
        .iter()
        .map(|s| s[s.rfind('"').expect("quoted name") + 1..].to_string())
        .collect()
}

#[test]
fn same_seed_same_counts_other_seed_other_data() {
    for workload in WORKLOADS {
        let (a, b, c) = (run(workload, 7, true), run(workload, 7, true), run(workload, 8, false));
        for r in [&a, &b, &c] {
            assert!(r.result.starts_with("{\"correct\": true"), "{workload}: {}", r.result);
            assert_eq!(number(&r.result, "failed"), 0.0, "{workload}");
            assert_eq!(number(&r.details, "error_rate"), 0.0, "{workload}");
        }
        let mut counts = vec!["stored_bytes_per_row", "write_amp"];
        if workload == "ingest-scan" {
            counts.extend([
                "persist.bytes_appended",
                "persist.bytes_compacted",
                "persist.rewrite_ratio",
                "persist.compactions",
            ]);
        } else {
            // A static table: every query kind prunes the same chunks.
            counts.extend(["plan.chunks_pruned_ratio.q1", "plan.chunks_pruned_ratio.q5"]);
        }
        for key in counts {
            let text =
                |r: &Run| if key.contains('.') { r.result.clone() } else { r.details.clone() };
            assert_eq!(number(&text(&a), key), number(&text(&b), key), "{workload} {key}");
        }
        assert_ne!(
            number(&a.details, "stored_bytes_per_row"),
            number(&c.details, "stored_bytes_per_row"),
            "{workload}: another seed must generate other data"
        );
        assert_eq!(printed(&a.result), declared("per_layer"), "{workload} per-layer names");
        assert_eq!(printed(&c.result), declared("end_to_end"), "{workload} end-to-end names");
    }
}
