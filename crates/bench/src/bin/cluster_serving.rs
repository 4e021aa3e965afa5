//! Regenerates `BENCH_cluster_serving.json`: the tenant-churn cluster-serving
//! benchmark (1,200 tenants over 8 heterogeneous nodes with seeded faults),
//! plus the smoke-scale gate section `cargo test` re-measures.
//!
//! ```text
//! cargo run --release -p synergy-bench --bin cluster_serving              # print + write repo-root JSON
//! cargo run --release -p synergy-bench --bin cluster_serving -- out.json  # write elsewhere
//! cargo run --release -p synergy-bench --bin cluster_serving -- --smoke   # gate-scale only, no file
//! ```

use synergy_bench::{run_serving, serving_json, serving_table, ServingConfig};

/// Days-from-epoch to `YYYY-MM-DD` (proleptic Gregorian; no external crates
/// in the offline container).
fn today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    // Howard Hinnant's civil_from_days.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{:04}-{:02}-{:02}", y, m, d)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| {
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../BENCH_cluster_serving.json"
            )
            .into()
        });

    let gate = run_serving(&ServingConfig::gate());
    println!("--- gate scale ---");
    print!("{}", serving_table(&gate));
    if smoke {
        return;
    }

    let full = run_serving(&ServingConfig::full());
    println!("\n--- full scale ---");
    print!("{}", serving_table(&full));

    let json = serving_json(&full, &gate, &today());
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    std::fs::write(&out_path, json).expect("write BENCH_cluster_serving.json");
    println!("wrote {}", out_path);
}
