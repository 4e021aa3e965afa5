//! Command-line driver that regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p synergy-bench --bin experiments -- all
//! cargo run --release -p synergy-bench --bin experiments -- fig9 fig12 quiescence
//! ```
//!
//! Each experiment prints the same rows/series the paper reports.

use synergy_bench::{
    execution_overheads, fig10_migration, fig11_temporal, fig12_spatial, fig13_14_15_overheads,
    fig9_suspend_resume, overheads_tables, quiescence_study, table1, Scale,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--smoke") {
        Scale::Smoke
    } else {
        Scale::Paper
    };
    let mut wanted: Vec<String> = args.into_iter().filter(|a| !a.starts_with("--")).collect();
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        wanted = vec![
            "table1",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13-15",
            "quiescence",
            "overheads",
        ]
        .into_iter()
        .map(String::from)
        .collect();
    }

    for exp in wanted {
        match exp.as_str() {
            "table1" => println!("{}", table1()),
            "fig9" => println!("{}", fig9_suspend_resume(scale).to_table()),
            "fig10" => println!("{}", fig10_migration(scale).to_table()),
            "fig11" => println!("{}", fig11_temporal(scale).to_table()),
            "fig12" => println!("{}", fig12_spatial(scale).to_table()),
            "fig13-15" | "fig13" | "fig14" | "fig15" => {
                println!("{}", overheads_tables(&fig13_14_15_overheads()))
            }
            "quiescence" => {
                println!("== Section 6.3: quiescence ==");
                println!(
                    "{:<10}{:>16}{:>14}{:>14}",
                    "bench", "volatile state", "LUT saving", "FF saving"
                );
                for row in quiescence_study() {
                    println!(
                        "{:<10}{:>15.0}%{:>13.1}%{:>13.1}%",
                        row.benchmark,
                        row.volatile_fraction * 100.0,
                        row.lut_saving * 100.0,
                        row.ff_saving * 100.0
                    );
                }
                println!();
            }
            "overheads" => {
                println!("== Section 6.4: execution overhead ==");
                println!(
                    "{:<10}{:>20}{:>16}{:>12}",
                    "bench", "Synergy virt. Hz", "native Hz", "slowdown"
                );
                for row in execution_overheads(scale) {
                    println!(
                        "{:<10}{:>20.0}{:>16.0}{:>11.1}x",
                        row.benchmark, row.synergy_virtual_hz, row.native_hz, row.slowdown
                    );
                }
                println!();
            }
            other => eprintln!("unknown experiment '{}'", other),
        }
    }
}
