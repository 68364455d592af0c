//! `exodus-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! run one workload and print its result as the last line of standard
//! output. Exits non-zero, printing no result, when set-up fails.

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match exodus_perfbench::Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match exodus_perfbench::run(&args) {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
