//! `kbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints every metric by name with its unit,
//! then, as the last line, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 when any output fails
//! its check, 2 on bad arguments and 3 when a run hangs past
//! [`WATCHDOG_SECS`]. Run it from the repository root (it works in
//! `.kbench_work/` there):
//!
//! `cargo run --release --manifest-path kbench/Cargo.toml -- --workload global_art`

use kbench::machine::Machine;
use kbench::Workload;
use std::path::Path;
use std::process::ExitCode;

/// The workload seed used unless `--seed` is given.
const DEFAULT_SEED: u64 = 2008;

/// Seconds after which a run is abandoned as failed.
const WATCHDOG_SECS: u64 = 170;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::named(&args.workload, args.seconds) else {
        eprintln!(
            "kbench: unknown workload {:?} (global_art, sharded_adult, serve_art)",
            args.workload
        );
        return ExitCode::from(2);
    };
    // A run that hangs (a daemon that never answers, say) must still end
    // within the three minutes a run is allowed, and end as a failure.
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(WATCHDOG_SECS));
        eprintln!("kbench: run exceeded {WATCHDOG_SECS} s, giving up");
        std::process::exit(3);
    });
    let root = Path::new(".kbench_work");
    let dir = root.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("kbench: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let machine = Machine::probe();
    println!("{}", machine.header());
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let outcome = workload.run(args.seed, args.seconds as f64, args.trace, &machine, &dir);
    if args.trace {
        let spans = root.join(format!("spans-{}.json", args.workload));
        let _ = std::fs::rename(dir.join("spans.json"), &spans);
        println!("# spans written to {}", spans.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
    print!("{}", outcome.human());
    println!("{}", outcome.json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
