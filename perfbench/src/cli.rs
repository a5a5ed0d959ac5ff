//! Command-line parsing with typed errors.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`

use std::fmt;

/// The three workloads the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Long-lived job server in steady state: every timed compile is a cache hit.
    ServeWarm,
    /// Wide statevector jobs straight on the execution engine.
    SimWide,
    /// The paper's Fig. 9 sweep through the `bench` library: cold NuOp work.
    Fig9Sweep,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::ServeWarm, Workload::SimWide, Workload::Fig9Sweep];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeWarm => "serve_warm",
            Workload::SimWide => "sim_wide",
            Workload::Fig9Sweep => "fig9_sweep",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Result<Workload, ArgError> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| ArgError::UnknownWorkload(name.to_string()))
    }
}

/// Parsed arguments of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed: the same seed generates the same inputs.
    pub seed: u64,
    /// Length of the timed window, in seconds.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: the traced per-layer run.
    pub trace: bool,
}

/// A malformed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// `--workload` names no workload.
    UnknownWorkload(String),
    /// `--seed` is not an unsigned 64-bit integer.
    BadSeed(String),
    /// `--seconds` is not a positive number of at most an hour.
    BadSeconds(String),
    /// `--trace` is neither `0` nor `1`.
    BadTrace(String),
    /// A flag was given without its value.
    MissingValue(&'static str),
    /// A flag the benchmark does not know.
    UnknownFlag(String),
    /// `--workload` was not given.
    NoWorkload,
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::UnknownWorkload(name) => write!(
                f,
                "unknown workload {name:?} (expected serve_warm, sim_wide or fig9_sweep)"
            ),
            ArgError::BadSeed(text) => {
                write!(
                    f,
                    "invalid seed {text:?} (expected an unsigned 64-bit integer)"
                )
            }
            ArgError::BadSeconds(text) => {
                write!(
                    f,
                    "invalid --seconds {text:?} (expected a number in (0, 3600])"
                )
            }
            ArgError::BadTrace(text) => write!(f, "invalid --trace {text:?} (expected 0 or 1)"),
            ArgError::MissingValue(flag) => write!(f, "{flag} requires a value"),
            ArgError::UnknownFlag(flag) => write!(f, "unknown flag {flag:?}"),
            ArgError::NoWorkload => write!(f, "--workload is required"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Parses the arguments after the program name. `--seed` defaults to 1,
/// `--seconds` to 10 and `--trace` to 0.
pub fn parse(args: &[String]) -> Result<Args, ArgError> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let flag = flag.as_str();
        let known: &'static str = match flag {
            "--workload" => "--workload",
            "--seed" => "--seed",
            "--seconds" => "--seconds",
            "--trace" => "--trace",
            other => return Err(ArgError::UnknownFlag(other.to_string())),
        };
        let value = iter.next().ok_or(ArgError::MissingValue(known))?;
        match known {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| ArgError::BadSeed(value.clone()))?
            }
            "--seconds" => {
                seconds = match value.parse::<f64>() {
                    Ok(s) if s > 0.0 && s <= 3600.0 => s,
                    _ => return Err(ArgError::BadSeconds(value.clone())),
                }
            }
            _ => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(ArgError::BadTrace(value.clone())),
                }
            }
        }
    }
    Ok(Args {
        workload: workload.ok_or(ArgError::NoWorkload)?,
        seed,
        seconds,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let parsed = parse(&args(&[
            "--workload",
            "sim_wide",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            parsed,
            Args {
                workload: Workload::SimWide,
                seed: 42,
                seconds: 10.0,
                trace: true
            }
        );
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Ok(workload));
        }
    }

    #[test]
    fn bad_workload_names_and_seeds_are_typed_errors() {
        assert_eq!(
            parse(&args(&["--workload", "serve_cold"])),
            Err(ArgError::UnknownWorkload("serve_cold".into()))
        );
        for bad in ["-1", "x", "1.5", "18446744073709551616"] {
            assert_eq!(
                parse(&args(&["--workload", "serve_warm", "--seed", bad])),
                Err(ArgError::BadSeed(bad.into()))
            );
        }
        assert_eq!(
            parse(&args(&["--workload", "fig9_sweep", "--seed"])),
            Err(ArgError::MissingValue("--seed"))
        );
        assert_eq!(
            parse(&args(&["--workload", "fig9_sweep", "--seconds", "0"])),
            Err(ArgError::BadSeconds("0".into()))
        );
        assert_eq!(
            parse(&args(&["--workload", "fig9_sweep", "--trace", "yes"])),
            Err(ArgError::BadTrace("yes".into()))
        );
        assert_eq!(parse(&args(&["--seed", "3"])), Err(ArgError::NoWorkload));
        assert_eq!(
            parse(&args(&["--bogus", "3"])),
            Err(ArgError::UnknownFlag("--bogus".into()))
        );
        assert!(ArgError::BadSeed("x".into()).to_string().contains("\"x\""));
    }
}
