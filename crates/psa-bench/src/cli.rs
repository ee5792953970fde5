//! The `bench` command line: one subcommand table, one flag parser, one
//! run path.
//!
//! Every subcommand declares its flags in `SUBCOMMANDS` — name, value
//! kind, default and the smallest number its sweep can run with — and
//! [`usage`] is printed from the same table. A missing or unparsable
//! value, an unknown flag or subcommand, an empty list or a count below
//! the declared minimum is a usage error (exit 2). `bench <id>` then runs
//! collect → validate → write → echo → `wrote PATH`; a failed validation
//! or write exits 1 and leaves no file.

use psa_workloads::WorkloadSize;

use crate::{export, export5, export6, export7, export8, tables, Export};

enum Kind {
    Float,
    Int,
    List,
    Path,
}
use Kind::{Float, Int, List, Path};

/// A checked flag value (an `Int` is a one-element `Ints`).
#[derive(Debug)]
enum Value {
    Float(f64),
    Ints(Vec<u64>),
    Path(String),
}

/// One declared flag; `min` bounds a number or every entry of a list. A
/// `Float` is a scale, which must also be above 0.
struct Flag {
    name: &'static str,
    kind: Kind,
    default: &'static str,
    min: u32,
}

const fn flag(name: &'static str, kind: Kind, default: &'static str, min: u32) -> Flag {
    Flag { name, kind, default, min }
}

impl Flag {
    fn parse(&self, raw: &str) -> Result<Value, String> {
        let min = u64::from(self.min);
        let int = |s: &str| s.trim().parse::<u64>().ok().filter(|&v| v >= min);
        let (value, wants) = match self.kind {
            Float => {
                let v: Option<f64> = raw.parse().ok();
                let ok = |v: &f64| v.is_finite() && *v > 0.0 && *v >= min as f64;
                (v.filter(ok).map(Value::Float), "a number")
            }
            Int => (int(raw).map(|v| Value::Ints(vec![v])), "an integer"),
            List => {
                let entries = raw.split(',').map(int).collect::<Option<_>>();
                (entries.map(Value::Ints), "a comma-separated list of integers")
            }
            Path => (Some(Value::Path(raw.to_string())), "a path"),
        };
        let bound = match self.kind {
            Float if min == 0 => "> 0".to_string(),
            _ => format!(">= {min}"),
        };
        value.ok_or_else(|| format!("{} needs {wants} {bound}, got `{raw}`", self.name))
    }
}

/// The parsed command line of one subcommand: every declared flag with its
/// text (given or default) and checked value.
struct Args {
    /// The leading positional selection (`tables` only); `None` is "all".
    choice: Option<String>,
    flags: Vec<(&'static str, String, Value)>,
}

impl Args {
    fn parse(sub: &Subcommand, mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut choice = None;
        if !sub.choices.is_empty() {
            choice = raw.next().filter(|c| c != "all");
            if let Some(c) = choice.as_deref().filter(|c| !sub.choices.contains(c)) {
                return Err(format!("unknown `bench {}` selection `{c}`", sub.name));
            }
        }
        let mut flags = Vec::new();
        for f in sub.flags {
            flags.push((f.name, f.default.to_string(), f.parse(f.default)?));
        }
        while let Some(name) = raw.next() {
            let at = sub.flags.iter().position(|f| f.name == name);
            let at = at.ok_or_else(|| format!("`bench {}` has no flag `{name}`", sub.name))?;
            let text = raw.next().ok_or_else(|| format!("{name} needs a value"))?;
            let value = sub.flags[at].parse(&text)?;
            flags[at] = (sub.flags[at].name, text, value);
        }
        Ok(Args { choice, flags })
    }

    /// A declared flag's value. Asking for an undeclared name or the wrong
    /// kind is a bug in `SUBCOMMANDS`, not bad input.
    fn get(&self, name: &str) -> &Value {
        match self.flags.iter().find(|(n, _, _)| *n == name) {
            Some((_, _, value)) => value,
            None => panic!("subcommand table declares no {name}"),
        }
    }

    fn float(&self, name: &str) -> f64 {
        match self.get(name) {
            Value::Float(v) => *v,
            other => panic!("{name} is declared as {other:?}"),
        }
    }

    fn ints(&self, name: &str) -> &[u64] {
        match self.get(name) {
            Value::Ints(vs) => vs,
            other => panic!("{name} is declared as {other:?}"),
        }
    }

    fn int(&self, name: &str) -> u64 {
        self.ints(name)[0]
    }

    fn size(&self, name: &str) -> usize {
        self.int(name) as usize
    }

    fn sizes(&self, name: &str) -> Vec<usize> {
        self.ints(name).iter().map(|&v| v as usize).collect()
    }
}

/// One `bench` subcommand: what it accepts and what it runs.
struct Subcommand {
    name: &'static str,
    /// Leading positional selections (absent or `all` selects every one).
    choices: &'static [&'static str],
    flags: &'static [Flag],
    run: fn(&Args) -> Result<(), String>,
}

/// `paper_scaled` divides 400k particles by the scale: it cannot go below 1.
const SCALE: Flag = flag("--scale", Float, "10", 1);
const FRAMES: Flag = flag("--frames", Int, "25", 0);

const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        name: "tables",
        choices: tables::SECTIONS,
        flags: &[SCALE, FRAMES],
        run: print_tables,
    },
    Subcommand {
        name: "3",
        choices: &[],
        flags: &[SCALE, FRAMES, flag("--out", Path, "BENCH_3.json", 0)],
        run: |a| write_export(&export::collect(a.float("--scale"), a.int("--frames")), a),
    },
    Subcommand {
        name: "5",
        choices: &[],
        flags: &[
            flag("--ranks", List, "8,32,128,512,1024", 1),
            flag("--frames", Int, "10", 0),
            flag("--systems", Int, "100", 0),
            flag("--particles", Int, "200", 0),
            flag("--scale", Float, "50", 0),
            flag("--out", Path, "BENCH_5.json", 0),
        ],
        run: |a| {
            let data = export5::collect5(&a.sizes("--ranks"), a.int("--frames"), sweep_size(a));
            write_export(&data, a)
        },
    },
    Subcommand {
        name: "6",
        choices: &[],
        flags: &[
            // The degraded-manager scenario needs two calculators.
            flag("--ranks", List, "8,32,128,512,1024", 2),
            flag("--frames", Int, "60", 0),
            flag("--systems", Int, "1", 0),
            flag("--particles", Int, "700", 0),
            flag("--scale", Float, "500", 0),
            flag("--out", Path, "BENCH_6.json", 0),
        ],
        run: |a| {
            let data = export6::collect6(&a.sizes("--ranks"), a.int("--frames"), sweep_size(a));
            write_export(&data, a)
        },
    },
    Subcommand {
        name: "7",
        choices: &[],
        flags: &[
            flag("--sessions", List, "100,300,1000", 1),
            flag("--frames", Int, "10", 0),
            flag("--particles", Int, "300", 0),
            flag("--seed", Int, "3195797511", 0), // 0xBE7C_0007
            flag("--out", Path, "BENCH_7.json", 0),
        ],
        run: |a| {
            let (sessions, frames) = (a.sizes("--sessions"), a.int("--frames"));
            let data = export7::collect7(&sessions, frames, a.size("--particles"), a.int("--seed"));
            write_export(&data, a)
        },
    },
    Subcommand {
        name: "8",
        choices: &[],
        flags: &[
            // Rank 1 is the victim and needs a surviving neighbour.
            flag("--calculators", List, "4,8", 2),
            flag("--intervals", List, "2,3,4", 0),
            // Against the default 12-frame run: before the first snapshot
            // (2 < interval 3 and 4), on a cadence boundary (4, 8), deep in (11).
            flag("--crash-frames", List, "2,4,5,8,11", 0),
            flag("--frames", Int, "12", 0),
            flag("--particles", Int, "300", 0),
            flag("--seed", Int, "3195797512", 0), // 0xBE7C_0008
            flag("--out", Path, "BENCH_8.json", 0),
        ],
        run: |a| {
            let data = export8::collect8(
                &a.sizes("--calculators"),
                a.ints("--intervals"),
                a.ints("--crash-frames"),
                a.int("--frames"),
                a.size("--particles"),
                a.int("--seed"),
            );
            write_export(&data, a)
        },
    },
];

/// The `--systems`/`--particles`/`--scale` of a rank sweep (`bench 5`, `bench 6`).
fn sweep_size(a: &Args) -> WorkloadSize {
    WorkloadSize {
        systems: a.size("--systems"),
        particles_per_system: a.size("--particles"),
        scale: a.float("--scale"),
    }
}

/// `bench tables`: the reproduction transcript (`repro_output.txt` is
/// `all` at `--scale 10 --frames 30`).
fn print_tables(a: &Args) -> Result<(), String> {
    let (scale, frames) = (a.float("--scale"), a.int("--frames"));
    let size = WorkloadSize::paper_scaled(scale);
    println!(
        "# Reproduction: {} real particles/system stand for 400k (scale {scale}), {frames} frames\n",
        size.particles_per_system
    );
    for section in tables::SECTIONS {
        if a.choice.as_deref().is_none_or(|c| c == *section) {
            tables::print_section(section, size, frames);
        }
    }
    Ok(())
}

/// The one way an artifact reaches disk: validate, render, write, echo.
fn write_export(data: &impl Export, a: &Args) -> Result<(), String> {
    let Value::Path(path) = a.get("--out") else { panic!("--out is declared as a path") };
    let text = data.checked_json().map_err(|e| format!("validation failed: {e}"))?;
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    for row in data.to_json().rows() {
        eprintln!("{row}");
    }
    println!("wrote {path}");
    Ok(())
}

/// Every subcommand with its flags and their defaults.
pub fn usage() -> String {
    let mut s = String::from("usage:");
    for sub in SUBCOMMANDS {
        s.push_str(&format!("\n  bench {}", sub.name));
        if !sub.choices.is_empty() {
            s.push_str(&format!(" [{}|all]", sub.choices.join("|")));
        }
        for flag in sub.flags {
            s.push_str(&format!(" [{} {}]", flag.name, flag.default));
        }
    }
    s
}

/// Run `bench` on `argv` (without the program name); returns the exit
/// code: 0 done, 1 the run failed (validation, I/O), 2 usage error.
pub fn run(mut argv: impl Iterator<Item = String>) -> i32 {
    let parsed = match argv.next() {
        None => Err("no subcommand".to_string()),
        Some(name) => match SUBCOMMANDS.iter().find(|s| s.name == name) {
            None => Err(format!("unknown subcommand `{name}`")),
            Some(sub) => Args::parse(sub, argv).map(|args| (sub, args)),
        },
    };
    let (sub, args) = match parsed {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}\n{}", usage());
            return 2;
        }
    };
    let given: Vec<String> = args.flags.iter().map(|(n, text, _)| format!("{n} {text}")).collect();
    eprintln!("bench {}: {}", sub.name, given.join(" "));
    match (sub.run)(&args) {
        Ok(()) => 0,
        Err(msg) => {
            eprintln!("bench {}: {msg}", sub.name);
            1
        }
    }
}
