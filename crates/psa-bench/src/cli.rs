//! The `bench` command line: one subcommand table, one flag parser, one
//! run path.
//!
//! Every subcommand declares its flags in `SUBCOMMANDS` — name, value
//! kind, default and the bounds its run needs — and [`usage`] is printed
//! from the same table. A missing or unparsable value, an unknown flag,
//! name or subcommand, an empty list or a count outside the declared
//! bounds is a usage error (exit 2), and so is a combination of flags a
//! run cannot make (a `chaos --frames` too short for the set's kill
//! scenarios, `animate --streaks` without `--render`). `bench <id>` then
//! runs collect → validate → write → echo → `wrote PATH`; a failed
//! validation or write exits 1 and leaves no file. `bench chaos` and
//! `bench sessions` print their transcripts, and a failed chaos cell exits
//! 1; `bench animate` prints a run summary, and a failed run exits 1.

use psa_chaos::{full_set, smoke_set, MatrixConfig};
use psa_sessions::{AdmissionConfig, PoolConfig, SessionSpec, TenantId};
use psa_workloads::{Workload, WorkloadSize};

use crate::{animate, export, export5, export6, export7, export8, tables, Export};

enum Kind {
    Float,
    Int,
    List,
    /// A path; an empty default makes the flag optional (absent is empty).
    Path,
    /// One of a fixed list of names, the default first.
    Name(&'static [&'static str]),
    /// A flag that takes no value: given is on, absent is off.
    Switch,
}
use Kind::{Float, Int, List, Name, Path, Switch};

/// A checked flag value (an `Int` is a one-element `Ints`; a `Path`, a
/// `Name` and a `Switch` — `on` or `off` — are their text).
#[derive(Debug)]
enum Value {
    Float(f64),
    Ints(Vec<u64>),
    Text(String),
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
            Path | Switch => return Ok(Value::Text(raw.to_string())),
            Name(names) => (names.contains(&raw).then(|| Value::Text(raw.to_string())), "one of"),
        };
        let bound = match self.kind {
            Float if min == 0 => "> 0".to_string(),
            Name(names) => names.join("|"),
            _ => format!(">= {min}"),
        };
        value.ok_or_else(|| format!("{} needs {wants} {bound}, got `{raw}`", self.name))
    }
}

/// The parsed command line of one subcommand: every declared flag with its
/// text (given or default) and checked value.
pub(crate) struct Args {
    /// The leading positional selection; `None` is "all".
    pub(crate) choice: Option<String>,
    flags: Vec<(&'static str, String, Value)>,
}

impl Args {
    fn parse(sub: &Subcommand, raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut raw = raw.peekable();
        let mut choice = None;
        if !sub.choices.is_empty() {
            // A leading `--flag` is a flag, not a selection.
            choice = raw.next_if(|c| !c.starts_with("--")).filter(|c| sub.required || c != "all");
            match choice.as_deref() {
                Some(c) if !sub.choices.contains(&c) => {
                    return Err(format!("unknown `bench {}` selection `{c}`", sub.name));
                }
                None if sub.required => {
                    let names = sub.choices.join("|");
                    return Err(format!("`bench {}` needs one of {names}", sub.name));
                }
                _ => {}
            }
        }
        let mut flags = Vec::new();
        for f in sub.flags {
            flags.push((f.name, f.default.to_string(), f.parse(f.default)?));
        }
        while let Some(name) = raw.next() {
            let at = sub.flags.iter().position(|f| f.name == name);
            let at = at.ok_or_else(|| format!("`bench {}` has no flag `{name}`", sub.name))?;
            let text = match sub.flags[at].kind {
                Switch => "on".to_string(),
                _ => raw.next().ok_or_else(|| format!("{name} needs a value"))?,
            };
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

    pub(crate) fn text(&self, name: &str) -> &str {
        match self.get(name) {
            Value::Text(text) => text,
            other => panic!("{name} is declared as {other:?}"),
        }
    }

    pub(crate) fn int(&self, name: &str) -> u64 {
        self.ints(name)[0]
    }

    pub(crate) fn size(&self, name: &str) -> usize {
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
    /// Exactly one of `choices` must be given, and `all` is none of them.
    required: bool,
    flags: &'static [Flag],
    run: fn(&Args) -> Result<(), Stop>,
}

/// Why a subcommand stopped short: its flags, each valid, ask for a run it
/// cannot make (exit 2, nothing run), or the run failed (exit 1).
pub(crate) enum Stop {
    Usage(String),
    Failed(String),
}

/// `paper_scaled` divides 400k particles by the scale: it cannot go below 1.
const SCALE: Flag = flag("--scale", Float, "10", 1);
const FRAMES: Flag = flag("--frames", Int, "25", 1);

const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        name: "tables",
        choices: tables::SECTIONS,
        required: false,
        flags: &[SCALE, FRAMES],
        run: print_tables,
    },
    Subcommand {
        name: "3",
        choices: &[],
        required: false,
        flags: &[SCALE, FRAMES, flag("--out", Path, "BENCH_3.json", 0)],
        run: |a| write_export(&export::collect(a.float("--scale"), a.int("--frames")), a),
    },
    Subcommand {
        name: "5",
        choices: &[],
        required: false,
        flags: &[
            flag("--ranks", List, "8,32,128,512,1024", 1),
            flag("--frames", Int, "10", 1),
            flag("--systems", Int, "100", 1),
            flag("--particles", Int, "200", 1),
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
        required: false,
        flags: &[
            // The degraded-manager scenario needs two calculators.
            flag("--ranks", List, "8,32,128,512,1024", 2),
            flag("--frames", Int, "60", 1),
            flag("--systems", Int, "1", 1),
            flag("--particles", Int, "700", 1),
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
        required: false,
        flags: &[
            flag("--sessions", List, "100,300,1000", 1),
            flag("--frames", Int, "10", 1),
            flag("--particles", Int, "300", 1),
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
        required: false,
        flags: &[
            // Rank 1 is the victim and needs a surviving neighbour.
            flag("--calculators", List, "4,8", 2),
            flag("--intervals", List, "2,3,4", 1),
            // Against the default 12-frame run: before the first snapshot
            // (2 < interval 3 and 4), on a cadence boundary (4, 8), deep in (11).
            flag("--crash-frames", List, "2,4,5,8,11", 0),
            flag("--frames", Int, "12", 1),
            flag("--particles", Int, "300", 1),
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
    Subcommand {
        name: "chaos",
        choices: &[],
        required: false,
        flags: &[
            flag("--matrix", Name(&["smoke", "full"]), "smoke", 0),
            flag("--seed", Int, "419766277", 0), // 0x1905_2005
            flag("--frames", Int, "12", 1),
            // A kill scenario needs a survivor to absorb its victim.
            flag("--calculators", Int, "4", 2),
        ],
        run: print_chaos,
    },
    Subcommand {
        name: "sessions",
        choices: &[],
        required: false,
        flags: &[
            flag("--sessions", Int, "100", 1),
            flag("--workers", Int, "8", 1),
            flag("--tenants", Int, "4", 1),
            flag("--scene", Name(&["snow", "fountain", "vortex"]), "snow", 0),
            flag("--frames", Int, "12", 1),
            flag("--slice", Int, "2", 1),
            flag("--seed", Int, "1582628864", 0), // 0x5E55_0000
            flag("--max-in-flight", Int, "32", 1),
            flag("--per-tenant", Int, "8", 1),
            flag("--particles", Int, "400", 1),
            flag("--checkpoint", Int, "0", 0),
            flag("--instrument", Switch, "off", 0),
        ],
        run: print_sessions,
    },
    Subcommand {
        name: "animate",
        choices: &["snow", "fountain", "fireworks", "smoke"],
        required: true,
        flags: &[
            flag("--executor", Name(&["threaded", "virtual", "sequential"]), "threaded", 0),
            flag("--procs", Int, "4", 1),
            flag("--frames", Int, "30", 1),
            flag("--particles", Int, "10000", 1),
            flag("--systems", Int, "4", 1),
            flag("--balance", Name(&["dlb", "slb", "dec"]), "dlb", 0),
            flag("--space", Name(&["fs", "is"]), "fs", 0),
            flag("--render", Path, "", 0),
            flag("--streaks", Switch, "off", 0),
        ],
        run: animate::animate,
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
fn print_tables(a: &Args) -> Result<(), Stop> {
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

/// `bench chaos`: the scenario matrix, its recovered cells and the session
/// gate (`tests/golden/chaos_*.txt`).
fn print_chaos(a: &Args) -> Result<(), Stop> {
    let set = a.text("--matrix");
    let scenarios = if set == "full" { full_set() } else { smoke_set() };
    let mc = MatrixConfig {
        seed: a.int("--seed"),
        frames: a.int("--frames"),
        calculators: a.size("--calculators"),
        ..MatrixConfig::default()
    };
    // Shorter, the kill cells would fail for the run length, not the protocol.
    let min = mc.min_frames(&scenarios);
    if mc.frames < min {
        let why = format!("the `{set}` kill scenarios need at least {min}");
        return Err(Stop::Usage(format!("--frames {} is too short: {why}", mc.frames)));
    }
    match psa_chaos::print_chaos(set, &scenarios, mc) {
        0 => Ok(()),
        failed => Err(Stop::Failed(format!("{failed} failure(s)"))),
    }
}

/// `bench sessions`: one pool run of the standard session
/// (`tests/golden/sessions_default.txt`).
fn print_sessions(a: &Args) -> Result<(), Stop> {
    let admission = AdmissionConfig {
        max_in_flight: a.size("--max-in-flight"),
        per_tenant_in_flight: a.size("--per-tenant"),
        ..AdmissionConfig::default()
    };
    let pool = PoolConfig {
        workers: a.size("--workers"),
        slice_frames: a.int("--slice"),
        admission,
        base_seed: a.int("--seed"),
        checkpoint_interval: a.int("--checkpoint"),
        instrument: a.text("--instrument") == "on",
    };
    let tenants = a.int("--tenants");
    let Ok(tenants) = u32::try_from(tenants) else {
        return Err(Stop::Usage(format!("--tenants {tenants} is more than a TenantId holds")));
    };
    let workload = Workload::from_name(a.text("--scene")).expect("--scene names a workload");
    let spec =
        SessionSpec::standard(TenantId(0), workload, a.size("--particles"), a.int("--frames"));
    psa_sessions::print_pool(pool, a.size("--sessions"), tenants, &spec);
    Ok(())
}

/// The one way an artifact reaches disk: validate, render, write, echo.
fn write_export(data: &impl Export, a: &Args) -> Result<(), Stop> {
    let path = a.text("--out");
    let text = data.checked_json().map_err(|e| Stop::Failed(format!("validation failed: {e}")))?;
    let written = std::fs::write(path, text);
    written.map_err(|e| Stop::Failed(format!("cannot write {path}: {e}")))?;
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
        match (sub.choices, sub.required) {
            ([], _) => {}
            (choices, true) => s.push_str(&format!(" <{}>", choices.join("|"))),
            (choices, false) => s.push_str(&format!(" [{}|all]", choices.join("|"))),
        }
        for flag in sub.flags {
            match flag.kind {
                Name(names) => s.push_str(&format!(" [{} {}]", flag.name, names.join("|"))),
                Switch => s.push_str(&format!(" [{}]", flag.name)),
                Path if flag.default.is_empty() => s.push_str(&format!(" [{} DIR]", flag.name)),
                _ => s.push_str(&format!(" [{} {}]", flag.name, flag.default)),
            }
        }
    }
    s
}

/// Run `bench` on `argv` (without the program name); returns the exit
/// code: 0 done, 1 the run failed (validation, I/O, a chaos cell, an
/// animation), 2 usage error.
pub fn run(mut argv: impl Iterator<Item = String>) -> i32 {
    let parsed = match argv.next() {
        None => Err("no subcommand".to_string()),
        Some(name) => match SUBCOMMANDS.iter().find(|s| s.name == name) {
            None => Err(format!("unknown subcommand `{name}`")),
            Some(sub) => Args::parse(sub, argv).map(|args| (sub, args)),
        },
    };
    let usage_error = |msg: String| {
        eprintln!("error: {msg}\n{}", usage());
        2
    };
    let (sub, args) = match parsed {
        Ok(parsed) => parsed,
        Err(msg) => return usage_error(msg),
    };
    let given = args.flags.iter().filter(|(_, text, _)| !text.is_empty());
    let given: Vec<String> = given.map(|(n, text, _)| format!("{n} {text}")).collect();
    eprintln!("bench {}: {}", sub.name, given.join(" "));
    match (sub.run)(&args) {
        Ok(()) => 0,
        Err(Stop::Usage(msg)) => usage_error(msg),
        Err(Stop::Failed(msg)) => {
            eprintln!("bench {}: {msg}", sub.name);
            1
        }
    }
}
