//! Reproduction harness library.
//!
//! One function per paper artifact (Table 1, Table 2, Table 3, the in-text
//! §5.1/§5.2/§5.3 numbers) and one `collect*` per `BENCH_<id>.json`, each
//! returning structured rows; the one `bench` binary ([`cli`]) prints the
//! tables next to the paper's published values and writes the exports
//! through the one JSON writer ([`json`]). Everything is deterministic:
//! same seed, same table.

pub mod cli;
pub mod export;
pub mod export5;
pub mod export6;
pub mod export7;
pub mod export8;
pub mod json;
pub mod paper;
pub mod runner;
pub mod tables;

use json::Json;

/// What every `BENCH_<id>.json` export gives the one run path
/// (collect → validate → write → echo the document's rows).
pub trait Export {
    /// The content check: reject empty, degenerate or gate-failing data.
    /// Finiteness is not checked here — it is the writer's rule, applied to
    /// every number of the document by [`Export::checked_json`].
    fn validate(&self) -> Result<(), String>;

    /// The artifact's document.
    fn to_json(&self) -> Json;

    /// The artifact's text: [`Export::validate`], then a render under the
    /// writer's number rule — a non-finite metric anywhere in the document
    /// is an error here, never a `NaN` or `null` on disk.
    fn checked_json(&self) -> Result<String, String> {
        self.validate()?;
        self.to_json().render().map_err(|e| e.to_string())
    }
}
