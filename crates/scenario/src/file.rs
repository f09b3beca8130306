//! The `.scn` file format: [`SCENARIO_MAGIC`] followed by a
//! version-gated [`SummaryEnvelope`] whose payload is the
//! wire-encoded [`Scenario`] — the same magic → version → payload
//! gating as `replend-wire`'s checkpoint files, so a stale or
//! foreign file is rejected before any payload byte is interpreted.
//!
//! The envelope's seed slot carries the scenario seed, purely as a
//! a cheap integrity cross-check: [`decode_scenario`] verifies it
//! matches the decoded scenario's own `seed` field.

use crate::dsl::{Scenario, ScenarioError};
use replend_wire::{SummaryEnvelope, WireError};
use std::path::Path;

/// First four bytes of every scenario file.
pub const SCENARIO_MAGIC: [u8; 4] = *b"RLSC";

/// Encodes a scenario into `.scn` bytes. The scenario is validated
/// first — malformed scenarios cannot be shipped.
pub fn encode_scenario(scenario: &Scenario) -> Result<Vec<u8>, ScenarioError> {
    scenario.validate()?;
    let envelope = SummaryEnvelope::wrap(scenario.seed, scenario)?.encode()?;
    let mut out = Vec::with_capacity(SCENARIO_MAGIC.len() + envelope.len());
    out.extend_from_slice(&SCENARIO_MAGIC);
    out.extend_from_slice(&envelope);
    Ok(out)
}

/// Decodes and validates `.scn` bytes: magic first, protocol version
/// second, payload third, semantic validation last. Every failure is
/// a named [`ScenarioError`].
pub fn decode_scenario(bytes: &[u8]) -> Result<Scenario, ScenarioError> {
    let rest = bytes
        .strip_prefix(&SCENARIO_MAGIC[..])
        .ok_or(ScenarioError::Wire(WireError::BadMagic))?;
    let envelope = SummaryEnvelope::decode(rest)?;
    let seed = envelope.seed;
    let scenario: Scenario = envelope.open()?;
    if scenario.seed != seed {
        return Err(ScenarioError::Wire(WireError::Message(format!(
            "envelope seed {seed} does not match scenario seed {}",
            scenario.seed
        ))));
    }
    scenario.validate()?;
    Ok(scenario)
}

/// Reads and decodes a scenario file. I/O failures are reported as
/// the `Err` string; malformed contents as `Ok(Err(ScenarioError))` —
/// callers that only care about "did it load" can flatten, the CLI
/// distinguishes the two to pick the right error class.
pub fn load_scenario(path: &Path) -> Result<Result<Scenario, ScenarioError>, String> {
    let bytes =
        std::fs::read(path).map_err(|e| format!("cannot read scenario {}: {e}", path.display()))?;
    Ok(decode_scenario(&bytes))
}
