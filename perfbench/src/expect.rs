//! Expected artifact digests, held in `perfbench/expected/*.json`.
//!
//! Each file is `{"workload": .., "seed": .., "digests": {key: hex}}`,
//! captured at the workload's default seed with `--print-digests`. A
//! digest is the length-prefixed FNV-1a of an artifact's canonical JSON,
//! the same hash `tests/golden_digests.rs` pins.

use std::collections::BTreeMap;

use stacksim_core::harness::json::Json;
use stacksim_core::harness::{Artifact, Digest};
use stacksim_core::memory_logic::fig8_with;
use stacksim_core::sensitivity::fig3_with;
use stacksim_thermal::SolverConfig;

use crate::metrics::Outcome;

/// The fig3 and fig8 digests `tests/golden_digests.rs` pins.
const GOLDEN: &str = include_str!("../expected/golden.json");

/// The reduced grid those digests are pinned on.
const GOLDEN_NX: usize = 20;
const GOLDEN_NY: usize = 17;

/// The digest of an artifact's canonical encoding.
pub fn digest(encoded: &str) -> String {
    Digest::new().str(encoded).hex()
}

/// One workload's expected digests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Expected {
    /// The seed the digests were captured at.
    pub seed: u64,
    /// Digest by key (experiment name, or a workload-defined key).
    pub digests: BTreeMap<String, String>,
}

impl Expected {
    /// Parses an expected-digest file.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let doc = Json::parse(text)?;
        let seed = doc
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("expected digests: no 'seed'")?;
        let Some(Json::Obj(members)) = doc.get("digests") else {
            return Err("expected digests: no 'digests' object".to_string());
        };
        let digests = members
            .iter()
            .map(|(k, v)| {
                v.as_str()
                    .map(|s| (k.clone(), s.to_string()))
                    .ok_or_else(|| format!("expected digests: '{k}' is not a string"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Expected { seed, digests })
    }

    /// Renders digests in this file format.
    pub fn render(workload: &str, seed: u64, digests: &BTreeMap<String, String>) -> String {
        let body: Vec<String> = digests
            .iter()
            .map(|(k, v)| format!("    \"{k}\": \"{v}\""))
            .collect();
        format!(
            "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \"digests\": {{\n{}\n  }}\n}}\n",
            body.join(",\n")
        )
    }

    /// Checks `encoded` (the artifact under `key`) against its expected
    /// digest, when the file holds one. Each comparison is one checked
    /// operation in `out`; a mismatch fails it.
    pub fn check(&self, out: &mut Outcome, key: &str, encoded: &str) {
        if let Some(want) = self.digests.get(key) {
            let got = digest(encoded);
            out.check(&got == want, || {
                format!("{key}: artifact digest {got}, expected {want}")
            });
        }
    }
}

/// Solves fig3 and fig8 on the golden grid and checks their digests
/// against the pinned constants: the reference outputs the paper-scale
/// workloads set up before their timed phase.
pub fn golden(out: &mut Outcome) -> Result<(), String> {
    let cfg = SolverConfig::builder().nx(GOLDEN_NX).ny(GOLDEN_NY).build();
    let expected = Expected::parse(GOLDEN)?;
    let (fig3, _) = fig3_with(cfg).map_err(|e| e.to_string())?;
    let (fig8, _) = fig8_with(cfg).map_err(|e| e.to_string())?;
    expected.check(out, "fig3", &Artifact::Fig3(fig3).encode());
    expected.check(out, "fig8", &Artifact::Fig8(fig8).encode());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `expected/golden.json` holds exactly the constants the repository's
    /// golden-digest test pins.
    #[test]
    fn golden_file_matches_the_repository_golden_test() {
        let test = include_str!("../../tests/golden_digests.rs");
        let pinned = |name: &str| -> String {
            let line = test
                .lines()
                .find(|l| l.starts_with(&format!("const {name}: &str = ")))
                .unwrap_or_else(|| panic!("{name} not found"));
            line.split('"').nth(1).expect("quoted constant").to_string()
        };
        let golden = Expected::parse(GOLDEN).expect("golden.json parses");
        assert_eq!(golden.digests.get("fig3"), Some(&pinned("GOLDEN_FIG3")));
        assert_eq!(golden.digests.get("fig8"), Some(&pinned("GOLDEN_FIG8")));
        assert_eq!(golden.digests.len(), 2);
    }

    /// Every expected file is captured at the workloads' default seed,
    /// `WorkloadParams`' own.
    #[test]
    fn expected_files_use_the_default_seed() {
        let seed = stacksim_workloads::WorkloadParams::paper().seed;
        for text in [
            GOLDEN,
            include_str!("../expected/paper_cold.json"),
            include_str!("../expected/explore_thermal.json"),
            include_str!("../expected/serve_mixed.json"),
        ] {
            let e = Expected::parse(text).expect("parses");
            assert_eq!(e.seed, seed);
            assert!(!e.digests.is_empty());
        }
    }

    #[test]
    fn render_and_parse_round_trip() {
        let mut d = BTreeMap::new();
        d.insert("fig3".to_string(), digest("{}"));
        d.insert("miss:0".to_string(), digest("[1]"));
        let text = Expected::render("w", 42, &d);
        let e = Expected::parse(&text).expect("parses");
        assert_eq!(e.seed, 42);
        assert_eq!(e.digests, d);
    }

    #[test]
    fn a_wrong_expected_digest_raises_the_fail_ratio() {
        let mut right = BTreeMap::new();
        right.insert("fig3".to_string(), digest("{\"a\":1}"));
        let expected = Expected {
            seed: 1,
            digests: right.clone(),
        };
        let mut out = Outcome::default();
        expected.check(&mut out, "fig3", "{\"a\":1}");
        assert_eq!(out.fail_ratio(), 0.0);

        let mut wrong = right;
        wrong.insert("fig3".to_string(), "0000000000000000".to_string());
        let tampered = Expected {
            seed: 1,
            digests: wrong,
        };
        tampered.check(&mut out, "fig3", "{\"a\":1}");
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert!(out.fail_ratio() > 0.0);
    }

    #[test]
    fn keys_the_file_does_not_hold_are_not_checked() {
        let mut out = Outcome::default();
        Expected::default().check(&mut out, "fig3", "{}");
        assert_eq!(out.attempted, 0);
    }
}
