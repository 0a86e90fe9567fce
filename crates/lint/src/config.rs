//! Severity configuration: which lints are allowed, noted, warned, or
//! denied.

use crate::code::LintCode;

/// What to do with a lint's findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintLevel {
    /// Suppress entirely.
    Allow,
    /// Report as an informational note; never fails the run and is not
    /// promoted by `deny_warnings` (like rustc's `note:` diagnostics).
    Info,
    /// Report, but do not fail the run.
    Warn,
    /// Report and fail the run (non-zero exit from the CLI).
    Deny,
}

/// Per-lint severity levels. Schema lints and the hazard-reporting query
/// lints default to [`LintLevel::Warn`]; the advisory Q004/Q005 default
/// to [`LintLevel::Info`]. `deny_warnings` promotes surviving warnings to
/// deny (the CLI's `--deny warnings`), mirroring `rustc -D warnings`.
#[derive(Debug, Clone)]
pub struct LintConfig {
    levels: [LintLevel; LintCode::ALL.len()],
    /// Promote every warn-level finding to deny.
    pub deny_warnings: bool,
}

/// The out-of-the-box level of a lint.
fn default_level(code: LintCode) -> LintLevel {
    match code {
        LintCode::DischargedCheck
        | LintCode::GuardSuggestion
        | LintCode::SilentWidening
        | LintCode::ConeReport => LintLevel::Info,
        _ => LintLevel::Warn,
    }
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            levels: LintCode::ALL.map(default_level),
            deny_warnings: false,
        }
    }
}

impl LintConfig {
    /// All lints at their default levels.
    pub fn new() -> Self {
        LintConfig::default()
    }

    /// Sets one lint's level (the last `--allow/--warn/--deny` wins).
    pub fn set(&mut self, code: LintCode, level: LintLevel) {
        self.levels[code.idx()] = level;
    }

    /// The effective level of a lint, with `deny_warnings` applied.
    /// An explicit `Allow` survives `deny_warnings` — a suppressed lint
    /// stays suppressed, again like `rustc -D warnings -A <lint>` — and
    /// info-level lints are not warnings, so they are not promoted.
    pub fn level(&self, code: LintCode) -> LintLevel {
        match self.levels[code.idx()] {
            LintLevel::Warn if self.deny_warnings => LintLevel::Deny,
            l => l,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_warn_except_advisory_query_lints() {
        let cfg = LintConfig::new();
        for c in LintCode::ALL {
            let expect = match c {
                LintCode::DischargedCheck
                | LintCode::GuardSuggestion
                | LintCode::SilentWidening
                | LintCode::ConeReport => LintLevel::Info,
                _ => LintLevel::Warn,
            };
            assert_eq!(cfg.level(c), expect, "{c}");
        }
    }

    #[test]
    fn deny_warnings_spares_explicit_allows_and_info() {
        let mut cfg = LintConfig::new();
        cfg.deny_warnings = true;
        cfg.set(LintCode::UnusedClass, LintLevel::Allow);
        assert_eq!(cfg.level(LintCode::UnusedClass), LintLevel::Allow);
        assert_eq!(cfg.level(LintCode::DeadExcuse), LintLevel::Deny);
        // Info-level lints survive --deny warnings untouched.
        assert_eq!(cfg.level(LintCode::DischargedCheck), LintLevel::Info);
        assert_eq!(cfg.level(LintCode::GuardSuggestion), LintLevel::Info);
        // But an explicit --deny on them still works.
        cfg.set(LintCode::GuardSuggestion, LintLevel::Deny);
        assert_eq!(cfg.level(LintCode::GuardSuggestion), LintLevel::Deny);
    }
}
