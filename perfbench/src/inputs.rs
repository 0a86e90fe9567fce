//! Seeded workload inputs, their ground truth, and the pinned digests.
//!
//! Every input is a pure function of the workload seed. The generated
//! files are digested, and a run whose inputs differ from the digests
//! recorded in `digests.tsv` is refused before anything is timed: a
//! change to the generators would otherwise make a parent/change pair
//! measure different inputs without anyone noticing.

use std::collections::{BTreeMap, BTreeSet};

use chc_model::Schema;
use chc_workloads::{generate, seed_contradictions, GeneratedHierarchy, HierarchyParams};

/// Classes in the hierarchy behind the `check` and `analyze` workloads.
pub const SDL_CLASSES: usize = 1600;
/// Excused sites whose excuses are dropped in the faulty schema.
pub const SEEDED_FAULTS: usize = 10;
/// Classes in the hierarchy behind the `serve` workload.
pub const SERVE_CLASSES: usize = 400;
/// Objects populated per concrete class (`chc load`'s default).
pub const SERVE_PER_CLASS: usize = 20;
/// Operations in one serve round; every round replays the same ops on a
/// freshly built target.
pub const SERVE_OPS_PER_ROUND: u64 = 50_000;

/// The clean schema's file name, as passed to `chc`.
pub const CLEAN_SDL: &str = "c.sdl";
/// The faulty schema's file name, as passed to `chc`.
pub const FAULTY_SDL: &str = "f.sdl";

/// The recorded digests, one `<group> <seed> <key> <value>` line each.
pub const RECORDED: &str = include_str!("../digests.tsv");

fn spread(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// E1's hierarchy of `classes` classes (E1 parameters, seed
/// `0xE1 + classes`). It does not vary with the workload seed: the
/// generator's excuse-clause count swings by a third between seeds, which
/// would bury a change's effect under input-size noise. The workload seed
/// instead places the faults and drives population and operations.
pub fn hierarchy(classes: usize) -> GeneratedHierarchy {
    generate(&HierarchyParams {
        classes,
        seed: 0xE1 + classes as u64,
        ..HierarchyParams::default()
    })
}

/// Seed of the serve workload's population and operation stream; seed 0
/// gives `chc load`'s default (`0xC10AD`).
pub fn serve_stream_seed(seed: u64) -> u64 {
    0xC_10AD ^ spread(seed)
}

/// FNV-1a, 64 bits: the digest of a generated file.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The input-size counts of a schema. They pin the input and are the
/// base of every per-clause cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelCounts {
    /// Declared classes.
    pub classes: usize,
    /// Attribute declarations.
    pub attr_decls: usize,
    /// Excuse clauses over all declarations.
    pub excuse_clauses: usize,
}

impl ModelCounts {
    /// Counts `schema`.
    pub fn of(schema: &Schema) -> ModelCounts {
        let excuse_clauses = schema
            .class_ids()
            .flat_map(|c| schema.class(c).attrs.iter())
            .map(|d| d.spec.excuses.len())
            .sum();
        ModelCounts {
            classes: schema.num_classes(),
            attr_decls: schema.num_attr_decls(),
            excuse_clauses,
        }
    }

    /// Attribute declarations plus excuse clauses: the input size that
    /// per-clause costs divide by.
    pub fn input_size(&self) -> usize {
        self.attr_decls + self.excuse_clauses
    }

    fn record(&self, out: &mut BTreeMap<String, String>) {
        out.insert("model.classes".into(), self.classes.to_string());
        out.insert("model.attr_decls".into(), self.attr_decls.to_string());
        out.insert(
            "model.excuse_clauses".into(),
            self.excuse_clauses.to_string(),
        );
    }
}

/// Where the checker's errors may and must appear, from the generator's
/// fault list rather than from the checker.
#[derive(Debug, Clone, Default)]
pub struct Truth {
    /// `(class, attr)` of every seeded fault.
    pub faults: Vec<(String, String)>,
    /// `(class, attr)` pairs at a fault or at a descendant of one on the
    /// same attribute: the only places an error may land.
    pub error_sites: BTreeSet<(String, String)>,
    /// Every class in some fault's descendant cone.
    pub cone_classes: BTreeSet<String>,
}

/// The `check`/`analyze` input pair: a clean hierarchy and the same
/// hierarchy with [`SEEDED_FAULTS`] excuses dropped.
pub struct SdlPair {
    /// SDL text of the clean schema.
    pub clean: String,
    /// SDL text of the faulty schema.
    pub faulty: String,
    /// The fault ground truth.
    pub truth: Truth,
    /// Counts of the faulty schema, the one every command checks.
    pub model: ModelCounts,
}

impl SdlPair {
    /// Generates the pair for `seed`.
    pub fn generate(seed: u64) -> SdlPair {
        SdlPair::generate_sized(SDL_CLASSES, seed)
    }

    /// The pair over a hierarchy of `classes` classes (tests use small ones).
    pub fn generate_sized(classes: usize, seed: u64) -> SdlPair {
        let gen = hierarchy(classes);
        let (faulty, faults) = seed_contradictions(&gen, SEEDED_FAULTS, 7 ^ spread(seed));
        let mut truth = Truth::default();
        for f in &faults {
            let attr = faulty.resolve(f.attr).to_string();
            truth
                .faults
                .push((faulty.class_name(f.class).to_string(), attr.clone()));
            for d in faulty.descendants_with_self(f.class) {
                let name = faulty.class_name(d).to_string();
                truth.error_sites.insert((name.clone(), attr.clone()));
                truth.cone_classes.insert(name);
            }
        }
        SdlPair {
            clean: chc_sdl::print_schema(&gen.schema),
            faulty: chc_sdl::print_schema(&faulty),
            truth,
            model: ModelCounts::of(&faulty),
        }
    }

    /// The digests a run of this pair must match.
    pub fn digests(&self) -> BTreeMap<String, String> {
        let mut out = BTreeMap::new();
        out.insert(
            CLEAN_SDL.into(),
            format!("{:016x}", fnv1a64(self.clean.as_bytes())),
        );
        out.insert(
            FAULTY_SDL.into(),
            format!("{:016x}", fnv1a64(self.faulty.as_bytes())),
        );
        out.insert("faults".into(), self.truth.faults.len().to_string());
        self.model.record(&mut out);
        out
    }
}

/// The serve workload's schema (no SDL file reaches `chc`; the printed
/// form is digested all the same, as the canonical text of the input).
pub struct ServeSchema {
    /// The generated, checker-clean schema.
    pub schema: Schema,
    /// Its counts.
    pub model: ModelCounts,
}

impl ServeSchema {
    /// Generates the schema.
    pub fn generate() -> ServeSchema {
        let schema = hierarchy(SERVE_CLASSES).schema;
        let model = ModelCounts::of(&schema);
        ServeSchema { schema, model }
    }

    /// The digests a run of this schema must match.
    pub fn digests(&self, seed: u64) -> BTreeMap<String, String> {
        let mut out = BTreeMap::new();
        let sdl = chc_sdl::print_schema(&self.schema);
        out.insert(
            "schema.sdl".into(),
            format!("{:016x}", fnv1a64(sdl.as_bytes())),
        );
        let ops = crate::serve::op_generator(seed);
        let mut h = Vec::new();
        for i in 0..SERVE_OPS_PER_ROUND {
            let op = ops.op_at(i);
            h.extend_from_slice(op.kind.name().as_bytes());
            h.extend_from_slice(&op.pick.to_le_bytes());
            h.extend_from_slice(&op.aux.to_le_bytes());
            h.extend_from_slice(&op.value_seed.to_le_bytes());
        }
        out.insert("ops".into(), format!("{:016x}", fnv1a64(&h)));
        self.model.record(&mut out);
        out
    }
}

/// The table of recorded digests: `(group, seed) → key → value`.
#[derive(Debug, Clone, Default)]
pub struct Recorded {
    entries: BTreeMap<(String, u64), BTreeMap<String, String>>,
}

impl Recorded {
    /// Parses the `<group> <seed> <key> <value>` table; `#` starts a
    /// comment line.
    pub fn parse(text: &str) -> Result<Recorded, String> {
        let mut entries: BTreeMap<(String, u64), BTreeMap<String, String>> = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [group, seed, key, value] = fields[..] else {
                return Err(format!("digests line {}: expected 4 fields", n + 1));
            };
            let seed: u64 = seed
                .parse()
                .map_err(|e| format!("digests line {}: seed: {e}", n + 1))?;
            entries
                .entry((group.to_string(), seed))
                .or_default()
                .insert(key.to_string(), value.to_string());
        }
        Ok(Recorded { entries })
    }

    /// The recorded table compiled into the benchmark.
    pub fn builtin() -> Recorded {
        Recorded::parse(RECORDED).expect("digests.tsv is well-formed")
    }

    /// The smallest recorded seed of `group`: the canary a run with an
    /// unrecorded seed checks the generators against.
    pub fn canary(&self, group: &str) -> Option<u64> {
        self.entries
            .keys()
            .find(|(g, _)| g == group)
            .map(|&(_, s)| s)
    }

    /// Whether `(group, seed)` has a record.
    pub fn has(&self, group: &str, seed: u64) -> bool {
        self.entries.contains_key(&(group.to_string(), seed))
    }

    /// Checks every observed value against the record of `(group, seed)`.
    /// A missing record or any differing or unrecorded key refuses.
    pub fn verify(
        &self,
        group: &str,
        seed: u64,
        observed: &BTreeMap<String, String>,
    ) -> Result<(), String> {
        let recorded = self
            .entries
            .get(&(group.to_string(), seed))
            .ok_or_else(|| format!("no recorded digests for {group} seed {seed}"))?;
        for (key, value) in observed {
            match recorded.get(key) {
                Some(want) if want == value => {}
                Some(want) => {
                    return Err(format!(
                        "{group} seed {seed}: {key} is {value}, recorded {want}"
                    ))
                }
                None => return Err(format!("{group} seed {seed}: {key} was never recorded")),
            }
        }
        Ok(())
    }

    /// Renders `observed` as table lines for `(group, seed)`.
    pub fn lines(group: &str, seed: u64, observed: &BTreeMap<String, String>) -> String {
        observed
            .iter()
            .map(|(k, v)| format!("{group} {seed} {k} {v}\n"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn a_digest_mismatch_refuses() {
        let table =
            Recorded::parse("# header\nsdl-pair 3 f.sdl 00ff\nsdl-pair 3 faults 10\n").unwrap();
        let mut seen = BTreeMap::new();
        seen.insert("f.sdl".to_string(), "00ff".to_string());
        assert!(table.verify("sdl-pair", 3, &seen).is_ok());
        seen.insert("f.sdl".to_string(), "00fe".to_string());
        let err = table.verify("sdl-pair", 3, &seen).unwrap_err();
        assert!(err.contains("f.sdl is 00fe, recorded 00ff"), "{err}");
        assert!(
            table.verify("sdl-pair", 4, &seen).is_err(),
            "unrecorded seed"
        );
        seen.clear();
        seen.insert("c.sdl".to_string(), "00ff".to_string());
        assert!(
            table.verify("sdl-pair", 3, &seen).is_err(),
            "unrecorded key"
        );
        assert_eq!(table.canary("sdl-pair"), Some(3));
        assert!(Recorded::parse("sdl-pair x f.sdl 1\n").is_err());
        assert!(Recorded::parse("sdl-pair 1 f.sdl\n").is_err());
    }

    #[test]
    fn the_builtin_table_pins_seed_zero_of_both_groups() {
        let table = Recorded::builtin();
        assert_eq!(table.canary("sdl-pair"), Some(0));
        assert_eq!(table.canary("serve"), Some(0));
    }
}
