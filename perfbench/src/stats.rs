//! The benchmark's own arithmetic: order statistics, the paper-error
//! figure, and the pinned-output comparison. Kept free of simulator types
//! so it can be unit-tested on hand-made inputs.

use std::collections::BTreeMap;

/// Samples a reported percentile must leave strictly beyond it: a tail
/// percentile resting on fewer samples is noise, not a measurement.
pub const MIN_BEYOND: usize = 10;

/// The paper's headline speedups of VEGETA-S-16-2+OF over RASA-DM (§I and
/// §VI-C): dense 4:4, 2:4, 1:4, and unstructured 95% sparsity.
pub const PAPER_HEADLINE: [(&str, f64); 4] = [
    ("4:4", 1.09),
    ("2:4", 2.20),
    ("1:4", 3.74),
    ("unstructured-95%", 3.28),
];

/// The paper's speedup for a headline label (`None` for an unknown label).
pub fn paper_speedup(label: &str) -> Option<f64> {
    PAPER_HEADLINE
        .iter()
        .find(|(l, _)| *l == label)
        .map(|&(_, v)| v)
}

/// Median of `values` (mean of the middle pair for an even count); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank `p`-th percentile of `samples`, reported only when at least
/// [`MIN_BEYOND`] samples lie beyond it. The rank is `⌈p/100 · n⌉`
/// (1-based), so p90 over 108 samples is the 98th smallest value with 10
/// samples beyond it; over 99 samples p90 is refused.
pub fn percentile_with_tail(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Signed error of a simulated figure against the paper's, in percent.
pub fn signed_err_pct(simulated: f64, paper: f64) -> f64 {
    (simulated / paper - 1.0) * 100.0
}

/// `paper_err_pct`: the largest |simulated / paper − 1| × 100 over
/// `(simulated, paper)` pairs; `None` when there are none.
pub fn paper_err_pct(pairs: &[(f64, f64)]) -> Option<f64> {
    pairs
        .iter()
        .map(|&(sim, paper)| signed_err_pct(sim, paper).abs())
        .reduce(f64::max)
}

/// One simulated cell's identity and the two numbers pinned for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// `layer|engine|sparsity|cores`.
    pub id: String,
    /// Simulated cycles (makespan for multi-core cells).
    pub cycles: u64,
    /// Simulated instructions.
    pub instructions: u64,
}

/// Pinned records of one workload, keyed by cell id.
pub type Pins = BTreeMap<String, (u64, u64)>;

/// Parses a pinned-records file: one `id<TAB>cycles<TAB>instructions` line
/// per cell; blank lines and `#` comments are skipped.
///
/// # Errors
///
/// A message naming the first malformed line.
pub fn parse_pins(text: &str) -> Result<Pins, String> {
    let mut pins = Pins::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        let parsed = match fields.as_slice() {
            [id, cycles, insts] => cycles
                .parse::<u64>()
                .ok()
                .zip(insts.parse::<u64>().ok())
                .map(|pair| (id.to_string(), pair)),
            _ => None,
        };
        let (id, pair) = parsed.ok_or_else(|| format!("pins line {}: {line:?}", i + 1))?;
        pins.insert(id, pair);
    }
    Ok(pins)
}

/// Renders records in the pinned-file format, sorted by id so the file is
/// independent of the order cells ran in.
pub fn format_pins(records: &[Record]) -> String {
    let mut sorted: Vec<&Record> = records.iter().collect();
    sorted.sort_by(|a, b| a.id.cmp(&b.id));
    let mut out = format!("# {}\n", summary_line(records));
    for r in sorted {
        out.push_str(&format!("{}\t{}\t{}\n", r.id, r.cycles, r.instructions));
    }
    out
}

/// FNV-1a digest of every `(id, cycles, instructions)` record, taken in id
/// order so it does not depend on the order cells ran in.
pub fn digest(records: &[Record]) -> u64 {
    let mut sorted: Vec<&Record> = records.iter().collect();
    sorted.sort_by(|a, b| a.id.cmp(&b.id));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in sorted {
        let line = format!("{}\t{}\t{}\n", r.id, r.cycles, r.instructions);
        for b in line.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// `digest=… cells=… instructions=… cycles=…` for a set of records.
pub fn summary_line(records: &[Record]) -> String {
    let insts: u64 = records.iter().map(|r| r.instructions).sum();
    let cycles: u64 = records.iter().map(|r| r.cycles).sum();
    format!(
        "digest={:016x} cells={} instructions={insts} cycles={cycles}",
        digest(records),
        records.len()
    )
}

/// Cells of `observed` that fail the pinned-output check: a record whose
/// id is not pinned, or whose cycles or instructions differ from the pin.
/// Each such cell counts as one failed cell against the cells attempted.
pub fn failed_cells(observed: &[Record], pins: &Pins) -> Vec<String> {
    observed
        .iter()
        .filter(|r| pins.get(&r.id) != Some(&(r.cycles, r.instructions)))
        .map(|r| r.id.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: &str, cycles: u64, instructions: u64) -> Record {
        Record {
            id: id.to_string(),
            cycles,
            instructions,
        }
    }

    #[test]
    fn p90_of_108_samples_has_ten_beyond() {
        let samples: Vec<f64> = (1..=108).map(f64::from).collect();
        assert_eq!(percentile_with_tail(&samples, 90.0), Some(98.0));
        assert_eq!(percentile_with_tail(&samples, 50.0), Some(54.0));
    }

    #[test]
    fn tail_percentile_refused_with_fewer_than_ten_beyond() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile_with_tail(&samples, 90.0), None);
        assert_eq!(percentile_with_tail(&[], 50.0), None);
        // Sample order does not matter.
        let mut rev: Vec<f64> = (1..=108).rev().map(f64::from).collect();
        rev.swap(3, 70);
        assert_eq!(percentile_with_tail(&rev, 90.0), Some(98.0));
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn paper_err_on_todays_headline_is_the_one_to_four_overshoot() {
        let sim = [1.13, 2.26, 4.23, 3.02];
        let pairs: Vec<(f64, f64)> = sim
            .iter()
            .zip(PAPER_HEADLINE)
            .map(|(&s, (_, p))| (s, p))
            .collect();
        let err = paper_err_pct(&pairs).unwrap();
        assert!((err - 13.1).abs() < 0.01, "{err}");
        assert!((signed_err_pct(3.02, 3.28) + 7.93).abs() < 0.01);
        assert_eq!(paper_err_pct(&[]), None);
        assert_eq!(paper_speedup("1:4"), Some(3.74));
    }

    #[test]
    fn digest_mismatch_counts_as_a_failed_cell() {
        let good = vec![rec("a|e|2:4|1", 10, 5), rec("b|e|2:4|1", 20, 7)];
        let pins = parse_pins(&format_pins(&good)).unwrap();
        assert!(failed_cells(&good, &pins).is_empty());

        let moved = vec![rec("a|e|2:4|1", 11, 5), rec("b|e|2:4|1", 20, 7)];
        assert_ne!(digest(&moved), digest(&good));
        assert_eq!(failed_cells(&moved, &pins), vec!["a|e|2:4|1".to_string()]);

        let unknown = vec![rec("c|e|2:4|1", 10, 5)];
        assert_eq!(failed_cells(&unknown, &pins).len(), 1);
    }

    #[test]
    fn digest_ignores_run_order() {
        let a = vec![rec("x", 1, 2), rec("y", 3, 4)];
        let b = vec![rec("y", 3, 4), rec("x", 1, 2)];
        assert_eq!(digest(&a), digest(&b));
        assert_eq!(format_pins(&a), format_pins(&b));
    }

    #[test]
    fn malformed_pins_are_rejected() {
        assert!(parse_pins("a\t1\n").is_err());
        assert!(parse_pins("a\tx\t1\n").is_err());
        assert_eq!(parse_pins("# c\n\na\t1\t2\n").unwrap().len(), 1);
    }
}
