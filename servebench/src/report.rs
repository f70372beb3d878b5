//! Metric names, percentile helpers and the result line.

use std::fmt::Write;

/// Metrics of untraced runs (`--trace 0`), as listed in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("served_qps", "1/s"),
    ("request_p50_us", "us"),
    ("request_p99_us", "us"),
    ("setup_s", "s"),
    ("index_mib", "MiB"),
    ("peak_rss_mib", "MiB"),
    ("index_answered_pct", "%"),
];

/// Metrics of traced runs (`--trace 1`), as listed in `BENCHMARK.json`.
/// Every one is defined on every workload: a layer a workload leaves idle
/// reports a zero count or share, never a per-call time.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.generate_s", "s"),
    ("build.oracle_s", "s"),
    ("build.landmarks", "count"),
    ("build.avg_vicinity_nodes", "count"),
    ("serialize.encode_s", "s"),
    ("serialize.decode_s", "s"),
    ("serialize.snapshot_mib", "MiB"),
    ("query.ns_per_pair", "ns"),
    ("query.lookups_per_pair", "count"),
    ("query.boundary_scanned_per_pair", "count"),
    ("query.merge_intersections_per_pair", "count"),
    ("query.probe_intersections_per_pair", "count"),
    ("query.hit_pct", "%"),
    ("query.self_pct", "%"),
    ("fallback.calls_pct", "%"),
    ("fallback.ops_per_call", "count"),
    ("fallback.self_pct", "%"),
    ("baselines.bidir_bfs_us_per_pair", "us"),
    ("baselines.bidir_bfs_ops_per_pair", "count"),
    ("baselines.speedup_latency_x", "x"),
    ("baselines.speedup_throughput_x", "x"),
    ("cache.hit_pct", "%"),
    ("cache.get_ns", "ns"),
    ("cache.insert_ns", "ns"),
    ("cache.occupancy_pct", "%"),
    ("cache.self_pct", "%"),
    ("service.dedup_pct", "%"),
    ("service.overhead_us_per_request", "us"),
    ("service.self_pct", "%"),
    ("dynamic.updates", "count"),
    ("dynamic.labels_pct", "%"),
    ("dynamic.rows_pct", "%"),
    ("dynamic.clusters_pct", "%"),
    ("dynamic.rebuild_pct", "%"),
    ("dynamic.publish_pct", "%"),
    ("dynamic.rows_repaired_per_update", "count"),
    ("dynamic.vicinities_rebuilt_per_update", "count"),
    ("dynamic.overlay_entries", "count"),
    ("dynamic.compactions", "count"),
    ("traced.served_qps", "1/s"),
    ("traced.request_p50_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Percentiles the tail helper considers, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 50.0];

/// 1-based nearest rank of percentile `pct` among `n` samples (the small
/// slack keeps e.g. 99.9 % of 10 000 at rank 9990 despite rounding).
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of ascending `sorted` samples (0 when empty).
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// Samples strictly beyond the nearest rank of `pct`.
fn samples_beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, pct)
    }
}

/// The highest candidate percentile with at least ten samples beyond it,
/// and its value; `None` with fewer than ten samples in all.
pub fn tail(sorted: &[u64]) -> Option<(f64, u64)> {
    TAIL_CANDIDATES
        .iter()
        .find(|&&p| samples_beyond(sorted.len(), p) >= 10)
        .map(|&p| (p, percentile(sorted, p)))
}

/// Named metric values in print order.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.values.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.values {
            let _ = writeln!(out, "  {name:<40} {value:>16.4} {unit}");
        }
        out
    }

    /// The result line: `registry` names, in order, with their values.
    pub fn json_line(
        &self,
        registry: &[(&str, &str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let mut metrics = String::new();
        for (i, &(name, unit)) in registry.iter().enumerate() {
            let value = self
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
        )
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a git checkout.
pub fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let samples: Vec<u64> = (1..=1000).collect();
        // 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
        assert_eq!(tail(&samples), Some((99.0, 990)));
        let samples: Vec<u64> = (1..=10_000).collect();
        assert_eq!(tail(&samples), Some((99.9, 9990)));
        let samples: Vec<u64> = (1..=999).collect();
        assert_eq!(tail(&samples), Some((95.0, 950)));
        let samples: Vec<u64> = (1..=20).collect();
        assert_eq!(tail(&samples), Some((50.0, 10)));
        assert_eq!(tail(&[1, 2, 3]), None);
        assert_eq!(percentile(&[5, 6, 7, 8], 50.0), 6);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(name), "duplicate metric name {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit}");
        }
    }

    #[test]
    fn metric_registry_agrees_with_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        for (section, registry) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(section)
                .and_then(json::Value::as_array)
                .unwrap_or_else(|| panic!("{section} is a list"))
                .iter()
                .map(|m| {
                    let field =
                        |k: &str| m.get(k).and_then(json::Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = registry
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{section} differs from the registry");
        }
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(json::Value::as_array)
            .expect("workloads is a list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(json::Value::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        let known: Vec<String> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, known);
    }

    #[test]
    fn json_line_lists_the_registry_in_order() {
        let mut metrics = Metrics::default();
        metrics.set("b", 2.5, "s");
        metrics.set("a", 1.0, "ms");
        let line = metrics.json_line(&[("a", "ms"), ("b", "s")], true, 3, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1, \"unit\": \"ms\"}, \"b\": {\"value\": 2.5, \"unit\": \"s\"}}}"
        );
        let doc = json::parse(&line).expect("the result line is JSON");
        assert!(matches!(doc.get("correct"), Some(json::Value::Bool(true))));
        let a = doc
            .get("metrics")
            .and_then(|m| m.get("a"))
            .and_then(|a| a.get("value"));
        assert!(matches!(a, Some(json::Value::Number(v)) if *v == 1.0));
    }

    /// A minimal JSON reader, enough to check `BENCHMARK.json` and the
    /// result line without a parser dependency.
    mod json {
        #[derive(Debug)]
        pub enum Value {
            Null,
            Bool(bool),
            Number(f64),
            Str(String),
            Array(Vec<Value>),
            Object(Vec<(String, Value)>),
        }

        impl Value {
            pub fn get(&self, key: &str) -> Option<&Value> {
                match self {
                    Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                    _ => None,
                }
            }

            pub fn as_array(&self) -> Option<&Vec<Value>> {
                match self {
                    Value::Array(items) => Some(items),
                    _ => None,
                }
            }

            pub fn as_str(&self) -> Option<&str> {
                match self {
                    Value::Str(s) => Some(s),
                    _ => None,
                }
            }
        }

        pub fn parse(text: &str) -> Option<Value> {
            let mut p = Parser {
                s: text.as_bytes(),
                i: 0,
            };
            let v = p.value()?;
            p.ws();
            (p.i == p.s.len()).then_some(v)
        }

        struct Parser<'a> {
            s: &'a [u8],
            i: usize,
        }

        impl Parser<'_> {
            fn ws(&mut self) {
                while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                    self.i += 1;
                }
            }

            fn eat(&mut self, c: u8) -> Option<()> {
                self.ws();
                (self.s.get(self.i) == Some(&c)).then(|| self.i += 1)
            }

            fn value(&mut self) -> Option<Value> {
                self.ws();
                match *self.s.get(self.i)? {
                    b'{' => {
                        self.i += 1;
                        let mut fields = Vec::new();
                        if self.eat(b'}').is_some() {
                            return Some(Value::Object(fields));
                        }
                        loop {
                            self.ws();
                            let key = self.string()?;
                            self.eat(b':')?;
                            fields.push((key, self.value()?));
                            if self.eat(b',').is_none() {
                                self.eat(b'}')?;
                                return Some(Value::Object(fields));
                            }
                        }
                    }
                    b'[' => {
                        self.i += 1;
                        let mut items = Vec::new();
                        if self.eat(b']').is_some() {
                            return Some(Value::Array(items));
                        }
                        loop {
                            items.push(self.value()?);
                            if self.eat(b',').is_none() {
                                self.eat(b']')?;
                                return Some(Value::Array(items));
                            }
                        }
                    }
                    b'"' => self.string().map(Value::Str),
                    b't' => self.word("true", Value::Bool(true)),
                    b'f' => self.word("false", Value::Bool(false)),
                    b'n' => self.word("null", Value::Null),
                    _ => {
                        let start = self.i;
                        while self.i < self.s.len()
                            && matches!(
                                self.s[self.i],
                                b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                            )
                        {
                            self.i += 1;
                        }
                        std::str::from_utf8(&self.s[start..self.i])
                            .ok()?
                            .parse()
                            .ok()
                            .map(Value::Number)
                    }
                }
            }

            fn word(&mut self, word: &str, value: Value) -> Option<Value> {
                let end = self.i + word.len();
                (self.s.get(self.i..end)? == word.as_bytes()).then(|| {
                    self.i = end;
                    value
                })
            }

            fn string(&mut self) -> Option<String> {
                if self.s.get(self.i) != Some(&b'"') {
                    return None;
                }
                self.i += 1;
                let start = self.i;
                while *self.s.get(self.i)? != b'"' {
                    if self.s[self.i] == b'\\' {
                        self.i += 1;
                    }
                    self.i += 1;
                }
                let raw = std::str::from_utf8(&self.s[start..self.i])
                    .ok()?
                    .to_string();
                self.i += 1;
                Some(raw)
            }
        }
    }
}
