//! Metric definitions, result documents, and `wsbench compare`.
//!
//! A metric exists only if it is listed here with its unit and direction;
//! [`Metrics::set`] refuses any other name.  `contract` marks the metrics that
//! `BENCHMARK.json` declares: those are measured on every workload and can
//! never read exactly 0, so the line a run ends with carries exactly them.
//! The rest (one workload only, or legitimately 0 somewhere) still go to the
//! result files and through `compare`.

use std::fmt::Write as _;

use crate::json::Json;
use crate::oracle::Tally;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the base's median by which the metric
    /// may get worse before `compare` calls it a regression.
    pub bound: Option<f64>,
    /// Declared in `BENCHMARK.json` (see the module docs).
    pub contract: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    contract: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        contract,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        contract: true,
    }
}

/// A layer metric that reads exactly 0 on some workload (a read-only stream
/// logs no bytes), which `BENCHMARK.json` metrics must never do.
const fn layer_zero_ok(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        contract: false,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees.  `failed_share` must stay 0 (any rise is
/// a regression, whatever its bound says) and travels in the contract line as
/// `failed`/`attempted`; `reopen_ms` exists on `durable-write` only.  The
/// bounded tail is p95: on `durable-write` about 1% of requests wait on a
/// checkpoint's fsync, so its p99 sits on the knee between the two regimes
/// and swings 10-25% from run to run with the disk.
pub static END_TO_END: [MetricDef; 8] = [
    e2e("throughput_kops", "kops/s", Higher, 0.25, true),
    e2e("req_p50_us", "us", Lower, 0.25, true),
    e2e("req_p95_us", "us", Lower, 0.25, true),
    e2e("req_p99_us", "us", Lower, 0.25, false),
    e2e("failed_share", "share", Lower, 0.0, false),
    e2e("setup_s", "s", Lower, 0.25, true),
    e2e("rss_mb", "MB", Lower, 0.25, true),
    e2e("reopen_ms", "ms", Lower, 0.20, false),
];

/// What single layers do, from the traced run: (a) the concurrent traced
/// pass, (b) the serial ladder, (c) fixed probes.
pub static PER_LAYER: [MetricDef; 40] = [
    // (a) concurrent traced pass
    layer("svc.polls_per_req", "count", Lower),
    layer("svc.pumps_per_req", "count", Lower),
    layer("svc.submit_ns_per_req", "ns", Lower),
    layer("svc.pump_ns_per_req", "ns", Lower),
    layer("svc.self_ns_per_req", "ns", Lower),
    layer("core.concurrent.ops_per_batch", "count", Higher),
    layer("core.concurrent.batches_per_s", "1/s", Lower),
    layer("shard.imbalance", "ratio", Lower),
    layer("trace.overhead_share", "share", Lower),
    // (b) ladder
    layer("twothree.ns_per_op", "ns", Lower),
    layer("twothree.nodes_per_op", "count", Lower),
    layer("sort.ns_per_op", "ns", Lower),
    layer("core.m1.ns_per_op", "ns", Lower),
    layer("core.m1.work_per_op", "count", Lower),
    layer("core.m1.work_over_wl", "ratio", Lower),
    layer("core.m2.ns_per_op", "ns", Lower),
    layer("core.m2.work_per_op", "count", Lower),
    layer("core.m2.work_over_wl", "ratio", Lower),
    layer_zero_ok("core.m2.maintenance_runs_per_kop", "count", Lower),
    layer("core.concurrent.ns_per_op", "ns", Lower),
    layer("core.concurrent.self_ns_per_op", "ns", Lower),
    layer("shard.ns_per_op", "ns", Lower),
    layer("shard.self_ns_per_op", "ns", Lower),
    layer("svc.ns_per_op", "ns", Lower),
    layer("svc.self_ns_per_op", "ns", Lower),
    layer("wal.ns_per_op", "ns", Lower),
    layer("wal.self_ns_per_op", "ns", Lower),
    layer("wal.append_ns_per_batch", "ns", Lower),
    layer_zero_ok("wal.log_bytes_per_op", "B", Lower),
    layer("wal.checkpoint_ms", "ms", Lower),
    layer("wal.checkpoint_bytes_per_item", "B", Lower),
    layer("wal.open_ms", "ms", Lower),
    layer("wal.checkpoints", "count", Lower),
    // (c) fixed probes
    layer("pool.join_ns", "ns", Lower),
    layer("pool.par_map_ns_per_item", "ns", Lower),
    layer("core.buffer.push_flush_ns_per_item", "ns", Lower),
    layer("svc.exec.spawn_join_ns", "ns", Lower),
    layer("svc.exec.timer_late_us", "us", Lower),
    layer("workloads.gen_ns_per_op", "ns", Lower),
    layer("seq.avl.ns_per_op", "ns", Lower),
];

pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// Named measurements of one run, in the order they were taken.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<(&'static MetricDef, f64)>);

impl Metrics {
    /// Records `value` under `name`, which must be defined in this module.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = metric_def(name).unwrap_or_else(|| panic!("metric {name:?} is not defined"));
        assert!(
            self.get(name).is_none(),
            "metric {name:?} measured twice in one run"
        );
        self.0.push((def, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(d, _)| d.name == name).map(|(_, v)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.0.iter().map(|(d, v)| (*d, *v))
    }

    pub fn extend(&mut self, other: Metrics) {
        for (def, value) in other.0 {
            self.set(def.name, value);
        }
    }

    fn to_json(&self, only_contract: bool) -> Json {
        Json::obj(
            self.iter()
                .filter(|(def, _)| def.contract || !only_contract)
                .map(|(def, value)| {
                    (
                        def.name,
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))]),
                    )
                }),
        )
    }

    /// One aligned `name value unit` line per metric.
    pub fn table(&self) -> String {
        let width = self.iter().map(|(d, _)| d.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (def, value) in self.iter() {
            let _ = writeln!(out, "  {:width$}  {value:>14.4} {}", def.name, def.unit);
        }
        out
    }
}

/// Everything one run of one workload produced.
#[derive(Debug)]
pub struct RunResult {
    pub workload: &'static str,
    pub traced: bool,
    pub tally: Tally,
    /// Requests behind the latency percentiles (timed runs).
    pub samples: u64,
    /// Per-slice detail of the measured window.
    pub slices: Json,
    pub metrics: Metrics,
    pub meta: Json,
}

impl RunResult {
    /// The line the benchmark contract asks for: exactly the keys `correct`,
    /// `attempted`, `failed`, `metrics`, with the `BENCHMARK.json` metrics of
    /// this pass.
    pub fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.tally.failed == 0)),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("metrics", self.metrics.to_json(true)),
        ])
        .to_string()
    }

    /// The run's own result file: every metric, plus sample counts and meta.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("traced", Json::Bool(self.traced)),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("latency_samples", Json::Num(self.samples as f64)),
            ("slices", self.slices.clone()),
            ("metrics", self.metrics.to_json(false)),
            ("meta", self.meta.clone()),
        ])
    }
}

/// Merges per-run result files into the document `wsbench all` writes and
/// `wsbench compare` reads: per workload and metric, one value per run.
#[derive(Default)]
pub struct Collected {
    meta: Option<Json>,
    /// Per workload, its metrics; both in first-seen order.
    workloads: Vec<(String, Vec<Series>)>,
}

/// One metric of one workload: a value per run.
struct Series {
    name: String,
    unit: String,
    values: Vec<f64>,
}

impl Collected {
    /// Adds one run's result file.
    pub fn add(&mut self, run: &Json) -> Result<(), String> {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run result without a workload")?;
        let metrics = run
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("run result without metrics")?;
        if self.meta.is_none() {
            self.meta = run.get("meta").cloned();
        }
        let at = match self.workloads.iter().position(|(w, _)| w == workload) {
            Some(at) => at,
            None => {
                self.workloads.push((workload.to_string(), Vec::new()));
                self.workloads.len() - 1
            }
        };
        let rows = &mut self.workloads[at].1;
        for (name, entry) in metrics {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload}/{name}: no numeric value"))?;
            let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
            match rows.iter_mut().find(|series| series.name == *name) {
                Some(series) => series.values.push(value),
                None => rows.push(Series {
                    name: name.clone(),
                    unit: unit.to_string(),
                    values: vec![value],
                }),
            }
        }
        Ok(())
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("meta", self.meta.clone().unwrap_or(Json::Null)),
            (
                "workloads",
                Json::Obj(
                    self.workloads
                        .iter()
                        .map(|(workload, rows)| {
                            (
                                workload.clone(),
                                Json::Obj(
                                    rows.iter()
                                        .map(|series| {
                                            let values =
                                                series.values.iter().map(|v| Json::Num(*v));
                                            (
                                                series.name.clone(),
                                                Json::obj([
                                                    ("unit", Json::str(series.unit.as_str())),
                                                    ("values", Json::Arr(values.collect())),
                                                ]),
                                            )
                                        })
                                        .collect(),
                                ),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Median of every metric over the runs, as printable lines.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (workload, rows) in &self.workloads {
            let _ = writeln!(out, "{workload}");
            let width = rows.iter().map(|s| s.name.len()).max().unwrap_or(0);
            for Series { name, unit, values } in rows {
                let _ = writeln!(
                    out,
                    "  {name:width$}  {:>14.4} {unit}  (median of {})",
                    median(values),
                    values.len()
                );
            }
        }
        out
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(values, n=4)` (the
/// method the benchmark's driver uses).  0 for fewer than two values, and
/// for values whose median is 0 (a share of nothing).
pub fn spread(values: &[f64]) -> f64 {
    let m = values.len();
    if m < 2 || median(values) == 0.0 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    ((quartile(3) - quartile(1)) / median(values)).abs()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the base by more than the bound.
    Regression,
    /// Run-to-run spread is wider than the bound, so a difference of the
    /// bound's size cannot be told from noise.
    Unresolved,
}

/// One `(workload, metric)` row of a comparison.
#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: &'static MetricDef,
    pub base: f64,
    pub new: f64,
    /// `new / base`; not a number when the base is 0.
    pub ratio: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

fn values_of(doc: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    doc.get("workloads")?
        .get(workload)?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// Compares every end-to-end metric of every workload both documents hold.
pub fn compare(base: &Json, new: &Json) -> Result<Vec<Row>, String> {
    let workloads = base
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("base result has no workloads")?;
    let mut rows = Vec::new();
    for (workload, _) in workloads {
        for def in &END_TO_END {
            let (Some(a), Some(b)) = (
                values_of(base, workload, def.name),
                values_of(new, workload, def.name),
            ) else {
                continue;
            };
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let (base_med, new_med) = (median(&a), median(&b));
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let worse = |x: f64, than: f64| match def.better {
                Higher => x < than,
                Lower => x > than,
            };
            let worse_by = match def.better {
                Higher => (base_med - new_med) / base_med,
                Lower => (new_med - base_med) / base_med,
            };
            let noise = spread(&a).max(spread(&b));
            let verdict = if def.name == "failed_share" {
                // Not a matter of degree: no run may fail more than the base.
                let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
                if max(&b) > max(&a) {
                    Verdict::Regression
                } else {
                    Verdict::Ok
                }
            } else if noise > bound {
                let all_better = b.iter().all(|&y| a.iter().all(|&x| !worse(y, x)));
                if all_better {
                    Verdict::Ok
                } else {
                    Verdict::Unresolved
                }
            } else if worse_by > bound {
                Verdict::Regression
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: def,
                base: base_med,
                new: new_med,
                ratio: new_med / base_med,
                spread: noise,
                verdict,
            });
        }
    }
    if rows.is_empty() {
        return Err("the two results share no workload and metric".to_string());
    }
    Ok(rows)
}

/// The comparison as printable lines; every ratio is given with its base.
pub fn render_comparison(rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<20} {:<16} {:>12} {:>12} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "base", "new", "ratio", "spread", "bound"
    );
    for row in rows {
        let verdict = match row.verdict {
            Verdict::Ok => "ok",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        };
        let ratio = if row.ratio.is_finite() {
            format!("{:.3}", row.ratio)
        } else {
            "-".to_string()
        };
        let _ = writeln!(
            out,
            "{:<20} {:<16} {:>12.4} {:>12.4} {ratio:>7} {:>6.1}% {:>5.0}%  {verdict} ({} is better, {})",
            row.workload,
            row.metric.name,
            row.base,
            row.new,
            row.spread * 100.0,
            row.metric.bound.unwrap_or(0.0) * 100.0,
            row.metric.better.as_str(),
            row.metric.unit,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(workload: &str, metric: &str, values: &[f64]) -> Json {
        let mut collected = Collected::default();
        for v in values {
            collected
                .add(&Json::obj([
                    ("workload", Json::str(workload)),
                    (
                        "metrics",
                        Json::obj([(
                            metric,
                            Json::obj([("value", Json::Num(*v)), ("unit", Json::str("x"))]),
                        )]),
                    ),
                ]))
                .unwrap();
        }
        // Through text, as `compare` reads it.
        Json::parse(&collected.to_json().to_string()).unwrap()
    }

    fn verdict(metric: &str, base: &[f64], new: &[f64]) -> Verdict {
        let rows = compare(&doc("w", metric, base), &doc("w", metric, new)).unwrap();
        assert_eq!(rows.len(), 1);
        rows[0].verdict
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) = [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&values) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11], n=4) = [10.0, 11.0, 12.0]
        assert!((spread(&[10.0, 12.0, 11.0]) - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn compare_applies_direction_and_bound() {
        let steady = [100.0, 101.0, 99.0];
        // 25% bound on throughput, higher is better.
        assert_eq!(
            verdict("throughput_kops", &steady, &[85.0, 86.0, 84.0]),
            Verdict::Ok
        );
        assert_eq!(
            verdict("throughput_kops", &steady, &[70.0, 71.0, 69.0]),
            Verdict::Regression
        );
        assert_eq!(
            verdict("throughput_kops", &steady, &[150.0, 151.0, 149.0]),
            Verdict::Ok
        );
        // Lower is better for latency.
        assert_eq!(
            verdict("req_p50_us", &steady, &[130.0, 131.0, 129.0]),
            Verdict::Regression
        );
        assert_eq!(
            verdict("req_p50_us", &steady, &[50.0, 51.0, 49.0]),
            Verdict::Ok
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = [100.0, 140.0, 70.0];
        assert_eq!(
            verdict("throughput_kops", &noisy, &[100.0, 101.0, 99.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict("throughput_kops", &noisy, &[150.0, 151.0, 149.0]),
            Verdict::Ok
        );
    }

    #[test]
    fn any_rise_of_failed_share_is_a_regression() {
        assert_eq!(
            verdict("failed_share", &[0.0, 0.0], &[0.0, 0.0]),
            Verdict::Ok
        );
        assert_eq!(
            verdict("failed_share", &[0.0, 0.0], &[0.0, 1e-9]),
            Verdict::Regression
        );
    }

    #[test]
    fn benchmark_json_declares_exactly_the_contract_metrics() {
        let text = include_str!("../../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared = doc.get(key).and_then(Json::as_arr).unwrap();
            let expected: Vec<&MetricDef> = defs.iter().filter(|d| d.contract).collect();
            assert_eq!(declared.len(), expected.len(), "{key}: count differs");
            for (entry, def) in declared.iter().zip(expected) {
                let field = |k: &str| entry.get(k).and_then(Json::as_str);
                assert_eq!(field("name"), Some(def.name));
                assert_eq!(field("unit"), Some(def.unit), "{}", def.name);
                assert_eq!(field("better"), Some(def.better.as_str()), "{}", def.name);
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::spec::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
    }
}
