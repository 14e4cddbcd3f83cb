//! Every metric the benchmark reports, with its unit and direction, in
//! report order — the same lists `BENCHMARK.json` declares — and the
//! result line.

/// One declared metric.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// Reported by `--trace 0`; every one is measured on every workload.
pub const END_TO_END: &[Def] = &[
    def("req_p50_ms", "ms", "lower"),
    def("req_p99_ms", "ms", "lower"),
    def("committed_rps", "1/s", "higher"),
    def("log_bytes_per_req", "B", "lower"),
    def("mttr_ms", "ms", "lower"),
    def("recovery_ms", "ms", "lower"),
    def("setup_s", "s", "lower"),
    def("peak_rss_mb", "MB", "lower"),
];

/// Reported by `--trace 1`; a layer a workload does not reach reads 0.
pub const PER_LAYER: &[Def] = &[
    def("base.committed", "count", "higher"),
    def("base.restarts", "count", "higher"),
    def("base.image_mb", "MB", "lower"),
    def("gen.late_p99_ms", "ms", "lower"),
    def("gen.backlog_end", "count", "lower"),
    def("gen.resends_per_req", "1/req", "lower"),
    def("gen.busy_per_req", "1/req", "lower"),
    def("gen.failed_frac", "frac", "lower"),
    def("net.msgs_per_req", "1/req", "lower"),
    def("net.dead_letter", "count", "lower"),
    def("core.execs_per_req", "1/req", "lower"),
    def("core.duplicates_per_req", "1/req", "lower"),
    def("core.worker_parks_per_req", "1/req", "lower"),
    def("core.busy_replies", "count", "lower"),
    def("svc.m1_p50_us", "us", "lower"),
    def("svc.m2_p50_us", "us", "lower"),
    def("svc.replay_p50_us", "us", "lower"),
    def("svc.dispatch_wait_p50_us", "us", "lower"),
    def("svc.commit_wait_p50_us", "us", "lower"),
    def("flush.distributed_per_req", "1/req", "lower"),
    def("flush.rpcs_elided_frac", "frac", "higher"),
    def("flush.tickets_per_req", "1/req", "lower"),
    def("ckpt.msp", "count", "lower"),
    def("ckpt.session_per_1k_req", "1/kreq", "lower"),
    def("ckpt.truncations", "count", "higher"),
    def("ckpt.reclaimed_mb", "MB", "higher"),
    def("wal.appends_per_req", "1/req", "lower"),
    def("wal.flushes_per_req", "1/req", "lower"),
    def("wal.sectors_per_flush", "sectors", "higher"),
    def("wal.padding_frac", "frac", "lower"),
    def("wal.group_commit_frac", "frac", "higher"),
    def("disk.writes_per_req", "1/req", "lower"),
    def("disk.write_us_p50", "us", "lower"),
    def("disk.model_ms_per_req", "ms", "lower"),
    def("disk.read_bytes", "B", "lower"),
    def("disk.read_amp", "frac", "lower"),
    def("disk.read_model_ms", "ms", "lower"),
    def("pool.hit_rate", "frac", "higher"),
    def("pool.misses", "count", "lower"),
    def("pool.evictions", "count", "lower"),
    def("pool.prefetch_useful_frac", "frac", "higher"),
    def("rec.open_ms", "ms", "lower"),
    def("rec.analysis_ms", "ms", "lower"),
    def("rec.checkpoint_ms", "ms", "lower"),
    def("rec.first_wait_ms", "ms", "lower"),
    def("rec.replay_ms", "ms", "lower"),
    def("rec.sessions_replayed", "count", "lower"),
    def("rec.replayed_requests", "count", "lower"),
    def("proc.cpu_us_per_req", "us", "lower"),
    def("trace.spans", "count", "lower"),
    def("trace.overhead_frac", "frac", "lower"),
];

/// Measured values by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

fn json_number(v: f64) -> String {
    // JSON has no infinity: a percentile pushed there by failed requests
    // is reported as the largest finite number, still over any limit.
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

/// A human-readable table of `got`, for stderr.
pub fn table(got: &Metrics, defs: &[Def]) -> String {
    defs.iter()
        .filter_map(|d| {
            got.get(d.name).map(|v| {
                format!(
                    "{:>28} {v:>16.4} {:<8} ({} is better)\n",
                    d.name, d.unit, d.better
                )
            })
        })
        .collect()
}

/// The result line: `got` in the order of `defs`. A declared metric that
/// was not measured reads 0 when `fill` is set (a layer the workload does
/// not reach) and is an error otherwise; an undeclared one is an error.
pub fn result_line(
    attempted: u64,
    failed: u64,
    got: &Metrics,
    defs: &[Def],
    fill: bool,
) -> Result<String, String> {
    if let Some((name, _)) = got
        .0
        .iter()
        .find(|(n, _)| !defs.iter().any(|d| d.name == *n))
    {
        return Err(format!("metric {name} is not declared"));
    }
    let mut fields = Vec::new();
    for d in defs {
        let value = match (got.get(d.name), fill) {
            (Some(v), _) => v,
            (None, true) => 0.0,
            (None, false) => return Err(format!("metric {} was not measured", d.name)),
        };
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            json_number(value),
            d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let declared = json.matches("\"better\"").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_line_orders_fills_and_rejects() {
        let defs = [def("a", "ms", "lower"), def("b", "s", "lower")];
        let mut m = Metrics::default();
        m.put("b", 2.5);
        assert!(result_line(1, 0, &m, &defs, false).is_err());
        let line = result_line(3, 1, &m, &defs, true).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"a\": {\"value\": 0, \"unit\": \"ms\"}, \"b\": {\"value\": 2.5, \"unit\": \"s\"}}}"
        );
        m.put("c", f64::INFINITY);
        assert!(result_line(3, 1, &m, &defs, true).is_err());
        assert_eq!(json_number(f64::INFINITY), format!("{}", f64::MAX));
    }
}
