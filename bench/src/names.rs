//! Every metric the benchmark reports, as `(name, unit, better)`; the
//! same rows, in the same order, as `BENCHMARK.json` at the repo root.

pub const END_TO_END: [(&str, &str, &str); 9] = [
    ("predictions_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("cpu_s_per_prediction", "s", "lower"),
    ("wire_bytes_per_prediction", "bytes", "lower"),
    ("online_bytes_per_prediction", "bytes", "lower"),
    ("frames_per_prediction", "count", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
];

pub const PER_LAYER: [(&str, &str, &str); 65] = [
    ("crypto.aes_mblk_per_s", "Mblk/s", "higher"),
    ("crypto.mmo_mblk_per_s", "Mblk/s", "higher"),
    ("crypto.prg_mblk_per_s", "Mblk/s", "higher"),
    ("crypto.curve_scalar_mul_us", "us", "lower"),
    ("math.matmul_128x784x8_us", "us", "lower"),
    ("nn.fig4_forward_exact_us", "us", "lower"),
    ("ot.base_setup_ms", "ms", "lower"),
    ("ot.iknp_ns_per_cot", "ns", "lower"),
    ("ot.iknp_bytes_per_cot", "bytes", "lower"),
    ("ot.kk13_ns_per_ot", "ns", "lower"),
    ("ot.kk13_bytes_per_ot", "bytes", "lower"),
    ("ot.silent_ns_per_cot", "ns", "lower"),
    ("ot.silent_bytes_per_cot", "bytes", "lower"),
    ("ot.transpose_8192_us_t1", "us", "lower"),
    ("ot.transpose_8192_us_t2", "us", "lower"),
    ("gc.relu_circuit_build_us", "us", "lower"),
    ("gc.relu_ands_per_elem", "count", "lower"),
    ("gc.garble_ns_per_and", "ns", "lower"),
    ("gc.eval_ns_per_and", "ns", "lower"),
    ("gc.yao_relu128_ms", "ms", "lower"),
    ("gc.yao_relu128_bytes", "bytes", "lower"),
    ("gc.softmax_ands", "count", "lower"),
    ("gc.gelu_ands", "count", "lower"),
    ("gc.layernorm_ands", "count", "lower"),
    ("core.triplet_128x128_o1_iknp_ms", "ms", "lower"),
    ("core.triplet_128x128_o1_iknp_bytes", "bytes", "lower"),
    ("core.triplet_128x128_o1_silent_ms", "ms", "lower"),
    ("core.triplet_128x128_o1_silent_bytes", "bytes", "lower"),
    ("core.triplet_128x128_o8_iknp_ms", "ms", "lower"),
    ("core.triplet_128x128_o8_iknp_bytes", "bytes", "lower"),
    ("core.triplet_t2_speedup", "ratio", "higher"),
    ("core.relu128_ms", "ms", "lower"),
    ("core.softmax_8x8_ms", "ms", "lower"),
    ("core.gelu_128_ms", "ms", "lower"),
    ("core.layernorm_8x8_ms", "ms", "lower"),
    ("core.matbeaver_8x8x8_gen_ms", "ms", "lower"),
    ("core.dealer_bundle_fig4_ms", "ms", "lower"),
    ("core.driver_suspensions_slim_cold", "count", "lower"),
    ("core.driver_overhead_ratio", "ratio", "lower"),
    ("net.tcp_rtt_us", "us", "lower"),
    ("net.tcp_mb_per_s", "MB/s", "higher"),
    ("net.pump_mb_per_s", "MB/s", "higher"),
    ("serve.pool_hit_ratio", "ratio", "higher"),
    ("serve.attempts_per_prediction", "ratio", "lower"),
    ("serve.sessions_failed", "count", "lower"),
    ("serve.sessions_evicted", "count", "lower"),
    ("serve.worker_respawns", "count", "lower"),
    ("serve.start_ms", "ms", "lower"),
    ("serve.pool_fill_ms_per_bundle", "ms", "lower"),
    ("serve.overhead_ms", "ms", "lower"),
    ("host.calib_ms_median", "ms", "lower"),
    ("host.calib_ms_iqr", "ms", "lower"),
    ("host.raw_latency_p50_ms", "ms", "lower"),
    ("host.nproc", "count", "higher"),
    ("trace.setup_ms", "ms", "lower"),
    ("trace.handshake_ms", "ms", "lower"),
    ("trace.bundle_ms", "ms", "lower"),
    ("trace.offline_ms", "ms", "lower"),
    ("trace.online_ms", "ms", "lower"),
    ("trace.online_gc_ms", "ms", "lower"),
    ("trace.online_linear_ms", "ms", "lower"),
    ("trace.self_ms", "ms", "lower"),
    ("trace.offline_bytes", "bytes", "lower"),
    ("trace.online_gc_bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{result_line, strings_in_section, valid_name, Metrics};

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn declared(section: &str, key: &str) -> Vec<String> {
        strings_in_section(BENCHMARK_JSON, section, key)
    }

    #[test]
    fn the_tables_here_are_the_ones_benchmark_json_declares() {
        for (section, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let column =
                |i: usize| -> Vec<&str> { table.iter().map(|m| [m.0, m.1, m.2][i]).collect() };
            assert_eq!(declared(section, "name"), column(0), "{section} names");
            assert_eq!(declared(section, "unit"), column(1), "{section} units");
            assert_eq!(declared(section, "better"), column(2), "{section} directions");
        }
        assert_eq!(declared("workloads", "name"), crate::workloads::NAMES);
        assert!(BENCHMARK_JSON.contains(&format!("\"run_seconds\": {}", crate::DEFAULT_SECONDS)));
    }

    #[test]
    fn every_declared_name_survives_the_emitter() {
        let names: Vec<String> = declared("end_to_end", "name")
            .into_iter()
            .chain(declared("per_layer", "name"))
            .collect();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        let mut metrics = Metrics::default();
        for (i, name) in names.iter().enumerate() {
            assert!(valid_name(name), "{name}");
            metrics.put(name, i as f64 + 0.5, "ms");
        }
        let line = result_line(true, names.len() as u64, 0, &metrics);
        let read_back: Vec<String> = names
            .iter()
            .filter(|name| line.contains(&format!("\"{name}\": {{\"value\": ")))
            .cloned()
            .collect();
        assert_eq!(read_back, names);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 74, \"failed\": 0, "));
    }
}
