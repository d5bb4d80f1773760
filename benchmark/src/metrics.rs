//! The metric tables of `BENCHMARK.json`: every name the benchmark
//! prints, with its unit. `tests/contract.rs` keeps the file and these
//! tables identical.

/// End-to-end metrics (untraced run), all reported on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ttis_per_s", "1/s"),
    ("tti_us_p50", "us"),
    ("tti_us_p99w", "us"),
    ("peak_rss_mb", "MB"),
    ("sim_goodput_mbps", "Mb/s"),
];

/// Per-layer metrics (traced run). A metric a workload does not exercise
/// reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Spans of the harness workloads: mean µs per TTI unless named.
    ("core.front_us", "us"),
    ("core.phase_a_us", "us"),
    ("core.coupling_us", "us"),
    ("core.phase_b_us", "us"),
    ("core.merge_us", "us"),
    ("core.unattributed_us", "us"),
    ("core.step_us_p999", "us"),
    ("core.over_budget_ttis", "count"),
    ("core.allocs_per_tti", "count"),
    // fleet_events stepped with `workers = Some(2)`, and that over serial.
    ("core.par_tti_us_p50", "us"),
    ("core.par_slowdown", "ratio"),
    ("controller.cycle_us_p50", "us"),
    ("controller.cycle_us_p99", "us"),
    ("controller.rib_slot_us", "us"),
    ("controller.apps_slot_us", "us"),
    // Spans of tcp_loop: self time, mean µs per TTI.
    ("agent.phase_a_us", "us"),
    ("agent.phase_b_us", "us"),
    ("controller.begin_us", "us"),
    ("controller.finish_us", "us"),
    ("proto.tcp_send_us", "us"),
    ("proto.tcp_recv_us", "us"),
    ("proto.tcp_sends_per_tti", "count"),
    ("proto.tcp_recv_calls_per_tti", "count"),
    ("proto.tcp_empty_polls_per_tti", "count"),
    ("proto.tcp_deferred_cmds", "count"),
    // Control loop over real TCP (tcp_loop only).
    ("ctrl_loop_us_p50", "us"),
    ("ctrl_loop_us_p99w", "us"),
    // Exact counts.
    ("proto.ctrl_bytes_per_tti", "B"),
    ("proto.up_msgs_per_tti", "count"),
    ("proto.down_msgs_per_tti", "count"),
    ("proto.stats_bytes_per_tti", "B"),
    ("proto.cmd_bytes_per_tti", "B"),
    ("proto.event_bytes_per_tti", "B"),
    ("agent.rx_msgs", "count"),
    ("agent.command_errors", "count"),
    ("agent.transport_errors", "count"),
    ("controller.rib_ues", "count"),
    ("controller.journal_bytes", "B"),
    ("controller.journal_compactions", "count"),
    ("controller.xshard_handovers", "count"),
    ("controller.conflicts", "count"),
    ("stack.harq_retx_ratio", "ratio"),
    ("stack.handovers", "count"),
    // Replay probes: median ns of one call of the layer's public function.
    ("proto.encode_stats_ns", "ns"),
    ("proto.decode_stats_ns", "ns"),
    ("proto.encode_cmd_ns", "ns"),
    ("proto.decode_cmd_ns", "ns"),
    ("proto.frame_ns", "ns"),
    ("agent.compose_reply_ns", "ns"),
    ("controller.rib_apply_ns", "ns"),
    ("controller.journal_delta_ns", "ns"),
    ("controller.journal_compact_ns", "ns"),
    ("sim.link_xfer_ns", "ns"),
    ("stack.sched_input_ns", "ns"),
    ("stack.sched_rr_ns", "ns"),
    ("stack.sched_pf_ns", "ns"),
    ("stack.vanilla_tti_us", "us"),
    ("agent.overhead_us", "us"),
    ("phy.channel_step_ns", "ns"),
    ("phy.link_adapt_ns", "ns"),
    ("sim.traffic_ns", "ns"),
    ("types.budget_record_ns", "ns"),
    ("trace.overhead_pct", "%"),
];

/// Named values of one run.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the contract tables"
        );
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` for every metric of
    /// `table`, in table order.
    pub fn to_json(&self, table: &[(&str, &str)]) -> String {
        let mut s = String::from("{");
        for (i, (name, unit)) in table.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let v = self.get(name);
            let v = if v.is_finite() { v } else { 0.0 };
            s.push_str(&format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        s.push('}');
        s
    }
}
