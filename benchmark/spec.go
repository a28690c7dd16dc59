package main

// metricSpec is a metric as BENCHMARK.json declares it.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics an untraced run reports: what a user of the
// simulator waits for and gets.
var endToEnd = []metricSpec{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"sim_msegs_per_s", "Mseg/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"paper_err_pct", "%"},
}

// perLayer are the metrics a traced run reports on its result line: those
// of every layer that works on every workload. A traced run also prints,
// for reading only, host time for each layer on its own (see hostLayers),
// causal "other" time, which the profiler leaves empty, and host time of
// layers only some workloads exercise; a metric that reads zero on every
// run of a workload tells a later change nothing.
var perLayer = []metricSpec{
	{"sim.events_per_seg", "1/seg"},
	{"sim.heap_ops_per_seg", "1/seg"},
	{"sim.coalesced_frac", "ratio"},
	{"sim.inlined_frac", "ratio"},
	{"sim.peak_heap", "count"},
	{"path.gro_factor", "ratio"},
	{"kcpu.busy_pct", "%"},
	{"kcpu.stddev_pp", "pp"},
	{"nic.ring_drops_per_kseg", "1/kseg"},
	{"core.ooo_skbs_per_kseg", "1/kseg"},
	{"proto.retransmits_per_kseg", "1/kseg"},
	{"core.holes_released", "count"},
	{"overload.adm_drops_per_kseg", "1/kseg"},
	{"overload.aqm_drops_per_kseg", "1/kseg"},
	{"fabric.underlay_drop_frac", "ratio"},
	{"causal.ring_wait_us", "sim_us"},
	{"causal.queue_us", "sim_us"},
	{"causal.service_us", "sim_us"},
	{"causal.handoff_us", "sim_us"},
	{"causal.gro_hold_us", "sim_us"},
	{"causal.reorder_wait_us", "sim_us"},
	{"causal.sock_wait_us", "sim_us"},
	{"causal.copy_us", "sim_us"},
	{"causal.violations", "count"},
	{"host.sim_sched_ns_per_seg", "ns/seg"},
	{"host.sim_core_ns_per_seg", "ns/seg"},
	{"host.sim_worker_ns_per_seg", "ns/seg"},
	{"host.overlay_ns_per_seg", "ns/seg"},
	{"host.traffic_ns_per_seg", "ns/seg"},
	{"host.skb_ns_per_seg", "ns/seg"},
	{"host.stack_ns_per_seg", "ns/seg"},
	{"host.runtime_gc_ns_per_seg", "ns/seg"},
	{"host.runtime_malloc_ns_per_seg", "ns/seg"},
	{"runtime.alloc_bytes_per_seg", "B/seg"},
	{"runtime.mallocs_per_seg", "1/seg"},
	{"runtime.gc_cycles", "count"},
	{"harness.busy_frac", "ratio"},
	{"trace.overhead_pct", "%"},
}
