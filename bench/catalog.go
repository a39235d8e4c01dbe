package main

// The catalogue of workloads and metrics. BENCHMARK.json at the repo root
// declares exactly these names (a test compares the two), so a metric is
// added or renamed in both places or not at all.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func (m metricDef) higherIsBetter() bool { return m.Better == "higher" }

var workloads = []workloadDef{
	{"ensemble_paper", "Paper configuration (heat grid 32, MLP 256x256, Reservoir 6000/1000, 1 rank): opt/nn/tensor do most of the work and clients are back-pressured, so a compute-side change must show here."},
	{"ensemble_2rank", "Same ensemble on 2 in-process ranks: adds the ddp all-reduce of a 330k-float gradient and per-rank buffers to every step, so a collective or sync change must not regress here."},
	{"stream_ingest", "O(n) replay solver, FIFO buffer and a 9k-parameter model: client, protocol, transport, server dedup and buffer put/get do the work, nn/opt almost none; the buffer is used put-once/get-once."},
	{"serve_lone", "One closed-loop connection with unique queries against melissa-serve defaults: the latency floor, where a lone caller pays the batch wait and a full max-batch forward for one row."},
	{"serve_batched", "Two connections with 16 requests in flight each, a quarter from a 512-key hot set: saturation, with fused forwards, replica pool, outbox writers and cache hit and miss paths all busy."},
}

// endToEnd are the metrics a user of the system sees; every workload
// reports every one. An operation is a sample trained on the ensemble
// workloads and a request answered on the serve workloads.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run. A metric that
// does not apply to a workload is printed as n/a in the tables and carried
// as 0 in the machine-readable line, which must name every metric.
var perLayer = []metricDef{
	// Counts every run produces for free.
	{"launcher.ensemble_wall_s", "s", "lower", 0},
	{"launcher.client_restarts", "count", "lower", 0},
	{"server.unique_samples", "count", "higher", 0},
	{"core.batches", "count", "lower", 0},
	{"buffer.mean_occurrence", "ratio", "lower", 0},
	{"core.final_val_mse", "mse", "lower", 0},
	{"core.first_batch_s", "s", "lower", 0},
	{"core.batch_period_us_p50", "us", "lower", 0},
	{"core.batch_period_us_p99", "us", "lower", 0},
	{"harness.cpu_s_per_kop", "s", "lower", 0},
	{"harness.cpu_cores_used", "cores", "lower", 0},
	{"serve.latency_p50_us", "us", "lower", 0},
	{"serve.latency_p99_us", "us", "lower", 0},
	{"serve.mean_batch_rows", "rows", "higher", 0},
	{"serve.cache_hit_ratio", "ratio", "higher", 0},
	{"serve.shed", "count", "lower", 0},
	{"serve.deadline_expired", "count", "lower", 0},
	{"serve.slow_clients", "count", "lower", 0},
	// Traced live run: spans recorded at the Problem/Simulator/Normalizer seam.
	{"solver.step_us", "us", "lower", 0},
	{"solver.busy_share", "ratio", "higher", 0},
	{"client.send_stall_us", "us", "lower", 0},
	{"client.stall_share", "ratio", "lower", 0},
	{"server.tail_s", "s", "lower", 0},
	{"harness.trace_overhead_share", "ratio", "lower", 0},
	// Staged replay: the pipeline's public functions called in order.
	{"protocol.encode_us", "us", "lower", 0},
	{"protocol.decode_us", "us", "lower", 0},
	{"protocol.frame_bytes", "B", "lower", 0},
	{"transport.frame_us", "us", "lower", 0},
	{"buffer.put_us", "us", "lower", 0},
	{"buffer.get_batch_us", "us", "lower", 0},
	{"core.build_batch_us", "us", "lower", 0},
	{"nn.forward_us", "us", "lower", 0},
	{"nn.loss_us", "us", "lower", 0},
	{"nn.backward_us", "us", "lower", 0},
	{"tensor.gemm_gflops", "GFLOP/s", "higher", 0},
	{"opt.adam_us", "us", "lower", 0},
	{"opt.adam_us_first100", "us", "lower", 0},
	{"opt.adam_us_last100", "us", "lower", 0},
	{"ddp.chan_allreduce_us", "us", "lower", 0},
	{"ddp.tcp_allreduce_us", "us", "lower", 0},
	{"ddp.hier_allreduce_us", "us", "lower", 0},
	{"ddp.wire_bytes_per_step", "B", "lower", 0},
	{"core.validate_us", "us", "lower", 0},
	{"core.capture_state_us", "us", "lower", 0},
	{"melissa.publish_us", "us", "lower", 0},
	{"melissa.checkpoint_bytes", "B", "lower", 0},
	{"staged.step_us", "us", "lower", 0},
	{"harness.unaccounted_share", "ratio", "lower", 0},
	// Serve side.
	{"replica.forward_us_1row", "us", "lower", 0},
	{"replica.forward_us_maxbatch", "us", "lower", 0},
	{"protocol.predict_encode_us", "us", "lower", 0},
	{"protocol.predict_decode_us", "us", "lower", 0},
	{"protocol.response_bytes", "B", "lower", 0},
	{"transport.loopback_rtt_us", "us", "lower", 0},
	{"melissa.load_surrogate_ms", "ms", "lower", 0},
	{"serve.residual_us_p50", "us", "lower", 0},
}
