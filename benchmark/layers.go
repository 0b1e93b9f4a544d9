package main

// spanMetrics are the per-layer times: each is the median duration of the
// spans of one name, which the workloads record around one public function of
// the layer (see the table in README.md).
var spanMetrics = []struct {
	metric, span, unit string
	perNS              float64 // unit per nanosecond
}{
	{"parser.parse_us", "parser.parse", "us", 1e-3},
	{"classify.swr_ms", "classify.swr", "ms", 1e-6},
	{"classify.wr_ms", "classify.wr", "ms", 1e-6},
	{"classify.total_ms", "classify.total", "ms", 1e-6},
	{"rewrite.rewrite_ms", "rewrite.rewrite", "ms", 1e-6},
	{"eval.plan_us", "eval.plan", "us", 1e-3},
	{"eval.exec_ms", "eval.exec", "ms", 1e-6},
	{"chase.run_ms", "chase.run", "ms", 1e-6},
	{"chase.extend_ms", "chase.extend", "ms", 1e-6},
	{"chase.delete_ms", "chase.delete", "ms", 1e-6},
	{"storage.load_ms", "storage.load", "ms", 1e-6},
	{"storage.clone_ms", "storage.clone", "ms", 1e-6},
	{"storage.cow_insert_ms", "storage.cow_insert", "ms", 1e-6},
	{"rescache.warm_answer_us", "rescache.warm_answer", "us", 1e-3},
	{"ontology.answer_nocache_ms", "ontology.answer_nocache", "ms", 1e-6},
	{"ontology.addfact_ms", "ontology.addfact", "ms", 1e-6},
	{"ontology.deletefact_ms", "ontology.deletefact", "ms", 1e-6},
	{"server.roundtrip_us", "server.roundtrip", "us", 1e-3},
	{"server.handler_us", "server.handler", "us", 1e-3},
}

// countMetrics are the per-layer counts, read where the work happens. A count
// recorded several times in a run is reported as its median, a share as its
// mean.
var countMetrics = []struct {
	metric, unit string
	mean         bool
}{
	{"rewrite.cqs_out", "count", false},
	{"rewrite.complete_share", "ratio", true},
	{"eval.answers", "count", false},
	{"chase.steps", "count", false},
	{"chase.rounds", "count", false},
	{"chase.nulls", "count", false},
	{"chase.facts_out", "count", false},
	{"rescache.hit_ratio", "ratio", true},
	{"rescache.evictions", "count", false},
	{"rescache.maintained", "count", false},
	{"rescache.budget_bytes", "B", false},
	{"ontology.full_rebuilds", "count", false},
}

// layerMetrics turns a traced phase into the per-layer metrics. A metric whose
// layer the workload never enters is reported as 0.
func layerMetrics(rec *recorder, plain, traced *phase) []metric {
	var ms []metric
	for _, m := range spanMetrics {
		ms = append(ms, metric{m.metric, m.unit, median(rec.durations(m.span)) * m.perNS, "layer"})
	}
	for _, m := range countMetrics {
		vs := rec.counts[m.metric]
		v := median(vs)
		if m.mean && len(vs) > 0 {
			v = 0
			for _, x := range vs {
				v += x
			}
			v /= float64(len(vs))
		}
		ms = append(ms, metric{m.metric, m.unit, v, "layer"})
	}
	shares, explained := layerShares(rec.spans)
	for _, l := range layers {
		ms = append(ms, metric{"share." + l, "ratio", shares[l], "layer"})
	}
	ms = append(ms, metric{"explained_share", "ratio", explained, "layer"})
	overhead := 0.0
	if base := plain.p50(0); base > 0 {
		overhead = traced.p50(0)/base - 1
	}
	return append(ms, metric{"trace_overhead_share", "ratio", overhead, "layer"})
}
