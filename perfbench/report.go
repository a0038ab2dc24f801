package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/pagefile"
)

// metric is one named figure of the report.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int // the number of measurements behind the value
}

// report is one run's outcome: the metrics printed as the JSON result and
// the table, plus the oracle's verdict.
type report struct {
	Correct           bool
	Attempted, Failed int
	table             []metric // every metric of the run, in print order
	notes             []string
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (rep *report) result() jsonResult {
	out := jsonResult{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]jsonMetric{}}
	for _, m := range rep.table {
		if m.name != "wrong_answers" && m.name != "error_rate" {
			out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	return out
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// per divides, returning 0 for an empty base.
func per(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return x / base
}

// newReport derives the run's metrics: end-to-end ones from b alone when
// there are no untraced phases a, per-layer ones from the traced phase b,
// compared against the untraced phases a, otherwise.
func newReport(r *runner, a []*phaseResult, b *phaseResult, invErr error) *report {
	rec := b.rec
	rep := &report{Attempted: rec.attempted, Failed: rec.failed}
	for _, ph := range a {
		rep.Attempted += ph.rec.attempted
		rep.Failed += ph.rec.failed
	}
	add := func(name, unit string, v float64, n int) {
		rep.table = append(rep.table, metric{name, unit, v, n})
	}
	tail := r.p.TailPercentile
	if len(a) == 0 {
		q, w := rec.queries(), rec.writes()
		readQPS := per(float64(q), b.readWall.Seconds())
		writeOPS := per(float64(w), b.writeWall.Seconds())
		setups := append([]time.Duration(nil), r.setups...)
		sort.Slice(setups, func(i, j int) bool { return setups[i] < setups[j] })
		add("setup_s", "s", setups[len(setups)/2].Seconds(), len(setups))
		add("read_qps", "1/s", readQPS, q)
		p50 := func(name string, lat []time.Duration) {
			v, _ := percentile(lat, 50)
			add(name+"_p50_ms", "ms", v, len(lat))
		}
		tailOf := func(name string, lat []time.Duration) {
			v, above := percentile(lat, tail)
			add(name+"_tail_ms", "ms", v, len(lat))
			if above < 10 {
				rep.notes = append(rep.notes, fmt.Sprintf("warning: %s p%d has only %d samples above it", name, tail, above))
			}
		}
		p50("range", rec.rangeLat)
		tailOf("range", rec.rangeLat)
		p50("nn", rec.nnLat)
		tailOf("nn", rec.nnLat)
		add("write_ops_s", "1/s", writeOPS, w)
		// Inserts take milliseconds and deletes tens of microseconds, so a
		// median over both would sit on the seam between the two; each
		// kind gets its own, and the tail is over all writes.
		p50("insert", rec.insertLat)
		p50("delete", rec.deleteLat)
		tailOf("write", append(append([]time.Duration(nil), rec.insertLat...), rec.deleteLat...))
		ops := q + w
		d := b.use.mem
		add("allocs_per_op", "count", per(float64(d.mallocs), float64(ops)), ops)
		add("bytes_per_op", "B", per(float64(d.bytes), float64(ops)), ops)
		add("heap_live_mb", "MB", float64(r.heapLive)/(1<<20), 1)
		add("space_bytes_per_obj", "B", per(float64(r.space), float64(r.spaceLive)), r.spaceLive)
	} else {
		rep.layerMetrics(r, a, b, add)
	}

	rep.Correct = r.wrong == 0 && invErr == nil
	add("wrong_answers", "count", float64(r.wrong), r.checked)
	attempted := rep.Attempted
	add("error_rate", "ratio", per(float64(rep.Failed), float64(attempted)), attempted)
	rep.notes = append(rep.notes, fmt.Sprintf("tail percentile p%d; oracle checked %d answers, %d wrong", tail, r.checked, r.wrong))
	for _, why := range r.wrongWhy {
		rep.notes = append(rep.notes, "wrong answer: "+why)
	}
	if invErr != nil {
		rep.notes = append(rep.notes, "invariant check failed: "+invErr.Error())
	}
	for _, ph := range append(a, b) {
		if ph.rec.failed > 0 {
			rep.notes = append(rep.notes, fmt.Sprintf("%d operations failed: %v", ph.rec.failed, ph.rec.err()))
		}
	}
	return rep
}

// layerMetrics adds the per-layer metrics of the traced phase b.
func (rep *report) layerMetrics(r *runner, a []*phaseResult, b *phaseResult, add func(string, string, float64, int)) {
	rec := b.rec
	rs, ns := rec.rangeStats, rec.nnStats
	nr, nn := len(rec.rangeLat), len(rec.nnLat)
	q, w := rec.queries(), rec.writes()
	ops := q + w

	// Engine and shards.
	add("engine.queue_ms_per_q", "ms", per(ms(b.self["op/range"]+b.self["op/nn"]), float64(q)), q)
	add("shard.pruned_per_q", "count", per(float64(rs.ShardsPruned+ns.ShardsPruned), float64(q)), q)

	// Descent and filter.
	add("core.node_accesses_per_q", "count", per(float64(rs.NodeAccesses), float64(nr)), nr)
	add("core.leaf_accesses_per_q", "count", per(float64(rs.LeafAccesses), float64(nr)), nr)
	add("core.candidates_per_q", "count", per(float64(rs.Candidates), float64(nr)), nr)
	add("core.validated_frac", "ratio", per(float64(rs.Validated), float64(rs.Results)), rs.Results)
	add("core.filter_ms_per_q", "ms", per(ms(rs.FilterTime), float64(nr)), nr)
	add("core.probfilter_pruned_per_q", "count", per(float64(rs.ProbFilterPruned), float64(nr)), nr)

	// Refinement.
	add("core.prob_comps_per_q", "count", per(float64(rs.ProbComputations), float64(nr)), nr)
	add("core.refine_useful_frac", "ratio", per(float64(rs.Results-rs.Validated), float64(rs.ProbComputations)), rs.ProbComputations)
	add("core.refine_ms_per_q", "ms", per(ms(rs.RefineTime), float64(nr)), nr)
	add("core.refine_ios_per_q", "count", per(float64(rs.RefinementIOs), float64(nr)), nr)

	// Nearest neighbours.
	add("core.nn_distance_comps_per_q", "count", per(float64(ns.DistanceComps), float64(nn)), nn)
	add("core.nn_node_accesses_per_q", "count", per(float64(ns.NodeAccesses), float64(nn)), nn)

	// Caches and prefetch, over the read part of the phase.
	c := b.readCaches
	nodeHits, nodeMisses, poolHits, poolMisses := c.nodeHits, c.nodeMisses, c.poolHits, c.poolMisses
	add("nodecache.hit_rate", "ratio", per(float64(nodeHits), float64(nodeHits+nodeMisses)), int(nodeHits+nodeMisses))
	add("pool.hit_rate", "ratio", per(float64(poolHits), float64(poolHits+poolMisses)), int(poolHits+poolMisses))
	add("pool.misses_per_q", "count", per(float64(poolMisses), float64(q)), q)
	issued := rs.PrefetchIssued + ns.PrefetchIssued
	add("prefetch.issued_per_q", "count", per(float64(issued), float64(q)), q)
	add("prefetch.coalesced_per_q", "count", per(float64(rs.PrefetchCoalesced+ns.PrefetchCoalesced), float64(q)), q)
	add("prefetch.wasted_frac", "ratio", per(float64(rs.PrefetchWasted+ns.PrefetchWasted), float64(issued)), issued)

	// Base store, over the phase's timed sections.
	st := b.use.store
	reads, writes := st.reads, st.writes
	add("store.reads_per_op", "count", per(float64(reads), float64(ops)), ops)
	add("store.read_ms_per_op", "ms", per(ms(time.Duration(st.readNS)), float64(ops)), ops)
	add("store.writes_per_write", "count", per(float64(writes), float64(w)), w)
	add("store.write_ms_per_write", "ms", per(ms(time.Duration(st.writeNS)), float64(w)), w)
	add("store.bytes_written_per_user_byte", "ratio", per(float64(writes*pagefile.PageSize), float64(rec.userBytes)), len(rec.insertLat))

	// Versioning, reclaim and health.
	add("gc.reclaimed_pages_per_write", "count", per(float64(b.use.reclaimed), float64(w)), w)
	add("gc.pending_pages_end", "count", float64(b.pendingEnd), 1)
	add("health.retries", "count", float64(b.use.retries), ops)

	// Write path, split from outside.
	insertP50, _ := percentile(rec.insertLat, 50)
	commitP50, _ := percentile(rec.commitLat, 50)
	otherP50, _ := percentile(rec.otherLat, 50)
	add("pcr.fit_us_per_obj", "us", b.fitUS, min(len(rec.insertLat), fitSample))
	add("index.insert_other_us", "us", insertP50*1000-b.fitUS, len(rec.insertLat))
	add("index.commit_op_ms", "ms", commitP50, len(rec.commitLat))
	add("index.noncommit_op_ms", "ms", otherP50, len(rec.otherLat))

	// Go runtime and process.
	d := b.use.mem
	add("proc.cpu_util", "ratio", per(b.use.cpu.Seconds(), b.use.wall.Seconds()*float64(runtime.NumCPU())), 1)
	add("runtime.gc_cycles_per_kop", "count", per(1000*float64(d.gcs), float64(ops)), ops)
	add("runtime.gc_pause_ms", "ms", ms(time.Duration(d.pauseNS)), int(d.gcs))

	// Self time per span layer, and what tracing cost. Store time left
	// unattributed is also inside the self time of the index calls that
	// overlapped it.
	for _, layer := range []string{layerOp, layerIndex, layerStore} {
		add("self."+layer+"_ms_per_op", "ms", per(ms(b.self[layer]), float64(ops)), ops)
	}
	add("trace.store_unattributed_frac", "ratio", b.unattributed, 1)
	var aq, aw int
	var aRead, aWrite time.Duration
	for _, ph := range a {
		aq, aw = aq+ph.rec.queries(), aw+ph.rec.writes()
		aRead, aWrite = aRead+ph.readWall, aWrite+ph.writeWall
	}
	add("trace.read_qps_ratio", "ratio", per(per(float64(q), b.readWall.Seconds()), per(float64(aq), aRead.Seconds())), q)
	add("trace.write_ops_ratio", "ratio", per(per(float64(w), b.writeWall.Seconds()), per(float64(aw), aWrite.Seconds())), w)
	if b.spansDropped > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("warning: %d spans dropped over the in-memory cap", b.spansDropped))
	}
	var layers []string
	for k, v := range b.self {
		if strings.Contains(k, "/") {
			layers = append(layers, fmt.Sprintf("%s=%.1fms", k, ms(v)))
		}
	}
	sort.Strings(layers)
	rep.notes = append(rep.notes, "self time by span: "+strings.Join(layers, " "))
}

// memDelta is the change in the runtime's allocation counters.
type memDelta struct {
	mallocs, bytes, gcs, pauseNS uint64
}

func delta(m0, m1 runtime.MemStats) memDelta {
	return memDelta{
		mallocs: m1.Mallocs - m0.Mallocs,
		bytes:   m1.TotalAlloc - m0.TotalAlloc,
		gcs:     uint64(m1.NumGC - m0.NumGC),
		pauseNS: m1.PauseTotalNs - m0.PauseTotalNs,
	}
}
