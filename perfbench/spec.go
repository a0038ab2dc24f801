package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"
)

// specJSON holds every workload's fixed parameters. The program reads them
// from here, so the file is the one statement of what each workload runs.
//
//go:embed spec.json
var specJSON []byte

// params are one workload's fixed settings (see spec.json).
type params struct {
	Dataset string  `json:"dataset"` // dataset generator: LB or CA
	Scale   float64 `json:"scale"`   // share of the paper's dataset size
	PDFs    string  `json:"pdfs"`    // uniform, congau or mixed (uniform, Con-Gau, histogram)

	Index            string  `json:"index"` // concurrent or spatial_sharded
	FileBacked       bool    `json:"file_backed"`
	Shards           int     `json:"shards"`
	BufferPages      int     `json:"buffer_pages"`       // 0 → library default
	NodeCacheEntries int     `json:"node_cache_entries"` // 0 → library default
	PageLatencyMS    float64 `json:"page_latency_ms"`
	PrefetchWorkers  int     `json:"prefetch_workers"`
	MCSamples        int     `json:"mc_samples"` // Monte-Carlo samples for refinement and NN expected distances; 0 → library default
	ExactRefinement  bool    `json:"exact_refinement"`
	AdaptivePlanning bool    `json:"adaptive_planning"`
	GroupCommitOps   int     `json:"group_commit_ops"`
	ReclaimMS        float64 `json:"reclaim_interval_ms"`

	// ReadClients holds one entry per read client: the cycle of calls,
	// "range" or "nn", that client makes in turn.
	ReadClients [][]string `json:"read_clients"`
	Engine      bool       `json:"engine"`      // reads go through one QueryEngine in batches
	RangeBatch  int        `json:"range_batch"` // queries per range call
	NNBatch     int        `json:"nn_batch"`    // queries per NN call
	PQ          []float64  `json:"pq"`          // range-query probability thresholds

	// WriteBurst is the number of writes one client makes, timed, before
	// the read phase; ConcurrentWriter instead runs one writer client
	// beside the readers for the whole phase.
	WriteBurst       int  `json:"write_burst"`
	ConcurrentWriter bool `json:"concurrent_writer"`

	Rounds           int `json:"rounds"`             // a phase's bursts and reads alternate in this many rounds
	SpaceAfterWrites int `json:"space_after_writes"` // writes after which space_bytes_per_obj is taken
	WarmupReads      int `json:"warmup_reads"`       // untimed read cycles per client before timing
	TailPercentile   int `json:"tail_percentile"`    // percentile reported as *_tail_ms
}

// Settings every workload shares.
const (
	nnK    = 10 // neighbours per NN query
	setups = 5  // index builds per run; setup_s is their median
)

// querySides are the range-query side lengths of the paper's Fig. 9/10 grid.
var querySides = []float64{500, 1500, 2500}

func (p params) pageLatency() time.Duration {
	return time.Duration(p.PageLatencyMS * float64(time.Millisecond))
}

func (p params) reclaimInterval() time.Duration {
	return time.Duration(p.ReclaimMS * float64(time.Millisecond))
}

// loadParams returns the named workload's parameters.
func loadParams(name string) (params, error) {
	var spec struct {
		Workloads map[string]params `json:"workloads"`
	}
	if err := json.Unmarshal(specJSON, &spec); err != nil {
		return params{}, fmt.Errorf("spec.json: %w", err)
	}
	p, ok := spec.Workloads[name]
	if !ok {
		return params{}, fmt.Errorf("unknown workload %q", name)
	}
	return p, nil
}
