package main

import (
	"errors"
	"sort"
	"sync"
	"time"

	"repro/uncertain"
)

// recorder collects one phase's per-call outcomes.
type recorder struct {
	mu sync.Mutex

	rangeLat, nnLat      []time.Duration
	insertLat, deleteLat []time.Duration
	commitLat, otherLat  []time.Duration // writes that did / did not commit an epoch
	rangeStats           uncertain.Stats
	nnStats              uncertain.NNStats
	userBytes            int64
	attempted, failed    int
	errs                 []error // the first few failures, for the report
}

const keepErrs = 5

func (r *recorder) fail(err error) {
	r.failed++
	if len(r.errs) < keepErrs {
		r.errs = append(r.errs, err)
	}
}

func (r *recorder) search(d time.Duration, st uncertain.Stats, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.fail(err)
		return
	}
	r.rangeLat = append(r.rangeLat, d)
	r.rangeStats.Add(st)
}

func (r *recorder) nn(d time.Duration, st uncertain.NNStats, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.fail(err)
		return
	}
	r.nnLat = append(r.nnLat, d)
	r.nnStats.Add(st)
}

func (r *recorder) write(insert bool, d time.Duration, commit bool, userBytes int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.fail(err)
		return
	}
	if insert {
		r.insertLat = append(r.insertLat, d)
		r.userBytes += int64(userBytes)
	} else {
		r.deleteLat = append(r.deleteLat, d)
	}
	if commit {
		r.commitLat = append(r.commitLat, d)
	} else {
		r.otherLat = append(r.otherLat, d)
	}
}

// queries and writes count the calls that completed without error.
func (r *recorder) queries() int { return len(r.rangeLat) + len(r.nnLat) }
func (r *recorder) writes() int  { return len(r.insertLat) + len(r.deleteLat) }

func (r *recorder) err() error { return errors.Join(r.errs...) }

// percentile is the nearest-rank p-th percentile of ds in milliseconds,
// and how many samples lie above it.
func percentile(ds []time.Duration, p int) (ms float64, above int) {
	if len(ds) == 0 {
		return 0, 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	rank := (p*len(s) + 99) / 100
	rank = max(1, min(rank, len(s)))
	return float64(s[rank-1]) / float64(time.Millisecond), len(s) - rank
}
