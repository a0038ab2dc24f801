// Command perfbench is the U-tree's benchmark. It builds one workload's
// index through the public uncertain API from the repository's dataset and
// query generators, drives it with closed-loop clients for a fixed time,
// checks sampled answers against a brute-force oracle, and prints the
// workload's end-to-end metrics — or, with -trace 1, its per-layer metrics
// from a traced run. Workload parameters live in spec.json.
//
// Build and run it from the repository root with run.sh:
//
//	bash perfbench/run.sh --workload read_disk --seed 1 --seconds 40 --trace 0
//
// Workloads: read_disk and write_disk, the two BENCHMARK.json gates on, and
// read_cpu and write_mix, their CPU-bound counterparts without page latency.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is nonzero on any
// wrong answer or error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: read_disk, write_disk, read_cpu or write_mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 40, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	commit := flag.String("commit", "unknown", "commit the program was built from")
	dir := flag.String("dir", ".bench_build", "directory for index files and traces")
	flag.Parse()

	p, err := loadParams(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Printf("env nproc=%d GOMAXPROCS=%d go=%s commit=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *commit)

	work := filepath.Join(*dir, fmt.Sprintf("run-%s-%d-%d", *name, *seed, os.Getpid()))
	out, err := measure(context.Background(), *name, p, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, work)
	if rmErr := os.RemoveAll(work); err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out.print(os.Stdout)
	if !out.Correct || out.Failed > 0 {
		return 1
	}
	return 0
}

// measure runs one workload and returns its report.
func measure(ctx context.Context, name string, p params, seed int64, dur time.Duration, traced bool, work string) (rep *report, err error) {
	in, err := makeInputs(p, seed)
	if err != nil {
		return nil, err
	}
	r, err := newRunner(p, in, work, seed)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := r.close(); cerr != nil && err == nil {
			rep, err = nil, fmt.Errorf("close: %w", cerr)
		}
	}()
	r.warm(ctx)

	var a []*phaseResult
	var b *phaseResult
	var spans *tracer
	if traced {
		// Half the time traced, between two untraced quarters; comparing
		// them gives the tracing overhead without favouring either side
		// as the index drifts over the run.
		a = append(a, r.phase(ctx, dur/4, p.WriteBurst/4, nil))
		spans = newTracer()
		b = r.phase(ctx, dur/2, p.WriteBurst/2, spans)
		a = append(a, r.phase(ctx, dur/4, p.WriteBurst/4, nil))
	} else {
		b = r.phase(ctx, dur, p.WriteBurst, nil)
	}
	if r.spaceLive == 0 && r.spaceErr == nil {
		// The stream fell short of p.SpaceAfterWrites: measure it now.
		fmt.Printf("note: space measured after %d writes, not %d\n", r.writes, p.SpaceAfterWrites)
		r.takeSpace()
	}
	if r.spaceErr != nil {
		return nil, r.spaceErr
	}
	r.heapLive = liveHeap()
	invErr := r.idx.CheckInvariants()
	if spans != nil {
		path := filepath.Join(filepath.Dir(work), fmt.Sprintf("trace-%s-%d.jsonl", name, seed))
		if err := spans.write(path); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("trace %d spans written to %s\n", len(spans.spans), path)
	}
	return newReport(r, a, b, invErr), nil
}

// warm makes p.WarmupReads untimed passes over every client's call cycle
// so caches fill before timing.
func (r *runner) warm(ctx context.Context) {
	saved := r.idx.rec.Load()
	r.idx.rec.Store(&recorder{})
	for i := 0; i < r.p.WarmupReads; i++ {
		for _, cycle := range r.p.ReadClients {
			for _, kind := range cycle {
				r.read(ctx, nil, kind, false)
			}
		}
	}
	r.idx.rec.Store(saved)
}

// print writes the human-readable table, then the JSON result line.
func (rep *report) print(f *os.File) {
	for _, l := range rep.notes {
		fmt.Fprintln(f, l)
	}
	fmt.Fprintf(f, "%-36s %16s %-6s %8s\n", "metric", "value", "unit", "samples")
	for _, m := range rep.table {
		fmt.Fprintf(f, "%-36s %16.6g %-6s %8d\n", m.name, m.value, m.unit, m.samples)
	}
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	fmt.Fprintln(f, string(line))
}
