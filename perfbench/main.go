// Command perfbench is the repository's benchmark. It self-hosts a loopback
// cluster in one process through the public grouting API, drives one
// workload open-loop from a single generator over one client, verifies
// every answer, and prints every metric by name with its unit and sample
// count. The last line of its output is one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
//
//	bash perfbench/run.sh --workload hot --seed 1 --seconds 6 --trace 0
//	bash perfbench/run.sh --repeat 10 --workload all --trace 0   # steadiness table
//
// README.md describes the workloads and defines every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: hot, spill or write-mix (all with --repeat)")
		seed    = flag.Int64("seed", 1, "seed for the graph, the query stream and the writes")
		seconds = flag.Int("seconds", 6, "seconds of measurement")
		trace   = flag.Int("trace", 0, "0 prints the end-to-end metrics; 1 adds the traced run and prints the per-layer metrics")
		workdir = flag.String("workdir", ".bench_build/run", "scratch directory for durable shards and span dumps, cleared at the start of a run")
		repeat  = flag.Int("repeat", 0, "steadiness mode: run each workload this many times, seeds seed, seed+1, …, and print per metric the median, quartiles and spread")
		save    = flag.String("save", "", "steadiness mode: write the runs' values to this JSON file")
		against = flag.String("against", "", "steadiness mode: compare the medians with a set saved by --save")
	)
	flag.Parse()
	if *repeat > 0 {
		if err := steadiness(*name, *seed, *seconds, *trace, *repeat, *save, *against); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, err := lookupWorkload(*name)
	if err == nil && (*trace < 0 || *trace > 1 || *seconds < 1) {
		err = fmt.Errorf("need --trace 0 or 1 and --seconds >= 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(context.Background(), w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answers; see failed")
		os.Exit(1)
	}
}

// metricValue is one metric as the JSON result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the JSON result line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func run(ctx context.Context, w workload, seed int64, dur time.Duration, trace bool, workdir string) (*output, error) {
	t0 := time.Now()
	fmt.Printf("perfbench workload=%s seed=%d seconds=%.0f trace=%v\n", w.name, seed, dur.Seconds(), trace)
	fmt.Printf("machine: nproc=%d GOMAXPROCS=%d %s %s/%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	if err := os.RemoveAll(workdir); err != nil {
		return nil, fmt.Errorf("clear workdir: %w", err)
	}
	in, err := prepare(w, seed, trace)
	if err != nil {
		return nil, err
	}
	fmt.Printf("deployment: WebGraph scale %g (%d nodes, %d edges), %d processors, %d shards, policy %v, R=%d, WAL=%v (fsync off), cache %d MiB/processor\n",
		datasetScale, in.g.NumNodes(), in.g.NumEdges(), numProcs, numShards, w.policy, w.replicas, w.durable, w.cacheBytes>>20)
	fmt.Printf("stream: %d reads (%d hotspots x %d), 1 write per %d ops (0 = none); SLO read p99 %v; reference rate %.0f ops/s\n",
		len(in.reads), w.hotspots, w.perHotspot, w.writeEvery, w.slo, w.refRate)
	pick, err := pickNanos(in)
	if err != nil {
		return nil, err
	}

	fmt.Printf("%5.1fs inputs ready\n", time.Since(t0).Seconds())
	c, setup, err := buildRepeated(ctx, in, filepath.Join(workdir, "shards"))
	if err != nil {
		return nil, err
	}
	fmt.Printf("%5.1fs set-up: median build %.3fs, load %.3fs, router %.3fs\n", time.Since(t0).Seconds(), setup[0], setup[1], setup[2])
	defer c.close()
	r := &runner{in: in, client: c.client}
	if w.writeEvery > 0 {
		if _, err := c.client.Mutate(ctx, in.plan.creates()); err != nil {
			return nil, fmt.Errorf("create write-plan nodes: %w", err)
		}
	}
	// Collect the garbage of the discarded builds now, so the warm-up
	// does not share the machine with that collection.
	runtime.GC()
	var rp report
	logWindow := func(kind string, res windowResult) {
		fmt.Printf("%5.1fs %-8s offered %8.1f/s achieved %8.1f/s sent %6d read p50 %7.3fms p99 %8.3fms lag p99 %6.3fms failed %d backlog %v met %v\n",
			time.Since(t0).Seconds(), kind, res.rate, res.achieved, res.sent, ms(rankQuantile(res.readLat, 0.5)), ms(res.readP99),
			ms(res.lagP99), res.errors+res.wrong, res.backlog, res.met)
	}

	// Warm caches, pools and the router's statistics at the reference
	// rate, then measure the reference window.
	gc0, all0 := goCPU()
	r.warmUp(ctx, w.refRate, w.warmOps, logWindow)
	before, err := readCounters(ctx, c)
	if err != nil {
		return nil, err
	}
	ref := r.reference(ctx, w.refRate, max(dur/2, opsDur(w.refOps, w.refRate)))
	after, err := readCounters(ctx, c)
	if err != nil {
		return nil, err
	}
	gc1, all1 := goCPU()
	logWindow("ref", ref)
	fmt.Printf("       stretch read p99 / lag p99 (ms):")
	for i, v := range ref.stretchP99 {
		fmt.Printf(" %.2f/%.2f", v/1e6, ref.stretchLag[i]/1e6)
	}
	refP50, refP99, onSchedule := ref.onSchedule()
	fmt.Printf("\n       %d of %d stretches on schedule; caches hold %.1f MiB of %d MiB\n",
		onSchedule, len(ref.stretchLag), float64(after.cacheBytes)/(1<<20), numProcs*w.cacheBytes>>20)
	snap, err := c.client.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("router stats: %w", err)
	}
	reads, writes := len(ref.readLat), len(ref.writeLat)
	perRead := func(d int64) float64 { return float64(d) / float64(max(reads, 1)) }
	hitRate := float64(after.hits-before.hits) / float64(max(1, after.hits-before.hits+after.misses-before.misses))
	gets := perRead(after.gets - before.gets)
	walBytes, err := after.walBytesSince(before)
	if err != nil {
		return nil, err
	}
	if err := checkSplit(w, hitRate, gets, walBytes); err != nil {
		return nil, err
	}

	var qps windowResult
	if !trace {
		if qps, err = r.searchQPS(ctx, ref, dur/10, logWindow); err != nil {
			return nil, err
		}
	}
	if trace {
		rp.add("cache.hit_rate", hitRate, "ratio", reads)
		rp.add("cache.evictions_per_query", perRead(after.evictions-before.evictions), "count", reads)
		rp.add("storage.gets_per_query", gets, "count", reads)
		rp.add("router.pick_ns", pick, "ns", 5*len(in.reads))
		rp.add("router.queue_depth_p99", float64(snap.QueueDepth.P99), "count", int(snap.QueueDepth.Count))
		rp.add("router.imbalance", imbalance(before.executed, after.executed), "ratio", reads)
		rp.add("router.stolen_frac", perRead(after.stolen-before.stolen), "ratio", reads)
		rp.add("go.allocs_per_op", float64(after.allocs-before.allocs)/float64(ref.sent), "count", ref.sent)
		rp.add("go.gc_cpu_frac", (gc1-gc0)/(all1-all0), "ratio", ref.sent)
		rp.add("gen.lag_p99_ms", ms(ref.lagP99), "ms", ref.sent)
		rp.add("setup.load_s", setup[1], "s", setupRepeats)
		rp.add("setup.router_s", setup[2], "s", setupRepeats)
		rp.add("setup.embed_s", in.embedS, "s", 1)
		untraced, tr, err := tracedRun(ctx, r, c, filepath.Join(workdir, "spans-"+w.name+".tsv"))
		if err != nil {
			return nil, err
		}
		if err := addTraced(&rp, tr, untraced); err != nil {
			return nil, err
		}
	} else {
		if err := verifyWrites(ctx, r, c.client); err != nil {
			return nil, err
		}
		heap := heapMB()
		rp.add("setup_s", setup[0], "s", setupRepeats)
		rp.add("p50_ms", ms(refP50), "ms", reads)
		rp.add("cpu_us_per_op", (after.cpu-before.cpu)*1e6/float64(ref.sent), "us", ref.sent)
		rp.add("heap_mb", heap, "MiB", 1)
	}

	fmt.Println("not in the result line:")
	if !trace {
		fmt.Println(metricLine("qps_at_slo", qps.achieved, "1/s", qps.sent))
	}
	fmt.Println(metricLine("p99_ms", ms(refP99), "ms", reads))
	fmt.Println(metricLine("read_p50_ms", ms(rankQuantile(ref.readLat, 0.5)), "ms", reads))
	fmt.Println(metricLine("read_p99_ms", ms(rankQuantile(ref.readLat, 0.99)), "ms", reads))
	if writes > 0 {
		fmt.Println(metricLine("write_p50_ms", ms(rankQuantile(ref.writeLat, 0.5)), "ms", writes))
		fmt.Println(metricLine("write_p99_ms", ms(rankQuantile(ref.writeLat, 0.99)), "ms", writes))
	}
	if !trace && in.coords != nil {
		fmt.Println(metricLine("setup.embed_s", in.embedS, "s", 1))
	}
	fmt.Println(metricLine("failed_frac", float64(r.failed)/float64(max(r.attempted, 1)), "ratio", int(r.attempted)))
	fmt.Println("metrics:")
	fmt.Println(strings.Join(rp.lines, "\n"))
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	if err := rp.check(defs); err != nil {
		return nil, err
	}
	return &output{
		Correct:   r.wrong == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   rp.metrics,
	}, nil
}

// checkSplit asserts the workload exercised the layers it exists for, so
// a configuration drift fails loudly instead of measuring something else.
func checkSplit(w workload, hitRate, getsPerRead, walBytes float64) error {
	var bad []string
	switch w.name {
	case "hot":
		if hitRate < 0.99 {
			bad = append(bad, fmt.Sprintf("cache hit rate %.4f < 0.99", hitRate))
		}
		if getsPerRead > 0.05 {
			bad = append(bad, fmt.Sprintf("%.3f storage gets per read > 0.05", getsPerRead))
		}
	case "spill":
		if getsPerRead <= 0 {
			bad = append(bad, "no storage gets")
		}
		if hitRate >= 0.95 {
			bad = append(bad, fmt.Sprintf("cache hit rate %.4f >= 0.95", hitRate))
		}
	case "write-mix":
		if walBytes <= 0 {
			bad = append(bad, "no WAL bytes written")
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("workload %s did not exercise its layers: %s", w.name, strings.Join(bad, "; "))
	}
	return nil
}

// addTraced adds the traced run's per-layer metrics.
func addTraced(rp *report, tr traceReport, untraced []int64) error {
	// A relay cannot tell which operation a call belongs to beyond the
	// request id in flight when it started, so a rare call of a subtask
	// that outlived its query can land outside the next one's tree.
	fmt.Printf("trace: %d reads and %d writes measured, %d spans, %d router calls outlived the answer, %d spans outside their caller\n",
		tr.reads, tr.writes, tr.spans, tr.late, tr.broken)
	if tr.unmatched > 0 || tr.broken > tr.spans/100 {
		return fmt.Errorf("trace: %d operations without exactly one client call, %d of %d spans starting outside their caller", tr.unmatched, tr.broken, tr.spans)
	}
	us := func(ns float64) float64 { return ns / 1e3 }
	rp.add("router.self_us", us(tr.routerSelf), "us", tr.reads)
	rp.add("processor.self_us", us(tr.procSelf), "us", tr.reads)
	rp.add("rpc.client_us", us(tr.clientSide), "us", tr.reads)
	for h := hop(0); h < numHops; h++ {
		rp.add("rpc.hop_us."+h.String(), us(tr.hopMean[h]), "us", tr.hopCalls[h])
	}
	rp.add("rpc.bytes_per_query", tr.bytes, "B", tr.reads)
	rp.add("mquery.proc_calls_per_query", tr.procCalls, "count", tr.reads)
	rp.add("storage.rounds_per_query", tr.rounds, "count", tr.reads)
	rp.add("storage.round_us", us(tr.roundMean), "us", tr.roundCount)
	rp.add("storage.bytes_per_query", tr.storageBytes, "B", tr.reads)
	for _, t := range allTypes {
		lat := sortedCopy(tr.classLat[t.String()])
		rp.add("class."+t.String()+".p50_us", us(float64(rankQuantile(lat, 0.5))), "us", len(lat))
	}
	wlat := sortedCopy(tr.classLat["write"])
	rp.add("class.write.p50_us", us(float64(rankQuantile(wlat, 0.5))), "us", len(wlat))
	rp.add("mutate.storage_calls_per_write", tr.storageCalls, "count", tr.writes)
	rp.add("mutate.evict_calls_per_write", tr.evictCalls, "count", tr.writes)
	rp.add("mutate.self_us", us(tr.mutateSelf), "us", tr.writes)
	rp.add("kvstore.wal_bytes_per_write", tr.walPerWrite, "B", tr.walWrites)
	p50u := rankQuantile(sortedCopy(untraced), 0.5)
	p50t := rankQuantile(sortedCopy(tr.readLat), 0.5)
	rp.add("trace.overhead_frac", float64(p50t)/float64(max(p50u, 1))-1, "ratio", len(tr.readLat))
	rp.add("trace.accounted_frac", tr.accounted, "ratio", tr.reads)
	return nil
}
