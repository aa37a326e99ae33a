package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	grouting "repro"
)

// runner feeds one client the workload's operation stream. The stream is
// endless and deterministic: operation i is a write when writeEvery
// divides i+1, otherwise the next query of the read stream, cycled in
// order. Only the generator goroutine advances it.
type runner struct {
	in      *inputs
	client  grouting.Client
	next    int
	readPos int
	// Totals over every operation the run counts.
	attempted, failed int64
	wrong             int64
	// writes counts the writes issued.
	writes atomic.Int64
}

// op is one operation: a read of in.reads[read], or (read < 0) a write.
type op struct {
	read  int
	write writeOp
}

func (r *runner) nextOp() op {
	i := r.next
	r.next++
	if we := r.in.w.writeEvery; we > 0 && i%we == we-1 {
		return op{read: -1, write: r.in.plan.next()}
	}
	k := r.readPos % len(r.in.reads)
	r.readPos++
	return op{read: k}
}

// do executes o on c and reports whether the answer was wrong.
func (r *runner) do(ctx context.Context, c grouting.Client, o op) (wrong bool, err error) {
	if o.read >= 0 {
		res, err := c.Execute(ctx, r.in.reads[o.read])
		if err != nil {
			return false, err
		}
		return res != r.in.want[o.read], nil
	}
	r.writes.Add(1)
	_, err = c.Mutate(ctx, []grouting.Mutation{o.write.mut})
	r.in.plan.done(o.write)
	return false, err
}

// sample is one completed operation of a window.
type sample struct {
	lat   int64 // ns from scheduled send to completion; MaxInt64 when it failed
	lag   int64 // ns the generator dispatched it behind schedule
	write bool
	err   bool
	wrong bool
}

// stretchOps is the length of the stretches a window's figures are taken
// over: enough operations that a p99 has ten beyond it.
const stretchOps = 1000

// windowResult summarises one open-loop window. Its quantiles are medians
// over consecutive stretches of stretchOps operations (in send order) of
// each stretch's quantile, so a stall of the shared machine moves the
// stretch it falls in, not the figure, while sustained overload moves
// every stretch. A remainder shorter than a stretch joins the last one.
type windowResult struct {
	rate     float64 // offered ops/s
	sent     int
	errors   int
	wrong    int
	achieved float64 // operations per second, first send to last completion
	elapsed  time.Duration
	// Every latency (ns), sorted: reads and writes.
	readLat, writeLat []int64
	// Stretch medians (ns): read p50 and p99, and the generator's lag p99;
	// and each stretch's read p50, read p99 and lag p99.
	readP50, readP99, lagP99           int64
	stretchP50, stretchP99, stretchLag []float64
	// backlog is set when operations piled up: over the last quarter of
	// the schedule the median in-flight count exceeded half of what the
	// SLO allows (Little's law: rate × SLO), or the in-flight cap stopped
	// the generator.
	backlog bool
	// met is set when the window meets the SLO: read p99 within it, at
	// most 1% failed, no backlog, and the generator kept its schedule (lag
	// p99 within half the SLO, and at least 95% of the offered rate
	// achieved).
	met bool
}

func (w windowResult) failedFrac() float64 {
	if w.sent == 0 {
		return 0
	}
	return float64(w.errors+w.wrong) / float64(w.sent)
}

// window drives the stream open-loop at rate ops/s for dur. Operations go
// out on a fixed schedule whatever the replies do, and each latency runs
// from the operation's scheduled send time, so a stall is charged to every
// operation it delays.
func (r *runner) window(ctx context.Context, rate float64, dur time.Duration) windowResult {
	slo := r.in.w.slo
	n := max(1, int(rate*dur.Seconds()))
	allowed := int64(rate*slo.Seconds()) + 16
	samples := make([]sample, n)
	depth := make([]int64, 0, n)
	interval := float64(time.Second) / rate
	var inflight atomic.Int64
	var wg sync.WaitGroup
	res := windowResult{rate: rate}
	start := time.Now()
	for i := 0; i < n; i++ {
		sched := start.Add(time.Duration(float64(i) * interval))
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		d := inflight.Load()
		if d > 4*allowed {
			res.backlog = true
			break
		}
		depth = append(depth, d)
		o := r.nextOp()
		lag := time.Since(sched).Nanoseconds()
		inflight.Add(1)
		wg.Add(1)
		res.sent++
		go func(i int, o op, sched time.Time, lag int64) {
			defer wg.Done()
			wrong, err := r.do(ctx, r.client, o)
			s := sample{lat: time.Since(sched).Nanoseconds(), lag: lag, write: o.read < 0, err: err != nil, wrong: wrong}
			if s.err || s.wrong {
				s.lat = math.MaxInt64
			}
			samples[i] = s
			inflight.Add(-1)
		}(i, o, sched, lag)
	}
	wg.Wait()
	elapsed := time.Since(start)
	samples = samples[:res.sent]
	if tail := depth[len(depth)*3/4:]; len(tail) > 0 && medianInt(tail) > float64(allowed)/2 {
		res.backlog = true
	}

	for lo := 0; lo < len(samples); lo += stretchOps {
		hi := lo + stretchOps
		if len(samples)-hi < stretchOps {
			hi = len(samples)
		}
		var reads, lags []int64
		for _, s := range samples[lo:hi] {
			lags = append(lags, s.lag)
			if !s.write {
				reads = append(reads, s.lat)
			}
		}
		reads = sortedCopy(reads)
		res.stretchP50 = append(res.stretchP50, float64(rankQuantile(reads, 0.50)))
		res.stretchP99 = append(res.stretchP99, float64(rankQuantile(reads, 0.99)))
		res.stretchLag = append(res.stretchLag, float64(rankQuantile(sortedCopy(lags), 0.99)))
		if hi == len(samples) {
			break
		}
	}
	res.readP50, res.readP99, res.lagP99 = int64(medianF(res.stretchP50)), int64(medianF(res.stretchP99)), int64(medianF(res.stretchLag))
	for _, s := range samples {
		if s.write {
			res.writeLat = append(res.writeLat, s.lat)
		} else {
			res.readLat = append(res.readLat, s.lat)
		}
		if s.err {
			res.errors++
		}
		if s.wrong {
			res.wrong++
		}
	}
	res.readLat, res.writeLat = sortedCopy(res.readLat), sortedCopy(res.writeLat)
	res.elapsed = elapsed
	res.achieved = float64(res.sent) / elapsed.Seconds()
	res.met = !res.backlog &&
		res.readP99 <= slo.Nanoseconds() &&
		res.failedFrac() <= 0.01 &&
		res.lagP99 <= slo.Nanoseconds()/2 &&
		res.achieved >= 0.95*rate
	r.attempted += int64(res.sent)
	r.failed += int64(res.errors + res.wrong)
	r.wrong += int64(res.wrong)
	return res
}

// scheduleLag is the generator lag p99 up to which a stretch counts as on
// schedule. At the reference rates the program runs well below its
// capacity and the generator's lag p99 stays near 1 ms, the resolution of
// its sleeps; a stretch above this is one in which the shared machine did
// not run the process.
const scheduleLag = 2 * time.Millisecond

// onSchedule returns the medians of the stretch read p50s and p99s (ns)
// over the stretches whose lag p99 is within scheduleLag, and how many
// those were. When there are none, it takes every stretch.
func (w windowResult) onSchedule() (p50, p99 int64, n int) {
	var s50, s99 []float64
	for i, lag := range w.stretchLag {
		if lag <= float64(scheduleLag) {
			s50 = append(s50, w.stretchP50[i])
			s99 = append(s99, w.stretchP99[i])
		}
	}
	if len(s50) == 0 {
		return w.readP50, w.readP99, 0
	}
	return int64(medianF(s50)), int64(medianF(s99)), len(s50)
}

// opsDur is how long ops operations take at rate.
func opsDur(ops int, rate float64) time.Duration {
	return time.Duration(float64(ops) / rate * float64(time.Second))
}

// maxSettle bounds how long a warm-up waits for the machine to run the
// process on schedule.
const maxSettle = 10 * time.Second

// warmUp runs ops operations at rate, then further stretches while the
// last stretch ran off schedule, for up to maxSettle, so that the
// reference window does not start inside a spell in which the shared
// machine does not run the process.
func (r *runner) warmUp(ctx context.Context, rate float64, ops int, log func(string, windowResult)) {
	w := r.window(ctx, rate, opsDur(ops, rate))
	log("warm-up", w)
	for t := time.Now(); w.stretchLag[len(w.stretchLag)-1] > float64(scheduleLag) && time.Since(t) < maxSettle; {
		w = r.window(ctx, rate, opsDur(stretchOps, rate))
		log("settle", w)
	}
}

// reference runs the reference window: dur at rate, then further
// stretches, until at least half of its stretches ran on schedule or it
// has run twice as long. A spell in which the shared machine does not run
// the process then lengthens the window instead of setting its figures.
func (r *runner) reference(ctx context.Context, rate float64, dur time.Duration) windowResult {
	w := r.window(ctx, rate, dur)
	planned := len(w.stretchLag)
	for w.elapsed < 2*dur {
		if _, _, n := w.onSchedule(); 2*n >= planned {
			break
		}
		x := r.window(ctx, rate, opsDur(stretchOps, rate))
		w.sent += x.sent
		w.errors += x.errors
		w.wrong += x.wrong
		w.elapsed += x.elapsed
		w.achieved = float64(w.sent) / w.elapsed.Seconds()
		w.readLat = sortedCopy(append(w.readLat, x.readLat...))
		w.writeLat = sortedCopy(append(w.writeLat, x.writeLat...))
		w.stretchP50 = append(w.stretchP50, x.stretchP50...)
		w.stretchP99 = append(w.stretchP99, x.stretchP99...)
		w.stretchLag = append(w.stretchLag, x.stretchLag...)
		w.readP50, w.readP99, w.lagP99 = int64(medianF(w.stretchP50)), int64(medianF(w.stretchP99)), int64(medianF(w.stretchLag))
		w.backlog = w.backlog || x.backlog
		w.met = w.met && x.met
	}
	return w
}

func medianInt(xs []int64) float64 {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return medianF(f)
}

// probeOps is the fewest operations a qps_at_slo probe sends, so that
// every probe spans several stretches and many hotspots.
const probeOps = 6000

// searchQPS finds the highest offered rate that meets the SLO. Rates only
// rise between probes except when the search refines, so each probe
// starts from the state a lighter one left: from the reference rate (whose
// window ref is) it raises the rate by a factor of 4 per probe until a
// rate fails, then from the last passing rate by a factor of 2, then by
// 19% per probe, then by 6%, each time until a rate fails. A probe that fails is run once more
// before its rate counts as failed: a stall of the shared machine only
// ever fails a window, so without the second try one stall would end the
// search far below the rate the program sustains. The search then
// confirms the last passing rate with one more window, backing off 6% per
// failed confirmation until one passes, and returns the confirming window.
// A window lasts probe or probeOps operations, whichever is longer. Every
// window starts at the same point of the stream, so rates are compared on
// the same operations, not on whichever stretch of the stream each probe
// happened to get.
func (r *runner) searchQPS(ctx context.Context, ref windowResult, probe time.Duration, log func(string, windowResult)) (windowResult, error) {
	floor := ref.rate / 16
	startRead, startOp := r.readPos, r.next
	once := func(kind string, rate float64) (windowResult, bool) {
		r.readPos, r.next = startRead, startOp
		res := r.window(ctx, rate, max(probe, opsDur(probeOps, rate)))
		log(kind, res)
		return res, res.met
	}
	meets := func(kind string, rate float64) bool {
		_, ok := once(kind, rate)
		if !ok {
			_, ok = once(kind, rate)
		}
		return ok
	}
	lo, ok := ref.rate, ref.met
	for !ok && lo > floor {
		lo /= 2
		ok = meets("down", lo)
	}
	limit := 64 * lo
	for _, factor := range []float64{4, 2, 1.19, 1.06} {
		rate := lo * factor
		for ; ok && rate < limit; rate *= factor {
			if !meets(fmt.Sprintf("x%.2f", factor), rate) {
				break
			}
			lo = rate
		}
		limit = rate
	}
	for ; ok && lo > floor; lo /= 1.06 {
		if res, pass := once("confirm", lo); pass {
			return res, nil
		}
	}
	return windowResult{}, fmt.Errorf("no rate down to a sixteenth of the reference rate meets the %v p99 SLO", r.in.w.slo)
}

// serial runs n operations one at a time on c and returns each one's
// latency (ns) and whether it was a read.
func (r *runner) serial(ctx context.Context, c grouting.Client, n int) (lat []int64, reads []bool, err error) {
	for i := 0; i < n; i++ {
		o := r.nextOp()
		t := time.Now()
		wrong, err := r.do(ctx, c, o)
		lat = append(lat, time.Since(t).Nanoseconds())
		reads = append(reads, o.read >= 0)
		r.attempted++
		if err != nil || wrong {
			r.failed++
		}
		if wrong {
			r.wrong++
		}
		if err != nil {
			return nil, nil, fmt.Errorf("serial op %d: %w", i, err)
		}
	}
	return lat, reads, nil
}
