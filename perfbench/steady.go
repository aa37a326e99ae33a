package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// runSet is the values of every metric over repeated runs, by workload.
type runSet map[string]map[string][]float64

// benchBounds reads the end-to-end bounds from BENCHMARK.json in the
// working directory; it returns nil when there is none.
func benchBounds() map[string]float64 {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil
	}
	var b struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(data, &b) != nil {
		return nil
	}
	bounds := map[string]float64{}
	for _, m := range b.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds
}

// steadiness runs each workload n times as child processes of this binary,
// seeds seed … seed+n-1, and prints per metric the median, the quartiles
// and the spread (interquartile distance over the median) next to the
// metric's bound. With against, it also prints how far each median moved
// from a set saved earlier, in the bound's terms.
func steadiness(name string, seed int64, seconds, trace, n int, save, against string) error {
	names := []string{name}
	if name == "all" || name == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := runSet{}
	for _, wl := range names {
		if _, err := lookupWorkload(wl); err != nil {
			return err
		}
		set[wl] = map[string][]float64{}
		for k := 0; k < n; k++ {
			s := seed + int64(k)
			cmd := exec.Command(self, "--workload", wl, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w: %s", wl, s, err, bytes.TrimSpace(stderr.Bytes()))
			}
			var res output
			if err := json.Unmarshal(lastLine(out), &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", wl, s, err)
			}
			if !res.Correct || res.Failed > 0 {
				return fmt.Errorf("%s seed %d: %d of %d operations failed", wl, s, res.Failed, res.Attempted)
			}
			for m, v := range res.Metrics {
				set[wl][m] = append(set[wl][m], v.Value)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d done\n", wl, s)
		}
	}
	var old runSet
	if against != "" {
		data, err := os.ReadFile(against)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &old); err != nil {
			return fmt.Errorf("%s: %w", against, err)
		}
	}
	bounds := benchBounds()
	for _, wl := range names {
		fmt.Printf("workload %s: %d runs\n", wl, n)
		fmt.Printf("  %-34s %12s %12s %12s %8s %6s", "metric", "q1", "median", "q3", "spread", "bound")
		if old != nil {
			fmt.Printf(" %12s %8s", "old median", "moved")
		}
		fmt.Println()
		metrics := make([]string, 0, len(set[wl]))
		for m := range set[wl] {
			metrics = append(metrics, m)
		}
		slices.Sort(metrics)
		for _, m := range metrics {
			v := set[wl][m]
			q1, med, q3 := quartiles(v)
			fmt.Printf("  %-34s %12.6g %12.6g %12.6g %8.4f %6.3g", m, q1, med, q3, spread(v), bounds[m])
			if old != nil && len(old[wl][m]) > 0 {
				om := medianF(old[wl][m])
				fmt.Printf(" %12.6g %+8.4f", om, (med-om)/om)
			}
			fmt.Println()
		}
	}
	if save != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(save, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = slices.Clone(sc.Bytes())
		}
	}
	return last
}
