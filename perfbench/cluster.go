package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	grouting "repro"
)

// cluster is one loopback deployment built through the public API.
type cluster struct {
	storage []*grouting.StorageServer
	procs   []*grouting.ProcessorServer
	router  *grouting.RouterServer
	client  grouting.Client
	dir     string // durable shards' directory, removed on close
	// Set-up timings in seconds: the whole build (first Serve* call to a
	// dialled client), the LoadStorage* call, and the ServeRouter call.
	setupS, loadS, routerS float64
}

// setUp builds the workload's deployment over in.g: storage shards,
// bulk load, processors, router, client. Durable shards keep their WAL
// under dir.
func setUp(ctx context.Context, in *inputs, dir string) (c *cluster, err error) {
	w := in.w
	c = &cluster{}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	t0 := time.Now()
	var addrs []string
	for i := 0; i < numShards; i++ {
		var ss *grouting.StorageServer
		if w.durable {
			c.dir = dir
			ss, err = grouting.ServeStorageDurable("127.0.0.1:0", filepath.Join(dir, fmt.Sprintf("shard%d", i)), false)
		} else {
			ss, err = grouting.ServeStorage("127.0.0.1:0")
		}
		if err != nil {
			return nil, fmt.Errorf("serve storage: %w", err)
		}
		c.storage = append(c.storage, ss)
		addrs = append(addrs, ss.Addr())
	}
	t := time.Now()
	if err = grouting.LoadStorageReplicated(ctx, in.g, addrs, w.replicas); err != nil {
		return nil, fmt.Errorf("load storage: %w", err)
	}
	c.loadS = time.Since(t).Seconds()
	if w.durable {
		// No snapshot compaction once loaded: at the default interval one
		// would land in some measured windows and not others, and each
		// rewrites the whole shard.
		for _, ss := range c.storage {
			ss.SetSnapshotEvery(math.MaxInt32)
		}
	}
	if err = c.serveCompute(ctx, in, addrs); err != nil {
		return nil, err
	}
	c.setupS = time.Since(t0).Seconds()
	return c, nil
}

// serveCompute starts processors, a router and a client over the storage
// shards at addrs, recording how long the ServeRouter call took.
func (c *cluster) serveCompute(ctx context.Context, in *inputs, addrs []string) error {
	var procAddrs []string
	for i := 0; i < numProcs; i++ {
		ps, err := grouting.ServeProcessorWith("127.0.0.1:0", grouting.ProcessorSpec{
			Storage: addrs, StorageReplicas: in.w.replicas, CacheBytes: in.w.cacheBytes,
		})
		if err != nil {
			return fmt.Errorf("serve processor: %w", err)
		}
		c.procs = append(c.procs, ps)
		procAddrs = append(procAddrs, ps.Addr())
	}
	spec := routerSpec(in, procAddrs)
	if in.w.writeEvery > 0 {
		spec.Storage = addrs
	}
	t := time.Now()
	var err error
	if c.router, err = grouting.ServeRouter("127.0.0.1:0", spec); err != nil {
		return fmt.Errorf("serve router: %w", err)
	}
	c.routerS = time.Since(t).Seconds()
	if c.client, err = grouting.Dial(ctx, c.router.Addr()); err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	return nil
}

// routerSpec is the router configuration every cluster of the run shares.
// The router is handed the run's learned embedding, if it has one, as its
// provider: on spill it routes by that table, which the benchmark learns
// once per run and reports as setup.embed_s, rather than once per build;
// elsewhere it only serves k-nearest queries.
func routerSpec(in *inputs, procAddrs []string) grouting.RouterSpec {
	spec := grouting.RouterSpec{
		Processors:      procAddrs,
		Policy:          in.w.policy,
		Graph:           in.g,
		Seed:            datasetSeed,
		StorageReplicas: in.w.replicas,
	}
	if in.coords != nil {
		spec.EmbedProvider = grouting.NewFileProvider(in.coords)
	}
	return spec
}

// closeCompute stops the client, router and processors, keeping storage.
func (c *cluster) closeCompute() error {
	var errs []error
	if c.client != nil {
		errs = append(errs, c.client.Close())
		c.client = nil
	}
	if c.router != nil {
		errs = append(errs, c.router.Close())
		c.router = nil
	}
	for _, p := range c.procs {
		errs = append(errs, p.Close())
	}
	c.procs = nil
	return errors.Join(errs...)
}

func (c *cluster) close() error {
	errs := []error{c.closeCompute()}
	for _, s := range c.storage {
		errs = append(errs, s.Close())
	}
	c.storage = nil
	if c.dir != "" {
		errs = append(errs, os.RemoveAll(c.dir))
	}
	return errors.Join(errs...)
}

// buildRepeated builds the cluster setupRepeats times, closing all but the
// last build, and returns it with the median of each set-up timing.
func buildRepeated(ctx context.Context, in *inputs, workdir string) (*cluster, [3]float64, error) {
	var setup, load, router []float64
	var c *cluster
	for k := 0; k < setupRepeats; k++ {
		if c != nil {
			if err := c.close(); err != nil {
				return nil, [3]float64{}, fmt.Errorf("close set-up %d: %w", k, err)
			}
		}
		var err error
		c, err = setUp(ctx, in, filepath.Join(workdir, fmt.Sprintf("setup%d", k)))
		if err != nil {
			return nil, [3]float64{}, err
		}
		setup = append(setup, c.setupS)
		load = append(load, c.loadS)
		router = append(router, c.routerS)
	}
	return c, [3]float64{medianF(setup), medianF(load), medianF(router)}, nil
}
