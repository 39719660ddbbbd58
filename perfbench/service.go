package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"oscachesim/internal/core"
	"oscachesim/internal/server"
	"oscachesim/internal/store"
	"oscachesim/internal/workload"
)

// daemonWorkers is the daemon's worker-pool size.
const daemonWorkers = 2

// daemon is an in-process ossimd: server.New with a durable store,
// serving its Handler on a loopback listener.
type daemon struct {
	store  *store.Store
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
}

func startDaemon(dir string) (*daemon, error) {
	st, err := store.Open(dir, nil)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	srv := server.New(server.Options{Workers: daemonWorkers, Store: st})
	d := &daemon{
		store: st, srv: srv, served: make(chan error, 1),
		hs:  &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url: "http://" + ln.Addr().String(),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop closes the listener, drains the daemon and closes its store. It
// returns once the serving goroutine and every worker have exited.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := d.srv.Drain(ctx); err == nil {
		err = derr
	}
	if cerr := d.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// client speaks the daemon's v1 API.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and returns the status and body.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

// submit POSTs a run. A 429 is retried after its Retry-After; only a
// request that never gets through fails.
func (c *client) submit(ctx context.Context, body []byte) (*server.JobView, error) {
	for {
		status, hdr, data, err := c.do(ctx, http.MethodPost, "/v1/runs", body)
		if err != nil {
			return nil, err
		}
		if status == http.StatusTooManyRequests {
			wait := time.Second
			if s, err := strconv.Atoi(hdr.Get("Retry-After")); err == nil && s > 0 {
				wait = time.Duration(s) * time.Second
			}
			select {
			case <-time.After(wait):
				continue
			case <-ctx.Done():
				return nil, context.Cause(ctx)
			}
		}
		if status != http.StatusOK && status != http.StatusAccepted {
			return nil, fmt.Errorf("POST /v1/runs: HTTP %d: %s", status, bytes.TrimSpace(data))
		}
		var v server.JobView
		if err := json.Unmarshal(data, &v); err != nil {
			return nil, fmt.Errorf("POST /v1/runs: %w", err)
		}
		return &v, nil
	}
}

// wait follows a job's NDJSON stream to its result frame.
func (c *client) wait(ctx context.Context, id string) (*server.JobView, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/runs/"+id+"/stream", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET stream of %s: HTTP %d", id, resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var f server.StreamFrame
		if err := dec.Decode(&f); err != nil {
			return nil, fmt.Errorf("stream of %s ended without a result frame: %w", id, err)
		}
		if f.Type == "result" && f.Job != nil {
			return f.Job, nil
		}
	}
}

// result GETs a stored result by its content address.
func (c *client) result(ctx context.Context, key string) (*server.ResultView, error) {
	status, _, data, err := c.do(ctx, http.MethodGet, "/v1/results/"+key, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/results: HTTP %d: %s", status, bytes.TrimSpace(data))
	}
	var v server.ResultView
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("GET /v1/results: %w", err)
	}
	return &v, nil
}

// counters reads the daemon's /v1/metrics JSON counters.
func (c *client) counters(ctx context.Context) (map[string]float64, error) {
	status, _, data, err := c.do(ctx, http.MethodGet, "/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: HTTP %d", status)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("GET /v1/metrics: %w", err)
	}
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// service drives the daemon: service-cold submits a unique small run per
// operation and waits on its stream; service-hot re-submits and fetches
// results a restarted daemon holds in its store.
type service struct {
	opt options
	hot bool

	root   string // the current set-up's temporary directory
	d      *daemon
	c      *client
	before map[string]float64 // /v1/metrics at the end of set-up

	// service-hot: the precomputed configurations and their results.
	cfgs   []core.RunConfig
	keys   []string
	bodies [][]byte
	want   []server.RunResult

	mu        sync.Mutex
	completed []int // service-cold: operations whose run completed
}

func newServiceCold(opt options) instance { return &service{opt: opt} }
func newServiceHot(opt options) instance  { return &service{opt: opt, hot: true} }

// Configuration indices: timed operations count up from 0; fault
// injection and warm-up use ranges no run reaches.
const (
	extraIndex = 800_000
	warmIndex  = 900_000
)

// config is the small unique run of index i: scale 1 on the 4-CPU
// machine, rotating workload and system, a seed of its own.
func (s *service) config(i int) core.RunConfig {
	names, systems := workload.Names(), core.Systems()
	return core.RunConfig{
		Workload: names[i%len(names)],
		System:   systems[(i/len(names))%len(systems)],
		Scale:    1,
		Seed:     s.opt.Seed*1_000_000 + 1_000 + int64(i),
	}
}

// hotKeys is how many precomputed results service-hot serves.
func (s *service) hotKeys() int {
	if s.opt.Tiny {
		return 8
	}
	return 64
}

func runBody(cfg core.RunConfig) []byte {
	b, _ := json.Marshal(server.RunRequest{
		WorkloadSpec: server.WorkloadSpec{Workload: string(cfg.Workload)},
		JobOptions:   server.JobOptions{Scale: cfg.Scale, Seed: cfg.Seed},
		System:       cfg.System.String(),
	})
	return b
}

// badBody is a request the daemon must refuse: an unknown system.
func badBody(cfg core.RunConfig) []byte {
	b, _ := json.Marshal(server.RunRequest{
		WorkloadSpec: server.WorkloadSpec{Workload: string(cfg.Workload)},
		JobOptions:   server.JobOptions{Scale: cfg.Scale, Seed: cfg.Seed},
		System:       "NoSuchSystem",
	})
	return b
}

// teardown stops the daemon and removes the set-up's directory.
func (s *service) teardown() error {
	var err error
	if s.d != nil {
		err = s.teardownDaemon()
	}
	if s.root != "" {
		os.RemoveAll(s.root)
		s.root = ""
	}
	return err
}

// period is the rotation of workloads and systems (service-cold) or the
// number of precomputed keys (service-hot).
func (s *service) period() int {
	if s.hot {
		return len(s.keys)
	}
	return len(workload.Names()) * len(core.Systems())
}

func (s *service) close() {
	if err := s.teardown(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: stopping the daemon:", err)
	}
}

// start brings a daemon up over the store in dir.
func (s *service) start(dir string) error {
	d, err := startDaemon(dir)
	if err != nil {
		return err
	}
	s.d, s.c = d, newClient(d.url)
	return nil
}

func (s *service) setup(ctx context.Context, b *bench) error {
	if err := s.teardown(); err != nil {
		return err
	}
	tmp := filepath.Join(s.opt.OutDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	root, err := os.MkdirTemp(tmp, s.opt.Workload+"-")
	if err != nil {
		return err
	}
	s.root = root
	dir := filepath.Join(root, "store")
	if err := s.start(dir); err != nil {
		return err
	}
	if s.hot {
		if err := s.precompute(ctx); err != nil {
			return err
		}
		// The restart: the daemon that computed the results goes away and
		// a new one replays them from the store.
		if err := s.teardownDaemon(); err != nil {
			return err
		}
		if err := s.start(dir); err != nil {
			return err
		}
		for k := 0; k < 2; k++ {
			if _, _, err := s.hotRequest(ctx, nil, k); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	} else {
		// One warm-up run per workload and system: every code path the
		// timed phase takes has run once, and set-up is long enough that
		// scheduling jitter does not dominate its time.
		for j := 0; j < s.period(); j++ {
			cfg := s.config(warmIndex + j)
			if _, _, err := s.coldRequest(ctx, nil, cfg, runBody(cfg)); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	s.before, err = s.c.counters(ctx)
	return err
}

// teardownDaemon stops the daemon but keeps its directory.
func (s *service) teardownDaemon() error {
	s.c.close()
	err := s.d.stop()
	s.c, s.d = nil, nil
	return err
}

// precompute runs service-hot's configurations through the daemon with
// two clients and records the results they return.
func (s *service) precompute(ctx context.Context) error {
	k := s.hotKeys()
	s.cfgs, s.keys, s.bodies = make([]core.RunConfig, k), make([]string, k), make([][]byte, k)
	s.want = make([]server.RunResult, k)
	for i := range s.cfgs {
		s.cfgs[i] = s.config(i)
		s.keys[i] = s.cfgs[i].CanonicalKey()
		s.bodies[i] = runBody(s.cfgs[i])
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < k && errs[w] == nil; i += len(errs) {
				var v *server.JobView
				_, v, errs[w] = s.coldRequest(ctx, nil, s.cfgs[i], s.bodies[i])
				if errs[w] == nil {
					s.want[i] = *v.Result
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (s *service) op(ctx context.Context, b *bench, i int) (uint64, time.Duration, error) {
	if i < b.opt.Faults.ExtraExecutions {
		cfg := s.config(extraIndex + i)
		if _, _, err := s.coldRequest(ctx, nil, cfg, runBody(cfg)); err != nil {
			return 0, 0, err
		}
	}
	if s.hot {
		return s.hotRequest(ctx, b, i)
	}
	cfg := s.config(i)
	body := runBody(cfg)
	if i < b.opt.Faults.BadRequests {
		body = badBody(cfg)
	}
	lat, v, err := s.coldRequest(ctx, b, cfg, body)
	if err != nil {
		return 0, 0, err
	}
	s.mu.Lock()
	s.completed = append(s.completed, i)
	s.mu.Unlock()
	return v.Result.Refs, lat, nil
}

// coldRequest submits one run and follows its stream to the result
// frame; the latency is from the POST to that frame. b is nil outside
// the timed phases.
func (s *service) coldRequest(ctx context.Context, b *bench, cfg core.RunConfig, body []byte) (time.Duration, *server.JobView, error) {
	var tr *tracer
	if b != nil {
		tr = b.tr
	}
	key := cfg.CanonicalKey()
	root := tr.start("perfbench.request", key, 0)
	defer root.end()
	t0 := time.Now()
	sp := tr.start("server.submit", key, root.id())
	v, err := s.c.submit(ctx, body)
	sp.end()
	if err != nil {
		return 0, nil, err
	}
	wp := tr.start("server.wait", key, root.id())
	final, err := s.c.wait(ctx, v.ID)
	wp.end()
	lat := time.Since(t0)
	if err != nil {
		return 0, nil, err
	}
	if final.State != server.JobDone || final.Result == nil || final.Result.Refs == 0 || final.Key != key {
		err := fmt.Errorf("job %s (%s/%s seed %d): state %s, key match %t, error %q",
			final.ID, cfg.Workload, cfg.System, cfg.Seed, final.State, final.Key == key, final.Error)
		if b != nil {
			b.violation(err)
		}
		return 0, nil, err
	}
	recordJob(tr, final, key, wp.id())
	return lat, final, nil
}

// recordJob adds the daemon-side intervals a finished job's view reports
// as spans under the client's wait: its queue wait and its execution,
// which starts with the workload build and the simulation.
func recordJob(tr *tracer, v *server.JobView, run string, parent int64) {
	if tr == nil || v.StartedAt == nil || v.FinishedAt == nil {
		return
	}
	started := *v.StartedAt
	tr.record("job.queue_wait", run, parent, v.CreatedAt, started)
	id := tr.record("job.run", run, parent, started, *v.FinishedAt)
	if st := v.Stages; st != nil {
		build := time.Duration(st.BuildSeconds * 1e9)
		simulate := time.Duration(st.SimulateSeconds * 1e9)
		tr.record("job.build", run, id, started, started.Add(build))
		tr.record("job.simulate", run, id, started.Add(build), started.Add(build+simulate))
	}
}

// hotRequest re-submits precomputed key k (answered without simulation)
// and fetches its stored result; the latency covers both.
func (s *service) hotRequest(ctx context.Context, b *bench, i int) (uint64, time.Duration, error) {
	var tr *tracer
	if b != nil {
		tr = b.tr
	}
	k := i % len(s.keys)
	key, body := s.keys[k], s.bodies[k]
	if b != nil && i < b.opt.Faults.BadRequests {
		body = badBody(s.cfgs[k])
	}
	root := tr.start("perfbench.request", key, 0)
	defer root.end()
	t0 := time.Now()
	sp := tr.start("server.submit", key, root.id())
	v, err := s.c.submit(ctx, body)
	sp.end()
	if err != nil {
		return 0, 0, err
	}
	gp := tr.start("server.result_get", key, root.id())
	rv, err := s.c.result(ctx, key)
	gp.end()
	lat := time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	var bad error
	switch {
	case v.State != server.JobDone || !v.Deduped || v.Key != key:
		bad = fmt.Errorf("re-submitted key %d: state %s, deduped %t, key match %t", k, v.State, v.Deduped, v.Key == key)
	case rv.Kind != "run" || rv.Result == nil || *rv.Result != s.want[k]:
		bad = fmt.Errorf("stored result of key %d differs from the one computed in set-up", k)
	}
	if bad != nil {
		if b != nil {
			b.violation(bad)
		}
		return 0, 0, bad
	}
	return 0, lat, nil
}

// layers measures the store from outside: the daemon's records go into a
// fresh store, are read back, and the store is closed and reopened.
func (s *service) layers(ctx context.Context, b *bench) error {
	keys := s.keys
	if !s.hot {
		s.mu.Lock()
		for _, i := range s.completed {
			keys = append(keys, s.config(i).CanonicalKey())
		}
		s.mu.Unlock()
	}
	var recs []*store.Record
	for _, k := range keys {
		rec := s.d.store.Get(k)
		if rec == nil {
			return fmt.Errorf("the daemon's store has no record for %s", k)
		}
		recs = append(recs, rec)
	}
	dir := filepath.Join(s.root, "measured")
	sp := b.tr.start("store.Open", "", 0)
	st, err := store.Open(dir, nil)
	sp.end()
	if err != nil {
		return err
	}
	n := float64(len(recs))
	sp = b.tr.start("store.Put", "", 0)
	for _, rec := range recs {
		if err := st.Put(rec); err != nil {
			st.Close()
			return err
		}
	}
	put := sp.end()
	sp = b.tr.start("store.Get", "", 0)
	missing := 0
	for _, rec := range recs {
		if st.Get(rec.Key) == nil {
			missing++
		}
	}
	get := sp.end()
	disk := st.Stats().DiskBytes
	sp = b.tr.start("store.Close", "", 0)
	err = st.Close()
	sp.end()
	if err != nil {
		return err
	}
	sp = b.tr.start("store.Open", "", 0)
	st, err = store.Open(dir, nil)
	open := sp.end()
	if err != nil {
		return err
	}
	replayed := st.Len()
	st.Close()
	var bad error
	if missing > 0 || replayed != len(recs) {
		bad = fmt.Errorf("%d of %d records missing after put, %d replayed", missing, len(recs), replayed)
	}
	b.checkErr("store put/get/replay", bad)
	b.set("store.put_us", ratio(float64(put)/1e3, n))
	b.set("store.get_us", ratio(float64(get)/1e3, n))
	b.set("store.open_ms", float64(open)/1e6)
	b.set("store.replay_us_per_record", ratio(float64(open)/1e3, n))
	b.set("store.bytes_per_record", ratio(float64(disk), n))
	return nil
}

// verify audits exactly-once execution through the /v1/metrics counters,
// compares sampled served results with core.Run's counters for the same
// configuration, and derives the server metrics.
func (s *service) verify(ctx context.Context, b *bench) {
	after, err := s.c.counters(ctx)
	if err != nil {
		b.checkErr("exactly-once executions", err)
		return
	}
	delta := func(name string) float64 { return after[name] - s.before[name] }
	s.mu.Lock()
	completed := append([]int(nil), s.completed...)
	s.mu.Unlock()
	want := len(completed)
	if s.hot {
		want = 0
	}
	execs := delta("local_executions")
	var audit error
	if execs != float64(want) {
		audit = fmt.Errorf("%v simulations executed in the timed phase, want %d (one per unique key)", execs, want)
	}
	b.checkErr("exactly-once executions", audit)

	submits := delta("jobs_queued") + delta("jobs_deduped")
	b.set("server.executions", execs)
	b.set("server.retries_429", delta("jobs_rejected"))
	b.set("server.dedup_frac", ratio(delta("jobs_deduped"), submits))
	b.set("server.store_hit_frac", ratio(delta("store_served_jobs")+delta("store_hits"), submits))
	spans := b.tr.snapshot()
	submit := durations(spans, "server.submit")
	b.set("server.submit_ms_p50", quantile(submit, 0.5)/1e6)
	b.set("server.submit_ms_p99", quantile(submit, 0.99)/1e6)
	b.set("server.result_get_ms", quantile(durations(spans, "server.result_get"), 0.5)/1e6)
	b.set("server.wait_ms", quantile(durations(spans, "server.wait"), 0.5)/1e6)
	b.set("server.queue_wait_ms", quantile(durations(spans, "job.queue_wait"), 0.5)/1e6)
	b.set("server.simulate_ms", quantile(durations(spans, "job.simulate"), 0.5)/1e6)

	b.checkErr("served results equal core.Run", s.sampleResults(ctx, completed))
}

// sampleResults fetches a few served results, chosen by the run seed, and
// compares them with core.Run's counters for the same configuration.
func (s *service) sampleResults(ctx context.Context, completed []int) error {
	var cfgs []core.RunConfig
	if s.hot {
		cfgs = s.cfgs
	} else {
		for _, i := range completed {
			cfgs = append(cfgs, s.config(i))
		}
	}
	if len(cfgs) == 0 {
		return errors.New("no completed results to sample")
	}
	rng := rand.New(rand.NewSource(s.opt.Seed))
	for n := 0; n < 4; n++ {
		cfg := cfgs[rng.Intn(len(cfgs))]
		rv, err := s.c.result(ctx, cfg.CanonicalKey())
		if err != nil {
			return err
		}
		o, err := core.Run(ctx, cfg)
		if err != nil {
			return err
		}
		if rv.Result == nil {
			return fmt.Errorf("%s/%s seed %d: no run result served", cfg.Workload, cfg.System, cfg.Seed)
		}
		if err := sameSummary(rv.Result, o); err != nil {
			return fmt.Errorf("%s/%s seed %d: %w", cfg.Workload, cfg.System, cfg.Seed, err)
		}
	}
	return nil
}

// sameSummary compares a served result's counts with an outcome's.
func sameSummary(got *server.RunResult, o *core.Outcome) error {
	c := &o.Counters
	want := [...]uint64{o.Refs, c.Cycles, c.OSTime(), c.TotalDReads(), c.TotalDReadMisses(),
		c.OSDReadMisses(), c.Bus.TotalTransactions(), c.Bus.TotalBytes()}
	have := [...]uint64{got.Refs, got.Cycles, got.OSCycles, got.DReads, got.DReadMisses,
		got.OSReadMisses, got.BusTransactions, got.BusBytes}
	if want != have {
		return fmt.Errorf("served counts %v, core.Run %v", have, want)
	}
	return nil
}
