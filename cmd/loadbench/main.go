// Command loadbench is a closed-loop load generator for a live ossimd
// daemon: -c concurrent clients submit -n simulation jobs, wait for
// each to finish (polling the status endpoint), and report throughput,
// end-to-end latency percentiles and the daemon's /v1/metrics. A 429 is
// honored by sleeping the advertised Retry-After and retrying, which
// is what makes the loop closed.
//
// Seeds rotate through -seeds values, so the duplicate ratio — and
// therefore the daemon's cache hit ratio — is controlled by the flag:
// -seeds 1 makes every request identical (pure dedup), -seeds 50 with
// -n 50 makes every request unique (pure simulation).
//
// Exit status is non-zero when any request failed, so CI can drive it
// as a smoke test.
//
// Cluster mode drives a coordinator and audits the cluster's
// exactly-once invariant: -cluster lists every node (coordinator
// first — submissions go to it, and it routes each unique
// configuration to the worker owning its key). After the run,
// loadbench reads GET /v1/cluster, prints the per-node execution
// table, and — when -expect-unique is set — fails unless the summed
// simulation executions across the whole cluster equal it, i.e.
// unless every unique canonical key was simulated exactly once
// cluster-wide no matter how many duplicates were submitted.
//
// Usage:
//
//	loadbench -addr http://127.0.0.1:8080 -n 50 -c 8 -scale 2 -seeds 5
//	loadbench -cluster http://coord:8080,http://w1:8081,http://w2:8082 \
//	          -n 60 -c 12 -seeds 6 -expect-unique 6
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oscachesim/internal/obs"
)

func main() {
	var (
		addr    = flag.String("addr", "http://127.0.0.1:8080", "ossimd base URL")
		n       = flag.Int("n", 100, "total requests")
		c       = flag.Int("c", 8, "concurrent clients")
		wname   = flag.String("workload", "TRFD_4", "workload to request")
		system  = flag.String("system", "Base", "system to request")
		scale   = flag.Int("scale", 2, "scheduling rounds per request")
		seeds   = flag.Int64("seeds", 5, "rotate seeds 1..N (1 = all requests identical)")
		poll    = flag.Duration("poll", 25*time.Millisecond, "job status poll interval")
		timeout = flag.Duration("timeout", 5*time.Minute, "per-request end-to-end budget")

		clusterList  = flag.String("cluster", "", "comma-separated node base URLs, coordinator first; submissions go to the coordinator and the per-node execution table is reported")
		expectUnique = flag.Int("expect-unique", -1, "assert total cluster-wide simulation executions equal this (exactly-once audit); -1 disables")
	)
	flag.Parse()
	if *n <= 0 || *c <= 0 || *seeds <= 0 {
		fmt.Fprintln(os.Stderr, "loadbench: -n, -c and -seeds must be positive")
		os.Exit(2)
	}
	var nodes []string
	if *clusterList != "" {
		for _, u := range strings.Split(*clusterList, ",") {
			if u = strings.TrimSpace(u); u != "" {
				nodes = append(nodes, strings.TrimRight(u, "/"))
			}
		}
		if len(nodes) == 0 {
			fmt.Fprintln(os.Stderr, "loadbench: -cluster lists no nodes")
			os.Exit(2)
		}
		// The coordinator is the entry point: it routes unique work to
		// the workers and serves every duplicate from its caches.
		*addr = nodes[0]
	}

	client := &http.Client{Timeout: 30 * time.Second}
	var (
		okCount, errCount, dedupCount, retries atomic.Int64
		mu                                     sync.Mutex
		max                                    time.Duration
	)
	// End-to-end latency goes into the same fixed-bucket histogram type
	// the daemon uses for its stage and request timings, so loadbench's
	// percentiles and a scraped ossimd dashboard estimate quantiles the
	// same way. The histogram is lock-free; only max needs the mutex.
	latency := obs.NewHistogram(obs.DurationBuckets())
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for range *c {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				body, _ := json.Marshal(map[string]any{
					"workload": *wname, "system": *system, "scale": *scale, "seed": 1 + int64(i)%*seeds,
				})
				lat, deduped, err := oneRequest(client, *addr, body, *poll, *timeout, &retries)
				if err != nil {
					errCount.Add(1)
					fmt.Fprintf(os.Stderr, "loadbench: request %d: %v\n", i, err)
					continue
				}
				okCount.Add(1)
				if deduped {
					dedupCount.Add(1)
				}
				latency.ObserveDuration(lat)
				mu.Lock()
				if lat > max {
					max = lat
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < *n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)

	snap := latency.Snapshot()
	pct := func(p float64) time.Duration {
		return time.Duration(snap.Quantile(p) * float64(time.Second))
	}
	fmt.Printf("loadbench: %d requests in %s (%.1f req/s), %d ok, %d errors, %d deduped, %d 429-retries\n",
		*n, elapsed.Round(time.Millisecond), float64(*n)/elapsed.Seconds(),
		okCount.Load(), errCount.Load(), dedupCount.Load(), retries.Load())
	fmt.Printf("latency: p50=%s p90=%s p99=%s max=%s\n",
		pct(0.50).Round(time.Millisecond), pct(0.90).Round(time.Millisecond),
		pct(0.99).Round(time.Millisecond), max.Round(time.Millisecond))

	if body, err := get(client, *addr+"/v1/metrics"); err == nil {
		fmt.Printf("metrics: %s", body)
	}
	if len(nodes) > 0 {
		if !clusterAudit(client, nodes, *expectUnique) {
			os.Exit(1)
		}
	}
	if errCount.Load() > 0 {
		os.Exit(1)
	}
}

// clusterAudit prints every node's execution and store counts and
// checks the exactly-once invariant: the simulations actually executed
// across the whole cluster must equal the expected unique-key count.
// The coordinator's /v1/cluster table carries the workers' counts (via
// heartbeats); each node's own /v1/cluster "self" row is authoritative,
// so nodes are asked directly when reachable.
func clusterAudit(client *http.Client, nodes []string, expectUnique int) bool {
	var total uint64
	fmt.Println("cluster:")
	for _, node := range nodes {
		body, err := get(client, node+"/v1/cluster")
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadbench: %s: %v\n", node, err)
			return false
		}
		var view struct {
			Self struct {
				ID         string `json:"id"`
				Role       string `json:"role"`
				Executions uint64 `json:"executions"`
				Store      struct {
					Records int `json:"records"`
				} `json:"store"`
			} `json:"self"`
		}
		if err := json.Unmarshal(body, &view); err != nil {
			fmt.Fprintf(os.Stderr, "loadbench: %s: bad /v1/cluster body: %v\n", node, err)
			return false
		}
		fmt.Printf("  node %-12s role=%-11s executions=%-4d store_records=%d  (%s)\n",
			view.Self.ID, view.Self.Role, view.Self.Executions, view.Self.Store.Records, node)
		total += view.Self.Executions
	}
	fmt.Printf("cluster: %d simulations executed cluster-wide\n", total)
	if expectUnique >= 0 && total != uint64(expectUnique) {
		fmt.Fprintf(os.Stderr, "loadbench: exactly-once violated: %d executions cluster-wide, expected %d\n",
			total, expectUnique)
		return false
	}
	return true
}

// oneRequest submits a run and waits for its terminal state, honoring
// 429 backpressure. Returns end-to-end latency and whether the submit
// was answered by an existing job.
func oneRequest(client *http.Client, addr string, body []byte, poll, timeout time.Duration, retries *atomic.Int64) (time.Duration, bool, error) {
	start := time.Now()
	deadline := start.Add(timeout)

	var sub struct {
		ID      string `json:"id"`
		State   string `json:"state"`
		Deduped bool   `json:"deduped"`
		Error   string `json:"error"`
	}
	for {
		resp, err := client.Post(addr+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, false, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, false, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			retries.Add(1)
			if time.Now().After(deadline) {
				return 0, false, fmt.Errorf("queue stayed full for %s", timeout)
			}
			wait := time.Second
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
				wait = time.Duration(ra) * time.Second
			}
			time.Sleep(wait)
			continue
		}
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			return 0, false, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, data)
		}
		if err := json.Unmarshal(data, &sub); err != nil {
			return 0, false, fmt.Errorf("submit: bad response: %v", err)
		}
		break
	}

	for {
		body, err := get(client, addr+"/v1/runs/"+sub.ID)
		if err != nil {
			return 0, false, err
		}
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return 0, false, fmt.Errorf("status: bad response: %v", err)
		}
		switch st.State {
		case "done":
			return time.Since(start), sub.Deduped, nil
		case "failed", "canceled":
			return 0, false, fmt.Errorf("job %s %s: %s", sub.ID, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			return 0, false, fmt.Errorf("job %s still %s after %s", sub.ID, st.State, timeout)
		}
		time.Sleep(poll)
	}
}

// get fetches one URL body, failing on non-200.
func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	return body, nil
}
