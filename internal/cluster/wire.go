package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"oscachesim/internal/core"
	"oscachesim/internal/store"
)

// ComputePath is the internal endpoint workers serve compute forwards
// on.
const ComputePath = "/v1/internal/compute"

// ComputeRequest is the wire form of one forwarded simulation: the run
// configuration itself plus the coordinator's canonical key, which the
// worker recomputes and verifies — a version skew between nodes
// (different SimVersion, divergent config serialization) fails loudly
// instead of poisoning the cluster's content-addressed caches.
type ComputeRequest struct {
	Key string         `json:"key"`
	Run core.RunConfig `json:"run"`
}

// EncodeConfig renders a run configuration for forwarding. It refuses
// a configuration with an attached Monitor, which must observe a local
// run.
func EncodeConfig(cfg core.RunConfig) (*ComputeRequest, error) {
	if cfg.Monitor != nil {
		return nil, errors.New("cluster: a monitored run cannot be forwarded")
	}
	return &ComputeRequest{Key: cfg.CanonicalKey(), Run: cfg}, nil
}

// Config returns the run configuration after verifying its canonical
// key matches the coordinator's — the receiving side of the skew check.
func (cr *ComputeRequest) Config() (core.RunConfig, error) {
	if got := cr.Run.CanonicalKey(); got != cr.Key {
		return core.RunConfig{}, fmt.Errorf(
			"cluster: key mismatch (version skew?): coordinator sent %.12s…, this node computes %.12s…",
			cr.Key, got)
	}
	return cr.Run, nil
}

// RetryAfterError reports a worker that answered 429: it is healthy
// but saturated, and asked to be retried after the given delay —
// distinct from a connection failure, which marks the node suspect.
type RetryAfterError struct {
	After time.Duration
}

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("cluster: worker saturated, retry after %s", e.After)
}

// Client forwards compute requests to workers.
type Client struct {
	// HTTP is the transport; nil uses http.DefaultClient. Deadlines
	// come from the per-call context (the job timeout), not a global
	// client timeout.
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Compute asks the worker at baseURL to simulate one configuration and
// returns its durable result record. A 429 maps to *RetryAfterError;
// any transport failure or non-200 means the worker should be treated
// as unavailable for this key.
func (c *Client) Compute(ctx context.Context, baseURL string, creq *ComputeRequest) (*store.Record, error) {
	body, err := json.Marshal(creq)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+ComputePath, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: forward to %s: %w", baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		after := time.Second
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
				after = time.Duration(secs) * time.Second
			}
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, &RetryAfterError{After: after}
	}
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("cluster: forward to %s: %s: %s", baseURL, resp.Status, bytes.TrimSpace(snippet))
	}
	var rec store.Record
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&rec); err != nil {
		return nil, fmt.Errorf("cluster: decoding %s's result: %w", baseURL, err)
	}
	if rec.Key != creq.Key {
		return nil, fmt.Errorf("cluster: %s returned record %.12s… for key %.12s…", baseURL, rec.Key, creq.Key)
	}
	return &rec, nil
}
